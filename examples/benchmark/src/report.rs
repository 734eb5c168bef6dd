//! Metric definitions, the per-workload report, and how both are printed.
//! `BENCHMARK.json` at the repository root lists the same metrics; a test
//! keeps the two in step.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

pub const SCHEMA: &str = "aimes-benchmark-v1";

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before it counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the laboratory sees, measured with no profiler attached,
/// whose run-to-run spread on the reference host is inside its bound.
/// Set-up time, a median of cold processes, is the noisiest and has the
/// widest bound.
pub const END_TO_END: &[MetricDef] = &[
    e2e("peak_rss_mb", "MB", Lower, 0.10),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Campaign throughput and run latency of the untraced passes, then
/// per-module counts and times. The first three are what a user feels,
/// but from one invocation to the next on the reference host they spread
/// wider than any bound a change could be held to (see README), so they
/// are reported here, unbounded. The `*.self_share`, `*.calls` and
/// `*.p99_us` rows come from the traced pass, the probes from timing
/// single library calls outside the runs.
pub const PER_LAYER: &[MetricDef] = &[
    // untraced passes
    layer("runs_per_s", "runs/s", Higher),
    layer("run_wall_p50_ms", "ms", Lower),
    layer("run_wall_tail_ms", "ms", Lower),
    // sim
    layer("engine.dispatch.self_share", "fraction", Lower),
    layer("engine.dispatch.calls", "count", Lower),
    layer("sim.events", "count", Lower),
    layer("sim.events_cancelled", "count", Lower),
    layer("sim.pending_hwm", "count", Lower),
    layer("sim.compactions", "count", Lower),
    layer("sim.events_per_s", "1/s", Higher),
    layer("alloc.allocs_per_event", "count", Lower),
    // cluster
    layer("cluster.scheduler.self_share", "fraction", Lower),
    layer("cluster.scheduler.calls", "count", Lower),
    layer("cluster.scheduler.p99_us", "us", Lower),
    layer("cluster.warmup_ms", "ms", Lower),
    layer("cluster.warmup_events_per_s", "1/s", Higher),
    layer("cluster.estimate_wait_us", "us", Lower),
    // pilot
    layer("unit.manager.self_share", "fraction", Lower),
    layer("unit.manager.calls", "count", Lower),
    layer("unit.manager.p99_us", "us", Lower),
    layer("pilot.manager.self_share", "fraction", Lower),
    layer("pilot.manager.calls", "count", Lower),
    layer("unit.restarts", "count", Lower),
    layer("pilot.replacements", "count", Lower),
    layer("unit.useful_fraction", "fraction", Higher),
    // saga, fault
    layer("saga.session.self_share", "fraction", Lower),
    layer("saga.session.calls", "count", Lower),
    // bundle, strategy, skeleton
    layer("bundle.info.self_share", "fraction", Lower),
    layer("bundle.info.calls", "count", Lower),
    layer("middleware.plan.self_share", "fraction", Lower),
    layer("middleware.plan.calls", "count", Lower),
    layer("bundle.info_fallbacks", "count", Lower),
    layer("bundle.setup_times_us", "us", Lower),
    layer("strategy.derive_plan_us", "us", Lower),
    layer("skeleton.generate_us", "us", Lower),
    // aimes
    layer("aimes.run_application.self_share", "fraction", Lower),
    layer("aimes.run_application.calls", "count", Lower),
    layer("alloc.allocs_per_run", "count", Lower),
    layer("alloc.bytes_per_run", "B", Lower),
    layer("alloc.heap_retained_kb_per_run", "KB", Lower),
    layer("aimes.replans", "count", Lower),
    // rayon pool
    layer("pool.busy_fraction", "fraction", Higher),
    layer("pool.imbalance", "fraction", Lower),
    // tracing
    layer("trace.overhead", "fraction", Lower),
    layer("trace.coverage", "fraction", Higher),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

/// Everything one workload invocation measured and checked.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkloadReport {
    pub workload: String,
    pub seed: u64,
    pub quick: bool,
    pub jobs: u64,
    pub passes: u64,
    pub runs_per_pass: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Job-ordered digest of every run's outcome, in hex.
    pub result_digest: String,
    /// Which quantile `run_wall_tail_ms` reports, and over how many runs.
    pub tail_quantile: f64,
    pub tail_samples: u64,
    /// Names of the correctness checks that failed; empty when correct.
    pub failed_checks: Vec<String>,
    pub metrics: BTreeMap<String, Metric>,
}

impl WorkloadReport {
    pub fn correct(&self) -> bool {
        self.failed_checks.is_empty()
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.value)
    }

    /// Human-readable lines: every metric with its unit, then the checks.
    pub fn print(&self) {
        println!(
            "workload {}  seed {}  jobs {}  passes {}  runs/pass {}  digest {}",
            self.workload,
            self.seed,
            self.jobs,
            self.passes,
            self.runs_per_pass,
            self.result_digest
        );
        for (name, m) in &self.metrics {
            println!("  {name:<36} {:>16.6} {}", m.value, m.unit);
        }
        if self.metrics.contains_key("run_wall_tail_ms") {
            println!(
                "  (run_wall_tail_ms is p{:.0} over {} runs)",
                self.tail_quantile * 100.0,
                self.tail_samples
            );
        }
        if self.correct() {
            println!("  checks: all passed");
        } else {
            for check in &self.failed_checks {
                println!("  check FAILED: {check}");
            }
        }
    }

    /// The one-line result record: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        #[derive(Serialize)]
        struct Line {
            correct: bool,
            attempted: u64,
            failed: u64,
            metrics: BTreeMap<String, Metric>,
        }
        serde_json::to_string(&Line {
            correct: self.correct(),
            attempted: self.attempted,
            failed: self.failed,
            metrics: self.metrics.clone(),
        })
        .expect("result line serializes")
    }
}

/// A report file: one or more workload reports from one invocation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Report {
    pub schema: String,
    pub workloads: Vec<WorkloadReport>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;
    use serde_json::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.get(key).unwrap_or_else(|| panic!("missing key {key}"))
    }

    fn keys(v: &Value) -> Vec<&str> {
        v.as_object()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect()
    }

    fn is_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    fn better(s: &str) -> Better {
        match s {
            "lower" => Lower,
            "higher" => Higher,
            other => panic!("better is {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_and_workloads_defined_here() {
        let file = benchmark_json();
        assert_eq!(
            keys(&file),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let workloads = field(&file, "workloads").as_array().expect("a list");
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| {
                assert_eq!(keys(w), ["name", "why"]);
                field(w, "name").as_str().expect("a string")
            })
            .collect();
        assert_eq!(names, NAMES);

        for (section, defs, has_bound) in [
            ("end_to_end", END_TO_END, true),
            ("per_layer", PER_LAYER, false),
        ] {
            let listed = field(&file, section).as_array().expect("a list");
            assert_eq!(listed.len(), defs.len(), "{section}");
            for (entry, def) in listed.iter().zip(defs) {
                let expected: &[&str] = if has_bound {
                    &["name", "unit", "better", "bound"]
                } else {
                    &["name", "unit", "better"]
                };
                assert_eq!(keys(entry), expected, "{}", def.name);
                assert_eq!(field(entry, "name").as_str(), Some(def.name));
                assert_eq!(
                    field(entry, "unit").as_str(),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                let b = better(field(entry, "better").as_str().expect("a string"));
                assert_eq!(b, def.better, "{}", def.name);
                if has_bound {
                    assert_eq!(field(entry, "bound").as_f64(), def.bound, "{}", def.name);
                }
            }
        }
    }

    #[test]
    fn metric_definitions_meet_the_benchmark_limits() {
        assert!((2..=8).contains(&NAMES.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, m) in all.iter().enumerate() {
            assert!(is_name(m.name), "{}", m.name);
            assert!(is_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(
                all[..i].iter().all(|o| o.name != m.name),
                "{} twice",
                m.name
            );
        }
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics have a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
        }
        let setup = find("setup_s").expect("setup_s is defined");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the widest bound");
        assert!(NAMES.iter().all(|n| is_name(n)));
    }
}
