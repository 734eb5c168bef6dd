//! The benchmark of record: whole middleware runs timed from outside the
//! program, with per-layer attribution from one traced pass.
//!
//! ```text
//! benchmark [--workload NAME] [--seed S] [--jobs J] [--passes K | --seconds S]
//!           [--quick] [--trace 0|1] [--out FILE]
//! benchmark compare <parent reports…> -- <change reports…>
//! ```
//!
//! Without `--workload` the benchmark re-executes itself once per
//! workload, one child at a time, so each child's peak RSS and retained
//! heap belong to one workload. A workload run does one warm-up pass, `K`
//! timed passes with no profiler attached, each after a batch of fresh
//! processes that time the workload's set-up, and one traced pass.
//! `--seconds` sets `K` from the workload's nominal pass length, so every
//! commit does the same work; `--trace 0` skips the traced pass and
//! `--trace 1` the set-up. The last
//! line of standard output is the JSON result record. The exit code is 1
//! when a correctness check fails, 2 on a usage error.

mod compare;
mod measure;
mod report;
mod trace;
mod workloads;

use aimes_repro::middleware::stats::percentile;
use measure::{heap, peak_rss_mb, run_pass, tail, Pass, RunSummary};
use report::{Metric, Report, WorkloadReport, SCHEMA};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::{probe_all, Profile, LABELS, ROOT_LABEL};
use workloads::{Workload, NAMES};

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;

/// Fresh processes timed for `setup_s`, at least; the median is reported.
/// They run in equal batches before each timed pass, so that they sample
/// the host over the whole invocation rather than one moment of it.
const SETUP_PROBES: usize = 15;

/// The seed of the input every set-up probe runs. Fixed, so that
/// `setup_s` compares across `--seed` values.
const SETUP_SEED: u64 = 0;

struct Args {
    workload: Option<String>,
    seed: u64,
    jobs: usize,
    passes: Option<usize>,
    seconds: Option<f64>,
    quick: bool,
    /// `None`: timed and traced metrics; `Some(false)`: end-to-end only;
    /// `Some(true)`: per-layer only.
    trace: Option<bool>,
    out: Option<PathBuf>,
    /// Internal: run the workload's set-up input once and exit.
    setup_probe: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut a = Args {
        workload: None,
        seed: 1,
        jobs: nproc.min(2),
        passes: None,
        seconds: None,
        quick: false,
        trace: None,
        out: None,
        setup_probe: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                if !NAMES.contains(&v.as_str()) {
                    return Err(format!("unknown workload {v:?}; known: {NAMES:?}"));
                }
                a.workload = Some(v);
            }
            "--seed" => {
                let v = value()?;
                a.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--jobs" => {
                let v = value()?;
                a.jobs = v.parse().ok().filter(|&j| j >= 1).ok_or_else(|| bad(&v))?;
            }
            "--passes" => {
                let v = value()?;
                a.passes = Some(v.parse().ok().filter(|&k| k >= 1).ok_or_else(|| bad(&v))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad(&v))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(&v));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                let v = value()?;
                a.trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                });
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--quick" => a.quick = true,
            "--setup-probe" => a.setup_probe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.setup_probe && a.workload.is_none() {
        return Err("--setup-probe needs --workload".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let rest = &argv[1..];
        let split = rest.iter().position(|a| a == "--").unwrap_or(rest.len());
        let change = rest.get(split + 1..).unwrap_or(&[]);
        return match compare::run(&rest[..split], change) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => usage_error(&e),
        };
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => return usage_error(&e),
    };
    match &args.workload {
        Some(name) if args.setup_probe => setup_probe(name, args.quick),
        Some(name) => run_one_workload(&args, name),
        None => run_every_workload(&args, &argv),
    }
}

/// A set-up probe process: build the workload's inputs, run its first job
/// once, cold, and exit; success only for a complete run.
fn setup_probe(name: &str, quick: bool) -> ExitCode {
    let w = Workload::build(name, SETUP_SEED, quick).expect("name was validated");
    match measure::run_one(&w, &w.jobs[0], false).outcome {
        Ok(s) if s.units_done == s.n_tasks as usize => ExitCode::SUCCESS,
        _ => ExitCode::FAILURE,
    }
}

/// One `setup_s` sample: the time from spawning a fresh process to its
/// exit after its first completed run. That covers process start,
/// building the inputs, and every cost a first run pays once (lazy
/// initialisation, a cold heap), so work moved out of the runs into
/// one-time set-up shows here.
fn time_setup_probe(name: &str, quick: bool) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let mut cmd = Command::new(&exe);
    cmd.args(["--setup-probe", "--workload", name]);
    if quick {
        cmd.arg("--quick");
    }
    cmd.stdout(Stdio::null());
    let start = Instant::now();
    let status = cmd.status().map_err(|e| format!("cannot start: {e}"))?;
    let secs = start.elapsed().as_secs_f64();
    if status.success() {
        Ok(secs)
    } else {
        Err(format!("set-up probe exited with {status}"))
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("benchmark: {msg}");
    eprintln!(
        "usage: benchmark [--workload NAME] [--seed S] [--jobs J] [--passes K | --seconds S] \
         [--quick] [--trace 0|1] [--out FILE]\n       \
         benchmark compare <parent reports…> -- <change reports…>"
    );
    ExitCode::from(2)
}

fn write_report(path: &PathBuf, workloads: Vec<WorkloadReport>) -> Result<(), String> {
    let report = Report {
        schema: SCHEMA.to_string(),
        workloads,
    };
    let text = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn run_one_workload(args: &Args, name: &str) -> ExitCode {
    let w = Workload::build(name, args.seed, args.quick).expect("name was validated");
    let report = measure_workload(args, &w, || time_setup_probe(name, args.quick));
    report.print();
    if let Some(path) = &args.out {
        if let Err(e) = write_report(path, vec![report.clone()]) {
            eprintln!("benchmark: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "benchmark: failed checks: {}",
            report.failed_checks.join("; ")
        );
        ExitCode::FAILURE
    }
}

/// Re-execute this binary once per workload, one child at a time,
/// relaying each child's output; with `--out`, merge the children's
/// reports into one file.
fn run_every_workload(args: &Args, argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return usage_error(&format!("cannot locate own executable: {e}")),
    };
    // Forward every flag except `--out`, which each child gets its own of.
    let mut forwarded = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a == "--out" {
            it.next();
        } else {
            forwarded.push(a.clone());
        }
    }
    let mut ok = true;
    let mut reports = Vec::new();
    for name in NAMES {
        let part = args
            .out
            .as_ref()
            .map(|p| PathBuf::from(format!("{}.{name}", p.display())));
        let mut cmd = Command::new(&exe);
        cmd.args(&forwarded).args(["--workload", name]);
        if let Some(part) = &part {
            cmd.arg("--out").arg(part);
        }
        match cmd.status() {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("benchmark: cannot run {name}: {e}");
                ok = false;
            }
        }
        if let Some(part) = part {
            let read = std::fs::read_to_string(&part)
                .ok()
                .and_then(|t| serde_json::from_str::<Report>(&t).ok());
            let _ = std::fs::remove_file(&part);
            match read {
                Some(r) => reports.extend(r.workloads),
                None => ok = false,
            }
        }
    }
    if let Some(path) = &args.out {
        if let Err(e) = write_report(path, reports) {
            eprintln!("benchmark: {e}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Correctness checks, collected by name with the first detail seen, and
/// the tally of runs attempted and failed over every pass.
#[derive(Default)]
struct Checks {
    failed_checks: Vec<String>,
    attempted: usize,
    failed: usize,
}

impl Checks {
    fn require(&mut self, ok: bool, name: &str, detail: impl FnOnce() -> String) {
        if !ok && !self.failed_checks.iter().any(|c| c.starts_with(name)) {
            self.failed_checks.push(format!("{name}: {}", detail()));
        }
    }

    /// Tally a pass and apply the checks every pass must meet.
    fn pass(&mut self, w: &Workload, pass: &Pass, label: &str, first_digest: u64) {
        self.attempted += pass.runs.len();
        self.failed += pass.failed();
        if let Some(bad) = pass.bad_result() {
            self.require(false, "complete_results", || format!("{label} pass: {bad}"));
        }
        self.require(pass.failed() == 0, "no_failed_runs", || {
            format!("{label} pass: {} runs failed", pass.failed())
        });
        let digest = pass.digest();
        self.require(digest == first_digest, "digest_stable", || {
            format!("{label} pass digest {digest:#018x} != warm-up {first_digest:#018x}")
        });
        if w.name == "chaos_recovery" {
            let sum = |f: fn(&RunSummary) -> u64| pass.summaries().map(f).sum::<u64>();
            let (replaced, restarted, fallbacks) = (
                sum(|s| s.replacements),
                sum(|s| s.restarts),
                sum(|s| s.info_fallbacks),
            );
            self.require(
                replaced > 0 && restarted > 0 && fallbacks > 0,
                "chaos_recovers",
                || {
                    format!(
                        "{label} pass: replacements {replaced}, restarts {restarted}, \
                         info fallbacks {fallbacks}"
                    )
                },
            );
        }
    }
}

/// What the warm-up and timed passes measured.
struct Timed {
    passes: usize,
    /// The warm-up pass's result digest, which every later pass must match.
    digest: u64,
    best_pass_secs: f64,
    /// Each run's fastest wall over the timed passes, in job order.
    best_run_secs: Vec<f64>,
    /// Allocations and bytes allocated during the timed passes.
    allocs: u64,
    bytes: u64,
    /// Live heap after the timed passes minus live heap before the
    /// warm-up, per run in between.
    retained_kb_per_run: f64,
    peak_rss_mb: f64,
    pool: rayon::PoolStats,
}

/// One warm-up pass, then `passes` timed passes with no profiler attached,
/// calling `between` before each timed pass.
///
/// Interference from other tenants of the host only ever adds time, so
/// each timing is the best seen over the timed passes: the fastest pass
/// for throughput, and each run's fastest wall for the per-run figures.
fn timed_passes(
    w: &Workload,
    passes: usize,
    checks: &mut Checks,
    mut between: impl FnMut(),
) -> Timed {
    let n = w.jobs.len();
    let live_before = heap().live;
    let warm = run_pass(w, false);
    let digest = warm.digest();
    checks.pass(w, &warm, "warm-up", digest);
    drop(warm);

    rayon::reset_pool_stats();
    let start = heap();
    let mut best_pass_secs = f64::INFINITY;
    let mut best_run_secs = vec![f64::INFINITY; n];
    for k in 0..passes {
        between();
        let pass = run_pass(w, false);
        checks.pass(w, &pass, &format!("timed {}", k + 1), digest);
        best_pass_secs = best_pass_secs.min(pass.wall_secs);
        for (best, run) in best_run_secs.iter_mut().zip(&pass.runs) {
            *best = best.min(run.wall_secs);
        }
    }
    let end = heap();
    Timed {
        passes,
        digest,
        best_pass_secs,
        best_run_secs,
        allocs: end.allocs - start.allocs,
        bytes: end.bytes - start.bytes,
        retained_kb_per_run: (end.live - live_before) as f64 / 1024.0 / ((passes + 1) * n) as f64,
        peak_rss_mb: peak_rss_mb().unwrap_or(f64::NAN),
        pool: rayon::pool_stats(),
    }
}

/// The per-layer metrics: the traced pass's profile, counts summed over
/// its runs, the layer probes, and what the timed passes counted.
fn layer_metrics(
    w: &Workload,
    t: &Timed,
    traced: &Pass,
    checks: &mut Checks,
    put: &mut impl FnMut(&str, f64),
) {
    let profile = Profile::from_pass(traced);
    for label in LABELS.iter().chain([&ROOT_LABEL]) {
        let (share, calls, p99) = profile.label(label);
        put(&format!("{label}.self_share"), share);
        put(&format!("{label}.calls"), calls as f64);
        put(&format!("{label}.p99_us"), p99);
    }
    let engine = profile.merged.engine;
    let events = engine.events_processed as f64;
    let timed_runs = (t.passes * w.jobs.len()) as f64;
    put("sim.events", events);
    put("sim.events_cancelled", engine.events_cancelled as f64);
    put("sim.pending_hwm", engine.pending_events_hwm as f64);
    put("sim.compactions", engine.compactions as f64);
    put("sim.events_per_s", events / t.best_pass_secs);
    put(
        "alloc.allocs_per_event",
        t.allocs as f64 / (events * t.passes as f64),
    );
    put("alloc.allocs_per_run", t.allocs as f64 / timed_runs);
    put("alloc.bytes_per_run", t.bytes as f64 / timed_runs);
    put("alloc.heap_retained_kb_per_run", t.retained_kb_per_run);

    let probes = probe_all(w);
    put("cluster.warmup_ms", probes.warmup_ms);
    put("cluster.warmup_events_per_s", probes.warmup_events_per_s);
    put("cluster.estimate_wait_us", probes.estimate_wait_us);
    put("bundle.setup_times_us", probes.setup_times_us);
    put("strategy.derive_plan_us", probes.derive_plan_us);
    put("skeleton.generate_us", probes.generate_us);

    let total = |f: fn(&RunSummary) -> u64| traced.summaries().map(f).sum::<u64>() as f64;
    put("unit.restarts", total(|s| s.restarts));
    put("pilot.replacements", total(|s| s.replacements));
    put("aimes.replans", total(|s| s.replans));
    put("bundle.info_fallbacks", total(|s| s.info_fallbacks));
    let used: f64 = traced.summaries().map(|s| s.used_core_hours).sum();
    let wasted: f64 = traced.summaries().map(|s| s.wasted_core_hours).sum();
    put("unit.useful_fraction", used / (used + wasted));

    let busy: Vec<f64> = t.pool.workers.iter().map(|w| w.busy_secs).collect();
    let mean_busy = busy.iter().sum::<f64>() / busy.len() as f64;
    let max_busy = busy.iter().copied().fold(0.0, f64::max);
    put("pool.busy_fraction", t.pool.utilization());
    put("pool.imbalance", max_busy / mean_busy - 1.0);

    put("trace.overhead", traced.wall_secs / t.best_pass_secs - 1.0);
    let coverage = profile.coverage();
    put("trace.coverage", coverage);
    checks.require((0.95..=1.05).contains(&coverage), "trace_coverage", || {
        format!("traced labels cover {coverage:.4} of run wall, outside [0.95, 1.05]")
    });
}

/// Measure one workload: the warm-up, timed and traced passes run in this
/// process. `setup` takes one set-up sample; unless only per-layer
/// metrics are asked for, it runs `SETUP_PROBES` times or more, in
/// batches between the timed passes.
fn measure_workload(
    args: &Args,
    w: &Workload,
    mut setup: impl FnMut() -> Result<f64, String>,
) -> WorkloadReport {
    let mut checks = Checks::default();
    let mut values = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        values.insert(name.to_string(), value);
    };
    let n = w.jobs.len();
    let passes = args.passes.unwrap_or_else(|| match args.seconds {
        Some(s) => ((s / w.nominal_pass_secs).round() as usize).max(3),
        None if args.quick => 3,
        None => 5,
    });
    let timed_setup = args.trace != Some(true);
    let probes_per_pass = SETUP_PROBES.div_ceil(passes);
    let mut setup_samples = Vec::new();
    rayon::ThreadPoolBuilder::new()
        .num_threads(args.jobs)
        .build_global()
        .expect("the pool accepts a worker count");
    let t = timed_passes(w, passes, &mut checks, || {
        if timed_setup {
            setup_samples.extend((0..probes_per_pass).map(|_| setup()));
        }
    });
    if timed_setup {
        let samples: Result<Vec<f64>, String> = setup_samples.into_iter().collect();
        let setup_s = samples.map_or_else(
            |e| {
                checks.require(false, "setup_probe", || e);
                f64::NAN
            },
            |secs| percentile(&secs, 0.5).unwrap_or(f64::NAN),
        );
        put("setup_s", setup_s);
        put("peak_rss_mb", t.peak_rss_mb);
    }
    let (tail_q, tail_s) = tail(&t.best_run_secs);
    if args.trace != Some(false) {
        put("runs_per_s", n as f64 / t.best_pass_secs);
        put(
            "run_wall_p50_ms",
            percentile(&t.best_run_secs, 0.5).unwrap_or(f64::NAN) * 1e3,
        );
        put("run_wall_tail_ms", tail_s * 1e3);
        let traced = run_pass(w, true);
        checks.pass(w, &traced, "traced", t.digest);
        layer_metrics(w, &t, &traced, &mut checks, &mut put);
    }
    // Keep only the metrics the benchmark defines: the label loop also
    // yields p99 rows for labels that report none.
    let metrics = values
        .into_iter()
        .filter_map(|(name, value)| {
            let unit = report::find(&name)?.unit.to_string();
            Some((name, Metric { value, unit }))
        })
        .collect();
    WorkloadReport {
        workload: w.name.to_string(),
        seed: args.seed,
        quick: args.quick,
        jobs: args.jobs as u64,
        passes: passes as u64,
        runs_per_pass: n as u64,
        attempted: checks.attempted as u64,
        failed: checks.failed as u64,
        result_digest: format!("{:#018x}", t.digest),
        tail_quantile: tail_q,
        tail_samples: n as u64,
        failed_checks: checks.failed_checks,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::Mutex;

    /// Serialises the tests that set the process-wide worker count.
    static POOL: Mutex<()> = Mutex::new(());

    fn args(jobs: usize) -> Args {
        Args {
            workload: None,
            seed: 7,
            jobs,
            passes: Some(1),
            seconds: None,
            quick: true,
            trace: None,
            out: None,
            setup_probe: false,
        }
    }

    /// A quick-mode workload cut to its first `n` runs.
    fn trimmed(name: &str, n: usize) -> Workload {
        let mut w = Workload::build(name, 7, true).expect("a known workload");
        w.jobs.truncate(n);
        w
    }

    #[test]
    fn the_digest_is_the_same_at_one_and_two_workers() {
        let _pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
        for name in ["paper_mix", "chaos_recovery"] {
            let w = trimmed(name, 4);
            let digests: Vec<String> = [1, 2]
                .map(|jobs| {
                    let r = measure_workload(&args(jobs), &w, || Ok(1.0));
                    assert!(r.correct(), "{name}, {jobs} workers: {:?}", r.failed_checks);
                    r.result_digest
                })
                .into();
            assert_eq!(digests[0], digests[1], "{name}");
        }
    }

    #[test]
    fn a_report_carries_every_defined_metric_and_no_other() {
        let _pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
        let r = measure_workload(&args(2), &trimmed("chaos_recovery", 4), || Ok(1.0));
        let emitted: BTreeSet<&str> = r.metrics.keys().map(String::as_str).collect();
        let defined: BTreeSet<&str> = report::END_TO_END
            .iter()
            .chain(report::PER_LAYER)
            .map(|m| m.name)
            .collect();
        assert_eq!(emitted, defined);
        for (name, m) in &r.metrics {
            assert!(m.value.is_finite(), "{name} = {}", m.value);
        }
    }
}
