//! The `aimes-profile-v1` document: serialized engine self-profiles.
//!
//! [`aimes_sim::profile`] collects per-label wall-time attribution and
//! queue-health counters inside one run; this module turns one or many
//! such [`ProfileReport`]s into a stable JSON document and a human
//! self-time table.
//!
//! Field volatility follows the campaign-manifest convention
//! ([`crate::campaign`]): scope *counts* and engine counters are
//! deterministic (same seed → same document), while wall-clock timing is
//! volatile and therefore **gated** — a document built with
//! `timing: None` carries a deterministic `null` in every host-timing
//! slot, so parallel sweeps that write profiles stay byte-identical
//! across worker counts, exactly like `--campaign-timing`.

use crate::stats;
use aimes_sim::profile::{EngineStats, ProfileReport};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::sync::Mutex;

/// Schema identifier stamped into every profile document.
pub const PROFILE_SCHEMA: &str = "aimes-profile-v1";

/// Host memory accounting sampled by the binaries' counting allocator
/// (volatile: depends on host, worker count, and concurrent activity).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct AllocSection {
    /// Allocation calls during the profiled region.
    pub allocs: u64,
    /// Bytes passed to the allocator during the profiled region.
    pub bytes_allocated: u64,
    /// Peak resident set of the process since its start, in bytes
    /// (`VmHWM`): the counting allocator keeps no exact live-heap peak.
    pub peak_bytes: u64,
    /// `allocs / engine.events_processed` (0 when no events ran).
    pub allocs_per_event: f64,
}

/// Engine queue-health counters (deterministic; sums across runs, with
/// the high-water mark taking the max).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct EngineSection {
    pub events_processed: u64,
    pub events_scheduled: u64,
    pub events_cancelled: u64,
    pub pending_events_hwm: u64,
    pub compactions: u64,
}

impl From<EngineStats> for EngineSection {
    fn from(s: EngineStats) -> Self {
        EngineSection {
            events_processed: s.events_processed,
            events_scheduled: s.events_scheduled,
            events_cancelled: s.events_cancelled,
            pending_events_hwm: s.pending_events_hwm,
            compactions: s.compactions,
        }
    }
}

/// Volatile per-label timing, present only in timing mode.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LabelTiming {
    /// Wall seconds exclusively inside this label (children subtracted).
    pub exclusive_secs: f64,
    /// `exclusive_secs / attributed_secs` across all labels.
    pub share: f64,
    /// Exclusive microseconds per call: mean and bucket-interpolated
    /// quantiles from the label's log-scale histogram.
    pub mean_us: f64,
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
}

/// One attribution label. The count is deterministic; timing is gated.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LabelSection {
    pub label: String,
    pub count: u64,
    pub timing: Option<LabelTiming>,
}

/// Volatile whole-document timing, present only in timing mode.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TimingSection {
    /// Wall clock of the profiled region, measured by the harness.
    pub total_wall_secs: f64,
    /// Sum of per-label exclusive seconds (CPU seconds across workers in
    /// a parallel sweep).
    pub attributed_secs: f64,
    /// `attributed / total_wall` — only meaningful for single-threaded
    /// harnesses (the `experiments profile` command), where exclusive
    /// times tile the wall clock; `None` for parallel sweeps.
    pub coverage: Option<f64>,
    /// Per-run wall-second quantiles (type-7, via [`crate::stats`]) when
    /// the harness recorded per-run walls.
    pub run_wall_secs: Option<RunWallSummary>,
}

/// Type-7 percentiles over per-run wall seconds.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RunWallSummary {
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
}

impl RunWallSummary {
    /// Summarize per-run wall seconds with [`stats::p50_p95_p99`].
    pub fn of(run_walls: &[f64]) -> Option<Self> {
        let (p50, p95, p99) = stats::p50_p95_p99(run_walls)?;
        Some(RunWallSummary { p50, p95, p99 })
    }
}

/// The serialized `aimes-profile-v1` document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ProfileDoc {
    /// Always [`PROFILE_SCHEMA`].
    pub schema: String,
    /// Producing command (`profile`, `ablation-faults`, ...).
    pub command: String,
    /// Base experiment seed.
    pub seed: u64,
    /// Number of runs merged into this document.
    pub runs: u64,
    pub engine: EngineSection,
    /// Sorted by label name (deterministic order).
    pub labels: Vec<LabelSection>,
    pub timing: Option<TimingSection>,
    pub alloc: Option<AllocSection>,
}

/// Volatile inputs the harness measured around the profiled region; pass
/// `None` to [`ProfileDoc::build`] for a deterministic document.
#[derive(Clone, Debug, Default)]
pub struct TimingInputs {
    /// Wall clock of the whole profiled region.
    pub total_wall_secs: f64,
    /// Whether attributed/total coverage is meaningful (sequential
    /// harness).
    pub sequential: bool,
    /// Per-run wall seconds, when the harness tracked them.
    pub run_walls: Vec<f64>,
    /// Allocator accounting, when the binary installs the counting shim.
    pub alloc: Option<AllocSection>,
}

impl ProfileDoc {
    /// Assemble a document from a (possibly merged) report.
    pub fn build(
        command: &str,
        seed: u64,
        runs: u64,
        report: &ProfileReport,
        timing: Option<TimingInputs>,
    ) -> Self {
        let attributed = report.attributed_secs();
        let labels = report
            .labels
            .iter()
            .map(|l| LabelSection {
                label: l.label.clone(),
                count: l.count,
                timing: timing.as_ref().map(|_| LabelTiming {
                    exclusive_secs: l.exclusive_secs,
                    share: if attributed > 0.0 {
                        l.exclusive_secs / attributed
                    } else {
                        0.0
                    },
                    mean_us: l.hist.mean(),
                    p50_us: l.hist.quantile(0.50),
                    p95_us: l.hist.quantile(0.95),
                    p99_us: l.hist.quantile(0.99),
                }),
            })
            .collect();
        let alloc = timing.as_ref().and_then(|t| t.alloc);
        ProfileDoc {
            schema: PROFILE_SCHEMA.into(),
            command: command.into(),
            seed,
            runs,
            engine: report.engine.into(),
            labels,
            timing: timing.map(|t| TimingSection {
                total_wall_secs: t.total_wall_secs,
                attributed_secs: attributed,
                coverage: (t.sequential && t.total_wall_secs > 0.0)
                    .then(|| attributed / t.total_wall_secs),
                run_wall_secs: RunWallSummary::of(&t.run_walls),
            }),
            alloc,
        }
    }

    /// Schema sanity check, mirroring the campaign manifest's validate.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != PROFILE_SCHEMA {
            return Err(format!(
                "schema mismatch: document says {:?}, reader expects {PROFILE_SCHEMA:?}",
                self.schema
            ));
        }
        if self.runs == 0 {
            return Err("document merges zero runs".into());
        }
        let mut prev: Option<&str> = None;
        for l in &self.labels {
            if l.timing.is_some() != self.timing.is_some() {
                return Err(format!(
                    "label {:?} timing presence disagrees with document timing mode",
                    l.label
                ));
            }
            if let Some(p) = prev {
                if p >= l.label.as_str() {
                    return Err(format!("labels not sorted: {:?} before {:?}", p, l.label));
                }
            }
            prev = Some(&l.label);
        }
        Ok(())
    }
}

/// Thread-safe collection point for per-run [`ProfileReport`]s, keyed by
/// job index so the merged result is worker-count invariant (reports are
/// folded in job order, like the campaign manifest's canonical ordering).
#[derive(Default)]
pub struct ProfileAccumulator {
    slots: Mutex<Vec<(u64, ProfileReport)>>,
}

impl ProfileAccumulator {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one run's report under its job index.
    pub fn record(&self, job: u64, report: ProfileReport) {
        self.slots
            .lock()
            .expect("profile accumulator poisoned")
            .push((job, report));
    }

    /// Number of reports recorded so far.
    pub fn runs(&self) -> u64 {
        self.slots
            .lock()
            .expect("profile accumulator poisoned")
            .len() as u64
    }

    /// Merge all recorded reports in job order.
    pub fn merged(&self) -> ProfileReport {
        let mut slots = self.slots.lock().expect("profile accumulator poisoned");
        slots.sort_by_key(|(job, _)| *job);
        let mut merged = ProfileReport::default();
        for (_, report) in slots.iter() {
            merged.merge(report);
        }
        merged
    }
}

/// Render the self-time table: top-N labels by exclusive wall, with
/// per-call quantiles from each label's histogram.
pub fn self_time_table(report: &ProfileReport, top_n: usize) -> String {
    let mut labels: Vec<_> = report.labels.iter().collect();
    labels.sort_by(|a, b| {
        b.exclusive_secs
            .total_cmp(&a.exclusive_secs)
            .then_with(|| a.label.cmp(&b.label))
    });
    let attributed = report.attributed_secs();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22} {:>10} {:>10} {:>7} {:>10} {:>10} {:>10}",
        "label", "calls", "excl s", "share", "p50 µs", "p95 µs", "p99 µs"
    );
    for l in labels.iter().take(top_n) {
        let share = if attributed > 0.0 {
            100.0 * l.exclusive_secs / attributed
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:<22} {:>10} {:>10.4} {:>6.1}% {:>10.2} {:>10.2} {:>10.2}",
            l.label,
            l.count,
            l.exclusive_secs,
            share,
            l.hist.quantile(0.50),
            l.hist.quantile(0.95),
            l.hist.quantile(0.99),
        );
    }
    let _ = writeln!(
        out,
        "{:<22} {:>10} {:>10.4} {:>6.1}%",
        "total attributed",
        report.total_calls(),
        attributed,
        if attributed > 0.0 { 100.0 } else { 0.0 },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimes_sim::Profiler;

    fn sample_report() -> ProfileReport {
        let prof = Profiler::new();
        {
            let _outer = prof.scope("harness");
            for _ in 0..5 {
                let _d = prof.scope("engine.dispatch");
            }
        }
        prof.record_engine(EngineStats {
            events_processed: 5,
            events_scheduled: 6,
            events_cancelled: 1,
            pending_events_hwm: 3,
            compactions: 0,
        });
        prof.report()
    }

    #[test]
    fn doc_without_timing_has_no_volatile_field() {
        let doc = ProfileDoc::build("profile", 42, 1, &sample_report(), None);
        doc.validate().expect("valid doc");
        let json = serde_json::to_string(&doc).unwrap();
        // Campaign-manifest convention: gated fields serialize as an
        // explicit, deterministic `null` rather than being omitted.
        assert!(
            json.contains("\"timing\":null"),
            "gated timing leaked: {json}"
        );
        assert!(
            json.contains("\"alloc\":null"),
            "gated alloc leaked: {json}"
        );
        assert!(json.contains("\"schema\":\"aimes-profile-v1\""));
        // Round-trips.
        let back: ProfileDoc = serde_json::from_str(&json).unwrap();
        back.validate().expect("round-tripped doc valid");
        assert_eq!(back.engine.events_processed, 5);
    }

    #[test]
    fn doc_with_timing_carries_shares_and_coverage() {
        let report = sample_report();
        let attributed = report.attributed_secs();
        let doc = ProfileDoc::build(
            "profile",
            42,
            1,
            &report,
            Some(TimingInputs {
                total_wall_secs: attributed * 1.01,
                sequential: true,
                run_walls: vec![attributed],
                alloc: None,
            }),
        );
        doc.validate().expect("valid doc");
        let timing = doc.timing.expect("timing present");
        let coverage = timing.coverage.expect("sequential harness has coverage");
        assert!((coverage - 1.0 / 1.01).abs() < 1e-9);
        assert!(timing.run_wall_secs.is_some());
        let shares: f64 = doc
            .labels
            .iter()
            .map(|l| l.timing.expect("per-label timing").share)
            .sum();
        assert!((shares - 1.0).abs() < 1e-9, "shares sum to 1, got {shares}");
    }

    #[test]
    fn accumulator_is_job_order_invariant() {
        let build = |order: &[u64]| {
            let acc = ProfileAccumulator::new();
            for &job in order {
                let prof = Profiler::new();
                for _ in 0..(job + 1) {
                    let _g = prof.scope("engine.dispatch");
                }
                prof.record_engine(EngineStats {
                    events_processed: job + 1,
                    events_scheduled: job + 1,
                    events_cancelled: 0,
                    pending_events_hwm: job + 1,
                    compactions: 0,
                });
                acc.record(job, prof.report());
            }
            let merged = acc.merged();
            ProfileDoc::build("sweep", 7, acc.runs(), &merged, None)
        };
        let a = serde_json::to_string(&build(&[0, 1, 2])).unwrap();
        let b = serde_json::to_string(&build(&[2, 0, 1])).unwrap();
        assert_eq!(a, b, "merged document must not depend on arrival order");
        let doc: ProfileDoc = serde_json::from_str(&a).unwrap();
        assert_eq!(doc.engine.events_processed, 6);
        assert_eq!(doc.engine.pending_events_hwm, 3, "hwm maxes across runs");
    }

    #[test]
    fn self_time_table_ranks_by_exclusive_wall() {
        let table = self_time_table(&sample_report(), 10);
        assert!(table.contains("engine.dispatch"));
        assert!(table.contains("harness"));
        assert!(table.contains("total attributed"));
        let header_pos = table.find("label").unwrap();
        let total_pos = table.find("total attributed").unwrap();
        assert!(header_pos < total_pos);
    }

    #[test]
    fn validate_rejects_mixed_timing_presence() {
        let mut doc = ProfileDoc::build("profile", 1, 1, &sample_report(), None);
        doc.labels[0].timing = Some(LabelTiming {
            exclusive_secs: 1.0,
            share: 1.0,
            mean_us: 1.0,
            p50_us: 1.0,
            p95_us: 1.0,
            p99_us: 1.0,
        });
        assert!(doc.validate().is_err());
    }
}
