//! # aimes-analytics — post-mortem session analytics
//!
//! The simulator's artifacts (the crash-consistent run journal, the
//! metrics/trace exports) record *what happened*; this crate turns one
//! run's journal into an *explanation*:
//!
//! * [`timeline`] — per-entity state timelines reconstructed from the
//!   journal's transition log;
//! * [`decompose`] — an exclusive TTC decomposition whose components
//!   partition the run, with a **closure check** (components must sum to
//!   the simulator-reported TTC within ε — a standing consistency oracle
//!   over the whole state model);
//! * [`series`] — concurrency and core-utilization step series derived
//!   purely from timelines, cross-validating the telemetry gauges;
//! * [`critical_path`] — the chain of waits and work that determined the
//!   TTC, each span attributed to a component and an entity;
//! * [`stragglers`] — units whose state dwell exceeds a robust percentile
//!   fence, with the responsible component named;
//! * [`diff`] — run-to-run comparison with regression thresholds (the CI
//!   gate);
//! * [`render`] — markdown rendering of both.
//!
//! The one-call entry points are [`analyze_jsonl`] for a journal file's
//! text and [`analyze`] for an in-memory [`RunJournal`].

pub mod critical_path;
pub mod decompose;
pub mod diff;
pub mod render;
pub mod series;
pub mod stragglers;
pub mod timeline;

use aimes::journal::RunJournal;
use serde::{Deserialize, Serialize};

pub use critical_path::CriticalPath;
pub use decompose::{ClosureCheck, ExclusiveTtc};
pub use diff::{CountDelta, DiffReport};
pub use series::StepSeries;
pub use stragglers::{tukey_upper_fence, Straggler};
pub use timeline::{ReconstructError, SessionTimelines};

/// Schema tag written into every serialized analysis.
pub const SCHEMA: &str = "aimes-analytics-v1";

/// Default closure epsilon: the acceptance bound for
/// |Σ components − reported TTC|.
pub const DEFAULT_EPSILON_SECS: f64 = 1e-6;

/// Everything one analysis produces, serializable for artifacts and for
/// `analytics diff` inputs.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AnalysisReport {
    pub schema: String,
    pub seed: u64,
    pub strategy: String,
    pub n_tasks: u32,
    pub started_at_secs: f64,
    pub finished_at_secs: Option<f64>,
    pub ttc_reported_secs: Option<f64>,
    /// Torn-tail lines the lenient journal reader discarded.
    pub discarded_journal_lines: u64,
    pub ttc: ExclusiveTtc,
    pub closure: Option<ClosureCheck>,
    /// Busy-core integral over active-core integral, while pilots were up.
    pub mean_utilization: f64,
    pub series: Vec<StepSeries>,
    pub critical_path: CriticalPath,
    pub stragglers: Vec<Straggler>,
    pub unit_count: u32,
    pub pilot_count: u32,
    pub restarts: u32,
    pub replans: u32,
    /// Correlated-failure alarms raised on failure domains.
    pub domain_alarms: u32,
    /// Pilots proactively drained out of alarmed domains.
    pub evacuations: u32,
    /// Checkpoint boundaries recorded on aborted attempts.
    pub checkpoints: u32,
    /// Attempts resumed from a checkpoint instead of from scratch.
    pub resumes: u32,
    /// Seconds from the first domain alarm to the first completed drain.
    pub evacuation_lead_secs: Option<f64>,
}

impl AnalysisReport {
    /// True when the report's closure check ran and holds.
    pub fn closure_holds(&self) -> bool {
        self.closure.map(|c| c.holds).unwrap_or(false)
    }
}

/// Analyze reconstructed timelines. `discarded` is the torn-tail line
/// count from the lenient reader (0 for in-memory journals).
pub fn analyze_timelines(
    tl: &SessionTimelines,
    epsilon_secs: f64,
    discarded: usize,
) -> AnalysisReport {
    let (ttc, closure) = decompose::decompose(tl, epsilon_secs);
    let series = vec![
        series::executing_units(tl),
        series::busy_cores(tl),
        series::active_pilot_cores(tl),
    ];
    let restarts = tl.units.values().map(|u| u.restarts).sum();
    AnalysisReport {
        schema: SCHEMA.into(),
        seed: tl.seed,
        strategy: tl.strategy.clone(),
        n_tasks: tl.n_tasks,
        started_at_secs: tl.started_at,
        finished_at_secs: tl.finished_at,
        ttc_reported_secs: tl.ttc_reported,
        discarded_journal_lines: discarded as u64,
        ttc,
        closure,
        mean_utilization: series::mean_utilization(tl),
        series,
        critical_path: critical_path::extract(tl),
        stragglers: stragglers::detect(tl),
        unit_count: tl.units.len() as u32,
        pilot_count: tl.pilots.len() as u32,
        restarts,
        replans: tl.replans,
        domain_alarms: tl.domain_alarms,
        evacuations: tl.evacuations,
        checkpoints: tl.checkpoints,
        resumes: tl.resumes,
        evacuation_lead_secs: tl.evacuation_lead_secs,
    }
}

/// Analyze an in-memory journal.
pub fn analyze(
    journal: &RunJournal,
    epsilon_secs: f64,
) -> Result<AnalysisReport, ReconstructError> {
    let tl = timeline::reconstruct(journal)?;
    Ok(analyze_timelines(&tl, epsilon_secs, 0))
}

/// Analyze a journal file's text, via the lenient (torn-tail tolerant)
/// reader; the number of discarded trailing lines is reported in the
/// analysis rather than silently dropped.
pub fn analyze_jsonl(text: &str, epsilon_secs: f64) -> Result<AnalysisReport, ReconstructError> {
    let (journal, discarded) = RunJournal::read_lenient(text);
    let tl = timeline::reconstruct(&journal)?;
    Ok(analyze_timelines(&tl, epsilon_secs, discarded))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimes::journal::{JournalEvent, PilotState, UnitState};
    use aimes_sim::SimTime;

    fn sample_journal() -> RunJournal {
        let mut j = RunJournal::new();
        let t = SimTime::from_secs;
        j.record(
            t(0.0),
            JournalEvent::RunStarted {
                seed: 3,
                strategy: "early".into(),
                n_tasks: 1,
            },
        );
        j.record(
            t(0.0),
            JournalEvent::PilotTransition {
                pilot: 0,
                state: PilotState::PendingLaunch,
                resource: "alpha".into(),
                cores: 4,
            },
        );
        j.record(
            t(20.0),
            JournalEvent::PilotTransition {
                pilot: 0,
                state: PilotState::Active,
                resource: "alpha".into(),
                cores: 4,
            },
        );
        j.record(
            t(0.0),
            JournalEvent::UnitTransition {
                unit: 0,
                state: UnitState::PendingExecution,
                pilot: None,
                cores: 2,
            },
        );
        j.record(
            t(21.0),
            JournalEvent::UnitTransition {
                unit: 0,
                state: UnitState::StagingInput,
                pilot: Some(0),
                cores: 2,
            },
        );
        j.record(
            t(22.0),
            JournalEvent::UnitTransition {
                unit: 0,
                state: UnitState::Executing,
                pilot: Some(0),
                cores: 2,
            },
        );
        j.record(
            t(52.0),
            JournalEvent::UnitTransition {
                unit: 0,
                state: UnitState::StagingOutput,
                pilot: Some(0),
                cores: 2,
            },
        );
        j.record(
            t(53.0),
            JournalEvent::UnitTransition {
                unit: 0,
                state: UnitState::Done,
                pilot: Some(0),
                cores: 2,
            },
        );
        j.record(t(53.0), JournalEvent::RunFinished { ttc_secs: 53.0 });
        j
    }

    #[test]
    fn analysis_report_round_trips_as_json() {
        let report = analyze(&sample_journal(), DEFAULT_EPSILON_SECS).unwrap();
        assert!(report.closure_holds());
        assert_eq!(report.schema, SCHEMA);
        let json = serde_json::to_string(&report).unwrap();
        let back: AnalysisReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn lenient_analysis_reports_torn_lines() {
        let j = sample_journal();
        let mut text = j.to_jsonl();
        let cut = text.len() - 20;
        text.truncate(cut);
        let report = analyze_jsonl(&text, DEFAULT_EPSILON_SECS).unwrap();
        assert_eq!(report.discarded_journal_lines, 1);
        // The torn journal lost RunFinished: closure is unknowable.
        assert!(report.closure.is_none());
        assert!(!report.closure_holds());
    }

    #[test]
    fn utilization_is_busy_over_active() {
        let report = analyze(&sample_journal(), DEFAULT_EPSILON_SECS).unwrap();
        // Pilot active [20, 53] with 4 cores = 132 core-s; unit busy
        // [22, 52] with 2 cores = 60 core-s.
        assert!((report.mean_utilization - 60.0 / 132.0).abs() < 1e-9);
    }
}
