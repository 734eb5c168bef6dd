//! Exclusive TTC decomposition with a closure check.
//!
//! The paper's Tw/Tx/Ts components are *unions* of per-entity intervals
//! and overlap freely, so they cannot sum to TTC. Analytics instead
//! *partitions* the run: every instant of `[started_at, finished_at]` is
//! assigned to exactly one component by a priority rule (the run was
//! "doing" whatever its most productive concurrent activity was):
//!
//! 1. **execution** — some unit is `Executing` on an unsuspected pilot;
//! 2. **staging** — some unit is moving data;
//! 3. **detection** — execution only on suspected pilots, or a suspicion
//!    window is open: time spent deciding whether work is lost;
//! 4. **recovery** — a restarted unit is waiting to run again;
//! 5. **agent scheduling** — work is pending and an active pilot exists
//!    to take it;
//! 6. **queue wait** — work is pending with no active pilot (batch-queue
//!    time, pilot startup);
//! 7. **other** — nothing pending (terminal tails, cancel drains).
//!
//! A partition sums to the horizon *by construction*, so the closure
//! check — |Σ components − reported TTC| ≤ ε — is a real consistency
//! oracle: it fails if the timelines were reconstructed wrong, if the
//! journal is torn, or if the simulator's TTC claim disagrees with its
//! own event record.

use crate::timeline::SessionTimelines;
use aimes::journal::{PilotState, UnitState};
use serde::{Deserialize, Serialize};

/// Seconds per exclusive component. Fields sum to the reported TTC when
/// the closure check passes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ExclusiveTtc {
    pub execution_secs: f64,
    pub staging_secs: f64,
    pub detection_secs: f64,
    pub recovery_secs: f64,
    pub agent_scheduling_secs: f64,
    pub queue_wait_secs: f64,
    pub other_secs: f64,
}

impl ExclusiveTtc {
    /// `(name, seconds)` pairs in fixed display order.
    pub fn components(&self) -> [(&'static str, f64); 7] {
        [
            ("execution", self.execution_secs),
            ("staging", self.staging_secs),
            ("detection", self.detection_secs),
            ("recovery", self.recovery_secs),
            ("agent-scheduling", self.agent_scheduling_secs),
            ("queue-wait", self.queue_wait_secs),
            ("other", self.other_secs),
        ]
    }

    /// Kahan-compensated sum of all components.
    pub fn sum_secs(&self) -> f64 {
        let mut sum = 0.0f64;
        let mut c = 0.0f64;
        for (_, v) in self.components() {
            let y = v - c;
            let t = sum + y;
            c = (t - sum) - y;
            sum = t;
        }
        sum
    }
}

/// Result of the closure check.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClosureCheck {
    pub ttc_reported_secs: f64,
    pub component_sum_secs: f64,
    /// |sum − reported|.
    pub error_secs: f64,
    pub epsilon_secs: f64,
    pub holds: bool,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Component {
    Execution,
    Staging,
    Detection,
    Recovery,
    AgentScheduling,
    QueueWait,
    Other,
}

// Counter indices for the sweep.
const EXEC_HEALTHY: usize = 0;
const EXEC_SUSPECTED: usize = 1;
const STAGING: usize = 2;
const PENDING_RECOVERY: usize = 3;
const PENDING: usize = 4;
const PILOT_ACTIVE: usize = 5;
const SUSPECTED: usize = 6;
const N_COUNTERS: usize = 7;

fn classify(counts: &[i64; N_COUNTERS]) -> Component {
    if counts[EXEC_HEALTHY] > 0 {
        Component::Execution
    } else if counts[STAGING] > 0 {
        Component::Staging
    } else if counts[EXEC_SUSPECTED] > 0 || counts[SUSPECTED] > 0 {
        Component::Detection
    } else if counts[PENDING_RECOVERY] > 0 {
        Component::Recovery
    } else if counts[PENDING] > 0 && counts[PILOT_ACTIVE] > 0 {
        Component::AgentScheduling
    } else if counts[PENDING] > 0 {
        Component::QueueWait
    } else {
        Component::Other
    }
}

/// Sweep the timelines and partition `[started_at, horizon]` into the
/// exclusive components. Returns the decomposition and, when the journal
/// recorded a `RunFinished`, the closure check against its TTC claim.
pub fn decompose(tl: &SessionTimelines, epsilon_secs: f64) -> (ExclusiveTtc, Option<ClosureCheck>) {
    let lo = tl.started_at;
    let hi = tl.horizon;
    let mut edges: Vec<(f64, usize, i64)> = Vec::new();
    let mut edge = |start: f64, end: f64, counter: usize| {
        let s = start.max(lo);
        let e = end.min(hi);
        if e > s {
            edges.push((s, counter, 1));
            edges.push((e, counter, -1));
        }
    };

    for u in tl.units.values() {
        for iv in &u.intervals {
            match iv.phase {
                UnitState::Executing => {
                    // Split the execution interval against the bound
                    // pilot's suspicion windows: execution on a suspected
                    // pilot is time-at-risk, not guaranteed progress.
                    let pilot = u.pilot_at(iv.start_secs);
                    let mut cursor = iv.start_secs;
                    let mut windows: Vec<(f64, f64)> = tl
                        .detections
                        .iter()
                        .filter(|w| Some(w.pilot) == pilot)
                        .map(|w| (w.start_secs.max(iv.start_secs), w.end_secs.min(iv.end_secs)))
                        .filter(|(s, e)| e > s)
                        .collect();
                    windows.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
                    for (s, e) in windows {
                        if s > cursor {
                            edge(cursor, s, EXEC_HEALTHY);
                        }
                        edge(s.max(cursor), e, EXEC_SUSPECTED);
                        cursor = cursor.max(e);
                    }
                    if iv.end_secs > cursor {
                        edge(cursor, iv.end_secs, EXEC_HEALTHY);
                    }
                }
                UnitState::StagingInput | UnitState::StagingOutput => {
                    edge(iv.start_secs, iv.end_secs, STAGING);
                }
                UnitState::New | UnitState::PendingExecution => {
                    edge(iv.start_secs, iv.end_secs, PENDING);
                    if iv.recovery {
                        edge(iv.start_secs, iv.end_secs, PENDING_RECOVERY);
                    }
                }
                UnitState::Done | UnitState::Failed | UnitState::Canceled => {}
            }
        }
    }
    for p in tl.pilots.values() {
        for iv in &p.intervals {
            if iv.phase == PilotState::Active {
                edge(iv.start_secs, iv.end_secs, PILOT_ACTIVE);
            }
        }
    }
    for w in &tl.detections {
        edge(w.start_secs, w.end_secs, SUSPECTED);
    }

    // Sweep: at each distinct time apply all deltas, then attribute the
    // span up to the next distinct time to the classification in force.
    edges.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
    let mut counts = [0i64; N_COUNTERS];
    let mut totals = [0.0f64; 7];
    let mut comps = [0.0f64; 7];
    let mut add = |component: Component, span: f64| {
        let idx = component as usize;
        // Kahan per bucket: thousands of tiny spans must sum exactly
        // enough to pass a 1e-6 closure check.
        let y = span - comps[idx];
        let t = totals[idx] + y;
        comps[idx] = (t - totals[idx]) - y;
        totals[idx] = t;
    };

    let mut cursor = lo;
    let mut i = 0;
    while i < edges.len() {
        let t = edges[i].0;
        if t > cursor {
            add(classify(&counts), t - cursor);
            cursor = t;
        }
        while i < edges.len() && edges[i].0 == t {
            counts[edges[i].1] += edges[i].2;
            i += 1;
        }
    }
    if hi > cursor {
        add(classify(&counts), hi - cursor);
    }

    let ttc = ExclusiveTtc {
        execution_secs: totals[Component::Execution as usize],
        staging_secs: totals[Component::Staging as usize],
        detection_secs: totals[Component::Detection as usize],
        recovery_secs: totals[Component::Recovery as usize],
        agent_scheduling_secs: totals[Component::AgentScheduling as usize],
        queue_wait_secs: totals[Component::QueueWait as usize],
        other_secs: totals[Component::Other as usize],
    };
    let closure = tl.ttc_reported.map(|reported| {
        let sum = ttc.sum_secs();
        let error = (sum - reported).abs();
        ClosureCheck {
            ttc_reported_secs: reported,
            component_sum_secs: sum,
            error_secs: error,
            epsilon_secs,
            holds: error <= epsilon_secs,
        }
    });
    (ttc, closure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::reconstruct;
    use aimes::journal::{JournalEvent, RunJournal, Verdict};
    use aimes_sim::SimTime;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn build() -> RunJournal {
        let mut j = RunJournal::new();
        j.record(
            t(0.0),
            JournalEvent::RunStarted {
                seed: 1,
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
                cores: 8,
            },
        );
        j.record(
            t(0.0),
            JournalEvent::UnitTransition {
                unit: 0,
                state: UnitState::PendingExecution,
                pilot: None,
                cores: 1,
            },
        );
        j.record(
            t(100.0),
            JournalEvent::PilotTransition {
                pilot: 0,
                state: PilotState::Active,
                resource: "alpha".into(),
                cores: 8,
            },
        );
        j.record(
            t(110.0),
            JournalEvent::UnitTransition {
                unit: 0,
                state: UnitState::StagingInput,
                pilot: Some(0),
                cores: 1,
            },
        );
        j.record(
            t(120.0),
            JournalEvent::UnitTransition {
                unit: 0,
                state: UnitState::Executing,
                pilot: Some(0),
                cores: 1,
            },
        );
        j.record(
            t(200.0),
            JournalEvent::UnitTransition {
                unit: 0,
                state: UnitState::StagingOutput,
                pilot: Some(0),
                cores: 1,
            },
        );
        j.record(
            t(210.0),
            JournalEvent::UnitTransition {
                unit: 0,
                state: UnitState::Done,
                pilot: Some(0),
                cores: 1,
            },
        );
        j.record(t(210.0), JournalEvent::RunFinished { ttc_secs: 210.0 });
        j
    }

    #[test]
    fn partition_closes_exactly() {
        let tl = reconstruct(&build()).unwrap();
        let (ttc, closure) = decompose(&tl, 1e-6);
        let closure = closure.unwrap();
        assert!(closure.holds, "closure error {}", closure.error_secs);
        // 0-100 queue wait (pilot launching, unit pending), 100-110 agent
        // scheduling (pilot active, unit still pending), 110-120 staging,
        // 120-200 execution, 200-210 staging.
        assert!((ttc.queue_wait_secs - 100.0).abs() < 1e-9);
        assert!((ttc.agent_scheduling_secs - 10.0).abs() < 1e-9);
        assert!((ttc.staging_secs - 20.0).abs() < 1e-9);
        assert!((ttc.execution_secs - 80.0).abs() < 1e-9);
        assert_eq!(ttc.detection_secs, 0.0);
        assert_eq!(ttc.recovery_secs, 0.0);
    }

    #[test]
    fn suspected_execution_counts_as_detection() {
        let mut j = build();
        // Rebuild with a suspicion window covering part of the execution.
        let mut j2 = RunJournal::new();
        for e in j.entries() {
            if matches!(e.event, JournalEvent::RunFinished { .. }) {
                break;
            }
            j2.record(t(e.at_secs), e.event.clone());
        }
        j2.record(
            t(150.0),
            JournalEvent::Detector {
                pilot: 0,
                resource: "alpha".into(),
                verdict: Verdict::Suspected,
                silent_secs: 30.0,
            },
        );
        j2.record(
            t(170.0),
            JournalEvent::Detector {
                pilot: 0,
                resource: "alpha".into(),
                verdict: Verdict::Recovered,
                silent_secs: 20.0,
            },
        );
        j2.record(t(210.0), JournalEvent::RunFinished { ttc_secs: 210.0 });
        j = j2;

        let tl = reconstruct(&j).unwrap();
        let (ttc, closure) = decompose(&tl, 1e-6);
        assert!(closure.unwrap().holds);
        // The 150-170 suspicion window moves 20 s of execution into
        // detection. (The window edges land mid-exec interval, so order
        // of events within the sweep matters — this is the regression
        // guard for it.)
        assert!((ttc.detection_secs - 20.0).abs() < 1e-9, "{ttc:?}");
        assert!((ttc.execution_secs - 60.0).abs() < 1e-9, "{ttc:?}");
    }

    #[test]
    fn no_finish_means_no_closure() {
        let mut j = RunJournal::new();
        j.record(
            t(0.0),
            JournalEvent::RunStarted {
                seed: 1,
                strategy: "early".into(),
                n_tasks: 1,
            },
        );
        j.record(
            t(5.0),
            JournalEvent::UnitTransition {
                unit: 0,
                state: UnitState::PendingExecution,
                pilot: None,
                cores: 1,
            },
        );
        let tl = reconstruct(&j).unwrap();
        let (ttc, closure) = decompose(&tl, 1e-6);
        assert!(closure.is_none());
        // The implicit New interval spans run start to the transition, and
        // New counts as pending: all 5 s are queue wait.
        assert!((ttc.queue_wait_secs - 5.0).abs() < 1e-9);
    }
}
