//! Straggler detection: units whose dwell in one state is an outlier
//! against the population of all units' dwells in that state, by the
//! Tukey fence (p75 + 1.5 × IQR). The responsible component is named so
//! a straggler report reads as a diagnosis, not just a ranking.

use crate::timeline::SessionTimelines;
use aimes::journal::UnitState;
use aimes::stats::percentile;
use serde::{Deserialize, Serialize};

/// One flagged unit.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Straggler {
    pub unit: u32,
    /// The state whose dwell tripped the fence.
    pub state: String,
    /// Component charged with the excess, matching
    /// [`crate::decompose::ExclusiveTtc`] names.
    pub component: String,
    pub dwell_secs: f64,
    /// The fence it exceeded.
    pub bound_secs: f64,
    /// Population median dwell in this state, for scale.
    pub median_secs: f64,
}

/// The Tukey upper outlier fence, `p75 + 1.5 × IQR`, or `None` for
/// populations smaller than 4 — quartiles of 3 points fence nothing
/// meaningfully. This is the single outlier definition shared by unit
/// straggler detection (here) and campaign-level straggler *runs*
/// (`experiments campaign-report`).
pub fn tukey_upper_fence(sample: &[f64]) -> Option<f64> {
    if sample.len() < 4 {
        return None;
    }
    let p25 = percentile(sample, 0.25)?;
    let p75 = percentile(sample, 0.75)?;
    Some(p75 + 1.5 * (p75 - p25))
}

fn component_for(phase: UnitState, restarted: bool) -> &'static str {
    match phase {
        UnitState::PendingExecution if restarted => "recovery",
        UnitState::PendingExecution => "queue-wait",
        UnitState::StagingInput | UnitState::StagingOutput => "staging",
        UnitState::Executing => "execution",
        UnitState::New => "queue-wait",
        UnitState::Done | UnitState::Failed | UnitState::Canceled => "other",
    }
}

/// Flag units whose total dwell in a state exceeds the Tukey upper fence
/// for that state's population. Populations smaller than 4 are skipped —
/// quartiles of 3 points fence nothing meaningfully.
pub fn detect(tl: &SessionTimelines) -> Vec<Straggler> {
    let states = [
        UnitState::PendingExecution,
        UnitState::StagingInput,
        UnitState::Executing,
        UnitState::StagingOutput,
    ];
    let mut out = Vec::new();
    for phase in states {
        let dwells: Vec<(u32, f64, bool)> = tl
            .units
            .values()
            .map(|u| {
                let restarted = u.restarts > 0;
                (u.id, u.dwell_in(phase), restarted)
            })
            .filter(|(_, d, _)| *d > 0.0)
            .collect();
        let sample: Vec<f64> = dwells.iter().map(|(_, d, _)| *d).collect();
        let Some(bound) = tukey_upper_fence(&sample) else {
            continue;
        };
        let median = percentile(&sample, 0.50).expect("non-empty");
        for (unit, dwell, restarted) in dwells {
            if dwell > bound + 1e-9 {
                out.push(Straggler {
                    unit,
                    state: phase.name().into(),
                    component: component_for(phase, restarted).into(),
                    dwell_secs: dwell,
                    bound_secs: bound,
                    median_secs: median,
                });
            }
        }
    }
    // Worst excess first; unit id breaks ties deterministically.
    out.sort_by(|a, b| {
        let ea = a.dwell_secs - a.bound_secs;
        let eb = b.dwell_secs - b.bound_secs;
        eb.partial_cmp(&ea)
            .expect("finite dwells")
            .then(a.unit.cmp(&b.unit))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::reconstruct;
    use aimes::journal::{JournalEvent, RunJournal};
    use aimes_sim::SimTime;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn flags_the_slow_unit_and_names_the_component() {
        let mut j = RunJournal::new();
        j.record(
            t(0.0),
            JournalEvent::RunStarted {
                seed: 1,
                strategy: "early".into(),
                n_tasks: 5,
            },
        );
        // Four normal units execute for 10 s; unit 4 executes for 200 s.
        for u in 0..5u32 {
            let dur = if u == 4 { 200.0 } else { 10.0 };
            j.record(
                t(1.0),
                JournalEvent::UnitTransition {
                    unit: u,
                    state: UnitState::Executing,
                    pilot: Some(0),
                    cores: 1,
                },
            );
            j.record(
                t(1.0 + dur),
                JournalEvent::UnitTransition {
                    unit: u,
                    state: UnitState::Done,
                    pilot: Some(0),
                    cores: 1,
                },
            );
        }
        j.record(t(201.0), JournalEvent::RunFinished { ttc_secs: 201.0 });
        let tl = reconstruct(&j).unwrap();
        let stragglers = detect(&tl);
        assert_eq!(stragglers.len(), 1);
        assert_eq!(stragglers[0].unit, 4);
        assert_eq!(stragglers[0].state, "Executing");
        assert_eq!(stragglers[0].component, "execution");
        assert!((stragglers[0].dwell_secs - 200.0).abs() < 1e-9);
    }

    #[test]
    fn tukey_fence_matches_hand_computation_and_skips_small_samples() {
        assert_eq!(tukey_upper_fence(&[1.0, 2.0, 3.0]), None);
        // p25 = 1.75, p75 = 3.25 (type-7), IQR = 1.5 → fence = 5.5.
        let fence = tukey_upper_fence(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((fence - 5.5).abs() < 1e-12, "fence = {fence}");
    }

    #[test]
    fn small_populations_are_not_fenced() {
        let mut j = RunJournal::new();
        j.record(
            t(0.0),
            JournalEvent::RunStarted {
                seed: 1,
                strategy: "early".into(),
                n_tasks: 2,
            },
        );
        for (u, dur) in [(0u32, 1.0), (1, 1000.0)] {
            j.record(
                t(0.0),
                JournalEvent::UnitTransition {
                    unit: u,
                    state: UnitState::Executing,
                    pilot: Some(0),
                    cores: 1,
                },
            );
            j.record(
                t(dur),
                JournalEvent::UnitTransition {
                    unit: u,
                    state: UnitState::Done,
                    pilot: Some(0),
                    cores: 1,
                },
            );
        }
        j.record(t(1000.0), JournalEvent::RunFinished { ttc_secs: 1000.0 });
        let tl = reconstruct(&j).unwrap();
        assert!(detect(&tl).is_empty());
    }
}
