//! Critical-path extraction through the DAG → unit → pilot → resource
//! graph.
//!
//! The critical path answers "which chain of waits and work determined the
//! TTC?". It is extracted by a backward walk: start at the unit that
//! finished last and walk its timeline backwards, attributing each
//! interval to a component; when the walk reaches the unit's `New`
//! interval (dependency wait), it jumps to the predecessor unit whose
//! completion released it — the unit with the latest `Done` at or before
//! the wait's end — and continues from there. `PendingExecution` waits are
//! split at the bound pilot's activation time into *queue wait* (batch
//! queue + pilot bootstrap, charged to the pilot's resource) and *agent
//! scheduling* (the pilot was up but busy). The resulting segments tile
//! `[started_at, last_done]` and each carries the component and the
//! entity (unit/pilot/resource) responsible.
//!
//! The walk is deterministic given the journal, so the rendered path has a
//! stable digest — pinned in the golden tests exactly like the journal
//! digests.

use crate::timeline::{SessionTimelines, UnitTimeline};
use aimes::journal::UnitState;
use aimes::recorder::fnv1a64;
use serde::{Deserialize, Serialize};

/// One attributed span of the critical path, in time order.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    pub start_secs: f64,
    pub end_secs: f64,
    /// Component name, matching [`crate::decompose::ExclusiveTtc`]
    /// component names.
    pub component: String,
    /// The entity the span is charged to, e.g. `unit 12` or `pilot 2`.
    pub entity: String,
    /// Resource attribution (empty when not placed yet).
    pub resource: String,
    /// Human detail: the state or the dependency edge.
    pub detail: String,
}

impl Segment {
    pub fn dwell_secs(&self) -> f64 {
        self.end_secs - self.start_secs
    }
}

/// The extracted critical path.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize, Default)]
pub struct CriticalPath {
    /// Segments in time order (earliest first).
    pub segments: Vec<Segment>,
    /// Sum of segment dwells.
    pub total_secs: f64,
    /// FNV-1a 64 digest over the segments' canonical encoding; stable for
    /// a fixed seed.
    pub digest: String,
}

fn digest_of(segments: &[Segment]) -> String {
    let mut canon = String::new();
    for s in segments {
        canon.push_str(&format!(
            "{:016x}|{:016x}|{}|{}|{}|{}\n",
            s.start_secs.to_bits(),
            s.end_secs.to_bits(),
            s.component,
            s.entity,
            s.resource,
            s.detail,
        ));
    }
    format!("{:016x}", fnv1a64(canon.as_bytes()))
}

/// The unit with the latest `Done` at or before `by` — the dependency
/// whose completion released a `New → PendingExecution` transition.
/// Ties break toward the lowest unit id, keeping the walk deterministic.
fn predecessor_of(tl: &SessionTimelines, exclude: u32, by: f64) -> Option<(&UnitTimeline, f64)> {
    let mut best: Option<(&UnitTimeline, f64)> = None;
    for u in tl.units.values() {
        if u.id == exclude {
            continue;
        }
        let Some(done) = u.done_at() else { continue };
        if done > by {
            continue;
        }
        match best {
            Some((_, t)) if done <= t => {}
            _ => best = Some((u, done)),
        }
    }
    best
}

/// Extract the critical path. Returns an empty path when no unit finished
/// (nothing determined a completion time).
pub fn extract(tl: &SessionTimelines) -> CriticalPath {
    let Some((mut unit, mut cursor)) = tl
        .units
        .values()
        .filter_map(|u| u.done_at().map(|d| (u, d)))
        .max_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .expect("finite times")
                .then(b.0.id.cmp(&a.0.id))
        })
    else {
        return CriticalPath::default();
    };

    let mut segments: Vec<Segment> = Vec::new();
    // Hard cap: each hop strictly reduces `cursor` or moves to an earlier
    // interval, but guard against pathological journals anyway.
    let max_hops = tl.units.len() * 16 + 64;
    'walk: for _ in 0..max_hops {
        // Walk this unit's intervals backwards from `cursor`.
        let intervals: Vec<_> = unit
            .intervals
            .iter()
            .filter(|iv| iv.start_secs < cursor && !iv.phase.is_terminal())
            .cloned()
            .collect();
        for iv in intervals.iter().rev() {
            let end = iv.end_secs.min(cursor);
            let start = iv.start_secs;
            let entity = format!("unit {}", unit.id);
            let pilot = unit.pilot_at(end);
            let resource = pilot
                .and_then(|p| tl.pilots.get(&p))
                .map(|p| p.resource.clone())
                .unwrap_or_default();
            match iv.phase {
                UnitState::Executing => {
                    segments.push(Segment {
                        start_secs: start,
                        end_secs: end,
                        component: if iv.recovery { "recovery" } else { "execution" }.into(),
                        entity,
                        resource,
                        detail: UnitState::Executing.name().into(),
                    });
                }
                UnitState::StagingInput | UnitState::StagingOutput => {
                    segments.push(Segment {
                        start_secs: start,
                        end_secs: end,
                        component: "staging".into(),
                        entity,
                        resource,
                        detail: if iv.recovery {
                            format!("{} (retry)", iv.phase.name())
                        } else {
                            iv.phase.name().into()
                        },
                    });
                }
                UnitState::PendingExecution => {
                    // Where did this pending spell land? The binding that
                    // took effect when the unit left the spell names the
                    // pilot; its activation splits the wait.
                    let next_pilot = unit.pilot_at(end + 1e-12).or(pilot);
                    let ptl = next_pilot.and_then(|p| tl.pilots.get(&p));
                    let res = ptl.map(|p| p.resource.clone()).unwrap_or_default();
                    let active_at = ptl.and_then(|p| p.active_at());
                    let component = if iv.recovery {
                        "recovery"
                    } else {
                        "queue-wait"
                    };
                    match active_at {
                        Some(a) if a > start && a < end => {
                            // Segments are collected latest-first (the
                            // final reverse restores time order), so the
                            // agent-scheduling half goes in before the
                            // queue half.
                            segments.push(Segment {
                                start_secs: a,
                                end_secs: end,
                                component: if iv.recovery {
                                    "recovery"
                                } else {
                                    "agent-scheduling"
                                }
                                .into(),
                                entity,
                                resource: res.clone(),
                                detail: "waiting for agent slot".into(),
                            });
                            segments.push(Segment {
                                start_secs: start,
                                end_secs: a,
                                component: component.into(),
                                entity: next_pilot
                                    .map(|p| format!("pilot {p}"))
                                    .unwrap_or_else(|| format!("unit {}", unit.id)),
                                resource: res,
                                detail: "waiting for pilot activation".into(),
                            });
                        }
                        Some(a) if a <= start => {
                            segments.push(Segment {
                                start_secs: start,
                                end_secs: end,
                                component: if iv.recovery {
                                    "recovery"
                                } else {
                                    "agent-scheduling"
                                }
                                .into(),
                                entity,
                                resource: res,
                                detail: "waiting for agent slot".into(),
                            });
                        }
                        _ => {
                            segments.push(Segment {
                                start_secs: start,
                                end_secs: end,
                                component: component.into(),
                                entity: next_pilot.map(|p| format!("pilot {p}")).unwrap_or(entity),
                                resource: res,
                                detail: "waiting for pilot activation".into(),
                            });
                        }
                    }
                }
                UnitState::New => {
                    // Dependency wait: jump to the predecessor that
                    // released this unit, if one finished inside the wait.
                    match predecessor_of(tl, unit.id, end + 1e-9) {
                        Some((pred, done)) if done > start && done < cursor => {
                            // Usually zero-length (the release happens at
                            // the predecessor's Done), but kept so the
                            // dependency edge is visible in the path.
                            segments.push(Segment {
                                start_secs: done,
                                end_secs: end.max(done),
                                component: "queue-wait".into(),
                                entity: format!("unit {}", unit.id),
                                resource: String::new(),
                                detail: format!("released by unit {}", pred.id),
                            });
                            unit = pred;
                            cursor = done;
                            continue 'walk;
                        }
                        _ => {
                            if end > start {
                                segments.push(Segment {
                                    start_secs: start,
                                    end_secs: end,
                                    component: "queue-wait".into(),
                                    entity,
                                    resource,
                                    detail: "New (awaiting submission)".into(),
                                });
                            }
                        }
                    }
                }
                // Filtered out above: the walk never crosses a terminal state.
                UnitState::Done | UnitState::Failed | UnitState::Canceled => {}
            }
        }
        break;
    }

    segments.reverse();
    let total_secs = {
        let mut sum = 0.0f64;
        let mut c = 0.0f64;
        for s in &segments {
            let y = s.dwell_secs() - c;
            let t = sum + y;
            c = (t - sum) - y;
            sum = t;
        }
        sum
    };
    let digest = digest_of(&segments);
    CriticalPath {
        segments,
        total_secs,
        digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::reconstruct;
    use aimes::journal::{JournalEvent, PilotState, RunJournal};
    use aimes_sim::SimTime;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn unit_ev(j: &mut RunJournal, at: f64, unit: u32, state: UnitState, pilot: Option<u32>) {
        j.record(
            t(at),
            JournalEvent::UnitTransition {
                unit,
                state,
                pilot,
                cores: 1,
            },
        );
    }

    /// Two units in a chain: unit 1 depends on unit 0. The path must walk
    /// through both.
    #[test]
    fn walks_dependency_chain() {
        let mut j = RunJournal::new();
        j.record(
            t(0.0),
            JournalEvent::RunStarted {
                seed: 1,
                strategy: "early".into(),
                n_tasks: 2,
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
            t(10.0),
            JournalEvent::PilotTransition {
                pilot: 0,
                state: PilotState::Active,
                resource: "alpha".into(),
                cores: 8,
            },
        );
        // Unit 0: root.
        unit_ev(&mut j, 0.0, 0, UnitState::PendingExecution, None);
        unit_ev(&mut j, 10.0, 0, UnitState::StagingInput, Some(0));
        unit_ev(&mut j, 12.0, 0, UnitState::Executing, Some(0));
        unit_ev(&mut j, 50.0, 0, UnitState::StagingOutput, Some(0));
        unit_ev(&mut j, 52.0, 0, UnitState::Done, Some(0));
        // Unit 1: released when unit 0 finishes.
        unit_ev(&mut j, 52.0, 1, UnitState::PendingExecution, None);
        unit_ev(&mut j, 53.0, 1, UnitState::StagingInput, Some(0));
        unit_ev(&mut j, 55.0, 1, UnitState::Executing, Some(0));
        unit_ev(&mut j, 95.0, 1, UnitState::StagingOutput, Some(0));
        unit_ev(&mut j, 96.0, 1, UnitState::Done, Some(0));
        j.record(t(96.0), JournalEvent::RunFinished { ttc_secs: 96.0 });

        let tl = reconstruct(&j).unwrap();
        let cp = extract(&tl);
        assert!(!cp.segments.is_empty());
        // In time order, starting at run start and ending at last done.
        assert_eq!(cp.segments.first().unwrap().start_secs, 0.0);
        assert_eq!(cp.segments.last().unwrap().end_secs, 96.0);
        for pair in cp.segments.windows(2) {
            assert!(
                pair[0].end_secs <= pair[1].start_secs + 1e-9,
                "segments overlap: {pair:?}"
            );
        }
        // Both units appear.
        assert!(cp.segments.iter().any(|s| s.entity == "unit 0"));
        assert!(cp.segments.iter().any(|s| s.entity == "unit 1"));
        // The dependency hop is attributed.
        assert!(cp
            .segments
            .iter()
            .any(|s| s.detail.contains("released by unit 0")));
        // Execution segments carry the resource.
        assert!(cp
            .segments
            .iter()
            .any(|s| s.component == "execution" && s.resource == "alpha"));
        // The path tiles the whole run: total == ttc.
        assert!((cp.total_secs - 96.0).abs() < 1e-6, "{}", cp.total_secs);
        // Deterministic digest.
        let cp2 = extract(&reconstruct(&j).unwrap());
        assert_eq!(cp.digest, cp2.digest);
    }

    #[test]
    fn pending_wait_splits_at_pilot_activation() {
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
                resource: "beta".into(),
                cores: 4,
            },
        );
        j.record(
            t(30.0),
            JournalEvent::PilotTransition {
                pilot: 0,
                state: PilotState::Active,
                resource: "beta".into(),
                cores: 4,
            },
        );
        unit_ev(&mut j, 0.0, 0, UnitState::PendingExecution, None);
        unit_ev(&mut j, 40.0, 0, UnitState::StagingInput, Some(0));
        unit_ev(&mut j, 41.0, 0, UnitState::Executing, Some(0));
        unit_ev(&mut j, 61.0, 0, UnitState::StagingOutput, Some(0));
        unit_ev(&mut j, 62.0, 0, UnitState::Done, Some(0));
        j.record(t(62.0), JournalEvent::RunFinished { ttc_secs: 62.0 });

        let cp = extract(&reconstruct(&j).unwrap());
        let queue: Vec<_> = cp
            .segments
            .iter()
            .filter(|s| s.component == "queue-wait")
            .collect();
        let agent: Vec<_> = cp
            .segments
            .iter()
            .filter(|s| s.component == "agent-scheduling")
            .collect();
        assert_eq!(queue.len(), 1);
        assert_eq!(agent.len(), 1);
        assert!((queue[0].dwell_secs() - 30.0).abs() < 1e-9);
        assert!((agent[0].dwell_secs() - 10.0).abs() < 1e-9);
        assert_eq!(queue[0].resource, "beta");
        assert_eq!(queue[0].entity, "pilot 0");
    }

    #[test]
    fn empty_session_has_empty_path() {
        let mut j = RunJournal::new();
        j.record(
            t(0.0),
            JournalEvent::RunStarted {
                seed: 1,
                strategy: "early".into(),
                n_tasks: 0,
            },
        );
        let cp = extract(&reconstruct(&j).unwrap());
        assert!(cp.segments.is_empty());
        assert_eq!(cp.total_secs, 0.0);
    }
}
