//! Per-entity state-timeline reconstruction from the run journal.
//!
//! The journal records *transitions*; analytics needs *intervals*. This
//! module replays the journal once and materializes, for every unit and
//! pilot, the contiguous sequence of `[enter, leave)` state intervals,
//! plus the pilot-suspicion windows the failure detector opened. Two
//! reconstruction rules make the intervals well-defined:
//!
//! 1. **Implicit birth.** Entities are created in `New` before their
//!    first journaled transition, so each timeline is prefixed with a
//!    synthetic `New` interval from run start to the first transition
//!    (unless the first transition *is* into `New`).
//! 2. **Closure at the horizon.** Every interval still open when the
//!    journal ends is closed at `RunFinished` time — or, for a torn
//!    journal, at the last recorded event — so interval arithmetic never
//!    sees an open end.
//!
//! Recovery spells are tagged during replay: a transition back into
//! `PendingExecution` from an in-flight state is a restart, and the
//! intervals from there until the unit next reaches `Executing` carry
//! `recovery = true`.

use aimes::journal::{JournalEvent, PilotState, RunJournal, UnitState, Verdict};
use std::collections::BTreeMap;
use std::fmt;

/// One closed state interval `[start, end)` on an entity's timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval<P> {
    pub phase: P,
    pub start_secs: f64,
    pub end_secs: f64,
    /// True on unit intervals between a restart and the next `Executing`:
    /// time the unit spends redoing or re-queuing lost work.
    pub recovery: bool,
}

impl<P> Interval<P> {
    pub fn dwell_secs(&self) -> f64 {
        self.end_secs - self.start_secs
    }
}

/// One unit's reconstructed timeline.
#[derive(Clone, Debug)]
pub struct UnitTimeline {
    pub id: u32,
    pub cores: u32,
    /// Contiguous state intervals, in time order.
    pub intervals: Vec<Interval<UnitState>>,
    /// Binding history: `(at_secs, pilot)` as of each transition.
    pub bindings: Vec<(f64, Option<u32>)>,
    /// Restarts observed (transitions back into `PendingExecution` from an
    /// in-flight state).
    pub restarts: u32,
}

impl UnitTimeline {
    /// The pilot this unit was bound to at time `t` (last binding at or
    /// before `t`).
    pub fn pilot_at(&self, t: f64) -> Option<u32> {
        self.bindings
            .iter()
            .take_while(|(at, _)| *at <= t)
            .last()
            .and_then(|(_, p)| *p)
    }

    /// Time of the transition *into* `Done`, if the unit finished.
    pub fn done_at(&self) -> Option<f64> {
        self.intervals
            .iter()
            .find(|iv| iv.phase == UnitState::Done)
            .map(|iv| iv.start_secs)
    }

    /// Total dwell in one phase across all visits.
    pub fn dwell_in(&self, phase: UnitState) -> f64 {
        self.intervals
            .iter()
            .filter(|iv| iv.phase == phase)
            .map(Interval::dwell_secs)
            .sum()
    }
}

/// One pilot's reconstructed timeline.
#[derive(Clone, Debug)]
pub struct PilotTimeline {
    pub id: u32,
    pub resource: String,
    pub cores: u32,
    pub intervals: Vec<Interval<PilotState>>,
}

impl PilotTimeline {
    /// Time the pilot first became `Active`, if it ever did.
    pub fn active_at(&self) -> Option<f64> {
        self.intervals
            .iter()
            .find(|iv| iv.phase == PilotState::Active)
            .map(|iv| iv.start_secs)
    }

    /// True if the pilot is `Active` at time `t`.
    pub fn is_active_at(&self, t: f64) -> bool {
        self.intervals
            .iter()
            .any(|iv| iv.phase == PilotState::Active && iv.start_secs <= t && t < iv.end_secs)
    }
}

/// One failure-detector suspicion window on a pilot.
#[derive(Clone, Debug)]
pub struct DetectionWindow {
    pub pilot: u32,
    pub resource: String,
    pub start_secs: f64,
    pub end_secs: f64,
    /// Closing verdict (`Recovered` or `DeclaredDead`); `None` when the
    /// run ended with the window still open (unresolved).
    pub verdict: Option<Verdict>,
}

/// Everything reconstructed from one journal: the session frame plus every
/// entity's timeline.
#[derive(Clone, Debug)]
pub struct SessionTimelines {
    pub seed: u64,
    pub strategy: String,
    pub n_tasks: u32,
    /// Journal time of `RunStarted` (submission).
    pub started_at: f64,
    /// Journal time of `RunFinished`; `None` for a torn journal.
    pub finished_at: Option<f64>,
    /// The simulator's own TTC claim from `RunFinished`.
    pub ttc_reported: Option<f64>,
    /// Horizon every open interval was closed at: `finished_at`, or the
    /// last event time of a torn journal.
    pub horizon: f64,
    pub units: BTreeMap<u32, UnitTimeline>,
    pub pilots: BTreeMap<u32, PilotTimeline>,
    pub detections: Vec<DetectionWindow>,
    pub replans: u32,
    pub breaker_trips: u32,
    pub blacklists: u32,
    pub stale_signals: u32,
    /// Decisions the information plane served below the fresh path.
    pub info_fallbacks: u32,
    /// Correlated-failure alarms raised on a failure domain.
    pub domain_alarms: u32,
    /// Pilots proactively drained out of an alarmed domain.
    pub evacuations: u32,
    /// Checkpoint boundaries recorded on aborted attempts.
    pub checkpoints: u32,
    /// Attempts resumed from a checkpoint instead of from scratch.
    pub resumes: u32,
    /// Seconds between the first domain alarm and the first completed
    /// evacuation drain — the lead time proactive evacuation bought.
    pub evacuation_lead_secs: Option<f64>,
}

/// Why a journal could not be turned into timelines.
#[derive(Clone, Debug, PartialEq)]
pub enum ReconstructError {
    EmptyJournal,
    /// The first entry was not `RunStarted`, so there is no session frame
    /// to anchor the timelines.
    NoRunStarted,
}

impl fmt::Display for ReconstructError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReconstructError::EmptyJournal => write!(f, "journal is empty"),
            ReconstructError::NoRunStarted => {
                write!(f, "journal does not begin with a RunStarted entry")
            }
        }
    }
}

impl std::error::Error for ReconstructError {}

struct OpenState<P> {
    phase: P,
    since: f64,
    recovery: bool,
}

/// Replay `journal` into per-entity timelines.
pub fn reconstruct(journal: &RunJournal) -> Result<SessionTimelines, ReconstructError> {
    let entries = journal.entries();
    if entries.is_empty() {
        return Err(ReconstructError::EmptyJournal);
    }
    let (seed, strategy, n_tasks, started_at) = match &entries[0].event {
        JournalEvent::RunStarted {
            seed,
            strategy,
            n_tasks,
        } => (*seed, strategy.clone(), *n_tasks, entries[0].at_secs),
        _ => return Err(ReconstructError::NoRunStarted),
    };

    let mut units: BTreeMap<u32, UnitTimeline> = BTreeMap::new();
    let mut unit_open: BTreeMap<u32, OpenState<UnitState>> = BTreeMap::new();
    let mut pilots: BTreeMap<u32, PilotTimeline> = BTreeMap::new();
    let mut pilot_open: BTreeMap<u32, OpenState<PilotState>> = BTreeMap::new();
    let mut detections: Vec<DetectionWindow> = Vec::new();
    let mut suspicion_open: BTreeMap<u32, (String, f64)> = BTreeMap::new();
    let mut finished_at = None;
    let mut ttc_reported = None;
    let mut replans = 0;
    let mut breaker_trips = 0;
    let mut blacklists = 0;
    let mut stale_signals = 0;
    let mut info_fallbacks = 0;
    let mut domain_alarms = 0;
    let mut evacuations = 0;
    let mut checkpoints = 0;
    let mut resumes = 0;
    let mut first_alarm_at: Option<f64> = None;
    let mut evacuation_lead_secs: Option<f64> = None;
    let mut last_at = started_at;

    for entry in entries {
        let at = entry.at_secs;
        last_at = at;
        match &entry.event {
            JournalEvent::RunStarted { .. } => {}
            JournalEvent::PilotTransition {
                pilot,
                state,
                resource,
                cores,
            } => {
                let phase = *state;
                let tl = pilots.entry(*pilot).or_insert_with(|| PilotTimeline {
                    id: *pilot,
                    resource: resource.clone(),
                    cores: *cores,
                    intervals: Vec::new(),
                });
                // Journals written before the schema carried placement
                // leave these defaulted; keep the first non-empty values.
                if tl.resource.is_empty() && !resource.is_empty() {
                    tl.resource = resource.clone();
                }
                if tl.cores == 0 {
                    tl.cores = *cores;
                }
                match pilot_open.get_mut(pilot) {
                    Some(open) => {
                        tl.intervals.push(Interval {
                            phase: open.phase,
                            start_secs: open.since,
                            end_secs: at,
                            recovery: false,
                        });
                        open.phase = phase;
                        open.since = at;
                    }
                    None => {
                        // Implicit birth: the pilot existed in New since
                        // run start.
                        if phase != PilotState::New && at > started_at {
                            tl.intervals.push(Interval {
                                phase: PilotState::New,
                                start_secs: started_at,
                                end_secs: at,
                                recovery: false,
                            });
                        }
                        pilot_open.insert(
                            *pilot,
                            OpenState {
                                phase,
                                since: at,
                                recovery: false,
                            },
                        );
                    }
                }
            }
            JournalEvent::UnitTransition {
                unit,
                state,
                pilot,
                cores,
            } => {
                let phase = *state;
                let tl = units.entry(*unit).or_insert_with(|| UnitTimeline {
                    id: *unit,
                    cores: *cores,
                    intervals: Vec::new(),
                    bindings: Vec::new(),
                    restarts: 0,
                });
                if tl.cores == 0 {
                    tl.cores = *cores;
                }
                tl.bindings.push((at, *pilot));
                match unit_open.get_mut(unit) {
                    Some(open) => {
                        // A return to PendingExecution from an in-flight
                        // state is a restart; the recovery tag sticks
                        // until the unit executes again.
                        let restarted = phase == UnitState::PendingExecution
                            && matches!(
                                open.phase,
                                UnitState::StagingInput
                                    | UnitState::Executing
                                    | UnitState::StagingOutput
                            );
                        tl.intervals.push(Interval {
                            phase: open.phase,
                            start_secs: open.since,
                            end_secs: at,
                            recovery: open.recovery,
                        });
                        if restarted {
                            tl.restarts += 1;
                            open.recovery = true;
                        } else if phase == UnitState::Executing {
                            open.recovery = false;
                        }
                        open.phase = phase;
                        open.since = at;
                    }
                    None => {
                        if phase != UnitState::New && at > started_at {
                            tl.intervals.push(Interval {
                                phase: UnitState::New,
                                start_secs: started_at,
                                end_secs: at,
                                recovery: false,
                            });
                        }
                        unit_open.insert(
                            *unit,
                            OpenState {
                                phase,
                                since: at,
                                recovery: false,
                            },
                        );
                    }
                }
            }
            JournalEvent::Detector {
                pilot,
                resource,
                verdict,
                ..
            } => match verdict {
                Verdict::Suspected => {
                    suspicion_open
                        .entry(*pilot)
                        .or_insert_with(|| (resource.clone(), at));
                }
                Verdict::Recovered | Verdict::DeclaredDead => {
                    if let Some((res, since)) = suspicion_open.remove(pilot) {
                        detections.push(DetectionWindow {
                            pilot: *pilot,
                            resource: res,
                            start_secs: since,
                            end_secs: at,
                            verdict: Some(*verdict),
                        });
                    }
                }
            },
            JournalEvent::StaleSignal { .. } => stale_signals += 1,
            JournalEvent::InfoFallback { .. } => info_fallbacks += 1,
            JournalEvent::BreakerTrip { .. } => breaker_trips += 1,
            JournalEvent::Blacklist { .. } => blacklists += 1,
            JournalEvent::Replan { .. } => replans += 1,
            JournalEvent::DomainAlarm { .. } => {
                domain_alarms += 1;
                first_alarm_at.get_or_insert(at);
            }
            JournalEvent::Evacuation { .. } => {
                evacuations += 1;
                if evacuation_lead_secs.is_none() {
                    if let Some(alarm_at) = first_alarm_at {
                        evacuation_lead_secs = Some(at - alarm_at);
                    }
                }
            }
            JournalEvent::Checkpoint { .. } => checkpoints += 1,
            JournalEvent::ResumeFromCheckpoint { .. } => resumes += 1,
            JournalEvent::RunFinished { ttc_secs } => {
                finished_at = Some(at);
                ttc_reported = Some(*ttc_secs);
            }
        }
    }

    let horizon = finished_at.unwrap_or(last_at);
    for (id, open) in unit_open {
        let tl = units.get_mut(&id).expect("opened units exist");
        tl.intervals.push(Interval {
            phase: open.phase,
            start_secs: open.since,
            end_secs: horizon.max(open.since),
            recovery: open.recovery,
        });
    }
    for (id, open) in pilot_open {
        let tl = pilots.get_mut(&id).expect("opened pilots exist");
        tl.intervals.push(Interval {
            phase: open.phase,
            start_secs: open.since,
            end_secs: horizon.max(open.since),
            recovery: false,
        });
    }
    for (pilot, (res, since)) in suspicion_open {
        detections.push(DetectionWindow {
            pilot,
            resource: res,
            start_secs: since,
            end_secs: horizon.max(since),
            verdict: None,
        });
    }
    detections.sort_by(|a, b| {
        a.start_secs
            .partial_cmp(&b.start_secs)
            .expect("finite times")
            .then(a.pilot.cmp(&b.pilot))
    });

    Ok(SessionTimelines {
        seed,
        strategy,
        n_tasks,
        started_at,
        finished_at,
        ttc_reported,
        horizon,
        units,
        pilots,
        detections,
        replans,
        breaker_trips,
        blacklists,
        stale_signals,
        info_fallbacks,
        domain_alarms,
        evacuations,
        checkpoints,
        resumes,
        evacuation_lead_secs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimes_sim::SimTime;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn started(j: &mut RunJournal) {
        j.record(
            t(0.0),
            JournalEvent::RunStarted {
                seed: 1,
                strategy: "early".into(),
                n_tasks: 2,
            },
        );
    }

    fn unit(j: &mut RunJournal, at: f64, unit: u32, state: UnitState, pilot: Option<u32>) {
        j.record(
            t(at),
            JournalEvent::UnitTransition {
                unit,
                state,
                pilot,
                cores: 2,
            },
        );
    }

    fn pilot(j: &mut RunJournal, at: f64, pilot: u32, state: PilotState) {
        j.record(
            t(at),
            JournalEvent::PilotTransition {
                pilot,
                state,
                resource: "alpha".into(),
                cores: 8,
            },
        );
    }

    #[test]
    fn reconstructs_contiguous_intervals() {
        let mut j = RunJournal::new();
        started(&mut j);
        pilot(&mut j, 1.0, 0, PilotState::PendingLaunch);
        pilot(&mut j, 10.0, 0, PilotState::Active);
        unit(&mut j, 0.5, 7, UnitState::PendingExecution, None);
        unit(&mut j, 10.0, 7, UnitState::StagingInput, Some(0));
        unit(&mut j, 12.0, 7, UnitState::Executing, Some(0));
        unit(&mut j, 40.0, 7, UnitState::StagingOutput, Some(0));
        unit(&mut j, 41.0, 7, UnitState::Done, Some(0));
        j.record(t(41.0), JournalEvent::RunFinished { ttc_secs: 41.0 });

        let tl = reconstruct(&j).unwrap();
        assert_eq!(tl.started_at, 0.0);
        assert_eq!(tl.finished_at, Some(41.0));
        assert_eq!(tl.ttc_reported, Some(41.0));

        let u = &tl.units[&7];
        assert_eq!(u.cores, 2);
        let phases: Vec<UnitState> = u.intervals.iter().map(|iv| iv.phase).collect();
        assert_eq!(
            phases,
            vec![
                UnitState::New,
                UnitState::PendingExecution,
                UnitState::StagingInput,
                UnitState::Executing,
                UnitState::StagingOutput,
                UnitState::Done,
            ]
        );
        // Contiguity: each interval starts where the previous ended.
        for pair in u.intervals.windows(2) {
            assert_eq!(pair[0].end_secs, pair[1].start_secs);
        }
        assert_eq!(u.done_at(), Some(41.0));
        assert_eq!(u.pilot_at(12.5), Some(0));
        assert_eq!(u.pilot_at(0.7), None);
        assert!((u.dwell_in(UnitState::Executing) - 28.0).abs() < 1e-12);

        let p = &tl.pilots[&0];
        assert_eq!(p.resource, "alpha");
        assert_eq!(p.cores, 8);
        assert_eq!(p.active_at(), Some(10.0));
        assert!(p.is_active_at(30.0));
        assert!(!p.is_active_at(5.0));
    }

    #[test]
    fn restart_tags_recovery_until_next_execution() {
        let mut j = RunJournal::new();
        started(&mut j);
        unit(&mut j, 1.0, 0, UnitState::PendingExecution, None);
        unit(&mut j, 2.0, 0, UnitState::StagingInput, Some(0));
        unit(&mut j, 3.0, 0, UnitState::Executing, Some(0));
        unit(&mut j, 50.0, 0, UnitState::PendingExecution, None); // restart
        unit(&mut j, 60.0, 0, UnitState::StagingInput, Some(1));
        unit(&mut j, 61.0, 0, UnitState::Executing, Some(1));
        unit(&mut j, 90.0, 0, UnitState::StagingOutput, Some(1));
        unit(&mut j, 91.0, 0, UnitState::Done, Some(1));
        j.record(t(91.0), JournalEvent::RunFinished { ttc_secs: 91.0 });

        let tl = reconstruct(&j).unwrap();
        let u = &tl.units[&0];
        assert_eq!(u.restarts, 1);
        let rec: Vec<(UnitState, bool)> = u
            .intervals
            .iter()
            .map(|iv| (iv.phase, iv.recovery))
            .collect();
        assert!(rec.contains(&(UnitState::PendingExecution, true)));
        assert!(rec.contains(&(UnitState::StagingInput, true)));
        // Post-restart execution is real work again, not recovery.
        let second_exec = u
            .intervals
            .iter()
            .filter(|iv| iv.phase == UnitState::Executing)
            .nth(1)
            .unwrap();
        assert!(!second_exec.recovery);
    }

    #[test]
    fn torn_journal_closes_at_last_event() {
        let mut j = RunJournal::new();
        started(&mut j);
        unit(&mut j, 1.0, 0, UnitState::PendingExecution, None);
        unit(&mut j, 5.0, 0, UnitState::StagingInput, Some(0));
        let tl = reconstruct(&j).unwrap();
        assert_eq!(tl.finished_at, None);
        assert_eq!(tl.horizon, 5.0);
        let u = &tl.units[&0];
        assert_eq!(u.intervals.last().unwrap().end_secs, 5.0);
    }

    #[test]
    fn detection_windows_open_and_close() {
        let mut j = RunJournal::new();
        started(&mut j);
        j.record(
            t(100.0),
            JournalEvent::Detector {
                pilot: 0,
                resource: "alpha".into(),
                verdict: Verdict::Suspected,
                silent_secs: 45.0,
            },
        );
        j.record(
            t(160.0),
            JournalEvent::Detector {
                pilot: 0,
                resource: "alpha".into(),
                verdict: Verdict::DeclaredDead,
                silent_secs: 105.0,
            },
        );
        j.record(
            t(200.0),
            JournalEvent::Detector {
                pilot: 1,
                resource: "beta".into(),
                verdict: Verdict::Suspected,
                silent_secs: 30.0,
            },
        );
        j.record(t(300.0), JournalEvent::RunFinished { ttc_secs: 300.0 });
        let tl = reconstruct(&j).unwrap();
        assert_eq!(tl.detections.len(), 2);
        assert_eq!(tl.detections[0].verdict, Some(Verdict::DeclaredDead));
        assert_eq!(tl.detections[0].end_secs, 160.0);
        assert_eq!(tl.detections[1].verdict, None);
        assert_eq!(tl.detections[1].end_secs, 300.0);
    }

    #[test]
    fn cascade_counters_and_evacuation_lead() {
        let mut j = RunJournal::new();
        started(&mut j);
        j.record(
            t(100.0),
            JournalEvent::DomainAlarm {
                domain: "sdsc".into(),
                members: vec!["gordon".into(), "trestles".into()],
            },
        );
        j.record(
            t(130.0),
            JournalEvent::Evacuation {
                domain: "sdsc".into(),
                resource: "gordon".into(),
                pilot: 1,
            },
        );
        j.record(
            t(150.0),
            JournalEvent::Evacuation {
                domain: "sdsc".into(),
                resource: "trestles".into(),
                pilot: 2,
            },
        );
        j.record(
            t(200.0),
            JournalEvent::Checkpoint {
                unit: 3,
                progress_secs: 120.0,
            },
        );
        j.record(
            t(260.0),
            JournalEvent::ResumeFromCheckpoint {
                unit: 3,
                salvaged_secs: 120.0,
            },
        );
        j.record(t(300.0), JournalEvent::RunFinished { ttc_secs: 300.0 });
        let tl = reconstruct(&j).unwrap();
        assert_eq!(tl.domain_alarms, 1);
        assert_eq!(tl.evacuations, 2);
        assert_eq!(tl.checkpoints, 1);
        assert_eq!(tl.resumes, 1);
        // Lead time is first alarm -> first completed drain.
        assert_eq!(tl.evacuation_lead_secs, Some(30.0));
    }

    #[test]
    fn rejects_journals_without_a_frame() {
        assert_eq!(
            reconstruct(&RunJournal::new()).unwrap_err(),
            ReconstructError::EmptyJournal
        );
        let mut j = RunJournal::new();
        unit(&mut j, 1.0, 0, UnitState::PendingExecution, None);
        assert_eq!(reconstruct(&j).unwrap_err(), ReconstructError::NoRunStarted);
    }
}
