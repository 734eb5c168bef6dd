//! Compute units: the pilot-level representation of application tasks.
//!
//! Units carry the same instrumented-state-model discipline as pilots. The
//! staging states make the Ts component of TTC measurable per unit, and
//! the restart counter implements "tasks are automatically restarted in
//! case of failure" (§III-E).

use crate::pilot::PilotId;
use aimes_sim::{SimDuration, SimTime};
use aimes_skeleton::TaskSpec;
use serde::{Deserialize, Serialize};

/// Unit identifier (manager-scoped; equals the task id for skeleton apps).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize, Deserialize)]
pub struct UnitId(pub u32);

impl std::fmt::Display for UnitId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unit.{:05}", self.0)
    }
}

/// Unit state model.
///
/// ```text
/// New ─► PendingExecution ─► StagingInput ─► Executing ─► StagingOutput ─► Done
///  │            ▲                  │             │                │
///  │            └──────restart─────┴──────◄──────┴───────◄────────┘
///  │                                                (pilot died / error)
///  └► Canceled   ...and any live state ─► Failed (restarts exhausted)
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum UnitState {
    /// Known to the unit manager; waiting for dependencies.
    New,
    /// Eligible; waiting to be scheduled onto an active pilot (late
    /// binding) or for its bound pilot to activate (early binding).
    PendingExecution,
    /// Input files moving to the pilot's resource.
    StagingInput,
    Executing,
    /// Output files moving back to the origin.
    StagingOutput,
    Done,
    Failed,
    Canceled,
}

impl UnitState {
    /// Wire name: the trace event, journal and serde string for this
    /// state.
    pub fn name(self) -> &'static str {
        match self {
            UnitState::New => "New",
            UnitState::PendingExecution => "PendingExecution",
            UnitState::StagingInput => "StagingInput",
            UnitState::Executing => "Executing",
            UnitState::StagingOutput => "StagingOutput",
            UnitState::Done => "Done",
            UnitState::Failed => "Failed",
            UnitState::Canceled => "Canceled",
        }
    }

    /// True for states a unit never leaves.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            UnitState::Done | UnitState::Failed | UnitState::Canceled
        )
    }

    /// Legal transition check. A restart is a transition back to
    /// `PendingExecution` from an in-flight state.
    pub fn can_transition_to(self, next: UnitState) -> bool {
        use UnitState::*;
        matches!(
            (self, next),
            (New, PendingExecution)
                | (New, Canceled)
                | (PendingExecution, StagingInput)
                | (PendingExecution, Canceled)
                | (PendingExecution, Failed)
                | (StagingInput, Executing)
                | (StagingInput, PendingExecution) // restart
                | (StagingInput, Failed)
                | (StagingInput, Canceled)
                | (Executing, StagingOutput)
                | (Executing, PendingExecution) // restart
                | (Executing, Failed)
                | (Executing, Canceled)
                | (StagingOutput, Done)
                | (StagingOutput, PendingExecution) // restart
                | (StagingOutput, Failed)
                | (StagingOutput, Canceled)
        )
    }
}

/// A unit tracked by the unit manager.
#[derive(Clone, Debug)]
pub struct ComputeUnit {
    pub id: UnitId,
    pub task: TaskSpec,
    pub state: UnitState,
    /// Pilot currently (or last) executing this unit.
    pub pilot: Option<PilotId>,
    /// Execution attempts so far (1 = first try).
    pub attempts: u32,
    /// Checkpointed execution progress: the last boundary an aborted
    /// attempt can resume from. Zero unless checkpointing is enabled.
    pub checkpointed: SimDuration,
    /// Total execution time carried across attempts via checkpoints —
    /// aborted work that did *not* have to be redone.
    pub salvaged: SimDuration,
    /// Instrumented transitions.
    pub timestamps: Vec<(UnitState, SimTime)>,
}

impl ComputeUnit {
    pub(crate) fn new(id: UnitId, task: TaskSpec, now: SimTime) -> Self {
        ComputeUnit {
            id,
            task,
            state: UnitState::New,
            pilot: None,
            attempts: 0,
            checkpointed: SimDuration::ZERO,
            salvaged: SimDuration::ZERO,
            timestamps: vec![(UnitState::New, now)],
        }
    }

    pub(crate) fn transition(&mut self, next: UnitState, now: SimTime) {
        assert!(
            self.state.can_transition_to(next),
            "illegal unit transition {:?} -> {:?} for {}",
            self.state,
            next,
            self.id
        );
        self.state = next;
        self.timestamps.push((next, now));
    }

    /// Time of the *latest* occurrence of `state` (restarts repeat states).
    pub fn last_time_of(&self, state: UnitState) -> Option<SimTime> {
        self.timestamps
            .iter()
            .rev()
            .find(|(s, _)| *s == state)
            .map(|(_, t)| *t)
    }

    /// All `(state, time)` pairs for `state` in order (restart-aware).
    pub fn times_of(&self, state: UnitState) -> Vec<SimTime> {
        self.timestamps
            .iter()
            .filter(|(s, _)| *s == state)
            .map(|(_, t)| *t)
            .collect()
    }

    /// Wall time spent executing in the successful attempt.
    pub fn execution_span(&self) -> Option<SimDuration> {
        let start = self.last_time_of(UnitState::Executing)?;
        let end = self.last_time_of(UnitState::StagingOutput)?;
        (end >= start).then(|| end.since(start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimes_skeleton::{FileSpec, TaskId};

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn task() -> TaskSpec {
        TaskSpec {
            id: TaskId(0),
            stage: 0,
            stage_name: "bag".into(),
            cores: 1,
            duration: SimDuration::from_mins(15.0),
            inputs: vec![FileSpec {
                name: "in".into(),
                size_mb: 1.0,
            }],
            outputs: vec![FileSpec {
                name: "out".into(),
                size_mb: 0.002,
            }],
            dependencies: vec![],
        }
    }

    #[test]
    fn happy_path_with_timestamps() {
        let mut u = ComputeUnit::new(UnitId(0), task(), t(0.0));
        u.transition(UnitState::PendingExecution, t(1.0));
        u.transition(UnitState::StagingInput, t(10.0));
        u.transition(UnitState::Executing, t(12.0));
        u.transition(UnitState::StagingOutput, t(912.0));
        u.transition(UnitState::Done, t(913.0));
        assert_eq!(u.execution_span(), Some(SimDuration::from_secs(900.0)));
        assert_eq!(u.timestamps.len(), 6);
    }

    #[test]
    fn restart_path_is_legal_and_tracked() {
        let mut u = ComputeUnit::new(UnitId(0), task(), t(0.0));
        u.transition(UnitState::PendingExecution, t(1.0));
        u.transition(UnitState::StagingInput, t(2.0));
        u.transition(UnitState::Executing, t(4.0));
        // Pilot died: restart.
        u.transition(UnitState::PendingExecution, t(100.0));
        u.transition(UnitState::StagingInput, t(200.0));
        u.transition(UnitState::Executing, t(202.0));
        u.transition(UnitState::StagingOutput, t(1102.0));
        u.transition(UnitState::Done, t(1103.0));
        assert_eq!(u.times_of(UnitState::Executing), vec![t(4.0), t(202.0)]);
        assert_eq!(u.execution_span(), Some(SimDuration::from_secs(900.0)));
    }

    #[test]
    #[should_panic(expected = "illegal unit transition")]
    fn cannot_skip_staging() {
        let mut u = ComputeUnit::new(UnitId(0), task(), t(0.0));
        u.transition(UnitState::PendingExecution, t(1.0));
        u.transition(UnitState::Executing, t(2.0));
    }

    #[test]
    fn terminal_states() {
        use UnitState::*;
        for s in [Done, Failed, Canceled] {
            assert!(s.is_terminal());
        }
        for s in [
            New,
            PendingExecution,
            StagingInput,
            Executing,
            StagingOutput,
        ] {
            assert!(!s.is_terminal());
        }
    }

    #[test]
    fn execution_span_none_before_completion() {
        let mut u = ComputeUnit::new(UnitId(0), task(), t(0.0));
        assert!(u.execution_span().is_none());
        u.transition(UnitState::PendingExecution, t(1.0));
        u.transition(UnitState::StagingInput, t(2.0));
        u.transition(UnitState::Executing, t(3.0));
        assert!(u.execution_span().is_none());
    }
}
