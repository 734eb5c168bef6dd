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

/// What the unit manager reads of a unit's task: its shape, its run time
/// and its staging volumes. Computed once at submission, so a unit holds
/// four numbers instead of a copy of the task's names and file lists.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UnitWork {
    pub cores: u32,
    pub duration: SimDuration,
    /// Total input volume in MB ([`TaskSpec::input_mb`]).
    pub input_mb: f64,
    /// Output volume in MB ([`TaskSpec::output_mb`]).
    pub output_mb: f64,
}

impl UnitWork {
    /// The work of `task`.
    pub fn of(task: &TaskSpec) -> Self {
        UnitWork {
            cores: task.cores,
            duration: task.duration,
            input_mb: task.input_mb,
            output_mb: task.output_mb,
        }
    }
}

/// Entries a history holds inline: the states a unit passes through on a
/// run without restarts (New, PendingExecution, StagingInput, Executing,
/// StagingOutput and Done).
const INLINE: usize = 6;

/// A unit's instrumented transitions, oldest first: each state the unit
/// entered and when. The first entry is the unit's creation (`New`), so a
/// history is never empty.
///
/// The first six entries live inside the unit, so a unit that never
/// restarts allocates nothing for its history. A seventh entry (only a
/// restart makes one) moves the whole history to one heap buffer, where
/// it stays.
#[derive(Clone, Debug)]
pub struct UnitHistory(Entries);

#[derive(Clone, Debug)]
enum Entries {
    Inline {
        len: u8,
        states: [UnitState; INLINE],
        times: [SimTime; INLINE],
    },
    Spilled(Vec<(UnitState, SimTime)>),
}

impl UnitHistory {
    /// A history whose first entry is `state` at `at`.
    pub fn new(state: UnitState, at: SimTime) -> Self {
        UnitHistory(Entries::Inline {
            len: 1,
            states: [state; INLINE],
            times: [at; INLINE],
        })
    }

    /// Append the entry of a transition to `state` at `at`.
    pub fn push(&mut self, state: UnitState, at: SimTime) {
        match &mut self.0 {
            Entries::Inline { len, states, times } if usize::from(*len) < INLINE => {
                let i = usize::from(*len);
                (states[i], times[i]) = (state, at);
                *len += 1;
            }
            Entries::Inline { states, times, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE);
                spilled.extend(states.iter().copied().zip(times.iter().copied()));
                spilled.push((state, at));
                self.0 = Entries::Spilled(spilled);
            }
            Entries::Spilled(spilled) => spilled.push((state, at)),
        }
    }

    /// Number of entries (at least 1).
    pub fn len(&self) -> usize {
        match &self.0 {
            Entries::Inline { len, .. } => usize::from(*len),
            Entries::Spilled(spilled) => spilled.len(),
        }
    }

    /// Always false: a history begins at its unit's creation.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th entry; panics past the end.
    fn at(&self, i: usize) -> (UnitState, SimTime) {
        match &self.0 {
            Entries::Inline { states, times, .. } => (states[i], times[i]),
            Entries::Spilled(spilled) => spilled[i],
        }
    }

    /// The `i`-th entry, if there are more than `i`.
    pub fn get(&self, i: usize) -> Option<(UnitState, SimTime)> {
        (i < self.len()).then(|| self.at(i))
    }

    /// The entries, oldest first.
    pub fn iter(
        &self,
    ) -> impl DoubleEndedIterator<Item = (UnitState, SimTime)> + ExactSizeIterator + '_ {
        (0..self.len()).map(|i| self.at(i))
    }

    /// The unit's creation.
    pub fn first(&self) -> (UnitState, SimTime) {
        self.at(0)
    }

    /// The latest transition: the current state and when it was entered.
    pub fn last(&self) -> (UnitState, SimTime) {
        self.at(self.len() - 1)
    }
}

/// A unit tracked by the unit manager.
#[derive(Clone, Debug)]
pub struct ComputeUnit {
    pub id: UnitId,
    pub work: UnitWork,
    pub state: UnitState,
    /// Pilot currently (or last) executing this unit.
    pub pilot: Option<PilotId>,
    /// Execution attempts so far (1 = first try).
    pub attempts: u32,
    /// Instrumented transitions.
    pub timestamps: UnitHistory,
}

// The history's inline entries keep a unit within 112 bytes; a `Vec`
// would hold the same six entries on the heap behind 24. Checkpointed
// progress, zero unless checkpointing is on, is kept by the manager.
const _: () = assert!(std::mem::size_of::<ComputeUnit>() <= 112);

/// What checkpointing banked for one unit. The unit manager keeps one
/// only for a unit whose checkpointed attempt aborted with progress, so a
/// run without checkpointing keeps none.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Checkpoint {
    /// Checkpointed execution progress: the last boundary an aborted
    /// attempt can resume from.
    pub progress: SimDuration,
    /// Total execution time carried across attempts via checkpoints —
    /// aborted work that did *not* have to be redone.
    pub salvaged: SimDuration,
}

impl ComputeUnit {
    pub(crate) fn new(id: UnitId, work: UnitWork, now: SimTime) -> Self {
        ComputeUnit {
            id,
            work,
            state: UnitState::New,
            pilot: None,
            attempts: 0,
            timestamps: UnitHistory::new(UnitState::New, now),
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
        self.timestamps.push(next, now);
    }

    /// Time of the *latest* occurrence of `state` (restarts repeat states).
    pub fn last_time_of(&self, state: UnitState) -> Option<SimTime> {
        self.timestamps
            .iter()
            .rev()
            .find(|&(s, _)| s == state)
            .map(|(_, t)| t)
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
    use aimes_skeleton::{TaskId, TaskInput};

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn task() -> UnitWork {
        UnitWork::of(&TaskSpec {
            id: TaskId(0),
            stage: 0,
            cores: 1,
            duration: SimDuration::from_mins(15.0),
            input: TaskInput::External { size_mb: 1.0 },
            input_mb: 1.0,
            output_mb: 0.002,
        })
    }

    #[test]
    fn work_reads_the_task_volumes() {
        let w = task();
        assert_eq!(w.cores, 1);
        assert_eq!(w.duration, SimDuration::from_mins(15.0));
        assert_eq!(w.input_mb, 1.0);
        assert_eq!(w.output_mb, 0.002);
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
        assert_eq!(u.timestamps.len(), INLINE);
        assert!(matches!(u.timestamps.0, Entries::Inline { .. }));
        assert_eq!(u.timestamps.first(), (UnitState::New, t(0.0)));
        assert_eq!(u.timestamps.last(), (UnitState::Done, t(913.0)));
        assert_eq!(u.timestamps.get(INLINE), None);
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
        let executing: Vec<SimTime> = u
            .timestamps
            .iter()
            .filter(|&(s, _)| s == UnitState::Executing)
            .map(|(_, at)| at)
            .collect();
        assert_eq!(executing, [t(4.0), t(202.0)]);
        // The seventh entry moved the history to the heap, in order.
        assert!(matches!(u.timestamps.0, Entries::Spilled(_)));
        assert_eq!(u.timestamps.len(), 9);
        assert_eq!(u.timestamps.get(3), Some((UnitState::Executing, t(4.0))));
        assert_eq!(u.timestamps.get(6), Some((UnitState::Executing, t(202.0))));
        assert_eq!(u.timestamps.last(), (UnitState::Done, t(1103.0)));
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
