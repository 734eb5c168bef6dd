//! Pilot state model with instrumented transitions.
//!
//! §III-C: "Timers and introspection tools record each state transition and
//! the state properties of each RADICAL-Pilot component. These capabilities
//! are needed to tailor distributed application execution to diverse use
//! cases, but to the best of our knowledge, they are missing in other pilot
//! systems." Every transition is timestamped; the experiment analysis reads
//! `Tw` (pilot setup + queue time) straight off these records.

use crate::description::PilotDescription;
use aimes_saga::SagaJobId;
use aimes_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Pilot identifier (manager-scoped).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PilotId(pub u32);

impl std::fmt::Display for PilotId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pilot.{}", self.0)
    }
}

/// The RADICAL-Pilot state model.
///
/// ```text
/// New ─► PendingLaunch ─► Launching ─► PendingActive ─► Active ─► Done
///                              │             │             ├────► Failed
///                              └────►────────┴──────►──────┴────► Canceled
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum PilotState {
    /// Described, not yet handed to the launcher.
    New,
    /// Waiting for the SAGA submission round-trip.
    PendingLaunch,
    /// Submitted; waiting in the resource's batch queue.
    Launching,
    /// Backend job started; pilot agent bootstrapping.
    PendingActive,
    /// Agent up: accepting and executing units.
    Active,
    /// Reached the end of its walltime or was drained and completed.
    Done,
    Failed,
    Canceled,
}

impl PilotState {
    /// Wire name: the trace event, journal and serde string for this
    /// state.
    pub fn name(self) -> &'static str {
        match self {
            PilotState::New => "New",
            PilotState::PendingLaunch => "PendingLaunch",
            PilotState::Launching => "Launching",
            PilotState::PendingActive => "PendingActive",
            PilotState::Active => "Active",
            PilotState::Done => "Done",
            PilotState::Failed => "Failed",
            PilotState::Canceled => "Canceled",
        }
    }

    /// True for states a pilot never leaves.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            PilotState::Done | PilotState::Failed | PilotState::Canceled
        )
    }

    /// Legal transition check.
    pub fn can_transition_to(self, next: PilotState) -> bool {
        use PilotState::*;
        matches!(
            (self, next),
            (New, PendingLaunch)
                | (PendingLaunch, Launching)
                | (PendingLaunch, Failed)
                | (PendingLaunch, Canceled)
                | (Launching, PendingActive)
                | (Launching, Failed)
                | (Launching, Canceled)
                | (PendingActive, Active)
                | (PendingActive, Failed)
                | (PendingActive, Canceled)
                | (Active, Done)
                | (Active, Failed)
                | (Active, Canceled)
        )
    }
}

/// A pilot tracked by the pilot manager.
#[derive(Clone, Debug)]
pub struct Pilot {
    pub id: PilotId,
    pub description: PilotDescription,
    pub state: PilotState,
    /// SAGA job backing this pilot, once submitted.
    pub saga_job: Option<SagaJobId>,
    /// Instrumented state transitions: `(state, time)` in order.
    pub timestamps: Vec<(PilotState, SimTime)>,
}

impl Pilot {
    pub(crate) fn new(id: PilotId, description: PilotDescription, now: SimTime) -> Self {
        Pilot {
            id,
            description,
            state: PilotState::New,
            saga_job: None,
            timestamps: vec![(PilotState::New, now)],
        }
    }

    pub(crate) fn transition(&mut self, next: PilotState, now: SimTime) {
        assert!(
            self.state.can_transition_to(next),
            "illegal pilot transition {:?} -> {:?} for {}",
            self.state,
            next,
            self.id
        );
        self.state = next;
        self.timestamps.push((next, now));
    }

    /// Time of the first occurrence of `state`, if reached.
    pub fn time_of(&self, state: PilotState) -> Option<SimTime> {
        self.timestamps
            .iter()
            .find(|(s, _)| *s == state)
            .map(|(_, t)| *t)
    }

    /// The pilot's setup time: from description (New) to Active — the
    /// paper's per-pilot contribution to Tw, covering middleware
    /// round-trips *and* batch-queue wait.
    pub fn setup_time(&self) -> Option<SimDuration> {
        let new = self.time_of(PilotState::New)?;
        let active = self.time_of(PilotState::Active)?;
        Some(active.since(new))
    }

    /// Queue-only wait: Launching → PendingActive (the batch queue part of
    /// the setup time).
    pub fn queue_wait(&self) -> Option<SimDuration> {
        let launched = self.time_of(PilotState::Launching)?;
        let started = self.time_of(PilotState::PendingActive)?;
        Some(started.since(launched))
    }

    /// When the resource will reclaim the allocation: activation +
    /// walltime.
    pub fn walltime_deadline(&self) -> Option<SimTime> {
        self.time_of(PilotState::Active)
            .map(|t| t + self.description.walltime)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn pilot() -> Pilot {
        Pilot::new(
            PilotId(0),
            PilotDescription::new("stampede", 64, SimDuration::from_hours(2.0)),
            t(0.0),
        )
    }

    #[test]
    fn full_lifecycle_records_timestamps() {
        let mut p = pilot();
        p.transition(PilotState::PendingLaunch, t(1.0));
        p.transition(PilotState::Launching, t(3.0));
        p.transition(PilotState::PendingActive, t(500.0));
        p.transition(PilotState::Active, t(510.0));
        p.transition(PilotState::Done, t(7710.0));
        assert_eq!(p.timestamps.len(), 6);
        assert_eq!(p.setup_time(), Some(SimDuration::from_secs(510.0)));
        assert_eq!(p.queue_wait(), Some(SimDuration::from_secs(497.0)));
        assert_eq!(
            p.walltime_deadline(),
            Some(t(510.0) + SimDuration::from_hours(2.0))
        );
    }

    #[test]
    #[should_panic(expected = "illegal pilot transition")]
    fn illegal_transition_panics() {
        let mut p = pilot();
        p.transition(PilotState::Active, t(1.0));
    }

    #[test]
    fn terminal_states() {
        use PilotState::*;
        for s in [Done, Failed, Canceled] {
            assert!(s.is_terminal());
        }
        for s in [New, PendingLaunch, Launching, PendingActive, Active] {
            assert!(!s.is_terminal());
        }
    }

    #[test]
    fn failures_allowed_from_any_live_submission_state() {
        use PilotState::*;
        assert!(PendingLaunch.can_transition_to(Failed));
        assert!(Launching.can_transition_to(Canceled));
        assert!(PendingActive.can_transition_to(Failed));
        assert!(!Done.can_transition_to(Failed));
    }

    #[test]
    fn setup_time_none_until_active() {
        let mut p = pilot();
        assert!(p.setup_time().is_none());
        p.transition(PilotState::PendingLaunch, t(1.0));
        p.transition(PilotState::Launching, t(2.0));
        assert!(p.setup_time().is_none());
        assert!(p.queue_wait().is_none());
    }
}
