//! The OGF-SAGA job model (GFD.90) as used by the middleware.

use aimes_cluster::JobState;
use aimes_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Session-global job identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SagaJobId(pub u64);

impl std::fmt::Display for SagaJobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "saga.{}", self.0)
    }
}

/// SAGA job states (GFD.90 state model).
///
/// ```text
/// New ──submit──► Pending ──► Running ──► Done
///        │           │           ├──────► Failed
///        │           └──cancel──►│
///        └──────transient error─►└──────► Canceled
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum SagaJobState {
    /// Created, not yet accepted by the backend.
    New,
    /// Accepted by the backend queue.
    Pending,
    Running,
    Done,
    Failed,
    Canceled,
}

impl SagaJobState {
    /// Wire name: the trace event, journal and serde string for this
    /// state.
    pub fn name(self) -> &'static str {
        match self {
            SagaJobState::New => "New",
            SagaJobState::Pending => "Pending",
            SagaJobState::Running => "Running",
            SagaJobState::Done => "Done",
            SagaJobState::Failed => "Failed",
            SagaJobState::Canceled => "Canceled",
        }
    }

    /// True for states a job never leaves.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            SagaJobState::Done | SagaJobState::Failed | SagaJobState::Canceled
        )
    }

    /// Legal transition check, mirroring GFD.90.
    pub fn can_transition_to(self, next: SagaJobState) -> bool {
        use SagaJobState::*;
        matches!(
            (self, next),
            (New, Pending)
                | (New, Failed)
                | (New, Canceled)
                | (Pending, Running)
                | (Pending, Canceled)
                | (Pending, Failed)
                | (Running, Done)
                | (Running, Failed)
                | (Running, Canceled)
        )
    }

    /// Translate a backend (cluster) job state into the SAGA model.
    pub fn from_backend(state: JobState) -> SagaJobState {
        match state {
            JobState::Queued => SagaJobState::Pending,
            JobState::Running => SagaJobState::Running,
            JobState::Completed => SagaJobState::Done,
            JobState::Killed => SagaJobState::Failed,
            JobState::Cancelled => SagaJobState::Canceled,
        }
    }
}

/// What the middleware asks of a resource — the SAGA job description
/// attributes the pilot layer uses (`total_cpu_count`, `wall_time_limit`,
/// plus a tag for traces).
#[derive(Clone, Debug, PartialEq)]
pub struct JobDescription {
    /// `total_cpu_count`.
    pub cores: u32,
    /// `wall_time_limit`.
    pub walltime: SimDuration,
    /// `queue` — the named submission queue; `None` uses the resource's
    /// default.
    pub queue: Option<String>,
    /// Propagated into backend traces (e.g. the pilot id).
    pub tag: String,
}

impl JobDescription {
    /// Describe a pilot job.
    pub fn new(cores: u32, walltime: SimDuration, tag: impl Into<String>) -> Self {
        JobDescription {
            cores,
            walltime,
            queue: None,
            tag: tag.into(),
        }
    }

    /// Route to a named queue.
    pub fn with_queue(mut self, queue: impl Into<String>) -> Self {
        self.queue = Some(queue.into());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_states() {
        use SagaJobState::*;
        for s in [Done, Failed, Canceled] {
            assert!(s.is_terminal());
        }
        for s in [New, Pending, Running] {
            assert!(!s.is_terminal());
        }
    }

    #[test]
    fn legal_lifecycle() {
        use SagaJobState::*;
        assert!(New.can_transition_to(Pending));
        assert!(Pending.can_transition_to(Running));
        assert!(Running.can_transition_to(Done));
        assert!(Pending.can_transition_to(Canceled));
        assert!(New.can_transition_to(Failed)); // submission failure
        assert!(!Done.can_transition_to(Running));
        assert!(!New.can_transition_to(Running)); // must pass through Pending
        assert!(!Running.can_transition_to(Pending));
    }

    #[test]
    fn backend_mapping() {
        use aimes_cluster::JobState as B;
        assert_eq!(SagaJobState::from_backend(B::Queued), SagaJobState::Pending);
        assert_eq!(
            SagaJobState::from_backend(B::Running),
            SagaJobState::Running
        );
        assert_eq!(SagaJobState::from_backend(B::Completed), SagaJobState::Done);
        assert_eq!(SagaJobState::from_backend(B::Killed), SagaJobState::Failed);
        assert_eq!(
            SagaJobState::from_backend(B::Cancelled),
            SagaJobState::Canceled
        );
    }

    #[test]
    fn description_builder() {
        let d = JobDescription::new(128, SimDuration::from_hours(2.0), "pilot.3");
        assert_eq!(d.cores, 128);
        assert_eq!(d.walltime.as_hours(), 2.0);
        assert_eq!(d.tag, "pilot.3");
    }
}
