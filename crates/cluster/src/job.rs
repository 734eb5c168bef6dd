//! Batch-job representation and lifecycle.

use aimes_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Cluster-local job identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize, Deserialize)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job.{}", self.0)
    }
}

/// Who owns a job — the synthetic background load or the experiment's
/// pilot layer. Metrics and traces are reported per owner class.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum JobOwner {
    /// Synthetic competing load.
    Background,
    /// A pilot submitted by the middleware under test.
    Pilot,
}

/// Lifecycle of a batch job.
///
/// ```text
/// Queued ──start──► Running ──runtime elapses──► Completed
///   │                  │
///   │                  ├─walltime exceeded─► Killed
///   │                  └─user cancel──────► Cancelled
///   └────user cancel──────────────────────► Cancelled
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum JobState {
    Queued,
    Running,
    Completed,
    /// Terminated by the resource manager at the walltime request.
    Killed,
    Cancelled,
}

impl JobState {
    /// Wire name: the trace event, journal and serde string for this
    /// state.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "Queued",
            JobState::Running => "Running",
            JobState::Completed => "Completed",
            JobState::Killed => "Killed",
            JobState::Cancelled => "Cancelled",
        }
    }

    /// True for states a job can never leave.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Killed | JobState::Cancelled
        )
    }

    /// Legal transition check; the cluster asserts this on every move.
    pub fn can_transition_to(self, next: JobState) -> bool {
        use JobState::*;
        matches!(
            (self, next),
            (Queued, Running)
                | (Queued, Cancelled)
                | (Queued, Killed)
                | (Running, Completed)
                | (Running, Killed)
                | (Running, Cancelled)
        )
    }
}

/// What a submitter asks of the resource manager.
#[derive(Clone, Debug, PartialEq)]
pub struct JobRequest {
    pub owner: JobOwner,
    /// Cores requested.
    pub cores: u32,
    /// Actual runtime, known to the simulator but *not* to the scheduler
    /// (the scheduler only sees `walltime_request`).
    pub runtime: SimDuration,
    /// Requested walltime; the job is killed when it elapses.
    pub walltime_request: SimDuration,
    /// Target queue name; `None` selects the resource's default queue.
    pub queue: Option<String>,
    /// Free-form tag propagated to traces (e.g. pilot id).
    pub tag: String,
}

impl JobRequest {
    /// A background job request.
    pub fn background(cores: u32, runtime: SimDuration, walltime: SimDuration) -> Self {
        JobRequest {
            owner: JobOwner::Background,
            cores,
            runtime,
            walltime_request: walltime,
            queue: None,
            tag: String::new(),
        }
    }

    /// A pilot job request: pilots occupy the allocation for their full
    /// walltime unless cancelled (the agent inside decides what runs).
    pub fn pilot(cores: u32, walltime: SimDuration, tag: impl Into<String>) -> Self {
        JobRequest {
            owner: JobOwner::Pilot,
            cores,
            runtime: walltime,
            walltime_request: walltime,
            queue: None,
            tag: tag.into(),
        }
    }

    /// Route the request to a named queue.
    pub fn with_queue(mut self, queue: impl Into<String>) -> Self {
        self.queue = Some(queue.into());
        self
    }
}

/// A job as tracked by the cluster.
#[derive(Clone, Debug)]
pub struct Job {
    pub id: JobId,
    pub request: JobRequest,
    pub state: JobState,
    pub submit_time: SimTime,
    pub start_time: Option<SimTime>,
    pub end_time: Option<SimTime>,
    /// Priority inherited from the resolved submission queue.
    pub queue_priority: i32,
}

impl Job {
    pub(crate) fn new(
        id: JobId,
        request: JobRequest,
        submit_time: SimTime,
        queue_priority: i32,
    ) -> Self {
        Job {
            id,
            request,
            state: JobState::Queued,
            submit_time,
            start_time: None,
            end_time: None,
            queue_priority,
        }
    }

    /// Queue wait so far (or final, once started).
    pub fn queue_wait(&self, now: SimTime) -> SimDuration {
        match self.start_time {
            Some(s) => s.since(self.submit_time),
            None => now.saturating_since(self.submit_time),
        }
    }

    /// The time the resource manager will reclaim the allocation if the job
    /// is still running: start + walltime request.
    pub fn walltime_deadline(&self) -> Option<SimTime> {
        self.start_time.map(|s| s + self.request.walltime_request)
    }

    /// Duration the job will actually occupy cores once started.
    pub fn occupancy(&self) -> SimDuration {
        self.request.runtime.min(self.request.walltime_request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }
    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn legal_transitions() {
        use JobState::*;
        assert!(Queued.can_transition_to(Running));
        assert!(Queued.can_transition_to(Cancelled));
        assert!(Running.can_transition_to(Completed));
        assert!(Running.can_transition_to(Killed));
        assert!(Running.can_transition_to(Cancelled));
        assert!(!Queued.can_transition_to(Completed));
        assert!(!Completed.can_transition_to(Running));
        assert!(!Killed.can_transition_to(Queued));
    }

    #[test]
    fn terminal_states() {
        use JobState::*;
        assert!(!Queued.is_terminal());
        assert!(!Running.is_terminal());
        assert!(Completed.is_terminal());
        assert!(Killed.is_terminal());
        assert!(Cancelled.is_terminal());
    }

    #[test]
    fn queue_wait_accrues_then_freezes() {
        let mut j = Job::new(
            JobId(1),
            JobRequest::background(4, d(100.0), d(200.0)),
            t(10.0),
            0,
        );
        assert_eq!(j.queue_wait(t(15.0)), d(5.0));
        j.start_time = Some(t(30.0));
        assert_eq!(j.queue_wait(t(99.0)), d(20.0));
    }

    #[test]
    fn occupancy_clamped_by_walltime() {
        let j = Job::new(
            JobId(1),
            JobRequest::background(4, d(500.0), d(200.0)),
            t(0.0),
            0,
        );
        assert_eq!(j.occupancy(), d(200.0));
        assert_eq!(j.walltime_deadline(), None);
    }

    #[test]
    fn pilot_request_occupies_full_walltime() {
        let r = JobRequest::pilot(64, d(3600.0), "pilot.0");
        assert_eq!(r.runtime, d(3600.0));
        assert_eq!(r.walltime_request, d(3600.0));
        assert_eq!(r.owner, JobOwner::Pilot);
        assert_eq!(r.tag, "pilot.0");
    }
}
