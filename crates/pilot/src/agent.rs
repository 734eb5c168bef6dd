//! Per-pilot agent state: core slots and the staging channel.
//!
//! The agent is the part of the pilot system that runs *inside* the
//! allocation once the pilot is active: it owns the pilot's core slots and
//! executes units on them. Wide-area staging is modelled as a serialized
//! channel — in the paper's deployment all task inputs leave the machine
//! where the AIMES middleware runs, so the origin's uplink is the shared
//! bottleneck and Ts grows with the number of tasks regardless of how many
//! pilots are active (exactly the Fig. 3 behaviour, where Ts "is
//! consistent across the four execution strategies").

use crate::pilot::PilotId;
use aimes_cluster::Cluster;
use aimes_sim::{SimDuration, SimTime};
use std::rc::Rc;

/// A serialized transfer channel: transfers queue behind one another.
#[derive(Clone, Debug)]
pub struct StagingChannel {
    /// Effective bandwidth in MB/s.
    pub bandwidth_mbps: f64,
    /// Fixed per-transfer latency (connection/protocol overhead).
    pub latency: SimDuration,
    busy_until: SimTime,
}

impl StagingChannel {
    /// A channel with the given bandwidth and per-transfer latency.
    pub fn new(bandwidth_mbps: f64, latency: SimDuration) -> Self {
        assert!(bandwidth_mbps > 0.0);
        StagingChannel {
            bandwidth_mbps,
            latency,
            busy_until: SimTime::ZERO,
        }
    }

    /// Enqueue a transfer of `megabytes` at `now`; returns `(start, end)`.
    /// The transfer starts when the channel frees up.
    pub fn enqueue(&mut self, now: SimTime, megabytes: f64) -> (SimTime, SimTime) {
        let start = now.max(self.busy_until);
        let duration = self.latency + SimDuration::from_secs(megabytes / self.bandwidth_mbps);
        let end = start + duration;
        self.busy_until = end;
        (start, end)
    }

    /// When the channel next becomes free.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }
}

/// Execution-side state of one active pilot.
#[derive(Clone, Debug)]
pub struct Agent {
    pub pilot: PilotId,
    pub resource: Rc<str>,
    /// Cluster handle, for resource-side transfer parameters.
    pub cluster: Cluster,
    pub total_cores: u32,
    pub free_cores: u32,
    /// The instant the resource reclaims the allocation.
    pub walltime_deadline: SimTime,
}

impl Agent {
    /// Create the agent for a pilot that became active at `activated`.
    pub fn new(
        pilot: PilotId,
        cluster: Cluster,
        cores: u32,
        activated: SimTime,
        walltime: SimDuration,
    ) -> Self {
        Agent {
            pilot,
            resource: cluster.name().into(),
            cluster,
            total_cores: cores,
            free_cores: cores,
            walltime_deadline: activated + walltime,
        }
    }

    /// Remaining walltime at `now` (zero once past the deadline).
    pub fn remaining_walltime(&self, now: SimTime) -> SimDuration {
        self.walltime_deadline.saturating_since(now)
    }

    /// Claim `cores` slots. Panics on oversubscription — the scheduler is
    /// responsible for never assigning beyond capacity.
    pub fn reserve(&mut self, cores: u32) {
        assert!(
            self.free_cores >= cores,
            "agent {} oversubscribed: {} free, {} requested",
            self.pilot,
            self.free_cores,
            cores
        );
        self.free_cores -= cores;
    }

    /// Return `cores` slots.
    pub fn release(&mut self, cores: u32) {
        self.free_cores += cores;
        assert!(
            self.free_cores <= self.total_cores,
            "agent {} released more cores than it owns",
            self.pilot
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimes_cluster::ClusterConfig;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }
    fn d(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn channel_serializes_transfers() {
        let mut ch = StagingChannel::new(10.0, d(1.0));
        // 10 MB at 10 MB/s + 1 s latency = 2 s each.
        let (s1, e1) = ch.enqueue(t(0.0), 10.0);
        let (s2, e2) = ch.enqueue(t(0.0), 10.0);
        assert_eq!((s1, e1), (t(0.0), t(2.0)));
        assert_eq!((s2, e2), (t(2.0), t(4.0)));
        // A transfer arriving after the channel drained starts immediately.
        let (s3, _) = ch.enqueue(t(100.0), 1.0);
        assert_eq!(s3, t(100.0));
    }

    #[test]
    fn channel_busy_until_tracks() {
        let mut ch = StagingChannel::new(5.0, d(0.0));
        assert_eq!(ch.busy_until(), t(0.0));
        ch.enqueue(t(10.0), 50.0);
        assert_eq!(ch.busy_until(), t(20.0));
    }

    #[test]
    fn agent_core_accounting() {
        let c = Cluster::new(ClusterConfig::test("r", 64));
        let mut a = Agent::new(PilotId(0), c, 8, t(100.0), d(3600.0));
        assert_eq!(a.free_cores, 8);
        a.reserve(5);
        a.reserve(3);
        assert_eq!(a.free_cores, 0);
        a.release(8);
        assert_eq!(a.free_cores, 8);
    }

    #[test]
    #[should_panic(expected = "oversubscribed")]
    fn agent_rejects_oversubscription() {
        let c = Cluster::new(ClusterConfig::test("r", 64));
        let mut a = Agent::new(PilotId(0), c, 4, t(0.0), d(100.0));
        a.reserve(5);
    }

    #[test]
    #[should_panic(expected = "more cores than it owns")]
    fn agent_rejects_over_release() {
        let c = Cluster::new(ClusterConfig::test("r", 64));
        let mut a = Agent::new(PilotId(0), c, 4, t(0.0), d(100.0));
        a.release(1);
    }

    #[test]
    fn remaining_walltime_clamps() {
        let c = Cluster::new(ClusterConfig::test("r", 64));
        let a = Agent::new(PilotId(0), c, 4, t(100.0), d(50.0));
        assert_eq!(a.remaining_walltime(t(100.0)), d(50.0));
        assert_eq!(a.remaining_walltime(t(140.0)), d(10.0));
        assert_eq!(a.remaining_walltime(t(1000.0)), SimDuration::ZERO);
    }
}
