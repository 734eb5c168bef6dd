//! Whole-cluster invariants under randomized operation sequences:
//! property tests that drive the simulator with arbitrary job mixes and
//! check conservation laws that must hold regardless of policy.

use aimes_cluster::{Cluster, ClusterConfig, JobRequest, JobState, SchedulingPolicy};
use aimes_sim::{SimDuration, SimTime, Simulation, Tracer};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct JobPlan {
    arrival: f64,
    cores: u32,
    runtime: f64,
    walltime: f64,
    cancel_at: Option<f64>,
}

/// A random job; one in ten requests a 0 s walltime, which starts and
/// ends at the same instant but still holds its cores at that instant.
fn job_plan(max_cores: u32) -> impl Strategy<Value = JobPlan> {
    (
        0.0f64..5_000.0,
        1u32..=max_cores,
        1.0f64..3_000.0,
        (0u32..10, 1.0f64..3_000.0),
        proptest::option::of(0.0f64..8_000.0),
    )
        .prop_map(
            |(arrival, cores, runtime, (zero, walltime), cancel_at)| JobPlan {
                arrival,
                cores,
                runtime,
                walltime: if zero == 0 { 0.0 } else { walltime },
                cancel_at,
            },
        )
}

fn run_plan(
    policy: SchedulingPolicy,
    total_cores: u32,
    plans: &[JobPlan],
) -> (Cluster, Simulation) {
    let mut cfg = ClusterConfig::test("prop", total_cores);
    cfg.policy = policy;
    let mut sim = Simulation::with_tracer(1, Tracer::disabled());
    let cluster = Cluster::new(cfg);
    for p in plans {
        let cluster2 = cluster.clone();
        let p = p.clone();
        sim.schedule_at(SimTime::from_secs(p.arrival), move |sim| {
            let id = cluster2.submit(
                sim,
                JobRequest::background(
                    p.cores,
                    SimDuration::from_secs(p.runtime),
                    SimDuration::from_secs(p.walltime),
                ),
            );
            if let Some(at) = p.cancel_at {
                let cluster3 = cluster2.clone();
                let when = SimTime::from_secs(at).max(sim.now());
                sim.schedule_at(when, move |sim| {
                    cluster3.cancel(sim, id);
                });
            }
        });
    }
    sim.run_to_completion();
    (cluster, sim)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every job terminates, all cores come back, and timing laws hold.
    #[test]
    fn all_jobs_terminate_and_cores_are_conserved(
        plans in proptest::collection::vec(job_plan(32), 1..40),
        use_fcfs in any::<bool>(),
    ) {
        let policy = if use_fcfs {
            SchedulingPolicy::Fcfs
        } else {
            SchedulingPolicy::EasyBackfill
        };
        let (cluster, sim) = run_plan(policy, 32, &plans);
        let m = cluster.metrics(sim.now());
        prop_assert_eq!(m.free_cores, 32, "all cores return at drain");
        prop_assert_eq!(m.queued_jobs, 0);
        prop_assert_eq!(m.running_jobs, 0);
        for i in 0..plans.len() {
            let job = cluster.job(aimes_cluster::JobId(i as u64)).expect("exists");
            prop_assert!(job.state.is_terminal(), "job {i} ended in {:?}", job.state);
            if let (Some(start), Some(end)) = (job.start_time, job.end_time) {
                prop_assert!(start >= job.submit_time);
                prop_assert!(end >= start);
                match job.state {
                    JobState::Completed | JobState::Killed => {
                        let expect = job.occupancy().as_secs();
                        prop_assert!((end.since(start).as_secs() - expect).abs() < 1e-6);
                    }
                    _ => {}
                }
            }
        }
    }

    /// Core usage never exceeds capacity at any instant: reconstruct the
    /// usage timeline from job records and sweep it.
    #[test]
    fn capacity_never_exceeded(
        plans in proptest::collection::vec(job_plan(16), 1..40),
    ) {
        let (cluster, _sim) = run_plan(SchedulingPolicy::EasyBackfill, 16, &plans);
        let mut events: Vec<(f64, i64)> = Vec::new();
        for i in 0..plans.len() {
            let job = cluster.job(aimes_cluster::JobId(i as u64)).expect("exists");
            if let (Some(start), Some(end)) = (job.start_time, job.end_time) {
                // Zero-length occupations (cancelled at the start instant)
                // contribute nothing to usage.
                if end > start {
                    events.push((start.as_secs(), i64::from(job.request.cores)));
                    events.push((end.as_secs(), -i64::from(job.request.cores)));
                }
            }
        }
        // Sort by time; process releases before acquisitions at ties so a
        // back-to-back handover is not a false violation.
        events.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap()
                .then_with(|| a.1.cmp(&b.1))
        });
        let mut used = 0i64;
        for (t, delta) in events {
            used += delta;
            prop_assert!(
                used <= 16,
                "capacity exceeded at t={t}: {used} cores in use"
            );
            prop_assert!(used >= 0);
        }
    }

    /// FCFS completes the jobs in an order consistent with no-overtaking:
    /// start times are non-decreasing in submission order.
    #[test]
    fn fcfs_never_overtakes(
        plans in proptest::collection::vec(job_plan(8), 2..30),
    ) {
        // No cancellations for this property (cancelled jobs leave gaps).
        let plans: Vec<JobPlan> = plans
            .into_iter()
            .map(|mut p| {
                p.cancel_at = None;
                p
            })
            .collect();
        let (cluster, _sim) = run_plan(SchedulingPolicy::Fcfs, 8, &plans);
        // Reconstruct submission order: sort by (arrival, plan index) —
        // job ids are assigned in event order which breaks arrival ties
        // by schedule order, matching plan order only per equal arrival.
        let mut jobs: Vec<_> = (0..plans.len())
            .map(|i| cluster.job(aimes_cluster::JobId(i as u64)).expect("exists"))
            .collect();
        jobs.sort_by(|a, b| {
            a.submit_time
                .cmp(&b.submit_time)
                .then_with(|| a.id.cmp(&b.id))
        });
        let starts: Vec<f64> = jobs
            .iter()
            .filter_map(|j| j.start_time.map(|s| s.as_secs()))
            .collect();
        for w in starts.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-9, "FCFS start order violated: {starts:?}");
        }
    }
}
