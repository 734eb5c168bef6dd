//! Benchmarks of the batch-scheduling substrate: EASY backfill passes,
//! availability-profile queries, and a full simulated cluster-day.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use aimes_cluster::policy::{select_starts, QueuedJobView};
use aimes_cluster::{AvailabilityProfile, Cluster, ClusterConfig, JobId, SchedulingPolicy};
use aimes_sim::{SimDuration, SimRng, SimTime, Simulation, Tracer};
use aimes_workload::WorkloadConfig;

/// `n_running` releases as `(deadline, cores)`, soonest first (the order
/// the cluster's release index yields them), and `n_queued` queued jobs.
fn mk_state(
    rng: &mut SimRng,
    n_running: usize,
    n_queued: usize,
) -> (Vec<(SimTime, u32)>, Vec<QueuedJobView>) {
    let mut releases: Vec<(SimTime, u32)> = (0..n_running)
        .map(|_| {
            let cores = rng.below(64) as u32 + 1;
            (SimTime::from_secs(rng.uniform(10.0, 1e5)), cores)
        })
        .collect();
    releases.sort_by_key(|&(deadline, _)| deadline);
    let queued = (0..n_queued)
        .map(|i| QueuedJobView {
            id: JobId(i as u64),
            cores: rng.below(64) as u32 + 1,
            walltime: SimDuration::from_secs(rng.uniform(60.0, 4.0 * 3600.0)),
        })
        .collect();
    (releases, queued)
}

fn bench_backfill_pass(c: &mut Criterion) {
    let mut group = c.benchmark_group("backfill_pass");
    for depth in [32usize, 256, 1024] {
        let mut rng = SimRng::new(11);
        let (releases, queued) = mk_state(&mut rng, 128, depth);
        group.bench_with_input(BenchmarkId::new("queue_depth", depth), &depth, |b, _| {
            b.iter(|| {
                black_box(select_starts(
                    SchedulingPolicy::EasyBackfill,
                    SimTime::from_secs(5.0),
                    black_box(100),
                    releases.iter().copied(),
                    &queued,
                ))
            })
        });
    }
    group.finish();
}

fn bench_profile_earliest_fit(c: &mut Criterion) {
    let mut rng = SimRng::new(5);
    let releases: Vec<(SimTime, u32)> = (0..512)
        .map(|_| {
            (
                SimTime::from_secs(rng.uniform(1.0, 1e5)),
                rng.below(32) as u32 + 1,
            )
        })
        .collect();
    let profile = AvailabilityProfile::new(SimTime::ZERO, 64, &releases);
    c.bench_function("profile/earliest_fit_512_breakpoints", |b| {
        b.iter(|| {
            black_box(profile.earliest_fit(
                black_box(1024),
                SimDuration::from_secs(3600.0),
                SimTime::ZERO,
            ))
        })
    });
}

fn bench_cluster_day(c: &mut Criterion) {
    // One simulated day of a 4096-core production machine with
    // background load: the workhorse unit of every experiment run.
    c.bench_function("cluster/simulated_day_4096_cores", |b| {
        b.iter(|| {
            let mut cfg = ClusterConfig::test("bench", 4096);
            cfg.workload = Some(WorkloadConfig::production_like());
            cfg.initial_backlog_factor = 0.5;
            let mut sim = Simulation::with_tracer(9, Tracer::disabled());
            let cluster = Cluster::new(cfg);
            cluster.install(&mut sim);
            sim.run_until(SimTime::from_secs(86_400.0));
            black_box(cluster.metrics(sim.now()).utilization)
        })
    });
}

criterion_group!(
    benches,
    bench_backfill_pass,
    bench_profile_earliest_fit,
    bench_cluster_day
);
criterion_main!(benches);
