//! A finished run frees what it built. The components of one run refer
//! to each other through the callbacks they store, so the run's owner
//! must clear those tables on every exit — success, a typed error and
//! an adaptive run alike — or each run leaks its whole component graph.
//! Measured here under the counting allocator: live heap bytes after
//! many runs must stay where they were after the warm-up.

#[global_allocator]
static ALLOC: aimes_bench::alloc::CountingAlloc = aimes_bench::alloc::CountingAlloc;

use aimes_bench::alloc::snapshot;
use aimes_repro::cluster::ClusterConfig;
use aimes_repro::fault::{
    CascadeSpec, DomainSpec, EvacuationSpec, FaultSpec, InfoFaultSpec, OutageKind, OutageSpec,
    RecoveryPolicy,
};
use aimes_repro::middleware::{
    paper, run_adaptive, run_application, AdaptiveConfig, RunError, RunOptions,
};
use aimes_repro::sim::{SimDuration, SimTime};
use aimes_repro::skeleton::{paper_bag, TaskDurationSpec};
use aimes_repro::strategy::{ExecutionStrategy, PilotSizing, ResourceSelection};
use aimes_repro::workload::{Distribution, WorkloadConfig};

/// Total live-heap growth allowed over all measured runs.
const BUDGET_BYTES: i64 = 64 * 1024;

fn opts(seed: u64) -> RunOptions {
    RunOptions {
        seed,
        submit_at: SimTime::from_secs(600.0),
        ..Default::default()
    }
}

fn pinned(resources: &[&str], pilots: u32) -> ExecutionStrategy {
    let mut s = ExecutionStrategy::paper_late(pilots);
    s.selection = ResourceSelection::Fixed(resources.iter().map(|r| r.to_string()).collect());
    s
}

/// Late binding on the paper testbed under background load; pilots are
/// still being cancelled when the last unit finishes, so live SAGA
/// callbacks and cluster watchers remain at the end.
fn plain(seed: u64) {
    let r = run_application(
        &paper::testbed(),
        &paper_bag(32, TaskDurationSpec::Uniform15Min),
        &paper::late_strategy(3),
        &RunOptions {
            seed,
            submit_at: SimTime::from_secs(4.0 * 3600.0),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(r.units_done, 32);
}

/// Every observer list armed: detection with breakers, evacuation over a
/// cascade, checkpointing, launch faults, degraded information.
fn chaos(seed: u64) {
    let pool: Vec<ClusterConfig> = ["ca", "cb", "cc", "cd", "ce", "cf"]
        .iter()
        .map(|n| ClusterConfig::test(n, 4096))
        .collect();
    let domain = |name: &str, members: [&str; 3]| DomainSpec {
        name: name.into(),
        members: members.iter().map(|m| m.to_string()).collect(),
    };
    let faults = FaultSpec {
        cascade: Some(CascadeSpec {
            domains: vec![
                domain("zone-a", ["ca", "cb", "cc"]),
                domain("zone-b", ["cd", "ce", "cf"]),
            ],
            trigger: OutageSpec {
                resource: "ca".into(),
                at_secs: 300.0,
                duration_secs: 0.0,
                kind: OutageKind::Permanent,
            },
            propagation_chance: 1.0,
            propagation_delay_secs: (120.0, 900.0),
        }),
        launch_transient_chance: 0.2,
        unit_failure_chance: 0.05,
        info: InfoFaultSpec {
            unavailable_chance: 0.3,
            ..InfoFaultSpec::none()
        },
        ..FaultSpec::none()
    };
    let mut recovery = RecoveryPolicy::with_detection();
    recovery.evacuation = Some(EvacuationSpec::default());
    recovery.checkpoint_interval = SimDuration::from_secs(120.0);
    let _ = run_application(
        &pool,
        &paper_bag(16, TaskDurationSpec::Uniform15Min),
        &pinned(&["ca", "cb", "cc"], 3),
        &RunOptions {
            faults: Some(faults),
            recovery: Some(recovery),
            ..opts(seed)
        },
    );
}

/// A permanent outage with no recovery: the run ends in a typed error.
fn failing(seed: u64) {
    let pool = vec![
        ClusterConfig::test("one", 256),
        ClusterConfig::test("two", 256),
    ];
    let faults = FaultSpec {
        outages: vec![OutageSpec {
            resource: "one".into(),
            at_secs: 300.0,
            duration_secs: 600.0,
            kind: OutageKind::Permanent,
        }],
        ..FaultSpec::none()
    };
    let err = run_application(
        &pool,
        &paper_bag(16, TaskDurationSpec::Uniform15Min),
        &pinned(&["one"], 1),
        &RunOptions {
            faults: Some(faults),
            ..opts(seed)
        },
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            RunError::ResourceLost { .. } | RunError::PilotsDrained { .. }
        ),
        "{err}"
    );
}

/// The patience check reinforces a pilot stuck behind a saturated queue.
fn adaptive(seed: u64) {
    let mut blocked = ClusterConfig::test("blocked", 256);
    blocked.workload = Some(WorkloadConfig {
        target_utilization: 1.2,
        size_dist: Distribution::Constant { value: 256.0 },
        runtime_dist: Distribution::Constant { value: 1e6 },
        overestimate_dist: Distribution::Constant { value: 1.0 },
        diurnal_amplitude: 0.0,
    });
    blocked.initial_backlog_factor = 3.0;
    let mut base = pinned(&["blocked"], 1);
    base.sizing = PilotSizing::Fixed(16);
    let config = AdaptiveConfig {
        base,
        patience: SimDuration::from_mins(10.0),
        reinforce_by: 1,
        max_rounds: 2,
    };
    let r = run_adaptive(
        &[blocked, ClusterConfig::test("open", 256)],
        &paper_bag(16, TaskDurationSpec::Uniform15Min),
        &config,
        &opts(seed),
    )
    .unwrap();
    assert_eq!(r.units_done, 16);
}

#[test]
fn finished_runs_leave_no_live_heap_behind() {
    let kinds: [fn(u64); 4] = [plain, chaos, failing, adaptive];
    // Warm-up: one run pays for any lazily built process state.
    plain(1);
    let before = snapshot().live_bytes;
    for seed in 2..7 {
        for run in kinds {
            run(seed);
        }
    }
    let grown = snapshot().live_bytes - before;
    assert!(
        grown < BUDGET_BYTES,
        "20 runs kept {grown} live heap bytes (budget {BUDGET_BYTES})"
    );
}
