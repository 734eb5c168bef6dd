//! Worker-count invariance: the vendored rayon shim is a real scoped-
//! thread pool, and nothing observable may depend on how many workers it
//! runs. Each simulation owns its seed and its whole `Rc` world, results
//! come back in input order, and aggregation is sequential — so the same
//! campaign at 1 worker and at 4 workers must produce byte-identical
//! journals and byte-identical `ExperimentResult` JSON. These tests pin
//! that, plus the fact that >1 worker genuinely means >1 OS thread.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Mutex;

use aimes_repro::cluster::ClusterConfig;
use aimes_repro::fault::{FaultSpec, OutageKind, OutageSpec, RecoveryPolicy};
use aimes_repro::middleware::experiment::{
    run_campaign, run_experiment, CampaignHooks, CampaignJob, ExperimentConfig,
};
use aimes_repro::middleware::paper;
use aimes_repro::middleware::{run_application, RunError, RunJournal, RunOptions};
use aimes_repro::sim::SimTime;
use aimes_repro::skeleton::{paper_bag, TaskDurationSpec};
use rayon::prelude::*;

/// Serializes tests that reconfigure the global worker count.
static POOL_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` with the pool pinned to `n` workers, then reset to auto.
fn with_workers<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .expect("configure pool");
    let out = f();
    rayon::ThreadPoolBuilder::new()
        .num_threads(0)
        .build_global()
        .expect("reset pool");
    out
}

/// FNV-1a 64 over the journal's JSONL serialization (same helper as the
/// golden-journal suite): sensitive to any byte-level change.
fn digest(journal: &RunJournal) -> String {
    format!(
        "{:016x}",
        aimes_repro::middleware::recorder::fnv1a64(journal.to_jsonl().as_bytes())
    )
}

fn small_experiment() -> ExperimentConfig {
    ExperimentConfig {
        id: "pool-invariance".into(),
        description: "worker-count invariance probe".into(),
        strategy: aimes_repro::strategy::ExecutionStrategy::paper_late(2),
        duration_spec: TaskDurationSpec::Gaussian,
        task_counts: vec![8, 16],
        repetitions: 4,
        base_seed: 4242,
        resources: ["one", "two", "three"]
            .iter()
            .map(|n| ClusterConfig::test(n, 512))
            .collect(),
        submit_window_hours: (0.1, 0.5),
    }
}

/// One journaling chaos run per seed — the kind of per-seed loop the
/// ablation sweeps fan out — returning the journal's digest.
fn chaos_digest(seed: u64) -> String {
    let app = paper_bag(16, TaskDurationSpec::Uniform15Min);
    let pool = vec![
        ClusterConfig::test("one", 256),
        ClusterConfig::test("two", 256),
    ];
    let journal = Rc::new(RefCell::new(RunJournal::new()));
    run_application(
        &pool,
        &app,
        &paper::late_strategy(2),
        &RunOptions {
            seed,
            submit_at: SimTime::from_secs(600.0),
            faults: Some(FaultSpec {
                outages: vec![OutageSpec {
                    resource: "one".into(),
                    at_secs: 300.0,
                    duration_secs: 600.0,
                    kind: OutageKind::Permanent,
                }],
                ..FaultSpec::none()
            }),
            recovery: Some(RecoveryPolicy::with_detection()),
            journal: Some(journal.clone()),
            ..Default::default()
        },
    )
    .expect("chaos run recovers");
    let d = digest(&journal.borrow());
    d
}

#[test]
fn pool_runs_on_multiple_threads_in_input_order() {
    // Each item sleeps so the OS interleaves workers even on a one-core
    // host; >1 distinct ThreadId proves the pool is not sequential.
    let items: Vec<u32> = (0..16).collect();
    let out: Vec<(u32, std::thread::ThreadId)> = with_workers(4, || {
        items
            .par_iter()
            .map(|&i| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                (i * 3, std::thread::current().id())
            })
            .collect()
    });
    let values: Vec<u32> = out.iter().map(|(v, _)| *v).collect();
    assert_eq!(values, (0..16).map(|i| i * 3).collect::<Vec<_>>());
    let distinct: std::collections::HashSet<_> = out.iter().map(|(_, id)| *id).collect();
    assert!(distinct.len() >= 2, "expected >1 worker thread");
}

#[test]
fn experiment_result_json_is_identical_across_worker_counts() {
    let cfg = small_experiment();
    let json_1 = with_workers(1, || {
        serde_json::to_string(&run_experiment(&cfg)).expect("serialize")
    });
    let json_4 = with_workers(4, || {
        serde_json::to_string(&run_experiment(&cfg)).expect("serialize")
    });
    assert_eq!(json_1, json_4, "worker count leaked into results");
}

#[test]
fn pool_stats_account_every_item_and_all_wall_time() {
    let items: Vec<u32> = (0..24).collect();
    let stats = with_workers(3, || {
        rayon::reset_pool_stats();
        let _: Vec<u32> = items
            .par_iter()
            .map(|&i| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                i
            })
            .collect();
        rayon::pool_stats()
    });
    assert_eq!(stats.invocations, 1);
    assert_eq!(stats.workers.len(), 3);
    // Every input item is claimed by exactly one worker.
    assert_eq!(stats.items(), items.len() as u64);
    // Per-worker busy + idle spans the pool invocation's wall time: a
    // worker is either running an item or waiting for the merge. The
    // bound is loose (scheduling noise) but two-sided.
    for (w, ws) in stats.workers.iter().enumerate() {
        let span = ws.busy_secs + ws.idle_secs;
        assert!(
            span <= stats.wall_secs + 1e-3,
            "worker {w}: busy {} + idle {} exceeds wall {}",
            ws.busy_secs,
            ws.idle_secs,
            stats.wall_secs
        );
        assert!(
            span >= 0.5 * stats.wall_secs,
            "worker {w}: busy {} + idle {} covers too little of wall {}",
            ws.busy_secs,
            ws.idle_secs,
            stats.wall_secs
        );
        let frac = ws.busy_fraction();
        assert!((0.0..=1.0).contains(&frac), "busy fraction {frac}");
    }
    assert!(stats.utilization() > 0.0 && stats.utilization() <= 1.0);
}

#[test]
fn pool_stats_are_well_formed_at_one_worker() {
    let items: Vec<u32> = (0..8).collect();
    let stats = with_workers(1, || {
        rayon::reset_pool_stats();
        let _: Vec<u32> = items.par_iter().map(|&i| i + 1).collect();
        rayon::pool_stats()
    });
    assert_eq!(stats.invocations, 1);
    // The sequential fast path books the whole batch on worker 0 with no
    // idle time and no wasted cursor fetches.
    assert_eq!(stats.workers.len(), 1);
    assert_eq!(stats.workers[0].items, items.len() as u64);
    assert_eq!(stats.workers[0].idle_secs, 0.0);
    assert_eq!(stats.cursor_overshoots, 0);
    assert_eq!(stats.items(), items.len() as u64);
}

#[test]
fn pool_stats_accumulate_across_invocations_until_reset() {
    let stats = with_workers(2, || {
        rayon::reset_pool_stats();
        for _ in 0..3 {
            let _: Vec<u32> = (0..10u32)
                .collect::<Vec<_>>()
                .par_iter()
                .map(|&i| i)
                .collect();
        }
        rayon::pool_stats()
    });
    assert_eq!(stats.invocations, 3);
    assert_eq!(stats.items(), 30);
    rayon::reset_pool_stats();
    let fresh = rayon::pool_stats();
    assert_eq!(fresh.invocations, 0);
    assert_eq!(fresh.items(), 0);
    assert!(fresh.workers.is_empty());
}

#[test]
fn journal_digests_are_identical_across_worker_counts() {
    let seeds: Vec<u64> = vec![11, 42, 20160523, 777];
    let sequential: Vec<String> = seeds.iter().map(|&s| chaos_digest(s)).collect();
    let pooled_1: Vec<String> =
        with_workers(1, || seeds.par_iter().map(|&s| chaos_digest(s)).collect());
    let pooled_4: Vec<String> =
        with_workers(4, || seeds.par_iter().map(|&s| chaos_digest(s)).collect());
    assert_eq!(sequential, pooled_1);
    assert_eq!(sequential, pooled_4, "worker count leaked into journals");
}

#[test]
fn a_panicking_job_fails_alone_at_any_worker_count() {
    let resources: Vec<ClusterConfig> = ["one", "two"]
        .iter()
        .map(|n| ClusterConfig::test(n, 256))
        .collect();
    let strategy = paper::late_strategy(2);
    let apps: Vec<_> = [8, 16]
        .iter()
        .map(|&n| paper_bag(n, TaskDurationSpec::Uniform15Min))
        .collect();
    let campaign = || {
        run_campaign(
            CampaignHooks::default(),
            "panic-isolation",
            &apps,
            3,
            |app, rep| {
                let n = app.total_tasks();
                assert!(!(n == 16 && rep == 1), "injected build panic at {n} tasks");
                CampaignJob {
                    arm: format!("bag-{n}"),
                    resources: &resources,
                    app,
                    strategy: &strategy,
                    options: RunOptions {
                        seed: 100 + rep as u64,
                        submit_at: SimTime::from_secs(600.0),
                        ..Default::default()
                    },
                }
            },
            |r, _| r.breakdown.ttc.as_secs(),
        )
        .into_iter()
        .flatten()
        .map(|o| (o.arm, o.rep, o.seed, o.result))
        .collect::<Vec<_>>()
    };
    let one = with_workers(1, campaign);
    let four = with_workers(4, campaign);
    assert_eq!(one, four, "worker count leaked into outcomes");
    assert_eq!(one.len(), 6);
    for (arm, rep, seed, result) in &one {
        if arm.is_empty() {
            assert_eq!((*rep, *seed), (1, 0));
            let err = result.as_ref().unwrap_err();
            assert_eq!(err.kind(), "panicked");
            assert_eq!(
                err,
                &RunError::Panicked {
                    message: "injected build panic at 16 tasks".into()
                }
            );
        } else {
            assert!(result.is_ok(), "{arm} rep {rep}: {result:?}");
        }
    }
    assert_eq!(one.iter().filter(|o| o.3.is_err()).count(), 1);
}
