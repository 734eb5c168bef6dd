//! The four campaign workloads. Each is a fixed list of middleware runs
//! derived from `--seed` alone; a pass executes the whole list once.

use aimes_repro::bundle::InfoConfig;
use aimes_repro::cluster::ClusterConfig;
use aimes_repro::fault::{
    EvacuationSpec, FaultSpec, InfoFaultSpec, OutageKind, OutageSpec, RecoveryPolicy,
};
use aimes_repro::middleware::{paper, RunOptions};
use aimes_repro::sim::{Profiler, SimDuration, SimTime};
use aimes_repro::skeleton::{paper_bag, paper_task_counts, SkeletonConfig, TaskDurationSpec};
use aimes_repro::strategy::ExecutionStrategy;
use aimes_repro::workload::{Distribution, WorkloadConfig};

/// Workload names, in the order a full invocation runs them.
pub const NAMES: [&str; 4] = ["paper_mix", "saturated_pool", "large_bag", "chaos_recovery"];

/// One middleware run: the inputs `run_application` receives.
pub struct Job {
    pub seed: u64,
    pub submit_at: SimTime,
    pub app: SkeletonConfig,
    pub strategy: ExecutionStrategy,
}

/// A named list of runs over one resource pool, with the fault, recovery
/// and information settings every run of the workload shares.
pub struct Workload {
    pub name: &'static str,
    pub resources: Vec<ClusterConfig>,
    pub faults: Option<FaultSpec>,
    pub recovery: Option<RecoveryPolicy>,
    pub info: InfoConfig,
    pub jobs: Vec<Job>,
    /// Host seconds one full-size pass took at two workers on the host
    /// `baseline.json` describes. Turns `--seconds` into a pass count that
    /// is the same for every commit, so both sides of a comparison do the
    /// same work.
    pub nominal_pass_secs: f64,
}

impl Workload {
    /// Build the named workload's run list from `seed`. `quick` keeps
    /// every fourth run. `None` for an unknown name.
    pub fn build(name: &str, seed: u64, quick: bool) -> Option<Workload> {
        let mut w = match name {
            "paper_mix" => paper_mix(seed),
            "saturated_pool" => saturated_pool(seed),
            "large_bag" => large_bag(seed),
            "chaos_recovery" => chaos_recovery(seed),
            _ => return None,
        };
        if quick {
            w.jobs = w.jobs.into_iter().step_by(4).collect();
        }
        Some(w)
    }

    /// The options one run receives; `profiler` is set only in the
    /// traced pass.
    pub fn options(&self, job: &Job, profiler: Option<Profiler>) -> RunOptions {
        RunOptions {
            seed: job.seed,
            submit_at: job.submit_at,
            faults: self.faults.clone(),
            recovery: self.recovery.clone(),
            info: self.info.clone(),
            profiler,
            ..Default::default()
        }
    }
}

/// splitmix64 finaliser: a bijective mix of one 64-bit word.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a over `bytes`, continuing from `hash`.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A uniform draw in `[0, 1)` from one 64-bit word.
fn unit_interval(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Jobs for every `(strategy, durations, size)` triple × `reps`, in that
/// order, submitted inside `window_hours`.
///
/// Each job's seed mixes the benchmark seed, the workload name and the
/// job index. Submissions are stratified: the window is cut into one slot
/// per job, a seed-derived shuffle deals the slots out, and each job lands
/// at a seed-derived point inside its slot. Submissions stay irregular,
/// as in the paper, while the simulated time a pass replays — and so its
/// cost — barely moves from one seed to the next.
fn jobs(
    seed: u64,
    workload: &str,
    shapes: &[(ExecutionStrategy, TaskDurationSpec)],
    sizes: &[u32],
    reps: usize,
    window_hours: (f64, f64),
) -> Vec<Job> {
    let mut out = Vec::new();
    for (strategy, durations) in shapes {
        for &n in sizes {
            for _ in 0..reps {
                out.push(Job {
                    seed: 0,
                    submit_at: SimTime::ZERO,
                    app: paper_bag(n, *durations),
                    strategy: strategy.clone(),
                });
            }
        }
    }
    let base = seed ^ fnv1a(FNV_OFFSET, workload.as_bytes());
    let mut slots: Vec<usize> = (0..out.len()).collect();
    let mut state = splitmix64(base);
    for i in (1..slots.len()).rev() {
        state = splitmix64(state);
        slots.swap(i, (state % (i as u64 + 1)) as usize);
    }
    let (lo, hi) = window_hours;
    let n = out.len() as f64;
    for (i, (job, slot)) in out.iter_mut().zip(slots).enumerate() {
        job.seed = splitmix64(base ^ splitmix64(i as u64));
        let at = (slot as f64 + unit_interval(splitmix64(job.seed))) / n;
        job.submit_at = SimTime::from_secs((lo + at * (hi - lo)) * 3600.0);
    }
    out
}

/// Table I experiments 1–4 × the nine paper sizes × 3 repetitions on the
/// paper testbed: the campaign users actually run.
fn paper_mix(seed: u64) -> Workload {
    let shapes = [
        (paper::early_strategy(), TaskDurationSpec::Uniform15Min),
        (paper::early_strategy(), TaskDurationSpec::Gaussian),
        (paper::late_strategy(3), TaskDurationSpec::Uniform15Min),
        (paper::late_strategy(3), TaskDurationSpec::Gaussian),
    ];
    Workload {
        name: "paper_mix",
        resources: paper::testbed(),
        faults: None,
        recovery: None,
        info: InfoConfig::default(),
        jobs: jobs(
            seed,
            "paper_mix",
            &shapes,
            &paper_task_counts(),
            3,
            (4.0, 16.0),
        ),
        nominal_pass_secs: 2.7,
    }
}

/// Three oversubscribed 2048-core machines with deep queues of small,
/// short background jobs: the batch scheduler dominates.
fn saturated_pool(seed: u64) -> Workload {
    let resources = ["sat-a", "sat-b", "sat-c"]
        .iter()
        .map(|name| {
            let mut cfg = ClusterConfig::test(name, 2048);
            let mut load = WorkloadConfig::production_like();
            load.target_utilization = 1.0;
            load.size_dist = Distribution::PowerOfTwo {
                lo_exp: 0,
                hi_exp: 5,
            };
            // Median e^6.4 ≈ 600 s.
            load.runtime_dist = Distribution::LogNormal {
                mu: 6.4,
                sigma: 1.0,
            };
            cfg.workload = Some(load);
            cfg.initial_backlog_factor = 2.0;
            cfg
        })
        .collect();
    let shapes = [(paper::late_strategy(3), TaskDurationSpec::Gaussian)];
    Workload {
        name: "saturated_pool",
        resources,
        faults: None,
        recovery: None,
        info: InfoConfig::default(),
        jobs: jobs(seed, "saturated_pool", &shapes, &[256, 1024], 8, (2.0, 6.0)),
        nominal_pass_secs: 1.9,
    }
}

/// A 16,384-task bag on three idle 8192-core machines: no queueing, so
/// the unit manager and run assembly dominate.
fn large_bag(seed: u64) -> Workload {
    let resources = ["big-a", "big-b", "big-c"]
        .iter()
        .map(|name| ClusterConfig::test(name, 8192))
        .collect();
    let shapes = [(paper::late_strategy(3), TaskDurationSpec::Gaussian)];
    Workload {
        name: "large_bag",
        resources,
        faults: None,
        recovery: None,
        info: InfoConfig::default(),
        jobs: jobs(seed, "large_bag", &shapes, &[16_384], 8, (0.1, 1.0)),
        nominal_pass_secs: 1.45,
    }
}

/// The paper testbed under kill outages, launch failures and a degraded
/// information channel, with detection, evacuation, checkpoints and a
/// streaming information cache switched on.
///
/// One 15-minute kill outage hits each of two machines, 30 and 90 minutes
/// after submission, while most runs have pilots active. A unit can then
/// be killed at most twice, so it never exhausts its three attempts and
/// every run completes: the workload measures recovery, not failure. For
/// the same reason it injects no unit faults, which fail units outright.
fn chaos_recovery(seed: u64) -> Workload {
    let resources = paper::testbed();
    let outages = resources
        .iter()
        .take(2)
        .enumerate()
        .map(|(r, cfg)| OutageSpec {
            resource: cfg.name.clone(),
            at_secs: (30.0 + 60.0 * r as f64) * 60.0,
            duration_secs: 15.0 * 60.0,
            kind: OutageKind::Outage,
        })
        .collect();
    let faults = FaultSpec {
        outages,
        launch_transient_chance: 0.10,
        info: InfoFaultSpec {
            corrupt_chance: 0.10,
            unavailable_chance: 0.10,
            ..InfoFaultSpec::none()
        },
        ..FaultSpec::none()
    };
    let recovery = RecoveryPolicy {
        evacuation: Some(EvacuationSpec::default()),
        checkpoint_interval: SimDuration::from_secs(300.0),
        ..RecoveryPolicy::with_detection()
    };
    let shapes = [(paper::late_strategy(3), TaskDurationSpec::Gaussian)];
    Workload {
        name: "chaos_recovery",
        resources,
        faults: Some(faults),
        recovery: Some(recovery),
        info: InfoConfig {
            base_refresh_secs: 300.0,
            ..InfoConfig::default()
        },
        jobs: jobs(
            seed,
            "chaos_recovery",
            &shapes,
            &[256, 1024],
            50,
            (4.0, 16.0),
        ),
        nominal_pass_secs: 2.5,
    }
}
