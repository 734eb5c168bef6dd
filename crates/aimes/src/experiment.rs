//! The experiment runner: the "virtual laboratory" mode of the middleware.
//!
//! §IV-A methodology, reproduced: each experiment combines one execution
//! strategy with one skeleton class across the nine application sizes;
//! every application runs many times; submission instants are drawn from a
//! window "to avoid effects of short-term resource load patterns"; each
//! repetition gets its own seed so it faces an independent realization of
//! the background load.
//!
//! Repetitions are independent simulations, so they fan out across host
//! cores on the vendored rayon worker pool (each simulation itself stays
//! single-threaded and deterministic). Worker count comes from
//! `rayon::ThreadPoolBuilder` (the bench binaries' `--jobs` flag) or the
//! `AIMES_JOBS` env var, defaulting to `available_parallelism`; results
//! are collected in input order and every run derives its own seed via
//! [`per_run_seed`], so output is byte-identical at any worker count.

use crate::campaign::{CampaignSender, Progress};
use crate::middleware::{run_application, RunError, RunOptions, RunResult};
use crate::profile::ProfileAccumulator;
use crate::stats::Summary;
use aimes_cluster::ClusterConfig;
use aimes_sim::{Profiler, SimRng, SimTime};
use aimes_skeleton::{paper_bag, SkeletonConfig, TaskDurationSpec};
use aimes_strategy::ExecutionStrategy;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One experiment: a strategy × a skeleton family × sizes × repetitions.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Short id, e.g. `exp3`.
    pub id: String,
    /// Human-readable description for reports.
    pub description: String,
    pub strategy: ExecutionStrategy,
    pub duration_spec: TaskDurationSpec,
    pub task_counts: Vec<u32>,
    pub repetitions: usize,
    pub base_seed: u64,
    pub resources: Vec<ClusterConfig>,
    /// Submission window in hours after simulation start.
    pub submit_window_hours: (f64, f64),
}

impl ExperimentConfig {
    /// The skeleton for one application size.
    pub fn skeleton(&self, n_tasks: u32) -> SkeletonConfig {
        paper_bag(n_tasks, self.duration_spec)
    }

    /// The seed for one (size, repetition) run. See [`per_run_seed`].
    pub fn run_seed(&self, n_tasks: u32, rep: usize) -> u64 {
        per_run_seed(self.base_seed, &self.id, n_tasks, rep)
    }

    /// Submission instant inside the window, drawn from the run's seed.
    pub fn submit_instant(&self, run_seed: u64) -> SimTime {
        let mut rng = SimRng::new(run_seed).fork("submit-offset");
        let (lo, hi) = self.submit_window_hours;
        SimTime::from_secs(rng.uniform(lo * 3600.0, hi * 3600.0))
    }

    /// One campaign arm per application size, in `task_counts` order.
    pub fn arms(&self) -> Vec<(u32, SkeletonConfig)> {
        self.task_counts
            .iter()
            .map(|&n| (n, self.skeleton(n)))
            .collect()
    }

    /// One (size, repetition) run as a campaign job, arm `{id}/{n_tasks}`:
    /// its seed is [`run_seed`](Self::run_seed) and its submission
    /// instant [`submit_instant`](Self::submit_instant).
    pub fn job<'a>(&'a self, n_tasks: u32, app: &'a SkeletonConfig, rep: usize) -> CampaignJob<'a> {
        let seed = self.run_seed(n_tasks, rep);
        CampaignJob {
            arm: format!("{}/{n_tasks}", self.id),
            resources: &self.resources,
            app,
            strategy: &self.strategy,
            options: RunOptions {
                seed,
                submit_at: self.submit_instant(seed),
                ..Default::default()
            },
        }
    }

    /// Fold the campaign outcomes of [`arms`](Self::arms), one `Vec` per
    /// size in order, into the experiment's result: completed runs and
    /// their component summaries, failures as messages.
    pub fn result(
        &self,
        outcomes: impl IntoIterator<Item = Vec<JobOutcome<RunResult>>>,
    ) -> ExperimentResult {
        let points = self
            .task_counts
            .iter()
            .zip(outcomes)
            .map(|(n, outcomes)| {
                let mut runs = Vec::with_capacity(outcomes.len());
                let mut errors = Vec::new();
                for out in outcomes {
                    match out.result {
                        Ok(r) => runs.push(r),
                        Err(e) => errors.push(e.to_string()),
                    }
                }
                let summarize = |f: &dyn Fn(&RunResult) -> f64| {
                    Summary::of(&runs.iter().map(f).collect::<Vec<_>>()).unwrap_or(EMPTY_SUMMARY)
                };
                ExperimentPoint {
                    n_tasks: *n,
                    ttc: summarize(&|r| r.breakdown.ttc.as_secs()),
                    tw: summarize(&|r| r.breakdown.tw.as_secs()),
                    tx: summarize(&|r| r.breakdown.tx.as_secs()),
                    ts: summarize(&|r| r.breakdown.ts.as_secs()),
                    runs,
                    errors,
                }
            })
            .collect();
        ExperimentResult {
            id: self.id.clone(),
            description: self.description.clone(),
            strategy_label: self.strategy.label(),
            duration_label: self.duration_spec.label().to_string(),
            points,
        }
    }
}

/// Stable per-run seed, independent of execution order.
///
/// This is the one definition shared by the campaign engine and callers
/// that replay an experiment's runs one by one (`experiments profile`);
/// any drift between them would silently change what they measure, so the
/// formula is pinned by `per_run_seed_is_pinned` below.
pub fn per_run_seed(base_seed: u64, id: &str, n_tasks: u32, rep: usize) -> u64 {
    SimRng::new(base_seed)
        .fork_indexed(&format!("{id}-{n_tasks}"), rep as u64)
        .root_seed()
}

/// All runs for one application size, with summaries.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExperimentPoint {
    pub n_tasks: u32,
    pub runs: Vec<RunResult>,
    pub errors: Vec<String>,
    pub ttc: Summary,
    pub tw: Summary,
    pub tx: Summary,
    pub ts: Summary,
}

/// A completed experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExperimentResult {
    pub id: String,
    pub description: String,
    pub strategy_label: String,
    pub duration_label: String,
    pub points: Vec<ExperimentPoint>,
}

const EMPTY_SUMMARY: Summary = Summary {
    n: 0,
    mean: f64::NAN,
    stdev: f64::NAN,
    min: f64::NAN,
    max: f64::NAN,
    median: f64::NAN,
    ci95: f64::NAN,
};

/// Observability hooks for a campaign: where each run reports its record,
/// progress tick and engine profile. All default to off;
/// `run_experiment` passes the empty set.
#[derive(Clone, Copy, Default)]
pub struct CampaignHooks<'a> {
    /// Manifest channel; each run sends one [`RunRecord`] keyed by its
    /// job index.
    ///
    /// [`RunRecord`]: crate::campaign::RunRecord
    pub recorder: Option<&'a CampaignSender>,
    /// Live stderr status line; ticked once per finished run.
    pub progress: Option<&'a Progress>,
    /// Engine self-profiling: when set, each run gets its own
    /// [`Profiler`] and ships its report here keyed by job index, so the
    /// merged profile is worker-count invariant. Strictly passive.
    pub profile: Option<&'a ProfileAccumulator>,
}

/// The inputs of one campaign run. A sweep's build closure makes it
/// inside the worker — [`RunOptions`] holds per-run `Rc` handles
/// (journal, telemetry, profiler) that never cross threads — and the
/// driver times that closure as the run's build phase.
pub struct CampaignJob<'a> {
    /// Arm label: the manifest record's `arm` and the failure line's key.
    pub arm: String,
    pub resources: &'a [ClusterConfig],
    pub app: &'a SkeletonConfig,
    pub strategy: &'a ExecutionStrategy,
    /// The run's options; `options.seed` is the seed the record carries.
    pub options: RunOptions,
}

/// One finished campaign run, as handed back by [`run_campaign`]. A job
/// whose build panicked reports an empty arm and seed 0.
pub struct JobOutcome<T> {
    pub arm: String,
    pub rep: usize,
    pub seed: u64,
    /// The caller's projection of the run, or why it failed.
    pub result: Result<T, RunError>,
}

/// Run every (arm × repetition) job of a campaign across the worker pool.
///
/// Job `i` is arm `i / reps`, repetition `i % reps`. `build` makes one
/// job's inputs; `project` reduces a completed run to what the caller
/// aggregates, with the job's options at hand so per-run handles such as
/// a journal can be read back. Every job reports one manifest record, one
/// progress tick and (when profiling) one profile report through `hooks`,
/// keyed by its job index. Outcomes come back grouped per arm, repetitions
/// in order, so whatever the caller folds from them is byte-identical at
/// any worker count. A panic while building or running a job fails that
/// job alone, as [`RunError::Panicked`]; the run's world frees its
/// component graph as the panic unwinds.
pub fn run_campaign<'a, A: Sync, T: Send>(
    hooks: CampaignHooks,
    sweep: &str,
    arms: &'a [A],
    reps: usize,
    build: impl Fn(&'a A, usize) -> CampaignJob<'a> + Sync,
    project: impl Fn(RunResult, &RunOptions) -> T + Sync,
) -> Vec<Vec<JobOutcome<T>>> {
    let jobs: Vec<(u64, &A, usize)> = arms
        .iter()
        .flat_map(|arm| (0..reps).map(move |rep| (arm, rep)))
        .enumerate()
        .map(|(job, (arm, rep))| (job as u64, arm, rep))
        .collect();
    let mut outcomes = jobs
        .par_iter()
        .map(|&(job, arm, rep)| {
            let started = hooks.recorder.map_or(0.0, |s| s.elapsed_secs());
            let (mut build_secs, mut simulate_secs) = (0.0, 0.0);
            let mut built: Option<CampaignJob> = None;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let t_build = Instant::now();
                let run = built.insert(build(arm, rep));
                // The profiler handle is created inside the worker closure
                // and never crosses threads; only its plain-data report does.
                run.options.profiler = hooks.profile.map(|_| Profiler::new());
                build_secs = t_build.elapsed().as_secs_f64();
                let t_sim = Instant::now();
                let outcome = run_application(run.resources, run.app, run.strategy, &run.options);
                simulate_secs = t_sim.elapsed().as_secs_f64();
                outcome
            }))
            .unwrap_or_else(|payload| {
                let message = payload.downcast_ref::<&str>().map(|s| s.to_string());
                let message = message.or_else(|| payload.downcast_ref::<String>().cloned());
                Err(RunError::Panicked {
                    message: message.unwrap_or_default(),
                })
            });
            let run = built.as_ref();
            let seed = run.map_or(0, |r| r.options.seed);
            let profiler = run.and_then(|r| r.options.profiler.as_ref());
            if let (Some(acc), Some(prof)) = (hooks.profile, profiler) {
                acc.record(job, prof.report());
            }
            if let Some(sender) = hooks.recorder {
                sender.record_outcome(
                    job,
                    sweep,
                    run.map_or("", |r| &r.arm),
                    rep as u64,
                    run.map_or(0, |r| r.app.total_tasks() as u32),
                    seed,
                    &outcome,
                    started,
                    build_secs,
                    simulate_secs,
                );
            }
            if let Some(progress) = hooks.progress {
                progress.tick(outcome.is_err());
            }
            JobOutcome {
                result: outcome
                    .map(|r| project(r, &run.expect("only a built run returns").options)),
                arm: built.map_or_else(String::new, |r| r.arm),
                rep,
                seed,
            }
        })
        .collect::<Vec<_>>()
        .into_iter();
    arms.iter()
        .map(|_| outcomes.by_ref().take(reps).collect())
        .collect()
}

/// Run every (size × repetition) combination in parallel: one campaign
/// arm per application size.
pub fn run_experiment(config: &ExperimentConfig) -> ExperimentResult {
    let arms = config.arms();
    let outcomes = run_campaign(
        CampaignHooks::default(),
        &config.id,
        &arms,
        config.repetitions,
        |(n, app), rep| config.job(*n, app, rep),
        |r, _| r,
    );
    config.result(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> ExperimentConfig {
        ExperimentConfig {
            id: "test".into(),
            description: "idle-pool smoke experiment".into(),
            strategy: ExecutionStrategy::paper_late(2),
            duration_spec: TaskDurationSpec::Uniform15Min,
            task_counts: vec![8, 16],
            repetitions: 3,
            base_seed: 99,
            resources: ["a", "b", "c"]
                .iter()
                .map(|n| ClusterConfig::test(n, 512))
                .collect(),
            submit_window_hours: (0.1, 0.5),
        }
    }

    #[test]
    fn experiment_produces_points_and_summaries() {
        let result = run_experiment(&small_config());
        assert_eq!(result.points.len(), 2);
        for p in &result.points {
            assert_eq!(p.runs.len(), 3, "errors: {:?}", p.errors);
            assert!(p.errors.is_empty());
            assert_eq!(p.ttc.n, 3);
            assert!(p.ttc.mean > 900.0);
            // Components are unions within the run: bounded by TTC.
            assert!(p.tw.mean <= p.ttc.mean);
            assert!(p.tx.mean <= p.ttc.mean);
            assert!(p.ts.mean <= p.ttc.mean);
        }
        assert_eq!(result.points[0].n_tasks, 8);
    }

    #[test]
    fn runs_are_reproducible_across_invocations() {
        let a = run_experiment(&small_config());
        let b = run_experiment(&small_config());
        for (pa, pb) in a.points.iter().zip(&b.points) {
            assert_eq!(pa.ttc.mean, pb.ttc.mean);
            assert_eq!(pa.tw.mean, pb.tw.mean);
        }
    }

    #[test]
    fn per_run_seed_is_pinned() {
        // The exact legacy derivation, inlined: the shared helper must
        // keep producing byte-for-byte the same seeds forever.
        for (base, id, n, rep) in [
            (42u64, "exp1", 8u32, 0usize),
            (42, "exp1", 2048, 7),
            (20160523, "exp4", 512, 3),
        ] {
            let legacy = SimRng::new(base)
                .fork_indexed(&format!("{id}-{n}"), rep as u64)
                .root_seed();
            assert_eq!(per_run_seed(base, id, n, rep), legacy);
        }
        let cfg = small_config();
        assert_eq!(cfg.run_seed(8, 2), per_run_seed(99, "test", 8, 2));
    }

    #[test]
    fn all_error_points_round_trip_through_json() {
        // No resources → every repetition fails → the point carries
        // EMPTY_SUMMARY (all NaN). The serde_json shim writes non-finite
        // floats as `null`; deserialization must map them back to NaN
        // instead of rejecting the document.
        let mut cfg = small_config();
        cfg.resources.clear();
        cfg.task_counts = vec![8];
        let result = run_experiment(&cfg);
        let p = &result.points[0];
        assert!(p.runs.is_empty());
        assert_eq!(p.errors.len(), 3, "all runs should fail: {:?}", p.errors);
        assert_eq!(p.ttc.n, 0);
        assert!(p.ttc.mean.is_nan());

        let json = serde_json::to_string(&result).expect("serialize");
        let back: ExperimentResult = serde_json::from_str(&json).expect("round-trip");
        assert_eq!(back.points.len(), 1);
        let bp = &back.points[0];
        assert_eq!(bp.errors, p.errors);
        assert_eq!(bp.ttc.n, 0);
        assert!(bp.ttc.mean.is_nan() && bp.ttc.ci95.is_nan());
        // And a second trip is stable: NaN → null → NaN.
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn repetitions_differ_from_each_other() {
        // Different seeds → different skeleton samples and submit offsets;
        // with Gaussian durations the TTC spread must be visible even on
        // an idle pool.
        let mut cfg = small_config();
        cfg.duration_spec = TaskDurationSpec::Gaussian;
        cfg.task_counts = vec![8];
        let result = run_experiment(&cfg);
        let p = &result.points[0];
        assert!(p.ttc.stdev > 0.0, "repetitions should vary: {:?}", p.ttc);
    }
}
