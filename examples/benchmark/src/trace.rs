//! The traced pass's per-layer numbers and the layer probes: single
//! library calls timed once per run input, outside the runs.

use crate::measure::Pass;
use crate::workloads::{Job, Workload};
use aimes_repro::bundle::{Bundle, QueryMode};
use aimes_repro::cluster::Cluster;
use aimes_repro::middleware::stats::percentile;
use aimes_repro::sim::{ProfileReport, SimDuration, Simulation, Tracer};
use aimes_repro::skeleton::SkeletonApp;
use aimes_repro::strategy::ExecutionManager;
use rayon::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// The profiler labels the program already has, plus the benchmark's own
/// root scope around each run.
pub const LABELS: [&str; 7] = [
    "engine.dispatch",
    "cluster.scheduler",
    "unit.manager",
    "pilot.manager",
    "saga.session",
    "bundle.info",
    "middleware.plan",
];
pub const ROOT_LABEL: &str = "aimes.run_application";

/// The traced pass's runs merged in job order, with the summed run wall
/// the self shares divide by.
pub struct Profile {
    pub merged: ProfileReport,
    pub run_wall_secs: f64,
}

impl Profile {
    pub fn from_pass(pass: &Pass) -> Profile {
        let mut merged = ProfileReport::default();
        for run in &pass.runs {
            if let Some(profile) = &run.profile {
                merged.merge(profile);
            }
        }
        Profile {
            merged,
            run_wall_secs: pass.runs.iter().map(|r| r.wall_secs).sum(),
        }
    }

    /// `(self_share, calls, p99_us)` of one label; zeros when the label
    /// never ran.
    pub fn label(&self, name: &str) -> (f64, u64, f64) {
        self.merged
            .labels
            .iter()
            .find(|l| l.label == name)
            .map_or((0.0, 0, 0.0), |l| {
                (
                    l.exclusive_secs / self.run_wall_secs,
                    l.count,
                    l.hist.quantile(0.99),
                )
            })
    }

    /// Attributed time over measured run wall: 1 when the labels tile
    /// every run.
    pub fn coverage(&self) -> f64 {
        self.merged.attributed_secs() / self.run_wall_secs
    }
}

/// One probe's timings, in seconds, plus the warm-up's event count.
pub struct Probe {
    pub warmup_secs: f64,
    pub warmup_events: u64,
    pub generate_secs: f64,
    pub derive_plan_secs: f64,
    pub estimate_wait_secs: f64,
    pub setup_times_secs: f64,
}

/// Medians over the probes of every job, except the warm-up rate, which
/// is total events over total warm-up time.
pub struct ProbeSummary {
    pub warmup_ms: f64,
    pub warmup_events_per_s: f64,
    pub generate_us: f64,
    pub derive_plan_us: f64,
    pub estimate_wait_us: f64,
    pub setup_times_us: f64,
}

pub fn probe_all(w: &Workload) -> ProbeSummary {
    let probes: Vec<Probe> = w.jobs.par_iter().map(|job| probe(w, job)).collect();
    let med = |f: fn(&Probe) -> f64| {
        percentile(&probes.iter().map(f).collect::<Vec<_>>(), 0.5).unwrap_or(f64::NAN)
    };
    let events: u64 = probes.iter().map(|p| p.warmup_events).sum();
    let warmup: f64 = probes.iter().map(|p| p.warmup_secs).sum();
    ProbeSummary {
        warmup_ms: med(|p| p.warmup_secs) * 1e3,
        warmup_events_per_s: events as f64 / warmup,
        generate_us: med(|p| p.generate_secs) * 1e6,
        derive_plan_us: med(|p| p.derive_plan_secs) * 1e6,
        estimate_wait_us: med(|p| p.estimate_wait_secs) * 1e6,
        setup_times_us: med(|p| p.setup_times_secs) * 1e6,
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = black_box(f());
    (out, start.elapsed().as_secs_f64())
}

/// Rebuild one run's world up to its submission instant, then time each
/// layer's entry point on it. Each wait query runs one simulated minute
/// after the previous call, so it starts from a cold wait-estimate cache
/// instead of answering from the entries the call before it filled.
fn probe(w: &Workload, job: &Job) -> Probe {
    let mut sim = Simulation::with_tracer(job.seed, Tracer::disabled());
    let (clusters, warmup_secs) = timed(|| {
        let clusters: Vec<Cluster> = w
            .resources
            .iter()
            .map(|cfg| {
                let cluster = Cluster::new(cfg.clone());
                cluster.install(&mut sim);
                cluster
            })
            .collect();
        sim.schedule_at(job.submit_at, |_| {});
        sim.run_until(job.submit_at);
        clusters
    });
    let warmup_events = sim.events_processed();
    let mut bundle = Bundle::with_info_config(w.info.clone());
    for cluster in &clusters {
        bundle.add(cluster.clone());
    }
    let mut rng = sim.fork_rng("skeleton");
    let (app, generate_secs) = timed(|| SkeletonApp::generate(&job.app, &mut rng));
    let app = app.expect("workload applications generate");
    let mut rng = sim.fork_rng("resource-selection");
    let now = sim.now();
    let (plan, derive_plan_secs) = timed(|| {
        ExecutionManager::default().derive_plan_with_rng(
            now,
            &app,
            &mut bundle,
            &job.strategy,
            &mut rng,
        )
    });
    let pilot = plan.expect("workload plans derive").pilots[0].clone();
    let cluster = clusters
        .iter()
        .find(|c| c.name() == pilot.resource)
        .expect("plans name pool resources");
    let advance = |sim: &mut Simulation| {
        let next = sim.now() + SimDuration::from_secs(60.0);
        sim.schedule_at(next, |_| {});
        sim.run_until(next);
        next
    };
    let at = advance(&mut sim);
    let (_, estimate_wait_secs) = timed(|| cluster.estimate_wait(at, pilot.cores, pilot.walltime));
    let at = advance(&mut sim);
    let (_, setup_times_secs) =
        timed(|| bundle.setup_times(at, pilot.cores, pilot.walltime, QueryMode::OnDemand));
    Probe {
        warmup_secs,
        warmup_events,
        generate_secs,
        derive_plan_secs,
        estimate_wait_secs,
        setup_times_secs,
    }
}
