//! The Execution Manager's strategy derivation.
//!
//! §III-D: "This module derives and enacts an execution strategy in five
//! steps: (1) information is gathered about an application via the skeleton
//! API and about resources via the bundle API; (2) application requirements
//! and resources availability and capabilities are determined; (3) a set of
//! suitable resources is chosen to satisfy the application requirements;
//! (4) a set of suitable pilots is described and then instantiated on the
//! chosen resources; and (5) the application is executed on the instantiated
//! pilots."
//!
//! This module performs steps 1–4 and hands step 5 (enactment) to the
//! `aimes` crate's middleware, which owns the pilot and unit managers.

use crate::decision::{ExecutionStrategy, ResourceSelection};
use crate::estimate::{
    estimate_trp, estimate_ts, estimate_ttc, estimate_tx, AppEstimate, MiddlewareEstimate,
    TtcEstimate,
};
use crate::tree::{enumerate_strategies, StrategySpace};
use aimes_bundle::{Bundle, QueryMode};
use aimes_pilot::{PilotDescription, UmConfig};
use aimes_sim::{SimDuration, SimTime};
use aimes_skeleton::SkeletonApp;
use serde::{Deserialize, Serialize};

/// Step 1–2: the application requirements, extracted via the skeleton API.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct AppInfo {
    pub n_tasks: u32,
    pub max_task_duration: SimDuration,
    pub mean_task_duration: SimDuration,
    pub total_staging_mb: f64,
    /// Peak per-stage core demand (pilot sizing must cover at least the
    /// widest stage for single-wave execution).
    pub max_concurrent_cores: u64,
}

impl From<&SkeletonApp> for AppInfo {
    /// Gather application information (Figure 1, step 1).
    fn from(app: &SkeletonApp) -> Self {
        let tasks = app.tasks();
        assert!(!tasks.is_empty(), "application has no tasks");
        let max = tasks
            .iter()
            .map(|t| t.duration)
            .fold(SimDuration::ZERO, SimDuration::max);
        let staging: f64 = tasks.iter().map(|t| t.input_mb + t.output_mb).sum();
        AppInfo {
            n_tasks: tasks.len() as u32,
            max_task_duration: max,
            mean_task_duration: app.total_work() / tasks.len() as f64,
            total_staging_mb: staging,
            max_concurrent_cores: app.max_concurrent_cores(),
        }
    }
}

impl AppInfo {
    /// The estimator's view of this application.
    pub fn as_estimate(&self) -> AppEstimate {
        AppEstimate {
            n_tasks: self.n_tasks,
            max_task_duration: self.max_task_duration,
            mean_task_duration: self.mean_task_duration,
            total_staging_mb: self.total_staging_mb,
        }
    }
}

/// Steps 3–4 output: everything the middleware needs to enact a strategy.
#[derive(Clone, Debug)]
pub struct ExecutionPlan {
    pub strategy: ExecutionStrategy,
    /// Chosen resources, one pilot each, in submission order.
    pub resources: Vec<String>,
    pub pilots: Vec<PilotDescription>,
    pub um_config: UmConfig,
    pub estimate: TtcEstimate,
}

/// The Execution Manager.
pub struct ExecutionManager {
    pub middleware: MiddlewareEstimate,
    pub query_mode: QueryMode,
    /// Safety factor applied to requested pilot walltimes (estimates are
    /// bounds, but Gaussian tails and staging jitter need headroom).
    pub walltime_margin: f64,
}

impl Default for ExecutionManager {
    fn default() -> Self {
        ExecutionManager {
            middleware: MiddlewareEstimate::default(),
            query_mode: QueryMode::OnDemand,
            walltime_margin: 1.1,
        }
    }
}

impl ExecutionManager {
    /// Derive the plan for one strategy (steps 1–4). `app` is the
    /// application's summary, or a skeleton to summarize. `rng` is only
    /// drawn from under [`ResourceSelection::Random`].
    ///
    /// Degraded-information contract: every on-demand wait estimate used
    /// here flows through the bundle's information plane
    /// (`aimes_bundle::info`), which classifies answers and falls back
    /// fresh cache → stale cache → offline predictor → conservative
    /// static default. Derivation therefore never panics and never ranks
    /// on garbage when the information channel is corrupt or
    /// unavailable: a plannable pool stays plannable, at worst with
    /// pessimistic (static-default) wait forecasts.
    pub fn derive_plan_with_rng(
        &self,
        now: SimTime,
        app: impl Into<AppInfo>,
        bundle: &mut Bundle,
        strategy: &ExecutionStrategy,
        rng: &mut aimes_sim::SimRng,
    ) -> Result<ExecutionPlan, String> {
        let info: AppInfo = app.into();
        let est_app = info.as_estimate();
        let cores = strategy.pilot_cores(info.n_tasks);
        // First-cut walltime (no Tw): what we ask the batch system for.
        let pre = TtcEstimate {
            tw: SimDuration::ZERO,
            tx: estimate_tx(&est_app, strategy),
            ts: estimate_ts(&est_app, &self.middleware),
            trp: estimate_trp(&est_app, &self.middleware),
        };
        // The safety margin covers estimator error; an explicit fixed
        // walltime is taken verbatim (that is its point).
        let walltime = match strategy.walltime {
            crate::decision::WalltimePolicy::FixedSecs(_) => pre.pilot_walltime(strategy),
            _ => pre.pilot_walltime(strategy) * self.walltime_margin,
        };

        // A resource qualifies only if the requested queue exists there
        // and permits the pilot's shape.
        let queue_fits = |bundle: &Bundle, name: &str| -> bool {
            let Some(cluster) = bundle.cluster(name) else {
                return false;
            };
            let cfg = cluster.config();
            let q = match &strategy.queue {
                None => Some(&cfg.queues[0]),
                Some(qn) => cfg.queues.iter().find(|q| q.name == *qn),
            };
            match q {
                None => false,
                Some(q) => {
                    walltime <= q.max_walltime && cores <= q.max_cores.unwrap_or(cfg.total_cores)
                }
            }
        };

        // Step 3: choose resources.
        let (resources, forecasts): (Vec<String>, Vec<SimDuration>) = match &strategy.selection {
            ResourceSelection::RankedByWait => {
                let mut ranked = bundle.rank_by_setup_time(now, cores, walltime, self.query_mode);
                ranked.retain(|(name, _)| queue_fits(bundle, name));
                let ranked = ranked;
                if ranked.len() < strategy.pilot_count as usize {
                    return Err(format!(
                        "strategy {} needs {} resources fitting {}x{:.0}s pilots; \
                         only {} qualify",
                        strategy.label(),
                        strategy.pilot_count,
                        cores,
                        walltime.as_secs(),
                        ranked.len()
                    ));
                }
                ranked
                    .into_iter()
                    .take(strategy.pilot_count as usize)
                    .unzip()
            }
            ResourceSelection::Random => {
                let mut fitting = bundle.setup_times(now, cores, walltime, self.query_mode);
                fitting.retain(|(name, _)| queue_fits(bundle, name));
                if fitting.len() < strategy.pilot_count as usize {
                    return Err(format!(
                        "strategy {} needs {} resources fitting {}x{:.0}s pilots; \
                         only {} qualify",
                        strategy.label(),
                        strategy.pilot_count,
                        cores,
                        walltime.as_secs(),
                        fitting.len()
                    ));
                }
                rng.shuffle(&mut fitting);
                fitting
                    .into_iter()
                    .take(strategy.pilot_count as usize)
                    .unzip()
            }
            ResourceSelection::Fixed(names) => {
                if names.is_empty() {
                    return Err("fixed resource selection needs at least one name".into());
                }
                let mut rs = Vec::new();
                let mut fs = Vec::new();
                for i in 0..strategy.pilot_count as usize {
                    let name = &names[i % names.len()];
                    if bundle.cluster(name).is_some() && !queue_fits(bundle, name) {
                        return Err(format!(
                            "queue {:?} on {name} cannot take a {cores}x{:.0}s pilot",
                            strategy.queue,
                            walltime.as_secs()
                        ));
                    }
                    let r = bundle
                        .resource_mut(name)
                        .ok_or_else(|| format!("unknown resource {name}"))?;
                    let w = r
                        .query
                        .setup_time(now, cores, walltime, self.query_mode)
                        .ok_or_else(|| format!("pilot does not fit on {name}"))?;
                    rs.push(name.clone());
                    fs.push(w);
                }
                (rs, fs)
            }
        };

        // Step 4: describe pilots.
        let pilots = resources
            .iter()
            .map(|r| {
                let d = PilotDescription::new(r.clone(), cores, walltime);
                match &strategy.queue {
                    Some(q) => d.with_queue(q.clone()),
                    None => d,
                }
            })
            .collect();
        let mut um_config = UmConfig::new(strategy.binding, strategy.scheduler);
        um_config.origin_bandwidth_mbps = self.middleware.origin_bandwidth_mbps;
        um_config.origin_latency = self.middleware.per_transfer_latency;
        um_config.dispatch_overhead = self.middleware.dispatch_overhead;

        Ok(ExecutionPlan {
            estimate: estimate_ttc(&est_app, strategy, &self.middleware, &forecasts),
            strategy: strategy.clone(),
            resources,
            pilots,
            um_config,
        })
    }

    /// [`Self::derive_plan_with_rng`] for strategies that need no
    /// randomness.
    pub fn derive_plan(
        &self,
        now: SimTime,
        app: impl Into<AppInfo>,
        bundle: &mut Bundle,
        strategy: &ExecutionStrategy,
    ) -> Result<ExecutionPlan, String> {
        let mut rng = aimes_sim::SimRng::new(0);
        self.derive_plan_with_rng(now, app, bundle, strategy, &mut rng)
    }

    /// Enumerate a strategy space, derive each member, and return plans
    /// ranked by estimated TTC (best first). Strategies that cannot be
    /// planned (no fitting resources) are skipped.
    pub fn rank_strategies(
        &self,
        now: SimTime,
        app: impl Into<AppInfo>,
        bundle: &mut Bundle,
        space: &StrategySpace,
    ) -> Vec<ExecutionPlan> {
        let app = app.into();
        let mut plans: Vec<ExecutionPlan> = enumerate_strategies(space)
            .iter()
            .filter_map(|s| self.derive_plan(now, app, bundle, s).ok())
            .collect();
        plans.sort_by(|a, b| {
            a.estimate
                .ttc_upper()
                .cmp(&b.estimate.ttc_upper())
                .then_with(|| a.strategy.label().cmp(&b.strategy.label()))
        });
        plans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimes_cluster::{Cluster, ClusterConfig};
    use aimes_sim::SimRng;
    use aimes_skeleton::{paper_bag, TaskDurationSpec};

    fn idle_bundle(sizes: &[(&str, u32)]) -> Bundle {
        let mut b = Bundle::new();
        for (n, c) in sizes {
            b.add(Cluster::new(ClusterConfig::test(n, *c)));
        }
        b
    }

    fn bag(n: u32) -> SkeletonApp {
        SkeletonApp::generate(
            &paper_bag(n, TaskDurationSpec::Uniform15Min),
            &mut SimRng::new(1),
        )
        .unwrap()
    }

    #[test]
    fn app_info_from_skeleton() {
        let info = AppInfo::from(&bag(64));
        assert_eq!(info.n_tasks, 64);
        assert_eq!(info.max_task_duration, SimDuration::from_mins(15.0));
        assert_eq!(info.mean_task_duration, SimDuration::from_mins(15.0));
        assert!((info.total_staging_mb - 64.0 * 1.002).abs() < 1e-9);
        assert_eq!(info.max_concurrent_cores, 64);
    }

    #[test]
    fn early_plan_single_full_size_pilot() {
        let mut b = idle_bundle(&[("alpha", 4096), ("beta", 4096)]);
        let em = ExecutionManager::default();
        let plan = em
            .derive_plan(
                SimTime::ZERO,
                &bag(128),
                &mut b,
                &ExecutionStrategy::paper_early(),
            )
            .unwrap();
        assert_eq!(plan.pilots.len(), 1);
        assert_eq!(plan.pilots[0].cores, 128);
        // Walltime ≈ (900 + Ts + Trp) × 1.1: just over 15 minutes.
        let w = plan.pilots[0].walltime.as_secs();
        assert!(w > 990.0 && w < 1400.0, "walltime {w}");
        assert_eq!(plan.resources.len(), 1);
    }

    #[test]
    fn late_plan_three_pilots_on_distinct_resources() {
        let mut b = idle_bundle(&[("a", 4096), ("b", 4096), ("c", 4096), ("d", 4096)]);
        let em = ExecutionManager::default();
        let plan = em
            .derive_plan(
                SimTime::ZERO,
                &bag(2048),
                &mut b,
                &ExecutionStrategy::paper_late(3),
            )
            .unwrap();
        assert_eq!(plan.pilots.len(), 3);
        assert!(plan.pilots.iter().all(|p| p.cores == 683));
        let mut rs = plan.resources.clone();
        rs.sort();
        rs.dedup();
        assert_eq!(rs.len(), 3, "distinct resources");
        // Late walltime ≈ 3 × single-shot walltime.
        let early_plan = em
            .derive_plan(
                SimTime::ZERO,
                &bag(2048),
                &mut b,
                &ExecutionStrategy::paper_early(),
            )
            .unwrap();
        let ratio = plan.pilots[0].walltime.as_secs() / early_plan.pilots[0].walltime.as_secs();
        assert!((ratio - 3.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn plan_fails_without_enough_fitting_resources() {
        // 2048-task early pilot needs 2048 cores; machines are too small.
        let mut b = idle_bundle(&[("small1", 512), ("small2", 512)]);
        let em = ExecutionManager::default();
        let err = em
            .derive_plan(
                SimTime::ZERO,
                &bag(2048),
                &mut b,
                &ExecutionStrategy::paper_early(),
            )
            .unwrap_err();
        assert!(err.contains("only 0 qualify"), "{err}");
        // But the late 3-pilot split (683 cores) doesn't fit either (512).
        assert!(em
            .derive_plan(
                SimTime::ZERO,
                &bag(2048),
                &mut b,
                &ExecutionStrategy::paper_late(3)
            )
            .is_err());
        // A 4-pilot split (512 cores each) fits only on 2 resources → err.
        assert!(em
            .derive_plan(
                SimTime::ZERO,
                &bag(2048),
                &mut b,
                &ExecutionStrategy::paper_late(4)
            )
            .is_err());
    }

    #[test]
    fn fixed_selection_cycles_resources() {
        let mut b = idle_bundle(&[("x", 4096), ("y", 4096)]);
        let em = ExecutionManager::default();
        let mut strategy = ExecutionStrategy::paper_late(3);
        strategy.selection = ResourceSelection::Fixed(vec!["x".to_string(), "y".to_string()]);
        let plan = em
            .derive_plan(SimTime::ZERO, &bag(64), &mut b, &strategy)
            .unwrap();
        assert_eq!(plan.resources, vec!["x", "y", "x"]);
    }

    #[test]
    fn fixed_selection_unknown_resource_errors() {
        let mut b = idle_bundle(&[("x", 4096)]);
        let em = ExecutionManager::default();
        let mut strategy = ExecutionStrategy::paper_late(2);
        strategy.selection = ResourceSelection::Fixed(vec!["nope".to_string()]);
        assert!(em
            .derive_plan(SimTime::ZERO, &bag(64), &mut b, &strategy)
            .is_err());
    }

    #[test]
    fn random_selection_draws_distinct_fitting_resources() {
        use aimes_sim::SimRng;
        let mut b = idle_bundle(&[("a", 4096), ("b", 4096), ("c", 4096), ("tiny", 8)]);
        let em = ExecutionManager::default();
        let mut strategy = ExecutionStrategy::paper_late(3);
        strategy.selection = ResourceSelection::Random;
        let app = bag(512); // 171-core pilots: "tiny" cannot fit them
        let mut seen = std::collections::HashSet::new();
        for seed in 0..10 {
            let mut rng = SimRng::new(seed);
            let plan = em
                .derive_plan_with_rng(SimTime::ZERO, &app, &mut b, &strategy, &mut rng)
                .unwrap();
            assert_eq!(plan.resources.len(), 3);
            let mut rs = plan.resources.clone();
            rs.sort();
            rs.dedup();
            assert_eq!(rs.len(), 3);
            assert!(!plan.resources.contains(&"tiny".to_string()));
            seen.insert(plan.resources.clone());
        }
        // Different seeds produce different orderings.
        assert!(seen.len() > 1);
    }

    #[test]
    fn ranking_prefers_less_loaded_resources() {
        use aimes_cluster::JobRequest;
        use aimes_sim::Simulation;
        let mut sim = Simulation::new(1);
        let busy = Cluster::new(ClusterConfig::test("busy", 4096));
        let idle = Cluster::new(ClusterConfig::test("idle", 4096));
        busy.submit(
            &mut sim,
            JobRequest::background(
                4096,
                SimDuration::from_secs(5000.0),
                SimDuration::from_secs(5000.0),
            ),
        );
        sim.run_until(sim.now());
        let mut b = Bundle::new();
        b.add(busy);
        b.add(idle);
        let em = ExecutionManager::default();
        let plan = em
            .derive_plan(
                sim.now(),
                &bag(64),
                &mut b,
                &ExecutionStrategy::paper_early(),
            )
            .unwrap();
        assert_eq!(plan.resources, vec!["idle"]);
        assert_eq!(plan.estimate.tw, SimDuration::ZERO);
    }

    #[test]
    fn queue_limits_disqualify_resources() {
        use aimes_cluster::cluster::QueueConfig;
        // Resource "qd" has a debug queue capped at 8 cores / 10 min;
        // "plain" has only the default queue.
        let mut cfg = ClusterConfig::test("qd", 4096);
        cfg.queues = vec![
            QueueConfig::normal(),
            QueueConfig::debug(SimDuration::from_mins(10.0), 8),
        ];
        let mut b = Bundle::new();
        b.add(Cluster::new(cfg));
        b.add(Cluster::new(ClusterConfig::test("plain", 4096)));
        let em = ExecutionManager::default();
        let mut strategy = ExecutionStrategy::paper_early();
        strategy.queue = Some("debug".to_string());
        // 64 tasks → 64-core pilot: exceeds the debug core cap on "qd",
        // and "plain" has no debug queue at all → unplannable.
        let err = em
            .derive_plan(SimTime::ZERO, &bag(64), &mut b, &strategy)
            .unwrap_err();
        assert!(err.contains("qualify"), "{err}");
    }

    #[test]
    fn queue_routed_into_pilot_descriptions() {
        use aimes_cluster::cluster::QueueConfig;
        let mut cfg = ClusterConfig::test("qd", 4096);
        cfg.queues = vec![
            QueueConfig::normal(),
            QueueConfig::debug(SimDuration::from_hours(2.0), 256),
        ];
        let mut b = Bundle::new();
        b.add(Cluster::new(cfg));
        let em = ExecutionManager::default();
        let mut strategy = ExecutionStrategy::paper_early();
        strategy.queue = Some("debug".to_string());
        let plan = em
            .derive_plan(SimTime::ZERO, &bag(64), &mut b, &strategy)
            .unwrap();
        assert_eq!(plan.pilots[0].queue.as_deref(), Some("debug"));
        assert_eq!(plan.resources, vec!["qd"]);
    }

    #[test]
    fn degraded_information_never_makes_a_plannable_pool_unplannable() {
        use aimes_bundle::{InfoConfig, InfoDisposition};
        // The information channel is dead from the first query: every
        // answer is Unavailable, the hot pool is empty (nothing was ever
        // fetched), and the predictor has no history. The ladder must
        // bottom out at the static default — pessimistic but usable — so
        // a pool that fits the pilots still yields a plan.
        let mut b = Bundle::with_info_config(InfoConfig::default());
        for (n, c) in [("alpha", 4096), ("beta", 4096), ("gamma", 4096)] {
            b.add(Cluster::new(ClusterConfig::test(n, c)));
        }
        b.info_handle()
            .borrow_mut()
            .set_disposition(Box::new(|_, _| InfoDisposition::Unavailable));
        let em = ExecutionManager::default();
        let plan = em
            .derive_plan(
                SimTime::ZERO,
                &bag(512),
                &mut b,
                &ExecutionStrategy::paper_late(3),
            )
            .expect("blackout must degrade forecasts, not kill planning");
        assert_eq!(plan.resources.len(), 3);
        // Every forecast came from the static-default rung.
        let stats = b.info_handle().borrow().stats();
        assert!(stats.static_fallbacks > 0, "{stats:?}");
        assert_eq!(stats.fresh, 0);
        // Oversized pilots are still rejected — the ladder answers "how
        // long", never "does it fit".
        let err = em
            .derive_plan(
                SimTime::ZERO,
                &bag(8192),
                &mut b,
                &ExecutionStrategy::paper_early(),
            )
            .unwrap_err();
        assert!(err.contains("qualify"), "{err}");
    }

    #[test]
    fn rank_strategies_orders_by_estimated_ttc() {
        let mut b = idle_bundle(&[("a", 4096), ("b", 4096), ("c", 4096)]);
        let em = ExecutionManager::default();
        let plans = em.rank_strategies(SimTime::ZERO, &bag(512), &mut b, &StrategySpace::default());
        assert!(!plans.is_empty());
        for w in plans.windows(2) {
            assert!(w[0].estimate.ttc_upper() <= w[1].estimate.ttc_upper());
        }
    }
}
