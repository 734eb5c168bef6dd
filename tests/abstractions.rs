//! Cross-abstraction integration: consistency between what one layer
//! promises and what the next layer observes.

use aimes_repro::bundle::{Bundle, QueryMode};
use aimes_repro::cluster::{Cluster, ClusterConfig, JobRequest};
use aimes_repro::middleware::paper;
use aimes_repro::middleware::ttc::interval_union;
use aimes_repro::sim::{SimDuration, SimTime, Simulation, Tracer};
use aimes_repro::skeleton::{paper_bag, SkeletonApp, TaskDurationSpec, TaskId};
use aimes_repro::strategy::{AppInfo, ExecutionManager, ExecutionStrategy};

#[test]
fn app_info_matches_generated_application() {
    let cfg = paper_bag(128, TaskDurationSpec::Gaussian);
    let app = SkeletonApp::generate(&cfg, &mut aimes_repro::sim::SimRng::new(5)).unwrap();
    let info = AppInfo::from(&app);
    assert_eq!(info.n_tasks, 128);
    assert_eq!(info.max_concurrent_cores, 128);
    // The info's mean must equal the actual sample mean.
    let sample_mean = app.total_work().as_secs() / app.tasks().len() as f64;
    assert!((info.mean_task_duration.as_secs() - sample_mean).abs() < 1e-9);
    // The max is one of the sampled durations.
    assert!(app
        .tasks()
        .iter()
        .any(|t| t.duration == info.max_task_duration));
}

#[test]
fn plan_pilot_sizes_cover_the_application() {
    let cfg = paper_bag(100, TaskDurationSpec::Uniform15Min);
    let app = SkeletonApp::generate(&cfg, &mut aimes_repro::sim::SimRng::new(5)).unwrap();
    let mut bundle = Bundle::new();
    for c in paper::testbed() {
        bundle.add(Cluster::new(c));
    }
    let em = ExecutionManager::default();
    for strategy in [
        ExecutionStrategy::paper_early(),
        ExecutionStrategy::paper_late(3),
    ] {
        let plan = em
            .derive_plan(SimTime::ZERO, &app, &mut bundle, &strategy)
            .unwrap();
        let total_cores: u32 = plan.pilots.iter().map(|p| p.cores).sum();
        assert!(
            total_cores >= 100,
            "{}: pilots must jointly cover the bag",
            strategy.label()
        );
        // Walltime covers at least one full wave of the longest task.
        for p in &plan.pilots {
            assert!(p.walltime >= SimDuration::from_mins(15.0));
        }
    }
}

#[test]
fn bundle_on_demand_estimate_matches_realized_wait_in_a_static_queue() {
    // With background load absent and a frozen queue, the conservative
    // replay is exact: the estimate equals the realized start time.
    let mut sim = Simulation::with_tracer(1, Tracer::disabled());
    let cluster = Cluster::new(ClusterConfig::test("static", 64));
    let d = SimDuration::from_secs(1000.0);
    cluster.submit(&mut sim, JobRequest::background(64, d, d));
    cluster.submit(&mut sim, JobRequest::background(64, d, d));
    sim.run_until(sim.now());
    let mut bundle = Bundle::new();
    bundle.add(cluster.clone());
    let est = bundle
        .setup_times(
            sim.now(),
            64,
            SimDuration::from_secs(100.0),
            QueryMode::OnDemand,
        )
        .pop()
        .unwrap()
        .1;
    assert_eq!(est.as_secs(), 2000.0);
    // Now actually submit and measure.
    let job = cluster.submit(
        &mut sim,
        JobRequest::pilot(64, SimDuration::from_secs(100.0), "probe"),
    );
    sim.run_to_completion();
    let realized = cluster.job(job).unwrap().start_time.unwrap();
    assert_eq!(realized.as_secs(), 2000.0);
}

#[test]
fn skeleton_dag_order_is_respected_by_the_pilot_layer() {
    use aimes_repro::pilot::UnitState;
    use aimes_repro::pilot::{Binding, UnitScheduler};
    use aimes_repro::pilot::{PilotDescription, PilotManager, UmConfig, UnitManager};
    use aimes_repro::saga::Session;
    use aimes_repro::skeleton::multistage_workflow;
    use aimes_repro::workload::Distribution;
    use std::rc::Rc;

    let mut sim = Simulation::with_tracer(9, Tracer::disabled());
    let mut session = Session::new();
    session.add_resource(&sim, Cluster::new(ClusterConfig::test("r", 256)));
    let pm = PilotManager::new(Rc::new(session));
    let um = UnitManager::new(
        pm.clone(),
        UmConfig::new(Binding::Late, UnitScheduler::Backfill),
    );
    pm.submit(
        &mut sim,
        vec![PilotDescription::new("r", 32, SimDuration::from_hours(4.0))],
    );
    let cfg = multistage_workflow(
        "wf",
        &[8, 4, 2],
        Distribution::Constant { value: 120.0 },
        1.0,
        0.5,
    );
    let app = SkeletonApp::generate(&cfg, &mut aimes_repro::sim::SimRng::new(3)).unwrap();
    um.submit_units(&mut sim, app.tasks());
    let pm2 = pm.clone();
    um.on_all_done(move |sim| pm2.cancel_all(sim));
    sim.run_to_completion();
    let units = um.units_ref();
    assert!(units.iter().all(|u| u.state == UnitState::Done));
    // Every unit started staging only after all its dependencies were done.
    for u in units.iter() {
        let staged = u.last_time_of(UnitState::StagingInput).unwrap();
        for dep in app.tasks()[u.id.0 as usize].dependencies().map(TaskId) {
            let dep_done = units[dep.0 as usize].last_time_of(UnitState::Done).unwrap();
            assert!(
                staged >= dep_done,
                "{} staged before {} finished",
                u.id,
                dep
            );
        }
    }
}

#[test]
fn interval_union_is_exposed_for_custom_analyses() {
    let t = SimTime::from_secs;
    let u = interval_union(vec![(t(0.0), t(5.0)), (t(3.0), t(8.0))]);
    assert_eq!(u.as_secs(), 8.0);
}

#[test]
fn estimate_wait_respects_queue_priority_order() {
    use aimes_repro::cluster::QueueConfig;
    // A debug-queue job ahead of a normal job: the estimate for a new
    // default-queue submission must account for both, in priority order.
    let mut cfg = ClusterConfig::test("prio", 8);
    cfg.queues = vec![
        QueueConfig::normal(),
        QueueConfig::debug(SimDuration::from_hours(1.0), 8),
    ];
    let mut sim = Simulation::with_tracer(1, Tracer::disabled());
    let c = Cluster::new(cfg);
    let d = SimDuration::from_secs(100.0);
    c.submit(&mut sim, JobRequest::background(8, d, d)); // running 0..100
    c.submit(&mut sim, JobRequest::background(8, d, d)); // normal, queued
    c.submit(
        &mut sim,
        JobRequest::background(8, d, d).with_queue("debug"), // jumps ahead
    );
    sim.run_until(sim.now());
    // Replay order: running (ends 100), debug (100..200), normal
    // (200..300) → a new 8-core job starts at 300.
    let est = c.estimate_wait(sim.now(), 8, d).unwrap();
    assert_eq!(est.as_secs(), 300.0);
    sim.run_to_completion();
}

#[test]
fn swf_roundtrip_is_available_through_the_facade() {
    use aimes_repro::workload::{from_swf, to_swf, BackgroundWorkload, WorkloadConfig};
    let mut g = BackgroundWorkload::new(
        WorkloadConfig::production_like(),
        64,
        aimes_repro::sim::SimRng::new(4),
    );
    let jobs: Vec<_> = (0..10).map(|_| g.next_job()).collect();
    let text = to_swf(&jobs, "facade-test");
    let back = from_swf(&text).unwrap();
    assert_eq!(back.len(), 10);
}

#[test]
fn discovery_language_tailors_bundles_through_the_facade() {
    use aimes_repro::bundle::Requirement;
    let mut bundle = Bundle::new();
    for cfg in paper::testbed() {
        let mut cfg = cfg;
        cfg.workload = None;
        bundle.add(Cluster::new(cfg));
    }
    let req = Requirement::parse("total_cores >= 6144").unwrap();
    let big = bundle.tailor(SimTime::ZERO, &req);
    assert_eq!(big.resource_names(), vec!["hopper", "stampede"]);
}

#[test]
fn strategy_pruning_agrees_with_estimates() {
    // The pruning rule says late-binding pilots sized for full concurrency
    // waste resources without improving TTC: verify via the estimator
    // that the pruned variant's estimated TTC is no better than the
    // canonical late strategy's.
    use aimes_repro::strategy::{estimate, PilotSizing};
    let app = estimate::AppEstimate {
        n_tasks: 512,
        max_task_duration: SimDuration::from_mins(30.0),
        mean_task_duration: SimDuration::from_mins(15.0),
        total_staging_mb: 513.0,
    };
    let mw = estimate::MiddlewareEstimate::default();
    let canonical = ExecutionStrategy::paper_late(3);
    let mut pruned = canonical.clone();
    pruned.sizing = PilotSizing::TasksTotal;
    let waits = [SimDuration::from_secs(300.0); 3];
    let e_canon = estimate::estimate_ttc(&app, &canonical, &mw, &waits);
    let e_pruned = estimate::estimate_ttc(&app, &pruned, &mw, &waits);
    assert!(e_pruned.ttc_upper() >= e_canon.ttc_upper());
    // ...while demanding 3x the cores:
    assert_eq!(pruned.pilot_cores(512) * 3, 512 * 3);
    assert_eq!(canonical.pilot_cores(512) * 3, 513); // ceil(512/3)*3
}
