//! Pilot-layer invariants under randomized applications and pilot fleets:
//! conservation, dependency ordering, capacity, and walltime safety,
//! checked through the full PilotManager/UnitManager machinery.

use aimes_cluster::{Cluster, ClusterConfig};
use aimes_pilot::{
    Binding, PilotDescription, PilotManager, UmConfig, UnitManager, UnitScheduler, UnitState,
};
use aimes_saga::Session;
use aimes_sim::SimRng;
use aimes_sim::{SimDuration, Simulation, Tracer};
use aimes_skeleton::config::TaskDurationConfig;
use aimes_skeleton::{FileSizeSpec, SkeletonApp, SkeletonConfig, StageConfig, TaskId, TaskMapping};
use aimes_workload::Distribution;
use proptest::prelude::*;
use std::rc::Rc;

/// A random multistage application: widths per stage, all-to-all wiring.
fn random_app(widths: &[u8], seed: u64) -> SkeletonApp {
    let stages: Vec<StageConfig> = widths
        .iter()
        .enumerate()
        .map(|(i, w)| StageConfig {
            name: format!("s{i}"),
            task_count: u32::from(*w) + 1,
            cores_per_task: 1,
            duration: TaskDurationConfig::Dist {
                dist: Distribution::Uniform {
                    lo: 30.0,
                    hi: 300.0,
                },
            },
            input_size_mb: FileSizeSpec::constant(0.5),
            output_size_mb: FileSizeSpec::constant(0.1),
            mapping: if i == 0 {
                TaskMapping::External
            } else {
                TaskMapping::AllToAll
            },
        })
        .collect();
    let cfg = SkeletonConfig {
        name: "prop-app".into(),
        stages,
        iteration: None,
    };
    SkeletonApp::generate(&cfg, &mut SimRng::new(seed)).expect("valid app")
}

fn run_fleet(
    app: &SkeletonApp,
    pilot_cores: &[u8],
    scheduler: UnitScheduler,
    seed: u64,
) -> (UnitManager, PilotManager, Simulation) {
    let mut sim = Simulation::with_tracer(seed, Tracer::disabled());
    let mut session = Session::new();
    session.add_resource(&sim, Cluster::new(ClusterConfig::test("r", 4096)));
    let pm = PilotManager::new(Rc::new(session));
    pm.set_bootstrap_delay(SimDuration::from_secs(5.0));
    let binding = if scheduler == UnitScheduler::Direct {
        Binding::Early
    } else {
        Binding::Late
    };
    let um = UnitManager::new(pm.clone(), UmConfig::new(binding, scheduler));
    let descs: Vec<PilotDescription> = pilot_cores
        .iter()
        .map(|c| PilotDescription::new("r", u32::from(*c) + 1, SimDuration::from_hours(48.0)))
        .collect();
    pm.submit(&mut sim, descs);
    um.submit_units(&mut sim, app.tasks());
    let pm2 = pm.clone();
    um.on_all_done(move |sim| pm2.cancel_all(sim));
    sim.set_event_budget(3_000_000);
    sim.run_to_completion();
    (um, pm, sim)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation: with ample walltime every unit completes exactly once,
    /// no restarts, under every scheduler.
    #[test]
    fn every_unit_completes_exactly_once(
        widths in proptest::collection::vec(0u8..12, 1..4),
        pilots in proptest::collection::vec(3u8..32, 1..4),
        sched_pick in 0u8..3,
        seed in 0u64..1000,
    ) {
        let scheduler = match sched_pick {
            0 => UnitScheduler::Direct,
            1 => UnitScheduler::RoundRobin,
            _ => UnitScheduler::Backfill,
        };
        let app = random_app(&widths, seed);
        let (um, _pm, _sim) = run_fleet(&app, &pilots, scheduler, seed);
        let stats = um.stats();
        prop_assert_eq!(stats.done, app.tasks().len(), "{:?}", stats);
        prop_assert_eq!(stats.failed, 0);
        prop_assert_eq!(stats.restarts, 0);
        for u in um.units_ref().iter() {
            prop_assert_eq!(u.state, UnitState::Done);
            prop_assert_eq!(u.attempts, 1);
        }
    }

    /// Dependency ordering: no unit stages in before all its dependencies
    /// are done, regardless of scheduler and fleet shape.
    #[test]
    fn dependencies_always_respected(
        widths in proptest::collection::vec(0u8..10, 2..4),
        pilots in proptest::collection::vec(3u8..16, 1..3),
        seed in 0u64..1000,
    ) {
        let app = random_app(&widths, seed);
        let (um, _pm, _sim) = run_fleet(&app, &pilots, UnitScheduler::Backfill, seed);
        let units = um.units_ref();
        for u in units.iter() {
            let staged = u.last_time_of(UnitState::StagingInput).expect("ran");
            for dep in app.tasks()[u.id.0 as usize].dependencies().map(TaskId) {
                let dep_done = units[dep.0 as usize]
                    .last_time_of(UnitState::Done)
                    .expect("dep ran");
                prop_assert!(
                    staged >= dep_done,
                    "{} staged at {:?} before dep {} done at {:?}",
                    u.id, staged, dep, dep_done
                );
            }
        }
    }

    /// Capacity: reconstruct per-pilot concurrent usage from unit
    /// timestamps; it never exceeds the pilot's cores. (Units occupy a
    /// core from StagingInput to StagingOutput.)
    #[test]
    fn pilots_never_oversubscribed(
        widths in proptest::collection::vec(0u8..10, 1..3),
        pilots in proptest::collection::vec(3u8..12, 1..3),
        seed in 0u64..1000,
    ) {
        let app = random_app(&widths, seed);
        let (um, pm, _sim) = run_fleet(&app, &pilots, UnitScheduler::RoundRobin, seed);
        for pilot in pm.pilots_ref().iter() {
            let cap = i64::from(pilot.description.cores);
            let mut events: Vec<(f64, i64)> = Vec::new();
            for u in um.units_ref().iter() {
                if u.pilot == Some(pilot.id) {
                    let start = u.last_time_of(UnitState::StagingInput);
                    let end = u.last_time_of(UnitState::StagingOutput);
                    if let (Some(s), Some(e)) = (start, end) {
                        if e > s {
                            events.push((s.as_secs(), 1));
                            events.push((e.as_secs(), -1));
                        }
                    }
                }
            }
            events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
            let mut used = 0i64;
            for (t, d) in events {
                used += d;
                prop_assert!(used <= cap, "pilot {} over capacity at t={t}", pilot.id);
            }
        }
    }
}

#[test]
fn backfill_full_paper_shape_smoke() {
    // One deterministic end-to-end check kept out of proptest for clear
    // failure output: the canonical 3-pilot late-binding configuration.
    let app = random_app(&[9, 4, 1], 7);
    let (um, pm, sim) = run_fleet(&app, &[5, 5, 5], UnitScheduler::Backfill, 7);
    assert!(um.stats().finished());
    assert_eq!(um.stats().done, app.tasks().len());
    for p in pm.pilots_ref().iter() {
        assert!(p.state.is_terminal());
    }
    assert!(sim.now().as_secs() > 0.0);
}
