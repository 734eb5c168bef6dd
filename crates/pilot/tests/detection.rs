//! End-to-end detection-layer tests: pilots die (or merely look dead) and
//! the pilot manager must react purely to the signals it can observe —
//! missed heartbeats and status queries — never to injection ground truth.

use aimes_cluster::{Cluster, ClusterConfig};
use aimes_pilot::{
    Binding, DetectionPolicy, PilotDescription, PilotManager, PilotRecovery, PilotState, UmConfig,
    UnitManager, UnitScheduler, UnitState,
};
use aimes_saga::Session;
use aimes_sim::{SimDuration, SimRng, SimTime, Simulation};
use aimes_skeleton::{paper_bag, SkeletonApp, TaskDurationSpec, TaskSpec};
use std::rc::Rc;

fn d(s: f64) -> SimDuration {
    SimDuration::from_secs(s)
}

/// Tight timings so the tests stay fast: 30 s heartbeats, suspect after
/// 90 s of silence, declare after 240 s.
fn quick_policy() -> DetectionPolicy {
    DetectionPolicy {
        heartbeat_interval: d(30.0),
        suspect_after: d(90.0),
        declare_after: d(240.0),
        ..DetectionPolicy::default()
    }
}

fn setup(seed: u64) -> (Simulation, PilotManager, UnitManager) {
    let sim = Simulation::new(seed);
    let mut session = Session::new();
    session.add_resource(&sim, Cluster::new(ClusterConfig::test("stampede", 64)));
    let pm = PilotManager::new(Rc::new(session));
    pm.set_bootstrap_delay(d(10.0));
    pm.set_detection(quick_policy());
    let um = UnitManager::new(
        pm.clone(),
        UmConfig::new(Binding::Late, UnitScheduler::Backfill),
    );
    (sim, pm, um)
}

fn bag_tasks(n: u32) -> Vec<TaskSpec> {
    let cfg = paper_bag(n, TaskDurationSpec::Uniform15Min);
    SkeletonApp::generate(&cfg, &mut SimRng::new(1))
        .unwrap()
        .tasks()
        .to_vec()
}

#[test]
fn silent_death_is_declared_and_recovered_without_an_oracle() {
    let (mut sim, pm, um) = setup(23);
    pm.set_recovery(PilotRecovery {
        backoff: d(30.0),
        ..Default::default()
    });
    pm.submit(
        &mut sim,
        vec![PilotDescription::new("stampede", 16, d(40_000.0))],
    );
    um.submit_units(&mut sim, &bag_tasks(8));
    let pm2 = pm.clone();
    um.on_all_done(move |sim| pm2.cancel_all(sim));
    // A 2000 s outage at t = 300 kills the pilot's batch job. Nobody
    // tells the pilot manager: it must notice the silence on its own.
    let cluster = pm.session().service("stampede").unwrap().cluster();
    sim.schedule_at(SimTime::from_secs(300.0), move |sim| {
        cluster.inject_outage(sim, d(2_000.0), true);
    });
    sim.run_to_completion();

    let stats = um.stats();
    assert_eq!(stats.done, 8, "{stats:?}");
    assert_eq!(pm.replacements(), 1);
    // Exactly one detection, with a Td bounded by the declare timeout
    // (the status-query confirmation should make it much shorter).
    let tds = pm.detection_times();
    assert_eq!(tds.len(), 1, "one silent death, one detection");
    let td = tds[0].as_secs();
    assert!(td > 0.0 && td < 240.0, "Td = {td}");
    // The recovery path ran on observed signals, visible in the trace.
    let events: Vec<String> = sim
        .tracer()
        .snapshot()
        .iter()
        .map(|e| e.event.clone())
        .collect();
    for needed in ["WentSilent", "UnitsStranded", "DeclaredDead"] {
        assert!(events.iter().any(|e| e == needed), "missing {needed}");
    }
    // During the silent window the client-visible unit states froze:
    // every stranded unit restarted exactly at declaration, not before.
    let declared = pm.detection_windows()[0].1;
    for u in um.units_ref().iter() {
        assert_eq!(u.state, UnitState::Done);
        if u.attempts > 1 {
            assert_eq!(u.last_time_of(UnitState::PendingExecution), Some(declared));
        }
    }
}

#[test]
fn delayed_heartbeats_recover_without_replacement() {
    let (mut sim, pm, um) = setup(23);
    pm.set_recovery(PilotRecovery::default());
    pm.submit(
        &mut sim,
        vec![PilotDescription::new("stampede", 16, d(40_000.0))],
    );
    um.submit_units(&mut sim, &bag_tasks(8));
    let pm2 = pm.clone();
    um.on_all_done(move |sim| pm2.cancel_all(sim));
    // A slow WAN window: heartbeats emitted in [300, 500] land 120 s
    // late — past the suspect threshold (90 s), short of the declare
    // threshold (240 s). The pilot is alive the whole time.
    pm.inject_heartbeat_delay(
        "stampede",
        SimTime::from_secs(300.0),
        SimTime::from_secs(500.0),
        d(120.0),
    );
    sim.run_to_completion();

    let stats = um.stats();
    assert_eq!(stats.done, 8, "{stats:?}");
    assert!(
        pm.false_suspicions() >= 1,
        "the 120 s delay must trip a suspicion"
    );
    // ...but the resumed heartbeats cleared it: no declaration, no
    // replacement, no restarted units.
    assert_eq!(pm.replacements(), 0);
    assert!(pm.detection_times().is_empty());
    assert_eq!(stats.restarts, 0);
    assert_eq!(pm.pilots_ref()[0].state, PilotState::Canceled);
}

#[test]
fn stale_heartbeats_after_declaration_do_not_resurrect_the_pilot() {
    let (mut sim, pm, um) = setup(23);
    pm.set_recovery(PilotRecovery {
        backoff: d(30.0),
        ..Default::default()
    });
    pm.submit(
        &mut sim,
        vec![PilotDescription::new("stampede", 16, d(40_000.0))],
    );
    um.submit_units(&mut sim, &bag_tasks(8));
    let pm2 = pm.clone();
    um.on_all_done(move |sim| pm2.cancel_all(sim));
    // A partition delays every heartbeat emitted in [100, 400] by a full
    // hour. By its evidence the detector rightly declares the (live)
    // pilot dead; when the delayed heartbeats finally land they must be
    // dropped as stale, not resurrect a terminal pilot.
    pm.inject_heartbeat_delay(
        "stampede",
        SimTime::from_secs(100.0),
        SimTime::from_secs(400.0),
        d(3_600.0),
    );
    sim.run_to_completion();

    let stats = um.stats();
    assert_eq!(stats.done, 8, "{stats:?}");
    assert_eq!(pm.replacements(), 1, "false declaration costs a pilot");
    assert!(
        pm.stale_signals() > 0,
        "hour-late heartbeats must be dropped as stale"
    );
    // The falsely-declared pilot stays terminal; its replacement (whose
    // heartbeats start after the window) finishes the run untouched.
    assert!(pm.pilots_ref()[0].state.is_terminal());
    assert_eq!(pm.false_suspicions(), 0, "it never recovered in time");
}
