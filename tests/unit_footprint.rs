//! What a task costs the skeleton and a unit the unit manager, measured
//! under the counting allocator. A task is plain data: its file names and
//! dependencies are derived from its stage and index, so generating an
//! application allocates per stage, not per task. A unit holds the four
//! numbers it reads of its task (`UnitWork`), not a copy of the task, and
//! keeps its state history inline, so submitting a bag allocates per
//! manager (a fixed number of tables), not per unit.

#[global_allocator]
static ALLOC: aimes_bench::alloc::CountingAlloc = aimes_bench::alloc::CountingAlloc;

use aimes_bench::alloc::snapshot;
use aimes_repro::cluster::{Cluster, ClusterConfig};
use aimes_repro::pilot::{Binding, PilotManager, UmConfig, UnitManager, UnitScheduler, UnitState};
use aimes_repro::saga::Session;
use aimes_repro::sim::{SimRng, Simulation, Tracer};
use aimes_repro::skeleton::{paper_bag, SkeletonApp, TaskDurationSpec};
use std::rc::Rc;
use std::sync::Mutex;

/// The allocation counters are process-wide, so the tests here measure
/// one at a time.
static MEASURING: Mutex<()> = Mutex::new(());

/// Tasks in the submitted bag.
const TASKS: u32 = 4096;

/// Tasks in the generated bag: a `large_bag` run's size.
const GENERATED: u32 = 16_384;

/// Allocations generating a one-stage application may make: the stage
/// list, the task list, the stage ranges and names and the app's name (6
/// when this test was written, 13 with the counter snapshot's own), with
/// room to spare. One allocation per task would exceed it a thousandfold.
const PER_GENERATION: u64 = 16;

#[test]
fn generating_a_bag_allocates_per_stage_not_per_task() {
    let _turn = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let config = paper_bag(GENERATED, TaskDurationSpec::Gaussian);
    let mut rng = SimRng::new(1);
    let before = snapshot();
    let app = SkeletonApp::generate(&config, &mut rng).unwrap();
    let allocs = snapshot().since(&before).allocs;

    assert_eq!(app.tasks().len(), GENERATED as usize);
    assert!(
        allocs <= PER_GENERATION,
        "generating {GENERATED} tasks made {allocs} allocations, budget {PER_GENERATION}"
    );
}

/// Allocations a submission may make: the manager's per-unit tables, its
/// ready queue and the scheduling pass it requests (16 when this test was
/// written), with room to spare. One allocation per unit would exceed it
/// many times over.
const PER_SUBMISSION: u64 = 64;

#[test]
fn submitting_a_bag_allocates_per_manager_not_per_unit() {
    let _turn = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let mut sim = Simulation::with_tracer(1, Tracer::disabled());
    let mut session = Session::new();
    session.add_resource(&sim, Cluster::new(ClusterConfig::test("stampede", 64)));
    let pm = PilotManager::new(Rc::new(session));
    let um = UnitManager::new(pm, UmConfig::new(Binding::Late, UnitScheduler::Backfill));
    let app = SkeletonApp::generate(
        &paper_bag(TASKS, TaskDurationSpec::Uniform15Min),
        &mut SimRng::new(1),
    )
    .unwrap();

    let before = snapshot();
    um.submit_units(&mut sim, app.tasks());
    let allocs = snapshot().since(&before).allocs;

    assert_eq!(um.stats().total, TASKS as usize);
    assert!(um
        .units_ref()
        .iter()
        .all(|u| u.state == UnitState::PendingExecution));
    assert!(
        allocs <= PER_SUBMISSION,
        "submitting {TASKS} units made {allocs} allocations, budget {PER_SUBMISSION}"
    );
}
