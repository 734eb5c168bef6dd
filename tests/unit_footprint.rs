//! What a unit costs the unit manager. A unit holds the four numbers it
//! reads of its task (`UnitWork`), not a copy of the task, so submitting
//! a bag allocates one `timestamps` buffer per unit and a fixed number of
//! per-manager tables. Measured here under the counting allocator: a
//! task clone per unit (its stage name, file lists and file names) would
//! cost five more allocations each and break the bound.

#[global_allocator]
static ALLOC: aimes_bench::alloc::CountingAlloc = aimes_bench::alloc::CountingAlloc;

use aimes_bench::alloc::snapshot;
use aimes_repro::cluster::{Cluster, ClusterConfig};
use aimes_repro::pilot::{Binding, PilotManager, UmConfig, UnitManager, UnitScheduler, UnitState};
use aimes_repro::saga::Session;
use aimes_repro::sim::{SimRng, Simulation, Tracer};
use aimes_repro::skeleton::{paper_bag, SkeletonApp, TaskDurationSpec};
use std::rc::Rc;

/// Tasks in the submitted bag.
const TASKS: u32 = 4096;

/// Allocations a submission may make beyond one per unit: the manager's
/// per-unit tables, its ready queue and the scheduling pass it requests
/// (16 when this test was written), with room to spare. One more
/// allocation per unit would exceed it many times over.
const PER_SUBMISSION: u64 = 64;

#[test]
fn submitting_a_bag_allocates_one_buffer_per_unit() {
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
    let budget = u64::from(TASKS) + PER_SUBMISSION;
    assert!(
        allocs <= budget,
        "submitting {TASKS} units made {allocs} allocations, budget {budget}"
    );
}
