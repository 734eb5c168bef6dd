//! The failure detector's heartbeat pattern as an engine load: every
//! beat schedules the next one and replaces its chain's far-future
//! timeout (schedule + cancel), so cancelled events pile up faster than
//! they fire and the queue's eager compaction runs all the time. The
//! middleware workloads never reach that path (they compact zero times),
//! so this is where the engine's churn counters are pinned exactly.

use aimes_sim::{EngineStats, EventId, SimDuration, Simulation, Tracer};
use std::cell::RefCell;
use std::rc::Rc;

const CHAINS: usize = 64;
const BEATS: u32 = 2_000;

type Timeouts = Rc<RefCell<Vec<Option<EventId>>>>;

/// One beat of `chain`: drop its pending timeout, and unless this was
/// the last beat, arm a timeout 1000 periods out and schedule the next
/// beat one period out.
fn beat(sim: &mut Simulation, timeouts: &Timeouts, chain: usize, remaining: u32, period: f64) {
    if let Some(ev) = timeouts.borrow_mut()[chain].take() {
        sim.cancel(ev);
    }
    if remaining == 0 {
        return;
    }
    let ev = sim.schedule_in(SimDuration::from_secs(period * 1000.0), |_| {});
    timeouts.borrow_mut()[chain] = Some(ev);
    let timeouts = Rc::clone(timeouts);
    sim.schedule_in(SimDuration::from_secs(period), move |sim| {
        beat(sim, &timeouts, chain, remaining - 1, period)
    });
}

fn heartbeat_stats() -> EngineStats {
    let mut sim = Simulation::with_tracer(20160523, Tracer::disabled());
    let timeouts: Timeouts = Rc::new(RefCell::new(vec![None; CHAINS]));
    for chain in 0..CHAINS {
        // Slightly detuned periods so beats interleave instead of piling
        // on one instant.
        let period = 1.0 + chain as f64 * 0.013;
        beat(&mut sim, &timeouts, chain, BEATS, period);
    }
    sim.run_to_completion();
    sim.engine_stats()
}

#[test]
fn heartbeat_churn_counters_are_pinned() {
    // Every beat fires and every timeout is cancelled: 64 × 2000 of each.
    // The live set never exceeds one beat plus one timeout per chain, and
    // compaction keeps the cancelled backlog at most half the heap.
    assert_eq!(
        heartbeat_stats(),
        EngineStats {
            events_processed: 128_000,
            events_scheduled: 256_000,
            events_cancelled: 128_000,
            pending_events_hwm: 128,
            compactions: 1_276,
        }
    );
}
