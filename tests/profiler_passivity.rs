//! Profiler passivity: attaching the engine self-profiler must not
//! change observable behavior — the profiler reads the clock and counts
//! scopes, but never schedules events, draws randomness, or reorders
//! work. These tests pin that claim against the same golden digests the
//! un-profiled runs are pinned to (see `golden_journal.rs`), and bound
//! the profiler's overhead on the event-dispatch hot path.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Mutex, MutexGuard};

// The shipped `experiments` binary runs under the counting allocator, so
// the overhead gate below is measured in the same environment it ships
// in — per-event cost includes the allocator shim on both sides of the
// comparison.
#[global_allocator]
static ALLOC: aimes_bench::alloc::CountingAlloc = aimes_bench::alloc::CountingAlloc;

use aimes_repro::cluster::ClusterConfig;
use aimes_repro::fault::{FaultSpec, OutageKind, OutageSpec, RecoveryPolicy};
use aimes_repro::middleware::paper;
use aimes_repro::middleware::{run_application, RunJournal, RunOptions};
use aimes_repro::sim::{Profiler, SimDuration, SimTime, Simulation, Tracer};
use aimes_repro::skeleton::{paper_bag, TaskDurationSpec};
use aimes_repro::strategy::ResourceSelection;

// The same pinned digests as golden_journal.rs: a profiled run must land
// on the identical bytes.
const GOLDEN_EXP1: &str = "3d15343bf1674af7";
const GOLDEN_FAULTY: &str = "978899a2c7723d7d";

/// The tests in this file run one at a time: the overhead gate times
/// dispatch, and a golden replay on a sibling thread would steal its CPU.
static SERIAL: Mutex<()> = Mutex::new(());

/// Hold the file's lock; a test that panicked while holding it does not
/// fail the others.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn pool() -> Vec<ClusterConfig> {
    vec![
        ClusterConfig::test("one", 256),
        ClusterConfig::test("two", 256),
        ClusterConfig::test("three", 512),
    ]
}

/// FNV-1a 64 over the journal's JSONL serialization (same as
/// `golden_journal.rs`).
fn digest(journal: &RunJournal) -> String {
    format!(
        "{:016x}",
        aimes_repro::middleware::recorder::fnv1a64(journal.to_jsonl().as_bytes())
    )
}

#[test]
fn profiled_exp1_journal_is_bit_identical_to_golden() {
    let _serial = serial();
    let app = paper_bag(32, TaskDurationSpec::Uniform15Min);
    let journal = Rc::new(RefCell::new(RunJournal::new()));
    let profiler = Profiler::new();
    let options = RunOptions {
        seed: 101,
        submit_at: SimTime::from_secs(600.0),
        journal: Some(Rc::clone(&journal)),
        profiler: Some(profiler.clone()),
        ..Default::default()
    };
    run_application(&pool(), &app, &paper::early_strategy(), &options)
        .expect("profiled run completes");
    let out = journal.borrow().clone();
    assert_eq!(
        digest(&out),
        GOLDEN_EXP1,
        "attaching the profiler changed exp1's journal bytes"
    );
    // And the profiler really was live: every dispatched event counted,
    // every subsystem left a scope.
    let report = profiler.report();
    assert!(report.engine.events_processed > 0);
    let labels: Vec<&str> = report.labels.iter().map(|l| l.label.as_str()).collect();
    for expected in ["engine.dispatch", "cluster.scheduler", "unit.manager"] {
        assert!(
            labels.contains(&expected),
            "missing label {expected}: {labels:?}"
        );
    }
}

#[test]
fn profiled_chaos_journal_is_bit_identical_to_golden() {
    let _serial = serial();
    // The faulty-recovery scenario exercises detection, kill ordering,
    // blacklisting, and re-planning — the paths where a non-passive
    // observer would most plausibly perturb event order.
    let mut strategy = paper::late_strategy(2);
    strategy.selection = ResourceSelection::Fixed(vec!["one".into()]);
    let faults = FaultSpec {
        outages: vec![OutageSpec {
            resource: "one".into(),
            at_secs: 300.0,
            duration_secs: 600.0,
            kind: OutageKind::Permanent,
        }],
        ..FaultSpec::none()
    };
    let app = paper_bag(16, TaskDurationSpec::Uniform15Min);
    let journal = Rc::new(RefCell::new(RunJournal::new()));
    let options = RunOptions {
        seed: 777,
        submit_at: SimTime::from_secs(600.0),
        faults: Some(faults),
        recovery: Some(RecoveryPolicy::with_detection()),
        journal: Some(Rc::clone(&journal)),
        profiler: Some(Profiler::new()),
        ..Default::default()
    };
    run_application(&pool(), &app, &strategy, &options).expect("profiled chaos run completes");
    let out = journal.borrow().clone();
    assert_eq!(
        digest(&out),
        GOLDEN_FAULTY,
        "attaching the profiler changed the chaos journal bytes"
    );
}

/// The heartbeat churn pattern (its counters are pinned in
/// `crates/sim/tests/heartbeat_churn.rs`): every beat cancels and
/// replaces a far-future timeout, then schedules the next beat — the
/// detector's schedule + cancel churn, over 64 chains of `beats` beats.
/// Returns events/sec.
fn heartbeat_events_per_sec(profiled: bool, beats: u32) -> f64 {
    use aimes_repro::sim::EventId;

    fn beat(
        sim: &mut Simulation,
        timeouts: &Rc<RefCell<Vec<Option<EventId>>>>,
        chain: usize,
        remaining: u32,
        period: f64,
    ) {
        if let Some(ev) = timeouts.borrow_mut()[chain].take() {
            sim.cancel(ev);
        }
        if remaining == 0 {
            return;
        }
        let ev = sim.schedule_in(SimDuration::from_secs(period * 1000.0), |_| {});
        timeouts.borrow_mut()[chain] = Some(ev);
        let handles = Rc::clone(timeouts);
        sim.schedule_in(SimDuration::from_secs(period), move |sim| {
            beat(sim, &handles, chain, remaining - 1, period)
        });
    }

    let chains = 64usize;
    let mut sim = Simulation::with_tracer(7, Tracer::disabled());
    if profiled {
        sim.attach_profiler(Profiler::new());
    }
    let timeouts: Rc<RefCell<Vec<Option<EventId>>>> = Rc::new(RefCell::new(vec![None; chains]));
    for chain in 0..chains {
        let period = 1.0 + chain as f64 * 0.013;
        beat(&mut sim, &timeouts, chain, beats, period);
    }
    let start = std::time::Instant::now();
    sim.run_to_completion();
    sim.events_processed() as f64 / start.elapsed().as_secs_f64()
}

#[test]
fn profiler_overhead_on_dispatch_is_bounded() {
    let _serial = serial();
    // The gate: heartbeat-churn events/sec with profiling within 10% of
    // disabled, judged on the median of paired ratios. Each pair times
    // both arms back to back, alternating which goes first, so host drift
    // or a burst of load skews one pair rather than one arm, and the
    // median sheds the pairs a burst did skew. 18 arms of 4,500 beats per
    // chain (about 290k events each) run fewer events than six arms of a
    // million did under the former best-of-3 gate.
    const PAIRS: usize = 9;
    const BEATS: u32 = 4_500;
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|pair| {
            let plain_first = pair % 2 == 0;
            let first = heartbeat_events_per_sec(!plain_first, BEATS);
            let second = heartbeat_events_per_sec(plain_first, BEATS);
            let (plain, profiled) = if plain_first {
                (first, second)
            } else {
                (second, first)
            };
            profiled / plain
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[PAIRS / 2];
    println!(
        "heartbeat: median profiled/plain {:.1}% over {PAIRS} pairs (range {:.1}%..{:.1}%)",
        100.0 * median,
        100.0 * ratios[0],
        100.0 * ratios[PAIRS - 1]
    );
    assert!(
        median >= 0.90,
        "profiled dispatch too slow: median {:.1}% of plain over {PAIRS} pairs, gate is 90% \
         (ratios {ratios:?})",
        100.0 * median
    );
}
