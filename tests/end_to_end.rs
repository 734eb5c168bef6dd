//! End-to-end integration: every Table I strategy through the full stack
//! (skeleton → bundle → execution manager → pilots → SAGA → simulated
//! clusters) on the real testbed catalog.

use aimes_repro::middleware::paper;
use aimes_repro::middleware::{run_application, RunOptions};
use aimes_repro::sim::{SimTime, Tracer};
use aimes_repro::skeleton::{paper_bag, TaskDurationSpec};

fn opts(seed: u64) -> RunOptions {
    RunOptions {
        seed,
        submit_at: SimTime::from_secs(8.0 * 3600.0),
        ..Default::default()
    }
}

#[test]
fn all_four_paper_strategies_complete_on_the_testbed() {
    let cases = [
        (paper::early_strategy(), TaskDurationSpec::Uniform15Min),
        (paper::early_strategy(), TaskDurationSpec::Gaussian),
        (paper::late_strategy(3), TaskDurationSpec::Uniform15Min),
        (paper::late_strategy(3), TaskDurationSpec::Gaussian),
    ];
    for (i, (strategy, spec)) in cases.iter().enumerate() {
        let app = paper_bag(64, *spec);
        let r = run_application(&paper::testbed(), &app, strategy, &opts(100 + i as u64))
            .unwrap_or_else(|e| panic!("case {i} failed: {e}"));
        assert_eq!(r.units_done, 64, "case {i}");
        assert_eq!(r.units_failed, 0, "case {i}");
        // Decomposition invariants.
        let b = &r.breakdown;
        assert!(b.tw <= b.ttc, "case {i}: Tw exceeds TTC");
        assert!(b.tx <= b.ttc, "case {i}: Tx exceeds TTC");
        assert!(b.ts <= b.ttc, "case {i}: Ts exceeds TTC");
        assert!(
            b.tw + b.tx + b.ts >= b.ttc,
            "case {i}: union components must cover the run (within overlap)"
        );
        // Execution of 64 x >=1 min tasks takes at least a task length.
        assert!(b.tx.as_secs() >= 60.0, "case {i}");
    }
}

#[test]
fn early_uses_one_resource_late_uses_three() {
    let app = paper_bag(32, TaskDurationSpec::Uniform15Min);
    let early =
        run_application(&paper::testbed(), &app, &paper::early_strategy(), &opts(5)).unwrap();
    assert_eq!(early.resources_used.len(), 1);
    assert_eq!(early.pilot_setup_secs.len(), 1);

    let late =
        run_application(&paper::testbed(), &app, &paper::late_strategy(3), &opts(5)).unwrap();
    let mut distinct = late.resources_used.clone();
    distinct.sort();
    distinct.dedup();
    assert_eq!(distinct.len(), 3);
}

#[test]
fn full_stack_is_deterministic() {
    let app = paper_bag(32, TaskDurationSpec::Gaussian);
    let run =
        || run_application(&paper::testbed(), &app, &paper::late_strategy(3), &opts(77)).unwrap();
    let a = run();
    let b = run();
    assert_eq!(a.breakdown, b.breakdown);
    assert_eq!(a.resources_used, b.resources_used);
    assert_eq!(a.pilot_setup_secs, b.pilot_setup_secs);
    assert_eq!(a.restarts, b.restarts);
}

#[test]
fn different_seeds_face_different_queues() {
    let app = paper_bag(32, TaskDurationSpec::Uniform15Min);
    let ttcs: Vec<f64> = (0..4)
        .map(|s| {
            run_application(&paper::testbed(), &app, &paper::late_strategy(3), &opts(s))
                .unwrap()
                .breakdown
                .ttc
                .as_secs()
        })
        .collect();
    let min = ttcs.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = ttcs.iter().cloned().fold(0.0, f64::max);
    assert!(max > min, "seeds should differ: {ttcs:?}");
}

#[test]
fn trace_records_full_pilot_and_unit_lifecycles() {
    let app = paper_bag(8, TaskDurationSpec::Uniform15Min);
    let tracer = Tracer::new();
    let r = run_application(
        &paper::testbed(),
        &app,
        &paper::late_strategy(2),
        &RunOptions {
            seed: 3,
            submit_at: SimTime::from_secs(6.0 * 3600.0),
            tracer: Some(tracer.clone()),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(r.units_done, 8);
    for unit in 0..8 {
        let component = format!("unit.{unit:05}");
        let states: Vec<String> = tracer
            .for_component(&component)
            .into_iter()
            .map(|rec| rec.event)
            .collect();
        assert_eq!(
            states,
            [
                "PendingExecution",
                "StagingInput",
                "Executing",
                "StagingOutput",
                "Done"
            ],
            "{component}"
        );
    }
    for pilot in 0..2 {
        let component = format!("pilot.{pilot}");
        let states = tracer.for_component(&component);
        assert!(
            states.iter().any(|rec| rec.event == "Active"),
            "{component} never became active: {states:?}"
        );
    }
}

#[test]
fn tiny_and_large_applications_both_work() {
    for n in [8u32, 1024] {
        let app = paper_bag(n, TaskDurationSpec::Uniform15Min);
        let r = run_application(&paper::testbed(), &app, &paper::late_strategy(3), &opts(9))
            .unwrap_or_else(|e| panic!("n={n}: {e}"));
        assert_eq!(r.units_done as u32, n);
    }
}
