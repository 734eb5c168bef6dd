//! Event-trace pin: the tracer's full JSON dump (`Tracer::write_json`) for
//! one fixed-seed run with faults and recovery is byte-stable. The Chrome
//! trace digest covers spans and metrics only; this one covers every
//! tracer event — pilot, unit, batch-job, SAGA, detector and manager
//! names, in emission order, with their components and details.

use std::collections::BTreeSet;

use aimes_repro::cluster::ClusterConfig;
use aimes_repro::fault::{FaultSpec, OutageKind, OutageSpec, RecoveryPolicy};
use aimes_repro::middleware::paper;
use aimes_repro::middleware::{run_application, RunOptions};
use aimes_repro::sim::{SimTime, TraceRecord, Tracer};
use aimes_repro::skeleton::{paper_bag, TaskDurationSpec};
use aimes_repro::strategy::ResourceSelection;

/// FNV-1a 64 (the digest the golden-journal suite uses).
fn fnv(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// A permanent outage on the pinned resource, detected and recovered,
/// plus transient launch failures (SAGA retries) and unit faults
/// (restarts) — every state machine in the stack shows up in the trace.
fn faulty_trace() -> Vec<u8> {
    let pool = vec![
        ClusterConfig::test("one", 256),
        ClusterConfig::test("two", 256),
        ClusterConfig::test("three", 512),
    ];
    let mut strategy = paper::late_strategy(2);
    strategy.selection = ResourceSelection::Fixed(vec!["one".into()]);
    let faults = FaultSpec {
        outages: vec![OutageSpec {
            resource: "one".into(),
            at_secs: 300.0,
            duration_secs: 600.0,
            kind: OutageKind::Permanent,
        }],
        launch_transient_chance: 0.4,
        unit_failure_chance: 0.2,
        ..FaultSpec::none()
    };
    let tracer = Tracer::new();
    let options = RunOptions {
        seed: 777,
        submit_at: SimTime::from_secs(600.0),
        faults: Some(faults),
        recovery: Some(RecoveryPolicy::with_detection()),
        tracer: Some(tracer.clone()),
        ..Default::default()
    };
    let app = paper_bag(16, TaskDurationSpec::Uniform15Min);
    run_application(&pool, &app, &strategy, &options).expect("faulty run completes");
    let mut buf = Vec::new();
    tracer.write_json(&mut buf).expect("writes");
    buf
}

#[test]
fn event_trace_covers_every_state_machine() {
    let trace = String::from_utf8(faulty_trace()).expect("trace is UTF-8");
    let records: Vec<TraceRecord> =
        serde_json::from_str(&trace).expect("trace is a JSON array of records");
    let names: BTreeSet<&str> = records.iter().map(|r| r.event.as_str()).collect();
    for expected in [
        // pilot
        "PendingLaunch",
        "Launching",
        "Active",
        // unit, with its restart/fault verbs
        "PendingExecution",
        "Executing",
        "Restart",
        "Fault",
        // batch job
        "Queued",
        "Running",
        "Killed",
        // SAGA, with a retry verb
        "Pending",
        "RetrySubmission",
        // detector
        "Suspected",
        "DeclaredDead",
        // manager
        "UnitsStranded",
        "Replan",
        "AllDone",
    ] {
        assert!(
            names.contains(expected),
            "event {expected:?} missing from the trace; got {names:?}"
        );
    }
}

#[test]
fn event_trace_golden_digest() {
    // Regenerate on an intended change with:
    //   cargo test --test event_trace event_trace_golden_digest -- --nocapture
    let trace = faulty_trace();
    let digest = fnv(&trace);
    println!("event trace digest: {digest} ({} bytes)", trace.len());
    assert_eq!(digest, "c347f80bdeebc2e3");
}
