//! Event-trace pin: the tracer's full JSON dump (`Tracer::write_json`) for
//! one fixed-seed run with faults and recovery is byte-stable. The Chrome
//! trace digest covers spans and metrics only; this one covers every
//! tracer event — pilot, unit, batch-job, SAGA, detector and manager
//! names, in emission order, with their components and details. The same
//! run's metrics summary (every counter, gauge and histogram) is pinned
//! beside it, so moving a counter tick is checked as strictly as moving a
//! trace line.

use std::collections::BTreeSet;

use aimes_repro::cluster::ClusterConfig;
use aimes_repro::fault::{
    CascadeSpec, DomainSpec, EvacuationSpec, FaultSpec, OutageKind, OutageSpec, RecoveryPolicy,
};
use aimes_repro::middleware::paper;
use aimes_repro::middleware::{run_application, RunOptions};
use aimes_repro::sim::{SimDuration, SimTime, Telemetry, TraceRecord, Tracer};
use aimes_repro::skeleton::{paper_bag, TaskDurationSpec};
use aimes_repro::strategy::{ExecutionStrategy, ResourceSelection, WalltimePolicy};

/// FNV-1a 64, as hex (the digest the golden-journal suite uses).
fn fnv(bytes: &[u8]) -> String {
    format!("{:016x}", aimes_repro::middleware::recorder::fnv1a64(bytes))
}

/// Run a 16-task bag under `strategy` on `pool` with a tracer and a
/// passive telemetry attached; both handles are returned for inspection.
fn traced_run(
    pool: &[ClusterConfig],
    strategy: &ExecutionStrategy,
    options: RunOptions,
) -> (Tracer, Telemetry) {
    let tracer = Tracer::new();
    let telemetry = Telemetry::new();
    let options = RunOptions {
        tracer: Some(tracer.clone()),
        telemetry: Some(telemetry.clone()),
        ..options
    };
    let app = paper_bag(16, TaskDurationSpec::Uniform15Min);
    run_application(pool, &app, strategy, &options).expect("the run completes");
    (tracer, telemetry)
}

/// A permanent outage on the pinned resource, detected and recovered,
/// plus transient launch failures (SAGA retries) and unit faults
/// (restarts) — every state machine in the stack shows up in the trace.
fn faulty_run() -> (Tracer, Telemetry) {
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
    let options = RunOptions {
        seed: 777,
        submit_at: SimTime::from_secs(600.0),
        faults: Some(faults),
        recovery: Some(RecoveryPolicy::with_detection()),
        ..Default::default()
    };
    traced_run(&pool, &strategy, options)
}

/// The evacuating arm of `tests/cascade_recovery.rs`: a cascade takes out
/// the whole domain the pilots were pinned to, the alarm evacuates it and
/// re-plans onto the other domain.
fn cascade_evacuation_run() -> (Tracer, Telemetry) {
    let pool: Vec<ClusterConfig> = ["ca", "cb", "cc", "cd", "ce", "cf"]
        .iter()
        .map(|n| ClusterConfig::test(n, 4096))
        .collect();
    let mut strategy = ExecutionStrategy::paper_late(3);
    strategy.selection = ResourceSelection::Fixed(vec!["ca".into(), "cb".into(), "cc".into()]);
    strategy.walltime = WalltimePolicy::FixedSecs(6 * 3600);
    let domain = |name: &str, members: [&str; 3]| DomainSpec {
        name: name.into(),
        members: members.iter().map(|m| m.to_string()).collect(),
    };
    let faults = FaultSpec {
        cascade: Some(CascadeSpec {
            domains: vec![
                domain("zone-a", ["ca", "cb", "cc"]),
                domain("zone-b", ["cd", "ce", "cf"]),
            ],
            trigger: OutageSpec {
                resource: "ca".into(),
                at_secs: 300.0,
                duration_secs: 0.0,
                kind: OutageKind::Permanent,
            },
            propagation_chance: 1.0,
            propagation_delay_secs: (120.0, 900.0),
        }),
        ..FaultSpec::none()
    };
    let mut recovery = RecoveryPolicy::with_detection();
    recovery.evacuation = Some(EvacuationSpec::default());
    recovery.checkpoint_interval = SimDuration::from_secs(120.0);
    let options = RunOptions {
        seed: 2016,
        submit_at: SimTime::from_secs(600.0),
        faults: Some(faults),
        recovery: Some(recovery),
        ..Default::default()
    };
    traced_run(&pool, &strategy, options)
}

fn faulty_trace() -> Vec<u8> {
    let (tracer, _) = faulty_run();
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

#[test]
fn metrics_summary_golden_digest() {
    // Regenerate on an intended change with:
    //   cargo test --test event_trace metrics_summary_golden_digest -- --nocapture
    let (_, telemetry) = faulty_run();
    let summary = serde_json::to_string(&telemetry.summary()).expect("summary serializes");
    let digest = fnv(summary.as_bytes());
    println!("metrics summary digest: {digest} ({} bytes)", summary.len());
    assert_eq!(digest, "245a77711c7a61fb");
}

/// Every fact that both ticks a counter and writes a trace line, as
/// (trace event name, counter name). A `*` in the counter name stands for
/// the resource segment of the per-resource SAGA counters.
const COUNTED_FACTS: [(&str, &str); 17] = [
    ("Restart", "unit.manager.restarts"),
    ("Fault", "unit.manager.faults"),
    ("StaleHeartbeat", "pilot.heartbeat.stale"),
    ("Suspected", "pilot.detector.suspected"),
    ("SuspicionCleared", "pilot.detector.suspicion_cleared"),
    ("DeclaredDead", "pilot.detector.declared_dead"),
    ("Blacklist", "pilot.manager.blacklists"),
    ("RecoveryExhausted", "pilot.manager.recovery_exhausted"),
    ("RetrySubmission", "saga.*.retry_submission"),
    ("RetryCancel", "saga.*.retry_cancel"),
    ("RetryStatusQuery", "saga.*.retry_status"),
    ("CancelAbandoned", "saga.*.cancel_abandoned"),
    ("BreakerTrip", "saga.*.breaker_trips"),
    ("Replan", "middleware.recovery.replans"),
    ("ReplanFailed", "middleware.recovery.replan_failed"),
    ("DomainAlarm", "middleware.domain_alarms"),
    ("Reinforce", "middleware.adaptive.reinforcements"),
];

/// Total of every counter matching `pattern` (at most one `*`).
fn counter_total(telemetry: &Telemetry, pattern: &str) -> u64 {
    let (prefix, suffix) = pattern.split_once('*').unwrap_or((pattern, ""));
    telemetry
        .summary()
        .counters
        .iter()
        .filter(|(name, _)| {
            name.len() >= prefix.len() + suffix.len()
                && name.starts_with(prefix)
                && name.ends_with(suffix)
        })
        .map(|(_, n)| n)
        .sum()
}

#[test]
fn trace_lines_and_counters_agree() {
    for (run, (tracer, telemetry)) in [
        ("faulty", faulty_run()),
        ("cascade evacuation", cascade_evacuation_run()),
    ] {
        let records = tracer.snapshot();
        for (event, counter) in COUNTED_FACTS {
            let traced = records.iter().filter(|r| r.event == event).count() as u64;
            assert_eq!(
                traced,
                counter_total(&telemetry, counter),
                "{run} run: {traced} `{event}` trace lines, counter `{counter}` disagrees"
            );
        }
        // A SAGA job's `New` line and its submission counter are one fact.
        let submissions = records
            .iter()
            .filter(|r| r.component.starts_with("saga.") && r.event == "New")
            .count() as u64;
        assert_eq!(
            submissions,
            counter_total(&telemetry, "saga.*.submissions"),
            "{run} run: SAGA `New` lines and submission counters disagree"
        );
    }
}
