//! Fault-injection + self-healing integration: deterministic outage
//! schedules through the full middleware stack, pilot replacement,
//! re-planning after permanent resource loss, and typed errors when
//! recovery is disabled. The acceptance bar: faults never hang a run —
//! they either heal or surface as a typed [`RunError`].

use aimes_repro::cluster::ClusterConfig;
use aimes_repro::fault::{FaultSpec, OutageKind, OutageSpec, RecoveryPolicy, StagingFault};
use aimes_repro::middleware::paper;
use aimes_repro::middleware::{run_application, RunError, RunOptions};
use aimes_repro::sim::{SimDuration, SimTime};
use aimes_repro::skeleton::{paper_bag, TaskDurationSpec};
use aimes_repro::strategy::ResourceSelection;
use proptest::prelude::*;

fn pool() -> Vec<ClusterConfig> {
    vec![
        ClusterConfig::test("one", 256),
        ClusterConfig::test("two", 256),
    ]
}

/// One 16-task bag pinned to resource "one" so outages there are fatal
/// without recovery.
fn pinned_strategy() -> aimes_repro::strategy::ExecutionStrategy {
    let mut strategy = paper::late_strategy(1);
    strategy.selection = ResourceSelection::Fixed(vec!["one".into()]);
    strategy
}

fn outage_spec(kind: OutageKind) -> FaultSpec {
    FaultSpec {
        outages: vec![OutageSpec {
            resource: "one".into(),
            at_secs: 300.0,
            duration_secs: 600.0,
            kind,
        }],
        ..FaultSpec::none()
    }
}

fn opts(seed: u64, faults: FaultSpec, recovery: Option<RecoveryPolicy>) -> RunOptions {
    RunOptions {
        seed,
        submit_at: SimTime::from_secs(600.0),
        faults: Some(faults),
        recovery,
        ..Default::default()
    }
}

#[test]
fn outage_mid_run_heals_via_replacement_pilot() {
    // The outage at t+300 s kills the only pilot mid-execution; the
    // self-healing layer submits a replacement, the interrupted units
    // restart on it, and the whole bag completes.
    let app = paper_bag(16, TaskDurationSpec::Uniform15Min);
    let r = run_application(
        &pool(),
        &app,
        &pinned_strategy(),
        &opts(
            11,
            outage_spec(OutageKind::Outage),
            Some(RecoveryPolicy::default()),
        ),
    )
    .unwrap();
    assert_eq!(r.units_done, 16);
    assert_eq!(r.units_failed, 0);
    assert!(r.restarts > 0, "killed units must have restarted");
    assert!(r.replacements > 0, "a replacement pilot must have launched");
    assert!(r.mean_recovery_secs > 0.0);
    assert!(
        r.breakdown.tr.as_secs() > 0.0,
        "recovery overhead must show up in the TTC decomposition"
    );
    assert!(
        r.wasted_core_hours > 0.0,
        "the aborted first attempts burned allocation"
    );
}

#[test]
fn same_outage_without_recovery_surfaces_typed_error() {
    // Identical schedule, recovery off: the pilot dies, nothing replaces
    // it, and the run reports PilotsDrained instead of hanging.
    let app = paper_bag(16, TaskDurationSpec::Uniform15Min);
    let err = run_application(
        &pool(),
        &app,
        &pinned_strategy(),
        &opts(11, outage_spec(OutageKind::Outage), None),
    )
    .unwrap_err();
    assert!(matches!(err, RunError::PilotsDrained { .. }), "{err}");
    assert!(err.contains("drained"), "{err}");
}

#[test]
fn permanent_loss_replans_onto_survivors() {
    // Resource "one" is decommissioned mid-run. With re-planning on, the
    // middleware re-derives the strategy over the survivors and finishes
    // on "two" — no pilot-level replacement needed (one layer owns it).
    let app = paper_bag(16, TaskDurationSpec::Uniform15Min);
    let r = run_application(
        &pool(),
        &app,
        &pinned_strategy(),
        &opts(
            13,
            outage_spec(OutageKind::Permanent),
            Some(RecoveryPolicy::default()),
        ),
    )
    .unwrap();
    assert_eq!(r.units_done, 16);
    assert_eq!(r.replans, 1, "exactly one re-plan after the loss");
    assert_eq!(
        r.replacements, 0,
        "re-planning owns cross-resource recovery"
    );
    assert!(r.restarts > 0);
}

#[test]
fn permanent_loss_reroutes_replacement_when_replan_disabled() {
    // Same loss, but the policy delegates to the pilot layer: the
    // replacement pilot is rerouted off the blacklisted resource.
    let app = paper_bag(16, TaskDurationSpec::Uniform15Min);
    let r = run_application(
        &pool(),
        &app,
        &pinned_strategy(),
        &opts(
            13,
            outage_spec(OutageKind::Permanent),
            Some(RecoveryPolicy {
                replan_on_resource_loss: false,
                ..RecoveryPolicy::default()
            }),
        ),
    )
    .unwrap();
    assert_eq!(r.units_done, 16);
    assert_eq!(r.replans, 0);
    assert!(r.replacements > 0, "the pilot layer must have rerouted");
}

#[test]
fn permanent_loss_without_recovery_is_resource_lost() {
    let app = paper_bag(16, TaskDurationSpec::Uniform15Min);
    let err = run_application(
        &pool(),
        &app,
        &pinned_strategy(),
        &opts(13, outage_spec(OutageKind::Permanent), None),
    )
    .unwrap_err();
    match &err {
        RunError::ResourceLost { resource, .. } => assert_eq!(resource, "one"),
        other => panic!("expected ResourceLost, got {other}"),
    }
    assert!(err.contains("lost"), "{err}");
}

#[test]
fn launch_failure_blacklist_triggers_replan() {
    // No scheduled outage at all: resource "one" simply eats pilot
    // launches (injected permanent submission failures) until the pilot
    // manager blacklists it. With re-planning enabled the pilot layer
    // deliberately does not reroute — the middleware must hear about the
    // blacklist and re-derive the strategy over "two", or the pool drains
    // with recovery nominally on.
    let app = paper_bag(16, TaskDurationSpec::Uniform15Min);
    let faults = FaultSpec {
        launch_permanent_chance: 0.7,
        ..FaultSpec::none()
    };
    let r = run_application(
        &pool(),
        &app,
        &pinned_strategy(),
        &opts(0, faults.clone(), Some(RecoveryPolicy::default())),
    )
    .unwrap();
    assert_eq!(r.units_done, 16);
    assert!(r.replans >= 1, "blacklisting must trigger a re-plan");
    assert!(
        r.replacements > 0,
        "on-resource replacements were attempted"
    );
    // Same schedule, recovery off: the lone pilot's launch fails, nothing
    // replaces it, and the run ends in a typed error instead of hanging.
    let err =
        run_application(&pool(), &app, &pinned_strategy(), &opts(0, faults, None)).unwrap_err();
    assert!(matches!(err, RunError::PilotsDrained { .. }), "{err}");
}

#[test]
fn invalid_fault_spec_is_rejected_up_front() {
    // An empty random-outage duration range used to be silently widened;
    // now the run refuses to start on a spec it cannot honour.
    let app = paper_bag(8, TaskDurationSpec::Uniform15Min);
    let faults = FaultSpec {
        random_outages_per_resource: 1.0,
        random_outage_duration_secs: (100.0, 100.0),
        ..FaultSpec::none()
    };
    let err =
        run_application(&pool(), &app, &pinned_strategy(), &opts(1, faults, None)).unwrap_err();
    assert!(matches!(err, RunError::InvalidFaultSpec(_)), "{err}");
    assert!(err.contains("invalid fault spec"), "{err}");

    // The replacement cap also caps unit retries: a retry base above it
    // is the policy's error, found before the warm-up runs.
    let slow_retry = RecoveryPolicy {
        unit_retry_backoff: SimDuration::from_secs(1000.0),
        ..RecoveryPolicy::default()
    };
    let options = opts(1, FaultSpec::none(), Some(slow_retry));
    let err = run_application(&pool(), &app, &pinned_strategy(), &options).unwrap_err();
    assert_eq!(err.kind(), "invalid_recovery_policy", "{err}");
    assert!(err.contains("unit_retry_backoff 1000s"), "{err}");
}

#[test]
fn staging_degradation_stretches_the_run() {
    // A 90 % bandwidth cut over the input-staging phase slows TTC.
    let app = paper_bag(64, TaskDurationSpec::Uniform15Min);
    let strategy = paper::late_strategy(2);
    let degraded = FaultSpec {
        staging: Some(StagingFault {
            at_secs: 0.0,
            duration_secs: 3600.0,
            bandwidth_factor: 0.02,
        }),
        ..FaultSpec::none()
    };
    let clean =
        run_application(&pool(), &app, &strategy, &opts(17, FaultSpec::none(), None)).unwrap();
    let slow = run_application(&pool(), &app, &strategy, &opts(17, degraded, None)).unwrap();
    assert_eq!(slow.units_done, 64);
    assert!(
        slow.breakdown.ttc > clean.breakdown.ttc,
        "degraded {:?} vs clean {:?}",
        slow.breakdown.ttc,
        clean.breakdown.ttc
    );
}

#[test]
fn noop_fault_spec_and_recovery_policy_leave_runs_untouched() {
    // A no-op spec plus a recovery policy must replay the exact legacy
    // event streams: fault support is free when unused.
    let app = paper_bag(32, TaskDurationSpec::Gaussian);
    let strategy = paper::late_strategy(2);
    let legacy = run_application(
        &paper::testbed(),
        &app,
        &strategy,
        &RunOptions {
            seed: 23,
            submit_at: SimTime::from_secs(4.0 * 3600.0),
            ..Default::default()
        },
    )
    .unwrap();
    let gated = run_application(
        &paper::testbed(),
        &app,
        &strategy,
        &RunOptions {
            seed: 23,
            submit_at: SimTime::from_secs(4.0 * 3600.0),
            faults: Some(FaultSpec::none()),
            recovery: Some(RecoveryPolicy::default()),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(legacy.breakdown, gated.breakdown);
    assert_eq!(legacy.pilot_setup_secs, gated.pilot_setup_secs);
    assert_eq!(legacy.resources_used, gated.resources_used);
    assert_eq!(gated.replacements, 0);
    assert_eq!(gated.breakdown.tr, SimDuration::ZERO);
}

#[test]
fn identical_seeds_identical_recovery_traces() {
    let app = paper_bag(16, TaskDurationSpec::Uniform15Min);
    let faults = FaultSpec {
        unit_failure_chance: 0.2,
        ..outage_spec(OutageKind::Outage)
    };
    let run = || {
        run_application(
            &pool(),
            &app,
            &pinned_strategy(),
            &opts(29, faults.clone(), Some(RecoveryPolicy::default())),
        )
    };
    // Whether this schedule heals or drains the pool, the replay must
    // follow the identical trajectory.
    match (run(), run()) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.breakdown, b.breakdown);
            assert_eq!(a.restarts, b.restarts);
            assert_eq!(a.replacements, b.replacements);
            assert_eq!(a.wasted_core_hours, b.wasted_core_hours);
            assert_eq!(a.mean_recovery_secs, b.mean_recovery_secs);
        }
        (Err(a), Err(b)) => assert_eq!(a, b),
        (a, b) => panic!("diverging replays: {a:?} vs {b:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random fault schedules: the run either completes with every unit
    /// accounted for (retry bounds respected) or surfaces a typed error —
    /// and the same seed always reproduces the same outcome.
    #[test]
    fn random_fault_schedules_never_hang_or_lose_units(
        seed in 0u64..1_000,
        unit_chance in 0.0f64..0.35,
        outages_per_resource in 0.0f64..1.5,
    ) {
        let app = paper_bag(8, TaskDurationSpec::Uniform15Min);
        let strategy = paper::late_strategy(2);
        let faults = FaultSpec {
            random_outages_per_resource: outages_per_resource,
            random_outage_duration_secs: (300.0, 900.0),
            horizon_secs: 4.0 * 3600.0,
            unit_failure_chance: unit_chance,
            ..FaultSpec::none()
        };
        let run = || run_application(
            &pool(),
            &app,
            &strategy,
            &opts(seed, faults.clone(), Some(RecoveryPolicy::default())),
        );
        let first = run();
        match &first {
            Ok(r) => {
                // No unit lost: every one of the 8 ends terminal.
                prop_assert_eq!(r.units_done + r.units_failed, 8);
                // Retry bound: at most max_attempts (3) restarts per unit.
                prop_assert!(r.restarts <= 3 * 8, "restarts {}", r.restarts);
            }
            Err(e) => {
                prop_assert!(
                    matches!(
                        e,
                        RunError::PilotsDrained { .. }
                            | RunError::ResourceLost { .. }
                            | RunError::DeadlineExceeded { .. }
                    ),
                    "unexpected error class: {e}"
                );
            }
        }
        // Identical seed → identical recovery trace.
        let second = run();
        match (&first, &second) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(&a.breakdown, &b.breakdown);
                prop_assert_eq!(a.restarts, b.restarts);
                prop_assert_eq!(a.replacements, b.replacements);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            _ => prop_assert!(false, "one run succeeded, the replay failed"),
        }
    }
}
