//! Integration tests for the post-mortem analytics engine: the TTC
//! closure oracle over real middleware runs, cross-validation against the
//! typed telemetry layer, critical-path determinism (pinned digest, same
//! style as golden_journal.rs), and the regression gate tripping on an
//! artificially injected slowdown.

use std::cell::RefCell;
use std::rc::Rc;

use aimes_repro::analytics;
use aimes_repro::cluster::ClusterConfig;
use aimes_repro::fault::{FaultSpec, OutageKind, OutageSpec, RecoveryPolicy, StagingFault};
use aimes_repro::middleware::paper;
use aimes_repro::middleware::{run_application, RunJournal, RunOptions};
use aimes_repro::sim::{SimTime, Telemetry};
use aimes_repro::skeleton::{paper_bag, TaskDurationSpec};
use aimes_repro::strategy::ResourceSelection;

fn pool() -> Vec<ClusterConfig> {
    vec![
        ClusterConfig::test("one", 256),
        ClusterConfig::test("two", 256),
        ClusterConfig::test("three", 512),
    ]
}

struct Captured {
    journal: RunJournal,
    telemetry: Telemetry,
    ttc_secs: f64,
}

fn run_instrumented(
    strategy: &aimes_repro::strategy::ExecutionStrategy,
    spec: TaskDurationSpec,
    n_tasks: u32,
    seed: u64,
    faults: Option<FaultSpec>,
    recovery: Option<RecoveryPolicy>,
) -> Captured {
    let app = paper_bag(n_tasks, spec);
    let journal = Rc::new(RefCell::new(RunJournal::new()));
    let telemetry = Telemetry::new();
    let options = RunOptions {
        seed,
        submit_at: SimTime::from_secs(600.0),
        faults,
        recovery,
        journal: Some(Rc::clone(&journal)),
        telemetry: Some(telemetry.clone()),
        ..Default::default()
    };
    let result = run_application(&pool(), &app, strategy, &options).expect("run completes");
    let out = journal.borrow().clone();
    Captured {
        journal: out,
        telemetry,
        ttc_secs: result.breakdown.ttc.as_secs(),
    }
}

fn exp1() -> Captured {
    run_instrumented(
        &paper::early_strategy(),
        TaskDurationSpec::Uniform15Min,
        32,
        101,
        None,
        None,
    )
}

fn exp4() -> Captured {
    run_instrumented(
        &paper::late_strategy(3),
        TaskDurationSpec::Gaussian,
        32,
        404,
        None,
        None,
    )
}

fn faulty() -> Captured {
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
    run_instrumented(
        &strategy,
        TaskDurationSpec::Uniform15Min,
        16,
        777,
        Some(faults),
        Some(RecoveryPolicy::with_detection()),
    )
}

/// The closure oracle: on every fixed-seed scenario — both clean paper
/// experiments and the detected-fault recovery run — the exclusive
/// components must sum to the simulator-reported TTC within 1e-6.
#[test]
fn ttc_closure_holds_on_fixed_seed_runs() {
    for (label, captured) in [("exp1", exp1()), ("exp4", exp4()), ("faulty", faulty())] {
        let report = analytics::analyze(&captured.journal, analytics::DEFAULT_EPSILON_SECS)
            .expect("journal analyzes");
        let closure = report.closure.expect("run finished, closure checkable");
        assert!(
            closure.holds,
            "{label}: closure broken — components sum to {} but simulator reported {} \
             (error {})",
            closure.component_sum_secs, closure.ttc_reported_secs, closure.error_secs
        );
        // The journal's TTC claim is itself the middleware's TTC.
        assert!(
            (closure.ttc_reported_secs - captured.ttc_secs).abs() < 1e-9,
            "{label}: journal and RunResult disagree on TTC"
        );
        // The critical path tiles the run, so it must reach the same total.
        assert!(
            (report.critical_path.total_secs - captured.ttc_secs).abs() < 1e-6,
            "{label}: critical path total {} != TTC {}",
            report.critical_path.total_secs,
            captured.ttc_secs
        );
    }
}

/// Torn journals must be analyzable, announce the damage, and refuse to
/// claim closure.
#[test]
fn torn_journal_is_analyzed_leniently() {
    let captured = exp1();
    let mut text = captured.journal.to_jsonl();
    let cut = text.len() - 40;
    text.truncate(cut);
    let report =
        analytics::analyze_jsonl(&text, analytics::DEFAULT_EPSILON_SECS).expect("lenient analysis");
    assert!(report.discarded_journal_lines >= 1);
    assert!(report.closure.is_none(), "no RunFinished, no closure claim");
    assert!(!report.closure_holds());
}

/// Cross-validation against the typed telemetry layer: total executing
/// seconds derived purely from journal timelines must equal the
/// `unit.dwell.executing` histogram's sum (count × mean) recorded live by
/// the unit manager.
#[test]
fn analytics_timelines_cross_validate_telemetry() {
    for captured in [exp1(), faulty()] {
        let tl = analytics::timeline::reconstruct(&captured.journal).expect("reconstructs");
        let derived: f64 = tl
            .units
            .values()
            .map(|u| u.dwell_in(aimes_repro::pilot::UnitState::Executing))
            .sum();
        let summary = captured.telemetry.summary();
        let hist = &summary.histograms["unit.dwell.executing"];
        let live = hist.mean * hist.count as f64;
        assert!(
            (derived - live).abs() <= 1e-6 * live.max(1.0),
            "journal-derived executing seconds {derived} != telemetry {live}"
        );
        // Peak executing concurrency can never exceed the unit count.
        let peak = analytics::series::executing_units(&tl).peak();
        assert!(peak >= 1.0 && peak <= f64::from(tl.n_tasks));
    }
}

/// Critical-path determinism: for a fixed seed the extracted path is
/// byte-stable, pinned by digest exactly like the golden journals. A
/// drift here means timeline reconstruction or the walk itself changed
/// observable behavior.
#[test]
fn critical_path_digests_are_pinned() {
    const GOLDEN_CP_EXP1: &str = "c55e1539195dc56a";
    const GOLDEN_CP_FAULTY: &str = "23fc2693beeb6136";
    for (label, captured, expected) in [
        ("exp1", exp1(), GOLDEN_CP_EXP1),
        ("faulty", faulty(), GOLDEN_CP_FAULTY),
    ] {
        let report = analytics::analyze(&captured.journal, analytics::DEFAULT_EPSILON_SECS)
            .expect("analyzes");
        assert!(!report.critical_path.segments.is_empty());
        assert_eq!(
            report.critical_path.digest, expected,
            "{label}: critical-path digest drifted"
        );
        // Stability within one process too.
        let again = analytics::analyze(&captured.journal, analytics::DEFAULT_EPSILON_SECS)
            .expect("analyzes");
        assert_eq!(report.critical_path, again.critical_path);
    }
}

/// The faulty run's path must actually route through the failure: a
/// recovery or detection segment, and more than one resource.
#[test]
fn faulty_critical_path_shows_the_recovery() {
    let report =
        analytics::analyze(&faulty().journal, analytics::DEFAULT_EPSILON_SECS).expect("analyzes");
    let comps: Vec<&str> = report
        .critical_path
        .segments
        .iter()
        .map(|s| s.component.as_str())
        .collect();
    assert!(
        comps.contains(&"recovery") || comps.contains(&"detection"),
        "no recovery/detection segment in {comps:?}"
    );
    let mut resources: Vec<&str> = report
        .critical_path
        .segments
        .iter()
        .map(|s| s.resource.as_str())
        .filter(|r| !r.is_empty())
        .collect();
    resources.dedup();
    assert!(
        resources.len() > 1,
        "path never left the failed resource: {resources:?}"
    );
    // Detection time must be visible in the decomposition of this run.
    assert!(report.ttc.detection_secs > 0.0);
    assert!(report.restarts > 0);
}

/// The regression gate: an artificially injected slowdown (origin uplink
/// degraded to 5 % bandwidth for the whole run) must trip `diff` at a
/// 10 % threshold, while the unperturbed run compared to itself must not.
#[test]
fn diff_flags_injected_slowdown() {
    let base = exp1();
    let slow = run_instrumented(
        &paper::early_strategy(),
        TaskDurationSpec::Uniform15Min,
        32,
        101,
        Some(FaultSpec {
            staging: Some(StagingFault {
                at_secs: 0.0,
                duration_secs: 1e9,
                bandwidth_factor: 0.05,
            }),
            ..FaultSpec::none()
        }),
        None,
    );
    let ra = analytics::analyze(&base.journal, analytics::DEFAULT_EPSILON_SECS).unwrap();
    let rb = analytics::analyze(&slow.journal, analytics::DEFAULT_EPSILON_SECS).unwrap();
    assert!(
        slow.ttc_secs > base.ttc_secs,
        "staging degradation must actually slow the run"
    );

    let clean = analytics::diff::diff(&ra, &ra.clone(), 0.10);
    assert!(!clean.is_regression(), "identical runs must pass the gate");

    let d = analytics::diff::diff(&ra, &rb, 0.10);
    assert!(d.is_regression(), "slowdown must trip the gate");
    // The slowdown is attributed to staging, not execution: with constant
    // 15-minute tasks the staging component balloons while execution time
    // is untouched, so the gate names exactly the right component.
    assert!(
        d.regressions.iter().any(|r| r == "staging"),
        "staging regression must be named: {:?}",
        d.regressions
    );
    let staging = d.deltas.iter().find(|c| c.name == "staging").unwrap();
    assert!(staging.regressed && staging.b_secs > staging.a_secs);

    // Reversed order is an improvement and must pass.
    assert!(!analytics::diff::diff(&rb, &ra, 0.10).is_regression());
}

/// Analysis reports round-trip through JSON — the contract `analyze
/// --out` and `analytics-diff` rely on.
#[test]
fn analysis_report_serializes_for_the_cli() {
    let report = analytics::analyze(&exp4().journal, analytics::DEFAULT_EPSILON_SECS).unwrap();
    let json = serde_json::to_string_pretty(&report).expect("serializes");
    let back: analytics::AnalysisReport = serde_json::from_str(&json).expect("parses");
    assert_eq!(report, back);
    assert_eq!(back.schema, analytics::SCHEMA);
}
