//! Pins on what a generated skeleton renders and how it runs.
//!
//! The six output forms of three applications — a Table I bag, an
//! iterated map-reduce and the Montage-like workflow — are digested byte
//! for byte, and the Montage-like workflow's `RunResult` is digested
//! through `run_application`. The task representation behind them may
//! change; these digests may not.

use aimes_repro::middleware::paper;
use aimes_repro::middleware::{run_application, RunOptions};
use aimes_repro::sim::{SimRng, SimTime};
use aimes_repro::skeleton::{map_reduce, paper_bag, profiles, SkeletonApp, SkeletonConfig};
use aimes_repro::skeleton::{TaskDurationSpec, TaskId};
use aimes_repro::workload::Distribution;

/// FNV-1a 64, as hex (the digest the golden-journal suite uses).
fn fnv(bytes: &[u8]) -> String {
    format!("{:016x}", aimes_repro::middleware::recorder::fnv1a64(bytes))
}

/// A three-round map-reduce: 12 maps fanning into 4 reduces many-to-one;
/// each round's maps re-read external inputs.
fn iterated_map_reduce() -> SkeletonConfig {
    map_reduce(
        "mr-iter",
        12,
        4,
        Distribution::Uniform {
            lo: 60.0,
            hi: 600.0,
        },
        Distribution::Constant { value: 300.0 },
        2.5,
        0.75,
        3,
    )
}

/// Digests of the six output forms, in the order shell, DAG, JSON,
/// preparation, DAX, Swift.
fn form_digests(config: &SkeletonConfig, seed: u64) -> [String; 6] {
    let app = SkeletonApp::generate(config, &mut SimRng::new(seed)).expect("valid skeleton");
    let dag: String = app
        .to_dag()
        .iter()
        .map(|(from, to): &(TaskId, TaskId)| format!("{from}->{to}\n"))
        .collect();
    [
        fnv(app.to_shell_script().as_bytes()),
        fnv(dag.as_bytes()),
        fnv(app.to_json().as_bytes()),
        fnv(app.preparation_script().as_bytes()),
        fnv(app.to_pegasus_dax().as_bytes()),
        fnv(app.to_swift_script().as_bytes()),
    ]
}

#[test]
fn paper_bag_forms_are_pinned() {
    let got = form_digests(&paper_bag(64, TaskDurationSpec::Gaussian), 7);
    let want = [
        "47076c4c201a7d88",
        "cbf29ce484222325",
        "ba0c4b363fe0d03f",
        "0f1cbe26c9ee3ffb",
        "2ac8791bd44e4eea",
        "14e9d91fa423cef2",
    ];
    assert_eq!(got, want);
}

#[test]
fn iterated_map_reduce_forms_are_pinned() {
    let got = form_digests(&iterated_map_reduce(), 8);
    let want = [
        "1d47af2e48f1dba4",
        "5e3453a305bed6b5",
        "b10dc8baa6f51281",
        "a0736d3f2abd4237",
        "f311c9bb65a9f16f",
        "71721127d6e471bc",
    ];
    assert_eq!(got, want);
}

#[test]
fn montage_forms_are_pinned() {
    let got = form_digests(&profiles::montage_like(64), 9);
    let want = [
        "723c4d7380999f3e",
        "fc7f20b6206034b3",
        "52dabbd3c38a3e4a",
        "7fc086f1b916c116",
        "fad842576a46cf77",
        "ba670c702dc572f3",
    ];
    assert_eq!(got, want);
}

#[test]
fn montage_run_result_is_pinned() {
    let result = run_application(
        &paper::testbed(),
        &profiles::montage_like(64),
        &paper::late_strategy(2),
        &RunOptions {
            seed: 11,
            submit_at: SimTime::from_secs(6.0 * 3600.0),
            ..Default::default()
        },
    )
    .expect("workflow completes");
    let b = &result.breakdown;
    let text = format!(
        "ttc={:016x} tw={:016x} tx={:016x} ts={:016x} done={} failed={} tasks={}",
        b.ttc.as_secs().to_bits(),
        b.tw.as_secs().to_bits(),
        b.tx.as_secs().to_bits(),
        b.ts.as_secs().to_bits(),
        result.units_done,
        result.units_failed,
        result.n_tasks,
    );
    assert_eq!(result.units_done, 130);
    assert_eq!(fnv(text.as_bytes()), "252c99509a4a7ad8");
}
