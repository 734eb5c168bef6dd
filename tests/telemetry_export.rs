//! Telemetry exporter coverage: a fixed-seed mini-run must emit a
//! schema-valid Chrome trace (Perfetto-loadable), a metrics summary with
//! the promised families, and — because telemetry is strictly passive —
//! the exact same journal as an uninstrumented run. The golden digest at
//! the bottom pins the trace bytes: any change to span assembly, track
//! numbering, or the writer is observable, not incidental.

use std::cell::RefCell;
use std::rc::Rc;

use aimes_repro::cluster::ClusterConfig;
use aimes_repro::middleware::paper;
use aimes_repro::middleware::{run_application, RunJournal, RunOptions, RunResult};
use aimes_repro::sim::{SimTime, Telemetry};
use aimes_repro::skeleton::{paper_bag, TaskDurationSpec};

fn pool() -> Vec<ClusterConfig> {
    vec![
        ClusterConfig::test("one", 256),
        ClusterConfig::test("two", 256),
    ]
}

/// FNV-1a 64 over arbitrary bytes, as hex (same digest as the
/// golden-journal suite uses for JSONL).
fn fnv(bytes: &[u8]) -> String {
    format!("{:016x}", aimes_repro::middleware::recorder::fnv1a64(bytes))
}

/// The fixed-seed mini-run every test in this file looks at.
fn mini_run(telemetry: Option<Telemetry>) -> (RunResult, RunJournal) {
    let app = paper_bag(12, TaskDurationSpec::Uniform15Min);
    let journal = Rc::new(RefCell::new(RunJournal::new()));
    let options = RunOptions {
        seed: 7,
        submit_at: SimTime::from_secs(600.0),
        journal: Some(Rc::clone(&journal)),
        telemetry,
        ..Default::default()
    };
    let result = run_application(&pool(), &app, &paper::late_strategy(2), &options)
        .expect("mini run completes");
    let out = journal.borrow().clone();
    (result, out)
}

#[test]
fn telemetry_is_passive() {
    // Instrumentation must not schedule events or draw RNG: the journal
    // (the full causal record of the run) is byte-identical either way,
    // and so is the result.
    let (bare, bare_journal) = mini_run(None);
    let (instrumented, instrumented_journal) = mini_run(Some(Telemetry::new()));
    assert_eq!(bare_journal.to_jsonl(), instrumented_journal.to_jsonl());
    assert_eq!(bare.breakdown.ttc, instrumented.breakdown.ttc);
    assert!(bare.metrics.is_none());
    assert!(instrumented.metrics.is_some());
}

#[test]
fn metrics_summary_has_promised_families() {
    let telemetry = Telemetry::new();
    let (result, _) = mini_run(Some(telemetry));
    let summary = result.metrics.expect("telemetry attached");

    // Utilization and queue-depth timelines for every pool resource.
    for resource in ["one", "two"] {
        assert!(
            summary
                .gauges
                .contains_key(&format!("cluster.{resource}.utilization")),
            "missing utilization gauge for {resource}"
        );
        assert!(
            summary
                .gauges
                .contains_key(&format!("cluster.{resource}.queue_depth")),
            "missing queue-depth gauge for {resource}"
        );
    }

    // At least three counter families (`layer.component.metric` with the
    // component collapsed) and two histogram families.
    let family = |name: &str| {
        let parts: Vec<&str> = name.split('.').collect();
        format!("{}.{}", parts.first().unwrap(), parts.last().unwrap())
    };
    let counter_families: std::collections::BTreeSet<String> =
        summary.counters.keys().map(|k| family(k)).collect();
    assert!(
        counter_families.len() >= 3,
        "want >=3 counter families, got {counter_families:?}"
    );
    let histogram_families: std::collections::BTreeSet<String> = summary
        .histograms
        .keys()
        .map(|k| k.rsplit_once('.').unwrap().0.to_string())
        .collect();
    assert!(
        histogram_families.len() >= 2,
        "want >=2 histogram families (pilot.dwell, unit.dwell), got {histogram_families:?}"
    );

    // Dwell histograms count every unit and pilot that passed through.
    assert_eq!(summary.histograms["unit.dwell.executing"].count, 12);
    assert!(summary.histograms["unit.dwell.executing"].p50 > 0.0);
}

#[test]
fn chrome_trace_is_schema_valid() {
    let telemetry = Telemetry::new();
    let (_, _) = mini_run(Some(telemetry.clone()));
    let mut buf = Vec::new();
    telemetry.write_chrome_trace(&mut buf).expect("writes");
    let text = String::from_utf8(buf).expect("utf-8");

    let value: serde::Value = serde_json::from_str(&text).expect("valid JSON");
    let events = value
        .get("traceEvents")
        .expect("traceEvents key")
        .as_array()
        .expect("array");
    assert!(!events.is_empty());

    // Every metadata event declares a (pid, tid) names; collect them.
    let mut declared: std::collections::BTreeSet<(u64, u64)> = Default::default();
    let mut last_x_ts = 0u64;
    let mut n_x = 0usize;
    let mut n_c = 0usize;
    for e in events {
        let ph = e.get("ph").and_then(|p| p.as_str()).expect("ph field");
        let pid = e.get("pid").and_then(|p| p.as_u64()).expect("pid field");
        match ph {
            "M" => {
                let tid = e.get("tid").and_then(|t| t.as_u64()).expect("tid");
                declared.insert((pid, tid));
                declared.insert((pid, 0));
            }
            "X" => {
                n_x += 1;
                let tid = e.get("tid").and_then(|t| t.as_u64()).expect("tid");
                assert!(
                    declared.contains(&(pid, tid)),
                    "span on undeclared lane ({pid},{tid})"
                );
                let ts = e.get("ts").and_then(|t| t.as_u64()).expect("integer ts");
                let _dur = e.get("dur").and_then(|d| d.as_u64()).expect("integer dur");
                assert!(ts >= last_x_ts, "span timestamps not monotone");
                last_x_ts = ts;
                assert!(e.get("name").and_then(|n| n.as_str()).is_some());
            }
            "C" => {
                n_c += 1;
                assert!(e.get("args").and_then(|a| a.get("value")).is_some());
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(n_x > 0, "no spans emitted");
    assert!(n_c > 0, "no counter samples emitted");
}

#[test]
fn unit_spans_nest_inside_their_pilot() {
    let telemetry = Telemetry::new();
    let (_, _) = mini_run(Some(telemetry.clone()));
    let spans = telemetry.spans();
    let pilots: Vec<_> = spans.iter().filter(|s| s.category == "pilot").collect();
    let units: Vec<_> = spans.iter().filter(|s| s.category == "unit").collect();
    assert!(!pilots.is_empty());
    assert_eq!(units.len(), 12);
    for u in units {
        let owner = u
            .args
            .iter()
            .find(|(k, _)| k == "pilot")
            .map(|(_, v)| v.clone())
            .expect("unit span names its pilot");
        let p = pilots
            .iter()
            .find(|p| p.lane == owner)
            .unwrap_or_else(|| panic!("no pilot span for {owner}"));
        assert_eq!(u.track, p.track, "unit rendered off its pilot's resource");
        assert!(
            p.start <= u.start && u.end <= p.end,
            "unit window [{:?},{:?}] outside pilot [{:?},{:?}]",
            u.start,
            u.end,
            p.start,
            p.end
        );
    }
}

#[test]
fn chrome_trace_golden_digest() {
    // Pins the exact trace bytes for the fixed-seed mini-run. If a change
    // to span assembly or the exporter moves this digest on purpose,
    // regenerate with:
    //   cargo test --test telemetry_export chrome_trace_golden_digest -- --nocapture
    let telemetry = Telemetry::new();
    let (_, _) = mini_run(Some(telemetry.clone()));
    let mut buf = Vec::new();
    telemetry.write_chrome_trace(&mut buf).expect("writes");
    let digest = fnv(&buf);
    println!("chrome trace digest: {digest}");
    assert_eq!(digest, "d98fb89aadb2af05");
}

#[test]
fn csv_export_parses() {
    let telemetry = Telemetry::new();
    let (_, _) = mini_run(Some(telemetry.clone()));
    let mut buf = Vec::new();
    telemetry.write_metrics_csv(&mut buf).expect("writes");
    let text = String::from_utf8(buf).expect("utf-8");
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some("metric,time_secs,value"));
    let mut rows = 0usize;
    for line in lines {
        let cols: Vec<&str> = line.split(',').collect();
        assert_eq!(cols.len(), 3, "bad CSV row {line:?}");
        cols[1].parse::<f64>().expect("numeric time");
        cols[2].parse::<f64>().expect("numeric value");
        rows += 1;
    }
    assert!(rows > 0);
}
