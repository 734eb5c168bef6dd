//! Rendering of experiment results as the paper's tables and figures.
//!
//! Figures are emitted as markdown tables and CSV series (one column per
//! line in the original figure) so the regenerated data can be compared
//! against the paper point by point.

use crate::experiment::ExperimentResult;
use aimes_sim::MetricsSummary;
use std::fmt::Write as _;

/// Render a markdown table.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| {} |", headers.join(" | "));
    let _ = writeln!(
        out,
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        let _ = writeln!(out, "| {} |", row.join(" | "));
    }
    out
}

/// Figure 2: TTC comparison across experiments, one column per
/// experiment, one row per application size.
pub fn fig2_table(results: &[&ExperimentResult]) -> String {
    assert!(!results.is_empty());
    let mut headers = vec!["#Tasks".to_string()];
    headers.extend(results.iter().map(|r| {
        format!(
            "{} TTC(s) [{} {}]",
            r.id, r.strategy_label, r.duration_label
        )
    }));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let sizes: Vec<u32> = results[0].points.iter().map(|p| p.n_tasks).collect();
    let rows: Vec<Vec<String>> = sizes
        .iter()
        .map(|n| {
            let mut row = vec![n.to_string()];
            for r in results {
                let p = r.points.iter().find(|p| p.n_tasks == *n);
                row.push(match p {
                    Some(p) if p.ttc.n > 0 => format!("{:.0}", p.ttc.mean),
                    _ => "-".to_string(),
                });
            }
            row
        })
        .collect();
    markdown_table(&header_refs, &rows)
}

/// One table column: its header and the cell it renders for a row.
pub type Column<'a, R> = (&'a str, &'a dyn Fn(&R) -> String);

/// Render `rows` through `columns` as a [`markdown_table`], so each
/// header is written beside the code that formats its cells.
pub fn table<R>(rows: &[R], columns: &[Column<R>]) -> String {
    let headers: Vec<&str> = columns.iter().map(|(header, _)| *header).collect();
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|row| columns.iter().map(|(_, cell)| cell(row)).collect())
        .collect();
    markdown_table(&headers, &cells)
}

/// Figure 3 (one panel): TTC, Tw, Tx, Ts per application size for one
/// experiment.
pub fn fig3_table(result: &ExperimentResult) -> String {
    let mean = |s: &crate::stats::Summary| format!("{:.0}", s.mean);
    format!(
        "{} ({} {})\n{}",
        result.id,
        result.strategy_label,
        result.duration_label,
        table(
            &result.points,
            &[
                ("#Tasks", &|p| p.n_tasks.to_string()),
                ("TTC(s)", &|p| mean(&p.ttc)),
                ("Tw(s)", &|p| mean(&p.tw)),
                ("Tx(s)", &|p| mean(&p.tx)),
                ("Ts(s)", &|p| mean(&p.ts)),
            ]
        )
    )
}

/// Figure 4 (one panel): TTC mean ± stdev (the error bars) per size.
pub fn fig4_table(result: &ExperimentResult) -> String {
    format!(
        "{} ({} {})\n{}",
        result.id,
        result.strategy_label,
        result.duration_label,
        table(
            &result.points,
            &[
                ("#Tasks", &|p| p.n_tasks.to_string()),
                ("TTC mean(s)", &|p| format!("{:.0}", p.ttc.mean)),
                ("TTC stdev(s)", &|p| format!("{:.0}", p.ttc.stdev)),
                ("min", &|p| format!("{:.0}", p.ttc.min)),
                ("max", &|p| format!("{:.0}", p.ttc.max)),
                ("CV", &|p| format!("{:.2}", p.ttc.cv())),
            ]
        )
    )
}

/// Telemetry summary block: three markdown tables (counters, gauge
/// timelines, dwell histograms), metric names sorted — the rendering of
/// [`RunResult::metrics`](crate::middleware::RunResult::metrics).
pub fn metrics_table(summary: &MetricsSummary) -> String {
    let mut out = String::new();
    if summary.is_empty() {
        return "(no metrics recorded)\n".into();
    }
    if !summary.counters.is_empty() {
        let rows: Vec<_> = summary.counters.iter().collect();
        let _ = writeln!(
            out,
            "#### Counters\n\n{}",
            table(
                &rows,
                &[
                    ("Metric", &|(name, _)| name.to_string()),
                    ("Count", &|(_, v)| v.to_string()),
                ]
            )
        );
    }
    if !summary.gauges.is_empty() {
        let rows: Vec<_> = summary.gauges.iter().collect();
        let _ = writeln!(
            out,
            "#### Gauge timelines\n\n{}",
            table(
                &rows,
                &[
                    ("Metric", &|(name, _)| name.to_string()),
                    ("Samples", &|(_, g)| g.samples.to_string()),
                    ("Min", &|(_, g)| format!("{:.2}", g.min)),
                    ("Max", &|(_, g)| format!("{:.2}", g.max)),
                    ("TW-mean", &|(_, g)| format!("{:.2}", g.time_weighted_mean)),
                    ("Last", &|(_, g)| format!("{:.2}", g.last)),
                ]
            )
        );
    }
    if !summary.histograms.is_empty() {
        let rows: Vec<_> = summary.histograms.iter().collect();
        let _ = writeln!(
            out,
            "#### Histograms (seconds)\n\n{}",
            table(
                &rows,
                &[
                    ("Metric", &|(name, _)| name.to_string()),
                    ("Count", &|(_, h)| h.count.to_string()),
                    ("Mean", &|(_, h)| format!("{:.2}", h.mean)),
                    ("p50", &|(_, h)| format!("{:.2}", h.p50)),
                    ("p95", &|(_, h)| format!("{:.2}", h.p95)),
                    ("p99", &|(_, h)| format!("{:.2}", h.p99)),
                    ("Max", &|(_, h)| format!("{:.2}", h.max)),
                ]
            )
        );
    }
    out
}

/// Markers assigned to series in order (the paper's four experiments fit).
const MARKERS: [char; 6] = ['1', '2', '3', '4', '5', '6'];

/// Render multiple series as a terminal chart: one column per x position,
/// y scaled linearly or logarithmically. Series are labelled with the
/// markers `1..`, collisions show the *later* series (drawn in order).
pub fn ascii_chart(
    title: &str,
    x_labels: &[String],
    series: &[(&str, Vec<f64>)],
    height: usize,
    log_y: bool,
) -> String {
    assert!(height >= 2, "chart needs at least two rows");
    assert!(!x_labels.is_empty());
    let finite: Vec<f64> = series
        .iter()
        .flat_map(|(_, ys)| ys.iter().copied())
        .filter(|v| v.is_finite() && (!log_y || *v > 0.0))
        .collect();
    if finite.is_empty() {
        return format!("{title}\n(no data)\n");
    }
    let (lo, hi) = finite
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), v| {
            (a.min(*v), b.max(*v))
        });
    let (lo, hi) = if (hi - lo).abs() < f64::EPSILON {
        (lo * 0.9, hi * 1.1 + 1.0)
    } else {
        (lo, hi)
    };
    let scale = |v: f64| -> Option<usize> {
        if !v.is_finite() || (log_y && v <= 0.0) {
            return None;
        }
        let t = if log_y {
            (v.ln() - lo.ln()) / (hi.ln() - lo.ln())
        } else {
            (v - lo) / (hi - lo)
        };
        Some(((height - 1) as f64 * t.clamp(0.0, 1.0)).round() as usize)
    };
    // Column position per x index: evenly spaced, 6 chars apart.
    let col_width = 6usize;
    let plot_width = x_labels.len() * col_width;
    let mut grid = vec![vec![' '; plot_width]; height];
    for (si, (_, ys)) in series.iter().enumerate() {
        let marker = MARKERS[si % MARKERS.len()];
        for (xi, y) in ys.iter().enumerate() {
            if let Some(row) = scale(*y) {
                let col = xi * col_width + col_width / 2;
                grid[height - 1 - row][col] = marker;
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{title}  [{}]",
        if log_y { "log y" } else { "linear y" }
    );
    for (ri, row) in grid.iter().enumerate() {
        let frac = (height - 1 - ri) as f64 / (height - 1) as f64;
        let y_val = if log_y {
            (lo.ln() + frac * (hi.ln() - lo.ln())).exp()
        } else {
            lo + frac * (hi - lo)
        };
        let _ = writeln!(out, "{:>9.0} |{}", y_val, row.iter().collect::<String>());
    }
    let _ = writeln!(out, "{:>9} +{}", "", "-".repeat(plot_width));
    let mut xrow = format!("{:>10}", "");
    for l in x_labels {
        xrow.push_str(&format!("{l:^col_width$}"));
    }
    let _ = writeln!(out, "{xrow}");
    let legend: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, (name, _))| format!("{} = {name}", MARKERS[i % MARKERS.len()]))
        .collect();
    let _ = writeln!(out, "{:>10}{}", "", legend.join("   "));
    out
}

/// Figure 2 as a terminal chart (log-y, like reading the paper's figure).
pub fn fig2_chart(results: &[&ExperimentResult]) -> String {
    let x: Vec<String> = results[0]
        .points
        .iter()
        .map(|p| p.n_tasks.to_string())
        .collect();
    let series: Vec<(&str, Vec<f64>)> = results
        .iter()
        .map(|r| {
            (
                r.id.as_str(),
                r.points.iter().map(|p| p.ttc.mean).collect::<Vec<f64>>(),
            )
        })
        .collect();
    ascii_chart("TTC vs #tasks", &x, &series, 16, true)
}

/// CSV export: one row per (experiment, size) with all summaries.
pub fn csv_export(results: &[&ExperimentResult]) -> String {
    let mut out = String::from(
        "experiment,strategy,durations,n_tasks,runs,ttc_mean,ttc_stdev,ttc_min,ttc_max,\
         tw_mean,tw_stdev,tx_mean,ts_mean\n",
    );
    for r in results {
        for p in &r.points {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{:.1},{:.1},{:.1},{:.1},{:.1},{:.1},{:.1},{:.1}",
                r.id,
                r.strategy_label,
                r.duration_label,
                p.n_tasks,
                p.ttc.n,
                p.ttc.mean,
                p.ttc.stdev,
                p.ttc.min,
                p.ttc.max,
                p.tw.mean,
                p.tw.stdev,
                p.tx.mean,
                p.ts.mean
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentPoint;
    use crate::stats::Summary;

    fn summary(mean: f64, stdev: f64) -> Summary {
        Summary {
            n: 4,
            mean,
            stdev,
            min: mean - stdev,
            max: mean + stdev,
            median: mean,
            ci95: stdev,
        }
    }

    fn result(id: &str) -> ExperimentResult {
        ExperimentResult {
            id: id.into(),
            description: "test".into(),
            strategy_label: "late-backfill-3p".into(),
            duration_label: "uniform".into(),
            points: vec![
                ExperimentPoint {
                    n_tasks: 8,
                    runs: vec![],
                    errors: vec![],
                    ttc: summary(1000.0, 100.0),
                    tw: summary(600.0, 90.0),
                    tx: summary(900.0, 10.0),
                    ts: summary(5.0, 1.0),
                },
                ExperimentPoint {
                    n_tasks: 16,
                    runs: vec![],
                    errors: vec![],
                    ttc: summary(1100.0, 120.0),
                    tw: summary(650.0, 95.0),
                    tx: summary(920.0, 12.0),
                    ts: summary(10.0, 2.0),
                },
            ],
        }
    }

    #[test]
    fn markdown_table_shape() {
        let t = markdown_table(
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("| a | b |"));
        assert!(lines[1].contains("---"));
    }

    #[test]
    fn fig2_has_one_column_per_experiment() {
        let r1 = result("exp1");
        let r3 = result("exp3");
        let t = fig2_table(&[&r1, &r3]);
        assert!(t.contains("exp1"));
        assert!(t.contains("exp3"));
        assert!(t.lines().count() == 4); // header + sep + 2 sizes
        assert!(t.contains("| 8 | 1000 | 1000 |"));
    }

    #[test]
    fn fig3_lists_components() {
        let t = fig3_table(&result("exp3"));
        assert!(t.contains("Tw(s)"));
        assert!(t.contains("| 8 | 1000 | 600 | 900 | 5 |"));
    }

    #[test]
    fn fig4_lists_spread() {
        let t = fig4_table(&result("exp1"));
        assert!(t.contains("stdev"));
        assert!(t.contains("| 8 | 1000 | 100 |"));
        assert!(t.contains("0.10")); // CV
    }

    #[test]
    fn ascii_chart_renders_all_series() {
        let x = vec!["8".to_string(), "64".to_string(), "512".to_string()];
        let series = vec![
            ("exp1", vec![1000.0, 5000.0, 20000.0]),
            ("exp3", vec![1500.0, 1600.0, 2000.0]),
        ];
        let chart = ascii_chart("TTC", &x, &series, 10, true);
        assert!(chart.contains("log y"));
        assert!(chart.contains("1 = exp1"));
        assert!(chart.contains("2 = exp3"));
        // Both markers appear in the plot area.
        let plot: String = chart.lines().filter(|l| l.contains('|')).collect();
        assert!(plot.contains('1'));
        assert!(plot.contains('2'));
        // 10 plot rows + axis + labels + legend.
        assert_eq!(chart.lines().count(), 14);
    }

    #[test]
    fn ascii_chart_handles_flat_and_missing_data() {
        let x = vec!["1".to_string()];
        let flat = ascii_chart("flat", &x, &[("a", vec![5.0])], 4, false);
        assert!(flat.contains('1'));
        let nan = ascii_chart("nan", &x, &[("a", vec![f64::NAN])], 4, false);
        assert!(nan.contains("no data"));
        // Log scale drops non-positive values instead of panicking.
        let neg = ascii_chart("neg", &x, &[("a", vec![-3.0])], 4, true);
        assert!(neg.contains("no data"));
    }

    #[test]
    fn fig2_chart_smoke() {
        let r1 = result("exp1");
        let r3 = result("exp3");
        let chart = fig2_chart(&[&r1, &r3]);
        assert!(chart.contains("TTC vs #tasks"));
        assert!(chart.contains("1 = exp1"));
    }

    #[test]
    fn metrics_table_renders_all_sections() {
        use aimes_sim::{MetricsRegistry, SimTime};
        let reg = MetricsRegistry::new();
        reg.inc(|| "saga.a.submissions".into());
        reg.gauge(SimTime::from_secs(0.0), 2.0, || {
            "cluster.a.busy_cores".into()
        });
        reg.gauge(SimTime::from_secs(5.0), 4.0, || {
            "cluster.a.busy_cores".into()
        });
        reg.observe(1.5, || "unit.dwell.executing".into());
        let t = metrics_table(&reg.summary());
        assert!(t.contains("Counters"));
        assert!(t.contains("saga.a.submissions"));
        assert!(t.contains("Gauge timelines"));
        assert!(t.contains("cluster.a.busy_cores"));
        assert!(t.contains("Histograms"));
        assert!(t.contains("unit.dwell.executing"));
        assert_eq!(
            metrics_table(&Default::default()),
            "(no metrics recorded)\n"
        );
    }

    #[test]
    fn metrics_table_renders_zero_sample_histograms() {
        use aimes_sim::telemetry::HistogramSummary;
        use aimes_sim::MetricsSummary;
        // A histogram family can exist with no observations (e.g. a dwell
        // state never entered in a quick run). All derived quantities are
        // defined as 0 and the table must render them, not NaN or panic.
        let mut summary = MetricsSummary::default();
        summary.histograms.insert(
            "unit.dwell.staging_output".into(),
            HistogramSummary {
                count: 0,
                mean: 0.0,
                min: 0.0,
                max: 0.0,
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
            },
        );
        let t = metrics_table(&summary);
        assert!(t.contains("Histograms"));
        assert!(t.contains("unit.dwell.staging_output"));
        assert!(t.contains("| 0 |"), "zero count renders: {t}");
        assert!(!t.contains("NaN"));
        assert!(!t.contains("inf"));
    }

    #[test]
    fn csv_rows_per_point() {
        let r1 = result("exp1");
        let csv = csv_export(&[&r1]);
        assert_eq!(csv.lines().count(), 3); // header + 2 points
        assert!(csv.lines().nth(1).unwrap().starts_with("exp1,"));
    }
}
