//! Human-readable rendering of analyses and diffs — markdown tables in
//! the same dialect as `aimes::report`, so `experiments analyze` output
//! pastes straight into an issue.

use crate::diff::DiffReport;
use crate::AnalysisReport;
use aimes::report::table;
use std::fmt::Write;

fn pct(part: f64, whole: f64) -> String {
    if whole > 0.0 {
        format!("{:.1}%", 100.0 * part / whole)
    } else {
        "-".into()
    }
}

/// Render one analysis as markdown.
pub fn render(r: &AnalysisReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Run analysis — strategy {}, seed {}, {} tasks\n",
        r.strategy, r.seed, r.n_tasks
    );
    match r.ttc_reported_secs {
        Some(ttc) => {
            let _ = writeln!(out, "Reported TTC: {ttc:.3} s");
        }
        None => {
            let _ = writeln!(out, "Reported TTC: (journal torn before RunFinished)");
        }
    }
    if r.discarded_journal_lines > 0 {
        let _ = writeln!(
            out,
            "**Warning:** {} trailing journal line(s) discarded as torn.",
            r.discarded_journal_lines
        );
    }
    match &r.closure {
        Some(c) if c.holds => {
            let _ = writeln!(
                out,
                "TTC closure: **holds** (component sum {:.6} s, error {:.3e} s ≤ ε {:.0e})",
                c.component_sum_secs, c.error_secs, c.epsilon_secs
            );
        }
        Some(c) => {
            let _ = writeln!(
                out,
                "TTC closure: **BROKEN** (component sum {:.6} s vs reported {:.6} s, error {:.3e} s > ε {:.0e})",
                c.component_sum_secs, c.ttc_reported_secs, c.error_secs, c.epsilon_secs
            );
        }
        None => {
            let _ = writeln!(out, "TTC closure: not checkable (no RunFinished)");
        }
    }

    let total = r.ttc.sum_secs();
    let _ = writeln!(out, "\n## Exclusive TTC decomposition\n");
    out.push_str(&table(
        &r.ttc.components(),
        &[
            ("component", &|(name, _)| name.to_string()),
            ("seconds", &|(_, secs)| format!("{secs:.3}")),
            ("share", &|(_, secs)| pct(*secs, total)),
        ],
    ));

    let _ = writeln!(
        out,
        "\nMean core-utilization while pilots were active: {:.1}%",
        100.0 * r.mean_utilization
    );
    for s in &r.series {
        let _ = writeln!(out, "Peak {}: {:.0}", s.name, s.peak());
    }

    let _ = writeln!(
        out,
        "\n## Critical path ({:.3} s, digest {})\n",
        r.critical_path.total_secs, r.critical_path.digest
    );
    let segments: Vec<_> = r
        .critical_path
        .segments
        .iter()
        .filter(|s| s.dwell_secs() > 0.0)
        .collect();
    out.push_str(&table(
        &segments,
        &[
            ("start", &|s| format!("{:.3}", s.start_secs)),
            ("dwell", &|s| format!("{:.3}", s.dwell_secs())),
            ("component", &|s| s.component.clone()),
            ("entity", &|s| s.entity.clone()),
            ("resource", &|s| {
                if s.resource.is_empty() {
                    "-".into()
                } else {
                    s.resource.clone()
                }
            }),
            ("detail", &|s| s.detail.clone()),
        ],
    ));

    let _ = writeln!(out, "\n## Stragglers\n");
    if r.stragglers.is_empty() {
        let _ = writeln!(out, "none");
    } else {
        out.push_str(&table(
            &r.stragglers,
            &[
                ("unit", &|s| format!("unit {}", s.unit)),
                ("state", &|s| s.state.clone()),
                ("component", &|s| s.component.clone()),
                ("dwell s", &|s| format!("{:.3}", s.dwell_secs)),
                ("fence s", &|s| format!("{:.3}", s.bound_secs)),
                ("median s", &|s| format!("{:.3}", s.median_secs)),
            ],
        ));
    }
    out
}

/// Render a diff as markdown.
pub fn render_diff(d: &DiffReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Run comparison (threshold +{:.0}%)\n",
        100.0 * d.threshold
    );
    let verdict = |regressed: bool| if regressed { "**REGRESSED**" } else { "ok" }.to_string();
    out.push_str(&table(
        &d.deltas,
        &[
            ("quantity", &|c| c.name.clone()),
            ("run A s", &|c| format!("{:.3}", c.a_secs)),
            ("run B s", &|c| format!("{:.3}", c.b_secs)),
            ("delta", &|c| format!("{:+.3}", c.delta_secs)),
            ("relative", &|c| format!("{:+.1}%", 100.0 * c.rel_change)),
            ("verdict", &|c| verdict(c.regressed)),
        ],
    ));
    out.push('\n');
    out.push_str(&table(
        &d.counts,
        &[
            ("recovery counter", &|c| c.name.clone()),
            ("run A", &|c| c.a.to_string()),
            ("run B", &|c| c.b.to_string()),
            ("delta", &|c| {
                format!("{:+}", i64::from(c.b) - i64::from(c.a))
            }),
            ("verdict", &|c| verdict(c.regressed)),
        ],
    ));
    if d.closure_broken {
        let _ = writeln!(
            out,
            "\n**TTC closure broken in at least one input — comparison is not trustworthy.**"
        );
    }
    if d.regressions.is_empty() && !d.closure_broken {
        let _ = writeln!(out, "\nNo regressions.");
    } else if !d.regressions.is_empty() {
        let _ = writeln!(out, "\nRegressions: {}", d.regressions.join(", "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::reconstruct;
    use aimes::journal::{JournalEvent, RunJournal, UnitState};
    use aimes_sim::SimTime;

    #[test]
    fn render_covers_every_section() {
        let mut j = RunJournal::new();
        j.record(
            SimTime::from_secs(0.0),
            JournalEvent::RunStarted {
                seed: 9,
                strategy: "late-2p".into(),
                n_tasks: 1,
            },
        );
        j.record(
            SimTime::from_secs(1.0),
            JournalEvent::UnitTransition {
                unit: 0,
                state: UnitState::Executing,
                pilot: Some(0),
                cores: 1,
            },
        );
        j.record(
            SimTime::from_secs(11.0),
            JournalEvent::UnitTransition {
                unit: 0,
                state: UnitState::Done,
                pilot: Some(0),
                cores: 1,
            },
        );
        j.record(
            SimTime::from_secs(11.0),
            JournalEvent::RunFinished { ttc_secs: 11.0 },
        );
        let tl = reconstruct(&j).unwrap();
        let report = crate::analyze_timelines(&tl, 1e-6, 0);
        let text = render(&report);
        assert!(text.contains("Run analysis"));
        assert!(text.contains("TTC closure: **holds**"));
        assert!(text.contains("Exclusive TTC decomposition"));
        assert!(text.contains("Critical path"));
        assert!(text.contains("Stragglers"));

        let d = crate::diff::diff(&report, &report, 0.1);
        let dt = render_diff(&d);
        assert!(dt.contains("Run comparison"));
        assert!(dt.contains("No regressions."));
    }
}
