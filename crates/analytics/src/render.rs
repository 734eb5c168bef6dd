//! Human-readable rendering of analyses and diffs — markdown tables in
//! the same dialect as `aimes::report`, so `experiments analyze` output
//! pastes straight into an issue.

use crate::diff::DiffReport;
use crate::AnalysisReport;
use aimes::report::markdown_table;
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
    let rows: Vec<Vec<String>> = r
        .ttc
        .components()
        .iter()
        .map(|(name, secs)| vec![(*name).to_string(), format!("{secs:.3}"), pct(*secs, total)])
        .collect();
    out.push_str(&markdown_table(&["component", "seconds", "share"], &rows));

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
    let rows: Vec<Vec<String>> = r
        .critical_path
        .segments
        .iter()
        .filter(|s| s.dwell_secs() > 0.0)
        .map(|s| {
            vec![
                format!("{:.3}", s.start_secs),
                format!("{:.3}", s.dwell_secs()),
                s.component.clone(),
                s.entity.clone(),
                if s.resource.is_empty() {
                    "-".into()
                } else {
                    s.resource.clone()
                },
                s.detail.clone(),
            ]
        })
        .collect();
    out.push_str(&markdown_table(
        &[
            "start",
            "dwell",
            "component",
            "entity",
            "resource",
            "detail",
        ],
        &rows,
    ));

    let _ = writeln!(out, "\n## Stragglers\n");
    if r.stragglers.is_empty() {
        let _ = writeln!(out, "none");
    } else {
        let rows: Vec<Vec<String>> = r
            .stragglers
            .iter()
            .map(|s| {
                vec![
                    format!("unit {}", s.unit),
                    s.state.clone(),
                    s.component.clone(),
                    format!("{:.3}", s.dwell_secs),
                    format!("{:.3}", s.bound_secs),
                    format!("{:.3}", s.median_secs),
                ]
            })
            .collect();
        out.push_str(&markdown_table(
            &[
                "unit",
                "state",
                "component",
                "dwell s",
                "fence s",
                "median s",
            ],
            &rows,
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
    let rows: Vec<Vec<String>> = d
        .deltas
        .iter()
        .map(|c| {
            vec![
                c.name.clone(),
                format!("{:.3}", c.a_secs),
                format!("{:.3}", c.b_secs),
                format!("{:+.3}", c.delta_secs),
                format!("{:+.1}%", 100.0 * c.rel_change),
                if c.regressed { "**REGRESSED**" } else { "ok" }.into(),
            ]
        })
        .collect();
    out.push_str(&markdown_table(
        &[
            "quantity", "run A s", "run B s", "delta", "relative", "verdict",
        ],
        &rows,
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
