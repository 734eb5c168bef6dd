//! Run-to-run regression comparison: two analyses, component by
//! component, with a configurable threshold. The CLI exits nonzero when
//! any regression is flagged, which is what lets CI gate on it.

use crate::AnalysisReport;
use serde::{Deserialize, Serialize};

/// One compared quantity.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ComponentDelta {
    pub name: String,
    pub a_secs: f64,
    pub b_secs: f64,
    pub delta_secs: f64,
    /// Relative change against run A (uses a 1 s floor so a 0 → 2 s jump
    /// still reads as a finite ratio).
    pub rel_change: f64,
    pub regressed: bool,
}

/// One compared recovery counter.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CountDelta {
    pub name: String,
    pub a: u32,
    pub b: u32,
    pub regressed: bool,
}

/// The full comparison.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DiffReport {
    pub threshold: f64,
    pub deltas: Vec<ComponentDelta>,
    /// The recovery counters, compared by the same rule as the seconds.
    pub counts: Vec<CountDelta>,
    /// Names of regressed quantities, in display order.
    pub regressions: Vec<String>,
    /// True when either input failed its closure check — the comparison
    /// is then built on inconsistent numbers and must not gate green.
    pub closure_broken: bool,
}

impl DiffReport {
    pub fn is_regression(&self) -> bool {
        !self.regressions.is_empty() || self.closure_broken
    }
}

/// A quantity regresses when run B exceeds run A by more than `threshold`
/// relative to A *and* by more than 1 ms absolute — the floor keeps
/// femto-jitter in near-zero components from failing builds.
fn regressed(a: f64, b: f64, threshold: f64) -> bool {
    b - a > threshold * a.max(1.0) && b - a > 1e-3
}

/// Compare two analyses. `threshold` is relative (0.10 = +10 % fails).
pub fn diff(a: &AnalysisReport, b: &AnalysisReport, threshold: f64) -> DiffReport {
    let mut deltas = Vec::new();
    let mut regressions = Vec::new();
    let mut push = |name: &str, av: f64, bv: f64| {
        let is_reg = regressed(av, bv, threshold);
        deltas.push(ComponentDelta {
            name: name.into(),
            a_secs: av,
            b_secs: bv,
            delta_secs: bv - av,
            rel_change: (bv - av) / av.max(1.0),
            regressed: is_reg,
        });
        if is_reg {
            regressions.push(name.to_string());
        }
    };

    push(
        "ttc",
        a.ttc_reported_secs.unwrap_or(f64::NAN),
        b.ttc_reported_secs.unwrap_or(f64::NAN),
    );
    for ((name, av), (_, bv)) in a.ttc.components().iter().zip(b.ttc.components().iter()) {
        push(name, *av, *bv);
    }
    push(
        "critical-path",
        a.critical_path.total_secs,
        b.critical_path.total_secs,
    );
    let counts = [
        ("restarts", a.restarts, b.restarts),
        ("replans", a.replans, b.replans),
        ("domain-alarms", a.domain_alarms, b.domain_alarms),
        ("evacuations", a.evacuations, b.evacuations),
        ("checkpoints", a.checkpoints, b.checkpoints),
        ("resumes", a.resumes, b.resumes),
    ]
    .map(|(name, a, b)| {
        let regressed = regressed(f64::from(a), f64::from(b), threshold);
        if regressed {
            regressions.push(name.to_string());
        }
        CountDelta {
            name: name.into(),
            a,
            b,
            regressed,
        }
    })
    .to_vec();

    let closure_broken = [a, b]
        .iter()
        .any(|r| r.closure.map(|c| !c.holds).unwrap_or(true));
    DiffReport {
        threshold,
        deltas,
        counts,
        regressions,
        closure_broken,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critical_path::CriticalPath;
    use crate::decompose::{ClosureCheck, ExclusiveTtc};

    fn report(exec: f64, queue: f64) -> AnalysisReport {
        let ttc = ExclusiveTtc {
            execution_secs: exec,
            queue_wait_secs: queue,
            ..Default::default()
        };
        let sum = ttc.sum_secs();
        AnalysisReport {
            schema: crate::SCHEMA.into(),
            seed: 1,
            strategy: "early".into(),
            n_tasks: 4,
            started_at_secs: 0.0,
            finished_at_secs: Some(sum),
            ttc_reported_secs: Some(sum),
            discarded_journal_lines: 0,
            ttc,
            closure: Some(ClosureCheck {
                ttc_reported_secs: sum,
                component_sum_secs: sum,
                error_secs: 0.0,
                epsilon_secs: 1e-6,
                holds: true,
            }),
            mean_utilization: 0.5,
            series: Vec::new(),
            critical_path: CriticalPath {
                segments: Vec::new(),
                total_secs: sum,
                digest: "0".into(),
            },
            stragglers: Vec::new(),
            unit_count: 4,
            pilot_count: 1,
            restarts: 0,
            replans: 0,
            domain_alarms: 0,
            evacuations: 0,
            checkpoints: 0,
            resumes: 0,
            evacuation_lead_secs: None,
        }
    }

    #[test]
    fn flags_slowdowns_beyond_threshold() {
        let a = report(100.0, 50.0);
        let b = report(100.0, 80.0); // queue wait +60 %
        let d = diff(&a, &b, 0.10);
        assert!(d.is_regression());
        assert!(d.regressions.contains(&"queue-wait".to_string()));
        assert!(d.regressions.contains(&"ttc".to_string()));
        assert!(!d.regressions.contains(&"execution".to_string()));
    }

    #[test]
    fn equal_runs_pass() {
        let a = report(100.0, 50.0);
        let d = diff(&a, &a.clone(), 0.10);
        assert!(!d.is_regression());
        assert!(d.regressions.is_empty());
    }

    #[test]
    fn improvements_never_fail() {
        let a = report(100.0, 50.0);
        let b = report(60.0, 10.0);
        assert!(!diff(&a, &b, 0.10).is_regression());
    }

    #[test]
    fn one_more_evacuation_is_flagged() {
        let a = report(100.0, 50.0);
        let mut b = a.clone();
        b.evacuations += 1;
        let d = diff(&a, &b, 0.10);
        assert!(d.is_regression());
        assert_eq!(d.regressions, ["evacuations"]);
        let mut fewer = a.clone();
        fewer.restarts = 3;
        assert!(!diff(&fewer, &a, 0.10).is_regression());
    }

    #[test]
    fn broken_closure_poisons_the_gate() {
        let a = report(100.0, 50.0);
        let mut b = report(100.0, 50.0);
        b.closure = None;
        assert!(diff(&a, &b, 0.10).is_regression());
    }
}
