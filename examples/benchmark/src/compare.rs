//! `benchmark compare <parent reports…> -- <change reports…>`: per
//! (workload, end-to-end metric) verdicts between two sets of runs.

use crate::measure::quartiles;
use crate::report::{Better, MetricDef, Report, WorkloadReport, END_TO_END};
use aimes_repro::middleware::stats::percentile;
use std::collections::{BTreeMap, BTreeSet};

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's distribution of a metric.
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    fn of(values: &[f64]) -> Side {
        let [q1, _, q3] = if values.len() >= 2 {
            quartiles(values)
        } else {
            [values[0]; 3]
        };
        Side {
            median: percentile(values, 0.5).expect("a side has values"),
            q1,
            q3,
        }
    }

    /// Interquartile range as a share of the median.
    fn spread(&self) -> f64 {
        (self.q3 - self.q1).abs() / self.median.abs()
    }
}

pub struct Judgement {
    pub parent: Side,
    pub change: Side,
    /// Share of pairs the change wins; ties count for neither side.
    pub win_share: f64,
    pub verdict: Verdict,
}

/// Judge one metric. `parent` and `change` pair up index by index.
///
/// * A spread (either side's IQR over its median) above the bound is
///   `unresolved`, unless every change run beats every parent run
///   (`improved`) or loses to every one by more than the bound
///   (`regressed`).
/// * Otherwise a median worse by more than the bound is `regressed`.
/// * A change that wins at least 9/10 of the pairs, with a median gap
///   wider than the parent's IQR, is `improved`.
/// * Anything else is `unchanged`.
pub fn judge(def: &MetricDef, parent: &[f64], change: &[f64]) -> Judgement {
    let bound = def.bound.expect("end-to-end metrics have a bound");
    let better = |a: f64, b: f64| match def.better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    };
    let p = Side::of(parent);
    let c = Side::of(change);
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(**c, **p))
        .count();
    let win_share = wins as f64 / pairs as f64;
    let worse_by = match def.better {
        Better::Lower => (c.median - p.median) / p.median,
        Better::Higher => (p.median - c.median) / p.median,
    };
    let all_better = change.iter().all(|c| parent.iter().all(|p| better(*c, *p)));
    let all_worse = change.iter().all(|c| parent.iter().all(|p| better(*p, *c)));
    let verdict = if p.spread() > bound || c.spread() > bound {
        if all_better {
            Verdict::Improved
        } else if all_worse && worse_by > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regressed
    } else if win_share >= 0.9
        && better(c.median, p.median)
        && (c.median - p.median).abs() > (p.q3 - p.q1).abs()
    {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    Judgement {
        parent: p,
        change: c,
        win_share,
        verdict,
    }
}

fn load(paths: &[String]) -> Result<Vec<WorkloadReport>, String> {
    let mut out = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let report: Report =
            serde_json::from_str(&text).map_err(|e| format!("{path} is not a report: {e}"))?;
        out.extend(report.workloads);
    }
    Ok(out)
}

/// Reports per workload, sorted by seed so that two sets made with the
/// same seeds pair identical inputs.
fn by_workload(reports: Vec<WorkloadReport>) -> BTreeMap<String, Vec<WorkloadReport>> {
    let mut map: BTreeMap<String, Vec<WorkloadReport>> = BTreeMap::new();
    for r in reports {
        map.entry(r.workload.clone()).or_default().push(r);
    }
    for v in map.values_mut() {
        v.sort_by_key(|r| r.seed);
    }
    map
}

fn failed_ratio(reports: &[WorkloadReport]) -> f64 {
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    failed as f64 / attempted.max(1) as f64
}

/// Print every verdict; `Ok(true)` when nothing regressed, no digest of
/// the same inputs differs, and no workload fails more runs.
pub fn run(parent_paths: &[String], change_paths: &[String]) -> Result<bool, String> {
    if parent_paths.is_empty() || change_paths.is_empty() {
        return Err("usage: benchmark compare <parent reports…> -- <change reports…>".into());
    }
    let parent = by_workload(load(parent_paths)?);
    let change = by_workload(load(change_paths)?);
    let mut ok = true;
    println!(
        "{:<16} {:<18} {:>30} {:>30} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for (workload, ps) in &parent {
        let Some(cs) = change.get(workload) else {
            println!("{workload:<16} (no change reports)");
            continue;
        };
        for def in END_TO_END {
            let values = |rs: &[WorkloadReport]| -> Vec<f64> {
                rs.iter()
                    .filter_map(|r| r.value(def.name))
                    .filter(|v| v.is_finite())
                    .collect()
            };
            let (pv, cv) = (values(ps), values(cs));
            if pv.is_empty() || cv.is_empty() {
                continue;
            }
            let j = judge(def, &pv, &cv);
            ok &= j.verdict != Verdict::Regressed;
            let fmt = |s: &Side| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3);
            println!(
                "{workload:<16} {:<18} {:>30} {:>30} {:>5.0}%  {}",
                def.name,
                fmt(&j.parent),
                fmt(&j.change),
                j.win_share * 100.0,
                j.verdict.label()
            );
        }
        let digests = |rs: &[WorkloadReport]| -> BTreeSet<(u64, bool, String)> {
            rs.iter()
                .map(|r| (r.seed, r.quick, r.result_digest.clone()))
                .collect()
        };
        let (pd, cd) = (digests(ps), digests(cs));
        for (seed, quick, digest) in &pd {
            let same_inputs = cd.iter().filter(|(s, q, _)| s == seed && q == quick);
            for (_, _, other) in same_inputs {
                if other != digest {
                    ok = false;
                    println!(
                        "{workload:<16} result_digest MISMATCH at seed {seed}: parent {digest}, change {other}"
                    );
                }
            }
        }
        let (pf, cf) = (failed_ratio(ps), failed_ratio(cs));
        if cf > pf {
            ok = false;
            println!("{workload:<16} failed_run_ratio ROSE: parent {pf:.4}, change {cf:.4}");
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metrics with a 10% bound, whatever the benchmark's own bounds are.
    const LOWER: MetricDef = MetricDef {
        name: "wall",
        unit: "ms",
        better: Better::Lower,
        bound: Some(0.10),
    };
    const HIGHER: MetricDef = MetricDef {
        better: Better::Higher,
        ..LOWER
    };

    fn lower() -> &'static MetricDef {
        &LOWER
    }

    fn higher() -> &'static MetricDef {
        &HIGHER
    }

    #[test]
    fn a_median_worse_by_more_than_the_bound_regresses() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0];
        let change = [115.0, 116.0, 114.0, 115.5, 114.5, 115.0];
        assert_eq!(judge(lower(), &parent, &change).verdict, Verdict::Regressed);
        // Within the bound: not a regression.
        let change = [105.0, 106.0, 104.0, 105.5, 104.5, 105.0];
        assert_eq!(judge(lower(), &parent, &change).verdict, Verdict::Unchanged);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let parent = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0];
        let change = [65.0, 135.0, 85.0, 125.0, 95.0, 75.0, 125.0];
        assert_eq!(
            judge(lower(), &parent, &change).verdict,
            Verdict::Unresolved
        );
        // Unless every change run beats every parent run.
        let change = [10.0, 12.0, 11.0, 13.0, 10.5, 11.5, 12.5];
        assert_eq!(judge(lower(), &parent, &change).verdict, Verdict::Improved);
    }

    #[test]
    fn a_win_needs_nine_tenths_of_pairs_and_a_gap_wider_than_the_parent_iqr() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i) * 0.2).collect();
        // Nine of ten pairs won, gap ~5 runs/s against an IQR under 1.
        let mut change: Vec<f64> = parent.iter().map(|p| p + 5.0).collect();
        change[3] = parent[3] - 0.1;
        let j = judge(higher(), &parent, &change);
        assert_eq!(j.win_share, 0.9);
        assert_eq!(j.verdict, Verdict::Improved);
        // Eight of ten is not enough.
        change[4] = parent[4] - 0.1;
        assert_eq!(
            judge(higher(), &parent, &change).verdict,
            Verdict::Unchanged
        );
        // Nine of ten, but a gap inside the parent's own IQR.
        let change: Vec<f64> = parent
            .iter()
            .enumerate()
            .map(|(i, p)| if i == 0 { p - 0.01 } else { p + 0.01 })
            .collect();
        assert_eq!(
            judge(higher(), &parent, &change).verdict,
            Verdict::Unchanged
        );
    }
}
