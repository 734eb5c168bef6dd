//! Concurrency and core-utilization time-series derived purely from the
//! reconstructed timelines — no metrics registry involved, so these series
//! cross-validate PR 4's gauge timelines instead of restating them.

use crate::timeline::SessionTimelines;
use aimes::journal::{PilotState, UnitState};
use serde::{Deserialize, Serialize};

/// One point of a step function over simulated time: the value holds from
/// `t_secs` until the next point.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Point {
    pub t_secs: f64,
    pub value: f64,
}

/// A named step series.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StepSeries {
    pub name: String,
    pub points: Vec<Point>,
}

impl StepSeries {
    /// Peak value over the series (0 for an empty series).
    pub fn peak(&self) -> f64 {
        self.points.iter().map(|p| p.value).fold(0.0, f64::max)
    }

    /// Time-weighted integral of the step function up to `horizon`:
    /// value × seconds summed over every step.
    pub fn integral(&self, horizon: f64) -> f64 {
        let mut total = 0.0;
        for (i, p) in self.points.iter().enumerate() {
            let end = self
                .points
                .get(i + 1)
                .map(|n| n.t_secs)
                .unwrap_or(horizon)
                .min(horizon);
            if end > p.t_secs {
                total += p.value * (end - p.t_secs);
            }
        }
        total
    }

    /// The step value at time `t` (0 before the first point).
    pub fn value_at(&self, t: f64) -> f64 {
        self.points
            .iter()
            .take_while(|p| p.t_secs <= t)
            .last()
            .map(|p| p.value)
            .unwrap_or(0.0)
    }
}

/// Build a step series from `(time, delta)` edges. Edges at the same time
/// coalesce into one point; runs of equal values collapse.
fn from_deltas(name: &str, mut edges: Vec<(f64, f64)>) -> StepSeries {
    edges.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
    let mut points: Vec<Point> = Vec::new();
    let mut value = 0.0;
    let mut i = 0;
    while i < edges.len() {
        let t = edges[i].0;
        while i < edges.len() && edges[i].0 == t {
            value += edges[i].1;
            i += 1;
        }
        match points.last_mut() {
            Some(last) if last.value == value => {}
            Some(last) if last.t_secs == t => last.value = value,
            _ => points.push(Point { t_secs: t, value }),
        }
    }
    StepSeries {
        name: name.into(),
        points,
    }
}

/// Number of units in `Executing` over time.
pub fn executing_units(tl: &SessionTimelines) -> StepSeries {
    let mut edges = Vec::new();
    for u in tl.units.values() {
        for iv in u
            .intervals
            .iter()
            .filter(|iv| iv.phase == UnitState::Executing)
        {
            edges.push((iv.start_secs, 1.0));
            edges.push((iv.end_secs, -1.0));
        }
    }
    from_deltas("units.executing", edges)
}

/// Cores occupied by `Executing` units over time.
pub fn busy_cores(tl: &SessionTimelines) -> StepSeries {
    let mut edges = Vec::new();
    for u in tl.units.values() {
        let cores = f64::from(u.cores.max(1));
        for iv in u
            .intervals
            .iter()
            .filter(|iv| iv.phase == UnitState::Executing)
        {
            edges.push((iv.start_secs, cores));
            edges.push((iv.end_secs, -cores));
        }
    }
    from_deltas("units.busy_cores", edges)
}

/// Cores held by `Active` pilots over time — the capacity the application
/// is paying for at each instant.
pub fn active_pilot_cores(tl: &SessionTimelines) -> StepSeries {
    let mut edges = Vec::new();
    for p in tl.pilots.values() {
        let cores = f64::from(p.cores.max(1));
        for iv in p
            .intervals
            .iter()
            .filter(|iv| iv.phase == PilotState::Active)
        {
            edges.push((iv.start_secs, cores));
            edges.push((iv.end_secs, -cores));
        }
    }
    from_deltas("pilots.active_cores", edges)
}

/// Mean core-utilization while any pilot was active: the ratio of the
/// busy-core integral to the active-core integral (0 when no pilot ever
/// activated).
pub fn mean_utilization(tl: &SessionTimelines) -> f64 {
    let busy = busy_cores(tl).integral(tl.horizon);
    let active = active_pilot_cores(tl).integral(tl.horizon);
    if active > 0.0 {
        busy / active
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_coalesce_and_collapse() {
        let s = from_deltas(
            "x",
            vec![(0.0, 1.0), (0.0, 1.0), (5.0, -1.0), (5.0, 1.0), (9.0, -2.0)],
        );
        // t=5 has -1 then +1: net unchanged, so no point is emitted there.
        assert_eq!(
            s.points,
            vec![
                Point {
                    t_secs: 0.0,
                    value: 2.0
                },
                Point {
                    t_secs: 9.0,
                    value: 0.0
                },
            ]
        );
        assert_eq!(s.peak(), 2.0);
        assert!((s.integral(9.0) - 18.0).abs() < 1e-12);
        assert_eq!(s.value_at(4.0), 2.0);
        assert_eq!(s.value_at(10.0), 0.0);
    }

    #[test]
    fn integral_clamps_to_horizon() {
        let s = from_deltas("x", vec![(0.0, 3.0), (10.0, -3.0)]);
        assert!((s.integral(4.0) - 12.0).abs() < 1e-12);
    }
}
