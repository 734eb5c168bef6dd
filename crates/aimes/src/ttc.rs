//! TTC decomposition.
//!
//! §IV-A: "We compare the performance of our execution strategies by
//! measuring applications TTC: the sum of a set of possibly overlapping
//! time components." Fig. 3 reports three components:
//!
//! * **Tw** — "time setting up the execution including waiting for the
//!   pilot(s) to become active on the target resource(s)";
//! * **Tx** — "time executing all the application tasks on the available
//!   pilot(s)";
//! * **Ts** — "time staging application data in and out".
//!
//! Components are measured as the *union* of the respective activity
//! intervals (they overlap during execution, hence
//! `TTC < Tw + Tx + Ts` once the pipeline is full — the Fig. 3 caption).

use aimes_pilot::{Checkpoint, ComputeUnit, Pilot, PilotState, UnitId, UnitState};
use aimes_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Measured decomposition of one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TtcBreakdown {
    /// Total time to completion: submission → last unit done.
    pub ttc: SimDuration,
    /// Setup + queue wait: submission → first pilot Active.
    pub tw: SimDuration,
    /// Union of task-execution intervals.
    pub tx: SimDuration,
    /// Union of staging intervals (input and output).
    pub ts: SimDuration,
    /// Recovery overhead: union of the windows between a unit's restart
    /// (re-entering PendingExecution after a failure) and the moment it is
    /// executing again — time the run spent healing rather than working.
    pub tr: SimDuration,
    /// Detection latency: union of the windows between a pilot going
    /// silent (its last sign of life) and the detector declaring it dead.
    /// Zero for oracle-driven recovery (the declaration is instantaneous)
    /// and for runs without failures. Filled in by the middleware from the
    /// pilot manager's detection windows; [`decompose`] cannot see them.
    #[serde(default)]
    pub td: SimDuration,
}

/// Total length of the union of `[start, end)` intervals.
pub fn interval_union(mut intervals: Vec<(SimTime, SimTime)>) -> SimDuration {
    intervals.retain(|(a, b)| b > a);
    if intervals.is_empty() {
        return SimDuration::ZERO;
    }
    intervals.sort_by_key(|(a, _)| *a);
    let mut total = SimDuration::ZERO;
    let (mut cur_start, mut cur_end) = intervals[0];
    for (a, b) in intervals.into_iter().skip(1) {
        if a <= cur_end {
            cur_end = cur_end.max(b);
        } else {
            total += cur_end.since(cur_start);
            cur_start = a;
            cur_end = b;
        }
    }
    total += cur_end.since(cur_start);
    total
}

/// Core-hours burned on execution attempts that never delivered: every
/// Executing interval whose successor is not StagingOutput was aborted (a
/// pilot death or an injected unit fault), and its reserved cores were
/// wasted for the interval's length.
pub fn wasted_core_hours(units: &[ComputeUnit]) -> f64 {
    let mut total = 0.0;
    for u in units {
        let ts = &u.timestamps;
        for (i, (state, time)) in ts.iter().enumerate() {
            if state != UnitState::Executing {
                continue;
            }
            if let Some((next, end)) = ts.get(i + 1) {
                if next != UnitState::StagingOutput {
                    total += f64::from(u.work.cores) * end.since(time).as_secs() / 3600.0;
                }
            }
        }
    }
    total
}

/// Split the aborted core-hours ([`wasted_core_hours`]) into truly
/// wasted vs salvaged-by-checkpoint: a completed unit's checkpointed
/// progress was carried forward instead of redone, so that share of its
/// aborted execution time did real work. Units that never completed
/// forfeit their checkpoints — everything aborted counts as wasted.
/// `checkpoints` holds what checkpointing banked per unit
/// ([`aimes_pilot::UnitManager::checkpoints_ref`]); a unit without an
/// entry salvaged nothing. Returns `(wasted, salvaged)`; the pair always
/// sums to `wasted_core_hours` and salvaged is zero when checkpointing is
/// off.
pub fn salvage_split(
    units: &[ComputeUnit],
    checkpoints: &BTreeMap<UnitId, Checkpoint>,
) -> (f64, f64) {
    let mut wasted = 0.0;
    let mut salvaged = 0.0;
    for u in units {
        let ts = &u.timestamps;
        let mut aborted_secs = 0.0;
        for (i, (state, time)) in ts.iter().enumerate() {
            if state != UnitState::Executing {
                continue;
            }
            if let Some((next, end)) = ts.get(i + 1) {
                if next != UnitState::StagingOutput {
                    aborted_secs += end.since(time).as_secs();
                }
            }
        }
        let salvaged_secs = if u.state == UnitState::Done {
            let banked = checkpoints
                .get(&u.id)
                .map_or(SimDuration::ZERO, |c| c.salvaged);
            banked.as_secs().min(aborted_secs)
        } else {
            0.0
        };
        let cores = f64::from(u.work.cores);
        salvaged += cores * salvaged_secs / 3600.0;
        wasted += cores * (aborted_secs - salvaged_secs) / 3600.0;
    }
    (wasted, salvaged)
}

/// Compute the decomposition for one run.
///
/// * `submitted` — when the middleware began enacting the strategy;
/// * `finished` — when the last unit reached a terminal state.
pub fn decompose(
    units: &[ComputeUnit],
    pilots: &[Pilot],
    submitted: SimTime,
    finished: SimTime,
) -> TtcBreakdown {
    let first_active = pilots
        .iter()
        .filter_map(|p| p.time_of(PilotState::Active))
        .min();
    let tw = match first_active {
        Some(t) => t.saturating_since(submitted),
        None => finished.saturating_since(submitted),
    };
    // One walk over each unit's history, restart-aware. Each Executing,
    // StagingInput and StagingOutput entry pairs with the next transition
    // after it. Every re-entry to PendingExecution (a restart) opens a
    // recovery window that closes when the unit next executes, or at its
    // terminal transition, or — if neither happened — at `finished`.
    let mut exec = Vec::with_capacity(units.len());
    let mut staging = Vec::with_capacity(2 * units.len());
    let mut recovery = Vec::new();
    for u in units {
        let ts = &u.timestamps;
        let mut pending_seen = false;
        for (i, (state, start)) in ts.iter().enumerate() {
            let next = ts.get(i + 1).map(|(_, t)| (start, t));
            match state {
                UnitState::Executing => exec.extend(next),
                UnitState::StagingInput | UnitState::StagingOutput => staging.extend(next),
                UnitState::PendingExecution if pending_seen => {
                    let end = ts
                        .iter()
                        .skip(i + 1)
                        .find(|&(s, _)| s == UnitState::Executing || s.is_terminal())
                        .map_or(finished, |(_, t)| t);
                    recovery.push((start, end));
                }
                UnitState::PendingExecution => pending_seen = true,
                _ => {}
            }
        }
    }
    TtcBreakdown {
        ttc: finished.saturating_since(submitted),
        tw,
        tx: interval_union(exec),
        ts: interval_union(staging),
        tr: interval_union(recovery),
        td: SimDuration::ZERO,
    }
}

/// The unit history and the TTC walks as they were before the history
/// moved inside the unit: a `Vec` of entries, its two lookups, and the
/// per-unit `Vec`-returning decomposition [`decompose`] replaced. Kept as
/// the differential oracle of both.
#[cfg(test)]
mod oracle {
    use super::*;

    /// What the walks read of a unit, with its history in a `Vec`.
    pub(super) struct Unit {
        pub cores: u32,
        pub state: UnitState,
        pub salvaged: SimDuration,
        pub timestamps: Vec<(UnitState, SimTime)>,
    }

    impl Unit {
        /// Time of the *latest* occurrence of `state`.
        pub(super) fn last_time_of(&self, state: UnitState) -> Option<SimTime> {
            self.timestamps
                .iter()
                .rev()
                .find(|(s, _)| *s == state)
                .map(|(_, t)| *t)
        }

        /// Wall time spent executing in the successful attempt.
        pub(super) fn execution_span(&self) -> Option<SimDuration> {
            let start = self.last_time_of(UnitState::Executing)?;
            let end = self.last_time_of(UnitState::StagingOutput)?;
            (end >= start).then(|| end.since(start))
        }
    }

    /// Successive state-pair intervals of a unit, restart-aware: pairs
    /// each occurrence of `from` with the next transition after it.
    fn unit_intervals(unit: &Unit, from: UnitState) -> Vec<(SimTime, SimTime)> {
        let ts = &unit.timestamps;
        let mut out = Vec::new();
        for (i, (state, time)) in ts.iter().enumerate() {
            if *state == from {
                if let Some((_, end)) = ts.get(i + 1) {
                    out.push((*time, *end));
                }
            }
        }
        out
    }

    /// Recovery windows of one unit: every re-entry to PendingExecution
    /// (a restart) opens a window that closes when the unit next
    /// executes, or at its terminal transition, or — if neither
    /// happened — at `finished`.
    fn recovery_intervals(unit: &Unit, finished: SimTime) -> Vec<(SimTime, SimTime)> {
        let ts = &unit.timestamps;
        let mut out = Vec::new();
        let mut pending_seen = 0u32;
        for (i, (state, time)) in ts.iter().enumerate() {
            if *state == UnitState::PendingExecution {
                pending_seen += 1;
                if pending_seen >= 2 {
                    let end = ts[i + 1..]
                        .iter()
                        .find(|(s, _)| *s == UnitState::Executing || s.is_terminal())
                        .map(|(_, t)| *t)
                        .unwrap_or(finished);
                    out.push((*time, end));
                }
            }
        }
        out
    }

    pub(super) fn wasted_core_hours(units: &[Unit]) -> f64 {
        let mut total = 0.0;
        for u in units {
            let ts = &u.timestamps;
            for (i, (state, time)) in ts.iter().enumerate() {
                if *state != UnitState::Executing {
                    continue;
                }
                if let Some((next, end)) = ts.get(i + 1) {
                    if *next != UnitState::StagingOutput {
                        total += f64::from(u.cores) * end.since(*time).as_secs() / 3600.0;
                    }
                }
            }
        }
        total
    }

    pub(super) fn salvage_split(units: &[Unit]) -> (f64, f64) {
        let mut wasted = 0.0;
        let mut salvaged = 0.0;
        for u in units {
            let ts = &u.timestamps;
            let mut aborted_secs = 0.0;
            for (i, (state, time)) in ts.iter().enumerate() {
                if *state != UnitState::Executing {
                    continue;
                }
                if let Some((next, end)) = ts.get(i + 1) {
                    if *next != UnitState::StagingOutput {
                        aborted_secs += end.since(*time).as_secs();
                    }
                }
            }
            let salvaged_secs = if u.state == UnitState::Done {
                u.salvaged.as_secs().min(aborted_secs)
            } else {
                0.0
            };
            let cores = f64::from(u.cores);
            salvaged += cores * salvaged_secs / 3600.0;
            wasted += cores * (aborted_secs - salvaged_secs) / 3600.0;
        }
        (wasted, salvaged)
    }

    pub(super) fn decompose(
        units: &[Unit],
        pilots: &[Pilot],
        submitted: SimTime,
        finished: SimTime,
    ) -> TtcBreakdown {
        let first_active = pilots
            .iter()
            .filter_map(|p| p.time_of(PilotState::Active))
            .min();
        let tw = match first_active {
            Some(t) => t.saturating_since(submitted),
            None => finished.saturating_since(submitted),
        };
        let mut exec: Vec<(SimTime, SimTime)> = Vec::new();
        let mut staging: Vec<(SimTime, SimTime)> = Vec::new();
        let mut recovery: Vec<(SimTime, SimTime)> = Vec::new();
        for u in units {
            exec.extend(unit_intervals(u, UnitState::Executing));
            staging.extend(unit_intervals(u, UnitState::StagingInput));
            staging.extend(unit_intervals(u, UnitState::StagingOutput));
            recovery.extend(recovery_intervals(u, finished));
        }
        TtcBreakdown {
            ttc: finished.saturating_since(submitted),
            tw,
            tx: interval_union(exec),
            ts: interval_union(staging),
            tr: interval_union(recovery),
            td: SimDuration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimes_pilot::{PilotDescription, PilotId, UnitHistory, UnitWork};
    use proptest::prelude::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }
    fn d(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn union_of_disjoint() {
        let u = interval_union(vec![(t(0.0), t(10.0)), (t(20.0), t(25.0))]);
        assert_eq!(u, d(15.0));
    }

    #[test]
    fn union_of_overlapping() {
        let u = interval_union(vec![
            (t(0.0), t(10.0)),
            (t(5.0), t(15.0)),
            (t(14.0), t(16.0)),
        ]);
        assert_eq!(u, d(16.0));
    }

    #[test]
    fn union_ignores_empty_and_inverted() {
        let u = interval_union(vec![(t(5.0), t(5.0)), (t(1.0), t(2.0))]);
        assert_eq!(u, d(1.0));
        assert_eq!(interval_union(vec![]), SimDuration::ZERO);
    }

    fn mk_unit(id: u32, events: &[(UnitState, f64)]) -> ComputeUnit {
        let work = UnitWork {
            cores: 1,
            duration: d(900.0),
            input_mb: 1.0,
            output_mb: 0.002,
        };
        let mut timestamps = UnitHistory::new(UnitState::New, t(0.0));
        for &(state, at) in events {
            timestamps.push(state, t(at));
        }
        ComputeUnit {
            id: UnitId(id),
            work,
            state: timestamps.last().0,
            pilot: Some(PilotId(0)),
            attempts: 1,
            timestamps,
        }
    }

    fn mk_pilot(active_at: f64) -> Pilot {
        let mut p = Pilot {
            id: PilotId(0),
            description: PilotDescription::new("r", 8, d(3600.0)),
            state: PilotState::Active,
            saga_job: None,
            timestamps: vec![(PilotState::New, t(0.0))],
        };
        p.timestamps.push((PilotState::Active, t(active_at)));
        p
    }

    #[test]
    fn decompose_single_unit_run() {
        let unit = mk_unit(
            0,
            &[
                (UnitState::PendingExecution, 1.0),
                (UnitState::StagingInput, 100.0),
                (UnitState::Executing, 102.0),
                (UnitState::StagingOutput, 1002.0),
                (UnitState::Done, 1003.0),
            ],
        );
        let b = decompose(&[unit], &[mk_pilot(100.0)], t(0.0), t(1003.0));
        assert_eq!(b.ttc, d(1003.0));
        assert_eq!(b.tw, d(100.0));
        assert_eq!(b.tx, d(900.0));
        assert_eq!(b.ts, d(3.0)); // 2 s input + 1 s output
    }

    #[test]
    fn components_overlap_so_sum_exceeds_ttc() {
        // Two units staggered: while one executes another stages.
        let u0 = mk_unit(
            0,
            &[
                (UnitState::PendingExecution, 0.0),
                (UnitState::StagingInput, 10.0),
                (UnitState::Executing, 20.0),
                (UnitState::StagingOutput, 80.0),
                (UnitState::Done, 90.0),
            ],
        );
        let u1 = mk_unit(
            1,
            &[
                (UnitState::PendingExecution, 0.0),
                (UnitState::StagingInput, 20.0),
                (UnitState::Executing, 30.0),
                (UnitState::StagingOutput, 90.0),
                (UnitState::Done, 100.0),
            ],
        );
        let b = decompose(&[u0, u1], &[mk_pilot(10.0)], t(0.0), t(100.0));
        assert_eq!(b.ttc, d(100.0));
        assert_eq!(b.tw, d(10.0));
        assert_eq!(b.tx, d(70.0)); // union of [20,80] and [30,90]
        assert_eq!(b.ts, d(40.0)); // [10,20],[20,30],[80,90],[90,100]
        assert!(b.tw + b.tx + b.ts > b.ttc);
    }

    #[test]
    fn tw_uses_first_active_pilot() {
        let unit = mk_unit(
            0,
            &[
                (UnitState::PendingExecution, 0.0),
                (UnitState::StagingInput, 501.0),
                (UnitState::Executing, 502.0),
                (UnitState::StagingOutput, 503.0),
                (UnitState::Done, 504.0),
            ],
        );
        let pilots = vec![mk_pilot(500.0), mk_pilot(2000.0)];
        let b = decompose(&[unit], &pilots, t(0.0), t(504.0));
        assert_eq!(b.tw, d(500.0));
    }

    #[test]
    fn no_pilot_ever_active_makes_tw_the_whole_run() {
        let mut p = mk_pilot(0.0);
        p.timestamps = vec![(PilotState::New, t(0.0))];
        p.state = PilotState::Failed;
        let b = decompose(&[], &[p], t(0.0), t(300.0));
        assert_eq!(b.tw, d(300.0));
    }

    #[test]
    fn restart_intervals_counted() {
        let unit = mk_unit(
            0,
            &[
                (UnitState::PendingExecution, 0.0),
                (UnitState::StagingInput, 1.0),
                (UnitState::Executing, 2.0),
                // pilot died at 50, restart
                (UnitState::PendingExecution, 50.0),
                (UnitState::StagingInput, 60.0),
                (UnitState::Executing, 61.0),
                (UnitState::StagingOutput, 961.0),
                (UnitState::Done, 962.0),
            ],
        );
        let b = decompose(&[unit], &[mk_pilot(1.0)], t(0.0), t(962.0));
        // Executing: [2,50] (aborted attempt) + [61,961].
        assert_eq!(b.tx, d(948.0));
    }

    #[test]
    fn restart_opens_a_recovery_window() {
        let unit = mk_unit(
            0,
            &[
                (UnitState::PendingExecution, 0.0),
                (UnitState::StagingInput, 1.0),
                (UnitState::Executing, 2.0),
                // pilot died at 50, restart; re-executing at 61
                (UnitState::PendingExecution, 50.0),
                (UnitState::StagingInput, 60.0),
                (UnitState::Executing, 61.0),
                (UnitState::StagingOutput, 961.0),
                (UnitState::Done, 962.0),
            ],
        );
        let b = decompose(
            std::slice::from_ref(&unit),
            &[mk_pilot(1.0)],
            t(0.0),
            t(962.0),
        );
        // Recovery window [50, 61]; the first attempt has none.
        assert_eq!(b.tr, d(11.0));
        // The aborted [2,50] attempt wasted 48 core-seconds (1 core).
        assert!((wasted_core_hours(&[unit]) - 48.0 / 3600.0).abs() < 1e-9);
    }

    #[test]
    fn unhealed_restart_window_runs_to_finish_or_terminal() {
        // Restarted but never re-executed: window closes at `finished`.
        let hung = mk_unit(
            0,
            &[
                (UnitState::PendingExecution, 0.0),
                (UnitState::StagingInput, 1.0),
                (UnitState::Executing, 2.0),
                (UnitState::PendingExecution, 50.0),
            ],
        );
        let b = decompose(&[hung], &[mk_pilot(1.0)], t(0.0), t(200.0));
        assert_eq!(b.tr, d(150.0));
        // Restarted then written off: window closes at the Failed stamp.
        let failed = mk_unit(
            1,
            &[
                (UnitState::PendingExecution, 0.0),
                (UnitState::StagingInput, 1.0),
                (UnitState::Executing, 2.0),
                (UnitState::PendingExecution, 50.0),
                (UnitState::Failed, 80.0),
            ],
        );
        let b = decompose(&[failed], &[mk_pilot(1.0)], t(0.0), t(200.0));
        assert_eq!(b.tr, d(30.0));
    }

    #[test]
    fn clean_run_has_no_recovery_and_no_waste() {
        let unit = mk_unit(
            0,
            &[
                (UnitState::PendingExecution, 1.0),
                (UnitState::StagingInput, 100.0),
                (UnitState::Executing, 102.0),
                (UnitState::StagingOutput, 1002.0),
                (UnitState::Done, 1003.0),
            ],
        );
        let b = decompose(
            std::slice::from_ref(&unit),
            &[mk_pilot(100.0)],
            t(0.0),
            t(1003.0),
        );
        assert_eq!(b.tr, SimDuration::ZERO);
        assert_eq!(wasted_core_hours(&[unit]), 0.0);
    }

    #[test]
    fn salvage_split_partitions_the_aborted_time() {
        // One restart: [2,50] aborted (48 s), second attempt delivers.
        let unit = mk_unit(
            0,
            &[
                (UnitState::PendingExecution, 0.0),
                (UnitState::StagingInput, 1.0),
                (UnitState::Executing, 2.0),
                (UnitState::PendingExecution, 50.0),
                (UnitState::StagingInput, 60.0),
                (UnitState::Executing, 61.0),
                (UnitState::StagingOutput, 961.0),
                (UnitState::Done, 962.0),
            ],
        );
        // No checkpointing: the whole aborted interval is wasted.
        let mut checkpoints = BTreeMap::new();
        let (w, s) = salvage_split(std::slice::from_ref(&unit), &checkpoints);
        assert!((w - 48.0 / 3600.0).abs() < 1e-12);
        assert_eq!(s, 0.0);
        // 30 s banked at a checkpoint boundary: that share did real work.
        let banked = Checkpoint {
            progress: d(30.0),
            salvaged: d(30.0),
        };
        checkpoints.insert(unit.id, banked);
        let (w, s) = salvage_split(std::slice::from_ref(&unit), &checkpoints);
        assert!((w - 18.0 / 3600.0).abs() < 1e-12);
        assert!((s - 30.0 / 3600.0).abs() < 1e-12);
        assert!((w + s - wasted_core_hours(&[unit])).abs() < 1e-12);
        // A unit that never completed forfeits its checkpoints.
        let restarted = &[
            (UnitState::PendingExecution, 0.0),
            (UnitState::StagingInput, 1.0),
            (UnitState::Executing, 2.0),
            (UnitState::PendingExecution, 50.0),
        ];
        let (w, s) = salvage_split(&[mk_unit(0, restarted)], &checkpoints);
        assert!((w - 48.0 / 3600.0).abs() < 1e-12);
        assert_eq!(s, 0.0);
    }

    /// One random legal unit history: a walk over the unit state model
    /// from New. `steps` picks each move and its delay (a zero delay
    /// makes a zero-length interval); the walk may stop in any state, so
    /// some units never finish.
    fn random_history(steps: &[(u8, u8)]) -> Vec<(UnitState, f64)> {
        use UnitState::*;
        let mut state = New;
        let mut now = 0.0;
        let mut out = Vec::new();
        for &(pick, delay) in steps {
            let moves: &[UnitState] = match state {
                New => &[PendingExecution, Canceled],
                PendingExecution => &[StagingInput, StagingInput, Failed, Canceled],
                // A restart from every in-flight state.
                StagingInput => &[Executing, Executing, PendingExecution, Failed, Canceled],
                Executing => &[StagingOutput, StagingOutput, PendingExecution, Failed],
                StagingOutput => &[Done, Done, PendingExecution, Canceled],
                Done | Failed | Canceled => break,
            };
            state = moves[usize::from(pick) % moves.len()];
            now += f64::from(delay % 4) * 2.5;
            out.push((state, now));
        }
        out
    }

    /// Shallow by default so `cargo test` stays fast; the chaos-smoke CI
    /// job sets `AIMES_FULL_PROPTEST=1` for the full-depth sweep.
    fn oracle_cases() -> u32 {
        match std::env::var("AIMES_FULL_PROPTEST") {
            Ok(v) if !v.is_empty() && v != "0" => 4096,
            _ => 512,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(oracle_cases()))]

        /// The inline history reads back like the `Vec` it replaced, past
        /// six entries too (a restart moves it to the heap), and the
        /// single-pass walks over it match the per-unit `Vec` ones bit for
        /// bit.
        #[test]
        fn prop_history_matches_oracle(
            histories in proptest::collection::vec(
                (
                    proptest::collection::vec((any::<u8>(), any::<u8>()), 0..24),
                    1u32..5,
                    0.0f64..60.0,
                ),
                0..12,
            ),
            active in proptest::collection::vec(proptest::option::of(0.0f64..50.0), 0..3),
            submitted in 0.0f64..10.0,
            tail in 0.0f64..20.0,
        ) {
            let mut units = Vec::new();
            let mut checkpoints = BTreeMap::new();
            let mut oracles = Vec::new();
            for (i, (steps, cores, salvaged)) in histories.iter().enumerate() {
                let events = random_history(steps);
                let mut unit = mk_unit(i as u32, &events);
                unit.work.cores = *cores;
                let banked = Checkpoint {
                    progress: d(*salvaged),
                    salvaged: d(*salvaged),
                };
                checkpoints.insert(unit.id, banked);
                let mut timestamps = vec![(UnitState::New, t(0.0))];
                timestamps.extend(events.iter().map(|&(s, at)| (s, t(at))));
                let oracle = oracle::Unit {
                    cores: *cores,
                    state: unit.state,
                    salvaged: banked.salvaged,
                    timestamps,
                };
                let h = &unit.timestamps;
                let v = &oracle.timestamps;
                prop_assert_eq!(h.len(), v.len());
                prop_assert!(!h.is_empty());
                for i in 0..=v.len() {
                    prop_assert_eq!(h.get(i), v.get(i).copied());
                }
                prop_assert_eq!(h.iter().collect::<Vec<_>>(), v.clone());
                let reversed: Vec<_> = v.iter().rev().copied().collect();
                prop_assert_eq!(h.iter().rev().collect::<Vec<_>>(), reversed);
                prop_assert_eq!(Some(h.first()), v.first().copied());
                prop_assert_eq!(Some(h.last()), v.last().copied());
                for state in [
                    UnitState::New,
                    UnitState::PendingExecution,
                    UnitState::StagingInput,
                    UnitState::Executing,
                    UnitState::StagingOutput,
                    UnitState::Done,
                    UnitState::Failed,
                    UnitState::Canceled,
                ] {
                    prop_assert_eq!(unit.last_time_of(state), oracle.last_time_of(state));
                }
                prop_assert_eq!(unit.execution_span(), oracle.execution_span());
                units.push(unit);
                oracles.push(oracle);
            }
            let pilots: Vec<Pilot> = active
                .iter()
                .map(|at| {
                    let mut p = mk_pilot(at.unwrap_or(0.0));
                    if at.is_none() {
                        p.timestamps.truncate(1);
                    }
                    p
                })
                .collect();
            let last = units
                .iter()
                .map(|u| u.timestamps.last().1.as_secs())
                .fold(submitted, f64::max);
            let finished = t(last + tail);
            prop_assert_eq!(
                decompose(&units, &pilots, t(submitted), finished),
                oracle::decompose(&oracles, &pilots, t(submitted), finished)
            );
            prop_assert_eq!(
                wasted_core_hours(&units).to_bits(),
                oracle::wasted_core_hours(&oracles).to_bits()
            );
            let (w, s) = salvage_split(&units, &checkpoints);
            let (ow, os) = oracle::salvage_split(&oracles);
            prop_assert_eq!((w.to_bits(), s.to_bits()), (ow.to_bits(), os.to_bits()));
        }
    }

    proptest! {

        /// Union is monotone and bounded by the enclosing span.
        #[test]
        fn prop_union_bounds(
            ivs in proptest::collection::vec((0.0f64..1000.0, 0.0f64..100.0), 1..40),
        ) {
            let intervals: Vec<(SimTime, SimTime)> =
                ivs.iter().map(|(a, w)| (t(*a), t(a + w))).collect();
            let u = interval_union(intervals.clone());
            let longest: f64 = ivs.iter().map(|(_, w)| *w).fold(0.0, f64::max);
            let sum: f64 = ivs.iter().map(|(_, w)| *w).sum();
            let span = ivs
                .iter()
                .map(|(a, w)| a + w)
                .fold(0.0, f64::max)
                - ivs.iter().map(|(a, _)| *a).fold(f64::INFINITY, f64::min);
            prop_assert!(u.as_secs() <= sum + 1e-6);
            prop_assert!(u.as_secs() >= longest - 1e-6);
            prop_assert!(u.as_secs() <= span + 1e-6);
        }
    }
}
