//! Unit-to-pilot scheduling policies.
//!
//! Table I's execution strategies differ in exactly two pilot-layer
//! decisions: the *binding* (early: tasks bound to pilots before they
//! become active; late: tasks bound as pilots become active) and the
//! *scheduler* used to place tasks on pilots (direct submission for early
//! binding; backfill for late binding). Round-robin is included as the
//! naive late-binding baseline for the scheduler ablation.

use crate::pilot::PilotId;
use crate::unit::UnitId;
use aimes_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// When units are bound to pilots.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Binding {
    /// Bound at submission, before pilots become active (Table I exp. 1–2).
    Early,
    /// Bound when pilots are active and have capacity (Table I exp. 3–4).
    Late,
}

/// How eligible units are placed onto active pilots.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum UnitScheduler {
    /// Early binding: each unit goes to the pilot it was bound to.
    Direct,
    /// Late binding, naive: cycle over active pilots with free cores,
    /// ignoring remaining walltime.
    RoundRobin,
    /// Late binding, AIMES default: place a unit only where it fits the
    /// pilot's *remaining walltime* as well as its free cores.
    Backfill,
}

/// Scheduler view of one pilot.
#[derive(Clone, Copy, Debug)]
pub struct PilotView {
    pub id: PilotId,
    pub free_cores: u32,
    pub remaining_walltime: SimDuration,
}

/// Scheduler view of one eligible unit.
#[derive(Clone, Copy, Debug)]
pub struct UnitView {
    pub id: UnitId,
    pub cores: u32,
    /// Expected execution duration (known for skeleton tasks).
    pub est_duration: SimDuration,
    /// Early binding: the pilot this unit must run on.
    pub bound_to: Option<PilotId>,
}

/// Compute assignments for this scheduling pass. `units` yields the
/// ready queue's views in queue order and is pulled only as far as the
/// pass needs; `pilots` lists *active* pilots only, in pilot-id order,
/// the order ties break in. Returns `(unit, pilot)` pairs in `units`
/// order, each unit at most once: a subsequence of the queue, which the
/// unit manager removes with one cursor. Unassigned units simply stay
/// queued for the next pass.
///
/// Every unit needs at least one core, so once no pilot has a free core
/// nothing more can be placed: the scan stops there, and the views of
/// the rest of the queue are never built. The round-robin cursor moves
/// only when a unit is placed, so stopping early leaves it where a full
/// scan would.
pub fn assign(
    scheduler: UnitScheduler,
    units: impl IntoIterator<Item = UnitView>,
    mut pilots: Vec<PilotView>,
    rr_cursor: &mut usize,
) -> Vec<(UnitId, PilotId)> {
    debug_assert!(
        pilots.windows(2).all(|w| w[0].id < w[1].id),
        "pilots in id order"
    );
    let mut out = Vec::new();
    // Pilots with a free core; the pass ends when none is left.
    let mut open = pilots.iter().filter(|p| p.free_cores > 0).count();
    if open == 0 {
        return out;
    }
    let mut take = |p: &mut PilotView, u: &UnitView| {
        debug_assert!(u.cores > 0, "a unit needs a core");
        p.free_cores -= u.cores;
        if p.free_cores == 0 {
            open -= 1;
        }
        out.push((u.id, p.id));
        open > 0
    };
    let n = pilots.len();
    for u in units {
        let more = match scheduler {
            UnitScheduler::Direct => {
                let Some(target) = u.bound_to else { continue };
                match pilots.iter_mut().find(|p| p.id == target) {
                    Some(p) if p.free_cores >= u.cores => take(p, &u),
                    _ => continue,
                }
            }
            UnitScheduler::RoundRobin => {
                // The next pilot (cyclically) with room.
                let Some(idx) = (0..n)
                    .map(|k| (*rr_cursor + k) % n)
                    .find(|&idx| pilots[idx].free_cores >= u.cores)
                else {
                    // No pilot has room for this unit; a smaller one
                    // behind it might still fit.
                    continue;
                };
                *rr_cursor = (idx + 1) % n;
                take(&mut pilots[idx], &u)
            }
            UnitScheduler::Backfill => {
                // Among pilots that fit both cores and remaining walltime,
                // pick the one with the most remaining walltime (leaves
                // tight pilots for short units); ties by id.
                let best = pilots
                    .iter_mut()
                    .filter(|p| p.free_cores >= u.cores && p.remaining_walltime >= u.est_duration)
                    .max_by(|a, b| {
                        a.remaining_walltime
                            .cmp(&b.remaining_walltime)
                            .then_with(|| b.id.cmp(&a.id))
                    });
                match best {
                    Some(p) => take(p, &u),
                    None => continue,
                }
            }
        };
        if !more {
            break;
        }
    }
    out
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn d(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }
    fn pv(id: u32, free: u32, rem: f64) -> PilotView {
        PilotView {
            id: PilotId(id),
            free_cores: free,
            remaining_walltime: d(rem),
        }
    }
    fn uv(id: u32, cores: u32, dur: f64, bound: Option<u32>) -> UnitView {
        UnitView {
            id: UnitId(id),
            cores,
            est_duration: d(dur),
            bound_to: bound.map(PilotId),
        }
    }

    /// `assign` over slices, as the tests hold their views.
    fn run(
        scheduler: UnitScheduler,
        units: &[UnitView],
        pilots: &[PilotView],
        cursor: &mut usize,
    ) -> Vec<(UnitId, PilotId)> {
        assign(scheduler, units.iter().copied(), pilots.to_vec(), cursor)
    }

    #[test]
    fn direct_respects_binding() {
        let pilots = [pv(0, 2, 1000.0), pv(1, 2, 1000.0)];
        let units = [
            uv(0, 1, 100.0, Some(1)),
            uv(1, 1, 100.0, Some(1)),
            uv(2, 1, 100.0, Some(0)),
            uv(3, 1, 100.0, Some(1)), // pilot 1 full by now
            uv(4, 1, 100.0, None),    // unbound: direct ignores it
        ];
        let mut cur = 0;
        let a = run(UnitScheduler::Direct, &units, &pilots, &mut cur);
        assert_eq!(
            a,
            vec![
                (UnitId(0), PilotId(1)),
                (UnitId(1), PilotId(1)),
                (UnitId(2), PilotId(0)),
            ]
        );
    }

    #[test]
    fn direct_waits_for_bound_pilot() {
        // Bound pilot not in the active list: nothing scheduled.
        let pilots = [pv(0, 8, 1000.0)];
        let units = [uv(0, 1, 100.0, Some(3))];
        let mut cur = 0;
        assert!(run(UnitScheduler::Direct, &units, &pilots, &mut cur).is_empty());
    }

    #[test]
    fn round_robin_cycles() {
        let pilots = [pv(0, 2, 1000.0), pv(1, 2, 1000.0), pv(2, 2, 1000.0)];
        let units: Vec<_> = (0..6).map(|i| uv(i, 1, 100.0, None)).collect();
        let mut cur = 0;
        let a = run(UnitScheduler::RoundRobin, &units, &pilots, &mut cur);
        let targets: Vec<u32> = a.iter().map(|(_, p)| p.0).collect();
        assert_eq!(targets, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_ignores_walltime() {
        // Remaining walltime is too short, but round robin schedules
        // anyway — that is its defect by design.
        let pilots = [pv(0, 4, 10.0)];
        let units = [uv(0, 1, 1000.0, None)];
        let mut cur = 0;
        let a = run(UnitScheduler::RoundRobin, &units, &pilots, &mut cur);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn backfill_respects_remaining_walltime() {
        let pilots = [pv(0, 4, 10.0), pv(1, 4, 2000.0)];
        let units = [uv(0, 1, 1000.0, None), uv(1, 1, 5.0, None)];
        let mut cur = 0;
        let a = run(UnitScheduler::Backfill, &units, &pilots, &mut cur);
        // Long unit only fits pilot 1; short unit prefers the pilot with
        // the most remaining walltime (1) if it still has room.
        assert!(a.contains(&(UnitId(0), PilotId(1))));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn backfill_skips_unfittable_units() {
        let pilots = [pv(0, 4, 50.0)];
        let units = [uv(0, 1, 100.0, None), uv(1, 8, 10.0, None)];
        let mut cur = 0;
        let a = run(UnitScheduler::Backfill, &units, &pilots, &mut cur);
        assert!(a.is_empty());
    }

    #[test]
    fn empty_inputs() {
        let mut cur = 0;
        for s in [
            UnitScheduler::Direct,
            UnitScheduler::RoundRobin,
            UnitScheduler::Backfill,
        ] {
            assert!(run(s, &[], &[pv(0, 4, 100.0)], &mut cur).is_empty());
            assert!(run(s, &[uv(0, 1, 1.0, None)], &[], &mut cur).is_empty());
        }
    }

    proptest! {
        /// No pilot is ever oversubscribed within one pass, and each unit
        /// is assigned at most once.
        #[test]
        fn prop_capacity_respected(
            pilot_cores in proptest::collection::vec(1u32..16, 1..5),
            unit_cores in proptest::collection::vec(1u32..8, 1..40),
            sched_pick in 0u8..3,
        ) {
            let scheduler = match sched_pick {
                0 => UnitScheduler::Direct,
                1 => UnitScheduler::RoundRobin,
                _ => UnitScheduler::Backfill,
            };
            let pilots: Vec<PilotView> = pilot_cores
                .iter()
                .enumerate()
                .map(|(i, c)| pv(i as u32, *c, 1e6))
                .collect();
            let units: Vec<UnitView> = unit_cores
                .iter()
                .enumerate()
                .map(|(i, c)| uv(i as u32, *c, 60.0,
                    Some((i % pilots.len()) as u32)))
                .collect();
            let mut cur = 0;
            let a = run(scheduler, &units, &pilots, &mut cur);
            // Each unit at most once, in queue order (ids are queue
            // positions here).
            for w in a.windows(2) {
                prop_assert!(w[0].0 < w[1].0);
            }
            // Capacity per pilot.
            for p in &pilots {
                let used: u32 = a.iter()
                    .filter(|(_, pid)| *pid == p.id)
                    .map(|(u, _)| units[u.0 as usize].cores)
                    .sum();
                prop_assert!(used <= p.free_cores);
            }
        }

        /// Backfill never places a unit whose duration exceeds the
        /// pilot's remaining walltime.
        #[test]
        fn prop_backfill_walltime_safe(
            rems in proptest::collection::vec(1.0f64..1e4, 1..5),
            durs in proptest::collection::vec(1.0f64..1e4, 1..30),
        ) {
            let pilots: Vec<PilotView> = rems
                .iter()
                .enumerate()
                .map(|(i, r)| pv(i as u32, 4, *r))
                .collect();
            let units: Vec<UnitView> = durs
                .iter()
                .enumerate()
                .map(|(i, t)| uv(i as u32, 1, *t, None))
                .collect();
            let mut cur = 0;
            let a = run(UnitScheduler::Backfill, &units, &pilots, &mut cur);
            for (u, p) in a {
                let unit = &units[u.0 as usize];
                let pilot = pilots.iter().find(|x| x.id == p).unwrap();
                prop_assert!(pilot.remaining_walltime >= unit.est_duration);
            }
        }
    }

    #[test]
    fn scan_stops_once_every_pilot_is_full() {
        let pilots = [pv(0, 2, 1000.0), pv(1, 0, 1000.0), pv(2, 1, 1000.0)];
        for s in [
            UnitScheduler::Direct,
            UnitScheduler::RoundRobin,
            UnitScheduler::Backfill,
        ] {
            let mut pulled = 0;
            let units = (0..100).map(|i| {
                pulled += 1;
                uv(i, 1, 10.0, Some([0, 2][i as usize % 2]))
            });
            let mut cur = 0;
            let a = assign(s, units, pilots.to_vec(), &mut cur);
            assert_eq!(a.len(), 3, "{s:?}");
            assert_eq!(pulled, a.len(), "{s:?} pulled past the last free core");
        }
        // No free core at all: not one view is built.
        let mut pulled = 0;
        let units = std::iter::from_fn(|| {
            pulled += 1;
            Some(uv(0, 1, 10.0, None))
        });
        let full = vec![pv(0, 0, 1000.0), pv(1, 0, 1000.0)];
        assert!(assign(UnitScheduler::RoundRobin, units, full, &mut 0).is_empty());
        assert_eq!(pulled, 0);
    }

    /// Shallow by default so `cargo test` stays fast; the chaos-smoke CI
    /// job sets `AIMES_FULL_PROPTEST=1` for the full-depth sweep.
    fn oracle_cases() -> u32 {
        match std::env::var("AIMES_FULL_PROPTEST") {
            Ok(v) if !v.is_empty() && v != "0" => 4096,
            _ => 256,
        }
    }

    /// A random pass: pilots in id order (ids with gaps, some with no
    /// free core, some with little walltime left) and units of mixed
    /// core counts and durations, some bound to a pilot, present or not.
    fn pass() -> impl Strategy<Value = (Vec<PilotView>, Vec<UnitView>)> {
        let pilots = proptest::collection::vec((1u32..4, 0u32..9, 0u32..4), 0..6).prop_map(|ps| {
            let mut id = 0;
            ps.into_iter()
                .map(|(gap, free, rem)| {
                    id += gap;
                    // Remaining walltime: none, short, medium or ample.
                    pv(id, free, [0.0, 30.0, 600.0, 1e5][rem as usize])
                })
                .collect::<Vec<_>>()
        });
        let units =
            proptest::collection::vec((1u32..5, 1u32..1200, 0u32..16), 0..60).prop_map(|us| {
                us.into_iter()
                    .enumerate()
                    .map(|(i, (cores, dur, bind))| {
                        // Five in 16 unbound; the rest bound to ids 0..10, some
                        // of which no pilot has.
                        let bound = (bind >= 5).then(|| bind - 5);
                        uv(i as u32, cores, f64::from(dur), bound)
                    })
                    .collect::<Vec<_>>()
            });
        (pilots, units)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(oracle_cases()))]

        /// The lazy `assign` places exactly what the slice-based oracle
        /// places, in the same order, and leaves the round-robin cursor
        /// where the oracle does, for every scheduler and start cursor.
        #[test]
        fn prop_assign_matches_oracle(case in pass(), start in 0usize..8) {
            let (pilots, units) = case;
            for s in [
                UnitScheduler::Direct,
                UnitScheduler::RoundRobin,
                UnitScheduler::Backfill,
            ] {
                let (mut lazy, mut slice) = (start, start);
                let got = run(s, &units, &pilots, &mut lazy);
                let want = oracle::assign_oracle(s, &units, &pilots, &mut slice);
                prop_assert_eq!(&got, &want, "{:?}", s);
                prop_assert_eq!(lazy, slice, "{:?} cursor", s);
            }
        }
    }
}
