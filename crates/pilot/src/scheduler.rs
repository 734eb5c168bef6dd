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

/// Compute assignments for this scheduling pass. `units` is in queue
/// order; `pilots` lists *active* pilots only. Returns `(unit, pilot)`
/// pairs in `units` order, each unit at most once: a subsequence of the
/// queue, which the unit manager removes with one cursor. Unassigned
/// units simply stay queued for the next pass.
pub fn assign(
    scheduler: UnitScheduler,
    units: &[UnitView],
    pilots: &[PilotView],
    rr_cursor: &mut usize,
) -> Vec<(UnitId, PilotId)> {
    let mut free: Vec<PilotView> = pilots.to_vec();
    // Deterministic pilot order.
    free.sort_by_key(|p| p.id);
    let mut out = Vec::new();
    match scheduler {
        UnitScheduler::Direct => {
            for u in units {
                let Some(target) = u.bound_to else { continue };
                if let Some(p) = free.iter_mut().find(|p| p.id == target) {
                    if p.free_cores >= u.cores {
                        p.free_cores -= u.cores;
                        out.push((u.id, p.id));
                    }
                }
            }
        }
        UnitScheduler::RoundRobin => {
            if free.is_empty() {
                return out;
            }
            for u in units {
                let n = free.len();
                // Find the next pilot (cyclically) with room.
                let mut placed = false;
                for k in 0..n {
                    let idx = (*rr_cursor + k) % n;
                    if free[idx].free_cores >= u.cores {
                        free[idx].free_cores -= u.cores;
                        out.push((u.id, free[idx].id));
                        *rr_cursor = (idx + 1) % n;
                        placed = true;
                        break;
                    }
                }
                if !placed {
                    // No pilot has room; later (equal-core) units won't
                    // fit either for the paper's uniform single-core bags,
                    // but heterogeneous units might — keep scanning.
                    continue;
                }
            }
        }
        UnitScheduler::Backfill => {
            for u in units {
                // Among pilots that fit both cores and remaining walltime,
                // pick the one with the most remaining walltime (leaves
                // tight pilots for short units); ties by id.
                let best = free
                    .iter_mut()
                    .filter(|p| p.free_cores >= u.cores && p.remaining_walltime >= u.est_duration)
                    .max_by(|a, b| {
                        a.remaining_walltime
                            .cmp(&b.remaining_walltime)
                            .then_with(|| b.id.cmp(&a.id))
                    });
                if let Some(p) = best {
                    p.free_cores -= u.cores;
                    out.push((u.id, p.id));
                }
            }
        }
    }
    out
}

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
        let a = assign(UnitScheduler::Direct, &units, &pilots, &mut cur);
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
        assert!(assign(UnitScheduler::Direct, &units, &pilots, &mut cur).is_empty());
    }

    #[test]
    fn round_robin_cycles() {
        let pilots = [pv(0, 2, 1000.0), pv(1, 2, 1000.0), pv(2, 2, 1000.0)];
        let units: Vec<_> = (0..6).map(|i| uv(i, 1, 100.0, None)).collect();
        let mut cur = 0;
        let a = assign(UnitScheduler::RoundRobin, &units, &pilots, &mut cur);
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
        let a = assign(UnitScheduler::RoundRobin, &units, &pilots, &mut cur);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn backfill_respects_remaining_walltime() {
        let pilots = [pv(0, 4, 10.0), pv(1, 4, 2000.0)];
        let units = [uv(0, 1, 1000.0, None), uv(1, 1, 5.0, None)];
        let mut cur = 0;
        let a = assign(UnitScheduler::Backfill, &units, &pilots, &mut cur);
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
        let a = assign(UnitScheduler::Backfill, &units, &pilots, &mut cur);
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
            assert!(assign(s, &[], &[pv(0, 4, 100.0)], &mut cur).is_empty());
            assert!(assign(s, &[uv(0, 1, 1.0, None)], &[], &mut cur).is_empty());
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
            let a = assign(scheduler, &units, &pilots, &mut cur);
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
            let a = assign(UnitScheduler::Backfill, &units, &pilots, &mut cur);
            for (u, p) in a {
                let unit = &units[u.0 as usize];
                let pilot = pilots.iter().find(|x| x.id == p).unwrap();
                prop_assert!(pilot.remaining_walltime >= unit.est_duration);
            }
        }
    }
}
