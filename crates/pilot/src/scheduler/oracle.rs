//! `assign` as it was before it took a lazy unit iterator: it copies and
//! sorts the pilots, and scans every unit even once every pilot is full.
//! Kept as the differential oracle the lazy `assign` is checked against.

use super::{PilotView, UnitScheduler, UnitView};
use crate::pilot::PilotId;
use crate::unit::UnitId;

/// Compute assignments for this scheduling pass. `units` is in queue
/// order; `pilots` lists *active* pilots only. Returns `(unit, pilot)`
/// pairs in `units` order, each unit at most once: a subsequence of the
/// queue, which the unit manager removes with one cursor. Unassigned
/// units simply stay queued for the next pass.
pub fn assign_oracle(
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
