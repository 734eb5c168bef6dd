//! Batch scheduling policies.
//!
//! Production HPC schedulers are overwhelmingly FCFS-with-backfill; the
//! paper's resources ran variants of EASY backfill, and the unpredictable
//! interaction between queue state, walltime requests, and backfill holes
//! is what makes Tw "notoriously unpredictable" (§IV-B, refs \[24\]\[25\]).
//! Both policies here work purely on *requested* walltimes — actual
//! runtimes are invisible to them, as in reality.
//!
//! EASY backfill needs no availability profile. Until the blocked head's
//! reservation, every reservation starts at `now` and every release only
//! adds cores, so free cores never decrease in time: the head's shadow is
//! the first instant at which the cores free now plus those released by
//! then reach its request, found by walking the deadline-ordered releases
//! merged with the phase-1 starts' ends. A later job then cannot delay the
//! head exactly when it fits now and either ends by the shadow or fits in
//! the `extra` cores the head leaves spare at the shadow, which it uses up.

use crate::job::JobId;
use aimes_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Which policy a cluster runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum SchedulingPolicy {
    /// Strict first-come-first-served: nothing may overtake the queue head.
    Fcfs,
    /// EASY backfill: the queue head gets a reservation at the earliest
    /// feasible time; later jobs may start now if they cannot delay it.
    EasyBackfill,
}

/// Scheduler's view of a queued job.
#[derive(Clone, Copy, Debug)]
pub struct QueuedJobView {
    pub id: JobId,
    pub cores: u32,
    pub walltime: SimDuration,
}

/// Decide which queued jobs start *now*. `releases` are the running jobs'
/// `(walltime deadline, cores)` in non-decreasing deadline order; `queue`
/// is in priority order. Fills `starts` with the ids to start, in start
/// order; `ends` is EASY's scratch list of the phase-1 starts' ends. Both
/// are cleared first, so a caller reuses them across passes.
pub fn select_starts<'q>(
    policy: SchedulingPolicy,
    now: SimTime,
    free_cores: u32,
    releases: impl IntoIterator<Item = (SimTime, u32)>,
    queue: impl IntoIterator<Item = &'q QueuedJobView>,
    starts: &mut Vec<JobId>,
    ends: &mut Vec<(SimTime, u32)>,
) {
    starts.clear();
    ends.clear();
    match policy {
        SchedulingPolicy::Fcfs => fcfs(free_cores, queue, starts),
        SchedulingPolicy::EasyBackfill => {
            easy_backfill(now, free_cores, releases, queue, starts, ends)
        }
    }
}

fn fcfs<'q>(
    mut free: u32,
    queue: impl IntoIterator<Item = &'q QueuedJobView>,
    starts: &mut Vec<JobId>,
) {
    for job in queue {
        if job.cores <= free {
            free -= job.cores;
            starts.push(job.id);
        } else {
            break; // strict: no overtaking
        }
    }
}

fn easy_backfill<'q>(
    now: SimTime,
    free: u32,
    releases: impl IntoIterator<Item = (SimTime, u32)>,
    queue: impl IntoIterator<Item = &'q QueuedJobView>,
    starts: &mut Vec<JobId>,
    ends: &mut Vec<(SimTime, u32)>,
) {
    let mut releases = releases.into_iter().peekable();
    let mut queue = queue.into_iter();
    // Releases at or before `now` are due at this instant: their cores
    // count as free.
    let mut free_now = free;
    while let Some((_, cores)) = releases.next_if(|&(at, _)| at <= now) {
        free_now += cores;
    }

    // Phase 1: start the queue head while it fits right now. Every start
    // holds its cores at `now`, whatever its length.
    let head = loop {
        let Some(job) = queue.next() else {
            return;
        };
        if job.cores > free_now {
            break job;
        }
        free_now -= job.cores;
        starts.push(job.id);
        ends.push((now + job.walltime, job.cores));
    };

    // Phase 2: `hold` is the blocked head's shadow and the cores it leaves
    // spare then. A head that never fits, or whose reservation is empty,
    // holds nothing back.
    ends.sort_unstable_by_key(|&(at, _)| at);
    let mut ends = ends.iter().copied().peekable();
    let mut avail = free_now;
    let mut hold = None;
    loop {
        let at = match (releases.peek(), ends.peek()) {
            (Some(&(r, _)), Some(&(e, _))) => r.min(e),
            (Some(&(r, _)), None) => r,
            (None, Some(&(e, _))) => e,
            (None, None) => break,
        };
        while let Some((_, cores)) = releases.next_if(|&(r, _)| r == at) {
            avail += cores;
        }
        while let Some((_, cores)) = ends.next_if(|&(e, _)| e == at) {
            avail += cores;
        }
        if avail >= head.cores {
            if at + head.walltime > at {
                hold = Some((at, avail - head.cores));
            }
            break;
        }
    }

    // Backfill: a later job starts now if it fits now and cannot delay
    // the head — it ends by the shadow or runs on the spare cores.
    for job in queue {
        if free_now == 0 {
            break;
        }
        if job.cores > free_now {
            continue;
        }
        let fits = match &mut hold {
            None => true,
            Some((shadow, _)) if now + job.walltime <= *shadow => true,
            Some((_, extra)) if job.cores <= *extra => {
                *extra -= job.cores;
                true
            }
            Some(_) => false,
        };
        if fits {
            free_now -= job.cores;
            starts.push(job.id);
        }
    }
}

/// The profile-based passes that [`select_starts`] is checked against:
/// each builds an [`AvailabilityProfile`] from the releases and reserves
/// into it, exactly as the scheduler did before the closed-form pass.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use crate::profile::AvailabilityProfile;

    /// Profile-based reference for [`super::select_starts`]; `releases`
    /// are `(walltime deadline, cores)` in any order.
    pub(crate) fn select_starts(
        policy: SchedulingPolicy,
        now: SimTime,
        free_cores: u32,
        releases: &[(SimTime, u32)],
        queue: &[QueuedJobView],
    ) -> Vec<JobId> {
        match policy {
            SchedulingPolicy::Fcfs => fcfs(free_cores, queue),
            SchedulingPolicy::EasyBackfill => easy_backfill(now, free_cores, releases, queue),
        }
    }

    fn fcfs(mut free: u32, queue: &[QueuedJobView]) -> Vec<JobId> {
        let mut starts = Vec::new();
        for job in queue {
            if job.cores <= free {
                free -= job.cores;
                starts.push(job.id);
            } else {
                break; // strict: no overtaking
            }
        }
        starts
    }

    fn easy_backfill(
        now: SimTime,
        free: u32,
        releases: &[(SimTime, u32)],
        queue: &[QueuedJobView],
    ) -> Vec<JobId> {
        let mut profile = AvailabilityProfile::new(now, free, releases);
        let mut starts = Vec::new();
        let mut rest = queue;

        // Phase 1: start the queue head while it fits right now.
        while let Some((head, tail)) = rest.split_first() {
            if profile.min_free_over(now, head.walltime) >= head.cores {
                profile.reserve(now, head.walltime, head.cores);
                starts.push(head.id);
                rest = tail;
            } else {
                break;
            }
        }

        // Phase 2: reserve the blocked head at its earliest feasible ("shadow")
        // time, then backfill any later job that can run now without touching
        // that reservation.
        if let Some((head, tail)) = rest.split_first() {
            if let Some(shadow) = profile.earliest_fit(head.cores, head.walltime, now) {
                profile.reserve(shadow, head.walltime, head.cores);
            }
            // If even the empty machine can't fit the head (earliest_fit None),
            // it sits in the queue forever; the cluster rejects such jobs at
            // submit time, so this branch is defensive.
            //
            // `free_now` bounds min_free_over(now, ·) from above: the head's
            // shadow is strictly after `now` (otherwise phase 1 would have
            // started it), so only the backfill reservations — all at `now` —
            // lower free cores at `now`. Candidates wider than free_now can
            // therefore skip the O(segments) window scan, and once free_now
            // reaches zero no further candidate can start.
            let mut free_now = profile.free_at(now);
            for job in tail {
                if free_now == 0 {
                    break;
                }
                if job.cores > free_now {
                    continue;
                }
                if profile.min_free_over(now, job.walltime) >= job.cores {
                    profile.reserve(now, job.walltime, job.cores);
                    free_now -= job.cores;
                    starts.push(job.id);
                }
            }
        }
        starts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::AvailabilityProfile;
    use proptest::prelude::*;
    use std::cell::RefCell;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }
    fn d(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }
    fn q(id: u64, cores: u32, wall: f64) -> QueuedJobView {
        QueuedJobView {
            id: JobId(id),
            cores,
            walltime: d(wall),
        }
    }
    fn r(cores: u32, deadline: f64) -> (SimTime, u32) {
        (t(deadline), cores)
    }

    /// A pass's start ids and EASY's phase-1 ends.
    type Buffers = (Vec<JobId>, Vec<(SimTime, u32)>);

    thread_local! {
        /// The one pair of pass buffers each test thread runs every pass
        /// through, so that each call finds the last call's output there.
        static BUFFERS: RefCell<Buffers> = RefCell::default();
    }

    /// [`select_starts`] through this thread's reused buffers.
    fn select<'q>(
        policy: SchedulingPolicy,
        now: SimTime,
        free: u32,
        releases: impl IntoIterator<Item = (SimTime, u32)>,
        queue: impl IntoIterator<Item = &'q QueuedJobView>,
    ) -> Vec<JobId> {
        BUFFERS.with_borrow_mut(|(starts, ends)| {
            select_starts(policy, now, free, releases, queue, starts, ends);
            starts.clone()
        })
    }

    #[test]
    fn fcfs_starts_prefix_only() {
        let queue = [q(1, 4, 10.0), q(2, 8, 10.0), q(3, 1, 10.0)];
        // 6 free: job 1 fits, job 2 doesn't; job 3 must NOT overtake.
        let starts = select(SchedulingPolicy::Fcfs, t(0.0), 6, [], &queue);
        assert_eq!(starts, vec![JobId(1)]);
    }

    #[test]
    fn fcfs_starts_all_when_room() {
        let queue = [q(1, 2, 10.0), q(2, 2, 10.0)];
        let starts = select(SchedulingPolicy::Fcfs, t(0.0), 8, [], &queue);
        assert_eq!(starts, vec![JobId(1), JobId(2)]);
    }

    #[test]
    fn backfill_lets_small_short_job_through() {
        // 6 free now; 4 release at t=100. Head needs 10 cores → shadow 100.
        // Job 2 (2 cores, 50 s) ends at 50 < 100: backfills.
        let running = [r(4, 100.0)];
        let queue = [q(1, 10, 1000.0), q(2, 2, 50.0)];
        let starts = select(SchedulingPolicy::EasyBackfill, t(0.0), 6, running, &queue);
        assert_eq!(starts, vec![JobId(2)]);
    }

    #[test]
    fn backfill_never_delays_head_reservation() {
        // 6 free now; 4 release at t=100; head needs 10 → shadow t=100.
        // Job 2 (6 cores, 200 s) would still hold 6 cores at t=100, leaving
        // only 4 for the head → must NOT backfill.
        let running = [r(4, 100.0)];
        let queue = [q(1, 10, 1000.0), q(2, 6, 200.0)];
        let starts = select(SchedulingPolicy::EasyBackfill, t(0.0), 6, running, &queue);
        assert!(starts.is_empty());
    }

    #[test]
    fn backfill_on_spare_cores_during_shadow() {
        // 8 free now; 4 release at t=100. Head needs 10 → shadow t=100,
        // using 10 of the 12 available then. Job 2 (2 cores, long) uses
        // cores the head never needs → backfills even though it outlives
        // the shadow time.
        let running = [r(4, 100.0)];
        let queue = [q(1, 10, 1000.0), q(2, 2, 10_000.0)];
        let starts = select(SchedulingPolicy::EasyBackfill, t(0.0), 8, running, &queue);
        assert_eq!(starts, vec![JobId(2)]);
    }

    #[test]
    fn backfill_considers_all_later_jobs() {
        let running = [r(4, 100.0)];
        let queue = [
            q(1, 10, 1000.0), // blocked head
            q(2, 6, 200.0),   // would delay head
            q(3, 2, 50.0),    // fits before shadow
            q(4, 2, 50.0),    // also fits
            q(5, 4, 50.0),    // only 2 cores left now → no
        ];
        let starts = select(SchedulingPolicy::EasyBackfill, t(0.0), 6, running, &queue);
        assert_eq!(starts, vec![JobId(3), JobId(4)]);
    }

    #[test]
    fn head_starts_immediately_when_it_fits() {
        let queue = [q(1, 4, 10.0), q(2, 4, 10.0), q(3, 4, 10.0)];
        let starts = select(SchedulingPolicy::EasyBackfill, t(0.0), 8, [], &queue);
        assert_eq!(starts, vec![JobId(1), JobId(2)]);
    }

    #[test]
    fn empty_queue_no_starts() {
        for p in [SchedulingPolicy::Fcfs, SchedulingPolicy::EasyBackfill] {
            assert!(select(p, t(0.0), 100, [], &[]).is_empty());
        }
    }

    #[test]
    fn zero_free_cores_no_starts() {
        let queue = [q(1, 1, 10.0)];
        let running = [r(8, 50.0)];
        for p in [SchedulingPolicy::Fcfs, SchedulingPolicy::EasyBackfill] {
            assert!(select(p, t(0.0), 0, running, &queue).is_empty());
        }
    }

    /// The pass's and the profile oracle's starts on the same inputs.
    /// `releases` are `(deadline, cores)` in any order.
    fn pass_and_oracle(
        policy: SchedulingPolicy,
        now: f64,
        free: u32,
        releases: &[(f64, u32)],
        queue: &[QueuedJobView],
    ) -> (Vec<JobId>, Vec<JobId>) {
        let mut running: Vec<(SimTime, u32)> = releases.iter().map(|&(dl, c)| r(c, dl)).collect();
        let oracle = oracle::select_starts(policy, t(now), free, &running, queue);
        running.sort_by_key(|&(at, _)| at);
        (select(policy, t(now), free, running, queue), oracle)
    }

    /// EASY starts, asserting that the pass and the oracle agree.
    fn easy(now: f64, free: u32, releases: &[(f64, u32)], queue: &[QueuedJobView]) -> Vec<JobId> {
        let (got, want) =
            pass_and_oracle(SchedulingPolicy::EasyBackfill, now, free, releases, queue);
        assert_eq!(got, want, "pass and oracle disagree");
        got
    }

    #[test]
    fn head_wider_than_the_machine_holds_nothing_back() {
        // 4 free + 4 released = 8 cores ever; the 16-core head never fits,
        // so it reserves nothing and both later jobs start now, however
        // long they run.
        let queue = [q(1, 16, 100.0), q(2, 2, 1000.0), q(3, 2, 10.0)];
        assert_eq!(
            easy(0.0, 4, &[(100.0, 4)], &queue),
            vec![JobId(2), JobId(3)]
        );
    }

    #[test]
    fn backfill_may_end_exactly_at_the_shadow() {
        // Head needs 10: shadow t=100 with no spare cores. A 6-core job
        // running past it would delay the head; one ending at t=100
        // hands its cores back just in time.
        let queue = [q(1, 10, 1000.0), q(2, 6, 101.0), q(3, 6, 100.0)];
        assert_eq!(easy(0.0, 6, &[(100.0, 4)], &queue), vec![JobId(3)]);
    }

    #[test]
    fn phase1_end_and_release_at_the_same_instant_both_count() {
        // Job 1 starts (4 of 8 free) and ends at t=50, when a 4-core
        // release also lands: 4 + 4 + 4 = 12 free then, so the 10-core
        // head's shadow is t=50 with 2 spare. Job 3 outlives the shadow on
        // those 2 spare cores; job 4 cannot (spare used up); job 5 ends at
        // the shadow.
        let queue = [
            q(1, 4, 50.0),
            q(2, 10, 1000.0),
            q(3, 2, 100.0),
            q(4, 2, 60.0),
            q(5, 2, 50.0),
        ];
        assert_eq!(
            easy(0.0, 8, &[(50.0, 4)], &queue),
            vec![JobId(1), JobId(3), JobId(5)]
        );
    }

    #[test]
    fn zero_length_head_reservation_holds_nothing_back() {
        // The blocked head's shadow is t=100, but a 0 s reservation holds
        // no cores there, so a long 2-core job may start now.
        let queue = [q(1, 10, 0.0), q(2, 2, 1000.0)];
        assert_eq!(easy(0.0, 2, &[(100.0, 8)], &queue), vec![JobId(2)]);
    }

    #[test]
    fn releases_at_or_before_now_count_as_free() {
        // The 4 cores due back at t=10 count at t=20 even though the
        // completion has not been processed yet.
        let queue = [q(1, 6, 10.0)];
        assert_eq!(easy(20.0, 2, &[(10.0, 4)], &queue), vec![JobId(1)]);
    }

    /// One generated pass: `(now, free, releases, queue)` with times in
    /// whole seconds. Walltimes are at least 1 s: a 0 s start holds its
    /// cores at `now` in the pass but not in the oracle's profile, the one
    /// intended divergence (it made the profile pass oversubscribe).
    type Pass = (u32, u32, Vec<(u32, u32)>, Vec<(u32, u32)>);

    /// Both policies' passes against the oracle. Every case of a proptest
    /// runs on one thread, so each pass fills the buffers the previous
    /// case's pass left its output in: a stale start or end shows.
    fn check_pass((now, free, releases, queue): Pass) -> Result<(), String> {
        let releases: Vec<(f64, u32)> =
            releases.iter().map(|&(dl, c)| (f64::from(dl), c)).collect();
        let queue: Vec<QueuedJobView> = queue
            .iter()
            .enumerate()
            .map(|(i, &(c, w))| q(i as u64, c, f64::from(w)))
            .collect();
        for policy in [SchedulingPolicy::Fcfs, SchedulingPolicy::EasyBackfill] {
            let (got, want) = pass_and_oracle(policy, f64::from(now), free, &releases, &queue);
            prop_assert_eq!(
                got,
                want,
                "{policy:?} now={now} free={free} releases={releases:?} queue={queue:?}"
            );
        }
        Ok(())
    }

    /// Reference model for the EASY invariant: simulate the head's shadow
    /// time with and without the backfilled jobs; it must not move later.
    fn shadow_time(
        now: SimTime,
        free: u32,
        running: &[(SimTime, u32)],
        extra: &[(u32, SimDuration)],
        head: &QueuedJobView,
    ) -> Option<SimTime> {
        let mut rel = running.to_vec();
        let mut free = free;
        for (c, w) in extra {
            // Each backfilled job consumes free cores now, returns at now+w.
            assert!(free >= *c);
            free -= c;
            rel.push((now + *w, *c));
        }
        let p = AvailabilityProfile::new(now, free, &rel);
        p.earliest_fit(head.cores, head.walltime, now)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]
        /// The pass agrees with the profile oracle on small integer
        /// inputs, including releases already due at `now`.
        #[test]
        fn prop_pass_matches_oracle_small(
            now in 0u32..=50,
            free in 0u32..=40,
            releases in proptest::collection::vec((0u32..=400, 1u32..=16), 0..=12),
            queue in proptest::collection::vec((1u32..=48, 1u32..=300), 0..=12),
        ) {
            check_pass((now, free, releases, queue))?;
        }

        /// The pass agrees with the profile oracle when every instant sits
        /// on a 10 s grid, so releases, phase-1 ends, the shadow and
        /// backfill ends tie often.
        #[test]
        fn prop_pass_matches_oracle_ties(
            now in 0u32..=5,
            free in 0u32..=100,
            releases in proptest::collection::vec((0u32..=30, 1u32..=16), 0..=60),
            queue in proptest::collection::vec((1u32..=64, 1u32..=30), 0..=40),
        ) {
            let grid = |v: Vec<(u32, u32)>, scale_first: bool| -> Vec<(u32, u32)> {
                v.into_iter()
                    .map(|(a, b)| if scale_first { (a * 10, b) } else { (a, b * 10) })
                    .collect()
            };
            check_pass((now * 10, free, grid(releases, true), grid(queue, false)))?;
        }
    }

    proptest! {
        /// EASY safety: backfilling never delays the queue head beyond the
        /// shadow time it would have had with no backfilling at all.
        #[test]
        fn prop_backfill_preserves_head_shadow(
            free in 0u32..32,
            running in proptest::collection::vec((1u32..16, 1.0f64..500.0), 0..8),
            jobs in proptest::collection::vec((1u32..24, 1.0f64..400.0), 1..10),
        ) {
            let now = t(0.0);
            let mut running: Vec<(SimTime, u32)> =
                running.iter().map(|(c, dl)| r(*c, *dl)).collect();
            running.sort_by_key(|&(at, _)| at);
            let queue: Vec<QueuedJobView> = jobs
                .iter()
                .enumerate()
                .map(|(i, (c, w))| q(i as u64, *c, *w))
                .collect();
            let starts = select(
                SchedulingPolicy::EasyBackfill, now, free, running.iter().copied(), &queue);
            // Identify the first *non-started* job: the effective head.
            let started: std::collections::HashSet<JobId> =
                starts.iter().copied().collect();
            let head = queue.iter().find(|j| !started.contains(&j.id));
            let Some(head) = head else { return Ok(()); };
            // Jobs started from the prefix before the head are legitimate
            // FCFS starts; jobs after it are backfill. Compare the head's
            // shadow with only-prefix starts vs all starts.
            let head_pos = queue.iter().position(|j| j.id == head.id).unwrap();
            let prefix: Vec<(u32, SimDuration)> = queue[..head_pos]
                .iter()
                .filter(|j| started.contains(&j.id))
                .map(|j| (j.cores, j.walltime))
                .collect();
            let all: Vec<(u32, SimDuration)> = queue
                .iter()
                .filter(|j| started.contains(&j.id))
                .map(|j| (j.cores, j.walltime))
                .collect();
            let shadow_without = shadow_time(now, free, &running, &prefix, head);
            let shadow_with = shadow_time(now, free, &running, &all, head);
            match (shadow_without, shadow_with) {
                (Some(a), Some(b)) => prop_assert!(
                    b <= a,
                    "backfill delayed head: {a:?} -> {b:?}"
                ),
                (None, _) => {} // head can never fit (oversized) — cluster rejects these
                (Some(_), None) => prop_assert!(false, "backfill made head infeasible"),
            }
        }

        /// Started jobs always fit within currently free cores.
        #[test]
        fn prop_starts_fit_in_free_cores(
            free in 0u32..32,
            jobs in proptest::collection::vec((1u32..24, 1.0f64..400.0), 1..10),
        ) {
            let queue: Vec<QueuedJobView> = jobs
                .iter()
                .enumerate()
                .map(|(i, (c, w))| q(i as u64, *c, *w))
                .collect();
            for p in [SchedulingPolicy::Fcfs, SchedulingPolicy::EasyBackfill] {
                let starts = select(p, t(0.0), free, [], &queue);
                let used: u32 = queue
                    .iter()
                    .filter(|j| starts.contains(&j.id))
                    .map(|j| j.cores)
                    .sum();
                prop_assert!(used <= free);
            }
        }
    }
}
