//! Core-availability profiles over future time.
//!
//! A profile answers "how many cores are free during [t1, t2)?" given the
//! conservative assumption that running jobs hold their cores until their
//! *walltime request* (the scheduler cannot know actual runtimes — exactly
//! the information asymmetry that Tsafrir et al. [paper ref 25] study).
//!
//! It serves the Bundle layer's predictive queue-wait estimates for
//! hypothetical pilot submissions, which replay the whole queue as
//! reservations at arbitrary future times. The dispatch pass itself needs
//! no profile (see [`crate::policy`]); the profile-based pass it replaced
//! is kept as its test oracle.

use aimes_sim::{SimDuration, SimTime};

/// Step function: free cores as a function of time, from `origin` to
/// infinity. Segment `i` spans `[times[i], times[i+1])`; the last segment
/// extends forever.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct AvailabilityProfile {
    times: Vec<SimTime>,
    free: Vec<u32>,
}

impl AvailabilityProfile {
    /// Build a profile starting at `origin` with `free_now` free cores and
    /// the given future releases `(time, cores)` (each adds cores when a
    /// running job's walltime expires). Releases may be in any order and at
    /// or before `origin` (then they are treated as already free).
    pub fn new(origin: SimTime, free_now: u32, releases: &[(SimTime, u32)]) -> Self {
        let mut events: Vec<(SimTime, u32)> = releases
            .iter()
            .filter(|(t, _)| *t > origin)
            .copied()
            .collect();
        events.sort_by_key(|(t, _)| *t);
        let already: u32 = releases
            .iter()
            .filter(|(t, _)| *t <= origin)
            .map(|(_, c)| *c)
            .sum();

        let mut times = vec![origin];
        let mut free = vec![free_now + already];
        for (t, c) in events {
            if *times.last().expect("non-empty") == t {
                *free.last_mut().expect("non-empty") += c;
            } else {
                let cur = *free.last().expect("non-empty");
                times.push(t);
                free.push(cur + c);
            }
        }
        AvailabilityProfile { times, free }
    }

    /// The profile's origin (earliest queryable instant).
    pub fn origin(&self) -> SimTime {
        self.times[0]
    }

    /// Free cores at instant `t` (clamped to the origin).
    #[cfg(test)]
    pub fn free_at(&self, t: SimTime) -> u32 {
        let idx = match self.times.binary_search(&t) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        self.free[idx]
    }

    /// Minimum free cores over `[start, start + duration)`.
    #[cfg(test)]
    pub fn min_free_over(&self, start: SimTime, duration: SimDuration) -> u32 {
        let end = start + duration;
        // Segments overlapping the window: the one containing `start`
        // through the last one beginning strictly before `end`.
        let lo = match self.times.binary_search(&start) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        let hi = match self.times.binary_search(&end) {
            Ok(i) | Err(i) => i,
        };
        let hi = hi.max(lo + 1);
        *self.free[lo..hi].iter().min().expect("non-empty window")
    }

    /// Earliest time ≥ `after` at which `cores` are continuously free for
    /// `duration`. Returns `None` only if `cores` exceeds the eventual
    /// all-free capacity (checked against the final segment).
    ///
    /// Single forward sweep, O(segments): the candidate start only ever
    /// advances, because a segment with too few cores invalidates every
    /// candidate whose window would touch it — the next viable start is
    /// that segment's end. Availability only changes at breakpoints, so
    /// the returned start is `after` itself or a breakpoint, exactly as
    /// if every candidate had been probed.
    pub fn earliest_fit(
        &self,
        cores: u32,
        duration: SimDuration,
        after: SimTime,
    ) -> Option<SimTime> {
        let n = self.times.len();
        let after = after.max(self.origin());
        let mut i = match self.times.binary_search(&after) {
            Ok(i) => i,
            Err(i) => i - 1, // `after` ≥ origin = times[0], so i ≥ 1
        };
        let mut candidate = after;
        loop {
            if self.free[i] < cores {
                i += 1;
                if i == n {
                    // The forever-segment is short; no start can ever fit.
                    return None;
                }
                candidate = self.times[i];
                continue;
            }
            // Segment `i` sustains the job. The window is complete once it
            // reaches `candidate + duration`; the final segment extends
            // forever.
            if i + 1 == n || self.times[i + 1] >= candidate + duration {
                return Some(candidate);
            }
            i += 1;
        }
    }

    /// Subtract `cores` over `[start, start + duration)` — a reservation.
    /// Panics if the reservation exceeds availability anywhere in the
    /// window; callers must check availability first (every caller does,
    /// via [`Self::earliest_fit`]).
    pub fn reserve(&mut self, start: SimTime, duration: SimDuration, cores: u32) {
        let end = start + duration;
        self.split_at(start);
        self.split_at(end);
        for i in 0..self.times.len() {
            let seg_start = self.times[i];
            if seg_start >= start && seg_start < end {
                assert!(
                    self.free[i] >= cores,
                    "reservation of {cores} cores exceeds {} free at {:?}",
                    self.free[i],
                    seg_start
                );
                self.free[i] -= cores;
            }
        }
    }

    /// Insert a breakpoint at `t` (no-op if one exists or `t` is before the
    /// origin).
    fn split_at(&mut self, t: SimTime) {
        if t <= self.origin() {
            return;
        }
        match self.times.binary_search(&t) {
            Ok(_) => {}
            Err(i) => {
                let inherited = self.free[i - 1];
                self.times.insert(i, t);
                self.free.insert(i, inherited);
            }
        }
    }

    /// Number of segments (diagnostics).
    #[cfg(test)]
    pub fn segments(&self) -> usize {
        self.times.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }
    fn d(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn flat_profile() {
        let p = AvailabilityProfile::new(t(0.0), 10, &[]);
        assert_eq!(p.free_at(t(0.0)), 10);
        assert_eq!(p.free_at(t(1e9)), 10);
        assert_eq!(p.min_free_over(t(5.0), d(100.0)), 10);
    }

    #[test]
    fn releases_accumulate() {
        let p = AvailabilityProfile::new(t(0.0), 2, &[(t(10.0), 3), (t(20.0), 5)]);
        assert_eq!(p.free_at(t(0.0)), 2);
        assert_eq!(p.free_at(t(10.0)), 5);
        assert_eq!(p.free_at(t(15.0)), 5);
        assert_eq!(p.free_at(t(20.0)), 10);
    }

    #[test]
    fn releases_at_same_time_merge() {
        let p = AvailabilityProfile::new(t(0.0), 0, &[(t(10.0), 3), (t(10.0), 4)]);
        assert_eq!(p.segments(), 2);
        assert_eq!(p.free_at(t(10.0)), 7);
    }

    #[test]
    fn past_releases_are_already_free() {
        let p = AvailabilityProfile::new(t(100.0), 1, &[(t(50.0), 4)]);
        assert_eq!(p.free_at(t(100.0)), 5);
    }

    #[test]
    fn earliest_fit_immediate() {
        let p = AvailabilityProfile::new(t(0.0), 8, &[]);
        assert_eq!(p.earliest_fit(8, d(100.0), t(0.0)), Some(t(0.0)));
    }

    #[test]
    fn earliest_fit_waits_for_release() {
        let p = AvailabilityProfile::new(t(0.0), 2, &[(t(30.0), 6)]);
        assert_eq!(p.earliest_fit(8, d(10.0), t(0.0)), Some(t(30.0)));
        assert_eq!(p.earliest_fit(2, d(10.0), t(0.0)), Some(t(0.0)));
    }

    #[test]
    fn earliest_fit_respects_after() {
        let p = AvailabilityProfile::new(t(0.0), 8, &[]);
        assert_eq!(p.earliest_fit(4, d(10.0), t(42.0)), Some(t(42.0)));
    }

    #[test]
    fn earliest_fit_impossible() {
        let p = AvailabilityProfile::new(t(0.0), 2, &[(t(30.0), 6)]);
        assert_eq!(p.earliest_fit(9, d(10.0), t(0.0)), None);
    }

    #[test]
    fn earliest_fit_must_span_duration() {
        // 8 cores free only between t=10 and t=20 (reservation at 20).
        let mut p = AvailabilityProfile::new(t(0.0), 0, &[(t(10.0), 8)]);
        p.reserve(t(20.0), d(100.0), 6);
        // A 5-second job fits at t=10; a 15-second job must wait until the
        // reservation ends at t=120.
        assert_eq!(p.earliest_fit(8, d(5.0), t(0.0)), Some(t(10.0)));
        assert_eq!(p.earliest_fit(8, d(15.0), t(0.0)), Some(t(120.0)));
    }

    #[test]
    fn reserve_subtracts_over_window() {
        let mut p = AvailabilityProfile::new(t(0.0), 10, &[]);
        p.reserve(t(5.0), d(10.0), 4);
        assert_eq!(p.free_at(t(0.0)), 10);
        assert_eq!(p.free_at(t(5.0)), 6);
        assert_eq!(p.free_at(t(14.9)), 6);
        assert_eq!(p.free_at(t(15.0)), 10);
    }

    #[test]
    fn nested_reservations() {
        let mut p = AvailabilityProfile::new(t(0.0), 10, &[]);
        p.reserve(t(0.0), d(100.0), 3);
        p.reserve(t(10.0), d(20.0), 5);
        assert_eq!(p.free_at(t(5.0)), 7);
        assert_eq!(p.free_at(t(15.0)), 2);
        assert_eq!(p.free_at(t(30.0)), 7);
        assert_eq!(p.free_at(t(100.0)), 10);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn over_reservation_panics() {
        let mut p = AvailabilityProfile::new(t(0.0), 4, &[]);
        p.reserve(t(0.0), d(10.0), 5);
    }

    #[test]
    fn min_free_over_sees_dips() {
        let mut p = AvailabilityProfile::new(t(0.0), 10, &[]);
        p.reserve(t(5.0), d(5.0), 9);
        assert_eq!(p.min_free_over(t(0.0), d(20.0)), 1);
        assert_eq!(p.min_free_over(t(10.0), d(20.0)), 10);
    }

    proptest! {
        /// earliest_fit's answer always actually fits.
        #[test]
        fn prop_earliest_fit_is_feasible(
            free0 in 0u32..16,
            releases in proptest::collection::vec((1.0f64..1000.0, 1u32..8), 0..10),
            cores in 1u32..40,
            dur in 1.0f64..500.0,
        ) {
            let rel: Vec<(SimTime, u32)> =
                releases.iter().map(|(tt, c)| (t(*tt), *c)).collect();
            let p = AvailabilityProfile::new(t(0.0), free0, &rel);
            if let Some(start) = p.earliest_fit(cores, d(dur), t(0.0)) {
                prop_assert!(p.min_free_over(start, d(dur)) >= cores);
            } else {
                // Impossible means even the fully-released machine is small.
                let total: u32 = free0 + rel.iter().map(|(_, c)| c).sum::<u32>();
                prop_assert!(total < cores);
            }
        }

        /// earliest_fit returns the *earliest* feasible breakpoint: no
        /// strictly earlier breakpoint candidate fits.
        #[test]
        fn prop_earliest_fit_minimality(
            free0 in 0u32..16,
            releases in proptest::collection::vec((1.0f64..1000.0, 1u32..8), 0..10),
            cores in 1u32..30,
            dur in 1.0f64..500.0,
        ) {
            let rel: Vec<(SimTime, u32)> =
                releases.iter().map(|(tt, c)| (t(*tt), *c)).collect();
            let p = AvailabilityProfile::new(t(0.0), free0, &rel);
            if let Some(start) = p.earliest_fit(cores, d(dur), t(0.0)) {
                // Check all earlier breakpoints (availability only changes
                // there, so they are the only earlier candidates).
                let mut earlier: Vec<SimTime> = vec![t(0.0)];
                earlier.extend(rel.iter().map(|(tt, _)| *tt));
                earlier.retain(|tt| *tt < start);
                for e in earlier {
                    prop_assert!(
                        p.min_free_over(e, d(dur)) < cores,
                        "{e:?} also fits but is earlier than {start:?}"
                    );
                }
            }
        }

        /// Reservations never increase availability anywhere.
        #[test]
        fn prop_reserve_monotone(
            start in 0.0f64..100.0,
            dur in 1.0f64..100.0,
            cores in 1u32..5,
            probe in 0.0f64..300.0,
        ) {
            let p0 = AvailabilityProfile::new(t(0.0), 10, &[(t(50.0), 10)]);
            let mut p1 = p0.clone();
            p1.reserve(t(start), d(dur), cores);
            prop_assert!(p1.free_at(t(probe)) <= p0.free_at(t(probe)));
        }
    }
}
