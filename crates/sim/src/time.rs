//! Virtual time for the simulation.
//!
//! Time is represented as `f64` seconds since simulation start, wrapped in
//! newtypes so that times and durations cannot be confused and so that the
//! ordering used by the event queue is total (NaN is rejected at
//! construction).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in virtual time, in seconds since simulation start.
#[derive(Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct SimTime(f64);

/// A span of virtual time, in seconds. Always finite; may be zero.
#[derive(Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct SimDuration(f64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0.0);

    /// Construct from seconds. Panics on NaN: a NaN time would break the
    /// total order the event queue relies on.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        assert!(!secs.is_nan(), "SimTime cannot be NaN");
        SimTime(secs)
    }

    /// Seconds since simulation start.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Hours since simulation start.
    #[inline]
    pub fn as_hours(self) -> f64 {
        self.0 / 3600.0
    }

    /// Duration elapsed since `earlier`. Panics if `earlier` is later than
    /// `self`; callers that may race should use [`SimTime::saturating_since`].
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        assert!(
            self.0 >= earlier.0,
            "SimTime::since: earlier ({}) is after self ({})",
            earlier.0,
            self.0
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Like [`SimTime::since`] but clamps negative spans to zero.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration((self.0 - earlier.0).max(0.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Construct from seconds. Panics on NaN or negative values.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimDuration must be finite and non-negative, got {secs}"
        );
        SimDuration(secs)
    }

    /// Construct from whole minutes.
    #[inline]
    pub fn from_mins(mins: f64) -> Self {
        Self::from_secs(mins * 60.0)
    }

    /// Construct from whole hours.
    #[inline]
    pub fn from_hours(hours: f64) -> Self {
        Self::from_secs(hours * 3600.0)
    }

    /// Length in seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Length in minutes.
    #[inline]
    pub fn as_mins(self) -> f64 {
        self.0 / 60.0
    }

    /// Length in hours.
    #[inline]
    pub fn as_hours(self) -> f64 {
        self.0 / 3600.0
    }

    /// The longer of two durations.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The shorter of two durations.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Saturating subtraction: result clamps at zero.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration((self.0 - other.0).max(0.0))
    }

    /// True if this duration is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Capped exponential backoff: `self · 2^min(n, 30)`, at most `cap`.
    /// The exponent clamp bounds the factor for any `n`.
    #[inline]
    pub fn backoff(self, n: u32, cap: SimDuration) -> SimDuration {
        (self * 2f64.powi(n.min(30) as i32)).min(cap)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        assert!(
            self.0 >= rhs.0,
            "SimDuration subtraction underflow: {} - {}",
            self.0,
            rhs.0
        );
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 / rhs)
    }
}

impl Div for SimDuration {
    type Output = f64;
    #[inline]
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 / rhs.0
    }
}

// Total order: NaN is excluded at construction, so unwrap is safe. With
// an explicit `Ord`, `PartialOrd` must delegate to it (clippy:
// derive_ord_xor_partial_ord), so both are written out.
impl Eq for SimTime {}
impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

impl Eq for SimDuration {}
impl PartialOrd for SimDuration {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for SimDuration {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("SimDuration is never NaN")
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.0)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.0)
    }
}

/// Sum of durations.
impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t0 = SimTime::from_secs(10.0);
        let d = SimDuration::from_secs(5.5);
        let t1 = t0 + d;
        assert_eq!(t1.as_secs(), 15.5);
        assert_eq!(t1.since(t0), d);
    }

    #[test]
    fn duration_constructors() {
        assert_eq!(SimDuration::from_mins(15.0).as_secs(), 900.0);
        assert_eq!(SimDuration::from_hours(2.0).as_secs(), 7200.0);
        assert_eq!(SimDuration::from_hours(1.0).as_mins(), 60.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_duration_rejected() {
        let _ = SimDuration::from_secs(-1.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_time_rejected() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    fn saturating_ops_clamp() {
        let t0 = SimTime::from_secs(5.0);
        let t1 = SimTime::from_secs(3.0);
        assert_eq!(t1.saturating_since(t0), SimDuration::ZERO);
        let d1 = SimDuration::from_secs(2.0);
        let d2 = SimDuration::from_secs(3.0);
        assert_eq!(d1.saturating_sub(d2), SimDuration::ZERO);
    }

    #[test]
    fn ordering_is_total() {
        let mut ts = [
            SimTime::from_secs(3.0),
            SimTime::from_secs(1.0),
            SimTime::from_secs(2.0),
        ];
        ts.sort();
        assert_eq!(ts[0].as_secs(), 1.0);
        assert_eq!(ts[2].as_secs(), 3.0);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_secs(10.0);
        assert_eq!((d * 2.0).as_secs(), 20.0);
        assert_eq!((d / 4.0).as_secs(), 2.5);
        assert_eq!(d / SimDuration::from_secs(5.0), 2.0);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(|i| SimDuration::from_secs(i as f64)).sum();
        assert_eq!(total.as_secs(), 10.0);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn duration_sub_underflow_panics() {
        let _ = SimDuration::from_secs(1.0) - SimDuration::from_secs(2.0);
    }

    #[test]
    fn min_max_helpers() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let da = SimDuration::from_secs(1.0);
        let db = SimDuration::from_secs(2.0);
        assert_eq!(da.max(db), db);
        assert_eq!(da.min(db), da);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let base = SimDuration::from_secs(10.0);
        let cap = SimDuration::from_secs(35.0);
        assert_eq!(base.backoff(0, cap), SimDuration::from_secs(10.0));
        assert_eq!(base.backoff(1, cap), SimDuration::from_secs(20.0));
        assert_eq!(base.backoff(2, cap), cap);
        assert_eq!(SimDuration::ZERO.backoff(5, cap), SimDuration::ZERO);
    }

    proptest::proptest! {
        /// Monotone in `n`, between the base and the cap, and exactly the
        /// cap far past it — even at exponents no caller reaches.
        #[test]
        fn prop_backoff_monotone_and_capped(
            base in 0.5f64..600.0,
            cap_factor in 1.0f64..64.0,
            n in 0u32..10_000,
        ) {
            let base = SimDuration::from_secs(base);
            let cap = base * cap_factor;
            let d = base.backoff(n, cap);
            proptest::prop_assert!(d.as_secs().is_finite());
            proptest::prop_assert!(base.backoff(n.saturating_add(1), cap) >= d);
            proptest::prop_assert!(d <= cap && d >= base);
            proptest::prop_assert_eq!(base.backoff(40, cap), cap);
            proptest::prop_assert_eq!(base.backoff(u32::MAX, cap), cap);
        }
    }
}
