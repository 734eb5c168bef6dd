//! Summary statistics for experiment repetitions.

use aimes_workload::trace_model;
use serde::{Deserialize, Serialize};

/// Summary of a sample of measurements.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    pub stdev: f64,
    pub min: f64,
    pub max: f64,
    pub median: f64,
    /// Half-width of the 95 % confidence interval of the mean (normal
    /// approximation; the experiment repetitions are independent).
    pub ci95: f64,
}

impl Summary {
    /// Summarize a sample. Returns `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let sorted = sorted_copy(values)?;
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let stdev = var.sqrt();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        Some(Summary {
            n,
            mean,
            stdev,
            min: sorted[0],
            max: sorted[n - 1],
            median,
            ci95: 1.96 * stdev / (n as f64).sqrt(),
        })
    }

    /// Coefficient of variation (stdev / mean); 0 when the mean is 0.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.stdev / self.mean
        }
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of a sample, by linear interpolation
/// between closest ranks (type-7 estimator, the numpy/R default).
/// Returns `None` for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let sorted = sorted_copy(values)?;
    Some(trace_model::percentile(&sorted, q.clamp(0.0, 1.0)))
}

/// Median / tail quantiles in one pass: `(p50, p95, p99)`.
pub fn p50_p95_p99(values: &[f64]) -> Option<(f64, f64, f64)> {
    let sorted = sorted_copy(values)?;
    let pick = |q| trace_model::percentile(&sorted, q);
    Some((pick(0.50), pick(0.95), pick(0.99)))
}

/// An ascending copy of a non-empty sample.
fn sorted_copy(values: &[f64]) -> Option<Vec<f64>> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite measurements"));
    Some(sorted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_sample_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn single_value() {
        let s = Summary::of(&[5.0]).unwrap();
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.stdev, 0.0);
        assert_eq!(s.median, 5.0);
        assert_eq!(s.ci95, 0.0);
    }

    #[test]
    fn known_sample() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.mean, 5.0);
        // Sample stdev with Bessel correction: sqrt(32/7).
        assert!((s.stdev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.median, 4.5);
    }

    #[test]
    fn cv_handles_zero_mean() {
        let s = Summary::of(&[0.0, 0.0]).unwrap();
        assert_eq!(s.cv(), 0.0);
    }

    #[test]
    fn percentile_of_empty_is_none() {
        assert!(percentile(&[], 0.5).is_none());
        assert!(p50_p95_p99(&[]).is_none());
    }

    #[test]
    fn percentile_of_single_element_is_that_element() {
        // Every quantile of a one-point sample is the point: pos is always
        // 0 and the lo==hi branch must not index out of bounds.
        for q in [0.0, 0.25, 0.5, 0.75, 0.95, 1.0] {
            assert_eq!(percentile(&[42.5], q), Some(42.5));
        }
        assert_eq!(p50_p95_p99(&[42.5]), Some((42.5, 42.5, 42.5)));
    }

    #[test]
    fn percentile_two_elements_interpolates() {
        assert_eq!(percentile(&[10.0, 20.0], 0.5), Some(15.0));
        let (p50, p95, p99) = p50_p95_p99(&[10.0, 20.0]).unwrap();
        assert_eq!(p50, 15.0);
        assert!((p95 - 19.5).abs() < 1e-12);
        assert!((p99 - 19.9).abs() < 1e-12);
    }

    #[test]
    fn finite_inputs_give_finite_outputs() {
        // The helpers are documented for NaN-free samples; check the
        // contract's other side — finite in, finite out, even with
        // extreme magnitudes, duplicates, and signed zeros.
        let samples: [&[f64]; 4] = [
            &[f64::MIN, f64::MAX],
            &[-0.0, 0.0, 0.0],
            &[1e-300, 1e300, -1e300],
            &[7.0; 9],
        ];
        for s in samples {
            for q in [0.0, 0.5, 1.0] {
                assert!(percentile(s, q).unwrap().is_finite());
            }
            let sm = Summary::of(s).unwrap();
            assert!(sm.mean.is_finite());
            assert!(sm.median.is_finite());
            assert!(sm.min <= sm.median && sm.median <= sm.max);
        }
    }

    #[test]
    fn percentile_known_uniform() {
        // 0..=100: the q-quantile of this grid IS 100q exactly under the
        // type-7 (linear interpolation) estimator.
        let values: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.0), Some(0.0));
        assert_eq!(percentile(&values, 0.50), Some(50.0));
        assert_eq!(percentile(&values, 0.95), Some(95.0));
        assert_eq!(percentile(&values, 0.99), Some(99.0));
        assert_eq!(percentile(&values, 1.0), Some(100.0));
        assert_eq!(p50_p95_p99(&values), Some((50.0, 95.0, 99.0)));
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        // Four points: p50 sits halfway between ranks 1 and 2.
        let values = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&values, 0.5), Some(25.0));
        // p95 of 4 points: pos = 2.85 → 30 + 0.85*10.
        let p95 = percentile(&values, 0.95).unwrap();
        assert!((p95 - 38.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let values = [9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(percentile(&values, 0.5), Some(5.0));
    }

    #[test]
    fn percentile_clamps_q() {
        let values = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&values, -0.5), Some(1.0));
        assert_eq!(percentile(&values, 1.5), Some(3.0));
    }

    /// `percentile`'s body before it called the shared kernel.
    fn percentile_oracle(values: &[f64], q: f64) -> Option<f64> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite measurements"));
        let q = q.clamp(0.0, 1.0);
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            Some(sorted[lo])
        } else {
            let frac = pos - lo as f64;
            Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
        }
    }

    /// `p50_p95_p99`'s body before it called the shared kernel.
    fn p50_p95_p99_oracle(values: &[f64]) -> Option<(f64, f64, f64)> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite measurements"));
        let pick = |q: f64| {
            let pos = q * (sorted.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            let frac = pos - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        };
        Some((pick(0.50), pick(0.95), pick(0.99)))
    }

    /// A finite value: moderate magnitudes, signed zeros, repeats, and
    /// raw bit patterns over the whole finite range.
    fn finite() -> impl Strategy<Value = f64> {
        (0u8..6, any::<u64>(), -1e6f64..1e6).prop_map(|(kind, bits, x)| match kind {
            0 => 0.0,
            1 => -0.0,
            2 => (x / 1e5).round(),
            3 => Some(f64::from_bits(bits))
                .filter(|v| v.is_finite())
                .unwrap_or(x),
            _ => x,
        })
    }

    proptest! {
        /// Bit-identical to the two bodies the kernel replaced, for any
        /// finite sample, at the quantiles that land on ranks and at any
        /// finite `q` (clamped as before).
        #[test]
        fn prop_percentiles_match_oracles(
            values in proptest::collection::vec(finite(), 0..40),
            q in -2.0f64..2.0,
        ) {
            let bits = |p: Option<f64>| p.map(f64::to_bits);
            for q in [q, 0.0, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0] {
                prop_assert_eq!(bits(percentile(&values, q)), bits(percentile_oracle(&values, q)));
            }
            let triple = |t: Option<(f64, f64, f64)>| {
                t.map(|(a, b, c)| (a.to_bits(), b.to_bits(), c.to_bits()))
            };
            prop_assert_eq!(triple(p50_p95_p99(&values)), triple(p50_p95_p99_oracle(&values)));
        }

        #[test]
        fn prop_percentile_within_bounds(
            values in proptest::collection::vec(-1e6f64..1e6, 1..100),
            q in 0.0f64..1.0,
        ) {
            let p = percentile(&values, q).unwrap();
            let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(min <= p && p <= max);
            // Monotone in q.
            let p2 = percentile(&values, (q + 0.1).min(1.0)).unwrap();
            prop_assert!(p <= p2 + 1e-9);
        }

        #[test]
        fn prop_bounds(values in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
            let s = Summary::of(&values).unwrap();
            prop_assert!(s.min <= s.mean + 1e-9);
            prop_assert!(s.mean <= s.max + 1e-9);
            prop_assert!(s.min <= s.median && s.median <= s.max);
            prop_assert!(s.stdev >= 0.0);
            prop_assert!(s.ci95 >= 0.0);
        }

        #[test]
        fn prop_constant_sample_no_spread(v in -1e6f64..1e6, n in 1usize..50) {
            let s = Summary::of(&vec![v; n]).unwrap();
            // Tolerances are relative: the mean of n ~1e6 values carries
            // accumulated rounding of a few ulps.
            let tol = 1e-9 * v.abs().max(1.0);
            prop_assert!(s.stdev.abs() <= tol);
            prop_assert!((s.mean - v).abs() <= tol);
        }
    }
}
