//! Statistical distributions, sampled from a deterministic [`SimRng`].
//!
//! The skeleton abstraction lets task lengths and file sizes be "statistical
//! distributions or polynomial functions of other parameters" (§III-A); the
//! background-workload generator needs the heavy-tailed families standard in
//! workload modelling. Everything here is implemented locally (Box–Muller,
//! Marsaglia–Tsang, inverse-CDF) so samples are bit-stable across platforms
//! and `rand` versions.

use aimes_sim::SimRng;
use serde::{Deserialize, Serialize};

/// A sampleable distribution over non-negative reals (negative parameters
/// are allowed where the family supports them; samplers used for durations
/// clamp at construction-specified bounds instead).
///
/// ```
/// use aimes_sim::SimRng;
/// use aimes_workload::Distribution;
///
/// // The paper's task durations: mean 15 min, stdev 5 min, in [1, 30] min.
/// let d = Distribution::truncated_gaussian(900.0, 300.0, 60.0, 1800.0);
/// let mut rng = SimRng::new(1);
/// for _ in 0..100 {
///     let secs = d.sample(&mut rng);
///     assert!((60.0..=1800.0).contains(&secs));
/// }
/// // Truncation is nearly symmetric (-2.8σ / +3σ): tiny upward shift.
/// assert!((d.mean() - 900.0).abs() < 2.0);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum Distribution {
    /// Always `value`.
    Constant { value: f64 },
    /// Uniform on `[lo, hi)`.
    Uniform { lo: f64, hi: f64 },
    /// Gaussian truncated by rejection to `[lo, hi]` — the paper's task
    /// durations use mean 15 min, stdev 5 min, bounds [1, 30] min.
    TruncatedGaussian {
        mean: f64,
        stdev: f64,
        lo: f64,
        hi: f64,
    },
    /// Gaussian (unbounded).
    Gaussian { mean: f64, stdev: f64 },
    /// Log-normal with the *underlying* normal's mu/sigma.
    LogNormal { mu: f64, sigma: f64 },
    /// Exponential with the given mean (not rate).
    Exponential { mean: f64 },
    /// Weibull with shape `k` and scale `lambda`.
    Weibull { shape: f64, scale: f64 },
    /// Pareto (Lomax-style heavy tail) with scale `xm > 0`, shape `alpha`.
    Pareto { xm: f64, alpha: f64 },
    /// Gamma with shape `k` and scale `theta`.
    Gamma { shape: f64, scale: f64 },
    /// Log-uniform over `[lo, hi)`: uniform in log-space. Standard model for
    /// parallel-job core counts.
    LogUniform { lo: f64, hi: f64 },
    /// Log-uniform over powers of two in `[2^lo_exp, 2^hi_exp]` (inclusive),
    /// matching the classic Feitelson job-size model.
    PowerOfTwo { lo_exp: u32, hi_exp: u32 },
    /// Empirical: uniformly pick one of the provided values.
    Empirical { values: Vec<f64> },
    /// Two-component mixture: with probability `p` sample `a`, else `b`.
    Mixture {
        p: f64,
        a: Box<Distribution>,
        b: Box<Distribution>,
    },
}

impl Distribution {
    /// Convenience constructor for the paper's 15-minute constant tasks.
    pub fn constant(value: f64) -> Self {
        Distribution::Constant { value }
    }

    /// Convenience constructor for the paper's truncated-Gaussian tasks.
    pub fn truncated_gaussian(mean: f64, stdev: f64, lo: f64, hi: f64) -> Self {
        assert!(lo < hi, "truncated gaussian needs lo < hi");
        assert!(stdev > 0.0, "stdev must be positive");
        Distribution::TruncatedGaussian {
            mean,
            stdev,
            lo,
            hi,
        }
    }

    /// Reject parameters that `sample` cannot draw from without
    /// panicking or overflowing: an empty `Empirical`, a non-positive
    /// `Gamma` shape, an inverted or over-wide `PowerOfTwo` range, an
    /// inverted `TruncatedGaussian` or `LogUniform` range (or one
    /// starting at or below zero), and a `Mixture` weight outside
    /// [0, 1], checked through both components. A deserialized config
    /// skips the constructors' asserts, so configs holding a
    /// distribution call this before sampling.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Distribution::Empirical { values } if values.is_empty() => {
                Err("empirical distribution needs at least one value".into())
            }
            Distribution::Gamma { shape, .. } if shape.is_nan() || *shape <= 0.0 => {
                Err(format!("gamma shape {shape} must be positive"))
            }
            Distribution::PowerOfTwo { lo_exp, hi_exp } if hi_exp < lo_exp || *hi_exp > 31 => Err(
                format!("power-of-two exponents {lo_exp}..={hi_exp} need lo <= hi <= 31"),
            ),
            Distribution::TruncatedGaussian { lo, hi, .. }
                if lo.is_nan() || hi.is_nan() || lo > hi =>
            {
                Err(format!(
                    "truncated gaussian bounds [{lo}, {hi}] need lo <= hi"
                ))
            }
            Distribution::LogUniform { lo, hi } if !(*lo > 0.0 && hi > lo) => {
                Err(format!("log-uniform range [{lo}, {hi}) needs 0 < lo < hi"))
            }
            Distribution::Mixture { p, .. } if !(0.0..=1.0).contains(p) => {
                Err(format!("mixture weight {p} is outside [0, 1]"))
            }
            Distribution::Mixture { a, b, .. } => {
                a.validate()
                    .map_err(|e| format!("mixture component a: {e}"))?;
                b.validate()
                    .map_err(|e| format!("mixture component b: {e}"))
            }
            _ => Ok(()),
        }
    }

    /// Draw one sample.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        match self {
            Distribution::Constant { value } => *value,
            Distribution::Uniform { lo, hi } => rng.uniform(*lo, *hi),
            Distribution::Gaussian { mean, stdev } => mean + stdev * standard_normal(rng),
            Distribution::TruncatedGaussian {
                mean,
                stdev,
                lo,
                hi,
            } => {
                // Rejection sampling; the paper's parameters accept ~99.3 %
                // of draws, so this is cheap. Guard with a cap and fall back
                // to clamping for pathological parameterizations.
                for _ in 0..1024 {
                    let v = mean + stdev * standard_normal(rng);
                    if v >= *lo && v <= *hi {
                        return v;
                    }
                }
                mean.clamp(*lo, *hi)
            }
            Distribution::LogNormal { mu, sigma } => (mu + sigma * standard_normal(rng)).exp(),
            Distribution::Exponential { mean } => -mean * (1.0 - rng.uniform01()).ln(),
            Distribution::Weibull { shape, scale } => {
                scale * (-(1.0 - rng.uniform01()).ln()).powf(1.0 / shape)
            }
            Distribution::Pareto { xm, alpha } => xm / (1.0 - rng.uniform01()).powf(1.0 / alpha),
            Distribution::Gamma { shape, scale } => gamma_sample(rng, *shape) * scale,
            Distribution::LogUniform { lo, hi } => {
                debug_assert!(*lo > 0.0 && hi > lo);
                (rng.uniform(lo.ln(), hi.ln())).exp()
            }
            Distribution::PowerOfTwo { lo_exp, hi_exp } => {
                debug_assert!(hi_exp >= lo_exp);
                let e = lo_exp + rng.below(u64::from(hi_exp - lo_exp + 1)) as u32;
                f64::from(2u32.pow(e))
            }
            Distribution::Empirical { values } => {
                assert!(!values.is_empty(), "empirical distribution needs values");
                *rng.pick(values)
            }
            Distribution::Mixture { p, a, b } => {
                if rng.chance(*p) {
                    a.sample(rng)
                } else {
                    b.sample(rng)
                }
            }
        }
    }

    /// Draw `n` samples.
    #[cfg(test)]
    pub fn sample_n(&self, rng: &mut SimRng, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Analytic mean where closed-form; for the truncated Gaussian the
    /// standard truncated-normal correction is applied; `Empirical` and
    /// `Mixture` are exact.
    pub fn mean(&self) -> f64 {
        match self {
            Distribution::Constant { value } => *value,
            Distribution::Uniform { lo, hi } => (lo + hi) / 2.0,
            Distribution::Gaussian { mean, .. } => *mean,
            Distribution::TruncatedGaussian {
                mean,
                stdev,
                lo,
                hi,
            } => {
                let a = (lo - mean) / stdev;
                let b = (hi - mean) / stdev;
                let z = phi_cdf(b) - phi_cdf(a);
                mean + stdev * (phi_pdf(a) - phi_pdf(b)) / z
            }
            Distribution::LogNormal { mu, sigma } => (mu + sigma * sigma / 2.0).exp(),
            Distribution::Exponential { mean } => *mean,
            Distribution::Weibull { shape, scale } => scale * gamma_fn(1.0 + 1.0 / shape),
            Distribution::Pareto { xm, alpha } => {
                if *alpha > 1.0 {
                    alpha * xm / (alpha - 1.0)
                } else {
                    f64::INFINITY
                }
            }
            Distribution::Gamma { shape, scale } => shape * scale,
            Distribution::LogUniform { lo, hi } => (hi - lo) / (hi.ln() - lo.ln()),
            Distribution::PowerOfTwo { lo_exp, hi_exp } => {
                let n = f64::from(hi_exp - lo_exp + 1);
                (*lo_exp..=*hi_exp)
                    .map(|e| f64::from(2u32.pow(e)))
                    .sum::<f64>()
                    / n
            }
            Distribution::Empirical { values } => values.iter().sum::<f64>() / values.len() as f64,
            Distribution::Mixture { p, a, b } => p * a.mean() + (1.0 - p) * b.mean(),
        }
    }
}

/// Standard normal via Box–Muller (deterministic, two uniforms per pair;
/// we discard the second variate to keep the sampler stateless).
fn standard_normal(rng: &mut SimRng) -> f64 {
    let u1 = loop {
        let u = rng.uniform01();
        if u > 0.0 {
            break u;
        }
    };
    let u2 = rng.uniform01();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Gamma(shape, 1) via Marsaglia–Tsang; the shape<1 boost uses the standard
/// U^{1/shape} trick.
fn gamma_sample(rng: &mut SimRng, shape: f64) -> f64 {
    assert!(shape > 0.0, "gamma shape must be positive");
    if shape < 1.0 {
        let u = loop {
            let u = rng.uniform01();
            if u > 0.0 {
                break u;
            }
        };
        return gamma_sample(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = standard_normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u = rng.uniform01();
        if u < 1.0 - 0.0331 * x.powi(4) {
            return d * v;
        }
        if u > 0.0 && u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

/// Standard normal pdf.
fn phi_pdf(x: f64) -> f64 {
    (-(x * x) / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal cdf via Abramowitz–Stegun 7.1.26 erf approximation
/// (max abs error 1.5e-7 — ample for analytic means used in estimates).
fn phi_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Lanczos approximation of the Gamma function (for Weibull means).
fn gamma_fn(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma_fn(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut a = COEF[0];
        let t = x + G + 0.5;
        for (i, &c) in COEF.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rng() -> SimRng {
        SimRng::new(0xA1AE5)
    }

    fn sample_mean(d: &Distribution, n: usize) -> f64 {
        let mut r = rng();
        d.sample_n(&mut r, n).iter().sum::<f64>() / n as f64
    }

    #[test]
    fn constant_is_constant() {
        let d = Distribution::constant(900.0);
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(d.sample(&mut r), 900.0);
        }
        assert_eq!(d.mean(), 900.0);
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = Distribution::Uniform { lo: 2.0, hi: 4.0 };
        let mut r = rng();
        for _ in 0..1000 {
            let v = d.sample(&mut r);
            assert!((2.0..4.0).contains(&v));
        }
        assert!((sample_mean(&d, 20_000) - 3.0).abs() < 0.02);
    }

    #[test]
    fn paper_truncated_gaussian_respects_bounds() {
        // Paper: mean 15 min, stdev 5 min, bounds [1, 30] min.
        let d = Distribution::truncated_gaussian(15.0, 5.0, 1.0, 30.0);
        let mut r = rng();
        for _ in 0..10_000 {
            let v = d.sample(&mut r);
            assert!((1.0..=30.0).contains(&v), "sample {v} out of bounds");
        }
        let m = sample_mean(&d, 50_000);
        assert!((m - 15.0).abs() < 0.1, "mean was {m}");
    }

    #[test]
    fn truncated_gaussian_analytic_mean_matches_samples() {
        let d = Distribution::truncated_gaussian(10.0, 8.0, 1.0, 14.0);
        let analytic = d.mean();
        let empirical = sample_mean(&d, 100_000);
        assert!(
            (analytic - empirical).abs() < 0.05,
            "analytic {analytic} vs empirical {empirical}"
        );
    }

    #[test]
    fn gaussian_mean_and_spread() {
        let d = Distribution::Gaussian {
            mean: 5.0,
            stdev: 2.0,
        };
        let mut r = rng();
        let samples = d.sample_n(&mut r, 50_000);
        let m = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / samples.len() as f64;
        assert!((m - 5.0).abs() < 0.05);
        assert!((var.sqrt() - 2.0).abs() < 0.05);
    }

    #[test]
    fn lognormal_mean() {
        let d = Distribution::LogNormal {
            mu: 4.0,
            sigma: 0.5,
        };
        let expect = (4.0f64 + 0.125).exp();
        assert!((sample_mean(&d, 200_000) / expect - 1.0).abs() < 0.02);
    }

    #[test]
    fn exponential_mean_parameterization() {
        let d = Distribution::Exponential { mean: 120.0 };
        assert!((sample_mean(&d, 100_000) / 120.0 - 1.0).abs() < 0.03);
    }

    #[test]
    fn weibull_mean_matches_gamma_formula() {
        let d = Distribution::Weibull {
            shape: 2.0,
            scale: 10.0,
        };
        // E = scale * Gamma(1.5) = 10 * 0.8862.
        assert!((d.mean() - 8.862).abs() < 0.01);
        assert!((sample_mean(&d, 100_000) / d.mean() - 1.0).abs() < 0.02);
    }

    #[test]
    fn pareto_is_heavy_tailed() {
        let d = Distribution::Pareto {
            xm: 1.0,
            alpha: 1.5,
        };
        let mut r = rng();
        let samples = d.sample_n(&mut r, 100_000);
        assert!(samples.iter().all(|&v| v >= 1.0));
        let max = samples.iter().cloned().fold(0.0, f64::max);
        assert!(
            max > 100.0,
            "heavy tail should produce large values, max {max}"
        );
        let d2 = Distribution::Pareto {
            xm: 1.0,
            alpha: 0.9,
        };
        assert!(d2.mean().is_infinite());
    }

    #[test]
    fn gamma_mean() {
        let d = Distribution::Gamma {
            shape: 3.0,
            scale: 2.0,
        };
        assert_eq!(d.mean(), 6.0);
        assert!((sample_mean(&d, 100_000) / 6.0 - 1.0).abs() < 0.02);
        let small = Distribution::Gamma {
            shape: 0.5,
            scale: 1.0,
        };
        assert!((sample_mean(&small, 200_000) / 0.5 - 1.0).abs() < 0.05);
    }

    #[test]
    fn power_of_two_hits_only_powers() {
        let d = Distribution::PowerOfTwo {
            lo_exp: 3,
            hi_exp: 11,
        };
        let mut r = rng();
        for _ in 0..1000 {
            let v = d.sample(&mut r) as u32;
            assert!(v.is_power_of_two());
            assert!((8..=2048).contains(&v));
        }
    }

    #[test]
    fn log_uniform_bounds() {
        let d = Distribution::LogUniform {
            lo: 10.0,
            hi: 1000.0,
        };
        let mut r = rng();
        let samples = d.sample_n(&mut r, 10_000);
        assert!(samples.iter().all(|&v| (10.0..1000.0).contains(&v)));
        // Median should be near geometric mean (100), not arithmetic mid (505).
        let mut s = samples.clone();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = s[s.len() / 2];
        assert!((median / 100.0 - 1.0).abs() < 0.15, "median {median}");
    }

    #[test]
    fn empirical_picks_from_values() {
        let d = Distribution::Empirical {
            values: vec![1.0, 2.0, 3.0],
        };
        let mut r = rng();
        for _ in 0..100 {
            let v = d.sample(&mut r);
            assert!(v == 1.0 || v == 2.0 || v == 3.0);
        }
        assert_eq!(d.mean(), 2.0);
    }

    #[test]
    fn mixture_blends_components() {
        let d = Distribution::Mixture {
            p: 0.25,
            a: Box::new(Distribution::constant(0.0)),
            b: Box::new(Distribution::constant(100.0)),
        };
        assert_eq!(d.mean(), 75.0);
        let m = sample_mean(&d, 50_000);
        assert!((m - 75.0).abs() < 1.0);
    }

    /// `d` fails validation with a message containing `needle`.
    fn rejects(d: Distribution, needle: &str) {
        let err = d.validate().expect_err("invalid distribution accepted");
        assert!(err.contains(needle), "{err}");
    }

    #[test]
    fn validate_rejects_an_empty_empirical() {
        rejects(
            Distribution::Empirical { values: vec![] },
            "at least one value",
        );
    }

    #[test]
    fn validate_rejects_a_non_positive_gamma_shape() {
        for shape in [0.0, -1.0, f64::NAN] {
            rejects(Distribution::Gamma { shape, scale: 1.0 }, "gamma shape");
        }
    }

    #[test]
    fn validate_rejects_inverted_or_overflowing_powers_of_two() {
        let p2 = |lo_exp, hi_exp| Distribution::PowerOfTwo { lo_exp, hi_exp };
        rejects(p2(4, 3), "lo <= hi <= 31");
        rejects(p2(0, 32), "lo <= hi <= 31");
        assert_eq!(p2(31, 31).validate(), Ok(()));
        assert_eq!(p2(31, 31).mean(), 2f64.powi(31));
    }

    #[test]
    fn validate_rejects_an_inverted_truncated_gaussian() {
        let d = Distribution::TruncatedGaussian {
            mean: 5.0,
            stdev: 1.0,
            lo: 10.0,
            hi: 1.0,
        };
        rejects(d, "need lo <= hi");
    }

    #[test]
    fn validate_rejects_a_log_uniform_at_or_below_zero_or_inverted() {
        for (lo, hi) in [(0.0, 10.0), (-1.0, 10.0), (10.0, 10.0), (10.0, 1.0)] {
            rejects(Distribution::LogUniform { lo, hi }, "0 < lo < hi");
        }
    }

    #[test]
    fn validate_checks_mixtures_recursively() {
        let ok = || Box::new(Distribution::constant(1.0));
        for p in [-0.1, 1.5, f64::NAN] {
            let d = Distribution::Mixture {
                p,
                a: ok(),
                b: ok(),
            };
            rejects(d, "outside [0, 1]");
        }
        let nested = Distribution::Mixture {
            p: 0.5,
            a: ok(),
            b: Box::new(Distribution::Mixture {
                p: 0.5,
                a: Box::new(Distribution::Empirical { values: vec![] }),
                b: ok(),
            }),
        };
        rejects(
            nested,
            "mixture component b: mixture component a: empirical",
        );
    }

    #[test]
    fn validate_accepts_the_shipped_distributions() {
        let all = [
            Distribution::constant(900.0),
            Distribution::truncated_gaussian(900.0, 300.0, 60.0, 1800.0),
            Distribution::Uniform { lo: 2.0, hi: 10.0 },
            Distribution::LogNormal {
                mu: 8.2,
                sigma: 1.4,
            },
            Distribution::PowerOfTwo {
                lo_exp: 0,
                hi_exp: 8,
            },
            Distribution::LogUniform { lo: 1.0, hi: 64.0 },
            Distribution::Gamma {
                shape: 0.5,
                scale: 1.0,
            },
            Distribution::Empirical { values: vec![1.0] },
            Distribution::Mixture {
                p: 0.25,
                a: Box::new(Distribution::constant(0.0)),
                b: Box::new(Distribution::Exponential { mean: 60.0 }),
            },
        ];
        for d in all {
            assert_eq!(d.validate(), Ok(()), "{d:?}");
        }
    }

    #[test]
    fn serde_roundtrip() {
        let d = Distribution::truncated_gaussian(900.0, 300.0, 60.0, 1800.0);
        let json = serde_json::to_string(&d).unwrap();
        let back: Distribution = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn erf_and_cdf_sanity() {
        assert!((phi_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((phi_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((phi_cdf(-1.96) - 0.025).abs() < 1e-3);
    }

    #[test]
    fn gamma_fn_known_values() {
        assert!((gamma_fn(1.0) - 1.0).abs() < 1e-9);
        assert!((gamma_fn(2.0) - 1.0).abs() < 1e-9);
        assert!((gamma_fn(5.0) - 24.0).abs() < 1e-6);
        assert!((gamma_fn(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn prop_truncated_gaussian_in_bounds(
            seed in any::<u64>(),
            mean in 0.0f64..100.0,
            stdev in 0.1f64..50.0,
        ) {
            let lo = mean - 30.0;
            let hi = mean + 30.0;
            let d = Distribution::truncated_gaussian(mean, stdev, lo, hi);
            let mut r = SimRng::new(seed);
            for _ in 0..50 {
                let v = d.sample(&mut r);
                prop_assert!(v >= lo && v <= hi);
            }
        }

        #[test]
        fn prop_nonnegative_families(seed in any::<u64>(), mean in 0.01f64..1e4) {
            let mut r = SimRng::new(seed);
            let exp = Distribution::Exponential { mean };
            let ln = Distribution::LogNormal { mu: mean.ln(), sigma: 1.0 };
            for _ in 0..20 {
                prop_assert!(exp.sample(&mut r) >= 0.0);
                prop_assert!(ln.sample(&mut r) > 0.0);
            }
        }

        #[test]
        fn prop_same_seed_same_samples(seed in any::<u64>()) {
            let d = Distribution::truncated_gaussian(900.0, 300.0, 60.0, 1800.0);
            let mut r1 = SimRng::new(seed);
            let mut r2 = SimRng::new(seed);
            prop_assert_eq!(d.sample_n(&mut r1, 10), d.sample_n(&mut r2, 10));
        }
    }
}
