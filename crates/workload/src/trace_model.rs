//! Workload summary statistics.
//!
//! The paper justifies its experimental parameters by the XSEDE job mix
//! ("in 2014, more than 13 million jobs were executed on XSEDE with
//! durations between 30s and 30m, 36% of the total XSEDE workload", §IV-A).
//! This module computes the equivalent statistics for generated workloads so
//! experiments can validate their background-load realism.

use crate::generator::BackgroundJob;
use aimes_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Summary of a job stream.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSummary {
    pub job_count: usize,
    pub mean_runtime_secs: f64,
    pub median_runtime_secs: f64,
    pub p95_runtime_secs: f64,
    pub mean_cores: f64,
    pub max_cores: u32,
    /// Fraction of jobs with runtime in [30 s, 30 min] — the paper's band.
    pub short_job_fraction: f64,
    /// Total core-seconds of work.
    pub total_core_secs: f64,
    /// Mean walltime-request overestimation factor.
    pub mean_overestimate: f64,
}

/// Compute summary statistics for a job stream. Returns `None` for an empty
/// stream (no meaningful statistics exist).
pub fn summarize(jobs: &[BackgroundJob]) -> Option<WorkloadSummary> {
    if jobs.is_empty() {
        return None;
    }
    let n = jobs.len() as f64;
    let mut runtimes: Vec<f64> = jobs.iter().map(|j| j.runtime.as_secs()).collect();
    runtimes.sort_by(|a, b| a.partial_cmp(b).expect("runtimes are finite"));
    let lo = SimDuration::from_secs(30.0);
    let hi = SimDuration::from_mins(30.0);
    let short = jobs
        .iter()
        .filter(|j| j.runtime >= lo && j.runtime <= hi)
        .count();
    Some(WorkloadSummary {
        job_count: jobs.len(),
        mean_runtime_secs: runtimes.iter().sum::<f64>() / n,
        median_runtime_secs: percentile(&runtimes, 0.5),
        p95_runtime_secs: percentile(&runtimes, 0.95),
        mean_cores: jobs.iter().map(|j| f64::from(j.cores)).sum::<f64>() / n,
        max_cores: jobs.iter().map(|j| j.cores).max().unwrap_or(0),
        short_job_fraction: short as f64 / n,
        total_core_secs: jobs
            .iter()
            .map(|j| f64::from(j.cores) * j.runtime.as_secs())
            .sum(),
        mean_overestimate: jobs
            .iter()
            .map(|j| j.walltime_request / j.runtime)
            .sum::<f64>()
            / n,
    })
}

/// Linear-interpolated percentile of a pre-sorted slice (type-7
/// estimator, the numpy/R default). `q` in [0, 1]. A quantile that falls
/// on a rank is that order statistic exactly.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
    let pos = q * (sorted.len() - 1) as f64;
    let idx = pos.floor() as usize;
    let frac = pos - idx as f64;
    if frac == 0.0 {
        sorted[idx]
    } else {
        sorted[idx] * (1.0 - frac) + sorted[idx + 1] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{BackgroundWorkload, WorkloadConfig};
    use aimes_sim::{SimRng, SimTime};

    #[test]
    fn empty_stream_has_no_summary() {
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn percentile_basics() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.25), 2.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [0.0, 10.0];
        assert_eq!(percentile(&v, 0.3), 3.0);
    }

    #[test]
    fn summary_of_generated_load_is_plausible() {
        let mut g =
            BackgroundWorkload::new(WorkloadConfig::production_like(), 2048, SimRng::new(7));
        let jobs = g.generate_until(SimTime::from_secs(14.0 * 86_400.0));
        let s = summarize(&jobs).unwrap();
        assert!(s.job_count > 100);
        // Log-normal: mean > median.
        assert!(s.mean_runtime_secs > s.median_runtime_secs);
        assert!(s.p95_runtime_secs > s.mean_runtime_secs);
        assert!(s.mean_overestimate >= 2.0 && s.mean_overestimate <= 10.0);
        // A nontrivial share of short jobs, in the spirit of the paper's
        // 25–55 % XSEDE band (our default config is not calibrated to hit
        // it exactly).
        assert!(
            s.short_job_fraction > 0.05 && s.short_job_fraction < 0.75,
            "short fraction {}",
            s.short_job_fraction
        );
        assert!(s.max_cores <= 2048);
    }

    #[test]
    fn total_core_secs_adds_up() {
        use crate::generator::BackgroundJob;
        use aimes_sim::SimDuration;
        let jobs = vec![
            BackgroundJob {
                arrival: SimTime::ZERO,
                cores: 2,
                runtime: SimDuration::from_secs(100.0),
                walltime_request: SimDuration::from_secs(200.0),
            },
            BackgroundJob {
                arrival: SimTime::ZERO,
                cores: 3,
                runtime: SimDuration::from_secs(10.0),
                walltime_request: SimDuration::from_secs(10.0),
            },
        ];
        let s = summarize(&jobs).unwrap();
        assert_eq!(s.total_core_secs, 230.0);
        assert_eq!(s.job_count, 2);
        assert_eq!(s.max_cores, 3);
    }
}
