//! Synthetic background-workload generation.
//!
//! Each simulated resource carries a stream of background batch jobs that
//! compete with the experiment's pilots for nodes — this is the "resource
//! dynamism" the paper studies. The generator follows the standard
//! parallel-workload models:
//!
//! * **Arrivals**: Poisson process, optionally modulated by a diurnal cycle
//!   (thinning of a non-homogeneous Poisson process).
//! * **Sizes**: log-uniform over powers of two by default (Feitelson model).
//! * **Runtimes**: log-normal by default (heavy right tail).
//! * **Walltime requests**: actual runtime times an overestimation factor —
//!   users notoriously over-request, which is what gives EASY backfill its
//!   holes and makes *small short* jobs (like pilots) sometimes start fast.
//!
//! The arrival rate is derived from a target utilization so that configs
//! transfer between clusters of different sizes.

use crate::dist::Distribution;
use aimes_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// One background job to be fed to a cluster's batch queue.
#[derive(Clone, Debug, PartialEq)]
pub struct BackgroundJob {
    /// Submission time.
    pub arrival: SimTime,
    /// Cores requested (the simulator schedules by core).
    pub cores: u32,
    /// Actual runtime.
    pub runtime: SimDuration,
    /// Requested walltime (>= runtime; jobs are killed at the request).
    pub walltime_request: SimDuration,
}

/// Configuration of a resource's background load.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Long-run fraction of the cluster's core-hours *offered* by
    /// background jobs. Production HPC systems run saturated: values near
    /// (or slightly above) 1.0 keep the queue persistently non-empty,
    /// which is what makes queue waits long and unpredictable. Values
    /// above 1 oversubscribe: the queue grows over time.
    pub target_utilization: f64,
    /// Job core counts.
    pub size_dist: Distribution,
    /// Job runtimes in seconds.
    pub runtime_dist: Distribution,
    /// Multiplicative walltime overestimation factor (>= 1).
    pub overestimate_dist: Distribution,
    /// Amplitude of the diurnal arrival modulation in [0, 1): 0 disables,
    /// 0.5 means the peak rate is 3x the trough rate.
    pub diurnal_amplitude: f64,
}

impl WorkloadConfig {
    /// A production-like default: 80 % utilization, power-of-two sizes
    /// 1–256 cores, log-normal runtimes with ~1 h median and a heavy tail,
    /// 2–10x walltime overestimation, mild diurnal cycle.
    pub fn production_like() -> Self {
        WorkloadConfig {
            target_utilization: 0.80,
            size_dist: Distribution::PowerOfTwo {
                lo_exp: 0,
                hi_exp: 8,
            },
            runtime_dist: Distribution::LogNormal {
                // median e^8.2 ≈ 3641 s ≈ 1 h; sigma 1.4 gives a heavy tail.
                mu: 8.2,
                sigma: 1.4,
            },
            overestimate_dist: Distribution::Uniform { lo: 2.0, hi: 10.0 },
            diurnal_amplitude: 0.3,
        }
    }

    /// Reject a config the generator would panic on: a target
    /// utilization outside (0, 1.5), a diurnal amplitude outside [0, 1),
    /// or a distribution [`Distribution::validate`] refuses. A
    /// deserialized config reaches the generator unchecked otherwise.
    pub fn validate(&self) -> Result<(), String> {
        let u = self.target_utilization;
        if !(u > 0.0 && u < 1.5) {
            return Err(format!("target_utilization {u} is outside (0, 1.5)"));
        }
        if !(0.0..1.0).contains(&self.diurnal_amplitude) {
            return Err(format!(
                "diurnal_amplitude {} is outside [0, 1)",
                self.diurnal_amplitude
            ));
        }
        for (name, dist) in [
            ("size_dist", &self.size_dist),
            ("runtime_dist", &self.runtime_dist),
            ("overestimate_dist", &self.overestimate_dist),
        ] {
            dist.validate().map_err(|e| format!("{name}: {e}"))?;
        }
        Ok(())
    }

    /// Mean arrival interval needed to hit the target utilization on a
    /// cluster with `total_cores`.
    pub fn mean_interarrival(&self, total_cores: u32) -> SimDuration {
        let mean_core_secs = self.size_dist.mean() * self.runtime_dist.mean();
        let capacity_per_sec = f64::from(total_cores) * self.target_utilization;
        SimDuration::from_secs(mean_core_secs / capacity_per_sec)
    }
}

/// Generator state: produces the job stream for one resource.
#[derive(Clone, Debug)]
pub struct BackgroundWorkload {
    config: WorkloadConfig,
    total_cores: u32,
    rng: SimRng,
    next_arrival: SimTime,
    /// `config.mean_interarrival(total_cores)` in seconds: fixed for the
    /// generator's life, so drawn once.
    base_secs: f64,
    /// Peak arrival rate, the thinning envelope:
    /// `(1 + diurnal_amplitude) / base_secs`.
    peak_rate: f64,
}

impl BackgroundWorkload {
    /// Create a generator for a resource of `total_cores`, drawing from the
    /// given RNG stream (fork one per resource).
    pub fn new(config: WorkloadConfig, total_cores: u32, rng: SimRng) -> Self {
        assert!(total_cores > 0);
        assert!(
            config.target_utilization > 0.0 && config.target_utilization < 1.5,
            "target_utilization must be in (0, 1.5)"
        );
        assert!((0.0..1.0).contains(&config.diurnal_amplitude));
        let base_secs = config.mean_interarrival(total_cores).as_secs();
        let peak_rate = (1.0 + config.diurnal_amplitude) / base_secs;
        let mut gen = BackgroundWorkload {
            config,
            total_cores,
            rng,
            next_arrival: SimTime::ZERO,
            base_secs,
            peak_rate,
        };
        gen.next_arrival = gen.draw_next_arrival(SimTime::ZERO);
        gen
    }

    /// The config in use.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// Diurnal rate multiplier at time `t` (period 24 h, peak at noon).
    fn rate_multiplier(&self, t: SimTime) -> f64 {
        if self.config.diurnal_amplitude == 0.0 {
            return 1.0;
        }
        let day_frac = (t.as_secs() / 86_400.0).fract();
        1.0 + self.config.diurnal_amplitude * (2.0 * std::f64::consts::PI * (day_frac - 0.25)).sin()
    }

    /// Draw the next arrival strictly after `t` using thinning: sample at
    /// the peak rate, accept with probability rate(t)/peak.
    fn draw_next_arrival(&mut self, t: SimTime) -> SimTime {
        let peak_rate = self.peak_rate;
        let mut cur = t;
        loop {
            let gap = -((1.0 - self.rng.uniform01()).ln()) / peak_rate;
            cur += SimDuration::from_secs(gap);
            let accept = self.rate_multiplier(cur) / (peak_rate * self.base_secs);
            if self.rng.chance(accept) {
                return cur;
            }
        }
    }

    /// Draw one job's shape (size, runtime, walltime request).
    fn draw_job(&mut self, arrival: SimTime) -> BackgroundJob {
        let cores =
            (self.config.size_dist.sample(&mut self.rng).round() as u32).clamp(1, self.total_cores);
        let runtime =
            SimDuration::from_secs(self.config.runtime_dist.sample(&mut self.rng).max(1.0));
        let factor = self.config.overestimate_dist.sample(&mut self.rng).max(1.0);
        BackgroundJob {
            arrival,
            cores,
            runtime,
            walltime_request: runtime * factor,
        }
    }

    /// Next job in the stream (infinite iterator semantics).
    pub fn next_job(&mut self) -> BackgroundJob {
        let arrival = self.next_arrival;
        let job = self.draw_job(arrival);
        self.next_arrival = self.draw_next_arrival(arrival);
        job
    }

    /// Peek at the next arrival time without consuming it.
    pub fn peek_arrival(&self) -> SimTime {
        self.next_arrival
    }

    /// Generate the full job list up to `horizon`.
    pub fn generate_until(&mut self, horizon: SimTime) -> Vec<BackgroundJob> {
        let mut jobs = Vec::new();
        while self.peek_arrival() <= horizon {
            jobs.push(self.next_job());
        }
        jobs
    }

    /// Jobs that should already be occupying the machine at t = 0 to avoid a
    /// cold-start transient: a snapshot of the steady state, expressed as
    /// jobs arriving at t = 0 with residual runtimes.
    ///
    /// We fill roughly `target_utilization` of the cores with running jobs
    /// whose *remaining* runtime is sampled from the equilibrium residual
    /// distribution (approximated by resampling the runtime distribution —
    /// conservative for heavy tails), plus `backlog_factor` times the
    /// machine size in queued core demand.
    pub fn initial_condition(&mut self, backlog_factor: f64) -> Vec<BackgroundJob> {
        let mut jobs = Vec::new();
        // Running set: fill (at most) 95 % of the cores.
        let mut core_budget =
            (f64::from(self.total_cores) * self.config.target_utilization.min(0.95)) as i64;
        while core_budget > 0 {
            let mut j = self.draw_job(SimTime::ZERO);
            j.cores = j.cores.min(core_budget.max(1) as u32);
            core_budget -= i64::from(j.cores);
            jobs.push(j);
        }
        // Queued backlog.
        let mut backlog_budget = (f64::from(self.total_cores) * backlog_factor) as i64;
        while backlog_budget > 0 {
            let j = self.draw_job(SimTime::ZERO);
            backlog_budget -= i64::from(j.cores);
            jobs.push(j);
        }
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(util: f64, cores: u32) -> BackgroundWorkload {
        let mut cfg = WorkloadConfig::production_like();
        cfg.target_utilization = util;
        BackgroundWorkload::new(cfg, cores, SimRng::new(99))
    }

    #[test]
    fn validate_rejects_what_the_generator_would_panic_on() {
        assert_eq!(WorkloadConfig::production_like().validate(), Ok(()));
        let mut cfg = WorkloadConfig::production_like();
        cfg.target_utilization = 1.5;
        assert!(cfg.validate().unwrap_err().contains("target_utilization"));
        let mut cfg = WorkloadConfig::production_like();
        cfg.diurnal_amplitude = 1.0;
        assert!(cfg.validate().unwrap_err().contains("diurnal_amplitude"));
        let mut cfg = WorkloadConfig::production_like();
        cfg.size_dist = Distribution::PowerOfTwo {
            lo_exp: 8,
            hi_exp: 0,
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.starts_with("size_dist: power-of-two"), "{err}");
    }

    #[test]
    fn arrivals_are_strictly_increasing() {
        let mut g = gen(0.8, 1024);
        let mut last = SimTime::ZERO;
        for _ in 0..500 {
            let j = g.next_job();
            assert!(j.arrival > last || (last == SimTime::ZERO && j.arrival >= last));
            last = j.arrival;
        }
    }

    #[test]
    fn walltime_request_never_below_runtime() {
        let mut g = gen(0.8, 1024);
        for _ in 0..500 {
            let j = g.next_job();
            assert!(j.walltime_request >= j.runtime);
            assert!(j.cores >= 1 && j.cores <= 1024);
        }
    }

    #[test]
    fn offered_load_tracks_target_utilization() {
        // Offered core-seconds per wall-second should approximate
        // target_utilization * cores.
        for &util in &[0.5, 0.8] {
            let mut g = gen(util, 2048);
            let horizon = SimTime::from_secs(30.0 * 86_400.0);
            let jobs = g.generate_until(horizon);
            let core_secs: f64 = jobs
                .iter()
                .map(|j| f64::from(j.cores) * j.runtime.as_secs())
                .sum();
            let offered = core_secs / horizon.as_secs() / 2048.0;
            assert!(
                (offered / util - 1.0).abs() < 0.25,
                "offered {offered} vs target {util}"
            );
        }
    }

    #[test]
    fn diurnal_modulation_changes_rates() {
        let mut cfg = WorkloadConfig::production_like();
        cfg.diurnal_amplitude = 0.8;
        let mut g = BackgroundWorkload::new(cfg, 1024, SimRng::new(5));
        let horizon = SimTime::from_secs(20.0 * 86_400.0);
        let jobs = g.generate_until(horizon);
        // Count arrivals by day-quarter; the noon-peak quarters should carry
        // more than the midnight-trough quarters.
        let mut quarters = [0usize; 4];
        for j in &jobs {
            let day_frac = (j.arrival.as_secs() / 86_400.0).fract();
            quarters[(day_frac * 4.0) as usize % 4] += 1;
        }
        let peak = quarters[1] + quarters[2];
        let trough = quarters[0] + quarters[3];
        assert!(
            peak as f64 > trough as f64 * 1.2,
            "peak {peak} trough {trough}"
        );
    }

    #[test]
    fn initial_condition_fills_cores_and_backlog() {
        let mut g = gen(0.8, 1000);
        let jobs = g.initial_condition(0.5);
        let total: i64 = jobs.iter().map(|j| i64::from(j.cores)).sum();
        // 80 % running + 50 % backlog ≈ 1300 cores of demand at t = 0.
        assert!(total >= 1200, "total core demand {total}");
        assert!(jobs.iter().all(|j| j.arrival == SimTime::ZERO));
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let mut g =
                BackgroundWorkload::new(WorkloadConfig::production_like(), 512, SimRng::new(1234));
            (0..50).map(|_| g.next_job()).collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn mean_interarrival_scales_inversely_with_cores() {
        let cfg = WorkloadConfig::production_like();
        let small = cfg.mean_interarrival(256);
        let large = cfg.mean_interarrival(4096);
        assert!(small.as_secs() / large.as_secs() > 15.0);
    }

    #[test]
    #[should_panic(expected = "target_utilization")]
    fn rejects_absurd_utilization() {
        let mut cfg = WorkloadConfig::production_like();
        cfg.target_utilization = 1.6; // > 1.5: queue growth would be unbounded
        let _ = BackgroundWorkload::new(cfg, 100, SimRng::new(1));
    }

    #[test]
    fn oversubscription_up_to_limit_is_allowed() {
        let mut cfg = WorkloadConfig::production_like();
        cfg.target_utilization = 1.05;
        let mut g = BackgroundWorkload::new(cfg, 100, SimRng::new(1));
        let _ = g.next_job();
    }
}
