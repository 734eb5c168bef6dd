//! The simulated testbed: the five resources the paper used.
//!
//! §IV: "We acquired data over one year, measuring experiment performance
//! on four XSEDE and one NERSC resources." The AIMES experiments drew from
//! a pool of Stampede, Gordon, Trestles, Blacklight (XSEDE) and Hopper
//! (NERSC). The specs here keep the machines' *relative* character —
//! different sizes, interconnect generations, schedulers, load levels, and
//! submission latencies — scaled so that a 2048-core pilot (the largest the
//! experiments need) fits everywhere, while whole-machine simulation stays
//! cheap. Absolute queue waits are therefore not the paper's, but their
//! dispersion and cross-resource independence (the properties the paper's
//! analysis relies on) are preserved.

use crate::cluster::ClusterConfig;
use crate::policy::SchedulingPolicy;
use aimes_sim::SimDuration;
use aimes_workload::{Distribution, WorkloadConfig};
use serde::{Deserialize, Serialize};

/// A named resource specification that can be instantiated as a cluster.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ResourceSpec {
    pub config: ClusterConfig,
    /// Failure domain the resource belongs to — the site whose shared
    /// infrastructure (filesystem, network, power) can take every member
    /// down together. Empty means unassigned (legacy specs).
    #[serde(default)]
    pub domain: String,
    /// Human-readable provenance note.
    pub note: String,
}

fn workload(util: f64, mu: f64, sigma: f64, hi_exp: u32, diurnal: f64) -> WorkloadConfig {
    WorkloadConfig {
        target_utilization: util,
        size_dist: Distribution::PowerOfTwo { lo_exp: 0, hi_exp },
        runtime_dist: Distribution::LogNormal { mu, sigma },
        overestimate_dist: Distribution::Uniform { lo: 1.5, hi: 8.0 },
        diurnal_amplitude: diurnal,
    }
}

#[allow(clippy::too_many_arguments)] // one knob per heterogeneity axis
fn spec(
    name: &str,
    cores: u32,
    cores_per_node: u32,
    policy: SchedulingPolicy,
    wl: WorkloadConfig,
    backlog: f64,
    ingress_mbps: f64,
    domain: &str,
    note: &str,
) -> ResourceSpec {
    ResourceSpec {
        domain: domain.to_string(),
        config: ClusterConfig {
            name: name.to_string(),
            total_cores: cores,
            cores_per_node,
            policy,
            queues: vec![
                crate::cluster::QueueConfig::normal(),
                // Every production machine ran a small high-priority
                // debug/development queue.
                crate::cluster::QueueConfig::debug(SimDuration::from_mins(30.0), cores / 16),
            ],
            workload: Some(wl),
            background_horizon: SimDuration::from_hours(24.0 * 14.0),
            initial_backlog_factor: backlog,
            ingress_mbps,
            egress_mbps: ingress_mbps * 0.8,
            transfer_latency: SimDuration::from_secs(2.0),
        },
        note: note.to_string(),
    }
}

/// The five-resource pool the experiments draw pilots from.
///
/// Heterogeneity knobs (size, utilization, runtime mix, policy, backlog,
/// bandwidth) are chosen so that per-resource queue-wait distributions are
/// visibly different and mutually independent — the property that makes the
/// min-over-k-resources effect work (§IV-B, Fig. 4).
pub fn paper_testbed() -> Vec<ResourceSpec> {
    vec![
        spec(
            "stampede",
            8192,
            16,
            SchedulingPolicy::EasyBackfill,
            // Large, saturated flagship: long-ish jobs, heavy tail.
            workload(0.98, 8.4, 1.5, 9, 0.3),
            1.5,
            120.0,
            "tacc",
            "XSEDE flagship analog: large, saturated, EASY backfill",
        ),
        spec(
            "gordon",
            4096,
            16,
            SchedulingPolicy::EasyBackfill,
            // Mid-size data-intensive machine, busy but less backlogged.
            workload(0.93, 8.0, 1.3, 8, 0.25),
            0.8,
            100.0,
            "sdsc",
            "XSEDE mid-size analog: data-intensive, busy",
        ),
        spec(
            "trestles",
            4096,
            32,
            SchedulingPolicy::EasyBackfill,
            // Throughput-oriented: shorter jobs, lightest load of the
            // pool — often the fastest to activate a pilot.
            workload(0.91, 7.4, 1.2, 7, 0.2),
            0.6,
            80.0,
            "sdsc",
            "XSEDE throughput analog: short jobs, lightest load",
        ),
        spec(
            "blacklight",
            2048,
            64,
            SchedulingPolicy::Fcfs,
            // Shared-memory niche machine: few, fat, long jobs, strict
            // FCFS — wait times are long and erratic.
            workload(0.93, 9.0, 1.6, 10, 0.15),
            0.8,
            60.0,
            "psc",
            "XSEDE shared-memory analog: fat long jobs, strict FCFS",
        ),
        spec(
            "hopper",
            6144,
            24,
            SchedulingPolicy::EasyBackfill,
            // DOE production machine: oversubscribed, deep backlog.
            workload(1.0, 8.6, 1.4, 9, 0.35),
            1.2,
            150.0,
            "nersc",
            "NERSC production analog: oversubscribed, deep backlog",
        ),
    ]
}

/// Look up a testbed resource by name.
pub fn testbed_resource(name: &str) -> Option<ResourceSpec> {
    paper_testbed().into_iter().find(|s| s.config.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use aimes_sim::{SimTime, Simulation};

    #[test]
    fn testbed_has_five_distinct_resources() {
        let tb = paper_testbed();
        assert_eq!(tb.len(), 5);
        let mut names: Vec<_> = tb.iter().map(|s| s.config.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn every_resource_fits_the_largest_pilot() {
        // The paper's biggest single pilot is 2048 cores (2048 tasks,
        // early binding).
        for s in paper_testbed() {
            assert!(
                s.config.total_cores >= 2048,
                "{} too small for the experiments",
                s.config.name
            );
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(testbed_resource("hopper").is_some());
        assert!(testbed_resource("gordon").is_some());
        assert!(testbed_resource("bluewaters").is_none());
    }

    #[test]
    fn resources_are_heterogeneous() {
        let tb = paper_testbed();
        let utils: Vec<f64> = tb
            .iter()
            .map(|s| s.config.workload.as_ref().unwrap().target_utilization)
            .collect();
        let sizes: Vec<u32> = tb.iter().map(|s| s.config.total_cores).collect();
        let u_min = utils.iter().cloned().fold(f64::INFINITY, f64::min);
        let u_max = utils.iter().cloned().fold(0.0, f64::max);
        assert!(u_max - u_min >= 0.05, "load spread {u_min}..{u_max}");
        assert!(u_max >= 0.95, "pool should include saturated machines");
        assert!(sizes.iter().max().unwrap() / sizes.iter().min().unwrap() >= 4);
        assert!(tb.iter().any(|s| s.config.policy == SchedulingPolicy::Fcfs));
    }

    #[test]
    fn testbed_records_failure_domains() {
        let tb = paper_testbed();
        for s in &tb {
            assert!(!s.domain.is_empty(), "{} has no domain", s.config.name);
        }
        let domains: std::collections::BTreeSet<_> = tb.iter().map(|s| &s.domain).collect();
        assert_eq!(domains.len(), 4, "four sites back the five resources");
        let sdsc: Vec<_> = tb
            .iter()
            .filter(|s| s.domain == "sdsc")
            .map(|s| s.config.name.as_str())
            .collect();
        assert_eq!(sdsc, ["gordon", "trestles"]);
        let round_trip: ResourceSpec =
            serde_json::from_str(&serde_json::to_string(&tb[0]).unwrap()).unwrap();
        assert_eq!(round_trip.domain, "tacc");
    }

    #[test]
    fn testbed_reaches_realistic_utilization() {
        // Each machine, left alone for 5 simulated days, should be busy.
        for s in paper_testbed() {
            let mut sim = Simulation::with_tracer(3, aimes_sim::Tracer::disabled());
            let c = Cluster::new(s.config.clone());
            c.install(&mut sim);
            sim.run_until(SimTime::from_secs(5.0 * 24.0 * 3600.0));
            let m = c.metrics(sim.now());
            assert!(
                m.utilization > 0.45,
                "{} only reached {:.2} utilization",
                s.config.name,
                m.utilization
            );
        }
    }
}
