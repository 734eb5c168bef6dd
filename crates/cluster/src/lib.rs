//! # aimes-cluster — HPC batch-system simulator
//!
//! The paper's experiments ran pilots through the batch queues of four XSEDE
//! resources and one NERSC resource; the dominant TTC component (Tw) is the
//! pilots' queue wait, which is "determined by the resource load, the length
//! of its queue, and the policies regulating priorities among jobs" and is
//! "outside user and middleware control" (§IV-B). This crate reproduces
//! that machinery:
//!
//! * [`job`] — batch-job lifecycle (queued → running →
//!   completed/killed/cancelled).
//! * `profile` (crate-private) — core-availability profiles over future time, the
//!   engine behind bundle-level queue-wait prediction.
//! * [`policy`] — scheduling policies: FCFS and EASY backfill (the
//!   production standard; Tsafrir et al. \[25\] in the paper).
//! * [`cluster`] — the simulated resource: submission, dispatch, walltime
//!   enforcement, cancellation, background-load feeding, and the metrics
//!   that the Bundle abstraction queries. Its job table holds the live
//!   jobs and the ids `Cluster::submit` handed out; background jobs the
//!   cluster generates itself leave it when they end. `warm_up` brings
//!   a fresh pool to the submission instant off the engine.
//! * [`catalog`] — the five paper resources with heterogeneous sizes,
//!   loads, policies, and submission latencies.
//!
//! Scheduling granularity is the core (space-sharing), matching how the
//! paper counts pilot sizes; node-packing effects are outside the paper's
//! scope and are absorbed into the background-load calibration.

pub mod catalog;
pub mod cluster;
pub mod job;
pub mod policy;
mod profile;

pub use catalog::{paper_testbed, testbed_resource, ResourceSpec};
pub use cluster::{warm_up, Cluster, ClusterConfig, ClusterMetrics, QueueConfig};
pub use job::{Job, JobId, JobOwner, JobRequest, JobState};
pub use policy::SchedulingPolicy;
