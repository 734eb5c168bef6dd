//! # aimes-sim — deterministic discrete-event simulation engine
//!
//! The AIMES paper ran its experiments for a year against production XSEDE
//! and NERSC batch systems. This crate provides the substrate that replaces
//! those systems for the reproduction: a deterministic, seedable
//! discrete-event simulation (DES) kernel on top of which the cluster,
//! pilot, and middleware layers are built.
//!
//! Design goals:
//!
//! * **Determinism.** Two runs with the same seed produce bit-identical
//!   event orderings and traces. Ties in event time are broken by a
//!   monotonically increasing sequence number, never by allocation order.
//! * **Virtual time.** All durations are virtual seconds ([`SimTime`],
//!   [`SimDuration`]); a year of simulated queue waits costs milliseconds
//!   of host time, which is what makes many-repetition experiments cheap.
//! * **Introspection.** Every component can emit structured
//!   [`trace::TraceEvent`]s; the paper stresses that AIMES is "instrumented
//!   to produce complete traces of an application execution" and the TTC
//!   decomposition in the evaluation depends on it.
//!
//! The engine is intentionally single-threaded: determinism and
//! reproducibility trump parallel speedup *inside* one simulation.
//! Parallelism is applied across independent experiment repetitions at the
//! harness level (see the `aimes` crate), which is both simpler and faster.

pub mod engine;
pub mod event;
pub mod profile;
pub mod rng;
pub mod telemetry;
pub mod time;
pub mod trace;

pub use engine::Simulation;
pub use event::{EventId, EventQueue, ScheduledEvent};
pub use profile::{EngineStats, LabelProfile, ProfileGuard, ProfileLabel, ProfileReport, Profiler};
pub use rng::{SimRng, StreamId};
pub use telemetry::{MetricsRegistry, MetricsSummary, Span, Telemetry};
pub use time::{SimDuration, SimTime};
pub use trace::{
    ComponentId, DetectorPhase, ManagerPhase, ResourcePhase, SagaVerb, TraceEvent, TraceRecord,
    TraceSink, Tracer, UnitVerb,
};
