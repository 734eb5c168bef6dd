//! # aimes-pilot — the pilot abstraction
//!
//! §III-C: "Pilots generalize the common concept of a resource placeholder.
//! A pilot is submitted to the scheduler of a resource, and once active,
//! accepts and executes tasks directly submitted to it. In this way, the
//! tasks are executed within the time and space boundaries set by the
//! resource's scheduler for the pilot, trading the scheduler overhead for
//! each task with an overhead for a single pilot."
//!
//! This crate reproduces the RADICAL-Pilot architecture the paper extends:
//!
//! * [`description`] — [`description::PilotDescription`]: resource, cores,
//!   walltime.
//! * [`pilot`] — the pilot state model with instrumented transition
//!   timestamps ("timers and introspection tools record each state
//!   transition"), the capability the paper says other pilot systems lack.
//! * [`mod@unit`] — compute units (tasks) with their own instrumented state
//!   model and automatic restart on failure.
//! * [`pilot_manager`] — submits pilots through the SAGA layer and tracks
//!   their activation.
//! * [`unit_manager`] — binds units to pilots under a pluggable
//!   [`scheduler`]: early binding (direct submission / round robin before
//!   activation) or late binding with backfill onto whichever pilots are
//!   active and have capacity and remaining walltime.
//! * [`agent`] — the per-pilot executor: core slots, input/output staging
//!   through the resource's (serialized) wide-area channel, execution.

//! * [`detector`] — signal-based failure detection: heartbeats through
//!   the SAGA channel feed a per-pilot suspicion state machine
//!   (`Healthy → Suspected → Declared-Dead`, timeout or phi-accrual), so
//!   recovery reacts to *observed* silence instead of injection oracles.

pub mod agent;
pub mod description;
pub mod detector;
pub mod pilot;
pub mod pilot_manager;
pub mod scheduler;
pub mod unit;
pub mod unit_manager;

pub use description::PilotDescription;
pub use detector::{
    DetectionMode, DetectionPolicy, DetectorEvent, DetectorVerdict, HealthState, SuspicionDetector,
};
pub use pilot::{Pilot, PilotId, PilotState};
pub use pilot_manager::{PilotManager, PilotRecovery};
pub use scheduler::{Binding, UnitScheduler};
pub use unit::{Checkpoint, ComputeUnit, UnitHistory, UnitId, UnitState, UnitWork};
pub use unit_manager::{SalvageEvent, UmConfig, UnitManager, UnitManagerStats};
