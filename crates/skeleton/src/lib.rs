//! # aimes-skeleton — the Application Skeleton abstraction
//!
//! §III-A: real distributed applications are hard to obtain, build, scale,
//! and share; the paper abstracts them as *skeletons* — "an application is
//! composed of a number of stages (which can be iterated in groups), and
//! each stage has a number of tasks", where "task lengths and file sizes
//! can be statistical distributions or polynomial functions of other
//! parameters".
//!
//! This crate reproduces the skeleton tool:
//!
//! * [`config`] — the declarative skeleton description (serde, so it also
//!   round-trips through the JSON representation the paper's tool emits).
//! * [`task`] — the generated tasks: plain `Copy` data. A task's inputs
//!   are one external file or a contiguous range of upstream tasks, and
//!   that range is also its dependency list.
//! * [`app`] — [`app::SkeletonApp`]: expansion of a config into concrete
//!   tasks via a seeded RNG, file names built on demand, plus the paper's
//!   output forms (shell command list, DAG, JSON structure for
//!   middleware, preparation script, Pegasus DAX, Swift script).
//! * [`classes`] — the three application classes the paper generalizes
//!   (bag-of-tasks = 1 stage, map-reduce = 2 stages, multistage workflow),
//!   including the exact Table I experiment workloads.
//! * [`profiles`] — Montage-, BLAST-, and CyberShake-like parameter sets,
//!   the applications the skeleton tool was validated against.

pub mod app;
pub mod classes;
pub mod config;
#[cfg(test)]
mod oracle;
pub mod profiles;
pub mod task;

pub use app::SkeletonApp;
pub use classes::{
    bag_of_tasks, map_reduce, multistage_workflow, paper_bag, paper_task_counts, TaskDurationSpec,
};
pub use config::{FileSizeSpec, SkeletonConfig, StageConfig, TaskMapping};
pub use task::{FileSpec, TaskId, TaskInput, TaskSpec};
