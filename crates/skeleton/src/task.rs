//! Concrete task objects generated from a skeleton config.

use aimes_sim::SimDuration;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Application-wide task identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TaskId(pub u32);

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task.{:05}", self.0)
    }
}

/// One file a task reads or writes, as the output forms render it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FileSpec {
    pub name: String,
    pub size_mb: f64,
}

/// Where a task's input files come from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TaskInput {
    /// One fresh file from outside the application, of this size.
    External { size_mb: f64 },
    /// The outputs of the upstream tasks with ids `first..end`, in id
    /// order. One-to-one, many-to-one and all-to-all mappings all read a
    /// contiguous range, so the range is also the dependency list.
    Upstream { first: u32, end: u32 },
}

/// One generated task. The paper's task executables "copy the input files
/// from the file system to RAM, sleep for some amount of time (specified as
/// the runtime), and copy the output files from RAM to the file system" —
/// i.e., a task is fully characterized by its duration and its files.
///
/// A task is plain data: its files' names and its producers follow from its
/// stage and its index in that stage, so the [`SkeletonApp`] that generated
/// it names them on demand ([`SkeletonApp::input_files`],
/// [`SkeletonApp::output_file`]).
///
/// [`SkeletonApp`]: crate::SkeletonApp
/// [`SkeletonApp::input_files`]: crate::SkeletonApp::input_files
/// [`SkeletonApp::output_file`]: crate::SkeletonApp::output_file
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TaskSpec {
    pub id: TaskId,
    /// Index of the (expanded) stage this task belongs to.
    pub stage: u32,
    pub cores: u32,
    pub duration: SimDuration,
    pub input: TaskInput,
    /// Total input volume in MB, summed over the input files in order.
    pub input_mb: f64,
    /// Size of the task's one output file in MB.
    pub output_mb: f64,
}

impl TaskSpec {
    /// Ids of the tasks whose outputs this task consumes; empty for a root
    /// task (external input).
    pub fn dependencies(&self) -> Range<u32> {
        match self.input {
            TaskInput::External { .. } => 0..0,
            TaskInput::Upstream { first, end } => first..end,
        }
    }

    /// True for a task with no dependencies.
    pub fn is_root(&self) -> bool {
        self.dependencies().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_id_display_padded() {
        assert_eq!(TaskId(7).to_string(), "task.00007");
        assert_eq!(TaskId(12345).to_string(), "task.12345");
    }

    #[test]
    fn a_task_is_plain_data() {
        assert!(std::mem::size_of::<TaskSpec>() <= 56);
        let t = TaskSpec {
            id: TaskId(5),
            stage: 1,
            cores: 1,
            duration: SimDuration::from_mins(15.0),
            input: TaskInput::Upstream { first: 0, end: 4 },
            input_mb: 0.008,
            output_mb: 0.002,
        };
        assert_eq!(t.dependencies(), 0..4);
        assert!(!t.is_root());
        let root = TaskSpec {
            input: TaskInput::External { size_mb: 1.0 },
            ..t
        };
        assert!(root.dependencies().is_empty());
        assert!(root.is_root());
    }
}
