//! Declarative skeleton descriptions.
//!
//! Mirrors the configuration file the paper's skeleton tool parses: stages
//! with task counts, task-duration and file-size specifications (constants,
//! distributions, or functions of other parameters), inter-stage file
//! mappings, and iteration of stage groups.

use aimes_workload::Distribution;
use serde::{Deserialize, Serialize};

/// How a stage's task inputs connect to the previous stage's outputs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum TaskMapping {
    /// Each task reads fresh external input files (first stage, or stages
    /// fed from outside the application).
    External,
    /// Task *i* of this stage reads the output of task *i* of the previous
    /// stage (requires equal task counts).
    OneToOne,
    /// Every task of this stage reads every output of the previous stage
    /// (reduce / synchronization stages).
    AllToAll,
    /// Task *i* reads outputs of previous-stage tasks `i*k .. (i+1)*k`
    /// where `k = prev_count / this_count` (fan-in; requires divisibility).
    ManyToOne,
}

/// A file size in MB: a distribution, or a function of another parameter —
/// the paper allows e.g. "output size can be a \[polynomial\] function of
/// task runtime" and "task length can be a linear function of input file
/// size".
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum FileSizeSpec {
    /// Sampled from a distribution.
    Dist { dist: Distribution },
    /// `a * input_size_mb + b` (per task, summed over its inputs).
    LinearOfInput { a: f64, b: f64 },
    /// Polynomial in the task's runtime (seconds):
    /// `c0 + c1*t + c2*t^2 + ...`.
    PolyOfRuntime { coeffs: Vec<f64> },
}

impl FileSizeSpec {
    /// A constant size in MB.
    pub fn constant(mb: f64) -> Self {
        FileSizeSpec::Dist {
            dist: Distribution::Constant { value: mb },
        }
    }
}

/// A task duration in seconds: a distribution or a linear function of the
/// task's total input size.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum TaskDurationConfig {
    Dist {
        dist: Distribution,
    },
    /// `a * input_size_mb + b` seconds.
    LinearOfInput {
        a: f64,
        b: f64,
    },
}

/// One stage of the application.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StageConfig {
    pub name: String,
    pub task_count: u32,
    /// Cores per task (1 for all paper experiments; kept for the
    /// "non-uniform task sizes" extension in §V).
    #[serde(default = "default_cores")]
    pub cores_per_task: u32,
    pub duration: TaskDurationConfig,
    /// Per-task input file size — only used when `mapping` is `External`
    /// (otherwise inputs are the previous stage's outputs).
    pub input_size_mb: FileSizeSpec,
    /// Per-task output file size.
    pub output_size_mb: FileSizeSpec,
    pub mapping: TaskMapping,
}

impl StageConfig {
    /// Every distribution the stage samples from, checked by
    /// [`Distribution::validate`].
    fn validate_distributions(&self) -> Result<(), String> {
        if let TaskDurationConfig::Dist { dist } = &self.duration {
            dist.validate().map_err(|e| format!("duration: {e}"))?;
        }
        for (what, spec) in [
            ("input size", &self.input_size_mb),
            ("output size", &self.output_size_mb),
        ] {
            if let FileSizeSpec::Dist { dist } = spec {
                dist.validate().map_err(|e| format!("{what}: {e}"))?;
            }
        }
        Ok(())
    }
}

fn default_cores() -> u32 {
    1
}

/// Iterate a contiguous group of stages a number of times (the paper's
/// "(iterative) multistage workflow").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct IterationSpec {
    /// First stage index of the iterated group.
    pub from_stage: usize,
    /// Last stage index (inclusive).
    pub to_stage: usize,
    /// Total number of times the group runs (1 = no extra iterations).
    pub count: u32,
}

/// A complete skeleton application description.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SkeletonConfig {
    pub name: String,
    pub stages: Vec<StageConfig>,
    #[serde(default)]
    pub iteration: Option<IterationSpec>,
}

impl SkeletonConfig {
    /// Validate structural constraints; returns a description of the first
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.stages.is_empty() {
            return Err("skeleton needs at least one stage".into());
        }
        for (i, st) in self.stages.iter().enumerate() {
            if st.task_count == 0 {
                return Err(format!("stage {i} ({}) has zero tasks", st.name));
            }
            if st.cores_per_task == 0 {
                return Err(format!("stage {i} ({}) has zero cores per task", st.name));
            }
            st.validate_distributions()
                .map_err(|e| format!("stage {i} ({}): {e}", st.name))?;
            match st.mapping {
                TaskMapping::External => {}
                _ if i == 0 => {
                    return Err(format!(
                        "stage 0 ({}) must use the external mapping",
                        st.name
                    ));
                }
                TaskMapping::OneToOne => {
                    let prev = self.stages[i - 1].task_count;
                    if prev != st.task_count {
                        return Err(format!(
                            "stage {i} ({}): one-to-one needs equal task counts \
                             ({prev} vs {})",
                            st.name, st.task_count
                        ));
                    }
                }
                TaskMapping::ManyToOne => {
                    let prev = self.stages[i - 1].task_count;
                    if !prev.is_multiple_of(st.task_count) {
                        return Err(format!(
                            "stage {i} ({}): many-to-one needs divisibility \
                             ({prev} % {} != 0)",
                            st.name, st.task_count
                        ));
                    }
                }
                TaskMapping::AllToAll => {}
            }
        }
        if let Some(it) = self.iteration {
            if it.count == 0 {
                return Err("iteration count must be >= 1".into());
            }
            if it.from_stage > it.to_stage || it.to_stage >= self.stages.len() {
                return Err(format!(
                    "iteration range {}..={} out of bounds (stages: {})",
                    it.from_stage,
                    it.to_stage,
                    self.stages.len()
                ));
            }
            // The iterated group must be re-enterable: its first stage
            // must not be one-to-one/many-to-one onto a differently-sized
            // predecessor after wrap-around; we only allow wrap when the
            // group's first stage maps External or AllToAll, or counts
            // match the group's last stage.
            if it.count > 1 {
                let first = &self.stages[it.from_stage];
                let last = &self.stages[it.to_stage];
                let ok = match first.mapping {
                    TaskMapping::External | TaskMapping::AllToAll => true,
                    TaskMapping::OneToOne => last.task_count == first.task_count,
                    TaskMapping::ManyToOne => last.task_count.is_multiple_of(first.task_count),
                };
                if !ok {
                    return Err("iterated group's first stage cannot consume its last \
                         stage's outputs"
                        .into());
                }
            }
        }
        Ok(())
    }

    /// Total number of tasks after iteration expansion.
    pub fn total_tasks(&self) -> u64 {
        let base: u64 = self.stages.iter().map(|s| u64::from(s.task_count)).sum();
        match self.iteration {
            None => base,
            Some(it) => {
                let group: u64 = self.stages[it.from_stage..=it.to_stage]
                    .iter()
                    .map(|s| u64::from(s.task_count))
                    .sum();
                base + group * u64::from(it.count - 1)
            }
        }
    }

    /// Parse from the JSON form (the paper's tool reads a config file; ours
    /// is JSON).
    pub fn from_json(json: &str) -> Result<Self, String> {
        let cfg: SkeletonConfig = serde_json::from_str(json).map_err(|e| e.to_string())?;
        cfg.validate()?;
        Ok(cfg)
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("config serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(name: &str, tasks: u32, mapping: TaskMapping) -> StageConfig {
        StageConfig {
            name: name.into(),
            task_count: tasks,
            cores_per_task: 1,
            duration: TaskDurationConfig::Dist {
                dist: Distribution::Constant { value: 900.0 },
            },
            input_size_mb: FileSizeSpec::constant(1.0),
            output_size_mb: FileSizeSpec::constant(0.002),
            mapping,
        }
    }

    #[test]
    fn valid_single_stage() {
        let cfg = SkeletonConfig {
            name: "bot".into(),
            stages: vec![stage("s0", 8, TaskMapping::External)],
            iteration: None,
        };
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.total_tasks(), 8);
    }

    #[test]
    fn rejects_empty_and_zero() {
        let empty = SkeletonConfig {
            name: "e".into(),
            stages: vec![],
            iteration: None,
        };
        assert!(empty.validate().is_err());
        let zero = SkeletonConfig {
            name: "z".into(),
            stages: vec![stage("s0", 0, TaskMapping::External)],
            iteration: None,
        };
        assert!(zero.validate().is_err());
    }

    #[test]
    fn rejects_an_unsampleable_distribution_in_every_slot() {
        let empty = || Distribution::Empirical { values: vec![] };
        let mut duration = stage("s0", 8, TaskMapping::External);
        duration.duration = TaskDurationConfig::Dist { dist: empty() };
        let mut input = stage("s0", 8, TaskMapping::External);
        input.input_size_mb = FileSizeSpec::Dist { dist: empty() };
        let mut output = stage("s0", 8, TaskMapping::External);
        output.output_size_mb = FileSizeSpec::Dist { dist: empty() };
        for (bad, slot) in [
            (duration, "duration"),
            (input, "input size"),
            (output, "output size"),
        ] {
            // The deserialize-then-validate path a config file takes.
            let json = serde_json::to_string(&SkeletonConfig {
                name: "bad".into(),
                stages: vec![bad],
                iteration: None,
            })
            .unwrap();
            let cfg: SkeletonConfig = serde_json::from_str(&json).unwrap();
            let err = cfg.validate().unwrap_err();
            assert!(
                err.starts_with(&format!("stage 0 (s0): {slot}: empirical")),
                "{err}"
            );
        }
    }

    #[test]
    fn first_stage_must_be_external() {
        let cfg = SkeletonConfig {
            name: "bad".into(),
            stages: vec![stage("s0", 8, TaskMapping::OneToOne)],
            iteration: None,
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn one_to_one_needs_equal_counts() {
        let good = SkeletonConfig {
            name: "g".into(),
            stages: vec![
                stage("map", 8, TaskMapping::External),
                stage("post", 8, TaskMapping::OneToOne),
            ],
            iteration: None,
        };
        assert!(good.validate().is_ok());
        let bad = SkeletonConfig {
            name: "b".into(),
            stages: vec![
                stage("map", 8, TaskMapping::External),
                stage("post", 4, TaskMapping::OneToOne),
            ],
            iteration: None,
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn many_to_one_needs_divisibility() {
        let good = SkeletonConfig {
            name: "g".into(),
            stages: vec![
                stage("map", 8, TaskMapping::External),
                stage("reduce", 2, TaskMapping::ManyToOne),
            ],
            iteration: None,
        };
        assert!(good.validate().is_ok());
        let bad = SkeletonConfig {
            name: "b".into(),
            stages: vec![
                stage("map", 8, TaskMapping::External),
                stage("reduce", 3, TaskMapping::ManyToOne),
            ],
            iteration: None,
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn iteration_bounds_checked() {
        let mut cfg = SkeletonConfig {
            name: "it".into(),
            stages: vec![
                stage("s0", 4, TaskMapping::External),
                stage("s1", 4, TaskMapping::OneToOne),
            ],
            iteration: Some(IterationSpec {
                from_stage: 0,
                to_stage: 1,
                count: 3,
            }),
        };
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.total_tasks(), 8 + 8 * 2);
        cfg.iteration = Some(IterationSpec {
            from_stage: 1,
            to_stage: 2,
            count: 2,
        });
        assert!(cfg.validate().is_err());
        cfg.iteration = Some(IterationSpec {
            from_stage: 0,
            to_stage: 1,
            count: 0,
        });
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn iterated_group_must_be_reenterable() {
        // Group starts with OneToOne onto a group-last stage of different
        // size: invalid.
        let cfg = SkeletonConfig {
            name: "it".into(),
            stages: vec![
                stage("seed", 4, TaskMapping::External),
                stage("expand", 4, TaskMapping::OneToOne),
                stage("reduce", 2, TaskMapping::ManyToOne),
            ],
            iteration: Some(IterationSpec {
                from_stage: 1,
                to_stage: 2,
                count: 2,
            }),
        };
        // Wrap: "expand" (OneToOne, 4 tasks) would consume "reduce"
        // outputs (2 tasks) — invalid.
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn json_roundtrip() {
        let cfg = SkeletonConfig {
            name: "rt".into(),
            stages: vec![
                stage("map", 16, TaskMapping::External),
                stage("reduce", 4, TaskMapping::ManyToOne),
            ],
            iteration: None,
        };
        let json = cfg.to_json();
        let back = SkeletonConfig::from_json(&json).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn from_json_validates() {
        let bad = r#"{"name":"x","stages":[]}"#;
        assert!(SkeletonConfig::from_json(bad).is_err());
    }
}
