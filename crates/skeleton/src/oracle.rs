//! Test-only oracle: the task representation `SkeletonApp::generate` used
//! before tasks became plain data. Every task owns its stage name, its file
//! lists with a formatted name per file, and its dependency list. The
//! differential proptest below generates both ways and compares them task
//! by task.

use crate::config::{FileSizeSpec, SkeletonConfig, StageConfig, TaskDurationConfig, TaskMapping};
use crate::task::{FileSpec, TaskId};
use aimes_sim::{SimDuration, SimRng};

/// One task as the old generator built it.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct FatTask {
    pub id: TaskId,
    pub stage: usize,
    pub stage_name: String,
    pub cores: u32,
    pub duration: SimDuration,
    pub inputs: Vec<FileSpec>,
    pub outputs: Vec<FileSpec>,
    pub dependencies: Vec<TaskId>,
}

impl FatTask {
    pub fn input_mb(&self) -> f64 {
        self.inputs.iter().map(|f| f.size_mb).sum()
    }

    pub fn output_mb(&self) -> f64 {
        self.outputs.iter().map(|f| f.size_mb).sum()
    }
}

/// The old generator, draw for draw.
pub(crate) fn generate(config: &SkeletonConfig, rng: &mut SimRng) -> Result<Vec<FatTask>, String> {
    config.validate()?;
    let expanded = expand_stages(config);
    let mut tasks: Vec<FatTask> = Vec::new();
    let mut prev_range: Option<(usize, usize)> = None;
    for (stage_idx, (cfg, name)) in expanded.iter().enumerate() {
        let start = tasks.len();
        for i in 0..cfg.task_count {
            let id = TaskId(tasks.len() as u32);
            let (inputs, dependencies) = make_inputs(cfg, i, prev_range, &tasks, name, rng)?;
            let input_mb: f64 = inputs.iter().map(|f| f.size_mb).sum();
            let duration = match &cfg.duration {
                TaskDurationConfig::Dist { dist } => {
                    SimDuration::from_secs(dist.sample(rng).max(0.0))
                }
                TaskDurationConfig::LinearOfInput { a, b } => {
                    SimDuration::from_secs((a * input_mb + b).max(0.0))
                }
            };
            let out_mb = eval_size(&cfg.output_size_mb, input_mb, duration, rng);
            let outputs = vec![FileSpec {
                name: format!("{name}.{i:05}.out"),
                size_mb: out_mb,
            }];
            tasks.push(FatTask {
                id,
                stage: stage_idx,
                stage_name: name.clone(),
                cores: cfg.cores_per_task,
                duration,
                inputs,
                outputs,
                dependencies,
            });
        }
        prev_range = Some((start, tasks.len()));
    }
    Ok(tasks)
}

/// Total final output volume, by file name.
pub(crate) fn final_output_mb(tasks: &[FatTask]) -> f64 {
    let consumed: std::collections::HashSet<&str> = tasks
        .iter()
        .flat_map(|t| t.inputs.iter().map(|f| f.name.as_str()))
        .collect();
    tasks
        .iter()
        .flat_map(|t| t.outputs.iter())
        .filter(|f| !consumed.contains(f.name.as_str()))
        .map(|f| f.size_mb)
        .sum()
}

fn expand_stages(config: &SkeletonConfig) -> Vec<(StageConfig, String)> {
    let mut out = Vec::new();
    match config.iteration {
        None => {
            for s in &config.stages {
                out.push((s.clone(), s.name.clone()));
            }
        }
        Some(it) => {
            for s in &config.stages[..it.from_stage] {
                out.push((s.clone(), s.name.clone()));
            }
            for k in 0..it.count {
                for s in &config.stages[it.from_stage..=it.to_stage] {
                    let name = if it.count > 1 {
                        format!("{}.iter{k}", s.name)
                    } else {
                        s.name.clone()
                    };
                    out.push((s.clone(), name));
                }
            }
            for s in &config.stages[it.to_stage + 1..] {
                out.push((s.clone(), s.name.clone()));
            }
        }
    }
    out
}

fn make_inputs(
    cfg: &StageConfig,
    task_index: u32,
    prev_range: Option<(usize, usize)>,
    tasks: &[FatTask],
    stage_name: &str,
    rng: &mut SimRng,
) -> Result<(Vec<FileSpec>, Vec<TaskId>), String> {
    match cfg.mapping {
        TaskMapping::External => {
            let size = match &cfg.input_size_mb {
                FileSizeSpec::Dist { dist } => dist.sample(rng).max(0.0),
                other => {
                    return Err(format!(
                        "external input size must be a distribution, got {other:?}"
                    ));
                }
            };
            Ok((
                vec![FileSpec {
                    name: format!("{stage_name}.{task_index:05}.in"),
                    size_mb: size,
                }],
                vec![],
            ))
        }
        TaskMapping::OneToOne => {
            let (a, _) = prev_range.ok_or("one-to-one with no previous stage")?;
            let src = &tasks[a + task_index as usize];
            Ok((src.outputs.clone(), vec![src.id]))
        }
        TaskMapping::AllToAll => {
            let (a, b) = prev_range.ok_or("all-to-all with no previous stage")?;
            let mut files = Vec::new();
            let mut deps = Vec::new();
            for src in &tasks[a..b] {
                files.extend(src.outputs.iter().cloned());
                deps.push(src.id);
            }
            Ok((files, deps))
        }
        TaskMapping::ManyToOne => {
            let (a, b) = prev_range.ok_or("many-to-one with no previous stage")?;
            let fan = (b - a) / cfg.task_count as usize;
            let lo = a + task_index as usize * fan;
            let mut files = Vec::new();
            let mut deps = Vec::new();
            for src in &tasks[lo..lo + fan] {
                files.extend(src.outputs.iter().cloned());
                deps.push(src.id);
            }
            Ok((files, deps))
        }
    }
}

fn eval_size(spec: &FileSizeSpec, input_mb: f64, duration: SimDuration, rng: &mut SimRng) -> f64 {
    match spec {
        FileSizeSpec::Dist { dist } => dist.sample(rng).max(0.0),
        FileSizeSpec::LinearOfInput { a, b } => (a * input_mb + b).max(0.0),
        FileSizeSpec::PolyOfRuntime { coeffs } => {
            let t = duration.as_secs();
            coeffs
                .iter()
                .enumerate()
                .map(|(i, c)| c * t.powi(i as i32))
                .sum::<f64>()
                .max(0.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IterationSpec;
    use crate::SkeletonApp;
    use aimes_workload::Distribution;
    use proptest::prelude::*;

    /// One raw stage: mapping, width, duration kind, output-size kind.
    type RawStage = (u8, u32, u8, u8);

    /// Build a config from raw draws. Widths are forced to what the
    /// mapping needs (equal for one-to-one, a divisor for many-to-one), so
    /// most configs validate; the iteration group may still be rejected,
    /// and then both generators must reject it alike.
    fn config(raw: &[RawStage], iteration: Option<(usize, usize, u32)>) -> SkeletonConfig {
        let mut stages: Vec<StageConfig> = Vec::new();
        for (i, &(mapping, width, dur, out)) in raw.iter().enumerate() {
            let prev = stages.last().map(|s| s.task_count);
            let (mapping, task_count) = match (prev, mapping % 4) {
                (None, _) | (Some(_), 0) => (TaskMapping::External, width),
                (Some(p), 1) => (TaskMapping::OneToOne, p),
                (Some(p), 2) => {
                    let divisors: Vec<u32> = (1..=p).filter(|d| p % d == 0).collect();
                    let d = divisors[width as usize % divisors.len()];
                    (TaskMapping::ManyToOne, d)
                }
                (Some(_), _) => (TaskMapping::AllToAll, width),
            };
            let duration = match dur % 2 {
                0 => TaskDurationConfig::Dist {
                    dist: Distribution::Uniform {
                        lo: 10.0,
                        hi: 100.0,
                    },
                },
                _ => TaskDurationConfig::LinearOfInput { a: 3.5, b: 7.0 },
            };
            let output_size_mb = match out % 3 {
                0 => FileSizeSpec::Dist {
                    dist: Distribution::Uniform { lo: 0.1, hi: 2.0 },
                },
                1 => FileSizeSpec::LinearOfInput { a: 0.3, b: 0.01 },
                _ => FileSizeSpec::PolyOfRuntime {
                    coeffs: vec![0.5, 0.01, 0.0001],
                },
            };
            stages.push(StageConfig {
                name: format!("s{i}"),
                task_count,
                cores_per_task: 1 + u32::from(dur % 3 == 2),
                duration,
                input_size_mb: FileSizeSpec::Dist {
                    dist: Distribution::Uniform { lo: 0.5, hi: 4.0 },
                },
                output_size_mb,
                mapping,
            });
        }
        let n = stages.len();
        let iteration = iteration.map(|(a, b, count)| {
            let (from, to) = (a % n, b % n);
            IterationSpec {
                from_stage: from.min(to),
                to_stage: from.max(to),
                count,
            }
        });
        SkeletonConfig {
            name: "diff".into(),
            stages,
            iteration,
        }
    }

    fn bits(files: impl Iterator<Item = FileSpec>) -> Vec<(String, u64)> {
        files.map(|f| (f.name, f.size_mb.to_bits())).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Plain-data tasks match the old fat tasks field for field, floats
        /// by their bits, and leave the RNG where the old generator did.
        #[test]
        fn prop_plain_tasks_match_the_fat_oracle(
            raw in proptest::collection::vec((0u8..4, 1u32..9, 0u8..6, 0u8..6), 1..5),
            iteration in proptest::option::of((0usize..5, 0usize..5, 1u32..4)),
            seed in any::<u64>(),
        ) {
            let cfg = config(&raw, iteration);
            let (mut old_rng, mut new_rng) = (SimRng::new(seed), SimRng::new(seed));
            let old = generate(&cfg, &mut old_rng);
            let new = SkeletonApp::generate(&cfg, &mut new_rng);
            let (old, app) = match (old, new) {
                (Ok(old), Ok(app)) => (old, app),
                (Err(a), Err(b)) => {
                    prop_assert_eq!(a, b);
                    return Ok(());
                }
                (old, new) => {
                    return Err(format!("oracle ok: {}, plain ok: {}", old.is_ok(), new.is_ok()));
                }
            };
            prop_assert_eq!(old.len(), app.tasks().len());
            for (fat, t) in old.iter().zip(app.tasks()) {
                prop_assert_eq!(fat.id, t.id);
                prop_assert_eq!(fat.stage, t.stage as usize);
                prop_assert_eq!(&fat.stage_name, &app.stage_names()[t.stage as usize]);
                prop_assert_eq!(fat.cores, t.cores);
                prop_assert_eq!(fat.duration.as_secs().to_bits(), t.duration.as_secs().to_bits());
                prop_assert_eq!(
                    bits(fat.inputs.iter().cloned()),
                    bits(app.input_files(t))
                );
                prop_assert_eq!(
                    bits(fat.outputs.iter().cloned()),
                    bits(std::iter::once(app.output_file(t)))
                );
                prop_assert_eq!(fat.input_mb().to_bits(), t.input_mb.to_bits());
                prop_assert_eq!(fat.output_mb().to_bits(), t.output_mb.to_bits());
                let deps: Vec<TaskId> = t.dependencies().map(TaskId).collect();
                prop_assert_eq!(&fat.dependencies, &deps);
            }
            prop_assert_eq!(
                final_output_mb(&old).to_bits(),
                app.final_output_mb().to_bits()
            );
            prop_assert_eq!(old_rng.uniform01().to_bits(), new_rng.uniform01().to_bits());
        }
    }
}
