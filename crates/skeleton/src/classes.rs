//! The paper's application classes and the exact Table I workloads.
//!
//! §III-A: "We generalize bag-of-task, (iterative) map-reduce, and
//! (iterative) multistage workflow applications into (iterative) multistage
//! workflow applications, since bag-of-task applications are basically
//! single-stage applications and map-reduce applications are basically
//! two-stage applications."

use crate::config::{
    FileSizeSpec, IterationSpec, SkeletonConfig, StageConfig, TaskDurationConfig, TaskMapping,
};
use aimes_workload::Distribution;

/// Task-duration selection for the paper's experiments (Table I).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TaskDurationSpec {
    /// 15 minutes, constant (experiments 1 and 3 — "uniform" in the
    /// figures).
    Uniform15Min,
    /// Truncated Gaussian: mean 15 min, stdev 5 min, bounds [1, 30] min
    /// (experiments 2 and 4).
    Gaussian,
}

impl TaskDurationSpec {
    /// The corresponding sampling distribution (seconds).
    pub fn distribution(self) -> Distribution {
        match self {
            TaskDurationSpec::Uniform15Min => Distribution::Constant { value: 900.0 },
            TaskDurationSpec::Gaussian => {
                Distribution::truncated_gaussian(900.0, 300.0, 60.0, 1800.0)
            }
        }
    }

    /// Label used in experiment ids and figures.
    pub fn label(self) -> &'static str {
        match self {
            TaskDurationSpec::Uniform15Min => "uniform",
            TaskDurationSpec::Gaussian => "gaussian",
        }
    }
}

/// A generic bag of tasks: one stage of `n_tasks` single-core tasks.
pub fn bag_of_tasks(
    name: &str,
    n_tasks: u32,
    duration: Distribution,
    input_mb: f64,
    output_mb: f64,
) -> SkeletonConfig {
    SkeletonConfig {
        name: name.to_string(),
        stages: vec![StageConfig {
            name: "bag".into(),
            task_count: n_tasks,
            cores_per_task: 1,
            duration: TaskDurationConfig::Dist { dist: duration },
            input_size_mb: FileSizeSpec::constant(input_mb),
            output_size_mb: FileSizeSpec::constant(output_mb),
            mapping: TaskMapping::External,
        }],
        iteration: None,
    }
}

/// The paper's experimental application (Table I): a bag of `n_tasks`
/// single-core tasks, each reading a 1 MB input file and writing a 2 KB
/// output file, with 15-minute or truncated-Gaussian durations.
pub fn paper_bag(n_tasks: u32, duration: TaskDurationSpec) -> SkeletonConfig {
    bag_of_tasks(
        &format!("bot-{n_tasks}-{}", duration.label()),
        n_tasks,
        duration.distribution(),
        1.0,
        0.002,
    )
}

/// The nine Table I application sizes: 2^n for n = 3..=11.
pub fn paper_task_counts() -> Vec<u32> {
    (3..=11).map(|n| 2u32.pow(n)).collect()
}

/// An (optionally iterative) map-reduce: `maps` map tasks feeding
/// `reduces` reduce tasks.
#[allow(clippy::too_many_arguments)] // mirrors the skeleton tool's parameters
pub fn map_reduce(
    name: &str,
    maps: u32,
    reduces: u32,
    map_duration: Distribution,
    reduce_duration: Distribution,
    input_mb: f64,
    intermediate_mb: f64,
    iterations: u32,
) -> SkeletonConfig {
    assert!(
        maps.is_multiple_of(reduces),
        "map count must divide by reduce count"
    );
    SkeletonConfig {
        name: name.to_string(),
        stages: vec![
            StageConfig {
                name: "map".into(),
                task_count: maps,
                cores_per_task: 1,
                duration: TaskDurationConfig::Dist { dist: map_duration },
                input_size_mb: FileSizeSpec::constant(input_mb),
                output_size_mb: FileSizeSpec::constant(intermediate_mb),
                mapping: TaskMapping::External,
            },
            StageConfig {
                name: "reduce".into(),
                task_count: reduces,
                cores_per_task: 1,
                duration: TaskDurationConfig::Dist {
                    dist: reduce_duration,
                },
                input_size_mb: FileSizeSpec::constant(0.0),
                output_size_mb: FileSizeSpec::constant(intermediate_mb / 2.0),
                mapping: TaskMapping::ManyToOne,
            },
        ],
        iteration: if iterations > 1 {
            Some(IterationSpec {
                from_stage: 0,
                to_stage: 1,
                count: iterations,
            })
        } else {
            None
        },
    }
}

/// A multistage workflow with the given per-stage widths; stage 0 reads
/// external inputs, later stages synchronize all-to-all.
pub fn multistage_workflow(
    name: &str,
    widths: &[u32],
    duration: Distribution,
    input_mb: f64,
    output_mb: f64,
) -> SkeletonConfig {
    assert!(!widths.is_empty());
    let stages = widths
        .iter()
        .enumerate()
        .map(|(i, w)| StageConfig {
            name: format!("stage{i}"),
            task_count: *w,
            cores_per_task: 1,
            duration: TaskDurationConfig::Dist {
                dist: duration.clone(),
            },
            input_size_mb: FileSizeSpec::constant(input_mb),
            output_size_mb: FileSizeSpec::constant(output_mb),
            mapping: if i == 0 {
                TaskMapping::External
            } else {
                TaskMapping::AllToAll
            },
        })
        .collect();
    SkeletonConfig {
        name: name.to_string(),
        stages,
        iteration: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::SkeletonApp;
    use aimes_sim::SimRng;

    #[test]
    fn paper_task_counts_match_table1() {
        assert_eq!(
            paper_task_counts(),
            vec![8, 16, 32, 64, 128, 256, 512, 1024, 2048]
        );
    }

    #[test]
    fn paper_bag_matches_table1_parameters() {
        for spec in [TaskDurationSpec::Uniform15Min, TaskDurationSpec::Gaussian] {
            let cfg = paper_bag(64, spec);
            cfg.validate().unwrap();
            let app = SkeletonApp::generate(&cfg, &mut SimRng::new(1)).unwrap();
            assert_eq!(app.tasks().len(), 64);
            for t in app.tasks() {
                assert_eq!(t.cores, 1);
                assert!((t.input_mb - 1.0).abs() < 1e-12);
                assert!((t.output_mb - 0.002).abs() < 1e-12);
                let mins = t.duration.as_mins();
                match spec {
                    TaskDurationSpec::Uniform15Min => assert_eq!(mins, 15.0),
                    TaskDurationSpec::Gaussian => {
                        assert!((1.0..=30.0).contains(&mins))
                    }
                }
            }
        }
    }

    #[test]
    fn gaussian_durations_have_spread() {
        let cfg = paper_bag(2048, TaskDurationSpec::Gaussian);
        let app = SkeletonApp::generate(&cfg, &mut SimRng::new(2)).unwrap();
        let durations: Vec<f64> = app.tasks().iter().map(|t| t.duration.as_mins()).collect();
        let mean = durations.iter().sum::<f64>() / durations.len() as f64;
        let var =
            durations.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / durations.len() as f64;
        assert!((mean - 15.0).abs() < 0.5, "mean {mean}");
        assert!((var.sqrt() - 5.0).abs() < 0.5, "stdev {}", var.sqrt());
    }

    #[test]
    fn map_reduce_structure() {
        let d = Distribution::Constant { value: 60.0 };
        let cfg = map_reduce("mr", 16, 4, d.clone(), d, 10.0, 1.0, 1);
        cfg.validate().unwrap();
        let app = SkeletonApp::generate(&cfg, &mut SimRng::new(3)).unwrap();
        assert_eq!(app.stage_count(), 2);
        assert_eq!(app.stage_tasks(0).len(), 16);
        assert_eq!(app.stage_tasks(1).len(), 4);
        for r in app.stage_tasks(1) {
            assert_eq!(r.dependencies().len(), 4);
        }
    }

    #[test]
    fn iterative_map_reduce() {
        let d = Distribution::Constant { value: 60.0 };
        let cfg = map_reduce("imr", 8, 2, d.clone(), d, 10.0, 1.0, 3);
        cfg.validate().unwrap();
        let app = SkeletonApp::generate(&cfg, &mut SimRng::new(3)).unwrap();
        assert_eq!(app.stage_count(), 6);
        assert_eq!(app.tasks().len(), 30);
    }

    #[test]
    fn workflow_structure() {
        let d = Distribution::Constant { value: 60.0 };
        let cfg = multistage_workflow("wf", &[8, 4, 2, 1], d, 1.0, 0.5);
        cfg.validate().unwrap();
        let app = SkeletonApp::generate(&cfg, &mut SimRng::new(4)).unwrap();
        assert_eq!(app.stage_count(), 4);
        assert_eq!(app.tasks().len(), 15);
        // Critical path = 4 stages x 60 s.
        assert_eq!(app.critical_path().as_secs(), 240.0);
    }
}
