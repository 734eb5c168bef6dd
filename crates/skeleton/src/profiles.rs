//! Skeleton parameter sets modelled after the applications the skeleton
//! tool was validated against.
//!
//! §III-A: "We profiled three representative distributed applications —
//! Montage, BLAST, CyberShake-postprocessing — then derived appropriate
//! skeleton parameters" with performance differences of -1.3 %, 1.5 %, and
//! 2.4 % versus the real applications. The exact derived parameters are in
//! the Application Skeleton papers (\[27\], \[28\]); the profiles here follow
//! their published stage structures with representative magnitudes, and are
//! used by the examples and the heterogeneous-workload ablation.

use crate::config::{FileSizeSpec, SkeletonConfig, StageConfig, TaskDurationConfig, TaskMapping};
use aimes_workload::Distribution;

fn stage(
    name: &str,
    tasks: u32,
    duration: TaskDurationConfig,
    input: FileSizeSpec,
    output: FileSizeSpec,
    mapping: TaskMapping,
) -> StageConfig {
    StageConfig {
        name: name.into(),
        task_count: tasks,
        cores_per_task: 1,
        duration,
        input_size_mb: input,
        output_size_mb: output,
        mapping,
    }
}

/// Montage-like mosaicking workflow: many short reprojection tasks, an
/// all-to-all background fit, and a small final co-addition stage.
/// Scales with `tiles` (number of input images).
pub fn montage_like(tiles: u32) -> SkeletonConfig {
    assert!(tiles >= 4, "montage needs at least 4 tiles");
    SkeletonConfig {
        name: format!("montage-{tiles}"),
        stages: vec![
            stage(
                "mProject",
                tiles,
                TaskDurationConfig::LinearOfInput { a: 4.0, b: 10.0 },
                FileSizeSpec::Dist {
                    dist: Distribution::truncated_gaussian(4.0, 1.0, 1.0, 8.0),
                },
                FileSizeSpec::LinearOfInput { a: 1.6, b: 0.0 },
                TaskMapping::External,
            ),
            stage(
                "mDiffFit",
                tiles,
                TaskDurationConfig::Dist {
                    dist: Distribution::truncated_gaussian(8.0, 3.0, 1.0, 20.0),
                },
                FileSizeSpec::constant(0.0),
                FileSizeSpec::constant(0.3),
                TaskMapping::OneToOne,
            ),
            stage(
                "mConcatFit",
                1,
                TaskDurationConfig::LinearOfInput { a: 0.5, b: 5.0 },
                FileSizeSpec::constant(0.0),
                FileSizeSpec::constant(0.1),
                TaskMapping::AllToAll,
            ),
            stage(
                "mAdd",
                1,
                TaskDurationConfig::Dist {
                    dist: Distribution::truncated_gaussian(120.0, 30.0, 30.0, 300.0),
                },
                FileSizeSpec::constant(0.0),
                FileSizeSpec::constant(50.0),
                TaskMapping::AllToAll,
            ),
        ],
        iteration: None,
    }
}

/// BLAST-like split-database search: an embarrassingly parallel bag of
/// medium-length tasks over database shards (Mathog-style split BLAST).
pub fn blast_like(shards: u32) -> SkeletonConfig {
    SkeletonConfig {
        name: format!("blast-{shards}"),
        stages: vec![
            stage(
                "search",
                shards,
                TaskDurationConfig::Dist {
                    // Search time varies widely with shard content.
                    dist: Distribution::LogNormal {
                        mu: 6.3,
                        sigma: 0.5,
                    },
                },
                FileSizeSpec::Dist {
                    dist: Distribution::Uniform { lo: 30.0, hi: 60.0 },
                },
                FileSizeSpec::Dist {
                    dist: Distribution::LogNormal {
                        mu: -1.0,
                        sigma: 0.8,
                    },
                },
                TaskMapping::External,
            ),
            stage(
                "merge",
                1,
                TaskDurationConfig::LinearOfInput { a: 2.0, b: 15.0 },
                FileSizeSpec::constant(0.0),
                FileSizeSpec::constant(5.0),
                TaskMapping::AllToAll,
            ),
        ],
        iteration: None,
    }
}

/// CyberShake-postprocessing-like workload: two waves of many short
/// seismogram/peak-ground-motion tasks with a fan-in.
pub fn cybershake_like(sites: u32) -> SkeletonConfig {
    assert!(
        sites.is_multiple_of(2),
        "cybershake profile wants an even site count"
    );
    SkeletonConfig {
        name: format!("cybershake-{sites}"),
        stages: vec![
            stage(
                "seismogram",
                sites,
                TaskDurationConfig::Dist {
                    dist: Distribution::truncated_gaussian(45.0, 15.0, 5.0, 120.0),
                },
                FileSizeSpec::Dist {
                    dist: Distribution::Uniform { lo: 5.0, hi: 15.0 },
                },
                FileSizeSpec::constant(0.5),
                TaskMapping::External,
            ),
            stage(
                "peak-gm",
                sites,
                TaskDurationConfig::Dist {
                    dist: Distribution::truncated_gaussian(15.0, 5.0, 2.0, 40.0),
                },
                FileSizeSpec::constant(0.0),
                FileSizeSpec::constant(0.05),
                TaskMapping::OneToOne,
            ),
            stage(
                "aggregate",
                sites / 2,
                TaskDurationConfig::Dist {
                    dist: Distribution::Constant { value: 20.0 },
                },
                FileSizeSpec::constant(0.0),
                FileSizeSpec::constant(0.1),
                TaskMapping::ManyToOne,
            ),
        ],
        iteration: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::SkeletonApp;
    use aimes_sim::SimRng;

    #[test]
    fn montage_validates_and_generates() {
        let cfg = montage_like(32);
        cfg.validate().unwrap();
        let app = SkeletonApp::generate(&cfg, &mut SimRng::new(1)).unwrap();
        assert_eq!(app.stage_count(), 4);
        assert_eq!(app.tasks().len(), 32 + 32 + 1 + 1);
        // mProject duration is linear in its input size.
        for t in app.stage_tasks(0) {
            let expect = 4.0 * t.input_mb + 10.0;
            assert!((t.duration.as_secs() - expect).abs() < 1e-9);
        }
        // The final mAdd consumes every mConcatFit output.
        assert_eq!(app.stage_tasks(3)[0].dependencies().len(), 1);
    }

    #[test]
    fn blast_validates_and_generates() {
        let cfg = blast_like(64);
        cfg.validate().unwrap();
        let app = SkeletonApp::generate(&cfg, &mut SimRng::new(2)).unwrap();
        assert_eq!(app.tasks().len(), 65);
        // Merge reads all 64 search outputs.
        assert_eq!(app.stage_tasks(1)[0].dependencies().len(), 64);
    }

    #[test]
    fn cybershake_validates_and_generates() {
        let cfg = cybershake_like(16);
        cfg.validate().unwrap();
        let app = SkeletonApp::generate(&cfg, &mut SimRng::new(3)).unwrap();
        assert_eq!(app.stage_count(), 3);
        assert_eq!(app.tasks().len(), 16 + 16 + 8);
    }

    #[test]
    fn profiles_are_heterogeneous_in_duration() {
        let app = SkeletonApp::generate(&blast_like(128), &mut SimRng::new(4)).unwrap();
        let durations: Vec<f64> = app
            .stage_tasks(0)
            .iter()
            .map(|t| t.duration.as_secs())
            .collect();
        let min = durations.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = durations.iter().cloned().fold(0.0, f64::max);
        assert!(max / min > 2.0, "expected spread, got {min}..{max}");
    }
}
