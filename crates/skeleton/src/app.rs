//! Skeleton application generation and the paper's output forms.

use crate::config::FileSizeSpec;
use crate::config::{SkeletonConfig, StageConfig, TaskDurationConfig, TaskMapping};
use crate::task::{FileSpec, TaskId, TaskInput, TaskSpec};
use aimes_sim::{SimDuration, SimRng};
use serde::Serialize;

/// A generated skeleton application: concrete tasks with durations, files,
/// and dependencies.
///
/// Tasks are plain data. A task's file names and its producers follow from
/// its stage and its index in that stage, so the app builds names only when
/// an output form asks for them, and generation allocates per stage, not
/// per task.
///
/// ```
/// use aimes_sim::SimRng;
/// use aimes_skeleton::{paper_bag, SkeletonApp, TaskDurationSpec};
///
/// // A Table I workload: 64 tasks, 1 MB in / 2 KB out, 15-minute tasks.
/// let config = paper_bag(64, TaskDurationSpec::Uniform15Min);
/// let app = SkeletonApp::generate(&config, &mut SimRng::new(1)).unwrap();
/// assert_eq!(app.tasks().len(), 64);
/// assert_eq!(app.critical_path().as_mins(), 15.0); // single stage
/// assert_eq!(app.output_file(&app.tasks()[3]).name, "bag.00003.out");
/// // The same seed regenerates the identical application.
/// let again = SkeletonApp::generate(&config, &mut SimRng::new(1)).unwrap();
/// assert_eq!(app.tasks(), again.tasks());
/// ```
#[derive(Clone, Debug)]
pub struct SkeletonApp {
    name: String,
    tasks: Vec<TaskSpec>,
    /// Task-index ranges per expanded stage.
    stage_ranges: Vec<(usize, usize)>,
    stage_names: Vec<String>,
}

impl SkeletonApp {
    /// Expand a validated config into tasks, drawing all samples from
    /// `rng`. The same seed always yields the same application — the
    /// property that lets an experiment run the *same* workload under
    /// different execution strategies. Each task draws its external input
    /// size (external stages only), then its duration, then its output
    /// size.
    pub fn generate(config: &SkeletonConfig, rng: &mut SimRng) -> Result<SkeletonApp, String> {
        config.validate()?;
        let expanded = expand_stages(config);
        let total: usize = expanded.iter().map(|(c, _)| c.task_count as usize).sum();
        let mut tasks: Vec<TaskSpec> = Vec::with_capacity(total);
        let mut stage_ranges = Vec::with_capacity(expanded.len());
        let mut stage_names = Vec::with_capacity(expanded.len());
        let mut prev: Option<(usize, usize)> = None;

        for (stage, (cfg, name)) in expanded.into_iter().enumerate() {
            let external = match (cfg.mapping, &cfg.input_size_mb) {
                (TaskMapping::External, FileSizeSpec::Dist { dist }) => Some(dist),
                (TaskMapping::External, other) => {
                    return Err(format!(
                        "external input size must be a distribution, got {other:?}"
                    ));
                }
                _ => None,
            };
            // `validate` makes stage 0 external, so every stage that reads
            // upstream outputs has a predecessor.
            let upstream = prev.unwrap_or_default();
            let start = tasks.len();
            for i in 0..cfg.task_count {
                let (input, input_mb) = match external {
                    Some(dist) => {
                        let size_mb = dist.sample(rng).max(0.0);
                        (TaskInput::External { size_mb }, size_mb)
                    }
                    None => {
                        let (first, end) = upstream_range(cfg, i, upstream);
                        let input_mb = tasks[first..end].iter().map(|t| t.output_mb).sum();
                        let (first, end) = (first as u32, end as u32);
                        (TaskInput::Upstream { first, end }, input_mb)
                    }
                };
                let duration = match &cfg.duration {
                    TaskDurationConfig::Dist { dist } => {
                        SimDuration::from_secs(dist.sample(rng).max(0.0))
                    }
                    TaskDurationConfig::LinearOfInput { a, b } => {
                        SimDuration::from_secs((a * input_mb + b).max(0.0))
                    }
                };
                let output_mb = eval_size(&cfg.output_size_mb, input_mb, duration, rng);
                tasks.push(TaskSpec {
                    id: TaskId(tasks.len() as u32),
                    stage: stage as u32,
                    cores: cfg.cores_per_task,
                    duration,
                    input,
                    input_mb,
                    output_mb,
                });
            }
            let range = (start, tasks.len());
            stage_ranges.push(range);
            stage_names.push(name);
            prev = Some(range);
        }
        Ok(SkeletonApp {
            name: config.name.clone(),
            tasks,
            stage_ranges,
            stage_names,
        })
    }

    /// Application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All tasks, id order (which is also a topological order).
    pub fn tasks(&self) -> &[TaskSpec] {
        &self.tasks
    }

    /// Number of expanded stages.
    pub fn stage_count(&self) -> usize {
        self.stage_ranges.len()
    }

    /// Tasks of one expanded stage.
    pub fn stage_tasks(&self, stage: usize) -> &[TaskSpec] {
        let (a, b) = self.stage_ranges[stage];
        &self.tasks[a..b]
    }

    /// Expanded stage names.
    pub fn stage_names(&self) -> &[String] {
        &self.stage_names
    }

    /// The files `task` reads, in order: its one external input file, or
    /// the output file of each task it depends on.
    pub fn input_files(&self, task: &TaskSpec) -> impl Iterator<Item = FileSpec> + '_ {
        let external = match task.input {
            TaskInput::External { size_mb } => Some(FileSpec {
                name: self.file_name(task, "in"),
                size_mb,
            }),
            TaskInput::Upstream { .. } => None,
        };
        let upstream = task.dependencies();
        external
            .into_iter()
            .chain(upstream.map(|d| self.output_file(&self.tasks[d as usize])))
    }

    /// The one file `task` writes.
    pub fn output_file(&self, task: &TaskSpec) -> FileSpec {
        FileSpec {
            name: self.file_name(task, "out"),
            size_mb: task.output_mb,
        }
    }

    /// `{stage}.{index in stage:05}.{suffix}`.
    fn file_name(&self, task: &TaskSpec, suffix: &str) -> String {
        let stage = task.stage as usize;
        let index = task.id.0 as usize - self.stage_ranges[stage].0;
        format!("{}.{index:05}.{suffix}", self.stage_names[stage])
    }

    /// Sum of all task durations (the total compute work).
    pub fn total_work(&self) -> SimDuration {
        self.tasks.iter().map(|t| t.duration).sum()
    }

    /// Length of the longest dependency chain (lower bound on Tx at
    /// unbounded concurrency).
    pub fn critical_path(&self) -> SimDuration {
        let mut finish = vec![SimDuration::ZERO; self.tasks.len()];
        for (i, t) in self.tasks.iter().enumerate() {
            let ready = t
                .dependencies()
                .map(|d| finish[d as usize])
                .fold(SimDuration::ZERO, SimDuration::max);
            finish[i] = ready + t.duration;
        }
        finish.into_iter().fold(SimDuration::ZERO, SimDuration::max)
    }

    /// Maximum per-stage width in cores (the concurrency ceiling useful to
    /// the Execution Manager when sizing pilots).
    pub fn max_concurrent_cores(&self) -> u64 {
        self.stage_ranges
            .iter()
            .map(|(a, b)| self.tasks[*a..*b].iter().map(|t| u64::from(t.cores)).sum())
            .max()
            .unwrap_or(0)
    }

    /// Total final output volume (files not consumed by another task).
    pub fn final_output_mb(&self) -> f64 {
        let mut consumed = vec![false; self.tasks.len()];
        for t in &self.tasks {
            for d in t.dependencies() {
                consumed[d as usize] = true;
            }
        }
        self.tasks
            .iter()
            .zip(consumed)
            .filter(|(_, consumed)| !consumed)
            .map(|(t, _)| t.output_mb)
            .sum()
    }

    /// The shell-command rendering of one task (one of the paper's three
    /// skeleton output forms).
    pub fn shell_command(&self, task: &TaskSpec) -> String {
        let ins: Vec<String> = self.input_files(task).map(|f| f.name).collect();
        format!(
            "skeleton-task --id {} --sleep {:.1} --inputs {} --outputs {}",
            task.id,
            task.duration.as_secs(),
            ins.join(","),
            self.output_file(task).name
        )
    }

    /// Output form (a): sequential shell commands.
    pub fn to_shell_script(&self) -> String {
        let mut out = String::from("#!/bin/sh\n# generated skeleton application\n");
        for t in &self.tasks {
            out.push_str(&self.shell_command(t));
            out.push('\n');
        }
        out
    }

    /// Output form (b): the dependency DAG as an edge list.
    pub fn to_dag(&self) -> Vec<(TaskId, TaskId)> {
        self.tasks
            .iter()
            .flat_map(|t| t.dependencies().map(move |d| (TaskId(d), t.id)))
            .collect()
    }

    /// Output form (d): the JSON structure consumed by the middleware.
    pub fn to_json(&self) -> String {
        let tasks: Vec<TaskJson> = self.tasks.iter().map(|t| self.json_view(t)).collect();
        serde_json::to_string_pretty(&tasks).expect("tasks serialize")
    }

    /// One task as the JSON form spells it out: names and file lists.
    fn json_view(&self, task: &TaskSpec) -> TaskJson {
        TaskJson {
            id: task.id,
            stage: task.stage,
            stage_name: self.stage_names[task.stage as usize].clone(),
            cores: task.cores,
            duration: task.duration,
            inputs: self.input_files(task).collect(),
            outputs: vec![self.output_file(task)],
            dependencies: task.dependencies().map(TaskId).collect(),
        }
    }

    /// Preparation script (paper output group 1): creates the input/output
    /// directories and the external input files with their exact sizes.
    pub fn preparation_script(&self) -> String {
        let mut out = String::from(
            "#!/bin/sh\n# prepares inputs for the skeleton application\nmkdir -p input output\n",
        );
        for t in self.tasks.iter().filter(|t| t.is_root()) {
            for f in self.input_files(t) {
                out.push_str(&format!(
                    "dd if=/dev/zero of=input/{} bs=1024 count={} 2>/dev/null\n",
                    f.name,
                    (f.size_mb * 1024.0).ceil() as u64
                ));
            }
        }
        out
    }

    /// Output form (b): a Pegasus-style abstract DAG (DAX XML).
    pub fn to_pegasus_dax(&self) -> String {
        let mut out = String::new();
        out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
        out.push_str(&format!(
            "<adag name=\"{}\" jobCount=\"{}\" childCount=\"{}\">\n",
            self.name,
            self.tasks.len(),
            self.tasks.iter().filter(|t| !t.is_root()).count()
        ));
        for t in &self.tasks {
            out.push_str(&format!(
                "  <job id=\"ID{:05}\" name=\"skeleton-task\" runtime=\"{:.1}\">\n",
                t.id.0,
                t.duration.as_secs()
            ));
            let inputs = self.input_files(t).map(|f| (f, "input"));
            for (f, link) in inputs.chain([(self.output_file(t), "output")]) {
                out.push_str(&format!(
                    "    <uses file=\"{}\" link=\"{link}\" size=\"{:.3}\"/>\n",
                    f.name, f.size_mb
                ));
            }
            out.push_str("  </job>\n");
        }
        for t in self.tasks.iter().filter(|t| !t.is_root()) {
            out.push_str(&format!("  <child ref=\"ID{:05}\">\n", t.id.0));
            for d in t.dependencies() {
                out.push_str(&format!("    <parent ref=\"ID{d:05}\"/>\n"));
            }
            out.push_str("  </child>\n");
        }
        out.push_str("</adag>\n");
        out
    }

    /// Output form (c): a Swift-style parallel script. Stages become
    /// `foreach` blocks over file arrays; data dependences are implicit in
    /// the array wiring, as in real Swift.
    pub fn to_swift_script(&self) -> String {
        let mut out = String::new();
        out.push_str("type file;\n\n");
        out.push_str(
            "app (file out) skeleton_task (file ins[], float sleep) {\n  \
             skeletontask \"--sleep\" sleep @filenames(ins) @out;\n}\n\n",
        );
        for (i, name) in self.stage_names.iter().enumerate() {
            let ident = name.replace(['.', '-'], "_");
            let tasks = self.stage_tasks(i);
            out.push_str(&format!(
                "file {ident}_out[] <simple_mapper; prefix=\"{name}.\", suffix=\".out\">;\n"
            ));
            out.push_str(&format!(
                "foreach j in [0:{}] {{\n",
                tasks.len().saturating_sub(1)
            ));
            let mean_sleep: f64 =
                tasks.iter().map(|t| t.duration.as_secs()).sum::<f64>() / tasks.len() as f64;
            // Input arrays: external files or the previous stage's outputs.
            let inputs = if tasks[0].is_root() {
                format!("input_files(\"{name}\", j)")
            } else {
                let prev = self.stage_names[i - 1].replace(['.', '-'], "_");
                format!("{prev}_out")
            };
            out.push_str(&format!(
                "  {ident}_out[j] = skeleton_task({inputs}, {mean_sleep:.1});\n}}\n\n"
            ));
        }
        out
    }
}

/// A task as the JSON output form writes it: the fields of the paper's
/// middleware structure, with stage name, file lists and dependencies
/// spelled out.
#[derive(Serialize)]
#[cfg_attr(test, derive(Debug, PartialEq, serde::Deserialize))]
struct TaskJson {
    id: TaskId,
    stage: u32,
    stage_name: String,
    cores: u32,
    duration: SimDuration,
    inputs: Vec<FileSpec>,
    outputs: Vec<FileSpec>,
    dependencies: Vec<TaskId>,
}

/// Expand the iteration group into a flat stage list with suffixed names.
/// After the first iteration, an external first stage re-reads external
/// data; other mappings consume the previous expanded stage (the group's
/// last).
fn expand_stages(config: &SkeletonConfig) -> Vec<(&StageConfig, String)> {
    let own_name = |s: &StageConfig| s.name.clone();
    let Some(it) = config.iteration else {
        return config.stages.iter().map(|s| (s, own_name(s))).collect();
    };
    let group = &config.stages[it.from_stage..=it.to_stage];
    let mut out = Vec::with_capacity(config.stages.len() + group.len() * (it.count as usize - 1));
    out.extend(
        config.stages[..it.from_stage]
            .iter()
            .map(|s| (s, own_name(s))),
    );
    for k in 0..it.count {
        out.extend(group.iter().map(|s| {
            let name = if it.count > 1 {
                format!("{}.iter{k}", s.name)
            } else {
                own_name(s)
            };
            (s, name)
        }));
    }
    out.extend(
        config.stages[it.to_stage + 1..]
            .iter()
            .map(|s| (s, own_name(s))),
    );
    out
}

/// Ids `first..end` of the upstream tasks task `i` of a non-external stage
/// reads, given the previous expanded stage's id range `a..b`.
fn upstream_range(cfg: &StageConfig, i: u32, (a, b): (usize, usize)) -> (usize, usize) {
    if cfg.mapping == TaskMapping::AllToAll {
        return (a, b);
    }
    // One-to-one is many-to-one with a fan-in of 1.
    let fan = (b - a) / cfg.task_count as usize;
    let lo = a + i as usize * fan;
    (lo, lo + fan)
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
    use aimes_workload::Distribution;
    use proptest::prelude::*;

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

    fn rng() -> SimRng {
        SimRng::new(42)
    }

    #[test]
    fn bag_of_tasks_generation() {
        let cfg = SkeletonConfig {
            name: "bot".into(),
            stages: vec![stage("s0", 16, TaskMapping::External)],
            iteration: None,
        };
        let app = SkeletonApp::generate(&cfg, &mut rng()).unwrap();
        assert_eq!(app.tasks().len(), 16);
        assert_eq!(app.stage_count(), 1);
        assert!(app.tasks().iter().all(|t| t.is_root()));
        assert!(app.tasks().iter().all(|t| t.duration.as_mins() == 15.0));
        let input_mb: f64 = app.tasks().iter().map(|t| t.input_mb).sum();
        assert!((input_mb - 16.0).abs() < 1e-9);
        assert!((app.final_output_mb() - 16.0 * 0.002).abs() < 1e-9);
        assert_eq!(app.total_work(), SimDuration::from_mins(16.0 * 15.0));
        assert_eq!(app.critical_path(), SimDuration::from_mins(15.0));
        assert_eq!(app.max_concurrent_cores(), 16);
    }

    #[test]
    fn one_to_one_wires_dependencies() {
        let cfg = SkeletonConfig {
            name: "pipe".into(),
            stages: vec![
                stage("a", 4, TaskMapping::External),
                stage("b", 4, TaskMapping::OneToOne),
            ],
            iteration: None,
        };
        let app = SkeletonApp::generate(&cfg, &mut rng()).unwrap();
        assert_eq!(app.tasks().len(), 8);
        for (i, t) in app.stage_tasks(1).iter().enumerate() {
            assert_eq!(t.dependencies(), i as u32..i as u32 + 1);
            let inputs: Vec<FileSpec> = app.input_files(t).collect();
            assert_eq!(inputs.len(), 1);
            assert_eq!(inputs[0].name, format!("a.{i:05}.out"));
            assert_eq!(app.output_file(t).name, format!("b.{i:05}.out"));
            assert!((t.input_mb - 0.002).abs() < 1e-12);
        }
        assert_eq!(app.critical_path(), SimDuration::from_mins(30.0));
    }

    #[test]
    fn all_to_all_reads_everything() {
        let cfg = SkeletonConfig {
            name: "sync".into(),
            stages: vec![
                stage("a", 4, TaskMapping::External),
                stage("b", 2, TaskMapping::AllToAll),
            ],
            iteration: None,
        };
        let app = SkeletonApp::generate(&cfg, &mut rng()).unwrap();
        for t in app.stage_tasks(1) {
            assert_eq!(t.dependencies(), 0..4);
            assert_eq!(app.input_files(t).count(), 4);
        }
    }

    #[test]
    fn many_to_one_partitions() {
        let cfg = SkeletonConfig {
            name: "mr".into(),
            stages: vec![
                stage("map", 8, TaskMapping::External),
                stage("reduce", 2, TaskMapping::ManyToOne),
            ],
            iteration: None,
        };
        let app = SkeletonApp::generate(&cfg, &mut rng()).unwrap();
        let r0 = &app.stage_tasks(1)[0];
        let r1 = &app.stage_tasks(1)[1];
        assert_eq!(r0.dependencies(), 0..4);
        assert_eq!(r1.dependencies(), 4..8);
    }

    #[test]
    fn iteration_expands_stages() {
        let cfg = SkeletonConfig {
            name: "it".into(),
            stages: vec![
                stage("gen", 4, TaskMapping::External),
                stage("step", 4, TaskMapping::OneToOne),
            ],
            iteration: Some(IterationSpec {
                from_stage: 1,
                to_stage: 1,
                count: 3,
            }),
        };
        let app = SkeletonApp::generate(&cfg, &mut rng()).unwrap();
        assert_eq!(app.stage_count(), 4);
        assert_eq!(app.tasks().len(), 16);
        // Sized once for every expanded stage's tasks.
        assert_eq!(app.tasks.capacity(), 16);
        assert_eq!(
            app.stage_names(),
            &["gen", "step.iter0", "step.iter1", "step.iter2"]
        );
        // Chain: iter2 depends on iter1 depends on iter0 depends on gen.
        assert_eq!(app.critical_path(), SimDuration::from_mins(15.0 * 4.0));
    }

    #[test]
    fn linear_duration_of_input() {
        let mut cfg = SkeletonConfig {
            name: "lin".into(),
            stages: vec![stage("s", 4, TaskMapping::External)],
            iteration: None,
        };
        cfg.stages[0].input_size_mb = FileSizeSpec::constant(10.0);
        cfg.stages[0].duration = TaskDurationConfig::LinearOfInput { a: 2.0, b: 30.0 };
        let app = SkeletonApp::generate(&cfg, &mut rng()).unwrap();
        for t in app.tasks() {
            assert_eq!(t.duration.as_secs(), 50.0);
        }
    }

    #[test]
    fn poly_output_of_runtime() {
        let mut cfg = SkeletonConfig {
            name: "poly".into(),
            stages: vec![stage("s", 2, TaskMapping::External)],
            iteration: None,
        };
        cfg.stages[0].duration = TaskDurationConfig::Dist {
            dist: Distribution::Constant { value: 10.0 },
        };
        cfg.stages[0].output_size_mb = FileSizeSpec::PolyOfRuntime {
            coeffs: vec![1.0, 0.5, 0.01],
        };
        let app = SkeletonApp::generate(&cfg, &mut rng()).unwrap();
        for t in app.tasks() {
            // 1 + 0.5*10 + 0.01*100 = 7.
            assert!((t.output_mb - 7.0).abs() < 1e-9);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut cfg = SkeletonConfig {
            name: "det".into(),
            stages: vec![stage("s", 32, TaskMapping::External)],
            iteration: None,
        };
        cfg.stages[0].duration = TaskDurationConfig::Dist {
            dist: Distribution::truncated_gaussian(900.0, 300.0, 60.0, 1800.0),
        };
        let a = SkeletonApp::generate(&cfg, &mut SimRng::new(5)).unwrap();
        let b = SkeletonApp::generate(&cfg, &mut SimRng::new(5)).unwrap();
        let c = SkeletonApp::generate(&cfg, &mut SimRng::new(6)).unwrap();
        assert_eq!(a.tasks(), b.tasks());
        assert_ne!(a.tasks(), c.tasks());
    }

    #[test]
    fn shell_script_and_dag_and_json() {
        let cfg = SkeletonConfig {
            name: "emit".into(),
            stages: vec![
                stage("a", 2, TaskMapping::External),
                stage("b", 2, TaskMapping::OneToOne),
            ],
            iteration: None,
        };
        let app = SkeletonApp::generate(&cfg, &mut rng()).unwrap();
        let sh = app.to_shell_script();
        assert_eq!(
            sh.lines()
                .filter(|l| l.starts_with("skeleton-task"))
                .count(),
            4
        );
        let dag = app.to_dag();
        assert_eq!(dag.len(), 2);
        assert!(dag.contains(&(TaskId(0), TaskId(2))));
        let json = app.to_json();
        let back: Vec<TaskJson> = serde_json::from_str(&json).unwrap();
        let views: Vec<TaskJson> = app.tasks().iter().map(|t| app.json_view(t)).collect();
        assert_eq!(back, views);
        assert_eq!(back[2].stage_name, "b");
        assert_eq!(back[2].dependencies, vec![TaskId(0)]);
    }

    #[test]
    fn shell_command_contains_everything() {
        let cfg = SkeletonConfig {
            name: "cmd".into(),
            stages: vec![
                stage("map", 2, TaskMapping::External),
                stage("reduce", 1, TaskMapping::AllToAll),
            ],
            iteration: None,
        };
        let app = SkeletonApp::generate(&cfg, &mut rng()).unwrap();
        let cmd = app.shell_command(&app.tasks()[2]);
        assert!(cmd.contains("--id task.00002"));
        assert!(cmd.contains("--sleep 900.0"));
        assert!(cmd.contains("--inputs map.00000.out,map.00001.out"));
        assert!(cmd.ends_with("--outputs reduce.00000.out"));
    }

    #[test]
    fn preparation_script_creates_external_inputs_only() {
        let cfg = SkeletonConfig {
            name: "prep".into(),
            stages: vec![
                stage("a", 3, TaskMapping::External),
                stage("b", 3, TaskMapping::OneToOne),
            ],
            iteration: None,
        };
        let app = SkeletonApp::generate(&cfg, &mut rng()).unwrap();
        let script = app.preparation_script();
        // Only the 3 external inputs get dd lines; intermediate files are
        // produced by tasks, not preparation.
        assert_eq!(script.matches("dd if=").count(), 3);
        assert!(script.contains("mkdir -p input output"));
        assert!(script.contains("a.00000.in"));
        assert!(!script.contains("a.00000.out"));
    }

    #[test]
    fn pegasus_dax_wires_parents() {
        let cfg = SkeletonConfig {
            name: "dax".into(),
            stages: vec![
                stage("map", 4, TaskMapping::External),
                stage("reduce", 1, TaskMapping::AllToAll),
            ],
            iteration: None,
        };
        let app = SkeletonApp::generate(&cfg, &mut rng()).unwrap();
        let dax = app.to_pegasus_dax();
        assert!(dax.starts_with("<?xml"));
        assert_eq!(dax.matches("<job ").count(), 5);
        assert_eq!(dax.matches("<child ").count(), 1);
        assert_eq!(dax.matches("<parent ").count(), 4);
        assert!(dax.contains("jobCount=\"5\""));
        assert!(dax.contains("link=\"input\""));
    }

    #[test]
    fn swift_script_has_one_foreach_per_stage() {
        let cfg = SkeletonConfig {
            name: "swift".into(),
            stages: vec![
                stage("gen", 8, TaskMapping::External),
                stage("post", 8, TaskMapping::OneToOne),
            ],
            iteration: None,
        };
        let app = SkeletonApp::generate(&cfg, &mut rng()).unwrap();
        let swift = app.to_swift_script();
        assert_eq!(swift.matches("foreach").count(), 2);
        assert!(swift.contains("type file;"));
        assert!(swift.contains("gen_out"));
        // Stage 2 consumes stage 1's output array.
        assert!(swift.contains("skeleton_task(gen_out"));
    }

    proptest! {
        /// Id order is a topological order: every dependency has a smaller id.
        #[test]
        fn prop_ids_topological(
            widths in proptest::collection::vec(1u32..12, 1..5),
            seed in any::<u64>(),
        ) {
            let mut stages = vec![stage("s0", widths[0], TaskMapping::External)];
            for (i, w) in widths.iter().enumerate().skip(1) {
                stages.push(stage(&format!("s{i}"), *w, TaskMapping::AllToAll));
            }
            let cfg = SkeletonConfig { name: "p".into(), stages, iteration: None };
            let app = SkeletonApp::generate(&cfg, &mut SimRng::new(seed)).unwrap();
            for t in app.tasks() {
                for d in t.dependencies() {
                    prop_assert!(d < t.id.0);
                }
            }
            prop_assert_eq!(
                app.tasks().len() as u64,
                cfg.total_tasks()
            );
        }

        /// Critical path never exceeds total work, and is at least the
        /// longest single task.
        #[test]
        fn prop_critical_path_bounds(
            widths in proptest::collection::vec(1u32..8, 1..4),
            seed in any::<u64>(),
        ) {
            let mut stages = vec![stage("s0", widths[0], TaskMapping::External)];
            for (i, w) in widths.iter().enumerate().skip(1) {
                stages.push(stage(&format!("s{i}"), *w, TaskMapping::AllToAll));
            }
            for s in &mut stages {
                s.duration = TaskDurationConfig::Dist {
                    dist: Distribution::Uniform { lo: 10.0, hi: 100.0 },
                };
            }
            let cfg = SkeletonConfig { name: "p".into(), stages, iteration: None };
            let app = SkeletonApp::generate(&cfg, &mut SimRng::new(seed)).unwrap();
            let cp = app.critical_path();
            prop_assert!(cp <= app.total_work());
            let longest = app.tasks().iter().map(|t| t.duration)
                .fold(SimDuration::ZERO, SimDuration::max);
            prop_assert!(cp >= longest);
        }
    }
}
