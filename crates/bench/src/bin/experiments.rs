//! Regenerate the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! experiments -- <command> [--reps N] [--seed S] [--quick] [--jobs N]
//!
//! commands:
//!   table1              print the experiment-design matrix (Table I)
//!   fig2                TTC comparison of experiments 1-4 (Figure 2)
//!   fig3                TTC decomposition per experiment (Figure 3 a-d)
//!   fig4                TTC error bars, exp 1 vs exp 3 (Figure 4 a-b)
//!   ablation-pilots     late-binding pilot-count sweep (1..5)
//!   ablation-sched      backfill vs round-robin under late binding
//!   ablation-select     bundle-ranked vs random resource selection
//!   ablation-data       data-heavy regime: input size sweep until Ts dominates
//!   ablation-crossover  long tasks: where early binding becomes competitive
//!   ablation-throughput tasks/hour under each strategy
//!   ablation-hetero     heterogeneous task-duration mixes
//!   ablation-adaptive   static vs adaptive strategy on a poor initial choice
//!   ablation-walltime   under/over-requested pilot walltimes, backfill vs
//!                       round robin
//!   ablation-queue      normal vs debug submission queue
//!   ablation-predictor  queue-wait predictors scored against realized waits
//!   ablation-faults     failure-rate sweep: self-healing cost & payoff
//!   ablation-detection  failure-detector tuning: Td vs oracle recovery
//!   ablation-info       degraded-information arms: oracle / streaming /
//!                       degraded / blackout, with fallback-ladder counters
//!   ablation-cascade    correlated-failure domains: reactive vs proactive
//!                       evacuation vs evacuation + checkpointed salvage
//!   telemetry           one instrumented experiment-1 run; see --emit-metrics
//!   profile             engine self-profile: sequential experiment-1 runs
//!                       under one shared profiler; prints the self-time
//!                       table and writes an aimes-profile-v1 document
//!   journal             run a named scenario, write its journal JSONL (--scenario, --out)
//!   analyze             post-mortem analysis of a journal: timelines, TTC closure,
//!                       critical path, stragglers; exits nonzero on closure failure
//!   analytics-diff      compare two analyses (or journals) component-by-component;
//!                       exits nonzero past --threshold
//!   campaign-report     cross-run analysis of a --campaign-out manifest:
//!                       per-arm TTC percentiles, Tukey-fence straggler runs,
//!                       failure taxonomy table, pool utilization
//!   all                 everything above
//! ```
//!
//! `--quick` restricts sizes to {8, 64, 512} and 3 repetitions for a fast
//! shape check.
//!
//! Every multi-run command opens one campaign: its (arm × rep) runs fan
//! out through one sweep driver. The figures and `ablation-pilots`,
//! `-sched`, `-select` and `-throughput` make one arm per (experiment,
//! size) of Table I's experiment configurations, seeded as
//! `run_experiment` seeds them; the other sweeps build their own arms.
//! Two ablations stay outside the driver: `ablation-adaptive` runs its own
//! runner and `ablation-predictor` runs no middleware. `--jobs N` caps the
//! worker pool (default: all cores; every run owns its seed and results
//! aggregate in job order, so output is byte-identical at any worker
//! count). `--fail-on-error` makes a campaign exit non-zero if a gated run
//! fails — every arm except `ablation-faults`' unhealed one and all of
//! `ablation-walltime`, whose failures are their result — the chaos-smoke
//! CI gate; `--dump-dir DIR` leaves flight-recorder snapshots of failed
//! runs there.
//!
//! Campaign observability, for one campaign at a time (any other command,
//! `all` included, exits 2 on these flags; `profile` writes its own
//! document to `--profile-out`): `--campaign-out PATH` writes a
//! `campaign.jsonl` manifest with one record per run (arm, rep, seed,
//! outcome, TTC components, recovery counters, error taxonomy),
//! canonicalized to job order on close so it is byte-identical at any
//! `--jobs`. `--campaign-timing` additionally records volatile wall-clock
//! fields (worker index, per-phase wall split, a pool record) — useful,
//! but worker-count dependent. `--progress` draws an opt-in live status
//! line on stderr. `--profile-out PATH` attaches a per-run engine
//! profiler to every run of the campaign and writes the merged
//! `aimes-profile-v1` document — scope counts and engine counters
//! always, host timing and allocator sections only with
//! `--campaign-timing`, so the default document is byte-identical at any
//! `--jobs`.
//!
//! `telemetry` runs experiment 1 once at the given seed with the typed
//! telemetry layer on and prints the metrics summary block.
//! `--emit-metrics <dir>` additionally writes `trace.json` (Chrome
//! trace-event format — load it at <https://ui.perfetto.dev>),
//! `metrics.json` (the summary), and `metrics.csv` (gauge timelines);
//! `--trace-out <path>` streams the full event trace as JSON.

use aimes::experiment::{
    run_campaign, CampaignJob, ExperimentConfig, ExperimentPoint, ExperimentResult, JobOutcome,
};
use aimes::middleware::{run_application, RunError, RunOptions, RunResult};
use aimes::paper;
use aimes::profile;
use aimes::report::{self, table};
use aimes::stats::Summary;
use aimes_bench::alloc::CountingAlloc;
use aimes_bench::observatory::{write_profile, CampaignFlags, Observatory, Stopwatch};
use aimes_bench::{flag_parse, flag_value};
use aimes_sim::{EngineStats, Profiler, SimRng, SimTime};
use aimes_skeleton::{bag_of_tasks, SkeletonConfig, TaskDurationSpec};
use aimes_strategy::ExecutionStrategy;
use aimes_workload::Distribution;
use std::collections::BTreeMap;

/// Heap accounting for profile documents: every allocation in this
/// binary is counted (per-thread sharded relaxed atomics; the peak is
/// `VmHWM`).
#[global_allocator]
static GLOBAL_ALLOC: CountingAlloc = CountingAlloc;

struct Options {
    reps: usize,
    seed: u64,
    quick: bool,
    fail_on_error: bool,
    emit_metrics: Option<std::path::PathBuf>,
    trace_out: Option<std::path::PathBuf>,
    /// Scenario name for `journal` (see `aimes_bench::scenarios::NAMES`).
    scenario: String,
    /// Output path for `journal` / `analyze`.
    out: Option<std::path::PathBuf>,
    /// Closure epsilon for `analyze`.
    epsilon: f64,
    /// Relative regression threshold for `analytics-diff`.
    threshold: f64,
    /// Positional file arguments after the command (journal/analysis
    /// paths for `analyze` and `analytics-diff`).
    files: Vec<std::path::PathBuf>,
    /// Flight-recorder dump directory for the campaigns: failed runs
    /// leave checksummed post-mortem snapshots here for CI to collect as
    /// artifacts.
    dump_dir: Option<std::path::PathBuf>,
    /// Worker-pool size for the campaigns (default: all cores).
    jobs: Option<usize>,
    /// Campaign observability for the campaigns. Its `--profile-out` is
    /// also where the `profile` command writes its document instead of
    /// stdout.
    campaign: CampaignFlags,
}

const USAGE: &str = "commands: table1 | fig2 | fig3 | fig4 | ablation-pilots | \
     ablation-sched | ablation-select | ablation-data | \
     ablation-crossover | ablation-throughput | ablation-hetero | \n\
     ablation-adaptive | ablation-walltime | ablation-queue | \n\
     ablation-predictor | ablation-faults | ablation-detection | \n\
     ablation-info | ablation-cascade | telemetry | profile | journal | analyze | \n\
     analytics-diff | campaign-report | all\n\
     flags: --reps N --seed S --quick --jobs N --fail-on-error \
     --emit-metrics DIR --trace-out PATH --dump-dir DIR\n\
     campaign flags (one sweep): --campaign-out PATH --campaign-timing --progress \
     --profile-out PATH\n\
     journal flags: --scenario exp1|exp4|faulty --out PATH\n\
     analyze: <journal.jsonl> --epsilon E --out report.json\n\
     analytics-diff: <run-a> <run-b> --threshold T\n\
     campaign-report: <campaign.jsonl>";

/// A command's entry point.
type Command = fn(&Options);

/// Every command, and whether it runs one campaign through [`sweep`] (and
/// so takes the campaign flags). Two multi-run ablations stay outside
/// the driver: `ablation-adaptive` runs `run_adaptive`, its own runner,
/// which `run_campaign` could only take as a second runner behind a
/// branch; `ablation-predictor` runs no middleware.
const COMMANDS: [(&str, Command, bool); 27] = [
    ("table1", table1, false),
    ("fig2", |o| figure(o, "fig2", &[1, 2, 3, 4], fig2), true),
    ("fig3", |o| figure(o, "fig3", &[1, 2, 3, 4], fig3), true),
    ("fig4", |o| figure(o, "fig4", &[1, 3], fig4), true),
    ("ablation-pilots", ablation_pilots, true),
    ("ablation-sched", ablation_sched, true),
    ("ablation-select", ablation_select, true),
    ("ablation-data", ablation_data, true),
    ("ablation-crossover", ablation_crossover, true),
    ("ablation-throughput", ablation_throughput, true),
    ("ablation-hetero", ablation_hetero, true),
    ("ablation-adaptive", ablation_adaptive, false),
    ("ablation-walltime", ablation_walltime, true),
    ("ablation-queue", ablation_queue, true),
    ("ablation-predictor", ablation_predictor, false),
    ("ablation-faults", ablation_faults, true),
    ("ablation-detection", ablation_detection, true),
    ("ablation-info", ablation_info, true),
    ("ablation-cascade", ablation_cascade, true),
    ("telemetry", telemetry_run, false),
    ("profile", profile_cmd, false),
    ("journal", journal_cmd, false),
    ("analyze", analyze_cmd, false),
    ("analytics-diff", analytics_diff_cmd, false),
    ("campaign-report", campaign_report_cmd, false),
    ("all", all, false),
    ("help", |_| println!("{USAGE}"), false),
];

fn parse_args(args: Vec<String>) -> (String, Options) {
    let mut command = String::from("help");
    let mut opts = Options {
        reps: aimes_bench::DEFAULT_REPETITIONS,
        seed: 20160523, // IPDPS 2016 opening day
        quick: false,
        fail_on_error: false,
        emit_metrics: None,
        trace_out: None,
        scenario: "exp1".into(),
        out: None,
        epsilon: aimes_analytics::DEFAULT_EPSILON_SECS,
        threshold: 0.10,
        files: Vec::new(),
        dump_dir: None,
        jobs: None,
        campaign: CampaignFlags::default(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--reps" => opts.reps = flag_parse(&args, &mut i),
            "--seed" => opts.seed = flag_parse(&args, &mut i),
            "--quick" => opts.quick = true,
            "--fail-on-error" => opts.fail_on_error = true,
            "--emit-metrics" => opts.emit_metrics = Some(flag_value(&args, &mut i).into()),
            "--trace-out" => opts.trace_out = Some(flag_value(&args, &mut i).into()),
            "--scenario" => opts.scenario = flag_value(&args, &mut i).into(),
            "--out" => opts.out = Some(flag_value(&args, &mut i).into()),
            "--epsilon" => opts.epsilon = flag_parse(&args, &mut i),
            "--threshold" => opts.threshold = flag_parse(&args, &mut i),
            "--dump-dir" => opts.dump_dir = Some(flag_value(&args, &mut i).into()),
            "--jobs" => opts.jobs = Some(flag_parse(&args, &mut i)),
            _ if opts.campaign.parse(&args, &mut i) => {}
            c if !c.starts_with("--") => {
                if command == "help" {
                    command = c.to_string();
                } else {
                    opts.files.push(c.into());
                }
            }
            other => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if opts.reps == 0 {
        eprintln!("`--reps` must be at least 1");
        std::process::exit(2);
    }
    // Campaign flags describe one campaign: on any other command they
    // would be ignored, or under `all` recreate the manifest once per
    // campaign. `profile` writes its own document to `--profile-out`.
    let c = &opts.campaign;
    let profile_out = c.profile_out.is_some() && command != "profile";
    let stray = [
        ("--campaign-out", c.campaign_out.is_some()),
        ("--campaign-timing", c.campaign_timing),
        ("--progress", c.progress),
        ("--profile-out", profile_out),
    ];
    let runs_campaign = COMMANDS
        .iter()
        .any(|&(name, _, campaign)| campaign && name == command);
    if let Some((flag, _)) = stray.iter().find(|(_, set)| *set && !runs_campaign) {
        eprintln!("`{flag}` needs a command that runs one sweep; `{command}` does not");
        std::process::exit(2);
    }
    if opts.quick {
        opts.reps = opts.reps.min(3);
    }
    (command, opts)
}

fn sizes(opts: &Options) -> Option<Vec<u32>> {
    opts.quick.then(aimes_bench::quick_sizes)
}

/// One repetition's run options: its own seed (§IV-A: every repetition
/// faces its own background load) and a submission instant drawn from it,
/// 4-16 h into the simulation. Arms that share a `key` share both, so
/// they are compared paired.
fn run_options(opts: &Options, key: &str, rep: usize) -> RunOptions {
    let seed = SimRng::new(opts.seed)
        .fork_indexed(key, rep as u64)
        .root_seed();
    let mut rng = SimRng::new(seed).fork("submit");
    RunOptions {
        seed,
        submit_at: SimTime::from_secs(rng.uniform(4.0, 16.0) * 3600.0),
        ..Default::default()
    }
}

/// A bag of `n_tasks` single-core tasks of `secs` each, reading
/// `input_mb` and writing 0.002 MB per task.
fn bag(name: &str, n_tasks: u32, secs: f64, input_mb: f64) -> SkeletonConfig {
    bag_of_tasks(
        name,
        n_tasks,
        Distribution::Constant { value: secs },
        input_mb,
        0.002,
    )
}

/// Idle 4,096-core test machines: no background load, so queue waits
/// stay out of what the sweep measures.
fn idle_pool(names: &[&str]) -> Vec<aimes_cluster::ClusterConfig> {
    names
        .iter()
        .map(|n| aimes_cluster::ClusterConfig::test(n, 4096))
        .collect()
}

fn table1(_: &Options) {
    println!("## Table I — skeleton applications and execution strategies\n");
    let cell = |i: usize| move |row: &[String; 8]| row[i].clone();
    println!(
        "{}",
        table(
            &paper::table1_rows(),
            &[
                ("Experiment", &cell(0)),
                ("#Tasks", &cell(1)),
                ("Task duration", &cell(2)),
                ("Binding", &cell(3)),
                ("Scheduler", &cell(4)),
                ("#Pilots", &cell(5)),
                ("Pilot size", &cell(6)),
                ("Pilot walltime", &cell(7)),
            ]
        )
    );
}

/// Experiments as one campaign named `name`: one arm per (experiment,
/// size), each run seeded as `run_experiment` seeds it. Results come back
/// in `configs` order, with the failure count for [`exit_on_failures`].
fn run_experiments(
    opts: &Options,
    name: &str,
    configs: &[ExperimentConfig],
) -> (Vec<ExperimentResult>, usize) {
    let arms: Vec<(&ExperimentConfig, u32, SkeletonConfig)> = configs
        .iter()
        .flat_map(|cfg| cfg.arms().into_iter().map(move |(n, app)| (cfg, n, app)))
        .collect();
    let (outcomes, failures) = sweep(
        opts,
        name,
        &arms,
        |_| true,
        |(cfg, n, app), rep| cfg.job(*n, app, rep),
        |r, _| r,
    );
    let mut outcomes = outcomes.into_iter();
    let results = configs
        .iter()
        .map(|cfg| cfg.result(outcomes.by_ref().take(cfg.task_counts.len())))
        .collect();
    (results, failures)
}

/// Every point of `results`, keyed by the arm key of its experiment.
fn keyed_points<K: Copy>(
    keys: impl IntoIterator<Item = K>,
    results: &[ExperimentResult],
) -> Vec<(K, &ExperimentPoint)> {
    keys.into_iter()
        .zip(results)
        .flat_map(|(key, r)| r.points.iter().map(move |p| (key, p)))
        .collect()
}

/// Table I's experiments `ids` at the figure sizes.
fn paper_experiments(opts: &Options, ids: &[u32]) -> Vec<ExperimentConfig> {
    ids.iter()
        .map(|&id| paper::experiment(id, opts.reps, opts.seed, sizes(opts)))
        .collect()
}

/// One figure command: Table I's experiments `ids` as one campaign,
/// rendered by `render`, then the shared `--fail-on-error` exit.
fn figure(opts: &Options, name: &str, ids: &[u32], render: fn(&[&ExperimentResult])) {
    let (results, failures) = run_experiments(opts, name, &paper_experiments(opts, ids));
    render(&results.iter().collect::<Vec<_>>());
    exit_on_failures(opts, name, failures);
}

/// Figure 2 from experiments 1-4.
fn fig2(results: &[&ExperimentResult]) {
    println!("## Figure 2 — TTC comparison, experiments 1-4\n");
    println!("{}", report::fig2_table(results));
    println!("```\n{}```\n", report::fig2_chart(results));
    println!("### CSV\n```\n{}```", report::csv_export(results));
}

/// Figure 3's four panels from experiments 1-4.
fn fig3(results: &[&ExperimentResult]) {
    println!("## Figure 3 — TTC decomposition (Tw, Tx, Ts) per experiment\n");
    for (panel, r) in ["(a)", "(b)", "(c)", "(d)"].iter().zip(results) {
        println!("### {panel} {}", report::fig3_table(r));
    }
}

/// Figure 4's two panels from experiments 1 and 3.
fn fig4(results: &[&ExperimentResult]) {
    println!("## Figure 4 — TTC error bars: early (a) vs late (b)\n");
    for (panel, r) in ["(a)", "(b)"].iter().zip(results) {
        println!("### {panel} {}", report::fig4_table(r));
    }
}

fn ablation_pilots(opts: &Options) {
    println!("## Ablation — late-binding pilot-count sweep\n");
    let configs: Vec<_> = (1..=5)
        .map(|k| paper::pilot_count_ablation(k, opts.reps, opts.seed, sizes(opts)))
        .collect();
    let (results, failures) = run_experiments(opts, "ablation-pilots", &configs);
    println!(
        "{}",
        table(
            &keyed_points(1..=5u32, &results),
            &[
                ("#Pilots", &|(k, _)| k.to_string()),
                ("#Tasks", &|(_, p)| p.n_tasks.to_string()),
                ("TTC mean(s)", &|(_, p)| format!("{:.0}", p.ttc.mean)),
                ("TTC stdev", &|(_, p)| format!("{:.0}", p.ttc.stdev)),
                ("Tw mean(s)", &|(_, p)| format!("{:.0}", p.tw.mean)),
                ("Tw stdev", &|(_, p)| format!("{:.0}", p.tw.stdev)),
            ]
        )
    );
    exit_on_failures(opts, "ablation-pilots", failures);
}

fn ablation_sched(opts: &Options) {
    println!("## Ablation — late-binding scheduler: backfill vs round robin\n");
    let arms = [("backfill", true), ("round-robin", false)];
    let configs = arms.map(|(_, backfill)| {
        paper::scheduler_ablation(backfill, opts.reps, opts.seed, sizes(opts))
    });
    let (results, failures) = run_experiments(opts, "ablation-sched", &configs);
    println!(
        "{}",
        table(
            &keyed_points(arms.map(|(label, _)| label), &results),
            &[
                ("Scheduler", &|(label, _)| label.to_string()),
                ("#Tasks", &|(_, p)| p.n_tasks.to_string()),
                ("TTC mean(s)", &|(_, p)| format!("{:.0}", p.ttc.mean)),
                ("TTC stdev", &|(_, p)| format!("{:.0}", p.ttc.stdev)),
                ("mean restarts/run", &|(_, p)| {
                    let restarts: f64 = p.runs.iter().map(|x| x.restarts as f64).sum();
                    format!("{:.1}", restarts / p.runs.len().max(1) as f64)
                }),
            ]
        )
    );
    exit_on_failures(opts, "ablation-sched", failures);
}

fn ablation_select(opts: &Options) {
    println!("## Ablation — resource selection: bundle-ranked vs random\n");
    let arms = [("random", false), ("ranked-by-wait", true)];
    let configs = arms
        .map(|(_, ranked)| paper::selection_ablation(ranked, opts.reps, opts.seed, sizes(opts)));
    let (results, failures) = run_experiments(opts, "ablation-select", &configs);
    println!(
        "{}",
        table(
            &keyed_points(arms.map(|(label, _)| label), &results),
            &[
                ("Selection", &|(label, _)| label.to_string()),
                ("#Tasks", &|(_, p)| p.n_tasks.to_string()),
                ("TTC mean(s)", &|(_, p)| format!("{:.0}", p.ttc.mean)),
                ("Tw mean(s)", &|(_, p)| format!("{:.0}", p.tw.mean)),
                ("Tw stdev", &|(_, p)| format!("{:.0}", p.tw.stdev)),
            ]
        )
    );
    exit_on_failures(opts, "ablation-select", failures);
}

/// Per-task input sizes of the data-heavy sweep, in MB.
const DATA_INPUT_MB: [f64; 4] = [1.0, 10.0, 50.0, 200.0];

/// One data-sweep repetition's run options: each input size keys its
/// own stream, so no two runs share a seed.
fn data_run_options(opts: &Options, input_mb: f64, rep: usize) -> RunOptions {
    run_options(opts, &format!("data-{input_mb}"), rep)
}

/// Data-heavy regime: grow per-task input until Ts dominates TTC
/// (§IV-B: "Larger amounts of data could make Ts dominant").
fn ablation_data(opts: &Options) {
    println!("## Ablation — data-heavy regime: per-task input size sweep\n");
    let n_tasks = if opts.quick { 64 } else { 256 };
    let testbed = paper::testbed();
    let strategy = paper::late_strategy(3);
    let arms = DATA_INPUT_MB.map(|mb| (mb, bag(&format!("data-{mb}"), n_tasks, 900.0, mb)));
    let (outcomes, failures) = sweep(
        opts,
        "ablation-data",
        &arms,
        |_| true,
        |(input_mb, app), rep| CampaignJob {
            arm: format!("{input_mb}MB"),
            resources: &testbed,
            app,
            strategy: &strategy,
            options: data_run_options(opts, *input_mb, rep),
        },
        |r, _| {
            let ttc = r.breakdown.ttc.as_secs();
            (ttc, r.breakdown.ts.as_secs() / ttc)
        },
    );
    let rows: Vec<(f64, Vec<&(f64, f64)>)> = arms
        .iter()
        .zip(&outcomes)
        .map(|((input_mb, _), runs)| (*input_mb, completed(runs)))
        .collect();
    let mean = |done: &[&(f64, f64)], f: fn(&(f64, f64)) -> f64| {
        summary_of(done, f).expect("runs succeeded").mean
    };
    println!(
        "{}",
        table(
            &rows,
            &[
                ("Input MB/task", &|(mb, _)| format!("{mb:.0}")),
                ("TTC mean(s)", &|(_, done)| format!(
                    "{:.0}",
                    mean(done, |r| r.0)
                )),
                ("Ts fraction of TTC", &|(_, done)| {
                    format!("{:.2}", mean(done, |r| r.1))
                }),
            ]
        )
    );
    exit_on_failures(opts, "ablation-data", failures);
}

/// Long-task crossover: with Tx ≫ Tw, early binding's bigger pilot wins
/// back (§IV-B: "early binding would still be desirable for applications
/// with a duration of Tx long enough...").
fn ablation_crossover(opts: &Options) {
    println!("## Ablation — task-duration crossover: early vs late binding\n");
    let n_tasks = if opts.quick { 64 } else { 256 };
    let testbed = paper::testbed();
    let arms: Vec<(f64, &str, ExecutionStrategy, SkeletonConfig)> = [15.0, 60.0, 240.0]
        .into_iter()
        .flat_map(|mins: f64| {
            let app = bag(&format!("cross-{mins}"), n_tasks, mins * 60.0, 1.0);
            [
                ("early-1p", paper::early_strategy()),
                ("late-3p", paper::late_strategy(3)),
            ]
            .map(|(label, strategy)| (mins, label, strategy, app.clone()))
        })
        .collect();
    let (outcomes, failures) = sweep(
        opts,
        "ablation-crossover",
        &arms,
        |_| true,
        |(task_mins, label, strategy, app), rep| CampaignJob {
            arm: format!("{task_mins}m/{label}"),
            resources: &testbed,
            app,
            strategy,
            options: run_options(opts, &format!("crossover-{label}-{task_mins}"), rep),
        },
        |r, _| r.breakdown.ttc.as_secs(),
    );
    let rows: Vec<(f64, &str, Summary)> = arms
        .iter()
        .zip(&outcomes)
        .filter_map(|((task_mins, label, _, _), runs)| {
            summary_of(&completed(runs), |&ttc| ttc).map(|s| (*task_mins, *label, s))
        })
        .collect();
    println!(
        "{}",
        table(
            &rows,
            &[
                ("Task mins", &|(mins, _, _)| format!("{mins:.0}")),
                ("Strategy", &|(_, label, _)| label.to_string()),
                ("TTC mean(s)", &|(_, _, s)| format!("{:.0}", s.mean)),
                ("TTC stdev", &|(_, _, s)| format!("{:.0}", s.stdev)),
                ("runs", &|(_, _, s)| s.n.to_string()),
            ]
        )
    );
    exit_on_failures(opts, "ablation-crossover", failures);
}

/// Throughput metric (§V: "generalizing to investigate different metrics
/// including throughput").
fn ablation_throughput(opts: &Options) {
    println!("## Ablation — throughput (tasks/hour) per strategy\n");
    let sizes = sizes(opts).unwrap_or_else(|| vec![256, 1024]);
    let configs: Vec<_> = (1..=4)
        .map(|id| paper::experiment(id, opts.reps, opts.seed, Some(sizes.clone())))
        .collect();
    let (results, failures) = run_experiments(opts, "ablation-throughput", &configs);
    // Per completed point: tasks/hour and allocation efficiency.
    let rows: Vec<(&str, u32, Summary, Summary)> = results
        .iter()
        .flat_map(|r| r.points.iter().map(move |p| (r.id.as_str(), p)))
        .filter(|(_, p)| p.ttc.n > 0)
        .map(|(id, p)| {
            let tput: Vec<f64> = p
                .runs
                .iter()
                .map(|x| f64::from(x.n_tasks) / (x.breakdown.ttc.as_secs() / 3600.0))
                .collect();
            let eff: Vec<f64> = p.runs.iter().map(|x| x.allocation_efficiency()).collect();
            let of = |v: &[f64]| Summary::of(v).expect("non-empty");
            (id, p.n_tasks, of(&tput), of(&eff))
        })
        .collect();
    println!(
        "{}",
        table(
            &rows,
            &[
                ("Experiment", &|(id, ..)| id.to_string()),
                ("#Tasks", &|(_, n, ..)| n.to_string()),
                ("tasks/hour mean", &|(_, _, s, _)| format!("{:.0}", s.mean)),
                ("stdev", &|(_, _, s, _)| format!("{:.0}", s.stdev)),
                ("alloc efficiency", &|(.., e)| format!("{:.2}", e.mean)),
            ]
        )
    );
    exit_on_failures(opts, "ablation-throughput", failures);
}

/// Heterogeneous task sizes (§V: "distributed applications comprised of
/// non-uniform task sizes").
fn ablation_hetero(opts: &Options) {
    println!("## Ablation — heterogeneous task-duration mixes (late, 3 pilots)\n");
    let n_tasks = if opts.quick { 64 } else { 256 };
    let testbed = paper::testbed();
    let strategy = paper::late_strategy(3);
    let arms = [
        ("constant-15m", Distribution::Constant { value: 900.0 }),
        (
            "gaussian",
            Distribution::truncated_gaussian(900.0, 300.0, 60.0, 1800.0),
        ),
        (
            "bimodal-short-long",
            Distribution::Mixture {
                p: 0.8,
                a: Box::new(Distribution::Constant { value: 300.0 }),
                b: Box::new(Distribution::Constant { value: 3600.0 }),
            },
        ),
        (
            "lognormal-heavy-tail",
            Distribution::LogNormal {
                mu: 6.5,
                sigma: 0.8,
            },
        ),
    ]
    .map(|(label, dist)| {
        let app = bag_of_tasks(&format!("hetero-{label}"), n_tasks, dist, 1.0, 0.002);
        (label, app)
    });
    let (outcomes, failures) = sweep(
        opts,
        "ablation-hetero",
        &arms,
        |_| true,
        |(label, app), rep| CampaignJob {
            arm: label.to_string(),
            resources: &testbed,
            app,
            strategy: &strategy,
            options: run_options(opts, &format!("hetero-{label}"), rep),
        },
        |r, _| r.breakdown.ttc.as_secs(),
    );
    let rows: Vec<(&str, Summary)> = arms
        .iter()
        .zip(&outcomes)
        .filter_map(|((label, _), runs)| {
            summary_of(&completed(runs), |&ttc| ttc).map(|s| (*label, s))
        })
        .collect();
    println!(
        "{}",
        table(
            &rows,
            &[
                ("Duration mix", &|(label, _)| label.to_string()),
                ("TTC mean(s)", &|(_, s)| format!("{:.0}", s.mean)),
                ("TTC stdev", &|(_, s)| format!("{:.0}", s.stdev)),
                ("runs", &|(_, s)| s.n.to_string()),
            ]
        )
    );
    exit_on_failures(opts, "ablation-hetero", failures);
}

/// Adaptive vs static execution on a deliberately poor initial choice
/// (§V: dynamic execution). `run_adaptive` is its own runner, so this
/// ablation keeps its own loop instead of the campaign driver.
fn ablation_adaptive(opts: &Options) {
    use aimes::adaptive::{run_adaptive, AdaptiveConfig};
    use aimes_strategy::{PilotSizing, ResourceSelection};
    println!("## Ablation — dynamic execution: static vs adaptive strategy\n");
    let n_tasks = if opts.quick { 64 } else { 256 };
    let app = bag("adaptive", n_tasks, 900.0, 1.0);
    let mut base = ExecutionStrategy::paper_late(2);
    base.pilot_count = 1;
    base.sizing = PilotSizing::Fixed(n_tasks);
    base.selection = ResourceSelection::Fixed(vec!["hopper".into()]);
    let mut rows = Vec::new();
    for (label, adaptive) in [("static-pinned", false), ("adaptive", true)] {
        let mut ttcs = Vec::new();
        let mut rescued = 0usize;
        for rep in 0..opts.reps {
            // Paired seeds: both modes face the same background load and
            // submission instant.
            let run_opts = run_options(opts, "adaptive-pair", rep);
            if adaptive {
                let cfg = AdaptiveConfig {
                    base: base.clone(),
                    patience: aimes_sim::SimDuration::from_mins(20.0),
                    reinforce_by: 1,
                    max_rounds: 3,
                };
                if let Ok(r) = run_adaptive(&paper::testbed(), &app, &cfg, &run_opts) {
                    ttcs.push(r.breakdown.ttc.as_secs());
                    if r.reinforcement_rounds > 0 {
                        rescued += 1;
                    }
                }
            } else if let Ok(r) = run_application(&paper::testbed(), &app, &base, &run_opts) {
                ttcs.push(r.breakdown.ttc.as_secs());
            }
        }
        if let Some(s) = Summary::of(&ttcs) {
            rows.push((label, s, rescued));
        }
    }
    println!(
        "{}",
        table(
            &rows,
            &[
                ("Mode", &|(label, ..)| label.to_string()),
                ("TTC mean(s)", &|(_, s, _)| format!("{:.0}", s.mean)),
                ("stdev", &|(_, s, _)| format!("{:.0}", s.stdev)),
                ("max", &|(_, s, _)| format!("{:.0}", s.max)),
                ("runs reinforced", &|(.., rescued)| rescued.to_string()),
                ("runs", &|(_, s, _)| s.n.to_string()),
            ]
        )
    );
}

/// Walltime-sensitivity: explicitly under/over-requested pilot walltimes
/// (FixedSecs) under backfill vs round robin. No arm is gated: pilots a
/// short walltime drains are this ablation's result, counted in its
/// "degraded/failed" column.
fn ablation_walltime(opts: &Options) {
    use aimes_pilot::UnitScheduler;
    use aimes_strategy::{PilotSizing, WalltimePolicy};
    println!("## Ablation — walltime sensitivity (late binding, 2 pilots)\n");
    let n_tasks = if opts.quick { 32 } else { 64 };
    // 2 pilots x (n/4) cores → 2 waves of 900 s each per pilot, ~1900 s
    // needed; sweep the requested walltime across that boundary. An idle
    // pool isolates the walltime effect from queue-wait noise.
    let pool = idle_pool(&["wa", "wb", "wc"]);
    let app = bag("walltime", n_tasks, 900.0, 1.0);
    let arms: Vec<(u64, UnitScheduler, ExecutionStrategy)> = [1000u64, 2000, 4000, 8000]
        .into_iter()
        .flat_map(|secs| {
            [UnitScheduler::Backfill, UnitScheduler::RoundRobin].map(|scheduler| {
                let mut strategy = paper::late_strategy(2);
                strategy.scheduler = scheduler;
                strategy.sizing = PilotSizing::Fixed(n_tasks / 4);
                strategy.walltime = WalltimePolicy::FixedSecs(secs);
                (secs, scheduler, strategy)
            })
        })
        .collect();
    let (outcomes, _) = sweep(
        opts,
        "ablation-walltime",
        &arms,
        |_| false,
        |(secs, scheduler, strategy), rep| CampaignJob {
            arm: format!("{secs}/{scheduler:?}"),
            resources: &pool,
            app: &app,
            strategy,
            options: run_options(opts, &format!("walltime-{secs}-{scheduler:?}"), rep),
        },
        |r, _| (r.breakdown.ttc.as_secs(), r.restarts, r.units_failed > 0),
    );
    // Per arm: the TTC of its completed runs, its failed or degraded
    // runs, and its unit restarts.
    let rows: Vec<(u64, UnitScheduler, Option<Summary>, usize, u64)> = arms
        .iter()
        .zip(&outcomes)
        .map(|((secs, scheduler, _), runs)| {
            let done = completed(runs);
            let degraded = done.iter().filter(|r| r.2).count();
            let restarts = done.iter().map(|r| r.1).sum();
            let ttc = summary_of(&done, |r| r.0);
            (
                *secs,
                *scheduler,
                ttc,
                runs.len() - done.len() + degraded,
                restarts,
            )
        })
        .collect();
    println!(
        "{}",
        table(
            &rows,
            &[
                ("Walltime(s)", &|(secs, ..)| secs.to_string()),
                ("Scheduler", &|(_, scheduler, ..)| format!("{scheduler:?}")),
                ("TTC mean(s)", &|(_, _, ttc, ..)| {
                    ttc.map_or("-".into(), |s| format!("{:.0}", s.mean))
                }),
                ("ok runs", &|(_, _, ttc, ..)| ttc
                    .map_or(0, |s| s.n)
                    .to_string()),
                ("degraded/failed", &|(.., failed, _)| failed.to_string()),
                ("restarts", &|(.., restarts)| restarts.to_string()),
            ]
        )
    );
}

/// Debug-queue ablation: small short pilots routed to the testbed's
/// high-priority debug queues vs the normal queues — the classic pilot
/// trick of exploiting queue structure (enabled by the Bundle knowing the
/// queue composition).
fn ablation_queue(opts: &Options) {
    println!("## Ablation — submission queue: normal vs debug (5-min tasks)\n");
    let n_tasks = if opts.quick { 16 } else { 48 };
    let testbed = paper::testbed();
    // 5-minute tasks keep the late-3p walltime under the 30-min debug
    // ceiling; the pilots are small enough for the debug core caps.
    let app = bag("queue", n_tasks, 300.0, 1.0);
    let arms = [None, Some("debug")].map(|queue| {
        let mut strategy = paper::late_strategy(3);
        strategy.queue = queue.map(String::from);
        (queue.unwrap_or("normal"), strategy)
    });
    let (outcomes, failures) = sweep(
        opts,
        "ablation-queue",
        &arms,
        |_| true,
        |(queue, strategy), rep| CampaignJob {
            arm: queue.to_string(),
            resources: &testbed,
            app: &app,
            strategy,
            // Paired seeds across the two queue settings.
            options: run_options(opts, "queue-pair", rep),
        },
        |r, _| (r.breakdown.ttc.as_secs(), r.breakdown.tw.as_secs()),
    );
    let rows: Vec<(&str, Summary, Summary)> = arms
        .iter()
        .zip(&outcomes)
        .filter_map(|((queue, _), runs)| {
            let done = completed(runs);
            Some((
                *queue,
                summary_of(&done, |r| r.0)?,
                summary_of(&done, |r| r.1)?,
            ))
        })
        .collect();
    println!(
        "{}",
        table(
            &rows,
            &[
                ("Queue", &|(queue, ..)| queue.to_string()),
                ("TTC mean(s)", &|(_, t, _)| format!("{:.0}", t.mean)),
                ("TTC max", &|(_, t, _)| format!("{:.0}", t.max)),
                ("Tw mean(s)", &|(.., w)| format!("{:.0}", w.mean)),
                ("Tw max", &|(.., w)| format!("{:.0}", w.max)),
                ("runs", &|(_, t, _)| t.n.to_string()),
            ]
        )
    );
    exit_on_failures(opts, "ablation-queue", failures);
}

/// Fan a campaign's (arm × rep) jobs across the worker pool through the
/// shared campaign driver, under the observatory the campaign flags ask
/// for. Every run leaves its flight-recorder dumps in `--dump-dir`, tagged
/// `{name}-{arm}-r{rep}` because paired arms share seeds. Once the pool is
/// done, every failed run of an arm `gate` accepts prints the shared
/// failure line — with the same `arm=.. rep=.. seed=..` keys the
/// manifest's failure records carry — in job order; the count comes back
/// for [`exit_on_failures`].
fn sweep<'a, A: Sync, T: Send>(
    opts: &Options,
    name: &str,
    arms: &'a [A],
    gate: impl Fn(&A) -> bool,
    build: impl Fn(&'a A, usize) -> CampaignJob<'a> + Sync,
    project: impl Fn(RunResult, &RunOptions) -> T + Sync,
) -> (Vec<Vec<JobOutcome<T>>>, usize) {
    let obs = Observatory::open(&opts.campaign, name, opts.seed, arms.len() * opts.reps);
    let build = |arm, rep| {
        let mut job = build(arm, rep);
        job.options.recorder_dump_dir = opts.dump_dir.clone();
        job.options.run_tag = Some(format!("{name}-{}-r{rep}", job.arm));
        job
    };
    let outcomes = run_campaign(obs.hooks(), name, arms, opts.reps, build, project);
    obs.close();
    let mut failures = 0;
    for (arm, runs) in arms.iter().zip(&outcomes) {
        if !gate(arm) {
            continue;
        }
        for out in runs {
            if let Err(e) = &out.result {
                eprintln!(
                    "{name} arm failed: arm={} rep={} seed={}: {e}",
                    out.arm, out.rep, out.seed
                );
                failures += 1;
            }
        }
    }
    (outcomes, failures)
}

/// The shared `--fail-on-error` exit, taken after the campaign has
/// printed its table.
fn exit_on_failures(opts: &Options, label: &str, failures: usize) {
    if opts.fail_on_error && failures > 0 {
        eprintln!("{failures} {label} run(s) failed under --fail-on-error");
        std::process::exit(1);
    }
}

/// The completed runs of one arm, repetitions in order.
fn completed<T>(runs: &[JobOutcome<T>]) -> Vec<&T> {
    runs.iter().filter_map(|o| o.result.as_ref().ok()).collect()
}

/// Arithmetic mean, 0 for an empty slice.
fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// [`mean`] of `f` over `runs`.
fn mean_of<T>(runs: &[&T], f: impl Fn(&T) -> f64) -> f64 {
    mean(&runs.iter().map(|r| f(r)).collect::<Vec<_>>())
}

/// [`Summary`] of `f` over `runs`; `None` when no run completed.
fn summary_of<T>(runs: &[&T], f: impl Fn(&T) -> f64) -> Option<Summary> {
    Summary::of(&runs.iter().map(|r| f(r)).collect::<Vec<_>>())
}

/// One arm's failures by coarse class, for the sweeps' JSON points.
fn error_classes<T>(runs: &[JobOutcome<T>]) -> BTreeMap<String, usize> {
    let mut classes = BTreeMap::new();
    for out in runs {
        if let Err(e) = &out.result {
            let class = match e {
                RunError::PilotsDrained { .. } => "drained",
                RunError::ResourceLost { .. } => "lost",
                RunError::DeadlineExceeded { .. } => "deadline",
                _ => "other",
            };
            *classes.entry(class.to_string()).or_insert(0) += 1;
        }
    }
    classes
}

/// `{completed}/{reps}`, the "Completed" cell of the chaos sweeps.
fn completed_cell(completed: usize, reps: usize) -> String {
    format!("{completed}/{reps}")
}

/// A mean TTC cell: `-` when no run completed.
fn ttc_cell(completed: usize, ttc: f64) -> String {
    if completed == 0 {
        "-".into()
    } else {
        format!("{ttc:.0}")
    }
}

/// The `### JSON` block a sweep prints after its table, from the same
/// per-arm records the table renders.
fn print_json<P: serde::Serialize>(points: &[P]) {
    println!(
        "\n### JSON\n```json\n{}\n```",
        serde_json::to_string_pretty(points).expect("sweep points serialize")
    );
}

/// Fault sweep: failure rate on the x-axis, measuring what self-healing
/// costs and what it saves. Each rate drives both the per-unit fault
/// chance and the expected random-outage count per resource; every
/// schedule is replayed three ways — oracle recovery (reacts at the
/// injection instant), detection-driven recovery (reacts only to missed
/// heartbeats and tripped breakers), and no recovery. Emits the markdown
/// table plus a JSON block for downstream plotting, both from one record
/// per arm. With `--fail-on-error`, any failed run in a healing arm
/// (oracle or detect) exits non-zero — the chaos-smoke CI gate.
fn ablation_faults(opts: &Options) {
    use aimes_fault::{FaultSpec, RecoveryPolicy};

    #[derive(serde::Serialize)]
    struct SweepPoint {
        failure_rate: f64,
        recovery: String,
        reps: usize,
        completed: usize,
        ttc_mean_secs: f64,
        tr_mean_secs: f64,
        td_mean_secs: f64,
        wasted_core_hours_mean: f64,
        restarts: u64,
        replacements: u64,
        replans: u64,
        false_suspicions: u64,
        errors: BTreeMap<String, usize>,
    }

    println!("## Ablation — fault injection & self-healing (late binding, 2 pilots)\n");
    let n_tasks = if opts.quick { 32 } else { 64 };
    let pool = idle_pool(&["fa", "fb", "fc"]);
    let app = bag("faults", n_tasks, 900.0, 1.0);
    let mut strategy = paper::late_strategy(2);
    // A generous fixed walltime keeps pilot lifetime out of the picture:
    // fault-driven retries stretch runs well past the fault-free estimate,
    // and walltime underestimation is the walltime ablation's topic.
    strategy.walltime = aimes_strategy::WalltimePolicy::FixedSecs(6 * 3600);

    let arms: Vec<(f64, &str)> = [0.0, 0.05, 0.1, 0.2, 0.4]
        .into_iter()
        .flat_map(|rate| ["oracle", "detect", "off"].map(|mode| (rate, mode)))
        .collect();
    let (outcomes, healing_errors) = sweep(
        opts,
        "ablation-faults",
        &arms,
        // Only the healing arms must survive; the unhealed arm's failures
        // are its result.
        |&(_, mode)| mode != "off",
        |&(rate, mode), rep| {
            // Outages are placed inside the first hour after submission —
            // the window the run actually occupies — so the rate axis
            // genuinely exercises pilot death, not just unit faults.
            let faults = FaultSpec {
                unit_failure_chance: rate,
                random_outages_per_resource: 2.0 * rate,
                random_outage_duration_secs: (300.0, 900.0),
                horizon_secs: 3600.0,
                ..FaultSpec::none()
            };
            let recovery = match mode {
                "oracle" => Some(RecoveryPolicy::default()),
                "detect" => Some(RecoveryPolicy::with_detection()),
                _ => None,
            };
            CampaignJob {
                arm: format!("{rate:.2}/{mode}"),
                resources: &pool,
                app: &app,
                strategy: &strategy,
                options: RunOptions {
                    faults: Some(faults),
                    recovery,
                    // Same seed for all three recovery arms: identical
                    // fault schedules, the only difference is how the run
                    // heals.
                    ..run_options(opts, &format!("faults-{rate}"), rep)
                },
            }
        },
        |r, _| r,
    );

    let points: Vec<SweepPoint> = arms
        .iter()
        .zip(&outcomes)
        .map(|(&(rate, mode), runs)| {
            let done = completed(runs);
            let sum = |f: fn(&RunResult) -> u64| done.iter().map(|r| f(r)).sum();
            SweepPoint {
                failure_rate: rate,
                recovery: mode.to_string(),
                reps: opts.reps,
                completed: done.len(),
                ttc_mean_secs: mean_of(&done, |r| r.breakdown.ttc.as_secs()),
                tr_mean_secs: mean_of(&done, |r| r.breakdown.tr.as_secs()),
                td_mean_secs: mean_of(&done, |r| r.breakdown.td.as_secs()),
                wasted_core_hours_mean: mean_of(&done, |r| r.wasted_core_hours),
                restarts: sum(|r| r.restarts),
                replacements: sum(|r| r.replacements),
                replans: sum(|r| r.replans),
                false_suspicions: sum(|r| r.false_suspicions),
                errors: error_classes(runs),
            }
        })
        .collect();
    println!(
        "{}",
        table(
            &points,
            &[
                ("Rate", &|p| format!("{:.2}", p.failure_rate)),
                ("Recovery", &|p| p.recovery.clone()),
                ("Completed", &|p| completed_cell(p.completed, p.reps)),
                ("TTC mean(s)", &|p| ttc_cell(p.completed, p.ttc_mean_secs)),
                ("Tr mean(s)", &|p| format!("{:.0}", p.tr_mean_secs)),
                ("Td mean(s)", &|p| format!("{:.0}", p.td_mean_secs)),
                ("Wasted(ch)", &|p| format!(
                    "{:.2}",
                    p.wasted_core_hours_mean
                )),
                ("Restarts", &|p| p.restarts.to_string()),
                ("Replacements", &|p| p.replacements.to_string()),
                ("Replans", &|p| p.replans.to_string()),
                ("FalseSusp", &|p| p.false_suspicions.to_string()),
            ]
        )
    );
    print_json(&points);
    exit_on_failures(opts, "ablation-faults healing-arm", healing_errors);
}

/// Correlated-failure ablation: a two-domain pool where a permanent
/// trigger outage cascades across every resource the workload runs on,
/// replayed three ways on paired seeds — reactive detection-driven
/// recovery, proactive domain evacuation, and evacuation plus
/// checkpointed unit salvage. The evacuation lead time (first alarm to
/// first completed drain) is read back from the run journal through
/// the analytics reconstruction, not from the simulator's own counters.
/// With `--fail-on-error`, any failed run exits non-zero — the cascade
/// arm of the chaos-smoke CI gate.
fn ablation_cascade(opts: &Options) {
    use aimes_analytics::timeline::SessionTimelines;
    use aimes_fault::{
        CascadeSpec, DomainSpec, EvacuationSpec, FaultSpec, OutageKind, OutageSpec, RecoveryPolicy,
    };

    #[derive(serde::Serialize)]
    struct SweepPoint {
        arm: String,
        reps: usize,
        completed: usize,
        ttc_mean_secs: f64,
        wasted_core_hours_mean: f64,
        salvaged_core_hours_mean: f64,
        evacuation_lead_mean_secs: Option<f64>,
        domain_alarms: u64,
        evacuations: u64,
        checkpoints: u64,
        resumes: u64,
        errors: BTreeMap<String, usize>,
    }

    println!("## Ablation — correlated-failure domains: evacuation & checkpointed salvage\n");
    let n_tasks = if opts.quick { 16 } else { 32 };
    let pool = idle_pool(&["ca", "cb", "cc", "cd", "ce", "cf"]);
    let app = bag("cascade", n_tasks, 900.0, 1.0);
    // Pin all three pilots inside the doomed domain: the cascade takes
    // out the entire footprint, so survival hinges on the recovery arm.
    let mut strategy = ExecutionStrategy::paper_late(3);
    strategy.selection =
        aimes_strategy::ResourceSelection::Fixed(vec!["ca".into(), "cb".into(), "cc".into()]);
    strategy.walltime = aimes_strategy::WalltimePolicy::FixedSecs(6 * 3600);

    let faults = FaultSpec {
        cascade: Some(CascadeSpec {
            domains: vec![
                DomainSpec {
                    name: "zone-a".into(),
                    members: vec!["ca".into(), "cb".into(), "cc".into()],
                },
                DomainSpec {
                    name: "zone-b".into(),
                    members: vec!["cd".into(), "ce".into(), "cf".into()],
                },
            ],
            // Mid-execution: the bag's 900 s tasks are all in flight when
            // zone-a starts going down.
            trigger: OutageSpec {
                resource: "ca".into(),
                at_secs: 300.0,
                duration_secs: 0.0,
                kind: OutageKind::Permanent,
            },
            propagation_chance: 1.0,
            // Slow enough a spread that the second failure signal lands
            // while some domain member is still alive to drain.
            propagation_delay_secs: (120.0, 900.0),
        }),
        ..FaultSpec::none()
    };

    let arms = ["reactive", "evacuate", "evac+ckpt"];
    let (outcomes, arm_errors) = sweep(
        opts,
        "ablation-cascade",
        &arms,
        |_| true,
        |&arm, rep| {
            let mut recovery = RecoveryPolicy::with_detection();
            if arm != "reactive" {
                recovery.evacuation = Some(EvacuationSpec::default());
            }
            if arm == "evac+ckpt" {
                recovery.checkpoint_interval = aimes_sim::SimDuration::from_secs(120.0);
            }
            CampaignJob {
                arm: arm.to_string(),
                resources: &pool,
                app: &app,
                strategy: &strategy,
                options: RunOptions {
                    faults: Some(faults.clone()),
                    recovery: Some(recovery),
                    journal: Some(Default::default()),
                    // Same seed across all three arms: identical cascade
                    // schedules, the only difference is how the run
                    // survives.
                    ..run_options(opts, "cascade", rep)
                },
            }
        },
        // The journal stays on its worker; its analytics reconstruction
        // crosses back, cross-checking the simulator's own counters.
        |r, options| {
            let journal = options
                .journal
                .as_ref()
                .expect("cascade runs keep a journal");
            let tl = aimes_analytics::timeline::reconstruct(&journal.borrow())
                .expect("completed runs leave a well-formed journal");
            (r, tl)
        },
    );

    let points: Vec<SweepPoint> = arms
        .iter()
        .zip(&outcomes)
        .map(|(arm, runs)| {
            let done = completed(runs);
            let leads: Vec<f64> = done
                .iter()
                .filter_map(|(_, tl)| tl.evacuation_lead_secs)
                .collect();
            let count = |f: fn(&SessionTimelines) -> u32| -> u64 {
                done.iter().map(|(_, tl)| u64::from(f(tl))).sum()
            };
            SweepPoint {
                arm: arm.to_string(),
                reps: opts.reps,
                completed: done.len(),
                ttc_mean_secs: mean_of(&done, |(r, _)| r.breakdown.ttc.as_secs()),
                wasted_core_hours_mean: mean_of(&done, |(r, _)| r.wasted_core_hours),
                salvaged_core_hours_mean: mean_of(&done, |(r, _)| r.salvaged_core_hours),
                evacuation_lead_mean_secs: (!leads.is_empty()).then(|| mean(&leads)),
                domain_alarms: count(|tl| tl.domain_alarms),
                evacuations: count(|tl| tl.evacuations),
                checkpoints: count(|tl| tl.checkpoints),
                resumes: count(|tl| tl.resumes),
                errors: error_classes(runs),
            }
        })
        .collect();
    println!(
        "{}",
        table(
            &points,
            &[
                ("Arm", &|p| p.arm.clone()),
                ("Completed", &|p| completed_cell(p.completed, p.reps)),
                ("TTC mean(s)", &|p| ttc_cell(p.completed, p.ttc_mean_secs)),
                ("Wasted(ch)", &|p| format!(
                    "{:.2}",
                    p.wasted_core_hours_mean
                )),
                ("Salvaged(ch)", &|p| {
                    format!("{:.2}", p.salvaged_core_hours_mean)
                }),
                ("EvacLead(s)", &|p| {
                    p.evacuation_lead_mean_secs
                        .map_or("-".into(), |l| format!("{l:.0}"))
                }),
                ("Alarms", &|p| p.domain_alarms.to_string()),
                ("Evacuations", &|p| p.evacuations.to_string()),
                ("Checkpoints", &|p| p.checkpoints.to_string()),
                ("Resumes", &|p| p.resumes.to_string()),
            ]
        )
    );
    print_json(&points);
    exit_on_failures(opts, "ablation-cascade", arm_errors);
}

/// Information-degradation ablation: the same workload executed under
/// four information regimes — an oracle channel (every query measures
/// live), a streaming cache (5-minute refresh), a degraded channel
/// (corrupt/unavailable answers plus a one-resource blackout), and a
/// total blackout (no resource ever answers). Paired seeds isolate the
/// information regime from schedule noise; per-arm fallback-ladder
/// counters come through the MetricsRegistry (`bundle.info.*`), so the
/// same numbers land in the Perfetto trace when telemetry is exported.
/// With `--fail-on-error`, any failed run exits non-zero — degradation
/// must slow runs down, never kill them. `--dump-dir` routes flight-
/// recorder snapshots of any failure there for CI artifact collection.
fn ablation_info(opts: &Options) {
    use aimes_bundle::InfoConfig;
    use aimes_fault::{FaultSpec, InfoBlackoutSpec, InfoFaultSpec};
    use aimes_sim::Telemetry;

    #[derive(serde::Serialize)]
    struct InfoPoint {
        arm: String,
        reps: usize,
        completed: usize,
        ttc_mean_secs: f64,
        ttc_max_secs: f64,
        info_fallbacks: u64,
        stale_decision_secs: f64,
        counters: BTreeMap<String, u64>,
    }

    println!("## Ablation — degraded-information execution (late binding, 3 pilots)\n");
    let n_tasks = if opts.quick { 32 } else { 128 };
    let app = bag("info", n_tasks, 900.0, 1.0);
    let strategy = paper::late_strategy(3);
    let testbed = paper::testbed();
    let streaming = InfoConfig {
        base_refresh_secs: 300.0,
        ..InfoConfig::default()
    };
    let degraded_faults = FaultSpec {
        info: InfoFaultSpec {
            corrupt_chance: 0.25,
            unavailable_chance: 0.25,
            blackouts: vec![InfoBlackoutSpec {
                resource: "stampede".into(),
                at_secs: 0.0,
                duration_secs: 3600.0,
            }],
        },
        ..FaultSpec::none()
    };
    let blackout_faults = FaultSpec {
        info: InfoFaultSpec {
            blackouts: vec![InfoBlackoutSpec {
                resource: "*".into(),
                at_secs: 0.0,
                duration_secs: 1e9,
            }],
            ..InfoFaultSpec::default()
        },
        ..FaultSpec::none()
    };
    let arms: Vec<(&str, InfoConfig, Option<FaultSpec>)> = vec![
        ("oracle", InfoConfig::default(), None),
        ("streaming", streaming.clone(), None),
        ("degraded", streaming.clone(), Some(degraded_faults)),
        ("blackout", streaming, Some(blackout_faults)),
    ];

    let (outcomes, failures) = sweep(
        opts,
        "ablation-info",
        &arms,
        |_| true,
        |(arm, info, faults), rep| CampaignJob {
            arm: arm.to_string(),
            resources: &testbed,
            app: &app,
            strategy: &strategy,
            options: RunOptions {
                faults: faults.clone(),
                info: info.clone(),
                // Each run's own registry; the `bundle.info.*` counters
                // come back in `RunResult::metrics`.
                telemetry: Some(Telemetry::new()),
                // Same seed across arms: identical workload, background
                // load, and submission instant — only the information
                // regime moves.
                ..run_options(opts, "info", rep)
            },
        },
        |r, _| r,
    );

    let points: Vec<InfoPoint> = arms
        .iter()
        .zip(&outcomes)
        .map(|((arm, _, _), runs)| {
            let done = completed(runs);
            let mut counters: BTreeMap<String, u64> = BTreeMap::new();
            for (name, v) in done
                .iter()
                .flat_map(|r| r.metrics.iter())
                .flat_map(|summary| summary.counters.iter())
            {
                if let Some(short) = name.strip_prefix("bundle.info.") {
                    *counters.entry(short.to_string()).or_insert(0) += v;
                }
            }
            let ttc = summary_of(&done, |r| r.breakdown.ttc.as_secs());
            InfoPoint {
                arm: arm.to_string(),
                reps: opts.reps,
                completed: done.len(),
                ttc_mean_secs: ttc.map_or(0.0, |s| s.mean),
                ttc_max_secs: ttc.map_or(0.0, |s| s.max),
                info_fallbacks: done.iter().map(|r| r.info_fallbacks).sum(),
                stale_decision_secs: done.iter().fold(0.0, |acc, r| acc + r.stale_decision_secs),
                counters,
            }
        })
        .collect();
    let c = |p: &InfoPoint, k: &str| p.counters.get(k).copied().unwrap_or(0);
    println!(
        "{}",
        table(
            &points,
            &[
                ("Arm", &|p| p.arm.clone()),
                ("Completed", &|p| completed_cell(p.completed, p.reps)),
                ("TTC mean(s)", &|p| format!("{:.0}", p.ttc_mean_secs)),
                ("TTC max(s)", &|p| format!("{:.0}", p.ttc_max_secs)),
                ("Fresh", &|p| c(p, "fresh").to_string()),
                ("CacheHit", &|p| c(p, "cache_hit").to_string()),
                ("Degraded", &|p| (c(p, "corrupt") + c(p, "unavailable"))
                    .to_string()),
                ("StaleFB", &|p| c(p, "fallback_stale_cache").to_string()),
                ("PredFB", &|p| c(p, "fallback_predictor").to_string()),
                ("StaticFB", &|p| c(p, "fallback_static").to_string()),
                ("InfoFB", &|p| p.info_fallbacks.to_string()),
                ("Stale(s)", &|p| format!("{:.0}", p.stale_decision_secs)),
            ]
        )
    );
    print_json(&points);
    println!(
        "\nEvery arm must complete every run: degraded information descends \
         the fallback ladder (stale cache, predictor, static floor) and \
         slows selection down, but never panics or loses work."
    );
    exit_on_failures(opts, "ablation-info", failures);
}

/// Detection-latency ablation: how the failure detector's tuning trades
/// detection delay Td against false positives and end-to-end TTC, scored
/// against the oracle that reacts at the injection instant. The scenario
/// is pinned — a permanent outage takes down the only selected resource
/// shortly after the pilots start — so every arm recovers from the same
/// loss and differs only in how long it takes to notice. Failed runs
/// don't count toward the table means; with `--fail-on-error` any failed
/// run exits non-zero.
fn ablation_detection(opts: &Options) {
    use aimes_fault::{DetectionSpec, FaultSpec, OutageKind, OutageSpec, PhiSpec, RecoveryPolicy};

    println!("## Ablation — failure-detection latency vs oracle recovery\n");
    let n_tasks = if opts.quick { 16 } else { 48 };
    let pool = idle_pool(&["da", "db"]);
    let app = bag("detection", n_tasks, 900.0, 1.0);
    let mut strategy = ExecutionStrategy::paper_late(1);
    // Pin the initial placement so the permanent loss always hits the
    // resource actually in use; recovery must re-plan onto the survivor.
    strategy.selection = aimes_strategy::ResourceSelection::Fixed(vec!["da".into()]);
    strategy.walltime = aimes_strategy::WalltimePolicy::FixedSecs(6 * 3600);
    let faults = FaultSpec {
        outages: vec![OutageSpec {
            resource: "da".into(),
            at_secs: 300.0,
            duration_secs: 600.0,
            kind: OutageKind::Permanent,
        }],
        ..FaultSpec::none()
    };

    let timeout = |hb: f64, suspect: f64, declare: f64| DetectionSpec {
        heartbeat_secs: hb,
        suspect_after_secs: suspect,
        declare_after_secs: declare,
        ..DetectionSpec::default()
    };
    let configs: Vec<(&str, Option<DetectionSpec>)> = vec![
        ("oracle", None),
        ("hb30/declare120", Some(timeout(30.0, 75.0, 120.0))),
        ("hb60/declare300", Some(DetectionSpec::default())),
        ("hb120/declare600", Some(timeout(120.0, 300.0, 600.0))),
        (
            "phi(1,2)/w16",
            Some(DetectionSpec {
                phi: Some(PhiSpec {
                    suspect_phi: 1.0,
                    declare_phi: 2.0,
                    window: 16,
                }),
                ..DetectionSpec::default()
            }),
        ),
    ];

    let (outcomes, failures) = sweep(
        opts,
        "ablation-detection",
        &configs,
        |_| true,
        |(label, det), rep| {
            let recovery = RecoveryPolicy {
                detection: det.clone(),
                ..RecoveryPolicy::default()
            };
            CampaignJob {
                arm: label.to_string(),
                resources: &pool,
                app: &app,
                strategy: &strategy,
                options: RunOptions {
                    faults: Some(faults.clone()),
                    recovery: Some(recovery),
                    // Same seed across configs: the paired comparison
                    // isolates detector tuning from schedule noise.
                    ..run_options(opts, "detection", rep)
                },
            }
        },
        |r, _| r,
    );

    let rows: Vec<(&str, Vec<&RunResult>)> = configs
        .iter()
        .zip(&outcomes)
        .map(|((label, _), runs)| (*label, completed(runs)))
        .collect();
    let mean_cell =
        |done: &[&RunResult], f: fn(&RunResult) -> f64| format!("{:.0}", mean_of(done, f));
    let sum_cell = |done: &[&RunResult], f: fn(&RunResult) -> u64| {
        done.iter().map(|r| f(r)).sum::<u64>().to_string()
    };
    println!(
        "{}",
        table(
            &rows,
            &[
                ("Detector", &|(label, _)| label.to_string()),
                ("Completed", &|(_, done)| completed_cell(
                    done.len(),
                    opts.reps
                )),
                ("TTC mean(s)", &|(_, done)| mean_cell(done, |r| r
                    .breakdown
                    .ttc
                    .as_secs())),
                ("Tr mean(s)", &|(_, done)| mean_cell(done, |r| r
                    .breakdown
                    .tr
                    .as_secs())),
                ("Td mean(s)", &|(_, done)| mean_cell(done, |r| r
                    .breakdown
                    .td
                    .as_secs())),
                ("MeanTd(s)", &|(_, done)| mean_cell(done, |r| r
                    .mean_detection_secs)),
                ("Replans", &|(_, done)| sum_cell(done, |r| r.replans)),
                ("FalseSusp", &|(_, done)| sum_cell(done, |r| r
                    .false_suspicions)),
            ]
        )
    );
    println!(
        "\nThe oracle row reacts at the injection instant (Td = 0); every \
         detector row pays a Td set by its heartbeat period and declare \
         timeout before the same re-planning path runs."
    );
    exit_on_failures(opts, "ablation-detection", failures);
}

/// Predictor evaluation: the Bundle's predictive machinery (QBETS-style
/// quantile bound, exponential smoothing, conservative queue replay)
/// scored against realized pilot waits on a saturated machine. It runs
/// no middleware, so it stays outside the campaign driver.
fn ablation_predictor(opts: &Options) {
    use aimes_bundle::{ExpSmoothing, QuantileBound, WaitPredictor};
    use aimes_cluster::{Cluster, JobRequest};
    use aimes_sim::{Simulation, Tracer};
    use std::cell::RefCell;
    use std::rc::Rc;
    println!("## Ablation — queue-wait predictors vs realized waits\n");
    let spec = aimes_cluster::testbed_resource("stampede").expect("in testbed");
    let mut sim = Simulation::with_tracer(opts.seed, Tracer::disabled());
    let cluster = Cluster::new(spec.config);
    cluster.install(&mut sim);

    // Probe: a 256-core, 2-hour pilot-shaped job every ~2 h over 8 days —
    // big enough that it cannot always slip into a backfill hole.
    let probes = if opts.quick { 24 } else { 96 };
    let cores = 256u32;
    let walltime = aimes_sim::SimDuration::from_hours(2.0);
    type Obs = (Option<f64>, Option<f64>, Option<f64>, f64); // qbets, smooth, replay, realized
    let observations: Rc<RefCell<Vec<Obs>>> = Rc::new(RefCell::new(vec![]));
    let qbets = Rc::new(RefCell::new(QuantileBound::qbets_default()));
    let smooth = Rc::new(RefCell::new(ExpSmoothing::new(0.3)));
    let mut rng = sim.fork_rng("probe-times");
    for k in 0..probes {
        let at = SimTime::from_secs((k as f64 * 2.0 + rng.uniform(0.0, 1.0)) * 3600.0);
        let cluster2 = cluster.clone();
        let obs = observations.clone();
        let qb = qbets.clone();
        let sm = smooth.clone();
        sim.schedule_at(at, move |sim| {
            let predicted_q = qb.borrow().predict().map(|d| d.as_secs());
            let predicted_s = sm.borrow().predict().map(|d| d.as_secs());
            let predicted_r = cluster2
                .estimate_wait(sim.now(), cores, walltime)
                .map(|d| d.as_secs());
            let id = cluster2.submit(sim, JobRequest::pilot(cores, walltime, "probe"));
            let submit_time = sim.now();
            cluster2.watch(id, move |sim, &state| {
                if state == aimes_cluster::JobState::Running {
                    let realized = sim.now().since(submit_time);
                    obs.borrow_mut().push((
                        predicted_q,
                        predicted_s,
                        predicted_r,
                        realized.as_secs(),
                    ));
                    qb.borrow_mut().observe(realized);
                    sm.borrow_mut().observe(realized);
                }
            });
        });
    }
    sim.run_until(SimTime::from_secs(10.0 * 24.0 * 3600.0));

    let obs = observations.borrow();
    // One row per predictor: its name, whether it is a bound (so its
    // coverage means something), and its (MAE, bias, coverage) over the
    // probes it predicted, with that probe count.
    let score = |name: &'static str, pick: fn(&Obs) -> Option<f64>, bound: bool| {
        let pairs: Vec<(f64, f64)> = obs
            .iter()
            .filter_map(|o| pick(o).map(|p| (p, o.3)))
            .collect();
        let n = pairs.len() as f64;
        let stats = (!pairs.is_empty()).then(|| {
            let mae = pairs.iter().map(|(p, r)| (p - r).abs()).sum::<f64>() / n;
            let bias = pairs.iter().map(|(p, r)| p - r).sum::<f64>() / n;
            let coverage = pairs.iter().filter(|(p, r)| r <= p).count() as f64 / n;
            (mae, bias, coverage)
        });
        (name, bound, stats, pairs.len())
    };
    let rows = [
        score("qbets-95/95", |o| o.0, true),
        score("exp-smoothing", |o| o.1, false),
        score("queue-replay", |o| o.2, true),
    ];
    println!(
        "{}",
        table(
            &rows,
            &[
                ("Predictor", &|(name, ..)| name.to_string()),
                ("MAE(s)", &|(_, _, s, _)| s
                    .map_or("-".into(), |s| format!("{:.0}", s.0))),
                ("bias(s)", &|(_, _, s, _)| s
                    .map_or("-".into(), |s| format!("{:+.0}", s.1))),
                ("coverage (bound)", &|(_, bound, s, _)| match s {
                    Some(s) if *bound => format!("{:.0} %", s.2 * 100.0),
                    _ => "-".into(),
                }),
                ("probes", &|(.., n)| n.to_string()),
            ]
        )
    );
    println!(
        "(realized waits: n = {}, mean = {:.0} s, max = {:.0} s)\n",
        obs.len(),
        obs.iter().map(|o| o.3).sum::<f64>() / obs.len().max(1) as f64,
        obs.iter().map(|o| o.3).fold(0.0, f64::max)
    );
}

/// One instrumented experiment-1 run (early binding, 15-min tasks) at the
/// given seed: prints the metrics summary block and, when requested,
/// writes the Perfetto-loadable Chrome trace, the metrics JSON/CSV, and
/// the full event trace.
fn telemetry_run(opts: &Options) {
    use aimes_sim::{Telemetry, Tracer};
    use std::io::Write as _;

    let n_tasks = if opts.quick { 16 } else { 64 };
    let app = aimes_skeleton::paper_bag(n_tasks, TaskDurationSpec::Uniform15Min);
    let telemetry = Telemetry::new();
    let tracer = Tracer::new();
    let mut rng = SimRng::new(opts.seed).fork("submit");
    let submit_at = SimTime::from_secs(rng.uniform(4.0, 16.0) * 3600.0);
    let result = run_application(
        &paper::testbed(),
        &app,
        &paper::early_strategy(),
        &RunOptions {
            seed: opts.seed,
            submit_at,
            telemetry: Some(telemetry.clone()),
            tracer: Some(tracer.clone()),
            ..Default::default()
        },
    )
    .expect("telemetry run completes");

    println!(
        "## Telemetry — experiment 1 ({n_tasks} tasks, seed {})\n",
        opts.seed
    );
    println!(
        "TTC {:.0} s, units {}/{}, charged {:.1} core-h, used {:.1} core-h\n",
        result.breakdown.ttc.as_secs(),
        result.units_done,
        result.n_tasks,
        result.charged_core_hours,
        result.used_core_hours
    );
    let summary = result.metrics.as_ref().expect("telemetry was attached");
    println!("{}", report::metrics_table(summary));

    if let Some(dir) = &opts.emit_metrics {
        std::fs::create_dir_all(dir).expect("create --emit-metrics dir");
        let file = |name: &str| {
            std::io::BufWriter::new(
                std::fs::File::create(dir.join(name)).expect("create metrics file"),
            )
        };
        let mut trace = file("trace.json");
        telemetry
            .write_chrome_trace(&mut trace)
            .expect("write trace.json");
        let mut csv = file("metrics.csv");
        telemetry
            .write_metrics_csv(&mut csv)
            .expect("write metrics.csv");
        let mut json = file("metrics.json");
        json.write_all(
            serde_json::to_string_pretty(summary)
                .expect("summary serializes")
                .as_bytes(),
        )
        .expect("write metrics.json");
        eprintln!(
            "wrote trace.json, metrics.json, metrics.csv to {}",
            dir.display()
        );
    }
    if let Some(path) = &opts.trace_out {
        let mut out =
            std::io::BufWriter::new(std::fs::File::create(path).expect("create --trace-out file"));
        tracer.write_json(&mut out).expect("stream event trace");
        eprintln!("wrote event trace to {}", path.display());
    }
}

/// Run one named scenario and write (or print) its journal JSONL.
fn journal_cmd(opts: &Options) {
    if !aimes_bench::scenarios::NAMES.contains(&opts.scenario.as_str()) {
        eprintln!(
            "unknown --scenario {:?}; known: {:?}",
            opts.scenario,
            aimes_bench::scenarios::NAMES
        );
        std::process::exit(2);
    }
    eprintln!(
        "running scenario {} at seed {} ...",
        opts.scenario, opts.seed
    );
    let journal = aimes_bench::scenarios::journal(&opts.scenario, opts.seed);
    let jsonl = journal.to_jsonl();
    match &opts.out {
        Some(path) => {
            std::fs::write(path, &jsonl).expect("write journal file");
            eprintln!("wrote {} entries to {}", journal.len(), path.display());
        }
        None => print!("{jsonl}"),
    }
}

/// Post-mortem analysis of one journal file. Exits nonzero when the TTC
/// closure check fails (or cannot run because the journal never finished).
fn analyze_cmd(opts: &Options) {
    let [path] = opts.files.as_slice() else {
        eprintln!("usage: experiments analyze <journal.jsonl> [--epsilon E] [--out report.json]");
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(path).expect("read journal file");
    let report = match aimes_analytics::analyze_jsonl(&text, opts.epsilon) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot analyze {}: {e}", path.display());
            std::process::exit(2);
        }
    };
    println!("{}", aimes_analytics::render::render(&report));
    if let Some(out) = &opts.out {
        std::fs::write(
            out,
            serde_json::to_string_pretty(&report).expect("report serializes"),
        )
        .expect("write analysis file");
        eprintln!("wrote analysis to {}", out.display());
    }
    if !report.closure_holds() {
        eprintln!("TTC closure FAILED — the state model and the reported TTC disagree");
        std::process::exit(1);
    }
}

/// Load an `analyze --out` JSON, or fall back to treating the file as a
/// journal and analyzing it on the spot.
fn load_analysis(path: &std::path::Path, epsilon: f64) -> aimes_analytics::AnalysisReport {
    let text = std::fs::read_to_string(path).expect("read analysis/journal file");
    if let Ok(report) = serde_json::from_str::<aimes_analytics::AnalysisReport>(&text) {
        if report.schema == aimes_analytics::SCHEMA {
            return report;
        }
    }
    match aimes_analytics::analyze_jsonl(&text, epsilon) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "{} is neither an analysis JSON nor a readable journal: {e}",
                path.display()
            );
            std::process::exit(2);
        }
    }
}

/// Compare two runs component-by-component; exit nonzero on regression.
fn analytics_diff_cmd(opts: &Options) {
    let [a, b] = opts.files.as_slice() else {
        eprintln!(
            "usage: experiments analytics-diff <run-a> <run-b> [--threshold T]\n\
             (inputs: analyze --out JSON files or raw journal JSONL)"
        );
        std::process::exit(2);
    };
    let ra = load_analysis(a, opts.epsilon);
    let rb = load_analysis(b, opts.epsilon);
    let d = aimes_analytics::diff::diff(&ra, &rb, opts.threshold);
    println!("{}", aimes_analytics::render::render_diff(&d));
    if d.is_regression() {
        std::process::exit(1);
    }
}

/// Cross-run analysis of one `--campaign-out` manifest: per-arm TTC
/// percentiles, Tukey-fence straggler runs (same fence as the per-unit
/// analytics), a failure table keyed by the `RunError` taxonomy, and — in
/// timing mode — the pool-utilization section. Exits 2 on a malformed
/// manifest.
fn campaign_report_cmd(opts: &Options) {
    let [path] = opts.files.as_slice() else {
        eprintln!("usage: experiments campaign-report <campaign.jsonl>");
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(path).expect("read campaign manifest");
    let manifest = match aimes::campaign::read_manifest(&text) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("cannot read {}: {e}", path.display());
            std::process::exit(2);
        }
    };
    if let Err(e) = manifest.validate() {
        eprintln!("malformed manifest {}: {e}", path.display());
        std::process::exit(2);
    }
    let meta = &manifest.meta;
    println!(
        "## Campaign report — {} (seed {}, {} runs)\n",
        meta.command, meta.seed, meta.total_jobs
    );

    // Arms in first-seen job order, so the report matches the sweep's
    // own table ordering.
    let mut arms: Vec<&str> = Vec::new();
    for rec in &manifest.runs {
        if !arms.iter().any(|a| *a == rec.arm) {
            arms.push(&rec.arm);
        }
    }
    let arm_runs = |arm: &str| -> Vec<&aimes::RunRecord> {
        manifest.runs.iter().filter(|r| r.arm == arm).collect()
    };

    println!("### TTC percentiles by arm\n");
    println!("| arm | runs | completed | p50 TTC (s) | p95 (s) | p99 (s) |");
    println!("|---|---|---|---|---|---|");
    for arm in &arms {
        let runs = arm_runs(arm);
        let ttcs: Vec<f64> = runs.iter().filter_map(|r| r.ttc_secs).collect();
        match aimes::stats::p50_p95_p99(&ttcs) {
            Some((p50, p95, p99)) => println!(
                "| {arm} | {} | {} | {p50:.1} | {p95:.1} | {p99:.1} |",
                runs.len(),
                ttcs.len()
            ),
            None => println!("| {arm} | {} | 0 | - | - | - |", runs.len()),
        }
    }

    // Straggler *runs*: within each arm, completed runs whose TTC clears
    // the same Tukey upper fence the per-unit analytics use.
    println!("\n### Straggler runs (Tukey fence per arm)\n");
    let mut stragglers: Vec<(&aimes::RunRecord, f64)> = Vec::new();
    for arm in &arms {
        let ttcs: Vec<f64> = arm_runs(arm).iter().filter_map(|r| r.ttc_secs).collect();
        let Some(bound) = aimes_analytics::tukey_upper_fence(&ttcs) else {
            continue;
        };
        for rec in arm_runs(arm) {
            if let Some(ttc) = rec.ttc_secs {
                if ttc > bound + 1e-9 {
                    stragglers.push((rec, bound));
                }
            }
        }
    }
    // Worst excess first; job index breaks ties deterministically.
    stragglers.sort_by(|(a, ba), (b, bb)| {
        let ea = a.ttc_secs.unwrap_or(0.0) - ba;
        let eb = b.ttc_secs.unwrap_or(0.0) - bb;
        eb.partial_cmp(&ea)
            .expect("finite TTCs")
            .then(a.job.cmp(&b.job))
    });
    if stragglers.is_empty() {
        println!("none — no completed run exceeds its arm's fence");
    } else {
        println!("| arm | job | rep | seed | TTC (s) | fence (s) |");
        println!("|---|---|---|---|---|---|");
        for (rec, bound) in &stragglers {
            println!(
                "| {} | {} | {} | {} | {:.1} | {bound:.1} |",
                rec.arm,
                rec.job,
                rec.rep,
                rec.seed,
                rec.ttc_secs.expect("stragglers completed"),
            );
        }
    }

    // Failure table keyed by the RunError taxonomy.
    println!("\n### Failures\n");
    let failed: Vec<&aimes::RunRecord> = manifest.runs.iter().filter(|r| r.is_failed()).collect();
    if failed.is_empty() {
        println!("none — every run completed");
    } else {
        let mut kinds: Vec<&str> = Vec::new();
        for rec in &failed {
            let kind = rec.error_kind.as_deref().unwrap_or("unknown");
            if !kinds.contains(&kind) {
                kinds.push(kind);
            }
        }
        println!("| error kind | count | arms |");
        println!("|---|---|---|");
        for kind in kinds {
            let of_kind: Vec<&&aimes::RunRecord> = failed
                .iter()
                .filter(|r| r.error_kind.as_deref().unwrap_or("unknown") == kind)
                .collect();
            let mut in_arms: Vec<&str> = Vec::new();
            for rec in &of_kind {
                if !in_arms.iter().any(|a| *a == rec.arm) {
                    in_arms.push(&rec.arm);
                }
            }
            println!("| {kind} | {} | {} |", of_kind.len(), in_arms.join(", "));
        }
    }

    // Pool utilization, present only in timing-mode manifests.
    if let Some(pool) = &manifest.pool {
        println!("\n### Pool utilization\n");
        println!(
            "invocations: {} | wall: {:.2} s | busy: {:.2} s | \
             utilization: {:.0}% | cursor overshoots: {}\n",
            pool.invocations,
            pool.wall_secs,
            pool.busy_secs,
            100.0 * pool.utilization,
            pool.cursor_overshoots
        );
        println!("| worker | items | busy (s) | idle (s) | busy fraction |");
        println!("|---|---|---|---|---|");
        for w in &pool.workers {
            println!(
                "| {} | {} | {:.2} | {:.2} | {:.0}% |",
                w.worker,
                w.items,
                w.busy_secs,
                w.idle_secs,
                100.0 * w.busy_fraction
            );
        }
    } else {
        println!(
            "\n(no pool record — rerun the sweep with --campaign-timing for pool utilization)"
        );
    }
}

/// The engine self-profile: sequential experiment-1 runs under one
/// shared profiler, with one outer `harness` scope around the whole
/// loop. Because the harness is single-threaded and every subsystem
/// scope nests inside `harness`, per-label exclusive times tile the
/// measured wall clock — the printed coverage sits near 100% (the CI
/// profile-smoke gate asserts within 5%). The `aimes-profile-v1`
/// document (with the volatile timing and allocator sections always
/// present — this command exists to measure them) goes to
/// `--profile-out`/`--out`, or into the stdout report.
fn profile_cmd(opts: &Options) {
    let n_tasks = if opts.quick { 64 } else { 256 };
    let cfg = paper::experiment(1, opts.reps, opts.seed, Some(vec![n_tasks]));
    println!(
        "## Engine self-profile — experiment 1 ({n_tasks} tasks x {} reps, sequential)\n",
        cfg.repetitions
    );
    let prof = Profiler::new();
    let stopwatch = Stopwatch::start();
    let mut run_walls: Vec<f64> = Vec::new();
    let mut engine = EngineStats::default();
    {
        let _harness = prof.scope("harness");
        for (n, app) in &cfg.arms() {
            for rep in 0..cfg.repetitions {
                let mut job = cfg.job(*n, app, rep);
                job.options.profiler = Some(prof.clone());
                let t_run = std::time::Instant::now();
                run_application(job.resources, job.app, job.strategy, &job.options)
                    .unwrap_or_else(|e| panic!("profile run failed: {e}"));
                run_walls.push(t_run.elapsed().as_secs_f64());
                // The engine handle overwrites its counters at each run's
                // exit; fold them here so the document sums every run.
                engine.merge(&prof.report().engine);
            }
        }
    }
    let runs = run_walls.len() as u64;
    let timing = stopwatch.timing(engine.events_processed, true, run_walls);
    let mut report = prof.report();
    report.engine = engine;
    let path = opts.campaign.profile_out.as_ref().or(opts.out.as_ref());
    let doc = write_profile(
        path.map(|p| p.as_path()),
        "profile",
        opts.seed,
        runs,
        &report,
        Some(timing),
    );
    println!("```\n{}```\n", profile::self_time_table(&report, 16));
    let (timing, alloc) = (doc.timing.expect("timed"), doc.alloc.expect("timed"));
    println!(
        "wall {:.3} s | attributed {:.3} s | coverage {:.1}% | \
         {} events | {:.1} allocs/event",
        timing.total_wall_secs,
        timing.attributed_secs,
        100.0 * timing.coverage.unwrap_or(0.0),
        engine.events_processed,
        alloc.allocs_per_event
    );
    if path.is_none() {
        let json = serde_json::to_string_pretty(&doc).expect("profile doc serializes");
        println!("\n### JSON\n```json\n{json}\n```");
    }
}

/// Every table and figure: Table I, the three figures rendered from one
/// campaign of experiments 1-4, then every ablation. Its stdout is the
/// concatenated stdouts of `table1`, `fig2`, `fig3`, `fig4` and the
/// ablation commands, in that order.
fn all(opts: &Options) {
    table1(opts);
    let (results, failures) =
        run_experiments(opts, "figures", &paper_experiments(opts, &[1, 2, 3, 4]));
    let results: Vec<&ExperimentResult> = results.iter().collect();
    fig2(&results);
    fig3(&results);
    fig4(&[results[0], results[2]]);
    exit_on_failures(opts, "figures", failures);
    for (name, run, _) in &COMMANDS {
        if name.starts_with("ablation-") {
            run(opts);
        }
    }
}

fn main() {
    let (command, opts) = parse_args(std::env::args().skip(1).collect());
    if let Some(jobs) = opts.jobs {
        rayon::ThreadPoolBuilder::new()
            .num_threads(jobs)
            .build_global()
            .expect("configure worker pool");
    }
    match COMMANDS.iter().find(|(name, ..)| *name == command) {
        Some((_, run, _)) => run(&opts),
        None => {
            eprintln!("unknown command `{command}`\n{USAGE}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The packed `(MB << 8) | rep` key gave rep 256 of the 1 MB arm rep
    /// 0's seed; every (arm, rep) of the data sweep must draw its own.
    #[test]
    fn data_sweep_seeds_are_distinct_past_256_reps() {
        let (_, opts) = parse_args(Vec::new());
        let opts = &opts;
        let seeds: std::collections::BTreeSet<u64> = DATA_INPUT_MB
            .iter()
            .flat_map(|&mb| (0..600).map(move |rep| data_run_options(opts, mb, rep).seed))
            .collect();
        assert_eq!(seeds.len(), DATA_INPUT_MB.len() * 600);
    }
}
