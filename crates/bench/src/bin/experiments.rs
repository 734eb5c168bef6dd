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
//! shape check. `--fail-on-error` makes the parallel sweeps (faults,
//! detection, info, cascade) exit non-zero if a run fails — for
//! `ablation-faults`, a run of a healing arm (oracle or detection) — the
//! chaos-smoke CI gate; `--dump-dir DIR` leaves flight-recorder snapshots
//! of their failed runs there. `--jobs N` caps the worker pool the sweeps fan out on
//! (default: all cores; every run owns its seed and results aggregate in
//! job order, so output is byte-identical at any worker count).
//!
//! Campaign observability (the parallel sweeps — faults, detection, info,
//! cascade): `--campaign-out PATH` writes a `campaign.jsonl` manifest with
//! one record per run (arm, rep, seed, outcome, TTC components, recovery
//! counters, error taxonomy), canonicalized to job order on close so it is
//! byte-identical at any `--jobs`. `--campaign-timing` additionally records
//! volatile wall-clock fields (worker index, per-phase wall split, a pool
//! record) — useful, but worker-count dependent. `--progress` draws an
//! opt-in live status line on stderr. `--profile-out PATH` attaches a
//! per-run engine profiler to every run of the sweep and writes the
//! merged `aimes-profile-v1` document — scope counts and engine counters
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
    run_campaign, run_experiment, CampaignJob, ExperimentConfig, ExperimentResult, JobOutcome,
};
use aimes::middleware::{run_application, RunError, RunOptions, RunResult};
use aimes::paper;
use aimes::profile::{self, AllocSection, ProfileDoc, TimingInputs};
use aimes::report;
use aimes::stats::Summary;
use aimes_bench::alloc::{self as heap, CountingAlloc};
use aimes_bench::observatory::{CampaignFlags, Observatory};
use aimes_bench::{flag_parse, flag_value};
use aimes_sim::{EngineStats, Profiler, SimRng, SimTime};
use aimes_skeleton::{bag_of_tasks, TaskDurationSpec};
use aimes_strategy::ExecutionStrategy;
use aimes_workload::Distribution;
use std::collections::BTreeMap;

/// Heap accounting for profile documents: every allocation in this
/// binary is counted (relaxed atomics, peak via atomic max).
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
    /// Flight-recorder dump directory for the parallel sweeps (faults,
    /// detection, info, cascade): failed runs leave checksummed
    /// post-mortem snapshots here for CI to collect as artifacts.
    dump_dir: Option<std::path::PathBuf>,
    /// Worker-pool size for the parallel sweeps (default: all cores).
    jobs: Option<usize>,
    /// Campaign observability for the parallel sweeps. Its
    /// `--profile-out` is also where the `profile` command writes its
    /// document instead of stdout.
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
     campaign flags: --campaign-out PATH --campaign-timing --progress \
     --profile-out PATH\n\
     journal flags: --scenario exp1|exp4|faulty --out PATH\n\
     analyze: <journal.jsonl> --epsilon E --out report.json\n\
     analytics-diff: <run-a> <run-b> --threshold T\n\
     campaign-report: <campaign.jsonl>";

fn parse_args() -> (String, Options) {
    let args: Vec<String> = std::env::args().skip(1).collect();
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
    if opts.quick {
        opts.reps = opts.reps.min(3);
    }
    (command, opts)
}

fn sizes(opts: &Options) -> Option<Vec<u32>> {
    opts.quick.then(aimes_bench::quick_sizes)
}

fn run(cfg: &ExperimentConfig) -> ExperimentResult {
    eprintln!(
        "running {} ({} sizes x {} reps) ...",
        cfg.id,
        cfg.task_counts.len(),
        cfg.repetitions
    );
    let start = std::time::Instant::now();
    let result = run_experiment(cfg);
    eprintln!("  {} done in {:.1}s", cfg.id, start.elapsed().as_secs_f64());
    for p in &result.points {
        if !p.errors.is_empty() {
            eprintln!(
                "  WARNING {}@{}: {}/{} runs failed: {}",
                cfg.id,
                p.n_tasks,
                p.errors.len(),
                p.errors.len() + p.runs.len(),
                p.errors[0]
            );
        }
    }
    result
}

fn table1() {
    println!("## Table I — skeleton applications and execution strategies\n");
    let rows = paper::table1_rows();
    let rows: Vec<Vec<String>> = rows.into_iter().map(|r| r.to_vec()).collect();
    println!(
        "{}",
        report::markdown_table(
            &[
                "Experiment",
                "#Tasks",
                "Task duration",
                "Binding",
                "Scheduler",
                "#Pilots",
                "Pilot size",
                "Pilot walltime"
            ],
            &rows
        )
    );
}

fn experiments_1_to_4(opts: &Options) -> Vec<ExperimentResult> {
    (1..=4)
        .map(|id| run(&paper::experiment(id, opts.reps, opts.seed, sizes(opts))))
        .collect()
}

fn fig2(opts: &Options) {
    let results = experiments_1_to_4(opts);
    println!("## Figure 2 — TTC comparison, experiments 1-4\n");
    let refs: Vec<&ExperimentResult> = results.iter().collect();
    println!("{}", report::fig2_table(&refs));
    println!("```\n{}```\n", report::fig2_chart(&refs));
    println!("### CSV\n```\n{}```", report::csv_export(&refs));
}

fn fig3(opts: &Options) {
    let results = experiments_1_to_4(opts);
    println!("## Figure 3 — TTC decomposition (Tw, Tx, Ts) per experiment\n");
    for (panel, r) in ["(a)", "(b)", "(c)", "(d)"].iter().zip(&results) {
        println!("### {panel} {}", report::fig3_table(r));
    }
}

fn fig4(opts: &Options) {
    let e1 = run(&paper::experiment(1, opts.reps, opts.seed, sizes(opts)));
    let e3 = run(&paper::experiment(3, opts.reps, opts.seed, sizes(opts)));
    println!("## Figure 4 — TTC error bars: early (a) vs late (b)\n");
    println!("### (a) {}", report::fig4_table(&e1));
    println!("### (b) {}", report::fig4_table(&e3));
}

fn ablation_pilots(opts: &Options) {
    println!("## Ablation — late-binding pilot-count sweep\n");
    let sizes = sizes(opts).unwrap_or_else(|| vec![256, 1024]);
    let mut rows = Vec::new();
    for k in 1..=5u32 {
        let r = run(&paper::pilot_count_ablation(
            k,
            opts.reps,
            opts.seed,
            Some(sizes.clone()),
        ));
        for p in &r.points {
            rows.push(vec![
                k.to_string(),
                p.n_tasks.to_string(),
                format!("{:.0}", p.ttc.mean),
                format!("{:.0}", p.ttc.stdev),
                format!("{:.0}", p.tw.mean),
                format!("{:.0}", p.tw.stdev),
            ]);
        }
    }
    println!(
        "{}",
        report::markdown_table(
            &[
                "#Pilots",
                "#Tasks",
                "TTC mean(s)",
                "TTC stdev",
                "Tw mean(s)",
                "Tw stdev"
            ],
            &rows
        )
    );
}

fn ablation_sched(opts: &Options) {
    println!("## Ablation — late-binding scheduler: backfill vs round robin\n");
    let sizes = sizes(opts).unwrap_or_else(|| vec![256, 1024]);
    let mut rows = Vec::new();
    for backfill in [true, false] {
        let r = run(&paper::scheduler_ablation(
            backfill,
            opts.reps,
            opts.seed,
            Some(sizes.clone()),
        ));
        for p in &r.points {
            let restarts: f64 =
                p.runs.iter().map(|x| x.restarts as f64).sum::<f64>() / p.runs.len().max(1) as f64;
            rows.push(vec![
                if backfill { "backfill" } else { "round-robin" }.to_string(),
                p.n_tasks.to_string(),
                format!("{:.0}", p.ttc.mean),
                format!("{:.0}", p.ttc.stdev),
                format!("{restarts:.1}"),
            ]);
        }
    }
    println!(
        "{}",
        report::markdown_table(
            &[
                "Scheduler",
                "#Tasks",
                "TTC mean(s)",
                "TTC stdev",
                "mean restarts/run"
            ],
            &rows
        )
    );
}

fn ablation_select(opts: &Options) {
    println!("## Ablation — resource selection: bundle-ranked vs random\n");
    let sizes = sizes(opts).unwrap_or_else(|| vec![256, 1024]);
    let mut rows = Vec::new();
    for ranked in [false, true] {
        let r = run(&paper::selection_ablation(
            ranked,
            opts.reps,
            opts.seed,
            Some(sizes.clone()),
        ));
        for p in &r.points {
            rows.push(vec![
                if ranked { "ranked-by-wait" } else { "random" }.to_string(),
                p.n_tasks.to_string(),
                format!("{:.0}", p.ttc.mean),
                format!("{:.0}", p.tw.mean),
                format!("{:.0}", p.tw.stdev),
            ]);
        }
    }
    println!(
        "{}",
        report::markdown_table(
            &[
                "Selection",
                "#Tasks",
                "TTC mean(s)",
                "Tw mean(s)",
                "Tw stdev"
            ],
            &rows
        )
    );
}

/// Data-heavy regime: grow per-task input until Ts dominates TTC
/// (§IV-B: "Larger amounts of data could make Ts dominant").
fn ablation_data(opts: &Options) {
    println!("## Ablation — data-heavy regime: per-task input size sweep\n");
    let n_tasks = if opts.quick { 64 } else { 256 };
    let mut rows = Vec::new();
    for input_mb in [1.0, 10.0, 50.0, 200.0] {
        let app = bag_of_tasks(
            &format!("data-{input_mb}"),
            n_tasks,
            Distribution::Constant { value: 900.0 },
            input_mb,
            0.002,
        );
        let mut ttcs = Vec::new();
        let mut ts_fracs = Vec::new();
        for rep in 0..opts.reps {
            let seed = SimRng::new(opts.seed)
                .fork_indexed("ablation-data", (input_mb as u64) << 8 | rep as u64)
                .root_seed();
            let mut rng = SimRng::new(seed).fork("submit");
            let submit_at = SimTime::from_secs(rng.uniform(4.0, 16.0) * 3600.0);
            let result = run_application(
                &paper::testbed(),
                &app,
                &paper::late_strategy(3),
                &RunOptions {
                    seed,
                    submit_at,
                    ..Default::default()
                },
            );
            if let Ok(r) = result {
                ttcs.push(r.breakdown.ttc.as_secs());
                ts_fracs.push(r.breakdown.ts.as_secs() / r.breakdown.ttc.as_secs());
            }
        }
        let ttc = Summary::of(&ttcs).expect("runs succeeded");
        let frac = Summary::of(&ts_fracs).expect("runs succeeded");
        rows.push(vec![
            format!("{input_mb:.0}"),
            format!("{:.0}", ttc.mean),
            format!("{:.2}", frac.mean),
        ]);
    }
    println!(
        "{}",
        report::markdown_table(
            &["Input MB/task", "TTC mean(s)", "Ts fraction of TTC"],
            &rows
        )
    );
}

/// Long-task crossover: with Tx ≫ Tw, early binding's bigger pilot wins
/// back (§IV-B: "early binding would still be desirable for applications
/// with a duration of Tx long enough...").
fn ablation_crossover(opts: &Options) {
    println!("## Ablation — task-duration crossover: early vs late binding\n");
    let n_tasks = if opts.quick { 64 } else { 256 };
    let mut rows = Vec::new();
    for task_mins in [15.0, 60.0, 240.0] {
        for (label, strategy) in [
            ("early-1p", paper::early_strategy()),
            ("late-3p", paper::late_strategy(3)),
        ] {
            let app = bag_of_tasks(
                &format!("cross-{task_mins}"),
                n_tasks,
                Distribution::Constant {
                    value: task_mins * 60.0,
                },
                1.0,
                0.002,
            );
            let mut ttcs = Vec::new();
            for rep in 0..opts.reps {
                let seed = SimRng::new(opts.seed)
                    .fork_indexed(&format!("crossover-{label}-{task_mins}"), rep as u64)
                    .root_seed();
                let mut rng = SimRng::new(seed).fork("submit");
                let submit_at = SimTime::from_secs(rng.uniform(4.0, 16.0) * 3600.0);
                if let Ok(r) = run_application(
                    &paper::testbed(),
                    &app,
                    &strategy,
                    &RunOptions {
                        seed,
                        submit_at,
                        ..Default::default()
                    },
                ) {
                    ttcs.push(r.breakdown.ttc.as_secs());
                }
            }
            if let Some(s) = Summary::of(&ttcs) {
                rows.push(vec![
                    format!("{task_mins:.0}"),
                    label.to_string(),
                    format!("{:.0}", s.mean),
                    format!("{:.0}", s.stdev),
                    s.n.to_string(),
                ]);
            }
        }
    }
    println!(
        "{}",
        report::markdown_table(
            &["Task mins", "Strategy", "TTC mean(s)", "TTC stdev", "runs"],
            &rows
        )
    );
}

/// Throughput metric (§V: "generalizing to investigate different metrics
/// including throughput").
fn ablation_throughput(opts: &Options) {
    println!("## Ablation — throughput (tasks/hour) per strategy\n");
    let sizes = sizes(opts).unwrap_or_else(|| vec![256, 1024]);
    let mut rows = Vec::new();
    for id in 1..=4u32 {
        let r = run(&paper::experiment(
            id,
            opts.reps,
            opts.seed,
            Some(sizes.clone()),
        ));
        for p in &r.points {
            if p.ttc.n == 0 {
                continue;
            }
            let tput: Vec<f64> = p
                .runs
                .iter()
                .map(|x| f64::from(x.n_tasks) / (x.breakdown.ttc.as_secs() / 3600.0))
                .collect();
            let eff: Vec<f64> = p.runs.iter().map(|x| x.allocation_efficiency()).collect();
            let s = Summary::of(&tput).expect("non-empty");
            let e = Summary::of(&eff).expect("non-empty");
            rows.push(vec![
                r.id.clone(),
                p.n_tasks.to_string(),
                format!("{:.0}", s.mean),
                format!("{:.0}", s.stdev),
                format!("{:.2}", e.mean),
            ]);
        }
    }
    println!(
        "{}",
        report::markdown_table(
            &[
                "Experiment",
                "#Tasks",
                "tasks/hour mean",
                "stdev",
                "alloc efficiency"
            ],
            &rows
        )
    );
}

/// Heterogeneous task sizes (§V: "distributed applications comprised of
/// non-uniform task sizes").
fn ablation_hetero(opts: &Options) {
    println!("## Ablation — heterogeneous task-duration mixes (late, 3 pilots)\n");
    let n_tasks = if opts.quick { 64 } else { 256 };
    let mixes: Vec<(&str, Distribution)> = vec![
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
    ];
    let mut rows = Vec::new();
    for (label, dist) in mixes {
        let app = bag_of_tasks(&format!("hetero-{label}"), n_tasks, dist, 1.0, 0.002);
        let mut ttcs = Vec::new();
        for rep in 0..opts.reps {
            let seed = SimRng::new(opts.seed)
                .fork_indexed(&format!("hetero-{label}"), rep as u64)
                .root_seed();
            let mut rng = SimRng::new(seed).fork("submit");
            let submit_at = SimTime::from_secs(rng.uniform(4.0, 16.0) * 3600.0);
            if let Ok(r) = run_application(
                &paper::testbed(),
                &app,
                &paper::late_strategy(3),
                &RunOptions {
                    seed,
                    submit_at,
                    ..Default::default()
                },
            ) {
                ttcs.push(r.breakdown.ttc.as_secs());
            }
        }
        if let Some(s) = Summary::of(&ttcs) {
            rows.push(vec![
                label.to_string(),
                format!("{:.0}", s.mean),
                format!("{:.0}", s.stdev),
                s.n.to_string(),
            ]);
        }
    }
    println!(
        "{}",
        report::markdown_table(&["Duration mix", "TTC mean(s)", "TTC stdev", "runs"], &rows)
    );
}

/// Adaptive vs static execution on a deliberately poor initial choice
/// (§V: dynamic execution).
fn ablation_adaptive(opts: &Options) {
    use aimes::adaptive::{run_adaptive, AdaptiveConfig};
    use aimes_strategy::{PilotSizing, ResourceSelection};
    println!("## Ablation — dynamic execution: static vs adaptive strategy\n");
    let n_tasks = if opts.quick { 64 } else { 256 };
    let app = bag_of_tasks(
        "adaptive",
        n_tasks,
        Distribution::Constant { value: 900.0 },
        1.0,
        0.002,
    );
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
            let seed = SimRng::new(opts.seed)
                .fork_indexed("adaptive-pair", rep as u64)
                .root_seed();
            let mut rng = SimRng::new(seed).fork("submit");
            let submit_at = SimTime::from_secs(rng.uniform(4.0, 16.0) * 3600.0);
            let run_opts = RunOptions {
                seed,
                submit_at,
                ..Default::default()
            };
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
            rows.push(vec![
                label.to_string(),
                format!("{:.0}", s.mean),
                format!("{:.0}", s.stdev),
                format!("{:.0}", s.max),
                rescued.to_string(),
                s.n.to_string(),
            ]);
        }
    }
    println!(
        "{}",
        report::markdown_table(
            &[
                "Mode",
                "TTC mean(s)",
                "stdev",
                "max",
                "runs reinforced",
                "runs"
            ],
            &rows
        )
    );
}

/// Walltime-sensitivity: explicitly under/over-requested pilot walltimes
/// (FixedSecs) under backfill vs round robin.
fn ablation_walltime(opts: &Options) {
    use aimes_strategy::{PilotSizing, WalltimePolicy};
    println!("## Ablation — walltime sensitivity (late binding, 2 pilots)\n");
    let n_tasks = if opts.quick { 32 } else { 64 };
    // 2 pilots x (n/4) cores → 2 waves of 900 s each per pilot, ~1900 s
    // needed; sweep the requested walltime across that boundary. An idle
    // pool isolates the walltime effect from queue-wait noise.
    let pool: Vec<aimes_cluster::ClusterConfig> = ["wa", "wb", "wc"]
        .iter()
        .map(|n| aimes_cluster::ClusterConfig::test(n, 4096))
        .collect();
    let app = bag_of_tasks(
        "walltime",
        n_tasks,
        Distribution::Constant { value: 900.0 },
        1.0,
        0.002,
    );
    let mut rows = Vec::new();
    for secs in [1000u64, 2000, 4000, 8000] {
        for scheduler in [
            aimes_pilot::UnitScheduler::Backfill,
            aimes_pilot::UnitScheduler::RoundRobin,
        ] {
            let mut strategy = ExecutionStrategy::paper_late(2);
            strategy.scheduler = scheduler;
            strategy.sizing = PilotSizing::Fixed(n_tasks / 4);
            strategy.walltime = WalltimePolicy::FixedSecs(secs);
            strategy.selection = aimes_strategy::ResourceSelection::Random;
            let mut ttcs = Vec::new();
            let mut failures = 0usize;
            let mut restarts = 0u64;
            for rep in 0..opts.reps {
                let seed = SimRng::new(opts.seed)
                    .fork_indexed(&format!("walltime-{secs}-{scheduler:?}"), rep as u64)
                    .root_seed();
                let mut rng = SimRng::new(seed).fork("submit");
                let submit_at = SimTime::from_secs(rng.uniform(4.0, 16.0) * 3600.0);
                match run_application(
                    &pool,
                    &app,
                    &strategy,
                    &RunOptions {
                        seed,
                        submit_at,
                        ..Default::default()
                    },
                ) {
                    Ok(r) => {
                        ttcs.push(r.breakdown.ttc.as_secs());
                        restarts += r.restarts;
                        if r.units_failed > 0 {
                            failures += 1;
                        }
                    }
                    Err(_) => failures += 1,
                }
            }
            let (mean, n) = match Summary::of(&ttcs) {
                Some(s) => (format!("{:.0}", s.mean), s.n),
                None => ("-".into(), 0),
            };
            rows.push(vec![
                secs.to_string(),
                format!("{scheduler:?}"),
                mean,
                n.to_string(),
                failures.to_string(),
                restarts.to_string(),
            ]);
        }
    }
    println!(
        "{}",
        report::markdown_table(
            &[
                "Walltime(s)",
                "Scheduler",
                "TTC mean(s)",
                "ok runs",
                "degraded/failed",
                "restarts"
            ],
            &rows
        )
    );
}

/// Debug-queue ablation: small short pilots routed to the testbed's
/// high-priority debug queues vs the normal queues — the classic pilot
/// trick of exploiting queue structure (enabled by the Bundle knowing the
/// queue composition).
fn ablation_queue(opts: &Options) {
    use aimes_strategy::ResourceSelection;
    println!("## Ablation — submission queue: normal vs debug (5-min tasks)\n");
    let n_tasks = if opts.quick { 16 } else { 48 };
    // 5-minute tasks keep the late-3p walltime under the 30-min debug
    // ceiling; the pilots are small enough for the debug core caps.
    let app = bag_of_tasks(
        "queue",
        n_tasks,
        Distribution::Constant { value: 300.0 },
        1.0,
        0.002,
    );
    let mut rows = Vec::new();
    for queue in [None, Some("debug".to_string())] {
        let mut strategy = ExecutionStrategy::paper_late(3);
        strategy.selection = ResourceSelection::Random;
        strategy.queue = queue.clone();
        let mut ttcs = Vec::new();
        let mut tws = Vec::new();
        for rep in 0..opts.reps {
            // Paired seeds across the two queue settings.
            let seed = SimRng::new(opts.seed)
                .fork_indexed("queue-pair", rep as u64)
                .root_seed();
            let mut rng = SimRng::new(seed).fork("submit");
            let submit_at = SimTime::from_secs(rng.uniform(4.0, 16.0) * 3600.0);
            if let Ok(r) = run_application(
                &paper::testbed(),
                &app,
                &strategy,
                &RunOptions {
                    seed,
                    submit_at,
                    ..Default::default()
                },
            ) {
                ttcs.push(r.breakdown.ttc.as_secs());
                tws.push(r.breakdown.tw.as_secs());
            }
        }
        if let (Some(t), Some(w)) = (Summary::of(&ttcs), Summary::of(&tws)) {
            rows.push(vec![
                queue.unwrap_or_else(|| "normal".into()),
                format!("{:.0}", t.mean),
                format!("{:.0}", t.max),
                format!("{:.0}", w.mean),
                format!("{:.0}", w.max),
                t.n.to_string(),
            ]);
        }
    }
    println!(
        "{}",
        report::markdown_table(
            &[
                "Queue",
                "TTC mean(s)",
                "TTC max",
                "Tw mean(s)",
                "Tw max",
                "runs"
            ],
            &rows
        )
    );
}

/// Fan a sweep's (arm × rep) jobs across the worker pool through the
/// shared campaign driver, under the observatory the campaign flags ask
/// for. Once the pool is done, every failed run of an arm `gate` accepts
/// prints the shared failure line — with the same `arm=.. rep=.. seed=..`
/// keys the manifest's failure records carry — in job order; the count
/// comes back for [`exit_on_failures`].
fn sweep<'a, A: Sync, T: Send>(
    opts: &Options,
    name: &str,
    arms: &'a [A],
    gate: impl Fn(&A) -> bool,
    build: impl Fn(&'a A, usize) -> CampaignJob<'a> + Sync,
    project: impl Fn(RunResult, &RunOptions) -> T + Sync,
) -> (Vec<Vec<JobOutcome<T>>>, usize) {
    let obs = Observatory::open(
        &opts.campaign,
        name,
        name,
        opts.seed,
        arms.len() * opts.reps,
    );
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

/// The shared `--fail-on-error` exit, taken after the sweep has printed
/// its table.
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

/// Fault sweep: failure rate on the x-axis, measuring what self-healing
/// costs and what it saves. Each rate drives both the per-unit fault
/// chance and the expected random-outage count per resource; every
/// schedule is replayed three ways — oracle recovery (reacts at the
/// injection instant), detection-driven recovery (reacts only to missed
/// heartbeats and tripped breakers), and no recovery. Emits the markdown
/// table plus a JSON block for downstream plotting. With
/// `--fail-on-error`, any failed run in a healing arm (oracle or detect)
/// exits non-zero — the chaos-smoke CI gate.
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
    let pool: Vec<aimes_cluster::ClusterConfig> = ["fa", "fb", "fc"]
        .iter()
        .map(|n| aimes_cluster::ClusterConfig::test(n, 4096))
        .collect();
    let app = bag_of_tasks(
        "faults",
        n_tasks,
        Distribution::Constant { value: 900.0 },
        1.0,
        0.002,
    );
    let mut strategy = ExecutionStrategy::paper_late(2);
    strategy.selection = aimes_strategy::ResourceSelection::Random;
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
            // Same seed for all three recovery arms: identical fault
            // schedules, the only difference is how the run heals.
            let seed = SimRng::new(opts.seed)
                .fork_indexed(&format!("faults-{rate}"), rep as u64)
                .root_seed();
            let mut rng = SimRng::new(seed).fork("submit");
            let submit_at = SimTime::from_secs(rng.uniform(4.0, 16.0) * 3600.0);
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
                    seed,
                    submit_at,
                    faults: Some(faults),
                    recovery,
                    recorder_dump_dir: opts.dump_dir.clone(),
                    run_tag: Some(format!("faults-{rate}-{mode}-r{rep}")),
                    ..Default::default()
                },
            }
        },
        |r, _| r,
    );

    let mut rows = Vec::new();
    let mut points: Vec<SweepPoint> = Vec::new();
    for (&(rate, mode), runs) in arms.iter().zip(&outcomes) {
        let done = completed(runs);
        let ttc = mean_of(&done, |r| r.breakdown.ttc.as_secs());
        let tr = mean_of(&done, |r| r.breakdown.tr.as_secs());
        let td = mean_of(&done, |r| r.breakdown.td.as_secs());
        let wasted = mean_of(&done, |r| r.wasted_core_hours);
        let restarts: u64 = done.iter().map(|r| r.restarts).sum();
        let replacements: u64 = done.iter().map(|r| r.replacements).sum();
        let replans: u64 = done.iter().map(|r| r.replans).sum();
        let false_suspicions: u64 = done.iter().map(|r| r.false_suspicions).sum();
        rows.push(vec![
            format!("{rate:.2}"),
            mode.to_string(),
            format!("{}/{}", done.len(), opts.reps),
            if done.is_empty() {
                "-".into()
            } else {
                format!("{ttc:.0}")
            },
            format!("{tr:.0}"),
            format!("{td:.0}"),
            format!("{wasted:.2}"),
            restarts.to_string(),
            replacements.to_string(),
            replans.to_string(),
            false_suspicions.to_string(),
        ]);
        points.push(SweepPoint {
            failure_rate: rate,
            recovery: mode.to_string(),
            reps: opts.reps,
            completed: done.len(),
            ttc_mean_secs: ttc,
            tr_mean_secs: tr,
            td_mean_secs: td,
            wasted_core_hours_mean: wasted,
            restarts,
            replacements,
            replans,
            false_suspicions,
            errors: error_classes(runs),
        });
    }
    println!(
        "{}",
        report::markdown_table(
            &[
                "Rate",
                "Recovery",
                "Completed",
                "TTC mean(s)",
                "Tr mean(s)",
                "Td mean(s)",
                "Wasted(ch)",
                "Restarts",
                "Replacements",
                "Replans",
                "FalseSusp"
            ],
            &rows
        )
    );
    println!(
        "\n### JSON\n```json\n{}\n```",
        serde_json::to_string_pretty(&points).expect("sweep points serialize")
    );
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
    let pool: Vec<aimes_cluster::ClusterConfig> = ["ca", "cb", "cc", "cd", "ce", "cf"]
        .iter()
        .map(|n| aimes_cluster::ClusterConfig::test(n, 4096))
        .collect();
    let app = bag_of_tasks(
        "cascade",
        n_tasks,
        Distribution::Constant { value: 900.0 },
        1.0,
        0.002,
    );
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
            // Same seed across all three arms: identical cascade
            // schedules, the only difference is how the run survives.
            let seed = SimRng::new(opts.seed)
                .fork_indexed("cascade", rep as u64)
                .root_seed();
            let mut rng = SimRng::new(seed).fork("submit");
            let submit_at = SimTime::from_secs(rng.uniform(4.0, 16.0) * 3600.0);
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
                    seed,
                    submit_at,
                    faults: Some(faults.clone()),
                    recovery: Some(recovery),
                    journal: Some(Default::default()),
                    recorder_dump_dir: opts.dump_dir.clone(),
                    run_tag: Some(format!("cascade-{arm}-r{rep}")),
                    ..Default::default()
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

    let mut rows = Vec::new();
    let mut points: Vec<SweepPoint> = Vec::new();
    for (arm, runs) in arms.iter().zip(&outcomes) {
        let done = completed(runs);
        let ttc = mean_of(&done, |(r, _)| r.breakdown.ttc.as_secs());
        let wasted = mean_of(&done, |(r, _)| r.wasted_core_hours);
        let salvaged = mean_of(&done, |(r, _)| r.salvaged_core_hours);
        let leads: Vec<f64> = done
            .iter()
            .filter_map(|(_, tl)| tl.evacuation_lead_secs)
            .collect();
        let lead_mean = (!leads.is_empty()).then(|| mean(&leads));
        let count = |f: fn(&aimes_analytics::timeline::SessionTimelines) -> u32| -> u64 {
            done.iter().map(|(_, tl)| u64::from(f(tl))).sum()
        };
        let domain_alarms = count(|tl| tl.domain_alarms);
        let evacuations = count(|tl| tl.evacuations);
        let checkpoints = count(|tl| tl.checkpoints);
        let resumes = count(|tl| tl.resumes);
        rows.push(vec![
            arm.to_string(),
            format!("{}/{}", done.len(), opts.reps),
            if done.is_empty() {
                "-".into()
            } else {
                format!("{ttc:.0}")
            },
            format!("{wasted:.2}"),
            format!("{salvaged:.2}"),
            lead_mean.map_or("-".into(), |l| format!("{l:.0}")),
            domain_alarms.to_string(),
            evacuations.to_string(),
            checkpoints.to_string(),
            resumes.to_string(),
        ]);
        points.push(SweepPoint {
            arm: arm.to_string(),
            reps: opts.reps,
            completed: done.len(),
            ttc_mean_secs: ttc,
            wasted_core_hours_mean: wasted,
            salvaged_core_hours_mean: salvaged,
            evacuation_lead_mean_secs: lead_mean,
            domain_alarms,
            evacuations,
            checkpoints,
            resumes,
            errors: error_classes(runs),
        });
    }
    println!(
        "{}",
        report::markdown_table(
            &[
                "Arm",
                "Completed",
                "TTC mean(s)",
                "Wasted(ch)",
                "Salvaged(ch)",
                "EvacLead(s)",
                "Alarms",
                "Evacuations",
                "Checkpoints",
                "Resumes"
            ],
            &rows
        )
    );
    println!(
        "\n### JSON\n```json\n{}\n```",
        serde_json::to_string_pretty(&points).expect("sweep points serialize")
    );
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
    let app = bag_of_tasks(
        "info",
        n_tasks,
        Distribution::Constant { value: 900.0 },
        1.0,
        0.002,
    );
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
        |(arm, info, faults), rep| {
            // Same seed across arms: identical workload, background load,
            // and submission instant — only the information regime moves.
            let seed = SimRng::new(opts.seed)
                .fork_indexed("info", rep as u64)
                .root_seed();
            let mut rng = SimRng::new(seed).fork("submit");
            let submit_at = SimTime::from_secs(rng.uniform(4.0, 16.0) * 3600.0);
            CampaignJob {
                arm: arm.to_string(),
                resources: &testbed,
                app: &app,
                strategy: &strategy,
                options: RunOptions {
                    seed,
                    submit_at,
                    faults: faults.clone(),
                    info: info.clone(),
                    // Each run's own registry; the `bundle.info.*`
                    // counters come back in `RunResult::metrics`.
                    telemetry: Some(Telemetry::new()),
                    recorder_dump_dir: opts.dump_dir.clone(),
                    run_tag: Some(format!("info-{arm}-r{rep}")),
                    ..Default::default()
                },
            }
        },
        |r, _| r,
    );

    let mut rows = Vec::new();
    let mut points = Vec::new();
    for ((arm, _, _), runs) in arms.iter().zip(&outcomes) {
        let done = completed(runs);
        let ttcs: Vec<f64> = done.iter().map(|r| r.breakdown.ttc.as_secs()).collect();
        let info_fallbacks: u64 = done.iter().map(|r| r.info_fallbacks).sum();
        let stale_secs = done.iter().fold(0.0, |acc, r| acc + r.stale_decision_secs);
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
        let (mean, max) = match Summary::of(&ttcs) {
            Some(s) => (s.mean, s.max),
            None => (0.0, 0.0),
        };
        let c = |k: &str| counters.get(k).copied().unwrap_or(0);
        rows.push(vec![
            arm.to_string(),
            format!("{}/{}", done.len(), opts.reps),
            format!("{mean:.0}"),
            format!("{max:.0}"),
            c("fresh").to_string(),
            c("cache_hit").to_string(),
            (c("corrupt") + c("unavailable")).to_string(),
            c("fallback_stale_cache").to_string(),
            c("fallback_predictor").to_string(),
            c("fallback_static").to_string(),
            info_fallbacks.to_string(),
            format!("{stale_secs:.0}"),
        ]);
        points.push(InfoPoint {
            arm: arm.to_string(),
            reps: opts.reps,
            completed: done.len(),
            ttc_mean_secs: mean,
            ttc_max_secs: max,
            info_fallbacks,
            stale_decision_secs: stale_secs,
            counters,
        });
    }
    println!(
        "{}",
        report::markdown_table(
            &[
                "Arm",
                "Completed",
                "TTC mean(s)",
                "TTC max(s)",
                "Fresh",
                "CacheHit",
                "Degraded",
                "StaleFB",
                "PredFB",
                "StaticFB",
                "InfoFB",
                "Stale(s)"
            ],
            &rows
        )
    );
    println!(
        "\n### JSON\n```json\n{}\n```",
        serde_json::to_string_pretty(&points).expect("info points serialize")
    );
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
    let pool: Vec<aimes_cluster::ClusterConfig> = ["da", "db"]
        .iter()
        .map(|n| aimes_cluster::ClusterConfig::test(n, 4096))
        .collect();
    let app = bag_of_tasks(
        "detection",
        n_tasks,
        Distribution::Constant { value: 900.0 },
        1.0,
        0.002,
    );
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
            // Same seed across configs: the paired comparison isolates
            // detector tuning from schedule noise.
            let seed = SimRng::new(opts.seed)
                .fork_indexed("detection", rep as u64)
                .root_seed();
            let mut rng = SimRng::new(seed).fork("submit");
            let submit_at = SimTime::from_secs(rng.uniform(4.0, 16.0) * 3600.0);
            CampaignJob {
                arm: label.to_string(),
                resources: &pool,
                app: &app,
                strategy: &strategy,
                options: RunOptions {
                    seed,
                    submit_at,
                    faults: Some(faults.clone()),
                    recovery: Some(recovery),
                    recorder_dump_dir: opts.dump_dir.clone(),
                    run_tag: Some(format!("detection-{label}-r{rep}")),
                    ..Default::default()
                },
            }
        },
        |r, _| r,
    );

    let mut rows = Vec::new();
    for ((label, _), runs) in configs.iter().zip(&outcomes) {
        let done = completed(runs);
        rows.push(vec![
            label.to_string(),
            format!("{}/{}", done.len(), opts.reps),
            format!("{:.0}", mean_of(&done, |r| r.breakdown.ttc.as_secs())),
            format!("{:.0}", mean_of(&done, |r| r.breakdown.tr.as_secs())),
            format!("{:.0}", mean_of(&done, |r| r.breakdown.td.as_secs())),
            format!("{:.0}", mean_of(&done, |r| r.mean_detection_secs)),
            done.iter().map(|r| r.replans).sum::<u64>().to_string(),
            done.iter()
                .map(|r| r.false_suspicions)
                .sum::<u64>()
                .to_string(),
        ]);
    }
    println!(
        "{}",
        report::markdown_table(
            &[
                "Detector",
                "Completed",
                "TTC mean(s)",
                "Tr mean(s)",
                "Td mean(s)",
                "MeanTd(s)",
                "Replans",
                "FalseSusp"
            ],
            &rows
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
/// scored against realized pilot waits on a saturated machine.
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
            let cluster3 = cluster2.clone();
            let submit_time = sim.now();
            cluster2.watch(id, move |sim, state| {
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
                    let _ = &cluster3;
                }
            });
        });
    }
    sim.run_until(SimTime::from_secs(10.0 * 24.0 * 3600.0));

    let obs = observations.borrow();
    let score = |name: &str, pick: &dyn Fn(&Obs) -> Option<f64>, bound: bool| -> Vec<String> {
        let pairs: Vec<(f64, f64)> = obs
            .iter()
            .filter_map(|o| pick(o).map(|p| (p, o.3)))
            .collect();
        if pairs.is_empty() {
            return vec![name.into(), "-".into(), "-".into(), "-".into(), "0".into()];
        }
        let n = pairs.len() as f64;
        let mae = pairs.iter().map(|(p, r)| (p - r).abs()).sum::<f64>() / n;
        let bias = pairs.iter().map(|(p, r)| p - r).sum::<f64>() / n;
        let coverage = pairs.iter().filter(|(p, r)| r <= p).count() as f64 / n;
        vec![
            name.into(),
            format!("{mae:.0}"),
            format!("{bias:+.0}"),
            if bound {
                format!("{:.0} %", coverage * 100.0)
            } else {
                "-".into()
            },
            pairs.len().to_string(),
        ]
    };
    let rows = vec![
        score("qbets-95/95", &|o: &Obs| o.0, true),
        score("exp-smoothing", &|o: &Obs| o.1, false),
        score("queue-replay", &|o: &Obs| o.2, true),
    ];
    println!(
        "{}",
        report::markdown_table(
            &[
                "Predictor",
                "MAE(s)",
                "bias(s)",
                "coverage (bound)",
                "probes"
            ],
            &rows
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
    let alloc_before = heap::snapshot();
    let mut run_walls: Vec<f64> = Vec::new();
    let mut engine = EngineStats::default();
    let wall_started = std::time::Instant::now();
    {
        let _harness = prof.scope("harness");
        for n in &cfg.task_counts {
            for rep in 0..cfg.repetitions {
                let seed = cfg.run_seed(*n, rep);
                let submit_at = cfg.submit_instant(seed);
                let t_run = std::time::Instant::now();
                run_application(
                    &cfg.resources,
                    &cfg.skeleton(*n),
                    &cfg.strategy,
                    &RunOptions {
                        seed,
                        submit_at,
                        profiler: Some(prof.clone()),
                        ..Default::default()
                    },
                )
                .unwrap_or_else(|e| panic!("profile run failed: {e}"));
                run_walls.push(t_run.elapsed().as_secs_f64());
                // The engine handle overwrites its counters at each run's
                // exit; fold them here so the document sums every run.
                engine.merge(&prof.report().engine);
            }
        }
    }
    let total_wall = wall_started.elapsed().as_secs_f64();
    let mut report = prof.report();
    report.engine = engine;
    let delta = heap::snapshot().since(&alloc_before);
    let events = engine.events_processed;
    let alloc = AllocSection {
        allocs: delta.allocs,
        bytes_allocated: delta.bytes_allocated,
        peak_bytes: delta.peak_bytes,
        allocs_per_event: if events > 0 {
            delta.allocs as f64 / events as f64
        } else {
            0.0
        },
    };
    let doc = ProfileDoc::build(
        "profile",
        opts.seed,
        run_walls.len() as u64,
        &report,
        Some(TimingInputs {
            total_wall_secs: total_wall,
            sequential: true,
            run_walls,
            alloc: Some(alloc),
        }),
    );
    if let Err(e) = doc.validate() {
        eprintln!("internal error: produced invalid profile doc: {e}");
        std::process::exit(2);
    }
    println!("```\n{}```\n", profile::self_time_table(&report, 16));
    let coverage = doc.timing.as_ref().and_then(|t| t.coverage).unwrap_or(0.0);
    println!(
        "wall {total_wall:.3} s | attributed {:.3} s | coverage {:.1}% | \
         {events} events | {:.1} allocs/event",
        report.attributed_secs(),
        100.0 * coverage,
        alloc.allocs_per_event
    );
    let json = serde_json::to_string_pretty(&doc).expect("profile doc serializes");
    match opts.campaign.profile_out.as_ref().or(opts.out.as_ref()) {
        Some(path) => {
            if let Err(e) = std::fs::write(path, format!("{json}\n")) {
                eprintln!("cannot write profile doc {}: {e}", path.display());
                std::process::exit(2);
            }
            eprintln!("wrote profile doc {}", path.display());
        }
        None => println!("\n### JSON\n```json\n{json}\n```"),
    }
}

fn main() {
    let (command, opts) = parse_args();
    if let Some(jobs) = opts.jobs {
        rayon::ThreadPoolBuilder::new()
            .num_threads(jobs)
            .build_global()
            .expect("configure worker pool");
    }
    match command.as_str() {
        "table1" => table1(),
        "fig2" => fig2(&opts),
        "fig3" => fig3(&opts),
        "fig4" => fig4(&opts),
        "ablation-pilots" => ablation_pilots(&opts),
        "ablation-sched" => ablation_sched(&opts),
        "ablation-select" => ablation_select(&opts),
        "ablation-data" => ablation_data(&opts),
        "ablation-crossover" => ablation_crossover(&opts),
        "ablation-throughput" => ablation_throughput(&opts),
        "ablation-hetero" => ablation_hetero(&opts),
        "ablation-adaptive" => ablation_adaptive(&opts),
        "ablation-walltime" => ablation_walltime(&opts),
        "ablation-queue" => ablation_queue(&opts),
        "ablation-predictor" => ablation_predictor(&opts),
        "ablation-faults" => ablation_faults(&opts),
        "ablation-detection" => ablation_detection(&opts),
        "ablation-info" => ablation_info(&opts),
        "ablation-cascade" => ablation_cascade(&opts),
        "telemetry" => telemetry_run(&opts),
        "profile" => profile_cmd(&opts),
        "journal" => journal_cmd(&opts),
        "analyze" => analyze_cmd(&opts),
        "analytics-diff" => analytics_diff_cmd(&opts),
        "campaign-report" => campaign_report_cmd(&opts),
        "all" => {
            table1();
            // Run experiments 1-4 once and render both figures from them.
            let results = experiments_1_to_4(&opts);
            let refs: Vec<&ExperimentResult> = results.iter().collect();
            println!("## Figure 2 — TTC comparison, experiments 1-4\n");
            println!("{}", report::fig2_table(&refs));
            println!("```\n{}```\n", report::fig2_chart(&refs));
            println!("## Figure 3 — TTC decomposition per experiment\n");
            for (panel, r) in ["(a)", "(b)", "(c)", "(d)"].iter().zip(&results) {
                println!("### {panel} {}", report::fig3_table(r));
            }
            println!("## Figure 4 — TTC error bars\n");
            println!("### (a) {}", report::fig4_table(&results[0]));
            println!("### (b) {}", report::fig4_table(&results[2]));
            println!("### CSV\n```\n{}```", report::csv_export(&refs));
            ablation_pilots(&opts);
            ablation_sched(&opts);
            ablation_select(&opts);
            ablation_data(&opts);
            ablation_crossover(&opts);
            ablation_throughput(&opts);
            ablation_hetero(&opts);
            ablation_adaptive(&opts);
            ablation_walltime(&opts);
            ablation_queue(&opts);
            ablation_predictor(&opts);
            ablation_faults(&opts);
            ablation_detection(&opts);
            ablation_info(&opts);
            ablation_cascade(&opts);
        }
        "help" => println!("{USAGE}"),
        other => {
            eprintln!("unknown command `{other}`\n{USAGE}");
            std::process::exit(2);
        }
    }
}
