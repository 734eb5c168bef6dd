//! The experiments binary's sweeps must be worker-count invariant end to
//! end: same command at `--jobs 1` and `--jobs 4` ⇒ byte-identical stdout
//! (tables + JSON blocks) and stderr (failure lines), and — when a
//! campaign manifest is requested — a byte-identical `campaign.jsonl`.
//! Every sweep's outputs are also pinned by digest, so a change to the
//! shared sweep plumbing cannot move them unnoticed.
//! This drives the real CLI, so it covers flag parsing, pool
//! configuration, the fanned-out run loop, the order-sensitive
//! aggregation/printing path, and the manifest canonicalization.

use std::process::Command;

fn run_sweep(command: &str, jobs: &str) -> (String, String) {
    run_sweep_with(command, jobs, &[])
}

fn run_sweep_with(command: &str, jobs: &str, extra: &[&str]) -> (String, String) {
    let mut args = vec![
        command, "--quick", "--reps", "2", "--seed", "42", "--jobs", jobs,
    ];
    args.extend_from_slice(extra);
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(&args)
        .output()
        .expect("experiments binary runs");
    assert!(
        out.status.success(),
        "{command} --jobs {jobs} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
    )
}

/// Progress is opt-in: at defaults, sweep stderr must carry no live
/// status line (no carriage returns, no `[campaign]` marker) — that is
/// what keeps the stderr byte-compare gates meaningful.
fn assert_no_progress_output(command: &str, stderr: &str) {
    assert!(
        !stderr.contains('\r') && !stderr.contains("[campaign]"),
        "{command}: progress output leaked into default stderr: {stderr:?}"
    );
}

/// Same sweep at `--jobs 1` and `--jobs 4`: byte-identical stdout and
/// stderr, `sanity` rendered, and no progress output at defaults. Returns
/// the stdout.
fn assert_jobs_invariant(command: &str, sanity: &str) -> String {
    let (out1, err1) = run_sweep(command, "1");
    let (out4, err4) = run_sweep(command, "4");
    assert!(
        out1.contains(sanity),
        "{command}: sanity: {sanity:?} rendered"
    );
    assert_eq!(
        out1, out4,
        "{command}: stdout diverged between --jobs 1 and 4"
    );
    assert_eq!(
        err1, err4,
        "{command}: stderr diverged between --jobs 1 and 4"
    );
    assert_no_progress_output(command, &err1);
    out1
}

#[test]
fn ablation_detection_output_is_byte_identical_across_jobs() {
    assert_jobs_invariant("ablation-detection", "| Detector");
}

#[test]
fn ablation_cascade_output_is_byte_identical_across_jobs() {
    assert_jobs_invariant("ablation-cascade", "### JSON");
}

#[test]
fn ablation_faults_output_is_byte_identical_across_jobs() {
    assert_jobs_invariant("ablation-faults", "### JSON");
}

#[test]
fn ablation_info_output_is_byte_identical_across_jobs() {
    assert_jobs_invariant("ablation-info", "### JSON");
}

/// FNV-1a 64 over arbitrary bytes, as hex (the digest the golden-journal
/// suite uses).
fn fnv(bytes: &[u8]) -> String {
    format!("{:016x}", aimes::recorder::fnv1a64(bytes))
}

/// Digests of each sweep's stdout, stderr (both at default flags), its
/// `--campaign-out` manifest and its `--profile-out` document at
/// `--quick --reps 2 --seed 42`, captured before the four sweeps shared
/// one campaign driver. A refactor of the sweep plumbing must leave
/// every one of them unchanged; a deliberate output change re-pins them
/// and says why. The profile digests moved when the clusters' warm-up
/// left the engine: fewer `engine.dispatch` calls and a new
/// `cluster.warmup` label. They moved again when the unit manager
/// stopped posting passes that could place nothing: fewer engine events,
/// `engine.dispatch` and `unit.manager` calls, and (`ablation-faults`) a
/// pending high-water mark one lower.
const PARENT_DIGESTS: [(&str, [&str; 4]); 4] = [
    (
        "ablation-faults",
        [
            "04d2120e942adb18",
            "cbf29ce484222325",
            "f79ec488eaa74a46",
            "7904bc7433ba58c1",
        ],
    ),
    (
        "ablation-detection",
        [
            "11fb8eb031c9229d",
            "cbf29ce484222325",
            "409e2023a45c02ba",
            "ed3b7800ea7231b6",
        ],
    ),
    (
        "ablation-info",
        [
            "5321ff7cdec4d547",
            "cbf29ce484222325",
            "7b52bf186f0cd376",
            "1b723c030ce7de0d",
        ],
    ),
    (
        "ablation-cascade",
        [
            "a07c662629dacda1",
            "cbf29ce484222325",
            "35fc560a85d69ebf",
            "53d00eac963cf4cd",
        ],
    ),
];

/// Stdout digests of the two ablations that run outside the sweep driver
/// at `--quick --reps 2 --seed 42`: `ablation-adaptive` (its own runner,
/// pinned before `run_application` and `run_adaptive` shared one set of
/// run phases) and `ablation-predictor` (no middleware at all).
const OUTSIDE_SWEEP_DIGESTS: [(&str, &str); 2] = [
    ("ablation-adaptive", "1ab077b695be0c82"),
    ("ablation-predictor", "35bcd9ff8bd799ac"),
];

#[test]
fn outside_sweep_ablation_outputs_match_pinned_digests() {
    for (command, want) in OUTSIDE_SWEEP_DIGESTS {
        let (out, _) = run_sweep(command, "1");
        assert_eq!(fnv(out.as_bytes()), want, "{command}: stdout digest moved");
    }
}

/// Stdout digests of Table I, the three figures and the four ablations
/// built on Table I's experiment configurations, at `--quick --reps 2
/// --seed 42`, captured while they still ran through their own
/// per-experiment loop.
const EXPERIMENT_DIGESTS: [(&str, &str); 8] = [
    ("table1", "0335b59389ade0cd"),
    ("fig2", "9270dd1c6a082bd0"),
    ("fig3", "4c5635b2ef39a77a"),
    ("fig4", "212527d8d41add64"),
    ("ablation-pilots", "abff4ade9fcaeaf2"),
    ("ablation-sched", "cc22e877d7ba06b2"),
    ("ablation-select", "cd59a0374d0f45f6"),
    ("ablation-throughput", "e49368a81a4618cf"),
];

#[test]
fn experiment_outputs_match_pinned_digests() {
    for (command, want) in EXPERIMENT_DIGESTS {
        let (out, _) = run_sweep(command, "1");
        assert_eq!(fnv(out.as_bytes()), want, "{command}: stdout digest moved");
    }
}

#[test]
fn experiment_outputs_are_byte_identical_across_jobs() {
    for (command, _) in EXPERIMENT_DIGESTS {
        assert_jobs_invariant(command, "| #Tasks");
    }
}

/// `all` renders Table I, the figures and the ablations through the same
/// code as their own commands, so its stdout is theirs, concatenated in
/// its order.
#[test]
fn all_prints_its_commands_in_order() {
    let commands = [
        "table1",
        "fig2",
        "fig3",
        "fig4",
        "ablation-pilots",
        "ablation-sched",
        "ablation-select",
        "ablation-data",
        "ablation-crossover",
        "ablation-throughput",
        "ablation-hetero",
        "ablation-adaptive",
        "ablation-walltime",
        "ablation-queue",
        "ablation-predictor",
        "ablation-faults",
        "ablation-detection",
        "ablation-info",
        "ablation-cascade",
    ];
    let concatenated: String = commands.iter().map(|c| run_sweep(c, "2").0).collect();
    let (all, _) = run_sweep("all", "2");
    assert!(
        all == concatenated,
        "all's stdout is not its commands' stdouts"
    );
}

/// Stdout digests (with a line each table renders) of the sweeps that ran
/// their own sequential loops before they moved onto the shared campaign
/// driver, at `--quick --reps 2 --seed 42`, captured before the move.
/// `ablation-data` was re-pinned when its seeds were keyed per input size
/// (the packed `(MB << 8) | rep` key repeated seeds past 256 reps).
const MOVED_SWEEP_DIGESTS: [(&str, &str, &str); 5] = [
    ("ablation-data", "| Input MB/task", "39401309445825f3"),
    ("ablation-crossover", "| Task mins", "f346bbb35b9e5f6a"),
    ("ablation-hetero", "| Duration mix", "70605002005fa6dc"),
    ("ablation-walltime", "| Walltime(s)", "852bb7b9958cdc5e"),
    ("ablation-queue", "| Queue", "17a501386b73b6e4"),
];

#[test]
fn moved_sweep_outputs_are_byte_identical_across_jobs_and_pinned() {
    for (command, sanity, want) in MOVED_SWEEP_DIGESTS {
        let out = assert_jobs_invariant(command, sanity);
        assert_eq!(fnv(out.as_bytes()), want, "{command}: stdout digest moved");
    }
}

#[test]
fn sweep_outputs_match_pinned_digests_at_any_jobs() {
    let dir = std::env::temp_dir().join(format!("aimes-sweep-parity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    for (command, want) in PARENT_DIGESTS {
        for jobs in ["1", "4"] {
            let (out, err) = run_sweep(command, jobs);
            let manifest = dir.join(format!("{command}-j{jobs}.jsonl"));
            let profile = dir.join(format!("{command}-j{jobs}-profile.json"));
            run_sweep_with(
                command,
                jobs,
                &[
                    "--campaign-out",
                    manifest.to_str().unwrap(),
                    "--profile-out",
                    profile.to_str().unwrap(),
                ],
            );
            let got = [
                fnv(out.as_bytes()),
                fnv(err.as_bytes()),
                fnv(&std::fs::read(&manifest).expect("manifest written")),
                fnv(&std::fs::read(&profile).expect("profile doc written")),
            ];
            assert_eq!(
                got, want,
                "{command} --jobs {jobs}: [stdout, stderr, manifest, profile] digests moved"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn campaign_manifest_is_byte_identical_across_jobs() {
    let dir = std::env::temp_dir().join(format!("aimes-jobs-invariance-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let moved = MOVED_SWEEP_DIGESTS.map(|(command, _, _)| command);
    for command in std::iter::once("ablation-detection").chain(moved) {
        let manifest_at = |jobs: &str| {
            let path = dir.join(format!("{command}-j{jobs}.jsonl"));
            run_sweep_with(command, jobs, &["--campaign-out", path.to_str().unwrap()]);
            std::fs::read(&path).expect("manifest written")
        };
        let m1 = manifest_at("1");
        let m4 = manifest_at("4");
        assert!(!m1.is_empty(), "{command}: manifest not empty");
        assert_eq!(
            m1, m4,
            "{command}: campaign.jsonl diverged between --jobs 1 and 4 — \
             canonicalization or a volatile default field is broken"
        );

        // The canonical manifest parses, validates, and covers every job.
        let text = String::from_utf8(m1).expect("utf8 manifest");
        let manifest = aimes::campaign::read_manifest(&text).expect("manifest parses");
        manifest.validate().expect("manifest validates");
        assert_eq!(manifest.meta.command, command);
        assert_eq!(manifest.runs.len() as u64, manifest.meta.total_jobs);
        // Defaults are the deterministic mode: no timing, no pool record.
        assert!(manifest.runs.iter().all(|r| r.timing.is_none()));
        assert!(manifest.pool.is_none());
    }
    std::fs::remove_dir_all(&dir).ok();
}
