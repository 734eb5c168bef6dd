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
/// stderr, `sanity` rendered, and no progress output at defaults.
fn assert_jobs_invariant(command: &str, sanity: &str) {
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

/// FNV-1a 64 over arbitrary bytes (the digest the golden-journal suite
/// uses).
fn fnv(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Digests of each sweep's stdout, stderr (both at default flags), its
/// `--campaign-out` manifest and its `--profile-out` document at
/// `--quick --reps 2 --seed 42`, captured before the four sweeps shared
/// one campaign driver. A refactor of the sweep plumbing must leave
/// every one of them unchanged; a deliberate output change re-pins them
/// and says why.
const PARENT_DIGESTS: [(&str, [&str; 4]); 4] = [
    (
        "ablation-faults",
        [
            "04d2120e942adb18",
            "cbf29ce484222325",
            "f79ec488eaa74a46",
            "b04b7596390d54ef",
        ],
    ),
    (
        "ablation-detection",
        [
            "11fb8eb031c9229d",
            "cbf29ce484222325",
            "409e2023a45c02ba",
            "d5d1054600a69697",
        ],
    ),
    (
        "ablation-info",
        [
            "5321ff7cdec4d547",
            "cbf29ce484222325",
            "7b52bf186f0cd376",
            "50a42a5cf5f23884",
        ],
    ),
    (
        "ablation-cascade",
        [
            "a07c662629dacda1",
            "cbf29ce484222325",
            "35fc560a85d69ebf",
            "45c5c377bd3f4de3",
        ],
    ),
];

/// Stdout digests of the two sequential ablations that run through
/// `run_application`/`run_adaptive` directly (no campaign driver) at
/// `--quick --reps 2 --seed 42`, captured before both runners shared one
/// set of run phases. Restructuring a run must leave them unchanged.
const SEQUENTIAL_DIGESTS: [(&str, &str); 2] = [
    ("ablation-adaptive", "1ab077b695be0c82"),
    ("ablation-walltime", "852bb7b9958cdc5e"),
];

#[test]
fn sequential_ablation_outputs_match_pinned_digests() {
    for (command, want) in SEQUENTIAL_DIGESTS {
        let (out, _) = run_sweep(command, "1");
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
    let path1 = dir.join("campaign-j1.jsonl");
    let path4 = dir.join("campaign-j4.jsonl");

    run_sweep_with(
        "ablation-detection",
        "1",
        &["--campaign-out", path1.to_str().unwrap()],
    );
    run_sweep_with(
        "ablation-detection",
        "4",
        &["--campaign-out", path4.to_str().unwrap()],
    );

    let m1 = std::fs::read(&path1).expect("manifest at --jobs 1");
    let m4 = std::fs::read(&path4).expect("manifest at --jobs 4");
    assert!(!m1.is_empty(), "manifest not empty");
    assert_eq!(
        m1, m4,
        "campaign.jsonl diverged between --jobs 1 and 4 — canonicalization \
         or a volatile default field is broken"
    );

    // The canonical manifest parses, validates, and covers every job.
    let text = String::from_utf8(m1).expect("utf8 manifest");
    let manifest = aimes::campaign::read_manifest(&text).expect("manifest parses");
    manifest.validate().expect("manifest validates");
    assert_eq!(manifest.meta.command, "ablation-detection");
    assert_eq!(manifest.runs.len() as u64, manifest.meta.total_jobs);
    // Defaults are the deterministic mode: no timing, no pool record.
    assert!(manifest.runs.iter().all(|r| r.timing.is_none()));
    assert!(manifest.pool.is_none());

    std::fs::remove_file(&path1).ok();
    std::fs::remove_file(&path4).ok();
}
