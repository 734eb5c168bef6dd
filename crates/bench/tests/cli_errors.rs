//! The experiments CLI rejects mistakes with exit status 2 and a message
//! on stderr instead of panicking or passing silently: a misspelled
//! command, a value flag without its value, zero repetitions, and a
//! campaign flag on a command that runs no single campaign. Running
//! with no command (or `help`) still prints the usage and succeeds, and
//! every multi-run command that runs a campaign takes the campaign flags.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs")
}

fn assert_rejected(args: &[&str], message: &str) {
    let out = experiments(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
    assert!(
        stderr.contains(message),
        "{args:?}: expected {message:?} on stderr, got {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
}

#[test]
fn unknown_command_exits_2_with_usage_on_stderr() {
    assert_rejected(&["nosuchcmd"], "unknown command `nosuchcmd`");
    assert_rejected(&["nosuchcmd"], "commands: table1");
}

#[test]
fn value_flag_without_a_value_exits_2() {
    assert_rejected(&["table1", "--reps"], "`--reps` needs a value");
    assert_rejected(
        &["fig2", "--campaign-out"],
        "`--campaign-out` needs a value",
    );
}

#[test]
fn zero_repetitions_are_rejected() {
    assert_rejected(
        &["ablation-data", "--quick", "--reps", "0"],
        "`--reps` must be at least 1",
    );
}

#[test]
fn no_command_prints_usage_and_succeeds() {
    for args in [&[][..], &["help"][..]] {
        let out = experiments(args);
        assert!(out.status.success(), "{args:?} failed");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("commands: table1"), "{args:?}: {stdout}");
    }
}

#[test]
fn campaign_flags_without_a_campaign_exit_2() {
    let manifest = std::env::temp_dir().join(format!("aimes-cli-{}.jsonl", std::process::id()));
    let manifest = manifest.to_str().unwrap();
    assert_rejected(
        &["all", "--quick", "--campaign-out", manifest],
        "`--campaign-out` needs a command that runs one sweep; `all` does not",
    );
    assert_rejected(&["table1", "--campaign-timing"], "`--campaign-timing`");
    assert_rejected(&["ablation-adaptive", "--progress"], "`--progress`");
    assert_rejected(&["telemetry", "--profile-out", manifest], "`--profile-out`");
    assert_rejected(&["profile", "--progress"], "`--progress`");
    assert!(
        !std::path::Path::new(manifest).exists(),
        "no manifest written"
    );
}

#[test]
fn figure_commands_write_a_campaign_manifest() {
    let dir = std::env::temp_dir().join(format!("aimes-cli-fig2-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let manifest = dir.join("m.jsonl");
    let manifest = manifest.to_str().unwrap();
    let out = experiments(&["fig2", "--quick", "--reps", "2", "--campaign-out", manifest]);
    assert!(
        out.status.success(),
        "fig2 --campaign-out: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(manifest).expect("manifest written");
    let m = aimes::campaign::read_manifest(&text).expect("manifest parses");
    m.validate().expect("manifest validates");
    assert_eq!(m.meta.command, "fig2");
    // Four experiments x three quick sizes x two repetitions.
    assert_eq!(m.meta.total_jobs, 4 * 3 * 2);
    assert_eq!(m.runs.len(), 4 * 3 * 2);
    let report = experiments(&["campaign-report", manifest]);
    assert_eq!(
        report.status.code(),
        Some(0),
        "campaign-report: {}",
        String::from_utf8_lossy(&report.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}
