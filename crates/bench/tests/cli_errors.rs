//! The experiments CLI rejects mistakes with exit status 2 and a message
//! on stderr instead of panicking or passing silently: a misspelled
//! command, a value flag without its value, and zero repetitions. Running
//! with no command (or `help`) still prints the usage and succeeds.

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
