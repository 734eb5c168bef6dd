//! The always-on flight recorder, end to end: a chaos run that dies must
//! leave a checksummed post-mortem dump on disk whose retained tail
//! reconstructs the run's last N events exactly — byte-for-byte the same
//! JSON lines the full journal holds for those events. A Declared-Dead
//! verdict dumps too, even when the run ultimately succeeds.

use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;

use aimes_repro::cluster::ClusterConfig;
use aimes_repro::fault::{FaultSpec, OutageKind, OutageSpec, RecoveryPolicy};
use aimes_repro::middleware::paper;
use aimes_repro::middleware::{
    run_application, JournalEvent, RecorderSnapshot, RunError, RunJournal, RunOptions,
};
use aimes_repro::sim::{SimDuration, SimTime};
use aimes_repro::skeleton::{paper_bag, TaskDurationSpec};
use aimes_repro::strategy::ResourceSelection;

/// A fresh per-test dump directory under the cargo-managed tmpdir.
fn dump_dir(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn interrupted_run_dumps_a_verifiable_snapshot_matching_the_journal_tail() {
    let dir = dump_dir("interrupted");
    let app = paper_bag(16, TaskDurationSpec::Uniform15Min);
    let pool = vec![
        ClusterConfig::test("one", 256),
        ClusterConfig::test("two", 256),
    ];
    let journal = Rc::new(RefCell::new(RunJournal::new()));
    let capacity = 16;
    let err = run_application(
        &pool,
        &app,
        &paper::late_strategy(2),
        &RunOptions {
            seed: 4242,
            submit_at: SimTime::from_secs(600.0),
            interrupt_at: Some(SimDuration::from_secs(900.0)),
            journal: Some(journal.clone()),
            recorder_capacity: capacity,
            recorder_dump_dir: Some(dir.clone()),
            ..Default::default()
        },
    )
    .expect_err("the run is killed mid-flight");
    assert!(matches!(err, RunError::Interrupted { .. }), "got {err}");

    // The dump exists, parses, and passes its own checksum + contiguity
    // verification (from_text runs both).
    let path = dir.join("flight-4242-interrupted.txt");
    let text = std::fs::read_to_string(&path).expect("dump written on interrupt");
    let snap = RecorderSnapshot::from_text(&text).expect("dump verifies");
    assert_eq!(snap.reason, "interrupted");
    assert!(!snap.events.is_empty(), "the ring saw the run's events");
    assert!(snap.events.len() <= capacity);

    assert_tail_matches_journal(&snap, &journal.borrow());
}

/// The tail reconstructs the journal's last N events exactly: same
/// count, same order, byte-identical JSON per event.
fn assert_tail_matches_journal(snap: &RecorderSnapshot, journal: &RunJournal) {
    let entries = journal.entries();
    assert_eq!(snap.total_events, entries.len() as u64);
    let tail = &entries[entries.len() - snap.events.len()..];
    for (rec, entry) in snap.events.iter().zip(tail) {
        let expect = serde_json::to_string(&entry.event).unwrap();
        assert_eq!(
            rec.what, expect,
            "recorder line diverged at seq {}",
            rec.seq
        );
        // The dump format keeps millisecond precision.
        assert!((rec.at_secs - entry.at_secs).abs() < 0.001);
    }
}

#[test]
fn replans_reach_the_recorder_like_every_other_journal_event() {
    // Oracle recovery: "one" is decommissioned at t+300 s and the run
    // re-plans onto "two". The Replan entry must land in the recorder
    // too, or every dump after a re-plan disagrees with the journal.
    let dir = dump_dir("replan");
    let app = paper_bag(16, TaskDurationSpec::Uniform15Min);
    let pool = vec![
        ClusterConfig::test("one", 256),
        ClusterConfig::test("two", 256),
    ];
    let mut strategy = paper::late_strategy(1);
    strategy.selection = ResourceSelection::Fixed(vec!["one".into()]);
    let journal = Rc::new(RefCell::new(RunJournal::new()));
    let err = run_application(
        &pool,
        &app,
        &strategy,
        &RunOptions {
            seed: 13,
            submit_at: SimTime::from_secs(600.0),
            faults: Some(FaultSpec {
                outages: vec![OutageSpec {
                    resource: "one".into(),
                    at_secs: 300.0,
                    duration_secs: 600.0,
                    kind: OutageKind::Permanent,
                }],
                ..FaultSpec::none()
            }),
            recovery: Some(RecoveryPolicy::default()),
            journal: Some(journal.clone()),
            interrupt_at: Some(SimDuration::from_secs(1200.0)),
            recorder_dump_dir: Some(dir.clone()),
            ..Default::default()
        },
    )
    .expect_err("the run is killed after the re-plan");
    assert!(matches!(err, RunError::Interrupted { .. }), "got {err}");
    let journal = journal.borrow();
    assert!(
        journal
            .entries()
            .iter()
            .any(|e| matches!(e.event, JournalEvent::Replan { .. })),
        "the scenario must re-plan before the interrupt"
    );

    let text = std::fs::read_to_string(dir.join("flight-13-interrupted.txt"))
        .expect("dump written on interrupt");
    let snap = RecorderSnapshot::from_text(&text).expect("dump verifies");
    assert_tail_matches_journal(&snap, &journal);
}

#[test]
fn declared_dead_verdict_dumps_even_when_the_run_recovers() {
    // The detection scenario: "one" dies silently, heartbeats stop, the
    // detector declares it dead, and the run re-plans onto "two" and
    // finishes. Success — but the Declared-Dead verdict still left a
    // post-mortem snapshot for diagnosis.
    let dir = dump_dir("declared-dead");
    let app = paper_bag(16, TaskDurationSpec::Uniform15Min);
    let pool = vec![
        ClusterConfig::test("one", 256),
        ClusterConfig::test("two", 256),
    ];
    let mut strategy = paper::late_strategy(1);
    strategy.selection = ResourceSelection::Fixed(vec!["one".into()]);
    let r = run_application(
        &pool,
        &app,
        &strategy,
        &RunOptions {
            seed: 13,
            submit_at: SimTime::from_secs(600.0),
            faults: Some(FaultSpec {
                outages: vec![OutageSpec {
                    resource: "one".into(),
                    at_secs: 300.0,
                    duration_secs: 600.0,
                    kind: OutageKind::Permanent,
                }],
                ..FaultSpec::none()
            }),
            recovery: Some(RecoveryPolicy::with_detection()),
            recorder_dump_dir: Some(dir.clone()),
            ..Default::default()
        },
    )
    .expect("detection recovers the run");
    assert_eq!(r.units_done, 16);

    let path = dir.join("flight-13-declared-dead-one.txt");
    let text = std::fs::read_to_string(&path).expect("verdict dumped a snapshot");
    let snap = RecorderSnapshot::from_text(&text).expect("dump verifies");
    assert_eq!(snap.reason, "declared-dead-one");
    assert!(!snap.events.is_empty());
}

#[test]
fn domain_alarm_dumps_a_snapshot_naming_the_domain_and_its_members() {
    // A cascade inside zone-a raises a domain alarm; the alarm is a dump
    // reason, and the snapshot header carries the alarmed domain plus its
    // member resources (the filename keeps a sanitized form of both).
    use aimes_repro::fault::{CascadeSpec, DomainSpec, EvacuationSpec};
    let dir = dump_dir("domain-alarm");
    let app = paper_bag(16, TaskDurationSpec::Uniform15Min);
    let pool = vec![
        ClusterConfig::test("one", 256),
        ClusterConfig::test("two", 256),
        ClusterConfig::test("three", 512),
    ];
    let mut strategy = paper::late_strategy(2);
    strategy.selection = ResourceSelection::Fixed(vec!["one".into(), "two".into()]);
    let mut recovery = RecoveryPolicy::with_detection();
    recovery.evacuation = Some(EvacuationSpec::default());
    let r = run_application(
        &pool,
        &app,
        &strategy,
        &RunOptions {
            seed: 31,
            submit_at: SimTime::from_secs(600.0),
            faults: Some(FaultSpec {
                cascade: Some(CascadeSpec {
                    domains: vec![
                        DomainSpec {
                            name: "zone-a".into(),
                            members: vec!["one".into(), "two".into()],
                        },
                        DomainSpec {
                            name: "zone-b".into(),
                            members: vec!["three".into()],
                        },
                    ],
                    trigger: OutageSpec {
                        resource: "one".into(),
                        at_secs: 300.0,
                        duration_secs: 0.0,
                        kind: OutageKind::Permanent,
                    },
                    propagation_chance: 1.0,
                    propagation_delay_secs: (600.0, 900.0),
                }),
                ..FaultSpec::none()
            }),
            recovery: Some(recovery),
            recorder_dump_dir: Some(dir.clone()),
            ..Default::default()
        },
    )
    .expect("evacuation rides out the cascade");
    assert_eq!(r.units_done, 16);
    assert!(r.domain_alarms >= 1, "the cascade must raise an alarm");

    // Reason chars outside [a-zA-Z0-9-] collapse to '-' in the filename;
    // the snapshot itself keeps the free-form reason with the raw
    // domain + member list.
    let path = dir.join("flight-31-domain-alarm-zone-a-members-one-two.txt");
    let text = std::fs::read_to_string(&path).expect("alarm dumped a snapshot");
    let snap = RecorderSnapshot::from_text(&text).expect("dump verifies");
    assert_eq!(snap.reason, "domain-alarm-zone-a members=one,two");
    assert!(!snap.events.is_empty());
}

#[test]
fn run_tag_disambiguates_dump_filenames_on_shared_seed_and_dir() {
    // Paired-seed ablation arms share both the seed and the dump dir;
    // each arm's run_tag must keep its post-mortem from overwriting the
    // other's. Same interrupted run, two tags, one directory.
    let dir = dump_dir("tagged");
    let app = paper_bag(16, TaskDurationSpec::Uniform15Min);
    let pool = vec![
        ClusterConfig::test("one", 256),
        ClusterConfig::test("two", 256),
    ];
    for tag in ["arm-a/r0", "arm-b-r0"] {
        let err = run_application(
            &pool,
            &app,
            &paper::late_strategy(2),
            &RunOptions {
                seed: 4242,
                submit_at: SimTime::from_secs(600.0),
                interrupt_at: Some(SimDuration::from_secs(900.0)),
                recorder_dump_dir: Some(dir.clone()),
                run_tag: Some(tag.into()),
                ..Default::default()
            },
        )
        .expect_err("the run is killed mid-flight");
        assert!(matches!(err, RunError::Interrupted { .. }));
    }

    // Tags sanitize like reasons ('/' → '-') and prefix the seed.
    for name in [
        "flight-arm-a-r0-4242-interrupted.txt",
        "flight-arm-b-r0-4242-interrupted.txt",
    ] {
        let text = std::fs::read_to_string(dir.join(name)).expect(name);
        let snap = RecorderSnapshot::from_text(&text).expect("dump verifies");
        assert_eq!(snap.reason, "interrupted");
    }
    // No temp files left behind, and no tag-less collision file.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.contains(".tmp-") || n == "flight-4242-interrupted.txt")
        .collect();
    assert!(leftovers.is_empty(), "unexpected files: {leftovers:?}");
}

#[test]
fn no_dump_dir_means_no_files_and_no_failure() {
    // The recorder stays purely in memory when no dump dir is set: the
    // same interrupted run neither errors on the dump path nor writes
    // anywhere.
    let app = paper_bag(8, TaskDurationSpec::Uniform15Min);
    let pool = vec![ClusterConfig::test("one", 256)];
    let err = run_application(
        &pool,
        &app,
        &paper::early_strategy(),
        &RunOptions {
            seed: 7,
            submit_at: SimTime::from_secs(600.0),
            interrupt_at: Some(SimDuration::from_secs(300.0)),
            ..Default::default()
        },
    )
    .expect_err("interrupted");
    assert!(matches!(err, RunError::Interrupted { .. }));
}

#[test]
fn zero_recorder_capacity_is_rejected_before_the_run_starts() {
    let app = paper_bag(8, TaskDurationSpec::Uniform15Min);
    let pool = vec![ClusterConfig::test("one", 256)];
    let err = run_application(
        &pool,
        &app,
        &paper::early_strategy(),
        &RunOptions {
            recorder_capacity: 0,
            ..Default::default()
        },
    )
    .expect_err("zero ring must be rejected");
    assert!(
        matches!(err, RunError::InvalidRecorderConfig(_)),
        "got {err}"
    );
}

/// FNV-1a 64 over a dump's full text, as hex.
fn fnv(bytes: &[u8]) -> String {
    format!("{:016x}", aimes_repro::middleware::recorder::fnv1a64(bytes))
}

/// Read a dump, check it round-trips through the parser, and digest it.
fn dump_digest(path: &std::path::Path) -> String {
    let text = std::fs::read_to_string(path).expect("dump written");
    let snap = RecorderSnapshot::from_text(&text).expect("dump verifies");
    assert_eq!(snap.to_text(), text, "to_text reproduces the file");
    fnv(text.as_bytes())
}

#[test]
fn dump_bytes_are_pinned() {
    // The differential test for the recorder's encoder: these digests
    // were captured with the eager encoder that serialized every event
    // as it was recorded. Any change to what a dump holds, or to how an
    // event is rendered into it, moves them.
    let dir = dump_dir("pinned");
    let app = paper_bag(16, TaskDurationSpec::Uniform15Min);

    // The interrupted run of the first test: its 16-slot ring wraps.
    let pool = vec![
        ClusterConfig::test("one", 256),
        ClusterConfig::test("two", 256),
    ];
    let err = run_application(
        &pool,
        &app,
        &paper::late_strategy(2),
        &RunOptions {
            seed: 4242,
            submit_at: SimTime::from_secs(600.0),
            interrupt_at: Some(SimDuration::from_secs(900.0)),
            recorder_capacity: 16,
            recorder_dump_dir: Some(dir.clone()),
            ..Default::default()
        },
    )
    .expect_err("the run is killed mid-flight");
    assert!(matches!(err, RunError::Interrupted { .. }), "got {err}");

    // A chaos run: a permanent outage caught by the detector, plus
    // transient launch failures and unit faults.
    let pool = vec![
        ClusterConfig::test("one", 256),
        ClusterConfig::test("two", 256),
        ClusterConfig::test("three", 512),
    ];
    let mut strategy = paper::late_strategy(2);
    strategy.selection = ResourceSelection::Fixed(vec!["one".into()]);
    run_application(
        &pool,
        &app,
        &strategy,
        &RunOptions {
            seed: 777,
            submit_at: SimTime::from_secs(600.0),
            faults: Some(FaultSpec {
                outages: vec![OutageSpec {
                    resource: "one".into(),
                    at_secs: 300.0,
                    duration_secs: 600.0,
                    kind: OutageKind::Permanent,
                }],
                launch_transient_chance: 0.4,
                unit_failure_chance: 0.2,
                ..FaultSpec::none()
            }),
            recovery: Some(RecoveryPolicy::with_detection()),
            recorder_dump_dir: Some(dir.clone()),
            ..Default::default()
        },
    )
    .expect("the chaos run recovers");

    assert_eq!(
        dump_digest(&dir.join("flight-4242-interrupted.txt")),
        "73e42090415d22f1"
    );
    assert_eq!(
        dump_digest(&dir.join("flight-777-declared-dead-one.txt")),
        "b6b22190fc6a60a8"
    );
}
