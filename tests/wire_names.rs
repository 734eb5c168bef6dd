//! One wire-name table: every state a journal, trace or flight-recorder
//! line can name comes from its domain enum's `name()`, which must agree
//! with the enum's serde string and its `Debug` name. Journal lines carry
//! the typed states, so every variant round-trips through JSONL, and a
//! line naming a state no enum knows ends the valid prefix like a torn
//! tail.

use std::fmt::Debug;

use aimes_repro::cluster::JobState;
use aimes_repro::middleware::journal::{PilotState, UnitState, Verdict};
use aimes_repro::middleware::{JournalEvent, RunJournal};
use aimes_repro::saga::SagaJobState;
use aimes_repro::sim::SimTime;
use serde::Serialize;

const PILOT_STATES: [PilotState; 8] = [
    PilotState::New,
    PilotState::PendingLaunch,
    PilotState::Launching,
    PilotState::PendingActive,
    PilotState::Active,
    PilotState::Done,
    PilotState::Failed,
    PilotState::Canceled,
];

const UNIT_STATES: [UnitState; 8] = [
    UnitState::New,
    UnitState::PendingExecution,
    UnitState::StagingInput,
    UnitState::Executing,
    UnitState::StagingOutput,
    UnitState::Done,
    UnitState::Failed,
    UnitState::Canceled,
];

const JOB_STATES: [JobState; 5] = [
    JobState::Queued,
    JobState::Running,
    JobState::Completed,
    JobState::Killed,
    JobState::Cancelled,
];

const SAGA_STATES: [SagaJobState; 6] = [
    SagaJobState::New,
    SagaJobState::Pending,
    SagaJobState::Running,
    SagaJobState::Done,
    SagaJobState::Failed,
    SagaJobState::Canceled,
];

const VERDICTS: [Verdict; 3] = [
    Verdict::Suspected,
    Verdict::Recovered,
    Verdict::DeclaredDead,
];

fn assert_one_name<T: Serialize + Debug>(value: T, name: &str) {
    let serde = serde_json::to_string(&value).expect("serializes");
    assert_eq!(serde, format!("\"{name}\""), "serde name of {value:?}");
    assert_eq!(format!("{value:?}"), name, "Debug name of {value:?}");
}

#[test]
fn name_serde_and_debug_agree_for_every_variant() {
    for s in PILOT_STATES {
        assert_one_name(s, s.name());
    }
    for s in UNIT_STATES {
        assert_one_name(s, s.name());
    }
    for s in JOB_STATES {
        assert_one_name(s, s.name());
    }
    for s in SAGA_STATES {
        assert_one_name(s, s.name());
    }
    for v in VERDICTS {
        assert_one_name(v, v.name());
    }
}

#[test]
fn every_journaled_variant_round_trips_through_jsonl() {
    let mut journal = RunJournal::new();
    let mut at = 0.0;
    let mut next = || {
        at += 1.5;
        SimTime::from_secs(at)
    };
    for state in PILOT_STATES {
        let event = JournalEvent::PilotTransition {
            pilot: 3,
            state,
            resource: "alpha".into(),
            cores: 64,
        };
        journal.record(next(), event);
    }
    for state in UNIT_STATES {
        let event = JournalEvent::UnitTransition {
            unit: 9,
            state,
            pilot: Some(3),
            cores: 2,
        };
        journal.record(next(), event);
    }
    for verdict in VERDICTS {
        let event = JournalEvent::Detector {
            pilot: 3,
            resource: "alpha".into(),
            verdict,
            silent_secs: 45.0,
        };
        journal.record(next(), event);
    }
    let text = journal.to_jsonl();
    for s in PILOT_STATES {
        assert!(text.contains(&format!("\"state\":\"{}\"", s.name())));
    }
    for v in VERDICTS {
        assert!(text.contains(&format!("\"verdict\":\"{}\"", v.name())));
    }
    let back = RunJournal::from_jsonl(&text);
    assert_eq!(back, journal);
    assert_eq!(back.len(), PILOT_STATES.len() + UNIT_STATES.len() + 3);
}

/// FNV-1a 32, the journal's per-line checksum.
fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// A journal line with a valid checksum over `payload` (the event JSON).
fn checksummed_line(seq: u64, at_secs: f64, payload: &str) -> String {
    let crc = fnv1a(format!("{seq}|{:016x}|{payload}", at_secs.to_bits()).as_bytes());
    format!(r#"{{"seq":{seq},"at_secs":{at_secs:?},"event":{payload},"crc":{crc}}}"#)
}

#[test]
fn an_unknown_state_ends_the_valid_prefix() {
    let mut journal = RunJournal::new();
    journal.record(
        SimTime::from_secs(0.0),
        JournalEvent::RunStarted {
            seed: 1,
            strategy: "early".into(),
            n_tasks: 1,
        },
    );
    let pilot = |state: &str| {
        format!(
            r#"{{"type":"PilotTransition","pilot":0,"state":"{state}","resource":"alpha","cores":8}}"#
        )
    };
    let tail = checksummed_line(2, 9.0, &pilot("Active"));

    // Control: the hand-built line is checksum-valid when its state is known.
    let known = format!(
        "{}{}\n{tail}\n",
        journal.to_jsonl(),
        checksummed_line(1, 5.0, &pilot("Launching"))
    );
    assert_eq!(RunJournal::from_jsonl(&known).len(), 3);

    // The same line naming a state no enum knows stops parsing there,
    // even though a valid line follows it.
    let bogus = format!(
        "{}{}\n{tail}\n",
        journal.to_jsonl(),
        checksummed_line(1, 5.0, &pilot("Bogus"))
    );
    assert_eq!(RunJournal::from_jsonl(&bogus), journal);
    let (_, discarded) = RunJournal::read_lenient(&bogus);
    assert_eq!(discarded, 2);
}
