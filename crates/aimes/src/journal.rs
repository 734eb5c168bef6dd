//! Crash-consistent run journal: an append-only event log of everything
//! the middleware decided or observed during a run — binding decisions,
//! pilot and unit state transitions, detector verdicts, breaker trips,
//! blacklists, re-plans.
//!
//! Every entry carries a sequence number and an FNV-1a checksum over its
//! own content, so a journal cut off mid-write (a crash) is recognized by
//! its torn tail: [`RunJournal::from_jsonl`] keeps the longest valid
//! prefix and drops the rest, which is exactly the prefix a resumed run
//! must retrace. Because the simulation is deterministic in its seed,
//! *resume* is re-execution: [`crate::middleware::resume_application`]
//! replays the run from scratch and verifies the interrupted journal is a
//! bit-for-bit prefix of the replay — any divergence means the journal
//! does not describe the run it claims to, and resuming would fabricate
//! history.

use aimes_bundle::InfoClass;
use aimes_sim::SimTime;
use serde::{Deserialize, Serialize};

pub use aimes_bundle::FallbackRung;
pub use aimes_pilot::{PilotState, UnitState};

/// How the information behind a fallback answer classified, as
/// journaled: an [`InfoClass`] without the stale entry's age (the
/// journal entry carries the age beside it). Serialized as the class's
/// [`InfoClass::label`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum InfoGrade {
    Fresh,
    Stale,
    Corrupt,
    Unavailable,
}

impl From<InfoClass> for InfoGrade {
    fn from(class: InfoClass) -> Self {
        match class {
            InfoClass::Fresh => InfoGrade::Fresh,
            InfoClass::Stale(_) => InfoGrade::Stale,
            InfoClass::Corrupt => InfoGrade::Corrupt,
            InfoClass::Unavailable => InfoGrade::Unavailable,
        }
    }
}

/// A suspicion-detector verdict as journaled.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    Suspected,
    Recovered,
    DeclaredDead,
}

impl Verdict {
    /// Wire name: the journal and serde string for this verdict.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Suspected => "Suspected",
            Verdict::Recovered => "Recovered",
            Verdict::DeclaredDead => "DeclaredDead",
        }
    }
}

/// One journaled middleware event.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type")]
pub enum JournalEvent {
    /// The run began: everything that seeds determinism.
    RunStarted {
        seed: u64,
        strategy: String,
        n_tasks: u32,
    },
    /// A pilot changed state. `resource` / `cores` identify where the
    /// pilot is placed and how big it is, so post-mortem analytics can
    /// reconstruct per-resource timelines and core-utilization from the
    /// journal alone.
    PilotTransition {
        pilot: u32,
        state: PilotState,
        resource: String,
        cores: u32,
    },
    /// A unit changed state; `pilot` is its binding at transition time, so
    /// the `StagingInput` entries double as the binding-decision log.
    /// `cores` is the task's core request.
    UnitTransition {
        unit: u32,
        state: UnitState,
        pilot: Option<u32>,
        cores: u32,
    },
    /// A suspicion-detector verdict with the silence that justified it.
    Detector {
        pilot: u32,
        resource: String,
        verdict: Verdict,
        silent_secs: f64,
    },
    /// A signal arrived for a decommissioned or terminal target and was
    /// dropped rather than acted on.
    StaleSignal {
        pilot: u32,
        resource: String,
        detail: String,
    },
    /// The information plane served a decision below the fresh path:
    /// which resource was asked, how the answer classified
    /// (fresh/stale/corrupt/unavailable), which fallback rung produced
    /// it, the information age behind it, and the wait it reported
    /// (`None` = "does not fit"). Never emitted on a healthy channel.
    InfoFallback {
        resource: String,
        class: InfoGrade,
        rung: FallbackRung,
        age_secs: f64,
        wait_secs: Option<f64>,
    },
    /// A resource's circuit breaker opened.
    BreakerTrip { resource: String },
    /// A resource was excluded from replacement routing.
    Blacklist { resource: String },
    /// The strategy was re-derived over the surviving resources.
    Replan { resource: String, pilots: u32 },
    /// Correlated-failure alarm: enough suspicions/deaths landed in one
    /// failure domain within the alarm window to predict a cascade.
    DomainAlarm {
        domain: String,
        members: Vec<String>,
    },
    /// A surviving pilot in an alarmed domain was preemptively drained.
    Evacuation {
        domain: String,
        resource: String,
        pilot: u32,
    },
    /// An aborted attempt banked its progress at a checkpoint boundary;
    /// `progress_secs` is the cumulative checkpointed execution time.
    Checkpoint { unit: u32, progress_secs: f64 },
    /// A new attempt started from the last checkpoint instead of from
    /// zero, salvaging `salvaged_secs` of already-done execution.
    ResumeFromCheckpoint { unit: u32, salvaged_secs: f64 },
    /// The run completed.
    RunFinished { ttc_secs: f64 },
}

/// One checksummed journal line.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JournalEntry {
    /// Dense sequence number, starting at 0.
    pub seq: u64,
    /// Simulation time of the event, in seconds.
    pub at_secs: f64,
    pub event: JournalEvent,
    /// FNV-1a over `seq`, the bit pattern of `at_secs`, and the event's
    /// canonical JSON — torn or tampered lines fail this check.
    pub crc: u32,
}

fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

fn entry_crc(seq: u64, at_secs: f64, event: &JournalEvent) -> u32 {
    let payload = serde_json::to_string(event).expect("journal events serialize");
    // The time goes in by bit pattern: no float-formatting ambiguity.
    fnv1a(format!("{seq}|{:016x}|{payload}", at_secs.to_bits()).as_bytes())
}

/// The append-only journal of one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunJournal {
    entries: Vec<JournalEntry>,
}

impl RunJournal {
    pub fn new() -> Self {
        RunJournal::default()
    }

    /// Append one event at simulation time `at`.
    pub fn record(&mut self, at: SimTime, event: JournalEvent) {
        let seq = self.entries.len() as u64;
        let at_secs = at.as_secs();
        let crc = entry_crc(seq, at_secs, &event);
        self.entries.push(JournalEntry {
            seq,
            at_secs,
            event,
            crc,
        });
    }

    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serialize as JSON Lines — one self-checking entry per line, the
    /// shape an append-only on-disk log would have.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&serde_json::to_string(e).expect("journal entries serialize"));
            out.push('\n');
        }
        out
    }

    /// Load from JSON Lines, tolerating a torn tail: parsing stops at the
    /// first line that is unparsable, checksum-invalid, or out of
    /// sequence, and everything from there on is dropped. The valid
    /// prefix is what a crashed writer is guaranteed to have persisted.
    pub fn from_jsonl(text: &str) -> RunJournal {
        let mut entries = Vec::new();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let Ok(entry) = serde_json::from_str::<JournalEntry>(line) else {
                break;
            };
            if entry.seq != entries.len() as u64
                || entry.crc != entry_crc(entry.seq, entry.at_secs, &entry.event)
            {
                break;
            }
            entries.push(entry);
        }
        RunJournal { entries }
    }

    /// Like [`RunJournal::from_jsonl`], but also reports how many
    /// non-empty trailing lines were discarded as a torn tail. Post-mortem
    /// tools use this so a truncated artifact is *announced* rather than
    /// silently analyzed as if it were the whole run.
    pub fn read_lenient(text: &str) -> (RunJournal, usize) {
        let journal = RunJournal::from_jsonl(text);
        let total = text.lines().filter(|l| !l.trim().is_empty()).count();
        let discarded = total.saturating_sub(journal.len());
        (journal, discarded)
    }

    /// Full integrity check: every entry in sequence with a valid
    /// checksum. `Err((seq, detail))` names the first bad entry.
    pub fn verify(&self) -> Result<(), (u64, String)> {
        for (i, e) in self.entries.iter().enumerate() {
            if e.seq != i as u64 {
                return Err((
                    i as u64,
                    format!("sequence gap: entry {i} has seq {}", e.seq),
                ));
            }
            if e.crc != entry_crc(e.seq, e.at_secs, &e.event) {
                return Err((e.seq, format!("checksum mismatch at seq {}", e.seq)));
            }
        }
        Ok(())
    }

    /// Check that `self` (an interrupted run's journal) is an exact
    /// prefix of `other` (the resumed run's journal). Any mismatch means
    /// the replay diverged from the recorded history.
    pub fn is_prefix_of(&self, other: &RunJournal) -> Result<(), (u64, String)> {
        // Compare the common prefix first: a content mismatch is the more
        // precise diagnosis than a length difference.
        for (a, b) in self.entries.iter().zip(&other.entries) {
            if a != b {
                return Err((
                    a.seq,
                    format!("entry {} differs: recorded {a:?}, replayed {b:?}", a.seq),
                ));
            }
        }
        if self.entries.len() > other.entries.len() {
            return Err((
                other.entries.len() as u64,
                format!(
                    "replay has {} entries, interrupted journal {}",
                    other.entries.len(),
                    self.entries.len()
                ),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn info_fallback_writes_the_labels() {
        use aimes_sim::SimDuration;
        let classes = [
            InfoClass::Fresh,
            InfoClass::Stale(SimDuration::from_secs(5.0)),
            InfoClass::Corrupt,
            InfoClass::Unavailable,
        ];
        for class in classes {
            let grade = InfoGrade::from(class);
            let wire = serde_json::to_string(&grade).unwrap();
            assert_eq!(wire, format!("\"{}\"", class.label()));
            assert_eq!(serde_json::from_str::<InfoGrade>(&wire).unwrap(), grade);
        }
        let rungs = [
            FallbackRung::Live,
            FallbackRung::CacheHit,
            FallbackRung::StaleCache,
            FallbackRung::Predictor,
            FallbackRung::StaticDefault,
        ];
        for rung in rungs {
            let wire = serde_json::to_string(&rung).unwrap();
            assert_eq!(wire, format!("\"{}\"", rung.label()));
            assert_eq!(serde_json::from_str::<FallbackRung>(&wire).unwrap(), rung);
        }
    }

    fn sample() -> RunJournal {
        let mut j = RunJournal::new();
        j.record(
            t(0.0),
            JournalEvent::RunStarted {
                seed: 7,
                strategy: "late-3p".into(),
                n_tasks: 16,
            },
        );
        j.record(
            t(12.5),
            JournalEvent::PilotTransition {
                pilot: 0,
                state: PilotState::Active,
                resource: "alpha".into(),
                cores: 64,
            },
        );
        j.record(
            t(13.0),
            JournalEvent::UnitTransition {
                unit: 3,
                state: UnitState::StagingInput,
                pilot: Some(0),
                cores: 1,
            },
        );
        j.record(
            t(500.0),
            JournalEvent::Detector {
                pilot: 0,
                resource: "alpha".into(),
                verdict: Verdict::DeclaredDead,
                silent_secs: 300.0,
            },
        );
        j
    }

    #[test]
    fn jsonl_roundtrip_is_identity() {
        let j = sample();
        assert!(j.verify().is_ok());
        let back = RunJournal::from_jsonl(&j.to_jsonl());
        assert_eq!(j, back);
    }

    #[test]
    fn torn_tail_is_truncated() {
        let j = sample();
        let mut text = j.to_jsonl();
        // Simulate a crash mid-append: the last line is cut in half.
        let cut = text.len() - 25;
        text.truncate(cut);
        let back = RunJournal::from_jsonl(&text);
        assert_eq!(back.len(), j.len() - 1);
        assert!(back.verify().is_ok());
        assert!(back.is_prefix_of(&j).is_ok());
    }

    #[test]
    fn read_lenient_reports_discarded_tail() {
        let j = sample();
        let (back, discarded) = RunJournal::read_lenient(&j.to_jsonl());
        assert_eq!(back, j);
        assert_eq!(discarded, 0);

        // A torn last line plus junk after it: both count as discarded.
        let mut text = j.to_jsonl();
        let cut = text.len() - 25;
        text.truncate(cut);
        text.push_str("\nnot json at all\n");
        let (back, discarded) = RunJournal::read_lenient(&text);
        assert_eq!(back.len(), j.len() - 1);
        assert_eq!(discarded, 2);
    }

    #[test]
    fn old_schema_lines_no_longer_parse() {
        // Lines written before `resource`/`cores` existed lack fields every
        // writer now emits; they are malformed, not defaulted.
        for old in [
            r#"{"type":"PilotTransition","pilot":1,"state":"Active"}"#,
            r#"{"type":"UnitTransition","unit":3,"state":"Done","pilot":1}"#,
        ] {
            let err = serde_json::from_str::<JournalEvent>(old).unwrap_err();
            assert!(err.to_string().contains("missing field"), "{err}");
        }
    }

    #[test]
    fn corruption_is_caught_by_the_checksum() {
        let j = sample();
        let text = j.to_jsonl();
        // Flip a digit inside the third line's payload (not its crc).
        let corrupted = text.replacen("\"unit\":3", "\"unit\":4", 1);
        assert_ne!(text, corrupted, "the edit must land");
        let back = RunJournal::from_jsonl(&corrupted);
        assert_eq!(back.len(), 2, "valid prefix ends before the bad line");
    }

    #[test]
    fn out_of_sequence_entries_end_the_prefix() {
        let j = sample();
        let text = j.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        // Drop line 1: line 2's seq no longer matches its position.
        let gapped = format!("{}\n{}\n{}\n", lines[0], lines[2], lines[3]);
        let back = RunJournal::from_jsonl(&gapped);
        assert_eq!(back.len(), 1);
    }

    #[test]
    fn prefix_verification_spots_divergence() {
        let a = sample();
        let mut b = sample();
        assert!(a.is_prefix_of(&b).is_ok());
        b.record(t(600.0), JournalEvent::RunFinished { ttc_secs: 600.0 });
        assert!(a.is_prefix_of(&b).is_ok(), "longer replay is fine");
        assert!(
            b.is_prefix_of(&a).is_err(),
            "replay shorter than the record is divergence"
        );
        let mut c = RunJournal::new();
        c.record(
            t(0.0),
            JournalEvent::RunStarted {
                seed: 8, // different seed → different first entry
                strategy: "late-3p".into(),
                n_tasks: 16,
            },
        );
        let err = a.is_prefix_of(&c).unwrap_err();
        assert_eq!(err.0, 0);
    }
}
