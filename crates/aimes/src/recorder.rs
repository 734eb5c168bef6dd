//! The flight recorder: a bounded, always-on ring buffer of the run's
//! most recent events, dumped as a checksummed post-mortem snapshot when
//! something dies.
//!
//! The journal ([`crate::journal`]) is opt-in and complete; the tracer is
//! opt-in and verbose. The flight recorder is neither: it is *always on*,
//! costs one `VecDeque` rotation per event, and retains only the last N
//! events — enough to reconstruct the final moments of a failed chaos run
//! without full tracing. The ring holds the typed [`JournalEvent`]s
//! themselves; nothing is rendered to text until a snapshot is taken, so
//! the events that fall off the front are never serialized. On any
//! `RunError` or a detector Declared-Dead verdict the middleware snapshots
//! the ring into a self-verifying text dump.
//!
//! Recording is strictly passive: no simulation events, no RNG draws —
//! an enabled recorder produces bit-identical journals to a disabled
//! one (pinned by the golden-journal tests).
//!
//! Snapshot format (one line per retained event, FNV-1a-64 checksum over
//! the body):
//!
//! ```text
//! # flight-recorder snapshot v1
//! # reason: resource-lost-one
//! # total: 214 dropped: 150 retained: 64
//! 150 9180.000 {"type":"unit_transition",...}
//! ...
//! 213 9600.000 {"type":"detector",...}
//! # checksum: fnv1a64 4f0e6c2a91b7d3e5
//! ```

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

use aimes_sim::SimTime;

use crate::journal::JournalEvent;

/// Default ring capacity: enough to hold the tail of a large run while
/// staying cheap to snapshot.
pub const DEFAULT_RECORDER_CAPACITY: usize = 256;

/// One snapshotted event: a monotone sequence number, the simulation
/// time, and a one-line description (the journal event's JSON).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RecorderEvent {
    pub seq: u64,
    pub at_secs: f64,
    pub what: String,
}

/// The bounded ring. Construction validates the capacity (a zero-sized
/// recorder would silently retain nothing — reject it instead).
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    next_seq: u64,
    ring: VecDeque<(u64, SimTime, JournalEvent)>,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` events.
    pub fn new(capacity: usize) -> Result<Self, String> {
        if capacity == 0 {
            return Err("flight-recorder capacity 0: must retain at least one event".into());
        }
        Ok(FlightRecorder {
            capacity,
            next_seq: 0,
            ring: VecDeque::with_capacity(capacity.min(4096)),
        })
    }

    /// Record one event, evicting the oldest when the ring is full.
    pub fn record(&mut self, at: SimTime, event: JournalEvent) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back((self.next_seq, at, event));
        self.next_seq += 1;
    }

    /// Total events recorded since construction (including dropped ones).
    pub fn total(&self) -> u64 {
        self.next_seq
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Freeze the ring into a checksummed snapshot, rendering each
    /// retained event as its journal JSON.
    pub fn snapshot(&self, reason: &str) -> RecorderSnapshot {
        let events: Vec<RecorderEvent> = self
            .ring
            .iter()
            .map(|(seq, at, event)| RecorderEvent {
                seq: *seq,
                at_secs: at.as_secs(),
                what: serde_json::to_string(event).unwrap_or_default(),
            })
            .collect();
        let dropped = self.next_seq - events.len() as u64;
        RecorderSnapshot {
            reason: reason.to_string(),
            total_events: self.next_seq,
            dropped,
            events,
        }
    }
}

/// A frozen, checksummed post-mortem snapshot.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RecorderSnapshot {
    pub reason: String,
    /// Events recorded over the run's lifetime.
    pub total_events: u64,
    /// Events that fell off the front of the ring.
    pub dropped: u64,
    /// The retained tail, oldest first, contiguous sequence numbers.
    pub events: Vec<RecorderEvent>,
}

/// FNV-1a 64 over a byte string — the same dependency-free digest the
/// golden-journal tests use. The analytics crate's critical-path digest
/// uses it too.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl RecorderSnapshot {
    /// The checksummed body: header counts plus one line per event.
    fn body(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# reason: {}\n# total: {} dropped: {} retained: {}\n",
            self.reason,
            self.total_events,
            self.dropped,
            self.events.len()
        ));
        for e in &self.events {
            out.push_str(&format!("{} {:.3} {}\n", e.seq, e.at_secs, e.what));
        }
        out
    }

    /// The snapshot's checksum (FNV-1a-64 over the body), as hex.
    pub fn checksum(&self) -> String {
        format!("{:016x}", fnv1a64(self.body().as_bytes()))
    }

    /// Serialize to the dump format.
    pub fn to_text(&self) -> String {
        format!(
            "# flight-recorder snapshot v1\n{}# checksum: fnv1a64 {}\n",
            self.body(),
            self.checksum()
        )
    }

    /// Parse a dump and verify its checksum and internal consistency.
    pub fn from_text(text: &str) -> Result<RecorderSnapshot, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some("# flight-recorder snapshot v1") => {}
            other => return Err(format!("bad snapshot header: {other:?}")),
        }
        let reason = lines
            .next()
            .and_then(|l| l.strip_prefix("# reason: "))
            .ok_or("missing reason line")?
            .to_string();
        let counts = lines
            .next()
            .and_then(|l| l.strip_prefix("# total: "))
            .ok_or("missing counts line")?;
        let parts: Vec<&str> = counts.split_whitespace().collect();
        // "{total} dropped: {dropped} retained: {retained}"
        if parts.len() != 5 || parts[1] != "dropped:" || parts[3] != "retained:" {
            return Err(format!("malformed counts line `{counts}`"));
        }
        let total_events: u64 = parts[0].parse().map_err(|_| "bad total".to_string())?;
        let dropped: u64 = parts[2].parse().map_err(|_| "bad dropped".to_string())?;
        let retained: usize = parts[4].parse().map_err(|_| "bad retained".to_string())?;

        let mut events = Vec::with_capacity(retained);
        let mut checksum_line = None;
        for line in lines {
            if let Some(rest) = line.strip_prefix("# checksum: fnv1a64 ") {
                checksum_line = Some(rest.trim().to_string());
                break;
            }
            let mut fields = line.splitn(3, ' ');
            let seq: u64 = fields
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("bad event line `{line}`"))?;
            let at_secs: f64 = fields
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("bad event line `{line}`"))?;
            let what = fields.next().unwrap_or("").to_string();
            events.push(RecorderEvent { seq, at_secs, what });
        }
        let snapshot = RecorderSnapshot {
            reason,
            total_events,
            dropped,
            events,
        };
        let declared = checksum_line.ok_or("missing checksum line")?;
        let actual = snapshot.checksum();
        if declared != actual {
            return Err(format!(
                "checksum mismatch: declared {declared}, computed {actual} — dump is torn or tampered"
            ));
        }
        snapshot.verify()?;
        Ok(snapshot)
    }

    /// Internal consistency: counts add up and the retained tail is a
    /// contiguous, monotone run of sequence numbers ending at
    /// `total_events - 1` — i.e. the tail really reconstructs the last N
    /// events.
    pub fn verify(&self) -> Result<(), String> {
        if self.dropped + self.events.len() as u64 != self.total_events {
            return Err(format!(
                "counts disagree: dropped {} + retained {} != total {}",
                self.dropped,
                self.events.len(),
                self.total_events
            ));
        }
        for (i, e) in self.events.iter().enumerate() {
            let expect = self.dropped + i as u64;
            if e.seq != expect {
                return Err(format!(
                    "sequence gap at index {i}: expected {expect}, found {}",
                    e.seq
                ));
            }
        }
        if let Some(last) = self.events.last() {
            if last.seq + 1 != self.total_events {
                return Err("tail does not end at the last recorded event".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{FallbackRung, InfoGrade, PilotState, UnitState, Verdict};

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// A small event whose JSON names `i`.
    fn finished(i: u64) -> JournalEvent {
        JournalEvent::RunFinished { ttc_secs: i as f64 }
    }

    fn json(event: &JournalEvent) -> String {
        serde_json::to_string(event).unwrap()
    }

    /// One of every journal event, in declaration order.
    fn every_variant() -> Vec<JournalEvent> {
        vec![
            JournalEvent::RunStarted {
                seed: 7,
                strategy: "late-backfill-2p".into(),
                n_tasks: 16,
            },
            JournalEvent::PilotTransition {
                pilot: 0,
                state: PilotState::Active,
                resource: "one".into(),
                cores: 8,
            },
            JournalEvent::UnitTransition {
                unit: 3,
                state: UnitState::Executing,
                pilot: Some(0),
                cores: 1,
            },
            JournalEvent::Detector {
                pilot: 1,
                resource: "two".into(),
                verdict: Verdict::DeclaredDead,
                silent_secs: 301.5,
            },
            JournalEvent::StaleSignal {
                pilot: 1,
                resource: "two".into(),
                detail: "heartbeat after death".into(),
            },
            JournalEvent::InfoFallback {
                resource: "one".into(),
                class: InfoGrade::Stale,
                rung: FallbackRung::StaleCache,
                age_secs: 12.25,
                wait_secs: None,
            },
            JournalEvent::BreakerTrip {
                resource: "two".into(),
            },
            JournalEvent::Blacklist {
                resource: "two".into(),
            },
            JournalEvent::Replan {
                resource: "two".into(),
                pilots: 2,
            },
            JournalEvent::DomainAlarm {
                domain: "zone-a".into(),
                members: vec!["one".into(), "two".into()],
            },
            JournalEvent::Evacuation {
                domain: "zone-a".into(),
                resource: "one".into(),
                pilot: 0,
            },
            JournalEvent::Checkpoint {
                unit: 3,
                progress_secs: 450.0,
            },
            JournalEvent::ResumeFromCheckpoint {
                unit: 3,
                salvaged_secs: 450.0,
            },
            JournalEvent::RunFinished { ttc_secs: 1234.5 },
        ]
    }

    /// Declaration index of a variant. The match has no wildcard, so a
    /// new variant fails to compile here until `every_variant` lists it.
    fn variant_index(event: &JournalEvent) -> usize {
        match event {
            JournalEvent::RunStarted { .. } => 0,
            JournalEvent::PilotTransition { .. } => 1,
            JournalEvent::UnitTransition { .. } => 2,
            JournalEvent::Detector { .. } => 3,
            JournalEvent::StaleSignal { .. } => 4,
            JournalEvent::InfoFallback { .. } => 5,
            JournalEvent::BreakerTrip { .. } => 6,
            JournalEvent::Blacklist { .. } => 7,
            JournalEvent::Replan { .. } => 8,
            JournalEvent::DomainAlarm { .. } => 9,
            JournalEvent::Evacuation { .. } => 10,
            JournalEvent::Checkpoint { .. } => 11,
            JournalEvent::ResumeFromCheckpoint { .. } => 12,
            JournalEvent::RunFinished { .. } => 13,
        }
    }

    #[test]
    fn zero_capacity_is_rejected() {
        assert!(FlightRecorder::new(0).unwrap_err().contains("capacity 0"));
        assert!(FlightRecorder::new(1).is_ok());
    }

    #[test]
    fn ring_retains_only_the_tail() {
        let mut r = FlightRecorder::new(3).unwrap();
        for i in 0..10u64 {
            r.record(t(i as f64), finished(i));
        }
        assert_eq!(r.total(), 10);
        assert_eq!(r.len(), 3);
        let snap = r.snapshot("test");
        assert_eq!(snap.dropped, 7);
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
        assert_eq!(snap.events[0].what, json(&finished(7)));
        snap.verify().expect("tail is contiguous");
    }

    #[test]
    fn snapshot_roundtrips_with_checksum() {
        let mut r = FlightRecorder::new(4).unwrap();
        for i in 0..6u64 {
            r.record(
                t(100.0 + i as f64),
                JournalEvent::Checkpoint {
                    unit: i as u32,
                    progress_secs: 60.0 * i as f64,
                },
            );
        }
        let snap = r.snapshot("resource-lost-one");
        let text = snap.to_text();
        assert!(text.starts_with("# flight-recorder snapshot v1\n"));
        assert!(text.contains("# reason: resource-lost-one"));
        let back = RecorderSnapshot::from_text(&text).expect("parses and verifies");
        assert_eq!(back, snap);
    }

    #[test]
    fn tampered_dumps_are_rejected() {
        let mut r = FlightRecorder::new(4).unwrap();
        r.record(t(1.0), finished(1));
        r.record(t(2.0), finished(2));
        let text = r.snapshot("x").to_text();
        let tampered = text.replace(&json(&finished(2)), &json(&finished(3)));
        assert_ne!(tampered, text);
        assert!(
            RecorderSnapshot::from_text(&tampered)
                .unwrap_err()
                .contains("checksum mismatch"),
            "edited payload must fail verification"
        );
        let torn = text
            .lines()
            .filter(|l| !l.starts_with("# checksum"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(RecorderSnapshot::from_text(&torn)
            .unwrap_err()
            .contains("missing checksum"));
    }

    #[test]
    fn empty_recorder_snapshots_cleanly() {
        let r = FlightRecorder::new(8).unwrap();
        assert!(r.is_empty());
        let snap = r.snapshot("early-death");
        assert_eq!(snap.total_events, 0);
        let back = RecorderSnapshot::from_text(&snap.to_text()).unwrap();
        assert_eq!(back.events.len(), 0);
    }

    #[test]
    fn every_event_variant_snapshots_as_its_journal_json() {
        let events = every_variant();
        let indices: Vec<usize> = events.iter().map(variant_index).collect();
        assert_eq!(indices, (0..events.len()).collect::<Vec<_>>());

        let mut r = FlightRecorder::new(events.len()).unwrap();
        for (i, event) in events.iter().enumerate() {
            r.record(t(600.0 + 0.125 * i as f64), event.clone());
        }
        let snap = r.snapshot("every-variant");
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.events.len(), events.len());
        for (i, (line, event)) in snap.events.iter().zip(&events).enumerate() {
            assert_eq!(line.seq, i as u64);
            assert_eq!(line.at_secs, 600.0 + 0.125 * i as f64);
            assert_eq!(line.what, json(event));
        }
        let back = RecorderSnapshot::from_text(&snap.to_text()).expect("parses and verifies");
        assert_eq!(back, snap);
    }
}
