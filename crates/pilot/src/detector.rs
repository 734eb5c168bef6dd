//! Failure detection from observable signals.
//!
//! PR 1's recovery was oracle-driven: the middleware learned of an outage
//! at the instant it was injected. Real middleware only ever sees
//! *signals* — heartbeats that stop arriving, status queries that time
//! out — and must infer death, paying a detection latency (Td) and
//! risking false positives. This module holds the per-pilot suspicion
//! state machine:
//!
//! ```text
//!              heartbeat                heartbeat (false positive)
//!            ┌───────────┐            ┌──────────────────────────┐
//!            ▼           │            ▼                          │
//!        ┌─────────┐   silence    ┌───────────┐   more silence ┌─┴───────────────┐
//!  ──▶   │ Healthy │ ──────────▶  │ Suspected │ ─────────────▶ │ Declared-Dead   │
//!        └─────────┘  > suspect   └───────────┘   > declare    └─────────────────┘
//! ```
//!
//! Two modes decide the silence thresholds: fixed timeouts, or a
//! simplified phi-accrual detector (Hayashibara et al.) where the
//! threshold adapts to the observed heartbeat inter-arrival times. The
//! detector itself is a pure state machine over simulation time; the
//! [`PilotManager`](crate::PilotManager) feeds it heartbeats and asks it
//! for deadlines, owning all event scheduling.

use crate::pilot::PilotId;
use aimes_sim::{Fact, SimDuration, SimTime, TraceLine};
use std::collections::{HashMap, VecDeque};

/// How silence thresholds are derived.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DetectionMode {
    /// Fixed timeouts ([`DetectionPolicy::suspect_after`] /
    /// [`DetectionPolicy::declare_after`] of silence).
    Timeout,
    /// Phi-accrual: suspicion level `phi = -log10 P(heartbeat still
    /// coming)` under an exponential inter-arrival model, so the
    /// threshold time is `phi · mean_interval · ln 10` of silence. The
    /// mean adapts to the observed arrivals over a sliding window.
    PhiAccrual {
        /// Phi at which a pilot becomes Suspected.
        suspect_phi: f64,
        /// Phi at which a pilot is Declared-Dead.
        declare_phi: f64,
        /// Sliding window of inter-arrival samples.
        window: usize,
    },
}

/// Tuning of the detection layer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DetectionPolicy {
    /// How often an active agent emits a heartbeat.
    pub heartbeat_interval: SimDuration,
    /// Timeout mode: silence before Healthy → Suspected.
    pub suspect_after: SimDuration,
    /// Timeout mode: silence before Suspected → Declared-Dead.
    pub declare_after: SimDuration,
    /// Threshold mode.
    pub mode: DetectionMode,
    /// On suspicion, confirm through a SAGA status query: a terminal
    /// answer declares immediately (short Td), an unreachable front end
    /// leaves the suspicion to the declare deadline.
    pub confirm_with_status_query: bool,
}

impl Default for DetectionPolicy {
    fn default() -> Self {
        DetectionPolicy {
            heartbeat_interval: SimDuration::from_secs(60.0),
            suspect_after: SimDuration::from_secs(150.0),
            declare_after: SimDuration::from_secs(300.0),
            mode: DetectionMode::Timeout,
            confirm_with_status_query: true,
        }
    }
}

/// Detector view of one pilot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthState {
    /// Heartbeats arriving on schedule.
    Healthy,
    /// Silence crossed the suspect threshold; not yet given up.
    Suspected,
    /// Silence crossed the declare threshold (or a status query confirmed
    /// a terminal job): the pilot is treated as dead from here on.
    DeclaredDead,
}

/// One recorded detector decision.
#[derive(Clone, Debug, PartialEq)]
pub struct DetectorVerdict {
    /// The pilot judged.
    pub pilot: PilotId,
    /// The resource it ran on.
    pub resource: String,
    /// The state entered.
    pub state: HealthState,
    /// When the verdict was reached.
    pub at: SimTime,
    /// Silence observed at verdict time.
    pub silent_for: SimDuration,
}

/// Observable detector event, delivered to
/// [`PilotManager::on_detector_event`](crate::PilotManager::on_detector_event)
/// subscribers (the middleware journals these).
#[derive(Clone, Debug, PartialEq)]
pub enum DetectorEvent {
    /// Silence crossed the suspect threshold.
    Suspected {
        /// The suspected pilot.
        pilot: PilotId,
        /// Its resource.
        resource: String,
        /// Silence at suspicion time.
        silent_for: SimDuration,
    },
    /// A suspected pilot's heartbeats resumed: false positive cleared.
    Recovered {
        /// The recovered pilot.
        pilot: PilotId,
        /// Its resource.
        resource: String,
        /// How long it was under suspicion.
        suspected_for: SimDuration,
    },
    /// The detector gave up on the pilot.
    DeclaredDead {
        /// The declared pilot.
        pilot: PilotId,
        /// Its resource.
        resource: String,
        /// Silence at declaration time.
        silent_for: SimDuration,
    },
    /// A heartbeat or status answer arrived for a decommissioned,
    /// blacklisted, or already-terminal target and was ignored.
    StaleSignal {
        /// The pilot the signal belonged to.
        pilot: PilotId,
        /// Its resource.
        resource: String,
        /// Why the signal was dropped.
        detail: String,
    },
}

impl DetectorEvent {
    /// The event's trace name and counter name.
    fn names(&self) -> (&'static str, &'static str) {
        match self {
            DetectorEvent::Suspected { .. } => ("Suspected", "pilot.detector.suspected"),
            DetectorEvent::Recovered { .. } => {
                ("SuspicionCleared", "pilot.detector.suspicion_cleared")
            }
            DetectorEvent::DeclaredDead { .. } => ("DeclaredDead", "pilot.detector.declared_dead"),
            DetectorEvent::StaleSignal { .. } => ("StaleHeartbeat", "pilot.heartbeat.stale"),
        }
    }
}

impl Fact for DetectorEvent {
    fn trace(&self) -> Option<TraceLine> {
        let (pilot, detail) = match self {
            DetectorEvent::Suspected {
                pilot,
                resource,
                silent_for,
            }
            | DetectorEvent::DeclaredDead {
                pilot,
                resource,
                silent_for,
            } => (
                pilot,
                format!("{resource}: silent {:.0}s", silent_for.as_secs()),
            ),
            DetectorEvent::Recovered {
                pilot,
                suspected_for,
                ..
            } => {
                let secs = suspected_for.as_secs();
                (pilot, format!("heartbeat resumed after {secs:.0}s"))
            }
            DetectorEvent::StaleSignal { pilot, detail, .. } => (pilot, detail.clone()),
        };
        Some((pilot.to_string(), self.names().0, detail))
    }

    fn counter(&self) -> Option<String> {
        Some(self.names().1.into())
    }
}

struct PilotHealth {
    resource: String,
    state: HealthState,
    last_heartbeat: SimTime,
    suspected_at: Option<SimTime>,
    /// Observed inter-arrival samples (phi mode).
    intervals: VecDeque<f64>,
    /// Bumped on every heartbeat; scheduled checks carry the epoch they
    /// were armed under and no-op when a newer heartbeat superseded them.
    epoch: u64,
}

/// Outcome of feeding one heartbeat to the detector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HeartbeatOutcome {
    /// `Some(suspected_for)` when the heartbeat cleared a suspicion.
    pub recovered: Option<SimDuration>,
}

/// Per-pilot suspicion state, shared across all pilots of one manager.
pub struct SuspicionDetector {
    policy: DetectionPolicy,
    health: HashMap<PilotId, PilotHealth>,
    verdicts: Vec<DetectorVerdict>,
    false_positives: u64,
}

impl SuspicionDetector {
    /// A detector with no registered pilots.
    pub fn new(policy: DetectionPolicy) -> Self {
        SuspicionDetector {
            policy,
            health: HashMap::new(),
            verdicts: Vec::new(),
            false_positives: 0,
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> &DetectionPolicy {
        &self.policy
    }

    /// Start watching a pilot; `now` counts as its first sign of life.
    pub fn register(&mut self, pilot: PilotId, resource: String, now: SimTime) {
        self.health.insert(
            pilot,
            PilotHealth {
                resource,
                state: HealthState::Healthy,
                last_heartbeat: now,
                suspected_at: None,
                intervals: VecDeque::new(),
                epoch: 0,
            },
        );
    }

    /// Stop watching a pilot (terminal transition); pending checks armed
    /// under earlier epochs die on the unknown-pilot guard.
    pub fn deregister(&mut self, pilot: PilotId) {
        self.health.remove(&pilot);
    }

    /// Feed one delivered heartbeat. Returns `None` for unwatched pilots.
    pub fn heartbeat(&mut self, pilot: PilotId, now: SimTime) -> Option<HeartbeatOutcome> {
        let h = self.health.get_mut(&pilot)?;
        if let DetectionMode::PhiAccrual { window, .. } = self.policy.mode {
            h.intervals
                .push_back(now.saturating_since(h.last_heartbeat).as_secs());
            while h.intervals.len() > window.max(1) {
                h.intervals.pop_front();
            }
        }
        h.last_heartbeat = now;
        h.epoch += 1;
        let recovered = if h.state == HealthState::Suspected {
            let since = h.suspected_at.take().expect("suspected pilots have a mark");
            h.state = HealthState::Healthy;
            self.false_positives += 1;
            let resource = h.resource.clone();
            let suspected_for = now.saturating_since(since);
            self.verdicts.push(DetectorVerdict {
                pilot,
                resource,
                state: HealthState::Healthy,
                at: now,
                silent_for: SimDuration::ZERO,
            });
            Some(suspected_for)
        } else {
            None
        };
        Some(HeartbeatOutcome { recovered })
    }

    /// Mean heartbeat inter-arrival for a pilot: observed samples when
    /// available, else the configured interval.
    fn mean_interval(&self, h: &PilotHealth) -> f64 {
        if h.intervals.is_empty() {
            self.policy.heartbeat_interval.as_secs()
        } else {
            h.intervals.iter().sum::<f64>() / h.intervals.len() as f64
        }
    }

    /// The silence that moves this pilot to its *next* state.
    fn threshold(&self, h: &PilotHealth) -> Option<SimDuration> {
        let secs = match (self.policy.mode, h.state) {
            (DetectionMode::Timeout, HealthState::Healthy) => self.policy.suspect_after.as_secs(),
            (DetectionMode::Timeout, HealthState::Suspected) => self.policy.declare_after.as_secs(),
            (DetectionMode::PhiAccrual { suspect_phi, .. }, HealthState::Healthy) => {
                suspect_phi * self.mean_interval(h) * std::f64::consts::LN_10
            }
            (DetectionMode::PhiAccrual { declare_phi, .. }, HealthState::Suspected) => {
                declare_phi * self.mean_interval(h) * std::f64::consts::LN_10
            }
            (_, HealthState::DeclaredDead) => return None,
        };
        Some(SimDuration::from_secs(secs))
    }

    /// Absent further heartbeats, when does this pilot's next transition
    /// fall due? `None` for unwatched or already-declared pilots.
    pub fn next_deadline(&self, pilot: PilotId) -> Option<SimTime> {
        let h = self.health.get(&pilot)?;
        Some(h.last_heartbeat + self.threshold(h)?)
    }

    /// The check epoch of a pilot (0 for unwatched ones; pair with the
    /// unknown-pilot guard in [`advance`](Self::advance)).
    pub fn epoch(&self, pilot: PilotId) -> u64 {
        self.health.get(&pilot).map_or(0, |h| h.epoch)
    }

    /// Detector view of a pilot.
    pub fn health(&self, pilot: PilotId) -> Option<HealthState> {
        self.health.get(&pilot).map(|h| h.state)
    }

    /// A deadline fired: advance the pilot one suspicion step if its
    /// silence really crossed the threshold. Returns the state entered.
    pub fn advance(&mut self, pilot: PilotId, now: SimTime) -> Option<HealthState> {
        let deadline = self.next_deadline(pilot)?;
        if now < deadline {
            return None;
        }
        let h = self.health.get_mut(&pilot)?;
        let silent_for = now.saturating_since(h.last_heartbeat);
        let next = match h.state {
            HealthState::Healthy => {
                h.suspected_at = Some(now);
                HealthState::Suspected
            }
            HealthState::Suspected => HealthState::DeclaredDead,
            HealthState::DeclaredDead => return None,
        };
        h.state = next;
        let resource = h.resource.clone();
        self.verdicts.push(DetectorVerdict {
            pilot,
            resource,
            state: next,
            at: now,
            silent_for,
        });
        Some(next)
    }

    /// A status query confirmed the job is terminal: declare immediately
    /// without waiting out the silence. Returns the silence at
    /// declaration, or `None` if the pilot is unwatched/already declared.
    pub fn declare(&mut self, pilot: PilotId, now: SimTime) -> Option<SimDuration> {
        let h = self.health.get_mut(&pilot)?;
        if h.state == HealthState::DeclaredDead {
            return None;
        }
        h.state = HealthState::DeclaredDead;
        let silent_for = now.saturating_since(h.last_heartbeat);
        let resource = h.resource.clone();
        self.verdicts.push(DetectorVerdict {
            pilot,
            resource,
            state: HealthState::DeclaredDead,
            at: now,
            silent_for,
        });
        Some(silent_for)
    }

    /// Every verdict so far, in decision order.
    pub fn verdicts(&self) -> &[DetectorVerdict] {
        &self.verdicts
    }

    /// Suspicions later cleared by a resumed heartbeat.
    pub fn false_positives(&self) -> u64 {
        self.false_positives
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn d(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn timeout_detector() -> SuspicionDetector {
        SuspicionDetector::new(DetectionPolicy::default())
    }

    #[test]
    fn silence_walks_healthy_suspected_dead() {
        let mut det = timeout_detector();
        det.register(PilotId(0), "stampede".into(), t(0.0));
        assert_eq!(det.health(PilotId(0)), Some(HealthState::Healthy));
        assert_eq!(det.next_deadline(PilotId(0)), Some(t(150.0)));
        // Deadline not yet due: no transition.
        assert_eq!(det.advance(PilotId(0), t(100.0)), None);
        assert_eq!(
            det.advance(PilotId(0), t(150.0)),
            Some(HealthState::Suspected)
        );
        assert_eq!(det.next_deadline(PilotId(0)), Some(t(300.0)));
        assert_eq!(
            det.advance(PilotId(0), t(300.0)),
            Some(HealthState::DeclaredDead)
        );
        assert_eq!(det.next_deadline(PilotId(0)), None);
        let states: Vec<HealthState> = det.verdicts().iter().map(|v| v.state).collect();
        assert_eq!(
            states,
            vec![HealthState::Suspected, HealthState::DeclaredDead]
        );
        assert_eq!(det.verdicts()[1].silent_for, d(300.0));
        assert_eq!(det.false_positives(), 0);
    }

    #[test]
    fn resumed_heartbeat_clears_suspicion() {
        let mut det = timeout_detector();
        det.register(PilotId(3), "gordon".into(), t(0.0));
        let e0 = det.epoch(PilotId(3));
        assert_eq!(
            det.advance(PilotId(3), t(150.0)),
            Some(HealthState::Suspected)
        );
        let out = det.heartbeat(PilotId(3), t(200.0)).unwrap();
        assert_eq!(out.recovered, Some(d(50.0)));
        assert_eq!(det.health(PilotId(3)), Some(HealthState::Healthy));
        assert_eq!(det.false_positives(), 1);
        assert!(det.epoch(PilotId(3)) > e0, "heartbeats invalidate checks");
        // The clock restarts from the resumed heartbeat.
        assert_eq!(det.next_deadline(PilotId(3)), Some(t(350.0)));
    }

    #[test]
    fn confirmed_declaration_shortcuts_the_timeout() {
        let mut det = timeout_detector();
        det.register(PilotId(1), "hopper".into(), t(10.0));
        det.advance(PilotId(1), t(160.0));
        // Status query answered `Failed` at t=170: declare now, 160 s of
        // silence — far less than the 300 s timeout.
        assert_eq!(det.declare(PilotId(1), t(170.0)), Some(d(160.0)));
        assert_eq!(det.health(PilotId(1)), Some(HealthState::DeclaredDead));
        assert_eq!(det.declare(PilotId(1), t(180.0)), None, "idempotent");
    }

    #[test]
    fn phi_mode_adapts_to_observed_intervals() {
        let policy = DetectionPolicy {
            heartbeat_interval: d(60.0),
            mode: DetectionMode::PhiAccrual {
                suspect_phi: 1.0,
                declare_phi: 2.0,
                window: 4,
            },
            ..DetectionPolicy::default()
        };
        let mut det = SuspicionDetector::new(policy);
        det.register(PilotId(0), "osg".into(), t(0.0));
        // No samples yet: threshold from the configured 60 s interval.
        let base = det.next_deadline(PilotId(0)).unwrap().as_secs();
        assert!((base - 60.0 * std::f64::consts::LN_10).abs() < 1e-9);
        // Slow network: observed 120 s inter-arrivals double the mean,
        // so suspicion tolerates twice the silence (fewer false positives).
        for k in 1..=4 {
            det.heartbeat(PilotId(0), t(120.0 * f64::from(k)));
        }
        let deadline = det.next_deadline(PilotId(0)).unwrap().as_secs();
        assert!((deadline - (480.0 + 120.0 * std::f64::consts::LN_10)).abs() < 1e-9);
    }

    #[test]
    fn deregistered_pilots_are_invisible() {
        let mut det = timeout_detector();
        det.register(PilotId(7), "x".into(), t(0.0));
        det.deregister(PilotId(7));
        assert_eq!(det.heartbeat(PilotId(7), t(10.0)), None);
        assert_eq!(det.next_deadline(PilotId(7)), None);
        assert_eq!(det.advance(PilotId(7), t(1000.0)), None);
        assert_eq!(det.health(PilotId(7)), None);
    }
}
