//! Structured execution traces.
//!
//! The paper's middleware is "instrumented to produce complete traces of an
//! application execution"; the entire evaluation (the TTC decomposition into
//! Tw/Tx/Ts) is computed from recorded state transitions. This module is the
//! reproduction of that instrumentation: components append typed
//! [`TraceEvent`]s to a shared [`Tracer`]; the analysis layer (crate
//! `aimes`) replays the trace to compute time components.
//!
//! The emitting component is interned to a [`ComponentId`]; the event is a
//! `&'static str` from one name table. States are named by their own
//! domain enums (`PilotState::name`, `UnitState::name`, `JobState::name`,
//! `SagaJobState::name`); annotations that are not states are named by
//! the verb enums here ([`UnitVerb`], [`SagaVerb`], [`DetectorPhase`],
//! [`ResourcePhase`], [`ManagerPhase`]). The legacy wire shape — a
//! `{time, component, event, detail}` object with string fields — is
//! preserved by [`TraceRecord`], which every read API resolves to, so JSON
//! dumps and string comparisons made by downstream consumers are unchanged.

use crate::time::SimTime;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::sync::Arc;

/// Interned identifier of a trace-emitting component (e.g. `pilot.0`,
/// `cluster.stampede.17`). Names are interned per [`TraceSink`]; ids are
/// only meaningful against the sink that produced them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ComponentId(u32);

impl ComponentId {
    /// Position in the sink's intern table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Unit-manager annotations around the unit state machine (the states
/// themselves are named by `aimes-pilot`'s `UnitState`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnitVerb {
    Restart,
    Fault,
}

impl UnitVerb {
    pub fn name(self) -> &'static str {
        match self {
            UnitVerb::Restart => "Restart",
            UnitVerb::Fault => "Fault",
        }
    }
}

/// SAGA resilience annotations: retries and the circuit breaker (the job
/// states are named by `aimes-saga`'s `SagaJobState`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SagaVerb {
    RetrySubmission,
    RetryCancel,
    RetryStatusQuery,
    CancelAbandoned,
    BreakerTrip,
}

impl SagaVerb {
    pub fn name(self) -> &'static str {
        match self {
            SagaVerb::RetrySubmission => "RetrySubmission",
            SagaVerb::RetryCancel => "RetryCancel",
            SagaVerb::RetryStatusQuery => "RetryStatusQuery",
            SagaVerb::CancelAbandoned => "CancelAbandoned",
            SagaVerb::BreakerTrip => "BreakerTrip",
        }
    }
}

/// Failure-detector verdicts and heartbeat-path annotations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DetectorPhase {
    WentSilent,
    StaleHeartbeat,
    Suspected,
    SuspicionCleared,
    StatusConfirmedDead,
    DeclaredDead,
}

impl DetectorPhase {
    pub fn name(self) -> &'static str {
        match self {
            DetectorPhase::WentSilent => "WentSilent",
            DetectorPhase::StaleHeartbeat => "StaleHeartbeat",
            DetectorPhase::Suspected => "Suspected",
            DetectorPhase::SuspicionCleared => "SuspicionCleared",
            DetectorPhase::StatusConfirmedDead => "StatusConfirmedDead",
            DetectorPhase::DeclaredDead => "DeclaredDead",
        }
    }
}

/// Resource-level availability events emitted by the cluster layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResourcePhase {
    Outage,
    Drain,
    Decommission,
}

impl ResourcePhase {
    pub fn name(self) -> &'static str {
        match self {
            ResourcePhase::Outage => "Outage",
            ResourcePhase::Drain => "Drain",
            ResourcePhase::Decommission => "Decommission",
        }
    }
}

/// Orchestration decisions made by the managers and the middleware.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ManagerPhase {
    Blacklist,
    RecoveryExhausted,
    ScheduleReplacement,
    UnitsStranded,
    AllDone,
    Replan,
    ReplanFailed,
    Reinforce,
}

impl ManagerPhase {
    pub fn name(self) -> &'static str {
        match self {
            ManagerPhase::Blacklist => "Blacklist",
            ManagerPhase::RecoveryExhausted => "RecoveryExhausted",
            ManagerPhase::ScheduleReplacement => "ScheduleReplacement",
            ManagerPhase::UnitsStranded => "UnitsStranded",
            ManagerPhase::AllDone => "AllDone",
            ManagerPhase::Replan => "Replan",
            ManagerPhase::ReplanFailed => "ReplanFailed",
            ManagerPhase::Reinforce => "Reinforce",
        }
    }
}

/// One recorded transition, as stored: component interned, event name
/// static.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Virtual time at which the transition happened.
    pub time: SimTime,
    /// Interned component (resolve via the owning [`TraceSink`]).
    pub component: ComponentId,
    /// Transition or annotation name: a domain state's `name()` or one of
    /// the verb enums' above.
    pub event: &'static str,
    /// Free-form detail (resource name, core count, error text, ...).
    pub detail: String,
}

/// One resolved trace event in the legacy wire shape: string component and
/// event names. This is what [`Tracer::snapshot`] returns and what the JSON
/// exporters serialize, so downstream string comparisons keep working.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    pub time: SimTime,
    /// Component that emitted the event, e.g. `pilot.0` or `unit.00042`.
    pub component: String,
    /// Transition or annotation name, e.g. `Active`, `Executing`.
    pub event: String,
    pub detail: String,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12.3}] {} -> {} {}",
            self.time.as_secs(),
            self.component,
            self.event,
            self.detail
        )
    }
}

/// Destination for trace events: the event vector plus the component
/// intern table. Experiments export it as JSON for post-processing.
#[derive(Debug, Default)]
pub struct TraceSink {
    events: Vec<TraceEvent>,
    names: Vec<String>,
    index: HashMap<String, ComponentId>,
}

impl TraceSink {
    /// Intern a component name, returning its stable id.
    pub fn intern(&mut self, name: String) -> ComponentId {
        if let Some(&id) = self.index.get(&name) {
            return id;
        }
        let id = ComponentId(self.names.len() as u32);
        self.names.push(name.clone());
        self.index.insert(name, id);
        id
    }

    /// Id of an already-interned component name, if any.
    pub fn lookup(&self, name: &str) -> Option<ComponentId> {
        self.index.get(name).copied()
    }

    /// Name behind an interned id. Panics on a foreign id.
    pub fn component_name(&self, id: ComponentId) -> &str {
        &self.names[id.index()]
    }

    /// All recorded events in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consume the sink, returning the events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }

    /// Resolve a stored event to the legacy wire shape.
    pub fn resolve(&self, event: &TraceEvent) -> TraceRecord {
        TraceRecord {
            time: event.time,
            component: self.component_name(event.component).to_string(),
            event: event.event.to_string(),
            detail: event.detail.clone(),
        }
    }

    fn push(&mut self, time: SimTime, component: String, event: &'static str, detail: String) {
        let component = self.intern(component);
        self.events.push(TraceEvent {
            time,
            component,
            event,
            detail,
        });
    }
}

/// Cheaply cloneable handle to a shared trace sink.
///
/// The simulation itself is single-threaded, but traces are read by the
/// (parallel) experiment harness after the run, so the sink is protected by
/// a `parking_lot::Mutex` — uncontended in practice.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    sink: Arc<Mutex<TraceSink>>,
    enabled: bool,
}

impl Tracer {
    /// A tracer that records everything.
    pub fn new() -> Self {
        Tracer {
            sink: Arc::new(Mutex::new(TraceSink::default())),
            enabled: true,
        }
    }

    /// A tracer that drops everything (for benchmarks where trace volume
    /// would distort measurements).
    pub fn disabled() -> Self {
        Tracer {
            sink: Arc::new(Mutex::new(TraceSink::default())),
            enabled: false,
        }
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record a state transition.
    #[inline]
    pub fn record(
        &self,
        time: SimTime,
        component: impl Into<String>,
        event: &'static str,
        detail: impl Into<String>,
    ) {
        if !self.enabled {
            return;
        }
        self.sink
            .lock()
            .push(time, component.into(), event, detail.into());
    }

    /// Record a state transition, building the component/detail strings
    /// only when tracing is enabled. Hot paths pay for `record`'s arguments
    /// (typically `format!` calls) even when the tracer drops everything;
    /// this variant makes a disabled tracer genuinely zero-cost — one
    /// branch.
    #[inline]
    pub fn record_with<F>(&self, time: SimTime, f: F)
    where
        F: FnOnce() -> (String, &'static str, String),
    {
        if !self.enabled {
            return;
        }
        let (component, event, detail) = f();
        self.sink.lock().push(time, component, event, detail);
    }

    /// Snapshot of all events recorded so far, resolved to the legacy wire
    /// shape.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let sink = self.sink.lock();
        sink.events.iter().map(|e| sink.resolve(e)).collect()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.sink.lock().events.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events for one component, in order.
    pub fn for_component(&self, component: &str) -> Vec<TraceRecord> {
        let sink = self.sink.lock();
        let Some(id) = sink.lookup(component) else {
            return Vec::new();
        };
        sink.events
            .iter()
            .filter(|e| e.component == id)
            .map(|e| sink.resolve(e))
            .collect()
    }

    /// First occurrence time of `event` on `component`, if any.
    pub fn first_time_of(&self, component: &str, event: &str) -> Option<SimTime> {
        let sink = self.sink.lock();
        let id = sink.lookup(component)?;
        sink.events
            .iter()
            .find(|e| e.component == id && e.event == event)
            .map(|e| e.time)
    }

    /// Stream the whole trace as a JSON array of [`TraceRecord`]s, one
    /// event per line. Unlike the old `to_json`, this never materializes
    /// the serialized trace as a single in-memory string and surfaces
    /// write failures instead of panicking.
    pub fn write_json<W: io::Write>(&self, out: &mut W) -> io::Result<()> {
        let sink = self.sink.lock();
        out.write_all(b"[")?;
        for (i, event) in sink.events.iter().enumerate() {
            let line = serde_json::to_string(&sink.resolve(event))
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            if i > 0 {
                out.write_all(b",")?;
            }
            out.write_all(b"\n  ")?;
            out.write_all(line.as_bytes())?;
        }
        out.write_all(b"\n]\n")
    }

    /// Serialize the whole trace as JSON (convenience wrapper over
    /// [`Tracer::write_json`]).
    pub fn to_json(&self) -> String {
        let mut buf = Vec::new();
        self.write_json(&mut buf)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(buf).expect("serialized JSON is UTF-8")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn records_in_order() {
        let tr = Tracer::new();
        tr.record(t(1.0), "pilot.0", "Launching", "");
        tr.record(t(5.0), "pilot.0", "Active", "stampede");
        let evs = tr.snapshot();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].event, "Launching");
        assert_eq!(evs[1].event, "Active");
        assert_eq!(evs[1].detail, "stampede");
    }

    #[test]
    fn disabled_tracer_drops_events() {
        let tr = Tracer::disabled();
        tr.record(t(1.0), "x", "y", "");
        assert!(tr.is_empty());
        assert!(!tr.is_enabled());
    }

    #[test]
    fn component_interning_is_stable() {
        let tr = Tracer::new();
        tr.record(t(1.0), "a", "e1", "");
        tr.record(t(2.0), "b", "e2", "");
        tr.record(t(3.0), "a", "e3", "");
        let sink = tr.sink.lock();
        assert_eq!(sink.events()[0].component, sink.events()[2].component);
        assert_ne!(sink.events()[0].component, sink.events()[1].component);
        assert_eq!(sink.component_name(sink.events()[1].component), "b");
    }

    #[test]
    fn component_filter() {
        let tr = Tracer::new();
        tr.record(t(1.0), "a", "e1", "");
        tr.record(t(2.0), "b", "e2", "");
        tr.record(t(3.0), "a", "e3", "");
        let a = tr.for_component("a");
        assert_eq!(a.len(), 2);
        assert_eq!(a[1].event, "e3");
        assert!(tr.for_component("missing").is_empty());
    }

    #[test]
    fn first_time_of_finds_earliest() {
        let tr = Tracer::new();
        tr.record(t(1.0), "u", "Executing", "");
        tr.record(t(4.0), "u", "Executing", "");
        assert_eq!(tr.first_time_of("u", "Executing"), Some(t(1.0)));
        assert_eq!(tr.first_time_of("u", "Missing"), None);
    }

    #[test]
    fn clones_share_sink() {
        let tr = Tracer::new();
        let tr2 = tr.clone();
        tr2.record(t(1.0), "x", "y", "");
        assert_eq!(tr.len(), 1);
    }

    #[test]
    fn json_roundtrip() {
        let tr = Tracer::new();
        tr.record(t(1.5), "pilot.0", "Active", "gordon");
        let json = tr.to_json();
        let back: Vec<TraceRecord> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, tr.snapshot());
    }

    #[test]
    fn write_json_streams_valid_empty_array() {
        let tr = Tracer::new();
        let mut buf = Vec::new();
        tr.write_json(&mut buf).unwrap();
        let back: Vec<TraceRecord> =
            serde_json::from_str(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn verb_names_match_legacy_strings() {
        assert_eq!(UnitVerb::Restart.name(), "Restart");
        assert_eq!(SagaVerb::RetrySubmission.name(), "RetrySubmission");
        assert_eq!(DetectorPhase::DeclaredDead.name(), "DeclaredDead");
        assert_eq!(ResourcePhase::Decommission.name(), "Decommission");
        assert_eq!(ManagerPhase::ReplanFailed.name(), "ReplanFailed");
    }

    #[test]
    fn display_format_is_stable() {
        let rec = TraceRecord {
            time: t(12.0),
            component: "unit.1".into(),
            event: "Done".into(),
            detail: "".into(),
        };
        let s = format!("{rec}");
        assert!(s.contains("unit.1"));
        assert!(s.contains("Done"));
    }
}
