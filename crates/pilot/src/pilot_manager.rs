//! The pilot manager: describes pilots, launches them through SAGA, and
//! maintains their instrumented state models (Figure 1, steps 4–5).

use crate::description::PilotDescription;
use crate::detector::{DetectionPolicy, DetectorEvent, HealthState, SuspicionDetector};
use crate::pilot::{Pilot, PilotId, PilotState};
use aimes_saga::{JobDescription, SagaJobState, Session};
use aimes_sim::{Fact, Observers, SimDuration, SimRng, SimTime, Simulation, TraceLine};
use std::cell::{Ref, RefCell};
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// Dwell-time histogram name for time a `layer` object spent in the
/// state named `state`: `pilot.dwell.pending_launch` for `PendingLaunch`.
pub(crate) fn dwell_metric(layer: &str, state: &str) -> String {
    let mut name = format!("{layer}.dwell.");
    for (i, c) in state.char_indices() {
        if i > 0 && c.is_ascii_uppercase() {
            name.push('_');
        }
        name.push(c.to_ascii_lowercase());
    }
    name
}

/// What the pilot manager emits besides detector verdicts (which are
/// [`DetectorEvent`]s).
enum PilotFact<'a> {
    /// A pilot on a resource entered a state.
    Pilot(PilotId, PilotState, &'a str),
    /// A pilot's agent on a resource died without a client-visible signal.
    WentSilent(PilotId, &'a str),
    /// A status query on a suspect answered with this terminal state.
    StatusConfirmedDead(PilotId, SagaJobState),
    /// A resource failed too many launches in a row.
    Blacklist(&'a str),
    /// A failed pilot gets no replacement: its lineage reached the cap on
    /// this resource, or (`None`) every resource is blacklisted.
    RecoveryExhausted(PilotId, Option<&'a str>),
    /// A replacement of this generation is due after a delay.
    ScheduleReplacement(PilotId, u32, SimDuration),
}

impl Fact for PilotFact<'_> {
    fn trace(&self) -> Option<TraceLine> {
        let manager = |event, detail| Some(("pilot-manager".to_string(), event, detail));
        let (id, event, detail) = match *self {
            PilotFact::Pilot(id, state, resource) => (id, state.name(), resource.into()),
            PilotFact::WentSilent(id, resource) => (id, "WentSilent", resource.into()),
            PilotFact::StatusConfirmedDead(id, answer) => {
                let detail = format!("front end reports {}", answer.name());
                (id, "StatusConfirmedDead", detail)
            }
            PilotFact::Blacklist(resource) => {
                return manager("Blacklist", format!("{resource}: repeated launch failures"))
            }
            PilotFact::RecoveryExhausted(id, cap_on) => {
                let detail = match cap_on {
                    Some(resource) => format!("{id} on {resource}: replacement cap reached"),
                    None => format!("{id}: every resource blacklisted"),
                };
                return manager("RecoveryExhausted", detail);
            }
            PilotFact::ScheduleReplacement(id, generation, delay) => {
                let detail = format!("{id} gen {generation} in {:.0}s", delay.as_secs());
                return manager("ScheduleReplacement", detail);
            }
        };
        Some((id.to_string(), event, detail))
    }

    fn counter(&self) -> Option<String> {
        match self {
            PilotFact::Blacklist(_) => Some("pilot.manager.blacklists".into()),
            PilotFact::RecoveryExhausted(..) => Some("pilot.manager.recovery_exhausted".into()),
            _ => None,
        }
    }
}

/// An injected heartbeat-delivery delay window: signal-level fault
/// injection for false-positive scenarios (congested WAN, overloaded
/// login node) without touching pilot liveness.
struct HeartbeatDelayWindow {
    resource: String,
    from: SimTime,
    until: SimTime,
    delay: SimDuration,
}

/// Self-healing policy: when a pilot fails, submit a replacement after a
/// capped exponential backoff, up to a per-lineage cap. Resources that eat
/// pilots without ever activating one are blacklisted. With `reroute` set,
/// replacements for pilots of a blacklisted resource move to the first
/// surviving resource; without it such failures are left to a higher layer
/// (the middleware's re-planning owns cross-resource recovery).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PilotRecovery {
    /// How many times one original pilot may be replaced before giving up.
    pub max_replacements: u32,
    /// Delay before the first replacement of a lineage.
    pub backoff: SimDuration,
    /// Ceiling for the exponentially growing backoff.
    pub backoff_cap: SimDuration,
    /// Consecutive launch failures (never reaching Active) before a
    /// resource is blacklisted.
    pub blacklist_after: u32,
    /// Whether replacements may move off a blacklisted resource.
    pub reroute: bool,
}

impl Default for PilotRecovery {
    fn default() -> Self {
        PilotRecovery {
            max_replacements: 3,
            backoff: SimDuration::from_secs(60.0),
            backoff_cap: SimDuration::from_secs(900.0),
            blacklist_after: 3,
            reroute: true,
        }
    }
}

impl PilotRecovery {
    /// Backoff before replacing generation `generation` (0-based):
    /// `backoff * 2^generation`, capped.
    pub fn delay(&self, generation: u32) -> SimDuration {
        self.backoff.backoff(generation, self.backoff_cap)
    }
}

struct PmState {
    session: Rc<Session>,
    pilots: Vec<Pilot>,
    /// Agent bootstrap time once the backend job runs (the pilot's own
    /// startup: environment setup, agent launch).
    bootstrap_delay: SimDuration,
    /// Self-healing policy; `None` (default) preserves the legacy
    /// fail-and-forget behavior exactly.
    recovery: Option<PilotRecovery>,
    /// Replacement generation per pilot (absent = 0: an original).
    lineage: HashMap<PilotId, u32>,
    /// Consecutive launch failures per resource (reset on any activation).
    launch_failures: HashMap<String, u32>,
    /// Resources no replacement is routed to.
    blacklist: HashSet<String>,
    /// Set by `cancel_all`: the run is winding down, stop healing.
    draining: bool,
    /// Replacement pilots awaiting activation → when their predecessor
    /// failed (for time-to-recovery measurement).
    pending_recovery: HashMap<PilotId, SimTime>,
    /// Completed failure→replacement-active intervals.
    recovery_times: Vec<SimDuration>,
    /// Total replacement pilots submitted.
    replacements: u64,
    /// Failure detection from observable signals; `None` (default) keeps
    /// the legacy oracle behavior and its exact event/RNG streams.
    detector: Option<SuspicionDetector>,
    /// Heartbeat delivery jitter, forked lazily so detection-off runs
    /// leave the RNG tree untouched.
    hb_rng: Option<SimRng>,
    /// Ground truth: pilots whose backend job died while Active, awaiting
    /// a detector verdict. Used for Td accounting only — never consulted
    /// by a recovery decision.
    went_silent: HashMap<PilotId, SimTime>,
    /// Completed (silent_at, declared_at) windows.
    detection_windows: Vec<(SimTime, SimTime)>,
    /// Injected heartbeat-delivery delay windows.
    hb_delays: Vec<HeartbeatDelayWindow>,
    /// Signals dropped because their target was terminal or blacklisted.
    stale_signals: u64,
}

/// The pilot manager's observers, outside its `RefCell` state.
#[derive(Default)]
struct PmObservers {
    transition: Observers<(PilotId, PilotState)>,
    blacklist: Observers<str>,
    detector: Observers<DetectorEvent>,
    silent: Observers<PilotId>,
}

/// Handle to the pilot manager.
#[derive(Clone)]
pub struct PilotManager {
    inner: Rc<RefCell<PmState>>,
    obs: Rc<PmObservers>,
}

impl PilotManager {
    /// Create a manager over a SAGA session.
    pub fn new(session: Rc<Session>) -> Self {
        PilotManager {
            inner: Rc::new(RefCell::new(PmState {
                session,
                pilots: Vec::new(),
                bootstrap_delay: SimDuration::from_secs(30.0),
                recovery: None,
                lineage: HashMap::new(),
                launch_failures: HashMap::new(),
                blacklist: HashSet::new(),
                draining: false,
                pending_recovery: HashMap::new(),
                recovery_times: Vec::new(),
                replacements: 0,
                detector: None,
                hb_rng: None,
                went_silent: HashMap::new(),
                detection_windows: Vec::new(),
                hb_delays: Vec::new(),
                stale_signals: 0,
            })),
            obs: Rc::default(),
        }
    }

    /// Override the agent bootstrap delay (default 30 s).
    pub fn set_bootstrap_delay(&self, delay: SimDuration) {
        self.inner.borrow_mut().bootstrap_delay = delay;
    }

    /// Enable self-healing: failed pilots are replaced per `policy`.
    pub fn set_recovery(&self, policy: PilotRecovery) {
        self.inner.borrow_mut().recovery = Some(policy);
    }

    /// Enable signal-based failure detection: active pilots heartbeat
    /// through the SAGA channel and a silent backend death is only acted
    /// on once the suspicion detector declares it (the client never sees
    /// fault-injection ground truth). Call before submitting pilots.
    pub fn set_detection(&self, policy: DetectionPolicy) {
        self.inner.borrow_mut().detector = Some(SuspicionDetector::new(policy));
    }

    /// Subscribe to detector events (suspicions, recoveries,
    /// declarations, stale signals).
    pub fn on_detector_event(&self, cb: impl FnMut(&mut Simulation, &DetectorEvent) + 'static) {
        self.obs.detector.add(cb);
    }

    /// Subscribe to *physical* agent death. This is the environment side
    /// of the simulation, not an observable signal: when a machine dies,
    /// the executions on it stop at that instant even though no client
    /// component learns of it until the detector declares. The unit
    /// manager uses this to stop in-flight completions from firing on a
    /// dead machine; recovery decisions must key off the declared
    /// `Failed` transition instead.
    pub fn on_pilot_silent(&self, cb: impl FnMut(&mut Simulation, &PilotId) + 'static) {
        self.obs.silent.add(cb);
    }

    /// Delay heartbeat *delivery* (not emission) for a resource inside
    /// `[from, until)` by `delay`: signal-level fault injection for
    /// false-positive scenarios.
    pub fn inject_heartbeat_delay(
        &self,
        resource: &str,
        from: SimTime,
        until: SimTime,
        delay: SimDuration,
    ) {
        self.inner
            .borrow_mut()
            .hb_delays
            .push(HeartbeatDelayWindow {
                resource: resource.to_string(),
                from,
                until,
                delay,
            });
    }

    /// Completed silent-death → declaration intervals (Td samples).
    pub fn detection_times(&self) -> Vec<SimDuration> {
        self.inner
            .borrow()
            .detection_windows
            .iter()
            .map(|(from, to)| to.saturating_since(*from))
            .collect()
    }

    /// Completed (silent_at, declared_at) windows for TTC decomposition.
    pub fn detection_windows(&self) -> Vec<(SimTime, SimTime)> {
        self.inner.borrow().detection_windows.clone()
    }

    /// Suspicions cleared by a resumed heartbeat (false positives).
    pub fn false_suspicions(&self) -> u64 {
        self.inner
            .borrow()
            .detector
            .as_ref()
            .map_or(0, |d| d.false_positives())
    }

    /// Heartbeats/status answers dropped because their target was already
    /// terminal or its resource blacklisted.
    pub fn stale_signals(&self) -> u64 {
        self.inner.borrow().stale_signals
    }

    /// Exclude a resource from replacement routing (e.g. the middleware
    /// learned it is permanently lost).
    pub fn blacklist(&self, resource: &str) {
        self.inner
            .borrow_mut()
            .blacklist
            .insert(resource.to_string());
    }

    /// Resources currently excluded from replacement routing.
    pub fn blacklisted(&self) -> Vec<String> {
        let mut v: Vec<String> = self.inner.borrow().blacklist.iter().cloned().collect();
        v.sort();
        v
    }

    /// Total replacement pilots submitted so far.
    pub fn replacements(&self) -> u64 {
        self.inner.borrow().replacements
    }

    /// Measured failure → replacement-active intervals, in completion
    /// order.
    pub fn recovery_times(&self) -> Vec<SimDuration> {
        self.inner.borrow().recovery_times.clone()
    }

    /// Subscribe to all pilot state transitions.
    pub fn subscribe(&self, cb: impl FnMut(&mut Simulation, &(PilotId, PilotState)) + 'static) {
        self.obs.transition.add(cb);
    }

    /// Subscribe to blacklist decisions the manager makes on its own
    /// (a resource ate [`PilotRecovery::blacklist_after`] consecutive
    /// launches), not to calls of [`Self::blacklist`]. Without `reroute`,
    /// recovery from such a resource is the subscriber's job — the
    /// middleware uses this to trigger re-planning.
    pub fn on_blacklist(&self, cb: impl FnMut(&mut Simulation, &str) + 'static) {
        self.obs.blacklist.add(cb);
    }

    /// Drop every observer and what it captured (run teardown).
    pub fn clear_callbacks(&self) {
        self.obs.transition.clear();
        self.obs.blacklist.clear();
        self.obs.detector.clear();
        self.obs.silent.clear();
    }

    /// Submit pilots. Each is described to the resource named in its
    /// description; unknown resources panic (the Execution Manager selects
    /// resources from the bundle, which mirrors the session).
    pub fn submit(
        &self,
        sim: &mut Simulation,
        descriptions: Vec<PilotDescription>,
    ) -> Vec<PilotId> {
        let mut ids = Vec::with_capacity(descriptions.len());
        for desc in descriptions {
            let id = {
                let mut st = self.inner.borrow_mut();
                let id = PilotId(st.pilots.len() as u32);
                st.pilots.push(Pilot::new(id, desc.clone(), sim.now()));
                id
            };
            ids.push(id);
            self.transition(sim, id, PilotState::PendingLaunch);
            let service = {
                let st = self.inner.borrow();
                st.session
                    .service(&desc.resource)
                    .unwrap_or_else(|| panic!("unknown resource {}", desc.resource))
            };
            let this = self.clone();
            let mut job = JobDescription::new(desc.cores, desc.walltime, id.to_string());
            job.queue = desc.queue.clone();
            let saga_id = service.submit(sim, job, move |sim, state| {
                this.on_saga_state(sim, id, state);
            });
            self.inner.borrow_mut().pilots[id.0 as usize].saga_job = Some(saga_id);
        }
        ids
    }

    fn on_saga_state(&self, sim: &mut Simulation, id: PilotId, state: SagaJobState) {
        let _prof = sim.profiler().scope("pilot.manager");
        let current = self.state(id);
        match state {
            SagaJobState::New => {}
            SagaJobState::Pending => self.transition(sim, id, PilotState::Launching),
            SagaJobState::Running => {
                self.transition(sim, id, PilotState::PendingActive);
                let delay = self.inner.borrow().bootstrap_delay;
                let this = self.clone();
                sim.schedule_in(delay, move |sim| {
                    // The backend job may have died during bootstrap.
                    if this.state(id) == PilotState::PendingActive {
                        this.transition(sim, id, PilotState::Active);
                    }
                });
            }
            SagaJobState::Done => {
                // Walltime reached. If the agent never finished
                // bootstrapping, the pilot failed to deliver.
                match current {
                    PilotState::Active => self.transition(sim, id, PilotState::Done),
                    s if !s.is_terminal() => self.transition(sim, id, PilotState::Failed),
                    _ => {}
                }
            }
            SagaJobState::Failed => {
                // With detection armed, an *Active* pilot's backend death
                // is silent: no signal reaches the client (the agent just
                // stops heartbeating), so no client-visible transition
                // happens until the detector declares. Pre-Active
                // failures stay immediate — a failed submission is an
                // observable error return. The ground-truth instant is
                // kept for Td accounting only.
                let suppress =
                    self.inner.borrow().detector.is_some() && current == PilotState::Active;
                if suppress {
                    let mut st = self.inner.borrow_mut();
                    st.went_silent.entry(id).or_insert(sim.now());
                    let resource = &st.pilots[id.0 as usize].description.resource;
                    sim.emit(&PilotFact::WentSilent(id, resource));
                    drop(st);
                    self.obs.silent.fire(sim, &id);
                } else if !current.is_terminal() {
                    self.transition(sim, id, PilotState::Failed);
                }
            }
            SagaJobState::Canceled => {
                if !current.is_terminal() {
                    self.transition(sim, id, PilotState::Canceled);
                }
            }
        }
    }

    fn transition(&self, sim: &mut Simulation, id: PilotId, next: PilotState) {
        {
            let mut st = self.inner.borrow_mut();
            let pilot = &mut st.pilots[id.0 as usize];
            let prev = pilot.state;
            if let Some(&(_, entered)) = pilot.timestamps.last() {
                let dwell = sim.now().saturating_since(entered);
                sim.metrics()
                    .observe(dwell.as_secs(), || dwell_metric("pilot", prev.name()));
            }
            pilot.transition(next, sim.now());
            if next.is_terminal() {
                if let Some(det) = st.detector.as_mut() {
                    det.deregister(id);
                }
            }
            let resource = &st.pilots[id.0 as usize].description.resource;
            sim.emit(&PilotFact::Pilot(id, next, resource));
        }
        self.obs.transition.fire(sim, &(id, next));
        match next {
            PilotState::Active => {
                self.on_pilot_active(sim, id);
                self.start_heartbeats(sim, id);
            }
            PilotState::Failed => self.heal_pilot_failure(sim, id),
            _ => {}
        }
    }

    /// Emit a detector event, then deliver it to the subscribers.
    fn detector_event(&self, sim: &mut Simulation, event: DetectorEvent) {
        sim.emit(&event);
        self.obs.detector.fire(sim, &event);
    }

    /// Start the heartbeat loop and suspicion clock for a freshly active
    /// pilot (no-op without detection).
    fn start_heartbeats(&self, sim: &mut Simulation, id: PilotId) {
        let interval = {
            let mut st = self.inner.borrow_mut();
            let resource = st.pilots[id.0 as usize].description.resource.clone();
            let Some(det) = st.detector.as_mut() else {
                return;
            };
            det.register(id, resource, sim.now());
            det.policy().heartbeat_interval
        };
        let this = self.clone();
        sim.schedule_in(interval, move |sim| this.emit_heartbeat(sim, id));
        self.schedule_detector_check(sim, id);
    }

    /// Agent side: emit one heartbeat if the agent is physically alive,
    /// then schedule the next. A dead or terminal agent emits nothing —
    /// that silence *is* the failure signal.
    fn emit_heartbeat(&self, sim: &mut Simulation, id: PilotId) {
        let _prof = sim.profiler().scope("pilot.manager");
        let now = sim.now();
        let (latency, interval) = {
            let mut st = self.inner.borrow_mut();
            let st = &mut *st;
            let pilot = &st.pilots[id.0 as usize];
            let alive = pilot.state == PilotState::Active && !st.went_silent.contains_key(&id);
            if !alive {
                return;
            }
            let Some(det) = st.detector.as_ref() else {
                return;
            };
            let interval = det.policy().heartbeat_interval;
            let resource = &pilot.description.resource;
            // Delivery latency: WAN jitter plus any injected delay window
            // covering this emission.
            let rng = st
                .hb_rng
                .get_or_insert_with(|| sim.fork_rng("pm.heartbeats"));
            let mut latency = SimDuration::from_secs(rng.uniform(0.05, 0.45));
            for w in &st.hb_delays {
                if w.resource == *resource && now >= w.from && now < w.until {
                    latency += w.delay;
                }
            }
            (latency, interval)
        };
        sim.metrics().inc(|| "pilot.heartbeat.emitted".into());
        let this = self.clone();
        sim.schedule_in(latency, move |sim| this.deliver_heartbeat(sim, id));
        let this = self.clone();
        sim.schedule_in(interval, move |sim| this.emit_heartbeat(sim, id));
    }

    /// Client side: a heartbeat arrived. Stale signals — for a pilot
    /// already terminal or a blacklisted resource — are dropped with a
    /// note instead of resurrecting anything.
    fn deliver_heartbeat(&self, sim: &mut Simulation, id: PilotId) {
        let _prof = sim.profiler().scope("pilot.manager");
        let now = sim.now();
        enum Disposition {
            Stale(String),
            Fresh,
        }
        let (resource, disposition) = {
            let st = self.inner.borrow();
            let pilot = &st.pilots[id.0 as usize];
            let resource = pilot.description.resource.clone();
            if pilot.state.is_terminal() {
                let detail = format!("pilot already {}", pilot.state.name());
                (resource, Disposition::Stale(detail))
            } else if st.blacklist.contains(&resource) {
                let detail = format!("resource {resource} blacklisted");
                (resource, Disposition::Stale(detail))
            } else {
                (resource, Disposition::Fresh)
            }
        };
        match disposition {
            Disposition::Stale(detail) => {
                self.inner.borrow_mut().stale_signals += 1;
                self.detector_event(
                    sim,
                    DetectorEvent::StaleSignal {
                        pilot: id,
                        resource,
                        detail,
                    },
                );
            }
            Disposition::Fresh => {
                sim.metrics().inc(|| "pilot.heartbeat.delivered".into());
                let recovered = {
                    let mut st = self.inner.borrow_mut();
                    let Some(det) = st.detector.as_mut() else {
                        return;
                    };
                    det.heartbeat(id, now).and_then(|o| o.recovered)
                };
                if let Some(suspected_for) = recovered {
                    self.detector_event(
                        sim,
                        DetectorEvent::Recovered {
                            pilot: id,
                            resource,
                            suspected_for,
                        },
                    );
                }
                self.schedule_detector_check(sim, id);
            }
        }
    }

    /// Arm the next suspicion check at the pilot's current deadline.
    /// Checks carry the epoch they were armed under: a later heartbeat
    /// bumps the epoch and the check no-ops when it fires.
    fn schedule_detector_check(&self, sim: &mut Simulation, id: PilotId) {
        let Some((deadline, epoch)) = ({
            let st = self.inner.borrow();
            st.detector
                .as_ref()
                .and_then(|d| d.next_deadline(id).map(|t| (t, d.epoch(id))))
        }) else {
            return;
        };
        let this = self.clone();
        sim.schedule_at(deadline, move |sim| this.run_detector_check(sim, id, epoch));
    }

    /// A suspicion deadline fired: advance the detector if no newer
    /// heartbeat superseded the check.
    fn run_detector_check(&self, sim: &mut Simulation, id: PilotId, epoch: u64) {
        let _prof = sim.profiler().scope("pilot.manager");
        let now = sim.now();
        let advanced = {
            let mut st = self.inner.borrow_mut();
            let Some(det) = st.detector.as_mut() else {
                return;
            };
            if det.health(id).is_none() || det.epoch(id) != epoch {
                return;
            }
            det.advance(id, now)
        };
        match advanced {
            None | Some(HealthState::Healthy) => {}
            Some(HealthState::Suspected) => {
                let (resource, silent_for, confirm) = {
                    let st = self.inner.borrow();
                    let det = st.detector.as_ref().expect("detector just advanced");
                    let v = det.verdicts().last().expect("advance recorded a verdict");
                    (
                        v.resource.clone(),
                        v.silent_for,
                        det.policy().confirm_with_status_query,
                    )
                };
                self.detector_event(
                    sim,
                    DetectorEvent::Suspected {
                        pilot: id,
                        resource,
                        silent_for,
                    },
                );
                if confirm {
                    self.confirm_via_status_query(sim, id, epoch);
                }
                // The declare deadline stands regardless of the query.
                self.schedule_detector_check(sim, id);
            }
            Some(HealthState::DeclaredDead) => self.on_declared_dead(sim, id),
        }
    }

    /// Ask the batch front end about the suspect's job. A terminal answer
    /// declares immediately (short Td); a healthy answer leaves the pilot
    /// Suspected awaiting resumed heartbeats; an unreachable front end
    /// (typed error, breaker trip) lets the declare deadline decide.
    fn confirm_via_status_query(&self, sim: &mut Simulation, id: PilotId, epoch: u64) {
        let (service, saga) = {
            let st = self.inner.borrow();
            let p = &st.pilots[id.0 as usize];
            (st.session.service(&p.description.resource), p.saga_job)
        };
        let (Some(service), Some(saga)) = (service, saga) else {
            return;
        };
        let this = self.clone();
        service.query_status(sim, saga, move |sim, answer| {
            let still_suspect = {
                let st = this.inner.borrow();
                st.detector.as_ref().is_some_and(|d| {
                    d.health(id) == Some(HealthState::Suspected) && d.epoch(id) == epoch
                })
            };
            if !still_suspect {
                return;
            }
            match answer {
                Ok(state) if state.is_terminal() => {
                    sim.emit(&PilotFact::StatusConfirmedDead(id, state));
                    let declared = {
                        let mut st = this.inner.borrow_mut();
                        let det = st.detector.as_mut().expect("still suspect");
                        det.declare(id, sim.now()).is_some()
                    };
                    if declared {
                        this.on_declared_dead(sim, id);
                    }
                }
                // Front end says the job is alive: keep the suspicion and
                // wait for heartbeats (or the declare deadline).
                Ok(_) => {}
                // Unreachable front end: the failed round-trips already
                // fed the circuit breaker; the declare deadline decides.
                Err(_) => {}
            }
        });
    }

    /// The detector gave up on a pilot: record Td, notify, and drive the
    /// client-visible state machine — from here the normal heal path
    /// (replacement, blacklist, re-plan) takes over, having consumed only
    /// signals.
    fn on_declared_dead(&self, sim: &mut Simulation, id: PilotId) {
        let now = sim.now();
        let (resource, silent_for) = {
            let mut st = self.inner.borrow_mut();
            let resource = st.pilots[id.0 as usize].description.resource.clone();
            // Td window start: ground-truth death when one exists (real
            // failure). A false declaration of a live pilot has no death
            // instant, so its window is empty — it costs Tr, not Td.
            let start = st.went_silent.remove(&id).unwrap_or(now);
            st.detection_windows.push((start, now));
            let silent_for = st
                .detector
                .as_ref()
                .and_then(|d| d.verdicts().last())
                .map(|v| v.silent_for)
                .unwrap_or(SimDuration::ZERO);
            (resource, silent_for)
        };
        self.detector_event(
            sim,
            DetectorEvent::DeclaredDead {
                pilot: id,
                resource,
                silent_for,
            },
        );
        if !self.state(id).is_terminal() {
            self.transition(sim, id, PilotState::Failed);
        }
    }

    /// Activation bookkeeping for self-healing: the resource proved it can
    /// launch pilots, and a pending replacement completes its recovery.
    fn on_pilot_active(&self, sim: &mut Simulation, id: PilotId) {
        let mut st = self.inner.borrow_mut();
        if st.recovery.is_none() {
            return;
        }
        let resource = st.pilots[id.0 as usize].description.resource.clone();
        st.launch_failures.remove(&resource);
        if let Some(failed_at) = st.pending_recovery.remove(&id) {
            let ttr = sim.now().saturating_since(failed_at);
            st.recovery_times.push(ttr);
        }
    }

    /// The self-healing path: replace a failed pilot after a capped
    /// exponential backoff, blacklisting resources that repeatedly fail
    /// pilots before activation.
    fn heal_pilot_failure(&self, sim: &mut Simulation, id: PilotId) {
        let now = sim.now();
        enum Verdict {
            Skip,
            Exhausted,
            Replace { delay: SimDuration, generation: u32 },
        }
        let (verdict, newly_blacklisted) = {
            let mut st = self.inner.borrow_mut();
            let Some(policy) = st.recovery else {
                return;
            };
            if st.draining {
                return;
            }
            let pilot = &st.pilots[id.0 as usize];
            let resource = pilot.description.resource.clone();
            let reached_active = pilot.time_of(PilotState::Active).is_some();
            // A replacement that never activates must not count twice.
            st.pending_recovery.remove(&id);
            let mut newly_blacklisted = false;
            if !reached_active {
                let n = st.launch_failures.entry(resource.clone()).or_insert(0);
                *n += 1;
                if *n >= policy.blacklist_after && st.blacklist.insert(resource.clone()) {
                    newly_blacklisted = true;
                }
            }
            let generation = st.lineage.get(&id).copied().unwrap_or(0);
            let verdict = if st.blacklist.contains(&resource) && !policy.reroute {
                // A higher layer (re-planning) owns recovery from lost
                // resources.
                Verdict::Skip
            } else if generation >= policy.max_replacements {
                Verdict::Exhausted
            } else {
                Verdict::Replace {
                    delay: policy.delay(generation),
                    generation,
                }
            };
            (verdict, newly_blacklisted)
        };
        let resource = self.pilot_ref(id).description.resource.clone();
        if newly_blacklisted {
            sim.emit(&PilotFact::Blacklist(&resource));
            // Without reroute the verdict below is Skip: a higher layer
            // must take over, so tell it the resource is gone.
            self.obs.blacklist.fire(sim, &resource);
        }
        match verdict {
            Verdict::Skip => {}
            Verdict::Exhausted => sim.emit(&PilotFact::RecoveryExhausted(id, Some(&resource))),
            Verdict::Replace { delay, generation } => {
                sim.emit(&PilotFact::ScheduleReplacement(id, generation, delay));
                let this = self.clone();
                sim.schedule_in(delay, move |sim| {
                    this.submit_replacement(sim, id, generation, now);
                });
            }
        }
    }

    /// Submit the replacement for `failed` (its failure observed at
    /// `failed_at`), rerouting off blacklisted resources when allowed.
    fn submit_replacement(
        &self,
        sim: &mut Simulation,
        failed: PilotId,
        generation: u32,
        failed_at: SimTime,
    ) {
        let desc = {
            let st = self.inner.borrow();
            if st.draining {
                return;
            }
            let mut desc = st.pilots[failed.0 as usize].description.clone();
            if st.blacklist.contains(&desc.resource) {
                let survivor = st
                    .session
                    .resources()
                    .into_iter()
                    .find(|r| !st.blacklist.contains(r));
                match survivor {
                    Some(r) => {
                        // Queue names are per-resource; fall back to the
                        // survivor's default queue.
                        desc.resource = r;
                        desc.queue = None;
                    }
                    None => {
                        sim.emit(&PilotFact::RecoveryExhausted(failed, None));
                        return;
                    }
                }
            }
            desc
        };
        let new_ids = self.submit(sim, vec![desc]);
        sim.metrics()
            .inc_by(new_ids.len() as u64, || "pilot.manager.replacements".into());
        let mut st = self.inner.borrow_mut();
        for nid in new_ids {
            st.lineage.insert(nid, generation + 1);
            st.pending_recovery.insert(nid, failed_at);
            st.replacements += 1;
        }
    }

    /// Cancel a pilot (drains through SAGA; the state model follows).
    pub fn cancel(&self, sim: &mut Simulation, id: PilotId) {
        let (service, saga) = {
            let st = self.inner.borrow();
            let p = &st.pilots[id.0 as usize];
            (st.session.service(&p.description.resource), p.saga_job)
        };
        if let (Some(service), Some(saga)) = (service, saga) {
            service.cancel(sim, saga);
        }
    }

    /// Cancel every non-terminal pilot (the middleware does this when all
    /// tasks are done, "so as not to waste resources", §III-E).
    pub fn cancel_all(&self, sim: &mut Simulation) {
        let live: Vec<PilotId> = {
            let mut st = self.inner.borrow_mut();
            // Wind-down: no replacements for anything failing from here on.
            st.draining = true;
            st.pilots
                .iter()
                .filter(|p| !p.state.is_terminal())
                .map(|p| p.id)
                .collect()
        };
        for id in live {
            self.cancel(sim, id);
        }
    }

    /// A borrowed view of one pilot. Drop it before anything that can
    /// fire a manager callback: the manager mutates its pilots then.
    pub fn pilot_ref(&self, id: PilotId) -> Ref<'_, Pilot> {
        Ref::map(self.inner.borrow(), |st| &st.pilots[id.0 as usize])
    }

    /// Current state of one pilot.
    pub fn state(&self, id: PilotId) -> PilotState {
        self.inner.borrow().pilots[id.0 as usize].state
    }

    /// A borrowed view of all pilots, in submission order; the same
    /// rule as [`PilotManager::pilot_ref`] applies.
    pub fn pilots_ref(&self) -> Ref<'_, [Pilot]> {
        Ref::map(self.inner.borrow(), |st| st.pilots.as_slice())
    }

    /// The non-terminal pilots on `resource`, in submission order —
    /// without snapshotting the whole pilot table.
    pub fn live_on(&self, resource: &str) -> Vec<PilotId> {
        self.inner
            .borrow()
            .pilots
            .iter()
            .filter(|p| p.description.resource == resource && !p.state.is_terminal())
            .map(|p| p.id)
            .collect()
    }

    /// The SAGA session (shared).
    pub fn session(&self) -> Rc<Session> {
        self.inner.borrow().session.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimes_cluster::{Cluster, ClusterConfig};
    use aimes_sim::SimTime;

    fn d(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn dwell_metrics_snake_case_the_state_names() {
        use crate::UnitState;
        let pilot = [
            (PilotState::New, "pilot.dwell.new"),
            (PilotState::PendingLaunch, "pilot.dwell.pending_launch"),
            (PilotState::Launching, "pilot.dwell.launching"),
            (PilotState::PendingActive, "pilot.dwell.pending_active"),
            (PilotState::Active, "pilot.dwell.active"),
            (PilotState::Done, "pilot.dwell.done"),
            (PilotState::Failed, "pilot.dwell.failed"),
            (PilotState::Canceled, "pilot.dwell.canceled"),
        ];
        for (state, name) in pilot {
            assert_eq!(dwell_metric("pilot", state.name()), name);
        }
        let unit = [
            (UnitState::New, "unit.dwell.new"),
            (UnitState::PendingExecution, "unit.dwell.pending_execution"),
            (UnitState::StagingInput, "unit.dwell.staging_input"),
            (UnitState::Executing, "unit.dwell.executing"),
            (UnitState::StagingOutput, "unit.dwell.staging_output"),
            (UnitState::Done, "unit.dwell.done"),
            (UnitState::Failed, "unit.dwell.failed"),
            (UnitState::Canceled, "unit.dwell.canceled"),
        ];
        for (state, name) in unit {
            assert_eq!(dwell_metric("unit", state.name()), name);
        }
    }

    fn setup(cores: u32) -> (Simulation, PilotManager) {
        let sim = Simulation::new(17);
        let mut session = Session::new();
        session.add_resource(&sim, Cluster::new(ClusterConfig::test("stampede", cores)));
        let pm = PilotManager::new(Rc::new(session));
        pm.set_bootstrap_delay(d(10.0));
        (sim, pm)
    }

    #[test]
    fn pilot_reaches_active_then_done_at_walltime() {
        let (mut sim, pm) = setup(128);
        let ids = pm.submit(
            &mut sim,
            vec![PilotDescription::new("stampede", 64, d(600.0))],
        );
        sim.run_to_completion();
        let p = pm.pilot_ref(ids[0]);
        assert_eq!(p.state, PilotState::Done);
        let states: Vec<PilotState> = p.timestamps.iter().map(|(s, _)| *s).collect();
        assert_eq!(
            states,
            vec![
                PilotState::New,
                PilotState::PendingLaunch,
                PilotState::Launching,
                PilotState::PendingActive,
                PilotState::Active,
                PilotState::Done
            ]
        );
        // Setup time covers SAGA latency + bootstrap; queue was empty.
        let setup = p.setup_time().unwrap();
        assert!(setup >= d(10.0) && setup < d(20.0), "setup {setup:?}");
        // Done at activation + walltime (the backend kills the job).
        let active = p.time_of(PilotState::Active).unwrap();
        let done = p.time_of(PilotState::Done).unwrap();
        // Active happened bootstrap after Running; the job ends 600 s
        // after it started *running*, i.e. 590 s after Active.
        assert!((done.since(active).as_secs() - 590.0).abs() < 1e-6);
    }

    #[test]
    fn queued_pilot_measures_queue_wait() {
        let (mut sim, pm) = setup(64);
        // Occupy the machine for 500 s so the pilot must wait.
        let cluster = pm.session().service("stampede").unwrap().cluster();
        cluster.submit(
            &mut sim,
            aimes_cluster::JobRequest::background(64, d(500.0), d(500.0)),
        );
        let ids = pm.submit(
            &mut sim,
            vec![PilotDescription::new("stampede", 64, d(100.0))],
        );
        sim.run_to_completion();
        let p = pm.pilot_ref(ids[0]);
        assert_eq!(p.state, PilotState::Done);
        let qw = p.queue_wait().unwrap();
        assert!(
            qw >= d(450.0) && qw <= d(510.0),
            "queue wait {qw:?} should be ~500 s minus submission latency"
        );
    }

    #[test]
    fn subscribers_see_all_transitions() {
        let (mut sim, pm) = setup(64);
        let seen: Rc<RefCell<Vec<(PilotId, PilotState)>>> = Rc::new(RefCell::new(vec![]));
        let s2 = seen.clone();
        pm.subscribe(move |_sim, &ev| s2.borrow_mut().push(ev));
        let ids = pm.submit(
            &mut sim,
            vec![PilotDescription::new("stampede", 8, d(60.0))],
        );
        sim.run_to_completion();
        let states: Vec<PilotState> = seen
            .borrow()
            .iter()
            .filter(|(id, _)| *id == ids[0])
            .map(|(_, s)| *s)
            .collect();
        assert_eq!(
            states,
            vec![
                PilotState::PendingLaunch,
                PilotState::Launching,
                PilotState::PendingActive,
                PilotState::Active,
                PilotState::Done
            ]
        );
    }

    #[test]
    fn cancel_while_queued() {
        let (mut sim, pm) = setup(64);
        let cluster = pm.session().service("stampede").unwrap().cluster();
        cluster.submit(
            &mut sim,
            aimes_cluster::JobRequest::background(64, d(5000.0), d(5000.0)),
        );
        let ids = pm.submit(
            &mut sim,
            vec![PilotDescription::new("stampede", 64, d(100.0))],
        );
        let pm2 = pm.clone();
        let id = ids[0];
        sim.schedule_at(SimTime::from_secs(50.0), move |sim| {
            pm2.cancel(sim, id);
        });
        sim.run_to_completion();
        assert_eq!(pm.state(id), PilotState::Canceled);
        // Cancelled long before the blocking job ended.
        let p = pm.pilot_ref(id);
        let cancelled = p.time_of(PilotState::Canceled).unwrap();
        assert!(cancelled.as_secs() < 100.0);
    }

    #[test]
    fn cancel_all_reaps_live_pilots() {
        let (mut sim, pm) = setup(512);
        pm.submit(
            &mut sim,
            vec![
                PilotDescription::new("stampede", 8, d(10_000.0)),
                PilotDescription::new("stampede", 8, d(10_000.0)),
            ],
        );
        let pm2 = pm.clone();
        sim.schedule_at(SimTime::from_secs(100.0), move |sim| {
            pm2.cancel_all(sim);
        });
        sim.run_to_completion();
        for p in pm.pilots_ref().iter() {
            assert_eq!(p.state, PilotState::Canceled);
        }
        assert!(sim.now().as_secs() < 1000.0);
    }

    #[test]
    fn pilot_dying_before_bootstrap_fails() {
        let (mut sim, pm) = setup(64);
        pm.set_bootstrap_delay(d(120.0));
        // Pilot walltime shorter than bootstrap: the backend job ends
        // while the agent is still starting.
        let ids = pm.submit(
            &mut sim,
            vec![PilotDescription::new("stampede", 8, d(60.0))],
        );
        sim.run_to_completion();
        assert_eq!(pm.state(ids[0]), PilotState::Failed);
    }

    #[test]
    fn failed_pilot_is_replaced_after_outage() {
        let (mut sim, pm) = setup(128);
        pm.set_recovery(PilotRecovery::default());
        let ids = pm.submit(
            &mut sim,
            vec![PilotDescription::new("stampede", 64, d(600.0))],
        );
        let cluster = pm.session().service("stampede").unwrap().cluster();
        sim.schedule_at(SimTime::from_secs(50.0), move |sim| {
            cluster.inject_outage(sim, d(100.0), true);
        });
        sim.run_to_completion();
        // The original died in the outage; one replacement was submitted
        // after the 60 s backoff, waited out the window, and went Active.
        assert_eq!(pm.state(ids[0]), PilotState::Failed);
        assert_eq!(pm.replacements(), 1);
        let pilots = pm.pilots_ref();
        assert_eq!(pilots.len(), 2);
        assert_eq!(pilots[1].state, PilotState::Done);
        let ttr = pm.recovery_times();
        assert_eq!(ttr.len(), 1);
        // Failure at t=50, window until t=150, bootstrap + latency on top.
        assert!(
            ttr[0] >= d(100.0) && ttr[0] <= d(130.0),
            "time-to-recovery {:?}",
            ttr[0]
        );
    }

    #[test]
    fn launch_failures_blacklist_and_reroute() {
        let mut sim = Simulation::new(23);
        let mut session = Session::new();
        session.add_resource(&sim, Cluster::new(ClusterConfig::test("flaky", 64)));
        session.add_resource(&sim, Cluster::new(ClusterConfig::test("solid", 64)));
        session
            .service("flaky")
            .unwrap()
            .inject_launch_faults(0.0, 1.0);
        let pm = PilotManager::new(Rc::new(session));
        pm.set_bootstrap_delay(d(5.0));
        pm.set_recovery(PilotRecovery {
            max_replacements: 3,
            backoff: d(1.0),
            backoff_cap: d(4.0),
            blacklist_after: 3,
            reroute: true,
        });
        pm.submit(&mut sim, vec![PilotDescription::new("flaky", 8, d(60.0))]);
        sim.run_to_completion();
        // Three consecutive launch failures blacklist `flaky`; the next
        // replacement reroutes to `solid` and completes.
        assert_eq!(pm.blacklisted(), vec!["flaky".to_string()]);
        assert_eq!(pm.replacements(), 3);
        let pilots = pm.pilots_ref();
        assert_eq!(pilots.len(), 4);
        let last = &pilots[3];
        assert_eq!(last.description.resource, "solid");
        assert_eq!(last.state, PilotState::Done);
    }

    #[test]
    fn replacement_cap_exhausts_without_reroute() {
        let mut sim = Simulation::new(29);
        let mut session = Session::new();
        session.add_resource(&sim, Cluster::new(ClusterConfig::test("flaky", 64)));
        session
            .service("flaky")
            .unwrap()
            .inject_launch_faults(0.0, 1.0);
        let pm = PilotManager::new(Rc::new(session));
        pm.set_recovery(PilotRecovery {
            max_replacements: 2,
            backoff: d(1.0),
            backoff_cap: d(4.0),
            blacklist_after: 10,
            reroute: false,
        });
        pm.submit(&mut sim, vec![PilotDescription::new("flaky", 8, d(60.0))]);
        sim.run_to_completion();
        // Original + 2 replacements, all Failed; then the cap stops it —
        // the run drains instead of looping forever.
        assert_eq!(pm.replacements(), 2);
        let pilots = pm.pilots_ref();
        assert_eq!(pilots.len(), 3);
        assert!(pilots.iter().all(|p| p.state == PilotState::Failed));
        assert_eq!(pm.recovery_times().len(), 0);
    }

    #[test]
    #[should_panic(expected = "unknown resource")]
    fn unknown_resource_panics() {
        let (mut sim, pm) = setup(64);
        pm.submit(
            &mut sim,
            vec![PilotDescription::new("nonexistent", 8, d(60.0))],
        );
    }

    proptest::proptest! {
        /// Bit-identical to the body `delay` had before it became a call
        /// to [`SimDuration::backoff`], for any base, cap and generation.
        #[test]
        fn prop_delay_matches_oracle(
            base in 0.0f64..1e290,
            cap in 0.0f64..1e300,
            generation in proptest::prelude::any::<u32>(),
        ) {
            let policy = PilotRecovery {
                backoff: d(base),
                backoff_cap: d(cap),
                ..PilotRecovery::default()
            };
            let factor = 2.0_f64.powi(generation.min(30) as i32);
            let oracle = (policy.backoff * factor).min(policy.backoff_cap);
            proptest::prop_assert_eq!(
                policy.delay(generation).as_secs().to_bits(),
                oracle.as_secs().to_bits()
            );
        }
    }
}
