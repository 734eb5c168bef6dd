//! Sessions and job services.
//!
//! A [`Session`] fronts the whole resource pool; a [`JobService`] fronts
//! one resource through its [`BatchAdaptor`].
//! Submissions incur the adaptor's round-trip latency, transient failures
//! are retried with backoff, and backend state changes are translated into
//! the SAGA state model and delivered to the submitter's callback — the
//! mechanism the pilot layer builds its own state model on.

use crate::adaptor::{adaptor_for, BatchAdaptor};
use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::error::{SagaError, SagaOp};
use crate::job_api::{JobDescription, SagaJobId, SagaJobState};
use aimes_cluster::{Cluster, JobId as BackendJobId, JobRequest, JobState};
use aimes_sim::{SagaVerb, SimDuration, SimRng, Simulation};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

/// Callback invoked on every SAGA state transition of a job.
pub type StateCallback = Box<dyn FnMut(&mut Simulation, SagaJobState)>;

/// Callback fired when a resource's circuit breaker trips open.
pub type BreakerTripCallback = Box<dyn FnMut(&mut Simulation, &str)>;

/// Callback receiving the answer of one status query.
pub type StatusCallback = Box<dyn FnOnce(&mut Simulation, Result<SagaJobState, SagaError>)>;

/// Ceiling on retry backoff (seconds): exponential growth must not
/// outwait the failure it is meant to ride out.
const BACKOFF_CAP_SECS: f64 = 120.0;

/// Exponential backoff with jitter: the fresh round-trip latency draw *is*
/// the jitter source, doubled per burned attempt and capped. Keeping the
/// jitter inside the latency draw means retry paths consume exactly one
/// RNG draw, the same shape as the original linear backoff.
fn backoff(lat: SimDuration, attempts: u32) -> SimDuration {
    let factor = f64::from(2u32.saturating_pow(attempts.saturating_sub(1)).min(1 << 16));
    (lat * factor).min(SimDuration::from_secs(BACKOFF_CAP_SECS))
}

struct JobRecord {
    desc: JobDescription,
    state: SagaJobState,
    backend: Option<BackendJobId>,
    attempts: u32,
    cancel_requested: bool,
    callback: Option<StateCallback>,
}

struct ServiceState {
    resource: String,
    cluster: Cluster,
    adaptor: Box<dyn BatchAdaptor>,
    rng: SimRng,
    jobs: HashMap<SagaJobId, JobRecord>,
    counter: Rc<Cell<u64>>,
    max_attempts: u32,
    // Fault injection on top of the adaptor's intrinsic flakiness. The
    // transient boost adds to the adaptor's retry-able failure chance; the
    // permanent chance fails a submission attempt outright (middleware
    // misconfiguration, credential expiry — things a retry cannot fix).
    fault_transient: f64,
    fault_permanent: f64,
    // Optional per-resource circuit breaker shared by submit, cancel and
    // status queries. None (the default) keeps the legacy always-retry
    // behaviour and its exact event/RNG streams.
    breaker: Option<CircuitBreaker>,
    trip_subscribers: Vec<BreakerTripCallback>,
}

/// Handle to the job service of one resource.
#[derive(Clone)]
pub struct JobService {
    inner: Rc<RefCell<ServiceState>>,
}

impl JobService {
    /// Create a service for `cluster`, choosing the adaptor by resource
    /// name. `counter` is the session-global id allocator.
    fn new(sim: &Simulation, cluster: Cluster, counter: Rc<Cell<u64>>) -> Self {
        let resource = cluster.name();
        let adaptor = adaptor_for(&resource);
        let rng = sim.fork_rng(&format!("saga.{resource}"));
        JobService {
            inner: Rc::new(RefCell::new(ServiceState {
                resource,
                cluster,
                adaptor,
                rng,
                jobs: HashMap::new(),
                counter,
                max_attempts: 4,
                fault_transient: 0.0,
                fault_permanent: 0.0,
                breaker: None,
                trip_subscribers: Vec::new(),
            })),
        }
    }

    /// Arm the per-resource circuit breaker. Until this is called the
    /// service behaves exactly as before (no breaker consults, no extra
    /// draws), so legacy runs replay unchanged.
    pub fn enable_breaker(&self, config: BreakerConfig) {
        self.inner.borrow_mut().breaker = Some(CircuitBreaker::new(config));
    }

    /// Subscribe to breaker trips. The callback receives the resource name
    /// each time the breaker transitions to open.
    pub fn on_breaker_trip(&self, cb: impl FnMut(&mut Simulation, &str) + 'static) {
        self.inner.borrow_mut().trip_subscribers.push(Box::new(cb));
    }

    /// Current breaker state, if one is armed.
    pub fn breaker_state(&self) -> Option<BreakerState> {
        self.inner.borrow().breaker.as_ref().map(|b| b.state())
    }

    /// How often the breaker has tripped open.
    pub fn breaker_trips(&self) -> u64 {
        self.inner
            .borrow()
            .breaker
            .as_ref()
            .map_or(0, |b| b.trips())
    }

    /// Deliver a breaker trip to subscribers (re-entrancy-safe: callbacks
    /// may submit or cancel through this very service).
    fn fire_breaker_trip(&self, sim: &mut Simulation) {
        let (mut subs, resource) = {
            let mut st = self.inner.borrow_mut();
            (
                std::mem::take(&mut st.trip_subscribers),
                st.resource.clone(),
            )
        };
        sim.metrics()
            .inc(|| format!("saga.{resource}.breaker_trips"));
        sim.tracer().record_with(sim.now(), || {
            (
                format!("saga.breaker.{resource}"),
                SagaVerb::BreakerTrip.name(),
                "circuit open".into(),
            )
        });
        for cb in subs.iter_mut() {
            cb(sim, &resource);
        }
        let mut st = self.inner.borrow_mut();
        let added = std::mem::take(&mut st.trip_subscribers);
        subs.extend(added);
        st.trip_subscribers = subs;
    }

    /// The resource this service fronts.
    pub fn resource(&self) -> String {
        self.inner.borrow().resource.clone()
    }

    /// Adaptor flavour (for traces).
    pub fn flavor(&self) -> &'static str {
        self.inner.borrow().adaptor.flavor()
    }

    /// The cluster behind this service (introspection used by bundles).
    pub fn cluster(&self) -> Cluster {
        self.inner.borrow().cluster.clone()
    }

    /// Inject launch failures on top of the adaptor's intrinsic flakiness:
    /// `transient` adds to the retry-able failure chance per attempt,
    /// `permanent` fails an attempt outright (no retry). Both draws come
    /// from the service's own RNG stream, so a given seed replays the same
    /// failure pattern. Zero probabilities consume no extra draws — the
    /// no-fault stream is byte-identical to a service never configured.
    pub fn inject_launch_faults(&self, transient: f64, permanent: f64) {
        let mut st = self.inner.borrow_mut();
        st.fault_transient = transient.clamp(0.0, 1.0);
        st.fault_permanent = permanent.clamp(0.0, 1.0);
    }

    /// Submit a job. The callback fires on every state transition
    /// (Pending, Running, then a terminal state). Returns immediately with
    /// the job id; the actual submission happens after the adaptor latency.
    pub fn submit(
        &self,
        sim: &mut Simulation,
        desc: JobDescription,
        callback: impl FnMut(&mut Simulation, SagaJobState) + 'static,
    ) -> SagaJobId {
        let (id, latency) = {
            let mut st = self.inner.borrow_mut();
            let st = &mut *st;
            let id = SagaJobId(st.counter.get());
            st.counter.set(id.0 + 1);
            let latency = st.adaptor.submission_latency(&mut st.rng);
            st.jobs.insert(
                id,
                JobRecord {
                    desc,
                    state: SagaJobState::New,
                    backend: None,
                    attempts: 0,
                    cancel_requested: false,
                    callback: Some(Box::new(callback)),
                },
            );
            (id, latency)
        };
        sim.metrics()
            .inc(|| format!("saga.{}.submissions", self.resource()));
        sim.tracer().record_with(sim.now(), || {
            (
                format!("saga.{}", id.0),
                SagaJobState::New.name(),
                self.resource(),
            )
        });
        let this = self.clone();
        sim.schedule_in(latency, move |sim| this.attempt_submission(sim, id));
        id
    }

    fn attempt_submission(&self, sim: &mut Simulation, id: SagaJobId) {
        let _prof = sim.profiler().scope("saga.session");
        enum Outcome {
            Cancelled,
            Retry(SimDuration),
            Fail,
            Submitted(BackendJobId),
        }
        let now = sim.now();
        let mut tripped = false;
        let outcome = {
            let mut guard = self.inner.borrow_mut();
            let st = &mut *guard;
            let rec = st.jobs.get_mut(&id).expect("job exists");
            if rec.cancel_requested {
                Outcome::Cancelled
            } else if !st.breaker.as_mut().is_none_or(|b| b.allows(now)) {
                // Open breaker: rejected locally, no round-trip. The
                // attempt is still burned; retries back off in case the
                // breaker re-admits traffic within the attempt budget.
                rec.attempts += 1;
                let attempts = rec.attempts;
                if attempts >= st.max_attempts {
                    Outcome::Fail
                } else {
                    let lat = st.adaptor.submission_latency(&mut st.rng);
                    Outcome::Retry(backoff(lat, attempts))
                }
            } else if st.cluster.is_decommissioned() {
                // The front end died with the machine: deterministic
                // connection refusal — observable, no fault draw, and
                // evidence against the endpoint for the breaker.
                rec.attempts += 1;
                let attempts = rec.attempts;
                tripped = st.breaker.as_mut().is_some_and(|b| b.record_failure(now));
                if attempts >= st.max_attempts {
                    Outcome::Fail
                } else {
                    let lat = st.adaptor.submission_latency(&mut st.rng);
                    Outcome::Retry(backoff(lat, attempts))
                }
            } else if st.fault_permanent > 0.0 && st.rng.chance(st.fault_permanent) {
                rec.attempts += 1;
                Outcome::Fail
            } else {
                let transient_p =
                    (st.adaptor.transient_failure_chance() + st.fault_transient).min(0.95);
                let failed = st.rng.chance(transient_p);
                rec.attempts += 1;
                if failed {
                    let attempts = rec.attempts;
                    tripped = st.breaker.as_mut().is_some_and(|b| b.record_failure(now));
                    if attempts >= st.max_attempts {
                        Outcome::Fail
                    } else {
                        // Exponential backoff; the fresh round-trip draw
                        // doubles as jitter.
                        let lat = st.adaptor.submission_latency(&mut st.rng);
                        Outcome::Retry(backoff(lat, attempts))
                    }
                } else {
                    if let Some(b) = st.breaker.as_mut() {
                        b.record_success();
                    }
                    let (cores, walltime, tag, queue) = (
                        rec.desc.cores,
                        rec.desc.walltime,
                        rec.desc.tag.clone(),
                        rec.desc.queue.clone(),
                    );
                    let cluster = st.cluster.clone();
                    drop(guard);
                    let mut req = JobRequest::pilot(cores, walltime, tag);
                    req.queue = queue;
                    let backend = cluster.submit(sim, req);
                    Outcome::Submitted(backend)
                }
            }
        };
        if tripped {
            self.fire_breaker_trip(sim);
        }
        match outcome {
            Outcome::Cancelled => self.transition(sim, id, SagaJobState::Canceled),
            Outcome::Fail => self.transition(sim, id, SagaJobState::Failed),
            Outcome::Retry(delay) => {
                let this = self.clone();
                sim.metrics()
                    .inc(|| format!("saga.{}.retry_submission", self.resource()));
                sim.tracer().record_with(sim.now(), || {
                    (
                        format!("saga.{}", id.0),
                        SagaVerb::RetrySubmission.name(),
                        self.resource(),
                    )
                });
                sim.schedule_in(delay, move |sim| this.attempt_submission(sim, id));
            }
            Outcome::Submitted(backend) => {
                {
                    let mut st = self.inner.borrow_mut();
                    st.jobs.get_mut(&id).expect("exists").backend = Some(backend);
                }
                self.transition(sim, id, SagaJobState::Pending);
                let this = self.clone();
                let cluster = self.inner.borrow().cluster.clone();
                cluster.watch(backend, move |sim, bstate| {
                    this.on_backend_change(sim, id, bstate);
                });
            }
        }
    }

    fn on_backend_change(&self, sim: &mut Simulation, id: SagaJobId, bstate: JobState) {
        let _prof = sim.profiler().scope("saga.session");
        let next = SagaJobState::from_backend(bstate);
        self.transition(sim, id, next);
    }

    /// Apply a state transition and deliver the callback.
    fn transition(&self, sim: &mut Simulation, id: SagaJobId, next: SagaJobState) {
        let (cb, resource) = {
            let mut st = self.inner.borrow_mut();
            let resource = st.resource.clone();
            let rec = st.jobs.get_mut(&id).expect("job exists");
            if rec.state == next || rec.state.is_terminal() {
                return;
            }
            assert!(
                rec.state.can_transition_to(next),
                "illegal SAGA transition {:?} -> {:?} for {id}",
                rec.state,
                next
            );
            rec.state = next;
            (rec.callback.take(), resource)
        };
        sim.tracer().record_with(sim.now(), || {
            (format!("saga.{}", id.0), next.name(), resource)
        });
        if let Some(mut cb) = cb {
            cb(sim, next);
            if !next.is_terminal() {
                // Reinstall unless the callback's reentrancy replaced it.
                let mut st = self.inner.borrow_mut();
                let rec = st.jobs.get_mut(&id).expect("job exists");
                if rec.callback.is_none() {
                    rec.callback = Some(cb);
                }
            }
        }
    }

    /// Request cancellation. Queued-or-running jobs are cancelled after a
    /// cancellation round-trip (transient failures are retried with
    /// backoff); not-yet-submitted jobs are cancelled at their submission
    /// attempt.
    pub fn cancel(&self, sim: &mut Simulation, id: SagaJobId) {
        let (backend, latency) = {
            let mut st = self.inner.borrow_mut();
            let st = &mut *st;
            let Some(rec) = st.jobs.get_mut(&id) else {
                return;
            };
            if rec.state.is_terminal() {
                return;
            }
            rec.cancel_requested = true;
            let backend = rec.backend;
            let latency = st.adaptor.cancellation_latency(&mut st.rng);
            (backend, latency)
        };
        if backend.is_some() {
            let this = self.clone();
            sim.schedule_in(latency, move |sim| this.attempt_cancel(sim, id, 1));
        }
        // If not yet submitted, attempt_submission observes the flag.
    }

    /// One cancellation round-trip has completed; decide whether it
    /// reached the backend. Failed attempts retry with exponential
    /// backoff; an exhausted budget or an open breaker abandons the
    /// cancellation (the job simply runs on — exactly what a lost `qdel`
    /// does in the field).
    fn attempt_cancel(&self, sim: &mut Simulation, id: SagaJobId, attempt: u32) {
        let _prof = sim.profiler().scope("saga.session");
        enum Outcome {
            Settled,
            Retry(SimDuration),
            GiveUp,
            Cancel(BackendJobId, Cluster),
        }
        let now = sim.now();
        let mut tripped = false;
        let outcome = {
            let mut guard = self.inner.borrow_mut();
            let st = &mut *guard;
            let Some(rec) = st.jobs.get(&id) else {
                return;
            };
            let Some(backend) = rec.backend else {
                return;
            };
            if rec.state.is_terminal() {
                Outcome::Settled
            } else if !st.breaker.as_mut().is_none_or(|b| b.allows(now)) {
                Outcome::GiveUp
            } else {
                // A decommissioned front end refuses deterministically;
                // otherwise the adaptor's cancel flakiness decides. The
                // draw is gated so zero-chance adaptors stay draw-free.
                let chance = st.adaptor.cancel_failure_chance();
                let failed =
                    st.cluster.is_decommissioned() || (chance > 0.0 && st.rng.chance(chance));
                if failed {
                    tripped = st.breaker.as_mut().is_some_and(|b| b.record_failure(now));
                    if attempt >= st.max_attempts {
                        Outcome::GiveUp
                    } else {
                        let lat = st.adaptor.cancellation_latency(&mut st.rng);
                        Outcome::Retry(backoff(lat, attempt))
                    }
                } else {
                    if let Some(b) = st.breaker.as_mut() {
                        b.record_success();
                    }
                    Outcome::Cancel(backend, st.cluster.clone())
                }
            }
        };
        if tripped {
            self.fire_breaker_trip(sim);
        }
        match outcome {
            Outcome::Settled => {}
            Outcome::Retry(delay) => {
                let this = self.clone();
                sim.metrics()
                    .inc(|| format!("saga.{}.retry_cancel", self.resource()));
                sim.tracer().record_with(sim.now(), || {
                    (
                        format!("saga.{}", id.0),
                        SagaVerb::RetryCancel.name(),
                        self.resource(),
                    )
                });
                sim.schedule_in(delay, move |sim| this.attempt_cancel(sim, id, attempt + 1));
            }
            Outcome::GiveUp => {
                sim.metrics()
                    .inc(|| format!("saga.{}.cancel_abandoned", self.resource()));
                sim.tracer().record_with(sim.now(), || {
                    (
                        format!("saga.{}", id.0),
                        SagaVerb::CancelAbandoned.name(),
                        self.resource(),
                    )
                });
            }
            Outcome::Cancel(backend, cluster) => {
                cluster.cancel(sim, backend);
            }
        }
    }

    /// Query the current state of a job as the batch system reports it —
    /// a remote round-trip, unlike the free local [`state`](Self::state)
    /// bookkeeping. Transient failures retry with exponential backoff; an
    /// open breaker rejects the query immediately with
    /// [`SagaError::CircuitOpen`]; a decommissioned front end refuses
    /// every attempt until the budget is exhausted.
    pub fn query_status(
        &self,
        sim: &mut Simulation,
        id: SagaJobId,
        cb: impl FnOnce(&mut Simulation, Result<SagaJobState, SagaError>) + 'static,
    ) {
        if !self.inner.borrow().jobs.contains_key(&id) {
            cb(sim, Err(SagaError::UnknownJob));
            return;
        }
        let latency = {
            let mut st = self.inner.borrow_mut();
            let st = &mut *st;
            st.adaptor.status_latency(&mut st.rng)
        };
        let this = self.clone();
        sim.schedule_in(latency, move |sim| {
            this.attempt_status(sim, id, 1, Box::new(cb));
        });
    }

    /// One status round-trip has completed; decide whether it succeeded.
    fn attempt_status(
        &self,
        sim: &mut Simulation,
        id: SagaJobId,
        attempt: u32,
        cb: StatusCallback,
    ) {
        enum Outcome {
            Reject(SagaError),
            Retry(SimDuration),
            Exhausted(u32),
            Answer(SagaJobState),
        }
        let now = sim.now();
        let mut tripped = false;
        let outcome = {
            let mut guard = self.inner.borrow_mut();
            let st = &mut *guard;
            let Some(rec) = st.jobs.get(&id) else {
                drop(guard);
                cb(sim, Err(SagaError::UnknownJob));
                return;
            };
            let state = rec.state;
            if !st.breaker.as_mut().is_none_or(|b| b.allows(now)) {
                // An open breaker is itself a strong health signal: tell
                // the caller immediately instead of burning retries.
                Outcome::Reject(SagaError::CircuitOpen {
                    op: SagaOp::StatusQuery,
                    resource: st.resource.clone(),
                })
            } else {
                let chance = st.adaptor.status_failure_chance();
                let failed =
                    st.cluster.is_decommissioned() || (chance > 0.0 && st.rng.chance(chance));
                if failed {
                    tripped = st.breaker.as_mut().is_some_and(|b| b.record_failure(now));
                    if attempt >= st.max_attempts {
                        Outcome::Exhausted(attempt)
                    } else {
                        let lat = st.adaptor.status_latency(&mut st.rng);
                        Outcome::Retry(backoff(lat, attempt))
                    }
                } else {
                    if let Some(b) = st.breaker.as_mut() {
                        b.record_success();
                    }
                    Outcome::Answer(state)
                }
            }
        };
        if tripped {
            self.fire_breaker_trip(sim);
        }
        match outcome {
            Outcome::Reject(err) => cb(sim, Err(err)),
            Outcome::Exhausted(attempts) => cb(
                sim,
                Err(SagaError::TransientExhausted {
                    op: SagaOp::StatusQuery,
                    attempts,
                }),
            ),
            Outcome::Retry(delay) => {
                let this = self.clone();
                sim.metrics()
                    .inc(|| format!("saga.{}.retry_status", self.resource()));
                sim.tracer().record_with(sim.now(), || {
                    (
                        format!("saga.{}", id.0),
                        SagaVerb::RetryStatusQuery.name(),
                        self.resource(),
                    )
                });
                sim.schedule_in(delay, move |sim| {
                    this.attempt_status(sim, id, attempt + 1, cb)
                });
            }
            Outcome::Answer(state) => cb(sim, Ok(state)),
        }
    }

    /// Current SAGA state of a job.
    pub fn state(&self, id: SagaJobId) -> Option<SagaJobState> {
        self.inner.borrow().jobs.get(&id).map(|r| r.state)
    }

    /// The backend job id, once submitted.
    pub fn backend_job(&self, id: SagaJobId) -> Option<BackendJobId> {
        self.inner.borrow().jobs.get(&id).and_then(|r| r.backend)
    }
}

/// A session over the whole resource pool.
pub struct Session {
    services: HashMap<String, JobService>,
    counter: Rc<Cell<u64>>,
}

impl Session {
    /// Empty session.
    pub fn new() -> Self {
        Session {
            services: HashMap::new(),
            counter: Rc::new(Cell::new(0)),
        }
    }

    /// Attach a resource; creates its job service with the right adaptor.
    pub fn add_resource(&mut self, sim: &Simulation, cluster: Cluster) -> JobService {
        let svc = JobService::new(sim, cluster.clone(), self.counter.clone());
        self.services.insert(cluster.name(), svc.clone());
        svc
    }

    /// The job service for a resource.
    pub fn service(&self, resource: &str) -> Option<JobService> {
        self.services.get(resource).cloned()
    }

    /// Names of all attached resources (sorted for determinism).
    pub fn resources(&self) -> Vec<String> {
        let mut names: Vec<_> = self.services.keys().cloned().collect();
        names.sort();
        names
    }
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimes_cluster::ClusterConfig;
    use aimes_sim::SimTime;

    fn d(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn setup(cores: u32) -> (Simulation, Session, JobService) {
        let sim = Simulation::new(11);
        let cluster = Cluster::new(ClusterConfig::test("stampede", cores));
        let mut session = Session::new();
        let svc = session.add_resource(&sim, cluster);
        (sim, session, svc)
    }

    type SeenStates = Rc<RefCell<Vec<SagaJobState>>>;

    fn collect_states() -> (
        SeenStates,
        impl FnMut(&mut Simulation, SagaJobState) + 'static,
    ) {
        let seen: Rc<RefCell<Vec<SagaJobState>>> = Rc::new(RefCell::new(vec![]));
        let s2 = seen.clone();
        (seen, move |_sim: &mut Simulation, st| {
            s2.borrow_mut().push(st)
        })
    }

    #[test]
    fn job_reaches_done_through_full_lifecycle() {
        let (mut sim, _sess, svc) = setup(64);
        let (seen, cb) = collect_states();
        let id = svc.submit(&mut sim, JobDescription::new(32, d(100.0), "p0"), cb);
        assert_eq!(svc.state(id), Some(SagaJobState::New));
        sim.run_to_completion();
        assert_eq!(svc.state(id), Some(SagaJobState::Done));
        assert_eq!(
            *seen.borrow(),
            vec![
                SagaJobState::Pending,
                SagaJobState::Running,
                SagaJobState::Done
            ]
        );
        // Submission latency delayed the backend submission: the job ended
        // at latency + 100 s, not exactly 100 s.
        assert!(sim.now().as_secs() > 100.0);
        assert!(sim.now().as_secs() < 110.0);
    }

    #[test]
    fn submission_latency_applies_per_flavor() {
        // stampede → slurm (0.5–3 s).
        let (mut sim, _sess, svc) = setup(64);
        assert_eq!(svc.flavor(), "slurm");
        let (_seen, cb) = collect_states();
        let id = svc.submit(&mut sim, JobDescription::new(1, d(10.0), "p"), cb);
        // Step until the backend job exists.
        while svc.backend_job(id).is_none() && sim.step() {}
        let now = sim.now().as_secs();
        assert!((0.5..3.0).contains(&now), "latency was {now}");
    }

    #[test]
    fn cancel_before_submission_lands() {
        let (mut sim, _sess, svc) = setup(64);
        let (seen, cb) = collect_states();
        let id = svc.submit(&mut sim, JobDescription::new(32, d(100.0), "p0"), cb);
        svc.cancel(&mut sim, id);
        sim.run_to_completion();
        assert_eq!(svc.state(id), Some(SagaJobState::Canceled));
        assert_eq!(*seen.borrow(), vec![SagaJobState::Canceled]);
        assert!(svc.backend_job(id).is_none());
    }

    #[test]
    fn cancel_running_job() {
        let (mut sim, _sess, svc) = setup(64);
        let (seen, cb) = collect_states();
        let id = svc.submit(&mut sim, JobDescription::new(32, d(10_000.0), "p0"), cb);
        let svc2 = svc.clone();
        sim.schedule_at(SimTime::from_secs(100.0), move |sim| {
            svc2.cancel(sim, id);
        });
        sim.run_to_completion();
        assert_eq!(svc.state(id), Some(SagaJobState::Canceled));
        assert_eq!(
            *seen.borrow(),
            vec![
                SagaJobState::Pending,
                SagaJobState::Running,
                SagaJobState::Canceled
            ]
        );
        // Ended shortly after the cancel request (cancellation latency),
        // not at the 10 000 s walltime.
        assert!(sim.now().as_secs() < 150.0);
    }

    #[test]
    fn transient_failures_are_retried() {
        // Unknown resource → condor adaptor with 5 % failure. With many
        // submissions, some retry; all eventually succeed.
        let mut sim = Simulation::new(1313);
        let cluster = Cluster::new(ClusterConfig::test("osg-pool", 4096));
        let mut session = Session::new();
        let svc = session.add_resource(&sim, cluster);
        assert_eq!(svc.flavor(), "condor");
        let ids: Vec<_> = (0..200)
            .map(|i| {
                svc.submit(
                    &mut sim,
                    JobDescription::new(1, d(10.0), format!("p{i}")),
                    |_, _| {},
                )
            })
            .collect();
        sim.run_to_completion();
        for id in &ids {
            assert_eq!(svc.state(*id), Some(SagaJobState::Done));
        }
        let retries = sim
            .tracer()
            .snapshot()
            .iter()
            .filter(|e| e.event == "RetrySubmission")
            .count();
        assert!(retries > 0, "expected some retries at 5 % failure rate");
    }

    #[test]
    fn injected_permanent_fault_fails_without_retry() {
        let (mut sim, _sess, svc) = setup(64);
        svc.inject_launch_faults(0.0, 1.0);
        let (seen, cb) = collect_states();
        let id = svc.submit(&mut sim, JobDescription::new(32, d(100.0), "p0"), cb);
        sim.run_to_completion();
        assert_eq!(svc.state(id), Some(SagaJobState::Failed));
        assert_eq!(*seen.borrow(), vec![SagaJobState::Failed]);
        assert!(svc.backend_job(id).is_none());
        let retries = sim
            .tracer()
            .snapshot()
            .iter()
            .filter(|e| e.event == "RetrySubmission")
            .count();
        assert_eq!(retries, 0, "permanent faults must not retry");
    }

    #[test]
    fn injected_transient_fault_exhausts_attempts() {
        // Boosted to the 95 % ceiling the overwhelming majority of jobs
        // burn all four attempts; check that at least one does and that
        // every failure went through visible retries first.
        let (mut sim, _sess, svc) = setup(4096);
        svc.inject_launch_faults(1.0, 0.0);
        let ids: Vec<_> = (0..20)
            .map(|i| {
                svc.submit(
                    &mut sim,
                    JobDescription::new(1, d(10.0), format!("p{i}")),
                    |_, _| {},
                )
            })
            .collect();
        sim.run_to_completion();
        let failed = ids
            .iter()
            .filter(|id| svc.state(**id) == Some(SagaJobState::Failed))
            .count();
        assert!(failed > 0, "0.95^4 per job over 20 jobs must fail some");
        let retries = sim
            .tracer()
            .snapshot()
            .iter()
            .filter(|e| e.event == "RetrySubmission")
            .count();
        assert!(retries > 0, "transient faults retry before giving up");
    }

    #[test]
    fn zero_fault_injection_preserves_the_rng_stream() {
        // Configuring (0.0, 0.0) must be byte-identical to never touching
        // the service: the fault draws are gated, not merely weighted.
        let run = |configure: bool| {
            let (mut sim, _sess, svc) = setup(64);
            if configure {
                svc.inject_launch_faults(0.0, 0.0);
            }
            let ids: Vec<_> = (0..50)
                .map(|i| {
                    svc.submit(
                        &mut sim,
                        JobDescription::new(1, d(10.0), format!("p{i}")),
                        |_, _| {},
                    )
                })
                .collect();
            sim.run_to_completion();
            (sim.now(), sim.events_processed(), ids.len())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn session_multiplexes_resources() {
        let mut sim = Simulation::new(2);
        let mut session = Session::new();
        for spec in aimes_cluster::paper_testbed() {
            let mut cfg = spec.config;
            cfg.workload = None; // idle machines: fast test
            session.add_resource(&sim, Cluster::new(cfg));
        }
        assert_eq!(session.resources().len(), 5);
        assert_eq!(
            session.resources(),
            vec!["blacklight", "gordon", "hopper", "stampede", "trestles"]
        );
        // Ids are globally unique across services.
        let a = session.service("stampede").unwrap().submit(
            &mut sim,
            JobDescription::new(1, d(10.0), "a"),
            |_, _| {},
        );
        let b = session.service("hopper").unwrap().submit(
            &mut sim,
            JobDescription::new(1, d(10.0), "b"),
            |_, _| {},
        );
        assert_ne!(a, b);
        sim.run_to_completion();
    }

    #[test]
    fn walltime_killed_job_reports_failed() {
        // A backend job that overruns its walltime maps to Failed. Pilots
        // never do (runtime == walltime), but the mapping must hold.
        let mut sim = Simulation::new(3);
        let cluster = Cluster::new(ClusterConfig::test("stampede", 64));
        // Submit directly to the backend with runtime > walltime, then
        // check the SAGA translation function (service-level jobs are
        // always pilots).
        use aimes_cluster::JobState as B;
        let id = cluster.submit(&mut sim, JobRequest::background(8, d(100.0), d(50.0)));
        sim.run_to_completion();
        assert_eq!(cluster.job_state(id), Some(B::Killed));
        assert_eq!(SagaJobState::from_backend(B::Killed), SagaJobState::Failed);
    }

    #[test]
    fn queue_request_reaches_the_backend() {
        use aimes_cluster::QueueConfig;
        let mut sim = Simulation::new(12);
        let mut cfg = aimes_cluster::ClusterConfig::test("stampede", 64);
        cfg.queues = vec![QueueConfig::normal(), QueueConfig::debug(d(1800.0), 16)];
        let cluster = Cluster::new(cfg);
        let mut session = Session::new();
        let svc = session.add_resource(&sim, cluster.clone());
        let id = svc.submit(
            &mut sim,
            JobDescription::new(8, d(600.0), "p").with_queue("debug"),
            |_, _| {},
        );
        sim.run_to_completion();
        assert_eq!(svc.state(id), Some(SagaJobState::Done));
        let backend = svc.backend_job(id).unwrap();
        let job = cluster.job(backend).unwrap();
        assert_eq!(job.request.queue.as_deref(), Some("debug"));
        assert_eq!(job.queue_priority, 10);
    }

    #[test]
    fn unknown_job_queries_are_none() {
        let (_sim, _sess, svc) = setup(8);
        assert_eq!(svc.state(SagaJobId(99)), None);
        assert_eq!(svc.backend_job(SagaJobId(99)), None);
    }

    #[test]
    fn status_query_reports_backend_state() {
        let (mut sim, _sess, svc) = setup(64);
        let (_seen, cb) = collect_states();
        let id = svc.submit(&mut sim, JobDescription::new(32, d(500.0), "p0"), cb);
        // Let the job reach Running, then ask the front end.
        while svc.state(id) != Some(SagaJobState::Running) && sim.step() {}
        let answer: Rc<RefCell<Option<Result<SagaJobState, crate::SagaError>>>> =
            Rc::new(RefCell::new(None));
        let a2 = answer.clone();
        svc.query_status(&mut sim, id, move |_sim, res| {
            *a2.borrow_mut() = Some(res);
        });
        // The answer arrives after the status round-trip, not instantly,
        // and reports the state at answer time (the job is mid-run).
        assert!(answer.borrow().is_none());
        sim.run_to_completion();
        assert_eq!(*answer.borrow(), Some(Ok(SagaJobState::Running)));
    }

    #[test]
    fn status_query_of_unknown_job_errors() {
        let (mut sim, _sess, svc) = setup(8);
        let answer = Rc::new(RefCell::new(None));
        let a2 = answer.clone();
        svc.query_status(&mut sim, SagaJobId(99), move |_sim, res| {
            *a2.borrow_mut() = Some(res);
        });
        assert_eq!(*answer.borrow(), Some(Err(crate::SagaError::UnknownJob)));
    }

    #[test]
    fn status_query_exhausts_against_decommissioned_frontend() {
        let (mut sim, _sess, svc) = setup(64);
        let (_seen, cb) = collect_states();
        let id = svc.submit(&mut sim, JobDescription::new(32, d(10_000.0), "p0"), cb);
        while svc.state(id) != Some(SagaJobState::Running) && sim.step() {}
        svc.cluster().decommission(&mut sim);
        let answer = Rc::new(RefCell::new(None));
        let a2 = answer.clone();
        svc.query_status(&mut sim, id, move |_sim, res| {
            *a2.borrow_mut() = Some(res);
        });
        sim.run_to_completion();
        assert_eq!(
            *answer.borrow(),
            Some(Err(crate::SagaError::TransientExhausted {
                op: crate::SagaOp::StatusQuery,
                attempts: 4,
            }))
        );
    }

    #[test]
    fn breaker_trips_on_dead_endpoint_then_rejects_locally() {
        use crate::breaker::{BreakerConfig, BreakerState};
        let (mut sim, _sess, svc) = setup(64);
        svc.enable_breaker(BreakerConfig {
            failure_threshold: 3,
            cooldown: SimDuration::from_secs(600.0),
        });
        let trips: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(vec![]));
        let t2 = trips.clone();
        svc.on_breaker_trip(move |_sim, resource| t2.borrow_mut().push(resource.to_string()));
        svc.cluster().decommission(&mut sim);
        // Every submission attempt is refused at the connection level;
        // three refusals trip the breaker, the fourth is rejected locally.
        let (seen, cb) = collect_states();
        let id = svc.submit(&mut sim, JobDescription::new(8, d(100.0), "p0"), cb);
        sim.run_to_completion();
        assert_eq!(svc.state(id), Some(SagaJobState::Failed));
        assert_eq!(*seen.borrow(), vec![SagaJobState::Failed]);
        assert_eq!(*trips.borrow(), vec!["stampede".to_string()]);
        assert_eq!(svc.breaker_state(), Some(BreakerState::Open));
        assert_eq!(svc.breaker_trips(), 1);
        // A status query against the open breaker is rejected immediately.
        let answer = Rc::new(RefCell::new(None));
        let a2 = answer.clone();
        svc.query_status(&mut sim, id, move |_sim, res| {
            *a2.borrow_mut() = Some(res);
        });
        sim.run_to_completion();
        assert_eq!(
            *answer.borrow(),
            Some(Err(crate::SagaError::CircuitOpen {
                op: crate::SagaOp::StatusQuery,
                resource: "stampede".into(),
            }))
        );
    }

    #[test]
    fn breaker_half_open_probe_closes_on_healthy_endpoint() {
        use crate::breaker::{BreakerConfig, BreakerState};
        let (mut sim, _sess, svc) = setup(4096);
        svc.enable_breaker(BreakerConfig {
            failure_threshold: 2,
            cooldown: SimDuration::from_secs(30.0),
        });
        // Force the streak with injected transient faults, then clear the
        // fault and let the post-cooldown probe close the breaker.
        svc.inject_launch_faults(1.0, 0.0);
        let id = svc.submit(&mut sim, JobDescription::new(1, d(10.0), "p0"), |_, _| {});
        sim.run_to_completion();
        assert_eq!(svc.state(id), Some(SagaJobState::Failed));
        assert_eq!(svc.breaker_state(), Some(BreakerState::Open));
        svc.inject_launch_faults(0.0, 0.0);
        // Resubmit well past the cooldown so the probe is admitted.
        let id2 = Rc::new(RefCell::new(None));
        let (svc2, id2w) = (svc.clone(), id2.clone());
        sim.schedule_in(SimDuration::from_secs(120.0), move |sim| {
            *id2w.borrow_mut() =
                Some(svc2.submit(sim, JobDescription::new(1, d(10.0), "p1"), |_, _| {}));
        });
        sim.run_to_completion();
        let id2 = id2.borrow().unwrap();
        assert_eq!(svc.state(id2), Some(SagaJobState::Done));
        assert_eq!(svc.breaker_state(), Some(BreakerState::Closed));
    }

    #[test]
    fn cancel_retries_are_visible_in_the_trace() {
        // Condor's 5 % cancel flakiness over many cancellations must show
        // at least one retry, and every job must still end Canceled.
        let mut sim = Simulation::new(77);
        let cluster = Cluster::new(ClusterConfig::test("osg-pool", 4096));
        let mut session = Session::new();
        let svc = session.add_resource(&sim, cluster);
        let ids: Vec<_> = (0..150)
            .map(|i| {
                svc.submit(
                    &mut sim,
                    JobDescription::new(1, d(50_000.0), format!("p{i}")),
                    |_, _| {},
                )
            })
            .collect();
        let svc2 = svc.clone();
        let ids2 = ids.clone();
        sim.schedule_at(SimTime::from_secs(2_000.0), move |sim| {
            for id in &ids2 {
                svc2.cancel(sim, *id);
            }
        });
        sim.run_to_completion();
        let retries = sim
            .tracer()
            .snapshot()
            .iter()
            .filter(|e| e.event == "RetryCancel")
            .count();
        assert!(retries > 0, "expected some cancel retries at 5 %");
        for id in &ids {
            assert_eq!(svc.state(*id), Some(SagaJobState::Canceled));
        }
    }
}
