//! The unit manager: binds compute units to pilots and drives their
//! execution (Figure 1, step 6).
//!
//! "Once the pilots become active, tasks' input files are staged on the
//! resources of the active pilots and then tasks are scheduled and executed
//! on those pilots. Tasks are automatically restarted in case of failure
//! and, once executed, task output(s) are staged back to the source where
//! the AIMES middleware is being used." (§III-E)

use crate::agent::{Agent, StagingChannel};
use crate::pilot::{PilotId, PilotState};
use crate::pilot_manager::PilotManager;
use crate::scheduler::{assign, Binding, PilotView, UnitScheduler, UnitView};
use crate::unit::{ComputeUnit, UnitId, UnitState};
use aimes_sim::{EventId, ManagerPhase, SimDuration, SimTime, Simulation, UnitVerb};
use aimes_skeleton::TaskSpec;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

/// Dwell-time histogram name for time spent *in* `state`.
fn unit_dwell_metric(state: UnitState) -> String {
    match state {
        UnitState::New => "unit.dwell.new",
        UnitState::PendingExecution => "unit.dwell.pending_execution",
        UnitState::StagingInput => "unit.dwell.staging_input",
        UnitState::Executing => "unit.dwell.executing",
        UnitState::StagingOutput => "unit.dwell.staging_output",
        UnitState::Done => "unit.dwell.done",
        UnitState::Failed => "unit.dwell.failed",
        UnitState::Canceled => "unit.dwell.canceled",
    }
    .to_string()
}

/// Transition `unit`, first observing how long it dwelled in its current
/// state (no-op histogram update when metrics are disabled).
fn transition_unit(sim: &Simulation, unit: &mut ComputeUnit, next: UnitState, now: SimTime) {
    if let Some(&(prev, entered)) = unit.timestamps.last() {
        let dwell = now.saturating_since(entered);
        sim.metrics()
            .observe(dwell.as_secs(), || unit_dwell_metric(prev));
    }
    unit.transition(next, now);
}

/// Unit-manager configuration.
#[derive(Clone, Debug)]
pub struct UmConfig {
    pub scheduler: UnitScheduler,
    pub binding: Binding,
    /// Maximum execution attempts per unit before it is marked Failed.
    pub max_attempts: u32,
    /// Origin uplink bandwidth (MB/s) — the shared staging bottleneck.
    pub origin_bandwidth_mbps: f64,
    /// Per-transfer latency on the origin channel.
    pub origin_latency: SimDuration,
    /// Serialized middleware overhead per unit dispatch (the Trp
    /// contribution that steepens Tx beyond ~256 tasks in Fig. 3).
    pub dispatch_overhead: SimDuration,
    /// Fault injection: chance that an execution attempt dies partway
    /// (node crash, segfault). Zero (the default) draws nothing — the
    /// event stream is identical to a manager without fault support.
    pub unit_fault_chance: f64,
    /// Given a fault, chance it is permanent (bad input, poisoned task):
    /// the unit fails outright instead of being retried.
    pub unit_fault_permanent_chance: f64,
    /// Base delay before a failed unit re-enters the ready queue,
    /// growing exponentially with the attempt count. Zero (the default)
    /// restores the legacy immediate-restart behavior.
    pub retry_backoff: SimDuration,
    /// Ceiling for the exponential retry backoff.
    pub retry_backoff_cap: SimDuration,
    /// Checkpoint interval for unit execution. Zero (the default) means
    /// no checkpointing: an aborted attempt restarts from scratch. Non-
    /// zero, an aborted Executing attempt keeps its progress truncated
    /// to the last interval boundary and the next attempt resumes there.
    pub checkpoint_interval: SimDuration,
}

impl UmConfig {
    /// The paper-experiment configuration for a given binding/scheduler.
    pub fn new(binding: Binding, scheduler: UnitScheduler) -> Self {
        UmConfig {
            scheduler,
            binding,
            max_attempts: 3,
            origin_bandwidth_mbps: 5.0,
            origin_latency: SimDuration::from_secs(0.1),
            dispatch_overhead: SimDuration::from_secs(0.05),
            unit_fault_chance: 0.0,
            unit_fault_permanent_chance: 0.0,
            retry_backoff: SimDuration::ZERO,
            retry_backoff_cap: SimDuration::ZERO,
            checkpoint_interval: SimDuration::ZERO,
        }
    }

    /// Reject configurations that would silently misbehave at run time.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_attempts == 0 {
            return Err("max_attempts is 0: every unit would fail before its first try".into());
        }
        if !self.retry_backoff.is_zero() && self.retry_backoff_cap < self.retry_backoff {
            return Err(format!(
                "inverted cap: retry_backoff_cap {:.0}s < retry_backoff {:.0}s",
                self.retry_backoff_cap.as_secs(),
                self.retry_backoff.as_secs()
            ));
        }
        Ok(())
    }

    /// Delay before re-queueing attempt number `attempts` (1-based count
    /// of attempts already made): `retry_backoff * 2^(attempts-1)`,
    /// capped. Zero base means no delay. The cap is honored as given —
    /// an inverted cap is a [`Self::validate`] error, not a silent widen.
    pub fn retry_delay(&self, attempts: u32) -> SimDuration {
        if self.retry_backoff.is_zero() {
            return SimDuration::ZERO;
        }
        let exp = attempts.saturating_sub(1).min(30);
        let delay = self.retry_backoff * 2.0_f64.powi(exp as i32);
        delay.min(self.retry_backoff_cap)
    }
}

/// Checkpoint-salvage notifications, fired by the unit manager when
/// checkpointing is enabled (the middleware journals these).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SalvageEvent {
    /// An aborted attempt's progress was banked at an interval boundary.
    /// `progress_secs` is the cumulative checkpointed execution time.
    Checkpoint { progress_secs: f64 },
    /// A new attempt is starting from the last checkpoint instead of
    /// from zero; `salvaged_secs` of execution need not be redone.
    Resume { salvaged_secs: f64 },
}

/// Progress counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct UnitManagerStats {
    pub total: usize,
    pub done: usize,
    pub failed: usize,
    pub restarts: u64,
}

impl UnitManagerStats {
    /// True once every unit reached a terminal state.
    pub fn finished(&self) -> bool {
        self.total > 0 && self.done + self.failed == self.total
    }
}

/// Callback fired once when every unit reaches a terminal state.
type CompletionCallback = Box<dyn FnOnce(&mut Simulation)>;

/// Observer fired after every unit state transition — the hook the
/// middleware's run journal uses to record unit history.
type UnitTransitionCallback = Box<dyn FnMut(&mut Simulation, UnitId, UnitState)>;

/// Observer fired on checkpoint/resume salvage events.
type SalvageCallback = Box<dyn FnMut(&mut Simulation, UnitId, SalvageEvent)>;

struct UmState {
    config: UmConfig,
    units: Vec<ComputeUnit>,
    /// Unresolved dependency count per unit.
    dep_count: Vec<usize>,
    /// Reverse dependency edges.
    dependents: Vec<Vec<UnitId>>,
    /// Eligible-but-unscheduled units, FIFO.
    ready: VecDeque<UnitId>,
    /// Early-binding assignment per unit.
    bound: Vec<Option<PilotId>>,
    agents: HashMap<PilotId, Agent>,
    /// Cancellable pending event for units in StagingInput/Executing.
    inflight: HashMap<UnitId, EventId>,
    origin_channel: StagingChannel,
    overhead_busy_until: SimTime,
    /// Lazily forked stream for unit-fault draws; stays unforked (and the
    /// simulation's RNG tree untouched) while fault injection is off.
    fault_rng: Option<aimes_sim::SimRng>,
    rr_cursor: usize,
    stats: UnitManagerStats,
    transition_subscribers: Vec<UnitTransitionCallback>,
    salvage_subscribers: Vec<SalvageCallback>,
    on_all_done: Vec<CompletionCallback>,
    schedule_pending: bool,
    completion_fired: bool,
}

/// Handle to the unit manager.
#[derive(Clone)]
pub struct UnitManager {
    inner: Rc<RefCell<UmState>>,
    pm: PilotManager,
}

impl UnitManager {
    /// Create a unit manager over a pilot manager; subscribes to pilot
    /// state changes immediately.
    pub fn new(pm: PilotManager, config: UmConfig) -> Self {
        let um = UnitManager {
            inner: Rc::new(RefCell::new(UmState {
                origin_channel: StagingChannel::new(
                    config.origin_bandwidth_mbps,
                    config.origin_latency,
                ),
                config,
                units: Vec::new(),
                dep_count: Vec::new(),
                dependents: Vec::new(),
                ready: VecDeque::new(),
                bound: Vec::new(),
                agents: HashMap::new(),
                inflight: HashMap::new(),
                overhead_busy_until: SimTime::ZERO,
                fault_rng: None,
                rr_cursor: 0,
                stats: UnitManagerStats::default(),
                transition_subscribers: Vec::new(),
                salvage_subscribers: Vec::new(),
                on_all_done: Vec::new(),
                schedule_pending: false,
                completion_fired: false,
            })),
            pm: pm.clone(),
        };
        let weak = Rc::downgrade(&um.inner);
        let pm2 = pm.clone();
        pm.subscribe(move |sim, pilot, state| {
            if let Some(inner) = weak.upgrade() {
                let um = UnitManager {
                    inner,
                    pm: pm2.clone(),
                };
                um.on_pilot_state(sim, pilot, state);
            }
        });
        // Environment-side channel: a pilot whose agent went silent can no
        // longer deliver completions, even though the client still sees it
        // as Active until the detector declares it dead.
        let weak = Rc::downgrade(&um.inner);
        let pm3 = pm.clone();
        pm.on_pilot_silent(move |sim, pilot| {
            if let Some(inner) = weak.upgrade() {
                let um = UnitManager {
                    inner,
                    pm: pm3.clone(),
                };
                um.on_pilot_silent(sim, pilot);
            }
        });
        um
    }

    /// Register an observer fired after every unit state transition (the
    /// middleware journal records unit history through this hook).
    pub fn subscribe(&self, cb: impl FnMut(&mut Simulation, UnitId, UnitState) + 'static) {
        self.inner
            .borrow_mut()
            .transition_subscribers
            .push(Box::new(cb));
    }

    /// Fire transition observers with the state released (callbacks may
    /// re-enter the manager). Subscribers added during the callbacks are
    /// kept.
    fn fire_transition(&self, sim: &mut Simulation, uid: UnitId, state: UnitState) {
        let mut subs = std::mem::take(&mut self.inner.borrow_mut().transition_subscribers);
        if subs.is_empty() {
            return;
        }
        for cb in &mut subs {
            cb(sim, uid, state);
        }
        let mut st = self.inner.borrow_mut();
        let added = std::mem::take(&mut st.transition_subscribers);
        st.transition_subscribers = subs;
        st.transition_subscribers.extend(added);
    }

    /// Register an observer fired on checkpoint/resume salvage events
    /// (only ever fired when `checkpoint_interval` is non-zero).
    pub fn on_salvage(&self, cb: impl FnMut(&mut Simulation, UnitId, SalvageEvent) + 'static) {
        self.inner
            .borrow_mut()
            .salvage_subscribers
            .push(Box::new(cb));
    }

    /// Fire salvage observers with the state released (callbacks may
    /// re-enter the manager).
    fn fire_salvage(&self, sim: &mut Simulation, uid: UnitId, event: SalvageEvent) {
        let mut subs = std::mem::take(&mut self.inner.borrow_mut().salvage_subscribers);
        if subs.is_empty() {
            return;
        }
        for cb in &mut subs {
            cb(sim, uid, event);
        }
        let mut st = self.inner.borrow_mut();
        let added = std::mem::take(&mut st.salvage_subscribers);
        st.salvage_subscribers = subs;
        st.salvage_subscribers.extend(added);
    }

    /// Register a callback fired once when every unit has reached a
    /// terminal state.
    pub fn on_all_done(&self, cb: impl FnOnce(&mut Simulation) + 'static) {
        self.inner.borrow_mut().on_all_done.push(Box::new(cb));
    }

    /// Submit the application's tasks as compute units. For early binding,
    /// units are partitioned in contiguous blocks across the pilots known
    /// to the pilot manager at this point.
    pub fn submit_units(&self, sim: &mut Simulation, tasks: &[TaskSpec]) {
        let now = sim.now();
        {
            let mut st = self.inner.borrow_mut();
            let st = &mut *st;
            assert!(st.units.is_empty(), "submit_units may be called once");
            let n = tasks.len();
            st.units.reserve(n);
            st.dep_count = vec![0; n];
            st.dependents = vec![Vec::new(); n];
            st.bound = vec![None; n];
            st.stats.total = n;
            for (i, task) in tasks.iter().enumerate() {
                assert_eq!(task.id.0 as usize, i, "task ids must be dense and in order");
                let uid = UnitId(i as u32);
                st.units.push(ComputeUnit::new(uid, task.clone(), now));
                st.dep_count[i] = task.dependencies.len();
                for dep in &task.dependencies {
                    st.dependents[dep.0 as usize].push(uid);
                }
            }
            if st.config.binding == Binding::Early {
                let pilots = self.pm.pilots();
                assert!(
                    !pilots.is_empty(),
                    "early binding requires pilots to be described first"
                );
                // Contiguous blocks proportional to pilot cores.
                let total_cores: u64 = pilots.iter().map(|p| u64::from(p.description.cores)).sum();
                let mut cursor = 0usize;
                for (k, p) in pilots.iter().enumerate() {
                    let share = if k + 1 == pilots.len() {
                        n - cursor
                    } else {
                        ((u64::from(p.description.cores) * n as u64) / total_cores) as usize
                    };
                    for slot in &mut st.bound[cursor..(cursor + share).min(n)] {
                        *slot = Some(p.id);
                    }
                    cursor = (cursor + share).min(n);
                }
            }
        }
        // Move dependency-free units to PendingExecution.
        let ready_now: Vec<UnitId> = {
            let st = self.inner.borrow();
            (0..st.units.len() as u32)
                .map(UnitId)
                .filter(|u| st.dep_count[u.0 as usize] == 0)
                .collect()
        };
        for uid in ready_now {
            self.make_ready(sim, uid);
        }
        self.request_schedule(sim);
    }

    fn make_ready(&self, sim: &mut Simulation, uid: UnitId) {
        {
            let mut st = self.inner.borrow_mut();
            transition_unit(
                sim,
                &mut st.units[uid.0 as usize],
                UnitState::PendingExecution,
                sim.now(),
            );
            st.ready.push_back(uid);
        }
        sim.tracer().record_with(sim.now(), || {
            (
                uid.to_string(),
                UnitState::PendingExecution.name(),
                String::new(),
            )
        });
        self.fire_transition(sim, uid, UnitState::PendingExecution);
    }

    fn on_pilot_state(&self, sim: &mut Simulation, pilot: PilotId, state: PilotState) {
        match state {
            PilotState::Active => {
                let p = self.pm.pilot(pilot);
                let cluster = self
                    .pm
                    .session()
                    .service(&p.description.resource)
                    .expect("resource exists")
                    .cluster();
                let agent = Agent::new(
                    pilot,
                    cluster,
                    p.description.cores,
                    sim.now(),
                    p.description.walltime,
                );
                self.inner.borrow_mut().agents.insert(pilot, agent);
                self.request_schedule(sim);
            }
            s if s.is_terminal() => self.on_pilot_death(sim, pilot),
            _ => {}
        }
    }

    fn on_pilot_death(&self, sim: &mut Simulation, pilot: PilotId) {
        let victims: Vec<UnitId> = {
            let mut st = self.inner.borrow_mut();
            st.agents.remove(&pilot);
            st.units
                .iter()
                .filter(|u| {
                    u.pilot == Some(pilot)
                        && matches!(u.state, UnitState::StagingInput | UnitState::Executing)
                })
                .map(|u| u.id)
                .collect()
        };
        for uid in victims {
            let ev = self.inner.borrow_mut().inflight.remove(&uid);
            if let Some(ev) = ev {
                sim.cancel(ev);
            }
            self.restart_or_fail(sim, uid);
        }
        self.request_schedule(sim);
    }

    /// Physical effect of a pilot going silent: the agent process is gone,
    /// so in-flight staging/execution completions can never arrive and no
    /// new units can be dispatched to it. Client-visible unit states stay
    /// untouched — the middleware still believes those units are running
    /// until the detector declares the pilot dead, at which point the
    /// normal death path ([`Self::on_pilot_death`]) restarts them.
    fn on_pilot_silent(&self, sim: &mut Simulation, pilot: PilotId) {
        let (events, stranded) = {
            let mut st = self.inner.borrow_mut();
            let st = &mut *st;
            st.agents.remove(&pilot);
            let stranded: Vec<UnitId> = st
                .units
                .iter()
                .filter(|u| {
                    u.pilot == Some(pilot)
                        && matches!(u.state, UnitState::StagingInput | UnitState::Executing)
                })
                .map(|u| u.id)
                .collect();
            let events: Vec<EventId> = stranded
                .iter()
                .filter_map(|uid| st.inflight.remove(uid))
                .collect();
            (events, stranded.len())
        };
        for ev in events {
            sim.cancel(ev);
        }
        if stranded > 0 {
            sim.metrics()
                .inc_by(stranded as u64, || "unit.manager.stranded".into());
            sim.tracer().record_with(sim.now(), || {
                (
                    "unit_manager".into(),
                    ManagerPhase::UnitsStranded.name(),
                    format!("{stranded} on silent {pilot}"),
                )
            });
        }
    }

    fn restart_or_fail(&self, sim: &mut Simulation, uid: UnitId) {
        let (give_up, rebind) = {
            let mut st = self.inner.borrow_mut();
            let max = st.config.max_attempts;
            let unit = &mut st.units[uid.0 as usize];
            let give_up = unit.attempts >= max;
            let rebind = st.config.binding == Binding::Early;
            (give_up, rebind)
        };
        if give_up {
            {
                let mut st = self.inner.borrow_mut();
                transition_unit(
                    sim,
                    &mut st.units[uid.0 as usize],
                    UnitState::Failed,
                    sim.now(),
                );
                st.stats.failed += 1;
            }
            sim.tracer().record_with(sim.now(), || {
                (
                    uid.to_string(),
                    UnitState::Failed.name(),
                    "restarts exhausted".into(),
                )
            });
            self.fire_transition(sim, uid, UnitState::Failed);
            self.check_completion(sim);
            return;
        }
        let (backoff, checkpoint) = {
            let mut st = self.inner.borrow_mut();
            st.stats.restarts += 1;
            let interval = st.config.checkpoint_interval;
            let unit = &mut st.units[uid.0 as usize];
            // Checkpoint salvage: bank the aborted attempt's progress at
            // the last interval boundary. Only an Executing abort has
            // progress to bank; a StagingInput victim keeps whatever an
            // earlier attempt already checkpointed.
            let checkpoint = if !interval.is_zero() && unit.state == UnitState::Executing {
                let entered = unit
                    .timestamps
                    .last()
                    .map(|&(_, t)| t)
                    .unwrap_or_else(|| sim.now());
                let elapsed = sim.now().saturating_since(entered).as_secs();
                let total =
                    (unit.checkpointed.as_secs() + elapsed).min(unit.task.duration.as_secs());
                let boundary = (total / interval.as_secs()).floor() * interval.as_secs();
                if boundary > unit.checkpointed.as_secs() {
                    let delta = boundary - unit.checkpointed.as_secs();
                    unit.checkpointed = SimDuration::from_secs(boundary);
                    unit.salvaged += SimDuration::from_secs(delta);
                    Some(boundary)
                } else {
                    None
                }
            } else {
                None
            };
            let attempts = unit.attempts;
            transition_unit(
                sim,
                &mut st.units[uid.0 as usize],
                UnitState::PendingExecution,
                sim.now(),
            );
            let backoff = st.config.retry_delay(attempts);
            if backoff.is_zero() {
                st.ready.push_back(uid);
            }
            (backoff, checkpoint)
        };
        if let Some(progress) = checkpoint {
            sim.metrics().inc(|| "unit.manager.checkpoints".into());
            self.fire_salvage(
                sim,
                uid,
                SalvageEvent::Checkpoint {
                    progress_secs: progress,
                },
            );
        }
        self.fire_transition(sim, uid, UnitState::PendingExecution);
        if rebind {
            // Early-binding failover: rebind to any live pilot.
            let live = self
                .pm
                .pilots()
                .into_iter()
                .find(|p| !p.state.is_terminal())
                .map(|p| p.id);
            self.inner.borrow_mut().bound[uid.0 as usize] = live;
            if live.is_none() {
                // No pilot can ever run it: fail all its attempts now.
                let ev = {
                    let mut st = self.inner.borrow_mut();
                    st.ready.retain(|u| *u != uid);
                    transition_unit(
                        sim,
                        &mut st.units[uid.0 as usize],
                        UnitState::Failed,
                        sim.now(),
                    );
                    st.stats.failed += 1;
                    st.stats.restarts -= 1;
                    st.inflight.remove(&uid)
                };
                if let Some(ev) = ev {
                    sim.cancel(ev);
                }
                self.fire_transition(sim, uid, UnitState::Failed);
                self.check_completion(sim);
                return;
            }
        }
        sim.metrics().inc(|| "unit.manager.restarts".into());
        if backoff.is_zero() {
            sim.tracer().record_with(sim.now(), || {
                (uid.to_string(), UnitVerb::Restart.name(), String::new())
            });
        } else {
            sim.tracer().record_with(sim.now(), || {
                (
                    uid.to_string(),
                    UnitVerb::Restart.name(),
                    format!("backoff {:.0}s", backoff.as_secs()),
                )
            });
            let this = self.clone();
            sim.schedule_in(backoff, move |sim| {
                {
                    let mut st = this.inner.borrow_mut();
                    // The unit may have been retracted (early binding with
                    // no live pilot) while it waited out the backoff.
                    if st.units[uid.0 as usize].state != UnitState::PendingExecution
                        || st.ready.contains(&uid)
                    {
                        return;
                    }
                    st.ready.push_back(uid);
                }
                this.request_schedule(sim);
            });
        }
    }

    /// Request a (coalesced) scheduling pass.
    fn request_schedule(&self, sim: &mut Simulation) {
        {
            let mut st = self.inner.borrow_mut();
            if st.schedule_pending {
                return;
            }
            st.schedule_pending = true;
        }
        let this = self.clone();
        sim.schedule_now(move |sim| {
            this.inner.borrow_mut().schedule_pending = false;
            this.do_schedule(sim);
        });
    }

    fn do_schedule(&self, sim: &mut Simulation) {
        let _prof = sim.profiler().scope("unit.manager");
        let now = sim.now();
        let assignments = {
            let mut st = self.inner.borrow_mut();
            let st = &mut *st;
            if st.ready.is_empty() || st.agents.is_empty() {
                return;
            }
            // Sort by pilot id: the scheduler's tie-breaking must not
            // depend on HashMap iteration order.
            let mut agent_ids: Vec<PilotId> = st.agents.keys().copied().collect();
            agent_ids.sort_unstable();
            let pilots: Vec<PilotView> = agent_ids
                .iter()
                .map(|pid| {
                    let a = &st.agents[pid];
                    PilotView {
                        id: a.pilot,
                        free_cores: a.free_cores,
                        remaining_walltime: a.remaining_walltime(now),
                    }
                })
                .collect();
            let units: Vec<UnitView> = st
                .ready
                .iter()
                .map(|uid| {
                    let u = &st.units[uid.0 as usize];
                    UnitView {
                        id: *uid,
                        cores: u.task.cores,
                        est_duration: u.task.duration,
                        bound_to: st.bound[uid.0 as usize],
                    }
                })
                .collect();
            assign(st.config.scheduler, &units, &pilots, &mut st.rr_cursor)
        };
        if assignments.is_empty() {
            return;
        }
        {
            let mut st = self.inner.borrow_mut();
            let placed: std::collections::HashSet<UnitId> =
                assignments.iter().map(|(u, _)| *u).collect();
            st.ready.retain(|u| !placed.contains(u));
        }
        for (uid, pid) in assignments {
            self.start_unit(sim, uid, pid);
        }
    }

    fn start_unit(&self, sim: &mut Simulation, uid: UnitId, pid: PilotId) {
        let now = sim.now();
        let (staging_end, resource) = {
            let mut st = self.inner.borrow_mut();
            let st = &mut *st;
            let unit = &mut st.units[uid.0 as usize];
            unit.pilot = Some(pid);
            unit.attempts += 1;
            let agent = st.agents.get_mut(&pid).expect("agent exists");
            agent.reserve(unit.task.cores);
            // Serialized middleware dispatch overhead, then the shared
            // origin staging channel.
            let overhead_start = now.max(st.overhead_busy_until);
            st.overhead_busy_until = overhead_start + st.config.dispatch_overhead;
            let (_t0, staging_end) = st
                .origin_channel
                .enqueue(st.overhead_busy_until, unit.task.input_mb());
            transition_unit(sim, unit, UnitState::StagingInput, now);
            (staging_end, agent.resource.clone())
        };
        sim.tracer().record_with(now, || {
            (
                uid.to_string(),
                UnitState::StagingInput.name(),
                format!("{pid} {resource}"),
            )
        });
        self.fire_transition(sim, uid, UnitState::StagingInput);
        let this = self.clone();
        let ev = sim.schedule_at(staging_end, move |sim| this.on_input_staged(sim, uid));
        self.inner.borrow_mut().inflight.insert(uid, ev);
    }

    fn on_input_staged(&self, sim: &mut Simulation, uid: UnitId) {
        let _prof = sim.profiler().scope("unit.manager");
        let now = sim.now();
        let (duration, fault, resumed_from) = {
            let mut st = self.inner.borrow_mut();
            let st = &mut *st;
            let unit = &mut st.units[uid.0 as usize];
            transition_unit(sim, unit, UnitState::Executing, now);
            // Resume from the last checkpoint boundary: only the
            // remaining work runs. With checkpointing off, `checkpointed`
            // is always zero and this is exactly the task duration.
            let duration = if unit.checkpointed.is_zero() {
                unit.task.duration
            } else {
                unit.task.duration.saturating_sub(unit.checkpointed)
            };
            let resumed_from = (!unit.checkpointed.is_zero()).then(|| unit.checkpointed.as_secs());
            // Fault draw happens up front so the failure instant is part
            // of the deterministic schedule, not a race with completion.
            let fault = if st.config.unit_fault_chance > 0.0 {
                let rng = st
                    .fault_rng
                    .get_or_insert_with(|| sim.fork_rng("um.faults"));
                if rng.chance(st.config.unit_fault_chance) {
                    let at = duration * rng.uniform(0.05, 0.95);
                    let permanent = st.config.unit_fault_permanent_chance > 0.0
                        && rng.chance(st.config.unit_fault_permanent_chance);
                    Some((at, permanent))
                } else {
                    None
                }
            } else {
                None
            };
            (duration, fault, resumed_from)
        };
        sim.tracer().record_with(now, || {
            (
                uid.to_string(),
                UnitState::Executing.name(),
                resumed_from.map_or_else(String::new, |s| format!("resume from {s:.0}s")),
            )
        });
        if let Some(salvaged_secs) = resumed_from {
            sim.metrics().inc(|| "unit.manager.resumes".into());
            self.fire_salvage(sim, uid, SalvageEvent::Resume { salvaged_secs });
        }
        self.fire_transition(sim, uid, UnitState::Executing);
        let this = self.clone();
        let ev = match fault {
            Some((at, permanent)) => {
                sim.schedule_in(at, move |sim| this.on_unit_fault(sim, uid, permanent))
            }
            None => sim.schedule_in(duration, move |sim| this.on_executed(sim, uid)),
        };
        self.inner.borrow_mut().inflight.insert(uid, ev);
    }

    /// An execution attempt died partway. Unlike pilot death, the agent
    /// survives: its cores must be handed back before the unit is retried
    /// or written off.
    fn on_unit_fault(&self, sim: &mut Simulation, uid: UnitId, permanent: bool) {
        let now = sim.now();
        {
            let mut st = self.inner.borrow_mut();
            let st = &mut *st;
            st.inflight.remove(&uid);
            let unit = &st.units[uid.0 as usize];
            let cores = unit.task.cores;
            if let Some(pid) = unit.pilot {
                if let Some(agent) = st.agents.get_mut(&pid) {
                    agent.release(cores);
                }
            }
        }
        sim.metrics().inc(|| "unit.manager.faults".into());
        sim.tracer().record_with(now, || {
            (
                uid.to_string(),
                UnitVerb::Fault.name(),
                if permanent { "permanent" } else { "transient" }.into(),
            )
        });
        if permanent {
            {
                let mut st = self.inner.borrow_mut();
                transition_unit(sim, &mut st.units[uid.0 as usize], UnitState::Failed, now);
                st.stats.failed += 1;
            }
            sim.tracer().record_with(now, || {
                (
                    uid.to_string(),
                    UnitState::Failed.name(),
                    "permanent fault".into(),
                )
            });
            self.fire_transition(sim, uid, UnitState::Failed);
            self.check_completion(sim);
        } else {
            self.restart_or_fail(sim, uid);
        }
        self.request_schedule(sim);
    }

    fn on_executed(&self, sim: &mut Simulation, uid: UnitId) {
        let _prof = sim.profiler().scope("unit.manager");
        let now = sim.now();
        let out_end = {
            let mut st = self.inner.borrow_mut();
            let st = &mut *st;
            st.inflight.remove(&uid);
            let unit = &mut st.units[uid.0 as usize];
            transition_unit(sim, unit, UnitState::StagingOutput, now);
            // Execution done: the core goes back to the pilot; output
            // staging runs over the wide-area channel, off the core.
            let cores = unit.task.cores;
            let out_mb = unit.task.output_mb();
            if let Some(pid) = unit.pilot {
                if let Some(agent) = st.agents.get_mut(&pid) {
                    agent.release(cores);
                }
            }
            let (_t0, out_end) = st.origin_channel.enqueue(now, out_mb);
            out_end
        };
        sim.tracer().record_with(now, || {
            (
                uid.to_string(),
                UnitState::StagingOutput.name(),
                String::new(),
            )
        });
        self.fire_transition(sim, uid, UnitState::StagingOutput);
        let this = self.clone();
        sim.schedule_at(out_end, move |sim| this.on_done(sim, uid));
        self.request_schedule(sim);
    }

    fn on_done(&self, sim: &mut Simulation, uid: UnitId) {
        let _prof = sim.profiler().scope("unit.manager");
        let now = sim.now();
        let newly_ready: Vec<UnitId> = {
            let mut st = self.inner.borrow_mut();
            let st = &mut *st;
            transition_unit(sim, &mut st.units[uid.0 as usize], UnitState::Done, now);
            st.stats.done += 1;
            let mut ready = Vec::new();
            for dep in std::mem::take(&mut st.dependents[uid.0 as usize]) {
                let c = &mut st.dep_count[dep.0 as usize];
                *c -= 1;
                if *c == 0 {
                    ready.push(dep);
                }
            }
            ready
        };
        sim.tracer().record_with(now, || {
            (uid.to_string(), UnitState::Done.name(), String::new())
        });
        self.fire_transition(sim, uid, UnitState::Done);
        for dep in newly_ready {
            self.make_ready(sim, dep);
        }
        self.request_schedule(sim);
        self.check_completion(sim);
    }

    fn check_completion(&self, sim: &mut Simulation) {
        let callbacks = {
            let mut st = self.inner.borrow_mut();
            if st.completion_fired || !st.stats.finished() {
                return;
            }
            st.completion_fired = true;
            std::mem::take(&mut st.on_all_done)
        };
        sim.tracer().record_with(sim.now(), || {
            (
                "unit_manager".into(),
                ManagerPhase::AllDone.name(),
                format!("{:?}", self.stats()),
            )
        });
        for cb in callbacks {
            cb(sim);
        }
    }

    /// Progress counters.
    pub fn stats(&self) -> UnitManagerStats {
        self.inner.borrow().stats
    }

    /// Scale the origin staging channel's bandwidth to `factor` × the
    /// configured base (fault injection: a degraded wide-area link).
    /// Transfers already enqueued keep their end times; only transfers
    /// enqueued from now on see the changed bandwidth.
    pub fn set_origin_bandwidth_factor(&self, factor: f64) {
        let mut st = self.inner.borrow_mut();
        let base = st.config.origin_bandwidth_mbps;
        st.origin_channel.bandwidth_mbps = (base * factor).max(1e-6);
    }

    /// Snapshot of one unit.
    pub fn unit(&self, uid: UnitId) -> ComputeUnit {
        self.inner.borrow().units[uid.0 as usize].clone()
    }

    /// Snapshot of all units.
    pub fn units(&self) -> Vec<ComputeUnit> {
        self.inner.borrow().units.clone()
    }

    /// The pilot manager this unit manager feeds.
    pub fn pilot_manager(&self) -> PilotManager {
        self.pm.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::description::PilotDescription;
    use aimes_cluster::{Cluster, ClusterConfig};
    use aimes_saga::Session;
    use aimes_sim::SimRng;
    use aimes_skeleton::{paper_bag, SkeletonApp, TaskDurationSpec};

    fn d(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn setup(resources: &[(&str, u32)]) -> (Simulation, PilotManager) {
        let sim = Simulation::new(23);
        let mut session = Session::new();
        for (name, cores) in resources {
            session.add_resource(&sim, Cluster::new(ClusterConfig::test(name, *cores)));
        }
        let pm = PilotManager::new(Rc::new(session));
        pm.set_bootstrap_delay(d(10.0));
        (sim, pm)
    }

    fn bag_tasks(n: u32) -> Vec<TaskSpec> {
        let cfg = paper_bag(n, TaskDurationSpec::Uniform15Min);
        SkeletonApp::generate(&cfg, &mut SimRng::new(1))
            .unwrap()
            .tasks()
            .to_vec()
    }

    #[test]
    fn early_binding_single_pilot_runs_bag() {
        let (mut sim, pm) = setup(&[("stampede", 64)]);
        let um = UnitManager::new(
            pm.clone(),
            UmConfig::new(Binding::Early, UnitScheduler::Direct),
        );
        pm.submit(
            &mut sim,
            vec![PilotDescription::new("stampede", 16, d(4000.0))],
        );
        um.submit_units(&mut sim, &bag_tasks(16));
        let pm2 = pm.clone();
        um.on_all_done(move |sim| pm2.cancel_all(sim));
        sim.run_to_completion();
        let stats = um.stats();
        assert_eq!(stats.done, 16);
        assert_eq!(stats.failed, 0);
        assert!(stats.finished());
        // All 16 ran concurrently: executing spans overlap; total time
        // roughly setup + staging + 900 s.
        assert!(sim.now().as_secs() < 1200.0, "took {}", sim.now());
        for u in um.units() {
            assert_eq!(u.state, UnitState::Done);
            assert_eq!(u.attempts, 1);
        }
    }

    #[test]
    fn late_binding_backfill_over_three_pilots() {
        let (mut sim, pm) = setup(&[("stampede", 64), ("gordon", 64), ("trestles", 64)]);
        let um = UnitManager::new(
            pm.clone(),
            UmConfig::new(Binding::Late, UnitScheduler::Backfill),
        );
        // 3 pilots, each a third of the tasks' cores; tasks flow to
        // whichever activates first.
        for r in ["stampede", "gordon", "trestles"] {
            pm.submit(&mut sim, vec![PilotDescription::new(r, 8, d(8000.0))]);
        }
        um.submit_units(&mut sim, &bag_tasks(24));
        let pm2 = pm.clone();
        um.on_all_done(move |sim| pm2.cancel_all(sim));
        sim.run_to_completion();
        assert_eq!(um.stats().done, 24);
        // All three pilots should have executed something.
        let mut used: Vec<PilotId> = um.units().iter().filter_map(|u| u.pilot).collect();
        used.sort();
        used.dedup();
        assert_eq!(used.len(), 3, "all pilots should run units");
        // Pilots were cancelled after completion, not run to walltime.
        for p in pm.pilots() {
            assert_eq!(p.state, PilotState::Canceled);
        }
    }

    #[test]
    fn sequential_waves_when_pilot_smaller_than_bag() {
        let (mut sim, pm) = setup(&[("stampede", 64)]);
        let um = UnitManager::new(
            pm.clone(),
            UmConfig::new(Binding::Late, UnitScheduler::Backfill),
        );
        pm.submit(
            &mut sim,
            vec![PilotDescription::new("stampede", 4, d(8000.0))],
        );
        um.submit_units(&mut sim, &bag_tasks(8));
        let pm2 = pm.clone();
        um.on_all_done(move |sim| pm2.cancel_all(sim));
        sim.run_to_completion();
        assert_eq!(um.stats().done, 8);
        // Two waves of 900 s on 4 cores: at least 1800 s.
        assert!(sim.now().as_secs() >= 1800.0);
    }

    #[test]
    fn dependencies_gate_scheduling() {
        use aimes_skeleton::{map_reduce, SkeletonApp};
        use aimes_workload::Distribution;
        let (mut sim, pm) = setup(&[("stampede", 64)]);
        let um = UnitManager::new(
            pm.clone(),
            UmConfig::new(Binding::Late, UnitScheduler::Backfill),
        );
        pm.submit(
            &mut sim,
            vec![PilotDescription::new("stampede", 16, d(8000.0))],
        );
        let dur = Distribution::Constant { value: 100.0 };
        let cfg = map_reduce("mr", 8, 2, dur.clone(), dur, 1.0, 0.1, 1);
        let app = SkeletonApp::generate(&cfg, &mut SimRng::new(2)).unwrap();
        um.submit_units(&mut sim, app.tasks());
        let pm2 = pm.clone();
        um.on_all_done(move |sim| pm2.cancel_all(sim));
        sim.run_to_completion();
        assert_eq!(um.stats().done, 10);
        // Each reduce must start staging only after *its own* maps are
        // done (many-to-one fan-in of 4 maps per reduce).
        let units = um.units();
        for r in &units[8..] {
            let deps_done = r
                .task
                .dependencies
                .iter()
                .map(|d| units[d.0 as usize].last_time_of(UnitState::Done).unwrap())
                .fold(SimTime::ZERO, SimTime::max);
            let staged = r.last_time_of(UnitState::StagingInput).unwrap();
            assert!(staged >= deps_done);
        }
    }

    #[test]
    fn units_restart_when_pilot_dies_midway() {
        let (mut sim, pm) = setup(&[("stampede", 64), ("gordon", 64)]);
        let um = UnitManager::new(
            pm.clone(),
            UmConfig::new(Binding::Late, UnitScheduler::RoundRobin),
        );
        // Pilot 0: walltime shorter than the tasks (900 s each) → its
        // units are interrupted and must restart; pilot 1 is big enough.
        pm.submit(
            &mut sim,
            vec![PilotDescription::new("stampede", 8, d(400.0))],
        );
        pm.submit(
            &mut sim,
            vec![PilotDescription::new("gordon", 8, d(20_000.0))],
        );
        um.submit_units(&mut sim, &bag_tasks(8));
        let pm2 = pm.clone();
        um.on_all_done(move |sim| pm2.cancel_all(sim));
        sim.run_to_completion();
        let stats = um.stats();
        assert_eq!(stats.done, 8, "{stats:?}");
        assert!(stats.restarts > 0, "expected restarts, got {stats:?}");
    }

    #[test]
    fn units_fail_after_max_attempts() {
        let (mut sim, pm) = setup(&[("stampede", 64)]);
        let mut cfg = UmConfig::new(Binding::Late, UnitScheduler::RoundRobin);
        cfg.max_attempts = 2;
        let um = UnitManager::new(pm.clone(), cfg);
        // Two consecutive short pilots; round robin keeps scheduling the
        // 900 s tasks into 300 s pilots, exhausting attempts.
        pm.submit(
            &mut sim,
            vec![
                PilotDescription::new("stampede", 8, d(300.0)),
                PilotDescription::new("stampede", 8, d(300.0)),
            ],
        );
        um.submit_units(&mut sim, &bag_tasks(8));
        sim.run_to_completion();
        let stats = um.stats();
        assert!(stats.finished());
        assert_eq!(stats.failed, 8, "{stats:?}");
    }

    #[test]
    fn transient_unit_faults_retry_to_completion() {
        let (mut sim, pm) = setup(&[("stampede", 64)]);
        let mut cfg = UmConfig::new(Binding::Late, UnitScheduler::Backfill);
        cfg.unit_fault_chance = 0.5;
        cfg.max_attempts = 50; // transient faults only: retries always win
        let um = UnitManager::new(pm.clone(), cfg);
        pm.submit(
            &mut sim,
            vec![PilotDescription::new("stampede", 16, d(40_000.0))],
        );
        um.submit_units(&mut sim, &bag_tasks(16));
        let pm2 = pm.clone();
        um.on_all_done(move |sim| pm2.cancel_all(sim));
        sim.run_to_completion();
        let stats = um.stats();
        assert_eq!(stats.done, 16, "{stats:?}");
        assert_eq!(stats.failed, 0);
        assert!(stats.restarts > 0, "50 % fault rate must restart some");
        // Cores were handed back after every fault: nothing leaked, every
        // retried unit found a free slot again.
        for u in um.units() {
            assert_eq!(u.state, UnitState::Done);
        }
    }

    #[test]
    fn permanent_unit_faults_fail_without_retry() {
        let (mut sim, pm) = setup(&[("stampede", 64)]);
        let mut cfg = UmConfig::new(Binding::Late, UnitScheduler::Backfill);
        cfg.unit_fault_chance = 1.0;
        cfg.unit_fault_permanent_chance = 1.0;
        let um = UnitManager::new(pm.clone(), cfg);
        pm.submit(
            &mut sim,
            vec![PilotDescription::new("stampede", 16, d(40_000.0))],
        );
        um.submit_units(&mut sim, &bag_tasks(8));
        let pm2 = pm.clone();
        um.on_all_done(move |sim| pm2.cancel_all(sim));
        sim.run_to_completion();
        let stats = um.stats();
        assert_eq!(stats.failed, 8, "{stats:?}");
        assert_eq!(stats.done, 0);
        assert_eq!(stats.restarts, 0, "permanent faults must not retry");
        assert!(stats.finished());
    }

    #[test]
    fn retry_backoff_delays_restart() {
        let run = |backoff: f64| {
            let (mut sim, pm) = setup(&[("stampede", 64)]);
            let mut cfg = UmConfig::new(Binding::Late, UnitScheduler::Backfill);
            cfg.unit_fault_chance = 1.0; // every attempt faults...
            cfg.max_attempts = 4;
            cfg.retry_backoff = d(backoff);
            cfg.retry_backoff_cap = d(backoff * 8.0);
            let um = UnitManager::new(pm.clone(), cfg);
            pm.submit(
                &mut sim,
                vec![PilotDescription::new("stampede", 16, d(40_000.0))],
            );
            um.submit_units(&mut sim, &bag_tasks(4));
            sim.run_to_completion();
            let stats = um.stats();
            assert!(stats.finished());
            assert_eq!(stats.failed, 4, "{stats:?}");
            um.units()
                .iter()
                .filter_map(|u| u.last_time_of(UnitState::Failed))
                .max()
                .unwrap()
        };
        // Same fault pattern (same seed), but each of the 3 retries per
        // unit waits 100/200/400 s: the backoff run must finish at least
        // 700 s later than the immediate-restart run.
        let immediate = run(0.0);
        let delayed = run(100.0);
        assert!(
            delayed.since(immediate) >= d(700.0),
            "immediate {immediate:?} vs delayed {delayed:?}"
        );
    }

    #[test]
    fn retry_delay_honors_the_cap_as_given() {
        let mut cfg = UmConfig::new(Binding::Late, UnitScheduler::Backfill);
        cfg.retry_backoff = d(100.0);
        cfg.retry_backoff_cap = d(150.0);
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.retry_delay(1), d(100.0));
        // Regression: a deliberately-low cap used to be widened to
        // max(cap, backoff * 2^k); it must clamp exactly where set.
        assert_eq!(cfg.retry_delay(2), d(150.0));
        assert_eq!(cfg.retry_delay(10), d(150.0));
        // An inverted cap is a validation error now, not a silent widen.
        cfg.retry_backoff_cap = d(50.0);
        assert!(cfg.validate().unwrap_err().contains("inverted cap"));
        assert_eq!(cfg.retry_delay(1), d(50.0), "cap honored even inverted");
    }

    #[test]
    fn config_validate_rejects_degenerate_settings() {
        let good = UmConfig::new(Binding::Late, UnitScheduler::Backfill);
        assert!(good.validate().is_ok());
        let mut cfg = good.clone();
        cfg.max_attempts = 0;
        assert!(cfg.validate().unwrap_err().contains("max_attempts"));
        // Zero backoff with zero cap is the legacy no-delay config: fine.
        let mut cfg = good;
        cfg.retry_backoff = SimDuration::ZERO;
        cfg.retry_backoff_cap = SimDuration::ZERO;
        assert!(cfg.validate().is_ok());
    }

    proptest::proptest! {
        /// `retry_delay` is monotone in the attempt count, saturates at
        /// the cap, and never overflows even at absurd attempt counts.
        #[test]
        fn prop_retry_delay_monotone_and_capped(
            base in 1.0f64..600.0,
            cap_factor in 1.0f64..64.0,
            attempts in 1u32..10_000,
        ) {
            let mut cfg = UmConfig::new(Binding::Late, UnitScheduler::Backfill);
            cfg.retry_backoff = d(base);
            cfg.retry_backoff_cap = d(base * cap_factor);
            proptest::prop_assert!(cfg.validate().is_ok());
            let delay = cfg.retry_delay(attempts);
            proptest::prop_assert!(delay.as_secs().is_finite());
            proptest::prop_assert!(delay >= d(0.0));
            proptest::prop_assert!(delay <= cfg.retry_backoff_cap);
            proptest::prop_assert!(delay <= cfg.retry_delay(attempts + 1));
            // Saturation: far past the cap crossover, the delay is pinned.
            proptest::prop_assert_eq!(cfg.retry_delay(40), cfg.retry_delay(100_000));
            proptest::prop_assert_eq!(cfg.retry_delay(40), cfg.retry_backoff_cap);
        }
    }

    #[test]
    fn checkpointed_units_resume_from_the_boundary() {
        // Pilot 0 dies at walltime 400 s mid-execution (tasks are 900 s);
        // pilot 1 picks the victims up. With a 60 s checkpoint interval
        // the restarted units resume partway instead of from zero.
        let run = |interval: f64| {
            let (mut sim, pm) = setup(&[("stampede", 64), ("gordon", 64)]);
            let mut cfg = UmConfig::new(Binding::Late, UnitScheduler::RoundRobin);
            cfg.checkpoint_interval = d(interval);
            let um = UnitManager::new(pm.clone(), cfg);
            let salvage: Rc<RefCell<Vec<(UnitId, SalvageEvent)>>> =
                Rc::new(RefCell::new(Vec::new()));
            let s2 = salvage.clone();
            um.on_salvage(move |_, uid, ev| s2.borrow_mut().push((uid, ev)));
            pm.submit(
                &mut sim,
                vec![PilotDescription::new("stampede", 8, d(400.0))],
            );
            pm.submit(
                &mut sim,
                vec![PilotDescription::new("gordon", 8, d(20_000.0))],
            );
            um.submit_units(&mut sim, &bag_tasks(8));
            let pm2 = pm.clone();
            um.on_all_done(move |sim| pm2.cancel_all(sim));
            sim.run_to_completion();
            let stats = um.stats();
            assert_eq!(stats.done, 8, "{stats:?}");
            assert!(stats.restarts > 0, "short pilot must interrupt units");
            let events = salvage.borrow().clone();
            (sim.now(), um.units(), events)
        };
        let (plain_ttc, plain_units, plain_events) = run(0.0);
        assert!(plain_units.iter().all(|u| u.salvaged.is_zero()));
        assert!(plain_events.is_empty(), "no events with checkpointing off");

        let (ck_ttc, ck_units, ck_events) = run(60.0);
        let salvaged: f64 = ck_units.iter().map(|u| u.salvaged.as_secs()).sum();
        assert!(salvaged > 0.0, "interrupted units must bank progress");
        for u in &ck_units {
            let b = u.checkpointed.as_secs();
            assert!(
                (b / 60.0 - (b / 60.0).round()).abs() < 1e-9,
                "checkpoint {b}s is not on a 60 s boundary"
            );
            assert_eq!(u.checkpointed, u.salvaged, "single-resume accounting");
        }
        // Every banked checkpoint was followed by a resume carrying it.
        let checkpoints: Vec<_> = ck_events
            .iter()
            .filter(|(_, e)| matches!(e, SalvageEvent::Checkpoint { .. }))
            .collect();
        let resumes: Vec<_> = ck_events
            .iter()
            .filter(|(_, e)| matches!(e, SalvageEvent::Resume { .. }))
            .collect();
        assert!(!checkpoints.is_empty());
        assert_eq!(checkpoints.len(), resumes.len());
        // Resuming partway beats redoing the work from zero.
        assert!(
            ck_ttc < plain_ttc,
            "resume must finish earlier ({ck_ttc:?} vs {plain_ttc:?})"
        );
    }

    #[test]
    fn degraded_origin_channel_slows_staging() {
        let run = |factor: f64| {
            let (mut sim, pm) = setup(&[("stampede", 64)]);
            let um = UnitManager::new(
                pm.clone(),
                UmConfig::new(Binding::Late, UnitScheduler::Backfill),
            );
            pm.submit(
                &mut sim,
                vec![PilotDescription::new("stampede", 16, d(40_000.0))],
            );
            um.set_origin_bandwidth_factor(factor);
            um.submit_units(&mut sim, &bag_tasks(16));
            let pm2 = pm.clone();
            um.on_all_done(move |sim| pm2.cancel_all(sim));
            sim.run_to_completion();
            assert_eq!(um.stats().done, 16);
            sim.now()
        };
        let healthy = run(1.0);
        let degraded = run(0.1);
        assert!(
            degraded > healthy,
            "10× slower staging must lengthen the run ({healthy:?} vs {degraded:?})"
        );
    }

    #[test]
    fn backfill_refuses_pilot_too_short_for_tasks() {
        let (mut sim, pm) = setup(&[("stampede", 64), ("gordon", 64)]);
        let um = UnitManager::new(
            pm.clone(),
            UmConfig::new(Binding::Late, UnitScheduler::Backfill),
        );
        // Short pilot: backfill must never place 900 s tasks there.
        pm.submit(
            &mut sim,
            vec![PilotDescription::new("stampede", 8, d(400.0))],
        );
        pm.submit(
            &mut sim,
            vec![PilotDescription::new("gordon", 8, d(20_000.0))],
        );
        um.submit_units(&mut sim, &bag_tasks(8));
        let pm2 = pm.clone();
        um.on_all_done(move |sim| pm2.cancel_all(sim));
        sim.run_to_completion();
        let stats = um.stats();
        assert_eq!(stats.done, 8);
        assert_eq!(stats.restarts, 0, "backfill should avoid the short pilot");
        for u in um.units() {
            assert_eq!(u.pilot, Some(PilotId(1)));
        }
    }

    #[test]
    fn staging_is_serialized_on_origin_channel() {
        let (mut sim, pm) = setup(&[("stampede", 64)]);
        let mut cfg = UmConfig::new(Binding::Late, UnitScheduler::Backfill);
        cfg.origin_bandwidth_mbps = 1.0; // 1 MB file → 1 s each + 0.1 lat
        cfg.dispatch_overhead = SimDuration::ZERO;
        let um = UnitManager::new(pm.clone(), cfg);
        pm.submit(
            &mut sim,
            vec![PilotDescription::new("stampede", 16, d(8000.0))],
        );
        um.submit_units(&mut sim, &bag_tasks(16));
        let pm2 = pm.clone();
        um.on_all_done(move |sim| pm2.cancel_all(sim));
        sim.run_to_completion();
        // Execution starts must be staggered by ~1.1 s (serialized
        // staging), even though all cores were free.
        let mut starts: Vec<f64> = um
            .units()
            .iter()
            .map(|u| u.last_time_of(UnitState::Executing).unwrap().as_secs())
            .collect();
        starts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let span = starts.last().unwrap() - starts.first().unwrap();
        assert!(span >= 15.0 * 1.0, "staging stagger {span}");
    }

    #[test]
    fn transition_subscribers_observe_the_full_lifecycle() {
        let (mut sim, pm) = setup(&[("stampede", 64)]);
        let um = UnitManager::new(
            pm.clone(),
            UmConfig::new(Binding::Late, UnitScheduler::Backfill),
        );
        let seen: Rc<RefCell<Vec<(UnitId, UnitState)>>> = Rc::new(RefCell::new(Vec::new()));
        let seen2 = seen.clone();
        um.subscribe(move |_, uid, state| seen2.borrow_mut().push((uid, state)));
        pm.submit(
            &mut sim,
            vec![PilotDescription::new("stampede", 8, d(4000.0))],
        );
        um.submit_units(&mut sim, &bag_tasks(4));
        let pm2 = pm.clone();
        um.on_all_done(move |sim| pm2.cancel_all(sim));
        sim.run_to_completion();
        let seen = seen.borrow();
        for i in 0..4u32 {
            let path: Vec<UnitState> = seen
                .iter()
                .filter(|(u, _)| *u == UnitId(i))
                .map(|(_, s)| *s)
                .collect();
            assert_eq!(
                path,
                vec![
                    UnitState::PendingExecution,
                    UnitState::StagingInput,
                    UnitState::Executing,
                    UnitState::StagingOutput,
                    UnitState::Done,
                ],
                "unit {i} history"
            );
        }
    }

    #[test]
    fn all_done_fires_exactly_once() {
        let (mut sim, pm) = setup(&[("stampede", 64)]);
        let um = UnitManager::new(
            pm.clone(),
            UmConfig::new(Binding::Late, UnitScheduler::Backfill),
        );
        pm.submit(
            &mut sim,
            vec![PilotDescription::new("stampede", 8, d(4000.0))],
        );
        um.submit_units(&mut sim, &bag_tasks(8));
        let fired = Rc::new(RefCell::new(0u32));
        let f2 = fired.clone();
        um.on_all_done(move |_| *f2.borrow_mut() += 1);
        let pm2 = pm.clone();
        um.on_all_done(move |sim| pm2.cancel_all(sim));
        sim.run_to_completion();
        assert_eq!(*fired.borrow(), 1);
    }
}
