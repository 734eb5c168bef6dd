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
use crate::pilot_manager::{dwell_metric, PilotManager};
use crate::scheduler::{assign, Binding, PilotView, UnitScheduler, UnitView};
use crate::unit::{Checkpoint, ComputeUnit, UnitId, UnitState, UnitWork};
use aimes_sim::{EventId, Fact, HandlerId, Observers, SimDuration, SimTime, Simulation, TraceLine};
use aimes_skeleton::TaskSpec;
use std::cell::{Ref, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// What a unit's trace line says about a transition beyond its state.
#[derive(Clone, Copy)]
enum UnitDetail<'a> {
    /// Nothing.
    Plain,
    /// Placed on a pilot at a resource (entering StagingInput).
    Placed(PilotId, &'a str),
    /// Executing from a checkpoint this many seconds into the task.
    Resumed(f64),
    /// Back to PendingExecution after a lost attempt, re-queued after this
    /// backoff. Traced as `Restart`, not as the state it enters.
    Restart(SimDuration),
    /// Entering Failed, for this reason.
    Failed(&'static str),
}

/// What the unit manager emits.
enum UnitFact<'a> {
    /// Unit `uid` entered `state`.
    Unit {
        uid: UnitId,
        state: UnitState,
        detail: UnitDetail<'a>,
    },
    /// An execution attempt of `uid` died partway.
    Fault { uid: UnitId, permanent: bool },
    /// `count` in-flight units lost their agent when `pilot` went silent.
    Stranded { count: usize, pilot: PilotId },
    /// Every unit reached a terminal state.
    AllDone(UnitManagerStats),
}

impl Fact for UnitFact<'_> {
    fn trace(&self) -> Option<TraceLine> {
        Some(match *self {
            UnitFact::Unit { uid, state, detail } => {
                let event = match detail {
                    UnitDetail::Restart(_) => "Restart",
                    _ => state.name(),
                };
                let detail = match detail {
                    UnitDetail::Plain => String::new(),
                    UnitDetail::Placed(pilot, resource) => format!("{pilot} {resource}"),
                    UnitDetail::Resumed(secs) => format!("resume from {secs:.0}s"),
                    UnitDetail::Restart(backoff) if backoff.is_zero() => String::new(),
                    UnitDetail::Restart(backoff) => format!("backoff {:.0}s", backoff.as_secs()),
                    UnitDetail::Failed(why) => why.into(),
                };
                (uid.to_string(), event, detail)
            }
            UnitFact::Fault { uid, permanent } => (
                uid.to_string(),
                "Fault",
                if permanent { "permanent" } else { "transient" }.into(),
            ),
            UnitFact::Stranded { count, pilot } => (
                "unit_manager".into(),
                "UnitsStranded",
                format!("{count} on silent {pilot}"),
            ),
            UnitFact::AllDone(stats) => ("unit_manager".into(), "AllDone", format!("{stats:?}")),
        })
    }

    fn counter(&self) -> Option<String> {
        let name = match self {
            UnitFact::Unit {
                detail: UnitDetail::Restart(_),
                ..
            } => "unit.manager.restarts",
            UnitFact::Fault { .. } => "unit.manager.faults",
            UnitFact::Stranded { .. } => "unit.manager.stranded",
            UnitFact::Unit { .. } | UnitFact::AllDone(_) => return None,
        };
        Some(name.into())
    }

    fn count(&self) -> u64 {
        match *self {
            UnitFact::Stranded { count, .. } => count as u64,
            _ => 1,
        }
    }
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
        self.retry_backoff
            .backoff(attempts.saturating_sub(1), self.retry_backoff_cap)
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

impl Fact for SalvageEvent {
    fn trace(&self) -> Option<TraceLine> {
        None
    }

    fn counter(&self) -> Option<String> {
        Some(
            match self {
                SalvageEvent::Checkpoint { .. } => "unit.manager.checkpoints",
                SalvageEvent::Resume { .. } => "unit.manager.resumes",
            }
            .into(),
        )
    }
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

/// The engine handlers of the manager's per-unit events, registered on
/// its simulation the first time it schedules one (see
/// [`UnitManager::hooks`]). Each is called with a unit id; the schedule
/// pass ignores it.
#[derive(Clone, Copy)]
struct Hooks {
    staged: HandlerId,
    executed: HandlerId,
    done: HandlerId,
    schedule: HandlerId,
}

struct UmState {
    config: UmConfig,
    units: Vec<ComputeUnit>,
    /// What checkpointing banked, per unit whose checkpointed attempt
    /// aborted with progress; empty unless checkpointing is on.
    checkpoints: BTreeMap<UnitId, Checkpoint>,
    /// Unresolved dependency count per unit; empty when every unit is a
    /// root, as in a bag.
    dep_count: Vec<u32>,
    /// Reverse dependency edges; empty when every unit is a root.
    dependents: Dependents,
    /// Eligible-but-unscheduled units, FIFO.
    ready: VecDeque<UnitId>,
    /// Early-binding assignment per unit; empty under late binding.
    bound: Vec<Option<PilotId>>,
    /// Agents of the active pilots, in pilot-id order: the order the
    /// schedulers see them in.
    agents: BTreeMap<PilotId, Agent>,
    /// Cancellable pending event per unit, indexed by unit id; `Some`
    /// only while the unit is in StagingInput or Executing.
    inflight: Vec<Option<EventId>>,
    origin_channel: StagingChannel,
    overhead_busy_until: SimTime,
    /// Lazily forked stream for unit-fault draws; stays unforked (and the
    /// simulation's RNG tree untouched) while fault injection is off.
    fault_rng: Option<aimes_sim::SimRng>,
    rr_cursor: usize,
    stats: UnitManagerStats,
    on_all_done: Vec<CompletionCallback>,
    /// A scheduling pass is posted and has not run yet.
    schedule_pending: bool,
    /// Debug builds: a unit was queued, a core freed or an agent added
    /// since the last pass looked (see [`UnitManager::check_pass_rule`]).
    #[cfg(debug_assertions)]
    unsettled: bool,
    completion_fired: bool,
    /// Set on first contact with the simulation; a manager serves one.
    hooks: Option<Hooks>,
}

impl UmState {
    /// Whether a pass might place a unit: one is ready and some agent
    /// has a free core. Every unit needs a core, so otherwise a pass
    /// would place nothing.
    fn could_place(&self) -> bool {
        !self.ready.is_empty() && self.agents.values().any(|a| a.free_cores > 0)
    }

    /// Note a change that can make a unit placeable: a unit queued, a
    /// core freed or an agent added. The caller requests a pass after it.
    fn unsettle(&mut self) {
        #[cfg(debug_assertions)]
        {
            self.unsettled = true;
        }
    }

    /// The scheduler's view of the active pilots, in pilot-id order (the
    /// agents are a `BTreeMap`).
    fn pilot_views(&self, now: SimTime) -> Vec<PilotView> {
        self.agents
            .values()
            .map(|a| PilotView {
                id: a.pilot,
                free_cores: a.free_cores,
                remaining_walltime: a.remaining_walltime(now),
            })
            .collect()
    }

    /// The scheduler's view of the ready units, in queue order, built
    /// lazily: `assign` stops pulling once the pilots are full.
    fn unit_views(&self) -> impl Iterator<Item = UnitView> + '_ {
        self.ready.iter().map(|&id| {
            let work = &self.units[id.0 as usize].work;
            UnitView {
                id,
                cores: work.cores,
                est_duration: work.duration,
                bound_to: self.bound.get(id.0 as usize).copied().flatten(),
            }
        })
    }

    /// Queue `uid` behind the ready units.
    fn push_ready(&mut self, uid: UnitId) {
        self.ready.push_back(uid);
        self.unsettle();
    }

    /// Hand `uid`'s cores back to its pilot's agent, if it still has one.
    fn release_cores(&mut self, uid: UnitId) {
        let unit = &self.units[uid.0 as usize];
        let cores = unit.work.cores;
        if let Some(agent) = unit.pilot.and_then(|pid| self.agents.get_mut(&pid)) {
            agent.release(cores);
            self.unsettle();
        }
    }
}

/// Reverse dependency edges in one flat table: the dependents of unit `u`
/// are `edges[offsets[u]..offsets[u + 1]]`, in id order. A bag has no
/// edges and keeps no table: an empty one has no dependents for any unit.
#[derive(Default)]
struct Dependents {
    offsets: Vec<u32>,
    edges: Vec<UnitId>,
}

impl Dependents {
    fn new(tasks: &[TaskSpec]) -> Self {
        let n = tasks.len();
        let mut offsets = vec![0u32; n + 1];
        for t in tasks {
            for d in t.dependencies() {
                offsets[d as usize] += 1;
            }
        }
        // Running sum: `offsets[u]` becomes the end of `u`'s edges.
        let mut end = 0u32;
        for o in &mut offsets {
            end = end
                .checked_add(*o)
                .expect("dependency edges fit in u32 offsets");
            *o = end;
        }
        let mut edges = vec![UnitId(0); end as usize];
        // Fill back to front, walking each end down to its start, so each
        // unit's dependents come out in id order.
        for t in tasks.iter().rev() {
            for d in t.dependencies() {
                let o = &mut offsets[d as usize];
                *o -= 1;
                edges[*o as usize] = UnitId(t.id.0);
            }
        }
        Dependents { offsets, edges }
    }

    fn of(&self, uid: UnitId) -> &[UnitId] {
        let u = uid.0 as usize;
        match self.offsets.get(u..u + 2) {
            Some(&[start, end]) => &self.edges[start as usize..end as usize],
            _ => &[],
        }
    }
}

/// The unit manager's observers, outside its `RefCell` state.
#[derive(Default)]
struct UmObservers {
    transition: Observers<(UnitId, UnitState)>,
    salvage: Observers<(UnitId, SalvageEvent)>,
}

/// Handle to the unit manager.
#[derive(Clone)]
pub struct UnitManager {
    inner: Rc<RefCell<UmState>>,
    obs: Rc<UmObservers>,
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
                checkpoints: BTreeMap::new(),
                dep_count: Vec::new(),
                dependents: Dependents::default(),
                ready: VecDeque::new(),
                bound: Vec::new(),
                agents: BTreeMap::new(),
                inflight: Vec::new(),
                overhead_busy_until: SimTime::ZERO,
                fault_rng: None,
                rr_cursor: 0,
                stats: UnitManagerStats::default(),
                on_all_done: Vec::new(),
                schedule_pending: false,
                #[cfg(debug_assertions)]
                unsettled: false,
                completion_fired: false,
                hooks: None,
            })),
            obs: Rc::default(),
            pm: pm.clone(),
        };
        let um2 = um.clone();
        pm.subscribe(move |sim, &(pilot, state)| um2.on_pilot_state(sim, pilot, state));
        // Environment-side channel: a pilot whose agent went silent can no
        // longer deliver completions, even though the client still sees it
        // as Active until the detector declares it dead.
        let um2 = um.clone();
        pm.on_pilot_silent(move |sim, &pilot| um2.on_pilot_silent(sim, pilot));
        um
    }

    /// Register an observer fired after every unit state transition (the
    /// middleware journal records unit history through this hook).
    pub fn subscribe(&self, cb: impl FnMut(&mut Simulation, &(UnitId, UnitState)) + 'static) {
        self.obs.transition.add(cb);
    }

    /// Register an observer fired on checkpoint/resume salvage events
    /// (only ever fired when `checkpoint_interval` is non-zero).
    pub fn on_salvage(&self, cb: impl FnMut(&mut Simulation, &(UnitId, SalvageEvent)) + 'static) {
        self.obs.salvage.add(cb);
    }

    /// Register a callback fired once when every unit has reached a
    /// terminal state.
    pub fn on_all_done(&self, cb: impl FnOnce(&mut Simulation) + 'static) {
        self.inner.borrow_mut().on_all_done.push(Box::new(cb));
    }

    /// Drop every observer and completion callback (run teardown).
    pub fn clear_callbacks(&self) {
        self.obs.transition.clear();
        self.obs.salvage.clear();
        self.inner.borrow_mut().on_all_done.clear();
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
            st.inflight = vec![None; n];
            st.stats.total = n;
            let mut roots = 0;
            for (i, task) in tasks.iter().enumerate() {
                assert_eq!(task.id.0 as usize, i, "task ids must be dense and in order");
                // A pass stops once no pilot has a free core, which is
                // exact only if every unit needs one.
                assert!(task.cores > 0, "task {i} needs at least one core");
                let uid = UnitId(i as u32);
                st.units
                    .push(ComputeUnit::new(uid, UnitWork::of(task), now));
                roots += usize::from(task.is_root());
            }
            if roots < n {
                st.dep_count = tasks
                    .iter()
                    .map(|t| t.dependencies().len() as u32)
                    .collect();
                st.dependents = Dependents::new(tasks);
            }
            st.ready.reserve(roots);
            if st.config.binding == Binding::Early {
                st.bound = vec![None; n];
                let pilots = self.pm.pilots_ref();
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
        for task in tasks.iter().filter(|t| t.is_root()) {
            self.make_ready(sim, UnitId(task.id.0));
        }
        self.request_schedule(sim);
    }

    fn make_ready(&self, sim: &mut Simulation, uid: UnitId) {
        self.inner.borrow_mut().push_ready(uid);
        self.transition(sim, uid, UnitState::PendingExecution, UnitDetail::Plain);
    }

    /// Move `uid` to `next`, the only place a unit changes state: observe
    /// how long it dwelled in the state it leaves, emit the transition,
    /// then tell the subscribers.
    fn transition(&self, sim: &mut Simulation, uid: UnitId, next: UnitState, detail: UnitDetail) {
        let now = sim.now();
        {
            let mut st = self.inner.borrow_mut();
            let unit = &mut st.units[uid.0 as usize];
            let (prev, entered) = unit.timestamps.last();
            let dwell = now.saturating_since(entered);
            sim.metrics()
                .observe(dwell.as_secs(), || dwell_metric("unit", prev.name()));
            unit.transition(next, now);
        }
        sim.emit(&UnitFact::Unit {
            uid,
            state: next,
            detail,
        });
        self.obs.transition.fire(sim, &(uid, next));
    }

    /// Emit a salvage event, then deliver it to the subscribers.
    fn salvage(&self, sim: &mut Simulation, uid: UnitId, event: SalvageEvent) {
        sim.emit(&event);
        self.obs.salvage.fire(sim, &(uid, event));
    }

    fn on_pilot_state(&self, sim: &mut Simulation, pilot: PilotId, state: PilotState) {
        match state {
            PilotState::Active => {
                let agent = {
                    let p = self.pm.pilot_ref(pilot);
                    let cluster = self
                        .pm
                        .session()
                        .service(&p.description.resource)
                        .expect("resource exists")
                        .cluster();
                    Agent::new(
                        pilot,
                        cluster,
                        p.description.cores,
                        sim.now(),
                        p.description.walltime,
                    )
                };
                {
                    let mut st = self.inner.borrow_mut();
                    st.agents.insert(pilot, agent);
                    st.unsettle();
                }
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
            let ev = self.inner.borrow_mut().inflight[uid.0 as usize].take();
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
                .filter_map(|uid| st.inflight[uid.0 as usize].take())
                .collect();
            (events, stranded.len())
        };
        for ev in events {
            sim.cancel(ev);
        }
        if stranded > 0 {
            sim.emit(&UnitFact::Stranded {
                count: stranded,
                pilot,
            });
        }
    }

    fn restart_or_fail(&self, sim: &mut Simulation, uid: UnitId) {
        let (give_up, rebind) = {
            let st = self.inner.borrow();
            let give_up = st.units[uid.0 as usize].attempts >= st.config.max_attempts;
            (give_up, st.config.binding == Binding::Early)
        };
        if give_up {
            self.inner.borrow_mut().stats.failed += 1;
            let why = UnitDetail::Failed("restarts exhausted");
            self.transition(sim, uid, UnitState::Failed, why);
            self.check_completion(sim);
            return;
        }
        // Early-binding failover: rebind to any live pilot. With none
        // left, no pilot can ever run the unit.
        let live = rebind.then(|| {
            self.pm
                .pilots_ref()
                .iter()
                .find(|p| !p.state.is_terminal())
                .map(|p| p.id)
        });
        let retract = live == Some(None);
        let (backoff, checkpoint) = {
            let mut st = self.inner.borrow_mut();
            let st = &mut *st;
            let interval = st.config.checkpoint_interval;
            let unit = &st.units[uid.0 as usize];
            // Checkpoint salvage: bank the aborted attempt's progress at
            // the last interval boundary. Only an Executing abort has
            // progress to bank; a StagingInput victim keeps whatever an
            // earlier attempt already checkpointed.
            let checkpoint = if !interval.is_zero() && unit.state == UnitState::Executing {
                let (_, entered) = unit.timestamps.last();
                let elapsed = sim.now().saturating_since(entered).as_secs();
                let banked = st.checkpoints.get(&uid).copied().unwrap_or_default();
                let total = (banked.progress.as_secs() + elapsed).min(unit.work.duration.as_secs());
                let boundary = (total / interval.as_secs()).floor() * interval.as_secs();
                if boundary > banked.progress.as_secs() {
                    let delta = boundary - banked.progress.as_secs();
                    let banked = Checkpoint {
                        progress: SimDuration::from_secs(boundary),
                        salvaged: banked.salvaged + SimDuration::from_secs(delta),
                    };
                    st.checkpoints.insert(uid, banked);
                    Some(boundary)
                } else {
                    None
                }
            } else {
                None
            };
            let attempts = unit.attempts;
            let backoff = st.config.retry_delay(attempts);
            if let Some(live) = live {
                st.bound[uid.0 as usize] = live;
            }
            if !retract {
                st.stats.restarts += 1;
                if backoff.is_zero() {
                    st.push_ready(uid);
                }
            }
            (backoff, checkpoint)
        };
        if let Some(progress_secs) = checkpoint {
            self.salvage(sim, uid, SalvageEvent::Checkpoint { progress_secs });
        }
        if retract {
            // Back in the pool it can never leave: fail it outright.
            self.transition(sim, uid, UnitState::PendingExecution, UnitDetail::Plain);
            self.inner.borrow_mut().stats.failed += 1;
            let why = UnitDetail::Failed("no live pilot");
            self.transition(sim, uid, UnitState::Failed, why);
            self.check_completion(sim);
            return;
        }
        let restart = UnitDetail::Restart(backoff);
        self.transition(sim, uid, UnitState::PendingExecution, restart);
        if !backoff.is_zero() {
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
                    st.push_ready(uid);
                }
                this.request_schedule(sim);
                this.check_pass_rule();
            });
        }
    }

    /// The handlers of the manager's hot events on `sim`, registered the
    /// first time it asks. Those events are one or more per unit, so they
    /// go through [`Simulation::call_at`] with the unit id and allocate
    /// nothing; the rare ones (faults, backoff re-queues) stay closures.
    fn hooks(&self, sim: &mut Simulation) -> Hooks {
        if let Some(hooks) = self.inner.borrow().hooks {
            return hooks;
        }
        let mut on = |handle: fn(&UnitManager, &mut Simulation, UnitId)| {
            let this = self.clone();
            sim.register_handler(move |sim, uid| {
                handle(&this, sim, UnitId(uid));
                this.check_pass_rule();
            })
        };
        let hooks = Hooks {
            staged: on(Self::on_input_staged),
            executed: on(Self::on_executed),
            done: on(Self::on_done),
            schedule: on(|this, sim, _| {
                this.inner.borrow_mut().schedule_pending = false;
                this.do_schedule(sim);
            }),
        };
        self.inner.borrow_mut().hooks = Some(hooks);
        hooks
    }

    /// Request a (coalesced) scheduling pass at this instant, posted only
    /// if it could place a unit ([`UmState::could_place`]). Every path
    /// that queues a unit, frees a core or adds an agent calls this after
    /// it, so a request declined here is repeated by the change that
    /// makes a unit placeable.
    fn request_schedule(&self, sim: &mut Simulation) {
        {
            let mut st = self.inner.borrow_mut();
            if st.schedule_pending || !st.could_place() {
                return;
            }
            st.schedule_pending = true;
        }
        let pass = self.hooks(sim).schedule;
        sim.call_at(sim.now(), pass, 0);
    }

    /// Debug builds, at the exit of each engine event the manager
    /// handles: if a unit was queued, a core freed or an agent added
    /// since the last pass, and a unit is now placeable, a pass is
    /// pending. A path that changes what can be placed without
    /// requesting a pass fails here.
    fn check_pass_rule(&self) {
        #[cfg(debug_assertions)]
        {
            let st = self.inner.borrow();
            assert!(
                st.schedule_pending || !st.unsettled || !st.could_place(),
                "a unit is placeable and no scheduling pass is pending"
            );
        }
    }

    fn do_schedule(&self, sim: &mut Simulation) {
        let _prof = sim.profiler().scope("unit.manager");
        let now = sim.now();
        let assignments = {
            let mut st = self.inner.borrow_mut();
            let st = &mut *st;
            #[cfg(debug_assertions)]
            {
                st.unsettled = false;
            }
            // The backstop of `request_schedule`'s rule: the state may
            // have changed since the pass was posted.
            if !st.could_place() {
                return;
            }
            let mut cursor = st.rr_cursor;
            let placed = assign(
                st.config.scheduler,
                st.unit_views(),
                st.pilot_views(now),
                &mut cursor,
            );
            st.rr_cursor = cursor;
            placed
        };
        if assignments.is_empty() {
            return;
        }
        {
            // `assign` places units in queue order, so the placed units
            // are a subsequence of the queue: one cursor walks both.
            let mut st = self.inner.borrow_mut();
            let mut placed = assignments.iter().map(|&(u, _)| u).peekable();
            st.ready.retain(|&u| {
                let hit = placed.peek() == Some(&u);
                if hit {
                    placed.next();
                }
                !hit
            });
            assert!(placed.next().is_none(), "assignments out of queue order");
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
            agent.reserve(unit.work.cores);
            // Serialized middleware dispatch overhead, then the shared
            // origin staging channel.
            let overhead_start = now.max(st.overhead_busy_until);
            st.overhead_busy_until = overhead_start + st.config.dispatch_overhead;
            let (_t0, staging_end) = st
                .origin_channel
                .enqueue(st.overhead_busy_until, unit.work.input_mb);
            (staging_end, agent.resource.clone())
        };
        let placed = UnitDetail::Placed(pid, &resource);
        self.transition(sim, uid, UnitState::StagingInput, placed);
        let staged = self.hooks(sim).staged;
        let ev = sim.call_at(staging_end, staged, uid.0);
        self.inner.borrow_mut().inflight[uid.0 as usize] = Some(ev);
    }

    fn on_input_staged(&self, sim: &mut Simulation, uid: UnitId) {
        let _prof = sim.profiler().scope("unit.manager");
        let (duration, fault, resumed_from) = {
            let mut st = self.inner.borrow_mut();
            let st = &mut *st;
            let work = &st.units[uid.0 as usize].work;
            // Resume from the last checkpoint boundary: only the
            // remaining work runs. A unit with nothing banked (every unit
            // with checkpointing off) runs exactly the task duration.
            let banked = st.checkpoints.get(&uid).map(|c| c.progress);
            let duration = match banked {
                Some(progress) => work.duration.saturating_sub(progress),
                None => work.duration,
            };
            let resumed_from = banked.map(SimDuration::as_secs);
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
        if let Some(salvaged_secs) = resumed_from {
            self.salvage(sim, uid, SalvageEvent::Resume { salvaged_secs });
        }
        let detail = resumed_from.map_or(UnitDetail::Plain, UnitDetail::Resumed);
        self.transition(sim, uid, UnitState::Executing, detail);
        let ev = match fault {
            Some((at, permanent)) => {
                let this = self.clone();
                sim.schedule_in(at, move |sim| {
                    this.on_unit_fault(sim, uid, permanent);
                    this.check_pass_rule();
                })
            }
            None => {
                let executed = self.hooks(sim).executed;
                sim.call_at(sim.now() + duration, executed, uid.0)
            }
        };
        self.inner.borrow_mut().inflight[uid.0 as usize] = Some(ev);
    }

    /// An execution attempt died partway. Unlike pilot death, the agent
    /// survives: its cores must be handed back before the unit is retried
    /// or written off.
    fn on_unit_fault(&self, sim: &mut Simulation, uid: UnitId, permanent: bool) {
        {
            let mut st = self.inner.borrow_mut();
            let st = &mut *st;
            st.inflight[uid.0 as usize] = None;
            st.release_cores(uid);
        }
        sim.emit(&UnitFact::Fault { uid, permanent });
        if permanent {
            self.inner.borrow_mut().stats.failed += 1;
            let why = UnitDetail::Failed("permanent fault");
            self.transition(sim, uid, UnitState::Failed, why);
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
            st.inflight[uid.0 as usize] = None;
            // Execution done: the core goes back to the pilot; output
            // staging runs over the wide-area channel, off the core.
            st.release_cores(uid);
            let out_mb = st.units[uid.0 as usize].work.output_mb;
            let (_t0, out_end) = st.origin_channel.enqueue(now, out_mb);
            out_end
        };
        self.transition(sim, uid, UnitState::StagingOutput, UnitDetail::Plain);
        let done = self.hooks(sim).done;
        sim.call_at(out_end, done, uid.0);
        self.request_schedule(sim);
    }

    fn on_done(&self, sim: &mut Simulation, uid: UnitId) {
        let _prof = sim.profiler().scope("unit.manager");
        let newly_ready: Vec<UnitId> = {
            let mut st = self.inner.borrow_mut();
            let st = &mut *st;
            st.stats.done += 1;
            let mut ready = Vec::new();
            for &dep in st.dependents.of(uid) {
                let c = &mut st.dep_count[dep.0 as usize];
                *c -= 1;
                if *c == 0 {
                    ready.push(dep);
                }
            }
            ready
        };
        self.transition(sim, uid, UnitState::Done, UnitDetail::Plain);
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
        sim.emit(&UnitFact::AllDone(self.stats()));
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

    /// A borrowed view of one unit. Drop it before anything that can
    /// fire a manager callback: the manager mutates its units then.
    pub fn unit_ref(&self, uid: UnitId) -> Ref<'_, ComputeUnit> {
        Ref::map(self.inner.borrow(), |st| &st.units[uid.0 as usize])
    }

    /// A borrowed view of all units, in id order; the same rule as
    /// [`UnitManager::unit_ref`] applies.
    pub fn units_ref(&self) -> Ref<'_, [ComputeUnit]> {
        Ref::map(self.inner.borrow(), |st| st.units.as_slice())
    }

    /// A borrowed view of what checkpointing banked, per unit that has a
    /// checkpoint; the same rule as [`UnitManager::unit_ref`] applies.
    pub fn checkpoints_ref(&self) -> Ref<'_, BTreeMap<UnitId, Checkpoint>> {
        Ref::map(self.inner.borrow(), |st| &st.checkpoints)
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
    fn dependents_table_lists_consumers_in_id_order() {
        use aimes_skeleton::multistage_workflow;
        use aimes_workload::Distribution;
        // 3 → 2 → 1, all-to-all: units 0–2 feed 3 and 4, which feed 5.
        let dur = Distribution::Constant { value: 60.0 };
        let cfg = multistage_workflow("w", &[3, 2, 1], dur, 1.0, 0.1);
        let app = SkeletonApp::generate(&cfg, &mut SimRng::new(1)).unwrap();
        let deps = Dependents::new(app.tasks());
        let ids = |u: u32| -> Vec<u32> { deps.of(UnitId(u)).iter().map(|d| d.0).collect() };
        for producer in 0..3 {
            assert_eq!(ids(producer), [3, 4]);
        }
        assert_eq!(ids(3), [5]);
        assert_eq!(ids(4), [5]);
        assert!(ids(5).is_empty());
        assert!(Dependents::new(&bag_tasks(4)).edges.is_empty());
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
        for u in um.units_ref().iter() {
            assert_eq!(u.state, UnitState::Done);
            assert_eq!(u.attempts, 1);
        }
    }

    #[test]
    fn early_binding_unit_with_no_live_pilot_is_traced_failed() {
        let (mut sim, pm) = setup(&[("stampede", 64)]);
        let um = UnitManager::new(
            pm.clone(),
            UmConfig::new(Binding::Early, UnitScheduler::Direct),
        );
        // The only pilot's walltime ends mid-task: its units lose their
        // attempt with restarts to spare, but no pilot is left to rebind to.
        pm.submit(
            &mut sim,
            vec![PilotDescription::new("stampede", 4, d(400.0))],
        );
        um.submit_units(&mut sim, &bag_tasks(4));
        sim.run_to_completion();
        assert_eq!(um.stats().failed, 4);
        assert_eq!(um.stats().restarts, 0);
        for u in um.units_ref().iter() {
            assert_eq!(u.state, UnitState::Failed);
            assert_eq!(u.attempts, 1);
            let trace = sim.tracer().for_component(&u.id.to_string());
            let names: Vec<&str> = trace.iter().map(|r| r.event.as_str()).collect();
            assert_eq!(
                names,
                [
                    "PendingExecution",
                    "StagingInput",
                    "Executing",
                    "PendingExecution",
                    "Failed"
                ],
                "{}",
                u.id
            );
            assert_eq!(trace.last().unwrap().detail, "no live pilot");
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
        let mut used: Vec<PilotId> = um.units_ref().iter().filter_map(|u| u.pilot).collect();
        used.sort();
        used.dedup();
        assert_eq!(used.len(), 3, "all pilots should run units");
        // Pilots were cancelled after completion, not run to walltime.
        for p in pm.pilots_ref().iter() {
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

    /// Whether a pass now would place a unit: `assign` over the ready
    /// queue, on a copy of the round-robin cursor.
    fn placeable(um: &UnitManager, now: SimTime) -> bool {
        let st = um.inner.borrow();
        let mut cursor = st.rr_cursor;
        let views = st.unit_views();
        !assign(st.config.scheduler, views, st.pilot_views(now), &mut cursor).is_empty()
    }

    /// At least one agent, and none with a free core.
    fn every_pilot_full(um: &UnitManager) -> bool {
        let st = um.inner.borrow();
        !st.agents.is_empty() && st.agents.values().all(|a| a.free_cores == 0)
    }

    /// Run `sim` to the end one event at a time, asserting after each
    /// that a pass is pending whenever a unit is placeable, and never
    /// while every pilot is full. Returns how many events left a unit
    /// ready with every pilot full.
    fn run_checking_pass_rule(sim: &mut Simulation, um: &UnitManager) -> usize {
        let mut waited = 0;
        while sim.step() {
            let (pending, ready) = {
                let st = um.inner.borrow();
                (st.schedule_pending, !st.ready.is_empty())
            };
            assert!(
                pending || !placeable(um, sim.now()),
                "a unit is placeable at {} with no pass pending",
                sim.now()
            );
            if every_pilot_full(um) {
                assert!(
                    !pending,
                    "a pass is pending at {} with every pilot full",
                    sim.now()
                );
                waited += usize::from(ready);
            }
        }
        waited
    }

    #[test]
    fn no_event_is_posted_while_every_pilot_is_full() {
        let (mut sim, pm) = setup(&[("stampede", 64)]);
        let um = UnitManager::new(
            pm.clone(),
            UmConfig::new(Binding::Late, UnitScheduler::Backfill),
        );
        pm.submit(
            &mut sim,
            vec![PilotDescription::new("stampede", 2, d(8000.0))],
        );
        um.submit_units(&mut sim, &bag_tasks(6));
        // No agent yet: the submission posts no pass.
        assert!(!um.inner.borrow().schedule_pending);
        let mut quiet_dones = 0;
        loop {
            let full = every_pilot_full(&um);
            let (done, posted) = (um.stats().done, sim.engine_stats().events_scheduled);
            if !sim.step() {
                break;
            }
            // A unit finishing its output staging frees no core: with
            // every pilot full before and after, it posts nothing.
            if um.stats().done > done && full && every_pilot_full(&um) {
                assert_eq!(
                    sim.engine_stats().events_scheduled,
                    posted,
                    "at {}",
                    sim.now()
                );
                quiet_dones += 1;
            }
        }
        assert!(quiet_dones > 0, "no unit finished while the pilot was full");
        assert_eq!(um.stats().done, 6);
    }

    #[test]
    fn restart_while_every_pilot_is_full_waits_for_a_core() {
        let (mut sim, pm) = setup(&[("stampede", 64), ("gordon", 64)]);
        let um = UnitManager::new(
            pm.clone(),
            UmConfig::new(Binding::Late, UnitScheduler::RoundRobin),
        );
        // Pilot 0 dies mid-task; its units restart at once (no backoff)
        // while pilot 1 is busy, and wait for pilot 1's cores.
        pm.submit(
            &mut sim,
            vec![PilotDescription::new("stampede", 2, d(400.0))],
        );
        pm.submit(
            &mut sim,
            vec![PilotDescription::new("gordon", 2, d(20_000.0))],
        );
        um.submit_units(&mut sim, &bag_tasks(4));
        let pm2 = pm.clone();
        um.on_all_done(move |sim| pm2.cancel_all(sim));
        let waited = run_checking_pass_rule(&mut sim, &um);
        assert!(waited > 0, "no restarted unit waited on full pilots");
        let stats = um.stats();
        assert_eq!((stats.done, stats.restarts), (4, 2), "{stats:?}");
    }

    #[test]
    fn a_pilot_activating_after_units_are_ready_gets_a_pass() {
        let (mut sim, pm) = setup(&[("stampede", 64), ("gordon", 64)]);
        let um = UnitManager::new(
            pm.clone(),
            UmConfig::new(Binding::Late, UnitScheduler::Backfill),
        );
        um.submit_units(&mut sim, &bag_tasks(6));
        assert!(!um.inner.borrow().schedule_pending);
        assert_eq!(sim.pending_events(), 0, "no pilot, no pass");
        for r in ["stampede", "gordon"] {
            pm.submit(&mut sim, vec![PilotDescription::new(r, 2, d(8000.0))]);
        }
        let pm2 = pm.clone();
        um.on_all_done(move |sim| pm2.cancel_all(sim));
        run_checking_pass_rule(&mut sim, &um);
        assert_eq!(um.stats().done, 6);
    }

    #[test]
    fn early_binding_keeps_the_pass_rule() {
        let (mut sim, pm) = setup(&[("stampede", 64), ("gordon", 64)]);
        let um = UnitManager::new(
            pm.clone(),
            UmConfig::new(Binding::Early, UnitScheduler::Direct),
        );
        pm.submit(
            &mut sim,
            vec![PilotDescription::new("stampede", 2, d(8000.0))],
        );
        pm.submit(
            &mut sim,
            vec![PilotDescription::new("gordon", 4, d(8000.0))],
        );
        // Bound 4 to stampede and 8 to gordon: each pilot's units wait on
        // its own cores while the other pilot may have some free.
        um.submit_units(&mut sim, &bag_tasks(12));
        let pm2 = pm.clone();
        um.on_all_done(move |sim| pm2.cancel_all(sim));
        let waited = run_checking_pass_rule(&mut sim, &um);
        assert!(waited > 0);
        assert_eq!(um.stats().done, 12);
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
        let units = um.units_ref();
        for r in &units[8..] {
            let deps_done = app.tasks()[r.id.0 as usize]
                .dependencies()
                .map(|d| units[d as usize].last_time_of(UnitState::Done).unwrap())
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
        for u in um.units_ref().iter() {
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
            let last_failure = um
                .units_ref()
                .iter()
                .filter_map(|u| u.last_time_of(UnitState::Failed))
                .max()
                .unwrap();
            last_failure
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

        /// Bit-identical to the body `retry_delay` had before it became a
        /// call to [`SimDuration::backoff`], for any base and cap a
        /// config can hold (inverted caps included) and any attempt.
        #[test]
        fn prop_retry_delay_matches_oracle(
            base in 0.0f64..1e290,
            cap in 0.0f64..1e300,
            attempts in proptest::prelude::any::<u32>(),
        ) {
            let mut cfg = UmConfig::new(Binding::Late, UnitScheduler::Backfill);
            cfg.retry_backoff = d(base);
            cfg.retry_backoff_cap = d(cap);
            let oracle = if cfg.retry_backoff.is_zero() {
                SimDuration::ZERO
            } else {
                let exp = attempts.saturating_sub(1).min(30);
                (cfg.retry_backoff * 2.0_f64.powi(exp as i32)).min(cfg.retry_backoff_cap)
            };
            proptest::prop_assert_eq!(
                cfg.retry_delay(attempts).as_secs().to_bits(),
                oracle.as_secs().to_bits()
            );
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
            um.on_salvage(move |_, &ev| s2.borrow_mut().push(ev));
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
            let checkpoints = um.checkpoints_ref().clone();
            (sim.now(), checkpoints, events)
        };
        let (plain_ttc, plain_checkpoints, plain_events) = run(0.0);
        assert!(
            plain_checkpoints.is_empty(),
            "nothing banked with checkpointing off"
        );
        assert!(plain_events.is_empty(), "no events with checkpointing off");

        let (ck_ttc, ck_checkpoints, ck_events) = run(60.0);
        let salvaged: f64 = ck_checkpoints.values().map(|c| c.salvaged.as_secs()).sum();
        assert!(salvaged > 0.0, "interrupted units must bank progress");
        for c in ck_checkpoints.values() {
            let b = c.progress.as_secs();
            assert!(
                b > 0.0 && (b / 60.0 - (b / 60.0).round()).abs() < 1e-9,
                "checkpoint {b}s is not on a 60 s boundary"
            );
            assert_eq!(c.progress, c.salvaged, "single-resume accounting");
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
        for u in um.units_ref().iter() {
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
            .units_ref()
            .iter()
            .map(|u| u.last_time_of(UnitState::Executing).unwrap().as_secs())
            .collect();
        starts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let span = starts.last().unwrap() - starts.first().unwrap();
        assert!(span >= 15.0 * 1.0, "staging stagger {span}");
    }

    #[test]
    fn clear_callbacks_releases_the_manager_cycle() {
        let (_sim, pm) = setup(&[("stampede", 64)]);
        let um = UnitManager::new(
            pm.clone(),
            UmConfig::new(Binding::Late, UnitScheduler::Backfill),
        );
        // The pilot manager's transition and silent-death observers each
        // hold the unit manager.
        assert_eq!(Rc::strong_count(&um.inner), 3);
        pm.clear_callbacks();
        assert_eq!(Rc::strong_count(&um.inner), 1);
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
        um.subscribe(move |_, &ev| seen2.borrow_mut().push(ev));
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
