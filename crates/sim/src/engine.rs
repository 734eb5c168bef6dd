//! The simulation engine: virtual clock + event loop.
//!
//! Components schedule callbacks; the engine pops the earliest event,
//! advances the clock to its time, and invokes the callback with mutable
//! access to the engine (so it can schedule follow-up events, fork RNG
//! streams, and record trace events). Components themselves live in
//! `Rc<RefCell<_>>` cells captured by the callbacks — the engine is
//! strictly single-threaded by design (see crate docs).
//!
//! An event carries one of two payloads. The general one is a boxed
//! one-shot closure ([`Simulation::schedule_at`]). A component whose
//! events are hot registers a handler once
//! ([`Simulation::register_handler`]) and then schedules calls to it with
//! a 32-bit argument ([`Simulation::call_at`]), which allocates nothing.

use crate::event::{Entry, EventId, EventQueue, ScheduledEvent};
use crate::profile::{EngineStats, ProfileLabel, Profiler};
use crate::rng::SimRng;
use crate::telemetry::MetricsRegistry;
use crate::time::{SimDuration, SimTime};
use crate::trace::{Fact, Tracer};
use std::rc::Rc;

/// Callback invoked when an event fires.
pub type Callback = Box<dyn FnOnce(&mut Simulation)>;

/// A handler registered with [`Simulation::register_handler`], called
/// with the argument its event was scheduled with.
type Handler = Rc<dyn Fn(&mut Simulation, u32)>;

/// Handle to a handler registered with one [`Simulation`]; meaningless
/// to any other.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HandlerId(u32);

/// What an event does when it fires.
enum Payload {
    /// A one-shot closure: the general case.
    Boxed(Callback),
    /// A registered handler and its argument: no allocation.
    Call(HandlerId, u32),
}

// `Call` fits in the `Box`'s non-null niche, so a queue entry stays at
// four words: time key, id (sequence number and slot) and a two-word
// payload.
const _: () = assert!(std::mem::size_of::<Entry<Payload>>() <= 32);

/// Outcome of running the event loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Drained,
    /// The horizon passed with events still pending beyond it.
    HorizonReached,
    /// The safety event budget was exhausted (likely a scheduling loop).
    BudgetExhausted,
    /// The [`Simulation::run_while`] predicate asked to stop.
    Stopped,
}

/// Deterministic discrete-event simulation.
///
/// ```
/// use aimes_sim::{SimDuration, Simulation};
/// use std::{cell::RefCell, rc::Rc};
///
/// let mut sim = Simulation::new(42);
/// let fired = Rc::new(RefCell::new(Vec::new()));
/// for delay in [30.0, 10.0, 20.0] {
///     let fired = fired.clone();
///     sim.schedule_in(SimDuration::from_secs(delay), move |sim| {
///         fired.borrow_mut().push(sim.now().as_secs());
///     });
/// }
/// sim.run_to_completion();
/// assert_eq!(*fired.borrow(), vec![10.0, 20.0, 30.0]);
/// ```
pub struct Simulation {
    now: SimTime,
    queue: EventQueue<Payload>,
    handlers: Vec<Handler>,
    rng: SimRng,
    tracer: Tracer,
    metrics: MetricsRegistry,
    profiler: Profiler,
    /// Cached `profiler.is_enabled()`: the run loops branch on this once
    /// per run.
    profiled: bool,
    /// Pre-interned dispatch label so the hot loop skips the name lookup.
    dispatch_label: ProfileLabel,
    events_processed: u64,
    /// Safety valve against accidental infinite scheduling loops.
    event_budget: u64,
}

impl Simulation {
    /// Create a simulation with the given experiment seed and a recording
    /// tracer.
    pub fn new(seed: u64) -> Self {
        Self::with_tracer(seed, Tracer::new())
    }

    /// Create a simulation with an explicit tracer (e.g. a disabled one for
    /// benchmarks).
    pub fn with_tracer(seed: u64, tracer: Tracer) -> Self {
        Simulation {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            handlers: Vec::new(),
            rng: SimRng::new(seed),
            tracer,
            metrics: MetricsRegistry::disabled(),
            profiler: Profiler::disabled(),
            profiled: false,
            dispatch_label: ProfileLabel::default(),
            events_processed: 0,
            event_budget: u64::MAX,
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Shared tracer handle.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Hand `fact` to every engine sink that is on: its trace line to the
    /// tracer and its tick to the metrics registry. A sink that is off
    /// costs one branch, and the fact renders nothing for it.
    #[inline]
    pub fn emit(&self, fact: &impl Fact) {
        if self.tracer.is_enabled() {
            if let Some((component, event, detail)) = fact.trace() {
                self.tracer.record(self.now, component, event, detail);
            }
        }
        if self.metrics.is_enabled() {
            if let Some(counter) = fact.counter() {
                self.metrics.inc_by(fact.count(), || counter);
            }
        }
    }

    /// Shared metrics registry (disabled unless [`Simulation::attach_metrics`]
    /// installed a recording one).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Install a recording metrics registry. Metrics collection is passive
    /// — it schedules no events and draws no randomness — so attaching one
    /// never perturbs the simulated execution.
    pub fn attach_metrics(&mut self, metrics: MetricsRegistry) {
        self.metrics = metrics;
    }

    /// Shared self-profiler handle (disabled unless
    /// [`Simulation::attach_profiler`] installed a recording one).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Install a self-profiler. Like metrics, profiling is strictly
    /// passive: it schedules no events and draws no randomness, so a
    /// profiled run is bit-identical to an unprofiled one. The per-event
    /// dispatch label is interned here, once, so the hot loop never
    /// hashes a name.
    pub fn attach_profiler(&mut self, profiler: Profiler) {
        self.dispatch_label = profiler.label("engine.dispatch");
        self.profiled = profiler.is_enabled();
        self.profiler = profiler;
    }

    /// Deterministic engine health counters: dispatch/schedule/cancel
    /// totals, the pending-event high-water mark, and compaction count.
    pub fn engine_stats(&self) -> EngineStats {
        EngineStats {
            events_processed: self.events_processed,
            events_scheduled: self.queue.scheduled_total(),
            events_cancelled: self.queue.cancelled_total(),
            pending_events_hwm: self.queue.high_water_mark() as u64,
            compactions: self.queue.compactions(),
        }
    }

    /// Publish the engine health counters to the attached metrics registry
    /// (as `sim.engine.*` counters plus a `pending_events_hwm` gauge, so
    /// Perfetto traces show queue pressure) and to the attached profiler.
    /// Call once at end of run; both sinks are passive.
    pub fn publish_engine_stats(&self) {
        let stats = self.engine_stats();
        let now = self.now;
        self.metrics
            .gauge(now, stats.pending_events_hwm as f64, || {
                "sim.engine.pending_events_hwm".into()
            });
        self.metrics
            .inc_by(stats.compactions, || "sim.engine.compactions".into());
        self.metrics.inc_by(stats.events_scheduled, || {
            "sim.engine.events_scheduled".into()
        });
        self.metrics.inc_by(stats.events_cancelled, || {
            "sim.engine.events_cancelled".into()
        });
        self.metrics.inc_by(stats.events_processed, || {
            "sim.engine.events_processed".into()
        });
        self.profiler.record_engine(stats);
    }

    /// Fork a named RNG stream from the experiment seed (stable; see
    /// [`SimRng::fork`]).
    pub fn fork_rng(&self, label: &str) -> SimRng {
        self.rng.fork(label)
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Limit the total number of events this simulation may process
    /// (safety valve for tests). Every driver stops at it: the run loops
    /// return [`RunOutcome::BudgetExhausted`] and [`Simulation::step`]
    /// returns false.
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = budget;
    }

    /// Number of live pending events.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Schedule `callback` to fire at absolute time `at`. Panics if `at` is
    /// in the past — time travel would silently corrupt causality.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        callback: impl FnOnce(&mut Simulation) + 'static,
    ) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: now={:?}, at={:?}",
            self.now,
            at
        );
        self.queue.schedule(at, Payload::Boxed(Box::new(callback)))
    }

    /// Register `handler` for [`Simulation::call_at`]. Register once per
    /// kind of event, where the component first meets this simulation,
    /// and keep the id: it names the handler on this simulation only.
    /// Worth it for a component that schedules one event per task or
    /// job; a rare event is simpler as a closure.
    pub fn register_handler(
        &mut self,
        handler: impl Fn(&mut Simulation, u32) + 'static,
    ) -> HandlerId {
        let id = u32::try_from(self.handlers.len()).expect("fewer than 2^32 handlers");
        self.handlers.push(Rc::new(handler));
        HandlerId(id)
    }

    /// Schedule a call of `handler` with `arg` at absolute time `at`:
    /// [`Simulation::schedule_at`] without a boxed closure. Events of
    /// both kinds share one queue and fire in schedule order at a tie.
    pub fn call_at(&mut self, at: SimTime, handler: HandlerId, arg: u32) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: now={:?}, at={:?}",
            self.now,
            at
        );
        debug_assert!(
            (handler.0 as usize) < self.handlers.len(),
            "unregistered handler"
        );
        self.queue.schedule(at, Payload::Call(handler, arg))
    }

    /// Schedule `callback` to fire `delay` from now.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        callback: impl FnOnce(&mut Simulation) + 'static,
    ) -> EventId {
        self.schedule_at(self.now + delay, callback)
    }

    /// Schedule `callback` to fire immediately after currently queued
    /// same-time events.
    #[cfg(test)]
    pub fn schedule_now(&mut self, callback: impl FnOnce(&mut Simulation) + 'static) -> EventId {
        self.schedule_at(self.now, callback)
    }

    /// Move the clock to `t` without dispatching anything. This is for a
    /// component that runs its own events off the queue (a resource
    /// pool's pre-submission warm-up) and wants what they emit stamped at
    /// their own instants. Panics if `t` is in the past or an engine
    /// event is pending before `t`: skipping it would break causality.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(
            t >= self.now,
            "cannot move the clock back: now={:?}, to={:?}",
            self.now,
            t
        );
        if let Some(next) = self.queue.peek_time() {
            assert!(
                next >= t,
                "advancing to {t:?} would skip the event pending at {next:?}"
            );
        }
        self.now = t;
    }

    /// Drop every pending event without running it and release the
    /// queue's storage: for a driver that is done with the simulation but
    /// still reads what it built. A dropped event's id is dead, so
    /// [`Simulation::cancel`] on it returns false, yet it is not counted
    /// as cancelled: no [`EngineStats`] total moves. Events scheduled
    /// afterwards run as usual.
    pub fn discard_pending(&mut self) {
        self.queue.discard();
    }

    /// Cancel a pending event. Returns true if it had not yet fired.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Process a single event, if any. Returns false when the queue is
    /// drained or the event budget is spent. One pass of
    /// [`Simulation::run_while`], so it shares that loop's dispatch and
    /// budget check.
    pub fn step(&mut self) -> bool {
        let before = self.events_processed;
        self.run_while(|s| s.events_processed == before);
        self.events_processed > before
    }

    /// How many dispatched events share one clock read in the profiled
    /// batch loops. Reading the TSC costs ~20 ns under some hypervisors;
    /// striding keeps profiled dispatch within the 10% overhead gate on
    /// sub-µs event workloads while leaving per-label totals exact (the
    /// stride lands in the histogram as STRIDE observations at their
    /// average — see [`crate::profile`]).
    const PROFILE_STRIDE: u64 = 8;

    #[inline(always)]
    fn fire(&mut self, payload: Payload) {
        match payload {
            Payload::Boxed(callback) => callback(self),
            Payload::Call(handler, arg) => {
                // A handler may register more handlers while it runs.
                let handler = Rc::clone(&self.handlers[handler.0 as usize]);
                handler(self, arg);
            }
        }
    }

    #[inline(always)]
    fn dispatch(&mut self, ev: ScheduledEvent<Payload>) {
        debug_assert!(ev.time >= self.now, "event queue yielded past event");
        self.now = ev.time;
        self.events_processed += 1;
        self.fire(ev.payload);
    }

    /// The batch-loop profiled dispatch: the dispatch frame opened once
    /// by the run loop is settled in place every `PROFILE_STRIDE` events,
    /// so the steady-state per-event cost is a counter increment plus
    /// 1/STRIDE of a clock read — a small fraction of the per-event cost
    /// of a scope guard per event.
    #[inline(always)]
    fn dispatch_marked(&mut self, ev: ScheduledEvent<Payload>, mark: &mut u64, pending: &mut u64) {
        debug_assert!(ev.time >= self.now, "event queue yielded past event");
        self.now = ev.time;
        self.events_processed += 1;
        self.fire(ev.payload);
        *pending += 1;
        if *pending == Self::PROFILE_STRIDE {
            self.profiler.finish_root_n(mark, Self::PROFILE_STRIDE);
            *pending = 0;
        }
    }

    /// Run until the queue drains or the clock would pass `horizon`.
    /// Events at exactly `horizon` are processed.
    ///
    /// The instrumentation check is resolved once per run, not once per
    /// event: the loop monomorphizes into a plain variant (no profiler
    /// code in the dispatch path at all) and an instrumented one.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        if self.profiled {
            self.run_impl::<true>(horizon, |_| true)
        } else {
            self.run_impl::<false>(horizon, |_| true)
        }
    }

    /// Run while `pred` holds. It is checked before each event, and once
    /// more after the last, and sees the clock of the last event that
    /// fired. Returns [`RunOutcome::Stopped`] when it fails, unless the
    /// queue drains or the budget runs out first.
    pub fn run_while(&mut self, pred: impl FnMut(&Simulation) -> bool) -> RunOutcome {
        let horizon = SimTime::from_secs(f64::INFINITY);
        if self.profiled {
            self.run_impl::<true>(horizon, pred)
        } else {
            self.run_impl::<false>(horizon, pred)
        }
    }

    fn run_impl<const PROFILED: bool>(
        &mut self,
        horizon: SimTime,
        mut pred: impl FnMut(&Simulation) -> bool,
    ) -> RunOutcome {
        let mut mark = 0;
        let mut pending = 0;
        if PROFILED {
            mark = self.profiler.mark();
            self.profiler.open_root(self.dispatch_label);
        }
        let outcome = loop {
            if !pred(self) {
                break RunOutcome::Stopped;
            }
            if self.events_processed >= self.event_budget {
                break RunOutcome::BudgetExhausted;
            }
            match self.queue.pop_until(horizon) {
                Some(ev) => {
                    if PROFILED {
                        self.dispatch_marked(ev, &mut mark, &mut pending);
                    } else {
                        self.dispatch(ev);
                    }
                }
                None if self.queue.is_empty() => break RunOutcome::Drained,
                None => break RunOutcome::HorizonReached,
            }
        };
        if PROFILED {
            if pending > 0 {
                self.profiler.finish_root_n(&mut mark, pending);
            }
            self.profiler.close_root();
        }
        outcome
    }

    /// Run until the queue drains: [`Simulation::run_until`] with an
    /// unbounded horizon.
    pub fn run_to_completion(&mut self) -> RunOutcome {
        self.run_until(SimTime::from_secs(f64::INFINITY))
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("processed", &self.events_processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceLine;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }
    fn d(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn clock_advances_to_event_times() {
        let mut sim = Simulation::new(1);
        let seen = Rc::new(RefCell::new(vec![]));
        for &at in &[5.0, 1.0, 3.0] {
            let seen = seen.clone();
            sim.schedule_at(t(at), move |s| seen.borrow_mut().push(s.now().as_secs()));
        }
        assert_eq!(sim.run_to_completion(), RunOutcome::Drained);
        assert_eq!(*seen.borrow(), vec![1.0, 3.0, 5.0]);
        assert_eq!(sim.now(), t(5.0));
        assert_eq!(sim.events_processed(), 3);
    }

    #[test]
    fn events_can_schedule_followups() {
        let mut sim = Simulation::new(1);
        let hits = Rc::new(RefCell::new(0u32));
        let hits2 = hits.clone();
        sim.schedule_in(d(1.0), move |s| {
            *hits2.borrow_mut() += 1;
            let hits3 = hits2.clone();
            s.schedule_in(d(2.0), move |_| {
                *hits3.borrow_mut() += 1;
            });
        });
        sim.run_to_completion();
        assert_eq!(*hits.borrow(), 2);
        assert_eq!(sim.now(), t(3.0));
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut sim = Simulation::new(1);
        let hits = Rc::new(RefCell::new(0u32));
        for at in [1.0, 2.0, 3.0, 10.0] {
            let hits = hits.clone();
            sim.schedule_at(t(at), move |_| *hits.borrow_mut() += 1);
        }
        assert_eq!(sim.run_until(t(3.0)), RunOutcome::HorizonReached);
        assert_eq!(*hits.borrow(), 3);
        // Clock does not advance past the last processed event.
        assert_eq!(sim.now(), t(3.0));
        assert_eq!(sim.pending_events(), 1);
        assert_eq!(sim.run_until(t(100.0)), RunOutcome::Drained);
        assert_eq!(*hits.borrow(), 4);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Simulation::new(1);
        sim.schedule_at(t(5.0), |s| {
            s.schedule_at(t(1.0), |_| {});
        });
        sim.run_to_completion();
    }

    #[test]
    fn advance_to_moves_the_clock_up_to_the_next_event() {
        let mut sim = Simulation::new(1);
        sim.advance_to(t(2.0));
        assert_eq!(sim.now(), t(2.0));
        sim.schedule_at(t(5.0), |_| {});
        sim.advance_to(t(5.0));
        assert_eq!(sim.now(), t(5.0));
        assert_eq!(sim.events_processed(), 0);
        assert_eq!(sim.run_to_completion(), RunOutcome::Drained);
        assert_eq!(sim.events_processed(), 1);
    }

    #[test]
    #[should_panic(expected = "would skip the event")]
    fn advance_to_refuses_to_skip_a_pending_event() {
        let mut sim = Simulation::new(1);
        sim.schedule_at(t(3.0), |_| {});
        sim.advance_to(t(4.0));
    }

    #[test]
    #[should_panic(expected = "cannot move the clock back")]
    fn advance_to_refuses_to_go_back() {
        let mut sim = Simulation::new(1);
        sim.advance_to(t(4.0));
        sim.advance_to(t(3.0));
    }

    #[test]
    fn cancellation_prevents_firing() {
        let mut sim = Simulation::new(1);
        let hits = Rc::new(RefCell::new(0u32));
        let h = hits.clone();
        let id = sim.schedule_at(t(1.0), move |_| *h.borrow_mut() += 1);
        assert!(sim.cancel(id));
        sim.run_to_completion();
        assert_eq!(*hits.borrow(), 0);
    }

    #[test]
    fn event_budget_stops_loops() {
        let mut sim = Simulation::new(1);
        fn reschedule(s: &mut Simulation) {
            s.schedule_in(SimDuration::from_secs(1.0), reschedule);
        }
        sim.schedule_now(reschedule);
        sim.set_event_budget(100);
        assert_eq!(sim.run_to_completion(), RunOutcome::BudgetExhausted);
        assert_eq!(sim.events_processed(), 100);
    }

    #[test]
    fn step_stops_at_the_event_budget() {
        let mut sim = Simulation::new(1);
        fn reschedule(s: &mut Simulation) {
            s.schedule_in(SimDuration::from_secs(1.0), reschedule);
        }
        sim.schedule_now(reschedule);
        sim.set_event_budget(5);
        let mut steps = 0;
        while sim.step() {
            steps += 1;
        }
        assert_eq!(steps, 5);
        assert_eq!(sim.events_processed(), 5);
        assert_eq!(sim.pending_events(), 1, "the next event is left pending");
    }

    #[test]
    fn boxed_and_typed_events_at_one_instant_fire_in_schedule_order() {
        let mut sim = Simulation::new(1);
        let order = Rc::new(RefCell::new(vec![]));
        let o = order.clone();
        let typed = sim.register_handler(move |_, arg| o.borrow_mut().push(arg));
        for i in 0..6u32 {
            if i % 2 == 0 {
                sim.call_at(t(1.0), typed, i);
            } else {
                let o = order.clone();
                sim.schedule_at(t(1.0), move |_| o.borrow_mut().push(i));
            }
        }
        assert_eq!(sim.run_to_completion(), RunOutcome::Drained);
        assert_eq!(*order.borrow(), (0..6).collect::<Vec<_>>());
        assert_eq!(sim.engine_stats().events_processed, 6);
    }

    #[test]
    fn a_cancelled_typed_event_never_fires() {
        let mut sim = Simulation::new(1);
        let hits = Rc::new(RefCell::new(vec![]));
        let h = hits.clone();
        let typed = sim.register_handler(move |s, arg| h.borrow_mut().push((s.now(), arg)));
        let doomed = sim.call_at(t(1.0), typed, 7);
        sim.call_at(t(2.0), typed, 8);
        assert!(sim.cancel(doomed));
        assert!(!sim.cancel(doomed), "a cancelled call is no longer pending");
        sim.run_to_completion();
        assert_eq!(*hits.borrow(), vec![(t(2.0), 8)]);
        assert_eq!(sim.engine_stats().events_cancelled, 1);
    }

    #[test]
    fn handlers_can_schedule_calls_and_register_handlers() {
        let mut sim = Simulation::new(1);
        let seen = Rc::new(RefCell::new(vec![]));
        let s2 = seen.clone();
        let countdown = sim.register_handler(move |s, arg| {
            s2.borrow_mut().push(arg);
            if arg > 0 {
                let me = HandlerId(0);
                s.call_at(s.now() + d(1.0), me, arg - 1);
            } else {
                s.register_handler(|_, _| {});
            }
        });
        assert_eq!(countdown, HandlerId(0));
        sim.call_at(t(0.0), countdown, 3);
        sim.run_to_completion();
        assert_eq!(*seen.borrow(), vec![3, 2, 1, 0]);
        assert_eq!(sim.now(), t(3.0));
    }

    #[test]
    fn run_while_stops_where_its_predicate_fails() {
        let mut sim = Simulation::new(1);
        for at in [1.0, 2.0, 3.0, 4.0] {
            sim.schedule_at(t(at), |_| {});
        }
        let mut seen = vec![];
        let outcome = sim.run_while(|s| {
            seen.push(s.now().as_secs());
            s.now() < t(2.0)
        });
        assert_eq!(outcome, RunOutcome::Stopped);
        // Checked before each event with the clock of the last one fired.
        assert_eq!(seen, vec![0.0, 1.0, 2.0]);
        assert_eq!(sim.events_processed(), 2);
        assert_eq!(sim.run_while(|_| true), RunOutcome::Drained);
        assert_eq!(sim.events_processed(), 4);
        sim.schedule_in(d(1.0), |_| {});
        sim.set_event_budget(4);
        assert_eq!(sim.run_while(|_| true), RunOutcome::BudgetExhausted);
    }

    #[test]
    fn same_time_events_fire_in_schedule_order() {
        let mut sim = Simulation::new(1);
        let order = Rc::new(RefCell::new(vec![]));
        for i in 0..10 {
            let order = order.clone();
            sim.schedule_at(t(1.0), move |_| order.borrow_mut().push(i));
        }
        sim.run_to_completion();
        assert_eq!(*order.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn rng_forks_are_deterministic_across_runs() {
        let run = |seed| {
            let sim = Simulation::new(seed);
            let mut r = sim.fork_rng("component");
            (0..10).map(|_| r.uniform01()).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn profiler_counts_every_dispatch() {
        let mut sim = Simulation::new(1);
        sim.attach_profiler(Profiler::new());
        for at in [1.0, 2.0, 3.0] {
            sim.schedule_at(t(at), |_| {});
        }
        // Mix batch and single-step drivers: all must attribute dispatches.
        sim.run_until(t(1.0));
        sim.run_while(|s| s.now() < t(2.0));
        while sim.step() {}
        sim.publish_engine_stats();
        let report = sim.profiler().report();
        let dispatch = report
            .labels
            .iter()
            .find(|l| l.label == "engine.dispatch")
            .expect("dispatch label present");
        assert_eq!(dispatch.count, 3);
        assert_eq!(report.engine.events_processed, 3);
        assert_eq!(report.engine.events_scheduled, 3);
    }

    #[test]
    fn engine_stats_track_queue_health() {
        let mut sim = Simulation::new(1);
        let ids: Vec<_> = (0..6)
            .map(|i| sim.schedule_at(t(i as f64), |_| {}))
            .collect();
        for id in &ids[..4] {
            sim.cancel(*id);
        }
        sim.run_to_completion();
        let stats = sim.engine_stats();
        assert_eq!(stats.events_scheduled, 6);
        assert_eq!(stats.events_cancelled, 4);
        assert_eq!(stats.events_processed, 2);
        assert_eq!(stats.pending_events_hwm, 6);
        assert!(stats.compactions >= 1);
    }

    #[test]
    fn discard_pending_drops_events_and_keeps_the_counters() {
        let mut sim = Simulation::new(1);
        let hits = Rc::new(RefCell::new(vec![]));
        let ids: Vec<_> = (0..8)
            .map(|i| {
                let h = hits.clone();
                sim.schedule_at(t(f64::from(i)), move |_| h.borrow_mut().push(i))
            })
            .collect();
        // Fire one, cancel five (compacting the heap), leave two pending.
        assert!(sim.step());
        for id in &ids[1..6] {
            assert!(sim.cancel(*id));
        }
        let before = sim.engine_stats();
        assert!(before.compactions >= 1);
        assert_eq!(sim.pending_events(), 2);

        sim.discard_pending();
        assert_eq!(sim.pending_events(), 0);
        assert_eq!(sim.engine_stats(), before);
        for id in &ids {
            assert!(!sim.cancel(*id), "a dropped or spent id is dead");
        }
        assert_eq!(sim.engine_stats(), before);

        // The queue still works, and its new ids never revive old ones.
        let h = hits.clone();
        let late = sim.schedule_at(t(10.0), move |_| h.borrow_mut().push(10));
        assert!(!ids.contains(&late));
        assert!(!sim.cancel(ids[0]));
        assert_eq!(sim.run_to_completion(), RunOutcome::Drained);
        assert_eq!(*hits.borrow(), vec![0, 10]);
        let after = sim.engine_stats();
        assert_eq!(after.events_scheduled, before.events_scheduled + 1);
        assert_eq!(after.events_processed, before.events_processed + 1);
        assert_eq!(after.events_cancelled, before.events_cancelled);
    }

    #[test]
    fn engine_stats_publish_to_metrics() {
        let mut sim = Simulation::new(1);
        sim.attach_metrics(MetricsRegistry::new());
        sim.schedule_at(t(1.0), |_| {});
        sim.run_to_completion();
        sim.publish_engine_stats();
        let summary = sim.metrics().summary();
        assert_eq!(
            summary.counters.get("sim.engine.events_processed"),
            Some(&1)
        );
        assert_eq!(
            summary.counters.get("sim.engine.events_scheduled"),
            Some(&1)
        );
        assert!(summary.gauges.contains_key("sim.engine.pending_events_hwm"));
    }

    /// A fact that counts how often it is rendered.
    struct Fired<'a>(&'a Cell<u32>);

    impl Fact for Fired<'_> {
        fn trace(&self) -> Option<TraceLine> {
            self.0.set(self.0.get() + 1);
            Some(("c".into(), "fired", String::new()))
        }

        fn counter(&self) -> Option<String> {
            self.0.set(self.0.get() + 1);
            Some("c.fired".into())
        }
    }

    #[test]
    fn emit_reaches_both_sinks_from_callbacks() {
        let mut sim = Simulation::new(1);
        sim.attach_metrics(MetricsRegistry::new());
        sim.schedule_in(d(2.0), |s| {
            let renders = Cell::new(0);
            s.emit(&Fired(&renders));
            s.emit(&Fired(&renders));
            assert_eq!(renders.get(), 4);
        });
        sim.run_to_completion();
        assert_eq!(sim.tracer().len(), 2);
        assert_eq!(sim.tracer().snapshot()[0].time, t(2.0));
        assert_eq!(sim.tracer().snapshot()[0].event, "fired");
        assert_eq!(sim.metrics().summary().counters["c.fired"], 2);
    }

    #[test]
    fn emit_renders_nothing_when_the_sinks_are_off() {
        let sim = Simulation::with_tracer(1, Tracer::disabled());
        let renders = Cell::new(0);
        sim.emit(&Fired(&renders));
        assert_eq!(renders.get(), 0);
        assert!(sim.tracer().is_empty());
    }
}
