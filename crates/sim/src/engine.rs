//! The simulation engine: virtual clock + event loop.
//!
//! Components register callbacks; the engine pops the earliest event,
//! advances the clock to its time, and invokes the callback with mutable
//! access to the engine (so it can schedule follow-up events, fork RNG
//! streams, and record trace events). Components themselves live in
//! `Rc<RefCell<_>>` cells captured by the callbacks — the engine is
//! strictly single-threaded by design (see crate docs).

use crate::event::{EventId, EventQueue, ScheduledEvent};
use crate::profile::{EngineStats, ProfileLabel, Profiler};
use crate::rng::SimRng;
use crate::telemetry::MetricsRegistry;
use crate::time::{SimDuration, SimTime};
use crate::trace::Tracer;

/// Callback invoked when an event fires.
pub type Callback = Box<dyn FnOnce(&mut Simulation)>;

/// Outcome of running the event loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Drained,
    /// The horizon passed with events still pending beyond it.
    HorizonReached,
    /// The safety event budget was exhausted (likely a scheduling loop).
    BudgetExhausted,
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
    queue: EventQueue<Callback>,
    rng: SimRng,
    tracer: Tracer,
    metrics: MetricsRegistry,
    profiler: Profiler,
    /// Cached `profiler.is_enabled()`: the run loops branch on this once
    /// per run and the single-step path once per event.
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

    /// Fork an indexed RNG stream (per entity).
    pub fn fork_rng_indexed(&self, label: &str, index: u64) -> SimRng {
        self.rng.fork_indexed(label, index)
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Limit the total number of events this simulation may process
    /// (safety valve for tests).
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
        self.queue.schedule(at, Box::new(callback))
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
    pub fn schedule_now(&mut self, callback: impl FnOnce(&mut Simulation) + 'static) -> EventId {
        self.schedule_at(self.now, callback)
    }

    /// Cancel a pending event. Returns true if it had not yet fired.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Process a single event, if any. Returns false when the queue is
    /// drained.
    ///
    /// External single-step drivers (the middleware's interruptible run
    /// loop) pay one instrumentation branch per event here; the batch run
    /// loops below hoist that branch out via monomorphization.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some(ev) => {
                if self.profiled {
                    self.dispatch::<true>(ev);
                } else {
                    self.dispatch::<false>(ev);
                }
                true
            }
            None => false,
        }
    }

    /// How many dispatched events share one clock read in the profiled
    /// batch loops. Reading the TSC costs ~20 ns under some hypervisors;
    /// striding keeps profiled dispatch within the 10% overhead gate on
    /// sub-µs event workloads while leaving per-label totals exact (the
    /// stride lands in the histogram as STRIDE observations at their
    /// average — see [`crate::profile`]).
    const PROFILE_STRIDE: u64 = 8;

    #[inline(always)]
    fn dispatch<const PROFILED: bool>(&mut self, ev: ScheduledEvent<Callback>) {
        debug_assert!(ev.time >= self.now, "event queue yielded past event");
        self.now = ev.time;
        self.events_processed += 1;
        if PROFILED {
            // The guard holds its own handle to the profiler state, so the
            // borrow of `self` ends before the callback takes `&mut self`.
            let _scope = self.profiler.enter(self.dispatch_label);
            (ev.payload)(self);
        } else {
            (ev.payload)(self);
        }
    }

    /// The batch-loop profiled dispatch: the dispatch frame opened once
    /// by the run loop is settled in place every `PROFILE_STRIDE` events,
    /// so the steady-state per-event cost is a counter increment plus
    /// 1/STRIDE of a clock read — a small fraction of the per-event cost
    /// of the guard-based path `step()` takes.
    #[inline(always)]
    fn dispatch_marked(&mut self, ev: ScheduledEvent<Callback>, mark: &mut u64, pending: &mut u64) {
        debug_assert!(ev.time >= self.now, "event queue yielded past event");
        self.now = ev.time;
        self.events_processed += 1;
        (ev.payload)(self);
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
            self.run_until_impl::<true>(horizon)
        } else {
            self.run_until_impl::<false>(horizon)
        }
    }

    fn run_until_impl<const PROFILED: bool>(&mut self, horizon: SimTime) -> RunOutcome {
        let mut mark = 0;
        let mut pending = 0;
        if PROFILED {
            mark = self.profiler.mark();
            self.profiler.open_root(self.dispatch_label);
        }
        let outcome = loop {
            if self.events_processed >= self.event_budget {
                break RunOutcome::BudgetExhausted;
            }
            match self.queue.peek_time() {
                None => break RunOutcome::Drained,
                Some(t) if t > horizon => break RunOutcome::HorizonReached,
                Some(_) => {
                    let ev = self.queue.pop().expect("peeked event exists");
                    if PROFILED {
                        self.dispatch_marked(ev, &mut mark, &mut pending);
                    } else {
                        self.dispatch::<false>(ev);
                    }
                }
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
    use std::cell::RefCell;
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
        // Mix batch and single-step drivers: both must attribute dispatches.
        sim.run_until(t(2.0));
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

    #[test]
    fn tracer_reachable_from_callbacks() {
        let mut sim = Simulation::new(1);
        sim.schedule_in(d(2.0), |s| {
            let now = s.now();
            s.tracer().record(now, "c", "fired", "");
        });
        sim.run_to_completion();
        assert_eq!(sim.tracer().len(), 1);
        assert_eq!(sim.tracer().snapshot()[0].time, t(2.0));
    }
}
