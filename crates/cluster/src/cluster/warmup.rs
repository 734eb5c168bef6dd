//! Pre-submission warm-up of a resource pool.
//!
//! Until the application is submitted, the only events in a run are the
//! clusters' own: background arrivals, deferred dispatch passes and
//! completions. [`warm_up`] runs them in one typed loop off the engine,
//! through the same [`Cluster::fire`] handlers the engine path uses, and
//! hands the events still pending at the submission instant to the
//! engine.

use super::{Cluster, ClusterEvent};
use aimes_sim::{SimTime, Simulation};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::Rc;

/// An event the warm-up hands on or runs: (time, cluster index, event).
type Pending = (SimTime, usize, ClusterEvent);

/// The pending events of a warm-up, for the whole pool, earliest first.
/// One posting sequence across the pool resolves same-instant ties,
/// across clusters too, in posting order, exactly as the engine would.
///
/// A deferred dispatch pass is always posted at the current instant, so
/// those wait in a FIFO lane of (sequence, cluster index) beside the
/// (time, sequence) heap of everything else, and a pop takes the lane's
/// front when its (instant, sequence) comes before the heap's top. Half
/// of a warm-up's events are dispatch passes; the lane spares each a
/// heap push and pop.
pub(super) struct WarmQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, usize, ClusterEvent)>>,
    lane: VecDeque<(u64, usize)>,
    /// The current instant, that of the last event popped: every lane
    /// entry waits at it, since the lane drains before time moves on.
    now: SimTime,
    next_seq: u64,
}

impl WarmQueue {
    fn new(now: SimTime) -> Self {
        WarmQueue {
            heap: BinaryHeap::new(),
            lane: VecDeque::new(),
            now,
            next_seq: 0,
        }
    }

    pub(super) fn push(&mut self, at: SimTime, cluster: usize, ev: ClusterEvent) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if ev == ClusterEvent::Dispatch {
            assert_eq!(
                at, self.now,
                "a dispatch pass is posted at the current instant"
            );
            self.lane.push_back((seq, cluster));
        } else {
            self.heap.push(Reverse((at, seq, cluster, ev)));
        }
    }

    /// The earliest event if it fires at or before `until`.
    fn pop_until(&mut self, until: SimTime) -> Option<Pending> {
        let top = self.heap.peek().map(|Reverse((at, seq, ..))| (*at, *seq));
        if let Some(&(seq, cluster)) = self.lane.front() {
            if top.is_none_or(|top| (self.now, seq) < top) {
                if self.now > until {
                    return None;
                }
                self.lane.pop_front();
                return Some((self.now, cluster, ClusterEvent::Dispatch));
            }
        }
        if top?.0 > until {
            return None;
        }
        let Reverse((at, _, cluster, ev)) = self.heap.pop()?;
        self.now = at;
        Some((at, cluster, ev))
    }

    /// Empty the queue: every pending event in (time, sequence) order,
    /// the lane's merged into the heap's.
    fn drain(&mut self) -> Vec<Pending> {
        let now = self.now;
        let lane = self.lane.drain(..);
        self.heap.extend(
            lane.map(|(seq, cluster)| Reverse((now, seq, cluster, ClusterEvent::Dispatch))),
        );
        // Sorted ascending by `Reverse`, so latest first.
        let sorted = std::mem::take(&mut self.heap).into_sorted_vec();
        sorted
            .into_iter()
            .rev()
            .map(|Reverse((at, _, cluster, ev))| (at, cluster, ev))
            .collect()
    }
}

/// Install every cluster of a fresh pool and run its events from the
/// current instant up to `until` inclusive, off the engine; then post
/// what is still pending to the engine in (time, sequence) order and
/// leave the clock at `until`. Returns the number of events run.
///
/// The pool ends in exactly the state `install` on each cluster, a marker
/// event at `until` and [`Simulation::run_until`] leave it in, having run
/// one event fewer (the marker) on the engine than that path. Gauges and
/// facts are stamped at each event's own instant.
///
/// Panics if a cluster is not fresh (installed, holding a job or a
/// watcher) or if an engine event is pending before `until`: both would
/// interleave with the warm-up.
pub fn warm_up(sim: &mut Simulation, clusters: &[Cluster], until: SimTime) -> u64 {
    let queue = Rc::new(RefCell::new(WarmQueue::new(sim.now())));
    for (index, cluster) in clusters.iter().enumerate() {
        let mut st = cluster.inner.borrow_mut();
        assert!(
            st.background.is_none() && st.next_job_id == 0 && st.watchers.is_empty(),
            "warm-up needs a fresh cluster; {} is not",
            st.config.name
        );
        st.warming = Some((Rc::clone(&queue), index));
    }
    let mut ran = 0;
    {
        let _prof = sim.profiler().scope("cluster.warmup");
        for cluster in clusters {
            cluster.install(sim);
        }
        loop {
            let next = queue.borrow_mut().pop_until(until);
            let Some((at, index, ev)) = next else {
                break;
            };
            sim.advance_to(at);
            clusters[index].fire(sim, ev);
            ran += 1;
        }
    }
    sim.advance_to(until);
    for cluster in clusters {
        cluster.inner.borrow_mut().warming = None;
    }
    let left = queue.borrow_mut().drain();
    for (at, index, ev) in left {
        let cluster = &clusters[index];
        let handle = cluster.post(sim, at, ev);
        if let ClusterEvent::Completion(id) = ev {
            let old = cluster.inner.borrow_mut().running.insert(id, handle);
            assert_eq!(old, Some(None), "{id} completes once, while running");
        }
    }
    ran
}

#[cfg(test)]
mod tests {
    use super::super::*;
    use super::{Pending, WarmQueue};
    use crate::catalog::paper_testbed;
    use proptest::prelude::*;
    use std::collections::BinaryHeap;
    use std::fmt::Write;

    /// The warm-up queue without the dispatch lane: one (time, sequence)
    /// heap of every pending event, the reference [`WarmQueue`] is
    /// checked against.
    #[derive(Default)]
    struct PlainQueue {
        heap: BinaryHeap<Reverse<(SimTime, u64, usize, ClusterEvent)>>,
        next_seq: u64,
    }

    impl PlainQueue {
        fn push(&mut self, at: SimTime, cluster: usize, ev: ClusterEvent) {
            self.heap.push(Reverse((at, self.next_seq, cluster, ev)));
            self.next_seq += 1;
        }

        fn pop_until(&mut self, until: SimTime) -> Option<Pending> {
            let Reverse((at, ..)) = self.heap.peek()?;
            if *at > until {
                return None;
            }
            let Reverse((at, _, cluster, ev)) = self.heap.pop()?;
            Some((at, cluster, ev))
        }

        fn drain(&mut self) -> Vec<Pending> {
            let sorted = std::mem::take(&mut self.heap).into_sorted_vec();
            let events = sorted.into_iter().rev();
            events
                .map(|Reverse((at, _, cluster, ev))| (at, cluster, ev))
                .collect()
        }
    }

    /// One step of a warm-up queue's driver.
    #[derive(Clone, Debug)]
    enum Step {
        /// Post an event `delay` seconds after the current instant: a
        /// background arrival, or with `Some(id)` job `id`'s completion.
        Post {
            cluster: usize,
            delay: u32,
            job: Option<u64>,
        },
        /// Dispatch passes at the current instant, one per listed
        /// cluster, in this order.
        Dispatches(Vec<usize>),
        /// Pop the next event if it fires within `ahead` seconds of the
        /// current instant, and move the current instant to it.
        Pop { ahead: u32 },
    }

    /// Weighted draw: arrivals 1, completions 1, dispatch bursts 1,
    /// pops 3 (out of 6).
    fn step() -> impl Strategy<Value = Step> {
        let burst = proptest::collection::vec(0usize..4, 1..=4);
        (0u32..6, 0usize..4, 0u32..=3, 0u64..64, burst).prop_map(
            |(kind, cluster, delay, id, burst)| match kind {
                0 => Step::Post {
                    cluster,
                    delay,
                    job: None,
                },
                1 => Step::Post {
                    cluster,
                    delay,
                    job: Some(id),
                },
                2 => Step::Dispatches(burst),
                _ => Step::Pop { ahead: delay },
            },
        )
    }

    /// Shallow by default so `cargo test` stays fast; the chaos-smoke CI
    /// job sets `AIMES_FULL_PROPTEST=1` for the full-depth sweep.
    fn queue_cases() -> u32 {
        match std::env::var("AIMES_FULL_PROPTEST") {
            Ok(v) if !v.is_empty() && v != "0" => 4096,
            _ => 256,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(queue_cases()))]

        /// The heap-and-lane queue and the plain heap pop the same
        /// (time, cluster, event) sequence and hand off the same
        /// leftovers, under random posts of all three kinds on whole
        /// seconds (so instants tie often), same-instant dispatch bursts
        /// across clusters, posts between pops at the popped instant and
        /// bounded pops.
        #[test]
        fn prop_warm_queue_matches_the_plain_heap(
            start in 0u32..=5,
            steps in proptest::collection::vec(step(), 0..=200),
        ) {
            let secs = |s: u32| SimDuration::from_secs(f64::from(s));
            let mut now = SimTime::ZERO + secs(start);
            let mut queue = WarmQueue::new(now);
            let mut plain = PlainQueue::default();
            for step in steps {
                match step {
                    Step::Post { cluster, delay, job } => {
                        let ev = job.map_or(ClusterEvent::Arrival, |id| {
                            ClusterEvent::Completion(JobId(id))
                        });
                        queue.push(now + secs(delay), cluster, ev);
                        plain.push(now + secs(delay), cluster, ev);
                    }
                    Step::Dispatches(clusters) => {
                        for cluster in clusters {
                            queue.push(now, cluster, ClusterEvent::Dispatch);
                            plain.push(now, cluster, ClusterEvent::Dispatch);
                        }
                    }
                    Step::Pop { ahead } => {
                        let popped = queue.pop_until(now + secs(ahead));
                        prop_assert_eq!(popped, plain.pop_until(now + secs(ahead)));
                        if let Some((at, ..)) = popped {
                            now = at;
                        }
                    }
                }
            }
            prop_assert_eq!(queue.drain(), plain.drain());
        }
    }

    /// 64-bit FNV-1a.
    fn fnv(bytes: &[u8]) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{h:016x}")
    }

    /// Core counts the wait estimate is probed at.
    const GRID: [u32; 7] = [1, 16, 64, 256, 512, 1024, 2048];

    /// Everything the Bundle and the post-submission scheduler can see of
    /// one cluster at `now`, with every time as its exact `f64`: the
    /// queue (id, cores, walltime), the running set (id, cores, end), the
    /// wait history, the metrics and the wait estimate over [`GRID`].
    /// The scheduler epochs ride along, so a hand-off that bumped one
    /// would show.
    fn snapshot(c: &Cluster, now: SimTime) -> String {
        let mut out = String::new();
        {
            let st = c.inner.borrow();
            writeln!(
                out,
                "{} issued={} table={} epoch={}/{} dispatch_pending={}",
                st.config.name,
                st.next_job_id,
                st.jobs.len(),
                st.sched_epoch,
                st.last_dispatch_epoch,
                st.dispatch_scheduled
            )
            .unwrap();
            for v in st.queue.values() {
                writeln!(out, "q {} {} {:?}", v.id.0, v.cores, v.walltime.as_secs()).unwrap();
            }
            for &id in st.running.keys() {
                let job = st.job(id);
                let end = job.start_time.expect("running") + job.occupancy();
                writeln!(out, "r {} {} {:?}", id.0, job.request.cores, end.as_secs()).unwrap();
            }
        }
        for w in c.wait_history() {
            writeln!(
                out,
                "w {:?} {:?} {}",
                w.started_at.as_secs(),
                w.wait.as_secs(),
                w.cores
            )
            .unwrap();
        }
        writeln!(out, "{:?}", c.metrics(now)).unwrap();
        for cores in GRID {
            let wait = c.estimate_wait(now, cores, SimDuration::from_hours(2.0));
            writeln!(out, "e {cores} {:?}", wait.map(SimDuration::as_secs)).unwrap();
        }
        out
    }

    fn pool_snapshot(clusters: &[Cluster], now: SimTime) -> String {
        clusters.iter().map(|c| snapshot(c, now)).collect()
    }

    /// The engine path: install each cluster in pool order, pin the
    /// clock at `until` with a marker event and run to it. Returns the
    /// clusters and the number of events the engine ran.
    fn engine_path(
        sim: &mut Simulation,
        configs: &[ClusterConfig],
        until: SimTime,
    ) -> (Vec<Cluster>, u64) {
        let clusters: Vec<Cluster> = configs.iter().cloned().map(Cluster::new).collect();
        for c in &clusters {
            c.install(sim);
        }
        sim.schedule_at(until, |_| {});
        sim.run_until(until);
        assert_eq!(sim.now(), until);
        (clusters, sim.events_processed())
    }

    fn testbed() -> Vec<ClusterConfig> {
        paper_testbed().into_iter().map(|s| s.config).collect()
    }

    /// The benchmark's `saturated_pool` shape: three oversubscribed
    /// 2048-core machines with deep queues of small, short jobs.
    fn saturated_pool() -> Vec<ClusterConfig> {
        ["sat-a", "sat-b", "sat-c"]
            .iter()
            .map(|name| {
                let mut cfg = ClusterConfig::test(name, 2048);
                let mut load = WorkloadConfig::production_like();
                load.target_utilization = 1.0;
                load.size_dist = aimes_workload::Distribution::PowerOfTwo {
                    lo_exp: 0,
                    hi_exp: 5,
                };
                load.runtime_dist = aimes_workload::Distribution::LogNormal {
                    mu: 6.4,
                    sigma: 1.0,
                };
                cfg.workload = Some(load);
                cfg.initial_backlog_factor = 2.0;
                cfg
            })
            .collect()
    }

    /// (pool, seed, submission hour, digest of the pool at submission).
    /// Measured through the engine path.
    const PINS: [(&str, u64, f64, &str); 10] = [
        ("testbed", 1, 0.0, "353219e8b833160e"),
        ("testbed", 1, 4.0, "e027e5524e65aa9a"),
        ("testbed", 1, 11.5, "5335ff15e045071c"),
        ("testbed", 7, 4.0, "6e4a4bf0309d9ab3"),
        ("testbed", 7, 16.0, "65d160442ba9203b"),
        ("testbed", 42, 6.25, "da835907645f6bd4"),
        ("saturated", 1, 2.0, "57b62ac984c6aa06"),
        ("saturated", 1, 5.5, "9159132b5d3c9581"),
        ("saturated", 7, 0.0, "f4d98272772dcbbc"),
        ("saturated", 42, 3.75, "474284ff40f553c2"),
    ];

    fn pool(name: &str) -> Vec<ClusterConfig> {
        match name {
            "testbed" => testbed(),
            _ => saturated_pool(),
        }
    }

    /// The warm-up path: [`warm_up`] on fresh clusters. Returns the
    /// clusters and the number of events the warm-up ran.
    fn warm_path(
        sim: &mut Simulation,
        configs: &[ClusterConfig],
        until: SimTime,
    ) -> (Vec<Cluster>, u64) {
        let clusters: Vec<Cluster> = configs.iter().cloned().map(Cluster::new).collect();
        let ran = warm_up(sim, &clusters, until);
        assert_eq!(sim.now(), until);
        assert_eq!(sim.events_processed(), 0, "the warm-up ran on the engine");
        (clusters, ran)
    }

    #[test]
    fn pool_state_at_submission_is_pinned() {
        let mut moved = Vec::new();
        for (name, seed, hours, want) in PINS {
            let until = SimTime::from_secs(hours * 3600.0);
            let mut sim = Simulation::with_tracer(seed, aimes_sim::Tracer::disabled());
            let (clusters, events) = engine_path(&mut sim, &pool(name), until);
            let got = fnv(pool_snapshot(&clusters, until).as_bytes());
            if got != want {
                moved.push(format!("({name:?}, {seed}, {hours:?}, {got:?})"));
            }
            let mut warm = Simulation::with_tracer(seed, aimes_sim::Tracer::disabled());
            let (clusters, ran) = warm_path(&mut warm, &pool(name), until);
            let got = fnv(pool_snapshot(&clusters, until).as_bytes());
            assert_eq!(got, want, "warm-up of {name} seed {seed} at {hours} h");
            // Every warm-up event ran exactly once; the engine path also
            // ran its marker.
            assert_eq!(events, ran + 1, "{name} seed {seed} at {hours} h");
            assert_eq!(warm.pending_events(), sim.pending_events());
        }
        assert!(moved.is_empty(), "pins moved:\n{}", moved.join("\n"));
    }

    /// Both paths to `until`, then the same public submission at `until`
    /// on every cluster and `hours_after` more hours on the engine.
    /// Returns each path's pool snapshot at `until` and at the end, its
    /// engine events after submission, and its metrics.
    fn both_paths_and_beyond(
        configs: &[ClusterConfig],
        seed: u64,
        until: SimTime,
        hours_after: f64,
    ) -> [(String, String, u64, String); 2] {
        let end = until + SimDuration::from_hours(hours_after);
        [true, false].map(|warm| {
            let mut sim = Simulation::with_tracer(seed, aimes_sim::Tracer::disabled());
            let metrics = aimes_sim::MetricsRegistry::new();
            sim.attach_metrics(metrics.clone());
            let (clusters, _) = if warm {
                warm_path(&mut sim, configs, until)
            } else {
                engine_path(&mut sim, configs, until)
            };
            let at_submission = pool_snapshot(&clusters, until);
            let before = sim.events_processed();
            for c in &clusters {
                let cores = c.inner.borrow().config.total_cores / 4;
                let req = JobRequest::pilot(cores, SimDuration::from_hours(1.0), "pilot.w");
                c.submit(&mut sim, req);
            }
            sim.schedule_at(end, |_| {});
            sim.run_until(end);
            let summary = metrics.summary();
            let rendered = format!("{:?}\n{:?}", metrics.gauge_series(), summary.counters);
            (
                at_submission,
                pool_snapshot(&clusters, end),
                sim.events_processed() - before,
                rendered,
            )
        })
    }

    #[test]
    fn warm_up_hands_off_to_the_engine_mid_stream() {
        for (name, seed, hours) in [("testbed", 3, 5.0), ("saturated", 5, 2.5)] {
            let until = SimTime::from_secs(hours * 3600.0);
            let [warm, engine] = both_paths_and_beyond(&pool(name), seed, until, 3.0);
            assert_eq!(warm.0, engine.0, "{name}: state at submission");
            assert_eq!(warm.1, engine.1, "{name}: state three hours on");
            assert_eq!(warm.2, engine.2, "{name}: events after submission");
            // Gauges carry each event's own instant on both paths, and
            // the per-job counters tick alike.
            assert_eq!(warm.3, engine.3, "{name}: metrics");
        }
    }

    #[test]
    fn same_instant_leftovers_keep_their_order() {
        // Two identical machines whose initial running sets all end at
        // t = 1 h: the hand-off at t = 30 min leaves every one of those
        // completions pending at one instant, on both clusters. Each
        // completion samples the gauges, so an order change shows.
        let configs: Vec<ClusterConfig> = ["tie-a", "tie-b"]
            .iter()
            .map(|name| {
                let mut cfg = ClusterConfig::test(name, 64);
                let mut load = WorkloadConfig::production_like();
                load.size_dist = aimes_workload::Distribution::PowerOfTwo {
                    lo_exp: 0,
                    hi_exp: 3,
                };
                load.runtime_dist = aimes_workload::Distribution::constant(3600.0);
                load.overestimate_dist = aimes_workload::Distribution::constant(2.0);
                cfg.workload = Some(load);
                cfg
            })
            .collect();
        let until = SimTime::from_secs(1800.0);
        let [warm, engine] = both_paths_and_beyond(&configs, 9, until, 2.0);
        assert_eq!(warm, engine);
    }

    #[test]
    fn an_idle_pool_only_moves_the_clock() {
        let mut sim = Simulation::new(1);
        let until = SimTime::from_secs(600.0);
        let (clusters, ran) = warm_path(&mut sim, &[ClusterConfig::test("idle", 64)], until);
        assert_eq!((ran, sim.pending_events()), (0, 0));
        assert_eq!(clusters[0].metrics(until).free_cores, 64);
    }

    #[test]
    #[should_panic(expected = "needs a fresh cluster")]
    fn warm_up_refuses_an_installed_cluster() {
        let mut sim = Simulation::new(1);
        let c = Cluster::new(saturated_pool().remove(0));
        c.install(&mut sim);
        warm_up(&mut sim, &[c], SimTime::from_secs(60.0));
    }

    #[test]
    #[should_panic(expected = "would skip the event")]
    fn warm_up_refuses_to_jump_an_engine_event() {
        let mut sim = Simulation::new(1);
        sim.schedule_at(SimTime::from_secs(30.0), |_| {});
        let c = Cluster::new(saturated_pool().remove(0));
        warm_up(&mut sim, &[c], SimTime::from_secs(60.0));
    }

    /// A small pool of 1–3 clusters with random sizes, loads, backlogs
    /// and policies.
    fn small_pool() -> impl Strategy<Value = Vec<ClusterConfig>> {
        let cluster = (3u32..=9, 0.3f64..1.2, 0.0f64..2.5, any::<bool>(), 0u32..=4);
        proptest::collection::vec(cluster, 1..=3).prop_map(|specs| {
            specs
                .into_iter()
                .enumerate()
                .map(|(i, (exp, util, backlog, easy, hi_exp))| {
                    let mut cfg = ClusterConfig::test(&format!("c{i}"), 1 << exp);
                    if !easy {
                        cfg.policy = SchedulingPolicy::Fcfs;
                    }
                    let mut load = WorkloadConfig::production_like();
                    load.target_utilization = util;
                    load.size_dist = aimes_workload::Distribution::PowerOfTwo {
                        lo_exp: 0,
                        hi_exp: hi_exp.min(exp),
                    };
                    cfg.workload = Some(load);
                    cfg.initial_backlog_factor = backlog;
                    cfg
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The warm-up agrees with the engine path at submission and
        /// after it, on random pools, seeds and submission instants.
        #[test]
        fn prop_warm_up_matches_the_engine_path(
            configs in small_pool(),
            seed in any::<u64>(),
            minutes in 0u32..=600,
        ) {
            let until = SimTime::from_secs(f64::from(minutes) * 60.0);
            let [warm, engine] = both_paths_and_beyond(&configs, seed, until, 1.0);
            prop_assert_eq!(warm, engine);
        }
    }
}
