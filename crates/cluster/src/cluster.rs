//! The simulated HPC resource.
//!
//! A [`Cluster`] is a cheaply-cloneable handle (`Rc<RefCell<_>>`) to the
//! resource state, designed to be captured by simulation callbacks. It
//! combines:
//!
//! * a batch queue driven by a [`SchedulingPolicy`],
//! * core accounting with conservative walltime enforcement,
//! * a background-workload feed that keeps the machine realistically busy,
//! * the introspection surface the Bundle abstraction queries (metrics,
//!   queue composition, start-time estimation, wait history).

use crate::job::{Job, JobId, JobOwner, JobRequest, JobState};
use crate::policy::{select_starts, QueuedJobView, RunningJobView, SchedulingPolicy};
use crate::profile::AvailabilityProfile;
use aimes_sim::{EventId, ResourcePhase, SimDuration, SimTime, Simulation};
use aimes_workload::{BackgroundWorkload, WorkloadConfig};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;

/// One named submission queue of a resource. Real batch systems expose
/// several (e.g. `normal`, `debug`, `large`) with different priorities and
/// walltime ceilings; pilots are routed to a queue like any job.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QueueConfig {
    pub name: String,
    /// Jobs requesting more walltime than this are rejected at submission.
    pub max_walltime: SimDuration,
    /// Jobs requesting more cores than this are rejected (None = machine
    /// size).
    pub max_cores: Option<u32>,
    /// Higher priority sorts ahead of lower in the scheduler's order.
    pub priority: i32,
}

impl QueueConfig {
    /// The default production queue: whole machine, 48 h, base priority.
    pub fn normal() -> Self {
        QueueConfig {
            name: "normal".to_string(),
            max_walltime: SimDuration::from_hours(48.0),
            max_cores: None,
            priority: 0,
        }
    }

    /// A debug/development queue: short walltimes, few cores, but jumps
    /// the line.
    pub fn debug(max_walltime: SimDuration, max_cores: u32) -> Self {
        QueueConfig {
            name: "debug".to_string(),
            max_walltime,
            max_cores: Some(max_cores),
            priority: 10,
        }
    }
}

/// Static description of a resource.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Resource name, e.g. `stampede`.
    pub name: String,
    /// Total schedulable cores.
    pub total_cores: u32,
    /// Cores per node (accounting only; scheduling is core-granular).
    pub cores_per_node: u32,
    /// Batch scheduling policy.
    pub policy: SchedulingPolicy,
    /// Submission queues; the first is the default. Must be non-empty
    /// with distinct names.
    pub queues: Vec<QueueConfig>,
    /// Background load configuration; `None` leaves the machine idle.
    pub workload: Option<WorkloadConfig>,
    /// How long to keep feeding background arrivals.
    pub background_horizon: SimDuration,
    /// Queued-core demand at t = 0 as a fraction of machine size (initial
    /// backlog; avoids a cold-start transient).
    pub initial_backlog_factor: f64,
    /// Wide-area bandwidth for staging, MB/s, into the resource.
    pub ingress_mbps: f64,
    /// Wide-area bandwidth for staging, MB/s, out of the resource.
    pub egress_mbps: f64,
    /// Per-transfer latency (connection setup and the like).
    pub transfer_latency: SimDuration,
}

impl ClusterConfig {
    /// A small idle test cluster.
    pub fn test(name: &str, cores: u32) -> Self {
        ClusterConfig {
            name: name.to_string(),
            total_cores: cores,
            cores_per_node: 16,
            policy: SchedulingPolicy::EasyBackfill,
            queues: vec![QueueConfig::normal()],
            workload: None,
            background_horizon: SimDuration::from_hours(240.0),
            initial_backlog_factor: 0.0,
            ingress_mbps: 100.0,
            egress_mbps: 100.0,
            transfer_latency: SimDuration::from_secs(1.0),
        }
    }
}

/// Point-in-time resource metrics (the Bundle's on-demand view).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClusterMetrics {
    pub total_cores: u32,
    pub free_cores: u32,
    pub running_jobs: usize,
    pub queued_jobs: usize,
    /// Sum of cores requested by queued jobs.
    pub queued_cores: u64,
    /// Time-averaged core utilization since simulation start.
    pub utilization: f64,
}

/// Queue composition detail (the Bundle's "queue state, queue composition,
/// and types of jobs already scheduled" view, §III-E).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QueueSnapshot {
    /// (cores, requested walltime seconds) per queued job, in queue order.
    pub queued: Vec<(u32, f64)>,
    /// (cores, remaining walltime seconds) per running job.
    pub running: Vec<(u32, f64)>,
}

/// One historical record of a job start (for predictive queries).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct WaitRecord {
    pub started_at: SimTime,
    pub wait: SimDuration,
    pub cores: u32,
}

/// Ordering key of a queued job: descending queue priority, then FIFO
/// (ascending [`JobId`]) within a priority class — exactly the scheduler's
/// queue order, so BTreeMap iteration *is* the queue and removal by key is
/// O(log Q) instead of the former O(Q) `Vec::retain`.
type QueueKey = (Reverse<i32>, u64);

/// Memoized `estimate_wait` state: the queue-replay availability profile
/// (independent of the probe's shape) plus per-shape results. Valid for
/// one (scheduler epoch, probe instant) pair.
struct EstCache {
    epoch: u64,
    now: SimTime,
    profile: AvailabilityProfile,
    /// Probe results keyed by (cores, walltime bit pattern).
    results: HashMap<(u32, u64), Option<SimDuration>>,
}

struct ClusterState {
    config: ClusterConfig,
    jobs: HashMap<JobId, Job>,
    /// Queued jobs in scheduler order (see [`QueueKey`]).
    queue: BTreeMap<QueueKey, JobId>,
    /// Running job ids (iteration is JobId-sorted, hence deterministic)
    /// with their scheduled completion events.
    running: BTreeMap<JobId, EventId>,
    free_cores: u32,
    next_job_id: u64,
    background: Option<BackgroundWorkload>,
    // Time-weighted utilization accounting.
    busy_core_secs: f64,
    last_change: SimTime,
    // Recent job-start records for predictive bundle queries.
    wait_history: VecDeque<WaitRecord>,
    // Per-job state-change subscribers (the SAGA layer registers here).
    watchers: HashMap<JobId, Vec<Watcher>>,
    // Coalesces same-instant dispatch requests into one event.
    dispatch_scheduled: bool,
    // Fault injection: no job starts before this instant (outage/drain
    // window). Queued jobs wait; submissions are still accepted, as a real
    // batch system keeps accepting into a paused queue.
    down_until: Option<SimTime>,
    // --- incremental scheduler state ---
    /// Monotonic epoch, bumped by every change that can alter a scheduling
    /// or estimation decision (submit/start/complete/cancel/kill/outage).
    sched_epoch: u64,
    /// Epoch whose state the last dispatch pass fully examined; a dispatch
    /// arriving with `sched_epoch == last_dispatch_epoch` is a no-op and
    /// returns in O(1).
    last_dispatch_epoch: u64,
    /// Cached policy inputs, rebuilt lazily when `views_dirty`.
    queued_views_cache: Vec<QueuedJobView>,
    running_views_cache: Vec<RunningJobView>,
    views_dirty: bool,
    /// Incrementally maintained sum of cores requested by queued jobs.
    queued_cores: u64,
    /// `estimate_wait` memo; invalidated by epoch/instant mismatch.
    est_cache: Option<EstCache>,
}

type Watcher = Box<dyn FnMut(&mut Simulation, JobState)>;

impl ClusterState {
    fn accrue_busy(&mut self, now: SimTime) {
        let busy = self.config.total_cores - self.free_cores;
        self.busy_core_secs += f64::from(busy) * now.saturating_since(self.last_change).as_secs();
        self.last_change = now;
    }

    fn utilization(&self, now: SimTime) -> f64 {
        let elapsed = now.as_secs();
        if elapsed <= 0.0 {
            return 0.0;
        }
        let busy_now = f64::from(self.config.total_cores - self.free_cores)
            * now.saturating_since(self.last_change).as_secs();
        (self.busy_core_secs + busy_now) / (f64::from(self.config.total_cores) * elapsed)
    }

    /// Queue-order key for a job already stored in `jobs`.
    fn queue_key(&self, id: JobId) -> QueueKey {
        (Reverse(self.jobs[&id].queue_priority), id.0)
    }

    /// Mark a scheduling-relevant state change: bumps the epoch (so
    /// no-change dispatches and stale `estimate_wait` memos are detected)
    /// and invalidates the cached policy views.
    fn touch(&mut self) {
        self.sched_epoch += 1;
        self.views_dirty = true;
    }

    /// Rebuild the cached policy inputs if anything changed since the last
    /// dispatch. Iteration order is the BTreeMaps' — deterministic: no
    /// `HashMap` iteration order may reach scheduler inputs, traces, or
    /// journals (it varies with the per-process hash seed, which would
    /// make same-seed runs diverge).
    fn ensure_views(&mut self) {
        if !self.views_dirty {
            return;
        }
        let ClusterState {
            queue,
            running,
            jobs,
            queued_views_cache,
            running_views_cache,
            ..
        } = self;
        queued_views_cache.clear();
        queued_views_cache.extend(queue.values().map(|id| {
            let j = &jobs[id];
            QueuedJobView {
                id: *id,
                cores: j.request.cores,
                walltime: j.request.walltime_request,
            }
        }));
        running_views_cache.clear();
        running_views_cache.extend(running.keys().map(|id| {
            let j = &jobs[id];
            RunningJobView {
                cores: j.request.cores,
                deadline: j.walltime_deadline().expect("running job has start"),
            }
        }));
        self.views_dirty = false;
    }

    fn transition(&mut self, id: JobId, next: JobState) {
        let job = self.jobs.get_mut(&id).expect("job exists");
        assert!(
            job.state.can_transition_to(next),
            "illegal job transition {:?} -> {:?} for {id}",
            job.state,
            next
        );
        job.state = next;
    }
}

/// Handle to a simulated resource.
///
/// ```
/// use aimes_cluster::{Cluster, ClusterConfig, JobRequest, JobState};
/// use aimes_sim::{SimDuration, Simulation};
///
/// let mut sim = Simulation::new(1);
/// let cluster = Cluster::new(ClusterConfig::test("demo", 64));
/// let job = cluster.submit(
///     &mut sim,
///     JobRequest::background(
///         32,
///         SimDuration::from_secs(100.0),  // actual runtime
///         SimDuration::from_secs(200.0),  // requested walltime
///     ),
/// );
/// sim.run_to_completion();
/// assert_eq!(cluster.job_state(job), Some(JobState::Completed));
/// assert_eq!(sim.now().as_secs(), 100.0);
/// ```
#[derive(Clone)]
pub struct Cluster {
    inner: Rc<RefCell<ClusterState>>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.borrow();
        f.debug_struct("Cluster")
            .field("name", &st.config.name)
            .field("total_cores", &st.config.total_cores)
            .field("free_cores", &st.free_cores)
            .field("queued", &st.queue.len())
            .finish()
    }
}

impl Cluster {
    /// Create a cluster. Call [`Cluster::install`] to attach its background
    /// load to a simulation.
    pub fn new(config: ClusterConfig) -> Self {
        assert!(config.total_cores > 0);
        assert!(
            !config.queues.is_empty(),
            "cluster needs at least one queue"
        );
        {
            let mut names: Vec<&str> = config.queues.iter().map(|q| q.name.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(
                names.len(),
                config.queues.len(),
                "queue names must be distinct"
            );
        }
        let state = ClusterState {
            free_cores: config.total_cores,
            config,
            jobs: HashMap::new(),
            queue: BTreeMap::new(),
            running: BTreeMap::new(),
            next_job_id: 0,
            background: None,
            busy_core_secs: 0.0,
            last_change: SimTime::ZERO,
            wait_history: VecDeque::new(),
            watchers: HashMap::new(),
            dispatch_scheduled: false,
            down_until: None,
            sched_epoch: 1,
            last_dispatch_epoch: 0,
            queued_views_cache: Vec::new(),
            running_views_cache: Vec::new(),
            views_dirty: true,
            queued_cores: 0,
            est_cache: None,
        };
        Cluster {
            inner: Rc::new(RefCell::new(state)),
        }
    }

    /// Resource name.
    pub fn name(&self) -> String {
        self.inner.borrow().config.name.clone()
    }

    /// Static configuration (cloned).
    pub fn config(&self) -> ClusterConfig {
        self.inner.borrow().config.clone()
    }

    /// Attach background load (if configured) and the initial condition to
    /// the simulation. Must be called at t = 0, once.
    pub fn install(&self, sim: &mut Simulation) {
        let (workload_cfg, cores, backlog, name) = {
            let st = self.inner.borrow();
            (
                st.config.workload.clone(),
                st.config.total_cores,
                st.config.initial_backlog_factor,
                st.config.name.clone(),
            )
        };
        let Some(cfg) = workload_cfg else {
            return;
        };
        let rng = sim.fork_rng(&format!("cluster.{name}.background"));
        let mut generator = BackgroundWorkload::new(cfg, cores, rng);
        // Seed the machine: running set + queued backlog at t = 0.
        let initial = generator.initial_condition(backlog);
        self.inner.borrow_mut().background = Some(generator);
        for job in initial {
            let req = self.clamp_to_default_queue(JobRequest::background(
                job.cores,
                job.runtime,
                job.walltime_request,
            ));
            self.submit(sim, req);
        }
        self.schedule_next_background(sim);
    }

    /// Replay a fixed background trace (e.g. parsed from a Standard
    /// Workload Format file) instead of — or on top of — the synthetic
    /// generator. Jobs whose arrival has passed are submitted immediately;
    /// walltime requests are clamped to the default queue's ceiling.
    /// Oversized jobs (wider than the machine) are skipped, as a real
    /// scheduler would reject them at submission; the number of jobs
    /// actually scheduled is returned.
    pub fn install_trace(
        &self,
        sim: &mut Simulation,
        jobs: &[aimes_workload::BackgroundJob],
    ) -> usize {
        let total = self.inner.borrow().config.total_cores;
        let mut installed = 0;
        for job in jobs {
            if job.cores > total {
                continue;
            }
            installed += 1;
            let req = self.clamp_to_default_queue(JobRequest::background(
                job.cores,
                job.runtime,
                job.walltime_request,
            ));
            let this = self.clone();
            let at = job.arrival.max(sim.now());
            sim.schedule_at(at, move |sim| {
                this.submit(sim, req);
            });
        }
        installed
    }

    /// Background jobs request at most what the default queue allows —
    /// users cannot ask for more; jobs running longer are killed at the
    /// ceiling, exactly as in production.
    fn clamp_to_default_queue(&self, mut req: JobRequest) -> JobRequest {
        let max = self.inner.borrow().config.queues[0].max_walltime;
        req.walltime_request = req.walltime_request.min(max);
        req
    }

    fn schedule_next_background(&self, sim: &mut Simulation) {
        let _prof = sim.profiler().scope("cluster.scheduler");
        let (arrival, horizon) = {
            let st = self.inner.borrow();
            let Some(bg) = st.background.as_ref() else {
                return;
            };
            (
                bg.peek_arrival(),
                SimTime::ZERO + st.config.background_horizon,
            )
        };
        if arrival > horizon {
            return;
        }
        let this = self.clone();
        sim.schedule_at(arrival.max(sim.now()), move |sim| {
            let job = {
                let mut st = this.inner.borrow_mut();
                st.background
                    .as_mut()
                    .expect("background exists")
                    .next_job()
            };
            let req = this.clamp_to_default_queue(JobRequest::background(
                job.cores,
                job.runtime,
                job.walltime_request,
            ));
            this.submit(sim, req);
            this.schedule_next_background(sim);
        });
    }

    /// Submit a job. Panics if the request exceeds the machine (real batch
    /// systems reject those at submission too — callers must size pilots to
    /// the resource, which the Execution Manager does via bundle data).
    pub fn submit(&self, sim: &mut Simulation, request: JobRequest) -> JobId {
        let id = {
            let mut st = self.inner.borrow_mut();
            assert!(
                request.cores >= 1 && request.cores <= st.config.total_cores,
                "job of {} cores cannot run on {} ({} cores)",
                request.cores,
                st.config.name,
                st.config.total_cores
            );
            // Resolve the submission queue and enforce its limits.
            let qcfg = match &request.queue {
                None => &st.config.queues[0],
                Some(name) => st
                    .config
                    .queues
                    .iter()
                    .find(|q| q.name == *name)
                    .unwrap_or_else(|| panic!("unknown queue `{name}` on {}", st.config.name)),
            };
            assert!(
                request.walltime_request <= qcfg.max_walltime,
                "walltime {:.0}s exceeds queue `{}` limit {:.0}s on {}",
                request.walltime_request.as_secs(),
                qcfg.name,
                qcfg.max_walltime.as_secs(),
                st.config.name
            );
            let q_max_cores = qcfg.max_cores.unwrap_or(st.config.total_cores);
            assert!(
                request.cores <= q_max_cores,
                "{} cores exceeds queue `{}` limit {} on {}",
                request.cores,
                qcfg.name,
                q_max_cores,
                st.config.name
            );
            let priority = qcfg.priority;
            let id = JobId(st.next_job_id);
            st.next_job_id += 1;
            let job = Job::new(id, request, sim.now(), priority);
            if job.request.owner == JobOwner::Pilot {
                sim.tracer().record_with(sim.now(), || {
                    (
                        format!("cluster.{}.{}", st.config.name, id),
                        JobState::Queued.name(),
                        job.request.tag.clone(),
                    )
                });
            }
            // Priority insertion: ahead of strictly lower-priority jobs,
            // behind equal priority (stable FIFO within a queue class) —
            // the QueueKey ordering, since ids grow monotonically.
            st.queued_cores += u64::from(job.request.cores);
            st.jobs.insert(id, job);
            let key = (Reverse(priority), id.0);
            st.queue.insert(key, id);
            st.touch();
            id
        };
        self.inc_job_counter(sim, "jobs_submitted");
        self.record_usage_gauges(sim);
        self.schedule_dispatch(sim);
        id
    }

    /// Cancel a job (queued or running). Returns true if it was live.
    pub fn cancel(&self, sim: &mut Simulation, id: JobId) -> bool {
        let cancelled = {
            let mut st = self.inner.borrow_mut();
            let Some(job) = st.jobs.get(&id) else {
                return false;
            };
            match job.state {
                JobState::Queued => {
                    st.transition(id, JobState::Cancelled);
                    st.jobs.get_mut(&id).expect("exists").end_time = Some(sim.now());
                    let key = st.queue_key(id);
                    st.queue.remove(&key).expect("queued job is in the queue");
                    st.queued_cores -= u64::from(st.jobs[&id].request.cores);
                    st.touch();
                    true
                }
                JobState::Running => {
                    st.accrue_busy(sim.now());
                    st.transition(id, JobState::Cancelled);
                    st.jobs.get_mut(&id).expect("exists").end_time = Some(sim.now());
                    let ev = st.running.remove(&id).expect("running job has event");
                    let cores = st.jobs[&id].request.cores;
                    st.free_cores += cores;
                    st.touch();
                    // Cancel the pending completion event.
                    drop(st);
                    sim.cancel(ev);
                    true
                }
                _ => false,
            }
        };
        if cancelled {
            let st = self.inner.borrow();
            if st.jobs[&id].request.owner == JobOwner::Pilot {
                sim.tracer().record_with(sim.now(), || {
                    (
                        format!("cluster.{}.{}", st.config.name, id),
                        JobState::Cancelled.name(),
                        st.jobs[&id].request.tag.clone(),
                    )
                });
            }
            drop(st);
            self.inc_job_counter(sim, "jobs_cancelled");
            self.record_usage_gauges(sim);
            self.notify(sim, id, JobState::Cancelled);
            self.schedule_dispatch(sim);
        }
        cancelled
    }

    /// Request a dispatch pass. Deferred to a same-instant event so that
    /// callers (and their watchers) observe a consistent pre-dispatch
    /// state first; multiple requests at one instant coalesce.
    fn schedule_dispatch(&self, sim: &mut Simulation) {
        {
            let mut st = self.inner.borrow_mut();
            if st.dispatch_scheduled {
                return;
            }
            st.dispatch_scheduled = true;
        }
        let this = self.clone();
        sim.schedule_now(move |sim| {
            this.inner.borrow_mut().dispatch_scheduled = false;
            this.dispatch(sim);
        });
    }

    /// Run the scheduling policy and start whatever it selects.
    ///
    /// Incremental: a pass that cannot change anything — nothing happened
    /// since the last completed pass, the queue is empty, or no cores are
    /// free (no policy can start a job on zero free cores) — returns
    /// without rebuilding views or consulting the policy.
    fn dispatch(&self, sim: &mut Simulation) {
        let _prof = sim.profiler().scope("cluster.scheduler");
        let now = sim.now();
        let starts: Vec<(JobId, SimTime, JobOwner, String, SimDuration)> = {
            let mut st = self.inner.borrow_mut();
            if st.down_until.is_some_and(|until| now < until) {
                // Outage/drain window: the scheduler is paused. A dispatch
                // pass is already scheduled for the window's end. Do NOT
                // record the epoch: the window's end is not epoch-tracked,
                // and the end-of-window pass must re-examine this state.
                return;
            }
            if st.sched_epoch == st.last_dispatch_epoch {
                return;
            }
            if st.queue.is_empty() || st.free_cores == 0 {
                st.last_dispatch_epoch = st.sched_epoch;
                return;
            }
            st.ensure_views();
            let st = &mut *st;
            let ids = select_starts(
                st.config.policy,
                now,
                st.free_cores,
                &st.running_views_cache,
                &st.queued_views_cache,
            );
            if ids.is_empty() {
                // The pass examined exactly this epoch's state and found
                // nothing to start; until something changes, every further
                // dispatch is a no-op.
                st.last_dispatch_epoch = st.sched_epoch;
                return;
            }
            // Starts mutate the state (epoch moves on), so the next
            // dispatch re-runs the policy — which is correct: it will be
            // triggered only by a further state change.
            let mut started = Vec::with_capacity(ids.len());
            for id in ids {
                st.accrue_busy(now);
                let cores = st.jobs[&id].request.cores;
                assert!(st.free_cores >= cores, "policy oversubscribed cores");
                st.free_cores -= cores;
                let key = st.queue_key(id);
                st.queue.remove(&key).expect("started job was queued");
                st.queued_cores -= u64::from(cores);
                st.transition(id, JobState::Running);
                let job = st.jobs.get_mut(&id).expect("exists");
                job.start_time = Some(now);
                let end = now + job.occupancy();
                let wait = job.queue_wait(now);
                let owner = job.request.owner;
                let tag = job.request.tag.clone();
                st.wait_history.push_back(WaitRecord {
                    started_at: now,
                    wait,
                    cores,
                });
                if st.wait_history.len() > 1024 {
                    st.wait_history.pop_front();
                }
                st.touch();
                started.push((id, end, owner, tag, wait));
            }
            started
        };
        let started = starts.len();
        for (id, end, owner, tag, _wait) in starts {
            if owner == JobOwner::Pilot {
                sim.tracer().record_with(now, || {
                    let name = self.inner.borrow().config.name.clone();
                    (
                        format!("cluster.{name}.{id}"),
                        JobState::Running.name(),
                        tag,
                    )
                });
            }
            let this = self.clone();
            let ev = sim.schedule_at(end, move |sim| this.on_completion(sim, id));
            {
                let mut st = self.inner.borrow_mut();
                st.running.insert(id, ev);
                st.touch();
            }
            self.notify(sim, id, JobState::Running);
        }
        sim.metrics().inc_by(started as u64, || {
            format!(
                "cluster.{}.jobs_dispatched",
                self.inner.borrow().config.name
            )
        });
        self.record_usage_gauges(sim);
    }

    fn on_completion(&self, sim: &mut Simulation, id: JobId) {
        let _prof = sim.profiler().scope("cluster.scheduler");
        let now = sim.now();
        let (owner, tag, final_state) = {
            let mut st = self.inner.borrow_mut();
            st.accrue_busy(now);
            st.running.remove(&id);
            let job = &st.jobs[&id];
            let final_state = if job.request.runtime > job.request.walltime_request {
                JobState::Killed
            } else {
                JobState::Completed
            };
            st.transition(id, final_state);
            let cores = st.jobs[&id].request.cores;
            let job = st.jobs.get_mut(&id).expect("exists");
            job.end_time = Some(now);
            st.free_cores += cores;
            st.touch();
            let job = &st.jobs[&id];
            (job.request.owner, job.request.tag.clone(), final_state)
        };
        if owner == JobOwner::Pilot {
            sim.tracer().record_with(now, || {
                let name = self.inner.borrow().config.name.clone();
                (format!("cluster.{name}.{id}"), final_state.name(), tag)
            });
        }
        self.inc_job_counter(
            sim,
            if final_state == JobState::Killed {
                "jobs_killed"
            } else {
                "jobs_completed"
            },
        );
        self.record_usage_gauges(sim);
        self.notify(sim, id, final_state);
        self.schedule_dispatch(sim);
    }

    /// Inject a resource fault starting now. For `kill_running = true`
    /// (an outage: node failure, emergency maintenance) every running job
    /// is killed immediately and the scheduler stays paused until the
    /// window ends; for `kill_running = false` (a drain: scheduled
    /// maintenance reservation) running jobs finish but nothing new starts.
    /// Overlapping windows extend each other. Queued jobs and new
    /// submissions are retained — they simply wait out the window.
    pub fn inject_outage(&self, sim: &mut Simulation, duration: SimDuration, kill_running: bool) {
        let now = sim.now();
        let (name, end) = {
            let mut st = self.inner.borrow_mut();
            // A decommissioned resource is down forever: there is nothing
            // left to kill or pause, and scheduling the end-of-window
            // wake-up at t = ∞ would drag the clock to infinity if the
            // event queue ever drains that far.
            if st.down_until.is_some_and(|t| t.as_secs().is_infinite()) {
                return;
            }
            let end = (now + duration).max(st.down_until.unwrap_or(SimTime::ZERO));
            st.down_until = Some(end);
            // The window changes estimate_wait's origin and pauses
            // dispatch: a scheduling-relevant change like any other.
            st.touch();
            (st.config.name.clone(), end)
        };
        sim.tracer().record(
            now,
            format!("cluster.{name}"),
            if kill_running {
                ResourcePhase::Outage
            } else {
                ResourcePhase::Drain
            }
            .name(),
            format!("{:.0}s window", duration.as_secs()),
        );
        if kill_running {
            self.kill_running_jobs(sim, &name);
        }
        if end.as_secs().is_finite() {
            let this = self.clone();
            sim.schedule_at(end, move |sim| {
                // The window may have been extended by a later injection,
                // in which case this pass is a no-op and that injection's
                // own wake-up takes over.
                this.schedule_dispatch(sim);
            });
        }
    }

    /// Remove the resource from service for good: running AND queued jobs
    /// are killed and dispatch never resumes. Watchers see `Killed`, so
    /// submitters learn their work died with the machine.
    pub fn decommission(&self, sim: &mut Simulation) {
        let now = sim.now();
        let (name, queued) = {
            let mut st = self.inner.borrow_mut();
            st.down_until = Some(SimTime::from_secs(f64::INFINITY));
            // Queue order (priority, then FIFO): the order submitters are
            // notified in, as before.
            let queued: Vec<JobId> = std::mem::take(&mut st.queue).into_values().collect();
            st.queued_cores = 0;
            st.touch();
            for &id in &queued {
                st.transition(id, JobState::Killed);
                st.jobs.get_mut(&id).expect("queued job exists").end_time = Some(now);
            }
            (st.config.name.clone(), queued)
        };
        sim.tracer().record(
            now,
            format!("cluster.{name}"),
            ResourcePhase::Decommission.name(),
            "permanent loss",
        );
        self.kill_running_jobs(sim, &name);
        self.record_usage_gauges(sim);
        for id in queued {
            self.notify(sim, id, JobState::Killed);
        }
    }

    /// Kill every running job: bookkeeping for all victims first, under
    /// one borrow; then cancel events and notify watchers
    /// re-entrancy-safely.
    fn kill_running_jobs(&self, sim: &mut Simulation, name: &str) {
        let now = sim.now();
        let victims: Vec<(JobId, EventId, JobOwner, String)> = {
            let mut st = self.inner.borrow_mut();
            // BTreeMap keys are JobId-sorted: deterministic kill (and
            // watcher-notification) order.
            let ids: Vec<JobId> = st.running.keys().copied().collect();
            let mut out = Vec::with_capacity(ids.len());
            for id in ids {
                st.accrue_busy(now);
                st.transition(id, JobState::Killed);
                let ev = st.running.remove(&id).expect("running job has event");
                let cores = st.jobs[&id].request.cores;
                st.free_cores += cores;
                st.touch();
                let job = st.jobs.get_mut(&id).expect("exists");
                job.end_time = Some(now);
                out.push((id, ev, job.request.owner, job.request.tag.clone()));
            }
            out
        };
        let killed = victims.len();
        for (id, ev, owner, tag) in victims {
            sim.cancel(ev);
            if owner == JobOwner::Pilot {
                sim.tracer().record_with(now, || {
                    (format!("cluster.{name}.{id}"), JobState::Killed.name(), tag)
                });
            }
            self.notify(sim, id, JobState::Killed);
        }
        sim.metrics().inc_by(killed as u64, || {
            format!("cluster.{}.jobs_killed", self.inner.borrow().config.name)
        });
        self.record_usage_gauges(sim);
    }

    /// Is the resource inside an outage/drain window at `now`?
    pub fn is_down(&self, now: SimTime) -> bool {
        self.inner
            .borrow()
            .down_until
            .is_some_and(|until| now < until)
    }

    /// Has the resource been permanently removed from service? A
    /// decommissioned machine's front end is gone too: remote operations
    /// against it fail at the connection level rather than queueing.
    pub fn is_decommissioned(&self) -> bool {
        self.inner
            .borrow()
            .down_until
            .is_some_and(|until| until.as_secs().is_infinite())
    }

    /// Bump one per-resource job counter (`cluster.<name>.<which>`). One
    /// branch when metrics are disabled.
    fn inc_job_counter(&self, sim: &Simulation, which: &'static str) {
        sim.metrics()
            .inc(|| format!("cluster.{}.{which}", self.inner.borrow().config.name));
    }

    /// Append one sample to the utilization and queue-depth timelines
    /// (`cluster.<name>.{busy_cores,utilization,queue_depth}`). Passive:
    /// schedules no events and draws no randomness, so instrumented runs
    /// stay bit-identical to uninstrumented ones.
    fn record_usage_gauges(&self, sim: &Simulation) {
        let metrics = sim.metrics();
        if !metrics.is_enabled() {
            return;
        }
        let now = sim.now();
        let st = self.inner.borrow();
        let name = &st.config.name;
        let busy = f64::from(st.config.total_cores - st.free_cores);
        metrics.gauge(now, busy, || format!("cluster.{name}.busy_cores"));
        metrics.gauge(now, busy / f64::from(st.config.total_cores), || {
            format!("cluster.{name}.utilization")
        });
        metrics.gauge(now, st.queue.len() as f64, || {
            format!("cluster.{name}.queue_depth")
        });
    }

    /// Subscribe to state changes of one job. The callback fires on every
    /// transition (Running, then a terminal state); it is dropped after a
    /// terminal notification. Callbacks may submit/cancel jobs and register
    /// further watchers.
    pub fn watch(&self, id: JobId, cb: impl FnMut(&mut Simulation, JobState) + 'static) {
        self.inner
            .borrow_mut()
            .watchers
            .entry(id)
            .or_default()
            .push(Box::new(cb));
    }

    fn notify(&self, sim: &mut Simulation, id: JobId, state: JobState) {
        let Some(mut ws) = self.inner.borrow_mut().watchers.remove(&id) else {
            return;
        };
        for w in ws.iter_mut() {
            w(sim, state);
        }
        if !state.is_terminal() {
            // Put watchers back, keeping any registered during callbacks.
            let mut st = self.inner.borrow_mut();
            if let Some(mut newly) = st.watchers.remove(&id) {
                ws.append(&mut newly);
            }
            st.watchers.insert(id, ws);
        }
    }

    /// Current state of a job.
    pub fn job_state(&self, id: JobId) -> Option<JobState> {
        self.inner.borrow().jobs.get(&id).map(|j| j.state)
    }

    /// Full job record (cloned).
    pub fn job(&self, id: JobId) -> Option<Job> {
        self.inner.borrow().jobs.get(&id).cloned()
    }

    /// On-demand metrics (the Bundle's query interface reads this).
    pub fn metrics(&self, now: SimTime) -> ClusterMetrics {
        let st = self.inner.borrow();
        ClusterMetrics {
            total_cores: st.config.total_cores,
            free_cores: st.free_cores,
            running_jobs: st.running.len(),
            queued_jobs: st.queue.len(),
            queued_cores: st.queued_cores,
            utilization: st.utilization(now),
        }
    }

    /// Detailed queue composition.
    pub fn queue_snapshot(&self, now: SimTime) -> QueueSnapshot {
        let st = self.inner.borrow();
        QueueSnapshot {
            queued: st
                .queue
                .values()
                .map(|id| {
                    let j = &st.jobs[id];
                    (j.request.cores, j.request.walltime_request.as_secs())
                })
                .collect(),
            running: st
                .running
                .keys()
                .map(|id| {
                    let j = &st.jobs[id];
                    let deadline = j.walltime_deadline().expect("running");
                    (j.request.cores, deadline.saturating_since(now).as_secs())
                })
                .collect(),
        }
    }

    /// Recent job-start records, oldest first.
    pub fn wait_history(&self) -> Vec<WaitRecord> {
        self.inner.borrow().wait_history.iter().copied().collect()
    }

    /// Estimate when a hypothetical job of `cores`×`walltime` submitted now
    /// would start, by replaying the queue against the conservative
    /// availability profile (all queued jobs get reservations ahead of it).
    /// Returns the estimated wait, or `None` if the job can never fit.
    ///
    /// Memoized: the O(Q·P²) queue replay is independent of the probe's
    /// shape, so its resulting profile is cached per (scheduler epoch,
    /// probe instant) and each distinct (cores, walltime) probe against it
    /// is answered once. Repeated bundle queries between state changes —
    /// the common pattern — cost one `earliest_fit` or a map lookup.
    pub fn estimate_wait(
        &self,
        now: SimTime,
        cores: u32,
        walltime: SimDuration,
    ) -> Option<SimDuration> {
        let mut st = self.inner.borrow_mut();
        if cores > st.config.total_cores {
            return None;
        }
        // A decommissioned resource never starts anything again; during an
        // outage/drain window nothing starts before the window ends, so the
        // availability profile begins at max(now, down_until).
        let origin = match st.down_until {
            Some(t) if t.as_secs().is_infinite() => return None,
            Some(t) => now.max(t),
            None => now,
        };
        let stale = !st
            .est_cache
            .as_ref()
            .is_some_and(|c| c.epoch == st.sched_epoch && c.now == now);
        if stale {
            let st = &mut *st;
            let releases: Vec<(SimTime, u32)> = st
                .running
                .keys()
                .map(|id| {
                    let j = &st.jobs[id];
                    (j.walltime_deadline().expect("running"), j.request.cores)
                })
                .collect();
            let mut profile = AvailabilityProfile::new(origin, st.free_cores, &releases);
            for id in st.queue.values() {
                let j = &st.jobs[id];
                if let Some(start) =
                    profile.earliest_fit(j.request.cores, j.request.walltime_request, origin)
                {
                    profile.reserve(start, j.request.walltime_request, j.request.cores);
                }
            }
            st.est_cache = Some(EstCache {
                epoch: st.sched_epoch,
                now,
                profile,
                results: HashMap::new(),
            });
        }
        let cache = st.est_cache.as_mut().expect("cache just ensured");
        let key = (cores, walltime.as_secs().to_bits());
        if let Some(hit) = cache.results.get(&key) {
            return *hit;
        }
        let result = cache
            .profile
            .earliest_fit(cores, walltime, origin)
            .map(|start| start.saturating_since(now));
        cache.results.insert(key, result);
        result
    }

    /// Staging time for `megabytes` moved into (`ingress` = true) or out of
    /// the resource.
    pub fn transfer_time(&self, megabytes: f64, ingress: bool) -> SimDuration {
        let st = self.inner.borrow();
        let bw = if ingress {
            st.config.ingress_mbps
        } else {
            st.config.egress_mbps
        };
        st.config.transfer_latency + SimDuration::from_secs(megabytes / bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn idle_cluster(cores: u32) -> (Simulation, Cluster) {
        let sim = Simulation::new(7);
        let c = Cluster::new(ClusterConfig::test("testres", cores));
        (sim, c)
    }

    #[test]
    fn job_runs_to_completion_on_idle_machine() {
        let (mut sim, c) = idle_cluster(64);
        let id = c.submit(&mut sim, JobRequest::background(8, d(100.0), d(200.0)));
        assert_eq!(c.job_state(id), Some(JobState::Queued)); // dispatch is deferred
        sim.run_until(sim.now()); // settle same-instant events
        assert_eq!(c.job_state(id), Some(JobState::Running)); // idle → starts at t=0
        sim.run_to_completion();
        assert_eq!(c.job_state(id), Some(JobState::Completed));
        let job = c.job(id).unwrap();
        assert_eq!(job.start_time, Some(SimTime::ZERO));
        assert_eq!(job.end_time.unwrap().as_secs(), 100.0);
    }

    #[test]
    fn walltime_kill() {
        let (mut sim, c) = idle_cluster(64);
        // Runtime 300 s but only 100 s requested → killed at 100 s.
        let id = c.submit(&mut sim, JobRequest::background(8, d(300.0), d(100.0)));
        sim.run_to_completion();
        assert_eq!(c.job_state(id), Some(JobState::Killed));
        assert_eq!(c.job(id).unwrap().end_time.unwrap().as_secs(), 100.0);
    }

    #[test]
    fn queued_job_waits_for_cores() {
        let (mut sim, c) = idle_cluster(10);
        let a = c.submit(&mut sim, JobRequest::background(8, d(100.0), d(100.0)));
        let b = c.submit(&mut sim, JobRequest::background(8, d(50.0), d(50.0)));
        sim.run_until(sim.now()); // settle same-instant dispatch
        assert_eq!(c.job_state(a), Some(JobState::Running));
        assert_eq!(c.job_state(b), Some(JobState::Queued));
        sim.run_to_completion();
        let jb = c.job(b).unwrap();
        assert_eq!(jb.start_time.unwrap().as_secs(), 100.0);
        assert_eq!(jb.queue_wait(sim.now()), d(100.0));
        assert_eq!(jb.state, JobState::Completed);
    }

    #[test]
    fn backfill_overtakes_blocked_head() {
        let (mut sim, c) = idle_cluster(12);
        let _big = c.submit(&mut sim, JobRequest::background(10, d(100.0), d(100.0)));
        let head = c.submit(&mut sim, JobRequest::background(12, d(100.0), d(100.0)));
        let small = c.submit(&mut sim, JobRequest::background(2, d(20.0), d(20.0)));
        sim.run_until(sim.now()); // settle same-instant dispatch
                                  // Head blocked until t=100; small 2-core/20 s job backfills at once.
        assert_eq!(c.job_state(head), Some(JobState::Queued));
        assert_eq!(c.job_state(small), Some(JobState::Running));
        sim.run_to_completion();
        assert_eq!(c.job(head).unwrap().start_time.unwrap().as_secs(), 100.0);
    }

    #[test]
    fn fcfs_does_not_overtake() {
        let mut cfg = ClusterConfig::test("fcfs", 10);
        cfg.policy = SchedulingPolicy::Fcfs;
        let mut sim = Simulation::new(7);
        let c = Cluster::new(cfg);
        let _big = c.submit(&mut sim, JobRequest::background(10, d(100.0), d(100.0)));
        let _head = c.submit(&mut sim, JobRequest::background(10, d(100.0), d(100.0)));
        let small = c.submit(&mut sim, JobRequest::background(2, d(20.0), d(20.0)));
        assert_eq!(c.job_state(small), Some(JobState::Queued));
        sim.run_to_completion();
        // Small starts only after the head does (t=100).
        assert!(c.job(small).unwrap().start_time.unwrap().as_secs() >= 100.0);
    }

    #[test]
    fn cancel_queued_job() {
        let (mut sim, c) = idle_cluster(4);
        let a = c.submit(&mut sim, JobRequest::background(4, d(100.0), d(100.0)));
        let b = c.submit(&mut sim, JobRequest::background(4, d(100.0), d(100.0)));
        assert!(c.cancel(&mut sim, b));
        sim.run_to_completion();
        assert_eq!(c.job_state(b), Some(JobState::Cancelled));
        assert_eq!(c.job_state(a), Some(JobState::Completed));
    }

    #[test]
    fn cancel_running_job_frees_cores_immediately() {
        let (mut sim, c) = idle_cluster(4);
        let a = c.submit(&mut sim, JobRequest::background(4, d(1000.0), d(1000.0)));
        let b = c.submit(&mut sim, JobRequest::background(4, d(10.0), d(10.0)));
        assert_eq!(c.job_state(b), Some(JobState::Queued));
        let cl = c.clone();
        sim.schedule_at(SimTime::from_secs(5.0), move |sim| {
            cl.cancel(sim, a);
        });
        sim.run_to_completion();
        assert_eq!(c.job_state(a), Some(JobState::Cancelled));
        let jb = c.job(b).unwrap();
        assert_eq!(jb.start_time.unwrap().as_secs(), 5.0);
        assert_eq!(jb.state, JobState::Completed);
        // The cancelled job's completion event must not have fired.
        assert_eq!(sim.now().as_secs(), 15.0);
    }

    #[test]
    fn cancel_twice_is_false() {
        let (mut sim, c) = idle_cluster(4);
        let a = c.submit(&mut sim, JobRequest::background(4, d(10.0), d(10.0)));
        assert!(c.cancel(&mut sim, a));
        assert!(!c.cancel(&mut sim, a));
        assert!(!c.cancel(&mut sim, JobId(999)));
    }

    #[test]
    #[should_panic(expected = "cannot run")]
    fn oversized_job_rejected() {
        let (mut sim, c) = idle_cluster(4);
        c.submit(&mut sim, JobRequest::background(8, d(10.0), d(10.0)));
    }

    #[test]
    fn metrics_reflect_state() {
        let (mut sim, c) = idle_cluster(16);
        c.submit(&mut sim, JobRequest::background(10, d(100.0), d(100.0)));
        c.submit(&mut sim, JobRequest::background(10, d(100.0), d(100.0)));
        sim.run_until(sim.now()); // settle same-instant dispatch
        let m = c.metrics(sim.now());
        assert_eq!(m.total_cores, 16);
        assert_eq!(m.free_cores, 6);
        assert_eq!(m.running_jobs, 1);
        assert_eq!(m.queued_jobs, 1);
        assert_eq!(m.queued_cores, 10);
    }

    #[test]
    fn utilization_time_weighted() {
        let (mut sim, c) = idle_cluster(10);
        // 5 cores busy for 100 s, then idle until t=200 → 25 % utilization.
        c.submit(&mut sim, JobRequest::background(5, d(100.0), d(100.0)));
        sim.run_to_completion();
        let probe = SimTime::from_secs(200.0);
        let u = c.metrics(probe).utilization;
        assert!((u - 0.25).abs() < 1e-9, "utilization {u}");
    }

    #[test]
    fn estimate_wait_on_idle_machine_is_zero() {
        let (sim, c) = idle_cluster(64);
        let w = c.estimate_wait(sim.now(), 32, d(100.0)).unwrap();
        assert_eq!(w, SimDuration::ZERO);
    }

    #[test]
    fn estimate_wait_accounts_for_running_and_queued() {
        let (mut sim, c) = idle_cluster(10);
        c.submit(&mut sim, JobRequest::background(10, d(100.0), d(100.0)));
        c.submit(&mut sim, JobRequest::background(10, d(50.0), d(50.0)));
        // New 10-core job: waits for running (100 s) + queued (50 s).
        let w = c.estimate_wait(sim.now(), 10, d(10.0)).unwrap();
        assert_eq!(w, d(150.0));
        // A 1-core job cannot backfill in the estimate either, because the
        // queued 10-core job's reservation occupies the whole machine; but
        // after that reservation it fits.
        assert!(c.estimate_wait(sim.now(), 1, d(10.0)).unwrap() <= d(150.0));
        assert!(c.estimate_wait(sim.now(), 11, d(10.0)).is_none());
    }

    #[test]
    fn estimate_wait_respects_outage_window() {
        let (mut sim, c) = idle_cluster(64);
        c.inject_outage(&mut sim, d(600.0), false);
        // Nothing starts inside the window: the earliest start is its end.
        let w = c.estimate_wait(sim.now(), 8, d(100.0)).unwrap();
        assert_eq!(w, d(600.0));
    }

    #[test]
    fn estimate_wait_treats_in_window_releases_as_free() {
        // A running job whose walltime expires inside the outage window
        // frees its cores before the window ends, so at the window's end
        // the whole machine is available — the estimate must not place
        // the release after the window (nor before it).
        let (mut sim, c) = idle_cluster(10);
        c.submit(&mut sim, JobRequest::background(10, d(100.0), d(100.0)));
        sim.run_until(SimTime::from_secs(1.0)); // let the job start at t=0
        c.inject_outage(&mut sim, d(600.0), false); // drain until t=601
        let w = c.estimate_wait(sim.now(), 10, d(50.0)).unwrap();
        assert_eq!(w, d(600.0), "start at window end, release already free");
    }

    #[test]
    fn estimate_wait_none_when_decommissioned() {
        let (mut sim, c) = idle_cluster(8);
        c.decommission(&mut sim);
        assert_eq!(c.estimate_wait(sim.now(), 1, d(10.0)), None);
    }

    #[test]
    fn estimate_wait_memo_is_transparent() {
        // The same probe twice answers identically (the second from the
        // per-epoch cache), and a scheduling-relevant change invalidates
        // the cache rather than serving a stale profile.
        let (mut sim, c) = idle_cluster(10);
        let zero = c.estimate_wait(sim.now(), 10, d(50.0)).unwrap();
        assert_eq!(zero, SimDuration::ZERO);
        assert_eq!(c.estimate_wait(sim.now(), 10, d(50.0)).unwrap(), zero);
        c.submit(&mut sim, JobRequest::background(10, d(100.0), d(100.0)));
        // The queued job's reservation occupies now..100 s; the probe must
        // see it immediately, not the cached idle profile.
        assert_eq!(c.estimate_wait(sim.now(), 10, d(50.0)).unwrap(), d(100.0));
    }

    #[test]
    fn wait_history_records_starts() {
        let (mut sim, c) = idle_cluster(4);
        c.submit(&mut sim, JobRequest::background(4, d(30.0), d(30.0)));
        c.submit(&mut sim, JobRequest::background(4, d(30.0), d(30.0)));
        sim.run_to_completion();
        let h = c.wait_history();
        assert_eq!(h.len(), 2);
        assert_eq!(h[0].wait, SimDuration::ZERO);
        assert_eq!(h[1].wait, d(30.0));
    }

    #[test]
    fn background_load_keeps_machine_busy() {
        let mut cfg = ClusterConfig::test("busy", 2048);
        cfg.workload = Some(WorkloadConfig::production_like());
        cfg.initial_backlog_factor = 0.3;
        cfg.background_horizon = SimDuration::from_hours(24.0 * 7.0);
        let mut sim = Simulation::new(21);
        let c = Cluster::new(cfg);
        c.install(&mut sim);
        sim.run_until(SimTime::from_secs(7.0 * 24.0 * 3600.0));
        let m = c.metrics(sim.now());
        assert!(
            m.utilization > 0.5,
            "background load should keep utilization up, got {}",
            m.utilization
        );
    }

    #[test]
    fn pilot_job_traces_recorded() {
        let (mut sim, c) = idle_cluster(8);
        let id = c.submit(&mut sim, JobRequest::pilot(8, d(60.0), "pilot.x"));
        sim.run_to_completion();
        assert_eq!(c.job_state(id), Some(JobState::Completed));
        let comp = format!("cluster.testres.{id}");
        let evs = sim.tracer().for_component(&comp);
        let names: Vec<&str> = evs.iter().map(|e| e.event.as_str()).collect();
        assert_eq!(names, vec!["Queued", "Running", "Completed"]);
    }

    #[test]
    fn transfer_time_uses_bandwidth_and_latency() {
        let (_sim, c) = idle_cluster(8);
        // 100 MB at 100 MB/s + 1 s latency = 2 s.
        assert_eq!(c.transfer_time(100.0, true), d(2.0));
    }

    #[test]
    fn debug_queue_jumps_the_line() {
        let mut cfg = ClusterConfig::test("queued", 8);
        cfg.queues = vec![QueueConfig::normal(), QueueConfig::debug(d(1800.0), 4)];
        let mut sim = Simulation::new(1);
        let c = Cluster::new(cfg);
        // Fill the machine, then queue a normal job and a debug job.
        c.submit(&mut sim, JobRequest::background(8, d(100.0), d(100.0)));
        let normal = c.submit(&mut sim, JobRequest::background(8, d(50.0), d(50.0)));
        let debug = c.submit(
            &mut sim,
            JobRequest::background(2, d(30.0), d(30.0)).with_queue("debug"),
        );
        sim.run_to_completion();
        let n = c.job(normal).unwrap();
        let dj = c.job(debug).unwrap();
        // The debug job sits at the queue head despite submitting later;
        // with EASY it also backfills, so it starts strictly earlier.
        assert!(dj.start_time.unwrap() < n.start_time.unwrap());
        assert_eq!(dj.queue_priority, 10);
        assert_eq!(n.queue_priority, 0);
    }

    #[test]
    fn priority_order_is_fifo_within_a_class() {
        let mut cfg = ClusterConfig::test("fifo", 4);
        cfg.queues = vec![QueueConfig::normal(), QueueConfig::debug(d(3600.0), 4)];
        let mut sim = Simulation::new(1);
        let c = Cluster::new(cfg);
        c.submit(&mut sim, JobRequest::background(4, d(100.0), d(100.0)));
        sim.run_until(sim.now()); // blocker starts before the contenders arrive
        let n1 = c.submit(&mut sim, JobRequest::background(4, d(10.0), d(10.0)));
        let d1 = c.submit(
            &mut sim,
            JobRequest::background(4, d(10.0), d(10.0)).with_queue("debug"),
        );
        let d2 = c.submit(
            &mut sim,
            JobRequest::background(4, d(10.0), d(10.0)).with_queue("debug"),
        );
        sim.run_to_completion();
        let start = |id| c.job(id).unwrap().start_time.unwrap().as_secs();
        // debug jobs first (in their submit order), then the normal job.
        assert_eq!(start(d1), 100.0);
        assert_eq!(start(d2), 110.0);
        assert_eq!(start(n1), 120.0);
    }

    #[test]
    #[should_panic(expected = "unknown queue")]
    fn unknown_queue_rejected() {
        let (mut sim, c) = idle_cluster(8);
        c.submit(
            &mut sim,
            JobRequest::background(1, d(10.0), d(10.0)).with_queue("vip"),
        );
    }

    #[test]
    #[should_panic(expected = "exceeds queue `debug` limit")]
    fn queue_walltime_limit_enforced() {
        let mut cfg = ClusterConfig::test("lim", 8);
        cfg.queues = vec![QueueConfig::normal(), QueueConfig::debug(d(60.0), 8)];
        let mut sim = Simulation::new(1);
        let c = Cluster::new(cfg);
        c.submit(
            &mut sim,
            JobRequest::background(1, d(10.0), d(3600.0)).with_queue("debug"),
        );
    }

    #[test]
    #[should_panic(expected = "cores exceeds queue")]
    fn queue_core_limit_enforced() {
        let mut cfg = ClusterConfig::test("lim", 64);
        cfg.queues = vec![QueueConfig::normal(), QueueConfig::debug(d(3600.0), 4)];
        let mut sim = Simulation::new(1);
        let c = Cluster::new(cfg);
        c.submit(
            &mut sim,
            JobRequest::background(8, d(10.0), d(10.0)).with_queue("debug"),
        );
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn duplicate_queue_names_rejected() {
        let mut cfg = ClusterConfig::test("dup", 8);
        cfg.queues = vec![QueueConfig::normal(), QueueConfig::normal()];
        let _ = Cluster::new(cfg);
    }

    #[test]
    fn watcher_sees_running_then_terminal() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let (mut sim, c) = idle_cluster(8);
        let seen = Rc::new(RefCell::new(vec![]));
        let id = c.submit(&mut sim, JobRequest::background(8, d(60.0), d(120.0)));
        let s2 = seen.clone();
        c.watch(id, move |_sim, st| s2.borrow_mut().push(st));
        sim.run_to_completion();
        // Dispatch is deferred, so a watch registered right after submit
        // still observes the start.
        assert_eq!(*seen.borrow(), vec![JobState::Running, JobState::Completed]);

        // Register before start: job queued behind another.
        let (mut sim, c) = idle_cluster(8);
        let seen = Rc::new(RefCell::new(vec![]));
        c.submit(&mut sim, JobRequest::background(8, d(60.0), d(60.0)));
        let id = c.submit(&mut sim, JobRequest::background(8, d(10.0), d(10.0)));
        let s2 = seen.clone();
        c.watch(id, move |_sim, st| s2.borrow_mut().push(st));
        sim.run_to_completion();
        assert_eq!(*seen.borrow(), vec![JobState::Running, JobState::Completed]);
    }

    #[test]
    fn watcher_sees_cancellation() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let (mut sim, c) = idle_cluster(8);
        let seen = Rc::new(RefCell::new(vec![]));
        let id = c.submit(&mut sim, JobRequest::background(8, d(1000.0), d(1000.0)));
        let s2 = seen.clone();
        c.watch(id, move |_sim, st| s2.borrow_mut().push(st));
        let c2 = c.clone();
        sim.schedule_at(SimTime::from_secs(5.0), move |sim| {
            c2.cancel(sim, id);
        });
        sim.run_to_completion();
        assert_eq!(*seen.borrow(), vec![JobState::Running, JobState::Cancelled]);
    }

    #[test]
    fn watcher_can_chain_submissions() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let (mut sim, c) = idle_cluster(8);
        let chained: Rc<RefCell<Option<JobId>>> = Rc::new(RefCell::new(None));
        let id = c.submit(&mut sim, JobRequest::background(8, d(30.0), d(30.0)));
        let c2 = c.clone();
        let ch = chained.clone();
        c.watch(id, move |sim, st| {
            if st == JobState::Completed {
                let next = c2.submit(sim, JobRequest::background(4, d(10.0), d(10.0)));
                *ch.borrow_mut() = Some(next);
            }
        });
        sim.run_to_completion();
        let next = chained.borrow().expect("chained job submitted");
        assert_eq!(c.job_state(next), Some(JobState::Completed));
        assert_eq!(sim.now().as_secs(), 40.0);
    }

    #[test]
    fn trace_replay_drives_the_machine() {
        use aimes_workload::BackgroundJob;
        let (mut sim, c) = idle_cluster(16);
        let jobs = vec![
            BackgroundJob {
                arrival: SimTime::from_secs(10.0),
                cores: 16,
                runtime: d(100.0),
                walltime_request: d(120.0),
            },
            BackgroundJob {
                arrival: SimTime::from_secs(20.0),
                cores: 8,
                runtime: d(50.0),
                walltime_request: d(60.0),
            },
            BackgroundJob {
                arrival: SimTime::from_secs(0.0),
                cores: 64, // wider than the machine: skipped
                runtime: d(50.0),
                walltime_request: d(60.0),
            },
        ];
        assert_eq!(c.install_trace(&mut sim, &jobs), 2);
        sim.run_to_completion();
        // Job 1 runs 10..110; job 2 queues behind it, runs 110..160.
        let j0 = c.job(JobId(0)).unwrap();
        let j1 = c.job(JobId(1)).unwrap();
        assert_eq!(j0.start_time.unwrap().as_secs(), 10.0);
        assert_eq!(j1.start_time.unwrap().as_secs(), 110.0);
        assert_eq!(j1.state, JobState::Completed);
    }

    #[test]
    fn swf_roundtrip_through_cluster_replay() {
        use aimes_workload::{from_swf, to_swf, BackgroundWorkload, WorkloadConfig};
        // Generate a synthetic stream, export to SWF, re-import, replay.
        let mut g = BackgroundWorkload::new(
            WorkloadConfig::production_like(),
            128,
            aimes_sim::SimRng::new(8),
        );
        let jobs = g.generate_until(SimTime::from_secs(6.0 * 3600.0));
        let reparsed = from_swf(&to_swf(&jobs, "sim")).unwrap();
        let (mut sim, c) = idle_cluster(128);
        let n = c.install_trace(&mut sim, &reparsed);
        assert!(n > 0);
        sim.run_to_completion();
        let m = c.metrics(sim.now());
        assert_eq!(m.queued_jobs, 0);
        assert_eq!(m.free_cores, 128);
        assert!(m.utilization > 0.0);
    }

    #[test]
    fn outage_kills_running_and_pauses_dispatch() {
        let (mut sim, c) = idle_cluster(64);
        let victim = c.submit(&mut sim, JobRequest::background(8, d(500.0), d(600.0)));
        let queued = c.submit(&mut sim, JobRequest::background(64, d(50.0), d(100.0)));
        sim.schedule_at(SimTime::from_secs(100.0), |_| {});
        sim.run_until(SimTime::from_secs(100.0));
        assert_eq!(c.job_state(victim), Some(JobState::Running));
        let seen = Rc::new(RefCell::new(None));
        let slot = Rc::clone(&seen);
        c.watch(victim, move |_sim, s| *slot.borrow_mut() = Some(s));
        c.inject_outage(&mut sim, d(300.0), true);
        // The kill is synchronous: state, watcher, and accounting all see it.
        assert_eq!(c.job_state(victim), Some(JobState::Killed));
        assert_eq!(*seen.borrow(), Some(JobState::Killed));
        assert!(c.is_down(sim.now()));
        sim.run_to_completion();
        // The queued job waited out the window and the victim's accounting
        // stops at the kill instant.
        assert_eq!(c.job(victim).unwrap().end_time.unwrap().as_secs(), 100.0);
        let jq = c.job(queued).unwrap();
        assert_eq!(jq.start_time.unwrap().as_secs(), 400.0);
        assert_eq!(jq.state, JobState::Completed);
        assert!(!c.is_down(sim.now()));
    }

    #[test]
    fn drain_lets_running_finish_but_delays_starts() {
        let (mut sim, c) = idle_cluster(10);
        let running = c.submit(&mut sim, JobRequest::background(8, d(200.0), d(300.0)));
        sim.schedule_at(SimTime::from_secs(50.0), |_| {});
        sim.run_until(SimTime::from_secs(50.0));
        c.inject_outage(&mut sim, d(400.0), false);
        let late = c.submit(&mut sim, JobRequest::background(4, d(20.0), d(30.0)));
        sim.run_to_completion();
        // Running job survives the drain; the new submission waits for the
        // window's end even though cores were free the whole time.
        let jr = c.job(running).unwrap();
        assert_eq!(jr.state, JobState::Completed);
        assert_eq!(jr.end_time.unwrap().as_secs(), 200.0);
        assert_eq!(c.job(late).unwrap().start_time.unwrap().as_secs(), 450.0);
    }

    #[test]
    fn decommission_kills_running_and_queued_for_good() {
        let (mut sim, c) = idle_cluster(16);
        let running = c.submit(&mut sim, JobRequest::background(8, d(500.0), d(600.0)));
        let queued = c.submit(&mut sim, JobRequest::background(16, d(50.0), d(100.0)));
        sim.schedule_at(SimTime::from_secs(100.0), |_| {});
        sim.run_until(SimTime::from_secs(100.0));
        let seen = Rc::new(RefCell::new(None));
        let slot = Rc::clone(&seen);
        c.watch(queued, move |_sim, s| *slot.borrow_mut() = Some(s));
        c.decommission(&mut sim);
        // Both jobs die at the decommission instant; the queued job's
        // watcher hears about it.
        assert_eq!(c.job_state(running), Some(JobState::Killed));
        assert_eq!(c.job_state(queued), Some(JobState::Killed));
        assert_eq!(*seen.borrow(), Some(JobState::Killed));
        assert_eq!(c.job(queued).unwrap().end_time.unwrap().as_secs(), 100.0);
        // The machine never comes back: a late submission never starts.
        let late = c.submit(&mut sim, JobRequest::background(4, d(10.0), d(20.0)));
        sim.run_to_completion();
        assert_eq!(c.job_state(late), Some(JobState::Queued));
        assert!(c.is_down(sim.now()));
    }

    #[test]
    fn outage_after_decommission_is_a_noop() {
        // A transient outage on a decommissioned machine must not schedule
        // the end-of-window wake-up at t = ∞ — stepping to it would pin
        // the clock at infinity.
        let (mut sim, c) = idle_cluster(16);
        c.decommission(&mut sim);
        c.inject_outage(&mut sim, d(300.0), true);
        sim.run_to_completion();
        assert!(
            sim.now().as_secs().is_finite(),
            "clock ran to {:?}",
            sim.now()
        );
        assert!(c.is_down(sim.now()));
    }

    #[test]
    fn overlapping_outage_windows_extend() {
        let (mut sim, c) = idle_cluster(16);
        c.inject_outage(&mut sim, d(100.0), true);
        sim.schedule_at(SimTime::from_secs(60.0), |_| {});
        sim.run_until(SimTime::from_secs(60.0));
        c.inject_outage(&mut sim, d(100.0), true);
        let job = c.submit(&mut sim, JobRequest::background(4, d(10.0), d(20.0)));
        sim.run_to_completion();
        assert_eq!(c.job(job).unwrap().start_time.unwrap().as_secs(), 160.0);
    }

    #[test]
    fn deterministic_background_given_seed() {
        let run = |seed: u64| {
            let mut cfg = ClusterConfig::test("det", 256);
            cfg.workload = Some(WorkloadConfig::production_like());
            let mut sim = Simulation::new(seed);
            let c = Cluster::new(cfg);
            c.install(&mut sim);
            sim.run_until(SimTime::from_secs(24.0 * 3600.0));
            let m = c.metrics(sim.now());
            (m.queued_jobs, m.free_cores, sim.events_processed())
        };
        assert_eq!(run(5), run(5));
    }
}
