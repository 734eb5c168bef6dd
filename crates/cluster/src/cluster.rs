//! The simulated HPC resource.
//!
//! A [`Cluster`] is a cheaply-cloneable handle (`Rc<RefCell<_>>`) to the
//! resource state, designed to be captured by simulation callbacks. It
//! combines:
//!
//! * a batch queue driven by a [`SchedulingPolicy`],
//! * core accounting with conservative walltime enforcement,
//! * a background-workload feed that keeps the machine realistically busy;
//!   the jobs it generates leave the job table when they end, so the
//!   table holds the live jobs plus the ids [`Cluster::submit`] handed
//!   out,
//! * the introspection surface the Bundle abstraction queries (metrics,
//!   queue composition, start-time estimation, wait history),
//! * [`warm_up`], which runs a fresh pool's own events up to the
//!   submission instant off the engine and hands the rest to it.

use crate::job::{Job, JobId, JobOwner, JobRequest, JobState};
use crate::policy::{select_starts, QueuedJobView, SchedulingPolicy};
use crate::profile::AvailabilityProfile;
use aimes_sim::{EventId, Fact, Observers, SimDuration, SimTime, Simulation, TraceLine};
use aimes_workload::{BackgroundWorkload, WorkloadConfig};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

mod warmup;

pub use warmup::warm_up;
use warmup::WarmQueue;

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

    /// Reject a config the cluster would panic or hang on: zero
    /// `total_cores`, no queue, two queues of one name, or a negative or
    /// non-finite `initial_backlog_factor` (an infinite one asks for an
    /// unbounded initial backlog). A deserialized config reaches
    /// [`Cluster::new`] unchecked otherwise.
    pub fn validate(&self) -> Result<(), String> {
        if self.total_cores == 0 {
            return Err("total_cores must be positive".into());
        }
        if self.queues.is_empty() {
            return Err("needs at least one queue".into());
        }
        for (i, queue) in self.queues.iter().enumerate() {
            if self.queues[..i].iter().any(|q| q.name == queue.name) {
                return Err(format!(
                    "queue names must be distinct; `{}` repeats",
                    queue.name
                ));
            }
        }
        let backlog = self.initial_backlog_factor;
        if !(backlog.is_finite() && backlog >= 0.0) {
            return Err(format!(
                "initial_backlog_factor {backlog} must be finite and non-negative"
            ));
        }
        Ok(())
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

/// Hashes a [`JobId`] with one multiply. The cluster hands its ids out
/// itself and never iterates the maps keyed by them, so neither flooding
/// nor iteration order is a concern, and SipHash's cost buys nothing.
#[derive(Default)]
struct JobIdHasher(u64);

impl Hasher for JobIdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a JobId hashes as one u64");
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by job id, hashed by [`JobIdHasher`].
type JobMap<V> = HashMap<JobId, V, BuildHasherDefault<JobIdHasher>>;

/// What a cluster schedules for itself: the next background arrival, a
/// deferred dispatch pass and a running job's completion.
/// [`Cluster::fire`] runs each, whether the engine or a pre-submission
/// [`warm_up`] carries it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum ClusterEvent {
    Arrival,
    Dispatch,
    Completion(JobId),
}

/// A job in the table, with where it came from.
struct Tracked {
    job: Job,
    /// Generated by the cluster itself (initial backlog, background
    /// arrivals, trace replay): no caller holds its id, so the table
    /// forgets it once it ends.
    generated: bool,
}

struct ClusterState {
    config: ClusterConfig,
    /// The live jobs, and every job [`Cluster::submit`] handed an id out
    /// for; generated jobs leave at their terminal transition.
    jobs: JobMap<Tracked>,
    /// Queued jobs in scheduler order (see [`QueueKey`]), each with the
    /// policy's view of it, so a pass walks the queue in place.
    queue: BTreeMap<QueueKey, QueuedJobView>,
    /// Running job ids (iteration is JobId-sorted, hence deterministic)
    /// with their completion events on the engine; `None` while the
    /// completion sits on a warm-up queue.
    running: BTreeMap<JobId, Option<EventId>>,
    /// The running jobs' cores keyed by walltime deadline (ties broken by
    /// id): when each allocation comes back at the latest, in the order a
    /// pass needs it.
    releases: BTreeMap<(SimTime, JobId), u32>,
    free_cores: u32,
    next_job_id: u64,
    background: Option<BackgroundWorkload>,
    // Time-weighted utilization accounting.
    busy_core_secs: f64,
    last_change: SimTime,
    // Recent job-start records for predictive bundle queries.
    wait_history: VecDeque<WaitRecord>,
    // Per-job state-change subscribers (the SAGA layer registers here).
    watchers: JobMap<Rc<Observers<JobState>>>,
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
    /// Incrementally maintained sum of cores requested by queued jobs.
    queued_cores: u64,
    /// `estimate_wait` memo; invalidated by epoch/instant mismatch.
    est_cache: Option<EstCache>,
    /// While a [`warm_up`] runs: the pool's warm-up queue and this
    /// cluster's index in the pool. [`Cluster::post`] queues there
    /// instead of on the engine.
    warming: Option<(Rc<RefCell<WarmQueue>>, usize)>,
    // --- dispatch-pass buffers, cleared and reused by every pass ---
    /// The policy's start ids.
    starts: Vec<JobId>,
    /// EASY backfill's phase-1 ends.
    ends: Vec<(SimTime, u32)>,
    /// The jobs a pass started, with their completion instants.
    started: Vec<(JobId, SimTime)>,
}

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

    fn job(&self, id: JobId) -> &Job {
        &self.jobs[&id].job
    }

    /// Mark a scheduling-relevant state change: bumps the epoch, so
    /// no-change dispatches and stale `estimate_wait` memos are detected.
    fn touch(&mut self) {
        self.sched_epoch += 1;
    }

    /// The release index as `(deadline, cores)`, soonest first. The
    /// policy inputs come from the BTreeMaps only: no `HashMap` iteration
    /// order may reach scheduler inputs, traces, or journals (it varies
    /// with the per-process hash seed, which would make same-seed runs
    /// diverge).
    fn release_iter(&self) -> impl Iterator<Item = (SimTime, u32)> + '_ {
        self.releases.iter().map(|(&(at, _), &cores)| (at, cores))
    }

    /// Test builds check every pass against the profile-based oracle. A
    /// queue holding a 0 s job is exempt: the pass holds such a start's
    /// cores at `now`, the oracle's profile does not (and oversubscribed).
    #[cfg(test)]
    fn check_against_oracle(&self, now: SimTime, ids: &[JobId]) {
        if self.queue.values().any(|j| j.walltime == SimDuration::ZERO) {
            return;
        }
        let releases: Vec<(SimTime, u32)> = self.release_iter().collect();
        let queue: Vec<QueuedJobView> = self.queue.values().copied().collect();
        let want = crate::policy::oracle::select_starts(
            self.config.policy,
            now,
            self.free_cores,
            &releases,
            &queue,
        );
        assert_eq!(ids, want, "pass diverged from the profile oracle");
    }

    /// First half of a job's retirement, under the borrow: move a live
    /// job to the terminal state `end` at `now` and give back what it
    /// held — its queue slot and queued cores, or its cores, release
    /// entry and completion event. Returns a running job's completion
    /// event; the caller cancels it unless it is the one firing. Only a
    /// completion ends a job during a warm-up, so a running job settled
    /// by anything else always has its event on the engine.
    fn settle(&mut self, id: JobId, end: JobState, now: SimTime) -> Option<EventId> {
        let job = &mut self.jobs.get_mut(&id).expect("job exists").job;
        assert!(
            job.state.can_transition_to(end),
            "illegal job transition {:?} -> {end:?} for {id}",
            job.state
        );
        let was = std::mem::replace(&mut job.state, end);
        job.end_time = Some(now);
        let cores = job.request.cores;
        let completion = match was {
            JobState::Queued => {
                self.queue
                    .remove(&(Reverse(job.queue_priority), id.0))
                    .expect("queued job is in the queue");
                self.queued_cores -= u64::from(cores);
                None
            }
            JobState::Running => {
                let deadline = job.walltime_deadline().expect("running job has start");
                self.accrue_busy(now);
                self.releases
                    .remove(&(deadline, id))
                    .expect("running job has a release");
                self.free_cores += cores;
                self.running
                    .remove(&id)
                    .expect("running job is in the running set")
            }
            _ => unreachable!("only a live job may end"),
        };
        self.touch();
        completion
    }
}

/// What a resource emits: batch-job transitions and availability
/// windows. Every job ticks its per-resource counter; only pilot jobs are
/// traced (background load would drown the trace).
enum ClusterFact<'a> {
    /// A job just entered its current state.
    Job(&'a ClusterState, JobId),
    /// An outage (`kill_running`) or drain window of `window` began.
    Outage {
        cluster: &'a str,
        window: SimDuration,
        kill_running: bool,
    },
    /// The resource left service for good.
    Decommission { cluster: &'a str },
}

impl Fact for ClusterFact<'_> {
    fn trace(&self) -> Option<TraceLine> {
        Some(match *self {
            ClusterFact::Job(st, id) => {
                let job = st.job(id);
                if job.request.owner != JobOwner::Pilot {
                    return None;
                }
                (
                    format!("cluster.{}.{id}", st.config.name),
                    job.state.name(),
                    job.request.tag.clone(),
                )
            }
            ClusterFact::Outage {
                cluster,
                window,
                kill_running,
            } => (
                format!("cluster.{cluster}"),
                if kill_running { "Outage" } else { "Drain" },
                format!("{:.0}s window", window.as_secs()),
            ),
            ClusterFact::Decommission { cluster } => (
                format!("cluster.{cluster}"),
                "Decommission",
                "permanent loss".into(),
            ),
        })
    }

    fn counter(&self) -> Option<String> {
        let ClusterFact::Job(st, id) = *self else {
            return None;
        };
        let which = match st.job(id).state {
            JobState::Queued => "jobs_submitted",
            JobState::Running => "jobs_dispatched",
            JobState::Completed => "jobs_completed",
            JobState::Killed => "jobs_killed",
            JobState::Cancelled => "jobs_cancelled",
        };
        Some(format!("cluster.{}.{which}", st.config.name))
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
    /// load to a simulation. Panics on a config
    /// [`ClusterConfig::validate`] rejects.
    pub fn new(config: ClusterConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid cluster config for {}: {e}", config.name);
        }
        let state = ClusterState {
            free_cores: config.total_cores,
            config,
            jobs: JobMap::default(),
            queue: BTreeMap::new(),
            running: BTreeMap::new(),
            next_job_id: 0,
            background: None,
            busy_core_secs: 0.0,
            last_change: SimTime::ZERO,
            wait_history: VecDeque::new(),
            watchers: JobMap::default(),
            dispatch_scheduled: false,
            down_until: None,
            sched_epoch: 1,
            last_dispatch_epoch: 0,
            releases: BTreeMap::new(),
            queued_cores: 0,
            est_cache: None,
            warming: None,
            starts: Vec::new(),
            ends: Vec::new(),
            started: Vec::new(),
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
            self.enter(sim, req, true);
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
                this.enter(sim, req, true);
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
        let at = arrival.max(sim.now());
        self.post(sim, at, ClusterEvent::Arrival);
    }

    /// Schedule `ev` at `at`: on the pool's queue while a [`warm_up`]
    /// runs, on the engine otherwise. Returns the engine's handle, which
    /// a completion keeps so that a kill or cancel can revoke it.
    fn post(&self, sim: &mut Simulation, at: SimTime, ev: ClusterEvent) -> Option<EventId> {
        if let Some((queue, index)) = &self.inner.borrow().warming {
            queue.borrow_mut().push(at, *index, ev);
            return None;
        }
        let this = self.clone();
        Some(sim.schedule_at(at, move |sim| this.fire(sim, ev)))
    }

    /// Run one of the cluster's own events.
    fn fire(&self, sim: &mut Simulation, ev: ClusterEvent) {
        match ev {
            ClusterEvent::Arrival => {
                let job = {
                    let mut st = self.inner.borrow_mut();
                    st.background
                        .as_mut()
                        .expect("background exists")
                        .next_job()
                };
                let req = self.clamp_to_default_queue(JobRequest::background(
                    job.cores,
                    job.runtime,
                    job.walltime_request,
                ));
                self.enter(sim, req, true);
                self.schedule_next_background(sim);
            }
            ClusterEvent::Dispatch => {
                self.inner.borrow_mut().dispatch_scheduled = false;
                self.dispatch(sim);
            }
            ClusterEvent::Completion(id) => self.on_completion(sim, id),
        }
    }

    /// Submit a job. Panics if the request exceeds the machine (real batch
    /// systems reject those at submission too — callers must size pilots to
    /// the resource, which the Execution Manager does via bundle data).
    /// The returned id stays answerable by [`Cluster::job`],
    /// [`Cluster::job_state`] and [`Cluster::cancel`] after the job ends.
    pub fn submit(&self, sim: &mut Simulation, request: JobRequest) -> JobId {
        self.enter(sim, request, false)
    }

    /// Queue a job. A `generated` job — one the cluster makes itself,
    /// whose id nobody holds — leaves the table when it ends.
    fn enter(&self, sim: &mut Simulation, request: JobRequest, generated: bool) -> JobId {
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
            // Priority insertion: ahead of strictly lower-priority jobs,
            // behind equal priority (stable FIFO within a queue class) —
            // the QueueKey ordering, since ids grow monotonically.
            st.queued_cores += u64::from(job.request.cores);
            let view = QueuedJobView {
                id,
                cores: job.request.cores,
                walltime: job.request.walltime_request,
            };
            st.jobs.insert(id, Tracked { job, generated });
            st.queue.insert((Reverse(priority), id.0), view);
            st.touch();
            sim.emit(&ClusterFact::Job(&st, id));
            id
        };
        self.record_usage_gauges(sim);
        self.schedule_dispatch(sim);
        id
    }

    /// Cancel a job (queued or running). Returns true if it was live.
    pub fn cancel(&self, sim: &mut Simulation, id: JobId) -> bool {
        let completion = {
            let mut st = self.inner.borrow_mut();
            let live = st.jobs.get(&id).is_some_and(|t| !t.job.state.is_terminal());
            if !live {
                return false;
            }
            st.settle(id, JobState::Cancelled, sim.now())
        };
        self.record_usage_gauges(sim);
        self.announce(sim, id, JobState::Cancelled, completion);
        self.schedule_dispatch(sim);
        true
    }

    /// Second half of a job's retirement, after [`ClusterState::settle`]:
    /// cancel its pending completion event, emit the fact, notify the
    /// watchers, then forget the job if the cluster generated it. Every
    /// terminal path ends here, so none can keep a generated record.
    fn announce(
        &self,
        sim: &mut Simulation,
        id: JobId,
        end: JobState,
        completion: Option<EventId>,
    ) {
        if let Some(ev) = completion {
            sim.cancel(ev);
        }
        sim.emit(&ClusterFact::Job(&self.inner.borrow(), id));
        self.notify(sim, id, end);
        let mut st = self.inner.borrow_mut();
        let Entry::Occupied(tracked) = st.jobs.entry(id) else {
            unreachable!("{id} stays in the table until it is announced");
        };
        if tracked.get().generated {
            tracked.remove();
        }
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
        let now = sim.now();
        self.post(sim, now, ClusterEvent::Dispatch);
    }

    /// Run the scheduling policy and start whatever it selects.
    ///
    /// Incremental: a pass that cannot change anything — nothing happened
    /// since the last completed pass, the queue is empty, or no cores are
    /// free (no policy can start a job on zero free cores) — returns
    /// without consulting the policy. Otherwise the policy walks the queue
    /// and the release index in place. The pass's lists live in the
    /// state's reused buffers, so a pass allocates nothing once they have
    /// grown.
    fn dispatch(&self, sim: &mut Simulation) {
        let _prof = sim.profiler().scope("cluster.scheduler");
        let now = sim.now();
        let started = {
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
            let st = &mut *st;
            let mut ids = std::mem::take(&mut st.starts);
            let mut ends = std::mem::take(&mut st.ends);
            select_starts(
                st.config.policy,
                now,
                st.free_cores,
                st.release_iter(),
                st.queue.values(),
                &mut ids,
                &mut ends,
            );
            st.ends = ends;
            #[cfg(test)]
            st.check_against_oracle(now, &ids);
            if ids.is_empty() {
                // The pass examined exactly this epoch's state and found
                // nothing to start; until something changes, every further
                // dispatch is a no-op.
                st.last_dispatch_epoch = st.sched_epoch;
                st.starts = ids;
                return;
            }
            // Starts mutate the state (epoch moves on), so the next
            // dispatch re-runs the policy — which is correct: it will be
            // triggered only by a further state change. Every start is at
            // `now`, so one accrual covers them all.
            st.accrue_busy(now);
            let mut started = std::mem::take(&mut st.started);
            started.clear();
            for &id in &ids {
                let job = &mut st.jobs.get_mut(&id).expect("started job exists").job;
                let cores = job.request.cores;
                assert!(st.free_cores >= cores, "policy oversubscribed cores");
                st.free_cores -= cores;
                st.queue
                    .remove(&(Reverse(job.queue_priority), id.0))
                    .expect("started job was queued");
                st.queued_cores -= u64::from(cores);
                assert!(
                    job.state.can_transition_to(JobState::Running),
                    "illegal job transition {:?} -> Running for {id}",
                    job.state
                );
                job.state = JobState::Running;
                job.start_time = Some(now);
                let deadline = job.walltime_deadline().expect("just started");
                let end = now + job.occupancy();
                st.wait_history.push_back(WaitRecord {
                    started_at: now,
                    wait: job.queue_wait(now),
                    cores,
                });
                if st.wait_history.len() > 1024 {
                    st.wait_history.pop_front();
                }
                st.releases.insert((deadline, id), cores);
                st.touch();
                started.push((id, end));
            }
            st.starts = ids;
            started
        };
        for &(id, end) in &started {
            sim.emit(&ClusterFact::Job(&self.inner.borrow(), id));
            let ev = self.post(sim, end, ClusterEvent::Completion(id));
            {
                let mut st = self.inner.borrow_mut();
                st.running.insert(id, ev);
                st.touch();
            }
            self.notify(sim, id, JobState::Running);
        }
        self.inner.borrow_mut().started = started;
        self.record_usage_gauges(sim);
    }

    fn on_completion(&self, sim: &mut Simulation, id: JobId) {
        let _prof = sim.profiler().scope("cluster.scheduler");
        let end = {
            let mut st = self.inner.borrow_mut();
            let request = &st.job(id).request;
            let end = if request.runtime > request.walltime_request {
                JobState::Killed
            } else {
                JobState::Completed
            };
            // The completion event is the one firing: nothing to cancel.
            st.settle(id, end, sim.now());
            end
        };
        self.record_usage_gauges(sim);
        self.announce(sim, id, end, None);
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
        sim.emit(&ClusterFact::Outage {
            cluster: &name,
            window: duration,
            kill_running,
        });
        if kill_running {
            self.kill_running_jobs(sim);
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
        let (name, queued) = {
            let mut st = self.inner.borrow_mut();
            st.down_until = Some(SimTime::from_secs(f64::INFINITY));
            // Queue order (priority, then FIFO): the order submitters are
            // notified in.
            let queued: Vec<JobId> = st.queue.values().map(|view| view.id).collect();
            st.touch();
            for &id in &queued {
                st.settle(id, JobState::Killed, sim.now());
            }
            (st.config.name.clone(), queued)
        };
        sim.emit(&ClusterFact::Decommission { cluster: &name });
        self.kill_running_jobs(sim);
        self.record_usage_gauges(sim);
        for id in queued {
            self.announce(sim, id, JobState::Killed, None);
        }
    }

    /// Kill every running job: settle all victims first, under one
    /// borrow, so every watcher sees the post-kill state; then announce
    /// each re-entrancy-safely.
    fn kill_running_jobs(&self, sim: &mut Simulation) {
        let victims: Vec<(JobId, Option<EventId>)> = {
            let mut st = self.inner.borrow_mut();
            // BTreeMap keys are JobId-sorted: deterministic kill (and
            // watcher-notification) order.
            let ids: Vec<JobId> = st.running.keys().copied().collect();
            ids.into_iter()
                .map(|id| (id, st.settle(id, JobState::Killed, sim.now())))
                .collect()
        };
        for (id, completion) in victims {
            self.announce(sim, id, JobState::Killed, completion);
        }
        self.record_usage_gauges(sim);
    }

    /// Is the resource inside an outage/drain window at `now`?
    #[cfg(test)]
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
    pub fn watch(&self, id: JobId, cb: impl FnMut(&mut Simulation, &JobState) + 'static) {
        let mut st = self.inner.borrow_mut();
        st.watchers.entry(id).or_default().add(cb);
    }

    /// Drop the watchers of jobs still live and what they captured (run
    /// teardown).
    pub fn clear_callbacks(&self) {
        self.inner.borrow_mut().watchers.clear();
    }

    fn notify(&self, sim: &mut Simulation, id: JobId, state: JobState) {
        let Some(ws) = self.inner.borrow().watchers.get(&id).cloned() else {
            return;
        };
        ws.fire(sim, &state);
        if state.is_terminal() {
            self.inner.borrow_mut().watchers.remove(&id);
        }
    }

    /// Current state of a job: of any job [`Cluster::submit`] returned
    /// the id of, ended or not, and of a job the cluster generated itself
    /// (background load, trace replay) only while it is queued or
    /// running.
    pub fn job_state(&self, id: JobId) -> Option<JobState> {
        self.inner.borrow().jobs.get(&id).map(|t| t.job.state)
    }

    /// Full job record (cloned), for the same ids as
    /// [`Cluster::job_state`].
    pub fn job(&self, id: JobId) -> Option<Job> {
        self.inner.borrow().jobs.get(&id).map(|t| t.job.clone())
    }

    /// Jobs in the table.
    #[cfg(test)]
    fn table_len(&self) -> usize {
        self.inner.borrow().jobs.len()
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
            let releases: Vec<(SimTime, u32)> = st.release_iter().collect();
            let mut profile = AvailabilityProfile::new(origin, st.free_cores, &releases);
            for j in st.queue.values() {
                if let Some(start) = profile.earliest_fit(j.cores, j.walltime, origin) {
                    profile.reserve(start, j.walltime, j.cores);
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
    use proptest::prelude::*;

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
    fn zero_walltime_start_holds_its_cores() {
        // Two whole-machine jobs at t=0, the first with a 0 s walltime.
        // The 0 s job holds all 8 cores at its start instant, so the
        // second waits for its completion instead of oversubscribing.
        let (mut sim, c) = idle_cluster(8);
        let a = c.submit(&mut sim, JobRequest::background(8, d(0.0), d(0.0)));
        let b = c.submit(&mut sim, JobRequest::background(8, d(10.0), d(10.0)));
        sim.run_to_completion();
        assert_eq!(c.job_state(a), Some(JobState::Completed));
        assert_eq!(c.job_state(b), Some(JobState::Completed));
        assert_eq!(c.job(b).unwrap().end_time.unwrap().as_secs(), 10.0);
        assert_eq!(c.metrics(sim.now()).free_cores, 8);
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
    fn decommission_traces_and_counts_queued_pilot_jobs_as_killed() {
        let (mut sim, c) = idle_cluster(8);
        let metrics = aimes_sim::MetricsRegistry::new();
        sim.attach_metrics(metrics.clone());
        let running = c.submit(&mut sim, JobRequest::pilot(8, d(600.0), "pilot.a"));
        let queued = c.submit(&mut sim, JobRequest::pilot(8, d(600.0), "pilot.b"));
        sim.run_until(SimTime::from_secs(10.0));
        assert_eq!(c.job_state(queued), Some(JobState::Queued));
        c.decommission(&mut sim);
        for id in [running, queued] {
            assert_eq!(c.job_state(id), Some(JobState::Killed));
            let evs = sim.tracer().for_component(&format!("cluster.testres.{id}"));
            assert_eq!(
                evs.last().map(|e| e.event.as_str()),
                Some("Killed"),
                "{id}: {evs:?}"
            );
        }
        assert_eq!(metrics.summary().counters["cluster.testres.jobs_killed"], 2);
    }

    #[test]
    fn public_jobs_answer_after_every_ending() {
        // A request of either owner whose runtime is `runtime` within a
        // `walltime` request.
        let request = |owner: JobOwner, cores: u32, runtime: f64, walltime: f64| {
            let mut req = JobRequest::background(cores, d(runtime), d(walltime));
            req.owner = owner;
            req
        };
        for owner in [JobOwner::Background, JobOwner::Pilot] {
            let (mut sim, c) = idle_cluster(16);
            let completed = c.submit(&mut sim, request(owner, 4, 50.0, 100.0));
            let walltime = c.submit(&mut sim, request(owner, 4, 300.0, 100.0));
            let run_cancel = c.submit(&mut sim, request(owner, 4, 500.0, 600.0));
            let blocker = c.submit(&mut sim, request(owner, 4, 500.0, 600.0));
            let queue_cancel = c.submit(&mut sim, request(owner, 16, 50.0, 100.0));
            sim.run_until(SimTime::from_secs(200.0));
            assert!(c.cancel(&mut sim, run_cancel));
            assert!(c.cancel(&mut sim, queue_cancel));
            c.inject_outage(&mut sim, d(10.0), true);
            sim.run_until(SimTime::from_secs(300.0));
            let dec_running = c.submit(&mut sim, request(owner, 16, 500.0, 600.0));
            let dec_queued = c.submit(&mut sim, request(owner, 16, 500.0, 600.0));
            sim.run_until(SimTime::from_secs(310.0));
            assert_eq!(c.job_state(dec_running), Some(JobState::Running));
            c.decommission(&mut sim);
            sim.run_to_completion();
            for (id, end, how) in [
                (completed, JobState::Completed, "completion"),
                (walltime, JobState::Killed, "walltime kill"),
                (run_cancel, JobState::Cancelled, "cancel while running"),
                (queue_cancel, JobState::Cancelled, "cancel while queued"),
                (blocker, JobState::Killed, "outage kill"),
                (dec_running, JobState::Killed, "decommission (running)"),
                (dec_queued, JobState::Killed, "decommission (queued)"),
            ] {
                assert_eq!(c.job_state(id), Some(end), "{owner:?}: {how}");
                let job = c.job(id).expect("public job stays answerable");
                assert_eq!(job.state, end, "{owner:?}: {how}");
                assert!(job.end_time.is_some(), "{owner:?}: {how}");
                assert!(!c.cancel(&mut sim, id), "{owner:?}: {how} then cancel");
            }
        }
    }

    #[test]
    fn generated_jobs_leave_the_table() {
        let mut cfg = ClusterConfig::test("gen", 2048);
        cfg.workload = Some(WorkloadConfig::production_like());
        cfg.initial_backlog_factor = 2.0;
        let mut sim = Simulation::new(11);
        let c = Cluster::new(cfg);
        c.install(&mut sim);
        let public = [
            c.submit(&mut sim, JobRequest::background(4, d(60.0), d(120.0))),
            c.submit(&mut sim, JobRequest::pilot(8, d(600.0), "pilot.gen")),
        ];
        sim.run_until(SimTime::from_secs(48.0 * 3600.0));
        let m = c.metrics(sim.now());
        for id in public {
            assert!(c.job_state(id).is_some_and(JobState::is_terminal), "{id}");
        }
        assert_eq!(c.table_len(), m.queued_jobs + m.running_jobs + public.len());
        // Hundreds of generated jobs have come and gone.
        let issued = c.inner.borrow().next_job_id as usize;
        assert!(issued > 10 * c.table_len(), "{issued} ids issued");
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

    fn rejects(cfg: ClusterConfig, want: &str) {
        let err = cfg.validate().unwrap_err();
        assert!(err.contains(want), "{err}");
    }

    #[test]
    fn validate_accepts_the_shipped_configs() {
        assert_eq!(ClusterConfig::test("ok", 8).validate(), Ok(()));
        for spec in crate::catalog::paper_testbed() {
            assert_eq!(spec.config.validate(), Ok(()), "{}", spec.config.name);
        }
    }

    #[test]
    fn validate_rejects_zero_cores() {
        rejects(
            ClusterConfig::test("none", 0),
            "total_cores must be positive",
        );
    }

    #[test]
    fn validate_rejects_an_empty_queue_list() {
        let mut cfg = ClusterConfig::test("noq", 8);
        cfg.queues.clear();
        rejects(cfg, "at least one queue");
    }

    #[test]
    fn validate_rejects_duplicate_queue_names() {
        let mut cfg = ClusterConfig::test("dup", 8);
        cfg.queues = vec![
            QueueConfig::normal(),
            QueueConfig::debug(d(60.0), 4),
            QueueConfig::normal(),
        ];
        rejects(cfg, "`normal` repeats");
    }

    #[test]
    fn validate_rejects_a_negative_or_non_finite_backlog() {
        for backlog in [-0.5, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut cfg = ClusterConfig::test("backlog", 8);
            cfg.initial_backlog_factor = backlog;
            rejects(cfg, "initial_backlog_factor");
        }
    }

    #[test]
    fn watcher_sees_running_then_terminal() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let (mut sim, c) = idle_cluster(8);
        let seen = Rc::new(RefCell::new(vec![]));
        let id = c.submit(&mut sim, JobRequest::background(8, d(60.0), d(120.0)));
        let s2 = seen.clone();
        c.watch(id, move |_sim, &st| s2.borrow_mut().push(st));
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
        c.watch(id, move |_sim, &st| s2.borrow_mut().push(st));
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
        c.watch(id, move |_sim, &st| s2.borrow_mut().push(st));
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
        c.watch(id, move |sim, &st| {
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
        let starts: Vec<(f64, u32)> = c
            .wait_history()
            .iter()
            .map(|w| (w.started_at.as_secs(), w.cores))
            .collect();
        assert_eq!(starts, vec![(10.0, 16), (110.0, 8)]);
        // Job 2 completes at its 50 s runtime: a walltime kill would end
        // the run at 170 s.
        assert_eq!(sim.now().as_secs(), 160.0);
        let m = c.metrics(sim.now());
        assert_eq!((m.running_jobs, m.queued_jobs, m.free_cores), (0, 0, 16));
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
        c.watch(victim, move |_sim, &s| *slot.borrow_mut() = Some(s));
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
        c.watch(queued, move |_sim, &s| *slot.borrow_mut() = Some(s));
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

    /// One scripted operation on a 32-core machine.
    #[derive(Clone, Debug)]
    enum Op {
        Submit {
            cores: u32,
            runtime: f64,
            walltime: f64,
        },
        /// Cancel the job with this id, if it exists and is live.
        Cancel(u64),
        Outage(f64),
        Drain(f64),
        Decommission,
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u32..20, 1u32..=32, 0u32..=400, 1u32..=400, 0u64..40).prop_map(
            |(kind, cores, runtime, walltime, id)| match kind {
                0..=11 => Op::Submit {
                    cores,
                    runtime: f64::from(runtime),
                    walltime: f64::from(walltime),
                },
                12..=15 => Op::Cancel(id),
                16 | 17 => Op::Outage(f64::from(walltime)),
                18 => Op::Drain(f64::from(walltime)),
                _ => Op::Decommission,
            },
        )
    }

    /// The release index equals a rebuild from the running set.
    fn releases_match_running(c: &Cluster) -> Result<(), String> {
        let st = c.inner.borrow();
        let rebuilt: BTreeMap<(SimTime, JobId), u32> = st
            .running
            .keys()
            .map(|id| {
                let j = st.job(*id);
                (
                    (j.walltime_deadline().expect("running"), *id),
                    j.request.cores,
                )
            })
            .collect();
        if st.releases == rebuilt {
            Ok(())
        } else {
            Err(format!("index {:?} != rebuilt {rebuilt:?}", st.releases))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random submit/cancel/outage/drain/decommission sequences, with
        /// every dispatch pass checked against the profile oracle (test
        /// builds do so in `dispatch`) and the release index checked
        /// against a rebuild after every event. Walltimes are at least 1 s
        /// (see `check_against_oracle`).
        #[test]
        fn prop_release_index_tracks_running_jobs(
            ops in proptest::collection::vec((0u32..=600, op()), 1..=40),
            easy in any::<bool>(),
        ) {
            let mut cfg = ClusterConfig::test("prop", 32);
            if !easy {
                cfg.policy = SchedulingPolicy::Fcfs;
            }
            let mut sim = Simulation::with_tracer(3, aimes_sim::Tracer::disabled());
            let c = Cluster::new(cfg);
            for (at, op) in ops {
                let c = c.clone();
                sim.schedule_at(SimTime::from_secs(f64::from(at)), move |sim| match op {
                    Op::Submit { cores, runtime, walltime } => {
                        c.submit(sim, JobRequest::background(cores, d(runtime), d(walltime)));
                    }
                    Op::Cancel(id) => {
                        c.cancel(sim, JobId(id));
                    }
                    Op::Outage(secs) => c.inject_outage(sim, d(secs), true),
                    Op::Drain(secs) => c.inject_outage(sim, d(secs), false),
                    Op::Decommission => c.decommission(sim),
                });
            }
            while sim.step() {
                releases_match_running(&c)?;
            }
            let m = c.metrics(sim.now());
            prop_assert_eq!(m.running_jobs, 0);
            prop_assert_eq!(m.free_cores, 32);
        }
    }
}
