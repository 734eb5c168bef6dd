//! One end-to-end application execution through the integrated middleware.
//!
//! Mirrors Figure 1: the skeleton API describes the application (1), the
//! bundle API describes the resources (2a/2b), the Execution Manager
//! derives a strategy (3), pilots are described via the pilot system (4)
//! and scheduled via the SAGA layer (5), and units are executed on active
//! pilots with input/output staging (6). All pilots are cancelled when the
//! application completes "so as not to waste resources".

use crate::journal::{JournalEvent, RunJournal, Verdict};
use crate::recorder::{FlightRecorder, DEFAULT_RECORDER_CAPACITY};
use crate::ttc::{decompose, interval_union, salvage_split, TtcBreakdown};
use aimes_bundle::{Bundle, InfoChannel, InfoConfig, InfoDisposition};
use aimes_cluster::{Cluster, ClusterConfig};
use aimes_fault::{
    DetectionSpec, FaultSchedule, FaultSpec, InfoOutcome, OutageKind, RecoveryPolicy,
};
use aimes_pilot::{
    ComputeUnit, DetectionMode, DetectionPolicy, DetectorEvent, Pilot, PilotId, PilotManager,
    PilotRecovery, PilotState, SalvageEvent, UnitManager, UnitManagerStats, UnitState,
};
use aimes_saga::{BreakerConfig, JobService, Session};
use aimes_sim::{
    ManagerPhase, MetricsSummary, Profiler, SimDuration, SimRng, SimTime, Simulation, Span,
    Telemetry, Tracer,
};
use aimes_skeleton::{SkeletonApp, SkeletonConfig};
use aimes_strategy::{ExecutionManager, ExecutionPlan, ExecutionStrategy, ResourceSelection};
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::rc::Rc;

/// Options for one run.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Experiment seed: drives background load, skeleton sampling,
    /// submission jitter, resource selection.
    pub seed: u64,
    /// When the application is handed to the middleware (the paper ran
    /// applications "at irregular intervals so as to avoid effects of
    /// short-term resource load patterns"); the experiment layer draws
    /// this from a window per repetition.
    pub submit_at: SimTime,
    /// Hard cap on simulated time after submission (runaway guard).
    pub deadline: SimDuration,
    /// Record a full trace (costs memory; off for sweeps).
    pub trace: bool,
    /// Deterministic fault model, compiled against the run seed. `None`
    /// (the default) injects nothing and leaves every event stream
    /// byte-identical to a build without fault support.
    pub faults: Option<FaultSpec>,
    /// Self-healing policy. `None` (the default) keeps the legacy
    /// behaviour: failed pilots stay dead, unit retries are immediate,
    /// and a lost resource is never re-planned around.
    pub recovery: Option<RecoveryPolicy>,
    /// Crash-consistent run journal: when set, every binding decision,
    /// state transition, detector verdict, breaker trip, and re-plan is
    /// appended here as it happens. Feeds [`resume_application`].
    pub journal: Option<Rc<RefCell<RunJournal>>>,
    /// Kill the run this long after submission (simulating a middleware
    /// crash): the run returns [`RunError::Interrupted`] with whatever
    /// the journal has captured so far.
    pub interrupt_at: Option<SimDuration>,
    /// Typed telemetry: when set, the run records counters, gauges, and
    /// dwell histograms into this handle's registry, assembles pilot and
    /// unit spans at the end, and embeds a [`MetricsSummary`] in the
    /// result. `None` (the default) costs one branch per metric site and
    /// changes nothing observable.
    pub telemetry: Option<Telemetry>,
    /// Use this tracer (a cheap shared handle) instead of building one
    /// from [`RunOptions::trace`] — the way for a caller to keep hold of
    /// the trace and stream it out after the run.
    pub tracer: Option<Tracer>,
    /// Information-plane tuning (hot-pool size, refresh, staleness
    /// thresholds, fallback floor). The default is oracle-equivalent:
    /// every healthy query measures live, so fault-free runs are
    /// byte-identical to a build without the plane. Validated at run
    /// start ([`RunError::InvalidInfoConfig`]).
    pub info: InfoConfig,
    /// Flight-recorder ring capacity (always on; near-zero cost).
    /// Validated at run start ([`RunError::InvalidRecorderConfig`]).
    pub recorder_capacity: usize,
    /// Where to write checksummed flight-recorder snapshots when the run
    /// dies (any [`RunError`] return) or a pilot is Declared-Dead. `None`
    /// keeps the recorder purely in memory.
    pub recorder_dump_dir: Option<PathBuf>,
    /// Disambiguating tag for this run's flight-recorder dump filenames
    /// (`flight-{tag}-{seed}-{reason}.txt` instead of
    /// `flight-{seed}-{reason}.txt`). Parallel sweep arms deliberately
    /// share seeds (paired-seed design) and often share a dump dir; the
    /// tag keeps their post-mortems from overwriting each other.
    pub run_tag: Option<String>,
    /// Engine self-profiler (a cheap shared handle, like
    /// [`RunOptions::tracer`]): when set, the run attributes host wall
    /// time to engine dispatch, the cluster scheduler, pilot/unit
    /// managers, SAGA session, info plane, and middleware planning, and
    /// snapshots the engine's queue-health counters at every exit.
    /// Strictly passive — journals, traces, and results are bit-identical
    /// with or without it. `None` (the default) costs one branch per
    /// scope.
    pub profiler: Option<Profiler>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            seed: 0,
            submit_at: SimTime::from_secs(6.0 * 3600.0),
            deadline: SimDuration::from_hours(96.0),
            trace: false,
            faults: None,
            recovery: None,
            journal: None,
            interrupt_at: None,
            telemetry: None,
            tracer: None,
            info: InfoConfig::default(),
            recorder_capacity: DEFAULT_RECORDER_CAPACITY,
            recorder_dump_dir: None,
            run_tag: None,
            profiler: None,
        }
    }
}

/// Why a run could not deliver a [`RunResult`].
#[derive(Clone, Debug, PartialEq)]
pub enum RunError {
    /// No viable plan: resources do not qualify, unknown resource, empty
    /// pool. The message is the Execution Manager's verbatim explanation.
    Unplannable(String),
    /// The skeleton could not generate the application.
    Skeleton(String),
    /// The fault spec declares something it cannot mean (empty or
    /// inverted duration range, out-of-range bandwidth factor); running
    /// it would silently deviate from the declaration.
    InvalidFaultSpec(String),
    /// The information-plane config is unusable (empty hot pool,
    /// inverted staleness thresholds, non-positive fallback floor);
    /// running it would serve answers from a ladder whose rungs are out
    /// of order.
    InvalidInfoConfig(String),
    /// The flight-recorder config is unusable (zero capacity): the
    /// recorder would silently retain nothing.
    InvalidRecorderConfig(String),
    /// The recovery policy is self-contradictory (inverted backoff cap,
    /// zero blacklist threshold, empty alarm window); running it would
    /// silently clamp or disable what the caller declared.
    InvalidRecoveryPolicy(String),
    /// The unit-manager config derived for this run is unusable (zero
    /// attempts, inverted retry cap).
    InvalidUnitConfig(String),
    /// The simulated deadline passed with units still unfinished.
    DeadlineExceeded {
        n_tasks: u32,
        strategy_label: String,
        at: SimTime,
        stats: UnitManagerStats,
    },
    /// Every pilot died and nothing could replace them: the event queue
    /// drained with units still pending.
    PilotsDrained { stats: UnitManagerStats },
    /// A resource was lost permanently and the run could not complete
    /// without it (recovery disabled, or re-planning found no way out).
    ResourceLost {
        resource: String,
        stats: UnitManagerStats,
    },
    /// The run was killed at [`RunOptions::interrupt_at`] (a simulated
    /// middleware crash). The journal passed in the options holds the
    /// crash-consistent record to resume from.
    Interrupted {
        at: SimTime,
        stats: UnitManagerStats,
    },
    /// A resumed run replayed differently from the interrupted journal it
    /// was given: the journal does not describe this (seed, app,
    /// strategy, fault) combination, and resuming would fabricate
    /// history. `seq` is the first diverging entry.
    JournalDiverged { seq: u64, detail: String },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Unplannable(msg) => write!(f, "{msg}"),
            RunError::Skeleton(msg) => write!(f, "skeleton generation failed: {msg}"),
            RunError::InvalidFaultSpec(msg) => write!(f, "invalid fault spec: {msg}"),
            RunError::InvalidInfoConfig(msg) => write!(f, "invalid info config: {msg}"),
            RunError::InvalidRecorderConfig(msg) => {
                write!(f, "invalid flight-recorder config: {msg}")
            }
            RunError::InvalidRecoveryPolicy(msg) => {
                write!(f, "invalid recovery policy: {msg}")
            }
            RunError::InvalidUnitConfig(msg) => {
                write!(f, "invalid unit-manager config: {msg}")
            }
            RunError::DeadlineExceeded {
                n_tasks,
                strategy_label,
                at,
                stats,
            } => write!(
                f,
                "run missed its deadline: {n_tasks} tasks under {strategy_label} \
                 still unfinished at {at:?} (stats {stats:?})"
            ),
            RunError::PilotsDrained { stats } => {
                write!(f, "pilot pool drained before completion ({stats:?})")
            }
            RunError::ResourceLost { resource, stats } => write!(
                f,
                "resource {resource} permanently lost before completion ({stats:?})"
            ),
            RunError::Interrupted { at, stats } => {
                write!(f, "run interrupted at {at:?} ({stats:?})")
            }
            RunError::JournalDiverged { seq, detail } => {
                write!(
                    f,
                    "resume diverged from the journal at entry {seq}: {detail}"
                )
            }
        }
    }
}

impl std::error::Error for RunError {}

impl RunError {
    /// Substring check on the rendered message — keeps the pre-enum
    /// `String`-error call sites (`err.contains("deadline")`) compiling
    /// unchanged.
    pub fn contains(&self, needle: &str) -> bool {
        self.to_string().contains(needle)
    }

    /// Stable taxonomy key for this error variant, message-free — the
    /// campaign manifest and `campaign-report` failure table bucket on it.
    pub fn kind(&self) -> &'static str {
        match self {
            RunError::Unplannable(_) => "unplannable",
            RunError::Skeleton(_) => "skeleton",
            RunError::InvalidFaultSpec(_) => "invalid_fault_spec",
            RunError::InvalidInfoConfig(_) => "invalid_info_config",
            RunError::InvalidRecorderConfig(_) => "invalid_recorder_config",
            RunError::InvalidRecoveryPolicy(_) => "invalid_recovery_policy",
            RunError::InvalidUnitConfig(_) => "invalid_unit_config",
            RunError::DeadlineExceeded { .. } => "deadline_exceeded",
            RunError::PilotsDrained { .. } => "pilots_drained",
            RunError::ResourceLost { .. } => "resource_lost",
            RunError::Interrupted { .. } => "interrupted",
            RunError::JournalDiverged { .. } => "journal_diverged",
        }
    }
}

/// The measured outcome of one run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunResult {
    pub strategy_label: String,
    pub n_tasks: u32,
    pub breakdown: TtcBreakdown,
    pub resources_used: Vec<String>,
    pub units_done: usize,
    pub units_failed: usize,
    pub restarts: u64,
    /// Per-pilot setup times (seconds), submission order.
    pub pilot_setup_secs: Vec<f64>,
    /// Allocation consumption (paper §V): core-hours *charged* by the
    /// resources — every active pilot's cores for its active span.
    pub charged_core_hours: f64,
    /// Core-hours actually spent executing tasks.
    pub used_core_hours: f64,
    /// Replacement pilots submitted by the self-healing layer.
    pub replacements: u64,
    /// Strategy re-derivations after permanent resource loss.
    pub replans: u64,
    /// Core-hours burnt on execution attempts that never produced output
    /// (killed or faulted mid-run and re-done elsewhere). Excludes the
    /// checkpoint-salvaged share.
    pub wasted_core_hours: f64,
    /// Core-hours of aborted attempts whose progress was checkpointed and
    /// carried forward instead of redone — work that was *not* wasted.
    /// Zero unless checkpointing is enabled.
    #[serde(default)]
    pub salvaged_core_hours: f64,
    /// Correlated-failure alarms raised (one per alarmed domain).
    #[serde(default)]
    pub domain_alarms: u64,
    /// Pilots preemptively drained out of alarmed domains.
    #[serde(default)]
    pub evacuations: u64,
    /// Time from the first domain alarm to the first evacuated pilot
    /// actually draining (Canceled). `None` when nothing was evacuated.
    #[serde(default)]
    pub evacuation_lead_secs: Option<f64>,
    /// Mean time from a pilot failure to its replacement becoming Active
    /// (0 when nothing needed recovering).
    pub mean_recovery_secs: f64,
    /// Mean time from a pilot going silent to the detector declaring it
    /// dead — Td samples (0 when detection is off or nothing died).
    #[serde(default)]
    pub mean_detection_secs: f64,
    /// Suspicions the detector raised and then cleared when heartbeats
    /// resumed (false positives that cost nothing).
    #[serde(default)]
    pub false_suspicions: u64,
    /// Decisions the information plane served below the fresh path
    /// (stale cache, offline predictor, static default) — 0 on a healthy
    /// channel.
    #[serde(default)]
    pub info_fallbacks: u64,
    /// Total information age (seconds) behind those degraded decisions —
    /// the staleness analogue of Tr/Td.
    #[serde(default)]
    pub stale_decision_secs: f64,
    /// Condensed telemetry (counters, gauge summaries, histogram
    /// quantiles). `Some` only when the run was given
    /// [`RunOptions::telemetry`].
    #[serde(default)]
    pub metrics: Option<MetricsSummary>,
}

impl RunResult {
    /// Allocation efficiency: used / charged core-hours — an energy-
    /// efficiency proxy (idle pilot cores burn allocation and power for
    /// no work). In (0, 1] for any run that executed something.
    pub fn allocation_efficiency(&self) -> f64 {
        if self.charged_core_hours <= 0.0 {
            0.0
        } else {
            self.used_core_hours / self.charged_core_hours
        }
    }
}

/// Execute `app_config` under `strategy` on the given resource pool.
/// Returns an error if the plan cannot be derived or the run misses its
/// deadline.
///
/// The run is the middleware's named phases called in order: validate
/// and build, plan, enact, arm recovery, drive, assemble.
///
/// ```
/// use aimes::middleware::{run_application, RunOptions};
/// use aimes::paper;
/// use aimes_skeleton::{paper_bag, TaskDurationSpec};
/// use aimes_sim::SimTime;
///
/// let app = paper_bag(16, TaskDurationSpec::Uniform15Min);
/// let result = run_application(
///     &paper::testbed(),
///     &app,
///     &paper::late_strategy(3),
///     &RunOptions {
///         seed: 1,
///         submit_at: SimTime::from_secs(4.0 * 3600.0),
///         ..Default::default()
///     },
/// ).unwrap();
/// assert_eq!(result.units_done, 16);
/// let b = &result.breakdown;
/// assert!(b.tw + b.tx + b.ts >= b.ttc); // components overlap inside TTC
/// ```
pub fn run_application(
    resources: &[ClusterConfig],
    app_config: &SkeletonConfig,
    strategy: &ExecutionStrategy,
    options: &RunOptions,
) -> Result<RunResult, RunError> {
    let mut world = RunWorld::build(resources, app_config, strategy, options)?;
    let plan = world.plan()?;
    let crew = world.enact(&plan)?;
    let ledger = world.arm_recovery(&crew);
    let finished_at = world.drive(&crew, &ledger)?;
    Ok(world.assemble(&crew, &ledger, plan.resources, finished_at))
}

/// The run's one event sink. Every journal-shaped fact goes through
/// [`RunLog::emit`] to the always-on flight recorder and, when the caller
/// asked for one, the run journal — so a recorder snapshot's tail is
/// always comparable line for line with the journal's.
struct RunLog {
    recorder: RefCell<FlightRecorder>,
    journal: Option<Rc<RefCell<RunJournal>>>,
    dump_dir: Option<PathBuf>,
    run_tag: Option<String>,
    seed: u64,
}

impl RunLog {
    /// Record one event. The recorder line is the event's JSON.
    fn emit(&self, at: SimTime, event: JournalEvent) {
        self.recorder
            .borrow_mut()
            .record_with(at, || serde_json::to_string(&event).unwrap_or_default());
        if let Some(journal) = &self.journal {
            journal.borrow_mut().record(at, event);
        }
    }

    /// Post-mortem: write a checksummed snapshot of the recorder's tail,
    /// named after the death `reason`, into the dump dir (no-op when
    /// unset). Dump failures are swallowed: post-mortem writing must
    /// never turn a diagnosable death into a different one.
    ///
    /// Concurrent runs (the worker pool) may share the dir, and
    /// paired-seed sweep arms may even share the seed; the run tag keeps
    /// their filenames apart, and the write goes to a unique temp file
    /// followed by an atomic rename so a reader never observes a
    /// half-written or interleaved dump.
    fn dump(&self, reason: &str) {
        let Some(dir) = &self.dump_dir else { return };
        let snapshot = self.recorder.borrow().snapshot(reason);
        fn sanitize(s: &str) -> String {
            s.chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() || c == '-' {
                        c
                    } else {
                        '-'
                    }
                })
                .collect()
        }
        let seed = self.seed;
        let name = match &self.run_tag {
            Some(tag) => format!("flight-{}-{seed}-{}.txt", sanitize(tag), sanitize(reason)),
            None => format!("flight-{seed}-{}.txt", sanitize(reason)),
        };
        let _ = std::fs::create_dir_all(dir);
        static DUMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let tmp = dir.join(format!(
            "{name}.tmp-{}-{}",
            std::process::id(),
            DUMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        match std::fs::write(&tmp, snapshot.to_text()) {
            Ok(()) => {
                if std::fs::rename(&tmp, dir.join(&name)).is_err() {
                    let _ = std::fs::remove_file(&tmp);
                }
            }
            Err(_) => {
                let _ = std::fs::remove_file(&tmp);
            }
        }
    }
}

/// Phase 1 — construction-time validation, mirroring
/// `FaultSpec::validate`: a config that cannot mean what it says (an
/// inverted staleness ladder, a self-contradictory recovery policy, a
/// zero-capacity recorder, an empty duration range) is refused before
/// anything runs. Hands back the run's log around the validated recorder.
fn validate(options: &RunOptions) -> Result<RunLog, RunError> {
    options
        .info
        .validate()
        .map_err(RunError::InvalidInfoConfig)?;
    if let Some(rec) = &options.recovery {
        rec.validate().map_err(RunError::InvalidRecoveryPolicy)?;
    }
    let recorder =
        FlightRecorder::new(options.recorder_capacity).map_err(RunError::InvalidRecorderConfig)?;
    if let Some(spec) = &options.faults {
        spec.validate().map_err(RunError::InvalidFaultSpec)?;
    }
    Ok(RunLog {
        recorder: RefCell::new(recorder),
        journal: options.journal.clone(),
        dump_dir: options.recorder_dump_dir.clone(),
        run_tag: options.run_tag.clone(),
        seed: options.seed,
    })
}

/// Each cluster's SAGA job service, in pool order.
fn services<'s>(
    clusters: &'s [Cluster],
    session: &'s Session,
) -> impl Iterator<Item = JobService> + 's {
    clusters.iter().filter_map(|c| session.service(&c.name()))
}

/// The managers a plan is enacted through, and when they finished.
pub(crate) struct Crew {
    pub(crate) pm: PilotManager,
    pub(crate) um: UnitManager,
    finished: Rc<Cell<Option<SimTime>>>,
}

/// What the recovery machinery did, read back when the run ends.
#[derive(Default)]
pub(crate) struct Ledger {
    /// Resources permanently lost, in loss order (error classification).
    lost: Vec<String>,
    replans: u64,
    domain_alarms: u64,
    evacuations: u64,
    first_alarm: Option<SimTime>,
    evacuation_lead_secs: Option<f64>,
}

type SharedLedger = Rc<RefCell<Ledger>>;
/// Re-derive the strategy after losing `resource`, rebuilding capacity
/// for `doomed` pilots.
type Replan = Rc<dyn Fn(&mut Simulation, &str, usize)>;
/// Resources already re-planned around (one re-plan per resource).
type Replanned = Rc<RefCell<HashSet<String>>>;

/// Everything one middleware run is made of, assembled in named phases
/// (build, plan, enact, arm recovery, drive, assemble). [`run_application`]
/// calls them in order; [`crate::adaptive::run_adaptive`] slots its
/// patience check in before the drive and assembles its own result.
pub(crate) struct RunWorld<'a> {
    options: &'a RunOptions,
    strategy: &'a ExecutionStrategy,
    pub(crate) sim: Simulation,
    log: Rc<RunLog>,
    clusters: Vec<Cluster>,
    session: Rc<Session>,
    /// Shared with the re-planner and the adaptive patience check.
    pub(crate) bundle: Rc<RefCell<Bundle>>,
    /// The bundle's information channel, kept for its fallback counters.
    info: Rc<RefCell<InfoChannel>>,
    /// The fault model compiled against the run seed. Everything below is
    /// gated on it, so a fault-free run replays the exact event and RNG
    /// streams of a build without fault support.
    schedule: Option<FaultSchedule>,
    app: SkeletonApp,
    n_tasks: u32,
    submitted: SimTime,
}

impl<'a> RunWorld<'a> {
    /// Phases 1–2 — validate the options, build engine, resources, fault
    /// model, application and info plane, advance to submission and
    /// journal `RunStarted`.
    pub(crate) fn build(
        resources: &[ClusterConfig],
        app_config: &SkeletonConfig,
        strategy: &'a ExecutionStrategy,
        options: &'a RunOptions,
    ) -> Result<Self, RunError> {
        let log = Rc::new(validate(options)?);
        let tracer = match &options.tracer {
            Some(t) => t.clone(),
            None if options.trace => Tracer::new(),
            None => Tracer::disabled(),
        };
        let mut sim = Simulation::with_tracer(options.seed, tracer);
        if let Some(telemetry) = &options.telemetry {
            sim.attach_metrics(telemetry.registry().clone());
        }
        if let Some(profiler) = &options.profiler {
            sim.attach_profiler(profiler.clone());
        }

        // Resource layer: clusters with background load, SAGA session, bundle.
        let mut session = Session::new();
        let mut bundle = Bundle::with_info_config(options.info.clone());
        let mut clusters: Vec<Cluster> = Vec::new();
        for cfg in resources {
            let cluster = Cluster::new(cfg.clone());
            cluster.install(&mut sim);
            session.add_resource(&sim, cluster.clone());
            bundle.add(cluster.clone());
            clusters.push(cluster);
        }
        let info = bundle.info_handle();
        info.borrow_mut().set_metrics(sim.metrics().clone());
        info.borrow_mut().set_profiler(sim.profiler().clone());

        let schedule = options
            .faults
            .as_ref()
            .filter(|spec| !spec.is_noop())
            .map(|spec| {
                let names: Vec<String> = clusters.iter().map(|c| c.name()).collect();
                spec.compile(&names, &mut sim.fork_rng("faults"))
            });
        if let Some(sched) = schedule
            .as_ref()
            .filter(|s| s.launch_transient_chance > 0.0 || s.launch_permanent_chance > 0.0)
        {
            for svc in services(&clusters, &session) {
                svc.inject_launch_faults(
                    sched.launch_transient_chance,
                    sched.launch_permanent_chance,
                );
            }
        }

        // Generate the application (same seed → same workload across
        // strategies with the same experiment seed).
        let app = SkeletonApp::generate(app_config, &mut sim.fork_rng("skeleton"))
            .map_err(|e| RunError::Skeleton(e.to_string()))?;

        // Let the resource pool evolve to the submission instant. The
        // marker event pins the clock there even if the pool is idle.
        sim.schedule_at(options.submit_at, |_| {});
        sim.run_until(options.submit_at);
        let submitted = options.submit_at.max(sim.now());
        debug_assert_eq!(submitted, sim.now());

        let world = RunWorld {
            options,
            strategy,
            sim,
            log,
            clusters,
            session: Rc::new(session),
            bundle: Rc::new(RefCell::new(bundle)),
            info,
            schedule,
            n_tasks: app.tasks().len() as u32,
            app,
            submitted,
        };
        world.wire_info_plane();
        world.log.emit(
            submitted,
            JournalEvent::RunStarted {
                seed: options.seed,
                strategy: strategy.label(),
                n_tasks: world.n_tasks,
            },
        );
        Ok(world)
    }

    /// The information plane's two hooks. The sink logs every degraded
    /// decision (it never fires on a healthy channel); the disposition
    /// answers "what shape is the channel in" from the compiled
    /// info-fault model, on its own per-resource forked streams so
    /// queries neither consume nor disturb any other stream.
    fn wire_info_plane(&self) {
        let log = self.log.clone();
        self.info.borrow_mut().set_sink(Box::new(move |at, d| {
            log.emit(
                at,
                JournalEvent::InfoFallback {
                    resource: d.resource.clone(),
                    class: d.class.label().to_string(),
                    rung: d.rung.label().to_string(),
                    age_secs: d.age.as_secs(),
                    wait_secs: d.wait.map(|w| w.as_secs()),
                },
            );
        }));
        let info_faults = self.schedule.as_ref().map(|s| &s.info);
        let Some(info_faults) = info_faults.filter(|i| !i.is_noop()).cloned() else {
            return;
        };
        let info_rng = self.sim.fork_rng("info");
        let submitted_secs = self.submitted.as_secs();
        let mut streams: BTreeMap<String, SimRng> = BTreeMap::new();
        self.info
            .borrow_mut()
            .set_disposition(Box::new(move |resource, now| {
                let rng = streams
                    .entry(resource.to_string())
                    .or_insert_with(|| info_rng.fork(&format!("info.{resource}")));
                match info_faults.outcome(resource, now.as_secs() - submitted_secs, rng) {
                    InfoOutcome::Ok => InfoDisposition::Ok,
                    InfoOutcome::Corrupt => InfoDisposition::Corrupt,
                    InfoOutcome::Unavailable => InfoDisposition::Unavailable,
                }
            }));
    }

    /// The detection layer, when the recovery policy configures one.
    fn detection(&self) -> Option<&'a DetectionSpec> {
        self.options.recovery.as_ref()?.detection.as_ref()
    }

    /// Phase 3 — steps 1–4 of Figure 1: derive the plan at submission
    /// time.
    pub(crate) fn plan(&mut self) -> Result<ExecutionPlan, RunError> {
        let mut selection_rng = self.sim.fork_rng("resource-selection");
        let _prof = self.sim.profiler().scope("middleware.plan");
        ExecutionManager::default()
            .derive_plan_with_rng(
                self.submitted,
                &self.app,
                &mut self.bundle.borrow_mut(),
                self.strategy,
                &mut selection_rng,
            )
            .map_err(RunError::Unplannable)
    }

    /// Phase 4 — steps 5–6: thread fault chances and recovery knobs into
    /// the managers, wire the log, submit.
    pub(crate) fn enact(&mut self, plan: &ExecutionPlan) -> Result<Crew, RunError> {
        let recovery = self.options.recovery.as_ref();
        let mut um_config = plan.um_config.clone();
        if let Some(sched) = &self.schedule {
            um_config.unit_fault_chance = sched.unit_failure_chance;
            um_config.unit_fault_permanent_chance = sched.unit_permanent_chance;
        }
        if let Some(rec) = recovery {
            um_config.retry_backoff = rec.unit_retry_backoff;
            um_config.retry_backoff_cap = rec.replacement_backoff_cap;
            um_config.checkpoint_interval = rec.checkpoint_interval;
        }
        um_config.validate().map_err(RunError::InvalidUnitConfig)?;
        let pm = PilotManager::new(self.session.clone());
        if let Some(rec) = recovery.filter(|r| r.pilot_replacement) {
            pm.set_recovery(PilotRecovery {
                max_replacements: rec.max_replacements_per_pilot,
                backoff: rec.replacement_backoff,
                backoff_cap: rec.replacement_backoff_cap,
                blacklist_after: rec.blacklist_after,
                // Exactly one layer owns cross-resource recovery: with
                // re-planning on, pilot replacement stays on-resource.
                reroute: !rec.replan_on_resource_loss,
            });
        }
        // The detection layer (when configured) is the only failure oracle
        // the recovery path may consult: agents heartbeat, the manager
        // suspects and declares, and each resource's SAGA service trips a
        // circuit breaker on repeated transient failures. Injection ground
        // truth stops feeding recovery.
        if let Some(det) = self.detection() {
            let mode = match det.phi {
                Some(phi) => DetectionMode::PhiAccrual {
                    suspect_phi: phi.suspect_phi,
                    declare_phi: phi.declare_phi,
                    window: phi.window,
                },
                None => DetectionMode::Timeout,
            };
            pm.set_detection(DetectionPolicy {
                heartbeat_interval: SimDuration::from_secs(det.heartbeat_secs),
                suspect_after: SimDuration::from_secs(det.suspect_after_secs),
                declare_after: SimDuration::from_secs(det.declare_after_secs),
                mode,
                confirm_with_status_query: det.confirm_with_status_query,
            });
            for svc in services(&self.clusters, &self.session) {
                svc.enable_breaker(BreakerConfig {
                    failure_threshold: det.breaker_failure_threshold,
                    cooldown: SimDuration::from_secs(det.breaker_cooldown_secs),
                });
            }
        }
        let um = UnitManager::new(pm.clone(), um_config);
        let finished = Rc::new(Cell::new(None));
        let (pm2, fin) = (pm.clone(), finished.clone());
        um.on_all_done(move |sim| {
            fin.set(Some(sim.now()));
            pm2.cancel_all(sim);
        });
        let crew = Crew { pm, um, finished };
        self.wire_log(&crew);
        crew.pm.submit(&mut self.sim, plan.pilots.clone());
        crew.um.submit_units(&mut self.sim, self.app.tasks());
        Ok(crew)
    }

    /// Journal + flight-recorder wiring: subscribe before anything is
    /// submitted so the very first transitions are captured. Entry order
    /// within one instant is fixed by subscription order, hence
    /// deterministic.
    fn wire_log(&self, crew: &Crew) {
        let (pm, um) = (&crew.pm, &crew.um);
        let (log, pm2) = (self.log.clone(), pm.clone());
        pm.subscribe(move |sim, pilot, state| {
            let desc = pm2.pilot(pilot).description;
            log.emit(
                sim.now(),
                JournalEvent::PilotTransition {
                    pilot: pilot.0,
                    state,
                    resource: desc.resource,
                    cores: desc.cores,
                },
            );
        });
        let (log, um2) = (self.log.clone(), um.clone());
        um.subscribe(move |sim, unit, state| {
            let u = um2.unit(unit);
            log.emit(
                sim.now(),
                JournalEvent::UnitTransition {
                    unit: unit.0,
                    state,
                    pilot: u.pilot.map(|p| p.0),
                    cores: u.task.cores,
                },
            );
        });
        let log = self.log.clone();
        um.on_salvage(move |sim, unit, ev| {
            let event = match ev {
                SalvageEvent::Checkpoint { progress_secs } => JournalEvent::Checkpoint {
                    unit: unit.0,
                    progress_secs,
                },
                SalvageEvent::Resume { salvaged_secs } => JournalEvent::ResumeFromCheckpoint {
                    unit: unit.0,
                    salvaged_secs,
                },
            };
            log.emit(sim.now(), event);
        });
        let log = self.log.clone();
        pm.on_detector_event(move |sim, ev| {
            log.emit(sim.now(), detector_entry(ev));
            // A Declared-Dead verdict is a death certificate: snapshot
            // the tail now, while the evidence is still in the ring.
            if let DetectorEvent::DeclaredDead { resource, .. } = ev {
                log.dump(&format!("declared-dead-{resource}"));
            }
        });
        let log = self.log.clone();
        pm.on_blacklist(move |sim, resource| {
            let resource = resource.to_string();
            log.emit(sim.now(), JournalEvent::Blacklist { resource });
        });
        for svc in services(&self.clusters, &self.session) {
            let log = self.log.clone();
            svc.on_breaker_trip(move |sim, resource| {
                let resource = resource.to_string();
                log.emit(sim.now(), JournalEvent::BreakerTrip { resource });
            });
        }
    }

    /// Phase 5 — arm the fault schedule and the recovery machinery. All
    /// times are relative to submission. The re-plan support is shared by
    /// the scheduled fault model and the signal-driven path (breaker
    /// trips), so it sits outside the schedule gate; a fault-free,
    /// detection-free run skips all of it and replays the legacy event
    /// stream exactly.
    pub(crate) fn arm_recovery(&mut self, crew: &Crew) -> SharedLedger {
        let ledger = SharedLedger::default();
        if self.schedule.is_none() && self.detection().is_none() {
            return ledger;
        }
        let replan = self.replanner(crew, &ledger);
        // Two signal-driven triggers can condemn the same resource (a
        // tripped breaker and manager-initiated blacklisting); one
        // re-plan per resource is enough.
        let replanned = Replanned::default();
        // Re-plan around a resource a signal condemned, once: any pilot
        // still alive there is doomed; rebuild at least one elsewhere
        // (the trigger pilot is already terminal).
        let condemn = {
            let (pm, replan, replanned) = (crew.pm.clone(), replan.clone(), replanned.clone());
            Rc::new(
                move |sim: &mut Simulation, resource: &str, blacklist: bool| {
                    if replanned.borrow_mut().insert(resource.to_string()) {
                        let doomed = pm.live_on(resource).len().max(1);
                        if blacklist {
                            pm.blacklist(resource);
                        }
                        replan(sim, resource, doomed);
                    }
                },
            )
        };
        // A resource blacklisted for eating launches is as gone as a
        // decommissioned one, but arrives through the pilot manager, not
        // the outage schedule — and with re-planning enabled the pilot
        // layer deliberately skips rerouting. Re-plan here too, or nobody
        // recovers and the pool drains.
        let condemned = condemn.clone();
        crew.pm
            .on_blacklist(move |sim, resource| condemned(sim, resource, false));
        // Breaker-driven recovery: with detection on, an open breaker IS
        // the verdict that a resource eats every request. Stop routing
        // to it and rebuild the lost capacity over the survivors — no
        // peeking at the outage schedule.
        if self.detection().is_some() {
            for svc in services(&self.clusters, &self.session) {
                let condemned = condemn.clone();
                svc.on_breaker_trip(move |sim, resource| condemned(sim, resource, true));
            }
        }
        self.arm_evacuation(crew, &replan, &replanned, &ledger);
        self.arm_schedule(crew, &replan, &ledger);
        ledger
    }

    /// Re-derive the strategy over the resources the pilot manager can
    /// still route to, rebuilding capacity for `doomed` pilots — shared by
    /// every way a resource drops out. A no-op unless the recovery policy
    /// re-plans on resource loss.
    fn replanner(&self, crew: &Crew, ledger: &SharedLedger) -> Replan {
        let context = self
            .options
            .recovery
            .as_ref()
            .filter(|r| r.replan_on_resource_loss)
            .map(|_| {
                (
                    self.bundle.clone(),
                    RefCell::new(self.sim.fork_rng("replan")),
                    self.app.clone(),
                    self.strategy.clone(),
                )
            });
        let all_names: Vec<String> = self.clusters.iter().map(|c| c.name()).collect();
        let (pm, ledger, log) = (crew.pm.clone(), ledger.clone(), self.log.clone());
        Rc::new(move |sim: &mut Simulation, resource: &str, doomed: usize| {
            let Some((bundle, rng, app, strategy)) = &context else {
                return;
            };
            if doomed == 0 {
                return;
            }
            let blacklisted = pm.blacklisted();
            let survivors: Vec<String> = all_names
                .iter()
                .filter(|n| !blacklisted.contains(n))
                .cloned()
                .collect();
            if survivors.is_empty() {
                replan_failed(sim, "no surviving resources".into());
                return;
            }
            let mut replan_strategy = strategy.clone();
            replan_strategy.pilot_count = (doomed as u32).min(survivors.len() as u32).max(1);
            replan_strategy.selection = ResourceSelection::Fixed(survivors.clone());
            let _prof = sim.profiler().scope("middleware.plan");
            let plan = ExecutionManager::default().derive_plan_with_rng(
                sim.now(),
                app,
                &mut bundle.borrow_mut(),
                &replan_strategy,
                &mut rng.borrow_mut(),
            );
            let plan = match plan {
                Ok(plan) => plan,
                Err(e) => return replan_failed(sim, e),
            };
            sim.tracer().record_with(sim.now(), || {
                (
                    "middleware".into(),
                    ManagerPhase::Replan.name(),
                    format!(
                        "lost {resource}: {} pilots over [{}]",
                        plan.pilots.len(),
                        survivors.join(", ")
                    ),
                )
            });
            sim.metrics().inc(|| "middleware.recovery.replans".into());
            log.emit(
                sim.now(),
                JournalEvent::Replan {
                    resource: resource.to_string(),
                    pilots: plan.pilots.len() as u32,
                },
            );
            pm.submit(sim, plan.pilots);
            ledger.borrow_mut().replans += 1;
        })
    }

    /// Proactive evacuation: enough failure signals inside one declared
    /// failure domain within the alarm window predict a cascade. The
    /// alarmed domain's surviving pilots are drained and their capacity
    /// rebuilt on unaffected domains, instead of waiting for each pilot
    /// to be individually declared dead. Armed only when the fault model
    /// declares domains AND the recovery policy opts in.
    fn arm_evacuation(
        &self,
        crew: &Crew,
        replan: &Replan,
        replanned: &Replanned,
        ledger: &SharedLedger,
    ) {
        let evac_spec = self.options.recovery.as_ref().and_then(|r| r.evacuation);
        let domains = self
            .options
            .faults
            .as_ref()
            .and_then(|f| f.cascade.as_ref());
        let (Some(espec), Some(cascade)) = (evac_spec, domains) else {
            return;
        };
        let domain_of: HashMap<String, String> = cascade
            .domains
            .iter()
            .flat_map(|d| d.members.iter().map(move |m| (m.clone(), d.name.clone())))
            .collect();
        let members_of: HashMap<String, Vec<String>> = cascade
            .domains
            .iter()
            .map(|d| (d.name.clone(), d.members.clone()))
            .collect();
        let window = SimDuration::from_secs(espec.alarm_window_secs);
        let threshold = espec.alarm_threshold as usize;
        // Pilots drained by an alarm, awaiting their Canceled transition
        // (the drain goes through SAGA, so it lands later).
        let evacuating: Rc<RefCell<HashMap<PilotId, (String, String)>>> = Default::default();
        // Per-domain sliding window of failure-signal times + the domains
        // already alarmed (one alarm per domain is enough).
        type AlarmState = (HashMap<String, VecDeque<SimTime>>, HashSet<String>);
        let alarm_state = RefCell::<AlarmState>::default();
        let on_signal = {
            let (pm, replan, replanned) = (crew.pm.clone(), replan.clone(), replanned.clone());
            let (evacuating, log, ledger) = (evacuating.clone(), self.log.clone(), ledger.clone());
            move |sim: &mut Simulation, resource: &str| {
                let Some(domain) = domain_of.get(resource) else {
                    return;
                };
                let fire = {
                    let mut st = alarm_state.borrow_mut();
                    let (windows, alarmed) = &mut *st;
                    if alarmed.contains(domain) {
                        return;
                    }
                    let q = windows.entry(domain.clone()).or_default();
                    q.push_back(sim.now());
                    while let Some(&t) = q.front() {
                        if sim.now().since(t) > window {
                            q.pop_front();
                        } else {
                            break;
                        }
                    }
                    q.len() >= threshold && alarmed.insert(domain.clone())
                };
                if !fire {
                    return;
                }
                let members = members_of.get(domain).cloned().unwrap_or_default();
                {
                    let mut ledger = ledger.borrow_mut();
                    ledger.domain_alarms += 1;
                    ledger.first_alarm.get_or_insert(sim.now());
                }
                sim.metrics().inc(|| "middleware.domain_alarms".into());
                sim.tracer().record_with(sim.now(), || {
                    (
                        "middleware".into(),
                        ManagerPhase::Replan.name(),
                        format!("domain alarm {domain}: evacuating [{}]", members.join(", ")),
                    )
                });
                log.emit(
                    sim.now(),
                    JournalEvent::DomainAlarm {
                        domain: domain.clone(),
                        members: members.clone(),
                    },
                );
                // A cascade verdict is a death certificate for the whole
                // domain: snapshot now, with the alarmed domain and its
                // members in the header.
                log.dump(&format!(
                    "domain-alarm-{domain} members={}",
                    members.join(",")
                ));
                for member in &members {
                    // Mark as handled first so the generic breaker/
                    // blacklist hooks don't replan the same loss again.
                    replanned.borrow_mut().insert(member.clone());
                    let doomed = pm.live_on(member);
                    pm.blacklist(member);
                    for pid in &doomed {
                        evacuating
                            .borrow_mut()
                            .insert(*pid, (domain.clone(), member.clone()));
                    }
                    for pid in &doomed {
                        pm.cancel(sim, *pid);
                    }
                    replan(sim, member, doomed.len());
                }
            }
        };
        // Feed the alarm from the failure signals this run actually has:
        // detector verdicts when detection is on, pilot deaths (the oracle
        // path) otherwise. Never both — a DeclaredDead pilot also
        // transitions to Failed, and one death is one signal.
        if self.detection().is_some() {
            crew.pm.on_detector_event(move |sim, ev| {
                if let DetectorEvent::Suspected { resource, .. }
                | DetectorEvent::DeclaredDead { resource, .. } = ev
                {
                    on_signal(sim, resource);
                }
            });
        } else {
            let pm = crew.pm.clone();
            crew.pm.subscribe(move |sim, pilot, state| {
                if state == PilotState::Failed {
                    on_signal(sim, &pm.pilot(pilot).description.resource);
                }
            });
        }
        // The drain watcher: an evacuated pilot reaching Canceled is the
        // evacuation taking effect — journal it and measure the alarm →
        // first-drain lead.
        let (log, ledger) = (self.log.clone(), ledger.clone());
        crew.pm.subscribe(move |sim, pilot, state| {
            if state != PilotState::Canceled {
                return;
            }
            let Some((domain, resource)) = evacuating.borrow_mut().remove(&pilot) else {
                return;
            };
            sim.metrics().inc(|| "middleware.evacuations".into());
            log.emit(
                sim.now(),
                JournalEvent::Evacuation {
                    domain,
                    resource,
                    pilot: pilot.0,
                },
            );
            let mut ledger = ledger.borrow_mut();
            ledger.evacuations += 1;
            if ledger.evacuation_lead_secs.is_none() {
                if let Some(alarm_at) = ledger.first_alarm {
                    ledger.evacuation_lead_secs = Some(sim.now().since(alarm_at).as_secs());
                }
            }
        });
    }

    /// The compiled schedule's timed faults: the staging bandwidth dip,
    /// heartbeat-delay windows and outages.
    fn arm_schedule(&mut self, crew: &Crew, replan: &Replan, ledger: &SharedLedger) {
        let Some(sched) = &self.schedule else { return };
        let submitted = self.submitted;
        if let Some(sf) = sched.staging.filter(|s| s.duration_secs > 0.0) {
            let start = submitted + SimDuration::from_secs(sf.at_secs.max(0.0));
            let factor = sf.bandwidth_factor.clamp(0.001, 1.0);
            let um = crew.um.clone();
            self.sim
                .schedule_at(start, move |_| um.set_origin_bandwidth_factor(factor));
            let um = crew.um.clone();
            self.sim.schedule_at(
                start + SimDuration::from_secs(sf.duration_secs),
                move |_| um.set_origin_bandwidth_factor(1.0),
            );
        }
        // Signal-level fault injection: heartbeats emitted inside each
        // window are delivered late, exercising the detector's
        // false-positive and stale-signal handling.
        for hd in &sched.heartbeat_delays {
            let from = submitted + SimDuration::from_secs(hd.at_secs.max(0.0));
            crew.pm.inject_heartbeat_delay(
                &hd.resource,
                from,
                from + SimDuration::from_secs(hd.duration_secs),
                SimDuration::from_secs(hd.delay_secs),
            );
        }
        let oracle = self.detection().is_none();
        for o in &sched.outages {
            let Some(cluster) = self
                .clusters
                .iter()
                .find(|c| c.name() == o.resource)
                .cloned()
            else {
                continue; // the spec may name resources outside this pool
            };
            let at = submitted + SimDuration::from_secs(o.at.as_secs().max(0.0));
            let (kill, duration) = (o.kind == OutageKind::Outage, o.duration);
            let (resource, ledger) = (o.resource.clone(), ledger.clone());
            match o.kind {
                OutageKind::Outage | OutageKind::Drain => {
                    self.sim.schedule_at(at, move |sim| {
                        cluster.inject_outage(sim, duration, kill);
                    });
                }
                // No oracle: decommission the cluster and walk away.
                // Recovery must come entirely from missed heartbeats and
                // tripped breakers. `lost` still feeds error
                // classification if the run cannot finish.
                OutageKind::Permanent if !oracle => {
                    self.sim.schedule_at(at, move |sim| {
                        cluster.decommission(sim);
                        ledger.borrow_mut().lost.push(resource);
                    });
                }
                OutageKind::Permanent => {
                    let (pm, replan) = (crew.pm.clone(), replan.clone());
                    self.sim.schedule_at(at, move |sim| {
                        // Count live pilots before the axe falls so the
                        // re-plan knows how much capacity to rebuild.
                        let doomed = pm.live_on(&resource).len();
                        // Blacklist first: replacement logic triggered by
                        // the kills below must not resubmit to a corpse.
                        pm.blacklist(&resource);
                        cluster.decommission(sim);
                        ledger.borrow_mut().lost.push(resource.clone());
                        replan(sim, &resource, doomed);
                    });
                }
            }
        }
    }

    /// Phase 6 — run until the application completes, the deadline
    /// passes, the interrupt fires or the queue drains. One exit: engine
    /// queue-health counters are published on every exit (passive on
    /// both sinks), and a death leaves a post-mortem dump named after its
    /// reason before its typed error is returned.
    pub(crate) fn drive(
        &mut self,
        crew: &Crew,
        ledger: &SharedLedger,
    ) -> Result<SimTime, RunError> {
        let deadline = self.submitted + self.options.deadline;
        let interrupt_at = self.options.interrupt_at.map(|d| self.submitted + d);
        let outcome: Result<SimTime, (String, RunError)> = loop {
            if let Some(t) = crew.finished.get() {
                break Ok(t);
            }
            let at = self.sim.now();
            // Simulated middleware crash: stop dead. Whatever the journal
            // holds now is exactly what a crashed writer would have
            // persisted.
            if interrupt_at.is_some_and(|t| at >= t) {
                let stats = crew.um.stats();
                break Err(("interrupted".into(), RunError::Interrupted { at, stats }));
            }
            if at > deadline {
                let err = RunError::DeadlineExceeded {
                    n_tasks: self.n_tasks,
                    strategy_label: self.strategy.label(),
                    at,
                    stats: crew.um.stats(),
                };
                break Err(("deadline-exceeded".into(), err));
            }
            if !self.sim.step() {
                let stats = crew.um.stats();
                break Err(match ledger.borrow().lost.first() {
                    Some(resource) => (
                        format!("resource-lost-{resource}"),
                        RunError::ResourceLost {
                            resource: resource.clone(),
                            stats,
                        },
                    ),
                    None => ("pilots-drained".into(), RunError::PilotsDrained { stats }),
                });
            }
        };
        self.sim.publish_engine_stats();
        outcome.map_err(|(reason, err)| {
            self.log.dump(&reason);
            err
        })
    }

    /// Phase 7 — the measured outcome: TTC decomposition, allocation
    /// accounting (§V: charged = active pilot spans, used = task
    /// execution core time), recovery and info-plane counters, and the
    /// telemetry summary with its pilot/unit spans.
    pub(crate) fn assemble(
        self,
        crew: &Crew,
        ledger: &SharedLedger,
        resources_used: Vec<String>,
        finished_at: SimTime,
    ) -> RunResult {
        let stats = crew.um.stats();
        let units = crew.um.units();
        let pilots = crew.pm.pilots();
        let mut breakdown = decompose(&units, &pilots, self.submitted, finished_at);
        // Td: union of the silent → declared windows. Only the detector
        // knows when silence began, so decompose cannot derive this from
        // unit/pilot timestamps.
        breakdown.td = interval_union(crew.pm.detection_windows());
        let ttc_secs = breakdown.ttc.as_secs();
        self.log
            .emit(finished_at, JournalEvent::RunFinished { ttc_secs });
        let charged_core_hours: f64 = pilots
            .iter()
            .filter_map(|p| {
                let active = p.time_of(PilotState::Active)?;
                let span = pilot_end(p, finished_at).saturating_since(active);
                Some(f64::from(p.description.cores) * span.as_hours())
            })
            .sum();
        let used_core_hours: f64 = units
            .iter()
            .filter_map(|u| {
                u.execution_span()
                    .map(|d| f64::from(u.task.cores) * d.as_hours())
            })
            .sum();
        let metrics = self.options.telemetry.as_ref().map(|telemetry| {
            add_spans(telemetry, &pilots, &units, finished_at);
            telemetry.summary()
        });
        let info_stats = self.info.borrow().stats();
        let (wasted, salvaged) = salvage_split(&units);
        let ledger = ledger.borrow();
        RunResult {
            metrics,
            info_fallbacks: info_stats.info_fallbacks(),
            stale_decision_secs: info_stats.stale_decision_secs,
            charged_core_hours,
            used_core_hours,
            replacements: crew.pm.replacements(),
            replans: ledger.replans,
            wasted_core_hours: wasted,
            salvaged_core_hours: salvaged,
            domain_alarms: ledger.domain_alarms,
            evacuations: ledger.evacuations,
            evacuation_lead_secs: ledger.evacuation_lead_secs,
            mean_recovery_secs: mean_secs(&crew.pm.recovery_times()),
            mean_detection_secs: mean_secs(&crew.pm.detection_times()),
            false_suspicions: crew.pm.false_suspicions(),
            strategy_label: self.strategy.label(),
            n_tasks: self.n_tasks,
            breakdown,
            resources_used,
            units_done: stats.done,
            units_failed: stats.failed,
            restarts: stats.restarts,
            pilot_setup_secs: pilots
                .iter()
                .filter_map(|p| p.setup_time().map(|d| d.as_secs()))
                .collect(),
        }
    }
}

/// A tracer line and a metrics tick for a re-plan that found no way out.
fn replan_failed(sim: &mut Simulation, why: String) {
    sim.tracer().record(
        sim.now(),
        "middleware",
        ManagerPhase::ReplanFailed.name(),
        why,
    );
    sim.metrics()
        .inc(|| "middleware.recovery.replan_failed".into());
}

/// The journal entry for one detector verdict or dropped signal.
fn detector_entry(ev: &DetectorEvent) -> JournalEvent {
    let (pilot, resource, verdict, secs) = match ev {
        DetectorEvent::Suspected {
            pilot,
            resource,
            silent_for,
        } => (pilot, resource, Verdict::Suspected, silent_for),
        DetectorEvent::Recovered {
            pilot,
            resource,
            suspected_for,
        } => (pilot, resource, Verdict::Recovered, suspected_for),
        DetectorEvent::DeclaredDead {
            pilot,
            resource,
            silent_for,
        } => (pilot, resource, Verdict::DeclaredDead, silent_for),
        DetectorEvent::StaleSignal {
            pilot,
            resource,
            detail,
        } => {
            return JournalEvent::StaleSignal {
                pilot: pilot.0,
                resource: resource.clone(),
                detail: detail.clone(),
            }
        }
    };
    JournalEvent::Detector {
        pilot: pilot.0,
        resource: resource.clone(),
        verdict,
        silent_secs: secs.as_secs(),
    }
}

/// Mean of `durations` in seconds (0 when there are none).
fn mean_secs(durations: &[SimDuration]) -> f64 {
    if durations.is_empty() {
        return 0.0;
    }
    durations.iter().map(|d| d.as_secs()).sum::<f64>() / durations.len() as f64
}

/// When a pilot stopped counting: its last transition once terminal;
/// pilots still alive at run end (their cancellation lands just after
/// the last unit finishes) count up to `run_end`.
fn pilot_end(p: &Pilot, run_end: SimTime) -> SimTime {
    match p.timestamps.last() {
        Some(&(_, t)) if p.state.is_terminal() => t,
        _ => run_end,
    }
}

/// Span assembly: pilot lifetimes and unit Executing windows become
/// complete events on per-resource tracks in the Chrome trace. Done after
/// the run, because only then are all end times known.
fn add_spans(telemetry: &Telemetry, pilots: &[Pilot], units: &[ComputeUnit], finished_at: SimTime) {
    for p in pilots {
        let Some(&(_, start)) = p.timestamps.first() else {
            continue;
        };
        telemetry.add_span(Span {
            track: p.description.resource.clone(),
            lane: p.id.to_string(),
            name: p.id.to_string(),
            category: "pilot".into(),
            start,
            end: pilot_end(p, finished_at),
            args: vec![
                ("state".into(), p.state.name().into()),
                ("cores".into(), p.description.cores.to_string()),
            ],
        });
    }
    for u in units {
        let Some(pid) = u.pilot else { continue };
        let Some(pilot) = pilots.iter().find(|p| p.id == pid) else {
            continue;
        };
        // A restarted unit has several Executing entries; each window
        // closes at the next transition (or run end if interrupted).
        for (i, &(state, start)) in u.timestamps.iter().enumerate() {
            if state != UnitState::Executing {
                continue;
            }
            let end = u
                .timestamps
                .get(i + 1)
                .map(|&(_, t)| t)
                .unwrap_or(finished_at);
            telemetry.add_span(Span {
                track: pilot.description.resource.clone(),
                lane: u.id.to_string(),
                name: u.id.to_string(),
                category: "unit".into(),
                start,
                end,
                args: vec![
                    ("pilot".into(), pid.to_string()),
                    ("cores".into(), u.task.cores.to_string()),
                ],
            });
        }
    }
}

/// Resume a run that was interrupted mid-flight from its journal.
///
/// Because the whole middleware is deterministic in the run seed, resume
/// is *re-execution with verification*: the run is replayed from scratch
/// (with the interrupt disarmed) while journaling, and the interrupted
/// journal must be a bit-for-bit prefix of the replay. Any divergence —
/// wrong seed, different app or strategy, edited journal — yields
/// [`RunError::JournalDiverged`] instead of fabricated history. On
/// success the returned [`RunResult`] (TTC included) is identical to the
/// run that was never interrupted.
pub fn resume_application(
    resources: &[ClusterConfig],
    app_config: &SkeletonConfig,
    strategy: &ExecutionStrategy,
    options: &RunOptions,
    interrupted: &RunJournal,
) -> Result<RunResult, RunError> {
    interrupted
        .verify()
        .map_err(|(seq, detail)| RunError::JournalDiverged { seq, detail })?;
    let mut opts = options.clone();
    opts.interrupt_at = None;
    let replay = Rc::new(RefCell::new(RunJournal::new()));
    opts.journal = Some(replay.clone());
    let result = run_application(resources, app_config, strategy, &opts)?;
    interrupted
        .is_prefix_of(&replay.borrow())
        .map_err(|(seq, detail)| RunError::JournalDiverged { seq, detail })?;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimes_skeleton::{paper_bag, TaskDurationSpec};

    fn idle_pool() -> Vec<ClusterConfig> {
        ["a", "b", "c", "d"]
            .iter()
            .map(|n| ClusterConfig::test(n, 4096))
            .collect()
    }

    #[test]
    fn early_strategy_completes_on_idle_pool() {
        let app = paper_bag(32, TaskDurationSpec::Uniform15Min);
        let result = run_application(
            &idle_pool(),
            &app,
            &ExecutionStrategy::paper_early(),
            &RunOptions {
                seed: 1,
                submit_at: SimTime::from_secs(100.0),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(result.units_done, 32);
        assert_eq!(result.units_failed, 0);
        assert_eq!(result.resources_used.len(), 1);
        // Idle pool: Tw is just middleware latency + bootstrap (< 60 s).
        assert!(result.breakdown.tw.as_secs() < 60.0);
        // TTC ≈ Tw + staging + 900 s execution.
        let ttc = result.breakdown.ttc.as_secs();
        assert!(ttc > 900.0 && ttc < 1200.0, "ttc {ttc}");
        // Components never exceed TTC.
        assert!(result.breakdown.tx <= result.breakdown.ttc);
        assert!(result.breakdown.ts <= result.breakdown.ttc);
        // Allocation accounting: 32 tasks x 15 min = 8 used core-hours;
        // the single 32-core pilot is charged for its whole active span,
        // so efficiency is high but below 1 (staging + cancellation lag).
        assert!((result.used_core_hours - 8.0).abs() < 0.01);
        assert!(result.charged_core_hours >= result.used_core_hours);
        let eff = result.allocation_efficiency();
        assert!(eff > 0.5 && eff <= 1.0, "efficiency {eff}");
    }

    #[test]
    fn late_binding_charges_more_allocation_for_idle_pilots() {
        // Same app under early-1p vs late-3p on an idle pool: the late
        // strategy keeps extra pilots alive while the first one does the
        // work → lower allocation efficiency.
        let app = paper_bag(32, TaskDurationSpec::Uniform15Min);
        let opts = RunOptions {
            seed: 4,
            submit_at: SimTime::from_secs(100.0),
            ..Default::default()
        };
        let early =
            run_application(&idle_pool(), &app, &ExecutionStrategy::paper_early(), &opts).unwrap();
        let late =
            run_application(&idle_pool(), &app, &ExecutionStrategy::paper_late(3), &opts).unwrap();
        assert!((early.used_core_hours - late.used_core_hours).abs() < 1e-6);
        assert!(
            late.allocation_efficiency() < early.allocation_efficiency(),
            "late {} vs early {}",
            late.allocation_efficiency(),
            early.allocation_efficiency()
        );
    }

    #[test]
    fn late_strategy_uses_three_resources() {
        let app = paper_bag(24, TaskDurationSpec::Gaussian);
        let result = run_application(
            &idle_pool(),
            &app,
            &ExecutionStrategy::paper_late(3),
            &RunOptions {
                seed: 2,
                submit_at: SimTime::from_secs(100.0),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(result.units_done, 24);
        assert_eq!(result.resources_used.len(), 3);
        assert_eq!(result.pilot_setup_secs.len(), 3);
    }

    #[test]
    fn same_seed_reproduces_exactly() {
        let app = paper_bag(16, TaskDurationSpec::Gaussian);
        let opts = RunOptions {
            seed: 7,
            submit_at: SimTime::from_secs(50.0),
            ..Default::default()
        };
        let run = || {
            run_application(&idle_pool(), &app, &ExecutionStrategy::paper_late(2), &opts).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.breakdown, b.breakdown);
        assert_eq!(a.resources_used, b.resources_used);
        assert_eq!(a.pilot_setup_secs, b.pilot_setup_secs);
    }

    #[test]
    fn detection_recovers_a_permanent_loss_without_an_oracle() {
        use aimes_fault::OutageSpec;
        // Resource "one" is decommissioned at t+300 s, and — unlike the
        // PR 1 oracle path — nobody tells the middleware: no blacklist,
        // no re-plan at the injection instant. Recovery must be driven
        // entirely by missed heartbeats (silent death → declaration) and
        // the circuit breaker tripping on the dead front end.
        let app = paper_bag(16, TaskDurationSpec::Uniform15Min);
        let pool = vec![
            ClusterConfig::test("one", 256),
            ClusterConfig::test("two", 256),
        ];
        let mut strategy = crate::paper::late_strategy(1);
        strategy.selection = ResourceSelection::Fixed(vec!["one".into()]);
        let journal = Rc::new(RefCell::new(RunJournal::new()));
        let r = run_application(
            &pool,
            &app,
            &strategy,
            &RunOptions {
                seed: 13,
                submit_at: SimTime::from_secs(600.0),
                faults: Some(FaultSpec {
                    outages: vec![OutageSpec {
                        resource: "one".into(),
                        at_secs: 300.0,
                        duration_secs: 600.0,
                        kind: OutageKind::Permanent,
                    }],
                    ..FaultSpec::none()
                }),
                recovery: Some(RecoveryPolicy::with_detection()),
                journal: Some(journal.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.units_done, 16);
        assert!(r.replans >= 1, "the tripped breaker must trigger a re-plan");
        assert!(r.mean_detection_secs > 0.0, "a silent death was detected");
        assert!(r.breakdown.td > SimDuration::ZERO, "Td shows in the TTC");
        assert_eq!(r.false_suspicions, 0);
        // The journal shows the signal chain, in causal order: the pilot
        // was declared dead from silence, the breaker opened on the dead
        // front end, and only then was the strategy re-derived.
        let j = journal.borrow();
        assert!(j.verify().is_ok());
        let pos =
            |pred: &dyn Fn(&JournalEvent) -> bool| j.entries().iter().position(|e| pred(&e.event));
        let declared = pos(&|e| {
            matches!(
                e,
                JournalEvent::Detector {
                    verdict: Verdict::DeclaredDead,
                    ..
                }
            )
        })
        .expect("a DeclaredDead verdict is journaled");
        let tripped = pos(&|e| matches!(e, JournalEvent::BreakerTrip { .. }))
            .expect("a breaker trip is journaled");
        let replanned =
            pos(&|e| matches!(e, JournalEvent::Replan { .. })).expect("a re-plan is journaled");
        assert!(declared < replanned && tripped < replanned);
        assert!(matches!(
            j.entries().last().unwrap().event,
            JournalEvent::RunFinished { .. }
        ));
    }

    #[test]
    fn resume_from_an_interrupted_journal_reaches_identical_ttc() {
        use aimes_fault::OutageSpec;
        let app = paper_bag(16, TaskDurationSpec::Uniform15Min);
        let pool = vec![
            ClusterConfig::test("one", 256),
            ClusterConfig::test("two", 256),
        ];
        let mut strategy = crate::paper::late_strategy(1);
        strategy.selection = ResourceSelection::Fixed(vec!["one".into()]);
        let faults = FaultSpec {
            outages: vec![OutageSpec {
                resource: "one".into(),
                at_secs: 300.0,
                duration_secs: 600.0,
                kind: OutageKind::Permanent,
            }],
            ..FaultSpec::none()
        };
        let opts = |journal, interrupt_at| RunOptions {
            seed: 29,
            submit_at: SimTime::from_secs(600.0),
            faults: Some(faults.clone()),
            recovery: Some(RecoveryPolicy::with_detection()),
            journal,
            interrupt_at,
            ..Default::default()
        };
        // The run that was never interrupted.
        let baseline = run_application(&pool, &app, &strategy, &opts(None, None)).unwrap();
        // The same run killed mid-recovery, journaling as it goes.
        let cut = Rc::new(RefCell::new(RunJournal::new()));
        let err = run_application(
            &pool,
            &app,
            &strategy,
            &opts(Some(cut.clone()), Some(SimDuration::from_secs(700.0))),
        )
        .unwrap_err();
        assert!(matches!(err, RunError::Interrupted { .. }), "{err}");
        let cut = cut.borrow();
        assert!(!cut.is_empty(), "the crash left a journal behind");
        // Crash-consistency: the on-disk form loses its torn tail, and
        // what survives is still a valid record to resume from.
        let mut text = cut.to_jsonl();
        let keep = text.len() - 10;
        text.truncate(keep);
        let recovered = RunJournal::from_jsonl(&text);
        assert!(recovered.len() < cut.len());
        let resumed =
            resume_application(&pool, &app, &strategy, &opts(None, None), &recovered).unwrap();
        assert_eq!(
            resumed.breakdown, baseline.breakdown,
            "resumed TTC must be bit-for-bit the uninterrupted TTC"
        );
        assert_eq!(resumed.units_done, baseline.units_done);
        assert_eq!(resumed.replans, baseline.replans);
        // A journal from a different run (wrong seed) is refused, not
        // silently replayed into fabricated history.
        let mut other = opts(None, None);
        other.seed = 30;
        let err = resume_application(&pool, &app, &strategy, &other, &recovered).unwrap_err();
        assert!(
            matches!(err, RunError::JournalDiverged { seq: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn oversized_app_fails_to_plan() {
        let small: Vec<ClusterConfig> = vec![ClusterConfig::test("tiny", 64)];
        let app = paper_bag(2048, TaskDurationSpec::Uniform15Min);
        let err = run_application(
            &small,
            &app,
            &ExecutionStrategy::paper_early(),
            &RunOptions::default(),
        )
        .unwrap_err();
        assert!(err.contains("qualify"), "{err}");
    }
}
