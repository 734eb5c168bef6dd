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
use aimes_bundle::{Bundle, InfoChannel, InfoConfig, InfoDecision, InfoDisposition};
use aimes_cluster::{warm_up, Cluster, ClusterConfig};
use aimes_fault::{
    DetectionSpec, DomainSpec, FaultSchedule, FaultSpec, InfoOutcome, OutageKind, RecoveryPolicy,
};
use aimes_pilot::{
    ComputeUnit, DetectionMode, DetectionPolicy, DetectorEvent, Pilot, PilotId, PilotManager,
    PilotRecovery, PilotState, SalvageEvent, UnitId, UnitManager, UnitManagerStats, UnitState,
};
use aimes_saga::{BreakerConfig, JobService, Session};
use aimes_sim::{
    Fact, MetricsSummary, Profiler, RunOutcome, SimDuration, SimRng, SimTime, Simulation, Span,
    Telemetry, TraceLine, Tracer,
};
use aimes_skeleton::{SkeletonApp, SkeletonConfig};
use aimes_strategy::{
    AppInfo, ExecutionManager, ExecutionPlan, ExecutionStrategy, ResourceSelection,
};
use serde::{Deserialize, Serialize};
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::{BTreeMap, HashMap, HashSet};
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
    /// Record the run's trace into this tracer (a cheap shared handle),
    /// which the caller keeps to read or stream out after the run. `None`
    /// (the default) traces nothing.
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
    /// time to engine dispatch, the pre-submission warm-up, the cluster
    /// scheduler, pilot/unit managers, SAGA session, info plane, and
    /// middleware planning, and
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
    /// A resource's config would make the cluster panic or hang (no cores,
    /// no queue, a repeated queue name, a negative or non-finite initial
    /// backlog); the message names the resource.
    InvalidClusterConfig(String),
    /// A resource's background-load config cannot be sampled (a
    /// utilization or diurnal amplitude out of range, a distribution
    /// `Distribution::validate` refuses); the message names the resource.
    InvalidWorkloadConfig(String),
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
    /// The engine's event budget ran out with units still unfinished: a
    /// scheduling loop, or a budget set too low for the run.
    EventBudgetExhausted {
        at: SimTime,
        stats: UnitManagerStats,
    },
    /// A resumed run replayed differently from the interrupted journal it
    /// was given: the journal does not describe this (seed, app,
    /// strategy, fault) combination, and resuming would fabricate
    /// history. `seq` is the first diverging entry.
    JournalDiverged { seq: u64, detail: String },
    /// The run panicked. The campaign driver catches the panic so the
    /// rest of the sweep still runs; `message` is the panic's payload.
    Panicked { message: String },
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
            RunError::InvalidClusterConfig(msg) => write!(f, "invalid cluster config: {msg}"),
            RunError::InvalidWorkloadConfig(msg) => {
                write!(f, "invalid background workload config: {msg}")
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
            RunError::EventBudgetExhausted { at, stats } => {
                write!(f, "event budget exhausted at {at:?} ({stats:?})")
            }
            RunError::JournalDiverged { seq, detail } => {
                write!(
                    f,
                    "resume diverged from the journal at entry {seq}: {detail}"
                )
            }
            RunError::Panicked { message } => write!(f, "run panicked: {message}"),
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
            RunError::InvalidClusterConfig(_) => "invalid_cluster_config",
            RunError::InvalidWorkloadConfig(_) => "invalid_workload_config",
            RunError::DeadlineExceeded { .. } => "deadline_exceeded",
            RunError::PilotsDrained { .. } => "pilots_drained",
            RunError::ResourceLost { .. } => "resource_lost",
            RunError::Interrupted { .. } => "interrupted",
            RunError::EventBudgetExhausted { .. } => "event_budget_exhausted",
            RunError::JournalDiverged { .. } => "journal_diverged",
            RunError::Panicked { .. } => "panicked",
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
    world.enact(&plan)?;
    world.arm_recovery();
    let finished_at = world.drive()?;
    Ok(world.assemble(plan.resources, finished_at))
}

/// What the middleware itself decides. A re-plan, domain alarm or
/// evacuation is journaled, so its fact is its journal entry; a re-plan's
/// trace line also names the resources it rebuilt on.
pub(crate) enum MiddlewareFact<'a> {
    /// A journaled decision and, for a re-plan, the surviving resources.
    Journaled(&'a JournalEvent, &'a [String]),
    /// A re-plan found no way out, for this reason.
    ReplanFailed(&'a str),
    /// No pilot became active in time: reinforcements go to these resources.
    Reinforce(&'a [String]),
}

impl Fact for MiddlewareFact<'_> {
    fn trace(&self) -> Option<TraceLine> {
        let (event, detail) = match self {
            MiddlewareFact::Journaled(JournalEvent::Replan { resource, pilots }, survivors) => (
                "Replan",
                format!(
                    "lost {resource}: {pilots} pilots over [{}]",
                    survivors.join(", ")
                ),
            ),
            MiddlewareFact::Journaled(JournalEvent::DomainAlarm { domain, members }, _) => (
                "DomainAlarm",
                format!("domain alarm {domain}: evacuating [{}]", members.join(", ")),
            ),
            MiddlewareFact::Journaled(..) => return None,
            MiddlewareFact::ReplanFailed(why) => ("ReplanFailed", why.to_string()),
            MiddlewareFact::Reinforce(resources) => {
                return Some(("adaptive".into(), "Reinforce", resources.join(",")))
            }
        };
        Some(("middleware".into(), event, detail))
    }

    fn counter(&self) -> Option<String> {
        let name = match self {
            MiddlewareFact::Journaled(JournalEvent::Replan { .. }, _) => "recovery.replans",
            MiddlewareFact::Journaled(JournalEvent::DomainAlarm { .. }, _) => "domain_alarms",
            MiddlewareFact::Journaled(JournalEvent::Evacuation { .. }, _) => "evacuations",
            MiddlewareFact::Journaled(..) => return None,
            MiddlewareFact::ReplanFailed(_) => "recovery.replan_failed",
            MiddlewareFact::Reinforce(_) => "adaptive.reinforcements",
        };
        Some(format!("middleware.{name}"))
    }
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
    /// Record one event; it is copied only when a journal is attached.
    fn emit(&self, at: SimTime, event: JournalEvent) {
        if let Some(journal) = &self.journal {
            journal.borrow_mut().record(at, event.clone());
        }
        self.recorder.borrow_mut().record(at, event);
    }

    /// Emit a middleware decision to the engine's sinks, then journal it;
    /// `survivors` are the resources a re-plan rebuilt on.
    fn decide(&self, sim: &Simulation, entry: JournalEvent, survivors: &[String]) {
        sim.emit(&MiddlewareFact::Journaled(&entry, survivors));
        self.emit(sim.now(), entry);
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

/// The detection layer, when the recovery policy configures one.
fn detection(options: &RunOptions) -> Option<&DetectionSpec> {
    options.recovery.as_ref()?.detection.as_ref()
}

/// Each cluster's SAGA job service, in pool order.
fn services<'s>(
    clusters: &'s [Cluster],
    session: &'s Session,
) -> impl Iterator<Item = JobService> + 's {
    clusters.iter().filter_map(|c| session.service(&c.name()))
}

/// The managers a plan is enacted through.
#[derive(Clone)]
pub(crate) struct Crew {
    pub(crate) pm: PilotManager,
    pub(crate) um: UnitManager,
}

/// What the recovery machinery did, read back when the run ends.
#[derive(Default)]
struct Ledger {
    /// Resources permanently lost, in loss order (error classification).
    lost: Vec<String>,
    replans: u64,
    domain_alarms: u64,
    evacuations: u64,
    first_alarm: Option<SimTime>,
    evacuation_lead_secs: Option<f64>,
}

/// Proactive evacuation: enough failure signals inside one declared
/// failure domain within the alarm window predict a cascade. The alarmed
/// domain's surviving pilots are drained and their capacity rebuilt on
/// unaffected domains, instead of waiting for each pilot to be
/// individually declared dead.
struct Evacuation {
    /// Detector verdicts, not pilot deaths, are the failure signals.
    detection: bool,
    domains: Vec<DomainSpec>,
    window: SimDuration,
    threshold: usize,
    /// Per-domain failure-signal times inside the alarm window.
    signals: RefCell<HashMap<String, Vec<SimTime>>>,
    /// Domains already alarmed (one alarm per domain is enough).
    alarmed: RefCell<HashSet<String>>,
    /// Pilots drained by an alarm, awaiting their Canceled transition
    /// (the drain goes through SAGA, so it lands later).
    draining: RefCell<HashMap<PilotId, (String, String)>>,
}

impl Evacuation {
    /// Present only when the fault model declares domains AND the
    /// recovery policy opts in.
    fn new(options: &RunOptions) -> Option<Self> {
        let spec = options.recovery.as_ref()?.evacuation?;
        Some(Evacuation {
            detection: detection(options).is_some(),
            domains: options.faults.as_ref()?.cascade.as_ref()?.domains.clone(),
            window: SimDuration::from_secs(spec.alarm_window_secs),
            threshold: spec.alarm_threshold as usize,
            signals: RefCell::default(),
            alarmed: RefCell::default(),
            draining: RefCell::default(),
        })
    }

    /// Count one failure signal from `domain` at `now`; true when it
    /// raises the domain's alarm.
    fn alarm(&self, domain: &str, now: SimTime) -> bool {
        if self.alarmed.borrow().contains(domain) {
            return false;
        }
        let mut signals = self.signals.borrow_mut();
        let times = signals.entry(domain.to_string()).or_default();
        times.push(now);
        times.retain(|&t| now.since(t) <= self.window);
        times.len() >= self.threshold && self.alarmed.borrow_mut().insert(domain.to_string())
    }
}

/// The listener's recovery half: what a re-plan re-derives the strategy
/// from, and the evacuation state.
struct Recovery {
    /// The recovery policy re-plans on resource loss.
    replan: bool,
    bundle: Rc<RefCell<Bundle>>,
    rng: RefCell<SimRng>,
    app: AppInfo,
    strategy: ExecutionStrategy,
    /// The whole pool, in order; a re-plan keeps what is not blacklisted.
    names: Vec<String>,
    evacuation: Option<Evacuation>,
}

/// The middleware's one listener: each component signal reaches it
/// through one subscription, and each `on_*` method journals the fact,
/// then reacts. The recovery half stays inert until
/// [`RunWorld::arm_recovery`] arms it.
struct Listener {
    log: RunLog,
    /// The managers, once `enact` has built them.
    crew: OnceCell<Crew>,
    /// When the last unit reached a terminal state.
    finished: Cell<Option<SimTime>>,
    ledger: RefCell<Ledger>,
    /// Resources already re-planned around. A tripped breaker, a
    /// blacklist and a domain alarm can condemn the same resource; one
    /// re-plan per resource is enough.
    replanned: RefCell<HashSet<String>>,
    recovery: OnceCell<Recovery>,
}

impl Listener {
    fn crew(&self) -> &Crew {
        self.crew.get().expect("the plan is enacted")
    }

    fn on_pilot(&self, sim: &mut Simulation, &(pilot, state): &(PilotId, PilotState)) {
        let pm = &self.crew().pm;
        {
            let desc = &pm.pilot_ref(pilot).description;
            let entry = JournalEvent::PilotTransition {
                pilot: pilot.0,
                state,
                resource: desc.resource.clone(),
                cores: desc.cores,
            };
            self.log.emit(sim.now(), entry);
        }
        let Some(evac) = self.recovery.get().and_then(|r| r.evacuation.as_ref()) else {
            return;
        };
        match state {
            // Without detection, pilot deaths are the alarm's failure
            // signals (the oracle path). Never both: a DeclaredDead pilot
            // also transitions to Failed, and one death is one signal.
            PilotState::Failed if !evac.detection => {
                let resource = pm.pilot_ref(pilot).description.resource.clone();
                self.on_signal(sim, evac, &resource);
            }
            PilotState::Canceled => self.on_drained(sim, evac, pilot),
            _ => {}
        }
    }

    fn on_unit(&self, sim: &mut Simulation, &(unit, state): &(UnitId, UnitState)) {
        let u = self.crew().um.unit_ref(unit);
        self.log.emit(
            sim.now(),
            JournalEvent::UnitTransition {
                unit: unit.0,
                state,
                pilot: u.pilot.map(|p| p.0),
                cores: u.work.cores,
            },
        );
    }

    fn on_salvage(&self, sim: &mut Simulation, &(unit, ev): &(UnitId, SalvageEvent)) {
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
        self.log.emit(sim.now(), event);
    }

    fn on_all_done(&self, sim: &mut Simulation) {
        self.finished.set(Some(sim.now()));
        self.crew().pm.cancel_all(sim);
    }

    fn on_detector(&self, sim: &mut Simulation, ev: &DetectorEvent) {
        self.log.emit(sim.now(), detector_entry(ev));
        // A Declared-Dead verdict is a death certificate: snapshot the
        // tail now, while the evidence is still in the ring.
        if let DetectorEvent::DeclaredDead { resource, .. } = ev {
            self.log.dump(&format!("declared-dead-{resource}"));
        }
        // With detection on, its verdicts feed the alarm.
        if let Some(evac) = self.recovery.get().and_then(|r| r.evacuation.as_ref()) {
            if let DetectorEvent::Suspected { resource, .. }
            | DetectorEvent::DeclaredDead { resource, .. } = ev
            {
                self.on_signal(sim, evac, resource);
            }
        }
    }

    /// A resource blacklisted for eating launches is as gone as a
    /// decommissioned one, but arrives through the pilot manager, not the
    /// outage schedule — and with re-planning enabled the pilot layer
    /// deliberately skips rerouting. Re-plan here too, or nobody recovers
    /// and the pool drains.
    fn on_blacklist(&self, sim: &mut Simulation, resource: &str) {
        let name = resource.to_string();
        self.log
            .emit(sim.now(), JournalEvent::Blacklist { resource: name });
        if self.recovery.get().is_some() {
            self.condemn(sim, resource, false);
        }
    }

    /// Breaker-driven recovery: breakers only run with detection on, where
    /// an open breaker IS the verdict that a resource eats every request.
    /// Stop routing to it and rebuild the lost capacity over the survivors
    /// — no peeking at the outage schedule.
    fn on_breaker_trip(&self, sim: &mut Simulation, resource: &str) {
        let name = resource.to_string();
        self.log
            .emit(sim.now(), JournalEvent::BreakerTrip { resource: name });
        if self.recovery.get().is_some() {
            self.condemn(sim, resource, true);
        }
    }

    fn on_info_fallback(&self, at: SimTime, d: &InfoDecision) {
        self.log.emit(
            at,
            JournalEvent::InfoFallback {
                resource: d.resource.clone(),
                class: d.class.into(),
                rung: d.rung,
                age_secs: d.age.as_secs(),
                wait_secs: d.wait.map(|w| w.as_secs()),
            },
        );
    }

    /// Re-plan around a resource a signal condemned, once: any pilot
    /// still alive there is doomed; rebuild at least one elsewhere (the
    /// trigger pilot is already terminal).
    fn condemn(&self, sim: &mut Simulation, resource: &str, blacklist: bool) {
        if !self.replanned.borrow_mut().insert(resource.to_string()) {
            return;
        }
        let pm = &self.crew().pm;
        let doomed = pm.live_on(resource).len().max(1);
        if blacklist {
            pm.blacklist(resource);
        }
        self.replan(sim, resource, doomed);
    }

    /// Re-derive the strategy over the resources the pilot manager can
    /// still route to, rebuilding capacity for `doomed` pilots after
    /// losing `resource` — shared by every way a resource drops out. A
    /// no-op unless the recovery policy re-plans on resource loss.
    fn replan(&self, sim: &mut Simulation, resource: &str, doomed: usize) {
        let Some(r) = self.recovery.get().filter(|r| r.replan && doomed > 0) else {
            return;
        };
        let pm = &self.crew().pm;
        let blacklisted = pm.blacklisted();
        let survivors: Vec<String> = r
            .names
            .iter()
            .filter(|n| !blacklisted.contains(n))
            .cloned()
            .collect();
        if survivors.is_empty() {
            let why = "no surviving resources";
            return sim.emit(&MiddlewareFact::ReplanFailed(why));
        }
        let mut replan_strategy = r.strategy.clone();
        replan_strategy.pilot_count = (doomed as u32).min(survivors.len() as u32).max(1);
        replan_strategy.selection = ResourceSelection::Fixed(survivors.clone());
        let _prof = sim.profiler().scope("middleware.plan");
        let plan = ExecutionManager::default().derive_plan_with_rng(
            sim.now(),
            r.app,
            &mut r.bundle.borrow_mut(),
            &replan_strategy,
            &mut r.rng.borrow_mut(),
        );
        let plan = match plan {
            Ok(plan) => plan,
            Err(why) => return sim.emit(&MiddlewareFact::ReplanFailed(&why)),
        };
        let entry = JournalEvent::Replan {
            resource: resource.to_string(),
            pilots: plan.pilots.len() as u32,
        };
        self.log.decide(sim, entry, &survivors);
        pm.submit(sim, plan.pilots);
        self.ledger.borrow_mut().replans += 1;
    }

    /// One failure signal from `resource`: when it raises its domain's
    /// alarm, blacklist every member, drain their live pilots and rebuild
    /// the capacity elsewhere.
    fn on_signal(&self, sim: &mut Simulation, evac: &Evacuation, resource: &str) {
        let Some(DomainSpec { name, members }) = evac
            .domains
            .iter()
            .find(|d| d.members.iter().any(|m| m == resource))
        else {
            return;
        };
        if !evac.alarm(name, sim.now()) {
            return;
        }
        let mut ledger = self.ledger.borrow_mut();
        ledger.domain_alarms += 1;
        ledger.first_alarm.get_or_insert(sim.now());
        drop(ledger);
        let entry = JournalEvent::DomainAlarm {
            domain: name.clone(),
            members: members.clone(),
        };
        self.log.decide(sim, entry, &[]);
        // A cascade verdict is a death certificate for the whole domain:
        // snapshot now, with the alarmed domain and its members in the
        // header.
        self.log.dump(&format!(
            "domain-alarm-{name} members={}",
            members.join(",")
        ));
        let pm = &self.crew().pm;
        for member in members {
            // Mark as handled first so a breaker trip or blacklist does
            // not re-plan the same loss again.
            self.replanned.borrow_mut().insert(member.clone());
            let doomed = pm.live_on(member);
            pm.blacklist(member);
            for &pid in &doomed {
                let entry = (name.clone(), member.clone());
                evac.draining.borrow_mut().insert(pid, entry);
                pm.cancel(sim, pid);
            }
            self.replan(sim, member, doomed.len());
        }
    }

    /// An evacuated pilot reaching Canceled is the evacuation taking
    /// effect: journal it and measure the alarm → first-drain lead.
    fn on_drained(&self, sim: &mut Simulation, evac: &Evacuation, pilot: PilotId) {
        let Some((domain, resource)) = evac.draining.borrow_mut().remove(&pilot) else {
            return;
        };
        let entry = JournalEvent::Evacuation {
            domain,
            resource,
            pilot: pilot.0,
        };
        self.log.decide(sim, entry, &[]);
        let mut ledger = self.ledger.borrow_mut();
        ledger.evacuations += 1;
        if ledger.evacuation_lead_secs.is_none() {
            if let Some(alarm_at) = ledger.first_alarm {
                ledger.evacuation_lead_secs = Some(sim.now().since(alarm_at).as_secs());
            }
        }
    }
}

/// Everything one middleware run is made of, assembled in named phases
/// (build, plan, enact, arm recovery, drive, assemble). [`run_application`]
/// calls them in order; [`crate::adaptive::run_adaptive`] slots its
/// patience check in before the drive and assembles its own result.
/// Dropping the world — after `assemble`, on an error return, or while a
/// panic unwinds — clears every component's callback tables, which frees
/// the `Rc` cycles they close.
pub(crate) struct RunWorld<'a> {
    options: &'a RunOptions,
    strategy: &'a ExecutionStrategy,
    pub(crate) sim: Simulation,
    listener: Rc<Listener>,
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
    /// What planning reads of the application; the re-planner keeps a
    /// copy.
    app: AppInfo,
    /// The generated application, until `enact` hands its tasks to the
    /// unit manager: from then on the units are the only task table.
    skeleton: Option<SkeletonApp>,
    submitted: SimTime,
}

/// Teardown runs after the last event, so no stream moves, and in the
/// run's outermost frame, where no borrow is held, so it cannot panic.
impl Drop for RunWorld<'_> {
    fn drop(&mut self) {
        if let Some(crew) = self.listener.crew.get() {
            crew.pm.clear_callbacks();
            crew.um.clear_callbacks();
        }
        for svc in services(&self.clusters, &self.session) {
            svc.clear_callbacks();
        }
        for cluster in &self.clusters {
            cluster.clear_callbacks();
        }
        self.info.borrow_mut().clear_callbacks();
    }
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
        let log = validate(options)?;
        for cfg in resources {
            cfg.validate()
                .map_err(|e| RunError::InvalidClusterConfig(format!("{}: {e}", cfg.name)))?;
            if let Some(workload) = &cfg.workload {
                workload
                    .validate()
                    .map_err(|e| RunError::InvalidWorkloadConfig(format!("{}: {e}", cfg.name)))?;
            }
        }
        let tracer = options.tracer.clone().unwrap_or_else(Tracer::disabled);
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
        let skeleton = SkeletonApp::generate(app_config, &mut sim.fork_rng("skeleton"))
            .map_err(|e| RunError::Skeleton(e.to_string()))?;
        let app = AppInfo::from(&skeleton);

        // Let the resource pool evolve to the submission instant. Nothing
        // but the clusters' own events exists before it, so they run off
        // the engine; the clock ends at the submission instant even if
        // the pool is idle.
        warm_up(&mut sim, &clusters, options.submit_at);
        let submitted = sim.now();

        let listener = Rc::new(Listener {
            log,
            crew: OnceCell::new(),
            finished: Cell::new(None),
            ledger: RefCell::default(),
            replanned: RefCell::default(),
            recovery: OnceCell::new(),
        });
        let world = RunWorld {
            options,
            strategy,
            sim,
            listener,
            clusters,
            session: Rc::new(session),
            bundle: Rc::new(RefCell::new(bundle)),
            info,
            schedule,
            app,
            skeleton: Some(skeleton),
            submitted,
        };
        world.wire_info_plane();
        world.listener.log.emit(
            submitted,
            JournalEvent::RunStarted {
                seed: options.seed,
                strategy: strategy.label(),
                n_tasks: app.n_tasks,
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
        let listener = self.listener.clone();
        self.info
            .borrow_mut()
            .set_sink(Box::new(move |at, d| listener.on_info_fallback(at, d)));
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

    /// Phase 3 — steps 1–4 of Figure 1: derive the plan at submission
    /// time.
    pub(crate) fn plan(&mut self) -> Result<ExecutionPlan, RunError> {
        let mut selection_rng = self.sim.fork_rng("resource-selection");
        let _prof = self.sim.profiler().scope("middleware.plan");
        ExecutionManager::default()
            .derive_plan_with_rng(
                self.submitted,
                self.app,
                &mut self.bundle.borrow_mut(),
                self.strategy,
                &mut selection_rng,
            )
            .map_err(RunError::Unplannable)
    }

    /// Phase 4 — steps 5–6: thread fault chances and recovery knobs into
    /// the managers, subscribe the listener, submit.
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
        if let Some(det) = detection(self.options) {
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
        let Crew { pm, um } = self.listener.crew.get_or_init(|| Crew { pm, um });
        // One subscription per signal, before anything is submitted so the
        // first transitions are journaled. The unit manager subscribed to
        // pilot transitions in `UnitManager::new`, so it reacts first.
        let l = self.listener.clone();
        pm.subscribe(move |sim, ev| l.on_pilot(sim, ev));
        let l = self.listener.clone();
        pm.on_blacklist(move |sim, resource| l.on_blacklist(sim, resource));
        let l = self.listener.clone();
        pm.on_detector_event(move |sim, ev| l.on_detector(sim, ev));
        for svc in services(&self.clusters, &self.session) {
            let l = self.listener.clone();
            svc.on_breaker_trip(move |sim, resource| l.on_breaker_trip(sim, resource));
        }
        let l = self.listener.clone();
        um.subscribe(move |sim, ev| l.on_unit(sim, ev));
        let l = self.listener.clone();
        um.on_salvage(move |sim, ev| l.on_salvage(sim, ev));
        let l = self.listener.clone();
        um.on_all_done(move |sim| l.on_all_done(sim));
        pm.submit(&mut self.sim, plan.pilots.clone());
        let skeleton = self.skeleton.take().expect("a world is enacted once");
        um.submit_units(&mut self.sim, skeleton.tasks());
        Ok(self.listener.crew().clone())
    }

    /// Phase 5 — arm the fault schedule and the recovery machinery. All
    /// times are relative to submission. Re-planning is shared by the
    /// scheduled fault model and the signal-driven path (breaker trips,
    /// blacklists, domain alarms), so it is armed outside the schedule
    /// gate; a fault-free, detection-free run arms nothing and replays the
    /// legacy event stream exactly.
    pub(crate) fn arm_recovery(&mut self) {
        if self.schedule.is_none() && detection(self.options).is_none() {
            return;
        }
        let policy = self.options.recovery.as_ref();
        self.listener.recovery.get_or_init(|| Recovery {
            replan: policy.is_some_and(|r| r.replan_on_resource_loss),
            bundle: self.bundle.clone(),
            rng: RefCell::new(self.sim.fork_rng("replan")),
            app: self.app,
            strategy: self.strategy.clone(),
            names: self.clusters.iter().map(|c| c.name()).collect(),
            evacuation: Evacuation::new(self.options),
        });
        self.arm_schedule();
    }

    /// The compiled schedule's timed faults: the staging bandwidth dip,
    /// heartbeat-delay windows and outages.
    fn arm_schedule(&mut self) {
        let Some(sched) = &self.schedule else { return };
        let (submitted, crew) = (self.submitted, self.listener.crew());
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
        let oracle = detection(self.options).is_none();
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
            let (resource, listener) = (o.resource.clone(), self.listener.clone());
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
                        listener.ledger.borrow_mut().lost.push(resource);
                    });
                }
                OutageKind::Permanent => {
                    self.sim.schedule_at(at, move |sim| {
                        let pm = &listener.crew().pm;
                        // Count live pilots before the axe falls so the
                        // re-plan knows how much capacity to rebuild.
                        let doomed = pm.live_on(&resource).len();
                        // Blacklist first: replacement logic triggered by
                        // the kills below must not resubmit to a corpse.
                        pm.blacklist(&resource);
                        cluster.decommission(sim);
                        listener.ledger.borrow_mut().lost.push(resource.clone());
                        listener.replan(sim, &resource, doomed);
                    });
                }
            }
        }
    }

    /// Phase 6 — run until the application completes, the interrupt
    /// fires, the deadline passes, the event budget runs out or the queue
    /// drains, checked in that order. One exit: engine
    /// queue-health counters are published on every exit (passive on
    /// both sinks), then the events still pending are dropped unrun, so
    /// `assemble` does not hold the queue's storage, and a death leaves a
    /// post-mortem dump named after its reason before its typed error is
    /// returned.
    pub(crate) fn drive(&mut self) -> Result<SimTime, RunError> {
        let deadline = self.submitted + self.options.deadline;
        let interrupt_at = self.options.interrupt_at.map(|d| self.submitted + d);
        let (listener, finished) = (&self.listener, &self.listener.finished);
        let halted = |at: SimTime| {
            finished.get().is_some() || interrupt_at.is_some_and(|t| at >= t) || at > deadline
        };
        let run = self.sim.run_while(|sim| !halted(sim.now()));
        let at = self.sim.now();
        let stats = listener.crew().um.stats();
        let outcome: Result<SimTime, (String, RunError)> = match finished.get() {
            Some(t) => Ok(t),
            // Simulated middleware crash: stop dead. Whatever the journal
            // holds now is exactly what a crashed writer would have
            // persisted.
            None if interrupt_at.is_some_and(|t| at >= t) => {
                Err(("interrupted".into(), RunError::Interrupted { at, stats }))
            }
            None if at > deadline => {
                let err = RunError::DeadlineExceeded {
                    n_tasks: self.app.n_tasks,
                    strategy_label: self.strategy.label(),
                    at,
                    stats,
                };
                Err(("deadline-exceeded".into(), err))
            }
            None if run == RunOutcome::BudgetExhausted => Err((
                "event-budget-exhausted".into(),
                RunError::EventBudgetExhausted { at, stats },
            )),
            None => Err(match listener.ledger.borrow().lost.first() {
                Some(resource) => (
                    format!("resource-lost-{resource}"),
                    RunError::ResourceLost {
                        resource: resource.clone(),
                        stats,
                    },
                ),
                None => ("pilots-drained".into(), RunError::PilotsDrained { stats }),
            }),
        };
        self.sim.publish_engine_stats();
        self.sim.discard_pending();
        outcome.map_err(|(reason, err)| {
            listener.log.dump(&reason);
            err
        })
    }

    /// Phase 7 — the measured outcome: TTC decomposition, allocation
    /// accounting (§V: charged = active pilot spans, used = task
    /// execution core time), recovery and info-plane counters, and the
    /// telemetry summary with its pilot/unit spans.
    pub(crate) fn assemble(self, resources_used: Vec<String>, finished_at: SimTime) -> RunResult {
        let listener = self.listener.clone();
        let crew = listener.crew();
        let stats = crew.um.stats();
        // Borrowed views: nothing below fires a manager callback.
        let units = crew.um.units_ref();
        let pilots = crew.pm.pilots_ref();
        let mut breakdown = decompose(&units, &pilots, self.submitted, finished_at);
        // Td: union of the silent → declared windows. Only the detector
        // knows when silence began, so decompose cannot derive this from
        // unit/pilot timestamps.
        breakdown.td = interval_union(crew.pm.detection_windows());
        let ttc_secs = breakdown.ttc.as_secs();
        listener
            .log
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
                    .map(|d| f64::from(u.work.cores) * d.as_hours())
            })
            .sum();
        let metrics = self.options.telemetry.as_ref().map(|telemetry| {
            add_spans(telemetry, &pilots, &units, finished_at);
            telemetry.summary()
        });
        let info_stats = self.info.borrow().stats();
        let (wasted, salvaged) = salvage_split(&units, &crew.um.checkpoints_ref());
        let ledger = listener.ledger.borrow();
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
            n_tasks: self.app.n_tasks,
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
        for (i, (state, start)) in u.timestamps.iter().enumerate() {
            if state != UnitState::Executing {
                continue;
            }
            let end = u.timestamps.get(i + 1).map_or(finished_at, |(_, t)| t);
            telemetry.add_span(Span {
                track: pilot.description.resource.clone(),
                lane: u.id.to_string(),
                name: u.id.to_string(),
                category: "unit".into(),
                start,
                end,
                args: vec![
                    ("pilot".into(), pid.to_string()),
                    ("cores".into(), u.work.cores.to_string()),
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
    fn unsampleable_background_load_is_a_typed_error() {
        let mut pool = idle_pool();
        let mut workload = aimes_workload::WorkloadConfig::production_like();
        workload.runtime_dist = aimes_workload::Distribution::Gamma {
            shape: 0.0,
            scale: 60.0,
        };
        pool[2].workload = Some(workload);
        let err = run_application(
            &pool,
            &paper_bag(8, TaskDurationSpec::Uniform15Min),
            &ExecutionStrategy::paper_early(),
            &RunOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err.kind(), "invalid_workload_config");
        assert_eq!(
            err.to_string(),
            "invalid background workload config: c: runtime_dist: gamma shape 0 must be positive"
        );
    }

    /// Run `run_application` on the idle pool with resource `b` edited.
    fn run_with_bad_cluster(edit: impl FnOnce(&mut ClusterConfig)) -> RunError {
        let mut pool = idle_pool();
        edit(&mut pool[1]);
        let err = run_application(
            &pool,
            &paper_bag(8, TaskDurationSpec::Uniform15Min),
            &ExecutionStrategy::paper_early(),
            &RunOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err.kind(), "invalid_cluster_config");
        err
    }

    #[test]
    fn zero_core_cluster_is_a_typed_error() {
        let err = run_with_bad_cluster(|c| c.total_cores = 0);
        assert_eq!(
            err.to_string(),
            "invalid cluster config: b: total_cores must be positive"
        );
    }

    #[test]
    fn queueless_cluster_is_a_typed_error() {
        let err = run_with_bad_cluster(|c| c.queues.clear());
        assert!(err.contains("b: needs at least one queue"), "{err}");
    }

    #[test]
    fn duplicate_queue_name_is_a_typed_error() {
        let err = run_with_bad_cluster(|c| c.queues.push(c.queues[0].clone()));
        assert!(err.contains("`normal` repeats"), "{err}");
    }

    #[test]
    fn infinite_backlog_is_a_typed_error_not_a_hang() {
        let err = run_with_bad_cluster(|c| {
            c.workload = Some(aimes_workload::WorkloadConfig::production_like());
            c.initial_backlog_factor = f64::INFINITY;
        });
        assert!(err.contains("initial_backlog_factor inf"), "{err}");
        let err = run_with_bad_cluster(|c| c.initial_backlog_factor = -1.0);
        assert!(err.contains("initial_backlog_factor -1"), "{err}");
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

    #[test]
    fn drive_reports_a_spent_event_budget_as_such() {
        let app = paper_bag(16, TaskDurationSpec::Gaussian);
        let strategy = ExecutionStrategy::paper_late(2);
        let opts = RunOptions {
            seed: 7,
            submit_at: SimTime::from_secs(50.0),
            ..Default::default()
        };
        let mut world = RunWorld::build(&idle_pool(), &app, &strategy, &opts).unwrap();
        let plan = world.plan().unwrap();
        world.enact(&plan).unwrap();
        world.arm_recovery();
        // A few events past submission: the pilots are not even active.
        let budget = world.sim.events_processed() + 3;
        world.sim.set_event_budget(budget);
        let err = world.drive().unwrap_err();
        assert!(
            matches!(err, RunError::EventBudgetExhausted { .. }),
            "{err}"
        );
        assert_eq!(err.kind(), "event_budget_exhausted");
        assert_eq!(world.sim.events_processed(), budget);
    }
}
