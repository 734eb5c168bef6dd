//! # aimes-fault — deterministic fault injection and recovery policies
//!
//! The paper's execution strategies are evaluated on production machines
//! whose failure behaviour cannot be replayed. This crate makes failure a
//! first-class, *reproducible* experiment variable: a [`FaultSpec`]
//! describes what may go wrong, and compiling it against the run seed
//! yields a concrete [`FaultSchedule`] — the exact same outages, launch
//! failures, and unit faults on every replay with the same seed.
//!
//! Five fault classes are modelled, one per middleware layer:
//!
//! * **resource outages** (cluster layer) — a machine goes down for a
//!   window, killing the jobs it was running; *drains* suppress dispatch
//!   without killing; *permanent* outages remove the resource for good;
//! * **launch failures** (SAGA adaptor layer) — extra transient
//!   submission failures on top of the adaptor's own rate, plus a
//!   probability that a submission fails permanently;
//! * **unit faults** (pilot agent layer) — a task dies mid-execution,
//!   transiently (retryable) or permanently (poisoned input);
//! * **staging degradation** (data layer) — the origin uplink loses
//!   bandwidth for a window;
//! * **information degradation** (bundle layer) — queue-state queries
//!   return garbage, time out, or black out entirely for a window; the
//!   resource keeps working, but decisions about it run on stale
//!   knowledge.
//!
//! The companion [`RecoveryPolicy`] configures the self-healing layer:
//! pilot replacement with capped exponential backoff, per-resource
//! blacklisting, bounded unit retries, and strategy re-planning on
//! permanent resource loss.

use aimes_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// What an outage does to the resource.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum OutageKind {
    /// Hard outage: running jobs are killed, no dispatch in the window.
    Outage,
    /// Scheduled drain: running jobs finish, but nothing new starts.
    Drain,
    /// The resource never comes back (decommissioned / network-severed).
    Permanent,
}

/// One declared outage window.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OutageSpec {
    pub resource: String,
    /// Window start, in seconds after application submission.
    pub at_secs: f64,
    /// Window length in seconds (ignored for [`OutageKind::Permanent`]).
    pub duration_secs: f64,
    pub kind: OutageKind,
}

/// A staging-degradation window on the origin uplink.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct StagingFault {
    /// Window start, in seconds after application submission.
    pub at_secs: f64,
    pub duration_secs: f64,
    /// Bandwidth multiplier during the window, in (0, 1].
    pub bandwidth_factor: f64,
}

/// A window in which a resource's heartbeats are delivered late (a slow
/// or partitioned WAN path). Only observable when failure detection is
/// enabled: the delay can push a live pilot past the suspicion — or even
/// the declaration — threshold, which is exactly the false-positive
/// behaviour the detector must be measured against.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HeartbeatDelaySpec {
    pub resource: String,
    /// Window start, in seconds after application submission.
    pub at_secs: f64,
    /// Window length in seconds.
    pub duration_secs: f64,
    /// Extra delivery delay for heartbeats emitted inside the window.
    pub delay_secs: f64,
}

/// A window in which a resource's *information channel* answers nothing:
/// queue-state queries time out instead of returning an estimate. The
/// resource itself keeps running — only the knowledge about it is gone,
/// which is exactly the gap between a machine being up and the middleware
/// knowing it is up.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct InfoBlackoutSpec {
    /// Resource name, or `"*"` for every resource in the pool.
    pub resource: String,
    /// Window start, in seconds after application submission.
    pub at_secs: f64,
    /// Window length in seconds.
    pub duration_secs: f64,
}

/// What one information-channel query observed.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum InfoOutcome {
    /// The channel answered with a usable value.
    Ok,
    /// The channel answered, but the payload is garbage (stale daemon,
    /// truncated response, wrong units) and must not be trusted.
    Corrupt,
    /// The channel did not answer at all.
    Unavailable,
}

/// The information-channel fault family: degradation of *knowledge about*
/// resources rather than of the resources themselves. Blackout windows
/// make queries time out deterministically; the per-query chances model a
/// flaky information service. Like every other family here, the outcomes
/// are drawn from per-resource forked streams, so the answers one
/// resource's channel gives do not depend on how often the others are
/// queried.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct InfoFaultSpec {
    /// Deterministic unavailability windows.
    #[serde(default)]
    pub blackouts: Vec<InfoBlackoutSpec>,
    /// Per-query probability the answer is garbage.
    #[serde(default)]
    pub corrupt_chance: f64,
    /// Per-query probability the channel does not answer (outside any
    /// blackout window, which is always unavailable).
    #[serde(default)]
    pub unavailable_chance: f64,
}

impl InfoFaultSpec {
    /// A spec that degrades nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// True if the spec cannot perturb any query.
    pub fn is_noop(&self) -> bool {
        self.blackouts.is_empty() && self.corrupt_chance <= 0.0 && self.unavailable_chance <= 0.0
    }

    /// Reject declarations that cannot mean what they say, in the same
    /// spirit as [`FaultSpec::validate`].
    pub fn validate(&self) -> Result<(), String> {
        for (chance, name) in [
            (self.corrupt_chance, "info.corrupt_chance"),
            (self.unavailable_chance, "info.unavailable_chance"),
        ] {
            if !(chance.is_finite() && (0.0..=1.0).contains(&chance)) {
                return Err(format!("{name} {chance}: must be in [0, 1]"));
            }
        }
        for b in &self.blackouts {
            if !(b.at_secs.is_finite() && b.at_secs >= 0.0) {
                return Err(format!(
                    "info.blackouts[{}].at_secs {}: must be finite and non-negative",
                    b.resource, b.at_secs
                ));
            }
            if !(b.duration_secs.is_finite() && b.duration_secs > 0.0) {
                return Err(format!(
                    "info.blackouts[{}].duration_secs {}: empty window",
                    b.resource, b.duration_secs
                ));
            }
        }
        Ok(())
    }

    /// Resolve the channel outcome for one query on `resource`, issued
    /// `since_submit_secs` after application submission. `rng` must be the
    /// resource's dedicated stream (fork `info.{resource}` from the run
    /// seed): the outcome sequence one channel produces then depends only
    /// on the seed and that channel's own query sequence.
    pub fn outcome(&self, resource: &str, since_submit_secs: f64, rng: &mut SimRng) -> InfoOutcome {
        // Draw order is fixed (unavailable, then corrupt) and both draws
        // always happen, so the stream position is a pure function of the
        // query count even when one chance is zero.
        let unavailable = rng.chance(self.unavailable_chance.clamp(0.0, 1.0));
        let corrupt = rng.chance(self.corrupt_chance.clamp(0.0, 1.0));
        let blacked_out = self.blackouts.iter().any(|b| {
            (b.resource == "*" || b.resource == resource)
                && since_submit_secs >= b.at_secs
                && since_submit_secs < b.at_secs + b.duration_secs
        });
        if blacked_out || unavailable {
            InfoOutcome::Unavailable
        } else if corrupt {
            InfoOutcome::Corrupt
        } else {
            InfoOutcome::Ok
        }
    }
}

/// A named failure domain: resources that share a fate-carrying
/// dependency — a zone, a parallel filesystem, a network segment — and
/// therefore tend to die together rather than independently.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DomainSpec {
    pub name: String,
    /// Resource names belonging to the domain. A resource belongs to at
    /// most one domain.
    pub members: Vec<String>,
}

/// The correlated-failure fault family: a trigger outage inside one
/// failure domain that may propagate to the domain's other members after
/// a per-member delay. Propagation verdicts and delays are drawn from a
/// *per-domain* forked stream (`cascade.{domain}`), so a fixed-seed
/// cascade replays byte-identically and does not depend on pool order or
/// on what the other domains are doing.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CascadeSpec {
    /// The failure domains over the run's resource pool.
    pub domains: Vec<DomainSpec>,
    /// The initiating outage. Its resource must belong to a domain; the
    /// cascade spreads to that domain's other members.
    pub trigger: OutageSpec,
    /// Per-member probability the trigger propagates to it.
    #[serde(default = "default_propagation_chance")]
    pub propagation_chance: f64,
    /// Propagation delay range `[lo, hi)` in seconds after the trigger.
    #[serde(default = "default_propagation_delay")]
    pub propagation_delay_secs: (f64, f64),
}

fn default_propagation_chance() -> f64 {
    1.0
}

fn default_propagation_delay() -> (f64, f64) {
    (30.0, 300.0)
}

impl CascadeSpec {
    /// The domain a resource belongs to, if any.
    pub fn domain_of(&self, resource: &str) -> Option<&DomainSpec> {
        self.domains
            .iter()
            .find(|d| d.members.iter().any(|m| m == resource))
    }

    /// Reject declarations that cannot mean what they say, in the same
    /// spirit as [`FaultSpec::validate`].
    pub fn validate(&self) -> Result<(), String> {
        if self.domains.is_empty() {
            return Err("cascade.domains: at least one failure domain required".into());
        }
        let mut seen_domains = std::collections::BTreeSet::new();
        let mut seen_members = std::collections::BTreeSet::new();
        for d in &self.domains {
            if d.name.is_empty() {
                return Err("cascade.domains: empty domain name".into());
            }
            if !seen_domains.insert(d.name.as_str()) {
                return Err(format!(
                    "cascade.domains[{}]: duplicate domain name",
                    d.name
                ));
            }
            if d.members.is_empty() {
                return Err(format!("cascade.domains[{}]: no members", d.name));
            }
            for m in &d.members {
                if !seen_members.insert(m.as_str()) {
                    return Err(format!(
                        "cascade.domains[{}]: resource {m} is in more than one domain",
                        d.name
                    ));
                }
            }
        }
        if self.domain_of(&self.trigger.resource).is_none() {
            return Err(format!(
                "cascade.trigger resource {} belongs to no declared domain",
                self.trigger.resource
            ));
        }
        if !(self.trigger.at_secs.is_finite() && self.trigger.at_secs >= 0.0) {
            return Err(format!(
                "cascade.trigger.at_secs {}: must be finite and non-negative",
                self.trigger.at_secs
            ));
        }
        if !(self.propagation_chance.is_finite() && (0.0..=1.0).contains(&self.propagation_chance))
        {
            return Err(format!(
                "cascade.propagation_chance {}: must be in [0, 1]",
                self.propagation_chance
            ));
        }
        let (lo, hi) = self.propagation_delay_secs;
        if !lo.is_finite() || !hi.is_finite() || lo < 0.0 {
            return Err(format!(
                "cascade.propagation_delay_secs ({lo}, {hi}): bounds must be \
                 finite and non-negative"
            ));
        }
        if hi < lo {
            return Err(format!(
                "cascade.propagation_delay_secs ({lo}, {hi}): inverted range"
            ));
        }
        Ok(())
    }
}

/// Declarative fault model for one run. Compile against the run seed with
/// [`FaultSpec::compile`] to obtain the concrete, replayable schedule.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Explicit outage windows.
    #[serde(default)]
    pub outages: Vec<OutageSpec>,
    /// Expected number of *random* transient outages per resource drawn
    /// uniformly over `[0, horizon_secs)`.
    #[serde(default)]
    pub random_outages_per_resource: f64,
    /// Random-outage duration range `[lo, hi)` in seconds.
    #[serde(default = "default_outage_duration")]
    pub random_outage_duration_secs: (f64, f64),
    /// Horizon for random-outage placement, in seconds after submission.
    #[serde(default = "default_horizon")]
    pub horizon_secs: f64,
    /// Extra transient submission-failure probability, added to the
    /// adaptor's own rate.
    #[serde(default)]
    pub launch_transient_chance: f64,
    /// Probability a pilot submission fails permanently (no retries).
    #[serde(default)]
    pub launch_permanent_chance: f64,
    /// Per-attempt probability a unit dies mid-execution.
    #[serde(default)]
    pub unit_failure_chance: f64,
    /// Given a unit fault, probability it is permanent (the unit is
    /// poisoned and fails without further retries).
    #[serde(default)]
    pub unit_permanent_chance: f64,
    /// Optional origin-uplink degradation window.
    #[serde(default)]
    pub staging: Option<StagingFault>,
    /// Heartbeat-delivery delay windows (observable only with failure
    /// detection enabled).
    #[serde(default)]
    pub heartbeat_delays: Vec<HeartbeatDelaySpec>,
    /// Information-channel degradation (bundle layer).
    #[serde(default)]
    pub info: InfoFaultSpec,
    /// Correlated-failure cascade over named failure domains.
    #[serde(default)]
    pub cascade: Option<CascadeSpec>,
}

fn default_outage_duration() -> (f64, f64) {
    (600.0, 3600.0)
}

fn default_horizon() -> f64 {
    24.0 * 3600.0
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            outages: Vec::new(),
            random_outages_per_resource: 0.0,
            random_outage_duration_secs: default_outage_duration(),
            horizon_secs: default_horizon(),
            launch_transient_chance: 0.0,
            launch_permanent_chance: 0.0,
            unit_failure_chance: 0.0,
            unit_permanent_chance: 0.0,
            staging: None,
            heartbeat_delays: Vec::new(),
            info: InfoFaultSpec::default(),
            cascade: None,
        }
    }
}

impl FaultSpec {
    /// A spec that injects nothing (the identity fault model).
    pub fn none() -> Self {
        Self::default()
    }

    /// True if the spec cannot perturb a run at all.
    pub fn is_noop(&self) -> bool {
        self.outages.is_empty()
            && self.random_outages_per_resource <= 0.0
            && self.launch_transient_chance <= 0.0
            && self.launch_permanent_chance <= 0.0
            && self.unit_failure_chance <= 0.0
            && self.staging.is_none()
            && self.heartbeat_delays.is_empty()
            && self.info.is_noop()
            && self.cascade.is_none()
    }

    /// Check the spec for declarations that cannot mean what they say.
    /// [`FaultSpec::compile`] assumes a validated spec; callers that
    /// accept specs from outside (the middleware, experiment configs)
    /// should reject invalid ones instead of running a schedule that
    /// silently deviates from the declaration.
    pub fn validate(&self) -> Result<(), String> {
        let (lo, hi) = self.random_outage_duration_secs;
        if !lo.is_finite() || !hi.is_finite() || lo < 0.0 {
            return Err(format!(
                "random_outage_duration_secs ({lo}, {hi}): bounds must be finite and non-negative"
            ));
        }
        if hi < lo {
            return Err(format!(
                "random_outage_duration_secs ({lo}, {hi}): inverted range"
            ));
        }
        if self.random_outages_per_resource > 0.0 && hi <= lo {
            return Err(format!(
                "random_outage_duration_secs ({lo}, {hi}): empty range [lo, hi) \
                 with random outages enabled"
            ));
        }
        if let Some(s) = &self.staging {
            if !(s.bandwidth_factor > 0.0 && s.bandwidth_factor <= 1.0) {
                return Err(format!(
                    "staging.bandwidth_factor {}: must be in (0, 1]",
                    s.bandwidth_factor
                ));
            }
        }
        for h in &self.heartbeat_delays {
            if !(h.delay_secs.is_finite() && h.delay_secs > 0.0) {
                return Err(format!(
                    "heartbeat_delays[{}].delay_secs {}: must be finite and positive",
                    h.resource, h.delay_secs
                ));
            }
            if !(h.duration_secs.is_finite() && h.duration_secs > 0.0) {
                return Err(format!(
                    "heartbeat_delays[{}].duration_secs {}: empty window",
                    h.resource, h.duration_secs
                ));
            }
        }
        self.info.validate()?;
        if let Some(c) = &self.cascade {
            c.validate()?;
        }
        Ok(())
    }

    /// Expand the spec into a concrete schedule. `resources` is the pool
    /// the run executes on; `rng` should be forked from the run seed so
    /// the same seed always yields the same schedule. The spec must pass
    /// [`FaultSpec::validate`]; a degenerate duration range here collapses
    /// to its lower bound rather than being silently widened.
    pub fn compile(&self, resources: &[String], rng: &mut SimRng) -> FaultSchedule {
        let mut outages: Vec<ScheduledOutage> = self
            .outages
            .iter()
            .map(|o| ScheduledOutage {
                resource: o.resource.clone(),
                at: SimTime::from_secs(o.at_secs),
                duration: SimDuration::from_secs(o.duration_secs.max(0.0)),
                kind: o.kind,
            })
            .collect();
        if self.random_outages_per_resource > 0.0 {
            let (lo, hi) = self.random_outage_duration_secs;
            for resource in resources {
                // Deterministic per-resource stream: the outage pattern on
                // one machine does not depend on the pool ordering.
                let mut r = rng.fork(&format!("outages.{resource}"));
                let n = self.random_outages_per_resource.floor() as u32
                    + u32::from(r.chance(self.random_outages_per_resource.fract()));
                for _ in 0..n {
                    let at = r.uniform(0.0, self.horizon_secs.max(1.0));
                    let duration = if hi > lo { r.uniform(lo, hi) } else { lo };
                    outages.push(ScheduledOutage {
                        resource: resource.clone(),
                        at: SimTime::from_secs(at),
                        duration: SimDuration::from_secs(duration),
                        kind: OutageKind::Outage,
                    });
                }
            }
        }
        if let Some(c) = &self.cascade {
            outages.push(ScheduledOutage {
                resource: c.trigger.resource.clone(),
                at: SimTime::from_secs(c.trigger.at_secs),
                duration: SimDuration::from_secs(c.trigger.duration_secs.max(0.0)),
                kind: c.trigger.kind,
            });
            if let Some(domain) = c.domain_of(&c.trigger.resource) {
                // Per-domain stream: the verdicts and delays one domain's
                // cascade produces depend only on the seed and the domain
                // name. Both draws always happen per member, so each
                // member's stream position is fixed whatever the chance
                // resolves to.
                let mut r = rng.fork(&format!("cascade.{}", domain.name));
                let (lo, hi) = c.propagation_delay_secs;
                for member in &domain.members {
                    if *member == c.trigger.resource {
                        continue;
                    }
                    let hit = r.chance(c.propagation_chance.clamp(0.0, 1.0));
                    let delay = if hi > lo { r.uniform(lo, hi) } else { lo };
                    if hit {
                        outages.push(ScheduledOutage {
                            resource: member.clone(),
                            at: SimTime::from_secs(c.trigger.at_secs + delay),
                            duration: SimDuration::from_secs(c.trigger.duration_secs.max(0.0)),
                            kind: c.trigger.kind,
                        });
                    }
                }
            }
        }
        outages.sort_by(|a, b| a.at.cmp(&b.at).then_with(|| a.resource.cmp(&b.resource)));
        FaultSchedule {
            outages,
            launch_transient_chance: self.launch_transient_chance.clamp(0.0, 0.95),
            launch_permanent_chance: self.launch_permanent_chance.clamp(0.0, 1.0),
            unit_failure_chance: self.unit_failure_chance.clamp(0.0, 1.0),
            unit_permanent_chance: self.unit_permanent_chance.clamp(0.0, 1.0),
            staging: self.staging,
            heartbeat_delays: self.heartbeat_delays.clone(),
            info: InfoFaultSpec {
                blackouts: self.info.blackouts.clone(),
                corrupt_chance: self.info.corrupt_chance.clamp(0.0, 1.0),
                unavailable_chance: self.info.unavailable_chance.clamp(0.0, 1.0),
            },
        }
    }
}

/// A concrete, fully resolved outage.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScheduledOutage {
    pub resource: String,
    pub at: SimTime,
    pub duration: SimDuration,
    pub kind: OutageKind,
}

/// The compiled, replayable fault schedule for one run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// Outages sorted by start time.
    pub outages: Vec<ScheduledOutage>,
    pub launch_transient_chance: f64,
    pub launch_permanent_chance: f64,
    pub unit_failure_chance: f64,
    pub unit_permanent_chance: f64,
    pub staging: Option<StagingFault>,
    /// Heartbeat-delivery delay windows, verbatim from the spec.
    #[serde(default)]
    pub heartbeat_delays: Vec<HeartbeatDelaySpec>,
    /// Information-channel degradation, with clamped chances. Outcomes are
    /// resolved per query via [`InfoFaultSpec::outcome`].
    #[serde(default)]
    pub info: InfoFaultSpec,
}

/// Phi-accrual thresholds for [`DetectionSpec`]: the silence threshold is
/// `phi · mean_interval · ln 10`, with the mean adapting to the observed
/// heartbeat inter-arrivals over a sliding window.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PhiSpec {
    /// Phi at which a pilot becomes Suspected.
    pub suspect_phi: f64,
    /// Phi at which a pilot is Declared-Dead.
    pub declare_phi: f64,
    /// Sliding-window length (inter-arrival samples).
    pub window: usize,
}

/// Failure-detection configuration. When present, the middleware stops
/// consuming fault-injection ground truth for recovery: pilots emit
/// heartbeats, a per-pilot suspicion detector turns silence into
/// declarations (paying a detection latency Td), and per-resource circuit
/// breakers on the SAGA layer turn repeated operation failures into
/// blacklisting and re-planning.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DetectionSpec {
    /// Agent heartbeat period.
    #[serde(default = "default_heartbeat")]
    pub heartbeat_secs: f64,
    /// Silence before Healthy → Suspected (timeout mode).
    #[serde(default = "default_suspect_after")]
    pub suspect_after_secs: f64,
    /// Silence before Suspected → Declared-Dead (timeout mode).
    #[serde(default = "default_declare_after")]
    pub declare_after_secs: f64,
    /// Switch to phi-accrual thresholds instead of fixed timeouts.
    #[serde(default)]
    pub phi: Option<PhiSpec>,
    /// On suspicion, issue a SAGA status query; a terminal answer
    /// declares immediately (short Td).
    #[serde(default = "default_true")]
    pub confirm_with_status_query: bool,
    /// Consecutive SAGA operation failures before a resource's circuit
    /// breaker opens (feeding blacklist / re-planning).
    #[serde(default = "default_breaker_threshold")]
    pub breaker_failure_threshold: u32,
    /// How long an open breaker waits before admitting a half-open probe.
    #[serde(default = "default_breaker_cooldown")]
    pub breaker_cooldown_secs: f64,
}

fn default_heartbeat() -> f64 {
    60.0
}
fn default_suspect_after() -> f64 {
    150.0
}
fn default_declare_after() -> f64 {
    300.0
}
fn default_breaker_threshold() -> u32 {
    5
}
fn default_breaker_cooldown() -> f64 {
    300.0
}

impl Default for DetectionSpec {
    fn default() -> Self {
        DetectionSpec {
            heartbeat_secs: default_heartbeat(),
            suspect_after_secs: default_suspect_after(),
            declare_after_secs: default_declare_after(),
            phi: None,
            confirm_with_status_query: true,
            breaker_failure_threshold: default_breaker_threshold(),
            breaker_cooldown_secs: default_breaker_cooldown(),
        }
    }
}

/// Proactive-evacuation configuration: how many failure signals
/// (suspicions, declarations, or pilot failures) inside one failure
/// domain within a sliding window raise a `DomainAlarm`. On alarm the
/// middleware drains the domain's surviving pilots and re-plans their
/// units onto unaffected domains instead of waiting for each pilot to be
/// declared dead individually. Only meaningful when the run's
/// [`FaultSpec`] declares cascade domains.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EvacuationSpec {
    /// Signals within the window before the domain alarms.
    #[serde(default = "default_alarm_threshold")]
    pub alarm_threshold: u32,
    /// Sliding-window length in seconds.
    #[serde(default = "default_alarm_window")]
    pub alarm_window_secs: f64,
}

fn default_alarm_threshold() -> u32 {
    2
}

fn default_alarm_window() -> f64 {
    600.0
}

impl Default for EvacuationSpec {
    fn default() -> Self {
        EvacuationSpec {
            alarm_threshold: default_alarm_threshold(),
            alarm_window_secs: default_alarm_window(),
        }
    }
}

/// Self-healing configuration. `None` at the run level means the legacy
/// behaviour: failed pilots stay dead and unit retries are immediate.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Replace failed pilots (same description, possibly another
    /// resource) after a backoff.
    #[serde(default = "default_true")]
    pub pilot_replacement: bool,
    /// Replacement generations allowed per original pilot.
    #[serde(default = "default_max_replacements")]
    pub max_replacements_per_pilot: u32,
    /// First replacement backoff; doubles per generation.
    #[serde(default = "default_backoff")]
    pub replacement_backoff: SimDuration,
    /// Cap on the exponential replacement backoff, and on the unit
    /// retry backoff too.
    #[serde(default = "default_backoff_cap")]
    pub replacement_backoff_cap: SimDuration,
    /// Blacklist a resource after this many consecutive launch failures.
    #[serde(default = "default_blacklist_after")]
    pub blacklist_after: u32,
    /// Base backoff before a failed unit re-enters the ready queue;
    /// doubles per attempt. Zero restores immediate restart.
    #[serde(default)]
    pub unit_retry_backoff: SimDuration,
    /// Re-derive the execution strategy over surviving resources when a
    /// resource is lost permanently.
    #[serde(default = "default_true")]
    pub replan_on_resource_loss: bool,
    /// Signal-based failure detection. `None` keeps the oracle behaviour
    /// of PR 1 (recovery reacts at the injection instant); `Some` makes
    /// recovery purely signal-driven.
    #[serde(default)]
    pub detection: Option<DetectionSpec>,
    /// Proactive domain evacuation on correlated-failure alarms. `None`
    /// keeps recovery purely reactive (per-pilot).
    #[serde(default)]
    pub evacuation: Option<EvacuationSpec>,
    /// Checkpoint boundary interval for executing units. Zero (the
    /// default) disables checkpointing: an aborted attempt restarts from
    /// scratch. Non-zero makes a restarted attempt resume from the last
    /// boundary, salvaging the checkpointed core-hours.
    #[serde(default)]
    pub checkpoint_interval: SimDuration,
}

fn default_true() -> bool {
    true
}
fn default_max_replacements() -> u32 {
    3
}
fn default_backoff() -> SimDuration {
    SimDuration::from_secs(60.0)
}
fn default_backoff_cap() -> SimDuration {
    SimDuration::from_secs(900.0)
}
fn default_blacklist_after() -> u32 {
    3
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            pilot_replacement: true,
            max_replacements_per_pilot: default_max_replacements(),
            replacement_backoff: default_backoff(),
            replacement_backoff_cap: default_backoff_cap(),
            blacklist_after: default_blacklist_after(),
            unit_retry_backoff: SimDuration::from_secs(5.0),
            replan_on_resource_loss: true,
            detection: None,
            evacuation: None,
            checkpoint_interval: SimDuration::ZERO,
        }
    }
}

impl RecoveryPolicy {
    /// Recovery switched off entirely: faults surface as errors.
    pub fn disabled() -> Self {
        RecoveryPolicy {
            pilot_replacement: false,
            max_replacements_per_pilot: 0,
            replacement_backoff: SimDuration::ZERO,
            replacement_backoff_cap: SimDuration::ZERO,
            blacklist_after: u32::MAX,
            unit_retry_backoff: SimDuration::ZERO,
            replan_on_resource_loss: false,
            detection: None,
            evacuation: None,
            checkpoint_interval: SimDuration::ZERO,
        }
    }

    /// The default policy with signal-based detection switched on.
    pub fn with_detection() -> Self {
        RecoveryPolicy {
            detection: Some(DetectionSpec::default()),
            ..RecoveryPolicy::default()
        }
    }

    /// Check the policy for declarations that cannot mean what they say,
    /// in the same spirit as [`FaultSpec::validate`]. An inverted backoff
    /// cap used to be silently clamped at delay time; rejecting it here
    /// keeps the declared policy and the executed policy identical.
    pub fn validate(&self) -> Result<(), String> {
        if self.replacement_backoff_cap < self.replacement_backoff {
            return Err(format!(
                "replacement_backoff_cap {:.0}s < replacement_backoff {:.0}s: inverted cap",
                self.replacement_backoff_cap.as_secs(),
                self.replacement_backoff.as_secs()
            ));
        }
        if !self.unit_retry_backoff.is_zero()
            && self.replacement_backoff_cap < self.unit_retry_backoff
        {
            return Err(format!(
                "replacement_backoff_cap {:.0}s < unit_retry_backoff {:.0}s: inverted cap \
                 (the replacement cap also caps unit retries)",
                self.replacement_backoff_cap.as_secs(),
                self.unit_retry_backoff.as_secs()
            ));
        }
        if self.blacklist_after == 0 {
            return Err(
                "blacklist_after 0: every resource would be blacklisted before \
                 its first launch failure"
                    .into(),
            );
        }
        if let Some(e) = &self.evacuation {
            if e.alarm_threshold == 0 {
                return Err("evacuation.alarm_threshold 0: would alarm unconditionally".into());
            }
            if !(e.alarm_window_secs.is_finite() && e.alarm_window_secs > 0.0) {
                return Err(format!(
                    "evacuation.alarm_window_secs {}: empty window",
                    e.alarm_window_secs
                ));
            }
        }
        if !self.checkpoint_interval.as_secs().is_finite() {
            return Err("checkpoint_interval: must be finite".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Vec<String> {
        vec!["alpha".into(), "beta".into(), "gamma".into()]
    }

    #[test]
    fn noop_spec_compiles_empty() {
        let spec = FaultSpec::none();
        assert!(spec.is_noop());
        let mut rng = SimRng::new(7);
        let sched = spec.compile(&pool(), &mut rng);
        assert!(sched.outages.is_empty());
        assert_eq!(sched.unit_failure_chance, 0.0);
    }

    #[test]
    fn explicit_outages_preserved_and_sorted() {
        let spec = FaultSpec {
            outages: vec![
                OutageSpec {
                    resource: "beta".into(),
                    at_secs: 5000.0,
                    duration_secs: 600.0,
                    kind: OutageKind::Drain,
                },
                OutageSpec {
                    resource: "alpha".into(),
                    at_secs: 1000.0,
                    duration_secs: 300.0,
                    kind: OutageKind::Outage,
                },
            ],
            ..FaultSpec::default()
        };
        let sched = spec.compile(&pool(), &mut SimRng::new(1));
        assert_eq!(sched.outages.len(), 2);
        assert_eq!(sched.outages[0].resource, "alpha");
        assert_eq!(sched.outages[0].at, SimTime::from_secs(1000.0));
        assert_eq!(sched.outages[1].kind, OutageKind::Drain);
    }

    #[test]
    fn same_seed_same_schedule() {
        let spec = FaultSpec {
            random_outages_per_resource: 1.7,
            ..FaultSpec::default()
        };
        let a = spec.compile(&pool(), &mut SimRng::new(42));
        let b = spec.compile(&pool(), &mut SimRng::new(42));
        assert_eq!(a, b);
        let c = spec.compile(&pool(), &mut SimRng::new(43));
        assert_ne!(a, c, "different seeds should move the outages");
    }

    #[test]
    fn random_outages_fall_in_horizon() {
        let spec = FaultSpec {
            random_outages_per_resource: 3.0,
            horizon_secs: 10_000.0,
            random_outage_duration_secs: (100.0, 200.0),
            ..FaultSpec::default()
        };
        let sched = spec.compile(&pool(), &mut SimRng::new(9));
        assert_eq!(sched.outages.len(), 9); // 3 per resource, 3 resources
        for o in &sched.outages {
            assert!(o.at.as_secs() < 10_000.0);
            assert!(o.duration.as_secs() >= 100.0 && o.duration.as_secs() < 200.0);
            assert_eq!(o.kind, OutageKind::Outage);
        }
        // Sorted by start time.
        for w in sched.outages.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn outage_pattern_is_per_resource_stable() {
        // Removing one resource must not perturb the others' outages.
        let spec = FaultSpec {
            random_outages_per_resource: 2.0,
            ..FaultSpec::default()
        };
        let full = spec.compile(&pool(), &mut SimRng::new(5));
        let partial = spec.compile(&["alpha".to_string()], &mut SimRng::new(5));
        let full_alpha: Vec<_> = full
            .outages
            .iter()
            .filter(|o| o.resource == "alpha")
            .collect();
        let partial_alpha: Vec<_> = partial.outages.iter().collect();
        assert_eq!(full_alpha, partial_alpha);
    }

    #[test]
    fn validate_rejects_degenerate_duration_ranges() {
        assert!(FaultSpec::none().validate().is_ok());
        let empty = FaultSpec {
            random_outages_per_resource: 1.0,
            random_outage_duration_secs: (100.0, 100.0),
            ..FaultSpec::default()
        };
        assert!(empty.validate().unwrap_err().contains("empty range"));
        let inverted = FaultSpec {
            random_outage_duration_secs: (200.0, 100.0),
            ..FaultSpec::default()
        };
        assert!(inverted.validate().unwrap_err().contains("inverted"));
        let bad_staging = FaultSpec {
            staging: Some(StagingFault {
                at_secs: 0.0,
                duration_secs: 10.0,
                bandwidth_factor: 0.0,
            }),
            ..FaultSpec::default()
        };
        assert!(bad_staging.validate().is_err());
        // A point range without random outages is inert, hence legal.
        let inert = FaultSpec {
            random_outage_duration_secs: (100.0, 100.0),
            ..FaultSpec::default()
        };
        assert!(inert.validate().is_ok());
    }

    #[test]
    fn narrow_duration_ranges_are_not_widened() {
        // Sub-second ranges used to be silently widened to at least 1 s.
        let spec = FaultSpec {
            random_outages_per_resource: 4.0,
            random_outage_duration_secs: (100.0, 100.25),
            ..FaultSpec::default()
        };
        assert!(spec.validate().is_ok());
        let sched = spec.compile(&pool(), &mut SimRng::new(3));
        for o in &sched.outages {
            assert!(
                o.duration.as_secs() >= 100.0 && o.duration.as_secs() < 100.25,
                "duration {} escaped the declared range",
                o.duration.as_secs()
            );
        }
    }

    #[test]
    fn probabilities_are_clamped() {
        let spec = FaultSpec {
            launch_transient_chance: 2.0,
            launch_permanent_chance: -1.0,
            unit_failure_chance: 7.0,
            ..FaultSpec::default()
        };
        let sched = spec.compile(&pool(), &mut SimRng::new(1));
        assert_eq!(sched.launch_transient_chance, 0.95);
        assert_eq!(sched.launch_permanent_chance, 0.0);
        assert_eq!(sched.unit_failure_chance, 1.0);
    }

    #[test]
    fn spec_serde_roundtrip() {
        let spec = FaultSpec {
            outages: vec![OutageSpec {
                resource: "alpha".into(),
                at_secs: 100.0,
                duration_secs: 50.0,
                kind: OutageKind::Permanent,
            }],
            unit_failure_chance: 0.1,
            staging: Some(StagingFault {
                at_secs: 10.0,
                duration_secs: 500.0,
                bandwidth_factor: 0.25,
            }),
            heartbeat_delays: vec![HeartbeatDelaySpec {
                resource: "beta".into(),
                at_secs: 200.0,
                duration_secs: 300.0,
                delay_secs: 120.0,
            }],
            ..FaultSpec::default()
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: FaultSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
        let policy = RecoveryPolicy::with_detection();
        let json = serde_json::to_string(&policy).unwrap();
        let back: RecoveryPolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(policy, back);
        // Pre-detection policies (no `detection` key) must still load.
        let legacy: RecoveryPolicy =
            serde_json::from_str(r#"{"pilot_replacement": true}"#).unwrap();
        assert_eq!(legacy.detection, None);
    }

    #[test]
    fn heartbeat_delays_validate_and_compile_through() {
        let window = HeartbeatDelaySpec {
            resource: "alpha".into(),
            at_secs: 100.0,
            duration_secs: 200.0,
            delay_secs: 90.0,
        };
        let spec = FaultSpec {
            heartbeat_delays: vec![window.clone()],
            ..FaultSpec::default()
        };
        assert!(spec.validate().is_ok());
        assert!(!spec.is_noop(), "delay windows can perturb detection runs");
        let sched = spec.compile(&pool(), &mut SimRng::new(1));
        assert_eq!(sched.heartbeat_delays, vec![window]);

        let zero_delay = FaultSpec {
            heartbeat_delays: vec![HeartbeatDelaySpec {
                delay_secs: 0.0,
                ..spec.heartbeat_delays[0].clone()
            }],
            ..FaultSpec::default()
        };
        assert!(zero_delay.validate().unwrap_err().contains("delay_secs"));
        let empty_window = FaultSpec {
            heartbeat_delays: vec![HeartbeatDelaySpec {
                duration_secs: 0.0,
                ..spec.heartbeat_delays[0].clone()
            }],
            ..FaultSpec::default()
        };
        assert!(empty_window
            .validate()
            .unwrap_err()
            .contains("empty window"));
    }

    #[test]
    fn info_faults_validate_noop_and_roundtrip() {
        assert!(InfoFaultSpec::none().is_noop());
        let spec = FaultSpec {
            info: InfoFaultSpec {
                blackouts: vec![InfoBlackoutSpec {
                    resource: "*".into(),
                    at_secs: 100.0,
                    duration_secs: 500.0,
                }],
                corrupt_chance: 0.2,
                unavailable_chance: 0.1,
            },
            ..FaultSpec::default()
        };
        assert!(!spec.is_noop(), "info degradation can perturb a run");
        assert!(spec.validate().is_ok());
        let json = serde_json::to_string(&spec).unwrap();
        let back: FaultSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
        // Pre-info specs (no `info` key) must still load as noop.
        let legacy: FaultSpec = serde_json::from_str(r#"{"unit_failure_chance": 0.1}"#).unwrap();
        assert!(legacy.info.is_noop());

        let bad_chance = FaultSpec {
            info: InfoFaultSpec {
                corrupt_chance: 1.5,
                ..InfoFaultSpec::none()
            },
            ..FaultSpec::default()
        };
        assert!(bad_chance.validate().unwrap_err().contains("[0, 1]"));
        let empty_window = FaultSpec {
            info: InfoFaultSpec {
                blackouts: vec![InfoBlackoutSpec {
                    resource: "alpha".into(),
                    at_secs: 0.0,
                    duration_secs: 0.0,
                }],
                ..InfoFaultSpec::none()
            },
            ..FaultSpec::default()
        };
        assert!(empty_window
            .validate()
            .unwrap_err()
            .contains("empty window"));
    }

    #[test]
    fn info_outcomes_are_stream_deterministic() {
        let spec = InfoFaultSpec {
            blackouts: vec![InfoBlackoutSpec {
                resource: "alpha".into(),
                at_secs: 1000.0,
                duration_secs: 500.0,
            }],
            corrupt_chance: 0.3,
            unavailable_chance: 0.2,
        };
        let draw = |seed: u64| {
            let mut r = SimRng::new(seed).fork("info.alpha");
            (0..32)
                .map(|i| spec.outcome("alpha", f64::from(i) * 10.0, &mut r))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7), "same seed, same outcome sequence");
        assert_ne!(draw(7), draw(8), "different seeds move the outcomes");

        // Inside the blackout window every query is unavailable, whatever
        // the chances say; other resources are untouched by it.
        let mut r = SimRng::new(1).fork("info.alpha");
        let blacked = InfoFaultSpec {
            blackouts: spec.blackouts.clone(),
            ..InfoFaultSpec::none()
        };
        assert_eq!(
            blacked.outcome("alpha", 1200.0, &mut r),
            InfoOutcome::Unavailable
        );
        assert_eq!(blacked.outcome("alpha", 1600.0, &mut r), InfoOutcome::Ok);
        assert_eq!(blacked.outcome("beta", 1200.0, &mut r), InfoOutcome::Ok);

        // Chances are clamped at compile time.
        let sched = FaultSpec {
            info: InfoFaultSpec {
                corrupt_chance: 3.0,
                unavailable_chance: -0.5,
                ..InfoFaultSpec::none()
            },
            ..FaultSpec::default()
        }
        .compile(&pool(), &mut SimRng::new(1));
        assert_eq!(sched.info.corrupt_chance, 1.0);
        assert_eq!(sched.info.unavailable_chance, 0.0);
    }

    #[test]
    fn detection_spec_defaults_order_sanely() {
        let d = DetectionSpec::default();
        assert!(d.heartbeat_secs < d.suspect_after_secs);
        assert!(d.suspect_after_secs < d.declare_after_secs);
        assert!(d.confirm_with_status_query);
        assert!(RecoveryPolicy::default().detection.is_none());
        assert!(RecoveryPolicy::with_detection().detection.is_some());
    }

    fn cascade(chance: f64) -> CascadeSpec {
        CascadeSpec {
            domains: vec![
                DomainSpec {
                    name: "zone-a".into(),
                    members: vec!["alpha".into(), "beta".into()],
                },
                DomainSpec {
                    name: "zone-b".into(),
                    members: vec!["gamma".into()],
                },
            ],
            trigger: OutageSpec {
                resource: "alpha".into(),
                at_secs: 500.0,
                duration_secs: 600.0,
                kind: OutageKind::Permanent,
            },
            propagation_chance: chance,
            propagation_delay_secs: (30.0, 120.0),
        }
    }

    #[test]
    fn cascade_spreads_inside_the_trigger_domain_only() {
        let spec = FaultSpec {
            cascade: Some(cascade(1.0)),
            ..FaultSpec::default()
        };
        assert!(!spec.is_noop(), "a cascade perturbs the run");
        assert!(spec.validate().is_ok());
        let sched = spec.compile(&pool(), &mut SimRng::new(11));
        // Trigger on alpha plus certain propagation to beta; gamma is in
        // another domain and untouched.
        assert_eq!(sched.outages.len(), 2);
        let alpha = sched
            .outages
            .iter()
            .find(|o| o.resource == "alpha")
            .unwrap();
        let beta = sched.outages.iter().find(|o| o.resource == "beta").unwrap();
        assert_eq!(alpha.at, SimTime::from_secs(500.0));
        assert_eq!(alpha.kind, OutageKind::Permanent);
        assert_eq!(beta.kind, OutageKind::Permanent);
        let lag = beta.at.as_secs() - alpha.at.as_secs();
        assert!(
            (30.0..120.0).contains(&lag),
            "delay {lag} escaped the range"
        );
        assert!(sched.outages.iter().all(|o| o.resource != "gamma"));
    }

    #[test]
    fn cascade_replays_byte_identically_per_domain_stream() {
        let spec = FaultSpec {
            cascade: Some(cascade(0.7)),
            ..FaultSpec::default()
        };
        let a = spec.compile(&pool(), &mut SimRng::new(42));
        let b = spec.compile(&pool(), &mut SimRng::new(42));
        assert_eq!(a, b, "fixed-seed cascades must replay identically");

        // Adding unrelated random outages must not move the cascade: its
        // draws come from the domain's own forked stream.
        let noisy = FaultSpec {
            random_outages_per_resource: 2.0,
            cascade: Some(cascade(0.7)),
            ..FaultSpec::default()
        };
        let n = noisy.compile(&pool(), &mut SimRng::new(42));
        let cascade_only: Vec<_> = n
            .outages
            .iter()
            .filter(|o| o.kind == OutageKind::Permanent)
            .collect();
        let plain: Vec<_> = a.outages.iter().collect();
        assert_eq!(cascade_only, plain);
    }

    #[test]
    fn cascade_validate_rejects_broken_declarations() {
        let mut no_domain = cascade(1.0);
        no_domain.trigger.resource = "nowhere".into();
        assert!(no_domain
            .validate()
            .unwrap_err()
            .contains("no declared domain"));

        let mut dup = cascade(1.0);
        dup.domains.push(DomainSpec {
            name: "zone-c".into(),
            members: vec!["alpha".into()],
        });
        assert!(dup.validate().unwrap_err().contains("more than one domain"));

        let mut bad_chance = cascade(1.5);
        assert!(bad_chance.validate().unwrap_err().contains("[0, 1]"));
        bad_chance.propagation_chance = 0.5;
        bad_chance.propagation_delay_secs = (120.0, 30.0);
        assert!(bad_chance.validate().unwrap_err().contains("inverted"));

        let mut empty = cascade(1.0);
        empty.domains[1].members.clear();
        assert!(empty.validate().unwrap_err().contains("no members"));

        // The whole-spec validate surfaces cascade problems too.
        let spec = FaultSpec {
            cascade: Some(no_domain),
            ..FaultSpec::default()
        };
        assert!(spec.validate().is_err());
    }

    #[test]
    fn cascade_and_evacuation_serde_roundtrip() {
        let spec = FaultSpec {
            cascade: Some(cascade(0.8)),
            ..FaultSpec::default()
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: FaultSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
        // Pre-cascade specs (no `cascade` key) must still load as noop.
        let legacy: FaultSpec = serde_json::from_str(r#"{"unit_failure_chance": 0.1}"#).unwrap();
        assert!(legacy.cascade.is_none());

        let policy = RecoveryPolicy {
            evacuation: Some(EvacuationSpec::default()),
            checkpoint_interval: SimDuration::from_secs(120.0),
            ..RecoveryPolicy::default()
        };
        let json = serde_json::to_string(&policy).unwrap();
        let back: RecoveryPolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(policy, back);
        // Pre-evacuation policies must still load with both features off.
        let legacy: RecoveryPolicy =
            serde_json::from_str(r#"{"pilot_replacement": true}"#).unwrap();
        assert!(legacy.evacuation.is_none());
        assert!(legacy.checkpoint_interval.is_zero());
    }

    #[test]
    fn recovery_policy_validate_rejects_inverted_caps() {
        assert!(RecoveryPolicy::default().validate().is_ok());
        assert!(RecoveryPolicy::with_detection().validate().is_ok());
        assert!(RecoveryPolicy::disabled().validate().is_ok());

        let inverted = RecoveryPolicy {
            replacement_backoff: SimDuration::from_secs(600.0),
            replacement_backoff_cap: SimDuration::from_secs(60.0),
            ..RecoveryPolicy::default()
        };
        assert!(inverted.validate().unwrap_err().contains("inverted cap"));

        // The replacement cap is the unit retry cap as well; a retry base
        // above it is refused here, naming the policy's own fields, not
        // after the warm-up as the unit manager's derived config.
        let slow_retry = RecoveryPolicy {
            unit_retry_backoff: SimDuration::from_secs(1000.0),
            ..RecoveryPolicy::default()
        };
        assert_eq!(
            slow_retry.validate().unwrap_err(),
            "replacement_backoff_cap 900s < unit_retry_backoff 1000s: inverted cap \
             (the replacement cap also caps unit retries)"
        );

        let zero_blacklist = RecoveryPolicy {
            blacklist_after: 0,
            ..RecoveryPolicy::default()
        };
        assert!(zero_blacklist
            .validate()
            .unwrap_err()
            .contains("blacklist_after"));

        let bad_alarm = RecoveryPolicy {
            evacuation: Some(EvacuationSpec {
                alarm_threshold: 0,
                ..EvacuationSpec::default()
            }),
            ..RecoveryPolicy::default()
        };
        assert!(bad_alarm
            .validate()
            .unwrap_err()
            .contains("alarm_threshold"));

        let bad_window = RecoveryPolicy {
            evacuation: Some(EvacuationSpec {
                alarm_window_secs: 0.0,
                ..EvacuationSpec::default()
            }),
            ..RecoveryPolicy::default()
        };
        assert!(bad_window.validate().unwrap_err().contains("empty window"));
    }
}
