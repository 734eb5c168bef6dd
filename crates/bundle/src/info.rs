//! The information plane: a streaming, staleness-aware layer between the
//! query interface and the raw resource state.
//!
//! The paper's execution strategies assume the middleware can ask a
//! resource "how long would a pilot wait in your queue?" and get a fresh
//! answer. Real pilot systems operate on information that is late,
//! partial, or wrong; strategy quality is highly sensitive to exactly
//! this gap. This module makes the gap explicit:
//!
//! * a **hot pool** — a bounded top-K cache of the most recently queried
//!   resources, each entry carrying its refresh timestamp and a short
//!   wait-sample window. The refresh interval *adapts to queue
//!   volatility*: a resource whose wait estimates swing widely is
//!   re-measured more eagerly than one sitting steady.
//! * a **JIT fetcher** — every query answer is classified as
//!   [`Fresh`](InfoClass::Fresh), [`Stale(age)`](InfoClass::Stale),
//!   [`Corrupt`](InfoClass::Corrupt), or
//!   [`Unavailable`](InfoClass::Unavailable). Degradation is injected by
//!   an optional *disposition* hook (wired by the middleware to the
//!   info-channel fault family), never invented here.
//! * a **typed fallback ladder** — fresh cache → stale cache with
//!   age-discounted (pessimistically inflated) confidence → offline
//!   predictor → conservative static default. Consumers of
//!   `estimate_wait`-shaped answers never panic and never silently use
//!   garbage: a corrupt answer is dropped on the floor and the ladder
//!   says what was used instead.
//!
//! Determinism: with a healthy channel and the default configuration
//! (`base_refresh_secs == 0`), every query performs a live measurement —
//! byte-identical behaviour to the pre-info-plane code, which is what
//! keeps the golden journals pinned. The channel itself draws no RNG;
//! any randomness lives in the injected disposition hook, which the
//! middleware feeds from per-resource forked streams.

use aimes_sim::{MetricsRegistry, Profiler, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Classification of the information behind one answered query.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum InfoClass {
    /// A live measurement, or a cache entry within its refresh interval.
    Fresh,
    /// Served from the hot pool past its refresh interval; carries the
    /// entry's age.
    Stale(SimDuration),
    /// The channel answered garbage; the answer was discarded.
    Corrupt,
    /// The channel did not answer.
    Unavailable,
}

impl InfoClass {
    /// Stable label for journals and tables.
    pub fn label(&self) -> &'static str {
        match self {
            InfoClass::Fresh => "fresh",
            InfoClass::Stale(_) => "stale",
            InfoClass::Corrupt => "corrupt",
            InfoClass::Unavailable => "unavailable",
        }
    }
}

/// Which rung of the fallback ladder produced the answer. Serialized as
/// its [`FallbackRung::label`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum FallbackRung {
    /// A live measurement against the resource.
    Live,
    /// The hot pool, within the (volatility-adapted) refresh interval.
    CacheHit,
    /// The hot pool, past the refresh interval but within the staleness
    /// horizon; the value is age-discounted.
    StaleCache,
    /// The offline wait predictor (QBETS-style quantile bound).
    Predictor,
    /// The conservative static default — the ladder's floor.
    StaticDefault,
}

impl FallbackRung {
    /// Stable label for journals and tables.
    pub fn label(&self) -> &'static str {
        match self {
            FallbackRung::Live => "live",
            FallbackRung::CacheHit => "cache-hit",
            FallbackRung::StaleCache => "stale-cache",
            FallbackRung::Predictor => "predictor",
            FallbackRung::StaticDefault => "static-default",
        }
    }

    /// True for rungs below the fresh path — the ones counted as
    /// fallbacks.
    pub fn is_fallback(&self) -> bool {
        matches!(
            self,
            FallbackRung::StaleCache | FallbackRung::Predictor | FallbackRung::StaticDefault
        )
    }
}

/// What the channel did for one query (injected; see
/// [`InfoChannel::set_disposition`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InfoDisposition {
    /// The channel answered with a usable value.
    Ok,
    /// The channel answered garbage.
    Corrupt,
    /// The channel did not answer.
    Unavailable,
}

/// Tuning for the information plane. The default configuration is
/// *oracle-equivalent*: zero refresh interval means every healthy query
/// performs a live measurement, so fault-free runs behave byte-for-byte
/// as if the plane were not there.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct InfoConfig {
    /// Hot-pool capacity: how many resources keep a cached entry. Must be
    /// positive.
    #[serde(default = "default_hot_pool_k")]
    pub hot_pool_k: usize,
    /// Base refresh interval. Zero (the default) disables caching: every
    /// healthy query measures live.
    #[serde(default)]
    pub base_refresh_secs: f64,
    /// Wait samples kept per entry for the volatility estimate.
    #[serde(default = "default_volatility_window")]
    pub volatility_window: usize,
    /// How strongly volatility shortens the refresh interval:
    /// `effective = base / (1 + gain * cv)` where `cv` is the coefficient
    /// of variation over the sample window.
    #[serde(default = "default_volatility_gain")]
    pub volatility_gain: f64,
    /// Staleness horizon: a cache entry older than this is no longer
    /// served, even degraded. Must not be below `base_refresh_secs`
    /// (inverted thresholds would make every cache hit unusable as a
    /// stale fallback).
    #[serde(default = "default_stale_until")]
    pub stale_until_secs: f64,
    /// Pessimism applied to stale answers: the served wait is inflated by
    /// `1 + discount * age_hours`, so older information claims longer
    /// queues and loses ranking contests against fresher resources.
    #[serde(default = "default_stale_discount")]
    pub stale_discount_per_hour: f64,
    /// The ladder's floor: the wait assumed when nothing else is known.
    /// Deliberately conservative — under total blackout every resource
    /// looks equally slow and selection degrades to name order.
    #[serde(default = "default_static_wait")]
    pub static_default_wait_secs: f64,
}

fn default_hot_pool_k() -> usize {
    8
}
fn default_volatility_window() -> usize {
    8
}
fn default_volatility_gain() -> f64 {
    4.0
}
fn default_stale_until() -> f64 {
    3600.0
}
fn default_stale_discount() -> f64 {
    0.5
}
fn default_static_wait() -> f64 {
    4.0 * 3600.0
}

impl Default for InfoConfig {
    fn default() -> Self {
        InfoConfig {
            hot_pool_k: default_hot_pool_k(),
            base_refresh_secs: 0.0,
            volatility_window: default_volatility_window(),
            volatility_gain: default_volatility_gain(),
            stale_until_secs: default_stale_until(),
            stale_discount_per_hour: default_stale_discount(),
            static_default_wait_secs: default_static_wait(),
        }
    }
}

impl InfoConfig {
    /// Reject configurations that cannot mean what they say, mirroring
    /// `FaultSpec::validate`: callers accepting configs from outside
    /// should refuse to run rather than serve answers from a ladder whose
    /// rungs are out of order.
    pub fn validate(&self) -> Result<(), String> {
        if self.hot_pool_k == 0 {
            return Err("hot_pool_k 0: the hot pool must hold at least one resource".into());
        }
        if self.volatility_window == 0 {
            return Err("volatility_window 0: need at least one sample".into());
        }
        for (v, name) in [
            (self.base_refresh_secs, "base_refresh_secs"),
            (self.volatility_gain, "volatility_gain"),
            (self.stale_until_secs, "stale_until_secs"),
            (self.stale_discount_per_hour, "stale_discount_per_hour"),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("{name} {v}: must be finite and non-negative"));
            }
        }
        if self.stale_until_secs < self.base_refresh_secs {
            return Err(format!(
                "stale_until_secs {} < base_refresh_secs {}: inverted staleness thresholds",
                self.stale_until_secs, self.base_refresh_secs
            ));
        }
        if !(self.static_default_wait_secs.is_finite() && self.static_default_wait_secs > 0.0) {
            return Err(format!(
                "static_default_wait_secs {}: must be finite and positive",
                self.static_default_wait_secs
            ));
        }
        Ok(())
    }
}

/// One degraded (non-fresh) decision, as reported to the sink.
#[derive(Clone, Debug)]
pub struct InfoDecision {
    pub resource: String,
    pub class: InfoClass,
    pub rung: FallbackRung,
    /// Age of the information behind the decision (zero when no cached
    /// value was involved).
    pub age: SimDuration,
    /// The wait actually served, after any discounting.
    pub wait: Option<SimDuration>,
}

/// Monotone counters over one channel's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct InfoStats {
    /// Live measurements served.
    pub fresh: u64,
    /// Cache hits within the refresh interval.
    pub cache_hits: u64,
    /// Corrupt answers observed (and discarded).
    pub corrupt: u64,
    /// Queries the channel did not answer.
    pub unavailable: u64,
    /// Decisions served from the stale cache rung.
    pub stale_served: u64,
    /// Decisions served from the offline predictor rung.
    pub predictor_fallbacks: u64,
    /// Decisions served from the static-default rung.
    pub static_fallbacks: u64,
    /// Total information age (seconds) behind non-fresh decisions — the
    /// `stale_decision_secs` accounting surfaced next to Tr/Td.
    pub stale_decision_secs: f64,
}

impl InfoStats {
    /// Total decisions served below the fresh path.
    pub fn info_fallbacks(&self) -> u64 {
        self.stale_served + self.predictor_fallbacks + self.static_fallbacks
    }
}

/// The channel's answer for one query, with its provenance.
#[derive(Clone, Copy, Debug)]
pub struct InfoAnswer {
    /// The wait finally served. `None` means the resource is unusable on
    /// the best information available (e.g. the pilot can never fit).
    pub wait: Option<SimDuration>,
    pub class: InfoClass,
    pub rung: FallbackRung,
}

type DispositionFn = Box<dyn FnMut(&str, SimTime) -> InfoDisposition>;
type InfoSink = Box<dyn FnMut(SimTime, &InfoDecision)>;

struct HotEntry {
    /// Last good answer (`None` = did not fit at refresh time).
    wait: Option<SimDuration>,
    refreshed_at: SimTime,
    /// Recent wait samples (seconds) for the volatility estimate.
    samples: VecDeque<f64>,
}

impl HotEntry {
    /// Coefficient of variation over the sample window; zero until two
    /// samples exist or while the mean is zero.
    fn volatility(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let n = self.samples.len() as f64;
        let mean = self.samples.iter().sum::<f64>() / n;
        if mean <= 0.0 {
            return 0.0;
        }
        let var = self
            .samples
            .iter()
            .map(|s| (s - mean) * (s - mean))
            .sum::<f64>()
            / n;
        var.sqrt() / mean
    }
}

/// The shared information channel behind every [`ResourceQuery`] in a
/// bundle: hot pool, fetcher, ladder, counters, and the injection hooks.
///
/// [`ResourceQuery`]: crate::query::ResourceQuery
pub struct InfoChannel {
    config: InfoConfig,
    pool: BTreeMap<String, HotEntry>,
    disposition: Option<DispositionFn>,
    sink: Option<InfoSink>,
    metrics: Option<MetricsRegistry>,
    profiler: Profiler,
    stats: InfoStats,
}

impl InfoChannel {
    /// A healthy channel. The configuration is taken as-is; callers
    /// accepting configs from outside should run
    /// [`InfoConfig::validate`] first.
    pub fn new(config: InfoConfig) -> Self {
        InfoChannel {
            config,
            pool: BTreeMap::new(),
            disposition: None,
            sink: None,
            metrics: None,
            profiler: Profiler::disabled(),
            stats: InfoStats::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &InfoConfig {
        &self.config
    }

    /// Counters so far.
    pub fn stats(&self) -> InfoStats {
        self.stats
    }

    /// Install the degradation hook: called once per query with the
    /// resource name and the query time. `None` (the default) means the
    /// channel is healthy.
    pub fn set_disposition(&mut self, f: DispositionFn) {
        self.disposition = Some(f);
    }

    /// Install the decision sink: called for every *degraded* decision
    /// (fresh answers are not reported — in a healthy run the sink is
    /// silent, which is what keeps instrumented journals identical).
    pub fn set_sink(&mut self, f: InfoSink) {
        self.sink = Some(f);
    }

    /// Drop the sink and the disposition hook (run teardown).
    pub fn clear_callbacks(&mut self) {
        self.sink = None;
        self.disposition = None;
    }

    /// Attach a metrics registry; `bundle.info.*` counters are recorded
    /// through it (one branch per query when disabled).
    pub fn set_metrics(&mut self, metrics: MetricsRegistry) {
        self.metrics = Some(metrics);
    }

    /// Attach a self-profiler; queries accrue to the `bundle.info` label.
    /// The info plane runs inside other components' callbacks rather than
    /// from its own events, so it receives the handle directly (one branch
    /// per query when disabled, like the metrics hook above).
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    fn count(&self, name: &'static str) {
        if let Some(m) = &self.metrics {
            m.inc(|| format!("bundle.info.{name}"));
        }
    }

    /// Volatility-adapted refresh interval for `resource`.
    fn effective_refresh(&self, resource: &str) -> SimDuration {
        let base = self.config.base_refresh_secs;
        if base <= 0.0 {
            return SimDuration::ZERO;
        }
        let cv = self
            .pool
            .get(resource)
            .map(HotEntry::volatility)
            .unwrap_or(0.0);
        SimDuration::from_secs(base / (1.0 + self.config.volatility_gain * cv))
    }

    /// Evict down to the hot-pool capacity: oldest refresh first, name as
    /// the deterministic tie-break.
    fn evict(&mut self) {
        while self.pool.len() > self.config.hot_pool_k {
            let victim = self
                .pool
                .iter()
                .min_by(|a, b| {
                    a.1.refreshed_at
                        .cmp(&b.1.refreshed_at)
                        .then_with(|| a.0.cmp(b.0))
                })
                .map(|(name, _)| name.clone());
            match victim {
                Some(name) => {
                    self.pool.remove(&name);
                }
                None => break,
            }
        }
    }

    fn record_refresh(&mut self, resource: &str, now: SimTime, wait: Option<SimDuration>) {
        let window = self.config.volatility_window;
        let entry = self.pool.entry(resource.to_string()).or_insert(HotEntry {
            wait: None,
            refreshed_at: now,
            samples: VecDeque::new(),
        });
        entry.wait = wait;
        entry.refreshed_at = now;
        if let Some(w) = wait {
            entry.samples.push_back(w.as_secs());
            while entry.samples.len() > window {
                entry.samples.pop_front();
            }
        }
        self.evict();
    }

    fn report(&mut self, now: SimTime, decision: InfoDecision) {
        if decision.rung.is_fallback() {
            self.stats.stale_decision_secs += decision.age.as_secs();
            if let Some(sink) = &mut self.sink {
                sink(now, &decision);
            }
        }
    }

    /// Answer one setup-time query through the ladder.
    ///
    /// * `fits` — whether the request could ever run on the resource
    ///   (static capacity check; independent of queue state, so it stays
    ///   answerable under any degradation).
    /// * `probe` — the live measurement, invoked only when the channel is
    ///   healthy and the cache entry (if any) is due for refresh.
    /// * `predictor` — the offline rung; consulted only when both cache
    ///   rungs are exhausted.
    pub fn fetch(
        &mut self,
        resource: &str,
        now: SimTime,
        fits: bool,
        probe: impl FnOnce() -> Option<SimDuration>,
        predictor: &mut crate::predictor::QuantileBound,
    ) -> InfoAnswer {
        use crate::predictor::WaitPredictor;

        let _prof = self.profiler.scope("bundle.info");
        let disposition = match &mut self.disposition {
            Some(f) => f(resource, now),
            None => InfoDisposition::Ok,
        };

        if disposition == InfoDisposition::Ok {
            // Healthy channel: hot pool first, live measurement on miss.
            let refresh = self.effective_refresh(resource);
            if !refresh.is_zero() {
                if let Some(entry) = self.pool.get(resource) {
                    let age = now.saturating_since(entry.refreshed_at);
                    if age <= refresh {
                        self.stats.cache_hits += 1;
                        self.count("cache_hit");
                        return InfoAnswer {
                            wait: entry.wait,
                            class: InfoClass::Fresh,
                            rung: FallbackRung::CacheHit,
                        };
                    }
                }
            }
            let wait = probe();
            self.record_refresh(resource, now, wait);
            self.stats.fresh += 1;
            self.count("fresh");
            return InfoAnswer {
                wait,
                class: InfoClass::Fresh,
                rung: FallbackRung::Live,
            };
        }

        // Degraded channel: classify the failure, then walk the ladder.
        let class = match disposition {
            InfoDisposition::Corrupt => {
                self.stats.corrupt += 1;
                self.count("corrupt");
                InfoClass::Corrupt
            }
            InfoDisposition::Unavailable => {
                self.stats.unavailable += 1;
                self.count("unavailable");
                InfoClass::Unavailable
            }
            InfoDisposition::Ok => unreachable!("handled above"),
        };

        // Rung 2: stale cache, age-discounted.
        let stale_until = SimDuration::from_secs(self.config.stale_until_secs);
        if let Some(entry) = self.pool.get(resource) {
            let age = now.saturating_since(entry.refreshed_at);
            if age <= stale_until {
                let wait = entry
                    .wait
                    .map(|w| w * (1.0 + self.config.stale_discount_per_hour * age.as_hours()));
                self.stats.stale_served += 1;
                self.count("fallback_stale_cache");
                let decision = InfoDecision {
                    resource: resource.to_string(),
                    class: InfoClass::Stale(age),
                    rung: FallbackRung::StaleCache,
                    age,
                    wait,
                };
                self.report(now, decision);
                return InfoAnswer {
                    wait,
                    class: InfoClass::Stale(age),
                    rung: FallbackRung::StaleCache,
                };
            }
        }

        // Rungs 3 and 4 need the static capacity check: a pilot that can
        // never fit stays unusable whatever we assume about the queue.
        if !fits {
            return InfoAnswer {
                wait: None,
                class,
                rung: FallbackRung::StaticDefault,
            };
        }

        // Rung 3: offline predictor, when it has learned anything.
        if predictor.observations() > 0 {
            if let Some(wait) = predictor.predict() {
                self.stats.predictor_fallbacks += 1;
                self.count("fallback_predictor");
                let decision = InfoDecision {
                    resource: resource.to_string(),
                    class,
                    rung: FallbackRung::Predictor,
                    age: SimDuration::ZERO,
                    wait: Some(wait),
                };
                self.report(now, decision);
                return InfoAnswer {
                    wait: Some(wait),
                    class,
                    rung: FallbackRung::Predictor,
                };
            }
        }

        // Rung 4: the conservative static floor.
        let wait = SimDuration::from_secs(self.config.static_default_wait_secs);
        self.stats.static_fallbacks += 1;
        self.count("fallback_static");
        let decision = InfoDecision {
            resource: resource.to_string(),
            class,
            rung: FallbackRung::StaticDefault,
            age: SimDuration::ZERO,
            wait: Some(wait),
        };
        self.report(now, decision);
        InfoAnswer {
            wait: Some(wait),
            class,
            rung: FallbackRung::StaticDefault,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::{QuantileBound, WaitPredictor};

    fn d(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }
    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn healthy(config: InfoConfig) -> InfoChannel {
        InfoChannel::new(config)
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        assert!(InfoConfig::default().validate().is_ok());
        let zero_pool = InfoConfig {
            hot_pool_k: 0,
            ..InfoConfig::default()
        };
        assert!(zero_pool.validate().unwrap_err().contains("hot_pool_k"));
        let inverted = InfoConfig {
            base_refresh_secs: 600.0,
            stale_until_secs: 100.0,
            ..InfoConfig::default()
        };
        assert!(inverted.validate().unwrap_err().contains("inverted"));
        let bad_floor = InfoConfig {
            static_default_wait_secs: 0.0,
            ..InfoConfig::default()
        };
        assert!(bad_floor.validate().is_err());
    }

    #[test]
    fn default_config_always_probes_live() {
        // base_refresh 0 = oracle equivalence: the cache never answers.
        let mut ch = healthy(InfoConfig::default());
        let mut p = QuantileBound::qbets_default();
        for i in 0..3 {
            let a = ch.fetch("r", t(f64::from(i)), true, || Some(d(100.0)), &mut p);
            assert_eq!(a.rung, FallbackRung::Live);
            assert_eq!(a.class, InfoClass::Fresh);
            assert_eq!(a.wait, Some(d(100.0)));
        }
        let s = ch.stats();
        assert_eq!(s.fresh, 3);
        assert_eq!(s.cache_hits, 0);
        assert_eq!(s.info_fallbacks(), 0);
    }

    #[test]
    fn cache_serves_within_refresh_interval() {
        let mut ch = healthy(InfoConfig {
            base_refresh_secs: 300.0,
            ..InfoConfig::default()
        });
        let mut p = QuantileBound::qbets_default();
        let a = ch.fetch("r", t(0.0), true, || Some(d(50.0)), &mut p);
        assert_eq!(a.rung, FallbackRung::Live);
        // Within the interval: served from the pool, probe not invoked.
        let b = ch.fetch("r", t(100.0), true, || panic!("probe must not run"), &mut p);
        assert_eq!(b.rung, FallbackRung::CacheHit);
        assert_eq!(b.wait, Some(d(50.0)));
        // Past the interval: measured live again.
        let c = ch.fetch("r", t(400.0), true, || Some(d(75.0)), &mut p);
        assert_eq!(c.rung, FallbackRung::Live);
        assert_eq!(c.wait, Some(d(75.0)));
        assert_eq!(ch.stats().cache_hits, 1);
    }

    #[test]
    fn volatility_shortens_the_refresh_interval() {
        let config = InfoConfig {
            base_refresh_secs: 300.0,
            volatility_gain: 4.0,
            ..InfoConfig::default()
        };
        let mut steady = healthy(config.clone());
        let mut p = QuantileBound::qbets_default();
        for i in 0..4 {
            steady.fetch(
                "r",
                t(f64::from(i) * 400.0),
                true,
                || Some(d(100.0)),
                &mut p,
            );
        }
        assert_eq!(
            steady.effective_refresh("r"),
            d(300.0),
            "cv 0: full interval"
        );

        let mut choppy = healthy(config);
        let waits = [10.0, 500.0, 20.0, 800.0];
        for (i, w) in waits.iter().enumerate() {
            choppy.fetch("r", t(i as f64 * 400.0), true, || Some(d(*w)), &mut p);
        }
        assert!(
            choppy.effective_refresh("r") < d(150.0),
            "volatile queue must re-measure eagerly, got {:?}",
            choppy.effective_refresh("r")
        );
    }

    #[test]
    fn hot_pool_evicts_oldest_beyond_k() {
        let mut ch = healthy(InfoConfig {
            hot_pool_k: 2,
            base_refresh_secs: 1000.0,
            ..InfoConfig::default()
        });
        let mut p = QuantileBound::qbets_default();
        ch.fetch("a", t(0.0), true, || Some(d(1.0)), &mut p);
        ch.fetch("b", t(10.0), true, || Some(d(2.0)), &mut p);
        ch.fetch("c", t(20.0), true, || Some(d(3.0)), &mut p);
        // "a" (oldest refresh) was evicted; "b" and "c" still serve.
        assert!(!ch.pool.contains_key("a"));
        assert!(ch.pool.contains_key("b"));
        let hit = ch.fetch("c", t(25.0), true, || panic!("cached"), &mut p);
        assert_eq!(hit.rung, FallbackRung::CacheHit);
    }

    #[test]
    fn ladder_walks_stale_predictor_static() {
        let mut ch = healthy(InfoConfig {
            base_refresh_secs: 10.0,
            stale_until_secs: 1000.0,
            stale_discount_per_hour: 1.0,
            ..InfoConfig::default()
        });
        ch.set_disposition(Box::new(|_, _| InfoDisposition::Ok));
        let mut p = QuantileBound::qbets_default();
        // Seed the cache with a live measurement at t=0.
        ch.fetch("r", t(0.0), true, || Some(d(1800.0)), &mut p);

        // Now the channel goes dark: stale cache serves, age-discounted.
        ch.set_disposition(Box::new(|_, _| InfoDisposition::Unavailable));
        let a = ch.fetch("r", t(900.0), true, || panic!("channel is dark"), &mut p);
        assert_eq!(a.rung, FallbackRung::StaleCache);
        assert_eq!(a.class, InfoClass::Stale(d(900.0)));
        // 1800 s * (1 + 1.0 * 0.25 h) = 2250 s: older information claims
        // a longer queue.
        assert_eq!(a.wait, Some(d(2250.0)));

        // Past the staleness horizon, the predictor rung answers.
        for w in [100.0, 200.0, 300.0, 400.0] {
            p.observe(d(w));
        }
        let b = ch.fetch("r", t(5000.0), true, || unreachable!(), &mut p);
        assert_eq!(b.rung, FallbackRung::Predictor);
        assert_eq!(b.class, InfoClass::Unavailable);
        assert!(b.wait.is_some());

        // With no predictor either, the static floor answers.
        let mut empty = QuantileBound::qbets_default();
        let c = ch.fetch("never-seen", t(5000.0), true, || unreachable!(), &mut empty);
        assert_eq!(c.rung, FallbackRung::StaticDefault);
        assert_eq!(c.wait, Some(d(default_static_wait())));

        // Oversized requests stay unusable on every rung.
        let d0 = ch.fetch(
            "never-seen",
            t(5000.0),
            false,
            || unreachable!(),
            &mut empty,
        );
        assert_eq!(d0.wait, None);

        let s = ch.stats();
        assert_eq!(s.stale_served, 1);
        assert_eq!(s.predictor_fallbacks, 1);
        assert_eq!(s.static_fallbacks, 1);
        assert_eq!(s.info_fallbacks(), 3);
        assert_eq!(s.stale_decision_secs, 900.0);
    }

    #[test]
    fn corrupt_answers_are_never_served() {
        // A corrupt answer must not reach the caller even when the probe
        // would have produced one: the ladder substitutes the stale cache.
        let mut ch = healthy(InfoConfig {
            base_refresh_secs: 10.0,
            ..InfoConfig::default()
        });
        let mut p = QuantileBound::qbets_default();
        ch.fetch("r", t(0.0), true, || Some(d(100.0)), &mut p);
        ch.set_disposition(Box::new(|_, _| InfoDisposition::Corrupt));
        let a = ch.fetch("r", t(60.0), true, || Some(d(99999.0)), &mut p);
        assert_eq!(a.rung, FallbackRung::StaleCache);
        assert!(
            a.wait.unwrap() < d(200.0),
            "garbage probe value leaked through"
        );
        assert_eq!(ch.stats().corrupt, 1);
    }

    #[test]
    fn sink_sees_only_degraded_decisions() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let seen: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&seen);
        let mut ch = healthy(InfoConfig::default());
        ch.set_sink(Box::new(move |_, d| {
            sink.borrow_mut()
                .push(format!("{}:{}", d.resource, d.rung.label()));
        }));
        let mut p = QuantileBound::qbets_default();
        ch.fetch("r", t(0.0), true, || Some(d(10.0)), &mut p);
        assert!(seen.borrow().is_empty(), "fresh answers are not reported");
        ch.set_disposition(Box::new(|_, _| InfoDisposition::Unavailable));
        ch.fetch("r", t(1.0), true, || unreachable!(), &mut p);
        assert_eq!(seen.borrow().as_slice(), ["r:stale-cache"]);
    }
}
