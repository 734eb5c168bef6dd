//! Metrics registry: counters, gauges, and log-scale histograms recorded
//! against *simulated* time.
//!
//! The registry mirrors the [`crate::trace::Tracer`] cost model: a disabled
//! registry is one branch per call, and every recording method takes a
//! name-building closure so hot paths never pay for `format!` when metrics
//! are off. Metric names follow the `layer.component.metric` scheme
//! (e.g. `cluster.stampede.busy_cores`, `unit.dwell.executing`).

use crate::time::SimTime;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;

/// Lower bound of the first histogram bucket, in the histogram's unit
/// (seconds for the dwell-time histograms): everything at or below it lands
/// in bucket 0.
const HISTOGRAM_MIN: f64 = 1e-3;
/// Power-of-two buckets above [`HISTOGRAM_MIN`]; bucket `i >= 1` covers
/// `(MIN * 2^(i-1), MIN * 2^i]`. 64 doublings of 1 ms reach ~584 years,
/// far past any simulated duration.
const HISTOGRAM_BUCKETS: usize = 64;

/// Log-scale histogram: power-of-two buckets, exact count/sum/min/max.
#[derive(Clone, Debug, PartialEq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: vec![0; HISTOGRAM_BUCKETS + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl LogHistogram {
    fn bucket(value: f64) -> usize {
        if value <= HISTOGRAM_MIN {
            return 0;
        }
        let idx = (value / HISTOGRAM_MIN).log2().ceil() as usize;
        idx.min(HISTOGRAM_BUCKETS)
    }

    /// Bucket value range: bucket 0 is `[0, MIN]`, bucket `i >= 1` is
    /// `(MIN * 2^(i-1), MIN * 2^i]`.
    fn bucket_bounds(idx: usize) -> (f64, f64) {
        if idx == 0 {
            (0.0, HISTOGRAM_MIN)
        } else {
            (
                HISTOGRAM_MIN * 2f64.powi(idx as i32 - 1),
                HISTOGRAM_MIN * 2f64.powi(idx as i32),
            )
        }
    }

    /// Record one observation. Non-finite values are dropped.
    pub fn observe(&mut self, value: f64) {
        self.observe_n(value, 1);
    }

    /// Record `n` observations of `value` at once — the bulk form used
    /// when re-bucketing pre-aggregated data (e.g. the profiler's tick
    /// buckets). Non-finite values are dropped.
    pub fn observe_n(&mut self, value: f64, n: u64) {
        if !value.is_finite() || n == 0 {
            return;
        }
        self.counts[Self::bucket(value)] += n;
        self.count += n;
        self.sum += value * n as f64;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Fold another histogram into this one: bucket counts add, exact
    /// min/max/sum/count combine. Both sides must use the same unit.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Quantile estimate by linear interpolation inside the target bucket,
    /// clamped to the observed `[min, max]`. `q` is in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cum + c;
            if (next as f64) >= rank {
                let (lo, hi) = Self::bucket_bounds(idx);
                let frac = if c == 0 {
                    0.0
                } else {
                    ((rank - cum as f64) / c as f64).clamp(0.0, 1.0)
                };
                let est = lo + frac * (hi - lo);
                return est.clamp(self.min, self.max);
            }
            cum = next;
        }
        self.max
    }
}

#[derive(Debug, Default)]
struct MetricsInner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, Vec<(SimTime, f64)>>,
    histograms: BTreeMap<String, LogHistogram>,
}

/// Cheaply cloneable handle to a shared metrics store.
///
/// `MetricsRegistry::default()` is disabled — a `Simulation` always carries
/// a registry, and runs that do not ask for telemetry pay one branch per
/// recording call, exactly like a disabled [`crate::trace::Tracer`].
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<MetricsInner>>,
    enabled: bool,
}

impl MetricsRegistry {
    /// A recording registry.
    pub fn new() -> Self {
        MetricsRegistry {
            inner: Arc::new(Mutex::new(MetricsInner::default())),
            enabled: true,
        }
    }

    /// A registry that drops everything.
    pub fn disabled() -> Self {
        MetricsRegistry::default()
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Increment a counter by 1. The name closure only runs when enabled.
    #[inline]
    pub fn inc(&self, name: impl FnOnce() -> String) {
        self.inc_by(1, name);
    }

    /// Increment a counter by `delta`.
    #[inline]
    pub fn inc_by(&self, delta: u64, name: impl FnOnce() -> String) {
        if !self.enabled {
            return;
        }
        *self.inner.lock().counters.entry(name()).or_insert(0) += delta;
    }

    /// Append one sample to a gauge timeline (a step function over
    /// simulated time).
    #[inline]
    pub fn gauge(&self, time: SimTime, value: f64, name: impl FnOnce() -> String) {
        if !self.enabled {
            return;
        }
        self.inner
            .lock()
            .gauges
            .entry(name())
            .or_default()
            .push((time, value));
    }

    /// Record one observation into a log-scale histogram.
    #[inline]
    pub fn observe(&self, value: f64, name: impl FnOnce() -> String) {
        if !self.enabled {
            return;
        }
        self.inner
            .lock()
            .histograms
            .entry(name())
            .or_default()
            .observe(value);
    }

    /// Snapshot of every gauge timeline (exporters render these as Chrome
    /// counter tracks and CSV rows).
    pub fn gauge_series(&self) -> BTreeMap<String, Vec<(SimTime, f64)>> {
        self.inner.lock().gauges.clone()
    }

    /// Condense everything recorded so far into a serializable summary.
    pub fn summary(&self) -> MetricsSummary {
        let inner = self.inner.lock();
        MetricsSummary {
            counters: inner.counters.clone(),
            gauges: inner
                .gauges
                .iter()
                .map(|(name, samples)| (name.clone(), GaugeSummary::of(samples)))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(name, h)| {
                    (
                        name.clone(),
                        HistogramSummary {
                            count: h.count(),
                            mean: h.mean(),
                            min: h.min(),
                            max: h.max(),
                            p50: h.quantile(0.50),
                            p95: h.quantile(0.95),
                            p99: h.quantile(0.99),
                        },
                    )
                })
                .collect(),
        }
    }

    /// Dump every gauge timeline as CSV: `metric,time_secs,value`.
    /// Metric names embed resource names, which are user-controlled via
    /// config, so the name field is RFC-4180 quoted when it contains a
    /// comma, quote, or newline.
    pub fn write_csv<W: io::Write>(&self, out: &mut W) -> io::Result<()> {
        writeln!(out, "metric,time_secs,value")?;
        for (name, samples) in self.inner.lock().gauges.iter() {
            let name = csv_field(name);
            for (time, value) in samples {
                writeln!(out, "{name},{},{value}", time.as_secs())?;
            }
        }
        Ok(())
    }
}

/// RFC-4180-quote one CSV field: fields containing a comma, double quote,
/// or line break are wrapped in double quotes, with embedded quotes
/// doubled. Anything else passes through unchanged.
pub fn csv_field(raw: &str) -> String {
    if raw.contains(',') || raw.contains('"') || raw.contains('\n') || raw.contains('\r') {
        format!("\"{}\"", raw.replace('"', "\"\""))
    } else {
        raw.to_string()
    }
}

/// Parse one RFC-4180 CSV record into its fields — the inverse of
/// [`csv_field`] joined with commas. The round-trip tests use it.
#[cfg(test)]
pub fn parse_csv_record(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            } else {
                field.push(c);
            }
        } else if c == '"' && field.is_empty() {
            in_quotes = true;
        } else if c == ',' {
            fields.push(std::mem::take(&mut field));
        } else {
            field.push(c);
        }
    }
    fields.push(field);
    fields
}

/// Condensed view of one gauge timeline.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GaugeSummary {
    pub samples: u64,
    pub last: f64,
    pub min: f64,
    pub max: f64,
    /// Mean of the step function weighted by how long each value held
    /// (equal to `last` for a single-sample timeline).
    pub time_weighted_mean: f64,
}

impl GaugeSummary {
    fn of(samples: &[(SimTime, f64)]) -> GaugeSummary {
        let n = samples.len() as u64;
        let last = samples.last().map(|(_, v)| *v).unwrap_or(0.0);
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for (_, v) in samples {
            min = min.min(*v);
            max = max.max(*v);
        }
        if samples.is_empty() {
            return GaugeSummary {
                samples: 0,
                last: 0.0,
                min: 0.0,
                max: 0.0,
                time_weighted_mean: 0.0,
            };
        }
        let span = samples
            .last()
            .unwrap()
            .0
            .saturating_since(samples.first().unwrap().0);
        let time_weighted_mean = if span.as_secs() <= 0.0 {
            last
        } else {
            let mut area = 0.0;
            for pair in samples.windows(2) {
                let held = pair[1].0.saturating_since(pair[0].0);
                area += pair[0].1 * held.as_secs();
            }
            area / span.as_secs()
        };
        GaugeSummary {
            samples: n,
            last,
            min,
            max,
            time_weighted_mean,
        }
    }
}

/// Condensed view of one log-scale histogram.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    pub count: u64,
    pub mean: f64,
    pub min: f64,
    pub max: f64,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
}

/// Everything the registry recorded, in serializable form. Embedded into
/// `RunResult` and rendered by the report layer.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSummary {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, GaugeSummary>,
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl MetricsSummary {
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn disabled_registry_never_builds_names() {
        let m = MetricsRegistry::disabled();
        m.inc(|| panic!("name closure must not run when disabled"));
        m.gauge(t(1.0), 2.0, || panic!("disabled"));
        m.observe(3.0, || panic!("disabled"));
        assert!(m.summary().is_empty());
    }

    #[test]
    fn counters_accumulate() {
        let m = MetricsRegistry::new();
        m.inc(|| "a.b.c".into());
        m.inc_by(4, || "a.b.c".into());
        m.inc(|| "x.y.z".into());
        let s = m.summary();
        assert_eq!(s.counters["a.b.c"], 5);
        assert_eq!(s.counters["x.y.z"], 1);
    }

    #[test]
    fn gauge_summary_is_time_weighted() {
        let m = MetricsRegistry::new();
        // Value 10 held for 1s, then 0 held for 3s → mean (10*1 + 0*3)/4.
        m.gauge(t(0.0), 10.0, || "g".into());
        m.gauge(t(1.0), 0.0, || "g".into());
        m.gauge(t(4.0), 0.0, || "g".into());
        let g = &m.summary().gauges["g"];
        assert_eq!(g.samples, 3);
        assert_eq!(g.last, 0.0);
        assert_eq!(g.max, 10.0);
        assert!((g.time_weighted_mean - 2.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles_bracket_known_distribution() {
        let mut h = LogHistogram::default();
        for i in 1..=1000 {
            h.observe(i as f64);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        // Log-bucket interpolation is coarse: require the right octave, not
        // the exact order statistic.
        let p50 = h.quantile(0.50);
        assert!((250.0..=1000.0).contains(&p50), "p50={p50}");
        let p99 = h.quantile(0.99);
        assert!((500.0..=1000.0).contains(&p99), "p99={p99}");
        assert!(h.quantile(0.0) >= 1.0);
        assert_eq!(h.quantile(1.0), 1000.0);
    }

    #[test]
    fn histogram_handles_tiny_and_huge_values() {
        let mut h = LogHistogram::default();
        h.observe(0.0);
        h.observe(1e-9);
        h.observe(1e30);
        h.observe(f64::NAN); // dropped
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 1e30);
    }

    #[test]
    fn csv_dump_has_header_and_rows() {
        let m = MetricsRegistry::new();
        m.gauge(t(0.0), 1.0, || "cluster.a.queue_depth".into());
        m.gauge(t(2.5), 3.0, || "cluster.a.queue_depth".into());
        let mut buf = Vec::new();
        m.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "metric,time_secs,value");
        assert_eq!(lines[1], "cluster.a.queue_depth,0,1");
        assert_eq!(lines[2], "cluster.a.queue_depth,2.5,3");
    }

    #[test]
    fn csv_quotes_hostile_metric_names_and_round_trips() {
        // Resource names come from user config, so metric names can carry
        // CSV metacharacters; the dump must stay machine-parsable.
        let hostile = [
            "cluster.node,rack=1.busy_cores",
            "cluster.\"quoted\".busy_cores",
            "plain.name.busy_cores",
        ];
        let m = MetricsRegistry::new();
        for name in hostile {
            m.gauge(t(1.0), 7.0, || name.into());
        }
        let mut buf = Vec::new();
        m.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut seen = Vec::new();
        for line in text.lines().skip(1) {
            let fields = parse_csv_record(line);
            assert_eq!(fields.len(), 3, "line did not parse as 3 fields: {line}");
            assert_eq!(fields[1], "1");
            assert_eq!(fields[2], "7");
            seen.push(fields[0].clone());
        }
        let mut expect: Vec<String> = hostile.iter().map(|s| s.to_string()).collect();
        expect.sort();
        seen.sort();
        assert_eq!(seen, expect, "names must round-trip exactly");
        // The comma-bearing raw name must not appear unquoted.
        assert!(!text.contains("\ncluster.node,rack=1.busy_cores,"));
    }

    #[test]
    fn csv_field_quotes_only_when_needed() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_field("line\nbreak"), "\"line\nbreak\"");
        for raw in ["plain", "a,b", "say \"hi\""] {
            assert_eq!(parse_csv_record(&csv_field(raw)), vec![raw.to_string()]);
        }
    }

    #[test]
    fn clones_share_store() {
        let m = MetricsRegistry::new();
        let m2 = m.clone();
        m2.inc(|| "shared".into());
        assert_eq!(m.summary().counters["shared"], 1);
    }

    #[test]
    fn summary_round_trips_through_json() {
        let m = MetricsRegistry::new();
        m.inc(|| "c".into());
        m.gauge(t(1.0), 2.0, || "g".into());
        m.observe(0.5, || "h".into());
        let s = m.summary();
        let json = serde_json::to_string(&s).unwrap();
        let back: MetricsSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
