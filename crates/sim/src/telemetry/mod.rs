//! Typed telemetry layer: metrics registry, span timelines, exporters.
//!
//! The trace module records *what happened*; this module records *how
//! much, how long, and how busy*. Three primitives, all against simulated
//! time:
//!
//! * **Counters** — monotone event totals (`saga.alpha.retry_submission`).
//!   A counter that counts a traced fact is ticked by the same
//!   [`Simulation::emit`](crate::Simulation::emit) call that writes its
//!   trace line: the fact's [`Fact::counter`](crate::Fact::counter) names
//!   it, so the two sinks cannot drift apart.
//! * **Gauges** — step-function timelines (`cluster.alpha.busy_cores`).
//! * **Log-scale histograms** — dwell-time distributions
//!   (`unit.dwell.executing`) with bucket-interpolated p50/p95/p99.
//!
//! Metric names follow `layer.component.metric`. Recording is strictly
//! passive: no events are scheduled and no RNG streams are drawn, so an
//! instrumented run produces bit-identical journals and traces to an
//! uninstrumented one. A disabled registry costs one branch per call, the
//! same contract as a disabled [`Tracer`](crate::Tracer): a fact renders
//! nothing for a sink that is off.
//!
//! A [`Telemetry`] handle bundles the registry with a span list assembled
//! after the run (pilot lifetimes, unit `Executing` windows) and exposes
//! the exporters: a serializable [`MetricsSummary`], a CSV timeline dump,
//! and a Perfetto-loadable Chrome trace (see [`chrome`]).

pub mod chrome;
pub mod metrics;

pub use chrome::{write_chrome_trace, Span};
pub use metrics::{GaugeSummary, HistogramSummary, LogHistogram, MetricsRegistry, MetricsSummary};

use parking_lot::Mutex;
use std::io;
use std::sync::Arc;

/// Everything one instrumented run collects: the live metrics registry
/// plus the spans assembled at the end of the run. Cheaply cloneable;
/// clones share state.
#[derive(Clone, Debug)]
pub struct Telemetry {
    registry: MetricsRegistry,
    spans: Arc<Mutex<Vec<Span>>>,
}

impl Telemetry {
    /// A recording telemetry handle.
    pub fn new() -> Self {
        Telemetry {
            registry: MetricsRegistry::new(),
            spans: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// The metrics registry to attach to a `Simulation`.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Add one span to the timeline.
    pub fn add_span(&self, span: Span) {
        self.spans.lock().push(span);
    }

    /// Snapshot of all spans added so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().clone()
    }

    /// Condensed metrics (counters, gauge summaries, histogram quantiles).
    pub fn summary(&self) -> MetricsSummary {
        self.registry.summary()
    }

    /// Write the Perfetto-loadable Chrome trace: spans on per-resource
    /// tracks plus gauge timelines as counter tracks.
    pub fn write_chrome_trace<W: io::Write>(&self, out: &mut W) -> io::Result<()> {
        chrome::write_chrome_trace(out, &self.spans.lock(), &self.registry.gauge_series())
    }

    /// Write the gauge timelines as CSV (`metric,time_secs,value`).
    pub fn write_metrics_csv<W: io::Write>(&self, out: &mut W) -> io::Result<()> {
        self.registry.write_csv(out)
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn telemetry_bundles_registry_and_spans() {
        let tel = Telemetry::new();
        assert!(tel.registry().is_enabled());
        tel.registry().inc(|| "middleware.run.replans".into());
        tel.registry().gauge(SimTime::from_secs(1.0), 4.0, || {
            "cluster.a.busy_cores".into()
        });
        tel.add_span(Span {
            track: "a".into(),
            lane: "pilot.0".into(),
            name: "pilot lifetime".into(),
            category: "pilot".into(),
            start: SimTime::from_secs(0.0),
            end: SimTime::from_secs(10.0),
            args: vec![],
        });
        assert_eq!(tel.spans().len(), 1);
        let summary = tel.summary();
        assert_eq!(summary.counters["middleware.run.replans"], 1);

        let mut chrome = Vec::new();
        tel.write_chrome_trace(&mut chrome).unwrap();
        assert!(
            serde_json::from_str::<serde::Value>(std::str::from_utf8(&chrome).unwrap()).is_ok()
        );

        let mut csv = Vec::new();
        tel.write_metrics_csv(&mut csv).unwrap();
        assert!(csv.starts_with(b"metric,time_secs,value"));
    }

    #[test]
    fn clones_share_spans() {
        let tel = Telemetry::new();
        let tel2 = tel.clone();
        tel2.add_span(Span {
            track: "a".into(),
            lane: "l".into(),
            name: "n".into(),
            category: "c".into(),
            start: SimTime::from_secs(0.0),
            end: SimTime::from_secs(1.0),
            args: vec![],
        });
        assert_eq!(tel.spans().len(), 1);
    }
}
