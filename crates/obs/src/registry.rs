//! The unified metrics registry and its exposition formats.
//!
//! Every telemetry island (client histograms, rpc retry counters, kv
//! store counters, index query stats, replication counters) registers a
//! *source* — a closure producing named [`Metric`]s — with one
//! [`MetricsRegistry`]. A [`RegistrySnapshot`] is the single snapshot
//! type, mergeable across nodes (provider-side registries arrive over
//! the `OBS_SNAPSHOT` RPC) and exportable as JSON or Prometheus text.
//!
//! Naming scheme: `evostore_<island>_<what>[_us]` with `{label="value"}`
//! pairs distinguishing instances — e.g.
//! `evostore_kv_bytes_written{provider="2",store="tensors"}`.

use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};

use crate::clock::TimeSource;
use crate::recorder::{FlightRecorder, SlowOpLog};
use crate::slo::SloEngine;
use crate::trace::{render_span_tree, SpanRecord};

/// Most exemplars a merged histogram summary retains.
pub const MAX_SUMMARY_EXEMPLARS: usize = 8;

/// A sampled observation linked back to the trace that produced it:
/// the join key from a histogram bucket into the flight recorder /
/// slow-op log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Exemplar {
    /// Trace the sample was recorded under.
    pub trace_id: u64,
    /// Root span of that trace.
    pub span_id: u64,
    /// The sampled latency, microseconds.
    pub value_us: u64,
}

/// Percentile digest of a latency histogram.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples, microseconds.
    pub sum_us: u64,
    /// 50th percentile (rank-interpolated within its bucket),
    /// microseconds.
    pub p50_us: u64,
    /// 95th percentile (rank-interpolated within its bucket),
    /// microseconds.
    pub p95_us: u64,
    /// 99th percentile (rank-interpolated within its bucket),
    /// microseconds.
    pub p99_us: u64,
    /// Largest sample, microseconds.
    pub max_us: u64,
    /// Recent high-bucket exemplars (absent on the wire from older
    /// nodes, hence the default).
    #[serde(default)]
    pub exemplars: Vec<Exemplar>,
}

impl HistogramSummary {
    /// Fold `other` in: count and sum add, the percentile bounds take
    /// the maximum (an upper-bound digest — exact cross-node percentiles
    /// would need the raw buckets), and the slowest exemplars are kept.
    pub fn merge(mut self, other: HistogramSummary) -> HistogramSummary {
        self.count += other.count;
        self.sum_us += other.sum_us;
        self.p50_us = self.p50_us.max(other.p50_us);
        self.p95_us = self.p95_us.max(other.p95_us);
        self.p99_us = self.p99_us.max(other.p99_us);
        self.max_us = self.max_us.max(other.max_us);
        self.exemplars.extend(other.exemplars);
        // Keep the slowest exemplars when over budget — they are the
        // ones worth joining to traces.
        if self.exemplars.len() > MAX_SUMMARY_EXEMPLARS {
            self.exemplars
                .sort_by_key(|e| std::cmp::Reverse(e.value_us));
            self.exemplars.truncate(MAX_SUMMARY_EXEMPLARS);
        }
        self
    }
}

/// A metric's value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MetricValue {
    /// Monotone count.
    Counter(u64),
    /// Point-in-time level.
    Gauge(f64),
    /// Latency digest.
    Histogram(HistogramSummary),
}

/// One named metric with its labels and value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Metric name (`evostore_...`).
    pub name: String,
    /// Label pairs, e.g. `[("provider", "2")]`.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: MetricValue,
}

impl Metric {
    /// A labelless counter.
    pub fn counter(name: &str, value: u64) -> Metric {
        Metric {
            name: name.to_string(),
            labels: Vec::new(),
            value: MetricValue::Counter(value),
        }
    }

    /// A labelless gauge.
    pub fn gauge(name: &str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            labels: Vec::new(),
            value: MetricValue::Gauge(value),
        }
    }

    /// A labelless histogram.
    pub fn histogram(name: &str, value: HistogramSummary) -> Metric {
        Metric {
            name: name.to_string(),
            labels: Vec::new(),
            value: MetricValue::Histogram(value),
        }
    }

    /// Attach a label (builder-style).
    pub fn with_label(mut self, key: &str, value: impl ToString) -> Metric {
        self.labels.push((key.to_string(), value.to_string()));
        self
    }

    /// Attach every label of `labels`, in order.
    pub fn with_labels(mut self, labels: &[(&str, &str)]) -> Metric {
        self.labels
            .extend(labels.iter().map(|(k, v)| (k.to_string(), v.to_string())));
        self
    }

    fn label_text(&self) -> String {
        if self.labels.is_empty() {
            return String::new();
        }
        let pairs: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .collect();
        format!("{{{}}}", pairs.join(","))
    }

    fn label_text_with(&self, extra: &str) -> String {
        let mut pairs: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .collect();
        pairs.push(extra.to_string());
        format!("{{{}}}", pairs.join(","))
    }
}

/// A point-in-time collection of metrics from one or more registries:
/// the one snapshot type every exporter and test consumes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// The metrics, sorted by (name, labels).
    pub metrics: Vec<Metric>,
}

impl RegistrySnapshot {
    /// Build from raw metrics (sorts them).
    pub fn from_metrics(mut metrics: Vec<Metric>) -> RegistrySnapshot {
        metrics.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        RegistrySnapshot { metrics }
    }

    /// Fold `other` in. Same (name, labels) merge pointwise: counters
    /// and gauges sum, histograms by [`HistogramSummary::merge`].
    /// Distinct series are appended.
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        for m in &other.metrics {
            match self
                .metrics
                .iter_mut()
                .find(|e| e.name == m.name && e.labels == m.labels)
            {
                Some(existing) => match (&mut existing.value, &m.value) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                    (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a += b,
                    (MetricValue::Histogram(a), MetricValue::Histogram(b)) => {
                        *a = std::mem::take(a).merge(b.clone());
                    }
                    // Type mismatch across nodes is a bug; keep ours.
                    _ => {}
                },
                None => self.metrics.push(m.clone()),
            }
        }
        self.metrics
            .sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
    }

    /// First metric with this name, any labels.
    pub fn find(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// All metrics with this name.
    pub fn find_all(&self, name: &str) -> Vec<&Metric> {
        self.metrics.iter().filter(|m| m.name == name).collect()
    }

    /// Sum of a counter across all label sets (0 when absent).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|m| m.name == name)
            .map(|m| match &m.value {
                MetricValue::Counter(v) => *v,
                _ => 0,
            })
            .sum()
    }

    /// JSON exposition (pretty, stable ordering).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serializes")
    }

    /// Prometheus text exposition. Histograms render as summaries
    /// (`quantile` labels plus `_sum`/`_count` series).
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for m in &self.metrics {
            let fresh = last_name != Some(m.name.as_str());
            last_name = Some(m.name.as_str());
            match &m.value {
                MetricValue::Counter(v) => {
                    if fresh {
                        out.push_str(&format!("# TYPE {} counter\n", m.name));
                    }
                    out.push_str(&format!("{}{} {}\n", m.name, m.label_text(), v));
                }
                MetricValue::Gauge(v) => {
                    if fresh {
                        out.push_str(&format!("# TYPE {} gauge\n", m.name));
                    }
                    out.push_str(&format!("{}{} {}\n", m.name, m.label_text(), v));
                }
                MetricValue::Histogram(h) => {
                    if fresh {
                        out.push_str(&format!("# TYPE {} summary\n", m.name));
                    }
                    for (q, v) in [("0.5", h.p50_us), ("0.95", h.p95_us), ("0.99", h.p99_us)] {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            m.name,
                            m.label_text_with(&format!("quantile=\"{q}\"")),
                            v
                        ));
                    }
                    out.push_str(&format!("{}_sum{} {}\n", m.name, m.label_text(), h.sum_us));
                    out.push_str(&format!("{}_count{} {}\n", m.name, m.label_text(), h.count));
                    out.push_str(&format!("{}_max{} {}\n", m.name, m.label_text(), h.max_us));
                    for ex in &h.exemplars {
                        out.push_str(&format!(
                            "# exemplar {}{} trace_id={:016x} span_id={:x} value_us={}\n",
                            m.name,
                            m.label_text(),
                            ex.trace_id,
                            ex.span_id,
                            ex.value_us
                        ));
                    }
                }
            }
        }
        out
    }
}

type Source = Box<dyn Fn() -> Vec<Metric> + Send + Sync>;

/// The one place metrics come from: telemetry islands register closures
/// producing their current metrics; [`MetricsRegistry::snapshot`] pulls
/// them all into one [`RegistrySnapshot`].
pub struct MetricsRegistry {
    sources: RwLock<Vec<Source>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("sources", &self.sources.read().len())
            .finish()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            sources: RwLock::new(Vec::new()),
        }
    }

    /// Register a metrics source. Sources are pulled (in registration
    /// order) on every snapshot.
    pub fn register(&self, source: impl Fn() -> Vec<Metric> + Send + Sync + 'static) {
        self.sources.write().push(Box::new(source));
    }

    /// How many sources are registered.
    pub fn source_count(&self) -> usize {
        self.sources.read().len()
    }

    /// Pull every source into one snapshot.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let sources = self.sources.read();
        let mut metrics = Vec::new();
        for s in sources.iter() {
            metrics.extend(s());
        }
        RegistrySnapshot::from_metrics(metrics)
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

/// The per-deployment observability hub: the shared clock all tracers
/// stamp from, the unified registry, the list of flight recorders a
/// postmortem dump collects, the slow-op logs, and the SLO burn-rate
/// engine. The hub registers its own registry source exposing ring
/// health (`evostore_obs_flight_*`, `evostore_obs_slowop_*`) and the
/// `evostore_slo_*` series for every recorder/log/spec attached to it.
#[derive(Debug)]
pub struct ObsHub {
    clock: Arc<dyn TimeSource>,
    registry: Arc<MetricsRegistry>,
    recorders: Arc<Mutex<Vec<Arc<FlightRecorder>>>>,
    slow_logs: SharedSlowOpLogs,
    slo: Arc<SloEngine>,
}

/// Named slow-op logs shared between the hub and its registry source.
type SharedSlowOpLogs = Arc<Mutex<Vec<(String, Arc<SlowOpLog>)>>>;

impl ObsHub {
    /// A hub stamping time from `clock`.
    pub fn new(clock: Arc<dyn TimeSource>) -> ObsHub {
        let registry = Arc::new(MetricsRegistry::new());
        let recorders: Arc<Mutex<Vec<Arc<FlightRecorder>>>> = Arc::new(Mutex::new(Vec::new()));
        let slow_logs: SharedSlowOpLogs = Arc::new(Mutex::new(Vec::new()));
        let slo = Arc::new(SloEngine::new(clock.clone()));
        {
            let recorders = recorders.clone();
            let slow_logs = slow_logs.clone();
            registry.register(move || {
                let mut out = Vec::new();
                for r in recorders.lock().iter() {
                    out.extend(r.metrics());
                }
                for (node, log) in slow_logs.lock().iter() {
                    out.push(
                        Metric::counter("evostore_obs_slowop_recorded", log.recorded())
                            .with_label("node", node),
                    );
                    out.push(
                        Metric::counter("evostore_obs_slowop_evicted", log.evicted())
                            .with_label("node", node),
                    );
                }
                out
            });
        }
        {
            let slo = slo.clone();
            registry.register(move || slo.metrics());
        }
        ObsHub {
            clock,
            registry,
            recorders,
            slow_logs,
            slo,
        }
    }

    /// The deployment-wide clock.
    pub fn clock(&self) -> &Arc<dyn TimeSource> {
        &self.clock
    }

    /// The unified registry.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The SLO burn-rate engine.
    pub fn slo(&self) -> &Arc<SloEngine> {
        &self.slo
    }

    /// Create a `cap`-bounded recorder for `node` on the hub clock and
    /// track it for dumps.
    pub fn new_recorder(&self, node: &str, cap: usize) -> Arc<FlightRecorder> {
        let r = Arc::new(FlightRecorder::new(node, cap, self.clock.clone()));
        self.attach_recorder(r.clone());
        r
    }

    /// Track an externally-created recorder for dumps.
    pub fn attach_recorder(&self, r: Arc<FlightRecorder>) {
        self.recorders.lock().push(r);
    }

    /// All tracked recorders.
    pub fn recorders(&self) -> Vec<Arc<FlightRecorder>> {
        self.recorders.lock().clone()
    }

    /// Track a node's slow-op log so its ring health is exported.
    pub fn attach_slow_log(&self, node: &str, log: Arc<SlowOpLog>) {
        self.slow_logs.lock().push((node.to_string(), log));
    }

    /// All tracked slow-op logs with their node names.
    pub fn slow_logs(&self) -> Vec<(String, Arc<SlowOpLog>)> {
        self.slow_logs.lock().clone()
    }

    /// All spans recorded for `trace_id` across every tracked recorder
    /// and slow-op log, deduplicated by span id and sorted by start
    /// time: the exemplar→trace join in one call.
    pub fn trace_spans(&self, trace_id: u64) -> Vec<SpanRecord> {
        let mut spans: Vec<SpanRecord> = Vec::new();
        for r in self.recorders.lock().iter() {
            spans.extend(r.spans_for_trace(trace_id));
        }
        for (_, log) in self.slow_logs.lock().iter() {
            for op in log.entries() {
                if op.root.trace_id == trace_id {
                    spans.push(op.root.clone());
                    spans.extend(op.children);
                }
            }
        }
        spans.sort_by_key(|s| (s.span_id, s.start_us));
        spans.dedup_by_key(|s| s.span_id);
        spans.sort_by_key(|s| (s.start_us, s.span_id));
        spans
    }

    /// Rendered span tree for `trace_id` (empty string when the trace
    /// has aged out of every ring).
    pub fn trace_tree(&self, trace_id: u64) -> String {
        render_span_tree(&self.trace_spans(trace_id))
    }

    /// Render the most recent `limit` distinct traces (by newest span
    /// end time) as indented span trees: the `/traces/recent` endpoint.
    pub fn recent_traces(&self, limit: usize) -> String {
        let mut latest: Vec<(u64, u64)> = Vec::new(); // (end_us, trace_id)
        for r in self.recorders.lock().iter() {
            for e in r.events() {
                if let crate::recorder::FlightEvent::Span(s) = e {
                    match latest.iter_mut().find(|(_, t)| *t == s.trace_id) {
                        Some(entry) => entry.0 = entry.0.max(s.end_us),
                        None => latest.push((s.end_us, s.trace_id)),
                    }
                }
            }
        }
        latest.sort_by(|a, b| b.cmp(a));
        latest.truncate(limit);
        let mut out = String::new();
        for (_, trace_id) in latest {
            out.push_str(&format!("trace {trace_id:x}\n"));
            out.push_str(&self.trace_tree(trace_id));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_pulls_all_sources_sorted() {
        let reg = MetricsRegistry::new();
        reg.register(|| vec![Metric::counter("b_metric", 2)]);
        reg.register(|| {
            vec![
                Metric::counter("a_metric", 1).with_label("provider", 1),
                Metric::counter("a_metric", 3).with_label("provider", 0),
            ]
        });
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["a_metric", "a_metric", "b_metric"]);
        assert_eq!(snap.metrics[0].labels[0].1, "0");
        assert_eq!(snap.counter_total("a_metric"), 4);
    }

    #[test]
    fn merge_sums_matching_series_and_appends_new() {
        let mut a = RegistrySnapshot::from_metrics(vec![
            Metric::counter("c", 1),
            Metric::gauge("g", 2.0),
            Metric::histogram(
                "h",
                HistogramSummary {
                    count: 2,
                    sum_us: 10,
                    p50_us: 4,
                    p95_us: 8,
                    p99_us: 8,
                    max_us: 7,
                    exemplars: vec![Exemplar {
                        trace_id: 1,
                        span_id: 1,
                        value_us: 7,
                    }],
                },
            ),
        ]);
        let b = RegistrySnapshot::from_metrics(vec![
            Metric::counter("c", 5),
            Metric::counter("c", 9).with_label("provider", 1),
            Metric::gauge("g", 3.0),
            Metric::histogram(
                "h",
                HistogramSummary {
                    count: 1,
                    sum_us: 100,
                    p50_us: 64,
                    p95_us: 64,
                    p99_us: 64,
                    max_us: 90,
                    exemplars: vec![Exemplar {
                        trace_id: 2,
                        span_id: 2,
                        value_us: 90,
                    }],
                },
            ),
        ]);
        a.merge(&b);
        assert_eq!(a.counter_total("c"), 15);
        assert_eq!(a.find_all("c").len(), 2);
        match a.find("g").unwrap().value {
            MetricValue::Gauge(v) => assert_eq!(v, 5.0),
            _ => panic!("gauge"),
        }
        match &a.find("h").unwrap().value {
            MetricValue::Histogram(h) => {
                assert_eq!(h.count, 3);
                assert_eq!(h.sum_us, 110);
                assert_eq!(h.p50_us, 64);
                assert_eq!(h.max_us, 90);
            }
            _ => panic!("histogram"),
        }
    }

    #[test]
    fn prometheus_text_renders_all_kinds() {
        let snap = RegistrySnapshot::from_metrics(vec![
            Metric::counter("evostore_x_total", 7).with_label("provider", 2),
            Metric::gauge("evostore_y", 1.5),
            Metric::histogram(
                "evostore_z_us",
                HistogramSummary {
                    count: 3,
                    sum_us: 30,
                    p50_us: 8,
                    p95_us: 16,
                    p99_us: 16,
                    max_us: 12,
                    exemplars: vec![Exemplar {
                        trace_id: 0xab,
                        span_id: 0xcd,
                        value_us: 12,
                    }],
                },
            ),
        ]);
        let text = snap.to_prometheus_text();
        assert!(text.contains("# TYPE evostore_x_total counter"));
        assert!(text.contains("evostore_x_total{provider=\"2\"} 7"));
        assert!(text.contains("# TYPE evostore_y gauge"));
        assert!(text.contains("evostore_y 1.5"));
        assert!(text.contains("# TYPE evostore_z_us summary"));
        assert!(text.contains("evostore_z_us{quantile=\"0.95\"} 16"));
        assert!(text.contains("evostore_z_us_sum 30"));
        assert!(text.contains("evostore_z_us_count 3"));
        assert!(text.contains("evostore_z_us_max 12"));
    }

    #[test]
    fn json_roundtrips() {
        let snap = RegistrySnapshot::from_metrics(vec![
            Metric::counter("c", 1).with_label("k", "v"),
            Metric::histogram("h", HistogramSummary::default()),
        ]);
        let back: RegistrySnapshot = serde_json::from_str(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }
}
