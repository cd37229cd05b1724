//! Pipeline self-telemetry: the simulated LDMS network observing itself.
//!
//! The paper's thesis is that run-time streams beat post-mortem logs;
//! this crate gives the *pipeline* the same treatment it gives
//! applications. Three layers, all virtual-time-native (no wall clock
//! anywhere — every stamp comes from `iosim_time`):
//!
//! * [`metrics`] — per-daemon counter/gauge/histogram families in a
//!   [`MetricRegistry`] (`queue_depth`, `parked_frames`,
//!   `retry_backoff_ms`, `wal_replayed`, `heartbeat_misses`,
//!   `ingest_dedup_hits`, ...), cheap enough to be always-on when
//!   telemetry is enabled: one relaxed atomic RMW per update.
//! * [`trace`] — hop-level spans for a deterministically sampled
//!   subset of messages: publish → forward/park/retry/WAL-replay →
//!   terminal ingest, each stamped with virtual-time latency, merged
//!   into per-run latency histograms by [`Telemetry::latency_summary`].
//! * [`flight`] — a bounded per-daemon ring of recent fault-path
//!   events, snapshotted into a [`CrashDump`] when a crash-stop fault
//!   hits, so a chaos drill explains *why* a message was lost.
//!
//! The hub type is [`Telemetry`]: one shared instance per pipeline,
//! handed to every daemon, connector, and store. When no `Telemetry`
//! is attached (the default), the instrumented sites skip all of this
//! behind an `Option` check and the pipeline output is byte-identical
//! to an uninstrumented build.

#![forbid(unsafe_code)]

mod flight;
mod hub;
mod metrics;
mod trace;

pub use flight::{CrashDump, FlightEvent, FlightRecorder};
pub use hub::{
    Alert, AlertSeverity, DetectionRecord, DiagHub, FaultKind, HealthState, HubConfig, HubEvent,
    HubEventKind, TimelineRow,
};
pub use metrics::{
    bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot, Metric,
    MetricRegistry, HISTOGRAM_BUCKETS,
};
pub use trace::{trace_id, HopKind, SpanLog, SpanRecord};

use iosim_time::{Epoch, SimDuration};
use iosim_util::json::JsonWriter;
use std::sync::Arc;

/// Number of distinct [`HopKind`]s (the length of per-hop arrays).
pub(crate) const HOP_KINDS: usize = HopKind::ALL.len();

/// How a pipeline's telemetry behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Trace roughly one in `sample_every` messages (deterministic by
    /// trace id, so reruns sample the same messages). `1` traces
    /// everything; `0` disables tracing while keeping metrics on.
    pub sample_every: u64,
    /// Live diagnosis hub policy: `Some` builds a [`DiagHub`] alongside
    /// the registry and the instrumented sites publish health,
    /// overload, fault, and detection events into it during the run.
    /// `None` (the default) keeps the hub machinery entirely off.
    pub hub: Option<HubConfig>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            sample_every: 4,
            hub: None,
        }
    }
}

impl TelemetryConfig {
    /// Trace every message (tests and small drills).
    pub fn trace_all() -> Self {
        Self {
            sample_every: 1,
            ..Self::default()
        }
    }

    /// Metrics and flight recorders only, no span collection.
    pub fn metrics_only() -> Self {
        Self {
            sample_every: 0,
            ..Self::default()
        }
    }

    /// Enables the live diagnosis hub with the given policy.
    pub fn with_hub(mut self, hub: HubConfig) -> Self {
        self.hub = Some(hub);
        self
    }
}

/// The per-pipeline telemetry hub: one metric registry and one span
/// log (each daemon owns its [`FlightRecorder`]). Shared as an `Arc`
/// by every instrumented component of one pipeline.
#[derive(Debug)]
pub struct Telemetry {
    config: TelemetryConfig,
    registry: MetricRegistry,
    spans: SpanLog,
    diag: Option<Arc<DiagHub>>,
}

impl Telemetry {
    /// New hub with the given behavior.
    pub fn new(config: TelemetryConfig) -> Arc<Self> {
        Arc::new(Self {
            config,
            registry: MetricRegistry::new(),
            spans: SpanLog::default(),
            diag: config.hub.map(DiagHub::new),
        })
    }

    /// The live diagnosis hub, when enabled via
    /// [`TelemetryConfig::hub`].
    pub fn diag(&self) -> Option<&Arc<DiagHub>> {
        self.diag.as_ref()
    }

    /// Drives the diagnosis hub's metric-snapshot cadence from an
    /// instrumented site's current virtual instant. No-op without a
    /// hub.
    pub fn advance_diag(&self, now: Epoch) {
        if let Some(hub) = &self.diag {
            hub.advance(now, &self.registry);
        }
    }

    /// The metric registry.
    pub fn registry(&self) -> &MetricRegistry {
        &self.registry
    }

    /// The span log.
    pub fn spans(&self) -> &SpanLog {
        &self.spans
    }

    /// Sampling decision for a message identity: `Some(trace id)` if
    /// the message should carry a trace context, `None` otherwise.
    /// Deterministic — the same `(job, rank, seq)` samples the same
    /// way in every run.
    pub fn sample(&self, job: u64, rank: u64, seq: u64) -> Option<u64> {
        if self.config.sample_every == 0 {
            return None;
        }
        let id = trace_id(job, rank, seq);
        (id % self.config.sample_every == 0).then_some(id)
    }

    /// Records one span of a traced message's journey. Once the span
    /// log is full this is one relaxed load and a drop count.
    pub fn span(
        &self,
        trace: u64,
        kind: HopKind,
        site: &Arc<str>,
        at: Epoch,
        latency: SimDuration,
    ) {
        if self.spans.dropped_at_cap() {
            return;
        }
        self.spans.record(SpanRecord {
            trace,
            kind,
            site: site.clone(),
            at,
            latency,
        });
    }

    /// Folds the span log into per-run latency histograms: end-to-end
    /// (the `Ingest` spans, whose latency is publish→ingest) and one
    /// distribution per hop kind.
    pub fn latency_summary(&self) -> LatencySummary {
        let end_to_end = Histogram::new();
        let per_hop: [Histogram; HOP_KINDS] = Default::default();
        let (traces, spans) = self.spans.read(|spans| {
            for s in spans {
                per_hop[s.kind.index()].record(s.latency.as_nanos());
                if s.kind == HopKind::Ingest {
                    end_to_end.record(s.latency.as_nanos());
                }
            }
            (trace::trace_count(spans), spans.len())
        });
        LatencySummary {
            traces: traces as u64,
            spans: spans as u64,
            spans_dropped: self.spans.dropped(),
            end_to_end: end_to_end.snapshot(),
            per_hop: per_hop.map(|h| h.snapshot()),
        }
    }

    /// Prometheus-style text exposition of every metric family.
    ///
    /// Each family renders a `# HELP` and `# TYPE` header; histograms
    /// render cumulative `_bucket{le=...}` series plus `_sum` and
    /// `_count`, gauges and counters one sample line per daemon.
    /// Label values are escaped per the exposition format (`\`, `"`,
    /// and newline), so daemon names survive quoting. Families and
    /// daemons are in lexicographic order, so the output is
    /// deterministic.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (family, series) in self.registry.families() {
            let kind = series.first().map(|(_, m)| m.kind()).unwrap_or("untyped");
            out.push_str(&format!(
                "# HELP {family} Pipeline self-telemetry {kind} family {family}, labeled by daemon.\n"
            ));
            out.push_str(&format!("# TYPE {family} {kind}\n"));
            for (daemon, metric) in &series {
                let daemon = escape_label_value(daemon);
                match metric {
                    Metric::Counter(c) => {
                        out.push_str(&format!("{family}{{daemon=\"{daemon}\"}} {}\n", c.get()));
                    }
                    Metric::Gauge(g) => {
                        out.push_str(&format!("{family}{{daemon=\"{daemon}\"}} {}\n", g.get()));
                    }
                    Metric::Histogram(h) => {
                        let mut cum = 0u64;
                        for (le, n) in h.nonzero_buckets() {
                            cum += n;
                            out.push_str(&format!(
                                "{family}_bucket{{daemon=\"{daemon}\",le=\"{le}\"}} {cum}\n"
                            ));
                        }
                        out.push_str(&format!(
                            "{family}_bucket{{daemon=\"{daemon}\",le=\"+Inf\"}} {}\n",
                            h.count()
                        ));
                        out.push_str(&format!(
                            "{family}_sum{{daemon=\"{daemon}\"}} {}\n",
                            h.sum()
                        ));
                        out.push_str(&format!(
                            "{family}_count{{daemon=\"{daemon}\"}} {}\n",
                            h.count()
                        ));
                    }
                }
            }
        }
        out
    }

    /// JSON snapshot of every metric family plus the latency summary —
    /// the `pipestat` artifact format.
    pub fn render_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(4096);
        w.begin_object();
        w.comma();
        w.key("families");
        w.begin_object();
        for (family, series) in self.registry.families() {
            w.comma();
            w.key(&family);
            w.begin_object();
            for (daemon, metric) in &series {
                match metric {
                    Metric::Counter(c) => w.field_uint(daemon, c.get()),
                    Metric::Gauge(g) => w.field_uint(daemon, g.get()),
                    Metric::Histogram(h) => {
                        w.comma();
                        w.key(daemon);
                        write_snapshot(&mut w, &h.snapshot());
                    }
                }
            }
            w.end_object();
        }
        w.end_object();
        let lat = self.latency_summary();
        w.comma();
        w.key("latency");
        lat.write_json(&mut w);
        w.end_object();
        w.finish()
    }
}

/// Escapes a label value per the Prometheus exposition format:
/// backslash, double quote, and newline must be backslash-escaped
/// inside the quoted label value.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

fn write_snapshot(w: &mut JsonWriter, s: &HistogramSnapshot) {
    w.begin_object();
    w.field_uint("count", s.count);
    w.field_uint("sum", s.sum);
    w.field_uint("max", s.max);
    w.field_uint("p50", s.p50);
    w.field_uint("p95", s.p95);
    w.end_object();
}

/// Per-run latency digest distilled from the span log, attached to
/// `RunResult` so benches and lints can reason about pipeline latency
/// without holding the whole telemetry hub.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LatencySummary {
    /// Distinct sampled trace ids observed.
    pub traces: u64,
    /// Spans retained.
    pub spans: u64,
    /// Spans dropped at the span-log cap.
    pub spans_dropped: u64,
    /// End-to-end publish→ingest latency (nanoseconds) over completed
    /// traces.
    pub end_to_end: HistogramSnapshot,
    /// Per-hop latency (nanoseconds), indexed by [`HopKind::index`].
    pub per_hop: [HistogramSnapshot; HOP_KINDS],
}

impl LatencySummary {
    /// True when no span was collected.
    pub fn is_empty(&self) -> bool {
        self.spans == 0
    }

    /// The distribution of one hop kind.
    pub fn hop(&self, kind: HopKind) -> &HistogramSnapshot {
        &self.per_hop[kind.index()]
    }

    /// End-to-end p95 in seconds (0.0 when no trace completed).
    pub fn p95_end_to_end_s(&self) -> f64 {
        self.end_to_end.p95 as f64 / 1e9
    }

    /// Writes the summary as a JSON object.
    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_uint("traces", self.traces);
        w.field_uint("spans", self.spans);
        w.field_uint("spans_dropped", self.spans_dropped);
        w.comma();
        w.key("end_to_end_ns");
        write_snapshot(w, &self.end_to_end);
        for kind in HopKind::ALL {
            let snap = self.hop(kind);
            if snap.count > 0 {
                w.comma();
                w.key(&format!("hop_{kind}_ns"));
                write_snapshot(w, snap);
            }
        }
        w.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site() -> Arc<str> {
        Arc::from("l1")
    }

    #[test]
    fn sampling_is_deterministic_and_honors_config() {
        let all = Telemetry::new(TelemetryConfig::trace_all());
        assert!(all.sample(1, 2, 3).is_some(), "sample_every=1 traces all");
        let none = Telemetry::new(TelemetryConfig::metrics_only());
        assert!(none.sample(1, 2, 3).is_none(), "sample_every=0 traces none");
        let some = Telemetry::new(TelemetryConfig::default());
        assert_eq!(some.sample(7, 0, 4), some.sample(7, 0, 4));
        // Roughly 1-in-4 of a run of seqs gets sampled.
        let hits = (0..1000)
            .filter(|&s| some.sample(7, 0, s).is_some())
            .count();
        assert!((150..350).contains(&hits), "got {hits} hits in 1000");
    }

    #[test]
    fn latency_summary_folds_spans() {
        let tel = Telemetry::new(TelemetryConfig::trace_all());
        let t0 = Epoch::from_secs(100);
        tel.span(9, HopKind::Publish, &site(), t0, SimDuration::ZERO);
        tel.span(
            9,
            HopKind::Forward,
            &site(),
            t0,
            SimDuration::from_micros(50),
        );
        tel.span(
            9,
            HopKind::Ingest,
            &site(),
            t0 + SimDuration::from_micros(80),
            SimDuration::from_micros(80),
        );
        let lat = tel.latency_summary();
        assert_eq!(lat.traces, 1);
        assert_eq!(lat.spans, 3);
        assert_eq!(lat.end_to_end.count, 1);
        assert_eq!(lat.hop(HopKind::Forward).count, 1);
        assert_eq!(lat.hop(HopKind::Park).count, 0);
        assert!(lat.p95_end_to_end_s() > 0.0);
        assert!(!lat.is_empty());
    }

    #[test]
    fn prometheus_exposition_renders_all_kinds() {
        let tel = Telemetry::new(TelemetryConfig::default());
        tel.registry().counter("parked_frames", "l1").add(3);
        tel.registry().gauge("queue_depth", "l1").set(2);
        let h = tel.registry().histogram("hop_latency_ns", "l2");
        h.record(100);
        h.record(5000);
        let text = tel.render_prometheus();
        assert!(text.contains("# HELP parked_frames "));
        assert!(text.contains("# TYPE parked_frames counter"));
        assert!(text.contains("parked_frames{daemon=\"l1\"} 3"));
        assert!(text.contains("# TYPE queue_depth gauge"));
        assert!(text.contains("queue_depth{daemon=\"l1\"} 2"));
        assert!(text.contains("hop_latency_ns_bucket{daemon=\"l2\",le=\"127\"} 1"));
        assert!(text.contains("hop_latency_ns_bucket{daemon=\"l2\",le=\"+Inf\"} 2"));
        assert!(text.contains("hop_latency_ns_sum{daemon=\"l2\"} 5100"));
        assert!(text.contains("hop_latency_ns_count{daemon=\"l2\"} 2"));
        // Every family gets exactly one HELP/TYPE header pair, HELP first.
        let help_at = text.find("# HELP queue_depth").expect("HELP line");
        let type_at = text.find("# TYPE queue_depth").expect("TYPE line");
        assert!(help_at < type_at);
    }

    #[test]
    fn prometheus_label_values_are_escaped() {
        let tel = Telemetry::new(TelemetryConfig::default());
        tel.registry()
            .counter("ingested", "weird\"name\\with\nnewline")
            .inc();
        let text = tel.render_prometheus();
        assert!(
            text.contains("ingested{daemon=\"weird\\\"name\\\\with\\nnewline\"} 1"),
            "got: {text}"
        );
        // No raw newline survives inside a label value: every line is
        // either a comment or `name{...} value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.contains('}'),
                "broken exposition line: {line:?}"
            );
        }
    }

    #[test]
    fn hub_is_off_by_default_and_on_when_configured() {
        let off = Telemetry::new(TelemetryConfig::default());
        assert!(off.diag().is_none());
        off.advance_diag(Epoch::from_secs(100)); // no-op, must not panic
        let on = Telemetry::new(TelemetryConfig::trace_all().with_hub(HubConfig::default()));
        let hub = on.diag().expect("hub built").clone();
        on.registry().counter("forwarded", "l1").inc();
        on.advance_diag(Epoch::from_secs(100));
        assert_eq!(hub.published(), 1, "cadence snapshot published");
    }

    #[test]
    fn json_snapshot_parses_and_carries_latency() {
        let tel = Telemetry::new(TelemetryConfig::trace_all());
        tel.registry().counter("wal_replayed", "l1").inc();
        tel.span(
            5,
            HopKind::Ingest,
            &site(),
            Epoch::from_secs(101),
            SimDuration::from_millis(2),
        );
        let json = tel.render_json();
        let v = iosim_util::json::parse(&json).expect("snapshot parses");
        assert_eq!(
            v.get("families")
                .and_then(|f| f.get("wal_replayed"))
                .and_then(|f| f.get("l1"))
                .and_then(|x| x.as_u64()),
            Some(1)
        );
        assert_eq!(
            v.get("latency")
                .and_then(|l| l.get("traces"))
                .and_then(|x| x.as_u64()),
            Some(1)
        );
        assert!(v
            .get("latency")
            .and_then(|l| l.get("hop_ingest_ns"))
            .is_some());
    }
}
