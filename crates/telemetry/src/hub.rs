//! Live diagnosis hub: a virtual-time event bus for in-run observability.
//!
//! Every instrumented layer publishes typed [`HubEvent`]s while the run
//! is still in flight — periodic metric snapshots at a configurable
//! virtual-time cadence, per-daemon health transitions, overload-ladder
//! changes, crash/failover/rebuild faults, and online-detector findings.
//! The hub appends each event to a bounded retained log, folds
//! numeric series into a multi-resolution downsampling timeline ring,
//! and routes alert-worthy events through a deduplicating,
//! flap-suppressing alert router.
//!
//! # Ordering and determinism
//!
//! Events are totally ordered by `(vtime, source, seq)`: virtual
//! publish instant first, then publishing source name, then a per-source
//! monotone sequence number. Sequence numbers are assigned under one
//! lock at publish time, so two events from the same source never tie.
//! Under deferred (serial) delivery the publish schedule is a pure
//! function of the workload, which makes the full drained stream
//! byte-stable across runs; under threaded delivery the *multiset* of
//! events may vary with interleaving, but every drain and export is
//! still sorted by the same key, and the off-path guarantee (hub
//! attached vs not changes no rows, ledgers, or recovery counters)
//! holds unconditionally.

use crate::metrics::{Metric, MetricRegistry};
use iosim_time::Epoch;
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Coarse per-daemon health, derived from liveness, the overload
/// ladder, queue-depth watermarks, and heartbeat misses. Order is
/// severity: `Down` is worse than `Overloaded` is worse than
/// `Degraded` is worse than `Healthy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Up, ladder normal, queues empty.
    Healthy,
    /// Up but working through backlog (parked frames, heartbeat misses).
    Degraded,
    /// Overload ladder escalated past `Normal`.
    Overloaded,
    /// Daemon not accepting messages (crash window or scheduled outage).
    Down,
}

impl HealthState {
    /// Stable lowercase label for exports.
    pub fn as_str(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Overloaded => "overloaded",
            HealthState::Down => "down",
        }
    }

    /// Dense encoding for lock-free last-state cells.
    pub fn to_u8(self) -> u8 {
        match self {
            HealthState::Healthy => 0,
            HealthState::Degraded => 1,
            HealthState::Overloaded => 2,
            HealthState::Down => 3,
        }
    }

    /// Inverse of [`HealthState::to_u8`]; unknown values decode to
    /// `Healthy` (the attach-time default).
    pub fn from_u8(v: u8) -> Self {
        match v {
            1 => HealthState::Degraded,
            2 => HealthState::Overloaded,
            3 => HealthState::Down,
            _ => HealthState::Healthy,
        }
    }
}

/// Lifecycle fault classes published by the recovery machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A daemon's crash window opened (volatile state dropped).
    Crash,
    /// A crashed daemon restarted (WAL replay, shard rebuild follow).
    Restart,
    /// Sampler routes failed over to a standby aggregator.
    Failover,
    /// Routes failed back to the recovered primary.
    Failback,
    /// A returning `dsosd` rebuilt its shards from live peers.
    Rebuild,
}

impl FaultKind {
    /// Stable lowercase label for exports.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::Restart => "restart",
            FaultKind::Failover => "failover",
            FaultKind::Failback => "failback",
            FaultKind::Rebuild => "rebuild",
        }
    }
}

/// Alert severity, ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertSeverity {
    /// Informational (recoveries, failbacks).
    Info,
    /// Needs attention but the pipeline still makes progress.
    Warning,
    /// Data is being lost or a daemon is down.
    Critical,
}

impl AlertSeverity {
    /// Stable lowercase label for exports.
    pub fn as_str(self) -> &'static str {
        match self {
            AlertSeverity::Info => "info",
            AlertSeverity::Warning => "warning",
            AlertSeverity::Critical => "critical",
        }
    }
}

/// A flattened online-detector finding, decoupled from the analysis
/// crate so the telemetry layer stays dependency-free. The experiment
/// driver converts `hpcws_sim::DiagnosticEvent`s into this shape when
/// publishing.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionRecord {
    /// Anomaly class label (`straggler-rank`, `duration-outlier`,
    /// `phase-anomaly`).
    pub kind: String,
    /// `warning` or `critical`.
    pub severity: String,
    /// Job the anomaly is in.
    pub job_id: u64,
    /// Offending rank, for rank-scoped anomalies.
    pub rank: Option<u64>,
    /// Operation the evidence is about.
    pub op: String,
    /// When the anomalous regime began (virtual seconds).
    pub onset_s: f64,
    /// When the detector's window crossed the threshold (virtual
    /// seconds).
    pub detected_s: f64,
    /// `true` when emitted while ingest was still flowing; `false`
    /// when the window only closed at settle.
    pub in_run: bool,
}

/// The typed payload of a hub event.
#[derive(Debug, Clone, PartialEq)]
pub enum HubEventKind {
    /// Periodic cadence snapshot of the metric registry.
    MetricSnapshot {
        /// Registered series count at the snapshot instant.
        series: u64,
        /// Sum over all counter series.
        counter_total: u64,
        /// Sum over all gauge series (current values).
        gauge_total: u64,
        /// Sum of recorded samples over all histogram series.
        histogram_samples: u64,
    },
    /// A per-daemon health transition.
    Health {
        /// State before the transition.
        from: HealthState,
        /// State after the transition.
        to: HealthState,
        /// Human-readable cause (no commas; CSV-safe).
        reason: String,
    },
    /// An overload-ladder rung change on a forwarding hop.
    Overload {
        /// Ladder state before (`normal`/`throttle`/`spill`/`sample`).
        from: &'static str,
        /// Ladder state after.
        to: &'static str,
    },
    /// A lifecycle fault event (crash, restart, failover, rebuild).
    Fault {
        /// Fault class.
        kind: FaultKind,
        /// Human-readable detail (no commas; CSV-safe).
        detail: String,
    },
    /// An online-detector finding emitted through the hub.
    Detection(DetectionRecord),
}

impl HubEventKind {
    /// Stable event-class label for exports.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            HubEventKind::MetricSnapshot { .. } => "snapshot",
            HubEventKind::Health { .. } => "health",
            HubEventKind::Overload { .. } => "overload",
            HubEventKind::Fault { .. } => "fault",
            HubEventKind::Detection(_) => "detection",
        }
    }
}

/// One event on the bus. Totally ordered by `(vtime, source, seq)`.
#[derive(Debug, Clone, PartialEq)]
pub struct HubEvent {
    /// Virtual publish instant.
    pub vtime: Epoch,
    /// Publishing component (`voltrino-head`, `dsosd-0`, `detector`,
    /// `hub`).
    pub source: String,
    /// Per-source monotone sequence number.
    pub seq: u64,
    /// Typed payload.
    pub kind: HubEventKind,
}

impl HubEvent {
    fn key(&self) -> (Epoch, &str, u64) {
        (self.vtime, self.source.as_str(), self.seq)
    }

    /// One CSV row: `vtime_s,source,seq,class,detail`.
    pub(crate) fn csv_row(&self) -> String {
        let detail = match &self.kind {
            HubEventKind::MetricSnapshot {
                series,
                counter_total,
                gauge_total,
                histogram_samples,
            } => format!("series={series} counters={counter_total} gauges={gauge_total} histogram_samples={histogram_samples}"),
            HubEventKind::Health { from, to, reason } => {
                format!("{}->{} {reason}", from.as_str(), to.as_str())
            }
            HubEventKind::Overload { from, to } => format!("{from}->{to}"),
            HubEventKind::Fault { kind, detail } => format!("{} {detail}", kind.as_str()),
            HubEventKind::Detection(d) => format!(
                "{} severity={} job={} rank={} op={} onset={:.3} detected={:.3} in_run={}",
                d.kind,
                d.severity,
                d.job_id,
                d.rank.map_or_else(|| "-".to_string(), |r| r.to_string()),
                d.op,
                d.onset_s,
                d.detected_s,
                d.in_run
            ),
        };
        format!(
            "{:.6},{},{},{},{}\n",
            self.vtime.as_secs_f64(),
            self.source,
            self.seq,
            self.kind.label(),
            detail
        )
    }
}

/// Retained-event-log bound (the `iowatch`/`pipestat` export source);
/// overflow drops the oldest.
const LOG_CAP: usize = 65_536;

/// Slots per timeline-ring resolution level.
const RING_SLOTS: usize = 256;

/// Identical alerts within this many virtual seconds collapse into one.
const DEDUP_WINDOW_S: u64 = 30;

/// Flap-suppression observation window in virtual seconds.
const FLAP_WINDOW_S: u64 = 60;

/// Alerts of one flap class within the window beyond this count are
/// suppressed.
const FLAP_THRESHOLD: usize = 4;

/// Hub policy. `Copy` so [`crate::TelemetryConfig`] stays `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HubConfig {
    /// Metric-snapshot cadence in virtual seconds (0 disables periodic
    /// snapshots).
    pub snapshot_every_s: u64,
}

impl Default for HubConfig {
    fn default() -> Self {
        Self {
            snapshot_every_s: 10,
        }
    }
}

/// A routed alert (post dedup and flap suppression).
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Virtual instant of the triggering event.
    pub vtime: Epoch,
    /// Source daemon/component.
    pub source: String,
    /// Severity.
    pub severity: AlertSeverity,
    /// Dedup identity (`class` or `class:qualifier`). The flap class
    /// is the prefix before the first `:`.
    pub key: String,
    /// Human-readable message.
    pub message: String,
}

/// One downsampling resolution level of the timeline ring.
#[derive(Debug)]
struct RingLevel {
    width_s: u64,
    /// bucket-start-second → series → (last, max).
    buckets: BTreeMap<u64, BTreeMap<String, (f64, f64)>>,
}

impl RingLevel {
    fn record(&mut self, t_s: u64, series: &str, value: f64) {
        let start = t_s / self.width_s * self.width_s;
        let per = self.buckets.entry(start).or_default();
        let cell = per.entry(series.to_string()).or_insert((value, value));
        cell.0 = value;
        if value > cell.1 {
            cell.1 = value;
        }
        while self.buckets.len() > RING_SLOTS {
            self.buckets.pop_first();
        }
    }
}

/// One exported timeline sample.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineRow {
    /// Resolution level (0 = finest).
    pub level: u32,
    /// Bucket width in virtual seconds.
    pub width_s: u64,
    /// Bucket start (virtual seconds, aligned to `width_s`).
    pub bucket_s: u64,
    /// Series name (`family{daemon}`).
    pub series: String,
    /// Last value folded into the bucket.
    pub last: f64,
    /// Maximum value folded into the bucket.
    pub max: f64,
}

/// Multi-resolution downsampling ring: every sample lands in all
/// levels; coarser levels keep the same slot count over 8× the width,
/// so total retention spans `RING_SLOTS * width * 64` seconds at the
/// coarsest level while memory stays bounded.
#[derive(Debug)]
struct TimelineRing {
    levels: Vec<RingLevel>,
}

impl TimelineRing {
    fn new(base_width_s: u64) -> Self {
        let base = base_width_s.max(1);
        Self {
            levels: (0..3)
                .map(|i| RingLevel {
                    width_s: base * 8u64.pow(i),
                    buckets: BTreeMap::new(),
                })
                .collect(),
        }
    }

    fn record(&mut self, t_s: u64, series: &str, value: f64) {
        for level in &mut self.levels {
            level.record(t_s, series, value);
        }
    }

    fn rows(&self) -> Vec<TimelineRow> {
        let mut out = Vec::new();
        for (i, level) in self.levels.iter().enumerate() {
            for (bucket, per) in &level.buckets {
                for (series, (last, max)) in per {
                    out.push(TimelineRow {
                        level: i as u32,
                        width_s: level.width_s,
                        bucket_s: *bucket,
                        series: series.clone(),
                        last: *last,
                        max: *max,
                    });
                }
            }
        }
        out
    }
}

#[derive(Debug, Default)]
struct RouterState {
    alerts: Vec<Alert>,
    /// (source, key) → last emitted instant, for dedup.
    last_emit: BTreeMap<(String, String), Epoch>,
    /// (source, flap class) → recent alert instants.
    recent: BTreeMap<(String, String), Vec<Epoch>>,
    deduped: u64,
    suppressed: u64,
}

#[derive(Debug)]
struct HubState {
    seq: BTreeMap<String, u64>,
    log: VecDeque<HubEvent>,
    log_dropped: u64,
    ring: TimelineRing,
    router: RouterState,
    published: u64,
}

/// `last_snapshot` before the first snapshot.
const NO_SNAPSHOT: u64 = u64::MAX;

/// The live diagnosis hub. One per [`crate::Telemetry`] instance when
/// enabled via [`crate::TelemetryConfig::hub`]; shared by every daemon
/// of a pipeline.
#[derive(Debug)]
pub struct DiagHub {
    cfg: HubConfig,
    state: Mutex<HubState>,
    /// The cadence boundary last snapshotted ([`NO_SNAPSHOT`] before
    /// the first). Written under the `state` lock; the relaxed read
    /// outside it only skips a boundary already taken, and a stale
    /// read falls through to the check under the lock.
    last_snapshot: AtomicU64,
}

impl DiagHub {
    /// Builds a hub with the given policy.
    pub fn new(cfg: HubConfig) -> Arc<Self> {
        Arc::new(Self {
            cfg,
            state: Mutex::new(HubState {
                seq: BTreeMap::new(),
                log: VecDeque::new(),
                log_dropped: 0,
                ring: TimelineRing::new(cfg.snapshot_every_s),
                router: RouterState::default(),
                published: 0,
            }),
            last_snapshot: AtomicU64::new(NO_SNAPSHOT),
        })
    }

    /// Publishes one event: assigns the per-source sequence number,
    /// appends to the retained log, and
    /// routes alert-worthy payloads.
    pub fn publish(&self, source: &str, vtime: Epoch, kind: HubEventKind) {
        let mut st = self.state.lock();
        let seq = {
            let c = st.seq.entry(source.to_string()).or_insert(0);
            let s = *c;
            *c += 1;
            s
        };
        let ev = HubEvent {
            vtime,
            source: source.to_string(),
            seq,
            kind,
        };
        st.published += 1;
        if let Some(alert) = alert_for(&ev) {
            route(&mut st.router, alert);
        }
        if st.log.len() >= LOG_CAP {
            st.log.pop_front();
            st.log_dropped += 1;
        }
        st.log.push_back(ev);
    }

    /// Cadence driver: called from instrumented hot paths with the
    /// current virtual instant. When `now` has crossed a snapshot
    /// boundary since the last call, folds every registry series into
    /// the timeline ring and publishes one `MetricSnapshot` event at
    /// the boundary instant. Idempotent within a boundary, so any
    /// number of call sites may drive it; a call within the boundary
    /// last snapshotted is one relaxed load.
    pub(crate) fn advance(&self, now: Epoch, registry: &MetricRegistry) {
        if self.cfg.snapshot_every_s == 0 {
            return;
        }
        let boundary = now.as_nanos() / 1_000_000_000 / self.cfg.snapshot_every_s;
        if self.last_snapshot.load(Ordering::Relaxed) == boundary {
            return;
        }
        // Snapshot the registry outside the hub lock; publish below.
        let boundary_s = boundary * self.cfg.snapshot_every_s;
        let mut series = 0u64;
        let mut counter_total = 0u64;
        let mut gauge_total = 0u64;
        let mut histogram_samples = 0u64;
        let mut samples: Vec<(String, f64)> = Vec::new();
        for (family, members) in registry.families() {
            for (daemon, metric) in members {
                series += 1;
                let value = match &metric {
                    Metric::Counter(c) => {
                        counter_total += c.get();
                        c.get() as f64
                    }
                    Metric::Gauge(g) => {
                        gauge_total += g.get();
                        g.get() as f64
                    }
                    Metric::Histogram(h) => {
                        histogram_samples += h.count();
                        h.count() as f64
                    }
                };
                samples.push((format!("{family}{{{daemon}}}"), value));
            }
        }
        {
            let mut st = self.state.lock();
            if self.last_snapshot.load(Ordering::Relaxed) == boundary {
                return; // lost the race to another call site
            }
            self.last_snapshot.store(boundary, Ordering::Relaxed);
            for (series_name, value) in &samples {
                st.ring.record(boundary_s, series_name, *value);
            }
        }
        self.publish(
            "hub",
            Epoch::from_secs(boundary_s),
            HubEventKind::MetricSnapshot {
                series,
                counter_total,
                gauge_total,
                histogram_samples,
            },
        );
    }

    /// A sorted copy of the retained event log.
    pub fn events(&self) -> Vec<HubEvent> {
        let mut out: Vec<HubEvent> = self.state.lock().log.iter().cloned().collect();
        out.sort_by(|a, b| a.key().cmp(&b.key()));
        out
    }

    /// Events dropped from the retained log because it was full.
    pub fn log_dropped(&self) -> u64 {
        self.state.lock().log_dropped
    }

    /// Total events published.
    pub fn published(&self) -> u64 {
        self.state.lock().published
    }

    /// Routed alerts, in routing order.
    pub fn alerts(&self) -> Vec<Alert> {
        self.state.lock().router.alerts.clone()
    }

    /// `(deduped, flap_suppressed)` alert counts.
    pub fn alert_stats(&self) -> (u64, u64) {
        let st = self.state.lock();
        (st.router.deduped, st.router.suppressed)
    }

    /// The downsampled timeline, finest level first.
    pub fn timeline(&self) -> Vec<TimelineRow> {
        self.state.lock().ring.rows()
    }

    /// Timeline CSV export: `level,width_s,bucket_s,series,last,max`.
    pub fn timeline_csv(&self) -> String {
        let mut out = String::from("level,width_s,bucket_s,series,last,max\n");
        for r in self.timeline() {
            out.push_str(&format!(
                "{},{},{},{},{},{}\n",
                r.level, r.width_s, r.bucket_s, r.series, r.last, r.max
            ));
        }
        out
    }

    /// Event-log CSV export: `vtime_s,source,seq,class,detail`.
    pub fn events_csv(&self) -> String {
        let mut out = String::from("vtime_s,source,seq,class,detail\n");
        for ev in self.events() {
            out.push_str(&ev.csv_row());
        }
        out
    }
}

/// Maps an event to its alert, if it is alert-worthy.
fn alert_for(ev: &HubEvent) -> Option<Alert> {
    let (severity, key, message) = match &ev.kind {
        HubEventKind::MetricSnapshot { .. } => return None,
        HubEventKind::Health { from, to, reason } => {
            let severity = match to {
                HealthState::Down => AlertSeverity::Critical,
                HealthState::Overloaded | HealthState::Degraded => AlertSeverity::Warning,
                HealthState::Healthy => AlertSeverity::Info,
            };
            (
                severity,
                format!("health:{}", to.as_str()),
                format!("{} -> {} ({reason})", from.as_str(), to.as_str()),
            )
        }
        HubEventKind::Overload { from, to } => {
            let severity = if *to == "normal" {
                AlertSeverity::Info
            } else {
                AlertSeverity::Warning
            };
            (
                severity,
                format!("overload:{to}"),
                format!("ladder {from} -> {to}"),
            )
        }
        HubEventKind::Fault { kind, detail } => {
            let severity = match kind {
                FaultKind::Crash => AlertSeverity::Critical,
                FaultKind::Failover => AlertSeverity::Warning,
                FaultKind::Restart | FaultKind::Failback | FaultKind::Rebuild => {
                    AlertSeverity::Info
                }
            };
            (severity, format!("fault:{}", kind.as_str()), detail.clone())
        }
        HubEventKind::Detection(d) => {
            let severity = if d.severity == "critical" {
                AlertSeverity::Critical
            } else {
                AlertSeverity::Warning
            };
            (
                severity,
                format!(
                    "detect:{}:job{}:rank{}",
                    d.kind,
                    d.job_id,
                    d.rank.map_or_else(|| "-".to_string(), |r| r.to_string())
                ),
                format!("{} on {} (onset {:.3}s)", d.kind, d.op, d.onset_s),
            )
        }
    };
    Some(Alert {
        vtime: ev.vtime,
        source: ev.source.clone(),
        severity,
        key,
        message,
    })
}

/// Alert routing: flap suppression first (same class oscillating
/// within the window), then exact-key dedup within the dedup window.
fn route(router: &mut RouterState, alert: Alert) {
    let class = alert
        .key
        .split(':')
        .next()
        .unwrap_or(alert.key.as_str())
        .to_string();
    let window_start = alert
        .vtime
        .as_nanos()
        .saturating_sub(FLAP_WINDOW_S * 1_000_000_000);
    let recent = router
        .recent
        .entry((alert.source.clone(), class))
        .or_default();
    recent.retain(|t| t.as_nanos() >= window_start);
    if recent.len() >= FLAP_THRESHOLD {
        router.suppressed += 1;
        return;
    }
    recent.push(alert.vtime);
    let dedup_key = (alert.source.clone(), alert.key.clone());
    if let Some(last) = router.last_emit.get(&dedup_key) {
        if alert.vtime.since(*last).as_secs_f64() < DEDUP_WINDOW_S as f64 {
            router.deduped += 1;
            return;
        }
    }
    router.last_emit.insert(dedup_key, alert.vtime);
    router.alerts.push(alert);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn health(from: HealthState, to: HealthState) -> HubEventKind {
        HubEventKind::Health {
            from,
            to,
            reason: "test".into(),
        }
    }

    #[test]
    fn events_order_by_vtime_source_seq() {
        let hub = DiagHub::new(HubConfig::default());
        let t = Epoch::from_secs(100);
        hub.publish("b", t, health(HealthState::Healthy, HealthState::Degraded));
        hub.publish("a", t, health(HealthState::Healthy, HealthState::Down));
        hub.publish(
            "a",
            Epoch::from_secs(90),
            health(HealthState::Down, HealthState::Healthy),
        );
        let events = hub.events();
        let keys: Vec<(u64, &str, u64)> = events
            .iter()
            .map(|e| (e.vtime.as_nanos() / 1_000_000_000, e.source.as_str(), e.seq))
            .collect();
        assert_eq!(keys, vec![(90, "a", 1), (100, "a", 0), (100, "b", 0)]);
    }

    #[test]
    fn snapshot_counts_and_timeline() {
        let hub = DiagHub::new(HubConfig {
            snapshot_every_s: 10,
        });
        let reg = MetricRegistry::new();
        reg.counter("forwarded", "l1").add(7);
        reg.gauge("queue_depth", "l1").set(3);
        hub.advance(Epoch::from_secs(105), &reg);
        hub.advance(Epoch::from_secs(106), &reg);
        hub.advance(Epoch::from_secs(125), &reg);
        let snaps: Vec<HubEvent> = hub
            .events()
            .into_iter()
            .filter(|e| matches!(e.kind, HubEventKind::MetricSnapshot { .. }))
            .collect();
        assert_eq!(snaps.len(), 2, "one snapshot per crossed boundary");
        match &snaps[0].kind {
            HubEventKind::MetricSnapshot {
                series,
                counter_total,
                gauge_total,
                ..
            } => {
                assert_eq!(*series, 2);
                assert_eq!(*counter_total, 7);
                assert_eq!(*gauge_total, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        let rows = hub.timeline();
        assert!(rows
            .iter()
            .any(|r| r.level == 0 && r.series == "forwarded{l1}" && (r.last - 7.0).abs() < 1e-9));
        // Every sample lands in all three resolution levels.
        for lvl in 0..3 {
            assert!(rows.iter().any(|r| r.level == lvl));
        }
        let csv = hub.timeline_csv();
        assert!(csv.starts_with("level,width_s,bucket_s,series,last,max\n"));
        assert!(csv.contains("queue_depth{l1}"));
    }

    #[test]
    fn timeline_ring_is_bounded() {
        let hub = DiagHub::new(HubConfig {
            snapshot_every_s: 1,
        });
        let reg = MetricRegistry::new();
        reg.counter("forwarded", "l1").inc();
        let last = RING_SLOTS as u64 + 50;
        for s in 0..=last {
            hub.advance(Epoch::from_secs(s), &reg);
        }
        let level0: Vec<TimelineRow> = hub
            .timeline()
            .into_iter()
            .filter(|r| r.level == 0)
            .collect();
        assert_eq!(
            level0.len(),
            RING_SLOTS,
            "finest level bounded at RING_SLOTS"
        );
        // The most recent buckets survive.
        assert!(level0.iter().any(|r| r.bucket_s == last));
        assert!(level0.iter().all(|r| r.bucket_s > last - RING_SLOTS as u64));
    }

    #[test]
    fn alerts_dedup_within_window() {
        let hub = DiagHub::new(HubConfig::default());
        // Three alerts, inside the flap window and under its threshold:
        // only the dedup window decides.
        for at in [100, 100 + DEDUP_WINDOW_S - 1, 100 + DEDUP_WINDOW_S] {
            hub.publish(
                "l1",
                Epoch::from_secs(at),
                health(HealthState::Healthy, HealthState::Degraded),
            );
        }
        assert_eq!(hub.alerts().len(), 2, "second alert deduped");
        assert_eq!(hub.alert_stats().0, 1);
    }

    #[test]
    fn flapping_health_is_suppressed() {
        let hub = DiagHub::new(HubConfig::default());
        // A daemon cycling through every health state once a second:
        // each alert has its own dedup key, but all share one flap class.
        let cycle = [
            HealthState::Healthy,
            HealthState::Degraded,
            HealthState::Overloaded,
            HealthState::Down,
        ];
        for i in 0..10usize {
            let (from, to) = (cycle[i % 4], cycle[(i + 1) % 4]);
            hub.publish("l1", Epoch::from_secs(100 + i as u64), health(from, to));
        }
        assert_eq!(
            hub.alerts().len(),
            FLAP_THRESHOLD,
            "first ones pass, rest suppressed"
        );
        assert_eq!(hub.alert_stats(), (0, 10 - FLAP_THRESHOLD as u64));
        // Once the window has passed, the class alerts again.
        hub.publish(
            "l1",
            Epoch::from_secs(100 + FLAP_WINDOW_S + 10),
            health(HealthState::Healthy, HealthState::Down),
        );
        assert_eq!(hub.alerts().len(), FLAP_THRESHOLD + 1);
    }

    #[test]
    fn detection_and_fault_alerts_carry_severity() {
        let hub = DiagHub::new(HubConfig::default());
        hub.publish(
            "dsosd-0",
            Epoch::from_secs(100),
            HubEventKind::Fault {
                kind: FaultKind::Crash,
                detail: "scheduled crash".into(),
            },
        );
        hub.publish(
            "detector",
            Epoch::from_secs(101),
            HubEventKind::Detection(DetectionRecord {
                kind: "straggler-rank".into(),
                severity: "critical".into(),
                job_id: 7,
                rank: Some(3),
                op: "io".into(),
                onset_s: 90.0,
                detected_s: 101.0,
                in_run: true,
            }),
        );
        let alerts = hub.alerts();
        assert_eq!(alerts.len(), 2);
        assert_eq!(alerts[0].severity, AlertSeverity::Critical);
        assert_eq!(alerts[1].severity, AlertSeverity::Critical);
        assert!(alerts[1].key.contains("straggler-rank"));
        let csv = hub.events_csv();
        assert!(csv.contains("fault"));
        assert!(csv.contains("in_run=true"));
    }

    #[test]
    fn log_is_bounded_with_drop_count() {
        let hub = DiagHub::new(HubConfig::default());
        for i in 0..LOG_CAP as u64 + 2 {
            hub.publish(
                "d",
                Epoch::from_secs(i),
                health(HealthState::Healthy, HealthState::Degraded),
            );
        }
        let events = hub.events();
        assert_eq!(events.len(), LOG_CAP);
        assert_eq!(hub.log_dropped(), 2);
        assert_eq!(events[0].seq, 2, "the oldest were dropped");
    }
}
