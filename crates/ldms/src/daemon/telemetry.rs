//! Daemon self-telemetry: metric handles, the flight recorder, and the
//! health and fault events a daemon publishes to the live diagnosis
//! hub.
//!
//! The handles are resolved once, when the network builds the daemon,
//! so the hot path pays one atomic bump per metric instead of a
//! registry lookup. A daemon built without telemetry (the default)
//! pays one `Option` check per hook site.

use super::{Ldmsd, NEXT_PASS};
use crate::overload::OverloadState;
use crate::stream::StreamMessage;
use iosim_telemetry::{
    Counter, DiagHub, FaultKind, FlightRecorder, Gauge, HealthState, Histogram, HopKind,
    HubEventKind, Telemetry,
};
use iosim_time::Epoch;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

/// One daemon's telemetry handles.
pub(super) struct DaemonTelemetry {
    pub(super) hub: Arc<Telemetry>,
    /// The live diagnosis hub (absent when telemetry runs without
    /// one).
    diag: Option<Arc<DiagHub>>,
    /// Last published health state (dense [`HealthState`] encoding),
    /// so transitions publish exactly once.
    last_health: AtomicU8,
    /// Cached span site label — the daemon name, shared by every span
    /// this daemon records.
    pub(super) site: Arc<str>,
    /// The daemon's own ring of recent fault-path events.
    pub(super) flight: FlightRecorder,
    pub(super) forwarded: Arc<Counter>,
    ingested: Arc<Counter>,
    pub(super) queue_depth: Arc<Gauge>,
    pub(super) parked_frames: Arc<Counter>,
    pub(super) retries: Arc<Counter>,
    pub(super) retry_backoff_ms: Arc<Histogram>,
    pub(super) wal_replayed: Arc<Counter>,
    pub(super) heartbeat_misses: Arc<Counter>,
    overload_depth: Arc<Gauge>,
    overload_throttled: Arc<Gauge>,
    overload_spilled: Arc<Gauge>,
    overload_folded: Arc<Gauge>,
    overload_summaries: Arc<Gauge>,
}

impl DaemonTelemetry {
    /// Registers daemon `name`'s metric families with `hub` (so
    /// exposition shows them even at zero) and resolves every handle.
    pub(super) fn new(hub: &Arc<Telemetry>, name: &str) -> Self {
        let reg = hub.registry();
        Self {
            hub: hub.clone(),
            diag: hub.diag().cloned(),
            last_health: AtomicU8::new(HealthState::Healthy.to_u8()),
            site: Arc::from(name),
            flight: FlightRecorder::default(),
            forwarded: reg.counter("forwarded", name),
            ingested: reg.counter("ingested", name),
            queue_depth: reg.gauge("queue_depth", name),
            parked_frames: reg.counter("parked_frames", name),
            retries: reg.counter("retries", name),
            retry_backoff_ms: reg.histogram("retry_backoff_ms", name),
            wal_replayed: reg.counter("wal_replayed", name),
            heartbeat_misses: reg.counter("heartbeat_misses", name),
            overload_depth: reg.gauge("overload_depth", name),
            overload_throttled: reg.gauge("overload_throttled", name),
            overload_spilled: reg.gauge("overload_spilled", name),
            overload_folded: reg.gauge("overload_folded", name),
            overload_summaries: reg.gauge("overload_summaries", name),
        }
    }
}

impl Ldmsd {
    /// The live diagnosis hub, when telemetry with a hub is on.
    pub(super) fn diag(&self) -> Option<(&DaemonTelemetry, &DiagHub)> {
        let tel = self.tel.as_ref()?;
        Some((tel, tel.diag.as_deref()?))
    }

    /// Books a visit at the next pass, whatever its instant, when
    /// only a visit would find a health report due: a drain has just
    /// moved the daemon's health without reporting it (the report
    /// carries the instant of the pass that makes it, so it cannot be
    /// made here), or a scripted downtime window lets the clock alone
    /// move it — and publishes need not come in clock order. Such a
    /// daemon is visited every pass while a hub listens, as the sweep
    /// visited every daemon; with no hub there is nothing to report.
    pub(super) fn keep_health_watch(&self, now: Epoch) {
        if let Some((tel, _)) = self.diag() {
            if !self.lifecycle.always_up()
                || self.health_at(now).to_u8() != tel.last_health.load(Ordering::Relaxed)
            {
                self.wake(NEXT_PASS);
            }
        }
    }

    /// Mirrors the overload controller's counters into the telemetry
    /// registry's gauges (no-op unless both are on). Called at
    /// report/exposition points, not per admission.
    pub(crate) fn sync_overload_telemetry(&self) {
        let (Some(tel), Some(st)) = (&self.tel, self.overload_stats()) else {
            return;
        };
        tel.overload_depth.set(st.depth as u64);
        tel.overload_throttled.set(st.throttled);
        tel.overload_spilled.set(st.spilled);
        tel.overload_folded.set(st.folded_events);
        tel.overload_summaries.set(st.summaries);
    }

    /// Derives the daemon's current health from its liveness window,
    /// overload-ladder rung, and retry-queue depth. The reason string
    /// is only built by [`Ldmsd::note_health`] on an actual
    /// transition.
    fn health_at(&self, now: Epoch) -> HealthState {
        if !self.lifecycle.is_up(now) {
            return HealthState::Down;
        }
        if let Some(ctl) = &self.overload {
            if ctl.state() != OverloadState::Normal {
                return HealthState::Overloaded;
            }
        }
        if self.queued() > 0 {
            return HealthState::Degraded;
        }
        HealthState::Healthy
    }

    /// Publishes a health transition to the diagnosis hub when the
    /// derived state changed since the last check. Called from the
    /// daemon's virtual-time touch points (hop processing, parking,
    /// pump); a no-op without a hub.
    pub(super) fn note_health(&self, now: Epoch) {
        let Some((tel, diag)) = self.diag() else {
            return;
        };
        let state = self.health_at(now);
        let prev = HealthState::from_u8(tel.last_health.swap(state.to_u8(), Ordering::Relaxed));
        if prev == state {
            return;
        }
        let reason = match state {
            HealthState::Down => "liveness window closed (outage or crash)".to_string(),
            HealthState::Overloaded => {
                let rung = self
                    .overload
                    .as_ref()
                    .map(|c| c.state().as_str())
                    .unwrap_or("unknown");
                format!("overload ladder at {rung}")
            }
            HealthState::Degraded => format!("{} frames parked for retry", self.queued()),
            HealthState::Healthy => "recovered".to_string(),
        };
        diag.publish(
            &self.name,
            now,
            HubEventKind::Health {
                from: prev,
                to: state,
                reason,
            },
        );
    }

    /// Publishes a lifecycle fault event to the diagnosis hub; a no-op
    /// without a hub.
    pub(super) fn note_fault(&self, at: Epoch, kind: FaultKind, detail: String) {
        if let Some((_, diag)) = self.diag() {
            diag.publish(&self.name, at, HubEventKind::Fault { kind, detail });
        }
    }

    /// Telemetry for one terminal delivery: bumps the ingest counter
    /// and, for a traced message, closes the trace with an `ingest`
    /// span whose latency is the full publish-to-store sojourn.
    pub(super) fn note_ingest(&self, msg: &StreamMessage) {
        let Some(tel) = &self.tel else { return };
        tel.ingested.add(msg.weight());
        if let Some(trace) = msg.trace {
            tel.hub.span(
                trace,
                HopKind::Ingest,
                &tel.site,
                msg.recv_time,
                msg.recv_time.since(msg.publish_time),
            );
        }
    }
}
