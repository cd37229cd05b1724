//! Overload control: graceful degradation under message storms.
//!
//! The paper's worst case is a message storm — HMMER publishes
//! 1.5–2.4 k msg/s and millions of events, and the connector's only
//! defense today is a bounded retry queue that silently drops oldest.
//! This module adds an explicit degradation ladder in front of every
//! forwarding hop, trading *fidelity* for *survival* in controlled,
//! fully accounted steps:
//!
//! 1. **Normal** — below the throttle watermark, messages pass
//!    untouched (byte-identical to the seed pipeline).
//! 2. **Throttle** — the hop paces admissions in virtual time: each
//!    message's `recv_time` is pushed to the next service slot, which
//!    models the backpressure signal a real LDMS daemon would push
//!    upstream to slow the connector's publish loop.
//! 3. **Spill** — messages are parked straight into the hop's retry
//!    queue (and therefore its write-ahead log) with a paced release
//!    instant and [`LossCause::Backpressure`] attribution if they are
//!    ultimately abandoned. The WAL is the buffer between "slow down"
//!    and "start summarizing".
//! 4. **Sample** — a deterministic, seeded thinner keeps 1-in-N bulk
//!    events individually and folds the rest into per-(producer, job,
//!    rank, window) *summary sketches* (count, bytes, min/max/sum
//!    duration). Sketches travel as first-class
//!    [`MsgClass::Summary`] messages whose ledger weight is the
//!    folded-event count, so `published == delivered + losses +
//!    summarized` balances exactly.
//!
//! Load is measured by a *fluid ingress meter*: the simulated
//! transport has no congestion (links delay, they do not queue), so
//! real queue depth never builds under a pure storm. The meter
//! integrates offered load against a configured service rate —
//! `depth = max(0, depth − rate·Δt) + weight` per arrival — and the
//! controller changes state when the modeled backlog crosses a
//! watermark, after a propagation delay standing in for the upstream
//! signal's travel time.
//!
//! Metadata-class events ([`MsgClass::Meta`], open/close records) are
//! *never* spilled or summarized: diagnosis needs every file
//! open/close individually, and they are a vanishing fraction of a
//! storm. They are still paced, so the backpressure signal reaches
//! them too. Everything here is deterministic: same seed, same
//! arrival order, same decisions.

use crate::batch::{self, FrameRecord};
use crate::fault::mix64;
use crate::ledger::DeliveryLedger;
use crate::stream::{MsgClass, MsgFormat, StreamMessage};
use iosim_time::{Epoch, SimDuration};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// High bit of a summary sketch's sequence number. Keeps sketch
/// idempotency keys disjoint from connector-stamped event sequences
/// (connectors count up from 1 and never reach 2^63).
pub const SUMMARY_SEQ_BIT: u64 = 1 << 63;

/// Overload-control policy for one forwarding hop. Watermarks are in
/// *modeled backlog* units — logical messages the hop is behind its
/// service rate.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadConfig {
    /// Modeled drain rate of the hop, logical messages per virtual
    /// second. The fluid meter integrates offered load against this.
    pub service_rate: f64,
    /// Backlog at which pacing starts.
    pub throttle_watermark: f64,
    /// Backlog at which admissions spill into the retry queue/WAL.
    pub spill_watermark: f64,
    /// Backlog at which adaptive sampling starts.
    pub sample_watermark: f64,
    /// In the Sample state, keep 1 in this many bulk events
    /// individually (`<= 1` keeps everything — sketches never open).
    pub sample_keep_every: u64,
    /// Sketch aggregation window (event publish-time buckets).
    pub window: SimDuration,
    /// Seed for the deterministic keep decision.
    pub seed: u64,
    /// Delay before a state change takes effect — the virtual travel
    /// time of the backpressure signal to the upstream publisher.
    pub propagation: SimDuration,
}

impl OverloadConfig {
    /// A policy derived from the hop's service rate: throttle at half
    /// a second of backlog, spill at one second, sample at two; keep
    /// 1-in-8 under sampling with one-second sketch windows and a
    /// 250 ms signal propagation delay.
    pub fn for_rate(service_rate: f64) -> Self {
        let rate = service_rate.max(1.0);
        Self {
            service_rate: rate,
            throttle_watermark: rate * 0.5,
            spill_watermark: rate,
            sample_watermark: rate * 2.0,
            sample_keep_every: 8,
            window: SimDuration::from_secs(1),
            seed: 0x0B5E_55ED,
            propagation: SimDuration::from_millis(250),
        }
    }

    /// Sets the sketch window.
    pub fn with_window(mut self, window: SimDuration) -> Self {
        self.window = window;
        self
    }

    /// The state the meter depth maps to under this policy.
    fn state_for(&self, depth: f64) -> OverloadState {
        if depth >= self.sample_watermark {
            OverloadState::Sample
        } else if depth >= self.spill_watermark {
            OverloadState::Spill
        } else if depth >= self.throttle_watermark {
            OverloadState::Throttle
        } else {
            OverloadState::Normal
        }
    }
}

/// Builders only the unit tests call; everything else sets the
/// `pub` fields.
#[cfg(test)]
impl OverloadConfig {
    /// Sets the keep-1-in-N sampling rate.
    pub(crate) fn with_keep_every(mut self, keep_every: u64) -> Self {
        self.sample_keep_every = keep_every;
        self
    }

    /// Sets the keep-decision seed.
    pub(crate) fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the backpressure propagation delay.
    pub(crate) fn with_propagation(mut self, propagation: SimDuration) -> Self {
        self.propagation = propagation;
        self
    }
}

/// Where a hop sits on the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum OverloadState {
    /// Below all watermarks: pass-through.
    #[default]
    Normal,
    /// Pacing admissions in virtual time.
    Throttle,
    /// Parking admissions into the retry queue / WAL.
    Spill,
    /// Thinning bulk events into summary sketches.
    Sample,
}

impl OverloadState {
    /// Stable lowercase name for reports.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            OverloadState::Normal => "normal",
            OverloadState::Throttle => "throttle",
            OverloadState::Spill => "spill",
            OverloadState::Sample => "sample",
        }
    }
}

/// What the controller decided for one admission. At most one of
/// `forward`/`spill` is set; `summaries` may accompany either (window
/// flushes ride on the admission that advanced the window).
#[derive(Debug, Default)]
pub(crate) struct AdmitOutcome {
    /// Message to forward now (possibly paced, possibly a thinned
    /// frame). `None` when the admission was fully folded or spilled.
    pub forward: Option<StreamMessage>,
    /// Message to park in the retry queue until the given release
    /// instant, with [`LossCause::Backpressure`] attribution.
    pub spill: Option<(StreamMessage, Epoch)>,
    /// Summary sketches flushed by this admission, to forward as
    /// first-class messages.
    pub summaries: Vec<StreamMessage>,
}

/// One open per-(producer, job, rank) aggregation window.
#[derive(Debug, Clone)]
struct Sketch {
    window_idx: u64,
    tag: Arc<str>,
    first_pub: Epoch,
    last_pub: Epoch,
    count: u64,
    bytes: u64,
    dur_min: f64,
    dur_max: f64,
    dur_sum: f64,
}

impl Sketch {
    fn open(window_idx: u64, tag: Arc<str>, at: Epoch) -> Self {
        Self {
            window_idx,
            tag,
            first_pub: at,
            last_pub: at,
            count: 0,
            bytes: 0,
            dur_min: f64::INFINITY,
            dur_max: 0.0,
            dur_sum: 0.0,
        }
    }

    fn fold(&mut self, bytes: u64, dur: f64, at: Epoch) {
        self.count += 1;
        self.bytes += bytes;
        if dur < self.dur_min {
            self.dur_min = dur;
        }
        if dur > self.dur_max {
            self.dur_max = dur;
        }
        self.dur_sum += dur;
        if at < self.first_pub {
            self.first_pub = at;
        }
        if at > self.last_pub {
            self.last_pub = at;
        }
    }
}

/// Per-(producer, job, rank) folding state.
#[derive(Debug, Default)]
struct KeyState {
    sketch: Option<Sketch>,
    /// Sketches emitted for this key so far — the running counter in
    /// the sketch sequence number, so re-entering the Sample state
    /// inside one window never reuses an idempotency key.
    emitted: u64,
}

#[derive(Debug)]
struct Inner {
    depth: f64,
    last: Epoch,
    state: OverloadState,
    pending: Option<(OverloadState, Epoch)>,
    next_slot: Epoch,
    max_depth: f64,
    /// Ordered, so sketches flushed together leave in the same
    /// `(producer, job, rank)` order in every run.
    keys: BTreeMap<(Arc<str>, u64, u64), KeyState>,
}

/// Monotone counters snapshot for reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadStats {
    /// Current ladder state.
    pub state: OverloadState,
    /// Current modeled backlog.
    pub depth: f64,
    /// Deepest modeled backlog seen.
    pub max_depth: f64,
    /// Logical messages whose delivery was delayed by pacing.
    pub throttled: u64,
    /// Logical messages parked via the spill stage.
    pub spilled: u64,
    /// Bulk events kept individually while sampling.
    pub kept_events: u64,
    /// Bulk events folded into sketches.
    pub folded_events: u64,
    /// Summary sketches emitted.
    pub summaries: u64,
    /// Ladder state changes taken (after propagation).
    pub transitions: u64,
}

/// The per-hop overload controller. One instance guards one
/// forwarding daemon; every bulk/metadata admission flows through
/// [`OverloadController::admit`] before the send attempt.
#[derive(Debug)]
pub struct OverloadController {
    config: OverloadConfig,
    /// Disambiguates this hop's sketch sequence numbers from other
    /// hops' (two hops may fold the same (producer, job, rank) key).
    hop_ord: u64,
    /// Where a folded event's delivery key is claimed, when the hop
    /// reports to a ledger.
    ledger: Option<Arc<DeliveryLedger>>,
    inner: Mutex<Inner>,
    throttled: AtomicU64,
    spilled: AtomicU64,
    kept_events: AtomicU64,
    folded_events: AtomicU64,
    summaries: AtomicU64,
    transitions: AtomicU64,
}

impl OverloadController {
    /// Creates a controller for the hop with the given deterministic
    /// ordinal (its index in the network's node order).
    pub(crate) fn new(config: OverloadConfig, hop_ord: u64) -> Self {
        Self {
            config,
            hop_ord,
            ledger: None,
            inner: Mutex::new(Inner {
                depth: 0.0,
                last: Epoch::from_nanos(0),
                state: OverloadState::Normal,
                pending: None,
                next_slot: Epoch::from_nanos(0),
                max_depth: 0.0,
                keys: BTreeMap::new(),
            }),
            throttled: AtomicU64::new(0),
            spilled: AtomicU64::new(0),
            kept_events: AtomicU64::new(0),
            folded_events: AtomicU64::new(0),
            summaries: AtomicU64::new(0),
            transitions: AtomicU64::new(0),
        }
    }

    /// Claims every folded event's delivery key in `ledger`, so a
    /// WAL-replayed copy of an event that is already in a sketch (or
    /// delivered, or lost) is not folded a second time.
    pub(crate) fn with_ledger(mut self, ledger: Arc<DeliveryLedger>) -> Self {
        self.ledger = Some(ledger);
        self
    }

    /// The policy in force.
    pub(crate) fn config(&self) -> &OverloadConfig {
        &self.config
    }

    /// Current ladder state.
    pub(crate) fn state(&self) -> OverloadState {
        self.inner.lock().state
    }

    /// Counter snapshot.
    pub(crate) fn stats(&self) -> OverloadStats {
        let inner = self.inner.lock();
        OverloadStats {
            state: inner.state,
            depth: inner.depth,
            max_depth: inner.max_depth,
            throttled: self.throttled.load(Ordering::Relaxed),
            spilled: self.spilled.load(Ordering::Relaxed),
            kept_events: self.kept_events.load(Ordering::Relaxed),
            folded_events: self.folded_events.load(Ordering::Relaxed),
            summaries: self.summaries.load(Ordering::Relaxed),
            transitions: self.transitions.load(Ordering::Relaxed),
        }
    }

    /// The deterministic keep decision for one bulk event: stable in
    /// the seed and the event's identity, independent of arrival
    /// order. Events without a sequence number are always kept (they
    /// carry no idempotency key to account a fold under).
    fn keep(&self, job: u64, rank: u64, seq: Option<u64>) -> bool {
        let n = self.config.sample_keep_every;
        if n <= 1 {
            return true;
        }
        let Some(seq) = seq else { return true };
        let h = mix64(self.config.seed ^ mix64(job ^ rank.rotate_left(32)) ^ seq);
        h % n == 0
    }

    /// Runs one admission through the ladder. `now` is the message's
    /// arrival instant at this hop in virtual time.
    ///
    /// Summary-class and replayed messages must *not* be re-admitted
    /// (they are already-degraded or already-accounted traffic); this
    /// is enforced here by passing them through untouched.
    pub(crate) fn admit(&self, msg: StreamMessage, now: Epoch) -> AdmitOutcome {
        if msg.class == MsgClass::Summary || msg.replayed {
            return AdmitOutcome {
                forward: Some(msg),
                ..AdmitOutcome::default()
            };
        }
        let weight = msg.weight();
        let mut inner = self.inner.lock();
        self.meter(&mut inner, weight, now);
        let mut outcome = AdmitOutcome::default();
        self.advance_state(&mut inner, now, &mut outcome);
        match inner.state {
            OverloadState::Normal => {
                outcome.forward = Some(msg);
            }
            OverloadState::Throttle => {
                outcome.forward = Some(self.pace(&mut inner, msg, weight));
            }
            OverloadState::Spill if msg.class == MsgClass::Meta => {
                // Metadata is paced but never parked or folded.
                outcome.forward = Some(self.pace(&mut inner, msg, weight));
            }
            OverloadState::Spill => {
                let paced = self.pace(&mut inner, msg, weight);
                let release = paced.recv_time;
                self.spilled.fetch_add(weight, Ordering::Relaxed);
                outcome.spill = Some((paced, release));
            }
            OverloadState::Sample if msg.class == MsgClass::Meta => {
                outcome.forward = Some(self.pace(&mut inner, msg, weight));
            }
            OverloadState::Sample => {
                self.sample(&mut inner, msg, now, &mut outcome);
            }
        }
        outcome
    }

    /// Flushes every open sketch (campaign settle, or an explicit
    /// window close). Returned messages are forwarded by the caller.
    pub(crate) fn flush_all(&self, now: Epoch) -> Vec<StreamMessage> {
        self.drain_sketches(&mut self.inner.lock(), now)
    }

    /// Integrates the fluid meter up to `now` and adds this arrival.
    fn meter(&self, inner: &mut Inner, weight: u64, now: Epoch) {
        let elapsed = now.since(inner.last).as_secs_f64();
        inner.depth = (inner.depth - self.config.service_rate * elapsed).max(0.0) + weight as f64;
        if now > inner.last {
            inner.last = now;
        }
        if inner.depth > inner.max_depth {
            inner.max_depth = inner.depth;
        }
    }

    /// Applies the watermark → state mapping with the propagation
    /// delay: a change is first *pending*, and takes effect once the
    /// signal has had time to reach the publisher. Leaving the Sample
    /// state flushes all open sketches into `outcome`.
    fn advance_state(&self, inner: &mut Inner, now: Epoch, outcome: &mut AdmitOutcome) {
        let target = self.config.state_for(inner.depth);
        if target == inner.state {
            inner.pending = None;
            return;
        }
        let effective_at = match inner.pending {
            Some((pending, at)) if pending == target => at,
            _ => {
                let at = now + self.config.propagation;
                inner.pending = Some((target, at));
                at
            }
        };
        if now >= effective_at {
            let was = inner.state;
            inner.state = target;
            inner.pending = None;
            self.transitions.fetch_add(1, Ordering::Relaxed);
            if was == OverloadState::Sample {
                let flushed = self.drain_sketches(inner, now);
                outcome.summaries.extend(flushed);
            }
        }
    }

    /// Pushes a message to the hop's next service slot, modeling the
    /// upstream publisher slowing down in virtual time.
    fn pace(&self, inner: &mut Inner, mut msg: StreamMessage, weight: u64) -> StreamMessage {
        let slot = if inner.next_slot > msg.recv_time {
            msg.recv_time = inner.next_slot;
            self.throttled.fetch_add(weight, Ordering::Relaxed);
            inner.next_slot
        } else {
            msg.recv_time
        };
        let service = SimDuration::from_secs_f64(weight as f64 / self.config.service_rate.max(1.0));
        inner.next_slot = slot + service;
        msg
    }

    /// The Sample-state path: thin bulk traffic 1-in-N, folding the
    /// rest into per-key window sketches.
    fn sample(&self, inner: &mut Inner, msg: StreamMessage, now: Epoch, out: &mut AdmitOutcome) {
        let (job, rank) = msg.origin.unwrap_or((0, 0));
        if msg.is_frame() {
            let Ok(records) = batch::decode_frame(&msg.data) else {
                // Undecodable frames pass through whole: fidelity over
                // thinning when we cannot attribute the members.
                let weight = msg.weight();
                out.forward = Some(self.pace(inner, msg, weight));
                return;
            };
            let mut kept: Vec<FrameRecord> = Vec::new();
            for r in records {
                if self.keep(job, rank, r.seq) {
                    self.kept_events.fetch_add(1, Ordering::Relaxed);
                    kept.push(r);
                } else {
                    self.fold_event(inner, &msg, r.seq, &r.payload, now, out);
                }
            }
            if !kept.is_empty() {
                let weight = kept.len() as u64;
                let mut thinned = msg;
                thinned.batch = kept.len() as u32;
                thinned.data = Arc::from(batch::encode_frame(&kept).as_str());
                out.forward = Some(self.pace(inner, thinned, weight));
            }
        } else if self.keep(job, rank, msg.seq) {
            self.kept_events.fetch_add(1, Ordering::Relaxed);
            out.forward = Some(self.pace(inner, msg, 1));
        } else {
            let payload = msg.data.clone();
            self.fold_event(inner, &msg, msg.seq, &payload, now, out);
        }
    }

    /// Folds one bulk event (`msg` itself, or the member of frame
    /// `msg` numbered `seq`) into its key's open sketch, flushing the
    /// previous window if the event advanced past it. An event whose
    /// delivery key already has its outcome is a duplicate and is
    /// dropped instead.
    fn fold_event(
        &self,
        inner: &mut Inner,
        msg: &StreamMessage,
        seq: Option<u64>,
        payload: &str,
        now: Epoch,
        out: &mut AdmitOutcome,
    ) {
        let (job, rank) = msg.origin.unwrap_or((0, 0));
        if let (Some(ledger), Some(seq)) = (&self.ledger, seq) {
            if ledger.claim_outcomes(std::iter::once((&msg.producer, job, rank, seq))) > 0 {
                return;
            }
        }
        let key = (msg.producer.clone(), job, rank);
        let window_ns = self.config.window.as_nanos().max(1);
        let window_idx = msg.publish_time.as_nanos() / window_ns;
        let bytes = payload.len() as u64;
        let dur = scan_f64(payload, "dur").unwrap_or(0.0);
        self.folded_events.fetch_add(1, Ordering::Relaxed);

        let state = inner.keys.entry(key.clone()).or_default();
        let needs_flush = state
            .sketch
            .as_ref()
            .is_some_and(|s| s.window_idx != window_idx);
        if needs_flush {
            let sketch = state.sketch.take().expect("checked above");
            state.emitted += 1;
            let counter = state.emitted;
            out.summaries
                .push(self.summary_msg(&key, sketch, counter, now));
        }
        let sketch = state
            .sketch
            .get_or_insert_with(|| Sketch::open(window_idx, msg.tag.clone(), msg.publish_time));
        sketch.fold(bytes, dur, msg.publish_time);
    }

    /// Drains every open sketch under the lock (Sample-state exit).
    fn drain_sketches(&self, inner: &mut Inner, now: Epoch) -> Vec<StreamMessage> {
        let mut out = Vec::new();
        for (key, state) in &mut inner.keys {
            if let Some(sketch) = state.sketch.take() {
                state.emitted += 1;
                out.push(self.summary_msg(key, sketch, state.emitted, now));
            }
        }
        out
    }

    /// Materializes one sketch as a first-class Summary message. The
    /// sequence number is `SUMMARY_SEQ_BIT | hop_ord<<48 | counter`:
    /// disjoint from event sequences, unique per hop and key, and
    /// stable under replay.
    fn summary_msg(
        &self,
        key: &(Arc<str>, u64, u64),
        sketch: Sketch,
        counter: u64,
        now: Epoch,
    ) -> StreamMessage {
        let (producer, job, rank) = (key.0.as_ref(), key.1, key.2);
        let payload = format!(
            concat!(
                "{{\"type\":\"summary\",\"job_id\":{},\"rank\":{},\"window\":{},",
                "\"first_ts\":{:.9},\"last_ts\":{:.9},\"count\":{},\"bytes\":{},",
                "\"dur_min\":{:.9},\"dur_max\":{:.9},\"dur_sum\":{:.9}}}"
            ),
            job,
            rank,
            sketch.window_idx,
            sketch.first_pub.as_secs_f64(),
            sketch.last_pub.as_secs_f64(),
            sketch.count,
            sketch.bytes,
            if sketch.dur_min.is_finite() {
                sketch.dur_min
            } else {
                0.0
            },
            sketch.dur_max,
            sketch.dur_sum,
        );
        self.summaries.fetch_add(1, Ordering::Relaxed);
        let seq = SUMMARY_SEQ_BIT | (self.hop_ord << 48) | (counter & 0xFFFF_FFFF_FFFF);
        let mut msg = StreamMessage::new(
            &sketch.tag,
            MsgFormat::Json,
            payload,
            producer,
            sketch.first_pub,
        )
        .with_seq(seq)
        .with_origin(job, rank)
        .with_summary_count(sketch.count.min(u64::from(u32::MAX)) as u32);
        msg.recv_time = now.max(sketch.first_pub);
        msg
    }
}

/// Pulls a numeric field out of a JSON payload without a parser: the
/// ldms crate carries no JSON dependency, and sketch folding only
/// needs two well-known scalar fields ("len", "dur"). Returns `None`
/// when the key is absent or non-numeric.
pub(crate) fn scan_f64(payload: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let i = payload.find(&pat)?;
    let value = payload[i + pat.len()..].trim_start();
    let end = value
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(value.len());
    value[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> OverloadConfig {
        // rate 10 msg/s; throttle at 5, spill at 10, sample at 20
        // backlog; instant propagation unless overridden.
        OverloadConfig::for_rate(10.0).with_propagation(SimDuration::ZERO)
    }

    fn bulk(seq: u64, at_ms: u64) -> StreamMessage {
        StreamMessage::new(
            "t",
            MsgFormat::Json,
            format!("{{\"seq\":{seq},\"len\":4096,\"dur\":0.005}}"),
            "nid0",
            Epoch::from_nanos(at_ms * 1_000_000),
        )
        .with_seq(seq)
        .with_origin(7, 3)
    }

    #[test]
    fn scan_extracts_numeric_fields() {
        let p = r#"{"op":"write","len":4096,"dur":0.005,"rank":3}"#;
        assert_eq!(scan_f64(p, "len"), Some(4096.0));
        assert_eq!(scan_f64(p, "dur"), Some(0.005));
        assert_eq!(scan_f64(p, "missing"), None);
        assert_eq!(scan_f64(r#"{"dur":"fast"}"#, "dur"), None);
        assert_eq!(scan_f64("", "dur"), None);
    }

    #[test]
    fn meter_decays_at_service_rate() {
        let ctl = OverloadController::new(cfg(), 0);
        // 4 arrivals at t=0: depth 4, still Normal (throttle at 5).
        for i in 0..4 {
            let out = ctl.admit(bulk(i, 0), Epoch::from_nanos(0));
            assert!(out.forward.is_some());
        }
        assert_eq!(ctl.state(), OverloadState::Normal);
        assert!((ctl.stats().depth - 4.0).abs() < 1e-9);
        // One second later the backlog has fully drained.
        ctl.admit(bulk(9, 1000), Epoch::from_secs(1));
        assert!((ctl.stats().depth - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ladder_escalates_through_watermarks() {
        let ctl = OverloadController::new(cfg(), 0);
        let now = Epoch::from_nanos(0);
        let mut states = Vec::new();
        for i in 0..25 {
            ctl.admit(bulk(i, 0), now);
            states.push(ctl.state());
        }
        assert_eq!(states[3], OverloadState::Normal);
        assert!(states.contains(&OverloadState::Throttle));
        assert!(states.contains(&OverloadState::Spill));
        assert_eq!(*states.last().unwrap(), OverloadState::Sample);
        assert!(ctl.stats().transitions >= 3);
    }

    #[test]
    fn propagation_delays_the_transition() {
        let ctl = OverloadController::new(cfg().with_propagation(SimDuration::from_millis(500)), 0);
        for i in 0..8 {
            ctl.admit(bulk(i, 0), Epoch::from_nanos(0));
        }
        // Depth 8 >= throttle watermark 5, but the signal is in flight.
        assert_eq!(ctl.state(), OverloadState::Normal);
        ctl.admit(bulk(98, 100), Epoch::from_nanos(100 * 1_000_000));
        assert_eq!(ctl.state(), OverloadState::Normal, "still in flight");
        // At t=0.5 s the backlog (8 − 0.5·10 + 2 arrivals = 5) still
        // clears the watermark and the signal has landed.
        ctl.admit(bulk(99, 500), Epoch::from_nanos(500 * 1_000_000));
        assert_eq!(ctl.state(), OverloadState::Throttle);
    }

    #[test]
    fn throttle_paces_in_virtual_time() {
        let ctl = OverloadController::new(cfg(), 0);
        let now = Epoch::from_nanos(0);
        for i in 0..6 {
            ctl.admit(bulk(i, 0), now);
        }
        assert_eq!(ctl.state(), OverloadState::Throttle);
        let a = ctl.admit(bulk(100, 0), now).forward.unwrap();
        let b = ctl.admit(bulk(101, 0), now).forward.unwrap();
        assert!(b.recv_time > a.recv_time, "slots advance monotonically");
        let gap = b.recv_time.since(a.recv_time).as_secs_f64();
        assert!((gap - 0.1).abs() < 1e-9, "one service slot at 10 msg/s");
        assert!(ctl.stats().throttled > 0);
    }

    #[test]
    fn spill_parks_with_paced_release() {
        let ctl = OverloadController::new(cfg(), 0);
        let now = Epoch::from_nanos(0);
        for i in 0..12 {
            ctl.admit(bulk(i, 0), now);
        }
        assert_eq!(ctl.state(), OverloadState::Spill);
        let out = ctl.admit(bulk(100, 0), now);
        assert!(out.forward.is_none());
        let (msg, release) = out.spill.unwrap();
        assert_eq!(msg.seq, Some(100));
        assert!(release > now);
        assert!(ctl.stats().spilled >= 1);
    }

    #[test]
    fn meta_is_paced_but_never_spilled_or_folded() {
        let ctl = OverloadController::new(cfg(), 0);
        let now = Epoch::from_nanos(0);
        for i in 0..30 {
            ctl.admit(bulk(i, 0), now);
        }
        assert_eq!(ctl.state(), OverloadState::Sample);
        let folded_before = ctl.stats().folded_events;
        let meta = bulk(500, 0).with_class(MsgClass::Meta);
        let out = ctl.admit(meta, now);
        let fwd = out.forward.expect("meta always forwards");
        assert_eq!(fwd.class, MsgClass::Meta);
        assert!(out.spill.is_none());
        assert_eq!(ctl.stats().folded_events, folded_before);
    }

    #[test]
    fn sampling_conserves_mass_between_kept_and_folded() {
        let ctl = OverloadController::new(cfg().with_keep_every(4), 0);
        let now = Epoch::from_nanos(0);
        for i in 0..30 {
            ctl.admit(bulk(i, 0), now);
        }
        assert_eq!(ctl.state(), OverloadState::Sample);
        // Measured events use a distinct origin so ramp-up folds (same
        // producer, origin (7, 3)) do not pollute the balance.
        let mut kept = 0u64;
        let mut summary_mass = 0u64;
        const N: u64 = 200;
        let measured = |s: &StreamMessage| s.origin == Some((8, 4));
        for i in 0..N {
            let out = ctl.admit(bulk(1000 + i, 0).with_origin(8, 4), now);
            if let Some(f) = out.forward {
                kept += f.weight();
            }
            for s in out.summaries.iter().filter(|s| measured(s)) {
                summary_mass += s.weight();
            }
        }
        for s in ctl.flush_all(now) {
            assert!(s.is_summary());
            assert!(s.seq.unwrap() & SUMMARY_SEQ_BIT != 0);
            if measured(&s) {
                summary_mass += s.weight();
            }
        }
        assert_eq!(kept + summary_mass, N, "every event kept or folded once");
        let st = ctl.stats();
        assert!(st.kept_events + st.folded_events >= N);
        assert!(st.kept_events > 0 && st.folded_events > 0);
    }

    #[test]
    fn keep_decision_is_seeded_and_order_independent() {
        let a = OverloadController::new(cfg().with_seed(1).with_keep_every(4), 0);
        let b = OverloadController::new(cfg().with_seed(1).with_keep_every(4), 0);
        let c = OverloadController::new(cfg().with_seed(2).with_keep_every(4), 0);
        let da: Vec<bool> = (0..64).map(|s| a.keep(7, 3, Some(s))).collect();
        let db: Vec<bool> = (0..64).rev().map(|s| b.keep(7, 3, Some(s))).collect();
        let dc: Vec<bool> = (0..64).map(|s| c.keep(7, 3, Some(s))).collect();
        let db_fwd: Vec<bool> = db.into_iter().rev().collect();
        assert_eq!(da, db_fwd, "same seed, same decisions, any order");
        assert_ne!(da, dc, "different seed, different pattern");
        assert!(a.keep(7, 3, None), "seq-less events always kept");
    }

    #[test]
    fn window_advance_flushes_the_previous_sketch() {
        let ctl = OverloadController::new(
            cfg()
                .with_keep_every(u64::MAX) // fold everything
                .with_window(SimDuration::from_secs(1)),
            0,
        );
        let now = Epoch::from_nanos(0);
        for i in 0..30 {
            ctl.admit(bulk(i, 0), now);
        }
        assert_eq!(ctl.state(), OverloadState::Sample);
        // Publish times in window 0 — hold the sketch open. Arrivals
        // stay at `now` so the meter cannot drain below the watermark.
        let folded_before = ctl.stats().folded_events;
        let out = ctl.admit(bulk(2000, 10), now);
        assert!(out.forward.is_none() && out.summaries.is_empty());
        assert_eq!(ctl.stats().folded_events, folded_before + 1);
        // An event published in window 2 flushes window 0's sketch.
        let out = ctl.admit(bulk(2001, 2500), now);
        assert_eq!(out.summaries.len(), 1);
        let s = &out.summaries[0];
        assert!(s.is_summary());
        assert!(scan_f64(&s.data, "count").is_some());
        assert_eq!(scan_f64(&s.data, "job_id"), Some(7.0));
    }

    #[test]
    fn leaving_sample_state_flushes_open_sketches() {
        let ctl = OverloadController::new(cfg().with_keep_every(u64::MAX), 0);
        let now = Epoch::from_nanos(0);
        for i in 0..30 {
            ctl.admit(bulk(i, 0), now);
        }
        let out = ctl.admit(bulk(999, 10), now);
        assert!(out.summaries.is_empty(), "sketch still open");
        // Long quiet period: the meter drains, the ladder steps down,
        // and the open sketch flushes on the next admission.
        let later = Epoch::from_secs(100);
        let out = ctl.admit(bulk(1000, 100_000), later);
        assert_eq!(ctl.state(), OverloadState::Normal);
        assert_eq!(out.summaries.len(), 1);
        assert!(out.forward.is_some(), "normal state forwards");
    }

    #[test]
    fn frames_are_thinned_member_by_member() {
        let ctl = OverloadController::new(cfg().with_keep_every(2), 0);
        let now = Epoch::from_nanos(0);
        for i in 0..30 {
            ctl.admit(bulk(i, 0), now);
        }
        let records: Vec<FrameRecord> = (0..64)
            .map(|s| FrameRecord {
                seq: Some(3000 + s),
                payload: format!("{{\"len\":100,\"dur\":0.001,\"s\":{s}}}"),
            })
            .collect();
        let frame = StreamMessage::new(
            "t",
            MsgFormat::Json,
            batch::encode_frame(&records),
            "nid0",
            Epoch::from_nanos(0),
        )
        .with_origin(9, 1) // distinct key: isolate from ramp-up folds
        .with_batch(64);
        let out = ctl.admit(frame, now);
        let thinned = out.forward.expect("some members kept at 1-in-2");
        assert!(thinned.is_frame());
        assert!(thinned.batch < 64 && thinned.batch > 0);
        let members = batch::decode_frame(&thinned.data).unwrap();
        assert_eq!(members.len() as u32, thinned.batch);
        let folded: u64 = ctl
            .flush_all(now)
            .iter()
            .filter(|s| s.origin == Some((9, 1)))
            .map(StreamMessage::weight)
            .sum();
        assert_eq!(u64::from(thinned.batch) + folded, 64);
    }

    #[test]
    fn sketch_seq_numbers_never_collide_across_hops_or_flushes() {
        let mk = |ord| OverloadController::new(cfg().with_keep_every(u64::MAX), ord);
        let (a, b) = (mk(1), mk(2));
        let now = Epoch::from_nanos(0);
        for ctl in [&a, &b] {
            for i in 0..30 {
                ctl.admit(bulk(i, 0), now);
            }
            ctl.admit(bulk(100, 10), now);
        }
        let sa = a.flush_all(now).pop().unwrap().seq.unwrap();
        let sb = b.flush_all(now).pop().unwrap().seq.unwrap();
        assert_ne!(sa, sb, "hop ordinal disambiguates");
        // Re-entering Sample and flushing again bumps the counter.
        for i in 0..30 {
            a.admit(bulk(200 + i, 0), now);
        }
        a.admit(bulk(300, 10), now);
        let sa2 = a.flush_all(now).pop().unwrap().seq.unwrap();
        assert_ne!(sa, sa2, "per-key counter never reuses a key");
    }
}
