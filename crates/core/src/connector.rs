//! The connector itself: the [`EventSink`] implementation.

use crate::cost::COST;
use crate::message::build_message;
use crate::DEFAULT_STREAM_TAG;
use darshan_sim::hooks::{EventSink, IoEvent};
use darshan_sim::runtime::JobMeta;
use iosim_telemetry::Telemetry;
use iosim_time::{Clock, Epoch};
use iosim_util::JsonWriter;
use ldms_sim::batch::{encode_frame, BatchConfig, FrameRecord};
use ldms_sim::{LdmsNetwork, MsgClass, MsgFormat, StreamMessage};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How event payloads are produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormatMode {
    /// Full Table I JSON formatting (the deployed configuration).
    Json,
    /// Skip formatting, publish a constant placeholder — the paper's
    /// ablation isolating LDMS cost ("only LDMS Streams API is enabled
    /// and the Darshan-LDMS Connector send function is called"),
    /// measured at 0.37 % overhead.
    NoFormat,
}

/// When published messages enter the transport pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeliveryMode {
    /// Publish into the shared pipeline from the publishing rank's
    /// thread, at event time — the deployed configuration. Rank
    /// threads contend on the pipeline's locks, so the hot path is
    /// effectively serialized.
    #[default]
    Immediate,
    /// Buffer into a rank-local outbox with zero shared state; the
    /// driver merges all outboxes in deterministic virtual-time order
    /// after the job and injects them sequentially. Rank fan-out runs
    /// contention-free.
    Deferred,
}

/// Connector configuration. Every connector publishes under
/// [`DEFAULT_STREAM_TAG`] and charges the calibrated [`COST`] model.
#[derive(Debug, Clone)]
pub struct ConnectorConfig {
    /// Publish every n-th event (1 = every event). The paper's
    /// future-work sampling knob: "allow users to collect every n-th
    /// I/O event detected by Darshan". Open/close events always
    /// publish, so the stored stream stays interpretable per file.
    pub sample_every: u64,
    /// Payload production mode.
    pub format_mode: FormatMode,
    /// Frame-level batching policy (disabled by default — every event
    /// publishes its own message, byte-for-byte the seed path).
    pub batch: BatchConfig,
    /// When published messages enter the transport pipeline.
    pub delivery: DeliveryMode,
}

impl Default for ConnectorConfig {
    fn default() -> Self {
        Self {
            sample_every: 1,
            format_mode: FormatMode::Json,
            batch: BatchConfig::disabled(),
            delivery: DeliveryMode::Immediate,
        }
    }
}

/// Counters the connector maintains (used for the "Avg. Messages" and
/// "Rate (msgs/sec)" columns of Table II).
#[derive(Debug, Default)]
pub struct ConnectorStats {
    /// Events the hook observed.
    pub events_seen: AtomicU64,
    /// Messages actually published.
    pub messages_published: AtomicU64,
    /// Events skipped by sampling.
    pub events_skipped: AtomicU64,
    /// Total payload bytes published.
    pub bytes_published: AtomicU64,
    /// Total bytes produced by numeric formatting.
    pub formatted_bytes: AtomicU64,
    /// Messages actually put on the wire (equal to
    /// `messages_published` unbatched; the frame count when batching).
    pub wire_messages: AtomicU64,
}

impl ConnectorStats {
    /// Messages published so far.
    pub fn published(&self) -> u64 {
        self.messages_published.load(Ordering::Relaxed)
    }

    /// Wire messages (frames count once however many records they
    /// carry).
    pub fn wire(&self) -> u64 {
        self.wire_messages.load(Ordering::Relaxed)
    }
}

/// Records accumulating toward the next frame of a batching connector.
#[derive(Default)]
struct PendingFrame {
    records: Vec<FrameRecord>,
    bytes: usize,
    /// `(first_record_time, last_record_time, rank)` — set when the
    /// first record lands.
    context: Option<(Epoch, Epoch, u64)>,
    /// Trace context the frame will carry: that of the first sampled
    /// member, so a frame holding any traced record is traced.
    trace: Option<u64>,
    /// Whether any buffered record is a metadata (open/close) event —
    /// the whole frame then rides the [`MsgClass::Meta`] class so the
    /// overload controller never sheds or folds it.
    has_meta: bool,
}

/// One event's formatted payload, in the form its carrier holds.
enum Payload {
    /// Bound for a batch frame, whose records own their text.
    Record(String),
    /// Bound for a message of its own, which shares it.
    Message(Arc<str>),
}

impl Payload {
    fn len(&self) -> usize {
        match self {
            Payload::Record(text) => text.len(),
            Payload::Message(text) => text.len(),
        }
    }
}

/// The Darshan-LDMS Connector for one rank.
///
/// One instance is registered per rank (matching the real connector,
/// which lives inside each MPI process's `darshan-runtime`). The
/// workhorse JSON buffer is reused across events to avoid per-event
/// allocation, as the C implementation does.
pub struct DarshanConnector {
    config: ConnectorConfig,
    /// [`DEFAULT_STREAM_TAG`], shared with every message published.
    tag: Arc<str>,
    job: Arc<JobMeta>,
    /// The rank's compute-node name, shared with every message.
    producer: Arc<str>,
    network: Arc<LdmsNetwork>,
    /// Trace-stamping hub; `None` leaves every message untraced.
    telemetry: Option<Arc<Telemetry>>,
    stats: Arc<ConnectorStats>,
    writer: Mutex<JsonWriter>,
    /// Per-connector (i.e. per job+rank) sequence counter, stamped on
    /// every published message so the store can detect gaps.
    seq: AtomicU64,
    /// Records awaiting the next frame flush (empty unless batching).
    pending: Mutex<PendingFrame>,
    /// Rank-local staging buffer for [`DeliveryMode::Deferred`].
    outbox: Mutex<Vec<StreamMessage>>,
}

impl DarshanConnector {
    /// Creates a connector for one rank; with `telemetry` it stamps a
    /// trace context onto the hub-sampled subset of its published
    /// messages.
    ///
    /// `producer` is the rank's compute-node name (`nidXXXXX`); the
    /// publish enters the LDMS pipeline at that node's daemon.
    pub(crate) fn with_telemetry(
        config: ConnectorConfig,
        job: Arc<JobMeta>,
        producer: String,
        network: Arc<LdmsNetwork>,
        telemetry: Option<Arc<Telemetry>>,
    ) -> Arc<Self> {
        Arc::new(Self {
            tag: Arc::from(DEFAULT_STREAM_TAG),
            config,
            job,
            producer: Arc::from(producer),
            network,
            telemetry,
            stats: Arc::new(ConnectorStats::default()),
            writer: Mutex::new(JsonWriter::with_capacity(1024)),
            seq: AtomicU64::new(0),
            pending: Mutex::new(PendingFrame::default()),
            outbox: Mutex::new(Vec::new()),
        })
    }

    /// Shared statistics handle.
    pub fn stats(&self) -> Arc<ConnectorStats> {
        self.stats.clone()
    }

    fn should_publish(&self, event: &IoEvent, seen: u64) -> bool {
        self.config.sample_every <= 1 || is_meta(event) || seen % self.config.sample_every == 0
    }

    /// Routes a wire message per the configured delivery mode.
    fn emit(&self, msg: StreamMessage) {
        self.stats.wire_messages.fetch_add(1, Ordering::Relaxed);
        match self.config.delivery {
            DeliveryMode::Immediate => self.network.publish(msg),
            DeliveryMode::Deferred => self.outbox.lock().push(msg),
        }
    }

    /// Encodes and emits the pending frame (no-op when empty). The
    /// frame is published at `at` — the instant of the flush trigger.
    fn flush_pending(&self, pending: &mut PendingFrame, at: Epoch) {
        let Some((_, _, rank)) = pending.context.take() else {
            return;
        };
        let records = std::mem::take(&mut pending.records);
        pending.bytes = 0;
        let count = records.len() as u32;
        let trace = pending.trace.take();
        let class = if std::mem::take(&mut pending.has_meta) {
            MsgClass::Meta
        } else {
            MsgClass::Bulk
        };
        self.emit(
            StreamMessage::from_shared(
                self.tag.clone(),
                MsgFormat::Json,
                Arc::from(encode_frame(&records)),
                self.producer.clone(),
                at,
            )
            .with_origin(self.job.job_id, rank)
            .with_batch(count)
            .with_trace(trace)
            .with_class(class),
        );
    }

    /// Flushes any buffered records immediately, stamped with the last
    /// buffered record's time. Call at rank end so no frame outlives
    /// its publisher.
    pub fn flush(&self) {
        let mut pending = self.pending.lock();
        if let Some((_, last, _)) = pending.context {
            self.flush_pending(&mut pending, last);
        }
    }

    /// Drains the deferred outbox (empty in [`DeliveryMode::Immediate`]
    /// runs). The driver merges outboxes across ranks in virtual-time
    /// order and injects them into the network.
    pub fn take_outbox(&self) -> Vec<StreamMessage> {
        std::mem::take(&mut *self.outbox.lock())
    }
}

/// Open and close events: the metadata that keeps a stored stream
/// interpretable per file.
fn is_meta(event: &IoEvent) -> bool {
    matches!(
        event.op,
        darshan_sim::OpKind::Open | darshan_sim::OpKind::Close
    )
}

impl EventSink for DarshanConnector {
    fn on_event(&self, event: &IoEvent, clock: &mut Clock) {
        let seen = self.stats.events_seen.fetch_add(1, Ordering::Relaxed) + 1;
        if !self.should_publish(event, seen) {
            self.stats.events_skipped.fetch_add(1, Ordering::Relaxed);
            clock.advance(COST.skip());
            return;
        }
        // The payload is copied out of the workhorse buffer once, into
        // the form its carrier holds.
        let own = |text: &str| {
            if self.config.batch.enabled() {
                Payload::Record(text.to_string())
            } else {
                Payload::Message(Arc::from(text))
            }
        };
        let payload = match self.config.format_mode {
            FormatMode::Json => {
                let mut w = self.writer.lock();
                build_message(&mut w, event, &self.job, &self.producer);
                let formatted = w.formatted_digits();
                self.stats
                    .formatted_bytes
                    .fetch_add(formatted as u64, Ordering::Relaxed);
                clock.advance(COST.format_and_publish(formatted));
                own(w.as_str())
            }
            FormatMode::NoFormat => {
                clock.advance(COST.publish_only());
                own("")
            }
        };
        self.stats
            .bytes_published
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        self.stats
            .messages_published
            .fetch_add(1, Ordering::Relaxed);
        // Publish happens at the current (post-formatting) instant; the
        // transport pipeline is asynchronous from here on, so the
        // application does not wait for delivery. Sequence numbers
        // start at 1 per connector, letting the store detect gaps; the
        // (job, rank) origin completes the idempotency key that lets a
        // crash-restart replay be deduplicated at the terminal.
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let now = clock.now();
        // Open/close events ride the metadata priority class: the
        // overload controller delivers them individually no matter how
        // hard it is shedding bulk traffic, keeping the stored stream
        // interpretable per file, as sampling does.
        let class = if is_meta(event) {
            MsgClass::Meta
        } else {
            MsgClass::Bulk
        };
        let trace = self
            .telemetry
            .as_ref()
            .and_then(|t| t.sample(self.job.job_id, u64::from(event.rank), seq));
        match payload {
            Payload::Record(payload) => {
                let mut pending = self.pending.lock();
                // Time bound: a frame whose oldest record has aged past
                // max_delay flushes before this record starts a new one.
                if let Some((first, _, _)) = pending.context {
                    if now.since(first) >= self.config.batch.max_delay {
                        self.flush_pending(&mut pending, now);
                    }
                }
                pending.context = match pending.context {
                    Some((first, _, rank)) => Some((first, now, rank)),
                    None => Some((now, now, u64::from(event.rank))),
                };
                pending.bytes += payload.len();
                pending.trace = pending.trace.or(trace);
                pending.has_meta |= class == MsgClass::Meta;
                pending.records.push(FrameRecord {
                    seq: Some(seq),
                    payload,
                });
                if pending.records.len() >= self.config.batch.max_messages
                    || pending.bytes >= self.config.batch.max_bytes
                {
                    self.flush_pending(&mut pending, now);
                }
            }
            Payload::Message(payload) => self.emit(
                StreamMessage::from_shared(
                    self.tag.clone(),
                    MsgFormat::Json,
                    payload,
                    self.producer.clone(),
                    now,
                )
                .with_seq(seq)
                .with_origin(self.job.job_id, u64::from(event.rank))
                .with_trace(trace)
                .with_class(class),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darshan_sim::{ModuleId, OpKind};
    use iosim_time::{Epoch, SimDuration};
    use ldms_sim::stream::BufferSink;
    use ldms_sim::NetworkOpts;

    fn event(op: OpKind, clock: &mut Clock) -> IoEvent {
        let start = clock.time_pair();
        clock.advance(SimDuration::from_micros(100));
        IoEvent {
            module: ModuleId::Posix,
            op,
            file: "/f".into(),
            record_id: 1,
            rank: 0,
            len: 64,
            offset: 0,
            start,
            end: clock.time_pair(),
            dur: 1e-4,
            cnt: 1,
            switches: 0,
            flushes: -1,
            max_byte: 63,
            hdf5: None,
        }
    }

    fn setup(config: ConnectorConfig) -> (Arc<DarshanConnector>, Arc<BufferSink>, Clock) {
        let net = Arc::new(LdmsNetwork::build(
            &["nid00040".to_string()],
            &NetworkOpts::default(),
        ));
        let sink = BufferSink::new();
        net.l2().subscribe(DEFAULT_STREAM_TAG, sink.clone());
        let job = JobMeta::new(1, 10, "/apps/x", 1);
        let conn = DarshanConnector::with_telemetry(config, job, "nid00040".to_string(), net, None);
        (conn, sink, Clock::new(Epoch::from_secs(1_650_000_000)))
    }

    #[test]
    fn events_become_stream_messages_end_to_end() {
        let (conn, sink, mut clock) = setup(ConnectorConfig::default());
        for op in [OpKind::Open, OpKind::Write, OpKind::Close] {
            let ev = event(op, &mut clock);
            conn.on_event(&ev, &mut clock);
        }
        let msgs = sink.take();
        assert_eq!(msgs.len(), 3);
        assert!(msgs[0].data.contains("\"op\":\"open\""));
        assert!(msgs[1].data.contains("\"op\":\"write\""));
        assert_eq!(conn.stats().published(), 3);
        // Messages traverse two aggregation hops.
        assert_eq!(msgs[0].hops, 2);
    }

    #[test]
    fn open_close_events_ride_the_meta_class() {
        let (conn, sink, mut clock) = setup(ConnectorConfig::default());
        for op in [OpKind::Open, OpKind::Write, OpKind::Close] {
            let ev = event(op, &mut clock);
            conn.on_event(&ev, &mut clock);
        }
        let msgs = sink.take();
        assert_eq!(msgs[0].class, MsgClass::Meta);
        assert_eq!(msgs[1].class, MsgClass::Bulk);
        assert_eq!(msgs[2].class, MsgClass::Meta);
    }

    #[test]
    fn a_frame_with_any_meta_member_is_stamped_meta() {
        let (conn, sink, mut clock) = setup(ConnectorConfig {
            batch: BatchConfig::frames_of(2),
            ..Default::default()
        });
        // Frame 1: open+write → Meta. Frame 2 (tail): write → Bulk.
        for op in [OpKind::Open, OpKind::Write, OpKind::Write] {
            let ev = event(op, &mut clock);
            conn.on_event(&ev, &mut clock);
        }
        conn.flush();
        // The terminal unbatches frames; class is checked on the wire
        // by capturing at the connector's own daemon instead.
        let msgs = sink.take();
        assert_eq!(msgs.len(), 3);
        let wire = conn.stats().wire();
        assert_eq!(wire, 2);
        // Meta members re-stamp their class on unbatch at the terminal.
        assert!(msgs.iter().any(|m| m.class == MsgClass::Meta));
    }

    #[test]
    fn formatting_cost_is_charged_to_the_clock() {
        let (conn, _sink, mut clock) = setup(ConnectorConfig::default());
        let ev = event(OpKind::Write, &mut clock);
        let before = clock.elapsed();
        conn.on_event(&ev, &mut clock);
        let charged = (clock.elapsed() - before).as_secs_f64();
        // Default model: 420µs base + ~1.5µs/byte — order 0.5 ms.
        assert!(charged > 3e-4, "formatting must cost ~0.5ms, got {charged}");
        assert!(charged < 3e-3);
    }

    #[test]
    fn noformat_mode_is_two_orders_cheaper() {
        let (json_conn, _s1, mut c1) = setup(ConnectorConfig::default());
        let (raw_conn, _s2, mut c2) = setup(ConnectorConfig {
            format_mode: FormatMode::NoFormat,
            ..Default::default()
        });
        let e1 = event(OpKind::Write, &mut c1);
        let b1 = c1.elapsed();
        json_conn.on_event(&e1, &mut c1);
        let json_cost = (c1.elapsed() - b1).as_secs_f64();
        let e2 = event(OpKind::Write, &mut c2);
        let b2 = c2.elapsed();
        raw_conn.on_event(&e2, &mut c2);
        let raw_cost = (c2.elapsed() - b2).as_secs_f64();
        assert!(json_cost / raw_cost > 100.0);
    }

    #[test]
    fn sampling_publishes_every_nth_but_keeps_meta() {
        let (conn, sink, mut clock) = setup(ConnectorConfig {
            sample_every: 10,
            ..Default::default()
        });
        let ev = event(OpKind::Open, &mut clock);
        conn.on_event(&ev, &mut clock);
        for _ in 0..100 {
            let ev = event(OpKind::Write, &mut clock);
            conn.on_event(&ev, &mut clock);
        }
        let ev = event(OpKind::Close, &mut clock);
        conn.on_event(&ev, &mut clock);
        let msgs = sink.take();
        let writes = msgs
            .iter()
            .filter(|m| m.data.contains("\"op\":\"write\""))
            .count();
        let opens = msgs
            .iter()
            .filter(|m| m.data.contains("\"op\":\"open\""))
            .count();
        let closes = msgs
            .iter()
            .filter(|m| m.data.contains("\"op\":\"close\""))
            .count();
        assert_eq!(opens, 1);
        assert_eq!(closes, 1);
        assert!(writes == 10, "expected ~1/10th of writes, got {writes}");
        assert_eq!(
            conn.stats().events_skipped.load(Ordering::Relaxed),
            102 - msgs.len() as u64
        );
    }

    #[test]
    fn batched_events_coalesce_into_frames_and_unbatch_at_terminal() {
        let (conn, sink, mut clock) = setup(ConnectorConfig {
            batch: BatchConfig::frames_of(2),
            ..Default::default()
        });
        for op in [OpKind::Open, OpKind::Write, OpKind::Close] {
            let ev = event(op, &mut clock);
            conn.on_event(&ev, &mut clock);
        }
        conn.flush();
        let msgs = sink.take();
        assert_eq!(msgs.len(), 3, "terminal must unbatch frames");
        assert!(msgs.iter().all(|m| !m.is_frame()));
        let seqs: Vec<u64> = msgs.iter().map(|m| m.seq.unwrap()).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert!(msgs[0].data.contains("\"op\":\"open\""));
        assert_eq!(conn.stats().published(), 3, "stats count logical messages");
        assert_eq!(conn.stats().wire(), 2, "one full frame + one tail frame");
    }

    #[test]
    fn flush_on_empty_pending_is_a_no_op() {
        let (conn, sink, _clock) = setup(ConnectorConfig {
            batch: BatchConfig::frames_of(8),
            ..Default::default()
        });
        conn.flush();
        conn.flush();
        assert!(sink.take().is_empty());
        assert_eq!(conn.stats().wire(), 0);
    }

    #[test]
    fn deferred_mode_stages_messages_until_injected() {
        let net = Arc::new(LdmsNetwork::build(
            &["nid00040".to_string()],
            &NetworkOpts::default(),
        ));
        let sink = BufferSink::new();
        let cfg = ConnectorConfig {
            delivery: DeliveryMode::Deferred,
            ..Default::default()
        };
        net.l2().subscribe(DEFAULT_STREAM_TAG, sink.clone());
        let job = JobMeta::new(1, 10, "/apps/x", 1);
        let conn =
            DarshanConnector::with_telemetry(cfg, job, "nid00040".to_string(), net.clone(), None);
        let mut clock = Clock::new(iosim_time::Epoch::from_secs(1_650_000_000));
        let ev = event(OpKind::Write, &mut clock);
        conn.on_event(&ev, &mut clock);
        assert!(sink.take().is_empty(), "deferred publishes stay staged");
        let staged = conn.take_outbox();
        assert_eq!(staged.len(), 1);
        for m in staged {
            net.publish(m);
        }
        let msgs = sink.take();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].seq, Some(1));
        assert!(conn.take_outbox().is_empty(), "outbox drains once");
    }

    #[test]
    fn sampling_slashes_the_charged_cost() {
        let run = |every: u64| {
            let (conn, _sink, mut clock) = setup(ConnectorConfig {
                sample_every: every,
                ..Default::default()
            });
            let before = clock.elapsed();
            for _ in 0..1000 {
                let ev = event(OpKind::Write, &mut clock);
                conn.on_event(&ev, &mut clock);
            }
            // Subtract the event-generation time (100µs each).
            (clock.elapsed() - before).as_secs_f64() - 0.1
        };
        let full = run(1);
        let tenth = run(10);
        assert!(
            full / tenth > 5.0,
            "sampling should cut cost: {full} vs {tenth}"
        );
    }
}
