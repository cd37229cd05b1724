//! LDMS Streams: the tag-matched publish/subscribe bus.

use iosim_time::Epoch;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Payload encoding (Section IV.B: "Event data can be specified as
/// either string or JSON format").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgFormat {
    /// JSON-formatted payload.
    Json,
    /// Raw string payload.
    Str,
}

/// Priority class of a stream message, driving shed order under
/// overload: bulk read/write records degrade first, summary sketches
/// next, and metadata (open/close) events are always delivered
/// individually.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MsgClass {
    /// Bulk I/O records (read/write segments) — lowest priority, the
    /// first traffic the overload controller sheds into summaries.
    #[default]
    Bulk,
    /// Metadata events (open/close) — never summarized, shed last.
    Meta,
    /// A per-(job, rank, window) summary sketch standing in for
    /// `summary_count` folded bulk events.
    Summary,
}

/// One stream message in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamMessage {
    /// Stream tag the message was published under.
    pub tag: Arc<str>,
    /// Payload encoding.
    pub format: MsgFormat,
    /// The payload itself.
    pub data: Arc<str>,
    /// Producer (node) name of the publisher.
    pub producer: Arc<str>,
    /// Virtual time at publish.
    pub publish_time: Epoch,
    /// Virtual time at delivery to the subscriber (publish time plus
    /// accumulated transport delay).
    pub recv_time: Epoch,
    /// Aggregation hops traversed.
    pub hops: u32,
    /// Per-publisher sequence number, stamped by the connector so the
    /// store can detect gaps (`None` for unsequenced sources).
    pub seq: Option<u64>,
    /// Idempotency-key context `(job_id, rank)`, stamped by the
    /// connector alongside `seq` so replayed deliveries can be
    /// deduplicated on `(producer, job, rank, seq)`.
    pub origin: Option<(u64, u64)>,
    /// True when the message was re-sent from a write-ahead-log replay
    /// after a crash restart.
    pub replayed: bool,
    /// Number of logical messages coalesced into this one (`0` for a
    /// plain message, `n >= 1` for a batch frame carrying `n`
    /// [`crate::batch`]-encoded records). Everything that counts
    /// messages — ledger, hub stats, loss attribution — weights a
    /// frame by this.
    pub batch: u32,
    /// Trace context: the telemetry trace id this message accumulates
    /// hop spans under, stamped by the connector on a sampled subset
    /// of messages. `None` (the default) means untraced — the hot
    /// path skips all span recording.
    pub trace: Option<u64>,
    /// Priority class (shed order under overload). Defaults to
    /// [`MsgClass::Bulk`]; inert unless an overload controller is
    /// configured.
    pub class: MsgClass,
    /// For [`MsgClass::Summary`] messages: how many folded bulk events
    /// this sketch stands in for (its ledger mass). `0` otherwise.
    pub summary_count: u32,
}

impl StreamMessage {
    /// Creates a message at the publisher.
    pub fn new(
        tag: &str,
        format: MsgFormat,
        data: String,
        producer: &str,
        publish_time: Epoch,
    ) -> Self {
        Self::from_shared(
            Arc::from(tag),
            format,
            Arc::from(data),
            Arc::from(producer),
            publish_time,
        )
    }

    /// Creates a message at the publisher from text it already shares:
    /// a publisher keeps its tag and producer name and clones the
    /// handles, so a message costs its payload and nothing else.
    pub fn from_shared(
        tag: Arc<str>,
        format: MsgFormat,
        data: Arc<str>,
        producer: Arc<str>,
        publish_time: Epoch,
    ) -> Self {
        Self {
            tag,
            format,
            data,
            producer,
            publish_time,
            recv_time: publish_time,
            hops: 0,
            seq: None,
            origin: None,
            replayed: false,
            batch: 0,
            trace: None,
            class: MsgClass::Bulk,
            summary_count: 0,
        }
    }

    /// Stamps a per-publisher sequence number on the message.
    pub fn with_seq(mut self, seq: u64) -> Self {
        self.seq = Some(seq);
        self
    }

    /// Marks the message as a batch frame carrying `n` logical
    /// messages.
    pub fn with_batch(mut self, n: u32) -> Self {
        self.batch = n;
        self
    }

    /// Stamps a telemetry trace context (`None` leaves the message
    /// untraced).
    pub fn with_trace(mut self, trace: Option<u64>) -> Self {
        self.trace = trace;
        self
    }

    /// Stamps the priority class.
    pub fn with_class(mut self, class: MsgClass) -> Self {
        self.class = class;
        self
    }

    /// Marks the message as a summary sketch standing in for `n`
    /// folded bulk events (sets the class to [`MsgClass::Summary`]).
    pub fn with_summary_count(mut self, n: u32) -> Self {
        self.summary_count = n;
        self.class = MsgClass::Summary;
        self
    }

    /// True when the message is a batch frame.
    pub fn is_frame(&self) -> bool {
        self.batch > 0
    }

    /// True when the message is a summary sketch.
    pub fn is_summary(&self) -> bool {
        self.class == MsgClass::Summary
    }

    /// Logical message weight: `1` for a plain message, the record
    /// count for a batch frame (an empty frame still weighs 1 — it is
    /// one message on the wire), and the folded-event count for a
    /// summary sketch — the mass it carries through the ledger.
    pub fn weight(&self) -> u64 {
        if self.class == MsgClass::Summary {
            return u64::from(self.summary_count.max(1));
        }
        u64::from(self.batch.max(1))
    }

    /// Stamps the `(job_id, rank)` origin used in the idempotency key.
    pub fn with_origin(mut self, job_id: u64, rank: u64) -> Self {
        self.origin = Some((job_id, rank));
        self
    }

    /// The message's idempotency key `(producer, job, rank, seq)`, or
    /// `None` for unsequenced messages (which are never deduplicated).
    /// Sequenced messages without an origin key on `(producer, 0, 0,
    /// seq)` — still unique per producer.
    pub fn delivery_key(&self) -> Option<crate::ledger::DeliveryKey<'_>> {
        let seq = self.seq?;
        let (job, rank) = self.origin.unwrap_or((0, 0));
        Some((&self.producer, job, rank, seq))
    }

    /// Payload size in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// A consumer of delivered stream messages (a store plugin or an
/// analysis tap).
pub trait StreamSink: Send + Sync {
    /// Handles one delivered message.
    fn deliver(&self, msg: &StreamMessage);
}

/// Delivery counters for one stream hub.
#[derive(Debug, Default)]
pub struct StreamStats {
    /// Messages published into this hub.
    pub published: AtomicU64,
    /// Messages delivered to at least one subscriber.
    pub delivered: AtomicU64,
    /// Messages dropped because no subscriber matched the tag (LDMS
    /// Streams does not cache: "the published data can only be
    /// received after subscription").
    pub dropped_no_subscriber: AtomicU64,
    /// Total payload bytes published.
    pub bytes: AtomicU64,
}

impl StreamStats {
    /// Dropped-for-lack-of-subscriber count.
    pub fn dropped(&self) -> u64 {
        self.dropped_no_subscriber.load(Ordering::Relaxed)
    }
}

/// Counter reads for the unit tests; everything else reads the `pub`
/// atomics or [`StreamStats::dropped`].
#[cfg(test)]
impl StreamStats {
    /// Published count.
    pub(crate) fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Delivered count.
    pub(crate) fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::Relaxed)
    }

    /// Total bytes published.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// The per-daemon stream hub: subscriptions by exact tag.
#[derive(Default)]
pub(crate) struct StreamHub {
    subs: RwLock<HashMap<String, Vec<Arc<dyn StreamSink>>>>,
    stats: StreamStats,
}

impl StreamHub {
    /// Creates an empty hub.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Subscribes a sink to a tag.
    pub(crate) fn subscribe(&self, tag: &str, sink: Arc<dyn StreamSink>) {
        self.subs
            .write()
            .entry(tag.to_string())
            .or_default()
            .push(sink);
    }

    /// Delivers a message to all subscribers of its tag. Returns how
    /// many sinks received it (0 = dropped, best-effort semantics).
    /// Counters move in logical-message units: a batch frame counts
    /// for every message coalesced into it.
    pub(crate) fn dispatch(&self, msg: &StreamMessage) -> usize {
        self.dispatch_if(msg, || true)
            .expect("an unconditional dispatch is never refused")
    }

    /// [`StreamHub::dispatch`] with a say for the caller once the
    /// tag's sinks are resolved: when there is at least one, `admit`
    /// is asked, and a refusal returns `None` with nothing delivered
    /// and no counter moved. A message nobody subscribes to is dropped
    /// and counted without asking.
    pub(crate) fn dispatch_if(
        &self,
        msg: &StreamMessage,
        admit: impl FnOnce() -> bool,
    ) -> Option<usize> {
        let weight = msg.weight();
        let subs = self.subs.read();
        let sinks = subs.get(msg.tag.as_ref()).map_or(&[][..], Vec::as_slice);
        if !sinks.is_empty() && !admit() {
            return None;
        }
        self.stats.published.fetch_add(weight, Ordering::Relaxed);
        self.stats
            .bytes
            .fetch_add(msg.len() as u64, Ordering::Relaxed);
        for s in sinks {
            s.deliver(msg);
        }
        let outcome = if sinks.is_empty() {
            &self.stats.dropped_no_subscriber
        } else {
            &self.stats.delivered
        };
        outcome.fetch_add(weight, Ordering::Relaxed);
        Some(sinks.len())
    }

    /// Hub delivery counters.
    pub(crate) fn stats(&self) -> &StreamStats {
        &self.stats
    }
}

/// A sink that buffers messages for later inspection (tests, analysis
/// taps, and the simple store plugins).
#[derive(Default)]
pub struct BufferSink {
    messages: Mutex<Vec<StreamMessage>>,
}

impl BufferSink {
    /// Creates an unbounded buffer sink.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Number of buffered messages.
    pub fn len(&self) -> usize {
        self.messages.lock().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains the buffered messages.
    pub fn take(&self) -> Vec<StreamMessage> {
        std::mem::take(&mut self.messages.lock())
    }

    /// Clones the buffered messages without draining.
    pub fn snapshot(&self) -> Vec<StreamMessage> {
        self.messages.lock().clone()
    }
}

impl StreamSink for BufferSink {
    fn deliver(&self, msg: &StreamMessage) {
        self.messages.lock().push(msg.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(tag: &str, data: &str) -> StreamMessage {
        StreamMessage::new(
            tag,
            MsgFormat::Json,
            data.to_string(),
            "nid00001",
            Epoch::from_secs(1),
        )
    }

    #[test]
    fn dispatch_reaches_matching_subscribers_only() {
        let hub = StreamHub::new();
        let a = BufferSink::new();
        let b = BufferSink::new();
        hub.subscribe("darshanConnector", a.clone());
        hub.subscribe("other", b.clone());
        assert_eq!(hub.dispatch(&msg("darshanConnector", "{}")), 1);
        assert_eq!(a.len(), 1);
        assert!(b.is_empty());
    }

    #[test]
    fn unsubscribed_tag_drops_message() {
        let hub = StreamHub::new();
        assert_eq!(hub.dispatch(&msg("nobody", "{}")), 0);
        assert_eq!(hub.stats().dropped(), 1);
        assert_eq!(hub.stats().published(), 1);
        assert_eq!(hub.stats().delivered(), 0);
    }

    #[test]
    fn no_caching_late_subscriber_misses_earlier_messages() {
        let hub = StreamHub::new();
        hub.dispatch(&msg("t", "early"));
        let late = BufferSink::new();
        hub.subscribe("t", late.clone());
        hub.dispatch(&msg("t", "later"));
        let got = late.take();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].data.as_ref(), "later");
    }

    #[test]
    fn multiple_subscribers_each_get_the_message() {
        let hub = StreamHub::new();
        let a = BufferSink::new();
        let b = BufferSink::new();
        hub.subscribe("t", a.clone());
        hub.subscribe("t", b.clone());
        assert_eq!(hub.dispatch(&msg("t", "x")), 2);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn seq_stamp_round_trips() {
        let m = msg("t", "{}").with_seq(41);
        assert_eq!(m.seq, Some(41));
        assert_eq!(msg("t", "{}").seq, None);
    }

    #[test]
    fn delivery_key_requires_seq_and_defaults_origin() {
        assert_eq!(msg("t", "{}").delivery_key(), None);
        let m = msg("t", "{}").with_seq(3);
        let (_, job, rank, seq) = m.delivery_key().unwrap();
        assert_eq!((job, rank, seq), (0, 0, 3));
        let m = msg("t", "{}").with_seq(3).with_origin(99, 4);
        let (p, job, rank, seq) = m.delivery_key().unwrap();
        assert_eq!((&**p, job, rank, seq), ("nid00001", 99, 4, 3));
        assert!(!m.replayed);
    }

    #[test]
    fn summary_class_carries_folded_mass_as_weight() {
        let m = msg("t", "{}");
        assert_eq!(m.class, MsgClass::Bulk);
        assert_eq!(m.weight(), 1);
        let meta = msg("t", "{}").with_class(MsgClass::Meta);
        assert_eq!(meta.weight(), 1, "class does not change plain weight");
        let s = msg("t", "{}").with_summary_count(17);
        assert!(s.is_summary());
        assert_eq!(s.weight(), 17, "a sketch weighs its folded events");
        let empty = msg("t", "{}").with_summary_count(0);
        assert_eq!(empty.weight(), 1, "degenerate sketch still weighs 1");
    }

    #[test]
    fn stats_track_bytes() {
        let hub = StreamHub::new();
        let a = BufferSink::new();
        hub.subscribe("t", a);
        hub.dispatch(&msg("t", "12345"));
        assert_eq!(hub.stats().bytes(), 5);
    }
}
