//! Hop-level message tracing.
//!
//! A *trace context* is one `u64` id carried inline on a sampled
//! subset of stream messages (an `Option<u64>` field — `None` on the
//! untraced default path, so the wire format and equality semantics of
//! untraced messages are byte-identical to a build without telemetry).
//! Every instrumented hop a traced message passes — publish, forward,
//! park, retry, WAL replay, terminal ingest — appends a [`SpanRecord`]
//! stamped with the daemon it happened at, the virtual instant, and
//! the virtual latency attributable to that hop.
//!
//! Trace ids are derived deterministically from `(job, rank, seq)`
//! with a splitmix-style bijection, so two runs of the same workload
//! sample and label the same messages — no global counter, no
//! coordination between rank threads, no wall clock.

use iosim_time::{Epoch, SimDuration};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The pipeline hops a traced message can record a span at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HopKind {
    /// Connector handed the message (or its frame) to the network.
    Publish,
    /// A daemon forwarded the message one hop upstream.
    Forward,
    /// A daemon parked the message in its retry queue.
    Park,
    /// A parked message came due and was re-attempted.
    Retry,
    /// A crashed daemon replayed the message from its WAL on restart.
    Replay,
    /// The terminal daemon ingested the message (end of the trace).
    Ingest,
}

impl HopKind {
    /// Every hop kind, in pipeline order.
    pub const ALL: [HopKind; 6] = [
        HopKind::Publish,
        HopKind::Forward,
        HopKind::Park,
        HopKind::Retry,
        HopKind::Replay,
        HopKind::Ingest,
    ];

    /// Stable label used in metric families and rendered tables.
    pub fn as_str(self) -> &'static str {
        match self {
            HopKind::Publish => "publish",
            HopKind::Forward => "forward",
            HopKind::Park => "park",
            HopKind::Retry => "retry",
            HopKind::Replay => "replay",
            HopKind::Ingest => "ingest",
        }
    }

    /// Dense index into per-hop arrays.
    pub(crate) fn index(self) -> usize {
        match self {
            HopKind::Publish => 0,
            HopKind::Forward => 1,
            HopKind::Park => 2,
            HopKind::Retry => 3,
            HopKind::Replay => 4,
            HopKind::Ingest => 5,
        }
    }
}

impl std::fmt::Display for HopKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One hop of one traced message's journey.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Trace id the span belongs to.
    pub trace: u64,
    /// What happened.
    pub kind: HopKind,
    /// Daemon (or producer) the hop happened at.
    pub site: Arc<str>,
    /// Virtual instant of the hop.
    pub at: Epoch,
    /// Virtual latency attributable to this hop (link delay for a
    /// forward, planned backoff for a park, time-in-limbo for a
    /// replay, end-to-end for an ingest).
    pub latency: SimDuration,
}

/// Maximum spans retained per run.
const SPAN_CAP: usize = 65_536;

/// Bounded, append-only store of span records. Once [`SPAN_CAP`] is
/// hit, further spans are counted as dropped rather than grown —
/// tracing must never turn into an unbounded allocation in a long run.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Mutex<Vec<SpanRecord>>,
    dropped: AtomicU64,
    /// Set once the log holds [`SPAN_CAP`] spans; it never shrinks.
    /// Relaxed: the flag publishes no data (spans are read under the
    /// lock), and a reader that sees it late takes the locked path.
    full: AtomicBool,
}

impl SpanLog {
    /// Appends a span, or counts it as dropped if the log is full.
    pub(crate) fn record(&self, span: SpanRecord) {
        let mut spans = self.spans.lock();
        if spans.len() < SPAN_CAP {
            spans.push(span);
            if spans.len() == SPAN_CAP {
                self.full.store(true, Ordering::Relaxed);
            }
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts a span as dropped without building or locking anything,
    /// if the log is already full; `false` when there is still room.
    pub(crate) fn dropped_at_cap(&self) -> bool {
        let full = self.full.load(Ordering::Relaxed);
        if full {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        full
    }

    /// Spans dropped after the cap was reached.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Runs `f` over the stored spans, in record order, under one lock.
    pub(crate) fn read<R>(&self, f: impl FnOnce(&[SpanRecord]) -> R) -> R {
        f(&self.spans.lock())
    }

    /// The spans of one trace, in record order.
    pub fn spans_of(&self, trace: u64) -> Vec<SpanRecord> {
        self.spans
            .lock()
            .iter()
            .filter(|s| s.trace == trace)
            .cloned()
            .collect()
    }
}

/// Number of distinct trace ids among `spans`.
pub(crate) fn trace_count(spans: &[SpanRecord]) -> usize {
    let mut ids: Vec<u64> = spans.iter().map(|s| s.trace).collect();
    ids.sort_unstable();
    ids.dedup();
    ids.len()
}

/// Deterministic trace id for a `(job, rank, seq)` message identity —
/// a splitmix64 finalizer over the packed key, so ids are well
/// distributed but reproducible run to run.
pub fn trace_id(job: u64, rank: u64, seq: u64) -> u64 {
    let mut z = job
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(rank.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(seq)
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, kind: HopKind) -> SpanRecord {
        SpanRecord {
            trace,
            kind,
            site: Arc::from("l1"),
            at: Epoch::from_secs(100),
            latency: SimDuration::from_millis(1),
        }
    }

    #[test]
    fn log_caps_and_counts_drops() {
        let log = SpanLog::default();
        log.record(span(1, HopKind::Publish));
        for _ in 1..SPAN_CAP {
            log.record(span(1, HopKind::Forward));
        }
        log.record(span(2, HopKind::Publish));
        assert_eq!(log.read(<[SpanRecord]>::len), SPAN_CAP);
        assert_eq!(log.dropped(), 1);
        assert!(log.dropped_at_cap(), "the full flag is set at the cap");
        assert_eq!(log.dropped(), 2);
        assert_eq!(log.spans_of(1).len(), SPAN_CAP);
        assert_eq!(log.read(trace_count), 1);
    }

    #[test]
    fn trace_ids_are_deterministic_and_distinct() {
        assert_eq!(trace_id(7, 3, 11), trace_id(7, 3, 11));
        assert_ne!(trace_id(7, 3, 11), trace_id(7, 3, 12));
        assert_ne!(trace_id(7, 3, 11), trace_id(7, 4, 11));
        assert_ne!(trace_id(8, 3, 11), trace_id(7, 3, 11));
    }

    #[test]
    fn hop_kind_indices_are_dense() {
        for (i, k) in HopKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        assert_eq!(HopKind::Replay.to_string(), "replay");
    }
}
