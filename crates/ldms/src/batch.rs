//! Frame-level message batching for LDMS streams.
//!
//! The hot path of the paper's pipeline pays a fixed cost per
//! published message: a ledger update, a pump over every daemon's
//! retry queue, and two aggregation hops of lock traffic. Batching
//! divides that cost by the frame size: samplers coalesce consecutive
//! per-rank events into one *frame* — a single [`crate::StreamMessage`]
//! whose payload is a length-prefixed concatenation of the member
//! payloads — and the pipeline forwards, parks, WAL-logs and retries
//! whole frames. Only the terminal daemon unbatches, claiming each
//! member's `(producer, job, rank, seq)` idempotency key individually
//! before dispatching it to the store, so gap detection, dedup, and
//! ingest see exactly the same logical messages as the unbatched path.
//!
//! The frame encoding is text-safe for arbitrary payloads (member
//! payloads may contain newlines or even the frame header itself —
//! every payload is length-prefixed, never scanned):
//!
//! ```text
//! %LDMSFRAME1%<count>\n
//! <seq|-> <payload-bytes>\n
//! <payload>\n
//! ...  (count times)
//! ```

use crate::stream::StreamMessage;
use iosim_time::SimDuration;

/// Magic prefix identifying a frame payload.
pub(crate) const FRAME_HEADER: &str = "%LDMSFRAME1%";

/// Sampler-side batching policy: a frame is flushed when it holds
/// `max_messages` records, when its encoded payload would exceed
/// `max_bytes`, or when virtual time has advanced `max_delay` past the
/// frame's first record (checked at the next event and at rank end, so
/// a frame never outlives its publisher).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchConfig {
    /// Flush after this many records (`<= 1` disables batching).
    pub max_messages: usize,
    /// Flush before the summed member payloads exceed this.
    pub max_bytes: usize,
    /// Flush when the oldest buffered record is this old.
    pub max_delay: SimDuration,
}

impl BatchConfig {
    /// Batching disabled: every event publishes immediately as a plain
    /// message — the seed path, byte-for-byte.
    pub fn disabled() -> Self {
        Self {
            max_messages: 1,
            max_bytes: usize::MAX,
            max_delay: SimDuration::from_secs(0),
        }
    }

    /// Count-bound batching with a generous byte cap and a 1 s
    /// time bound.
    pub fn frames_of(max_messages: usize) -> Self {
        Self {
            max_messages,
            max_bytes: 1 << 20,
            max_delay: SimDuration::from_secs(1),
        }
    }

    /// True when this configuration actually batches.
    pub fn enabled(&self) -> bool {
        self.max_messages > 1
    }
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// One member of a frame: the original message's sequence number (if
/// any) and its payload, verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameRecord {
    /// Per-publisher sequence number of the member message.
    pub seq: Option<u64>,
    /// Member payload bytes, exactly as the unbatched message would
    /// have carried them.
    pub payload: String,
}

/// Why a frame payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The payload does not start with [`FRAME_HEADER`].
    NotAFrame,
    /// A structural element (count, record header, terminator) was
    /// missing or malformed.
    Malformed(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::NotAFrame => f.write_str("payload is not an LDMS batch frame"),
            FrameError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

/// True when `data` looks like a frame payload.
pub fn is_frame_payload(data: &str) -> bool {
    data.starts_with(FRAME_HEADER)
}

/// Encodes records into one frame payload. Round-trips any member
/// payloads, including empty strings and strings containing the frame
/// header or record separators.
pub fn encode_frame(records: &[FrameRecord]) -> String {
    let body_len: usize = records.iter().map(|r| r.payload.len() + 32).sum();
    let mut out = String::with_capacity(FRAME_HEADER.len() + 16 + body_len);
    out.push_str(FRAME_HEADER);
    out.push_str(&records.len().to_string());
    out.push('\n');
    for r in records {
        match r.seq {
            Some(seq) => out.push_str(&seq.to_string()),
            None => out.push('-'),
        }
        out.push(' ');
        out.push_str(&r.payload.len().to_string());
        out.push('\n');
        out.push_str(&r.payload);
        out.push('\n');
    }
    out
}

/// Decodes a frame payload back into its member records.
pub fn decode_frame(data: &str) -> Result<Vec<FrameRecord>, FrameError> {
    let rest = data
        .strip_prefix(FRAME_HEADER)
        .ok_or(FrameError::NotAFrame)?;
    let nl = rest
        .find('\n')
        .ok_or(FrameError::Malformed("missing count line"))?;
    let count: usize = rest[..nl]
        .parse()
        .map_err(|_| FrameError::Malformed("bad record count"))?;
    let mut pos = nl + 1;
    let mut records = Vec::with_capacity(count);
    for _ in 0..count {
        let head_end = rest[pos..]
            .find('\n')
            .map(|i| pos + i)
            .ok_or(FrameError::Malformed("missing record header"))?;
        let header = &rest[pos..head_end];
        let (seq_s, len_s) = header
            .split_once(' ')
            .ok_or(FrameError::Malformed("bad record header"))?;
        let seq = if seq_s == "-" {
            None
        } else {
            Some(
                seq_s
                    .parse()
                    .map_err(|_| FrameError::Malformed("bad record seq"))?,
            )
        };
        let len: usize = len_s
            .parse()
            .map_err(|_| FrameError::Malformed("bad record length"))?;
        let start = head_end + 1;
        let payload = rest
            .get(start..start + len)
            .ok_or(FrameError::Malformed("record payload truncated"))?;
        if rest.as_bytes().get(start + len) != Some(&b'\n') {
            return Err(FrameError::Malformed("missing record terminator"));
        }
        records.push(FrameRecord {
            seq,
            payload: payload.to_string(),
        });
        pos = start + len + 1;
    }
    if pos != rest.len() {
        return Err(FrameError::Malformed("trailing bytes after last record"));
    }
    Ok(records)
}

/// Reconstructs the member messages of a frame, carrying over the
/// frame's transport context (tag, format, producer, timing, hops,
/// origin, replay flag) and restoring each member's own sequence
/// number. Inverse of framing up to the fields batching deliberately
/// coarsens: members share the frame's publish/recv times.
pub(crate) fn unbatch(frame: &StreamMessage, records: Vec<FrameRecord>) -> Vec<StreamMessage> {
    records
        .into_iter()
        .map(|r| StreamMessage {
            tag: frame.tag.clone(),
            format: frame.format,
            data: std::sync::Arc::from(r.payload.as_str()),
            producer: frame.producer.clone(),
            publish_time: frame.publish_time,
            recv_time: frame.recv_time,
            hops: frame.hops,
            seq: r.seq,
            origin: frame.origin,
            replayed: frame.replayed,
            batch: 0,
            trace: frame.trace,
            class: frame.class,
            summary_count: 0,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::MsgFormat;
    use iosim_time::Epoch;

    fn rec(seq: Option<u64>, payload: &str) -> FrameRecord {
        FrameRecord {
            seq,
            payload: payload.to_string(),
        }
    }

    #[test]
    fn frame_round_trips_plain_records() {
        let records = vec![rec(Some(1), r#"{"op":"open"}"#), rec(Some(2), "")];
        let encoded = encode_frame(&records);
        assert!(is_frame_payload(&encoded));
        assert_eq!(decode_frame(&encoded).unwrap(), records);
    }

    #[test]
    fn frame_round_trips_adversarial_payloads() {
        let records = vec![
            rec(None, FRAME_HEADER),
            rec(Some(u64::MAX), "a\nb\nc - 17\n"),
            rec(Some(0), &encode_frame(&[rec(Some(9), "nested")])),
            rec(None, "héllo 世界 🦀"),
        ];
        assert_eq!(decode_frame(&encode_frame(&records)).unwrap(), records);
    }

    #[test]
    fn empty_frame_round_trips() {
        let encoded = encode_frame(&[]);
        assert_eq!(decode_frame(&encoded).unwrap(), vec![]);
    }

    #[test]
    fn truncated_and_corrupt_frames_are_rejected() {
        let good = encode_frame(&[rec(Some(5), "payload")]);
        assert_eq!(decode_frame("{}"), Err(FrameError::NotAFrame));
        assert!(decode_frame(&good[..good.len() - 3]).is_err());
        assert!(decode_frame(&format!("{good}extra")).is_err());
        assert!(decode_frame(&format!("{FRAME_HEADER}xyz\n")).is_err());
    }

    #[test]
    fn unbatch_restores_member_identity() {
        let records = vec![rec(Some(4), "a"), rec(Some(5), "b")];
        let frame = StreamMessage::new(
            "t",
            MsgFormat::Json,
            encode_frame(&records),
            "nid00001",
            Epoch::from_secs(10),
        )
        .with_origin(7, 3)
        .with_batch(2);
        assert_eq!(frame.weight(), 2);
        let members = unbatch(&frame, records);
        assert_eq!(members.len(), 2);
        assert_eq!(members[0].seq, Some(4));
        assert_eq!(members[0].data.as_ref(), "a");
        assert_eq!(members[1].delivery_key().unwrap().3, 5);
        assert!(members.iter().all(|m| !m.is_frame() && m.weight() == 1));
        assert_eq!(members[0].origin, Some((7, 3)));
    }

    /// A frame carrying a trace context hands it to every unbatched
    /// member, so a sampled message stays traceable across the
    /// batch/unbatch boundary; an untraced frame yields untraced
    /// members.
    #[test]
    fn unbatch_propagates_trace_context() {
        let records = vec![rec(Some(1), "a"), rec(Some(2), "b")];
        let mk = |trace| {
            StreamMessage::new(
                "t",
                MsgFormat::Json,
                encode_frame(&records),
                "nid00001",
                Epoch::from_secs(10),
            )
            .with_batch(2)
            .with_trace(trace)
        };
        let traced = unbatch(&mk(Some(0xBEEF)), records.clone());
        assert!(traced.iter().all(|m| m.trace == Some(0xBEEF)));
        let untraced = unbatch(&mk(None), records);
        assert!(untraced.iter().all(|m| m.trace.is_none()));
    }

    #[test]
    fn batch_config_thresholds() {
        assert!(!BatchConfig::disabled().enabled());
        assert!(!BatchConfig::default().enabled());
        let b = BatchConfig::frames_of(16);
        assert!(b.enabled());
        assert_eq!(b.max_messages, 16);
    }
}
