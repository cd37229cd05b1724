//! DXT (Darshan eXtended Tracing).
//!
//! DXT records every individual I/O operation — offset, length, start
//! and end time — per (module, file, rank), as opposed to Darshan's
//! aggregate counters. The connector leverages DXT's per-operation
//! granularity for its stream messages (Section IV.C), and the log
//! writer serializes these segments for post-run analysis.

use crate::types::{ModuleId, OpKind};
use iosim_time::TimePair;
use std::collections::HashMap;

/// One traced operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DxtSegment {
    /// Operation class.
    pub op: OpKind,
    /// File offset (`u64::MAX` for metadata ops).
    pub offset: u64,
    /// Length in bytes (0 for metadata ops).
    pub length: u64,
    /// Start time, relative seconds.
    pub start_rel: f64,
    /// End time, relative seconds.
    pub end_rel: f64,
    /// End time, absolute epoch seconds — the integration's addition.
    pub end_abs: f64,
}

impl DxtSegment {
    /// Builds a segment from module-wrapper timing.
    pub(crate) fn new(
        op: OpKind,
        offset: u64,
        length: u64,
        start: TimePair,
        end: TimePair,
    ) -> Self {
        Self {
            op,
            offset,
            length,
            start_rel: start.rel,
            end_rel: end.rel,
            end_abs: end.abs.as_secs_f64(),
        }
    }
}

/// Per-rank DXT trace store with a configurable per-record segment cap
/// (real DXT bounds its memory; default 16 Ki segments per record, ours
/// mirrors that).
#[derive(Debug)]
pub(crate) struct DxtTracer {
    segments: HashMap<(ModuleId, u64), Vec<DxtSegment>>,
    cap_per_record: usize,
    /// Segments dropped because a record hit its cap.
    dropped: u64,
}

impl Default for DxtTracer {
    fn default() -> Self {
        Self::new(16 * 1024)
    }
}

impl DxtTracer {
    /// Creates a tracer with the given per-record segment cap.
    pub(crate) fn new(cap_per_record: usize) -> Self {
        Self {
            segments: HashMap::new(),
            cap_per_record,
            dropped: 0,
        }
    }

    /// Records a segment for `(module, record_id)`.
    pub(crate) fn trace(&mut self, module: ModuleId, record_id: u64, seg: DxtSegment) {
        let v = self.segments.entry((module, record_id)).or_default();
        if v.len() >= self.cap_per_record {
            self.dropped += 1;
            return;
        }
        v.push(seg);
    }

    /// Iterates all `(module, record_id, segments)` triples.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ModuleId, u64, &[DxtSegment])> {
        self.segments
            .iter()
            .map(|(&(m, r), v)| (m, r, v.as_slice()))
    }
}

/// Reads only the unit tests use.
#[cfg(test)]
impl DxtTracer {
    /// Segments recorded for a record, if any.
    pub(crate) fn segments(&self, module: ModuleId, record_id: u64) -> Option<&[DxtSegment]> {
        self.segments.get(&(module, record_id)).map(Vec::as_slice)
    }

    /// Total segments currently stored.
    pub(crate) fn total_segments(&self) -> usize {
        self.segments.values().map(Vec::len).sum()
    }

    /// Segments dropped due to the cap.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosim_time::{Clock, Epoch, SimDuration};

    fn seg(op: OpKind, len: u64) -> DxtSegment {
        let mut c = Clock::new(Epoch::from_secs(100));
        let start = c.time_pair();
        c.advance(SimDuration::from_millis(5));
        DxtSegment::new(op, 0, len, start, c.time_pair())
    }

    #[test]
    fn traces_accumulate_per_record() {
        let mut t = DxtTracer::default();
        t.trace(ModuleId::Posix, 1, seg(OpKind::Write, 10));
        t.trace(ModuleId::Posix, 1, seg(OpKind::Read, 20));
        t.trace(ModuleId::Mpiio, 1, seg(OpKind::Write, 30));
        assert_eq!(t.segments(ModuleId::Posix, 1).unwrap().len(), 2);
        assert_eq!(t.segments(ModuleId::Mpiio, 1).unwrap().len(), 1);
        assert_eq!(t.total_segments(), 3);
    }

    #[test]
    fn segment_times_are_consistent() {
        let s = seg(OpKind::Write, 10);
        assert!((s.end_rel - s.start_rel - 0.005).abs() < 1e-9);
        assert!(s.end_abs > 100.0);
    }

    #[test]
    fn cap_drops_excess_segments() {
        let mut t = DxtTracer::new(2);
        for _ in 0..5 {
            t.trace(ModuleId::Posix, 7, seg(OpKind::Write, 1));
        }
        assert_eq!(t.segments(ModuleId::Posix, 7).unwrap().len(), 2);
        assert_eq!(t.dropped(), 3);
    }
}
