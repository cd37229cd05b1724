//! Darshan log writing and parsing (the `darshan-util` analogue).
//!
//! Stock Darshan produces one log per job at finalize time; the
//! `darshan-util` tools parse it post-run. The connector does not
//! replace the log — it streams the same information at run time — so
//! the reproduction keeps the log path too: [`write_log`] serializes
//! job metadata, per-rank counter records, and DXT segments into a
//! compact binary format, and [`parse_log`] reads it back.
//! [`LogFile::summary`] renders a `darshan-parser`-style text summary.

use crate::counters::RecordCounters;
use crate::dxt::DxtSegment;
use crate::runtime::{JobMeta, RankSnapshot};
use crate::types::{ModuleId, OpKind};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::HashMap;
use std::sync::Arc;

/// Log format magic.
const MAGIC: &[u8; 4] = b"DSIM";
/// Log format version.
const VERSION: u32 = 1;

/// Errors from log parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogError {
    /// Magic or version mismatch.
    BadHeader(String),
    /// Ran out of bytes mid-structure.
    Truncated,
    /// Unknown module/op code.
    BadCode(u8),
    /// Malformed string payload.
    BadString,
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::BadHeader(m) => write!(f, "bad log header: {m}"),
            LogError::Truncated => write!(f, "truncated log"),
            LogError::BadCode(c) => write!(f, "unknown code {c}"),
            LogError::BadString => write!(f, "malformed string"),
        }
    }
}

impl std::error::Error for LogError {}

/// One (module, record, rank) counter entry in a parsed log.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord {
    /// Module the record belongs to.
    pub module: ModuleId,
    /// Darshan record id.
    pub record_id: u64,
    /// Rank the record came from.
    pub rank: u32,
    /// The counters.
    pub counters: RecordCounters,
}

/// One DXT block in a parsed log.
#[derive(Debug, Clone, PartialEq)]
pub struct LogDxt {
    /// Module the segments belong to.
    pub module: ModuleId,
    /// Darshan record id.
    pub record_id: u64,
    /// Rank the trace came from.
    pub rank: u32,
    /// Traced segments in operation order.
    pub segments: Vec<DxtSegment>,
}

/// A parsed Darshan log.
#[derive(Debug, Clone)]
pub struct LogFile {
    /// Job metadata.
    pub job: JobMeta,
    /// Job start time (epoch seconds).
    pub start_time: f64,
    /// Job end time (epoch seconds).
    pub end_time: f64,
    /// Record id → file path.
    pub names: HashMap<u64, String>,
    /// All counter records.
    pub records: Vec<LogRecord>,
    /// All DXT traces.
    pub dxt: Vec<LogDxt>,
}

fn put_counters(buf: &mut BytesMut, c: &RecordCounters) {
    buf.put_u64(c.opens);
    buf.put_u64(c.closes);
    buf.put_u64(c.reads);
    buf.put_u64(c.writes);
    buf.put_u64(c.flushes);
    buf.put_u64(c.bytes_read);
    buf.put_u64(c.bytes_written);
    buf.put_i64(c.max_byte_read);
    buf.put_i64(c.max_byte_written);
    buf.put_u64(c.rw_switches);
    buf.put_f64(c.f_read_time);
    buf.put_f64(c.f_write_time);
    buf.put_f64(c.f_meta_time);
    buf.put_f64(c.f_open_start);
    buf.put_f64(c.f_close_end);
    for b in c.size_histogram {
        buf.put_u64(b);
    }
}

fn get_counters(buf: &mut Bytes) -> Result<RecordCounters, LogError> {
    const NEED: usize = 8 * 10 + 8 * 5 + 8 * 10;
    if buf.remaining() < NEED {
        return Err(LogError::Truncated);
    }
    let mut c = RecordCounters::new();
    c.opens = buf.get_u64();
    c.closes = buf.get_u64();
    c.reads = buf.get_u64();
    c.writes = buf.get_u64();
    c.flushes = buf.get_u64();
    c.bytes_read = buf.get_u64();
    c.bytes_written = buf.get_u64();
    c.max_byte_read = buf.get_i64();
    c.max_byte_written = buf.get_i64();
    c.rw_switches = buf.get_u64();
    c.f_read_time = buf.get_f64();
    c.f_write_time = buf.get_f64();
    c.f_meta_time = buf.get_f64();
    c.f_open_start = buf.get_f64();
    c.f_close_end = buf.get_f64();
    for b in &mut c.size_histogram {
        *b = buf.get_u64();
    }
    Ok(c)
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> Result<String, LogError> {
    if buf.remaining() < 4 {
        return Err(LogError::Truncated);
    }
    let len = buf.get_u32() as usize;
    if buf.remaining() < len {
        return Err(LogError::Truncated);
    }
    let b = buf.copy_to_bytes(len);
    String::from_utf8(b.to_vec()).map_err(|_| LogError::BadString)
}

/// Serializes a job's log from the per-rank snapshots.
pub fn write_log(
    job: &JobMeta,
    start_time: f64,
    end_time: f64,
    snapshots: &[RankSnapshot],
) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(4096);
    buf.put_slice(MAGIC);
    buf.put_u32(VERSION);
    buf.put_u64(job.job_id);
    buf.put_u32(job.uid);
    buf.put_u32(job.nprocs);
    put_str(&mut buf, &job.exe);
    buf.put_f64(start_time);
    buf.put_f64(end_time);

    // Names: union across ranks.
    let mut names: HashMap<u64, &Arc<str>> = HashMap::new();
    for s in snapshots {
        for (&id, name) in &s.names {
            names.entry(id).or_insert(name);
        }
    }
    let mut sorted: Vec<_> = names.into_iter().collect();
    sorted.sort_by_key(|&(id, _)| id);
    buf.put_u32(sorted.len() as u32);
    for (id, name) in sorted {
        buf.put_u64(id);
        put_str(&mut buf, name);
    }

    // Counter records.
    let nrec: usize = snapshots.iter().map(|s| s.records.len()).sum();
    buf.put_u32(nrec as u32);
    for s in snapshots {
        for ((module, record_id), counters) in &s.records {
            buf.put_u8(module.code());
            buf.put_u64(*record_id);
            buf.put_u32(s.rank);
            put_counters(&mut buf, counters);
        }
    }

    // DXT traces.
    let ndxt: usize = snapshots.iter().map(|s| s.dxt.len()).sum();
    buf.put_u32(ndxt as u32);
    for s in snapshots {
        for (module, record_id, segs) in &s.dxt {
            buf.put_u8(module.code());
            buf.put_u64(*record_id);
            buf.put_u32(s.rank);
            buf.put_u32(segs.len() as u32);
            for seg in segs {
                buf.put_u8(seg.op.code());
                buf.put_u64(seg.offset);
                buf.put_u64(seg.length);
                buf.put_f64(seg.start_rel);
                buf.put_f64(seg.end_rel);
                buf.put_f64(seg.end_abs);
            }
        }
    }
    buf.to_vec()
}

/// Parses a log produced by [`write_log`].
pub fn parse_log(data: &[u8]) -> Result<LogFile, LogError> {
    let mut buf = Bytes::copy_from_slice(data);
    if buf.remaining() < 8 {
        return Err(LogError::Truncated);
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(LogError::BadHeader("bad magic".into()));
    }
    let version = buf.get_u32();
    if version != VERSION {
        return Err(LogError::BadHeader(format!(
            "unsupported version {version}"
        )));
    }
    if buf.remaining() < 16 {
        return Err(LogError::Truncated);
    }
    let job_id = buf.get_u64();
    let uid = buf.get_u32();
    let nprocs = buf.get_u32();
    let exe = get_str(&mut buf)?;
    if buf.remaining() < 16 {
        return Err(LogError::Truncated);
    }
    let start_time = buf.get_f64();
    let end_time = buf.get_f64();

    if buf.remaining() < 4 {
        return Err(LogError::Truncated);
    }
    let nnames = buf.get_u32();
    let mut names = HashMap::with_capacity(nnames as usize);
    for _ in 0..nnames {
        if buf.remaining() < 8 {
            return Err(LogError::Truncated);
        }
        let id = buf.get_u64();
        names.insert(id, get_str(&mut buf)?);
    }

    if buf.remaining() < 4 {
        return Err(LogError::Truncated);
    }
    let nrec = buf.get_u32();
    let mut records = Vec::with_capacity(nrec as usize);
    for _ in 0..nrec {
        if buf.remaining() < 13 {
            return Err(LogError::Truncated);
        }
        let code = buf.get_u8();
        let module = ModuleId::from_code(code).ok_or(LogError::BadCode(code))?;
        let record_id = buf.get_u64();
        let rank = buf.get_u32();
        records.push(LogRecord {
            module,
            record_id,
            rank,
            counters: get_counters(&mut buf)?,
        });
    }

    if buf.remaining() < 4 {
        return Err(LogError::Truncated);
    }
    let ndxt = buf.get_u32();
    let mut dxt = Vec::with_capacity(ndxt as usize);
    for _ in 0..ndxt {
        if buf.remaining() < 17 {
            return Err(LogError::Truncated);
        }
        let code = buf.get_u8();
        let module = ModuleId::from_code(code).ok_or(LogError::BadCode(code))?;
        let record_id = buf.get_u64();
        let rank = buf.get_u32();
        let nsegs = buf.get_u32();
        let mut segments = Vec::with_capacity(nsegs as usize);
        for _ in 0..nsegs {
            if buf.remaining() < 1 + 16 + 24 {
                return Err(LogError::Truncated);
            }
            let opc = buf.get_u8();
            let op = OpKind::from_code(opc).ok_or(LogError::BadCode(opc))?;
            let offset = buf.get_u64();
            let length = buf.get_u64();
            let start_rel = buf.get_f64();
            let end_rel = buf.get_f64();
            let end_abs = buf.get_f64();
            segments.push(DxtSegment {
                op,
                offset,
                length,
                start_rel,
                end_rel,
                end_abs,
            });
        }
        dxt.push(LogDxt {
            module,
            record_id,
            rank,
            segments,
        });
    }

    Ok(LogFile {
        job: JobMeta {
            job_id,
            uid,
            exe,
            nprocs,
        },
        start_time,
        end_time,
        names,
        records,
        dxt,
    })
}

impl LogFile {
    /// Reduces per-rank records into per-file totals (Darshan's
    /// shared-record reduction), keyed by (module, record id).
    pub(crate) fn reduce_shared(&self) -> HashMap<(ModuleId, u64), RecordCounters> {
        let mut out: HashMap<(ModuleId, u64), RecordCounters> = HashMap::new();
        for r in &self.records {
            // Not `or_default()`: `new()` seeds the -1 sentinels.
            #[allow(clippy::unwrap_or_default)]
            out.entry((r.module, r.record_id))
                .or_insert_with(RecordCounters::new)
                .merge(&r.counters);
        }
        out
    }

    /// Renders a `darshan-parser`-style text summary.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "# darshan log version: {VERSION}");
        let _ = writeln!(s, "# exe: {}", self.job.exe);
        let _ = writeln!(s, "# uid: {}", self.job.uid);
        let _ = writeln!(s, "# jobid: {}", self.job.job_id);
        let _ = writeln!(s, "# nprocs: {}", self.job.nprocs);
        let _ = writeln!(
            s,
            "# run time: {:.2}",
            (self.end_time - self.start_time).max(0.0)
        );
        let mut reduced: Vec<_> = self.reduce_shared().into_iter().collect();
        reduced.sort_by_key(|&((m, r), _)| (m, r));
        for ((module, record_id), c) in reduced {
            let name = self
                .names
                .get(&record_id)
                .map(String::as_str)
                .unwrap_or("<unknown>");
            let _ = writeln!(
                s,
                "{} {:#018x} {} opens={} closes={} reads={} writes={} \
                 bytes_read={} bytes_written={} switches={} max_byte_w={}",
                module.name(),
                record_id,
                name,
                c.opens,
                c.closes,
                c.reads,
                c.writes,
                c.bytes_read,
                c.bytes_written,
                c.rw_switches,
                c.max_byte_written,
            );
        }
        let total_segs: usize = self.dxt.iter().map(|d| d.segments.len()).sum();
        let _ = writeln!(s, "# DXT segments: {total_segs}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{EventParams, RankRuntime};
    use iosim_time::{Clock, Epoch, SimDuration};

    fn make_snapshot(rank: u32) -> RankSnapshot {
        let rt = RankRuntime::new(JobMeta::new(9, 5, "/bin/app", 2), rank);
        let mut clock = Clock::new(Epoch::from_secs(1_650_000_000));
        for (op, off, len) in [
            (OpKind::Open, None, None),
            (OpKind::Write, Some(0u64), Some(4096u64)),
            (OpKind::Read, Some(0), Some(1024)),
            (OpKind::Close, None, None),
        ] {
            let start = clock.time_pair();
            clock.advance(SimDuration::from_millis(2));
            let end = clock.time_pair();
            rt.io_event(
                &mut clock,
                EventParams {
                    module: ModuleId::Posix,
                    op,
                    file: Arc::from("/data/f.dat"),
                    record_id: 777,
                    offset: off,
                    len,
                    start,
                    end,
                    cnt: 1,
                    hdf5: None,
                },
            );
        }
        rt.finalize()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let job = JobMeta::new(9, 5, "/bin/app", 2);
        let snaps = vec![make_snapshot(0), make_snapshot(1)];
        let bytes = write_log(&job, 1_650_000_000.0, 1_650_000_100.0, &snaps);
        let log = parse_log(&bytes).unwrap();
        assert_eq!(log.job.job_id, 9);
        assert_eq!(log.job.exe, "/bin/app");
        assert_eq!(log.names[&777], "/data/f.dat");
        assert_eq!(log.records.len(), 2);
        assert_eq!(log.dxt.len(), 2);
        assert_eq!(log.dxt[0].segments.len(), 4);
        let rec = &log.records[0];
        assert_eq!(rec.counters.writes, 1);
        assert_eq!(rec.counters.bytes_written, 4096);
        // DXT absolute timestamps survive.
        assert!(log.dxt[0].segments[1].end_abs > 1_650_000_000.0);
    }

    #[test]
    fn reduction_merges_ranks() {
        let job = JobMeta::new(9, 5, "/bin/app", 2);
        let snaps = vec![make_snapshot(0), make_snapshot(1)];
        let bytes = write_log(&job, 0.0, 1.0, &snaps);
        let log = parse_log(&bytes).unwrap();
        let reduced = log.reduce_shared();
        let c = &reduced[&(ModuleId::Posix, 777)];
        assert_eq!(c.opens, 2);
        assert_eq!(c.bytes_written, 8192);
    }

    #[test]
    fn summary_mentions_the_file() {
        let job = JobMeta::new(9, 5, "/bin/app", 1);
        let snaps = vec![make_snapshot(0)];
        let bytes = write_log(&job, 0.0, 1.0, &snaps);
        let log = parse_log(&bytes).unwrap();
        let text = log.summary();
        assert!(text.contains("/data/f.dat"));
        assert!(text.contains("POSIX"));
        assert!(text.contains("# jobid: 9"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            parse_log(b"????"),
            Err(LogError::Truncated) | Err(LogError::BadHeader(_))
        ));
        let job = JobMeta::new(1, 1, "/x", 1);
        let mut bytes = write_log(&job, 0.0, 1.0, &[]);
        bytes[0] = b'X';
        assert!(matches!(parse_log(&bytes), Err(LogError::BadHeader(_))));
        // Truncation mid-stream.
        let bytes = write_log(&job, 0.0, 1.0, &[make_snapshot(0)]);
        assert!(parse_log(&bytes[..bytes.len() - 10]).is_err());
    }

    #[test]
    fn empty_log_round_trips() {
        let job = JobMeta::new(1, 1, "/x", 0);
        let bytes = write_log(&job, 0.0, 0.0, &[]);
        let log = parse_log(&bytes).unwrap();
        assert!(log.records.is_empty());
        assert!(log.dxt.is_empty());
    }
}
