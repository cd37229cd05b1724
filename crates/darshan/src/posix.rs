//! The instrumented POSIX module.
//!
//! Wraps `iosim_fs::SimFs` the way Darshan's POSIX module wraps libc
//! I/O: every call updates the POSIX record counters, traces a DXT
//! segment, and fires the connector hook. It implements
//! [`iosim_mpi::PosixLayer`], so MPI-IO built on top of it generates
//! POSIX-level events from aggregator ranks exactly like the real
//! stack.

use crate::runtime::{EventParams, RankRuntime};
use crate::types::{record_id_of, ModuleId, OpKind};
use iosim_fs::{FsResult, IoCtx, OpTiming, SimFs};
use iosim_mpi::PosixLayer;
use std::sync::Arc;

/// Per-rank instrumented POSIX layer.
#[derive(Clone)]
pub struct DarshanPosix {
    fs: SimFs,
    rt: RankRuntime,
}

/// An instrumented POSIX file handle.
pub struct PosixHandle {
    inner: iosim_fs::FileHandle,
    file: Arc<str>,
    record_id: u64,
    /// Operations on this handle since open (incl. the open) — the
    /// connector's `cnt`, which resets to 0 after each close.
    cnt: u64,
}

impl DarshanPosix {
    /// Wraps a file system with instrumentation for one rank.
    pub fn new(fs: SimFs, rt: RankRuntime) -> Self {
        Self { fs, rt }
    }

    /// The rank runtime.
    pub(crate) fn runtime(&self) -> &RankRuntime {
        &self.rt
    }

    fn fire(
        &self,
        io: &mut IoCtx,
        h: &PosixHandle,
        op: OpKind,
        offset: Option<u64>,
        len: Option<u64>,
        t: &OpTiming,
    ) {
        self.rt.io_event(
            &mut io.clock,
            EventParams {
                module: ModuleId::Posix,
                op,
                file: h.file.clone(),
                record_id: h.record_id,
                offset,
                len,
                start: t.start,
                end: t.end,
                cnt: h.cnt,
                hdf5: None,
            },
        );
    }

    /// Opens a file with instrumentation (also usable outside the
    /// `PosixLayer` trait).
    pub fn open_instrumented(
        &self,
        io: &mut IoCtx,
        path: &str,
        create: bool,
        writable: bool,
        shared: bool,
    ) -> FsResult<PosixHandle> {
        let (inner, t) = self.fs.open(io, path, create, writable, shared)?;
        let mut h = PosixHandle {
            inner,
            file: Arc::from(path),
            record_id: record_id_of(path),
            cnt: 0,
        };
        h.cnt = 1;
        self.fire(io, &h, OpKind::Open, None, None, &t);
        Ok(h)
    }

    /// Sequential write at the handle cursor.
    #[cfg(test)]
    pub(crate) fn write(
        &self,
        io: &mut IoCtx,
        h: &mut PosixHandle,
        len: u64,
    ) -> FsResult<OpTiming> {
        let off = h.inner.cursor();
        let t = self.fs.write(io, &mut h.inner, len)?;
        h.cnt += 1;
        self.fire(io, h, OpKind::Write, Some(off), Some(len), &t);
        Ok(t)
    }

    /// `fsync` analogue.
    pub(crate) fn flush(&self, io: &mut IoCtx, h: &mut PosixHandle) -> FsResult<OpTiming> {
        let t = self.fs.flush(io, &mut h.inner)?;
        h.cnt += 1;
        self.fire(io, h, OpKind::Flush, None, None, &t);
        Ok(t)
    }
}

impl PosixLayer for DarshanPosix {
    type Handle = PosixHandle;

    fn open(
        &self,
        io: &mut IoCtx,
        path: &str,
        create: bool,
        writable: bool,
        shared: bool,
    ) -> FsResult<PosixHandle> {
        self.open_instrumented(io, path, create, writable, shared)
    }

    fn write_at(
        &self,
        io: &mut IoCtx,
        h: &mut PosixHandle,
        offset: u64,
        len: u64,
    ) -> FsResult<OpTiming> {
        let t = self.fs.write_at(io, &mut h.inner, offset, len)?;
        h.cnt += 1;
        self.fire(io, h, OpKind::Write, Some(offset), Some(len), &t);
        Ok(t)
    }

    fn read_at(
        &self,
        io: &mut IoCtx,
        h: &mut PosixHandle,
        offset: u64,
        len: u64,
    ) -> FsResult<OpTiming> {
        let t = self.fs.read_at(io, &mut h.inner, offset, len)?;
        h.cnt += 1;
        self.fire(io, h, OpKind::Read, Some(offset), Some(t.bytes), &t);
        Ok(t)
    }

    fn close(&self, io: &mut IoCtx, h: &mut PosixHandle) -> FsResult<OpTiming> {
        let t = self.fs.close(io, &mut h.inner)?;
        h.cnt += 1;
        self.fire(io, h, OpKind::Close, None, None, &t);
        h.cnt = 0; // Table I: cnt resets after each close
        Ok(t)
    }

    fn size(&self, h: &PosixHandle) -> u64 {
        h.inner.size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::CollectingSink;
    use crate::runtime::JobMeta;
    use iosim_fs::nfs::NfsModel;
    use iosim_fs::Weather;
    use iosim_time::Epoch;

    fn setup() -> (DarshanPosix, Arc<CollectingSink>, IoCtx) {
        let fs = SimFs::new(Box::<NfsModel>::default(), Weather::calm(), 1024 * 1024);
        let rt = RankRuntime::new(JobMeta::new(7, 100, "/apps/test", 1), 0);
        let sink = Arc::new(CollectingSink::new());
        rt.set_sink(Some(sink.clone()));
        let io = IoCtx::new(1, 0, 0, Epoch::from_secs(1_650_000_000)).with_jitter(0.0);
        (DarshanPosix::new(fs, rt), sink, io)
    }

    #[test]
    fn full_lifecycle_fires_events_in_order() {
        let (posix, sink, mut io) = setup();
        let mut h = posix
            .open_instrumented(&mut io, "/out.dat", true, true, false)
            .unwrap();
        posix.write_at(&mut io, &mut h, 0, 4096).unwrap();
        posix.read_at(&mut io, &mut h, 0, 4096).unwrap();
        posix.flush(&mut io, &mut h).unwrap();
        posix.close(&mut io, &mut h).unwrap();
        let evs = sink.take();
        let ops: Vec<OpKind> = evs.iter().map(|e| e.op).collect();
        assert_eq!(
            ops,
            vec![
                OpKind::Open,
                OpKind::Write,
                OpKind::Read,
                OpKind::Flush,
                OpKind::Close
            ]
        );
        // cnt increments through the lifecycle.
        let cnts: Vec<u64> = evs.iter().map(|e| e.cnt).collect();
        assert_eq!(cnts, vec![1, 2, 3, 4, 5]);
        // cnt resets after close.
        assert_eq!(h.cnt, 0);
        // All events carry the module and record id.
        assert!(evs.iter().all(|e| e.module == ModuleId::Posix));
        assert!(evs.iter().all(|e| e.record_id == record_id_of("/out.dat")));
    }

    #[test]
    fn counters_accumulate_under_the_hood() {
        let (posix, _sink, mut io) = setup();
        let mut h = posix
            .open_instrumented(&mut io, "/c.dat", true, true, false)
            .unwrap();
        posix.write_at(&mut io, &mut h, 0, 100).unwrap();
        posix.write_at(&mut io, &mut h, 100, 100).unwrap();
        posix.close(&mut io, &mut h).unwrap();
        let c = posix
            .runtime()
            .counters(ModuleId::Posix, record_id_of("/c.dat"))
            .unwrap();
        assert_eq!(c.writes, 2);
        assert_eq!(c.bytes_written, 200);
        assert_eq!(c.max_byte_written, 199);
        assert!(c.f_write_time > 0.0);
    }

    #[test]
    fn sequential_helpers_report_cursor_offsets() {
        let (posix, sink, mut io) = setup();
        let mut h = posix
            .open_instrumented(&mut io, "/s.dat", true, true, false)
            .unwrap();
        posix.write(&mut io, &mut h, 10).unwrap();
        posix.write(&mut io, &mut h, 10).unwrap();
        let evs = sink.take();
        assert_eq!(evs[1].offset, 0);
        assert_eq!(evs[2].offset, 10);
    }

    #[test]
    fn errors_do_not_fire_events() {
        let (posix, sink, mut io) = setup();
        assert!(posix
            .open_instrumented(&mut io, "/missing", false, false, false)
            .is_err());
        assert!(sink.take().is_empty());
    }

    #[test]
    fn dxt_segments_recorded() {
        let (posix, _sink, mut io) = setup();
        let mut h = posix
            .open_instrumented(&mut io, "/d.dat", true, true, false)
            .unwrap();
        posix.write_at(&mut io, &mut h, 0, 64).unwrap();
        posix.close(&mut io, &mut h).unwrap();
        let snap = posix.runtime().finalize();
        let (_, _, segs) = snap
            .dxt
            .iter()
            .find(|(m, r, _)| *m == ModuleId::Posix && *r == record_id_of("/d.dat"))
            .unwrap();
        assert_eq!(segs.len(), 3); // open + write + close
        assert!(segs.iter().any(|s| s.op == OpKind::Write && s.length == 64));
    }
}
