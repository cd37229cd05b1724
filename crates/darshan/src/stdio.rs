//! The instrumented STDIO module.
//!
//! Models libc buffered streams (`fopen`/`fread`/`fwrite`/`fclose`).
//! HMMER's `hmmbuild` does its millions of small sequential accesses
//! through stdio — each one is a Darshan STDIO event, which is exactly
//! the event volume (3–4.5 million messages per run, Table IIc) that
//! exposes the connector's formatting overhead.
//!
//! Buffering semantics: reads and writes pass through a `BUFSIZ`-style
//! user-space buffer; accesses inside the buffered window go to the
//! file system as *cached* sequential operations (the `SimFs` readahead
//! path), so tiny stdio calls stay cheap while still being individually
//! observed by Darshan — matching the real system, where Darshan wraps
//! the stdio call itself, not the underlying syscall.

use crate::runtime::{EventParams, RankRuntime};
use crate::types::{record_id_of, ModuleId, OpKind};
use iosim_fs::{FsResult, IoCtx, OpTiming, SimFs};
use std::sync::Arc;

/// Per-rank instrumented stdio layer.
#[derive(Clone)]
pub struct DarshanStdio {
    fs: SimFs,
    rt: RankRuntime,
}

/// An instrumented buffered stream.
pub struct StdioHandle {
    inner: iosim_fs::FileHandle,
    file: Arc<str>,
    record_id: u64,
    cnt: u64,
}

impl DarshanStdio {
    /// Wraps a file system with stdio instrumentation for one rank.
    pub fn new(fs: SimFs, rt: RankRuntime) -> Self {
        Self { fs, rt }
    }

    fn fire(
        &self,
        io: &mut IoCtx,
        h: &StdioHandle,
        op: OpKind,
        offset: Option<u64>,
        len: Option<u64>,
        t: &OpTiming,
    ) {
        self.rt.io_event(
            &mut io.clock,
            EventParams {
                module: ModuleId::Stdio,
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

    /// `fopen` analogue.
    pub fn fopen(
        &self,
        io: &mut IoCtx,
        path: &str,
        create: bool,
        writable: bool,
    ) -> FsResult<StdioHandle> {
        let (inner, t) = self.fs.open(io, path, create, writable, false)?;
        let mut h = StdioHandle {
            inner,
            file: Arc::from(path),
            record_id: record_id_of(path),
            cnt: 0,
        };
        h.cnt = 1;
        self.fire(io, &h, OpKind::Open, None, None, &t);
        Ok(h)
    }

    /// `fread` analogue: sequential buffered read.
    pub fn fread(&self, io: &mut IoCtx, h: &mut StdioHandle, len: u64) -> FsResult<OpTiming> {
        let off = h.inner.cursor();
        let t = self.fs.read(io, &mut h.inner, len)?;
        h.cnt += 1;
        self.fire(io, h, OpKind::Read, Some(off), Some(t.bytes), &t);
        Ok(t)
    }

    /// `fwrite` analogue: sequential buffered write.
    pub fn fwrite(&self, io: &mut IoCtx, h: &mut StdioHandle, len: u64) -> FsResult<OpTiming> {
        let off = h.inner.cursor();
        let t = self.fs.write(io, &mut h.inner, len)?;
        h.cnt += 1;
        self.fire(io, h, OpKind::Write, Some(off), Some(len), &t);
        Ok(t)
    }

    /// `fflush` analogue.
    pub fn fflush(&self, io: &mut IoCtx, h: &mut StdioHandle) -> FsResult<OpTiming> {
        let t = self.fs.flush(io, &mut h.inner)?;
        h.cnt += 1;
        self.fire(io, h, OpKind::Flush, None, None, &t);
        Ok(t)
    }

    /// `fclose` analogue.
    pub fn fclose(&self, io: &mut IoCtx, h: &mut StdioHandle) -> FsResult<OpTiming> {
        let t = self.fs.close(io, &mut h.inner)?;
        h.cnt += 1;
        self.fire(io, h, OpKind::Close, None, None, &t);
        h.cnt = 0;
        Ok(t)
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

    fn setup() -> (DarshanStdio, Arc<CollectingSink>, IoCtx) {
        let fs = SimFs::new(Box::<NfsModel>::default(), Weather::calm(), 1024 * 1024);
        let rt = RankRuntime::new(JobMeta::new(7, 100, "/apps/hmmbuild", 1), 0);
        let sink = Arc::new(CollectingSink::new());
        rt.set_sink(Some(sink.clone()));
        let io = IoCtx::new(1, 0, 0, Epoch::from_secs(1_650_000_000)).with_jitter(0.0);
        (DarshanStdio::new(fs, rt), sink, io)
    }

    #[test]
    fn stream_lifecycle() {
        let (stdio, sink, mut io) = setup();
        let mut h = stdio.fopen(&mut io, "/db.hmm", true, true).unwrap();
        for _ in 0..10 {
            stdio.fwrite(&mut io, &mut h, 128).unwrap();
        }
        stdio.fflush(&mut io, &mut h).unwrap();
        stdio.fclose(&mut io, &mut h).unwrap();
        let evs = sink.take();
        assert_eq!(evs.len(), 13); // open + 10 writes + flush + close
        assert!(evs.iter().all(|e| e.module == ModuleId::Stdio));
        assert_eq!(evs.last().unwrap().op, OpKind::Close);
    }

    #[test]
    fn sequential_small_reads_stay_cheap() {
        let (stdio, _sink, mut io) = setup();
        let mut h = stdio.fopen(&mut io, "/seed", true, true).unwrap();
        stdio.fwrite(&mut io, &mut h, 2 * 1024 * 1024).unwrap();
        stdio.fclose(&mut io, &mut h).unwrap();
        let mut h = stdio.fopen(&mut io, "/seed", false, false).unwrap();
        // Warm the window, then measure a cached read.
        stdio.fread(&mut io, &mut h, 256).unwrap();
        let before = io.clock.elapsed();
        stdio.fread(&mut io, &mut h, 256).unwrap();
        let cached_cost = (io.clock.elapsed() - before).as_secs_f64();
        assert!(
            cached_cost < 1e-4,
            "buffered stdio read should be ~µs, got {cached_cost}s"
        );
    }

    #[test]
    fn fread_returns_actual_bytes_at_eof() {
        let (stdio, sink, mut io) = setup();
        let mut h = stdio.fopen(&mut io, "/short", true, true).unwrap();
        stdio.fwrite(&mut io, &mut h, 100).unwrap();
        h.inner.seek(0);
        let t = stdio.fread(&mut io, &mut h, 1000).unwrap();
        assert_eq!(t.bytes, 100);
        let evs = sink.take();
        assert_eq!(evs.last().unwrap().len, 100);
    }
}
