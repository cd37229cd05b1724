//! The `SimFs` facade: namespace + performance model + weather.
//!
//! This is the layer the Darshan module wrappers call. Every operation
//! takes the calling rank's [`IoCtx`], computes a duration from the
//! performance model under the current weather, advances the rank's
//! virtual clock, updates traffic accounting, and returns an
//! [`OpTiming`] carrying the start/end [`TimePair`]s that Darshan's DXT
//! tracing and the connector's `seg:timestamp` field consume.

use crate::ctx::IoCtx;
use crate::error::{FsError, FsResult};
use crate::model::{CacheState, MetaKind, OpCtx, PerfModel, XferKind};
use crate::stats::{FsStats, FsStatsSnapshot};
use crate::vfs::{FileMeta, FileStore};
use crate::weather::Weather;
use iosim_time::{SimDuration, TimePair};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

/// How far ahead of the last access the client cache covers (bytes).
/// Sequential accesses within this window are "cached" for the model.
const READAHEAD_BYTES: u64 = 4 * 1024 * 1024;

/// Timing of one completed operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpTiming {
    /// Clock state when the operation was issued.
    pub start: TimePair,
    /// Clock state when the operation completed.
    pub end: TimePair,
    /// Modelled duration (`end - start`).
    pub duration: SimDuration,
    /// Bytes actually transferred (reads clamp at end-of-file).
    pub bytes: u64,
}

/// An open file handle, private to one rank.
///
/// Tracks the sequential-access window used for cache-hit detection and
/// a cursor for the sequential (`read`/`write`) convenience API.
#[derive(Debug)]
pub struct FileHandle {
    path: Arc<str>,
    meta: Arc<FileMeta>,
    writable: bool,
    /// Cursor for sequential read/write.
    cursor: u64,
    /// End of the most recent access, for readahead detection.
    last_end: Option<u64>,
    /// Extent written through this handle: `[written_min, written_max)`.
    /// Reads inside it hit the client page cache (own dirty/clean
    /// pages). Dropped with the handle — close-to-open consistency, so
    /// a re-opened file reads from the server again (which is why
    /// HACC-IO's validation pass is slow while MPI-IO-TEST's same-handle
    /// read-back is fast).
    written_min: u64,
    written_max: u64,
    /// Whether this handle's file is opened by many ranks at once.
    shared: bool,
    closed: bool,
}

impl FileHandle {
    /// Current sequential cursor position.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Repositions the sequential cursor (`lseek` analogue); resets the
    /// readahead window because the access pattern broke.
    pub fn seek(&mut self, offset: u64) {
        self.cursor = offset;
        self.last_end = None;
    }

    /// Current file size as known to the store.
    pub fn size(&self) -> u64 {
        self.meta.size.load(Ordering::Relaxed)
    }

    fn ensure_open(&self) -> FsResult<()> {
        if self.closed {
            Err(FsError::StaleHandle(self.path.to_string()))
        } else {
            Ok(())
        }
    }

    fn cache_hit(&mut self, offset: u64) -> bool {
        match self.last_end {
            Some(end) => offset >= end && offset - end < READAHEAD_BYTES,
            None => false,
        }
    }

    fn in_written_extent(&self, offset: u64, len: u64) -> bool {
        self.written_max > self.written_min
            && offset >= self.written_min
            && offset.saturating_add(len) <= self.written_max
    }
}

struct Shared {
    store: FileStore,
    model: Box<dyn PerfModel>,
    weather: Weather,
    stats: FsStats,
    active_clients: AtomicU32,
    /// Failure-injection flag for tests: next data op fails when set.
    fail_next: AtomicBool,
    /// Natural alignment boundary for this file system.
    alignment: u64,
}

/// A simulated file system shared by all ranks of a job (cheaply
/// cloneable; clones share state).
#[derive(Clone)]
pub struct SimFs {
    inner: Arc<Shared>,
}

impl SimFs {
    /// Creates a file system from a performance model and weather, with
    /// the given natural alignment (stripe size for Lustre, wsize for
    /// NFS).
    pub fn new(model: Box<dyn PerfModel>, weather: Weather, alignment: u64) -> Self {
        Self {
            inner: Arc::new(Shared {
                store: FileStore::new(),
                model,
                weather,
                stats: FsStats::default(),
                active_clients: AtomicU32::new(1),
                fail_next: AtomicBool::new(false),
                alignment: alignment.max(1),
            }),
        }
    }

    /// Registers how many clients (ranks) actively share this file
    /// system; the models divide server bandwidth by this.
    pub fn set_active_clients(&self, n: u32) {
        self.inner.active_clients.store(n.max(1), Ordering::Relaxed);
    }

    /// The configured client count.
    pub(crate) fn active_clients(&self) -> u32 {
        self.inner.active_clients.load(Ordering::Relaxed)
    }

    /// The display name of the underlying model ("NFS"/"Lustre").
    pub fn kind_name(&self) -> &'static str {
        self.inner.model.kind().name()
    }

    /// Snapshot of cumulative traffic counters.
    pub fn stats(&self) -> FsStatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// Size of `path` if it exists.
    pub fn size_of(&self, path: &str) -> FsResult<u64> {
        self.inner.store.size_of(path)
    }

    /// Arms a one-shot injected failure: the next read/write returns
    /// `FsError::Injected`. For failure-injection tests.
    pub fn inject_failure(&self) {
        self.inner.fail_next.store(true, Ordering::SeqCst);
    }

    fn op_ctx(
        &self,
        ctx: &mut IoCtx,
        offset: u64,
        bytes: u64,
        shared: bool,
        cached: CacheState,
    ) -> OpCtx {
        let align = self.inner.alignment;
        OpCtx {
            active_clients: ctx
                .concurrency_override
                .unwrap_or_else(|| self.active_clients()),
            load_factor: self.inner.weather.factor_at(ctx.clock.now()),
            jitter: ctx.jitter_factor(),
            aligned: offset % align == 0 && (bytes % align == 0 || bytes >= align),
            shared_file: shared,
            cached,
        }
    }

    fn timed<F>(&self, ctx: &mut IoCtx, bytes: u64, f: F) -> OpTiming
    where
        F: FnOnce(&Self) -> SimDuration,
    {
        let start = ctx.clock.time_pair();
        let d = f(self);
        ctx.clock.advance(d);
        OpTiming {
            start,
            end: ctx.clock.time_pair(),
            duration: d,
            bytes,
        }
    }

    /// Opens (optionally creating) a file. `shared` marks the file as
    /// concurrently accessed by many ranks (single-shared-file I/O),
    /// which Lustre penalizes for unaligned writes.
    pub fn open(
        &self,
        ctx: &mut IoCtx,
        path: &str,
        create: bool,
        writable: bool,
        shared: bool,
    ) -> FsResult<(FileHandle, OpTiming)> {
        let (_, meta) = self.inner.store.open(path, create)?;
        self.inner.stats.opens.fetch_add(1, Ordering::Relaxed);
        let opctx = self.op_ctx(ctx, 0, 0, shared, CacheState::Miss);
        let timing = self.timed(ctx, 0, |fs| fs.inner.model.meta_op(MetaKind::Open, &opctx));
        Ok((
            FileHandle {
                path: Arc::from(path),
                meta,
                writable,
                cursor: 0,
                last_end: None,
                written_min: 0,
                written_max: 0,
                shared,
                closed: false,
            },
            timing,
        ))
    }

    /// Writes `len` bytes at `offset`.
    pub fn write_at(
        &self,
        ctx: &mut IoCtx,
        h: &mut FileHandle,
        offset: u64,
        len: u64,
    ) -> FsResult<OpTiming> {
        h.ensure_open()?;
        if !h.writable {
            return Err(FsError::ReadOnly(h.path.to_string()));
        }
        if self.inner.fail_next.swap(false, Ordering::SeqCst) {
            return Err(FsError::Injected(format!("write {}", h.path)));
        }
        // Small sequential writes land in the client's write-behind
        // buffer; large or non-sequential ones go to the server. An
        // active storm (memory pressure) defeats the buffering.
        let storm = self.inner.weather.caches_dropped_at(ctx.clock.now());
        let cached = if !storm && h.cache_hit(offset) && len < self.inner.alignment {
            CacheState::PageCache
        } else {
            CacheState::Miss
        };
        let opctx = self.op_ctx(ctx, offset, len, h.shared, cached);
        let timing = self.timed(ctx, len, |fs| {
            fs.inner.model.transfer(XferKind::Write, len, &opctx)
        });
        FileStore::extend(&h.meta, offset, len);
        h.last_end = Some(offset + len);
        if h.written_max == h.written_min {
            h.written_min = offset;
            h.written_max = offset + len;
        } else {
            h.written_min = h.written_min.min(offset);
            h.written_max = h.written_max.max(offset + len);
        }
        self.inner.stats.writes.fetch_add(1, Ordering::Relaxed);
        self.inner
            .stats
            .bytes_written
            .fetch_add(len, Ordering::Relaxed);
        Ok(timing)
    }

    /// Reads up to `len` bytes at `offset`; the returned timing's
    /// `bytes` is clamped to the available extent. Reading entirely past
    /// end-of-file is an error.
    pub fn read_at(
        &self,
        ctx: &mut IoCtx,
        h: &mut FileHandle,
        offset: u64,
        len: u64,
    ) -> FsResult<OpTiming> {
        h.ensure_open()?;
        if self.inner.fail_next.swap(false, Ordering::SeqCst) {
            return Err(FsError::Injected(format!("read {}", h.path)));
        }
        let size = h.size();
        if offset >= size && len > 0 {
            return Err(FsError::BeyondEof {
                path: h.path.to_string(),
                offset,
                size,
            });
        }
        let avail = (size - offset).min(len);
        let storm = self.inner.weather.caches_dropped_at(ctx.clock.now());
        let cached = if storm {
            CacheState::Miss
        } else if self.inner.model.caches_own_writes() && h.in_written_extent(offset, avail) {
            CacheState::PageCache
        } else if h.cache_hit(offset) {
            CacheState::Readahead
        } else {
            CacheState::Miss
        };
        let opctx = self.op_ctx(ctx, offset, avail, h.shared, cached);
        let timing = self.timed(ctx, avail, |fs| {
            fs.inner.model.transfer(XferKind::Read, avail, &opctx)
        });
        h.last_end = Some(offset + avail);
        self.inner.stats.reads.fetch_add(1, Ordering::Relaxed);
        self.inner
            .stats
            .bytes_read
            .fetch_add(avail, Ordering::Relaxed);
        Ok(timing)
    }

    /// Sequential write at the handle cursor.
    pub fn write(&self, ctx: &mut IoCtx, h: &mut FileHandle, len: u64) -> FsResult<OpTiming> {
        let off = h.cursor;
        let t = self.write_at(ctx, h, off, len)?;
        h.cursor = off + len;
        Ok(t)
    }

    /// Sequential read at the handle cursor.
    pub fn read(&self, ctx: &mut IoCtx, h: &mut FileHandle, len: u64) -> FsResult<OpTiming> {
        let off = h.cursor;
        let t = self.read_at(ctx, h, off, len)?;
        h.cursor = off + t.bytes;
        Ok(t)
    }

    /// Flushes dirty state for the handle.
    pub fn flush(&self, ctx: &mut IoCtx, h: &mut FileHandle) -> FsResult<OpTiming> {
        h.ensure_open()?;
        let opctx = self.op_ctx(ctx, 0, 0, h.shared, CacheState::Miss);
        self.inner.stats.flushes.fetch_add(1, Ordering::Relaxed);
        Ok(self.timed(ctx, 0, |fs| fs.inner.model.meta_op(MetaKind::Flush, &opctx)))
    }

    /// Closes the handle. Further operations on it fail.
    pub fn close(&self, ctx: &mut IoCtx, h: &mut FileHandle) -> FsResult<OpTiming> {
        h.ensure_open()?;
        h.closed = true;
        let opctx = self.op_ctx(ctx, 0, 0, h.shared, CacheState::Miss);
        self.inner.stats.closes.fetch_add(1, Ordering::Relaxed);
        Ok(self.timed(ctx, 0, |fs| fs.inner.model.meta_op(MetaKind::Close, &opctx)))
    }
}

impl std::fmt::Debug for SimFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimFs")
            .field("kind", &self.kind_name())
            .field("active_clients", &self.active_clients())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lustre::LustreModel;
    use crate::nfs::NfsModel;
    use iosim_time::Epoch;

    fn nfs() -> SimFs {
        SimFs::new(Box::<NfsModel>::default(), Weather::calm(), 1024 * 1024)
    }

    fn ioctx() -> IoCtx {
        IoCtx::new(42, 0, 0, Epoch::from_secs(1_650_000_000)).with_jitter(0.0)
    }

    #[test]
    fn open_write_read_close_advances_clock() {
        let fs = nfs();
        let mut ctx = ioctx();
        let (mut h, t_open) = fs.open(&mut ctx, "/f", true, true, false).unwrap();
        assert!(t_open.duration > SimDuration::ZERO);
        let t_w = fs.write_at(&mut ctx, &mut h, 0, 1024 * 1024).unwrap();
        assert_eq!(t_w.bytes, 1024 * 1024);
        let t_r = fs.read_at(&mut ctx, &mut h, 0, 1024 * 1024).unwrap();
        assert_eq!(t_r.bytes, 1024 * 1024);
        let t_c = fs.close(&mut ctx, &mut h).unwrap();
        // Monotone timeline.
        assert!(t_open.end.abs <= t_w.start.abs);
        assert!(t_w.end.abs <= t_r.start.abs);
        assert!(t_r.end.abs <= t_c.start.abs);
        assert!(ctx.clock.elapsed() > SimDuration::ZERO);
    }

    #[test]
    fn read_clamps_at_eof() {
        let fs = nfs();
        let mut ctx = ioctx();
        let (mut h, _) = fs.open(&mut ctx, "/f", true, true, false).unwrap();
        fs.write_at(&mut ctx, &mut h, 0, 100).unwrap();
        let t = fs.read_at(&mut ctx, &mut h, 50, 1000).unwrap();
        assert_eq!(t.bytes, 50);
        let err = fs.read_at(&mut ctx, &mut h, 100, 10).unwrap_err();
        assert!(matches!(err, FsError::BeyondEof { .. }));
    }

    #[test]
    fn sequential_api_moves_cursor() {
        let fs = nfs();
        let mut ctx = ioctx();
        let (mut h, _) = fs.open(&mut ctx, "/seq", true, true, false).unwrap();
        fs.write(&mut ctx, &mut h, 10).unwrap();
        fs.write(&mut ctx, &mut h, 10).unwrap();
        assert_eq!(h.cursor(), 20);
        assert_eq!(h.size(), 20);
        h.seek(0);
        let t = fs.read(&mut ctx, &mut h, 20).unwrap();
        assert_eq!(t.bytes, 20);
        assert_eq!(h.cursor(), 20);
    }

    #[test]
    fn closed_handle_rejects_ops() {
        let fs = nfs();
        let mut ctx = ioctx();
        let (mut h, _) = fs.open(&mut ctx, "/c", true, true, false).unwrap();
        fs.close(&mut ctx, &mut h).unwrap();
        assert!(matches!(
            fs.write_at(&mut ctx, &mut h, 0, 1),
            Err(FsError::StaleHandle(_))
        ));
        assert!(matches!(
            fs.close(&mut ctx, &mut h),
            Err(FsError::StaleHandle(_))
        ));
    }

    #[test]
    fn readonly_handle_rejects_writes() {
        let fs = nfs();
        let mut ctx = ioctx();
        let (mut h, _) = fs.open(&mut ctx, "/ro", true, true, false).unwrap();
        fs.write_at(&mut ctx, &mut h, 0, 10).unwrap();
        fs.close(&mut ctx, &mut h).unwrap();
        let (mut ro, _) = fs.open(&mut ctx, "/ro", false, false, false).unwrap();
        assert!(matches!(
            fs.write_at(&mut ctx, &mut ro, 0, 1),
            Err(FsError::ReadOnly(_))
        ));
    }

    /// Writes a file and reopens it read-only, so the written-extent
    /// cache of the writing handle is dropped (close-to-open
    /// consistency) and only readahead caching applies.
    fn reopened(fs: &SimFs, ctx: &mut IoCtx, path: &str, bytes: u64) -> FileHandle {
        let (mut h, _) = fs.open(ctx, path, true, true, false).unwrap();
        fs.write_at(ctx, &mut h, 0, bytes).unwrap();
        fs.close(ctx, &mut h).unwrap();
        fs.open(ctx, path, false, false, false).unwrap().0
    }

    #[test]
    fn sequential_small_reads_become_cached() {
        let fs = nfs();
        let mut ctx = ioctx();
        let mut h = reopened(&fs, &mut ctx, "/cache", 8 * 1024 * 1024);
        // First read pays the RPC; subsequent sequential reads hit the
        // readahead window and are much cheaper.
        let first = fs.read(&mut ctx, &mut h, 4096).unwrap();
        let second = fs.read(&mut ctx, &mut h, 4096).unwrap();
        assert!(second.duration.as_secs_f64() < first.duration.as_secs_f64() / 5.0);
    }

    #[test]
    fn seek_resets_cache_window() {
        let fs = nfs();
        let mut ctx = ioctx();
        let mut h = reopened(&fs, &mut ctx, "/cache2", 8 * 1024 * 1024);
        fs.read(&mut ctx, &mut h, 4096).unwrap();
        let cached = fs.read(&mut ctx, &mut h, 4096).unwrap();
        h.seek(4 * 1024 * 1024 + 8192);
        let after_seek = fs.read(&mut ctx, &mut h, 4096).unwrap();
        assert!(after_seek.duration > cached.duration);
    }

    #[test]
    fn same_handle_read_back_hits_page_cache() {
        // Lustre caches a client's own writes; NFS (actimeo=0) must not.
        let fs = SimFs::new(Box::<LustreModel>::default(), Weather::calm(), 1024 * 1024);
        let mut ctx = ioctx();
        let (mut h, _) = fs.open(&mut ctx, "/own", true, true, false).unwrap();
        fs.write_at(&mut ctx, &mut h, 0, 16 * 1024 * 1024).unwrap();
        // Reading back data this handle wrote: client page cache.
        let hit = fs.read_at(&mut ctx, &mut h, 0, 16 * 1024 * 1024).unwrap();
        assert!(hit.duration.as_secs_f64() < 0.05, "got {}", hit.duration);
        // A different (reopened) handle pays the server round trip.
        fs.close(&mut ctx, &mut h).unwrap();
        let (mut h2, _) = fs.open(&mut ctx, "/own", false, false, false).unwrap();
        let miss = fs.read_at(&mut ctx, &mut h2, 0, 16 * 1024 * 1024).unwrap();
        assert!(miss.duration.as_secs_f64() > hit.duration.as_secs_f64() * 5.0);
    }

    #[test]
    fn nfs_actimeo_zero_rereads_even_own_writes() {
        let fs = nfs();
        let mut ctx = ioctx();
        let (mut h, _) = fs.open(&mut ctx, "/own-nfs", true, true, false).unwrap();
        fs.write_at(&mut ctx, &mut h, 0, 16 * 1024 * 1024).unwrap();
        let read_back = fs.read_at(&mut ctx, &mut h, 0, 16 * 1024 * 1024).unwrap();
        // Pays the server round trip + bandwidth, not the page cache.
        assert!(
            read_back.duration.as_secs_f64() > 0.05,
            "got {}",
            read_back.duration
        );
    }

    #[test]
    fn stats_accumulate() {
        let fs = nfs();
        let mut ctx = ioctx();
        let (mut h, _) = fs.open(&mut ctx, "/s", true, true, false).unwrap();
        fs.write_at(&mut ctx, &mut h, 0, 100).unwrap();
        fs.write_at(&mut ctx, &mut h, 100, 100).unwrap();
        fs.read_at(&mut ctx, &mut h, 0, 150).unwrap();
        fs.flush(&mut ctx, &mut h).unwrap();
        fs.close(&mut ctx, &mut h).unwrap();
        let s = fs.stats();
        assert_eq!(s.opens, 1);
        assert_eq!(s.writes, 2);
        assert_eq!(s.reads, 1);
        assert_eq!(s.flushes, 1);
        assert_eq!(s.closes, 1);
        assert_eq!(s.bytes_written, 200);
        assert_eq!(s.bytes_read, 150);
    }

    #[test]
    fn injected_failure_fires_once() {
        let fs = nfs();
        let mut ctx = ioctx();
        let (mut h, _) = fs.open(&mut ctx, "/inj", true, true, false).unwrap();
        fs.inject_failure();
        assert!(matches!(
            fs.write_at(&mut ctx, &mut h, 0, 1),
            Err(FsError::Injected(_))
        ));
        assert!(fs.write_at(&mut ctx, &mut h, 0, 1).is_ok());
    }

    #[test]
    fn lustre_fs_smoke() {
        let fs = SimFs::new(Box::<LustreModel>::default(), Weather::calm(), 1024 * 1024);
        fs.set_active_clients(64);
        let mut ctx = ioctx();
        let (mut h, _) = fs.open(&mut ctx, "/l", true, true, true).unwrap();
        let t = fs.write_at(&mut ctx, &mut h, 12345, 4096).unwrap(); // unaligned shared
        assert!(t.duration > SimDuration::ZERO);
        assert_eq!(fs.kind_name(), "Lustre");
    }
}
