//! The instrumented MPIIO module.
//!
//! Wraps [`iosim_mpi::MpiFile`] operating over the instrumented POSIX
//! layer: each MPI-IO call records an MPIIO-level event, and the POSIX
//! transfers issued inside (by aggregators during collective two-phase
//! I/O, or directly for independent I/O) record POSIX-level events —
//! so a collective run emits strictly more stream messages than an
//! independent one, as in Table IIa.

use crate::posix::DarshanPosix;
use crate::runtime::EventParams;
use crate::types::{record_id_of, ModuleId, OpKind};
use iosim_fs::FsResult;
use iosim_mpi::{CollectiveHints, MpiFile, RankCtx};
use std::sync::Arc;

/// Per-rank instrumented MPI-IO layer.
#[derive(Clone)]
pub struct DarshanMpiio {
    posix: DarshanPosix,
}

/// An instrumented MPI file handle.
pub struct MpiioHandle {
    file: MpiFile<DarshanPosix>,
    path: Arc<str>,
    record_id: u64,
    cnt: u64,
}

impl DarshanMpiio {
    /// Builds the MPI-IO layer over an instrumented POSIX layer.
    pub fn new(posix: DarshanPosix) -> Self {
        Self { posix }
    }

    fn fire(
        &self,
        ctx: &mut RankCtx,
        h: &MpiioHandle,
        op: OpKind,
        offset: Option<u64>,
        len: Option<u64>,
        start: iosim_time::TimePair,
    ) {
        let end = ctx.io.clock.time_pair();
        self.posix.runtime().io_event(
            &mut ctx.io.clock,
            EventParams {
                module: ModuleId::Mpiio,
                op,
                file: h.path.clone(),
                record_id: h.record_id,
                offset,
                len,
                start,
                end,
                cnt: h.cnt,
                hdf5: None,
            },
        );
    }

    /// Collective open (`MPI_File_open`).
    pub fn open_all(
        &self,
        ctx: &mut RankCtx,
        path: &str,
        create: bool,
        writable: bool,
        hints: CollectiveHints,
    ) -> FsResult<MpiioHandle> {
        let start = ctx.io.clock.time_pair();
        let file = MpiFile::open_all(&self.posix, ctx, path, create, writable, hints)?;
        let mut h = MpiioHandle {
            file,
            path: Arc::from(path),
            record_id: record_id_of(path),
            cnt: 1,
        };
        self.fire(ctx, &h, OpKind::Open, None, None, start);
        h.cnt = 1; // open counted; subsequent ops increment from here
        Ok(h)
    }

    /// Independent write (`MPI_File_write_at`).
    pub fn write_at(
        &self,
        ctx: &mut RankCtx,
        h: &mut MpiioHandle,
        offset: u64,
        len: u64,
    ) -> FsResult<()> {
        let start = ctx.io.clock.time_pair();
        h.file.write_at(&self.posix, ctx, offset, len)?;
        h.cnt += 1;
        self.fire(ctx, h, OpKind::Write, Some(offset), Some(len), start);
        Ok(())
    }

    /// Independent read (`MPI_File_read_at`).
    pub fn read_at(
        &self,
        ctx: &mut RankCtx,
        h: &mut MpiioHandle,
        offset: u64,
        len: u64,
    ) -> FsResult<()> {
        let start = ctx.io.clock.time_pair();
        h.file.read_at(&self.posix, ctx, offset, len)?;
        h.cnt += 1;
        self.fire(ctx, h, OpKind::Read, Some(offset), Some(len), start);
        Ok(())
    }

    /// Collective write (`MPI_File_write_at_all`).
    pub fn write_at_all(
        &self,
        ctx: &mut RankCtx,
        h: &mut MpiioHandle,
        offset: u64,
        len: u64,
    ) -> FsResult<()> {
        let start = ctx.io.clock.time_pair();
        h.file.write_at_all(&self.posix, ctx, offset, len)?;
        h.cnt += 1;
        self.fire(ctx, h, OpKind::Write, Some(offset), Some(len), start);
        Ok(())
    }

    /// Collective read (`MPI_File_read_at_all`).
    pub fn read_at_all(
        &self,
        ctx: &mut RankCtx,
        h: &mut MpiioHandle,
        offset: u64,
        len: u64,
    ) -> FsResult<()> {
        let start = ctx.io.clock.time_pair();
        h.file.read_at_all(&self.posix, ctx, offset, len)?;
        h.cnt += 1;
        self.fire(ctx, h, OpKind::Read, Some(offset), Some(len), start);
        Ok(())
    }

    /// Collective close (`MPI_File_close`).
    pub fn close(&self, ctx: &mut RankCtx, mut h: MpiioHandle) -> FsResult<()> {
        let start = ctx.io.clock.time_pair();
        h.cnt += 1;
        let cnt = h.cnt;
        let path = h.path.clone();
        let record_id = h.record_id;
        h.file.close(&self.posix, ctx)?;
        let end = ctx.io.clock.time_pair();
        self.posix.runtime().io_event(
            &mut ctx.io.clock,
            EventParams {
                module: ModuleId::Mpiio,
                op: OpKind::Close,
                file: path,
                record_id,
                offset: None,
                len: None,
                start,
                end,
                cnt,
                hdf5: None,
            },
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::CollectingSink;
    use crate::runtime::{JobMeta, RankRuntime};
    use iosim_fs::nfs::NfsModel;
    use iosim_fs::{SimFs, Weather};
    use iosim_mpi::{Job, JobParams};
    use parking_lot::Mutex;

    #[test]
    fn collective_write_emits_mpiio_and_posix_events() {
        let fs = SimFs::new(Box::<NfsModel>::default(), Weather::calm(), 1024 * 1024);
        let job = JobMeta::new(100, 1, "/apps/x", 4);
        let sinks: Mutex<Vec<Arc<CollectingSink>>> = Mutex::new(Vec::new());
        let block = 1024u64 * 1024;
        Job::run(
            JobParams {
                ranks: 4,
                ranks_per_node: 2,
                jitter: 0.0,
                ..Default::default()
            },
            |ctx| {
                let rt = RankRuntime::new(job.clone(), ctx.rank());
                let sink = Arc::new(CollectingSink::new());
                rt.set_sink(Some(sink.clone()));
                sinks.lock().push(sink);
                let mpiio = DarshanMpiio::new(DarshanPosix::new(fs.clone(), rt));
                let hints = CollectiveHints {
                    cb_nodes: 2,
                    cb_buffer_size: 1024 * 1024,
                    ..Default::default()
                };
                let mut h = mpiio.open_all(ctx, "/coll.dat", true, true, hints).unwrap();
                let off = u64::from(ctx.rank()) * block;
                mpiio.write_at_all(ctx, &mut h, off, block).unwrap();
                mpiio.close(ctx, h).unwrap();
            },
        );
        let sinks = sinks.into_inner();
        let all: Vec<_> = sinks.iter().flat_map(|s| s.take()).collect();
        let mpiio_writes = all
            .iter()
            .filter(|e| e.module == ModuleId::Mpiio && e.op == OpKind::Write)
            .count();
        let posix_writes = all
            .iter()
            .filter(|e| e.module == ModuleId::Posix && e.op == OpKind::Write)
            .count();
        assert_eq!(mpiio_writes, 4, "one MPIIO write per rank");
        // 4 MiB region / 1 MiB chunks = 4 POSIX writes on aggregators.
        assert_eq!(posix_writes, 4);
        // POSIX opens fired on every rank (shared-file open).
        let posix_opens = all
            .iter()
            .filter(|e| e.module == ModuleId::Posix && e.op == OpKind::Open)
            .count();
        assert_eq!(posix_opens, 4);
    }

    #[test]
    fn independent_write_emits_one_posix_per_mpiio() {
        let fs = SimFs::new(Box::<NfsModel>::default(), Weather::calm(), 1024 * 1024);
        let job = JobMeta::new(100, 1, "/apps/x", 2);
        let counts: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());
        Job::run(
            JobParams {
                ranks: 2,
                ranks_per_node: 2,
                jitter: 0.0,
                ..Default::default()
            },
            |ctx| {
                let rt = RankRuntime::new(job.clone(), ctx.rank());
                let sink = Arc::new(CollectingSink::new());
                rt.set_sink(Some(sink.clone()));
                let mpiio = DarshanMpiio::new(DarshanPosix::new(fs.clone(), rt));
                let mut h = mpiio
                    .open_all(ctx, "/ind.dat", true, true, CollectiveHints::default())
                    .unwrap();
                mpiio
                    .write_at(ctx, &mut h, u64::from(ctx.rank()) * 4096, 4096)
                    .unwrap();
                mpiio.close(ctx, h).unwrap();
                let evs = sink.take();
                let m = evs.iter().filter(|e| e.module == ModuleId::Mpiio).count() as u64;
                let p = evs.iter().filter(|e| e.module == ModuleId::Posix).count() as u64;
                counts.lock().push((m, p));
            },
        );
        for (m, p) in counts.into_inner() {
            assert_eq!(m, 3); // open + write + close
            assert_eq!(p, 3); // posix open + write + close underneath
        }
    }
}
