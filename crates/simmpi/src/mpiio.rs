//! MPI-IO over a pluggable POSIX layer.
//!
//! `MpiFile` implements the two MPI-IO modes the paper's MPI-IO-TEST
//! benchmark exercises (Table IIa):
//!
//! * **independent** (`write_at`/`read_at`) — every rank issues its own
//!   POSIX transfer at its own offset;
//! * **collective** (`write_at_all`/`read_at_all`) — two-phase I/O: the
//!   ranks exchange their requests, shuffle data to per-node aggregator
//!   ranks over the interconnect, and the aggregators issue large
//!   *aligned* transfers covering contiguous regions.
//!
//! The POSIX layer is a trait so Darshan's instrumented POSIX wrapper
//! can sit underneath, which is exactly how real Darshan sees both the
//! MPIIO-level record and the POSIX transfers the MPI-IO library issues
//! on aggregator ranks (and why collective runs publish *more* stream
//! messages than independent ones).

use crate::job::RankCtx;
use iosim_fs::{FsResult, IoCtx, OpTiming, SimFs};

/// The POSIX file layer MPI-IO is built on.
pub trait PosixLayer: Sync {
    /// Handle type for open files.
    type Handle;

    /// Opens (optionally creating) a file.
    fn open(
        &self,
        io: &mut IoCtx,
        path: &str,
        create: bool,
        writable: bool,
        shared: bool,
    ) -> FsResult<Self::Handle>;

    /// Positional write.
    fn write_at(
        &self,
        io: &mut IoCtx,
        h: &mut Self::Handle,
        offset: u64,
        len: u64,
    ) -> FsResult<OpTiming>;

    /// Positional read.
    fn read_at(
        &self,
        io: &mut IoCtx,
        h: &mut Self::Handle,
        offset: u64,
        len: u64,
    ) -> FsResult<OpTiming>;

    /// Closes the handle.
    fn close(&self, io: &mut IoCtx, h: &mut Self::Handle) -> FsResult<OpTiming>;

    /// Current size of the open file (used by data sieving to bound its
    /// read-modify-write reads).
    fn size(&self, h: &Self::Handle) -> u64;
}

/// The raw simulator file system is itself a POSIX layer.
impl PosixLayer for SimFs {
    type Handle = iosim_fs::FileHandle;

    fn open(
        &self,
        io: &mut IoCtx,
        path: &str,
        create: bool,
        writable: bool,
        shared: bool,
    ) -> FsResult<Self::Handle> {
        SimFs::open(self, io, path, create, writable, shared).map(|(h, _)| h)
    }

    fn write_at(
        &self,
        io: &mut IoCtx,
        h: &mut Self::Handle,
        offset: u64,
        len: u64,
    ) -> FsResult<OpTiming> {
        SimFs::write_at(self, io, h, offset, len)
    }

    fn read_at(
        &self,
        io: &mut IoCtx,
        h: &mut Self::Handle,
        offset: u64,
        len: u64,
    ) -> FsResult<OpTiming> {
        SimFs::read_at(self, io, h, offset, len)
    }

    fn close(&self, io: &mut IoCtx, h: &mut Self::Handle) -> FsResult<OpTiming> {
        SimFs::close(self, io, h)
    }

    fn size(&self, h: &Self::Handle) -> u64 {
        h.size()
    }
}

/// ROMIO-style collective buffering hints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectiveHints {
    /// Number of aggregator ranks (`cb_nodes`; typically one per node).
    pub cb_nodes: u32,
    /// Aggregator transfer chunk size (`cb_buffer_size`).
    pub cb_buffer_size: u64,
    /// Enable ROMIO data sieving on collective writes: each aggregator
    /// chunk is written as read-modify-write pieces of
    /// [`Self::sieve_size`]. ROMIO falls back to this on NFS, which is
    /// both why collective MPI-IO is *slower* on NFS than independent
    /// (every byte is read once and written once) and why it produces
    /// far more Darshan POSIX events (Table IIa's message counts).
    pub data_sieving: bool,
    /// Sieve buffer size (`ind_wr_buffer_size`).
    pub sieve_size: u64,
}

impl Default for CollectiveHints {
    fn default() -> Self {
        Self {
            cb_nodes: 1,
            cb_buffer_size: 16 * 1024 * 1024,
            data_sieving: false,
            sieve_size: 4 * 1024 * 1024,
        }
    }
}

/// Summary of one collective transfer as seen by the calling rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectiveOutcome {
    /// Bytes this rank contributed.
    pub my_bytes: u64,
    /// Total bytes across the communicator.
    pub total_bytes: u64,
    /// Whether this rank acted as an aggregator.
    pub was_aggregator: bool,
    /// Number of POSIX transfers this rank issued as an aggregator.
    pub posix_ops: u32,
}

/// An MPI file handle: per-rank POSIX handle plus collective hints.
pub struct MpiFile<P: PosixLayer> {
    handle: P::Handle,
    hints: CollectiveHints,
}

impl<P: PosixLayer> MpiFile<P> {
    /// Collective open (`MPI_File_open` analogue): all ranks open the
    /// shared file and synchronize.
    pub fn open_all(
        layer: &P,
        ctx: &mut RankCtx,
        path: &str,
        create: bool,
        writable: bool,
        hints: CollectiveHints,
    ) -> FsResult<Self> {
        let handle = layer.open(&mut ctx.io, path, create, writable, true)?;
        ctx.comm.barrier(&mut ctx.io.clock);
        Ok(Self { handle, hints })
    }

    /// Independent write at an explicit offset.
    pub fn write_at(
        &mut self,
        layer: &P,
        ctx: &mut RankCtx,
        offset: u64,
        len: u64,
    ) -> FsResult<OpTiming> {
        layer.write_at(&mut ctx.io, &mut self.handle, offset, len)
    }

    /// Independent read at an explicit offset.
    pub fn read_at(
        &mut self,
        layer: &P,
        ctx: &mut RankCtx,
        offset: u64,
        len: u64,
    ) -> FsResult<OpTiming> {
        layer.read_at(&mut ctx.io, &mut self.handle, offset, len)
    }

    /// Collective write (`MPI_File_write_at_all`): two-phase I/O.
    pub fn write_at_all(
        &mut self,
        layer: &P,
        ctx: &mut RankCtx,
        offset: u64,
        len: u64,
    ) -> FsResult<CollectiveOutcome> {
        self.two_phase(layer, ctx, offset, len, true)
    }

    /// Collective read (`MPI_File_read_at_all`): two-phase I/O.
    pub fn read_at_all(
        &mut self,
        layer: &P,
        ctx: &mut RankCtx,
        offset: u64,
        len: u64,
    ) -> FsResult<CollectiveOutcome> {
        self.two_phase(layer, ctx, offset, len, false)
    }

    /// Closes the file collectively.
    pub fn close(mut self, layer: &P, ctx: &mut RankCtx) -> FsResult<OpTiming> {
        let t = layer.close(&mut ctx.io, &mut self.handle)?;
        ctx.comm.barrier(&mut ctx.io.clock);
        Ok(t)
    }

    /// Writes one aggregator chunk via read-modify-write sieving:
    /// ROMIO's NFS path reads each sieve buffer's extent (where the
    /// file already has data), merges, and writes it back. Returns the
    /// number of POSIX operations issued.
    fn sieved_write(&mut self, layer: &P, io: &mut IoCtx, offset: u64, len: u64) -> FsResult<u32> {
        let sieve = self.hints.sieve_size.max(1);
        let mut ops = 0;
        let mut done = 0u64;
        while done < len {
            let this = sieve.min(len - done);
            let off = offset + done;
            let existing = layer.size(&self.handle);
            if off < existing {
                let readable = this.min(existing - off);
                layer.read_at(io, &mut self.handle, off, readable)?;
                ops += 1;
            }
            layer.write_at(io, &mut self.handle, off, this)?;
            ops += 1;
            done += this;
        }
        Ok(ops)
    }

    fn two_phase(
        &mut self,
        layer: &P,
        ctx: &mut RankCtx,
        offset: u64,
        len: u64,
        is_write: bool,
    ) -> FsResult<CollectiveOutcome> {
        let size = ctx.comm.size();
        // Phase 0: exchange request extents (offset, len) — synchronizes
        // clocks like any collective.
        let mut req = [0u8; 16];
        req[..8].copy_from_slice(&offset.to_le_bytes());
        req[8..].copy_from_slice(&len.to_le_bytes());
        let all = ctx.comm.allgather(&mut ctx.io.clock, req.to_vec());
        let extents: Vec<(u64, u64)> = all
            .iter()
            .map(|b| {
                (
                    u64::from_le_bytes(b[..8].try_into().unwrap()),
                    u64::from_le_bytes(b[8..].try_into().unwrap()),
                )
            })
            .collect();
        let region_start = extents.iter().map(|&(o, _)| o).min().unwrap_or(0);
        let total_bytes: u64 = extents.iter().map(|&(_, l)| l).sum();

        let cb_nodes = self.hints.cb_nodes.min(size).max(1);
        let stride = size / cb_nodes;
        let agg_index = if stride > 0 && ctx.rank() % stride == 0 {
            let idx = ctx.rank() / stride;
            (idx < cb_nodes).then_some(idx)
        } else {
            None
        };

        // Phase 1: shuffle. Every rank's buffer moves to/from its
        // aggregator; the busiest aggregator's receive volume bounds the
        // phase, so all clocks advance by that transfer time.
        let per_agg = total_bytes.div_ceil(u64::from(cb_nodes));
        let shuffle = ctx.comm.interconnect().collective_transfer(size, per_agg);
        ctx.io.clock.advance(shuffle);

        // Phase 2: aggregators issue chunked, aligned POSIX transfers
        // covering their contiguous slice of the region. Only the
        // aggregators contend for the file system during this phase, so
        // their effective client count is cb_nodes, not the job width.
        let mut posix_ops = 0u32;
        if let Some(idx) = agg_index {
            let my_start = region_start + per_agg * u64::from(idx);
            let my_len = per_agg.min(total_bytes.saturating_sub(per_agg * u64::from(idx)));
            let chunk = self.hints.cb_buffer_size.max(1);
            ctx.io.concurrency_override = Some(cb_nodes);
            let result = (|| -> FsResult<()> {
                let mut done = 0u64;
                while done < my_len {
                    let this = chunk.min(my_len - done);
                    let off = my_start + done;
                    if is_write {
                        if self.hints.data_sieving {
                            posix_ops += self.sieved_write(layer, &mut ctx.io, off, this)?;
                        } else {
                            layer.write_at(&mut ctx.io, &mut self.handle, off, this)?;
                            posix_ops += 1;
                        }
                    } else {
                        layer.read_at(&mut ctx.io, &mut self.handle, off, this)?;
                        posix_ops += 1;
                    }
                    done += this;
                }
                Ok(())
            })();
            ctx.io.concurrency_override = None;
            result?;
        }

        // Phase 3: completion barrier (result scatter for reads rides
        // on the same synchronization).
        ctx.comm.barrier(&mut ctx.io.clock);

        Ok(CollectiveOutcome {
            my_bytes: len,
            total_bytes,
            was_aggregator: agg_index.is_some(),
            posix_ops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Job, JobParams};
    use iosim_fs::nfs::NfsModel;
    use iosim_fs::{SimFs, Weather};

    fn fs() -> SimFs {
        SimFs::new(Box::<NfsModel>::default(), Weather::calm(), 1024 * 1024)
    }

    fn params(ranks: u32, rpn: u32) -> JobParams {
        JobParams {
            ranks,
            ranks_per_node: rpn,
            jitter: 0.0,
            ..Default::default()
        }
    }

    #[test]
    fn independent_writes_land_at_rank_offsets() {
        let fs = fs();
        let block = 1024u64 * 1024;
        let report = Job::run(params(4, 2), |ctx| {
            let mut f = MpiFile::open_all(
                &fs,
                ctx,
                "/shared.dat",
                true,
                true,
                CollectiveHints::default(),
            )
            .unwrap();
            let off = u64::from(ctx.rank()) * block;
            f.write_at(&fs, ctx, off, block).unwrap();
            f.close(&fs, ctx).unwrap();
        });
        drop(report);
        assert_eq!(fs.size_of("/shared.dat").unwrap(), 4 * block);
        let s = fs.stats();
        assert_eq!(s.writes, 4);
        assert_eq!(s.opens, 4); // every rank opens the shared file
    }

    #[test]
    fn collective_write_covers_region_with_aggregators() {
        let fs = fs();
        let block = 4u64 * 1024 * 1024;
        let hints = CollectiveHints {
            cb_nodes: 2,
            cb_buffer_size: 2 * 1024 * 1024,
            ..Default::default()
        };
        let report = Job::run(params(8, 4), |ctx| {
            let mut f = MpiFile::open_all(&fs, ctx, "/coll.dat", true, true, hints).unwrap();
            let off = u64::from(ctx.rank()) * block;
            let out = f.write_at_all(&fs, ctx, off, block).unwrap();
            f.close(&fs, ctx).unwrap();
            out
        });
        let aggs: Vec<_> = report.results.iter().filter(|o| o.was_aggregator).collect();
        assert_eq!(aggs.len(), 2, "two aggregators expected");
        assert_eq!(fs.size_of("/coll.dat").unwrap(), 8 * block);
        // Each aggregator wrote half the region in 2 MiB chunks.
        let total_posix: u32 = report.results.iter().map(|o| o.posix_ops).sum();
        assert_eq!(total_posix, (8 * block / (2 * 1024 * 1024)) as u32);
        assert!(report.results.iter().all(|o| o.total_bytes == 8 * block));
    }

    #[test]
    fn collective_read_back() {
        let fs = fs();
        let block = 1024u64 * 1024;
        Job::run(params(4, 2), |ctx| {
            let hints = CollectiveHints {
                cb_nodes: 2,
                cb_buffer_size: 1024 * 1024,
                ..Default::default()
            };
            let mut f = MpiFile::open_all(&fs, ctx, "/rw.dat", true, true, hints).unwrap();
            let off = u64::from(ctx.rank()) * block;
            f.write_at_all(&fs, ctx, off, block).unwrap();
            let out = f.read_at_all(&fs, ctx, off, block).unwrap();
            assert_eq!(out.total_bytes, 4 * block);
            f.close(&fs, ctx).unwrap();
        });
        let s = fs.stats();
        assert!(s.reads > 0);
        assert_eq!(s.bytes_read, 4 * block);
    }

    #[test]
    fn collective_clocks_converge() {
        let fs = fs();
        let block = 1024u64 * 1024;
        let report = Job::run(params(4, 4), |ctx| {
            let mut f = MpiFile::open_all(
                &fs,
                ctx,
                "/sync.dat",
                true,
                true,
                CollectiveHints::default(),
            )
            .unwrap();
            let off = u64::from(ctx.rank()) * block;
            f.write_at_all(&fs, ctx, off, block).unwrap();
            f.close(&fs, ctx).unwrap();
        });
        let e0 = report.rank_elapsed[0].as_secs_f64();
        for e in &report.rank_elapsed {
            assert!((e.as_secs_f64() - e0).abs() < 1e-9, "collective end skew");
        }
    }

    #[test]
    fn single_aggregator_handles_everything() {
        let fs = fs();
        let report = Job::run(params(3, 3), |ctx| {
            let hints = CollectiveHints {
                cb_nodes: 1,
                cb_buffer_size: 512 * 1024,
                ..Default::default()
            };
            let mut f = MpiFile::open_all(&fs, ctx, "/one.dat", true, true, hints).unwrap();
            let out = f
                .write_at_all(&fs, ctx, u64::from(ctx.rank()) * 512 * 1024, 512 * 1024)
                .unwrap();
            f.close(&fs, ctx).unwrap();
            out
        });
        assert_eq!(
            report.results.iter().filter(|o| o.was_aggregator).count(),
            1
        );
        assert_eq!(report.results[0].posix_ops, 3); // rank 0 is the aggregator
    }
}
