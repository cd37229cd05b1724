//! HACC-IO: the I/O proxy of the HACC cosmology code (Section V.A).
//!
//! "It takes a number of particles per rank as input, writes out a
//! simulated checkpoint information into a file, and then read[s] it
//! for validation." Each particle carries 38 bytes (xx, yy, zz, vx,
//! vy, vz, phi as f32; pid as i64; mask as u16 — HACC's record
//! layout). The checkpoint is written through POSIX to a single shared
//! file at MiB-aligned per-rank regions; validation *re-opens* the
//! file, so the read-back pays the server (close-to-open consistency)
//! rather than the page cache — which is why HACC's runtimes scale
//! with both phases.

use crate::stack::DarshanStack;
use crate::workloads::Workload;
use iosim_fs::FsResult;
use iosim_mpi::{PosixLayer, RankCtx};

/// Bytes per particle in a HACC checkpoint record.
pub(crate) const PARTICLE_BYTES: u64 = 38;

/// HACC-IO configuration.
#[derive(Debug, Clone)]
pub struct HaccIo {
    /// Nodes in the job (paper: 16).
    pub nodes: u32,
    /// Ranks per node (paper: 16).
    pub ranks_per_node: u32,
    /// Particles per rank (paper: 5 M and 10 M).
    pub particles_per_rank: u64,
    /// Checkpoint file path.
    pub path: String,
}

impl HaccIo {
    /// The paper's configuration with the given particle count.
    pub(crate) fn paper_config(particles_per_rank: u64) -> Self {
        Self {
            nodes: 16,
            ranks_per_node: 16,
            particles_per_rank,
            path: "/scratch/hacc-io.checkpoint".to_string(),
        }
    }

    /// A scaled-down configuration for tests.
    pub fn tiny() -> Self {
        Self {
            nodes: 2,
            ranks_per_node: 2,
            particles_per_rank: 10_000,
            path: "/scratch/hacc-io.tiny".to_string(),
        }
    }

    /// Bytes one rank checkpoints.
    pub(crate) fn bytes_per_rank(&self) -> u64 {
        self.particles_per_rank * PARTICLE_BYTES
    }

    /// MiB-aligned region size per rank.
    fn region(&self) -> u64 {
        let align = crate::platform::Platform::ALIGNMENT;
        self.bytes_per_rank().div_ceil(align) * align
    }
}

impl Workload for HaccIo {
    fn name(&self) -> &'static str {
        "HACC-IO"
    }

    fn exe(&self) -> &'static str {
        "/apps/hacc/hacc-io"
    }

    fn ranks(&self) -> u32 {
        self.nodes * self.ranks_per_node
    }

    fn ranks_per_node(&self) -> u32 {
        self.ranks_per_node
    }

    fn run_rank(&self, ctx: &mut RankCtx, stack: &DarshanStack) -> FsResult<()> {
        let off = u64::from(ctx.rank()) * self.region();
        let bytes = self.bytes_per_rank();
        // Checkpoint phase: particle data + an 8-byte block checksum.
        let mut h = stack
            .posix
            .open_instrumented(&mut ctx.io, &self.path, true, true, true)?;
        stack.posix.write_at(&mut ctx.io, &mut h, off, bytes)?;
        stack.posix.write_at(&mut ctx.io, &mut h, off + bytes, 8)?;
        stack.posix.close(&mut ctx.io, &mut h)?;
        // Validation phase: re-open and poll until every rank's block is
        // visible (ranks finish their writes at different times, so the
        // number of poll reads varies per rank and per job — one of the
        // reasons "the same application can perform different amounts of
        // I/O operations during execution", the paper's Figure 5). The
        // instant everyone's data is visible is computed from the
        // exchanged virtual clocks, keeping the poll count deterministic.
        let all_done = ctx
            .comm
            .exchange_clocks(&ctx.io.clock)
            .into_iter()
            .max()
            .expect("non-empty communicator");
        let mut h = stack
            .posix
            .open_instrumented(&mut ctx.io, &self.path, false, false, true)?;
        while ctx.io.clock.now() < all_done {
            // Re-check our own checksum while waiting, then back off.
            stack.posix.read_at(&mut ctx.io, &mut h, off + bytes, 8)?;
            ctx.io.clock.advance(iosim_time::SimDuration::from_secs(15));
        }
        stack.posix.read_at(&mut ctx.io, &mut h, off, bytes)?;
        stack.posix.read_at(&mut ctx.io, &mut h, off + bytes, 8)?;
        stack.posix.close(&mut ctx.io, &mut h)?;
        ctx.comm.barrier(&mut ctx.io.clock);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_job, Instrumentation, RunSpec};
    use crate::platform::FsChoice;

    #[test]
    fn event_count_is_eight_per_rank() {
        let app = HaccIo::tiny();
        let spec = RunSpec::calm(FsChoice::Lustre, Instrumentation::connector_default());
        let r = run_job(&app, &spec);
        // open+write+write+close, open+read+read+close = 8 POSIX events.
        assert_eq!(r.messages, u64::from(app.ranks()) * 8);
    }

    #[test]
    fn more_particles_take_longer() {
        let small = run_job(
            &HaccIo {
                particles_per_rank: 10_000,
                ..HaccIo::tiny()
            },
            &RunSpec::calm(FsChoice::Nfs, Instrumentation::DarshanOnly),
        );
        let big = run_job(
            &HaccIo {
                particles_per_rank: 100_000,
                ..HaccIo::tiny()
            },
            &RunSpec::calm(FsChoice::Nfs, Instrumentation::DarshanOnly),
        );
        assert!(big.runtime_s > small.runtime_s);
    }

    #[test]
    fn validation_reads_hit_the_server_not_the_cache() {
        // The re-open forces server reads: read time should be a
        // significant fraction of write time, not near-zero.
        let r = run_job(
            &HaccIo::tiny(),
            &RunSpec::calm(FsChoice::Nfs, Instrumentation::DarshanOnly),
        );
        assert!(r.fs_stats.bytes_read == r.fs_stats.bytes_written);
    }
}
