//! The four applications of Section V.A.

pub(crate) mod hacc_io;
pub(crate) mod hmmer;
pub(crate) mod mpi_io_test;
pub(crate) mod sw4;

pub use hacc_io::HaccIo;
pub use hmmer::Hmmer;
pub use mpi_io_test::MpiIoTest;
pub use sw4::Sw4;

use crate::stack::DarshanStack;
use iosim_fs::FsResult;
use iosim_mpi::RankCtx;

/// An application workload: runs one rank's I/O (and modelled compute)
/// through the instrumented stack.
pub trait Workload: Sync {
    /// Application name (table labels).
    fn name(&self) -> &'static str;

    /// Absolute path of the executable (published as `exe`).
    fn exe(&self) -> &'static str;

    /// Total MPI ranks.
    fn ranks(&self) -> u32;

    /// Ranks per compute node.
    fn ranks_per_node(&self) -> u32;

    /// Number of nodes the job occupies.
    fn nodes(&self) -> u32 {
        self.ranks().div_ceil(self.ranks_per_node().max(1))
    }

    /// How many ranks actively perform file I/O (bandwidth sharing).
    /// Defaults to all ranks; HMMER's master-worker layout overrides
    /// this to 1.
    fn io_clients(&self) -> u32 {
        self.ranks()
    }

    /// Runs one rank.
    fn run_rank(&self, ctx: &mut RankCtx, stack: &DarshanStack) -> FsResult<()>;
}
