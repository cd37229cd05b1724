//! Per-rank assembly of the Darshan instrumentation stack.

use darshan_sim::hdf5::DarshanHdf5;
use darshan_sim::hooks::EventSink;
use darshan_sim::mpiio::DarshanMpiio;
use darshan_sim::posix::DarshanPosix;
use darshan_sim::runtime::{JobMeta, RankRuntime, RankSnapshot};
use darshan_sim::stdio::DarshanStdio;
use iosim_fs::SimFs;
use std::sync::Arc;

/// All instrumentation modules for one rank, sharing one
/// [`RankRuntime`]. This is what "LD_PRELOADing darshan" gives a real
/// process: every I/O layer wrapped, one runtime, one optional
/// connector hook.
pub struct DarshanStack {
    /// The shared per-rank runtime.
    pub rt: RankRuntime,
    /// Instrumented POSIX layer.
    pub posix: DarshanPosix,
    /// Instrumented MPI-IO layer (over the POSIX layer).
    pub mpiio: DarshanMpiio,
    /// Instrumented stdio layer.
    pub stdio: DarshanStdio,
    /// Instrumented HDF5 layer (over the POSIX layer).
    pub hdf5: DarshanHdf5,
}

impl DarshanStack {
    /// Builds the stack for one rank. `sink` is the connector (or
    /// `None` for a Darshan-only baseline run).
    pub fn new(fs: SimFs, job: Arc<JobMeta>, rank: u32, sink: Option<Arc<dyn EventSink>>) -> Self {
        let rt = RankRuntime::new(job, rank);
        rt.set_sink(sink);
        let posix = DarshanPosix::new(fs.clone(), rt.clone());
        let mpiio = DarshanMpiio::new(posix.clone());
        let stdio = DarshanStdio::new(fs, rt.clone());
        let hdf5 = DarshanHdf5::new(posix.clone());
        Self {
            rt,
            posix,
            mpiio,
            stdio,
            hdf5,
        }
    }

    /// Finalizes the rank, returning its record snapshot for the log.
    pub(crate) fn finalize(&self) -> RankSnapshot {
        self.rt.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{FsChoice, Platform};
    use darshan_sim::hooks::CollectingSink;
    use darshan_sim::ModuleId;
    use iosim_fs::IoCtx;
    use iosim_mpi::PosixLayer;
    use iosim_time::Epoch;

    #[test]
    fn all_modules_share_one_runtime_and_sink() {
        let fs = Platform::calm_filesystem(FsChoice::Lustre);
        let sink = Arc::new(CollectingSink::new());
        let stack = DarshanStack::new(fs, JobMeta::new(1, 1, "/apps/x", 1), 0, Some(sink.clone()));
        let mut io = IoCtx::new(1, 0, 0, Epoch::from_secs(0)).with_jitter(0.0);
        // POSIX op
        let mut ph = stack
            .posix
            .open_instrumented(&mut io, "/p.dat", true, true, false)
            .unwrap();
        stack.posix.write_at(&mut io, &mut ph, 0, 64).unwrap();
        // STDIO op
        let mut sh = stack.stdio.fopen(&mut io, "/s.txt", true, true).unwrap();
        stack.stdio.fwrite(&mut io, &mut sh, 32).unwrap();
        let events = sink.take();
        assert!(events.iter().any(|e| e.module == ModuleId::Posix));
        assert!(events.iter().any(|e| e.module == ModuleId::Stdio));
        // One runtime saw everything.
        assert_eq!(stack.rt.events_fired(), events.len() as u64);
        let snap = stack.finalize();
        assert_eq!(snap.records.len(), 2);
    }

    #[test]
    fn baseline_stack_fires_nothing() {
        let fs = Platform::calm_filesystem(FsChoice::Nfs);
        let stack = DarshanStack::new(fs, JobMeta::new(1, 1, "/apps/x", 1), 0, None);
        let mut io = IoCtx::new(1, 0, 0, Epoch::from_secs(0)).with_jitter(0.0);
        let mut h = stack.stdio.fopen(&mut io, "/f", true, true).unwrap();
        stack.stdio.fwrite(&mut io, &mut h, 8).unwrap();
        assert_eq!(stack.rt.events_fired(), 0);
        // Counters still recorded (stock Darshan behaviour).
        assert_eq!(stack.finalize().records.len(), 1);
    }
}
