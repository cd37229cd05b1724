//! Performance-modelled file-system simulators.
//!
//! The paper evaluates on a Cray XC40 with two file systems — NFS and
//! Lustre — whose differing behaviour drives every result: Lustre is far
//! faster for the MPI-IO benchmark, collective I/O helps on Lustre but
//! hurts on NFS, and background "file-system weather" between the two
//! measurement campaigns produces the paper's negative overheads
//! (Section VI.A). Since no real Cray or Lustre is available (repro band
//! 2), this crate substitutes analytic performance models over the
//! virtual clock from `iosim-time`:
//!
//! * [`nfs::NfsModel`] — a single-server network file system: every
//!   operation pays an RPC round trip, the server's bandwidth is shared
//!   among active clients, and very large writes overflow the server's
//!   write-behind cache (which is why two-phase collective I/O *hurts*
//!   on NFS).
//! * [`lustre::LustreModel`] — a striped object store: metadata goes to
//!   an MDS, data is striped over OSTs, aggregate bandwidth scales with
//!   stripe count, and unaligned shared-file writes pay extent-lock
//!   contention (which is why collective, stripe-aligned I/O *helps*).
//! * [`weather::Weather`] — seeded background-load model: campaign-level
//!   load factor, a time-of-day sinusoid, and explicit congestion
//!   windows (used to inject the paper's anomalous `job_id 2`).
//!
//! Durations are deterministic given (parameters, seed, rank, op
//! sequence): contention is modelled analytically from the registered
//! client count rather than from thread interleaving, so two runs of the
//! same experiment produce byte-identical tables.

#![forbid(unsafe_code)]

mod ctx;
mod error;
mod fs;
pub mod lustre;
pub mod model;
pub mod nfs;
pub mod stats;
mod vfs;
mod weather;

pub use ctx::IoCtx;
pub use error::{FsError, FsResult};
pub use fs::{FileHandle, OpTiming, SimFs};
pub use model::{FsKind, MetaKind, OpCtx, PerfModel, XferKind};
pub use weather::{CongestionWindow, Weather, WeatherParams};
