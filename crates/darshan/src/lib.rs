//! A darshan-runtime work-alike over the simulation substrate.
//!
//! Real Darshan transparently wraps an application's I/O calls (POSIX,
//! MPI-IO, STDIO, HDF5, …), accumulates per-file counter records, traces
//! individual operations with its DXT module, and writes a compressed
//! log at `MPI_Finalize`. The paper modifies `darshan-runtime` in two
//! ways, both reproduced here:
//!
//! 1. **absolute timestamps** — a time struct pointer is threaded
//!    through every module so each wrapped call records the epoch time
//!    alongside Darshan's native relative seconds ([`iosim_time::TimePair`]);
//! 2. **a per-event hook** — whenever Darshan detects an I/O event, the
//!    Darshan-LDMS Connector formats and publishes it. That hook is the
//!    [`hooks::EventSink`] trait; the connector crate implements it.
//!
//! Layout:
//!
//! * [`runtime`] — per-rank runtime state and job metadata (the
//!   `darshan_core` analogue);
//! * [`counters`] — per-record counter sets (a representative subset of
//!   Darshan's counters: op counts, byte counts, max offsets, r/w
//!   switches, cumulative times, access-size histogram);
//! * [`posix`] / [`mpiio`] / [`stdio`] / [`hdf5`] — instrumentation
//!   modules. The POSIX module implements [`iosim_mpi::PosixLayer`] so
//!   it can sit underneath MPI-IO exactly as in the real stack;
//! * [`dxt`] — DXT-style per-operation segment tracing;
//! * [`log`] — binary log writer and the `darshan-util`-style parser.

#![forbid(unsafe_code)]

mod counters;
mod dxt;
pub mod hdf5;
pub mod hooks;
pub mod log;
pub mod mpiio;
pub mod posix;
pub mod runtime;
pub mod stdio;
pub mod types;

pub use hooks::{EventSink, IoEvent};
pub use runtime::{JobMeta, RankRuntime};
pub use types::{ModuleId, OpKind};
