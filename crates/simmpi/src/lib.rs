//! Simulated MPI: ranks as threads, collectives, and MPI-IO.
//!
//! The paper's applications are MPI codes (HACC-IO, the Darshan
//! MPI-IO-TEST benchmark, HMMER's `hmmbuild`). This crate provides the
//! MPI substrate they run on:
//!
//! * [`job::Job`] launches N ranks as OS threads with a placement map
//!   (ranks per node, Cray-style `nidXXXXX` node names);
//! * [`comm::Communicator`] implements barrier / broadcast / gather /
//!   allgather / allreduce. Every collective also synchronizes the
//!   participating ranks' *virtual clocks* to the latest participant,
//!   which is how collective wait time emerges in the simulation;
//! * [`mpiio::MpiFile`] implements MPI-IO on top of any
//!   [`mpiio::PosixLayer`] — independent `write_at`, and collective
//!   `write_at_all`/`read_at_all` using two-phase I/O (shuffle to
//!   per-node aggregators over the modelled interconnect, then large
//!   aligned transfers). Layering over a trait lets Darshan's
//!   instrumented POSIX wrapper slot underneath, exactly as Darshan
//!   wraps the POSIX calls issued by the MPI-IO library.

#![forbid(unsafe_code)]

mod comm;
mod interconnect;
mod job;
mod mpiio;

pub use comm::Communicator;
pub use interconnect::Interconnect;
pub use job::{Job, JobParams, JobReport, RankCtx};
pub use mpiio::{CollectiveHints, MpiFile, PosixLayer};
