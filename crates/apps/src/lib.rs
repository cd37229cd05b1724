//! Workloads and the experiment driver.
//!
//! This crate reproduces the paper's Section V: the four applications
//! (HACC-IO, HMMER's `hmmbuild`, Darshan's MPI-IO-TEST benchmark, and
//! sw4), the Voltrino platform configuration (22/16/1-node jobs, NFS
//! and Lustre file systems, Aries interconnect), and the measurement
//! campaigns behind Table II and Figures 5–9.
//!
//! * [`platform`] — the simulated Voltrino: tuned NFS/Lustre parameter
//!   sets, campaign weather, node naming;
//! * [`stack`] — per-rank assembly of the Darshan modules over a file
//!   system, with or without the connector attached;
//! * [`workloads`] — the four applications as [`workloads::Workload`]
//!   implementations emitting the paper's I/O shapes;
//! * [`experiment`] — runs one job through the full pipeline and
//!   reports runtime, message counts, and stored events;
//! * [`table2`] — the Table II campaigns (5 repetitions × {Darshan,
//!   Darshan-LDMS Connector} per configuration);
//! * [`figdata`] — runs the figure experiments and extracts analysis
//!   dataframes from DSOS;
//! * [`detect`] — taps the store's ingest stream off-path, streams it
//!   through the online anomaly detector in-run, and re-runs the
//!   sorted-replay oracle at settle.

#![forbid(unsafe_code)]

pub mod detect;
pub mod experiment;
pub mod figdata;
pub mod platform;
pub mod stack;
pub mod table2;
pub mod workloads;

pub use experiment::{run_job, Instrumentation, RunResult, RunSpec};
pub use platform::{FsChoice, Platform};
pub use workloads::Workload;
