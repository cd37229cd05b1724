//! HPC Web Services work-alike: analysis modules and visualization.
//!
//! The paper's front end is Grafana backed by Python analysis modules
//! that transform DSOS query results (Section IV.E). This crate is that
//! back end in Rust:
//!
//! * [`frame`] — a small dataframe ("queried data is converted into a
//!   pandas dataframe to allow for easier application of complex
//!   calculations, transformations and aggregations"): column-named
//!   rows of [`dsos_sim::Value`] that the figure analyses read in
//!   place, with row filtering and CSV export;
//! * [`figures`] — one analysis module per paper figure: operation
//!   occurrence statistics (Fig 5), per-node operation counts (Fig 6),
//!   per-rank read/write durations (Fig 7), the temporal distribution
//!   of operations within a job (Fig 8), and the Grafana-style
//!   byte/operation timeline (Fig 9);
//! * [`dashboard`] — deterministic text rendering of those series (the
//!   Grafana panel analogue) plus CSV export for external plotting;
//! * [`online`] — the run-time half of "run time diagnosis": a
//!   streaming anomaly-detection engine (rolling robust statistics,
//!   phase segmentation, straggler and duration-outlier alerts) fed
//!   off-path from the live ingest stream.

#![forbid(unsafe_code)]

pub mod dashboard;
pub mod figures;
mod frame;
pub mod online;

pub use frame::DataFrame;
pub use online::{
    AnomalyKind, DetectionConfig, DetectionSeverity, DiagnosticEvent, OnlineDetector, OnlineEvent,
};
