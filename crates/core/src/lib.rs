//! # The Darshan-LDMS Connector
//!
//! This crate is the paper's primary contribution: run-time streaming
//! of absolutely-timestamped Darshan I/O events through LDMS Streams
//! into DSOS, enabling run-time diagnosis of HPC application I/O
//! performance instead of post-run log analysis.
//!
//! The connector sits on the hook `darshan-sim` exposes
//! ([`darshan_sim::EventSink`]): whenever Darshan detects an I/O event
//! (read/write/open/close per rank), the connector
//!
//! 1. optionally subsamples (the paper's future-work "collect every
//!    n-th I/O event" knob, implemented here — [`ConnectorConfig::sample_every`]);
//! 2. formats the Table I metric set into a JSON message
//!    ([`message::build_message`]) with the `sprintf`-faithful
//!    [`iosim_util::JsonWriter`], choosing `type: "MET"` for open events
//!    (which carry the executable and file paths) and `type: "MOD"` for
//!    everything else "to reduce the message size and latency";
//! 3. charges the formatting cost to the application's virtual clock
//!    through one calibrated cost model (`cost::COST`) — the integer-to-string
//!    conversion the paper measured at 277–1277 % overhead on HMMER and
//!    0.37 % with formatting disabled ([`ConnectorConfig::format_mode`]);
//! 4. publishes the message to the LDMS Streams tag
//!    [`DEFAULT_STREAM_TAG`] from the rank's compute-node daemon,
//!    whence it is aggregated and stored.
//!
//! [`schema`] defines the DSOS `darshan_data` schema (the 24 columns of
//! Figure 3) with the joint indices the paper describes
//! (`job_rank_time`, …), plus the [`schema::DsosStreamStore`] store
//! plugin that ingests stream messages into a DSOS cluster. [`pipeline`]
//! assembles the whole Figure 4 topology in one call.

#![forbid(unsafe_code)]

pub mod connector;
mod cost;
pub mod message;
mod pipeline;
pub mod schema;
mod workload;

pub use connector::{ConnectorConfig, ConnectorStats, DarshanConnector, DeliveryMode, FormatMode};
pub use dsos_sim::{Completeness, ReplicationConfig, ShardHealth, StoreError};
pub use iosim_telemetry::{CrashDump, LatencySummary, Telemetry, TelemetryConfig};
pub use ldms_sim::{
    BatchConfig, DeliveryLedger, FaultScript, FaultSpec, LossCause, LossRecord, MsgClass,
    OverflowPolicy, OverloadConfig, OverloadState, OverloadStats, QueueConfig, RecoveryReport,
    WalConfig,
};
pub use pipeline::{Pipeline, PipelineOpts};
pub use schema::{
    column_id, darshan_schema, summary_column_id, summary_schema, DsosStreamStore, GapReport,
    IngestObserver, COLUMNS, CONTAINER, SUMMARY_COLUMNS, SUMMARY_CONTAINER,
};
pub use workload::WorkloadSpec;

/// The stream tag the connector publishes under ("the Darshan-LDMS
/// Connector currently uses a single unique LDMS Stream tag",
/// Section IV.C).
pub const DEFAULT_STREAM_TAG: &str = "darshanConnector";
