//! A DSOS (Distributed Scalable Object Store) work-alike.
//!
//! DSOS (built on SOS) is the paper's storage tier: schemas of typed
//! attributes, containers of objects spread across multiple `dsosd`
//! daemons, *joint indices* over attribute combinations (the paper's
//! example: `job_rank_time` orders by job, then rank, then timestamp),
//! and parallel queries that fan out to every daemon and merge the
//! per-daemon results in index order (Section II).
//!
//! * [`value`] — typed attribute values, owned and borrowed, with a
//!   total order;
//! * [`schema`] — schema definition and object construction/validation;
//! * [`row`] — the stored row layout: one word per attribute, strings
//!   interned per container, read in place through a [`RowRef`], and
//!   [`Cells`], the one cell reader over a stored row or a slice of cells;
//! * [`store`] — one `dsosd`: partitions, objects, joint indices;
//! * [`replication`] — shard maps, crash schedules, write quorums, and
//!   exact completeness accounting for degraded queries;
//! * [`cluster`] — the client API: hash-sharded replicated ingest,
//!   one failure-aware in-place scan (k-way merge of the live shards
//!   with replica dedup) behind every query, anti-entropy recovery,
//!   CSV import/export.

#![forbid(unsafe_code)]

mod cluster;
mod replication;
mod row;
mod schema;
mod store;
mod value;

pub use cluster::DsosCluster;
pub use replication::{
    BatchAck, Completeness, CsvImportReport, IngestAck, ReplicationConfig, ShardHealth, ShardMap,
    StoreError,
};
pub use row::{Cells, RowRef};
pub use schema::{AttrDef, Schema};
pub use store::{Dsosd, Scan};
pub use value::{AsValueRef, Type, Value, ValueRef};
