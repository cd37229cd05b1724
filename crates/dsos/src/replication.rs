//! Replication: shard maps, crash schedules, quorum accounting.
//!
//! The paper's DSOS tier spreads rows across `dsosd` daemons but has no
//! failure story: a lost daemon silently loses every row it held. This
//! module gives the cluster the same conservation-law discipline the
//! transport tier already has (PR 1/3/6): deterministic hash-sharding
//! by `(job, rank)` with a replication factor R and replicas on
//! distinct daemons ([`ShardMap`]), a configurable write quorum
//! ([`ReplicationConfig`]), per-daemon crash/restart schedules in
//! virtual time ([`DaemonSchedule`]), and exact [`Completeness`]
//! accounting so a degraded query can *prove* what it is missing.
//!
//! Soundness sketch (why R≥2 with ≤R−1 concurrent crashes loses no
//! acknowledged row): a row written at `t` is held by every replica up
//! at `t` — at least one, since at most R−1 of its R replicas are down
//! at any instant. A replica restarting at `r` rebuilds from any live
//! holder at `r`; just before `r` the restarting daemon itself is down,
//! so at most R−2 *other* replicas are down, hence at least one other
//! replica is live at `r` — and by induction over restart instants that
//! replica is a holder (either up continuously since the write, or
//! successfully rebuilt at an earlier restart). So every acknowledged
//! row has a live holder at every instant, and the anti-entropy pass
//! never finds an empty source set.

use crate::schema::SchemaError;
use crate::value::Value;
use iosim_time::Epoch;
use iosim_util::hash::{fnv1a64_continue, FNV_OFFSET};
use std::error::Error;
use std::fmt;

/// Sentinel row id for objects inserted directly into a
/// [`crate::store::ContainerShard`] without going through the cluster
/// (they are always returned, never deduplicated).
pub(crate) const NO_RID: u64 = u64::MAX;

/// Virtual shards per daemon: more shards than daemons keeps the
/// completeness report's shard-mass accounting finer-grained than the
/// daemon count without changing placement determinism.
pub(crate) const VIRTUAL_SHARDS_PER_DAEMON: usize = 4;

/// Replication policy for a cluster: how many copies of each row, and
/// how many must land before the write counts as *acknowledged*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationConfig {
    /// Copies per row (R). 1 = no replication (the seed behaviour).
    pub replicas: usize,
    /// Replicas that must accept a write before it is acknowledged
    /// (W). Writes that land on fewer replicas are still stored
    /// best-effort but are not counted in the acknowledged mass.
    pub write_quorum: usize,
}

impl ReplicationConfig {
    /// No replication: one copy, acknowledged when it lands.
    pub const fn none() -> Self {
        Self {
            replicas: 1,
            write_quorum: 1,
        }
    }

    /// R replicas with a majority write quorum (R/2 + 1).
    pub fn new(replicas: usize) -> Self {
        Self {
            replicas,
            write_quorum: replicas / 2 + 1,
        }
    }

    /// Overrides the write quorum.
    pub fn with_quorum(mut self, write_quorum: usize) -> Self {
        self.write_quorum = write_quorum;
        self
    }

    /// Checks `1 <= W <= R <= daemons`.
    pub(crate) fn validate(&self, daemons: usize) -> Result<(), StoreError> {
        if self.replicas == 0
            || self.write_quorum == 0
            || self.write_quorum > self.replicas
            || self.replicas > daemons
        {
            return Err(StoreError::BadReplication {
                replicas: self.replicas,
                write_quorum: self.write_quorum,
                daemons,
            });
        }
        Ok(())
    }
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// Typed store-layer error: a mis-configured container name (or
/// replication policy) must not abort a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The named container was never created on the cluster.
    NoSuchContainer(String),
    /// The object failed schema validation.
    Schema(SchemaError),
    /// Replication policy is inconsistent with the cluster size.
    BadReplication {
        replicas: usize,
        write_quorum: usize,
        daemons: usize,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NoSuchContainer(name) => write!(f, "container {name} not created"),
            StoreError::Schema(e) => write!(f, "schema rejected object: {e}"),
            StoreError::BadReplication {
                replicas,
                write_quorum,
                daemons,
            } => write!(
                f,
                "bad replication policy: replicas={replicas} write_quorum={write_quorum} \
                 on {daemons} daemons (need 1 <= quorum <= replicas <= daemons)"
            ),
        }
    }
}

impl Error for StoreError {}

impl From<SchemaError> for StoreError {
    fn from(e: SchemaError) -> Self {
        StoreError::Schema(e)
    }
}

/// Deterministic shard → replica-set placement.
///
/// `shards = daemons × VIRTUAL_SHARDS_PER_DAEMON` virtual shards; a
/// row's shard is `hash(job, rank) mod shards`; shard `s`'s R replicas
/// are the daemons `(s + i) mod n` for `i < R` — R distinct daemons,
/// the primary at `s mod n`.
#[derive(Debug, Clone)]
pub struct ShardMap {
    replica_sets: Vec<Vec<usize>>,
}

impl ShardMap {
    /// Builds the placement for `daemons` daemons and `replicas` copies.
    pub(crate) fn new(daemons: usize, replicas: usize) -> Self {
        assert!(daemons > 0, "shard map needs at least one daemon");
        assert!(
            replicas >= 1 && replicas <= daemons,
            "need 1 <= replicas <= daemons"
        );
        let shards = daemons * VIRTUAL_SHARDS_PER_DAEMON;
        let replica_sets = (0..shards)
            .map(|s| (0..replicas).map(|i| (s + i) % daemons).collect())
            .collect();
        Self { replica_sets }
    }

    /// Number of virtual shards.
    pub(crate) fn shard_count(&self) -> usize {
        self.replica_sets.len()
    }

    /// The shard a key hash maps to.
    pub(crate) fn shard_of_hash(&self, h: u64) -> usize {
        (h % self.replica_sets.len() as u64) as usize
    }

    /// Daemon indices hosting a shard, primary first.
    pub(crate) fn replicas_of(&self, shard: usize) -> &[usize] {
        &self.replica_sets[shard]
    }
}

/// Stable FNV-1a hash over the shard-key attribute values. Each value
/// is folded with a type tag so `U64(1)` and `I64(1)` hash apart.
pub(crate) fn shard_key_hash<'a>(values: impl IntoIterator<Item = &'a Value>) -> u64 {
    let mut h = FNV_OFFSET;
    for v in values {
        h = match v {
            Value::U64(x) => fnv1a64_continue(fnv1a64_continue(h, b"u"), &x.to_le_bytes()),
            Value::I64(x) => fnv1a64_continue(fnv1a64_continue(h, b"i"), &x.to_le_bytes()),
            Value::F64(x) => {
                fnv1a64_continue(fnv1a64_continue(h, b"f"), &x.to_bits().to_le_bytes())
            }
            Value::Str(s) => fnv1a64_continue(fnv1a64_continue(h, b"s"), s.as_bytes()),
        };
    }
    h
}

/// One daemon's crash/restart schedule in virtual time. Down windows
/// are half-open like [`Lifecycle`](../../ldms_sim/fault/struct.Lifecycle.html):
/// the daemon is down at the crash instant and up again at the restart
/// instant. A crash with no later restart leaves the daemon down
/// forever.
#[derive(Debug, Clone, Default)]
pub(crate) struct DaemonSchedule {
    crashes: Vec<Epoch>,
    restarts: Vec<Epoch>,
}

impl DaemonSchedule {
    /// Records a crash at `at`.
    pub(crate) fn crash(&mut self, at: Epoch) {
        self.crashes.push(at);
        self.crashes.sort_unstable();
    }

    /// Records a restart at `at`.
    pub(crate) fn restart(&mut self, at: Epoch) {
        self.restarts.push(at);
        self.restarts.sort_unstable();
    }

    /// Down windows `[from, until)`; `None` until = down forever.
    pub(crate) fn windows(&self) -> Vec<(Epoch, Option<Epoch>)> {
        let mut out: Vec<(Epoch, Option<Epoch>)> = Vec::new();
        for &c in &self.crashes {
            // Already inside an open window: ignore the double crash.
            if let Some(&(from, until)) = out.last() {
                if c >= from && until.is_none_or(|u| c < u) {
                    continue;
                }
            }
            let restart = self.restarts.iter().find(|&&r| r > c).copied();
            out.push((c, restart));
        }
        out
    }

    /// Is the daemon up at `t`?
    pub(crate) fn is_up(&self, t: Epoch) -> bool {
        self.windows()
            .iter()
            .all(|&(from, until)| t < from || until.is_some_and(|u| t >= u))
    }

    /// True when no fault was ever scheduled.
    pub(crate) fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.restarts.is_empty()
    }
}

/// Per-shard liveness and acknowledged-mass accounting attached to
/// every failure-aware query result. Only shards with any acknowledged
/// mass or any dead replica are listed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHealth {
    /// Virtual shard index.
    pub shard: usize,
    /// Configured replicas (R).
    pub replicas: usize,
    /// Replicas up at query time.
    pub live_replicas: usize,
    /// Quorum-acknowledged rows hashed to this shard.
    pub acked_rows: u64,
    /// Acknowledged rows held by at least one live replica.
    pub acked_reachable: u64,
}

/// Exact completeness accounting for one query: what came back, and
/// what is *provably* unavailable right now (acknowledged mass with no
/// live holder). `unavailable == 0` proves zero acknowledged-row loss
/// for this container at this instant.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Completeness {
    /// Rows in this result (after replica dedup; includes rows that
    /// never reached quorum).
    pub rows_returned: usize,
    /// Replica copies suppressed by the dedup pass (R−1 per row when
    /// everything is healthy).
    pub duplicates_suppressed: u64,
    /// Total quorum-acknowledged rows ever ingested into the container.
    pub acked_rows: u64,
    /// Acknowledged rows held by at least one live replica.
    pub acked_reachable: u64,
    /// Acknowledged shard-mass with no live holder: `acked_rows −
    /// acked_reachable`. The exact row count a full-container query is
    /// missing.
    pub unavailable: u64,
    /// Daemons down at query time.
    pub dead_daemons: usize,
    /// Rows copied onto lagging live replicas by this query's
    /// opportunistic read-repair pass.
    pub read_repairs: u64,
    /// Per-shard detail for shards that are degraded (fewer live
    /// replicas than configured) or unavailable.
    pub degraded_shards: Vec<ShardHealth>,
}

impl Completeness {
    /// True when every acknowledged row is reachable.
    pub fn is_complete(&self) -> bool {
        self.unavailable == 0
    }
}

/// Acknowledgement for one ingested row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestAck {
    /// Cluster-global row id (the replication sequence key).
    pub rid: u64,
    /// Virtual shard the row hashed to.
    pub shard: usize,
    /// Replicas that accepted the write.
    pub acked: usize,
    /// Whether `acked >= write_quorum`.
    pub quorum: bool,
}

/// Acknowledgement for a batch ingest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchAck {
    /// Rows accepted (stored on at least zero replicas and tracked).
    pub accepted: usize,
    /// Rows that reached the write quorum.
    pub quorum_acked: u64,
    /// Rows rejected by the schema.
    pub rejected: usize,
}

/// Per-reason skip accounting for best-effort CSV import.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CsvImportReport {
    /// Rows imported.
    pub imported: usize,
    /// Rows skipped: wrong field count for the schema.
    pub skipped_arity: usize,
    /// Rows skipped: a field failed to parse as its attribute type.
    pub skipped_parse: usize,
    /// Rows rejected by the store (schema validation).
    pub rejected: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replication_config_defaults_and_validation() {
        let c = ReplicationConfig::none();
        assert_eq!((c.replicas, c.write_quorum), (1, 1));
        assert_eq!(ReplicationConfig::new(2).write_quorum, 2); // majority
        assert_eq!(ReplicationConfig::new(3).write_quorum, 2);
        assert!(ReplicationConfig::new(2).validate(2).is_ok());
        assert!(ReplicationConfig::new(3).validate(2).is_err()); // R > n
        assert!(ReplicationConfig::new(2)
            .with_quorum(3)
            .validate(4)
            .is_err()); // W > R
        assert!(ReplicationConfig::new(2)
            .with_quorum(0)
            .validate(4)
            .is_err());
    }

    #[test]
    fn shard_map_places_replicas_on_distinct_daemons() {
        let map = ShardMap::new(4, 2);
        assert_eq!(map.shard_count(), 4 * VIRTUAL_SHARDS_PER_DAEMON);
        for s in 0..map.shard_count() {
            let r = map.replicas_of(s);
            assert_eq!(r.len(), 2);
            assert_ne!(r[0], r[1]);
            assert_eq!(r[0], s % 4); // primary = shard mod n
        }
    }

    #[test]
    fn shard_key_hash_is_stable_and_type_tagged() {
        let a = shard_key_hash(&[Value::U64(7), Value::U64(3)]);
        let b = shard_key_hash(&[Value::U64(7), Value::U64(3)]);
        assert_eq!(a, b);
        assert_ne!(a, shard_key_hash(&[Value::U64(3), Value::U64(7)]));
        assert_ne!(
            shard_key_hash(&[Value::U64(1)]),
            shard_key_hash(&[Value::I64(1)])
        );
    }

    #[test]
    fn schedule_windows_and_liveness() {
        let mut s = DaemonSchedule::default();
        s.crash(Epoch::from_secs(10));
        s.restart(Epoch::from_secs(20));
        s.crash(Epoch::from_secs(30));
        assert_eq!(
            s.windows(),
            vec![
                (Epoch::from_secs(10), Some(Epoch::from_secs(20))),
                (Epoch::from_secs(30), None),
            ]
        );
        assert!(s.is_up(Epoch::from_secs(5)));
        assert!(!s.is_up(Epoch::from_secs(10))); // down at crash instant
        assert!(!s.is_up(Epoch::from_secs(15)));
        assert!(s.is_up(Epoch::from_secs(20))); // up at restart instant
        assert!(!s.is_up(Epoch::from_secs(31))); // crashed forever
    }

    #[test]
    fn double_crash_inside_open_window_is_ignored() {
        let mut s = DaemonSchedule::default();
        s.crash(Epoch::from_secs(10));
        s.crash(Epoch::from_secs(12));
        s.restart(Epoch::from_secs(20));
        assert_eq!(
            s.windows(),
            vec![(Epoch::from_secs(10), Some(Epoch::from_secs(20)))]
        );
    }
}
