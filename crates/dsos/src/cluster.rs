//! The DSOS cluster client: replicated ingest and failure-aware query.
//!
//! "A DSOS cluster consists of multiple instances of DSOS daemons,
//! dsosd, that run on multiple storage servers … The DSOS Client API
//! can perform parallel queries to all dsosd in a DSOS cluster. The
//! results of the queried data are then returned in parallel and sorted
//! based on the index selected by the user." (Section II). This module
//! implements that client, hardened against `dsosd` failures:
//!
//! * **Placement** is deterministic hash-sharding by `(job, rank)`
//!   through a [`ShardMap`], with a replication factor R whose
//!   replicas land on distinct daemons — no more round-robin.
//! * **Ingest** writes all R replicas that are up at the write's
//!   virtual time and acknowledges at a configurable write quorum
//!   ([`ReplicationConfig`]); missing containers are a typed
//!   [`StoreError`], not a panic.
//! * **Faults**: [`crash_dsosd`](DsosCluster::crash_dsosd) /
//!   [`restart_dsosd`](DsosCluster::restart_dsosd) schedule crash-stop
//!   windows per daemon in virtual time; a crash destroys the daemon's
//!   volatile replica state, and [`recover`](DsosCluster::recover)
//!   replays the schedule: each restart runs an anti-entropy pass that
//!   rebuilds the returning replica from any live holder (sequence-
//!   keyed by row id, idempotent, dedup-checked).
//! * **Queries** are one scan ([`scan_at`](DsosCluster::scan_at)) of the
//!   shards of the daemons that are up at the query instant, read in
//!   place and merged in index order in the caller's thread: replica
//!   copies are dropped by row id, lagging live replicas repaired
//!   opportunistically, and an exact [`Completeness`] report attached
//!   (with R≥2 and ≤R−1 concurrent failures it proves zero
//!   acknowledged-row loss; see `replication` module docs for the
//!   argument). `query_*` collect that scan, one clone per row.

use crate::replication::{
    shard_key_hash, BatchAck, Completeness, CsvImportReport, DaemonSchedule, IngestAck,
    ReplicationConfig, ShardHealth, ShardMap, StoreError, NO_RID,
};
use crate::schema::Schema;
use crate::store::{ContainerShard, Dsosd, Scan, ShardRead};
use crate::value::Value;
use iosim_telemetry::{Counter, DiagHub, FaultKind, Gauge, HealthState, HubEventKind, Telemetry};
use iosim_time::Epoch;
use iosim_util::hash::FnvBuildHasher;
use iosim_util::merge::KWayMerge;
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Query instant used by the non-`_at` query APIs: after every
/// scheduled fault has played out.
const END_OF_TIME: Epoch = Epoch::from_nanos(u64::MAX);

/// Per-row replication record.
#[derive(Debug, Clone, Copy)]
struct RowMeta {
    rid: u64,
    write_t: Epoch,
    shard: u32,
    quorum: bool,
}

/// Replication bookkeeping for one container.
struct ContainerRepl {
    schema: Arc<Schema>,
    /// Attribute positions forming the shard key (`job_id`/`job`,
    /// `rank`); empty = hash the whole object.
    key_attrs: Vec<usize>,
    /// The container's shard on each daemon, by daemon index.
    shards: Vec<Arc<ContainerShard>>,
    /// Every ingested row, in row-id order: ids are handed out under
    /// the `repl` write lock, so within a container they only grow and
    /// a push keeps the order.
    rows: Vec<RowMeta>,
    /// `replicas` slots per row, parallel to `rows`: when the row
    /// arrived (ingest, rebuild or repair instant) on each daemon of
    /// its shard's replica set, in `ShardMap::replicas_of` order. A
    /// daemon "holds" a row iff its slot is set; crash replay clears
    /// slots, restart replay and read repair set them.
    arrivals: Vec<Option<Epoch>>,
    replicas: usize,
    acked_per_shard: Vec<u64>,
}

impl ContainerRepl {
    fn new(
        schema: Arc<Schema>,
        shards: Vec<Arc<ContainerShard>>,
        shard_count: usize,
        replicas: usize,
    ) -> Self {
        let mut key_attrs = Vec::new();
        for name in ["job_id", "job", "rank"] {
            if let Some(i) = schema.attr_id(name) {
                if !key_attrs.contains(&i) {
                    key_attrs.push(i);
                }
            }
        }
        Self {
            schema,
            key_attrs,
            shards,
            rows: Vec::new(),
            arrivals: Vec::new(),
            replicas,
            acked_per_shard: vec![0; shard_count],
        }
    }

    /// Position in `rows` of a row id.
    fn find(&self, rid: u64) -> Option<usize> {
        self.rows.binary_search_by_key(&rid, |meta| meta.rid).ok()
    }

    /// The daemons of row `i`'s replica set, each with when the row
    /// arrived there (`None`: that daemon does not hold it).
    fn copies<'a>(
        &'a self,
        map: &'a ShardMap,
        i: usize,
    ) -> impl Iterator<Item = (usize, Option<Epoch>)> + 'a {
        let peers = map.replicas_of(self.rows[i].shard as usize);
        let held = &self.arrivals[i * self.replicas..][..self.replicas];
        peers.iter().copied().zip(held.iter().copied())
    }

    /// Row `i`'s arrival slot on daemon `d`, if `d` hosts its shard.
    fn slot(&self, map: &ShardMap, i: usize, d: usize) -> Option<usize> {
        let peers = map.replicas_of(self.rows[i].shard as usize);
        Some(i * self.replicas + peers.iter().position(|&p| p == d)?)
    }

    /// Whether daemon `d` holds row `rid`.
    fn holds(&self, map: &ShardMap, rid: u64, d: usize) -> bool {
        self.find(rid)
            .and_then(|i| self.slot(map, i, d))
            .is_some_and(|slot| self.arrivals[slot].is_some())
    }

    /// Rows at least one daemon holds.
    fn held_rows(&self) -> usize {
        self.arrivals
            .chunks(self.replicas)
            .filter(|held| held.iter().any(Option::is_some))
            .count()
    }

    fn shard_hash(&self, obj: &[Value]) -> u64 {
        if self.key_attrs.is_empty() {
            shard_key_hash(obj)
        } else {
            shard_key_hash(self.key_attrs.iter().map(|&i| &obj[i]))
        }
    }
}

/// Optional telemetry handles (`replica_lag`, `read_repairs`,
/// `rebuild_rows`), registered under daemon label `dsos-cluster`.
struct ClusterMetrics {
    read_repairs: Arc<Counter>,
    rebuild_rows: Arc<Counter>,
    replica_lag: Arc<Gauge>,
    /// The live diagnosis hub, when the telemetry hub carries one:
    /// `recover` publishes per-dsosd crash/restart/rebuild fault
    /// events and health transitions into it.
    diag: Option<Arc<DiagHub>>,
}

/// A cluster of `dsosd` daemons plus the client-side routing,
/// replication, and fault-schedule state.
pub struct DsosCluster {
    daemons: Vec<Arc<Dsosd>>,
    cfg: ReplicationConfig,
    map: ShardMap,
    next_rid: AtomicU64,
    repl: RwLock<HashMap<String, ContainerRepl>>,
    schedules: RwLock<Vec<DaemonSchedule>>,
    /// Fault-schedule events already replayed by `recover` (idempotency
    /// cursor).
    recovered_events: AtomicUsize,
    read_repairs: AtomicU64,
    rebuild_rows: AtomicU64,
    metrics: OnceLock<ClusterMetrics>,
}

impl DsosCluster {
    /// Builds an unreplicated cluster of `n` daemons (R=1, the seed
    /// behaviour).
    pub fn new(n: usize) -> Arc<Self> {
        Self::new_replicated(n, ReplicationConfig::none()).expect("R=1 is always valid for n >= 1")
    }

    /// Builds a cluster of `n` daemons with the given replication
    /// policy.
    pub fn new_replicated(n: usize, cfg: ReplicationConfig) -> Result<Arc<Self>, StoreError> {
        assert!(n > 0, "cluster needs at least one daemon");
        cfg.validate(n)?;
        Ok(Arc::new(Self {
            daemons: (0..n).map(|i| Dsosd::new(&format!("dsosd-{i}"))).collect(),
            cfg,
            map: ShardMap::new(n, cfg.replicas),
            next_rid: AtomicU64::new(0),
            repl: RwLock::new(HashMap::new()),
            schedules: RwLock::new((0..n).map(|_| DaemonSchedule::default()).collect()),
            recovered_events: AtomicUsize::new(0),
            read_repairs: AtomicU64::new(0),
            rebuild_rows: AtomicU64::new(0),
            metrics: OnceLock::new(),
        }))
    }

    /// Number of daemons.
    pub fn daemon_count(&self) -> usize {
        self.daemons.len()
    }

    /// The replication policy.
    pub fn replication(&self) -> ReplicationConfig {
        self.cfg
    }

    /// Access to a daemon (tests/monitoring).
    pub fn daemon(&self, i: usize) -> &Arc<Dsosd> {
        &self.daemons[i]
    }

    /// Resolves a daemon name (`dsosd-3`) or bare index (`3`).
    pub fn resolve_daemon(&self, name: &str) -> Option<usize> {
        if let Some(i) = self.daemons.iter().position(|d| d.name() == name) {
            return Some(i);
        }
        name.parse::<usize>()
            .ok()
            .filter(|&i| i < self.daemons.len())
    }

    /// Registers `replica_lag` / `read_repairs` / `rebuild_rows` with a
    /// telemetry hub (daemon label `dsos-cluster`). A cluster reports
    /// to one hub; attaching a second panics.
    pub fn attach_telemetry(&self, hub: &Arc<Telemetry>) {
        let reg = hub.registry();
        let metrics = ClusterMetrics {
            read_repairs: reg.counter("read_repairs", "dsos-cluster"),
            rebuild_rows: reg.counter("rebuild_rows", "dsos-cluster"),
            replica_lag: reg.gauge("replica_lag", "dsos-cluster"),
            diag: hub.diag().cloned(),
        };
        assert!(
            self.metrics.set(metrics).is_ok(),
            "cluster telemetry is attached once"
        );
    }

    /// Ensures the container exists on every daemon and sets up its
    /// replication bookkeeping.
    pub fn create_container(&self, name: &str, schema: &Arc<Schema>) {
        let shards = self
            .daemons
            .iter()
            .map(|d| d.container(name, schema))
            .collect();
        self.repl
            .write()
            .entry(name.to_string())
            .or_insert_with(|| {
                let shard_count = self.map.shard_count();
                ContainerRepl::new(schema.clone(), shards, shard_count, self.cfg.replicas)
            });
    }

    // ------------------------------------------------------------------
    // Fault schedule
    // ------------------------------------------------------------------

    /// Schedules a crash-stop of daemon `i` at virtual instant `at`:
    /// its volatile replica state is destroyed and it answers no
    /// queries until a later restart.
    pub fn crash_dsosd(&self, i: usize, at: Epoch) {
        self.schedules.write()[i].crash(at);
    }

    /// Schedules a restart of daemon `i` at `at`; the anti-entropy pass
    /// in [`recover`](Self::recover) rebuilds its shards from peers.
    pub fn restart_dsosd(&self, i: usize, at: Epoch) {
        self.schedules.write()[i].restart(at);
    }

    /// True when no dsosd fault was ever scheduled.
    pub(crate) fn fault_free(&self) -> bool {
        self.schedules.read().iter().all(|s| s.is_empty())
    }

    /// Rows copied by opportunistic read repair so far.
    pub fn read_repair_count(&self) -> u64 {
        self.read_repairs.load(Ordering::Relaxed)
    }

    /// Rows rebuilt by anti-entropy restart passes so far.
    pub fn rebuild_count(&self) -> u64 {
        self.rebuild_rows.load(Ordering::Relaxed)
    }

    /// Replays the fault schedule up to `horizon`: crashes destroy the
    /// crashed replica's rows, restarts rebuild the returning replica
    /// from any live holder (anti-entropy: sequence-keyed by row id,
    /// idempotent — a second call replays nothing). Returns rows
    /// rebuilt by this call.
    ///
    /// Call after ingest is quiesced (the pipeline calls it from
    /// `settle`); events are replayed in virtual-time order, crashes
    /// before restarts at equal instants.
    pub fn recover(&self, horizon: Epoch) -> u64 {
        #[derive(PartialEq, Eq, PartialOrd, Ord)]
        enum Kind {
            Crash,
            Restart,
        }
        let schedules = self.schedules.read().clone();
        let mut events: Vec<(Epoch, Kind, usize)> = Vec::new();
        for (d, sched) in schedules.iter().enumerate() {
            for (from, until) in sched.windows() {
                events.push((from, Kind::Crash, d));
                if let Some(u) = until {
                    events.push((u, Kind::Restart, d));
                }
            }
        }
        events.sort_by(|a, b| (a.0, &a.1, a.2).cmp(&(b.0, &b.1, b.2)));
        let start = self.recovered_events.load(Ordering::Acquire);
        let diag = self.metrics.get().and_then(|m| m.diag.as_ref());
        let mut rebuilt = 0u64;
        let mut processed = start;
        let mut repl = self.repl.write();
        for (at, kind, d) in events.iter().skip(start) {
            if *at > horizon {
                break;
            }
            processed += 1;
            let name = self.daemons[*d].name();
            match kind {
                Kind::Crash => {
                    // Crash-stop: everything that arrived before the
                    // crash instant is volatile and lost.
                    for cr in repl.values_mut() {
                        for i in 0..cr.rows.len() {
                            if let Some(slot) = cr.slot(&self.map, i, *d) {
                                cr.arrivals[slot] = cr.arrivals[slot].filter(|arr| arr >= at);
                            }
                        }
                    }
                    if let Some(diag) = &diag {
                        diag.publish(
                            name,
                            *at,
                            HubEventKind::Fault {
                                kind: FaultKind::Crash,
                                detail: format!("dsosd crash-stop at {:.3}s", at.as_secs_f64()),
                            },
                        );
                        diag.publish(
                            name,
                            *at,
                            HubEventKind::Health {
                                from: HealthState::Healthy,
                                to: HealthState::Down,
                                reason: "crash window opened; shard replicas offline".to_string(),
                            },
                        );
                    }
                }
                // A restart that lands inside a later crash window
                // (adjacent windows at the same instant) rebuilds
                // nothing: the daemon is down at that instant.
                Kind::Restart if schedules[*d].is_up(*at) => {
                    let rows = self.rebuild_daemon(&mut repl, *d, *at, &schedules);
                    rebuilt += rows;
                    if let Some(diag) = &diag {
                        diag.publish(
                            name,
                            *at,
                            HubEventKind::Fault {
                                kind: FaultKind::Restart,
                                detail: format!("dsosd restarted at {:.3}s", at.as_secs_f64()),
                            },
                        );
                        if rows > 0 {
                            diag.publish(
                                name,
                                *at,
                                HubEventKind::Fault {
                                    kind: FaultKind::Rebuild,
                                    detail: format!("anti-entropy rebuilt {rows} rows from peers"),
                                },
                            );
                        }
                        diag.publish(
                            name,
                            *at,
                            HubEventKind::Health {
                                from: HealthState::Down,
                                to: HealthState::Healthy,
                                reason: format!("rejoined quorum; {rows} rows rebuilt"),
                            },
                        );
                    }
                }
                Kind::Restart => {}
            }
        }
        self.recovered_events.store(processed, Ordering::Release);
        if rebuilt > 0 {
            self.rebuild_rows.fetch_add(rebuilt, Ordering::Relaxed);
        }
        let lag = self.replica_lag(&repl, &schedules, horizon);
        if let Some(m) = self.metrics.get() {
            if rebuilt > 0 {
                m.rebuild_rows.add(rebuilt);
            }
            m.replica_lag.set(lag);
        }
        rebuilt
    }

    /// Anti-entropy: daemon `d` restarts at `at`; re-replicate every
    /// row of every shard it hosts from any holder that is up at `at`.
    fn rebuild_daemon(
        &self,
        repl: &mut HashMap<String, ContainerRepl>,
        d: usize,
        at: Epoch,
        schedules: &[DaemonSchedule],
    ) -> u64 {
        let mut rebuilt = 0u64;
        for cr in repl.values_mut() {
            // In row-id order, so the rebuilt shard indexes its copies
            // in the order they were first ingested.
            for i in 0..cr.rows.len() {
                let meta = cr.rows[i];
                // Only rows that exist by the restart instant: replay
                // must not hand the returning daemon future writes.
                if meta.write_t >= at {
                    continue;
                }
                let Some(slot) = cr.slot(&self.map, i, d) else {
                    continue;
                };
                let source = cr
                    .copies(&self.map, i)
                    .any(|(p, held)| p != d && held.is_some() && schedules[p].is_up(at));
                if cr.arrivals[slot].is_some() || !source {
                    continue;
                }
                // Copy the bytes from any peer that physically has the
                // row (dedup check: skip if an earlier rebuild already
                // materialized it on this daemon).
                let dest = &cr.shards[d];
                if !dest.has_rid(meta.rid) {
                    let obj = cr
                        .copies(&self.map, i)
                        .find_map(|(p, _)| cr.shards[p].fetch_by_rid(meta.rid));
                    if let Some(obj) = obj {
                        dest.insert_tagged(meta.rid, obj);
                    }
                }
                cr.arrivals[slot] = Some(at);
                rebuilt += 1;
            }
        }
        rebuilt
    }

    /// Acknowledged rows missing from live replicas that should hold
    /// them (the `replica_lag` gauge): for every quorum-acked row,
    /// count that row's live replica daemons lacking a copy.
    fn replica_lag(
        &self,
        repl: &HashMap<String, ContainerRepl>,
        schedules: &[DaemonSchedule],
        at: Epoch,
    ) -> u64 {
        let mut lag = 0u64;
        for cr in repl.values() {
            for (i, _) in cr.rows.iter().enumerate().filter(|(_, meta)| meta.quorum) {
                let lagging = cr
                    .copies(&self.map, i)
                    .filter(|&(d, held)| held.is_none() && schedules[d].is_up(at));
                lag += lagging.count() as u64;
            }
        }
        lag
    }

    // ------------------------------------------------------------------
    // Ingest
    // ------------------------------------------------------------------

    /// Ingests one object at virtual instant `t`: hashes `(job, rank)`
    /// to a shard, writes every replica that is up at `t`, and reports
    /// whether the write quorum was reached.
    pub fn ingest_at(
        &self,
        container: &str,
        obj: Vec<Value>,
        t: Epoch,
    ) -> Result<IngestAck, StoreError> {
        let mut repl = self.repl.write();
        let cr = repl
            .get_mut(container)
            .ok_or_else(|| StoreError::NoSuchContainer(container.to_string()))?;
        self.ingest_locked(cr, &self.schedules.read(), obj, t)
    }

    /// Validates `obj` (the one check on the ingest path: the shards
    /// take it as is) and writes it to every replica of its shard that
    /// is up at `t`: cloned for all but the last, which takes the row
    /// itself.
    fn ingest_locked(
        &self,
        cr: &mut ContainerRepl,
        schedules: &[DaemonSchedule],
        obj: Vec<Value>,
        t: Epoch,
    ) -> Result<IngestAck, StoreError> {
        cr.schema.validate(&obj)?;
        let shard = self.map.shard_of_hash(cr.shard_hash(&obj));
        let rid = self.next_rid.fetch_add(1, Ordering::Relaxed);
        let peers = self.map.replicas_of(shard);
        let first = cr.arrivals.len();
        cr.arrivals
            .extend(peers.iter().map(|&d| schedules[d].is_up(t).then_some(t)));
        let held = &cr.arrivals[first..];
        let acked = held.iter().flatten().count();
        let mut live = peers
            .iter()
            .zip(held)
            .filter_map(|(&d, held)| held.map(|_| d));
        let last = live.next_back();
        for d in live {
            cr.shards[d].insert_tagged(rid, obj.clone());
        }
        if let Some(d) = last {
            cr.shards[d].insert_tagged(rid, obj);
        }
        let quorum = acked >= self.cfg.write_quorum;
        if quorum {
            cr.acked_per_shard[shard] += 1;
        }
        debug_assert!(cr.rows.last().is_none_or(|prev| prev.rid < rid));
        cr.rows.push(RowMeta {
            rid,
            write_t: t,
            shard: u32::try_from(shard).expect("shard ids fit u32"),
            quorum,
        });
        Ok(IngestAck {
            rid,
            shard,
            acked,
            quorum,
        })
    }

    /// Ingests one object at virtual time zero (tests / CSV import; on
    /// a fault-free cluster the instant is irrelevant).
    pub fn ingest(&self, container: &str, obj: Vec<Value>) -> Result<IngestAck, StoreError> {
        self.ingest_at(container, obj, Epoch::from_nanos(0))
    }

    /// Ingests a batch at instant `t`. Each row is hash-routed
    /// individually (deterministic placement); schema-rejected rows are
    /// counted, not fatal. A missing container is a typed error.
    pub fn ingest_batch_at(
        &self,
        container: &str,
        objs: Vec<Vec<Value>>,
        t: Epoch,
    ) -> Result<BatchAck, StoreError> {
        let mut repl = self.repl.write();
        let cr = repl
            .get_mut(container)
            .ok_or_else(|| StoreError::NoSuchContainer(container.to_string()))?;
        let schedules = self.schedules.read();
        let mut ack = BatchAck::default();
        for obj in objs {
            match self.ingest_locked(cr, &schedules, obj, t) {
                Ok(a) => {
                    ack.accepted += 1;
                    if a.quorum {
                        ack.quorum_acked += 1;
                    }
                }
                Err(StoreError::Schema(_)) => ack.rejected += 1,
                Err(e) => return Err(e),
            }
        }
        Ok(ack)
    }

    /// Ingests a batch at virtual time zero.
    #[cfg(test)]
    pub(crate) fn ingest_batch(
        &self,
        container: &str,
        objs: Vec<Vec<Value>>,
    ) -> Result<BatchAck, StoreError> {
        self.ingest_batch_at(container, objs, Epoch::from_nanos(0))
    }

    /// Distinct logical rows stored in a container (replica copies
    /// count once).
    pub fn object_count(&self, container: &str) -> usize {
        let repl = self.repl.read();
        match repl.get(container) {
            // No fault ever scheduled: every ingested row is held.
            Some(cr) if self.fault_free() => cr.rows.len(),
            Some(cr) => cr.held_rows(),
            None => 0,
        }
    }

    // ------------------------------------------------------------------
    // Query
    // ------------------------------------------------------------------

    /// The one read primitive: scans every daemon that is up at `at`
    /// in place, k-way merges the borrowed hits in index-key order
    /// (equal keys tie-break on object content, then row id, then
    /// daemon order), drops replica copies by row id (first copy wins)
    /// and hands each surviving row to `visit`, in this thread, while
    /// the shards are held for reading. Lagging live replicas are
    /// repaired once the scan is over, and the [`Completeness`] report
    /// says what the scan could and could not reach.
    ///
    /// Locks: `repl` first, as in ingest, then each live shard's lock
    /// once, in daemon order. `visit` runs under all of them and must
    /// not call back into the cluster.
    pub(crate) fn scan_at(
        &self,
        container: &str,
        index: &str,
        scan: Scan<'_>,
        at: Epoch,
        mut visit: impl FnMut(&[Value]),
    ) -> Completeness {
        let (live, healthy) = self.liveness(at);
        let repl = self.repl.read();
        let mut completeness = self.completeness_locked(&repl, container, &live, healthy);
        // A missing container, an unknown index or bounds no key lies
        // between select nothing; dead daemons answer nothing.
        let target = repl.get(container).and_then(|cr| {
            let pos = cr.schema.index_pos(index)?;
            Some((
                cr,
                pos,
                scan.key_range(&cr.schema, &cr.schema.indices()[pos])?,
            ))
        });
        let Some((cr, pos, range)) = target else {
            return completeness;
        };
        let shards: Vec<(usize, ShardRead<'_>)> = (0..self.daemons.len())
            .filter(|&d| live[d])
            .map(|d| (d, cr.shards[d].read(pos)))
            .collect();
        // On a fault-free cluster every physical row is held by its
        // daemon, and with one replica no row id comes back twice: the
        // per-row holder, dedup and repair checks apply only otherwise.
        let degraded = (!healthy).then_some(cr);
        let dedup = !healthy || self.cfg.replicas > 1;
        let sources = shards
            .iter()
            .map(|&(d, ref shard)| {
                // Keep only rows the daemon currently *holds* (crash
                // replay may have invalidated some).
                shard.hits(range).filter(move |&(_, _, rid)| {
                    rid == NO_RID || degraded.is_none_or(|cr| cr.holds(&self.map, rid, d))
                })
            })
            .collect();
        let mut seen: HashSet<u64, FnvBuildHasher> = HashSet::default();
        let mut plan: Vec<(usize, u64, Vec<Value>)> = Vec::new();
        for (_, obj, rid) in KWayMerge::new(sources) {
            if dedup && rid != NO_RID {
                if !seen.insert(rid) {
                    completeness.duplicates_suppressed += 1;
                    continue;
                }
                // Opportunistic read repair: a returned row goes onto
                // the live replicas of its shard that lack it.
                if let Some((cr, i)) = degraded.and_then(|cr| Some((cr, cr.find(rid)?))) {
                    for (d, held) in cr.copies(&self.map, i) {
                        if live[d] && held.is_none() {
                            plan.push((d, rid, obj.to_vec()));
                        }
                    }
                }
            }
            completeness.rows_returned += 1;
            visit(obj);
        }
        drop(shards);
        drop(repl);
        completeness.read_repairs = self.read_repair(container, plan, at);
        completeness
    }

    /// [`scan_at`](Self::scan_at) after all scheduled faults.
    pub fn scan(&self, container: &str, index: &str, scan: Scan<'_>, visit: impl FnMut(&[Value])) {
        self.scan_at(container, index, scan, END_OF_TIME, visit);
    }

    /// [`scan_at`](Self::scan_at) collected: each returned row is
    /// cloned once, here.
    fn collect(
        &self,
        container: &str,
        index: &str,
        scan: Scan<'_>,
        at: Epoch,
    ) -> (Vec<Vec<Value>>, Completeness) {
        let mut rows = Vec::new();
        let completeness = self.scan_at(container, index, scan, at, |row| rows.push(row.to_vec()));
        (rows, completeness)
    }

    /// Failure-aware query at instant `at` for the objects whose
    /// `index` key starts with `prefix`: [`scan_at`](Self::scan_at),
    /// collected.
    pub fn query_prefix_at(
        &self,
        container: &str,
        index: &str,
        prefix: &[Value],
        at: Epoch,
    ) -> (Vec<Vec<Value>>, Completeness) {
        self.collect(container, index, Scan::Prefix(prefix), at)
    }

    /// Failure-aware range query (`from <= key < to`) at instant `at`.
    /// Empty or inverted ranges return no rows.
    pub(crate) fn query_range_at(
        &self,
        container: &str,
        index: &str,
        from: &[Value],
        to: &[Value],
        at: Epoch,
    ) -> (Vec<Vec<Value>>, Completeness) {
        self.collect(container, index, Scan::Range(from, to), at)
    }

    /// Queries all objects whose `index` key starts with `prefix`,
    /// merged across daemons in key order (after all scheduled faults).
    pub fn query_prefix(&self, container: &str, index: &str, prefix: &[Value]) -> Vec<Vec<Value>> {
        self.query_prefix_at(container, index, prefix, END_OF_TIME)
            .0
    }

    /// Queries objects with `from <= key < to`, merged in key order
    /// (after all scheduled faults).
    pub fn query_range(
        &self,
        container: &str,
        index: &str,
        from: &[Value],
        to: &[Value],
    ) -> Vec<Vec<Value>> {
        self.query_range_at(container, index, from, to, END_OF_TIME)
            .0
    }

    /// Which daemons are up at `at`, and whether no fault was ever
    /// scheduled (one acquisition of the schedule for both).
    fn liveness(&self, at: Epoch) -> (Vec<bool>, bool) {
        let schedules = self.schedules.read();
        (
            schedules.iter().map(|s| s.is_up(at)).collect(),
            schedules.iter().all(|s| s.is_empty()),
        )
    }

    /// Applies a read-repair plan of `(daemon, row id, row)` copies, in
    /// row-id order: a repaired shard indexes its copies in the order
    /// they were first ingested, whatever order the scan met them in.
    fn read_repair(
        &self,
        container: &str,
        mut plan: Vec<(usize, u64, Vec<Value>)>,
        at: Epoch,
    ) -> u64 {
        if plan.is_empty() {
            return 0;
        }
        plan.sort_unstable_by_key(|&(d, rid, _)| (rid, d));
        let mut repaired = 0u64;
        let mut repl = self.repl.write();
        if let Some(cr) = repl.get_mut(container) {
            for (d, rid, obj) in plan {
                // Re-check under the write lock: a concurrent query may
                // have repaired it already (idempotent).
                let slot = cr.find(rid).and_then(|i| cr.slot(&self.map, i, d));
                let Some(slot) = slot.filter(|&slot| cr.arrivals[slot].is_none()) else {
                    continue;
                };
                let dest = &cr.shards[d];
                if !dest.has_rid(rid) {
                    dest.insert_tagged(rid, obj);
                }
                cr.arrivals[slot] = Some(at);
                repaired += 1;
            }
        }
        drop(repl);
        if repaired > 0 {
            self.read_repairs.fetch_add(repaired, Ordering::Relaxed);
            if let Some(m) = self.metrics.get() {
                m.read_repairs.add(repaired);
            }
        }
        repaired
    }

    /// Standalone completeness report for a container at instant `at`
    /// (what a full query would prove).
    pub fn completeness(&self, container: &str, at: Epoch) -> Completeness {
        let (live, healthy) = self.liveness(at);
        let repl = self.repl.read();
        self.completeness_locked(&repl, container, &live, healthy)
    }

    fn completeness_locked(
        &self,
        repl: &HashMap<String, ContainerRepl>,
        container: &str,
        live: &[bool],
        healthy: bool,
    ) -> Completeness {
        let dead_daemons = live.iter().filter(|&&u| !u).count();
        let Some(cr) = repl.get(container) else {
            return Completeness {
                dead_daemons,
                ..Completeness::default()
            };
        };
        if dead_daemons == 0 && healthy {
            // No fault ever scheduled: every acked row sits on every
            // live replica of its shard; skip the per-row scan.
            let acked_rows: u64 = cr.acked_per_shard.iter().sum();
            return Completeness {
                acked_rows,
                acked_reachable: acked_rows,
                ..Completeness::default()
            };
        }
        let shards = self.map.shard_count();
        let mut reachable_per_shard = vec![0u64; shards];
        for (i, meta) in cr.rows.iter().enumerate().filter(|(_, meta)| meta.quorum) {
            let reachable = cr
                .copies(&self.map, i)
                .any(|(d, held)| live[d] && held.is_some());
            if reachable {
                reachable_per_shard[meta.shard as usize] += 1;
            }
        }
        let mut degraded_shards = Vec::new();
        let mut acked_rows = 0u64;
        let mut acked_reachable = 0u64;
        for (s, &reached) in reachable_per_shard.iter().enumerate().take(shards) {
            let replicas = self.map.replicas_of(s);
            let live_replicas = replicas.iter().filter(|&&d| live[d]).count();
            acked_rows += cr.acked_per_shard[s];
            acked_reachable += reached;
            let degraded = live_replicas < replicas.len() || reached < cr.acked_per_shard[s];
            if degraded {
                degraded_shards.push(ShardHealth {
                    shard: s,
                    replicas: replicas.len(),
                    live_replicas,
                    acked_rows: cr.acked_per_shard[s],
                    acked_reachable: reached,
                });
            }
        }
        Completeness {
            rows_returned: 0,
            duplicates_suppressed: 0,
            acked_rows,
            acked_reachable,
            unavailable: acked_rows - acked_reachable,
            dead_daemons,
            read_repairs: 0,
            degraded_shards,
        }
    }

    // ------------------------------------------------------------------
    // CSV import
    // ------------------------------------------------------------------

    /// Imports CSV rows (as produced by the LDMS CSV store) into a
    /// container: each row's fields are parsed per the schema attribute
    /// types, in attribute order. Best-effort, with exact per-reason
    /// skip accounting.
    pub fn import_csv_rows(
        &self,
        container: &str,
        schema: &Arc<Schema>,
        rows: &[Vec<String>],
    ) -> CsvImportReport {
        let mut report = CsvImportReport::default();
        for row in rows {
            if row.len() != schema.attrs().len() {
                report.skipped_arity += 1;
                continue;
            }
            let mut obj = Vec::with_capacity(row.len());
            let mut good = true;
            for (field, attr) in row.iter().zip(schema.attrs()) {
                match Value::parse(attr.ty, field) {
                    Some(v) => obj.push(v),
                    None => {
                        good = false;
                        break;
                    }
                }
            }
            if !good {
                report.skipped_parse += 1;
            } else if self.ingest(container, obj).is_ok() {
                report.imported += 1;
            } else {
                report.rejected += 1;
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Type;

    fn schema() -> Arc<Schema> {
        Schema::builder("darshan_data")
            .attr("job_id", Type::U64)
            .attr("rank", Type::U64)
            .attr("timestamp", Type::F64)
            .index("job_rank_time", &["job_id", "rank", "timestamp"])
            .build()
            .unwrap()
    }

    fn obj(job: u64, rank: u64, t: f64) -> Vec<Value> {
        vec![Value::U64(job), Value::U64(rank), Value::F64(t)]
    }

    #[test]
    fn ingest_hash_shards_deterministically() {
        let cl = DsosCluster::new(4);
        cl.create_container("darshan", &schema());
        for i in 0..100 {
            cl.ingest("darshan", obj(1, i % 8, i as f64)).unwrap();
        }
        assert_eq!(cl.object_count("darshan"), 100);
        // Same (job, rank) always lands on the same daemon; all eight
        // ranks together span more than one daemon.
        let homes: Vec<usize> = (0..4).map(|i| cl.daemon(i).object_count()).collect();
        assert_eq!(homes.iter().sum::<usize>(), 100);
        assert!(homes.iter().filter(|&&n| n > 0).count() > 1);
        // Re-ingesting the same keys into a second identical cluster
        // reproduces the exact placement.
        let cl2 = DsosCluster::new(4);
        cl2.create_container("darshan", &schema());
        for i in 0..100 {
            cl2.ingest("darshan", obj(1, i % 8, i as f64)).unwrap();
        }
        let homes2: Vec<usize> = (0..4).map(|i| cl2.daemon(i).object_count()).collect();
        assert_eq!(homes, homes2);
    }

    #[test]
    fn parallel_query_merges_in_key_order() {
        let cl = DsosCluster::new(3);
        cl.create_container("darshan", &schema());
        for (r, t) in [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0]
            .iter()
            .enumerate()
        {
            cl.ingest("darshan", obj(1, r as u64, *t)).unwrap();
        }
        let rows = cl.query_prefix("darshan", "job_rank_time", &[Value::U64(1)]);
        let ranks: Vec<u64> = rows.iter().map(|o| o[1].as_u64().unwrap()).collect();
        assert_eq!(ranks, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn batch_ingest_routes_rows_and_counts_rejects() {
        let cl = DsosCluster::new(3);
        cl.create_container("darshan", &schema());
        let batch: Vec<_> = (0..10).map(|t| obj(1, t, t as f64)).collect();
        let ack = cl.ingest_batch("darshan", batch).unwrap();
        assert_eq!((ack.accepted, ack.quorum_acked, ack.rejected), (10, 10, 0));
        assert_eq!(cl.object_count("darshan"), 10);
        // A mixed batch accepts the good rows and counts the bad.
        let mixed = vec![obj(1, 0, 10.0), vec![Value::U64(1)], obj(1, 0, 11.0)];
        let ack = cl.ingest_batch("darshan", mixed).unwrap();
        assert_eq!((ack.accepted, ack.rejected), (2, 1));
        assert_eq!(cl.ingest_batch("darshan", Vec::new()).unwrap().accepted, 0);
        let rows = cl.query_prefix("darshan", "job_rank_time", &[Value::U64(1)]);
        assert_eq!(rows.len(), 12);
    }

    #[test]
    fn missing_container_is_a_typed_error_not_a_panic() {
        let cl = DsosCluster::new(2);
        let err = cl.ingest("nope", obj(1, 0, 0.0)).unwrap_err();
        assert_eq!(err, StoreError::NoSuchContainer("nope".into()));
        let err = cl.ingest_batch("nope", vec![obj(1, 0, 0.0)]).unwrap_err();
        assert_eq!(err, StoreError::NoSuchContainer("nope".into()));
        let err = cl.ingest_batch("nope", Vec::new()).unwrap_err();
        assert_eq!(err, StoreError::NoSuchContainer("nope".into()));
    }

    #[test]
    fn prefix_isolates_jobs() {
        let cl = DsosCluster::new(2);
        cl.create_container("darshan", &schema());
        for j in 1..=3u64 {
            for t in 0..5 {
                cl.ingest("darshan", obj(j, 0, t as f64)).unwrap();
            }
        }
        let rows = cl.query_prefix("darshan", "job_rank_time", &[Value::U64(2)]);
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|o| o[0] == Value::U64(2)));
    }

    #[test]
    fn range_query_across_daemons() {
        let cl = DsosCluster::new(2);
        cl.create_container("darshan", &schema());
        for t in 0..20 {
            cl.ingest("darshan", obj(1, 0, t as f64)).unwrap();
        }
        let rows = cl.query_range(
            "darshan",
            "job_rank_time",
            &[Value::U64(1), Value::U64(0), Value::F64(5.0)],
            &[Value::U64(1), Value::U64(0), Value::F64(15.0)],
        );
        assert_eq!(rows.len(), 10);
    }

    #[test]
    fn degenerate_and_inverted_ranges_return_empty() {
        let cl = DsosCluster::new(2);
        cl.create_container("darshan", &schema());
        for t in 0..5 {
            cl.ingest("darshan", obj(1, 0, t as f64)).unwrap();
        }
        let point = vec![Value::U64(1), Value::U64(0), Value::F64(2.0)];
        assert!(cl
            .query_range("darshan", "job_rank_time", &point, &point)
            .is_empty());
        let lo = vec![Value::U64(1), Value::U64(0), Value::F64(1.0)];
        let hi = vec![Value::U64(1), Value::U64(0), Value::F64(4.0)];
        assert!(cl
            .query_range("darshan", "job_rank_time", &hi, &lo)
            .is_empty());
        // Unknown index stays empty, not a panic.
        assert!(cl.query_range("darshan", "nope", &lo, &hi).is_empty());
    }

    #[test]
    fn csv_import_reports_per_reason_skips() {
        let cl = DsosCluster::new(2);
        let s = schema();
        cl.create_container("darshan", &s);
        let rows = vec![
            vec!["1".to_string(), "0".to_string(), "2.5".to_string()],
            vec!["oops".to_string(), "0".to_string(), "2.5".to_string()],
            vec!["1".to_string(), "1".to_string(), "3.5".to_string()],
            vec!["1".to_string(), "1".to_string()], // arity
        ];
        let report = cl.import_csv_rows("darshan", &s, &rows);
        assert_eq!(report.imported, 2);
        assert_eq!(report.skipped_arity, 1);
        assert_eq!(report.skipped_parse, 1);
        assert_eq!(report.rejected, 0);
        assert_eq!(cl.object_count("darshan"), 2);
    }

    #[test]
    fn empty_query_returns_empty() {
        let cl = DsosCluster::new(2);
        cl.create_container("darshan", &schema());
        assert!(cl
            .query_prefix("darshan", "job_rank_time", &[Value::U64(404)])
            .is_empty());
    }

    #[test]
    fn replicated_ingest_writes_r_copies_and_dedups_queries() {
        let cl = DsosCluster::new_replicated(3, ReplicationConfig::new(2)).unwrap();
        cl.create_container("darshan", &schema());
        for r in 0..30 {
            let ack = cl.ingest("darshan", obj(1, r, r as f64)).unwrap();
            assert_eq!(ack.acked, 2);
            assert!(ack.quorum);
        }
        // 30 logical rows, 60 physical copies.
        assert_eq!(cl.object_count("darshan"), 30);
        let physical: usize = (0..3).map(|i| cl.daemon(i).object_count()).sum();
        assert_eq!(physical, 60);
        let (rows, comp) = cl.query_prefix_at("darshan", "job_rank_time", &[], Epoch::from_secs(1));
        assert_eq!(rows.len(), 30);
        assert_eq!(comp.duplicates_suppressed, 30); // one copy per row
        assert!(comp.is_complete());
        assert_eq!(comp.acked_rows, 30);
    }

    #[test]
    fn crash_without_replication_loses_exactly_the_crashed_mass() {
        let cl = DsosCluster::new(2);
        cl.create_container("darshan", &schema());
        for r in 0..40 {
            cl.ingest_at("darshan", obj(1, r, 0.5), Epoch::from_secs(1))
                .unwrap();
        }
        let lost_home: u64 = (0..2)
            .map(|i| cl.daemon(i).object_count() as u64)
            .next()
            .unwrap();
        cl.crash_dsosd(0, Epoch::from_secs(10));
        cl.restart_dsosd(0, Epoch::from_secs(20));
        assert_eq!(cl.recover(Epoch::from_secs(100)), 0); // no peers to rebuild from
        let (rows, comp) =
            cl.query_prefix_at("darshan", "job_rank_time", &[], Epoch::from_secs(50));
        assert_eq!(comp.unavailable, lost_home);
        assert_eq!(rows.len() as u64 + comp.unavailable, 40);
        assert_eq!(comp.acked_rows, 40);
        assert!(!comp.is_complete() || lost_home == 0);
    }

    #[test]
    fn crash_with_replication_rebuilds_and_loses_nothing() {
        let cl = DsosCluster::new_replicated(3, ReplicationConfig::new(2).with_quorum(1)).unwrap();
        cl.create_container("darshan", &schema());
        // Writes before, during, and after the crash window of dsosd-1.
        cl.crash_dsosd(1, Epoch::from_secs(10));
        cl.restart_dsosd(1, Epoch::from_secs(20));
        for r in 0..60u64 {
            let t = Epoch::from_secs(r % 30); // 0..30s: spans the window
            cl.ingest_at("darshan", obj(1, r, r as f64), t).unwrap();
        }
        let rebuilt = cl.recover(Epoch::from_secs(100));
        assert!(rebuilt > 0, "anti-entropy should rebuild dsosd-1");
        assert_eq!(cl.rebuild_count(), rebuilt);
        let (rows, comp) =
            cl.query_prefix_at("darshan", "job_rank_time", &[], Epoch::from_secs(50));
        assert_eq!(rows.len(), 60);
        assert!(comp.is_complete());
        assert_eq!(comp.acked_rows, 60);
        assert_eq!(comp.acked_reachable, 60);
        // Query during the window: dead daemon skipped, still complete
        // (every row has a live replica).
        let (rows_mid, comp_mid) =
            cl.query_prefix_at("darshan", "job_rank_time", &[], Epoch::from_secs(15));
        assert_eq!(rows_mid.len(), 60);
        assert_eq!(comp_mid.dead_daemons, 1);
        assert!(comp_mid.is_complete());
        assert!(!comp_mid.degraded_shards.is_empty());
    }

    #[test]
    fn recover_is_idempotent() {
        let cl = DsosCluster::new_replicated(2, ReplicationConfig::new(2).with_quorum(1)).unwrap();
        cl.create_container("darshan", &schema());
        cl.crash_dsosd(0, Epoch::from_secs(10));
        cl.restart_dsosd(0, Epoch::from_secs(20));
        for r in 0..10u64 {
            cl.ingest_at("darshan", obj(1, r, r as f64), Epoch::from_secs(5))
                .unwrap();
        }
        let first = cl.recover(Epoch::from_secs(100));
        assert!(first > 0);
        assert_eq!(cl.recover(Epoch::from_secs(100)), 0);
        assert_eq!(cl.rebuild_count(), first);
        // No duplicate physical copies either.
        let (rows, comp) =
            cl.query_prefix_at("darshan", "job_rank_time", &[], Epoch::from_secs(50));
        assert_eq!(rows.len(), 10);
        assert_eq!(comp.duplicates_suppressed, 10);
    }

    #[test]
    fn read_repair_fills_replicas_that_missed_the_write() {
        // dsosd-1 is down when the rows are written (window [0s, 20s)),
        // so only dsosd-0 holds them; both are up at query time. The
        // restart rebuild covers this too, so query *before* recover()
        // to exercise the opportunistic path.
        let cl = DsosCluster::new_replicated(2, ReplicationConfig::new(2).with_quorum(1)).unwrap();
        cl.create_container("darshan", &schema());
        cl.crash_dsosd(1, Epoch::from_secs(0));
        cl.restart_dsosd(1, Epoch::from_secs(20));
        for r in 0..10u64 {
            let ack = cl
                .ingest_at("darshan", obj(1, r, r as f64), Epoch::from_secs(5))
                .unwrap();
            assert_eq!(ack.acked, 1);
        }
        let (rows, comp) =
            cl.query_prefix_at("darshan", "job_rank_time", &[], Epoch::from_secs(30));
        assert_eq!(rows.len(), 10);
        assert!(comp.read_repairs > 0);
        assert_eq!(cl.read_repair_count(), comp.read_repairs);
        // After repair both replicas hold everything: a second query
        // suppresses one copy per row and repairs nothing further.
        let (_, comp2) = cl.query_prefix_at("darshan", "job_rank_time", &[], Epoch::from_secs(30));
        assert_eq!(comp2.read_repairs, 0);
        assert_eq!(comp2.duplicates_suppressed, 10);
    }

    #[test]
    fn sequential_crashes_survive_via_restart_rebuild() {
        // A crashes [10,20), then B crashes [30,40): rows written at
        // t=5 must survive both — A's restart rebuild re-copies from B
        // before B crashes.
        let cl = DsosCluster::new_replicated(2, ReplicationConfig::new(2)).unwrap();
        cl.create_container("darshan", &schema());
        for r in 0..20u64 {
            cl.ingest_at("darshan", obj(1, r, r as f64), Epoch::from_secs(5))
                .unwrap();
        }
        cl.crash_dsosd(0, Epoch::from_secs(10));
        cl.restart_dsosd(0, Epoch::from_secs(20));
        cl.crash_dsosd(1, Epoch::from_secs(30));
        cl.restart_dsosd(1, Epoch::from_secs(40));
        cl.recover(Epoch::from_secs(100));
        let (rows, comp) =
            cl.query_prefix_at("darshan", "job_rank_time", &[], Epoch::from_secs(35));
        // Query at t=35: B is down, A holds everything it rebuilt.
        assert_eq!(rows.len(), 20);
        assert!(comp.is_complete());
        let (rows_end, comp_end) =
            cl.query_prefix_at("darshan", "job_rank_time", &[], Epoch::from_secs(50));
        assert_eq!(rows_end.len(), 20);
        assert!(comp_end.is_complete());
    }

    #[test]
    fn concurrent_ingest_and_query_see_consistent_sorted_merges() {
        // ROADMAP item 3: the query layer serves readers while ingest
        // runs. Readers must always see a sorted merge whose size only
        // grows; every ingested row is eventually visible exactly once.
        let cl = DsosCluster::new_replicated(3, ReplicationConfig::new(2)).unwrap();
        cl.create_container("darshan", &schema());
        let total: u64 = 400;
        std::thread::scope(|s| {
            let writer_cl = Arc::clone(&cl);
            s.spawn(move || {
                for r in 0..total {
                    writer_cl
                        .ingest("darshan", obj(1, r % 16, r as f64))
                        .unwrap();
                }
            });
            for _ in 0..2 {
                let reader_cl = Arc::clone(&cl);
                s.spawn(move || {
                    let mut last_len = 0usize;
                    loop {
                        let rows = reader_cl.query_prefix("darshan", "job_rank_time", &[]);
                        // Sorted by (job, rank, time) at every instant.
                        let keys: Vec<(u64, u64)> = rows
                            .iter()
                            .map(|o| (o[1].as_u64().unwrap(), o[2].as_f64().unwrap() as u64))
                            .collect();
                        let mut sorted = keys.clone();
                        sorted.sort_unstable();
                        assert_eq!(keys, sorted, "reader saw an unsorted merge");
                        assert!(rows.len() >= last_len, "result set shrank mid-ingest");
                        last_len = rows.len();
                        if rows.len() as u64 == total {
                            break;
                        }
                        std::thread::yield_now();
                    }
                });
            }
        });
        let rows = cl.query_prefix("darshan", "job_rank_time", &[]);
        assert_eq!(rows.len() as u64, total);
    }

    #[test]
    fn object_count_equals_the_union_of_holders() {
        // The fault-free shortcut (`rows.len()`) and the per-call union
        // must agree wherever both apply, and the union alone decides
        // once a crash has destroyed copies.
        let union = |cl: &DsosCluster| cl.repl.read()["darshan"].held_rows();
        let fill = |cl: &DsosCluster| {
            for r in 0..40 {
                cl.ingest_at("darshan", obj(1, r, r as f64), Epoch::from_secs(1))
                    .unwrap();
            }
        };
        for replicas in [1, 2] {
            let cl = DsosCluster::new_replicated(3, ReplicationConfig::new(replicas)).unwrap();
            cl.create_container("darshan", &schema());
            assert_eq!(cl.object_count("darshan"), 0);
            fill(&cl);
            assert!(cl.fault_free());
            assert_eq!((cl.object_count("darshan"), union(&cl)), (40, 40));
        }
        // R=1: the crashed daemon's rows are gone for good.
        let cl = DsosCluster::new(3);
        cl.create_container("darshan", &schema());
        fill(&cl);
        let lost = cl.daemon(0).object_count();
        assert!(lost > 0);
        cl.crash_dsosd(0, Epoch::from_secs(10));
        cl.restart_dsosd(0, Epoch::from_secs(20));
        cl.recover(Epoch::from_secs(100));
        assert_eq!(cl.object_count("darshan"), 40 - lost);
        assert_eq!(cl.object_count("darshan"), union(&cl));
        // R=2: a peer still holds every row, before and after rebuild.
        let cl = DsosCluster::new_replicated(3, ReplicationConfig::new(2)).unwrap();
        cl.create_container("darshan", &schema());
        fill(&cl);
        cl.crash_dsosd(0, Epoch::from_secs(10));
        cl.recover(Epoch::from_secs(15));
        assert_eq!((cl.object_count("darshan"), union(&cl)), (40, 40));
        cl.restart_dsosd(0, Epoch::from_secs(20));
        cl.recover(Epoch::from_secs(100));
        assert_eq!((cl.object_count("darshan"), union(&cl)), (40, 40));
        assert_eq!(cl.object_count("nope"), 0);
    }

    /// The query as it was before the in-place scan — clone every hit
    /// out of each live daemon, `merge_sorted`, dedup through a
    /// `HashSet`, clone the kept rows again for read repair — kept as
    /// the reference for [`scans_match_the_clone_and_merge_oracle`].
    impl DsosCluster {
        fn oracle_query_at(
            &self,
            container: &str,
            index: &str,
            scan: Scan<'_>,
            at: Epoch,
        ) -> (Vec<Vec<Value>>, Completeness) {
            let (live, healthy) = self.liveness(at);
            let parts: Vec<Vec<crate::store::TaggedRow>> = self
                .daemons
                .iter()
                .zip(&live)
                .map(|(d, &up)| {
                    up.then(|| d.get_container(container)?.oracle_fetch(index, scan))
                        .flatten()
                        .unwrap_or_default()
                })
                .collect();
            let repl = self.repl.read();
            let cr = repl.get(container);
            type MergeItem = (Vec<Value>, (Vec<Value>, u64));
            let filtered: Vec<Vec<MergeItem>> = parts
                .into_iter()
                .enumerate()
                .map(|(d, rows)| {
                    rows.into_iter()
                        .filter(|(_, rid, _)| {
                            healthy
                                || *rid == NO_RID
                                || cr.is_none_or(|cr| cr.holds(&self.map, *rid, d))
                        })
                        .map(|(key, rid, obj)| (key, (obj, rid)))
                        .collect()
                })
                .collect();
            let merged = iosim_util::merge::merge_sorted(filtered);
            let mut seen: HashSet<u64> = HashSet::new();
            let mut out: Vec<Vec<Value>> = Vec::with_capacity(merged.len());
            let mut kept_rids: Vec<(u64, Vec<Value>)> = Vec::new();
            let mut duplicates_suppressed = 0u64;
            for (_, (obj, rid)) in merged {
                if rid != NO_RID {
                    if !seen.insert(rid) {
                        duplicates_suppressed += 1;
                        continue;
                    }
                    if !healthy {
                        kept_rids.push((rid, obj.clone()));
                    }
                }
                out.push(obj);
            }
            let mut completeness = self.completeness_locked(&repl, container, &live, healthy);
            completeness.rows_returned = out.len();
            completeness.duplicates_suppressed = duplicates_suppressed;
            let mut plan: Vec<(usize, u64, Vec<Value>)> = Vec::new();
            if let Some(cr) = cr {
                for (rid, obj) in &kept_rids {
                    let Some(i) = cr.find(*rid) else {
                        continue;
                    };
                    for &d in self.map.replicas_of(cr.rows[i].shard as usize) {
                        if live[d] && !cr.holds(&self.map, *rid, d) {
                            plan.push((d, *rid, obj.clone()));
                        }
                    }
                }
            }
            drop(repl);
            completeness.read_repairs = self.read_repair(container, plan, at);
            (out, completeness)
        }
    }

    use proptest::prelude::*;

    /// Every key width (one to four words) and every key type.
    fn wide_schema() -> Arc<Schema> {
        Schema::builder("darshan_data")
            .attr("job_id", Type::U64)
            .attr("rank", Type::U64)
            .attr("timestamp", Type::F64)
            .attr("delta", Type::I64)
            .attr("op", Type::Str)
            .index("job_rank_time", &["job_id", "rank", "timestamp"])
            .index("job_time_rank", &["job_id", "timestamp", "rank"])
            .index("time", &["timestamp"])
            .index("delta_time", &["delta", "timestamp"])
            .index(
                "job_delta_rank_time",
                &["job_id", "delta", "rank", "timestamp"],
            )
            .build()
            .unwrap()
    }

    /// Few distinct timestamps, the awkward ones among them: equal index
    /// keys, and keys equal only as `Value::cmp` sees them, are common.
    const TIMESTAMPS: [f64; 8] = [
        f64::NEG_INFINITY,
        -1.5,
        -0.0,
        0.0,
        1.0,
        2.0,
        f64::INFINITY,
        f64::NAN,
    ];
    const DELTAS: [i64; 5] = [i64::MIN, -1, 0, 1, i64::MAX];

    /// A scan bound of `len` components for `index` from raw draws: each
    /// a value of the component's type, or (draws from 36 up) of some
    /// variant chosen without looking at it. Components past the key's
    /// arity are `U64`s.
    fn bound(schema: &Schema, index: &str, len: usize, draws: &[u64]) -> Vec<Value> {
        let attrs = schema.index_def(index).map_or(&[][..], |def| &def.attrs);
        (0..len)
            .map(|j| {
                let draw = draws[j] as usize;
                if draw >= 36 {
                    return [
                        Value::U64(1),
                        Value::I64(0),
                        Value::F64(1.0),
                        Value::Str("w".into()),
                    ][draw % 4]
                        .clone();
                }
                match attrs.get(j).map_or(Type::U64, |&a| schema.attrs()[a].ty) {
                    Type::I64 => Value::I64(DELTAS[draw % DELTAS.len()]),
                    Type::F64 => Value::F64(TIMESTAMPS[draw % TIMESTAMPS.len()]),
                    _ => Value::U64(draw as u64 % 5),
                }
            })
            .collect()
    }

    /// Rows compare by what they print: `F64(NaN) != F64(NaN)`, and a
    /// `-0.0` cell is not the `0.0` cell it equals.
    fn printed<T: std::fmt::Debug>(rows: &T) -> String {
        format!("{rows:?}")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn scans_match_the_clone_and_merge_oracle(
            shape in (1usize..5, 0usize..3, 0usize..3, 0u64..3_000),
            rows in prop::collection::vec(
                ((1u64..4, 0u64..4, 0usize..8, 0usize..5), 0usize..3, 0u64..2_000, 0usize..10),
                0..70,
            ),
            windows in prop::collection::vec((0usize..4, 0u64..2_000, 1u64..900), 0..4),
            queries in prop::collection::vec(
                (
                    (0usize..6, 0usize..3, 0usize..6, 0usize..6),
                    prop::collection::vec(0u64..40, 5),
                    prop::collection::vec(0u64..40, 5),
                    0u64..3_000,
                ),
                1..10,
            ),
        ) {
            // Two clusters built by the same steps: the oracle queries
            // one, the scan the other. Queries repair as they go, so
            // the two stay in step only while every answer is equal.
            let (n, r_draw, w_draw, recover_ms) = shape;
            let r = 1 + r_draw.min(n - 1);
            let cfg = ReplicationConfig::new(r).with_quorum(1 + w_draw.min(r - 1));
            let at = |ms: u64| Epoch::from_nanos(ms * 1_000_000);
            let schema = wide_schema();
            let build = || {
                let cl = DsosCluster::new_replicated(n, cfg).unwrap();
                cl.create_container("darshan", &schema);
                for &(d, from, dur) in &windows {
                    cl.crash_dsosd(d % n, at(from));
                    // Some windows never close.
                    if dur % 5 != 0 {
                        cl.restart_dsosd(d % n, at(from + dur));
                    }
                }
                for &((job, rank, ts, delta), op, at_ms, kind) in &rows {
                    // Few distinct ops too: wholly equal rows are common.
                    let row = vec![
                        Value::U64(job),
                        Value::U64(rank),
                        Value::F64(TIMESTAMPS[ts]),
                        Value::I64(DELTAS[delta]),
                        Value::Str(["read", "write", "open"][op].to_string()),
                    ];
                    match kind {
                        // A direct insert on one daemon: no row id.
                        0 => {
                            let shard = cl.daemon(rank as usize % n).get_container("darshan");
                            shard.unwrap().insert(row).unwrap();
                        }
                        // Rotate every shard's partition, then ingest.
                        1 => {
                            for d in 0..n {
                                cl.daemon(d).get_container("darshan").unwrap().begin_partition();
                            }
                            cl.ingest_at("darshan", row, at(at_ms)).unwrap();
                        }
                        _ => {
                            cl.ingest_at("darshan", row, at(at_ms)).unwrap();
                        }
                    }
                }
                if recover_ms % 2 == 0 {
                    cl.recover(at(recover_ms));
                }
                cl
            };
            let (oracle, scanned) = (build(), build());
            for ((index, kind, from_len, to_len), from, to, at_ms) in &queries {
                let index = schema.indices().get(*index).map_or("no_such_index", |def| &def.name);
                // Bounds of every length from none to one past the
                // key's; a range is over anything (empty and inverted
                // ones too) or inside what its first component selects.
                let from = bound(&schema, index, *from_len, from);
                let mut to = bound(&schema, index, *to_len, to);
                if *kind == 2 && !from.is_empty() && !to.is_empty() {
                    to[0] = from[0].clone();
                }
                let scan = if *kind == 0 { Scan::Prefix(&from) } else { Scan::Range(&from, &to) };
                let at_ms = *at_ms;
                let want = oracle.oracle_query_at("darshan", index, scan, at(at_ms));
                let got = match scan {
                    Scan::Prefix(p) => scanned.query_prefix_at("darshan", index, p, at(at_ms)),
                    Scan::Range(f, t) => scanned.query_range_at("darshan", index, f, t, at(at_ms)),
                };
                prop_assert_eq!(printed(&got), printed(&want), "{:?} on {} at {} ms", scan, index, at_ms);
                // The visitor sees the same rows the adaptor collects.
                let mut visited = Vec::new();
                scanned.scan_at("darshan", index, scan, at(at_ms), |row| visited.push(row.to_vec()));
                let again = oracle.oracle_query_at("darshan", index, scan, at(at_ms)).0;
                prop_assert_eq!(printed(&visited), printed(&again));
                // A shard's own queries collect from the same scan.
                for d in 0..n {
                    let shard = scanned.daemon(d).get_container("darshan").unwrap();
                    let want = shard.oracle_fetch(index, scan).map(|hits| {
                        hits.into_iter().map(|(key, _, obj)| (key, obj)).collect::<Vec<_>>()
                    });
                    let got = match scan {
                        Scan::Prefix(p) => shard.query_prefix(index, p),
                        Scan::Range(f, t) => shard.query_range(index, f, t),
                    };
                    prop_assert_eq!(printed(&got), printed(&want));
                }
            }
            prop_assert_eq!(scanned.read_repair_count(), oracle.read_repair_count());
            prop_assert_eq!(scanned.object_count("darshan"), oracle.object_count("darshan"));
            // A container the cluster never created answers nothing.
            let (rows, c) = scanned.query_prefix_at("nope", "job_rank_time", &[], at(0));
            prop_assert!(rows.is_empty());
            prop_assert_eq!(c.rows_returned, 0);
        }
    }
}
