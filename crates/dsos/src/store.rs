//! One `dsosd` storage daemon: containers, partitions, joint indices.

use crate::replication::NO_RID;
use crate::schema::Schema;
use crate::value::Value;
use parking_lot::{RwLock, RwLockReadGuard};
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::Arc;

/// Location of an object: (partition index, offset within partition).
type ObjLoc = (usize, usize);

/// An index: ordered composite key → object locations.
type IndexMap = BTreeMap<Vec<Value>, Vec<ObjLoc>>;

/// A storage partition (DSOS rotates partitions for retention;
/// queries span all of them). `rids` parallels `objects`: the
/// cluster-global row id each object was replicated under, or
/// [`NO_RID`] for direct inserts.
#[derive(Debug, Default)]
struct Partition {
    objects: Vec<Vec<Value>>,
    rids: Vec<u64>,
}

/// Everything a shard stores, behind the shard's one lock.
struct ShardState {
    /// The last partition is the active one.
    partitions: Vec<Partition>,
    /// One index per `schema.indices()` entry, in that order: ordered
    /// key → object locations (insertion order preserved within equal
    /// keys).
    indices: Vec<IndexMap>,
    /// Cluster row id → location, for anti-entropy rebuild and read
    /// repair (direct [`NO_RID`] inserts are not tracked).
    by_rid: HashMap<u64, ObjLoc>,
}

/// One container shard on one daemon.
pub(crate) struct ContainerShard {
    schema: Arc<Schema>,
    state: RwLock<ShardState>,
}

impl ContainerShard {
    fn new(schema: Arc<Schema>) -> Self {
        let indices = schema.indices().iter().map(|_| BTreeMap::new()).collect();
        Self {
            schema,
            state: RwLock::new(ShardState {
                partitions: vec![Partition::default()],
                indices,
                by_rid: HashMap::new(),
            }),
        }
    }

    /// Total stored objects across partitions.
    pub(crate) fn object_count(&self) -> usize {
        let st = self.state.read();
        st.partitions.iter().map(|p| p.objects.len()).sum()
    }

    /// Inserts an object the cluster has validated, under its
    /// cluster-global row id, so replicated queries can deduplicate
    /// copies and anti-entropy can locate rows.
    pub(crate) fn insert_tagged(&self, rid: u64, obj: Vec<Value>) {
        let st = &mut *self.state.write();
        let pidx = st.partitions.len() - 1;
        let off = st.partitions[pidx].objects.len();
        for (def, index) in self.schema.indices().iter().zip(st.indices.iter_mut()) {
            let key = self.schema.key_for(def, &obj);
            index.entry(key).or_default().push((pidx, off));
        }
        st.partitions[pidx].objects.push(obj);
        st.partitions[pidx].rids.push(rid);
        if rid != NO_RID {
            st.by_rid.insert(rid, (pidx, off));
        }
    }

    /// Looks up a row by its cluster-global row id (anti-entropy /
    /// read-repair source path).
    pub(crate) fn fetch_by_rid(&self, rid: u64) -> Option<Vec<Value>> {
        let st = self.state.read();
        let (part, off) = *st.by_rid.get(&rid)?;
        Some(st.partitions[part].objects[off].clone())
    }

    /// Whether this shard physically holds a row id.
    pub(crate) fn has_rid(&self, rid: u64) -> bool {
        self.state.read().by_rid.contains_key(&rid)
    }

    /// Holds the shard for reading through index `pos` (a position in
    /// `schema.indices()`).
    pub(crate) fn read(&self, pos: usize) -> ShardRead<'_> {
        ShardRead {
            state: self.state.read(),
            pos,
        }
    }
}

/// Direct shard access for the unit tests; everything else reaches a
/// shard through the cluster, which validates and tags its rows.
#[cfg(test)]
impl ContainerShard {
    /// Starts a new active partition.
    pub(crate) fn begin_partition(&self) {
        self.state.write().partitions.push(Partition::default());
    }

    /// Inserts an object: validates, appends to the active partition,
    /// and updates every joint index.
    pub(crate) fn insert(&self, obj: Vec<Value>) -> Result<(), crate::schema::SchemaError> {
        self.schema.validate(&obj)?;
        self.insert_tagged(NO_RID, obj);
        Ok(())
    }

    /// Objects whose index key starts with `prefix`, as `(key, object)`
    /// in key order. An empty prefix scans the whole index.
    pub(crate) fn query_prefix(
        &self,
        index: &str,
        prefix: &[Value],
    ) -> Option<Vec<(Vec<Value>, Vec<Value>)>> {
        self.collect(index, Scan::Prefix(prefix))
    }

    /// Objects with `from <= key < to`, as `(key, object)` in key order.
    pub(crate) fn query_range(
        &self,
        index: &str,
        from: &[Value],
        to: &[Value],
    ) -> Option<Vec<(Vec<Value>, Vec<Value>)>> {
        self.collect(index, Scan::Range(from, to))
    }

    fn collect(&self, index: &str, scan: Scan<'_>) -> Option<Vec<(Vec<Value>, Vec<Value>)>> {
        let shard = self.read(self.schema.index_pos(index)?);
        let rows = shard
            .hits(scan)
            .map(|(key, obj, _)| (key.clone(), obj.clone()));
        Some(rows.collect())
    }
}

/// What an index scan selects: every key that starts with a prefix
/// (the empty prefix is the whole index), or the half-open key range
/// `from <= key < to` (empty when `from >= to`).
#[derive(Debug, Clone, Copy)]
pub enum Scan<'a> {
    /// Keys starting with these leading values.
    Prefix(&'a [Value]),
    /// Keys in `from <= key < to`.
    Range(&'a [Value], &'a [Value]),
}

/// One index hit, read in place: `(index key, object, cluster row id)`.
pub(crate) type Hit<'a> = (&'a Vec<Value>, &'a Vec<Value>, u64);

/// A shard held for reading (see [`ContainerShard::read`]): hits borrow
/// from it, so nothing is copied until a caller decides to.
pub(crate) struct ShardRead<'a> {
    state: RwLockReadGuard<'a, ShardState>,
    pos: usize,
}

impl ShardRead<'_> {
    /// The objects `scan` selects, in key order, insertion order among
    /// equal keys.
    pub(crate) fn hits<'s>(&'s self, scan: Scan<'s>) -> impl Iterator<Item = Hit<'s>> {
        let (from, to, prefix) = match scan {
            Scan::Prefix(prefix) => (prefix, Bound::Unbounded, prefix),
            // `BTreeMap::range` panics on an inverted range; `from..from`
            // is the empty one it accepts.
            Scan::Range(from, to) => (from, Bound::Excluded(to.max(from)), &[][..]),
        };
        let parts = &self.state.partitions;
        self.state.indices[self.pos]
            .range::<[Value], _>((Bound::Included(from), to))
            .take_while(move |(key, _)| key.starts_with(prefix))
            .flat_map(move |(key, locs)| {
                locs.iter().map(move |&(part, off)| {
                    let part = &parts[part];
                    (key, &part.objects[off], part.rids[off])
                })
            })
    }
}

/// What the read path cloned out per hit before the in-place scan:
/// `(index key, cluster row id, object)`.
#[cfg(test)]
pub(crate) type TaggedRow = (Vec<Value>, u64, Vec<Value>);

/// That read path, kept as the reference the cluster's query proptest
/// compares against.
#[cfg(test)]
impl ContainerShard {
    /// Clones every hit out.
    pub(crate) fn oracle_fetch(&self, index: &str, scan: Scan<'_>) -> Option<Vec<TaggedRow>> {
        let pos = self.schema.index_pos(index)?;
        let st = self.state.read();
        let (indices, parts) = (&st.indices, &st.partitions);
        let hits: Box<dyn Iterator<Item = (&Vec<Value>, &Vec<ObjLoc>)>> = match scan {
            Scan::Prefix(prefix) => Box::new(
                indices[pos]
                    .range(prefix.to_vec()..)
                    .take_while(move |(key, _)| key.starts_with(prefix)),
            ),
            Scan::Range(from, to) if from >= to => return Some(Vec::new()),
            Scan::Range(from, to) => Box::new(indices[pos].range(from.to_vec()..to.to_vec())),
        };
        let mut out = Vec::new();
        for (key, locs) in hits {
            for &(part, off) in locs {
                let part = &parts[part];
                out.push((key.clone(), part.rids[off], part.objects[off].clone()));
            }
        }
        Some(out)
    }
}

/// One DSOS storage daemon holding container shards.
pub struct Dsosd {
    name: String,
    containers: RwLock<HashMap<String, Arc<ContainerShard>>>,
}

impl Dsosd {
    /// Creates a daemon.
    pub(crate) fn new(name: &str) -> Arc<Self> {
        Arc::new(Self {
            name: name.to_string(),
            containers: RwLock::new(HashMap::new()),
        })
    }

    /// The daemon name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Creates (or returns) a container with the given schema.
    pub(crate) fn container(&self, name: &str, schema: &Arc<Schema>) -> Arc<ContainerShard> {
        self.containers
            .write()
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(ContainerShard::new(schema.clone())))
            .clone()
    }

    /// Looks up an existing container.
    #[cfg(test)]
    pub(crate) fn get_container(&self, name: &str) -> Option<Arc<ContainerShard>> {
        self.containers.read().get(name).cloned()
    }

    /// Total objects across all containers (monitoring).
    pub fn object_count(&self) -> usize {
        self.containers
            .read()
            .values()
            .map(|c| c.object_count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::Type;

    fn schema() -> Arc<Schema> {
        Schema::builder("darshan_data")
            .attr("job_id", Type::U64)
            .attr("rank", Type::U64)
            .attr("timestamp", Type::F64)
            .attr("op", Type::Str)
            .index("job_rank_time", &["job_id", "rank", "timestamp"])
            .index("job_time_rank", &["job_id", "timestamp", "rank"])
            .build()
            .unwrap()
    }

    fn obj(job: u64, rank: u64, t: f64, op: &str) -> Vec<Value> {
        vec![
            Value::U64(job),
            Value::U64(rank),
            Value::F64(t),
            Value::Str(op.into()),
        ]
    }

    #[test]
    fn insert_and_query_by_prefix() {
        let d = Dsosd::new("dsosd-0");
        let c = d.container("darshan", &schema());
        c.insert(obj(1, 0, 10.0, "write")).unwrap();
        c.insert(obj(1, 1, 11.0, "write")).unwrap();
        c.insert(obj(2, 0, 12.0, "read")).unwrap();
        // All of job 1, ordered by (rank, time).
        let rows = c.query_prefix("job_rank_time", &[Value::U64(1)]).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].1[1], Value::U64(0));
        assert_eq!(rows[1].1[1], Value::U64(1));
        // Rank 0 of job 1 only.
        let rows = c
            .query_prefix("job_rank_time", &[Value::U64(1), Value::U64(0)])
            .unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn alternate_index_changes_order() {
        let d = Dsosd::new("dsosd-0");
        let c = d.container("darshan", &schema());
        c.insert(obj(1, 5, 10.0, "w")).unwrap();
        c.insert(obj(1, 0, 20.0, "w")).unwrap();
        // job_rank_time: rank 0 first (rank is more significant).
        let by_rank = c.query_prefix("job_rank_time", &[Value::U64(1)]).unwrap();
        assert_eq!(by_rank[0].1[1], Value::U64(0));
        // job_time_rank: t=10 first.
        let by_time = c.query_prefix("job_time_rank", &[Value::U64(1)]).unwrap();
        assert_eq!(by_time[0].1[2], Value::F64(10.0));
    }

    #[test]
    fn range_query_bounds_are_half_open() {
        let d = Dsosd::new("dsosd-0");
        let c = d.container("darshan", &schema());
        for t in 0..10 {
            c.insert(obj(1, 0, t as f64, "w")).unwrap();
        }
        let rows = c
            .query_range(
                "job_time_rank",
                &[Value::U64(1), Value::F64(3.0)],
                &[Value::U64(1), Value::F64(7.0)],
            )
            .unwrap();
        assert_eq!(rows.len(), 4); // t = 3,4,5,6
    }

    #[test]
    fn invalid_objects_rejected() {
        let d = Dsosd::new("dsosd-0");
        let c = d.container("darshan", &schema());
        assert!(c.insert(vec![Value::U64(1)]).is_err());
        assert!(c
            .insert(vec![
                Value::Str("x".into()),
                Value::U64(0),
                Value::F64(0.0),
                Value::Str("w".into())
            ])
            .is_err());
        assert_eq!(c.object_count(), 0);
    }

    #[test]
    fn partitions_rotate_but_queries_span_all() {
        let d = Dsosd::new("dsosd-0");
        let c = d.container("darshan", &schema());
        c.insert(obj(1, 0, 1.0, "w")).unwrap();
        c.begin_partition();
        c.insert(obj(1, 0, 2.0, "w")).unwrap();
        assert_eq!(c.state.read().partitions.len(), 2);
        let rows = c.query_prefix("job_rank_time", &[Value::U64(1)]).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn duplicate_keys_keep_all_objects() {
        let d = Dsosd::new("dsosd-0");
        let c = d.container("darshan", &schema());
        c.insert(obj(1, 0, 5.0, "a")).unwrap();
        c.insert(obj(1, 0, 5.0, "b")).unwrap();
        let rows = c.query_prefix("job_rank_time", &[Value::U64(1)]).unwrap();
        assert_eq!(rows.len(), 2);
        // Insertion order preserved among equal keys.
        assert_eq!(rows[0].1[3], Value::Str("a".into()));
        assert_eq!(rows[1].1[3], Value::Str("b".into()));
    }

    #[test]
    fn unknown_index_returns_none() {
        let d = Dsosd::new("dsosd-0");
        let c = d.container("darshan", &schema());
        assert!(c.query_prefix("nope", &[]).is_none());
    }
}
