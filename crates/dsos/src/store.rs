//! One `dsosd` storage daemon: containers, partitions, joint indices.

use crate::replication::NO_RID;
use crate::schema::{IndexDef, IndexKey, Schema};
use crate::value::Value;
use iosim_util::hash::FnvBuildHasher;
use parking_lot::{RwLock, RwLockReadGuard};
use std::collections::{BTreeSet, HashMap};
use std::ops::Bound;
use std::sync::Arc;

/// An object's insertion ordinal within its shard.
type RowNo = u32;

/// One index entry: the object's packed key, then its ordinal, so equal
/// keys stay in insertion order.
type Entry = (IndexKey, RowNo);

/// One joint index: its entries in order, stored at the width of the
/// `N` words the index keys, so an entry costs what its key costs.
/// Words beyond `N` are zero in every key and bound of the index.
trait Index: Send + Sync {
    fn add(&mut self, entry: Entry);
    fn between(&self, range: KeyRange) -> Box<dyn Iterator<Item = Entry> + '_>;
}

impl<const N: usize> Index for BTreeSet<([u64; N], RowNo)> {
    fn add(&mut self, (key, row): Entry) {
        self.insert((narrow(key), row));
    }

    fn between(&self, (lo, hi): KeyRange) -> Box<dyn Iterator<Item = Entry> + '_> {
        let at_width = |bound: Bound<Entry>| bound.map(|(key, row)| (narrow(key), row));
        Box::new(self.range((at_width(lo), at_width(hi))).map(|&(key, row)| {
            let mut wide = IndexKey::default();
            wide[..N].copy_from_slice(&key);
            (wide, row)
        }))
    }
}

fn narrow<const N: usize>(key: IndexKey) -> [u64; N] {
    std::array::from_fn(|word| key[word])
}

/// An empty index as wide as `def`'s key.
fn new_index(def: &IndexDef) -> Box<dyn Index> {
    match def.attrs.len() {
        0 | 1 => Box::new(BTreeSet::<([u64; 1], RowNo)>::new()),
        2 => Box::new(BTreeSet::<([u64; 2], RowNo)>::new()),
        3 => Box::new(BTreeSet::<([u64; 3], RowNo)>::new()),
        _ => Box::new(BTreeSet::<(IndexKey, RowNo)>::new()),
    }
}

/// Everything a shard stores, behind the shard's one lock.
struct ShardState {
    /// Every object with the cluster-global row id it was replicated
    /// under ([`NO_RID`] for direct inserts), by [`RowNo`].
    objects: Vec<(u64, Vec<Value>)>,
    /// One index per `schema.indices()` entry, in that order.
    indices: Vec<Box<dyn Index>>,
    /// Cluster row id → object, for anti-entropy rebuild and read
    /// repair (direct [`NO_RID`] inserts are not tracked).
    by_rid: HashMap<u64, RowNo, FnvBuildHasher>,
    /// First ordinal of each storage partition, the last being the
    /// active one (DSOS rotates partitions for retention; queries span
    /// all of them). Nothing outside the tests rotates one yet.
    #[cfg(test)]
    partitions: Vec<RowNo>,
}

/// One container shard on one daemon.
pub(crate) struct ContainerShard {
    schema: Arc<Schema>,
    state: RwLock<ShardState>,
}

impl ContainerShard {
    fn new(schema: Arc<Schema>) -> Self {
        let indices = schema.indices().iter().map(new_index).collect();
        Self {
            schema,
            state: RwLock::new(ShardState {
                objects: Vec::new(),
                indices,
                by_rid: HashMap::default(),
                #[cfg(test)]
                partitions: vec![0],
            }),
        }
    }

    /// Total stored objects across partitions.
    pub(crate) fn object_count(&self) -> usize {
        self.state.read().objects.len()
    }

    /// Inserts an object the cluster has validated, under its
    /// cluster-global row id, so replicated queries can deduplicate
    /// copies and anti-entropy can locate rows.
    pub(crate) fn insert_tagged(&self, rid: u64, obj: Vec<Value>) {
        let st = &mut *self.state.write();
        let row = RowNo::try_from(st.objects.len()).expect("a shard holds under 2^32 objects");
        for (def, index) in self.schema.indices().iter().zip(st.indices.iter_mut()) {
            index.add((self.schema.pack_key(def, &obj), row));
        }
        st.objects.push((rid, obj));
        if rid != NO_RID {
            st.by_rid.insert(rid, row);
        }
    }

    /// Looks up a row by its cluster-global row id (anti-entropy /
    /// read-repair source path).
    pub(crate) fn fetch_by_rid(&self, rid: u64) -> Option<Vec<Value>> {
        let st = self.state.read();
        let row = *st.by_rid.get(&rid)?;
        Some(st.objects[row as usize].1.clone())
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
        let st = &mut *self.state.write();
        st.partitions.push(st.objects.len() as RowNo);
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
        let pos = self.schema.index_pos(index)?;
        let def = &self.schema.indices()[pos];
        let shard = self.read(pos);
        let rows = scan
            .key_range(&self.schema, def)
            .into_iter()
            .flat_map(|range| shard.hits(range))
            .map(|(_, obj, _)| (self.schema.key_for(def, obj), obj.to_vec()));
        Some(rows.collect())
    }
}

/// What an index scan selects: every key that starts with a prefix
/// (the empty prefix is the whole index), or the half-open key range
/// `from <= key < to` (empty when `from >= to`). Keys compare as
/// [`Value`]'s `Ord` compares them: `-0.0` is `+0.0`, a NaN is every
/// NaN.
#[derive(Debug, Clone, Copy)]
pub enum Scan<'a> {
    /// Keys starting with these leading values.
    Prefix(&'a [Value]),
    /// Keys in `from <= key < to`.
    Range(&'a [Value], &'a [Value]),
}

/// The index entries a scan visits: its bounds, packed.
pub(crate) type KeyRange = (Bound<Entry>, Bound<Entry>);

impl Scan<'_> {
    /// Packs the scan's bounds for `index`, once for every shard it
    /// reads; `None` when no key can lie between them.
    pub(crate) fn key_range(&self, schema: &Schema, index: &IndexDef) -> Option<KeyRange> {
        let (lo, hi) = match *self {
            Scan::Prefix(prefix) => (
                schema.cut(index, prefix, false),
                schema.cut(index, prefix, true),
            ),
            Scan::Range(from, to) => (schema.cut(index, from, false), schema.cut(index, to, false)),
        };
        // `BTreeSet::range` panics on an inverted range.
        (lo < hi).then_some((
            match lo {
                (key, false) => Bound::Included((key, 0)),
                (key, true) => Bound::Excluded((key, RowNo::MAX)),
            },
            match hi {
                (key, false) => Bound::Excluded((key, 0)),
                (key, true) => Bound::Included((key, RowNo::MAX)),
            },
        ))
    }
}

/// One index hit, read in place: `(packed index key, object, cluster
/// row id)`.
pub(crate) type Hit<'a> = (IndexKey, &'a [Value], u64);

/// A shard held for reading (see [`ContainerShard::read`]): hits borrow
/// from it, so nothing is copied until a caller decides to.
pub(crate) struct ShardRead<'a> {
    state: RwLockReadGuard<'a, ShardState>,
    pos: usize,
}

impl ShardRead<'_> {
    /// The objects between `range`'s bounds, in key order, insertion
    /// order among equal keys.
    pub(crate) fn hits(&self, range: KeyRange) -> impl Iterator<Item = Hit<'_>> {
        let objects = &self.state.objects;
        self.state.indices[self.pos]
            .between(range)
            .map(move |(key, row)| {
                let (rid, obj) = &objects[row as usize];
                (key, obj.as_slice(), *rid)
            })
    }
}

/// What the read path cloned out per hit before the in-place scan:
/// `(index key, cluster row id, object)`.
#[cfg(test)]
pub(crate) type TaggedRow = (Vec<Value>, u64, Vec<Value>);

/// A scan as `[Value]` slices define it, worked out from the stored
/// objects alone — no index, no packed key — as the reference the
/// cluster's query proptest compares against.
#[cfg(test)]
impl ContainerShard {
    /// Every stored object whose key `scan` selects, cloned out in key
    /// order, insertion order among equal keys.
    pub(crate) fn oracle_fetch(&self, index: &str, scan: Scan<'_>) -> Option<Vec<TaggedRow>> {
        let def = self.schema.index_def(index)?;
        let st = self.state.read();
        let mut out: Vec<TaggedRow> = st
            .objects
            .iter()
            .map(|(rid, obj)| (self.schema.key_for(def, obj), *rid, obj.clone()))
            .filter(|(key, _, _)| match scan {
                Scan::Prefix(prefix) => {
                    prefix.len() <= key.len() && key[..prefix.len()].cmp(prefix).is_eq()
                }
                Scan::Range(from, to) => from <= key.as_slice() && key.as_slice() < to,
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
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
        assert_eq!(c.state.read().partitions, [0, 1]);
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

    #[test]
    fn bounds_of_every_length_select_what_value_slices_order() {
        // Keys on a grid that includes each word's extremes, so a bound
        // padded with all-zero or all-one words meets stored keys there;
        // every key stored twice. Bounds are every grid key cut to every
        // length from none to one past the key's.
        let d = Dsosd::new("dsosd-0");
        let c = d.container("darshan", &schema());
        let jobs = [0, 7, u64::MAX];
        let times = [f64::NEG_INFINITY, -0.0, 1.5, f64::INFINITY, f64::NAN];
        let mut bounds = vec![Vec::new()];
        for &job in &jobs {
            for rank in [0, u64::MAX] {
                for &t in &times {
                    c.insert(obj(job, rank, t, "a")).unwrap();
                    c.insert(obj(job, rank, t, "b")).unwrap();
                    let by_rank = [Value::U64(job), Value::U64(rank), Value::F64(t)];
                    let by_time = [Value::U64(job), Value::F64(t), Value::U64(rank)];
                    for key in [by_rank, by_time] {
                        bounds.extend((1..=3).map(|len| key[..len].to_vec()));
                        bounds.push([&key[..], &[Value::U64(0)]].concat());
                    }
                }
            }
        }
        bounds.sort();
        bounds.dedup();
        // Either index meets the other's bounds too: wrong variants.
        for index in ["job_rank_time", "job_time_rank"] {
            let check = |scan: Scan<'_>| {
                let want = c.oracle_fetch(index, scan).unwrap();
                let want: Vec<_> = want.into_iter().map(|(key, _, obj)| (key, obj)).collect();
                let got = c.collect(index, scan).unwrap();
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "{scan:?} on {index}"
                );
            };
            for from in &bounds {
                check(Scan::Prefix(from));
                for to in &bounds {
                    check(Scan::Range(from, to));
                }
            }
        }
    }
}
