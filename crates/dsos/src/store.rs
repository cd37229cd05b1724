//! One `dsosd` storage daemon: containers, partitions, joint indices.

use crate::replication::NO_RID;
use crate::row::{Column, RowRef, Symbols};
use crate::schema::{IndexDef, IndexKey, Schema};
use crate::value::Value;
use parking_lot::{RwLock, RwLockReadGuard};
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;

/// An object's insertion ordinal within its shard.
type RowNo = u32;

/// A place in an index's order: a packed key, then an ordinal, so equal
/// keys stay in insertion order.
type Entry = (IndexKey, RowNo);

/// Ordinals an [`Index`] block holds at most: of 256, 512 and 1 024,
/// 512 left the benchmark's store the least peak memory, and a block
/// insert moves at most 2 KiB.
const BLOCK: usize = 512;

/// One joint index as a two-level sorted array of ordinals: blocks of
/// at most [`BLOCK`] ordinals in entry order, and each block's first
/// entry, key and all (its fence). Only the fences keep keys: every
/// other key the index compares is read by `key` from the row an
/// ordinal names, so an entry costs its ordinal. A full block splits
/// where the new entry goes when that is in its upper half, the entry
/// ending the left block, and in the middle otherwise; an entry past a
/// full block's end opens a new block. So an ascending stream leaves
/// its blocks full, however many others it is interleaved with, once it
/// has a block's worth of entries.
#[derive(Default)]
struct Index {
    fences: Vec<Entry>,
    blocks: Vec<Vec<RowNo>>,
}

impl Index {
    /// The first position, as (block, slot), whose entry does not lie
    /// `below` a bound; the slot may be its block's length.
    fn seek(
        &self,
        key: impl Fn(RowNo) -> IndexKey,
        below: impl Fn(Entry) -> bool,
    ) -> (usize, usize) {
        let block = self.fences.partition_point(|&f| below(f)).saturating_sub(1);
        self.blocks.get(block).map_or((0, 0), |b| {
            (block, b.partition_point(|&row| below((key(row), row))))
        })
    }

    fn insert(&mut self, entry: Entry, key: impl Fn(RowNo) -> IndexKey) {
        let below = |row: RowNo| (key(row), row) < entry;
        // Appends to the last block are tried first.
        let mut at = match self.fences.last() {
            Some(&last) if last < entry => self.blocks.len() - 1,
            Some(_) => self
                .fences
                .partition_point(|&f| f < entry)
                .saturating_sub(1),
            None => {
                self.fences.push(entry);
                self.blocks.push(Vec::with_capacity(BLOCK));
                0
            }
        };
        // The slot galloping back from the block's end, its first probe:
        // a late entry lands near the end, among the rows written last.
        let block = &mut self.blocks[at];
        let (mut lo, mut hi, mut step) = (0, block.len(), 1);
        while step <= hi {
            if below(block[hi - step]) {
                lo = hi - step + 1;
                break;
            }
            hi -= step;
            step *= 2;
        }
        let mut slot = lo + block[lo..hi].partition_point(|&row| below(row));
        if block.len() == BLOCK {
            if slot == BLOCK {
                (at, slot) = (at + 1, 0);
                self.fences.insert(at, entry);
                self.blocks.insert(at, Vec::with_capacity(BLOCK));
            } else {
                let mut right = Vec::with_capacity(BLOCK);
                right.extend(block.drain(slot.max(BLOCK / 2)..));
                self.fences.insert(at + 1, (key(right[0]), right[0]));
                self.blocks.insert(at + 1, right);
            }
        }
        self.blocks[at].insert(slot, entry.1);
        if slot == 0 {
            self.fences[at] = entry;
        }
    }

    /// The ordinals between `range`'s bounds, in entry order.
    fn between(
        &self,
        (lo, hi): KeyRange,
        key: impl Fn(RowNo) -> IndexKey,
    ) -> impl Iterator<Item = RowNo> + '_ {
        let start = match lo {
            Bound::Included(e) => self.seek(&key, |x| x < e),
            Bound::Excluded(e) => self.seek(&key, |x| x <= e),
            Bound::Unbounded => (0, 0),
        };
        let end = match hi {
            Bound::Included(e) => self.seek(&key, |x| x <= e),
            Bound::Excluded(e) => self.seek(&key, |x| x < e),
            Bound::Unbounded => self.seek(&key, |_| true),
        };
        let (blocks, last) = if start < end {
            (&self.blocks[start.0..=end.0], end.0 - start.0)
        } else {
            (&[][..], 0)
        };
        blocks.iter().enumerate().flat_map(move |(i, b)| {
            let from = if i == 0 { start.1 } else { 0 };
            let to = if i == last { end.1 } else { b.len() };
            b[from..to].iter().copied()
        })
    }
}

/// Makes room for `additional` more items, growing by a quarter rather
/// than doubling: the cluster's per-row bookkeeping then holds at most a
/// quarter more than it uses, at the price of copying each item about
/// four times as it grows.
pub(crate) fn reserve_frugally<T>(v: &mut Vec<T>, additional: usize) {
    if v.capacity() - v.len() < additional {
        v.reserve_exact(additional.max(v.len() / 4));
    }
}

/// Rows a chunk of a shard's rows holds once full.
const CHUNK_ROWS: usize = 1024;

/// A chunk of a shard's rows, row-major: `row_bytes` bytes a row, each
/// row the row id then one word per attribute, placed as `columns` say.
struct Chunk {
    columns: Vec<Column>,
    row_bytes: usize,
    bytes: Vec<u8>,
}

impl Chunk {
    /// This full chunk, whose words are whole, packed: each column at
    /// the narrowest width of 0, 1, 2, 4 or 8 bytes that holds its words
    /// less their least, which becomes its base. The least is taken in
    /// unsigned or in signed order, whichever leaves the smaller span,
    /// so a column of small numbers and −1s packs as narrow as one of
    /// small numbers alone. Eight bytes of padding let every cell read
    /// as one eight-byte load.
    fn seal(&self) -> Chunk {
        const SIGN: u64 = 1 << 63;
        let rows = || self.bytes.chunks_exact(self.row_bytes);
        // Per column, least and most in unsigned order, then in signed
        // order with the sign bit flipped, so both compare unsigned.
        let mut bounds = vec![[u64::MAX, 0, u64::MAX, 0]; self.columns.len()];
        for row in rows() {
            for (word, [lo, hi, signed_lo, signed_hi]) in whole(row).zip(&mut bounds) {
                (*lo, *hi) = ((*lo).min(word), (*hi).max(word));
                let flipped = word ^ SIGN;
                (*signed_lo, *signed_hi) = ((*signed_lo).min(flipped), (*signed_hi).max(flipped));
            }
        }
        let mut row_bytes = 0;
        let columns: Vec<Column> = bounds
            .iter()
            .map(|&[lo, hi, signed_lo, signed_hi]| {
                let (base, span) = if signed_hi - signed_lo < hi - lo {
                    (signed_lo ^ SIGN, signed_hi - signed_lo)
                } else {
                    (lo, hi - lo)
                };
                let fits = |width: &usize| span >> (8 * width) == 0;
                let width = [0, 1, 2, 4].into_iter().find(fits).unwrap_or(8);
                row_bytes += width;
                Column::new(base, width, row_bytes - width)
            })
            .collect();
        // Each cell is written whole: its bytes past its width are zero,
        // and the next cell, or the padding, takes their place.
        let mut bytes = vec![0; CHUNK_ROWS * row_bytes + 8];
        for (at, row) in rows().enumerate() {
            for (word, col) in whole(row).zip(&columns) {
                let cell = word.wrapping_sub(col.base).to_le_bytes();
                bytes[at * row_bytes + col.offset..][..8].copy_from_slice(&cell);
            }
        }
        Chunk {
            columns,
            row_bytes,
            bytes,
        }
    }
}

/// The words of a row kept whole, in column order.
fn whole(row: &[u8]) -> impl Iterator<Item = u64> + '_ {
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("eight bytes"));
    row.chunks_exact(8).map(word)
}

/// Every row of a shard, by [`RowNo`], in chunks of [`CHUNK_ROWS`] rows,
/// so a row never moves once written and growth never copies what is
/// there. The active chunk keeps every word whole; once full it is
/// sealed — packed into a chunk of its own — and emptied for the next
/// rows. It grows to full size by doubling, so a short shard stays
/// small.
struct Rows {
    sealed: Vec<Chunk>,
    active: Chunk,
}

impl Rows {
    fn new(stride: usize) -> Self {
        Self {
            sealed: Vec::new(),
            active: Chunk {
                columns: (0..stride).map(|c| Column::new(0, 8, 8 * c)).collect(),
                row_bytes: 8 * stride,
                bytes: Vec::new(),
            },
        }
    }

    fn len(&self) -> usize {
        self.sealed.len() * CHUNK_ROWS + self.active.bytes.len() / self.active.row_bytes
    }

    fn push(&mut self, rid: u64, words: &[u64]) {
        let active = &mut self.active;
        let (len, full) = (active.bytes.len(), active.row_bytes * CHUNK_ROWS);
        if active.bytes.capacity() == len {
            active
                .bytes
                .reserve_exact(len.clamp(active.row_bytes, full - len));
        }
        active.bytes.resize(len + active.row_bytes, 0);
        let cells = active.bytes[len..].chunks_exact_mut(8);
        for (cell, word) in cells.zip(std::iter::once(&rid).chain(words)) {
            cell.copy_from_slice(&word.to_le_bytes());
        }
        if active.bytes.len() == full {
            self.sealed.push(active.seal());
            active.bytes.clear();
        }
    }

    /// The chunk holding row `row`, and the row's bytes onward.
    fn locate(&self, row: RowNo) -> (&Chunk, &[u8]) {
        let (chunk, at) = (row as usize / CHUNK_ROWS, row as usize % CHUNK_ROWS);
        let chunk = self.sealed.get(chunk).unwrap_or(&self.active);
        (chunk, &chunk.bytes[at * chunk.row_bytes..])
    }

    /// Row `row`'s id, its attributes' columns, and its bytes onward.
    fn get(&self, row: RowNo) -> (u64, &[Column], &[u8]) {
        let (chunk, bytes) = self.locate(row);
        (chunk.columns[0].word(bytes), &chunk.columns[1..], bytes)
    }

    /// Row `row`'s key in index `def`, read from its stored words alone.
    fn key(&self, schema: &Schema, def: &IndexDef, row: RowNo) -> IndexKey {
        let (chunk, bytes) = self.locate(row);
        schema.pack_key(def, |attr| chunk.columns[1 + attr].word(bytes))
    }
}

/// Everything a shard stores, behind the shard's one lock.
struct ShardState {
    /// Every row with its row id in the container ([`NO_RID`] for
    /// direct inserts).
    rows: Rows,
    /// One index per `schema.indices()` entry, in that order.
    indices: Vec<Index>,
    /// The container's row ids this shard physically holds, one bit
    /// each, so rebuild and read repair never store a second copy. A
    /// crash clears none: the cluster's arrival slots say which copies
    /// count.
    held: Vec<u64>,
    /// First ordinal of each storage partition, the last being the
    /// active one (DSOS rotates partitions for retention; queries span
    /// all of them). Nothing outside the tests rotates one yet.
    #[cfg(test)]
    partitions: Vec<RowNo>,
}

/// One container shard on one daemon. Its rows are words; the strings
/// they name live in the container's symbols, which the cluster keeps.
pub(crate) struct ContainerShard {
    schema: Arc<Schema>,
    state: RwLock<ShardState>,
}

impl ContainerShard {
    fn new(schema: Arc<Schema>) -> Self {
        Self {
            state: RwLock::new(ShardState {
                rows: Rows::new(1 + schema.attrs().len()),
                indices: schema.indices().iter().map(|_| Index::default()).collect(),
                held: Vec::new(),
                #[cfg(test)]
                partitions: vec![0],
            }),
            schema,
        }
    }

    /// Total stored objects across partitions.
    pub(crate) fn object_count(&self) -> usize {
        self.state.read().rows.len()
    }

    /// Stores the words of a row the cluster has validated and encoded,
    /// under its row id, so replicated queries can deduplicate copies
    /// and anti-entropy can locate rows.
    pub(crate) fn insert_tagged(&self, rid: u64, words: &[u64]) {
        let st = &mut *self.state.write();
        let row = RowNo::try_from(st.rows.len()).expect("a shard holds under 2^32 objects");
        let (schema, rows) = (&*self.schema, &st.rows);
        for (def, index) in schema.indices().iter().zip(&mut st.indices) {
            let entry = (schema.pack_key(def, |attr| words[attr]), row);
            index.insert(entry, |row| rows.key(schema, def, row));
        }
        st.rows.push(rid, words);
        if rid != NO_RID {
            let word = (rid / 64) as usize;
            if st.held.len() <= word {
                st.held.resize(word + 1, 0);
            }
            st.held[word] |= 1 << (rid % 64);
        }
    }

    /// Fills each still empty `words[i]` with the words of row `rids[i]`
    /// if this shard holds it, in one pass over its rows (anti-entropy
    /// source path). `rids` ascends.
    pub(crate) fn fetch_rows(&self, rids: &[u64], words: &mut [Option<Vec<u64>>]) {
        let st = self.state.read();
        for row in 0..st.rows.len() as RowNo {
            let (rid, columns, row) = st.rows.get(row);
            if let Ok(i) = rids.binary_search(&rid) {
                words[i].get_or_insert_with(|| columns.iter().map(|c| c.word(row)).collect());
            }
        }
    }

    /// Whether this shard physically holds a row id.
    pub(crate) fn has_rid(&self, rid: u64) -> bool {
        let held = self.state.read().held.get((rid / 64) as usize).copied();
        held.is_some_and(|word| word >> (rid % 64) & 1 == 1)
    }

    /// Holds the shard for reading through index `pos` (a position in
    /// `schema.indices()`).
    pub(crate) fn read(&self, pos: usize) -> ShardRead<'_> {
        ShardRead {
            schema: &self.schema,
            state: self.state.read(),
            pos,
        }
    }
}

/// Direct shard access for the unit tests; everything else reaches a
/// shard through the cluster, which validates, encodes and tags its rows
/// and keeps the container's symbols.
#[cfg(test)]
impl ContainerShard {
    /// A copy of the words of a row, by its row id.
    pub(crate) fn fetch_by_rid(&self, rid: u64) -> Option<Vec<u64>> {
        let mut words = [None];
        self.fetch_rows(&[rid], &mut words);
        words[0].take()
    }

    /// Starts a new active partition.
    pub(crate) fn begin_partition(&self) {
        let st = &mut *self.state.write();
        st.partitions.push(st.rows.len() as RowNo);
    }

    /// Inserts an object: validates, encodes its strings into `symbols`,
    /// appends it to the active partition, and updates every joint index.
    pub(crate) fn insert(
        &self,
        symbols: &mut Symbols,
        obj: &[Value],
    ) -> Result<(), crate::schema::SchemaError> {
        self.schema.validate(obj)?;
        let cells = obj.iter().map(Value::as_ref).enumerate();
        let words: Vec<u64> = cells
            .map(|(col, v)| crate::row::encode(v, col, symbols))
            .collect();
        self.insert_tagged(NO_RID, &words);
        Ok(())
    }

    /// The objects `scan` selects, as `(key, object)` in key order.
    pub(crate) fn collect(
        &self,
        symbols: &Symbols,
        index: &str,
        scan: Scan<'_>,
    ) -> Option<Vec<(Vec<Value>, Vec<Value>)>> {
        let pos = self.schema.index_pos(index)?;
        let def = &self.schema.indices()[pos];
        let shard = self.read(pos);
        let rows = scan
            .key_range(&self.schema, def)
            .into_iter()
            .flat_map(|range| shard.hits(range, symbols))
            .map(|(_, row, _)| {
                let obj = row.to_values();
                (self.schema.key_for(def, &obj), obj)
            });
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
        // Bounds that meet or cross select nothing: no shard need search.
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

/// One index hit, read in place: `(packed index key, row, row id)`.
pub(crate) type Hit<'a> = (IndexKey, RowRef<'a>, u64);

/// A shard held for reading (see [`ContainerShard::read`]): hits borrow
/// from it, so nothing is copied until a caller decides to.
pub(crate) struct ShardRead<'a> {
    schema: &'a Schema,
    state: RwLockReadGuard<'a, ShardState>,
    pos: usize,
}

impl ShardRead<'_> {
    /// The rows between `range`'s bounds, in key order, insertion order
    /// among equal keys, their strings read from `symbols`.
    pub(crate) fn hits<'s>(
        &'s self,
        range: KeyRange,
        symbols: &'s Symbols,
    ) -> impl Iterator<Item = Hit<'s>> {
        let (schema, rows) = (self.schema, &self.state.rows);
        let def = &schema.indices()[self.pos];
        self.state.indices[self.pos]
            .between(range, |row| rows.key(schema, def, row))
            .map(move |row| {
                let (rid, columns, bytes) = rows.get(row);
                let key = rows.key(schema, def, row);
                (key, RowRef::new(schema, symbols, columns, bytes), rid)
            })
    }
}

/// What the read path cloned out per hit before the in-place scan:
/// `(index key, row id, object)`.
#[cfg(test)]
pub(crate) type TaggedRow = (Vec<Value>, u64, Vec<Value>);

/// A scan as `[Value]` slices define it, worked out from the stored
/// objects alone — no index, no packed key — as the reference the
/// cluster's query proptest compares against.
#[cfg(test)]
impl ContainerShard {
    /// Every stored object whose key `scan` selects, cloned out in key
    /// order, insertion order among equal keys.
    pub(crate) fn oracle_fetch(
        &self,
        symbols: &Symbols,
        index: &str,
        scan: Scan<'_>,
    ) -> Option<Vec<TaggedRow>> {
        let def = self.schema.index_def(index)?;
        let st = self.state.read();
        let mut out: Vec<TaggedRow> = (0..st.rows.len() as RowNo)
            .map(|row| {
                let (rid, columns, row) = st.rows.get(row);
                let obj = RowRef::new(&self.schema, symbols, columns, row).to_values();
                (self.schema.key_for(def, &obj), rid, obj)
            })
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
    use crate::schema::SchemaError;
    use crate::value::Type;
    use std::collections::BTreeSet;

    impl ContainerShard {
        /// Each stored row's id and the key each index reads from it, in
        /// the order the shard took them.
        pub(crate) fn stored_keys(&self) -> Vec<(u64, Vec<IndexKey>)> {
            let (st, schema) = (self.state.read(), &*self.schema);
            let keys = |row| {
                let defs = schema.indices().iter();
                defs.map(|def| st.rows.key(schema, def, row)).collect()
            };
            let rows = 0..st.rows.len() as RowNo;
            rows.map(|row| (st.rows.get(row).0, keys(row))).collect()
        }
    }

    /// A shard on its own, with the symbols its cluster would keep.
    struct Fixture {
        c: Arc<ContainerShard>,
        symbols: Symbols,
    }

    impl Fixture {
        fn new() -> Self {
            Self {
                c: Dsosd::new("dsosd-0").container("darshan", &schema()),
                symbols: Symbols::default(),
            }
        }

        fn insert(&mut self, obj: Vec<Value>) -> Result<(), SchemaError> {
            self.c.insert(&mut self.symbols, &obj)
        }

        fn collect(&self, index: &str, scan: Scan<'_>) -> Option<Vec<(Vec<Value>, Vec<Value>)>> {
            self.c.collect(&self.symbols, index, scan)
        }

        fn query_prefix(
            &self,
            index: &str,
            prefix: &[Value],
        ) -> Option<Vec<(Vec<Value>, Vec<Value>)>> {
            self.collect(index, Scan::Prefix(prefix))
        }
    }

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
        let mut c = Fixture::new();
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
        let mut c = Fixture::new();
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
        let mut c = Fixture::new();
        for t in 0..10 {
            c.insert(obj(1, 0, t as f64, "w")).unwrap();
        }
        let from = [Value::U64(1), Value::F64(3.0)];
        let to = [Value::U64(1), Value::F64(7.0)];
        let rows = c.collect("job_time_rank", Scan::Range(&from, &to)).unwrap();
        assert_eq!(rows.len(), 4); // t = 3,4,5,6
    }

    #[test]
    fn invalid_objects_rejected() {
        let mut c = Fixture::new();
        assert!(c.insert(vec![Value::U64(1)]).is_err());
        assert!(c
            .insert(vec![
                Value::Str("x".into()),
                Value::U64(0),
                Value::F64(0.0),
                Value::Str("w".into())
            ])
            .is_err());
        assert_eq!(c.c.object_count(), 0);
    }

    #[test]
    fn partitions_rotate_but_queries_span_all() {
        let mut c = Fixture::new();
        c.insert(obj(1, 0, 1.0, "w")).unwrap();
        c.c.begin_partition();
        c.insert(obj(1, 0, 2.0, "w")).unwrap();
        assert_eq!(c.c.state.read().partitions, [0, 1]);
        let rows = c.query_prefix("job_rank_time", &[Value::U64(1)]).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn duplicate_keys_keep_all_objects() {
        let mut c = Fixture::new();
        c.insert(obj(1, 0, 5.0, "a")).unwrap();
        c.insert(obj(1, 0, 5.0, "b")).unwrap();
        let rows = c.query_prefix("job_rank_time", &[Value::U64(1)]).unwrap();
        assert_eq!(rows.len(), 2);
        // Insertion order preserved among equal keys.
        assert_eq!(rows[0].1[3], Value::Str("a".into()));
        assert_eq!(rows[1].1[3], Value::Str("b".into()));
    }

    #[test]
    fn rows_read_back_across_chunks() {
        let minus_one_or = |i: u64| if i % 3 == 0 { u64::MAX } else { i };
        let words = |i: u64| {
            let hashed = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            [i << 20, 7, hashed, minus_one_or(i)]
        };
        let mut rows = Rows::new(5);
        let n = 2 * CHUNK_ROWS as u64 + 5;
        for i in 0..n {
            rows.push(i, &words(i));
        }
        assert_eq!(rows.len() as u64, n);
        assert_eq!(rows.active.bytes.capacity(), 5 * 8 * CHUNK_ROWS);
        // Sealed: row ids in two bytes, shifted words in four, the
        // constant in none, hashed ones whole, −1s among small numbers
        // in two; the padding and no more.
        for chunk in &rows.sealed {
            assert_eq!(chunk.row_bytes, 2 + 4 + 8 + 2);
            assert_eq!(chunk.bytes.capacity(), 16 * CHUNK_ROWS + 8);
        }
        for i in 0..n {
            let (rid, columns, row) = rows.get(i as RowNo);
            let got: Vec<u64> = columns.iter().map(|c| c.word(row)).collect();
            assert_eq!((rid, &got[..]), (i, &words(i)[..]));
        }
    }

    #[test]
    fn unknown_index_returns_none() {
        let c = Fixture::new();
        assert!(c.query_prefix("nope", &[]).is_none());
    }

    #[test]
    fn bounds_of_every_length_select_what_value_slices_order() {
        // Keys on a grid that includes each word's extremes, so a bound
        // padded with all-zero or all-one words meets stored keys there;
        // every key stored twice. Bounds are every grid key cut to every
        // length from none to one past the key's.
        let mut c = Fixture::new();
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
                let want = c.c.oracle_fetch(&c.symbols, index, scan).unwrap();
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

    /// What `BTreeSet::range` yields for a range, and nothing for one it
    /// refuses as inverted.
    fn model_range(model: &BTreeSet<Entry>, (lo, hi): KeyRange) -> Vec<RowNo> {
        let inverted = match (lo, hi) {
            (Bound::Included(a), Bound::Included(b)) => a > b,
            (Bound::Included(a) | Bound::Excluded(a), Bound::Included(b) | Bound::Excluded(b)) => {
                a >= b
            }
            _ => false,
        };
        if inverted {
            return Vec::new();
        }
        model.range((lo, hi)).map(|&(_, row)| row).collect()
    }

    /// Indexes a row table (row `i` under `keys[i]`, its words past
    /// `width` zero) in an [`Index`] that reads its keys from the table
    /// and in the `BTreeSet` it replaced, checks the blocks' shape, and
    /// compares `between` over ranges whose bounds are each block's
    /// first and last entry and the `probes`, each bound included and
    /// excluded: empty, one-entry, short, inverted and open-ended ranges.
    fn check_against_btree(keys: &[IndexKey], width: usize, probes: &[Entry], seed: u64) {
        let at_width = |(mut key, row): Entry| {
            key[width..].fill(0);
            (key, row)
        };
        let keys: Vec<IndexKey> = keys.iter().map(|&k| at_width((k, 0)).0).collect();
        let key = |row: RowNo| keys[row as usize];
        let mut index = Index::default();
        let mut model = BTreeSet::new();
        for (row, &k) in keys.iter().enumerate() {
            index.insert((k, row as RowNo), key);
            model.insert((k, row as RowNo));
        }
        assert_eq!(index.fences.len(), index.blocks.len());
        for (&fence, block) in index.fences.iter().zip(&index.blocks) {
            assert!((1..=BLOCK).contains(&block.len()));
            assert_eq!(fence, (key(block[0]), block[0]));
        }
        let edges = index.blocks.iter().flat_map(|b| [b[0], b[b.len() - 1]]);
        let mut points: Vec<Entry> = edges.map(|row| (key(row), row)).collect();
        points.extend(probes.iter().map(|&p| at_width(p)));
        points.sort();
        let bounds: Vec<Bound<Entry>> = points
            .iter()
            .flat_map(|&p| [Bound::Included(p), Bound::Excluded(p)])
            .chain([Bound::Unbounded])
            .collect();
        let check = |range: KeyRange| {
            let got: Vec<RowNo> = index.between(range, key).collect();
            assert_eq!(got, model_range(&model, range), "{range:?}");
        };
        let mut z = seed;
        for (i, &lo) in bounds.iter().enumerate() {
            for step in [0, 1, 2, 5] {
                let hi = bounds[(i + step).min(bounds.len() - 1)];
                check((lo, hi));
                check((hi, lo));
            }
            z = z.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            check((lo, bounds[(z >> 33) as usize % bounds.len()]));
        }
        check((Bound::Unbounded, Bound::Unbounded));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Random, ascending and interleaved-stream orders (1 to 4 096
        /// streams, each ascending), with runs of equal keys up to four
        /// blocks long; three-word keys, and one-word keys over the
        /// third word, as the `time` index keys.
        #[test]
        fn blocks_range_like_the_btree_they_replace(
            shape in (0usize..3, 0u32..13, 0usize..4_000, 0u32..12),
            seed in proptest::prelude::any::<u64>(),
            probes in proptest::collection::vec(
                (0usize..4_000, proptest::prelude::any::<u64>()),
                0..16,
            ),
        ) {
            let (order, streams_log, n, run_log) = shape;
            let streams = (1usize << streams_log) + seed as usize % 3;
            let streams = streams.min(4_096);
            let run = 1usize << run_log;
            let mut z = seed;
            let mut next = || {
                z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let x = (z ^ z >> 30).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x ^ x >> 31
            };
            let keys: Vec<IndexKey> = (0..n)
                .map(|i| match order {
                    0 => [next() % 4, next() % 64, next() % (n / run + 1) as u64, 0],
                    1 => [7, (i / run) as u64, 0, 0],
                    _ => [7, (i % streams) as u64, (i / streams / run) as u64, 0],
                })
                .collect();
            // Probes: stored keys at either end of their run of equal
            // keys and at a stored row, and a key drawn at random.
            let probes: Vec<Entry> = probes
                .iter()
                .flat_map(|&(at, word)| {
                    let key = keys.get(at).copied().unwrap_or([word; 4]);
                    [(key, 0), (key, RowNo::MAX), (key, at as RowNo), ([word; 4], 0)]
                })
                .collect();
            check_against_btree(&keys, 3, &probes, seed);
            let time = |k: &IndexKey| [k[2], 0, 0, 0];
            let probes: Vec<Entry> = probes.iter().map(|(k, row)| (time(k), *row)).collect();
            check_against_btree(&keys.iter().map(time).collect::<Vec<_>>(), 1, &probes, seed);
        }
    }
}
