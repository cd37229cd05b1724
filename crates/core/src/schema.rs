//! The DSOS `darshan_data` schema and the DSOS-backed stream store.
//!
//! "To sort through the published LDMS Streams data, combinations of
//! the job ID, rank and timestamp are used to create joint indices …
//! An example of this is using `job_rank_time` which will order the
//! data by job, rank then timestamp" (Section IV.D). The schema's 24
//! attributes are exactly the CSV columns of Figure 3.

use dsos_sim::{BatchAck, DsosCluster, Schema, Type, Value, ValueRef};
use iosim_util::json::{ParseError, Scanner, Token};
use ldms_sim::store::field_to_string;
use ldms_sim::{DeliveryLedger, SeqRanges, StreamMessage, StreamSink};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Column names and types of the `darshan_data` schema, in Figure 3
/// order.
pub const COLUMNS: [(&str, Type); 24] = [
    ("module", Type::Str),
    ("uid", Type::U64),
    ("ProducerName", Type::Str),
    ("switches", Type::I64),
    ("file", Type::Str),
    ("rank", Type::U64),
    ("flushes", Type::I64),
    ("record_id", Type::U64),
    ("exe", Type::Str),
    ("max_byte", Type::I64),
    ("type", Type::Str),
    ("job_id", Type::U64),
    ("op", Type::Str),
    ("cnt", Type::U64),
    ("seg_off", Type::I64),
    ("seg_pt_sel", Type::I64),
    ("seg_dur", Type::F64),
    ("seg_len", Type::I64),
    ("seg_ndims", Type::I64),
    ("seg_reg_hslab", Type::I64),
    ("seg_irreg_hslab", Type::I64),
    ("seg_data_set", Type::Str),
    ("seg_npoints", Type::I64),
    ("seg_timestamp", Type::F64),
];

/// Positions in [`COLUMNS`] of the fields the per-row decoders read —
/// the one event decoder, `hpcws_sim::online::OnlineEvent::decode`,
/// which the detector tap and the trace lints share — so they index a
/// row directly instead of scanning the name table per field. A unit
/// test pins each to [`column_id`].
pub mod col {
    pub const MODULE: usize = 0;
    pub const PRODUCER_NAME: usize = 2;
    pub const FILE: usize = 4;
    pub const RANK: usize = 5;
    pub const RECORD_ID: usize = 7;
    pub const JOB_ID: usize = 11;
    pub const OP: usize = 12;
    pub const SEG_OFF: usize = 14;
    pub const SEG_DUR: usize = 16;
    pub const SEG_LEN: usize = 17;
    pub const SEG_TIMESTAMP: usize = 23;
}

/// The container name used throughout the pipeline.
pub const CONTAINER: &str = "darshan";

/// Columns of the `darshan_summary` schema: one row per overload
/// summary sketch — a per-(job, rank, window) stand-in for the bulk
/// events the adaptive sampler folded under storm load.
pub const SUMMARY_COLUMNS: [(&str, Type); 11] = [
    ("job_id", Type::U64),
    ("rank", Type::U64),
    ("ProducerName", Type::Str),
    ("window", Type::U64),
    ("first_ts", Type::F64),
    ("last_ts", Type::F64),
    ("count", Type::U64),
    ("bytes", Type::U64),
    ("dur_min", Type::F64),
    ("dur_max", Type::F64),
    ("dur_sum", Type::F64),
];

/// Container holding summary-sketch rows, next to [`CONTAINER`].
pub const SUMMARY_CONTAINER: &str = "darshan_summary";

/// JSON field names of the 14 top-level columns, in [`COLUMNS`] order.
const TOP_FIELDS: [&str; 14] = [
    "module",
    "uid",
    "ProducerName",
    "switches",
    "file",
    "rank",
    "flushes",
    "record_id",
    "exe",
    "max_byte",
    "type",
    "job_id",
    "op",
    "cnt",
];

/// JSON field names inside each `seg` entry, in `COLUMNS[14..]` order.
const SEG_FIELDS: [&str; 10] = [
    "off",
    "pt_sel",
    "dur",
    "len",
    "ndims",
    "reg_hslab",
    "irreg_hslab",
    "data_set",
    "npoints",
    "timestamp",
];

/// What a missing (or `null`) field reads, as in the CSV flattening.
const NA: ValueRef<'static> = ValueRef::Str("N/A");

/// The named members of one JSON object as they are read, one cell per
/// column, borrowed from the payload text — but for a string whose
/// escapes had to be decoded, which `owned` holds until the row is
/// handed on. A member never read, `null`, or rejected by its column
/// is absent and reads `N/A`.
struct Cells<'a, const N: usize> {
    cells: [ValueRef<'a>; N],
    /// Bit `i`: member `i` holds a value its column accepted.
    present: u32,
    /// Decoded strings, by member, standing in for their cells.
    owned: Vec<(usize, String)>,
}

impl<const N: usize> Default for Cells<'_, N> {
    fn default() -> Self {
        const { assert!(N <= 32, "one presence bit per member") };
        Self {
            cells: [NA; N],
            present: 0,
            owned: Vec::new(),
        }
    }
}

impl<'a, const N: usize> Cells<'a, N> {
    /// Sets member `i` (a duplicate key overwrites, so the last wins).
    fn set(&mut self, i: usize, cell: Option<ValueRef<'a>>) {
        if !self.owned.is_empty() {
            self.owned.retain(|&(j, _)| j != i);
        }
        self.cells[i] = cell.unwrap_or(NA);
        self.present = match cell {
            Some(_) => self.present | 1 << i,
            None => self.present & !(1 << i),
        };
    }

    /// Sets member `i` to a string with text of its own.
    fn set_owned(&mut self, i: usize, text: String) {
        self.set(i, Some(NA));
        self.owned.push((i, text));
    }

    /// Member `i`, if present.
    fn get(&self, i: usize) -> Option<ValueRef<'a>> {
        (self.present & 1 << i != 0).then_some(self.cells[i])
    }

    /// Reads the next JSON value into member `i` as a column of type
    /// `ty`. The accept/reject set is byte-identical to rendering the
    /// field with [`field_to_string`] and re-parsing with
    /// [`Value::parse`] — the equivalence test below checks every
    /// (column type × JSON shape) combination against that oracle.
    /// Shapes the fast arms don't cover (floats in integer columns,
    /// booleans, nested values, numeric strings) take that very route,
    /// so exotic payloads keep the exact semantics.
    fn read(&mut self, sc: &mut Scanner<'a>, i: usize, ty: Type) -> Result<(), ParseError> {
        let cell = match (ty, sc.next_value()?) {
            (_, Token::Null) => None,
            (Type::Str, Token::Str(Cow::Borrowed(s))) => Some(ValueRef::Str(s)),
            (Type::U64, Token::Int(i)) if i >= 0 => Some(ValueRef::U64(i as u64)),
            (Type::U64, Token::UInt(u)) => Some(ValueRef::U64(u)),
            (Type::I64, Token::Int(i)) => Some(ValueRef::I64(i)),
            // `i as f64` and `i.to_string().parse::<f64>()` both round to
            // nearest, so the direct cast matches the string path.
            (Type::F64, Token::Int(i)) => Some(ValueRef::F64(i as f64)),
            (Type::F64, Token::UInt(u)) => Some(ValueRef::F64(u as f64)),
            (Type::F64, Token::Float(f)) => Some(ValueRef::F64(f)),
            (Type::Str, Token::Str(Cow::Owned(text))) => {
                self.set_owned(i, text);
                return Ok(());
            }
            (ty, first) => match Value::parse(ty, &field_to_string(Some(&sc.dom(first)?))) {
                Some(Value::Str(text)) => {
                    self.set_owned(i, text);
                    return Ok(());
                }
                Some(Value::U64(x)) => Some(ValueRef::U64(x)),
                Some(Value::I64(x)) => Some(ValueRef::I64(x)),
                Some(Value::F64(x)) => Some(ValueRef::F64(x)),
                None => None,
            },
        };
        self.set(i, cell);
        Ok(())
    }

    /// Whether every column has a value it accepts: an absent member
    /// reads `N/A`, which only a `Str` column accepts.
    fn accepted(&self, columns: &[(&str, Type)]) -> bool {
        let strs = columns
            .iter()
            .enumerate()
            .filter(|(_, &(_, ty))| ty == Type::Str)
            .fold(0, |bits, (i, _)| bits | 1 << i);
        (self.present | strs).count_ones() as usize == N
    }

    /// Copies the cells into `row`, decoded strings included.
    fn fill<'s>(&'s self, row: &mut [ValueRef<'s>]) {
        row.copy_from_slice(&self.cells);
        for (i, text) in &self.owned {
            row[*i] = ValueRef::Str(text);
        }
    }
}

/// Reads one value. When it is an object, each member named in `names`
/// is read into its cell as the parallel column's type and every other
/// member goes to `other`, which must consume its value. Any other
/// value leaves the cells untouched: all its fields are missing.
fn decode_object<'a, const N: usize>(
    sc: &mut Scanner<'a>,
    names: &[&str; N],
    columns: &[(&str, Type)],
    cells: &mut Cells<'a, N>,
    mut other: impl FnMut(&mut Scanner<'a>, &str) -> Result<(), ParseError>,
) -> Result<(), ParseError> {
    let first = sc.next_value()?;
    if first != Token::BeginObject {
        return sc.skip_rest(&first);
    }
    while let Some(key) = sc.next_key()? {
        let key: &str = &key;
        match names.iter().position(|&name| name == key) {
            Some(i) => cells.read(sc, i, columns[i].1)?,
            None => other(sc, key)?,
        }
    }
    Ok(())
}

/// The cells of one `seg` entry.
type SegCells<'a> = Cells<'a, { SEG_FIELDS.len() }>;

/// The cells of a message's accepted `seg` entries — the first one in
/// place, as a message mostly has just it, the others in `more` — and
/// the number of entries a seg column rejected.
#[derive(Default)]
struct Segs<'a> {
    first: Option<SegCells<'a>>,
    more: Vec<SegCells<'a>>,
    rejected: u64,
}

impl<'a> Segs<'a> {
    /// A fresh entry for the next element to be read into.
    fn next(&mut self) -> &mut SegCells<'a> {
        if self.first.is_none() {
            return self.first.insert(Cells::default());
        }
        self.more.push(Cells::default());
        self.more.last_mut().expect("just pushed")
    }

    /// Keeps the entry [`next`](Self::next) handed out when its columns
    /// accept it, and counts it rejected otherwise.
    fn settle(&mut self) {
        let last = self.more.last().or(self.first.as_ref());
        if last.is_some_and(|seg| !seg.accepted(&COLUMNS[TOP_FIELDS.len()..])) {
            self.rejected += 1;
            if self.more.pop().is_none() {
                self.first = None;
            }
        }
    }

    fn iter(&self) -> impl Iterator<Item = &SegCells<'a>> {
        self.first.iter().chain(&self.more)
    }
}

/// Reads the `seg` member over `segs`, one entry per element; no entries
/// when it is not an array.
fn decode_segs<'a>(sc: &mut Scanner<'a>, segs: &mut Segs<'a>) -> Result<(), ParseError> {
    *segs = Segs::default();
    let first = sc.next_value()?;
    if first != Token::BeginArray {
        return sc.skip_rest(&first);
    }
    while sc.next_element()? {
        let seg_columns = &COLUMNS[TOP_FIELDS.len()..];
        decode_object(sc, &SEG_FIELDS, seg_columns, segs.next(), |sc, _| {
            sc.skip_value()
        })?;
        segs.settle();
    }
    Ok(())
}

/// One connector message, decoded: its cells borrow from the payload.
struct DecodedEvent<'a> {
    /// The top-level cells every row shares.
    top: Cells<'a, { TOP_FIELDS.len() }>,
    /// Each accepted `seg` entry's cells; none when a top-level column
    /// rejected its field, which takes every row of the message with it.
    segs: Segs<'a>,
    /// Rows a column's type rejected.
    rejected: u64,
}

impl DecodedEvent<'_> {
    /// The publisher's `(job_id, rank)`, for gap tracking.
    fn origin(&self) -> Option<(u64, u64)> {
        match (self.top.get(col::JOB_ID)?, self.top.get(col::RANK)?) {
            (ValueRef::U64(job_id), ValueRef::U64(rank)) => Some((job_id, rank)),
            _ => None,
        }
    }

    /// The accepted rows, one per `seg` entry, as cells in [`COLUMNS`]
    /// order.
    fn rows(&self) -> impl Iterator<Item = [ValueRef<'_>; COLUMNS.len()]> + '_ {
        self.segs.iter().map(|seg| {
            let mut row = [NA; COLUMNS.len()];
            let (top, rest) = row.split_at_mut(TOP_FIELDS.len());
            self.top.fill(top);
            seg.fill(rest);
            row
        })
    }

    /// Writes the accepted rows over `rows` as owned values, reusing
    /// the buffers already there: what an [`IngestObserver`] is handed.
    fn write_values(&self, rows: &mut Vec<Vec<Value>>) {
        rows.resize_with(self.segs.iter().count(), Vec::new);
        for (row, cells) in rows.iter_mut().zip(self.rows()) {
            row.resize(COLUMNS.len(), Value::U64(0));
            for (value, cell) in row.iter_mut().zip(cells) {
                match (value, cell) {
                    (Value::Str(text), ValueRef::Str(s)) => {
                        text.clear();
                        text.push_str(s);
                    }
                    (value, cell) => *value = cell.to_owned(),
                }
            }
        }
    }
}

/// Decodes one connector message in a single pass over its text: each
/// field goes straight into its [`COLUMNS`] cell, borrowed from the
/// text; the top-level fields are shared by every `seg` row, unknown
/// keys are skipped. A missing, empty or non-array `seg` counts as one
/// entry of `N/A` fields, exactly like the CSV flattening.
fn decode_event(data: &str) -> Result<DecodedEvent<'_>, ParseError> {
    let mut sc = Scanner::new(data);
    let mut top = Cells::default();
    let mut segs = Segs::default();
    let top_columns = &COLUMNS[..TOP_FIELDS.len()];
    decode_object(&mut sc, &TOP_FIELDS, top_columns, &mut top, |sc, key| {
        if key == "seg" {
            decode_segs(sc, &mut segs)
        } else {
            sc.skip_value()
        }
    })?;
    sc.finish()?;
    if segs.first.is_none() && segs.rejected == 0 {
        segs.next();
        segs.settle();
    }
    let mut rejected = segs.rejected;
    if !top.accepted(top_columns) {
        rejected += segs.iter().count() as u64;
        segs = Segs::default();
    }
    Ok(DecodedEvent {
        top,
        segs,
        rejected,
    })
}

/// Decodes one summary sketch into [`SUMMARY_COLUMNS`] cells, `None`
/// when a column rejects its field. `ProducerName` is the message's,
/// whatever the document says.
fn decode_summary<'a>(
    data: &'a str,
    producer: &'a str,
) -> Result<Option<Cells<'a, { SUMMARY_COLUMNS.len() }>>, ParseError> {
    let mut sc = Scanner::new(data);
    let names = SUMMARY_COLUMNS.map(|(name, _)| name);
    let mut cells = Cells::default();
    decode_object(&mut sc, &names, &SUMMARY_COLUMNS, &mut cells, |sc, _| {
        sc.skip_value()
    })?;
    sc.finish()?;
    let producer_name = summary_column_id("ProducerName");
    cells.set(producer_name, Some(ValueRef::Str(producer)));
    Ok(cells.accepted(&SUMMARY_COLUMNS).then_some(cells))
}

/// Builds the `darshan_data` schema with the paper's joint indices.
pub fn darshan_schema() -> Arc<Schema> {
    let mut b = Schema::builder("darshan_data");
    for (name, ty) in COLUMNS {
        b = b.attr(name, ty);
    }
    b.index("job_rank_time", &["job_id", "rank", "seg_timestamp"])
        .index("job_time_rank", &["job_id", "seg_timestamp", "rank"])
        .index("time", &["seg_timestamp"])
        .build()
        .expect("static schema is well-formed")
}

/// Position of a column in the schema, by name: a linear scan, for
/// query paths and tests. Per-row decoders use the [`col`] constants.
pub fn column_id(name: &str) -> usize {
    COLUMNS
        .iter()
        .position(|&(n, _)| n == name)
        .unwrap_or_else(|| panic!("no such darshan_data column: {name}"))
}

/// Builds the `darshan_summary` schema. `job_rank_window` mirrors the
/// event schema's `job_rank_time` joint index so degraded and full
/// fidelity data sort the same way; `time` orders sketches globally by
/// window start.
pub fn summary_schema() -> Arc<Schema> {
    let mut b = Schema::builder("darshan_summary");
    for (name, ty) in SUMMARY_COLUMNS {
        b = b.attr(name, ty);
    }
    b.index("job_rank_window", &["job_id", "rank", "window"])
        .index("time", &["first_ts"])
        .build()
        .expect("static schema is well-formed")
}

/// Position of a column in the summary schema.
pub fn summary_column_id(name: &str) -> usize {
    SUMMARY_COLUMNS
        .iter()
        .position(|&(n, _)| n == name)
        .unwrap_or_else(|| panic!("no such darshan_summary column: {name}"))
}

/// Sequence-gap accounting for one publisher, keyed by
/// `(producer, job_id, rank)` — two ranks on one node share a producer
/// name, so the key must include the rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GapReport {
    /// Producer (compute-node) name.
    pub producer: String,
    /// Job the publisher belonged to.
    pub job_id: u64,
    /// Publishing rank.
    pub rank: u64,
    /// Messages received from this publisher.
    pub received: u64,
    /// Highest sequence number seen.
    pub max_seq: u64,
    /// Sequence numbers missing below `max_seq` (tail loss — messages
    /// after the last received one — is invisible to gap detection;
    /// the delivery ledger covers totals).
    pub missing: u64,
}

/// An off-path observer of the store's terminal ingest stream.
///
/// Implementors see every parsed `darshan_data` row batch at the
/// instant it is handed to the cluster, *before* ingest — read-only,
/// outside the storage path, so attaching one cannot change what the
/// cluster stores, acknowledges, or ledgers (the online anomaly
/// detector taps the pipeline through this, like telemetry taps the
/// daemons). Rows are in [`COLUMNS`] order.
pub trait IngestObserver: Send + Sync {
    /// Called once per delivered stream message with its typed rows
    /// and the message's arrival instant.
    fn on_rows(&self, rows: &[Vec<Value>], recv_time: iosim_time::Epoch);
}

/// A store plugin that ingests connector stream messages straight into
/// a DSOS cluster. Figure 3's JSON → CSV row → typed object happens in
/// one pass over the payload text (`decode_event`): no CSV string, no
/// JSON tree and no `Value` in between — each row's cells borrow from
/// the text and the cluster keeps only their words. Rows of `Value`s
/// are built only for an attached [`IngestObserver`]. The CSV
/// flattening itself lives on as `ldms_sim::store::CsvStreamStore` and
/// as this decoder's test oracle.
///
/// Sequence-stamped messages additionally feed per-publisher gap
/// detection: connectors number their messages from 1, so any sequence
/// number missing below the highest one seen is a message the pipeline
/// lost in transit.
///
/// Ingest is idempotent on the `(producer, job, rank, seq)` delivery
/// key: a duplicate delivery (a write-ahead-log replay after a crash
/// restart) is suppressed and counted, never stored twice. The network
/// terminal already deduplicates keyed messages; the store checks again
/// because it can be subscribed outside an `LdmsNetwork`, where nothing
/// else would. Both this check and gap detection keep a [`SeqRanges`]:
/// a pair of integers per stream and one more per gap, not an entry per
/// message.
pub struct DsosStreamStore {
    cluster: Arc<DsosCluster>,
    schema: Arc<Schema>,
    ingested: AtomicU64,
    rejected: AtomicU64,
    duplicates: AtomicU64,
    /// Summary-sketch rows ingested into [`SUMMARY_CONTAINER`].
    summaries_ingested: AtomicU64,
    /// Folded bulk events the ingested sketches stand in for.
    summary_events: AtomicU64,
    /// Sequence numbers of the decoded event messages, by the
    /// `(producer, job_id, rank)` their payload names — what gap
    /// reports read. Apart from `seen`: that one is keyed as the
    /// message is stamped, and also holds sketches and messages that
    /// failed to decode.
    gaps: Mutex<SeqRanges>,
    /// Delivery keys of every message accepted so far.
    seen: Mutex<SeqRanges>,
    /// Registered `ingest_dedup_hits` counter, when telemetry is on.
    dedup_hits: Option<Arc<iosim_telemetry::Counter>>,
    /// Delivery ledger for acknowledged-at-quorum accounting, when the
    /// store is wired into a pipeline.
    ledger: Option<Arc<DeliveryLedger>>,
    /// Off-path observer of parsed row batches, when run-time
    /// detection (or any other tap) is on.
    observer: OnceLock<Arc<dyn IngestObserver>>,
    /// The rows last handed to the observer: the next batch is written
    /// over them.
    observed: Mutex<Vec<Vec<Value>>>,
}

impl DsosStreamStore {
    /// Creates the store and its containers on the cluster. With a
    /// `ledger` (the network's, in a pipeline) every row the cluster
    /// acknowledges at its write quorum lands in the ledger's
    /// `store_acked` column — the storage tier's extension of the
    /// conservation law. With `telemetry` the store registers its
    /// `ingest_dedup_hits` counter, so replay suppression shows up in
    /// exposition next to the daemons' families.
    pub fn new(
        cluster: Arc<DsosCluster>,
        ledger: Option<Arc<DeliveryLedger>>,
        telemetry: Option<&Arc<iosim_telemetry::Telemetry>>,
    ) -> Arc<Self> {
        let schema = darshan_schema();
        cluster.create_container(CONTAINER, &schema);
        cluster.create_container(SUMMARY_CONTAINER, &summary_schema());
        Arc::new(Self {
            cluster,
            schema,
            ingested: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
            summaries_ingested: AtomicU64::new(0),
            summary_events: AtomicU64::new(0),
            gaps: Mutex::default(),
            seen: Mutex::default(),
            dedup_hits: telemetry
                .map(|hub| hub.registry().counter("ingest_dedup_hits", "dsos-store")),
            ledger,
            observer: OnceLock::new(),
            observed: Mutex::default(),
        })
    }

    /// Attaches an off-path [`IngestObserver`] that sees every parsed
    /// row batch before it is handed to the cluster. Purely
    /// observational: rows, acknowledgements, and ledger accounting
    /// are byte-identical with and without an observer attached. A
    /// store takes one observer; attaching a second panics.
    pub fn attach_observer(&self, observer: Arc<dyn IngestObserver>) {
        assert!(
            self.observer.set(observer).is_ok(),
            "the store's ingest observer is attached once"
        );
    }

    fn record_acked(&self, n: u64) {
        if n == 0 {
            return;
        }
        if let Some(ledger) = &self.ledger {
            ledger.record_store_acked_n(n);
        }
    }

    /// Rows successfully ingested.
    pub fn ingested(&self) -> u64 {
        self.ingested.load(Ordering::Relaxed)
    }

    /// Messages/rows rejected (unparsable or mistyped) — best-effort
    /// pipeline, counted not fatal.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Duplicate keyed deliveries the store suppressed (replay of an
    /// already-ingested message after a crash restart).
    pub fn duplicates_suppressed(&self) -> u64 {
        self.duplicates.load(Ordering::Relaxed)
    }

    /// Folded bulk events the ingested sketches stand in for — the
    /// event mass the store holds at summary fidelity rather than as
    /// individual rows.
    pub fn summary_events(&self) -> u64 {
        self.summary_events.load(Ordering::Relaxed)
    }

    /// The schema in use.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Per-publisher sequence-gap reports, sorted by
    /// `(producer, job_id, rank)`. Publishers with no gaps are
    /// included (with `missing == 0`) so callers can see coverage.
    pub fn gap_reports(&self) -> Vec<GapReport> {
        let mut out: Vec<GapReport> = self
            .gaps
            .lock()
            .streams()
            .map(|s| GapReport {
                producer: s.producer.to_string(),
                job_id: s.job_id,
                rank: s.rank,
                received: s.received,
                max_seq: s.max_seq,
                missing: s.missing(),
            })
            .collect();
        out.sort_by(|a, b| (&a.producer, a.job_id, a.rank).cmp(&(&b.producer, b.job_id, b.rank)));
        out
    }

    /// Total sequence numbers known to be missing, over all publishers.
    pub fn total_missing(&self) -> u64 {
        self.gaps.lock().streams().map(|s| s.missing()).sum()
    }

    /// Ingests one overload summary sketch into [`SUMMARY_CONTAINER`].
    /// Sketches carry their own schema (they are pipeline-made, not
    /// connector-made), so they bypass the Figure 3 flattening — and
    /// they bypass sequence-gap tracking too: their synthetic sequence
    /// space (`SUMMARY_SEQ_BIT`-tagged, per hop and key) would read as
    /// one giant gap against connector numbering.
    fn ingest_summary(&self, msg: &StreamMessage) {
        let ack = match decode_summary(&msg.data, &msg.producer) {
            Ok(Some(cells)) => {
                let mut row = [NA; SUMMARY_COLUMNS.len()];
                cells.fill(&mut row);
                self.cluster
                    .ingest_rows_at(SUMMARY_CONTAINER, [row], msg.recv_time)
                    .unwrap_or_default()
            }
            // Malformed, or a column rejected its field.
            _ => BatchAck::default(),
        };
        if ack.accepted == 0 {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.record_acked(ack.quorum_acked);
        self.summaries_ingested.fetch_add(1, Ordering::Relaxed);
        self.summary_events
            .fetch_add(msg.weight(), Ordering::Relaxed);
    }
}

/// Counter and range-set reads for the unit tests.
#[cfg(test)]
impl DsosStreamStore {
    /// Summary-sketch rows ingested (only nonzero when an overload
    /// controller degraded into adaptive sampling).
    pub(crate) fn summaries(&self) -> u64 {
        self.summaries_ingested.load(Ordering::Relaxed)
    }

    /// Runs held by the duplicate check and by gap tracking: each is
    /// one per stream after an in-order run, plus one per gap.
    pub(crate) fn seq_intervals(&self) -> (usize, usize) {
        (self.seen.lock().intervals(), self.gaps.lock().intervals())
    }
}

impl StreamSink for DsosStreamStore {
    fn deliver(&self, msg: &StreamMessage) {
        if let Some(key) = msg.delivery_key() {
            if !self.seen.lock().claim(key) {
                self.duplicates.fetch_add(1, Ordering::Relaxed);
                if let Some(c) = &self.dedup_hits {
                    c.inc();
                }
                return;
            }
        }
        if msg.is_summary() {
            self.ingest_summary(msg);
            return;
        }
        // One pass over the text yields the rows' cells, borrowed from
        // it, and the gap key; all rows of one message ingest as one
        // batch.
        let Ok(event) = decode_event(&msg.data) else {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return;
        };
        if let (Some(seq), Some((job_id, rank))) = (msg.seq, event.origin()) {
            self.gaps.lock().claim((&msg.producer, job_id, rank, seq));
        }
        if event.rejected > 0 {
            self.rejected.fetch_add(event.rejected, Ordering::Relaxed);
        }
        let total = event.segs.iter().count() as u64;
        // Only an observer has rows made of `Value`s: it peeks at the
        // batch before the cluster stores the cells; storage behavior
        // is independent of the peek.
        if let Some(obs) = self.observer.get() {
            let mut rows = self.observed.lock();
            event.write_values(&mut rows);
            obs.on_rows(&rows, msg.recv_time);
        }
        // Rows are written at the message's arrival instant so the
        // cluster's fault schedule knows which replicas were up; every
        // row that reaches the write quorum extends the ledger.
        let ack = self
            .cluster
            .ingest_rows_at(CONTAINER, event.rows(), msg.recv_time)
            .unwrap_or_default();
        let accepted = ack.accepted as u64;
        self.record_acked(ack.quorum_acked);
        self.ingested.fetch_add(accepted, Ordering::Relaxed);
        self.rejected.fetch_add(total - accepted, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldms_sim::MsgFormat;

    const MSG: &str = r#"{"uid":99066,"exe":"/apps/t","file":"/scratch/o.dat","job_id":7,
        "rank":3,"ProducerName":"nid00046","record_id":42,"module":"POSIX","type":"MOD",
        "max_byte":4095,"switches":0,"flushes":-1,"cnt":2,"op":"write",
        "seg":[{"data_set":"N/A","pt_sel":-1,"irreg_hslab":-1,"reg_hslab":-1,"ndims":-1,
        "npoints":-1,"off":0,"len":4096,"dur":0.005,"timestamp":1650000000.25}]}"#;

    fn deliver(store: &DsosStreamStore, data: &str) {
        store.deliver(&StreamMessage::new(
            "darshanConnector",
            MsgFormat::Json,
            data.to_string(),
            "nid00046",
            iosim_time::Epoch::from_secs(1),
        ));
    }

    #[test]
    fn schema_has_24_columns_and_3_indices() {
        let s = darshan_schema();
        assert_eq!(s.attrs().len(), 24);
        assert_eq!(s.indices().len(), 3);
        assert_eq!(
            s.index_def("job_rank_time").unwrap().attrs,
            vec![
                column_id("job_id"),
                column_id("rank"),
                column_id("seg_timestamp")
            ]
        );
    }

    #[test]
    fn messages_land_in_dsos_queryable_by_index() {
        let cluster = DsosCluster::new(2);
        let store = DsosStreamStore::new(cluster.clone(), None, None);
        deliver(&store, MSG);
        assert_eq!(store.ingested(), 1);
        let rows = cluster.query_prefix(CONTAINER, "job_rank_time", &[Value::U64(7)]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][column_id("op")], Value::Str("write".into()));
        assert_eq!(rows[0][column_id("seg_len")], Value::I64(4096));
        assert_eq!(
            rows[0][column_id("seg_timestamp")],
            Value::F64(1650000000.25)
        );
    }

    #[test]
    fn observer_sees_parsed_rows_without_changing_ingest() {
        struct Tap {
            rows: Mutex<Vec<Vec<Value>>>,
            batches: AtomicU64,
        }
        impl IngestObserver for Tap {
            fn on_rows(&self, rows: &[Vec<Value>], _recv_time: iosim_time::Epoch) {
                self.rows.lock().extend(rows.iter().cloned());
                self.batches.fetch_add(1, Ordering::Relaxed);
            }
        }
        let cluster = DsosCluster::new(2);
        let store = DsosStreamStore::new(cluster.clone(), None, None);
        let tap = Arc::new(Tap {
            rows: Mutex::new(Vec::new()),
            batches: AtomicU64::new(0),
        });
        store.attach_observer(tap.clone());
        deliver(&store, MSG);
        deliver(&store, "{broken"); // never parses → never observed
        assert_eq!(tap.batches.load(Ordering::Relaxed), 1);
        let seen = tap.rows.lock();
        assert_eq!(seen.len(), 1);
        // Rows arrive in COLUMNS order, identical to what is stored.
        assert_eq!(seen[0][column_id("op")], Value::Str("write".into()));
        assert_eq!(seen[0][column_id("seg_dur")], Value::F64(0.005));
        let stored = cluster.query_prefix(CONTAINER, "job_rank_time", &[Value::U64(7)]);
        assert_eq!(stored, *seen);
        // Ingest accounting is unchanged by the tap.
        assert_eq!(store.ingested(), 1);
        assert_eq!(store.rejected(), 1);
    }

    #[test]
    fn malformed_messages_are_counted_not_fatal() {
        let cluster = DsosCluster::new(1);
        let store = DsosStreamStore::new(cluster.clone(), None, None);
        deliver(&store, "{broken");
        deliver(&store, r#"{"module":"POSIX"}"#); // missing columns → N/A in numeric fields
        deliver(&store, MSG);
        assert_eq!(store.ingested(), 1);
        assert!(store.rejected() >= 2);
    }

    #[test]
    fn sequence_gaps_are_detected_per_publisher() {
        let cluster = DsosCluster::new(1);
        let store = DsosStreamStore::new(cluster, None, None);
        // Sequences 1, 2, 5 arrive; 3 and 4 were lost upstream.
        for seq in [1u64, 2, 5] {
            store.deliver(
                &StreamMessage::new(
                    "darshanConnector",
                    MsgFormat::Json,
                    MSG.to_string(),
                    "nid00046",
                    iosim_time::Epoch::from_secs(1),
                )
                .with_seq(seq),
            );
        }
        assert_eq!(store.total_missing(), 2);
        let reports = store.gap_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].producer, "nid00046");
        assert_eq!(reports[0].job_id, 7);
        assert_eq!(reports[0].rank, 3);
        assert_eq!(reports[0].received, 3);
        assert_eq!(reports[0].max_seq, 5);
        assert_eq!(reports[0].missing, 2);
    }

    #[test]
    fn duplicate_keyed_delivery_is_ingested_once() {
        let cluster = DsosCluster::new(1);
        let store = DsosStreamStore::new(cluster, None, None);
        let keyed = StreamMessage::new(
            "darshanConnector",
            MsgFormat::Json,
            MSG.to_string(),
            "nid00046",
            iosim_time::Epoch::from_secs(1),
        )
        .with_seq(9)
        .with_origin(7, 3);
        store.deliver(&keyed);
        store.deliver(&keyed); // replayed duplicate
        assert_eq!(store.ingested(), 1);
        assert_eq!(store.duplicates_suppressed(), 1);
        let reports = store.gap_reports();
        assert_eq!(reports[0].received, 1, "dup never re-enters gap tracking");
    }

    #[test]
    fn unsequenced_messages_do_not_enter_gap_tracking() {
        let cluster = DsosCluster::new(1);
        let store = DsosStreamStore::new(cluster, None, None);
        deliver(&store, MSG);
        assert_eq!(store.ingested(), 1);
        assert!(store.gap_reports().is_empty());
        assert_eq!(store.total_missing(), 0);
    }

    /// Oracle for the single-pass decode: the original string path —
    /// flatten to CSV rows, then [`Value::parse`] each field. The
    /// decoder must accept and reject exactly the same payloads with
    /// exactly the same resulting values.
    fn objects_via_strings(data: &str) -> Option<(Vec<Vec<Value>>, u64)> {
        let rows = ldms_sim::store::json_to_rows(data).ok()?;
        let mut objs = Vec::new();
        let mut rejected = 0;
        for row in &rows {
            let obj: Option<Vec<Value>> = row
                .iter()
                .zip(COLUMNS.iter())
                .map(|(field, &(_, ty))| Value::parse(ty, field))
                .collect();
            match obj {
                Some(obj) => objs.push(obj),
                None => rejected += 1,
            }
        }
        Some((objs, rejected))
    }

    #[test]
    fn direct_conversion_matches_string_path_for_every_shape() {
        // Every JSON shape a field can take, including ones the fast
        // arms don't special-case (floats in integer columns, huge
        // floats, booleans, nested values, numeric strings).
        let shapes = [
            "null",
            "true",
            "false",
            "3",
            "-3",
            "18446744073709551615",
            "9223372036854775807",
            "3.0",
            "3.5",
            "-2.25",
            "1e20",
            "1e-3",
            "\"42\"",
            "\"-7\"",
            "\"3.5\"",
            "\"N/A\"",
            "\"text\"",
            "\"\"",
            "[1,2]",
            "{\"k\":1}",
        ];
        // A payload where every column holds a valid value, except the
        // target column which takes the shape under test — so a
        // divergence in any single column's conversion is visible, not
        // masked by the rest of the row rejecting.
        let payload_with = |target: usize, shape: &str| {
            let field = |i: usize, name: &str, ty: Type| {
                let v = if i == target {
                    shape.to_string()
                } else {
                    match ty {
                        Type::Str => "\"x\"".to_string(),
                        Type::U64 => "1".to_string(),
                        Type::I64 => "-1".to_string(),
                        Type::F64 => "0.5".to_string(),
                    }
                };
                format!("\"{name}\": {v}")
            };
            let top: Vec<String> = TOP_FIELDS
                .iter()
                .zip(COLUMNS.iter())
                .enumerate()
                .map(|(i, (name, &(_, ty)))| field(i, name, ty))
                .collect();
            let seg: Vec<String> = SEG_FIELDS
                .iter()
                .zip(COLUMNS[TOP_FIELDS.len()..].iter())
                .enumerate()
                .map(|(i, (name, &(_, ty)))| field(i + TOP_FIELDS.len(), name, ty))
                .collect();
            format!("{{{}, \"seg\": [{{{}}}]}}", top.join(", "), seg.join(", "))
        };
        let mut accepted = 0;
        for (ci, &(col, _)) in COLUMNS.iter().enumerate() {
            for shape in shapes {
                let data = payload_with(ci, shape);
                let fast = decoded(&data);
                assert_eq!(
                    fast,
                    objects_via_strings(&data),
                    "column {col}, shape {shape}"
                );
                accepted += fast.unwrap().0.len();
            }
        }
        // Sanity: the battery exercises both accepted and rejected rows.
        assert!(accepted > 0 && accepted < 24 * shapes.len());
        for data in [
            // Structural shapes: missing seg, empty seg, multiple segs
            // with one bad row, missing fields everywhere, `seg` that
            // is no array, entries that are no objects, no object at all.
            r#"{"module": "POSIX"}"#,
            r#"{"module": "POSIX", "seg": []}"#,
            r#"{"uid": 1, "seg": [{"dur": 0.5, "timestamp": 1.0},
                {"dur": "oops", "timestamp": 2.0}]}"#,
            r#"{}"#,
            MSG,
            r#"{"module": "POSIX", "seg": 7}"#,
            r#"{"module": "POSIX", "seg": {"off": 1}}"#,
            r#"{"module": "POSIX", "seg": [1, [2], "x", null]}"#,
            r#"[{"module": "POSIX"}]"#,
            r#"42"#,
            // Malformed documents: both sides refuse the message whole.
            r#"{"module": "POSIX","#,
            r#"{"module": "POSIX"} x"#,
            r#"{"uid": 1-2}"#,
            r#"{"module": "a\qb"}"#,
            r#"{"nope": [1, {"k": tru}]}"#,
        ] {
            assert_eq!(decoded(data), objects_via_strings(data), "payload {data}");
        }
        // A valid message rewritten without changing what it says.
        let with = |from: &str, to: &str| {
            assert!(MSG.contains(from), "{from} is in MSG");
            MSG.replace(from, to)
        };
        for (what, data) in [
            (
                "keys out of connector order",
                with(r#""uid":99066,"#, "").replace(r#"]}"#, r#"],"uid":99066}"#),
            ),
            (
                "seg before the top-level fields",
                format!(
                    r#"{{"seg":[{{"off":0,"len":1,"dur":0.5,"timestamp":2.0,"pt_sel":-1,
                    "irreg_hslab":-1,"reg_hslab":-1,"ndims":-1,"npoints":-1}},{{"off":9}}],{}"#,
                    MSG[1..MSG.find(r#""seg""#).unwrap()]
                        .trim_end()
                        .trim_end_matches(',')
                ) + "}",
            ),
            (
                "duplicate keys, last wins",
                with(r#""rank":3"#, r#""rank":"oops","rank":3,"op":"read""#),
            ),
            (
                "duplicate key whose last value is rejected",
                with(r#""rank":3"#, r#""rank":3,"rank":-1"#),
            ),
            (
                "duplicate seg, last wins",
                with(r#""seg":["#, r#""seg":[{"off":1},{"off":2}],"seg":["#),
            ),
            (
                "duplicate seg, last is no array",
                with(r#"]}"#, r#"],"seg":null}"#),
            ),
            (
                "duplicate key inside a seg entry",
                with(r#""len":4096"#, r#""len":1.5,"len":4096"#),
            ),
            (
                "escapes and non-ASCII text in Str columns",
                with(
                    "/scratch/o.dat",
                    r#"/scr\\atch/\"naïve\"\t\u00e9\ud83d\ude00\ud83d/データ"#,
                ),
            ),
            (
                "unknown keys holding nested values",
                with(
                    r#""op":"write""#,
                    r#""op":"write","extra":{"a":[1,{"b":"\n"}],"c":{}},"more":[[],[[]]]"#,
                )
                .replace(r#""off":0"#, r#""off":0,"why":{"seg":[{"off":5}]}"#),
            ),
            (
                "extra whitespace",
                MSG.replace(':', " :\t")
                    .replace(',', " ,\n ")
                    .replace('[', " [ ")
                    + " \n",
            ),
        ] {
            let fast = decoded(&data);
            assert_eq!(fast, objects_via_strings(&data), "{what}: {data}");
            assert!(fast.is_some(), "{what} is well-formed: {data}");
        }
    }

    /// `(rows, rejected)` of [`decode_event`], `None` when malformed.
    fn decoded(data: &str) -> Option<(Vec<Vec<Value>>, u64)> {
        let event = decode_event(data).ok()?;
        let mut rows = Vec::new();
        event.write_values(&mut rows);
        Some((rows, event.rejected))
    }

    const SKETCH: &str = r#"{"type":"summary","job_id":7,"rank":3,"window":12,
        "first_ts":1650000000.25,"last_ts":1650000001.5,"count":40,"bytes":163840,
        "dur_min":0.001,"dur_max":0.009,"dur_sum":0.21}"#;

    #[test]
    fn every_truncation_is_one_rejected_message_and_nothing_ingested() {
        let cluster = DsosCluster::new(1);
        let store = DsosStreamStore::new(cluster.clone(), None, None);
        let mut sent = 0;
        for (payload, summary) in [(MSG, false), (SKETCH, true)] {
            for cut in 0..payload.len() {
                let msg = StreamMessage::new(
                    "darshanConnector",
                    MsgFormat::Json,
                    payload[..cut].to_string(),
                    "nid00046",
                    iosim_time::Epoch::from_secs(1),
                )
                .with_seq(sent);
                store.deliver(&if summary {
                    msg.with_summary_count(40)
                } else {
                    msg
                });
                sent += 1;
                assert_eq!(store.rejected(), sent, "prefix of {cut} bytes");
            }
        }
        assert_eq!((store.ingested(), store.summaries()), (0, 0));
        assert_eq!(cluster.object_count(CONTAINER), 0);
        assert_eq!(cluster.object_count(SUMMARY_CONTAINER), 0);
        assert!(store.gap_reports().is_empty());
    }

    #[test]
    fn summary_sketches_route_to_their_own_container() {
        let cluster = DsosCluster::new(1);
        let store = DsosStreamStore::new(cluster.clone(), None, None);
        let sketch = StreamMessage::new(
            "darshanConnector",
            MsgFormat::Json,
            SKETCH.to_string(),
            "nid00046",
            iosim_time::Epoch::from_secs(1),
        )
        .with_seq(1 << 63 | 1)
        .with_origin(7, 3)
        .with_summary_count(40);
        store.deliver(&sketch);
        assert_eq!(store.summaries(), 1);
        assert_eq!(store.summary_events(), 40);
        assert_eq!(store.ingested(), 0, "no event row came from a sketch");
        assert_eq!(cluster.object_count(SUMMARY_CONTAINER), 1);
        let rows = cluster.query_prefix(SUMMARY_CONTAINER, "job_rank_window", &[Value::U64(7)]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][summary_column_id("count")], Value::U64(40));
        assert_eq!(rows[0][summary_column_id("bytes")], Value::U64(163_840));
        assert_eq!(
            rows[0][summary_column_id("ProducerName")],
            Value::Str("nid00046".into())
        );
        assert!(
            store.gap_reports().is_empty(),
            "synthetic summary seqs stay out of gap tracking"
        );
        // Replayed sketch (same delivery key) is suppressed.
        store.deliver(&sketch);
        assert_eq!(store.summaries(), 1);
        assert_eq!(store.duplicates_suppressed(), 1);
    }

    #[test]
    fn the_store_keeps_runs_not_keys() {
        let cluster = DsosCluster::new(1);
        let store = DsosStreamStore::new(cluster, None, None);
        let event = |rank: u64, seq: u64| {
            StreamMessage::new(
                "darshanConnector",
                MsgFormat::Json,
                MSG.replace(r#""rank":3"#, &format!(r#""rank":{rank}"#)),
                "nid00046",
                iosim_time::Epoch::from_secs(1),
            )
            .with_seq(seq)
            .with_origin(7, rank)
        };
        // Four streams in order; rank 1 loses 50 and 60..=62 for good.
        for seq in 1..=200 {
            for rank in 0..4 {
                if rank == 1 && (seq == 50 || (60..63).contains(&seq)) {
                    continue;
                }
                store.deliver(&event(rank, seq));
            }
        }
        assert_eq!(store.seq_intervals(), (4 + 2, 4 + 2));
        assert_eq!(store.total_missing(), 4);
        // Sketches are deduplicated like any keyed message, on their
        // own numbering, and stay out of gap tracking.
        let sketch = |counter: u64| {
            StreamMessage::new(
                "darshanConnector",
                MsgFormat::Json,
                SKETCH.to_string(),
                "nid00046",
                iosim_time::Epoch::from_secs(1),
            )
            .with_seq(ldms_sim::overload::SUMMARY_SEQ_BIT | counter)
            .with_origin(7, 3)
            .with_summary_count(40)
        };
        for counter in [1, 2, 2, 3] {
            store.deliver(&sketch(counter));
        }
        assert_eq!((store.summaries(), store.duplicates_suppressed()), (3, 1));
        assert_eq!(store.seq_intervals(), (4 + 2 + 1, 4 + 2));
        let rank3 = &store.gap_reports()[3];
        assert_eq!(
            (rank3.received, rank3.max_seq, rank3.missing),
            (200, 200, 0)
        );
    }

    #[test]
    fn col_constants_match_column_id() {
        for (pos, name) in [
            (col::MODULE, "module"),
            (col::PRODUCER_NAME, "ProducerName"),
            (col::FILE, "file"),
            (col::RANK, "rank"),
            (col::RECORD_ID, "record_id"),
            (col::JOB_ID, "job_id"),
            (col::OP, "op"),
            (col::SEG_OFF, "seg_off"),
            (col::SEG_DUR, "seg_dur"),
            (col::SEG_LEN, "seg_len"),
            (col::SEG_TIMESTAMP, "seg_timestamp"),
        ] {
            assert_eq!(pos, column_id(name), "col constant for {name}");
        }
    }

    #[test]
    fn column_id_panics_on_unknown() {
        assert_eq!(column_id("module"), 0);
        assert_eq!(column_id("seg_timestamp"), 23);
        let r = std::panic::catch_unwind(|| column_id("nope"));
        assert!(r.is_err());
    }
}
