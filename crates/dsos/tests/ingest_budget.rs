//! What a stored row costs the store, whole — its cells' words, the
//! strings they name, the indices and the replication bookkeeping —
//! counted by an allocator rather than timed by a clock: the figures
//! repeat on any host. Rows are offered as borrowed cells built on the
//! stack, so everything counted is what the store keeps or spends. Most
//! of it is the row's 25 words, packed once their chunk of 1 024 rows
//! fills, then the cluster's replication bookkeeping (`RowMeta` and the
//! arrival slot), then the row's three index entries: an ordinal each,
//! 12 bytes in blocks of 512 that ascending streams leave full, the keys
//! read back from the rows. Its 20 000 rows over two daemons fill some
//! 20 blocks of each index on each shard, one fence each.

use dsos_sim::{DsosCluster, Schema, Type, ValueRef};
use iosim_time::Epoch;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
/// Held while a test counts, so the other's allocations stay out.
static COUNTING: Mutex<()> = Mutex::new(());

struct Counting;

// SAFETY: every call is handed to `System` with the caller's own
// arguments; the counters are plain statistics and publish no data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`
        // above with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ROWS: usize = 20_000;

/// `darshan_data`'s shape: 24 columns, seven of them strings, and the
/// paper's three joint indices.
fn schema() -> std::sync::Arc<Schema> {
    let mut b = Schema::builder("darshan_data")
        .attr("job_id", Type::U64)
        .attr("rank", Type::U64)
        .attr("seg_timestamp", Type::F64);
    for i in 0..7 {
        b = b.attr(&format!("s{i}"), Type::Str);
    }
    for i in 0..14 {
        b = b.attr(&format!("n{i}"), Type::U64);
    }
    b.index("job_rank_time", &["job_id", "rank", "seg_timestamp"])
        .index("job_time_rank", &["job_id", "seg_timestamp", "rank"])
        .index("time", &["seg_timestamp"])
        .build()
        .unwrap()
}

/// `RANKS` ranks interleaved in time order, as a job's stream arrives;
/// each string column holds a few texts.
fn row<'a, const RANKS: u64>(i: usize, texts: &'a [String]) -> [ValueRef<'a>; 24] {
    let mut row = [ValueRef::U64(0); 24];
    row[0] = ValueRef::U64(7);
    row[1] = ValueRef::U64(i as u64 % RANKS);
    row[2] = ValueRef::F64(1.0e9 + i as f64 * 1.0e-3);
    for s in 0..7 {
        row[3 + s] = ValueRef::Str(&texts[(s + i % 3) % texts.len()]);
    }
    for n in 0..14 {
        row[10 + n] = ValueRef::U64(n as u64 * i as u64);
    }
    row
}

/// [`row`] with every number drawn at random, all 64 bits of it: no
/// column packs narrower than a whole word.
fn random_row<'a>(i: usize, texts: &'a [String]) -> [ValueRef<'a>; 24] {
    let mut z = (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut next = || {
        z = (z ^ z >> 30).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ z >> 27).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ z >> 31
    };
    let mut row = row::<16>(i, texts);
    for cell in row.iter_mut() {
        match cell {
            ValueRef::U64(x) => *x = next(),
            ValueRef::F64(x) => *x = f64::from_bits(next()),
            _ => {}
        }
    }
    row
}

/// A 64-bit hash of `i`, every bit of it as likely set as not.
fn mix(i: u64) -> u64 {
    let mut z = (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ z >> 30).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ z >> 27).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ z >> 31
}

/// Allocations and live bytes per row that ingesting [`ROWS`] rows made
/// by `row` costs a fresh two-daemon store, in row order or, when
/// `shuffled`, in an order drawn at random.
fn cost(
    row: impl for<'a> Fn(usize, &'a [String]) -> [ValueRef<'a>; 24],
    shuffled: bool,
) -> (f64, f64) {
    let _counting = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let cluster = DsosCluster::new(2);
    cluster.create_container("darshan", &schema());
    let texts: Vec<String> = (0..9).map(|s| format!("field-{s}")).collect();
    let mut order: Vec<usize> = (0..ROWS).collect();
    if shuffled {
        for i in (1..ROWS).rev() {
            order.swap(i, mix(i as u64) as usize % (i + 1));
        }
    }
    let (allocs, live) = (
        ALLOCS.load(Ordering::Relaxed),
        LIVE_BYTES.load(Ordering::Relaxed),
    );
    for &i in &order {
        cluster
            .ingest_rows_at("darshan", [row(i, &texts)], Epoch::from_nanos(i as u64))
            .unwrap();
    }
    let allocs = (ALLOCS.load(Ordering::Relaxed) - allocs) as f64 / ROWS as f64;
    let bytes = (LIVE_BYTES.load(Ordering::Relaxed) - live) as f64 / ROWS as f64;
    println!("allocations per row {allocs:.4}, live bytes per row {bytes:.1}");
    assert_eq!(cluster.object_count("darshan"), ROWS);
    (allocs, bytes)
}

#[test]
fn a_stored_row_costs_at_most_98_bytes_and_0_0195_allocations_whole() {
    let (allocs, bytes) = cost(row::<16>, false);
    assert!(allocs <= 0.0195, "{allocs:.4} allocations per row");
    assert!(bytes <= 98.0, "{bytes:.1} live bytes per row");
}

/// Rows whose words do not pack still pay for their index entries only
/// an ordinal each.
#[test]
fn a_row_of_random_numbers_costs_at_most_205_bytes_whole() {
    let (_, bytes) = cost(random_row, false);
    assert!(bytes <= 205.0, "{bytes:.1} live bytes per row");
}

/// Index entries from 16, 256 or 4 096 interleaved ascending streams,
/// and from rows in random order. A stream with a block's worth of rows
/// on a shard leaves its blocks full; shorter ones share blocks, which
/// splits leave partly empty, as random order does, where the
/// timestamps also no longer pack.
#[test]
fn a_row_costs_at_most_100_bytes_at_any_stream_count_and_126_shuffled() {
    type Row = for<'a> fn(usize, &'a [String]) -> [ValueRef<'a>; 24];
    let cases: [(&str, Row, bool, f64); 4] = [
        ("16 ranks", row::<16>, false, 98.0),
        ("256 ranks", row::<256>, false, 100.0),
        ("4 096 ranks", row::<4096>, false, 100.0),
        ("16 ranks, shuffled", row::<16>, true, 126.0),
    ];
    for (name, row, shuffled, most) in cases {
        let (_, bytes) = cost(row, shuffled);
        assert!(bytes <= most, "{name}: {bytes:.1} live bytes per row");
    }
}
