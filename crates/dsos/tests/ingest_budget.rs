//! What an ingested row costs the store beyond the row itself, counted
//! by an allocator rather than timed by a clock: the figures repeat on
//! any host. The rows are built before counting starts and a cluster
//! without replication moves each one into its shard, so every
//! allocation counted here is index, row-id map or replication
//! bookkeeping.

use dsos_sim::{DsosCluster, Schema, Type, Value};
use iosim_time::Epoch;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

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
const RANKS: u64 = 16;

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

/// Ranks interleaved in time order, as a job's stream arrives.
fn row(i: usize) -> Vec<Value> {
    let mut row = vec![
        Value::U64(7),
        Value::U64(i as u64 % RANKS),
        Value::F64(1.0e9 + i as f64 * 1.0e-3),
    ];
    row.extend((0..7).map(|s| Value::Str(format!("field-{s}"))));
    row.extend((0..14).map(|n| Value::U64(n * i as u64)));
    row
}

#[test]
fn an_ingested_row_costs_at_most_one_allocation_and_320_bytes_beyond_its_cells() {
    let cluster = DsosCluster::new(2);
    cluster.create_container("darshan", &schema());
    let rows: Vec<Vec<Value>> = (0..ROWS).map(row).collect();
    let (allocs, live) = (
        ALLOCS.load(Ordering::Relaxed),
        LIVE_BYTES.load(Ordering::Relaxed),
    );
    for (i, row) in rows.into_iter().enumerate() {
        cluster
            .ingest_at("darshan", row, Epoch::from_nanos(i as u64))
            .unwrap();
    }
    let allocs = (ALLOCS.load(Ordering::Relaxed) - allocs) as f64 / ROWS as f64;
    // The emptied `rows` buffer is the one thing freed meanwhile.
    let buffer = (ROWS * std::mem::size_of::<Vec<Value>>()) as i64;
    let bytes = (LIVE_BYTES.load(Ordering::Relaxed) - live + buffer) as f64 / ROWS as f64;
    println!("allocations per row {allocs:.3}, live bytes per row {bytes:.1}");
    assert_eq!(cluster.object_count("darshan"), ROWS);
    assert!(allocs <= 1.0, "{allocs:.3} allocations per row");
    assert!(bytes <= 320.0, "{bytes:.1} live bytes per row");
}
