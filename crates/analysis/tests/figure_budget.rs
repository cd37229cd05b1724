//! What a dashboard refresh's analysis costs, counted by an allocator
//! rather than timed by a clock: the figures repeat on any host.
//! `DataFrame::new` lays the seven figure columns out once, in a number
//! of blocks that does not grow with the frame and in at most 48 bytes
//! a row; the five dashboard kernels then allocate per group and per
//! answer, never per row. Counts are per thread, so the tests do not
//! see each other's allocations.

use dsos_sim::Value;
use hpcws_sim::figures::{
    anomalous_jobs, job_mean_durations, op_occurrence, per_rank_durations, timeline,
};
use hpcws_sim::DataFrame;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn count(blocks: u64, bytes: i64) {
    ALLOCS.with(|n| n.set(n.get() + blocks));
    BYTES.with(|n| n.set(n.get() + bytes));
}

// SAFETY: every call is handed to `System` with the caller's own
// arguments; the counters are plain per-thread statistics with no
// destructor, so touching them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`
        // above with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as i64 - layout.size() as i64);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result, the blocks it allocated and the bytes it left live.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, i64) {
    let (blocks, bytes) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    (
        out,
        ALLOCS.with(Cell::get) - blocks,
        BYTES.with(Cell::get) - bytes,
    )
}

const COLUMNS: [&str; 10] = [
    "module",
    "ProducerName",
    "file",
    "rank",
    "job_id",
    "op",
    "seg_dur",
    "seg_len",
    "seg_data_set",
    "seg_timestamp",
];

/// A `dashboard-query`-shaped campaign of `n` rows: five jobs of 16
/// ranks on four nodes, each job's rows in `(rank, time)` order, mostly
/// reads between an open and a close, and job 301's reads slow. Both
/// sizes hold the same keys, so only the row count differs.
fn rows(n: usize) -> Vec<Vec<Value>> {
    (0..n)
        .map(|i| {
            let stream = i * 80 / n;
            let (job, rank) = (300 + stream as u64 / 16, stream as u64 % 16);
            let (op, dur, len) = match i % 64 {
                0 => ("open", 0.05, -1),
                63 => ("close", 0.005, -1),
                k if k % 31 == 0 => ("write", 0.02, 4_096),
                _ if job == 301 => ("read", 0.08, 64),
                _ => ("read", 0.002, 64),
            };
            COLUMNS
                .iter()
                .map(|&column| match column {
                    "module" => Value::Str("STDIO".to_string()),
                    "ProducerName" => Value::Str(format!("nid{:05}", 40 + rank % 4)),
                    "file" => Value::Str(format!("/pfam/job{job}/r{rank:03}.seed")),
                    "rank" => Value::U64(rank),
                    "job_id" => Value::U64(job),
                    "op" => Value::Str(op.to_string()),
                    "seg_dur" => Value::F64(dur),
                    "seg_len" => Value::I64(len),
                    "seg_timestamp" => Value::F64(1.65e9 + job as f64 * 600.0 + i as f64 * 1e-3),
                    _ => Value::Str("N/A".to_string()),
                })
                .collect()
        })
        .collect()
}

/// The frame of `n` rows, with the blocks and live bytes `new` took.
fn frame(n: usize) -> (DataFrame, u64, i64) {
    let rows = rows(n);
    counted(|| DataFrame::new(COLUMNS.to_vec(), rows))
}

#[test]
fn a_frame_lays_out_its_figure_columns_in_fixed_blocks_and_at_most_48_bytes_a_row() {
    let (small, small_blocks, small_bytes) = frame(20_000);
    let (large, large_blocks, large_bytes) = frame(40_000);
    eprintln!(
        "DataFrame::new: {small_blocks} / {large_blocks} blocks, \
         {small_bytes} / {large_bytes} live bytes for 20k / 40k rows"
    );
    assert_eq!(
        small_blocks, large_blocks,
        "the number of blocks grew with the row count"
    );
    for (df, bytes) in [(&small, small_bytes), (&large, large_bytes)] {
        let per_row = bytes as f64 / df.len() as f64;
        assert!(
            per_row <= 48.0,
            "typed columns cost {per_row:.2} B a row (budget 48)"
        );
    }
}

#[test]
fn the_dashboard_kernels_allocate_per_group_not_per_row() {
    let refresh = |df: &DataFrame| {
        counted(|| {
            (
                op_occurrence(df),
                per_rank_durations(df),
                job_mean_durations(df, "read"),
                anomalous_jobs(df, "read", 3.0),
                timeline(df, 60),
            )
        })
    };
    let (small, large) = (frame(20_000).0, frame(40_000).0);
    let (small_out, small_blocks, _) = refresh(&small);
    let (large_out, large_blocks, _) = refresh(&large);
    eprintln!("five kernels: {small_blocks} / {large_blocks} blocks for 20k / 40k rows");
    // The same groups on both sizes, and the slow job found on both.
    assert_eq!(small_out.1.len(), large_out.1.len());
    assert_eq!(small_out.3[0].job, 301);
    assert_eq!(large_out.3[0].job, 301);
    assert_eq!(small_blocks, large_blocks, "a kernel allocated per row");
}
