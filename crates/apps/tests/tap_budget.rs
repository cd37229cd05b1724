//! What watching costs, counted by an allocator rather than timed by a
//! clock: the figures repeat on any host. The live detector tap may
//! keep one copy of what it reads until it is finalized, and none
//! after; a span offered to a full span log is a drop count, not an
//! allocation. Counts are per thread, so the tests do not see each
//! other's allocations.

use darshan_ldms_connector::{IngestObserver, COLUMNS};
use dsos_sim::Value;
use hpcws_sim::DetectionConfig;
use iosim_apps::detect::LiveDetectorTap;
use iosim_telemetry::{HopKind, Telemetry, TelemetryConfig};
use iosim_time::{Epoch, SimDuration};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn count(allocs: u64, bytes: i64) {
    ALLOCS.with(|n| n.set(n.get() + allocs));
    LIVE_BYTES.with(|n| n.set(n.get() + bytes));
}

struct Counting;

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

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

const ROWS: usize = 10_000;

/// A master rank's `darshan_data` row: the four operations in turn,
/// 10 ms apart, so the stream spans ten 10 s detector windows.
fn row(i: usize) -> Vec<Value> {
    let op = ["open", "write", "read", "close"][i % 4];
    COLUMNS
        .iter()
        .map(|&(name, _)| match name {
            "job_id" => Value::U64(7),
            "rank" => Value::U64(0),
            "op" => Value::Str(op.to_string()),
            "file" => Value::Str("/scratch/o.dat".to_string()),
            "seg_len" => Value::I64(1 << 20),
            "seg_off" => Value::I64((i as i64) << 20),
            "seg_dur" => Value::F64(0.001),
            "seg_timestamp" => Value::F64(1.0e9 + i as f64 * 0.01),
            "ProducerName" | "module" | "exe" | "type" | "seg_data_set" => {
                Value::Str("nid00040".to_string())
            }
            "uid" | "record_id" | "cnt" => Value::U64(1),
            _ => Value::I64(-1),
        })
        .collect()
}

#[test]
fn a_tapped_row_costs_at_most_1_1_allocations() {
    let tap = LiveDetectorTap::new(DetectionConfig::default(), 1, None);
    let rows: Vec<Vec<Value>> = (0..ROWS).map(row).collect();
    let before = allocs();
    for (i, batch) in rows.chunks(100).enumerate() {
        tap.on_rows(batch, Epoch::from_secs(i as u64));
    }
    let per_row = (allocs() - before) as f64 / ROWS as f64;
    println!("allocations per tapped row {per_row:.3}");
    assert_eq!(tap.buffered(), ROWS);
    assert!(per_row <= 1.1, "{per_row:.3} allocations per row");
}

/// Bytes a tap offered every row of `rows` still holds once finalized,
/// itself included.
fn kept_after_finalize(rows: &[Vec<Value>]) -> i64 {
    let before = live_bytes();
    let tap = LiveDetectorTap::new(DetectionConfig::default(), 1, None);
    for (i, batch) in rows.chunks(100).enumerate() {
        tap.on_rows(batch, Epoch::from_secs(i as u64));
    }
    drop(tap.finalize(Epoch::from_secs(1_000_000)));
    live_bytes() - before
}

/// The store holds its observer for the pipeline's lifetime, so a tap
/// must let go of the trace when it closes: on the streaming path, and
/// on the reordered one, which one row offered out of its rank's order
/// forces.
#[test]
fn a_finalized_tap_keeps_no_copy_of_the_trace() {
    let in_order: Vec<Vec<Value>> = (0..ROWS).map(row).collect();
    let mut reordered = in_order.clone();
    let straggler = reordered.remove(ROWS / 2);
    reordered.push(straggler);
    for (name, rows) in [("streaming", &in_order), ("reordered", &reordered)] {
        let kept = kept_after_finalize(rows);
        println!("{name}: a finalized tap keeps {kept} bytes");
        assert!(kept <= 4_096, "{name}: a finalized tap keeps {kept} bytes");
    }
}

#[test]
fn a_span_past_the_cap_allocates_nothing_and_counts_as_dropped() {
    let tel = Telemetry::new(TelemetryConfig::trace_all());
    let site: Arc<str> = Arc::from("voltrino-head");
    let at = Epoch::from_secs(100);
    let span = |trace: u64| tel.span(trace, HopKind::Forward, &site, at, SimDuration::ZERO);
    const FILL: u64 = 100_000;
    const PAST_CAP: u64 = 10_000;
    for trace in 0..FILL {
        span(trace);
    }
    let full = tel.latency_summary();
    assert!(full.spans < FILL, "the log never reached its cap");
    assert_eq!(full.spans_dropped, FILL - full.spans);
    let before = allocs();
    for trace in 0..PAST_CAP {
        span(trace);
    }
    assert_eq!(allocs(), before, "a dropped span allocated");
    let after = tel.latency_summary();
    assert_eq!(after.spans, full.spans);
    assert_eq!(after.spans_dropped, full.spans_dropped + PAST_CAP);
}
