//! What watching costs, counted by an allocator rather than timed by a
//! clock: the figures repeat on any host. The live detector tap may
//! keep one copy of what it reads, and a span offered to a full span
//! log is a drop count, not an allocation. Counts are per thread, so
//! the two tests do not see each other's allocations.

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
}

struct Counting;

// SAFETY: every call is handed to `System` with the caller's own
// arguments; the counter is a plain per-thread statistic with no
// destructor, so touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`
        // above with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
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
