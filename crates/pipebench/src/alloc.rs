//! A gated counting allocator for the `*.allocs_per_*` and
//! `dsos.live_bytes_per_row` layer metrics.
//!
//! Off (the default, and always during end-to-end timing) it costs one
//! relaxed load per call and forwards to the system allocator. On, it
//! counts calls and tracks the net change in live bytes, so a region's
//! `live_after - live_before` is exact whichever blocks were allocated
//! before counting began: every free in the region is subtracted and
//! every allocation added.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

/// The allocator the bench binary installs.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are statistics
// that publish no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Ordering::Relaxed) {
            LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What a counted region did: allocator calls and net live-byte change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counted {
    pub allocs: u64,
    pub live_bytes: i64,
}

/// Runs `f` with counting on and returns what it allocated. Regions do
/// not nest; the bench counts from its single generator thread.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, Counted) {
    let allocs = ALLOCS.load(Ordering::Relaxed);
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    let out = f();
    ENABLED.store(false, Ordering::Relaxed);
    let counted = Counted {
        allocs: ALLOCS.load(Ordering::Relaxed) - allocs,
        live_bytes: LIVE_BYTES.load(Ordering::Relaxed) - live,
    };
    (out, counted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_allocations_while_the_gate_is_open() {
        // Other tests allocate and free concurrently while the gate is
        // open, so only the call count's lower bound is exact here.
        let (kept, c) = counted(|| {
            let dropped = vec![0u8; 4096];
            std::hint::black_box(&dropped);
            drop(dropped);
            std::hint::black_box(vec![0u8; 1 << 20])
        });
        assert!(c.allocs >= 2, "two vectors were allocated: {c:?}");
        drop(kept);
    }
}
