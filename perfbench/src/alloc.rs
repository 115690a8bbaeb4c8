//! Counting global allocator, installed in the benchmark binary only.
//!
//! Counters are per thread: a unit (one testbed cell or one capture)
//! runs start to finish on one executor worker, so the difference of
//! two [`AllocStats::now`] readings taken on that worker counts exactly
//! the unit's own allocations, whatever the worker count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// [`System`] plus per-thread allocation counters.
pub struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn on_alloc(size: usize) {
    // `try_with` never panics, even while the thread is being torn down.
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
    grow(size as i64);
}

fn grow(delta: i64) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|p| p.set(p.get().max(now)));
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters touch
// only const-initialised thread-locals without destructors, which never
// allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: same contract as this method.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: same contract as this method.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        // SAFETY: same contract as this method.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_alloc(0);
        grow(new_size as i64 - layout.size() as i64);
        // SAFETY: same contract as this method.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A reading of the calling thread's counters.
#[derive(Debug, Clone, Copy)]
pub struct AllocStats {
    /// Allocation calls so far (`alloc`, `alloc_zeroed` and `realloc`).
    pub allocs: u64,
    live: i64,
}

impl AllocStats {
    /// Read the calling thread's counters and restart its peak tracking
    /// from the current live byte count.
    pub fn now() -> Self {
        let live = LIVE.with(Cell::get);
        PEAK.with(|p| p.set(live));
        AllocStats {
            allocs: ALLOCS.with(Cell::get),
            live,
        }
    }

    /// Allocation calls on this thread since `self` was read.
    pub fn allocs_since(&self) -> u64 {
        ALLOCS.with(Cell::get) - self.allocs
    }

    /// Highest live heap bytes on this thread since `self` was read,
    /// above the level at that reading.
    pub fn peak_bytes_since(&self) -> u64 {
        (PEAK.with(Cell::get) - self.live).max(0) as u64
    }
}
