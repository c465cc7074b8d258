//! A counting global allocator: live heap bytes, their high-water mark,
//! and the number of allocations, so a pass can report its own peak heap
//! above what was live when it began (the pre-built input excluded).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

pub struct CountingAlloc;

// All three are statistics that publish no other data: Relaxed suffices.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);

fn grow(by: usize) {
    let now = LIVE.fetch_add(by as u64, Ordering::Relaxed) + by as u64;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the
// counters touched on the side never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        COUNT.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        COUNT.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        COUNT.fetch_add(1, Ordering::Relaxed);
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            LIVE.fetch_sub((layout.size() - new_size) as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Heap counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct HeapMark {
    live: u64,
    count: u64,
}

/// Restarts the high-water mark at the bytes live now and returns the
/// baseline a later [`since`] measures against.
pub fn mark() -> HeapMark {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    HeapMark {
        live,
        count: COUNT.load(Ordering::Relaxed),
    }
}

/// `(peak live bytes above the mark, allocations since the mark)`.
pub fn since(m: HeapMark) -> (u64, u64) {
    (
        PEAK.load(Ordering::Relaxed).saturating_sub(m.live),
        COUNT.load(Ordering::Relaxed) - m.count,
    )
}
