//! A counting `#[global_allocator]`: the only way to see heap traffic of the
//! code under test from outside it. Counting is off except inside
//! [`counted`], which only traced runs call, so the untraced run pays one
//! relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator plus two counters.
pub struct Counting;

// Statistics only: they publish no other data, so `Relaxed` is enough.
static ENABLED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` is the
        // caller's obligation, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn note(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

/// Heap requests made while a closure ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Heap {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

/// Runs `f` with counting on and returns what it requested from the heap —
/// on every thread of the process, so call it while no other thread works.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, Heap) {
    let (calls, bytes) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    ENABLED.store(true, Ordering::Relaxed);
    let out = f();
    ENABLED.store(false, Ordering::Relaxed);
    let heap = Heap {
        calls: CALLS.load(Ordering::Relaxed) - calls,
        bytes: BYTES.load(Ordering::Relaxed) - bytes,
    };
    (out, heap)
}
