//! Counting global allocator: a deterministic "allocations per point"
//! figure at each layer boundary, instead of a wall-clock number.
//!
//! Counting is off unless [`enable`] was called (traced runs only), so an
//! untraced run pays one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Forwards every call to [`System`], counting allocations on the way.
pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static TOTAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator can never allocate or re-enter.
    static LOCAL: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn note() {
    if ENABLED.load(Ordering::Relaxed) {
        TOTAL.fetch_add(1, Ordering::Relaxed);
        let _ = LOCAL.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches no memory
// the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's contract for `alloc_zeroed` is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc` is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Starts counting (for the rest of the process).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Allocations made by any thread since counting started.
pub fn total() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

/// Allocations made by the calling thread since counting started.
pub fn local() -> u64 {
    LOCAL.with(Cell::get)
}
