//! A counting global allocator, installed in this binary only.
//!
//! Counts are kept per thread, so a sweep worker can read exactly the
//! allocations of the job it ran, independent of what the other workers
//! and the pool were doing at the same time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct Counting;

thread_local! {
    /// `(allocations, bytes)` made by this thread. Const-initialised with
    /// no destructor, so touching it never allocates.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn bump(bytes: usize) {
    // `try_with` fails only while the thread is being torn down, when no
    // measured work runs.
    let _ = COUNTS.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

/// Allocations and bytes requested by the calling thread so far. A
/// `realloc` counts as one allocation of its new size.
pub fn thread_counts() -> (u64, u64) {
    COUNTS.with(Cell::get)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting touches
// only a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}
