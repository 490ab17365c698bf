//! A counting global allocator for the traced run.
//!
//! Same shape as the counting allocator in
//! `crates/hebbian/tests/alloc_free.rs`, except that counting is per
//! thread and switched on only while a traced run measures. The spans of
//! the measuring thread (see [`crate::span`]) therefore see only its own
//! allocations, and none of the serve workers' or of a concurrent test's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn bump() {
    // `try_with` fails only during thread teardown; such an allocation
    // belongs to no span and is not counted.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method defers to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the only addition is
// a thread-local counter bump, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (including reallocations) made by the calling thread
/// while counting was on.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Switches counting on or off for the calling thread.
pub fn set_counting(on: bool) {
    COUNTING.with(|c| c.set(on));
}
