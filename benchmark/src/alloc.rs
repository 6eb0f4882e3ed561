//! Counting allocator, installed in the benchmark binary only.
//!
//! Counters are per thread and plain (`Cell`), so the measured
//! single-threaded passes pay one add per allocation and unit tests on
//! parallel test threads never see each other's counts. The `const`
//! thread-locals have no destructor and never allocate, which is what
//! makes them safe to touch from inside the allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNT: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not yet freed. Signed: a block
    /// freed on another thread than it came from would take it below zero.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

pub struct Counting;

fn note(size: usize) {
    COUNT.with(|c| c.set(c.get() + 1));
    BYTES.with(|b| b.set(b.get() + size as u64));
    grow(size as i64);
}

fn grow(by: i64) {
    let live = LIVE.with(|l| {
        l.set(l.get() + by);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

// SAFETY: every call is forwarded unchanged to `System`; the only added
// work is bumping a few thread-local integers that neither allocate nor
// run destructors.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller gave us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller gave us.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        grow(-(layout.size() as i64));
        // SAFETY: `ptr`/`layout` come from a previous call on this allocator,
        // which always delegated to `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        // SAFETY: `ptr`/`layout` come from a previous call on this allocator,
        // which always delegated to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(allocations, bytes requested)` made by the calling thread so far.
pub fn snapshot() -> (u64, u64) {
    (COUNT.with(Cell::get), BYTES.with(Cell::get))
}

/// High-water mark of the calling thread's live heap bytes.
pub fn peak_live_bytes() -> u64 {
    PEAK.with(Cell::get).max(0) as u64
}
