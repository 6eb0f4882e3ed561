//! A warmed store-and-forward cycle allocates nothing.
//!
//! A counting global allocator (per thread, so parallel test threads
//! never see each other's counts) wraps one gateway cycle — buffer a
//! record locally, drain it into a remote log whose handler fires — after
//! a warm-up that fills every ring involved: the local buffer, the
//! gateway's cursor log and the remote log.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xg_cspot::prelude::*;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the only added
// work is bumping a const thread-local that neither allocates nor runs a
// destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: same layout the caller gave us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr`/`layout` come from a previous call on this
        // allocator, which always delegated to `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn the_counter_sees_allocations() {
    assert_eq!(allocations(|| drop(String::from("owned"))), 1);
}

#[test]
fn warmed_buffer_and_drain_of_one_record() {
    let local = Arc::new(CspotNode::in_memory("UNL"));
    local.create_log("buf", 8, 16).unwrap();
    let remote = CspotNode::in_memory("UCSB");
    remote.create_log("telemetry", 8, 16).unwrap();
    let fired = Arc::new(AtomicU64::new(0));
    let f = Arc::clone(&fired);
    remote.register_handler(
        "telemetry",
        Arc::new(move |_, _, _, _| {
            f.fetch_add(1, Ordering::Relaxed);
        }),
    );
    let appender = RemoteAppender::new(
        SimClock::new(),
        RoutePath::single(PathModel::wired(3.0, 0.2)),
        RemoteConfig::default(),
        1,
    );
    let mut gw = Gateway::new(local, "buf", "telemetry", appender).unwrap();
    let mut cycle = |i: u64| {
        gw.buffer(&i.to_le_bytes()).unwrap();
        let report = gw.drain(&remote);
        assert_eq!((report.relayed, report.remaining), (1, 0));
    };
    // The cursor log holds 64 elements: past that every ring is full.
    for i in 0..100 {
        cycle(i);
    }
    assert_eq!(allocations(|| cycle(100)), 0);
    assert_eq!(fired.load(Ordering::Relaxed), 101);
    assert_eq!(remote.latest_seq("telemetry").unwrap(), Some(101));
}
