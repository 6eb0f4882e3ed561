//! Warmed enabled-observability records allocate nothing.
//!
//! A counting global allocator (per thread, so parallel test threads
//! never see each other's counts) wraps each operation after a warm-up
//! that puts its storage in place: the span name is a literal, the
//! histogram bucket, profiler path and window instruments already exist,
//! and the flight recorder's ring is full.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use xg_obs::clock::ClockDomain;
use xg_obs::window::{MetricsWindow, WindowConfig};
use xg_obs::{
    extract_critical_into, CriticalPath, FlightRecorder, MetricsRegistry, Profiler, SpanRecord,
    Tracer,
};

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
fn literal_named_span_into_a_full_recorder() {
    let recorder = Arc::new(FlightRecorder::new(16));
    let tracer = Tracer::with_sink(Arc::clone(&recorder));
    let trace = tracer.new_trace();
    for _ in 0..16 {
        tracer.record_sim_s(trace, None, "fabric.cycle", 0.0, 1.0, vec![]);
    }
    drop(tracer.take_spans());
    let n = allocations(|| {
        let root = tracer.record_sim_s(trace, None, "fabric.cycle", 0.0, 1.0, vec![]);
        tracer.record_raw(trace, Some(root), "phase", ClockDomain::Wall, 5, 9, vec![]);
    });
    assert_eq!(n, 0);
    assert_eq!(tracer.len(), 2);
}

#[test]
fn recorder_push_at_capacity() {
    let recorder = FlightRecorder::new(4);
    let span = |id| SpanRecord {
        trace: 1,
        id,
        parent: None,
        name: "s".into(),
        domain: ClockDomain::Sim,
        start_us: 0,
        end_us: 1,
        attrs: vec![],
    };
    for id in 0..4 {
        recorder.record_span(span(id));
    }
    assert_eq!(allocations(|| recorder.record_span(span(9))), 0);
    assert_eq!(recorder.dropped(), 1);
}

#[test]
fn sample_into_an_existing_bucket() {
    let reg = MetricsRegistry::new();
    let (sparse, dense) = (reg.histogram("h"), reg.wall_histogram_ms("w"));
    sparse.record(42.0);
    dense.record(0.5);
    let n = allocations(|| {
        sparse.record(42.0);
        dense.record(0.7);
        dense.record(3.0e4);
    });
    assert_eq!(n, 0);
}

#[test]
fn scope_at_an_existing_path() {
    let prof = Profiler::new();
    prof.scope("cspot.append").finish();
    prof.scope_under("ran.fleet.batch", "cell").finish();
    prof.record_at("ran.fleet.sim/cell", 1);
    let n = allocations(|| {
        prof.scope("cspot.append").finish();
        prof.scope_under("ran.fleet.batch", "cell").finish();
        prof.record_at("ran.fleet.sim/cell", 1_000_000_000);
    });
    assert_eq!(n, 0);
}

#[test]
fn cycle_tree_ingest_and_critical_path() {
    let span = |id, parent, name, end_us| SpanRecord {
        trace: 7,
        id,
        parent,
        name,
        domain: ClockDomain::Wall,
        start_us: 0,
        end_us,
        attrs: vec![],
    };
    let spans = [
        span(1, None, "fabric.cycle".into(), 100),
        span(2, Some(1), "fabric.ran.probe".into(), 70),
        span(3, Some(1), "fabric.gateway.ship".into(), 20),
    ];
    let prof = Profiler::new();
    let mut path = CriticalPath::default();
    prof.record_trace(&spans);
    assert!(extract_critical_into(&spans, 7, &mut path));
    let n = allocations(|| {
        prof.record_trace(&spans);
        extract_critical_into(&spans, 7, &mut path);
    });
    assert_eq!(n, 0);
    assert_eq!(
        path.leaf().map(|l| l.name.as_ref()),
        Some("fabric.ran.probe")
    );
}

#[test]
fn window_tick() {
    let reg = MetricsRegistry::new();
    let (lat, delivered) = (reg.histogram("lat_ms"), reg.counter("delivered"));
    let mut w = MetricsWindow::new(WindowConfig {
        interval_s: 300.0,
        intervals: 3,
    });
    w.focus(["lat_ms", "delivered"].map(String::from).into());
    for k in 1..=4 {
        lat.record(120.0);
        lat.record(0.0);
        delivered.add(9);
        w.tick(&reg, k as f64 * 300.0);
    }
    let n = allocations(|| {
        lat.record(120.0);
        delivered.add(9);
        w.tick(&reg, 1500.0);
        let view = w.view();
        assert!(view.quantile("lat_ms", 0.99).is_some());
        assert_eq!(view.delta("delivered"), 27);
    });
    assert_eq!(n, 0);
}
