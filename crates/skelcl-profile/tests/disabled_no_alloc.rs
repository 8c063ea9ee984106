//! Proof that the disabled profiler is zero-cost on the heap: a counting
//! global allocator observes no allocations across the whole disabled API
//! surface.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use skelcl_profile::{metrics, FlightKind, FlightRecorder, Profiler, SpanKind};
use vgpu::{CommandKind, DeviceId, Event};

struct CountingAlloc;

thread_local! {
    /// Allocations made by *this* thread: the tests of this file run on
    /// parallel threads, and each must count only its own.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the allocator also runs while a thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn disabled_profiler_never_allocates() {
    let profiler = Profiler::disabled();
    // Event construction itself allocates; do it before measuring.
    let event = Event::new(
        DeviceId(0),
        CommandKind::Kernel {
            name: "skelcl_map".into(),
        },
        0,
        10,
        110,
        None,
    );

    let before = allocations();
    for _ in 0..100 {
        let guard = profiler.host_span(SpanKind::Skeleton, "Map.call");
        profiler.record_event(&event);
        profiler.add(metrics::SKELETON_CALLS, 1);
        profiler.record_value(metrics::HIST_KERNEL_NS, 42);
        profiler.record_flow(3, 7);
        profiler.record_counter_sample(metrics::QUEUE_DEPTH, 0, 10, 2.0);
        profiler.set_device_gauge(metrics::POOL_STEAL_BALANCE, 0, 1.0);
        assert_eq!(guard.id(), 0);
        drop(guard);
    }
    assert!(profiler.spans().is_empty());
    assert!(profiler.flows().is_empty());
    assert!(profiler.counter_samples().is_empty());
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "disabled profiler allocated on the hot path"
    );
}

#[test]
fn disabled_flight_recorder_never_allocates() {
    let flight = FlightRecorder::disabled();
    assert!(!flight.is_enabled());

    let before = allocations();
    for i in 0..100u64 {
        flight.record(FlightKind::LaunchBegin, 0, "kernel", i, 256, 0);
        flight.record(FlightKind::Transfer, 1, "write", i, 4096, 0);
        assert!(!flight.dump_once("should not dump"));
    }
    assert_eq!(flight.recorded(), 0);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "disabled flight recorder allocated on the hot path"
    );
}

#[test]
fn enabled_profiler_does_record() {
    // Sanity check that the same call sequence records when enabled — the
    // zero-allocation property above is meaningful only if the API is live.
    let profiler = Profiler::enabled();
    let event = Event::new(
        DeviceId(0),
        CommandKind::Kernel { name: "k".into() },
        0,
        10,
        110,
        None,
    );
    {
        let _guard = profiler.host_span(SpanKind::Skeleton, "Map.call");
        profiler.record_event(&event);
    }
    assert_eq!(profiler.spans().len(), 2);
}
