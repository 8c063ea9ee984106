//! Integration tests for the second-generation observability layer:
//! the flight recorder's crash postmortem on `DeviceLost`, its queue
//! telemetry feed, and the Chrome-trace flow edges drawn from `LaunchPlan`
//! wait-list dependencies.

use skelcl::profile::flight::HOST_DEVICE;
use skelcl::profile::json::Json;
use skelcl::profile::FlightKind;
use skelcl::{
    Context, DeviceSelection, Distribution, FlightRecorder, Profiler, Reduce, Vector, Zip,
};
use vgpu::{
    DeviceSpec, Error as VgpuError, FaultInjection, KernelArg, LaunchConfig, NdRange, Platform,
};

fn observed_ctx(devices: usize, profiler: Profiler, capacity: usize) -> Context {
    Context::init_with_observability(
        Platform::new(devices, DeviceSpec::tesla_t10()),
        DeviceSelection::All,
        profiler,
        FlightRecorder::with_capacity(capacity),
    )
}

/// A panicking kernel on the fast path surfaces as `DeviceLost`, the
/// flight recorder auto-dumps its ring exactly once, and the persistent
/// worker pool keeps serving skeleton calls on the same context.
#[test]
fn device_lost_dumps_flight_recorder_and_session_survives() {
    let ctx = observed_ctx(2, Profiler::enabled(), 128);
    let flight = ctx.flight().clone();
    assert!(flight.is_enabled());
    assert!(!flight.dumped());

    // Warm up: a real skeleton call feeds the recorder through the queue
    // observers installed by the context.
    let sum: Reduce<i32> = Reduce::new(&ctx, "int sum(int x, int y){ return x + y; }").unwrap();
    let input = Vector::from_fn(&ctx, 4_096, |i| i as i32);
    assert_eq!(sum.call(&input).unwrap().value(), (0..4_096).sum::<i32>());
    assert!(flight.recorded() > 0, "queue telemetry feeds the recorder");
    let events = flight.events();
    assert!(events.iter().any(|e| e.kind == FlightKind::LaunchEnd));
    assert!(events.iter().any(|e| e.kind == FlightKind::Transfer));
    assert!(events.iter().any(|e| e.kind == FlightKind::PlanNode));

    // Crash a kernel on the pool's worker threads via fault injection,
    // driven through the context's own (observed) queue.
    let program = skelcl_kernel::compile(
        "crash.cl",
        "__kernel void crash(__global int* out){ out[get_global_id(0)] = 1; }",
    )
    .unwrap();
    let buf = ctx.queue(0).create_buffer(64 * 4).unwrap();
    let config = LaunchConfig {
        fault_injection: Some(FaultInjection::PanicInKernel),
        ..LaunchConfig::default()
    };
    let err = ctx
        .queue(0)
        .launch_kernel(
            &program,
            "crash",
            &[KernelArg::Buffer(buf)],
            NdRange::linear(64, 32),
            &config,
        )
        .unwrap_err();
    assert!(matches!(err, VgpuError::DeviceLost));

    // The queue observer saw the DeviceLost failure and fired the one-shot
    // postmortem dump; the failure itself is in the ring.
    assert!(flight.dumped(), "DeviceLost must auto-dump the recorder");
    assert!(flight
        .events()
        .iter()
        .any(|e| e.kind == FlightKind::Failure && e.b == 1));

    // The session is not poisoned: the same skeleton still executes on the
    // same pools, and the on-demand dump keeps working.
    assert_eq!(sum.call(&input).unwrap().value(), (0..4_096).sum::<i32>());
    let dump = ctx.dump_flight().expect("recorder enabled");
    assert!(dump.contains("launch_end"));
}

/// A disabled flight recorder stays fully inert through a real session.
#[test]
fn disabled_flight_recorder_is_inert_in_context() {
    let ctx = Context::init_with_observability(
        Platform::new(2, DeviceSpec::tesla_t10()),
        DeviceSelection::All,
        Profiler::disabled(),
        FlightRecorder::disabled(),
    );
    assert!(!ctx.flight().is_enabled());
    let sum: Reduce<i32> = Reduce::new(&ctx, "int sum(int x, int y){ return x + y; }").unwrap();
    let input = Vector::from_fn(&ctx, 1_000, |i| i as i32);
    assert_eq!(sum.call(&input).unwrap().value(), (0..1_000).sum::<i32>());
    assert_eq!(ctx.flight().recorded(), 0);
    assert!(ctx.dump_flight().is_none());
}

/// Multi-node plans (Reduce chains upload → kernel → … → read per device)
/// produce flow edges, and the exported trace pairs every flow start with
/// a flow end whose timestamp is not earlier.
#[test]
fn launch_plan_dependencies_become_trace_flow_edges() {
    let ctx = observed_ctx(2, Profiler::enabled(), 64);
    let mult: Zip<f32, f32, f32> =
        Zip::new(&ctx, "float mult(float x, float y){ return x * y; }").unwrap();
    let sum: Reduce<f32> =
        Reduce::new(&ctx, "float sum(float x, float y){ return x + y; }").unwrap();
    let a = Vector::from_fn(&ctx, 8_192, |i| (i % 100) as f32);
    let b = Vector::from_fn(&ctx, 8_192, |_| 0.5);
    a.set_distribution(Distribution::Block).unwrap();
    let dot = sum.call(&mult.call(&a, &b).unwrap()).unwrap();
    let expected: f32 = (0..8_192).map(|i| (i % 100) as f32 * 0.5).sum();
    assert!((dot.value() - expected).abs() / expected < 1e-3);

    let flows = ctx.profiler().flows();
    assert!(
        !flows.is_empty(),
        "reduce plans chain nodes, so flow edges must exist"
    );
    for f in &flows {
        assert_ne!(f.from, 0);
        assert_ne!(f.to, 0);
        assert_ne!(f.from, f.to);
    }

    // Queue-depth counter samples were recorded by the queue observers.
    let samples = ctx.profiler().counter_samples();
    assert!(!samples.is_empty());
    assert!(samples
        .iter()
        .all(|s| s.name == skelcl::profile::metrics::QUEUE_DEPTH));

    // Redistribution events carry the host pseudo-device id.
    assert!(ctx
        .flight()
        .events()
        .iter()
        .filter(|e| e.kind == FlightKind::Redistribution)
        .all(|e| e.device == HOST_DEVICE));

    // The exported trace pairs every flow start with a matching end.
    let trace = Json::parse(&ctx.profiler().chrome_trace_json().unwrap()).unwrap();
    let events = trace.get("traceEvents").unwrap().as_arr().unwrap();
    let mut starts = std::collections::HashMap::new();
    let mut ends = std::collections::HashMap::new();
    for e in events {
        let id = || e.get("id").unwrap().as_f64().unwrap() as u64;
        let ts = || e.get("ts").unwrap().as_f64().unwrap();
        match e.get("ph").unwrap().as_str().unwrap() {
            "s" => {
                starts.insert(id(), ts());
            }
            "t" => {
                ends.insert(id(), ts());
            }
            _ => {}
        }
    }
    assert!(!starts.is_empty());
    assert_eq!(starts.len(), ends.len());
    for (id, s_ts) in &starts {
        let t_ts = ends.get(id).expect("flow start without end");
        assert!(s_ts <= t_ts, "flow {id}: {s_ts} -> {t_ts}");
    }
}
