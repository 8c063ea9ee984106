//! Acceptance test for the observability layer: the quickstart dot product
//! (paper Listing 1.1) with profiling enabled writes a Chrome trace that
//! validates against the `traceEvents` schema, and the metrics registry
//! shows non-zero transfer bytes, compile-cache activity and per-device
//! busy nanoseconds.

use skelcl_repro::skelcl::profile::json::Json;
use skelcl_repro::skelcl::profile::metrics;
use skelcl_repro::skelcl::{Config, Context, DeviceSelection, Profiler, Reduce, Vector, Zip};
use skelcl_repro::vgpu::Platform;

fn dot_product_profiled() -> Context {
    let ctx = Context::init_with_profiler(
        Platform::tesla_s1070(),
        DeviceSelection::All,
        Profiler::enabled(),
    );
    dot_product(&ctx);
    ctx
}

fn dot_product(ctx: &Context) {
    let sum: Reduce<f32> =
        Reduce::new(ctx, "float sum(float x, float y){ return x + y; }").unwrap();
    let mult: Zip<f32, f32, f32> =
        Zip::new(ctx, "float mult(float x, float y){ return x * y; }").unwrap();
    let a = Vector::from_fn(ctx, 1 << 14, |i| (i % 100) as f32 / 100.0);
    let b = Vector::from_fn(ctx, 1 << 14, |i| ((i + 7) % 50) as f32 / 50.0);
    let c = sum.call(&mult.call(&a, &b).unwrap()).unwrap();
    assert!(c.value() > 0.0);
}

/// `SKELCL_TRACE=<path>` on its own — no `SKELCL_PROFILE` — profiles the
/// session and writes its trace when the last context handle drops.
#[test]
fn trace_path_alone_writes_a_trace_at_drop() {
    let path = std::env::temp_dir().join(format!("skelcl_trace_alone_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let config = Config {
        trace: Some(path.clone()),
        ..Config::default()
    };
    assert!(!config.profile);
    let ctx = Context::init_with_config(Platform::tesla_s1070(), DeviceSelection::All, config);
    let clone = ctx.clone();
    dot_product(&ctx);
    drop(ctx);
    assert!(!path.exists(), "a handle is still alive");
    drop(clone);

    let trace = Json::parse(&std::fs::read_to_string(&path).unwrap()).expect("valid JSON");
    let _ = std::fs::remove_file(&path);
    let events = trace.get("traceEvents").and_then(Json::as_arr);
    assert!(events.is_some_and(|e| !e.is_empty()));
}

#[test]
fn dot_product_trace_matches_trace_events_schema() {
    let ctx = dot_product_profiled();

    // Write the trace like the quickstart example does, then re-read it.
    let dir = std::env::temp_dir();
    let path = dir.join(format!("skelcl_dot_trace_{}.json", std::process::id()));
    let trace_text = ctx
        .profiler()
        .chrome_trace_json()
        .expect("profiler enabled");
    std::fs::write(&path, &trace_text).unwrap();
    let trace = Json::parse(&std::fs::read_to_string(&path).unwrap()).expect("valid JSON");
    let _ = std::fs::remove_file(&path);

    // Envelope: {"traceEvents": [...], "displayTimeUnit": "ns"}.
    assert_eq!(
        trace.get("displayTimeUnit").and_then(Json::as_str),
        Some("ns")
    );
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    assert!(!events.is_empty());

    // Every event carries the schema's required fields per phase.
    let mut metadata = 0;
    let mut complete = 0;
    let mut flow_starts = 0;
    let mut flow_ends = 0;
    for e in events {
        assert!(e.get("name").and_then(Json::as_str).is_some(), "event name");
        assert!(e.get("pid").and_then(Json::as_f64).is_some(), "event pid");
        assert!(e.get("tid").and_then(Json::as_f64).is_some(), "event tid");
        match e.get("ph").and_then(Json::as_str) {
            Some("M") => metadata += 1,
            Some("X") => {
                complete += 1;
                assert!(e.get("ts").and_then(Json::as_f64).is_some(), "X has ts");
                assert!(e.get("dur").and_then(Json::as_f64).is_some(), "X has dur");
            }
            // Flow events pair LaunchPlan wait-list edges across lanes.
            Some(ph @ ("s" | "t")) => {
                if ph == "s" {
                    flow_starts += 1;
                } else {
                    flow_ends += 1;
                }
                assert!(e.get("ts").and_then(Json::as_f64).is_some(), "flow has ts");
                assert!(e.get("id").and_then(Json::as_f64).is_some(), "flow has id");
            }
            // Counter tracks (queue depth, pool gauges).
            Some("C") => {
                assert!(e.get("ts").and_then(Json::as_f64).is_some(), "C has ts");
                assert!(
                    e.get("args").and_then(|a| a.get("value")).is_some(),
                    "C has args.value"
                );
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert_eq!(flow_starts, flow_ends, "flow starts pair with flow ends");
    // Process name + host lane + 4 device lanes, and real work happened.
    assert!(
        metadata >= 6,
        "process and lane metadata present ({metadata})"
    );
    assert!(complete > 0, "complete events present");

    // Kernel events carry their launch geometry.
    assert!(
        events.iter().any(|e| {
            e.get("cat").and_then(Json::as_str) == Some("kernel")
                && e.get("args").and_then(|a| a.get("nd_range")).is_some()
        }),
        "kernel events carry nd_range"
    );
}

#[test]
fn dot_product_metrics_are_populated() {
    let ctx = dot_product_profiled();
    let m = ctx.profiler().metrics_snapshot().expect("profiler enabled");
    let counter = |name: &str| m.counters.get(name).copied().unwrap_or(0);

    // Non-zero bytes transferred in both directions (2 input vectors up,
    // intermediate + final results down).
    assert!(counter(metrics::BYTES_H2D) > 0, "host-to-device bytes");
    assert!(counter(metrics::BYTES_D2H) > 0, "device-to-host bytes");
    // The two skeletons each compiled a fresh program.
    assert_eq!(
        counter(metrics::COMPILE_CACHE_MISS),
        2,
        "zip + reduce compiles"
    );
    assert_eq!(
        counter(metrics::SKELETON_CALLS),
        2,
        "zip call + reduce call"
    );
    // All four devices accrued kernel busy time.
    assert_eq!(m.devices.len(), 4);
    for (device, busy) in &m.devices {
        assert!(busy.kernel_ns > 0, "device {device} has kernel busy-ns");
    }
    assert!(m.load_imbalance() >= 1.0);
}
