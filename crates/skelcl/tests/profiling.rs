//! End-to-end test of the observability layer: a Reduce on two virtual
//! devices, cross-checked against the Chrome trace export and the
//! skeleton's own `EventLog`; and the host spans and call counts each
//! skeleton entry point owns.

use skelcl::profile::json::Json;
use skelcl::profile::{metrics, Lane, SpanKind};
use skelcl::{
    Allpairs, BoundaryHandling, Config, Context, DeviceSelection, Map, MapOverlap, MapOverlapVec,
    Matrix, PlanConfig, Profiler, Reduce, Scan, Vector, Zip,
};
use vgpu::{event, CommandKind, DeviceSpec, Platform};

fn two_gpu_profiled() -> Context {
    Context::init_with_profiler(
        Platform::new(2, DeviceSpec::tesla_t10()),
        DeviceSelection::All,
        Profiler::enabled(),
    )
}

#[test]
fn reduce_trace_round_trips_and_matches_event_log() {
    let ctx = two_gpu_profiled();
    let sum: Reduce<i32> = Reduce::new(&ctx, "int sum(int x, int y){ return x + y; }").unwrap();
    let input = Vector::from_fn(&ctx, 10_000, |i| i as i32);
    let result = sum.call(&input).unwrap();
    assert_eq!(result.value(), (0..10_000).sum::<i32>());

    // 1. The Chrome trace parses and has the expected envelope.
    let trace_text = ctx
        .profiler()
        .chrome_trace_json()
        .expect("profiler enabled");
    let trace = Json::parse(&trace_text).expect("chrome trace is valid JSON");
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // 2. Per-lane "X" timestamps are monotone: each device is an in-order
    //    queue, and host spans are recorded at creation order per lane.
    let mut last_ts: std::collections::HashMap<(u64, u64), f64> = std::collections::HashMap::new();
    let mut complete_events = 0;
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("event phase");
        if ph != "X" {
            continue;
        }
        complete_events += 1;
        let pid = e.get("pid").and_then(Json::as_f64).unwrap() as u64;
        let tid = e.get("tid").and_then(Json::as_f64).unwrap() as u64;
        let ts = e.get("ts").and_then(Json::as_f64).expect("ts");
        assert!(
            e.get("dur").and_then(Json::as_f64).is_some(),
            "X event has dur"
        );
        let prev = last_ts.insert((pid, tid), ts);
        if let Some(prev) = prev {
            assert!(
                ts >= prev,
                "lane ({pid},{tid}) timestamps go backwards: {prev} > {ts}"
            );
        }
    }
    assert!(complete_events > 0, "trace has complete events");
    // Both device lanes (tid 1 and 2) plus the host lane appear.
    assert!(last_ts.contains_key(&(1, 0)), "host lane present");
    assert!(last_ts.contains_key(&(1, 1)), "device 0 lane present");
    assert!(last_ts.contains_key(&(1, 2)), "device 1 lane present");

    // 3. The kernel spans are exactly the EventLog's kernel events: their
    //    summed durations agree with `event::total_duration`.
    let spans = ctx.profiler().spans();
    let kernel_span_ns: u64 = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Kernel)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let log_events = sum.events().last_events();
    let log_kernels: Vec<_> = log_events
        .iter()
        .filter(|e| matches!(e.kind(), CommandKind::Kernel { .. }))
        .collect();
    assert!(!log_kernels.is_empty());
    let log_kernel_ns = event::total_duration(log_kernels.iter().copied()).as_nanos() as u64;
    assert_eq!(
        kernel_span_ns, log_kernel_ns,
        "kernel spans mirror the event log"
    );

    // Kernel spans landed on both device lanes.
    let devices: std::collections::BTreeSet<_> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Kernel)
        .filter_map(|s| match s.lane {
            Lane::Device(d) => Some(d),
            Lane::Host => None,
        })
        .collect();
    assert_eq!(devices.into_iter().collect::<Vec<_>>(), vec![0, 1]);
}

#[test]
fn metrics_cover_transfers_compile_cache_and_busy_ns() {
    let ctx = two_gpu_profiled();
    let sum: Reduce<i32> = Reduce::new(&ctx, "int sum(int x, int y){ return x + y; }").unwrap();
    let input = Vector::from_fn(&ctx, 4096, |i| i as i32);
    sum.call(&input).unwrap();
    // Second call with the same skeleton: the program cache hits.
    let sum2: Reduce<i32> = Reduce::new(&ctx, "int sum(int x, int y){ return x + y; }").unwrap();
    sum2.call(&input).unwrap();

    let m = ctx.profiler().metrics_snapshot().expect("profiler enabled");
    let counter = |name: &str| m.counters.get(name).copied().unwrap_or(0);
    assert!(counter(skelcl::profile::metrics::BYTES_H2D) >= 4096 * 4);
    assert!(counter(skelcl::profile::metrics::BYTES_D2H) > 0);
    assert_eq!(counter(skelcl::profile::metrics::COMPILE_CACHE_MISS), 1);
    assert_eq!(counter(skelcl::profile::metrics::COMPILE_CACHE_HIT), 1);
    assert_eq!(counter(skelcl::profile::metrics::SKELETON_CALLS), 2);
    assert_eq!(m.devices.len(), 2, "both devices accrued busy time");
    for busy in m.devices.values() {
        assert!(busy.kernel_ns > 0);
        assert!(busy.transfer_ns > 0);
    }
    assert!(m.load_imbalance() >= 1.0);
}

/// Names of the skeleton-kind host spans closed so far, in closing order.
fn skeleton_spans(ctx: &Context) -> Vec<String> {
    let spans = ctx.profiler().spans().into_iter();
    spans
        .filter(|s| s.kind == SpanKind::Skeleton && s.lane == Lane::Host)
        .map(|s| s.name)
        .collect()
}

/// Spans and the `skeleton.calls` counter belong to the skeleton entry
/// points, not to the region executor they share: every eager call opens
/// exactly one skeleton-kind host span under its own name and counts as
/// one call; a staged plan intermediate opens `plan.stage` and is not a
/// call; the root of a lazy evaluation is `Expr.eval`.
#[test]
fn entry_points_own_their_span_and_call_count() {
    let ctx = Context::init_with_config(
        Platform::new(2, DeviceSpec::tesla_t10()),
        DeviceSelection::All,
        Config {
            plan: PlanConfig::oracle(),
            profile: true,
            ..Config::default()
        },
    );
    let v = Vector::from_fn(&ctx, 1000, |i| i as f32);
    let m = Matrix::from_fn(&ctx, 20, 30, |r, c| (r * 30 + c) as f32);
    let neg: Map<f32, f32> = Map::new(&ctx, "float neg(float x){ return -x; }").unwrap();
    let index: Map<i32, f32> = Map::new(&ctx, "float half(int i){ return i * 0.5f; }").unwrap();
    let add: Zip<f32, f32, f32> =
        Zip::new(&ctx, "float add(float x, float y){ return x + y; }").unwrap();
    let sum: Reduce<f32> =
        Reduce::new(&ctx, "float sum(float x, float y){ return x + y; }").unwrap();
    let prefix: Scan<f32> =
        Scan::new(&ctx, "float plus(float x, float y){ return x + y; }").unwrap();
    let stencil: MapOverlap<f32, f32> = MapOverlap::new(
        &ctx,
        "float up(const float* m){ return get(m, 0, -1); }",
        1,
        BoundaryHandling::Nearest,
    )
    .unwrap();
    let stencil_vec: MapOverlapVec<f32, f32> = MapOverlapVec::new(
        &ctx,
        "float left(const float* v){ return get(v, -1); }",
        1,
        BoundaryHandling::Nearest,
    )
    .unwrap();
    let pairs: Allpairs<f32, f32> = Allpairs::new(
        &ctx,
        "float first(const float* a, const float* b, int d){ return a[0] + b[0]; }",
    )
    .unwrap();

    type Call<'a> = Box<dyn Fn() + 'a>;
    let table: Vec<(&[&str], Call)> = vec![
        (
            &["Map.call"],
            Box::new(|| {
                neg.call(&v).unwrap();
            }),
        ),
        (
            &["Map.call_matrix"],
            Box::new(|| {
                neg.call_matrix(&m).unwrap();
            }),
        ),
        (
            &["Map.call_index"],
            Box::new(|| {
                index.call_index(64, &[]).unwrap();
            }),
        ),
        (
            &["Zip.call"],
            Box::new(|| {
                add.call(&v, &v).unwrap();
            }),
        ),
        (
            &["Zip.call_matrix"],
            Box::new(|| {
                add.call_matrix(&m, &m).unwrap();
            }),
        ),
        (
            &["Reduce.call"],
            Box::new(|| {
                sum.call(&v).unwrap();
            }),
        ),
        (
            &["Reduce.call_matrix"],
            Box::new(|| {
                sum.call_matrix(&m).unwrap();
            }),
        ),
        (
            &["Scan.call"],
            Box::new(|| {
                prefix.call(&v).unwrap();
            }),
        ),
        (
            &["MapOverlap.call"],
            Box::new(|| {
                stencil.call(&m).unwrap();
            }),
        ),
        (
            &["MapOverlapVec.call"],
            Box::new(|| {
                stencil_vec.call(&v).unwrap();
            }),
        ),
        (
            &["Allpairs.call"],
            Box::new(|| {
                pairs.call(&m, &m).unwrap();
            }),
        ),
        // Staged (the context runs the plan oracle): the inner map is an
        // intermediate, the outer one the root; one call in all.
        (
            &["plan.stage", "Expr.eval", "plan.lower"],
            Box::new(|| {
                let inner = neg.lazy(&v.expr()).unwrap();
                neg.lazy(&inner).unwrap().eval().unwrap();
            }),
        ),
    ];
    for (expected, call) in table {
        let spans_before = skeleton_spans(&ctx).len();
        let calls_before = ctx.profiler().counter(metrics::SKELETON_CALLS);
        call();
        assert_eq!(&skeleton_spans(&ctx)[spans_before..], expected);
        assert_eq!(
            ctx.profiler().counter(metrics::SKELETON_CALLS) - calls_before,
            1,
            "{expected:?} is one skeleton call"
        );
    }
}
