//! Acceptance test for the out-of-core streaming executor: a 4-GPU fused
//! map → stencil → reduce whose working set exceeds the per-device budget
//! must actually engage streaming (chunked regions, staged bytes), stay
//! within the budget for peak resident device bytes, and produce a result
//! bit-identical to the non-streamed oracle.

use skelcl::profile::metrics;
use skelcl::{
    BoundaryHandling, Config, Context, DeviceSelection, Map, MapOverlapVec, Reduce, StreamConfig,
    Vector,
};
use vgpu::{DeviceSpec, Platform};

const DEVICES: usize = 4;
const N: usize = 1 << 18;
const BUDGET: usize = 256 * 1024;

/// Runs the fused map → stencil → reduce pipeline under `stream` and the
/// budget, returning the scalar result's bits and the (profiled) context
/// for inspection.
fn run(stream: StreamConfig) -> (u32, Context) {
    let ctx = Context::init_with_config(
        Platform::new(DEVICES, DeviceSpec::tesla_t10()),
        DeviceSelection::All,
        Config {
            stream,
            device_budget: Some(BUDGET),
            profile: true,
            ..Config::default()
        },
    );
    let v = Vector::from_fn(&ctx, N, |i| ((i * 37) % 1999) as f32 * 0.5);
    let sq: Map<f32, f32> = Map::new(&ctx, "float sq(float x){ return x * x; }").unwrap();
    let sum: Reduce<f32> =
        Reduce::new(&ctx, "float sum(float x, float y){ return x + y; }").unwrap();
    let blur: MapOverlapVec<f32, f32> = MapOverlapVec::new(
        &ctx,
        "float blur(const float* v){ return (get(v,-1) + get(v,0) + get(v,1)) / 3.0f; }",
        1,
        BoundaryHandling::Neutral(0.0),
    )
    .unwrap();
    for d in 0..DEVICES {
        ctx.platform().device(d).reset_peak();
    }
    let r = sum
        .call_fused(&blur.lazy(&sq.lazy(&v.expr()).unwrap()).unwrap())
        .unwrap()
        .value();
    (r.to_bits(), ctx)
}

#[test]
fn streams_within_budget_and_matches_oracle() {
    let (oracle, oracle_ctx) = run(StreamConfig::off());
    let p = oracle_ctx.profiler();
    assert_eq!(
        p.counter(metrics::STREAM_REGIONS),
        0,
        "streaming off must keep the oracle path"
    );
    let oracle_peak: usize = (0..DEVICES)
        .map(|d| oracle_ctx.platform().device(d).peak_allocated_bytes())
        .max()
        .unwrap();
    assert!(
        oracle_peak > BUDGET,
        "the workload must exceed the budget non-streamed (peak {oracle_peak})"
    );

    let (streamed, ctx) = run(StreamConfig::on());

    assert_eq!(streamed, oracle, "streamed result must be bit-identical");
    let p = ctx.profiler();
    assert!(
        p.counter(metrics::STREAM_REGIONS) >= 2,
        "both the stencil and the reduce region must stream"
    );
    assert!(
        p.counter(metrics::STREAM_CHUNKS) > 2 * DEVICES as u64,
        "each device's share must split into multiple chunks"
    );
    assert!(p.counter(metrics::STREAM_BYTES_STAGED) > 0);
    for d in 0..DEVICES {
        let peak = ctx.platform().device(d).peak_allocated_bytes();
        assert!(
            peak <= BUDGET,
            "device {d} peak resident bytes {peak} exceed the budget {BUDGET}"
        );
    }
}
