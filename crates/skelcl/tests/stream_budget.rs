//! Acceptance tests for the out-of-core streaming executor: a 4-GPU fused
//! map → stencil → reduce, and each eager map-like skeleton call and eager
//! `Reduce::call` and `Reduce::call_matrix`, whose
//! working set exceeds the per-device budget must actually engage
//! streaming (chunked regions, staged bytes), stay within the budget for
//! peak resident device bytes, and produce a result bit-identical to the
//! non-streamed run.

use skelcl::profile::metrics;
use skelcl::{
    BoundaryHandling, Config, Context, DeviceSelection, Map, MapOverlap, MapOverlapVec, Matrix,
    PlanConfig, Reduce, StreamConfig, Vector, Zip,
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

/// The paper's Sobel customizing function (Listing 1.5).
const SOBEL: &str = "uchar func(const uchar* img)
    {
        int hx = -1 * (int)get(img, -1, -1) + 1 * (int)get(img, +1, -1)
                 -2 * (int)get(img, -1,  0) + 2 * (int)get(img, +1,  0)
                 -1 * (int)get(img, -1, +1) + 1 * (int)get(img, +1, +1);
        int vy = -1 * (int)get(img, -1, -1) - 2 * (int)get(img, 0, -1) - 1 * (int)get(img, +1, -1)
                 +1 * (int)get(img, -1, +1) + 2 * (int)get(img, 0, +1) + 1 * (int)get(img, +1, +1);
        int mag = (int)sqrt((float)(hx * hx + vy * vy));
        return (uchar)(mag > 255 ? 255 : mag);
    }";

/// Runs eager skeleton call `shape` on host-resident inputs under
/// `device_budget`, returning the result bytes and the profiled context.
fn run_eager(shape: &str, device_budget: Option<usize>) -> (Vec<u8>, Context) {
    let ctx = Context::init_with_config(
        Platform::new(DEVICES, DeviceSpec::tesla_t10()),
        DeviceSelection::All,
        Config {
            device_budget,
            profile: true,
            ..Config::default()
        },
    );
    let v = Vector::from_fn(&ctx, N, |i| ((i * 37) % 1999) as f32 * 0.5);
    let w = Vector::from_fn(&ctx, N, |i| ((i * 11) % 257) as f32 - 100.0);
    let (rows, cols) = (1024, 256);
    let image = Matrix::from_fn(&ctx, rows, cols, |r, c| ((r * 7 + c * 13) % 251) as u8);
    let grid = Matrix::from_fn(&ctx, rows, cols, |r, c| {
        ((r * cols + c) * 37 % 1999) as f32 * 0.5
    });
    let sq: Map<f32, f32> = Map::new(&ctx, "float sq(float x){ return x * x; }").unwrap();
    let mult: Zip<f32, f32, f32> =
        Zip::new(&ctx, "float mult(float x, float y){ return x * y; }").unwrap();
    let blur: MapOverlapVec<f32, f32> = MapOverlapVec::new(
        &ctx,
        "float blur(const float* v){ return (get(v,-1) + get(v,0) + get(v,1)) / 3.0f; }",
        1,
        BoundaryHandling::Neutral(0.0),
    )
    .unwrap();
    let sobel: MapOverlap<u8, u8> =
        MapOverlap::new(&ctx, SOBEL, 1, BoundaryHandling::Nearest).unwrap();
    let sum: Reduce<f32> =
        Reduce::new(&ctx, "float sum(float x, float y){ return x + y; }").unwrap();
    for d in 0..DEVICES {
        ctx.platform().device(d).reset_peak();
    }
    let floats = |v: Vector<f32>| -> Vec<u8> {
        let values = v.to_vec().unwrap();
        values.iter().flat_map(|x| x.to_le_bytes()).collect()
    };
    let bytes = match shape {
        "Map" => floats(sq.call(&v).unwrap()),
        "Zip" => floats(mult.call(&v, &w).unwrap()),
        "MapOverlapVec" => floats(blur.call(&v).unwrap()),
        "MapOverlap" => sobel.call(&image).unwrap().to_vec().unwrap(),
        "Reduce" => sum.call(&v).unwrap().value().to_le_bytes().to_vec(),
        "Reduce::call_matrix" => sum
            .call_matrix(&grid)
            .unwrap()
            .value()
            .to_le_bytes()
            .to_vec(),
        other => unreachable!("unknown shape {other}"),
    };
    (bytes, ctx)
}

#[test]
fn eager_calls_stream_within_budget_and_match_unbudgeted() {
    // The Sobel image is a quarter of the vectors' bytes, so is its budget;
    // its distribution unit is a 256-pixel row, which the element-based
    // chunk floor lets a 64 KiB ring hold. The float matrix holds as many
    // bytes as a vector, and streams whole rows.
    for (shape, budget) in [
        ("Map", BUDGET),
        ("Zip", BUDGET),
        ("MapOverlapVec", BUDGET),
        ("MapOverlap", BUDGET / 4),
        ("Reduce", BUDGET),
        ("Reduce::call_matrix", BUDGET),
    ] {
        let (resident, resident_ctx) = run_eager(shape, None);
        assert_eq!(
            resident_ctx.profiler().counter(metrics::STREAM_REGIONS),
            0,
            "{shape}: no budget pressure, no streaming"
        );
        let (streamed, ctx) = run_eager(shape, Some(budget));
        assert_eq!(
            streamed, resident,
            "{shape}: streamed must be bit-identical"
        );
        assert!(
            ctx.profiler().counter(metrics::STREAM_REGIONS) >= 1,
            "{shape}: an over-budget eager call must stream"
        );
        for d in 0..DEVICES {
            let peak = ctx.platform().device(d).peak_allocated_bytes();
            assert!(
                peak <= budget,
                "{shape}: device {d} peak resident bytes {peak} exceed the budget {budget}"
            );
        }
    }
}

/// A one-T10 context with a 96 KiB budget under `plan`, profiled.
fn small_budget_ctx(plan: PlanConfig) -> Context {
    Context::init_with_config(
        Platform::new(1, DeviceSpec::tesla_t10()),
        DeviceSelection::All,
        Config {
            plan,
            device_budget: Some(96 * 1024),
            profile: true,
            ..Config::default()
        },
    )
}

/// The dot product of two 2^16-element vectors, lazily zipped, reduced by
/// `call_fused` on `ctx`.
fn fused_dot(ctx: &Context) -> u32 {
    let a = Vector::from_fn(ctx, 1 << 16, |i| ((i * 37) % 1999) as f32 * 0.5);
    let b = Vector::from_fn(ctx, 1 << 16, |i| ((i * 11) % 257) as f32 - 100.0);
    let mult: Zip<f32, f32, f32> =
        Zip::new(ctx, "float mult(float x, float y){ return x * y; }").unwrap();
    let sum: Reduce<f32> =
        Reduce::new(ctx, "float sum(float x, float y){ return x + y; }").unwrap();
    let product = mult.lazy(&a.expr(), &b.expr()).unwrap();
    sum.call_fused(&product).unwrap().value().to_bits()
}

/// Under the staged oracle, `call_fused` materialises its zip and then
/// reduces it as `Reduce::call` reduces the same container: both regions
/// stream, every device stays within the budget, and the bits match the
/// welded reduction's.
#[test]
fn staged_call_fused_streams_its_reduction_within_budget() {
    let ctx = small_budget_ctx(PlanConfig::oracle());
    let staged = fused_dot(&ctx);
    assert!(
        ctx.profiler().counter(metrics::STREAM_REGIONS) >= 2,
        "the staged zip and the reduction must both stream"
    );
    let peak = ctx.platform().device(0).peak_allocated_bytes();
    assert!(
        peak <= 96 * 1024,
        "peak resident bytes {peak} exceed the budget"
    );
    assert_eq!(staged, fused_dot(&small_budget_ctx(PlanConfig::all())));
}

/// A welded `call_fused` compiles only the program it launches: the
/// streamed one its stream kernels, the resident one its welded first
/// pass, so each new expression misses the compile cache once.
#[test]
fn welded_call_fused_compiles_only_what_it_launches() {
    for budget in [Some(96 * 1024), None] {
        let ctx = Context::init_with_config(
            Platform::new(1, DeviceSpec::tesla_t10()),
            DeviceSelection::All,
            Config {
                device_budget: budget,
                profile: true,
                ..Config::default()
            },
        );
        let a = Vector::from_fn(&ctx, 1 << 16, |i| (i % 7) as f32);
        let mult: Zip<f32, f32, f32> =
            Zip::new(&ctx, "float mult(float x, float y){ return x * y; }").unwrap();
        let sum: Reduce<f32> =
            Reduce::new(&ctx, "float sum(float x, float y){ return x + y; }").unwrap();
        let misses = || ctx.profiler().counter(metrics::COMPILE_CACHE_MISS);
        let before = misses();
        sum.call_fused(&mult.lazy(&a.expr(), &a.expr()).unwrap())
            .unwrap();
        let streamed = ctx.profiler().counter(metrics::STREAM_REGIONS) > 0;
        assert_eq!(streamed, budget.is_some());
        assert_eq!(misses() - before, 1, "budget {budget:?}");
    }
}
