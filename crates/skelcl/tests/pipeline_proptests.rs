//! Property tests for the plan layer and the streaming executor: six
//! pipeline shapes — one per rewrite rule (chain, reduce-weld, stencil),
//! all rules at once, and an eager scan's output feeding a map and a
//! welded reduce — plus the four eager map-like calls (`Map`, `Zip`,
//! `MapOverlapVec`, matrix `MapOverlap`), which share the streaming
//! executor, over random data and 1–4 devices must produce bit-identical
//! results
//!
//! * with the rewrite rules enabled ([`PlanConfig::all`]) and fully staged
//!   ([`PlanConfig::oracle`]);
//! * streamed (under a tiny device budget, so each shape exercises its
//!   rule's streamed lowering) and with streaming off
//!   ([`StreamConfig::off`]).

use proptest::prelude::*;

use skelcl::{
    BoundaryHandling, Config, Context, DeviceSelection, Map, MapOverlap, MapOverlapVec, Matrix,
    PlanConfig, Reduce, Scan, StreamConfig, Vector, Zip,
};
use vgpu::{DeviceSpec, Platform};

/// Runs pipeline `shape` over `data` on `devices` devices under `config`,
/// returning the result's bit patterns.
fn run(shape: u8, data: &[f32], devices: usize, config: Config) -> Vec<u32> {
    let ctx = Context::init_with_config(
        Platform::new(devices, DeviceSpec::tesla_t10()),
        DeviceSelection::All,
        config,
    );
    let v = Vector::from_vec(&ctx, data.to_vec());
    let sq: Map<f32, f32> = Map::new(&ctx, "float sq(float x){ return x * x; }").unwrap();
    let neg: Map<f32, f32> = Map::new(&ctx, "float neg(float x){ return -x; }").unwrap();
    let sum: Reduce<f32> =
        Reduce::new(&ctx, "float sum(float x, float y){ return x + y; }").unwrap();
    let blur: MapOverlapVec<f32, f32> = MapOverlapVec::new(
        &ctx,
        "float blur(const float* v){ return get(v,-1) + get(v,0) + get(v,1); }",
        1,
        BoundaryHandling::Neutral(0.25),
    )
    .unwrap();
    let scan: Scan<f32> = Scan::new(&ctx, "float add(float x, float y){ return x + y; }").unwrap();

    let bits =
        |v: Vector<f32>| -> Vec<u32> { v.to_vec().unwrap().iter().map(|x| x.to_bits()).collect() };
    match shape {
        // Elementwise chain (chain rule) → streamed fused region.
        0 => bits(
            neg.lazy(&sq.lazy(&v.expr()).unwrap())
                .unwrap()
                .eval()
                .unwrap(),
        ),
        // Map welded into reduce (reduce-weld rule) → streamed reduction.
        1 => vec![sum
            .call_fused(&sq.lazy(&v.expr()).unwrap())
            .unwrap()
            .value()
            .to_bits()],
        // Map fused into a stencil, consumed by a map (stencil rule) →
        // halo-aware streamed chunks.
        2 => bits(
            neg.lazy(&blur.lazy(&sq.lazy(&v.expr()).unwrap()).unwrap())
                .unwrap()
                .eval()
                .unwrap(),
        ),
        // An eager scan's output feeding a map.
        3 => bits(
            sq.lazy(&scan.call(&v).unwrap().expr())
                .unwrap()
                .eval()
                .unwrap(),
        ),
        // All rules at once: map → stencil → reduce.
        4 => vec![sum
            .call_fused(&blur.lazy(&sq.lazy(&v.expr()).unwrap()).unwrap())
            .unwrap()
            .value()
            .to_bits()],
        // An eager scan's output as the reduce weld's source.
        5 => vec![sum
            .call_fused(&scan.call(&v).unwrap().expr())
            .unwrap()
            .value()
            .to_bits()],
        // The eager map-like calls: one region each, no plan.
        6 => bits(neg.call(&v).unwrap()),
        7 => {
            let mult: Zip<f32, f32, f32> =
                Zip::new(&ctx, "float mult(float x, float y){ return x * y; }").unwrap();
            bits(mult.call(&v, &sq.call(&v).unwrap()).unwrap())
        }
        8 => bits(blur.call(&v).unwrap()),
        // The data as a matrix of 5-element rows (the distribution unit is
        // a row), under a 2-D stencil of range 2.
        _ => {
            let cols = data.len().min(5);
            let rows = data.len() / cols;
            let m = Matrix::from_vec(&ctx, rows, cols, data[..rows * cols].to_vec());
            let cross: MapOverlap<f32, f32> = MapOverlap::new(
                &ctx,
                "float cross(const float* m){
                     return get(m, -2, 0) + get(m, 2, 0) + get(m, 0, -2) + get(m, 0, 2) - get(m, 0, 0);
                 }",
                2,
                BoundaryHandling::Nearest,
            )
            .unwrap();
            let out = cross.call(&m).unwrap().to_vec().unwrap();
            out.iter().map(|x| x.to_bits()).collect()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn plan_fused_is_bit_identical_to_staged(
        data in proptest::collection::vec(any::<f32>(), 1..2500),
        devices in 1usize..=4,
        shape in 0u8..6,
    ) {
        let under = |plan| run(shape, &data, devices, Config { plan, ..Config::default() });
        let staged = under(PlanConfig::oracle());
        let fused = under(PlanConfig::all());
        prop_assert_eq!(fused, staged, "shape {} on {} device(s)", shape, devices);
    }

    #[test]
    fn streamed_is_bit_identical_to_oracle(
        data in proptest::collection::vec(any::<f32>(), 1..2500),
        devices in 1usize..=4,
        shape in 0u8..10,
    ) {
        // A budget far below the shares' working sets, so every region
        // large enough to chunk (≥ the 256-unit floor) streams.
        let under = |stream| {
            let config = Config { stream, device_budget: Some(8192), ..Config::default() };
            run(shape, &data, devices, config)
        };
        let oracle = under(StreamConfig::off());
        let streamed = under(StreamConfig::on());
        prop_assert_eq!(streamed, oracle, "shape {} on {} device(s)", shape, devices);
    }
}
