//! End-to-end differential test of the `SKELCL_KERNEL_OPT` matrix across
//! 1–4 devices: the same skeletons run with no compiler pass (the
//! oracle), each optimization pass alone and the full pipeline, and every
//! configuration must produce bit-identical results.

use skelcl::{
    BoundaryHandling, Config, Context, DeviceSelection, Map, MapOverlap, Matrix, Reduce, Vector,
};
use skelcl_kernel::OptConfig;
use vgpu::{DeviceSpec, Platform};

/// One full run of map + reduce + map-overlap on `devices` devices with
/// kernels compiled under `kernel`, returning the raw results for
/// comparison across configurations.
fn run_all(devices: usize, kernel: OptConfig) -> (Vec<f32>, f32, Vec<f32>) {
    let ctx = Context::init_with_config(
        Platform::new(devices, DeviceSpec::tesla_t10()),
        DeviceSelection::All,
        Config {
            kernel,
            ..Config::default()
        },
    );
    let n = 1000;
    let data: Vec<f32> = (0..n).map(|i| (i as f32) * 0.125 - 40.0).collect();

    let map: Map<f32, f32> = Map::new(
        &ctx,
        "float f(float x){ return sqrt(fabs(x)) * 2.0f + 1.0f; }",
    )
    .unwrap();
    let mapped = map.call(&Vector::from_vec(&ctx, data.clone())).unwrap();
    let map_out = mapped.to_vec().unwrap();

    let reduce: Reduce<f32> =
        Reduce::new(&ctx, "float f(float a, float b){ return a + b; }").unwrap();
    let red_out = reduce
        .call(&Vector::from_vec(&ctx, data.clone()))
        .unwrap()
        .value();

    let blur: MapOverlap<f32, f32> = MapOverlap::new(
        &ctx,
        "float func(const float* m_in){
            float sum = 0.0f;
            for (int i = -1; i <= 1; ++i)
                for (int j = -1; j <= 1; ++j)
                    sum += get(m_in, i, j);
            return sum / 9.0f;
        }",
        1,
        BoundaryHandling::Neutral(0.0),
    )
    .unwrap();
    let m = Matrix::from_fn(&ctx, 16, 16, |r, c| ((r * 16 + c) as f32).cos());
    let blurred = blur.call(&m).unwrap();
    let mut blur_out = Vec::new();
    for r in 0..16 {
        for c in 0..16 {
            blur_out.push(blurred.get(r, c).unwrap());
        }
    }
    (map_out, red_out, blur_out)
}

#[test]
fn opt_matrix_is_bit_identical_across_devices() {
    let matrix = ["const-prop", "cse", "dce", "licm", "unroll", "1"];
    for devices in 1..=4 {
        let oracle = run_all(devices, OptConfig::none());
        for spec in matrix {
            let (kernel, rejected) = OptConfig::parse(spec);
            assert!(rejected.is_empty(), "{spec}: {rejected:?}");
            let got = run_all(devices, kernel);
            assert!(
                got.0
                    .iter()
                    .zip(&oracle.0)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
                    && got.1.to_bits() == oracle.1.to_bits()
                    && got
                        .2
                        .iter()
                        .zip(&oracle.2)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                "SKELCL_KERNEL_OPT={spec} on {devices} device(s) diverged from the pass-free oracle"
            );
        }
    }
}
