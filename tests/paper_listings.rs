//! End-to-end tests that the paper's listings work as written — under the
//! default configuration and, bit-identically, under each layer's oracle
//! (see `common`).

mod common;

use common::{bits, forced_streaming, under_every_config};
use skelcl_repro::skelcl::profile::metrics;
use skelcl_repro::skelcl::{
    BoundaryHandling, Config, Context, DeviceSelection, Distribution, Map, MapOverlap, Matrix,
    Reduce, Vector, Zip,
};
use skelcl_repro::vgpu::{DeviceSpec, Platform};

fn single_gpu() -> Platform {
    Platform::single(DeviceSpec::tesla_t10())
}

const DOT_SIZE: usize = 10_000;

/// Listing 1.1 as written (eager), and as the lazy pipeline the plan layer
/// welds into the reduction: the bits of both results.
fn dot_product(ctx: &Context) -> (u32, u32) {
    // create skeletons
    let sum: Reduce<f32> =
        Reduce::new(ctx, "float sum(float x, float y){ return x + y; }").unwrap();
    let mult: Zip<f32, f32, f32> =
        Zip::new(ctx, "float mult(float x, float y){ return x * y; }").unwrap();

    // create input vectors and fill with data
    let a = Vector::from_fn(ctx, DOT_SIZE, |i| (i % 17) as f32);
    let b = Vector::from_fn(ctx, DOT_SIZE, |i| (i % 5) as f32);

    // execute skeleton
    let c = sum.call(&mult.call(&a, &b).unwrap()).unwrap();
    let fused = sum
        .call_fused(&mult.lazy(&a.expr(), &b.expr()).unwrap())
        .unwrap();

    // fetch result
    (c.value().to_bits(), fused.value().to_bits())
}

/// Paper Listing 1.1: dot product of two vectors.
#[test]
fn listing_1_1_dot_product() {
    let (eager, fused) = under_every_config(Platform::tesla_s1070, dot_product);
    let expected: f32 = (0..DOT_SIZE).map(|i| ((i % 17) * (i % 5)) as f32).sum();
    assert_eq!(f32::from_bits(eager), expected);
    assert_eq!(fused, eager, "the welded pipeline is bit-identical");

    // The forced-streaming run above did stream: the lazy pipeline's
    // reduction region is chunked under the tiny budget.
    let ctx = Context::init_with_config(
        Platform::tesla_s1070(),
        DeviceSelection::All,
        Config {
            profile: true,
            ..forced_streaming()
        },
    );
    dot_product(&ctx);
    assert!(ctx.profiler().counter(metrics::STREAM_REGIONS) >= 1);
    assert!(ctx.profiler().counter(metrics::STREAM_CHUNKS) > 4);
}

/// Paper §3.3: the map skeleton with negation.
#[test]
fn section_3_3_map_negation() {
    let out = under_every_config(single_gpu, |ctx| {
        let neg: Map<f32, f32> = Map::new(ctx, "float func(float x){ return -x; }").unwrap();
        let input = Vector::from_fn(ctx, 1000, |i| i as f32 - 500.0);
        bits(&neg.call(&input).unwrap().to_vec().unwrap())
    });
    assert!(out
        .iter()
        .enumerate()
        .all(|(i, &v)| f32::from_bits(v) == 500.0 - i as f32));
}

/// Paper §3.3: the scan skeleton (prefix sums).
#[test]
fn section_3_3_prefix_sum() {
    use skelcl_repro::skelcl::Scan;
    let result = under_every_config(Platform::tesla_s1070, |ctx| {
        let prefix: Scan<f32> =
            Scan::new(ctx, "float func(float x, float y){ return x + y; }").unwrap();
        let input = Vector::from_fn(ctx, 5000, |_| 1.0f32);
        bits(&prefix.call(&input).unwrap().to_vec().unwrap())
    });
    assert_eq!(f32::from_bits(result[0]), 1.0);
    assert_eq!(f32::from_bits(result[4999]), 5000.0);
}

/// Paper Listing 1.2: sum of all direct neighbours of every matrix
/// element, with neutral-value boundary handling.
#[test]
fn listing_1_2_neighbour_sum() {
    let out = under_every_config(single_gpu, neighbour_sum);
    let at = |r: usize, c: usize| f32::from_bits(out[r * 10 + c]);
    assert_eq!(at(5, 5), 9.0, "interior counts all 9 neighbours");
    assert_eq!(at(0, 0), 4.0, "corner sees 4 in-range cells");
    assert_eq!(at(0, 5), 6.0, "edge sees 6 in-range cells");
}

fn neighbour_sum(ctx: &Context) -> Vec<u32> {
    let m: MapOverlap<f32, f32> = MapOverlap::new(
        ctx,
        "float func(const float* m_in){
            float sum = 0.0f;
            for (int i = -1; i <= 1; ++i)
                for (int j = -1; j <= 1; ++j)
                    sum += get(m_in, i, j);
            return sum;
        }",
        1,
        BoundaryHandling::Neutral(0.0),
    )
    .unwrap();
    let ones = Matrix::from_fn(ctx, 10, 10, |_, _| 1.0f32);
    bits(&m.call(&ones).unwrap().to_vec().unwrap())
}

/// Paper Listing 1.5: Sobel edge detection, checked against both raw
/// kernel implementations (Listings 1.3/1.6 style).
#[test]
fn listing_1_5_sobel_agrees_with_raw_kernels() {
    let (w, h) = (96usize, 64usize);
    let img: Vec<u8> = (0..w * h)
        .map(|i| (((i % w) * 255 / w) as u8).wrapping_add(if (i / w) % 8 < 4 { 40 } else { 0 }))
        .collect();
    let skel = under_every_config(single_gpu, |ctx| skelcl_bench_like_sobel(ctx, &img, w, h));
    let reference = host_sobel(&img, w, h);
    assert_eq!(skel, reference);
}

fn skelcl_bench_like_sobel(ctx: &Context, img: &[u8], w: usize, h: usize) -> Vec<u8> {
    let m: MapOverlap<u8, u8> = MapOverlap::new(
        ctx,
        "uchar func(const uchar* img)
         {
             int hx = -1 * (int)get(img, -1, -1) + 1 * (int)get(img, +1, -1)
                      -2 * (int)get(img, -1,  0) + 2 * (int)get(img, +1,  0)
                      -1 * (int)get(img, -1, +1) + 1 * (int)get(img, +1, +1);
             int vy = -1 * (int)get(img, -1, -1) - 2 * (int)get(img, 0, -1) - 1 * (int)get(img, +1, -1)
                      +1 * (int)get(img, -1, +1) + 2 * (int)get(img, 0, +1) + 1 * (int)get(img, +1, +1);
             int mag = (int)sqrt((float)(hx * hx + vy * vy));
             return (uchar)(mag > 255 ? 255 : mag);
         }",
        1,
        BoundaryHandling::Nearest,
    )
    .unwrap();
    let input = Matrix::from_vec(ctx, h, w, img.to_vec());
    m.call(&input).unwrap().to_vec().unwrap()
}

fn host_sobel(img: &[u8], width: usize, height: usize) -> Vec<u8> {
    let px = |x: isize, y: isize| -> i32 {
        let xc = x.clamp(0, width as isize - 1) as usize;
        let yc = y.clamp(0, height as isize - 1) as usize;
        img[yc * width + xc] as i32
    };
    let mut out = vec![0u8; width * height];
    for y in 0..height as isize {
        for x in 0..width as isize {
            let h = -px(x - 1, y - 1) + px(x + 1, y - 1) - 2 * px(x - 1, y) + 2 * px(x + 1, y)
                - px(x - 1, y + 1)
                + px(x + 1, y + 1);
            let v = -px(x - 1, y - 1) - 2 * px(x, y - 1) - px(x + 1, y - 1)
                + px(x - 1, y + 1)
                + 2 * px(x, y + 1)
                + px(x + 1, y + 1);
            let mag = ((h * h + v * v) as f32).sqrt() as i32;
            out[y as usize * width + x as usize] = mag.clamp(0, 255) as u8;
        }
    }
    out
}

/// Paper §3.2: distributions are changeable at runtime and the data stays
/// coherent (Fig. 1's four layouts).
#[test]
fn section_3_2_runtime_redistribution() {
    under_every_config(Platform::tesla_s1070, |ctx| {
        let inc: Map<i32, i32> = Map::new(ctx, "int f(int x){ return x + 1; }").unwrap();
        let v = Vector::from_fn(ctx, 4096, |i| i as i32);

        let mut expected: Vec<i32> = (0..4096).collect();
        for dist in [
            Distribution::Block,
            Distribution::Copy,
            Distribution::Single(2),
            Distribution::Overlap { size: 8 },
            Distribution::Block,
        ] {
            v.set_distribution(dist).unwrap();
            let r = inc.call(&v).unwrap();
            expected.iter_mut().for_each(|x| *x += 1);
            assert_eq!(r.to_vec().unwrap(), expected, "after {dist}");
            v.assign(r.to_vec().unwrap()).unwrap();
        }
        expected
    });
}
