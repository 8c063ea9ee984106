//! End-to-end differential test of the `SKELCL_PLAN` matrix across 1–4
//! devices: eight lazy pipelines — exercising each rewrite rule singly
//! and all together — must be bit-identical to the fully staged oracle
//! (`SKELCL_PLAN=0`), which in turn must match the eager skeletons.

use skelcl::{
    BoundaryHandling, Config, Context, DeviceSelection, Map, MapOverlapVec, PlanConfig, Reduce,
    Scan, Vector,
};
use vgpu::{DeviceSpec, Platform};

/// A context whose plan rules are what `SKELCL_PLAN=<spec>` selects.
fn ctx(devices: usize, spec: &str) -> Context {
    let (plan, rejected) = PlanConfig::parse(Some(spec));
    assert!(rejected.is_empty(), "{spec}: {rejected:?}");
    Context::init_with_config(
        Platform::new(devices, DeviceSpec::tesla_t10()),
        DeviceSelection::All,
        Config {
            plan,
            ..Config::default()
        },
    )
}

struct Kit {
    v: Vector<f32>,
    sq: Map<f32, f32>,
    neg: Map<f32, f32>,
    sum: Reduce<f32>,
    blur: MapOverlapVec<f32, f32>,
    edge: MapOverlapVec<f32, f32>,
    scan: Scan<f32>,
}

fn kit(devices: usize, spec: &str) -> Kit {
    let ctx = ctx(devices, spec);
    let data: Vec<f32> = (0..1537)
        .map(|i| ((i * 37) % 101) as f32 * 0.25 - 12.0)
        .collect();
    let v = Vector::from_vec(&ctx, data);
    let sq: Map<f32, f32> = Map::new(&ctx, "float sq(float x){ return x * x; }").unwrap();
    let neg: Map<f32, f32> = Map::new(&ctx, "float neg(float x){ return -x; }").unwrap();
    let sum: Reduce<f32> =
        Reduce::new(&ctx, "float sum(float x, float y){ return x + y; }").unwrap();
    let blur: MapOverlapVec<f32, f32> = MapOverlapVec::new(
        &ctx,
        "float blur(const float* v){ return (get(v,-1) + get(v,0) + get(v,1)) / 3.0f; }",
        1,
        BoundaryHandling::Neutral(1.5),
    )
    .unwrap();
    let edge: MapOverlapVec<f32, f32> = MapOverlapVec::new(
        &ctx,
        "float edge(const float* v){ return get(v,2) - get(v,-2); }",
        2,
        BoundaryHandling::Nearest,
    )
    .unwrap();
    let scan: Scan<f32> = Scan::new(&ctx, "float add(float x, float y){ return x + y; }").unwrap();
    Kit {
        v,
        sq,
        neg,
        sum,
        blur,
        edge,
        scan,
    }
}

fn bits(v: Vector<f32>) -> Vec<u32> {
    v.to_vec().unwrap().iter().map(|x| x.to_bits()).collect()
}

/// Runs the nine pipelines under `SKELCL_PLAN=<spec>`, returning bit
/// patterns for comparison.
fn run_all(devices: usize, spec: &str) -> Vec<Vec<u32>> {
    let k = kit(devices, spec);
    vec![
        // 1: elementwise chain (the `chain` rule).
        bits(
            k.neg
                .lazy(&k.sq.lazy(&k.v.expr()).unwrap())
                .unwrap()
                .eval()
                .unwrap(),
        ),
        // 2: map → reduce (the `reduce-weld` rule).
        vec![k
            .sum
            .call_fused(&k.sq.lazy(&k.v.expr()).unwrap())
            .unwrap()
            .value()
            .to_bits()],
        // 3: map → stencil → map (the `stencil` rule with a consumer after).
        bits(
            k.neg
                .lazy(&k.blur.lazy(&k.sq.lazy(&k.v.expr()).unwrap()).unwrap())
                .unwrap()
                .eval()
                .unwrap(),
        ),
        // 4: scan → map (the `scan-offset` rule).
        bits(
            k.sq.lazy(&k.scan.lazy(&k.v).unwrap())
                .unwrap()
                .eval()
                .unwrap(),
        ),
        // 5: map → stencil → reduce (the acceptance pipeline).
        vec![k
            .sum
            .call_fused(&k.blur.lazy(&k.sq.lazy(&k.v.expr()).unwrap()).unwrap())
            .unwrap()
            .value()
            .to_bits()],
        // 6: lazy scan evaluated alone.
        bits(k.scan.lazy(&k.v).unwrap().eval().unwrap()),
        // 7: map → Nearest-boundary stencil with d=2.
        bits(
            k.edge
                .lazy(&k.neg.lazy(&k.v.expr()).unwrap())
                .unwrap()
                .eval()
                .unwrap(),
        ),
        // 8: scan → reduce (offset folded into the weld prologue).
        vec![k
            .sum
            .call_fused(&k.scan.lazy(&k.v).unwrap())
            .unwrap()
            .value()
            .to_bits()],
        // 9: stencil over a bare container (fresh-root return path).
        bits(k.blur.lazy(&k.v.expr()).unwrap().eval().unwrap()),
    ]
}

/// Eager (plan-free) references for the pipelines that have a direct
/// eager equivalent, anchoring the staged oracle itself.
fn eager_anchors(devices: usize) -> Vec<Vec<u32>> {
    let k = kit(devices, "1");
    vec![
        // chain
        bits(k.neg.call(&k.sq.call(&k.v).unwrap()).unwrap()),
        // map → reduce
        vec![k
            .sum
            .call(&k.sq.call(&k.v).unwrap())
            .unwrap()
            .value()
            .to_bits()],
        // scan
        bits(k.scan.call(&k.v).unwrap()),
        // stencil
        bits(k.blur.call(&k.v).unwrap()),
    ]
}

#[test]
fn plan_matrix_is_bit_identical_across_devices() {
    let matrix = [
        "1",
        "chain",
        "reduce-weld",
        "stencil",
        "scan-offset",
        "chain,reduce-weld,stencil,scan-offset",
    ];
    for devices in 1..=4 {
        let oracle = run_all(devices, "0");

        // The staged oracle must match the eager skeletons where an eager
        // equivalent exists (pipelines 1, 2, 6, 9).
        let anchors = eager_anchors(devices);
        assert_eq!(
            oracle[0], anchors[0],
            "staged chain vs eager, {devices} device(s)"
        );
        assert_eq!(
            oracle[1], anchors[1],
            "staged reduce vs eager, {devices} device(s)"
        );
        assert_eq!(
            oracle[5], anchors[2],
            "staged scan vs eager, {devices} device(s)"
        );
        assert_eq!(
            oracle[8], anchors[3],
            "staged stencil vs eager, {devices} device(s)"
        );

        for spec in matrix {
            let got = run_all(devices, spec);
            for (i, (g, o)) in got.iter().zip(&oracle).enumerate() {
                assert_eq!(
                    g,
                    o,
                    "SKELCL_PLAN={spec} pipeline {} on {devices} device(s) diverged from oracle",
                    i + 1
                );
            }
        }
    }
}
