//! Integration tests for the lazy elementwise fusion layer: fused
//! pipelines must be bit-identical to their unfused equivalents on any
//! device count, launch exactly one elementwise kernel however many
//! stages are composed, and weld into Reduce's first pass.

use proptest::prelude::*;

use skelcl::{Config, Context, DeviceSelection, EventLog, Map, Reduce, Value, Vector, Zip};
use vgpu::{CommandKind, DeviceSpec, Platform};

fn ctx(devices: usize) -> Context {
    Context::init_with_config(
        Platform::new(devices, DeviceSpec::tesla_t10()),
        DeviceSelection::All,
        Config::default(),
    )
}

fn dot_skeletons(ctx: &Context) -> (Zip<f32, f32, f32>, Reduce<f32>) {
    let mult: Zip<f32, f32, f32> =
        Zip::new(ctx, "float mult(float x, float y){ return x * y; }").unwrap();
    let sum: Reduce<f32> =
        Reduce::new(ctx, "float sum(float x, float y){ return x + y; }").unwrap();
    (mult, sum)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The paper's dot product: `sum.call_fused(mult.lazy(a, b))` must be
    /// **bit-identical** to the unfused `sum.call(mult.call(a, b))` —
    /// the fused first pass performs exactly the same float operations in
    /// the same order, only loading the products from registers instead of
    /// an intermediate buffer.
    #[test]
    fn fused_dot_is_bit_identical(
        data in proptest::collection::vec((any::<f32>(), any::<f32>()), 1..3000),
        devices in 1usize..=4,
    ) {
        let ctx = ctx(devices);
        let (mult, sum) = dot_skeletons(&ctx);
        let (xs, ys): (Vec<f32>, Vec<f32>) = data.into_iter().unzip();
        let a = Vector::from_vec(&ctx, xs);
        let b = Vector::from_vec(&ctx, ys);

        let unfused = sum.call(&mult.call(&a, &b).unwrap()).unwrap().value();
        let fused = sum
            .call_fused(&mult.lazy(&a.expr(), &b.expr()).unwrap())
            .unwrap()
            .value();
        prop_assert_eq!(fused.to_bits(), unfused.to_bits());
    }

    /// Multi-stage elementwise chains evaluate to the same result fused
    /// (one kernel) and unfused (one kernel per stage).
    #[test]
    fn fused_chain_matches_unfused(
        data in proptest::collection::vec(-1000i32..1000, 1..2000),
        devices in 1usize..=4,
    ) {
        let ctx = ctx(devices);
        let sq: Map<i32, i32> = Map::new(&ctx, "int sq(int x){ return x * x; }").unwrap();
        let neg: Map<i32, i32> = Map::new(&ctx, "int neg(int x){ return -x; }").unwrap();
        let v = Vector::from_vec(&ctx, data.clone());

        let unfused = neg.call(&sq.call(&v).unwrap()).unwrap().to_vec().unwrap();
        let fused = neg
            .lazy(&sq.lazy(&v.expr()).unwrap())
            .unwrap()
            .eval()
            .unwrap()
            .to_vec()
            .unwrap();
        prop_assert_eq!(&fused, &unfused);
        let expected: Vec<i32> = data.iter().map(|&x| x.wrapping_mul(x).wrapping_neg()).collect();
        prop_assert_eq!(fused, expected);
    }
}

/// A three-stage expression must evaluate with exactly ONE kernel launch
/// per device — that is the whole point of fusion.
#[test]
fn multi_stage_expr_runs_one_kernel_per_device() {
    for devices in [1usize, 2, 4] {
        let ctx = ctx(devices);
        let scale: Map<f32, f32> =
            Map::new(&ctx, "float scale(float x, float a){ return x * a; }").unwrap();
        let add: Zip<f32, f32, f32> =
            Zip::new(&ctx, "float add(float x, float y){ return x + y; }").unwrap();
        let a = Vector::from_fn(&ctx, 4096, |i| i as f32);
        let b = Vector::from_fn(&ctx, 4096, |i| (4096 - i) as f32);

        // scale(a, 2) + scale(b, 3), three stages, two sources.
        let e = add
            .lazy(
                &scale.lazy_with(&a.expr(), &[Value::F32(2.0)]).unwrap(),
                &scale.lazy_with(&b.expr(), &[Value::F32(3.0)]).unwrap(),
            )
            .unwrap();
        let stats = e.stats().unwrap();
        assert_eq!(stats.stages, 3);
        assert_eq!(stats.sources, 2);
        assert_eq!(stats.len, 4096);

        let log = EventLog::default();
        let out = e.eval_logged(&log).unwrap();
        let launches = log.kernel_launches_by_device();
        assert_eq!(launches.len(), devices, "one chunk per device");
        assert!(
            launches.values().all(|&n| n == 1),
            "fusion must launch exactly one kernel per device, got {launches:?}"
        );
        assert!(log.last_events().iter().any(|e| matches!(
            e.kind(),
            CommandKind::Kernel { name } if name == "skelcl_fused"
        )));

        let host = out.to_vec().unwrap();
        for (i, v) in host.iter().enumerate() {
            assert_eq!(*v, i as f32 * 2.0 + (4096 - i) as f32 * 3.0);
        }
    }
}

/// Fused reduce across the multi-pass boundary: n > WG * MAX_GROUPS
/// (16384) forces a second reduction pass over the per-group partials;
/// the fused and plain paths must still agree bit-for-bit.
#[test]
fn fused_reduce_across_multi_pass_boundary() {
    for devices in [1usize, 4] {
        let ctx = ctx(devices);
        let (mult, sum) = dot_skeletons(&ctx);
        let n = 100_000;
        let a = Vector::from_fn(&ctx, n, |i| ((i * 29) % 1013) as f32 * 0.03125);
        let b = Vector::from_fn(&ctx, n, |i| ((i * 17) % 911) as f32 * 0.0625);

        let unfused = sum.call(&mult.call(&a, &b).unwrap()).unwrap().value();
        let fused = sum
            .call_fused(&mult.lazy(&a.expr(), &b.expr()).unwrap())
            .unwrap()
            .value();
        assert_eq!(fused.to_bits(), unfused.to_bits(), "devices = {devices}");
    }
}

/// Extra scalar arguments captured at `lazy_with` time are baked into the
/// fused kernel as literals, including inside a fused reduction.
#[test]
fn extras_are_baked_into_fused_stages() {
    let ctx = ctx(2);
    let saxpy: Zip<f32, f32, f32> = Zip::new(
        &ctx,
        "float saxpy(float x, float y, float a){ return a * x + y; }",
    )
    .unwrap();
    let sum: Reduce<f32> =
        Reduce::new(&ctx, "float sum(float x, float y){ return x + y; }").unwrap();
    let x = Vector::from_fn(&ctx, 513, |i| i as f32);
    let y = Vector::from_fn(&ctx, 513, |i| (i % 7) as f32);

    let expr = saxpy
        .lazy_with(&x.expr(), &y.expr(), &[Value::F32(2.5)])
        .unwrap();
    let eager = saxpy.call_with(&x, &y, &[Value::F32(2.5)]).unwrap();
    assert_eq!(
        expr.eval().unwrap().to_vec().unwrap(),
        eager.to_vec().unwrap()
    );
    let fused = sum.call_fused(&expr).unwrap().value();
    let unfused = sum.call(&eager).unwrap().value();
    assert_eq!(fused.to_bits(), unfused.to_bits());

    // Wrong arity is rejected at expression-build time, not at eval.
    assert!(saxpy.lazy(&x.expr(), &y.expr()).is_err());
    assert!(saxpy
        .lazy_with(&x.expr(), &y.expr(), &[Value::I32(1)])
        .is_err());
}

/// A shared source consumed by two stages is deduplicated: the fused
/// kernel reads it once, and the DAG still evaluates correctly.
#[test]
fn shared_source_is_read_once() {
    let ctx = ctx(2);
    let mul: Zip<f32, f32, f32> =
        Zip::new(&ctx, "float mul(float x, float y){ return x * y; }").unwrap();
    let v = Vector::from_fn(&ctx, 1000, |i| (i % 31) as f32 - 15.0);

    // v * v, both children the same container.
    let e = mul.lazy(&v.expr(), &v.expr()).unwrap();
    assert_eq!(e.stats().unwrap().sources, 1);
    let out = e.eval().unwrap().to_vec().unwrap();
    let host = v.to_vec().unwrap();
    for (o, x) in out.iter().zip(&host) {
        assert_eq!(*o, x * x);
    }
}

/// Mixed contexts and mismatched lengths are rejected when the expression
/// is built into a plan.
#[test]
fn fusion_validates_contexts_and_lengths() {
    let ctx1 = ctx(1);
    let ctx2 = ctx(1);
    let add: Zip<f32, f32, f32> =
        Zip::new(&ctx1, "float add(float x, float y){ return x + y; }").unwrap();

    let a = Vector::from_fn(&ctx1, 10, |i| i as f32);
    let foreign = Vector::from_fn(&ctx2, 10, |i| i as f32);
    let e = add.lazy(&a.expr(), &foreign.expr()).unwrap();
    assert!(e.eval().is_err(), "cross-context fusion must fail");

    let short = Vector::from_fn(&ctx1, 7, |i| i as f32);
    let e = add.lazy(&a.expr(), &short.expr()).unwrap();
    assert!(e.eval().is_err(), "length mismatch must fail");
}

/// The stencil rule decides by the plan's shape only: on 4 T10s a
/// 12-element `blur(scale(v))` recomputes 8 halo elements against 24
/// elements of intermediate traffic, so it fuses on a fresh context and
/// still fuses after an eager call has measured every device.
#[test]
fn stencil_rule_reads_the_plan_shape_only() {
    use skelcl::{BoundaryHandling, MapOverlapVec};

    let ctx = ctx(4);
    let scale: Map<f32, f32> = Map::new(&ctx, "float scale(float x){ return x * 2.0f; }").unwrap();
    let blur: MapOverlapVec<f32, f32> = MapOverlapVec::new(
        &ctx,
        "float blur(const float* v){ return (get(v,-1) + get(v,0) + get(v,1)) / 3.0f; }",
        1,
        BoundaryHandling::Nearest,
    )
    .unwrap();
    let v = Vector::from_fn(&ctx, 12, |i| i as f32);
    let fused_kernels = || {
        let log = EventLog::default();
        blur.lazy(&scale.lazy(&v.expr()).unwrap())
            .unwrap()
            .eval_logged(&log)
            .unwrap();
        log.last_events()
            .iter()
            .filter(|e| {
                matches!(e.kind(), CommandKind::Kernel { name } if name == "skelcl_mapoverlap_fused")
            })
            .count()
    };
    assert_eq!(fused_kernels(), 4, "a fresh context fuses");
    scale.call(&v).unwrap();
    assert_eq!(scale.events().kernel_launches_by_device().len(), 4);
    assert_eq!(fused_kernels(), 4, "measured devices change nothing");
}

/// Every `Reduce` entry point on 1, 2 and 4 devices, with the plan rules
/// on and under the staged oracle, resident and under a device budget
/// that makes the reduction stream. Each case renders, per device, the
/// kernels it launched in order (runs of one name folded into `name×k`),
/// the launch count, the kernels' summed executed ops and the transfer
/// commands, followed by the result's bits. The text is compared against
/// `tests/reduce_launches.golden`; after an intended change to what a
/// reduction launches, regenerate it with
/// `cargo test -p skelcl --test fusion -- --ignored`.
///
/// `call_matrix` runs resident only here: its streamed behaviour is
/// checked against the budget in `stream_budget.rs`.
fn render_reduce_launches() -> String {
    use skelcl::{BoundaryHandling, MapOverlapVec, Matrix, PlanConfig};
    use std::fmt::Write;

    const N: usize = 1 << 16;
    const BUDGET: usize = 96 * 1024;
    let mut out = String::new();
    for devices in [1usize, 2, 4] {
        for (plan_name, plan) in [
            ("rules", PlanConfig::all()),
            ("oracle", PlanConfig::oracle()),
        ] {
            for (mode, budget) in [("resident", None), ("streamed", Some(BUDGET))] {
                for case in ["call", "call_matrix", "zip", "expr", "stencil"] {
                    if case == "call_matrix" && budget.is_some() {
                        continue;
                    }
                    let ctx = Context::init_with_config(
                        Platform::new(devices, DeviceSpec::tesla_t10()),
                        DeviceSelection::All,
                        Config {
                            plan,
                            device_budget: budget,
                            ..Config::default()
                        },
                    );
                    // Magnitudes over several decades, so a change in the
                    // order of the additions shows in the bits.
                    let value = |i: usize| ((i * 7919) % 10_007) as f32 * 1e-3 + (i % 13) as f32;
                    let (mult, sum) = dot_skeletons(&ctx);
                    let v = Vector::from_fn(&ctx, N, value);
                    let w = Vector::from_fn(&ctx, N, |i| ((i * 11) % 257) as f32 * 0.25);
                    let result = match case {
                        "call" => sum.call(&v),
                        "call_matrix" => {
                            sum.call_matrix(&Matrix::from_fn(&ctx, 256, N / 256, |r, c| {
                                value(r * (N / 256) + c)
                            }))
                        }
                        "zip" => sum.call_fused(&mult.lazy(&v.expr(), &w.expr()).unwrap()),
                        "expr" => sum.call_fused(&v.expr()),
                        "stencil" => {
                            let sq: Map<f32, f32> =
                                Map::new(&ctx, "float sq(float x){ return x * x; }").unwrap();
                            let blur: MapOverlapVec<f32, f32> = MapOverlapVec::new(
                                &ctx,
                                "float blur(const float* v){ return (get(v,-1) + get(v,0) + get(v,1)) / 3.0f; }",
                                1,
                                BoundaryHandling::Neutral(0.0),
                            )
                            .unwrap();
                            sum.call_fused(&blur.lazy(&sq.lazy(&v.expr()).unwrap()).unwrap())
                        }
                        other => unreachable!("unknown case {other}"),
                    };
                    let bits = result.unwrap().value().to_bits();
                    writeln!(
                        out,
                        "{case} {plan_name} {devices}dev {mode}: bits {bits:#010x}"
                    )
                    .unwrap();
                    render_devices(&mut out, &sum.events().last_events(), devices, false);
                }
            }
        }
    }
    out
}

/// The golden recorder: renders, per device, the kernels `events` launched
/// in order (runs of one name folded into `name×k`), the launch count, the
/// kernels' summed executed ops and the transfer commands. With `counters`
/// a second line holds the kernels' summed `CostCounters`.
fn render_devices(out: &mut String, events: &[vgpu::Event], devices: usize, counters: bool) {
    use std::fmt::Write;

    for d in 0..devices {
        let mut runs: Vec<(String, usize)> = Vec::new();
        let mut sum = skelcl_kernel::vm::CostCounters::default();
        let launches = events
            .iter()
            .filter(|e| e.device().0 == d && matches!(e.kind(), CommandKind::Kernel { .. }))
            .count();
        let (mut writes, mut reads, mut bytes) = (0, 0, 0);
        for e in events.iter().filter(|e| e.device().0 == d) {
            match e.kind() {
                CommandKind::Kernel { name } => {
                    if let Some(c) = e.counters() {
                        sum.merge(&c);
                    }
                    match runs.last_mut() {
                        Some((last, k)) if last == name => *k += 1,
                        _ => runs.push((name.clone(), 1)),
                    }
                }
                CommandKind::WriteBuffer { bytes: b } => {
                    writes += 1;
                    bytes += b;
                }
                CommandKind::ReadBuffer { bytes: b } => {
                    reads += 1;
                    bytes += b;
                }
                _ => {}
            }
        }
        let kernels: Vec<String> = runs
            .iter()
            .map(|(name, k)| {
                if *k == 1 {
                    name.clone()
                } else {
                    format!("{name}×{k}")
                }
            })
            .collect();
        writeln!(
            out,
            "  d{d}: {launches} launches, {} ops, {writes} writes, {reads} reads, {bytes} B: {}",
            sum.ops,
            kernels.join(" ")
        )
        .unwrap();
        if counters {
            writeln!(out, "      {sum:?}").unwrap();
        }
    }
}

fn reduce_launches_golden() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/reduce_launches.golden")
}

/// What every `Reduce` entry point launches is pinned per device, on
/// every configuration, so a refactor of the reducer cannot move a kernel,
/// a transfer or a result bit unnoticed.
#[test]
fn reduce_launches_match_golden() {
    assert_matches_golden(&render_reduce_launches(), &reduce_launches_golden());
}

/// Panics at the first line where `got` differs from the golden at `path`.
fn assert_matches_golden(got: &str, path: &std::path::Path) {
    let want = std::fs::read_to_string(path).expect("the golden exists");
    if got == want {
        return;
    }
    let (line, (g, w)) = got
        .lines()
        .chain(std::iter::repeat("<end of output>"))
        .zip(want.lines().chain(std::iter::repeat("<end of golden>")))
        .enumerate()
        .find(|(_, (g, w))| g != w)
        .expect("texts differ somewhere");
    panic!(
        "{} line {}:\n  golden: {w}\n  got:    {g}",
        path.display(),
        line + 1
    );
}

/// Rewrites `tests/reduce_launches.golden` from the current reducer.
#[test]
#[ignore = "regenerates the golden; run only after an intended change"]
fn regenerate_reduce_launches_golden() {
    std::fs::write(reduce_launches_golden(), render_reduce_launches())
        .expect("writable tests directory");
}

/// Every welded elementwise and 1-D stencil kernel on 1, 2 and 4 devices,
/// resident and under a device budget that makes the calls stream: eager
/// `Map`, `Zip` and `MapOverlapVec` with extra arguments (the stencil under
/// both boundary handlings), a lazy chain's `eval`, and a lazy stencil over
/// that chain with its extra argument baked in. Each case renders, per
/// device, what [`render_devices`] records, with the summed `CostCounters`,
/// after a header holding an FNV-1a hash of the result's bytes and the
/// `stream.regions` count. The text is compared against
/// `tests/weld_launches.golden`; regenerate it with
/// `cargo test -p skelcl --test fusion -- --ignored` after an intended
/// change to what a welded kernel executes.
fn render_weld_launches() -> String {
    use skelcl::profile::metrics;
    use skelcl::{BoundaryHandling, MapOverlapVec};
    use std::fmt::Write;

    const N: usize = 12_345;
    const BUDGET: usize = 16 * 1024;
    const CASES: [&str; 7] = [
        "map",
        "zip",
        "stencil-neutral",
        "stencil-nearest",
        "chain",
        "lazy-stencil-neutral",
        "lazy-stencil-nearest",
    ];
    let mut out = String::new();
    for devices in [1usize, 2, 4] {
        for (mode, budget) in [("resident", None), ("budget", Some(BUDGET))] {
            for case in CASES {
                let ctx = Context::init_with_config(
                    Platform::new(devices, DeviceSpec::tesla_t10()),
                    DeviceSelection::All,
                    Config {
                        device_budget: budget,
                        profile: true,
                        ..Config::default()
                    },
                );
                let v = Vector::from_fn(&ctx, N, |i| ((i * 7919) % 10_007) as f32 * 1e-3);
                let w = Vector::from_fn(&ctx, N, |i| ((i * 11) % 257) as f32 * 0.25);
                let scale: Map<f32, f32> =
                    Map::new(&ctx, "float scale(float x, float a){ return x * a; }").unwrap();
                let saxpy: Zip<f32, f32, f32> = Zip::new(
                    &ctx,
                    "float saxpy(float x, float y, float a){ return a * x + y; }",
                )
                .unwrap();
                let boundary = if case.ends_with("neutral") {
                    BoundaryHandling::Neutral(0.5)
                } else {
                    BoundaryHandling::Nearest
                };
                let blur: MapOverlapVec<f32, f32> = MapOverlapVec::new(
                    &ctx,
                    "float blur(const float* v, float c){ return (get(v,-1) + c * get(v,0) + get(v,1)) / 3.0f; }",
                    1,
                    boundary,
                )
                .unwrap();
                let chain = || {
                    let scaled = scale.lazy_with(&v.expr(), &[Value::F32(2.5)]).unwrap();
                    saxpy
                        .lazy_with(&scaled, &w.expr(), &[Value::F32(-0.75)])
                        .unwrap()
                };
                let log = EventLog::default();
                let (result, events) = match case {
                    "map" => {
                        let r = scale.call_with(&v, &[Value::F32(2.5)]).unwrap();
                        (r, scale.events().last_events())
                    }
                    "zip" => {
                        let r = saxpy.call_with(&v, &w, &[Value::F32(-0.75)]).unwrap();
                        (r, saxpy.events().last_events())
                    }
                    "stencil-neutral" | "stencil-nearest" => {
                        let r = blur.call_with(&v, &[Value::F32(2.0)]).unwrap();
                        (r, blur.events().last_events())
                    }
                    "chain" => (chain().eval_logged(&log).unwrap(), log.last_events()),
                    _ => {
                        let e = blur.lazy_with(&chain(), &[Value::F32(2.0)]).unwrap();
                        (e.eval_logged(&log).unwrap(), log.last_events())
                    }
                };
                let hash = result
                    .to_vec()
                    .unwrap()
                    .iter()
                    .flat_map(|x| x.to_le_bytes())
                    .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
                    });
                let regions = ctx.profiler().counter(metrics::STREAM_REGIONS);
                writeln!(
                    out,
                    "{case} {devices}dev {mode}: hash {hash:#018x}, {regions} stream regions"
                )
                .unwrap();
                render_devices(&mut out, &events, devices, true);
            }
        }
    }
    out
}

fn weld_launches_golden() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/weld_launches.golden")
}

/// What every welded elementwise and stencil kernel executes is pinned per
/// device, so a change to a kernel generator cannot move an operation, a
/// transfer or a result bit unnoticed.
#[test]
fn weld_launches_match_golden() {
    assert_matches_golden(&render_weld_launches(), &weld_launches_golden());
}

/// Rewrites `tests/weld_launches.golden` from the current generators.
#[test]
#[ignore = "regenerates the golden; run only after an intended change"]
fn regenerate_weld_launches_golden() {
    std::fs::write(weld_launches_golden(), render_weld_launches())
        .expect("writable tests directory");
}
