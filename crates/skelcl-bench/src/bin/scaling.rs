//! Multi-GPU scaling of the SkelCL applications (paper §3.2's motivation:
//! "an automatic data (re)distribution mechanism … ensures scalability when
//! using multiple GPUs"). Not a numbered figure in the paper; this is the
//! EXT-SCALE experiment from DESIGN.md, followed by EXT-REDIST: the
//! transfers a runtime redistribution and a lazy upload cost.
//!
//! Usage: `cargo run --release -p skelcl-bench --bin scaling`

use std::collections::BTreeMap;

use skelcl::{
    BoundaryHandling, Config, Context, DeviceSelection, Distribution, Map, MapOverlapVec,
    PlanConfig, Reduce, SchedulePolicy, StreamConfig, Value, Vector, Zip,
};
use skelcl_bench::baselines::{dot_skelcl, mandelbrot_skelcl, sobel_skelcl};
use skelcl_bench::overlap::overlap_stats;
use skelcl_bench::report::{profiled_ctx, write_report};
use skelcl_bench::workloads::{random_f32_vector, synthetic_image};
use skelcl_profile::json::Json;
use skelcl_profile::report::bench_report;
use skelcl_profile::{DeviceBusy, MetricsSnapshot};
use vgpu::{DeviceSpec, Platform};

fn ctx(devices: usize) -> Context {
    // Profiling is host-side only: simulated device timelines (the numbers
    // below) are unaffected, and the 4-GPU metrics feed the JSON report.
    profiled_ctx(devices)
}

/// A profiled 4-GPU context under `config` rather than the environment,
/// for the sections that compare two settings of one layer.
fn ctx_with(config: Config) -> Context {
    Context::init_with_config(
        Platform::new(4, DeviceSpec::tesla_t10()),
        DeviceSelection::All,
        Config {
            profile: true,
            ..config
        },
    )
}

/// What one EXT-REDIST case moved: the profiler counters and the summed
/// per-device simulated transfer and kernel nanoseconds it added.
struct TransferCase {
    counters: BTreeMap<String, u64>,
    transfer_ns: u64,
    kernel_ns: u64,
}

impl TransferCase {
    /// Runs `op` on profiled `ctx`, with every queue drained before and
    /// after so that only `op`'s commands are counted. Counters `op` left
    /// at zero stay in, so a transfer that appears later fails the gate.
    fn measure(ctx: &Context, op: impl FnOnce()) -> TransferCase {
        let snapshot = || ctx.profiler().metrics_snapshot().expect("profiled context");
        let busy =
            |m: &MetricsSnapshot, f: fn(&DeviceBusy) -> u64| m.devices.values().map(f).sum::<u64>();
        ctx.finish().expect("drain queues");
        let before = snapshot();
        op();
        ctx.finish().expect("drain queues");
        let after = snapshot();
        TransferCase {
            counters: after
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v - before.counters.get(k).unwrap_or(&0)))
                .collect(),
            transfer_ns: busy(&after, |d| d.transfer_ns) - busy(&before, |d| d.transfer_ns),
            kernel_ns: busy(&after, |d| d.kernel_ns) - busy(&before, |d| d.kernel_ns),
        }
    }

    fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// The counters sit under `metrics.counters`, which the bench gate
    /// checks exactly.
    fn json(&self) -> Json {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Json::from(*v)));
        Json::obj([
            ("transfer_ns", self.transfer_ns.into()),
            ("kernel_ns", self.kernel_ns.into()),
            ("metrics", Json::obj([("counters", counters.collect())])),
        ])
    }
}

fn main() {
    println!("== Multi-GPU scaling on virtual Tesla S1070 GPUs (simulated kernel makespan) ==\n");

    let (mw, mh, it) = (512usize, 384usize, 200);
    let (sw, sh) = (512usize, 512usize);
    let img = synthetic_image(sw, sh);
    let a = random_f32_vector(1 << 20, 11);
    let b = random_f32_vector(1 << 20, 12);

    println!(
        "{:<6} {:>18} {:>18} {:>18}",
        "GPUs", "mandelbrot (ms)", "sobel (ms)", "dot product (ms)"
    );

    let mut baseline: Option<[f64; 3]> = None;
    let mut speedups_at_4 = [0.0f64; 3];
    let mut rows = Vec::new();
    let mut mandel_metrics_at_4 = None;
    for devices in 1..=4usize {
        let c = ctx(devices);
        let mandel = mandelbrot_skelcl::run_on(&c, mw, mh, it).expect("mandelbrot");
        if devices == 4 {
            mandel_metrics_at_4 = c.profiler().metrics_snapshot();
        }
        let c = ctx(devices);
        let sobel = sobel_skelcl::run_on(&c, &img, sw, sh).expect("sobel");
        let c = ctx(devices);
        let dot = dot_skelcl::run_on(&c, &a, &b).expect("dot");

        let ms = [
            mandel.kernel.as_secs_f64() * 1e3,
            sobel.kernel.as_secs_f64() * 1e3,
            dot.kernel.as_secs_f64() * 1e3,
        ];
        rows.push(Json::obj([
            ("devices", (devices as u64).into()),
            ("mandelbrot_kernel_ms", Json::Num(ms[0])),
            ("sobel_kernel_ms", Json::Num(ms[1])),
            ("dot_kernel_ms", Json::Num(ms[2])),
        ]));
        let base = *baseline.get_or_insert(ms);
        let sp: Vec<String> = ms
            .iter()
            .zip(base)
            .map(|(m, b)| format!("{m:>10.4} ({:>4.2}x)", b / m))
            .collect();
        println!("{devices:<6} {:>18} {:>18} {:>18}", sp[0], sp[1], sp[2]);
        if devices == 4 {
            for (s, (m, b)) in speedups_at_4.iter_mut().zip(ms.iter().zip(base)) {
                *s = b / m;
            }
        }
    }

    println!(
        "\nshape check: 4-GPU speedups = mandelbrot {:.2}x, sobel {:.2}x, dot {:.2}x",
        speedups_at_4[0], speedups_at_4[1], speedups_at_4[2]
    );
    println!(
        "note: mandelbrot scales sub-linearly because the block distribution is\n\
         load-imbalanced — pixels inside the set (thousands of iterations)\n\
         cluster in a few chunks, and the makespan is the slowest GPU's time.\n\
         Sobel and dot product have uniform per-element work and scale linearly."
    );
    // Uniform-work kernels scale near-linearly; mandelbrot is bounded by
    // its heaviest chunk; the reduction has a small serial combine tail.
    let shape_ok = speedups_at_4[0] > 2.0 && speedups_at_4[1] > 3.0 && speedups_at_4[2] > 2.0;

    // The adaptive scheduler attacks exactly that imbalance: one even
    // calibration frame seeds the per-device throughput model, then the
    // next frame's block boundaries follow the measured busy times.
    println!("\n== Adaptive block scheduling (SKELCL_SCHEDULE=adaptive), 4 GPUs ==\n");
    let c = ctx(4);
    let map: Map<i32, u8> = Map::new(&c, mandelbrot_skelcl::FUNC_SRC).expect("compile mandelbrot");
    c.scheduler().set_policy(SchedulePolicy::Adaptive);
    let frame = || {
        let pixels = Vector::from_fn(&c, mw * mh, |i| i as i32);
        let image = map
            .call_with(
                &pixels,
                &[Value::I32(mw as i32), Value::I32(mh as i32), Value::I32(it)],
            )
            .expect("mandelbrot frame");
        let out = image.to_vec().expect("gather");
        let events = map.events();
        (
            events.load_imbalance(),
            events.last_kernel_time().as_secs_f64() * 1e3,
            out,
        )
    };
    let (even_imb, even_ms, even_out) = c.scheduler().calibrate(frame);
    let (adaptive_imb, adaptive_ms, adaptive_out) = frame();
    assert_eq!(even_out, adaptive_out, "scheduling must not change pixels");
    println!(
        "{:<10} {:>22} {:>18}",
        "schedule", "imbalance (max/mean)", "makespan (ms)"
    );
    println!("{:<10} {even_imb:>22.3} {even_ms:>18.4}", "even");
    println!(
        "{:<10} {adaptive_imb:>22.3} {adaptive_ms:>18.4}",
        "adaptive"
    );
    let adaptive_ok = adaptive_imb <= 1.10 && adaptive_imb < even_imb && adaptive_ms < even_ms;
    println!(
        "\nadaptive: {}",
        if adaptive_ok {
            "BALANCED (one calibration frame)"
        } else {
            "NOT BALANCED"
        }
    );

    // Transfer/compute overlap: the async queues let one device's
    // downloads proceed while other devices are still computing. The
    // load-imbalanced mandelbrot shows it best — edge blocks escape the
    // set quickly, so those devices' result downloads run well before the
    // middle devices' kernels finish. Quantified as the interval
    // intersection of each device's transfer spans with the union of every
    // *other* device's kernel spans.
    println!("\n== Transfer/compute overlap (async queues), 4-GPU mandelbrot ==\n");
    let c = ctx(4);
    mandelbrot_skelcl::run_on(&c, mw, mh, it).expect("mandelbrot overlap run");
    c.finish().expect("drain queues");
    let ov = overlap_stats(&c.profiler().spans());
    println!(
        "{:<8} {:>18} {:>18}",
        "device", "transfer (ns)", "hidden (ns)"
    );
    let mut overlap_rows = Vec::new();
    for (d, (&total, &hidden)) in ov
        .transfer_ns
        .iter()
        .zip(&ov.hidden_transfer_ns)
        .enumerate()
    {
        println!("{d:<8} {total:>18} {hidden:>18}");
        overlap_rows.push(Json::obj([
            ("device", (d as u64).into()),
            ("transfer_ns", total.into()),
            ("hidden_transfer_ns", hidden.into()),
        ]));
    }
    let overlapped = ov.total_hidden_ns() > 0;
    println!(
        "\noverlap: {} ns of {} transfer ns hidden behind other devices' kernels — {}",
        ov.total_hidden_ns(),
        ov.total_transfer_ns(),
        if overlapped { "OVERLAPPED" } else { "EXPOSED" }
    );

    // Elementwise kernel fusion: the dot product (paper Listing 1.1) as a
    // single zip-mul + tree-reduce pass per device. The unfused pipeline
    // launches the zip kernel, writes the product vector to device memory,
    // and reads it back in the reduce's first pass; the fused pipeline
    // welds the multiply into the reduction's load and skips the
    // intermediate buffer entirely.
    println!("\n== Elementwise kernel fusion (dot = zip \u{2218} reduce), 4 GPUs ==\n");
    let c = ctx(4);
    let sum: Reduce<f32> =
        Reduce::new(&c, "float sum(float x, float y){ return x + y; }").expect("compile sum");
    let mult: Zip<f32, f32, f32> =
        Zip::new(&c, "float mult(float x, float y){ return x * y; }").expect("compile mult");
    let va = Vector::from_vec(&c, a.clone());
    let vb = Vector::from_vec(&c, b.clone());

    let product = mult.call(&va, &vb).expect("unfused zip");
    let unfused_dot = sum.call(&product).expect("unfused reduce");
    let mut unfused_by_dev = mult.events().kernel_launches_by_device();
    for (d, n) in sum.events().kernel_launches_by_device() {
        *unfused_by_dev.entry(d).or_default() += n;
    }

    let expr = mult
        .lazy(&va.expr(), &vb.expr())
        .expect("build fused expression");
    let stats = expr.stats().expect("fusion stats");
    let fused_dot = sum.call_fused(&expr).expect("fused dot");
    let fused_by_dev = sum.events().kernel_launches_by_device();

    let unfused_launches: u64 = unfused_by_dev.values().sum();
    let fused_launches: u64 = fused_by_dev.values().sum();
    let saves_launch_per_device = unfused_by_dev
        .iter()
        .all(|(d, n)| n.saturating_sub(*fused_by_dev.get(d).unwrap_or(&0)) >= 1);
    let results_identical = fused_dot.value().to_bits() == unfused_dot.value().to_bits();
    println!(
        "{:<10} {:>16} {:>22} {:>16}",
        "pipeline", "kernel launches", "intermediate (bytes)", "dot"
    );
    println!(
        "{:<10} {unfused_launches:>16} {:>22} {:>16.3}",
        "unfused",
        stats.unfused_stage_bytes,
        unfused_dot.value()
    );
    println!(
        "{:<10} {fused_launches:>16} {:>22} {:>16.3}",
        "fused",
        0,
        fused_dot.value()
    );
    let fusion_ok =
        results_identical && saves_launch_per_device && fused_launches < unfused_launches;
    println!(
        "\nfusion: {} launches saved ({} per device), {} intermediate-buffer bytes avoided — {}",
        unfused_launches - fused_launches,
        if saves_launch_per_device {
            "\u{2265}1"
        } else {
            "<1"
        },
        stats.unfused_stage_bytes,
        if results_identical {
            "BIT-IDENTICAL"
        } else {
            "RESULTS DIVERGE"
        }
    );

    // Plan rewrite rules: the same welding generalised to whole pipelines.
    // The same 1M-element vector through map → stencil(d=1) → reduce on 4
    // GPUs, lowered fully staged (the plan oracle: one kernel and one
    // intermediate buffer per stage) and rewritten (all rules: the map
    // is recomputed inside the stencil's halo loads, the fused stencil
    // runs, and the reduction reads its output). Launches and intermediate
    // bytes come from the profiler's kernel histogram and the
    // `plan.intermediate_bytes` counter on a fresh context per run.
    println!("\n== Plan rewrite rules (map \u{2218} stencil \u{2218} reduce), 4 GPUs ==\n");
    let plan_run = |plan: PlanConfig| {
        let c = ctx_with(Config {
            plan,
            ..Config::default()
        });
        let scale: Map<f32, f32> =
            Map::new(&c, "float scale(float x){ return x * 0.5f; }").expect("compile scale");
        let blur: MapOverlapVec<f32, f32> = MapOverlapVec::new(
            &c,
            "float blur(const float* v){ return (get(v,-1) + get(v,0) + get(v,1)) / 3.0f; }",
            1,
            BoundaryHandling::Neutral(0.0),
        )
        .expect("compile blur");
        let psum: Reduce<f32> =
            Reduce::new(&c, "float sum(float x, float y){ return x + y; }").expect("compile sum");
        let v = Vector::from_vec(&c, a.clone());
        let total = psum
            .call_fused(
                &blur
                    .lazy(&scale.lazy(&v.expr()).expect("lazy map"))
                    .expect("lazy stencil"),
            )
            .expect("plan pipeline")
            .value();
        let m = c.profiler().metrics_snapshot().expect("profiled context");
        (
            m.histograms[skelcl_profile::metrics::HIST_KERNEL_NS].count,
            m.counters
                .get(skelcl_profile::metrics::PLAN_INTERMEDIATE_BYTES)
                .copied()
                .unwrap_or(0),
            m.counters
                .get(skelcl_profile::metrics::PLAN_RULES_FIRED)
                .copied()
                .unwrap_or(0),
            m.counters
                .get(skelcl_profile::metrics::PLAN_NODES_FUSED)
                .copied()
                .unwrap_or(0),
            total.to_bits(),
        )
    };
    let (staged_launches, staged_bytes, _, _, staged_bits) = plan_run(PlanConfig::oracle());
    let (plan_launches, plan_bytes, plan_rules, plan_nodes, plan_bits) =
        plan_run(PlanConfig::all());
    let plan_identical = plan_bits == staged_bits;
    println!(
        "{:<10} {:>16} {:>22} {:>16}",
        "plan", "kernel launches", "intermediate (bytes)", "result"
    );
    println!(
        "{:<10} {staged_launches:>16} {staged_bytes:>22} {:>16.3}",
        "staged",
        f32::from_bits(staged_bits)
    );
    println!(
        "{:<10} {plan_launches:>16} {plan_bytes:>22} {:>16.3}",
        "rewritten",
        f32::from_bits(plan_bits)
    );
    let plan_ok = plan_identical && plan_launches < staged_launches && plan_bytes < staged_bytes;
    println!(
        "\nplan: {} launches and {} intermediate bytes saved, {plan_rules} rules fired, {plan_nodes} nodes fused — {}",
        staged_launches.saturating_sub(plan_launches),
        staged_bytes.saturating_sub(plan_bytes),
        if plan_identical {
            "BIT-IDENTICAL"
        } else {
            "RESULTS DIVERGE"
        }
    );

    // Out-of-core streaming: a 1M-element map → stencil → reduce pipeline
    // with a device budget capping per-device residency far below
    // each device's ~1 MiB share. The streaming executor splits every
    // lowered region into halo-aware chunks driven through a depth-2 ring
    // of staging buffers; peak residency stays under the budget while
    // chunk uploads hide behind kernels. Device queues are in-order, so
    // hiding is cross-device — the map's value-dependent trip count over a
    // ramped input makes the upper devices' chunk kernels long enough to
    // cover the lower devices' chunk stagings (the same imbalance
    // mechanism as the mandelbrot overlap section). Streaming off
    // re-runs the identical pipeline as the non-streamed oracle (whose
    // peak residency shows the budget is really exceeded without
    // chunking).
    println!("\n== Out-of-core streaming (SKELCL_STREAM), 4 GPUs ==\n");
    const STREAM_BUDGET: usize = 256 * 1024;
    const STREAM_N: usize = 1 << 20;
    let stream_run = |stream: StreamConfig| {
        let c = ctx_with(Config {
            stream,
            device_budget: Some(STREAM_BUDGET),
            ..Config::default()
        });
        let heat: Map<f32, f32> = Map::new(
            &c,
            "float heat(float x){\n\
                 float acc = 0.0f;\n\
                 for (int i = 0; i < (int)x; i++) { acc += 1.0f / (float)(i + 1); }\n\
                 return acc;\n\
             }",
        )
        .expect("compile heat");
        let blur: MapOverlapVec<f32, f32> = MapOverlapVec::new(
            &c,
            "float blur(const float* v){ return (get(v,-1) + get(v,0) + get(v,1)) / 3.0f; }",
            1,
            BoundaryHandling::Neutral(0.0),
        )
        .expect("compile blur");
        let psum: Reduce<f32> =
            Reduce::new(&c, "float sum(float x, float y){ return x + y; }").expect("compile sum");
        // Trip counts ramp 0..63 across the vector, so device 3's quarter
        // costs ~7x device 0's.
        let v = Vector::from_fn(&c, STREAM_N, |i| (i / (STREAM_N / 64)) as f32);
        for d in 0..4 {
            c.platform().device(d).reset_peak();
        }
        let total = psum
            .call_fused(
                &blur
                    .lazy(&heat.lazy(&v.expr()).expect("lazy map"))
                    .expect("lazy stencil"),
            )
            .expect("stream pipeline")
            .value();
        c.finish().expect("drain queues");
        let ov = overlap_stats(&c.profiler().spans());
        let m = c.profiler().metrics_snapshot().expect("profiled context");
        let counter = |key| m.counters.get(key).copied().unwrap_or(0);
        let peak = (0..4)
            .map(|d| c.platform().device(d).peak_allocated_bytes())
            .max()
            .unwrap_or(0);
        (
            total.to_bits(),
            peak,
            counter(skelcl_profile::metrics::STREAM_REGIONS),
            counter(skelcl_profile::metrics::STREAM_CHUNKS),
            counter(skelcl_profile::metrics::STREAM_BYTES_STAGED),
            ov,
        )
    };
    let (stream_oracle_bits, stream_oracle_peak, _, _, _, _) = stream_run(StreamConfig::off());
    let (stream_bits, stream_peak, stream_regions, stream_chunks, stream_staged, stream_ov) =
        stream_run(StreamConfig::on());
    let stream_identical = stream_bits == stream_oracle_bits;
    let stream_under_budget = stream_peak <= STREAM_BUDGET;
    let stream_hidden_fraction = if stream_ov.total_transfer_ns() == 0 {
        0.0
    } else {
        stream_ov.total_hidden_ns() as f64 / stream_ov.total_transfer_ns() as f64
    };
    println!(
        "{:<10} {:>20} {:>10} {:>16}",
        "mode", "peak resident (B)", "chunks", "result"
    );
    println!(
        "{:<10} {stream_oracle_peak:>20} {:>10} {:>16.3}",
        "oracle",
        "-",
        f32::from_bits(stream_oracle_bits)
    );
    println!(
        "{:<10} {stream_peak:>20} {stream_chunks:>10} {:>16.3}",
        "streamed",
        f32::from_bits(stream_bits)
    );
    let stream_ok = stream_identical
        && stream_under_budget
        && stream_oracle_peak > STREAM_BUDGET
        && stream_regions >= 2
        && stream_hidden_fraction > 0.0;
    println!(
        "\nstream: {stream_regions} regions chunked ({stream_staged} bytes staged), {:.1}% of \
         transfer ns hidden behind\nother devices' kernels, peak {stream_peak} B within the \
         {STREAM_BUDGET} B budget (oracle needed {stream_oracle_peak} B) — {}",
        stream_hidden_fraction * 100.0,
        if stream_identical {
            "BIT-IDENTICAL"
        } else {
            "RESULTS DIVERGE"
        }
    );

    // EXT-REDIST: a device-resident vector (`mark_device_modified` stands
    // for the kernel that wrote it) changes distribution block -> copy ->
    // block, or block -> overlap -> block, on 4 GPUs. Every change
    // gathers through the host and re-scatters lazily at the next use
    // (paper §3.2), so the round trip moves the data down and up twice.
    println!("\n== Runtime redistribution through the host (EXT-REDIST), 4 GPUs ==\n");
    println!(
        "{:<26} {:>12} {:>12} {:>16}",
        "round trip", "d2h (B)", "h2d (B)", "transfer (ns)"
    );
    let mut redist_cases = Vec::new();
    let mut redist_through_host = true;
    for n in [1usize << 14, 1 << 18] {
        for (label, other) in [
            ("block_copy", Distribution::Copy),
            ("block_overlap", Distribution::Overlap { size: 64 }),
        ] {
            let c = ctx(4);
            let v = Vector::from_fn(&c, n, |i| i as f32);
            v.prefetch(Distribution::Block).expect("upload");
            v.mark_device_modified();
            let case = TransferCase::measure(&c, || {
                for dist in [other, Distribution::Block] {
                    v.set_distribution(dist).expect("gather");
                    v.prefetch(dist).expect("scatter");
                    v.mark_device_modified();
                }
            });
            let (d2h, h2d) = (case.counter("bytes.d2h"), case.counter("bytes.h2d"));
            redist_through_host &= d2h > 0 && h2d > 0 && case.counter("bytes.d2d") == 0;
            let name = format!("{label}_{n}");
            println!("{name:<26} {d2h:>12} {h2d:>12} {:>16}", case.transfer_ns);
            redist_cases.push((name, case.json()));
        }
    }

    // DESIGN.md ablation 4: lazy transfers. A cold `Map` call uploads its
    // fresh input before the kernel; a warm one finds the input resident
    // from an earlier prefetch and moves no input bytes.
    const LAZY_N: usize = 1 << 16;
    let lazy_run = |warm: bool| {
        let c = ctx(1);
        let map: Map<f32, f32> =
            Map::new(&c, "float f(float x){ return x * 2.0f; }").expect("compile map");
        let v = Vector::from_fn(&c, LAZY_N, |i| i as f32);
        if warm {
            v.prefetch(Distribution::Block).expect("prefetch");
        }
        TransferCase::measure(&c, || {
            map.call(&v).expect("map");
        })
    };
    let (cold, warm) = (lazy_run(false), lazy_run(true));
    let lazy_ok = warm.transfer_ns == 0 && cold.transfer_ns > 0;
    println!(
        "\n{:<26} {:>16}",
        "map over 2^16 f32, 1 GPU", "transfer (ns)"
    );
    println!("{:<26} {:>16}", "cold upload", cold.transfer_ns);
    println!("{:<26} {:>16}", "warm resident", warm.transfer_ns);
    let redist_ok = redist_through_host && lazy_ok;
    println!(
        "\nredist: every round trip gathers through the host, a resident input moves no bytes — {}",
        if redist_ok {
            "AS IN THE PAPER"
        } else {
            "MISMATCH"
        }
    );
    redist_cases.push((format!("map_cold_upload_{LAZY_N}"), cold.json()));
    redist_cases.push((format!("map_warm_resident_{LAZY_N}"), warm.json()));
    redist_cases.push(("through_host".into(), Json::Bool(redist_through_host)));
    redist_cases.push(("warm_moves_nothing".into(), Json::Bool(lazy_ok)));

    let ok =
        shape_ok && adaptive_ok && overlapped && fusion_ok && plan_ok && stream_ok && redist_ok;
    println!(
        "\nresult: {}",
        if ok {
            "SHAPE REPRODUCED"
        } else {
            "SHAPE MISMATCH"
        }
    );

    // Machine-readable report; the attached metrics are the 4-GPU
    // mandelbrot run's, whose load_imbalance explains the sub-linear row.
    let report = bench_report(
        "scaling",
        &[
            ("mandelbrot", Json::from(format!("{mw}x{mh} max_iter {it}"))),
            ("sobel", Json::from(format!("{sw}x{sh}"))),
            ("dot", (1u64 << 20).into()),
        ],
        Json::obj([
            ("per_device_count", Json::Arr(rows)),
            (
                "speedups_at_4",
                Json::obj([
                    ("mandelbrot", Json::Num(speedups_at_4[0])),
                    ("sobel", Json::Num(speedups_at_4[1])),
                    ("dot", Json::Num(speedups_at_4[2])),
                ]),
            ),
            (
                "adaptive",
                Json::obj([
                    ("even_imbalance", Json::Num(even_imb)),
                    ("adaptive_imbalance", Json::Num(adaptive_imb)),
                    ("even_kernel_ms", Json::Num(even_ms)),
                    ("adaptive_kernel_ms", Json::Num(adaptive_ms)),
                    ("balanced", Json::Bool(adaptive_ok)),
                ]),
            ),
            (
                "fusion",
                Json::obj([
                    ("unfused_kernel_launches", unfused_launches.into()),
                    ("fused_kernel_launches", fused_launches.into()),
                    ("launches_saved", (unfused_launches - fused_launches).into()),
                    (
                        "intermediate_bytes_unfused",
                        stats.unfused_stage_bytes.into(),
                    ),
                    ("intermediate_bytes_fused", 0u64.into()),
                    ("fused_stages", (stats.stages as u64).into()),
                    (
                        "saves_launch_per_device",
                        Json::Bool(saves_launch_per_device),
                    ),
                    ("results_identical", Json::Bool(results_identical)),
                ]),
            ),
            (
                "plan",
                Json::obj([
                    ("staged_kernel_launches", staged_launches.into()),
                    ("rewritten_kernel_launches", plan_launches.into()),
                    ("staged_intermediate_bytes", staged_bytes.into()),
                    ("rewritten_intermediate_bytes", plan_bytes.into()),
                    ("rules_fired", plan_rules.into()),
                    ("nodes_fused", plan_nodes.into()),
                    (
                        "fewer_launches",
                        Json::Bool(plan_launches < staged_launches),
                    ),
                    (
                        "fewer_intermediate_bytes",
                        Json::Bool(plan_bytes < staged_bytes),
                    ),
                    ("bit_identical", Json::Bool(plan_identical)),
                ]),
            ),
            (
                "stream",
                Json::obj([
                    ("budget_bytes", (STREAM_BUDGET as u64).into()),
                    (
                        "oracle_peak_resident_bytes",
                        (stream_oracle_peak as u64).into(),
                    ),
                    ("peak_resident_bytes", (stream_peak as u64).into()),
                    ("under_budget", Json::Bool(stream_under_budget)),
                    (
                        "oracle_exceeds_budget",
                        Json::Bool(stream_oracle_peak > STREAM_BUDGET),
                    ),
                    ("regions", stream_regions.into()),
                    ("chunks", stream_chunks.into()),
                    ("bytes_staged", stream_staged.into()),
                    ("transfer_ns", stream_ov.total_transfer_ns().into()),
                    ("hidden_transfer_ns", stream_ov.total_hidden_ns().into()),
                    (
                        "hidden_transfer_fraction",
                        Json::Num(stream_hidden_fraction),
                    ),
                    ("transfer_hidden", Json::Bool(stream_hidden_fraction > 0.0)),
                    ("bit_identical", Json::Bool(stream_identical)),
                ]),
            ),
            ("redist", Json::Obj(redist_cases)),
            (
                "overlap",
                Json::obj([
                    ("per_device", Json::Arr(overlap_rows)),
                    ("total_transfer_ns", ov.total_transfer_ns().into()),
                    ("total_hidden_transfer_ns", ov.total_hidden_ns().into()),
                    ("overlapped", Json::Bool(overlapped)),
                ]),
            ),
            ("shape_reproduced", Json::Bool(ok)),
        ]),
        mandel_metrics_at_4.as_ref(),
    );
    let path = write_report("scaling", &report).expect("write report");
    println!("report: {}", path.display());
    std::process::exit(i32::from(!ok));
}
