//! A/B benchmark of the two vgpu execution engines (EXT-INTERP from
//! DESIGN.md §5g): the pooled fast engine ([`vgpu::ExecStrategy::Fast`] —
//! persistent per-device worker pools, barrier-free work-item reuse,
//! zero-clone dispatch loop) against the legacy lockstep engine
//! ([`vgpu::ExecStrategy::Lockstep`] — per-launch scoped threads, fresh
//! per-item `WorkItem`s, reference interpreter), on four barrier-free
//! shapes: dot-product (elementwise zip-multiply), mandelbrot (iteration-
//! heavy), gaussian blur (5x5 stencil) and a strided reduction
//! (loop-dominated partial sums).
//!
//! A second section (EXT-IR from DESIGN.md §5h) A/Bs the two *compile*
//! pipelines on the same engine: the legacy HIR → stack-codegen path
//! (`SKELCL_KERNEL_OPT=0`) against the MIR optimization pipeline, per
//! pass and end-to-end. Instruction and dispatch counts there are
//! deterministic and gated; walls stay under `host` keys.
//!
//! A third section measures host-thread scaling of *short* work-items on
//! one device: a zip-multiply (a few dozen ops per item) and a 256-lane
//! barrier tree reduce (nine lockstep rounds per item), each launched with
//! `host_threads` 1 and with one thread per CPU. Iteration-heavy Mandelbrot
//! amortises any per-item or per-round cost over ~1 300 ops and scales even
//! when the engine has a thread-shared write on that path; these two do
//! not, so they are where such a write shows.
//!
//! Host wall-clock here is *real* time on the build machine, not simulated
//! nanoseconds, so the report nests all measured numbers under `host` keys
//! (the bench gate checks their presence, never their values). The gated
//! conclusions are the booleans: the fast engine is at least 2x the legacy
//! engine on dot-product and mandelbrot, pooled launches spawn zero
//! threads, both engines produce bit-identical buffers and counters, and
//! the optimized compile pipeline executes strictly fewer source ops and
//! dispatch-loop iterations than the legacy pipeline on blur and reduce.
//!
//! Usage: `cargo run --release -p skelcl-bench --bin interp`

use std::time::{Duration, Instant};

use skelcl_bench::report::write_report;
use skelcl_kernel::program::Program;
use skelcl_kernel::types::AddressSpace;
use skelcl_kernel::value::{Ptr, Value};
use skelcl_kernel::vm::{CostCounters, HostMemory, ItemGeometry, WorkItem};
use skelcl_kernel::{compile_with_config, OptConfig};
use skelcl_profile::json::Json;
use skelcl_profile::report::bench_report;
use skelcl_profile::{FlightRecorder, Profiler};
use vgpu::{DeviceSpec, ExecStats, ExecStrategy, KernelArg, LaunchConfig, NdRange, Platform};

const DEVICES: usize = 4;

/// One benchmark shape: a barrier-free kernel plus its inputs, split
/// across the platform's devices in contiguous chunks (each device
/// receives the full input buffers and an `off` scalar selecting its
/// chunk, like SkelCL's block distribution).
struct Shape {
    name: &'static str,
    /// Kernel source, kept so the EXT-IR section can recompile the shape
    /// under each `SKELCL_KERNEL_OPT` configuration.
    source: &'static str,
    program: Program,
    kernel: &'static str,
    /// Input buffer contents, uploaded to every device.
    inputs: Vec<Vec<u8>>,
    /// Scalar args appended after `off` (the per-device chunk offset).
    scalars: Vec<Value>,
    /// Total work-items across all devices.
    items: usize,
    out_bytes_per_item: usize,
    /// Timed repetitions (after one warm-up launch per device).
    reps: usize,
}

/// One engine's run of a shape: wall-clock over the timed reps, the
/// gathered output, per-device launch counters and the platform's
/// execution statistics.
struct EngineRun {
    wall: Duration,
    out: Vec<u8>,
    counters: Vec<CostCounters>,
    stats: ExecStats,
}

/// Optional observability attachments for one engine run. The two knobs
/// measure different things, so they sit on opposite sides of the timer:
/// an enabled [`Profiler`] has the run's events recorded *after* the
/// timed loop (filling the duration/size histograms for the report
/// without perturbing the A/B walls), while a [`FlightRecorder`] rides
/// the queue observers *inside* the timed loop, which is exactly the
/// overhead the `flight_overhead` acceptance check quantifies.
#[derive(Clone, Copy, Default)]
struct Observe<'a> {
    profiler: Option<&'a Profiler>,
    flight: Option<&'a FlightRecorder>,
}

fn run_shape(
    shape: &Shape,
    program: &Program,
    strategy: ExecStrategy,
    observe: Observe<'_>,
) -> EngineRun {
    // A fresh platform per engine keeps `ExecStats` attributable.
    let platform = Platform::new(DEVICES, DeviceSpec::tesla_t10());
    let config = LaunchConfig {
        strategy,
        ..LaunchConfig::default()
    };
    let chunk = shape.items.div_ceil(DEVICES);
    let out_bytes = shape.items * shape.out_bytes_per_item;

    let off = Profiler::disabled();
    let mut queues = Vec::new();
    let mut args = Vec::new();
    let mut outs = Vec::new();
    let mut uploads = Vec::new();
    for d in 0..DEVICES {
        let queue = platform.queue(d);
        if let Some(flight) = observe.flight {
            flight.attach_queue(&off, &queue);
        }
        let mut a = Vec::new();
        for input in &shape.inputs {
            let buf = queue.create_buffer(input.len().max(1)).expect("in buffer");
            uploads.push(queue.enqueue_write(&buf, 0, input).expect("upload"));
            a.push(KernelArg::Buffer(buf));
        }
        let out = queue.create_buffer(out_bytes.max(1)).expect("out buffer");
        a.push(KernelArg::Buffer(out.clone()));
        a.push(KernelArg::Scalar(Value::I32((d * chunk) as i32)));
        a.extend(shape.scalars.iter().map(|s| KernelArg::Scalar(*s)));
        queues.push(queue);
        args.push(a);
        outs.push(out);
    }

    let launch_all = || -> Vec<vgpu::Event> {
        let events: Vec<vgpu::Event> = (0..DEVICES)
            .filter(|d| d * chunk < shape.items)
            .map(|d| {
                let len = chunk.min(shape.items - d * chunk);
                queues[d]
                    .launch_kernel(
                        program,
                        shape.kernel,
                        &args[d],
                        NdRange::linear_default(len),
                        &config,
                    )
                    .expect("launch")
            })
            .collect();
        for e in &events {
            e.wait().expect("kernel completes");
        }
        events
    };

    launch_all(); // warm-up: pool creation, buffer residency
    let t = Instant::now();
    let mut last = Vec::new();
    for _ in 0..shape.reps {
        last = launch_all();
    }
    let wall = t.elapsed();

    let counters = last
        .iter()
        .map(|e| e.counters().expect("kernel events carry counters"))
        .collect();
    let mut out = vec![0u8; out_bytes];
    let mut gathers = Vec::new();
    for d in 0..DEVICES {
        let start = (d * chunk).min(shape.items) * shape.out_bytes_per_item;
        let end = ((d + 1) * chunk).min(shape.items) * shape.out_bytes_per_item;
        if start < end {
            gathers.push(
                queues[d]
                    .enqueue_read(&outs[d], start, &mut out[start..end])
                    .expect("gather"),
            );
        }
    }
    if let Some(profiler) = observe.profiler {
        for e in uploads.iter().chain(&last).chain(&gathers) {
            profiler.record_event(e);
        }
    }
    EngineRun {
        wall,
        out,
        counters,
        stats: platform.exec_stats(),
    }
}

fn f32s(vals: impl Iterator<Item = f32>) -> Vec<u8> {
    vals.flat_map(|v| v.to_le_bytes()).collect()
}

/// Specs for the EXT-IR per-pass sweep: the legacy stack pipeline, the
/// MIR pipeline with every pass off, each pass in isolation, and the
/// full default pipeline.
const IR_SPECS: [&str; 8] = [
    "0",
    "none",
    "const-prop",
    "cse",
    "dce",
    "licm",
    "unroll",
    "1",
];

/// Static and executed cost of one compile configuration on a small IR
/// case. Measured with a direct single-threaded [`WorkItem`] sweep — no
/// engine, no pools — so every number is exact and deterministic, which
/// lets the bench gate compare them without tolerance.
struct IrRun {
    static_ops: usize,
    static_dispatches: usize,
    executed: CostCounters,
    executed_dispatches: u64,
    out: Vec<u8>,
}

fn run_ir_case(
    name: &str,
    src: &str,
    kernel: &str,
    buffers: &[Vec<u8>],
    scalars: &[Value],
    items: u64,
    spec: &str,
) -> IrRun {
    let program = compile_with_config(name, src, &OptConfig::from_str_spec(spec))
        .unwrap_or_else(|e| panic!("compile {name} under spec {spec}: {e}"));
    let k = program.kernel(kernel).expect("kernel exists");
    let (static_ops, static_dispatches) = program.decode_stats(k.func as usize);

    let mut mem = HostMemory::new();
    let mut args = Vec::new();
    let mut out_buf = 0;
    for bytes in buffers {
        out_buf = mem.add_buffer(bytes.clone()); // last buffer is the output
        args.push(Value::Ptr(Ptr {
            space: AddressSpace::Global,
            buffer: out_buf,
            byte_offset: 0,
        }));
    }
    args.push(Value::I32(0)); // off
    args.extend_from_slice(scalars);

    let mut executed = CostCounters::default();
    let mut executed_dispatches = 0u64;
    for gid in 0..items {
        let geo = ItemGeometry {
            work_dim: 1,
            global_id: [gid, 0, 0],
            local_id: [gid, 0, 0],
            group_id: [0, 0, 0],
            global_size: [items, 1, 1],
            local_size: [items, 1, 1],
            num_groups: [1, 1, 1],
        };
        let mut item = WorkItem::new(&program, k.func, &args, geo);
        item.run(&mem, &mut []).expect("work-item completes");
        executed.merge(&item.counters);
        executed_dispatches += item.dispatches;
    }
    IrRun {
        static_ops,
        static_dispatches,
        executed,
        executed_dispatches,
        out: mem.bytes(out_buf),
    }
}

const DOTMUL_SRC: &str = "__kernel void dotmul(__global const float* a, __global const float* b,
                      __global float* out, int off, int n){
     int i = (int)get_global_id(0) + off;
     if (i < n) out[i] = a[i] * b[i];
 }";

const MANDEL_SRC: &str =
    "__kernel void mandel(__global int* out, int off, int w, int h, int max_iter){
     int gid = (int)get_global_id(0) + off;
     if (gid >= w * h) return;
     float x0 = (float)(gid % w) / (float)w * 3.5f - 2.5f;
     float y0 = (float)(gid / w) / (float)h * 2.0f - 1.0f;
     float x = 0.0f;
     float y = 0.0f;
     int it = 0;
     while (x * x + y * y <= 4.0f && it < max_iter) {
         float xt = x * x - y * y + x0;
         y = 2.0f * x * y + y0;
         x = xt;
         it = it + 1;
     }
     out[gid] = it;
 }";

const BLUR_SRC: &str = "float coef(int d){
     int a = d < 0 ? -d : d;
     return a == 0 ? 6.0f : (a == 1 ? 4.0f : 1.0f);
 }
 __kernel void blur(__global const float* in, __global float* out,
                    int off, int w, int h){
     int gid = (int)get_global_id(0) + off;
     if (gid >= w * h) return;
     int x = gid % w;
     int y = gid / w;
     float acc = 0.0f;
     float norm = 0.0f;
     for (int dy = -2; dy <= 2; dy++) {
         for (int dx = -2; dx <= 2; dx++) {
             int sx = x + dx;
             int sy = y + dy;
             if (sx < 0) sx = 0;
             if (sx >= w) sx = w - 1;
             if (sy < 0) sy = 0;
             if (sy >= h) sy = h - 1;
             float wgt = coef(dx) * coef(dy);
             acc += in[sy * w + sx] * wgt;
             norm += wgt;
         }
     }
     out[gid] = acc / norm;
 }";

const REDUCE_SRC: &str = "__kernel void reduce(__global const float* in, __global float* out,
                      int off, int n, int stride){
     int gid = (int)get_global_id(0) + off;
     float acc = 0.0f;
     for (int i = gid; i < n; i += stride) acc += in[i];
     out[gid] = acc;
 }";

fn dot_product() -> Shape {
    let n = 1usize << 20;
    let program = skelcl_kernel::compile("dotmul.cl", DOTMUL_SRC).expect("compile dotmul");
    Shape {
        name: "dot_product",
        source: DOTMUL_SRC,
        program,
        kernel: "dotmul",
        inputs: vec![
            f32s((0..n).map(|i| (i % 1000) as f32 * 0.25)),
            f32s((0..n).map(|i| (i % 773) as f32 * 0.5 - 100.0)),
        ],
        scalars: vec![Value::I32(n as i32)],
        items: n,
        out_bytes_per_item: 4,
        reps: 3,
    }
}

fn mandelbrot() -> Shape {
    let (w, h, max_iter) = (384usize, 288usize, 120i32);
    let program = skelcl_kernel::compile("mandel.cl", MANDEL_SRC).expect("compile mandel");
    Shape {
        name: "mandelbrot",
        source: MANDEL_SRC,
        program,
        kernel: "mandel",
        inputs: vec![],
        scalars: vec![
            Value::I32(w as i32),
            Value::I32(h as i32),
            Value::I32(max_iter),
        ],
        items: w * h,
        out_bytes_per_item: 4,
        reps: 2,
    }
}

fn gaussian_blur() -> Shape {
    let (w, h) = (320usize, 320usize);
    let program = skelcl_kernel::compile("blur.cl", BLUR_SRC).expect("compile blur");
    Shape {
        name: "gaussian_blur",
        source: BLUR_SRC,
        program,
        kernel: "blur",
        inputs: vec![f32s(
            (0..w * h).map(|i| ((i * 2654435761) % 255) as f32 / 255.0),
        )],
        scalars: vec![Value::I32(w as i32), Value::I32(h as i32)],
        items: w * h,
        out_bytes_per_item: 4,
        reps: 2,
    }
}

fn strided_reduce() -> Shape {
    // 4096 partial sums over 2^20 elements: each work-item walks the
    // input with a stride of the *total* item count (SkelCL's partial
    // reduction layout), so the kernel is loop-dominated — the shape the
    // MIR pipeline's preamble/exit wins matter least and dispatch-loop
    // savings matter most.
    let n = 1usize << 20;
    let items = 4096usize;
    let program = skelcl_kernel::compile("reduce.cl", REDUCE_SRC).expect("compile reduce");
    Shape {
        name: "strided_reduce",
        source: REDUCE_SRC,
        program,
        kernel: "reduce",
        inputs: vec![f32s((0..n).map(|i| ((i % 641) as f32) * 0.125 - 40.0))],
        scalars: vec![Value::I32(n as i32), Value::I32(items as i32)],
        items,
        out_bytes_per_item: 4,
        reps: 3,
    }
}

const TREE_SRC: &str = "__kernel void tree(__global const float* in, __global float* out, int n){
     __local float lanes[256];
     int lid = (int)get_local_id(0);
     int gid = (int)get_global_id(0);
     lanes[lid] = gid < n ? in[gid] : 0.0f;
     barrier(CLK_LOCAL_MEM_FENCE);
     for (int stride = 128; stride > 0; stride >>= 1) {
         if (lid < stride) lanes[lid] = lanes[lid] + lanes[lid + stride];
         barrier(CLK_LOCAL_MEM_FENCE);
     }
     if (lid == 0) out[get_group_id(0)] = lanes[0];
 }";

fn median_ms(mut walls: Vec<Duration>) -> f64 {
    walls.sort();
    walls[walls.len() / 2].as_secs_f64() * 1e3
}

/// Host-thread scaling of short work-items: both kernels on one device,
/// 65 536 items in 256 groups, launched alternately with one host thread
/// and with one per CPU (median of seven each). Everything it reports is
/// host-measured or machine-dependent, so it all sits under `host` keys;
/// the deterministic part — same buffers and counters at both thread
/// counts — is asserted.
fn host_thread_scaling() -> Json {
    const ITEMS: usize = 1 << 16;
    const REPS: usize = 7;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let platform = Platform::single(DeviceSpec::tesla_t10());
    let queue = platform.queue(0);
    let upload = |vals: Vec<u8>| {
        let buf = queue.create_buffer(vals.len()).expect("input buffer");
        queue.enqueue_write(&buf, 0, &vals).expect("upload");
        KernelArg::Buffer(buf)
    };
    let a = upload(f32s((0..ITEMS).map(|i| (i % 1000) as f32 * 0.25)));
    let b = upload(f32s((0..ITEMS).map(|i| (i % 773) as f32 * 0.5 - 100.0)));
    let n = KernelArg::Scalar(Value::I32(ITEMS as i32));
    let zip = skelcl_kernel::compile("dotmul.cl", DOTMUL_SRC).expect("compile dotmul");
    let tree = skelcl_kernel::compile("tree.cl", TREE_SRC).expect("compile tree");

    println!("\n== Host-thread scaling of short work-items: 1 device, {ITEMS} items ==\n");
    println!(
        "{:<12} {:>10} {:>14} {:>14} {:>14} {:>9}",
        "kernel", "ops/item", "barriers/item", "1 thread (ms)", "all (ms)", "speedup"
    );
    let off = KernelArg::Scalar(Value::I32(0));
    let mut rows = Vec::new();
    for (name, program, kernel, inputs, scalars, out_len) in [
        (
            "zip_mult",
            &zip,
            "dotmul",
            vec![&a, &b],
            vec![&off, &n],
            ITEMS * 4,
        ),
        (
            "tree_reduce",
            &tree,
            "tree",
            vec![&a],
            vec![&n],
            ITEMS / 256 * 4,
        ),
    ] {
        let out = queue.create_buffer(out_len).expect("output buffer");
        let out_arg = KernelArg::Buffer(out.clone());
        let args: Vec<KernelArg> = inputs
            .into_iter()
            .chain([&out_arg])
            .chain(scalars)
            .cloned()
            .collect();
        let launch = |host_threads: usize| {
            let config = LaunchConfig {
                host_threads: Some(host_threads),
                strategy: ExecStrategy::Fast,
                ..LaunchConfig::default()
            };
            let t = Instant::now();
            let event = queue
                .launch_kernel(
                    program,
                    kernel,
                    &args,
                    NdRange::linear_default(ITEMS),
                    &config,
                )
                .expect("launch");
            let wall = t.elapsed();
            let mut bytes = vec![0u8; out_len];
            queue.enqueue_read(&out, 0, &mut bytes).expect("read back");
            (wall, event.counters().expect("counters"), bytes)
        };
        let reference = launch(1); // also starts the pool
        let (mut one, mut all) = (Vec::new(), Vec::new());
        for _ in 0..REPS {
            for (host_threads, walls) in [(1, &mut one), (threads, &mut all)] {
                let (wall, counters, bytes) = launch(host_threads);
                assert!(
                    counters == reference.1 && bytes == reference.2,
                    "{name}: result depends on host_threads"
                );
                walls.push(wall);
            }
        }
        let (one_ms, all_ms) = (median_ms(one), median_ms(all));
        let ops_per_item = reference.1.ops as f64 / ITEMS as f64;
        let barriers_per_item = reference.1.barriers as f64 / ITEMS as f64;
        println!(
            "{name:<12} {ops_per_item:>10.1} {barriers_per_item:>14.1} {one_ms:>14.2} {all_ms:>14.2} {:>8.2}x",
            one_ms / all_ms
        );
        rows.push((
            name,
            Json::obj([(
                "host",
                Json::obj([
                    ("threads", (threads as u64).into()),
                    ("ops_per_item", Json::Num(ops_per_item)),
                    ("barriers_per_item", Json::Num(barriers_per_item)),
                    ("one_thread_ms", Json::Num(one_ms)),
                    ("all_threads_ms", Json::Num(all_ms)),
                    ("speedup", Json::Num(one_ms / all_ms)),
                ]),
            )]),
        ));
    }
    Json::obj(rows)
}

fn main() {
    println!(
        "== Interpreter A/B: pooled fast engine vs legacy lockstep engine, {DEVICES} virtual GPUs ==\n"
    );
    println!(
        "{:<14} {:>10} {:>14} {:>14} {:>12} {:>8} {:>8}",
        "shape", "items", "fast (ms)", "lockstep (ms)", "speedup", "bytes", "ctrs"
    );

    let shapes = [
        dot_product(),
        mandelbrot(),
        gaussian_blur(),
        strided_reduce(),
    ];
    // Histograms for the report come from the fast-engine runs only, so
    // the p50/p90/p99 quantiles describe the engine under test.
    let profiler = Profiler::enabled();
    let mut rows = Vec::new();
    let mut all_identical = true;
    let mut speedups = Vec::new();
    let mut fast_stats = ExecStats::default();
    let mut lockstep_stats = ExecStats::default();
    for shape in &shapes {
        assert_eq!(
            shape
                .program
                .kernel(shape.kernel)
                .expect("kernel")
                .barrier_count,
            0,
            "{}: A/B shapes are barrier-free (the fast path under test)",
            shape.name
        );
        let fast = run_shape(
            shape,
            &shape.program,
            ExecStrategy::Fast,
            Observe {
                profiler: Some(&profiler),
                flight: None,
            },
        );
        let lockstep = run_shape(
            shape,
            &shape.program,
            ExecStrategy::Lockstep,
            Observe::default(),
        );
        let outputs_identical = fast.out == lockstep.out;
        let counters_identical = fast.counters == lockstep.counters;
        all_identical &= outputs_identical && counters_identical;
        fast_stats.merge(&fast.stats);
        lockstep_stats.merge(&lockstep.stats);

        let total_items = (shape.items * shape.reps) as f64;
        let fast_ms = fast.wall.as_secs_f64() * 1e3;
        let lockstep_ms = lockstep.wall.as_secs_f64() * 1e3;
        let speedup = lockstep.wall.as_secs_f64() / fast.wall.as_secs_f64();
        speedups.push(speedup);
        println!(
            "{:<14} {:>10} {:>14.2} {:>14.2} {:>11.2}x {:>8} {:>8}",
            shape.name,
            shape.items,
            fast_ms,
            lockstep_ms,
            speedup,
            if outputs_identical { "same" } else { "DIFF" },
            if counters_identical { "same" } else { "DIFF" },
        );
        rows.push((
            shape.name,
            Json::obj([
                ("items", (shape.items as u64).into()),
                ("reps", (shape.reps as u64).into()),
                ("outputs_identical", Json::Bool(outputs_identical)),
                ("counters_identical", Json::Bool(counters_identical)),
                (
                    "host",
                    Json::obj([
                        ("fast_wall_ms", Json::Num(fast_ms)),
                        ("lockstep_wall_ms", Json::Num(lockstep_ms)),
                        (
                            "fast_items_per_sec",
                            Json::Num(total_items / fast.wall.as_secs_f64()),
                        ),
                        (
                            "lockstep_items_per_sec",
                            Json::Num(total_items / lockstep.wall.as_secs_f64()),
                        ),
                        ("speedup", Json::Num(speedup)),
                    ]),
                ),
            ]),
        ));
    }

    // Acceptance: >=2x on the compute shapes, zero per-launch spawns on the
    // pooled engine, per-launch spawns on every legacy launch.
    let dot_2x = speedups[0] >= 2.0;
    let mandel_2x = speedups[1] >= 2.0;
    let zero_spawns = fast_stats.per_launch_thread_spawns == 0
        && fast_stats.pooled_launches == fast_stats.launches
        && fast_stats.launches > 0;
    let legacy_spawns = lockstep_stats.per_launch_thread_spawns >= lockstep_stats.legacy_launches;
    println!(
        "\nthread spawns: fast engine {} per-launch spawns over {} pooled launches \
         ({} persistent pool threads); legacy engine {} spawns over {} launches",
        fast_stats.per_launch_thread_spawns,
        fast_stats.pooled_launches,
        fast_stats.pool_threads,
        lockstep_stats.per_launch_thread_spawns,
        lockstep_stats.legacy_launches,
    );
    println!(
        "shape check: dot-product speedup {:.2}x (>=2x: {dot_2x}), mandelbrot {:.2}x (>=2x: {mandel_2x}), gaussian blur {:.2}x, strided reduce {:.2}x",
        speedups[0], speedups[1], speedups[2], speedups[3]
    );

    // Flight-recorder overhead on the dot-product workload: the recorder
    // rides the queue observer inside the timed loop, so the wall delta is
    // its real cost. Plain and instrumented runs are interleaved (min of
    // three each) so both see the same machine conditions.
    let flight = FlightRecorder::with_capacity(4_096);
    let mut plain_wall = Duration::MAX;
    let mut flight_wall = Duration::MAX;
    for _ in 0..3 {
        plain_wall = plain_wall.min(
            run_shape(
                &shapes[0],
                &shapes[0].program,
                ExecStrategy::Fast,
                Observe::default(),
            )
            .wall,
        );
        flight_wall = flight_wall.min(
            run_shape(
                &shapes[0],
                &shapes[0].program,
                ExecStrategy::Fast,
                Observe {
                    profiler: None,
                    flight: Some(&flight),
                },
            )
            .wall,
        );
    }
    let flight_overhead = flight_wall.as_secs_f64() / plain_wall.as_secs_f64() - 1.0;
    let flight_under_5pct = flight_overhead < 0.05;
    assert!(
        flight.recorded() > 0,
        "instrumented runs must feed the recorder"
    );
    println!(
        "flight recorder: dot-product wall {:.2} ms plain vs {:.2} ms recorded ({:+.2}% overhead, <5%: {flight_under_5pct})",
        plain_wall.as_secs_f64() * 1e3,
        flight_wall.as_secs_f64() * 1e3,
        flight_overhead * 1e2,
    );

    // EXT-IR: A/B of the two compile pipelines. First the per-pass sweep
    // on small variants of the two loop-heavy shapes, measured exactly
    // with direct work-item sweeps (deterministic counts: these gate);
    // then legacy-vs-optimized wall clock on the fast engine with the
    // full-size shapes (host keys: presence-checked only).
    println!("\n== IR pipeline A/B: legacy stack codegen vs MIR passes (SKELCL_KERNEL_OPT) ==\n");
    let (bw, bh) = (64usize, 64usize);
    let (rn, ritems) = (16384usize, 256u64);
    let ir_cases = [
        (
            "blur",
            BLUR_SRC,
            "blur",
            vec![
                f32s((0..bw * bh).map(|i| ((i * 2654435761) % 255) as f32 / 255.0)),
                vec![0u8; bw * bh * 4],
            ],
            vec![Value::I32(bw as i32), Value::I32(bh as i32)],
            (bw * bh) as u64,
        ),
        (
            "reduce",
            REDUCE_SRC,
            "reduce",
            vec![
                f32s((0..rn).map(|i| (i as f32) * 0.25)),
                vec![0u8; ritems as usize * 4],
            ],
            vec![Value::I32(rn as i32), Value::I32(ritems as i32)],
            ritems,
        ),
    ];
    let mut ir_objs: Vec<(&str, Json)> = Vec::new();
    let mut ir_ok = true;
    for (name, src, kernel, buffers, scalars, items) in &ir_cases {
        println!("{name} ({items} items):");
        println!(
            "{:>12} {:>11} {:>12} {:>13} {:>14}",
            "spec", "static_ops", "static_disp", "executed_ops", "executed_disp"
        );
        let runs: Vec<IrRun> = IR_SPECS
            .iter()
            .map(|spec| {
                let r = run_ir_case(name, src, kernel, buffers, scalars, *items, spec);
                println!(
                    "{:>12} {:>11} {:>12} {:>13} {:>14}",
                    spec, r.static_ops, r.static_dispatches, r.executed.ops, r.executed_dispatches
                );
                r
            })
            .collect();
        let legacy = &runs[0];
        let full = runs.last().expect("spec list is non-empty");
        let outputs_identical = runs.iter().all(|r| r.out == legacy.out);
        let fewer_ops = full.executed.ops < legacy.executed.ops;
        let fewer_dispatches = full.executed_dispatches < legacy.executed_dispatches;
        ir_ok &= outputs_identical && fewer_ops && fewer_dispatches;
        let ops_saved = legacy.executed.ops.saturating_sub(full.executed.ops);
        let dispatches_saved = legacy
            .executed_dispatches
            .saturating_sub(full.executed_dispatches);
        println!(
            "  ops_saved={ops_saved} dispatches_saved={dispatches_saved} \
             (fewer ops: {fewer_ops}, fewer dispatches: {fewer_dispatches}, \
             outputs identical: {outputs_identical})\n"
        );
        let spec_objs: Vec<(&str, Json)> = IR_SPECS
            .iter()
            .zip(&runs)
            .map(|(spec, r)| {
                (
                    *spec,
                    Json::obj([
                        ("static_ops", (r.static_ops as u64).into()),
                        ("static_dispatches", (r.static_dispatches as u64).into()),
                        ("executed_ops", r.executed.ops.into()),
                        ("executed_dispatches", r.executed_dispatches.into()),
                    ]),
                )
            })
            .collect();
        ir_objs.push((
            name,
            Json::obj([
                ("items", (*items).into()),
                (
                    "outputs_identical_across_specs",
                    Json::Bool(outputs_identical),
                ),
                ("opt_executes_fewer_ops", Json::Bool(fewer_ops)),
                (
                    "opt_executes_fewer_dispatches",
                    Json::Bool(fewer_dispatches),
                ),
                (
                    "counters",
                    Json::obj([
                        ("ops_saved", ops_saved.into()),
                        ("dispatches_saved", dispatches_saved.into()),
                    ]),
                ),
                ("specs", Json::obj(spec_objs)),
            ]),
        ));
    }

    // End-to-end on the engine: recompile the loop shapes with the legacy
    // pipeline and race both programs on the fast engine (min of three,
    // interleaved so both see the same machine conditions).
    for shape in [&shapes[2], &shapes[3]] {
        let legacy_prog =
            compile_with_config(shape.name, shape.source, &OptConfig::from_str_spec("0"))
                .expect("legacy compile");
        let mut legacy_wall = Duration::MAX;
        let mut opt_wall = Duration::MAX;
        let mut outputs_identical = true;
        for _ in 0..3 {
            let legacy = run_shape(shape, &legacy_prog, ExecStrategy::Fast, Observe::default());
            let opt = run_shape(
                shape,
                &shape.program,
                ExecStrategy::Fast,
                Observe::default(),
            );
            outputs_identical &= legacy.out == opt.out;
            legacy_wall = legacy_wall.min(legacy.wall);
            opt_wall = opt_wall.min(opt.wall);
        }
        let ir_speedup = legacy_wall.as_secs_f64() / opt_wall.as_secs_f64();
        ir_ok &= outputs_identical;
        println!(
            "{}: legacy compile {:.2} ms vs optimized {:.2} ms on the fast engine \
             ({:.2}x, outputs {})",
            shape.name,
            legacy_wall.as_secs_f64() * 1e3,
            opt_wall.as_secs_f64() * 1e3,
            ir_speedup,
            if outputs_identical { "same" } else { "DIFF" },
        );
        ir_objs.push((
            shape.name,
            Json::obj([
                ("outputs_identical", Json::Bool(outputs_identical)),
                (
                    "host",
                    Json::obj([
                        ("legacy_wall_ms", Json::Num(legacy_wall.as_secs_f64() * 1e3)),
                        ("opt_wall_ms", Json::Num(opt_wall.as_secs_f64() * 1e3)),
                        ("speedup", Json::Num(ir_speedup)),
                    ]),
                ),
            ]),
        ));
    }
    println!("ir pipeline check: optimized compile strictly cheaper and bit-identical: {ir_ok}");

    let host_threads = host_thread_scaling();

    let ok = dot_2x
        && mandel_2x
        && zero_spawns
        && legacy_spawns
        && all_identical
        && flight_under_5pct
        && ir_ok;
    println!(
        "\nresult: {}",
        if ok {
            "SHAPE REPRODUCED"
        } else {
            "SHAPE MISMATCH"
        }
    );

    let shape_objs: Vec<(&str, Json)> = rows;
    let report = bench_report(
        "interp",
        &[
            ("devices", (DEVICES as u64).into()),
            ("engines", Json::from("fast vs lockstep")),
        ],
        Json::obj(
            shape_objs
                .into_iter()
                .chain([
                    ("ir", Json::obj(ir_objs)),
                    ("host_threads", host_threads),
                    (
                        "flight_overhead",
                        Json::obj([
                            ("under_5pct", Json::Bool(flight_under_5pct)),
                            ("events_recorded", flight.recorded().into()),
                            (
                                "host",
                                Json::obj([
                                    ("plain_wall_ms", Json::Num(plain_wall.as_secs_f64() * 1e3)),
                                    ("flight_wall_ms", Json::Num(flight_wall.as_secs_f64() * 1e3)),
                                    ("overhead_pct", Json::Num(flight_overhead * 1e2)),
                                ]),
                            ),
                        ]),
                    ),
                    (
                        "acceptance",
                        Json::obj([
                            ("dot_product_fast_at_least_2x", Json::Bool(dot_2x)),
                            ("mandelbrot_fast_at_least_2x", Json::Bool(mandel_2x)),
                            ("zero_spawns_on_fast_path", Json::Bool(zero_spawns)),
                            ("legacy_spawns_per_launch", Json::Bool(legacy_spawns)),
                            (
                                "host",
                                Json::obj([
                                    ("fast_pool_threads", fast_stats.pool_threads.into()),
                                    (
                                        "legacy_thread_spawns",
                                        lockstep_stats.per_launch_thread_spawns.into(),
                                    ),
                                ]),
                            ),
                        ]),
                    ),
                    ("shape_reproduced", Json::Bool(ok)),
                ])
                .collect::<Vec<_>>(),
        ),
        profiler.metrics_snapshot().as_ref(),
    );
    let path = write_report("interp", &report).expect("write report");
    println!("report: {}", path.display());
    std::process::exit(i32::from(!ok));
}
