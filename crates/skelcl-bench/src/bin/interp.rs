//! Deterministic cost of the kernel compiler's passes and of the execution
//! engine's production path (EXT-INTERP / EXT-IR from DESIGN.md §5g, §5h).
//!
//! Two sections, both exact and therefore gated value by value:
//!
//! * **EXT-IR** — the per-pass sweep: blur and reduce compiled with no
//!   passes (`none`, the base and the compile oracle), with each pass alone
//!   and with all of them, measured with a direct single-threaded
//!   [`WorkItem`] sweep: static and executed source ops and dispatch-loop
//!   iterations, outputs bit-identical across configurations.
//! * **Production run** — four barrier-free shapes (elementwise
//!   zip-multiply, iteration-heavy mandelbrot, 5x5 gaussian blur, strided
//!   reduction) launched once across four virtual GPUs; the report's
//!   `metrics` are that run's byte counters, kernel-duration and
//!   transfer-size histograms and per-device busy time on the simulated
//!   clock.
//!
//! Host wall-clock is not measured here: `bench/e2e` is the host-time
//! instrument. The engine and compiler A/Bs this binary used to time lost
//! their B-sides when the legacy engine and the stack code generator were
//! deleted; EXPERIMENTS.md keeps their last recorded numbers.
//!
//! Usage: `cargo run --release -p skelcl-bench --bin interp`

use skelcl_bench::report::write_report;
use skelcl_kernel::program::Program;
use skelcl_kernel::types::AddressSpace;
use skelcl_kernel::value::{Ptr, Value};
use skelcl_kernel::vm::{CostCounters, HostMemory, ItemGeometry, WorkItem};
use skelcl_kernel::{compile_with_config, OptConfig};
use skelcl_profile::json::Json;
use skelcl_profile::report::bench_report;
use skelcl_profile::Profiler;
use vgpu::{DeviceSpec, KernelArg, LaunchConfig, NdRange, Platform};

const DEVICES: usize = 4;

/// One production-run shape: a barrier-free kernel plus its inputs, split
/// across the platform's devices in contiguous chunks (each device
/// receives the full input buffers and an `off` scalar selecting its
/// chunk, like SkelCL's block distribution).
struct Shape {
    name: &'static str,
    program: Program,
    kernel: &'static str,
    /// Input buffer contents, uploaded to every device.
    inputs: Vec<Vec<u8>>,
    /// Scalar args appended after `off` (the per-device chunk offset).
    scalars: Vec<Value>,
    /// Total work-items across all devices.
    items: usize,
    out_bytes_per_item: usize,
}

/// Launches `shape` once across the devices of a fresh platform, gathers
/// the output, and records every command's event with `profiler`.
fn run_shape(shape: &Shape, profiler: &Profiler) {
    let platform = Platform::new(DEVICES, DeviceSpec::tesla_t10());
    let config = LaunchConfig::default();
    let chunk = shape.items.div_ceil(DEVICES);
    let out_bytes = shape.items * shape.out_bytes_per_item;

    let mut events = Vec::new();
    let mut launches = Vec::new();
    for d in (0..DEVICES).filter(|d| d * chunk < shape.items) {
        let queue = platform.queue(d);
        let mut args = Vec::new();
        for input in &shape.inputs {
            let buf = queue.create_buffer(input.len().max(1)).expect("in buffer");
            events.push(queue.enqueue_write(&buf, 0, input).expect("upload"));
            args.push(KernelArg::Buffer(buf));
        }
        let out = queue.create_buffer(out_bytes.max(1)).expect("out buffer");
        args.push(KernelArg::Buffer(out.clone()));
        args.push(KernelArg::Scalar(Value::I32((d * chunk) as i32)));
        args.extend(shape.scalars.iter().map(|s| KernelArg::Scalar(*s)));
        let len = chunk.min(shape.items - d * chunk);
        let range = NdRange::linear_default(len);
        let launch = queue
            .launch_kernel_async(&shape.program, shape.kernel, &args, range, &config, &[])
            .expect("launch");
        launches.push((queue, out, d * chunk, len, launch));
    }
    let mut gathered = vec![0u8; out_bytes];
    for (queue, out, start, len, launch) in launches {
        launch.wait().expect("kernel completes");
        events.push(launch);
        let bytes = start * shape.out_bytes_per_item..(start + len) * shape.out_bytes_per_item;
        events.push(
            queue
                .enqueue_read(&out, bytes.start, &mut gathered[bytes])
                .expect("gather"),
        );
    }
    for event in &events {
        profiler.record_event(event);
    }
}

fn f32s(vals: impl Iterator<Item = f32>) -> Vec<u8> {
    vals.flat_map(|v| v.to_le_bytes()).collect()
}

/// Specs for the EXT-IR per-pass sweep: every pass off (the base), each
/// pass in isolation, and the full default pipeline.
const IR_SPECS: [&str; 7] = ["none", "const-prop", "cse", "dce", "licm", "unroll", "1"];

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
    let program = compile_with_config(name, src, &OptConfig::parse(spec).0)
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
        program,
        kernel: "dotmul",
        inputs: vec![
            f32s((0..n).map(|i| (i % 1000) as f32 * 0.25)),
            f32s((0..n).map(|i| (i % 773) as f32 * 0.5 - 100.0)),
        ],
        scalars: vec![Value::I32(n as i32)],
        items: n,
        out_bytes_per_item: 4,
    }
}

fn mandelbrot() -> Shape {
    let (w, h, max_iter) = (384usize, 288usize, 120i32);
    let program = skelcl_kernel::compile("mandel.cl", MANDEL_SRC).expect("compile mandel");
    Shape {
        name: "mandelbrot",
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
    }
}

fn gaussian_blur() -> Shape {
    let (w, h) = (320usize, 320usize);
    let program = skelcl_kernel::compile("blur.cl", BLUR_SRC).expect("compile blur");
    Shape {
        name: "gaussian_blur",
        program,
        kernel: "blur",
        inputs: vec![f32s(
            (0..w * h).map(|i| ((i * 2654435761) % 255) as f32 / 255.0),
        )],
        scalars: vec![Value::I32(w as i32), Value::I32(h as i32)],
        items: w * h,
        out_bytes_per_item: 4,
    }
}

fn strided_reduce() -> Shape {
    // 4096 partial sums over 2^20 elements: each work-item walks the
    // input with a stride of the *total* item count (SkelCL's partial
    // reduction layout), so the kernel is loop-dominated.
    let n = 1usize << 20;
    let items = 4096usize;
    let program = skelcl_kernel::compile("reduce.cl", REDUCE_SRC).expect("compile reduce");
    Shape {
        name: "strided_reduce",
        program,
        kernel: "reduce",
        inputs: vec![f32s((0..n).map(|i| ((i % 641) as f32) * 0.125 - 40.0))],
        scalars: vec![Value::I32(n as i32), Value::I32(items as i32)],
        items,
        out_bytes_per_item: 4,
    }
}

fn main() {
    println!("== IR passes: executed cost per SKELCL_KERNEL_OPT configuration (base: none) ==\n");
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
        let none = &runs[0];
        let full = runs.last().expect("spec list is non-empty");
        let outputs_identical = runs.iter().all(|r| r.out == none.out);
        let fewer_ops = full.executed.ops < none.executed.ops;
        // The passes may leave the dispatch count where it was (reduce:
        // one fused head per loop trip either way) but must not raise it.
        let no_more_dispatches = full.executed_dispatches <= none.executed_dispatches;
        ir_ok &= outputs_identical && fewer_ops && no_more_dispatches;
        let ops_saved = none.executed.ops.saturating_sub(full.executed.ops);
        let dispatches_saved = none
            .executed_dispatches
            .saturating_sub(full.executed_dispatches);
        println!(
            "  ops_saved={ops_saved} dispatches_saved={dispatches_saved} \
             (fewer ops: {fewer_ops}, outputs identical: {outputs_identical})\n"
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

    println!("ir pass check: full pipeline strictly cheaper than none and bit-identical: {ir_ok}");

    println!("\n== Production run: {DEVICES} virtual GPUs, one launch per shape ==\n");
    println!("{:<14} {:>10}", "shape", "items");
    // The run's events feed the report's counters and histograms.
    let profiler = Profiler::enabled();
    let mut results: Vec<(&str, Json)> = Vec::new();
    for shape in [
        dot_product(),
        mandelbrot(),
        gaussian_blur(),
        strided_reduce(),
    ] {
        run_shape(&shape, &profiler);
        println!("{:<14} {:>10}", shape.name, shape.items);
        results.push((
            shape.name,
            Json::obj([("items", (shape.items as u64).into())]),
        ));
    }

    println!(
        "\nresult: {}",
        if ir_ok {
            "SHAPE REPRODUCED"
        } else {
            "SHAPE MISMATCH"
        }
    );

    results.push(("ir", Json::obj(ir_objs)));
    results.push(("shape_reproduced", Json::Bool(ir_ok)));
    let report = bench_report(
        "interp",
        &[("devices", (DEVICES as u64).into())],
        Json::obj(results),
        profiler.metrics_snapshot().as_ref(),
    );
    let path = write_report("interp", &report).expect("write report");
    println!("report: {}", path.display());
    std::process::exit(i32::from(!ir_ok));
}
