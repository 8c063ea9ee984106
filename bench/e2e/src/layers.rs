//! Measurements of single layers that need no workload running: the
//! kernel compiler stage by stage, the VM on one thread, and the raw
//! queue's fixed costs. Everything goes through public functions.

use std::hint::black_box;
use std::time::{Duration, Instant};

use skelcl_kernel::diag::Diagnostics;
use skelcl_kernel::types::AddressSpace;
use skelcl_kernel::value::{Ptr, Value};
use skelcl_kernel::vm::{CostCounters, Exit, HostMemory, ItemGeometry, WorkItem};
use skelcl_kernel::{inline, lexer, lower, mir, parser, passes, sema, OptConfig, SourceFile};
use vgpu::{DeviceSpec, KernelArg, LaunchConfig, NdRange, Platform};

use crate::kernels::{
    RawKernel, RAW_BLUR, RAW_MANDELBROT, RAW_MAP_STEP, RAW_SOBEL, RAW_TREE_REDUCE, RAW_ZIP_MULT,
    STAGE_TIMED,
};
use crate::raw::{compile, int};
use crate::stats::{median, ratio};
use crate::{gen, sysinfo};

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed())
}

/// Host time of each public compile stage and exact sizes of what flows
/// between them, summed over [`STAGE_TIMED`]; times are medians over the
/// repetitions.
#[derive(Debug, Default)]
pub struct KernelStages {
    pub lex_us: f64,
    pub parse_us: f64,
    pub sema_us: f64,
    pub inline_us: f64,
    pub mir_lower_us: f64,
    pub passes_us: f64,
    pub emit_us: f64,
    /// `skelcl_kernel::compile_with_config` end to end.
    pub compile_us: f64,
    /// |compile − Σ stages| / compile. `parse` lexes internally, so the
    /// separately timed `lex` is not part of the sum.
    pub stage_residual_share: f64,
    pub source_bytes: u64,
    pub tokens: u64,
    pub mir_insts_in: u64,
    pub mir_insts_out: u64,
    pub static_ops: u64,
    pub static_dispatches: u64,
}

pub fn kernel_stages(repetitions: usize) -> KernelStages {
    let cfg = OptConfig::from_env();
    let mut samples: [Vec<f64>; 8] = Default::default();
    let mut out = KernelStages::default();
    for rep in 0..repetitions {
        let mut sums = [Duration::ZERO; 8];
        for k in STAGE_TIMED {
            let file = SourceFile::new(k.file, k.source);
            let mut diags = Diagnostics::new();
            let (tokens, lex) = timed(|| lexer::lex(&file, &mut diags));
            let (tu, parse) = timed(|| parser::parse(&file, &mut diags));
            let (unit, sema) = timed(|| sema::analyze(&tu, &mut diags));
            let mut unit = unit.expect("the raw kernels type-check");
            let ((), inline) = timed(|| inline::inline_unit(&mut unit));
            let (mut mir, mir_lower) = timed(|| mir::lower_unit(&unit));
            let insts = |m: &mir::MirUnit| -> u64 {
                m.functions.iter().map(|f| f.inst_count() as u64).sum()
            };
            let insts_in = insts(&mir);
            let ((), passes) = timed(|| passes::run(&mut mir, &cfg));
            let (program, emit) = timed(|| lower::emit_unit(&mir, &unit, k.file));
            let (whole, compile) =
                timed(|| skelcl_kernel::compile_with_config(k.file, k.source, &cfg));
            black_box(whole.expect("the raw kernels compile"));
            for (sum, d) in sums
                .iter_mut()
                .zip([lex, parse, sema, inline, mir_lower, passes, emit, compile])
            {
                *sum += d;
            }
            if rep == 0 {
                out.source_bytes += k.source.len() as u64;
                out.tokens += tokens.len() as u64;
                out.mir_insts_in += insts_in;
                out.mir_insts_out += insts(&mir);
                for func in 0..program.functions().len() {
                    let (ops, dispatches) = program.decode_stats(func);
                    out.static_ops += ops as u64;
                    out.static_dispatches += dispatches as u64;
                }
            }
            black_box((tokens, program));
        }
        for (sample, sum) in samples.iter_mut().zip(sums) {
            sample.push(micros(sum));
        }
    }
    let [lex, parse, sema, inline, mir_lower, passes, emit, compile] = samples.map(|s| median(&s));
    let staged = parse + sema + inline + mir_lower + passes + emit;
    KernelStages {
        lex_us: lex,
        parse_us: parse,
        sema_us: sema,
        inline_us: inline,
        mir_lower_us: mir_lower,
        passes_us: passes,
        emit_us: emit,
        compile_us: compile,
        stage_residual_share: ratio((compile - staged).abs(), compile),
        ..out
    }
}

/// A kernel argument of a single-threaded run: buffers live in the run's
/// own host memory.
enum Arg {
    Buffer(Vec<u8>),
    Scalar(Value),
}

fn i32_arg(v: usize) -> Arg {
    Arg::Scalar(Value::I32(v as i32))
}

fn floats(len: usize, stream: u64) -> Arg {
    Arg::Buffer(gen::f32_bytes(&gen::f32_vector(len, 1, stream, 0.0, 1.0)))
}

struct StCase {
    kernel: RawKernel,
    args: Vec<Arg>,
    range: NdRange,
}

/// The raw kernels standing for `workload`'s device work, at sizes one
/// thread finishes in tens of milliseconds.
fn st_cases(workload: &str) -> Vec<StCase> {
    const N: usize = 1 << 14;
    match workload {
        "mandelbrot" => vec![StCase {
            kernel: RAW_MANDELBROT,
            args: vec![
                Arg::Buffer(vec![0; 64 * 48]),
                i32_arg(64),
                i32_arg(48),
                i32_arg(0),
                i32_arg(48),
                i32_arg(200),
                Arg::Scalar(Value::F32(0.0)),
                Arg::Scalar(Value::F32(0.0)),
            ],
            range: NdRange::grid([64, 48], [16, 16]),
        }],
        "sobel" => vec![StCase {
            kernel: RAW_SOBEL,
            args: vec![
                Arg::Buffer(gen::image(64, 64, 1)),
                Arg::Buffer(vec![0; 64 * 64]),
                i32_arg(64),
                i32_arg(64),
                i32_arg(0),
                i32_arg(64),
            ],
            range: NdRange::grid([64, 64], [16, 16]),
        }],
        "stream_pipeline" | "small_calls" => vec![
            StCase {
                kernel: RAW_MAP_STEP,
                args: vec![floats(N, 0), Arg::Buffer(vec![0; 4 * N]), i32_arg(N)],
                range: NdRange::linear_default(N),
            },
            StCase {
                kernel: RAW_BLUR,
                args: vec![
                    floats(N, 0),
                    Arg::Buffer(vec![0; 4 * N]),
                    i32_arg(0),
                    i32_arg(N),
                    i32_arg(N),
                ],
                range: NdRange::linear_default(N),
            },
        ],
        // `dot`, and `compile_cold`, whose only device work is a dot.
        _ => vec![
            StCase {
                kernel: RAW_ZIP_MULT,
                args: vec![
                    floats(N, 0),
                    floats(N, 1),
                    Arg::Buffer(vec![0; 4 * N]),
                    i32_arg(N),
                ],
                range: NdRange::linear_default(N),
            },
            StCase {
                kernel: RAW_TREE_REDUCE,
                args: vec![floats(N, 0), Arg::Buffer(vec![0; 4 * 64]), i32_arg(N)],
                range: NdRange::linear(64 * 256, 256),
            },
        ],
    }
}

struct StRun {
    counters: CostCounters,
    elapsed: Duration,
    /// What the launch left in its last buffer argument.
    #[cfg(test)]
    output: Vec<u8>,
}

/// Runs one launch on the calling thread through `vm::WorkItem`: groups
/// one after another, a group's items in lockstep rounds between barriers.
fn run_on_this_thread(case: &StCase) -> StRun {
    let program = compile(case.kernel);
    let kernel = program
        .kernel(case.kernel.entry)
        .expect("entry names come with the sources");
    let mut mem = HostMemory::new();
    let mut last_buffer = 0;
    let args: Vec<Value> = case
        .args
        .iter()
        .map(|a| match a {
            Arg::Buffer(bytes) => {
                last_buffer = mem.add_buffer(bytes.clone());
                Value::Ptr(Ptr {
                    space: AddressSpace::Global,
                    buffer: last_buffer,
                    byte_offset: 0,
                })
            }
            Arg::Scalar(v) => *v,
        })
        .collect();
    let range = &case.range;
    let size = |a: [usize; 3]| a.map(|v| v as u64);
    let groups = range.group_counts();
    let mut items: Vec<WorkItem> = Vec::new();
    let mut local = vec![0u8; kernel.static_local_bytes as usize];
    let mut counters = CostCounters::default();

    let start = Instant::now();
    for gz in 0..groups[2] {
        for gy in 0..groups[1] {
            for gx in 0..groups[0] {
                let group = [gx, gy, gz];
                let mut next = 0;
                for lz in 0..range.local[2] {
                    for ly in 0..range.local[1] {
                        for lx in 0..range.local[0] {
                            let lid = [lx, ly, lz];
                            let gid = [0, 1, 2].map(|d| group[d] * range.local[d] + lid[d]);
                            let geometry = ItemGeometry {
                                work_dim: range.dims,
                                global_id: size(gid),
                                local_id: size(lid),
                                group_id: size(group),
                                global_size: size(range.global),
                                local_size: size(range.local),
                                num_groups: size(groups),
                            };
                            match items.get_mut(next) {
                                Some(item) => item.reset(&program, kernel.func, &args, geometry),
                                None => items.push(WorkItem::new(
                                    &program,
                                    kernel.func,
                                    &args,
                                    geometry,
                                )),
                            }
                            for array in &kernel.local_arrays {
                                items[next].bind_entry_slot(
                                    array.slot,
                                    Value::Ptr(Ptr {
                                        space: AddressSpace::Local,
                                        buffer: 0,
                                        byte_offset: array.byte_offset as i64,
                                    }),
                                );
                            }
                            next += 1;
                        }
                    }
                }
                let mut running = items.len();
                while running > 0 {
                    for item in items.iter_mut().filter(|i| !i.is_finished()) {
                        let exit = item
                            .run(&mem, &mut local)
                            .expect("the raw kernels do not fault");
                        if exit == Exit::Done {
                            running -= 1;
                        }
                    }
                }
                for item in &items {
                    counters.merge(&item.counters);
                }
            }
        }
    }
    StRun {
        counters,
        elapsed: start.elapsed(),
        #[cfg(test)]
        output: mem.bytes(last_buffer),
    }
}

/// VM operations per microsecond on the harness thread alone, over the
/// raw kernels standing for `workload`; the median of a few repetitions.
pub fn vm_single_thread_mops(workload: &str) -> f64 {
    let cases = st_cases(workload);
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let (mut ops, mut elapsed) = (0u64, Duration::ZERO);
            for case in &cases {
                let run = run_on_this_thread(case);
                ops += run.counters.ops;
                elapsed += run.elapsed;
            }
            ratio(ops as f64, micros(elapsed))
        })
        .collect();
    median(&rates)
}

/// Fixed costs of a raw queue with nothing else running.
#[derive(Debug, Default)]
pub struct QueueMicro {
    /// A blocking launch of an empty one-item kernel.
    pub launch_floor_us: f64,
    pub h2d_gbps: f64,
    pub d2h_gbps: f64,
    /// Raw Mandelbrot launch with one host thread over the same with one
    /// per core.
    pub host_threads_speedup: f64,
}

pub fn queue_micro() -> QueueMicro {
    const TRANSFER: usize = 4 << 20;
    let platform = Platform::single(DeviceSpec::tesla_t10());
    let queue = platform.queue(0);
    let config = LaunchConfig::default();

    let noop = skelcl_kernel::compile("noop.cl", "__kernel void noop(int unused){ }")
        .expect("an empty kernel compiles");
    let launches: Vec<f64> = (0..300)
        .map(|_| {
            let args = [KernelArg::Scalar(Value::I32(0))];
            let range = NdRange::linear(1, 1);
            micros(timed(|| queue.launch_kernel(&noop, "noop", &args, range, &config)).1)
        })
        .collect();

    let buffer = queue
        .create_buffer(TRANSFER)
        .expect("4 MiB fit a fresh device");
    let mut host = vec![0x5au8; TRANSFER];
    let gbps = |d: Duration| TRANSFER as f64 / d.as_secs_f64() / 1e9;
    let mut h2d = Vec::new();
    let mut d2h = Vec::new();
    for _ in 0..15 {
        h2d.push(gbps(timed(|| queue.enqueue_write(&buffer, 0, &host)).1));
        d2h.push(gbps(timed(|| queue.enqueue_read(&buffer, 0, &mut host)).1));
    }

    // A device's pool keeps the thread count of its first launch, so each
    // count gets a device of its own.
    let mandelbrot = compile(RAW_MANDELBROT);
    let launch_with = |threads: usize| -> f64 {
        let (w, h) = (128, 96);
        let platform = Platform::single(DeviceSpec::tesla_t10());
        let queue = platform.queue(0);
        let out = queue
            .create_buffer(w * h)
            .expect("12 KiB fit a fresh device");
        let config = LaunchConfig {
            host_threads: Some(threads),
            ..LaunchConfig::default()
        };
        let args = [
            KernelArg::Buffer(out),
            int(w),
            int(h),
            int(0),
            int(h),
            int(200),
            KernelArg::Scalar(Value::F32(0.0)),
            KernelArg::Scalar(Value::F32(0.0)),
        ];
        let times: Vec<f64> = (0..6)
            .map(|_| {
                let range = NdRange::grid([w, h], [16, 16]);
                let launch = || {
                    queue.launch_kernel(&mandelbrot, RAW_MANDELBROT.entry, &args, range, &config)
                };
                let (result, d) = timed(launch);
                result.expect("the raw Mandelbrot kernel runs");
                micros(d)
            })
            .skip(1) // the first launch starts the pool
            .collect();
        median(&times)
    };

    QueueMicro {
        launch_floor_us: median(&launches),
        h2d_gbps: median(&h2d),
        d2h_gbps: median(&d2h),
        host_threads_speedup: ratio(launch_with(1), launch_with(sysinfo::nproc())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_counts_are_exact_and_times_add_up() {
        let a = kernel_stages(3);
        let b = kernel_stages(3);
        for (x, y) in [
            (a.source_bytes, b.source_bytes),
            (a.tokens, b.tokens),
            (a.mir_insts_in, b.mir_insts_in),
            (a.mir_insts_out, b.mir_insts_out),
            (a.static_ops, b.static_ops),
            (a.static_dispatches, b.static_dispatches),
        ] {
            assert!(x > 0 && x == y);
        }
        assert!(a.mir_insts_out <= a.mir_insts_in, "passes do not add code");
        assert!(a.static_dispatches <= a.static_ops);
        assert!(a.compile_us > 0.0 && a.parse_us > a.lex_us);
    }

    #[test]
    fn single_threaded_runs_compute_the_right_thing() {
        // The barrier tree must leave 64 partials that sum to the input's
        // sum, or the lockstep rounds here are not the engine's.
        let case = &st_cases("dot")[1];
        let run = run_on_this_thread(case);
        assert!(run.counters.barriers > 0 && run.counters.ops > 0);
        let floats = |bytes: &[u8]| -> f64 { gen::f32_values(bytes).map(f64::from).sum() };
        let Arg::Buffer(input) = &case.args[0] else {
            panic!("the reduce case reads a buffer");
        };
        assert!((floats(&run.output) - floats(input)).abs() < 1e-2 * floats(input));
        for workload in crate::workloads::NAMES {
            assert!(vm_single_thread_mops(workload) > 0.0, "{workload}");
        }
    }
}
