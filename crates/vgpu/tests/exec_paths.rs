//! The execution engine against the reference launcher.
//!
//! The pooled engine — one reusable group executor per worker, lanes in
//! strips, the pre-decoded instruction stream — must be observationally
//! identical to the single-threaded reference launcher in `support/`
//! (fresh items run one after another, `WorkItem::run_reference`):
//! bit-identical buffers and identical [`CostCounters`], otherwise
//! simulated-time results would drift with the optimisation; and the same
//! faults, in item order. Where it may differ — the order of racing
//! accesses inside a group — it must still be a function of the launch.

mod support;

use std::time::{Duration, Instant};

use proptest::prelude::*;

use skelcl_kernel::compile;
use skelcl_kernel::hir::BinOp;
use skelcl_kernel::ir::{FuncCode, Op};
use skelcl_kernel::program::{KernelInfo, Program};
use skelcl_kernel::value::Value;
use skelcl_kernel::vm::{
    CostCounters, EntryFrame, GroupFault, HostMemory, ItemGeometry, RuntimeError, WorkGroup,
    WorkItem,
};
use support::{Arg, Fault, Outcome};
use vgpu::{DeviceSpec, Error, KernelArg, LaunchConfig, NdRange, Platform};

/// Launches `kernel` on device `device` of a fresh `devices`-GPU platform
/// (buffers uploaded first) and returns every buffer's final contents plus
/// the launch counters — the shape of [`support::Outcome`].
fn run_engine(
    program: &Program,
    kernel: &str,
    args: &[Arg],
    range: NdRange,
    (devices, device): (usize, usize),
    config: &LaunchConfig,
) -> vgpu::Result<Outcome> {
    let platform = Platform::new(devices, DeviceSpec::tesla_t10());
    let queue = platform.queue(device);
    let mut buffers = Vec::new();
    let mut kernel_args = Vec::new();
    for arg in args {
        kernel_args.push(match arg {
            Arg::Buffer(bytes) => {
                let buffer = queue.create_buffer(bytes.len())?;
                queue.enqueue_write(&buffer, 0, bytes)?;
                buffers.push((buffer.clone(), bytes.len()));
                KernelArg::Buffer(buffer)
            }
            Arg::Scalar(v) => KernelArg::Scalar(*v),
            Arg::Local(bytes) => KernelArg::Local(*bytes),
        });
    }
    let event = queue.launch_kernel(program, kernel, &kernel_args, range, config)?;
    let mut out = Vec::new();
    for (buffer, len) in buffers {
        let mut bytes = vec![0u8; len];
        queue.enqueue_read(&buffer, 0, &mut bytes)?;
        out.push(bytes);
    }
    Ok(Outcome {
        buffers: out,
        counters: event.counters().expect("kernel events carry counters"),
    })
}

/// The engine's verdict in the reference launcher's terms.
fn as_reference(result: vgpu::Result<Outcome>) -> Result<Outcome, Fault> {
    result.map_err(|e| match e {
        Error::Launch {
            global_id, error, ..
        } => Fault::Item { global_id, error },
        Error::BarrierDivergence { group_id, .. } => Fault::BarrierDivergence { group_id },
        other => panic!("not a kernel fault: {other}"),
    })
}

/// Runs the launch on the engine and on the reference launcher and checks
/// buffers and counters agree; returns the counters.
fn assert_matches_reference(
    program: &Program,
    kernel: &str,
    args: &[Arg],
    range: NdRange,
    devices: usize,
) -> CostCounters {
    let config = LaunchConfig::default();
    let on = (devices, devices - 1);
    let engine = run_engine(program, kernel, args, range, on, &config).unwrap();
    let budget = config.ops_budget_per_item;
    let reference = support::launch(program, kernel, args, &range, budget).unwrap();
    assert_eq!(
        engine.buffers, reference.buffers,
        "{kernel}: buffers must be bit-identical"
    );
    assert_eq!(
        engine.counters, reference.counters,
        "{kernel}: counters must be identical"
    );
    engine.counters
}

fn f32s(vals: &[f32]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn i32s(vals: &[i32]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Kernels whose lanes part ways, each for a 256-item 1-D group with `in`,
/// `out` and a dynamic `__local int*` of one `int` per item.
const DIVERGENT_KERNELS: &str = "
    int early(int x, int n) {
        if (x % 3 == 0) return -x;
        int s = 0;
        for (int i = 0; i < n; ++i) { if (i == 7) continue; if (s > 40) break; s += i ^ x; }
        return s;
    }
    // Tree reduce: fewer lanes work every round, all meet at the barrier.
    __kernel void tree(__global const int* in, __global int* out, __local int* scratch) {
        int lid = (int)get_local_id(0);
        int n = (int)get_local_size(0);
        scratch[lid] = in[get_global_id(0)];
        barrier(CLK_LOCAL_MEM_FENCE);
        for (int s = n / 2; s > 0; s >>= 1) {
            if (lid < s) scratch[lid] += scratch[lid + s];
            barrier(CLK_LOCAL_MEM_FENCE);
        }
        out[get_global_id(0)] = scratch[0] + lid;
    }
    // Data-dependent trip counts before and after a barrier, static and
    // dynamic local memory side by side.
    __kernel void trips(__global const int* in, __global int* out, __local int* scratch) {
        __local int tile[256];
        int lid = (int)get_local_id(0);
        int n = (int)get_local_size(0);
        int x = in[get_global_id(0)];
        int acc = 0;
        for (int i = 0; i < (x & 15); ++i) acc += i * x;
        tile[lid] = acc;
        scratch[n - 1 - lid] = x;
        barrier(CLK_LOCAL_MEM_FENCE);
        int j = 0;
        while (j < (scratch[lid] & 7)) { acc ^= tile[(lid + j) % n]; j++; }
        out[get_global_id(0)] = acc;
    }
    // A call in a divergent branch whose callee returns early, `break` and
    // `continue`, short-circuit conditions, and a barrier-free tail after
    // the lanes left the loop at different iterations.
    __kernel void paths(__global const int* in, __global int* out, __local int* scratch) {
        int gid = (int)get_global_id(0);
        int x = in[gid];
        int r = x;
        if ((x & 1) && x > -1000 || x % 5 == 0) r = early(x, (x & 31) + 1);
        int it = 0;
        while (it < 40 && (r + it * it) % 11 != 0) it++;
        int tail = r * 3 + it;
        if (tail % 2 == 0 || it > 20 && x < 0) tail -= early(it, 9);
        out[gid] = tail;
    }";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Barrier-free kernels, across 1–4 devices.
    #[test]
    fn barrier_free_kernels_match_reference(
        data in proptest::collection::vec(any::<f32>(), 1..400),
        devices in 1usize..=4,
    ) {
        let program = compile(
            "ew.cl",
            "float f(float x, int i){ return x * 0.5f + (float)(i % 7); }
             __kernel void ew(__global const float* in, __global float* out, int n){
                 int i = (int)get_global_id(0);
                 if (i < n) out[i] = f(in[i], i) * in[i] - 1.0f;
             }",
        ).unwrap();
        prop_assert_eq!(program.kernel("ew").unwrap().barrier_count, 0);
        let n = data.len();
        let args = [
            Arg::Buffer(f32s(&data)),
            Arg::Buffer(vec![0u8; n * 4]),
            Arg::Scalar(Value::I32(n as i32)),
        ];
        assert_matches_reference(&program, "ew", &args, NdRange::linear_default(n), devices);
    }

    /// Kernels with barriers: lanes park and resume on reused group state.
    #[test]
    fn barrier_kernels_match_reference(
        data in proptest::collection::vec(any::<i32>(), 1..6),
        devices in 1usize..=4,
    ) {
        let program = compile(
            "rev.cl",
            "__kernel void rev(__global const int* in, __global int* out, __local int* spare){
                 __local int tile[64];
                 int lid = (int)get_local_id(0);
                 int n = (int)get_local_size(0);
                 tile[lid] = in[get_global_id(0)];
                 spare[lid] = tile[lid] + 1;
                 barrier(CLK_LOCAL_MEM_FENCE);
                 out[get_global_id(0)] = tile[n - 1 - lid] - spare[n - 1 - lid];
             }",
        ).unwrap();
        prop_assert!(program.kernel("rev").unwrap().barrier_count > 0);
        // `data` seeds the group count: one group of 64 items per element.
        let n = data.len() * 64;
        let values: Vec<i32> = (0..n).map(|i| {
            data[i / 64].wrapping_mul(31).wrapping_add(i as i32)
        }).collect();
        let args = [
            Arg::Buffer(i32s(&values)),
            Arg::Buffer(vec![0u8; n * 4]),
            Arg::Local(64 * 4),
        ];
        assert_matches_reference(&program, "rev", &args, NdRange::linear(n, 64), devices);
    }

    /// The lanes of a group part ways and meet again: 256-item groups (four
    /// strips) of kernels that diverge around barriers, calls and loops.
    #[test]
    fn divergent_kernels_match_reference(
        data in proptest::collection::vec(any::<i32>(), 1..4),
        devices in 1usize..=4,
    ) {
        let program = compile("divergent.cl", DIVERGENT_KERNELS).unwrap();
        let n = data.len() * 256;
        let values: Vec<i32> = (0..n).map(|i| {
            data[i / 256].wrapping_mul(2_654_435_761u32 as i32).wrapping_add(i as i32 * 97) >> 8
        }).collect();
        let args = [
            Arg::Buffer(i32s(&values)),
            Arg::Buffer(vec![0u8; n * 4]),
            Arg::Local(256 * 4),
        ];
        for kernel in ["tree", "trips", "paths"] {
            assert_matches_reference(&program, kernel, &args, NdRange::linear(n, 256), devices);
        }
    }

    /// 2-D and 3-D groups: local ids, the row-major lane order and a
    /// barrier between a transposing write and the read.
    #[test]
    fn multi_dimensional_groups_match_reference(
        seed in any::<i32>(),
        devices in 1usize..=4,
    ) {
        let program = compile(
            "dims.cl",
            "__kernel void flip(__global const int* in, __global int* out) {
                 __local int tile[256];
                 int lx = (int)get_local_id(0);
                 int ly = (int)get_local_id(1);
                 int lz = (int)get_local_id(2);
                 int sx = (int)get_local_size(0);
                 int sy = (int)get_local_size(1);
                 int sz = (int)get_local_size(2);
                 int gx = (int)get_global_id(0);
                 int gy = (int)get_global_id(1);
                 int gz = (int)get_global_id(2);
                 int w = (int)get_global_size(0);
                 int h = (int)get_global_size(1);
                 int g = (gz * h + gy) * w + gx;
                 int v = in[g];
                 if ((v & 3) == (int)get_work_dim()) v = -v;
                 tile[(lz * sy + ly) * sx + lx] = v;
                 barrier(CLK_LOCAL_MEM_FENCE);
                 out[g] = tile[((sz - 1 - lz) * sy + (sy - 1 - ly)) * sx + (sx - 1 - lx)]
                     + (int)get_group_id(0) + 10 * (int)get_group_id(1) + 100 * (int)get_group_id(2);
             }",
        ).unwrap();
        let ranges = [
            NdRange::grid([48, 32], [16, 16]),
            NdRange { dims: 3, global: [8, 4, 12], local: [4, 4, 4] },
        ];
        for range in ranges {
            let n = range.total_items();
            let values: Vec<i32> = (0..n as i32).map(|i| seed.wrapping_add(i * 13)).collect();
            let args = [Arg::Buffer(i32s(&values)), Arg::Buffer(vec![0u8; n * 4])];
            assert_matches_reference(&program, "flip", &args, range, devices);
        }
    }
}

const MIX: &str = "
    int collatz_steps(int x){
        int steps = 0;
        while (x > 1 && steps < 200) {
            x = (x % 2 == 0) ? x / 2 : 3 * x + 1;
            steps++;
        }
        return steps;
    }
    __kernel void mix(__global const int* in, __global int* out, int w, int h){
        int x = (int)get_global_id(0);
        int y = (int)get_global_id(1);
        if (x < w && y < h) out[y * w + x] = collatz_steps(in[y * w + x] % 1000 + 1);
    }";

fn mix_args(w: usize, h: usize, value: impl Fn(i32) -> i32) -> [Arg; 4] {
    let values: Vec<i32> = (0..(w * h) as i32).map(value).collect();
    [
        Arg::Buffer(i32s(&values)),
        Arg::Buffer(vec![0u8; w * h * 4]),
        Arg::Scalar(Value::I32(w as i32)),
        Arg::Scalar(Value::I32(h as i32)),
    ]
}

/// A 2-D launch with divergent control flow and helper calls: every
/// counter matches the reference (no double-counting in the lane loops),
/// on a kernel that actually executes work.
#[test]
fn counters_match_reference_on_divergent_2d_kernel() {
    let program = compile("mix.cl", MIX).unwrap();
    let (w, h) = (75usize, 40usize);
    let range = NdRange::grid_default([w, h]);
    let args = mix_args(w, h, |i| i * 7 + 1);
    let counters = assert_matches_reference(&program, "mix", &args, range, 1);
    assert!(
        counters.ops > (w * h) as u64,
        "kernel actually executed work"
    );
}

/// Budget parity: with every budget from 1 to 400 ops per item the engine
/// and the reference agree on `Ok`/`Err`, on the item that ran out, and —
/// on success — on counters and buffers. A fused head must run out of
/// budget iff the reference would inside the block, per lane, with the
/// lanes of a group at different op counts.
#[test]
fn budget_sweep_matches_reference_on_divergent_2d_kernel() {
    let program = compile("mix.cl", MIX).unwrap();
    let (w, h) = (20usize, 9usize);
    // Collatz of 1..=5: between 0 and 7 steps, all affordable at 400.
    let (args, range) = (mix_args(w, h, |i| i % 5), NdRange::grid_default([w, h]));
    let (mut ok, mut exceeded) = (0, 0);
    for budget in 1..=400 {
        // One host thread runs the groups in order, so the engine's first
        // failing group is the reference's.
        let config = LaunchConfig {
            ops_budget_per_item: budget,
            host_threads: Some(1),
            ..LaunchConfig::default()
        };
        let engine = as_reference(run_engine(&program, "mix", &args, range, (1, 0), &config));
        let reference = support::launch(&program, "mix", &args, &range, budget);
        assert_eq!(engine, reference, "budget {budget}");
        match engine {
            Ok(_) => ok += 1,
            Err(Fault::Item { error, .. }) => {
                assert_eq!(error, RuntimeError::OpLimitExceeded, "budget {budget}");
                exceeded += 1;
            }
            Err(other) => panic!("budget {budget}: {other:?}"),
        }
    }
    assert!(
        ok > 50 && exceeded > 50,
        "the sweep crosses the kernel's need: {ok} ok, {exceeded} exceeded"
    );
}

/// Faults surface as the reference reports them (first faulting item in
/// group order), and a faulted pool stays usable for the next launch.
#[test]
fn faults_match_reference_and_pool_survives() {
    let program = compile(
        "oob.cl",
        "__kernel void oob(__global int* out, int n) {
             int i = (int)get_global_id(0);
             out[i + n] = i;
         }
         __kernel void ok(__global int* out, int n){
             int i = (int)get_global_id(0);
             if (i < n) out[i] = i;
         }",
    )
    .unwrap();
    let range = NdRange::linear(8, 8);
    let platform = Platform::single(DeviceSpec::tesla_t10());
    let queue = platform.queue(0);
    let out = queue.create_buffer(8 * 4).unwrap();
    let args = [KernelArg::Buffer(out), KernelArg::Scalar(Value::I32(4))];
    let config = LaunchConfig::default();

    let Err(Error::Launch {
        global_id, error, ..
    }) = queue.launch_kernel(&program, "oob", &args, range, &config)
    else {
        panic!("the engine must report the out-of-bounds store");
    };
    let reference_args = [Arg::Buffer(vec![0u8; 8 * 4]), Arg::Scalar(Value::I32(4))];
    let budget = config.ops_budget_per_item;
    assert_eq!(
        support::launch(&program, "oob", &reference_args, &range, budget),
        Err(Fault::Item { global_id, error })
    );

    // The pool is not poisoned: a good launch on the same device succeeds.
    queue
        .launch_kernel(&program, "ok", &args, range, &config)
        .unwrap();
}

/// The first fault in item order wins, whatever the order the lanes reach
/// theirs in — and lanes above a faulted one are retired at once: the
/// reference never runs them, and a spinning lane must not hold the launch
/// for its whole budget.
#[test]
fn first_fault_in_item_order_wins_and_later_lanes_do_not_hold_the_launch() {
    let program = compile(
        "order.cl",
        "__kernel void late_spinners(__global int* out) {
             int i = (int)get_global_id(0);
             if (i == 3) out[i + 100] = 1;
             while (i > 3) { }
             out[i] = i;
         }
         // The spinners sit in a branch the others skip: wherever the code
         // generator puts it, lane 3 must get to its store.
         __kernel void spinners_in_a_branch(__global int* out) {
             int i = (int)get_global_id(0);
             if (i > 3) { while (1) { } }
             if (i == 3) out[i + 100] = 1;
             out[i] = i;
         }
         __kernel void early_spinner(__global int* out) {
             int i = (int)get_global_id(0);
             if (i == 5) out[i + 100] = 1;
             while (i == 1) { }
             out[i] = i;
         }",
    )
    .unwrap();
    let args = [Arg::Buffer(vec![0u8; 8 * 4])];
    let range = NdRange::linear(8, 8);

    // Lane 3 stores out of bounds, lanes 4–7 never terminate.
    let config = LaunchConfig::default();
    for kernel in ["late_spinners", "spinners_in_a_branch"] {
        let start = Instant::now();
        let engine = as_reference(run_engine(&program, kernel, &args, range, (1, 0), &config));
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "{kernel}: retired lanes must not spin: {:?}",
            start.elapsed()
        );
        let Err(Fault::Item { global_id, error }) = &engine else {
            panic!("{kernel}: lane 3 must fault: {engine:?}");
        };
        assert_eq!(*global_id, [3, 0, 0], "{kernel}");
        assert!(matches!(error, RuntimeError::OutOfBounds(_)), "{error}");
        let budget = config.ops_budget_per_item;
        let reference = support::launch(&program, kernel, &args, &range, budget);
        assert_eq!(engine, reference, "{kernel}");
    }

    // The mirror case: lane 1 spins (under a small budget), lane 5 faults
    // long before lane 1 runs out — lane 1 is still the first in order.
    let budget = 5_000;
    let config = LaunchConfig {
        ops_budget_per_item: budget,
        ..LaunchConfig::default()
    };
    let on = (1, 0);
    let engine = as_reference(run_engine(
        &program,
        "early_spinner",
        &args,
        range,
        on,
        &config,
    ));
    assert_eq!(
        engine,
        Err(Fault::Item {
            global_id: [1, 0, 0],
            error: RuntimeError::OpLimitExceeded
        })
    );
    let reference = support::launch(&program, "early_spinner", &args, &range, budget);
    assert_eq!(engine, reference);
}

/// Both ways a group can diverge — items at different barriers, and items
/// finished while others wait — are reported for the same group by the
/// engine and the reference; and when a group has both a fault and a
/// divergence, the earlier item's wins. Groups of 128 put the events in
/// different strips.
#[test]
fn barrier_divergence_matches_reference() {
    let program = compile(
        "div.cl",
        "__kernel void sites(__global int* out) {
             if (get_group_id(0) == 0 && get_local_id(0) < 2) barrier(CLK_LOCAL_MEM_FENCE);
             else barrier(CLK_LOCAL_MEM_FENCE);
             out[get_global_id(0)] = 1;
         }
         __kernel void early(__global int* out) {
             if (get_group_id(0) == 1 && get_local_id(0) == 3) return;
             barrier(CLK_LOCAL_MEM_FENCE);
             out[get_global_id(0)] = 1;
         }
         // Item `a` takes another barrier, item `b` returns early, item
         // `c` stores out of bounds; negative: nobody does.
         __kernel void events(__global int* out, int a, int b, int c) {
             int i = (int)get_global_id(0);
             if (i == c) out[i + 4096] = 1;
             if (i == b) return;
             if (i == a) barrier(CLK_LOCAL_MEM_FENCE);
             else barrier(CLK_LOCAL_MEM_FENCE);
             out[i] = 1;
         }",
    )
    .unwrap();
    let config = LaunchConfig::default();
    let budget = config.ops_budget_per_item;
    let args = [Arg::Buffer(vec![0u8; 8 * 4])];
    let range = NdRange::linear(8, 4);
    for (kernel, group) in [("sites", 0), ("early", 1)] {
        let engine = as_reference(run_engine(&program, kernel, &args, range, (1, 0), &config));
        assert_eq!(
            engine,
            Err(Fault::BarrierDivergence {
                group_id: [group, 0, 0]
            }),
            "{kernel}"
        );
        let reference = support::launch(&program, kernel, &args, &range, budget);
        assert_eq!(engine, reference, "{kernel}");
    }

    let range = NdRange::linear(128, 128);
    for (a, b, c) in [
        (70, -1, -1),
        (-1, 70, -1),
        (-1, -1, 70),
        (70, -1, 100),
        (100, -1, 70),
        (-1, 3, 70),
        (-1, 70, 3),
        (3, 70, 100),
        (-1, 127, 0),
        (-1, -1, -1),
    ] {
        let args = [
            Arg::Buffer(vec![0u8; 128 * 4]),
            Arg::Scalar(Value::I32(a)),
            Arg::Scalar(Value::I32(b)),
            Arg::Scalar(Value::I32(c)),
        ];
        let engine = as_reference(run_engine(
            &program,
            "events",
            &args,
            range,
            (1, 0),
            &config,
        ));
        let reference = support::launch(&program, "events", &args, &range, budget);
        assert_eq!(engine, reference, "events({a}, {b}, {c})");
        assert_eq!(engine.is_ok(), (a, b, c) == (-1, -1, -1));
    }
}

/// What holds for a kernel that races *inside* a group: every lane
/// read-modify-writes `out[0]` and its neighbour's slot with no barrier in
/// between. The result need not be the item-major one, but it is a function
/// of program and launch only — the same bytes with one host thread or all
/// of them, on a device of a 1- or a 4-GPU platform, and run after run.
#[test]
fn racy_kernel_is_deterministic() {
    let program = compile(
        "racy.cl",
        "__kernel void racy(__global int* out, int n) {
             int g = (int)get_group_id(0) * n;
             int lid = (int)get_local_id(0);
             for (int round = 0; round < 3; ++round) {
                 out[g] = out[g] * 3 + lid + round;
                 out[g + (lid + 1) % n] += out[g + lid] ^ round;
             }
         }",
    )
    .unwrap();
    // Groups own disjoint slices, so only lanes of one group race.
    let (groups, n) = (12usize, 128usize);
    let args = [
        Arg::Buffer(i32s(&(0..(groups * n) as i32).collect::<Vec<_>>())),
        Arg::Scalar(Value::I32(n as i32)),
    ];
    let range = NdRange::linear(groups * n, n);
    let run = |on: (usize, usize), host_threads: Option<usize>| {
        let config = LaunchConfig {
            host_threads,
            ..LaunchConfig::default()
        };
        run_engine(&program, "racy", &args, range, on, &config).unwrap()
    };
    let first = run((1, 0), Some(1));
    for _ in 0..10 {
        assert_eq!(run((1, 0), None), first, "all host threads, again");
    }
    assert_eq!(run((1, 0), Some(1)), first, "one host thread, again");
    assert_eq!(run((4, 3), None), first, "a device of a 4-GPU platform");

    // Four devices' worth of groups: groups do not race each other, so the
    // first twelve come out as before.
    let more = [
        Arg::Buffer(i32s(&(0..(4 * groups * n) as i32).collect::<Vec<_>>())),
        Arg::Scalar(Value::I32(n as i32)),
    ];
    let range = NdRange::linear(4 * groups * n, n);
    let config = LaunchConfig::default();
    let all = run_engine(&program, "racy", &more, range, (1, 0), &config).unwrap();
    assert_eq!(all.buffers[0][..groups * n * 4], first.buffers[0][..]);
    let item_major = support::launch(
        &program,
        "racy",
        &args,
        &NdRange::linear(groups * n, n),
        config.ops_budget_per_item,
    )
    .unwrap();
    assert_eq!(first.counters, item_major.counters, "counters never race");
}

/// Every scalar type of the kernel language: `(name, is_float)`.
const SCALARS: [(&str, bool); 10] = [
    ("char", false),
    ("uchar", false),
    ("short", false),
    ("ushort", false),
    ("int", false),
    ("uint", false),
    ("long", false),
    ("ulong", false),
    ("float", true),
    ("double", true),
];

/// `v` as a little-endian element of the scalar type `ty`.
fn scalar_bytes(ty: &str, v: i64) -> Vec<u8> {
    match ty {
        "char" | "uchar" => vec![v as u8],
        "short" | "ushort" => (v as i16).to_le_bytes().to_vec(),
        "int" | "uint" => (v as i32).to_le_bytes().to_vec(),
        "long" | "ulong" => v.to_le_bytes().to_vec(),
        "float" => (v as f32 / 4.0).to_le_bytes().to_vec(),
        "double" => (v as f64 / 4.0).to_le_bytes().to_vec(),
        other => panic!("not a scalar type: {other}"),
    }
}

/// The head table's kernel for one scalar type `t`: every binary and
/// comparison operator of `t`, as a plain `Bin` (operands from locals, an
/// immediate either side, and two stack results), as the producer of a
/// chain's tree and as a chain's middle link, and every comparison as a
/// `Cmp` feeding a branch (locals, an immediate) and as a chain's compare
/// tail. `y` is never zero, so no division faults. `mode` 1 sends every
/// third lane home first, so the heads run on a partial active set.
fn head_table_kernel(t: &str, float: bool) -> (String, usize, usize) {
    let bins: &[&str] = match float {
        true => &["+", "-", "*", "/"],
        false => &["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"],
    };
    let cmps = ["<", "<=", ">", ">=", "==", "!="];
    let mut body = String::new();
    let mut k = 0;
    for op in bins {
        for e in [
            format!("a {op} b"),
            format!("a {op} ({t})3"),
            format!("({t})5 {op} b"),
            format!("(a + c) {op} (b * d)"),
            format!("a * c + b {op} d"),
            format!("(a + c) {op} b - d"),
        ] {
            body += &format!("    o[ob + {k}] = {e};\n");
            k += 1;
        }
    }
    let mut j = 0;
    for op in cmps {
        for e in [
            format!("a {op} b"),
            format!("a {op} ({t})2"),
            format!("a * b + c {op} d"),
            format!("a * c - b * d {op} a"),
        ] {
            body += &format!("    if ({e}) f[fb + {j}] = 1; else f[fb + {j}] = 2;\n");
            j += 1;
        }
    }
    let src = format!(
        "__kernel void heads(__global const {t}* x, __global const {t}* y, __global {t}* o,
                             __global int* f, int mode) {{
    int i = (int)get_global_id(0);
    if (mode == 1 && i % 3 == 1) return;
    {t} a = x[i]; {t} b = y[i]; {t} c = x[i + 1]; {t} d = y[i + 1];
    int ob = i * {k}; int fb = i * {j};
{body}}}"
    );
    (src, k, j)
}

/// One table for the group executor's arithmetic heads: every scalar type ×
/// every `BinOp`/`CmpOp`, operands from locals, immediates and the stack,
/// plain `Bin`, `Cmp` + branch, and chains with a tree, links and a compare
/// tail — each on a full strip of 64 lanes, on a partial active set after a
/// lane-dependent branch, and on a single lane. Buffers and counters must be
/// bit-identical to the reference launcher's.
#[test]
fn head_table_matches_reference() {
    for (t, float) in SCALARS {
        let (src, outs, flags) = head_table_kernel(t, float);
        let program = compile("heads.cl", &src).unwrap_or_else(|e| panic!("{t}:\n{e}"));
        let size = scalar_bytes(t, 0).len();
        for (items, mode) in [(64, 0), (64, 1), (1, 0)] {
            // Signed values of both signs; divisors 1..=7 of either sign
            // (`uchar`/`ushort`/... read them as large positives).
            let x: Vec<u8> = (0..=items as i64)
                .flat_map(|i| scalar_bytes(t, (i * 37 + 11) % 101 - 50))
                .collect();
            let y: Vec<u8> = (0..=items as i64)
                .flat_map(|i| scalar_bytes(t, (i % 7 + 1) * if i % 2 == 0 { 1 } else { -1 }))
                .collect();
            let args = [
                Arg::Buffer(x),
                Arg::Buffer(y),
                Arg::Buffer(vec![0u8; items * outs * size]),
                Arg::Buffer(vec![0u8; items * flags * 4]),
                Arg::Scalar(Value::I32(mode)),
            ];
            let range = NdRange::linear(items, items);
            let counters = assert_matches_reference(&program, "heads", &args, range, 1);
            assert!(counters.ops > 0, "{t}: the table ran");
        }
    }
}

/// Integer `/` and `%` by zero at lane 5 of 64 — in a chain's first
/// operation (`a / b * c - c`), in its tree (`a * c + c / b`) and in a
/// middle link (`(a + c) / b * c`) — stop the launch at item 5 with the
/// reference's error: a chain that can fault runs lane by lane.
#[test]
fn division_by_zero_in_a_chain_faults_at_the_lane_the_reference_does() {
    let program = compile(
        "div0.cl",
        "__kernel void first(__global const int* x, __global const int* y, __global int* o) {
             int i = (int)get_global_id(0);
             int a = x[i]; int b = y[i]; int c = x[i + 1];
             o[i] = a / b * c - c;
         }
         __kernel void first_rem(__global const int* x, __global const int* y, __global int* o) {
             int i = (int)get_global_id(0);
             int a = x[i]; int b = y[i]; int c = x[i + 1];
             o[i] = a % b * c - c;
         }
         __kernel void tree(__global const int* x, __global const int* y, __global int* o) {
             int i = (int)get_global_id(0);
             int a = x[i]; int b = y[i]; int c = x[i + 1];
             o[i] = a * c + c / b;
         }
         __kernel void tree_rem(__global const int* x, __global const int* y, __global int* o) {
             int i = (int)get_global_id(0);
             int a = x[i]; int b = y[i]; int c = x[i + 1];
             o[i] = a * c - c % b;
         }
         __kernel void link(__global const int* x, __global const int* y, __global int* o) {
             int i = (int)get_global_id(0);
             int a = x[i]; int b = y[i]; int c = x[i + 1];
             o[i] = (a + c) / b * c;
         }
         __kernel void link_rem(__global const int* x, __global const int* y, __global int* o) {
             int i = (int)get_global_id(0);
             int a = x[i]; int b = y[i]; int c = x[i + 1];
             o[i] = (a + c) % b * c;
         }",
    )
    .unwrap();
    let x: Vec<i32> = (0..65).map(|i| i * 7 - 100).collect();
    let y: Vec<i32> = (0..65)
        .map(|i| if i == 5 { 0 } else { i % 4 + 1 })
        .collect();
    let args = [
        Arg::Buffer(i32s(&x)),
        Arg::Buffer(i32s(&y)),
        Arg::Buffer(vec![0u8; 64 * 4]),
    ];
    let range = NdRange::linear(64, 64);
    let config = LaunchConfig::default();
    let budget = config.ops_budget_per_item;
    for kernel in ["first", "first_rem", "tree", "tree_rem", "link", "link_rem"] {
        let reference = support::launch(&program, kernel, &args, &range, budget);
        assert_eq!(
            reference,
            Err(Fault::Item {
                global_id: [5, 0, 0],
                error: RuntimeError::DivisionByZero,
            }),
            "{kernel}: the reference faults at item 5"
        );
        let engine = run_engine(&program, kernel, &args, range, (1, 0), &config);
        assert_eq!(as_reference(engine), reference, "{kernel}");
    }
}

/// Kernels whose calls run with values of the caller still on its operand
/// stack, which the executor keeps in fixed register slots.
const CALL_KERNELS: &str = "
    // A barrier inside a callee, reached with the caller's `x * 5 + lid`
    // live below the arguments.
    int stage(__local int* tile, int lid, int v) {
        tile[lid] = v ^ lid;
        barrier(CLK_LOCAL_MEM_FENCE);
        return tile[(int)get_local_size(0) - 1 - lid] + v;
    }
    __kernel void live_barrier(__global const int* in, __global int* out) {
        __local int tile[256];
        int lid = (int)get_local_id(0);
        int x = in[get_global_id(0)];
        out[get_global_id(0)] = (x * 5 + lid) - stage(tile, lid, x);
    }
    int leaf(int x) { return x * x - 3; }
    int mid(int x) {
        if (x & 4) return leaf(x) - leaf(x + 1);
        return x - 1;
    }
    // Lanes at call depths 0, 1 and 2 at once, parting and meeting in a
    // loop whose trip count is their own.
    __kernel void depths(__global const int* in, __global int* out) {
        int gid = (int)get_global_id(0);
        int x = in[gid];
        int r = 0;
        if (x & 1) r = mid(x);
        else if (x & 2) r = leaf(x);
        for (int i = 0; i < (x & 3); ++i) r += mid(r + i);
        out[gid] = r + x;
    }";

/// The welded `Map` kernel (`skelcl_map` of the kernel compiler's corpus)
/// calls the customizing function with the output address live on the
/// stack below the six arguments; its result must land above that address.
#[test]
fn call_below_live_stack_entries_matches_reference() {
    let source = include_str!("../../skelcl-kernel/tests/corpus/skelcl_map.cl");
    let program = compile("skelcl_map.cl", source).unwrap();
    let (w, h) = (32usize, 24usize);
    let n = w * h;
    let indices: Vec<i32> = (0..n as i32).collect();
    let args = [
        Arg::Buffer(i32s(&indices)),
        Arg::Buffer(vec![0u8; n]),
        Arg::Scalar(Value::I32(n as i32)),
        Arg::Scalar(Value::I32(w as i32)),
        Arg::Scalar(Value::I32(h as i32)),
        Arg::Scalar(Value::I32(64)),
        Arg::Scalar(Value::F32(0.0)),
        Arg::Scalar(Value::F32(0.0)),
    ];
    for devices in 1..=2 {
        assert_matches_reference(
            &program,
            "skelcl_map",
            &args,
            NdRange::linear(n, 256),
            devices,
        );
    }
}

/// A barrier inside a callee parks lanes with live caller entries, and
/// lanes spread over three call depths rejoin: both as the reference.
#[test]
fn calls_across_depths_and_barriers_match_reference() {
    let program = compile("calls.cl", CALL_KERNELS).unwrap();
    let n = 512;
    let values: Vec<i32> = (0..n as i32).map(|i| i.wrapping_mul(40_503) >> 3).collect();
    let args = [Arg::Buffer(i32s(&values)), Arg::Buffer(vec![0u8; n * 4])];
    for kernel in ["live_barrier", "depths"] {
        let counters =
            assert_matches_reference(&program, kernel, &args, NdRange::linear(n, 256), 1);
        assert!(counters.ops > n as u64, "{kernel} executed work");
    }
}

/// A one-function program whose kernel `k` runs `code` over `locals` slots,
/// beside a void `callee` with two parameters.
fn hand_assembled(code: Vec<Op>, locals: usize) -> Program {
    let func = |name: &str, param_count, locals, code| FuncCode {
        name: name.into(),
        param_count,
        local_init: vec![Value::I32(0); locals],
        code,
        returns_void: true,
    };
    Program::from_parts(
        vec![
            func("k", 0, locals, code),
            func("callee", 2, 2, vec![Op::ReturnVoid]),
        ],
        vec![KernelInfo {
            name: "k".into(),
            func: 0,
            params: vec![],
            local_arrays: vec![],
            static_local_bytes: 0,
            barrier_count: 0,
        }],
        "defects.cl",
    )
}

/// Bytecode whose operand-stack heights are not static cannot be given
/// fixed slots: a group and a single item running it return a typed error
/// at the kernel's first op instead of panicking.
#[test]
fn bytecode_without_static_heights_faults_with_a_typed_error() {
    let defects = [
        (
            "underflow at pc 0",
            vec![Op::Bin(BinOp::Add), Op::ReturnVoid],
        ),
        (
            "paths joining at heights 1 and 0",
            vec![
                Op::Const(Value::Bool(true)),
                Op::JumpIfFalse(3),
                Op::Const(Value::I32(1)),
                Op::ReturnVoid,
            ],
        ),
        (
            "a call with two arguments and one stack entry",
            vec![
                Op::Const(Value::I32(1)),
                Op::Call { func: 1, argc: 2 },
                Op::ReturnVoid,
            ],
        ),
    ];
    let lanes = 4;
    let geometry = ItemGeometry {
        local_size: [lanes, 1, 1],
        global_size: [lanes, 1, 1],
        ..ItemGeometry::single()
    };
    for (what, code) in defects {
        let program = hand_assembled(code, 1);
        let memory = HostMemory::new();
        let entry = EntryFrame::new(&program, program.kernel("k").unwrap(), &[]);
        let mut group = WorkGroup::default();
        group.arm(geometry, 1_000);
        match group.run(&entry, &memory, &mut []) {
            Err(GroupFault::Lane {
                lane: 0,
                error: RuntimeError::Internal(_),
            }) => {}
            other => panic!("{what}: the group returned {other:?}"),
        }
        let mut item = WorkItem::new(&program, 0, &[], ItemGeometry::single());
        match item.run(&memory, &mut []) {
            Err(RuntimeError::Internal(_)) => {}
            other => panic!("{what}: the item returned {other:?}"),
        }
    }
}
