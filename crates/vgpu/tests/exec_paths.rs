//! The execution engine against the reference launcher.
//!
//! The pooled engine — barrier-free fast path and lockstep rounds, on
//! reused items and the optimised interpreter — must be observationally
//! identical to the single-threaded reference launcher in `support/`
//! (fresh items, `WorkItem::run_reference`): bit-identical buffers and
//! identical [`CostCounters`], otherwise simulated-time results would drift
//! with the optimisation; and the same faults.

mod support;

use proptest::prelude::*;

use skelcl_kernel::compile;
use skelcl_kernel::program::Program;
use skelcl_kernel::value::Value;
use skelcl_kernel::vm::CostCounters;
use support::{Arg, Fault};
use vgpu::{DeviceSpec, Error, KernelArg, LaunchConfig, NdRange, Platform};

/// Launches `kernel` on device `device` of a fresh `devices`-GPU platform
/// (buffers uploaded first) and returns every buffer's final contents plus
/// the launch counters — the shape of [`support::Outcome`].
fn run_engine(
    program: &Program,
    kernel: &str,
    args: &[Arg],
    range: NdRange,
    devices: usize,
    device: usize,
) -> vgpu::Result<support::Outcome> {
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
    let event = queue.launch_kernel(
        program,
        kernel,
        &kernel_args,
        range,
        &LaunchConfig::default(),
    )?;
    let mut out = Vec::new();
    for (buffer, len) in buffers {
        let mut bytes = vec![0u8; len];
        queue.enqueue_read(&buffer, 0, &mut bytes)?;
        out.push(bytes);
    }
    Ok(support::Outcome {
        buffers: out,
        counters: event.counters().expect("kernel events carry counters"),
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
    let engine = run_engine(program, kernel, args, range, devices, devices - 1).unwrap();
    let reference = support::launch(program, kernel, args, &range).unwrap();
    assert_eq!(
        engine.buffers, reference.buffers,
        "buffers must be bit-identical"
    );
    assert_eq!(
        engine.counters, reference.counters,
        "counters must be identical"
    );
    engine.counters
}

fn f32s(vals: &[f32]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn i32s(vals: &[i32]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Barrier-free kernels (the fast path), across 1–4 devices.
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

    /// Kernels with barriers (lockstep rounds on reused items): success
    /// here is also the routing proof, since the barrier-free path faults
    /// on a barrier.
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
}

/// A 2-D launch with divergent control flow and helper calls: every
/// counter matches the reference (no double-counting in the optimised
/// dispatch loop), on a kernel that actually executes work.
#[test]
fn counters_match_reference_on_divergent_2d_kernel() {
    let program = compile(
        "mix.cl",
        "int collatz_steps(int x){
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
         }",
    )
    .unwrap();
    let (w, h) = (75usize, 40usize);
    let values: Vec<i32> = (0..(w * h) as i32).map(|i| i * 7 + 1).collect();
    let args = [
        Arg::Buffer(i32s(&values)),
        Arg::Buffer(vec![0u8; w * h * 4]),
        Arg::Scalar(Value::I32(w as i32)),
        Arg::Scalar(Value::I32(h as i32)),
    ];
    let counters =
        assert_matches_reference(&program, "mix", &args, NdRange::grid_default([w, h]), 1);
    assert!(
        counters.ops > (w * h) as u64,
        "kernel actually executed work"
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
    assert_eq!(
        support::launch(&program, "oob", &reference_args, &range),
        Err(Fault::Item { global_id, error })
    );

    // The pool is not poisoned: a good launch on the same device succeeds.
    queue
        .launch_kernel(&program, "ok", &args, range, &config)
        .unwrap();
}

/// Both ways a group can diverge — items at different barriers, and items
/// finished while others wait — are reported for the same group by the
/// engine and the reference.
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
         }",
    )
    .unwrap();
    let args = [Arg::Buffer(vec![0u8; 8 * 4])];
    let range = NdRange::linear(8, 4);
    for (kernel, group) in [("sites", 0), ("early", 1)] {
        let Err(Error::BarrierDivergence { group_id, .. }) =
            run_engine(&program, kernel, &args, range, 1, 0)
        else {
            panic!("{kernel}: the engine must report divergence");
        };
        assert_eq!(group_id, [group, 0, 0], "{kernel}");
        assert_eq!(
            support::launch(&program, kernel, &args, &range),
            Err(Fault::BarrierDivergence { group_id }),
            "{kernel}"
        );
    }
}
