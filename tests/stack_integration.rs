//! Cross-crate integration: drive all three layers together — compile
//! kernels with `skelcl-kernel`, run them on `vgpu` queues, and cross-check
//! against the `skelcl` skeleton library, under the default configuration
//! and each layer's oracle (see `common`).

mod common;

use common::{bits, under_every_config};
use skelcl_repro::kernel;
use skelcl_repro::skelcl::{Context, Map, Reduce, Vector};
use skelcl_repro::vgpu::{self, DeviceSpec, KernelArg, LaunchConfig, NdRange, Platform};

use kernel::value::Value;

/// The same computation expressed (a) as a hand-written kernel on raw vgpu
/// queues and (b) via the Map skeleton must agree bit-for-bit.
#[test]
fn raw_kernel_and_skeleton_agree() {
    let n = 10_000usize;
    let input: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();

    // (a) Raw path.
    let program = kernel::compile(
        "poly.cl",
        "float poly(float x){ return 3.0f * x * x - 2.0f * x + 1.0f; }
         __kernel void apply(__global const float* in, __global float* out, int n) {
             int i = (int)get_global_id(0);
             if (i < n) out[i] = poly(in[i]);
         }",
    )
    .unwrap();
    let platform = Platform::single(DeviceSpec::tesla_t10());
    let queue = platform.queue(0);
    let a = queue.create_buffer(4 * n).unwrap();
    let b = queue.create_buffer(4 * n).unwrap();
    let bytes: Vec<u8> = input.iter().flat_map(|v| v.to_le_bytes()).collect();
    queue.enqueue_write(&a, 0, &bytes).unwrap();
    queue
        .launch_kernel(
            &program,
            "apply",
            &[
                KernelArg::Buffer(a),
                KernelArg::Buffer(b.clone()),
                KernelArg::Scalar(Value::I32(n as i32)),
            ],
            NdRange::linear_default(n),
            &LaunchConfig::default(),
        )
        .unwrap();
    let mut raw_bytes = vec![0u8; 4 * n];
    queue.enqueue_read(&b, 0, &mut raw_bytes).unwrap();
    let raw: Vec<f32> = raw_bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect();

    // (b) Skeleton path.
    let skel = under_every_config(
        || Platform::single(DeviceSpec::tesla_t10()),
        |ctx| {
            let map: Map<f32, f32> = Map::new(
                ctx,
                "float poly(float x){ return 3.0f * x * x - 2.0f * x + 1.0f; }",
            )
            .unwrap();
            let out = map.call(&Vector::from_vec(ctx, input.clone())).unwrap();
            bits(&out.to_vec().unwrap())
        },
    );

    assert_eq!(bits(&raw), skel);
    // And both match the host.
    for (i, (&r, &x)) in raw.iter().zip(&input).enumerate() {
        assert_eq!(r, 3.0 * x * x - 2.0 * x + 1.0, "element {i}");
    }
}

/// Kernel-language diagnostics surface through the skeleton API with the
/// offending line visible.
#[test]
fn compile_errors_propagate_with_context() {
    let ctx = Context::single_gpu();
    let err = Map::<f32, f32>::new(&ctx, "float f(float x){ return x + undeclared; }").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("undeclared"), "{msg}");
    assert!(msg.contains("customizing function"), "{msg}");
}

/// Kernel runtime faults (out-of-bounds) propagate as launch errors, not
/// panics or silent corruption.
#[test]
fn runtime_faults_propagate() {
    let program = kernel::compile(
        "bad.cl",
        "__kernel void bad(__global float* out, int n) { out[n + 10] = 1.0f; }",
    )
    .unwrap();
    let platform = Platform::single(DeviceSpec::tesla_t10());
    let queue = platform.queue(0);
    let buf = queue.create_buffer(4).unwrap();
    let err = queue
        .launch_kernel(
            &program,
            "bad",
            &[KernelArg::Buffer(buf), KernelArg::Scalar(Value::I32(1))],
            NdRange::linear(1, 1),
            &LaunchConfig::default(),
        )
        .unwrap_err();
    assert!(matches!(err, vgpu::Error::Launch { .. }));
}

/// The whole stack stays consistent when devices differ in count: results
/// are identical from 1 to 4 GPUs for a reduce over an awkward size.
#[test]
fn device_count_invariance() {
    let data: Vec<i64> = (0..12_345).map(|i| (i * i) % 1000 - 500).collect();
    let expected: i64 = data.iter().sum();
    for devices in 1..=4 {
        let got = under_every_config(
            || Platform::new(devices, DeviceSpec::tesla_t10()),
            |ctx| {
                let sum: Reduce<i64> =
                    Reduce::new(ctx, "long add(long x, long y){ return x + y; }").unwrap();
                sum.call(&Vector::from_vec(ctx, data.clone()))
                    .unwrap()
                    .value()
            },
        );
        assert_eq!(got, expected, "{devices} devices");
    }
}

/// Device memory is released when containers drop (the paper's automatic
/// (de)allocation, §3.1).
#[test]
fn container_drop_releases_device_memory() {
    let ctx = Context::single_gpu();
    let device = ctx.platform().device(0);
    let before = device.allocated_bytes();
    {
        let neg: Map<f32, f32> = Map::new(&ctx, "float f(float x){ return -x; }").unwrap();
        let v = Vector::from_fn(&ctx, 100_000, |i| i as f32);
        let out = neg.call(&v).unwrap();
        assert!(
            device.allocated_bytes() > before,
            "buffers allocated on use"
        );
        drop(out);
        drop(v);
    }
    assert_eq!(device.allocated_bytes(), before, "all buffers released");
}

/// The simulated profiling timeline is coherent across the stack: total
/// device time covers the sum of all recorded event durations.
#[test]
fn profiling_timeline_coherent() {
    let ctx = Context::single_gpu();
    let map: Map<f32, f32> = Map::new(&ctx, "float f(float x){ return x * 2.0f; }").unwrap();
    let v = Vector::from_fn(&ctx, 50_000, |i| i as f32);
    let before = ctx.platform().device(0).now_ns();
    let out = map.call(&v).unwrap();
    let _ = out.to_vec().unwrap();
    let after = ctx.platform().device(0).now_ns();
    let kernel_ns = map.events().last_kernel_time().as_nanos() as u64;
    assert!(kernel_ns > 0);
    assert!(after - before >= kernel_ns, "timeline includes the kernel");
}

/// The paper's OpenCL-compatibility promise (§3): arbitrary parts of a
/// SkelCL program can be written in plain OpenCL. A raw kernel writes
/// directly into a SkelCL container's device buffers between two skeleton
/// calls, and the container stays coherent.
#[test]
fn raw_opencl_interop_with_containers() {
    let out = under_every_config(
        || Platform::single(DeviceSpec::tesla_t10()),
        skeleton_raw_skeleton,
    );
    for (i, &x) in out.iter().enumerate() {
        assert_eq!(x, (i as i32 + 1) * 3 + 1, "element {i}");
    }
}

fn skeleton_raw_skeleton(ctx: &Context) -> Vec<i32> {
    use skelcl_repro::skelcl::Distribution;

    let inc: Map<i32, i32> = Map::new(ctx, "int f(int x){ return x + 1; }").unwrap();
    let v = Vector::from_fn(ctx, 1000, |i| i as i32);

    // Skeleton step.
    let v = inc.call(&v).unwrap();

    // Raw OpenCL step on the same container: triple every element.
    let program = kernel::compile(
        "triple.cl",
        "__kernel void triple(__global int* data, int n) {
             int i = (int)get_global_id(0);
             if (i < n) data[i] = data[i] * 3;
         }",
    )
    .unwrap();
    for chunk in v.interop_chunks(Distribution::Block).unwrap() {
        let n = chunk.core.len();
        ctx.queue(chunk.device)
            .launch_kernel(
                &program,
                "triple",
                &[
                    KernelArg::Buffer(chunk.buffer.clone()),
                    KernelArg::Scalar(Value::I32(n as i32)),
                ],
                NdRange::linear_default(n),
                &LaunchConfig::default(),
            )
            .unwrap();
    }
    v.mark_device_modified();

    // Skeleton step again; the caller verifies on the host.
    inc.call(&v).unwrap().to_vec().unwrap()
}
