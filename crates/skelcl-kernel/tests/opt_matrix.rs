//! Differential testing of the MIR optimization matrix: every kernel is
//! compiled under every `SKELCL_KERNEL_OPT` configuration — no passes,
//! each pass alone, and all passes together — executed over a multi-item
//! launch, and the output buffers must be **bit-identical** to the
//! pass-free program ([`OptConfig::none`]) run through the reference
//! interpreter ([`WorkItem::run_reference`]).
//!
//! Any divergence is a miscompile in a pass or in the register lowering.

use skelcl_kernel::program::Program;
use skelcl_kernel::types::AddressSpace;
use skelcl_kernel::value::{Ptr, Value};
use skelcl_kernel::vm::{HostMemory, ItemGeometry, WorkItem};
use skelcl_kernel::{compile_with_config, OptConfig};

const ITEMS: u64 = 8;

/// The full `SKELCL_KERNEL_OPT` test matrix, as spec strings.
const MATRIX: &[&str] = &["none", "const-prop", "cse", "dce", "licm", "unroll", "1"];

fn geometry(gid: u64) -> ItemGeometry {
    ItemGeometry {
        work_dim: 1,
        global_id: [gid, 0, 0],
        local_id: [gid, 0, 0],
        group_id: [0, 0, 0],
        global_size: [ITEMS, 1, 1],
        local_size: [ITEMS, 1, 1],
        num_groups: [1, 1, 1],
    }
}

/// Runs `kernel` over all items, one buffer per pointer argument, and
/// returns the final contents of every buffer.
fn launch(
    program: &Program,
    kernel: &str,
    buffers: &[Vec<u8>],
    scalars: &[Value],
    reference: bool,
) -> Vec<Vec<u8>> {
    let k = program.kernel(kernel).expect("kernel exists");
    let mut mem = HostMemory::new();
    let mut args = Vec::new();
    for b in buffers {
        let id = mem.add_buffer(b.clone());
        args.push(Value::Ptr(Ptr {
            space: AddressSpace::Global,
            buffer: id,
            byte_offset: 0,
        }));
    }
    args.extend_from_slice(scalars);
    for gid in 0..ITEMS {
        let mut item = WorkItem::new(program, k.func, &args, geometry(gid));
        let exit = if reference {
            item.run_reference(&mem, &mut [])
        } else {
            item.run(&mem, &mut [])
        };
        exit.unwrap_or_else(|e| panic!("{kernel} item {gid} failed: {e}"));
    }
    (0..buffers.len()).map(|i| mem.bytes(i as u32)).collect()
}

/// Compiles `src` under every configuration and checks each run is
/// bit-identical to the pass-free + reference-interpreter oracle.
fn check_matrix(name: &str, src: &str, kernel: &str, buffers: &[Vec<u8>], scalars: &[Value]) {
    let none = compile_with_config(name, src, &OptConfig::none())
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let oracle = launch(&none, kernel, buffers, scalars, true);
    for spec in MATRIX {
        let (cfg, rejected) = OptConfig::parse(spec);
        assert!(rejected.is_empty(), "{spec}: {rejected:?}");
        let p = compile_with_config(name, src, &cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        let got = launch(&p, kernel, buffers, scalars, false);
        assert_eq!(
            got,
            oracle,
            "{name} with SKELCL_KERNEL_OPT={spec} diverged from the reference oracle:\n{}",
            p.disassemble()
        );
    }
}

fn f32s(vals: impl IntoIterator<Item = f32>) -> Vec<u8> {
    vals.into_iter().flat_map(f32::to_le_bytes).collect()
}

fn i32s(vals: impl IntoIterator<Item = i32>) -> Vec<u8> {
    vals.into_iter().flat_map(i32::to_le_bytes).collect()
}

#[test]
fn strided_reduce_loop() {
    let n = 64usize;
    let input = f32s((0..n).map(|i| (i as f32) * 0.75 - 3.0));
    let out = f32s((0..ITEMS as usize).map(|_| 0.0));
    check_matrix(
        "reduce.cl",
        "__kernel void reduce(__global const float* in, __global float* out, int n) {
            int gid = (int)get_global_id(0);
            int gsize = (int)get_global_size(0);
            float acc = 0.0f;
            for (int i = gid; i < n; i += gsize) acc += in[i];
            out[gid] = acc;
        }",
        "reduce",
        &[input, out],
        &[Value::I32(n as i32)],
    );
}

#[test]
fn clamped_blur_stencil() {
    let input = f32s((0..ITEMS as usize).map(|i| (i * i) as f32));
    let out = f32s((0..ITEMS as usize).map(|_| 0.0));
    check_matrix(
        "blur.cl",
        "__kernel void blur(__global const float* in, __global float* out, int n) {
            int gid = (int)get_global_id(0);
            float acc = 0.0f;
            for (int k = -1; k <= 1; ++k) {
                int idx = gid + k;
                if (idx < 0) idx = 0;
                if (idx >= n) idx = n - 1;
                acc += in[idx];
            }
            out[gid] = acc / 3.0f;
        }",
        "blur",
        &[input, out],
        &[Value::I32(ITEMS as i32)],
    );
}

#[test]
fn nan_ternary_and_builtins() {
    let out = i32s((0..ITEMS as usize).map(|_| -1));
    check_matrix(
        "nan.cl",
        "float nan_helper() { return sqrt(-1.0f); }
        __kernel void t(__global int* out) {
            int gid = (int)get_global_id(0);
            float n = nan_helper();
            float v = fabs((float)gid - 3.5f);
            out[gid] = (n == n) ? 1 : (int)floor(v * 2.0f);
        }",
        "t",
        &[out],
        &[],
    );
}

#[test]
fn constant_trip_nested_loops_unroll() {
    let out = i32s((0..ITEMS as usize).map(|_| 0));
    check_matrix(
        "unroll.cl",
        "int cell(int r, int c) { return r * 3 + c; }
        __kernel void t(__global int* out) {
            int gid = (int)get_global_id(0);
            int sum = 0;
            for (int i = 0; i < 3; ++i)
                for (int j = 0; j < 3; ++j)
                    sum += cell(i, j) * gid;
            out[gid] = sum;
        }",
        "t",
        &[out],
        &[],
    );
}

#[test]
fn runtime_division_and_mixed_signedness() {
    let out = i32s((0..ITEMS as usize).map(|_| 0));
    check_matrix(
        "divmix.cl",
        "__kernel void t(__global int* out, int d) {
            int gid = (int)get_global_id(0);
            int q = (gid * 100 - 37) / d;
            int r = (gid + 11) % (d + 2);
            unsigned int u = (unsigned int)(gid - 4);
            out[gid] = q + r + (int)(u >> 29);
        }",
        "t",
        &[out],
        &[Value::I32(7)],
    );
}

#[test]
fn loop_invariant_address_math() {
    let rows = ITEMS as usize;
    let cols = 6usize;
    let input = f32s((0..rows * cols).map(|i| (i as f32).sin()));
    let out = f32s((0..rows).map(|_| 0.0));
    check_matrix(
        "licm.cl",
        "__kernel void rowsum(__global const float* m, __global float* out, int cols) {
            int row = (int)get_global_id(0);
            float acc = 0.0f;
            for (int c = 0; c < cols; ++c) acc += m[row * cols + c];
            out[row] = acc * 0.5f + 1.0f;
        }",
        "rowsum",
        &[input, out],
        &[Value::I32(cols as i32)],
    );
}

#[test]
fn load_after_store_sees_the_store() {
    // Same pointer loaded on both sides of a store in one block: a pass
    // that merges the two loads returns the stale value.
    let buf = i32s((0..ITEMS as i32).map(|i| i * 3 - 5));
    check_matrix(
        "raw.cl",
        "__kernel void t(__global int* buf) {
            int gid = (int)get_global_id(0);
            int a = buf[gid];
            buf[gid] = a + 1;
            int b = buf[gid];
            buf[gid] = a * 10 + b;
        }",
        "t",
        &[buf],
        &[],
    );
}
