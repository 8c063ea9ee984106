//! The work-item VM through its public API: [`WorkItem`] (the one-lane
//! case of the group executor, and the reference interpreter) on small
//! kernels — results, faults, counters, and what rearming recycles.

use skelcl_kernel::compile;
use skelcl_kernel::program::Program;
use skelcl_kernel::types::{AddressSpace, ScalarType};
use skelcl_kernel::value::{Ptr, Value};
use skelcl_kernel::vm::{
    CostCounters, EntryFrame, Exit, GlobalMemory, GroupFault, HostMemory, ItemGeometry,
    MemAccessError, RuntimeError, WorkGroup, WorkItem,
};

fn program(src: &str) -> Program {
    compile("test.cl", src).unwrap_or_else(|e| panic!("compile failed:\n{e}"))
}

fn gptr(buffer: u32) -> Value {
    Value::Ptr(Ptr {
        space: AddressSpace::Global,
        buffer,
        byte_offset: 0,
    })
}

fn f32_buffer(vals: &[f32]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn read_f32s(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// Runs a 1-D kernel over `n` items sequentially (no barriers).
fn run_simple(p: &Program, kernel: &str, args: &[Value], n: u64) -> CostCounters {
    let mem = HostMemory::new();
    run_simple_mem(p, kernel, args, n, &mem)
}

fn run_simple_mem(
    p: &Program,
    kernel: &str,
    args: &[Value],
    n: u64,
    mem: &dyn GlobalMemory,
) -> CostCounters {
    let k = p.kernel(kernel).expect("kernel exists");
    let mut total = CostCounters::default();
    let mut local = vec![0u8; k.static_local_bytes as usize];
    for i in 0..n {
        let geom = ItemGeometry {
            work_dim: 1,
            global_id: [i, 0, 0],
            local_id: [i, 0, 0],
            group_id: [0, 0, 0],
            global_size: [n, 1, 1],
            local_size: [n, 1, 1],
            num_groups: [1, 1, 1],
        };
        let mut item = WorkItem::new(p, k.func, args, geom);
        for b in &k.local_arrays {
            item.bind_entry_slot(
                b.slot,
                Value::Ptr(Ptr {
                    space: AddressSpace::Local,
                    buffer: 0,
                    byte_offset: b.byte_offset as i64,
                }),
            );
        }
        let exit = item.run(mem, &mut local).expect("kernel ran");
        assert_eq!(exit, Exit::Done);
        total.merge(&item.counters);
    }
    total
}

#[test]
fn negation_map_kernel() {
    let p = program(
        "float func(float x){ return -x; }
         __kernel void map_neg(__global const float* in, __global float* out, int n){
             int i = (int)get_global_id(0);
             if (i < n) out[i] = func(in[i]);
         }",
    );
    let mut mem = HostMemory::new();
    let input = mem.add_buffer(f32_buffer(&[1.0, -2.5, 0.0, 7.0]));
    let output = mem.add_buffer(vec![0u8; 16]);
    run_simple_mem(
        &p,
        "map_neg",
        &[gptr(input), gptr(output), Value::I32(4)],
        4,
        &mem,
    );
    assert_eq!(read_f32s(&mem.bytes(output)), vec![-1.0, 2.5, 0.0, -7.0]);
}

#[test]
fn loop_and_accumulate() {
    let p = program(
        "__kernel void sum_to(__global int* out, int n){
             int s = 0;
             for (int i = 1; i <= n; ++i) s += i;
             out[get_global_id(0)] = s;
         }",
    );
    let mut mem = HostMemory::new();
    let out = mem.add_buffer(vec![0u8; 4]);
    run_simple_mem(&p, "sum_to", &[gptr(out), Value::I32(10)], 1, &mem);
    assert_eq!(
        i32::from_le_bytes(mem.bytes(out)[..4].try_into().unwrap()),
        55
    );
}

#[test]
fn break_continue_do_while() {
    let p = program(
        "__kernel void tricky(__global int* out){
             int s = 0;
             for (int i = 0; i < 100; ++i) {
                 if (i == 5) continue;
                 if (i == 8) break;
                 s += i;
             }
             int j = 0;
             do { s += 1000; j++; } while (j < 2);
             out[0] = s;
         }",
    );
    let mut mem = HostMemory::new();
    let out = mem.add_buffer(vec![0u8; 4]);
    run_simple_mem(&p, "tricky", &[gptr(out)], 1, &mem);
    // 0+1+2+3+4+6+7 = 23, plus 2000.
    assert_eq!(
        i32::from_le_bytes(mem.bytes(out)[..4].try_into().unwrap()),
        2023
    );
}

#[test]
fn mandelbrot_style_kernel() {
    let p = program(
        "__kernel void mandel(__global uchar* out, int width, float scale, int max_iter){
             int gid = (int)get_global_id(0);
             int px = gid % width;
             int py = gid / width;
             float cr = (float)px * scale - 2.0f;
             float ci = (float)py * scale - 1.0f;
             float zr = 0.0f; float zi = 0.0f;
             int it = 0;
             while (zr*zr + zi*zi <= 4.0f && it < max_iter) {
                 float t = zr*zr - zi*zi + cr;
                 zi = 2.0f*zr*zi + ci;
                 zr = t;
                 it++;
             }
             out[gid] = (uchar)(255 * it / max_iter);
         }",
    );
    let mut mem = HostMemory::new();
    let out = mem.add_buffer(vec![0u8; 16]);
    run_simple_mem(
        &p,
        "mandel",
        &[gptr(out), Value::I32(4), Value::F32(0.5), Value::I32(32)],
        16,
        &mem,
    );
    let bytes = mem.bytes(out);
    // Points inside the set reach max_iter -> 255; outside escape sooner.
    assert!(bytes.contains(&255), "some pixel in the set: {bytes:?}");
    assert!(
        bytes.iter().any(|&b| b < 255),
        "some pixel escapes: {bytes:?}"
    );
}

#[test]
fn local_memory_and_barrier_lockstep() {
    // Reverse within a work-group through local memory: requires a
    // real barrier between the write and the read phase.
    let p = program(
        "__kernel void reverse(__global const int* in, __global int* out){
             __local int tile[8];
             int lid = (int)get_local_id(0);
             int n = (int)get_local_size(0);
             tile[lid] = in[lid];
             barrier(CLK_LOCAL_MEM_FENCE);
             out[lid] = tile[n - 1 - lid];
         }",
    );
    let k = p.kernel("reverse").unwrap();
    let mut mem = HostMemory::new();
    let input = mem.add_buffer((0..8i32).flat_map(|v| v.to_le_bytes()).collect());
    let out = mem.add_buffer(vec![0u8; 32]);
    let args = [gptr(input), gptr(out)];

    // Run the 8 items of one work-group in lockstep rounds.
    let mut local = vec![0u8; k.static_local_bytes as usize];
    let mut items: Vec<WorkItem> = (0..8u64)
        .map(|i| {
            let geom = ItemGeometry {
                work_dim: 1,
                global_id: [i, 0, 0],
                local_id: [i, 0, 0],
                group_id: [0, 0, 0],
                global_size: [8, 1, 1],
                local_size: [8, 1, 1],
                num_groups: [1, 1, 1],
            };
            let mut it = WorkItem::new(&p, k.func, &args, geom);
            for b in &k.local_arrays {
                it.bind_entry_slot(
                    b.slot,
                    Value::Ptr(Ptr {
                        space: AddressSpace::Local,
                        buffer: 0,
                        byte_offset: b.byte_offset as i64,
                    }),
                );
            }
            it
        })
        .collect();

    // Round 1: everyone reaches barrier 0.
    for it in &mut items {
        assert_eq!(it.run(&mem, &mut local).unwrap(), Exit::Barrier(0));
    }
    // Round 2: everyone finishes.
    for it in &mut items {
        assert_eq!(it.run(&mem, &mut local).unwrap(), Exit::Done);
    }

    let out_vals: Vec<i32> = mem
        .bytes(out)
        .chunks_exact(4)
        .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    assert_eq!(out_vals, vec![7, 6, 5, 4, 3, 2, 1, 0]);
}

#[test]
fn out_of_bounds_global_access_traps() {
    let p = program("__kernel void oob(__global float* out){ out[100] = 1.0f; }");
    let mut mem = HostMemory::new();
    let out = mem.add_buffer(vec![0u8; 16]);
    let k = p.kernel("oob").unwrap();
    let mut item = WorkItem::new(&p, k.func, &[gptr(out)], ItemGeometry::single());
    let err = item.run(&mem, &mut []).unwrap_err();
    match err {
        RuntimeError::OutOfBounds(e) => {
            assert_eq!(e.byte_offset, 400);
            assert_eq!(e.len, 16);
        }
        other => panic!("expected OutOfBounds, got {other:?}"),
    }
}

#[test]
fn negative_index_traps() {
    let p = program("__kernel void neg(__global float* out, int i){ out[i] = 1.0f; }");
    let mut mem = HostMemory::new();
    let out = mem.add_buffer(vec![0u8; 16]);
    let k = p.kernel("neg").unwrap();
    let mut item = WorkItem::new(
        &p,
        k.func,
        &[gptr(out), Value::I32(-1)],
        ItemGeometry::single(),
    );
    assert!(matches!(
        item.run(&mem, &mut []).unwrap_err(),
        RuntimeError::OutOfBounds(_)
    ));
}

#[test]
fn division_by_zero_traps() {
    let p = program("__kernel void div(__global int* out, int d){ out[0] = 10 / d; }");
    let mut mem = HostMemory::new();
    let out = mem.add_buffer(vec![0u8; 4]);
    let k = p.kernel("div").unwrap();
    let mut item = WorkItem::new(
        &p,
        k.func,
        &[gptr(out), Value::I32(0)],
        ItemGeometry::single(),
    );
    assert_eq!(
        item.run(&mem, &mut []).unwrap_err(),
        RuntimeError::DivisionByZero
    );
}

#[test]
fn uninitialized_pointer_traps() {
    let p = program("__kernel void bad(__global float* out){ float* p; out[0] = p[0]; }");
    let mut mem = HostMemory::new();
    let out = mem.add_buffer(vec![0u8; 4]);
    let k = p.kernel("bad").unwrap();
    let mut item = WorkItem::new(&p, k.func, &[gptr(out)], ItemGeometry::single());
    assert_eq!(
        item.run(&mem, &mut []).unwrap_err(),
        RuntimeError::UninitializedPointer
    );
}

#[test]
fn infinite_loop_hits_op_budget() {
    let p = program("__kernel void spin(__global int* out){ while (true) { } out[0] = 1; }");
    let mut mem = HostMemory::new();
    let out = mem.add_buffer(vec![0u8; 4]);
    let k = p.kernel("spin").unwrap();
    let mut item = WorkItem::new(&p, k.func, &[gptr(out)], ItemGeometry::single());
    item.set_ops_budget(10_000);
    assert_eq!(
        item.run(&mem, &mut []).unwrap_err(),
        RuntimeError::OpLimitExceeded
    );
}

#[test]
fn trap_builtin_aborts() {
    let p = program("__kernel void t(__global int* out){ __skelcl_trap(42); out[0] = 1; }");
    let mut mem = HostMemory::new();
    let out = mem.add_buffer(vec![0u8; 4]);
    let k = p.kernel("t").unwrap();
    let mut item = WorkItem::new(&p, k.func, &[gptr(out)], ItemGeometry::single());
    assert_eq!(
        item.run(&mem, &mut []).unwrap_err(),
        RuntimeError::Trap { code: 42 }
    );
}

#[test]
fn missing_return_traps_at_runtime() {
    let p = program(
        "int f(int x){ if (x > 0) return 1; }
         __kernel void k(__global int* out){ out[0] = f(-1); }",
    );
    let mut mem = HostMemory::new();
    let out = mem.add_buffer(vec![0u8; 4]);
    let k = p.kernel("k").unwrap();
    let mut item = WorkItem::new(&p, k.func, &[gptr(out)], ItemGeometry::single());
    assert_eq!(
        item.run(&mem, &mut []).unwrap_err(),
        RuntimeError::MissingReturn {
            function: "f".into()
        }
    );
}

#[test]
fn counters_track_memory_traffic() {
    let p = program(
        "__kernel void copy(__global const float* in, __global float* out){
             int i = (int)get_global_id(0);
             out[i] = in[i];
         }",
    );
    let mut mem = HostMemory::new();
    let a = mem.add_buffer(f32_buffer(&[1.0; 10]));
    let b = mem.add_buffer(vec![0u8; 40]);
    let c = run_simple_mem(&p, "copy", &[gptr(a), gptr(b)], 10, &mem);
    assert_eq!(c.global_loads, 10);
    assert_eq!(c.global_stores, 10);
    assert_eq!(c.global_bytes, 80);
    assert!(c.ops > 0);
    assert_eq!(c.barriers, 0);
}

#[test]
fn work_item_queries_2d() {
    let p = program(
        "__kernel void geom(__global ulong* out){
             out[0] = get_global_id(0);
             out[1] = get_global_id(1);
             out[2] = get_global_size(1);
             out[3] = get_num_groups(0);
             out[4] = get_global_id(7);   // out of range -> 0
             out[5] = get_global_size(7); // out of range -> 1
             out[6] = (ulong)get_work_dim();
         }",
    );
    let mut mem = HostMemory::new();
    let out = mem.add_buffer(vec![0u8; 7 * 8]);
    let k = p.kernel("geom").unwrap();
    let geom = ItemGeometry {
        work_dim: 2,
        global_id: [3, 5, 0],
        local_id: [3, 1, 0],
        group_id: [0, 1, 0],
        global_size: [8, 6, 1],
        local_size: [8, 4, 1],
        num_groups: [1, 2, 1],
    };
    let mut item = WorkItem::new(&p, k.func, &[gptr(out)], geom);
    item.run(&mem, &mut []).unwrap();
    let vals: Vec<u64> = mem
        .bytes(out)
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    assert_eq!(vals, vec![3, 5, 6, 1, 0, 1, 2]);
}

#[test]
fn pointer_arithmetic_row_access() {
    let p = program(
        "float row_sum(const float* row, int d){
             float s = 0.0f;
             for (int k = 0; k < d; ++k) s += row[k];
             return s;
         }
         __kernel void sums(__global const float* m, __global float* out, int d){
             int i = (int)get_global_id(0);
             out[i] = row_sum(&m[i * d], d);
         }",
    );
    let mut mem = HostMemory::new();
    let m = mem.add_buffer(f32_buffer(&[1.0, 2.0, 3.0, 10.0, 20.0, 30.0]));
    let out = mem.add_buffer(vec![0u8; 8]);
    run_simple_mem(&p, "sums", &[gptr(m), gptr(out), Value::I32(3)], 2, &mem);
    assert_eq!(read_f32s(&mem.bytes(out)), vec![6.0, 60.0]);
}

#[test]
fn optimized_and_reference_interpreters_agree() {
    // A kernel exercising calls, loops, conversions and memory traffic;
    // the optimized loop must match the reference loop bit-for-bit in
    // output and exactly in counters.
    let p = program(
        "float poly(float x, int k){
             float acc = 0.0f;
             for (int i = 0; i < k; ++i) acc = acc * x + (float)i;
             return acc;
         }
         __kernel void stress(__global const float* in, __global float* out, int n){
             int i = (int)get_global_id(0);
             if (i < n) out[i] = poly(in[i], i + 3);
         }",
    );
    let k = p.kernel("stress").unwrap();
    let input = f32_buffer(&[0.5, -1.25, 3.0, 0.0, 9.5, -0.125]);
    let n = 6u64;

    let run_with = |reference: bool| -> (Vec<u8>, CostCounters) {
        let mut mem = HostMemory::new();
        let a = mem.add_buffer(input.clone());
        let b = mem.add_buffer(vec![0u8; input.len()]);
        let args = [gptr(a), gptr(b), Value::I32(n as i32)];
        let mut total = CostCounters::default();
        // One item reset per element also exercises WorkItem reuse.
        let mut item = None;
        for i in 0..n {
            let geom = ItemGeometry {
                work_dim: 1,
                global_id: [i, 0, 0],
                local_id: [i, 0, 0],
                group_id: [0, 0, 0],
                global_size: [n, 1, 1],
                local_size: [n, 1, 1],
                num_groups: [1, 1, 1],
            };
            let it = match item.as_mut() {
                None => item.insert(WorkItem::new(&p, k.func, &args, geom)),
                Some(it) => {
                    it.reset(&p, k.func, &args, geom);
                    it
                }
            };
            let exit = if reference {
                it.run_reference(&mem, &mut []).expect("kernel ran")
            } else {
                it.run(&mem, &mut []).expect("kernel ran")
            };
            assert_eq!(exit, Exit::Done);
            total.merge(&it.counters);
        }
        (mem.bytes(b), total)
    };

    let (ref_bytes, ref_counters) = run_with(true);
    let (fast_bytes, fast_counters) = run_with(false);
    assert_eq!(ref_bytes, fast_bytes, "outputs must be bit-identical");
    assert_eq!(ref_counters, fast_counters, "counters must not drift");
}

#[test]
fn reset_recycles_across_programs() {
    let p1 = program("__kernel void a(__global int* out){ out[0] = 1; }");
    let p2 = program("__kernel void b(__global int* out){ out[0] = 2; }");
    let mut mem = HostMemory::new();
    let out = mem.add_buffer(vec![0u8; 4]);
    let k1 = p1.kernel("a").unwrap();
    let k2 = p2.kernel("b").unwrap();
    let mut item = WorkItem::new(&p1, k1.func, &[gptr(out)], ItemGeometry::single());
    assert_eq!(item.run(&mem, &mut []).unwrap(), Exit::Done);
    // Reset onto a different program must rebind the handle.
    item.reset(&p2, k2.func, &[gptr(out)], ItemGeometry::single());
    assert_eq!(item.run(&mem, &mut []).unwrap(), Exit::Done);
    assert_eq!(
        i32::from_le_bytes(mem.bytes(out)[..4].try_into().unwrap()),
        2
    );
    // Counters reflect only the latest run after a reset.
    assert!(item.counters.ops > 0 && item.counters.ops < 10);
}

/// A [`GlobalMemory`] whose `load` records the program's handle count,
/// i.e. samples it while a kernel is mid-execution.
struct HandleProbe<'a> {
    mem: HostMemory,
    program: &'a Program,
    seen: std::cell::RefCell<Vec<usize>>,
}

impl GlobalMemory for HandleProbe<'_> {
    fn load(&self, buffer: u32, off: i64, ty: ScalarType) -> Result<Value, MemAccessError> {
        self.seen.borrow_mut().push(self.program.handle_count());
        self.mem.load(buffer, off, ty)
    }

    fn store(&self, buffer: u32, off: i64, ty: ScalarType, v: Value) -> Result<(), MemAccessError> {
        self.mem.store(buffer, off, ty, v)
    }
}

#[test]
fn running_a_group_holds_no_extra_program_handle() {
    // The handle count is shared by every host thread executing the
    // program: a clone per group, per strip or per barrier round would
    // serialise them. A group executor armed and run to completion —
    // 100 lanes, so two strips, the second a short one — must never show
    // more handles than were alive before, with and without a barrier
    // (which re-enters `run` once per round), and neither may the
    // reference interpreter on its items.
    let p = program(
        "__kernel void copy(__global const int* in, __global int* out){
             int i = (int)get_global_id(0);
             out[i] = in[i] + in[99 - i];
         }
         __kernel void swap(__global const int* in, __global int* out){
             __local int tile[100];
             int lid = (int)get_local_id(0);
             tile[lid] = in[lid];
             barrier(CLK_LOCAL_MEM_FENCE);
             out[lid] = tile[99 - lid] + in[lid];
         }",
    );
    let geometry = ItemGeometry {
        global_size: [100, 1, 1],
        local_size: [100, 1, 1],
        ..ItemGeometry::single()
    };
    for (kernel, rounds) in [("copy", 1), ("swap", 2)] {
        for reference in [false, true] {
            let k = p.kernel(kernel).unwrap();
            let mut mem = HostMemory::new();
            let input = mem.add_buffer((0..100i32).flat_map(|v| v.to_le_bytes()).collect());
            let out = mem.add_buffer(vec![0u8; 400]);
            let probe = HandleProbe {
                mem,
                program: &p,
                seen: Default::default(),
            };
            let entry = EntryFrame::new(&p, k, &[gptr(input), gptr(out)]);
            let mut local = vec![0u8; k.static_local_bytes as usize];
            let mut group = WorkGroup::default();
            let mut items: Vec<WorkItem> = Vec::new();
            if reference {
                items.extend((0..100).map(|_| WorkItem::idle(&p)));
            }
            // `p`, the frame, and one per reference item: a group holds none.
            let before = p.handle_count();
            assert_eq!(before, 2 + items.len());

            group.arm(geometry, u64::MAX);
            for (i, it) in items.iter_mut().enumerate() {
                let i = i as u64;
                let geometry = ItemGeometry {
                    global_id: [i, 0, 0],
                    local_id: [i, 0, 0],
                    ..geometry
                };
                it.arm(&entry, geometry, u64::MAX);
            }
            for round in 1..=rounds {
                let expect = if round == rounds {
                    Exit::Done
                } else {
                    Exit::Barrier(0)
                };
                if reference {
                    for it in &mut items {
                        assert_eq!(it.run_reference(&probe, &mut local).unwrap(), expect);
                    }
                } else {
                    assert_eq!(group.run(&entry, &probe, &mut local).unwrap(), expect);
                }
            }

            let seen = probe.seen.into_inner();
            assert_eq!(seen.len(), 200, "two global loads per item");
            assert!(
                seen.iter().all(|&n| n == before),
                "{kernel} (reference: {reference}): {before} handles before the \
                 run, {seen:?} during it"
            );
            assert_eq!(p.handle_count(), before, "arming rebinds no handle");
            let sums: Vec<i32> = probe
                .mem
                .bytes(out)
                .chunks_exact(4)
                .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
                .collect();
            assert_eq!(sums, vec![99; 100]);
        }
    }
}

#[test]
fn arm_equals_reset_plus_budget_plus_local_bindings() {
    let p = program(
        "__kernel void reverse(__global const int* in, __global int* out, int bias){
             __local int tile[8];
             int lid = (int)get_local_id(0);
             tile[lid] = in[lid] + bias;
             barrier(CLK_LOCAL_MEM_FENCE);
             out[lid] = tile[7 - lid];
         }",
    );
    let k = p.kernel("reverse").unwrap();
    let run_group = |use_arm: bool| -> (Vec<u8>, CostCounters) {
        let mut mem = HostMemory::new();
        let input = mem.add_buffer((0..8i32).flat_map(|v| v.to_le_bytes()).collect());
        let out = mem.add_buffer(vec![0u8; 32]);
        let args = [gptr(input), gptr(out), Value::I32(5)];
        let entry = EntryFrame::new(&p, k, &args);
        let mut local = vec![0u8; k.static_local_bytes as usize];
        let mut items: Vec<WorkItem> = (0..8u64)
            .map(|i| {
                let geom = ItemGeometry {
                    global_id: [i, 0, 0],
                    local_id: [i, 0, 0],
                    global_size: [8, 1, 1],
                    local_size: [8, 1, 1],
                    ..ItemGeometry::single()
                };
                let mut it = WorkItem::idle(&p);
                if use_arm {
                    it.arm(&entry, geom, 1_000);
                } else {
                    it.reset(&p, k.func, &args, geom);
                    it.set_ops_budget(1_000);
                    for b in &k.local_arrays {
                        it.bind_entry_slot(
                            b.slot,
                            Value::Ptr(Ptr {
                                space: AddressSpace::Local,
                                buffer: 0,
                                byte_offset: b.byte_offset as i64,
                            }),
                        );
                    }
                }
                it
            })
            .collect();
        for expect in [Exit::Barrier(0), Exit::Done] {
            for it in &mut items {
                assert_eq!(it.run(&mem, &mut local).unwrap(), expect);
            }
        }
        let mut total = CostCounters::default();
        items.iter().for_each(|it| total.merge(&it.counters));
        (mem.bytes(out), total)
    };
    let (armed, armed_counters) = run_group(true);
    assert_eq!((armed.clone(), armed_counters), run_group(false));
    let vals: Vec<i32> = armed
        .chunks_exact(4)
        .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    assert_eq!(vals, vec![12, 11, 10, 9, 8, 7, 6, 5]);
}

#[test]
fn idle_item_is_finished_until_armed() {
    let p = program("__kernel void one(__global int* out){ out[0] = 1; }");
    let mut mem = HostMemory::new();
    let out = mem.add_buffer(vec![0u8; 4]);
    let mut item = WorkItem::idle(&p);
    assert!(item.is_finished());
    let entry = EntryFrame::new(&p, p.kernel("one").unwrap(), &[gptr(out)]);
    item.arm(&entry, ItemGeometry::single(), 1_000);
    assert!(!item.is_finished());
    assert_eq!(item.run(&mem, &mut []).unwrap(), Exit::Done);
    // The armed budget is live: one op cannot store and return.
    item.arm(&entry, ItemGeometry::single(), 1);
    assert_eq!(
        item.run(&mem, &mut []).unwrap_err(),
        RuntimeError::OpLimitExceeded
    );
}

#[test]
fn run_simple_counts_total_ops() {
    let p = program("__kernel void nop(__global int* out){ }");
    let mut mem = HostMemory::new();
    let out = mem.add_buffer(vec![0u8; 4]);
    let c = run_simple_mem(&p, "nop", &[gptr(out)], 100, &mem);
    assert_eq!(c.ops, 100); // one ReturnVoid per item
    let _ = run_simple(&p, "nop", &[gptr(out)], 0);
}

/// Bytecode that breaks the type rule — something only hand-written
/// bytecode can do: a local that holds an `int` on odd lanes and a `float`
/// on even ones where the two paths join and it is read (`y = x + x`), and
/// a call that passes a `float` to an `int` parameter. No head may pick a
/// loop for such operands: a group and a single item running either return
/// a typed error at the kernel's first op, never a panic.
#[test]
fn lanes_of_mixed_types_fault_with_a_typed_error() {
    use skelcl_kernel::builtins::Builtin;
    use skelcl_kernel::hir::BinOp;
    use skelcl_kernel::ir::{FuncCode, Op};
    use skelcl_kernel::program::KernelInfo;

    let func = |name: &str, params: usize, code| FuncCode {
        name: name.into(),
        param_count: params as u16,
        local_init: vec![Value::I32(0); 3],
        code,
        returns_void: true,
    };
    // Locals: 0 gid, 1 x, 2 y.
    let mixed = vec![
        Op::Const(Value::I32(0)),
        Op::WorkItem(Builtin::GetGlobalId),
        Op::Convert(ScalarType::Int),
        Op::StoreLocal(0),
        // x = gid % 2 ? 3 : 1.5f
        Op::LoadLocal(0),
        Op::Const(Value::I32(2)),
        Op::Bin(BinOp::Rem),
        Op::JumpIfFalse(11),
        Op::Const(Value::I32(3)),
        Op::StoreLocal(1),
        Op::Jump(13),
        Op::Const(Value::F32(1.5)),
        Op::StoreLocal(1),
        // y = x + x
        Op::LoadLocal(1),
        Op::LoadLocal(1),
        Op::Bin(BinOp::Add),
        Op::StoreLocal(2),
        Op::ReturnVoid,
    ];
    let call = vec![
        Op::Const(Value::F32(1.5)),
        Op::Call { func: 1, argc: 1 },
        Op::ReturnVoid,
    ];
    let defects = [
        (mixed, "pc 13: local 1 read where paths left two types"),
        (call, "pc 1: a call of f1 whose argument 0 is no int"),
    ];
    let geometry = ItemGeometry {
        local_size: [10, 1, 1],
        global_size: [10, 1, 1],
        ..ItemGeometry::single()
    };
    for (code, reason) in defects {
        let program = Program::from_parts(
            vec![func("k", 0, code), func("callee", 1, vec![Op::ReturnVoid])],
            vec![KernelInfo {
                name: "k".into(),
                func: 0,
                params: Vec::new(),
                local_arrays: Vec::new(),
                static_local_bytes: 0,
                barrier_count: 0,
            }],
            "mixed.cl",
        );
        let memory = HostMemory::new();
        let typed_error = |error: RuntimeError| match error {
            RuntimeError::Internal(e) => assert!(e.contains(reason), "{e:?} should say {reason:?}"),
            other => panic!("{reason}: {other:?}"),
        };
        let entry = EntryFrame::new(&program, program.kernel("k").unwrap(), &[]);
        let mut group = WorkGroup::default();
        group.arm(geometry, 1_000);
        match group.run(&entry, &memory, &mut []) {
            Err(GroupFault::Lane { lane: 0, error }) => typed_error(error),
            other => panic!("{reason}: the group returned {other:?}"),
        }
        assert_eq!(group.stats.counters.ops, 10, "one op charged per lane");
        let mut item = WorkItem::new(&program, 0, &[], ItemGeometry::single());
        typed_error(item.run(&memory, &mut []).unwrap_err());
    }
}
