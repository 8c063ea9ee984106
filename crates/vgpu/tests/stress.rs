//! Stress and concurrency tests of the execution engine: many work-groups
//! scheduled over host threads must behave deterministically for disjoint
//! writes, and the simulated timeline must stay consistent under load.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use skelcl_kernel::compile;
use skelcl_kernel::value::Value;
use vgpu::{DeviceSpec, EventStatus, KernelArg, LaunchConfig, NdRange, Platform};

#[test]
fn thousands_of_groups_write_disjoint_cells_deterministically() {
    let program = compile(
        "fill.cl",
        "__kernel void fill(__global int* out, int n) {
             int i = (int)get_global_id(0);
             if (i < n) out[i] = i * 7 - 3;
         }",
    )
    .unwrap();
    let platform = Platform::single(DeviceSpec::tesla_t10());
    let queue = platform.queue(0);
    let n = 256 * 1024; // 1024 work-groups
    let buf = queue.create_buffer(n * 4).unwrap();
    queue
        .launch_kernel(
            &program,
            "fill",
            &[
                KernelArg::Buffer(buf.clone()),
                KernelArg::Scalar(Value::I32(n as i32)),
            ],
            NdRange::linear(n, 256),
            &LaunchConfig::default(),
        )
        .unwrap();
    let mut bytes = vec![0u8; n * 4];
    queue.enqueue_read(&buf, 0, &mut bytes).unwrap();
    for (i, c) in bytes.chunks_exact(4).enumerate() {
        assert_eq!(
            i32::from_le_bytes(c.try_into().unwrap()),
            i as i32 * 7 - 3,
            "cell {i}"
        );
    }
}

#[test]
fn repeated_launches_give_identical_counters() {
    // The cost counters must be deterministic regardless of host-thread
    // scheduling (they are per-item and summed).
    let program = compile(
        "work.cl",
        "__kernel void work(__global float* data, int n) {
             int i = (int)get_global_id(0);
             if (i < n) {
                 float acc = (float)i;
                 for (int k = 0; k < 50; ++k) acc = acc * 0.5f + 1.0f;
                 data[i] = acc;
             }
         }",
    )
    .unwrap();
    // Both launches go to the *same* device: `host_threads` is honoured per
    // launch, not just by whichever launch happened to create the pool.
    let platform = Platform::single(DeviceSpec::tesla_t10());
    let queue = platform.queue(0);
    let run = |threads: usize| {
        let buf = queue.create_buffer(10_000 * 4).unwrap();
        let config = LaunchConfig {
            host_threads: Some(threads),
            ..Default::default()
        };
        let ev = queue
            .launch_kernel(
                &program,
                "work",
                &[
                    KernelArg::Buffer(buf.clone()),
                    KernelArg::Scalar(Value::I32(10_000)),
                ],
                NdRange::linear_default(10_000),
                &config,
            )
            .unwrap();
        let mut bytes = vec![0u8; 10_000 * 4];
        queue.enqueue_read(&buf, 0, &mut bytes).unwrap();
        let stats = platform.device(0).exec_stats();
        (ev.counters().unwrap(), bytes, stats)
    };
    let (single, single_bytes, single_stats) = run(1);
    let (parallel, parallel_bytes, parallel_stats) = run(8);
    assert_eq!(single, parallel, "counters independent of host parallelism");
    assert_eq!(single_bytes, parallel_bytes, "and so are the buffers");
    assert!(single.ops > 10_000 * 50);

    // 40 work-groups: the first launch woke one worker, the second as many
    // as the pool (one thread per CPU) has, up to the 8 it asked for.
    let pool_threads = parallel_stats.pool_threads;
    assert_eq!(single_stats.pool_threads, pool_threads);
    assert_eq!(single_stats.last_launch_workers, 1);
    assert_eq!(single_stats.last_steal_min_groups, 40);
    assert_eq!(parallel_stats.last_launch_workers, pool_threads.min(8));
    assert_eq!(parallel_stats.pool_groups_executed, 80);
}

#[test]
fn concurrent_queues_on_separate_devices() {
    // Four devices driven by four host threads concurrently; each timeline
    // advances independently and all results are correct.
    let program = compile(
        "id.cl",
        "__kernel void ident(__global int* out, int base, int n) {
             int i = (int)get_global_id(0);
             if (i < n) out[i] = base + i;
         }",
    )
    .unwrap();
    let platform = Platform::new(4, DeviceSpec::tesla_t10());
    std::thread::scope(|scope| {
        for d in 0..4usize {
            let platform = &platform;
            let program = &program;
            scope.spawn(move || {
                let queue = platform.queue(d);
                let n = 5000;
                let buf = queue.create_buffer(n * 4).unwrap();
                for _ in 0..3 {
                    queue
                        .launch_kernel(
                            program,
                            "ident",
                            &[
                                KernelArg::Buffer(buf.clone()),
                                KernelArg::Scalar(Value::I32((d * 1000) as i32)),
                                KernelArg::Scalar(Value::I32(n as i32)),
                            ],
                            NdRange::linear_default(n),
                            &LaunchConfig::default(),
                        )
                        .unwrap();
                }
                let mut bytes = vec![0u8; n * 4];
                queue.enqueue_read(&buf, 0, &mut bytes).unwrap();
                for (i, c) in bytes.chunks_exact(4).enumerate() {
                    assert_eq!(
                        i32::from_le_bytes(c.try_into().unwrap()),
                        (d * 1000 + i) as i32
                    );
                }
            });
        }
    });
    for d in 0..4 {
        assert!(
            platform.device(d).now_ns() > 0,
            "device {d} timeline advanced"
        );
    }
}

#[test]
fn many_barriers_in_sequence() {
    // 64 successive barriers with cross-lane communication each round: a
    // torture test for the lockstep scheduler.
    let program = compile(
        "rotate.cl",
        "__kernel void rotate_many(__global int* out) {
             __local int ring[64];
             int lid = (int)get_local_id(0);
             ring[lid] = lid;
             barrier(CLK_LOCAL_MEM_FENCE);
             for (int round = 0; round < 64; ++round) {
                 int next = ring[(lid + 1) % 64];
                 barrier(CLK_LOCAL_MEM_FENCE);
                 ring[lid] = next;
                 barrier(CLK_LOCAL_MEM_FENCE);
             }
             out[lid] = ring[lid];
         }",
    )
    .unwrap();
    let platform = Platform::single(DeviceSpec::tesla_t10());
    let queue = platform.queue(0);
    let buf = queue.create_buffer(64 * 4).unwrap();
    let ev = queue
        .launch_kernel(
            &program,
            "rotate_many",
            &[KernelArg::Buffer(buf.clone())],
            NdRange::linear(64, 64),
            &LaunchConfig::default(),
        )
        .unwrap();
    // After 64 rotations by one, every lane is back at its own value.
    let mut bytes = vec![0u8; 64 * 4];
    queue.enqueue_read(&buf, 0, &mut bytes).unwrap();
    for (i, c) in bytes.chunks_exact(4).enumerate() {
        assert_eq!(i32::from_le_bytes(c.try_into().unwrap()), i as i32);
    }
    assert_eq!(ev.counters().unwrap().barriers, 64 * (1 + 128) as u64);
}

#[test]
fn memory_churn_many_allocations() {
    let platform = Platform::single(DeviceSpec::tesla_t10());
    let queue = platform.queue(0);
    for round in 0..100 {
        let buf = queue.create_buffer(1 << 16).unwrap();
        queue
            .enqueue_write(&buf, 0, &vec![round as u8; 1 << 16])
            .unwrap();
        let mut back = vec![0u8; 1 << 16];
        queue.enqueue_read(&buf, 0, &mut back).unwrap();
        assert!(back.iter().all(|&b| b == round as u8));
    }
    assert_eq!(
        platform.device(0).allocated_bytes(),
        0,
        "everything released"
    );
}

#[test]
fn event_state_hammered_from_many_threads() {
    // Satellite bugfix test: the Condvar-backed Event must be safe to
    // observe (status/wait/profiling accessors/callbacks) from many
    // threads while the queue worker completes it — and every wait()
    // must return only after the event is final.
    let program = compile(
        "spin.cl",
        "__kernel void spin(__global int* out, int n) {
             int i = (int)get_global_id(0);
             if (i < n) {
                 int acc = i;
                 for (int k = 0; k < 200; ++k) acc = acc * 3 + 1;
                 out[i] = acc;
             }
         }",
    )
    .unwrap();
    let platform = Platform::single(DeviceSpec::tesla_t10());
    let queue = platform.queue(0);
    let n = 64 * 1024;
    let buf = queue.create_buffer(n * 4).unwrap();
    for _round in 0..10 {
        let completions = Arc::new(AtomicUsize::new(0));
        let ev = queue
            .launch_kernel_async(
                &program,
                "spin",
                &[
                    KernelArg::Buffer(buf.clone()),
                    KernelArg::Scalar(Value::I32(n as i32)),
                ],
                NdRange::linear_default(n),
                &LaunchConfig::default(),
                &[],
            )
            .unwrap();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let ev = ev.clone();
                let completions = completions.clone();
                scope.spawn(move || {
                    // Callbacks may land before or after registration; both
                    // must run exactly once.
                    let c = completions.clone();
                    ev.on_complete(move |e| {
                        assert!(e.error().is_none());
                        c.fetch_add(1, Ordering::SeqCst);
                    });
                    // Polling must only ever see a valid lifecycle state.
                    for _ in 0..100 {
                        match ev.status() {
                            EventStatus::Queued | EventStatus::Running => {}
                            EventStatus::Complete => break,
                            EventStatus::Failed => panic!("launch failed"),
                        }
                        std::hint::spin_loop();
                    }
                    ev.wait().unwrap();
                    // After wait: final state, final timestamps, callbacks
                    // already ran.
                    assert_eq!(ev.status(), EventStatus::Complete);
                    assert!(ev.ended_ns() > ev.started_ns());
                    assert!(ev.counters().is_some());
                    assert!(completions.load(Ordering::SeqCst) >= 1);
                });
            }
        });
        assert_eq!(completions.load(Ordering::SeqCst), 8, "every callback ran");
    }
}

#[test]
fn finish_drains_all_pending_commands() {
    // finish() must act as a barrier over everything enqueued so far: all
    // prior events observably complete, on every queue.
    let platform = Platform::new(4, DeviceSpec::tesla_t10());
    let mut events = Vec::new();
    let queues: Vec<_> = (0..4).map(|d| platform.queue(d)).collect();
    for (d, queue) in queues.iter().enumerate() {
        let buf = queue.create_buffer(1 << 12).unwrap();
        for round in 0..16 {
            let ev = queue
                .enqueue_write_async(&buf, 0, vec![(d + round) as u8; 1 << 12], &[])
                .unwrap();
            events.push(ev);
            let read = queue.enqueue_read_async(&buf, 0, 1 << 12, &[]).unwrap();
            events.push(read.event().clone());
        }
        events.push(queue.enqueue_barrier(&[]).unwrap());
    }
    for queue in &queues {
        queue.finish().unwrap();
    }
    for (i, ev) in events.iter().enumerate() {
        assert_eq!(ev.status(), EventStatus::Complete, "event {i} lost");
    }
}

#[test]
fn cross_queue_wait_lists_order_execution() {
    // A kernel on device 1 that waits on a write from device 0's queue must
    // observe the write even though the queues run on different workers.
    let program = compile(
        "addone.cl",
        "__kernel void addone(__global int* data, int n) {
             int i = (int)get_global_id(0);
             if (i < n) data[i] = data[i] + 1;
         }",
    )
    .unwrap();
    let platform = Platform::new(2, DeviceSpec::tesla_t10());
    let q1 = platform.queue(1);
    let n = 1024;
    let buf = q1.create_buffer(n * 4).unwrap();
    let payload: Vec<u8> = (0..n as i32).flat_map(|v| v.to_le_bytes()).collect();
    let write = q1.enqueue_write_async(&buf, 0, payload, &[]).unwrap();
    let kernel = q1
        .launch_kernel_async(
            &program,
            "addone",
            &[
                KernelArg::Buffer(buf.clone()),
                KernelArg::Scalar(Value::I32(n as i32)),
            ],
            NdRange::linear_default(n),
            &LaunchConfig::default(),
            std::slice::from_ref(&write),
        )
        .unwrap();
    let read = q1
        .enqueue_read_async(&buf, 0, n * 4, std::slice::from_ref(&kernel))
        .unwrap();
    let (_, bytes) = read.wait().unwrap();
    for (i, c) in bytes.chunks_exact(4).enumerate() {
        assert_eq!(i32::from_le_bytes(c.try_into().unwrap()), i as i32 + 1);
    }
    assert!(write.ended_ns() <= kernel.queued_ns());
}

#[test]
fn dependency_failure_propagates_as_result_not_abort() {
    // Satellite bugfix: a failing command must fail its dependents with the
    // same error through their events — no panic, no process abort.
    let program = compile(
        "oob.cl",
        "__kernel void oob(__global int* out) {
             out[get_global_id(0) + 1000000] = 1;
         }",
    )
    .unwrap();
    let platform = Platform::single(DeviceSpec::tesla_t10());
    let queue = platform.queue(0);
    let buf = queue.create_buffer(64).unwrap();
    let bad = queue
        .launch_kernel_async(
            &program,
            "oob",
            &[KernelArg::Buffer(buf.clone())],
            NdRange::linear(16, 16),
            &LaunchConfig::default(),
            &[],
        )
        .unwrap();
    let dependent = queue
        .enqueue_write_async(&buf, 0, vec![0u8; 4], std::slice::from_ref(&bad))
        .unwrap();
    let bad_err = bad.wait().unwrap_err();
    let dep_err = dependent.wait().unwrap_err();
    assert_eq!(dependent.status(), EventStatus::Failed);
    assert_eq!(
        bad_err, dep_err,
        "dependents inherit the dependency's error"
    );
    // The queue keeps working after a failed command.
    queue.finish().unwrap();
    assert!(queue.enqueue_write(&buf, 0, &[1, 2, 3, 4]).is_ok());
}
