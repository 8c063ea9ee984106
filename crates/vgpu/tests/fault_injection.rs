//! Injected driver-crash faults: a kernel that panics on the pool's worker
//! threads must surface as [`Error::DeviceLost`], be reported through the
//! queue-telemetry observer, and leave the persistent [`WorkerPool`] and
//! queue fully usable for subsequent launches.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use skelcl_kernel::compile;
use skelcl_kernel::program::Program;
use vgpu::{
    CommandClass, DeviceSpec, Error, FaultInjection, KernelArg, LaunchConfig, NdRange, Platform,
    QueueNotice, QueuePhase,
};

fn ok_program() -> Program {
    compile(
        "fill.cl",
        "__kernel void fill(__global int* out){ out[get_global_id(0)] = (int)get_global_id(0) * 3; }",
    )
    .unwrap()
}

fn config(fault: Option<FaultInjection>) -> LaunchConfig {
    LaunchConfig {
        fault_injection: fault,
        ..LaunchConfig::default()
    }
}

#[test]
fn injected_panic_surfaces_as_device_lost_and_pool_survives() {
    let program = ok_program();
    let platform = Platform::single(DeviceSpec::tesla_t10());
    let queue = platform.queue(0);
    let out = queue.create_buffer(64 * 4).unwrap();
    let args = [KernelArg::Buffer(out.clone())];
    let range = NdRange::linear(64, 32);

    // The injected panic happens on a pool worker thread; the pool's
    // catch_unwind must convert it to DeviceLost, not abort the process.
    let err = queue
        .launch_kernel(
            &program,
            "fill",
            &args,
            range,
            &config(Some(FaultInjection::PanicInKernel)),
        )
        .unwrap_err();
    assert!(
        matches!(err, Error::DeviceLost),
        "injected panic must surface as DeviceLost, got: {err}"
    );

    // Crash again: recovery is not a one-shot.
    let err = queue
        .launch_kernel(
            &program,
            "fill",
            &args,
            range,
            &config(Some(FaultInjection::PanicInKernel)),
        )
        .unwrap_err();
    assert!(matches!(err, Error::DeviceLost));

    // The same persistent pool then executes clean launches correctly.
    for _ in 0..3 {
        queue
            .launch_kernel(&program, "fill", &args, range, &config(None))
            .unwrap();
    }
    let mut bytes = vec![0u8; 64 * 4];
    queue.enqueue_read(&out, 0, &mut bytes).unwrap();
    for i in 0..64usize {
        let v = i32::from_le_bytes(bytes[i * 4..i * 4 + 4].try_into().unwrap());
        assert_eq!(v, i as i32 * 3);
    }

    // The pool never restarted.
    let stats = platform.exec_stats();
    assert_eq!(stats.launches, 5);
    assert!(stats.pool_threads >= 1);
    assert!(
        stats.pool_groups_executed >= 3,
        "clean launches executed groups via the pool"
    );
}

#[test]
fn queue_observer_reports_device_lost() {
    let program = ok_program();
    let platform = Platform::single(DeviceSpec::tesla_t10());
    let queue = platform.queue(0);

    let notices: Arc<Mutex<Vec<QueueNotice>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&notices);
    assert!(queue.set_observer(Arc::new(move |n: &QueueNotice| {
        sink.lock().unwrap().push(*n);
    })));
    // Only the first observer wins (write-once installation).
    let ignored = Arc::new(AtomicUsize::new(0));
    let ignored_sink = Arc::clone(&ignored);
    assert!(!queue.set_observer(Arc::new(move |_n: &QueueNotice| {
        ignored_sink.fetch_add(1, Ordering::Relaxed);
    })));

    let out = queue.create_buffer(64 * 4).unwrap();
    let args = [KernelArg::Buffer(out)];
    let range = NdRange::linear(64, 32);
    let err = queue
        .launch_kernel(
            &program,
            "fill",
            &args,
            range,
            &config(Some(FaultInjection::PanicInKernel)),
        )
        .unwrap_err();
    assert!(matches!(err, Error::DeviceLost));
    queue
        .launch_kernel(&program, "fill", &args, range, &config(None))
        .unwrap();

    let notices = notices.lock().unwrap();
    assert_eq!(ignored.load(Ordering::Relaxed), 0);

    // Buffer creation emits no notices; the two kernels each produced
    // Enqueued → Started → Finished on the kernel class.
    let kernel_finishes: Vec<&QueueNotice> = notices
        .iter()
        .filter(|n| n.phase == QueuePhase::Finished && n.class == CommandClass::Kernel)
        .collect();
    assert_eq!(kernel_finishes.len(), 2);
    assert!(kernel_finishes[0].failed);
    assert!(kernel_finishes[0].device_lost);
    assert!(!kernel_finishes[1].failed);
    assert!(!kernel_finishes[1].device_lost);

    // Depth accounting balanced out: the last Finished saw depth zero.
    assert_eq!(notices.last().unwrap().depth, 0);
    assert_eq!(queue.depth(), 0);

    // Phases arrive in order for each command.
    for n in notices.iter() {
        assert_eq!(n.device, 0);
    }
    let phases: Vec<QueuePhase> = notices
        .iter()
        .filter(|n| n.class == CommandClass::Kernel)
        .map(|n| n.phase)
        .collect();
    assert_eq!(
        phases,
        vec![
            QueuePhase::Enqueued,
            QueuePhase::Started,
            QueuePhase::Finished,
            QueuePhase::Enqueued,
            QueuePhase::Started,
            QueuePhase::Finished,
        ]
    );
}
