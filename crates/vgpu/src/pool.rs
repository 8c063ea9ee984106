//! Persistent per-device worker pools.
//!
//! A [`WorkerPool`] is created lazily on a device's first launch, with one
//! thread per available CPU, and lives until the device drops; a launch
//! wakes as many of its workers as it can use. Each worker owns a
//! [`WorkerScratch`](crate::exec::WorkerScratch) for the thread's lifetime,
//! so `WorkItem` and local-memory allocations are recycled **across**
//! launches, not just within one — a kernel launch costs a channel send per
//! worker instead of a thread spawn, and in steady state performs no heap
//! allocation on the execution hot path.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::error::Error;
use crate::exec::{run_worker, LaunchState, WorkerScratch};

/// A fixed set of persistent worker threads bound to one device.
#[derive(Debug)]
pub(crate) struct WorkerPool {
    senders: Vec<Sender<Arc<LaunchState>>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `threads` workers for device `device_index`.
    pub(crate) fn new(device_index: usize, threads: usize) -> Self {
        let threads = threads.max(1);
        let mut senders = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for worker in 0..threads {
            let (sender, receiver) = mpsc::channel::<Arc<LaunchState>>();
            let handle = std::thread::Builder::new()
                .name(format!("vgpu-exec-{device_index}.{worker}"))
                .spawn(move || {
                    let mut scratch = WorkerScratch::default();
                    while let Ok(state) = receiver.recv() {
                        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                            run_worker(&state, &mut scratch)
                        }));
                        if outcome.is_err() {
                            // The scratch may hold half-executed items;
                            // start clean rather than reuse them.
                            scratch = WorkerScratch::default();
                            state.fail(Error::DeviceLost);
                        }
                        // Drop the payload reference *before* arriving:
                        // once the caller's wait() returns, no worker may
                        // still pin the launch's buffer table.
                        let latch = state.latch();
                        drop(state);
                        latch.arrive();
                    }
                })
                .expect("spawn vgpu pool worker thread");
            senders.push(sender);
            handles.push(handle);
        }
        WorkerPool { senders, handles }
    }

    /// Number of worker threads in the pool.
    pub(crate) fn threads(&self) -> usize {
        self.senders.len()
    }

    /// Runs one launch to completion on the first `workers` threads of the
    /// pool — all of them if it asks for more — and blocks until they are
    /// done; the rest are not woken. Failures are recorded in
    /// `state`; the caller reads them afterwards.
    pub(crate) fn run(&self, state: &Arc<LaunchState>, workers: usize) {
        let senders = &self.senders[..workers.clamp(1, self.senders.len())];
        state.begin(senders.len());
        for sender in senders {
            if sender.send(state.clone()).is_err() {
                // Worker gone (cannot normally happen: panics are caught).
                state.fail(Error::DeviceLost);
                state.finish_participant();
            }
        }
        state.wait();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channels ends the worker loops; then join. The pool
        // can be dropped *on one of its own workers*: a worker's clone of
        // the launch state can be the device's last `Arc` reference once
        // the host side has moved on. A thread cannot join itself, so that
        // worker is detached instead — it is already past its receive loop
        // (its channel sender is gone) and exits on its own.
        self.senders.clear();
        let current = std::thread::current().id();
        for handle in self.handles.drain(..) {
            if handle.thread().id() != current {
                let _ = handle.join();
            }
        }
    }
}
