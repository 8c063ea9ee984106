//! Asynchronous in-order command queues: the host-facing API for transfers
//! and kernel launches, mirroring `clCommandQueue` usage.
//!
//! Each queue owns a worker thread that executes commands in enqueue order
//! (in-order semantics, as SkelCL configures its OpenCL queues). The
//! `enqueue_*_async` family returns immediately with a pending [`Event`];
//! wait-lists express cross-queue dependencies, and the worker blocks on
//! them before executing, so uploads to one device overlap compute on
//! another. The classic blocking methods (`enqueue_write`, `launch_kernel`,
//! …) are retained as enqueue-then-[`Event::wait`] wrappers.
//!
//! Argument validation stays *eager* (at enqueue time, on the caller's
//! thread): an invalid launch fails fast with a `Result`, while runtime
//! faults inside a kernel surface through the event. A panic on the worker
//! fails the command — and everything waiting on it — with
//! [`Error::DeviceLost`] instead of poisoning the process.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;

use skelcl_kernel::program::{KernelParamKind, Program};
use skelcl_kernel::types::AddressSpace;
use skelcl_kernel::value::{self, Ptr, Value};
use skelcl_kernel::vm::CostCounters;

use crate::cost;
use crate::device::Device;
use crate::error::{Error, Result};
use crate::event::{CommandClass, CommandKind, Event};
use crate::exec::{execute_launch, LaunchConfig};
use crate::memory::{BufferTable, DeviceBuffer};
use crate::ndrange::NdRange;

/// Where in a command's lifecycle a [`QueueNotice`] was emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueuePhase {
    /// The command was handed to the queue worker (caller's thread).
    Enqueued,
    /// The worker began executing it (wait-list satisfied).
    Started,
    /// The command settled — completed or failed (worker's thread).
    Finished,
}

/// A compact, allocation-free telemetry notice about one queue command.
///
/// Observers installed with [`CommandQueue::set_observer`] receive one
/// notice per lifecycle phase. Everything is `Copy`; an observer that wants
/// structure (a flight recorder, counter tracks) builds it on its own side.
#[derive(Debug, Clone, Copy)]
pub struct QueueNotice {
    /// Index of the queue's device.
    pub device: usize,
    /// Lifecycle point.
    pub phase: QueuePhase,
    /// What kind of command this is.
    pub class: CommandClass,
    /// Bytes the command moves (0 for kernels and markers).
    pub bytes: usize,
    /// Commands enqueued but not yet finished on this queue, including
    /// this one (queue depth after the notice's effect).
    pub depth: usize,
    /// The device's simulated clock at the notice, in nanoseconds.
    pub t_ns: u64,
    /// `Finished` only: the command (or a dependency) failed.
    pub failed: bool,
    /// `Finished` only: the failure was [`Error::DeviceLost`] — a worker
    /// crash rather than an ordinary kernel fault.
    pub device_lost: bool,
}

/// An installed queue observer. Called inline on the enqueueing thread
/// (`Enqueued`) and the queue worker (`Started`/`Finished`), so it must be
/// cheap and must not block on queue operations.
pub type QueueObserver = Arc<dyn Fn(&QueueNotice) + Send + Sync>;

/// Telemetry state shared between the queue handle and its worker. The
/// depth counter always runs (two relaxed atomic ops per command); the
/// observer slot is set at most once, so the unobserved hot path costs one
/// `OnceLock` load.
#[derive(Default)]
struct QueueTelemetry {
    depth: AtomicUsize,
    observer: OnceLock<QueueObserver>,
}

impl QueueTelemetry {
    fn notify(&self, notice: &QueueNotice) {
        if let Some(observer) = self.observer.get() {
            observer(notice);
        }
    }
}

/// An argument bound to a kernel launch.
#[derive(Debug, Clone)]
pub enum KernelArg {
    /// A device buffer for a `__global T*` parameter.
    Buffer(DeviceBuffer),
    /// A scalar value (converted to the declared parameter type).
    Scalar(Value),
    /// A byte size for a `__local T*` parameter (dynamic local memory),
    /// as with `clSetKernelArg(…, size, NULL)`.
    Local(usize),
}

/// Shared destination of an asynchronous device→host read.
type ReadSlot = Arc<Mutex<Option<Vec<u8>>>>;

/// A pending device→host read: the event plus the slot the worker fills.
#[derive(Debug)]
pub struct HostRead {
    event: Event,
    slot: ReadSlot,
}

impl HostRead {
    /// The read's event (for wait-lists and profiling).
    pub fn event(&self) -> &Event {
        &self.event
    }

    /// Blocks until the read completes, returning its event and bytes.
    ///
    /// # Errors
    ///
    /// Returns the read's (or a failed dependency's) error.
    pub fn wait(self) -> Result<(Event, Vec<u8>)> {
        self.event.wait()?;
        let bytes = self
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .ok_or(Error::DeviceLost)?;
        Ok((self.event, bytes))
    }
}

/// The work a queued command performs on the worker thread. Buffer clones
/// live inside the op and are dropped *before* the event completes, so
/// allocation accounting observed after a `finish()` is exact.
enum CommandOp {
    Write {
        buffer: DeviceBuffer,
        offset: usize,
        bytes: Vec<u8>,
    },
    /// Host→device upload whose bytes arrive through a [`ReadSlot`] filled
    /// by an earlier read command (the staging half of a cross-device copy).
    WriteFromSlot {
        buffer: DeviceBuffer,
        offset: usize,
        slot: ReadSlot,
    },
    Read {
        buffer: DeviceBuffer,
        offset: usize,
        len: usize,
        slot: ReadSlot,
    },
    Copy {
        src: DeviceBuffer,
        src_offset: usize,
        dst: DeviceBuffer,
        dst_offset: usize,
        len: usize,
    },
    Kernel {
        program: Program,
        name: String,
        values: Vec<Value>,
        buffers: Vec<DeviceBuffer>,
        local_bytes: usize,
        range: NdRange,
        config: LaunchConfig,
    },
    Marker,
}

struct Command {
    event: Event,
    waits: Vec<Event>,
    op: CommandOp,
}

struct QueueShared {
    device: Arc<Device>,
    telemetry: Arc<QueueTelemetry>,
    /// `None` only during teardown: dropped first so the worker's `recv`
    /// ends and the join below cannot deadlock.
    sender: Option<Sender<Command>>,
    worker: Option<JoinHandle<()>>,
}

impl Drop for QueueShared {
    fn drop(&mut self) {
        self.sender.take();
        if let Some(handle) = self.worker.take() {
            let _ = handle.join();
        }
    }
}

/// An in-order command queue bound to one device, with a dedicated worker
/// thread executing its commands.
#[derive(Clone)]
pub struct CommandQueue {
    shared: Arc<QueueShared>,
}

impl std::fmt::Debug for CommandQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommandQueue")
            .field("device", &self.shared.device.id())
            .finish()
    }
}

impl CommandQueue {
    /// Creates a queue on `device`, spawning its worker thread.
    pub fn new(device: Arc<Device>) -> Self {
        let (sender, receiver) = mpsc::channel();
        let telemetry = Arc::new(QueueTelemetry::default());
        let worker_device = device.clone();
        let worker_telemetry = telemetry.clone();
        let worker = std::thread::Builder::new()
            .name(format!("vgpu-queue-{}", device.id().0))
            .spawn(move || worker_loop(worker_device, worker_telemetry, receiver))
            .expect("spawn queue worker thread");
        CommandQueue {
            shared: Arc::new(QueueShared {
                device,
                telemetry,
                sender: Some(sender),
                worker: Some(worker),
            }),
        }
    }

    /// The queue's device.
    pub fn device(&self) -> &Arc<Device> {
        &self.shared.device
    }

    /// Installs a telemetry observer receiving a [`QueueNotice`] per
    /// command lifecycle phase. The slot is write-once: returns `false`
    /// (and leaves the existing observer) if one is already installed.
    pub fn set_observer(&self, observer: QueueObserver) -> bool {
        self.shared.telemetry.observer.set(observer).is_ok()
    }

    /// Commands enqueued but not yet finished on this queue right now.
    pub fn depth(&self) -> usize {
        self.shared.telemetry.depth.load(Ordering::Relaxed)
    }

    /// Allocates a zero-initialised device buffer (no simulated cost, as
    /// with `clCreateBuffer`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfDeviceMemory`] when the device is full.
    pub fn create_buffer(&self, len: usize) -> Result<DeviceBuffer> {
        DeviceBuffer::alloc(self.shared.device.clone(), len)
    }

    fn submit(&self, kind: CommandKind, waits: &[Event], op: CommandOp) -> Result<Event> {
        let event = Event::pending(self.shared.device.id(), kind);
        let command = Command {
            event: event.clone(),
            waits: waits.to_vec(),
            op,
        };
        let telemetry = &self.shared.telemetry;
        let depth = telemetry.depth.fetch_add(1, Ordering::Relaxed) + 1;
        // Notify *before* handing the command to the worker so observers
        // always see Enqueued ahead of the worker's Started/Finished.
        let notice = |phase, depth, failed| QueueNotice {
            device: self.shared.device.id().0,
            phase,
            class: event.kind().class(),
            bytes: event.kind().payload_bytes(),
            depth,
            t_ns: self.shared.device.now_ns(),
            failed,
            device_lost: failed,
        };
        telemetry.notify(&notice(QueuePhase::Enqueued, depth, false));
        let send_result = self
            .shared
            .sender
            .as_ref()
            .ok_or(Error::DeviceLost)
            .and_then(|s| s.send(command).map_err(|_| Error::DeviceLost));
        if send_result.is_err() {
            let depth = telemetry.depth.fetch_sub(1, Ordering::Relaxed) - 1;
            telemetry.notify(&notice(QueuePhase::Finished, depth, true));
            return Err(Error::DeviceLost);
        }
        Ok(event)
    }

    fn check_range(&self, buffer: &DeviceBuffer, offset: usize, len: usize) -> Result<()> {
        if offset.checked_add(len).is_none_or(|end| end > buffer.len()) {
            return Err(Error::TransferOutOfRange {
                buffer_len: buffer.len(),
                offset,
                len,
            });
        }
        Ok(())
    }

    /// Enqueues a host→device transfer without waiting: the returned event
    /// completes once the worker has written `bytes` into `buffer` at
    /// `offset`, after every event in `waits`.
    ///
    /// # Errors
    ///
    /// Fails eagerly when the range exceeds the buffer or the buffer
    /// belongs to another device.
    pub fn enqueue_write_async(
        &self,
        buffer: &DeviceBuffer,
        offset: usize,
        bytes: Vec<u8>,
        waits: &[Event],
    ) -> Result<Event> {
        self.check_same_device(buffer)?;
        self.check_range(buffer, offset, bytes.len())?;
        self.submit(
            CommandKind::WriteBuffer { bytes: bytes.len() },
            waits,
            CommandOp::Write {
                buffer: buffer.clone(),
                offset,
                bytes,
            },
        )
    }

    /// Enqueues a device→host transfer without waiting; the bytes become
    /// available through the returned [`HostRead`] once its event completes.
    ///
    /// # Errors
    ///
    /// Fails eagerly for out-of-range spans or buffers of other devices.
    pub fn enqueue_read_async(
        &self,
        buffer: &DeviceBuffer,
        offset: usize,
        len: usize,
        waits: &[Event],
    ) -> Result<HostRead> {
        self.check_same_device(buffer)?;
        self.check_range(buffer, offset, len)?;
        let slot: ReadSlot = Arc::new(Mutex::new(None));
        let event = self.submit(
            CommandKind::ReadBuffer { bytes: len },
            waits,
            CommandOp::Read {
                buffer: buffer.clone(),
                offset,
                len,
                slot: slot.clone(),
            },
        )?;
        Ok(HostRead { event, slot })
    }

    /// Enqueues an on-device copy of `len` bytes without waiting.
    ///
    /// # Errors
    ///
    /// Fails eagerly for out-of-range spans or buffers of other devices.
    pub fn enqueue_copy_async(
        &self,
        src: &DeviceBuffer,
        src_offset: usize,
        dst: &DeviceBuffer,
        dst_offset: usize,
        len: usize,
        waits: &[Event],
    ) -> Result<Event> {
        self.check_same_device(src)?;
        self.check_same_device(dst)?;
        self.check_range(src, src_offset, len)?;
        self.check_range(dst, dst_offset, len)?;
        self.submit(
            CommandKind::CopyBuffer { bytes: len },
            waits,
            CommandOp::Copy {
                src: src.clone(),
                src_offset,
                dst: dst.clone(),
                dst_offset,
                len,
            },
        )
    }

    /// Enqueues a cross-device copy without waiting: a read of `src` on
    /// this queue staged through the host into a write of `dst` on
    /// `dst_queue` (the write waits on the read). Returns the
    /// `(read, write)` event pair so callers can account both timelines.
    ///
    /// # Errors
    ///
    /// Fails eagerly for out-of-range spans or buffers not owned by the
    /// respective queues' devices.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_copy_to_async(
        &self,
        src: &DeviceBuffer,
        src_offset: usize,
        dst_queue: &CommandQueue,
        dst: &DeviceBuffer,
        dst_offset: usize,
        len: usize,
        waits: &[Event],
    ) -> Result<(Event, Event)> {
        self.check_same_device(src)?;
        dst_queue.check_same_device(dst)?;
        self.check_range(src, src_offset, len)?;
        dst_queue.check_range(dst, dst_offset, len)?;
        let slot: ReadSlot = Arc::new(Mutex::new(None));
        let read = self.submit(
            CommandKind::ReadBuffer { bytes: len },
            waits,
            CommandOp::Read {
                buffer: src.clone(),
                offset: src_offset,
                len,
                slot: slot.clone(),
            },
        )?;
        let write = dst_queue.submit(
            CommandKind::WriteBuffer { bytes: len },
            std::slice::from_ref(&read),
            CommandOp::WriteFromSlot {
                buffer: dst.clone(),
                offset: dst_offset,
                slot,
            },
        )?;
        Ok((read, write))
    }

    /// Launches `kernel_name` from `program` over `range` without waiting,
    /// after every event in `waits`.
    ///
    /// Buffer arguments bind `__global` pointer parameters in order; scalar
    /// arguments are converted to the declared type; [`KernelArg::Local`]
    /// sizes carve dynamic `__local` memory.
    ///
    /// # Errors
    ///
    /// Binding errors (unknown kernels, mismatched arguments, invalid
    /// ranges, local-memory overflow) fail eagerly; work-item faults
    /// (out-of-bounds access, division by zero, barrier divergence, …)
    /// surface through the returned event.
    pub fn launch_kernel_async(
        &self,
        program: &Program,
        kernel_name: &str,
        args: &[KernelArg],
        range: NdRange,
        config: &LaunchConfig,
        waits: &[Event],
    ) -> Result<Event> {
        let spec = self.shared.device.spec();
        let kernel = program
            .kernel(kernel_name)
            .ok_or_else(|| Error::UnknownKernel {
                name: kernel_name.to_string(),
            })?;
        range.validate(spec.max_work_group_size)?;

        if args.len() != kernel.params.len() {
            return Err(Error::InvalidKernelArg {
                kernel: kernel_name.into(),
                index: args.len().min(kernel.params.len()),
                reason: format!(
                    "expected {} arguments, got {}",
                    kernel.params.len(),
                    args.len()
                ),
            });
        }

        let mut buffers = Vec::new();
        let mut values = Vec::with_capacity(args.len());
        let mut local_bytes = kernel.static_local_bytes as usize;

        for (index, (arg, param)) in args.iter().zip(&kernel.params).enumerate() {
            let bad = |reason: String| Error::InvalidKernelArg {
                kernel: kernel_name.into(),
                index,
                reason,
            };
            match (&param.kind, arg) {
                (KernelParamKind::GlobalBuffer { .. }, KernelArg::Buffer(b)) => {
                    self.check_same_device(b)?;
                    let buffer_index = buffers.len() as u32;
                    buffers.push(b.clone());
                    values.push(Value::Ptr(Ptr {
                        space: AddressSpace::Global,
                        buffer: buffer_index,
                        byte_offset: 0,
                    }));
                }
                (KernelParamKind::Scalar(s), KernelArg::Scalar(v)) => {
                    if v.as_ptr().is_some() {
                        return Err(bad("pointer value passed as scalar".into()));
                    }
                    values.push(value::convert(*v, *s));
                }
                (KernelParamKind::LocalBuffer { elem }, KernelArg::Local(bytes)) => {
                    let align = elem.size_bytes();
                    local_bytes = local_bytes.div_ceil(align) * align;
                    values.push(Value::Ptr(Ptr {
                        space: AddressSpace::Local,
                        buffer: 0,
                        byte_offset: local_bytes as i64,
                    }));
                    local_bytes += bytes;
                }
                (expected, got) => {
                    return Err(bad(format!(
                        "parameter `{}` expects {:?}, got {}",
                        param.name,
                        expected,
                        match got {
                            KernelArg::Buffer(_) => "a buffer",
                            KernelArg::Scalar(_) => "a scalar",
                            KernelArg::Local(_) => "a local size",
                        }
                    )));
                }
            }
        }

        if local_bytes > spec.local_memory_bytes {
            return Err(Error::LocalMemoryExceeded {
                requested: local_bytes,
                limit: spec.local_memory_bytes,
            });
        }

        self.submit(
            CommandKind::Kernel {
                name: kernel_name.into(),
            },
            waits,
            CommandOp::Kernel {
                program: program.clone(),
                name: kernel_name.to_string(),
                values,
                buffers,
                local_bytes,
                range,
                config: config.clone(),
            },
        )
    }

    /// Enqueues a marker that completes after every event in `waits` and
    /// all previously enqueued commands on this queue
    /// (`clEnqueueMarkerWithWaitList`).
    ///
    /// # Errors
    ///
    /// Fails only when the queue's worker is gone ([`Error::DeviceLost`]).
    pub fn enqueue_barrier(&self, waits: &[Event]) -> Result<Event> {
        self.submit(CommandKind::Marker, waits, CommandOp::Marker)
    }

    /// Blocks until every command enqueued so far has completed
    /// (`clFinish`). Individual command failures do *not* fail `finish`;
    /// they are reported by their own events.
    ///
    /// # Errors
    ///
    /// Fails only when the queue's worker is gone ([`Error::DeviceLost`]).
    pub fn finish(&self) -> Result<()> {
        let marker = self.enqueue_barrier(&[])?;
        // The marker itself cannot fail; a lost worker surfaces as
        // DeviceLost from its wait.
        marker.wait()
    }

    /// Enqueues a host→device transfer and waits for it: the blocking
    /// `clEnqueueWriteBuffer(…, CL_TRUE, …)` form.
    ///
    /// # Errors
    ///
    /// Fails when the range exceeds the buffer or the buffer belongs to
    /// another device.
    pub fn enqueue_write(&self, buffer: &DeviceBuffer, offset: usize, src: &[u8]) -> Result<Event> {
        let event = self.enqueue_write_async(buffer, offset, src.to_vec(), &[])?;
        event.wait()?;
        Ok(event)
    }

    /// Enqueues a device→host transfer into `dst` and waits for it.
    ///
    /// # Errors
    ///
    /// Fails when the range exceeds the buffer or the buffer belongs to
    /// another device.
    pub fn enqueue_read(
        &self,
        buffer: &DeviceBuffer,
        offset: usize,
        dst: &mut [u8],
    ) -> Result<Event> {
        let read = self.enqueue_read_async(buffer, offset, dst.len(), &[])?;
        let (event, bytes) = read.wait()?;
        dst.copy_from_slice(&bytes);
        Ok(event)
    }

    /// Enqueues an on-device copy of `len` bytes and waits for it.
    ///
    /// # Errors
    ///
    /// Fails for out-of-range spans or buffers of other devices.
    pub fn enqueue_copy(
        &self,
        src: &DeviceBuffer,
        src_offset: usize,
        dst: &DeviceBuffer,
        dst_offset: usize,
        len: usize,
    ) -> Result<Event> {
        let event = self.enqueue_copy_async(src, src_offset, dst, dst_offset, len, &[])?;
        event.wait()?;
        Ok(event)
    }

    /// Enqueues a cross-device copy of `len` bytes and waits for both
    /// halves: `src` on this queue's device to `dst` on `dst_queue`'s
    /// device, staged through the host as the paper describes for
    /// redistribution (download then upload).
    ///
    /// Costs [`cost::transfer_ns`] on each side — together
    /// [`cost::device_to_device_ns`] for identical specs — and returns the
    /// `(read, write)` event pair so callers can account both timelines.
    ///
    /// # Errors
    ///
    /// Fails for out-of-range spans or buffers not owned by the respective
    /// queues' devices.
    pub fn enqueue_copy_to(
        &self,
        src: &DeviceBuffer,
        src_offset: usize,
        dst_queue: &CommandQueue,
        dst: &DeviceBuffer,
        dst_offset: usize,
        len: usize,
    ) -> Result<(Event, Event)> {
        let (read, write) =
            self.enqueue_copy_to_async(src, src_offset, dst_queue, dst, dst_offset, len, &[])?;
        read.wait()?;
        write.wait()?;
        Ok((read, write))
    }

    /// Launches `kernel_name` from `program` over `range` with `args` and
    /// waits for it. See [`CommandQueue::launch_kernel_async`].
    ///
    /// # Errors
    ///
    /// Fails for unknown kernels, mismatched arguments, invalid ranges,
    /// local-memory overflow, or any work-item fault (out-of-bounds access,
    /// division by zero, barrier divergence, …).
    pub fn launch_kernel(
        &self,
        program: &Program,
        kernel_name: &str,
        args: &[KernelArg],
        range: NdRange,
        config: &LaunchConfig,
    ) -> Result<Event> {
        let event = self.launch_kernel_async(program, kernel_name, args, range, config, &[])?;
        event.wait()?;
        Ok(event)
    }

    fn check_same_device(&self, buffer: &DeviceBuffer) -> Result<()> {
        if buffer.device_id() != self.shared.device.id() {
            return Err(Error::WrongDevice {
                queue_device: self.shared.device.id().0,
                buffer_device: buffer.device_id().0,
            });
        }
        Ok(())
    }
}

/// The per-queue worker: executes commands in enqueue order, blocking on
/// each command's wait-list first. Ends when the queue (all clones) drops.
fn worker_loop(device: Arc<Device>, telemetry: Arc<QueueTelemetry>, receiver: Receiver<Command>) {
    while let Ok(Command { event, waits, op }) = receiver.recv() {
        let class = event.kind().class();
        let bytes = event.kind().payload_bytes();
        let notice = |phase, depth, error: Option<&Error>| QueueNotice {
            device: device.id().0,
            phase,
            class,
            bytes,
            depth,
            t_ns: device.now_ns(),
            failed: error.is_some(),
            device_lost: matches!(error, Some(Error::DeviceLost)),
        };
        let mut dependency_error = None;
        for wait in &waits {
            if let Err(e) = wait.wait() {
                dependency_error = Some(e);
                break;
            }
        }
        if let Some(e) = dependency_error {
            drop(op); // release buffer clones before observers wake
            let depth = telemetry.depth.fetch_sub(1, Ordering::Relaxed) - 1;
            telemetry.notify(&notice(QueuePhase::Finished, depth, Some(&e)));
            event.fail(e);
            continue;
        }
        event.start_running();
        telemetry.notify(&notice(
            QueuePhase::Started,
            telemetry.depth.load(Ordering::Relaxed),
            None,
        ));
        // `op` moves into the closure and is dropped inside it — buffer
        // clones are released before the event completes, whether the
        // command succeeds, errs, or panics (unwind drops it too).
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| execute_op(&device, op)));
        let depth = telemetry.depth.fetch_sub(1, Ordering::Relaxed) - 1;
        match outcome {
            Ok(Ok((queued, started, ended, counters))) => {
                telemetry.notify(&notice(QueuePhase::Finished, depth, None));
                event.complete(queued, started, ended, counters)
            }
            Ok(Err(e)) => {
                telemetry.notify(&notice(QueuePhase::Finished, depth, Some(&e)));
                event.fail(e)
            }
            Err(_) => {
                telemetry.notify(&notice(
                    QueuePhase::Finished,
                    depth,
                    Some(&Error::DeviceLost),
                ));
                event.fail(Error::DeviceLost)
            }
        }
    }
}

/// Executes one command on the worker thread, advancing the device's
/// simulated timeline and returning `(queued, started, ended, counters)`.
fn execute_op(
    device: &Arc<Device>,
    op: CommandOp,
) -> Result<(u64, u64, u64, Option<CostCounters>)> {
    match op {
        CommandOp::Write {
            buffer,
            offset,
            bytes,
        } => {
            buffer.write_bytes(offset, &bytes)?;
            let ns = cost::transfer_ns(device.spec(), bytes.len());
            let (start, end) = device.advance(ns);
            Ok((start, start, end, None))
        }
        CommandOp::WriteFromSlot {
            buffer,
            offset,
            slot,
        } => {
            let bytes = slot
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
                .ok_or(Error::DeviceLost)?;
            buffer.write_bytes(offset, &bytes)?;
            let ns = cost::transfer_ns(device.spec(), bytes.len());
            let (start, end) = device.advance(ns);
            Ok((start, start, end, None))
        }
        CommandOp::Read {
            buffer,
            offset,
            len,
            slot,
        } => {
            let mut tmp = vec![0u8; len];
            buffer.read_bytes(offset, &mut tmp)?;
            let ns = cost::transfer_ns(device.spec(), len);
            let (start, end) = device.advance(ns);
            *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(tmp);
            Ok((start, start, end, None))
        }
        CommandOp::Copy {
            src,
            src_offset,
            dst,
            dst_offset,
            len,
        } => {
            let mut tmp = vec![0u8; len];
            src.read_bytes(src_offset, &mut tmp)?;
            dst.write_bytes(dst_offset, &tmp)?;
            // On-device copies are bandwidth-limited (read + write).
            let spec = device.spec();
            let ns = ((2 * len) as f64 / spec.global_bandwidth * 1e9).ceil() as u64;
            let (start, end) = device.advance(ns);
            Ok((start, start, end, None))
        }
        CommandOp::Kernel {
            program,
            name,
            values,
            buffers,
            local_bytes,
            range,
            config,
        } => {
            let spec = device.spec();
            let kernel = program
                .kernel(&name)
                .ok_or_else(|| Error::UnknownKernel { name: name.clone() })?;
            let table = BufferTable { buffers };
            let counters = execute_launch(
                device,
                &program,
                kernel,
                &values,
                &table,
                &range,
                local_bytes,
                &config,
            )?;
            let ns = cost::launch_ns(spec, &counters, config.toolchain);
            let (queued, end) = device.advance(ns);
            let start = queued + spec.kernel_launch_overhead_ns;
            Ok((queued, start.min(end), end, Some(counters)))
        }
        CommandOp::Marker => {
            let now = device.now_ns();
            Ok((now, now, now, None))
        }
    }
}
