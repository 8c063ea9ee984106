//! The work-group execution engine.
//!
//! Work-groups are independent (as in OpenCL) and are executed in parallel
//! on host threads. Within one group, work-items run in **lockstep rounds**:
//! every item executes until it finishes or reaches a `barrier()`; the group
//! only proceeds past a barrier once *all* items arrived at the *same*
//! barrier site, which is checked and reported as
//! [`Error::BarrierDivergence`] instead of OpenCL's undefined behaviour.
//!
//! Launches run on the device's persistent [worker pool](crate::pool): a
//! launch costs a queue push and starts no thread. Kernels whose
//! [`KernelInfo::barrier_count`] is zero take the **barrier-free fast
//! path**: one reusable [`WorkItem`] per pool thread is
//! [armed](WorkItem::arm) per item and run to completion in a tight loop,
//! skipping the lockstep-round machinery and all per-item allocation.
//! Kernels *with* barriers run lockstep rounds on pooled, reusable items.
//!
//! Both paths iterate the items of a group in the same (row-major local-id)
//! order as the tests' single-threaded reference launcher
//! (`tests/support`, built on [`WorkItem::run_reference`]), so even racy
//! barrier-free kernels produce bit-identical buffers within a group and
//! identical [`CostCounters`] — simulated-time results cannot drift with
//! the engine.
//!
//! **Hot-path rule.** Nothing a pool thread executes per work-item or per
//! barrier round writes memory another pool thread touches. Everything a
//! launch shares is prepared once in [`LaunchState::new`] and only read
//! afterwards; the one shared write on the way, the group cursor, happens
//! once per work-*group* on a cache line of its own; counters, failures and
//! steal telemetry are merged once per worker per launch. DESIGN.md §5g
//! tabulates every piece of shared state against this rule.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

use skelcl_kernel::program::{KernelInfo, Program};
use skelcl_kernel::value::Value;
use skelcl_kernel::vm::{CostCounters, EntryFrame, Exit, ItemGeometry, RuntimeError, WorkItem};

use crate::cost::Toolchain;
use crate::device::Device;
use crate::error::{Error, Result};
use crate::memory::BufferTable;
use crate::ndrange::NdRange;

/// Deliberate faults injected into the execution engine, for tests that
/// exercise crash-recovery paths (panics on pool workers, `DeviceLost`
/// reporting, flight-recorder dumps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultInjection {
    /// Panic on a pool worker the moment it picks up the launch — the
    /// simulated analogue of a driver crash mid-kernel. The pool's
    /// `catch_unwind` turns it into [`Error::DeviceLost`] and resets the
    /// worker's scratch.
    PanicInKernel,
}

/// Tuning knobs for a kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchConfig {
    /// Which toolchain "built" the kernel (cost model input; see
    /// [`Toolchain`]).
    pub toolchain: Toolchain,
    /// Instruction budget per work-item, guarding against kernels that do
    /// not terminate.
    pub ops_budget_per_item: u64,
    /// Most host threads that may execute this launch's work-groups
    /// (`None`: one per available CPU). Honoured per launch: a launch
    /// wakes `min(host_threads, pool threads, work-groups)` workers of the
    /// device's persistent pool, which itself has one thread per available
    /// CPU — a larger value cannot grow it.
    pub host_threads: Option<usize>,
    /// Deliberate fault to inject (tests only; `None` in normal operation).
    pub fault_injection: Option<FaultInjection>,
}

impl Default for LaunchConfig {
    fn default() -> Self {
        LaunchConfig {
            toolchain: Toolchain::OpenCl,
            ops_budget_per_item: 1 << 34,
            host_threads: None,
            fault_injection: None,
        }
    }
}

impl LaunchConfig {
    /// A config with the CUDA toolchain factor applied (paper's Fig. 4
    /// baseline).
    pub fn cuda() -> Self {
        LaunchConfig {
            toolchain: Toolchain::Cuda,
            ..Default::default()
        }
    }
}

/// One worker per available CPU, resolved once per process:
/// `available_parallelism` re-reads the cgroup files on every call (16 µs
/// here, a sixth of an empty launch), and a device's pool is sized once
/// anyway.
pub(crate) fn default_host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The group cursor: the one word of a launch that every worker writes on
/// the execution path (once per work-group). Aligned to two cache lines so
/// that neither the write nor the adjacent-line prefetcher invalidates the
/// read-mostly launch parameters the workers read per work-item.
#[repr(align(128))]
#[derive(Default)]
struct GroupCursor(AtomicUsize);

/// Everything the workers need to execute one launch, prepared once. Shared
/// as an `Arc` with every participating pool worker, so it owns its
/// program, argument and buffer handles (pool threads outlive the launch
/// call frame).
pub(crate) struct LaunchState {
    /// Program handle, arguments and `__local` bindings, ready to copy
    /// into an item.
    entry: EntryFrame,
    kernel_name: String,
    buffers: BufferTable,
    /// The launch-wide half of every item's geometry (the ids are zero).
    geometry: ItemGeometry,
    items_per_group: usize,
    local_bytes: usize,
    ops_budget: u64,
    /// Whether groups take the barrier-free fast path.
    fast: bool,
    total_groups: usize,
    abort: AtomicBool,
    /// Deliberate fault to inject (tests only).
    fault: Option<FaultInjection>,
    /// Completion latch, shared separately from the payload so a worker
    /// can release its payload reference *before* arriving.
    latch: Arc<Latch>,
    failure: Mutex<Option<Error>>,
    totals: Mutex<CostCounters>,
    /// Work-groups each participating worker executed (one entry per
    /// worker that finished its share) — the steal-cursor telemetry the
    /// device aggregates after the launch.
    worker_groups: Mutex<Vec<u64>>,
    next_group: GroupCursor,
}

/// Completion latch for one launch. Lives in its own `Arc`, apart from the
/// [`LaunchState`] payload: a worker must be able to drop its state clone
/// (and with it the buffer-table reference) *before* signalling, otherwise
/// the caller can observe the launch as complete — and free the containers
/// — while a descheduled worker still pins the buffers.
#[derive(Debug, Default)]
pub(crate) struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    /// Declares `participants` arrivals outstanding.
    fn begin(&self, participants: usize) {
        *self
            .remaining
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = participants;
    }

    /// Marks one participant done, waking the waiter on the last.
    pub(crate) fn arrive(&self) {
        let mut remaining = self
            .remaining
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *remaining = remaining.saturating_sub(1);
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every declared participant has arrived.
    fn wait(&self) {
        let mut remaining = self
            .remaining
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while *remaining > 0 {
            remaining = self
                .done
                .wait(remaining)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl LaunchState {
    fn new(
        program: &Program,
        kernel: &KernelInfo,
        args: &[Value],
        buffers: &BufferTable,
        range: &NdRange,
        local_bytes: usize,
        config: &LaunchConfig,
    ) -> Self {
        LaunchState {
            entry: EntryFrame::new(program, kernel, args),
            kernel_name: kernel.name.clone(),
            buffers: buffers.clone(),
            geometry: ItemGeometry {
                work_dim: range.dims,
                global_id: [0; 3],
                local_id: [0; 3],
                group_id: [0; 3],
                global_size: range.global.map(|n| n as u64),
                local_size: range.local.map(|n| n as u64),
                num_groups: range.group_counts().map(|n| n as u64),
            },
            items_per_group: range.items_per_group(),
            local_bytes,
            ops_budget: config.ops_budget_per_item,
            fast: kernel.barrier_count == 0,
            total_groups: range.total_groups(),
            abort: AtomicBool::new(false),
            fault: config.fault_injection,
            latch: Arc::new(Latch::default()),
            failure: Mutex::new(None),
            totals: Mutex::new(CostCounters::default()),
            worker_groups: Mutex::new(Vec::new()),
            next_group: GroupCursor::default(),
        }
    }

    /// Per-worker group counts of the finished launch (steal telemetry).
    fn worker_group_counts(&self) -> Vec<u64> {
        self.worker_groups
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Declares `participants` workers about to run this launch.
    pub(crate) fn begin(&self, participants: usize) {
        self.latch.begin(participants);
    }

    /// A handle to the launch's completion latch. Workers clone this, drop
    /// their [`LaunchState`] reference, and only then arrive.
    pub(crate) fn latch(&self) -> Arc<Latch> {
        Arc::clone(&self.latch)
    }

    /// Records a failure (first one wins) and asks other workers to stop.
    pub(crate) fn fail(&self, e: Error) {
        self.abort.store(true, Ordering::Relaxed);
        self.failure
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get_or_insert(e);
    }

    /// Marks one participant done, waking the launch caller on the last.
    /// Callers that hold their own `Arc<LaunchState>` clone should instead
    /// drop it and arrive on the [`LaunchState::latch`] handle.
    pub(crate) fn finish_participant(&self) {
        self.latch.arrive();
    }

    /// Blocks until every participant declared by [`LaunchState::begin`]
    /// has finished.
    pub(crate) fn wait(&self) {
        self.latch.wait();
    }

    /// The launch outcome: the first failure, or the merged counters.
    fn outcome(&self) -> Result<CostCounters> {
        if let Some(e) = self
            .failure
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            return Err(e);
        }
        Ok(*self.totals.lock().unwrap_or_else(PoisonError::into_inner))
    }

    fn group_id(&self, g: usize) -> [u64; 3] {
        let [nx, ny, _] = self.geometry.num_groups;
        let g = g as u64;
        [g % nx, (g / nx) % ny, g / (nx * ny)]
    }

    /// The local ids of one work-group in execution (row-major) order.
    fn local_ids(&self) -> impl Iterator<Item = [u64; 3]> {
        let [lx, ly, lz] = self.geometry.local_size;
        (0..lz).flat_map(move |z| (0..ly).flat_map(move |y| (0..lx).map(move |x| [x, y, z])))
    }

    /// Arms `items[idx]` (growing the pool by one idle item on first use)
    /// for the work-item at `local_id` of group `group_id`: one copy of the
    /// prepared entry frame plus the item's three ids. The only place items
    /// are armed, for both paths.
    fn arm_item<'a>(
        &self,
        items: &'a mut Vec<WorkItem>,
        idx: usize,
        group_id: [u64; 3],
        local_id: [u64; 3],
    ) -> &'a mut WorkItem {
        if idx == items.len() {
            items.push(WorkItem::idle(self.entry.program()));
        }
        let local_size = self.geometry.local_size;
        let geometry = ItemGeometry {
            global_id: [0, 1, 2].map(|d| group_id[d] * local_size[d] + local_id[d]),
            local_id,
            group_id,
            ..self.geometry
        };
        let item = &mut items[idx];
        item.arm(&self.entry, geometry, self.ops_budget);
        item
    }

    fn launch_error(&self, item: &WorkItem, error: RuntimeError) -> Error {
        Error::Launch {
            kernel: self.kernel_name.clone(),
            global_id: item.geometry().global_id,
            error,
        }
    }
}

/// Per-worker reusable execution state. Owned by a pool thread and kept
/// across launches, so in steady state a launch performs no `WorkItem` or
/// local-memory allocation at all.
#[derive(Default)]
pub(crate) struct WorkerScratch {
    /// Reusable items: one per work-item of the largest group seen so far
    /// (the barrier-free fast path only ever uses the first).
    items: Vec<WorkItem>,
    /// The work-group's local-memory arena.
    local_mem: Vec<u8>,
}

/// One worker's share of a launch: pulls group indices off the shared
/// cursor until the launch is drained or aborted. Called by pool threads
/// (the pool wraps it in `catch_unwind` and always arrives on the latch
/// afterwards).
pub(crate) fn run_worker(state: &LaunchState, scratch: &mut WorkerScratch) {
    if state.fault == Some(FaultInjection::PanicInKernel) {
        panic!("vgpu: injected fault (FaultInjection::PanicInKernel)");
    }
    let mut local_counters = CostCounters::default();
    let mut groups_executed = 0u64;
    loop {
        if state.abort.load(Ordering::Relaxed) {
            break;
        }
        let g = state.next_group.0.fetch_add(1, Ordering::Relaxed);
        if g >= state.total_groups {
            break;
        }
        let group_id = state.group_id(g);
        scratch.local_mem.clear();
        scratch.local_mem.resize(state.local_bytes, 0);
        let result = if state.fast {
            run_group_fast(state, scratch, group_id)
        } else {
            run_group_lockstep(state, scratch, group_id)
        };
        match result {
            Ok(c) => {
                local_counters.merge(&c);
                groups_executed += 1;
            }
            Err(e) => {
                state.fail(e);
                break;
            }
        }
    }
    state
        .worker_groups
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(groups_executed);
    state
        .totals
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .merge(&local_counters);
}

/// Barrier-free fast path: each item runs start-to-finish on one reusable
/// `WorkItem`, in the same row-major order the lockstep path would use.
fn run_group_fast(
    state: &LaunchState,
    scratch: &mut WorkerScratch,
    group_id: [u64; 3],
) -> Result<CostCounters> {
    let mut counters = CostCounters::default();
    for local_id in state.local_ids() {
        let item = state.arm_item(&mut scratch.items, 0, group_id, local_id);
        match item.run(&state.buffers, &mut scratch.local_mem) {
            Ok(Exit::Done) => counters.merge(&item.counters),
            // barrier_count == 0 guaranteed no barrier sites.
            Ok(Exit::Barrier(_)) => {
                let error =
                    RuntimeError::Internal("barrier reached on the barrier-free fast path".into());
                return Err(state.launch_error(item, error));
            }
            Err(error) => return Err(state.launch_error(item, error)),
        }
    }
    Ok(counters)
}

/// Rounds in lockstep for one work-group: every item runs to its next barrier
/// (or its end), and the group proceeds only when all arrived at the same
/// one, on reusable `WorkItem`s.
fn run_group_lockstep(
    state: &LaunchState,
    scratch: &mut WorkerScratch,
    group_id: [u64; 3],
) -> Result<CostCounters> {
    for (idx, local_id) in state.local_ids().enumerate() {
        state.arm_item(&mut scratch.items, idx, group_id, local_id);
    }
    let items = &mut scratch.items[..state.items_per_group];
    let divergence = || Error::BarrierDivergence {
        kernel: state.kernel_name.clone(),
        group_id,
    };

    loop {
        let mut barrier: Option<u32> = None;
        let mut any_done = false;
        for item in items.iter_mut() {
            if item.is_finished() {
                any_done = true;
                continue;
            }
            let exit = item.run(&state.buffers, &mut scratch.local_mem);
            match exit.map_err(|error| state.launch_error(item, error))? {
                Exit::Done => any_done = true,
                Exit::Barrier(id) => match barrier {
                    None => barrier = Some(id),
                    Some(prev) if prev == id => {}
                    Some(_) => return Err(divergence()),
                },
            }
        }
        match barrier {
            None => break, // every item finished
            // Some items finished while others wait at a barrier: the
            // barrier can never be satisfied.
            Some(_) if any_done => return Err(divergence()),
            Some(_) => {} // all at the same barrier: next round resumes them
        }
    }

    let mut counters = CostCounters::default();
    for item in items.iter() {
        counters.merge(&item.counters);
    }
    Ok(counters)
}

/// Executes a launch on `device` and returns the aggregated counters.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_launch(
    device: &Device,
    program: &Program,
    kernel: &KernelInfo,
    args: &[Value],
    buffers: &BufferTable,
    range: &NdRange,
    local_bytes: usize,
    config: &LaunchConfig,
) -> Result<CostCounters> {
    let total_groups = range.total_groups();
    if total_groups == 0 {
        return Ok(CostCounters::default());
    }
    let state = Arc::new(LaunchState::new(
        program,
        kernel,
        args,
        buffers,
        range,
        local_bytes,
        config,
    ));
    let pool = device.worker_pool();
    // More threads than groups would only wake up to find the cursor spent.
    let threads = config
        .host_threads
        .unwrap_or(pool.threads())
        .clamp(1, total_groups);
    device.note_launch();
    pool.run(&state, threads);
    device.note_pool_groups(&state.worker_group_counts());
    state.outcome()
}
