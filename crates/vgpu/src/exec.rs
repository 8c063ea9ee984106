//! The work-group execution engine.
//!
//! Work-groups are independent (as in OpenCL) and are executed in parallel
//! on host threads. The work-group is also the unit of *execution*: a
//! worker arms one reusable [`WorkGroup`] per group and the VM runs each
//! decoded instruction once for a whole strip of the group's lanes
//! (`skelcl_kernel::vm`), splitting the active set at divergent branches
//! and parking lanes at `barrier()`. A group proceeds past a barrier once
//! *all* its lanes wait at the *same* site; anything else is reported as
//! [`Error::BarrierDivergence`] instead of OpenCL's undefined behaviour.
//! There is one group runner, [`run_group`], for kernels with and without
//! barriers.
//!
//! Launches run on the device's persistent [worker pool](crate::pool): a
//! launch costs a queue push and starts no thread, and a worker's group
//! state and local-memory arena are recycled across groups and launches.
//!
//! **What is guaranteed.** A launch's buffers, [`CostCounters`] and errors
//! are those of the tests' single-threaded reference launcher
//! (`tests/support`, built on `WorkItem::run_reference`): counters are
//! bit-identical — simulated-time results cannot drift with the engine —
//! and a failing group reports its first event in row-major item order.
//! Buffers are bit-identical for kernels free of data races *within a
//! group between two barriers*. A kernel that does race there still gets a
//! result that is a function of program and launch only — independent of
//! `host_threads`, of the device count and of the run — because the lanes
//! of a group execute in a fixed order: strip after strip, within a strip
//! instruction by instruction, lanes ascending within one instruction. It
//! just need not be the result of running the items one after another.
//! (Races *between* groups are the kernel's own, as on real hardware.)
//!
//! **Hot-path rule.** Nothing a pool thread executes per instruction, per
//! work-item or per barrier round writes memory another pool thread
//! touches. Everything a launch shares is prepared once in
//! [`LaunchState::new`] and only read afterwards; the one shared write on
//! the way, the group cursor, happens once per work-*group* on a cache line
//! of its own; counters, lane statistics, failures and steal telemetry are
//! merged once per worker per launch. DESIGN.md §5g tabulates every piece
//! of shared state against this rule.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

use skelcl_kernel::program::{KernelInfo, Program};
use skelcl_kernel::value::Value;
use skelcl_kernel::vm::{
    CostCounters, EntryFrame, Exit, GroupFault, GroupStats, ItemGeometry, WorkGroup,
};

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
    /// Program handle, arguments and `__local` bindings: what every lane of
    /// every group starts from.
    entry: EntryFrame,
    kernel_name: String,
    buffers: BufferTable,
    /// The launch-wide half of every group's geometry (the ids are zero).
    geometry: ItemGeometry,
    local_bytes: usize,
    ops_budget: u64,
    total_groups: usize,
    abort: AtomicBool,
    /// Deliberate fault to inject (tests only).
    fault: Option<FaultInjection>,
    /// Completion latch, shared separately from the payload so a worker
    /// can release its payload reference *before* arriving.
    latch: Arc<Latch>,
    failure: Mutex<Option<Error>>,
    /// What the workers' groups add up to: the cost counters the simulated
    /// clock is computed from, and how well the lanes were used.
    totals: Mutex<GroupStats>,
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
            local_bytes,
            ops_budget: config.ops_budget_per_item,
            total_groups: range.total_groups(),
            abort: AtomicBool::new(false),
            fault: config.fault_injection,
            latch: Arc::new(Latch::default()),
            failure: Mutex::new(None),
            totals: Mutex::new(GroupStats::default()),
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

    /// The launch outcome: the first failure, or the merged totals.
    fn outcome(&self) -> Result<GroupStats> {
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
}

/// Per-worker reusable execution state. Owned by a pool thread and kept
/// across launches, so in steady state a launch performs no group-state or
/// local-memory allocation at all.
#[derive(Default)]
pub(crate) struct WorkerScratch {
    /// The group executor: its strips' register files, sized by the
    /// largest kernel seen so far.
    group: WorkGroup,
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
    let mut totals = GroupStats::default();
    let mut groups_executed = 0u64;
    loop {
        if state.abort.load(Ordering::Relaxed) {
            break;
        }
        let g = state.next_group.0.fetch_add(1, Ordering::Relaxed);
        if g >= state.total_groups {
            break;
        }
        scratch.local_mem.clear();
        scratch.local_mem.resize(state.local_bytes, 0);
        if let Err(e) = run_group(state, scratch, state.group_id(g)) {
            state.fail(e);
            break;
        }
        totals.merge(&scratch.group.stats);
        groups_executed += 1;
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
        .merge(&totals);
}

/// Runs one work-group to completion on the worker's group state: started
/// from the launch's entry frame, resumed past every barrier all its lanes
/// reached together.
fn run_group(state: &LaunchState, scratch: &mut WorkerScratch, group_id: [u64; 3]) -> Result<()> {
    let group = &mut scratch.group;
    let geometry = ItemGeometry {
        group_id,
        ..state.geometry
    };
    group.arm(geometry, state.ops_budget);
    loop {
        match group.run(&state.entry, &state.buffers, &mut scratch.local_mem) {
            Ok(Exit::Done) => return Ok(()),
            Ok(Exit::Barrier(_)) => {}
            Err(GroupFault::Lane { lane, error }) => {
                return Err(Error::Launch {
                    kernel: state.kernel_name.clone(),
                    global_id: group.global_id(lane),
                    error,
                })
            }
            Err(GroupFault::BarrierDivergence) => {
                return Err(Error::BarrierDivergence {
                    kernel: state.kernel_name.clone(),
                    group_id,
                })
            }
        }
    }
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
    let totals = state.outcome()?;
    device.note_lanes(&totals);
    Ok(totals.counters)
}
