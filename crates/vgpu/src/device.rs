//! Virtual device model: hardware parameters and per-device state.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use skelcl_kernel::vm::GroupStats;

use crate::exec::default_host_threads;
use crate::pool::WorkerPool;

/// Identifies a device within a [`crate::Platform`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub usize);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gpu{}", self.0)
    }
}

/// Static hardware parameters of a virtual device; inputs to the analytic
/// cost model (see [`crate::cost`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name, for listings.
    pub name: String,
    /// Number of scalar cores (streaming processors).
    pub cores: u32,
    /// Core clock in Hz.
    pub clock_hz: u64,
    /// Average cycles per executed VM instruction.
    pub cycles_per_op: f64,
    /// Effective amortised cycles per global-memory access (latency hidden
    /// by multithreading, as on real GPUs — far higher than local memory).
    pub cycles_per_global_access: f64,
    /// Effective cycles per local-memory (scratchpad) access.
    pub cycles_per_local_access: f64,
    /// Global memory bandwidth in bytes/second.
    pub global_bandwidth: f64,
    /// Device memory capacity in bytes.
    pub memory_bytes: usize,
    /// Local memory per work-group in bytes.
    pub local_memory_bytes: usize,
    /// Maximum work-items per work-group.
    pub max_work_group_size: usize,
    /// Fixed simulated overhead per kernel launch in nanoseconds.
    pub kernel_launch_overhead_ns: u64,
    /// Fixed simulated latency per host↔device transfer in nanoseconds
    /// (PCIe round trip + driver).
    pub transfer_latency_ns: u64,
    /// Host↔device transfer bandwidth in bytes/second (PCIe).
    pub transfer_bandwidth: f64,
    /// Speedup factor applied to kernels built with the CUDA toolchain
    /// relative to OpenCL. The paper observes CUDA ≈ 31% faster than
    /// OpenCL-generated code for the same kernel ([Kong et al. 2010]).
    pub cuda_toolchain_speedup: f64,
}

impl DeviceSpec {
    /// One GPU of the paper's NVIDIA Tesla S1070 system: 240 streaming
    /// processors at 1.44 GHz, 4 GB memory at 102 GB/s per GPU.
    ///
    /// Calibration notes: one VM instruction is weighted at 0.25 cycles
    /// because the stack machine executes ~4 bytecode ops per hardware
    /// instruction (pushes, pops and jumps are free in registers on the
    /// real chip). Global accesses cost 120 effective cycles — a ~500-cycle
    /// DRAM latency amortised ~4× by warp-level multithreading, which is
    /// what makes local-memory kernels win, as in the paper's Fig. 5.
    pub fn tesla_t10() -> Self {
        DeviceSpec {
            name: "Virtual Tesla T10 (S1070 node)".into(),
            cores: 240,
            clock_hz: 1_440_000_000,
            cycles_per_op: 0.25,
            cycles_per_global_access: 120.0,
            cycles_per_local_access: 1.0,
            global_bandwidth: 102.0e9,
            memory_bytes: 4 << 30,
            local_memory_bytes: 16 << 10,
            max_work_group_size: 512,
            kernel_launch_overhead_ns: 8_000,
            transfer_latency_ns: 12_000,
            transfer_bandwidth: 5.3e9,
            cuda_toolchain_speedup: 1.39,
        }
    }

    /// A copy of this spec with compute and memory throughput scaled by
    /// `factor` (clock, global bandwidth and transfer bandwidth; latencies
    /// and capacities untouched). `scaled(0.5)` models a device half as
    /// fast — the building block for skewed multi-GPU platforms.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive or non-finite factor.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "spec scale factor must be positive and finite, got {factor}"
        );
        DeviceSpec {
            name: format!("{} x{factor}", self.name),
            clock_hz: (self.clock_hz as f64 * factor) as u64,
            global_bandwidth: self.global_bandwidth * factor,
            transfer_bandwidth: self.transfer_bandwidth * factor,
            ..self.clone()
        }
    }

    /// A deliberately tiny device for fast unit tests (few cores, small
    /// memory so capacity errors are easy to provoke).
    pub fn test_tiny() -> Self {
        DeviceSpec {
            name: "Test Tiny".into(),
            cores: 4,
            clock_hz: 1_000_000_000,
            cycles_per_op: 1.0,
            cycles_per_global_access: 20.0,
            cycles_per_local_access: 2.0,
            global_bandwidth: 10.0e9,
            memory_bytes: 1 << 20,
            local_memory_bytes: 4 << 10,
            max_work_group_size: 256,
            kernel_launch_overhead_ns: 1_000,
            transfer_latency_ns: 1_000,
            transfer_bandwidth: 1.0e9,
            cuda_toolchain_speedup: 1.39,
        }
    }
}

impl Default for DeviceSpec {
    fn default() -> Self {
        DeviceSpec::tesla_t10()
    }
}

/// Host-side execution statistics of one device (or a whole platform when
/// aggregated): how many launches ran on the persistent worker pool, how
/// its steal cursor dealt their work-groups, and how full the group
/// executor's lanes were.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Total kernel launches executed.
    pub launches: u64,
    /// Persistent pool threads currently alive.
    pub pool_threads: u64,
    /// Total work-groups executed by the persistent pool.
    pub pool_groups_executed: u64,
    /// Pool workers the last launch woke:
    /// `min(host_threads, pool threads, work-groups)`.
    pub last_launch_workers: u64,
    /// Most work-groups any one pool worker executed in the last launch
    /// (steal-cursor telemetry).
    pub last_steal_max_groups: u64,
    /// Fewest work-groups any one pool worker executed in the last launch. `max == min` means the atomic steal cursor dealt groups
    /// perfectly evenly; a zero `min` with a nonzero `max` means a worker
    /// starved.
    pub last_steal_min_groups: u64,
    /// Instructions the group executor ran: one per decoded head per strip
    /// of a work-group's lanes (up to 64 of them), however many it covered.
    pub group_steps: u64,
    /// Σ lanes active over `group_steps` — per-lane instruction executions.
    pub lane_ops: u64,
    /// Σ lanes *armed* over `group_steps`: what `lane_ops` would be had no
    /// lane ever diverged (`group_steps × items_per_group` for groups of up
    /// to a strip, summed over launches of different shapes).
    pub lane_slots: u64,
}

impl ExecStats {
    /// Adds another device's stats into this one (platform aggregation).
    /// Counters sum; the last-launch steal extrema combine as the widest
    /// observed spread (max of maxes, min of mins over devices that ran
    /// work).
    pub fn merge(&mut self, other: &ExecStats) {
        self.last_steal_min_groups = if self.pool_groups_executed == 0 {
            other.last_steal_min_groups
        } else if other.pool_groups_executed == 0 {
            self.last_steal_min_groups
        } else {
            self.last_steal_min_groups.min(other.last_steal_min_groups)
        };
        self.last_steal_max_groups = self.last_steal_max_groups.max(other.last_steal_max_groups);
        self.launches += other.launches;
        self.pool_threads += other.pool_threads;
        self.pool_groups_executed += other.pool_groups_executed;
        self.last_launch_workers += other.last_launch_workers;
        self.group_steps += other.group_steps;
        self.lane_ops += other.lane_ops;
        self.lane_slots += other.lane_slots;
    }

    /// Share of lane slots that did work: `lane_ops / lane_slots`. 1.0
    /// means no lane ever diverged; a kernel whose lanes leave a loop one
    /// by one pays the difference as instructions run for a few lanes
    /// only. 0.0 when no kernel ran.
    pub fn lane_utilisation(&self) -> f64 {
        if self.lane_slots == 0 {
            0.0
        } else {
            self.lane_ops as f64 / self.lane_slots as f64
        }
    }

    /// Steal balance of the last launch: `min/max` groups per worker (1.0 =
    /// perfectly even; 0.0 = a worker starved; 0.0 also when no launch ran).
    pub fn steal_balance(&self) -> f64 {
        if self.last_steal_max_groups == 0 {
            0.0
        } else {
            self.last_steal_min_groups as f64 / self.last_steal_max_groups as f64
        }
    }
}

/// A virtual compute device: spec plus mutable state (memory accounting,
/// the simulated timeline, and the persistent execution worker pool).
#[derive(Debug)]
pub struct Device {
    id: DeviceId,
    spec: DeviceSpec,
    allocated: AtomicUsize,
    /// High-water mark of `allocated` since creation (or the last
    /// [`Device::reset_peak`]). Lets streaming harnesses assert peak
    /// residency stayed within a budget.
    peak_allocated: AtomicUsize,
    /// The device timeline in simulated nanoseconds. Commands enqueued to
    /// this device execute in order at this clock.
    clock_ns: AtomicU64,
    /// Persistent worker pool; created on the first launch, joined on drop.
    pool: OnceLock<WorkerPool>,
    launches: AtomicU64,
    pool_groups: AtomicU64,
    last_workers: AtomicU64,
    steal_max: AtomicU64,
    steal_min: AtomicU64,
    group_steps: AtomicU64,
    lane_ops: AtomicU64,
    lane_slots: AtomicU64,
}

impl Device {
    /// Creates a device.
    pub fn new(id: DeviceId, spec: DeviceSpec) -> Self {
        Device {
            id,
            spec,
            allocated: AtomicUsize::new(0),
            peak_allocated: AtomicUsize::new(0),
            clock_ns: AtomicU64::new(0),
            pool: OnceLock::new(),
            launches: AtomicU64::new(0),
            pool_groups: AtomicU64::new(0),
            last_workers: AtomicU64::new(0),
            steal_max: AtomicU64::new(0),
            steal_min: AtomicU64::new(0),
            group_steps: AtomicU64::new(0),
            lane_ops: AtomicU64::new(0),
            lane_slots: AtomicU64::new(0),
        }
    }

    /// The device's id within its platform.
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// The device's hardware parameters.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Bytes currently allocated on this device.
    pub fn allocated_bytes(&self) -> usize {
        self.allocated.load(Ordering::Relaxed)
    }

    /// The highest concurrent allocation observed since creation or the
    /// last [`Device::reset_peak`].
    pub fn peak_allocated_bytes(&self) -> usize {
        self.peak_allocated.load(Ordering::Relaxed)
    }

    /// Resets the allocation high-water mark to the current allocation.
    pub fn reset_peak(&self) {
        self.peak_allocated
            .store(self.allocated_bytes(), Ordering::Relaxed);
    }

    /// Bytes still available for allocation. Saturating: concurrent
    /// reservations may momentarily push the observed allocation past
    /// capacity, which reads as 0 available rather than underflowing.
    pub fn available_bytes(&self) -> usize {
        self.spec
            .memory_bytes
            .saturating_sub(self.allocated_bytes())
    }

    /// Reserves `bytes` of device memory.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::OutOfDeviceMemory`] when capacity is
    /// exhausted.
    pub(crate) fn reserve(&self, bytes: usize) -> crate::Result<()> {
        let mut current = self.allocated.load(Ordering::Relaxed);
        loop {
            let new = current.saturating_add(bytes);
            if new > self.spec.memory_bytes {
                return Err(crate::Error::OutOfDeviceMemory {
                    requested: bytes,
                    available: self.spec.memory_bytes.saturating_sub(current),
                });
            }
            match self.allocated.compare_exchange_weak(
                current,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.peak_allocated.fetch_max(new, Ordering::Relaxed);
                    return Ok(());
                }
                Err(actual) => current = actual,
            }
        }
    }

    /// Releases `bytes` of device memory (called by buffer drops).
    /// Saturating: releasing more than is allocated clamps to 0 instead of
    /// wrapping into a multi-exabyte phantom allocation.
    pub(crate) fn release(&self, bytes: usize) {
        let prev = self
            .allocated
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(cur.saturating_sub(bytes))
            })
            .expect("fetch_update closure never returns None");
        debug_assert!(
            prev >= bytes,
            "device {} released {bytes} bytes with only {prev} allocated",
            self.id
        );
    }

    /// The persistent execution worker pool, created on first use with one
    /// worker per available CPU. How many of them a launch wakes is the
    /// launch's business ([`crate::LaunchConfig::host_threads`]).
    pub(crate) fn worker_pool(&self) -> &WorkerPool {
        self.pool
            .get_or_init(|| WorkerPool::new(self.id.0, default_host_threads()))
    }

    /// Records one launch dispatch for [`Device::exec_stats`].
    pub(crate) fn note_launch(&self) {
        self.launches.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the per-worker group counts of a finished launch
    /// (steal-cursor telemetry for [`Device::exec_stats`]).
    pub(crate) fn note_pool_groups(&self, per_worker: &[u64]) {
        if per_worker.is_empty() {
            return;
        }
        self.last_workers
            .store(per_worker.len() as u64, Ordering::Relaxed);
        let total: u64 = per_worker.iter().sum();
        let max = per_worker.iter().copied().max().unwrap_or(0);
        let min = per_worker.iter().copied().min().unwrap_or(0);
        self.pool_groups.fetch_add(total, Ordering::Relaxed);
        self.steal_max.store(max, Ordering::Relaxed);
        self.steal_min.store(min, Ordering::Relaxed);
    }

    /// Records a finished launch's lane statistics for
    /// [`Device::exec_stats`].
    pub(crate) fn note_lanes(&self, stats: &GroupStats) {
        self.group_steps.fetch_add(stats.steps, Ordering::Relaxed);
        self.lane_ops.fetch_add(stats.lane_steps, Ordering::Relaxed);
        self.lane_slots
            .fetch_add(stats.lane_slots, Ordering::Relaxed);
    }

    /// A snapshot of this device's host-side execution statistics.
    pub fn exec_stats(&self) -> ExecStats {
        ExecStats {
            launches: self.launches.load(Ordering::Relaxed),
            pool_threads: self.pool.get().map_or(0, |p| p.threads() as u64),
            pool_groups_executed: self.pool_groups.load(Ordering::Relaxed),
            last_launch_workers: self.last_workers.load(Ordering::Relaxed),
            last_steal_max_groups: self.steal_max.load(Ordering::Relaxed),
            last_steal_min_groups: self.steal_min.load(Ordering::Relaxed),
            group_steps: self.group_steps.load(Ordering::Relaxed),
            lane_ops: self.lane_ops.load(Ordering::Relaxed),
            lane_slots: self.lane_slots.load(Ordering::Relaxed),
        }
    }

    /// Current simulated time of this device's timeline in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.clock_ns.load(Ordering::Relaxed)
    }

    /// Advances the timeline by `duration_ns`, returning the command's
    /// `(start, end)` timestamps.
    pub(crate) fn advance(&self, duration_ns: u64) -> (u64, u64) {
        let start = self.clock_ns.fetch_add(duration_ns, Ordering::Relaxed);
        (start, start + duration_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tesla_preset_matches_paper_hardware() {
        let s = DeviceSpec::tesla_t10();
        assert_eq!(s.cores, 240);
        assert_eq!(s.clock_hz, 1_440_000_000);
        assert_eq!(s.memory_bytes, 4 << 30);
        assert!((s.global_bandwidth - 102.0e9).abs() < 1.0);
    }

    #[test]
    fn memory_accounting() {
        let d = Device::new(DeviceId(0), DeviceSpec::test_tiny());
        assert_eq!(d.allocated_bytes(), 0);
        d.reserve(1000).unwrap();
        assert_eq!(d.allocated_bytes(), 1000);
        d.reserve(d.available_bytes()).unwrap();
        assert!(d.reserve(1).is_err());
        d.release(1000);
        d.reserve(500).unwrap();
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "released"))]
    fn over_release_saturates_instead_of_wrapping() {
        let d = Device::new(DeviceId(0), DeviceSpec::test_tiny());
        d.reserve(100).unwrap();
        // Releasing more than allocated is a bookkeeping bug: debug builds
        // assert, release builds clamp to zero instead of wrapping the
        // counter into a phantom multi-exabyte allocation.
        d.release(200);
        assert_eq!(d.allocated_bytes(), 0);
        assert_eq!(d.available_bytes(), d.spec().memory_bytes);
        // Accounting still works afterwards.
        d.reserve(d.spec().memory_bytes).unwrap();
        assert!(d.reserve(1).is_err());
    }

    #[test]
    fn out_of_memory_error_reports_saturated_available() {
        let d = Device::new(DeviceId(0), DeviceSpec::test_tiny());
        d.reserve(d.spec().memory_bytes).unwrap();
        match d.reserve(usize::MAX) {
            Err(crate::Error::OutOfDeviceMemory {
                requested,
                available,
            }) => {
                assert_eq!(requested, usize::MAX);
                assert_eq!(available, 0);
            }
            other => panic!("expected OutOfDeviceMemory, got {other:?}"),
        }
    }

    #[test]
    fn exec_stats_start_empty() {
        let d = Device::new(DeviceId(0), DeviceSpec::test_tiny());
        assert_eq!(d.exec_stats(), ExecStats::default());
        d.note_launch();
        d.note_launch();
        let s = d.exec_stats();
        assert_eq!(s.launches, 2);
        assert_eq!(s.pool_threads, 0); // no pool created yet
    }

    #[test]
    fn timeline_advances_monotonically() {
        let d = Device::new(DeviceId(0), DeviceSpec::test_tiny());
        let (s1, e1) = d.advance(100);
        let (s2, e2) = d.advance(50);
        assert_eq!((s1, e1), (0, 100));
        assert_eq!((s2, e2), (100, 150));
        assert_eq!(d.now_ns(), 150);
    }

    #[test]
    fn device_id_display() {
        assert_eq!(DeviceId(2).to_string(), "gpu2");
    }
}
