//! The SkelCL context: the analogue of the paper's `SkelCL::init()`.
//!
//! A [`Context`] owns the platform's devices (all of them, or a selected
//! count) and one command queue per device. Containers and skeletons hold a
//! clone of the context, which is cheap (`Arc` internally).
//!
//! The context also carries the session's [`Config`] — every `SKELCL_*`
//! setting, resolved once at init — the observability handles built from
//! it (the [`Profiler`] and the [`FlightRecorder`]), and a cache of compiled skeleton programs keyed by
//! source hash.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use skelcl_profile::{FlightRecorder, Profiler};
use vgpu::{CommandQueue, DeviceSpec, LaunchConfig, Platform};

use crate::config::Config;
use crate::distribution::{ChunkPlan, Distribution};
use crate::schedule::{Scheduler, DEFAULT_EWMA_ALPHA};

/// Which devices of the platform SkelCL should use (the paper's
/// `SkelCL::init()` device-selection knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceSelection {
    /// Every device in the platform.
    All,
    /// The first `n` devices.
    Count(usize),
}

#[derive(Debug)]
struct ContextInner {
    platform: Platform,
    config: Config,
    queues: Vec<CommandQueue>,
    launch_config: LaunchConfig,
    profiler: Profiler,
    flight: FlightRecorder,
    scheduler: Scheduler,
    /// Compiled skeleton programs, keyed by a 128-bit hash of the
    /// generated source (wide enough that two distinct sources can never
    /// collide in practice).
    program_cache: Mutex<HashMap<u128, skelcl_kernel::Program>>,
}

impl Drop for ContextInner {
    fn drop(&mut self) {
        // Drain every queue first: completion callbacks are what record
        // device spans, so the trace below must not race outstanding work.
        for queue in &self.queues {
            let _ = queue.finish();
        }
        // `SKELCL_TRACE=<path>` dumps the Chrome trace of the session when
        // it ends, so any example can produce a trace with no code changes.
        if let Some(path) = &self.config.trace {
            if let Some(trace) = self.profiler.chrome_trace_json() {
                if let Err(e) = std::fs::write(path, trace) {
                    eprintln!("skelcl: failed to write trace to {}: {e}", path.display());
                }
            }
        }
    }
}

/// A SkelCL session: selected devices plus their queues.
#[derive(Debug, Clone)]
pub struct Context {
    inner: Arc<ContextInner>,
}

impl Context {
    /// Initialises SkelCL on `platform` with the given device selection —
    /// the analogue of `SkelCL::init()` — configured from the environment
    /// ([`Config::from_env`]).
    ///
    /// # Panics
    ///
    /// Panics if the selection is `Count(0)` or exceeds the platform.
    pub fn init(platform: Platform, selection: DeviceSelection) -> Self {
        Context::init_with_config(platform, selection, Config::from_env())
    }

    /// [`Context::init`] with an explicit configuration; reads no
    /// environment. The profiler and flight recorder are built from it.
    ///
    /// # Panics
    ///
    /// As for [`Context::init`].
    pub fn init_with_config(
        platform: Platform,
        selection: DeviceSelection,
        config: Config,
    ) -> Self {
        let profiler = if config.profiling() {
            Profiler::enabled()
        } else {
            Profiler::disabled()
        };
        let flight = FlightRecorder::with_capacity(config.flight_capacity);
        Context::build(platform, selection, config, profiler, flight)
    }

    /// [`Context::init`] with an explicit profiler handle in place of the
    /// one `SKELCL_PROFILE` / `SKELCL_TRACE` would select.
    ///
    /// # Panics
    ///
    /// As for [`Context::init`].
    pub fn init_with_profiler(
        platform: Platform,
        selection: DeviceSelection,
        profiler: Profiler,
    ) -> Self {
        let config = Config::from_env();
        let flight = FlightRecorder::with_capacity(config.flight_capacity);
        Context::build(platform, selection, config, profiler, flight)
    }

    /// [`Context::init`] with explicit observability handles — profiler
    /// *and* flight recorder — in place of the ones the environment would
    /// select (tests inject handles here to inspect them afterwards).
    ///
    /// # Panics
    ///
    /// As for [`Context::init`].
    pub fn init_with_observability(
        platform: Platform,
        selection: DeviceSelection,
        profiler: Profiler,
        flight: FlightRecorder,
    ) -> Self {
        Context::build(platform, selection, Config::from_env(), profiler, flight)
    }

    /// Assembles the session: installs the queue telemetry observers on
    /// every selected device queue. The stored configuration describes
    /// the handles actually in use.
    fn build(
        platform: Platform,
        selection: DeviceSelection,
        mut config: Config,
        profiler: Profiler,
        flight: FlightRecorder,
    ) -> Self {
        let count = match selection {
            DeviceSelection::All => platform.device_count(),
            DeviceSelection::Count(n) => {
                assert!(
                    n > 0 && n <= platform.device_count(),
                    "device selection {n} out of range (platform has {})",
                    platform.device_count()
                );
                n
            }
        };
        let queues: Vec<CommandQueue> = (0..count).map(|i| platform.queue(i)).collect();
        for queue in &queues {
            flight.attach_queue(&profiler, queue);
        }
        config.profile = profiler.is_enabled();
        config.flight_capacity = flight.capacity();
        Context {
            inner: Arc::new(ContextInner {
                platform,
                queues,
                launch_config: LaunchConfig::default(),
                profiler,
                flight,
                scheduler: Scheduler::new(config.schedule, DEFAULT_EWMA_ALPHA),
                config,
                program_cache: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// A context on the paper's testbed: all 4 GPUs of a Tesla S1070.
    pub fn tesla_s1070() -> Self {
        Context::init(Platform::tesla_s1070(), DeviceSelection::All)
    }

    /// A single-GPU context (one Tesla T10), for the paper's single-GPU
    /// experiments.
    pub fn single_gpu() -> Self {
        Context::init(
            Platform::single(DeviceSpec::tesla_t10()),
            DeviceSelection::All,
        )
    }

    /// Number of devices in use.
    pub fn device_count(&self) -> usize {
        self.inner.queues.len()
    }

    /// The queue of device `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn queue(&self, index: usize) -> &CommandQueue {
        &self.inner.queues[index]
    }

    /// All queues, ordered by device index.
    pub fn queues(&self) -> &[CommandQueue] {
        &self.inner.queues
    }

    /// The underlying platform.
    pub fn platform(&self) -> &Platform {
        &self.inner.platform
    }

    /// The session's configuration, as resolved when it was initialised.
    pub fn config(&self) -> &Config {
        &self.inner.config
    }

    /// The launch configuration used by skeleton executions.
    pub fn launch_config(&self) -> &LaunchConfig {
        &self.inner.launch_config
    }

    /// Whether two contexts refer to the same session.
    pub fn same_as(&self, other: &Context) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Blocks until every command enqueued on every device queue has
    /// completed (the analogue of calling `clFinish` on each queue).
    /// Skeleton `call`s wait for their own plans, so this is only needed
    /// when synchronising with work driven through the queues directly.
    pub fn finish(&self) -> crate::error::Result<()> {
        for queue in &self.inner.queues {
            queue.finish()?;
        }
        Ok(())
    }

    /// The session's profiler (disabled unless requested — see
    /// [`Config::profiling`] and [`Context::init_with_profiler`]).
    pub fn profiler(&self) -> &Profiler {
        &self.inner.profiler
    }

    /// The session's flight recorder (disabled unless requested — see
    /// [`Config::flight_capacity`] and [`Context::init_with_observability`]).
    pub fn flight(&self) -> &FlightRecorder {
        &self.inner.flight
    }

    /// Renders the flight recorder's event ring as an aligned table —
    /// the on-demand counterpart of the automatic crash dump on
    /// [`vgpu::Error::DeviceLost`]. `None` when the recorder is disabled.
    pub fn dump_flight(&self) -> Option<String> {
        self.inner.flight.dump()
    }

    /// The session's chunk scheduler (policy from [`Config::schedule`], even
    /// by default; switchable at runtime via
    /// [`crate::schedule::Scheduler::set_policy`]).
    pub fn scheduler(&self) -> &Scheduler {
        &self.inner.scheduler
    }

    /// Plans `units` distribution units across this context's devices: the
    /// scheduler's weighted partition when adaptive and warm, the paper's
    /// even partition otherwise. Publishes the weights as per-device
    /// gauges when profiling.
    pub(crate) fn plan_units(&self, units: usize, dist: Distribution) -> Vec<ChunkPlan> {
        let devices = self.device_count();
        if let (Distribution::Block | Distribution::Overlap { .. }, Some(w)) =
            (dist, self.inner.scheduler.weights(devices))
        {
            if self.inner.profiler.is_enabled() {
                for (d, wi) in w.iter().enumerate() {
                    self.inner.profiler.set_device_gauge(
                        skelcl_profile::metrics::SCHED_WEIGHT,
                        d,
                        *wi,
                    );
                }
            }
            crate::distribution::plan_chunks_weighted(units, dist, &w)
        } else {
            crate::distribution::plan_chunks(units, devices, dist)
        }
    }

    /// Looks up a compiled program by source hash.
    pub(crate) fn cached_program(&self, hash: u128) -> Option<skelcl_kernel::Program> {
        self.inner.program_cache.lock().get(&hash).cloned()
    }

    /// Stores a compiled program under its source hash.
    pub(crate) fn store_program(&self, hash: u128, program: skelcl_kernel::Program) {
        self.inner.program_cache.lock().insert(hash, program);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_selects_devices() {
        let ctx = Context::init(Platform::tesla_s1070(), DeviceSelection::All);
        assert_eq!(ctx.device_count(), 4);
        let ctx = Context::init(Platform::tesla_s1070(), DeviceSelection::Count(2));
        assert_eq!(ctx.device_count(), 2);
        assert_eq!(ctx.queues().len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn init_rejects_oversized_selection() {
        let _ = Context::init(
            Platform::single(DeviceSpec::test_tiny()),
            DeviceSelection::Count(3),
        );
    }

    #[test]
    fn profiler_injectable_and_shared_by_clones() {
        let ctx = Context::init_with_profiler(
            Platform::single(DeviceSpec::test_tiny()),
            DeviceSelection::All,
            Profiler::enabled(),
        );
        assert!(ctx.profiler().is_enabled());
        assert!(ctx.clone().profiler().is_enabled());
    }

    #[test]
    fn program_cache_round_trip() {
        let ctx = Context::single_gpu();
        assert!(ctx.cached_program(42).is_none());
        let program = skelcl_kernel::compile(
            "cache_probe.cl",
            "__kernel void k(__global int* p){ p[0] = 1; }",
        )
        .unwrap();
        ctx.store_program(42, program);
        assert!(ctx.cached_program(42).is_some());
    }

    #[test]
    fn clones_share_the_session() {
        let a = Context::single_gpu();
        let b = a.clone();
        assert!(a.same_as(&b));
        let c = Context::single_gpu();
        assert!(!a.same_as(&c));
    }
}
