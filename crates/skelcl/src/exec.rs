//! The skeleton execution pipeline (paper §3.3: a skeleton is "a
//! higher-order function customized by a user function welded into a
//! complete kernel").
//!
//! Every skeleton call is the same sequence: open the profiler span and
//! validate the extra arguments ([`SkeletonCore`]), pick a distribution,
//! materialise the inputs, launch the welded kernel once per device chunk
//! and record the events. For the map-like skeletons — `Map`, `Zip`,
//! `MapOverlapVec`, matrix `MapOverlap` and the plan layer's fused and
//! staged regions — everything after the span is one function,
//! [`run_map_region`]: the caller describes the region ([`MapRegion`]) and
//! supplies the kernel's argument list for one [`ChunkView`]; the executor
//! chooses the resident or the streamed side from the device budget and
//! calls the same closure for a device's whole share or for a ring chunk.
//! `Reduce`, `Scan` and `Allpairs` build their own [`LaunchPlan`]s and
//! share [`run_plan`].

use std::sync::Arc;

use vgpu::{DeviceBuffer, Event, KernelArg, NdRange};

use crate::container::data::{DeviceChunk, DistributedData};
use crate::context::Context;
use crate::distribution::{ChunkPlan, Distribution};
use crate::engine::{LaunchPlan, NodeId};
use crate::error::{Error, Result};
use crate::skeleton::EventLog;
use crate::stream::{plan_stream, stream_map_like, ChunkLifecycle};
use crate::types::{from_bytes, KernelScalar};
use skelcl_kernel::types::{ScalarType, Type};
use skelcl_kernel::value::Value;

/// Work-group size of the 1-D stencil and scan-offset launches.
pub(crate) const WG: usize = 256;

/// Common behaviour of every skeleton: identification, the owning context,
/// profiling of the most recent call and access to the generated kernel.
///
/// All skeletons ([`crate::Map`], [`crate::Zip`], [`crate::Reduce`],
/// [`crate::Scan`], [`crate::MapOverlap`], [`crate::MapOverlapVec`],
/// [`crate::Allpairs`]) implement this trait; it is the uniform surface of
/// the execution pipeline they all run on.
pub trait Skeleton {
    /// The skeleton's name as used in profiler spans (e.g. `"Map"`).
    fn name(&self) -> &'static str;

    /// The context the skeleton was created on.
    fn context(&self) -> &Context;

    /// Profiling of the most recent call.
    fn events(&self) -> &EventLog;

    /// The generated kernel program's disassembly (debugging aid).
    fn kernel_disassembly(&self) -> String;
}

/// Implements [`Skeleton`] and the inherent `events()` accessor for a
/// skeleton type that keeps its shared state in a `core: SkeletonCore`
/// field.
macro_rules! impl_skeleton {
    ($ty:ident<$($p:ident),+>) => {
        impl<$($p: $crate::types::KernelScalar),+> $ty<$($p),+> {
            /// Profiling of the most recent call.
            pub fn events(&self) -> &$crate::skeleton::EventLog {
                &self.core.events
            }
        }

        impl<$($p: $crate::types::KernelScalar),+> $crate::exec::Skeleton for $ty<$($p),+> {
            fn name(&self) -> &'static str {
                self.core.name
            }

            fn context(&self) -> &$crate::context::Context {
                &self.core.ctx
            }

            fn events(&self) -> &$crate::skeleton::EventLog {
                &self.core.events
            }

            fn kernel_disassembly(&self) -> String {
                self.core.program.disassemble()
            }
        }
    };
}
pub(crate) use impl_skeleton;

/// The shared state of every skeleton: context, welded program, extra
/// parameter types and the per-skeleton event log.
#[derive(Debug)]
pub(crate) struct SkeletonCore {
    /// The owning context.
    pub ctx: Context,
    /// The compiled program containing the welded kernels.
    pub program: skelcl_kernel::Program,
    /// Skeleton name for spans and error messages.
    pub name: &'static str,
    /// Extra scalar parameter types of the customizing function.
    pub extras: Vec<Type>,
    /// Events of the most recent call.
    pub events: EventLog,
}

impl SkeletonCore {
    /// Creates the core with an empty event log.
    pub fn new(
        ctx: &Context,
        name: &'static str,
        program: skelcl_kernel::Program,
        extras: Vec<Type>,
    ) -> Self {
        SkeletonCore {
            ctx: ctx.clone(),
            program,
            name,
            extras,
            events: EventLog::default(),
        }
    }

    /// Opens the host-lane span for one invocation (`op` is the full
    /// label, e.g. `"Map.call"`) and bumps the `skeleton.calls` counter.
    /// Inert when profiling is disabled.
    pub fn begin(&self, op: &'static str) -> skelcl_profile::SpanGuard {
        skeleton_span(&self.ctx, op)
    }

    /// Validates the number of extra argument values supplied at call
    /// time.
    pub fn check_extras(&self, supplied: &[Value]) -> Result<()> {
        crate::codegen::check_extra_args(self.name, &self.extras, supplied)
    }

    /// Rejects a container created on another context.
    pub fn check_ctx(&self, container: &Context) -> Result<()> {
        check_same_context(&self.ctx, container)
    }

    /// Executes `kernel` over hand-built launches and records the events.
    pub fn run(&self, kernel: &str, launches: Vec<DeviceLaunch>) -> Result<()> {
        let events = run_launches(&self.ctx, &self.program, kernel, launches)?;
        self.events.record(events);
        Ok(())
    }

    /// Runs a map-like region of this skeleton's program through
    /// [`run_map_region`] and records the events.
    pub fn run_region<O: KernelScalar>(
        &self,
        region: &MapRegion<'_>,
        build: BuildArgs<'_>,
    ) -> Result<Arc<DistributedData<O>>> {
        let mut events = Vec::new();
        let output = run_map_region(region, build, &mut events)?;
        self.events.record(events);
        Ok(output)
    }

    /// Runs the skeleton's welded elementwise `kernel` over `sources`.
    pub fn elementwise<O: KernelScalar>(
        &self,
        kernel: &str,
        sources: &[&dyn ElementwiseInput],
        extra: &[Value],
    ) -> Result<Arc<DistributedData<O>>> {
        self.run_region(
            &MapRegion::elementwise(&self.ctx, sources, &self.program, kernel),
            &|view| elementwise_args(view, Vec::new(), extra),
        )
    }
}

/// A container of one context handed to a skeleton or region of another
/// is a shape error, not a launch on a foreign queue.
pub(crate) fn check_same_context(ctx: &Context, container: &Context) -> Result<()> {
    if ctx.same_as(container) {
        Ok(())
    } else {
        Err(Error::ShapeMismatch {
            reason: "container belongs to a different context than the skeleton".into(),
        })
    }
}

/// One device's share of a skeleton execution.
#[derive(Debug)]
pub(crate) struct DeviceLaunch {
    /// Device index within the context.
    pub device: usize,
    /// Kernel arguments.
    pub args: Vec<KernelArg>,
    /// Launch geometry.
    pub range: NdRange,
    /// Distribution units (elements or rows) this launch owns — the
    /// scheduler's throughput model divides them by the measured kernel
    /// time.
    pub units: usize,
}

/// Executes `plan`, waits for every node and returns the bytes of the
/// `reads` nodes in order; the plan's events are appended to `events`.
/// `chunks` are a streamed plan's ring tenancies (empty otherwise), for
/// the flight recorder.
pub(crate) fn run_plan(
    ctx: &Context,
    plan: LaunchPlan,
    reads: &[NodeId],
    chunks: &[ChunkLifecycle],
    events: &mut Vec<Event>,
) -> Result<Vec<Vec<u8>>> {
    let mut run = plan.execute(ctx)?;
    crate::stream::attach_chunk_lifecycle(ctx, run.events(), chunks);
    run.wait()?;
    let bytes = reads
        .iter()
        .map(|&id| run.take_read(id))
        .collect::<Result<_>>()?;
    events.extend(run.into_events());
    Ok(bytes)
}

/// Runs `kernel` on every listed device concurrently through the plan
/// engine — one independent plan node per device, executed by the
/// devices' asynchronous queues — and waits for completion, returning the
/// events in device order. Profiler spans and scheduler measurements are
/// recorded by the engine's completion callbacks.
pub(crate) fn run_launches(
    ctx: &Context,
    program: &skelcl_kernel::Program,
    kernel: &str,
    launches: Vec<DeviceLaunch>,
) -> Result<Vec<Event>> {
    let mut plan = LaunchPlan::new();
    for l in launches {
        plan.kernel(l.device, program, kernel, l.args, l.range, l.units, &[]);
    }
    let mut events = Vec::new();
    run_plan(ctx, plan, &[], &[], &mut events)?;
    publish_pool_gauges(ctx);
    Ok(events)
}

/// Publishes the worker pools' execution telemetry — groups executed,
/// thread count, the steal-cursor balance (min/max groups a worker ran in
/// the most recent launch) and the group executor's lane utilisation — as
/// per-device gauges. Inert when profiling is disabled.
pub(crate) fn publish_pool_gauges(ctx: &Context) {
    let profiler = ctx.profiler();
    if !profiler.is_enabled() {
        return;
    }
    use skelcl_profile::metrics as m;
    for d in 0..ctx.device_count() {
        let stats = ctx.platform().device(d).exec_stats();
        if stats.pool_groups_executed == 0 {
            continue;
        }
        profiler.set_device_gauge(m::POOL_GROUPS, d, stats.pool_groups_executed as f64);
        profiler.set_device_gauge(m::POOL_THREADS, d, stats.pool_threads as f64);
        profiler.set_device_gauge(m::POOL_STEAL_BALANCE, d, stats.steal_balance());
        profiler.set_device_gauge(m::POOL_LANE_UTILISATION, d, stats.lane_utilisation());
    }
}

/// Compact launch-geometry label for kernel spans, e.g. `1024/256`,
/// `4096x3072/16x16` or `64x64x64/8x8x4` (global/local per dimension).
pub(crate) fn nd_range_label(range: &NdRange) -> String {
    match range.dims {
        0 | 1 => format!("{}/{}", range.global[0], range.local[0]),
        2 => format!(
            "{}x{}/{}x{}",
            range.global[0], range.global[1], range.local[0], range.local[1]
        ),
        _ => format!(
            "{}x{}x{}/{}x{}x{}",
            range.global[0],
            range.global[1],
            range.global[2],
            range.local[0],
            range.local[1],
            range.local[2]
        ),
    }
}

/// Opens the host-lane span for one skeleton invocation and bumps the
/// `skeleton.calls` counter. Inert when profiling is disabled.
pub(crate) fn skeleton_span(ctx: &Context, name: &'static str) -> skelcl_profile::SpanGuard {
    let profiler = ctx.profiler();
    profiler.add(skelcl_profile::metrics::SKELETON_CALLS, 1);
    profiler.host_span(skelcl_profile::SpanKind::Skeleton, name)
}

/// Elementwise skeletons: no halo is needed, so an overlap
/// request degrades to block.
pub(crate) fn elementwise_distribution(requested: Distribution) -> Distribution {
    match requested {
        Distribution::Overlap { .. } => Distribution::Block,
        other => other,
    }
}

/// Reductions and scans: copy degrades to a single device
/// (combining the same copy on every GPU would be redundant work) and
/// overlap degrades to block (the halo would double-count elements).
pub(crate) fn reduction_distribution(requested: Distribution) -> Distribution {
    match requested {
        Distribution::Copy => Distribution::Single(0),
        Distribution::Overlap { .. } => Distribution::Block,
        other => other,
    }
}

/// Stencils of range `d`: block-style inputs need an overlap
/// halo of at least `d`; outputs are written core-only.
pub(crate) fn stencil_distributions(
    requested: Distribution,
    d: usize,
) -> (Distribution, Distribution) {
    match requested {
        Distribution::Single(dev) => (Distribution::Single(dev), Distribution::Single(dev)),
        Distribution::Copy => (Distribution::Copy, Distribution::Copy),
        Distribution::Block => (Distribution::Overlap { size: d }, Distribution::Block),
        Distribution::Overlap { size } => (
            Distribution::Overlap { size: size.max(d) },
            Distribution::Block,
        ),
    }
}

/// A container as the pipeline sees it: enough to resolve a distribution,
/// materialise device chunks and stage unit ranges without knowing the
/// element type. Implemented once, by the [`DistributedData`] both
/// [`crate::Vector`] and [`crate::Matrix`] wrap; plan leaves hold the
/// `Arc`.
pub(crate) trait ElementwiseInput: std::fmt::Debug + Send + Sync {
    /// The owning context.
    fn input_ctx(&self) -> &Context;
    /// Distribution units: elements of a vector, rows of a matrix.
    fn input_units(&self) -> usize;
    /// Elements per unit: 1 for a vector, the columns of a matrix.
    fn input_unit_elems(&self) -> usize;
    /// Total element count.
    fn input_len(&self) -> usize {
        self.input_units() * self.input_unit_elems()
    }
    /// Element scalar type.
    fn input_scalar(&self) -> ScalarType;
    /// The distribution the pipeline should use, given `default`.
    fn input_distribution(&self, default: Distribution) -> Distribution;
    /// Materialises the container under `dist` and returns its chunks.
    fn input_chunks(&self, dist: Distribution) -> Result<Vec<DeviceChunk>>;
    /// Marks device buffers as freshly written (plan lowering writes to
    /// them behind the container's back).
    fn input_mark_device_written(&self);
    /// Reads unit range `units` as raw bytes from the freshest copy,
    /// staging only intersecting device chunks when the host copy is
    /// stale (the streaming executor's partial-range source reads).
    fn input_host_units(&self, units: std::ops::Range<usize>) -> Result<Vec<u8>>;
    /// Downcast hook so a root-level staged intermediate can be returned
    /// as a typed container without a device round-trip.
    fn input_any(self: Arc<Self>) -> Arc<dyn std::any::Any + Send + Sync>;
}

/// Stable identity of a source's backing storage (fusion source dedup).
pub(crate) fn input_id(input: &dyn ElementwiseInput) -> usize {
    input as *const dyn ElementwiseInput as *const () as usize
}

/// Materialises every input under `dist`.
pub(crate) fn materialize(
    inputs: &[&dyn ElementwiseInput],
    dist: Distribution,
) -> Result<Vec<Vec<DeviceChunk>>> {
    inputs.iter().map(|i| i.input_chunks(dist)).collect()
}

/// Hook of a [`MapRegion`] whose sources carry cross-chunk state: runs
/// once before the first kernel is enqueued, with the materialised input
/// chunks (per source) on the resident side and `None` on the streamed
/// side, where ring chunks never line up with anything recorded earlier.
pub(crate) type BeforeLaunch<'a> =
    &'a dyn Fn(Option<&[Vec<DeviceChunk>]>, &mut Vec<Event>) -> Result<()>;

/// A span-less, type-erased description of one map-like region: one
/// output unit per input unit, every kernel instance reading its units
/// (± `halo`) of every source.
pub(crate) struct MapRegion<'a> {
    /// The context the region runs on.
    pub ctx: &'a Context,
    /// Input containers in kernel-parameter order; all share the first
    /// one's shape.
    pub sources: &'a [&'a dyn ElementwiseInput],
    /// Units each side of a chunk the kernel reads besides its own.
    pub halo: usize,
    /// Distribution the sources are materialised under.
    pub in_dist: Distribution,
    /// Distribution of the output (and the axis streaming chunks).
    pub out_dist: Distribution,
    /// The welded program.
    pub program: &'a skelcl_kernel::Program,
    /// Kernel entry point within `program`.
    pub kernel: &'a str,
    /// See [`BeforeLaunch`].
    pub before_launch: Option<BeforeLaunch<'a>>,
}

impl<'a> MapRegion<'a> {
    /// An elementwise region: every source follows the first one's
    /// distribution so their chunks align (others are redistributed
    /// implicitly).
    pub fn elementwise(
        ctx: &'a Context,
        sources: &'a [&'a dyn ElementwiseInput],
        program: &'a skelcl_kernel::Program,
        kernel: &'a str,
    ) -> Self {
        let dist = elementwise_distribution(sources[0].input_distribution(Distribution::Block));
        MapRegion {
            ctx,
            sources,
            halo: 0,
            in_dist: dist,
            out_dist: dist,
            program,
            kernel,
            before_launch: None,
        }
    }

    /// A stencil region of range `d` units.
    pub fn stencil(
        ctx: &'a Context,
        sources: &'a [&'a dyn ElementwiseInput],
        d: usize,
        program: &'a skelcl_kernel::Program,
        kernel: &'a str,
    ) -> Self {
        let requested = sources[0].input_distribution(Distribution::Overlap { size: d });
        let (in_dist, out_dist) = stencil_distributions(requested, d);
        MapRegion {
            ctx,
            sources,
            halo: d,
            in_dist,
            out_dist,
            program,
            kernel,
            before_launch: None,
        }
    }
}

/// What one kernel instance of a map-like region works on: a device's
/// whole share on the resident side, one ring chunk on the streamed side.
pub(crate) struct ChunkView<'a> {
    /// The input buffers, in source order; each covers `plan.stored`.
    pub inputs: &'a [DeviceBuffer],
    /// The output buffer; covers `plan.core`.
    pub output: &'a DeviceBuffer,
    /// Device, stored (staged) and core range in global units — the
    /// kernel's `stored_len`/`core_len`/`core_offset`.
    pub plan: &'a ChunkPlan,
    /// Elements per unit.
    pub unit_elems: usize,
}

impl ChunkView<'_> {
    /// `ins…` as buffer arguments — what every map-like kernel's
    /// parameter list starts with.
    pub fn input_args(&self) -> Vec<KernelArg> {
        let inputs = self.inputs.iter();
        inputs.map(|b| KernelArg::Buffer(b.clone())).collect()
    }

    /// `out, lens…` — the output buffer followed by `int` arguments.
    pub fn output_args<const N: usize>(&self, lens: [usize; N]) -> impl Iterator<Item = KernelArg> {
        let lens = lens.map(|n| KernelArg::Scalar(Value::I32(n as i32)));
        std::iter::once(KernelArg::Buffer(self.output.clone())).chain(lens)
    }
}

/// The kernel ABI of a region: argument list and launch geometry for one
/// [`ChunkView`].
pub(crate) type BuildArgs<'a> = &'a dyn Fn(&ChunkView<'_>) -> (Vec<KernelArg>, NdRange);

/// A skeleton call's extra scalar values as trailing kernel arguments.
pub(crate) fn extra_args(extra: &[Value]) -> impl Iterator<Item = KernelArg> + '_ {
    extra.iter().map(|v| KernelArg::Scalar(*v))
}

/// ABI of the welded elementwise kernels: `ins…, [scan pairs], out, n,
/// extras…` over a default linear range.
pub(crate) fn elementwise_args(
    view: &ChunkView<'_>,
    scan_pairs: Vec<KernelArg>,
    extra: &[Value],
) -> (Vec<KernelArg>, NdRange) {
    let n = view.plan.core_len() * view.unit_elems;
    let mut args = view.input_args();
    args.extend(scan_pairs);
    args.extend(view.output_args([n]));
    args.extend(extra_args(extra));
    (args, NdRange::linear_default(n))
}

/// ABI of the 1-D stencil kernels: `ins…, out, stored_len, core_len,
/// core_off, extras…`, one work-item per core element.
pub(crate) fn stencil_args(view: &ChunkView<'_>, extra: &[Value]) -> (Vec<KernelArg>, NdRange) {
    let plan = view.plan;
    let mut args = view.input_args();
    args.extend(view.output_args([plan.stored_len(), plan.core_len(), plan.core_offset()]));
    args.extend(extra_args(extra));
    (args, NdRange::linear(plan.core_len(), WG))
}

/// Runs one map-like region: checks that every source lives on the
/// region's context, decides from the device budget whether the region
/// streams, and launches `region.kernel` with the arguments `build` gives
/// for each chunk — one per device over materialised containers, or one
/// per ring chunk over staged unit ranges. The output is device-resident
/// under `out_dist` on the resident side and assembled on the host on the
/// streamed side.
pub(crate) fn run_map_region<O: KernelScalar>(
    region: &MapRegion<'_>,
    build: BuildArgs<'_>,
    events: &mut Vec<Event>,
) -> Result<Arc<DistributedData<O>>> {
    let ctx = region.ctx;
    for source in region.sources {
        check_same_context(ctx, source.input_ctx())?;
    }
    let (units, unit_elems) = (
        region.sources[0].input_units(),
        region.sources[0].input_unit_elems(),
    );
    let in_bytes: usize = region
        .sources
        .iter()
        .map(|s| s.input_scalar().size_bytes())
        .sum();
    let out_unit_bytes = O::SCALAR.size_bytes() * unit_elems;
    let bytes_per_unit = in_bytes * unit_elems + out_unit_bytes;
    if let Some(shares) = plan_stream(
        ctx,
        units,
        unit_elems,
        region.out_dist,
        bytes_per_unit,
        &|_| 0,
        region.halo,
    ) {
        if let Some(hook) = region.before_launch {
            hook(None, events)?;
        }
        let bytes = stream_map_like(region, &shares, out_unit_bytes, build, events)?;
        let host = from_bytes(&bytes);
        return Ok(Arc::new(DistributedData::from_host(
            ctx.clone(),
            units,
            unit_elems,
            host,
        )));
    }
    let in_chunks = materialize(region.sources, region.in_dist)?;
    if let Some(hook) = region.before_launch {
        hook(Some(&in_chunks), events)?;
    }
    let (output, out_chunks) =
        DistributedData::alloc_device(ctx.clone(), units, unit_elems, region.out_dist)?;
    let launches = out_chunks
        .iter()
        .enumerate()
        .map(|(j, oc)| {
            let plan = &in_chunks[0][j].plan;
            debug_assert_eq!(plan.core, oc.plan.core);
            let inputs: Vec<DeviceBuffer> = in_chunks.iter().map(|c| c[j].buffer.clone()).collect();
            let (args, range) = build(&ChunkView {
                inputs: &inputs,
                output: &oc.buffer,
                plan,
                unit_elems,
            });
            DeviceLaunch {
                device: plan.device,
                args,
                range,
                units: plan.core_len(),
            }
        })
        .collect();
    events.extend(run_launches(ctx, region.program, region.kernel, launches)?);
    output.mark_device_written();
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nd_range_labels() {
        assert_eq!(nd_range_label(&NdRange::linear(1000, 256)), "1024/256");
        assert_eq!(
            nd_range_label(&NdRange::grid([100, 60], [16, 16])),
            "112x64/16x16"
        );
        // 3-D ranges must not silently drop the z dimension.
        let r3 = NdRange {
            dims: 3,
            global: [64, 64, 64],
            local: [8, 8, 4],
        };
        assert_eq!(nd_range_label(&r3), "64x64x64/8x8x4");
    }

    #[test]
    fn distribution_rules() {
        // Elementwise: only overlap degrades.
        assert_eq!(
            elementwise_distribution(Distribution::Overlap { size: 3 }),
            Distribution::Block
        );
        assert_eq!(
            elementwise_distribution(Distribution::Copy),
            Distribution::Copy
        );
        // Reduction: copy collapses to a single device, overlap to block.
        assert_eq!(
            reduction_distribution(Distribution::Copy),
            Distribution::Single(0)
        );
        assert_eq!(
            reduction_distribution(Distribution::Overlap { size: 2 }),
            Distribution::Block
        );
        assert_eq!(
            reduction_distribution(Distribution::Block),
            Distribution::Block
        );
        // Stencil: block inputs gain a halo at least as wide as the range.
        assert_eq!(
            stencil_distributions(Distribution::Block, 2),
            (Distribution::Overlap { size: 2 }, Distribution::Block)
        );
        assert_eq!(
            stencil_distributions(Distribution::Overlap { size: 1 }, 4),
            (Distribution::Overlap { size: 4 }, Distribution::Block)
        );
        assert_eq!(
            stencil_distributions(Distribution::Single(1), 4),
            (Distribution::Single(1), Distribution::Single(1))
        );
    }
}
