//! Physical lowering of plan DAGs: rewrite rules, region execution and the
//! scan-offset pass.
//!
//! [`Lowering`] walks a [`PlanNode`] tree bottom-up, applying whichever
//! rewrite rules the [`PlanConfig`] enables. Elementwise regions that stay
//! fused compile to one `skelcl_fused` kernel (byte-identical to the PR 4
//! expression layer when no scan leaf participates); everything else is
//! *staged* — materialised into a fresh intermediate vector and re-entered
//! as a `Source` leaf, which is exactly what `SKELCL_PLAN=0` does for
//! every stage.

use std::sync::Arc;

use skelcl_kernel::types::ScalarType;
use skelcl_kernel::value::Value;
use vgpu::{Event, KernelArg, NdRange};

use crate::codegen::{c_literal, compile_cached};
use crate::container::data::{DeviceChunk, DistributedData};
use crate::container::Vector;
use crate::context::Context;
use crate::distribution::ChunkPlan;
use crate::error::{Error, Result};
use crate::exec::{
    elementwise_args, input_id, run_launches, run_map_region, skeleton_span, stencil_args,
    DeviceLaunch, ElementwiseInput, MapRegion, WG,
};
use crate::skeleton::EventLog;
use crate::types::KernelScalar;

use super::cost::should_fuse_stencil;
use super::ir::{PlanNode, ScanOffsetState, StencilSpec};
use super::PlanConfig;

/// Dispatches a call generic over [`KernelScalar`] on a runtime
/// [`ScalarType`]. `Bool` is not a container element type, so it is an
/// internal error here.
macro_rules! dispatch_scalar {
    ($scalar:expr, $self:ident . $f:ident ( $($args:expr),* )) => {
        match $scalar {
            ScalarType::Bool => Err(Error::ShapeMismatch {
                reason: "plan lowering cannot stage bool elements".into(),
            }),
            ScalarType::Char => $self.$f::<i8>($($args),*),
            ScalarType::UChar => $self.$f::<u8>($($args),*),
            ScalarType::Short => $self.$f::<i16>($($args),*),
            ScalarType::UShort => $self.$f::<u16>($($args),*),
            ScalarType::Int => $self.$f::<i32>($($args),*),
            ScalarType::UInt => $self.$f::<u32>($($args),*),
            ScalarType::Long => $self.$f::<i64>($($args),*),
            ScalarType::ULong => $self.$f::<u64>($($args),*),
            ScalarType::Float => $self.$f::<f32>($($args),*),
            ScalarType::Double => $self.$f::<f64>($($args),*),
        }
    };
}

/// A scan whose offset pass is folded into this region's loads: source
/// `idx` is read through `f(offset, x)` guarded by a `has_offset` flag.
pub(crate) struct ScanLeaf {
    /// Index into [`FusedPlan::sources`] of the scan's phase-1 vector.
    pub idx: usize,
    /// The pending-offset state.
    pub state: Arc<ScanOffsetState>,
}

/// Everything needed to weld and launch a fused region: the deduped
/// sources and stage translation units, plus the per-element load
/// expression in terms of `skelcl_inN[skelcl_i]`.
pub(crate) struct FusedPlan<'a> {
    /// Distinct source containers in first-use order (`skelcl_inN` order).
    pub sources: Vec<&'a dyn ElementwiseInput>,
    /// Element types of `sources`.
    pub input_types: Vec<ScalarType>,
    /// Scans folded into this region's loads.
    pub scan_leaves: Vec<ScanLeaf>,
    /// Whether the tree contains a stencil node. Such a plan supports
    /// length/stats queries but cannot be launched as one region.
    pub has_stencil: bool,
    /// Concatenated deduplicated stage translation units.
    pub units: String,
    /// The per-element value as a nested call expression; the index
    /// variable is `skelcl_i`.
    pub load_expr: String,
    /// Common length of every source.
    pub len: usize,
    /// The common context.
    pub ctx: Context,
    /// Number of stage applications in the DAG.
    pub stages: usize,
    /// Bytes per element of all stage outputs combined — what an unfused
    /// execution writes to device memory as intermediate/result vectors.
    pub stage_bytes_per_elem: u64,
}

impl<'a> FusedPlan<'a> {
    /// Builds the plan by walking the DAG: dedupes sources by storage
    /// identity and stage units by content, validates context and length
    /// agreement.
    pub fn build(root: &'a PlanNode) -> Result<Self> {
        struct Builder<'a> {
            source_ids: Vec<usize>,
            sources: Vec<&'a dyn ElementwiseInput>,
            input_types: Vec<ScalarType>,
            scan_leaves: Vec<ScanLeaf>,
            has_stencil: bool,
            unit_sources: Vec<&'a str>,
            ctx: Option<&'a Context>,
            stages: usize,
            stage_bytes_per_elem: u64,
            error: Option<Error>,
        }

        impl<'a> Builder<'a> {
            fn check_ctx(&mut self, ctx: &'a Context) {
                match self.ctx {
                    None => self.ctx = Some(ctx),
                    Some(first) if first.same_as(ctx) => {}
                    Some(_) if self.error.is_none() => {
                        self.error = Some(Error::ShapeMismatch {
                            reason: "fused expression mixes containers or skeletons \
                                     from different contexts"
                                .into(),
                        });
                    }
                    Some(_) => {}
                }
            }

            fn source_index(&mut self, input: &'a dyn ElementwiseInput) -> usize {
                let id = input_id(input);
                self.source_ids
                    .iter()
                    .position(|&x| x == id)
                    .unwrap_or_else(|| {
                        self.source_ids.push(id);
                        self.sources.push(input);
                        self.input_types.push(input.input_scalar());
                        self.sources.len() - 1
                    })
            }

            fn add_unit(&mut self, unit: &'a str) {
                if !self.unit_sources.contains(&unit) {
                    self.unit_sources.push(unit);
                }
            }

            fn walk(&mut self, node: &'a PlanNode) -> String {
                match node {
                    PlanNode::Source { ctx, input, .. } => {
                        self.check_ctx(ctx);
                        let idx = self.source_index(input.as_ref());
                        format!("skelcl_in{idx}[skelcl_i]")
                    }
                    PlanNode::Apply {
                        ctx,
                        stage,
                        extras,
                        args,
                    } => {
                        self.check_ctx(ctx);
                        self.stages += 1;
                        self.stage_bytes_per_elem += stage.ret.size_bytes() as u64;
                        self.add_unit(&stage.source);
                        let mut call_args: Vec<String> =
                            args.iter().map(|a| self.walk(a)).collect();
                        call_args.extend(extras.iter().map(|v| c_literal(*v)));
                        format!("{}({})", stage.name, call_args.join(", "))
                    }
                    PlanNode::ScanOffset { ctx, state } => {
                        self.check_ctx(ctx);
                        let idx = self.source_index(state.vector.as_ref());
                        if state.is_applied() {
                            // The offsets already landed in the buffers:
                            // behaves as a plain source.
                            return format!("skelcl_in{idx}[skelcl_i]");
                        }
                        self.add_unit(&state.stage.source);
                        let k = self
                            .scan_leaves
                            .iter()
                            .position(|l| Arc::ptr_eq(&l.state, state))
                            .unwrap_or_else(|| {
                                self.scan_leaves.push(ScanLeaf {
                                    idx,
                                    state: state.clone(),
                                });
                                self.scan_leaves.len() - 1
                            });
                        let f = &state.stage.name;
                        format!(
                            "(skelcl_has_off{k} ? {f}(skelcl_off{k}, skelcl_in{idx}[skelcl_i]) \
                             : skelcl_in{idx}[skelcl_i])"
                        )
                    }
                    PlanNode::Stencil { ctx, spec, arg } => {
                        self.check_ctx(ctx);
                        self.stages += 1;
                        self.stage_bytes_per_elem += spec.out_scalar.size_bytes() as u64;
                        self.has_stencil = true;
                        // Placeholder: a plan with a stencil node answers
                        // len/stats queries but is never compiled.
                        let inner = self.walk(arg);
                        format!("__skelcl_stencil({inner})")
                    }
                }
            }
        }

        let mut b = Builder {
            source_ids: Vec::new(),
            sources: Vec::new(),
            input_types: Vec::new(),
            scan_leaves: Vec::new(),
            has_stencil: false,
            unit_sources: Vec::new(),
            ctx: None,
            stages: 0,
            stage_bytes_per_elem: 0,
            error: None,
        };
        let load_expr = b.walk(root);
        if let Some(e) = b.error {
            return Err(e);
        }
        let Some(first) = b.sources.first() else {
            return Err(Error::ShapeMismatch {
                reason: "fused expression has no container sources".into(),
            });
        };
        let len = first.input_len();
        for s in &b.sources {
            if s.input_len() != len {
                return Err(Error::ShapeMismatch {
                    reason: format!(
                        "fused expression requires equal source lengths, found {} and {}",
                        len,
                        s.input_len()
                    ),
                });
            }
        }
        let ctx = b.ctx.expect("a source implies a context").clone();
        Ok(FusedPlan {
            sources: b.sources,
            input_types: b.input_types,
            scan_leaves: b.scan_leaves,
            has_stencil: b.has_stencil,
            units: b.unit_sources.join("\n"),
            load_expr,
            len,
            ctx,
            stages: b.stages,
            stage_bytes_per_elem: b.stage_bytes_per_elem,
        })
    }

    /// The `__global const T* skelcl_inN, ` parameter list prefix shared
    /// by the fused kernels, followed by an `int skelcl_has_offK, T
    /// skelcl_offK, ` pair per folded scan.
    pub fn input_params(&self) -> String {
        let mut params: String = self
            .input_types
            .iter()
            .enumerate()
            .map(|(i, t)| format!("__global const {t}* skelcl_in{i}, "))
            .collect();
        for (k, leaf) in self.scan_leaves.iter().enumerate() {
            params.push_str(&format!(
                "int skelcl_has_off{k}, {t} skelcl_off{k}, ",
                t = leaf.state.scalar
            ));
        }
        params
    }

    /// The `skelcl_in0, skelcl_in1, …` forwarding list for calls to a
    /// generated device helper taking the input pointers (and scan-offset
    /// pairs).
    pub fn input_args(&self) -> String {
        let mut parts: Vec<String> = (0..self.input_types.len())
            .map(|i| format!("skelcl_in{i}"))
            .collect();
        for k in 0..self.scan_leaves.len() {
            parts.push(format!("skelcl_has_off{k}"));
            parts.push(format!("skelcl_off{k}"));
        }
        parts.join(", ")
    }

    /// Ensures every folded scan can be fed by per-chunk offset arguments
    /// ([`crate::exec::BeforeLaunch`]): when the consumer's chunks do not
    /// line up with the chunks the scan recorded — always so on the
    /// streamed side (`chunk_sets` is `None`) — the offsets are applied as
    /// a standalone (ranged) pass first, after which
    /// [`FusedPlan::scan_args`] degenerates to "no offset".
    pub fn prepare_scan(
        &self,
        chunk_sets: Option<&[Vec<DeviceChunk>]>,
        events: &mut Vec<Event>,
    ) -> Result<()> {
        for leaf in &self.scan_leaves {
            let chunks = chunk_sets.map(|sets| sets[leaf.idx].as_slice());
            let aligned = chunks.is_some_and(|chunks| {
                chunks.len() == leaf.state.plans.len()
                    && chunks
                        .iter()
                        .all(|c| c.plan.stored == c.plan.core && leaf.state.plans.contains(&c.plan))
            });
            if !aligned {
                apply_offsets(&leaf.state, &self.ctx, events, chunks)?;
            }
        }
        Ok(())
    }

    /// The `(has_offset, offset)` scalar argument pairs for the chunk
    /// `plan`, in scan-leaf order. Call [`FusedPlan::prepare_scan`] first.
    pub fn scan_args(&self, plan: &ChunkPlan) -> Vec<KernelArg> {
        let mut args = Vec::with_capacity(self.scan_leaves.len() * 2);
        for leaf in &self.scan_leaves {
            let state = &leaf.state;
            let pair = if state.is_applied() {
                (0, state.zero)
            } else {
                let k = state.plans.iter().position(|pl| pl == plan);
                match k.expect("prepare_scan aligned the chunks") {
                    0 => (0, state.zero),
                    k => (1, state.offsets[k - 1]),
                }
            };
            args.push(KernelArg::Scalar(Value::I32(pair.0)));
            args.push(KernelArg::Scalar(pair.1));
        }
        args
    }
}

/// Applies a pending scan-offset pass to the scan's vector, idempotently.
///
/// When the vector's current chunks line up with the chunks the scan
/// recorded (and carry no halo), this is the exact offset pass
/// `Scan::call` phase 2 would have run: one whole-chunk
/// `skelcl_scan_offset` launch per non-first chunk. Otherwise each
/// recorded core range is intersected with every current stored range and
/// patched by a generated ranged kernel — correct under any
/// redistribution, including `Copy` replicas.
pub(crate) fn apply_offsets(
    state: &ScanOffsetState,
    ctx: &Context,
    events: &mut Vec<Event>,
    current_chunks: Option<&[DeviceChunk]>,
) -> Result<()> {
    let mut applied = state.applied.lock().unwrap();
    if *applied {
        return Ok(());
    }
    let owned;
    let chunks: &[DeviceChunk] = match current_chunks {
        Some(c) => c,
        None => {
            owned = state.vector.input_chunks(state.dist)?;
            &owned
        }
    };
    let aligned = chunks.len() == state.plans.len()
        && (chunks.iter().zip(&state.plans)).all(|(c, pl)| c.plan == *pl && pl.stored == pl.core);
    if aligned {
        let mut launches = Vec::new();
        for (j, c) in chunks.iter().enumerate().skip(1) {
            let n = c.plan.core_len();
            launches.push(DeviceLaunch {
                device: c.plan.device,
                args: vec![
                    KernelArg::Buffer(c.buffer.clone()),
                    KernelArg::Scalar(state.offsets[j - 1]),
                    KernelArg::Scalar(Value::I32(n as i32)),
                ],
                range: NdRange::linear(n, WG),
                units: 0,
            });
        }
        events.extend(run_launches(
            ctx,
            &state.program,
            "skelcl_scan_offset",
            launches,
        )?);
    } else {
        let source = format!(
            "{unit}\n\
             __kernel void skelcl_scan_offset_at(__global {t}* skelcl_data, {t} skelcl_off,\n\
             \x20       int skelcl_n, int skelcl_start) {{\n\
             \x20   int gid = (int)get_global_id(0);\n\
             \x20   if (gid < skelcl_n)\n\
             \x20       skelcl_data[skelcl_start + gid] = {f}(skelcl_off, skelcl_data[skelcl_start + gid]);\n\
             }}\n",
            unit = state.stage.source,
            t = state.scalar,
            f = state.stage.name,
        );
        let program = compile_cached(ctx, "skelcl_plan_scan_offset.cl", &source)?;
        let mut launches = Vec::new();
        for (k, pl) in state.plans.iter().enumerate().skip(1) {
            let off = state.offsets[k - 1];
            for c in chunks {
                let start = pl.core.start.max(c.plan.stored.start);
                let end = pl.core.end.min(c.plan.stored.end);
                if start >= end {
                    continue;
                }
                launches.push(DeviceLaunch {
                    device: c.plan.device,
                    args: vec![
                        KernelArg::Buffer(c.buffer.clone()),
                        KernelArg::Scalar(off),
                        KernelArg::Scalar(Value::I32((end - start) as i32)),
                        KernelArg::Scalar(Value::I32((start - c.plan.stored.start) as i32)),
                    ],
                    range: NdRange::linear(end - start, WG),
                    units: 0,
                });
            }
        }
        events.extend(run_launches(
            ctx,
            &program,
            "skelcl_scan_offset_at",
            launches,
        )?);
    }
    state.vector.input_mark_device_written();
    *applied = true;
    Ok(())
}

/// The host span of a staged intermediate: a skeleton-kind span that does
/// not count as a skeleton call.
fn stage_span(ctx: &Context) -> skelcl_profile::SpanGuard {
    ctx.profiler()
        .host_span(skelcl_profile::SpanKind::Skeleton, "plan.stage")
}

/// One lowering pass: rewrite-rule application, staged-region execution and
/// telemetry accumulation.
struct Lowering {
    cfg: PlanConfig,
    events: Vec<Event>,
    rules_fired: Vec<&'static str>,
    nodes_fused: u64,
    intermediate_bytes: u64,
}

impl Lowering {
    fn new(cfg: PlanConfig) -> Self {
        Lowering {
            cfg,
            events: Vec::new(),
            rules_fired: Vec::new(),
            nodes_fused: 0,
            intermediate_bytes: 0,
        }
    }

    fn fire(&mut self, rule: &'static str) {
        self.rules_fired.push(rule);
    }

    /// Collapses a subtree to a launchable form: a `Source` leaf, an
    /// elementwise `Apply` tree over sources/scan leaves, or a bare
    /// `ScanOffset` leaf. Stencils are always executed here; whether an
    /// `Apply` child stays welded to its parent (the `chain` rule), a scan
    /// leaf survives (`scan-offset`), or everything stages is decided per
    /// edge. `allow_scan` is false inside stencil producers, where a
    /// folded offset would use the wrong chunk's offset for halo elements.
    fn collapse_arg(&mut self, node: &Arc<PlanNode>, allow_scan: bool) -> Result<Arc<PlanNode>> {
        match node.as_ref() {
            PlanNode::Source { .. } => Ok(node.clone()),
            PlanNode::Apply {
                ctx,
                stage,
                extras,
                args,
            } => {
                let mut new_args = Vec::with_capacity(args.len());
                for a in args {
                    let mut c = self.collapse_arg(a, allow_scan)?;
                    if matches!(c.as_ref(), PlanNode::Apply { .. }) {
                        if self.cfg.chain && !self.cfg.staged {
                            self.fire("chain");
                            self.nodes_fused += 1;
                        } else {
                            c = self.run_region_erased(&c)?;
                        }
                    }
                    new_args.push(c);
                }
                Ok(Arc::new(PlanNode::Apply {
                    ctx: ctx.clone(),
                    stage: stage.clone(),
                    extras: extras.clone(),
                    args: new_args,
                }))
            }
            PlanNode::ScanOffset { ctx, state } => {
                if self.cfg.scan_offset && !self.cfg.staged && allow_scan && !state.is_applied() {
                    self.fire("scan-offset");
                    self.nodes_fused += 1;
                    Ok(node.clone())
                } else {
                    apply_offsets(state, ctx, &mut self.events, None)?;
                    Ok(Arc::new(PlanNode::Source {
                        ctx: ctx.clone(),
                        input: state.vector.clone(),
                        fresh: false,
                    }))
                }
            }
            PlanNode::Stencil { ctx, spec, arg } => self.eval_stencil(ctx, spec, arg),
        }
    }

    /// Runs a collapsed elementwise region into a fresh intermediate
    /// vector, dispatching on the runtime output scalar type.
    fn run_region_erased(&mut self, node: &Arc<PlanNode>) -> Result<Arc<PlanNode>> {
        dispatch_scalar!(node.out_scalar(), self.finish_region(node))
    }

    fn finish_region<T: KernelScalar>(&mut self, node: &Arc<PlanNode>) -> Result<Arc<PlanNode>> {
        let p = FusedPlan::build(node)?;
        let out = self.run_region_typed::<T>(&p, false)?;
        Ok(self.intermediate(&p.ctx, out))
    }

    /// Re-enters a staged region's output as a `fresh` source leaf.
    fn intermediate<T: KernelScalar>(
        &mut self,
        ctx: &Context,
        data: Arc<DistributedData<T>>,
    ) -> Arc<PlanNode> {
        self.intermediate_bytes += (data.len() * T::SCALAR.size_bytes()) as u64;
        Arc::new(PlanNode::Source {
            ctx: ctx.clone(),
            input: data,
            fresh: true,
        })
    }

    /// Compiles and launches one fused elementwise region. `root` regions
    /// open the public `Expr.eval` skeleton span (bumping
    /// `skeleton.calls`, as the PR 4 layer did); staged intermediates get
    /// a `plan.stage` span without the counter, so default-path call
    /// counts are unchanged.
    fn run_region_typed<O: KernelScalar>(
        &mut self,
        p: &FusedPlan,
        root: bool,
    ) -> Result<Arc<DistributedData<O>>> {
        debug_assert!(!p.has_stencil, "stencil nodes are lowered by eval_stencil");
        let _span = if root {
            skeleton_span(&p.ctx, "Expr.eval")
        } else {
            stage_span(&p.ctx)
        };
        let source = format!(
            "{units}\n\
             __kernel void skelcl_fused({params}__global {out}* skelcl_out, int skelcl_n) {{\n\
             \x20   int skelcl_i = (int)get_global_id(0);\n\
             \x20   if (skelcl_i < skelcl_n) skelcl_out[skelcl_i] = {expr};\n\
             }}\n",
            units = p.units,
            params = p.input_params(),
            out = O::SCALAR,
            expr = p.load_expr,
        );
        let program = compile_cached(&p.ctx, "skelcl_fused.cl", &source)?;
        let region = MapRegion {
            before_launch: Some(&|chunk_sets, events| p.prepare_scan(chunk_sets, events)),
            ..MapRegion::elementwise(&p.ctx, &p.sources, &program, "skelcl_fused")
        };
        run_map_region(
            &region,
            &|view| elementwise_args(view, p.scan_args(view.plan), &[]),
            &mut self.events,
        )
    }

    /// Lowers a stencil node: either welds its elementwise producer into
    /// the stencil kernel (the `stencil` rule, re-deriving halo elements
    /// from the producer's sources) or materialises the producer and runs
    /// the skeleton's pre-built standalone kernel.
    fn eval_stencil(
        &mut self,
        ctx: &Context,
        spec: &StencilSpec,
        arg: &Arc<PlanNode>,
    ) -> Result<Arc<PlanNode>> {
        let a = self.collapse_arg(arg, false)?;
        let mut fuse =
            self.cfg.stencil && !self.cfg.staged && matches!(a.as_ref(), PlanNode::Apply { .. });
        if fuse && self.cfg.cost_model {
            let p = FusedPlan::build(&a)?;
            fuse = should_fuse_stencil(ctx, p.stages, spec.d, p.len);
        }
        if fuse {
            self.fire("stencil");
            dispatch_scalar!(spec.out_scalar, self.stencil_fused(ctx, spec, &a))
        } else {
            let a = match a.as_ref() {
                PlanNode::Source { .. } => a,
                _ => self.run_region_erased(&a)?,
            };
            let PlanNode::Source { input, .. } = a.as_ref() else {
                unreachable!("run_region_erased returns a Source");
            };
            // The staged stencil is `MapOverlapVec::call_with` on a
            // materialised input, with the skeleton's pre-built program.
            let _span = stage_span(ctx);
            dispatch_scalar!(
                spec.out_scalar,
                self.run_stencil(
                    ctx,
                    spec.d,
                    &[input.as_ref()],
                    &spec.standalone,
                    "skelcl_mapoverlap_vec",
                    &spec.extras
                )
            )
        }
    }

    /// Launches a stencil kernel over `sources` and re-enters its output as
    /// a source leaf.
    fn run_stencil<O: KernelScalar>(
        &mut self,
        ctx: &Context,
        d: usize,
        sources: &[&dyn ElementwiseInput],
        program: &skelcl_kernel::Program,
        kernel: &str,
        extras: &[Value],
    ) -> Result<Arc<PlanNode>> {
        let out = run_map_region::<O>(
            &MapRegion::stencil(ctx, sources, d, program, kernel),
            &|view| stencil_args(view, extras),
            &mut self.events,
        )?;
        Ok(self.intermediate(ctx, out))
    }

    /// The fused stencil: the producer chain becomes a
    /// `skelcl_fused_load` prologue and each device recomputes its halo
    /// elements from the producer's sources (materialised with an overlap
    /// halo), so the producer's output is never written to memory. Tile
    /// staging, boundary handling and the per-element operations are
    /// identical to the standalone kernel, keeping results bit-identical.
    fn stencil_fused<O: KernelScalar>(
        &mut self,
        ctx: &Context,
        spec: &StencilSpec,
        producer: &Arc<PlanNode>,
    ) -> Result<Arc<PlanNode>> {
        let _span = stage_span(ctx);
        let p = FusedPlan::build(producer)?;
        debug_assert!(
            p.scan_leaves.is_empty(),
            "scan folding is disabled inside stencil producers"
        );
        self.nodes_fused += p.stages as u64 + 1;
        let in_params = p.input_params();
        let in_args = p.input_args();
        let i = spec.in_scalar;
        let d = spec.d;
        let tlen = WG + 2 * d;
        let load = match spec.neutral {
            Some(v) => format!(
                "return (i < 0 || i >= n) ? {} : skelcl_fused_load({in_args}, i);",
                c_literal(v)
            ),
            None => format!("return skelcl_fused_load({in_args}, clamp(i, 0, n - 1));"),
        };
        let extras: String = spec
            .extras
            .iter()
            .map(|v| format!(", {}", c_literal(*v)))
            .collect();
        let source = format!(
            "{units}\n\
             {unit}\n\
             {i} skelcl_fused_load({in_params}int skelcl_i) {{\n\
             \x20   return {expr};\n\
             }}\n\
             {i} __skelcl_get1(const {i}* skelcl_c, int di) {{\n\
             \x20   return (di >= -{d} && di <= {d}) ? skelcl_c[di] : ({i})__skelcl_trap_int(100);\n\
             }}\n\
             {i} __skelcl_load1({in_params}int i, int n) {{\n\
             \x20   {load}\n\
             }}\n\
             __kernel void skelcl_mapoverlap_fused({in_params}__global {o}* skelcl_out,\n\
             \x20       int skelcl_in_n, int skelcl_out_n, int skelcl_off) {{\n\
             \x20   __local {i} skelcl_tile[{tlen}];\n\
             \x20   int lid = (int)get_local_id(0);\n\
             \x20   int gid = (int)get_global_id(0);\n\
             \x20   int lsz = (int)get_local_size(0);\n\
             \x20   int base = (int)get_group_id(0) * lsz + skelcl_off - {d};\n\
             \x20   for (int t = lid; t < {tlen}; t += lsz) {{\n\
             \x20       int skelcl_i = base + t;\n\
             \x20       skelcl_tile[t] = __skelcl_load1({in_args}, skelcl_i, skelcl_in_n);\n\
             \x20   }}\n\
             \x20   barrier(CLK_LOCAL_MEM_FENCE);\n\
             \x20   if (gid < skelcl_out_n)\n\
             \x20       skelcl_out[gid] = {f}(&skelcl_tile[lid + {d}]{extras});\n\
             }}\n",
            units = p.units,
            unit = spec.unit,
            o = O::SCALAR,
            f = spec.func,
            expr = p.load_expr,
        );
        let program = compile_cached(ctx, "skelcl_mapoverlap_fused.cl", &source)?;
        self.run_stencil::<O>(ctx, d, &p.sources, &program, "skelcl_mapoverlap_fused", &[])
    }

    /// Publishes the pass's telemetry: `plan.rules_fired`,
    /// `plan.nodes_fused` and `plan.intermediate_bytes` counters.
    fn publish(&self, ctx: &Context) {
        let profiler = ctx.profiler();
        if !profiler.is_enabled() {
            return;
        }
        use skelcl_profile::metrics as m;
        if !self.rules_fired.is_empty() {
            profiler.add(m::PLAN_RULES_FIRED, self.rules_fired.len() as u64);
        }
        if self.nodes_fused > 0 {
            profiler.add(m::PLAN_NODES_FUSED, self.nodes_fused);
        }
        profiler.add(m::PLAN_INTERMEDIATE_BYTES, self.intermediate_bytes);
    }

    fn attach(&self, span: &mut skelcl_profile::SpanGuard) {
        span.attach(
            "plan.rules",
            if self.rules_fired.is_empty() {
                "none".to_string()
            } else {
                self.rules_fired.join(",")
            },
        );
        span.attach(
            "plan.decision",
            if self.cfg.staged { "staged" } else { "fused" },
        );
    }
}

/// Lowers a plan DAG rooted in an elementwise/scan term to a vector —
/// [`crate::Expr::eval`]'s engine.
pub(crate) fn eval_vector<O: KernelScalar>(
    node: &Arc<PlanNode>,
    log: Option<&EventLog>,
) -> Result<Vector<O>> {
    let ctx = node.ctx().clone();
    let cfg = ctx.config().plan;
    let mut lo = Lowering::new(cfg);
    let mut span = ctx
        .profiler()
        .host_span(skelcl_profile::SpanKind::Skeleton, "plan.lower");
    let collapsed = lo.collapse_arg(node, true)?;
    let result: Vector<O> = match collapsed.as_ref() {
        PlanNode::Source {
            input, fresh: true, ..
        } => {
            let data = input
                .clone()
                .input_any()
                .downcast()
                .map_err(|_| Error::ShapeMismatch {
                    reason: "plan produced a container of an unexpected element type".into(),
                })?;
            let v = Vector { data };
            // The final region's output is the result, not an intermediate.
            lo.intermediate_bytes = lo
                .intermediate_bytes
                .saturating_sub((v.len() * O::SCALAR.size_bytes()) as u64);
            v
        }
        _ => {
            let p = FusedPlan::build(&collapsed)?;
            Vector {
                data: lo.run_region_typed::<O>(&p, true)?,
            }
        }
    };
    lo.attach(&mut span);
    if let Some(log) = log {
        log.record(lo.events.clone());
    }
    lo.publish(&ctx);
    Ok(result)
}

/// What [`crate::Reduce::call_fused`] should reduce after lowering.
pub(crate) enum ReduceInput {
    /// The collapsed tree welds into the reduction's load prologue
    /// (`Source`, `Apply` over sources/scan leaves, or a bare scan leaf).
    Welded(Arc<PlanNode>),
    /// Everything was staged; reduce the materialised `Source` plainly.
    Staged(Arc<PlanNode>),
}

/// Lowers a reduction's input DAG, applying every enabled rule except the
/// final weld, which the caller performs. Returns the lowering's events
/// for the caller to merge into its event log.
pub(crate) fn prepare_reduce(node: &Arc<PlanNode>) -> Result<(ReduceInput, Vec<Event>)> {
    let ctx = node.ctx().clone();
    let cfg = ctx.config().plan;
    let mut lo = Lowering::new(cfg);
    let mut span = ctx
        .profiler()
        .host_span(skelcl_profile::SpanKind::Skeleton, "plan.lower");
    let collapsed = lo.collapse_arg(node, true)?;
    let input = if cfg.staged || !cfg.weld {
        let collapsed = match collapsed.as_ref() {
            PlanNode::Source { .. } => collapsed,
            _ => lo.run_region_erased(&collapsed)?,
        };
        ReduceInput::Staged(collapsed)
    } else {
        if matches!(
            collapsed.as_ref(),
            PlanNode::Apply { .. } | PlanNode::ScanOffset { .. }
        ) {
            lo.fire("reduce-weld");
            lo.nodes_fused += 1;
        }
        ReduceInput::Welded(collapsed)
    };
    lo.attach(&mut span);
    lo.publish(&ctx);
    Ok((input, lo.events))
}
