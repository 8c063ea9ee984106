//! Physical lowering of plan DAGs: rewrite rules and region execution.
//!
//! [`Lowering`] walks a [`PlanNode`] tree bottom-up, applying the rewrite
//! rules unless the [`PlanConfig`] asks for the staged oracle. Elementwise
//! regions that stay fused compile to one `skelcl_fused` kernel and fused
//! stencils to one `skelcl_mapoverlap_fused`, from the same generators as
//! the eager `Map`/`Zip` and `MapOverlapVec`; everything else is *staged* —
//! materialised into a fresh intermediate vector and re-entered as a
//! `Source` leaf, which is exactly what `SKELCL_PLAN=0` does for every stage.

use std::sync::Arc;

use skelcl_kernel::types::ScalarType;
use skelcl_kernel::value::Value;
use vgpu::Event;

use crate::codegen::{c_literal, compile_cached, input_params, weld_elementwise};
use crate::container::data::DistributedData;
use crate::container::Vector;
use crate::context::Context;
use crate::error::{Error, Result};
use crate::exec::{
    elementwise_args, input_id, run_map_region, skeleton_span, stencil_args, ElementwiseInput,
    MapRegion,
};
use crate::skeleton::EventLog;
use crate::types::KernelScalar;

use super::ir::{PlanNode, StencilSpec};
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

/// Everything needed to weld and launch a fused region: the deduped
/// sources and stage translation units, plus the per-element load
/// expression in terms of `skelcl_inN[skelcl_i]`.
pub(crate) struct FusedPlan<'a> {
    /// Distinct source containers in first-use order (`skelcl_inN` order).
    pub sources: Vec<&'a dyn ElementwiseInput>,
    /// Element types of `sources`.
    pub input_types: Vec<ScalarType>,
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
                    PlanNode::Stencil { ctx, spec, arg, .. } => {
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
            has_stencil: b.has_stencil,
            units: b.unit_sources.join("\n"),
            load_expr,
            len,
            ctx,
            stages: b.stages,
            stage_bytes_per_elem: b.stage_bytes_per_elem,
        })
    }

    /// The `skelcl_in0, skelcl_in1, …` forwarding list for calls to a
    /// generated device helper taking the input pointers.
    pub fn input_args(&self) -> String {
        let args: Vec<_> = (0..self.sources.len())
            .map(|i| format!("skelcl_in{i}"))
            .collect();
        args.join(", ")
    }

    /// The translation unit every kernel that loads through this region
    /// starts with: the stage units, the consumer's own `unit`, and the
    /// region as the `skelcl_fused_load` device function returning `t`.
    pub fn prologue(&self, unit: &str, t: ScalarType) -> String {
        format!(
            "{units}\n{unit}\n\
             {t} skelcl_fused_load({params}int skelcl_i) {{\n\
             \x20   return {expr};\n\
             }}\n",
            units = self.units,
            params = input_params(&self.input_types),
            expr = self.load_expr,
        )
    }
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

    /// Collapses a subtree to a launchable form: a `Source` leaf or an
    /// elementwise `Apply` tree over sources. Stencils are always executed
    /// here; whether an `Apply` child stays welded to its parent (the
    /// `chain` rule) or stages is decided per edge.
    fn collapse_arg(&mut self, node: &Arc<PlanNode>) -> Result<Arc<PlanNode>> {
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
                    let mut c = self.collapse_arg(a)?;
                    if matches!(c.as_ref(), PlanNode::Apply { .. }) {
                        if !self.cfg.staged {
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
            PlanNode::Stencil {
                ctx,
                spec,
                standalone,
                arg,
            } => self.eval_stencil(ctx, spec, standalone, arg),
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
        let source = weld_elementwise(
            "skelcl_fused",
            &p.units,
            &p.input_types,
            O::SCALAR,
            &p.load_expr,
            &[],
        );
        let program = compile_cached(&p.ctx, "skelcl_fused.cl", &source)?;
        run_map_region(
            &MapRegion::elementwise(&p.ctx, &p.sources, &program, "skelcl_fused"),
            &|view| elementwise_args(view, &[]),
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
        standalone: &skelcl_kernel::Program,
        arg: &Arc<PlanNode>,
    ) -> Result<Arc<PlanNode>> {
        let a = self.collapse_arg(arg)?;
        let p = match a.as_ref() {
            PlanNode::Apply { .. } if !self.cfg.staged => Some(FusedPlan::build(&a)?),
            _ => None,
        };
        // Fusing trades `2 * len` elements of intermediate traffic for
        // `stages * 2d` recomputed halo elements on each device — a count
        // over the plan's shape, the same on every `eval`.
        if let Some(p) = p.filter(|p| p.stages * 2 * spec.d * ctx.device_count() < 2 * p.len) {
            self.fire("stencil");
            dispatch_scalar!(spec.out_scalar, self.stencil_fused(ctx, spec, &p))
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
                    standalone,
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
        p: &FusedPlan,
    ) -> Result<Arc<PlanNode>> {
        let _span = stage_span(ctx);
        self.nodes_fused += p.stages as u64 + 1;
        let head = p.prologue(&spec.unit, spec.in_scalar);
        let source = spec.weld(&head, &spec.func, Some(p), &[]);
        let program = compile_cached(ctx, "skelcl_mapoverlap_fused.cl", &source)?;
        let kernel = "skelcl_mapoverlap_fused";
        self.run_stencil::<O>(ctx, spec.d, &p.sources, &program, kernel, &[])
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

    /// Ends a lowering: names its rules and decision on the root's span,
    /// publishes its telemetry and hands back its events.
    fn finish(self, span: &mut skelcl_profile::SpanGuard, ctx: &Context) -> Vec<Event> {
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
        self.publish(ctx);
        self.events
    }
}

/// Opens the root's `plan.lower` span and collapses `node` under the
/// session's plan config — the prologue of every lowering entry.
fn lower_root(
    node: &Arc<PlanNode>,
) -> Result<(Lowering, skelcl_profile::SpanGuard, Arc<PlanNode>)> {
    let ctx = node.ctx();
    let mut lo = Lowering::new(ctx.config().plan);
    let span = ctx
        .profiler()
        .host_span(skelcl_profile::SpanKind::Skeleton, "plan.lower");
    let collapsed = lo.collapse_arg(node)?;
    Ok((lo, span, collapsed))
}

/// Lowers a plan DAG rooted in an elementwise term to a vector —
/// [`crate::Expr::eval`]'s engine.
pub(crate) fn eval_vector<O: KernelScalar>(
    node: &Arc<PlanNode>,
    log: Option<&EventLog>,
) -> Result<Vector<O>> {
    let (mut lo, mut span, collapsed) = lower_root(node)?;
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
    let events = lo.finish(&mut span, node.ctx());
    if let Some(log) = log {
        log.record(events);
    }
    Ok(result)
}

/// Lowers a reduction's input DAG, applying every enabled rule except the
/// final weld, which [`crate::Reduce::call_fused`] performs, and appends
/// the lowering's events to `events`. Returns the collapsed node: a
/// `Source`, or (rules on) an elementwise `Apply` tree over sources that
/// welds into the reduction's load prologue.
pub(crate) fn prepare_reduce(
    node: &Arc<PlanNode>,
    events: &mut Vec<Event>,
) -> Result<Arc<PlanNode>> {
    let (mut lo, mut span, collapsed) = lower_root(node)?;
    let collapsed = match collapsed.as_ref() {
        PlanNode::Source { .. } => collapsed,
        _ if lo.cfg.staged => lo.run_region_erased(&collapsed)?,
        _ => {
            lo.fire("reduce-weld");
            lo.nodes_fused += 1;
            collapsed
        }
    };
    events.extend(lo.finish(&mut span, node.ctx()));
    Ok(collapsed)
}
