//! Logical plan nodes for lazy skeleton pipelines.

use std::sync::Arc;

use skelcl_kernel::types::ScalarType;
use skelcl_kernel::value::Value;
use skelcl_kernel::Program;

use crate::codegen::StageSpec;
use crate::context::Context;
use crate::exec::ElementwiseInput;

/// One node of the logical skeleton DAG.
///
/// `Expr<O>` wraps an `Arc<PlanNode>`; skeleton `lazy` constructors build
/// nodes and [`super::lower`] turns a rooted DAG into device launches.
pub(crate) enum PlanNode {
    /// A materialised container (or a staged intermediate).
    Source {
        /// Context the container belongs to.
        ctx: Context,
        /// The container itself, type-erased.
        input: Arc<dyn ElementwiseInput>,
        /// True only for intermediates created by staged lowering: the
        /// container is private to the plan, so a root-level `Source` can be
        /// returned without copying.
        fresh: bool,
    },
    /// An elementwise stage (`Map::lazy`, `Zip::lazy`) over argument nodes.
    Apply {
        /// Context the stage was built for.
        ctx: Context,
        /// Generated stage function (suffixed user code).
        stage: StageSpec,
        /// Extra scalar arguments baked into the stage call.
        extras: Vec<Value>,
        /// Argument subtrees, one per stage input.
        args: Vec<Arc<PlanNode>>,
    },
    /// A one-dimensional stencil (`MapOverlapVec::lazy`) over one argument.
    Stencil {
        /// Context the stencil was built for.
        ctx: Context,
        /// Everything needed to emit the stencil fused or standalone.
        spec: StencilSpec,
        /// The skeleton's own program (`skelcl_mapoverlap_vec`), which the
        /// staged path launches so PLAN=0 matches the eager call exactly.
        standalone: Program,
        /// Producer subtree.
        arg: Arc<PlanNode>,
    },
}

impl std::fmt::Debug for PlanNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanNode::Source { fresh, .. } => {
                f.debug_struct("Source").field("fresh", fresh).finish()
            }
            PlanNode::Apply { stage, args, .. } => f
                .debug_struct("Apply")
                .field("stage", &stage.name)
                .field("args", &args.len())
                .finish(),
            PlanNode::Stencil { spec, .. } => f
                .debug_struct("Stencil")
                .field("func", &spec.func)
                .field("d", &spec.d)
                .finish(),
        }
    }
}

impl PlanNode {
    /// A leaf over a user's container.
    pub(crate) fn source(input: Arc<dyn ElementwiseInput>) -> Arc<Self> {
        Arc::new(PlanNode::Source {
            ctx: input.input_ctx().clone(),
            input,
            fresh: false,
        })
    }

    /// The context this subtree belongs to.
    pub(crate) fn ctx(&self) -> &Context {
        match self {
            PlanNode::Source { ctx, .. }
            | PlanNode::Apply { ctx, .. }
            | PlanNode::Stencil { ctx, .. } => ctx,
        }
    }

    /// Element type this subtree produces.
    pub(crate) fn out_scalar(&self) -> ScalarType {
        match self {
            PlanNode::Source { input, .. } => input.input_scalar(),
            PlanNode::Apply { stage, .. } => stage.ret,
            PlanNode::Stencil { spec, .. } => spec.out_scalar,
        }
    }
}

/// Everything a stencil node needs to lower either standalone or fused.
#[derive(Debug, Clone)]
pub(crate) struct StencilSpec {
    /// The user function's translation unit, suffixed for cross-stage
    /// uniqueness (calls to `__skelcl_get1` are left unsuffixed: the
    /// enclosing kernel defines it).
    pub(crate) unit: String,
    /// Suffixed user function name.
    pub(crate) func: String,
    /// Halo radius in elements.
    pub(crate) d: usize,
    /// Out-of-range literal; `None` means nearest-edge clamping.
    pub(crate) neutral: Option<Value>,
    /// Element type read from the input.
    pub(crate) in_scalar: ScalarType,
    /// Element type the user function returns.
    pub(crate) out_scalar: ScalarType,
    /// Extra scalar arguments for this invocation.
    pub(crate) extras: Vec<Value>,
}
