//! Logical plan nodes for lazy skeleton pipelines.

use std::sync::{Arc, Mutex};

use skelcl_kernel::types::ScalarType;
use skelcl_kernel::value::Value;
use skelcl_kernel::Program;

use crate::codegen::StageSpec;
use crate::context::Context;
use crate::distribution::{ChunkPlan, Distribution};
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
        /// Producer subtree.
        arg: Arc<PlanNode>,
    },
    /// A scan whose cross-device offset pass is still pending
    /// (`Scan::lazy` on a multi-chunk distribution).
    ScanOffset {
        /// Context the scan ran in.
        ctx: Context,
        /// Shared pending-offset state (applied at most once).
        state: Arc<ScanOffsetState>,
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
            PlanNode::ScanOffset { state, .. } => f
                .debug_struct("ScanOffset")
                .field("applied", &state.is_applied())
                .finish(),
        }
    }
}

impl PlanNode {
    /// The context this subtree belongs to.
    pub(crate) fn ctx(&self) -> &Context {
        match self {
            PlanNode::Source { ctx, .. }
            | PlanNode::Apply { ctx, .. }
            | PlanNode::Stencil { ctx, .. }
            | PlanNode::ScanOffset { ctx, .. } => ctx,
        }
    }

    /// Element type this subtree produces.
    pub(crate) fn out_scalar(&self) -> ScalarType {
        match self {
            PlanNode::Source { input, .. } => input.input_scalar(),
            PlanNode::Apply { stage, .. } => stage.ret,
            PlanNode::Stencil { spec, .. } => spec.out_scalar,
            PlanNode::ScanOffset { state, .. } => state.scalar,
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
    /// Pre-built standalone program (`skelcl_mapoverlap_vec`), used by the
    /// staged path so PLAN=0 matches the eager skeleton byte-for-byte.
    pub(crate) standalone: Program,
}

/// Pending cross-device scan-offset application.
///
/// `Scan::lazy` runs phase 1 (per-chunk inclusive scans) eagerly and, on
/// multi-chunk distributions, parks phase 2 (adding each predecessor
/// chunk's total) here. The offset is either folded into a consuming
/// fused kernel's load expression (the `scan-offset` rule) or applied by
/// [`super::lower::apply_offsets`] as a standalone pass — whichever
/// happens first wins; `applied` makes the pass idempotent.
pub(crate) struct ScanOffsetState {
    /// The scan skeleton's program (contains `skelcl_scan_offset`).
    pub(crate) program: Program,
    /// Suffixed scan operator stage (for fused loads / ranged fallback).
    pub(crate) stage: StageSpec,
    /// Element type.
    pub(crate) scalar: ScalarType,
    /// `T::default()` — the "no offset" placeholder argument.
    pub(crate) zero: Value,
    /// The vector holding phase-1 per-chunk scan results.
    pub(crate) vector: Arc<dyn ElementwiseInput>,
    /// Distribution the phase-1 scan ran under.
    pub(crate) dist: Distribution,
    /// `offsets[j - 1]` is the exclusive prefix total for chunk `j >= 1`.
    pub(crate) offsets: Vec<Value>,
    /// Chunk plans recorded at phase-1 time (offsets index against these).
    pub(crate) plans: Vec<ChunkPlan>,
    /// Set once the offsets have been added to the buffers.
    pub(crate) applied: Mutex<bool>,
}

impl ScanOffsetState {
    /// Whether the offset pass already ran.
    pub(crate) fn is_applied(&self) -> bool {
        *self.applied.lock().unwrap()
    }
}

impl std::fmt::Debug for ScanOffsetState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScanOffsetState")
            .field("chunks", &self.plans.len())
            .field("applied", &self.is_applied())
            .finish()
    }
}
