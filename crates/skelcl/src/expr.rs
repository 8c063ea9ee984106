//! Lazy skeleton expressions lowered through the plan layer.
//!
//! [`crate::Map::lazy`], [`crate::Zip::lazy`] and
//! [`crate::MapOverlapVec::lazy`] defer their stage into an [`Expr`]
//! instead of executing it. Chained stages form a logical plan DAG (see
//! [`crate::plan`]) whose leaves are containers; [`Expr::eval`] lowers the
//! DAG through the rewrite-rule engine — by default welding every
//! elementwise region into **one** kernel and fusing stencils with their
//! producers. An eager result joins a pipeline as a leaf:
//! `scan.call(&v)?.expr()`.
//! Each stage's customizing function (with its helpers) is renamed with a
//! content-derived suffix so every stage coexists in a single translation
//! unit, and the per-element value is computed by a nested call expression
//! with no intermediate buffer. Feeding an expression to
//! [`crate::Reduce::call_fused`] goes further: the elementwise DAG becomes
//! the load prologue of the tree reduction, so the paper's dot product
//! (§3.3, zip-mult then reduce-add) runs as a single pass over the two
//! input vectors.
//!
//! The `SKELCL_PLAN` environment variable switches the rewrite rules
//! ([`crate::plan::PlanConfig`]); `SKELCL_PLAN=0` stages every node
//! through an intermediate vector, which is the bit-identical oracle the
//! fused paths are validated against.

use std::marker::PhantomData;
use std::sync::Arc;

use skelcl_kernel::value::Value;

use crate::codegen::StageSpec;
use crate::container::Vector;
use crate::context::Context;
use crate::error::Result;
use crate::plan::{eval_vector, FusedPlan, PlanNode};
use crate::skeleton::EventLog;
use crate::types::KernelScalar;

/// A deferred computation producing elements of type `O`.
///
/// Built from containers ([`Vector::expr`] or `Expr::from(&vector)`) and
/// composed through [`crate::Map::lazy`] / [`crate::Zip::lazy`] /
/// [`crate::MapOverlapVec::lazy`]; executed by
/// [`Expr::eval`] (lowered through the plan rewrite rules) or
/// [`crate::Reduce::call_fused`] (fused into the reduction's first pass).
///
/// ```
/// use skelcl::{Context, Map, Vector};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ctx = Context::single_gpu();
/// let neg: Map<f32, f32> = Map::new(&ctx, "float neg(float x){ return -x; }")?;
/// let sq: Map<f32, f32> = Map::new(&ctx, "float sq(float x){ return x * x; }")?;
/// let v = Vector::from_vec(&ctx, vec![1.0, 2.0, 3.0]);
/// // One kernel computes neg(sq(x)) per element.
/// let r = neg.lazy(&sq.lazy(&v.expr())?)?.eval()?;
/// assert_eq!(r.to_vec()?, vec![-1.0, -4.0, -9.0]);
/// # Ok(())
/// # }
/// ```
pub struct Expr<O: KernelScalar> {
    node: Arc<PlanNode>,
    _t: PhantomData<fn() -> O>,
}

impl<O: KernelScalar> Clone for Expr<O> {
    fn clone(&self) -> Self {
        Expr {
            node: self.node.clone(),
            _t: PhantomData,
        }
    }
}

impl<O: KernelScalar> std::fmt::Debug for Expr<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Expr").field("node", &self.node).finish()
    }
}

/// Shape of a fused expression, for reporting what fusion saves: the
/// launch and intermediate-buffer accounting behind the bench's `fusion`
/// section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusionStats {
    /// Number of skeleton stages in the DAG.
    pub stages: usize,
    /// Number of distinct container sources.
    pub sources: usize,
    /// Common element count of the sources.
    pub len: usize,
    /// Total bytes of stage outputs an **unfused** execution materialises
    /// in device memory (`len ×` the summed stage output widths). A fused
    /// [`Expr::eval`] writes only the final output (subtract the last
    /// stage's `len × size_of::<O>()`); a fused reduction prologue
    /// ([`crate::Reduce::call_fused`]) materialises none of it.
    pub unfused_stage_bytes: u64,
}

impl<O: KernelScalar> Expr<O> {
    /// Wraps a stage application (crate-internal: skeletons' `lazy`).
    pub(crate) fn apply(
        ctx: &Context,
        stage: StageSpec,
        extras: Vec<Value>,
        args: Vec<Arc<PlanNode>>,
    ) -> Self {
        Expr {
            node: Arc::new(PlanNode::Apply {
                ctx: ctx.clone(),
                stage,
                extras,
                args,
            }),
            _t: PhantomData,
        }
    }

    /// Wraps an arbitrary plan node (crate-internal: stencil and scan
    /// `lazy`).
    pub(crate) fn from_node(node: Arc<PlanNode>) -> Self {
        Expr {
            node,
            _t: PhantomData,
        }
    }

    /// The DAG node (crate-internal: composition and fused reduction).
    pub(crate) fn node(&self) -> &Arc<PlanNode> {
        &self.node
    }

    /// Number of elements the expression produces.
    ///
    /// # Errors
    ///
    /// Fails when the expression is malformed (mismatched source lengths
    /// or contexts).
    pub fn len(&self) -> Result<usize> {
        Ok(FusedPlan::build(&self.node)?.len)
    }

    /// Whether the expression produces no elements.
    ///
    /// # Errors
    ///
    /// As for [`Expr::len`].
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Shape of the fused computation (stage/source/byte accounting).
    ///
    /// # Errors
    ///
    /// As for [`Expr::len`].
    pub fn stats(&self) -> Result<FusionStats> {
        let p = FusedPlan::build(&self.node)?;
        Ok(FusionStats {
            stages: p.stages,
            sources: p.sources.len(),
            len: p.len,
            unfused_stage_bytes: p.stage_bytes_per_elem * p.len as u64,
        })
    }

    /// Lowers the DAG through the plan rewrite rules, runs the resulting
    /// kernels, and returns the result vector. The distribution is
    /// resolved from the first source exactly as an eager `map`/`zip`
    /// call would.
    ///
    /// # Errors
    ///
    /// Fails on mismatched source lengths or contexts, plus any platform
    /// failure.
    pub fn eval(&self) -> Result<Vector<O>> {
        eval_vector(&self.node, None)
    }

    /// [`Expr::eval`], additionally recording the launch events into
    /// `log` (the fused pipeline has no skeleton instance to own an event
    /// log, so the caller provides one).
    ///
    /// # Errors
    ///
    /// As for [`Expr::eval`].
    pub fn eval_logged(&self, log: &EventLog) -> Result<Vector<O>> {
        eval_vector(&self.node, Some(log))
    }
}

impl<T: KernelScalar> From<&Vector<T>> for Expr<T> {
    /// Wraps a vector as a fusion source leaf.
    fn from(v: &Vector<T>) -> Self {
        Expr {
            node: Arc::new(PlanNode::Source {
                ctx: v.context().clone(),
                input: v.data.clone(),
                fresh: false,
            }),
            _t: PhantomData,
        }
    }
}
