//! The **Reduce** skeleton (paper §3.3): combines all elements of a vector
//! with a binary associative customizing operator.
//!
//! Implementation: the classic two-level GPU reduction — each work-group
//! accumulates a grid-strided slice into local memory and tree-reduces it
//! behind barriers; partial results are reduced again until one value
//! remains. No identity element is required (the paper's `Reduce` takes
//! only the operator): the first loaded element seeds each accumulator.
//!
//! [`Reduce::call_fused`] accepts a lazy elementwise expression
//! ([`crate::Expr`]) instead of a materialised vector: the expression DAG
//! becomes the load prologue of the first reduction pass (a generated
//! `skelcl_fused_load` device function), so e.g. the paper's dot product
//! runs as a single zip-mul+tree-reduce pass with no intermediate buffer.

use std::marker::PhantomData;

use skelcl_kernel::value::Value;
use vgpu::{DeviceBuffer, Event, KernelArg, NdRange};

use crate::codegen::{compile_cached, expect_return, expect_scalar_param, parse_user_function};
use crate::container::{Matrix, Scalar, Vector};
use crate::context::Context;
use crate::distribution::Distribution;
use crate::engine::{LaunchPlan, NodeId};
use crate::error::{Error, Result};
use crate::exec::{
    impl_skeleton, materialize, reduction_distribution, run_plan, ElementwiseInput, SkeletonCore,
};
use crate::expr::Expr;
use crate::plan::{prepare_reduce, FusedPlan, PlanNode, ReduceInput};
use crate::stream::{StreamShare, StreamedRegion};
use crate::types::KernelScalar;

/// Work-group size used by the reduction kernels.
const WG: usize = 256;
/// Maximum number of work-groups per pass (grid-stride covers the rest).
const MAX_GROUPS: usize = 64;

/// Generates a two-level tree-reduction kernel named `kernel`: every live
/// work-item puts one value into local memory (`seed`, a statement run
/// under `gid < active`), then each group tree-combines its lanes and
/// writes one partial. All reduction kernels come from this one template,
/// so they perform exactly the same operator applications in the same
/// order — which is what makes fused, streamed and plain results
/// bit-identical.
fn tree_reduce_kernel(
    t: skelcl_kernel::types::ScalarType,
    f: &str,
    kernel: &str,
    in_params: &str,
    seed: &str,
) -> String {
    format!(
        "__kernel void {kernel}({in_params}__global {t}* skelcl_out, int skelcl_n) {{\n\
             __local {t} skelcl_scratch[{wg}];\n\
             int lid = (int)get_local_id(0);\n\
             int gid = (int)get_global_id(0);\n\
             int gsize = (int)get_global_size(0);\n\
             int lsz = (int)get_local_size(0);\n\
             int active = skelcl_n < gsize ? skelcl_n : gsize;\n\
             if (gid < active) {seed}\n\
             barrier(CLK_LOCAL_MEM_FENCE);\n\
             int group_base = (int)get_group_id(0) * lsz;\n\
             int group_active = active - group_base;\n\
             if (group_active > lsz) group_active = lsz;\n\
             for (int stride = lsz / 2; stride > 0; stride >>= 1) {{\n\
                 if (lid < stride && lid + stride < group_active)\n\
                     skelcl_scratch[lid] = {f}(skelcl_scratch[lid], skelcl_scratch[lid + stride]);\n\
                 barrier(CLK_LOCAL_MEM_FENCE);\n\
             }}\n\
             if (lid == 0 && group_active > 0)\n\
                 skelcl_out[get_group_id(0)] = skelcl_scratch[0];\n\
         }}\n",
        wg = WG,
    )
}

/// The seed of the one-shot kernels: a grid-strided accumulation over all
/// `skelcl_n` elements. The loads are abstracted (`load_first` at `gid`,
/// `load_loop` at `i`) so the plain kernel reads `skelcl_in` and the fused
/// one goes through the generated `skelcl_fused_load` prologue.
fn grid_stride_seed(
    t: skelcl_kernel::types::ScalarType,
    f: &str,
    load_first: &str,
    load_loop: &str,
) -> String {
    format!(
        "{{\n\
             {t} acc = {load_first};\n\
             for (int i = gid + gsize; i < skelcl_n; i += gsize) acc = {f}(acc, {load_loop});\n\
             skelcl_scratch[lid] = acc;\n\
         }}"
    )
}

/// The Reduce skeleton: `red (⊕) [v1, …, vn] = v1 ⊕ v2 ⊕ … ⊕ vn`.
///
/// The customizing operator must be **associative** (the reduction order is
/// unspecified, as in the paper); commutativity is *also* required because
/// grid-striding interleaves lanes.
///
/// ```
/// use skelcl::{Context, Reduce, Vector};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ctx = Context::single_gpu();
/// let sum: Reduce<f32> = Reduce::new(&ctx, "float sum(float x, float y){ return x + y; }")?;
/// let v = Vector::from_vec(&ctx, vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(sum.call(&v)?.value(), 10.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Reduce<T: KernelScalar> {
    core: SkeletonCore,
    /// Pretty-printed user operator unit, rewelded into fused programs.
    user_source: String,
    /// Name of the user operator.
    user_name: String,
    _types: PhantomData<fn(T, T) -> T>,
}

impl<T: KernelScalar> Reduce<T> {
    /// Creates a Reduce skeleton from a binary operator `T f(T x, T y)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidCustomizingFunction`] on parse or signature
    /// problems.
    pub fn new(ctx: &Context, source: &str) -> Result<Self> {
        let f = parse_user_function("Reduce", source)?;
        expect_scalar_param("Reduce", &f, 0, T::SCALAR)?;
        expect_scalar_param("Reduce", &f, 1, T::SCALAR)?;
        expect_return("Reduce", &f, T::SCALAR)?;
        if f.params.len() != 2 {
            return Err(Error::InvalidCustomizingFunction {
                skeleton: "Reduce",
                reason: format!("`{}` must take exactly two parameters", f.name),
            });
        }

        let kernel_source = format!(
            "{user}\n{kernel}",
            user = f.source(),
            kernel = tree_reduce_kernel(
                T::SCALAR,
                &f.name,
                "skelcl_reduce",
                &format!("__global const {t}* skelcl_in, ", t = T::SCALAR),
                &grid_stride_seed(T::SCALAR, &f.name, "skelcl_in[gid]", "skelcl_in[i]"),
            ),
        );
        let program = compile_cached(ctx, "skelcl_reduce.cl", &kernel_source)?;
        Ok(Reduce {
            user_source: f.source(),
            user_name: f.name.clone(),
            core: SkeletonCore::new(ctx, "Reduce", program, Vec::new()),
            _types: PhantomData,
        })
    }

    /// Reduces a vector to a scalar. A vector whose share exceeds the
    /// device budget streams through the welded reduction over a plain
    /// source, which applies the operator exactly as the resident path
    /// does — the results are bit-identical.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::EmptyContainer`] on empty input, plus any
    /// platform failure.
    pub fn call(&self, input: &Vector<T>) -> Result<Scalar<T>> {
        let _span = self.core.begin("Reduce.call");
        let mut events = Vec::new();
        let data: &dyn ElementwiseInput = &*input.data;
        self.core.check_ctx(data.input_ctx())?;
        let dist = reduction_distribution(data.input_distribution(Distribution::Block));
        let value = match self.stream_shares(data.input_len(), dist, T::SCALAR.size_bytes()) {
            Some(shares) => {
                let source = Expr::from(input);
                let p = FusedPlan::build(source.node())?;
                self.reduce_streamed(&p, &shares, &mut events)?
            }
            None => self.reduce_resident(data, &mut events)?,
        };
        Ok(self.finish(value, events))
    }

    /// Reduces a matrix (all elements, row-major order of combination per
    /// chunk) to a scalar.
    ///
    /// # Errors
    ///
    /// As for [`Reduce::call`].
    pub fn call_matrix(&self, input: &Matrix<T>) -> Result<Scalar<T>> {
        let _span = self.core.begin("Reduce.call_matrix");
        let mut events = Vec::new();
        let value = self.reduce_resident(&*input.data, &mut events)?;
        Ok(self.finish(value, events))
    }

    /// Reduces a lazy elementwise expression without materialising it: the
    /// expression DAG is welded into the first reduction pass as a
    /// `skelcl_fused_load` device function, so each element is computed
    /// on the fly from the source containers (one kernel per device where
    /// the unfused path needs at least two, and zero intermediate-buffer
    /// traffic). Later passes reduce the per-group partials with the
    /// ordinary kernel, performing exactly the same operator applications
    /// in the same order as [`Reduce::call`] on the materialised
    /// expression — the results are bit-identical.
    ///
    /// ```
    /// use skelcl::{Context, Reduce, Vector, Zip};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let ctx = Context::tesla_s1070(); // 4 virtual GPUs
    /// let sum: Reduce<f32> = Reduce::new(&ctx, "float sum(float x, float y){ return x + y; }")?;
    /// let mult: Zip<f32, f32, f32> =
    ///     Zip::new(&ctx, "float mult(float x, float y){ return x * y; }")?;
    /// let a = Vector::from_fn(&ctx, 1024, |i| i as f32);
    /// let b = Vector::from_fn(&ctx, 1024, |_| 2.0);
    /// // The paper's dot product as ONE fused pass, no intermediate vector:
    /// let dot = sum.call_fused(&mult.lazy(&a.expr(), &b.expr())?)?;
    /// assert_eq!(dot.value(), sum.call(&mult.call(&a, &b)?)?.value());
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Fails with [`Error::EmptyContainer`] on an empty expression,
    /// [`Error::ShapeMismatch`] when the expression lives on a different
    /// context or is malformed, plus any platform failure.
    pub fn call_fused(&self, expr: &Expr<T>) -> Result<Scalar<T>> {
        let _span = self.core.begin("Reduce.call_fused");
        let node = expr.node().clone();
        // Validate the raw tree before lowering launches anything.
        {
            let p = FusedPlan::build(&node)?;
            if !p.ctx.same_as(&self.core.ctx) {
                return Err(Error::ShapeMismatch {
                    reason: "fused expression belongs to a different context than this Reduce"
                        .into(),
                });
            }
            if p.len == 0 {
                return Err(Error::EmptyContainer {
                    operation: "Reduce",
                });
            }
        }

        // Lower the input DAG (stencils always execute here; staging
        // depends on SKELCL_PLAN), then weld or plainly reduce the rest.
        let (input, mut events) = prepare_reduce(&node)?;
        let value = match &input {
            ReduceInput::Staged(collapsed) => {
                let PlanNode::Source { input, .. } = collapsed.as_ref() else {
                    unreachable!("staged lowering returns a Source");
                };
                self.reduce_resident(input.as_ref(), &mut events)?
            }
            ReduceInput::Welded(collapsed) => self.reduce_welded(collapsed, &mut events)?,
        };
        Ok(self.finish(value, events))
    }

    /// Records a call's events and wraps its result.
    fn finish(&self, value: T, events: Vec<Event>) -> Scalar<T> {
        self.core.events.record(events);
        Scalar::new(value, self.core.events.last_kernel_time())
    }

    /// The plain reduction of a materialised container: one plan in which
    /// every device reduces its chunk down to a single value on its own
    /// asynchronous queue, then the per-device partials are combined.
    fn reduce_resident(&self, input: &dyn ElementwiseInput, events: &mut Vec<Event>) -> Result<T> {
        self.core.check_ctx(input.input_ctx())?;
        if input.input_len() == 0 {
            return Err(Error::EmptyContainer {
                operation: "Reduce",
            });
        }
        // Block by default; copy degrades to a single device — reducing
        // the same copy on every GPU would be redundant work.
        let dist = reduction_distribution(input.input_distribution(Distribution::Block));
        let chunks = input.input_chunks(dist)?;
        let mut plan = LaunchPlan::new();
        let mut reads = Vec::with_capacity(chunks.len());
        for chunk in &chunks {
            reads.push(self.plan_chain(
                &mut plan,
                chunk.plan.device,
                chunk.buffer.clone(),
                chunk.plan.core_len() * input.input_unit_elems(),
                chunk.plan.core_len(),
                Vec::new(),
            )?);
        }
        let values = self.run_values(plan, &reads, events)?;
        self.combine_partials(&values, chunks[0].plan.device, events)
    }

    /// Executes a reduction plan and decodes its one-element readbacks.
    fn run_values(
        &self,
        plan: LaunchPlan,
        reads: &[NodeId],
        events: &mut Vec<Event>,
    ) -> Result<Vec<T>> {
        Ok(Self::values(run_plan(
            &self.core.ctx,
            plan,
            reads,
            &[],
            events,
        )?))
    }

    /// Decodes a reduction plan's one-element readbacks.
    fn values(reads: Vec<Vec<u8>>) -> Vec<T> {
        reads.iter().map(|b| T::from_le_bytes(b)).collect()
    }

    /// The translation unit every welded reduction starts with: stage
    /// units, the reduce operator and the region as a `skelcl_fused_load`
    /// device function.
    fn fused_prologue(&self, p: &FusedPlan) -> String {
        format!(
            "{units}\n{user}\n\
             {t} skelcl_fused_load({in_params}int skelcl_i) {{\n\
             \x20   return {load};\n\
             }}\n",
            units = p.units,
            user = self.user_source,
            t = T::SCALAR,
            in_params = p.input_params(),
            load = p.load_expr,
        )
    }

    /// Welds a collapsed elementwise region into the reduction's
    /// first pass: a tree reduction that loads through the prologue.
    fn reduce_welded(&self, collapsed: &PlanNode, events: &mut Vec<Event>) -> Result<T> {
        let p = FusedPlan::build(collapsed)?;
        let in_args = p.input_args();
        let source = format!(
            "{prologue}{kernel}",
            prologue = self.fused_prologue(&p),
            kernel = tree_reduce_kernel(
                T::SCALAR,
                &self.user_name,
                "skelcl_reduce_fused",
                &p.input_params(),
                &grid_stride_seed(
                    T::SCALAR,
                    &self.user_name,
                    &format!("skelcl_fused_load({in_args}, gid)"),
                    &format!("skelcl_fused_load({in_args}, i)"),
                ),
            ),
        );
        let fused_program = compile_cached(&self.core.ctx, "skelcl_reduce_fused.cl", &source)?;

        let dist = reduction_distribution(p.sources[0].input_distribution(Distribution::Block));
        let bytes_per_unit: usize = p.input_types.iter().map(|t| t.size_bytes()).sum();
        if let Some(shares) = self.stream_shares(p.len, dist, bytes_per_unit) {
            return self.reduce_streamed(&p, &shares, events);
        }
        let chunk_sets = materialize(&p.sources, dist)?;
        let elem = std::mem::size_of::<T>();

        // Phase 1: per device, one fused pass (sources → per-group
        // partials), then the ordinary multi-pass chain over the partials
        // — identical to what the plain path does after its first pass.
        let mut plan = LaunchPlan::new();
        let mut read_ids = Vec::new();
        for (j, chunk) in chunk_sets[0].iter().enumerate() {
            let device = chunk.plan.device;
            let n = chunk.plan.core_len();
            let groups = n.div_ceil(WG).min(MAX_GROUPS);
            let partials = self.core.ctx.queue(device).create_buffer(groups * elem)?;
            let mut args: Vec<KernelArg> = chunk_sets
                .iter()
                .map(|chunks| {
                    debug_assert_eq!(chunks[j].plan.core, chunk.plan.core);
                    KernelArg::Buffer(chunks[j].buffer.clone())
                })
                .collect();
            args.push(KernelArg::Buffer(partials.clone()));
            args.push(KernelArg::Scalar(Value::I32(n as i32)));
            let first = plan.kernel(
                device,
                &fused_program,
                "skelcl_reduce_fused",
                args,
                NdRange::linear(groups * WG, WG),
                n,
                &[],
            );
            read_ids.push(self.plan_chain(
                &mut plan,
                device,
                partials,
                groups.min(n.div_ceil(WG)),
                0,
                vec![first],
            )?);
        }
        let values = self.run_values(plan, &read_ids, events)?;

        // Phase 2: combine per-device partials, as in the plain path.
        self.combine_partials(&values, chunk_sets[0][0].plan.device, events)
    }

    /// Decides whether a reduction of `len` elements under `dist` streams
    /// (see [`crate::stream::plan_stream`]), staging `bytes_per_unit` per
    /// element.
    fn stream_shares(
        &self,
        len: usize,
        dist: Distribution,
        bytes_per_unit: usize,
    ) -> Option<Vec<StreamShare>> {
        crate::stream::plan_stream(
            &self.core.ctx,
            len,
            1,
            dist,
            bytes_per_unit,
            &|n: usize| {
                // Resident outside the staging ring: the grid-sized lane
                // accumulator, the per-group partials buffer, and the
                // partial chain's intermediates (bounded by another
                // `groups` elements — pass outputs shrink geometrically).
                let groups = n.div_ceil(WG).min(MAX_GROUPS);
                (groups * WG + 2 * groups) * std::mem::size_of::<T>()
            },
            0,
        )
    }

    /// The out-of-core streamed reduction (`SKELCL_STREAM`): each device
    /// keeps a persistent lane accumulator the size of the one-shot grid
    /// (`gsize` lanes) and folds its share chunk by chunk from a staging
    /// ring; a finish kernel then tree-combines the lanes into the same
    /// per-group partials the oracle's one-shot first pass produces.
    ///
    /// A chunk `[cs, ce)` (share-relative) launches one work-item per
    /// element, at most `gsize` of them: work-item `k` folds elements
    /// `cs + k, cs + k + gsize, …` into lane `(cs + k) % gsize`, so a
    /// chunk costs what its elements cost, not what the grid costs. A lane
    /// is live (already seeded) exactly when its index is below `cs`, so
    /// every lane seeds with the same element and folds the same elements
    /// in the same order as the one-shot grid-stride kernel, and results
    /// stay bit-identical to the non-streamed path.
    fn reduce_streamed(
        &self,
        p: &FusedPlan,
        shares: &[StreamShare],
        events: &mut Vec<Event>,
    ) -> Result<T> {
        let ctx = &self.core.ctx;
        let mut stream = StreamedRegion::new(ctx, &p.sources, 0);
        let in_params = p.input_params();
        let in_args = p.input_args();
        let t = T::SCALAR;
        let f = &self.user_name;
        let source = format!(
            "{prologue}\
             __kernel void skelcl_reduce_stream({in_params}__global {t}* skelcl_acc,\n\
             \x20       int skelcl_cs, int skelcl_ce, int skelcl_gsize) {{\n\
             \x20   int i0 = skelcl_cs + (int)get_global_id(0);\n\
             \x20   if (i0 >= skelcl_ce) return;\n\
             \x20   int lane = i0 % skelcl_gsize;\n\
             \x20   int have = lane < skelcl_cs;\n\
             \x20   {t} acc = ({t})0;\n\
             \x20   if (have) acc = skelcl_acc[lane];\n\
             \x20   for (int i = i0; i < skelcl_ce; i += skelcl_gsize) {{\n\
             \x20       {t} x = skelcl_fused_load({in_args}, i - skelcl_cs);\n\
             \x20       if (have) {{ acc = {f}(acc, x); }} else {{ acc = x; have = 1; }}\n\
             \x20   }}\n\
             \x20   skelcl_acc[lane] = acc;\n\
             }}\n\
             {finish}",
            prologue = self.fused_prologue(p),
            finish = tree_reduce_kernel(
                t,
                f,
                "skelcl_reduce_stream_finish",
                &format!("__global const {t}* skelcl_acc, "),
                "skelcl_scratch[lid] = skelcl_acc[gid];",
            ),
        );
        let program = compile_cached(ctx, "skelcl_reduce_stream.cl", &source)?;

        let elem = std::mem::size_of::<T>();
        let mut read_ids = Vec::new();
        for share in shares {
            let device = share.plan.device;
            let base = share.plan.core.start;
            let n = share.plan.core_len();
            let groups = n.div_ceil(WG).min(MAX_GROUPS);
            let gsize = groups * WG;
            let acc = ctx.queue(device).create_buffer(gsize * elem)?;
            let partials = ctx.queue(device).create_buffer(groups * elem)?;
            let mut last = None;
            stream.share(share, (gsize + groups) * elem, |plan, chunk| {
                let core = &chunk.plan.core;
                let mut args: Vec<KernelArg> = chunk
                    .bufs
                    .iter()
                    .map(|b| KernelArg::Buffer(b.clone()))
                    .collect();
                args.push(KernelArg::Buffer(acc.clone()));
                args.push(KernelArg::Scalar(Value::I32((core.start - base) as i32)));
                args.push(KernelArg::Scalar(Value::I32((core.end - base) as i32)));
                args.push(KernelArg::Scalar(Value::I32(gsize as i32)));
                let mut deps = chunk.writes.to_vec();
                // The lane accumulator chains chunk to chunk (a RAW edge);
                // ring recycling already gates the uploads.
                deps.extend(last);
                let kid = plan.kernel(
                    device,
                    &program,
                    "skelcl_reduce_stream",
                    args,
                    NdRange::linear(core.len().min(gsize), WG),
                    core.len(),
                    &deps,
                );
                last = Some(kid);
                (kid, kid)
            })?;
            let fid = stream.plan.kernel(
                device,
                &program,
                "skelcl_reduce_stream_finish",
                vec![
                    KernelArg::Buffer(acc),
                    KernelArg::Buffer(partials.clone()),
                    KernelArg::Scalar(Value::I32(n as i32)),
                ],
                NdRange::linear(gsize, WG),
                0,
                &[last.expect("non-empty share has chunks")],
            );
            read_ids.push(self.plan_chain(
                &mut stream.plan,
                device,
                partials,
                groups.min(n.div_ceil(WG)),
                0,
                vec![fid],
            )?);
        }
        let values = Self::values(stream.run(&read_ids, events)?);
        self.combine_partials(&values, shares[0].plan.device, events)
    }

    /// Combines the per-device partials (at most one per GPU) on `device`.
    /// A single partial needs no kernel at all.
    fn combine_partials(&self, values: &[T], device: usize, events: &mut Vec<Event>) -> Result<T> {
        if values.len() == 1 {
            return Ok(values[0]);
        }
        let bytes = crate::types::to_bytes(values);
        let buf = self.core.ctx.queue(device).create_buffer(bytes.len())?;
        let mut plan = LaunchPlan::new();
        let upload = plan.write(device, &buf, 0, bytes, &[]);
        let read = self.plan_chain(&mut plan, device, buf, values.len(), 0, vec![upload])?;
        Ok(self.run_values(plan, &[read], events)?[0])
    }

    /// Appends the multi-pass reduction of `n` leading elements of
    /// `buffer` on `device` to `plan`, ending in a one-element readback
    /// node whose id is returned. `units` is the scheduler measurement
    /// credited to the chain (0 for helper chains such as the partial
    /// combine); `deps` gates the first pass.
    fn plan_chain(
        &self,
        plan: &mut LaunchPlan,
        device: usize,
        mut buffer: DeviceBuffer,
        mut n: usize,
        units: usize,
        mut deps: Vec<NodeId>,
    ) -> Result<NodeId> {
        let queue = self.core.ctx.queue(device);
        let elem = std::mem::size_of::<T>();
        let mut first = true;
        while n > 1 {
            let groups = n.div_ceil(WG).min(MAX_GROUPS);
            let out = queue.create_buffer(groups * elem)?;
            let id = plan.kernel(
                device,
                &self.core.program,
                "skelcl_reduce",
                vec![
                    KernelArg::Buffer(buffer.clone()),
                    KernelArg::Buffer(out.clone()),
                    KernelArg::Scalar(Value::I32(n as i32)),
                ],
                NdRange::linear(groups * WG, WG),
                if first { units } else { 0 },
                &deps,
            );
            deps = vec![id];
            buffer = out;
            n = groups.min(n.div_ceil(WG));
            first = false;
        }
        Ok(plan.read(device, &buffer, 0, elem, &deps))
    }
}

impl_skeleton!(Reduce<T>);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::DeviceSelection;
    use crate::Zip;
    use vgpu::{CommandKind, DeviceSpec, Platform};

    fn ctx(n: usize) -> Context {
        Context::init_with_config(
            Platform::new(n, DeviceSpec::tesla_t10()),
            DeviceSelection::All,
            crate::Config::default(),
        )
    }

    fn sum_reduce(ctx: &Context) -> Reduce<i64> {
        Reduce::new(ctx, "long sum(long x, long y){ return x + y; }").unwrap()
    }

    #[test]
    fn sums_small_vector() {
        let ctx = ctx(1);
        let sum = sum_reduce(&ctx);
        let v = Vector::from_vec(&ctx, vec![1i64, 2, 3, 4, 5]);
        assert_eq!(sum.call(&v).unwrap().value(), 15);
    }

    #[test]
    fn sums_across_group_and_pass_boundaries() {
        let ctx = ctx(1);
        let sum = sum_reduce(&ctx);
        // Sizes straddling WG (256), MAX_GROUPS*WG (16384) and beyond.
        for n in [1usize, 2, 255, 256, 257, 1000, 16384, 16385, 100_000] {
            let v = Vector::from_fn(&ctx, n, |i| i as i64);
            let expected: i64 = (0..n as i64).sum();
            assert_eq!(sum.call(&v).unwrap().value(), expected, "n = {n}");
        }
    }

    #[test]
    fn multi_gpu_reduction() {
        let ctx = ctx(4);
        let sum = sum_reduce(&ctx);
        let n = 10_001usize;
        let v = Vector::from_fn(&ctx, n, |i| i as i64);
        let expected: i64 = (0..n as i64).sum();
        let s = sum.call(&v).unwrap();
        assert_eq!(s.value(), expected);
        assert!(s.kernel_time().as_nanos() > 0);
    }

    #[test]
    fn maximum_reduce() {
        let ctx = ctx(2);
        let maxr: Reduce<f32> =
            Reduce::new(&ctx, "float m(float x, float y){ return fmax(x, y); }").unwrap();
        let v = Vector::from_fn(&ctx, 5000, |i| ((i * 37) % 1999) as f32);
        let expected = v.to_vec().unwrap().iter().cloned().fold(f32::MIN, f32::max);
        assert_eq!(maxr.call(&v).unwrap().value(), expected);
    }

    #[test]
    fn empty_input_rejected() {
        let ctx = ctx(1);
        let sum = sum_reduce(&ctx);
        let v = Vector::<i64>::zeros(&ctx, 0);
        assert!(matches!(sum.call(&v), Err(Error::EmptyContainer { .. })));
    }

    #[test]
    fn signature_checked() {
        let ctx = ctx(1);
        assert!(Reduce::<f32>::new(&ctx, "float f(float x){ return x; }").is_err());
        assert!(Reduce::<f32>::new(&ctx, "int f(float x, float y){ return 1; }").is_err());
        assert!(
            Reduce::<f32>::new(&ctx, "float f(float x, float y, float z){ return x; }").is_err()
        );
    }

    #[test]
    fn matrix_reduction() {
        let ctx = ctx(3);
        let sum = sum_reduce(&ctx);
        let m = crate::Matrix::from_fn(&ctx, 37, 23, |r, c| (r * 23 + c) as i64);
        let expected: i64 = (0..(37 * 23) as i64).sum();
        assert_eq!(sum.call_matrix(&m).unwrap().value(), expected);
        // Empty matrix rejected.
        let empty = crate::Matrix::<i64>::zeros(&ctx, 0, 5);
        assert!(matches!(
            sum.call_matrix(&empty),
            Err(Error::EmptyContainer { .. })
        ));
    }

    #[test]
    fn copy_distribution_reduces_once() {
        let ctx = ctx(2);
        let sum = sum_reduce(&ctx);
        let v = Vector::from_fn(&ctx, 100, |i| i as i64);
        v.set_distribution(Distribution::Copy).unwrap();
        assert_eq!(sum.call(&v).unwrap().value(), (0..100).sum::<i64>());
    }

    #[test]
    fn fused_dot_product_single_kernel_per_device() {
        let ctx = ctx(2);
        let sum: Reduce<f32> =
            Reduce::new(&ctx, "float sum(float x, float y){ return x + y; }").unwrap();
        let mult: Zip<f32, f32, f32> =
            Zip::new(&ctx, "float mult(float x, float y){ return x * y; }").unwrap();
        let a = Vector::from_fn(&ctx, 1000, |i| (i % 97) as f32 * 0.5);
        let b = Vector::from_fn(&ctx, 1000, |i| (i % 89) as f32 * 0.25);

        let unfused = sum.call(&mult.call(&a, &b).unwrap()).unwrap().value();
        let fused = sum
            .call_fused(&mult.lazy(&a.expr(), &b.expr()).unwrap())
            .unwrap()
            .value();
        assert_eq!(fused.to_bits(), unfused.to_bits());

        // 1000 elements over 2 devices → 500 per chunk → 2 groups →
        // one fused pass + one partial pass per device.
        let launches = sum.events().kernel_launches_by_device();
        assert_eq!(launches.len(), 2);
        // The fused pass must actually be the fused kernel.
        assert!(sum.events().last_events().iter().any(|e| matches!(
            e.kind(),
            CommandKind::Kernel { name } if name == "skelcl_reduce_fused"
        )));
    }

    #[test]
    fn fused_rejects_empty_and_foreign_context() {
        let ctx1 = ctx(1);
        let ctx2 = ctx(1);
        let sum: Reduce<f32> =
            Reduce::new(&ctx1, "float sum(float x, float y){ return x + y; }").unwrap();
        let neg: crate::Map<f32, f32> =
            crate::Map::new(&ctx1, "float neg(float x){ return -x; }").unwrap();

        let empty = Vector::<f32>::zeros(&ctx1, 0);
        let e = neg.lazy(&empty.expr()).unwrap();
        assert!(matches!(
            sum.call_fused(&e),
            Err(Error::EmptyContainer { .. })
        ));

        let foreign = Vector::from_vec(&ctx2, vec![1.0f32, 2.0]);
        let neg2: crate::Map<f32, f32> =
            crate::Map::new(&ctx2, "float neg(float x){ return -x; }").unwrap();
        let f = neg2.lazy(&foreign.expr()).unwrap();
        assert!(matches!(
            sum.call_fused(&f),
            Err(Error::ShapeMismatch { .. })
        ));
    }
}
