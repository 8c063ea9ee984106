//! The **Scan** skeleton (paper §3.3): inclusive prefix computation
//! (a.k.a. prefix-sum) with a binary associative customizing operator.
//!
//! Implementation: per-block Hillis–Steele scan in local memory (pointer
//! double-buffering behind barriers), a recursive scan of the block sums,
//! and an offset-application pass — the standard multi-block GPU scan. On
//! multiple GPUs each device scans its block chunk; the chunk totals are
//! scanned on the first device and applied as per-device offsets.

use std::marker::PhantomData;
use std::sync::{Arc, Mutex};

use skelcl_kernel::value::Value;
use vgpu::{DeviceBuffer, Event, KernelArg, NdRange};

use crate::codegen::{
    compile_cached, expect_return, expect_scalar_param, parse_user_function, stage_spec, StageSpec,
};
use crate::container::data::{DeviceChunk, DistributedData};
use crate::container::Vector;
use crate::context::Context;
use crate::distribution::Distribution;
use crate::engine::{LaunchPlan, NodeId};
use crate::error::{Error, Result};
use crate::exec::{impl_skeleton, reduction_distribution, run_plan, SkeletonCore};
use crate::expr::Expr;
use crate::plan::{apply_offsets, PlanNode, ScanOffsetState};
use crate::types::{from_bytes, to_bytes, KernelScalar};

/// Work-group (and scan block) size.
const WG: usize = 256;

/// The Scan skeleton:
/// `scan (⊕) [v1, …, vn] = [v1, v1 ⊕ v2, …, v1 ⊕ … ⊕ vn]` (inclusive).
///
/// ```
/// use skelcl::{Context, Scan, Vector};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ctx = Context::single_gpu();
/// let prefix: Scan<i32> = Scan::new(&ctx, "int add(int x, int y){ return x + y; }")?;
/// let v = Vector::from_vec(&ctx, vec![1, 2, 3, 4]);
/// assert_eq!(prefix.call(&v)?.to_vec()?, vec![1, 3, 6, 10]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Scan<T: KernelScalar> {
    core: SkeletonCore,
    stage: StageSpec,
    _types: PhantomData<fn(T, T) -> T>,
}

/// Result of the eager part of a scan: per-chunk inclusive scans plus the
/// scanned chunk totals (empty on a single chunk).
struct ScanPhase1<T: KernelScalar> {
    output: Vector<T>,
    out_chunks: Vec<DeviceChunk>,
    dist: Distribution,
    prefixes: Vec<T>,
    events: Vec<Event>,
}

impl<T: KernelScalar> Scan<T> {
    /// Creates a Scan skeleton from a binary associative operator
    /// `T f(T x, T y)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidCustomizingFunction`] on parse or signature
    /// problems.
    pub fn new(ctx: &Context, source: &str) -> Result<Self> {
        let f = parse_user_function("Scan", source)?;
        expect_scalar_param("Scan", &f, 0, T::SCALAR)?;
        expect_scalar_param("Scan", &f, 1, T::SCALAR)?;
        expect_return("Scan", &f, T::SCALAR)?;
        if f.params.len() != 2 {
            return Err(Error::InvalidCustomizingFunction {
                skeleton: "Scan",
                reason: format!("`{}` must take exactly two parameters", f.name),
            });
        }

        let kernel_source = format!(
            "{user}\n\
             __kernel void skelcl_scan_block(__global const {t}* skelcl_in, __global {t}* skelcl_out,\n\
                                             __global {t}* skelcl_sums, int skelcl_n) {{\n\
                 __local {t} skelcl_bufa[{wg}];\n\
                 __local {t} skelcl_bufb[{wg}];\n\
                 __local {t}* cur = skelcl_bufa;\n\
                 __local {t}* nxt = skelcl_bufb;\n\
                 int lid = (int)get_local_id(0);\n\
                 int gid = (int)get_global_id(0);\n\
                 int lsz = (int)get_local_size(0);\n\
                 if (gid < skelcl_n) cur[lid] = skelcl_in[gid];\n\
                 barrier(CLK_LOCAL_MEM_FENCE);\n\
                 for (int off = 1; off < lsz; off <<= 1) {{\n\
                     if (lid >= off && gid < skelcl_n) nxt[lid] = {f}(cur[lid - off], cur[lid]);\n\
                     else nxt[lid] = cur[lid];\n\
                     barrier(CLK_LOCAL_MEM_FENCE);\n\
                     __local {t}* tmp = cur; cur = nxt; nxt = tmp;\n\
                 }}\n\
                 if (gid < skelcl_n) skelcl_out[gid] = cur[lid];\n\
                 if (lid == lsz - 1) skelcl_sums[get_group_id(0)] = cur[lid];\n\
             }}\n\
             __kernel void skelcl_scan_add_sums(__global {t}* skelcl_data,\n\
                                                __global const {t}* skelcl_sums, int skelcl_n) {{\n\
                 int gid = (int)get_global_id(0);\n\
                 int g = (int)get_group_id(0);\n\
                 if (g > 0 && gid < skelcl_n)\n\
                     skelcl_data[gid] = {f}(skelcl_sums[g - 1], skelcl_data[gid]);\n\
             }}\n\
             __kernel void skelcl_scan_offset(__global {t}* skelcl_data, {t} skelcl_off, int skelcl_n) {{\n\
                 int gid = (int)get_global_id(0);\n\
                 if (gid < skelcl_n) skelcl_data[gid] = {f}(skelcl_off, skelcl_data[gid]);\n\
             }}\n",
            user = f.source(),
            t = T::SCALAR,
            f = f.name,
            wg = WG,
        );
        let program = compile_cached(ctx, "skelcl_scan.cl", &kernel_source)?;
        let stage = stage_spec(&f, T::SCALAR);
        Ok(Scan {
            core: SkeletonCore::new(ctx, "Scan", program, Vec::new()),
            stage,
            _types: PhantomData,
        })
    }

    /// Computes the inclusive prefix of a vector.
    ///
    /// # Errors
    ///
    /// Propagates platform failures; empty input yields an empty output.
    pub fn call(&self, input: &Vector<T>) -> Result<Vector<T>> {
        let _span = self.core.begin("Scan.call");
        self.core.check_ctx(input.context())?;
        if input.is_empty() {
            return Ok(Vector::from_vec(&self.core.ctx, Vec::new()));
        }
        let mut p1 = self.run_phase1(input)?;
        // Phase 2b: one offset kernel per remaining chunk.
        if !p1.prefixes.is_empty() {
            let state = self.pending_offsets(&p1);
            let chunks = Some(p1.out_chunks.as_slice());
            apply_offsets(&state, &self.core.ctx, &mut p1.events, chunks)?;
        }
        self.core.events.record(p1.events);
        p1.output.data.mark_device_written();
        Ok(p1.output)
    }

    /// Computes the inclusive prefix lazily: per-chunk scans run now, but
    /// on multiple devices the cross-chunk offset pass is parked as a
    /// [`PlanNode::ScanOffset`] leaf. The plan layer either folds the
    /// offset into a downstream fused load (the `scan-offset` rewrite
    /// rule) or applies it standalone — bit-identical either way.
    ///
    /// # Errors
    ///
    /// As for [`Scan::call`].
    pub fn lazy(&self, input: &Vector<T>) -> Result<Expr<T>> {
        let _span = self.core.begin("Scan.lazy");
        self.core.check_ctx(input.context())?;
        if input.is_empty() {
            return Ok(Expr::from(&Vector::from_vec(&self.core.ctx, Vec::new())));
        }
        let p1 = self.run_phase1(input)?;
        p1.output.data.mark_device_written();
        let expr = if p1.prefixes.is_empty() {
            Expr::from(&p1.output)
        } else {
            Expr::from_node(Arc::new(PlanNode::ScanOffset {
                ctx: self.core.ctx.clone(),
                state: Arc::new(self.pending_offsets(&p1)),
            }))
        };
        self.core.events.record(p1.events);
        Ok(expr)
    }

    /// Phase 2b — adding each predecessor chunk's total — as pending
    /// state over phase 1's output.
    fn pending_offsets(&self, p1: &ScanPhase1<T>) -> ScanOffsetState {
        ScanOffsetState {
            program: self.core.program.clone(),
            stage: self.stage.clone(),
            scalar: T::SCALAR,
            zero: T::default().to_value(),
            vector: p1.output.data.clone(),
            dist: p1.dist,
            offsets: p1.prefixes.iter().map(|v| v.to_value()).collect(),
            plans: p1.out_chunks.iter().map(|c| c.plan.clone()).collect(),
            applied: Mutex::new(false),
        }
    }

    /// Phase 1 (per-chunk inclusive scans) plus phase 2a (scan of the
    /// chunk totals on the first device). `prefixes` stays empty on a
    /// single chunk, where the scan is already complete.
    fn run_phase1(&self, input: &Vector<T>) -> Result<ScanPhase1<T>> {
        let dist = reduction_distribution(input.data.effective_distribution(Distribution::Block));
        let in_chunks = input.data.ensure_device(dist)?;
        let (output, out_chunks) =
            DistributedData::alloc_device(self.core.ctx.clone(), input.len(), 1, dist)?;
        let elem = std::mem::size_of::<T>();
        let multi = out_chunks.len() > 1;

        // Phase 1: one plan — every device scans its chunk on its own
        // asynchronous queue. On multiple devices each chain ends in a
        // one-element readback of the chunk total, dependent on the
        // chunk's final scan pass.
        let mut plan = LaunchPlan::new();
        let mut total_reads = Vec::new();
        for (ic, oc) in in_chunks.iter().zip(&out_chunks) {
            let core = ic.plan.core_len();
            let done = self.plan_scan(
                &mut plan,
                ic.plan.device,
                &ic.buffer,
                &oc.buffer,
                core,
                core,
                &[],
            )?;
            if multi {
                total_reads.push(plan.read(
                    ic.plan.device,
                    &oc.buffer,
                    (core - 1) * elem,
                    elem,
                    &[done],
                ));
            }
        }
        let mut events = Vec::new();
        let totals: Vec<T> = run_plan(&self.core.ctx, plan, &total_reads, &[], &mut events)?
            .iter()
            .map(|b| T::from_le_bytes(b))
            .collect();

        // Phase 2a: scan the chunk totals on the first device to get the
        // per-chunk offsets.
        let mut prefixes = Vec::new();
        if multi {
            let first = out_chunks[0].plan.device;
            let queue = self.core.ctx.queue(first);
            let count = totals.len();
            let tot_buf = queue.create_buffer(count * elem)?;
            let scanned = queue.create_buffer(count * elem)?;
            let mut plan = LaunchPlan::new();
            let upload = plan.write(first, &tot_buf, 0, to_bytes(&totals), &[]);
            let done = self.plan_scan(&mut plan, first, &tot_buf, &scanned, count, 0, &[upload])?;
            let read = plan.read(first, &scanned, 0, count * elem, &[done]);
            prefixes = from_bytes(&run_plan(&self.core.ctx, plan, &[read], &[], &mut events)?[0]);
        }

        Ok(ScanPhase1 {
            output: Vector { data: output },
            out_chunks,
            dist,
            prefixes,
            events,
        })
    }

    /// Appends the recursive multi-block scan of `n` elements of `input`
    /// into `output` on `device` to `plan`, returning the node after which
    /// `output` holds the finished scan. `units` is the scheduler
    /// measurement credited to the top-level block pass (0 for helper
    /// scans); `deps` gates the first pass.
    #[allow(clippy::too_many_arguments)]
    fn plan_scan(
        &self,
        plan: &mut LaunchPlan,
        device: usize,
        input: &DeviceBuffer,
        output: &DeviceBuffer,
        n: usize,
        units: usize,
        deps: &[NodeId],
    ) -> Result<NodeId> {
        let queue = self.core.ctx.queue(device);
        let elem = std::mem::size_of::<T>();
        let groups = n.div_ceil(WG);
        let sums = queue.create_buffer(groups * elem)?;
        let block = plan.kernel(
            device,
            &self.core.program,
            "skelcl_scan_block",
            vec![
                KernelArg::Buffer(input.clone()),
                KernelArg::Buffer(output.clone()),
                KernelArg::Buffer(sums.clone()),
                KernelArg::Scalar(Value::I32(n as i32)),
            ],
            NdRange::linear(groups * WG, WG),
            units,
            deps,
        );
        if groups == 1 {
            return Ok(block);
        }
        let scanned = queue.create_buffer(groups * elem)?;
        let sums_done = self.plan_scan(plan, device, &sums, &scanned, groups, 0, &[block])?;
        Ok(plan.kernel(
            device,
            &self.core.program,
            "skelcl_scan_add_sums",
            vec![
                KernelArg::Buffer(output.clone()),
                KernelArg::Buffer(scanned),
                KernelArg::Scalar(Value::I32(n as i32)),
            ],
            NdRange::linear(groups * WG, WG),
            0,
            &[sums_done],
        ))
    }
}

impl_skeleton!(Scan<T>);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::DeviceSelection;
    use vgpu::{DeviceSpec, Platform};

    fn ctx(n: usize) -> Context {
        Context::init(
            Platform::new(n, DeviceSpec::tesla_t10()),
            DeviceSelection::All,
        )
    }

    fn prefix_sum(ctx: &Context) -> Scan<i64> {
        Scan::new(ctx, "long add(long x, long y){ return x + y; }").unwrap()
    }

    fn host_scan(input: &[i64]) -> Vec<i64> {
        input
            .iter()
            .scan(0i64, |acc, &x| {
                *acc += x;
                Some(*acc)
            })
            .collect()
    }

    #[test]
    fn paper_prefix_sum_example() {
        let ctx = ctx(1);
        let scan = prefix_sum(&ctx);
        let v = Vector::from_vec(&ctx, vec![1i64, 2, 3, 4, 5]);
        assert_eq!(
            scan.call(&v).unwrap().to_vec().unwrap(),
            vec![1, 3, 6, 10, 15]
        );
    }

    #[test]
    fn scan_across_block_boundaries() {
        let ctx = ctx(1);
        let scan = prefix_sum(&ctx);
        for n in [1usize, 255, 256, 257, 512, 1000, 65537] {
            let data: Vec<i64> = (0..n as i64).map(|i| (i * 7) % 13 - 6).collect();
            let v = Vector::from_vec(&ctx, data.clone());
            assert_eq!(
                scan.call(&v).unwrap().to_vec().unwrap(),
                host_scan(&data),
                "n = {n}"
            );
        }
    }

    #[test]
    fn multi_gpu_scan() {
        let ctx = ctx(4);
        let scan = prefix_sum(&ctx);
        let data: Vec<i64> = (0..4099).map(|i| i % 17 - 8).collect();
        let v = Vector::from_vec(&ctx, data.clone());
        assert_eq!(scan.call(&v).unwrap().to_vec().unwrap(), host_scan(&data));
    }

    #[test]
    fn non_commutative_operator() {
        // Scan must preserve order; use a non-commutative associative op:
        // 2x2 matrix multiplication is overkill, but string-like "last"
        // composition works: f(x, y) = y ("replace"), whose scan is the
        // input itself.
        let ctx = ctx(2);
        let last: Scan<i32> = Scan::new(&ctx, "int f(int x, int y){ return y; }").unwrap();
        let data: Vec<i32> = (0..1000).map(|i| i * 3).collect();
        let v = Vector::from_vec(&ctx, data.clone());
        assert_eq!(last.call(&v).unwrap().to_vec().unwrap(), data);
    }

    #[test]
    fn float_prefix_product() {
        let ctx = ctx(2);
        let prod: Scan<f64> =
            Scan::new(&ctx, "double mul(double x, double y){ return x * y; }").unwrap();
        let v = Vector::from_vec(&ctx, vec![1.0f64, 2.0, 0.5, 4.0, 0.25]);
        let out = prod.call(&v).unwrap().to_vec().unwrap();
        assert_eq!(out, vec![1.0, 2.0, 1.0, 4.0, 1.0]);
    }

    #[test]
    fn empty_scan_is_empty() {
        let ctx = ctx(2);
        let scan = prefix_sum(&ctx);
        let v = Vector::<i64>::zeros(&ctx, 0);
        assert!(scan.call(&v).unwrap().is_empty());
    }

    #[test]
    fn signature_checked() {
        let ctx = ctx(1);
        assert!(Scan::<i32>::new(&ctx, "int f(int x){ return x; }").is_err());
        assert!(Scan::<i32>::new(&ctx, "float f(int x, int y){ return 0.0f; }").is_err());
    }
}
