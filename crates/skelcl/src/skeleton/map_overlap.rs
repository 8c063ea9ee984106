//! The **MapOverlap** skeleton (paper §3.4): applies a customizing function
//! to each element while giving it access to neighbouring elements within
//! `[-d, +d]` per dimension, via the checked `get()` accessor.
//!
//! The generated kernel stages each work-group's footprint (core plus halo)
//! in **local memory** behind a barrier — the optimisation that makes
//! SkelCL's Sobel kernel match NVIDIA's hand-tuned version and beat the
//! AMD SDK version in the paper's Fig. 5. Out-of-range accesses are handled
//! per the configured [`BoundaryHandling`]: a neutral value or the nearest
//! valid element (§3.4).

use std::marker::PhantomData;
use std::sync::Arc;

use skelcl_kernel::value::Value;
use vgpu::NdRange;

use crate::codegen::{
    c_literal, compile_cached, expect_pointer_param, expect_return, expect_scalar_extras,
    extra_param_decls, extra_param_uses, parse_user_function, rewrite_get_calls, stencil_stage,
    UserFunction,
};
use crate::container::{Matrix, Vector};
use crate::context::Context;
use crate::error::{Error, Result};
use crate::exec::{extra_args, impl_skeleton, stencil_args, MapRegion, SkeletonCore};
use crate::expr::Expr;
use crate::plan::{PlanNode, StencilSpec};
use crate::types::KernelScalar;

/// 2-D work-group edge for matrix stencils (16×16, as the paper's CUDA and
/// OpenCL implementations use).
const TILE: usize = 16;

/// How out-of-bounds stencil accesses are handled (paper §3.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoundaryHandling<T> {
    /// A specified neutral value is returned (the paper's `SCL_NEUTRAL`).
    Neutral(T),
    /// The nearest valid element inside the container is returned.
    Nearest,
}

/// Parses and checks a stencil customizing function `O f(const I* p, …)`
/// with overlap range `d`, and rewrites its `get()` accesses (`matrix`:
/// the 2-D accessor).
fn parse_stencil<I: KernelScalar, O: KernelScalar>(
    source: &str,
    d: usize,
    matrix: bool,
) -> Result<UserFunction> {
    if d == 0 {
        return Err(Error::InvalidCustomizingFunction {
            skeleton: "MapOverlap",
            reason: "overlap range d must be at least 1".into(),
        });
    }
    let mut f = parse_user_function("MapOverlap", source)?;
    expect_pointer_param("MapOverlap", &f, 0, I::SCALAR)?;
    expect_return("MapOverlap", &f, O::SCALAR)?;
    expect_scalar_extras("MapOverlap", &f, 1)?;
    rewrite_get_calls(&mut f, matrix)?;
    Ok(f)
}

/// MapOverlap on matrices (the paper's Sobel use case, Listing 1.5).
///
/// The customizing function receives a pointer to the centre element and
/// reads neighbours with `get(m, dx, dy)` (column offset first, matching
/// the paper's Sobel listing); both offsets must stay within `[-d, +d]` —
/// violations trap at runtime, as the paper's `get` promises.
///
/// ```
/// use skelcl::{BoundaryHandling, Context, MapOverlap, Matrix};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ctx = Context::single_gpu();
/// // Sum of the 3×3 neighbourhood (paper Listing 1.2).
/// let m: MapOverlap<f32, f32> = MapOverlap::new(
///     &ctx,
///     "float func(const float* m_in){
///          float sum = 0.0f;
///          for (int i = -1; i <= 1; ++i)
///              for (int j = -1; j <= 1; ++j)
///                  sum += get(m_in, i, j);
///          return sum;
///      }",
///     1,
///     BoundaryHandling::Neutral(0.0),
/// )?;
/// let input = Matrix::from_fn(&ctx, 4, 4, |_, _| 1.0f32);
/// let out = m.call(&input)?;
/// assert_eq!(out.get(1, 1)?, 9.0); // interior: all nine neighbours
/// assert_eq!(out.get(0, 0)?, 4.0); // corner: five neighbours are neutral
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MapOverlap<I: KernelScalar, O: KernelScalar> {
    core: SkeletonCore,
    d: usize,
    _types: PhantomData<fn(I) -> O>,
}

impl<I: KernelScalar, O: KernelScalar> MapOverlap<I, O> {
    /// Creates a matrix MapOverlap with overlap range `d` and the given
    /// boundary handling.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidCustomizingFunction`] on parse/signature
    /// problems, or [`Error::InvalidDistribution`] when the tile for `d`
    /// exceeds the device's local memory.
    pub fn new(
        ctx: &Context,
        source: &str,
        d: usize,
        boundary: BoundaryHandling<I>,
    ) -> Result<Self> {
        let f = parse_stencil::<I, O>(source, d, true)?;
        // After rewriting, parameter 1 is the injected tile width.
        let extras = f.extra_params(2).to_vec();

        let tw = TILE + 2 * d;
        let tile_bytes = tw * tw * std::mem::size_of::<I>();
        let limit = ctx.queue(0).device().spec().local_memory_bytes;
        if tile_bytes > limit {
            return Err(Error::InvalidDistribution {
                reason: format!(
                    "overlap {d} needs a {tile_bytes}-byte tile, exceeding {limit} bytes of local memory"
                ),
            });
        }

        // Single-return bodies so the compiler's inliner can eliminate the
        // per-access call (vendor OpenCL compilers inline everything).
        let load = match &boundary {
            BoundaryHandling::Neutral(v) => format!(
                "return (r < 0 || r >= rows || c < 0 || c >= cols) ? {} : skelcl_in[r * cols + c];",
                c_literal(v.to_value())
            ),
            BoundaryHandling::Nearest => "int rr = clamp(r, 0, rows - 1);\n    \
                 int cc = clamp(c, 0, cols - 1);\n    return skelcl_in[rr * cols + cc];"
                .to_string(),
        };
        let kernel_source = format!(
            "{user}\n\
             {i} __skelcl_get2(const {i}* skelcl_c, int skelcl_tw, int dx, int dy) {{\n\
                 return (dx >= -{d} && dx <= {d} && dy >= -{d} && dy <= {d})\n\
                     ? skelcl_c[dy * skelcl_tw + dx] : ({i})__skelcl_trap_int(100);\n\
             }}\n\
             {i} __skelcl_load(__global const {i}* skelcl_in, int r, int c, int rows, int cols) {{\n\
                 {load}\n\
             }}\n\
             __kernel void skelcl_mapoverlap(__global const {i}* skelcl_in, __global {o}* skelcl_out,\n\
                     int skelcl_in_rows, int skelcl_cols, int skelcl_out_rows, int skelcl_row_off{decls}) {{\n\
                 __local {i} skelcl_tile[{th} * {tw}];\n\
                 int lx = (int)get_local_id(0);\n\
                 int ly = (int)get_local_id(1);\n\
                 int gx = (int)get_global_id(0);\n\
                 int gy = (int)get_global_id(1);\n\
                 int lsx = (int)get_local_size(0);\n\
                 int lsy = (int)get_local_size(1);\n\
                 int base_r = (int)get_group_id(1) * lsy + skelcl_row_off - {d};\n\
                 int base_c = (int)get_group_id(0) * lsx - {d};\n\
                 for (int ty = ly; ty < {th}; ty += lsy)\n\
                     for (int tx = lx; tx < {tw}; tx += lsx) {{\n\
                         int skelcl_r = base_r + ty;\n\
                         int skelcl_cc = base_c + tx;\n\
                         skelcl_tile[ty * {tw} + tx] =\n\
                             __skelcl_load(skelcl_in, skelcl_r, skelcl_cc, skelcl_in_rows, skelcl_cols);\n\
                     }}\n\
                 barrier(CLK_LOCAL_MEM_FENCE);\n\
                 if (gx < skelcl_cols && gy < skelcl_out_rows)\n\
                     skelcl_out[gy * skelcl_cols + gx] =\n\
                         {f}(&skelcl_tile[(ly + {d}) * {tw} + (lx + {d})], {tw}{uses});\n\
             }}\n",
            user = f.source(),
            i = I::SCALAR,
            o = O::SCALAR,
            f = f.name,
            d = d,
            tw = tw,
            th = tw,
            decls = extra_param_decls(&extras, "skelcl_x"),
            uses = extra_param_uses(&extras, "skelcl_x"),
        );
        let program = compile_cached(ctx, "skelcl_mapoverlap.cl", &kernel_source)?;
        Ok(MapOverlap {
            core: SkeletonCore::new(ctx, "MapOverlap", program, extras),
            d,
            _types: PhantomData,
        })
    }

    /// Applies the stencil to a matrix.
    ///
    /// # Errors
    ///
    /// Propagates platform failures; a `get` access beyond `±d` traps.
    pub fn call(&self, input: &Matrix<I>) -> Result<Matrix<O>> {
        self.call_with(input, &[])
    }

    /// [`MapOverlap::call`] with extra scalar arguments.
    ///
    /// # Errors
    ///
    /// As for [`MapOverlap::call`], plus extra-argument arity mismatches.
    pub fn call_with(&self, input: &Matrix<I>, extra: &[Value]) -> Result<Matrix<O>> {
        let _span = self.core.begin("MapOverlap.call");
        self.core.check_extras(extra)?;
        // The distribution unit is a row: `ins, out, stored rows, cols,
        // core rows, first core row, extras…` over a cols × core-rows grid.
        let data = self.core.run_region(
            &MapRegion::stencil(
                &self.core.ctx,
                &[&*input.data],
                self.d,
                &self.core.program,
                "skelcl_mapoverlap",
            ),
            &|view| {
                let (plan, cols) = (view.plan, view.unit_elems);
                let mut args = view.input_args();
                args.extend(view.output_args([
                    plan.stored_len(),
                    cols,
                    plan.core_len(),
                    plan.core_offset(),
                ]));
                args.extend(extra_args(extra));
                (args, NdRange::grid([cols, plan.core_len()], [TILE, TILE]))
            },
        )?;
        Ok(Matrix { data })
    }

    /// The overlap range `d`.
    pub fn overlap(&self) -> usize {
        self.d
    }

    /// The generated kernel program (debugging/ablation aid).
    pub fn program(&self) -> &skelcl_kernel::Program {
        &self.core.program
    }
}

impl_skeleton!(MapOverlap<I, O>);

/// MapOverlap on vectors: the customizing function reads neighbours with
/// `get(v, di)`, `di ∈ [-d, +d]`.
///
/// ```
/// use skelcl::{BoundaryHandling, Context, MapOverlapVec, Vector};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ctx = Context::single_gpu();
/// let smooth: MapOverlapVec<f32, f32> = MapOverlapVec::new(
///     &ctx,
///     "float func(const float* v){ return (get(v,-1) + get(v,0) + get(v,1)) / 3.0f; }",
///     1,
///     BoundaryHandling::Nearest,
/// )?;
/// let v = Vector::from_vec(&ctx, vec![3.0f32, 3.0, 9.0, 9.0]);
/// assert_eq!(smooth.call(&v)?.to_vec()?, vec![3.0, 5.0, 7.0, 9.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MapOverlapVec<I: KernelScalar, O: KernelScalar> {
    core: SkeletonCore,
    spec: StencilSpec,
    _types: PhantomData<fn(I) -> O>,
}

impl<I: KernelScalar, O: KernelScalar> MapOverlapVec<I, O> {
    /// Creates a vector MapOverlap with overlap range `d`.
    ///
    /// # Errors
    ///
    /// As for [`MapOverlap::new`].
    pub fn new(
        ctx: &Context,
        source: &str,
        d: usize,
        boundary: BoundaryHandling<I>,
    ) -> Result<Self> {
        let f = parse_stencil::<I, O>(source, d, false)?;
        let extras = f.extra_params(1).to_vec();

        let (unit, func) = stencil_stage(&f);
        let spec = StencilSpec {
            unit,
            func,
            d,
            neutral: match &boundary {
                BoundaryHandling::Neutral(v) => Some(v.to_value()),
                BoundaryHandling::Nearest => None,
            },
            in_scalar: I::SCALAR,
            out_scalar: O::SCALAR,
            extras: Vec::new(),
        };
        let kernel_source = spec.weld(&f.source(), &f.name, None, &extras);
        let program = compile_cached(ctx, "skelcl_mapoverlap_vec.cl", &kernel_source)?;
        Ok(MapOverlapVec {
            core: SkeletonCore::new(ctx, "MapOverlapVec", program, extras),
            spec,
            _types: PhantomData,
        })
    }

    /// Applies the stencil to a vector.
    ///
    /// # Errors
    ///
    /// As for [`MapOverlap::call`].
    pub fn call(&self, input: &Vector<I>) -> Result<Vector<O>> {
        self.call_with(input, &[])
    }

    /// [`MapOverlapVec::call`] with extra scalar arguments.
    ///
    /// # Errors
    ///
    /// As for [`MapOverlap::call_with`].
    pub fn call_with(&self, input: &Vector<I>, extra: &[Value]) -> Result<Vector<O>> {
        let _span = self.core.begin("MapOverlapVec.call");
        self.core.check_extras(extra)?;
        let data = self.core.run_region(
            &MapRegion::stencil(
                &self.core.ctx,
                &[&*input.data],
                self.spec.d,
                &self.core.program,
                "skelcl_mapoverlap_vec",
            ),
            &|view| stencil_args(view, extra),
        )?;
        Ok(Vector { data })
    }

    /// Defers the stencil into an [`Expr`] node instead of executing it.
    ///
    /// Under the default plan configuration the stencil welds its
    /// elementwise producer chain into its own kernel, recomputing halo
    /// elements instead of materialising the producer's output (the
    /// `stencil` rewrite rule; `SKELCL_PLAN` controls this).
    ///
    /// # Errors
    ///
    /// Currently infallible; `Result` for uniformity with the eager call.
    pub fn lazy(&self, input: &Expr<I>) -> Result<Expr<O>> {
        self.lazy_with(input, &[])
    }

    /// [`MapOverlapVec::lazy`] with extra scalar arguments bound now.
    ///
    /// # Errors
    ///
    /// Fails on extra-argument arity or type mismatches.
    pub fn lazy_with(&self, input: &Expr<I>, extra: &[Value]) -> Result<Expr<O>> {
        self.core.check_extras(extra)?;
        let mut spec = self.spec.clone();
        spec.extras = extra.to_vec();
        Ok(Expr::from_node(Arc::new(PlanNode::Stencil {
            ctx: self.core.ctx.clone(),
            spec,
            standalone: self.core.program.clone(),
            arg: input.node().clone(),
        })))
    }

    /// The overlap range `d`.
    pub fn overlap(&self) -> usize {
        self.spec.d
    }
}

impl_skeleton!(MapOverlapVec<I, O>);

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

    const NEIGHBOUR_SUM: &str = "float func(const float* m_in){
        float sum = 0.0f;
        for (int i = -1; i <= 1; ++i)
            for (int j = -1; j <= 1; ++j)
                sum += get(m_in, i, j);
        return sum;
    }";

    /// Host reference for the 3×3 neighbour sum with neutral 0.
    fn host_neighbour_sum(input: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; rows * cols];
        for r in 0..rows as isize {
            for c in 0..cols as isize {
                let mut s = 0.0;
                for dr in -1..=1isize {
                    for dc in -1..=1isize {
                        let (rr, cc) = (r + dr, c + dc);
                        if rr >= 0 && rr < rows as isize && cc >= 0 && cc < cols as isize {
                            s += input[rr as usize * cols + cc as usize];
                        }
                    }
                }
                out[r as usize * cols + c as usize] = s;
            }
        }
        out
    }

    #[test]
    fn paper_listing_1_2_neighbour_sum() {
        let ctx = ctx(1);
        let m: MapOverlap<f32, f32> =
            MapOverlap::new(&ctx, NEIGHBOUR_SUM, 1, BoundaryHandling::Neutral(0.0)).unwrap();
        let rows = 20;
        let cols = 33;
        let input: Vec<f32> = (0..rows * cols).map(|i| (i % 7) as f32).collect();
        let matrix = Matrix::from_vec(&ctx, rows, cols, input.clone());
        let out = m.call(&matrix).unwrap().to_vec().unwrap();
        assert_eq!(out, host_neighbour_sum(&input, rows, cols));
    }

    #[test]
    fn multi_gpu_stencil_matches_single_gpu() {
        let input: Vec<f32> = (0..64 * 48).map(|i| ((i * 31) % 11) as f32).collect();
        let mut results = Vec::new();
        for devices in [1usize, 2, 3, 4] {
            let ctx = ctx(devices);
            let m: MapOverlap<f32, f32> =
                MapOverlap::new(&ctx, NEIGHBOUR_SUM, 1, BoundaryHandling::Neutral(0.0)).unwrap();
            let matrix = Matrix::from_vec(&ctx, 64, 48, input.clone());
            results.push(m.call(&matrix).unwrap().to_vec().unwrap());
        }
        for r in &results[1..] {
            assert_eq!(r, &results[0], "devices must agree at chunk seams");
        }
        assert_eq!(results[0], host_neighbour_sum(&input, 64, 48));
    }

    #[test]
    fn nearest_boundary_clamps() {
        let ctx = ctx(1);
        let left: MapOverlap<i32, i32> = MapOverlap::new(
            &ctx,
            "int f(const int* m){ return get(m, -1, 0); }",
            1,
            BoundaryHandling::Nearest,
        )
        .unwrap();
        let m = Matrix::from_fn(&ctx, 2, 3, |r, c| (r * 3 + c) as i32);
        let out = left.call(&m).unwrap();
        // Column 0 clamps to itself; others take the left neighbour.
        assert_eq!(out.get(0, 0).unwrap(), 0);
        assert_eq!(out.get(0, 1).unwrap(), 0);
        assert_eq!(out.get(1, 2).unwrap(), 4);
    }

    #[test]
    fn out_of_range_get_traps() {
        let ctx = ctx(1);
        let bad: MapOverlap<f32, f32> = MapOverlap::new(
            &ctx,
            "float f(const float* m){ return get(m, 2, 0); }",
            1,
            BoundaryHandling::Neutral(0.0),
        )
        .unwrap();
        let m = Matrix::<f32>::zeros(&ctx, 8, 8);
        let err = bad.call(&m).unwrap_err();
        assert!(err.to_string().contains("trap"), "{err}");
    }

    #[test]
    fn larger_overlap_range() {
        let ctx = ctx(2);
        let wide: MapOverlap<f32, f32> = MapOverlap::new(
            &ctx,
            "float f(const float* m){ return get(m, -3, -3) + get(m, 3, 3); }",
            3,
            BoundaryHandling::Neutral(100.0),
        )
        .unwrap();
        let m = Matrix::from_fn(&ctx, 12, 12, |r, c| (r * 12 + c) as f32);
        let out = wide.call(&m).unwrap();
        // Interior element: both neighbours in range.
        let v = out.get(5, 5).unwrap();
        let expect = (2.0 * 12.0 + 2.0) + (8.0 * 12.0 + 8.0);
        assert_eq!(v, expect);
        // Corner: both out of range -> 200.
        assert_eq!(out.get(0, 0).unwrap(), 100.0 + (3 * 12 + 3) as f32);
    }

    #[test]
    fn stencil_with_extra_arguments() {
        let ctx = ctx(1);
        let thresh: MapOverlap<f32, u8> = MapOverlap::new(
            &ctx,
            "uchar f(const float* m, float limit){
                float center = get(m, 0, 0);
                return center > limit ? 255 : 0;
            }",
            1,
            BoundaryHandling::Neutral(0.0),
        )
        .unwrap();
        let m = Matrix::from_fn(&ctx, 4, 4, |r, c| (r * 4 + c) as f32);
        let out = thresh.call_with(&m, &[Value::F32(7.5)]).unwrap();
        assert_eq!(out.get(0, 0).unwrap(), 0);
        assert_eq!(out.get(3, 3).unwrap(), 255);
    }

    #[test]
    fn matrix_stencil_extra_arguments_multi_gpu() {
        // Extra scalar args must reach every device's launch identically.
        let input: Vec<f32> = (0..40 * 17).map(|i| ((i * 13) % 23) as f32).collect();
        let mut results = Vec::new();
        for devices in [1usize, 3] {
            let ctx = ctx(devices);
            let thresh: MapOverlap<f32, u8> = MapOverlap::new(
                &ctx,
                "uchar f(const float* m, float limit, int on){
                    return get(m, 0, 0) > limit ? on : 0;
                }",
                1,
                BoundaryHandling::Neutral(0.0),
            )
            .unwrap();
            let m = Matrix::from_vec(&ctx, 40, 17, input.clone());
            results.push(
                thresh
                    .call_with(&m, &[Value::F32(11.0), Value::I32(7)])
                    .unwrap()
                    .to_vec()
                    .unwrap(),
            );
            // Wrong arity / wrong type rejected.
            assert!(thresh.call_with(&m, &[Value::F32(11.0)]).is_err());
        }
        assert_eq!(results[0], results[1]);
        assert!(results[0].iter().all(|&v| v == 0 || v == 7));
    }

    #[test]
    fn vector_stencil_multi_gpu() {
        let data: Vec<f32> = (0..2000).map(|i| (i % 29) as f32).collect();
        let mut results = Vec::new();
        for devices in [1usize, 3] {
            let ctx = ctx(devices);
            let avg: MapOverlapVec<f32, f32> = MapOverlapVec::new(
                &ctx,
                "float f(const float* v){ return get(v,-2)+get(v,-1)+get(v,0)+get(v,1)+get(v,2); }",
                2,
                BoundaryHandling::Neutral(0.0),
            )
            .unwrap();
            let v = Vector::from_vec(&ctx, data.clone());
            results.push(avg.call(&v).unwrap().to_vec().unwrap());
        }
        assert_eq!(results[0], results[1]);
        // Host reference for a middle element.
        let i = 1000;
        let expect: f32 = (i - 2..=i + 2).map(|j| (j % 29) as f32).sum();
        assert!((results[0][i] - expect).abs() < 1e-5);
    }

    #[test]
    fn rejects_invalid_configurations() {
        let ctx = ctx(1);
        assert!(MapOverlap::<f32, f32>::new(
            &ctx,
            "float f(const float* m){ return get(m,0,0); }",
            0,
            BoundaryHandling::Neutral(0.0)
        )
        .is_err());
        assert!(MapOverlap::<f32, f32>::new(
            &ctx,
            "float f(float x){ return x; }",
            1,
            BoundaryHandling::Neutral(0.0)
        )
        .is_err());
        // Tile too large for 16 KiB local memory (d=40 with f64).
        assert!(MapOverlap::<f64, f64>::new(
            &ctx,
            "double f(const double* m){ return get(m,0,0); }",
            40,
            BoundaryHandling::Neutral(0.0)
        )
        .is_err());
    }

    #[test]
    fn uses_local_memory_counters() {
        let ctx = ctx(1);
        let m: MapOverlap<f32, f32> =
            MapOverlap::new(&ctx, NEIGHBOUR_SUM, 1, BoundaryHandling::Neutral(0.0)).unwrap();
        let matrix = Matrix::<f32>::zeros(&ctx, 32, 32);
        m.call(&matrix).unwrap();
        let events = m.events().last_events();
        let counters = events
            .iter()
            .find_map(|e| e.counters())
            .expect("kernel event has counters");
        assert!(
            counters.local_mem_ops() > counters.global_mem_ops(),
            "stencil reads should hit local memory: {counters:?}"
        );
    }
}
