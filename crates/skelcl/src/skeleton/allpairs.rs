//! The **Allpairs** skeleton (paper §3.5): for an `n×d` matrix `A` and an
//! `m×d` matrix `B`, computes the `n×m` matrix `C` with
//! `C[i][j] = A_i ⊕ B_j` where `⊕` combines two length-`d` rows.
//!
//! Two variants are provided:
//!
//! * [`Allpairs::new`] — the generic form: the customizing function receives
//!   both row pointers and the row length;
//! * [`Allpairs::zip_reduce`] — the specialised form for `⊕ = reduce ∘ zip`
//!   (e.g. matrix multiplication, Fig. 3 / Example 1): the generated kernel
//!   stages row/column tiles in local memory, the classic tiled matmul
//!   optimisation.

use std::marker::PhantomData;

use skelcl_kernel::value::Value;
use vgpu::{KernelArg, NdRange};

use crate::codegen::{
    compile_cached, expect_pointer_param, expect_return, expect_scalar_param, parse_user_function,
};
use crate::container::data::DistributedData;
use crate::container::Matrix;
use crate::context::Context;
use crate::distribution::Distribution;
use crate::error::{Error, Result};
use crate::exec::{impl_skeleton, DeviceLaunch, SkeletonCore};
use crate::types::KernelScalar;

/// Tile edge of the zip-reduce specialisation's work-groups.
const TILE: usize = 16;

/// The Allpairs skeleton.
///
/// # Example: pairwise Manhattan distance (the paper's motivating use)
///
/// ```
/// use skelcl::{Allpairs, Context, Matrix};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ctx = Context::single_gpu();
/// let manhattan: Allpairs<f32, f32> = Allpairs::new(
///     &ctx,
///     "float func(const float* a, const float* b, int d){
///          float sum = 0.0f;
///          for (int k = 0; k < d; ++k) sum += fabs(a[k] - b[k]);
///          return sum;
///      }",
/// )?;
/// let a = Matrix::from_vec(&ctx, 2, 3, vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
/// let b = Matrix::from_vec(&ctx, 2, 3, vec![1.0, 1.0, 1.0, 0.0, 2.0, 4.0]);
/// let c = manhattan.call(&a, &b)?;
/// assert_eq!(c.get(0, 0)?, 3.0);
/// assert_eq!(c.get(1, 1)?, 1.0 + 1.0 + 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Allpairs<I: KernelScalar, O: KernelScalar> {
    core: SkeletonCore,
    kernel: &'static str,
    _types: PhantomData<fn(I) -> O>,
}

impl<I: KernelScalar, O: KernelScalar> Allpairs<I, O> {
    /// Creates a generic Allpairs skeleton from a row-combining function
    /// `O func(const I* a_row, const I* b_row, int d)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidCustomizingFunction`] on parse/signature
    /// problems.
    pub fn new(ctx: &Context, source: &str) -> Result<Self> {
        let f = parse_user_function("Allpairs", source)?;
        expect_pointer_param("Allpairs", &f, 0, I::SCALAR)?;
        expect_pointer_param("Allpairs", &f, 1, I::SCALAR)?;
        expect_scalar_param("Allpairs", &f, 2, skelcl_kernel::types::ScalarType::Int)?;
        expect_return("Allpairs", &f, O::SCALAR)?;
        if f.params.len() != 3 {
            return Err(Error::InvalidCustomizingFunction {
                skeleton: "Allpairs",
                reason: format!(
                    "`{}` must take exactly (const {}* a, const {}* b, int d)",
                    f.name,
                    I::SCALAR,
                    I::SCALAR
                ),
            });
        }

        let kernel_source = format!(
            "{user}\n\
             __kernel void skelcl_allpairs(__global const {i}* skelcl_a, __global const {i}* skelcl_b,\n\
                     __global {o}* skelcl_c, int skelcl_n, int skelcl_m, int skelcl_d) {{\n\
                 int col = (int)get_global_id(0);\n\
                 int row = (int)get_global_id(1);\n\
                 if (row < skelcl_n && col < skelcl_m)\n\
                     skelcl_c[row * skelcl_m + col] =\n\
                         {f}(&skelcl_a[row * skelcl_d], &skelcl_b[col * skelcl_d], skelcl_d);\n\
             }}\n",
            user = f.source(),
            i = I::SCALAR,
            o = O::SCALAR,
            f = f.name,
        );
        let program = compile_cached(ctx, "skelcl_allpairs.cl", &kernel_source)?;
        Ok(Allpairs {
            core: SkeletonCore::new(ctx, "Allpairs", program, Vec::new()),
            kernel: "skelcl_allpairs",
            _types: PhantomData,
        })
    }

    /// Creates the zip-reduce specialisation from a zip operator
    /// `O zip(I x, I y)` and a reduce operator `O red(O x, O y)` — e.g.
    /// multiplication and addition for matrix multiplication
    /// (`A × B = allpairs(dotProduct)(A, Bᵀ)`, paper Example 1). The
    /// generated kernel uses local-memory tiling.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidCustomizingFunction`] on parse/signature
    /// problems of either operator.
    pub fn zip_reduce(ctx: &Context, zip_source: &str, reduce_source: &str) -> Result<Self> {
        let zf = parse_user_function("Allpairs(zip)", zip_source)?;
        expect_scalar_param("Allpairs(zip)", &zf, 0, I::SCALAR)?;
        expect_scalar_param("Allpairs(zip)", &zf, 1, I::SCALAR)?;
        expect_return("Allpairs(zip)", &zf, O::SCALAR)?;
        let rf = parse_user_function("Allpairs(reduce)", reduce_source)?;
        expect_scalar_param("Allpairs(reduce)", &rf, 0, O::SCALAR)?;
        expect_scalar_param("Allpairs(reduce)", &rf, 1, O::SCALAR)?;
        expect_return("Allpairs(reduce)", &rf, O::SCALAR)?;
        if zf.name == rf.name {
            return Err(Error::InvalidCustomizingFunction {
                skeleton: "Allpairs",
                reason: "zip and reduce customizing functions must have distinct names".into(),
            });
        }

        let kernel_source = format!(
            "{zip_user}\n{red_user}\n\
             __kernel void skelcl_allpairs_zr(__global const {i}* skelcl_a, __global const {i}* skelcl_b,\n\
                     __global {o}* skelcl_c, int skelcl_n, int skelcl_m, int skelcl_d) {{\n\
                 __local {i} skelcl_atile[{tile} * {tile}];\n\
                 __local {i} skelcl_btile[{tile} * {tile}];\n\
                 int col = (int)get_global_id(0);\n\
                 int row = (int)get_global_id(1);\n\
                 int lx = (int)get_local_id(0);\n\
                 int ly = (int)get_local_id(1);\n\
                 {o} acc = ({o})0;\n\
                 int first = 1;\n\
                 for (int t = 0; t < skelcl_d; t += {tile}) {{\n\
                     int ac = t + lx;\n\
                     int arow = (int)get_group_id(1) * {tile} + ly;\n\
                     skelcl_atile[ly * {tile} + lx] =\n\
                         (arow < skelcl_n && ac < skelcl_d) ? skelcl_a[arow * skelcl_d + ac] : ({i})0;\n\
                     int brow = (int)get_group_id(0) * {tile} + ly;\n\
                     skelcl_btile[ly * {tile} + lx] =\n\
                         (brow < skelcl_m && ac < skelcl_d) ? skelcl_b[brow * skelcl_d + ac] : ({i})0;\n\
                     barrier(CLK_LOCAL_MEM_FENCE);\n\
                     int kmax = skelcl_d - t < {tile} ? skelcl_d - t : {tile};\n\
                     for (int k = 0; k < kmax; ++k) {{\n\
                         {o} v = {zf}(skelcl_atile[ly * {tile} + k], skelcl_btile[lx * {tile} + k]);\n\
                         if (first) {{ acc = v; first = 0; }} else {{ acc = {rf}(acc, v); }}\n\
                     }}\n\
                     barrier(CLK_LOCAL_MEM_FENCE);\n\
                 }}\n\
                 if (row < skelcl_n && col < skelcl_m)\n\
                     skelcl_c[row * skelcl_m + col] = acc;\n\
             }}\n",
            zip_user = zf.source(),
            red_user = rf.source(),
            i = I::SCALAR,
            o = O::SCALAR,
            zf = zf.name,
            rf = rf.name,
            tile = TILE,
        );
        let program = compile_cached(ctx, "skelcl_allpairs_zr.cl", &kernel_source)?;
        Ok(Allpairs {
            core: SkeletonCore::new(ctx, "Allpairs", program, Vec::new()),
            kernel: "skelcl_allpairs_zr",
            _types: PhantomData,
        })
    }

    /// Computes the all-pairs combination of `a` (`n×d`) and `b` (`m×d`),
    /// producing `n×m`. On multiple GPUs, `a` and the result are
    /// block-distributed by rows while `b` uses the copy distribution —
    /// the distribution strategy the paper's skeleton selects by default.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::ShapeMismatch`] when the row widths differ, plus
    /// any platform failure.
    pub fn call(&self, a: &Matrix<I>, b: &Matrix<I>) -> Result<Matrix<O>> {
        let _span = self.core.begin("Allpairs.call");
        self.core.check_ctx(a.context())?;
        self.core.check_ctx(b.context())?;
        if a.cols() != b.cols() {
            return Err(Error::ShapeMismatch {
                reason: format!(
                    "allpairs requires equal row widths, found {} and {}",
                    a.cols(),
                    b.cols()
                ),
            });
        }
        let (n, m, d) = (a.rows(), b.rows(), a.cols());
        let a_chunks = a.data.ensure_device(Distribution::Block)?;
        let b_chunks = b.data.ensure_device(Distribution::Copy)?;
        let (data, out_chunks) =
            DistributedData::alloc_device(self.core.ctx.clone(), n, m, Distribution::Block)?;

        let launches = a_chunks
            .iter()
            .zip(&out_chunks)
            .map(|(ac, oc)| {
                let rows = ac.plan.core_len();
                let b_buffer = b_chunks
                    .iter()
                    .find(|bc| bc.plan.device == ac.plan.device)
                    .expect("copy distribution covers every device")
                    .buffer
                    .clone();
                let args = vec![
                    KernelArg::Buffer(ac.buffer.clone()),
                    KernelArg::Buffer(b_buffer),
                    KernelArg::Buffer(oc.buffer.clone()),
                    KernelArg::Scalar(Value::I32(rows as i32)),
                    KernelArg::Scalar(Value::I32(m as i32)),
                    KernelArg::Scalar(Value::I32(d as i32)),
                ];
                DeviceLaunch {
                    device: ac.plan.device,
                    args,
                    range: NdRange::grid([m, rows], [TILE, TILE]),
                    units: ac.plan.core_len(),
                }
            })
            .collect();
        self.core.run(self.kernel, launches)?;
        data.mark_device_written();
        Ok(Matrix { data })
    }
}

impl_skeleton!(Allpairs<I, O>);

/// Matrix multiplication via the allpairs skeleton (paper Example 1):
/// `A × B = allpairs(dotProduct)(A, Bᵀ)`.
///
/// # Errors
///
/// Fails with [`Error::ShapeMismatch`] when `A.cols() != B.rows()`, plus
/// any platform failure.
pub fn matrix_multiply<T: KernelScalar>(
    allpairs: &Allpairs<T, T>,
    a: &Matrix<T>,
    b: &Matrix<T>,
) -> Result<Matrix<T>> {
    if a.cols() != b.rows() {
        return Err(Error::ShapeMismatch {
            reason: format!(
                "matrix multiplication requires {}×{} · {}×{} to agree",
                a.rows(),
                a.cols(),
                b.rows(),
                b.cols()
            ),
        });
    }
    let bt = transpose(b)?;
    allpairs.call(a, &bt)
}

/// Host-side transpose helper (the paper's Example 1 applies allpairs to
/// `Bᵀ`).
///
/// # Errors
///
/// Propagates download failures.
pub fn transpose<T: KernelScalar>(m: &Matrix<T>) -> Result<Matrix<T>> {
    let (rows, cols) = (m.rows(), m.cols());
    let data = m.with_slice(|s| {
        let mut out = vec![T::default(); s.len()];
        for r in 0..rows {
            for c in 0..cols {
                out[c * rows + r] = s[r * cols + c];
            }
        }
        out
    })?;
    Ok(Matrix::from_vec(m.context(), cols, rows, data))
}

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

    const DOT: &str = "float func(const float* a, const float* b, int d){
        float sum = 0.0f;
        for (int k = 0; k < d; ++k) sum += a[k] * b[k];
        return sum;
    }";

    fn host_matmul(a: &[f32], b: &[f32], n: usize, d: usize, m: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; n * m];
        for i in 0..n {
            for j in 0..m {
                let mut s = 0.0;
                for k in 0..d {
                    s += a[i * d + k] * b[k * m + j];
                }
                c[i * m + j] = s;
            }
        }
        c
    }

    #[test]
    fn matrix_multiplication_via_generic_allpairs() {
        let ctx = ctx(1);
        let ap: Allpairs<f32, f32> = Allpairs::new(&ctx, DOT).unwrap();
        let (n, d, m) = (7usize, 5usize, 9usize);
        let a_data: Vec<f32> = (0..n * d).map(|i| ((i * 13) % 7) as f32 - 3.0).collect();
        let b_data: Vec<f32> = (0..d * m).map(|i| ((i * 11) % 5) as f32 - 2.0).collect();
        let a = Matrix::from_vec(&ctx, n, d, a_data.clone());
        let b = Matrix::from_vec(&ctx, d, m, b_data.clone());
        let c = matrix_multiply(&ap, &a, &b).unwrap();
        assert_eq!(c.to_vec().unwrap(), host_matmul(&a_data, &b_data, n, d, m));
    }

    #[test]
    fn zip_reduce_matches_generic() {
        let (n, d, m) = (20usize, 33usize, 17usize);
        let a_data: Vec<f32> = (0..n * d).map(|i| ((i * 7) % 9) as f32).collect();
        let bt_data: Vec<f32> = (0..m * d).map(|i| ((i * 3) % 11) as f32).collect();

        let ctx1 = ctx(1);
        let generic: Allpairs<f32, f32> = Allpairs::new(&ctx1, DOT).unwrap();
        let a = Matrix::from_vec(&ctx1, n, d, a_data.clone());
        let bt = Matrix::from_vec(&ctx1, m, d, bt_data.clone());
        let c1 = generic.call(&a, &bt).unwrap().to_vec().unwrap();

        let ctx2 = ctx(1);
        let tiled: Allpairs<f32, f32> = Allpairs::zip_reduce(
            &ctx2,
            "float mul(float x, float y){ return x * y; }",
            "float add(float x, float y){ return x + y; }",
        )
        .unwrap();
        let a2 = Matrix::from_vec(&ctx2, n, d, a_data);
        let bt2 = Matrix::from_vec(&ctx2, m, d, bt_data);
        let c2 = tiled.call(&a2, &bt2).unwrap().to_vec().unwrap();

        assert_eq!(c1, c2);
    }

    #[test]
    fn multi_gpu_allpairs() {
        let (n, d, m) = (37usize, 8usize, 21usize);
        let a_data: Vec<f32> = (0..n * d).map(|i| (i % 6) as f32).collect();
        let bt_data: Vec<f32> = (0..m * d).map(|i| (i % 4) as f32).collect();
        let mut results = Vec::new();
        for devices in [1usize, 4] {
            let ctx = ctx(devices);
            let ap: Allpairs<f32, f32> = Allpairs::new(&ctx, DOT).unwrap();
            let a = Matrix::from_vec(&ctx, n, d, a_data.clone());
            let bt = Matrix::from_vec(&ctx, m, d, bt_data.clone());
            results.push(ap.call(&a, &bt).unwrap().to_vec().unwrap());
        }
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn manhattan_distance_pairs() {
        let ctx = ctx(2);
        let manhattan: Allpairs<f32, f32> = Allpairs::new(
            &ctx,
            "float func(const float* a, const float* b, int d){
                 float sum = 0.0f;
                 for (int k = 0; k < d; ++k) sum += fabs(a[k] - b[k]);
                 return sum;
             }",
        )
        .unwrap();
        let a = Matrix::from_fn(&ctx, 10, 4, |r, c| (r + c) as f32);
        let c = manhattan.call(&a, &a).unwrap();
        // Distance to self is zero; symmetric otherwise.
        for i in 0..10 {
            assert_eq!(c.get(i, i).unwrap(), 0.0);
        }
        assert_eq!(c.get(2, 7).unwrap(), c.get(7, 2).unwrap());
        assert_eq!(c.get(0, 1).unwrap(), 4.0);
    }

    #[test]
    fn shape_validation() {
        let ctx = ctx(1);
        let ap: Allpairs<f32, f32> = Allpairs::new(&ctx, DOT).unwrap();
        let a = Matrix::<f32>::zeros(&ctx, 3, 4);
        let b = Matrix::<f32>::zeros(&ctx, 3, 5);
        assert!(matches!(ap.call(&a, &b), Err(Error::ShapeMismatch { .. })));
        let b2 = Matrix::<f32>::zeros(&ctx, 5, 3);
        assert!(matches!(
            matrix_multiply(&ap, &a, &b2),
            Err(Error::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn signature_validation() {
        let ctx = ctx(1);
        assert!(Allpairs::<f32, f32>::new(&ctx, "float f(float a, float b){ return a; }").is_err());
        assert!(Allpairs::<f32, f32>::new(
            &ctx,
            "float f(const float* a, const float* b){ return a[0]; }"
        )
        .is_err());
        assert!(Allpairs::<f32, f32>::zip_reduce(
            &ctx,
            "float f(float a, float b){ return a * b; }",
            "float f(float a, float b){ return a + b; }",
        )
        .is_err());
    }

    #[test]
    fn transpose_helper() {
        let ctx = ctx(1);
        let m = Matrix::from_fn(&ctx, 2, 3, |r, c| (r * 3 + c) as i32);
        let t = transpose(&m).unwrap();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.to_vec().unwrap(), vec![0, 3, 1, 4, 2, 5]);
    }
}
