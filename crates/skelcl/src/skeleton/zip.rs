//! The **Zip** skeleton (paper §3.3): combines two containers elementwise
//! with a binary customizing operator.

use std::marker::PhantomData;

use skelcl_kernel::value::Value;

use crate::codegen::{
    compile_cached, expect_return, expect_scalar_extras, expect_scalar_param, parse_user_function,
    stage_spec, StageSpec,
};
use crate::container::{Matrix, Vector};
use crate::context::Context;
use crate::error::{Error, Result};
use crate::exec::{impl_skeleton, SkeletonCore};
use crate::expr::Expr;
use crate::types::KernelScalar;

/// The Zip skeleton: `zip (⊕) xs ys = [x1 ⊕ y1, …, xn ⊕ yn]`.
///
/// ```
/// use skelcl::{Context, Zip, Vector};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ctx = Context::single_gpu();
/// let add: Zip<f32, f32, f32> =
///     Zip::new(&ctx, "float func(float x, float y){ return x + y; }")?;
/// let a = Vector::from_vec(&ctx, vec![1.0, 2.0]);
/// let b = Vector::from_vec(&ctx, vec![10.0, 20.0]);
/// assert_eq!(add.call(&a, &b)?.to_vec()?, vec![11.0, 22.0]);
/// # Ok(())
/// # }
/// ```
///
/// [`Zip::lazy`] defers the stage into a fusable [`Expr`] instead of
/// executing it — the paper's dot product becomes a single kernel when the
/// zip feeds [`crate::Reduce::call_fused`].
#[derive(Debug)]
pub struct Zip<L: KernelScalar, R: KernelScalar, O: KernelScalar> {
    core: SkeletonCore,
    /// The fusion stage of the customizing function ([`Zip::lazy`]).
    stage: StageSpec,
    _types: PhantomData<fn(L, R) -> O>,
}

impl<L: KernelScalar, R: KernelScalar, O: KernelScalar> Zip<L, R, O> {
    /// Creates a Zip skeleton from a binary customizing function
    /// `O f(L x, R y, …scalars)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidCustomizingFunction`] on parse or signature
    /// problems.
    pub fn new(ctx: &Context, source: &str) -> Result<Self> {
        let f = parse_user_function("Zip", source)?;
        expect_scalar_param("Zip", &f, 0, L::SCALAR)?;
        expect_scalar_param("Zip", &f, 1, R::SCALAR)?;
        expect_return("Zip", &f, O::SCALAR)?;
        expect_scalar_extras("Zip", &f, 2)?;
        let extras = f.extra_params(2).to_vec();

        let kernel_source = f.weld_elementwise("skelcl_zip", &[L::SCALAR, R::SCALAR], O::SCALAR);
        let program = compile_cached(ctx, "skelcl_zip.cl", &kernel_source)?;
        Ok(Zip {
            stage: stage_spec(&f, O::SCALAR),
            core: SkeletonCore::new(ctx, "Zip", program, extras),
            _types: PhantomData,
        })
    }

    /// Applies the skeleton to two vectors of equal length.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::ShapeMismatch`] for unequal lengths, plus any
    /// platform failure.
    pub fn call(&self, lhs: &Vector<L>, rhs: &Vector<R>) -> Result<Vector<O>> {
        self.call_with(lhs, rhs, &[])
    }

    /// [`Zip::call`] with extra scalar arguments.
    ///
    /// # Errors
    ///
    /// As for [`Zip::call`], plus extra-argument arity mismatches.
    pub fn call_with(
        &self,
        lhs: &Vector<L>,
        rhs: &Vector<R>,
        extra: &[Value],
    ) -> Result<Vector<O>> {
        let _span = self.core.begin("Zip.call");
        self.core.check_extras(extra)?;
        if lhs.len() != rhs.len() {
            return Err(Error::ShapeMismatch {
                reason: format!(
                    "zip requires equal lengths, found {} and {}",
                    lhs.len(),
                    rhs.len()
                ),
            });
        }
        let data = self
            .core
            .elementwise("skelcl_zip", &[&*lhs.data, &*rhs.data], extra)?;
        Ok(Vector { data })
    }

    /// Applies the skeleton elementwise to two matrices of equal shape.
    ///
    /// # Errors
    ///
    /// As for [`Zip::call`].
    pub fn call_matrix(&self, lhs: &Matrix<L>, rhs: &Matrix<R>) -> Result<Matrix<O>> {
        self.call_matrix_with(lhs, rhs, &[])
    }

    /// Matrix variant of [`Zip::call_with`].
    ///
    /// # Errors
    ///
    /// As for [`Zip::call_with`].
    pub fn call_matrix_with(
        &self,
        lhs: &Matrix<L>,
        rhs: &Matrix<R>,
        extra: &[Value],
    ) -> Result<Matrix<O>> {
        let _span = self.core.begin("Zip.call_matrix");
        self.core.check_extras(extra)?;
        if lhs.rows() != rhs.rows() || lhs.cols() != rhs.cols() {
            return Err(Error::ShapeMismatch {
                reason: format!(
                    "zip requires equal shapes, found {}×{} and {}×{}",
                    lhs.rows(),
                    lhs.cols(),
                    rhs.rows(),
                    rhs.cols()
                ),
            });
        }
        let data = self
            .core
            .elementwise("skelcl_zip", &[&*lhs.data, &*rhs.data], extra)?;
        Ok(Matrix { data })
    }

    /// Defers the stage onto two expressions instead of executing it: the
    /// result composes with further lazy stages and evaluates as **one**
    /// fused kernel ([`Expr::eval`]), or feeds a fused reduction
    /// ([`crate::Reduce::call_fused`]).
    ///
    /// # Errors
    ///
    /// Fails when the customizing function takes extra arguments (use
    /// [`Zip::lazy_with`]).
    pub fn lazy(&self, lhs: &Expr<L>, rhs: &Expr<R>) -> Result<Expr<O>> {
        self.lazy_with(lhs, rhs, &[])
    }

    /// [`Zip::lazy`] with extra scalar arguments, bound into the stage at
    /// composition time (they are inlined as literals in the fused
    /// kernel).
    ///
    /// # Errors
    ///
    /// Fails when the extra-argument count mismatches.
    pub fn lazy_with(&self, lhs: &Expr<L>, rhs: &Expr<R>, extra: &[Value]) -> Result<Expr<O>> {
        self.core.check_extras(extra)?;
        Ok(Expr::apply(
            &self.core.ctx,
            self.stage.clone(),
            extra.to_vec(),
            vec![lhs.node().clone(), rhs.node().clone()],
        ))
    }
}

impl_skeleton!(Zip<L, R, O>);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::DeviceSelection;
    use crate::distribution::Distribution;
    use vgpu::{DeviceSpec, Platform};

    fn ctx(n: usize) -> Context {
        Context::init(
            Platform::new(n, DeviceSpec::tesla_t10()),
            DeviceSelection::All,
        )
    }

    #[test]
    fn paper_vector_multiplication() {
        let ctx = ctx(2);
        let mult: Zip<f32, f32, f32> =
            Zip::new(&ctx, "float mult(float x, float y){ return x * y; }").unwrap();
        let a = Vector::from_fn(&ctx, 500, |i| i as f32);
        let b = Vector::from_fn(&ctx, 500, |i| 2.0 * i as f32);
        let c = mult.call(&a, &b).unwrap();
        let out = c.to_vec().unwrap();
        assert_eq!(out[10], 200.0);
        assert_eq!(out[499], 2.0 * 499.0 * 499.0);
    }

    #[test]
    fn length_mismatch_rejected() {
        let ctx = ctx(1);
        let add: Zip<i32, i32, i32> =
            Zip::new(&ctx, "int f(int a, int b){ return a + b; }").unwrap();
        let a = Vector::from_vec(&ctx, vec![1, 2, 3]);
        let b = Vector::from_vec(&ctx, vec![1, 2]);
        assert!(matches!(add.call(&a, &b), Err(Error::ShapeMismatch { .. })));
    }

    #[test]
    fn mixed_element_types() {
        let ctx = ctx(1);
        let select: Zip<f32, u8, f32> = Zip::new(
            &ctx,
            "float f(float x, uchar keep){ return keep != 0 ? x : 0.0f; }",
        )
        .unwrap();
        let a = Vector::from_vec(&ctx, vec![1.5f32, 2.5, 3.5]);
        let mask = Vector::from_vec(&ctx, vec![1u8, 0, 1]);
        assert_eq!(
            select.call(&a, &mask).unwrap().to_vec().unwrap(),
            vec![1.5, 0.0, 3.5]
        );
    }

    #[test]
    fn rhs_redistributed_to_match_lhs() {
        let ctx = ctx(2);
        let add: Zip<i32, i32, i32> =
            Zip::new(&ctx, "int f(int a, int b){ return a + b; }").unwrap();
        let a = Vector::from_fn(&ctx, 100, |i| i as i32);
        let b = Vector::from_fn(&ctx, 100, |i| (1000 - i) as i32);
        // Put b under copy first; zip must coerce it to a's block.
        b.set_distribution(Distribution::Copy).unwrap();
        b.prefetch(Distribution::Copy).unwrap();
        a.set_distribution(Distribution::Block).unwrap();
        let c = add.call(&a, &b).unwrap();
        assert!(c.to_vec().unwrap().iter().all(|&v| v == 1000));
    }

    #[test]
    fn matrix_zip() {
        let ctx = ctx(2);
        let sub: Zip<i32, i32, i32> =
            Zip::new(&ctx, "int f(int a, int b){ return a - b; }").unwrap();
        let a = Matrix::from_fn(&ctx, 6, 4, |r, c| (r * 4 + c) as i32 * 3);
        let b = Matrix::from_fn(&ctx, 6, 4, |r, c| (r * 4 + c) as i32);
        let out = sub.call_matrix(&a, &b).unwrap();
        assert_eq!(out.get(5, 3).unwrap(), 46);
        let bad = Matrix::<i32>::zeros(&ctx, 4, 6);
        assert!(sub.call_matrix(&a, &bad).is_err());
    }

    #[test]
    fn matrix_zip_with_extra_arguments() {
        let ctx = ctx(2);
        let saxpy: Zip<f32, f32, f32> = Zip::new(
            &ctx,
            "float f(float x, float y, float a){ return a * x + y; }",
        )
        .unwrap();
        let x = Matrix::from_fn(&ctx, 4, 5, |r, c| (r * 5 + c) as f32);
        let y = Matrix::from_fn(&ctx, 4, 5, |_, _| 1.0f32);
        let out = saxpy.call_matrix_with(&x, &y, &[Value::F32(2.0)]).unwrap();
        assert_eq!(out.get(0, 0).unwrap(), 1.0);
        assert_eq!(out.get(3, 4).unwrap(), 2.0 * 19.0 + 1.0);
        // Before call_matrix_with existed, extras could never reach the
        // matrix path — both arities must now be enforced symmetrically.
        assert!(saxpy.call_matrix(&x, &y).is_err());
        assert!(saxpy
            .call_matrix_with(&x, &y, &[Value::F32(1.0), Value::F32(2.0)])
            .is_err());
    }

    #[test]
    fn binary_signature_checked() {
        let ctx = ctx(1);
        assert!(Zip::<f32, f32, f32>::new(&ctx, "float f(float x){ return x; }").is_err());
        assert!(Zip::<f32, i32, f32>::new(&ctx, "float f(float x, float y){ return x; }").is_err());
    }
}
