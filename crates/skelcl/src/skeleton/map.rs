//! The **Map** skeleton (paper §3.3): applies a unary customizing function
//! to every element of a container.

use std::marker::PhantomData;

use skelcl_kernel::value::Value;
use vgpu::{KernelArg, NdRange};

use crate::codegen::{
    compile_cached, expect_return, expect_scalar_extras, expect_scalar_param, extra_param_decls,
    extra_param_uses, parse_user_function, stage_spec, StageSpec,
};
use crate::container::data::DistributedData;
use crate::container::{Matrix, Vector};
use crate::context::Context;
use crate::distribution::Distribution;
use crate::error::Result;
use crate::exec::{impl_skeleton, DeviceLaunch, SkeletonCore};
use crate::expr::Expr;
use crate::types::KernelScalar;

/// The Map skeleton: `map f [x1, …, xn] = [f(x1), …, f(xn)]`.
///
/// Created from a customizing function written as SkelCL C source, exactly
/// as in the paper:
///
/// ```
/// use skelcl::{Context, Map, Vector};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ctx = Context::single_gpu();
/// let neg: Map<f32, f32> = Map::new(&ctx, "float func(float x){ return -x; }")?;
/// let input = Vector::from_vec(&ctx, vec![1.0, -2.0, 3.0]);
/// let result = neg.call(&input)?;
/// assert_eq!(result.to_vec()?, vec![-1.0, 2.0, -3.0]);
/// # Ok(())
/// # }
/// ```
///
/// The customizing function may take extra scalar parameters after the
/// element; supply them per call with [`Map::call_with`]. [`Map::lazy`]
/// defers the stage into a fusable [`Expr`] instead of executing it.
#[derive(Debug)]
pub struct Map<I: KernelScalar, O: KernelScalar> {
    core: SkeletonCore,
    /// The fusion stage of the customizing function ([`Map::lazy`]).
    stage: StageSpec,
    /// Whether an index-map entry point was generated (`I` is `int`).
    has_index_kernel: bool,
    _types: PhantomData<fn(I) -> O>,
}

impl<I: KernelScalar, O: KernelScalar> Map<I, O> {
    /// Creates a Map skeleton from a unary customizing function.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::InvalidCustomizingFunction`] when the source
    /// does not parse or its signature is not `O f(I x, …scalars)`.
    pub fn new(ctx: &Context, source: &str) -> Result<Self> {
        let f = parse_user_function("Map", source)?;
        expect_scalar_param("Map", &f, 0, I::SCALAR)?;
        expect_return("Map", &f, O::SCALAR)?;
        expect_scalar_extras("Map", &f, 1)?;
        let extras = f.extra_params(1).to_vec();

        // When the element type is `int`, also emit an index-map entry
        // point: the customizing function is applied to the global index
        // directly, with no input buffer at all (the `IndexVector` idea of
        // later SkelCL versions — saves the upload and the per-item load).
        let has_index_kernel = I::SCALAR == skelcl_kernel::types::ScalarType::Int;
        let index_kernel = if has_index_kernel {
            format!(
                "__kernel void skelcl_map_index(__global {o}* skelcl_out, int skelcl_n, int skelcl_base{decls}) {{\n\
                     int skelcl_i = (int)get_global_id(0);\n\
                     if (skelcl_i < skelcl_n)\n\
                         skelcl_out[skelcl_i] = {f}(skelcl_base + skelcl_i{uses});\n\
                 }}\n",
                o = O::SCALAR,
                f = f.name,
                decls = extra_param_decls(&extras, "skelcl_x"),
                uses = extra_param_uses(&extras, "skelcl_x"),
            )
        } else {
            String::new()
        };
        let kernel_source = format!(
            "{main}{index_kernel}",
            main = f.weld_elementwise("skelcl_map", &[I::SCALAR], O::SCALAR),
        );
        let program = compile_cached(ctx, "skelcl_map.cl", &kernel_source)?;
        Ok(Map {
            stage: stage_spec(&f, O::SCALAR),
            core: SkeletonCore::new(ctx, "Map", program, extras),
            has_index_kernel,
            _types: PhantomData,
        })
    }

    /// Applies the skeleton to a vector.
    ///
    /// # Errors
    ///
    /// Propagates platform failures and kernel faults.
    pub fn call(&self, input: &Vector<I>) -> Result<Vector<O>> {
        self.call_with(input, &[])
    }

    /// Applies the skeleton with extra scalar arguments (in the order of
    /// the customizing function's extra parameters).
    ///
    /// # Errors
    ///
    /// Fails when the extra-argument count mismatches, plus anything
    /// [`Map::call`] can raise.
    pub fn call_with(&self, input: &Vector<I>, extra: &[Value]) -> Result<Vector<O>> {
        let _span = self.core.begin("Map.call");
        self.core.check_extras(extra)?;
        let data = self
            .core
            .elementwise("skelcl_map", &[&*input.data], extra)?;
        Ok(Vector { data })
    }

    /// Applies the skeleton elementwise to a matrix.
    ///
    /// # Errors
    ///
    /// As for [`Map::call`].
    pub fn call_matrix(&self, input: &Matrix<I>) -> Result<Matrix<O>> {
        self.call_matrix_with(input, &[])
    }

    /// Matrix variant of [`Map::call_with`].
    ///
    /// # Errors
    ///
    /// As for [`Map::call_with`].
    pub fn call_matrix_with(&self, input: &Matrix<I>, extra: &[Value]) -> Result<Matrix<O>> {
        let _span = self.core.begin("Map.call_matrix");
        self.core.check_extras(extra)?;
        let data = self
            .core
            .elementwise("skelcl_map", &[&*input.data], extra)?;
        Ok(Matrix { data })
    }

    /// Applies the customizing function to the index range `0..len`
    /// without materialising an input vector — the `IndexVector` extension
    /// of later SkelCL versions. Only available when the input element
    /// type `I` is `i32` (the function receives the index).
    ///
    /// # Errors
    ///
    /// Fails with [`crate::Error::ShapeMismatch`] when `I` is not `i32`,
    /// plus anything [`Map::call_with`] can raise.
    pub fn call_index(&self, len: usize, extra: &[Value]) -> Result<Vector<O>> {
        let _span = self.core.begin("Map.call_index");
        if !self.has_index_kernel {
            return Err(crate::error::Error::ShapeMismatch {
                reason: format!(
                    "index map requires the input element type `int`, this Map takes `{}`",
                    std::any::type_name::<I>()
                ),
            });
        }
        self.core.check_extras(extra)?;
        let (data, out_chunks) =
            DistributedData::alloc_device(self.core.ctx.clone(), len, 1, Distribution::Block)?;
        let launches = out_chunks
            .iter()
            .map(|oc| {
                let n = oc.plan.core_len();
                let mut args = vec![
                    KernelArg::Buffer(oc.buffer.clone()),
                    KernelArg::Scalar(Value::I32(n as i32)),
                    KernelArg::Scalar(Value::I32(oc.plan.core.start as i32)),
                ];
                args.extend(extra.iter().map(|v| KernelArg::Scalar(*v)));
                DeviceLaunch {
                    device: oc.plan.device,
                    args,
                    range: NdRange::linear_default(n),
                    units: oc.plan.core_len(),
                }
            })
            .collect();
        self.core.run("skelcl_map_index", launches)?;
        data.mark_device_written();
        Ok(Vector { data })
    }

    /// Defers the stage onto `input` instead of executing it: the result
    /// composes with further [`Map::lazy`] / [`crate::Zip::lazy`] stages
    /// and evaluates as **one** fused kernel ([`Expr::eval`]), or feeds a
    /// fused reduction ([`crate::Reduce::call_fused`]).
    ///
    /// # Errors
    ///
    /// Fails when the customizing function takes extra arguments (use
    /// [`Map::lazy_with`]).
    pub fn lazy(&self, input: &Expr<I>) -> Result<Expr<O>> {
        self.lazy_with(input, &[])
    }

    /// [`Map::lazy`] with extra scalar arguments, bound into the stage at
    /// composition time (they are inlined as literals in the fused
    /// kernel).
    ///
    /// # Errors
    ///
    /// Fails when the extra-argument count mismatches.
    pub fn lazy_with(&self, input: &Expr<I>, extra: &[Value]) -> Result<Expr<O>> {
        self.core.check_extras(extra)?;
        Ok(Expr::apply(
            &self.core.ctx,
            self.stage.clone(),
            extra.to_vec(),
            vec![input.node().clone()],
        ))
    }

    /// The generated kernel's disassembly (debugging aid).
    pub fn kernel_disassembly(&self) -> String {
        self.core.program.disassemble()
    }
}

impl_skeleton!(Map<I, O>);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::DeviceSelection;
    use crate::exec::Skeleton;
    use vgpu::{DeviceSpec, Platform};

    fn ctx(n: usize) -> Context {
        Context::init(
            Platform::new(n, DeviceSpec::tesla_t10()),
            DeviceSelection::All,
        )
    }

    #[test]
    fn negation_map_from_the_paper() {
        let ctx = ctx(1);
        let neg: Map<f32, f32> = Map::new(&ctx, "float func(float x){ return -x; }").unwrap();
        let v = Vector::from_fn(&ctx, 1000, |i| i as f32);
        let r = neg.call(&v).unwrap();
        let out = r.to_vec().unwrap();
        assert_eq!(out[0], 0.0);
        assert_eq!(out[999], -999.0);
        assert!(neg.events().last_kernel_time().as_nanos() > 0);
    }

    #[test]
    fn map_splits_across_devices_block() {
        let ctx = ctx(4);
        let inc: Map<i32, i32> = Map::new(&ctx, "int f(int x){ return x + 1; }").unwrap();
        let v = Vector::from_fn(&ctx, 1003, |i| i as i32);
        let r = inc.call(&v).unwrap();
        assert_eq!(r.to_vec().unwrap(), (1..=1003).collect::<Vec<i32>>());
        // One kernel launch per device.
        let kernel_events = inc.events().last_events();
        assert_eq!(kernel_events.len(), 4);
        let devices: std::collections::HashSet<usize> =
            kernel_events.iter().map(|e| e.device().0).collect();
        assert_eq!(devices.len(), 4);
    }

    #[test]
    fn map_honours_single_and_copy_distributions() {
        let ctx = ctx(2);
        let double: Map<i32, i32> = Map::new(&ctx, "int f(int x){ return 2 * x; }").unwrap();

        let v = Vector::from_fn(&ctx, 10, |i| i as i32);
        v.set_distribution(Distribution::Single(1)).unwrap();
        let r = double.call(&v).unwrap();
        assert_eq!(
            r.to_vec().unwrap(),
            (0..10).map(|x| 2 * x).collect::<Vec<i32>>()
        );
        assert_eq!(double.events().last_events().len(), 1);
        assert_eq!(double.events().last_events()[0].device().0, 1);

        let w = Vector::from_fn(&ctx, 10, |i| i as i32);
        w.set_distribution(Distribution::Copy).unwrap();
        let r = double.call(&w).unwrap();
        assert_eq!(
            r.to_vec().unwrap(),
            (0..10).map(|x| 2 * x).collect::<Vec<i32>>()
        );
        assert_eq!(
            double.events().last_events().len(),
            2,
            "copy computes everywhere"
        );
    }

    #[test]
    fn map_with_extra_arguments() {
        let ctx = ctx(2);
        let scale: Map<f32, f32> = Map::new(
            &ctx,
            "float f(float x, float s, float o){ return x * s + o; }",
        )
        .unwrap();
        let v = Vector::from_vec(&ctx, vec![1.0f32, 2.0, 3.0]);
        let r = scale
            .call_with(&v, &[Value::F32(10.0), Value::F32(0.5)])
            .unwrap();
        assert_eq!(r.to_vec().unwrap(), vec![10.5, 20.5, 30.5]);
        // Wrong arity reported.
        assert!(scale.call(&v).is_err());
        assert!(scale.call_with(&v, &[Value::F32(1.0)]).is_err());
    }

    #[test]
    fn matrix_map_with_extra_arguments() {
        let ctx = ctx(2);
        let affine: Map<i32, i32> =
            Map::new(&ctx, "int f(int x, int s, int o){ return x * s + o; }").unwrap();
        let m = Matrix::from_fn(&ctx, 5, 3, |r, c| (r * 3 + c) as i32);
        let out = affine
            .call_matrix_with(&m, &[Value::I32(10), Value::I32(7)])
            .unwrap();
        assert_eq!(out.get(0, 0).unwrap(), 7);
        assert_eq!(out.get(4, 2).unwrap(), 147);
        // Wrong arity reported on the matrix path too.
        assert!(affine.call_matrix(&m).is_err());
        assert!(affine.call_matrix_with(&m, &[Value::I32(1)]).is_err());
    }

    #[test]
    fn map_type_conversion_between_element_types() {
        let ctx = ctx(1);
        let classify: Map<f32, u8> =
            Map::new(&ctx, "uchar f(float x){ return x > 0.5f ? 255 : 0; }").unwrap();
        let v = Vector::from_vec(&ctx, vec![0.1f32, 0.9, 0.5, 0.7]);
        assert_eq!(
            classify.call(&v).unwrap().to_vec().unwrap(),
            vec![0, 255, 0, 255]
        );
    }

    #[test]
    fn map_on_matrix() {
        let ctx = ctx(2);
        let neg: Map<i32, i32> = Map::new(&ctx, "int f(int x){ return -x; }").unwrap();
        let m = Matrix::from_fn(&ctx, 5, 7, |r, c| (r * 7 + c) as i32);
        let out = neg.call_matrix(&m).unwrap();
        assert_eq!(out.rows(), 5);
        assert_eq!(out.cols(), 7);
        assert_eq!(out.get(4, 6).unwrap(), -34);
    }

    #[test]
    fn signature_mismatch_rejected_early() {
        let ctx = ctx(1);
        assert!(Map::<f32, f32>::new(&ctx, "int f(int x){ return x; }").is_err());
        assert!(
            Map::<f32, f32>::new(&ctx, "float f(float x, const float* p){ return x; }").is_err()
        );
        assert!(Map::<f32, f32>::new(&ctx, "not even C").is_err());
    }

    #[test]
    fn chained_maps_stay_on_device() {
        let ctx = ctx(2);
        let inc: Map<i32, i32> = Map::new(&ctx, "int f(int x){ return x + 1; }").unwrap();
        let v = Vector::from_fn(&ctx, 100, |i| i as i32);
        let r = inc
            .call(&inc.call(&inc.call(&v).unwrap()).unwrap())
            .unwrap();
        assert_eq!(r.get(0).unwrap(), 3);
        assert_eq!(r.get(99).unwrap(), 102);
    }

    #[test]
    fn index_map_matches_vector_map() {
        let ctx = ctx(3);
        let square: Map<i32, i64> =
            Map::new(&ctx, "long f(int i){ return (long)i * (long)i; }").unwrap();
        let via_vector = square
            .call(&Vector::from_fn(&ctx, 1000, |i| i as i32))
            .unwrap()
            .to_vec()
            .unwrap();
        let via_index = square.call_index(1000, &[]).unwrap().to_vec().unwrap();
        assert_eq!(via_vector, via_index);
        assert_eq!(via_index[999], 999 * 999);
    }

    #[test]
    fn index_map_requires_int_input() {
        let ctx = ctx(1);
        let neg: Map<f32, f32> = Map::new(&ctx, "float f(float x){ return -x; }").unwrap();
        assert!(neg.call_index(10, &[]).is_err());
    }

    #[test]
    fn index_map_with_extras_does_no_input_transfer() {
        let ctx = ctx(1);
        let scale: Map<i32, f32> =
            Map::new(&ctx, "float f(int i, float s){ return (float)i * s; }").unwrap();
        let out = scale.call_index(8, &[Value::F32(0.5)]).unwrap();
        assert_eq!(
            out.to_vec().unwrap(),
            (0..8).map(|i| i as f32 * 0.5).collect::<Vec<_>>()
        );
        // Kernel-only launch: no input loads at all.
        let counters = scale
            .events()
            .last_events()
            .iter()
            .find_map(|e| e.counters())
            .unwrap();
        assert_eq!(counters.global_loads, 0);
        assert_eq!(counters.global_stores, 8);
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let ctx = ctx(2);
        let neg: Map<f32, f32> = Map::new(&ctx, "float f(float x){ return -x; }").unwrap();
        let v = Vector::<f32>::zeros(&ctx, 0);
        let r = neg.call(&v).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn skeleton_trait_surface() {
        let ctx = ctx(1);
        let neg: Map<f32, f32> = Map::new(&ctx, "float f(float x){ return -x; }").unwrap();
        let s: &dyn Skeleton = &neg;
        assert_eq!(s.name(), "Map");
        assert!(s.context().same_as(&ctx));
        assert!(s.kernel_disassembly().contains("skelcl_map"));
    }
}
