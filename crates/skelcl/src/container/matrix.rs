//! The [`Matrix`] container (paper §3.1): a two-dimensional, row-major
//! collection distributed across GPUs by rows (paper Fig. 2).

use std::sync::Arc;

use crate::container::data::DistributedData;
use crate::container::InteropChunk;
use crate::context::Context;
use crate::distribution::Distribution;
use crate::error::{Error, Result};
use crate::types::KernelScalar;

/// A two-dimensional parallel container (row-major).
///
/// Distributions partition the matrix by rows: `block` gives each GPU a
/// band of consecutive rows, `overlap` additionally replicates `size`
/// border rows from the neighbouring bands (paper §3.2, Fig. 2d).
///
/// # Example
///
/// ```
/// use skelcl::{Context, Matrix};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ctx = Context::single_gpu();
/// let m = Matrix::from_fn(&ctx, 4, 3, |row, col| (row * 10 + col) as i32);
/// assert_eq!(m.rows(), 4);
/// assert_eq!(m.cols(), 3);
/// assert_eq!(m.get(2, 1)?, 21);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Matrix<T: KernelScalar> {
    pub(crate) data: Arc<DistributedData<T>>,
}

impl<T: KernelScalar> Matrix<T> {
    /// Creates a matrix from row-major host data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(ctx: &Context, rows: usize, cols: usize, data: Vec<T>) -> Self {
        Matrix {
            data: Arc::new(DistributedData::from_host(ctx.clone(), rows, cols, data)),
        }
    }

    /// Creates a zero-filled matrix.
    pub fn zeros(ctx: &Context, rows: usize, cols: usize) -> Self {
        Matrix::from_vec(ctx, rows, cols, vec![T::default(); rows * cols])
    }

    /// Creates a matrix by evaluating `f(row, col)` everywhere.
    pub fn from_fn(
        ctx: &Context,
        rows: usize,
        cols: usize,
        mut f: impl FnMut(usize, usize) -> T,
    ) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix::from_vec(ctx, rows, cols, data)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.data.units()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.data.unit_elems()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The owning context.
    pub fn context(&self) -> &Context {
        self.data.ctx()
    }

    /// The distribution currently materialised on the devices, if any.
    pub fn distribution(&self) -> Option<Distribution> {
        self.data.current_distribution()
    }

    /// Requests a distribution (rows are the distribution unit).
    ///
    /// # Errors
    ///
    /// Propagates transfer failures.
    pub fn set_distribution(&self, dist: Distribution) -> Result<()> {
        self.data.set_distribution(dist)
    }

    /// Copies the contents to a row-major host `Vec`.
    ///
    /// # Errors
    ///
    /// Propagates transfer failures.
    pub fn to_vec(&self) -> Result<Vec<T>> {
        self.data.with_host(|h| h.to_vec())
    }

    /// Reads the element at (`row`, `col`).
    ///
    /// # Errors
    ///
    /// [`Error::ShapeMismatch`] if out of bounds; propagates transfer
    /// failures.
    pub fn get(&self, row: usize, col: usize) -> Result<T> {
        let (rows, cols) = (self.rows(), self.cols());
        if row >= rows || col >= cols {
            let reason = format!("index ({row}, {col}) out of bounds for a {rows}x{cols} matrix");
            return Err(Error::ShapeMismatch { reason });
        }
        self.data.with_host(|h| h[row * cols + col])
    }

    /// Runs `f` over the up-to-date row-major host slice.
    ///
    /// # Errors
    ///
    /// Propagates transfer failures.
    pub fn with_slice<R>(&self, f: impl FnOnce(&[T]) -> R) -> Result<R> {
        self.data.with_host(f)
    }

    /// Runs `f` over the mutable host slice; device copies are
    /// invalidated.
    ///
    /// # Errors
    ///
    /// Propagates transfer failures.
    pub fn with_slice_mut<R>(&self, f: impl FnOnce(&mut [T]) -> R) -> Result<R> {
        self.data.with_host_mut(f)
    }

    /// Copies row range `rows` to the host, downloading only the device
    /// chunks that intersect it when the host copy is stale (the ranged
    /// sibling of [`Matrix::to_vec`]).
    ///
    /// # Errors
    ///
    /// [`Error::ShapeMismatch`] if the range is out of bounds; propagates
    /// transfer failures.
    pub fn read_rows(&self, rows: std::ops::Range<usize>) -> Result<Vec<T>> {
        self.data.read_host_range(rows)
    }

    /// Overwrites row range `rows` with row-major `data`, patching valid
    /// host and device copies in place with ranged transfers (device
    /// buffers stay valid, see [`crate::Vector::write_range`]).
    ///
    /// # Errors
    ///
    /// [`Error::ShapeMismatch`], leaving the matrix unchanged, if the range
    /// is out of bounds or `data` does not hold exactly the range's
    /// elements; propagates transfer failures.
    pub fn write_rows(&self, rows: std::ops::Range<usize>, data: &[T]) -> Result<()> {
        self.data.write_host_range(rows, data)
    }

    /// Eagerly materialises the matrix on the devices under `dist`.
    ///
    /// # Errors
    ///
    /// Propagates transfer failures.
    pub fn prefetch(&self, dist: Distribution) -> Result<()> {
        self.data.ensure_device(dist).map(|_| ())
    }

    /// Exposes the matrix's device buffers for raw OpenCL-level interop
    /// (see [`crate::Vector::interop_chunks`]); ranges are in **rows**.
    ///
    /// # Errors
    ///
    /// Propagates transfer failures.
    pub fn interop_chunks(&self, dist: Distribution) -> Result<Vec<InteropChunk>> {
        self.data.interop_chunks(dist)
    }

    /// Declares that raw kernels modified the device buffers returned by
    /// [`Matrix::interop_chunks`].
    pub fn mark_device_modified(&self) {
        self.data.mark_device_written();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgpu::{DeviceSpec, Platform};

    fn ctx(n: usize) -> Context {
        Context::init(
            Platform::new(n, DeviceSpec::tesla_t10()),
            crate::context::DeviceSelection::All,
        )
    }

    #[test]
    fn row_major_layout() {
        let ctx = ctx(1);
        let m = Matrix::from_fn(&ctx, 3, 4, |r, c| (r * 4 + c) as i32);
        assert_eq!(m.get(0, 0).unwrap(), 0);
        assert_eq!(m.get(1, 0).unwrap(), 4);
        assert_eq!(m.get(2, 3).unwrap(), 11);
        assert_eq!(m.to_vec().unwrap(), (0..12).collect::<Vec<i32>>());
    }

    #[test]
    fn row_distribution_across_two_gpus() {
        let ctx = ctx(2);
        let m = Matrix::from_fn(&ctx, 6, 5, |r, c| (r * 5 + c) as f32);
        let chunks = m.data.ensure_device(Distribution::Block).unwrap();
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].plan.core, 0..3);
        assert_eq!(chunks[0].buffer.len(), 3 * 5 * 4);
        m.data.mark_device_written();
        assert_eq!(m.get(5, 4).unwrap(), 29.0);
    }

    #[test]
    fn overlap_distribution_stores_halo_rows() {
        let ctx = ctx(2);
        let m = Matrix::<u8>::zeros(&ctx, 8, 2);
        let chunks = m
            .data
            .ensure_device(Distribution::Overlap { size: 1 })
            .unwrap();
        // Fig. 2(d): top chunk rows 0..5 (4 core + 1 halo), bottom 3..8.
        assert_eq!(chunks[0].plan.stored, 0..5);
        assert_eq!(chunks[1].plan.stored, 3..8);
        assert_eq!(chunks[1].plan.core_offset(), 1);
    }

    #[test]
    fn get_bounds_checked() {
        let ctx = ctx(1);
        let m = Matrix::<i32>::zeros(&ctx, 2, 3);
        for (row, col) in [(2, 0), (0, 3), (1, 3)] {
            assert!(
                matches!(m.get(row, col), Err(Error::ShapeMismatch { .. })),
                "({row}, {col})"
            );
        }
        assert_eq!(m.get(1, 2).unwrap(), 0);
    }

    #[test]
    fn row_range_errors_leave_the_matrix_unchanged() {
        let ctx = ctx(2);
        let m = Matrix::from_fn(&ctx, 4, 2, |r, c| (r * 2 + c) as i32);
        m.prefetch(Distribution::Block).unwrap();
        m.mark_device_modified();
        let shape_err = |r: Result<()>| matches!(r, Err(Error::ShapeMismatch { .. }));
        assert!(shape_err(m.read_rows(3..5).map(|_| ())));
        assert!(shape_err(m.write_rows(3..5, &[0; 4])));
        assert!(shape_err(m.write_rows(1..2, &[0; 3])));
        assert_eq!(m.to_vec().unwrap(), (0..8).collect::<Vec<i32>>());
    }

    #[test]
    #[should_panic(expected = "host data does not match shape")]
    fn from_vec_validates_shape() {
        let ctx = ctx(1);
        let _ = Matrix::from_vec(&ctx, 2, 3, vec![0i32; 5]);
    }
}
