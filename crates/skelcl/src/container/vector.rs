//! The [`Vector`] container (paper §3.1): a one-dimensional collection
//! transparently accessible from host and devices.

use std::sync::Arc;

use crate::container::data::DistributedData;
use crate::container::InteropChunk;
use crate::context::Context;
use crate::distribution::Distribution;
use crate::error::{Error, Result};
use crate::types::KernelScalar;

/// A one-dimensional parallel container.
///
/// Memory on the GPUs is allocated automatically when the vector is used by
/// a skeleton and freed when the vector is dropped; host↔device transfers
/// happen implicitly and lazily (paper §3.1). Cloning is cheap and shares
/// the underlying data.
///
/// # Example
///
/// ```
/// use skelcl::{Context, Vector};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ctx = Context::single_gpu();
/// let vec = Vector::from_vec(&ctx, (0..10).map(|i| i as f32).collect());
/// assert_eq!(vec.len(), 10);
/// assert_eq!(vec.to_vec()?[3], 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Vector<T: KernelScalar> {
    pub(crate) data: Arc<DistributedData<T>>,
}

impl<T: KernelScalar> Vector<T> {
    /// Creates a vector from host data.
    pub fn from_vec(ctx: &Context, data: Vec<T>) -> Self {
        let len = data.len();
        Vector {
            data: Arc::new(DistributedData::from_host(ctx.clone(), len, 1, data)),
        }
    }

    /// Creates a zero-filled vector of `len` elements.
    pub fn zeros(ctx: &Context, len: usize) -> Self {
        Vector::from_vec(ctx, vec![T::default(); len])
    }

    /// Creates a vector by evaluating `f` at every index.
    pub fn from_fn(ctx: &Context, len: usize, f: impl FnMut(usize) -> T) -> Self {
        Vector::from_vec(ctx, (0..len).map(f).collect())
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector is empty.
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

    /// Requests a distribution; any existing device data under a different
    /// distribution is gathered back through the CPU (paper §3.2).
    ///
    /// # Errors
    ///
    /// Propagates transfer failures from the platform.
    pub fn set_distribution(&self, dist: Distribution) -> Result<()> {
        self.data.set_distribution(dist)
    }

    /// Copies the (up-to-date) contents to a host `Vec`, downloading from
    /// the devices if needed.
    ///
    /// # Errors
    ///
    /// Propagates transfer failures.
    pub fn to_vec(&self) -> Result<Vec<T>> {
        self.data.with_host(|h| h.to_vec())
    }

    /// Reads element `i` (may trigger a download).
    ///
    /// # Errors
    ///
    /// [`Error::ShapeMismatch`] if `i` is out of bounds; propagates
    /// transfer failures.
    pub fn get(&self, i: usize) -> Result<T> {
        let len = self.len();
        if i >= len {
            let reason = format!("index {i} out of bounds for {len} elements");
            return Err(Error::ShapeMismatch { reason });
        }
        self.data.with_host(|h| h[i])
    }

    /// Runs `f` over the up-to-date host slice without copying.
    ///
    /// # Errors
    ///
    /// Propagates transfer failures.
    pub fn with_slice<R>(&self, f: impl FnOnce(&[T]) -> R) -> Result<R> {
        self.data.with_host(f)
    }

    /// Runs `f` over the mutable host slice; device copies are invalidated
    /// and re-uploaded on next use.
    ///
    /// # Errors
    ///
    /// Propagates transfer failures.
    pub fn with_slice_mut<R>(&self, f: impl FnOnce(&mut [T]) -> R) -> Result<R> {
        self.data.with_host_mut(f)
    }

    /// Replaces the contents with `data` of the same length.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`](crate::Error::ShapeMismatch) and
    /// leaves the vector unchanged if the length differs.
    pub fn assign(&self, data: Vec<T>) -> Result<()> {
        self.data.replace_host(data)
    }

    /// Copies element range `range` to the host, downloading only the
    /// device chunks that intersect it when the host copy is stale —
    /// a ranged alternative to [`Vector::to_vec`] that never round-trips
    /// the whole buffer.
    ///
    /// # Errors
    ///
    /// [`Error::ShapeMismatch`] if the range is out of bounds; propagates
    /// transfer failures.
    pub fn read_range(&self, range: std::ops::Range<usize>) -> Result<Vec<T>> {
        self.data.read_host_range(range)
    }

    /// Overwrites element range `range` with `data`, patching valid host
    /// and device copies in place with ranged transfers. Unlike
    /// [`Vector::with_slice_mut`], device buffers stay valid — a
    /// boundary-sized change moves boundary-sized bytes instead of forcing
    /// a full re-upload at the next use.
    ///
    /// # Errors
    ///
    /// [`Error::ShapeMismatch`], leaving the vector unchanged, if the range
    /// is out of bounds or `data` has a different length; propagates
    /// transfer failures.
    pub fn write_range(&self, range: std::ops::Range<usize>, data: &[T]) -> Result<()> {
        self.data.write_host_range(range, data)
    }

    /// Eagerly materialises the vector on the devices under `dist`
    /// (transfers are otherwise lazy). Useful to move upload costs out of
    /// a measured region, or to force a redistribution now.
    ///
    /// # Errors
    ///
    /// Propagates transfer failures.
    pub fn prefetch(&self, dist: Distribution) -> Result<()> {
        self.data.ensure_device(dist).map(|_| ())
    }

    /// Exposes the vector's device buffers for raw OpenCL-level interop —
    /// the paper's compatibility promise: "arbitrary parts of a SkelCL
    /// code can be written or rewritten in OpenCL". The data is
    /// materialised under `dist` first. After writing through the buffers
    /// with raw kernels, call [`Vector::mark_device_modified`] so the
    /// container downloads the fresh data before the next host read.
    ///
    /// # Errors
    ///
    /// Propagates transfer failures.
    pub fn interop_chunks(&self, dist: Distribution) -> Result<Vec<InteropChunk>> {
        self.data.interop_chunks(dist)
    }

    /// Declares that raw kernels modified the device buffers returned by
    /// [`Vector::interop_chunks`]; the host copy becomes stale and is
    /// re-downloaded on the next read.
    pub fn mark_device_modified(&self) {
        self.data.mark_device_written();
    }

    /// Wraps the vector as a lazy fusion source: the result composes with
    /// [`crate::Map::lazy`] / [`crate::Zip::lazy`] stages into a single
    /// fused kernel (see [`crate::Expr`]).
    pub fn expr(&self) -> crate::expr::Expr<T> {
        crate::expr::Expr::from(self)
    }
}

impl<T: KernelScalar> FromIterator<T> for Vector<T> {
    /// Collects into a vector on a **new single-GPU context**; prefer
    /// [`Vector::from_vec`] to control the context.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let ctx = Context::single_gpu();
        Vector::from_vec(&ctx, iter.into_iter().collect())
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
    fn paper_style_construction() {
        // Paper: Vector<int> vec(size); for (...) vec[i] = i;
        let ctx = ctx(1);
        let vec = Vector::from_fn(&ctx, 16, |i| i as i32);
        assert_eq!(vec.get(7).unwrap(), 7);
        assert_eq!(vec.len(), 16);
        assert!(!vec.is_empty());
    }

    #[test]
    fn distribution_lifecycle() {
        let ctx = ctx(2);
        let vec = Vector::from_vec(&ctx, (0..10i32).collect());
        assert_eq!(vec.distribution(), None);
        vec.data.ensure_device(Distribution::Block).unwrap();
        assert_eq!(vec.distribution(), Some(Distribution::Block));
        vec.set_distribution(Distribution::Copy).unwrap();
        assert_eq!(vec.to_vec().unwrap(), (0..10i32).collect::<Vec<_>>());
    }

    #[test]
    fn host_writes_visible_after_device_round_trip() {
        let ctx = ctx(2);
        let vec = Vector::from_vec(&ctx, vec![1.0f32; 8]);
        vec.data.ensure_device(Distribution::Block).unwrap();
        vec.with_slice_mut(|s| s[4] = 9.0).unwrap();
        vec.data.ensure_device(Distribution::Block).unwrap();
        vec.data.mark_device_written();
        assert_eq!(vec.get(4).unwrap(), 9.0);
    }

    #[test]
    fn clones_share_data() {
        let ctx = ctx(1);
        let a = Vector::from_vec(&ctx, vec![0i32; 4]);
        let b = a.clone();
        a.with_slice_mut(|s| s[0] = 5).unwrap();
        assert_eq!(b.get(0).unwrap(), 5);
    }

    #[test]
    fn from_iterator_collects() {
        let v: Vector<i32> = (0..5).collect();
        assert_eq!(v.to_vec().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn index_and_range_errors_leave_the_vector_unchanged() {
        let ctx = ctx(2);
        let v = Vector::from_fn(&ctx, 6, |i| i as i32);
        v.prefetch(Distribution::Block).unwrap();
        v.mark_device_modified();
        let shape_err = |r: Result<()>| matches!(r, Err(Error::ShapeMismatch { .. }));
        assert!(shape_err(v.get(6).map(|_| ())));
        assert!(shape_err(v.read_range(4..7).map(|_| ())));
        #[allow(clippy::reversed_empty_ranges)]
        let backwards = 4..2;
        assert!(shape_err(v.read_range(backwards).map(|_| ())));
        assert!(shape_err(v.write_range(5..7, &[9, 9])));
        assert!(shape_err(v.write_range(1..3, &[9])));
        assert!(shape_err(v.write_range(1..3, &[9, 9, 9])));
        assert_eq!(v.to_vec().unwrap(), (0..6).collect::<Vec<i32>>());
        assert_eq!(v.read_range(6..6).unwrap(), Vec::<i32>::new());
    }

    #[test]
    fn assign_checks_the_length() {
        let ctx = ctx(2);
        let v = Vector::from_fn(&ctx, 6, |i| i as i32);
        v.prefetch(Distribution::Block).unwrap();
        v.mark_device_modified();
        for wrong in [vec![7; 5], vec![7; 7], Vec::new()] {
            let err = v.assign(wrong);
            assert!(matches!(err, Err(Error::ShapeMismatch { .. })));
        }
        assert_eq!(v.to_vec().unwrap(), (0..6).collect::<Vec<i32>>());
        v.assign(vec![7; 6]).unwrap();
        assert_eq!(v.to_vec().unwrap(), vec![7; 6]);
    }

    #[test]
    fn empty_vector() {
        let ctx = ctx(2);
        let v = Vector::<f32>::zeros(&ctx, 0);
        assert!(v.is_empty());
        assert_eq!(v.to_vec().unwrap(), Vec::<f32>::new());
        let chunks = v.data.ensure_device(Distribution::Block).unwrap();
        assert!(chunks.is_empty());
    }
}
