//! Shared host↔device coherence machinery behind `Vector` and `Matrix`.
//!
//! A container's data lives on the host and/or distributed across device
//! buffers. Transfers are *lazy and implicit* (paper §3.1): before a kernel
//! uses a container the data is uploaded per its distribution; before the
//! host reads, chunks are downloaded — both happen automatically.
//!
//! The distribution unit is an *element* for vectors and a *row* for
//! matrices (`unit_elems` elements per unit, paper Fig. 2).

use std::sync::Arc;

use parking_lot::Mutex;
use vgpu::DeviceBuffer;

use crate::container::InteropChunk;
use crate::context::Context;
use crate::distribution::{ChunkPlan, Distribution};
use crate::error::Result;
use crate::types::{from_bytes, to_bytes, KernelScalar};

/// One device's materialised chunk.
#[derive(Debug, Clone)]
pub(crate) struct DeviceChunk {
    /// The chunk's range plan (in units).
    pub plan: ChunkPlan,
    /// The backing device buffer (covers the *stored* range).
    pub buffer: DeviceBuffer,
}

#[derive(Debug)]
struct DevicePart {
    dist: Distribution,
    chunks: Vec<DeviceChunk>,
    /// Whether the device copy is up to date.
    valid: bool,
}

#[derive(Debug)]
struct State<T> {
    host: Vec<T>,
    host_valid: bool,
    device: Option<DevicePart>,
    preferred_dist: Option<Distribution>,
}

/// Distributed storage of `units × unit_elems` elements of `T`.
#[derive(Debug)]
pub(crate) struct DistributedData<T> {
    ctx: Context,
    units: usize,
    unit_elems: usize,
    state: Mutex<State<T>>,
}

impl<T: KernelScalar> DistributedData<T> {
    /// Creates host-resident data.
    ///
    /// # Panics
    ///
    /// Panics if `host.len() != units * unit_elems`.
    pub fn from_host(ctx: Context, units: usize, unit_elems: usize, host: Vec<T>) -> Self {
        assert_eq!(
            host.len(),
            units * unit_elems,
            "host data does not match shape"
        );
        DistributedData {
            ctx,
            units,
            unit_elems,
            state: Mutex::new(State {
                host,
                host_valid: true,
                device: None,
                preferred_dist: None,
            }),
        }
    }

    /// The owning context.
    pub fn ctx(&self) -> &Context {
        &self.ctx
    }

    /// Number of distribution units (elements or rows).
    pub fn units(&self) -> usize {
        self.units
    }

    /// Elements per unit.
    pub fn unit_elems(&self) -> usize {
        self.unit_elems
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.units * self.unit_elems
    }

    /// The distribution the container currently has on the devices, if any.
    pub fn current_distribution(&self) -> Option<Distribution> {
        self.state.lock().device.as_ref().map(|d| d.dist)
    }

    /// The distribution skeletons should use: the explicitly requested one
    /// if set, else the current device-side one, else `default`.
    pub fn effective_distribution(&self, default: Distribution) -> Distribution {
        let st = self.state.lock();
        st.preferred_dist
            .or_else(|| st.device.as_ref().map(|d| d.dist))
            .unwrap_or(default)
    }

    /// Requests a distribution (paper: `setDistribution`). If the data is
    /// currently distributed differently, it is gathered back to the host
    /// (implicit data movement via the CPU, §3.2); the upload under the new
    /// distribution happens lazily at the next use.
    pub fn set_distribution(&self, dist: Distribution) -> Result<()> {
        let mut st = self.state.lock();
        st.preferred_dist = Some(dist);
        if st.device.as_ref().is_some_and(|d| d.dist != dist) {
            self.ctx
                .profiler()
                .add(skelcl_profile::metrics::REDISTRIBUTIONS, 1);
            self.ctx.flight().record(
                skelcl_profile::FlightKind::Redistribution,
                skelcl_profile::flight::HOST_DEVICE,
                "gather",
                0,
                self.units as u64,
                0,
            );
            self.download_locked(&mut st)?;
            st.device = None;
        }
        Ok(())
    }

    /// Makes the data available on the devices under `dist`, uploading if
    /// necessary, and returns the chunks.
    ///
    /// When the data is already valid on the devices under the same
    /// distribution *kind* but the scheduler has shifted the block
    /// boundaries, only the units that changed owner move — device to
    /// device — instead of gathering everything through the host (see
    /// [`DistributedData::delta_redistribute_locked`]).
    pub fn ensure_device(&self, dist: Distribution) -> Result<Vec<DeviceChunk>> {
        let profiler = self.ctx.profiler();
        let mut st = self.state.lock();
        let plans = self.ctx.plan_units(self.units, dist);
        if let Some(part) = &st.device {
            if part.dist == dist && part.valid {
                let same_plans = part.chunks.len() == plans.len()
                    && part.chunks.iter().zip(&plans).all(|(c, p)| c.plan == *p);
                if same_plans {
                    profiler.add(skelcl_profile::metrics::TRANSFER_CACHE_HIT, 1);
                    return Ok(part.chunks.clone());
                }
                // Only Block/Overlap plans can shift with scheduler
                // weights; their old cores disjointly cover `0..units`, so
                // every new chunk can be assembled from device-resident
                // data without touching the host.
                if matches!(dist, Distribution::Block | Distribution::Overlap { .. }) {
                    return self.delta_redistribute_locked(&mut st, plans);
                }
            }
        }
        // Gather the freshest copy to the host first, then (re)distribute.
        // If the devices held the only valid copy this is the full
        // round-trip the delta path exists to avoid — account its cost.
        let full_round_trip = !st.host_valid && st.device.as_ref().is_some_and(|p| p.valid);
        profiler.add(skelcl_profile::metrics::TRANSFER_FORCED, 1);
        self.download_locked(&mut st)?;
        let elem = std::mem::size_of::<T>();
        let mut uploaded = 0u64;
        let mut chunks = Vec::with_capacity(plans.len());
        for plan in plans {
            let queue = self.ctx.queue(plan.device);
            let byte_len = plan.stored_len() * self.unit_elems * elem;
            let buffer = queue.create_buffer(byte_len)?;
            let start = plan.stored.start * self.unit_elems;
            let end = plan.stored.end * self.unit_elems;
            let bytes = to_bytes(&st.host[start..end]);
            // Asynchronous upload: the queue is in-order, so kernels
            // enqueued later on this device see the data; the span is
            // recorded when the transfer retires on the queue worker.
            let event = queue.enqueue_write_async(&buffer, 0, bytes, &[])?;
            let p = profiler.clone();
            event.on_complete(move |e| {
                if e.error().is_none() {
                    p.record_event(e);
                }
            });
            uploaded += byte_len as u64;
            chunks.push(DeviceChunk { plan, buffer });
        }
        if full_round_trip {
            let downloaded = (self.len() * elem) as u64;
            profiler.add(
                skelcl_profile::metrics::SCHED_FULL_BYTES,
                downloaded + uploaded,
            );
        }
        self.ctx.flight().record(
            skelcl_profile::FlightKind::Redistribution,
            skelcl_profile::flight::HOST_DEVICE,
            "scatter",
            0,
            self.units as u64,
            uploaded,
        );
        st.device = Some(DevicePart {
            dist,
            chunks: chunks.clone(),
            valid: true,
        });
        Ok(chunks)
    }

    /// Re-chunks valid device data under shifted Block/Overlap boundaries
    /// by copying unit subranges between devices, bypassing the host.
    ///
    /// Each new chunk's *stored* range is assembled from the old chunks'
    /// *core* ranges — the cores disjointly cover `0..units` and are the
    /// authoritative copy after kernel writes (halos may be stale).
    /// Same-device spans use an on-device copy; cross-device spans stage
    /// through the interconnect via [`vgpu::CommandQueue::enqueue_copy_to`].
    fn delta_redistribute_locked(
        &self,
        st: &mut State<T>,
        plans: Vec<ChunkPlan>,
    ) -> Result<Vec<DeviceChunk>> {
        let profiler = self.ctx.profiler();
        let old = st
            .device
            .take()
            .expect("delta redistribution requires a device part");
        let bytes_per_unit = self.unit_elems * std::mem::size_of::<T>();
        let mut delta_bytes = 0u64;
        let mut chunks = Vec::with_capacity(plans.len());
        for plan in plans {
            let dst_queue = self.ctx.queue(plan.device);
            let buffer = dst_queue.create_buffer(plan.stored_len() * bytes_per_unit)?;
            for oc in &old.chunks {
                let lo = plan.stored.start.max(oc.plan.core.start);
                let hi = plan.stored.end.min(oc.plan.core.end);
                if lo >= hi {
                    continue;
                }
                let src_off = (lo - oc.plan.stored.start) * bytes_per_unit;
                let dst_off = (lo - plan.stored.start) * bytes_per_unit;
                let len = (hi - lo) * bytes_per_unit;
                // Asynchronous like the uploads; the cross-device variant
                // chains its write onto the read through an event wait.
                let record = |event: &vgpu::Event| {
                    let p = profiler.clone();
                    event.on_complete(move |e| {
                        if e.error().is_none() {
                            p.record_event(e);
                        }
                    });
                };
                if oc.plan.device == plan.device {
                    let event = self.ctx.queue(oc.plan.device).enqueue_copy_async(
                        &oc.buffer,
                        src_off,
                        &buffer,
                        dst_off,
                        len,
                        &[],
                    )?;
                    record(&event);
                } else {
                    let (read, write) = self.ctx.queue(oc.plan.device).enqueue_copy_to_async(
                        &oc.buffer,
                        src_off,
                        dst_queue,
                        &buffer,
                        dst_off,
                        len,
                        &[],
                    )?;
                    record(&read);
                    record(&write);
                }
                delta_bytes += len as u64;
            }
            chunks.push(DeviceChunk { plan, buffer });
        }
        profiler.add(skelcl_profile::metrics::SCHED_REBALANCES, 1);
        profiler.add(skelcl_profile::metrics::SCHED_DELTA_BYTES, delta_bytes);
        self.ctx.flight().record(
            skelcl_profile::FlightKind::Redistribution,
            skelcl_profile::flight::HOST_DEVICE,
            "delta",
            0,
            self.units as u64,
            delta_bytes,
        );
        st.device = Some(DevicePart {
            dist: old.dist,
            chunks: chunks.clone(),
            valid: true,
        });
        Ok(chunks)
    }

    /// Creates device-only storage under `dist` (skeleton outputs): buffers
    /// are allocated but not initialised; the host copy is marked stale.
    pub fn alloc_device(
        ctx: Context,
        units: usize,
        unit_elems: usize,
        dist: Distribution,
    ) -> Result<(Arc<Self>, Vec<DeviceChunk>)> {
        let elem = std::mem::size_of::<T>();
        let plans = ctx.plan_units(units, dist);
        let mut chunks = Vec::with_capacity(plans.len());
        for plan in plans {
            let queue = ctx.queue(plan.device);
            let buffer = queue.create_buffer(plan.stored_len() * unit_elems * elem)?;
            chunks.push(DeviceChunk { plan, buffer });
        }
        let data = DistributedData {
            ctx,
            units,
            unit_elems,
            state: Mutex::new(State {
                host: vec![T::default(); units * unit_elems],
                host_valid: units == 0,
                device: Some(DevicePart {
                    dist,
                    chunks: chunks.clone(),
                    valid: true,
                }),
                preferred_dist: None,
            }),
        };
        Ok((Arc::new(data), chunks))
    }

    /// Materialises the data under `dist` and exposes the chunks' buffers
    /// and ranges for raw OpenCL-level interop.
    pub fn interop_chunks(&self, dist: Distribution) -> Result<Vec<InteropChunk>> {
        let chunks = self.ensure_device(dist)?.into_iter();
        Ok(chunks
            .map(|c| InteropChunk {
                device: c.plan.device,
                buffer: c.buffer,
                stored: c.plan.stored,
                core: c.plan.core,
            })
            .collect())
    }

    /// Marks the device copy as freshly written by a kernel (host copy
    /// becomes stale).
    pub fn mark_device_written(&self) {
        let mut st = self.state.lock();
        if let Some(part) = &mut st.device {
            part.valid = true;
            st.host_valid = false;
        }
    }

    /// Runs `f` over the up-to-date host data (downloading first if
    /// needed).
    pub fn with_host<R>(&self, f: impl FnOnce(&[T]) -> R) -> Result<R> {
        let mut st = self.state.lock();
        self.download_locked(&mut st)?;
        Ok(f(&st.host))
    }

    /// Runs `f` over mutable host data; the device copies are invalidated.
    pub fn with_host_mut<R>(&self, f: impl FnOnce(&mut [T]) -> R) -> Result<R> {
        let mut st = self.state.lock();
        self.download_locked(&mut st)?;
        if let Some(part) = &mut st.device {
            part.valid = false;
        }
        Ok(f(&mut st.host))
    }

    /// Replaces the whole host contents (device copies invalidated).
    ///
    /// # Panics
    ///
    /// Panics if the length differs.
    pub fn replace_host(&self, data: Vec<T>) {
        let mut st = self.state.lock();
        assert_eq!(
            data.len(),
            self.units * self.unit_elems,
            "replacement size mismatch"
        );
        st.host = data;
        st.host_valid = true;
        if let Some(part) = &mut st.device {
            part.valid = false;
        }
    }

    /// Returns the elements of unit range `units`, downloading only the
    /// device chunks whose cores intersect it when the host copy is stale.
    ///
    /// This is the ranged sibling of the full gather in
    /// [`DistributedData::download_locked`]: it reuses the delta
    /// redistribution path's intersection arithmetic to move exactly the
    /// bytes the caller asked for instead of round-tripping whole buffers.
    /// The host copy's validity is unchanged — only the requested range is
    /// freshened in place.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the container's units.
    pub fn read_host_range(&self, units: std::ops::Range<usize>) -> Result<Vec<T>> {
        assert!(
            units.start <= units.end && units.end <= self.units,
            "unit range {units:?} out of bounds for {} units",
            self.units
        );
        let mut st = self.state.lock();
        if !st.host_valid {
            let part = st
                .device
                .as_ref()
                .expect("host invalid implies a device copy exists");
            assert!(part.valid, "neither host nor device copy is valid");
            let elem = std::mem::size_of::<T>();
            // For `copy` distribution the first chunk's core covers
            // everything; for block/overlap the cores disjointly cover
            // `0..units` and are authoritative after kernel writes.
            let chunks: &[DeviceChunk] = if part.dist == Distribution::Copy {
                &part.chunks[..1.min(part.chunks.len())]
            } else {
                &part.chunks
            };
            let mut pending = Vec::new();
            for chunk in chunks {
                let lo = units.start.max(chunk.plan.core.start);
                let hi = units.end.min(chunk.plan.core.end);
                if lo >= hi {
                    continue;
                }
                let offset = (lo - chunk.plan.stored.start) * self.unit_elems * elem;
                let len = (hi - lo) * self.unit_elems * elem;
                let queue = self.ctx.queue(chunk.plan.device);
                // The in-order queue drains pending writes/kernels before
                // the read executes, so waiting on it synchronises the
                // intersection.
                let read = queue.enqueue_read_async(&chunk.buffer, offset, len, &[])?;
                let p = self.ctx.profiler().clone();
                read.event().on_complete(move |e| {
                    if e.error().is_none() {
                        p.record_event(e);
                    }
                });
                pending.push((lo, read));
            }
            let mut moved = 0u64;
            for (lo, read) in pending {
                let (_event, bytes) = read.wait()?;
                moved += bytes.len() as u64;
                let host_start = lo * self.unit_elems;
                st.host[host_start..host_start + bytes.len() / elem]
                    .copy_from_slice(&from_bytes::<T>(&bytes));
            }
            self.ctx.flight().record(
                skelcl_profile::FlightKind::Redistribution,
                skelcl_profile::flight::HOST_DEVICE,
                "partial_read",
                0,
                (units.end - units.start) as u64,
                moved,
            );
        }
        let start = units.start * self.unit_elems;
        let end = units.end * self.unit_elems;
        Ok(st.host[start..end].to_vec())
    }

    /// Overwrites unit range `units` with `data`, patching every valid
    /// copy in place: the host range (when the host copy is valid) and the
    /// intersecting stored ranges of valid device chunks via ranged
    /// uploads. Unlike [`DistributedData::with_host_mut`], a valid device
    /// part *stays* valid — a boundary-sized change moves boundary-sized
    /// bytes instead of invalidating the device copy and forcing a full
    /// re-upload at the next use.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the container's units or `data` does not
    /// match the range's element count.
    pub fn write_host_range(&self, units: std::ops::Range<usize>, data: &[T]) -> Result<()> {
        assert!(
            units.start <= units.end && units.end <= self.units,
            "unit range {units:?} out of bounds for {} units",
            self.units
        );
        assert_eq!(
            data.len(),
            (units.end - units.start) * self.unit_elems,
            "replacement size mismatch"
        );
        let mut st = self.state.lock();
        if st.host_valid {
            let start = units.start * self.unit_elems;
            st.host[start..start + data.len()].copy_from_slice(data);
        }
        let elem = std::mem::size_of::<T>();
        let mut moved = 0u64;
        if let Some(part) = &st.device {
            if part.valid {
                // Patch *stored* ranges (cores plus halos) so overlap
                // halos stay coherent with the new contents.
                for chunk in &part.chunks {
                    let lo = units.start.max(chunk.plan.stored.start);
                    let hi = units.end.min(chunk.plan.stored.end);
                    if lo >= hi {
                        continue;
                    }
                    let src_start = (lo - units.start) * self.unit_elems;
                    let src_end = (hi - units.start) * self.unit_elems;
                    let bytes = to_bytes(&data[src_start..src_end]);
                    let offset = (lo - chunk.plan.stored.start) * self.unit_elems * elem;
                    let queue = self.ctx.queue(chunk.plan.device);
                    let event = queue.enqueue_write_async(&chunk.buffer, offset, bytes, &[])?;
                    let p = self.ctx.profiler().clone();
                    event.on_complete(move |e| {
                        if e.error().is_none() {
                            p.record_event(e);
                        }
                    });
                    moved += ((hi - lo) * self.unit_elems * elem) as u64;
                }
            }
        }
        self.ctx.flight().record(
            skelcl_profile::FlightKind::Redistribution,
            skelcl_profile::flight::HOST_DEVICE,
            "partial_write",
            0,
            (units.end - units.start) as u64,
            moved,
        );
        Ok(())
    }

    /// Gathers the freshest data to the host if the host copy is stale.
    fn download_locked(&self, st: &mut State<T>) -> Result<()> {
        if st.host_valid {
            return Ok(());
        }
        let part = st
            .device
            .as_ref()
            .expect("host invalid implies a device copy exists");
        assert!(part.valid, "neither host nor device copy is valid");
        let elem = std::mem::size_of::<T>();
        // For `copy` distribution every chunk owns everything; reading the
        // first suffices. For block/overlap each chunk's core is gathered.
        let chunks: &[DeviceChunk] = if part.dist == Distribution::Copy {
            &part.chunks[..1.min(part.chunks.len())]
        } else {
            &part.chunks
        };
        for chunk in chunks {
            let queue = self.ctx.queue(chunk.plan.device);
            let core_units = chunk.plan.core_len();
            let len = core_units * self.unit_elems * elem;
            let offset = chunk.plan.core_offset() * self.unit_elems * elem;
            // The in-order queue drains every pending write/kernel before
            // this read executes, so waiting on it synchronises the chunk.
            let read = queue.enqueue_read_async(&chunk.buffer, offset, len, &[])?;
            let p = self.ctx.profiler().clone();
            read.event().on_complete(move |e| {
                if e.error().is_none() {
                    p.record_event(e);
                }
            });
            let (_event, bytes) = read.wait()?;
            let host_start = chunk.plan.core.start * self.unit_elems;
            let host_end = chunk.plan.core.end * self.unit_elems;
            st.host[host_start..host_end].copy_from_slice(&from_bytes::<T>(&bytes));
        }
        st.host_valid = true;
        Ok(())
    }
}

impl<T: KernelScalar> crate::exec::ElementwiseInput for DistributedData<T> {
    fn input_ctx(&self) -> &Context {
        &self.ctx
    }

    fn input_units(&self) -> usize {
        self.units
    }

    fn input_unit_elems(&self) -> usize {
        self.unit_elems
    }

    fn input_scalar(&self) -> skelcl_kernel::types::ScalarType {
        T::SCALAR
    }

    fn input_distribution(&self, default: Distribution) -> Distribution {
        self.effective_distribution(default)
    }

    fn input_chunks(&self, dist: Distribution) -> Result<Vec<DeviceChunk>> {
        self.ensure_device(dist)
    }

    fn input_mark_device_written(&self) {
        self.mark_device_written();
    }

    fn input_host_units(&self, units: std::ops::Range<usize>) -> Result<Vec<u8>> {
        Ok(to_bytes(&self.read_host_range(units)?))
    }

    fn input_any(self: Arc<Self>) -> Arc<dyn std::any::Any + Send + Sync> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgpu::{DeviceSpec, Platform};

    fn ctx(devices: usize) -> Context {
        Context::init(
            Platform::new(devices, DeviceSpec::tesla_t10()),
            crate::context::DeviceSelection::All,
        )
    }

    #[test]
    fn upload_download_round_trip_block() {
        let ctx = ctx(3);
        let data: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let d = DistributedData::from_host(ctx, 100, 1, data.clone());
        let chunks = d.ensure_device(Distribution::Block).unwrap();
        assert_eq!(chunks.len(), 3);
        // Pretend a kernel wrote, then gather.
        d.mark_device_written();
        let out = d.with_host(|h| h.to_vec()).unwrap();
        assert_eq!(out, data);
        fn assert_send<T: Send>() {}
        assert_send::<DistributedData<f32>>();
    }

    #[test]
    fn redistribution_goes_through_host() {
        let ctx = ctx(2);
        let d = DistributedData::from_host(ctx.clone(), 10, 1, (0..10i32).collect());
        d.ensure_device(Distribution::Block).unwrap();
        assert_eq!(d.current_distribution(), Some(Distribution::Block));
        d.set_distribution(Distribution::Copy).unwrap();
        assert_eq!(
            d.current_distribution(),
            None,
            "buffers dropped until next use"
        );
        let chunks = d.ensure_device(Distribution::Copy).unwrap();
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].buffer.len(), 40);
        assert_eq!(d.current_distribution(), Some(Distribution::Copy));
    }

    #[test]
    fn effective_distribution_priorities() {
        let ctx = ctx(2);
        let d = DistributedData::from_host(ctx, 10, 1, vec![0f32; 10]);
        assert_eq!(
            d.effective_distribution(Distribution::Block),
            Distribution::Block
        );
        d.ensure_device(Distribution::Copy).unwrap();
        assert_eq!(
            d.effective_distribution(Distribution::Block),
            Distribution::Copy
        );
        d.set_distribution(Distribution::Single(1)).unwrap();
        assert_eq!(
            d.effective_distribution(Distribution::Block),
            Distribution::Single(1)
        );
    }

    #[test]
    fn host_mutation_invalidates_device() {
        let ctx = ctx(2);
        let d = DistributedData::from_host(ctx, 4, 1, vec![1i32, 2, 3, 4]);
        let chunks1 = d.ensure_device(Distribution::Block).unwrap();
        d.with_host_mut(|h| h[0] = 42).unwrap();
        let chunks2 = d.ensure_device(Distribution::Block).unwrap();
        // Fresh upload happened (buffers may be reallocated); data correct.
        let _ = (chunks1, chunks2);
        let v = d.with_host(|h| h.to_vec()).unwrap();
        assert_eq!(v, vec![42, 2, 3, 4]);
    }

    #[test]
    fn rows_as_units() {
        let ctx = ctx(2);
        // A 4×3 matrix distributed by rows.
        let data: Vec<i32> = (0..12).collect();
        let d = DistributedData::from_host(ctx, 4, 3, data.clone());
        let chunks = d.ensure_device(Distribution::Block).unwrap();
        assert_eq!(chunks[0].plan.core, 0..2);
        assert_eq!(chunks[0].buffer.len(), 2 * 3 * 4);
        d.mark_device_written();
        assert_eq!(d.with_host(|h| h.to_vec()).unwrap(), data);
    }

    #[test]
    fn transfer_metrics_recorded() {
        use skelcl_profile::{metrics as m, Profiler};
        let ctx = Context::init_with_profiler(
            Platform::new(2, DeviceSpec::tesla_t10()),
            crate::context::DeviceSelection::All,
            Profiler::enabled(),
        );
        let d = DistributedData::from_host(ctx.clone(), 10, 1, (0..10i32).collect());
        d.ensure_device(Distribution::Block).unwrap(); // forced upload
        d.ensure_device(Distribution::Block).unwrap(); // cache hit
        d.mark_device_written();
        d.with_host(|_| ()).unwrap(); // download
        d.set_distribution(Distribution::Copy).unwrap(); // redistribution
        ctx.finish().unwrap(); // drain async transfers so spans are recorded

        let p = ctx.profiler();
        assert_eq!(p.counter(m::TRANSFER_FORCED), 1);
        assert_eq!(p.counter(m::TRANSFER_CACHE_HIT), 1);
        assert_eq!(p.counter(m::REDISTRIBUTIONS), 1);
        assert_eq!(p.counter(m::BYTES_H2D), 40, "10 × i32 uploaded once");
        assert_eq!(p.counter(m::BYTES_D2H), 40, "10 × i32 downloaded once");
    }

    #[test]
    fn delta_redistribution_moves_only_boundary_units() {
        use skelcl_profile::{metrics as m, Profiler};
        let ctx = Context::init_with_profiler(
            Platform::new(2, DeviceSpec::tesla_t10()),
            crate::context::DeviceSelection::All,
            Profiler::enabled(),
        );
        let n = 100usize;
        let data: Vec<i32> = (0..n as i32).collect();
        let d = DistributedData::from_host(ctx.clone(), n, 1, data.clone());
        d.ensure_device(Distribution::Block).unwrap(); // even 50/50 upload
        d.mark_device_written(); // device copy becomes authoritative
        ctx.finish().unwrap(); // drain the async uploads before counting
        let p = ctx.profiler();
        let h2d_upload = p.counter(m::BYTES_H2D);
        assert_eq!(h2d_upload, 400, "full upload of 100 × i32");

        // Warm the scheduler: device 0 three times faster → 75/25 split.
        let s = ctx.scheduler();
        s.set_policy(crate::schedule::SchedulePolicy::Adaptive);
        s.observe(0, 300, 100);
        s.observe(1, 100, 100);
        let chunks = d.ensure_device(Distribution::Block).unwrap();
        assert_eq!(chunks[0].plan.core, 0..75);
        assert_eq!(chunks[1].plan.core, 75..100);
        ctx.finish().unwrap(); // drain the async delta copies

        assert_eq!(p.counter(m::SCHED_REBALANCES), 1);
        // 0..50 stays on gpu0 (200 B on-device), 50..75 crosses gpu1→gpu0
        // (100 B), 75..100 stays on gpu1 (100 B): 400 B delta total, of
        // which only 100 B touch the interconnect — strictly fewer than
        // the 800 B a gather-and-rescatter round trip would move.
        assert_eq!(p.counter(m::SCHED_DELTA_BYTES), 400);
        assert_eq!(p.counter(m::BYTES_D2D), 300);
        assert_eq!(p.counter(m::BYTES_D2H), 100, "read side of the hop");
        assert_eq!(p.counter(m::BYTES_H2D) - h2d_upload, 100, "write side");
        assert_eq!(p.counter(m::SCHED_FULL_BYTES), 0);
        assert_eq!(p.counter(m::TRANSFER_FORCED), 1, "only the first upload");

        // Contents bit-identical to what the gather path would produce.
        assert_eq!(d.with_host(|h| h.to_vec()).unwrap(), data);
    }

    #[test]
    fn plan_equal_rebalance_is_a_cache_hit_and_kind_change_goes_full() {
        use skelcl_profile::{metrics as m, Profiler};
        let ctx = Context::init_with_profiler(
            Platform::new(2, DeviceSpec::tesla_t10()),
            crate::context::DeviceSelection::All,
            Profiler::enabled(),
        );
        let d = DistributedData::from_host(ctx.clone(), 10, 1, (0..10i32).collect());
        d.ensure_device(Distribution::Block).unwrap();
        d.mark_device_written();
        // Same dist, unchanged plans → pure cache hit, no rebalance.
        d.ensure_device(Distribution::Block).unwrap();
        let p = ctx.profiler();
        assert_eq!(p.counter(m::TRANSFER_CACHE_HIT), 1);
        assert_eq!(p.counter(m::SCHED_REBALANCES), 0);
        // Distribution *kind* change cannot go delta: full round trip,
        // 40 B down + 80 B up (copy stores everything on both devices).
        d.ensure_device(Distribution::Copy).unwrap();
        assert_eq!(p.counter(m::SCHED_REBALANCES), 0);
        assert_eq!(p.counter(m::SCHED_FULL_BYTES), 40 + 80);
        assert_eq!(
            d.with_host(|h| h.to_vec()).unwrap(),
            (0..10i32).collect::<Vec<_>>()
        );
    }

    #[test]
    fn partial_read_moves_only_intersecting_bytes() {
        use skelcl_profile::{metrics as m, Profiler};
        let ctx = Context::init_with_profiler(
            Platform::new(2, DeviceSpec::tesla_t10()),
            crate::context::DeviceSelection::All,
            Profiler::enabled(),
        );
        let n = 100usize;
        let data: Vec<i32> = (0..n as i32).collect();
        let d = DistributedData::from_host(ctx.clone(), n, 1, data.clone());
        d.ensure_device(Distribution::Block).unwrap(); // 50/50 upload
        d.mark_device_written(); // host becomes stale
        ctx.finish().unwrap();
        let p = ctx.profiler();
        assert_eq!(p.counter(m::BYTES_D2H), 0);

        // 40..60 straddles the 50/50 boundary: 10 units from each device.
        let got = d.read_host_range(40..60).unwrap();
        assert_eq!(got, (40..60).collect::<Vec<i32>>());
        ctx.finish().unwrap();
        assert_eq!(p.counter(m::BYTES_D2H), 80, "20 × i32, not the full 400");

        // The partial read does not validate the host copy; a full
        // gather still works and fetches everything.
        assert_eq!(d.with_host(|h| h.to_vec()).unwrap(), data);
    }

    #[test]
    fn partial_write_keeps_device_copy_valid() {
        use skelcl_profile::{metrics as m, Profiler};
        let ctx = Context::init_with_profiler(
            Platform::new(2, DeviceSpec::tesla_t10()),
            crate::context::DeviceSelection::All,
            Profiler::enabled(),
        );
        let n = 10usize;
        let d = DistributedData::from_host(ctx.clone(), n, 1, (0..n as i32).collect());
        d.ensure_device(Distribution::Block).unwrap();
        ctx.finish().unwrap();
        let p = ctx.profiler();
        let uploaded = p.counter(m::BYTES_H2D);
        assert_eq!(uploaded, 40);

        // Patch two units straddling the boundary; both copies stay valid.
        d.write_host_range(4..6, &[40, 50]).unwrap();
        ctx.finish().unwrap();
        assert_eq!(
            p.counter(m::BYTES_H2D) - uploaded,
            8,
            "only the patched units travel"
        );
        // Next use is a cache hit — no forced re-upload.
        d.ensure_device(Distribution::Block).unwrap();
        assert_eq!(p.counter(m::TRANSFER_FORCED), 1, "only the initial upload");
        assert_eq!(p.counter(m::TRANSFER_CACHE_HIT), 1);
        // Device contents reflect the patch.
        d.mark_device_written();
        assert_eq!(
            d.with_host(|h| h.to_vec()).unwrap(),
            vec![0, 1, 2, 3, 40, 50, 6, 7, 8, 9]
        );
    }

    #[test]
    fn alloc_device_outputs_gather_correctly() {
        let ctx = ctx(2);
        let (d, chunks) =
            DistributedData::<i32>::alloc_device(ctx.clone(), 6, 1, Distribution::Block).unwrap();
        // Simulate kernels writing each chunk's stored range.
        for chunk in &chunks {
            let vals: Vec<i32> = (chunk.plan.stored.start as i32..chunk.plan.stored.end as i32)
                .map(|v| v * 10)
                .collect();
            let queue = ctx.queue(chunk.plan.device);
            queue
                .enqueue_write(&chunk.buffer, 0, &to_bytes(&vals))
                .unwrap();
        }
        d.mark_device_written();
        assert_eq!(
            d.with_host(|h| h.to_vec()).unwrap(),
            vec![0, 10, 20, 30, 40, 50]
        );
    }
}
