//! Shared host↔device coherence machinery behind `Vector` and `Matrix`.
//!
//! A container's data lives on the host and/or distributed across device
//! buffers. Transfers are *lazy and implicit* (paper §3.1): before a kernel
//! uses a container the data is uploaded per its distribution; before the
//! host reads, chunks are downloaded — both happen automatically.
//!
//! The distribution unit is an *element* for vectors and a *row* for
//! matrices (`unit_elems` elements per unit, paper Fig. 2).
//!
//! Coherence is one record and one planner: the host alone is current, or
//! a device part's [`Fresh`] says which copies are. Every entry point states
//! the ranges current copies hold (`have`) and the ranges it must fill
//! (`want`), issues what [`plan_transfers`] makes of them through
//! [`DistributedData::run_moves`], and updates the record.

use std::ops::Range;
use std::sync::Arc;

use parking_lot::Mutex;
use skelcl_profile::{flight, metrics, FlightKind};
use vgpu::DeviceBuffer;

use crate::container::InteropChunk;
use crate::context::Context;
use crate::distribution::{ChunkPlan, Distribution};
use crate::error::{Error, Result};
use crate::types::{from_bytes, to_bytes, KernelScalar};

/// One device's materialised chunk.
#[derive(Debug, Clone)]
pub(crate) struct DeviceChunk {
    /// The chunk's range plan (in units).
    pub plan: ChunkPlan,
    /// The backing device buffer (covers the *stored* range).
    pub buffer: DeviceBuffer,
}

/// Which copies of a container with a device part are current.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fresh {
    /// Only the host copy; the stale chunks still report their distribution.
    Host,
    /// Only the device chunks.
    Device,
    /// Both copies.
    Both,
}

#[derive(Debug)]
struct DevicePart {
    dist: Distribution,
    chunks: Vec<DeviceChunk>,
    fresh: Fresh,
}

impl DevicePart {
    /// The unit ranges the chunks hold authoritatively: the cores, which
    /// disjointly cover `0..units` (halos may be stale after a kernel wrote
    /// the cores) — except under `Copy`, where the first chunk is read.
    fn authoritative(&self) -> Vec<Site<'_>> {
        let copy = self.dist == Distribution::Copy;
        let n = if copy { 1 } else { self.chunks.len() };
        sites(&self.chunks[..n], |p| p.core.clone())
    }
}

/// The unit ranges `chunks` store, halos included: where new data lands.
fn stored(chunks: &[DeviceChunk]) -> Vec<Site<'_>> {
    sites(chunks, |p| p.stored.clone())
}

/// Each chunk with the unit range `r` takes from its plan.
fn sites(chunks: &[DeviceChunk], r: fn(&ChunkPlan) -> Range<usize>) -> Vec<Site<'_>> {
    chunks.iter().map(|c| (Loc::Chunk(c), r(&c.plan))).collect()
}

/// A copy of some units: the host, or a device chunk.
#[derive(Debug, Clone, Copy)]
enum Loc<'a> {
    Host,
    Chunk(&'a DeviceChunk),
}

/// A copy and a unit range it holds or needs.
type Site<'a> = (Loc<'a>, Range<usize>);

/// One planned transfer of unit range `units` from `from` to `to`.
#[derive(Debug)]
struct Move<'a> {
    from: Loc<'a>,
    to: Loc<'a>,
    units: Range<usize>,
}

/// Plans the moves that fill every `want` range from the disjoint `have`
/// ranges: one per non-empty intersection, in `want` and then `have`
/// order, which is the order their commands are enqueued in.
fn plan_transfers<'a>(have: &[Site<'a>], want: &[Site<'a>]) -> Vec<Move<'a>> {
    let pairs = want.iter().flat_map(|w| have.iter().map(move |h| (h, w)));
    pairs
        .map(|((from, h), (to, w))| Move {
            from: *from,
            to: *to,
            units: w.start.max(h.start)..w.end.min(h.end),
        })
        .filter(|m| !m.units.is_empty())
        .collect()
}

#[derive(Debug)]
struct State<T> {
    host: Vec<T>,
    device: Option<DevicePart>,
    preferred_dist: Option<Distribution>,
}

impl<T> State<T> {
    /// Declares which copies are current (no device part: the host stays).
    fn set_fresh(&mut self, fresh: Fresh) {
        if let Some(part) = &mut self.device {
            part.fresh = fresh;
        }
    }
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
        let state = Mutex::new(State {
            host,
            device: None,
            preferred_dist: None,
        });
        DistributedData {
            ctx,
            units,
            unit_elems,
            state,
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

    fn unit_bytes(&self) -> usize {
        self.unit_elems * std::mem::size_of::<T>()
    }

    /// Allocates one uninitialised buffer per plan's stored range.
    fn alloc_chunks(&self, plans: Vec<ChunkPlan>) -> Result<Vec<DeviceChunk>> {
        let alloc = |plan: ChunkPlan| {
            let bytes = plan.stored_len() * self.unit_bytes();
            let buffer = self.ctx.queue(plan.device).create_buffer(bytes)?;
            Ok(DeviceChunk { plan, buffer })
        };
        plans.into_iter().map(alloc).collect()
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
            self.ctx.profiler().add(metrics::REDISTRIBUTIONS, 1);
            self.flight("gather", self.units, 0);
            self.download_locked(&mut st)?;
            st.device = None;
        }
        Ok(())
    }

    /// Makes the data available on the devices under `dist`, uploading if
    /// necessary, and returns the chunks.
    ///
    /// When the data is current on the devices under the same distribution
    /// but the scheduler has shifted the block boundaries, each new chunk
    /// is assembled from the old cores device to device, instead of
    /// gathering everything through the host.
    pub fn ensure_device(&self, dist: Distribution) -> Result<Vec<DeviceChunk>> {
        let profiler = self.ctx.profiler();
        let st = &mut *self.state.lock();
        let plans = self.ctx.plan_units(self.units, dist);
        let current = st
            .device
            .as_mut()
            .filter(|p| p.dist == dist && p.fresh != Fresh::Host);
        if let Some(part) = current {
            if part.chunks.iter().map(|c| &c.plan).eq(&plans) {
                profiler.add(metrics::TRANSFER_CACHE_HIT, 1);
                return Ok(part.chunks.clone());
            }
            // Only Block/Overlap plans shift with scheduler weights.
            if matches!(dist, Distribution::Block | Distribution::Overlap { .. }) {
                let chunks = self.alloc_chunks(plans)?;
                let moves = plan_transfers(&part.authoritative(), &stored(&chunks));
                let moved = self.run_moves(&moves, &mut st.host)?;
                profiler.add(metrics::SCHED_REBALANCES, 1);
                profiler.add(metrics::SCHED_DELTA_BYTES, moved);
                self.flight("delta", self.units, moved);
                part.chunks = chunks.clone();
                return Ok(chunks);
            }
        }
        // Gather the current copy to the host first, then (re)distribute.
        // If the devices held the only current copy this is the full
        // round trip the delta path exists to avoid — account its cost.
        profiler.add(metrics::TRANSFER_FORCED, 1);
        let downloaded = self.download_locked(st)?;
        let chunks = self.alloc_chunks(plans)?;
        let moves = plan_transfers(&[(Loc::Host, 0..self.units)], &stored(&chunks));
        let uploaded = self.run_moves(&moves, &mut st.host)?;
        if downloaded > 0 {
            profiler.add(metrics::SCHED_FULL_BYTES, downloaded + uploaded);
        }
        self.flight("scatter", self.units, uploaded);
        st.device = Some(DevicePart {
            dist,
            chunks: chunks.clone(),
            fresh: Fresh::Both,
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
        let plans = ctx.plan_units(units, dist);
        let host = vec![T::default(); units * unit_elems];
        let data = Self::from_host(ctx, units, unit_elems, host);
        let chunks = data.alloc_chunks(plans)?;
        data.state.lock().device = Some(DevicePart {
            dist,
            chunks: chunks.clone(),
            fresh: Fresh::Device,
        });
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
        self.state.lock().set_fresh(Fresh::Device);
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
        st.set_fresh(Fresh::Host);
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
        st.set_fresh(Fresh::Host);
    }

    /// Checks that unit range `units` lies within the container and, when
    /// `elems` is given, that it holds exactly that many elements.
    fn check_range(&self, units: &Range<usize>, elems: Option<usize>) -> Result<()> {
        let (n, want) = (self.units, units.len() * self.unit_elems);
        let reason = if units.start > units.end || units.end > n {
            format!("unit range {units:?} out of bounds for {n} units")
        } else if let Some(got) = elems.filter(|&got| got != want) {
            format!("{got} elements for unit range {units:?} of {want} elements")
        } else {
            return Ok(());
        };
        Err(Error::ShapeMismatch { reason })
    }

    /// Returns the elements of unit range `units`. A stale host copy gets
    /// only the intersecting authoritative ranges, and stays stale.
    ///
    /// # Errors
    ///
    /// [`Error::ShapeMismatch`] if the range exceeds the container's units.
    pub fn read_host_range(&self, units: Range<usize>) -> Result<Vec<T>> {
        self.check_range(&units, None)?;
        let st = &mut *self.state.lock();
        if let Some(part) = st.device.as_ref().filter(|p| p.fresh == Fresh::Device) {
            let moves = plan_transfers(&part.authoritative(), &[(Loc::Host, units.clone())]);
            let moved = self.run_moves(&moves, &mut st.host)?;
            self.flight("partial_read", units.len(), moved);
        }
        let span = units.start * self.unit_elems..units.end * self.unit_elems;
        Ok(st.host[span].to_vec())
    }

    /// Overwrites unit range `units` with `data` in the host copy and, by
    /// ranged uploads, in the stored ranges (halos included) of current
    /// device chunks, which *stay* current — unlike with
    /// [`DistributedData::with_host_mut`], a boundary-sized change moves
    /// boundary-sized bytes instead of forcing a full re-upload.
    ///
    /// # Errors
    ///
    /// [`Error::ShapeMismatch`] if the range exceeds the container's units
    /// or `data` does not hold exactly the range's elements.
    pub fn write_host_range(&self, units: Range<usize>, data: &[T]) -> Result<()> {
        self.check_range(&units, Some(data.len()))?;
        let st = &mut *self.state.lock();
        // A stale host range is patched too: the next download overwrites
        // it from the device chunks, which receive the same data.
        let start = units.start * self.unit_elems;
        st.host[start..start + data.len()].copy_from_slice(data);
        let current = st.device.as_ref().filter(|p| p.fresh != Fresh::Host);
        let want = current.map(|p| stored(&p.chunks)).unwrap_or_default();
        let moves = plan_transfers(&[(Loc::Host, units.clone())], &want);
        let moved = self.run_moves(&moves, &mut st.host)?;
        self.flight("partial_write", units.len(), moved);
        Ok(())
    }

    /// Gathers the device copy to the host if it is the only current one,
    /// returning the bytes downloaded.
    fn download_locked(&self, st: &mut State<T>) -> Result<u64> {
        let mut moved = 0;
        if let Some(part) = st.device.as_mut().filter(|p| p.fresh == Fresh::Device) {
            let moves = plan_transfers(&part.authoritative(), &[(Loc::Host, 0..self.units)]);
            moved = self.run_moves(&moves, &mut st.host)?;
            part.fresh = Fresh::Both;
        }
        Ok(moved)
    }

    /// Issues `moves` and returns the bytes they carried: a write, a read,
    /// an on-device copy, or across devices a read chained into a write.
    /// Every read is enqueued before the first wait; an in-order queue runs
    /// its pending writes and kernels first, so the wait synchronises the
    /// range.
    fn run_moves(&self, moves: &[Move], host: &mut [T]) -> Result<u64> {
        let (ue, unit_bytes) = (self.unit_elems, self.unit_bytes());
        let queue = |c: &DeviceChunk| self.ctx.queue(c.plan.device);
        let mut reads = Vec::new();
        let mut moved = 0u64;
        for Move { from, to, units } in moves {
            let len = units.len() * unit_bytes;
            let at = |c: &DeviceChunk| (units.start - c.plan.stored.start) * unit_bytes;
            match (*from, *to) {
                // The host already holds its own ranges.
                (Loc::Host, Loc::Host) => continue,
                (Loc::Host, Loc::Chunk(c)) => {
                    let bytes = to_bytes(&host[units.start * ue..units.end * ue]);
                    self.record(&queue(c).enqueue_write_async(&c.buffer, at(c), bytes, &[])?);
                }
                (Loc::Chunk(c), Loc::Host) => {
                    let read = queue(c).enqueue_read_async(&c.buffer, at(c), len, &[])?;
                    self.record(read.event());
                    reads.push((units.start * ue, read));
                }
                (Loc::Chunk(s), Loc::Chunk(d)) => {
                    let (sb, so, db, dof) = (&s.buffer, at(s), &d.buffer, at(d));
                    if s.plan.device == d.plan.device {
                        let copy = queue(s).enqueue_copy_async(sb, so, db, dof, len, &[])?;
                        self.record(&copy);
                    } else {
                        let (read, write) =
                            queue(s).enqueue_copy_to_async(sb, so, queue(d), db, dof, len, &[])?;
                        self.record(&read);
                        self.record(&write);
                    }
                }
            }
            moved += len as u64;
        }
        for (start, read) in reads {
            let (_event, bytes) = read.wait()?;
            let values = from_bytes::<T>(&bytes);
            host[start..start + values.len()].copy_from_slice(&values);
        }
        Ok(moved)
    }

    /// Records `event`'s span once it retires on its queue worker.
    fn record(&self, event: &vgpu::Event) {
        let profiler = self.ctx.profiler().clone();
        event.on_complete(move |e| {
            if e.error().is_none() {
                profiler.record_event(e);
            }
        });
    }

    /// Leaves a redistribution record over `units` units that moved `bytes`.
    fn flight(&self, what: &'static str, units: usize, bytes: u64) {
        let kind = FlightKind::Redistribution;
        (self.ctx.flight()).record(kind, flight::HOST_DEVICE, what, 0, units as u64, bytes);
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

    fn input_host_units(&self, units: Range<usize>) -> Result<Vec<u8>> {
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
    fn planner_fills_each_want_from_intersecting_haves_in_order() {
        let (d, chunks) =
            DistributedData::<i32>::alloc_device(ctx(2), 10, 1, Distribution::Overlap { size: 1 })
                .unwrap();
        let st = d.state.lock();
        let part = st.device.as_ref().unwrap();
        let is =
            |loc: Loc, i: usize| matches!(loc, Loc::Chunk(c) if std::ptr::eq(c, &part.chunks[i]));
        // Cores 0..5 and 5..10 fill a host range that straddles them.
        let reads = plan_transfers(&part.authoritative(), &[(Loc::Host, 3..8)]);
        assert_eq!(reads.len(), 2);
        assert!(is(reads[0].from, 0) && reads[0].units == (3..5));
        assert!(is(reads[1].from, 1) && reads[1].units == (5..8));
        // Stored ranges 0..6 and 4..10 both receive the shared halo units.
        let writes = plan_transfers(&[(Loc::Host, 4..6)], &stored(&part.chunks));
        assert!(is(writes[0].to, 0) && writes[0].units == (4..6));
        assert!(is(writes[1].to, 1) && writes[1].units == (4..6));
        // Empty intersections plan nothing.
        assert!(plan_transfers(&part.authoritative(), &[(Loc::Host, 5..5)]).is_empty());
        assert_eq!(chunks.len(), 2);
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
