//! The out-of-core streaming executor (`SKELCL_STREAM`).
//!
//! When a region's per-device working set exceeds a memory budget
//! ([`Config::device_budget`](crate::Config::device_budget), from
//! `SKELCL_DEVICE_BUDGET` in bytes, defaulting to each device's real
//! [`vgpu::Device::available_bytes`]), every eager map-like call, every
//! lowered plan region and the
//! reduction (welded, or eager over a vector) do not materialise whole
//! containers on the devices.
//! Instead every device's share of the distribution axis is split into
//! chunks driven through one [`LaunchPlan`] as a software pipeline:
//!
//! * each device owns a **staging ring** of two reusable slots (double
//!   buffering); a chunk leases a slot, stages its input range
//!   host→device, runs the region's kernel over it, and (for map-like
//!   regions) reads the output back;
//! * **ring recycling** is expressed as explicit cross-chunk wait-list
//!   edges: chunk *k*'s uploads depend on chunk *k − 2*'s kernel (the
//!   slot's previous consumer) and its kernel depends on chunk
//!   *k − 2*'s readback — so peak device residency stays bounded by
//!   the ring while chunk *N*'s kernels execute concurrently with chunk
//!   *N + 1*'s uploads and chunk *N − 1*'s readbacks on *other* devices;
//! * chunking is **halo-aware**: a stencil chunk stages `range ± d`
//!   clamped to the container, so streamed results stay bit-identical to
//!   the non-streamed oracle.
//!
//! The non-streamed path is untouched: with `SKELCL_STREAM=0`, with no
//! budget pressure, or for distributions the chunker does not handle
//! (`Copy`), regions run exactly as before and serve as the oracle the
//! stream proptests and the `results.stream` bench section compare
//! against.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use skelcl_profile::{metrics as m, FlightKind};
use vgpu::{DeviceBuffer, Event};

use crate::context::Context;
use crate::distribution::{ChunkPlan, Distribution};
use crate::engine::{LaunchPlan, NodeId};
use crate::error::Result;
use crate::exec::{run_plan, BuildArgs, ChunkView, ElementwiseInput, MapRegion};

/// Smallest chunk the splitter produces, in elements (so at least one
/// unit, and 256 units only when a unit is one element): below this,
/// per-chunk launch overhead dwarfs the transfer time the pipeline can
/// hide. Budgets too small to honour it are exceeded best-effort.
pub(crate) const MIN_CHUNK_ELEMS: usize = 256;

/// Staging-ring slots per device: classic double buffering.
pub(crate) const RING_DEPTH: usize = 2;

/// The streaming gate parsed from `SKELCL_STREAM`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Whether streaming may engage at all.
    pub enabled: bool,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig::on()
    }
}

impl StreamConfig {
    /// The default: enabled.
    pub fn on() -> Self {
        StreamConfig { enabled: true }
    }

    /// Streaming disabled — every region runs the non-streamed oracle.
    pub fn off() -> Self {
        StreamConfig { enabled: false }
    }

    /// Parses a `SKELCL_STREAM` value (`None` means unset → default on):
    /// `0`/`off` disable, `1`/`on`/empty enable. Anything else falls back
    /// to the default and is returned as rejected.
    pub fn parse(spec: Option<&str>) -> (Self, Vec<&str>) {
        match spec.map_or("", str::trim) {
            "" | "1" | "on" => (Self::on(), Vec::new()),
            "0" | "off" => (Self::off(), Vec::new()),
            other => (Self::on(), vec![other]),
        }
    }
}

/// The per-device memory budget in bytes: the session's configured budget,
/// else the device's real available memory.
pub(crate) fn device_budget(ctx: &Context, device: usize) -> usize {
    ctx.config()
        .device_budget
        .unwrap_or_else(|| ctx.platform().device(device).available_bytes())
}

/// One device's share of a streamed region: the same partition the
/// non-streamed path would use (scheduler-weighted for `Block`), plus the
/// chunking the budget allows.
#[derive(Debug, Clone)]
pub(crate) struct StreamShare {
    /// The device's full share (`core` in global units).
    pub plan: ChunkPlan,
    /// Units per streamed chunk on this device (the last may be shorter).
    pub chunk_units: usize,
    /// Number of chunks the share splits into.
    pub chunks: usize,
    /// Staging-ring slots on this device: [`RING_DEPTH`], or fewer when
    /// the share has fewer chunks.
    pub depth: usize,
    /// The device budget the chunking was sized to, in bytes.
    pub budget: usize,
    /// Bytes the region keeps resident outside the ring on this device.
    pub fixed_bytes: usize,
}

/// Decides whether a region of `units` distribution units of `unit_elems`
/// elements under `dist` must stream, and if so how to chunk it.
///
/// `bytes_per_unit` is the region's staging traffic per unit (all input
/// element sizes plus the per-unit output residency); `fixed_bytes` maps a
/// share's unit count to the device bytes the region keeps resident
/// outside the ring (e.g. a reduction's accumulator). `halo` widens every
/// chunk's staged input range on both sides.
///
/// Returns `None` — run the ordinary non-streamed path — when streaming
/// is disabled, the distribution is not chunkable along one axis
/// (`Copy` replicates everything), or every share already fits its
/// device's budget. A region that streams leaves one
/// [`FlightKind::StreamShare`] record per share in the flight recorder.
pub(crate) fn plan_stream(
    ctx: &Context,
    units: usize,
    unit_elems: usize,
    dist: Distribution,
    bytes_per_unit: usize,
    fixed_bytes: &dyn Fn(usize) -> usize,
    halo: usize,
) -> Option<Vec<StreamShare>> {
    let cfg = ctx.config().stream;
    if !cfg.enabled || units == 0 {
        return None;
    }
    if !matches!(dist, Distribution::Block | Distribution::Single(_)) {
        return None;
    }
    let bytes_per_unit = bytes_per_unit.max(1);
    let min_chunk = (MIN_CHUNK_ELEMS / unit_elems.max(1)).max(1);
    let mut engaged = false;
    let mut shares = Vec::new();
    for plan in ctx.plan_units(units, dist) {
        let n = plan.core_len();
        if n == 0 {
            continue;
        }
        let budget = device_budget(ctx, plan.device);
        let fixed = fixed_bytes(n);
        let working = n
            .saturating_mul(bytes_per_unit)
            .saturating_add(2 * halo * bytes_per_unit)
            .saturating_add(fixed);
        let per_slot = budget.saturating_sub(fixed) / RING_DEPTH;
        let chunk_units = (per_slot / bytes_per_unit)
            .saturating_sub(2 * halo)
            .max(min_chunk)
            .min(n);
        if working > budget && chunk_units < n {
            engaged = true;
        }
        let chunks = n.div_ceil(chunk_units);
        shares.push(StreamShare {
            plan,
            chunk_units,
            chunks,
            depth: RING_DEPTH.min(chunks),
            budget,
            fixed_bytes: fixed,
        });
    }
    if !engaged {
        return None;
    }
    for s in &shares {
        ctx.flight().record_payload(
            FlightKind::StreamShare,
            s.plan.device,
            "stream",
            0,
            [s.budget, s.fixed_bytes, s.chunk_units, s.chunks, s.depth].map(|v| v as u64),
        );
    }
    Some(shares)
}

/// A chunk's plan nodes that bound its ring-slot tenancy, used to emit
/// flight-recorder lifecycle events after the plan launches.
pub(crate) struct ChunkLifecycle {
    /// The executing device.
    pub device: usize,
    /// Per-device chunk sequence number.
    pub seq: usize,
    /// Completion of this node marks the slot acquired (first upload).
    pub acquire: NodeId,
    /// Completion of this node returns the slot (last consumer).
    pub retire: NodeId,
}

/// One ring chunk handed to a [`StreamedRegion::share`] closure, after
/// its uploads were planned.
pub(crate) struct RingChunk<'a> {
    /// Device, staged (`stored`) and produced (`core`) range in global
    /// units.
    pub plan: ChunkPlan,
    /// The leased ring slot.
    pub slot: usize,
    /// The slot's staging buffers, one per source.
    pub bufs: &'a [DeviceBuffer],
    /// The upload nodes filling `bufs`, one per source.
    pub writes: &'a [NodeId],
}

/// A streamed region under construction: one [`LaunchPlan`] into which
/// every device's share is driven chunk by chunk through a staging ring.
/// The driver owns chunking, the rings, the staged uploads and the
/// recycle edges; the caller's closure emits the chunk's kernel(s) and
/// names the nodes that return the slot.
pub(crate) struct StreamedRegion<'a> {
    ctx: &'a Context,
    /// The region's plan; callers append per-share epilogues to it.
    pub plan: LaunchPlan,
    sources: &'a [&'a dyn ElementwiseInput],
    in_unit_bytes: Vec<usize>,
    halo: usize,
    units: usize,
    lifecycles: Vec<ChunkLifecycle>,
    bytes_staged: u64,
    launched_items: u64,
}

impl<'a> StreamedRegion<'a> {
    /// Starts a streamed region over `sources` (all of the first one's
    /// shape) whose chunks read `halo` extra units on each side.
    pub fn new(ctx: &'a Context, sources: &'a [&'a dyn ElementwiseInput], halo: usize) -> Self {
        ctx.profiler().add(m::STREAM_REGIONS, 1);
        let mut plan = LaunchPlan::new();
        plan.observe_per_kernel();
        let unit_elems = sources[0].input_unit_elems();
        StreamedRegion {
            ctx,
            plan,
            sources,
            in_unit_bytes: sources
                .iter()
                .map(|s| s.input_scalar().size_bytes() * unit_elems)
                .collect(),
            halo,
            units: sources[0].input_units(),
            lifecycles: Vec::new(),
            bytes_staged: 0,
            launched_items: 0,
        }
    }

    /// Drives one device's share through its staging ring: `depth` slots
    /// of one buffer per source. Chunk `seq` **leases** slot `seq % depth`,
    /// stages every source's `core ± halo` range (clamped to the
    /// container) behind a wait-list edge on the slot's previous consumer,
    /// and calls `emit`, which appends the chunk's kernel(s) and returns
    /// `(consumer, retire)`: the last node reading the slot's staging
    /// buffers — which **returns** the lease to the chunk `depth`
    /// positions later — and the node whose completion ends the chunk's
    /// tenancy. `resident_bytes` is what the caller keeps on the device
    /// next to the ring, for the residency gauge.
    pub fn share(
        &mut self,
        share: &StreamShare,
        resident_bytes: usize,
        mut emit: impl FnMut(&mut LaunchPlan, &RingChunk<'_>) -> (NodeId, NodeId),
    ) -> Result<()> {
        let device = share.plan.device;
        let core = &share.plan.core;
        let cu = share.chunk_units;
        let caps: Vec<usize> = self
            .in_unit_bytes
            .iter()
            .map(|b| (cu + 2 * self.halo) * b)
            .collect();
        let queue = self.ctx.queue(device);
        let mut slots: Vec<Vec<DeviceBuffer>> = Vec::with_capacity(share.depth);
        for _ in 0..share.depth {
            let bufs = caps.iter().map(|&cap| queue.create_buffer(cap));
            slots.push(bufs.collect::<std::result::Result<_, _>>()?);
        }
        let mut consumers: Vec<Option<NodeId>> = vec![None; share.depth];
        self.ctx.profiler().set_device_gauge(
            m::STREAM_RESIDENT_BYTES,
            device,
            (share.depth * caps.iter().sum::<usize>() + resident_bytes) as f64,
        );
        for seq in 0..share.chunks {
            let start = core.start + seq * cu;
            let end = (start + cu).min(core.end);
            let staged = start.saturating_sub(self.halo)..(end + self.halo).min(self.units);
            let slot = seq % share.depth;
            let recycle: Vec<NodeId> = consumers[slot].into_iter().collect();
            let mut writes = Vec::with_capacity(self.sources.len());
            for (src, buf) in self.sources.iter().zip(&slots[slot]) {
                let bytes = src.input_host_units(staged.clone())?;
                self.bytes_staged += bytes.len() as u64;
                writes.push(self.plan.write(device, buf, 0, bytes, &recycle));
            }
            let staged_bytes = staged.len() * self.in_unit_bytes.iter().sum::<usize>();
            let chunk = RingChunk {
                plan: ChunkPlan {
                    device,
                    stored: staged,
                    core: start..end,
                },
                slot,
                bufs: &slots[slot],
                writes: &writes,
            };
            let first = self.plan.len();
            let (consumer, retire) = emit(&mut self.plan, &chunk);
            self.launched_items += self.plan.kernel_items_since(first);
            consumers[slot] = Some(consumer);
            self.ctx.flight().record(
                FlightKind::ChunkSubmit,
                device,
                "stream",
                0,
                seq as u64,
                staged_bytes as u64,
            );
            self.lifecycles.push(ChunkLifecycle {
                device,
                seq,
                acquire: writes[0],
                retire,
            });
        }
        Ok(())
    }

    /// Executes the plan and returns the bytes of the `reads` nodes in
    /// order. The rings and whatever the closures allocated are held by
    /// the plan's nodes, so they are released as the plan drains.
    pub fn run(self, reads: &[NodeId], events: &mut Vec<Event>) -> Result<Vec<Vec<u8>>> {
        let profiler = self.ctx.profiler();
        profiler.add(m::STREAM_CHUNKS, self.lifecycles.len() as u64);
        profiler.add(m::STREAM_BYTES_STAGED, self.bytes_staged);
        profiler.add(m::STREAM_LAUNCHED_ITEMS, self.launched_items);
        run_plan(self.ctx, self.plan, reads, &self.lifecycles, events)
    }
}

/// Streams a map-like region: every chunk stages each source's range into
/// its ring slot, launches `region.kernel` with the arguments `build`
/// gives for the chunk's [`ChunkView`], and reads the chunk's output back
/// to the host. Returns the assembled output bytes (`units ×
/// out_unit_bytes`).
pub(crate) fn stream_map_like(
    region: &MapRegion<'_>,
    shares: &[StreamShare],
    out_unit_bytes: usize,
    build: BuildArgs<'_>,
    events: &mut Vec<Event>,
) -> Result<Vec<u8>> {
    let mut stream = StreamedRegion::new(region.ctx, region.sources, region.halo);
    let unit_elems = region.sources[0].input_unit_elems();
    let units = region.sources[0].input_units();
    let mut reads = Vec::new();
    let mut offsets = Vec::new();
    for share in shares {
        let device = share.plan.device;
        let queue = region.ctx.queue(device);
        let outs: Vec<DeviceBuffer> = (0..share.depth)
            .map(|_| queue.create_buffer(share.chunk_units * out_unit_bytes))
            .collect::<std::result::Result<_, _>>()?;
        // Per-slot readback of the previous tenant: the kernel writing a
        // slot's output buffer must wait for that read to drain.
        let mut last_reads: Vec<Option<NodeId>> = vec![None; share.depth];
        let out_bytes = share.depth * share.chunk_units * out_unit_bytes;
        stream.share(share, out_bytes, |plan, chunk| {
            let out = &outs[chunk.slot];
            let (args, range) = build(&ChunkView {
                inputs: chunk.bufs,
                output: out,
                plan: &chunk.plan,
                unit_elems,
            });
            let mut deps = chunk.writes.to_vec();
            deps.extend(last_reads[chunk.slot]);
            let n = chunk.plan.core_len();
            let kid = plan.kernel(device, region.program, region.kernel, args, range, n, &deps);
            let rid = plan.read(device, out, 0, n * out_unit_bytes, &[kid]);
            last_reads[chunk.slot] = Some(rid);
            reads.push(rid);
            offsets.push(chunk.plan.core.start * out_unit_bytes);
            (kid, rid)
        })?;
    }
    let mut out = vec![0u8; units * out_unit_bytes];
    for (offset, bytes) in offsets.into_iter().zip(stream.run(&reads, events)?) {
        out[offset..offset + bytes.len()].copy_from_slice(&bytes);
    }
    Ok(out)
}

/// Attaches flight-recorder chunk-lifecycle callbacks to a streamed plan's
/// events: `chunk_acquire` when a chunk's first upload lands in its ring
/// slot (occupancy rises), `chunk_retire` when its last consumer completes
/// and the slot becomes reusable (occupancy falls).
pub(crate) fn attach_chunk_lifecycle(ctx: &Context, events: &[Event], chunks: &[ChunkLifecycle]) {
    let flight = ctx.flight();
    if !flight.is_enabled() || chunks.is_empty() {
        return;
    }
    let occupancy: Vec<Arc<AtomicI64>> = (0..ctx.device_count())
        .map(|_| Arc::new(AtomicI64::new(0)))
        .collect();
    for rec in chunks {
        let (device, seq) = (rec.device, rec.seq);
        for (node, kind, delta) in [
            (rec.acquire, FlightKind::ChunkAcquire, 1),
            (rec.retire, FlightKind::ChunkRetire, -1),
        ] {
            let occ = Arc::clone(&occupancy[device]);
            let f = flight.clone();
            events[node.index()].on_complete(move |e| {
                let now = occ.fetch_add(delta, Ordering::Relaxed) + delta;
                f.record(
                    kind,
                    device,
                    "stream",
                    e.ended_ns(),
                    seq as u64,
                    now.max(0) as u64,
                );
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_gate_values() {
        let clean = |cfg| (cfg, Vec::<&str>::new());
        assert_eq!(StreamConfig::parse(None), clean(StreamConfig::on()));
        assert_eq!(StreamConfig::parse(Some("")), clean(StreamConfig::on()));
        assert_eq!(StreamConfig::parse(Some("1")), clean(StreamConfig::on()));
        assert_eq!(StreamConfig::parse(Some("on")), clean(StreamConfig::on()));
        assert_eq!(StreamConfig::parse(Some("0")), clean(StreamConfig::off()));
        assert_eq!(StreamConfig::parse(Some("off")), clean(StreamConfig::off()));
        assert_eq!(
            StreamConfig::parse(Some(" off ")),
            clean(StreamConfig::off())
        );
        // What is not a gate word — a ring depth included — falls back to
        // the default and is handed back.
        for bad in ["bogus", "-1", "2.5", "3"] {
            assert_eq!(
                StreamConfig::parse(Some(bad)),
                (StreamConfig::on(), vec![bad])
            );
        }
    }
}
