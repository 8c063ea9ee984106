//! The out-of-core streaming executor (`SKELCL_STREAM`).
//!
//! When a lowered plan region's per-device working set exceeds a memory
//! budget ([`Config::device_budget`](crate::Config::device_budget), from
//! `SKELCL_DEVICE_BUDGET` in bytes, defaulting to each device's real
//! [`vgpu::Device::available_bytes`]), the plan layer does not
//! materialise whole containers on the devices. Instead it splits every
//! device's share of the distribution axis into chunks and drives them
//! through one [`LaunchPlan`] as a software pipeline:
//!
//! * each device owns a **staging ring** of `depth` reusable slots
//!   (`SKELCL_STREAM=<depth>`, default 2 — double buffering); a chunk
//!   leases a slot, stages its input range host→device, runs the region's
//!   kernel over it, and (for map-like regions) reads the output back;
//! * **ring recycling** is expressed as explicit cross-chunk wait-list
//!   edges: chunk *k*'s uploads depend on chunk *k − depth*'s kernel (the
//!   slot's previous consumer) and its kernel depends on chunk
//!   *k − depth*'s readback — so peak device residency stays bounded by
//!   the ring while chunk *N*'s kernels execute concurrently with chunk
//!   *N + 1*'s uploads and chunk *N − 1*'s readbacks on *other* devices;
//! * chunking is **halo-aware**: a stencil chunk stages `range ± d`
//!   clamped to the container, and scan's cross-chunk offset state is
//!   applied to the source before staging, so streamed results stay
//!   bit-identical to the non-streamed oracle.
//!
//! The non-streamed path is untouched: with `SKELCL_STREAM=0`, with no
//! budget pressure, or for distributions the chunker does not handle
//! (`Copy`), regions run exactly as before and serve as the oracle the
//! stream proptests and the `results.stream` bench section compare
//! against.

use std::ops::Range;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use skelcl_profile::{metrics as m, FlightKind};
use vgpu::{DeviceBuffer, Event, KernelArg, NdRange};

use crate::context::Context;
use crate::distribution::{ChunkPlan, Distribution};
use crate::engine::{LaunchPlan, NodeId};
use crate::error::Result;
use crate::exec::ElementwiseInput;

/// Smallest chunk the splitter produces, in distribution units: below
/// this, per-chunk launch overhead dwarfs the transfer time the pipeline
/// can hide. Budgets too small to honour it are exceeded best-effort.
pub(crate) const MIN_CHUNK_UNITS: usize = 256;

/// The streaming gate parsed from `SKELCL_STREAM`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Whether streaming may engage at all.
    pub enabled: bool,
    /// Staging-ring depth per device (2 = classic double buffering).
    pub depth: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig::on()
    }
}

impl StreamConfig {
    /// The default: enabled, double-buffered.
    pub fn on() -> Self {
        StreamConfig {
            enabled: true,
            depth: 2,
        }
    }

    /// Streaming disabled — every region runs the non-streamed oracle.
    pub fn off() -> Self {
        StreamConfig {
            enabled: false,
            depth: 0,
        }
    }

    /// Parses a `SKELCL_STREAM` value (`None` means unset → default on):
    /// `0`/`off` disable, `1`/`on`/empty give the default depth 2, any
    /// larger integer sets the ring depth. Anything else falls back to the
    /// default and is returned as rejected.
    pub fn parse(spec: Option<&str>) -> (Self, Vec<&str>) {
        let cfg = match spec.map_or("", str::trim) {
            "" | "1" | "on" => Self::on(),
            "0" | "off" => Self::off(),
            other => match other.parse::<usize>() {
                Ok(depth) if depth >= 1 => StreamConfig {
                    enabled: true,
                    depth,
                },
                _ => return (Self::on(), vec![other]),
            },
        };
        (cfg, Vec::new())
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
/// chunk size the budget allows.
#[derive(Debug, Clone)]
pub(crate) struct StreamShare {
    /// The device's full share (`core` in global units).
    pub plan: ChunkPlan,
    /// Units per streamed chunk on this device.
    pub chunk_units: usize,
}

/// A chunked execution schedule for one streamed region.
#[derive(Debug, Clone)]
pub(crate) struct StreamSchedule {
    /// Staging-ring depth per device.
    pub depth: usize,
    /// Per-device shares, in `plan_units` order.
    pub shares: Vec<StreamShare>,
}

/// Decides whether a region of `units` distribution units under `dist`
/// must stream, and if so how to chunk it.
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
/// device's budget.
pub(crate) fn plan_stream(
    ctx: &Context,
    units: usize,
    dist: Distribution,
    bytes_per_unit: usize,
    fixed_bytes: &dyn Fn(usize) -> usize,
    halo: usize,
) -> Option<StreamSchedule> {
    let cfg = ctx.config().stream;
    if !cfg.enabled || units == 0 {
        return None;
    }
    if !matches!(dist, Distribution::Block | Distribution::Single(_)) {
        return None;
    }
    let bytes_per_unit = bytes_per_unit.max(1);
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
        let per_slot = budget.saturating_sub(fixed) / cfg.depth.max(1);
        let chunk_units = (per_slot / bytes_per_unit)
            .saturating_sub(2 * halo)
            .max(MIN_CHUNK_UNITS)
            .min(n);
        if working > budget && chunk_units < n {
            engaged = true;
        }
        shares.push(StreamShare { plan, chunk_units });
    }
    if !engaged || shares.is_empty() {
        return None;
    }
    Some(StreamSchedule {
        depth: cfg.depth.max(1),
        shares,
    })
}

/// One chunk of a streamed region, in global distribution units.
#[derive(Debug, Clone)]
pub(crate) struct ChunkCtx {
    /// The output units this chunk produces.
    pub range: Range<usize>,
    /// The input units staged for it (`range ± halo`, clamped).
    pub staged: Range<usize>,
}

/// One device's ring of reusable staging buffers. A chunk **leases** the
/// slot `seq % depth`, picking up a wait-list edge on the slot's previous
/// consumer (the kernel that last read its buffers); declaring the new
/// consumer **returns** the lease for the chunk `depth` positions later.
pub(crate) struct StagingRing {
    slots: Vec<RingSlot>,
    bytes: usize,
}

struct RingSlot {
    bufs: Vec<DeviceBuffer>,
    last_consumer: Option<NodeId>,
}

impl StagingRing {
    /// Allocates `depth` slots on `device`, each holding one buffer of
    /// `caps[i]` bytes per streamed source.
    pub fn new(ctx: &Context, device: usize, depth: usize, caps: &[usize]) -> Result<Self> {
        let queue = ctx.queue(device);
        let mut slots = Vec::with_capacity(depth);
        let mut bytes = 0usize;
        for _ in 0..depth.max(1) {
            let mut bufs = Vec::with_capacity(caps.len());
            for &cap in caps {
                bufs.push(queue.create_buffer(cap)?);
                bytes += cap;
            }
            slots.push(RingSlot {
                bufs,
                last_consumer: None,
            });
        }
        Ok(StagingRing { slots, bytes })
    }

    /// Total device bytes the ring keeps resident.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Leases the slot for chunk `seq`: its index, plus the recycle
    /// dependency on the slot's previous consumer (empty on first use).
    pub fn lease(&self, seq: usize) -> (usize, Vec<NodeId>) {
        let idx = seq % self.slots.len();
        (idx, self.slots[idx].last_consumer.into_iter().collect())
    }

    /// The leased slot's buffers, one per streamed source.
    pub fn bufs(&self, slot: usize) -> &[DeviceBuffer] {
        &self.slots[slot].bufs
    }

    /// Returns the lease: `consumer` is the last plan node reading the
    /// slot's buffers; the chunk `depth` positions later waits on it.
    pub fn set_consumer(&mut self, slot: usize, consumer: NodeId) {
        self.slots[slot].last_consumer = Some(consumer);
    }
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

/// A chunk's bookkeeping for post-execute flight callbacks and output
/// assembly.
struct ChunkRecord {
    device: usize,
    seq: usize,
    first_write: NodeId,
    read: NodeId,
    out_offset: usize,
    out_len: usize,
}

/// Kernel-ABI callback for [`stream_map_like`]: chunk, slot input buffers
/// (in source order) and the chunk's output buffer → argument list plus
/// launch geometry.
pub(crate) type BuildArgs<'a> =
    &'a dyn Fn(&ChunkCtx, &[DeviceBuffer], &DeviceBuffer) -> (Vec<KernelArg>, NdRange);

/// Streams a map-like region (fused elementwise or stencil): every chunk
/// stages each source's `staged` range into its ring slot, launches
/// `kernel` with arguments from `build_args`, and reads the chunk's
/// output back to the host. Returns the assembled output bytes
/// (`units × out_elem`).
///
/// `build_args` receives the chunk, the slot's input buffers (in source
/// order) and the chunk's output buffer, and produces the kernel argument
/// list plus launch geometry — the caller owns the kernel ABI, this
/// driver owns chunking, the rings and the pipeline edges.
#[allow(clippy::too_many_arguments)]
pub(crate) fn stream_map_like(
    ctx: &Context,
    sched: &StreamSchedule,
    halo: usize,
    units: usize,
    sources: &[&dyn ElementwiseInput],
    out_elem: usize,
    program: &skelcl_kernel::Program,
    kernel: &str,
    build_args: BuildArgs<'_>,
    events: &mut Vec<Event>,
) -> Result<Vec<u8>> {
    let profiler = ctx.profiler().clone();
    profiler.add(m::STREAM_REGIONS, 1);
    let in_elems: Vec<usize> = sources
        .iter()
        .map(|s| s.input_scalar().size_bytes())
        .collect();

    let mut plan = LaunchPlan::new();
    plan.observe_per_kernel();
    let mut rings: Vec<StagingRing> = Vec::new();
    let mut out_slots: Vec<Vec<DeviceBuffer>> = Vec::new();
    let mut records: Vec<ChunkRecord> = Vec::new();
    let mut staged_total = 0u64;

    for share in &sched.shares {
        let device = share.plan.device;
        let core = share.plan.core.clone();
        let n_share = core.len();
        let cu = share.chunk_units.clamp(1, n_share);
        let chunks = n_share.div_ceil(cu);
        let depth = sched.depth.min(chunks).max(1);
        let caps: Vec<usize> = in_elems.iter().map(|e| (cu + 2 * halo) * e).collect();
        let mut ring = StagingRing::new(ctx, device, depth, &caps)?;
        let queue = ctx.queue(device);
        let outs: Vec<DeviceBuffer> = (0..depth)
            .map(|_| queue.create_buffer(cu * out_elem))
            .collect::<std::result::Result<_, _>>()?;
        profiler.set_device_gauge(
            m::STREAM_RESIDENT_BYTES,
            device,
            (ring.bytes() + outs.iter().map(|b| b.len()).sum::<usize>()) as f64,
        );
        // Per-slot readback of the previous tenant: the kernel writing a
        // slot's output buffer must wait for that read to drain.
        let mut last_reads: Vec<Option<NodeId>> = vec![None; depth];
        for seq in 0..chunks {
            let start = core.start + seq * cu;
            let end = (start + cu).min(core.end);
            let staged = start.saturating_sub(halo)..(end + halo).min(units);
            let (slot, recycle) = ring.lease(seq);
            let mut writes = Vec::with_capacity(sources.len());
            for (i, src) in sources.iter().enumerate() {
                let bytes = src.input_host_units(staged.clone())?;
                staged_total += bytes.len() as u64;
                writes.push(plan.write(device, &ring.bufs(slot)[i], 0, bytes, &recycle));
            }
            let chunk = ChunkCtx {
                range: start..end,
                staged,
            };
            let (args, range) = build_args(&chunk, ring.bufs(slot), &outs[slot]);
            let mut deps = writes.clone();
            if let Some(r) = last_reads[slot] {
                deps.push(r);
            }
            let kid = plan.kernel(device, program, kernel, args, range, end - start, &deps);
            let rid = plan.read(device, &outs[slot], 0, (end - start) * out_elem, &[kid]);
            ring.set_consumer(slot, kid);
            last_reads[slot] = Some(rid);
            ctx.flight().record(
                FlightKind::ChunkSubmit,
                device,
                "stream",
                0,
                seq as u64,
                (chunk.staged.len() * in_elems.iter().sum::<usize>()) as u64,
            );
            records.push(ChunkRecord {
                device,
                seq,
                first_write: writes[0],
                read: rid,
                out_offset: start * out_elem,
                out_len: (end - start) * out_elem,
            });
        }
        rings.push(ring);
        out_slots.push(outs);
    }

    profiler.add(m::STREAM_CHUNKS, records.len() as u64);
    profiler.add(m::STREAM_BYTES_STAGED, staged_total);
    let mut run = plan.execute(ctx)?;
    let lifecycles: Vec<ChunkLifecycle> = records
        .iter()
        .map(|r| ChunkLifecycle {
            device: r.device,
            seq: r.seq,
            acquire: r.first_write,
            retire: r.read,
        })
        .collect();
    attach_chunk_lifecycle(ctx, run.events(), &lifecycles);
    run.wait()?;
    let mut out = vec![0u8; units * out_elem];
    for rec in &records {
        let bytes = run.take_read(rec.read)?;
        out[rec.out_offset..rec.out_offset + rec.out_len].copy_from_slice(&bytes);
    }
    events.extend(run.into_events());
    drop(rings);
    drop(out_slots);
    Ok(out)
}

/// Attaches flight-recorder chunk-lifecycle callbacks to a streamed plan's
/// events: `chunk_acquire` when a chunk's first upload lands in its ring
/// slot (occupancy rises), `chunk_retire` when its last consumer completes
/// and the slot becomes reusable (occupancy falls).
pub(crate) fn attach_chunk_lifecycle(ctx: &Context, events: &[Event], chunks: &[ChunkLifecycle]) {
    let flight = ctx.flight();
    if !flight.is_enabled() {
        return;
    }
    let occupancy: Vec<Arc<AtomicI64>> = (0..ctx.device_count())
        .map(|_| Arc::new(AtomicI64::new(0)))
        .collect();
    for rec in chunks {
        let (device, seq) = (rec.device, rec.seq);
        let occ = Arc::clone(&occupancy[device]);
        let f = flight.clone();
        events[rec.acquire.index()].on_complete(move |e| {
            let now = occ.fetch_add(1, Ordering::Relaxed) + 1;
            f.record(
                FlightKind::ChunkAcquire,
                device,
                "stream",
                e.ended_ns(),
                seq as u64,
                now.max(0) as u64,
            );
        });
        let occ = Arc::clone(&occupancy[device]);
        let f = flight.clone();
        events[rec.retire.index()].on_complete(move |e| {
            let now = occ.fetch_sub(1, Ordering::Relaxed) - 1;
            f.record(
                FlightKind::ChunkRetire,
                device,
                "stream",
                e.ended_ns(),
                seq as u64,
                now.max(0) as u64,
            );
        });
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
        let depth_4 = StreamConfig {
            enabled: true,
            depth: 4,
        };
        assert_eq!(StreamConfig::parse(Some(" 4 ")), clean(depth_4));
        // What is not a gate word or a depth falls back to the default and
        // is handed back.
        for bad in ["bogus", "-1", "2.5"] {
            assert_eq!(
                StreamConfig::parse(Some(bad)),
                (StreamConfig::on(), vec![bad])
            );
        }
    }
}
