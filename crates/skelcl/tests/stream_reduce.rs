//! The streamed reduction on shares wider than the one-shot grid (64 groups
//! × 256 lanes = 16 384 accumulator lanes), where a lane holds more than one
//! element: chunks narrower than the grid that revisit lanes chunk after
//! chunk, chunks wider than the grid, two and three devices, through eager
//! `Reduce::call` and a welded `Reduce::call_fused`.
//! Every result must be bit-identical to the non-streamed run
//! ([`StreamConfig::off`]), and no device may exceed the budget.
//!
//! The same runs check the streaming telemetry: one `stream_share` flight
//! record per device with the chunking, and `stream.launched_items` — the
//! chunk kernels' work-items — within the chunks' elements rounded up to
//! whole work-groups.

use skelcl::profile::{metrics, FlightKind};
use skelcl::{Config, Context, DeviceSelection, Map, Reduce, StreamConfig, Vector};
use vgpu::{DeviceSpec, Platform};

/// Work-group size of the reduction kernels.
const WG: u64 = 256;
/// Lanes of a share's one-shot grid once it holds ≥ 16 384 elements.
const GRID: u64 = 64 * WG;

/// Runs a sum over `n` order-sensitive floats on `devices` devices —
/// eagerly, or welded behind a squaring map when `fused` — and returns the
/// result's bits and the profiled context.
fn run(
    devices: usize,
    n: usize,
    budget: usize,
    stream: StreamConfig,
    fused: bool,
) -> (u32, Context) {
    let ctx = Context::init_with_config(
        Platform::new(devices, DeviceSpec::tesla_t10()),
        DeviceSelection::All,
        Config {
            stream,
            device_budget: Some(budget),
            profile: true,
            flight_capacity: 1 << 14,
            ..Config::default()
        },
    );
    // Magnitudes spread over seven decades, so any change in the order of
    // the additions shows in the bits.
    let data: Vec<f32> = (0..n)
        .map(|i| ((i * 7919) % 10_007) as f32 * 1e-3 + (i % 13) as f32 * 1e3)
        .collect();
    let v = Vector::from_vec(&ctx, data);
    let sum: Reduce<f32> =
        Reduce::new(&ctx, "float sum(float x, float y){ return x + y; }").unwrap();
    let result = if fused {
        let sq: Map<f32, f32> = Map::new(&ctx, "float sq(float x){ return x * x; }").unwrap();
        sum.call_fused(&sq.lazy(&v.expr()).unwrap()).unwrap()
    } else {
        sum.call(&v).unwrap()
    };
    (result.value().to_bits(), ctx)
}

/// What the flight recorder says one streamed region did on one device.
struct Share {
    budget: u64,
    chunk_units: u64,
    chunks: u64,
    depth: u64,
}

fn shares(ctx: &Context) -> Vec<Share> {
    let events = ctx.flight().events();
    let records = events.iter().filter(|e| e.kind == FlightKind::StreamShare);
    records
        .map(|e| Share {
            budget: e.a,
            chunk_units: e.more[0],
            chunks: e.more[1],
            depth: e.more[2],
        })
        .collect()
}

/// Σ over the region's chunks of each chunk's elements rounded up to whole
/// work-groups — the bound on the work-items its kernels may launch — and
/// the same capped at the grid per chunk, which is what they do launch on
/// shares of at least 16 384 elements. The chunk lengths come from the
/// chunk records' staged bytes (one `f32` source, no halo: 4 bytes per
/// element).
fn chunk_items(ctx: &Context) -> (u64, u64) {
    let events = ctx.flight().events();
    let submits = events.iter().filter(|e| e.kind == FlightKind::ChunkSubmit);
    let rounded: Vec<u64> = submits.map(|e| (e.b / 4).div_ceil(WG) * WG).collect();
    let capped = rounded.iter().map(|&r| r.min(GRID)).sum();
    (rounded.iter().sum(), capped)
}

#[test]
fn wide_shares_stream_bit_identical_and_launch_what_their_chunks_hold() {
    // (devices, elements, budget, chunks wider than the grid)
    let cases: [(usize, usize, usize, bool); 4] = [
        // 100 000 elements in 2 994-element chunks: every lane is revisited
        // by later chunks.
        (1, 100_000, 90_000, false),
        // 19 994-element chunks: one chunk covers the grid and wraps onto
        // its own lanes.
        (1, 100_000, 226_000, true),
        (2, 70_001, 90_000, false),
        (3, 200_003, 226_000, true),
    ];
    for (devices, n, budget, wider) in cases {
        for fused in [false, true] {
            let (oracle, ctx) = run(devices, n, budget, StreamConfig::off(), fused);
            assert_eq!(ctx.profiler().counter(metrics::STREAM_REGIONS), 0);
            let what = format!("{n} on {devices}, budget {budget}, fused {fused}");
            let (bits, ctx) = run(devices, n, budget, StreamConfig::on(), fused);
            assert_eq!(bits, oracle, "{what}: streamed must be bit-identical");

            let p = ctx.profiler();
            assert_eq!(p.counter(metrics::STREAM_REGIONS), 1, "{what}");
            let shares = shares(&ctx);
            assert_eq!(shares.len(), devices, "{what}: one record per device");
            let chunks: u64 = shares.iter().map(|s| s.chunks).sum();
            assert_eq!(p.counter(metrics::STREAM_CHUNKS), chunks, "{what}");
            for s in &shares {
                assert_eq!(s.budget, budget as u64, "{what}");
                assert_eq!(s.depth, 2u64.min(s.chunks), "{what}");
                assert!(s.chunks > 1, "{what}: the share must chunk");
                assert_eq!(s.chunk_units > GRID, wider, "{what}");
            }
            match (devices, budget) {
                (1, 90_000) => assert_eq!(chunks, 34, "{what}"),
                (1, 226_000) => assert_eq!(chunks, 6, "{what}"),
                _ => {}
            }

            for d in 0..devices {
                let peak = ctx.platform().device(d).peak_allocated_bytes();
                assert!(peak <= budget, "{what}: device {d} peaked at {peak} B");
            }

            let launched = p.counter(metrics::STREAM_LAUNCHED_ITEMS);
            let (bound, expected) = chunk_items(&ctx);
            assert!(
                launched <= bound,
                "{what}: {launched} work-items launched for chunks worth {bound}"
            );
            assert_eq!(launched, expected, "{what}");
        }
    }
}
