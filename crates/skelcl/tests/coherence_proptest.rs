//! Random coherence sequences against a plain `Vec` model.
//!
//! Each case runs a random sequence of container operations on 1–4
//! devices, with and without a small device budget (under which `Map`
//! streams and reads its input's host units chunk by chunk): full and
//! ranged host reads, ranged writes, `with_slice_mut` and `assign`,
//! `set_distribution`, `prefetch`, scheduler shifts that move block
//! boundaries under a resident vector, and `Map` calls whose output lives on the devices only.
//! After every step `read_range` over the whole vector must equal the
//! model; unlike `to_vec` it leaves a stale host copy stale, so the next
//! step still starts from the state the previous one left.
//!
//! One operation corrupts every device copy the coherence protocol must
//! never read: under `Overlap` the halos of each chunk, under `Copy` every
//! chunk but the first. The device copy is then declared written, so from
//! that step on each unit is held by exactly one authoritative range, and
//! any read from a halo or a later `Copy` chunk shows up as a mismatch.

use proptest::prelude::*;

use skelcl::{Config, Context, DeviceSelection, Distribution, Map, SchedulePolicy, Vector};
use vgpu::{DeviceSpec, Platform};

/// A value no step writes: a read that returns it read a stale copy.
const GARBAGE: f32 = -7777.0;

fn distribution(pick: usize, devices: usize) -> Distribution {
    match pick % 5 {
        0 => Distribution::Block,
        1 => Distribution::Copy,
        2 => Distribution::Overlap {
            size: 1 + pick / 5 % 3,
        },
        3 => Distribution::Single(pick / 5 % devices),
        _ => Distribution::Overlap { size: 8 },
    }
}

/// Overwrites every non-authoritative device range of `v` under `dist`
/// with [`GARBAGE`] and declares the device copy written.
fn corrupt_non_authoritative(ctx: &Context, v: &Vector<f32>, dist: Distribution) {
    for (i, c) in v.interop_chunks(dist).unwrap().iter().enumerate() {
        let stale = if dist == Distribution::Copy && i > 0 {
            vec![c.stored.clone()]
        } else {
            vec![c.stored.start..c.core.start, c.core.end..c.stored.end]
        };
        for r in stale.into_iter().filter(|r| !r.is_empty()) {
            let bytes: Vec<u8> = vec![GARBAGE; r.len()]
                .iter()
                .flat_map(|x| x.to_le_bytes())
                .collect();
            let offset = (r.start - c.stored.start) * 4;
            ctx.queue(c.device)
                .enqueue_write(&c.buffer, offset, &bytes)
                .unwrap();
        }
    }
    v.mark_device_modified();
}

/// Runs `ops` on a vector of `n` elements and checks it against the model
/// after every step.
fn run(n: usize, devices: usize, budget: Option<usize>, ops: &[(u8, usize, usize)]) {
    let ctx = Context::init_with_config(
        Platform::new(devices, DeviceSpec::tesla_t10()),
        DeviceSelection::All,
        Config {
            device_budget: budget,
            ..Config::default()
        },
    );
    let inc: Map<f32, f32> = Map::new(&ctx, "float inc(float x){ return x + 1.0f; }").unwrap();
    let mut model: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let mut v = Vector::from_vec(&ctx, model.clone());
    for (step, &(op, a, b)) in ops.iter().enumerate() {
        let (lo, hi) = {
            let (x, y) = (a % (n + 1), b % (n + 1));
            (x.min(y), x.max(y))
        };
        let dist = distribution(b, devices);
        match op {
            0 => assert_eq!(v.to_vec().unwrap(), model),
            1 => assert_eq!(v.read_range(lo..hi).unwrap(), model[lo..hi]),
            2 => assert_eq!(v.get(a % n).unwrap(), model[a % n]),
            3 => {
                let data: Vec<f32> = (lo..hi).map(|i| (1000 * step + i) as f32).collect();
                v.write_range(lo..hi, &data).unwrap();
                model[lo..hi].copy_from_slice(&data);
            }
            4 => {
                let data: Vec<f32> = (0..n).map(|i| (n - i + step) as f32).collect();
                v.assign(data.clone()).unwrap();
                model = data;
            }
            5 => {
                let i = a % n;
                v.with_slice_mut(|h| h[i] = -h[i]).unwrap();
                model[i] = -model[i];
            }
            6 => v.set_distribution(dist).unwrap(),
            7 => v.prefetch(dist).unwrap(),
            8 => {
                v = inc.call(&v).unwrap();
                model.iter_mut().for_each(|x| *x += 1.0);
            }
            // Shift the block boundaries under a resident vector and use it
            // again: the delta path.
            9 => {
                let shiftable = [Distribution::Block, Distribution::Overlap { size: 2 }];
                v.prefetch(shiftable[b % 2]).unwrap();
                let s = ctx.scheduler();
                s.set_policy(SchedulePolicy::Adaptive);
                for d in 0..devices {
                    s.observe(d, 100, 100 + ((a >> (4 * d)) & 0xff) as u64 * 10);
                }
                v.prefetch(shiftable[b % 2]).unwrap();
            }
            _ => corrupt_non_authoritative(&ctx, &v, dist),
        }
        assert_eq!(
            v.read_range(0..n).unwrap(),
            model,
            "after step {step} {:?}",
            (op, a, b)
        );
    }
    assert_eq!(v.to_vec().unwrap(), model);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn container_matches_vec_model(
        n in 1usize..1500,
        devices in 1usize..=4,
        budgeted in any::<bool>(),
        ops in proptest::collection::vec((0u8..11, any::<usize>(), any::<usize>()), 1..14),
    ) {
        run(n, devices, budgeted.then_some(2048), &ops);
    }
}
