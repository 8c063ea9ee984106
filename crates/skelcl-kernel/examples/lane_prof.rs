//! Per-lane ledger of the group executor over corpus kernels
//! (`tests/corpus/*.cl`): the raw Mandelbrot, Sobel, zip-multiply and
//! tree-reduce benchmark kernels, and the welded `skelcl_map` Mandelbrot
//! kernel on the 256-lane 1-D groups a `Map` launches. Each is launched
//! over [`HostMemory`] by one [`WorkGroup`] on one thread, group after
//! group.
//!
//! Prints, per kernel, the lane-ops of one launch (one decoded head
//! executed for one lane: `GroupStats::lane_steps`), its group steps (one
//! per decoded head per strip), the lane utilisation (`lane_steps /
//! lane_slots`) and the median over `reps` launches of the host time per
//! lane-op. The first three are deterministic; the last is the number a
//! change to the lane loops moves.
//!
//! ```text
//! cargo run --release -p skelcl-kernel --example lane_prof -- [reps]
//! ```

use std::time::Instant;

use skelcl_kernel::program::Program;
use skelcl_kernel::types::AddressSpace;
use skelcl_kernel::value::{Ptr, Value};
use skelcl_kernel::vm::{EntryFrame, Exit, GroupStats, HostMemory, ItemGeometry, WorkGroup};

/// A kernel argument of a launch.
enum Arg {
    Buffer(Vec<u8>),
    Scalar(Value),
}

/// One corpus kernel and the launch it is measured on.
struct Case {
    file: &'static str,
    kernel: &'static str,
    args: Vec<Arg>,
    global: [u64; 2],
    local: [u64; 2],
}

/// A deterministic byte pattern (a 32-bit LCG), so runs are comparable.
fn bytes(n: usize, mut seed: u32) -> Vec<u8> {
    (0..n)
        .map(|_| {
            seed = seed.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (seed >> 24) as u8
        })
        .collect()
}

fn floats(n: usize, seed: u32) -> Vec<u8> {
    bytes(n, seed)
        .into_iter()
        .flat_map(|b| (b as f32 / 64.0).to_le_bytes())
        .collect()
}

fn int(v: usize) -> Arg {
    Arg::Scalar(Value::I32(v as i32))
}

fn cases() -> Vec<Case> {
    let (mw, mh) = (256, 192);
    let (sw, sh) = (256, 256);
    let n = 1 << 17;
    let reduce_groups = 64;
    vec![
        Case {
            file: "raw_mandelbrot.cl",
            kernel: "mandelbrot",
            args: vec![
                Arg::Buffer(vec![0; mw * mh]),
                int(mw),
                int(mh),
                int(0),
                int(mh),
                int(200),
                Arg::Scalar(Value::F32(0.0)),
                Arg::Scalar(Value::F32(0.0)),
            ],
            global: [mw as u64, mh as u64],
            local: [16, 16],
        },
        // The `Map` skeleton's kernel over the same frame, as `bench/e2e`'s
        // `mandelbrot` workload launches it: one item per pixel index,
        // 256-lane 1-D groups.
        Case {
            file: "skelcl_map.cl",
            kernel: "skelcl_map",
            args: vec![
                Arg::Buffer((0..(mw * mh) as i32).flat_map(i32::to_le_bytes).collect()),
                Arg::Buffer(vec![0; mw * mh]),
                int(mw * mh),
                int(mw),
                int(mh),
                int(200),
                Arg::Scalar(Value::F32(0.0)),
                Arg::Scalar(Value::F32(0.0)),
            ],
            global: [(mw * mh) as u64, 1],
            local: [256, 1],
        },
        Case {
            file: "raw_sobel.cl",
            kernel: "sobel_tiled",
            args: vec![
                Arg::Buffer(bytes(sw * sh, 7)),
                Arg::Buffer(vec![0; sw * sh]),
                int(sw),
                int(sh),
                int(0),
                int(sh),
            ],
            global: [sw as u64, sh as u64],
            local: [16, 16],
        },
        Case {
            file: "raw_zip_mult.cl",
            kernel: "multiply",
            args: vec![
                Arg::Buffer(floats(n, 1)),
                Arg::Buffer(floats(n, 2)),
                Arg::Buffer(vec![0; 4 * n]),
                int(n),
            ],
            global: [n as u64, 1],
            local: [256, 1],
        },
        Case {
            file: "raw_tree_reduce.cl",
            kernel: "reduce_sum",
            args: vec![
                Arg::Buffer(floats(n, 3)),
                Arg::Buffer(vec![0; 4 * reduce_groups]),
                int(n),
            ],
            global: [256 * reduce_groups as u64, 1],
            local: [256, 1],
        },
    ]
}

/// `case`'s buffers in a fresh memory, and its entry frame.
fn prepare(program: &Program, case: &Case) -> (HostMemory, EntryFrame) {
    let info = program.kernel(case.kernel).expect("corpus kernel exists");
    let mut mem = HostMemory::new();
    let args: Vec<Value> = case
        .args
        .iter()
        .map(|a| match a {
            Arg::Buffer(b) => Value::Ptr(Ptr {
                space: AddressSpace::Global,
                buffer: mem.add_buffer(b.clone()),
                byte_offset: 0,
            }),
            Arg::Scalar(v) => *v,
        })
        .collect();
    let entry = EntryFrame::new(program, info, &args);
    (mem, entry)
}

/// Runs every group of `case`'s launch once on `group`, group after
/// group; the summed stats.
fn launch(case: &Case, entry: &EntryFrame, mem: &HostMemory, group: &mut WorkGroup) -> GroupStats {
    let info = entry
        .program()
        .kernel(case.kernel)
        .expect("corpus kernel exists");
    let mut local = vec![0u8; info.static_local_bytes as usize];
    let groups = [0, 1].map(|d| case.global[d] / case.local[d]);
    let mut total = GroupStats::default();
    for gy in 0..groups[1] {
        for gx in 0..groups[0] {
            let geometry = ItemGeometry {
                work_dim: 2,
                global_id: [0; 3],
                local_id: [0; 3],
                group_id: [gx, gy, 0],
                global_size: [case.global[0], case.global[1], 1],
                local_size: [case.local[0], case.local[1], 1],
                num_groups: [groups[0], groups[1], 1],
            };
            group.arm(geometry, u64::MAX);
            while let Exit::Barrier(_) = group.run(entry, mem, &mut local).expect("kernel runs") {}
            total.merge(&group.stats);
        }
    }
    total
}

fn main() {
    let reps: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("reps is a number"))
        .unwrap_or(20)
        .max(1);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    println!("lane_prof: one WorkGroup over HostMemory, median of {reps} launches");
    println!(
        "{:<20} {:>12} {:>12} {:>8} {:>10} {:>10}",
        "kernel", "lane-ops", "group steps", "util", "ns/lane-op", "ms/launch"
    );
    let mut group = WorkGroup::default();
    for case in cases() {
        let path = dir.join(case.file);
        let source =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let program = skelcl_kernel::compile(case.file, &source)
            .unwrap_or_else(|e| panic!("{}: {e}", case.file));
        let (mem, entry) = prepare(&program, &case);
        let mut ms = Vec::with_capacity(reps);
        let mut stats = GroupStats::default();
        for _ in 0..reps {
            let start = Instant::now();
            stats = launch(&case, &entry, &mem, &mut group);
            ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        ms.sort_by(f64::total_cmp);
        let median = ms[ms.len() / 2];
        println!(
            "{:<20} {:>12} {:>12} {:>8.3} {:>10.2} {:>10.2}",
            case.kernel,
            stats.lane_steps,
            stats.steps,
            stats.lane_steps as f64 / stats.lane_slots as f64,
            median * 1e6 / stats.lane_steps as f64,
            median,
        );
    }
}
