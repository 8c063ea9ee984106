//! Golden transfer behaviour of the containers' coherence protocol.
//!
//! A fixed corpus of container sequences on 1–4 devices — first upload
//! and cache hit, `Block`/`Copy`/`Overlap`/`Single` changes through
//! `set_distribution`, scheduler shifts that take the delta path, ranged
//! reads and writes on stale and fresh host copies, `with_slice_mut` and
//! `assign` invalidation, matrix rows as units, and a streamed region
//! reading its input's host units under a small device budget. For every
//! step the test records
//!
//! * the coherence counters the step moved (`transfer.*`,
//!   `redistribution.count`, `sched.*`, `bytes.*`);
//! * per device, the transfer commands the step issued (kind and bytes)
//!   in simulated start order;
//! * the container's `distribution()`;
//! * the contents after the step. Reading them would itself move data,
//!   so they come from a replay of the sequence up to that step on a fresh
//!   context, followed by `to_vec`.
//!
//! The text is compared against `tests/coherence.golden`, and a mismatch
//! names the first differing line. Every field is deterministic: three
//! runs produce the same text, so nothing had to be left out.
//!
//! After an intended change to the transfer protocol, regenerate with
//! `cargo test -p skelcl --test coherence_golden -- --ignored`.

use std::fmt::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};

use skelcl::profile::{Lane, SpanKind};
use skelcl::{Config, Context, DeviceSelection, Distribution, Map, Matrix, SchedulePolicy, Vector};
use vgpu::{DeviceSpec, Platform};

const BLOCK: Distribution = Distribution::Block;
const COPY: Distribution = Distribution::Copy;

/// One operation on the sequence's container.
#[derive(Debug, Clone)]
enum Step {
    Prefetch(Distribution),
    SetDist(Distribution),
    ToVec,
    /// Element `i` in row-major order.
    Get(usize),
    /// Units (elements or rows).
    Read(Range<usize>),
    /// Units, overwritten with `1000 + k` for the range's k-th element.
    Write(Range<usize>),
    /// `h[i] = -h[i] - 1` through `with_slice_mut`.
    SliceMut(usize),
    /// Vector only: `assign` the contents reversed.
    Assign,
    /// Vector only: the container becomes `2x + 1` of itself, computed by
    /// a `Map` (streamed under a device budget).
    MapCall,
    /// `mark_device_modified`: the device copy becomes the only fresh one.
    Modified,
    /// Adaptive scheduling fed with `(device, units, busy_ns)` samples.
    Shift(&'static [(usize, usize, u64)]),
}

use Step::*;

enum Shape {
    Vec(usize),
    Mat(usize, usize),
}

struct Sequence {
    name: &'static str,
    devices: usize,
    budget: Option<usize>,
    shape: Shape,
    steps: Vec<Step>,
}

fn seq(name: &'static str, devices: usize, shape: Shape, steps: Vec<Step>) -> Sequence {
    Sequence {
        name,
        devices,
        budget: None,
        shape,
        steps,
    }
}

fn corpus() -> Vec<Sequence> {
    use Shape::{Mat, Vec as V};
    let overlap = |size| Distribution::Overlap { size };
    vec![
        seq(
            "first_upload_then_cache_hit",
            2,
            V(10),
            vec![Prefetch(BLOCK), Prefetch(BLOCK), ToVec],
        ),
        seq(
            "block_to_copy_from_device",
            3,
            V(12),
            vec![
                Prefetch(BLOCK),
                Modified,
                SetDist(COPY),
                Prefetch(COPY),
                Modified,
                ToVec,
            ],
        ),
        seq(
            "copy_reads_first_chunk",
            4,
            V(9),
            vec![Prefetch(COPY), Modified, Read(2..7), Get(8), ToVec],
        ),
        seq(
            "overlap_write_patches_halos",
            3,
            V(14),
            vec![
                Prefetch(overlap(2)),
                Write(3..6),
                Modified,
                Read(0..14),
                SetDist(BLOCK),
                Prefetch(BLOCK),
                ToVec,
            ],
        ),
        seq(
            "single_then_block",
            4,
            V(8),
            vec![
                SetDist(Distribution::Single(2)),
                Prefetch(Distribution::Single(2)),
                Modified,
                Get(5),
                SetDist(BLOCK),
                Prefetch(BLOCK),
                Modified,
                ToVec,
            ],
        ),
        seq(
            "scheduler_shift_block_delta",
            2,
            V(100),
            vec![
                Prefetch(BLOCK),
                Modified,
                Shift(&[(0, 300, 100), (1, 100, 100)]),
                Prefetch(BLOCK),
                Read(70..80),
                ToVec,
            ],
        ),
        seq(
            "scheduler_shift_overlap_delta",
            4,
            V(40),
            vec![
                Prefetch(overlap(1)),
                Modified,
                Shift(&[(0, 100, 100), (1, 200, 100), (2, 300, 100), (3, 400, 100)]),
                Prefetch(overlap(1)),
                Write(9..12),
                Read(5..30),
                ToVec,
            ],
        ),
        seq(
            "partial_reads_stale_and_fresh",
            2,
            V(20),
            vec![
                Prefetch(BLOCK),
                Read(5..15),
                Modified,
                Read(5..15),
                Read(9..11),
                Read(12..12),
                ToVec,
                Read(0..20),
            ],
        ),
        seq(
            "partial_writes_stale_and_fresh",
            3,
            V(15),
            vec![
                Write(0..3),
                Prefetch(BLOCK),
                Write(4..6),
                Modified,
                Write(10..15),
                Read(0..15),
                Prefetch(BLOCK),
                ToVec,
            ],
        ),
        seq(
            "slice_mut_invalidates_device",
            2,
            V(10),
            vec![
                Prefetch(BLOCK),
                Modified,
                SliceMut(3),
                Prefetch(BLOCK),
                Modified,
                ToVec,
            ],
        ),
        seq(
            "assign_invalidates_device",
            2,
            V(10),
            vec![
                Prefetch(COPY),
                Assign,
                Prefetch(COPY),
                SetDist(BLOCK),
                Write(0..2),
                ToVec,
            ],
        ),
        seq(
            "map_output_lives_on_device",
            2,
            V(16),
            vec![
                MapCall,
                Read(3..9),
                MapCall,
                SetDist(COPY),
                Prefetch(COPY),
                MapCall,
                ToVec,
            ],
        ),
        seq(
            "matrix_rows_block_and_overlap",
            3,
            Mat(7, 3),
            vec![
                Prefetch(BLOCK),
                Modified,
                Read(2..5),
                Write(1..3),
                Get(20),
                SetDist(overlap(1)),
                Prefetch(overlap(1)),
                Modified,
                ToVec,
            ],
        ),
        seq(
            "matrix_rows_scheduler_shift",
            2,
            Mat(10, 4),
            vec![
                Prefetch(overlap(1)),
                Modified,
                Shift(&[(0, 100, 100), (1, 300, 100)]),
                Prefetch(overlap(1)),
                SliceMut(17),
                Prefetch(BLOCK),
                Modified,
                Read(0..10),
            ],
        ),
        Sequence {
            budget: Some(2048),
            ..seq(
                "streamed_region_reads_host_units",
                2,
                V(1024),
                vec![
                    Prefetch(BLOCK),
                    Modified,
                    MapCall,
                    ToVec,
                    MapCall,
                    Read(500..530),
                ],
            )
        },
    ]
}

enum Container {
    Vec(Vector<f32>),
    Mat(Matrix<f32>),
}

/// One run of a sequence: its context, container and `Map`.
struct Run {
    ctx: Context,
    c: Container,
    map: Map<f32, f32>,
}

impl Run {
    fn new(s: &Sequence) -> Run {
        let ctx = Context::init_with_config(
            Platform::new(s.devices, DeviceSpec::tesla_t10()),
            DeviceSelection::All,
            Config {
                profile: true,
                device_budget: s.budget,
                ..Config::default()
            },
        );
        let c = match s.shape {
            Shape::Vec(n) => Container::Vec(Vector::from_fn(&ctx, n, |i| i as f32)),
            Shape::Mat(r, cols) => {
                Container::Mat(Matrix::from_fn(&ctx, r, cols, |i, j| (i * cols + j) as f32))
            }
        };
        let map = Map::new(
            &ctx,
            "float twice_plus_one(float x){ return 2.0f * x + 1.0f; }",
        )
        .expect("map compiles");
        Run { ctx, c, map }
    }

    fn unit_elems(&self) -> usize {
        match &self.c {
            Container::Vec(_) => 1,
            Container::Mat(m) => m.cols(),
        }
    }

    /// Applies `step` and returns what it read, if anything.
    fn apply(&mut self, step: &Step) -> Option<Vec<f32>> {
        let ue = self.unit_elems();
        match (&self.c, step) {
            (Container::Vec(v), Prefetch(d)) => v.prefetch(*d).unwrap(),
            (Container::Mat(m), Prefetch(d)) => m.prefetch(*d).unwrap(),
            (Container::Vec(v), SetDist(d)) => v.set_distribution(*d).unwrap(),
            (Container::Mat(m), SetDist(d)) => m.set_distribution(*d).unwrap(),
            (Container::Vec(v), ToVec) => return Some(v.to_vec().unwrap()),
            (Container::Mat(m), ToVec) => return Some(m.to_vec().unwrap()),
            (Container::Vec(v), Get(i)) => return Some(vec![v.get(*i).unwrap()]),
            (Container::Mat(m), Get(i)) => return Some(vec![m.get(i / ue, i % ue).unwrap()]),
            (Container::Vec(v), Read(r)) => return Some(v.read_range(r.clone()).unwrap()),
            (Container::Mat(m), Read(r)) => return Some(m.read_rows(r.clone()).unwrap()),
            (c, Write(r)) => {
                let data: Vec<f32> = (0..r.len() * ue).map(|k| 1000.0 + k as f32).collect();
                match c {
                    Container::Vec(v) => v.write_range(r.clone(), &data).unwrap(),
                    Container::Mat(m) => m.write_rows(r.clone(), &data).unwrap(),
                }
            }
            (c, SliceMut(i)) => {
                let negate = |h: &mut [f32]| h[*i] = -h[*i] - 1.0;
                match c {
                    Container::Vec(v) => v.with_slice_mut(negate).unwrap(),
                    Container::Mat(m) => m.with_slice_mut(negate).unwrap(),
                }
            }
            (Container::Vec(v), Assign) => {
                let len = v.len();
                v.assign((0..len).rev().map(|i| i as f32).collect())
                    .unwrap();
            }
            (Container::Vec(v), MapCall) => {
                let out = self.map.call(v).unwrap();
                self.c = Container::Vec(out);
            }
            (Container::Vec(v), Modified) => v.mark_device_modified(),
            (Container::Mat(m), Modified) => m.mark_device_modified(),
            (_, Shift(samples)) => {
                let s = self.ctx.scheduler();
                s.set_policy(SchedulePolicy::Adaptive);
                for &(device, units, busy_ns) in *samples {
                    s.observe(device, units, busy_ns);
                }
            }
            (Container::Mat(_), Assign | MapCall) => panic!("{step:?} is a vector-only step"),
        }
        None
    }

    fn distribution(&self) -> Option<Distribution> {
        match &self.c {
            Container::Vec(v) => v.distribution(),
            Container::Mat(m) => m.distribution(),
        }
    }

    fn contents(&self) -> Vec<f32> {
        match &self.c {
            Container::Vec(v) => v.to_vec().unwrap(),
            Container::Mat(m) => m.to_vec().unwrap(),
        }
    }
}

/// Whether `counter` belongs to the coherence protocol.
fn coherence_counter(name: &str) -> bool {
    ["transfer.", "redistribution.", "sched.", "bytes."]
        .iter()
        .any(|p| name.starts_with(p))
}

/// Values in full for small containers, else the length and an FNV-1a
/// hash of the bit patterns.
fn render_values(values: &[f32]) -> String {
    if values.len() <= 32 {
        return format!("{values:?}");
    }
    let hash = values.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3)
    });
    format!("len {} fnv {hash:016x}", values.len())
}

fn render_sequence(s: &Sequence) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "# {} · {} device(s) · budget {:?}",
        s.name, s.devices, s.budget
    )
    .unwrap();
    let mut run = Run::new(s);
    let mut counters = std::collections::BTreeMap::new();
    let mut spans_seen = 0;
    for (k, step) in s.steps.iter().enumerate() {
        let read = run.apply(step);
        run.ctx.finish().unwrap();
        writeln!(out, "step {k}: {step:?}").unwrap();
        if let Some(values) = read {
            writeln!(out, "  read {}", render_values(&values)).unwrap();
        }
        let profiler = run.ctx.profiler();
        let snapshot = profiler.metrics_snapshot().expect("profiling is on");
        for (name, &value) in &snapshot.counters {
            let before = counters.insert(name.clone(), value).unwrap_or(0);
            if coherence_counter(name) && value != before {
                writeln!(out, "  counter {name} +{}", value - before).unwrap();
            }
        }
        let spans = profiler.spans();
        let mut by_device = std::collections::BTreeMap::<usize, Vec<_>>::new();
        for span in &spans[spans_seen..] {
            let kind = match span.kind {
                SpanKind::Upload => "write",
                SpanKind::Download => "read",
                SpanKind::Copy => "copy",
                _ => continue,
            };
            if let Lane::Device(d) = span.lane {
                let bytes = span.bytes.unwrap_or(0);
                by_device
                    .entry(d)
                    .or_default()
                    .push((span.start_ns, kind, bytes));
            }
        }
        spans_seen = spans.len();
        for (d, mut cmds) in by_device {
            cmds.sort_by_key(|&(start, _, _)| start);
            let list: Vec<String> = cmds.iter().map(|(_, k, b)| format!("{k} {b}")).collect();
            writeln!(out, "  gpu{d}: {}", list.join(", ")).unwrap();
        }
        writeln!(out, "  distribution {:?}", run.distribution()).unwrap();
        let mut replay = Run::new(s);
        for earlier in &s.steps[..=k] {
            replay.apply(earlier);
        }
        writeln!(out, "  contents {}", render_values(&replay.contents())).unwrap();
    }
    out
}

fn render() -> String {
    corpus().iter().map(render_sequence).collect()
}

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/coherence.golden")
}

#[test]
fn coherence_matches_golden() {
    let got = render();
    let want = std::fs::read_to_string(golden_path()).expect("tests/coherence.golden exists");
    if got == want {
        return;
    }
    let (line, (g, w)) = got
        .lines()
        .chain(std::iter::repeat("<end of output>"))
        .zip(want.lines().chain(std::iter::repeat("<end of golden>")))
        .enumerate()
        .find(|(_, (g, w))| g != w)
        .expect("texts differ somewhere");
    panic!(
        "coherence.golden line {}:\n  golden: {w}\n  got:    {g}",
        line + 1
    );
}

/// Rewrites `tests/coherence.golden` from the current protocol.
#[test]
#[ignore = "regenerates the golden; run only after an intended change"]
fn regenerate_golden() {
    std::fs::write(golden_path(), render()).expect("writable tests directory");
}
