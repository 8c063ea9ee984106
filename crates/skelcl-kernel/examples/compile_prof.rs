//! Per-layer ledger of the kernel compiler over the checked-in corpus
//! (`tests/corpus/*.cl`: the seven welded skeleton kernels and the six raw
//! benchmark kernels).
//!
//! Compiles every corpus kernel `reps` times with the full pipeline and
//! prints, per set of kernels, the median host time of each compile stage
//! and each MIR pass (from [`skelcl_kernel::CompileStats`]), plus the MIR
//! sizes the passes work on.
//!
//! ```text
//! cargo run --release -p skelcl-kernel --example compile_prof -- [reps]
//! ```

use std::time::{Duration, Instant};

use skelcl_kernel::{compile_with_config, CompileStats, MirSize, OptConfig, PASS_NAMES};

/// Microseconds per set of one compile measurement, medians over the runs.
#[derive(Default)]
struct Samples {
    rows: Vec<(String, Vec<f64>)>,
}

impl Samples {
    fn push(&mut self, row: usize, name: &str, d: Duration) {
        if self.rows.len() <= row {
            self.rows.push((name.to_string(), Vec::new()));
        }
        self.rows[row].1.push(d.as_secs_f64() * 1e6);
    }

    fn medians(&self) -> Vec<(String, f64)> {
        self.rows
            .iter()
            .map(|(name, v)| {
                let mut v = v.clone();
                v.sort_by(f64::total_cmp);
                (name.clone(), v[v.len() / 2])
            })
            .collect()
    }
}

fn corpus() -> Vec<(String, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut files: Vec<(String, String)> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("readable corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "cl"))
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let source = std::fs::read_to_string(&p).expect("readable corpus file");
            (name, source)
        })
        .collect();
    files.sort();
    files
}

/// Compiles `set` once, returning per-row durations summed over the set,
/// plus the MIR sizes.
fn compile_set(
    set: &[(String, String)],
    cfg: &OptConfig,
) -> (Vec<(String, Duration)>, MirSize, MirSize) {
    let mut sum = CompileStats::default();
    let (mut mir_in, mut mir_out) = (MirSize::default(), MirSize::default());
    let mut wall = Duration::ZERO;
    for (name, source) in set {
        let start = Instant::now();
        let program = compile_with_config(name, source, cfg).expect("corpus kernels compile");
        wall += start.elapsed();
        let s = program.compile_stats();
        sum.parse += s.parse;
        sum.sema += s.sema;
        sum.inline += s.inline;
        sum.mir_lower += s.mir_lower;
        sum.passes += s.passes;
        sum.emit += s.emit;
        for (total, d) in sum.pass.iter_mut().zip(s.pass) {
            *total += d;
        }
        for (total, size) in [(&mut mir_in, s.mir_in), (&mut mir_out, s.mir_out)] {
            total.functions += size.functions;
            total.blocks += size.blocks;
            total.insts += size.insts;
            total.slots += size.slots;
            total.vregs += size.vregs;
        }
    }
    let mut rows: Vec<(String, Duration)> = Vec::new();
    for (stage, d) in sum.stages() {
        let stage = stage.trim_start_matches("kernel.").trim_end_matches("_us");
        rows.push((stage.to_string(), d));
        if stage == "passes" {
            for (pass, d) in PASS_NAMES.iter().zip(sum.pass) {
                rows.push((format!("  {pass}"), d));
            }
        }
    }
    rows.push(("Σ stages".into(), sum.total()));
    rows.push(("compile (wall)".into(), wall));
    (rows, mir_in, mir_out)
}

fn main() {
    let reps: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("reps is a positive integer"))
        .unwrap_or(300);
    assert!(reps > 0, "reps is a positive integer");
    let corpus = corpus();
    let (welded, raw): (Vec<_>, Vec<_>) = corpus
        .into_iter()
        .partition(|(n, _)| n.starts_with("skelcl_"));
    let cfg = OptConfig::all();
    let sets = [("welded", &welded), ("raw", &raw)];
    let mut samples: Vec<Samples> = sets.iter().map(|_| Samples::default()).collect();
    let mut sizes = Vec::new();
    // One untimed round warms caches and the allocator.
    for (_, set) in &sets {
        compile_set(set, &cfg);
    }
    for _ in 0..reps {
        for ((_, set), samples) in sets.iter().zip(&mut samples) {
            let (rows, mir_in, mir_out) = compile_set(set, &cfg);
            for (i, (name, d)) in rows.iter().enumerate() {
                samples.push(i, name, *d);
            }
            if sizes.len() < sets.len() {
                sizes.push((mir_in, mir_out));
            }
        }
    }

    println!("compile_prof: median µs per set over {reps} repetitions (OptConfig::all())");
    print!("{:<16}", "stage");
    for (label, set) in &sets {
        print!("{:>14}", format!("{label} ({})", set.len()));
    }
    println!();
    let medians: Vec<Vec<(String, f64)>> = samples.iter().map(Samples::medians).collect();
    for row in 0..medians[0].len() {
        print!("{:<16}", medians[0][row].0);
        for m in &medians {
            print!("{:>14.1}", m[row].1);
        }
        println!();
    }
    println!();
    println!("MIR size per set (lowered -> optimized)");
    for ((label, _), (mir_in, mir_out)) in sets.iter().zip(&sizes) {
        println!(
            "{label:<8} functions {} blocks {} -> {} insts {} -> {} slots {} vregs {} -> {}",
            mir_in.functions,
            mir_in.blocks,
            mir_out.blocks,
            mir_in.insts,
            mir_out.insts,
            mir_in.slots,
            mir_in.vregs,
            mir_out.vregs
        );
    }
    for ((label, _), (m, (mir_in, _))) in sets.iter().zip(medians.iter().zip(&sizes)) {
        let passes = m.iter().find(|(n, _)| n == "passes").map_or(0.0, |r| r.1);
        println!(
            "{label:<8} pass time per lowered MIR instruction: {:.3} µs",
            passes / mir_in.insts as f64
        );
    }
}
