//! End-to-end benchmark of the SkelCL reproduction.
//!
//! ```text
//! skelcl-e2e run --workload <name> --seed <u64> [--seconds <n>] [--trace [0|1]]
//!                [--out <file.jsonl>]
//! skelcl-e2e quick [--seed <u64>]
//! skelcl-e2e compare <a.jsonl> <b.jsonl>
//! ```
//!
//! `run` drives one workload in this single-threaded process (the
//! library's queue and pool threads are the system under test), checks
//! every result, prints every metric by name with its unit, and ends with
//! one JSON line: `correct`, `attempted`, `failed`, `metrics`. It exits
//! non-zero if any result was wrong. See `README.md` beside this crate.

mod analyze;
mod bench;
mod compare;
mod gen;
mod kernels;
mod layers;
mod metrics;
mod raw;
mod stats;
mod sysinfo;
mod trace;
mod workloads;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use skelcl_profile::json::Json;

use bench::{RunConfig, RunResult, TRACE_FILE_ITERATIONS};
use metrics::{MetricDef, END_TO_END, PER_LAYER};

/// Seed of the reference numbers in the README.
const DEFAULT_SEED: u64 = 20130901;

const USAGE: &str = "usage:
  skelcl-e2e run --workload <name> --seed <u64> [--seconds <n>] [--trace [0|1]]
                 [--out <file.jsonl>]
  skelcl-e2e quick [--seed <u64>]
  skelcl-e2e compare <a.jsonl> <b.jsonl>
workloads: mandelbrot sobel dot stream_pipeline small_calls compile_cold";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|(cfg, out)| run(&cfg, out)),
        Some("quick") => parse_seed(&args[1..]).and_then(quick),
        Some("compare") if args.len() == 3 => compare(&args[1], &args[2]),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

/// The value following the flag at `args[*i]`.
fn value_of<'a>(args: &'a [String], i: &mut usize) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| format!("{} needs a value\n{USAGE}", args[*i - 1]))
}

fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: `{text}` is not a valid number\n{USAGE}"))
}

fn parse_run(args: &[String]) -> Result<(RunConfig, Option<PathBuf>), String> {
    let mut cfg = RunConfig {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 15.0,
        trace: false,
        quick: false,
    };
    let mut out = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => cfg.workload = value_of(args, &mut i)?.to_string(),
            "--seed" => cfg.seed = number("--seed", value_of(args, &mut i)?)?,
            "--seconds" => cfg.seconds = number("--seconds", value_of(args, &mut i)?)?,
            "--out" => out = Some(PathBuf::from(value_of(args, &mut i)?)),
            // `--trace` alone turns tracing on; `--trace 0|1` says which.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => (cfg.trace, i) = (false, i + 1),
                Some("1") => (cfg.trace, i) = (true, i + 1),
                _ => cfg.trace = true,
            },
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
        i += 1;
    }
    if !workloads::NAMES.contains(&cfg.workload.as_str()) {
        return Err(format!("unknown workload `{}`\n{USAGE}", cfg.workload));
    }
    if !(cfg.seconds >= 0.0 && cfg.seconds <= 600.0) {
        return Err(format!("--seconds must be between 0 and 600\n{USAGE}"));
    }
    Ok((cfg, out))
}

fn parse_seed(args: &[String]) -> Result<u64, String> {
    match args {
        [] => Ok(DEFAULT_SEED),
        [flag, seed] if flag == "--seed" => number("--seed", seed),
        _ => Err(USAGE.to_string()),
    }
}

/// Where traces and result records go: `out/` beside this crate's
/// manifest, in whichever checkout the binary was built from.
fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest).join("out")
}

/// The full record of a run: what was measured, on what, under which
/// settings.
fn record(cfg: &RunConfig, result: &RunResult, defs: &[MetricDef]) -> Json {
    Json::obj([
        ("workload", Json::from(cfg.workload.as_str())),
        ("seed", Json::Str(cfg.seed.to_string())),
        ("trace", Json::Num(f64::from(u8::from(cfg.trace)))),
        ("seconds", Json::Num(cfg.seconds)),
        ("iterations", Json::from(result.iterations)),
        ("correct", Json::Bool(result.correct())),
        ("attempted", Json::from(result.attempted)),
        ("failed", Json::from(result.failed)),
        ("nproc", Json::from(sysinfo::nproc())),
        ("rustc", Json::from(sysinfo::rustc_version())),
        ("git_commit", Json::from(sysinfo::git_commit())),
        (
            "skelcl_env",
            Json::Obj(
                sysinfo::skelcl_env()
                    .into_iter()
                    .map(|(k, v)| (k, Json::Str(v)))
                    .collect(),
            ),
        ),
        ("metrics", result.metrics.to_json(defs)),
    ])
}

fn write_files(cfg: &RunConfig, result: &RunResult, record: &Json) -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let stem = format!(
        "{}-{}",
        cfg.workload,
        if cfg.trace { "traced" } else { "untraced" }
    );
    std::fs::write(dir.join(format!("{stem}.result.json")), record.to_json())?;
    if cfg.trace {
        let trace = trace::to_json(&result.spans, &result.commands, TRACE_FILE_ITERATIONS);
        std::fs::write(dir.join(format!("{stem}.trace.json")), trace.to_json())?;
    }
    Ok(())
}

fn run(cfg: &RunConfig, out: Option<PathBuf>) -> Result<bool, String> {
    let result = bench::run(cfg)?;
    let defs = if cfg.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    println!(
        "workload {} seed {} trace {} iterations {} (nproc {})",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace),
        result.iterations,
        sysinfo::nproc()
    );
    print!("{}", result.metrics.table(defs));
    for problem in &result.problems {
        eprintln!("FAILED {problem}");
    }

    let record = record(cfg, &result, defs);
    if let Err(e) = write_files(cfg, &result, &record) {
        eprintln!("could not write under {}: {e}", out_dir().display());
    }
    if let Some(path) = out {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| writeln!(f, "{}", record.to_json()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let last_line = Json::obj([
        ("correct", Json::Bool(result.correct())),
        ("attempted", Json::from(result.attempted)),
        ("failed", Json::from(result.failed)),
        ("metrics", result.metrics.to_json(defs)),
    ]);
    println!("{}", last_line.to_json());
    Ok(result.correct())
}

/// Smoke test: five iterations of every workload, untraced then traced.
fn quick(seed: u64) -> Result<bool, String> {
    let mut all_correct = true;
    for workload in workloads::NAMES {
        for trace in [false, true] {
            let result = bench::run(&RunConfig {
                workload: workload.to_string(),
                seed,
                seconds: 0.0,
                trace,
                quick: true,
            })?;
            let headline = if trace {
                "trace.residual_share"
            } else {
                "iter_ms_p50"
            };
            println!(
                "{:<16} trace {} {:>4}/{:<4} ok   {headline} {:.4}",
                workload,
                u8::from(trace),
                result.attempted - result.failed,
                result.attempted,
                result.metrics.get(headline).unwrap_or(0.0),
            );
            for problem in &result.problems {
                eprintln!("FAILED {workload}: {problem}");
            }
            all_correct &= result.correct();
        }
    }
    Ok(all_correct)
}

fn compare(a: &str, b: &str) -> Result<bool, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| compare::parse_runs(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (table, worse) = compare::table(&read(a)?, &read(b)?);
    print!("{table}");
    println!("{worse} worse");
    Ok(worse == 0)
}
