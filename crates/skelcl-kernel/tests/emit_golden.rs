//! Golden emitted code for the checked-in kernel corpus.
//!
//! `tests/corpus/` holds the seven welded kernels one construction of each
//! skeleton template compiles (`skelcl_*.cl`) and the hand-written raw
//! kernels of the end-to-end benchmark (`raw_*.cl`). For every file and for
//! both the full pipeline and the pass-free oracle this renders every
//! function's bytecode, its `decode_stats`, the kernel launch metadata and
//! the optimized MIR, and compares the text against `<file>.golden`. Any
//! change to what the compiler emits — a pass deciding differently, a
//! different block order, one more spill — shows up here as the first
//! differing line.
//!
//! After an intentional change to the emitted code, regenerate with
//! `cargo test -p skelcl-kernel --test emit_golden -- --ignored`.

use std::fmt::Write;
use std::path::{Path, PathBuf};

use skelcl_kernel::{compile_with_config, OptConfig, SourceFile};
use skelcl_kernel::{diag::Diagnostics, inline, mir, parser, passes, pretty, sema};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// The corpus kernels, sorted by file name.
fn corpus() -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
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

fn optimized_mir(name: &str, source: &str, cfg: &OptConfig) -> String {
    let file = SourceFile::new(name, source);
    let mut diags = Diagnostics::new();
    let tu = parser::parse(&file, &mut diags);
    let mut unit = sema::analyze(&tu, &mut diags).expect("corpus kernels type-check");
    inline::inline_unit(&mut unit);
    let mut m = mir::lower_unit(&unit);
    passes::run(&mut m, cfg);
    pretty::mir_unit_to_string(&m)
}

/// Everything the compiler emits for one corpus file.
fn render(name: &str, source: &str) -> String {
    let mut out = String::new();
    for (label, cfg) in [("all", OptConfig::all()), ("none", OptConfig::none())] {
        let program = compile_with_config(name, source, &cfg)
            .unwrap_or_else(|e| panic!("{name} compiles: {e}"));
        writeln!(out, "# {name} · OptConfig::{label}()").unwrap();
        for k in program.kernels() {
            writeln!(out, "kernel {k:?}").unwrap();
        }
        for (i, f) in program.functions().iter().enumerate() {
            let (ops, dispatches) = program.decode_stats(i);
            writeln!(out, "decode_stats f{i}: ops={ops} dispatches={dispatches}").unwrap();
            out.push_str(&f.disassemble());
        }
        writeln!(out, "## optimized MIR").unwrap();
        out.push_str(&optimized_mir(name, source, &cfg));
    }
    out
}

fn golden_path(name: &str) -> PathBuf {
    corpus_dir().join(format!("{name}.golden"))
}

#[test]
fn corpus_emits_golden_code() {
    let corpus = corpus();
    assert_eq!(corpus.len(), 13, "seven welded and six raw kernels");
    let mut failures = Vec::new();
    for (name, source) in &corpus {
        let got = render(name, source);
        let want = std::fs::read_to_string(golden_path(name))
            .unwrap_or_else(|e| panic!("{name}.golden: {e}"));
        if got == want {
            continue;
        }
        let (line, (g, w)) = got
            .lines()
            .chain(std::iter::repeat("<end of output>"))
            .zip(want.lines().chain(std::iter::repeat("<end of golden>")))
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .expect("texts differ somewhere");
        failures.push(format!(
            "{name}.golden line {}:\n  golden: {w}\n  got:    {g}",
            line + 1
        ));
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Rewrites every `.golden` file from the current compiler.
#[test]
#[ignore = "regenerates the goldens; run only after an intended change"]
fn regenerate_goldens() {
    for (name, source) in corpus() {
        std::fs::write(golden_path(&name), render(&name, &source)).expect("writable corpus dir");
    }
}
