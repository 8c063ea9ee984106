//! # skelcl-kernel — compiler and VM for SkelCL C
//!
//! SkelCL customizes its algorithmic skeletons with user functions written
//! as plain OpenCL-C source strings, welded into complete kernels at runtime
//! and compiled by the OpenCL driver. This crate is that driver's compiler
//! for the reproduction: a lexer, parser, type checker, optimizing
//! mid-level IR, bytecode generator and work-item virtual machine for **SkelCL C**, a
//! subset of OpenCL C.
//!
//! ## Language subset
//!
//! * scalar types `bool`..`double`, pointers-to-scalar with `__global` /
//!   `__local` address spaces (unqualified pointers act like OpenCL 2.0
//!   generic pointers);
//! * functions, `if`/`for`/`while`/`do-while`, `break`/`continue`/`return`;
//! * full C expression grammar (assignments, ternary, casts, pointer
//!   arithmetic, increments);
//! * `__local` arrays with compile-time sizes, `barrier()`,
//!   work-item queries, and the common math builtins;
//! * **not** supported: structs, vector types (`float4`), pointer-to-pointer,
//!   recursion, private arrays, and `goto` — none of which SkelCL-generated
//!   kernels need.
//!
//! ## Example
//!
//! ```
//! use skelcl_kernel::{compile, vm::{HostMemory, ItemGeometry, WorkItem}};
//! use skelcl_kernel::value::{Ptr, Value};
//! use skelcl_kernel::types::AddressSpace;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = compile(
//!     "neg.cl",
//!     "float func(float x) { return -x; }
//!      __kernel void map(__global const float* in, __global float* out) {
//!          int i = (int)get_global_id(0);
//!          out[i] = func(in[i]);
//!      }",
//! )?;
//! let kernel = program.kernel("map").expect("kernel exists");
//!
//! let mut mem = HostMemory::new();
//! let input = mem.add_buffer(4.0f32.to_le_bytes().to_vec());
//! let output = mem.add_buffer(vec![0u8; 4]);
//! let args = [
//!     Value::Ptr(Ptr { space: AddressSpace::Global, buffer: input, byte_offset: 0 }),
//!     Value::Ptr(Ptr { space: AddressSpace::Global, buffer: output, byte_offset: 0 }),
//! ];
//! let mut item = WorkItem::new(&program, kernel.func, &args, ItemGeometry::single());
//! item.run(&mem, &mut [])?;
//! assert_eq!(mem.bytes(output), (-4.0f32).to_le_bytes());
//! # Ok(())
//! # }
//! ```
//!
//! The multi-device execution engine (work-group scheduling, cost model,
//! profiling) lives in the `vgpu` crate; the skeletons and containers live
//! in the `skelcl` crate.

#![warn(missing_docs)]

pub mod ast;
pub mod builtins;
pub mod cfg;
mod decode;
pub mod diag;
pub mod hir;
pub mod inline;
pub mod ir;
pub mod lexer;
pub mod lower;
pub mod mir;
pub mod parser;
pub mod passes;
pub mod pretty;
pub mod program;
pub mod sema;
pub mod source;
pub mod token;
pub mod types;
pub mod value;
pub mod vm;

use std::fmt;

pub use passes::{MirDump, OptConfig};
pub use program::Program;
pub use source::SourceFile;

/// A failed compilation: the diagnostics plus their rendered build log.
#[derive(Debug, Clone)]
pub struct CompileError {
    /// The structured diagnostics.
    pub diagnostics: Vec<diag::Diagnostic>,
    /// The full build log, rendered against the source.
    pub log: String,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.log)
    }
}

impl std::error::Error for CompileError {}

/// Compiles SkelCL C source into an executable [`Program`].
///
/// `name` is the file name used in diagnostics (kernels are generated
/// in-memory, so this is typically a synthetic name like `"map.cl"`).
///
/// The optimization passes are selected by the `SKELCL_KERNEL_OPT`
/// environment variable and `SKELCL_KERNEL_DUMP=mir|mir-opt` prints the
/// mid-level IR before/after optimization to stderr (see
/// [`OptConfig::from_env`]); use [`compile_with_config`] to pick both
/// programmatically.
///
/// # Errors
///
/// Returns a [`CompileError`] with a rendered build log when the source has
/// lexical, syntactic or semantic errors.
pub fn compile(name: &str, source: &str) -> Result<Program, CompileError> {
    compile_with_config(name, source, &OptConfig::from_env())
}

/// Compiles with an explicit configuration; reads no environment.
///
/// The source is lowered through the MIR, the enabled passes run, and
/// bytecode is emitted through the register-allocating scheduler in
/// [`lower`]. All configurations produce bit-identical buffer results;
/// [`OptConfig::none`] is the oracle the differential tests compare the
/// others against.
///
/// # Errors
///
/// Returns a [`CompileError`] with a rendered build log when the source has
/// lexical, syntactic or semantic errors.
pub fn compile_with_config(
    name: &str,
    source: &str,
    cfg: &OptConfig,
) -> Result<Program, CompileError> {
    let mut unit = check(name, source)?;
    inline::inline_unit(&mut unit);
    let mut mir = mir::lower_unit(&unit);
    if cfg.dump == Some(MirDump::Lowered) {
        eprintln!("{}", pretty::mir_unit_to_string(&mir));
    }
    passes::run(&mut mir, cfg);
    if cfg.dump == Some(MirDump::Optimized) {
        eprintln!("{}", pretty::mir_unit_to_string(&mir));
    }
    Ok(lower::emit_unit(&mir, &unit, name))
}

/// Parses and type-checks `source` without generating code — used by SkelCL
/// to validate user-provided customizing functions early and to inspect
/// their signatures.
///
/// # Errors
///
/// Returns a [`CompileError`] when the source does not type-check.
pub fn check(name: &str, source: &str) -> Result<hir::Unit, CompileError> {
    let file = SourceFile::new(name, source);
    let mut diags = diag::Diagnostics::new();
    let tu = parser::parse(&file, &mut diags);
    let unit = if diags.has_errors() {
        None
    } else {
        sema::analyze(&tu, &mut diags)
    };
    unit.ok_or_else(|| {
        let log = diags.render(&file);
        CompileError {
            diagnostics: diags.into_vec(),
            log,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_reports_errors_with_log() {
        let err = compile("bad.cl", "float f(){ return x; }").unwrap_err();
        assert!(err.log.contains("undeclared identifier"));
        assert!(!err.diagnostics.is_empty());
        assert!(err.to_string().contains("bad.cl"));
    }

    #[test]
    fn check_returns_typed_unit() {
        let unit = check("ok.cl", "float func(float x){ return -x; }").unwrap();
        let (_, f) = unit.function("func").unwrap();
        assert_eq!(f.return_type, types::Type::scalar(types::ScalarType::Float));
    }

    #[test]
    fn compile_folds_constants() {
        let p = compile("fold.cl", "int f(){ return 16 * 16; }").unwrap();
        let code = &p.functions()[0].code;
        assert_eq!(code.len(), 2, "folded to const+return: {:?}", code);
    }
}
