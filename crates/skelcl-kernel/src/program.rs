//! Compiled programs: the output of [`crate::compile`], ready for the VM.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use crate::ir::FuncCode;
use crate::mir::MirUnit;
use crate::passes::PASS_NAMES;
use crate::types::ScalarType;

/// Where one [`crate::compile_with_config`] call spent its host time, and
/// how large the MIR was on either side of the pass pipeline. Every compile
/// fills one in (a few clock reads, no allocation); the `skelcl` runtime
/// attaches it to its `compile` span when profiling is on.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CompileStats {
    /// Lexing and parsing.
    pub parse: Duration,
    /// Type checking (HIR construction).
    pub sema: Duration,
    /// HIR inlining.
    pub inline: Duration,
    /// HIR → MIR lowering.
    pub mir_lower: Duration,
    /// The whole pass pipeline.
    pub passes: Duration,
    /// Time per pass, summed over functions and repeated runs, indexed like
    /// [`PASS_NAMES`].
    pub pass: [Duration; PASS_NAMES.len()],
    /// Bytecode emission and decoding.
    pub emit: Duration,
    /// MIR size as lowered.
    pub mir_in: MirSize,
    /// MIR size after the passes.
    pub mir_out: MirSize,
}

impl CompileStats {
    /// The stages in pipeline order, each with its `kernel.<stage>_us`
    /// metric name.
    pub fn stages(&self) -> [(&'static str, Duration); 6] {
        [
            ("kernel.parse_us", self.parse),
            ("kernel.sema_us", self.sema),
            ("kernel.inline_us", self.inline),
            ("kernel.mir_lower_us", self.mir_lower),
            ("kernel.passes_us", self.passes),
            ("kernel.emit_us", self.emit),
        ]
    }

    /// Σ of the stages.
    pub fn total(&self) -> Duration {
        self.stages().iter().map(|(_, d)| *d).sum()
    }
}

/// Size of a MIR unit: what the passes' cost scales with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MirSize {
    /// Functions.
    pub functions: u32,
    /// Basic blocks.
    pub blocks: u32,
    /// Instructions, terminators included.
    pub insts: u32,
    /// Local slots.
    pub slots: u32,
    /// Virtual registers allocated.
    pub vregs: u32,
}

impl MirSize {
    /// Measures `unit`.
    pub fn of(unit: &MirUnit) -> Self {
        let mut size = MirSize {
            functions: unit.functions.len() as u32,
            ..MirSize::default()
        };
        for f in &unit.functions {
            size.blocks += f.blocks.len() as u32;
            size.insts += f.inst_count() as u32;
            size.slots += f.local_init.len() as u32;
            size.vregs += f.vreg_count;
        }
        size
    }
}

/// The kind of one kernel parameter, as seen by the host when binding
/// arguments (mirrors `clSetKernelArg` usage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelParamKind {
    /// A `__global T*` argument: the host binds a device buffer.
    GlobalBuffer {
        /// Element type.
        elem: ScalarType,
        /// Whether the kernel only reads through it.
        is_const: bool,
    },
    /// A `__local T*` argument: the host passes a byte size; the runtime
    /// carves the range out of the work-group's local memory.
    LocalBuffer {
        /// Element type.
        elem: ScalarType,
    },
    /// A scalar argument passed by value.
    Scalar(ScalarType),
}

/// A kernel parameter (name + kind), in declaration order.
#[derive(Debug, Clone)]
pub struct KernelParam {
    /// Parameter name.
    pub name: String,
    /// How the host must bind it.
    pub kind: KernelParamKind,
}

/// Binding of a `__local` array declared in a kernel body to its offset in
/// the work-group's local-memory arena.
#[derive(Debug, Clone, Copy)]
pub struct LocalArrayBinding {
    /// Local slot of the array variable in the kernel's frame.
    pub slot: u16,
    /// Byte offset of the array within local memory.
    pub byte_offset: u32,
    /// Size of the array in bytes.
    pub byte_len: u32,
}

/// Launch metadata of one `__kernel` entry point.
#[derive(Debug, Clone)]
pub struct KernelInfo {
    /// Kernel name.
    pub name: String,
    /// Index of the kernel's [`FuncCode`] in the program.
    pub func: u16,
    /// Parameters in declaration order.
    pub params: Vec<KernelParam>,
    /// Statically declared `__local` arrays.
    pub local_arrays: Vec<LocalArrayBinding>,
    /// Total bytes of statically declared local memory.
    pub static_local_bytes: u32,
    /// Number of distinct barrier sites in code reachable from this kernel
    /// (0 means no lane of a launch ever waits for another).
    pub barrier_count: u32,
}

/// A compiled SkelCL C program: bytecode for every function plus kernel
/// launch metadata. Cheap to clone and share across devices.
#[derive(Debug, Clone)]
pub struct Program {
    inner: Arc<ProgramInner>,
}

#[derive(Debug)]
struct ProgramInner {
    functions: Vec<FuncCode>,
    /// Superinstruction stream per function, parallel to `functions` (see
    /// [`crate::decode`]); consumed by the optimised dispatch loop.
    decoded: Vec<Vec<crate::decode::Decoded>>,
    kernels: Vec<KernelInfo>,
    kernel_index: HashMap<String, usize>,
    source_name: String,
    stats: CompileStats,
}

impl Program {
    /// Assembles a program from compiled parts. Used by
    /// [`crate::compile`]; not typically called directly.
    pub fn from_parts(
        functions: Vec<FuncCode>,
        kernels: Vec<KernelInfo>,
        source_name: impl Into<String>,
    ) -> Self {
        let kernel_index = kernels
            .iter()
            .enumerate()
            .map(|(i, k)| (k.name.clone(), i))
            .collect();
        let decoded = functions
            .iter()
            .map(|f| crate::decode::decode(&f.code))
            .collect();
        Program {
            inner: Arc::new(ProgramInner {
                functions,
                decoded,
                kernels,
                kernel_index,
                source_name: source_name.into(),
                stats: CompileStats::default(),
            }),
        }
    }

    /// Attaches the compile's [`CompileStats`] to a freshly assembled
    /// program.
    pub(crate) fn with_stats(mut self, stats: CompileStats) -> Self {
        Arc::get_mut(&mut self.inner)
            .expect("a freshly assembled program has one handle")
            .stats = stats;
        self
    }

    /// Where compiling this program spent its time (all zero for a
    /// program assembled with [`Program::from_parts`]).
    pub fn compile_stats(&self) -> &CompileStats {
        &self.inner.stats
    }

    /// The pre-decoded superinstruction stream of function `func` (same
    /// `pc` indexing as its `code`; see [`crate::decode`]).
    pub(crate) fn decoded_fn(&self, func: usize) -> &[crate::decode::Decoded] {
        &self.inner.decoded[func]
    }

    /// All compiled functions, indexable by the ids in `Call` instructions.
    pub fn functions(&self) -> &[FuncCode] {
        &self.inner.functions
    }

    /// Static decode summary of function `func`: `(ops, dispatches)`,
    /// where `ops` is the bytecode length and `dispatches` is how many
    /// superinstruction heads cover it. Fusion never spans a jump target,
    /// so every op belongs to exactly one head and a linear scan is exact;
    /// fewer dispatches over the same source means longer fused chains in
    /// the interpreter's hot loop. Benchmarks use this to compare compile
    /// pipelines without running the kernel.
    pub fn decode_stats(&self, func: usize) -> (usize, usize) {
        let dec = &self.inner.decoded[func];
        let (mut pc, mut dispatches) = (0usize, 0usize);
        while pc < dec.len() {
            dispatches += 1;
            pc += dec[pc].cost() as usize;
        }
        (dec.len(), dispatches)
    }

    /// Whether two handles refer to the same compiled program (pointer
    /// identity, not structural equality). A recycled
    /// [`crate::vm::WorkItem`] uses it to keep the handle it already owns:
    /// rearming an item within one program reads two pointers and writes
    /// nothing shared.
    pub fn ptr_eq(a: &Program, b: &Program) -> bool {
        Arc::ptr_eq(&a.inner, &b.inner)
    }

    /// How many handles to this compiled program are alive (the `Arc`
    /// strong count). Cloning or dropping a handle is an atomic write to a
    /// count all host threads executing the program share, so the VM must
    /// not do either per work-item; tests read this mid-kernel to hold it
    /// to that.
    pub fn handle_count(&self) -> usize {
        Arc::strong_count(&self.inner)
    }

    /// All kernels in the program.
    pub fn kernels(&self) -> &[KernelInfo] {
        &self.inner.kernels
    }

    /// Looks up a kernel by name.
    pub fn kernel(&self, name: &str) -> Option<&KernelInfo> {
        self.inner
            .kernel_index
            .get(name)
            .map(|&i| &self.inner.kernels[i])
    }

    /// The name of the source file the program was compiled from.
    pub fn source_name(&self) -> &str {
        &self.inner.source_name
    }

    /// Disassembles every function (testing/debugging aid).
    pub fn disassemble(&self) -> String {
        self.inner
            .functions
            .iter()
            .map(|f| f.disassemble())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_lookup() {
        let p = Program::from_parts(
            vec![],
            vec![KernelInfo {
                name: "k".into(),
                func: 0,
                params: vec![],
                local_arrays: vec![],
                static_local_bytes: 0,
                barrier_count: 0,
            }],
            "t.cl",
        );
        assert!(p.kernel("k").is_some());
        assert!(p.kernel("missing").is_none());
        assert_eq!(p.source_name(), "t.cl");
    }
}
