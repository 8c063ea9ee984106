//! The MIR optimization pipeline.
//!
//! Pass order for the full pipeline is `const-prop → cse → licm → unroll →
//! const-prop → cse → dce` with CFG simplification interleaved: unrolling
//! relies on constants exposed by the first propagation round, and the
//! second round evaporates the per-iteration loop tests the unroller leaves
//! behind. Every pass preserves observable behaviour bit-for-bit: constant
//! folding evaluates through [`crate::value`] / [`crate::builtins`] (the
//! same code the VM runs), faulting operations are never folded, hoisted or
//! deleted speculatively, and no pass reassociates floating-point math.
//!
//! The pipeline is driven by the `SKELCL_KERNEL_OPT` environment variable
//! (see [`OptConfig::from_env`]) or programmatically through
//! [`crate::compile_with_config`].

mod const_prop;
mod cse;
mod dce;
mod licm;
mod unroll;

use std::time::{Duration, Instant};

use crate::cfg::{CfgInfo, NaturalLoop};
use crate::mir::{BlockId, Inst, MirFunction, MirUnit, Terminator, VReg};
use crate::value::Value;

/// Which optimization passes to run, and whether to print the MIR.
///
/// Parsed from `SKELCL_KERNEL_OPT` ([`OptConfig::parse`]):
///
/// * `1`, unset or empty — every pass (the default);
/// * `0` or `none` — no passes: MIR lowering, CFG clean-up and register
///   allocation only. This is the compile oracle the differential tests
///   run on the reference interpreter;
/// * a comma list of pass names (`const-prop`, `cse`, `dce`, `licm`,
///   `unroll`) — just those passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptConfig {
    /// Constant propagation and folding.
    pub const_prop: bool,
    /// Common-subexpression elimination + local copy propagation.
    pub cse: bool,
    /// Dead-code elimination (unused pure defs, dead local stores).
    pub dce: bool,
    /// Loop-invariant code motion.
    pub licm: bool,
    /// Unrolling of small constant-trip loops.
    pub unroll: bool,
    /// Print the MIR of every compiled unit to stderr
    /// (`SKELCL_KERNEL_DUMP=mir|mir-opt`).
    pub dump: Option<MirDump>,
}

/// Which MIR [`OptConfig::dump`] prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MirDump {
    /// As lowered from the HIR, before any pass (`mir`).
    Lowered,
    /// After the enabled passes (`mir-opt`).
    Optimized,
}

impl MirDump {
    /// Parses a `SKELCL_KERNEL_DUMP` value (`mir` or `mir-opt`).
    fn parse(spec: &str) -> Option<Self> {
        match spec {
            "mir" => Some(MirDump::Lowered),
            "mir-opt" => Some(MirDump::Optimized),
            _ => None,
        }
    }
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig::all()
    }
}

impl OptConfig {
    /// The full pipeline: every pass enabled.
    pub fn all() -> Self {
        OptConfig {
            const_prop: true,
            cse: true,
            dce: true,
            licm: true,
            unroll: true,
            dump: None,
        }
    }

    /// No passes (lowering + register allocation only): the compile
    /// oracle.
    pub fn none() -> Self {
        OptConfig {
            const_prop: false,
            cse: false,
            dce: false,
            licm: false,
            unroll: false,
            dump: None,
        }
    }

    /// Parses a `SKELCL_KERNEL_OPT` value. Also returns the tokens it did
    /// not recognise, which select nothing (so a typo degrades to fewer
    /// passes, never to a crash).
    pub fn parse(spec: &str) -> (Self, Vec<&str>) {
        let mut rejected = Vec::new();
        let cfg = match spec.trim() {
            "" | "1" => OptConfig::all(),
            "0" | "none" => OptConfig::none(),
            list => {
                let mut cfg = OptConfig::none();
                for name in list.split(',').map(str::trim) {
                    match name {
                        "const-prop" | "constprop" | "const_prop" => cfg.const_prop = true,
                        "cse" => cfg.cse = true,
                        "dce" => cfg.dce = true,
                        "licm" => cfg.licm = true,
                        "unroll" => cfg.unroll = true,
                        unknown => rejected.push(unknown),
                    }
                }
                cfg
            }
        };
        (cfg, rejected)
    }

    /// Combines the values of `SKELCL_KERNEL_OPT` and `SKELCL_KERNEL_DUMP`
    /// (`None`: unset). Also returns the pass names [`OptConfig::parse`]
    /// rejected.
    pub fn from_vars<'a>(opt: Option<&'a str>, dump: Option<&str>) -> (Self, Vec<&'a str>) {
        let (cfg, rejected) = OptConfig::parse(opt.unwrap_or(""));
        let dump = dump.and_then(MirDump::parse);
        (OptConfig { dump, ..cfg }, rejected)
    }

    /// Reads the configuration from `SKELCL_KERNEL_OPT` and
    /// `SKELCL_KERNEL_DUMP`.
    pub fn from_env() -> Self {
        let var = |name| std::env::var(name).ok();
        let (opt, dump) = (var("SKELCL_KERNEL_OPT"), var("SKELCL_KERNEL_DUMP"));
        OptConfig::from_vars(opt.as_deref(), dump.as_deref()).0
    }

    /// The list of enabled pass names, in run order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        if self.const_prop {
            out.push("const-prop");
        }
        if self.cse {
            out.push("cse");
        }
        if self.dce {
            out.push("dce");
        }
        if self.licm {
            out.push("licm");
        }
        if self.unroll {
            out.push("unroll");
        }
        out
    }
}

/// The pipeline's steps, naming the entries of [`crate::CompileStats::pass`]:
/// CFG clean-up (run between the others), then the passes as
/// `SKELCL_KERNEL_OPT` names them.
pub const PASS_NAMES: [&str; 6] = ["simplify", "const-prop", "cse", "licm", "unroll", "dce"];

/// One step of the pipeline, indexing [`PASS_NAMES`].
#[derive(Clone, Copy)]
enum Pass {
    Simplify,
    ConstProp,
    Cse,
    Licm,
    Unroll,
    Dce,
}

/// Runs the configured passes over every function of `unit`.
pub fn run(unit: &mut MirUnit, cfg: &OptConfig) {
    run_timed(unit, cfg);
}

/// [`run`], returning the host time spent in each pass (indexed like
/// [`PASS_NAMES`]).
pub fn run_timed(unit: &mut MirUnit, cfg: &OptConfig) -> [Duration; PASS_NAMES.len()] {
    let info = UnitInfo::analyze(unit);
    let mut times = [Duration::ZERO; PASS_NAMES.len()];
    let mut ws = WORKSPACE.take();
    for f in &mut unit.functions {
        ws.cfg.invalidate();
        run_function(f, cfg, &info, &mut ws, &mut times);
    }
    WORKSPACE.set(ws);
    times
}

thread_local! {
    /// The calling thread's [`Workspace`], kept between compiles.
    static WORKSPACE: std::cell::Cell<Workspace> = std::cell::Cell::default();
}

/// What the passes reuse across passes, functions and compiles on one
/// thread: the CFG analysis bundle, the dense constant map and each pass's
/// tables. Every pass refills what it reads, so a compile allocates only
/// when a table must grow.
#[derive(Default)]
pub(crate) struct Workspace {
    cfg: CfgInfo,
    consts: ConstMap,
    lattice: const_prop::Tables,
    cse: cse::Tables,
    dce: dce::Tables,
}

fn run_function(
    f: &mut MirFunction,
    cfg: &OptConfig,
    info: &UnitInfo,
    ws: &mut Workspace,
    times: &mut [Duration; PASS_NAMES.len()],
) {
    // One clock read per step: each step ends where the next one starts.
    let mut start = Instant::now();
    let mut step = |pass: Pass, f: &mut MirFunction| {
        match pass {
            Pass::Simplify => {
                ws.cfg.simplify(f);
            }
            Pass::ConstProp => const_prop::run(f, info, ws),
            Pass::Cse => cse::run(f, info, &mut ws.cse),
            Pass::Licm => licm::run(f, info, ws),
            Pass::Unroll => unroll::run(f, ws),
            Pass::Dce => dce::run(f, info, ws),
        }
        let end = Instant::now();
        times[pass as usize] += end - start;
        start = end;
        if cfg!(debug_assertions) {
            if let Err(e) = crate::mir::verify(f) {
                panic!(
                    "MIR of `{}` invalid after {}: {e}",
                    f.name, PASS_NAMES[pass as usize]
                );
            }
            start = Instant::now();
        }
    };
    step(Pass::Simplify, f);
    if cfg.const_prop {
        step(Pass::ConstProp, f);
        step(Pass::Simplify, f);
    }
    if cfg.cse {
        step(Pass::Cse, f);
    }
    if cfg.licm {
        step(Pass::Licm, f);
        step(Pass::Simplify, f);
    }
    if cfg.unroll {
        step(Pass::Unroll, f);
        step(Pass::Simplify, f);
        // Clean up the per-iteration copies the unroller leaves behind.
        if cfg.const_prop {
            step(Pass::ConstProp, f);
            step(Pass::Simplify, f);
        }
        if cfg.cse {
            step(Pass::Cse, f);
        }
    }
    if cfg.dce {
        step(Pass::Dce, f);
        step(Pass::Simplify, f);
    }
}

/// Unit-wide context shared by the passes: which user functions are
/// strictly pure, plus a pre-pass snapshot of every pure body so constant
/// propagation can evaluate pure calls on constant arguments.
pub(crate) struct UnitInfo {
    /// `pure[f]` — every instruction reachable in `f`'s body is free of
    /// memory access, barriers and possible faults, and calls only other
    /// pure functions. A call to such a function behaves like an
    /// arithmetic instruction: deterministic within a work-item, no
    /// effects, no traps — so it may be folded, merged, hoisted or
    /// deleted like one.
    pure: Vec<bool>,
    /// Pure function bodies as lowered, before any pass mutates them
    /// (callee results are identical either way; the snapshot sidesteps
    /// borrowing the unit while one of its functions is being rewritten).
    snapshot: Vec<Option<MirFunction>>,
}

impl UnitInfo {
    /// Analyzes `unit` before any pass runs.
    pub(crate) fn analyze(unit: &MirUnit) -> Self {
        let n = unit.functions.len();
        let mut pure = vec![false; n];
        let mut consts = ConstMap::default();
        // Sema rejects recursion, so call chains are acyclic and this
        // fixpoint converges in at most `n` rounds.
        loop {
            let mut changed = false;
            for (i, f) in unit.functions.iter().enumerate() {
                if !pure[i] && !f.is_kernel && function_is_pure(f, &pure, &mut consts) {
                    pure[i] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let snapshot = unit
            .functions
            .iter()
            .zip(&pure)
            .map(|(f, &p)| p.then(|| f.clone()))
            .collect();
        UnitInfo { pure, snapshot }
    }

    /// A context with no known functions (every call treated as opaque).
    #[cfg(test)]
    pub(crate) fn opaque() -> Self {
        UnitInfo {
            pure: Vec::new(),
            snapshot: Vec::new(),
        }
    }

    /// Whether calls to function `func` are strictly pure.
    pub(crate) fn is_pure(&self, func: u16) -> bool {
        self.pure.get(func as usize).copied().unwrap_or(false)
    }

    /// The pre-pass body of pure function `func`.
    pub(crate) fn pure_body(&self, func: u16) -> Option<&MirFunction> {
        self.snapshot.get(func as usize)?.as_ref()
    }
}

/// Whether every reachable instruction of `f` is effect-free and
/// non-faulting, with `pure` giving the verdict for already-classified
/// callees. `SetLocal` is allowed (the callee's frame is private to the
/// call), work-item queries are allowed (launch geometry is fixed for a
/// work-item's lifetime); reachable `MissingReturn`/`Trap` terminators,
/// memory access, barriers and possibly-faulting arithmetic are not.
fn function_is_pure(f: &MirFunction, pure: &[bool], consts: &mut ConstMap) -> bool {
    consts.fill(f);
    let mut seen = vec![false; f.blocks.len()];
    let mut stack = vec![BlockId(0)];
    seen[0] = true;
    while let Some(bb) = stack.pop() {
        let b = &f.blocks[bb.idx()];
        for inst in &b.insts {
            let ok = match inst {
                Inst::SetLocal { .. } => true,
                Inst::Call { func, .. } => pure.get(*func as usize).copied().unwrap_or(false),
                Inst::Barrier { .. } | Inst::StoreMem { .. } => false,
                _ => !inst.can_fault(|rhs| consts.div_is_safe(rhs)),
            };
            if !ok {
                return false;
            }
        }
        if let Terminator::MissingReturn | Terminator::Trap { .. } = b.term {
            return false;
        }
        for s in b.term.successors() {
            if !std::mem::replace(&mut seen[s.idx()], true) {
                stack.push(s);
            }
        }
    }
    true
}

// ----- shared pass helpers --------------------------------------------------

/// Calls `visit` once for each natural loop of `f` not headed by the entry,
/// innermost first, with `ws.consts` filled. `visit` returns whether it
/// changed the CFG; only then is the loop list recomputed, and loops are
/// matched across recomputations by header and latches.
fn walk_loops(
    f: &mut MirFunction,
    ws: &mut Workspace,
    mut visit: impl FnMut(&mut MirFunction, &NaturalLoop, &mut Workspace) -> bool,
) {
    if ws.cfg.loops(f).iter().all(|l| l.header.0 == 0) {
        return;
    }
    ws.consts.fill(f);
    let mut processed: Vec<NaturalLoop> = Vec::new();
    while let Some(l) = ws
        .cfg
        .loops(f)
        .iter()
        .find(|l| l.header.0 != 0 && !processed.iter().any(|p| p.same_as(l)))
        .cloned()
    {
        if visit(f, &l, ws) {
            ws.cfg.invalidate();
        }
        processed.push(l);
    }
}

/// Bit-exact value identity: unlike `PartialEq`, distinguishes `-0.0` from
/// `0.0` and compares NaNs by representation, so replacing one value by an
/// "identical" one can never change observable results.
pub(crate) fn values_identical(a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::F32(x), Value::F32(y)) => x.to_bits() == y.to_bits(),
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        (Value::F32(_) | Value::F64(_), _) | (_, Value::F32(_) | Value::F64(_)) => false,
        (x, y) => x == y,
    }
}

/// Dense map from every register defined by a `Const` instruction to its
/// value, indexed by register. Registers are single-def, so the map is
/// flow-insensitive, and it only grows while a pass turns instructions
/// into constants.
#[derive(Debug, Default)]
pub(crate) struct ConstMap(Vec<Option<Value>>);

impl ConstMap {
    /// Refills the map from `f`'s `Const` instructions.
    pub(crate) fn fill(&mut self, f: &MirFunction) {
        self.0.clear();
        self.0.resize(f.vreg_count as usize, None);
        for b in &f.blocks {
            for i in &b.insts {
                if let Inst::Const { dst, value } = i {
                    self.0[dst.0 as usize] = Some(*value);
                }
            }
        }
    }

    /// The constant `v` holds, if it is defined by a `Const`.
    pub(crate) fn get(&self, v: VReg) -> Option<Value> {
        self.0.get(v.0 as usize).copied().flatten()
    }

    /// Records that `v` is now defined by `Const(value)`.
    pub(crate) fn insert(&mut self, v: VReg, value: Value) {
        self.0[v.0 as usize] = Some(value);
    }

    /// Whether dividing by `rhs` cannot fault: a non-zero integer constant
    /// or any float constant.
    pub(crate) fn div_is_safe(&self, rhs: VReg) -> bool {
        match self.get(rhs) {
            Some(Value::F32(_) | Value::F64(_)) => true,
            Some(v) => v.as_i64() != 0 && !matches!(v, Value::Ptr(_)),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_spec_parsing() {
        let clean = |cfg| (cfg, Vec::<&str>::new());
        assert_eq!(OptConfig::parse("1"), clean(OptConfig::all()));
        assert_eq!(OptConfig::parse(""), clean(OptConfig::all()));
        assert_eq!(OptConfig::parse("0"), clean(OptConfig::none()));
        assert_eq!(OptConfig::parse("none"), clean(OptConfig::none()));
        let (c, rejected) = OptConfig::parse("const-prop, dce");
        assert!(c.const_prop && c.dce);
        assert!(!c.cse && !c.licm && !c.unroll);
        assert!(rejected.is_empty());
        // Unknown names select nothing and are handed back.
        let (c, rejected) = OptConfig::parse("licm,bogus,lcim");
        assert!(c.licm && !c.cse);
        assert_eq!(rejected, ["bogus", "lcim"]);
    }

    #[test]
    fn value_identity_is_bit_exact() {
        assert!(values_identical(Value::F32(1.5), Value::F32(1.5)));
        assert!(!values_identical(Value::F32(0.0), Value::F32(-0.0)));
        assert!(values_identical(Value::F64(f64::NAN), Value::F64(f64::NAN)));
        assert!(values_identical(Value::I32(3), Value::I32(3)));
        assert!(!values_identical(Value::I32(3), Value::I64(3)));
    }
}
