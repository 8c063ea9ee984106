//! Constant propagation and folding over the MIR.
//!
//! Register results are folded flow-insensitively (registers are
//! single-def), local slots are tracked with a forward dataflow over the
//! CFG (meet = same-constant intersection), and branches on constant
//! conditions are rewritten to jumps. All evaluation goes through
//! [`crate::value`] and [`crate::builtins::eval_pure`] — the exact code the
//! VM executes — so folded results are bit-identical to runtime results.
//! Faulting operations (integer division by zero) are left in place for the
//! VM to trap on.
//!
//! Calls to strictly pure user functions (see [`super::UnitInfo`]) with
//! all-constant arguments are folded too, by interpreting the callee's MIR
//! under a step budget — the loop below a ternary-heavy helper like a
//! stencil coefficient table evaluates away entirely once unrolling makes
//! its arguments constant.

use crate::builtins;
use crate::mir::{BlockId, Inst, MirFunction, Terminator, VReg};
use crate::value::{self, Value};

use super::{values_identical, ConstMap, UnitInfo, Workspace};

/// Runs the pass to a fixed point.
pub(crate) fn run(f: &mut MirFunction, info: &UnitInfo, ws: &mut Workspace) {
    ws.consts.fill(f);
    loop {
        ws.cfg.update(f);
        fold_registers(f, info, ws);
        // Folding reached its fixpoint above, so another round can only
        // find work if a slot or a branch became constant.
        let mut changed = propagate_locals(f, ws);
        if fold_branches(f, &ws.consts) {
            ws.cfg.invalidate();
            changed = true;
        }
        if !changed {
            break;
        }
    }
}

/// Folds instructions whose operands are all constants. One sweep in
/// reverse post-order suffices: every use is dominated by its def, so
/// operands are final before their users are visited (unreachable blocks
/// are left to `simplify`).
fn fold_registers(f: &mut MirFunction, info: &UnitInfo, ws: &mut Workspace) {
    for &bb in ws.cfg.rpo() {
        for inst in &mut f.blocks[bb.idx()].insts {
            if matches!(inst, Inst::Const { .. }) {
                continue;
            }
            let Some(dst) = inst.dst() else { continue };
            if let Some(v) = try_fold(inst, &ws.consts, info) {
                *inst = Inst::Const { dst, value: v };
                ws.consts.insert(dst, v);
            }
        }
    }
}

/// Attempts to evaluate one instruction over known constants. Returns
/// `None` for effectful, unfoldable or faulting instructions.
fn try_fold(inst: &Inst, consts: &ConstMap, info: &UnitInfo) -> Option<Value> {
    let c = |v: &VReg| consts.get(*v);
    match inst {
        Inst::Un { op, src, .. } => value::unary(*op, c(src)?).ok(),
        Inst::Bin { op, lhs, rhs, .. } => {
            // Division by zero must keep its runtime trap.
            value::binary(*op, c(lhs)?, c(rhs)?).ok()
        }
        Inst::Cmp { op, lhs, rhs, .. } => {
            value::compare(*op, c(lhs)?, c(rhs)?).ok().map(Value::Bool)
        }
        Inst::Convert { to, src, .. } => Some(value::convert(c(src)?, *to)),
        Inst::ToBool { src, .. } => Some(Value::Bool(c(src)?.is_truthy())),
        Inst::CallPure { builtin, args, .. } => {
            let vals: Option<Vec<Value>> = args.iter().map(&c).collect();
            Some(builtins::eval_pure(*builtin, &vals?))
        }
        Inst::Call {
            dst: Some(_),
            func,
            args,
            ..
        } if info.is_pure(*func) => {
            let vals: Option<Vec<Value>> = args.iter().map(c).collect();
            let mut budget = EVAL_BUDGET;
            eval_pure_call(info, *func, &vals?, &mut budget)
        }
        // Loads, geometry queries, pointer math on runtime pointers,
        // impure calls and stores never fold.
        _ => None,
    }
}

/// Instruction budget for evaluating one pure call at compile time,
/// shared across nested calls — bounds loops inside callees so a
/// long-running helper falls back to runtime evaluation instead of
/// stalling the compile.
const EVAL_BUDGET: usize = 4096;

/// Interprets pure function `func` over constant arguments, mirroring the
/// VM's semantics exactly ([`value`] / [`builtins::eval_pure`] are the
/// same code it executes). Returns `None` when the budget runs out, a
/// fault would occur, or an instruction outside the pure subset appears —
/// in every such case the call simply stays for the VM.
fn eval_pure_call(info: &UnitInfo, func: u16, args: &[Value], budget: &mut usize) -> Option<Value> {
    let f = info.pure_body(func)?;
    let mut locals = f.local_init.clone();
    if args.len() > locals.len() {
        return None;
    }
    locals[..args.len()].copy_from_slice(args);
    let mut regs: Vec<Option<Value>> = vec![None; f.vreg_count as usize];
    let mut bb = BlockId(0);
    loop {
        let b = f.blocks.get(bb.idx())?;
        for inst in &b.insts {
            if *budget == 0 {
                return None;
            }
            *budget -= 1;
            let get = |v: &VReg| regs.get(v.0 as usize).copied().flatten();
            let result = match inst {
                Inst::Const { value, .. } => Some(*value),
                Inst::GetLocal { slot, .. } => locals.get(*slot as usize).copied(),
                Inst::SetLocal { slot, src } => {
                    locals[*slot as usize] = get(src)?;
                    None
                }
                Inst::Un { op, src, .. } => Some(value::unary(*op, get(src)?).ok()?),
                Inst::Bin { op, lhs, rhs, .. } => {
                    Some(value::binary(*op, get(lhs)?, get(rhs)?).ok()?)
                }
                Inst::Cmp { op, lhs, rhs, .. } => {
                    Some(Value::Bool(value::compare(*op, get(lhs)?, get(rhs)?).ok()?))
                }
                Inst::Convert { to, src, .. } => Some(value::convert(get(src)?, *to)),
                Inst::ToBool { src, .. } => Some(Value::Bool(get(src)?.is_truthy())),
                Inst::CallPure { builtin, args, .. } => {
                    let vals: Option<Vec<Value>> = args.iter().map(&get).collect();
                    Some(builtins::eval_pure(*builtin, &vals?))
                }
                Inst::Call { func, args, .. } => {
                    let vals: Option<Vec<Value>> = args.iter().map(get).collect();
                    Some(eval_pure_call(info, *func, &vals?, budget)?)
                }
                // Geometry queries, memory access and barriers cannot be
                // evaluated at compile time (purity analysis admits
                // work-item queries, which are only runtime-constant).
                _ => return None,
            };
            if let (Some(d), Some(v)) = (inst.dst(), result) {
                regs[d.0 as usize] = Some(v);
            }
        }
        match &b.term {
            Terminator::Jump(t) => bb = *t,
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                let c = regs.get(cond.0 as usize).copied().flatten()?;
                bb = if c.is_truthy() { *then_bb } else { *else_bb };
            }
            Terminator::Return(Some(v)) => return regs.get(v.0 as usize).copied().flatten(),
            Terminator::Return(None) | Terminator::MissingReturn | Terminator::Trap { .. } => {
                return None
            }
        }
    }
}

/// One lattice point for a local slot.
#[derive(Debug, Clone, Copy)]
enum Lattice {
    /// No path has reached this point yet (identity for the meet).
    Unknown,
    /// The slot holds this exact value on every path.
    Const(Value),
    /// The slot's value differs between paths or is runtime-dependent.
    Varying,
}

/// Point equality for the convergence check. Constants compare bit-exact
/// (`values_identical`), NOT with `Value`'s float semantics — a derived
/// `PartialEq` would make a `Const(NaN)` state never equal itself and the
/// fixpoint below would spin forever.
fn lattice_eq(a: Lattice, b: Lattice) -> bool {
    match (a, b) {
        (Lattice::Unknown, Lattice::Unknown) | (Lattice::Varying, Lattice::Varying) => true,
        (Lattice::Const(x), Lattice::Const(y)) => values_identical(x, y),
        _ => false,
    }
}

fn meet(a: Lattice, b: Lattice) -> Lattice {
    match (a, b) {
        (Lattice::Unknown, x) | (x, Lattice::Unknown) => x,
        (Lattice::Varying, _) | (_, Lattice::Varying) => Lattice::Varying,
        (Lattice::Const(x), Lattice::Const(y)) => {
            if values_identical(x, y) {
                Lattice::Const(x)
            } else {
                Lattice::Varying
            }
        }
    }
}

/// The dataflow tables of [`propagate_locals`]: one lattice row per block.
#[derive(Debug, Default)]
pub(crate) struct Tables {
    /// Column of each tracked slot, or `u32::MAX`.
    column: Vec<u32>,
    in_state: Vec<Lattice>,
    state: Vec<Lattice>,
    rewritten: Vec<(VReg, Value)>,
}

/// Forward dataflow over local slots: replaces `GetLocal` of a
/// known-constant slot with a `Const`. Returns whether anything changed.
fn propagate_locals(f: &mut MirFunction, ws: &mut Workspace) -> bool {
    let (consts, t) = (&mut ws.consts, &mut ws.lattice);
    // Only a slot some `SetLocal` fills with a constant can ever read as
    // one; the others stay varying and need no column.
    t.column.clear();
    t.column.resize(f.local_init.len(), u32::MAX);
    let mut ns = 0;
    for inst in f.blocks.iter().flat_map(|b| &b.insts) {
        if let Inst::SetLocal { slot, src } = inst {
            if consts.get(*src).is_some() && t.column[*slot as usize] == u32::MAX {
                t.column[*slot as usize] = ns as u32;
                ns += 1;
            }
        }
    }
    if ns == 0 {
        return false;
    }
    // Entry state: every slot varying (parameters and `__local` arrays are
    // bound by the caller; other locals could use their init value, but
    // treating them as varying keeps the pass independent of binding
    // rules).
    t.in_state.clear();
    t.in_state.resize(f.blocks.len() * ns, Lattice::Unknown);
    t.in_state[..ns].fill(Lattice::Varying);

    let column = &t.column;
    let transfer = |state: &mut [Lattice], inst: &Inst, consts: &ConstMap| {
        if let Inst::SetLocal { slot, src } = inst {
            if let Some(c) = state.get_mut(column[*slot as usize] as usize) {
                *c = match consts.get(*src) {
                    Some(v) => Lattice::Const(v),
                    None => Lattice::Varying,
                };
            }
        }
    };

    // Iterate to fixpoint, meeting into each successor's row in place.
    let rpo = ws.cfg.rpo();
    loop {
        let mut changed = false;
        for &bb in rpo {
            t.state.clear();
            t.state
                .extend_from_slice(&t.in_state[bb.idx() * ns..][..ns]);
            for inst in &f.blocks[bb.idx()].insts {
                transfer(&mut t.state, inst, consts);
            }
            for succ in f.blocks[bb.idx()].term.successors() {
                let row = &mut t.in_state[succ.idx() * ns..][..ns];
                for (old, &new) in row.iter_mut().zip(&t.state) {
                    let merged = meet(*old, new);
                    if !lattice_eq(merged, *old) {
                        *old = merged;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Rewrite GetLocal of known-constant slots. The new constants join the
    // map only afterwards, as the dataflow above did not know them.
    t.rewritten.clear();
    for &bb in rpo {
        t.state.clear();
        t.state
            .extend_from_slice(&t.in_state[bb.idx() * ns..][..ns]);
        for inst in &mut f.blocks[bb.idx()].insts {
            if let Inst::GetLocal { dst, slot } = *inst {
                if let Some(Lattice::Const(v)) = t.state.get(column[slot as usize] as usize) {
                    *inst = Inst::Const { dst, value: *v };
                    t.rewritten.push((dst, *v));
                }
            }
            transfer(&mut t.state, inst, consts);
        }
    }
    for &(dst, v) in &t.rewritten {
        consts.insert(dst, v);
    }
    !t.rewritten.is_empty()
}

/// Rewrites branches on constant conditions to unconditional jumps.
fn fold_branches(f: &mut MirFunction, consts: &ConstMap) -> bool {
    let mut changed = false;
    for b in &mut f.blocks {
        if let Terminator::Branch {
            cond,
            then_bb,
            else_bb,
        } = b.term
        {
            if let Some(v) = consts.get(cond) {
                b.term = Terminator::Jump(if v.is_truthy() { then_bb } else { else_bb });
                changed = true;
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg;
    use crate::mir::lower_unit;

    fn lowered(src: &str) -> MirFunction {
        let f = crate::SourceFile::new("t.cl", src);
        let mut d = crate::diag::Diagnostics::new();
        let tu = crate::parser::parse(&f, &mut d);
        let unit = crate::sema::analyze(&tu, &mut d).unwrap_or_else(|| panic!("{}", d.render(&f)));
        lower_unit(&unit).functions.remove(0)
    }

    fn run(f: &mut MirFunction) {
        super::run(f, &UnitInfo::opaque(), &mut Workspace::default());
    }

    fn consts(f: &MirFunction) -> ConstMap {
        let mut consts = ConstMap::default();
        consts.fill(f);
        consts
    }

    fn count_insts(f: &MirFunction, pred: impl Fn(&Inst) -> bool) -> usize {
        f.blocks
            .iter()
            .flat_map(|b| b.insts.iter())
            .filter(|i| pred(i))
            .count()
    }

    #[test]
    fn folds_constant_arithmetic() {
        let mut f = lowered("int f(){ return 16 * 16 + 1; }");
        run(&mut f);
        assert_eq!(count_insts(&f, |i| matches!(i, Inst::Bin { .. })), 0);
    }

    #[test]
    fn folds_through_local_slots() {
        let mut f = lowered("int f(){ int a = 5; int b = a * 3; return b; }");
        run(&mut f);
        cfg::simplify(&mut f);
        assert_eq!(count_insts(&f, |i| matches!(i, Inst::Bin { .. })), 0);
        // The final return reads a constant.
        let Terminator::Return(Some(v)) = f.blocks.last().unwrap().term else {
            panic!("expected return");
        };
        assert!(values_identical(consts(&f).get(v).unwrap(), Value::I32(15)));
    }

    #[test]
    fn division_by_zero_is_not_folded() {
        let mut f = lowered("int f(){ return 1 / 0; }");
        run(&mut f);
        assert_eq!(count_insts(&f, |i| matches!(i, Inst::Bin { .. })), 1);
    }

    #[test]
    fn branch_on_constant_becomes_jump() {
        let mut f = lowered("int f(){ if (3 < 4) return 1; return 2; }");
        run(&mut f);
        assert!(!f
            .blocks
            .iter()
            .any(|b| matches!(b.term, Terminator::Branch { .. })));
    }

    #[test]
    fn runtime_values_stay() {
        let mut f = lowered("int f(int x){ return x + 1; }");
        run(&mut f);
        assert_eq!(count_insts(&f, |i| matches!(i, Inst::Bin { .. })), 1);
    }

    #[test]
    fn folds_pure_builtins() {
        let mut f = lowered("float f(){ return sqrt(16.0f); }");
        run(&mut f);
        assert_eq!(count_insts(&f, |i| matches!(i, Inst::CallPure { .. })), 0);
    }

    #[test]
    fn pure_call_on_constants_folds() {
        // `coef` has control flow the HIR inliner rejects; compile-time
        // evaluation of the pure call must fold it anyway.
        let src = "int coef(int d){
                int a = d < 0 ? -d : d;
                return a == 0 ? 6 : (a == 1 ? 4 : 1);
            }
            int f(){ return coef(-2) + coef(1); }";
        let f = crate::SourceFile::new("t.cl", src);
        let mut d = crate::diag::Diagnostics::new();
        let tu = crate::parser::parse(&f, &mut d);
        let unit = crate::sema::analyze(&tu, &mut d).unwrap_or_else(|| panic!("{}", d.render(&f)));
        let mut m = lower_unit(&unit);
        let info = UnitInfo::analyze(&m);
        assert!(info.is_pure(0), "coef is strictly pure");
        let callee = m.functions.remove(1);
        let mut callee = callee;
        super::run(&mut callee, &info, &mut Workspace::default());
        cfg::simplify(&mut callee);
        assert_eq!(
            count_insts(&callee, |i| matches!(i, Inst::Call { .. })),
            0,
            "both calls folded"
        );
        let Terminator::Return(Some(v)) = callee.blocks[0].term else {
            panic!("expected straight-line return");
        };
        assert!(values_identical(
            consts(&callee).get(v).unwrap(),
            Value::I32(1 + 4)
        ));
    }

    #[test]
    fn impure_call_is_not_folded() {
        let src = "int g(__global int* p){ return p[0]; }
            int f(__global int* p){ return g(p); }";
        let f = crate::SourceFile::new("t.cl", src);
        let mut d = crate::diag::Diagnostics::new();
        let tu = crate::parser::parse(&f, &mut d);
        let unit = crate::sema::analyze(&tu, &mut d).unwrap_or_else(|| panic!("{}", d.render(&f)));
        let m = lower_unit(&unit);
        let info = UnitInfo::analyze(&m);
        assert!(!info.is_pure(0), "memory loads make g impure");
    }

    #[test]
    fn divergent_paths_meet_to_varying() {
        let mut f = lowered("int f(int x){ int a = 1; if (x > 0) a = 2; return a * 10; }");
        run(&mut f);
        // `a` is 1 or 2 at the join — must not fold.
        assert_eq!(count_insts(&f, |i| matches!(i, Inst::Bin { .. })), 1);
    }
}
