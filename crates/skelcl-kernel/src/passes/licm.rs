//! Loop-invariant code motion.
//!
//! Hoists effect-free, non-faulting instructions whose operands are
//! loop-invariant into a preheader block, innermost loops first. Hoisted
//! instructions may execute even when the loop body would not have run —
//! safe precisely because they are pure and cannot fault (integer division
//! with an unknown divisor and memory loads are never hoisted; loads
//! additionally because another work-item may store between iterations).
//! `GetLocal` is invariant when no `SetLocal` in the loop writes the slot
//! (locals cannot alias memory), and work-item queries are invariant
//! because launch geometry is fixed for a work-item's lifetime.

use crate::cfg::{self, NaturalLoop};
use crate::mir::{BlockId, Inst, MirFunction};

use super::{ConstMap, UnitInfo, Workspace};

/// Runs the pass over every natural loop of `f`, innermost first.
pub(crate) fn run(f: &mut MirFunction, info: &UnitInfo, ws: &mut Workspace) {
    // Hoisting moves instructions but defines no new constants.
    super::walk_loops(f, ws, |f, l, ws| {
        hoist_loop(f, l, info, &ws.consts, ws.cfg.rpo())
    });
}

/// Per-register state while hoisting one loop.
#[derive(Clone, Copy, PartialEq)]
enum Def {
    Outside,
    InLoop,
    Invariant,
}

/// Hoists `l`'s invariant instructions into a fresh preheader; returns
/// whether it did (and so changed the CFG). `rpo` is the function's
/// reverse post-order.
fn hoist_loop(
    f: &mut MirFunction,
    l: &NaturalLoop,
    info: &UnitInfo,
    consts: &ConstMap,
    rpo: &[BlockId],
) -> bool {
    // Loop membership, slots written anywhere in the loop (their reads are
    // not invariant), and the registers the loop defines.
    let mut in_loop = vec![false; f.blocks.len()];
    let mut written_slots = vec![false; f.local_init.len()];
    let mut def = vec![Def::Outside; f.vreg_count as usize];
    for bb in &l.blocks {
        in_loop[bb.idx()] = true;
        for inst in &f.blocks[bb.idx()].insts {
            if let Inst::SetLocal { slot, .. } = inst {
                written_slots[*slot as usize] = true;
            }
            if let Some(d) = inst.dst() {
                def[d.0 as usize] = Def::InLoop;
            }
        }
    }

    // Find the invariant set in one sweep: in reverse post-order every
    // in-loop operand's def (which dominates its use) is decided first.
    let mut any = false;
    for bb in rpo.iter().filter(|b| in_loop[b.idx()]) {
        for inst in &f.blocks[bb.idx()].insts {
            let Some(dst) = inst.dst() else { continue };
            // A strictly pure call is hoistable like arithmetic: no
            // effects, and purity already excludes anything that can
            // fault, so executing it when the body would not have run is
            // unobservable.
            let pure_call = matches!(inst, Inst::Call { func, .. } if info.is_pure(*func));
            if !pure_call
                && (inst.has_side_effects() || inst.can_fault(|rhs| consts.div_is_safe(rhs)))
            {
                continue;
            }
            if let Inst::GetLocal { slot, .. } = inst {
                if written_slots[*slot as usize] {
                    continue;
                }
            }
            let mut ok = true;
            inst.for_each_use(|u| ok &= def[u.0 as usize] != Def::InLoop);
            if ok {
                def[dst.0 as usize] = Def::Invariant;
                any = true;
            }
        }
    }
    if !any {
        return false;
    }

    // Move the invariant instructions, in block-id then program order,
    // into a preheader.
    let pre = cfg::insert_preheader(f, l.header, &l.blocks);
    let mut hoisted: Vec<Inst> = Vec::new();
    for bb in &l.blocks {
        let invariant = |i: &mut Inst| i.dst().is_some_and(|d| def[d.0 as usize] == Def::Invariant);
        hoisted.extend(f.blocks[bb.idx()].insts.extract_if(.., invariant));
    }
    f.blocks[pre.idx()].insts = hoisted;
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mir::lower_unit;
    use std::collections::HashSet;

    fn lowered(src: &str) -> MirFunction {
        let f = crate::SourceFile::new("t.cl", src);
        let mut d = crate::diag::Diagnostics::new();
        let tu = crate::parser::parse(&f, &mut d);
        let unit = crate::sema::analyze(&tu, &mut d).unwrap_or_else(|| panic!("{}", d.render(&f)));
        let mut mf = lower_unit(&unit).functions.remove(0);
        crate::cfg::simplify(&mut mf);
        mf
    }

    fn run(f: &mut MirFunction) {
        super::run(f, &UnitInfo::opaque(), &mut Workspace::default());
    }

    /// Instruction count inside loop bodies (blocks that belong to a
    /// natural loop).
    fn loop_insts(f: &MirFunction, pred: impl Fn(&Inst) -> bool) -> usize {
        let loops = cfg::natural_loops(f);
        let mut in_loop = HashSet::new();
        for l in &loops {
            in_loop.extend(l.blocks.iter().copied());
        }
        in_loop
            .iter()
            .flat_map(|bb| f.blocks[bb.idx()].insts.iter())
            .filter(|i| pred(i))
            .count()
    }

    #[test]
    fn invariant_multiply_is_hoisted() {
        let mut f = lowered(
            "int f(int n, int a, int b){
                int s = 0;
                for (int i = 0; i < n; i++) s = s + a * b;
                return s;
            }",
        );
        assert!(
            loop_insts(&f, |i| matches!(
                i,
                Inst::Bin {
                    op: crate::hir::BinOp::Mul,
                    ..
                }
            )) > 0
        );
        run(&mut f);
        assert_eq!(
            loop_insts(&f, |i| matches!(
                i,
                Inst::Bin {
                    op: crate::hir::BinOp::Mul,
                    ..
                }
            )),
            0
        );
    }

    #[test]
    fn loop_varying_reads_stay() {
        let mut f =
            lowered("int f(int n){ int s = 0; for (int i = 0; i < n; i++) s = s + i; return s; }");
        run(&mut f);
        // The read of `i` inside the loop must stay put.
        assert!(loop_insts(&f, |i| matches!(i, Inst::GetLocal { .. })) > 0);
    }

    #[test]
    fn memory_loads_are_not_hoisted() {
        let mut f = lowered(
            "float f(__global float* p, int n){
                float s = 0.0f;
                for (int i = 0; i < n; i++) s = s + p[0];
                return s;
            }",
        );
        run(&mut f);
        assert!(loop_insts(&f, |i| matches!(i, Inst::LoadMem { .. })) > 0);
    }

    #[test]
    fn pure_call_with_invariant_args_is_hoisted() {
        let src = "int coef(int d){
                int a = d < 0 ? -d : d;
                return a == 0 ? 6 : (a == 1 ? 4 : 1);
            }
            int f(int n, int x){
                int s = 0;
                for (int i = 0; i < n; i++) s = s + coef(x);
                return s;
            }";
        let fsrc = crate::SourceFile::new("t.cl", src);
        let mut d = crate::diag::Diagnostics::new();
        let tu = crate::parser::parse(&fsrc, &mut d);
        let unit =
            crate::sema::analyze(&tu, &mut d).unwrap_or_else(|| panic!("{}", d.render(&fsrc)));
        let m = lower_unit(&unit);
        let info = UnitInfo::analyze(&m);
        assert!(info.is_pure(0), "coef is strictly pure");
        let mut f = m.functions.into_iter().nth(1).unwrap();
        crate::cfg::simplify(&mut f);
        assert!(loop_insts(&f, |i| matches!(i, Inst::Call { .. })) > 0);
        super::run(&mut f, &info, &mut Workspace::default());
        assert_eq!(
            loop_insts(&f, |i| matches!(i, Inst::Call { .. })),
            0,
            "the pure call left the loop body"
        );
    }

    #[test]
    fn work_item_queries_are_hoisted() {
        let mut f = lowered(
            "__kernel void k(__global int* out, int n){
                for (int i = 0; i < n; i++) out[i] = (int)get_global_id(0);
            }",
        );
        run(&mut f);
        assert_eq!(loop_insts(&f, |i| matches!(i, Inst::WorkItem { .. })), 0);
    }
}
