//! Unrolling of small constant-trip loops.
//!
//! Recognizes counted loops of the canonical shape the lowering produces:
//! a header testing one induction slot against a constant, a single latch
//! carrying the only in-loop update of that slot (`i = i ± const`), and a
//! constant initial value in the block entering the loop. The trip count is
//! obtained by *simulating* the test and the update through
//! [`crate::value::compare`] / [`crate::value::binary`] — the exact
//! arithmetic the VM would run, wrapping and all — so the count is exact,
//! never inferred algebraically. Loops with barriers are never unrolled
//! (each barrier site must keep its unique id); loops above
//! [`MAX_TRIP`] iterations or [`MAX_GROWTH`] cloned instructions are left
//! alone (mandelbrot's 120-trip escape loop deliberately stays rolled).
//!
//! The loop blocks are cloned once per iteration with fresh registers,
//! each clone's back edge chained to the next clone's header and the last
//! clone's back edge routed straight to the loop exit (the simulated trip
//! count proves the final test false). Early exits (`break`, `return`)
//! inside the body are cloned as-is and still leave the loop. The cloned
//! per-iteration header tests are constant-foldable; the pipeline re-runs
//! constant propagation after unrolling to evaporate them.

use crate::cfg::{self, CfgInfo};
use crate::hir::BinOp;
use crate::mir::{BlockId, Inst, MirFunction, Terminator, VReg};
use crate::value::{self, Value};

use super::{ConstMap, Workspace};

/// Maximum trip count considered for unrolling.
const MAX_TRIP: u64 = 16;
/// Maximum `trip × loop-instruction-count` growth budget.
const MAX_GROWTH: usize = 512;

/// Runs the pass: walks the natural loops innermost first and unrolls each
/// eligible one. Unrolling leaves the original loop blocks unreachable, so
/// the walk ends after at most the function's loop count.
pub(crate) fn run(f: &mut MirFunction, ws: &mut Workspace) {
    super::walk_loops(f, ws, |f, l, ws| {
        let unrolled = try_unroll(f, l, &ws.cfg, &ws.consts);
        if unrolled {
            ws.consts.fill(f);
        }
        unrolled
    });
}

/// The recognized counted-loop shape.
struct Counted {
    /// Initial value at loop entry.
    init: Value,
    /// The header comparison, with the constant on the recorded side.
    cmp: crate::hir::CmpOp,
    cmp_const: Value,
    /// Whether the induction variable is the *left* comparison operand.
    var_on_left: bool,
    /// Induction step: `i = i <op> step`.
    step_op: BinOp,
    step: Value,
    /// The single block entering the loop from outside.
    entry_pred: BlockId,
    /// Header successor outside the loop.
    exit: BlockId,
}

/// Unrolls `l` if it has the counted shape; returns whether it did.
fn try_unroll(
    f: &mut MirFunction,
    l: &cfg::NaturalLoop,
    info: &CfgInfo,
    consts: &ConstMap,
) -> bool {
    let Some(shape) = recognize(f, l, info, consts) else {
        return false;
    };
    let Some(trip) = simulate_trip(&shape) else {
        return false;
    };
    if trip == 0 {
        return false;
    }
    let loop_size: usize = l
        .blocks
        .iter()
        .map(|bb| f.blocks[bb.idx()].insts.len() + 1)
        .sum();
    if trip as usize * loop_size > MAX_GROWTH {
        return false;
    }
    clone_iterations(f, l, &shape, trip as usize);
    true
}

/// Matches the loop against the counted shape, or returns `None`.
fn recognize(
    f: &MirFunction,
    l: &cfg::NaturalLoop,
    info: &CfgInfo,
    consts: &ConstMap,
) -> Option<Counted> {
    if l.latches.len() != 1 {
        return None;
    }
    let latch = l.latches[0];
    let in_loop = |b: &BlockId| l.blocks.binary_search(b).is_ok();

    // No barriers anywhere in the loop: every barrier site carries a
    // unique id and cloning would duplicate it.
    for bb in &l.blocks {
        if f.blocks[bb.idx()]
            .insts
            .iter()
            .any(|i| matches!(i, Inst::Barrier { .. }))
        {
            return None;
        }
    }

    // Header: exactly one GetLocal (the induction read), any constants,
    // exactly one Cmp over (induction, const), branch on the Cmp.
    let header = &f.blocks[l.header.idx()];
    let mut ind_read: Option<(VReg, u16)> = None;
    let mut cmp: Option<(crate::hir::CmpOp, VReg, VReg, VReg)> = None; // (op, lhs, rhs, dst)
    for inst in &header.insts {
        match inst {
            Inst::GetLocal { dst, slot } => {
                if ind_read.is_some() {
                    return None;
                }
                ind_read = Some((*dst, *slot));
            }
            Inst::Const { .. } => {}
            Inst::Cmp { dst, op, lhs, rhs } => {
                if cmp.is_some() {
                    return None;
                }
                cmp = Some((*op, *lhs, *rhs, *dst));
            }
            _ => return None,
        }
    }
    let (ind_vreg, slot) = ind_read?;
    let (cmp_op, cmp_lhs, cmp_rhs, cmp_dst) = cmp?;
    let Terminator::Branch {
        cond,
        then_bb,
        else_bb,
    } = header.term
    else {
        return None;
    };
    if cond != cmp_dst {
        return None;
    }
    let exit = match (in_loop(&then_bb), in_loop(&else_bb)) {
        (true, false) => else_bb,
        (false, true) => then_bb,
        _ => return None,
    };
    let (var_on_left, cmp_const) = if cmp_lhs == ind_vreg {
        (true, consts.get(cmp_rhs)?)
    } else if cmp_rhs == ind_vreg {
        (false, consts.get(cmp_lhs)?)
    } else {
        return None;
    };

    // Exactly one in-loop SetLocal of the induction slot, in the latch,
    // storing `GetLocal(slot) <Add|Sub> const`.
    let mut updates = Vec::new();
    for bb in &l.blocks {
        for inst in &f.blocks[bb.idx()].insts {
            if let Inst::SetLocal { slot: s, src } = inst {
                if *s == slot {
                    updates.push((*bb, *src));
                }
            }
        }
    }
    let [(update_bb, update_src)] = updates[..] else {
        return None;
    };
    if update_bb != latch {
        return None;
    }
    // Find the Bin feeding the update and the GetLocal feeding the Bin.
    let mut step_found: Option<(BinOp, Value)> = None;
    'outer: for bb in &l.blocks {
        for inst in &f.blocks[bb.idx()].insts {
            if let Inst::Bin { dst, op, lhs, rhs } = inst {
                if *dst != update_src {
                    continue;
                }
                if !matches!(op, BinOp::Add | BinOp::Sub) {
                    return None;
                }
                let step = consts.get(*rhs)?;
                // `lhs` must be a read of the induction slot inside the
                // loop.
                let lhs_is_read = l.blocks.iter().any(|b2| {
                    f.blocks[b2.idx()]
                        .insts
                        .iter()
                        .any(|i| matches!(i, Inst::GetLocal { dst: d, slot: s } if d == lhs && *s == slot))
                });
                if !lhs_is_read {
                    return None;
                }
                step_found = Some((*op, step));
                break 'outer;
            }
        }
    }
    let (step_op, step) = step_found?;

    // Exactly one predecessor of the header from outside the loop, whose
    // last write of the slot is a known constant.
    let mut outside = info.preds(l.header).iter().filter(|p| !in_loop(p));
    let (Some(&entry_pred), None) = (outside.next(), outside.next()) else {
        return None;
    };
    let mut init: Option<Value> = None;
    for inst in &f.blocks[entry_pred.idx()].insts {
        if let Inst::SetLocal { slot: s, src } = inst {
            if *s == slot {
                init = consts.get(*src);
                init?;
            }
        }
    }
    let init = init?;

    Some(Counted {
        init,
        cmp: cmp_op,
        cmp_const,
        var_on_left,
        step_op,
        step,
        entry_pred,
        exit,
    })
}

/// Runs the loop test and induction update symbolically, returning the
/// exact trip count, or `None` when it exceeds [`MAX_TRIP`] or the
/// arithmetic faults.
fn simulate_trip(c: &Counted) -> Option<u64> {
    let mut v = c.init;
    let mut trip = 0u64;
    loop {
        let taken = if c.var_on_left {
            value::compare(c.cmp, v, c.cmp_const).ok()?
        } else {
            value::compare(c.cmp, c.cmp_const, v).ok()?
        };
        if !taken {
            return Some(trip);
        }
        trip += 1;
        if trip > MAX_TRIP {
            return None;
        }
        v = value::binary(c.step_op, v, c.step).ok()?;
    }
}

/// Clones the loop `trip` times, chains the copies, and redirects the
/// entry edge into the first copy. The original loop blocks become
/// unreachable; `cfg::simplify` removes them afterwards.
fn clone_iterations(f: &mut MirFunction, l: &cfg::NaturalLoop, c: &Counted, trip: usize) {
    let header = l.header;
    let mut first_header: Option<BlockId> = None;
    // Previous copy's (latch, header): its back edge still points at its
    // own header and must be re-aimed at the next copy (or the exit).
    let mut prev: Option<(BlockId, BlockId)> = None;

    // `bpos[b]`: position of block `b` in the loop; `vmap[v]`: the current
    // copy's register for loop def `v` (both `u32::MAX` outside the loop).
    let mut bpos = vec![u32::MAX; f.blocks.len()];
    for (i, &bb) in l.blocks.iter().enumerate() {
        bpos[bb.idx()] = i as u32;
    }
    let mut vmap = vec![u32::MAX; f.vreg_count as usize];
    for _ in 0..trip {
        // Pre-assign fresh block ids and fresh registers for every in-loop
        // def, so uses can be remapped regardless of block order.
        let base = f.blocks.len() as u32;
        let bmap = |b: BlockId| match bpos.get(b.idx()) {
            Some(&i) if i != u32::MAX => Some(BlockId(base + i)),
            _ => None,
        };
        for &bb in &l.blocks {
            for i in 0..f.blocks[bb.idx()].insts.len() {
                if let Some(d) = f.blocks[bb.idx()].insts[i].dst() {
                    vmap[d.0 as usize] = f.new_vreg().0;
                }
            }
        }
        let remap = |u: &mut VReg| match vmap.get(u.0 as usize) {
            Some(&nu) if nu != u32::MAX => *u = VReg(nu),
            _ => {}
        };

        for &bb in &l.blocks {
            let mut block = f.blocks[bb.idx()].clone();
            for inst in &mut block.insts {
                if let Some(d) = inst.dst() {
                    inst.set_dst(VReg(vmap[d.0 as usize]));
                }
                inst.for_each_use_mut(remap);
            }
            block.term.for_each_use_mut(remap);
            block
                .term
                .for_each_succ_mut(|s| *s = bmap(*s).unwrap_or(*s));
            f.blocks.push(block);
        }

        let this_header = bmap(header).expect("the header is in the loop");
        if let Some((latch, own_header)) = prev {
            redirect(f, latch, own_header, this_header);
        }
        if first_header.is_none() {
            first_header = Some(this_header);
        }
        prev = Some((
            bmap(l.latches[0]).expect("the latch is in the loop"),
            this_header,
        ));
    }

    // Final copy's back edge exits the loop: the simulated trip count
    // proves the next header test false.
    let (last_latch, last_header) = prev.unwrap();
    redirect(f, last_latch, last_header, c.exit);

    // Enter the first copy instead of the original loop.
    let first = first_header.unwrap();
    redirect(f, c.entry_pred, header, first);
}

/// Rewrites every `from` successor of `block` to `to`.
fn redirect(f: &mut MirFunction, block: BlockId, from: BlockId, to: BlockId) {
    f.blocks[block.idx()].term.for_each_succ_mut(|s| {
        if *s == from {
            *s = to;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mir::lower_unit;
    use crate::passes::OptConfig;

    fn optimized(src: &str, cfg_: &OptConfig) -> MirFunction {
        let f = crate::SourceFile::new("t.cl", src);
        let mut d = crate::diag::Diagnostics::new();
        let tu = crate::parser::parse(&f, &mut d);
        let unit = crate::sema::analyze(&tu, &mut d).unwrap_or_else(|| panic!("{}", d.render(&f)));
        let mut mu = lower_unit(&unit);
        crate::passes::run(&mut mu, cfg_);
        mu.functions.remove(0)
    }

    fn has_loop(f: &MirFunction) -> bool {
        !cfg::natural_loops(f).is_empty()
    }

    #[test]
    fn small_constant_loop_fully_unrolls() {
        let f = optimized(
            "int f(int a){ int s = 0; for (int i = 0; i < 4; i++) s = s + a; return s; }",
            &OptConfig::all(),
        );
        assert!(!has_loop(&f), "4-trip loop should be unrolled:\n{f:?}");
    }

    #[test]
    fn runtime_bound_loop_stays() {
        let f = optimized(
            "int f(int n){ int s = 0; for (int i = 0; i < n; i++) s = s + 1; return s; }",
            &OptConfig::all(),
        );
        assert!(has_loop(&f));
    }

    #[test]
    fn large_trip_count_stays() {
        let f = optimized(
            "int f(int a){ int s = 0; for (int i = 0; i < 120; i++) s = s + a; return s; }",
            &OptConfig::all(),
        );
        assert!(has_loop(&f), "120-trip loop must stay rolled");
    }

    #[test]
    fn barrier_loops_stay() {
        let f = crate::SourceFile::new(
            "t.cl",
            "__kernel void k(__local int* t){
                for (int i = 0; i < 2; i++) barrier(CLK_LOCAL_MEM_FENCE);
            }",
        );
        let mut d = crate::diag::Diagnostics::new();
        let tu = crate::parser::parse(&f, &mut d);
        let unit = crate::sema::analyze(&tu, &mut d).unwrap_or_else(|| panic!("{}", d.render(&f)));
        let mut mu = lower_unit(&unit);
        crate::passes::run(&mut mu, &OptConfig::all());
        assert!(has_loop(&mu.functions[0]));
    }

    #[test]
    fn down_counting_loop_unrolls() {
        let f = optimized(
            "int f(int a){ int s = 0; for (int i = 8; i > 0; i = i - 2) s = s + a; return s; }",
            &OptConfig::all(),
        );
        assert!(!has_loop(&f));
    }
}
