//! Dead-code elimination over the MIR.
//!
//! Two cooperating analyses, iterated to a fixed point:
//!
//! * **dead registers** — an effect-free, non-faulting instruction whose
//!   destination is never used is removed (integer division with an
//!   unknown divisor stays: deleting it could hide a runtime trap);
//! * **dead local stores** — a `SetLocal` to a slot that is never read
//!   again on any path is removed (backward liveness over the CFG).
//!
//! Use counts drive the first: removing an instruction decrements its
//! operands' counts, and an operand whose count reaches zero is visited
//! next, so a dead chain goes in one sweep. A removed store feeds the same
//! worklist through its source. Instructions are only marked while the
//! analyses run, and every block is compacted once at the end.
//!
//! A `Call` whose result is unused keeps its side effects but drops its
//! destination, which later saves the result spill during lowering.

use crate::mir::{Inst, MirFunction, VReg};

use super::{ConstMap, UnitInfo, Workspace};

/// The pass's tables, reused across runs.
#[derive(Debug, Default)]
pub(crate) struct Tables {
    /// Remaining uses per register.
    uses: Vec<u32>,
    /// Position (block, index) of each register's def.
    def_at: Vec<(u32, u32)>,
    /// Per instruction, block after block from `start[b]`: removed.
    dead: Vec<bool>,
    start: Vec<u32>,
    stack: Vec<(u32, u32)>,
    /// Slot bitsets, `words` per block: upward-exposed reads, writes,
    /// live-in and live-out; and one scratch row.
    gen: Vec<u64>,
    kill: Vec<u64>,
    live_in: Vec<u64>,
    live_out: Vec<u64>,
    live: Vec<u64>,
}

/// Runs the pass to a fixed point.
pub(crate) fn run(f: &mut MirFunction, info: &UnitInfo, ws: &mut Workspace) {
    // DCE creates no constants and deletes only unused ones.
    ws.consts.fill(f);
    let (consts, t) = (&ws.consts, &mut ws.dce);
    t.uses.clear();
    t.uses.resize(f.vreg_count as usize, 0);
    t.def_at.clear();
    t.def_at.resize(f.vreg_count as usize, (u32::MAX, 0));
    t.start.clear();
    let mut n = 0;
    for (bi, b) in f.blocks.iter().enumerate() {
        t.start.push(n);
        n += b.insts.len() as u32;
        for (i, inst) in b.insts.iter().enumerate() {
            inst.for_each_use(|u| t.uses[u.0 as usize] += 1);
            if let Some(d) = inst.dst() {
                t.def_at[d.0 as usize] = (bi as u32, i as u32);
            }
        }
        b.term.for_each_use(|u| t.uses[u.0 as usize] += 1);
    }
    t.dead.clear();
    t.dead.resize(n as usize, false);
    for (bi, b) in f.blocks.iter().enumerate() {
        for i in 0..b.insts.len() {
            t.stack.push((bi as u32, i as u32));
            sweep(f, info, consts, t);
        }
    }
    // Only a removed store can make more registers dead (through its
    // source), and only a removed read more stores.
    while remove_dead_stores(f, info, consts, t) {}

    for (b, &start) in f.blocks.iter_mut().zip(&t.start) {
        let mut i = start as usize;
        b.insts.retain(|_| {
            i += 1;
            !t.dead[i - 1]
        });
        // A call whose result is ignored keeps running for its effects
        // but no longer defines a register.
        for inst in &mut b.insts {
            if let Inst::Call { dst, .. } = inst {
                if dst.is_some_and(|d| t.uses[d.0 as usize] == 0) {
                    *dst = None;
                }
            }
        }
    }
}

/// Whether `inst` may go now that `uses` counts its result's readers. A
/// strictly pure call cannot trap or touch memory; with no used result it
/// is dead like any arithmetic.
fn removable(inst: &Inst, uses: &[u32], info: &UnitInfo, consts: &ConstMap) -> bool {
    let unused = |d: VReg| uses[d.0 as usize] == 0;
    if let Inst::Call { dst, func, .. } = inst {
        return info.is_pure(*func) && dst.is_none_or(unused);
    }
    inst.dst().is_some_and(unused)
        && !inst.has_side_effects()
        && !inst.can_fault(|rhs| consts.div_is_safe(rhs))
}

/// Marks dead the removable instructions on the worklist and, following
/// use counts, every def they leave unused.
fn sweep(f: &MirFunction, info: &UnitInfo, consts: &ConstMap, t: &mut Tables) {
    while let Some((b, i)) = t.stack.pop() {
        let inst = &f.blocks[b as usize].insts[i as usize];
        let at = (t.start[b as usize] + i) as usize;
        if t.dead[at] || !removable(inst, &t.uses, info, consts) {
            continue;
        }
        t.dead[at] = true;
        release_uses(inst, t);
    }
}

/// Drops the uses of a removed instruction, queueing defs left unused.
fn release_uses(inst: &Inst, t: &mut Tables) {
    inst.for_each_use(|u| {
        t.uses[u.0 as usize] -= 1;
        if t.uses[u.0 as usize] == 0 && t.def_at[u.0 as usize].0 != u32::MAX {
            t.stack.push(t.def_at[u.0 as usize]);
        }
    });
}

/// Marks dead every live `SetLocal` whose slot is never read again on any
/// path (backward liveness over slot bitsets), then sweeps what their
/// sources leave unused. Returns whether it removed a store.
fn remove_dead_stores(f: &MirFunction, info: &UnitInfo, consts: &ConstMap, t: &mut Tables) -> bool {
    let nblocks = f.blocks.len();
    let words = f.local_init.len().div_ceil(64);
    let bit = |slot: u16| (slot as usize / 64, 1u64 << (slot % 64));
    for v in [&mut t.gen, &mut t.kill, &mut t.live_in, &mut t.live_out] {
        v.clear();
        v.resize(nblocks * words, 0);
    }
    for b in 0..nblocks {
        let dead = &t.dead[t.start[b] as usize..];
        for (inst, _) in f.blocks[b]
            .insts
            .iter()
            .zip(dead)
            .rev()
            .filter(|(_, d)| !**d)
        {
            match inst {
                Inst::GetLocal { slot, .. } => {
                    let (w, m) = bit(*slot);
                    t.gen[b * words + w] |= m;
                }
                Inst::SetLocal { slot, .. } => {
                    let (w, m) = bit(*slot);
                    t.gen[b * words + w] &= !m;
                    t.kill[b * words + w] |= m;
                }
                _ => {}
            }
        }
    }
    // live-in = gen ∪ (live-out ∖ kill), grown to a fixpoint.
    loop {
        let mut changed = false;
        for i in (0..nblocks).rev() {
            for w in 0..words {
                let mut out = 0;
                for s in f.blocks[i].term.successors() {
                    out |= t.live_in[s.idx() * words + w];
                }
                let live = t.gen[i * words + w] | (out & !t.kill[i * words + w]);
                if out != t.live_out[i * words + w] || live != t.live_in[i * words + w] {
                    t.live_out[i * words + w] = out;
                    t.live_in[i * words + w] = live;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut removed = false;
    for b in 0..nblocks {
        // Walk backward, tracking liveness inside the block.
        t.live.clear();
        t.live.extend_from_slice(&t.live_out[b * words..][..words]);
        let start = t.start[b] as usize;
        for i in (0..f.blocks[b].insts.len()).rev() {
            if t.dead[start + i] {
                continue;
            }
            match &f.blocks[b].insts[i] {
                inst @ Inst::SetLocal { slot, .. } => {
                    let (w, m) = bit(*slot);
                    if t.live[w] & m == 0 {
                        t.dead[start + i] = true;
                        removed = true;
                        release_uses(inst, t);
                    }
                    t.live[w] &= !m;
                }
                Inst::GetLocal { slot, .. } => {
                    let (w, m) = bit(*slot);
                    t.live[w] |= m;
                }
                _ => {}
            }
        }
    }
    sweep(f, info, consts, t);
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mir::lower_unit;

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

    fn count(f: &MirFunction, pred: impl Fn(&Inst) -> bool) -> usize {
        f.blocks
            .iter()
            .flat_map(|b| b.insts.iter())
            .filter(|i| pred(i))
            .count()
    }

    #[test]
    fn unused_pure_computation_is_removed() {
        let mut f = lowered("int f(int a){ a * 2; return a; }");
        run(&mut f);
        assert_eq!(count(&f, |i| matches!(i, Inst::Bin { .. })), 0);
    }

    #[test]
    fn unused_variable_store_is_removed() {
        let mut f = lowered("int f(int a){ int t = a * 3; return a; }");
        run(&mut f);
        assert_eq!(count(&f, |i| matches!(i, Inst::SetLocal { .. })), 0);
        assert_eq!(count(&f, |i| matches!(i, Inst::Bin { .. })), 0);
    }

    #[test]
    fn stores_read_in_loops_stay() {
        let mut f =
            lowered("int f(int n){ int s = 0; for (int i = 0; i < n; i++) s = s + 1; return s; }");
        run(&mut f);
        // `s` and `i` stores all survive (read on later iterations).
        assert!(count(&f, |i| matches!(i, Inst::SetLocal { .. })) >= 3);
    }

    #[test]
    fn possible_division_fault_is_kept() {
        let mut f = lowered("int f(int a, int b){ int t = a / b; return a; }");
        run(&mut f);
        assert_eq!(count(&f, |i| matches!(i, Inst::Bin { .. })), 1);
        // But the store of the unused result goes away.
        assert_eq!(count(&f, |i| matches!(i, Inst::SetLocal { .. })), 0);
    }

    #[test]
    fn memory_stores_always_stay() {
        let mut f = lowered("void f(__global int* p){ p[0] = 1; }");
        run(&mut f);
        assert_eq!(count(&f, |i| matches!(i, Inst::StoreMem { .. })), 1);
    }
}
