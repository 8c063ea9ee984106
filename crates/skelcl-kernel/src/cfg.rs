//! Control-flow-graph analyses and cleanup over [`crate::mir`].
//!
//! [`CfgInfo`] bundles what the passes share — predecessor lists, reverse
//! post-order, iterative dominators (Cooper–Harvey–Kennedy) and natural
//! loops — in dense tables refilled in place. The invalidation rule is the
//! whole contract: a pass that changes a terminator or the block list calls
//! [`CfgInfo::invalidate`], and the next reader recomputes; passes that only
//! rewrite instructions leave the bundle valid. [`CfgInfo::simplify`] folds
//! trivially-redundant control flow (branch-to-same-target, empty-block
//! threading, single-predecessor chains, unreachable blocks) and
//! invalidates the bundle only when it changed something.

use crate::mir::{Block, BlockId, MirFunction, Terminator};

/// The CFG analyses of one function, reused across passes and functions.
#[derive(Debug, Default)]
pub struct CfgInfo {
    /// Whether `preds`, `rpo` and `idom` describe the current CFG.
    valid: bool,
    /// Whether `loops` does.
    loops_valid: bool,
    /// Per block, its predecessors: one per edge, unreachable sources
    /// included, in block order.
    preds: Vec<Vec<BlockId>>,
    rpo: Vec<BlockId>,
    /// Position in `rpo`; `u32::MAX` for unreachable blocks.
    rpo_index: Vec<u32>,
    idom: Vec<Option<BlockId>>,
    loops: Vec<NaturalLoop>,
    /// Scratch: DFS stack, block marks, and `simplify`'s per-block tables.
    stack: Vec<(BlockId, bool)>,
    mark: Vec<bool>,
    table: Vec<u32>,
    resolve: Vec<BlockId>,
}

impl CfgInfo {
    /// Marks every analysis stale: the CFG changed.
    pub fn invalidate(&mut self) {
        self.valid = false;
        self.loops_valid = false;
    }

    /// Recomputes predecessors, RPO and dominators if they are stale.
    pub fn update(&mut self, f: &MirFunction) {
        if self.valid {
            return;
        }
        let n = f.blocks.len();
        // Rows past `n` are kept (not dropped) for the next, larger function.
        if self.preds.len() < n {
            self.preds.resize_with(n, Vec::new);
        }
        self.preds[..n].iter_mut().for_each(Vec::clear);
        for (i, b) in f.blocks.iter().enumerate() {
            for s in b.term.successors() {
                self.preds[s.idx()].push(BlockId(i as u32));
            }
        }
        rpo_into(f, &mut self.stack, &mut self.mark, &mut self.rpo);
        self.rpo_index.clear();
        self.rpo_index.resize(n, u32::MAX);
        for (i, b) in self.rpo.iter().enumerate() {
            self.rpo_index[b.idx()] = i as u32;
        }
        self.compute_idom(n);
        self.valid = true;
        self.loops_valid = false;
    }

    fn compute_idom(&mut self, n: usize) {
        let (idom, rpo_index) = (&mut self.idom, &self.rpo_index);
        idom.clear();
        idom.resize(n, None);
        if n == 0 {
            return;
        }
        idom[0] = Some(BlockId(0));
        let mut changed = true;
        while changed {
            changed = false;
            for &bb in self.rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in &self.preds[bb.idx()] {
                    if idom[p.idx()].is_none() {
                        continue; // not yet processed or unreachable
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(mut cur) => {
                            let mut a = p;
                            while a != cur {
                                while rpo_index[a.idx()] > rpo_index[cur.idx()] {
                                    a = idom[a.idx()].expect("processed");
                                }
                                while rpo_index[cur.idx()] > rpo_index[a.idx()] {
                                    cur = idom[cur.idx()].expect("processed");
                                }
                            }
                            a
                        }
                    });
                }
                if new_idom.is_some() && idom[bb.idx()] != new_idom {
                    idom[bb.idx()] = new_idom;
                    changed = true;
                }
            }
        }
    }

    /// Predecessors of `b`, one per edge, unreachable sources included.
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        debug_assert!(self.valid, "stale CFG analysis");
        &self.preds[b.idx()]
    }

    /// Reachable blocks in reverse post-order, entry first.
    pub fn rpo(&self) -> &[BlockId] {
        debug_assert!(self.valid, "stale CFG analysis");
        &self.rpo
    }

    /// The natural loops of `f`, loops sharing a header merged, innermost
    /// first (ascending block count, ties in discovery order), so passes
    /// that walk them in order handle nested loops inside-out.
    pub fn loops(&mut self, f: &MirFunction) -> &[NaturalLoop] {
        self.update(f);
        if !self.loops_valid {
            self.compute_loops(f);
        }
        &self.loops
    }

    fn compute_loops(&mut self, f: &MirFunction) {
        self.loops.clear();
        self.mark.clear();
        self.mark.resize(f.blocks.len(), false);
        let mut stack: Vec<BlockId> = Vec::new();
        for (i, b) in f.blocks.iter().enumerate() {
            let u = BlockId(i as u32);
            if self.idom[i].is_none() {
                continue; // unreachable
            }
            for h in b.term.successors() {
                if !dominates(&self.idom, h, u) {
                    continue;
                }
                // Back edge u -> h: the body is every block that reaches
                // u without passing h, merged into h's loop if it exists.
                let li = match self.loops.iter().position(|l| l.header == h) {
                    Some(li) => {
                        self.loops[li].latches.push(u);
                        li
                    }
                    None => {
                        self.loops.push(NaturalLoop {
                            header: h,
                            latches: vec![u],
                            blocks: vec![h],
                        });
                        self.loops.len() - 1
                    }
                };
                let l = &mut self.loops[li];
                for bb in &l.blocks {
                    self.mark[bb.idx()] = true;
                }
                stack.push(u);
                while let Some(n) = stack.pop() {
                    if !std::mem::replace(&mut self.mark[n.idx()], true) {
                        l.blocks.push(n);
                        stack.extend_from_slice(&self.preds[n.idx()]);
                    }
                }
                for bb in &l.blocks {
                    self.mark[bb.idx()] = false;
                }
            }
        }
        for l in &mut self.loops {
            l.latches.sort();
            l.blocks.sort();
        }
        self.loops.sort_by_key(|l| l.blocks.len());
        self.loops_valid = true;
    }

    /// Folds trivially-redundant control flow until a fixed point:
    ///
    /// 1. `Branch` with identical targets → `Jump`;
    /// 2. edges through empty `Jump`-only blocks are threaded to their
    ///    target (a chain that cycles stops at the first block it revisits);
    /// 3. unreachable blocks are dropped (ids are compacted in order);
    /// 4. every block ending in `Jump(c)` absorbs `c` — and then `c`'s own
    ///    jump target, down the whole chain — while `c` is not the entry and
    ///    has no other predecessor.
    ///
    /// Returns whether anything changed (and if so invalidates the bundle).
    pub fn simplify(&mut self, f: &mut MirFunction) -> bool {
        let mut any = false;
        loop {
            let mut changed = false;
            for b in &mut f.blocks {
                if let Terminator::Branch {
                    then_bb, else_bb, ..
                } = b.term
                {
                    if then_bb == else_bb {
                        b.term = Terminator::Jump(then_bb);
                        changed = true;
                    }
                }
            }
            changed |= self.thread_empty_jumps(f);
            changed |= self.drop_unreachable(f);
            // Absorbed blocks are unreachable; the next round drops them.
            changed |= self.merge_chains(f);
            if !changed {
                break;
            }
            any = true;
        }
        if any {
            self.invalidate();
        }
        any
    }

    fn thread_empty_jumps(&mut self, f: &mut MirFunction) -> bool {
        let n = f.blocks.len();
        // `table[c]` is (1 + ) the last chain start that visited `c`.
        self.table.clear();
        self.table.resize(n, 0);
        self.resolve.clear();
        for i in 0..n {
            let mut cur = BlockId(i as u32);
            while f.blocks[cur.idx()].insts.is_empty() && self.table[cur.idx()] != i as u32 + 1 {
                self.table[cur.idx()] = i as u32 + 1;
                match f.blocks[cur.idx()].term {
                    Terminator::Jump(t) if t != cur => cur = t,
                    _ => break,
                }
            }
            self.resolve.push(cur);
        }
        let mut changed = false;
        for b in &mut f.blocks {
            b.term.for_each_succ_mut(|s| {
                let r = self.resolve[s.idx()];
                changed |= r != *s;
                *s = r;
            });
        }
        changed
    }

    /// Drops the blocks not reachable from the entry, keeping the others
    /// in order.
    fn drop_unreachable(&mut self, f: &mut MirFunction) -> bool {
        let n = f.blocks.len();
        self.mark.clear();
        self.mark.resize(n, false);
        self.mark[0] = true;
        let mut reached = 1;
        self.stack.clear();
        self.stack.push((BlockId(0), false));
        while let Some((b, _)) = self.stack.pop() {
            for s in f.blocks[b.idx()].term.successors() {
                if !std::mem::replace(&mut self.mark[s.idx()], true) {
                    reached += 1;
                    self.stack.push((s, false));
                }
            }
        }
        if reached == n {
            return false;
        }
        self.table.clear();
        let mut next = 0;
        for &keep in &self.mark {
            self.table.push(next);
            next += keep as u32;
        }
        let mut i = 0;
        f.blocks.retain(|_| {
            i += 1;
            self.mark[i - 1]
        });
        for b in &mut f.blocks {
            b.term
                .for_each_succ_mut(|s| *s = BlockId(self.table[s.idx()]));
        }
        true
    }

    /// Step 4 of [`CfgInfo::simplify`], over a CFG without unreachable
    /// blocks; absorbed blocks are left empty and unreachable.
    fn merge_chains(&mut self, f: &mut MirFunction) -> bool {
        self.table.clear();
        self.table.resize(f.blocks.len(), 0);
        for b in &f.blocks {
            for s in b.term.successors() {
                self.table[s.idx()] += 1;
            }
        }
        let mut merged = false;
        for i in 0..f.blocks.len() {
            while let Terminator::Jump(c) = f.blocks[i].term {
                if c.idx() == i || c == BlockId(0) || self.table[c.idx()] != 1 {
                    break;
                }
                let Block { mut insts, term } = std::mem::replace(
                    &mut f.blocks[c.idx()],
                    Block {
                        insts: Vec::new(),
                        term: Terminator::MissingReturn,
                    },
                );
                f.blocks[i].insts.append(&mut insts);
                f.blocks[i].term = term;
                self.table[c.idx()] = 0;
                merged = true;
            }
        }
        merged
    }
}

/// Reverse post-order over the blocks reachable from the entry, into `out`.
fn rpo_into(
    f: &MirFunction,
    stack: &mut Vec<(BlockId, bool)>,
    visited: &mut Vec<bool>,
    out: &mut Vec<BlockId>,
) {
    visited.clear();
    visited.resize(f.blocks.len(), false);
    out.clear();
    // Iterative DFS with an explicit "children pushed" marker.
    stack.clear();
    stack.push((BlockId(0), false));
    while let Some((bb, children_done)) = stack.pop() {
        if children_done {
            out.push(bb);
            continue;
        }
        if visited[bb.idx()] {
            continue;
        }
        visited[bb.idx()] = true;
        stack.push((bb, true));
        for s in f.blocks[bb.idx()].term.successors().rev() {
            if !visited[s.idx()] {
                stack.push((s, false));
            }
        }
    }
    out.reverse();
}

/// Reverse post-order over reachable blocks, starting at the entry.
pub fn reverse_post_order(f: &MirFunction) -> Vec<BlockId> {
    let mut out = Vec::with_capacity(f.blocks.len());
    rpo_into(f, &mut Vec::new(), &mut Vec::new(), &mut out);
    out
}

/// Immediate dominators of every reachable block (`idom[entry] == entry`;
/// unreachable blocks map to `None`).
pub fn dominators(f: &MirFunction) -> Vec<Option<BlockId>> {
    let mut info = CfgInfo::default();
    info.update(f);
    info.idom
}

/// Whether `a` dominates `b` under `idom` (reflexive).
pub fn dominates(idom: &[Option<BlockId>], a: BlockId, b: BlockId) -> bool {
    let mut cur = b;
    loop {
        if cur == a {
            return true;
        }
        match idom[cur.idx()] {
            Some(next) if next != cur => cur = next,
            _ => return false,
        }
    }
}

/// A natural loop: the header plus every block that can reach a back edge
/// without leaving through the header.
#[derive(Debug, Clone)]
pub struct NaturalLoop {
    /// The loop header (target of the back edges).
    pub header: BlockId,
    /// Sources of back edges into the header, ascending.
    pub latches: Vec<BlockId>,
    /// All blocks in the loop, header included, ascending.
    pub blocks: Vec<BlockId>,
}

impl NaturalLoop {
    /// Whether `self` is `other` in a recomputed loop list: loops are
    /// identified by header and latches.
    pub fn same_as(&self, other: &NaturalLoop) -> bool {
        self.header == other.header && self.latches == other.latches
    }
}

/// The natural loops of `f`, as [`CfgInfo::loops`] orders them.
pub fn natural_loops(f: &MirFunction) -> Vec<NaturalLoop> {
    CfgInfo::default().loops(f).to_vec()
}

/// Inserts a preheader block in front of `header`: every edge into the
/// header from outside `loop_blocks` is redirected through a fresh block
/// that jumps to the header. Returns the preheader's id.
pub fn insert_preheader(f: &mut MirFunction, header: BlockId, loop_blocks: &[BlockId]) -> BlockId {
    let pre = BlockId(f.blocks.len() as u32);
    f.blocks.push(Block {
        insts: Vec::new(),
        term: Terminator::Jump(header),
    });
    let mut in_loop = vec![false; f.blocks.len()];
    for b in loop_blocks {
        in_loop[b.idx()] = true;
    }
    in_loop[pre.idx()] = true;
    for (b, inside) in f.blocks.iter_mut().zip(in_loop) {
        if inside {
            continue;
        }
        b.term.for_each_succ_mut(|s| {
            if *s == header {
                *s = pre;
            }
        });
    }
    pre
}

/// [`CfgInfo::simplify`] with a throwaway bundle.
pub fn simplify(f: &mut MirFunction) {
    CfgInfo::default().simplify(f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mir::{Inst, VReg};
    use crate::value::Value;

    fn block(term: Terminator) -> Block {
        Block {
            insts: Vec::new(),
            term,
        }
    }

    fn func(blocks: Vec<Block>) -> MirFunction {
        MirFunction {
            name: "t".into(),
            is_kernel: false,
            param_count: 0,
            local_init: vec![],
            blocks,
            vreg_count: 16,
            returns_void: true,
        }
    }

    #[test]
    fn rpo_starts_at_entry_and_skips_unreachable() {
        let f = func(vec![
            block(Terminator::Jump(BlockId(2))),
            block(Terminator::Return(None)), // unreachable
            block(Terminator::Return(None)),
        ]);
        let rpo = reverse_post_order(&f);
        assert_eq!(rpo, vec![BlockId(0), BlockId(2)]);
    }

    #[test]
    fn dominators_of_diamond() {
        // 0 -> {1, 2} -> 3
        let f = func(vec![
            block(Terminator::Branch {
                cond: VReg(0),
                then_bb: BlockId(1),
                else_bb: BlockId(2),
            }),
            block(Terminator::Jump(BlockId(3))),
            block(Terminator::Jump(BlockId(3))),
            block(Terminator::Return(None)),
        ]);
        let idom = dominators(&f);
        assert_eq!(idom[1], Some(BlockId(0)));
        assert_eq!(idom[2], Some(BlockId(0)));
        assert_eq!(idom[3], Some(BlockId(0)));
        assert!(dominates(&idom, BlockId(0), BlockId(3)));
        assert!(!dominates(&idom, BlockId(1), BlockId(3)));
    }

    #[test]
    fn natural_loop_discovery() {
        // 0 -> 1 (header) -> {2 (body), 3 (exit)}; 2 -> 1.
        let f = func(vec![
            block(Terminator::Jump(BlockId(1))),
            block(Terminator::Branch {
                cond: VReg(0),
                then_bb: BlockId(2),
                else_bb: BlockId(3),
            }),
            block(Terminator::Jump(BlockId(1))),
            block(Terminator::Return(None)),
        ]);
        let loops = natural_loops(&f);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].header, BlockId(1));
        assert_eq!(loops[0].latches, vec![BlockId(2)]);
        let mut blocks = loops[0].blocks.clone();
        blocks.sort();
        assert_eq!(blocks, vec![BlockId(1), BlockId(2)]);
    }

    #[test]
    fn simplify_threads_and_merges() {
        // 0 -> 1 (empty) -> 2; after simplify everything collapses into one
        // block ending in Return.
        let mut f = func(vec![
            block(Terminator::Jump(BlockId(1))),
            block(Terminator::Jump(BlockId(2))),
            block(Terminator::Return(None)),
        ]);
        f.blocks[2].insts.push(Inst::Const {
            dst: VReg(0),
            value: Value::I32(1),
        });
        simplify(&mut f);
        assert_eq!(f.blocks.len(), 1);
        assert!(matches!(f.blocks[0].term, Terminator::Return(None)));
        assert_eq!(f.blocks[0].insts.len(), 1);
    }

    #[test]
    fn simplify_removes_unreachable() {
        let mut f = func(vec![
            block(Terminator::Return(None)),
            block(Terminator::Return(None)),
        ]);
        simplify(&mut f);
        assert_eq!(f.blocks.len(), 1);
    }

    #[test]
    fn preheader_redirects_outside_edges() {
        // 0 -> 1 (header); 2 -> 1 is the back edge.
        let mut f = func(vec![
            block(Terminator::Jump(BlockId(1))),
            block(Terminator::Branch {
                cond: VReg(0),
                then_bb: BlockId(2),
                else_bb: BlockId(3),
            }),
            block(Terminator::Jump(BlockId(1))),
            block(Terminator::Return(None)),
        ]);
        let pre = insert_preheader(&mut f, BlockId(1), &[BlockId(1), BlockId(2)]);
        assert_eq!(f.blocks[0].term, Terminator::Jump(pre));
        assert_eq!(f.blocks[2].term, Terminator::Jump(BlockId(1)));
        assert_eq!(f.blocks[pre.idx()].term, Terminator::Jump(BlockId(1)));
    }
}
