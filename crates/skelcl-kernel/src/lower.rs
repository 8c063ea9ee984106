//! MIR → stack-bytecode lowering with greedy register allocation.
//!
//! A naive lowering would spill every intermediate value through
//! `LoadLocal`/`StoreLocal` pairs. This one schedules each basic block
//! against a model of the VM's operand stack:
//!
//! * **rematerialized** values — constants, reads of slots that are never
//!   written (parameters, `__local` arrays), and reads of written slots
//!   whose every use happens before the slot's next store — are re-emitted
//!   at each use and never occupy a slot or a stack entry;
//! * **deferred chains** — pure, non-faulting, single-use computations
//!   whose operands are themselves rematerializable (array-index math:
//!   `GetLocal → Convert → PtrOffset`) — are emitted at their use site, so
//!   operands arrive on the stack in exactly the order the consumer pops
//!   them;
//! * **stack-resident** values — defined and used exactly once in the same
//!   block — ride the operand stack from def to use and never touch a
//!   local slot;
//! * everything else gets a dedicated **spill slot** appended after the
//!   function's named locals (written at the def, loaded at each use).
//!
//! When an instruction's operands are not already on top of the stack in
//! the right order, residents are flushed to spill slots and the operands
//! reloaded — a correctness fallback that keeps the scheduler greedy and
//! linear. Blocks are laid out in reverse post-order with fall-through
//! jump elision; the resulting bytecode retires most `LoadLocal`/`StoreLocal`
//! traffic, which also exposes longer fusable chains to the
//! superinstruction decoder.

use std::collections::HashMap;

use crate::cfg;
use crate::decode::Decoded;
use crate::hir;
use crate::ir::{FuncCode, Op};
use crate::mir::{BlockId, Inst, MirFunction, MirUnit, Terminator, VReg};
use crate::program::{KernelInfo, KernelParam, KernelParamKind, LocalArrayBinding, Program};
use crate::types::{AddressSpace, Type};
use crate::value::Value;

/// Assembles an executable [`Program`] from an optimized MIR unit.
///
/// `hir_unit` supplies the kernel launch metadata (parameter kinds,
/// `__local` array layout).
pub fn emit_unit(mir: &MirUnit, hir_unit: &hir::Unit, source_name: &str) -> Program {
    let mut functions = Vec::with_capacity(mir.functions.len());
    let mut kernels = Vec::new();
    for (idx, (mf, hf)) in mir.functions.iter().zip(&hir_unit.functions).enumerate() {
        functions.push(emit_function(mf));
        if hf.is_kernel {
            // Conservative: any barrier site in the program may be reached
            // from any kernel (helpers are shared), so every kernel reports
            // the program-wide total. It is launch metadata for hosts and
            // tests; the executor parks lanes wherever a barrier is met.
            kernels.push(kernel_info(hf, idx as u16, mir.barrier_count));
        }
    }
    let program = Program::from_parts(functions, kernels, source_name);
    // The executor gives every operand-stack position a fixed register
    // slot and every arithmetic head a loop for its operands' type, which
    // needs a static height and static types before every op.
    if cfg!(debug_assertions) {
        for (i, f) in program.functions().iter().enumerate() {
            if let (Decoded::Fault(defect), _) = &program.decoded_fn(i).code[0] {
                panic!(
                    "lowering broke the type rule: {defect}\n{}",
                    f.disassemble()
                );
            }
        }
    }
    program
}

/// Builds the launch metadata of one `__kernel` function (parameter
/// binding kinds, `__local` array layout).
fn kernel_info(f: &hir::Function, func: u16, barrier_count: u32) -> KernelInfo {
    let params = f
        .params()
        .iter()
        .map(|p| KernelParam {
            name: p.name.clone(),
            kind: match p.ty {
                Type::Scalar(s) => KernelParamKind::Scalar(s),
                Type::Pointer {
                    pointee,
                    space: AddressSpace::Global,
                    is_const,
                } => KernelParamKind::GlobalBuffer {
                    elem: pointee,
                    is_const,
                },
                Type::Pointer {
                    pointee,
                    space: AddressSpace::Local,
                    ..
                } => KernelParamKind::LocalBuffer { elem: pointee },
                other => unreachable!("sema rejects kernel parameter type {other}"),
            },
        })
        .collect();

    let mut offset = 0u32;
    let mut local_arrays = Vec::new();
    for (id, decl) in f.local_arrays() {
        let hir::LocalArray { elem, len } = decl.local_array.expect("filtered");
        let align = elem.size_bytes() as u32;
        offset = offset.div_ceil(align) * align;
        let byte_len = (len as u32) * align;
        local_arrays.push(LocalArrayBinding {
            slot: id.0 as u16,
            byte_offset: offset,
            byte_len,
        });
        offset += byte_len;
    }

    KernelInfo {
        name: f.name.clone(),
        func,
        params,
        local_arrays,
        static_local_bytes: offset,
        barrier_count,
    }
}

/// How a register's value is obtained at a use site.
#[derive(Debug, Clone, Copy)]
enum Storage {
    /// Re-emit `Const` at each use.
    RematConst(Value),
    /// Re-emit `LoadLocal` at each use: the slot is either never written,
    /// or every use was proven to precede the slot's next store.
    RematLocal(u16),
    /// A pure single-use computation emitted at its use site; the payload
    /// locates the defining instruction.
    Chain(BlockId, usize),
    /// Load from a dedicated spill slot.
    Spilled(u16),
    /// On the operand stack between its def and its single use.
    Stack,
}

/// Lowers one function to stack bytecode.
pub fn emit_function(f: &MirFunction) -> FuncCode {
    FnEmit::new(f).run()
}

/// Whether `inst` may be emitted at its use site instead of its program
/// position: pure and non-faulting (the same fault model the passes use —
/// division only with a known-safe constant divisor), so reordering it
/// past stores, calls and barriers is unobservable.
fn deferrable(inst: &Inst, const_val: &[Option<Value>]) -> bool {
    match inst {
        Inst::Un { .. }
        | Inst::Cmp { .. }
        | Inst::Convert { .. }
        | Inst::ToBool { .. }
        | Inst::PtrOffset { .. }
        | Inst::WorkItem { .. } => true,
        Inst::Bin {
            op: hir::BinOp::Div | hir::BinOp::Rem,
            rhs,
            ..
        } => match const_val[rhs.0 as usize] {
            Some(Value::F32(_) | Value::F64(_)) => true,
            Some(v) => !matches!(v, Value::Ptr(_)) && v.as_i64() != 0,
            None => false,
        },
        Inst::Bin { .. } => true,
        _ => false,
    }
}

/// The order in which [`FnEmit::inst`] pushes an instruction's operands
/// onto the stack (bottom first). Matches `for_each_use` except for
/// `StoreMem`, whose VM op pops the pointer first.
fn push_order(inst: &Inst) -> Vec<VReg> {
    let mut v = Vec::new();
    match inst {
        Inst::StoreMem { ptr, value, .. } => {
            v.push(*value);
            v.push(*ptr);
        }
        _ => inst.for_each_use(|u| v.push(u)),
    }
    v
}

/// What a value's single consumer wants from it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Demand {
    /// Push at the def; the consumer finds it on the stack in order.
    Stack,
    /// Do not occupy the stack; rematerialize or chain at the use site.
    Defer,
}

struct FnEmit<'a> {
    f: &'a MirFunction,
    code: Vec<Op>,
    local_init: Vec<Value>,
    /// Total use count per register (instructions + terminators).
    use_count: Vec<u32>,
    /// Single-use position per register: `(block, index)` where the
    /// terminator counts as index `insts.len()`. Only meaningful when
    /// `use_count == 1`.
    single_use_at: Vec<Option<(BlockId, usize)>>,
    storage: Vec<Option<Storage>>,
    /// Model of the VM operand stack between instructions (resident
    /// registers only; operand pushes are transient within one
    /// instruction).
    stack: Vec<VReg>,
    /// Emitted jump indices awaiting their target block's address.
    patches: Vec<(usize, BlockId)>,
    block_pc: HashMap<BlockId, u32>,
}

impl<'a> FnEmit<'a> {
    fn new(f: &'a MirFunction) -> Self {
        let n = f.vreg_count as usize;
        // Every use position and the def position of each register (the
        // terminator counts as index `insts.len()`).
        let mut uses: Vec<Vec<(BlockId, usize)>> = vec![Vec::new(); n];
        let mut def_at: Vec<Option<(BlockId, usize)>> = vec![None; n];
        for (bi, b) in f.blocks.iter().enumerate() {
            let bb = BlockId(bi as u32);
            for (i, inst) in b.insts.iter().enumerate() {
                inst.for_each_use(|u| uses[u.0 as usize].push((bb, i)));
                if let Some(d) = inst.dst() {
                    def_at[d.0 as usize] = Some((bb, i));
                }
            }
            b.term
                .for_each_use(|u| uses[u.0 as usize].push((bb, b.insts.len())));
        }
        let use_count: Vec<u32> = uses.iter().map(|u| u.len() as u32).collect();
        let single_use_at: Vec<Option<(BlockId, usize)>> = uses
            .iter()
            .map(|u| if u.len() == 1 { Some(u[0]) } else { None })
            .collect();

        // Slots written anywhere in the function; reads of the rest can be
        // re-emitted at every use site unconditionally.
        let mut written = vec![false; f.local_init.len()];
        for b in &f.blocks {
            for inst in &b.insts {
                if let Inst::SetLocal { slot, .. } = inst {
                    written[*slot as usize] = true;
                }
            }
        }

        // Constant-defined registers (for the chain division-safety test).
        let mut const_val: Vec<Option<Value>> = vec![None; n];
        for b in &f.blocks {
            for inst in &b.insts {
                if let Inst::Const { dst, value } = inst {
                    const_val[dst.0 as usize] = Some(*value);
                }
            }
        }

        let mut storage: Vec<Option<Storage>> = vec![None; n];
        // Constrained remat leaves per register: `(slot, def index)` pairs
        // whose slot must see no store between the def and the (possibly
        // deferred) emission point. Written-slot reads carry their own
        // position; chains accumulate their operands' leaves transitively.
        let mut leaves: Vec<Vec<(u16, usize)>> = vec![Vec::new(); n];
        // What each value's single consumer asked for (demand-driven: the
        // consumer decides before its operands are classified).
        let mut demand: Vec<Option<Demand>> = vec![None; n];
        for (bi, b) in f.blocks.iter().enumerate() {
            let bb = BlockId(bi as u32);
            let mut set_pos: HashMap<u16, Vec<usize>> = HashMap::new();
            for (i, inst) in b.insts.iter().enumerate() {
                if let Inst::SetLocal { slot, .. } = inst {
                    set_pos.entry(*slot).or_default().push(i);
                }
            }
            // No store to `slot` strictly between positions `lo` and `hi`.
            let clear = |set_pos: &HashMap<u16, Vec<usize>>, slot: u16, lo: usize, hi: usize| {
                set_pos
                    .get(&slot)
                    .is_none_or(|ps| !ps.iter().any(|&p| p > lo && p < hi))
            };
            // An operand the consumer at `pos` may direct: defined in this
            // block before `pos` and used nowhere else. Returns the def
            // index.
            let eligible = |o: VReg, pos: usize| -> Option<usize> {
                match (def_at[o.0 as usize], single_use_at[o.0 as usize]) {
                    (Some((db, di)), Some((ub, ui)))
                        if db == bb && ub == bb && ui == pos && di < pos =>
                    {
                        Some(di)
                    }
                    _ => None,
                }
            };
            // A consumer emitted at `pos` pops its operands in push order:
            // the longest prefix whose defs appear in increasing order can
            // ride the stack (each lands exactly where it is popped); the
            // rest must stay off the stack and be re-created at the use.
            let demand_prefix = |demand: &mut Vec<Option<Demand>>, ops: &[VReg], pos: usize| {
                let mut last_def: Option<usize> = None;
                let mut in_prefix = true;
                for &o in ops {
                    match eligible(o, pos) {
                        Some(di) => {
                            if in_prefix && last_def.is_none_or(|l| di > l) {
                                demand[o.0 as usize] = Some(Demand::Stack);
                                last_def = Some(di);
                            } else {
                                in_prefix = false;
                                demand[o.0 as usize] = Some(Demand::Defer);
                            }
                        }
                        None => in_prefix = false,
                    }
                }
            };

            // --- Backward demand pass: consumers first. ---
            let mut term_ops = Vec::new();
            b.term.for_each_use(|u| term_ops.push(u));
            demand_prefix(&mut demand, &term_ops, b.insts.len());
            for (i, inst) in b.insts.iter().enumerate().rev() {
                let ops = push_order(inst);
                let mut chained = false;
                match inst {
                    Inst::Const { dst, value } => {
                        if demand[dst.0 as usize] != Some(Demand::Stack) {
                            storage[dst.0 as usize] = Some(Storage::RematConst(*value));
                        }
                    }
                    Inst::GetLocal { dst, slot } => {
                        let d = dst.0 as usize;
                        if demand[d] != Some(Demand::Stack) {
                            if !written[*slot as usize] {
                                storage[d] = Some(Storage::RematLocal(*slot));
                            } else if !uses[d].is_empty()
                                && uses[d]
                                    .iter()
                                    .all(|&(ub, ui)| ub == bb && clear(&set_pos, *slot, i, ui))
                            {
                                // Re-reading the slot at each use observes
                                // the same value the original read did.
                                storage[d] = Some(Storage::RematLocal(*slot));
                                leaves[d].push((*slot, i));
                            }
                        }
                    }
                    _ => {
                        if let Some(dst) = inst.dst() {
                            let d = dst.0 as usize;
                            if demand[d] == Some(Demand::Defer) && deferrable(inst, &const_val) {
                                storage[d] = Some(Storage::Chain(bb, i));
                                chained = true;
                            }
                        }
                    }
                }
                if chained {
                    // A chain's operands are re-created at its emission
                    // point; none of them may ride the stack.
                    for &o in &ops {
                        if eligible(o, i).is_some() {
                            demand[o.0 as usize] = Some(Demand::Defer);
                        }
                    }
                } else {
                    demand_prefix(&mut demand, &ops, i);
                }
            }

            // --- Forward validation: every chain operand must be
            // obtainable at the use site (remat or another chain — a
            // stack-resident operand would be buried by then), and remat
            // leaves must survive to the chain's emission point. Demotions
            // cascade: a demoted operand un-chains its consumer too. ---
            for inst in &b.insts {
                let Some(dst) = inst.dst() else { continue };
                let d = dst.0 as usize;
                if !matches!(storage[d], Some(Storage::Chain(..))) {
                    continue;
                }
                let ui = match single_use_at[d] {
                    Some((_, ui)) => ui,
                    None => unreachable!("chained value without a single use"),
                };
                let mut ls: Vec<(u16, usize)> = Vec::new();
                let mut ok = true;
                inst.for_each_use(|o| match storage[o.0 as usize] {
                    Some(Storage::RematConst(_)) => {}
                    Some(Storage::RematLocal(_)) | Some(Storage::Chain(..)) => {
                        ls.extend(leaves[o.0 as usize].iter().copied());
                    }
                    _ => ok = false,
                });
                if ok && ls.iter().all(|&(slot, li)| clear(&set_pos, slot, li, ui)) {
                    leaves[d] = ls;
                } else {
                    storage[d] = None;
                }
            }
        }

        // --- Slot coalescing: for `v = expr; SetLocal s, v` (the store
        // immediately after the def, and the first use of `v`), home `v`
        // in `s` itself instead of a fresh spill slot: the def stores
        // straight into the variable, the `SetLocal` becomes a no-op, and
        // later uses of `v` read `s`. Sound because the emitted store sits
        // exactly where the original one was (no instruction separates def
        // and store, so every remat/chain window computed above stays
        // valid) and no other store to `s` intervenes before `v`'s last
        // use. Restricted to uses within the def's block so the
        // no-intervening-store check stays local.
        for (bi, b) in f.blocks.iter().enumerate() {
            let bb = BlockId(bi as u32);
            let mut store_pos: HashMap<u16, Vec<usize>> = HashMap::new();
            for (i, inst) in b.insts.iter().enumerate() {
                if let Inst::SetLocal { slot, .. } = inst {
                    store_pos.entry(*slot).or_default().push(i);
                }
            }
            for (i, inst) in b.insts.iter().enumerate() {
                let Inst::SetLocal { slot, src } = inst else {
                    continue;
                };
                let v = src.0 as usize;
                if use_count[v] < 2 || storage[v].is_some() {
                    continue;
                }
                if i == 0 || def_at[v] != Some((bb, i - 1)) {
                    continue;
                }
                let us = &uses[v];
                if us.iter().any(|&(ub, _)| ub != bb) {
                    continue;
                }
                let first = us.iter().map(|&(_, ui)| ui).min();
                let last = us.iter().map(|&(_, ui)| ui).max().unwrap_or(i);
                if first != Some(i) {
                    continue;
                }
                let clobbered = store_pos
                    .get(slot)
                    .is_some_and(|ps| ps.iter().any(|&p| p > i && p < last));
                if !clobbered {
                    storage[v] = Some(Storage::Spilled(*slot));
                }
            }
        }

        FnEmit {
            f,
            code: Vec::new(),
            local_init: f.local_init.clone(),
            use_count,
            single_use_at,
            storage,
            stack: Vec::new(),
            patches: Vec::new(),
            block_pc: HashMap::new(),
        }
    }

    fn run(mut self) -> FuncCode {
        let order = cfg::reverse_post_order(self.f);
        for (pos, &bb) in order.iter().enumerate() {
            self.block_pc.insert(bb, self.code.len() as u32);
            let next = order.get(pos + 1).copied();
            self.block(bb, next);
        }
        for (idx, target) in std::mem::take(&mut self.patches) {
            let pc = self.block_pc[&target];
            match &mut self.code[idx] {
                Op::Jump(t) | Op::JumpIfFalse(t) | Op::JumpIfTrue(t) => *t = pc,
                other => unreachable!("patched a non-jump {other}"),
            }
        }
        FuncCode {
            name: self.f.name.clone(),
            param_count: self.f.param_count,
            local_init: self.local_init,
            code: self.code,
            returns_void: self.f.returns_void,
        }
    }

    fn block(&mut self, bb: BlockId, next: Option<BlockId>) {
        debug_assert!(self.stack.is_empty());
        let block = &self.f.blocks[bb.idx()];
        for (i, inst) in block.insts.iter().enumerate() {
            self.inst(inst, bb, i);
        }
        match &block.term {
            Terminator::Jump(t) => {
                self.jump_to(*t, next, Op::Jump);
            }
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                self.operands(&[*cond]);
                self.consume(1);
                if next == Some(*then_bb) {
                    self.jump_patch(*else_bb, Op::JumpIfFalse);
                } else if next == Some(*else_bb) {
                    self.jump_patch(*then_bb, Op::JumpIfTrue);
                } else {
                    self.jump_patch(*else_bb, Op::JumpIfFalse);
                    self.jump_to(*then_bb, next, Op::Jump);
                }
            }
            Terminator::Return(Some(v)) => {
                self.operands(&[*v]);
                self.consume(1);
                self.code.push(Op::Return);
            }
            Terminator::Return(None) => self.code.push(Op::ReturnVoid),
            Terminator::MissingReturn => self.code.push(Op::MissingReturn),
            Terminator::Trap { code } => {
                self.operands(&[*code]);
                self.consume(1);
                self.code.push(Op::Trap);
            }
        }
        debug_assert!(
            self.stack.is_empty(),
            "{}: resident values left at end of {bb:?}: {:?}",
            self.f.name,
            self.stack
        );
        // Defensive: if a resident somehow survives (it cannot if every
        // single-use def is consumed in-block), spill it so the stack
        // discipline holds in release builds too.
        if !self.stack.is_empty() {
            self.flush();
        }
    }

    fn inst(&mut self, inst: &Inst, bb: BlockId, idx: usize) {
        // Deferred chains are emitted at their use site.
        if let Some(d) = inst.dst() {
            if matches!(self.storage[d.0 as usize], Some(Storage::Chain(..))) {
                return;
            }
        }
        match inst {
            Inst::Const { dst, value } => {
                // Rematerialized constants emit nothing here; stack-bound
                // ones push at the def so the consumer pops them in order.
                if self.storage[dst.0 as usize].is_none() {
                    self.code.push(Op::Const(*value));
                    self.place(*dst, bb, idx);
                }
            }
            Inst::GetLocal { dst, slot } => {
                if matches!(self.storage[dst.0 as usize], Some(Storage::RematLocal(_))) {
                    return;
                }
                self.code.push(Op::LoadLocal(*slot));
                self.place(*dst, bb, idx);
            }
            Inst::SetLocal { slot, src } => {
                // Storing a value back into the slot it already lives in is
                // a no-op: slot coalescing arranges this for
                // `v = expr; local = v`, and a rematerialized read stored
                // back to its own slot hits it too.
                if matches!(self.storage[src.0 as usize],
                    Some(Storage::Spilled(s) | Storage::RematLocal(s)) if s == *slot)
                {
                    return;
                }
                self.operands(&[*src]);
                self.consume(1);
                self.code.push(Op::StoreLocal(*slot));
            }
            Inst::Un { dst, op, src } => {
                self.operands(&[*src]);
                self.consume(1);
                self.code.push(Op::Un(*op));
                self.place(*dst, bb, idx);
            }
            Inst::Bin { dst, op, lhs, rhs } => {
                self.operands(&[*lhs, *rhs]);
                self.consume(2);
                self.code.push(Op::Bin(*op));
                self.place(*dst, bb, idx);
            }
            Inst::Cmp { dst, op, lhs, rhs } => {
                self.operands(&[*lhs, *rhs]);
                self.consume(2);
                self.code.push(Op::Cmp(*op));
                self.place(*dst, bb, idx);
            }
            Inst::Convert { dst, to, src } => {
                self.operands(&[*src]);
                self.consume(1);
                self.code.push(Op::Convert(*to));
                self.place(*dst, bb, idx);
            }
            Inst::ToBool { dst, src } => {
                self.operands(&[*src]);
                self.consume(1);
                self.code.push(Op::ToBool);
                self.place(*dst, bb, idx);
            }
            Inst::Call {
                dst,
                func,
                args,
                returns_value,
            } => {
                self.operands(args);
                self.consume(args.len());
                self.code.push(Op::Call {
                    func: *func,
                    argc: args.len() as u8,
                });
                if *returns_value {
                    match dst {
                        Some(d) => self.place(*d, bb, idx),
                        None => self.code.push(Op::Pop),
                    }
                }
            }
            Inst::CallPure { dst, builtin, args } => {
                self.operands(args);
                self.consume(args.len());
                self.code.push(Op::CallPure(*builtin, args.len() as u8));
                self.place(*dst, bb, idx);
            }
            Inst::WorkItem { dst, builtin, dim } => {
                if let Some(d) = dim {
                    self.operands(&[*d]);
                    self.consume(1);
                }
                self.code.push(Op::WorkItem(*builtin));
                self.place(*dst, bb, idx);
            }
            Inst::Barrier { id } => self.code.push(Op::Barrier { id: *id }),
            Inst::LoadMem { dst, ty, ptr } => {
                self.operands(&[*ptr]);
                self.consume(1);
                self.code.push(Op::LoadMem(*ty));
                self.place(*dst, bb, idx);
            }
            Inst::StoreMem { ty, ptr, value } => {
                // The VM pops the pointer first, then the value.
                self.operands(&[*value, *ptr]);
                self.consume(2);
                self.code.push(Op::StoreMem(*ty));
            }
            Inst::PtrOffset {
                dst,
                size,
                ptr,
                count,
            } => {
                self.operands(&[*ptr, *count]);
                self.consume(2);
                self.code.push(Op::PtrOffset(*size));
                self.place(*dst, bb, idx);
            }
            Inst::PtrDiff {
                dst,
                size,
                lhs,
                rhs,
            } => {
                self.operands(&[*lhs, *rhs]);
                self.consume(2);
                self.code.push(Op::PtrDiff(*size));
                self.place(*dst, bb, idx);
            }
        }
    }

    /// Arranges `ops` on top of the operand stack, in order (last on top).
    fn operands(&mut self, ops: &[VReg]) {
        // Longest stack suffix already matching a prefix of `ops`.
        let mut k = 0;
        let max = ops.len().min(self.stack.len());
        for kk in (1..=max).rev() {
            if self.stack[self.stack.len() - kk..] == ops[..kk] {
                k = kk;
                break;
            }
        }
        // A remaining operand buried in the stack cannot be re-pushed
        // (residents are single-use); flush everything to slots and reload.
        if ops[k..].iter().any(|v| self.stack.contains(v)) {
            self.flush();
            k = 0;
        }
        for &v in &ops[k..] {
            self.materialize(v);
        }
    }

    /// Pops `n` operand entries off the stack model (the emitted op
    /// consumes them on the real stack).
    fn consume(&mut self, n: usize) {
        let keep = self.stack.len().saturating_sub(n);
        self.stack.truncate(keep);
    }

    /// Pushes one copy of `v` onto the real stack (and the model).
    fn materialize(&mut self, v: VReg) {
        self.emit_value(v);
        self.stack.push(v);
    }

    /// Emits code leaving exactly one copy of `v` on the real stack. Chain
    /// operands are transient (produced and consumed within one emission),
    /// so the resident model is untouched.
    fn emit_value(&mut self, v: VReg) {
        match self.storage[v.0 as usize] {
            Some(Storage::RematConst(c)) => self.code.push(Op::Const(c)),
            Some(Storage::RematLocal(slot)) | Some(Storage::Spilled(slot)) => {
                self.code.push(Op::LoadLocal(slot));
            }
            Some(Storage::Chain(b, i)) => {
                let f = self.f;
                match &f.blocks[b.idx()].insts[i] {
                    Inst::Un { op, src, .. } => {
                        self.emit_value(*src);
                        self.code.push(Op::Un(*op));
                    }
                    Inst::Bin { op, lhs, rhs, .. } => {
                        self.emit_value(*lhs);
                        self.emit_value(*rhs);
                        self.code.push(Op::Bin(*op));
                    }
                    Inst::Cmp { op, lhs, rhs, .. } => {
                        self.emit_value(*lhs);
                        self.emit_value(*rhs);
                        self.code.push(Op::Cmp(*op));
                    }
                    Inst::Convert { to, src, .. } => {
                        self.emit_value(*src);
                        self.code.push(Op::Convert(*to));
                    }
                    Inst::ToBool { src, .. } => {
                        self.emit_value(*src);
                        self.code.push(Op::ToBool);
                    }
                    Inst::PtrOffset {
                        size, ptr, count, ..
                    } => {
                        self.emit_value(*ptr);
                        self.emit_value(*count);
                        self.code.push(Op::PtrOffset(*size));
                    }
                    Inst::WorkItem { builtin, dim, .. } => {
                        if let Some(d) = dim {
                            self.emit_value(*d);
                        }
                        self.code.push(Op::WorkItem(*builtin));
                    }
                    other => unreachable!("non-deferrable instruction {other:?} in a chain"),
                }
            }
            Some(Storage::Stack) | None => {
                unreachable!("{}: operand {v:?} has no home", self.f.name)
            }
        }
    }

    /// Decides where the value just produced on top of the stack lives.
    fn place(&mut self, dst: VReg, bb: BlockId, idx: usize) {
        let uses = self.use_count[dst.0 as usize];
        if uses == 0 {
            // Result of an instruction kept only for its effects or faults.
            self.code.push(Op::Pop);
            return;
        }
        if uses == 1 {
            if let Some((ub, ui)) = self.single_use_at[dst.0 as usize] {
                if ub == bb && ui > idx {
                    self.storage[dst.0 as usize] = Some(Storage::Stack);
                    self.stack.push(dst);
                    return;
                }
            }
        }
        let slot = self.spill_slot(dst);
        self.code.push(Op::StoreLocal(slot));
    }

    /// The spill slot of `dst`, allocated on first demand.
    fn spill_slot(&mut self, dst: VReg) -> u16 {
        if let Some(Storage::Spilled(slot)) = self.storage[dst.0 as usize] {
            return slot;
        }
        let slot = self.local_init.len() as u16;
        // Spill slots are always written before they are read (a def
        // dominates its uses), so the init value is arbitrary.
        self.local_init.push(Value::I64(0));
        self.storage[dst.0 as usize] = Some(Storage::Spilled(slot));
        slot
    }

    /// Spills every resident to a slot, top of stack first.
    fn flush(&mut self) {
        let residents: Vec<VReg> = self.stack.drain(..).collect();
        for &v in residents.iter().rev() {
            let slot = self.spill_slot(v);
            self.code.push(Op::StoreLocal(slot));
        }
    }

    /// Emits a jump to `target` unless it is the fall-through block.
    fn jump_to(&mut self, target: BlockId, next: Option<BlockId>, make: fn(u32) -> Op) {
        if next == Some(target) {
            return;
        }
        self.jump_patch(target, make);
    }

    fn jump_patch(&mut self, target: BlockId, make: fn(u32) -> Op) {
        self.patches.push((self.code.len(), target));
        self.code.push(make(0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::OptConfig;
    use crate::types::ScalarType;
    use crate::value::{Ptr, UNINIT_BUFFER};

    fn compile_mir(src: &str, cfg: &OptConfig) -> Program {
        crate::compile_with_config("t.cl", src, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn expression_chain_rides_the_stack() {
        let p = compile_mir(
            "int f(int a, int b){ return (a + b) * (a - b); }",
            &OptConfig::all(),
        );
        // Register form: two loads of `a`/`b` per operand (params are
        // remat) and zero stores.
        let stores = p.functions()[0]
            .code
            .iter()
            .filter(|op| matches!(op, Op::StoreLocal(_)))
            .count();
        assert_eq!(stores, 0, "{}", p.functions()[0].disassemble());
    }

    #[test]
    fn optimized_pipeline_reduces_local_traffic() {
        let src = "__kernel void blurish(__global const float* in, __global float* out, int n){
            int gid = (int)get_global_id(0);
            float acc = 0.0f;
            for (int d = -1; d <= 1; d++) {
                int j = gid + d;
                if (j < 0) j = 0;
                if (j > n - 1) j = n - 1;
                acc = acc + in[j];
            }
            out[gid] = acc / 3.0f;
        }";
        let none = compile_mir(src, &OptConfig::none());
        let opt = compile_mir(src, &OptConfig::all());
        // Static instruction counts are not comparable (unrolling trades
        // code size for executed ops), so run one work-item and compare
        // the executed counters.
        use crate::types::AddressSpace;
        use crate::value::Ptr;
        use crate::vm::{CostCounters, HostMemory, ItemGeometry, WorkItem};
        let run = |p: &Program, reference: bool| -> CostCounters {
            let mut mem = HostMemory::new();
            let input = mem.add_buffer(vec![0x3fu8; 16]);
            let output = mem.add_buffer(vec![0u8; 16]);
            let args = [
                Value::Ptr(Ptr {
                    space: AddressSpace::Global,
                    buffer: input,
                    byte_offset: 0,
                }),
                Value::Ptr(Ptr {
                    space: AddressSpace::Global,
                    buffer: output,
                    byte_offset: 0,
                }),
                Value::I32(4),
            ];
            let k = p.kernel("blurish").unwrap();
            let mut item = WorkItem::new(p, k.func, &args, ItemGeometry::single());
            if reference {
                item.run_reference(&mem, &mut []).unwrap();
            } else {
                item.run(&mem, &mut []).unwrap();
            }
            item.counters
        };
        let (n, o) = (run(&none, true), run(&opt, false));
        assert!(
            o.ops < n.ops,
            "opt {} !< none {} executed ops",
            o.ops,
            n.ops
        );
    }

    #[test]
    fn constants_never_occupy_slots() {
        let p = compile_mir("int f(int a){ return a + 2 * 3; }", &OptConfig::all());
        let f = &p.functions()[0];
        // `2 * 3` folds; the 6 is rematerialized straight into the add.
        assert!(
            f.code
                .iter()
                .any(|op| matches!(op, Op::Const(Value::I32(6)))),
            "{}",
            f.disassemble()
        );
        assert_eq!(f.local_init.len(), 1, "{}", f.disassemble());
    }

    #[test]
    fn unoptimized_mir_still_lowers_correctly() {
        // No passes at all: lowering alone must produce runnable code.
        let p = compile_mir(
            "int f(int n){ int s = 0; for (int i = 0; i < n; i++) s = s + i; return s; }",
            &OptConfig::none(),
        );
        assert!(!p.functions()[0].code.is_empty());
    }

    #[test]
    fn kernel_param_kinds() {
        let p = compile_mir(
            "__kernel void k(__global float* in, __global char* out, __local int* scratch, float s, int n){ }",
            &OptConfig::none(),
        );
        let k = p.kernel("k").unwrap();
        assert_eq!(k.params.len(), 5);
        assert_eq!(
            k.params[0].kind,
            KernelParamKind::GlobalBuffer {
                elem: ScalarType::Float,
                is_const: false
            }
        );
        assert_eq!(
            k.params[2].kind,
            KernelParamKind::LocalBuffer {
                elem: ScalarType::Int
            }
        );
        assert_eq!(k.params[3].kind, KernelParamKind::Scalar(ScalarType::Float));
    }

    #[test]
    fn local_arrays_are_laid_out_aligned() {
        let p = compile_mir(
            "__kernel void k(){
                __local char small[3];
                __local float tile[8];
                __local char tail[1];
            }",
            &OptConfig::none(),
        );
        let k = p.kernel("k").unwrap();
        assert_eq!(k.local_arrays.len(), 3);
        assert_eq!(k.local_arrays[0].byte_offset, 0);
        assert_eq!(k.local_arrays[0].byte_len, 3);
        // float array aligned to 4.
        assert_eq!(k.local_arrays[1].byte_offset, 4);
        assert_eq!(k.local_arrays[1].byte_len, 32);
        assert_eq!(k.local_arrays[2].byte_offset, 36);
        assert_eq!(k.static_local_bytes, 37);
    }

    #[test]
    fn barrier_sites_get_unique_ids() {
        let p = compile_mir(
            "__kernel void k(){
                barrier(CLK_LOCAL_MEM_FENCE);
                barrier(CLK_LOCAL_MEM_FENCE);
            }",
            &OptConfig::none(),
        );
        let ids: Vec<u32> = p.functions()[0]
            .code
            .iter()
            .filter_map(|op| match op {
                Op::Barrier { id } => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(ids.len(), 2);
        assert_ne!(ids[0], ids[1]);
        assert_eq!(p.kernel("k").unwrap().barrier_count, 2);
    }

    #[test]
    fn uninitialized_pointer_sentinel() {
        let p = compile_mir("void f(){ float* p; }", &OptConfig::none());
        let f = &p.functions()[0];
        assert_eq!(
            f.local_init[0],
            Value::Ptr(Ptr {
                space: AddressSpace::Private,
                buffer: UNINIT_BUFFER,
                byte_offset: 0
            })
        );
    }
}
