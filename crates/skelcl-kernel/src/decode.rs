//! Superinstruction pre-decode for the optimised dispatch loop.
//!
//! The interpreter's hot cost is not the arithmetic, it is the traffic
//! around it: `LoadLocal x; LoadLocal y; Bin Mul; StoreLocal z` costs four
//! dispatches and five operand-stack moves for one multiply. This module
//! rewrites each function's bytecode once, at [`Program`] construction,
//! into a parallel stream of [`Decoded`] instructions in which such
//! sequences run as a single dispatch reading operands straight from the
//! locals (or constants) and writing the result straight back.
//!
//! Fusion must not change what the reference interpreter observes:
//!
//! * **`CostCounters` parity** — a fused instruction covering `k` source
//!   ops charges exactly `k` to `ops` (and errors on the instruction
//!   budget iff the reference would have run out somewhere inside the
//!   block), so both interpreters report identical counters on success;
//! * **`pc` identity** — the decoded stream has one slot per source op
//!   and every fused instruction lives at its first op's index, advancing
//!   `pc` by `k`. Jump targets therefore need no remapping, and a
//!   sequence is only fused when its interior ops are not jump targets;
//!   the interior slots keep their own (possibly themselves fused)
//!   decoding so a jump into them executes the original semantics;
//! * **fault parity** — operand reads and error checks happen in the
//!   order the source sequence performs them (lhs before rhs, conversion
//!   before the pointer check), so a faulting kernel faults identically.
//!
//! [`Program`]: crate::program::Program

use crate::hir::{BinOp, CmpOp};
use crate::ir::Op;
use crate::types::ScalarType;
use crate::value::Value;

/// Where a fused binary/compare reads an operand from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Operand {
    /// Pop from the operand stack (the unfused position).
    Stack,
    /// Read a local slot (a fused `LoadLocal`).
    Local(u16),
    /// An immediate (a fused `Const`).
    Const(Value),
}

/// Where a fused instruction writes its result.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Dst {
    /// Push onto the operand stack (the unfused position).
    Stack,
    /// Write a local slot (a fused trailing `StoreLocal`).
    Local(u16),
}

/// What a fused compare does with its boolean (a fused trailing
/// conditional jump).
#[derive(Debug, Clone, Copy)]
pub(crate) enum CmpUse {
    /// Push the boolean.
    Push,
    /// `JumpIfFalse(target)`.
    BranchIfFalse(u32),
    /// `JumpIfTrue(target)`.
    BranchIfTrue(u32),
    /// `Jump(t)` where the op at `t` is itself a conditional jump — the
    /// short-circuit `&&`/`||` idiom. The boolean is produced, jumped
    /// with, and consumed in one step; both successors are resolved at
    /// decode time. `k` includes the remote conditional (the reference
    /// executes it on every path through the `Jump`).
    BranchBoth {
        /// `pc` when the boolean is true.
        if_true: u32,
        /// `pc` when the boolean is false.
        if_false: u32,
    },
}

/// A fused linear arithmetic chain: `acc = l op r`, then for every link
/// `acc = acc op_i r_i`, then the tail consumes `acc`. Covers expression
/// trees the compiler emits left-to-right, e.g.
/// `y = 2.0f * x * y + y0` (eight source ops, one dispatch). Link operands
/// are always fused loads (local/const), never stack pops, so the only
/// stack traffic left is what the unfused prefix produced.
#[derive(Debug, Clone)]
pub(crate) struct Chain {
    /// First left operand (popped second when unfused).
    pub l: Operand,
    /// First right operand (popped first when unfused).
    pub r: Operand,
    /// First operation.
    pub op: BinOp,
    /// Optional second producer `(l2, r2, op2, comb)`: the accumulator
    /// becomes `comb(acc, op2(l2, r2))`. Covers two-branch expression
    /// trees like `x*x + y*y` (the compiler emits both producers before
    /// the combining op). Both of its operands are fused loads, so the
    /// intermediate results never touch the stack.
    pub tree: Option<(Operand, Operand, BinOp, BinOp)>,
    /// Follow-on operations applied to the accumulator.
    pub links: Vec<(BinOp, Operand)>,
    /// What consumes the accumulator.
    pub tail: ChainTail,
    /// Source ops covered.
    pub k: u8,
}

/// How a [`Chain`] disposes of its accumulator.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ChainTail {
    /// Push it (no trailing op fused).
    Push,
    /// Fused trailing `StoreLocal`.
    Store(u16),
    /// Fused `[load] Cmp [JumpIf*]`: compare the accumulator (lhs) with
    /// `r`, then use the boolean.
    Cmp {
        /// The comparison.
        op: CmpOp,
        /// Right operand of the comparison.
        r: Operand,
        /// What to do with the boolean.
        along: CmpUse,
    },
}

/// One pre-decoded instruction: either a single source op, or a fused
/// sequence of `k` source ops.
#[derive(Debug, Clone)]
pub(crate) enum Decoded {
    /// An unfused source op, executed exactly as the reference does.
    Plain(Op),
    /// `[lhs load] [rhs load] Bin [StoreLocal]` fused arithmetic.
    Bin {
        /// Left operand (popped second when unfused).
        l: Operand,
        /// Right operand (popped first when unfused).
        r: Operand,
        /// The operation.
        op: BinOp,
        /// Result destination.
        dst: Dst,
        /// Source ops covered.
        k: u8,
    },
    /// `[lhs load] [rhs load] Cmp [JumpIf*]` fused comparison.
    Cmp {
        /// Left operand.
        l: Operand,
        /// Right operand.
        r: Operand,
        /// The comparison.
        op: CmpOp,
        /// What to do with the boolean.
        along: CmpUse,
        /// Source ops covered.
        k: u8,
    },
    /// A multi-operation arithmetic chain (boxed to keep the common
    /// variants small).
    Chain(Box<Chain>),
    /// `[value load] LoadLocal ptr; StoreMem ty` — store a value through a
    /// pointer held in a local.
    StMem {
        /// The value to store.
        v: Operand,
        /// Local slot holding the destination pointer.
        ptr: u16,
        /// Element type written.
        ty: ScalarType,
        /// Source ops covered.
        k: u8,
    },
    /// `LoadLocal src; StoreLocal dst` (k = 2).
    Mov(u16, u16),
    /// `Const v; StoreLocal dst` (k = 2).
    MovC(Value, u16),
    /// `LoadLocal ptr; LoadLocal idx; [Convert long;] PtrOffset size` — the
    /// array-indexing idiom: push (or store) `locals[ptr] + idx*size`. The
    /// index is widened inline (`conv` true) unless the lowering hoisted
    /// the widening into the index slot, leaving a bare `PtrOffset`
    /// (`conv` false).
    PtrIdx {
        /// Local slot holding the base pointer.
        ptr: u16,
        /// Local slot holding the element index.
        idx: u16,
        /// Element byte size.
        size: u32,
        /// Whether a fused `Convert long` widens the index first.
        conv: bool,
        /// When `Some(ty)`, a fused trailing `LoadMem ty`: push the loaded
        /// element instead of the pointer.
        load: Option<ScalarType>,
        /// Result destination.
        dst: Dst,
        /// Source ops covered.
        k: u8,
    },
    /// `[v load] LoadLocal ptr; LoadLocal idx; [Convert long;]
    /// PtrOffset size; StoreMem ty` — store a value at an array index
    /// computed inline. The register lowering keeps the address on the
    /// operand stack instead of spilling it to a slot, which puts it out
    /// of reach of the plain [`Decoded::StMem`] fusion; this covers the
    /// whole indexed store in one dispatch with the pointer never touching
    /// the stack.
    StIdx {
        /// The value to store.
        v: Operand,
        /// Local slot holding the base pointer.
        ptr: u16,
        /// Local slot holding the element index.
        idx: u16,
        /// Element byte size.
        size: u32,
        /// Whether a fused `Convert long` widens the index first.
        conv: bool,
        /// Element type written.
        ty: ScalarType,
        /// Source ops covered.
        k: u8,
    },
    /// `[load] Convert ty [StoreLocal]` — convert a local, constant or
    /// stack value and push or store the result. The register lowering
    /// rematerialises conversion sources and spills results to slots, so
    /// this shape is common in its output.
    Cvt {
        /// The value to convert.
        src: Operand,
        /// Target scalar type.
        to: ScalarType,
        /// Result destination.
        dst: Dst,
        /// Source ops covered.
        k: u8,
    },
}

impl Decoded {
    /// Number of source ops this instruction covers (what it charges to
    /// `CostCounters::ops` and adds to `pc`).
    pub(crate) fn cost(&self) -> u64 {
        match self {
            Decoded::Plain(_) => 1,
            Decoded::Mov(..) | Decoded::MovC(..) => 2,
            Decoded::Chain(c) => c.k as u64,
            Decoded::Bin { k, .. }
            | Decoded::Cmp { k, .. }
            | Decoded::PtrIdx { k, .. }
            | Decoded::StIdx { k, .. }
            | Decoded::Cvt { k, .. }
            | Decoded::StMem { k, .. } => *k as u64,
        }
    }
}

/// Resolves what a fused comparison does with its boolean: a direct
/// conditional jump, the short-circuit idiom (`Jump` to a conditional
/// jump), or a plain push. Advances `t` past the consumed ops and returns
/// the extra charge for a remotely-executed conditional (see
/// [`CmpUse::BranchBoth`]).
fn cmp_along(code: &[Op], t: &mut usize, free: &impl Fn(usize) -> bool) -> (CmpUse, u8) {
    if free(*t) {
        match &code[*t] {
            Op::JumpIfFalse(target) => {
                *t += 1;
                return (CmpUse::BranchIfFalse(*target), 0);
            }
            Op::JumpIfTrue(target) => {
                *t += 1;
                return (CmpUse::BranchIfTrue(*target), 0);
            }
            Op::Jump(jt) => match code.get(*jt as usize) {
                Some(Op::JumpIfFalse(u)) => {
                    *t += 1;
                    return (
                        CmpUse::BranchBoth {
                            if_true: *jt + 1,
                            if_false: *u,
                        },
                        1,
                    );
                }
                Some(Op::JumpIfTrue(u)) => {
                    *t += 1;
                    return (
                        CmpUse::BranchBoth {
                            if_true: *u,
                            if_false: *jt + 1,
                        },
                        1,
                    );
                }
                _ => {}
            },
            _ => {}
        }
    }
    (CmpUse::Push, 0)
}

/// Parses what may follow a chain's last `Bin`: a trailing `StoreLocal`,
/// or a `[load] Cmp [JumpIf*]` comparison consuming the accumulator as its
/// lhs, or nothing. Advances `t` past the consumed ops and returns any
/// extra remote-conditional charge.
fn chain_tail(code: &[Op], t: &mut usize, free: &impl Fn(usize) -> bool) -> (ChainTail, u8) {
    if free(*t) {
        if let Op::StoreLocal(s) = &code[*t] {
            *t += 1;
            return (ChainTail::Store(*s), 0);
        }
        if free(*t + 1) {
            if let (Some(o), Op::Cmp(op)) = (operand(&code[*t]), &code[*t + 1]) {
                *t += 2;
                let (along, extra) = cmp_along(code, t, free);
                return (
                    ChainTail::Cmp {
                        op: *op,
                        r: o,
                        along,
                    },
                    extra,
                );
            }
        }
    }
    (ChainTail::Push, 0)
}

/// A fusable operand-producing op.
fn operand(op: &Op) -> Option<Operand> {
    match op {
        Op::LoadLocal(s) => Some(Operand::Local(*s)),
        Op::Const(c) => Some(Operand::Const(*c)),
        _ => None,
    }
}

/// Pre-decodes one function's bytecode (see the module docs for the
/// invariants).
pub(crate) fn decode(code: &[Op]) -> Vec<Decoded> {
    // Any op some jump lands on must stay addressable; fused blocks may
    // not span such an op (except as their first).
    let mut is_target = vec![false; code.len() + 1];
    for op in code {
        if let Op::Jump(t) | Op::JumpIfFalse(t) | Op::JumpIfTrue(t) = op {
            if let Some(slot) = is_target.get_mut(*t as usize) {
                *slot = true;
            }
        }
    }
    (0..code.len())
        .map(|i| decode_at(code, i, &is_target))
        .collect()
}

fn decode_at(code: &[Op], i: usize, is_target: &[bool]) -> Decoded {
    // `j` walks the candidate block; every op after the first must not be
    // a jump target.
    let free = |j: usize| j < code.len() && !is_target[j];

    // Leading operand loads (0, 1 or 2 of them) feeding a Bin/Cmp.
    let mut j = i;
    let mut loads: [Option<Operand>; 2] = [None, None];
    for slot in &mut loads {
        if (j == i || free(j)) && j < code.len() {
            if let Some(o) = operand(&code[j]) {
                *slot = Some(o);
                j += 1;
                continue;
            }
        }
        break;
    }
    let n_loads = loads.iter().flatten().count();
    // (l, r): the operand pushed last is the rhs.
    let (l, r) = match (loads[0], loads[1]) {
        (Some(a), Some(b)) => (a, b),
        (Some(a), None) => (Operand::Stack, a),
        _ => (Operand::Stack, Operand::Stack),
    };

    if (j == i || free(j)) && j < code.len() {
        match &code[j] {
            Op::Bin(op) => {
                let mut t = j + 1;
                // A second load-fed producer followed by a combining op is
                // a two-branch expression tree (`x*x + y*y`): fold it into
                // the accumulator without touching the stack.
                let mut tree = None;
                if free(t) && free(t + 1) && free(t + 2) && free(t + 3) {
                    if let (Some(l2), Some(r2), Op::Bin(op2), Op::Bin(comb)) = (
                        operand(&code[t]),
                        operand(&code[t + 1]),
                        &code[t + 2],
                        &code[t + 3],
                    ) {
                        tree = Some((l2, r2, *op2, *comb));
                        t += 4;
                    }
                }
                // Follow the expression tail: every `[load] Bin` pair
                // extends the accumulator chain (a bare mid-chain `Bin`
                // would make the accumulator the *rhs*, so it ends the
                // chain instead).
                let mut links = Vec::new();
                while free(t) && free(t + 1) {
                    if let (Some(o), Op::Bin(op2)) = (operand(&code[t]), &code[t + 1]) {
                        links.push((*op2, o));
                        t += 2;
                    } else {
                        break;
                    }
                }
                let (tail, extra) = chain_tail(code, &mut t, &free);
                if tree.is_some() || !links.is_empty() || matches!(tail, ChainTail::Cmp { .. }) {
                    return Decoded::Chain(Box::new(Chain {
                        l,
                        r,
                        op: *op,
                        tree,
                        links,
                        tail,
                        k: (t - i) as u8 + extra,
                    }));
                }
                let mut k = (n_loads + 1) as u8;
                let mut dst = Dst::Stack;
                if let ChainTail::Store(s) = tail {
                    dst = Dst::Local(s);
                    k += 1;
                }
                // A bare stack-stack Bin pushing its result is what the
                // plain path already does in one dispatch.
                if k > 1 {
                    return Decoded::Bin {
                        l,
                        r,
                        op: *op,
                        dst,
                        k,
                    };
                }
            }
            Op::Cmp(op) => {
                let mut t = j + 1;
                let (along, extra) = cmp_along(code, &mut t, &free);
                let k = (t - i) as u8 + extra;
                if k > 1 {
                    return Decoded::Cmp {
                        l,
                        r,
                        op: *op,
                        along,
                        k,
                    };
                }
            }
            _ => {}
        }
    }

    // Indexed stores: `[v load] LoadLocal p; LoadLocal i; [Convert long;]
    // PtrOffset; StoreMem`. Checked before the plain indexing idiom below
    // so the trailing `StoreMem` joins the fusion.
    // Try the fused-value form first (`[v load] LoadLocal p; ...`), then
    // the stack-value form (the head op itself is `LoadLocal p`).
    for (v, base) in [(operand(&code[i]), i + 1), (Some(Operand::Stack), i)] {
        let Some(v) = v else { continue };
        if base > i && !free(base) {
            continue;
        }
        let (Some(Op::LoadLocal(p)), Some(Op::LoadLocal(idx))) =
            (code.get(base), code.get(base + 1))
        else {
            continue;
        };
        if !free(base + 1) {
            continue;
        }
        let parsed = match &code[base + 2..] {
            [Op::Convert(ScalarType::Long), Op::PtrOffset(size), Op::StoreMem(ty), ..]
                if free(base + 2) && free(base + 3) && free(base + 4) =>
            {
                Some((*size, true, *ty, base + 5))
            }
            [Op::PtrOffset(size), Op::StoreMem(ty), ..] if free(base + 2) && free(base + 3) => {
                Some((*size, false, *ty, base + 4))
            }
            _ => None,
        };
        if let Some((size, conv, ty, end)) = parsed {
            return Decoded::StIdx {
                v,
                ptr: *p,
                idx: *idx,
                size,
                conv,
                ty,
                k: (end - i) as u8,
            };
        }
    }

    // The array-indexing idiom, with an optional fused load. The index
    // widening is either inline or already hoisted into the slot — both
    // forms fuse.
    if free(i + 1) {
        if let (Op::LoadLocal(p), Op::LoadLocal(idx)) = (&code[i], &code[i + 1]) {
            let parsed = match (&code[i + 1..], free(i + 2), free(i + 3)) {
                ([_, Op::Convert(ScalarType::Long), Op::PtrOffset(size), ..], true, true) => {
                    Some((*size, true, 4u8))
                }
                ([_, Op::PtrOffset(size), ..], true, _) => Some((*size, false, 3u8)),
                _ => None,
            };
            if let Some((size, conv, mut k)) = parsed {
                let mut load = None;
                let mut dst = Dst::Stack;
                if free(i + k as usize) {
                    if let Op::LoadMem(ty) = &code[i + k as usize] {
                        load = Some(*ty);
                        k += 1;
                    }
                }
                if free(i + k as usize) {
                    if let Op::StoreLocal(s) = &code[i + k as usize] {
                        dst = Dst::Local(*s);
                        k += 1;
                    }
                }
                return Decoded::PtrIdx {
                    ptr: *p,
                    idx: *idx,
                    size,
                    conv,
                    load,
                    dst,
                    k,
                };
            }
        }
    }

    // Conversions, with the source and destination fused where possible.
    if free(i + 1) {
        if let Some(src) = operand(&code[i]) {
            if let Op::Convert(to) = &code[i + 1] {
                let mut k = 2u8;
                let mut dst = Dst::Stack;
                if free(i + 2) {
                    if let Op::StoreLocal(s) = &code[i + 2] {
                        dst = Dst::Local(*s);
                        k = 3;
                    }
                }
                return Decoded::Cvt {
                    src,
                    to: *to,
                    dst,
                    k,
                };
            }
        }
        if let (Op::Convert(to), Op::StoreLocal(s)) = (&code[i], &code[i + 1]) {
            return Decoded::Cvt {
                src: Operand::Stack,
                to: *to,
                dst: Dst::Local(*s),
                k: 2,
            };
        }
    }

    // Stores through a pointer held in a local, with the value either
    // fused ([load v; LoadLocal p; StoreMem]) or left on the stack
    // ([LoadLocal p; StoreMem]).
    if free(i + 1) && free(i + 2) {
        if let (Some(v), Op::LoadLocal(p), Op::StoreMem(ty)) =
            (operand(&code[i]), &code[i + 1], &code[i + 2])
        {
            return Decoded::StMem {
                v,
                ptr: *p,
                ty: *ty,
                k: 3,
            };
        }
    }
    if free(i + 1) {
        if let (Op::LoadLocal(p), Op::StoreMem(ty)) = (&code[i], &code[i + 1]) {
            return Decoded::StMem {
                v: Operand::Stack,
                ptr: *p,
                ty: *ty,
                k: 2,
            };
        }
    }

    // Local-to-local and constant-to-local moves.
    if free(i + 1) {
        match (&code[i], &code[i + 1]) {
            (Op::LoadLocal(a), Op::StoreLocal(s)) => return Decoded::Mov(*a, *s),
            (Op::Const(c), Op::StoreLocal(s)) => return Decoded::MovC(*c, *s),
            _ => {}
        }
    }

    Decoded::Plain(code[i].clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuses_load_load_bin_store() {
        let code = [
            Op::LoadLocal(0),
            Op::LoadLocal(1),
            Op::Bin(BinOp::Mul),
            Op::StoreLocal(2),
        ];
        let dec = decode(&code);
        assert_eq!(dec.len(), 4);
        assert!(matches!(
            dec[0],
            Decoded::Bin {
                l: Operand::Local(0),
                r: Operand::Local(1),
                op: BinOp::Mul,
                dst: Dst::Local(2),
                k: 4,
            }
        ));
        assert_eq!(dec[0].cost(), 4);
        // Interior slots keep their own decoding for jump entry.
        assert!(matches!(
            dec[1],
            Decoded::Bin {
                l: Operand::Stack,
                r: Operand::Local(1),
                k: 3,
                ..
            }
        ));
        assert!(matches!(
            dec[2],
            Decoded::Bin {
                l: Operand::Stack,
                r: Operand::Stack,
                k: 2,
                ..
            }
        ));
        assert!(matches!(dec[3], Decoded::Plain(Op::StoreLocal(2))));
    }

    #[test]
    fn jump_target_blocks_fusion() {
        // Something jumps to the middle LoadLocal: the fusion at 1 must
        // not swallow it, but the tail starting there may fuse.
        let code = [
            Op::Jump(2),
            Op::LoadLocal(0),
            Op::LoadLocal(1),
            Op::Bin(BinOp::Add),
        ];
        let dec = decode(&code);
        assert!(matches!(dec[1], Decoded::Plain(Op::LoadLocal(0))));
        assert!(matches!(
            dec[2],
            Decoded::Bin {
                l: Operand::Stack,
                r: Operand::Local(1),
                op: BinOp::Add,
                k: 2,
                ..
            }
        ));
    }

    #[test]
    fn fuses_compare_and_branch() {
        let code = [
            Op::LoadLocal(3),
            Op::Const(Value::F32(2.0)),
            Op::Cmp(CmpOp::Lt),
            Op::JumpIfFalse(9),
        ];
        let dec = decode(&code);
        assert!(matches!(
            dec[0],
            Decoded::Cmp {
                l: Operand::Local(3),
                r: Operand::Const(Value::F32(_)),
                op: CmpOp::Lt,
                along: CmpUse::BranchIfFalse(9),
                k: 4,
            }
        ));
    }

    #[test]
    fn bare_stack_bin_stays_plain() {
        let code = [Op::Bin(BinOp::Add), Op::ReturnVoid];
        let dec = decode(&code);
        assert!(matches!(dec[0], Decoded::Plain(Op::Bin(BinOp::Add))));
    }

    #[test]
    fn fuses_array_load_into_one_dispatch() {
        let code = [
            Op::LoadLocal(0),
            Op::LoadLocal(5),
            Op::Convert(ScalarType::Long),
            Op::PtrOffset(4),
            Op::LoadMem(ScalarType::Float),
        ];
        let dec = decode(&code);
        assert!(matches!(
            dec[0],
            Decoded::PtrIdx {
                ptr: 0,
                idx: 5,
                size: 4,
                conv: true,
                load: Some(ScalarType::Float),
                dst: Dst::Stack,
                k: 5,
            }
        ));
    }

    #[test]
    fn fuses_array_access_with_hoisted_widening() {
        // The register lowering widens the index ahead of time, so the
        // access is `LoadLocal; LoadLocal; PtrOffset; LoadMem; StoreLocal`
        // with no inline `Convert` — five ops, one dispatch.
        let code = [
            Op::LoadLocal(0),
            Op::LoadLocal(13),
            Op::PtrOffset(4),
            Op::LoadMem(ScalarType::Float),
            Op::StoreLocal(15),
        ];
        let dec = decode(&code);
        assert!(matches!(
            dec[0],
            Decoded::PtrIdx {
                ptr: 0,
                idx: 13,
                size: 4,
                conv: false,
                load: Some(ScalarType::Float),
                dst: Dst::Local(15),
                k: 5,
            }
        ));
        assert_eq!(dec[0].cost(), 5);
    }

    #[test]
    fn fuses_conversions() {
        let code = [
            Op::LoadLocal(6),
            Op::Convert(ScalarType::Long),
            Op::StoreLocal(10),
            Op::Convert(ScalarType::Int),
            Op::StoreLocal(7),
            Op::Const(Value::I32(3)),
            Op::Convert(ScalarType::Float),
        ];
        let dec = decode(&code);
        assert!(matches!(
            dec[0],
            Decoded::Cvt {
                src: Operand::Local(6),
                to: ScalarType::Long,
                dst: Dst::Local(10),
                k: 3,
            }
        ));
        assert!(matches!(
            dec[3],
            Decoded::Cvt {
                src: Operand::Stack,
                to: ScalarType::Int,
                dst: Dst::Local(7),
                k: 2,
            }
        ));
        assert!(matches!(
            dec[5],
            Decoded::Cvt {
                src: Operand::Const(Value::I32(3)),
                to: ScalarType::Float,
                dst: Dst::Stack,
                k: 2,
            }
        ));
    }

    #[test]
    fn fuses_pointer_temp_store() {
        let code = [
            Op::LoadLocal(0),
            Op::LoadLocal(5),
            Op::Convert(ScalarType::Long),
            Op::PtrOffset(4),
            Op::StoreLocal(12),
        ];
        let dec = decode(&code);
        assert!(matches!(
            dec[0],
            Decoded::PtrIdx {
                load: None,
                dst: Dst::Local(12),
                k: 5,
                ..
            }
        ));
    }

    #[test]
    fn fuses_moves() {
        let code = [
            Op::LoadLocal(11),
            Op::StoreLocal(8),
            Op::Const(Value::I32(0)),
            Op::StoreLocal(9),
        ];
        let dec = decode(&code);
        assert!(matches!(dec[0], Decoded::Mov(11, 8)));
        assert!(matches!(dec[2], Decoded::MovC(Value::I32(0), 9)));
    }

    #[test]
    fn unfusable_ops_stay_plain() {
        let code = [Op::Pop, Op::Trap, Op::ReturnVoid];
        let dec = decode(&code);
        assert!(dec.iter().all(|d| matches!(d, Decoded::Plain(_))));
    }

    #[test]
    fn fuses_expression_tree_into_compare_branch() {
        // `x*x + y*y <= 4.0f` with a conditional exit: one dispatch.
        let code = [
            Op::LoadLocal(8),
            Op::LoadLocal(8),
            Op::Bin(BinOp::Mul),
            Op::LoadLocal(9),
            Op::LoadLocal(9),
            Op::Bin(BinOp::Mul),
            Op::Bin(BinOp::Add),
            Op::Const(Value::F32(4.0)),
            Op::Cmp(CmpOp::Le),
            Op::JumpIfFalse(20),
        ];
        let dec = decode(&code);
        match &dec[0] {
            Decoded::Chain(c) => {
                assert!(matches!(c.l, Operand::Local(8)));
                assert!(matches!(
                    c.tree,
                    Some((Operand::Local(9), Operand::Local(9), BinOp::Mul, BinOp::Add))
                ));
                assert!(matches!(
                    c.tail,
                    ChainTail::Cmp {
                        op: CmpOp::Le,
                        along: CmpUse::BranchIfFalse(20),
                        ..
                    }
                ));
                assert_eq!(c.k, 10);
            }
            other => panic!("expected chain, got {other:?}"),
        }
    }

    #[test]
    fn fuses_link_chain_into_store() {
        // `y = 2.0f * x * y + y0`: eight source ops, one dispatch.
        let code = [
            Op::Const(Value::F32(2.0)),
            Op::LoadLocal(8),
            Op::Bin(BinOp::Mul),
            Op::LoadLocal(9),
            Op::Bin(BinOp::Mul),
            Op::LoadLocal(7),
            Op::Bin(BinOp::Add),
            Op::StoreLocal(9),
        ];
        let dec = decode(&code);
        match &dec[0] {
            Decoded::Chain(c) => {
                assert_eq!(c.links.len(), 2);
                assert!(matches!(c.tail, ChainTail::Store(9)));
                assert_eq!(c.k, 8);
            }
            other => panic!("expected chain, got {other:?}"),
        }
    }

    #[test]
    fn fuses_short_circuit_branch_pair() {
        // `Jump` to a conditional jump (the `&&` idiom): both successors
        // resolve at decode time, and `k` charges the remote conditional.
        let code = [
            Op::LoadLocal(0),
            Op::LoadLocal(1),
            Op::Cmp(CmpOp::Lt),
            Op::Jump(5),
            Op::Const(Value::Bool(false)),
            Op::JumpIfFalse(9),
        ];
        let dec = decode(&code);
        assert!(matches!(
            dec[0],
            Decoded::Cmp {
                along: CmpUse::BranchBoth {
                    if_true: 6,
                    if_false: 9,
                },
                k: 5,
                ..
            }
        ));
        // The remote conditional keeps its own slot (it is a jump target).
        assert!(matches!(dec[5], Decoded::Plain(Op::JumpIfFalse(9))));
    }

    #[test]
    fn fuses_indexed_store_into_one_dispatch() {
        // The register lowering's store idiom: value from a local, address
        // computed inline — six ops, one dispatch.
        let code = [
            Op::LoadLocal(6),
            Op::LoadLocal(1),
            Op::LoadLocal(5),
            Op::Convert(ScalarType::Long),
            Op::PtrOffset(4),
            Op::StoreMem(ScalarType::Float),
        ];
        let dec = decode(&code);
        assert!(matches!(
            dec[0],
            Decoded::StIdx {
                v: Operand::Local(6),
                ptr: 1,
                idx: 5,
                size: 4,
                conv: true,
                ty: ScalarType::Float,
                k: 6,
            }
        ));
        // Entered one op in (value already on the stack), the rest still
        // fuses.
        assert!(matches!(
            dec[1],
            Decoded::StIdx {
                v: Operand::Stack,
                ptr: 1,
                idx: 5,
                k: 5,
                ..
            }
        ));
    }

    #[test]
    fn fuses_indexed_store_with_hoisted_widening() {
        let code = [
            Op::Const(Value::I32(7)),
            Op::LoadLocal(2),
            Op::LoadLocal(9),
            Op::PtrOffset(8),
            Op::StoreMem(ScalarType::Double),
        ];
        let dec = decode(&code);
        assert!(matches!(
            dec[0],
            Decoded::StIdx {
                v: Operand::Const(Value::I32(7)),
                ptr: 2,
                idx: 9,
                size: 8,
                conv: false,
                ty: ScalarType::Double,
                k: 5,
            }
        ));
    }

    #[test]
    fn jump_target_blocks_indexed_store_fusion() {
        // A jump lands on the StoreMem: the fusion must stop short of it.
        let code = [
            Op::Jump(4),
            Op::LoadLocal(1),
            Op::LoadLocal(5),
            Op::PtrOffset(4),
            Op::StoreMem(ScalarType::Float),
        ];
        let dec = decode(&code);
        assert!(!matches!(dec[1], Decoded::StIdx { .. }));
    }

    #[test]
    fn fuses_store_through_pointer() {
        let code = [
            Op::LoadLocal(10),
            Op::LoadLocal(12),
            Op::StoreMem(ScalarType::Int),
        ];
        let dec = decode(&code);
        assert!(matches!(
            dec[0],
            Decoded::StMem {
                v: Operand::Local(10),
                ptr: 12,
                ty: ScalarType::Int,
                k: 3,
            }
        ));
        assert!(matches!(
            dec[1],
            Decoded::StMem {
                v: Operand::Stack,
                ptr: 12,
                k: 2,
                ..
            }
        ));
    }
}
