//! Superinstruction pre-decode for the group executor.
//!
//! The interpreter's hot cost is not the arithmetic, it is the traffic
//! around it: `LoadLocal x; LoadLocal y; Bin Mul; StoreLocal z` costs four
//! dispatches and five operand-stack moves for one multiply. This module
//! rewrites each function's bytecode once, at [`Program`] construction,
//! into a parallel stream of [`Decoded`] instructions in which such
//! sequences run as a single dispatch reading operands straight from the
//! locals (or constants) and writing the result straight back.
//!
//! **The height and type rules.** The bytecode is a stack machine's, but
//! the executor keeps no operand stack, and no head looks at a lane's type
//! tag to pick its loop. A function is decoded only if, before every op,
//! its operand-stack height and the type of every slot it reads are static:
//! one forward pass from `pc` 0 carries both, joins them where jumps land
//! and walks a target again when its state changes. Stack position `h` is
//! then register slot `local_init.len() + h`, and each `Bin`, `Cmp`, chain
//! and `Cvt` head carries its operand type and the [`Loop`] it picks. A
//! local may hold other types at other `pc`s, and two where paths join
//! until it is written. The rules are broken by an op never reached, a pop
//! from an empty stack, paths joining at two heights or with operands of
//! two types, a read of a local where paths left two types, an operation on
//! operands it does not take (`int + float`, `float << float`, a pointer
//! converted, a `float` stored as `int`), and a call whose arguments lack
//! the types of the callee's parameters (of their `local_init`), that
//! recurses, or whose callee breaks a rule. Such a function decodes to
//! [`Decoded::Fault`] heads: running it raises `RuntimeError::Internal` at
//! its first op instead of panicking. Debug builds assert that the lowering
//! never emits one.
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

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::builtins::Builtin;
use crate::hir::{BinOp, CmpOp, UnOp};
use crate::ir::{FuncCode, Op};
use crate::types::ScalarType;
use crate::value::Value;

/// Where an instruction reads an operand from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Operand {
    /// A register slot: a local, or a fixed operand-stack position.
    Slot(u16),
    /// An immediate (a fused `Const`).
    Const(Value),
}

/// What a compare does with its boolean (a fused trailing conditional
/// jump, or none).
#[derive(Debug, Clone, Copy)]
pub(crate) enum CmpUse {
    /// Store the boolean in this slot, where the unfused compare pushes it.
    Push(u16),
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
/// are always fused loads (local/const), so the intermediate results never
/// occupy a slot.
#[derive(Debug, Clone)]
pub(crate) struct Chain {
    /// First left operand.
    pub l: Operand,
    /// First right operand.
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
    /// The loop every operation runs.
    pub lp: Loop,
}

/// How a [`Chain`] disposes of its accumulator.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ChainTail {
    /// Store it in this slot: a fused trailing `StoreLocal`'s, or the stack
    /// slot the unfused chain pushes it to.
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

/// One pre-decoded instruction: a single source op, or a fused sequence of
/// `k` source ops.
#[derive(Debug, Clone)]
pub(crate) enum Decoded {
    /// A source op with no register head (control flow, calls, builtins,
    /// loads, unary operations), and its `top`: the slot just above the
    /// operand stack as the op begins. Its stack operands are the slots
    /// just below `top`.
    Plain(Op, u16),
    /// `[lhs load] [rhs load] Bin [StoreLocal]` arithmetic.
    Bin {
        /// Left operand.
        l: Operand,
        /// Right operand.
        r: Operand,
        /// The operation.
        op: BinOp,
        /// Result slot.
        dst: u16,
        /// The loop it runs.
        lp: Loop,
    },
    /// `[lhs load] [rhs load] Cmp [JumpIf*]` comparison.
    Cmp {
        /// Left operand.
        l: Operand,
        /// Right operand.
        r: Operand,
        /// The comparison.
        op: CmpOp,
        /// What to do with the boolean.
        along: CmpUse,
        /// The loop it runs.
        lp: Loop,
    },
    /// A multi-operation arithmetic chain (boxed to keep the common
    /// variants small).
    Chain(Box<Chain>),
    /// `[value load] [LoadLocal ptr] StoreMem ty` — store a value through a
    /// pointer held in a slot.
    StMem {
        /// The value to store.
        v: Operand,
        /// Slot holding the destination pointer.
        ptr: u16,
        /// Element type written.
        ty: ScalarType,
    },
    /// `[load] StoreLocal dst`, or a `Const` or `LoadLocal` alone: slot
    /// `dst` = `src`.
    Mov {
        /// The value moved.
        src: Operand,
        /// Result slot.
        dst: u16,
    },
    /// `LoadLocal ptr; LoadLocal idx; [Convert long;] PtrOffset size` — the
    /// array-indexing idiom: `slots[ptr] + idx*size`. `PtrOffset` reads
    /// its count as a `long`, so an inline widening of the index changes
    /// nothing and fuses like one the lowering hoisted into the index slot.
    /// A bare `PtrOffset` (k = 1) is the same head over the two top stack
    /// slots.
    PtrIdx {
        /// Slot holding the base pointer.
        ptr: u16,
        /// Slot holding the element index.
        idx: u16,
        /// Element byte size.
        size: u32,
        /// When `Some(ty)`, a fused trailing `LoadMem ty`: the result is
        /// the loaded element instead of the pointer.
        load: Option<ScalarType>,
        /// Result slot.
        dst: u16,
    },
    /// `[v load] LoadLocal ptr; LoadLocal idx; [Convert long;]
    /// PtrOffset size; StoreMem ty` — store a value at an array index
    /// computed inline. The register lowering keeps the address on the
    /// operand stack instead of spilling it to a slot, which puts it out
    /// of reach of the plain [`Decoded::StMem`] fusion; this covers the
    /// whole indexed store in one dispatch.
    StIdx {
        /// The value to store.
        v: Operand,
        /// Slot holding the base pointer.
        ptr: u16,
        /// Slot holding the element index.
        idx: u16,
        /// Element byte size.
        size: u32,
        /// Element type written.
        ty: ScalarType,
    },
    /// `[load] Convert ty [StoreLocal]` — convert a local, constant or
    /// stack value into a slot. The register lowering rematerialises
    /// conversion sources and spills results to slots, so this shape is
    /// common in its output.
    Cvt {
        /// The value to convert.
        src: Operand,
        /// Its type.
        from: Ty,
        /// Target scalar type.
        to: ScalarType,
        /// Result slot.
        dst: u16,
    },
    /// Every op of a function that breaks the height rule (see the module
    /// docs): raises `RuntimeError::Internal` with the reason.
    Fault(String),
}

/// One function's decoded stream.
#[derive(Debug)]
pub(crate) struct DecodedFn {
    /// One `(head, k)` per source op (see the module docs): `k` is how many
    /// source ops the head covers, what it charges to `CostCounters::ops`
    /// and adds to `pc`.
    pub code: Vec<(Decoded, u8)>,
    /// Register slots a frame needs: the locals plus the largest
    /// operand-stack height.
    pub slots: usize,
}

/// A value's static type: a scalar type, or `None` for a pointer (whose
/// address space stays dynamic).
pub(crate) type Ty = Option<ScalarType>;

fn name(t: Ty) -> &'static str {
    t.map_or("pointer", ScalarType::name)
}

/// The lane loop an arithmetic head runs, picked by its operand type:
/// typed `float` operations, typed `int` ones that cannot fault, or
/// `value::binary` and `value::compare` lane by lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Loop {
    F32,
    I32,
    Value,
}

impl Loop {
    fn of(ty: Ty, ops: impl IntoIterator<Item = BinOp>) -> Loop {
        let faults = |op| matches!(op, BinOp::Div | BinOp::Rem);
        match ty {
            Some(ScalarType::Float) => Loop::F32,
            Some(ScalarType::Int) if !ops.into_iter().any(faults) => Loop::I32,
            _ => Loop::Value,
        }
    }
}

/// What a register slot holds at a `pc`, over every path to it: one type,
/// or several, left by paths that join there (a local that must be written
/// before it is read again).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Held {
    One(Ty),
    Mixed,
}

/// The type pass's state before an op: what each register slot holds, the
/// `locals` and then the operand stack.
#[derive(Debug, Clone)]
struct State {
    slots: Vec<Held>,
    locals: usize,
}

impl State {
    /// The type on top of the operand stack (never `Mixed`: see [`flow`]).
    fn pop(&mut self) -> Result<Ty, String> {
        match (self.slots.len() > self.locals).then(|| self.slots.pop()) {
            Some(Some(Held::One(t))) => Ok(t),
            _ => Err("operand stack underflow".into()),
        }
    }

    fn scalar(&mut self) -> Result<ScalarType, String> {
        self.pop()?
            .ok_or_else(|| "a pointer where a scalar belongs".into())
    }

    fn local(&mut self, s: u16) -> Result<&mut Held, String> {
        let local = self.slots[..self.locals].get_mut(s as usize);
        local.ok_or_else(|| format!("no local {s}"))
    }
}

/// What the type pass proves of a function (see the module docs).
#[derive(Debug)]
struct Types {
    /// Per op: the slot above its operand stack, and the type on top of
    /// the stack (`None` when it is empty).
    at: Vec<(u16, Ty)>,
    /// Whether a jump lands on an op (or one past the last).
    targets: Vec<bool>,
    /// The type it returns; `None` if it never returns a value.
    returns: Option<Ty>,
}

/// Each function's type pass, once it has been run.
type Typing = [Option<Result<Types, String>>];

/// Pre-decodes every function of a program (see the module docs).
pub(crate) fn decode(functions: &[FuncCode]) -> Vec<DecodedFn> {
    let mut types: Vec<_> = functions.iter().map(|_| None).collect();
    let mut decode = |i: usize, f: &FuncCode| match type_fn(i, functions, &mut types) {
        Ok(types) => DecodedFn {
            code: decode_ops(&f.code, types),
            slots: types.at.iter().map(|a| a.0 as usize).max().unwrap_or(0),
        },
        Err(reason) => DecodedFn {
            code: vec![(Decoded::Fault(reason.clone()), 1); f.code.len().max(1)],
            slots: f.local_init.len(),
        },
    };
    functions
        .iter()
        .enumerate()
        .map(|(i, f)| decode(i, f))
        .collect()
}

/// Types function `i` once, after the functions it calls; a call back into
/// it meanwhile finds it broken.
fn type_fn<'t>(i: usize, fns: &[FuncCode], types: &'t mut Typing) -> &'t Result<Types, String> {
    let typed = match types[i].take() {
        Some(typed) => typed,
        None => {
            types[i] = Some(Err("recursive".into()));
            type_body(&fns[i], fns, types)
        }
    };
    types[i].insert(typed)
}

/// One forward pass over `f` from `pc` 0: the state is carried op by op
/// and kept at each jump target, where the paths that reach it join; a
/// target whose state changes is walked again.
fn type_body(f: &FuncCode, functions: &[FuncCode], types: &mut Typing) -> Result<Types, String> {
    let at = |pc: usize, what: &str| format!("`{}` pc {pc}: {what}", f.name);
    let (n, targets, locals) = (f.code.len(), jump_targets(&f.code), f.local_init.len());
    let held = |v: &Value| Held::One(v.scalar_type());
    let slots = f.local_init.iter().map(held).collect();
    let mut st = State { slots, locals };
    let mut entry = vec![None; n];
    let start = entry
        .first_mut()
        .ok_or_else(|| at(0, "control runs past the last op"))?;
    *start = Some(st.clone());
    // Lowest `pc` first: blocks are laid out in reverse post-order, so a
    // join is walked after its forward predecessors.
    let (mut seen, mut returns) = (vec![(u16::MAX, None); n], None);
    let mut work = BinaryHeap::from([Reverse(0)]);
    while let Some(Reverse(first)) = work.pop() {
        let (Some(kept), mut pc) = (&entry[first], first) else {
            continue;
        };
        st.slots.clone_from(&kept.slots);
        loop {
            let op = &f.code[pc];
            let top = match st.slots[locals..].last() {
                Some(Held::One(t)) => *t,
                _ => None,
            };
            let slot = u16::try_from(st.slots.len()).ok().filter(|&s| s < u16::MAX);
            seen[pc] = (slot.ok_or_else(|| at(pc, "more than 65534 slots"))?, top);
            match op {
                Op::Return if f.returns_void => return Err(at(pc, "a value returned from void")),
                Op::ReturnVoid if !f.returns_void => return Err(at(pc, "no value returned")),
                Op::Return if *returns.get_or_insert(top) != top => {
                    return Err(at(pc, "values of two types returned"));
                }
                _ => step(op, &mut st, functions, types).map_err(|e| at(pc, &e))?,
            }
            let mut go = |t: usize, st: &State| -> Result<(), String> {
                if flow(&mut entry, t, st).map_err(|e| at(t, &e))? {
                    work.push(Reverse(t));
                }
                Ok(())
            };
            match op {
                Op::Return | Op::ReturnVoid | Op::MissingReturn | Op::Trap => break,
                Op::Jump(t) => break go(*t as usize, &st)?,
                Op::JumpIfFalse(t) | Op::JumpIfTrue(t) => go(*t as usize, &st)?,
                _ => {}
            }
            pc += 1;
            if pc == n || targets[pc] {
                break go(pc, &st)?;
            }
        }
    }
    match seen.iter().position(|&(slot, _)| slot == u16::MAX) {
        Some(pc) => Err(at(pc, "unreachable")),
        None => Ok(Types {
            at: seen,
            targets,
            returns,
        }),
    }
}

/// Whether a jump lands on each op of `code` (any out of range: past it).
fn jump_targets(code: &[Op]) -> Vec<bool> {
    let mut targets = vec![false; code.len() + 1];
    for op in code {
        if let Op::Jump(t) | Op::JumpIfFalse(t) | Op::JumpIfTrue(t) = op {
            targets[(*t as usize).min(code.len())] = true;
        }
    }
    targets
}

/// Joins `st` into the state kept at `pc`: whether that changed it, so
/// that `pc` must be walked (again). Operand stacks must agree; locals that
/// differ become `Mixed`.
fn flow(entry: &mut [Option<State>], pc: usize, st: &State) -> Result<bool, String> {
    let kept = entry.get_mut(pc).ok_or("control runs past the last op")?;
    let Some(old) = kept else {
        *kept = Some(st.clone());
        return Ok(true);
    };
    let (seen, h) = (old.slots.len() - old.locals, st.slots.len() - st.locals);
    if seen != h {
        return Err(format!("reached at stack heights {seen} and {h}"));
    }
    let mut changed = false;
    for (s, (held, other)) in old.slots.iter_mut().zip(&st.slots).enumerate() {
        if held != other {
            if s >= old.locals {
                return Err("reached with operands of two types".into());
            }
            changed |= *held != Held::Mixed;
            *held = Held::Mixed;
        }
    }
    Ok(changed)
}

/// Applies `op` to the state `st`, or says how it breaks the type rule.
fn step(op: &Op, st: &mut State, functions: &[FuncCode], types: &mut Typing) -> Result<(), String> {
    use ScalarType::{Bool, Long, UInt, ULong};
    let pushed = match op {
        Op::Const(v) => Some(v.scalar_type()),
        Op::LoadLocal(s) => match st.local(*s)? {
            Held::One(t) => Some(*t),
            Held::Mixed => return Err(format!("local {s} read where paths left two types")),
        },
        Op::StoreLocal(s) => {
            let t = st.pop()?;
            *st.local(*s)? = Held::One(t);
            None
        }
        Op::Jump(_) | Op::Barrier { .. } | Op::ReturnVoid | Op::MissingReturn => None,
        Op::Pop | Op::JumpIfFalse(_) | Op::JumpIfTrue(_) | Op::Return => st.pop().map(|_| None)?,
        Op::Trap => st.scalar().map(|_| None)?,
        Op::Un(UnOp::Not) | Op::ToBool => st.pop().map(|_| Some(Some(Bool)))?,
        Op::Un(_) => Some(st.pop()?),
        Op::Bin(_) | Op::Cmp(_) => {
            let (r, l) = (st.pop()?, st.pop()?);
            let takes = match (op, l) {
                (Op::Cmp(_), _) => true,
                (Op::Bin(BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem), _) => {
                    l.is_some_and(|t| t != Bool)
                }
                (_, t) => t.is_some_and(|t| t.is_integer()),
            };
            if l != r || !takes {
                return Err(format!("{op} on {} and {}", name(l), name(r)));
            }
            Some(if let Op::Cmp(_) = op { Some(Bool) } else { l })
        }
        Op::Convert(to) => st.scalar().map(|_| Some(Some(*to)))?,
        Op::CallPure(b, argc) => {
            let t = st.pop()?;
            for _ in 1..*argc {
                if st.pop()? != t {
                    return Err(format!("`{}` on operands of two types", b.name()));
                }
            }
            Some(t)
        }
        Op::Call { func, argc } => {
            let (g, argc) = (*func as usize, *argc as usize);
            let callee = functions.get(g).filter(|c| argc <= c.local_init.len());
            let callee = callee.ok_or(format!("a call of f{func} with {argc} arguments"))?;
            for (i, param) in callee.local_init[..argc].iter().enumerate().rev() {
                if st.pop()? != param.scalar_type() {
                    let param = name(param.scalar_type());
                    return Err(format!(
                        "a call of f{func} whose argument {i} is no {param}"
                    ));
                }
            }
            match type_fn(g, functions, types) {
                Ok(_) if callee.returns_void => None,
                // A callee that never returns a value leaves a `bool` that
                // no lane reads.
                Ok(typed) => Some(typed.returns.unwrap_or(Some(Bool))),
                Err(e) => return Err(format!("a call of f{func} ({e})")),
            }
        }
        Op::WorkItem(Builtin::GetWorkDim) => Some(Some(UInt)),
        Op::WorkItem(_) => st.scalar().map(|_| Some(Some(ULong)))?,
        Op::LoadMem(ty) => st.pop().map(|_| Some(Some(*ty)))?,
        Op::StoreMem(ty) => match (st.pop()?, st.pop()?) {
            (_, v) if v == Some(*ty) => None,
            (_, v) => return Err(format!("{} stored as {ty}", name(v))),
        },
        Op::PtrOffset(_) => st.scalar().and_then(|_| st.pop()).map(|_| Some(None))?,
        Op::PtrDiff(_) => st.pop().and_then(|_| st.pop()).map(|_| Some(Some(Long)))?,
    };
    st.slots.extend(pushed.map(Held::One));
    Ok(())
}

/// Decodes `code`, given what the type pass proved of it.
fn decode_ops(code: &[Op], types: &Types) -> Vec<(Decoded, u8)> {
    (0..code.len()).map(|i| decode_at(code, i, types)).collect()
}

/// Resolves what a fused comparison does with its boolean: a direct
/// conditional jump, the short-circuit idiom (`Jump` to a conditional
/// jump), or a store to `push`, the stack slot it is pushed to. Advances
/// `t` past the consumed ops and returns the extra charge for a
/// remotely-executed conditional (see [`CmpUse::BranchBoth`]).
fn cmp_along(code: &[Op], t: &mut usize, free: &impl Fn(usize) -> bool, push: u16) -> (CmpUse, u8) {
    let (along, extra) = match code.get(*t).filter(|_| free(*t)) {
        Some(Op::JumpIfFalse(target)) => (CmpUse::BranchIfFalse(*target), 0),
        Some(Op::JumpIfTrue(target)) => (CmpUse::BranchIfTrue(*target), 0),
        Some(Op::Jump(jt)) => {
            let (if_true, if_false) = match code.get(*jt as usize) {
                Some(Op::JumpIfFalse(u)) => (*jt + 1, *u),
                Some(Op::JumpIfTrue(u)) => (*u, *jt + 1),
                _ => return (CmpUse::Push(push), 0),
            };
            (CmpUse::BranchBoth { if_true, if_false }, 1)
        }
        _ => return (CmpUse::Push(push), 0),
    };
    *t += 1;
    (along, extra)
}

/// Parses what may follow a chain's last `Bin`: a trailing `StoreLocal`,
/// or a `[load] Cmp [JumpIf*]` comparison consuming the accumulator as its
/// lhs, or nothing (the accumulator goes to `out`, the stack slot the
/// unfused ops push it to). Advances `t` past the consumed ops and returns
/// any extra remote-conditional charge.
fn chain_tail(
    code: &[Op],
    t: &mut usize,
    free: &impl Fn(usize) -> bool,
    out: u16,
) -> (ChainTail, u8) {
    if free(*t) {
        if let Op::StoreLocal(s) = &code[*t] {
            *t += 1;
            return (ChainTail::Store(*s), 0);
        }
        if free(*t + 1) {
            if let (Some(r), Op::Cmp(op)) = (operand(&code[*t]), &code[*t + 1]) {
                *t += 2;
                let (along, extra) = cmp_along(code, t, free, out);
                return (ChainTail::Cmp { op: *op, r, along }, extra);
            }
        }
    }
    (ChainTail::Store(out), 0)
}

/// A fusable operand-producing op.
fn operand(op: &Op) -> Option<Operand> {
    match op {
        Op::LoadLocal(s) => Some(Operand::Slot(*s)),
        Op::Const(c) => Some(Operand::Const(*c)),
        _ => None,
    }
}

/// The head at `i` and the source ops it covers. The height rule
/// guarantees that every stack slot a head reads (`top - 1`, `top - 2`, …)
/// lies above the locals, and the type rule that the operands of the
/// `Bin`, `Cmp` or `Convert` at `j` have the type `ty(j)`.
fn decode_at(code: &[Op], i: usize, types: &Types) -> (Decoded, u8) {
    let (top, ty) = (types.at[i].0, |j: usize| types.at[j].1);
    // A block starting at `i` may take the op at `j > i` only if no jump
    // lands on it: `take(j)` is that op, if so.
    let free = |j: usize| j < code.len() && !types.targets[j];
    let take = |j: usize| {
        if j == i {
            code.get(i)
        } else {
            free(j).then(|| &code[j])
        }
    };
    let k = |end: usize| (end - i) as u8;
    // `[Convert long;] PtrOffset size` from `j`: the size and the op after.
    let index = |j: usize| match (take(j), take(j + 1)) {
        (Some(Op::Convert(ScalarType::Long)), Some(Op::PtrOffset(size))) => Some((*size, j + 2)),
        (Some(Op::PtrOffset(size)), _) => Some((*size, j + 1)),
        _ => None,
    };

    // Leading operand loads (0, 1 or 2 of them) feeding a Bin/Cmp.
    let mut j = i;
    let mut loads: [Option<Operand>; 2] = [None, None];
    for slot in &mut loads {
        let Some(o) = take(j).and_then(operand) else {
            break;
        };
        *slot = Some(o);
        j += 1;
    }
    // A Bin/Cmp after the loads: its (l, r) — the operand pushed last is
    // the rhs, one not loaded in the block is a stack slot — and `out`,
    // the stack slot its result is pushed to.
    let operands = || match (loads[0], loads[1]) {
        (Some(a), Some(b)) => (a, b),
        (Some(a), None) => (Operand::Slot(top - 1), a),
        _ => (Operand::Slot(top - 2), Operand::Slot(top - 1)),
    };
    let out = || top + loads.iter().flatten().count() as u16 - 2;

    match take(j) {
        Some(Op::Bin(op)) => {
            let (l, r) = operands();
            let mut t = j + 1;
            // A second load-fed producer followed by a combining op is a
            // two-branch expression tree (`x*x + y*y`): fold it into the
            // accumulator without touching the stack.
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
            // Follow the expression tail: every `[load] Bin` pair extends
            // the accumulator chain (a bare mid-chain `Bin` would make the
            // accumulator the *rhs*, so it ends the chain instead).
            let mut links = Vec::new();
            while free(t) && free(t + 1) {
                let (Some(o), Op::Bin(op2)) = (operand(&code[t]), &code[t + 1]) else {
                    break;
                };
                links.push((*op2, o));
                t += 2;
            }
            let (tail, extra) = chain_tail(code, &mut t, &free, out());
            let op = *op;
            let tree_ops = tree.iter().flat_map(|&(_, _, op2, comb)| [op2, comb]);
            let ops = tree_ops.chain(links.iter().map(|&(op, _)| op));
            let lp = Loop::of(ty(j), std::iter::once(op).chain(ops));
            let head = match tail {
                ChainTail::Store(dst) if tree.is_none() && links.is_empty() => {
                    Decoded::Bin { l, r, op, dst, lp }
                }
                tail => Decoded::Chain(Box::new(Chain {
                    l,
                    r,
                    op,
                    tree,
                    links,
                    tail,
                    lp,
                })),
            };
            return (head, k(t) + extra);
        }
        Some(Op::Cmp(op)) => {
            let (l, r) = operands();
            let mut t = j + 1;
            let (along, extra) = cmp_along(code, &mut t, &free, out());
            let (op, lp) = (*op, Loop::of(ty(j), []));
            return (
                Decoded::Cmp {
                    l,
                    r,
                    op,
                    along,
                    lp,
                },
                k(t) + extra,
            );
        }
        _ => {}
    }

    // The next shapes take a value `v` that is either fused — a load at
    // `i`, the rest of the shape from `base = i + 1` — or already on the
    // stack, the shape starting at `base = i`. `at` is the slot `v`
    // occupies on the stack.
    let stacked = top.checked_sub(1);
    let sources = [
        (operand(&code[i]), i + 1, top),
        (stacked.map(Operand::Slot), i, stacked.unwrap_or(0)),
    ];
    for (v, base, at) in sources {
        let (Some(v), Some(first)) = (v, take(base)) else {
            continue;
        };
        match (first, take(base + 1)) {
            // A store through the pointer in `p`: `LoadLocal p; StoreMem`.
            (Op::LoadLocal(p), Some(Op::StoreMem(ty))) => {
                let (ptr, ty) = (*p, *ty);
                return (Decoded::StMem { v, ptr, ty }, k(base + 2));
            }
            // A store at an index computed inline: `LoadLocal p; LoadLocal
            // i; [Convert long;] PtrOffset; StoreMem`. Checked before the
            // indexing idiom below so the trailing `StoreMem` joins it.
            (Op::LoadLocal(ptr), Some(Op::LoadLocal(idx))) => {
                if let Some((size, end)) = index(base + 2) {
                    if let Some(Op::StoreMem(ty)) = take(end) {
                        let (ptr, idx, ty) = (*ptr, *idx, *ty);
                        let head = Decoded::StIdx {
                            v,
                            ptr,
                            idx,
                            size,
                            ty,
                        };
                        return (head, k(end + 1));
                    }
                }
            }
            // A conversion, into the next `StoreLocal`'s slot or in place.
            (Op::Convert(to), next) => {
                let (dst, end) = match next {
                    Some(Op::StoreLocal(s)) => (*s, base + 2),
                    _ => (at, base + 1),
                };
                let (src, from, to) = (v, ty(base), *to);
                return (Decoded::Cvt { src, from, to, dst }, k(end));
            }
            // A move: `[load] StoreLocal s`.
            (Op::StoreLocal(s), _) => return (Decoded::Mov { src: v, dst: *s }, k(base + 1)),
            _ => {}
        }
    }

    // The array-indexing idiom, with an optional fused load.
    if let (Op::LoadLocal(ptr), Some(Op::LoadLocal(idx))) = (&code[i], take(i + 1)) {
        if let Some((size, mut end)) = index(i + 2) {
            let mut load = None;
            if let Some(Op::LoadMem(ty)) = take(end) {
                load = Some(*ty);
                end += 1;
            }
            let mut dst = top;
            if let Some(Op::StoreLocal(s)) = take(end) {
                dst = *s;
                end += 1;
            }
            let (ptr, idx) = (*ptr, *idx);
            return (
                Decoded::PtrIdx {
                    ptr,
                    idx,
                    size,
                    load,
                    dst,
                },
                k(end),
            );
        }
    }

    // The single ops that have a register head of their own.
    let head = match (&code[i], operand(&code[i])) {
        (_, Some(src)) => Decoded::Mov { src, dst: top },
        (Op::StoreMem(ty), _) => Decoded::StMem {
            v: Operand::Slot(top - 2),
            ptr: top - 1,
            ty: *ty,
        },
        (Op::PtrOffset(size), _) => Decoded::PtrIdx {
            ptr: top - 2,
            idx: top - 1,
            size: *size,
            load: None,
            dst: top - 2,
        },
        (op, _) => Decoded::Plain(op.clone(), top),
    };
    (head, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decodes a code fragment as if it began with four `int` values on
    /// the stack above 16 locals (`top` 20 at `pc` 0), each op's `top`
    /// taken from straight-line execution (jumps not followed).
    fn dec(code: &[Op]) -> Vec<(Decoded, u8)> {
        let mut top = 20u16;
        let at = code
            .iter()
            .map(|op| {
                let (pops, pushes) = match op {
                    Op::Const(_) | Op::LoadLocal(_) => (0, 1),
                    Op::Jump(_) | Op::ReturnVoid => (0, 0),
                    Op::Convert(_) | Op::LoadMem(_) => (1, 1),
                    Op::Bin(_) | Op::Cmp(_) | Op::PtrOffset(_) => (2, 1),
                    Op::StoreMem(_) => (2, 0),
                    _ => (1, 0),
                };
                let at = top;
                top = top - pops + pushes;
                (at, Some(ScalarType::Int))
            })
            .collect();
        let targets = jump_targets(code);
        decode_ops(
            code,
            &Types {
                at,
                targets,
                returns: None,
            },
        )
    }

    fn func(name: &str, locals: usize, code: Vec<Op>, returns_void: bool) -> FuncCode {
        FuncCode {
            name: name.into(),
            param_count: 0,
            local_init: vec![Value::I32(0); locals],
            code,
            returns_void,
        }
    }

    #[test]
    fn fuses_load_load_bin_store() {
        let code = [
            Op::LoadLocal(0),
            Op::LoadLocal(1),
            Op::Bin(BinOp::Mul),
            Op::StoreLocal(2),
        ];
        let dec = dec(&code);
        assert_eq!(dec.len(), 4);
        assert!(matches!(
            dec[0],
            (
                Decoded::Bin {
                    l: Operand::Slot(0),
                    r: Operand::Slot(1),
                    op: BinOp::Mul,
                    dst: 2,
                    ..
                },
                4
            )
        ));
        assert_eq!(dec[0].1, 4);
        // Interior slots keep their own decoding for jump entry, reading
        // what the ops before them pushed from fixed stack slots.
        assert!(matches!(
            dec[1],
            (
                Decoded::Bin {
                    l: Operand::Slot(20),
                    r: Operand::Slot(1),
                    dst: 2,
                    ..
                },
                3
            )
        ));
        assert!(matches!(
            dec[2],
            (
                Decoded::Bin {
                    l: Operand::Slot(20),
                    r: Operand::Slot(21),
                    dst: 2,
                    ..
                },
                2
            )
        ));
        assert!(matches!(
            dec[3],
            (
                Decoded::Mov {
                    src: Operand::Slot(20),
                    dst: 2,
                },
                1
            )
        ));
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
        let dec = dec(&code);
        assert!(matches!(
            dec[1],
            (
                Decoded::Mov {
                    src: Operand::Slot(0),
                    dst: 20,
                },
                1
            )
        ));
        assert!(matches!(
            dec[2],
            (
                Decoded::Bin {
                    l: Operand::Slot(20),
                    r: Operand::Slot(1),
                    op: BinOp::Add,
                    dst: 20,
                    ..
                },
                2
            )
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
        let dec = dec(&code);
        assert!(matches!(
            dec[0],
            (
                Decoded::Cmp {
                    l: Operand::Slot(3),
                    r: Operand::Const(Value::F32(_)),
                    op: CmpOp::Lt,
                    along: CmpUse::BranchIfFalse(9),
                    ..
                },
                4
            )
        ));
    }

    #[test]
    fn single_ops_read_and_write_the_top_stack_slots() {
        let one = |op: Op| dec(&[op]).remove(0);
        assert!(matches!(
            one(Op::Const(Value::I32(1))),
            (
                Decoded::Mov {
                    src: Operand::Const(Value::I32(1)),
                    dst: 20,
                },
                1
            )
        ));
        assert!(matches!(
            one(Op::LoadLocal(3)),
            (
                Decoded::Mov {
                    src: Operand::Slot(3),
                    dst: 20,
                },
                1
            )
        ));
        assert!(matches!(
            one(Op::StoreLocal(4)),
            (
                Decoded::Mov {
                    src: Operand::Slot(19),
                    dst: 4,
                },
                1
            )
        ));
        assert!(matches!(
            one(Op::Bin(BinOp::Add)),
            (
                Decoded::Bin {
                    l: Operand::Slot(18),
                    r: Operand::Slot(19),
                    dst: 18,
                    ..
                },
                1
            )
        ));
        assert!(matches!(
            one(Op::Cmp(CmpOp::Lt)),
            (
                Decoded::Cmp {
                    l: Operand::Slot(18),
                    r: Operand::Slot(19),
                    along: CmpUse::Push(18),
                    ..
                },
                1
            )
        ));
        assert!(matches!(
            one(Op::Convert(ScalarType::Float)),
            (
                Decoded::Cvt {
                    src: Operand::Slot(19),
                    dst: 19,
                    ..
                },
                1
            )
        ));
        assert!(matches!(
            one(Op::StoreMem(ScalarType::Int)),
            (
                Decoded::StMem {
                    v: Operand::Slot(18),
                    ptr: 19,
                    ..
                },
                1
            )
        ));
        assert!(matches!(
            one(Op::PtrOffset(4)),
            (
                Decoded::PtrIdx {
                    ptr: 18,
                    idx: 19,
                    load: None,
                    dst: 18,
                    ..
                },
                1
            )
        ));
        assert!(matches!(one(Op::Pop), (Decoded::Plain(Op::Pop, 20), 1)));
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
        let dec = dec(&code);
        assert!(matches!(
            dec[0],
            (
                Decoded::PtrIdx {
                    ptr: 0,
                    idx: 5,
                    size: 4,
                    load: Some(ScalarType::Float),
                    dst: 20,
                },
                5
            )
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
        let dec = dec(&code);
        assert!(matches!(
            dec[0],
            (
                Decoded::PtrIdx {
                    ptr: 0,
                    idx: 13,
                    size: 4,
                    load: Some(ScalarType::Float),
                    dst: 15,
                },
                5
            )
        ));
        assert_eq!(dec[0].1, 5);
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
        let dec = dec(&code);
        assert!(matches!(
            dec[0],
            (
                Decoded::Cvt {
                    src: Operand::Slot(6),
                    to: ScalarType::Long,
                    dst: 10,
                    ..
                },
                3
            )
        ));
        assert!(matches!(
            dec[3],
            (
                Decoded::Cvt {
                    src: Operand::Slot(19),
                    to: ScalarType::Int,
                    dst: 7,
                    ..
                },
                2
            )
        ));
        assert!(matches!(
            dec[5],
            (
                Decoded::Cvt {
                    src: Operand::Const(Value::I32(3)),
                    to: ScalarType::Float,
                    dst: 19,
                    ..
                },
                2
            )
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
        let dec = dec(&code);
        assert!(matches!(
            dec[0],
            (
                Decoded::PtrIdx {
                    load: None,
                    dst: 12,
                    ..
                },
                5
            )
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
        let dec = dec(&code);
        assert!(matches!(
            dec[0],
            (
                Decoded::Mov {
                    src: Operand::Slot(11),
                    dst: 8,
                },
                2
            )
        ));
        assert!(matches!(
            dec[2],
            (
                Decoded::Mov {
                    src: Operand::Const(Value::I32(0)),
                    dst: 9,
                },
                2
            )
        ));
    }

    #[test]
    fn unfusable_ops_stay_plain() {
        let code = [Op::Pop, Op::Trap, Op::ReturnVoid];
        let dec = dec(&code);
        assert!(matches!(dec[1], (Decoded::Plain(Op::Trap, 19), 1)));
        assert!(dec.iter().all(|d| matches!(d, (Decoded::Plain(..), 1))));
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
        let dec = dec(&code);
        match &dec[0] {
            (Decoded::Chain(c), k) => {
                assert!(matches!(c.l, Operand::Slot(8)));
                assert!(matches!(
                    c.tree,
                    Some((Operand::Slot(9), Operand::Slot(9), BinOp::Mul, BinOp::Add))
                ));
                assert!(matches!(
                    c.tail,
                    ChainTail::Cmp {
                        op: CmpOp::Le,
                        along: CmpUse::BranchIfFalse(20),
                        ..
                    }
                ));
                assert_eq!(*k, 10);
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
        let dec = dec(&code);
        match &dec[0] {
            (Decoded::Chain(c), k) => {
                assert_eq!(c.links.len(), 2);
                assert!(matches!(c.tail, ChainTail::Store(9)));
                assert_eq!(*k, 8);
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
        let dec = dec(&code);
        assert!(matches!(
            dec[0],
            (
                Decoded::Cmp {
                    along: CmpUse::BranchBoth {
                        if_true: 6,
                        if_false: 9,
                    },
                    ..
                },
                5
            )
        ));
        // The remote conditional keeps its own slot (it is a jump target).
        assert!(matches!(dec[5], (Decoded::Plain(Op::JumpIfFalse(9), _), 1)));
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
        let dec = dec(&code);
        assert!(matches!(
            dec[0],
            (
                Decoded::StIdx {
                    v: Operand::Slot(6),
                    ptr: 1,
                    idx: 5,
                    size: 4,
                    ty: ScalarType::Float,
                },
                6
            )
        ));
        // Entered one op in (value already on the stack), the rest still
        // fuses.
        assert!(matches!(
            dec[1],
            (
                Decoded::StIdx {
                    v: Operand::Slot(20),
                    ptr: 1,
                    idx: 5,
                    ..
                },
                5
            )
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
        let dec = dec(&code);
        assert!(matches!(
            dec[0],
            (
                Decoded::StIdx {
                    v: Operand::Const(Value::I32(7)),
                    ptr: 2,
                    idx: 9,
                    size: 8,
                    ty: ScalarType::Double,
                },
                5
            )
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
        let dec = dec(&code);
        assert!(!matches!(dec[1], (Decoded::StIdx { .. }, _)));
    }

    #[test]
    fn fuses_store_through_pointer() {
        let code = [
            Op::LoadLocal(10),
            Op::LoadLocal(12),
            Op::StoreMem(ScalarType::Int),
        ];
        let dec = dec(&code);
        assert!(matches!(
            dec[0],
            (
                Decoded::StMem {
                    v: Operand::Slot(10),
                    ptr: 12,
                    ty: ScalarType::Int,
                },
                3
            )
        ));
        assert!(matches!(
            dec[1],
            (
                Decoded::StMem {
                    v: Operand::Slot(20),
                    ptr: 12,
                    ..
                },
                2
            )
        ));
    }

    #[test]
    fn a_call_below_live_entries_gets_fixed_argument_slots() {
        // `x + g(x, y)`: `x` stays on the stack below the call's arguments.
        let g = func(
            "g",
            2,
            vec![
                Op::LoadLocal(0),
                Op::LoadLocal(1),
                Op::Bin(BinOp::Add),
                Op::Return,
            ],
            false,
        );
        let f = func(
            "f",
            2,
            vec![
                Op::LoadLocal(0),
                Op::LoadLocal(0),
                Op::LoadLocal(1),
                Op::Call { func: 0, argc: 2 },
                Op::Bin(BinOp::Add),
                Op::Return,
            ],
            false,
        );
        let f = decode(&[g, f]).remove(1);
        assert_eq!(f.slots, 2 + 3);
        // The arguments sit in slots 3 and 4, the result lands in 3.
        assert!(matches!(
            f.code[3],
            (Decoded::Plain(Op::Call { func: 0, argc: 2 }, 5), 1)
        ));
        assert!(matches!(
            f.code[4],
            (
                Decoded::Bin {
                    l: Operand::Slot(2),
                    r: Operand::Slot(3),
                    dst: 2,
                    ..
                },
                1
            )
        ));
    }

    #[test]
    fn the_welded_map_calls_with_live_entries_below_its_arguments() {
        let source = include_str!("../tests/corpus/skelcl_map.cl");
        let program = crate::compile("skelcl_map.cl", source).unwrap();
        let kernel = program.kernel("skelcl_map").unwrap().func as usize;
        let locals = program.functions()[kernel].local_init.len() as u16;
        let live = |d: &(Decoded, u8)| match d {
            (Decoded::Plain(Op::Call { argc, .. }, top), _) => *top - *argc as u16 > locals,
            _ => false,
        };
        assert!(program.decoded_fn(kernel).code.iter().any(live));
    }

    #[test]
    fn functions_that_break_the_height_or_type_rule_decode_to_faults() {
        let callee = func("callee", 2, vec![Op::ReturnVoid], true);
        let (int, float) = (Op::Const(Value::I32(1)), Op::Const(Value::F32(1.0)));
        let defects = [
            // Underflow at pc 0.
            (
                vec![Op::Bin(BinOp::Add), Op::ReturnVoid],
                "pc 0: operand stack underflow",
            ),
            // Two paths into pc 3, at heights 1 and 0.
            (
                vec![
                    Op::LoadLocal(0),
                    Op::JumpIfFalse(3),
                    Op::Const(Value::I32(1)),
                    Op::ReturnVoid,
                ],
                "pc 3: reached at stack heights",
            ),
            // Two arguments, one value on the stack.
            (
                vec![
                    Op::Const(Value::I32(1)),
                    Op::Call { func: 0, argc: 2 },
                    Op::ReturnVoid,
                ],
                "pc 1: operand stack underflow",
            ),
            (vec![Op::Const(Value::I32(1))], "pc 1: control runs past"),
            (vec![Op::ReturnVoid, Op::Pop], "pc 1: unreachable"),
            (vec![Op::Jump(7)], "pc 7: control runs past"),
            (
                vec![Op::Call { func: 9, argc: 0 }, Op::ReturnVoid],
                "pc 0: a call of f9",
            ),
            (
                vec![Op::Const(Value::I32(1)), Op::Return],
                "pc 1: a value returned from void",
            ),
            // Local 0 is an `int` on one path into pc 4, a `float` on the
            // other.
            (
                vec![
                    Op::LoadLocal(0),
                    Op::JumpIfFalse(4),
                    float.clone(),
                    Op::StoreLocal(0),
                    Op::LoadLocal(0),
                    Op::Pop,
                    Op::ReturnVoid,
                ],
                "pc 4: local 0 read where paths left two types",
            ),
            // An `int` and a `float` on the stack where two paths join.
            (
                vec![
                    Op::LoadLocal(0),
                    Op::JumpIfFalse(4),
                    int.clone(),
                    Op::Jump(5),
                    float.clone(),
                    Op::Pop,
                    Op::ReturnVoid,
                ],
                "pc 5: reached with operands of two types",
            ),
            (
                vec![
                    int.clone(),
                    float.clone(),
                    Op::Bin(BinOp::Add),
                    Op::ReturnVoid,
                ],
                "pc 2: bin Add on int and float",
            ),
            (
                vec![
                    float.clone(),
                    float.clone(),
                    Op::Bin(BinOp::Shl),
                    Op::ReturnVoid,
                ],
                "pc 2: bin Shl on float and float",
            ),
            (
                vec![
                    int.clone(),
                    float.clone(),
                    Op::Cmp(CmpOp::Lt),
                    Op::ReturnVoid,
                ],
                "pc 2: cmp Lt on int and float",
            ),
            (
                vec![
                    float.clone(),
                    int,
                    Op::Call { func: 0, argc: 2 },
                    Op::ReturnVoid,
                ],
                "pc 2: a call of f0 whose argument 0 is no int",
            ),
            (
                vec![Op::Call { func: 1, argc: 0 }, Op::ReturnVoid],
                "pc 0: a call of f1 (recursive)",
            ),
            (
                vec![
                    float,
                    Op::LoadLocal(0),
                    Op::StoreMem(ScalarType::Int),
                    Op::ReturnVoid,
                ],
                "pc 2: float stored as int",
            ),
        ];
        for (code, reason) in defects {
            let f = decode(&[callee.clone(), func("f", 1, code, true)]).remove(1);
            let (Decoded::Fault(error), 1) = &f.code[0] else {
                panic!("{reason}: decoded to {:?}", f.code[0]);
            };
            assert!(error.contains(reason), "{error:?} should say {reason:?}");
            assert!(f
                .code
                .iter()
                .all(|d| matches!(d, (Decoded::Fault(e), 1) if e == error)));
            assert_eq!(f.slots, 1);
        }
    }

    #[test]
    fn a_local_holds_one_type_wherever_it_is_read() {
        // Local 0 starts as an `int`, holds a `float` in the loop and a
        // `long` after it: two types only at the loop head, where it is
        // not read.
        let code = vec![
            Op::LoadLocal(1),
            Op::JumpIfFalse(7),
            Op::Const(Value::F32(1.0)),
            Op::StoreLocal(0),
            Op::LoadLocal(0),
            Op::StoreLocal(2),
            Op::Jump(0),
            Op::Const(Value::I64(2)),
            Op::StoreLocal(0),
            Op::LoadLocal(0),
            Op::Pop,
            Op::ReturnVoid,
        ];
        let f = decode(&[func("f", 3, code, true)]).remove(0);
        assert!(f.code.iter().all(|d| !matches!(d, (Decoded::Fault(_), _))));
    }

    #[test]
    fn heads_pick_their_loop_by_operand_type() {
        let code = vec![
            Op::Const(Value::I32(7)),
            Op::Const(Value::I32(2)),
            Op::Bin(BinOp::Div),
            Op::StoreLocal(0),
            Op::LoadLocal(0),
            Op::Const(Value::I32(2)),
            Op::Bin(BinOp::Mul),
            Op::StoreLocal(0),
            Op::Const(Value::F32(7.0)),
            Op::Const(Value::F32(2.0)),
            Op::Bin(BinOp::Div),
            Op::Convert(ScalarType::Int),
            Op::StoreLocal(0),
            Op::ReturnVoid,
        ];
        let f = decode(&[func("f", 1, code, true)]).remove(0);
        let lp = |pc: usize| match &f.code[pc].0 {
            Decoded::Bin { lp, .. } => *lp,
            other => panic!("pc {pc}: {other:?}"),
        };
        // Integer `/` can fault: lane by lane. `*` on `int` and `/` on
        // `float` are typed.
        assert_eq!((lp(0), lp(4), lp(8)), (Loop::Value, Loop::I32, Loop::F32));
        assert!(matches!(
            f.code[11].0,
            Decoded::Cvt {
                from: Some(ScalarType::Float),
                to: ScalarType::Int,
                ..
            }
        ));
    }
}
