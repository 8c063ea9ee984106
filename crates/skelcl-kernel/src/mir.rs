//! Mid-level IR: a control-flow graph of virtual-register instructions.
//!
//! The MIR sits between the typed HIR and the stack bytecode:
//!
//! ```text
//! HIR  --lower-->  MIR  --passes-->  MIR  --lower.rs-->  bytecode  --decode-->  VM
//! ```
//!
//! Design notes:
//!
//! * **SSA-lite**: every [`VReg`] is defined exactly once, but HIR locals
//!   stay mutable storage accessed through [`Inst::GetLocal`] /
//!   [`Inst::SetLocal`] — no phi nodes. Join-point values (ternaries,
//!   short-circuit logic) round-trip through temporary local slots, which
//!   the optimization passes later clean up.
//! * Blocks own their instructions and end in exactly one [`Terminator`].
//!   [`BlockId(0)`](BlockId) is the entry block.
//! * Local slot numbering matches the HIR (parameters first), so kernel
//!   argument binding and `__local`-array binding work unchanged.
//! * Barrier sites get program-unique ids at lowering time, in
//!   function/source order.

use crate::builtins::{Builtin, BuiltinKind};
use crate::hir::{self, const_to_value, BinOp, CmpOp, Expr, Place, Stmt, UnOp};
use crate::types::{AddressSpace, ScalarType, Type};
use crate::value::{Ptr, Value, UNINIT_BUFFER};

/// A virtual register: holds one scalar or pointer value, defined exactly
/// once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VReg(pub u32);

/// Index of a basic block within a [`MirFunction`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The index as `usize`.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// One MIR instruction. Instructions that produce a value name their
/// destination register first.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// `dst = constant`.
    Const {
        /// Destination register.
        dst: VReg,
        /// The constant value.
        value: Value,
    },
    /// `dst = local[slot]` — read a mutable local slot.
    GetLocal {
        /// Destination register.
        dst: VReg,
        /// Local slot index.
        slot: u16,
    },
    /// `local[slot] = src` — write a mutable local slot.
    SetLocal {
        /// Local slot index.
        slot: u16,
        /// Source register.
        src: VReg,
    },
    /// `dst = op src` — unary value operation.
    Un {
        /// Destination register.
        dst: VReg,
        /// Operator.
        op: UnOp,
        /// Operand.
        src: VReg,
    },
    /// `dst = lhs op rhs` — binary value operation.
    Bin {
        /// Destination register.
        dst: VReg,
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: VReg,
        /// Right operand.
        rhs: VReg,
    },
    /// `dst = lhs op rhs` — comparison producing `bool`.
    Cmp {
        /// Destination register.
        dst: VReg,
        /// Operator.
        op: CmpOp,
        /// Left operand.
        lhs: VReg,
        /// Right operand.
        rhs: VReg,
    },
    /// `dst = (to)src` — scalar conversion.
    Convert {
        /// Destination register.
        dst: VReg,
        /// Target scalar type.
        to: ScalarType,
        /// Operand.
        src: VReg,
    },
    /// `dst = (bool)src` — truthiness conversion.
    ToBool {
        /// Destination register.
        dst: VReg,
        /// Operand.
        src: VReg,
    },
    /// Call of a user function.
    Call {
        /// Destination register (`None` when the result is discarded or the
        /// callee returns `void`).
        dst: Option<VReg>,
        /// Callee index in the program function table.
        func: u16,
        /// Arguments in order.
        args: Vec<VReg>,
        /// Whether the callee pushes a return value.
        returns_value: bool,
    },
    /// Call of a pure math builtin.
    CallPure {
        /// Destination register.
        dst: VReg,
        /// Which builtin.
        builtin: Builtin,
        /// Arguments in order.
        args: Vec<VReg>,
    },
    /// Work-item geometry query.
    WorkItem {
        /// Destination register.
        dst: VReg,
        /// Which query.
        builtin: Builtin,
        /// The dimension operand (absent for `get_work_dim`).
        dim: Option<VReg>,
    },
    /// Work-group barrier with a program-unique site id.
    Barrier {
        /// Unique site id.
        id: u32,
    },
    /// `dst = *ptr` — load through a pointer.
    LoadMem {
        /// Destination register.
        dst: VReg,
        /// Loaded element type.
        ty: ScalarType,
        /// Pointer operand.
        ptr: VReg,
    },
    /// `*ptr = value` — store through a pointer.
    StoreMem {
        /// Stored element type.
        ty: ScalarType,
        /// Pointer operand.
        ptr: VReg,
        /// Value operand.
        value: VReg,
    },
    /// `dst = ptr + count` — element-scaled pointer arithmetic.
    PtrOffset {
        /// Destination register.
        dst: VReg,
        /// Element byte size.
        size: u32,
        /// Pointer operand.
        ptr: VReg,
        /// Signed element count (`long`).
        count: VReg,
    },
    /// `dst = lhs - rhs` in elements (`long`).
    PtrDiff {
        /// Destination register.
        dst: VReg,
        /// Element byte size.
        size: u32,
        /// Left pointer.
        lhs: VReg,
        /// Right pointer.
        rhs: VReg,
    },
}

impl Inst {
    /// The destination register, if the instruction defines one.
    pub fn dst(&self) -> Option<VReg> {
        match self {
            Inst::Const { dst, .. }
            | Inst::GetLocal { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Cmp { dst, .. }
            | Inst::Convert { dst, .. }
            | Inst::ToBool { dst, .. }
            | Inst::CallPure { dst, .. }
            | Inst::WorkItem { dst, .. }
            | Inst::LoadMem { dst, .. }
            | Inst::PtrOffset { dst, .. }
            | Inst::PtrDiff { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } => *dst,
            Inst::SetLocal { .. } | Inst::Barrier { .. } | Inst::StoreMem { .. } => None,
        }
    }

    /// Replaces the destination register (used when cloning instructions).
    /// No-op for instructions that define none.
    pub fn set_dst(&mut self, new: VReg) {
        match self {
            Inst::Const { dst, .. }
            | Inst::GetLocal { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Cmp { dst, .. }
            | Inst::Convert { dst, .. }
            | Inst::ToBool { dst, .. }
            | Inst::CallPure { dst, .. }
            | Inst::WorkItem { dst, .. }
            | Inst::LoadMem { dst, .. }
            | Inst::PtrOffset { dst, .. }
            | Inst::PtrDiff { dst, .. } => *dst = new,
            Inst::Call { dst, .. } => *dst = Some(new),
            Inst::SetLocal { .. } | Inst::Barrier { .. } | Inst::StoreMem { .. } => {}
        }
    }

    /// Calls `f` for every register the instruction reads.
    pub fn for_each_use(&self, mut f: impl FnMut(VReg)) {
        match self {
            Inst::Const { .. } | Inst::GetLocal { .. } | Inst::Barrier { .. } => {}
            Inst::SetLocal { src, .. } => f(*src),
            Inst::Un { src, .. } | Inst::Convert { src, .. } | Inst::ToBool { src, .. } => f(*src),
            Inst::Bin { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            Inst::Call { args, .. } | Inst::CallPure { args, .. } => {
                for a in args {
                    f(*a);
                }
            }
            Inst::WorkItem { dim, .. } => {
                if let Some(d) = dim {
                    f(*d);
                }
            }
            Inst::LoadMem { ptr, .. } => f(*ptr),
            Inst::StoreMem { ptr, value, .. } => {
                f(*ptr);
                f(*value);
            }
            Inst::PtrOffset { ptr, count, .. } => {
                f(*ptr);
                f(*count);
            }
            Inst::PtrDiff { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
        }
    }

    /// Calls `f` with a mutable reference to every register the instruction
    /// reads (for operand rewriting).
    pub fn for_each_use_mut(&mut self, mut f: impl FnMut(&mut VReg)) {
        match self {
            Inst::Const { .. } | Inst::GetLocal { .. } | Inst::Barrier { .. } => {}
            Inst::SetLocal { src, .. } => f(src),
            Inst::Un { src, .. } | Inst::Convert { src, .. } | Inst::ToBool { src, .. } => f(src),
            Inst::Bin { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            Inst::Call { args, .. } | Inst::CallPure { args, .. } => {
                for a in args {
                    f(a);
                }
            }
            Inst::WorkItem { dim, .. } => {
                if let Some(d) = dim {
                    f(d);
                }
            }
            Inst::LoadMem { ptr, .. } => f(ptr),
            Inst::StoreMem { ptr, value, .. } => {
                f(ptr);
                f(value);
            }
            Inst::PtrOffset { ptr, count, .. } => {
                f(ptr);
                f(count);
            }
            Inst::PtrDiff { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
        }
    }

    /// Whether the instruction writes observable state (locals, memory,
    /// synchronisation, calls). Effect-free instructions may still fault
    /// (see [`Inst::can_fault`]).
    pub fn has_side_effects(&self) -> bool {
        matches!(
            self,
            Inst::SetLocal { .. }
                | Inst::Barrier { .. }
                | Inst::StoreMem { .. }
                | Inst::Call { .. }
        )
    }

    /// Whether executing the instruction can raise a runtime error even
    /// though it has no side effects. `is_div_safe(vreg)` must report
    /// whether a divisor register is known non-faulting (a non-zero integer
    /// constant or any float constant).
    pub fn can_fault(&self, is_div_safe: impl Fn(VReg) -> bool) -> bool {
        match self {
            Inst::Bin {
                op: BinOp::Div | BinOp::Rem,
                rhs,
                ..
            } => !is_div_safe(*rhs),
            // Loads fault on out-of-bounds or uninitialised pointers.
            Inst::LoadMem { .. } => true,
            // Pointer difference errors on mismatched buffers.
            Inst::PtrDiff { .. } => true,
            _ => false,
        }
    }
}

/// The closing instruction of a basic block.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way branch on a boolean register.
    Branch {
        /// Condition register.
        cond: VReg,
        /// Successor when true.
        then_bb: BlockId,
        /// Successor when false.
        else_bb: BlockId,
    },
    /// Return from the function (value absent for `void`).
    Return(Option<VReg>),
    /// Control fell off the end of a non-void function (faults at runtime).
    MissingReturn,
    /// Abort the launch with an `int` error code.
    Trap {
        /// Error-code register.
        code: VReg,
    },
}

impl Terminator {
    /// The successor blocks of this terminator (`then` before `else`),
    /// without allocating.
    pub fn successors(&self) -> impl DoubleEndedIterator<Item = BlockId> {
        let (first, second) = match *self {
            Terminator::Jump(t) => (Some(t), None),
            Terminator::Branch {
                then_bb, else_bb, ..
            } => (Some(then_bb), Some(else_bb)),
            Terminator::Return(_) | Terminator::MissingReturn | Terminator::Trap { .. } => {
                (None, None)
            }
        };
        first.into_iter().chain(second)
    }

    /// Calls `f` with a mutable reference to every successor block id.
    pub fn for_each_succ_mut(&mut self, mut f: impl FnMut(&mut BlockId)) {
        match self {
            Terminator::Jump(t) => f(t),
            Terminator::Branch {
                then_bb, else_bb, ..
            } => {
                f(then_bb);
                f(else_bb);
            }
            Terminator::Return(_) | Terminator::MissingReturn | Terminator::Trap { .. } => {}
        }
    }

    /// Calls `f` for every register the terminator reads.
    pub fn for_each_use(&self, mut f: impl FnMut(VReg)) {
        match self {
            Terminator::Branch { cond, .. } => f(*cond),
            Terminator::Return(Some(v)) => f(*v),
            Terminator::Trap { code } => f(*code),
            Terminator::Jump(_) | Terminator::Return(None) | Terminator::MissingReturn => {}
        }
    }

    /// Calls `f` with a mutable reference to every register the terminator
    /// reads.
    pub fn for_each_use_mut(&mut self, mut f: impl FnMut(&mut VReg)) {
        match self {
            Terminator::Branch { cond, .. } => f(cond),
            Terminator::Return(Some(v)) => f(v),
            Terminator::Trap { code } => f(code),
            Terminator::Jump(_) | Terminator::Return(None) | Terminator::MissingReturn => {}
        }
    }
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Debug, Clone)]
pub struct Block {
    /// The instructions, in execution order.
    pub insts: Vec<Inst>,
    /// The closing control transfer.
    pub term: Terminator,
}

/// One function in MIR form.
#[derive(Debug, Clone)]
pub struct MirFunction {
    /// Function name.
    pub name: String,
    /// Whether declared `__kernel`.
    pub is_kernel: bool,
    /// Number of parameter slots (the first locals).
    pub param_count: u16,
    /// Initial values for every local slot. The leading entries mirror the
    /// HIR locals (so argument/`__local`-array binding works unchanged);
    /// trailing entries are compiler temporaries.
    pub local_init: Vec<Value>,
    /// Basic blocks; [`BlockId(0)`](BlockId) is the entry.
    pub blocks: Vec<Block>,
    /// Number of virtual registers allocated (ids are `0..vreg_count`).
    pub vreg_count: u32,
    /// Whether the function returns `void`.
    pub returns_void: bool,
}

impl MirFunction {
    /// Allocates a fresh virtual register.
    pub fn new_vreg(&mut self) -> VReg {
        let v = VReg(self.vreg_count);
        self.vreg_count += 1;
        v
    }

    /// Allocates a fresh temporary local slot (always written before read).
    pub fn new_temp_slot(&mut self) -> u16 {
        let slot = self.local_init.len() as u16;
        self.local_init.push(Value::I64(0));
        slot
    }

    /// Total instruction count across all blocks (terminators included).
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len() + 1).sum()
    }
}

/// Checks the invariants every pass must preserve: there is an entry
/// block, every successor and local slot is in range, every vreg is below
/// `vreg_count` and defined at most once, and every use — terminators
/// included — reads a defined vreg whose def dominates it (earlier in the
/// same block, or in a dominating block). Uses in unreachable blocks need
/// a def but no dominance. The pipeline runs it after every pass in debug
/// builds.
///
/// # Errors
///
/// The first violation found, naming the block and register.
pub fn verify(f: &MirFunction) -> Result<(), String> {
    if f.blocks.is_empty() {
        return Err("no entry block".into());
    }
    let mut def_at: Vec<Option<(usize, usize)>> = vec![None; f.vreg_count as usize];
    for (b, block) in f.blocks.iter().enumerate() {
        for (i, inst) in block.insts.iter().enumerate() {
            if let Inst::GetLocal { slot, .. } | Inst::SetLocal { slot, .. } = inst {
                if *slot as usize >= f.local_init.len() {
                    return Err(format!("bb{b}: local slot {slot} out of range"));
                }
            }
            let Some(d) = inst.dst() else { continue };
            match def_at.get_mut(d.0 as usize) {
                None => return Err(format!("bb{b}: v{} is beyond vreg_count", d.0)),
                Some(Some((first, _))) => {
                    return Err(format!("v{} defined twice (bb{first} and bb{b})", d.0))
                }
                Some(slot) => *slot = Some((b, i)),
            }
        }
        if let Some(s) = block.term.successors().find(|s| s.idx() >= f.blocks.len()) {
            return Err(format!("bb{b}: successor bb{} out of range", s.0));
        }
    }
    let idom = crate::cfg::dominators(f);
    let check = |b: usize, at: usize, v: VReg| -> Result<(), String> {
        let Some(&Some((db, di))) = def_at.get(v.0 as usize) else {
            return Err(format!("bb{b}: use of undefined v{}", v.0));
        };
        let dominated = idom[b].is_none()
            || if db == b {
                di < at
            } else {
                crate::cfg::dominates(&idom, BlockId(db as u32), BlockId(b as u32))
            };
        if dominated {
            Ok(())
        } else {
            Err(format!(
                "bb{b}: use of v{} not dominated by its def in bb{db}",
                v.0
            ))
        }
    };
    let mut first_error = None;
    let mut visit = |b: usize, at: usize, v: VReg| {
        if first_error.is_none() {
            first_error = check(b, at, v).err();
        }
    };
    for (b, block) in f.blocks.iter().enumerate() {
        for (i, inst) in block.insts.iter().enumerate() {
            inst.for_each_use(|u| visit(b, i, u));
        }
        block.term.for_each_use(|u| visit(b, block.insts.len(), u));
    }
    first_error.map_or(Ok(()), Err)
}

/// A whole translation unit in MIR form.
#[derive(Debug, Clone)]
pub struct MirUnit {
    /// Functions, in HIR order (ids in `Call` instructions index this).
    pub functions: Vec<MirFunction>,
    /// Total number of barrier sites assigned across the unit.
    pub barrier_count: u32,
}

/// Lowers a type-checked HIR unit to MIR.
pub fn lower_unit(unit: &hir::Unit) -> MirUnit {
    let mut barrier_counter = 0u32;
    let functions = unit
        .functions
        .iter()
        .map(|f| FnLower::new(f, &mut barrier_counter).run())
        .collect();
    MirUnit {
        functions,
        barrier_count: barrier_counter,
    }
}

/// Deferred write-back of an increment/decrement result to its place.
type StoreBack<'a, 'b> = Box<dyn FnOnce(&mut FnLower<'a>, VReg) + 'b>;

/// Per-function HIR → MIR lowering.
struct FnLower<'a> {
    f: &'a hir::Function,
    out: MirFunction,
    /// Terminators assigned so far (parallel to `out.blocks` being built);
    /// `None` means the block is still open.
    terms: Vec<Option<Terminator>>,
    insts: Vec<Vec<Inst>>,
    cur: BlockId,
    loops: Vec<LoopCtx>,
    free_temps: Vec<u16>,
    barrier_counter: &'a mut u32,
}

struct LoopCtx {
    continue_bb: BlockId,
    break_bb: BlockId,
}

impl<'a> FnLower<'a> {
    fn new(f: &'a hir::Function, barrier_counter: &'a mut u32) -> Self {
        let local_init = f
            .locals
            .iter()
            .map(|l| match l.ty {
                Type::Scalar(s) => Value::zero(s),
                Type::Pointer { .. } => Value::Ptr(Ptr {
                    space: AddressSpace::Private,
                    buffer: UNINIT_BUFFER,
                    byte_offset: 0,
                }),
                Type::Void => unreachable!("no void locals"),
            })
            .collect();
        FnLower {
            f,
            out: MirFunction {
                name: f.name.clone(),
                is_kernel: f.is_kernel,
                param_count: f.param_count as u16,
                local_init,
                blocks: Vec::new(),
                vreg_count: 0,
                returns_void: f.return_type == Type::Void,
            },
            terms: vec![None],
            insts: vec![Vec::new()],
            cur: BlockId(0),
            loops: Vec::new(),
            free_temps: Vec::new(),
            barrier_counter,
        }
    }

    fn run(mut self) -> MirFunction {
        let body = self.f.body.clone();
        self.stmts(&body);
        // Seal the fall-through block with the implicit epilogue.
        let epilogue = if self.f.return_type == Type::Void {
            Terminator::Return(None)
        } else {
            Terminator::MissingReturn
        };
        self.seal(epilogue);
        // The seal above opened a trailing unreachable block; give it a
        // terminator too so every block is closed.
        let last = self.cur;
        self.terms[last.idx()] = Some(Terminator::MissingReturn);

        let mut out = self.out;
        out.blocks = self
            .insts
            .into_iter()
            .zip(self.terms)
            .map(|(insts, term)| Block {
                insts,
                term: term.expect("every block sealed"),
            })
            .collect();
        out
    }

    // ----- block plumbing --------------------------------------------------

    fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.insts.len() as u32);
        self.insts.push(Vec::new());
        self.terms.push(None);
        id
    }

    fn push(&mut self, inst: Inst) {
        self.insts[self.cur.idx()].push(inst);
    }

    /// Closes the current block with `t` and continues in a fresh
    /// (initially unreachable) block.
    fn seal(&mut self, t: Terminator) {
        debug_assert!(self.terms[self.cur.idx()].is_none(), "block sealed twice");
        self.terms[self.cur.idx()] = Some(t);
        self.cur = self.new_block();
    }

    /// Closes the current block with `t` and continues in `next`.
    fn seal_to(&mut self, t: Terminator, next: BlockId) {
        debug_assert!(self.terms[self.cur.idx()].is_none(), "block sealed twice");
        self.terms[self.cur.idx()] = Some(t);
        self.cur = next;
    }

    fn alloc_temp(&mut self) -> u16 {
        if let Some(t) = self.free_temps.pop() {
            t
        } else {
            self.out.new_temp_slot()
        }
    }

    fn free_temp(&mut self, t: u16) {
        self.free_temps.push(t);
    }

    fn def(&mut self, make: impl FnOnce(VReg) -> Inst) -> VReg {
        let dst = self.out.new_vreg();
        let inst = make(dst);
        self.push(inst);
        dst
    }

    // ----- statements ------------------------------------------------------

    fn stmts(&mut self, list: &[Stmt]) {
        for s in list {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Expr(e) => self.expr_effect(e),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let then_bb = self.new_block();
                let join_bb = self.new_block();
                let else_bb = if else_branch.is_empty() {
                    join_bb
                } else {
                    self.new_block()
                };
                self.lower_cond(cond, then_bb, else_bb);
                self.cur = then_bb;
                self.stmts(then_branch);
                self.seal_to(Terminator::Jump(join_bb), join_bb);
                if !else_branch.is_empty() {
                    self.cur = else_bb;
                    self.stmts(else_branch);
                    let t = Terminator::Jump(join_bb);
                    debug_assert!(self.terms[self.cur.idx()].is_none());
                    self.terms[self.cur.idx()] = Some(t);
                }
                self.cur = join_bb;
            }
            Stmt::Loop {
                cond,
                body,
                step,
                test_at_end,
            } => {
                let cond_bb = self.new_block();
                let body_bb = self.new_block();
                let step_bb = self.new_block();
                let exit_bb = self.new_block();
                self.loops.push(LoopCtx {
                    continue_bb: step_bb,
                    break_bb: exit_bb,
                });
                if *test_at_end {
                    // do-while: body first, condition after the step.
                    self.seal_to(Terminator::Jump(body_bb), body_bb);
                    self.stmts(body);
                    self.seal_to(Terminator::Jump(step_bb), step_bb);
                    if let Some(step) = step {
                        self.expr_effect(step);
                    }
                    self.seal_to(Terminator::Jump(cond_bb), cond_bb);
                    self.lower_cond(cond, body_bb, exit_bb);
                } else {
                    self.seal_to(Terminator::Jump(cond_bb), cond_bb);
                    self.lower_cond(cond, body_bb, exit_bb);
                    self.cur = body_bb;
                    self.stmts(body);
                    self.seal_to(Terminator::Jump(step_bb), step_bb);
                    if let Some(step) = step {
                        self.expr_effect(step);
                    }
                    self.seal_to(Terminator::Jump(cond_bb), cond_bb);
                    // cond_bb is already sealed by lower_cond above; move on.
                }
                self.loops.pop();
                self.cur = exit_bb;
            }
            Stmt::Break => {
                let target = self
                    .loops
                    .last()
                    .expect("sema rejects stray break")
                    .break_bb;
                self.seal(Terminator::Jump(target));
            }
            Stmt::Continue => {
                let target = self
                    .loops
                    .last()
                    .expect("sema rejects stray continue")
                    .continue_bb;
                self.seal(Terminator::Jump(target));
            }
            Stmt::Return(Some(e)) => {
                let v = self.expr(e);
                self.seal(Terminator::Return(Some(v)));
            }
            Stmt::Return(None) => self.seal(Terminator::Return(None)),
        }
    }

    /// Lowers a boolean condition with direct branching: control reaches
    /// `t_bb` when the condition is truthy and `f_bb` otherwise. Seals the
    /// current block.
    fn lower_cond(&mut self, e: &Expr, t_bb: BlockId, f_bb: BlockId) {
        match e {
            Expr::Logical {
                is_and, lhs, rhs, ..
            } => {
                let mid = self.new_block();
                if *is_and {
                    self.lower_cond(lhs, mid, f_bb);
                } else {
                    self.lower_cond(lhs, t_bb, mid);
                }
                self.cur = mid;
                self.lower_cond(rhs, t_bb, f_bb);
            }
            Expr::Unary {
                op: UnOp::Not,
                expr,
                ..
            } => self.lower_cond(expr, f_bb, t_bb),
            Expr::Const { value, .. } => {
                let truthy = const_to_value(*value).is_truthy();
                self.seal_to(Terminator::Jump(if truthy { t_bb } else { f_bb }), t_bb);
                // `seal_to` left `cur` pointing at t_bb only as a dummy; the
                // caller always re-targets `cur` right after lower_cond.
            }
            other => {
                let cond = self.expr(other);
                self.seal_to(
                    Terminator::Branch {
                        cond,
                        then_bb: t_bb,
                        else_bb: f_bb,
                    },
                    t_bb,
                );
            }
        }
    }

    /// Lowers an expression for its side effects, discarding the value.
    fn expr_effect(&mut self, e: &Expr) {
        match e {
            Expr::Assign { place, value, .. } => {
                self.lower_assign(place, value);
            }
            Expr::IncDec {
                place,
                ty,
                is_inc,
                is_post,
                ..
            } => {
                self.lower_incdec(place, *ty, *is_inc, *is_post);
            }
            Expr::Call { func, args, ty, .. } => {
                let argv: Vec<VReg> = args.iter().map(|a| self.expr(a)).collect();
                let returns_value = *ty != Type::Void;
                self.push(Inst::Call {
                    dst: None,
                    func: func.0 as u16,
                    args: argv,
                    returns_value,
                });
            }
            Expr::BuiltinCall { builtin, args, .. } if builtin.kind() == BuiltinKind::Barrier => {
                // The flags operand is evaluated (it may have effects in
                // principle) and discarded; the barrier id is static.
                let _ = self.expr(&args[0]);
                let id = *self.barrier_counter;
                *self.barrier_counter += 1;
                self.push(Inst::Barrier { id });
            }
            Expr::BuiltinCall { builtin, args, .. }
                if matches!(builtin.kind(), BuiltinKind::Trap | BuiltinKind::TrapValue) =>
            {
                let code = self.expr(&args[0]);
                self.seal(Terminator::Trap { code });
            }
            other if other.ty() == Type::Void => {
                unreachable!("void expression not handled: {other:?}")
            }
            other => {
                let _ = self.expr(other);
            }
        }
    }

    // ----- expressions -----------------------------------------------------

    /// Lowers `e`, returning the register holding its value.
    fn expr(&mut self, e: &Expr) -> VReg {
        match e {
            Expr::Const { value, .. } => {
                let v = const_to_value(*value);
                self.def(|dst| Inst::Const { dst, value: v })
            }
            Expr::Local { id, .. } => {
                let slot = id.0 as u16;
                self.def(|dst| Inst::GetLocal { dst, slot })
            }
            Expr::Unary { op, expr, .. } => {
                let src = self.expr(expr);
                let op = *op;
                self.def(|dst| Inst::Un { dst, op, src })
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                let l = self.expr(lhs);
                let r = self.expr(rhs);
                let op = *op;
                self.def(|dst| Inst::Bin {
                    dst,
                    op,
                    lhs: l,
                    rhs: r,
                })
            }
            Expr::Compare { op, lhs, rhs, .. } => {
                let l = self.expr(lhs);
                let r = self.expr(rhs);
                let op = *op;
                self.def(|dst| Inst::Cmp {
                    dst,
                    op,
                    lhs: l,
                    rhs: r,
                })
            }
            Expr::Logical { .. } => {
                // Value position: route the boolean through a temp slot via
                // direct branch lowering (the passes clean this up).
                let tmp = self.alloc_temp();
                let t_bb = self.new_block();
                let f_bb = self.new_block();
                let join = self.new_block();
                self.lower_cond(e, t_bb, f_bb);
                self.cur = t_bb;
                let vt = self.def(|dst| Inst::Const {
                    dst,
                    value: Value::Bool(true),
                });
                self.push(Inst::SetLocal { slot: tmp, src: vt });
                self.seal_to(Terminator::Jump(join), f_bb);
                let vf = self.def(|dst| Inst::Const {
                    dst,
                    value: Value::Bool(false),
                });
                self.push(Inst::SetLocal { slot: tmp, src: vf });
                self.seal_to(Terminator::Jump(join), join);
                self.free_temp(tmp);
                self.def(|dst| Inst::GetLocal { dst, slot: tmp })
            }
            Expr::Convert { to, expr, .. } => {
                let src = self.expr(expr);
                if *to == ScalarType::Bool {
                    self.def(|dst| Inst::ToBool { dst, src })
                } else {
                    let to = *to;
                    self.def(|dst| Inst::Convert { dst, to, src })
                }
            }
            Expr::Assign { place, value, .. } => self.lower_assign(place, value),
            Expr::IncDec {
                place,
                ty,
                is_inc,
                is_post,
                ..
            } => self.lower_incdec(place, *ty, *is_inc, *is_post),
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
                ..
            } => {
                let tmp = self.alloc_temp();
                let t_bb = self.new_block();
                let e_bb = self.new_block();
                let join = self.new_block();
                self.lower_cond(cond, t_bb, e_bb);
                self.cur = t_bb;
                let vt = self.expr(then_expr);
                self.push(Inst::SetLocal { slot: tmp, src: vt });
                self.seal_to(Terminator::Jump(join), e_bb);
                let ve = self.expr(else_expr);
                self.push(Inst::SetLocal { slot: tmp, src: ve });
                self.seal_to(Terminator::Jump(join), join);
                self.free_temp(tmp);
                self.def(|dst| Inst::GetLocal { dst, slot: tmp })
            }
            Expr::Call { func, args, ty, .. } => {
                let argv: Vec<VReg> = args.iter().map(|a| self.expr(a)).collect();
                debug_assert_ne!(*ty, Type::Void, "void call in value position");
                let func = func.0 as u16;
                let dst = self.out.new_vreg();
                self.push(Inst::Call {
                    dst: Some(dst),
                    func,
                    args: argv,
                    returns_value: true,
                });
                dst
            }
            Expr::BuiltinCall {
                builtin, args, ty, ..
            } => match builtin.kind() {
                BuiltinKind::WorkItemQuery => {
                    let dim = self.expr(&args[0]);
                    let b = *builtin;
                    self.def(|dst| Inst::WorkItem {
                        dst,
                        builtin: b,
                        dim: Some(dim),
                    })
                }
                BuiltinKind::WorkDim => {
                    let b = *builtin;
                    self.def(|dst| Inst::WorkItem {
                        dst,
                        builtin: b,
                        dim: None,
                    })
                }
                BuiltinKind::TrapValue => {
                    // The trap aborts; the continuation is unreachable, but
                    // the expression still needs a register of its type.
                    let code = self.expr(&args[0]);
                    self.seal(Terminator::Trap { code });
                    let zero = Value::zero(ty.as_scalar().unwrap_or(ScalarType::Int));
                    self.def(|dst| Inst::Const { dst, value: zero })
                }
                BuiltinKind::Barrier | BuiltinKind::Trap => {
                    unreachable!("void builtin in value position")
                }
                _ => {
                    let argv: Vec<VReg> = args.iter().map(|a| self.expr(a)).collect();
                    let b = *builtin;
                    self.def(|dst| Inst::CallPure {
                        dst,
                        builtin: b,
                        args: argv,
                    })
                }
            },
            Expr::PtrOffset { ptr, offset, .. } => {
                let p = self.expr(ptr);
                let c = self.expr(offset);
                let size = pointee_of(ptr.ty()).size_bytes() as u32;
                self.def(|dst| Inst::PtrOffset {
                    dst,
                    size,
                    ptr: p,
                    count: c,
                })
            }
            Expr::PtrDiff { lhs, rhs, .. } => {
                let l = self.expr(lhs);
                let r = self.expr(rhs);
                let size = pointee_of(lhs.ty()).size_bytes() as u32;
                self.def(|dst| Inst::PtrDiff {
                    dst,
                    size,
                    lhs: l,
                    rhs: r,
                })
            }
            Expr::Load { ptr, elem, .. } => {
                let p = self.expr(ptr);
                let ty = *elem;
                self.def(|dst| Inst::LoadMem { dst, ty, ptr: p })
            }
        }
    }

    /// Lowers an assignment, returning the register holding the stored
    /// value. Pointer operands are evaluated before the value.
    fn lower_assign(&mut self, place: &Place, value: &Expr) -> VReg {
        match place {
            Place::Local(id) => {
                let v = self.expr(value);
                self.push(Inst::SetLocal {
                    slot: id.0 as u16,
                    src: v,
                });
                v
            }
            Place::Deref { ptr, elem } => {
                let p = self.expr(ptr);
                let v = self.expr(value);
                self.push(Inst::StoreMem {
                    ty: *elem,
                    ptr: p,
                    value: v,
                });
                v
            }
        }
    }

    /// Lowers `++`/`--`, returning the old (`is_post`) or new value.
    fn lower_incdec(&mut self, place: &Place, ty: Type, is_inc: bool, is_post: bool) -> VReg {
        let (old, store): (VReg, StoreBack<'a, '_>) = match place {
            Place::Local(id) => {
                let slot = id.0 as u16;
                let old = self.def(|dst| Inst::GetLocal { dst, slot });
                (
                    old,
                    Box::new(move |this: &mut Self, v: VReg| {
                        this.push(Inst::SetLocal { slot, src: v });
                    }),
                )
            }
            Place::Deref { ptr, elem } => {
                let p = self.expr(ptr);
                let elem = *elem;
                let old = self.def(|dst| Inst::LoadMem {
                    dst,
                    ty: elem,
                    ptr: p,
                });
                (
                    old,
                    Box::new(move |this: &mut Self, v: VReg| {
                        this.push(Inst::StoreMem {
                            ty: elem,
                            ptr: p,
                            value: v,
                        });
                    }),
                )
            }
        };

        let new = match ty {
            Type::Scalar(s) => {
                let one = one_of(s);
                let one_v = self.def(|dst| Inst::Const { dst, value: one });
                let op = if is_inc { BinOp::Add } else { BinOp::Sub };
                self.def(|dst| Inst::Bin {
                    dst,
                    op,
                    lhs: old,
                    rhs: one_v,
                })
            }
            Type::Pointer { pointee, .. } => {
                let step = Value::I64(if is_inc { 1 } else { -1 });
                let step_v = self.def(|dst| Inst::Const { dst, value: step });
                let size = pointee.size_bytes() as u32;
                self.def(|dst| Inst::PtrOffset {
                    dst,
                    size,
                    ptr: old,
                    count: step_v,
                })
            }
            Type::Void => unreachable!("sema rejects void inc/dec"),
        };
        store(self, new);
        if is_post {
            old
        } else {
            new
        }
    }
}

fn pointee_of(ty: Type) -> ScalarType {
    match ty {
        Type::Pointer { pointee, .. } => pointee,
        other => unreachable!("expected pointer type, got {other}"),
    }
}

/// The constant `1` of a scalar type (for inc/dec).
fn one_of(s: ScalarType) -> Value {
    use ScalarType::*;
    match s {
        Bool => Value::Bool(true),
        Char => Value::I8(1),
        UChar => Value::U8(1),
        Short => Value::I16(1),
        UShort => Value::U16(1),
        Int => Value::I32(1),
        UInt => Value::U32(1),
        Long => Value::I64(1),
        ULong => Value::U64(1),
        Float => Value::F32(1.0),
        Double => Value::F64(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Diagnostics;
    use crate::parser::parse;
    use crate::sema::analyze;
    use crate::source::SourceFile;

    fn lower(src: &str) -> MirUnit {
        let f = SourceFile::new("t.cl", src);
        let mut d = Diagnostics::new();
        let tu = parse(&f, &mut d);
        let unit = analyze(&tu, &mut d).unwrap_or_else(|| panic!("{}", d.render(&f)));
        lower_unit(&unit)
    }

    #[test]
    fn simple_function_lowers_to_one_return() {
        let u = lower("float f(float x){ return -x; }");
        let f = &u.functions[0];
        assert_eq!(f.param_count, 1);
        assert!(!f.returns_void);
        let entry = &f.blocks[0];
        assert!(matches!(entry.term, Terminator::Return(Some(_))));
        assert!(entry
            .insts
            .iter()
            .any(|i| matches!(i, Inst::Un { op: UnOp::Neg, .. })));
    }

    #[test]
    fn if_produces_branch() {
        let u = lower("int f(int x){ if (x > 0) return 1; return 2; }");
        let f = &u.functions[0];
        assert!(f
            .blocks
            .iter()
            .any(|b| matches!(b.term, Terminator::Branch { .. })));
    }

    #[test]
    fn loop_has_backedge_structure() {
        let u =
            lower("int f(int n){ int s = 0; for (int i = 0; i < n; i++) s = s + i; return s; }");
        let f = &u.functions[0];
        // Some block jumps to an earlier block (the loop back edge).
        let has_backedge = f.blocks.iter().enumerate().any(|(i, b)| {
            b.term
                .successors()
                .any(|s| s.idx() <= i && matches!(b.term, Terminator::Jump(_)))
        });
        assert!(has_backedge);
    }

    #[test]
    fn barrier_sites_get_unique_ids() {
        let u = lower(
            "__kernel void k(){
                barrier(CLK_LOCAL_MEM_FENCE);
                barrier(CLK_LOCAL_MEM_FENCE);
            }",
        );
        let mut ids = vec![];
        for b in &u.functions[0].blocks {
            for i in &b.insts {
                if let Inst::Barrier { id } = i {
                    ids.push(*id);
                }
            }
        }
        assert_eq!(ids.len(), 2);
        assert_ne!(ids[0], ids[1]);
        assert_eq!(u.barrier_count, 2);
    }

    /// A hand-built function over one `int` slot.
    fn hand(blocks: Vec<Block>, vreg_count: u32) -> MirFunction {
        MirFunction {
            name: "t".into(),
            is_kernel: false,
            param_count: 0,
            local_init: vec![Value::I32(0)],
            blocks,
            vreg_count,
            returns_void: false,
        }
    }

    fn block(insts: Vec<Inst>, term: Terminator) -> Block {
        Block { insts, term }
    }

    fn konst(dst: u32) -> Inst {
        Inst::Const {
            dst: VReg(dst),
            value: Value::I32(1),
        }
    }

    fn add(dst: u32, lhs: u32, rhs: u32) -> Inst {
        Inst::Bin {
            dst: VReg(dst),
            op: BinOp::Add,
            lhs: VReg(lhs),
            rhs: VReg(rhs),
        }
    }

    fn rejected(f: &MirFunction, needle: &str) {
        let err = verify(f).expect_err("the verifier rejects a broken function");
        assert!(err.contains(needle), "{needle:?} not in {err:?}");
    }

    #[test]
    fn verify_accepts_lowered_and_optimized_mir() {
        let src = "int coef(int d){ return d < 0 ? -d : d; }
            int f(int n, int x){
                int s = 0;
                for (int i = 0; i < 4; i++) s += coef(x) * i;
                for (int j = 0; j < n && s > 2; j++) { if (j == 3) break; s = s ^ j; }
                do { s--; } while (s > 100);
                return s;
            }";
        let mut u = lower(src);
        for f in &u.functions {
            verify(f).unwrap_or_else(|e| panic!("lowered {}: {e}", f.name));
        }
        crate::passes::run(&mut u, &crate::passes::OptConfig::all());
        for f in &u.functions {
            verify(f).unwrap_or_else(|e| panic!("optimized {}: {e}", f.name));
        }
    }

    #[test]
    fn verify_rejects_dangling_successor_left_by_simplify() {
        let f = hand(vec![block(vec![], Terminator::Jump(BlockId(3)))], 0);
        rejected(&f, "successor bb3 out of range");
    }

    #[test]
    fn verify_rejects_second_def_left_by_const_prop() {
        let f = hand(
            vec![block(
                vec![konst(0), konst(0)],
                Terminator::Return(Some(VReg(0))),
            )],
            1,
        );
        rejected(&f, "v0 defined twice");
    }

    #[test]
    fn verify_rejects_use_of_a_def_cse_dropped() {
        let f = hand(
            vec![block(vec![add(1, 0, 0)], Terminator::Return(Some(VReg(1))))],
            2,
        );
        rejected(&f, "use of undefined v0");
    }

    #[test]
    fn verify_rejects_licm_hoist_out_of_dominance_order() {
        // A preheader filled in block-id order from a loop whose block 1
        // uses what its block 2 defines: the use now precedes the def.
        let f = hand(
            vec![
                block(vec![add(1, 0, 0), konst(0)], Terminator::Jump(BlockId(1))),
                block(vec![], Terminator::Return(Some(VReg(1)))),
            ],
            2,
        );
        rejected(&f, "use of v0 not dominated");
    }

    #[test]
    fn verify_rejects_unroll_clone_reading_the_other_arm() {
        // bb1's def does not dominate the join bb3.
        let f = hand(
            vec![
                block(
                    vec![konst(0)],
                    Terminator::Branch {
                        cond: VReg(0),
                        then_bb: BlockId(1),
                        else_bb: BlockId(2),
                    },
                ),
                block(vec![konst(1)], Terminator::Jump(BlockId(3))),
                block(vec![], Terminator::Jump(BlockId(3))),
                block(vec![], Terminator::Return(Some(VReg(1)))),
            ],
            2,
        );
        rejected(&f, "bb3: use of v1 not dominated by its def in bb1");
    }

    #[test]
    fn verify_rejects_terminator_reading_a_def_dce_removed() {
        let f = hand(
            vec![block(
                vec![Inst::SetLocal {
                    slot: 0,
                    src: VReg(0),
                }],
                Terminator::Trap { code: VReg(0) },
            )],
            1,
        );
        rejected(&f, "use of undefined v0");
    }

    #[test]
    fn verify_rejects_out_of_range_registers_and_slots() {
        let f = hand(vec![block(vec![konst(4)], Terminator::Return(None))], 2);
        rejected(&f, "v4 is beyond vreg_count");
        let f = hand(
            vec![block(
                vec![Inst::GetLocal {
                    dst: VReg(0),
                    slot: 7,
                }],
                Terminator::Return(None),
            )],
            1,
        );
        rejected(&f, "local slot 7 out of range");
    }

    #[test]
    fn vregs_are_defined_once() {
        let u = lower(
            "int f(int n){ int s = 0; for (int i = 0; i < n; i++) { if (i > 2 && i < 7) s += i; } return s; }",
        );
        let f = &u.functions[0];
        let mut defined = vec![false; f.vreg_count as usize];
        for b in &f.blocks {
            for i in &b.insts {
                if let Some(d) = i.dst() {
                    assert!(!defined[d.0 as usize], "vreg {d:?} defined twice");
                    defined[d.0 as usize] = true;
                }
            }
        }
    }
}
