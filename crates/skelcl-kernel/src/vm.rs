//! The work-item virtual machine.
//!
//! Each work-item is an independent [`WorkItem`] interpreter over the
//! program bytecode. `barrier()` suspends the item ([`Exit::Barrier`]); the
//! executor (in the `vgpu` crate) runs all items of a work-group in lockstep
//! rounds, resuming them after every item reached the same barrier — exactly
//! the OpenCL work-group execution model.
//!
//! Global memory is abstracted behind [`GlobalMemory`] so that the platform
//! simulator can share buffers between concurrently executing work-groups.

use std::fmt;

use crate::builtins::{self, Builtin};
use crate::decode::{ChainTail, CmpUse, Decoded, Dst, Operand};
use crate::hir::{BinOp, CmpOp};
use crate::ir::Op;
use crate::program::{KernelInfo, Program};
use crate::types::{AddressSpace, ScalarType};
use crate::value::{self, Ptr, Value, UNINIT_BUFFER};

/// Maximum call depth (OpenCL forbids recursion, so real chains are short).
pub const MAX_CALL_DEPTH: usize = 256;

/// Geometry of one work-item within a launch (OpenCL work-item functions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItemGeometry {
    /// Number of dimensions in the launch (1, 2 or 3).
    pub work_dim: u32,
    /// `get_global_id`
    pub global_id: [u64; 3],
    /// `get_local_id`
    pub local_id: [u64; 3],
    /// `get_group_id`
    pub group_id: [u64; 3],
    /// `get_global_size`
    pub global_size: [u64; 3],
    /// `get_local_size`
    pub local_size: [u64; 3],
    /// `get_num_groups`
    pub num_groups: [u64; 3],
}

impl ItemGeometry {
    /// A degenerate 1-D geometry for a single work-item (testing).
    pub fn single() -> Self {
        ItemGeometry {
            work_dim: 1,
            global_id: [0; 3],
            local_id: [0; 3],
            group_id: [0; 3],
            global_size: [1, 1, 1],
            local_size: [1, 1, 1],
            num_groups: [1, 1, 1],
        }
    }
}

/// Execution cost counters of one work-item (or aggregated over many).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostCounters {
    /// Executed instructions (decoded superinstructions, not source ops).
    ///
    /// The op budget ([`WorkItem::set_ops_budget`]) is charged against this
    /// counter, i.e. against what actually executes. Two compiles of the
    /// same source under different `SKELCL_KERNEL_OPT` settings therefore
    /// report different `ops` for identical buffer results; the gap is
    /// what [`CostCounters::ops_saved`] records.
    pub ops: u64,
    /// Loads from global memory.
    pub global_loads: u64,
    /// Stores to global memory.
    pub global_stores: u64,
    /// Loads from local memory.
    pub local_loads: u64,
    /// Stores to local memory.
    pub local_stores: u64,
    /// Barrier crossings.
    pub barriers: u64,
    /// Bytes moved to or from global memory.
    pub global_bytes: u64,
    /// Executed ops avoided by the optimizing compile pipeline, measured
    /// against an unoptimized reference compile of the same source.
    ///
    /// The VM never sets this field (it is always 0 during execution —
    /// the VM only sees one program and cannot know the counterfactual);
    /// benchmark harnesses fill it in by running both compiles and
    /// subtracting, and [`CostCounters::merge`] sums it like every other
    /// counter.
    pub ops_saved: u64,
}

impl CostCounters {
    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &CostCounters) {
        self.ops += other.ops;
        self.global_loads += other.global_loads;
        self.global_stores += other.global_stores;
        self.local_loads += other.local_loads;
        self.local_stores += other.local_stores;
        self.barriers += other.barriers;
        self.global_bytes += other.global_bytes;
        self.ops_saved += other.ops_saved;
    }

    /// Total global memory operations.
    pub fn global_mem_ops(&self) -> u64 {
        self.global_loads + self.global_stores
    }

    /// Total local memory operations.
    pub fn local_mem_ops(&self) -> u64 {
        self.local_loads + self.local_stores
    }
}

/// A memory access failure description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemAccessError {
    /// Which address space was accessed.
    pub space: AddressSpace,
    /// The buffer index (global) or 0 (local arena).
    pub buffer: u32,
    /// The offending byte offset.
    pub byte_offset: i64,
    /// The buffer's length in bytes.
    pub len: usize,
    /// The element type of the access.
    pub ty: ScalarType,
}

impl fmt::Display for MemAccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out-of-bounds {} access of `{}` at byte offset {} (buffer {} is {} bytes)",
            self.space, self.ty, self.byte_offset, self.buffer, self.len
        )
    }
}

/// A runtime error raised while executing kernel code.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// A load or store fell outside its buffer.
    OutOfBounds(MemAccessError),
    /// A pointer local was used before being assigned.
    UninitializedPointer,
    /// Integer division or remainder by zero.
    DivisionByZero,
    /// `__skelcl_trap(code)` was executed (generated bounds checks).
    Trap {
        /// The trap code.
        code: i32,
    },
    /// Control fell off the end of a non-void function.
    MissingReturn {
        /// The function's name.
        function: String,
    },
    /// The call stack exceeded [`MAX_CALL_DEPTH`].
    StackOverflow,
    /// The per-item instruction budget was exhausted (guards against
    /// non-terminating kernels).
    OpLimitExceeded,
    /// Subtraction of pointers into different buffers or address spaces.
    IncompatiblePointers,
    /// An internal VM invariant failed (compiler bug).
    Internal(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::OutOfBounds(e) => write!(f, "{e}"),
            RuntimeError::UninitializedPointer => f.write_str("use of an uninitialized pointer"),
            RuntimeError::DivisionByZero => f.write_str("integer division by zero"),
            RuntimeError::Trap { code } => write!(f, "kernel trap with code {code}"),
            RuntimeError::MissingReturn { function } => {
                write!(
                    f,
                    "control reached the end of non-void function `{function}`"
                )
            }
            RuntimeError::StackOverflow => f.write_str("kernel call stack overflow"),
            RuntimeError::OpLimitExceeded => {
                f.write_str("kernel instruction budget exceeded (possible infinite loop)")
            }
            RuntimeError::IncompatiblePointers => {
                f.write_str("subtraction of pointers into different buffers")
            }
            RuntimeError::Internal(msg) => write!(f, "internal VM error: {msg}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Abstraction over device global memory, implemented by the platform.
///
/// Methods take `&self`: buffers may be shared by concurrently running
/// work-groups, and — as on real hardware — racing unsynchronised accesses
/// yield unspecified (but memory-safe) contents.
pub trait GlobalMemory {
    /// Loads an element of type `ty` at `byte_offset` in `buffer`.
    ///
    /// # Errors
    ///
    /// Returns a [`MemAccessError`] for out-of-range accesses or unknown
    /// buffers.
    fn load(&self, buffer: u32, byte_offset: i64, ty: ScalarType) -> Result<Value, MemAccessError>;

    /// Stores `v` (of type `ty`) at `byte_offset` in `buffer`.
    ///
    /// # Errors
    ///
    /// Returns a [`MemAccessError`] for out-of-range accesses or unknown
    /// buffers.
    fn store(
        &self,
        buffer: u32,
        byte_offset: i64,
        ty: ScalarType,
        v: Value,
    ) -> Result<(), MemAccessError>;
}

/// A simple single-threaded [`GlobalMemory`] backed by `Vec`s (testing and
/// host-side execution).
#[derive(Debug, Default)]
pub struct HostMemory {
    buffers: Vec<std::cell::RefCell<Vec<u8>>>,
}

impl HostMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a buffer, returning its index.
    pub fn add_buffer(&mut self, bytes: Vec<u8>) -> u32 {
        self.buffers.push(std::cell::RefCell::new(bytes));
        (self.buffers.len() - 1) as u32
    }

    /// A copy of a buffer's current contents.
    ///
    /// # Panics
    ///
    /// Panics if the index is unknown.
    pub fn bytes(&self, buffer: u32) -> Vec<u8> {
        self.buffers[buffer as usize].borrow().clone()
    }
}

fn check_range(
    len: usize,
    byte_offset: i64,
    ty: ScalarType,
    space: AddressSpace,
    buffer: u32,
) -> Result<usize, MemAccessError> {
    let size = ty.size_bytes();
    if byte_offset < 0 || (byte_offset as usize).saturating_add(size) > len {
        return Err(MemAccessError {
            space,
            buffer,
            byte_offset,
            len,
            ty,
        });
    }
    Ok(byte_offset as usize)
}

impl GlobalMemory for HostMemory {
    fn load(&self, buffer: u32, byte_offset: i64, ty: ScalarType) -> Result<Value, MemAccessError> {
        let buf = self.buffers.get(buffer as usize).ok_or(MemAccessError {
            space: AddressSpace::Global,
            buffer,
            byte_offset,
            len: 0,
            ty,
        })?;
        let buf = buf.borrow();
        let off = check_range(buf.len(), byte_offset, ty, AddressSpace::Global, buffer)?;
        Ok(value::read_scalar(&buf[off..], ty))
    }

    fn store(
        &self,
        buffer: u32,
        byte_offset: i64,
        ty: ScalarType,
        v: Value,
    ) -> Result<(), MemAccessError> {
        let buf = self.buffers.get(buffer as usize).ok_or(MemAccessError {
            space: AddressSpace::Global,
            buffer,
            byte_offset,
            len: 0,
            ty,
        })?;
        let mut buf = buf.borrow_mut();
        let off = check_range(buf.len(), byte_offset, ty, AddressSpace::Global, buffer)?;
        value::write_scalar(&mut buf[off..], ty, v);
        Ok(())
    }
}

/// How a [`WorkItem::run`] call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// The kernel finished for this item.
    Done,
    /// The item reached the barrier with the given site id and is suspended.
    Barrier(u32),
}

#[derive(Debug)]
struct Frame {
    func: u16,
    pc: usize,
    locals: Vec<Value>,
    stack: Vec<Value>,
}

impl Frame {
    /// An empty frame shell, ready to be filled from a frame pool.
    fn blank() -> Self {
        Frame {
            func: 0,
            pc: 0,
            locals: Vec::new(),
            stack: Vec::new(),
        }
    }
}

/// A kernel's entry frame, prepared **once per launch**: the entry
/// function's initial locals with the launch arguments copied over the
/// parameter slots and every static `__local` array slot bound to its
/// pointer into the work-group arena. [`WorkItem::arm`] starts an item from
/// it with one slice copy, so nothing about the arguments is re-derived per
/// work-item.
#[derive(Debug, Clone)]
pub struct EntryFrame {
    program: Program,
    func: u16,
    locals: Vec<Value>,
}

impl EntryFrame {
    /// Prepares `kernel`'s entry frame for `args` (buffers as
    /// [`Value::Ptr`], scalars as plain values, in parameter order).
    ///
    /// # Panics
    ///
    /// Panics if `kernel` is not a kernel of `program` or `args` doesn't
    /// match its parameter count.
    pub fn new(program: &Program, kernel: &KernelInfo, args: &[Value]) -> Self {
        let code = &program.functions()[kernel.func as usize];
        assert_eq!(
            args.len(),
            code.param_count as usize,
            "kernel `{}` argument count mismatch",
            code.name
        );
        let mut locals = code.local_init.clone();
        locals[..args.len()].copy_from_slice(args);
        for b in &kernel.local_arrays {
            locals[b.slot as usize] = Value::Ptr(Ptr {
                space: AddressSpace::Local,
                buffer: 0,
                byte_offset: b.byte_offset as i64,
            });
        }
        EntryFrame {
            program: program.clone(),
            func: kernel.func,
            locals,
        }
    }

    /// The program the frame belongs to.
    pub fn program(&self) -> &Program {
        &self.program
    }
}

/// A single work-item's suspended or running execution state.
///
/// A `WorkItem` is reusable: [`WorkItem::arm`] (or [`WorkItem::reset`])
/// rearms a finished (or faulted) item for a new launch geometry while
/// recycling its frame, locals and operand-stack allocations — the executor
/// keeps its items per host thread and rearms them per work-item instead of
/// constructing fresh ones.
///
/// An item owns exactly one [`Program`] handle for as long as it stays on
/// the same program. Neither rearming nor running touches the handle's
/// shared reference count: that count sits on a cache line every host
/// thread executing the program reads, so a per-item write to it would
/// serialise the threads.
#[derive(Debug)]
pub struct WorkItem {
    program: Program,
    geometry: ItemGeometry,
    frames: Vec<Frame>,
    /// Retired frames kept for reuse: `Call` draws from this pool instead
    /// of allocating locals/stack vectors per call.
    free_frames: Vec<Frame>,
    /// Cost counters accumulated so far.
    pub counters: CostCounters,
    /// Dispatch-loop iterations so far. Unlike [`CostCounters::ops`] (which
    /// counts *source* ops — a fused superinstruction covering `k` ops
    /// charges `k`, so both interpreters agree), this counts one per decoded
    /// head in [`WorkItem::run`] and one per op in
    /// [`WorkItem::run_reference`]: it measures interpreter-loop overhead,
    /// the quantity fusion and register lowering exist to shrink. It is
    /// deliberately *not* part of `CostCounters` so the engines' counter
    /// cross-checks stay exact.
    pub dispatches: u64,
    /// Remaining instruction budget.
    ops_budget: u64,
    finished: bool,
}

impl WorkItem {
    /// Creates a work-item poised at the start of kernel function `func`
    /// with the given argument values (buffers as [`Value::Ptr`], scalars as
    /// plain values, in parameter order).
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range or `args` doesn't match the
    /// function's parameter count.
    pub fn new(program: &Program, func: u16, args: &[Value], geometry: ItemGeometry) -> Self {
        let mut item = WorkItem::idle(program);
        item.reset(program, func, args, geometry);
        item
    }

    /// An item with no work: it reports [`WorkItem::is_finished`] until
    /// [`WorkItem::arm`] or [`WorkItem::reset`] gives it some. Lets an
    /// executor grow its item pool without a second arming path.
    pub fn idle(program: &Program) -> Self {
        WorkItem {
            program: program.clone(),
            geometry: ItemGeometry::single(),
            frames: Vec::with_capacity(4),
            free_frames: Vec::new(),
            counters: CostCounters::default(),
            dispatches: 0,
            ops_budget: u64::MAX,
            finished: true,
        }
    }

    /// Rearms this item for another work-item of a launch: new entry
    /// function, arguments and geometry; counters and budget reset. The
    /// program handle is compared by pointer and only replaced when the
    /// item moves to a different program, and all frame/locals/stack
    /// allocations are recycled, so a reset item executes without any
    /// steady-state heap allocation or shared write.
    ///
    /// # Panics
    ///
    /// As for [`WorkItem::new`].
    pub fn reset(&mut self, program: &Program, func: u16, args: &[Value], geometry: ItemGeometry) {
        let code = &program.functions()[func as usize];
        assert_eq!(
            args.len(),
            code.param_count as usize,
            "kernel `{}` argument count mismatch",
            code.name
        );
        self.rearm(program, func, &code.local_init, geometry, u64::MAX);
        let frame = self.frames.last_mut().expect("entry frame exists");
        frame.locals[..args.len()].copy_from_slice(args);
    }

    /// Rearms this item from a launch's prepared [`EntryFrame`] — what
    /// [`WorkItem::reset`], [`WorkItem::set_ops_budget`] and one
    /// [`WorkItem::bind_entry_slot`] per `__local` array do, as a single
    /// copy of the frame's locals.
    pub fn arm(&mut self, entry: &EntryFrame, geometry: ItemGeometry, ops_budget: u64) {
        self.rearm(
            &entry.program,
            entry.func,
            &entry.locals,
            geometry,
            ops_budget,
        );
    }

    fn rearm(
        &mut self,
        program: &Program,
        func: u16,
        locals: &[Value],
        geometry: ItemGeometry,
        ops_budget: u64,
    ) {
        if !Program::ptr_eq(&self.program, program) {
            self.program = program.clone();
        }
        self.geometry = geometry;
        self.counters = CostCounters::default();
        self.dispatches = 0;
        self.ops_budget = ops_budget;
        self.finished = false;
        // A finished item has popped every frame; a faulted or suspended one
        // may still hold some — recycle them all.
        self.free_frames.append(&mut self.frames);
        let mut frame = self.free_frames.pop().unwrap_or_else(Frame::blank);
        frame.func = func;
        frame.pc = 0;
        frame.stack.clear();
        frame.locals.clear();
        frame.locals.extend_from_slice(locals);
        self.frames.push(frame);
    }

    /// Overrides a local slot of the entry frame (used by the executor to
    /// bind `__local` array pointers).
    ///
    /// # Panics
    ///
    /// Panics if called after execution started or the slot is out of range.
    pub fn bind_entry_slot(&mut self, slot: u16, v: Value) {
        let frame = self.frames.first_mut().expect("entry frame exists");
        assert_eq!(frame.pc, 0, "cannot bind slots after execution started");
        frame.locals[slot as usize] = v;
    }

    /// Sets the instruction budget for the rest of this item's execution.
    pub fn set_ops_budget(&mut self, budget: u64) {
        self.ops_budget = budget;
    }

    /// Whether the item has completed.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// The item's launch geometry.
    pub fn geometry(&self) -> &ItemGeometry {
        &self.geometry
    }

    /// Runs until completion or the next barrier.
    ///
    /// `local_mem` is the work-group's shared local-memory arena; `global`
    /// is the device's global memory.
    ///
    /// This is the optimised dispatch loop: the current function's code
    /// slice is re-derived only on frame transitions (call/return), each
    /// instruction is fetched by reference instead of cloned, call frames
    /// are drawn from the item's frame pool instead of cloning `local_init`
    /// per call, and hot `LoadLocal`/`Const` + `Bin`/`Cmp` sequences run as
    /// pre-decoded superinstructions ([`crate::decode`]) that charge
    /// identical [`CostCounters`]. It is observationally identical to
    /// [`WorkItem::run_reference`]
    /// — same results, same [`CostCounters`] — which the differential tests
    /// use as the semantic baseline.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if the kernel faults; the item must not be
    /// resumed afterwards.
    ///
    /// # Panics
    ///
    /// Panics if called again after [`Exit::Done`].
    pub fn run(
        &mut self,
        global: &dyn GlobalMemory,
        local_mem: &mut [u8],
    ) -> Result<Exit, RuntimeError> {
        assert!(!self.finished, "work-item already finished");
        // Borrowing the `program` field leaves `frames`, `free_frames` and
        // `counters` free for call/return, and — unlike cloning the handle —
        // writes nothing the other host threads running this program read.
        let program = &self.program;
        let functions = program.functions();
        'frame: loop {
            // Call depth is constant between frame transitions, so the
            // overflow check below needs no extra borrow of the stack.
            let depth = self.frames.len();
            let frame = self
                .frames
                .last_mut()
                .expect("frame stack never empty while running");
            let func = &functions[frame.func as usize];
            let dec = program.decoded_fn(frame.func as usize);
            loop {
                let d = &dec[frame.pc];
                self.dispatches += 1;
                let op = match d {
                    Decoded::Plain(op) => op,
                    fused => {
                        // A fused instruction covers `k` source ops: charge
                        // all of them, and run out of budget iff the
                        // reference would have inside the block.
                        let k = fused.cost();
                        if self.counters.ops + (k - 1) >= self.ops_budget {
                            return Err(RuntimeError::OpLimitExceeded);
                        }
                        self.counters.ops += k;
                        frame.pc += k as usize;
                        match fused {
                            Decoded::Bin { l, r, op, dst, .. } => {
                                // The rhs is popped first when unfused.
                                let rv = operand_value(frame, r)?;
                                let lv = operand_value(frame, l)?;
                                let v = vm_binary(*op, lv, rv)?;
                                match dst {
                                    Dst::Stack => frame.stack.push(v),
                                    Dst::Local(s) => frame.locals[*s as usize] = v,
                                }
                            }
                            Decoded::Cmp {
                                l, r, op, along, ..
                            } => {
                                let rv = operand_value(frame, r)?;
                                let lv = operand_value(frame, l)?;
                                let b = vm_compare(*op, lv, rv)?;
                                cmp_use(frame, *along, b);
                            }
                            Decoded::Chain(c) => {
                                let rv = operand_value(frame, &c.r)?;
                                let lv = operand_value(frame, &c.l)?;
                                let mut acc = vm_binary(c.op, lv, rv)?;
                                if let Some((l2, r2, op2, comb)) = &c.tree {
                                    // Both producer results stay in
                                    // registers; the unfused push/pop pair
                                    // cancels out.
                                    let rv2 = operand_value(frame, r2)?;
                                    let lv2 = operand_value(frame, l2)?;
                                    let acc2 = vm_binary(*op2, lv2, rv2)?;
                                    acc = vm_binary(*comb, acc, acc2)?;
                                }
                                for (op, r) in &c.links {
                                    // Link operands are fused loads, never
                                    // stack pops; the accumulator is the lhs.
                                    let rv = operand_value(frame, r)?;
                                    acc = vm_binary(*op, acc, rv)?;
                                }
                                match &c.tail {
                                    ChainTail::Push => frame.stack.push(acc),
                                    ChainTail::Store(s) => frame.locals[*s as usize] = acc,
                                    ChainTail::Cmp { op, r, along } => {
                                        let rv = operand_value(frame, r)?;
                                        let b = vm_compare(*op, acc, rv)?;
                                        cmp_use(frame, *along, b);
                                    }
                                }
                            }
                            Decoded::StMem { v, ptr, ty, .. } => {
                                // The pointer is popped (and checked) before
                                // the value when unfused; keep that order.
                                let p = match frame.locals[*ptr as usize] {
                                    Value::Ptr(p) => p,
                                    other => {
                                        return Err(RuntimeError::Internal(format!(
                                            "expected pointer, found {other}"
                                        )))
                                    }
                                };
                                let vv = operand_value(frame, v)?;
                                mem_store(&mut self.counters, global, local_mem, p, *ty, vv)?;
                            }
                            Decoded::StIdx {
                                v,
                                ptr,
                                idx,
                                size,
                                conv,
                                ty,
                                ..
                            } => {
                                let count = if *conv {
                                    value::convert(frame.locals[*idx as usize], ScalarType::Long)
                                        .as_i64()
                                } else {
                                    frame.locals[*idx as usize].as_i64()
                                };
                                let base = match frame.locals[*ptr as usize] {
                                    Value::Ptr(p) => p,
                                    other => {
                                        return Err(RuntimeError::Internal(format!(
                                            "expected pointer, found {other}"
                                        )))
                                    }
                                };
                                let p = Ptr {
                                    byte_offset: base
                                        .byte_offset
                                        .wrapping_add(count.wrapping_mul(*size as i64)),
                                    ..base
                                };
                                let vv = operand_value(frame, v)?;
                                mem_store(&mut self.counters, global, local_mem, p, *ty, vv)?;
                            }
                            Decoded::Mov(a, s) => {
                                frame.locals[*s as usize] = frame.locals[*a as usize];
                            }
                            Decoded::MovC(c, s) => {
                                frame.locals[*s as usize] = *c;
                            }
                            Decoded::PtrIdx {
                                ptr,
                                idx,
                                size,
                                conv,
                                load,
                                dst,
                                ..
                            } => {
                                // Conversion happens before the pointer
                                // check when unfused; keep that order. When
                                // the widening was hoisted (`conv` false)
                                // the slot is read exactly as the bare
                                // `PtrOffset` pops it.
                                let count = if *conv {
                                    value::convert(frame.locals[*idx as usize], ScalarType::Long)
                                        .as_i64()
                                } else {
                                    frame.locals[*idx as usize].as_i64()
                                };
                                let base = match frame.locals[*ptr as usize] {
                                    Value::Ptr(p) => p,
                                    other => {
                                        return Err(RuntimeError::Internal(format!(
                                            "expected pointer, found {other}"
                                        )))
                                    }
                                };
                                let p = Ptr {
                                    byte_offset: base
                                        .byte_offset
                                        .wrapping_add(count.wrapping_mul(*size as i64)),
                                    ..base
                                };
                                let v = match load {
                                    Some(ty) => {
                                        mem_load(&mut self.counters, global, local_mem, p, *ty)?
                                    }
                                    None => Value::Ptr(p),
                                };
                                match dst {
                                    Dst::Stack => frame.stack.push(v),
                                    Dst::Local(s) => frame.locals[*s as usize] = v,
                                }
                            }
                            Decoded::Cvt { src, to, dst, .. } => {
                                let v = value::convert(operand_value(frame, src)?, *to);
                                match dst {
                                    Dst::Stack => frame.stack.push(v),
                                    Dst::Local(s) => frame.locals[*s as usize] = v,
                                }
                            }
                            Decoded::Plain(_) => unreachable!("matched above"),
                        }
                        continue;
                    }
                };
                if self.counters.ops >= self.ops_budget {
                    return Err(RuntimeError::OpLimitExceeded);
                }
                self.counters.ops += 1;
                frame.pc += 1;

                match op {
                    Op::Const(v) => frame.stack.push(*v),
                    Op::LoadLocal(s) => {
                        let v = frame.locals[*s as usize];
                        frame.stack.push(v);
                    }
                    Op::StoreLocal(s) => {
                        let v = pop(frame)?;
                        frame.locals[*s as usize] = v;
                    }
                    Op::Pop => {
                        pop(frame)?;
                    }
                    Op::Un(un) => {
                        let v = pop(frame)?;
                        frame.stack.push(value::unary(*un, v).map_err(eval_err)?);
                    }
                    Op::Bin(bin) => {
                        let r = pop(frame)?;
                        let l = pop(frame)?;
                        frame.stack.push(vm_binary(*bin, l, r)?);
                    }
                    Op::Cmp(cmp) => {
                        let r = pop(frame)?;
                        let l = pop(frame)?;
                        frame.stack.push(Value::Bool(vm_compare(*cmp, l, r)?));
                    }
                    Op::Convert(to) => {
                        let v = pop(frame)?;
                        frame.stack.push(value::convert(v, *to));
                    }
                    Op::ToBool => {
                        let v = pop(frame)?;
                        frame.stack.push(Value::Bool(v.is_truthy()));
                    }
                    Op::Jump(t) => frame.pc = *t as usize,
                    Op::JumpIfFalse(t) => {
                        if !pop(frame)?.is_truthy() {
                            frame.pc = *t as usize;
                        }
                    }
                    Op::JumpIfTrue(t) => {
                        if pop(frame)?.is_truthy() {
                            frame.pc = *t as usize;
                        }
                    }
                    Op::Call { func, argc } => {
                        if depth >= MAX_CALL_DEPTH {
                            return Err(RuntimeError::StackOverflow);
                        }
                        let callee = &functions[*func as usize];
                        let mut callee_frame = self.free_frames.pop().unwrap_or_else(Frame::blank);
                        callee_frame.func = *func;
                        callee_frame.pc = 0;
                        callee_frame.stack.clear();
                        callee_frame.locals.clear();
                        callee_frame.locals.extend_from_slice(&callee.local_init);
                        for i in (0..*argc as usize).rev() {
                            callee_frame.locals[i] = pop(frame)?;
                        }
                        self.frames.push(callee_frame);
                        continue 'frame;
                    }
                    Op::CallPure(b, argc) => {
                        let start = frame
                            .stack
                            .len()
                            .checked_sub(*argc as usize)
                            .ok_or_else(stack_underflow)?;
                        let result = builtins::eval_pure(*b, &frame.stack[start..]);
                        frame.stack.truncate(start);
                        frame.stack.push(result);
                    }
                    Op::WorkItem(b) => {
                        let v = work_item_query(&self.geometry, frame, *b)?;
                        frame.stack.push(v);
                    }
                    Op::Barrier { id } => {
                        self.counters.barriers += 1;
                        return Ok(Exit::Barrier(*id));
                    }
                    Op::Trap => {
                        let code = pop(frame)?;
                        return Err(RuntimeError::Trap {
                            code: code.as_i64() as i32,
                        });
                    }
                    Op::LoadMem(ty) => {
                        let p = pop_ptr(frame)?;
                        let v = mem_load(&mut self.counters, global, local_mem, p, *ty)?;
                        frame.stack.push(v);
                    }
                    Op::StoreMem(ty) => {
                        let p = pop_ptr(frame)?;
                        let v = pop(frame)?;
                        mem_store(&mut self.counters, global, local_mem, p, *ty, v)?;
                    }
                    Op::PtrOffset(size) => {
                        let count = pop(frame)?.as_i64();
                        let p = pop_ptr(frame)?;
                        frame.stack.push(Value::Ptr(Ptr {
                            byte_offset: p
                                .byte_offset
                                .wrapping_add(count.wrapping_mul(*size as i64)),
                            ..p
                        }));
                    }
                    Op::PtrDiff(size) => {
                        let r = pop_ptr(frame)?;
                        let l = pop_ptr(frame)?;
                        if l.space != r.space || l.buffer != r.buffer {
                            return Err(RuntimeError::IncompatiblePointers);
                        }
                        frame
                            .stack
                            .push(Value::I64((l.byte_offset - r.byte_offset) / *size as i64));
                    }
                    Op::Return => {
                        let v = pop(frame)?;
                        let retired = self.frames.pop().expect("frame");
                        self.free_frames.push(retired);
                        match self.frames.last_mut() {
                            Some(caller) => {
                                caller.stack.push(v);
                                continue 'frame;
                            }
                            None => {
                                self.finished = true;
                                return Ok(Exit::Done);
                            }
                        }
                    }
                    Op::ReturnVoid => {
                        let retired = self.frames.pop().expect("frame");
                        self.free_frames.push(retired);
                        if self.frames.is_empty() {
                            self.finished = true;
                            return Ok(Exit::Done);
                        }
                        continue 'frame;
                    }
                    Op::MissingReturn => {
                        return Err(RuntimeError::MissingReturn {
                            function: func.name.clone(),
                        });
                    }
                }
            }
        }
    }

    /// The reference interpreter: the original straight-line dispatch loop,
    /// kept byte-for-byte in behaviour (per-op clone, per-call `local_init`
    /// clone, no frame pooling). No production path runs on it: it is the
    /// oracle of the equivalence tests, a semantic baseline that shares no
    /// dispatch code with [`WorkItem::run`].
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if the kernel faults; the item must not be
    /// resumed afterwards.
    ///
    /// # Panics
    ///
    /// Panics if called again after [`Exit::Done`].
    pub fn run_reference(
        &mut self,
        global: &dyn GlobalMemory,
        local_mem: &mut [u8],
    ) -> Result<Exit, RuntimeError> {
        assert!(!self.finished, "work-item already finished");
        loop {
            if self.counters.ops >= self.ops_budget {
                return Err(RuntimeError::OpLimitExceeded);
            }
            self.counters.ops += 1;
            self.dispatches += 1;

            let frame = self
                .frames
                .last_mut()
                .expect("frame stack never empty while running");
            let code = &self.program.functions()[frame.func as usize];
            let op = code.code[frame.pc].clone();
            frame.pc += 1;

            match op {
                Op::Const(v) => frame.stack.push(v),
                Op::LoadLocal(s) => {
                    let v = frame.locals[s as usize];
                    frame.stack.push(v);
                }
                Op::StoreLocal(s) => {
                    let v = pop(frame)?;
                    frame.locals[s as usize] = v;
                }
                Op::Pop => {
                    pop(frame)?;
                }
                Op::Un(un) => {
                    let v = pop(frame)?;
                    frame.stack.push(value::unary(un, v).map_err(eval_err)?);
                }
                Op::Bin(bin) => {
                    let r = pop(frame)?;
                    let l = pop(frame)?;
                    frame
                        .stack
                        .push(value::binary(bin, l, r).map_err(eval_err)?);
                }
                Op::Cmp(cmp) => {
                    let r = pop(frame)?;
                    let l = pop(frame)?;
                    frame
                        .stack
                        .push(Value::Bool(value::compare(cmp, l, r).map_err(eval_err)?));
                }
                Op::Convert(to) => {
                    let v = pop(frame)?;
                    frame.stack.push(value::convert(v, to));
                }
                Op::ToBool => {
                    let v = pop(frame)?;
                    frame.stack.push(Value::Bool(v.is_truthy()));
                }
                Op::Jump(t) => frame.pc = t as usize,
                Op::JumpIfFalse(t) => {
                    if !pop(frame)?.is_truthy() {
                        frame.pc = t as usize;
                    }
                }
                Op::JumpIfTrue(t) => {
                    if pop(frame)?.is_truthy() {
                        frame.pc = t as usize;
                    }
                }
                Op::Call { func, argc } => {
                    if self.frames.len() >= MAX_CALL_DEPTH {
                        return Err(RuntimeError::StackOverflow);
                    }
                    let callee = &self.program.functions()[func as usize];
                    let mut locals = callee.local_init.clone();
                    let frame = self.frames.last_mut().expect("caller frame");
                    for i in (0..argc as usize).rev() {
                        locals[i] = pop(frame)?;
                    }
                    self.frames.push(Frame {
                        func,
                        pc: 0,
                        locals,
                        stack: Vec::new(),
                    });
                }
                Op::CallPure(b, argc) => {
                    let frame = self.frames.last_mut().expect("frame");
                    let start = frame
                        .stack
                        .len()
                        .checked_sub(argc as usize)
                        .ok_or_else(stack_underflow)?;
                    let result = builtins::eval_pure(b, &frame.stack[start..]);
                    frame.stack.truncate(start);
                    frame.stack.push(result);
                }
                Op::WorkItem(b) => {
                    let frame = self.frames.last_mut().expect("frame");
                    let v = work_item_query(&self.geometry, frame, b)?;
                    frame.stack.push(v);
                }
                Op::Barrier { id } => {
                    self.counters.barriers += 1;
                    return Ok(Exit::Barrier(id));
                }
                Op::Trap => {
                    let code = pop(self.frames.last_mut().expect("frame"))?;
                    return Err(RuntimeError::Trap {
                        code: code.as_i64() as i32,
                    });
                }
                Op::LoadMem(ty) => {
                    let p = pop_ptr(self.frames.last_mut().expect("frame"))?;
                    let v = mem_load(&mut self.counters, global, local_mem, p, ty)?;
                    self.frames.last_mut().expect("frame").stack.push(v);
                }
                Op::StoreMem(ty) => {
                    let frame = self.frames.last_mut().expect("frame");
                    let p = pop_ptr(frame)?;
                    let v = pop(frame)?;
                    mem_store(&mut self.counters, global, local_mem, p, ty, v)?;
                }
                Op::PtrOffset(size) => {
                    let frame = self.frames.last_mut().expect("frame");
                    let count = pop(frame)?.as_i64();
                    let p = pop_ptr(frame)?;
                    frame.stack.push(Value::Ptr(Ptr {
                        byte_offset: p.byte_offset.wrapping_add(count.wrapping_mul(size as i64)),
                        ..p
                    }));
                }
                Op::PtrDiff(size) => {
                    let frame = self.frames.last_mut().expect("frame");
                    let r = pop_ptr(frame)?;
                    let l = pop_ptr(frame)?;
                    if l.space != r.space || l.buffer != r.buffer {
                        return Err(RuntimeError::IncompatiblePointers);
                    }
                    frame
                        .stack
                        .push(Value::I64((l.byte_offset - r.byte_offset) / size as i64));
                }
                Op::Return => {
                    let frame = self.frames.last_mut().expect("frame");
                    let v = pop(frame)?;
                    self.frames.pop();
                    match self.frames.last_mut() {
                        Some(caller) => caller.stack.push(v),
                        None => {
                            self.finished = true;
                            return Ok(Exit::Done);
                        }
                    }
                }
                Op::ReturnVoid => {
                    self.frames.pop();
                    if self.frames.is_empty() {
                        self.finished = true;
                        return Ok(Exit::Done);
                    }
                }
                Op::MissingReturn => {
                    let name = self.program.functions()
                        [self.frames.last().expect("frame").func as usize]
                        .name
                        .clone();
                    return Err(RuntimeError::MissingReturn { function: name });
                }
            }
        }
    }
}

/// Evaluates a work-item query builtin against `geometry`, popping the
/// dimension argument (if any) off `frame`'s operand stack. Free function so
/// both dispatch loops can call it while holding a frame borrow.
fn work_item_query(
    geometry: &ItemGeometry,
    frame: &mut Frame,
    b: Builtin,
) -> Result<Value, RuntimeError> {
    if b == Builtin::GetWorkDim {
        return Ok(Value::U32(geometry.work_dim));
    }
    let dim = pop(frame)?.as_i64();
    // OpenCL: out-of-range dims yield 0 (sizes yield 1).
    let (arr, default): (&[u64; 3], u64) = match b {
        Builtin::GetGlobalId => (&geometry.global_id, 0),
        Builtin::GetLocalId => (&geometry.local_id, 0),
        Builtin::GetGroupId => (&geometry.group_id, 0),
        Builtin::GetGlobalSize => (&geometry.global_size, 1),
        Builtin::GetLocalSize => (&geometry.local_size, 1),
        Builtin::GetNumGroups => (&geometry.num_groups, 1),
        other => {
            return Err(RuntimeError::Internal(format!(
                "not a work-item query: {other:?}"
            )))
        }
    };
    let v = if (0..3).contains(&dim) {
        arr[dim as usize]
    } else {
        default
    };
    Ok(Value::U64(v))
}

/// Typed load through `p`, charging `counters`. Free function so the
/// dispatch loops can call it while holding a frame borrow.
fn mem_load(
    counters: &mut CostCounters,
    global: &dyn GlobalMemory,
    local_mem: &[u8],
    p: Ptr,
    ty: ScalarType,
) -> Result<Value, RuntimeError> {
    if p.buffer == UNINIT_BUFFER && p.space == AddressSpace::Private {
        return Err(RuntimeError::UninitializedPointer);
    }
    match p.space {
        AddressSpace::Global => {
            counters.global_loads += 1;
            counters.global_bytes += ty.size_bytes() as u64;
            global
                .load(p.buffer, p.byte_offset, ty)
                .map_err(RuntimeError::OutOfBounds)
        }
        AddressSpace::Local => {
            counters.local_loads += 1;
            let off = check_range(local_mem.len(), p.byte_offset, ty, p.space, p.buffer)
                .map_err(RuntimeError::OutOfBounds)?;
            Ok(value::read_scalar(&local_mem[off..], ty))
        }
        AddressSpace::Private => Err(RuntimeError::UninitializedPointer),
    }
}

/// Typed store through `p`, charging `counters`. Free function so the
/// dispatch loops can call it while holding a frame borrow.
fn mem_store(
    counters: &mut CostCounters,
    global: &dyn GlobalMemory,
    local_mem: &mut [u8],
    p: Ptr,
    ty: ScalarType,
    v: Value,
) -> Result<(), RuntimeError> {
    if p.buffer == UNINIT_BUFFER && p.space == AddressSpace::Private {
        return Err(RuntimeError::UninitializedPointer);
    }
    match p.space {
        AddressSpace::Global => {
            counters.global_stores += 1;
            counters.global_bytes += ty.size_bytes() as u64;
            global
                .store(p.buffer, p.byte_offset, ty, v)
                .map_err(RuntimeError::OutOfBounds)
        }
        AddressSpace::Local => {
            counters.local_stores += 1;
            let off = check_range(local_mem.len(), p.byte_offset, ty, p.space, p.buffer)
                .map_err(RuntimeError::OutOfBounds)?;
            value::write_scalar(&mut local_mem[off..], ty, v);
            Ok(())
        }
        AddressSpace::Private => Err(RuntimeError::UninitializedPointer),
    }
}

fn pop(frame: &mut Frame) -> Result<Value, RuntimeError> {
    frame.stack.pop().ok_or_else(stack_underflow)
}

/// Materialises one fused operand (see [`crate::decode`]). Callers evaluate
/// the rhs before the lhs so stack pops happen in the unfused order.
#[inline]
fn operand_value(frame: &mut Frame, operand: &Operand) -> Result<Value, RuntimeError> {
    match operand {
        Operand::Stack => pop(frame),
        Operand::Local(s) => Ok(frame.locals[*s as usize]),
        Operand::Const(c) => Ok(*c),
    }
}

/// Arithmetic for the optimised dispatch loop: inlines the hot scalar
/// cases — bit-identically to [`value::binary`], whose float and wrapping
/// integer expressions these are — and falls back to it for every other
/// type and for the fallible operations. The reference loop keeps calling
/// [`value::binary`] so its machine code is untouched.
#[inline(always)]
fn vm_binary(op: BinOp, a: Value, b: Value) -> Result<Value, RuntimeError> {
    match (a, b) {
        (Value::F32(x), Value::F32(y)) => match op {
            BinOp::Add => return Ok(Value::F32(x + y)),
            BinOp::Sub => return Ok(Value::F32(x - y)),
            BinOp::Mul => return Ok(Value::F32(x * y)),
            BinOp::Div => return Ok(Value::F32(x / y)),
            _ => {}
        },
        (Value::I32(x), Value::I32(y)) => match op {
            BinOp::Add => return Ok(Value::I32(x.wrapping_add(y))),
            BinOp::Sub => return Ok(Value::I32(x.wrapping_sub(y))),
            BinOp::Mul => return Ok(Value::I32(x.wrapping_mul(y))),
            BinOp::BitAnd => return Ok(Value::I32(x & y)),
            BinOp::BitOr => return Ok(Value::I32(x | y)),
            BinOp::BitXor => return Ok(Value::I32(x ^ y)),
            _ => {}
        },
        _ => {}
    }
    value::binary(op, a, b).map_err(eval_err)
}

/// Routes a fused comparison's boolean (see [`CmpUse`]): pushed, or a
/// branch with one or both successors resolved at decode time. The caller
/// has already advanced `pc` past the fused block.
#[inline(always)]
fn cmp_use(frame: &mut Frame, along: CmpUse, b: bool) {
    match along {
        CmpUse::Push => frame.stack.push(Value::Bool(b)),
        CmpUse::BranchIfFalse(t) => {
            if !b {
                frame.pc = t as usize;
            }
        }
        CmpUse::BranchIfTrue(t) => {
            if b {
                frame.pc = t as usize;
            }
        }
        CmpUse::BranchBoth { if_true, if_false } => {
            frame.pc = if b { if_true } else { if_false } as usize;
        }
    }
}

/// Comparison twin of [`vm_binary`]: native float operators implement the
/// same IEEE semantics as the reference's `float_cmp` (ordered comparisons
/// with NaN are false, `!=` is true), and integer operators match its
/// `Ord`-based table.
#[inline(always)]
fn vm_compare(op: CmpOp, a: Value, b: Value) -> Result<bool, RuntimeError> {
    match (a, b) {
        (Value::F32(x), Value::F32(y)) => Ok(match op {
            CmpOp::Lt => x < y,
            CmpOp::Le => x <= y,
            CmpOp::Gt => x > y,
            CmpOp::Ge => x >= y,
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
        }),
        (Value::I32(x), Value::I32(y)) => Ok(match op {
            CmpOp::Lt => x < y,
            CmpOp::Le => x <= y,
            CmpOp::Gt => x > y,
            CmpOp::Ge => x >= y,
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
        }),
        _ => value::compare(op, a, b).map_err(eval_err),
    }
}

fn pop_ptr(frame: &mut Frame) -> Result<Ptr, RuntimeError> {
    match pop(frame)? {
        Value::Ptr(p) => Ok(p),
        other => Err(RuntimeError::Internal(format!(
            "expected pointer, found {other}"
        ))),
    }
}

fn stack_underflow() -> RuntimeError {
    RuntimeError::Internal("operand stack underflow".into())
}

fn eval_err(e: value::EvalError) -> RuntimeError {
    match e {
        value::EvalError::DivisionByZero => RuntimeError::DivisionByZero,
        value::EvalError::TypeMismatch { context } => {
            RuntimeError::Internal(format!("type mismatch during {context}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use crate::value::Ptr;

    fn program(src: &str) -> Program {
        compile("test.cl", src).unwrap_or_else(|e| panic!("compile failed:\n{e}"))
    }

    fn gptr(buffer: u32) -> Value {
        Value::Ptr(Ptr {
            space: AddressSpace::Global,
            buffer,
            byte_offset: 0,
        })
    }

    fn f32_buffer(vals: &[f32]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    fn read_f32s(bytes: &[u8]) -> Vec<f32> {
        bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    /// Runs a 1-D kernel over `n` items sequentially (no barriers).
    fn run_simple(p: &Program, kernel: &str, args: &[Value], n: u64) -> CostCounters {
        let mem = HostMemory::new();
        run_simple_mem(p, kernel, args, n, &mem)
    }

    fn run_simple_mem(
        p: &Program,
        kernel: &str,
        args: &[Value],
        n: u64,
        mem: &dyn GlobalMemory,
    ) -> CostCounters {
        let k = p.kernel(kernel).expect("kernel exists");
        let mut total = CostCounters::default();
        let mut local = vec![0u8; k.static_local_bytes as usize];
        for i in 0..n {
            let geom = ItemGeometry {
                work_dim: 1,
                global_id: [i, 0, 0],
                local_id: [i, 0, 0],
                group_id: [0, 0, 0],
                global_size: [n, 1, 1],
                local_size: [n, 1, 1],
                num_groups: [1, 1, 1],
            };
            let mut item = WorkItem::new(p, k.func, args, geom);
            for b in &k.local_arrays {
                item.bind_entry_slot(
                    b.slot,
                    Value::Ptr(Ptr {
                        space: AddressSpace::Local,
                        buffer: 0,
                        byte_offset: b.byte_offset as i64,
                    }),
                );
            }
            let exit = item.run(mem, &mut local).expect("kernel ran");
            assert_eq!(exit, Exit::Done);
            total.merge(&item.counters);
        }
        total
    }

    #[test]
    fn negation_map_kernel() {
        let p = program(
            "float func(float x){ return -x; }
             __kernel void map_neg(__global const float* in, __global float* out, int n){
                 int i = (int)get_global_id(0);
                 if (i < n) out[i] = func(in[i]);
             }",
        );
        let mut mem = HostMemory::new();
        let input = mem.add_buffer(f32_buffer(&[1.0, -2.5, 0.0, 7.0]));
        let output = mem.add_buffer(vec![0u8; 16]);
        run_simple_mem(
            &p,
            "map_neg",
            &[gptr(input), gptr(output), Value::I32(4)],
            4,
            &mem,
        );
        assert_eq!(read_f32s(&mem.bytes(output)), vec![-1.0, 2.5, 0.0, -7.0]);
    }

    #[test]
    fn loop_and_accumulate() {
        let p = program(
            "__kernel void sum_to(__global int* out, int n){
                 int s = 0;
                 for (int i = 1; i <= n; ++i) s += i;
                 out[get_global_id(0)] = s;
             }",
        );
        let mut mem = HostMemory::new();
        let out = mem.add_buffer(vec![0u8; 4]);
        run_simple_mem(&p, "sum_to", &[gptr(out), Value::I32(10)], 1, &mem);
        assert_eq!(
            i32::from_le_bytes(mem.bytes(out)[..4].try_into().unwrap()),
            55
        );
    }

    #[test]
    fn break_continue_do_while() {
        let p = program(
            "__kernel void tricky(__global int* out){
                 int s = 0;
                 for (int i = 0; i < 100; ++i) {
                     if (i == 5) continue;
                     if (i == 8) break;
                     s += i;
                 }
                 int j = 0;
                 do { s += 1000; j++; } while (j < 2);
                 out[0] = s;
             }",
        );
        let mut mem = HostMemory::new();
        let out = mem.add_buffer(vec![0u8; 4]);
        run_simple_mem(&p, "tricky", &[gptr(out)], 1, &mem);
        // 0+1+2+3+4+6+7 = 23, plus 2000.
        assert_eq!(
            i32::from_le_bytes(mem.bytes(out)[..4].try_into().unwrap()),
            2023
        );
    }

    #[test]
    fn mandelbrot_style_kernel() {
        let p = program(
            "__kernel void mandel(__global uchar* out, int width, float scale, int max_iter){
                 int gid = (int)get_global_id(0);
                 int px = gid % width;
                 int py = gid / width;
                 float cr = (float)px * scale - 2.0f;
                 float ci = (float)py * scale - 1.0f;
                 float zr = 0.0f; float zi = 0.0f;
                 int it = 0;
                 while (zr*zr + zi*zi <= 4.0f && it < max_iter) {
                     float t = zr*zr - zi*zi + cr;
                     zi = 2.0f*zr*zi + ci;
                     zr = t;
                     it++;
                 }
                 out[gid] = (uchar)(255 * it / max_iter);
             }",
        );
        let mut mem = HostMemory::new();
        let out = mem.add_buffer(vec![0u8; 16]);
        run_simple_mem(
            &p,
            "mandel",
            &[gptr(out), Value::I32(4), Value::F32(0.5), Value::I32(32)],
            16,
            &mem,
        );
        let bytes = mem.bytes(out);
        // Points inside the set reach max_iter -> 255; outside escape sooner.
        assert!(bytes.contains(&255), "some pixel in the set: {bytes:?}");
        assert!(
            bytes.iter().any(|&b| b < 255),
            "some pixel escapes: {bytes:?}"
        );
    }

    #[test]
    fn local_memory_and_barrier_lockstep() {
        // Reverse within a work-group through local memory: requires a
        // real barrier between the write and the read phase.
        let p = program(
            "__kernel void reverse(__global const int* in, __global int* out){
                 __local int tile[8];
                 int lid = (int)get_local_id(0);
                 int n = (int)get_local_size(0);
                 tile[lid] = in[lid];
                 barrier(CLK_LOCAL_MEM_FENCE);
                 out[lid] = tile[n - 1 - lid];
             }",
        );
        let k = p.kernel("reverse").unwrap();
        let mut mem = HostMemory::new();
        let input = mem.add_buffer((0..8i32).flat_map(|v| v.to_le_bytes()).collect());
        let out = mem.add_buffer(vec![0u8; 32]);
        let args = [gptr(input), gptr(out)];

        // Run the 8 items of one work-group in lockstep rounds.
        let mut local = vec![0u8; k.static_local_bytes as usize];
        let mut items: Vec<WorkItem> = (0..8u64)
            .map(|i| {
                let geom = ItemGeometry {
                    work_dim: 1,
                    global_id: [i, 0, 0],
                    local_id: [i, 0, 0],
                    group_id: [0, 0, 0],
                    global_size: [8, 1, 1],
                    local_size: [8, 1, 1],
                    num_groups: [1, 1, 1],
                };
                let mut it = WorkItem::new(&p, k.func, &args, geom);
                for b in &k.local_arrays {
                    it.bind_entry_slot(
                        b.slot,
                        Value::Ptr(Ptr {
                            space: AddressSpace::Local,
                            buffer: 0,
                            byte_offset: b.byte_offset as i64,
                        }),
                    );
                }
                it
            })
            .collect();

        // Round 1: everyone reaches barrier 0.
        for it in &mut items {
            assert_eq!(it.run(&mem, &mut local).unwrap(), Exit::Barrier(0));
        }
        // Round 2: everyone finishes.
        for it in &mut items {
            assert_eq!(it.run(&mem, &mut local).unwrap(), Exit::Done);
        }

        let out_vals: Vec<i32> = mem
            .bytes(out)
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(out_vals, vec![7, 6, 5, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn out_of_bounds_global_access_traps() {
        let p = program("__kernel void oob(__global float* out){ out[100] = 1.0f; }");
        let mut mem = HostMemory::new();
        let out = mem.add_buffer(vec![0u8; 16]);
        let k = p.kernel("oob").unwrap();
        let mut item = WorkItem::new(&p, k.func, &[gptr(out)], ItemGeometry::single());
        let err = item.run(&mem, &mut []).unwrap_err();
        match err {
            RuntimeError::OutOfBounds(e) => {
                assert_eq!(e.byte_offset, 400);
                assert_eq!(e.len, 16);
            }
            other => panic!("expected OutOfBounds, got {other:?}"),
        }
    }

    #[test]
    fn negative_index_traps() {
        let p = program("__kernel void neg(__global float* out, int i){ out[i] = 1.0f; }");
        let mut mem = HostMemory::new();
        let out = mem.add_buffer(vec![0u8; 16]);
        let k = p.kernel("neg").unwrap();
        let mut item = WorkItem::new(
            &p,
            k.func,
            &[gptr(out), Value::I32(-1)],
            ItemGeometry::single(),
        );
        assert!(matches!(
            item.run(&mem, &mut []).unwrap_err(),
            RuntimeError::OutOfBounds(_)
        ));
    }

    #[test]
    fn division_by_zero_traps() {
        let p = program("__kernel void div(__global int* out, int d){ out[0] = 10 / d; }");
        let mut mem = HostMemory::new();
        let out = mem.add_buffer(vec![0u8; 4]);
        let k = p.kernel("div").unwrap();
        let mut item = WorkItem::new(
            &p,
            k.func,
            &[gptr(out), Value::I32(0)],
            ItemGeometry::single(),
        );
        assert_eq!(
            item.run(&mem, &mut []).unwrap_err(),
            RuntimeError::DivisionByZero
        );
    }

    #[test]
    fn uninitialized_pointer_traps() {
        let p = program("__kernel void bad(__global float* out){ float* p; out[0] = p[0]; }");
        let mut mem = HostMemory::new();
        let out = mem.add_buffer(vec![0u8; 4]);
        let k = p.kernel("bad").unwrap();
        let mut item = WorkItem::new(&p, k.func, &[gptr(out)], ItemGeometry::single());
        assert_eq!(
            item.run(&mem, &mut []).unwrap_err(),
            RuntimeError::UninitializedPointer
        );
    }

    #[test]
    fn infinite_loop_hits_op_budget() {
        let p = program("__kernel void spin(__global int* out){ while (true) { } out[0] = 1; }");
        let mut mem = HostMemory::new();
        let out = mem.add_buffer(vec![0u8; 4]);
        let k = p.kernel("spin").unwrap();
        let mut item = WorkItem::new(&p, k.func, &[gptr(out)], ItemGeometry::single());
        item.set_ops_budget(10_000);
        assert_eq!(
            item.run(&mem, &mut []).unwrap_err(),
            RuntimeError::OpLimitExceeded
        );
    }

    #[test]
    fn trap_builtin_aborts() {
        let p = program("__kernel void t(__global int* out){ __skelcl_trap(42); out[0] = 1; }");
        let mut mem = HostMemory::new();
        let out = mem.add_buffer(vec![0u8; 4]);
        let k = p.kernel("t").unwrap();
        let mut item = WorkItem::new(&p, k.func, &[gptr(out)], ItemGeometry::single());
        assert_eq!(
            item.run(&mem, &mut []).unwrap_err(),
            RuntimeError::Trap { code: 42 }
        );
    }

    #[test]
    fn missing_return_traps_at_runtime() {
        let p = program(
            "int f(int x){ if (x > 0) return 1; }
             __kernel void k(__global int* out){ out[0] = f(-1); }",
        );
        let mut mem = HostMemory::new();
        let out = mem.add_buffer(vec![0u8; 4]);
        let k = p.kernel("k").unwrap();
        let mut item = WorkItem::new(&p, k.func, &[gptr(out)], ItemGeometry::single());
        assert_eq!(
            item.run(&mem, &mut []).unwrap_err(),
            RuntimeError::MissingReturn {
                function: "f".into()
            }
        );
    }

    #[test]
    fn counters_track_memory_traffic() {
        let p = program(
            "__kernel void copy(__global const float* in, __global float* out){
                 int i = (int)get_global_id(0);
                 out[i] = in[i];
             }",
        );
        let mut mem = HostMemory::new();
        let a = mem.add_buffer(f32_buffer(&[1.0; 10]));
        let b = mem.add_buffer(vec![0u8; 40]);
        let c = run_simple_mem(&p, "copy", &[gptr(a), gptr(b)], 10, &mem);
        assert_eq!(c.global_loads, 10);
        assert_eq!(c.global_stores, 10);
        assert_eq!(c.global_bytes, 80);
        assert!(c.ops > 0);
        assert_eq!(c.barriers, 0);
    }

    #[test]
    fn work_item_queries_2d() {
        let p = program(
            "__kernel void geom(__global ulong* out){
                 out[0] = get_global_id(0);
                 out[1] = get_global_id(1);
                 out[2] = get_global_size(1);
                 out[3] = get_num_groups(0);
                 out[4] = get_global_id(7);   // out of range -> 0
                 out[5] = get_global_size(7); // out of range -> 1
                 out[6] = (ulong)get_work_dim();
             }",
        );
        let mut mem = HostMemory::new();
        let out = mem.add_buffer(vec![0u8; 7 * 8]);
        let k = p.kernel("geom").unwrap();
        let geom = ItemGeometry {
            work_dim: 2,
            global_id: [3, 5, 0],
            local_id: [3, 1, 0],
            group_id: [0, 1, 0],
            global_size: [8, 6, 1],
            local_size: [8, 4, 1],
            num_groups: [1, 2, 1],
        };
        let mut item = WorkItem::new(&p, k.func, &[gptr(out)], geom);
        item.run(&mem, &mut []).unwrap();
        let vals: Vec<u64> = mem
            .bytes(out)
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(vals, vec![3, 5, 6, 1, 0, 1, 2]);
    }

    #[test]
    fn pointer_arithmetic_row_access() {
        let p = program(
            "float row_sum(const float* row, int d){
                 float s = 0.0f;
                 for (int k = 0; k < d; ++k) s += row[k];
                 return s;
             }
             __kernel void sums(__global const float* m, __global float* out, int d){
                 int i = (int)get_global_id(0);
                 out[i] = row_sum(&m[i * d], d);
             }",
        );
        let mut mem = HostMemory::new();
        let m = mem.add_buffer(f32_buffer(&[1.0, 2.0, 3.0, 10.0, 20.0, 30.0]));
        let out = mem.add_buffer(vec![0u8; 8]);
        run_simple_mem(&p, "sums", &[gptr(m), gptr(out), Value::I32(3)], 2, &mem);
        assert_eq!(read_f32s(&mem.bytes(out)), vec![6.0, 60.0]);
    }

    #[test]
    fn optimized_and_reference_interpreters_agree() {
        // A kernel exercising calls, loops, conversions and memory traffic;
        // the optimized loop must match the reference loop bit-for-bit in
        // output and exactly in counters.
        let p = program(
            "float poly(float x, int k){
                 float acc = 0.0f;
                 for (int i = 0; i < k; ++i) acc = acc * x + (float)i;
                 return acc;
             }
             __kernel void stress(__global const float* in, __global float* out, int n){
                 int i = (int)get_global_id(0);
                 if (i < n) out[i] = poly(in[i], i + 3);
             }",
        );
        let k = p.kernel("stress").unwrap();
        let input = f32_buffer(&[0.5, -1.25, 3.0, 0.0, 9.5, -0.125]);
        let n = 6u64;

        let run_with = |reference: bool| -> (Vec<u8>, CostCounters) {
            let mut mem = HostMemory::new();
            let a = mem.add_buffer(input.clone());
            let b = mem.add_buffer(vec![0u8; input.len()]);
            let args = [gptr(a), gptr(b), Value::I32(n as i32)];
            let mut total = CostCounters::default();
            // One item reset per element also exercises WorkItem reuse.
            let mut item = None;
            for i in 0..n {
                let geom = ItemGeometry {
                    work_dim: 1,
                    global_id: [i, 0, 0],
                    local_id: [i, 0, 0],
                    group_id: [0, 0, 0],
                    global_size: [n, 1, 1],
                    local_size: [n, 1, 1],
                    num_groups: [1, 1, 1],
                };
                let it = match item.as_mut() {
                    None => item.insert(WorkItem::new(&p, k.func, &args, geom)),
                    Some(it) => {
                        it.reset(&p, k.func, &args, geom);
                        it
                    }
                };
                let exit = if reference {
                    it.run_reference(&mem, &mut []).expect("kernel ran")
                } else {
                    it.run(&mem, &mut []).expect("kernel ran")
                };
                assert_eq!(exit, Exit::Done);
                total.merge(&it.counters);
            }
            (mem.bytes(b), total)
        };

        let (ref_bytes, ref_counters) = run_with(true);
        let (fast_bytes, fast_counters) = run_with(false);
        assert_eq!(ref_bytes, fast_bytes, "outputs must be bit-identical");
        assert_eq!(ref_counters, fast_counters, "counters must not drift");
    }

    #[test]
    fn reset_recycles_across_programs() {
        let p1 = program("__kernel void a(__global int* out){ out[0] = 1; }");
        let p2 = program("__kernel void b(__global int* out){ out[0] = 2; }");
        let mut mem = HostMemory::new();
        let out = mem.add_buffer(vec![0u8; 4]);
        let k1 = p1.kernel("a").unwrap();
        let k2 = p2.kernel("b").unwrap();
        let mut item = WorkItem::new(&p1, k1.func, &[gptr(out)], ItemGeometry::single());
        assert_eq!(item.run(&mem, &mut []).unwrap(), Exit::Done);
        // Reset onto a different program must rebind the handle.
        item.reset(&p2, k2.func, &[gptr(out)], ItemGeometry::single());
        assert_eq!(item.run(&mem, &mut []).unwrap(), Exit::Done);
        assert_eq!(
            i32::from_le_bytes(mem.bytes(out)[..4].try_into().unwrap()),
            2
        );
        // Counters reflect only the latest run after a reset.
        assert!(item.counters.ops > 0 && item.counters.ops < 10);
    }

    /// A [`GlobalMemory`] whose `load` records the program's handle count,
    /// i.e. samples it while a kernel is mid-execution.
    struct HandleProbe<'a> {
        mem: HostMemory,
        program: &'a Program,
        seen: std::cell::RefCell<Vec<usize>>,
    }

    impl GlobalMemory for HandleProbe<'_> {
        fn load(&self, buffer: u32, off: i64, ty: ScalarType) -> Result<Value, MemAccessError> {
            self.seen.borrow_mut().push(self.program.handle_count());
            self.mem.load(buffer, off, ty)
        }

        fn store(
            &self,
            buffer: u32,
            off: i64,
            ty: ScalarType,
            v: Value,
        ) -> Result<(), MemAccessError> {
            self.mem.store(buffer, off, ty, v)
        }
    }

    #[test]
    fn running_an_item_holds_no_extra_program_handle() {
        // The handle count is shared by every host thread executing the
        // program: a clone per `run` entry serialises them. One group of 8
        // items, rearmed from one prepared frame and run to completion in
        // lockstep rounds, must never show more handles than were alive
        // before the first round — on either interpreter, with and without
        // a barrier (which re-enters `run` once per round).
        let p = program(
            "__kernel void copy(__global const int* in, __global int* out){
                 int i = (int)get_global_id(0);
                 out[i] = in[i] + in[7 - i];
             }
             __kernel void swap(__global const int* in, __global int* out){
                 __local int tile[8];
                 int lid = (int)get_local_id(0);
                 tile[lid] = in[lid];
                 barrier(CLK_LOCAL_MEM_FENCE);
                 out[lid] = tile[7 - lid] + in[lid];
             }",
        );
        for (kernel, rounds) in [("copy", 1), ("swap", 2)] {
            for reference in [false, true] {
                let k = p.kernel(kernel).unwrap();
                let mut mem = HostMemory::new();
                let input = mem.add_buffer((0..8i32).flat_map(|v| v.to_le_bytes()).collect());
                let out = mem.add_buffer(vec![0u8; 32]);
                let probe = HandleProbe {
                    mem,
                    program: &p,
                    seen: Default::default(),
                };
                let entry = EntryFrame::new(&p, k, &[gptr(input), gptr(out)]);
                let mut items: Vec<WorkItem> = (0..8).map(|_| WorkItem::idle(&p)).collect();
                let before = p.handle_count(); // `p`, the frame, 8 items
                assert_eq!(before, 10);

                let mut local = vec![0u8; k.static_local_bytes as usize];
                for (i, it) in items.iter_mut().enumerate() {
                    let i = i as u64;
                    let geom = ItemGeometry {
                        global_id: [i, 0, 0],
                        local_id: [i, 0, 0],
                        global_size: [8, 1, 1],
                        local_size: [8, 1, 1],
                        ..ItemGeometry::single()
                    };
                    it.arm(&entry, geom, u64::MAX);
                }
                for round in 1..=rounds {
                    for it in &mut items {
                        let exit = if reference {
                            it.run_reference(&probe, &mut local)
                        } else {
                            it.run(&probe, &mut local)
                        };
                        let expect = if round == rounds {
                            Exit::Done
                        } else {
                            Exit::Barrier(0)
                        };
                        assert_eq!(exit.unwrap(), expect);
                    }
                }

                let seen = probe.seen.into_inner();
                assert_eq!(seen.len(), 16, "two global loads per item");
                assert!(
                    seen.iter().all(|&n| n == before),
                    "{kernel} (reference: {reference}): {before} handles before the \
                     run, {seen:?} during it"
                );
                assert_eq!(p.handle_count(), before, "arming rebinds no handle");
            }
        }
    }

    #[test]
    fn arm_equals_reset_plus_budget_plus_local_bindings() {
        let p = program(
            "__kernel void reverse(__global const int* in, __global int* out, int bias){
                 __local int tile[8];
                 int lid = (int)get_local_id(0);
                 tile[lid] = in[lid] + bias;
                 barrier(CLK_LOCAL_MEM_FENCE);
                 out[lid] = tile[7 - lid];
             }",
        );
        let k = p.kernel("reverse").unwrap();
        let run_group = |use_arm: bool| -> (Vec<u8>, CostCounters) {
            let mut mem = HostMemory::new();
            let input = mem.add_buffer((0..8i32).flat_map(|v| v.to_le_bytes()).collect());
            let out = mem.add_buffer(vec![0u8; 32]);
            let args = [gptr(input), gptr(out), Value::I32(5)];
            let entry = EntryFrame::new(&p, k, &args);
            let mut local = vec![0u8; k.static_local_bytes as usize];
            let mut items: Vec<WorkItem> = (0..8u64)
                .map(|i| {
                    let geom = ItemGeometry {
                        global_id: [i, 0, 0],
                        local_id: [i, 0, 0],
                        global_size: [8, 1, 1],
                        local_size: [8, 1, 1],
                        ..ItemGeometry::single()
                    };
                    let mut it = WorkItem::idle(&p);
                    if use_arm {
                        it.arm(&entry, geom, 1_000);
                    } else {
                        it.reset(&p, k.func, &args, geom);
                        it.set_ops_budget(1_000);
                        for b in &k.local_arrays {
                            it.bind_entry_slot(
                                b.slot,
                                Value::Ptr(Ptr {
                                    space: AddressSpace::Local,
                                    buffer: 0,
                                    byte_offset: b.byte_offset as i64,
                                }),
                            );
                        }
                    }
                    it
                })
                .collect();
            for expect in [Exit::Barrier(0), Exit::Done] {
                for it in &mut items {
                    assert_eq!(it.run(&mem, &mut local).unwrap(), expect);
                }
            }
            let mut total = CostCounters::default();
            items.iter().for_each(|it| total.merge(&it.counters));
            (mem.bytes(out), total)
        };
        let (armed, armed_counters) = run_group(true);
        assert_eq!((armed.clone(), armed_counters), run_group(false));
        let vals: Vec<i32> = armed
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(vals, vec![12, 11, 10, 9, 8, 7, 6, 5]);
    }

    #[test]
    fn idle_item_is_finished_until_armed() {
        let p = program("__kernel void one(__global int* out){ out[0] = 1; }");
        let mut mem = HostMemory::new();
        let out = mem.add_buffer(vec![0u8; 4]);
        let mut item = WorkItem::idle(&p);
        assert!(item.is_finished());
        let entry = EntryFrame::new(&p, p.kernel("one").unwrap(), &[gptr(out)]);
        item.arm(&entry, ItemGeometry::single(), 1_000);
        assert!(!item.is_finished());
        assert_eq!(item.run(&mem, &mut []).unwrap(), Exit::Done);
        // The armed budget is live: one op cannot store and return.
        item.arm(&entry, ItemGeometry::single(), 1);
        assert_eq!(
            item.run(&mem, &mut []).unwrap_err(),
            RuntimeError::OpLimitExceeded
        );
    }

    #[test]
    fn run_simple_counts_total_ops() {
        let p = program("__kernel void nop(__global int* out){ }");
        let mut mem = HostMemory::new();
        let out = mem.add_buffer(vec![0u8; 4]);
        let c = run_simple_mem(&p, "nop", &[gptr(out)], 100, &mem);
        assert_eq!(c.ops, 100); // one ReturnVoid per item
        let _ = run_simple(&p, "nop", &[gptr(out)], 0);
    }
}
