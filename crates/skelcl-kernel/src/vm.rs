//! The kernel virtual machine.
//!
//! The unit of execution is the work-group. A [`WorkGroup`] runs the
//! program's pre-decoded instruction stream (`crate::decode`) for the
//! lanes of a group together — in strips of up to 64 lanes, each decoded
//! instruction fetched and matched once per strip, the loop over the active
//! lanes inside that match — splitting the active set at divergent branches
//! and parking lanes at `barrier()` until the whole group waits at the same
//! site, exactly the OpenCL work-group execution model. The executor (in
//! the `vgpu` crate) arms one per host thread and runs work-groups on it.
//!
//! A [`WorkItem`] is the one-lane case of the same executor
//! ([`WorkItem::run`]) plus the semantic oracle every equivalence suite
//! compares against: [`WorkItem::run_reference`], a plain per-item
//! interpreter over the source bytecode that shares no dispatch code with
//! the group executor. There are two dispatch loops in this file, those two.
//!
//! Global memory is abstracted behind [`GlobalMemory`] so that the platform
//! simulator can share buffers between concurrently executing work-groups.

use std::cell::Cell;
use std::fmt;

use crate::builtins::{self, Builtin};
use crate::decode::{Chain, ChainTail, CmpUse, Decoded, Loop, Operand, Ty};
use crate::hir::{BinOp, CmpOp};
use crate::ir::{FuncCode, Op};
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

impl Default for ItemGeometry {
    fn default() -> Self {
        ItemGeometry::single()
    }
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
    /// Executed source bytecode ops: a decoded head covering `k` of them
    /// charges `k`, so the group executor and [`WorkItem::run_reference`]
    /// agree ([`WorkItem::dispatches`] counts heads). The op budget
    /// ([`WorkItem::set_ops_budget`]) is charged against it. Two compiles
    /// of one source under different `SKELCL_KERNEL_OPT` settings report
    /// different `ops` for identical buffer results; the gap is what
    /// [`CostCounters::ops_saved`] records.
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

/// How a [`WorkItem::run`] or [`WorkGroup::run`] call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// The kernel finished (for the item, or for every lane of the group).
    Done,
    /// The item — or every lane of the group — reached the barrier with the
    /// given site id and waits there.
    Barrier(u32),
}

/// A call frame of the reference interpreter; a [`WorkItem`]'s entry frame
/// also is what its [`Strip`] of one lane is armed from.
#[derive(Debug)]
struct Frame {
    func: u16,
    pc: usize,
    locals: Vec<Value>,
    stack: Vec<Value>,
}

/// A kernel's entry frame, prepared **once per launch**: the entry
/// function's initial locals with the launch arguments copied over the
/// parameter slots (a scalar of another type converted to the parameter's) and every static `__local` array slot bound to its
/// pointer into the work-group arena. [`WorkGroup::arm`] broadcasts it over
/// a group's lanes (and [`WorkItem::arm`] copies it into an item), so nothing
/// about the arguments is re-derived per work-item.
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
        let mut locals = code.local_init.clone();
        bind_args(code, &mut locals, args);
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

/// Why a [`WorkGroup::run`] call failed: the first event of the round in
/// row-major item order, as a launcher running the items one after another
/// would meet it.
#[derive(Debug, Clone, PartialEq)]
pub enum GroupFault {
    /// Lane `lane` (row-major index in the group) raised `error`.
    Lane {
        /// The faulting lane; [`WorkGroup::global_id`] names its item.
        lane: usize,
        /// What it raised.
        error: RuntimeError,
    },
    /// Lanes wait at different barrier sites, or some finished while
    /// others wait at a barrier that can then never be satisfied.
    BarrierDivergence,
}

/// Where a lane stands between two instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lane {
    /// Has a `pc` to continue from.
    Run,
    /// Waits at the barrier with this site id.
    Parked(u32),
    /// Returned from the kernel.
    Done,
}

/// One call depth of a group. Registers are column-major — slot `s` of lane
/// `l` is `regs[s * lanes + l]` — with the function's locals in the first
/// slots and its operand stack's fixed positions in the slots above them
/// (see `crate::decode`), so a stack operand and a local are the same kind
/// of thing: a column. `func` and `pc` are per lane and only current for
/// lanes that are *not* executing (the active set keeps its own in scalars
/// until it is rescheduled).
#[derive(Debug, Default)]
struct Level {
    func: Vec<u16>,
    pc: Vec<u32>,
    regs: Vec<Value>,
}

impl Level {
    /// Makes room for a frame of `slots` registers on `n` lanes.
    fn fit(&mut self, slots: usize, n: usize) {
        if self.regs.len() < slots * n {
            self.regs.resize(slots * n, ZERO);
        }
    }
}

/// A fused operand resolved for the whole active set: a register column
/// (by the index of its lane 0) or an immediate.
#[derive(Debug, Clone, Copy)]
enum Src {
    Col(usize),
    Const(Value),
}

impl Src {
    #[inline(always)]
    fn get(self, regs: &[Value], lane: usize) -> Value {
        match self {
            Src::Col(c) => regs[c + lane],
            Src::Const(v) => v,
        }
    }
}

/// A lane loop's outcome: the *position* in the active set of the first
/// lane that faulted, and its error.
type LaneResult = Result<(), (usize, RuntimeError)>;

/// The lanes executing the current instruction: the first `m` entries of
/// `idx`, ascending.
#[derive(Debug, Default)]
struct Active {
    idx: Vec<u32>,
    m: usize,
}

impl Active {
    /// Runs `f` for every active lane in ascending order, stopping at the
    /// first fault. (One loop with one call site, so `f` — a closure used
    /// once — is inlined into it.)
    #[inline(always)]
    fn each(&self, mut f: impl FnMut(usize) -> Result<(), RuntimeError>) -> LaneResult {
        for (p, &lane) in self.idx[..self.m].iter().enumerate() {
            f(lane as usize).map_err(|e| (p, e))?;
        }
        Ok(())
    }

    /// [`Active::each`] for loops that cannot fault.
    #[inline(always)]
    fn each_ok(&self, mut f: impl FnMut(usize)) {
        let _ = self.each(|l| {
            f(l);
            Ok(())
        });
    }
}

const ZERO: Value = Value::Bool(false);

/// Lanes a [`Strip`] executes together. A column of 64 `Value`s is 1 KiB, so
/// a kernel's whole register file (tens of slots) stays in the L1 cache and
/// a barrier-free kernel holds 64 lanes of it, not a work-group's worth.
const STRIP: usize = 64;

/// `[global_id, local_id]` of the item at row-major position `lane` of the
/// group `geometry.group_id`.
fn item_ids(geometry: &ItemGeometry, lane: usize) -> [[u64; 3]; 2] {
    let (size, lane) = (geometry.local_size, lane as u64);
    let local = [
        lane % size[0],
        lane / size[0] % size[1],
        lane / (size[0] * size[1]),
    ];
    [
        [0, 1, 2].map(|d| geometry.group_id[d] * size[d] + local[d]),
        local,
    ]
}

/// What a group's execution added up to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// Cost counters summed over all lanes.
    pub counters: CostCounters,
    /// Instructions executed: one per decoded head per strip, however many
    /// lanes it covered.
    pub steps: u64,
    /// Σ lanes active over `steps`.
    pub lane_steps: u64,
    /// Σ lanes armed over `steps` — what `lane_steps` would be had no lane
    /// ever diverged; `lane_steps / lane_slots` is the lane utilisation.
    pub lane_slots: u64,
}

impl GroupStats {
    /// Adds another group's (or worker's) statistics into these.
    pub fn merge(&mut self, other: &GroupStats) {
        self.counters.merge(&other.counters);
        self.steps += other.steps;
        self.lane_steps += other.lane_steps;
        self.lane_slots += other.lane_slots;
    }
}

/// The group executor: a work-group's lanes executing the program's
/// pre-decoded stream together, in strips of up to 64 lanes (`STRIP`).
///
/// Within a strip every instruction is fetched, charged and matched
/// (operation, operand kinds, destination) **once**, and the loop over the
/// *active* lanes sits inside that match; locals and the operand stack's
/// fixed slots are column-major lane arrays (`Level`). Each arithmetic head
/// (`Bin`, `Cmp`, chains, `Cvt`) runs the loop decode picked from its
/// operands' static types (`crate::decode`): `float`/`int` work as
/// monomorphic loops on the bare machine type — a chain one loop per link
/// over an accumulator column — and operations that can fault (integer `/`,
/// `%`) or have no typed loop lane by lane through [`value::binary`]. Lanes
/// carry their own `pc`: a divergent branch splits the active set and the scheduler runs the lanes
/// in the deepest call frame at the lowest `pc` next, so lanes that took
/// the short side of a branch wait at the join until the others arrive
/// (whatever the block layout — a set that cannot be rejoined simply runs
/// on by itself). `barrier()` parks lanes at their position in the stream.
/// The strips of a group run one after another up to their park point: a
/// strip that finished hands its state to the next one, a strip that
/// parked keeps it, and [`WorkGroup::run`] returns when none can run.
///
/// Observable behaviour is that of the reference launcher over
/// [`WorkItem::run_reference`]: summed [`CostCounters`] are bit-identical
/// (a fused head covering `k` ops charges `k` per active lane), and a
/// failing round reports its first event in item order — when lane `i`
/// faults, lanes above `i` are retired at once (the launcher never runs
/// them) while lanes below run on to their park point, where an earlier
/// fault or barrier mismatch may still overrule it. What differs is the
/// order of memory accesses *between* lanes: within a strip
/// instruction-major, lanes ascending within one instruction, instead of
/// item-major. That order is a function of the program and the launch
/// alone, so racy kernels stay deterministic; they just need not equal the
/// item-major result.
#[derive(Debug, Default)]
pub struct WorkGroup {
    /// `strips[..live]` wait at a barrier; the rest are spare states.
    strips: Vec<Strip>,
    live: usize,
    started: bool,
    /// The launch-wide geometry plus this group's id (item ids unused).
    geometry: ItemGeometry,
    budget: u64,
    /// Counters and lane statistics since [`WorkGroup::arm`].
    pub stats: GroupStats,
}

impl WorkGroup {
    /// Arms the group for work-group `geometry.group_id` of a launch: one
    /// lane per item of `geometry.local_size` in row-major order, each
    /// with `ops_budget` to spend; statistics reset. `geometry`'s item ids
    /// are ignored. Every allocation of the previous group is recycled.
    pub fn arm(&mut self, geometry: ItemGeometry, ops_budget: u64) {
        (self.geometry, self.budget) = (geometry, ops_budget);
        (self.live, self.started) = (0, false);
        self.stats = GroupStats::default();
    }

    /// `get_global_id` of the item at lane `lane`.
    pub fn global_id(&self, lane: usize) -> [u64; 3] {
        item_ids(&self.geometry, lane)[0]
    }

    /// Runs the group, started from `entry`, until every lane has finished
    /// ([`Exit::Done`]) or every lane waits at the same barrier
    /// ([`Exit::Barrier`]; the next call resumes them). `local_mem` is the
    /// group's local-memory arena and `global` the device's global memory.
    ///
    /// # Errors
    ///
    /// The round's first event in item order (see [`GroupFault`]); the
    /// group must be re-armed afterwards.
    pub fn run(
        &mut self,
        entry: &EntryFrame,
        global: &dyn GlobalMemory,
        local_mem: &mut [u8],
    ) -> Result<Exit, GroupFault> {
        // Where the strips so far wait, and whether a lane finished.
        let (mut site, mut done) = (None, false);
        let mut run = |strip: &mut Strip, stats: &mut GroupStats| {
            let (parked, finished) =
                strip.run(&entry.program, global, local_mem, &mut site, stats)?;
            done |= finished;
            Ok(parked)
        };
        if self.started {
            for strip in &mut self.strips[..self.live] {
                run(strip, &mut self.stats)?;
            }
        } else {
            self.started = true;
            let size = self.geometry.local_size;
            let lanes = (size[0] * size[1] * size[2]) as usize;
            let func = (
                entry.func,
                entry.program.decoded_fn(entry.func as usize).slots,
            );
            for first in (0..lanes).step_by(STRIP) {
                if self.live == self.strips.len() {
                    self.strips.push(Strip::default());
                }
                let strip = &mut self.strips[self.live];
                let n = STRIP.min(lanes - first);
                strip.arm(func, &entry.locals, self.geometry, n, self.budget);
                strip.first = first;
                for (lane, ids) in strip.ids.iter_mut().enumerate() {
                    *ids = item_ids(&self.geometry, first + lane);
                }
                // A strip with nobody at a barrier hands its state on.
                self.live += run(strip, &mut self.stats)? as usize;
            }
        }
        verdict(site, done)
    }
}

/// A finished round: lanes that wait (all at `site`, or an error would have
/// ended it) beside lanes that `finished` can never be released.
fn verdict(site: Option<u32>, finished: bool) -> Result<Exit, GroupFault> {
    match site {
        None => Ok(Exit::Done),
        Some(_) if finished => Err(GroupFault::BarrierDivergence),
        Some(id) => Ok(Exit::Barrier(id)),
    }
}

/// Up to [`STRIP`] consecutive lanes of a work-group and the machinery that
/// executes them together; see [`WorkGroup`]. A [`WorkItem`] is a strip of
/// one.
#[derive(Debug, Default)]
struct Strip {
    /// Lanes in the strip: the stride of every register column.
    n: usize,
    /// Position of lane 0 in its group.
    first: usize,
    /// The launch-wide geometry plus the group's id (item ids unused).
    geometry: ItemGeometry,
    /// Per lane: `[global_id, local_id]`.
    ids: Vec<[[u64; 3]; 2]>,
    levels: Vec<Level>,
    /// Per lane: index of its innermost [`Level`].
    depth: Vec<u16>,
    state: Vec<Lane>,
    /// Per lane: ops charged, for the budget check (the active set's share
    /// since it was scheduled is in `delta`).
    ops: Vec<u64>,
    budget: u64,
    /// Lanes at and above `limit` are dead: lane `limit` faulted with
    /// `fault`, the ones above it were retired.
    limit: usize,
    fault: Option<RuntimeError>,
    flags: Vec<bool>,
    /// A chain's operands, resolved (see [`Strip::chain`]).
    srcs: Vec<Src>,
    /// The typed accumulator columns of a chain (see [`Typed`]).
    acc: AccCols,
    /// Runnable lanes outside the active set, in no particular order.
    waiters: Vec<u32>,
    /// The scheduling key of each of `waiters` (see [`Strip::schedule`]).
    keys: Vec<u64>,

    act: Active,
    // The active set's frame, in scalars.
    d: usize,
    func: u16,
    pc: u32,
    delta: u64,
    /// Ops the active lane with the most charged can still afford.
    headroom: u64,
    /// Lowest `pc` of a runnable lane waiting in this frame: reaching it
    /// means the active set may rejoin it, passing it that it must yield.
    wait_pc: u32,
    /// Steps the active set may still take while others wait; then the
    /// lowest waiting lane gets a turn whatever its `pc`, so that a lane
    /// spinning at a low `pc` cannot keep an earlier lane from the fault
    /// that would retire it.
    turn: u32,
}

/// Steps per [`Strip::turn`].
const TURN: u32 = 1 << 14;

impl Strip {
    /// Arms `n` lanes at the start of `func`, whose frame has `slots`
    /// registers, with `locals`, all with `geometry`'s own item ids.
    fn arm(
        &mut self,
        (func, slots): (u16, usize),
        locals: &[Value],
        geometry: ItemGeometry,
        n: usize,
        ops_budget: u64,
    ) {
        fn refill<T: Clone>(v: &mut Vec<T>, n: usize, x: T) {
            v.clear();
            v.resize(n, x);
        }
        (self.n, self.first, self.limit) = (n, 0, n);
        self.geometry = geometry;
        self.budget = ops_budget;
        self.fault = None;
        self.act.m = 0;
        self.waiters.clear();
        self.waiters.extend(0..n as u32);
        refill(&mut self.ids, n, [geometry.global_id, geometry.local_id]);
        self.flags.resize(n, false);
        refill(&mut self.depth, n, 0);
        refill(&mut self.state, n, Lane::Run);
        refill(&mut self.ops, n, 0);
        if self.levels.is_empty() {
            self.levels.push(Level::default());
        }
        let level = &mut self.levels[0];
        refill(&mut level.func, n, func);
        refill(&mut level.pc, n, 0);
        level.fit(slots, n);
        for (column, v) in level.regs.chunks_exact_mut(n.max(1)).zip(locals) {
            column.fill(*v);
        }
    }

    /// The column of register slot `slot`, by its lane 0.
    fn col(&self, slot: u16) -> usize {
        slot as usize * self.n
    }

    /// Resolves an operand for the active set.
    fn src(&self, operand: &Operand) -> Src {
        match operand {
            Operand::Slot(s) => Src::Col(self.col(*s)),
            Operand::Const(c) => Src::Const(*c),
        }
    }

    /// The active lane at position `p` faulted: it and every lane of the
    /// group above it are dead (whatever fault was recorded before was
    /// raised by a higher lane, so this one replaces it); the active lanes
    /// below it finish the instruction, then the group reschedules.
    fn fault_at(&mut self, p: usize, error: RuntimeError) {
        if p < self.act.m {
            let limit = self.act.idx[p];
            self.limit = limit as usize;
            self.fault = Some(error);
            self.act.m = p;
            self.waiters.retain(|&l| l < limit);
            self.wait_pc = 0;
        }
    }

    fn check(&mut self, result: LaneResult) {
        if let Err((p, error)) = result {
            self.fault_at(p, error);
        }
    }

    /// Writes the active set's scalars back to its lanes.
    fn flush(&mut self) {
        let level = &mut self.levels[self.d];
        let (pc, delta, ops) = (self.pc, self.delta, &mut self.ops);
        self.act.each_ok(|l| {
            level.pc[l] = pc;
            ops[l] += delta;
        });
        self.delta = 0;
    }

    /// Some active lane cannot afford the next `k` ops: the first such
    /// lane faults, the ones below it carry on.
    fn out_of_budget(&mut self, k: u64) {
        self.flush();
        let spent = |&l: &u32| self.ops[l as usize] + (k - 1) >= self.budget;
        if let Some(p) = self.act.idx[..self.act.m].iter().position(spent) {
            self.fault_at(p, RuntimeError::OpLimitExceeded);
        }
        let charged = self.act.idx[..self.act.m]
            .iter()
            .map(|&l| self.ops[l as usize]);
        self.headroom = self.budget.saturating_sub(charged.max().unwrap_or(0));
    }

    /// Yields the active set and picks the next one: of the runnable lanes,
    /// those in the deepest frame at the lowest `pc`. `false` when no lane
    /// can run — the round is over.
    ///
    /// A lane's key `(depth, func, pc)` is packed into one `u64` that
    /// orders as the scheduler prefers (deeper first, then `func`, then
    /// `pc`) and is computed once per waiting lane.
    fn schedule(&mut self) -> bool {
        self.flush();
        let (act, waiters, keys) = (&mut self.act, &mut self.waiters, &mut self.keys);
        waiters.extend_from_slice(&act.idx[..act.m]);
        act.idx.clear();
        act.m = 0;
        keys.clear();
        keys.extend(waiters.iter().map(|&l| {
            let d = self.depth[l as usize];
            let level = &self.levels[d as usize];
            let l = l as usize;
            let deeper = (MAX_CALL_DEPTH - d as usize) as u64;
            deeper << 48 | (level.func[l] as u64) << 32 | level.pc[l] as u64
        }));
        let fair = std::mem::replace(&mut self.turn, TURN) == 0;
        let best = match fair {
            true => (0..waiters.len())
                .min_by_key(|&p| waiters[p])
                .map(|p| keys[p]),
            false => keys.iter().copied().min(),
        };
        let Some(best) = best else {
            return false;
        };
        self.wait_pc = u32::MAX;
        let mut most_ops = 0;
        let mut kept = 0;
        for p in 0..waiters.len() {
            let (l, key) = (waiters[p], keys[p]);
            if key == best {
                act.idx.push(l);
                most_ops = most_ops.max(self.ops[l as usize]);
                continue;
            }
            if key >> 32 == best >> 32 {
                self.wait_pc = self.wait_pc.min(key as u32);
            }
            waiters[kept] = l;
            kept += 1;
        }
        waiters.truncate(kept);
        act.idx.sort_unstable();
        act.m = act.idx.len();
        self.d = MAX_CALL_DEPTH - (best >> 48) as usize;
        (self.func, self.pc) = ((best >> 32) as u16, best as u32);
        self.headroom = self.budget.saturating_sub(most_ops);
        true
    }

    /// No lane can run: the round's events in item order — a lane at
    /// another barrier than `site` (where the group's earlier strips wait,
    /// and after this, its own lanes), or the fault — else whether lanes
    /// parked and whether lanes finished.
    fn end_round(&mut self, site: &mut Option<u32>) -> Result<(bool, bool), GroupFault> {
        let (mut parked, mut done) = (false, false);
        for state in &self.state[..self.limit] {
            match *state {
                Lane::Parked(id) if *site.get_or_insert(id) != id => {
                    return Err(GroupFault::BarrierDivergence);
                }
                Lane::Parked(_) => parked = true,
                Lane::Done => done = true,
                Lane::Run => {}
            }
        }
        match self.fault.take() {
            Some(error) => Err(GroupFault::Lane {
                lane: self.first + self.limit,
                error,
            }),
            None => Ok((parked, done)),
        }
    }

    /// The typed view of the active set's registers (see [`Typed`]), and
    /// the chain operands in `srcs`.
    fn typed<T: Fast>(&mut self) -> (Typed<'_, T>, &[Src]) {
        let acc = T::acc(&mut self.acc);
        acc.resize(acc.len().max(2 * STRIP), T::default());
        let typed = Typed {
            n: self.n,
            lanes: Lanes::of(&self.act, self.n),
            regs: Cell::from_mut(&mut self.levels[self.d].regs[..]).as_slice_of_cells(),
            acc: Cell::from_mut(&mut acc[..]).as_slice_of_cells(),
            flags: Cell::from_mut(&mut self.flags[..]).as_slice_of_cells(),
        };
        (typed, &self.srcs)
    }

    /// `dst = src` over the active lanes, one loop per operand kind.
    fn mov(&mut self, src: Src, dst: usize) {
        let (n, regs) = (self.n, &mut self.levels[self.d].regs);
        let lanes = Lanes::of(&self.act, n);
        match src {
            Src::Col(c) => lanes.each(n, |l| regs[dst + l] = regs[c + l]),
            Src::Const(v) => lanes.each(n, |l| regs[dst + l] = v),
        }
    }

    /// `dst = l op r` over the active lanes, in the loop decode picked from
    /// the operands' type: typed, or [`value::binary`] lane by lane.
    fn bin(&mut self, l: Src, r: Src, dst: usize, op: BinOp, lp: Loop) {
        match lp {
            Loop::F32 => self
                .typed::<f32>()
                .0
                .bin(op, l.into(), r.into(), Out::Col(dst)),
            Loop::I32 => self
                .typed::<i32>()
                .0
                .bin(op, l.into(), r.into(), Out::Col(dst)),
            Loop::Value => {
                let regs = &mut self.levels[self.d].regs;
                let result = self.act.each(|i| {
                    regs[dst + i] = bin1(op, l.get(regs, i), r.get(regs, i))?;
                    Ok(())
                });
                self.check(result);
            }
        }
    }

    /// `flags[lane] = l op r` over the active lanes, as [`Strip::bin`].
    fn cmp(&mut self, l: Src, r: Src, op: CmpOp, lp: Loop) {
        match lp {
            Loop::F32 => self.typed::<f32>().0.cmp(op, l.into(), r.into()),
            Loop::I32 => self.typed::<i32>().0.cmp(op, l.into(), r.into()),
            Loop::Value => {
                let (regs, flags) = (&self.levels[self.d].regs, &mut self.flags);
                let result = self.act.each(|i| {
                    flags[i] = cmp1(op, l.get(regs, i), r.get(regs, i))?;
                    Ok(())
                });
                self.check(result);
            }
        }
    }

    /// A fused arithmetic chain. Its operands resolve once into `srcs`: `l`,
    /// `r`, the tree's `l2`, `r2`, the links' and the tail comparison's. A
    /// typed chain runs link by link ([`Typed::chain`]); any other lane by
    /// lane through [`value::binary`], each lane from its first operation to
    /// its tail, so the first lane to fault is the one reported.
    fn chain(&mut self, c: &Chain) {
        let (l, r) = (self.src(&c.l), self.src(&c.r));
        self.srcs.clear();
        self.srcs.extend([l, r]);
        if let Some((l2, r2, ..)) = &c.tree {
            let tree = [self.src(l2), self.src(r2)];
            self.srcs.extend(tree);
        }
        for (_, o) in &c.links {
            let s = self.src(o);
            self.srcs.push(s);
        }
        let (cmp, dst) = match &c.tail {
            ChainTail::Store(s) => (None, self.col(*s)),
            ChainTail::Cmp { op, r, .. } => {
                let r = self.src(r);
                self.srcs.push(r);
                (Some(*op), 0)
            }
        };
        match c.lp {
            Loop::F32 => {
                let (t, srcs) = self.typed::<f32>();
                t.chain(c, srcs, cmp, dst);
            }
            Loop::I32 => {
                let (t, srcs) = self.typed::<i32>();
                t.chain(c, srcs, cmp, dst);
            }
            Loop::Value => {
                let (regs, flags, srcs) =
                    (&mut self.levels[self.d].regs, &mut self.flags, &self.srcs);
                let result = self.act.each(|i| {
                    let get = |k: usize| srcs[k].get(regs, i);
                    let mut acc = bin1(c.op, get(0), get(1))?;
                    let mut k = 2;
                    if let Some((_, _, op2, comb)) = c.tree {
                        acc = bin1(comb, acc, bin1(op2, get(2), get(3))?)?;
                        k = 4;
                    }
                    for (op, _) in &c.links {
                        acc = bin1(*op, acc, get(k))?;
                        k += 1;
                    }
                    match cmp {
                        Some(op) => flags[i] = cmp1(op, acc, get(k))?,
                        None => regs[dst + i] = acc,
                    }
                    Ok(())
                });
                self.check(result);
            }
        }
        if let ChainTail::Cmp { along, .. } = c.tail {
            self.cmp_use(along);
        }
    }

    /// `dst = (to)src` over the active lanes, one loop picked by the source
    /// type `from`: the common pairs build their result in place (see
    /// [`load_into`]) as [`value::convert`] does it, the rest call it.
    fn cvt(&mut self, src: Src, dst: usize, (from, to): (Ty, ScalarType)) {
        let (n, regs) = (self.n, &mut self.levels[self.d].regs);
        let lanes = Lanes::of(&self.act, n);
        macro_rules! pair {
            ($from:ident, $x:ident => $to:expr) => {
                cvt_lanes((lanes, n), regs, (src, dst), |v, out| {
                    if let Value::$from($x) = v {
                        *out = $to;
                    }
                })
            };
        }
        use ScalarType::{Float, Int, Long, UChar, ULong};
        match (from, to) {
            (Some(Int), Float) => pair!(I32, x => Value::F32(x as f32)),
            (Some(Float), Int) => pair!(F32, x => Value::I32(x as i32)),
            (Some(UChar), Int) => pair!(U8, x => Value::I32(x as i32)),
            (Some(Int), UChar) => pair!(I32, x => Value::U8(x as u8)),
            (Some(Int), Long) => pair!(I32, x => Value::I64(x as i64)),
            (Some(ULong), Int) => pair!(U64, x => Value::I32(x as i32)),
            _ => cvt_lanes((lanes, n), regs, (src, dst), |v, out| {
                *out = value::convert(v, to);
            }),
        }
    }

    /// Routes a comparison's `flags` (see [`CmpUse`]): stored, or a branch.
    /// `pc` is already past the fused block.
    fn cmp_use(&mut self, along: CmpUse) {
        match along {
            CmpUse::Push(slot) => {
                let dst = self.col(slot);
                let (regs, flags) = (&mut self.levels[self.d].regs, &self.flags);
                self.act.each_ok(|l| regs[dst + l] = Value::Bool(flags[l]));
            }
            CmpUse::BranchIfFalse(t) => self.branch(self.pc, t),
            CmpUse::BranchIfTrue(t) => self.branch(t, self.pc),
            CmpUse::BranchBoth { if_true, if_false } => self.branch(if_true, if_false),
        }
    }

    /// Sends every active lane to `if_true` or `if_false` by its flag. When
    /// they disagree the set splits: the lanes bound for the lower `pc` stay
    /// active, the others wait at theirs.
    fn branch(&mut self, if_true: u32, if_false: u32) {
        let mut taken = 0;
        Lanes::of(&self.act, self.n).each(self.n, |l| taken += self.flags[l] as usize);
        if taken == self.act.m || if_true == if_false {
            self.pc = if_true;
        } else if taken == 0 {
            self.pc = if_false;
        } else {
            let (stay, wait) = (if_true.min(if_false), if_true.max(if_false));
            let (level, act) = (&mut self.levels[self.d], &mut self.act);
            let mut kept = 0;
            for p in 0..act.m {
                let l = act.idx[p] as usize;
                if self.flags[l] == (if_true < if_false) {
                    act.idx[kept] = l as u32;
                    kept += 1;
                } else {
                    level.pc[l] = wait;
                    self.ops[l] += self.delta;
                    self.waiters.push(l as u32);
                }
            }
            act.m = kept;
            self.pc = stay;
            self.wait_pc = self.wait_pc.min(wait);
        }
    }

    /// Branches on the truthiness of column `c`.
    fn branch_on(&mut self, c: usize, if_true: u32, if_false: u32) {
        let (regs, flags) = (&self.levels[self.d].regs, &mut self.flags);
        self.act.each_ok(|l| flags[l] = regs[c + l].is_truthy());
        self.branch(if_true, if_false);
    }

    /// The array-indexing idiom over the active lanes: `f(lane, p)` with
    /// `p = regs[ptr] + regs[idx] * size`, the index read as a `long`.
    fn indexed(
        &mut self,
        (ptr, idx, size): (usize, usize, u32),
        mut f: impl FnMut(&mut [Value], usize, Ptr) -> Result<(), RuntimeError>,
    ) {
        let regs = &mut self.levels[self.d].regs;
        let result = self.act.each(|l| {
            let count = regs[idx + l].as_i64();
            let base = expect_ptr(regs[ptr + l])?;
            let byte_offset = base
                .byte_offset
                .wrapping_add(count.wrapping_mul(size as i64));
            let p = Ptr {
                byte_offset,
                ..base
            };
            f(regs, l, p)
        });
        self.check(result);
    }

    /// Stores `v` through the pointers in column `ptr` (checked before the
    /// value is read, as the unfused sequence pops them).
    fn store(
        &mut self,
        v: Src,
        ptr: usize,
        ty: ScalarType,
        (counters, global, local_mem): (&mut CostCounters, &dyn GlobalMemory, &mut [u8]),
    ) {
        let regs = &self.levels[self.d].regs;
        let result = self.act.each(|l| {
            let p = expect_ptr(regs[ptr + l])?;
            mem_store(counters, global, local_mem, p, ty, v.get(regs, l))
        });
        self.check(result);
    }

    /// A work-item query over the active lanes: into column `top`, or in
    /// place on the dimension column below it.
    fn work_item_query(&mut self, b: Builtin, top: usize) {
        if b == Builtin::GetWorkDim {
            return self.mov(Src::Const(Value::U32(self.geometry.work_dim)), top);
        }
        let of = match query(&self.geometry, b) {
            Ok(of) => of,
            Err(error) => return self.fault_at(0, error),
        };
        let (c, regs, ids) = (top - self.n, &mut self.levels[self.d].regs, &self.ids);
        self.act
            .each_ok(|l| regs[c + l] = Value::U64(of(&ids[l], regs[c + l].as_i64())));
    }

    /// Enters `callee` with the `argc` columns from `args` up as its
    /// arguments; its frame is sized here, once.
    fn call(&mut self, program: &Program, callee: u16, (args, argc): (usize, usize)) {
        if self.d + 1 >= MAX_CALL_DEPTH {
            return self.fault_at(0, RuntimeError::StackOverflow);
        }
        let n = self.n;
        if self.levels.len() == self.d + 1 {
            self.levels.push(Level::default());
        }
        let (callers, callees) = self.levels.split_at_mut(self.d + 1);
        let (caller, level) = (&mut callers[self.d], &mut callees[0]);
        let init = &program.functions()[callee as usize].local_init;
        level.fit(program.decoded_fn(callee as usize).slots, n);
        level.pc.resize(n, 0);
        level.func.resize(n, 0);
        for (s, v) in init.iter().enumerate() {
            let (column, arg) = (s * n, args + s * n);
            self.act.each_ok(|l| {
                level.regs[column + l] = if s < argc { caller.regs[arg + l] } else { *v };
            });
        }
        let (pc, depth) = (self.pc, &mut self.depth);
        self.act.each_ok(|l| {
            level.func[l] = callee;
            depth[l] += 1;
            caller.pc[l] = pc;
        });
        self.d += 1;
        (self.func, self.pc) = (callee, 0);
        // Nothing waits in a frame that was only just entered.
        self.wait_pc = u32::MAX;
    }

    /// Leaves the active set's frame, copying the column `value` (if any)
    /// into each lane's caller, at the slot of the call's first argument;
    /// lanes in the kernel's own frame are done. Callers may differ between
    /// lanes (a callee with a barrier can be entered from two call sites),
    /// so each lane is returned on its own and the group reschedules.
    fn ret(&mut self, program: &Program, value: Option<usize>) {
        self.flush();
        let n = self.n;
        if self.d == 0 {
            self.act.each_ok(|l| self.state[l] = Lane::Done);
        } else {
            let (callers, callees) = self.levels.split_at_mut(self.d);
            let (caller, level, depth) = (&mut callers[self.d - 1], &callees[0], &mut self.depth);
            self.act.each_ok(|l| {
                depth[l] -= 1;
                if let Some(value) = value {
                    let at = result_slot(program, caller.func[l], caller.pc[l]);
                    caller.regs[at * n + l] = level.regs[value + l];
                }
            });
            self.waiters.extend_from_slice(&self.act.idx[..self.act.m]);
        }
        self.act.m = 0;
    }

    /// Runs the strip until no lane can (the next call resumes the parked
    /// ones): whether lanes parked, and whether lanes finished. `site` is
    /// the barrier the group's earlier strips wait at.
    fn run(
        &mut self,
        program: &Program,
        global: &dyn GlobalMemory,
        local_mem: &mut [u8],
        site: &mut Option<u32>,
        stats: &mut GroupStats,
    ) -> Result<(bool, bool), GroupFault> {
        let functions = program.functions();
        for (l, state) in self.state[..self.limit].iter_mut().enumerate() {
            if let Lane::Parked(_) = state {
                *state = Lane::Run;
                self.waiters.push(l as u32);
            }
        }
        'schedule: loop {
            if !self.schedule() {
                return self.end_round(site);
            }
            'frame: loop {
                let dec = &program.decoded_fn(self.func as usize).code;
                loop {
                    // A fused head covers `k` source ops: every active lane
                    // is charged all of them, and one runs out of budget
                    // iff the reference would have inside the block.
                    let (d, k) = &dec[self.pc as usize];
                    let k = *k as u64;
                    stats.steps += 1;
                    stats.lane_slots += self.n as u64;
                    if self.delta + (k - 1) >= self.headroom {
                        self.out_of_budget(k);
                        if self.act.m == 0 {
                            continue 'schedule;
                        }
                    }
                    let m = self.act.m as u64;
                    self.delta += k;
                    stats.counters.ops += k * m;
                    stats.lane_steps += m;
                    let counters = &mut stats.counters;
                    self.pc += k as u32;
                    let n = self.n;
                    match d {
                        Decoded::Bin { l, r, op, dst, lp } => {
                            self.bin(self.src(l), self.src(r), self.col(*dst), *op, *lp);
                        }
                        Decoded::Cmp {
                            l,
                            r,
                            op,
                            along,
                            lp,
                        } => {
                            self.cmp(self.src(l), self.src(r), *op, *lp);
                            self.cmp_use(*along);
                        }
                        Decoded::Chain(c) => self.chain(c),
                        Decoded::StMem { v, ptr, ty, .. } => {
                            let (v, ptr) = (self.src(v), self.col(*ptr));
                            self.store(v, ptr, *ty, (counters, global, local_mem));
                        }
                        Decoded::StIdx {
                            v,
                            ptr,
                            idx,
                            size,
                            ty,
                        } => {
                            let v = self.src(v);
                            let at = (self.col(*ptr), self.col(*idx), *size);
                            self.indexed(at, |regs, l, p| {
                                mem_store(counters, global, local_mem, p, *ty, v.get(regs, l))
                            });
                        }
                        Decoded::Mov { src, dst, .. } => self.mov(self.src(src), self.col(*dst)),
                        Decoded::PtrIdx {
                            ptr,
                            idx,
                            size,
                            load,
                            dst,
                        } => {
                            let dst = self.col(*dst);
                            let at = (self.col(*ptr), self.col(*idx), *size);
                            self.indexed(at, |regs, l, p| {
                                match load {
                                    Some(ty) => {
                                        let out = &mut regs[dst + l];
                                        load_into(out, counters, global, local_mem, p, *ty)?;
                                    }
                                    None => regs[dst + l] = Value::Ptr(p),
                                }
                                Ok(())
                            });
                        }
                        Decoded::Cvt { src, from, to, dst } => {
                            self.cvt(self.src(src), self.col(*dst), (*from, *to));
                        }
                        Decoded::Fault(reason) => {
                            self.fault_at(0, RuntimeError::Internal(reason.clone()));
                        }
                        Decoded::Plain(op, top) => {
                            // The op's stack operands are the columns just
                            // below `top`'s.
                            let top = self.col(*top);
                            match op {
                                Op::Pop => {}
                                Op::Un(_) | Op::ToBool => {
                                    let (c, regs) = (top - n, &mut self.levels[self.d].regs);
                                    let result = self.act.each(|l| {
                                        let v = regs[c + l];
                                        regs[c + l] = match op {
                                            Op::Un(un) => value::unary(*un, v).map_err(eval_err)?,
                                            _ => Value::Bool(v.is_truthy()),
                                        };
                                        Ok(())
                                    });
                                    self.check(result);
                                }
                                Op::Jump(t) => self.pc = *t,
                                Op::JumpIfFalse(t) => self.branch_on(top - n, self.pc, *t),
                                Op::JumpIfTrue(t) => self.branch_on(top - n, *t, self.pc),
                                Op::Call { func, argc } => {
                                    let argc = *argc as usize;
                                    self.call(program, *func, (top - argc * n, argc));
                                    if self.act.m == 0 {
                                        continue 'schedule;
                                    }
                                    continue 'frame;
                                }
                                Op::CallPure(b, argc) => {
                                    let argc = *argc as usize;
                                    let c = top - argc * n;
                                    let regs = &mut self.levels[self.d].regs;
                                    self.act.each_ok(|l| {
                                        let mut args = [ZERO; 3];
                                        for (a, arg) in args[..argc].iter_mut().enumerate() {
                                            *arg = regs[c + a * n + l];
                                        }
                                        regs[c + l] = builtins::eval_pure(*b, &args[..argc]);
                                    });
                                }
                                Op::WorkItem(b) => self.work_item_query(*b, top),
                                Op::Barrier { id } => {
                                    counters.barriers += m;
                                    self.flush();
                                    self.act.each_ok(|l| self.state[l] = Lane::Parked(*id));
                                    self.act.m = 0;
                                    continue 'schedule;
                                }
                                Op::Trap => {
                                    let first = self.act.idx[0] as usize;
                                    let code = self.levels[self.d].regs[top - n + first].as_i64();
                                    self.fault_at(0, RuntimeError::Trap { code: code as i32 });
                                }
                                Op::LoadMem(ty) => {
                                    let c = top - n;
                                    let regs = &mut self.levels[self.d].regs;
                                    let result = self.act.each(|l| {
                                        let p = expect_ptr(regs[c + l])?;
                                        let out = &mut regs[c + l];
                                        load_into(out, counters, global, local_mem, p, *ty)
                                    });
                                    self.check(result);
                                }
                                Op::PtrDiff(size) => {
                                    let (l, r) = (top - 2 * n, top - n);
                                    let regs = &mut self.levels[self.d].regs;
                                    let result = self.act.each(|i| {
                                        let (a, b) =
                                            (expect_ptr(regs[l + i])?, expect_ptr(regs[r + i])?);
                                        if a.space != b.space || a.buffer != b.buffer {
                                            return Err(RuntimeError::IncompatiblePointers);
                                        }
                                        let bytes = a.byte_offset - b.byte_offset;
                                        regs[l + i] = Value::I64(bytes / *size as i64);
                                        Ok(())
                                    });
                                    self.check(result);
                                }
                                Op::Return => {
                                    self.ret(program, Some(top - n));
                                    continue 'schedule;
                                }
                                Op::ReturnVoid => {
                                    self.ret(program, None);
                                    continue 'schedule;
                                }
                                Op::MissingReturn => {
                                    let function = functions[self.func as usize].name.clone();
                                    self.fault_at(0, RuntimeError::MissingReturn { function });
                                }
                                op => unreachable!("`{op}` decodes to a register head"),
                            }
                        }
                    }
                    self.turn = self.turn.saturating_sub(1);
                    if self.pc >= self.wait_pc || (self.turn == 0 && !self.waiters.is_empty()) {
                        continue 'schedule;
                    }
                }
            }
        }
    }
}

/// A single work-item: the one-lane case of the group executor
/// ([`WorkItem::run`], a strip of one lane), and the reference interpreter
/// ([`WorkItem::run_reference`]) over the same entry frame.
///
/// A `WorkItem` is reusable: [`WorkItem::arm`] (or [`WorkItem::reset`])
/// rearms a finished (or faulted) item for a new launch geometry while
/// recycling its entry frame and its lane's allocations.
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
    /// The entry frame until execution starts; from then on
    /// [`WorkItem::run_reference`]'s call stack.
    frames: Vec<Frame>,
    /// The lane [`WorkItem::run`] executes on, armed from the entry frame
    /// by its first call.
    lane: Strip,
    lane_armed: bool,
    stats: GroupStats,
    /// Cost counters accumulated so far.
    pub counters: CostCounters,
    /// Dispatch-loop iterations so far: one per decoded head in
    /// [`WorkItem::run`], one per op in [`WorkItem::run_reference`], where
    /// [`CostCounters::ops`] counts source ops in both. It measures
    /// interpreter-loop overhead, what fusion and register lowering exist
    /// to shrink, and is not part of `CostCounters` so that the engines'
    /// counter cross-checks stay exact.
    pub dispatches: u64,
    /// Remaining instruction budget.
    ops_budget: u64,
    finished: bool,
}

impl WorkItem {
    /// Creates a work-item poised at the start of kernel function `func`
    /// with the given argument values (buffers as [`Value::Ptr`], scalars as
    /// plain values — converted to the parameter's type if need be — in
    /// parameter order).
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
    /// [`WorkItem::arm`] or [`WorkItem::reset`] gives it some.
    pub fn idle(program: &Program) -> Self {
        WorkItem {
            program: program.clone(),
            geometry: ItemGeometry::single(),
            frames: Vec::with_capacity(4),
            lane: Strip::default(),
            lane_armed: false,
            stats: GroupStats::default(),
            counters: CostCounters::default(),
            dispatches: 0,
            ops_budget: u64::MAX,
            finished: true,
        }
    }

    /// Rearms this item for another work-item of a launch: new entry
    /// function, arguments and geometry; counters and budget reset. The
    /// program handle is compared by pointer and only replaced when the
    /// item moves to a different program, and the entry frame's and the
    /// lane's allocations are recycled, so a reset item executes without
    /// any steady-state heap allocation or shared write.
    ///
    /// # Panics
    ///
    /// As for [`WorkItem::new`].
    pub fn reset(&mut self, program: &Program, func: u16, args: &[Value], geometry: ItemGeometry) {
        let code = &program.functions()[func as usize];
        self.rearm(program, func, &code.local_init, geometry, u64::MAX);
        bind_args(code, &mut self.frames[0].locals, args);
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
        self.lane_armed = false;
        self.stats = GroupStats::default();
        // A faulted or suspended reference run may have left callee frames
        // (a finished one none at all): keep one, as the entry frame.
        self.frames.truncate(1);
        if self.frames.is_empty() {
            self.frames.push(Frame {
                func,
                pc: 0,
                locals: Vec::new(),
                stack: Vec::new(),
            });
        }
        let frame = &mut self.frames[0];
        (frame.func, frame.pc) = (func, 0);
        frame.stack.clear();
        frame.locals.clear();
        frame.locals.extend_from_slice(locals);
    }

    /// Overrides a local slot of the entry frame (used by the executor to
    /// bind `__local` array pointers).
    ///
    /// # Panics
    ///
    /// Panics if called after execution started or the slot is out of range.
    pub fn bind_entry_slot(&mut self, slot: u16, v: Value) {
        let frame = self.frames.first_mut().expect("entry frame exists");
        assert!(
            frame.pc == 0 && !self.lane_armed,
            "cannot bind slots after execution started"
        );
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

    /// Runs until completion or the next barrier, as a [`WorkGroup`] of one
    /// lane: the production dispatch loop, over the pre-decoded
    /// superinstruction stream (`crate::decode`). It is observationally
    /// identical to [`WorkItem::run_reference`] — same results, same
    /// [`CostCounters`] — which the differential tests use as the semantic
    /// baseline.
    ///
    /// `local_mem` is the work-group's shared local-memory arena; `global`
    /// is the device's global memory.
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
        if !self.lane_armed {
            let entry = &self.frames[0];
            let func = (
                entry.func,
                self.program.decoded_fn(entry.func as usize).slots,
            );
            self.lane
                .arm(func, &entry.locals, self.geometry, 1, self.ops_budget);
            self.lane_armed = true;
        }
        self.lane.budget = self.ops_budget;
        // Borrowing the `program` field — unlike cloning the handle — writes
        // nothing the other host threads running this program read.
        let (program, stats) = (&self.program, &mut self.stats);
        let mut site = None;
        let round = self.lane.run(program, global, local_mem, &mut site, stats);
        self.counters = self.stats.counters;
        self.dispatches = self.stats.steps;
        match round.and_then(|(_, finished)| verdict(site, finished)) {
            Ok(exit) => {
                self.finished = exit == Exit::Done;
                Ok(exit)
            }
            Err(GroupFault::Lane { error, .. }) => Err(error),
            Err(GroupFault::BarrierDivergence) => Err(RuntimeError::Internal(
                "a single lane diverged from itself".into(),
            )),
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
                    let (g, frame) = (&self.geometry, self.frames.last_mut().expect("frame"));
                    let v = match b {
                        Builtin::GetWorkDim => Value::U32(g.work_dim),
                        _ => {
                            let dim = pop(frame)?.as_i64();
                            Value::U64(query(g, b)?(&[g.global_id, g.local_id], dim))
                        }
                    };
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

/// Work-item query `b` of a launch with geometry `g`, other than
/// `get_work_dim`, as a function of an item's `[global_id, local_id]` and
/// the dimension asked for. OpenCL: out-of-range dims yield 0 (sizes 1).
fn query(
    g: &ItemGeometry,
    b: Builtin,
) -> Result<impl Fn(&[[u64; 3]; 2], i64) -> u64, RuntimeError> {
    let not_a_query = || RuntimeError::Internal(format!("not a work-item query: {b:?}"));
    let (per_item, launch, default) = match b {
        Builtin::GetGlobalId => (Some(0), [0; 3], 0),
        Builtin::GetLocalId => (Some(1), [0; 3], 0),
        Builtin::GetGroupId => (None, g.group_id, 0),
        Builtin::GetGlobalSize => (None, g.global_size, 1),
        Builtin::GetLocalSize => (None, g.local_size, 1),
        Builtin::GetNumGroups => (None, g.num_groups, 1),
        _ => return Err(not_a_query()),
    };
    Ok(move |ids: &[[u64; 3]; 2], dim: i64| {
        let of = per_item.map_or(&launch, |which| &ids[which]);
        let at = usize::try_from(dim).ok().and_then(|d| of.get(d));
        at.copied().unwrap_or(default)
    })
}

/// Copies `args` over the parameter slots of `locals`, `code`'s initial
/// locals. A scalar of another type is converted to the parameter's, as C
/// converts call arguments, so that the slot holds the type the type rule
/// (`crate::decode`) gives it.
///
/// # Panics
///
/// Panics if `args` doesn't match `code`'s parameter count.
fn bind_args(code: &FuncCode, locals: &mut [Value], args: &[Value]) {
    let (n, name) = (code.param_count as usize, &code.name);
    assert_eq!(args.len(), n, "kernel `{name}` argument count mismatch");
    for (local, &arg) in locals.iter_mut().zip(args) {
        *local = match (arg.scalar_type(), local.scalar_type()) {
            (Some(from), Some(to)) if from != to => value::convert(arg, to),
            _ => arg,
        };
    }
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
    let mut v = ZERO;
    load_into(&mut v, counters, global, local_mem, p, ty)?;
    Ok(v)
}

/// [`mem_load`] into `out`. Local memory's common element types are read
/// and built in place: a `Value` returned from a call is written field by
/// field, and copying it on as one 16-byte unit right away stalls on those
/// narrow stores.
#[inline(always)]
fn load_into(
    out: &mut Value,
    counters: &mut CostCounters,
    global: &dyn GlobalMemory,
    local_mem: &[u8],
    p: Ptr,
    ty: ScalarType,
) -> Result<(), RuntimeError> {
    match p.space {
        AddressSpace::Global => {
            counters.global_loads += 1;
            counters.global_bytes += ty.size_bytes() as u64;
            match global.load(p.buffer, p.byte_offset, ty) {
                Ok(v) => *out = v,
                Err(e) => return Err(RuntimeError::OutOfBounds(e)),
            }
        }
        AddressSpace::Local => {
            counters.local_loads += 1;
            let off = check_range(local_mem.len(), p.byte_offset, ty, p.space, p.buffer)
                .map_err(RuntimeError::OutOfBounds)?;
            match (ty, &local_mem[off..]) {
                (ScalarType::UChar, [b, ..]) => *out = Value::U8(*b),
                (ScalarType::Int, [a, b, c, d, ..]) => {
                    *out = Value::I32(i32::from_le_bytes([*a, *b, *c, *d]));
                }
                (ScalarType::Float, [a, b, c, d, ..]) => {
                    *out = Value::F32(f32::from_le_bytes([*a, *b, *c, *d]));
                }
                (_, bytes) => *out = value::read_scalar(bytes, ty),
            }
        }
        // An uninitialised pointer local (`UNINIT_BUFFER`), or any other
        // private pointer: there is no private memory to address.
        AddressSpace::Private => return Err(RuntimeError::UninitializedPointer),
    }
    Ok(())
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

/// The slot in which the call head just before `pc` in `func` receives its
/// callee's result: that of its first argument.
fn result_slot(program: &Program, func: u16, pc: u32) -> usize {
    match &program.decoded_fn(func as usize).code[pc as usize - 1] {
        (Decoded::Plain(Op::Call { argc, .. }, top), _) => (*top - *argc as u16) as usize,
        other => unreachable!("a caller waits after `{other:?}`, not after a call"),
    }
}

fn pop(frame: &mut Frame) -> Result<Value, RuntimeError> {
    frame.stack.pop().ok_or_else(stack_underflow)
}

/// The lanes a head's loops cover, resolved once per head: all of the
/// strip's when every one is active (iterated as `0..n`), else the active
/// ones by index.
#[derive(Clone, Copy)]
enum Lanes<'a> {
    All,
    Some(&'a [u32]),
}

impl<'a> Lanes<'a> {
    /// `act`'s lanes in a strip of `n`: all of them iff `m == n`, since the
    /// active indices are distinct lanes below `n`.
    fn of(act: &'a Active, n: usize) -> Self {
        match act.m == n {
            true => Lanes::All,
            false => Lanes::Some(&act.idx[..act.m]),
        }
    }

    /// Runs `f` for every lane of a strip of `n`, ascending, in plain `for`
    /// loops (an iterator adaptor outlines the loop, which then reloads
    /// `f`'s captures per lane). A full strip's loop is bounded by `n`
    /// itself, so columns sliced to `n` are indexed unchecked.
    #[inline(always)]
    fn each(self, n: usize, mut f: impl FnMut(usize)) {
        match self {
            Lanes::All => {
                for l in 0..n {
                    f(l);
                }
            }
            Lanes::Some(idx) => {
                for &l in idx {
                    f(l as usize);
                }
            }
        }
    }
}

/// A typed loop's operand, resolved once per head: a register column (by
/// its lane-0 index), an immediate, or an accumulator column (by offset).
#[derive(Clone, Copy)]
enum Arg<T> {
    Col(usize),
    Imm(T),
    Acc(usize),
}

/// Where a typed loop writes: a register column or an accumulator column.
#[derive(Clone, Copy)]
enum Out {
    Col(usize),
    Acc(usize),
}

/// A strip's typed accumulator columns: `2 * STRIP` slots per type, the
/// chain's accumulator at offset 0 and its tree's at `STRIP`.
#[derive(Debug, Default)]
struct AccCols {
    f32: Vec<f32>,
    i32: Vec<i32>,
}

/// One head's typed view of the active set: the level's registers, the `T`
/// accumulator columns and the flags, as cells so that one loop may read
/// the column it writes (`x = x op y`).
struct Typed<'a, T> {
    /// The strip's width: a register column's length.
    n: usize,
    lanes: Lanes<'a>,
    regs: &'a [Cell<Value>],
    acc: &'a [Cell<T>],
    flags: &'a [Cell<bool>],
}

/// Binds `$get` to a per-lane reader of the typed operand `$arg` of the
/// [`Typed`] view `$t` and expands `$body` once per operand kind, so that
/// every loop in it reads its operands without a per-lane match.
macro_rules! reader {
    ($t:expr, $arg:expr, $get:ident => $body:expr) => {
        match $arg {
            Arg::Col(c) => {
                let col = &$t.regs[c..c + $t.n];
                let $get = move |i: usize| T::read(col[i].get());
                $body
            }
            Arg::Imm(x) => {
                let $get = move |_: usize| x;
                $body
            }
            Arg::Acc(a) => {
                let col = &$t.acc[a..a + $t.n];
                let $get = move |i: usize| col[i].get();
                $body
            }
        }
    };
}

impl<T: Fast> From<Src> for Arg<T> {
    fn from(src: Src) -> Self {
        match src {
            Src::Col(c) => Arg::Col(c),
            Src::Const(v) => Arg::Imm(T::read(v)),
        }
    }
}

impl<T: Fast> Typed<'_, T> {
    /// `out = l op r` over the lanes.
    fn bin(&self, op: BinOp, l: Arg<T>, r: Arg<T>, out: Out) {
        T::visit(op, BinLoop { t: self, l, r, out });
    }

    /// `flags = l op r` over the lanes; on floats IEEE's, as
    /// [`value::compare`]: ordered comparisons with NaN are false, `!=` is
    /// true.
    fn cmp(&self, op: CmpOp, l: Arg<T>, r: Arg<T>) {
        match op {
            CmpOp::Lt => self.flag(l, r, |a, b| a < b),
            CmpOp::Le => self.flag(l, r, |a, b| a <= b),
            CmpOp::Gt => self.flag(l, r, |a, b| a > b),
            CmpOp::Ge => self.flag(l, r, |a, b| a >= b),
            CmpOp::Eq => self.flag(l, r, |a, b| a == b),
            CmpOp::Ne => self.flag(l, r, |a, b| a != b),
        }
    }

    #[inline(always)]
    fn flag(&self, l: Arg<T>, r: Arg<T>, f: impl Fn(T, T) -> bool) {
        let flags = &self.flags[..self.n];
        reader!(self, l, a => reader!(self, r, b => self.lanes.each(self.n, |i| {
            flags[i].set(f(a(i), b(i)));
        })));
    }

    /// Register column `dst` = accumulator column `a`.
    fn spill(&self, a: usize, dst: usize) {
        let (acc, out) = (&self.acc[a..a + self.n], &self.regs[dst..dst + self.n]);
        self.lanes
            .each(self.n, |i| out[i].set(acc[i].get().value()));
    }

    /// [`Strip::chain`]'s typed loops over `srcs`: first operation, tree,
    /// each link into the accumulator at offset 0 (the tree's at `STRIP`),
    /// then the tail compares it into the flags or spills it to `dst`.
    fn chain(&self, c: &Chain, srcs: &[Src], cmp: Option<CmpOp>, dst: usize) {
        let (acc, arg) = (Arg::Acc(0), |k: usize| Arg::from(srcs[k]));
        self.bin(c.op, arg(0), arg(1), Out::Acc(0));
        let mut k = 2;
        if let Some((_, _, op2, comb)) = c.tree {
            self.bin(op2, arg(2), arg(3), Out::Acc(STRIP));
            self.bin(comb, acc, Arg::Acc(STRIP), Out::Acc(0));
            k = 4;
        }
        for (op, _) in &c.links {
            self.bin(*op, acc, arg(k), Out::Acc(0));
            k += 1;
        }
        match cmp {
            Some(op) => self.cmp(op, acc, arg(k)),
            None => self.spill(0, dst),
        }
    }
}

/// [`Typed::bin`]'s loop, run with the operation as a closure by
/// [`Fast::visit`].
struct BinLoop<'t, 'a, T> {
    t: &'t Typed<'a, T>,
    l: Arg<T>,
    r: Arg<T>,
    out: Out,
}

impl<T: Fast> BinLoop<'_, '_, T> {
    #[inline(always)]
    fn go(self, f: impl Fn(T, T) -> T + Copy) {
        let (t, out) = (self.t, self.out);
        reader!(t, self.l, a => reader!(t, self.r, b => match out {
            Out::Col(c) => {
                let col = &t.regs[c..c + t.n];
                t.lanes.each(t.n, |i| col[i].set(f(a(i), b(i)).value()));
            }
            Out::Acc(o) => {
                let col = &t.acc[o..o + t.n];
                t.lanes.each(t.n, |i| col[i].set(f(a(i), b(i))));
            }
        }));
    }
}

/// The scalar types whose arithmetic the typed loops do on the bare machine
/// type: `float`, and `int` with the operations that cannot fault — what
/// `decode::Loop` picks these loops for. The expressions are
/// [`value::binary`]'s own, so results are bit-identical.
trait Fast: Copy + PartialOrd + Default {
    /// A lane's value, which the type rule (`crate::decode`) proves holds
    /// a `Self`.
    fn read(v: Value) -> Self;
    fn value(self) -> Value;
    /// Runs `k` with `op` as a closure.
    fn visit(op: BinOp, k: BinLoop<'_, '_, Self>);
    fn acc(cols: &mut AccCols) -> &mut Vec<Self>;
}

/// Implements [`Fast`] for `$t`, the payload of `Value::$tag`, with
/// `$visit` as [`Fast::visit`]'s body.
macro_rules! fast {
    ($t:ident, $tag:ident, |$op:ident, $k:ident| $visit:expr) => {
        impl Fast for $t {
            #[inline(always)]
            fn read(v: Value) -> $t {
                match v {
                    Value::$tag(x) => x,
                    _ => <$t>::default(),
                }
            }

            #[inline(always)]
            fn value(self) -> Value {
                Value::$tag(self)
            }

            #[inline(always)]
            fn visit($op: BinOp, $k: BinLoop<'_, '_, $t>) {
                $visit
            }

            fn acc(cols: &mut AccCols) -> &mut Vec<$t> {
                &mut cols.$t
            }
        }
    };
}

fast!(f32, F32, |op, k| match op {
    BinOp::Add => k.go(|a, b| a + b),
    BinOp::Sub => k.go(|a, b| a - b),
    BinOp::Mul => k.go(|a, b| a * b),
    BinOp::Div => k.go(|a, b| a / b),
    BinOp::Rem => k.go(|a, b| a % b),
    // The type rule admits no bit operation on floats.
    _ => {}
});

fast!(i32, I32, |op, k| match op {
    BinOp::Add => k.go(|a, b| a.wrapping_add(b)),
    BinOp::Sub => k.go(|a, b| a.wrapping_sub(b)),
    BinOp::Mul => k.go(|a, b| a.wrapping_mul(b)),
    BinOp::BitAnd => k.go(|a, b| a & b),
    BinOp::BitOr => k.go(|a, b| a | b),
    BinOp::BitXor => k.go(|a, b| a ^ b),
    BinOp::Shl => k.go(|a, b| a.wrapping_shl(b as u32 & 31)),
    BinOp::Shr => k.go(|a, b| a.wrapping_shr(b as u32 & 31)),
    // `/` and `%` can fault: decode runs them lane by lane.
    _ => {}
});

/// One lane's `a op b`: what a head runs per lane when its operation can
/// fault or its type has no typed loop.
fn bin1(op: BinOp, a: Value, b: Value) -> Result<Value, RuntimeError> {
    value::binary(op, a, b).map_err(eval_err)
}

/// One lane's comparison (see [`bin1`]).
fn cmp1(op: CmpOp, a: Value, b: Value) -> Result<bool, RuntimeError> {
    value::compare(op, a, b).map_err(eval_err)
}

/// [`Strip::cvt`]'s loop: `f` per lane; an immediate converts once.
#[inline(always)]
fn cvt_lanes(
    (lanes, n): (Lanes, usize),
    regs: &mut [Value],
    (src, dst): (Src, usize),
    f: impl Fn(Value, &mut Value),
) {
    match src {
        Src::Col(c) => lanes.each(n, |i| f(regs[c + i], &mut regs[dst + i])),
        Src::Const(v) => {
            let mut z = ZERO;
            f(v, &mut z);
            lanes.each(n, |i| regs[dst + i] = z);
        }
    }
}

fn pop_ptr(frame: &mut Frame) -> Result<Ptr, RuntimeError> {
    expect_ptr(pop(frame)?)
}

fn expect_ptr(v: Value) -> Result<Ptr, RuntimeError> {
    match v {
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
