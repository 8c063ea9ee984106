//! The asynchronous execution engine: declarative launch plans.
//!
//! Every skeleton describes its work as a [`LaunchPlan`] — a small DAG of
//! transfers and kernel launches with explicit event dependencies — and
//! hands it to [`LaunchPlan::execute`], which enqueues each node on its
//! device's asynchronous command queue (`vgpu` runs one worker thread per
//! queue). Nodes on different devices run concurrently; dependencies are
//! expressed through `vgpu` event wait-lists, so uploads on one device
//! overlap kernels on another without any host-side threads.
//!
//! Bookkeeping rides on event **completion callbacks** rather than on
//! blocking waits:
//!
//! * profiler spans for kernels and transfers are recorded the moment the
//!   command retires on its queue worker (see `SKELCL_PROFILE`), and every
//!   wait-list dependency becomes a Chrome-trace **flow edge** between the
//!   dependency's span and the dependent's (causal arrows in the trace);
//! * plan-node completions feed the flight recorder (`SKELCL_FLIGHT`);
//! * the scheduler's throughput model is fed once per plan and device,
//!   when the device's last kernel of the plan completes.
//!
//! Flow edges need the dependency's span id inside the dependent's
//! callback. That is race-free by construction: a dependent command only
//! starts after `Event::wait` on its dependency returns, and `vgpu` runs an
//! event's completion callbacks *before* releasing waiters — so the
//! dependency's slot in the per-plan span-id table is always filled first.
//!
//! The callbacks deliberately capture only the cheap, `Clone` observability
//! handles ([`skelcl_profile::Profiler`], [`crate::Scheduler`]) — never the
//! [`Context`] itself, which would let a queue worker drop the context (and
//! thus join itself) from inside a callback.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use skelcl_profile::FlightKind;
use vgpu::{DeviceBuffer, Event, HostRead, KernelArg, NdRange};

use crate::context::Context;
use crate::error::Result;
use crate::exec::nd_range_label;

/// Handle to one node of a [`LaunchPlan`], used to declare dependencies
/// and to collect read results from the finished run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

impl NodeId {
    /// The node's position in the plan (nodes are enqueued in this order).
    pub fn index(self) -> usize {
        self.0
    }
}

enum PlanOp {
    Kernel {
        device: usize,
        program: skelcl_kernel::Program,
        kernel: String,
        args: Vec<KernelArg>,
        range: NdRange,
        /// Distribution units this launch owns — summed per device and fed
        /// to the scheduler when the device's last kernel completes.
        units: usize,
    },
    Write {
        device: usize,
        buffer: DeviceBuffer,
        offset: usize,
        bytes: Vec<u8>,
    },
    Read {
        device: usize,
        buffer: DeviceBuffer,
        offset: usize,
        len: usize,
    },
}

impl PlanOp {
    fn device(&self) -> usize {
        match self {
            PlanOp::Kernel { device, .. }
            | PlanOp::Write { device, .. }
            | PlanOp::Read { device, .. } => *device,
        }
    }
}

struct PlanNode {
    op: PlanOp,
    deps: Vec<NodeId>,
}

/// A declarative description of one skeleton execution: kernel launches,
/// uploads and readbacks with explicit dependencies.
///
/// Nodes may only depend on earlier nodes (the builder enforces it), so a
/// plan is a DAG by construction and [`LaunchPlan::execute`] can enqueue
/// it in index order — every wait-list refers to an already-enqueued
/// event, which rules out enqueue-time deadlocks.
#[derive(Default)]
pub struct LaunchPlan {
    nodes: Vec<PlanNode>,
    /// Feed the scheduler one sample per kernel node instead of one
    /// aggregate per device — the streaming executor's per-chunk EWMA
    /// feedback, where every chunk is an independent throughput sample.
    per_kernel_observations: bool,
}

impl std::fmt::Debug for LaunchPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaunchPlan")
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

impl LaunchPlan {
    /// An empty plan.
    pub fn new() -> Self {
        LaunchPlan::default()
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the plan has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Global work-items of the kernel nodes from index `first` on.
    pub fn kernel_items_since(&self, first: usize) -> u64 {
        let ops = self.nodes[first..].iter().map(|n| &n.op);
        ops.map(|op| match op {
            PlanOp::Kernel { range, .. } => range.total_items() as u64,
            _ => 0,
        })
        .sum()
    }

    /// Switches scheduler feedback from one aggregate sample per device to
    /// one sample per kernel node with non-zero `units`. Chunked
    /// (streaming) plans use this so the adaptive scheduler's EWMA keeps
    /// tracking per-chunk throughput under pipelining.
    pub fn observe_per_kernel(&mut self) {
        self.per_kernel_observations = true;
    }

    fn push(&mut self, op: PlanOp, deps: &[NodeId]) -> NodeId {
        let id = NodeId(self.nodes.len());
        for dep in deps {
            assert!(
                dep.0 < id.0,
                "plan node {} depends on later node {}",
                id.0,
                dep.0
            );
        }
        self.nodes.push(PlanNode {
            op,
            deps: deps.to_vec(),
        });
        id
    }

    /// Adds a kernel launch on `device`. `units` is the number of
    /// distribution units the launch owns (0 for helper launches that
    /// should not count as scheduler measurements).
    ///
    /// # Panics
    ///
    /// Panics if a dependency refers to a node not yet in the plan.
    #[allow(clippy::too_many_arguments)]
    pub fn kernel(
        &mut self,
        device: usize,
        program: &skelcl_kernel::Program,
        kernel: &str,
        args: Vec<KernelArg>,
        range: NdRange,
        units: usize,
        deps: &[NodeId],
    ) -> NodeId {
        self.push(
            PlanOp::Kernel {
                device,
                program: program.clone(),
                kernel: kernel.to_string(),
                args,
                range,
                units,
            },
            deps,
        )
    }

    /// Adds a host→device upload of `bytes` into `buffer` at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if a dependency refers to a node not yet in the plan.
    pub fn write(
        &mut self,
        device: usize,
        buffer: &DeviceBuffer,
        offset: usize,
        bytes: Vec<u8>,
        deps: &[NodeId],
    ) -> NodeId {
        self.push(
            PlanOp::Write {
                device,
                buffer: buffer.clone(),
                offset,
                bytes,
            },
            deps,
        )
    }

    /// Adds a device→host readback of `len` bytes from `buffer` at
    /// `offset`; collect the bytes from the run with
    /// [`PlanRun::take_read`].
    ///
    /// # Panics
    ///
    /// Panics if a dependency refers to a node not yet in the plan.
    pub fn read(
        &mut self,
        device: usize,
        buffer: &DeviceBuffer,
        offset: usize,
        len: usize,
        deps: &[NodeId],
    ) -> NodeId {
        self.push(
            PlanOp::Read {
                device,
                buffer: buffer.clone(),
                offset,
                len,
            },
            deps,
        )
    }

    /// Enqueues every node on its device's queue (in index order, with the
    /// declared dependencies as event wait-lists) and returns immediately
    /// with a [`PlanRun`] handle. Completion callbacks record profiler
    /// spans and feed the scheduler as commands retire.
    ///
    /// # Errors
    ///
    /// Fails on enqueue-time validation errors (unknown kernel, bad
    /// argument binding, transfer out of range, …). Runtime failures are
    /// reported by [`PlanRun::wait`].
    pub fn execute(self, ctx: &Context) -> Result<PlanRun> {
        let profiler = ctx.profiler().clone();
        let flight = ctx.flight().clone();
        let scheduler = ctx.scheduler().clone();
        let profiling = profiler.is_enabled();

        // Span ids per plan node, filled by completion callbacks: slot `d`
        // is guaranteed populated before node `i`'s callback reads it for
        // any dependency edge `d → i` (see the module docs).
        let span_ids: Option<Arc<Vec<AtomicU64>>> =
            profiling.then(|| Arc::new((0..self.nodes.len()).map(|_| AtomicU64::new(0)).collect()));

        // Per-device aggregate over the plan's kernel nodes: the scheduler
        // wants one (units, busy_ns) sample per device per skeleton call,
        // delivered when the device's last kernel completes.
        let mut observations: HashMap<usize, Arc<DeviceObservation>> = HashMap::new();
        if !self.per_kernel_observations {
            for node in &self.nodes {
                if let PlanOp::Kernel { device, units, .. } = &node.op {
                    let obs = observations.entry(*device).or_default();
                    obs.pending.fetch_add(1, Ordering::Relaxed);
                    obs.units.fetch_add(*units, Ordering::Relaxed);
                }
            }
        }
        let per_kernel = self.per_kernel_observations;

        let order = Arc::new(Mutex::new(Vec::with_capacity(self.nodes.len())));
        let mut events: Vec<Event> = Vec::with_capacity(self.nodes.len());
        let mut reads: HashMap<usize, HostRead> = HashMap::new();
        for (index, node) in self.nodes.into_iter().enumerate() {
            let waits: Vec<Event> = node.deps.iter().map(|d| events[d.0].clone()).collect();
            let device = node.op.device();
            let deps: Vec<usize> = node.deps.iter().map(|d| d.0).collect();
            let node_kind = match node.op {
                PlanOp::Kernel { .. } => "kernel",
                PlanOp::Write { .. } => "write",
                PlanOp::Read { .. } => "read",
            };
            let obs = match node.op {
                PlanOp::Kernel { .. } if !per_kernel => observations.get(&device).cloned(),
                _ => None,
            };
            let kernel_units = match node.op {
                PlanOp::Kernel { units, .. } if per_kernel && units > 0 => Some(units),
                _ => None,
            };
            let mut label = None;
            let event = match node.op {
                PlanOp::Kernel {
                    device,
                    program,
                    kernel,
                    args,
                    range,
                    units: _,
                } => {
                    if profiling {
                        label = Some(nd_range_label(&range));
                    }
                    ctx.queue(device).launch_kernel_async(
                        &program,
                        &kernel,
                        &args,
                        range,
                        ctx.launch_config(),
                        &waits,
                    )?
                }
                PlanOp::Write {
                    device,
                    buffer,
                    offset,
                    bytes,
                } => ctx
                    .queue(device)
                    .enqueue_write_async(&buffer, offset, bytes, &waits)?,
                PlanOp::Read {
                    device,
                    buffer,
                    offset,
                    len,
                } => {
                    let read = ctx
                        .queue(device)
                        .enqueue_read_async(&buffer, offset, len, &waits)?;
                    let event = read.event().clone();
                    reads.insert(index, read);
                    event
                }
            };
            let profiler = profiler.clone();
            let flight = flight.clone();
            let scheduler = scheduler.clone();
            let order = Arc::clone(&order);
            let span_ids = span_ids.clone();
            event.on_complete(move |e| {
                order.lock().push(index);
                flight.record(
                    FlightKind::PlanNode,
                    device,
                    node_kind,
                    e.ended_ns(),
                    index as u64,
                    deps.len() as u64,
                );
                if e.error().is_none() {
                    let span = profiler.record_event_with(e, label);
                    if let Some(ids) = &span_ids {
                        ids[index].store(span, Ordering::Release);
                        for dep in &deps {
                            profiler.record_flow(ids[*dep].load(Ordering::Acquire), span);
                        }
                    }
                }
                if let Some(units) = kernel_units {
                    if e.error().is_none() {
                        scheduler.observe(device, units, e.duration().as_nanos() as u64);
                    }
                }
                if let Some(obs) = obs {
                    if e.error().is_some() {
                        obs.failed.store(true, Ordering::Relaxed);
                    } else {
                        obs.busy_ns
                            .fetch_add(e.duration().as_nanos() as u64, Ordering::Relaxed);
                    }
                    if obs.pending.fetch_sub(1, Ordering::AcqRel) == 1
                        && !obs.failed.load(Ordering::Relaxed)
                    {
                        scheduler.observe(
                            device,
                            obs.units.load(Ordering::Relaxed),
                            obs.busy_ns.load(Ordering::Relaxed),
                        );
                    }
                }
            });
            events.push(event);
        }
        Ok(PlanRun {
            events,
            reads,
            order,
        })
    }
}

#[derive(Default)]
struct DeviceObservation {
    /// Kernel nodes of this plan not yet completed on the device.
    pending: AtomicUsize,
    /// Total distribution units across the device's kernel nodes.
    units: AtomicUsize,
    /// Accumulated simulated kernel time.
    busy_ns: AtomicU64,
    /// Set when any kernel node failed — the sample is discarded.
    failed: AtomicBool,
}

/// A launched [`LaunchPlan`]: one event per node, in plan order.
pub struct PlanRun {
    events: Vec<Event>,
    reads: HashMap<usize, HostRead>,
    order: Arc<Mutex<Vec<usize>>>,
}

impl std::fmt::Debug for PlanRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanRun")
            .field("events", &self.events.len())
            .field("pending_reads", &self.reads.len())
            .finish()
    }
}

impl PlanRun {
    /// Blocks until every node has completed.
    ///
    /// # Errors
    ///
    /// Returns the first (in plan order) node failure after *all* nodes
    /// have settled — a failed kernel surfaces as an error result, never
    /// as a host-side abort, and never leaves commands in flight.
    pub fn wait(&self) -> Result<()> {
        let mut first_error = None;
        for event in &self.events {
            if let Err(e) = event.wait() {
                first_error.get_or_insert(e);
            }
        }
        match first_error {
            Some(e) => Err(e.into()),
            None => Ok(()),
        }
    }

    /// The nodes' events, in plan (not completion) order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Consumes the run, returning the events in plan order.
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }

    /// Waits for read node `node` and takes its bytes.
    ///
    /// # Errors
    ///
    /// Fails when the read (or a dependency) failed.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a read node of this plan or was already
    /// taken.
    pub fn take_read(&mut self, node: NodeId) -> Result<Vec<u8>> {
        let read = self
            .reads
            .remove(&node.0)
            .expect("take_read: node is not a pending read of this plan");
        let (_event, bytes) = read.wait()?;
        Ok(bytes)
    }

    /// Node indices in the order their completion callbacks ran — for
    /// every dependency edge the dependency appears before the dependent.
    pub fn completion_order(&self) -> Vec<usize> {
        self.order.lock().clone()
    }
}
