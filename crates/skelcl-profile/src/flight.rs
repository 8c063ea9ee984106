//! The flight recorder: an always-cheap, bounded ring buffer of compact
//! structured events for postmortem debugging.
//!
//! Where the [`Profiler`](crate::Profiler) records *everything* (and is
//! therefore off by default), the flight recorder keeps only the last `N`
//! events — launch begin/end, transfers, redistributions, plan-node
//! completions, pool dispatches — in a fixed-size ring that never grows.
//! Recording an event is a sequence-number increment plus one short
//! critical section writing a `Copy` struct into a preallocated slot; the
//! disabled recorder (the default) is a single `Option` check with no heap
//! or lock, exactly like the disabled profiler.
//!
//! The payoff is the crash story: when a command fails with
//! [`vgpu::Error::DeviceLost`] (a kernel panic on a worker), the recorder
//! dumps its ring to stderr *once*, giving the chronology that led into
//! the crash — the postmortem the profiler cannot provide because it is
//! usually disabled in production runs. `Context::dump_flight()` produces
//! the same dump on demand.
//!
//! A `skelcl` context creates one from `SKELCL_FLIGHT=<capacity>` (e.g.
//! `SKELCL_FLIGHT=256`); this crate reads no environment.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use vgpu::{CommandClass, CommandQueue, QueueNotice, QueuePhase};

use crate::metrics;
use crate::Profiler;

/// What a [`FlightEvent`] records. The `a`/`b` (and, for
/// [`FlightKind::StreamShare`], `more`) payload fields are kind-specific
/// (documented per variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A kernel command was enqueued towards the execution engine
    /// (`a` = queue depth after the enqueue).
    PoolDispatch,
    /// A kernel began executing (`a` = queue depth).
    LaunchBegin,
    /// A kernel finished (`a` = queue depth after it).
    LaunchEnd,
    /// A transfer command finished (`a` = bytes moved).
    Transfer,
    /// A container redistribution / rebalance step (`a` = bytes moved,
    /// `b` = 1 for a boundary-only delta move, 0 for a full gather).
    Redistribution,
    /// A `LaunchPlan` node completed (`a` = node index, `b` = profiler
    /// span id, 0 when profiling is disabled).
    PlanNode,
    /// A command failed (`a` = bytes, `b` = 1 when the device was lost).
    Failure,
    /// The streaming executor leased a staging-ring slot for a chunk
    /// (`a` = per-device chunk sequence number, `b` = ring occupancy —
    /// chunks leased but not yet retired — after the acquire).
    ChunkAcquire,
    /// A chunk's commands were submitted to the engine (`a` = chunk
    /// sequence number, `b` = staged input bytes).
    ChunkSubmit,
    /// A chunk fully retired — its last command completed and its ring
    /// slot became reusable (`a` = chunk sequence number, `b` = ring
    /// occupancy after the retire).
    ChunkRetire,
    /// A region streamed: one record per device share, when the region is
    /// planned (`a` = the device budget in bytes, `b` = bytes the region
    /// keeps resident outside the staging ring, `more` = units per chunk,
    /// chunks, ring depth).
    StreamShare,
}

impl FlightKind {
    /// A static label for dumps.
    pub fn label(self) -> &'static str {
        match self {
            FlightKind::PoolDispatch => "pool_dispatch",
            FlightKind::LaunchBegin => "launch_begin",
            FlightKind::LaunchEnd => "launch_end",
            FlightKind::Transfer => "transfer",
            FlightKind::Redistribution => "redistribution",
            FlightKind::PlanNode => "plan_node",
            FlightKind::Failure => "failure",
            FlightKind::ChunkAcquire => "chunk_acquire",
            FlightKind::ChunkSubmit => "chunk_submit",
            FlightKind::ChunkRetire => "chunk_retire",
            FlightKind::StreamShare => "stream_share",
        }
    }
}

/// One ring slot: fixed-size, `Copy`, no owned strings (labels are
/// `&'static str`), so recording never allocates.
#[derive(Debug, Clone, Copy)]
pub struct FlightEvent {
    /// Monotone sequence number (global across the ring; gaps mean the
    /// ring wrapped and older events were overwritten).
    pub seq: u64,
    /// Host nanoseconds since the recorder was created.
    pub t_host_ns: u64,
    /// The device's simulated clock at the event (0 when not applicable).
    pub t_dev_ns: u64,
    /// Device index (`usize::MAX` for host-side events).
    pub device: usize,
    /// What happened.
    pub kind: FlightKind,
    /// A static detail label (e.g. the command class or skeleton name).
    pub label: &'static str,
    /// Kind-specific payload (see [`FlightKind`]).
    pub a: u64,
    /// Kind-specific payload (see [`FlightKind`]).
    pub b: u64,
    /// Further kind-specific payload (see [`FlightKind`]); zero for kinds
    /// that document only `a` and `b`.
    pub more: [u64; 3],
}

/// Device index used for host-side events.
pub const HOST_DEVICE: usize = usize::MAX;

struct Ring {
    slots: Vec<FlightEvent>,
    /// Index the next event overwrites once the ring is full.
    next: usize,
}

struct FlightInner {
    epoch: Instant,
    capacity: usize,
    seq: AtomicU64,
    ring: Mutex<Ring>,
    dumped: AtomicBool,
}

/// The flight recorder handle. Cheap to clone; all clones share one ring.
/// Disabled (the default) it records nothing, allocates nothing and takes
/// no lock.
#[derive(Clone, Default)]
pub struct FlightRecorder {
    inner: Option<Arc<FlightInner>>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity())
            .finish()
    }
}

impl FlightRecorder {
    /// A no-op recorder: every method returns immediately.
    pub fn disabled() -> Self {
        FlightRecorder { inner: None }
    }

    /// A recorder keeping the last `capacity` events (0 disables it).
    pub fn with_capacity(capacity: usize) -> Self {
        if capacity == 0 {
            return FlightRecorder::disabled();
        }
        FlightRecorder {
            inner: Some(Arc::new(FlightInner {
                epoch: Instant::now(),
                capacity,
                seq: AtomicU64::new(0),
                ring: Mutex::new(Ring {
                    slots: Vec::with_capacity(capacity),
                    next: 0,
                }),
                dumped: AtomicBool::new(false),
            })),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Ring capacity (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.capacity)
    }

    /// Records one event (no-op when disabled).
    pub fn record(
        &self,
        kind: FlightKind,
        device: usize,
        label: &'static str,
        t_dev_ns: u64,
        a: u64,
        b: u64,
    ) {
        self.record_payload(kind, device, label, t_dev_ns, [a, b, 0, 0, 0]);
    }

    /// Records one event whose payload is `a`, `b` and `more`, in that
    /// order (no-op when disabled).
    pub fn record_payload(
        &self,
        kind: FlightKind,
        device: usize,
        label: &'static str,
        t_dev_ns: u64,
        payload: [u64; 5],
    ) {
        let Some(inner) = &self.inner else { return };
        let [a, b, more @ ..] = payload;
        let event = FlightEvent {
            seq: inner.seq.fetch_add(1, Ordering::Relaxed),
            t_host_ns: inner.epoch.elapsed().as_nanos() as u64,
            t_dev_ns,
            device,
            kind,
            label,
            a,
            b,
            more,
        };
        let mut ring = inner.ring.lock();
        if ring.slots.len() < inner.capacity {
            ring.slots.push(event);
        } else {
            let next = ring.next;
            ring.slots[next] = event;
            ring.next = (next + 1) % inner.capacity;
        }
    }

    /// Total events recorded so far (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.seq.load(Ordering::Relaxed))
    }

    /// Events that fell off the ring.
    pub fn dropped(&self) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        let len = inner.ring.lock().slots.len() as u64;
        inner.seq.load(Ordering::Relaxed).saturating_sub(len)
    }

    /// The ring's events, oldest first (empty when disabled).
    pub fn events(&self) -> Vec<FlightEvent> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let ring = inner.ring.lock();
        let mut out = Vec::with_capacity(ring.slots.len());
        out.extend_from_slice(&ring.slots[ring.next..]);
        out.extend_from_slice(&ring.slots[..ring.next]);
        out
    }

    /// Renders the ring as an aligned text table; `None` when disabled.
    pub fn dump(&self) -> Option<String> {
        let inner = self.inner.as_ref()?;
        let events = self.events();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== skelcl flight recorder: {} events (capacity {}, {} dropped) ==",
            events.len(),
            inner.capacity,
            self.dropped()
        );
        let _ = writeln!(
            out,
            "  {:>6} {:>12} {:>12} {:>6} {:<14} {:<12} {:>12} {:>6}",
            "seq", "t_host_us", "t_dev_us", "dev", "kind", "label", "a", "b"
        );
        for e in &events {
            let dev = if e.device == HOST_DEVICE {
                "host".to_string()
            } else {
                format!("{}", e.device)
            };
            let _ = write!(
                out,
                "  {:>6} {:>12} {:>12} {:>6} {:<14} {:<12} {:>12} {:>6}",
                e.seq,
                e.t_host_ns / 1_000,
                e.t_dev_ns / 1_000,
                dev,
                e.kind.label(),
                e.label,
                e.a,
                e.b
            );
            if e.more != [0; 3] {
                let _ = write!(out, " {:?}", e.more);
            }
            out.push('\n');
        }
        Some(out)
    }

    /// Whether the automatic crash dump has fired.
    pub fn dumped(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.dumped.load(Ordering::Relaxed))
    }

    /// Dumps the ring to stderr exactly once per recorder (the automatic
    /// postmortem on `DeviceLost`). Returns `true` if this call dumped.
    pub fn dump_once(&self, reason: &str) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        if inner.dumped.swap(true, Ordering::Relaxed) {
            return false;
        }
        if let Some(dump) = self.dump() {
            eprintln!("skelcl: {reason} — dumping flight recorder");
            eprintln!("{dump}");
        }
        true
    }

    /// Installs a telemetry observer on `queue` that feeds this recorder
    /// (kernel begin/end, transfers, failures — with an automatic
    /// [`FlightRecorder::dump_once`] on `DeviceLost`) and, when `profiler`
    /// is enabled, per-device queue-depth counter samples for the Chrome
    /// trace. A no-op when both handles are disabled.
    pub fn attach_queue(&self, profiler: &Profiler, queue: &CommandQueue) {
        if !self.is_enabled() && !profiler.is_enabled() {
            return;
        }
        let flight = self.clone();
        let profiler = profiler.clone();
        queue.set_observer(Arc::new(move |notice: &QueueNotice| {
            observe(&flight, &profiler, notice);
        }));
    }
}

/// Maps one queue notice to flight events and counter samples.
fn observe(flight: &FlightRecorder, profiler: &Profiler, notice: &QueueNotice) {
    if notice.class != CommandClass::Marker {
        profiler.record_counter_sample(
            metrics::QUEUE_DEPTH,
            notice.device,
            notice.t_ns,
            notice.depth as f64,
        );
    }
    let label = notice.class.label();
    let dev = notice.device;
    let t = notice.t_ns;
    match (notice.phase, notice.class) {
        (QueuePhase::Enqueued, CommandClass::Kernel) => flight.record(
            FlightKind::PoolDispatch,
            dev,
            label,
            t,
            notice.depth as u64,
            0,
        ),
        (QueuePhase::Started, CommandClass::Kernel) => flight.record(
            FlightKind::LaunchBegin,
            dev,
            label,
            t,
            notice.depth as u64,
            0,
        ),
        (QueuePhase::Finished, _) if notice.failed => {
            flight.record(
                FlightKind::Failure,
                dev,
                label,
                t,
                notice.bytes as u64,
                notice.device_lost as u64,
            );
            if notice.device_lost {
                flight.dump_once("device lost (worker crash)");
            }
        }
        (QueuePhase::Finished, CommandClass::Kernel) => {
            flight.record(FlightKind::LaunchEnd, dev, label, t, notice.depth as u64, 0)
        }
        (QueuePhase::Finished, CommandClass::Write | CommandClass::Read | CommandClass::Copy) => {
            flight.record(FlightKind::Transfer, dev, label, t, notice.bytes as u64, 0)
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let f = FlightRecorder::disabled();
        assert!(!f.is_enabled());
        f.record(FlightKind::Transfer, 0, "write", 0, 4096, 0);
        assert!(f.events().is_empty());
        assert_eq!(f.recorded(), 0);
        assert!(f.dump().is_none());
        assert!(!f.dump_once("test"));
        assert!(!f.dumped());
    }

    #[test]
    fn zero_capacity_disables() {
        assert!(!FlightRecorder::with_capacity(0).is_enabled());
    }

    #[test]
    fn ring_keeps_newest_events_in_order() {
        let f = FlightRecorder::with_capacity(4);
        for i in 0..10u64 {
            f.record(FlightKind::Transfer, 0, "write", i, i, 0);
        }
        let events = f.events();
        assert_eq!(events.len(), 4);
        // The last 4 of 10, oldest first.
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(f.recorded(), 10);
        assert_eq!(f.dropped(), 6);
    }

    #[test]
    fn dump_mentions_events_and_capacity() {
        let f = FlightRecorder::with_capacity(8);
        f.record(FlightKind::LaunchBegin, 1, "kernel", 500_000, 2, 0);
        f.record(FlightKind::Failure, 1, "kernel", 600_000, 0, 1);
        f.record_payload(
            FlightKind::StreamShare,
            0,
            "stream",
            0,
            [8192, 64, 256, 5, 2],
        );
        let dump = f.dump().unwrap();
        assert!(dump.contains("capacity 8"));
        assert!(dump.contains("launch_begin"));
        assert!(dump.contains("failure"));
        // Only a record with a `more` payload prints it.
        assert_eq!(dump.matches('[').count(), 1);
        assert!(dump.contains("stream_share") && dump.contains("[256, 5, 2]"));
        assert_eq!(f.events()[2].more, [256, 5, 2]);
        // dump_once fires exactly once.
        assert!(f.dump_once("test crash"));
        assert!(!f.dump_once("test crash"));
        assert!(f.dumped());
    }

    #[test]
    fn clones_share_the_ring() {
        let f = FlightRecorder::with_capacity(8);
        let g = f.clone();
        g.record(FlightKind::PlanNode, HOST_DEVICE, "map", 0, 3, 0);
        assert_eq!(f.events().len(), 1);
        assert_eq!(f.events()[0].device, HOST_DEVICE);
    }
}
