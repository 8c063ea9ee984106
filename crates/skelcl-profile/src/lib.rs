//! # skelcl-profile — tracing and metrics for the SkelCL reproduction
//!
//! A zero-cost-when-disabled observability layer. The [`Profiler`] is a
//! handle that is either **disabled** (the default — every method is a
//! no-op that touches no heap and takes no lock) or **enabled**, in which
//! case it records:
//!
//! * **Spans** — every skeleton call opens a host span; code generation /
//!   compilation, uploads, per-device kernel executions and downloads
//!   appear as child spans populated from `vgpu` [`vgpu::Event`]s (see
//!   [`span::SpanRecord`]);
//! * **Metrics** — named counters and histograms (bytes moved per
//!   direction, transfer cache hits vs forced copies, redistribution
//!   events, compile-cache hits/misses) and per-device busy nanoseconds
//!   for utilization / load-imbalance analysis (see [`metrics`]);
//! * **Exports** — a `chrome://tracing`-compatible JSON trace with one
//!   lane per device plus a host lane ([`chrome`]), a human-readable
//!   summary table and machine-readable JSON reports ([`report`]).

#![warn(missing_docs)]

pub mod chrome;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod report;
pub mod span;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

pub use flight::{FlightEvent, FlightKind, FlightRecorder};
pub use json::Json;
pub use metrics::{DeviceBusy, Histogram, Metrics, MetricsSnapshot};
pub use span::{CounterSample, FlowEdge, Lane, SpanKind, SpanRecord};

use vgpu::{CommandKind, Event};

struct Inner {
    epoch: Instant,
    next_id: AtomicU64,
    /// Id of the innermost open host span (0 = none): device spans recorded
    /// while a skeleton span is open become its children. A single cell
    /// (not a per-thread stack) — skeleton calls from concurrent host
    /// threads may interleave parents, which only affects trace nesting,
    /// never timing or metrics.
    current_parent: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    /// Causal edges between spans (LaunchPlan wait-list dependencies).
    flows: Mutex<Vec<FlowEdge>>,
    /// Per-device counter-track samples (queue depth, …).
    counter_samples: Mutex<Vec<CounterSample>>,
    metrics: Metrics,
}

/// The profiler handle. Cheap to clone; all clones share the same state.
#[derive(Clone)]
pub struct Profiler {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::disabled()
    }
}

impl Profiler {
    /// A no-op profiler: every method returns immediately.
    pub fn disabled() -> Self {
        Profiler { inner: None }
    }

    /// A recording profiler.
    pub fn enabled() -> Self {
        Profiler {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                current_parent: AtomicU64::new(0),
                spans: Mutex::new(Vec::new()),
                flows: Mutex::new(Vec::new()),
                counter_samples: Mutex::new(Vec::new()),
                metrics: Metrics::default(),
            })),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Nanoseconds since the profiler was created (host lane clock).
    fn host_now_ns(inner: &Inner) -> u64 {
        inner.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a host-lane span; it closes (and is recorded) when the
    /// returned guard drops. Disabled profilers return an inert guard
    /// without copying `name`.
    pub fn host_span(&self, kind: SpanKind, name: &str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard { state: None };
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = inner.current_parent.swap(id, Ordering::Relaxed);
        SpanGuard {
            state: Some(GuardState {
                inner: Arc::clone(inner),
                id,
                parent,
                name: name.to_string(),
                kind,
                start_ns: Self::host_now_ns(inner),
                extras: Vec::new(),
            }),
        }
    }

    /// Records a device-side span from a `vgpu` profiling event, updating
    /// byte counters, transfer/kernel histograms and per-device busy time.
    /// The span's parent is the currently open host span, if any.
    pub fn record_event(&self, event: &Event) {
        self.record_event_with(event, None);
    }

    /// Like [`Profiler::record_event`], with explicit launch geometry for
    /// kernel spans (e.g. `"4096/256"`). Returns the recorded span's id
    /// (for [`Profiler::record_flow`] edges); 0 when disabled or for
    /// markers, which record no span.
    pub fn record_event_with(&self, event: &Event, nd_range: Option<String>) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        let dur = event.ended_ns().saturating_sub(event.started_ns());
        let device = event.device().0;
        match event.kind() {
            CommandKind::WriteBuffer { bytes } => {
                inner.metrics.add(metrics::BYTES_H2D, *bytes as u64);
                inner
                    .metrics
                    .record(metrics::HIST_TRANSFER_BYTES, *bytes as u64);
                inner.metrics.add_transfer_ns(device, dur);
            }
            CommandKind::ReadBuffer { bytes } => {
                inner.metrics.add(metrics::BYTES_D2H, *bytes as u64);
                inner
                    .metrics
                    .record(metrics::HIST_TRANSFER_BYTES, *bytes as u64);
                inner.metrics.add_transfer_ns(device, dur);
            }
            CommandKind::CopyBuffer { bytes } => {
                inner.metrics.add(metrics::BYTES_D2D, *bytes as u64);
                inner
                    .metrics
                    .record(metrics::HIST_TRANSFER_BYTES, *bytes as u64);
                inner.metrics.add_transfer_ns(device, dur);
            }
            CommandKind::Kernel { .. } => {
                inner.metrics.record(metrics::HIST_KERNEL_NS, dur);
                inner.metrics.add_kernel_ns(device, dur);
            }
            // Barrier markers carry no payload and occupy no timeline.
            CommandKind::Marker => return 0,
        }
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = inner.current_parent.load(Ordering::Relaxed);
        let record = SpanRecord::from_event(id, parent, event, nd_range);
        inner.spans.lock().push(record);
        id
    }

    /// Records a causal edge between two recorded spans (a `LaunchPlan`
    /// wait-list dependency), exported as a Chrome flow event. No-op when
    /// disabled or when either id is 0 (an unrecorded span).
    pub fn record_flow(&self, from_span: u64, to_span: u64) {
        let Some(inner) = &self.inner else { return };
        if from_span == 0 || to_span == 0 || from_span == to_span {
            return;
        }
        inner.flows.lock().push(FlowEdge {
            from: from_span,
            to: to_span,
        });
    }

    /// Records one sample of the per-device counter track `name` at
    /// device-time `t_ns` (exported as a Chrome `"C"` event). No-op when
    /// disabled.
    pub fn record_counter_sample(&self, name: &'static str, device: usize, t_ns: u64, value: f64) {
        let Some(inner) = &self.inner else { return };
        inner.counter_samples.lock().push(CounterSample {
            name,
            device,
            t_ns,
            value,
        });
    }

    /// Copies of all recorded flow edges (empty when disabled).
    pub fn flows(&self) -> Vec<FlowEdge> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.flows.lock().clone())
    }

    /// Copies of all recorded counter samples (empty when disabled).
    pub fn counter_samples(&self) -> Vec<CounterSample> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.counter_samples.lock().clone())
    }

    /// Adds `delta` to counter `name` (no-op when disabled).
    pub fn add(&self, name: &'static str, delta: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.add(name, delta);
        }
    }

    /// Records `value` into histogram `name` (no-op when disabled).
    pub fn record_value(&self, name: &'static str, value: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.record(name, value);
        }
    }

    /// Records where one kernel compile spent its time: every stage into
    /// its `kernel.<stage>_us` histogram (plus [`metrics::HIST_COMPILE_US`]
    /// for the sum), and stages, passes and MIR sizes as args of the
    /// compile's `span`. No-op, and allocation-free, when disabled.
    pub fn record_compile(&self, span: &mut SpanGuard, stats: &skelcl_kernel::CompileStats) {
        let Some(inner) = &self.inner else { return };
        let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
        for (name, d) in stats.stages() {
            inner.metrics.record(name, d.as_micros() as u64);
            span.attach(name, format!("{:.1}", us(d)));
        }
        inner
            .metrics
            .record(metrics::HIST_COMPILE_US, stats.total().as_micros() as u64);
        for (pass, d) in skelcl_kernel::PASS_NAMES.iter().zip(stats.pass) {
            span.attach(format!("kernel.pass.{pass}_us"), format!("{:.1}", us(d)));
        }
        let (a, b) = (stats.mir_in, stats.mir_out);
        for (key, before, after) in [
            ("mir.functions", a.functions, b.functions),
            ("mir.blocks", a.blocks, b.blocks),
            ("mir.insts", a.insts, b.insts),
            ("mir.slots", a.slots, b.slots),
            ("mir.vregs", a.vregs, b.vregs),
        ] {
            span.attach(key, format!("{before} -> {after}"));
        }
    }

    /// Sets per-device gauge `name` to `value` (no-op when disabled).
    pub fn set_device_gauge(&self, name: &'static str, device: usize, value: f64) {
        if let Some(inner) = &self.inner {
            inner.metrics.set_device_gauge(name, device, value);
        }
    }

    /// Current value of a counter; 0 when disabled.
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.metrics.counter(name))
    }

    /// Copies of all recorded spans (empty when disabled).
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.spans.lock().clone())
    }

    /// A point-in-time copy of the metrics registry; `None` when disabled.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.inner.as_ref().map(|i| i.metrics.snapshot())
    }

    /// The Chrome-trace JSON of everything recorded so far — spans, flow
    /// edges and counter tracks; `None` when disabled. Load the result in
    /// `chrome://tracing` or Perfetto.
    pub fn chrome_trace_json(&self) -> Option<String> {
        self.inner.as_ref().map(|i| {
            chrome::chrome_trace(&i.spans.lock(), &i.flows.lock(), &i.counter_samples.lock())
                .to_json()
        })
    }

    /// The human-readable summary table; `None` when disabled.
    pub fn summary(&self) -> Option<String> {
        self.inner
            .as_ref()
            .map(|i| report::summary_table(&i.spans.lock(), &i.metrics.snapshot()))
    }
}

struct GuardState {
    inner: Arc<Inner>,
    id: u64,
    parent: u64,
    name: String,
    kind: SpanKind,
    start_ns: u64,
    extras: Vec<(String, String)>,
}

/// Closes its span when dropped. Inert (and allocation-free) when the
/// profiler is disabled.
pub struct SpanGuard {
    state: Option<GuardState>,
}

impl SpanGuard {
    /// The span's id; 0 when profiling is disabled.
    pub fn id(&self) -> u64 {
        self.state.as_ref().map_or(0, |s| s.id)
    }

    /// Attaches a key/value annotation to the span, recorded when the
    /// guard drops and exported as a Chrome-trace arg. Allocation-free
    /// no-op when the profiler is disabled.
    pub fn attach(&mut self, key: impl Into<String>, value: impl Into<String>) {
        if let Some(s) = &mut self.state {
            s.extras.push((key.into(), value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(s) = self.state.take() else { return };
        let end_ns = Profiler::host_now_ns(&s.inner);
        s.inner.current_parent.store(s.parent, Ordering::Relaxed);
        s.inner.spans.lock().push(SpanRecord {
            id: s.id,
            parent: s.parent,
            name: s.name,
            kind: s.kind,
            lane: Lane::Host,
            queued_ns: None,
            start_ns: s.start_ns,
            end_ns,
            bytes: None,
            nd_range: None,
            counters: None,
            extras: s.extras,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgpu::DeviceId;

    fn kernel_event(device: usize, start: u64, end: u64) -> Event {
        Event::new(
            DeviceId(device),
            CommandKind::Kernel { name: "k".into() },
            start,
            start,
            end,
            None,
        )
    }

    #[test]
    fn disabled_profiler_is_inert() {
        let p = Profiler::disabled();
        assert!(!p.is_enabled());
        {
            let g = p.host_span(SpanKind::Skeleton, "Map.call");
            assert_eq!(g.id(), 0);
            p.record_event(&kernel_event(0, 0, 100));
            p.add(metrics::SKELETON_CALLS, 1);
            p.record_value(metrics::HIST_KERNEL_NS, 5);
        }
        assert!(p.spans().is_empty());
        assert!(p.metrics_snapshot().is_none());
        assert!(p.chrome_trace_json().is_none());
        assert!(p.summary().is_none());
        assert_eq!(p.counter(metrics::SKELETON_CALLS), 0);
    }

    #[test]
    fn span_nesting_and_parenting() {
        let p = Profiler::enabled();
        let outer_id;
        {
            let outer = p.host_span(SpanKind::Skeleton, "Reduce.call");
            outer_id = outer.id();
            {
                let _inner = p.host_span(SpanKind::Compile, "codegen");
            }
            p.record_event(&kernel_event(1, 10, 60));
        }
        p.record_event(&kernel_event(0, 0, 5)); // outside any span
        let spans = p.spans();
        assert_eq!(spans.len(), 4);
        let compile = spans.iter().find(|s| s.kind == SpanKind::Compile).unwrap();
        assert_eq!(compile.parent, outer_id);
        let kernel_in = spans.iter().find(|s| s.lane == Lane::Device(1)).unwrap();
        assert_eq!(kernel_in.parent, outer_id);
        let kernel_out = spans.iter().find(|s| s.lane == Lane::Device(0)).unwrap();
        assert_eq!(kernel_out.parent, 0);
        let outer = spans.iter().find(|s| s.id == outer_id).unwrap();
        assert_eq!(outer.parent, 0);
        assert!(outer.end_ns >= outer.start_ns);
    }

    #[test]
    fn events_drive_metrics() {
        let p = Profiler::enabled();
        p.record_event(&Event::new(
            DeviceId(0),
            CommandKind::WriteBuffer { bytes: 1000 },
            0,
            0,
            40,
            None,
        ));
        p.record_event(&Event::new(
            DeviceId(1),
            CommandKind::ReadBuffer { bytes: 500 },
            0,
            0,
            20,
            None,
        ));
        p.record_event(&kernel_event(0, 40, 140));
        let m = p.metrics_snapshot().unwrap();
        assert_eq!(m.counters[metrics::BYTES_H2D], 1000);
        assert_eq!(m.counters[metrics::BYTES_D2H], 500);
        assert_eq!(m.devices[&0].kernel_ns, 100);
        assert_eq!(m.devices[&0].transfer_ns, 40);
        assert_eq!(m.devices[&1].transfer_ns, 20);
        assert_eq!(m.histograms[metrics::HIST_TRANSFER_BYTES].count, 2);
    }

    #[test]
    fn span_guard_attaches_extras() {
        let p = Profiler::enabled();
        {
            let mut g = p.host_span(SpanKind::Skeleton, "plan.lower");
            g.attach("plan.rules", "chain,reduce-weld");
            g.attach("plan.decision", "fused");
        }
        let spans = p.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(
            spans[0].extras,
            vec![
                ("plan.rules".to_string(), "chain,reduce-weld".to_string()),
                ("plan.decision".to_string(), "fused".to_string()),
            ]
        );
        // Disabled guards accept attachments without recording anything.
        let d = Profiler::disabled();
        let mut g = d.host_span(SpanKind::Skeleton, "plan.lower");
        g.attach("k", "v");
    }

    #[test]
    fn clones_share_state() {
        let p = Profiler::enabled();
        let q = p.clone();
        q.add(metrics::SKELETON_CALLS, 2);
        assert_eq!(p.counter(metrics::SKELETON_CALLS), 2);
    }
}
