//! The harness's own tracing: spans around every call into a layer's
//! public functions, and a queue observer stamping host instants on each
//! command's `Enqueued` / `Started` / `Finished` notices.
//!
//! Nothing here touches the library's profiler. Spans and commands share
//! one epoch, stay in memory during the run and are written out at exit.

use std::cell::{Cell, RefCell};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use skelcl_profile::json::Json;
use vgpu::{CommandClass, QueueNotice, QueueObserver, QueuePhase};

use crate::stats::Interval;

/// Span names. One name per kind of call, so sums by name are the
/// per-layer times.
pub mod name {
    pub const ITERATION: &str = "iteration";
    pub const CTX_INIT: &str = "skelcl.ctx_init";
    pub const CTX_DROP: &str = "skelcl.ctx_drop";
    pub const SKELETON_NEW: &str = "skelcl.skeleton_new";
    pub const CONTAINER_CREATE: &str = "skelcl.container_create";
    pub const CONTAINER_DROP: &str = "skelcl.container_drop";
    pub const CALL: &str = "skelcl.call";
    pub const READBACK: &str = "skelcl.readback";
    pub const REDISTRIBUTE: &str = "skelcl.redistribute";
    pub const LAZY_BUILD: &str = "plan.lazy_build";
}

/// One recorded span. `parent` indexes the tracer's span list.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub iteration: u32,
}

impl Span {
    pub fn interval(&self) -> Interval {
        (self.start_ns, self.end_ns)
    }

    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder of the single driver thread. Disabled, [`Tracer::span`]
/// only calls its closure.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    iteration: Cell<u32>,
}

impl Tracer {
    pub fn disabled() -> Self {
        Tracer::new(false, Instant::now())
    }

    pub fn enabled(epoch: Instant) -> Self {
        Tracer::new(true, epoch)
    }

    fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: RefCell::default(),
            open: RefCell::default(),
            iteration: Cell::new(0),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Spans recorded from now on carry this iteration id.
    pub fn set_iteration(&self, iteration: u32) {
        self.iteration.set(iteration);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, child of the innermost open
    /// span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
                iteration: self.iteration.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let result = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.now_ns();
        result
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// One queue command as the observer saw it, in host nanoseconds since
/// the epoch. `started_ns` is `None` for a command that failed on its
/// wait-list or never reached the worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Command {
    pub device: usize,
    pub class: CommandClass,
    pub bytes: usize,
    pub enqueued_ns: u64,
    pub started_ns: Option<u64>,
    pub finished_ns: u64,
    pub failed: bool,
}

impl Command {
    /// The interval the command executed for (empty if it never started).
    pub fn exec(&self) -> Interval {
        (
            self.started_ns.unwrap_or(self.finished_ns),
            self.finished_ns,
        )
    }

    /// How long the command sat in the queue before the worker took it.
    pub fn queue_wait_ns(&self) -> Option<u64> {
        self.started_ns.map(|s| s - self.enqueued_ns)
    }
}

#[derive(Debug, Clone, Copy)]
struct Stamp {
    notice: QueueNotice,
    at_ns: u64,
}

/// Collects queue notices from every queue it observes. The notices carry
/// no command id; queues are in-order, so per device the n-th `Started`
/// and the n-th `Finished` belong to the n-th `Enqueued`.
#[derive(Debug, Clone)]
pub struct QueueRecorder {
    epoch: Instant,
    stamps: Arc<Mutex<Vec<Stamp>>>,
}

impl QueueRecorder {
    pub fn new(epoch: Instant) -> Self {
        QueueRecorder {
            epoch,
            stamps: Arc::default(),
        }
    }

    /// An observer for `CommandQueue::set_observer`.
    pub fn observer(&self) -> QueueObserver {
        let recorder = self.clone();
        Arc::new(move |notice: &QueueNotice| recorder.record(notice))
    }

    fn record(&self, notice: &QueueNotice) {
        let at_ns = self.epoch.elapsed().as_nanos() as u64;
        self.stamps
            .lock()
            .expect("no observer panics while recording")
            .push(Stamp {
                notice: *notice,
                at_ns,
            });
    }

    /// Pairs the notices recorded so far into commands, ordered by
    /// enqueue time, and forgets them.
    pub fn take_commands(&self) -> Vec<Command> {
        let stamps = std::mem::take(
            &mut *self
                .stamps
                .lock()
                .expect("no observer panics while recording"),
        );
        pair(&stamps)
    }
}

fn pair(stamps: &[Stamp]) -> Vec<Command> {
    let devices = stamps
        .iter()
        .map(|s| s.notice.device + 1)
        .max()
        .unwrap_or(0);
    let mut commands = Vec::new();
    for device in 0..devices {
        // Indices into `commands` of this device's commands, in queue
        // order; `next_*` walk them as the worker's notices arrive.
        let mut queue: Vec<usize> = Vec::new();
        let (mut next_start, mut next_finish) = (0usize, 0usize);
        for stamp in stamps.iter().filter(|s| s.notice.device == device) {
            match stamp.notice.phase {
                QueuePhase::Enqueued => {
                    queue.push(commands.len());
                    commands.push(Command {
                        device,
                        class: stamp.notice.class,
                        bytes: stamp.notice.bytes,
                        enqueued_ns: stamp.at_ns,
                        started_ns: None,
                        finished_ns: stamp.at_ns,
                        failed: true, // until its Finished notice says otherwise
                    });
                }
                QueuePhase::Started => {
                    // A command that fails on its wait-list finishes
                    // without starting: skip the ones already finished.
                    next_start = next_start.max(next_finish);
                    if let Some(&c) = queue.get(next_start) {
                        commands[c].started_ns = Some(stamp.at_ns);
                    }
                    next_start += 1;
                }
                QueuePhase::Finished => {
                    if let Some(&c) = queue.get(next_finish) {
                        commands[c].finished_ns = stamp.at_ns;
                        commands[c].failed = stamp.notice.failed;
                    }
                    next_finish += 1;
                }
            }
        }
    }
    commands.sort_by_key(|c| c.enqueued_ns);
    commands
}

/// The trace as JSON: spans and commands of the first `iterations`
/// iterations (a full run's trace would be tens of megabytes).
pub fn to_json(spans: &[Span], commands: &[Command], iterations: u32) -> Json {
    let kept: Vec<&Span> = spans.iter().filter(|s| s.iteration < iterations).collect();
    let until = kept.iter().map(|s| s.end_ns).max().unwrap_or(0);
    let num = |v: u64| Json::Num(v as f64);
    Json::obj([
        (
            "spans",
            Json::Arr(
                kept.iter()
                    .map(|s| {
                        Json::obj([
                            ("name", Json::from(s.name)),
                            ("start_ns", num(s.start_ns)),
                            ("end_ns", num(s.end_ns)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("iteration", num(s.iteration as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "commands",
            Json::Arr(
                commands
                    .iter()
                    .filter(|c| c.enqueued_ns <= until)
                    .map(|c| {
                        Json::obj([
                            ("device", num(c.device as u64)),
                            ("class", Json::from(c.class.label())),
                            ("bytes", num(c.bytes as u64)),
                            ("enqueued_ns", num(c.enqueued_ns)),
                            ("started_ns", c.started_ns.map_or(Json::Null, num)),
                            ("finished_ns", num(c.finished_ns)),
                            ("failed", Json::Bool(c.failed)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let t = Tracer::enabled(Instant::now());
        t.set_iteration(3);
        let value = t.span(name::ITERATION, || {
            t.span(name::CALL, || 1) + t.span(name::READBACK, || 2)
        });
        assert_eq!(value, 3);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans
            .iter()
            .all(|s| s.iteration == 3 && s.end_ns >= s.start_ns));
        assert!(spans[1].end_ns <= spans[2].start_ns && spans[2].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert_eq!(t.span(name::CALL, || 5), 5);
        assert!(t.spans().is_empty());
    }

    fn stamp(device: usize, phase: QueuePhase, class: CommandClass, at_ns: u64) -> Stamp {
        Stamp {
            notice: QueueNotice {
                device,
                phase,
                class,
                bytes: at_ns as usize,
                depth: 0,
                t_ns: 0,
                failed: false,
                device_lost: false,
            },
            at_ns,
        }
    }

    #[test]
    fn notices_of_two_interleaved_queues_pair_per_device_in_order() {
        use CommandClass::{Kernel, Read, Write};
        use QueuePhase::{Enqueued, Finished, Started};
        // Device 0: write then kernel; device 1: read — all enqueued
        // before either worker starts, notices interleaved.
        let stamps = [
            stamp(0, Enqueued, Write, 10),
            stamp(1, Enqueued, Read, 11),
            stamp(0, Enqueued, Kernel, 12),
            stamp(1, Started, Read, 13),
            stamp(0, Started, Write, 14),
            stamp(0, Finished, Write, 20),
            stamp(0, Started, Kernel, 21),
            stamp(1, Finished, Read, 25),
            stamp(0, Finished, Kernel, 40),
        ];
        let commands = pair(&stamps);
        let view: Vec<_> = commands
            .iter()
            .map(|c| {
                (
                    c.device,
                    c.class,
                    c.enqueued_ns,
                    c.started_ns,
                    c.finished_ns,
                )
            })
            .collect();
        assert_eq!(
            view,
            vec![
                (0, Write, 10, Some(14), 20),
                (1, Read, 11, Some(13), 25),
                (0, Kernel, 12, Some(21), 40),
            ]
        );
        assert!(commands.iter().all(|c| !c.failed));
        assert_eq!(commands[2].queue_wait_ns(), Some(9));
        assert_eq!(commands[2].exec(), (21, 40));
    }

    #[test]
    fn a_command_that_fails_on_its_wait_list_has_no_start() {
        use CommandClass::Kernel;
        use QueuePhase::{Enqueued, Finished, Started};
        let mut failed = stamp(0, Finished, Kernel, 15);
        failed.notice.failed = true;
        let stamps = [
            stamp(0, Enqueued, Kernel, 10),
            stamp(0, Enqueued, Kernel, 11),
            failed,
            stamp(0, Started, Kernel, 16),
            stamp(0, Finished, Kernel, 30),
        ];
        let commands = pair(&stamps);
        assert_eq!(commands[0].started_ns, None);
        assert!(commands[0].failed);
        assert_eq!(commands[0].exec(), (15, 15));
        assert_eq!(commands[1].started_ns, Some(16));
        assert!(!commands[1].failed);
    }

    #[test]
    fn a_live_queue_reports_every_command_once() {
        let recorder = QueueRecorder::new(Instant::now());
        let platform = vgpu::Platform::new(2, vgpu::DeviceSpec::test_tiny());
        let queues = [platform.queue(0), platform.queue(1)];
        for q in &queues {
            assert!(q.set_observer(recorder.observer()));
        }
        for q in &queues {
            let buffer = q.create_buffer(64).unwrap();
            q.enqueue_write(&buffer, 0, &[7u8; 64]).unwrap();
            let mut back = [0u8; 64];
            q.enqueue_read(&buffer, 0, &mut back).unwrap();
        }
        let commands = recorder.take_commands();
        assert_eq!(commands.len(), 4);
        for c in &commands {
            assert!(!c.failed && c.bytes == 64);
            assert!(
                c.enqueued_ns <= c.started_ns.unwrap() && c.started_ns.unwrap() <= c.finished_ns
            );
        }
        assert_eq!(commands.iter().filter(|c| c.device == 1).count(), 2);
        assert!(recorder.take_commands().is_empty());
    }
}
