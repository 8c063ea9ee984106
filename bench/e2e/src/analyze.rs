//! Turns the traced pass's spans and queue commands into per-layer
//! numbers. Commands belong to the iteration during which they were
//! enqueued; everything is averaged per iteration.

use vgpu::CommandClass;

use crate::stats::{percentile, ratio, self_time, time_with_at_least, total, union, Interval};
use crate::trace::{name, Command, Span};

/// Per-iteration means over the traced iterations, host time in
/// nanoseconds unless named otherwise.
#[derive(Debug, Default, PartialEq)]
pub struct TraceSummary {
    pub iterations: u32,
    /// Σ iteration-span wall time (not a mean).
    pub wall_ns: u64,
    /// |iteration wall − Σ its direct child spans| summed, over `wall_ns`.
    pub residual_share: f64,
    pub container_create_ns: f64,
    pub call_ns: f64,
    pub readback_ns: f64,
    pub redistribute_ns: f64,
    pub lazy_build_ns: f64,
    /// Call spans minus the command execution they overlap: host code of
    /// the skeleton, engine and plan layers.
    pub call_self_ns: f64,
    pub call_self_share: f64,
    pub kernel_launches: f64,
    pub writes: f64,
    pub reads: f64,
    pub copies: f64,
    pub bytes_h2d: f64,
    pub bytes_d2h: f64,
    pub bytes_d2d: f64,
    pub failed_commands: f64,
    pub kernel_exec_ns: f64,
    pub write_exec_ns: f64,
    pub read_exec_ns: f64,
    pub copy_exec_ns: f64,
    pub queue_wait_ns_p50: f64,
    /// Time at least one kernel executed, summed over iterations.
    pub kernel_busy_ns: u64,
    /// Union of all command execution over iteration wall time.
    pub busy_share: f64,
    /// Time ≥ 2 devices executed over time ≥ 1 did.
    pub device_overlap_share: f64,
}

/// Mean duration in nanoseconds of the spans called `name`, wherever in
/// the trace they are (set-up included).
pub fn mean_span_ns(spans: &[Span], name: &str) -> f64 {
    let durations: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect();
    ratio(durations.iter().sum::<u64>() as f64, durations.len() as f64)
}

/// `commands` must be ordered by enqueue time, as
/// `QueueRecorder::take_commands` returns them.
pub fn summarize(spans: &[Span], commands: &[Command]) -> TraceSummary {
    // Sums first; the fields become per-iteration means at the end.
    let mut s = TraceSummary::default();
    let mut residual = 0u64;
    let mut busy = 0u64;
    let (mut any_device, mut two_devices) = (0u64, 0u64);
    let mut waits: Vec<f64> = Vec::new();
    let devices = commands.iter().map(|c| c.device + 1).max().unwrap_or(0);

    for (index, iteration) in spans.iter().enumerate() {
        if iteration.name != name::ITERATION {
            continue;
        }
        s.iterations += 1;
        let window = iteration.interval();
        s.wall_ns += iteration.duration_ns();

        let first = commands.partition_point(|c| c.enqueued_ns < window.0);
        let mine = &commands[first..];
        let mine = &mine[..mine.partition_point(|c| c.enqueued_ns < window.1)];
        let clip = |(a, b): Interval| (a.clamp(window.0, window.1), b.clamp(window.0, window.1));
        let exec_of = |keep: &dyn Fn(&Command) -> bool| -> Vec<Interval> {
            union(
                mine.iter()
                    .filter(|c| keep(c))
                    .map(|c| clip(c.exec()))
                    .collect(),
            )
        };
        let lanes: Vec<Vec<Interval>> = (0..devices).map(|d| exec_of(&|c| c.device == d)).collect();
        let all = exec_of(&|_| true);
        busy += total(&all);
        any_device += time_with_at_least(&lanes, 1);
        two_devices += time_with_at_least(&lanes, 2);
        s.kernel_busy_ns += total(&exec_of(&|c| c.class == CommandClass::Kernel));

        let mut child_sum = 0u64;
        for child in spans.iter().filter(|c| c.parent == Some(index)) {
            child_sum += child.duration_ns();
            let by_name = match child.name {
                name::CONTAINER_CREATE => &mut s.container_create_ns,
                name::CALL => &mut s.call_ns,
                name::READBACK => &mut s.readback_ns,
                name::REDISTRIBUTE => &mut s.redistribute_ns,
                name::LAZY_BUILD => &mut s.lazy_build_ns,
                _ => continue,
            };
            *by_name += child.duration_ns() as f64;
            if child.name == name::CALL {
                s.call_self_ns += self_time(child.interval(), &all) as f64;
            }
        }
        residual += iteration.duration_ns().abs_diff(child_sum);

        for c in mine {
            let (count, bytes, exec_ns) = match c.class {
                CommandClass::Kernel => (&mut s.kernel_launches, None, &mut s.kernel_exec_ns),
                CommandClass::Write => {
                    (&mut s.writes, Some(&mut s.bytes_h2d), &mut s.write_exec_ns)
                }
                CommandClass::Read => (&mut s.reads, Some(&mut s.bytes_d2h), &mut s.read_exec_ns),
                CommandClass::Copy => (&mut s.copies, Some(&mut s.bytes_d2d), &mut s.copy_exec_ns),
                CommandClass::Marker => continue,
            };
            *count += 1.0;
            if let Some(b) = bytes {
                *b += c.bytes as f64;
            }
            let (start, end) = c.exec();
            *exec_ns += (end - start) as f64;
            s.failed_commands += f64::from(u8::from(c.failed));
            waits.extend(c.queue_wait_ns().map(|w| w as f64));
        }
    }

    let wall = s.wall_ns as f64;
    s.call_self_share = ratio(s.call_self_ns, wall);
    s.residual_share = ratio(residual as f64, wall);
    s.busy_share = ratio(busy as f64, wall);
    s.device_overlap_share = ratio(two_devices as f64, any_device as f64);
    s.queue_wait_ns_p50 = percentile(&waits, 50.0);
    let n = f64::from(s.iterations);
    for sum in [
        &mut s.container_create_ns,
        &mut s.call_ns,
        &mut s.readback_ns,
        &mut s.redistribute_ns,
        &mut s.lazy_build_ns,
        &mut s.call_self_ns,
        &mut s.kernel_launches,
        &mut s.writes,
        &mut s.reads,
        &mut s.copies,
        &mut s.bytes_h2d,
        &mut s.bytes_d2h,
        &mut s.bytes_d2d,
        &mut s.failed_commands,
        &mut s.kernel_exec_ns,
        &mut s.write_exec_ns,
        &mut s.read_exec_ns,
        &mut s.copy_exec_ns,
    ] {
        *sum = ratio(*sum, n);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            iteration: 0,
        }
    }

    fn command(
        device: usize,
        class: CommandClass,
        bytes: usize,
        times: (u64, u64, u64),
    ) -> Command {
        Command {
            device,
            class,
            bytes,
            enqueued_ns: times.0,
            started_ns: Some(times.1),
            finished_ns: times.2,
            failed: false,
        }
    }

    #[test]
    fn one_iteration_is_attributed_to_spans_and_commands() {
        use CommandClass::{Kernel, Read, Write};
        // Set-up span, then one 1000 ns iteration: create 100, call 700,
        // readback 150 → 50 ns unattributed.
        let spans = vec![
            span(name::SKELETON_NEW, 0, 400, None),
            span(name::ITERATION, 1000, 2000, None),
            span(name::CONTAINER_CREATE, 1000, 1100, Some(1)),
            span(name::CALL, 1100, 1800, Some(1)),
            span(name::READBACK, 1820, 1970, Some(1)),
        ];
        let commands = vec![
            // Enqueued during set-up: belongs to no iteration.
            command(0, Write, 999, (10, 20, 30)),
            command(0, Write, 64, (1110, 1120, 1200)),
            command(1, Write, 64, (1115, 1150, 1250)),
            command(0, Kernel, 0, (1130, 1200, 1600)),
            command(1, Kernel, 0, (1140, 1250, 1700)),
            command(0, Read, 32, (1830, 1840, 1940)),
        ];
        let s = summarize(&spans, &commands);
        assert_eq!(s.iterations, 1);
        assert_eq!(s.wall_ns, 1000);
        assert_eq!(s.residual_share, 0.05);
        assert_eq!(
            (s.container_create_ns, s.call_ns, s.readback_ns),
            (100.0, 700.0, 150.0)
        );
        assert_eq!(
            (s.kernel_launches, s.writes, s.reads, s.copies),
            (2.0, 2.0, 1.0, 0.0)
        );
        assert_eq!((s.bytes_h2d, s.bytes_d2h, s.bytes_d2d), (128.0, 32.0, 0.0));
        assert_eq!(s.kernel_exec_ns, 400.0 + 450.0);
        assert_eq!(s.write_exec_ns, 80.0 + 100.0);
        // Busy: device 0 on 1120..1600, device 1 on 1150..1700 → union
        // 1120..1700, plus the read 1840..1940.
        assert_eq!(s.busy_share, (580.0 + 100.0) / 1000.0);
        assert_eq!(s.kernel_busy_ns, 500);
        // Both devices on 1150..1600 of the 680 ns anything ran.
        assert_eq!(s.device_overlap_share, 450.0 / 680.0);
        // The call span 1100..1800 is covered on 1120..1700.
        assert_eq!(s.call_self_ns, 120.0);
        assert_eq!(s.call_self_share, 0.12);
        // Waits: 10, 35, 70, 110, 10 → median 35.
        assert_eq!(s.queue_wait_ns_p50, 35.0);
        assert_eq!(mean_span_ns(&spans, name::SKELETON_NEW), 400.0);
        assert_eq!(mean_span_ns(&spans, name::CTX_INIT), 0.0);
    }

    #[test]
    fn counts_are_means_over_iterations() {
        let spans = vec![
            span(name::ITERATION, 0, 100, None),
            span(name::ITERATION, 100, 200, None),
        ];
        let mut failed = command(0, CommandClass::Copy, 8, (150, 160, 170));
        failed.failed = true;
        let commands = vec![
            command(0, CommandClass::Copy, 8, (10, 20, 30)),
            failed,
            command(0, CommandClass::Marker, 0, (180, 181, 182)),
        ];
        let s = summarize(&spans, &commands);
        assert_eq!(s.iterations, 2);
        assert_eq!((s.copies, s.bytes_d2d, s.failed_commands), (1.0, 8.0, 0.5));
        assert_eq!(s.residual_share, 1.0);
        assert_eq!(summarize(&[], &[]), TraceSummary::default());
    }
}
