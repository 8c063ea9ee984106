//! Running a workload: repeated set-up, the timed closed loop with its
//! checks, and — in a traced run — the extra passes that produce the
//! per-layer numbers.
//!
//! Closed loop, one client: iteration *i + 1* starts when iteration *i*'s
//! result is on the host and checked. Only the iteration itself is timed;
//! the check runs between iterations.

use std::time::{Duration, Instant};

use skelcl::profile::metrics as counter;
use skelcl::Profiler;
use skelcl_kernel::vm::CostCounters;
use vgpu::ExecStats;

use crate::analyze::{mean_span_ns, summarize};
use crate::layers::{kernel_stages, queue_micro, vm_single_thread_mops};
use crate::metrics::{MetricSet, END_TO_END, PER_LAYER};
use crate::raw::{baseline, Baseline};
use crate::stats::{median, percentile, ratio};
use crate::sysinfo;
use crate::trace::{name, Command, QueueRecorder, Span, Tracer};
use crate::workloads::{env_of, setup, Env, IterOut, Workload};

/// Untimed iterations that end every set-up: pools started, caches warm.
pub const WARMUP_ITERATIONS: usize = 5;
/// Set-ups per untraced run, at least; `setup_s` is their median.
pub const SETUP_REPETITIONS: usize = 5;
/// A cheap set-up is repeated until this much time went into set-ups, so
/// that a set-up of milliseconds is not judged by five samples.
pub const SETUP_SECONDS: f64 = 1.5;
/// … but never more often than this.
pub const MAX_SETUP_REPETITIONS: usize = 50;
/// A timed loop never stops before this many iterations.
pub const MIN_ITERATIONS: usize = 10;
/// Iterations per timed loop of a `quick` run.
pub const QUICK_ITERATIONS: usize = 5;
/// Iterations whose spans and commands the trace file keeps.
pub const TRACE_FILE_ITERATIONS: u32 = 20;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The smoke test: one set-up, one warm-up iteration,
    /// [`QUICK_ITERATIONS`] per timed loop whatever the clock says, fewer
    /// compile repetitions.
    pub quick: bool,
}

impl RunConfig {
    fn max_iterations(&self) -> Option<usize> {
        self.quick.then_some(QUICK_ITERATIONS)
    }

    fn warmup_iterations(&self) -> usize {
        if self.quick {
            1
        } else {
            WARMUP_ITERATIONS
        }
    }
}

/// What a run reports.
#[derive(Debug)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Timed iterations of the main pass.
    pub iterations: usize,
    pub metrics: MetricSet,
    pub spans: Vec<Span>,
    pub commands: Vec<Command>,
    /// Why iterations or checks failed, for the log.
    pub problems: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

fn clear_environment() {
    for (key, _) in sysinfo::skelcl_env() {
        std::env::remove_var(key);
    }
}

/// Removes every `SKELCL_*` variable, then sets what `workload` names.
fn reset_environment(workload: &str) {
    clear_environment();
    for (key, value) in env_of(workload) {
        std::env::set_var(key, value);
    }
}

/// Checks every result: against the host reference, and bit for bit
/// against the first result seen.
struct Checker {
    first: Option<Vec<u8>>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checker {
    fn new() -> Self {
        Checker {
            first: None,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Results from here on come from another configuration (device
    /// count, budget): floats may round differently, so the bitwise check
    /// starts over. The reference check stays as it is.
    fn configuration_changed(&mut self) {
        self.first = None;
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 10 {
            self.problems.push(problem);
        }
    }

    fn check_iteration(&mut self, what: &str, w: &dyn Workload, out: &skelcl::Result<IterOut>) {
        let bytes = out.as_ref().map(|o| &o.bytes[..]);
        self.check(what, |b| w.verify(b), bytes.map_err(|e| e.to_string()));
    }

    fn check(&mut self, what: &str, verify: impl Fn(&[u8]) -> bool, bytes: Result<&[u8], String>) {
        self.attempted += 1;
        match bytes {
            Err(e) => self.fail(format!("{what}: {e}")),
            Ok(bytes) if !verify(bytes) => {
                self.fail(format!("{what}: result differs from the host reference"))
            }
            Ok(bytes) => match &self.first {
                None => self.first = Some(bytes.to_vec()),
                Some(first) if first != bytes => {
                    self.fail(format!("{what}: result differs bitwise from iteration 0"))
                }
                Some(_) => {}
            },
        }
    }
}

/// The timed iterations of one pass.
#[derive(Debug, Default)]
struct Pass {
    iter_ms: Vec<f64>,
    sim_total_ns: Vec<f64>,
    sim_kernel_ns: Vec<f64>,
    dev_peak_bytes: usize,
    vm: CostCounters,
    calls: u64,
    exec: ExecStats,
    cpu_seconds: f64,
}

impl Pass {
    fn p50(&self) -> f64 {
        percentile(&self.iter_ms, 50.0)
    }

    fn per_iter(&self, total: u64) -> f64 {
        ratio(total as f64, self.iter_ms.len() as f64)
    }
}

/// A timed loop ends after `max` iterations, or once `budget` has passed
/// and at least [`MIN_ITERATIONS`] ran.
fn loop_is_over(done: usize, started: Instant, budget: Duration, max: Option<usize>) -> bool {
    max.is_some_and(|m| done >= m) || (done >= MIN_ITERATIONS && started.elapsed() >= budget)
}

/// Runs `w` in a closed loop until `budget` has passed (and at least
/// [`MIN_ITERATIONS`] ran), or `max` iterations ran. `after_each` sees the
/// index of every finished iteration.
fn timed_loop(
    w: &mut dyn Workload,
    t: &Tracer,
    checker: &mut Checker,
    budget: Duration,
    max: Option<usize>,
    mut after_each: impl FnMut(usize),
) -> Pass {
    let mut pass = Pass::default();
    let cpu_before = sysinfo::process_cpu_seconds();
    let started = Instant::now();
    for i in 0.. {
        t.set_iteration(i as u32);
        let begin = Instant::now();
        let out = t.span(name::ITERATION, || w.iterate(t));
        pass.iter_ms.push(begin.elapsed().as_secs_f64() * 1e3);
        if let Ok(out) = &out {
            pass.sim_total_ns.push(out.sim_total_ns as f64);
            pass.sim_kernel_ns.push(out.sim_kernel_ns as f64);
            pass.dev_peak_bytes = pass.dev_peak_bytes.max(out.dev_peak_bytes);
            pass.vm.merge(&out.vm);
            pass.calls += u64::from(out.calls);
            pass.exec = out.exec;
        }
        checker.check_iteration(&format!("iteration {i}"), w, &out);
        after_each(i);
        if loop_is_over(i + 1, started, budget, max) {
            break;
        }
    }
    pass.cpu_seconds = sysinfo::process_cpu_seconds() - cpu_before;
    pass
}

/// Set-up as the user pays it: inputs and references from the seed,
/// `Context::init`, skeleton construction, warm-up iterations (checked).
fn set_up(
    cfg: &RunConfig,
    env: &Env,
    t: &Tracer,
    checker: &mut Checker,
) -> Result<Box<dyn Workload>, String> {
    let mut w = setup(&cfg.workload, cfg.seed, env, t).map_err(|e| format!("set-up: {e}"))?;
    let untraced = Tracer::disabled();
    for i in 0..cfg.warmup_iterations() {
        let out = w.iterate(&untraced);
        checker.check_iteration(&format!("warm-up {i}"), w.as_ref(), &out);
    }
    Ok(w)
}

fn seconds(cfg: &RunConfig, share: f64) -> Duration {
    Duration::from_secs_f64(cfg.seconds * share)
}

pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    reset_environment(&cfg.workload);
    if cfg.trace {
        run_traced(cfg)
    } else {
        run_untraced(cfg)
    }
}

/// The end-to-end run: tracing off, profiler off, nothing observing.
fn run_untraced(cfg: &RunConfig) -> Result<RunResult, String> {
    let t = Tracer::disabled();
    let mut checker = Checker::new();
    let mut setups = Vec::new();
    let setting_up = Instant::now();
    let mut w = loop {
        let begin = Instant::now();
        let w = set_up(cfg, &Env::plain(), &t, &mut checker)?;
        setups.push(begin.elapsed().as_secs_f64());
        let often_enough = setups.len() >= SETUP_REPETITIONS
            && setting_up.elapsed().as_secs_f64() >= SETUP_SECONDS;
        if cfg.quick || often_enough || setups.len() >= MAX_SETUP_REPETITIONS {
            break w;
        }
        // `w` drops here: its context's threads end before the next set-up.
    };
    let pass = timed_loop(
        w.as_mut(),
        &t,
        &mut checker,
        seconds(cfg, 1.0),
        cfg.max_iterations(),
        |_| {},
    );

    let n = pass.iter_ms.len();
    let wall_s = pass.iter_ms.iter().sum::<f64>() / 1e3;
    let mut m = MetricSet::default();
    m.set("iter_ms_p50", pass.p50());
    m.set(
        "items_per_s",
        ratio((w.items_per_iter() * n as u64) as f64, wall_s),
    );
    m.set("cpu_ms_per_iter", ratio(pass.cpu_seconds * 1e3, n as f64));
    m.set("setup_s", median(&setups));
    m.set("peak_rss_mb", sysinfo::peak_rss_mb());
    m.set("sim_total_ms", median(&pass.sim_total_ns) / 1e6);
    m.set("sim_kernel_ms", median(&pass.sim_kernel_ns) / 1e6);
    m.set("dev_peak_bytes", pass.dev_peak_bytes as f64);
    finish(checker, n, m, &END_TO_END, Vec::new(), Vec::new())
}

fn finish(
    mut checker: Checker,
    iterations: usize,
    metrics: MetricSet,
    defs: &[crate::metrics::MetricDef],
    spans: Vec<Span>,
    commands: Vec<Command>,
) -> Result<RunResult, String> {
    let mismatch = metrics.mismatch(defs);
    if !mismatch.is_empty() {
        return Err(format!(
            "metric registry out of step: {}",
            mismatch.join(", ")
        ));
    }
    Ok(RunResult {
        attempted: checker.attempted,
        failed: checker.failed,
        iterations,
        metrics,
        spans,
        commands,
        problems: std::mem::take(&mut checker.problems),
    })
}

/// Host milliseconds per iteration of a hand-written baseline, p50.
fn baseline_p50(
    raw: &mut dyn Baseline,
    checker: &mut Checker,
    warmup: usize,
    budget: Duration,
    max: Option<usize>,
) -> f64 {
    // The baseline's floats round differently from the workload's: it is
    // another configuration as far as the bitwise check goes.
    checker.configuration_changed();
    let mut iter_ms = Vec::new();
    let started = Instant::now();
    for i in 0.. {
        let begin = Instant::now();
        let out = raw.iterate();
        let elapsed = begin.elapsed().as_secs_f64() * 1e3;
        if i >= warmup {
            iter_ms.push(elapsed);
        }
        checker.check(
            &format!("raw baseline iteration {i}"),
            |b| raw.verify(b),
            out.as_deref().map_err(|e| e.to_string()),
        );
        if loop_is_over(iter_ms.len(), started, budget, max) {
            break;
        }
    }
    percentile(&iter_ms, 50.0)
}

/// The traced run. Five passes share `--seconds`: untraced (the base of
/// every overhead ratio), traced, profiler-enabled (reads the library's
/// counter registry), the hand-written baseline or — for
/// a workload under a device budget — the resident pipeline, and the layer measurements
/// that need no workload.
fn run_traced(cfg: &RunConfig) -> Result<RunResult, String> {
    let mut checker = Checker::new();
    let max = cfg.max_iterations();
    let off = Tracer::disabled();

    let untraced = {
        let mut w = set_up(cfg, &Env::plain(), &off, &mut checker)?;
        timed_loop(
            w.as_mut(),
            &off,
            &mut checker,
            seconds(cfg, 0.25),
            max,
            |_| {},
        )
    };

    let epoch = Instant::now();
    let t = Tracer::enabled(epoch);
    let recorder = QueueRecorder::new(epoch);
    let observed = Env {
        observer: Some(recorder.observer()),
        ..Env::plain()
    };
    let (traced, warm_skeleton_ns) = {
        let mut w = set_up(cfg, &observed, &t, &mut checker)?;
        recorder.take_commands(); // set-up and warm-up commands
        let pass = timed_loop(
            w.as_mut(),
            &t,
            &mut checker,
            seconds(cfg, 0.35),
            max,
            |_| {},
        );
        let warm = Tracer::enabled(epoch);
        w.rebuild_skeletons(&warm)
            .map_err(|e| format!("warm skeleton construction: {e}"))?;
        (pass, mean_span_ns(&warm.spans(), name::SKELETON_NEW))
    };
    let spans = t.spans();
    let commands = recorder.take_commands();
    let summary = summarize(&spans, &commands);

    const COUNTERS: [&str; 11] = [
        counter::COMPILE_CACHE_HIT,
        counter::COMPILE_CACHE_MISS,
        counter::TRANSFER_CACHE_HIT,
        counter::TRANSFER_FORCED,
        counter::REDISTRIBUTIONS,
        counter::PLAN_RULES_FIRED,
        counter::PLAN_NODES_FUSED,
        counter::PLAN_INTERMEDIATE_BYTES,
        counter::STREAM_REGIONS,
        counter::STREAM_CHUNKS,
        counter::STREAM_BYTES_STAGED,
    ];
    let profiler = Profiler::enabled();
    let read_counters = || COUNTERS.map(|c| profiler.counter(c));
    let (profiled, counted) = {
        let env = Env {
            profiler: profiler.clone(),
            ..Env::plain()
        };
        let mut w = set_up(cfg, &env, &off, &mut checker)?;
        let before = read_counters();
        let mut compiles = vec![(before[0], before[1])];
        let pass = timed_loop(
            w.as_mut(),
            &off,
            &mut checker,
            seconds(cfg, 0.15),
            max,
            |_| {
                compiles.push((
                    profiler.counter(counter::COMPILE_CACHE_HIT),
                    profiler.counter(counter::COMPILE_CACHE_MISS),
                ));
            },
        );
        let after = read_counters();
        if cfg.workload == "compile_cold" {
            check_every_compile_misses(&compiles, &mut checker);
        }
        let n = pass.iter_ms.len() as f64;
        let per_iter: Vec<f64> = after
            .iter()
            .zip(before)
            .map(|(a, b)| ratio((a - b) as f64, n))
            .collect();
        (pass, per_iter)
    };

    let budget = seconds(cfg, 0.15);
    let raw_p50 = baseline(&cfg.workload, cfg.seed).map_or(0.0, |mut raw| {
        baseline_p50(
            raw.as_mut(),
            &mut checker,
            cfg.warmup_iterations(),
            budget,
            max,
        )
    });
    let resident_p50 = if !env_of(&cfg.workload).is_empty() {
        // A workload that runs under a device budget: the same pipeline
        // with the variable unset runs resident.
        clear_environment();
        checker.configuration_changed();
        let p50 = {
            let mut w = set_up(cfg, &Env::plain(), &off, &mut checker)?;
            timed_loop(w.as_mut(), &off, &mut checker, budget, max, |_| {}).p50()
        };
        reset_environment(&cfg.workload);
        p50
    } else {
        0.0
    };

    let sim_total_on = |devices: usize, checker: &mut Checker| -> Result<f64, String> {
        let env = Env {
            devices,
            ..Env::plain()
        };
        checker.configuration_changed();
        let mut w = set_up(cfg, &env, &off, checker)?;
        let pass = timed_loop(w.as_mut(), &off, checker, Duration::ZERO, Some(1), |_| {});
        Ok(median(&pass.sim_total_ns))
    };
    let sim_speedup_4dev = ratio(
        sim_total_on(1, &mut checker)?,
        sim_total_on(4, &mut checker)?,
    );

    let stages = kernel_stages(if cfg.quick { 20 } else { 200 });
    let st_mops = vm_single_thread_mops(&cfg.workload);
    let micro = queue_micro();

    let n = traced.iter_ms.len();
    let ops_per_iter = traced.per_iter(traced.vm.ops);
    let kernel_mops = ratio(traced.vm.ops as f64, summary.kernel_busy_ns as f64 / 1e3);
    let chunks_per_iter = counted[9];
    let mut m = MetricSet::default();
    for (name, v) in [
        ("kernel.lex_us", stages.lex_us),
        ("kernel.parse_us", stages.parse_us),
        ("kernel.sema_us", stages.sema_us),
        ("kernel.inline_us", stages.inline_us),
        ("kernel.mir_lower_us", stages.mir_lower_us),
        ("kernel.passes_us", stages.passes_us),
        ("kernel.emit_us", stages.emit_us),
        ("kernel.compile_us", stages.compile_us),
        ("kernel.stage_residual_share", stages.stage_residual_share),
        ("kernel.source_bytes", stages.source_bytes as f64),
        ("kernel.tokens", stages.tokens as f64),
        ("kernel.mir_insts_in", stages.mir_insts_in as f64),
        ("kernel.mir_insts_out", stages.mir_insts_out as f64),
        ("kernel.static_ops", stages.static_ops as f64),
        ("kernel.static_dispatches", stages.static_dispatches as f64),
        ("vm.ops_per_iter", ops_per_iter),
        (
            "vm.global_bytes_per_iter",
            traced.per_iter(traced.vm.global_bytes),
        ),
        (
            "vm.local_accesses_per_iter",
            traced.per_iter(traced.vm.local_mem_ops()),
        ),
        ("vm.barriers_per_iter", traced.per_iter(traced.vm.barriers)),
        ("vm.st_mops_per_s", st_mops),
        ("vgpu.kernel_launches", summary.kernel_launches),
        ("vgpu.writes", summary.writes),
        ("vgpu.reads", summary.reads),
        ("vgpu.copies", summary.copies),
        ("vgpu.bytes_h2d", summary.bytes_h2d),
        ("vgpu.bytes_d2h", summary.bytes_d2h),
        ("vgpu.bytes_d2d", summary.bytes_d2d),
        ("vgpu.failed_commands", summary.failed_commands),
        ("vgpu.kernel_exec_ms", summary.kernel_exec_ns / 1e6),
        ("vgpu.write_exec_ms", summary.write_exec_ns / 1e6),
        ("vgpu.read_exec_ms", summary.read_exec_ns / 1e6),
        ("vgpu.copy_exec_ms", summary.copy_exec_ns / 1e6),
        ("vgpu.queue_wait_us_p50", summary.queue_wait_ns_p50 / 1e3),
        ("vgpu.kernel_mops_per_s", kernel_mops),
        (
            "vgpu.pool_efficiency",
            ratio(kernel_mops, traced.exec.pool_threads as f64 * st_mops),
        ),
        ("vgpu.busy_share", summary.busy_share),
        ("vgpu.device_overlap_share", summary.device_overlap_share),
        ("vgpu.launch_floor_us", micro.launch_floor_us),
        ("vgpu.h2d_gbps", micro.h2d_gbps),
        ("vgpu.d2h_gbps", micro.d2h_gbps),
        ("vgpu.host_threads_speedup", micro.host_threads_speedup),
        ("vgpu.pool_threads", traced.exec.pool_threads as f64),
        ("vgpu.steal_balance", traced.exec.steal_balance()),
        ("vgpu.sim_speedup_4dev", sim_speedup_4dev),
        (
            "skelcl.ctx_init_us",
            mean_span_ns(&spans, name::CTX_INIT) / 1e3,
        ),
        (
            "skelcl.skeleton_new_cold_us",
            mean_span_ns(&spans, name::SKELETON_NEW) / 1e3,
        ),
        ("skelcl.skeleton_new_warm_us", warm_skeleton_ns / 1e3),
        (
            "skelcl.container_create_ms",
            summary.container_create_ns / 1e6,
        ),
        ("skelcl.call_ms", summary.call_ns / 1e6),
        ("skelcl.readback_ms", summary.readback_ns / 1e6),
        ("skelcl.redistribute_us", summary.redistribute_ns / 1e3),
        ("skelcl.calls_per_iter", traced.per_iter(traced.calls)),
        ("skelcl.call_self_ms", summary.call_self_ns / 1e6),
        ("skelcl.call_self_share", summary.call_self_share),
        ("skelcl.raw_iter_ms_p50", raw_p50),
        (
            "skelcl.overhead_vs_raw_ratio",
            ratio(untraced.p50(), raw_p50),
        ),
        ("skelcl.compile_cache_hits", counted[0]),
        ("skelcl.compile_cache_misses", counted[1]),
        ("skelcl.transfer_cache_hits", counted[2]),
        ("skelcl.transfer_forced", counted[3]),
        ("skelcl.redistributions", counted[4]),
        ("plan.lazy_build_us", summary.lazy_build_ns / 1e3),
        ("plan.rules_fired", counted[5]),
        ("plan.nodes_fused", counted[6]),
        ("plan.intermediate_bytes", counted[7]),
        ("stream.regions", counted[8]),
        ("stream.chunks", chunks_per_iter),
        ("stream.bytes_staged", counted[10]),
        ("stream.resident_iter_ms_p50", resident_p50),
        (
            "stream.overhead_vs_resident_ratio",
            ratio(untraced.p50(), resident_p50),
        ),
        (
            "stream.ms_per_chunk",
            ratio(untraced.p50(), chunks_per_iter),
        ),
        (
            "profile.enabled_overhead_ratio",
            ratio(profiled.p50(), untraced.p50()),
        ),
        ("trace.overhead_ratio", ratio(traced.p50(), untraced.p50())),
        ("trace.residual_share", summary.residual_share),
        ("trace.iterations", n as f64),
        ("trace.untraced_iter_ms_p50", untraced.p50()),
        (
            "trace.untraced_iter_ms_p90",
            percentile(&untraced.iter_ms, 90.0),
        ),
    ] {
        m.set(name, v);
    }
    finish(checker, n, m, &PER_LAYER, spans, commands)
}

/// `compile_cold` must stay a miss benchmark: in every iteration no
/// compile may hit a cache, and the same non-zero number must miss.
fn check_every_compile_misses(cumulative: &[(u64, u64)], checker: &mut Checker) {
    let per_iteration: Vec<(u64, u64)> = cumulative
        .windows(2)
        .map(|w| (w[1].0 - w[0].0, w[1].1 - w[0].1))
        .collect();
    let expected = per_iteration.first().map_or(0, |&(_, misses)| misses);
    checker.attempted += 1;
    if expected == 0 || per_iteration.iter().any(|&d| d != (0, expected)) {
        checker.fail(format!(
            "compile_cold: every iteration must miss the compile cache the same non-zero \
             number of times and never hit it; saw (hits, misses) per iteration {:?}",
            &per_iteration[..per_iteration.len().min(8)]
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::IterOut;

    /// A workload whose reference is `expected`; it always produces
    /// `produced`.
    struct Fixed {
        expected: Vec<u8>,
        produced: Vec<u8>,
    }

    impl Workload for Fixed {
        fn iterate(&mut self, _: &Tracer) -> skelcl::Result<IterOut> {
            Ok(IterOut {
                bytes: self.produced.clone(),
                sim_total_ns: 1,
                sim_kernel_ns: 1,
                dev_peak_bytes: 1,
                vm: CostCounters::default(),
                calls: 1,
                exec: ExecStats::default(),
            })
        }

        fn verify(&self, bytes: &[u8]) -> bool {
            bytes == self.expected
        }

        fn items_per_iter(&self) -> u64 {
            1
        }

        fn rebuild_skeletons(&self, _: &Tracer) -> skelcl::Result<()> {
            Ok(())
        }
    }

    fn loop_over(w: &mut Fixed, iterations: usize) -> Checker {
        let mut checker = Checker::new();
        let t = Tracer::disabled();
        let pass = timed_loop(
            w,
            &t,
            &mut checker,
            Duration::ZERO,
            Some(iterations),
            |_| {},
        );
        assert_eq!(pass.iter_ms.len(), iterations);
        checker
    }

    #[test]
    fn a_flipped_expected_byte_fails_every_iteration() {
        let mut good = Fixed {
            expected: vec![1, 2, 3],
            produced: vec![1, 2, 3],
        };
        let checker = loop_over(&mut good, 4);
        assert_eq!((checker.attempted, checker.failed), (4, 0));

        let mut flipped = Fixed {
            expected: vec![1, 2, 2],
            produced: vec![1, 2, 3],
        };
        let checker = loop_over(&mut flipped, 4);
        assert_eq!((checker.attempted, checker.failed), (4, 4));
        assert!(checker.problems[0].contains("host reference"));
    }

    #[test]
    fn a_result_that_changes_between_iterations_fails() {
        let mut checker = Checker::new();
        let always = |_: &[u8]| true;
        checker.check("a", always, Ok(&[1, 2]));
        checker.check("b", always, Ok(&[1, 2]));
        checker.check("c", always, Ok(&[1, 3]));
        checker.check("d", always, Err("device lost".into()));
        assert_eq!((checker.attempted, checker.failed), (4, 2));
        assert!(checker.problems[0].contains("bitwise"));
        assert!(checker.problems[1].contains("device lost"));
    }

    #[test]
    fn the_loop_runs_at_least_the_minimum_when_time_is_short() {
        let mut w = Fixed {
            expected: vec![0],
            produced: vec![0],
        };
        let mut checker = Checker::new();
        let t = Tracer::disabled();
        let mut seen = Vec::new();
        let pass = timed_loop(&mut w, &t, &mut checker, Duration::ZERO, None, |i| {
            seen.push(i)
        });
        assert_eq!(pass.iter_ms.len(), MIN_ITERATIONS);
        assert_eq!(seen, (0..MIN_ITERATIONS).collect::<Vec<_>>());
    }

    #[test]
    fn compile_cold_rejects_hits_and_uneven_misses() {
        let verdict = |cumulative: &[(u64, u64)]| {
            let mut checker = Checker::new();
            check_every_compile_misses(cumulative, &mut checker);
            checker.failed
        };
        assert_eq!(verdict(&[(0, 7), (0, 14), (0, 21)]), 0);
        assert_eq!(verdict(&[(0, 7), (1, 13), (1, 20)]), 1, "a hit");
        assert_eq!(verdict(&[(0, 7), (0, 14), (0, 20)]), 1, "uneven misses");
        assert_eq!(verdict(&[(0, 7), (0, 7)]), 1, "no compile at all");
    }

    #[test]
    fn a_real_run_reports_every_metric_and_no_failure() {
        for trace in [false, true] {
            let result = run(&RunConfig {
                workload: "small_calls".into(),
                seed: 5,
                seconds: 0.0,
                trace,
                quick: true,
            })
            .unwrap();
            assert!(result.correct(), "{:?}", result.problems);
            assert!(result.attempted >= 3);
            assert_eq!(result.spans.is_empty(), !trace);
        }
    }
}
