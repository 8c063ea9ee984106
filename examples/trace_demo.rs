//! trace-demo: the full observability stack on a 2-GPU dot product.
//!
//! Run with: `just trace-demo` (or
//! `cargo run --release --example trace_demo`).
//!
//! The demo defaults `SKELCL_TRACE=trace_demo.json` (which turns the
//! profiler on) and `SKELCL_FLIGHT=1024` when the caller has not set them,
//! prints the configuration the session resolved from the environment, and
//! so a bare run produces:
//!
//! * a Chrome trace (`chrome://tracing` / Perfetto) with per-device
//!   timelines, flow arrows for the `LaunchPlan` wait-list dependencies,
//!   queue-depth counter tracks and pool gauges;
//! * a flight-recorder postmortem dump of the last queue/plan events,
//!   printed on demand at the end of the run;
//! * the profiler's metrics summary with p50/p90/p99 percentiles for
//!   kernel durations and transfer sizes.

use std::env;

use skelcl_repro::skelcl::{Context, DeviceSelection, Distribution, Reduce, Vector, Zip};
use skelcl_repro::vgpu::{DeviceSpec, Platform};

fn default_env(key: &str, value: &str) {
    if env::var_os(key).is_none() {
        env::set_var(key, value);
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    default_env("SKELCL_TRACE", "trace_demo.json");
    default_env("SKELCL_FLIGHT", "1024");

    // Context::init resolves every SKELCL_* variable, once, into the
    // session's Config: the profiler and the flight recorder attach here.
    let ctx = Context::init(
        Platform::new(2, DeviceSpec::tesla_t10()),
        DeviceSelection::All,
    );
    println!(
        "trace-demo: dot product on {} virtual GPUs",
        ctx.device_count()
    );
    println!("config        = {:#?}", ctx.config());

    let sum: Reduce<f32> = Reduce::new(&ctx, "float sum(float x, float y){ return x + y; }")?;
    let mult: Zip<f32, f32, f32> = Zip::new(&ctx, "float mult(float x, float y){ return x * y; }")?;

    const SIZE: usize = 1 << 20;
    let a = Vector::from_fn(&ctx, SIZE, |i| (i % 100) as f32 / 100.0);
    let b = Vector::from_fn(&ctx, SIZE, |i| ((i + 7) % 50) as f32 / 50.0);
    // Block distribution splits the work across both devices, so the
    // trace shows two device lanes plus the host lane.
    a.set_distribution(Distribution::Block)?;

    let c = sum.call(&mult.call(&a, &b)?)?;
    println!("dot product   = {:.3}", c.value());

    // What the observers captured.
    let profiler = ctx.profiler();
    println!(
        "trace         = {} spans, {} flow edges, {} counter samples",
        profiler.spans().len(),
        profiler.flows().len(),
        profiler.counter_samples().len(),
    );
    println!(
        "flight ring   = {} events recorded (capacity {})",
        ctx.flight().recorded(),
        ctx.flight().capacity(),
    );
    if let Some(dump) = ctx.dump_flight() {
        let tail: Vec<&str> = dump.lines().rev().take(8).collect();
        println!("last flight events:");
        for line in tail.iter().rev() {
            println!("  {line}");
        }
    }
    if let Some(path) = &ctx.config().trace {
        println!(
            "\ntrace file    = {} (open in chrome://tracing or Perfetto)",
            path.display()
        );
    }
    // The trace itself is written when the context drops.
    Ok(())
}
