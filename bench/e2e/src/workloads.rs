//! The six workloads, each written against `skelcl`'s public API only.
//!
//! One **iteration** builds containers from host data, calls skeletons and
//! brings the result to the host. Skeletons are constructed once, in
//! set-up — except in `compile_cold`, whose iteration *is* construction.
//! Every call into the library sits inside a [`Tracer`] span.

use skelcl::{
    Allpairs, BoundaryHandling, Context, DeviceSelection, Distribution, EventLog, Map, MapOverlap,
    MapOverlapVec, Matrix, Profiler, Reduce, Scan, Value, Vector, Zip,
};
use skelcl_kernel::vm::CostCounters;
use vgpu::{DeviceSpec, ExecStats, Platform, QueueObserver};

use crate::gen::{self, f32_bytes, f32_values};
use crate::kernels::{
    renamed, BLUR_FUNC, MANDELBROT_FUNC, MULT_FUNC, SOBEL_FUNC, STEP_FUNC, SUM_FUNC,
};
use crate::trace::{name, Tracer};

/// Workload names, in reporting order.
pub const NAMES: [&str; 6] = [
    "mandelbrot",
    "sobel",
    "dot",
    "stream_pipeline",
    "small_calls",
    "compile_cold",
];

pub const MANDELBROT_SIZE: (usize, usize) = (256, 192);
pub const MANDELBROT_MAX_ITER: i32 = 200;
pub const SOBEL_SIZE: (usize, usize) = (256, 256);
pub const DOT_LEN: usize = 1 << 17;
pub const STREAM_LEN: usize = 1 << 15;
/// Per-device budget of `stream_pipeline`. A device's half of the input
/// and of the stencil's output is 128 KiB, so every region must stream;
/// budgets under ~68 KiB hit the executor's 256-element chunk floor.
pub const STREAM_BUDGET: usize = 98304;
pub const SMALL_LEN: usize = 2048;
pub const SMALL_ROUNDS: usize = 8;
/// Skeleton calls in one `small_calls` iteration.
pub const SMALL_CALLS: usize = 2 * SMALL_ROUNDS + 2;
pub const COLD_SKELETONS: usize = 7;
pub const COLD_DOT_LEN: usize = 64;

/// `SKELCL_*` variables a workload needs set before `Context::init`.
pub fn env_of(workload: &str) -> Vec<(&'static str, String)> {
    match workload {
        "stream_pipeline" => vec![("SKELCL_DEVICE_BUDGET", STREAM_BUDGET.to_string())],
        _ => Vec::new(),
    }
}

/// What a workload's contexts are made of: device count, the profiler
/// handle, and the queue observer of a traced pass.
#[derive(Clone)]
pub struct Env {
    pub devices: usize,
    pub profiler: Profiler,
    pub observer: Option<QueueObserver>,
}

impl Env {
    /// The common shape: two devices, profiler off, nothing observing.
    pub fn plain() -> Self {
        Env {
            devices: 2,
            profiler: Profiler::disabled(),
            observer: None,
        }
    }

    /// A fresh context on `devices` virtual Tesla T10s.
    pub fn context(&self, t: &Tracer) -> Context {
        let ctx = t.span(name::CTX_INIT, || {
            Context::init_with_profiler(
                Platform::new(self.devices, DeviceSpec::tesla_t10()),
                DeviceSelection::All,
                self.profiler.clone(),
            )
        });
        if let Some(observer) = &self.observer {
            for queue in ctx.queues() {
                // An enabled profiler has already taken the slot; the
                // harness observes only contexts whose profiler is off.
                queue.set_observer(observer.clone());
            }
        }
        ctx
    }
}

/// What one iteration produced and what it cost on the simulated clock.
#[derive(Debug, Clone)]
pub struct IterOut {
    /// The result on the host, as bytes: checked against the reference
    /// and, bit for bit, against iteration 0.
    pub bytes: Vec<u8>,
    /// Simulated makespan: max over devices of their clock's advance.
    pub sim_total_ns: u64,
    /// Σ over the skeleton calls of `events().last_kernel_time()`.
    pub sim_kernel_ns: u64,
    /// Max over devices of the allocation high-water mark.
    pub dev_peak_bytes: usize,
    /// Σ `Event::counters()` over the calls' events (traced passes only).
    pub vm: CostCounters,
    pub calls: u32,
    pub exec: ExecStats,
}

/// Per-iteration bookkeeping around a context: device clocks and memory
/// peaks at the start, the calls' event logs as they happen.
struct Probe<'a> {
    ctx: &'a Context,
    clocks: Vec<u64>,
    sim_kernel_ns: u64,
    vm: CostCounters,
    calls: u32,
    count_vm: bool,
}

impl<'a> Probe<'a> {
    fn start(ctx: &'a Context, t: &Tracer) -> Self {
        let devices = ctx.platform().devices();
        for d in devices {
            d.reset_peak();
        }
        Probe {
            ctx,
            clocks: devices.iter().map(|d| d.now_ns()).collect(),
            sim_kernel_ns: 0,
            vm: CostCounters::default(),
            calls: 0,
            count_vm: t.is_enabled(),
        }
    }

    /// Accounts the skeleton call that just filled `log`.
    fn called(&mut self, log: &EventLog) {
        self.calls += 1;
        self.sim_kernel_ns += log.last_kernel_time().as_nanos() as u64;
        if self.count_vm {
            for counters in log.last_events().iter().filter_map(|e| e.counters()) {
                self.vm.merge(&counters);
            }
        }
    }

    fn finish(self, bytes: Vec<u8>) -> IterOut {
        let devices = self.ctx.platform().devices();
        IterOut {
            bytes,
            sim_total_ns: devices
                .iter()
                .zip(&self.clocks)
                .map(|(d, before)| d.now_ns() - before)
                .max()
                .unwrap_or(0),
            sim_kernel_ns: self.sim_kernel_ns,
            dev_peak_bytes: devices
                .iter()
                .map(|d| d.peak_allocated_bytes())
                .max()
                .unwrap_or(0),
            vm: self.vm,
            calls: self.calls,
            exec: self.ctx.platform().exec_stats(),
        }
    }
}

pub trait Workload {
    /// Runs one iteration. An `Err` counts as a failed iteration.
    fn iterate(&mut self, t: &Tracer) -> skelcl::Result<IterOut>;

    /// Whether `bytes` is the result the independent host reference
    /// expects.
    fn verify(&self, bytes: &[u8]) -> bool;

    /// Elements one iteration pushes through its pipeline.
    fn items_per_iter(&self) -> u64;

    /// Constructs the workload's skeletons once more where their sources
    /// have already been compiled, so every compile is a cache hit.
    fn rebuild_skeletons(&self, t: &Tracer) -> skelcl::Result<()>;
}

/// Generates `workload`'s inputs and references from `seed`, initialises
/// its context and constructs its skeletons.
pub fn setup(
    workload: &str,
    seed: u64,
    env: &Env,
    t: &Tracer,
) -> skelcl::Result<Box<dyn Workload>> {
    Ok(match workload {
        "mandelbrot" => Box::new(Mandelbrot::new(MandelbrotInput::new(seed), env, t)?),
        "sobel" => Box::new(Sobel::new(SobelInput::new(seed), env, t)?),
        "dot" => Box::new(Dot::new(DotInput::new(seed), env, t)?),
        "stream_pipeline" => Box::new(StreamPipeline::new(seed, env, t)?),
        "small_calls" => Box::new(SmallCalls::new(SmallCallsInput::new(seed), env, t)?),
        "compile_cold" => Box::new(CompileCold::new(seed, env)),
        other => panic!("unknown workload `{other}` (the CLI checks names)"),
    })
}

/// Whether `bytes` holds exactly the `f32`s `want`, each within tolerance.
fn all_close(bytes: &[u8], want: &[f64]) -> bool {
    bytes.len() == 4 * want.len() && f32_values(bytes).zip(want).all(|(g, &w)| gen::close(g, w))
}

fn skeleton_new<S>(t: &Tracer, build: impl FnOnce() -> skelcl::Result<S>) -> skelcl::Result<S> {
    t.span(name::SKELETON_NEW, build)
}

// ---------------------------------------------------------------- mandelbrot

pub struct MandelbrotInput {
    pub shift: (f32, f32),
    pub expected: Vec<u8>,
}

impl MandelbrotInput {
    pub fn new(seed: u64) -> Self {
        let (w, h) = MANDELBROT_SIZE;
        let shift = gen::viewport_shift(seed, w, h);
        MandelbrotInput {
            shift,
            expected: gen::mandelbrot_reference(w, h, MANDELBROT_MAX_ITER, shift),
        }
    }
}

struct Mandelbrot {
    input: MandelbrotInput,
    ctx: Context,
    map: Map<i32, u8>,
    indices: Vec<i32>,
    extras: [Value; 5],
}

impl Mandelbrot {
    fn new(input: MandelbrotInput, env: &Env, t: &Tracer) -> skelcl::Result<Self> {
        let (w, h) = MANDELBROT_SIZE;
        let ctx = env.context(t);
        Ok(Mandelbrot {
            map: skeleton_new(t, || Map::new(&ctx, MANDELBROT_FUNC))?,
            indices: (0..(w * h) as i32).collect(),
            extras: [
                Value::I32(w as i32),
                Value::I32(h as i32),
                Value::I32(MANDELBROT_MAX_ITER),
                Value::F32(input.shift.0),
                Value::F32(input.shift.1),
            ],
            input,
            ctx,
        })
    }
}

impl Workload for Mandelbrot {
    fn iterate(&mut self, t: &Tracer) -> skelcl::Result<IterOut> {
        let mut probe = Probe::start(&self.ctx, t);
        let pixels = t.span(name::CONTAINER_CREATE, || {
            Vector::from_vec(&self.ctx, self.indices.clone())
        });
        let image = t.span(name::CALL, || self.map.call_with(&pixels, &self.extras))?;
        probe.called(self.map.events());
        let bytes = t.span(name::READBACK, || image.to_vec())?;
        t.span(name::CONTAINER_DROP, || drop((pixels, image)));
        Ok(probe.finish(bytes))
    }

    fn verify(&self, bytes: &[u8]) -> bool {
        bytes == self.input.expected
    }

    fn items_per_iter(&self) -> u64 {
        self.indices.len() as u64
    }

    fn rebuild_skeletons(&self, t: &Tracer) -> skelcl::Result<()> {
        skeleton_new(t, || Map::<i32, u8>::new(&self.ctx, MANDELBROT_FUNC)).map(drop)
    }
}

// --------------------------------------------------------------------- sobel

pub struct SobelInput {
    pub image: Vec<u8>,
    pub expected: Vec<u8>,
}

impl SobelInput {
    pub fn new(seed: u64) -> Self {
        let (w, h) = SOBEL_SIZE;
        let image = gen::image(w, h, seed);
        SobelInput {
            expected: gen::sobel_reference(&image, w, h),
            image,
        }
    }
}

struct Sobel {
    input: SobelInput,
    ctx: Context,
    stencil: MapOverlap<u8, u8>,
}

impl Sobel {
    fn build(ctx: &Context) -> skelcl::Result<MapOverlap<u8, u8>> {
        MapOverlap::new(ctx, SOBEL_FUNC, 1, BoundaryHandling::Nearest)
    }

    fn new(input: SobelInput, env: &Env, t: &Tracer) -> skelcl::Result<Self> {
        let ctx = env.context(t);
        Ok(Sobel {
            stencil: skeleton_new(t, || Sobel::build(&ctx))?,
            input,
            ctx,
        })
    }
}

impl Workload for Sobel {
    fn iterate(&mut self, t: &Tracer) -> skelcl::Result<IterOut> {
        let (w, h) = SOBEL_SIZE;
        let mut probe = Probe::start(&self.ctx, t);
        let image = t.span(name::CONTAINER_CREATE, || {
            Matrix::from_vec(&self.ctx, h, w, self.input.image.clone())
        });
        let edges = t.span(name::CALL, || self.stencil.call(&image))?;
        probe.called(self.stencil.events());
        let bytes = t.span(name::READBACK, || edges.to_vec())?;
        t.span(name::CONTAINER_DROP, || drop((image, edges)));
        Ok(probe.finish(bytes))
    }

    fn verify(&self, bytes: &[u8]) -> bool {
        bytes == self.input.expected
    }

    fn items_per_iter(&self) -> u64 {
        self.input.image.len() as u64
    }

    fn rebuild_skeletons(&self, t: &Tracer) -> skelcl::Result<()> {
        skeleton_new(t, || Sobel::build(&self.ctx)).map(drop)
    }
}

// ----------------------------------------------------------------------- dot

pub struct DotInput {
    pub a: Vec<f32>,
    pub b: Vec<f32>,
    pub expected: f64,
}

impl DotInput {
    pub fn new(seed: u64) -> Self {
        DotInput::with_len(seed, DOT_LEN)
    }

    /// Values in `[0, 1)`: the sum grows with the length, so a relative
    /// tolerance never has to judge a result near zero.
    pub fn with_len(seed: u64, len: usize) -> Self {
        let a = gen::f32_vector(len, seed, 0, 0.0, 1.0);
        let b = gen::f32_vector(len, seed, 1, 0.0, 1.0);
        DotInput {
            expected: gen::dot_reference(&a, &b),
            a,
            b,
        }
    }

    pub fn verify(&self, bytes: &[u8]) -> bool {
        all_close(bytes, &[self.expected])
    }
}

struct DotSkeletons {
    mult: Zip<f32, f32, f32>,
    sum: Reduce<f32>,
}

impl DotSkeletons {
    fn build(ctx: &Context) -> skelcl::Result<Self> {
        Ok(DotSkeletons {
            mult: Zip::new(ctx, MULT_FUNC)?,
            sum: Reduce::new(ctx, SUM_FUNC)?,
        })
    }
}

struct Dot {
    input: DotInput,
    ctx: Context,
    skeletons: DotSkeletons,
}

impl Dot {
    fn new(input: DotInput, env: &Env, t: &Tracer) -> skelcl::Result<Self> {
        let ctx = env.context(t);
        Ok(Dot {
            skeletons: skeleton_new(t, || DotSkeletons::build(&ctx))?,
            input,
            ctx,
        })
    }
}

impl Workload for Dot {
    /// The paper's Listing 1.1, eager: `sum(mult(a, b))`.
    fn iterate(&mut self, t: &Tracer) -> skelcl::Result<IterOut> {
        let DotSkeletons { mult, sum } = &self.skeletons;
        let mut probe = Probe::start(&self.ctx, t);
        let (a, b) = t.span(name::CONTAINER_CREATE, || {
            (
                Vector::from_vec(&self.ctx, self.input.a.clone()),
                Vector::from_vec(&self.ctx, self.input.b.clone()),
            )
        });
        let products = t.span(name::CALL, || mult.call(&a, &b))?;
        probe.called(mult.events());
        let total = t.span(name::CALL, || sum.call(&products))?;
        probe.called(sum.events());
        let bytes = t.span(name::READBACK, || f32_bytes(&[total.value()]));
        t.span(name::CONTAINER_DROP, || drop((a, b, products)));
        Ok(probe.finish(bytes))
    }

    fn verify(&self, bytes: &[u8]) -> bool {
        self.input.verify(bytes)
    }

    fn items_per_iter(&self) -> u64 {
        self.input.a.len() as u64
    }

    fn rebuild_skeletons(&self, t: &Tracer) -> skelcl::Result<()> {
        skeleton_new(t, || DotSkeletons::build(&self.ctx)).map(drop)
    }
}

// ----------------------------------------------------------- stream_pipeline

struct StreamSkeletons {
    step: Map<f32, f32>,
    blur: MapOverlapVec<f32, f32>,
    sum: Reduce<f32>,
}

impl StreamSkeletons {
    fn build(ctx: &Context, boundary: BoundaryHandling<f32>) -> skelcl::Result<Self> {
        Ok(StreamSkeletons {
            step: Map::new(ctx, STEP_FUNC)?,
            blur: MapOverlapVec::new(ctx, BLUR_FUNC, 1, boundary)?,
            sum: Reduce::new(ctx, SUM_FUNC)?,
        })
    }
}

/// Lazy `Map` → `MapOverlapVec` → `Reduce::call_fused`. With the device
/// budget [`env_of`] sets, the plan layer rewrites the pipeline and the
/// streaming executor chunks it; with the budget unset the same code runs
/// resident (the `stream.overhead_vs_resident_ratio` base).
struct StreamPipeline {
    input: Vec<f32>,
    expected: f64,
    ctx: Context,
    skeletons: StreamSkeletons,
}

impl StreamPipeline {
    fn new(seed: u64, env: &Env, t: &Tracer) -> skelcl::Result<Self> {
        let input = gen::f32_vector(STREAM_LEN, seed, 0, 0.0, 1.0);
        let ctx = env.context(t);
        Ok(StreamPipeline {
            expected: gen::stream_reference(&input),
            skeletons: skeleton_new(t, || {
                StreamSkeletons::build(&ctx, BoundaryHandling::Neutral(0.0))
            })?,
            input,
            ctx,
        })
    }
}

impl Workload for StreamPipeline {
    fn iterate(&mut self, t: &Tracer) -> skelcl::Result<IterOut> {
        let StreamSkeletons { step, blur, sum } = &self.skeletons;
        let mut probe = Probe::start(&self.ctx, t);
        let v = t.span(name::CONTAINER_CREATE, || {
            Vector::from_vec(&self.ctx, self.input.clone())
        });
        let expr = t.span(name::LAZY_BUILD, || blur.lazy(&step.lazy(&v.expr())?))?;
        let total = t.span(name::CALL, || sum.call_fused(&expr))?;
        probe.called(sum.events());
        let bytes = t.span(name::READBACK, || f32_bytes(&[total.value()]));
        t.span(name::CONTAINER_DROP, || drop((expr, v)));
        Ok(probe.finish(bytes))
    }

    fn verify(&self, bytes: &[u8]) -> bool {
        all_close(bytes, &[self.expected])
    }

    fn items_per_iter(&self) -> u64 {
        self.input.len() as u64
    }

    fn rebuild_skeletons(&self, t: &Tracer) -> skelcl::Result<()> {
        skeleton_new(t, || {
            StreamSkeletons::build(&self.ctx, BoundaryHandling::Neutral(0.0))
        })
        .map(drop)
    }
}

// --------------------------------------------------------------- small_calls

pub struct SmallCallsInput {
    pub values: Vec<f32>,
    pub scanned: Vec<f64>,
    pub total: f64,
}

impl SmallCallsInput {
    pub fn new(seed: u64) -> Self {
        let values = gen::f32_vector(SMALL_LEN, seed, 0, 0.0, 4.0);
        let (scanned, total) = gen::small_calls_reference(&values, SMALL_ROUNDS);
        SmallCallsInput {
            values,
            scanned,
            total,
        }
    }

    /// The result is the scanned vector followed by the sum of it.
    pub fn verify(&self, bytes: &[u8]) -> bool {
        let split = bytes.len().saturating_sub(4);
        all_close(&bytes[..split], &self.scanned) && all_close(&bytes[split..], &[self.total])
    }
}

struct SmallSkeletons {
    chain: StreamSkeletons,
    scan: Scan<f32>,
}

impl SmallSkeletons {
    fn build(ctx: &Context) -> skelcl::Result<Self> {
        Ok(SmallSkeletons {
            chain: StreamSkeletons::build(ctx, BoundaryHandling::Nearest)?,
            scan: Scan::new(ctx, SUM_FUNC)?,
        })
    }
}

/// Eighteen eager calls on a small device-resident vector, then a
/// redistribution round trip: almost no VM work, so what is timed is the
/// fixed cost of a call.
struct SmallCalls {
    input: SmallCallsInput,
    ctx: Context,
    resident: Vector<f32>,
    skeletons: SmallSkeletons,
}

impl SmallCalls {
    fn new(input: SmallCallsInput, env: &Env, t: &Tracer) -> skelcl::Result<Self> {
        let ctx = env.context(t);
        let resident = t.span(name::CONTAINER_CREATE, || {
            let v = Vector::from_vec(&ctx, input.values.clone());
            v.prefetch(Distribution::Block).map(|()| v)
        })?;
        Ok(SmallCalls {
            skeletons: skeleton_new(t, || SmallSkeletons::build(&ctx))?,
            input,
            ctx,
            resident,
        })
    }
}

impl Workload for SmallCalls {
    fn iterate(&mut self, t: &Tracer) -> skelcl::Result<IterOut> {
        let SmallSkeletons { chain, scan } = &self.skeletons;
        let mut probe = Probe::start(&self.ctx, t);
        let mut v = self.resident.clone();
        for _ in 0..SMALL_ROUNDS {
            v = t.span(name::CALL, || chain.step.call(&v))?;
            probe.called(chain.step.events());
            v = t.span(name::CALL, || chain.blur.call(&v))?;
            probe.called(chain.blur.events());
        }
        let scanned = t.span(name::CALL, || scan.call(&v))?;
        probe.called(scan.events());
        let total = t.span(name::CALL, || chain.sum.call(&scanned))?;
        probe.called(chain.sum.events());
        t.span(name::REDISTRIBUTE, || {
            scanned.set_distribution(Distribution::Copy)?;
            scanned.set_distribution(Distribution::Block)
        })?;
        let bytes = t.span(name::READBACK, || {
            scanned.to_vec().map(|mut values| {
                values.push(total.value());
                f32_bytes(&values)
            })
        })?;
        t.span(name::CONTAINER_DROP, || drop((v, scanned)));
        Ok(probe.finish(bytes))
    }

    fn verify(&self, bytes: &[u8]) -> bool {
        self.input.verify(bytes)
    }

    fn items_per_iter(&self) -> u64 {
        (SMALL_LEN * SMALL_CALLS) as u64
    }

    fn rebuild_skeletons(&self, t: &Tracer) -> skelcl::Result<()> {
        skeleton_new(t, || SmallSkeletons::build(&self.ctx)).map(drop)
    }
}

// -------------------------------------------------------------- compile_cold

/// Seven skeletons covering every kernel template the library welds.
struct ColdSkeletons {
    _mandelbrot: Map<i32, u8>,
    _sobel: MapOverlap<u8, u8>,
    mult: Zip<f32, f32, f32>,
    sum: Reduce<f32>,
    _blur: MapOverlapVec<f32, f32>,
    _scan: Scan<f32>,
    _allpairs: Allpairs<f32, f32>,
}

impl ColdSkeletons {
    /// `tag` lands in every function name: a source is compiled at most
    /// once per tag, whatever cache the library keeps.
    fn build(ctx: &Context, tag: &str) -> skelcl::Result<Self> {
        let named = |source, name, i: usize| renamed(source, name, &format!("{tag}_{i}"));
        Ok(ColdSkeletons {
            _mandelbrot: Map::new(ctx, &named(MANDELBROT_FUNC, "func", 0))?,
            _sobel: MapOverlap::new(
                ctx,
                &named(SOBEL_FUNC, "func", 1),
                1,
                BoundaryHandling::Nearest,
            )?,
            mult: Zip::new(ctx, &named(MULT_FUNC, "mult", 2))?,
            sum: Reduce::new(ctx, &named(SUM_FUNC, "sum", 3))?,
            _blur: MapOverlapVec::new(
                ctx,
                &named(BLUR_FUNC, "blur", 4),
                1,
                BoundaryHandling::Neutral(0.0),
            )?,
            _scan: Scan::new(ctx, &named(SUM_FUNC, "sum", 5))?,
            _allpairs: Allpairs::zip_reduce(
                ctx,
                &named(MULT_FUNC, "mult", 6),
                &named(SUM_FUNC, "sum", 6),
            )?,
        })
    }
}

/// Per iteration a fresh context, seven skeleton constructions that all
/// miss the compile cache, and a 64-element dot to prove they run.
struct CompileCold {
    env: Env,
    seed: u64,
    input: DotInput,
    built: u64,
}

impl CompileCold {
    fn new(seed: u64, env: &Env) -> Self {
        CompileCold {
            env: env.clone(),
            seed,
            input: DotInput::with_len(seed, COLD_DOT_LEN),
            built: 0,
        }
    }

    fn next_tag(&mut self) -> String {
        self.built += 1;
        format!("{}_{}", self.seed, self.built)
    }
}

impl Workload for CompileCold {
    fn iterate(&mut self, t: &Tracer) -> skelcl::Result<IterOut> {
        let tag = self.next_tag();
        let ctx = self.env.context(t);
        let mut probe = Probe::start(&ctx, t);
        let skeletons = skeleton_new(t, || ColdSkeletons::build(&ctx, &tag))?;
        let (a, b) = t.span(name::CONTAINER_CREATE, || {
            (
                Vector::from_vec(&ctx, self.input.a.clone()),
                Vector::from_vec(&ctx, self.input.b.clone()),
            )
        });
        let products = t.span(name::CALL, || skeletons.mult.call(&a, &b))?;
        probe.called(skeletons.mult.events());
        let total = t.span(name::CALL, || skeletons.sum.call(&products))?;
        probe.called(skeletons.sum.events());
        let bytes = t.span(name::READBACK, || f32_bytes(&[total.value()]));
        let out = probe.finish(bytes);
        // Queue and pool threads end with the context's last handle.
        t.span(name::CTX_DROP, || drop((skeletons, a, b, products, ctx)));
        Ok(out)
    }

    fn verify(&self, bytes: &[u8]) -> bool {
        self.input.verify(bytes)
    }

    fn items_per_iter(&self) -> u64 {
        COLD_SKELETONS as u64
    }

    fn rebuild_skeletons(&self, t: &Tracer) -> skelcl::Result<()> {
        let ctx = self.env.context(&Tracer::disabled());
        let tag = format!("{}_warm", self.seed);
        let cold = ColdSkeletons::build(&ctx, &tag)?;
        skeleton_new(t, || ColdSkeletons::build(&ctx, &tag)).map(|warm| drop((cold, warm)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mandelbrot_checks_every_output_byte() {
        let t = Tracer::disabled();
        let mut w = setup("mandelbrot", 1, &Env::plain(), &t).unwrap();
        let mut out = w.iterate(&t).unwrap();
        assert!(w.verify(&out.bytes));
        assert!(out.sim_total_ns > 0 && out.sim_kernel_ns > 0 && out.dev_peak_bytes > 0);
        out.bytes[12_345] ^= 1;
        assert!(!w.verify(&out.bytes), "one flipped byte is a mismatch");
    }

    #[test]
    fn tolerance_checks_reject_wrong_lengths_and_values() {
        let input = SmallCallsInput::new(3);
        let mut values: Vec<f32> = input.scanned.iter().map(|&x| x as f32).collect();
        values.push(input.total as f32);
        assert!(input.verify(&f32_bytes(&values)));
        assert!(!input.verify(&f32_bytes(&values[1..])));
        values[100] *= 1.01;
        assert!(!input.verify(&f32_bytes(&values)));
        assert!(!DotInput::with_len(3, 8).verify(&[]));
    }

    #[test]
    fn only_stream_pipeline_sets_a_variable() {
        for w in NAMES {
            assert_eq!(env_of(w).is_empty(), w != "stream_pipeline", "{w}");
        }
    }
}
