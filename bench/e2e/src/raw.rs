//! Hand-written baselines: the same results as four of the workloads,
//! programmed directly against `vgpu` queues the way an OpenCL programmer
//! would — explicit buffers, transfers, launch geometry and multi-device
//! splitting. `skelcl.overhead_vs_raw_ratio` divides a workload's host
//! time by its baseline's (the paper's <5 % claim, in host time).

use skelcl_kernel::{value::Value, Program};
use vgpu::{
    CommandQueue, DeviceBuffer, DeviceSpec, Event, HostRead, KernelArg, LaunchConfig, NdRange,
    Platform,
};

use crate::gen::{f32_bytes, f32_values};
use crate::kernels::{
    RawKernel, RAW_BLUR, RAW_MANDELBROT, RAW_MAP_STEP, RAW_SCAN, RAW_SOBEL, RAW_TREE_REDUCE,
    RAW_ZIP_MULT,
};
use crate::workloads::{
    DotInput, MandelbrotInput, SmallCallsInput, SobelInput, MANDELBROT_MAX_ITER, MANDELBROT_SIZE,
    SMALL_LEN, SMALL_ROUNDS, SOBEL_SIZE,
};

/// The baselines split their work over the same two devices the
/// workloads' contexts have.
const DEVICES: usize = 2;

pub trait Baseline {
    /// One iteration, host data in to host result out, as result bytes in
    /// the workload's own format.
    fn iterate(&mut self) -> vgpu::Result<Vec<u8>>;

    fn verify(&self, bytes: &[u8]) -> bool;
}

/// The hand-written baseline of `workload`, if it has one.
pub fn baseline(workload: &str, seed: u64) -> Option<Box<dyn Baseline>> {
    Some(match workload {
        "mandelbrot" => Box::new(RawMandelbrot {
            rig: Rig::new(),
            program: compile(RAW_MANDELBROT),
            input: MandelbrotInput::new(seed),
        }),
        "sobel" => Box::new(RawSobel {
            rig: Rig::new(),
            program: compile(RAW_SOBEL),
            input: SobelInput::new(seed),
        }),
        "dot" => Box::new(RawDot {
            rig: Rig::new(),
            multiply: compile(RAW_ZIP_MULT),
            reduce: compile(RAW_TREE_REDUCE),
            input: DotInput::new(seed),
        }),
        "small_calls" => Box::new(RawSmallCalls::new(SmallCallsInput::new(seed))),
        _ => return None,
    })
}

pub fn compile(kernel: RawKernel) -> Program {
    skelcl_kernel::compile(kernel.file, kernel.source)
        .unwrap_or_else(|e| panic!("{} is a fixed, valid source: {e}", kernel.file))
}

struct Rig {
    queues: Vec<CommandQueue>,
    config: LaunchConfig,
}

impl Rig {
    fn new() -> Self {
        let platform = Platform::new(DEVICES, DeviceSpec::tesla_t10());
        Rig {
            queues: (0..DEVICES).map(|d| platform.queue(d)).collect(),
            config: LaunchConfig::default(),
        }
    }

    fn launch(
        &self,
        device: usize,
        program: &Program,
        kernel: RawKernel,
        args: &[KernelArg],
        range: NdRange,
    ) -> vgpu::Result<Event> {
        self.queues[device].launch_kernel_async(
            program,
            kernel.entry,
            args,
            range,
            &self.config,
            &[],
        )
    }
}

/// Device `d`'s contiguous share `(start, len)` of `units`.
fn share(units: usize, d: usize) -> (usize, usize) {
    let start = units * d / DEVICES;
    (start, units * (d + 1) / DEVICES - start)
}

pub fn int(v: usize) -> KernelArg {
    KernelArg::Scalar(Value::I32(v as i32))
}

fn buf(b: &DeviceBuffer) -> KernelArg {
    KernelArg::Buffer(b.clone())
}

/// Waits for the reads in order and concatenates what they return.
fn gather(reads: Vec<HostRead>) -> vgpu::Result<Vec<u8>> {
    let mut all = Vec::new();
    for read in reads {
        all.extend(read.wait()?.1);
    }
    Ok(all)
}

struct RawMandelbrot {
    rig: Rig,
    program: Program,
    input: MandelbrotInput,
}

impl Baseline for RawMandelbrot {
    fn iterate(&mut self) -> vgpu::Result<Vec<u8>> {
        let (w, h) = MANDELBROT_SIZE;
        let mut reads = Vec::new();
        for (d, queue) in self.rig.queues.iter().enumerate() {
            let (row0, rows) = share(h, d);
            let out = queue.create_buffer(rows * w)?;
            self.rig.launch(
                d,
                &self.program,
                RAW_MANDELBROT,
                &[
                    buf(&out),
                    int(w),
                    int(h),
                    int(row0),
                    int(rows),
                    KernelArg::Scalar(Value::I32(MANDELBROT_MAX_ITER)),
                    KernelArg::Scalar(Value::F32(self.input.shift.0)),
                    KernelArg::Scalar(Value::F32(self.input.shift.1)),
                ],
                NdRange::grid([w, rows], [16, 16]),
            )?;
            reads.push(queue.enqueue_read_async(&out, 0, rows * w, &[])?);
        }
        gather(reads)
    }

    fn verify(&self, bytes: &[u8]) -> bool {
        bytes == self.input.expected
    }
}

struct RawSobel {
    rig: Rig,
    program: Program,
    input: SobelInput,
}

impl Baseline for RawSobel {
    fn iterate(&mut self) -> vgpu::Result<Vec<u8>> {
        let (w, h) = SOBEL_SIZE;
        let mut reads = Vec::new();
        for (d, queue) in self.rig.queues.iter().enumerate() {
            // Own rows plus one halo row towards each neighbour.
            let (row0, rows) = share(h, d);
            let staged0 = row0.saturating_sub(1);
            let staged_rows = (row0 + rows + 1).min(h) - staged0;
            let staged = queue.create_buffer(staged_rows * w)?;
            let out = queue.create_buffer(rows * w)?;
            let image = &self.input.image[staged0 * w..(staged0 + staged_rows) * w];
            queue.enqueue_write_async(&staged, 0, image.to_vec(), &[])?;
            self.rig.launch(
                d,
                &self.program,
                RAW_SOBEL,
                &[
                    buf(&staged),
                    buf(&out),
                    int(w),
                    int(staged_rows),
                    int(row0 - staged0),
                    int(rows),
                ],
                NdRange::grid([w, rows], [16, 16]),
            )?;
            reads.push(queue.enqueue_read_async(&out, 0, rows * w, &[])?);
        }
        gather(reads)
    }

    fn verify(&self, bytes: &[u8]) -> bool {
        bytes == self.input.expected
    }
}

struct RawDot {
    rig: Rig,
    multiply: Program,
    reduce: Program,
    input: DotInput,
}

impl RawDot {
    /// Tree-reduces the first `n` floats of `values` on device `d` down to
    /// one, in passes of at most 64 groups, and reads it back.
    fn reduce_to_one(
        rig: &Rig,
        reduce: &Program,
        d: usize,
        mut values: DeviceBuffer,
        mut n: usize,
    ) -> vgpu::Result<HostRead> {
        let queue = &rig.queues[d];
        while n > 1 {
            let groups = n.div_ceil(256).min(64);
            let partial = queue.create_buffer(4 * groups)?;
            rig.launch(
                d,
                reduce,
                RAW_TREE_REDUCE,
                &[buf(&values), buf(&partial), int(n)],
                NdRange::linear(groups * 256, 256),
            )?;
            values = partial;
            n = groups;
        }
        queue.enqueue_read_async(&values, 0, 4, &[])
    }
}

impl Baseline for RawDot {
    fn iterate(&mut self) -> vgpu::Result<Vec<u8>> {
        let mut reads = Vec::new();
        for (d, queue) in self.rig.queues.iter().enumerate() {
            let (start, n) = share(self.input.a.len(), d);
            let a = queue.create_buffer(4 * n)?;
            let b = queue.create_buffer(4 * n)?;
            let products = queue.create_buffer(4 * n)?;
            queue.enqueue_write_async(&a, 0, f32_bytes(&self.input.a[start..start + n]), &[])?;
            queue.enqueue_write_async(&b, 0, f32_bytes(&self.input.b[start..start + n]), &[])?;
            self.rig.launch(
                d,
                &self.multiply,
                RAW_ZIP_MULT,
                &[buf(&a), buf(&b), buf(&products), int(n)],
                NdRange::linear_default(n),
            )?;
            reads.push(RawDot::reduce_to_one(
                &self.rig,
                &self.reduce,
                d,
                products,
                n,
            )?);
        }
        let total: f32 = f32_values(&gather(reads)?).sum();
        Ok(f32_bytes(&[total]))
    }

    fn verify(&self, bytes: &[u8]) -> bool {
        self.input.verify(bytes)
    }
}

/// The `small_calls` chain by hand. Each device keeps its half of the
/// vector plus one halo element towards the other device; after every
/// blur the two boundary elements are exchanged.
struct RawSmallCalls {
    rig: Rig,
    step: Program,
    blur: Program,
    scan: Program,
    reduce: Program,
    input: SmallCallsInput,
    /// Per device: its staged elements (own half + halo), uploaded once.
    resident: Vec<DeviceBuffer>,
}

/// Where device `d`'s own elements sit in its staged buffer, and how long
/// that buffer is.
fn staged_layout(d: usize) -> (usize, usize) {
    let (start, n) = share(SMALL_LEN, d);
    let staged0 = start.saturating_sub(1);
    (start - staged0, (start + n + 1).min(SMALL_LEN) - staged0)
}

impl RawSmallCalls {
    fn new(input: SmallCallsInput) -> Self {
        let rig = Rig::new();
        let resident = (0..DEVICES)
            .map(|d| {
                let (start, _) = share(SMALL_LEN, d);
                let (off, len) = staged_layout(d);
                let buffer = rig.queues[d].create_buffer(4 * len)?;
                let staged = &input.values[start - off..start - off + len];
                rig.queues[d].enqueue_write(&buffer, 0, &f32_bytes(staged))?;
                Ok(buffer)
            })
            .collect::<vgpu::Result<Vec<_>>>()
            .expect("a 2048-element upload fits a fresh device");
        RawSmallCalls {
            rig,
            step: compile(RAW_MAP_STEP),
            blur: compile(RAW_BLUR),
            scan: compile(RAW_SCAN),
            reduce: compile(RAW_TREE_REDUCE),
            input,
            resident,
        }
    }

    /// Copies each device's boundary element of `bufs` into the other
    /// device's halo slot.
    fn exchange_halos(&self, bufs: &[DeviceBuffer]) -> vgpu::Result<()> {
        let q = &self.rig.queues;
        let (off1, _) = staged_layout(1);
        let (_, n0) = share(SMALL_LEN, 0);
        // Device 0's last own element → device 1's left halo, and back.
        q[0].enqueue_copy_to_async(&bufs[0], 4 * (n0 - 1), &q[1], &bufs[1], 0, 4, &[])?;
        q[1].enqueue_copy_to_async(&bufs[1], 4 * off1, &q[0], &bufs[0], 4 * n0, 4, &[])?;
        Ok(())
    }
}

impl Baseline for RawSmallCalls {
    fn iterate(&mut self) -> vgpu::Result<Vec<u8>> {
        let q = &self.rig.queues;
        let alloc = |len: usize| -> vgpu::Result<Vec<DeviceBuffer>> {
            (0..DEVICES).map(|d| q[d].create_buffer(4 * len)).collect()
        };
        let staged_len = staged_layout(0).1;
        let (stepped, blurred) = (alloc(staged_len)?, alloc(staged_len)?);

        for round in 0..SMALL_ROUNDS {
            let current = if round == 0 { &self.resident } else { &blurred };
            for d in 0..DEVICES {
                let (off, len) = staged_layout(d);
                let (_, n) = share(SMALL_LEN, d);
                self.rig.launch(
                    d,
                    &self.step,
                    RAW_MAP_STEP,
                    &[buf(&current[d]), buf(&stepped[d]), int(len)],
                    NdRange::linear_default(len),
                )?;
                self.rig.launch(
                    d,
                    &self.blur,
                    RAW_BLUR,
                    &[
                        buf(&stepped[d]),
                        buf(&blurred[d]),
                        int(off),
                        int(n),
                        int(len),
                    ],
                    NdRange::linear_default(n),
                )?;
            }
            self.exchange_halos(&blurred)?;
        }

        // Blocked scan: per-block scans, block totals to the host, their
        // prefixes back, one add pass.
        let mut scanned = Vec::new();
        let mut sums = Vec::new();
        let mut blocks = Vec::new();
        for d in 0..DEVICES {
            let (off, _) = staged_layout(d);
            let (_, n) = share(SMALL_LEN, d);
            blocks.push(n.div_ceil(256));
            scanned.push(q[d].create_buffer(4 * n)?);
            let block_sums = q[d].create_buffer(4 * blocks[d])?;
            self.rig.launch(
                d,
                &self.scan,
                RAW_SCAN,
                &[
                    buf(&blurred[d]),
                    buf(&scanned[d]),
                    buf(&block_sums),
                    int(off),
                    int(n),
                ],
                NdRange::linear_default(n),
            )?;
            sums.push(q[d].enqueue_read_async(&block_sums, 0, 4 * blocks[d], &[])?);
        }
        let mut prefix = 0.0f32;
        let offsets: Vec<f32> = f32_values(&gather(sums)?)
            .map(|block_total| {
                let before = prefix;
                prefix += block_total;
                before
            })
            .collect();
        let mut totals = Vec::new();
        let mut first_block = 0;
        for d in 0..DEVICES {
            let (_, n) = share(SMALL_LEN, d);
            let block_offsets = q[d].create_buffer(4 * blocks[d])?;
            let mine = &offsets[first_block..first_block + blocks[d]];
            first_block += blocks[d];
            q[d].enqueue_write_async(&block_offsets, 0, f32_bytes(mine), &[])?;
            self.rig.launch(
                d,
                &self.scan,
                RawKernel {
                    entry: "add_offset",
                    ..RAW_SCAN
                },
                &[buf(&scanned[d]), buf(&block_offsets), int(n)],
                NdRange::linear_default(n),
            )?;
            // One 256-lane group strides over the device's whole share.
            let partial = q[d].create_buffer(4)?;
            self.rig.launch(
                d,
                &self.reduce,
                RAW_TREE_REDUCE,
                &[buf(&scanned[d]), buf(&partial), int(n)],
                NdRange::linear(256, 256),
            )?;
            totals.push(q[d].enqueue_read_async(&partial, 0, 4, &[])?);
        }
        let total: f32 = f32_values(&gather(totals)?).sum();

        // Block → Copy: every device gets the whole scanned vector; back
        // to Block the replicas are simply released.
        let replicas = alloc(SMALL_LEN)?;
        let mut copies = Vec::new();
        for d in 0..DEVICES {
            let (start, n) = share(SMALL_LEN, d);
            for (to, replica) in replicas.iter().enumerate() {
                copies.push(if to == d {
                    q[d].enqueue_copy_async(&scanned[d], 0, replica, 4 * start, 4 * n, &[])?
                } else {
                    q[d].enqueue_copy_to_async(
                        &scanned[d],
                        0,
                        &q[to],
                        replica,
                        4 * start,
                        4 * n,
                        &[],
                    )?
                    .1
                });
            }
        }
        for copy in copies {
            copy.wait()?;
        }
        drop(replicas);

        let reads = (0..DEVICES)
            .map(|d| q[d].enqueue_read_async(&scanned[d], 0, scanned[d].len(), &[]))
            .collect::<vgpu::Result<Vec<_>>>()?;
        let mut bytes = gather(reads)?;
        bytes.extend(total.to_le_bytes());
        Ok(bytes)
    }

    fn verify(&self, bytes: &[u8]) -> bool {
        self.input.verify(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;

    #[test]
    fn every_baseline_matches_the_host_reference() {
        for workload in NAMES {
            let Some(mut raw) = baseline(workload, 11) else {
                assert!(
                    matches!(workload, "stream_pipeline" | "compile_cold"),
                    "{workload} has no baseline"
                );
                continue;
            };
            for _ in 0..2 {
                let bytes = raw.iterate().unwrap();
                assert!(raw.verify(&bytes), "raw {workload} is wrong");
            }
        }
    }

    #[test]
    fn shares_tile_the_range() {
        assert_eq!(share(2048, 0), (0, 1024));
        assert_eq!(share(2048, 1), (1024, 1024));
        assert_eq!(share(193, 0).1 + share(193, 1).1, 193);
        assert_eq!(staged_layout(0), (0, 1025));
        assert_eq!(staged_layout(1), (1, 1025));
    }
}
