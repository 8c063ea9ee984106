//! # skelcl-bench — workloads, baselines and harnesses reproducing the
//! SkelCL paper's evaluation (Section 4)
//!
//! * [`workloads`] — synthetic inputs (images, vectors, matrices);
//! * [`baselines`] — CUDA-style, OpenCL-style and SkelCL implementations
//!   of the paper's applications, each in a self-contained source file so
//!   lines of code can be counted like the paper counts SDK samples;
//! * [`loc`] — the LoC counter and the paper's reported numbers;
//! * [`overlap`] — transfer/compute overlap analysis over profiler spans
//!   (how much transfer time the async queues hid behind other devices'
//!   kernels);
//! * [`report`] — the `BENCH_*.json` machine-readable reports the figure
//!   binaries emit alongside their tables;
//! * [`gate`] — the regression rules `bench_gate` applies when diffing
//!   fresh reports against the committed baselines in `bench/baselines/`.
//!
//! Binaries (see `src/bin/`): `fig4_mandelbrot`, `fig5_sobel`, `loc_table`
//! and `scaling` regenerate the paper's figures; `interp` reports the
//! compiler and VM counters; `bench_gate` diffs their reports against
//! committed baselines. Host wall-clock is measured by `bench/e2e`.

#![warn(missing_docs)]

pub mod baselines;
pub mod gate;
pub mod loc;
pub mod overlap;
pub mod report;
pub mod workloads;
