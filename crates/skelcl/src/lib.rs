//! # skelcl — a reproduction of the SkelCL multi-GPU skeleton library
//!
//! Rust reproduction of *Steuwer & Gorlatch, "SkelCL: Enhancing OpenCL for
//! High-Level Programming of Multi-GPU Systems" (PaCT 2013)*, running on
//! the `vgpu` virtual multi-GPU platform with kernels compiled by
//! `skelcl-kernel`.
//!
//! The library provides the paper's three enhancements over raw OpenCL:
//!
//! 1. **Parallel container data types** — [`Vector`] and [`Matrix`] with
//!    automatic GPU memory management and implicit lazy transfers (§3.1);
//! 2. **Data distributions** — [`Distribution`]: `single`, `copy`, `block`
//!    and `overlap`, changeable at runtime with implicit redistribution
//!    (§3.2);
//! 3. **Algorithmic skeletons** — [`Map`], [`Zip`], [`Reduce`], [`Scan`]
//!    (§3.3), [`MapOverlap`] with local-memory tiling and boundary handling
//!    (§3.4), and [`Allpairs`] with a zip-reduce specialisation (§3.5) —
//!    all customized by functions written as plain OpenCL-C source strings,
//!    exactly as in the paper.
//!
//! ## Example: dot product (paper Listing 1.1)
//!
//! ```
//! use skelcl::{Context, Reduce, Vector, Zip};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ctx = Context::tesla_s1070(); // 4 virtual GPUs, as the paper's testbed
//!
//! let sum: Reduce<f32> = Reduce::new(&ctx, "float sum(float x, float y){ return x + y; }")?;
//! let mult: Zip<f32, f32, f32> =
//!     Zip::new(&ctx, "float mult(float x, float y){ return x * y; }")?;
//!
//! let a = Vector::from_fn(&ctx, 1024, |i| i as f32);
//! let b = Vector::from_fn(&ctx, 1024, |_| 2.0);
//!
//! let c = sum.call(&mult.call(&a, &b)?)?;
//! assert_eq!(c.value(), (0..1024).map(|i| 2.0 * i as f32).sum::<f32>());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod codegen;
pub mod config;
pub mod container;
pub mod context;
pub mod distribution;
pub mod engine;
pub mod error;
pub mod exec;
pub mod expr;
pub mod plan;
pub mod schedule;
pub mod skeleton;
pub mod stream;
pub mod types;

pub use config::Config;
pub use container::{InteropChunk, Matrix, Scalar, Vector};
pub use context::{Context, DeviceSelection};
pub use distribution::Distribution;
pub use engine::{LaunchPlan, NodeId, PlanRun};
pub use error::{Error, Result};
pub use exec::Skeleton;
pub use expr::{Expr, FusionStats};
pub use plan::PlanConfig;
pub use schedule::{SchedulePolicy, Scheduler};
pub use skeleton::{
    matrix_multiply, transpose, Allpairs, BoundaryHandling, EventLog, Map, MapOverlap,
    MapOverlapVec, Reduce, Scan, Zip,
};
pub use stream::StreamConfig;
pub use types::KernelScalar;

/// Re-export of the kernel argument value type, used for skeletons' extra
/// scalar arguments.
pub use skelcl_kernel::value::Value;

/// Re-export of the observability layer: [`profile::Profiler`] rides on
/// every [`Context`] (see [`Context::profiler`]); `profile::metrics` names
/// the counters, and `profile::report` builds summaries and JSON reports.
pub use skelcl_profile as profile;
/// Re-export of the flight-recorder handle carried by [`Context`] (see
/// [`Context::flight`]).
pub use skelcl_profile::FlightRecorder;
/// Re-export of the profiler handle carried by [`Context`].
pub use skelcl_profile::Profiler;
