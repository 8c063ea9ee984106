//! # vgpu — a virtual multi-GPU OpenCL-like platform
//!
//! The SkelCL paper evaluates on a host driving an NVIDIA Tesla S1070 (4
//! GPUs) through OpenCL. This crate is the reproduction's substitute for
//! that hardware + driver stack:
//!
//! * [`Platform`] / [`Device`] — a host with N virtual GPUs, each with its
//!   own memory capacity and simulated timeline;
//! * [`DeviceBuffer`] — global-memory buffers with allocation accounting;
//! * [`CommandQueue`] — asynchronous in-order queues (one worker thread
//!   each) for transfers and kernel launches, every command returning an
//!   [`Event`] with wait-list dependencies and OpenCL-style profiling;
//! * an execution engine running compiled SkelCL C kernels
//!   (`skelcl-kernel`) over ND-ranges: work-groups in parallel on host
//!   threads, the lanes of a group together on the VM's group executor,
//!   parked at `barrier()` until the whole group has arrived;
//! * a deterministic [cost model](cost) turning execution counters into
//!   simulated nanoseconds, reproducing the paper's first-order effects
//!   (local vs global memory, CUDA-vs-OpenCL toolchain factor, PCIe
//!   transfer costs).
//!
//! ## Example
//!
//! ```
//! use vgpu::{Platform, DeviceSpec, NdRange, KernelArg, LaunchConfig};
//! use skelcl_kernel::value::Value;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = skelcl_kernel::compile(
//!     "scale.cl",
//!     "__kernel void scale(__global float* data, float s, int n) {
//!          int i = (int)get_global_id(0);
//!          if (i < n) data[i] = data[i] * s;
//!      }",
//! )?;
//!
//! let platform = Platform::single(DeviceSpec::tesla_t10());
//! let queue = platform.queue(0);
//! let buffer = queue.create_buffer(4 * 4)?;
//! let input: Vec<u8> = [1.0f32, 2.0, 3.0, 4.0].iter().flat_map(|v| v.to_le_bytes()).collect();
//! queue.enqueue_write(&buffer, 0, &input)?;
//!
//! let event = queue.launch_kernel(
//!     &program,
//!     "scale",
//!     &[KernelArg::Buffer(buffer.clone()), KernelArg::Scalar(Value::F32(10.0)), KernelArg::Scalar(Value::I32(4))],
//!     NdRange::linear_default(4),
//!     &LaunchConfig::default(),
//! )?;
//! assert!(event.duration().as_nanos() > 0);
//!
//! let mut out = vec![0u8; 16];
//! queue.enqueue_read(&buffer, 0, &mut out)?;
//! let first = f32::from_le_bytes(out[..4].try_into().unwrap());
//! assert_eq!(first, 10.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod cl;
pub mod cost;
pub mod device;
pub mod error;
pub mod event;
mod exec;
pub mod memory;
pub mod ndrange;
pub mod platform;
mod pool;
pub mod queue;

pub use cost::Toolchain;
pub use device::{Device, DeviceId, DeviceSpec, ExecStats};
pub use error::{Error, Result};
pub use event::{CommandClass, CommandKind, Event, EventStatus};
pub use exec::{FaultInjection, LaunchConfig};
pub use memory::DeviceBuffer;
pub use ndrange::NdRange;
pub use platform::Platform;
pub use queue::{CommandQueue, HostRead, KernelArg, QueueNotice, QueueObserver, QueuePhase};
