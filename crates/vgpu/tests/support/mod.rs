//! The single-threaded reference launcher: the semantic oracle the
//! execution-engine tests compare `vgpu` against.
//!
//! It runs a launch on plain host byte vectors with a fresh
//! [`WorkItem`] per work-item and the reference interpreter
//! ([`WorkItem::run_reference`]): groups in linear order, the items of a
//! group row-major, in rounds between barriers, checking that a round ends
//! with every item at the same barrier. It shares no code with the engine
//! (`vgpu::exec`): no pool, no `EntryFrame`, no device buffers.

use skelcl_kernel::program::{KernelParamKind, Program};
use skelcl_kernel::types::AddressSpace;
use skelcl_kernel::value::{self, Ptr, Value};
use skelcl_kernel::vm::{CostCounters, Exit, HostMemory, ItemGeometry, RuntimeError, WorkItem};
use vgpu::NdRange;

/// A launch argument: what `vgpu::KernelArg` is, with host bytes for the
/// buffer.
#[derive(Debug, Clone)]
pub enum Arg {
    Buffer(Vec<u8>),
    Scalar(Value),
    Local(usize),
}

/// A finished reference launch: the final contents of every buffer
/// argument (in argument order) and the counters summed over all items.
#[derive(Debug, PartialEq)]
pub struct Outcome {
    pub buffers: Vec<Vec<u8>>,
    pub counters: CostCounters,
}

/// Why a reference launch stopped; mirrors `vgpu::Error::{Launch,
/// BarrierDivergence}`.
#[derive(Debug, PartialEq)]
pub enum Fault {
    Item {
        global_id: [u64; 3],
        error: RuntimeError,
    },
    BarrierDivergence {
        group_id: [u64; 3],
    },
}

fn local_ptr(byte_offset: usize) -> Value {
    Value::Ptr(Ptr {
        space: AddressSpace::Local,
        buffer: 0,
        byte_offset: byte_offset as i64,
    })
}

/// Runs `kernel` of `program` over `range`, every item with `ops_budget`
/// instructions to spend.
///
/// # Panics
///
/// Panics if the kernel is unknown or `args` do not match its parameters
/// (the tests pass the same arguments to `vgpu`, which rejects those
/// eagerly).
pub fn launch(
    program: &Program,
    kernel: &str,
    args: &[Arg],
    range: &NdRange,
    ops_budget: u64,
) -> Result<Outcome, Fault> {
    let info = program.kernel(kernel).expect("kernel exists");
    assert_eq!(args.len(), info.params.len(), "argument count");

    let mut mem = HostMemory::new();
    let mut buffer_ids = Vec::new();
    let mut values = Vec::new();
    let mut local_bytes = info.static_local_bytes as usize;
    for (arg, param) in args.iter().zip(&info.params) {
        values.push(match (&param.kind, arg) {
            (KernelParamKind::GlobalBuffer { .. }, Arg::Buffer(bytes)) => {
                let buffer = mem.add_buffer(bytes.clone());
                buffer_ids.push(buffer);
                Value::Ptr(Ptr {
                    space: AddressSpace::Global,
                    buffer,
                    byte_offset: 0,
                })
            }
            (KernelParamKind::Scalar(ty), Arg::Scalar(v)) => value::convert(*v, *ty),
            (KernelParamKind::LocalBuffer { elem }, Arg::Local(bytes)) => {
                local_bytes = local_bytes.next_multiple_of(elem.size_bytes());
                let ptr = local_ptr(local_bytes);
                local_bytes += bytes;
                ptr
            }
            (kind, arg) => panic!("parameter `{}` expects {kind:?}, got {arg:?}", param.name),
        });
    }

    let size = |v: [usize; 3]| v.map(|n| n as u64);
    let (global_size, local_size) = (size(range.global), size(range.local));
    let num_groups = [0, 1, 2].map(|d| global_size[d] / local_size[d]);
    let mut counters = CostCounters::default();

    for group_id in ids(num_groups) {
        let mut local_mem = vec![0u8; local_bytes];
        let mut items: Vec<WorkItem> = ids(local_size)
            .map(|local_id| {
                let geometry = ItemGeometry {
                    work_dim: range.dims,
                    global_id: [0, 1, 2].map(|d| group_id[d] * local_size[d] + local_id[d]),
                    local_id,
                    group_id,
                    global_size,
                    local_size,
                    num_groups,
                };
                let mut item = WorkItem::new(program, info.func, &values, geometry);
                for array in &info.local_arrays {
                    item.bind_entry_slot(array.slot, local_ptr(array.byte_offset as usize));
                }
                item.set_ops_budget(ops_budget);
                item
            })
            .collect();

        // Rounds between barriers. Entering a round no item has finished;
        // leaving it either all have, or all wait at the same barrier.
        loop {
            let mut barrier = None;
            for item in &mut items {
                let exit =
                    item.run_reference(&mem, &mut local_mem)
                        .map_err(|error| Fault::Item {
                            global_id: item.geometry().global_id,
                            error,
                        })?;
                if let Exit::Barrier(id) = exit {
                    if *barrier.get_or_insert(id) != id {
                        return Err(Fault::BarrierDivergence { group_id });
                    }
                }
            }
            let finished = items.iter().filter(|item| item.is_finished()).count();
            if finished == items.len() {
                break;
            }
            if finished > 0 {
                return Err(Fault::BarrierDivergence { group_id });
            }
        }
        for item in &items {
            counters.merge(&item.counters);
        }
    }

    Ok(Outcome {
        buffers: buffer_ids.into_iter().map(|id| mem.bytes(id)).collect(),
        counters,
    })
}

/// Every id of a 3-D extent, x fastest (OpenCL's linear order).
fn ids(extent: [u64; 3]) -> impl Iterator<Item = [u64; 3]> {
    let [nx, ny, nz] = extent;
    (0..nz).flat_map(move |z| (0..ny).flat_map(move |y| (0..nx).map(move |x| [x, y, z])))
}
