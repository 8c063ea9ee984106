//! Device global memory: buffers and the [`GlobalMemory`] view used by
//! running kernels.
//!
//! Buffer bytes are stored as `AtomicU8` so that concurrently executing
//! work-groups (scheduled on different host threads) can access shared
//! buffers without undefined behaviour. Kernels that race *between* groups
//! observe unspecified byte values — the same guarantee real GPUs give —
//! but never corrupt the simulator. Races *inside* a group are ordered by
//! the engine: a group's lanes run on one host thread in an order fixed by
//! the program and the launch (`exec`'s module docs spell it out), so such a
//! kernel's result, while not the one of running its items one after
//! another, is the same for every `host_threads`, device count and run.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use skelcl_kernel::types::{AddressSpace, ScalarType};
use skelcl_kernel::value::{read_scalar, write_scalar, Value};
use skelcl_kernel::vm::{GlobalMemory, MemAccessError};

use crate::device::{Device, DeviceId};
use crate::error::{Error, Result};

#[derive(Debug)]
struct BufferInner {
    device: Arc<Device>,
    data: Box<[AtomicU8]>,
}

impl Drop for BufferInner {
    fn drop(&mut self) {
        self.device.release(self.data.len());
    }
}

/// A handle to a buffer in a device's global memory.
///
/// Cloning is cheap (reference counted); the device memory is released when
/// the last handle drops, mirroring SkelCL's automatic
/// allocation/deallocation of GPU memory for containers.
#[derive(Debug, Clone)]
pub struct DeviceBuffer {
    inner: Arc<BufferInner>,
}

impl DeviceBuffer {
    /// Allocates a zero-initialised buffer of `len` bytes on `device`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfDeviceMemory`] when the device is full.
    pub(crate) fn alloc(device: Arc<Device>, len: usize) -> Result<DeviceBuffer> {
        device.reserve(len)?;
        let data = (0..len).map(|_| AtomicU8::new(0)).collect();
        Ok(DeviceBuffer {
            inner: Arc::new(BufferInner { device, data }),
        })
    }

    /// Length of the buffer in bytes.
    pub fn len(&self) -> usize {
        self.inner.data.len()
    }

    /// Whether the buffer has zero length.
    pub fn is_empty(&self) -> bool {
        self.inner.data.is_empty()
    }

    /// The id of the owning device.
    pub fn device_id(&self) -> DeviceId {
        self.inner.device.id()
    }

    /// Copies `src` into the buffer at `offset` (raw, no simulated cost —
    /// the queue layer accounts time).
    pub(crate) fn write_bytes(&self, offset: usize, src: &[u8]) -> Result<()> {
        let data = &self.inner.data;
        if offset
            .checked_add(src.len())
            .is_none_or(|end| end > data.len())
        {
            return Err(Error::TransferOutOfRange {
                buffer_len: data.len(),
                offset,
                len: src.len(),
            });
        }
        for (slot, &b) in data[offset..offset + src.len()].iter().zip(src) {
            slot.store(b, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Copies from the buffer at `offset` into `dst`.
    pub(crate) fn read_bytes(&self, offset: usize, dst: &mut [u8]) -> Result<()> {
        let data = &self.inner.data;
        if offset
            .checked_add(dst.len())
            .is_none_or(|end| end > data.len())
        {
            return Err(Error::TransferOutOfRange {
                buffer_len: data.len(),
                offset,
                len: dst.len(),
            });
        }
        for (slot, b) in data[offset..offset + dst.len()].iter().zip(dst) {
            *b = slot.load(Ordering::Relaxed);
        }
        Ok(())
    }
}

/// The kernel-visible view of the buffers bound to one launch: buffer index
/// `i` in kernel pointers refers to `buffers[i]`.
#[derive(Debug, Clone)]
pub(crate) struct BufferTable {
    pub(crate) buffers: Vec<DeviceBuffer>,
}

impl BufferTable {
    fn buffer(
        &self,
        index: u32,
        byte_offset: i64,
        ty: ScalarType,
    ) -> std::result::Result<&BufferInner, MemAccessError> {
        self.buffers
            .get(index as usize)
            .map(|b| &*b.inner)
            .ok_or(MemAccessError {
                space: AddressSpace::Global,
                buffer: index,
                byte_offset,
                len: 0,
                ty,
            })
    }
}

impl GlobalMemory for BufferTable {
    fn load(
        &self,
        buffer: u32,
        byte_offset: i64,
        ty: ScalarType,
    ) -> std::result::Result<Value, MemAccessError> {
        let inner = self.buffer(buffer, byte_offset, ty)?;
        let size = ty.size_bytes();
        let len = inner.data.len();
        if byte_offset < 0 || (byte_offset as usize).saturating_add(size) > len {
            return Err(MemAccessError {
                space: AddressSpace::Global,
                buffer,
                byte_offset,
                len,
                ty,
            });
        }
        let off = byte_offset as usize;
        let mut tmp = [0u8; 8];
        for (i, slot) in inner.data[off..off + size].iter().enumerate() {
            tmp[i] = slot.load(Ordering::Relaxed);
        }
        Ok(read_scalar(&tmp, ty))
    }

    fn store(
        &self,
        buffer: u32,
        byte_offset: i64,
        ty: ScalarType,
        v: Value,
    ) -> std::result::Result<(), MemAccessError> {
        let inner = self.buffer(buffer, byte_offset, ty)?;
        let size = ty.size_bytes();
        let len = inner.data.len();
        if byte_offset < 0 || (byte_offset as usize).saturating_add(size) > len {
            return Err(MemAccessError {
                space: AddressSpace::Global,
                buffer,
                byte_offset,
                len,
                ty,
            });
        }
        let off = byte_offset as usize;
        let mut tmp = [0u8; 8];
        write_scalar(&mut tmp, ty, v);
        for (i, slot) in inner.data[off..off + size].iter().enumerate() {
            slot.store(tmp[i], Ordering::Relaxed);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;

    fn device() -> Arc<Device> {
        Arc::new(Device::new(DeviceId(0), DeviceSpec::test_tiny()))
    }

    #[test]
    fn alloc_and_accounting() {
        let d = device();
        let b = DeviceBuffer::alloc(d.clone(), 1024).unwrap();
        assert_eq!(b.len(), 1024);
        assert_eq!(d.allocated_bytes(), 1024);
        let b2 = b.clone();
        drop(b);
        assert_eq!(
            d.allocated_bytes(),
            1024,
            "clone keeps the allocation alive"
        );
        drop(b2);
        assert_eq!(d.allocated_bytes(), 0, "memory released on last drop");
    }

    #[test]
    fn alloc_exhaustion() {
        let d = device();
        let cap = d.spec().memory_bytes;
        let _b = DeviceBuffer::alloc(d.clone(), cap).unwrap();
        assert!(matches!(
            DeviceBuffer::alloc(d.clone(), 1),
            Err(Error::OutOfDeviceMemory { .. })
        ));
    }

    #[test]
    fn host_transfer_round_trip() {
        let d = device();
        let b = DeviceBuffer::alloc(d, 8).unwrap();
        b.write_bytes(2, &[1, 2, 3]).unwrap();
        let mut out = [0u8; 8];
        b.read_bytes(0, &mut out).unwrap();
        assert_eq!(out, [0, 0, 1, 2, 3, 0, 0, 0]);
    }

    #[test]
    fn transfer_bounds_checked() {
        let d = device();
        let b = DeviceBuffer::alloc(d, 4).unwrap();
        assert!(matches!(
            b.write_bytes(2, &[0; 3]),
            Err(Error::TransferOutOfRange { .. })
        ));
        let mut big = [0u8; 5];
        assert!(matches!(
            b.read_bytes(0, &mut big),
            Err(Error::TransferOutOfRange { .. })
        ));
    }

    #[test]
    fn buffer_table_load_store() {
        let d = device();
        let b = DeviceBuffer::alloc(d, 8).unwrap();
        let table = BufferTable {
            buffers: vec![b.clone()],
        };
        table
            .store(0, 4, ScalarType::Float, Value::F32(2.5))
            .unwrap();
        assert_eq!(
            table.load(0, 4, ScalarType::Float).unwrap(),
            Value::F32(2.5)
        );
        assert!(table.load(0, 5, ScalarType::Float).is_err());
        assert!(table.load(0, -1, ScalarType::Char).is_err());
        assert!(table.load(1, 0, ScalarType::Char).is_err());
    }

    #[test]
    fn empty_buffer() {
        let d = device();
        let b = DeviceBuffer::alloc(d, 0).unwrap();
        assert!(b.is_empty());
        b.write_bytes(0, &[]).unwrap();
    }
}
