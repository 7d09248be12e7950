//! Capacity-limited device memory.
//!
//! Allocation bookkeeping is real even though the backing storage is host
//! RAM: a [`DeviceBuffer`] draws its byte footprint from the device's pool
//! and returns it on drop. Exceeding the profile's capacity yields
//! [`OutOfDeviceMemory`] — the failure mode that forces the out-of-core
//! algorithms to size their blocks and batches.

use parking_lot::Mutex;
use std::sync::Arc;

/// Error returned when an allocation exceeds remaining device memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfDeviceMemory {
    /// Bytes requested.
    pub requested: u64,
    /// Bytes free at the time of the request.
    pub available: u64,
    /// Total device capacity.
    pub capacity: u64,
}

impl std::fmt::Display for OutOfDeviceMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out of device memory: requested {} bytes, {} free of {} total",
            self.requested, self.available, self.capacity
        )
    }
}

impl std::error::Error for OutOfDeviceMemory {}

/// Whether a host-side staging area counts as pinned (page-locked).
///
/// Pinned transfers run at full PCIe rate; pageable ones pay the profile's
/// `pageable_penalty`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pinning {
    /// Page-locked host memory (`cudaMallocHost` in the original).
    Pinned,
    /// Ordinary host memory.
    Pageable,
}

#[derive(Debug)]
pub(crate) struct PoolInner {
    pub capacity: u64,
    pub in_use: u64,
    pub peak: u64,
    pub alloc_count: u64,
    /// Fault injection: each entry is a countdown of non-empty
    /// reservations; when one reaches zero that reservation fails with
    /// [`OutOfDeviceMemory`] even if capacity remains, and the entry is
    /// consumed. Models the spurious mid-run allocation failures
    /// (fragmentation, competing contexts) the out-of-core algorithms
    /// must survive. Multiple entries count down concurrently, so a test
    /// can schedule faults at the k-th and j-th future allocations.
    pub fail_countdowns: Vec<u64>,
}

/// Shared allocation state of one device.
#[derive(Debug, Clone)]
pub(crate) struct MemoryPool {
    inner: Arc<Mutex<PoolInner>>,
}

impl MemoryPool {
    pub(crate) fn new(capacity: u64) -> Self {
        MemoryPool {
            inner: Arc::new(Mutex::new(PoolInner {
                capacity,
                in_use: 0,
                peak: 0,
                alloc_count: 0,
                fail_countdowns: Vec::new(),
            })),
        }
    }

    pub(crate) fn reserve(&self, bytes: u64) -> Result<(), OutOfDeviceMemory> {
        let mut p = self.inner.lock();
        let available = p.capacity.saturating_sub(p.in_use);
        if bytes > 0 && !p.fail_countdowns.is_empty() {
            let mut fired = false;
            for countdown in p.fail_countdowns.iter_mut() {
                *countdown -= 1;
                fired |= *countdown == 0;
            }
            p.fail_countdowns.retain(|c| *c > 0);
            if fired {
                return Err(OutOfDeviceMemory {
                    requested: bytes,
                    available: 0, // the injected fault leaves nothing usable
                    capacity: p.capacity,
                });
            }
        }
        if bytes > available {
            return Err(OutOfDeviceMemory {
                requested: bytes,
                available,
                capacity: p.capacity,
            });
        }
        p.in_use += bytes;
        p.peak = p.peak.max(p.in_use);
        p.alloc_count += 1;
        Ok(())
    }

    pub(crate) fn release(&self, bytes: u64) {
        let mut p = self.inner.lock();
        debug_assert!(p.in_use >= bytes);
        p.in_use = p.in_use.saturating_sub(bytes);
    }

    pub(crate) fn in_use(&self) -> u64 {
        self.inner.lock().in_use
    }

    pub(crate) fn capacity(&self) -> u64 {
        self.inner.lock().capacity
    }

    pub(crate) fn peak(&self) -> u64 {
        self.inner.lock().peak
    }

    pub(crate) fn alloc_count(&self) -> u64 {
        self.inner.lock().alloc_count
    }

    pub(crate) fn inject_alloc_failure(&self, kth: u64) {
        assert!(kth >= 1, "allocation ordinals are 1-based");
        self.inner.lock().fail_countdowns.push(kth);
    }

    pub(crate) fn clear_alloc_failure(&self) {
        self.inner.lock().fail_countdowns.clear();
    }

    /// Change capacity at runtime. Shrinking below `in_use` is allowed:
    /// existing buffers stay valid, new reservations fail until enough is
    /// released.
    pub(crate) fn set_capacity(&self, bytes: u64) {
        self.inner.lock().capacity = bytes;
    }
}

/// A lease on device memory with no host storage behind it. Dropping it
/// frees the bytes. Stands for device buffers whose contents the host
/// never reads back, such as staging that only sizes a batched copy.
#[derive(Debug)]
pub struct DeviceReservation {
    bytes: u64,
    pool: MemoryPool,
}

impl DeviceReservation {
    pub(crate) fn new(bytes: u64, pool: MemoryPool) -> Result<Self, OutOfDeviceMemory> {
        pool.reserve(bytes)?;
        Ok(DeviceReservation { bytes, pool })
    }
}

impl Drop for DeviceReservation {
    fn drop(&mut self) {
        self.pool.release(self.bytes);
    }
}

/// A typed allocation in simulated device memory.
///
/// Holds real host storage (so kernels can compute on it) plus a lease on
/// the device pool. Dropping the buffer frees the device bytes.
#[derive(Debug)]
pub struct DeviceBuffer<T> {
    data: Vec<T>,
    lease: DeviceReservation,
}

impl<T: Copy + Default> DeviceBuffer<T> {
    pub(crate) fn new(len: usize, pool: MemoryPool) -> Result<Self, OutOfDeviceMemory> {
        let lease = DeviceReservation::new((len * std::mem::size_of::<T>()) as u64, pool)?;
        Ok(DeviceBuffer {
            data: vec![T::default(); len],
            lease,
        })
    }
}

impl<T> DeviceBuffer<T> {
    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Byte footprint charged to the device.
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.lease.bytes
    }

    /// Read access to the device data (host emulation).
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Write access to the device data (host emulation).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl<T: Copy> DeviceBuffer<T> {
    /// Fault injection: flip one bit inside the element range
    /// `range`, at byte-level offset `bit % (range bytes × 8)`. Models a
    /// soft error corrupting device memory. The caller must only arm
    /// this on buffers of plain integer elements (every bit pattern
    /// valid) — all the suite's device buffers qualify. No-op on an
    /// empty range.
    pub fn flip_bit(&mut self, range: std::ops::Range<usize>, bit: u64) {
        let elems = &mut self.data[range];
        let n_bytes = std::mem::size_of_val(elems);
        if n_bytes == 0 {
            return;
        }
        // SAFETY: `T: Copy` has no drop glue; the region is initialized,
        // and the documented contract restricts arming to integer
        // element types, for which every bit pattern is a valid value.
        let bytes =
            unsafe { std::slice::from_raw_parts_mut(elems.as_mut_ptr() as *mut u8, n_bytes) };
        let b = (bit % (n_bytes as u64 * 8)) as usize;
        bytes[b / 8] ^= 1 << (b % 8);
    }
}

impl<T> std::ops::Index<usize> for DeviceBuffer<T> {
    type Output = T;
    #[inline]
    fn index(&self, i: usize) -> &T {
        &self.data[i]
    }
}

impl<T> std::ops::IndexMut<usize> for DeviceBuffer<T> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.data[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_tracks_usage() {
        let pool = MemoryPool::new(1024);
        let buf: DeviceBuffer<u32> = DeviceBuffer::new(100, pool.clone()).unwrap();
        assert_eq!(pool.in_use(), 400);
        assert_eq!(buf.len(), 100);
        drop(buf);
        assert_eq!(pool.in_use(), 0);
        assert_eq!(pool.peak(), 400);
        assert_eq!(pool.alloc_count(), 1);
    }

    #[test]
    fn over_allocation_fails_cleanly() {
        let pool = MemoryPool::new(100);
        let ok: DeviceBuffer<u8> = DeviceBuffer::new(60, pool.clone()).unwrap();
        let err = DeviceBuffer::<u8>::new(50, pool.clone()).unwrap_err();
        assert_eq!(err.requested, 50);
        assert_eq!(err.available, 40);
        assert_eq!(err.capacity, 100);
        drop(ok);
        // Space comes back.
        assert!(DeviceBuffer::<u8>::new(100, pool).is_ok());
    }

    #[test]
    fn a_reservation_holds_bytes_without_storage() {
        let pool = MemoryPool::new(1024);
        let held = DeviceReservation::new(600, pool.clone()).unwrap();
        assert_eq!((pool.in_use(), pool.alloc_count()), (600, 1));
        assert!(DeviceReservation::new(600, pool.clone()).is_err());
        drop(held);
        assert_eq!((pool.in_use(), pool.peak()), (0, 600));
    }

    #[test]
    fn zero_length_buffers_are_free() {
        let pool = MemoryPool::new(0);
        let buf: DeviceBuffer<u64> = DeviceBuffer::new(0, pool.clone()).unwrap();
        assert!(buf.is_empty());
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn indexing_and_mutation() {
        let pool = MemoryPool::new(1 << 20);
        let mut buf: DeviceBuffer<u32> = DeviceBuffer::new(4, pool).unwrap();
        buf[2] = 7;
        buf.as_mut_slice()[3] = 9;
        assert_eq!(buf.as_slice(), &[0, 0, 7, 9]);
        assert_eq!(buf[3], 9);
    }

    #[test]
    fn injected_failure_hits_kth_alloc_then_clears() {
        let pool = MemoryPool::new(1 << 20);
        pool.inject_alloc_failure(2);
        let _a: DeviceBuffer<u32> = DeviceBuffer::new(8, pool.clone()).unwrap();
        let err = DeviceBuffer::<u32>::new(8, pool.clone()).unwrap_err();
        assert_eq!(err.available, 0);
        assert_eq!(err.capacity, 1 << 20);
        // One-shot: the next allocation succeeds again.
        assert!(DeviceBuffer::<u32>::new(8, pool.clone()).is_ok());
        // Zero-byte reservations never consume the countdown.
        pool.inject_alloc_failure(1);
        assert!(DeviceBuffer::<u32>::new(0, pool.clone()).is_ok());
        assert!(DeviceBuffer::<u32>::new(1, pool.clone()).is_err());
        // And the fault can be disarmed before it fires.
        pool.inject_alloc_failure(1);
        pool.clear_alloc_failure();
        assert!(DeviceBuffer::<u32>::new(1, pool).is_ok());
    }

    #[test]
    fn multiple_injected_faults_count_down_concurrently() {
        let pool = MemoryPool::new(1 << 20);
        pool.inject_alloc_failure(1);
        pool.inject_alloc_failure(3);
        assert!(DeviceBuffer::<u32>::new(8, pool.clone()).is_err()); // fault 1
        assert!(DeviceBuffer::<u32>::new(8, pool.clone()).is_ok()); // countdown 3 -> 1 left
        assert!(DeviceBuffer::<u32>::new(8, pool.clone()).is_err()); // fault 2
        assert!(DeviceBuffer::<u32>::new(8, pool).is_ok());
    }

    #[test]
    fn shrunken_capacity_blocks_new_allocs_only() {
        let pool = MemoryPool::new(1024);
        let held: DeviceBuffer<u8> = DeviceBuffer::new(512, pool.clone()).unwrap();
        pool.set_capacity(256); // below in_use
        let err = DeviceBuffer::<u8>::new(1, pool.clone()).unwrap_err();
        assert_eq!(err.available, 0);
        assert_eq!(err.capacity, 256);
        drop(held);
        assert!(DeviceBuffer::<u8>::new(200, pool).is_ok());
    }

    #[test]
    fn flip_bit_targets_the_requested_range_and_wraps() {
        let pool = MemoryPool::new(1 << 20);
        let mut buf: DeviceBuffer<u32> = DeviceBuffer::new(4, pool).unwrap();
        // Bit 0 of element 2 (range starts there).
        buf.flip_bit(2..4, 0);
        assert_eq!(buf.as_slice(), &[0, 0, 1, 0]);
        // 64 bits in the 2-element range: bit 70 wraps to bit 6.
        buf.flip_bit(2..4, 70);
        assert_eq!(buf.as_slice(), &[0, 0, 1 | (1 << 6), 0]);
        // Empty range is a no-op.
        buf.flip_bit(1..1, 5);
        assert_eq!(buf.as_slice(), &[0, 0, 1 | (1 << 6), 0]);
    }

    #[test]
    fn error_displays_usefully() {
        let e = OutOfDeviceMemory {
            requested: 10,
            available: 5,
            capacity: 20,
        };
        let s = e.to_string();
        assert!(s.contains("10") && s.contains("5") && s.contains("20"));
    }
}
