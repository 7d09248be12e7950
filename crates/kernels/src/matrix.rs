//! Dense distance matrices in device memory.

use apsp_gpu_sim::{DeviceBuffer, GpuDevice, OutOfDeviceMemory, Pinning, StreamId};
use apsp_graph::{Dist, INF};

/// A `rows × cols` row-major distance matrix living in (simulated) device
/// memory.
#[derive(Debug)]
pub struct DeviceMatrix {
    buf: DeviceBuffer<Dist>,
    rows: usize,
    cols: usize,
}

impl DeviceMatrix {
    /// Allocate a device matrix filled with `INF` except for zeros on the
    /// main diagonal (only meaningful for square matrices; rectangular
    /// panels get all-`INF`).
    pub fn alloc(dev: &GpuDevice, rows: usize, cols: usize) -> Result<Self, OutOfDeviceMemory> {
        let mut buf: DeviceBuffer<Dist> = dev.alloc(rows * cols)?;
        buf.as_mut_slice().fill(INF);
        if rows == cols {
            for i in 0..rows {
                buf.as_mut_slice()[i * cols + i] = 0;
            }
        }
        Ok(DeviceMatrix { buf, rows, cols })
    }

    /// Allocate without initialization semantics (all `INF`).
    pub fn alloc_inf(dev: &GpuDevice, rows: usize, cols: usize) -> Result<Self, OutOfDeviceMemory> {
        let mut buf: DeviceBuffer<Dist> = dev.alloc(rows * cols)?;
        buf.as_mut_slice().fill(INF);
        Ok(DeviceMatrix { buf, rows, cols })
    }

    /// Rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access (host emulation).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Dist {
        self.buf.as_slice()[i * self.cols + j]
    }

    /// Element mutation (host emulation).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, d: Dist) {
        self.buf.as_mut_slice()[i * self.cols + j] = d;
    }

    /// The backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[Dist] {
        self.buf.as_slice()
    }

    /// The backing slice, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Dist] {
        self.buf.as_mut_slice()
    }

    /// Upload a host panel into rows `row_offset ..` of this matrix. The
    /// panel is `host.len() / cols` full rows; one transfer is charged.
    pub fn upload_rows(
        &mut self,
        dev: &mut GpuDevice,
        stream: StreamId,
        row_offset: usize,
        host: &[Dist],
        pinning: Pinning,
    ) {
        assert_eq!(host.len() % self.cols, 0, "partial rows in upload");
        dev.h2d(stream, host, &mut self.buf, row_offset * self.cols, pinning);
    }

    /// Download rows `row_range` into `host`; one transfer is charged.
    pub fn download_rows(
        &self,
        dev: &mut GpuDevice,
        stream: StreamId,
        row_range: std::ops::Range<usize>,
        host: &mut [Dist],
        pinning: Pinning,
    ) {
        assert!(row_range.end <= self.rows);
        assert_eq!(host.len(), row_range.len() * self.cols);
        dev.d2h(
            stream,
            &self.buf,
            row_range.start * self.cols..row_range.end * self.cols,
            host,
            pinning,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_gpu_sim::DeviceProfile;

    fn dev() -> GpuDevice {
        GpuDevice::new(DeviceProfile::v100())
    }

    #[test]
    fn square_alloc_has_zero_diagonal() {
        let d = dev();
        let m = DeviceMatrix::alloc(&d, 3, 3).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m.get(i, j), if i == j { 0 } else { INF });
            }
        }
    }

    #[test]
    fn rectangular_alloc_is_all_inf() {
        let d = dev();
        let m = DeviceMatrix::alloc(&d, 2, 5).unwrap();
        assert!(m.as_slice().iter().all(|&x| x == INF));
    }

    #[test]
    fn upload_download_roundtrip() {
        let mut d = dev();
        let s = d.default_stream();
        let mut m = DeviceMatrix::alloc(&d, 4, 3).unwrap();
        let panel = vec![1, 2, 3, 4, 5, 6]; // two rows
        m.upload_rows(&mut d, s, 1, &panel, Pinning::Pinned);
        assert_eq!(m.get(1, 0), 1);
        assert_eq!(m.get(2, 2), 6);
        let mut out = vec![0; 6];
        m.download_rows(&mut d, s, 1..3, &mut out, Pinning::Pinned);
        assert_eq!(out, panel);
        let r = d.report();
        assert_eq!(r.transfers_h2d, 1);
        assert_eq!(r.transfers_d2h, 1);
    }

    #[test]
    fn alloc_respects_device_capacity() {
        let d = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(1024));
        assert!(DeviceMatrix::alloc(&d, 16, 16).is_ok());
        assert!(DeviceMatrix::alloc(&d, 64, 64).is_err());
    }
}
