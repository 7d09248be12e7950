//! In-core GPU APSP — the prior-work baseline the paper scales past.
//!
//! Harish & Narayanan \[16\] and the blocked-FW GPU line \[20\], \[35\] all
//! assume the whole n×n matrix fits in device memory; the paper's point
//! of departure is that this caps n at ~√(device bytes / 4) (≈ 65K on a
//! 16 GB V100 — before working space). This module implements that
//! baseline faithfully, including its hard size wall, so the crossover
//! can be demonstrated (`repro ablation-incore`).

use crate::error::ApspError;
use apsp_cpu::{DistMatrix, ExecBackend};
use apsp_gpu_sim::{GpuDevice, Pinning};
use apsp_graph::{CsrGraph, Dist, VertexId, INF};
use apsp_kernels::fw_block::fw_device_exec;
use apsp_kernels::DeviceMatrix;

/// Statistics from an in-core run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InCoreStats {
    /// Simulated seconds.
    pub sim_seconds: f64,
    /// Device bytes the matrix occupied.
    pub matrix_bytes: u64,
}

/// Largest `n` whose full n×n distance matrix fits the device right now.
pub fn max_in_core_vertices(dev: &GpuDevice) -> usize {
    ((dev.free_memory() / std::mem::size_of::<Dist>() as u64) as f64)
        .sqrt()
        .floor() as usize
}

/// Whole-matrix blocked Floyd-Warshall on the device. Fails with
/// [`ApspError::DeviceTooSmall`] when the matrix does not fit — the wall
/// the out-of-core implementations exist to remove.
pub fn in_core_fw(
    dev: &mut GpuDevice,
    g: &CsrGraph,
) -> Result<(DistMatrix, InCoreStats), ApspError> {
    let n = g.num_vertices();
    let bytes = (n * n * std::mem::size_of::<Dist>()) as u64;
    if bytes > dev.free_memory() {
        return Err(ApspError::DeviceTooSmall {
            algorithm: "in-core Floyd-Warshall",
            detail: format!(
                "matrix needs {bytes} bytes, device has {} free — use an out-of-core implementation",
                dev.free_memory()
            ),
        });
    }
    let start = dev.elapsed().seconds();
    let s = dev.default_stream();
    let host = DistMatrix::from_graph(g);
    let mut m = DeviceMatrix::alloc_inf(dev, n, n)?;
    if n > 0 {
        m.upload_rows(dev, s, 0, host.as_slice(), Pinning::Pinned);
        fw_device_exec(dev, s, &mut m, ExecBackend::default());
    }
    let mut out = vec![INF as Dist; n * n];
    if n > 0 {
        m.download_rows(dev, s, 0..n, &mut out, Pinning::Pinned);
    }
    let sim_seconds = dev.synchronize().seconds() - start;
    Ok((
        DistMatrix::from_raw(n, out),
        InCoreStats {
            sim_seconds,
            matrix_bytes: bytes,
        },
    ))
}

/// Like [`in_core_fw`] but sourced from/into raw adjacency conventions —
/// convenience for benchmarks comparing against the out-of-core paths.
pub fn in_core_fw_row(
    dev: &mut GpuDevice,
    g: &CsrGraph,
    row: VertexId,
) -> Result<Vec<Dist>, ApspError> {
    let (m, _) = in_core_fw(dev, g)?;
    Ok(m.row(row as usize).to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_cpu::bgl_plus_apsp;
    use apsp_gpu_sim::DeviceProfile;
    use apsp_graph::generators::{gnp, WeightRange};

    #[test]
    fn matches_reference_when_it_fits() {
        let g = gnp(90, 0.06, WeightRange::default(), 17);
        let mut dev = GpuDevice::new(DeviceProfile::v100());
        let (m, stats) = in_core_fw(&mut dev, &g).unwrap();
        assert_eq!(m, bgl_plus_apsp(&g));
        assert_eq!(stats.matrix_bytes, 90 * 90 * 4);
        assert!(stats.sim_seconds > 0.0);
    }

    #[test]
    fn hits_the_wall_exactly_where_advertised() {
        let dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(1 << 20));
        let cap = max_in_core_vertices(&dev);
        assert_eq!(cap, 512); // √(1 MiB / 4 B)
        let ok = gnp(cap, 0.01, WeightRange::default(), 1);
        let too_big = gnp(cap + 1, 0.01, WeightRange::default(), 1);
        let mut dev = dev;
        assert!(in_core_fw(&mut dev, &ok).is_ok());
        let err = in_core_fw(&mut dev, &too_big).unwrap_err();
        assert!(matches!(err, ApspError::DeviceTooSmall { .. }));
    }

    #[test]
    fn single_row_helper() {
        let g = gnp(60, 0.1, WeightRange::default(), 5);
        let mut dev = GpuDevice::new(DeviceProfile::v100());
        let row = in_core_fw_row(&mut dev, &g, 3).unwrap();
        assert_eq!(row, apsp_cpu::dijkstra_sssp(&g, 3));
    }

    #[test]
    fn empty_graph() {
        let g = apsp_graph::GraphBuilder::new(0).build();
        let mut dev = GpuDevice::new(DeviceProfile::v100());
        let (m, _) = in_core_fw(&mut dev, &g).unwrap();
        assert_eq!(m.n(), 0);
    }
}
