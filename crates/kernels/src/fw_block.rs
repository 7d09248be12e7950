//! In-device blocked Floyd-Warshall.
//!
//! Runs full APSP over a square [`DeviceMatrix`] that fits on the device —
//! used for Stage 1 diagonal blocks of the out-of-core Floyd-Warshall, the
//! per-component blocks of the boundary algorithm (its dist₂) and the
//! boundary graph itself (dist₃).
//!
//! The computation executes on the host via the shared blocked kernel of
//! `apsp-cpu` (bit-exact with the CPU reference); the device is charged
//! the per-stage kernel launches and roofline costs of the tiled GPU
//! implementation \[20\].

use crate::minplus::{minplus_cost, minplus_launch};
use crate::model::THREADS_PER_BLOCK;
use apsp_cpu::blocked_fw::blocked_floyd_warshall_exec;
use apsp_cpu::{DistMatrix, ExecBackend};
use apsp_gpu_sim::{GpuDevice, KernelCost, LaunchConfig, StreamId};

use crate::matrix::DeviceMatrix;

/// Device tile side for the in-device blocked FW (limited by shared
/// memory on real hardware).
pub const FW_TILE: usize = 64;

/// Run APSP over the whole square matrix `m` in device memory, charging
/// the kernel schedule of the blocked GPU formulation: per round, one
/// diagonal-tile kernel, two pivot-panel kernels, one remainder kernel.
/// The execution backend only changes host wall-clock (Simd's threaded,
/// register-tiled loops vs. the scalar reference); results and charged
/// device time are identical.
pub fn fw_device_exec(
    dev: &mut GpuDevice,
    stream: StreamId,
    m: &mut DeviceMatrix,
    exec: ExecBackend,
) {
    assert_eq!(m.rows(), m.cols(), "Floyd-Warshall needs a square matrix");
    let n = m.rows();
    if n == 0 {
        return;
    }
    // Host-side exact computation.
    let mut host = DistMatrix::from_raw(n, m.as_slice().to_vec());
    blocked_floyd_warshall_exec(&mut host, FW_TILE, exec);
    m.as_mut_slice().copy_from_slice(host.as_slice());

    // Device-time accounting.
    let num_b = n.div_ceil(FW_TILE);
    let b = FW_TILE.min(n);
    for _round in 0..num_b {
        // Stage 1: diagonal tile (b³ work, one block).
        dev.launch(
            stream,
            "fw_diag",
            LaunchConfig::new(1, THREADS_PER_BLOCK),
            KernelCost::regular((b * b * b) as f64, (8 * b * b) as f64),
        );
        if num_b > 1 {
            // Stage 2: pivot row + pivot column panels.
            let panel = (num_b - 1) * b;
            dev.launch(
                stream,
                "fw_panels",
                minplus_launch(b, panel.max(1)),
                minplus_cost(b, b, panel.max(1)),
            );
            dev.launch(
                stream,
                "fw_panels",
                minplus_launch(panel.max(1), b),
                minplus_cost(panel.max(1), b, b),
            );
            // Stage 3: remainder.
            dev.launch(
                stream,
                "fw_remainder",
                minplus_launch(panel, panel),
                minplus_cost(panel, b, panel),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_cpu::bgl_plus_apsp;
    use apsp_gpu_sim::DeviceProfile;
    use apsp_graph::generators::{gnp, WeightRange};
    use apsp_graph::INF;

    fn dev() -> GpuDevice {
        GpuDevice::new(DeviceProfile::v100())
    }

    fn upload_graph(d: &GpuDevice, g: &apsp_graph::CsrGraph) -> DeviceMatrix {
        let host = DistMatrix::from_graph(g);
        let n = g.num_vertices();
        let mut m = DeviceMatrix::alloc(d, n, n).unwrap();
        m.as_mut_slice().copy_from_slice(host.as_slice());
        m
    }

    #[test]
    fn matches_cpu_reference() {
        let g = gnp(90, 0.06, WeightRange::default(), 17);
        let mut d = dev();
        let s = d.default_stream();
        let mut m = upload_graph(&d, &g);
        fw_device_exec(&mut d, s, &mut m, ExecBackend::default());
        let reference = bgl_plus_apsp(&g);
        assert_eq!(m.as_slice(), reference.as_slice());
    }

    #[test]
    fn ragged_sizes() {
        // n not a multiple of the tile side.
        let g = gnp(FW_TILE + 7, 0.1, WeightRange::default(), 3);
        let mut d = dev();
        let s = d.default_stream();
        let mut m = upload_graph(&d, &g);
        fw_device_exec(&mut d, s, &mut m, ExecBackend::default());
        assert_eq!(m.as_slice(), bgl_plus_apsp(&g).as_slice());
    }

    #[test]
    fn exec_backends_bit_identical_on_device_fw() {
        // Ragged n so the simd backend exercises both full and padded
        // edge register tiles inside stage 3.
        let g = gnp(FW_TILE + 29, 0.08, WeightRange::default(), 23);
        let run = |exec: ExecBackend| {
            let mut d = dev();
            let s = d.default_stream();
            let mut m = upload_graph(&d, &g);
            fw_device_exec(&mut d, s, &mut m, exec);
            (m.as_slice().to_vec(), d.synchronize().seconds())
        };
        let scalar = run(ExecBackend::Scalar);
        for exec in [
            ExecBackend::Simd { threads: Some(1) },
            ExecBackend::Simd { threads: Some(2) },
        ] {
            assert_eq!(run(exec), scalar, "{exec}");
        }
    }

    #[test]
    fn charged_time_bounded_below_by_flops_and_grows_superquadratically() {
        let time_for = |n: usize| {
            let mut d = dev();
            let s = d.default_stream();
            let mut m = DeviceMatrix::alloc(&d, n, n).unwrap();
            fw_device_exec(&mut d, s, &mut m, ExecBackend::default());
            d.synchronize().seconds()
        };
        let t512 = time_for(512);
        let t1024 = time_for(1024);
        // The n³ work at the profile's peak rate is a hard lower bound.
        let flop_floor = 1024f64.powi(3) / DeviceProfile::v100().compute_ops_per_sec;
        assert!(t1024 >= flop_floor, "t = {t1024}, floor = {flop_floor}");
        // At these sizes per-round launch overheads still matter (as on a
        // real GPU), but growth must already exceed the quadratic round
        // structure and stay below strict cubic.
        let ratio = t1024 / t512;
        assert!((2.2..9.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn empty_matrix_is_noop() {
        let mut d = dev();
        let s = d.default_stream();
        let mut m = DeviceMatrix::alloc(&d, 0, 0).unwrap();
        fw_device_exec(&mut d, s, &mut m, ExecBackend::default());
        assert_eq!(d.elapsed().seconds(), 0.0);
    }

    #[test]
    fn disconnected_vertices_stay_inf() {
        let mut d = dev();
        let s = d.default_stream();
        let mut m = DeviceMatrix::alloc(&d, 4, 4).unwrap();
        m.set(0, 1, 3); // only edge
        fw_device_exec(&mut d, s, &mut m, ExecBackend::default());
        assert_eq!(m.get(0, 1), 3);
        assert_eq!(m.get(1, 0), INF);
        assert_eq!(m.get(2, 3), INF);
    }
}
