//! Cost model for the out-of-core blocked Floyd-Warshall.
//!
//! "For a randomly generated graph with `n₀` vertices, we can observe the
//! computation time `T₀`. Then, for any given graph with `n` vertices, we
//! estimate the cost of computation to be `T₀ · (n/n₀)³`." Transfers
//! follow the paper's `n_d · W · (3b² + n²) / TH` expression.

use crate::calibration::{CoeffKey, EstimateParts};
use crate::ooc_fw::{max_block_side, ooc_floyd_warshall};
use crate::options::FwOptions;
use crate::selector::CostModels;
use crate::tile_store::{StorageBackend, TileStore};
use apsp_gpu_sim::{DeviceProfile, GpuDevice};
use apsp_graph::generators::{gnp, WeightRange};
use apsp_graph::CsrGraph;

/// Calibrated Floyd-Warshall model.
#[derive(Debug, Clone, Copy)]
pub struct FwModel {
    /// Training graph size.
    pub n0: usize,
    /// Measured compute-only seconds (kernel time) on the training graph.
    pub t0_compute: f64,
}

/// Training size: large enough that kernel time dominates launch
/// overhead, small enough to calibrate in well under a second of host
/// time.
const TRAIN_N: usize = 320;

impl FwModel {
    /// Calibrate by running the out-of-core implementation on a random
    /// graph, exactly as the paper does. The scratch device is given a
    /// memory cap that forces a few-way blocking so the measured constant
    /// reflects the out-of-core kernel schedule.
    pub fn calibrate(profile: &DeviceProfile) -> Self {
        // Scratch device: capacity chosen to force ~2-way blocking at the
        // training size regardless of the target device's capacity (the
        // constant being measured is compute throughput, not memory).
        let cap = ((TRAIN_N / 2) * (TRAIN_N / 2) * 4 * 6) as u64;
        let mut dev = GpuDevice::new(profile.with_memory_bytes(cap));
        let g = gnp(TRAIN_N, 0.05, WeightRange::default(), 0xF0);
        let mut store =
            TileStore::new(TRAIN_N, &StorageBackend::Memory).expect("memory store cannot fail");
        ooc_floyd_warshall(&mut dev, &g, &mut store, &FwOptions::default())
            .expect("training run must fit by construction");
        let report = dev.report();
        FwModel {
            n0: TRAIN_N,
            t0_compute: report.total_kernel_seconds(),
        }
    }

    /// Estimated compute seconds for an `n`-vertex graph.
    pub fn compute_seconds(&self, n: usize) -> f64 {
        let r = n as f64 / self.n0 as f64;
        self.t0_compute * r * r * r
    }

    /// Estimated transfer seconds: the paper's
    /// `n_d · W · (3b² + n²) / TH`.
    pub fn transfer_seconds(&self, models: &CostModels, n: usize) -> f64 {
        let w = std::mem::size_of::<apsp_graph::Dist>() as f64;
        let dev = GpuDevice::new(models.profile().clone());
        let b = max_block_side(&dev, 5).max(1).min(n.max(1));
        let n_d = n.div_ceil(b) as f64;
        let (bf, nf) = (b as f64, n as f64);
        n_d * w * (3.0 * bf * bf + nf * nf) / models.throughput
    }

    /// The estimate's seed-constant decomposition (compute anchored on
    /// [`CoeffKey::FwT0`], plus the transfer term).
    pub fn estimate_parts(&self, models: &CostModels, g: &CsrGraph) -> EstimateParts {
        let n = g.num_vertices();
        EstimateParts {
            key: CoeffKey::FwT0,
            compute_seed: self.compute_seconds(n),
            transfer: self.transfer_seconds(models, n),
        }
    }

    /// Total estimate, with `models`' refit correction applied to the
    /// compute term.
    pub fn estimate_seconds(&self, models: &CostModels, g: &CsrGraph) -> f64 {
        self.estimate_parts(models, g)
            .refitted_seconds(&models.refit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_produces_positive_constant() {
        let m = FwModel::calibrate(&DeviceProfile::v100());
        assert!(m.t0_compute > 0.0);
        assert_eq!(m.n0, TRAIN_N);
    }

    #[test]
    fn estimate_scales_cubically() {
        let m = FwModel::calibrate(&DeviceProfile::v100());
        let r = m.compute_seconds(2 * TRAIN_N) / m.compute_seconds(TRAIN_N);
        assert!((r - 8.0).abs() < 1e-9);
    }

    #[test]
    fn estimate_tracks_actual_run() {
        // The model must predict an actual out-of-core run within a small
        // factor (the paper's Fig 6 quality bar).
        let profile = DeviceProfile::v100().with_memory_bytes(400 << 10);
        let models = CostModels::calibrate(&profile);
        let n = 200;
        let g = gnp(n, 0.05, WeightRange::default(), 0xAB);
        let mut dev = GpuDevice::new(profile);
        let mut store = TileStore::new(n, &StorageBackend::Memory).unwrap();
        let stats = ooc_floyd_warshall(&mut dev, &g, &mut store, &FwOptions::default()).unwrap();
        let predicted = models.fw.estimate_seconds(&models, &g);
        let actual = stats.sim_seconds;
        let ratio = predicted / actual;
        assert!(
            (0.25..4.0).contains(&ratio),
            "predicted {predicted}, actual {actual}"
        );
    }

    #[test]
    fn k80_transfers_estimated_slower_than_v100() {
        // At calibration size both devices are launch/occupancy bound, so
        // the compute constants are not strictly ordered; the transfer
        // term, driven by the measured PCIe rates (7.23 vs 11.75 GB/s),
        // must be.
        let mv = CostModels::calibrate(&DeviceProfile::v100());
        let mk = CostModels::calibrate(&DeviceProfile::k80());
        assert!(mk.throughput < mv.throughput);
        let n = 10_000;
        assert!(mk.fw.transfer_seconds(&mk, n) > mv.fw.transfer_seconds(&mv, n));
    }
}
