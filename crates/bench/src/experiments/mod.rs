//! One module per paper table/figure, plus the ablations.
//!
//! Every experiment prints a self-describing report: the paper's claimed
//! band (where the paper states one) next to the measured value, so
//! EXPERIMENTS.md can be assembled directly from `repro all` output.

pub mod large;
pub mod optimizations;
pub mod selector_exps;
pub mod speedups;
pub mod tables;

use crate::AnalogRun;
use apsp_core::ooc_boundary::{ooc_boundary, BoundaryRunStats};
use apsp_core::ooc_fw::{ooc_floyd_warshall, FwRunStats};
use apsp_core::ooc_johnson::{ooc_johnson, JohnsonRunStats};
use apsp_core::options::{BoundaryOptions, FwOptions, JohnsonOptions};
use apsp_core::{ApspError, StorageBackend, TileStore};
use apsp_gpu_sim::{DeviceProfile, GpuDevice, SimReport};
use apsp_graph::CsrGraph;

/// Run the boundary algorithm; returns (sim seconds, stats, profile
/// report).
pub fn run_boundary(
    profile: &DeviceProfile,
    g: &CsrGraph,
    opts: &BoundaryOptions,
) -> Result<(f64, BoundaryRunStats, SimReport), ApspError> {
    let mut dev = GpuDevice::new(profile.clone());
    let mut store = TileStore::new(g.num_vertices(), &StorageBackend::Memory)?;
    let stats = ooc_boundary(&mut dev, g, &mut store, opts)?;
    Ok((stats.sim_seconds, stats, dev.report()))
}

/// Run Johnson's; returns (sim seconds, stats, report).
pub fn run_johnson(
    profile: &DeviceProfile,
    g: &CsrGraph,
    opts: &JohnsonOptions,
) -> Result<(f64, JohnsonRunStats, SimReport), ApspError> {
    let mut dev = GpuDevice::new(profile.clone());
    let mut store = TileStore::new(g.num_vertices(), &StorageBackend::Memory)?;
    let stats = ooc_johnson(&mut dev, g, &mut store, opts)?;
    Ok((stats.sim_seconds, stats, dev.report()))
}

/// Run out-of-core Floyd-Warshall; returns (sim seconds, stats, report).
pub fn run_fw(
    profile: &DeviceProfile,
    g: &CsrGraph,
    opts: &FwOptions,
) -> Result<(f64, FwRunStats, SimReport), ApspError> {
    let mut dev = GpuDevice::new(profile.clone());
    let mut store = TileStore::new(g.num_vertices(), &StorageBackend::Memory)?;
    let stats = ooc_floyd_warshall(&mut dev, g, &mut store, opts)?;
    Ok((stats.sim_seconds, stats, dev.report()))
}

/// Pretty label for an analog: `name (n=…, m=…)`.
pub fn label(run: &AnalogRun) -> String {
    format!(
        "{} (n={}, m={})",
        run.entry.name,
        run.graph.num_vertices(),
        run.graph.num_edges()
    )
}
