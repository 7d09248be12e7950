//! The multi-device (fleet) differential harness.
//!
//! Three contracts, each proven against the single-device oracle:
//!
//! * **Bit-identity** — [`run_multi_cell`]: the sharded executor on any
//!   fleet shape (device counts × V100/K80 mixes × Memory/Disk/sharded
//!   Disk × exec backends) must reproduce the single-device
//!   `ooc_boundary` matrix bit-for-bit (which is itself checked against
//!   the CPU reference).
//! * **Makespan monotonicity** — [`makespan_curve`]: on a homogeneous
//!   fleet, adding devices must never make the simulated makespan
//!   slower.
//! * **Kill–resume** — [`run_multi_kill_resume`]: a checkpointed
//!   multi-device run killed at a seed-chosen store operation and
//!   resumed on a *different* fleet shape must still produce the exact
//!   matrix — the commit cursor is device-count-independent. It runs
//!   [`crate::crash`]'s protocol with a kill fleet and a resume fleet.

use crate::corpus::Case;
use crate::crash::{kill_resume, CrashReport};
pub use crate::runner::StoreKind;
use crate::runner::{check_exact, RunnerConfig};
use apsp_core::multi_gpu::{self, ooc_boundary_multi};
use apsp_core::ooc_boundary::ooc_boundary;
use apsp_core::options::BoundaryOptions;
use apsp_core::{StorageBackend, TileStore};
use apsp_cpu::{bgl_plus_apsp, DistMatrix};
use apsp_gpu_sim::{DeviceProfile, GpuDevice};

/// One fleet cell's outcome.
#[derive(Debug)]
pub struct MultiCellReport {
    /// Human-readable fleet description (`"v100+k80"`).
    pub fleet: String,
    /// Devices in the fleet.
    pub num_devices: usize,
    /// Barrier-synchronized makespan of the multi run.
    pub makespan_s: f64,
    /// dist₄ panels placed on another device than their dist₂ block.
    pub stolen_panels: u32,
}

fn fleet_label(fleet: &[DeviceProfile]) -> String {
    fleet
        .iter()
        .map(|p| p.name.as_str())
        .collect::<Vec<_>>()
        .join("+")
}

/// The single-device oracle: `ooc_boundary` on a V100 with the same
/// device budget, checked against the CPU reference before use.
pub fn single_device_oracle(
    case: &Case,
    opts: &BoundaryOptions,
    cfg: &RunnerConfig,
) -> Result<DistMatrix, String> {
    let mut store = TileStore::new(case.graph.num_vertices(), &StorageBackend::Memory)
        .map_err(|e| format!("oracle store: {e}"))?;
    ooc_boundary(&mut cfg.device(), &case.graph, &mut store, opts)
        .map_err(|e| format!("single-device oracle failed on {}: {e}", case.name))?;
    let reference = bgl_plus_apsp(&case.graph);
    check_exact(&store, &reference).map_err(|e| {
        format!(
            "single-device oracle diverges from the CPU reference on {} at {e} (seed {:#x})",
            case.name, case.seed
        )
    })?;
    Ok(reference)
}

/// Run one fleet cell and diff it against `oracle` bit-for-bit.
pub fn run_multi_cell(
    case: &Case,
    fleet: &[DeviceProfile],
    store_kind: StoreKind,
    opts: &BoundaryOptions,
    oracle: &DistMatrix,
    cfg: &RunnerConfig,
) -> Result<MultiCellReport, String> {
    let label = fleet_label(fleet);
    let exec = opts.exec;
    let mut devs: Vec<GpuDevice> = fleet.iter().map(|p| cfg.device_of(p)).collect();
    let mut store = TileStore::new(case.graph.num_vertices(), &cfg.backend(store_kind))
        .map_err(|e| format!("store ({store_kind}): {e}"))?;
    let stats = ooc_boundary_multi(&mut devs, &case.graph, &mut store, opts).map_err(|e| {
        format!(
            "multi run [{label}/{store_kind}/{exec:?}] failed on {}: {e}",
            case.name
        )
    })?;
    check_exact(&store, oracle).map_err(|e| {
        format!(
            "multi run [{label}/{store_kind}/{exec:?}] diverges from the single-device \
             oracle on {} at {e} (seed {:#x})",
            case.name, case.seed
        )
    })?;
    Ok(MultiCellReport {
        fleet: label,
        num_devices: stats.num_devices,
        makespan_s: stats.sim_seconds,
        stolen_panels: stats.stolen_panels,
    })
}

/// The simulated makespan at each homogeneous fleet size — callers
/// assert the curve never rises.
///
/// The component count is pinned to `max(sizes)` (at least 8) so every
/// run schedules the *same* partition and only the fleet varies; left
/// free, the executor raises `k` to the device count, and a finer
/// partition has more boundary vertices — more total work, which would
/// confound the scheduling property being tested.
pub fn makespan_curve(
    case: &Case,
    sizes: &[usize],
    cfg: &RunnerConfig,
) -> Result<Vec<f64>, String> {
    let k = sizes.iter().copied().max().unwrap_or(1).max(8);
    let opts = BoundaryOptions {
        num_components: Some(k),
        ..Default::default()
    };
    let oracle = single_device_oracle(case, &opts, cfg)?;
    let mut curve = Vec::with_capacity(sizes.len());
    for &count in sizes {
        let fleet = vec![DeviceProfile::v100(); count];
        let report = run_multi_cell(case, &fleet, StoreKind::Memory, &opts, &oracle, cfg)?;
        curve.push(report.makespan_s);
    }
    Ok(curve)
}

/// Kill–resume across fleet shapes: the protocol of
/// [`crate::crash::run_kill_resume`], run checkpointed on
/// `kill_devices` V100s for the baseline and the kill (at a store
/// operation drawn from `crash_seed`) and resumed on `resume_devices`.
/// The resumed matrix must equal the uninterrupted run's bit-for-bit
/// and the checkpoint must be cleared.
pub fn run_multi_kill_resume(
    case: &Case,
    kill_devices: usize,
    resume_devices: usize,
    store_kind: StoreKind,
    crash_seed: u64,
    cfg: &RunnerConfig,
) -> Result<CrashReport, String> {
    let opts = BoundaryOptions {
        // Enough components that several commit barriers land.
        num_components: Some(6),
        ..Default::default()
    };
    let name = format!(
        "multi-crash-{}-{kill_devices}to{resume_devices}-{crash_seed:x}",
        case.name
    );
    kill_resume(
        case,
        &name,
        store_kind,
        crash_seed,
        cfg,
        |resume, store, ctx| {
            let count = if resume { resume_devices } else { kill_devices };
            let mut devs: Vec<GpuDevice> = (0..count).map(|_| cfg.device()).collect();
            multi_gpu::run(&mut devs, &case.graph, store, &opts, ctx).map(drop)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Family;

    #[test]
    fn one_heterogeneous_cell_round_trips() {
        let cfg = RunnerConfig::default();
        let case = Case::generate(Family::Grid, 0xF1EE7);
        let oracle = single_device_oracle(&case, &BoundaryOptions::default(), &cfg).unwrap();
        let fleet = [DeviceProfile::v100(), DeviceProfile::k80()];
        let report = run_multi_cell(
            &case,
            &fleet,
            StoreKind::Memory,
            &BoundaryOptions::default(),
            &oracle,
            &cfg,
        )
        .unwrap();
        assert_eq!(report.num_devices, 2);
        assert_eq!(report.fleet, "Tesla V100+Tesla K80");
    }
}
