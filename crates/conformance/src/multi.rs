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
//!   matrix — the commit cursor is device-count-independent.

use crate::corpus::{splitmix64, Case};
use crate::runner::RunnerConfig;
use apsp_core::multi_gpu::{self, ooc_boundary_multi};
use apsp_core::ooc_boundary::ooc_boundary;
use apsp_core::options::BoundaryOptions;
use apsp_core::{ApspErrorKind, Checkpoint, RunCtx, StorageBackend, TileStore};
use apsp_cpu::{bgl_plus_apsp, DistMatrix};
use apsp_gpu_sim::{DeviceProfile, GpuDevice};

/// Where a fleet cell's tile store lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    /// Host RAM.
    Memory,
    /// Single spill directory, default shard threshold — one file at
    /// conformance sizes.
    Disk,
    /// Spill directory with a tiny shard threshold, forcing the store
    /// across many files.
    DiskSharded,
}

impl StoreKind {
    fn backend(self, cfg: &RunnerConfig) -> StorageBackend {
        match self {
            StoreKind::Memory => StorageBackend::Memory,
            StoreKind::Disk => StorageBackend::Disk(cfg.scratch_dir.clone()),
            StoreKind::DiskSharded => StorageBackend::DiskSharded {
                dir: cfg.scratch_dir.clone(),
                // A few rows per shard at corpus sizes; still row-aligned.
                shard_bytes: 2048,
            },
        }
    }
}

impl std::fmt::Display for StoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StoreKind::Memory => "memory",
            StoreKind::Disk => "disk",
            StoreKind::DiskSharded => "disk-sharded",
        })
    }
}

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

fn sized(profile: &DeviceProfile, bytes: u64) -> DeviceProfile {
    profile.with_memory_bytes(bytes)
}

/// The single-device oracle: `ooc_boundary` on a V100 with the same
/// device budget, checked against the CPU reference before use.
pub fn single_device_oracle(
    case: &Case,
    opts: &BoundaryOptions,
    cfg: &RunnerConfig,
) -> Result<DistMatrix, String> {
    let mut dev = GpuDevice::new(sized(&DeviceProfile::v100(), cfg.device_bytes));
    let mut store = TileStore::new(case.graph.num_vertices(), &StorageBackend::Memory)
        .map_err(|e| format!("oracle store: {e}"))?;
    ooc_boundary(&mut dev, &case.graph, &mut store, opts)
        .map_err(|e| format!("single-device oracle failed on {}: {e}", case.name))?;
    let got = store
        .to_dist_matrix()
        .map_err(|e| format!("oracle store unreadable: {e}"))?;
    let reference = bgl_plus_apsp(&case.graph);
    if got != reference {
        return Err(format!(
            "single-device oracle diverges from the CPU reference on {} (seed {:#x})",
            case.name, case.seed
        ));
    }
    Ok(got)
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
    let mut devs: Vec<GpuDevice> = fleet
        .iter()
        .map(|p| GpuDevice::new(sized(p, cfg.device_bytes)))
        .collect();
    let mut store = TileStore::new(case.graph.num_vertices(), &store_kind.backend(cfg))
        .map_err(|e| format!("store ({store_kind}): {e}"))?;
    let stats = ooc_boundary_multi(&mut devs, &case.graph, &mut store, opts).map_err(|e| {
        format!(
            "multi run [{label}/{store_kind}/{exec:?}] failed on {}: {e}",
            case.name
        )
    })?;
    let got = store
        .to_dist_matrix()
        .map_err(|e| format!("multi store unreadable: {e}"))?;
    if &got != oracle {
        let n = oracle.n();
        let idx = (0..n * n)
            .find(|&i| got.as_slice()[i] != oracle.as_slice()[i])
            .unwrap();
        return Err(format!(
            "multi run [{label}/{store_kind}/{exec:?}] diverges from the single-device \
             oracle on {} at cell ({}, {}): {} vs {} (seed {:#x})",
            case.name,
            idx / n,
            idx % n,
            got.as_slice()[idx],
            oracle.as_slice()[idx],
            case.seed
        ));
    }
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

/// Kill–resume across fleet shapes: a checkpointed multi-device run on
/// `kill_devices` devices is killed at a store operation drawn from
/// `crash_seed`, then resumed on `resume_devices` devices. The resumed
/// matrix must equal the uninterrupted run's bit-for-bit and the
/// checkpoint must be cleared.
pub fn run_multi_kill_resume(
    case: &Case,
    kill_devices: usize,
    resume_devices: usize,
    store_kind: StoreKind,
    crash_seed: u64,
    cfg: &RunnerConfig,
) -> Result<crate::crash::CrashReport, String> {
    let g = &case.graph;
    let n = g.num_vertices();
    let reference = bgl_plus_apsp(g);
    let opts = BoundaryOptions {
        // Enough components that several commit barriers land.
        num_components: Some(6),
        ..Default::default()
    };
    let ckpt_dir = cfg.scratch_dir.join(format!(
        "multi-crash-{}-{}to{}-{:x}",
        case.name, kill_devices, resume_devices, crash_seed
    ));
    let backend = store_kind.backend(cfg);
    let new_fleet = |count: usize| -> Vec<GpuDevice> {
        (0..count)
            .map(|_| GpuDevice::new(sized(&DeviceProfile::v100(), cfg.device_bytes)))
            .collect()
    };
    let new_store = || TileStore::new(n, &backend).map_err(|e| format!("store: {e}"));
    let ckpt = Checkpoint::new(&ckpt_dir, g).map_err(|e| format!("checkpoint dir: {e}"))?;
    ckpt.clear().map_err(|e| format!("stale checkpoint: {e}"))?;
    let durable = RunCtx {
        checkpoint: Some(&ckpt),
        ..Default::default()
    };

    // Step 1: uninterrupted run — matrix A and the op budget.
    let mut devs = new_fleet(kill_devices);
    let mut store = new_store()?;
    store.arm_crash(u64::MAX);
    multi_gpu::run(&mut devs, g, &mut store, &opts, &durable)
        .map_err(|e| format!("uninterrupted multi run failed: {e}"))?;
    let total_ops = store.crash_ops();
    store.disarm_crash();
    let baseline = store
        .to_dist_matrix()
        .map_err(|e| format!("baseline store unreadable: {e}"))?;
    if baseline != reference {
        return Err(format!(
            "uninterrupted multi run diverges from the reference on {}",
            case.name
        ));
    }
    if ckpt.load().map_err(|e| e.to_string())?.is_some() {
        return Err("the uninterrupted run left its checkpoint behind".into());
    }
    if total_ops < 2 {
        return Err(format!(
            "run too small to interrupt ({total_ops} store ops)"
        ));
    }

    // Step 2: the kill.
    let mut s = crash_seed;
    let crash_after = 1 + splitmix64(&mut s) % (total_ops - 1);
    let mut devs = new_fleet(kill_devices);
    let mut store = new_store()?;
    store.arm_crash(crash_after);
    let interrupted_kind = match multi_gpu::run(&mut devs, g, &mut store, &opts, &durable) {
        Err(e) => e.kind(),
        Ok(_) => {
            return Err(format!(
                "armed crash after {crash_after}/{total_ops} ops never fired"
            ))
        }
    };
    if interrupted_kind != ApspErrorKind::Storage {
        return Err(format!(
            "kill surfaced as {interrupted_kind:?}, expected Storage"
        ));
    }
    drop(store);
    let resumed_from_manifest = ckpt.load().map_err(|e| e.to_string())?.is_some();

    // Step 3: resume on a different fleet shape.
    let mut devs = new_fleet(resume_devices);
    let mut store = new_store()?;
    multi_gpu::run(&mut devs, g, &mut store, &opts, &durable)
        .map_err(|e| format!("resume on {resume_devices} devices failed: {e}"))?;
    let resumed = store
        .to_dist_matrix()
        .map_err(|e| format!("resumed store unreadable: {e}"))?;
    if resumed != baseline {
        return Err(format!(
            "resume on {resume_devices} devices after a kill at op \
             {crash_after}/{total_ops} on {kill_devices} devices is not bit-identical \
             (case {}, seed {:#x})",
            case.name, case.seed
        ));
    }
    if ckpt.load().map_err(|e| e.to_string())?.is_some() {
        return Err("the resumed run left its checkpoint behind".into());
    }
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    Ok(crate::crash::CrashReport {
        total_ops,
        crash_after_ops: crash_after,
        interrupted_kind,
        resumed_from_manifest,
    })
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
