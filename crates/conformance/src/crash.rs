//! The kill–resume differential harness.
//!
//! Each cell of the crash matrix proves one checkpoint/resume contract:
//! a run killed at an arbitrary store operation and then resumed in a
//! fresh "process" (new devices, new store, same checkpoint directory)
//! produces a matrix bit-identical to the uninterrupted run. The kill
//! point is drawn deterministically from a seed, so every failure
//! reproduces from its printed `CrashReport`.
//!
//! One protocol runs every cell, in three steps:
//!
//! 1. **Baseline** — an uninterrupted checkpointed run with the crash
//!    counter armed at `u64::MAX`, measuring the total number of
//!    row-granular store operations and establishing matrix *A* (checked
//!    against the CPU reference).
//! 2. **Kill** — a fresh store replays the identical operation sequence
//!    with a crash armed after `N ∈ [1, total)` operations, drawn from
//!    the seed. The run must die with a typed `Storage` error; whatever
//!    the checkpoint directory holds at that instant is what a real
//!    crash would leave behind.
//! 3. **Resume** — another fresh store runs against the surviving
//!    directory. The result must equal *A* bitwise and the checkpoint
//!    must be cleared.
//!
//! The callers differ only in the run they pass in:
//! [`run_kill_resume`] runs one algorithm on a fresh device per step,
//! and [`crate::multi::run_multi_kill_resume`] runs the boundary driver
//! on a kill fleet for the first two steps and a resume fleet of
//! another size for the third.

use crate::corpus::{splitmix64, Case};
use crate::runner::{check_exact, RunnerConfig, StoreKind};
use apsp_core::options::{Algorithm, BoundaryOptions, FwOptions, JohnsonOptions};
use apsp_core::{ooc_boundary, ooc_fw, ooc_johnson};
use apsp_core::{ApspError, ApspErrorKind, Checkpoint, RunCtx, TileStore};
use apsp_cpu::bgl_plus_apsp;
use apsp_gpu_sim::GpuDevice;
use apsp_graph::CsrGraph;

/// Per-algorithm knobs for one harness cell: kill–resume here, the
/// fault and bit-flip cells in [`crate::fault`] and [`crate::sdc`].
/// Defaults mirror the production defaults; tests override them to
/// force multiple commit barriers (e.g. a fixed boundary component
/// count) so the resume path genuinely replays from a manifest.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrashCellOptions {
    /// Floyd-Warshall knobs for the cell.
    pub fw: FwOptions,
    /// Johnson knobs for the cell.
    pub johnson: JohnsonOptions,
    /// Boundary knobs for the cell.
    pub boundary: BoundaryOptions,
}

impl CrashCellOptions {
    /// Run `algorithm`'s out-of-core driver on its block of these
    /// options under `ctx`. Returns the run's retries and its
    /// panel-scoped and round-scoped SDC recoveries (boundary has no
    /// panel rung, so its panel count is 0).
    pub(crate) fn run(
        &self,
        algorithm: Algorithm,
        dev: &mut GpuDevice,
        g: &CsrGraph,
        store: &mut TileStore,
        ctx: &RunCtx,
    ) -> Result<(u32, u32, u32), ApspError> {
        Ok(match algorithm {
            Algorithm::FloydWarshall => {
                let s = ooc_fw::run(dev, g, store, &self.fw, ctx)?;
                (s.retries, s.sdc_panel_recoveries, s.sdc_round_recoveries)
            }
            Algorithm::Johnson => {
                let s = ooc_johnson::run(dev, g, store, &self.johnson, ctx)?;
                (s.retries, s.sdc_panel_recoveries, s.sdc_round_recoveries)
            }
            Algorithm::Boundary => {
                let s = ooc_boundary::run(dev, g, store, &self.boundary, ctx)?;
                (s.retries, 0, s.sdc_round_recoveries)
            }
        })
    }
}

/// What one kill–resume cell did, for logging and assertions.
#[derive(Debug)]
pub struct CrashReport {
    /// Row-granular store operations in the uninterrupted run.
    pub total_ops: u64,
    /// Operation budget the killed run was given (`1 ≤ ops < total`).
    pub crash_after_ops: u64,
    /// Typed classification of the injected failure (always `Storage`).
    pub interrupted_kind: ApspErrorKind,
    /// Whether the kill left a loadable manifest behind. `false` means
    /// the crash landed before the first commit (or mid-commit of the
    /// first), so the resume was a clean restart — still exact.
    pub resumed_from_manifest: bool,
}

impl std::fmt::Display for CrashReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "killed after {}/{} store ops ({:?}), resumed {} → exact",
            self.crash_after_ops,
            self.total_ops,
            self.interrupted_kind,
            if self.resumed_from_manifest {
                "from the manifest"
            } else {
                "as a clean restart (no commit survived)"
            },
        )
    }
}

/// Run one cell of the kill–resume matrix: `algorithm` on `case`, with
/// the store on `Memory` or `Disk` per `disk`, killed at a point drawn
/// from `crash_seed` and resumed from the surviving checkpoint, each
/// run on a fresh V100.
///
/// Returns `Err` with a reproduction-ready description on any contract
/// violation: the interrupted run not failing with a `Storage` error,
/// the resumed matrix differing from the uninterrupted one, or
/// checkpoint state leaking past a completed run.
pub fn run_kill_resume(
    case: &Case,
    algorithm: Algorithm,
    disk: bool,
    crash_seed: u64,
    cfg: &RunnerConfig,
    cell: &CrashCellOptions,
) -> Result<CrashReport, String> {
    let kind = StoreKind::of(disk);
    let name = format!(
        "crash-{}-{}-{kind}-{crash_seed:x}",
        case.name,
        algorithm.tag()
    );
    kill_resume(case, &name, kind, crash_seed, cfg, |_, store, ctx| {
        cell.run(algorithm, &mut cfg.device(), &case.graph, store, ctx)
            .map(drop)
    })
}

/// The kill–resume protocol every crash cell runs: a baseline, a kill,
/// then a resume, each on a fresh `kind` store, checkpointing into
/// `name` under the scratch directory. `run` performs one checkpointed
/// run on fresh devices; its flag is set for the resume.
pub(crate) fn kill_resume(
    case: &Case,
    name: &str,
    kind: StoreKind,
    crash_seed: u64,
    cfg: &RunnerConfig,
    mut run: impl FnMut(bool, &mut TileStore, &RunCtx) -> Result<(), ApspError>,
) -> Result<CrashReport, String> {
    let g = &case.graph;
    let reference = bgl_plus_apsp(g);
    // The checkpoint lives in its own subdirectory: `TileStore::persist`
    // refuses to write snapshots into a `Disk` store's spill directory.
    let ckpt_dir = cfg.scratch_dir.join(name);
    let backend = cfg.backend(kind);
    let new_store = || {
        TileStore::new(g.num_vertices(), &backend)
            .map_err(|e| format!("store creation failed: {e}"))
    };
    let ckpt =
        Checkpoint::new(&ckpt_dir, g).map_err(|e| format!("checkpoint dir unusable: {e}"))?;
    ckpt.clear()
        .map_err(|e| format!("stale checkpoint unclearable: {e}"))?;
    let ctx = RunCtx {
        checkpoint: Some(&ckpt),
        ..Default::default()
    };
    let manifest_left = |when: &str| {
        ckpt.load()
            .map(|m| m.is_some())
            .map_err(|e| format!("manifest unreadable {when}: {e}"))
    };

    // Step 1: the uninterrupted run — matrix A and the op budget.
    let mut store = new_store()?;
    store.arm_crash(u64::MAX);
    run(false, &mut store, &ctx)
        .map_err(|e| format!("uninterrupted checkpointed run failed: {e}"))?;
    let total_ops = store.crash_ops();
    store.disarm_crash();
    check_exact(&store, &reference).map_err(|e| format!("after the uninterrupted run: {e}"))?;
    if manifest_left("after the clean run")? {
        return Err("the uninterrupted run left its checkpoint behind".into());
    }
    if total_ops < 2 {
        return Err(format!(
            "run too small to interrupt ({total_ops} store ops)"
        ));
    }

    // Step 2: the kill. Same op sequence, so any budget below the total
    // is guaranteed to fire.
    let mut s = crash_seed;
    let crash_after = 1 + splitmix64(&mut s) % (total_ops - 1);
    let mut store = new_store()?;
    store.arm_crash(crash_after);
    let interrupted_kind = match run(false, &mut store, &ctx) {
        Err(e) => e.kind(),
        Ok(()) => {
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
    let resumed_from_manifest = manifest_left("after the kill")?;

    // Step 3: the resume — fresh devices, fresh store, same directory.
    let at = format!("a kill at op {crash_after}/{total_ops}");
    let mut store = new_store()?;
    run(true, &mut store, &ctx).map_err(|e| format!("resume after {at} failed: {e}"))?;
    check_exact(&store, &reference).map_err(|e| format!("after resuming {at}: {e}"))?;
    if manifest_left("after the resume")? {
        return Err("the resumed run left its checkpoint behind".into());
    }
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    Ok(CrashReport {
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
    fn one_cell_of_the_matrix_round_trips() {
        let cfg = RunnerConfig::default();
        let case = Case::generate(Family::ErdosRenyi, 0xC8A5);
        let cell = CrashCellOptions::default();
        let report = run_kill_resume(&case, Algorithm::FloydWarshall, false, 11, &cfg, &cell)
            .expect("kill–resume cell must hold");
        assert_eq!(report.interrupted_kind, ApspErrorKind::Storage);
        assert!(report.crash_after_ops < report.total_ops);
        assert!(report.to_string().contains("exact"));
    }
}
