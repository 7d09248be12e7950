//! The differential oracle.
//!
//! For every corpus case the runner computes a CPU reference
//! (`bgl_plus_apsp`), the in-core GPU baseline, and all twelve
//! out-of-core variants — the cross product of the three algorithms,
//! `Memory`/`Disk` storage, and transfer overlap on/off — on a device
//! sized small enough that the out-of-core machinery genuinely engages.
//! Any cell-level disagreement becomes a [`Divergence`] naming the first
//! diverging cell, the tile containing it, and the Floyd-Warshall pivot
//! round at which the expected value was established — the coordinates a
//! human needs to replay the failing relaxation.

use crate::corpus::Case;
use apsp_core::api::RunDetails;
use apsp_core::in_core::in_core_fw;
use apsp_core::options::{Algorithm, ApspOptions, FwOptions};
use apsp_core::{apsp, ApspError, StorageBackend, TileStore};
use apsp_cpu::{bgl_plus_apsp, DistMatrix};
use apsp_gpu_sim::{DeviceProfile, GpuDevice};
use apsp_graph::CsrGraph;
use std::path::PathBuf;

/// Tile side used for reporting when the producing algorithm has no
/// natural blocking (Johnson, boundary, in-core).
pub const REPORT_TILE: usize = 32;

/// How the differential runs are provisioned.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Device memory for the out-of-core variants. Small on purpose:
    /// every algorithm must tile/batch for the corpus sizes.
    pub device_bytes: u64,
    /// Directory for `Disk`-backed stores (spill files are removed when
    /// each store drops).
    pub scratch_dir: PathBuf,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            device_bytes: 256 << 10,
            scratch_dir: std::env::temp_dir().join("apsp-conformance"),
        }
    }
}

impl RunnerConfig {
    /// A `profile` device with [`RunnerConfig::device_bytes`] of memory.
    pub fn device_of(&self, profile: &DeviceProfile) -> GpuDevice {
        GpuDevice::new(profile.with_memory_bytes(self.device_bytes))
    }

    /// A V100 with [`RunnerConfig::device_bytes`] of memory.
    pub fn device(&self) -> GpuDevice {
        self.device_of(&DeviceProfile::v100())
    }

    /// The backend of a `kind` store, spilling under
    /// [`RunnerConfig::scratch_dir`].
    pub fn backend(&self, kind: StoreKind) -> StorageBackend {
        let dir = self.scratch_dir.clone();
        match kind {
            StoreKind::Memory => StorageBackend::Memory,
            StoreKind::Disk => StorageBackend::Disk(dir),
            // A few rows per shard at corpus sizes; still row-aligned.
            StoreKind::DiskSharded => StorageBackend::DiskSharded {
                dir,
                shard_bytes: 2048,
            },
        }
    }
}

/// Where a run's tile store lives.
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
    /// `Disk` when `disk` is set, `Memory` otherwise.
    pub fn of(disk: bool) -> StoreKind {
        if disk {
            StoreKind::Disk
        } else {
            StoreKind::Memory
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

/// `Err` naming the first cell, in row-major order, where `store`
/// differs from `want`, or why `store` could not be read.
pub(crate) fn check_exact(store: &TileStore, want: &DistMatrix) -> Result<(), String> {
    let got = store
        .to_dist_matrix()
        .map_err(|e| format!("store unreadable: {e}"))?;
    let (g, w, n) = (got.as_slice(), want.as_slice(), want.n());
    match g.iter().zip(w).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => Err(format!(
            "cell ({}, {}) = {}, expected {}",
            i / n,
            i % n,
            g[i],
            w[i]
        )),
    }
}

/// One out-of-core configuration under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Variant {
    /// Which algorithm runs.
    pub algorithm: Algorithm,
    /// `Disk`-backed store instead of `Memory`.
    pub disk: bool,
    /// Transfer/compute overlap on.
    pub overlap: bool,
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}/{}",
            self.algorithm.tag(),
            StoreKind::of(self.disk),
            if self.overlap { "overlap" } else { "serial" }
        )
    }
}

/// The full 3 × 2 × 2 variant matrix.
pub fn all_variants() -> Vec<Variant> {
    let mut v = Vec::with_capacity(12);
    for algorithm in [
        Algorithm::FloydWarshall,
        Algorithm::Johnson,
        Algorithm::Boundary,
    ] {
        for disk in [false, true] {
            for overlap in [false, true] {
                v.push(Variant {
                    algorithm,
                    disk,
                    overlap,
                });
            }
        }
    }
    v
}

/// A cell where one implementation disagrees with the reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// The corpus case (`"<family>-<seed>"`).
    pub case_name: String,
    /// The per-case seed — regenerates the exact graph.
    pub case_seed: u64,
    /// Which run diverged (`"fw/disk/overlap"`, `"in-core"`, …).
    pub variant: String,
    /// First diverging cell, row-major order.
    pub row: usize,
    /// Column of the first diverging cell.
    pub col: usize,
    /// Reference value.
    pub expected: u32,
    /// The implementation's value.
    pub got: u32,
    /// Tile side the coordinates below are expressed in (the diverging
    /// run's block when it has one, [`REPORT_TILE`] otherwise).
    pub block: usize,
    /// `(row / block, col / block)` — which tile holds the cell.
    pub tile: (usize, usize),
    /// The Floyd-Warshall pivot round (0-based pivot index) at which the
    /// reference value of this cell was first established; `None` when
    /// the input adjacency already supplies it (no pivot needed).
    pub pivot_round: Option<usize>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "divergence[{} vs reference] case {}: cell ({}, {}) = {}, expected {} \
             (tile ({}, {}) at block {}, expected value established {}); \
             reproduce with seed {:#x}",
            self.variant,
            self.case_name,
            self.row,
            self.col,
            self.got,
            self.expected,
            self.tile.0,
            self.tile.1,
            self.block,
            match self.pivot_round {
                Some(k) => format!("at pivot round {k}"),
                None => "by the input adjacency".into(),
            },
            self.case_seed,
        )
    }
}

/// Everything one case's differential sweep produced.
#[derive(Debug)]
pub struct CaseReport {
    /// First divergence of each disagreeing run (empty = full agreement).
    pub divergences: Vec<Divergence>,
    /// Runs compared against the reference (in-core baseline + variants).
    pub runs_compared: usize,
}

/// The pivot round (0-based pivot index) at which CPU Floyd-Warshall
/// first assigns `expected` to `(row, col)`; `None` if the adjacency
/// initialization already holds it.
pub fn pivot_round_of(g: &CsrGraph, row: usize, col: usize, expected: u32) -> Option<usize> {
    let mut d = DistMatrix::from_graph(g);
    if d.get(row, col) == expected {
        return None;
    }
    let n = g.num_vertices();
    for k in 0..n {
        for i in 0..n {
            let dik = d.get(i, k);
            if dik >= apsp_graph::INF {
                continue;
            }
            for j in 0..n {
                let cand = dik.saturating_add(d.get(k, j));
                if cand < d.get(i, j) {
                    d.set(i, j, cand);
                }
            }
        }
        if d.get(row, col) == expected {
            return Some(k);
        }
    }
    None
}

/// Diff `got` against `reference`, producing the first divergence in
/// row-major order (with tile and pivot-round coordinates) if any.
pub fn first_divergence(
    case: &Case,
    variant: &str,
    reference: &DistMatrix,
    got: &DistMatrix,
    block: usize,
) -> Option<Divergence> {
    let n = reference.n();
    debug_assert_eq!(got.n(), n);
    let (idx, (&e, &g)) = reference
        .as_slice()
        .iter()
        .zip(got.as_slice())
        .enumerate()
        .find(|(_, (e, g))| e != g)?;
    let (row, col) = (idx / n, idx % n);
    let block = block.max(1);
    Some(Divergence {
        case_name: case.name.clone(),
        case_seed: case.seed,
        variant: variant.to_string(),
        row,
        col,
        expected: e,
        got: g,
        block,
        tile: (row / block, col / block),
        pivot_round: pivot_round_of(&case.graph, row, col, e),
    })
}

/// Run one case through the in-core baseline and the full out-of-core
/// variant matrix, diffing everything against the CPU reference.
pub fn run_case(case: &Case, cfg: &RunnerConfig) -> Result<CaseReport, ApspError> {
    let reference = bgl_plus_apsp(&case.graph);
    let mut divergences = Vec::new();
    let mut runs_compared = 0;

    // In-core GPU baseline on a device big enough to hold the matrix.
    let mut big = GpuDevice::new(DeviceProfile::v100());
    let (incore, _) = in_core_fw(&mut big, &case.graph)?;
    runs_compared += 1;
    divergences.extend(first_divergence(
        case,
        "in-core",
        &reference,
        &incore,
        REPORT_TILE,
    ));

    for variant in all_variants() {
        let mut dev = cfg.device();
        let mut opts = ApspOptions {
            algorithm: Some(variant.algorithm),
            storage: cfg.backend(StoreKind::of(variant.disk)),
            fw: FwOptions {
                overlap_transfers: variant.overlap,
                ..Default::default()
            },
            ..Default::default()
        };
        opts.johnson.overlap_transfers = variant.overlap;
        opts.boundary.overlap_transfers = variant.overlap;
        let result = apsp(&case.graph, &mut dev, &opts)?;
        let block = match &result.details {
            RunDetails::FloydWarshall(stats) => stats.block,
            _ => REPORT_TILE,
        };
        let got = result.store.to_dist_matrix()?;
        runs_compared += 1;
        divergences.extend(first_divergence(
            case,
            &variant.to_string(),
            &reference,
            &got,
            block,
        ));
    }
    Ok(CaseReport {
        divergences,
        runs_compared,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{Case, Family};

    #[test]
    fn variant_matrix_is_3x2x2() {
        let vs = all_variants();
        assert_eq!(vs.len(), 12);
        let labels: std::collections::BTreeSet<String> = vs.iter().map(|v| v.to_string()).collect();
        assert_eq!(labels.len(), 12, "labels must be distinct");
        assert!(labels.contains("fw/disk/overlap"));
        assert!(labels.contains("boundary/memory/serial"));
    }

    #[test]
    fn pivot_round_distinguishes_direct_edges_from_relayed_paths() {
        // 0 → 1 → 2 with a worse direct 0 → 2 edge: d(0,2) = 2 appears
        // only once pivot 1 runs; d(0,1) = 1 is adjacency-direct.
        let mut b = apsp_graph::GraphBuilder::new(3);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        b.add_edge(0, 2, 10);
        let g = b.build();
        assert_eq!(pivot_round_of(&g, 0, 1, 1), None);
        assert_eq!(pivot_round_of(&g, 0, 2, 2), Some(1));
        // A value Floyd-Warshall never produces has no round.
        assert_eq!(pivot_round_of(&g, 0, 2, 3), None);
    }

    #[test]
    fn first_divergence_reports_tile_coordinates() {
        let case = Case::generate(Family::ErdosRenyi, 77);
        let reference = bgl_plus_apsp(&case.graph);
        let mut corrupted = reference.clone();
        let (r, c) = (41, 67);
        corrupted.set(r, c, corrupted.get(r, c).wrapping_add(5));
        let d = first_divergence(&case, "fw/memory/serial", &reference, &corrupted, 32)
            .expect("corruption must be found");
        assert_eq!((d.row, d.col), (r, c));
        assert_eq!(d.tile, (r / 32, c / 32));
        assert_eq!(d.case_seed, 77);
        let msg = d.to_string();
        assert!(msg.contains("tile (1, 2)"), "{msg}");
        assert!(msg.contains("0x4d"), "{msg}");
        // Agreement produces no divergence.
        assert!(first_divergence(&case, "x", &reference, &reference, 32).is_none());
    }
}
