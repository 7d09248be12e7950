//! Configuration for the out-of-core implementations and the front-end.

use crate::selector::SelectorConfig;
use crate::supervisor::SupervisionOptions;
use crate::tile_store::StorageBackend;
pub use apsp_cpu::ExecBackend;
use apsp_graph::Dist;

/// The three implementations of the paper (Section III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Out-of-core blocked Floyd-Warshall (Algorithm 1).
    FloydWarshall,
    /// Out-of-core batched Johnson's (Algorithm 2).
    Johnson,
    /// Out-of-core boundary algorithm (Algorithm 3).
    Boundary,
}

impl Algorithm {
    /// The short tag checkpoints, telemetry and case labels use (`fw`,
    /// `johnson`, `boundary`).
    pub fn tag(self) -> &'static str {
        match self {
            Algorithm::FloydWarshall => "fw",
            Algorithm::Johnson => "johnson",
            Algorithm::Boundary => "boundary",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Algorithm::FloydWarshall => "blocked Floyd-Warshall",
            Algorithm::Johnson => "Johnson's",
            Algorithm::Boundary => "boundary",
        };
        f.write_str(name)
    }
}

/// How aggressively the silent-data-corruption (SDC) guards check live
/// tile data. See `core::sdc` for the invariants behind each level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SdcGuardMode {
    /// No guarding (the pre-SDC behaviour): a flipped bit flows into
    /// the final matrix undetected.
    #[default]
    Off,
    /// The tile store keeps a per-row FNV checksum registry, verified on
    /// every read and re-verified in full at each barrier and at run
    /// end. Catches at-rest corruption of host-resident tiles
    /// deterministically. Measured on a 2-vCPU VM (Floyd-Warshall, Memory
    /// store, Simd, `gnp(n, 0.06)`, 256 KiB V100, best of 9 per mode in
    /// 12 interleaved rounds), it cost a median 1.04–1.06× the unguarded
    /// wall-clock at n = 96–320 (quartiles 1.02–1.10×).
    Checksum,
    /// [`SdcGuardMode::Checksum`] plus semantic (ABFT) invariants at
    /// every barrier: per-row distance sums must not increase across a
    /// relaxation round, and sampled triangle inequalities
    /// `d[i][j] ≤ d[i][k] ⊕ d[k][j]` (with `k` drawn only from
    /// completed pivot rows) must hold. Also catches corruption that
    /// happened *in flight* on the device, which no host-side checksum
    /// can see.
    Full,
}

impl SdcGuardMode {
    /// Whether any guarding is active.
    pub fn is_on(self) -> bool {
        self != SdcGuardMode::Off
    }

    /// Whether the semantic (monotone + triangle) checks run.
    pub fn semantic(self) -> bool {
        self == SdcGuardMode::Full
    }
}

impl std::fmt::Display for SdcGuardMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SdcGuardMode::Off => "off",
            SdcGuardMode::Checksum => "checksum",
            SdcGuardMode::Full => "full",
        })
    }
}

impl std::str::FromStr for SdcGuardMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(SdcGuardMode::Off),
            "checksum" => Ok(SdcGuardMode::Checksum),
            "full" => Ok(SdcGuardMode::Full),
            other => Err(format!(
                "unknown SDC guard mode `{other}` (expected off|checksum|full)"
            )),
        }
    }
}

/// When to use dynamic parallelism in the Johnson path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynamicParallelism {
    /// Never launch child kernels.
    Off,
    /// Always use the child-kernel path.
    On,
    /// The paper's policy: enable only when the batch size is too small
    /// to saturate the device.
    Auto,
}

/// Options for the Johnson implementation.
#[derive(Debug, Clone, Copy)]
pub struct JohnsonOptions {
    /// Near-Far bucket width; `None` derives it from the mean edge weight.
    pub delta: Option<Dist>,
    /// Dynamic-parallelism policy.
    pub dynamic_parallelism: DynamicParallelism,
    /// The constant `c` of the paper's batch formula
    /// `bat = (L − S)/(c·m)`: work-queue words per edge per SSSP instance.
    pub queue_words_per_edge: f64,
    /// Out-degree above which a vertex is "heavy" for child kernels.
    pub heavy_degree_threshold: usize,
    /// Double-buffer the result panels so D2H overlaps the next batch.
    pub overlap_transfers: bool,
    /// Host execution backend for the MSSP batches.
    pub exec: ExecBackend,
    /// Silent-corruption guard level for the batch barriers.
    pub sdc_guard: SdcGuardMode,
}

impl Default for JohnsonOptions {
    fn default() -> Self {
        JohnsonOptions {
            delta: None,
            dynamic_parallelism: DynamicParallelism::Auto,
            queue_words_per_edge: 1.0,
            heavy_degree_threshold: 256,
            overlap_transfers: true,
            exec: ExecBackend::default(),
            sdc_guard: SdcGuardMode::default(),
        }
    }
}

/// Options for the boundary implementation.
#[derive(Debug, Clone, Copy)]
pub struct BoundaryOptions {
    /// Number of components; `None` uses the paper's `√n / 4`.
    pub num_components: Option<usize>,
    /// Accumulate output row panels in a device buffer and transfer
    /// `N_row` panels at once (the paper's batching optimization,
    /// 1.99–5.71× in its Fig 8).
    pub batch_transfers: bool,
    /// Double-buffer the staging so transfers overlap dist₄ compute
    /// (12.7–29.1% in Fig 8).
    pub overlap_transfers: bool,
    /// Partitioner seed (determinism).
    pub partition_seed: u64,
    /// Host execution backend for the FW blocks and chained multiplies.
    pub exec: ExecBackend,
    /// Silent-corruption guard level for the component-flush barriers.
    pub sdc_guard: SdcGuardMode,
}

impl Default for BoundaryOptions {
    fn default() -> Self {
        BoundaryOptions {
            num_components: None,
            batch_transfers: true,
            overlap_transfers: true,
            partition_seed: 0x9A17,
            exec: ExecBackend::default(),
            sdc_guard: SdcGuardMode::default(),
        }
    }
}

/// Options for the out-of-core Floyd-Warshall implementation.
#[derive(Debug, Clone, Copy)]
pub struct FwOptions {
    /// Tile side override; `None` sizes tiles to device memory.
    pub block_size: Option<usize>,
    /// Double-buffer stage-3 tiles so the D2H of one tile overlaps the
    /// compute of the next.
    pub overlap_transfers: bool,
    /// Host execution backend for the tile kernels.
    pub exec: ExecBackend,
    /// Silent-corruption guard level for the pivot-round barriers.
    pub sdc_guard: SdcGuardMode,
}

impl Default for FwOptions {
    fn default() -> Self {
        FwOptions {
            block_size: None,
            overlap_transfers: true,
            exec: ExecBackend::default(),
            sdc_guard: SdcGuardMode::default(),
        }
    }
}

/// Crash-safe checkpointing for [`crate::api::apsp`].
#[derive(Debug, Clone)]
pub struct CheckpointOptions {
    /// Directory holding the run manifest and matrix snapshots (created
    /// if missing). Must not be a `Disk` backend's spill directory.
    pub dir: std::path::PathBuf,
    /// `true`: continue from a checkpoint in `dir` if one exists
    /// (validated against the graph before any work). `false`: clear any
    /// existing checkpoint and start fresh — either way the run commits
    /// its progress as it goes.
    pub resume: bool,
}

/// Front-end options for [`crate::api::apsp`].
#[derive(Debug, Clone)]
pub struct ApspOptions {
    /// Force a specific implementation; `None` runs the selector.
    pub algorithm: Option<Algorithm>,
    /// Where the result matrix lives.
    pub storage: StorageBackend,
    /// Johnson-specific knobs.
    pub johnson: JohnsonOptions,
    /// Boundary-specific knobs.
    pub boundary: BoundaryOptions,
    /// Floyd-Warshall-specific knobs.
    pub fw: FwOptions,
    /// Selector configuration (density thresholds, sampling).
    pub selector: SelectorConfig,
    /// Checkpoint/resume; `None` runs without durability.
    pub checkpoint: Option<CheckpointOptions>,
    /// Runtime supervision: deadline, progress watchdog, cancellation,
    /// retry policy, and the algorithm fallback chain.
    pub supervision: SupervisionOptions,
    /// Host execution backend, applied to every algorithm and the tile
    /// store: [`ApspOptions::resolved`] overrides the per-algorithm
    /// `exec` fields with it.
    pub exec: ExecBackend,
    /// Record run telemetry (phase spans, calibration records, byte and
    /// launch counters) and attach a [`crate::telemetry::RunReport`] to
    /// the result. Off by default; enabling it never changes the
    /// computed distances or the simulated clock.
    pub telemetry: bool,
    /// Directory of the persisted per-device-profile calibration store
    /// (created if missing). When set, the selector consults the
    /// store's learned coefficient corrections before the seed
    /// constants, and each successful run folds its realized seconds
    /// back in — so repeated runs on one profile converge. Learning is
    /// applied at run *end*: within a single run the selection and the
    /// computed matrix are identical with calibration on or off. A
    /// corrupt store is ignored for the run (seed constants apply) and
    /// overwritten by the next commit. `None` disables persistence.
    pub calibration_dir: Option<std::path::PathBuf>,
    /// Silent-corruption guard level, applied to every algorithm and
    /// the tile store: [`ApspOptions::resolved`] overrides the
    /// per-algorithm `sdc_guard` fields with it. Off by default; with
    /// guards on, a clean run computes bit-identical distances — the
    /// guards only ever *read* live data.
    pub sdc_guard: SdcGuardMode,
}

impl Default for ApspOptions {
    fn default() -> Self {
        ApspOptions {
            algorithm: None,
            storage: StorageBackend::Memory,
            johnson: JohnsonOptions::default(),
            boundary: BoundaryOptions::default(),
            fw: FwOptions::default(),
            selector: SelectorConfig::default(),
            checkpoint: None,
            supervision: SupervisionOptions::default(),
            exec: ExecBackend::default(),
            telemetry: false,
            calibration_dir: None,
            sdc_guard: SdcGuardMode::default(),
        }
    }
}

impl ApspOptions {
    /// These options as a run applies them: the front-end's `exec` and
    /// `sdc_guard` written into the `fw`, `johnson` and `boundary`
    /// blocks, so whichever algorithm runs uses the same backend and
    /// guard level.
    pub fn resolved(&self) -> ApspOptions {
        let mut o = self.clone();
        o.fw.exec = o.exec;
        o.johnson.exec = o.exec;
        o.boundary.exec = o.exec;
        o.fw.sdc_guard = o.sdc_guard;
        o.johnson.sdc_guard = o.sdc_guard;
        o.boundary.sdc_guard = o.sdc_guard;
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        assert_eq!(Algorithm::Johnson.to_string(), "Johnson's");
        assert_eq!(Algorithm::Boundary.to_string(), "boundary");
        assert!(Algorithm::FloydWarshall.to_string().contains("Floyd"));
    }

    #[test]
    fn defaults_follow_paper() {
        let o = ApspOptions::default();
        assert!(o.algorithm.is_none());
        assert!(o.boundary.batch_transfers);
        assert!(o.boundary.overlap_transfers);
        assert_eq!(o.johnson.dynamic_parallelism, DynamicParallelism::Auto);
        assert_eq!(o.sdc_guard, SdcGuardMode::Off);
    }

    #[test]
    fn sdc_guard_mode_round_trips_through_strings() {
        for mode in [
            SdcGuardMode::Off,
            SdcGuardMode::Checksum,
            SdcGuardMode::Full,
        ] {
            assert_eq!(mode.to_string().parse::<SdcGuardMode>().unwrap(), mode);
        }
        assert!("paranoid".parse::<SdcGuardMode>().is_err());
        assert!(!SdcGuardMode::Off.is_on());
        assert!(SdcGuardMode::Checksum.is_on());
        assert!(!SdcGuardMode::Checksum.semantic());
        assert!(SdcGuardMode::Full.semantic());
    }
}
