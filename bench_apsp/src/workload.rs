//! The four workloads: the inputs each makes from its seed, the entry
//! point each calls, and the oracle every solve is checked against.

use apsp_core::options::{Algorithm, BoundaryOptions, CheckpointOptions, SdcGuardMode};
use apsp_core::{apsp, ooc_boundary_multi, parse_fleet, ApspError, ApspOptions};
use apsp_core::{StorageBackend, TileStore};
use apsp_gpu_sim::{DeviceProfile, GpuDevice};
use apsp_graph::generators::{gnp, grid_2d, rmat, GridOptions, RmatParams, WeightRange};
use apsp_graph::{CsrGraph, Dist};
use std::path::PathBuf;
use std::time::Instant;

/// Graph instances per workload, seeds `seed..seed + INSTANCES`. Solves
/// rotate over them, so no cache kept across calls can pass for speed.
pub const INSTANCES: usize = 4;

/// One set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Dense `gnp` graph whose output spills to a durable disk store.
    DenseFwDurable,
    /// Sparse scale-free R-MAT graph through batched Johnson's.
    SparseJohnson,
    /// Planar grid through the selector (the default user path).
    PlanarSelect,
    /// The same grids across a mixed V100/K80 fleet.
    FleetHetero,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::DenseFwDurable,
        Workload::SparseJohnson,
        Workload::PlanarSelect,
        Workload::FleetHetero,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseFwDurable => "dense-fw-durable",
            Workload::SparseJohnson => "sparse-johnson",
            Workload::PlanarSelect => "planar-select",
            Workload::FleetHetero => "fleet-hetero",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How a workload reaches the library. A process holds one, so the
/// variants' size difference costs nothing.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub enum Target {
    /// One simulated device through `apsp()`.
    Single {
        /// The device every solve gets a fresh copy of.
        profile: DeviceProfile,
        /// Front-end options.
        opts: ApspOptions,
    },
    /// A fleet through `ooc_boundary_multi`.
    Fleet {
        /// One fresh device per profile for every solve.
        profiles: Vec<DeviceProfile>,
        /// Boundary options.
        opts: BoundaryOptions,
    },
}

/// Side of the Floyd-Warshall tile `dense-fw-durable` runs at: the
/// shape the standalone min-plus peak is measured at.
pub fn fw_tile_side(smoke: bool) -> usize {
    let dev = GpuDevice::new(dense_profile(smoke));
    apsp_core::ooc_fw::max_block_side(&dev, 5)
}

fn dense_profile(smoke: bool) -> DeviceProfile {
    DeviceProfile::v100().with_memory_bytes(if smoke { 64 << 10 } else { 256 << 10 })
}

/// The result of one timed entry-point call.
#[derive(Debug, Clone, Copy)]
pub struct Solve {
    /// Wall seconds of the entry-point call alone.
    pub wall_s: f64,
    /// Simulated device seconds (fleet: the barrier-synchronized makespan).
    pub sim_s: f64,
    /// FNV-1a of the result matrix, read back after the timed window.
    pub checksum: u64,
}

/// A workload's generated inputs and the target they run on.
#[derive(Debug)]
pub struct Bench {
    /// The instances, seeds `seed..seed + INSTANCES`.
    pub graphs: Vec<CsrGraph>,
    /// Device(s) and options.
    pub target: Target,
    scratch: PathBuf,
}

impl Bench {
    /// Generate the instances. Disk stores and checkpoints live under
    /// `scratch`, which is removed when the bench is dropped.
    pub fn new(workload: Workload, seed: u64, smoke: bool, scratch: PathBuf) -> Bench {
        let weights = WeightRange::default();
        let side = if smoke { 24 } else { 48 };
        let graphs = (seed..seed + INSTANCES as u64)
            .map(|s| match workload {
                Workload::DenseFwDurable => gnp(if smoke { 192 } else { 768 }, 0.05, weights, s),
                Workload::SparseJohnson => {
                    let (n, m) = if smoke { (512, 4096) } else { (2048, 16384) };
                    rmat(n, m, RmatParams::default(), weights, s)
                }
                Workload::PlanarSelect | Workload::FleetHetero => {
                    grid_2d(side, side, GridOptions::default(), weights, s)
                }
            })
            .collect();
        let small = DeviceProfile::v100().with_memory_bytes(if smoke { 1 << 20 } else { 4 << 20 });
        let target = match workload {
            Workload::DenseFwDurable => Target::Single {
                profile: dense_profile(smoke),
                opts: ApspOptions {
                    algorithm: Some(Algorithm::FloydWarshall),
                    storage: StorageBackend::Disk(scratch.join("store")),
                    checkpoint: Some(CheckpointOptions {
                        dir: scratch.join("checkpoint"),
                        resume: false,
                    }),
                    sdc_guard: SdcGuardMode::Checksum,
                    ..Default::default()
                },
            },
            Workload::SparseJohnson => Target::Single {
                profile: small,
                opts: ApspOptions {
                    algorithm: Some(Algorithm::Johnson),
                    ..Default::default()
                },
            },
            Workload::PlanarSelect => Target::Single {
                profile: small,
                opts: ApspOptions::default(),
            },
            Workload::FleetHetero => Target::Fleet {
                profiles: parse_fleet("v100,k80,v100,k80").expect("valid fleet spec"),
                opts: BoundaryOptions {
                    num_components: Some(8),
                    ..Default::default()
                },
            },
        };
        Bench {
            graphs,
            target,
            scratch,
        }
    }

    /// Solve instance `i` through the workload's entry point. Only the
    /// entry-point call is timed (for the fleet, with the `TileStore::new`
    /// that `apsp()` performs internally); the readback is not.
    pub fn solve(&self, i: usize) -> Result<Solve, ApspError> {
        let g = &self.graphs[i];
        match &self.target {
            Target::Single { profile, opts } => {
                let mut dev = GpuDevice::new(profile.clone());
                let t = Instant::now();
                let result = apsp(g, &mut dev, opts)?;
                let wall_s = t.elapsed().as_secs_f64();
                Ok(Solve {
                    wall_s,
                    sim_s: result.sim_seconds,
                    checksum: checksum(&result.store)?,
                })
            }
            Target::Fleet { profiles, opts } => {
                let mut devs: Vec<GpuDevice> =
                    profiles.iter().cloned().map(GpuDevice::new).collect();
                let t = Instant::now();
                let mut store = TileStore::new(g.num_vertices(), &StorageBackend::Memory)?;
                let stats = ooc_boundary_multi(&mut devs, g, &mut store, opts)?;
                let wall_s = t.elapsed().as_secs_f64();
                Ok(Solve {
                    wall_s,
                    sim_s: stats.sim_seconds,
                    checksum: checksum(&store)?,
                })
            }
        }
    }

    /// FNV-1a of each instance's `bgl_plus_apsp` matrix. The matrices are
    /// dropped as soon as they are hashed.
    pub fn oracle(&self) -> Vec<u64> {
        self.graphs
            .iter()
            .map(|g| fnv1a(apsp_cpu::bgl_plus_apsp(g).as_slice()))
            .collect()
    }
}

impl Drop for Bench {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

/// Counts entry-point calls against the oracle: a call fails when it
/// errors or its matrix differs from `bgl_plus_apsp`'s.
#[derive(Debug)]
pub struct Checker {
    oracle: Vec<u64>,
    /// Calls checked.
    pub attempted: u64,
    /// Calls that errored or mismatched.
    pub failed: u64,
}

impl Checker {
    /// A checker against the oracle checksums of each instance.
    pub fn new(oracle: Vec<u64>) -> Checker {
        Checker {
            oracle,
            attempted: 0,
            failed: 0,
        }
    }

    /// Check one call on instance `i`; returns whether it passed.
    pub fn check(&mut self, what: &str, i: usize, checksum: Result<u64, ApspError>) -> bool {
        self.attempted += 1;
        let err = match checksum {
            Ok(sum) if sum == self.oracle[i] => return true,
            Ok(sum) => format!(
                "matrix checksum {sum:#018x} != oracle {:#018x}",
                self.oracle[i]
            ),
            Err(e) => e.to_string(),
        };
        self.failed += 1;
        eprintln!("bench_apsp: {what} on instance {i} failed: {err}");
        false
    }

    /// The oracle checksum of instance `i`.
    pub fn expected(&self, i: usize) -> u64 {
        self.oracle[i]
    }
}

/// FNV-1a over the little-endian bytes of `values`.
pub fn fnv1a(values: &[Dist]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_le_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// FNV-1a of a result store's matrix.
pub fn checksum(store: &TileStore) -> Result<u64, ApspError> {
    Ok(fnv1a(store.to_dist_matrix()?.as_slice()))
}
