//! Device kernels for the GPU simulator.
//!
//! Each kernel here is the simulated-device analog of a CUDA kernel in the
//! paper's implementation: it performs the real computation on host-backed
//! [`apsp_gpu_sim::DeviceBuffer`]s (bit-exact, testable against the CPU
//! baselines) and charges the device timeline a cost derived from the
//! *actual work performed* — so simulated time responds to graph structure
//! the way the paper's measurements do.
//!
//! * [`matrix::DeviceMatrix`] — a dense `rows × cols` distance matrix in
//!   device memory with H2D/D2H panel transfers,
//! * [`minplus`] — shared-memory-tiled min-plus matrix multiply
//!   (the paper's Stage 2/3 and boundary-algorithm workhorse),
//! * [`fw_block`] — in-device blocked Floyd-Warshall for tiles that fit
//!   on the device (Stage 1, component blocks, boundary graph),
//! * [`nearfar`] — the Near-Far SSSP of Davidson et al. with work
//!   counters,
//! * [`mssp`] — the batched multi-source SSSP kernel of the paper's
//!   Algorithm 2, one SSSP per thread block, with the optional
//!   dynamic-parallelism path for high-out-degree vertices.

#![forbid(unsafe_code)]

pub mod bellman_ford;
pub mod fw_block;
pub mod matrix;
pub mod minplus;
pub mod mssp;
pub mod nearfar;

pub use matrix::DeviceMatrix;
pub use mssp::{MsspOptions, MsspOutcome};
pub use nearfar::{near_far_sssp, NearFarError, NearFarStats};

/// Modeling constants shared by the kernels.
pub mod model {
    /// Shared-memory tile side used by the min-plus multiply (the paper
    /// cites the classic tiled formulation); determines modeled DRAM
    /// traffic.
    pub const MINPLUS_TILE: usize = 32;

    /// Modeled scalar operations per edge relaxation in the Near-Far
    /// kernel (distance update via `atomicMin`, queue bookkeeping).
    ///
    /// Together with [`FRONTIER_IRREGULARITY`] this prices one relaxation
    /// at 288 op-equivalents, i.e. ≈ 4.9 G relaxations/s at the V100
    /// anchor — the effective SSSP edge throughput class real V100
    /// frontier kernels reach, and the value that reproduces the paper's
    /// Fig 3 band (Johnson 2.23–2.79× over BGL-Plus) given the BGL model.
    pub const OPS_PER_RELAXATION: f64 = 48.0;

    /// Modeled bytes touched per relaxation (CSR entry, dist reads/writes,
    /// queue slots).
    pub const BYTES_PER_RELAXATION: f64 = 24.0;

    /// Irregularity divisor for frontier-driven kernels (divergent warps,
    /// uncoalesced loads, atomic contention) relative to dense kernels.
    pub const FRONTIER_IRREGULARITY: f64 = 6.0;

    /// Threads per block used by all kernels' launch configurations.
    pub const THREADS_PER_BLOCK: u32 = 256;

    // The per-iteration latency floor of frontier loops lives on the
    // device profile (`DeviceProfile::frontier_iter_floor`) because it is
    // hardware-dependent and participates in reproduction scaling.
}
