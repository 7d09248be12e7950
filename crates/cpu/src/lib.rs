//! Multicore CPU baselines for APSP.
//!
//! The paper compares its out-of-core GPU implementations against:
//!
//! * **BGL-Plus** — OpenMP-parallel Dijkstra per source using the Boost
//!   Graph Library; reproduced here as [`bgl_plus::bgl_plus_apsp`]
//!   (binary-heap Dijkstra, sources claimed by host workers),
//! * **SuperFW** — an optimized multicore blocked Floyd-Warshall
//!   (numbers reported from the literature); reproduced as
//!   [`blocked_fw::blocked_floyd_warshall`],
//! * **Galois** — parallel delta-stepping; reproduced as
//!   [`delta_stepping::delta_stepping_sssp`].
//!
//! [`dijkstra`] provides the reference SSSP implementation every other
//! algorithm in the suite is validated against, and [`dense::DistMatrix`]
//! is the shared dense distance-matrix container.
//!
//! [`cost::CpuCostModel`] models the paper's 28-thread Xeon so that the
//! benchmark harness can report GPU-vs-CPU speedup *shapes* at paper
//! scale; see DESIGN.md for the calibration rationale.
//!
//! `unsafe` is denied crate-wide. Only [`parallel`] (the item cursor
//! that hands workers disjoint `&mut`s) and [`simd`] (the AVX2
//! micro-kernel) may use it.

#![deny(unsafe_code)]

pub mod bgl_plus;
pub mod blocked_fw;
pub mod cost;
pub mod delta_stepping;
pub mod dense;
pub mod dijkstra;
pub mod johnson_reweight;
#[allow(unsafe_code)]
pub mod parallel;
#[allow(unsafe_code)]
pub mod simd;

pub use bgl_plus::bgl_plus_apsp;
pub use blocked_fw::{blocked_floyd_warshall, blocked_floyd_warshall_exec};
pub use dense::DistMatrix;
pub use dijkstra::dijkstra_sssp;
pub use parallel::ExecBackend;
