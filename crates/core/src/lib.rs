//! Out-of-core GPU APSP — the paper's contribution.
//!
//! Three out-of-core implementations compute the full `n × n` distance
//! matrix of graphs whose output exceeds device memory:
//!
//! * [`ooc_fw`] — Algorithm 1, the out-of-core blocked Floyd-Warshall:
//!   `n_d × n_d` device-sized tiles, three-stage rounds, `O(n_d · n²)`
//!   data movement;
//! * [`ooc_johnson`] — Algorithm 2, batched Johnson's: `bat` Near-Far
//!   SSSP instances per kernel (one per thread block), `O(n²)` data
//!   movement, optional dynamic parallelism for high-degree vertices;
//! * [`ooc_boundary`] — Algorithm 3, the boundary algorithm: k-way
//!   partition, per-component Floyd-Warshall (dist₂), boundary-graph
//!   Floyd-Warshall (dist₃), and the chained min-plus products
//!   `A(i,j) = C2B[i] ⊗ bound(i,j) ⊗ B2C[j]` (dist₄), with the paper's
//!   transfer-batching and compute/transfer-overlap optimizations.
//!
//! Each driver module (and [`multi_gpu`], the fleet form of the boundary
//! algorithm) exports one `run(…, &RunCtx)` — [`RunCtx`] arms an
//! optional supervisor and checkpoint — plus one four-argument
//! convenience form with neither.
//!
//! [`selector`] implements Section IV: the density filter plus the three
//! cost models, able to pick the winning implementation without running
//! the full computation. [`api::apsp`] is the unified front-end.
//!
//! Results land in a [`tile_store::TileStore`] — host RAM, or a disk
//! directory when even the host cannot hold the output (the paper's
//! Table IV regime).

#![deny(unsafe_code)]

pub mod api;
pub mod calibration;
pub mod checkpoint;
pub mod error;
pub mod in_core;
pub mod multi_gpu;
pub mod ooc_boundary;
pub mod ooc_fw;
pub mod ooc_johnson;
pub mod options;
pub mod paths;
pub mod run_ctx;
pub mod sdc;
pub mod selector;
pub mod service;
pub mod supervisor;
pub mod telemetry;
pub mod tile_store;
pub mod verify;

pub use api::{apsp, ApspResult};
pub use calibration::{
    profile_fingerprint, CalibrationStore, CoeffKey, CoeffState, EstimateParts, RefitCoefficients,
};
pub use checkpoint::{graph_fingerprint, Checkpoint, Manifest, Progress};
pub use error::{ApspError, ApspErrorKind};
pub use multi_gpu::{ooc_boundary_multi, parse_fleet, MultiGpuStats};
pub use options::{
    Algorithm, ApspOptions, BoundaryOptions, CheckpointOptions, JohnsonOptions, SdcGuardMode,
};
pub use run_ctx::RunCtx;
pub use sdc::SdcGuard;
pub use selector::{Candidate, CostModels, Selection, SelectorConfig};
pub use service::{
    cache_key, options_fingerprint, ApspService, CacheKey, CancelOutcome, CompletedJob, FailedJob,
    JobFault, JobId, JobRequest, JobSpec, JobState, ResultRows, ServiceConfig, ServiceCounters,
    ServiceError, ServiceErrorKind,
};
pub use supervisor::{
    CancelToken, FallbackEvent, RetryPolicy, SupervisionEvent, SupervisionOptions, Supervisor,
};
pub use telemetry::{CalibrationRecord, PhaseSpan, RunReport, Telemetry};
pub use tile_store::{DiskFault, DiskFaultPlan, StorageBackend, TileStore};
