//! Conformance and fault-injection harness for the out-of-core APSP
//! implementations.
//!
//! Three pieces, used together by `tests/` and the nightly CI job:
//!
//! * [`corpus`] — a seeded graph corpus spanning the families that break
//!   APSP codes in different ways (scale-free, uniform, lattice,
//!   hub-and-spoke, disconnected, near-negative-cycle reweightings);
//! * [`runner`] — the differential oracle: every case runs through the
//!   in-core baseline and all three out-of-core algorithms, crossed with
//!   `Memory`/`Disk` storage and transfer overlap on/off, and any
//!   disagreement is reported as a [`runner::Divergence`] pinpointing the
//!   first diverging cell, its tile, and the Floyd-Warshall pivot round
//!   that established the expected value;
//! * [`fault`] — deterministic fault plans (device allocation failures,
//!   short writes/reads, `ENOSPC`, latency) derived from a single seed,
//!   plus the harness asserting every algorithm either degrades
//!   gracefully to an exact result or fails with a typed
//!   [`apsp_core::ApspError`] *without corrupting the store*;
//! * [`crash`] — the kill–resume differential: every checkpointed
//!   algorithm killed at a seed-chosen store operation and resumed in a
//!   fresh device/store must reproduce the uninterrupted run's matrix
//!   bit-for-bit. One protocol (baseline, kill, resume) serves every
//!   cell; callers pass in only the run;
//! * [`multi`] — the fleet differential: the sharded multi-device
//!   executor across device counts, V100/K80 mixes, and storage
//!   backends must reproduce the single-device oracle bit-for-bit, stay
//!   makespan-monotone as devices are added, and survive kill–resume
//!   across *different* fleet shapes, through [`crash`]'s protocol;
//! * [`calibration`] — the selector-calibration replay: the same graph
//!   run repeatedly against a persisted per-profile calibration store,
//!   asserting the selector's prediction error converges onto the
//!   realized time while every round's matrix stays bit-identical to an
//!   uncalibrated baseline;
//! * [`sdc`] — the silent-data-corruption matrix: seeded bit flips in
//!   the store's write path and in device uploads, run under active SDC
//!   guards, asserting every flip is either repaired to a bit-identical
//!   matrix or surfaced as typed
//!   [`apsp_core::ApspError::SilentCorruption`] — never a silently
//!   wrong result;
//! * [`supervision`] — the runtime-supervision matrix: cancelled and
//!   deadlined runs must fail typed and resume exactly, an injected
//!   kernel hang must trip the watchdog and fall back to an algorithm
//!   whose result is bit-identical to its clean run, and every event
//!   sequence must replay deterministically from its seed;
//! * [`service`] — the serving chaos harness: N concurrent seeded jobs
//!   (full and k-source partial queries) driven through
//!   [`apsp_core::ApspService`] with injected faults, tight deadlines,
//!   queue overload, and queued cancellations, asserting every job ends
//!   bit-identical-completed, typed-rejected, typed-failed, or
//!   cancelled — never wrong, never hung.
//!
//! Every report carries the seed that reproduces it; see the repository
//! README ("Testing & conformance") for the reproduction workflow.

pub mod calibration;
pub mod corpus;
pub mod crash;
pub mod fault;
pub mod multi;
pub mod runner;
pub mod sdc;
pub mod service;
pub mod supervision;

pub use calibration::{replay, ReplayReport, ReplayRound};
pub use corpus::{Case, Corpus, Family};
pub use crash::{run_kill_resume, CrashCellOptions, CrashReport};
pub use fault::{run_under_faults, Fault, FaultPlan, FaultRunOutcome};
pub use multi::{
    makespan_curve, run_multi_cell, run_multi_kill_resume, single_device_oracle, MultiCellReport,
};
pub use runner::{
    all_variants, run_case, CaseReport, Divergence, RunnerConfig, StoreKind, Variant,
};
pub use sdc::{run_under_bit_flip, FlipSite, SdcOutcome, SdcVerdict};
pub use service::{
    run_chaos, run_corrupt_cache_check, run_queued_cancel_residue, ChaosConfig, ChaosReport,
    JobVerdict, Terminal,
};
pub use supervision::{
    run_cancel_resume, run_deadline_abort, run_stall_fallback, CancelReport, StallFallbackReport,
};
