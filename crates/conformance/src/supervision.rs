//! The supervision conformance harness: deadlines, cancellation, stall
//! detection and the automatic algorithm fallback chain.
//!
//! Three contracts, each proven differentially against clean runs:
//!
//! 1. **Cancel/deadline** ([`run_cancel_resume`], [`run_deadline_abort`])
//!    — a cancelled or deadlined run fails with the matching typed
//!    [`ApspErrorKind`] at the next supervision check, and whatever the
//!    checkpoint directory holds at that instant resumes to the exact
//!    matrix in a fresh "process".
//! 2. **Stall → fallback** ([`run_stall_fallback`]) — a kernel hang
//!    (injected at a seed-chosen launch) trips the watchdog, the fallback
//!    chain re-selects with the stalled algorithm masked, and the final
//!    matrix is bit-identical to a clean run of the fallback algorithm.
//! 3. **Determinism** — all supervision clocks are simulated and all
//!    jitter is seeded, so re-running a cell with the same seed yields
//!    the same retry/stall/fallback event sequence; tests assert
//!    [`StallFallbackReport`]s compare equal across repeats.

use crate::corpus::{splitmix64, Case};
use crate::runner::{check_exact, RunnerConfig, StoreKind};
use apsp_core::options::Algorithm;
use apsp_core::{
    apsp, ApspErrorKind, ApspOptions, CancelToken, Checkpoint, CheckpointOptions, FallbackEvent,
    SupervisionEvent, SupervisionOptions,
};
use apsp_cpu::bgl_plus_apsp;

/// Simulated seconds a hung kernel is stretched by — far beyond any
/// sensible progress budget, so the watchdog always notices.
const HANG_SECONDS: f64 = 1e6;

/// Progress budget used by the stall cells (simulated milliseconds).
/// Generous against real barrier gaps (sub-second at corpus scale) and
/// tiny against [`HANG_SECONDS`].
const STALL_BUDGET_MS: u64 = 60_000;

/// What one stall–fallback cell did. Two runs of the same cell must
/// produce equal reports (the determinism contract), so everything in
/// here is derived from seeded state only.
#[derive(Debug, Clone, PartialEq)]
pub struct StallFallbackReport {
    /// The algorithm that was stalled.
    pub from: Algorithm,
    /// The algorithm the fallback chain switched to.
    pub to: Algorithm,
    /// Which kernel launch (1-based) absorbed the injected hang.
    pub stalled_launch: u64,
    /// The fallback events the run recorded (always exactly one here).
    pub fallbacks: Vec<FallbackEvent>,
    /// The full supervision event stream, in order.
    pub events: Vec<SupervisionEvent>,
}

impl std::fmt::Display for StallFallbackReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} stalled at launch {} → fell back to {} ({} supervision events) → exact",
            self.from.tag(),
            self.stalled_launch,
            self.to.tag(),
            self.events.len(),
        )
    }
}

/// Run one cell of the stall–fallback matrix: `algorithm` on `case`
/// with the store on `Memory` or `Disk` per `disk`, a hang injected at
/// a launch drawn from `seed`, the watchdog armed, and fallback on.
///
/// Asserts the full contract: the stalled run still completes (via the
/// chain), records exactly one `Stalled` fallback away from `algorithm`,
/// and its matrix is bit-identical to a clean, unsupervised run of the
/// fallback algorithm on a fresh device and store.
pub fn run_stall_fallback(
    case: &Case,
    algorithm: Algorithm,
    disk: bool,
    seed: u64,
    cfg: &RunnerConfig,
) -> Result<StallFallbackReport, String> {
    let g = &case.graph;
    let reference = bgl_plus_apsp(g);
    let backend = cfg.backend(StoreKind::of(disk));

    // Measure the clean run's launch count so the hang can be placed at
    // any real launch, not just the first.
    let mut dev = cfg.device();
    let clean_opts = ApspOptions {
        algorithm: Some(algorithm),
        storage: backend.clone(),
        ..Default::default()
    };
    let clean = apsp(g, &mut dev, &clean_opts)
        .map_err(|e| format!("clean {algorithm} run failed before any injection: {e}"))?;
    check_exact(&clean.store, &reference).map_err(|e| format!("after the clean run: {e}"))?;
    let total_launches: u64 = clean.report.kernels.values().map(|k| k.launches).sum();
    if total_launches == 0 {
        return Err(format!(
            "{algorithm} launched no kernels — nothing to stall"
        ));
    }

    // The stalled run: same forced algorithm, watchdog armed, fallback on.
    let mut s = seed;
    let stalled_launch = 1 + splitmix64(&mut s) % total_launches;
    let mut dev = cfg.device();
    dev.inject_kernel_stall(stalled_launch, HANG_SECONDS);
    let opts = ApspOptions {
        algorithm: Some(algorithm),
        storage: backend.clone(),
        supervision: SupervisionOptions {
            progress_budget_ms: Some(STALL_BUDGET_MS),
            fallback: true,
            ..Default::default()
        },
        ..Default::default()
    };
    let result = apsp(g, &mut dev, &opts).map_err(|e| {
        format!("stall at launch {stalled_launch}/{total_launches} was not absorbed: {e}")
    })?;

    if result.fallback_events.len() != 1 {
        return Err(format!(
            "expected exactly one fallback, got {:?}",
            result.fallback_events
        ));
    }
    let fb = &result.fallback_events[0];
    if fb.from != algorithm || fb.error_kind != ApspErrorKind::Stalled {
        return Err(format!("unexpected fallback event: {fb:?}"));
    }
    if !result
        .supervision_events
        .iter()
        .any(|e| matches!(e, SupervisionEvent::Stall { .. }))
    {
        return Err("the watchdog never recorded a stall event".into());
    }

    // The differential half: a clean, unsupervised run of the fallback
    // algorithm must produce the identical matrix.
    let to = fb.to;
    let mut dev = cfg.device();
    let fallback_clean_opts = ApspOptions {
        algorithm: Some(to),
        storage: backend,
        ..Default::default()
    };
    let expect = apsp(g, &mut dev, &fallback_clean_opts)
        .map_err(|e| format!("clean run of the fallback algorithm {to} failed: {e}"))?;
    let a = result
        .store
        .to_dist_matrix()
        .map_err(|e| format!("fallback store unreadable: {e}"))?;
    let b = expect
        .store
        .to_dist_matrix()
        .map_err(|e| format!("clean fallback store unreadable: {e}"))?;
    if a != b {
        return Err(format!(
            "fallback result differs from a clean {to} run (stall at launch \
             {stalled_launch}/{total_launches})"
        ));
    }
    check_exact(&result.store, &reference).map_err(|e| format!("after the fallback run: {e}"))?;

    Ok(StallFallbackReport {
        from: algorithm,
        to,
        stalled_launch,
        fallbacks: result.fallback_events,
        events: result.supervision_events,
    })
}

/// What one cancel–resume cell did.
#[derive(Debug)]
pub struct CancelReport {
    /// Supervision checks the token allowed before tripping.
    pub cancel_after_checks: u64,
    /// Whether a committed manifest survived the cancellation (`false`
    /// means the trip landed before the first commit and the resume was
    /// a clean restart — still exact).
    pub resumed_from_manifest: bool,
}

impl std::fmt::Display for CancelReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cancelled after {} checks, resumed {} → exact",
            self.cancel_after_checks,
            if self.resumed_from_manifest {
                "from the manifest"
            } else {
                "as a clean restart"
            },
        )
    }
}

/// Run one cancel–resume cell: a checkpointed run of `algorithm` is
/// cancelled after a seed-chosen number of supervision checks (low
/// enough to always land mid-run at corpus scale), must fail with the
/// typed `Cancelled` kind, and must then resume from the surviving
/// checkpoint directory to the exact matrix.
pub fn run_cancel_resume(
    case: &Case,
    algorithm: Algorithm,
    disk: bool,
    seed: u64,
    cfg: &RunnerConfig,
) -> Result<CancelReport, String> {
    let g = &case.graph;
    let reference = bgl_plus_apsp(g);
    let kind = StoreKind::of(disk);
    let backend = cfg.backend(kind);
    let ckpt_dir = cfg.scratch_dir.join(format!(
        "supervise-{}-{}-{kind}-{seed:x}",
        case.name,
        algorithm.tag(),
    ));
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    // Every corpus case issues at least n ≥ 80 store operations, each of
    // which is a supervision check — a budget below that always trips
    // mid-run.
    let mut s = seed;
    let cancel_after = 1 + splitmix64(&mut s) % 64;
    let mut dev = cfg.device();
    let opts = ApspOptions {
        algorithm: Some(algorithm),
        storage: backend.clone(),
        checkpoint: Some(CheckpointOptions {
            dir: ckpt_dir.clone(),
            resume: false,
        }),
        supervision: SupervisionOptions {
            cancel: Some(CancelToken::cancel_after_checks(cancel_after)),
            ..Default::default()
        },
        ..Default::default()
    };
    let err = match apsp(g, &mut dev, &opts) {
        Err(e) => e,
        Ok(_) => {
            return Err(format!(
                "cancellation after {cancel_after} checks never fired"
            ))
        }
    };
    if err.kind() != ApspErrorKind::Cancelled {
        return Err(format!("expected a typed cancellation, got: {err}"));
    }
    let ckpt =
        Checkpoint::new(&ckpt_dir, g).map_err(|e| format!("checkpoint dir unusable: {e}"))?;
    let resumed_from_manifest = ckpt
        .load()
        .map_err(|e| format!("manifest unreadable after the cancel: {e}"))?
        .is_some();

    // Resume in a fresh "process" without the token.
    let mut dev = cfg.device();
    let resume_opts = ApspOptions {
        algorithm: Some(algorithm),
        storage: backend,
        checkpoint: Some(CheckpointOptions {
            dir: ckpt_dir.clone(),
            resume: true,
        }),
        ..Default::default()
    };
    let result = apsp(g, &mut dev, &resume_opts)
        .map_err(|e| format!("resume after a cancel at check {cancel_after} failed: {e}"))?;
    check_exact(&result.store, &reference)
        .map_err(|e| format!("after resuming a cancel at check {cancel_after}: {e}"))?;
    if ckpt
        .load()
        .map_err(|e| format!("manifest unreadable after the resume: {e}"))?
        .is_some()
    {
        return Err("the resumed run left its checkpoint behind".into());
    }
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    Ok(CancelReport {
        cancel_after_checks: cancel_after,
        resumed_from_manifest,
    })
}

/// Run one deadline cell: an already-expired deadline must abort the run
/// with the typed `DeadlineExceeded` kind at the first barrier, and a
/// rerun without the deadline must produce the exact matrix.
pub fn run_deadline_abort(
    case: &Case,
    algorithm: Algorithm,
    disk: bool,
    cfg: &RunnerConfig,
) -> Result<(), String> {
    let g = &case.graph;
    let reference = bgl_plus_apsp(g);
    let backend = cfg.backend(StoreKind::of(disk));
    let mut dev = cfg.device();
    let opts = ApspOptions {
        algorithm: Some(algorithm),
        storage: backend.clone(),
        supervision: SupervisionOptions {
            deadline_ms: Some(0),
            ..Default::default()
        },
        ..Default::default()
    };
    match apsp(g, &mut dev, &opts) {
        Ok(_) => return Err("an expired deadline must abort the run".into()),
        Err(e) if e.kind() == ApspErrorKind::DeadlineExceeded => {}
        Err(e) => return Err(format!("expected a typed deadline abort, got: {e}")),
    }
    let mut dev = cfg.device();
    let clean_opts = ApspOptions {
        algorithm: Some(algorithm),
        storage: backend,
        ..Default::default()
    };
    let result = apsp(g, &mut dev, &clean_opts)
        .map_err(|e| format!("rerun without the deadline failed: {e}"))?;
    check_exact(&result.store, &reference)
        .map_err(|e| format!("after the deadline-free rerun: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Family;

    #[test]
    fn one_stall_cell_holds_and_is_deterministic() {
        let cfg = RunnerConfig::default();
        let case = Case::generate(Family::ErdosRenyi, 0x5AB1);
        let a = run_stall_fallback(&case, Algorithm::Johnson, false, 3, &cfg)
            .expect("stall–fallback cell must hold");
        assert_eq!(a.from, Algorithm::Johnson);
        assert_ne!(a.to, Algorithm::Johnson);
        let b = run_stall_fallback(&case, Algorithm::Johnson, false, 3, &cfg)
            .expect("repeat of the same cell must hold");
        assert_eq!(a, b, "same seed must replay the same event sequence");
    }

    #[test]
    fn one_cancel_cell_round_trips() {
        let cfg = RunnerConfig::default();
        let case = Case::generate(Family::ErdosRenyi, 0x5AB2);
        let report = run_cancel_resume(&case, Algorithm::FloydWarshall, false, 17, &cfg)
            .expect("cancel–resume cell must hold");
        assert!(report.cancel_after_checks >= 1);
        assert!(report.to_string().contains("exact"));
    }
}
