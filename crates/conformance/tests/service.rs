//! Tier-2 serving conformance: the chaos soak (ISSUE 8 acceptance) plus
//! the queued-cancel and cache-integrity satellites.
//!
//! The CI `service-soak` job runs this suite; nightly widens the job
//! count via `APSP_SERVICE_JOBS`.

use apsp_conformance::service::{run_chaos, ChaosConfig, Terminal};
use apsp_conformance::{run_corrupt_cache_check, run_queued_cancel_residue};
use apsp_core::service::trace::TraceConfig;

/// Job count for the soak: `APSP_SERVICE_JOBS` (nightly widens it),
/// floored at the soak's minimum of 8 concurrent jobs.
fn jobs_from_env() -> usize {
    std::env::var("APSP_SERVICE_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16)
        .max(8)
}

fn soak_config(tag: &str) -> ChaosConfig {
    ChaosConfig {
        trace: TraceConfig {
            jobs: jobs_from_env(),
            ..TraceConfig::default()
        },
        scratch_dir: std::env::temp_dir().join(format!("apsp-service-soak-{tag}")),
        ..ChaosConfig::default()
    }
}

#[test]
fn chaos_soak_never_wrong_never_hung_and_deterministic() {
    let cfg = soak_config("main");
    let a = run_chaos(&cfg).expect("chaos contract must hold");
    assert!(a.verdicts.len() >= 8, "soak must drive ≥ 8 concurrent jobs");
    assert!(
        a.verdicts
            .iter()
            .any(|v| matches!(v.terminal, Terminal::Completed { .. })),
        "a soak where nothing completes proves nothing: {a}"
    );
    // Re-running the identical config must replay the identical verdict
    // sequence, counters, and simulated clock — the determinism half of
    // the soak's contract.
    let b = run_chaos(&cfg).expect("repeat of the same soak must hold");
    assert_eq!(a, b, "same seed must replay the same soak");
    println!("soak: {a}");
}

#[test]
fn overload_rejections_are_typed_with_retry_hints() {
    // Squeeze the queue far below the job count: the soak must now turn
    // jobs away, and run_chaos fails internally if any rejection is
    // untyped or hint-less.
    let cfg = ChaosConfig {
        queue_capacity: 2,
        scratch_dir: std::env::temp_dir().join("apsp-service-soak-overload"),
        ..soak_config("overload")
    };
    let report = run_chaos(&cfg).expect("overload soak must hold");
    let turned_away: u64 = report.counters.rejected_queue_full + report.counters.rejected_busy;
    assert!(
        turned_away > 0,
        "a 2-deep queue under {} jobs must reject someone: {report}",
        report.verdicts.len()
    );
    // Degradation, not denial: the service still completed work while
    // saturated.
    assert!(report.counters.completed > 0, "{report}");
}

#[test]
fn queued_cancel_is_immediate_residue_free_and_isolated() {
    let dir = std::env::temp_dir().join("apsp-service-queued-cancel");
    run_queued_cancel_residue(&dir).expect("queued-cancel contract must hold");
}

#[test]
fn corrupt_cache_entries_are_evicted_not_served() {
    let dir = std::env::temp_dir().join("apsp-service-corrupt-cache");
    run_corrupt_cache_check(&dir).expect("cache-integrity contract must hold");
}
