//! The telemetry conformance matrix.
//!
//! The metrics layer's contract is that it is *pure observation*: with
//! `opts.telemetry` on, every distance matrix must stay bit-identical to
//! the telemetry-off run, and the JSONL report must be byte-identical
//! across reruns of the same configuration. This file pins both, across
//! all three algorithms × {Memory, Disk} storage × {scalar, simd}
//! backends, and additionally checks the report's content: per-phase
//! spans, transfer byte counters, overlap efficiency, and a calibration
//! record carrying predicted + realized seconds for every non-filtered
//! candidate.
//!
//! The emitted JSONL is also validated against the checked-in schema at
//! `schemas/telemetry.schema.json` — the same check CI performs on the
//! artifact `bench_kernels --metrics-out` uploads.

use apsp_conformance::{RunnerConfig, StoreKind};
use apsp_core::options::{Algorithm, ExecBackend};
use apsp_core::telemetry::{parse_json, validate_jsonl};
use apsp_core::{apsp, ApspOptions, ApspResult, StorageBackend, SupervisionOptions};
use apsp_core::{ApspErrorKind, RunReport};
use apsp_graph::generators::{gnp, WeightRange};
use apsp_graph::CsrGraph;
use std::path::PathBuf;

const ALGORITHMS: [Algorithm; 3] = [
    Algorithm::FloydWarshall,
    Algorithm::Johnson,
    Algorithm::Boundary,
];

/// The phase names each driver is contractually required to emit.
fn required_phases(algorithm: Algorithm) -> &'static [&'static str] {
    match algorithm {
        Algorithm::FloydWarshall => &["fw.diagonal", "fw.pivot", "fw.remainder", "attempt.fw"],
        Algorithm::Johnson => &["johnson.batch", "attempt.johnson"],
        Algorithm::Boundary => &[
            "boundary.dist2",
            "boundary.dist3",
            "boundary.dist4",
            "attempt.boundary",
        ],
    }
}

/// The harness defaults, spilling into this suite's emptied `tag`
/// directory.
fn config(tag: &str) -> RunnerConfig {
    let scratch_dir = std::env::temp_dir()
        .join("apsp_conformance_telemetry")
        .join(tag);
    let _ = std::fs::remove_dir_all(&scratch_dir);
    RunnerConfig {
        scratch_dir,
        ..Default::default()
    }
}

fn run(
    g: &CsrGraph,
    algorithm: Algorithm,
    storage: &StorageBackend,
    exec: ExecBackend,
    telemetry: bool,
) -> ApspResult {
    let mut dev = RunnerConfig::default().device();
    let opts = ApspOptions {
        algorithm: Some(algorithm),
        storage: storage.clone(),
        exec,
        telemetry,
        ..Default::default()
    };
    apsp(g, &mut dev, &opts).expect("conformance run failed")
}

fn check_report_content(report: &RunReport, algorithm: Algorithm) {
    for phase in required_phases(algorithm) {
        assert!(
            report.spans.iter().any(|s| s.name == *phase),
            "{algorithm:?}: missing phase span '{phase}' in {:?}",
            report.spans.iter().map(|s| &s.name).collect::<Vec<_>>()
        );
    }
    // Every algorithm downloads its result rows; only Floyd-Warshall
    // round-trips tiles (Johnson models graph residency as an
    // allocation, and boundary re-derives panels on device).
    assert!(report.bytes_d2h > 0, "{algorithm:?}: no D2H bytes counted");
    assert!(report.transfers_d2h > 0);
    if algorithm == Algorithm::FloydWarshall {
        assert!(report.bytes_h2d > 0, "{algorithm:?}: no H2D bytes counted");
    }
    assert!(report.kernel_launches > 0);
    assert!(
        (0.0..=1.0).contains(&report.overlap_efficiency),
        "{algorithm:?}: overlap efficiency {} out of range",
        report.overlap_efficiency
    );
    assert!(
        report.store_row_writes > 0,
        "{algorithm:?}: no rows written"
    );
    // No faults are injected here, so the SDC counters must be present
    // and zero — both in the struct and in the emitted run record.
    assert_eq!(report.sdc_detected, 0, "{algorithm:?}: phantom detection");
    assert_eq!(report.sdc_recovered_panel, 0);
    assert_eq!(report.sdc_recovered_round, 0);
    assert!(
        report.to_jsonl().contains("\"sdc_detected\":0"),
        "{algorithm:?}: run record missing the sdc_detected field"
    );
    assert_eq!(
        report.calibration.len(),
        ALGORITHMS.len(),
        "{algorithm:?}: every candidate must appear: {:?}",
        report.calibration
    );
    for rec in &report.calibration {
        // Every candidate is either costed or carries a filter reason —
        // density-filtered candidates carry *both* (the prediction is
        // still computed so calibration artifacts have no gaps); only
        // masked/infeasible ones are prediction-free.
        assert!(
            rec.predicted_s.is_some() || rec.filter_reason.is_some(),
            "{algorithm:?}: a candidate is neither costed nor filtered: {rec:?}"
        );
        assert_eq!(
            rec.predicted_s.is_some(),
            rec.seed_predicted_s.is_some(),
            "{algorithm:?}: refitted and seed predictions must travel together: {rec:?}"
        );
        if rec.predicted_s.is_some() {
            assert!(
                rec.realized_s.is_some(),
                "{algorithm:?}: costed candidate missing realized seconds: {rec:?}"
            );
        }
    }
}

#[test]
fn telemetry_is_pure_observation_and_its_report_is_deterministic() {
    let g = gnp(96, 0.06, WeightRange::default(), 0x7E1E);
    for algorithm in ALGORITHMS {
        for disk in [false, true] {
            for scalar in [true, false] {
                let tag = format!(
                    "{algorithm}-{}-{}",
                    if disk { "disk" } else { "memory" },
                    if scalar { "scalar" } else { "simd" }
                );
                let exec = if scalar {
                    ExecBackend::scalar()
                } else {
                    ExecBackend::Simd { threads: Some(2) }
                };
                let storage =
                    |suffix: &str| config(&format!("{tag}-{suffix}")).backend(StoreKind::of(disk));
                let off = run(&g, algorithm, &storage("off"), exec, false);
                let on = run(&g, algorithm, &storage("on"), exec, true);
                assert!(off.telemetry.is_none());
                // Observation must not perturb the run: same matrix,
                // bit for bit, and the same simulated clock.
                assert_eq!(
                    off.store.to_dist_matrix().unwrap(),
                    on.store.to_dist_matrix().unwrap(),
                    "{tag}: telemetry changed the result"
                );
                assert_eq!(
                    off.sim_seconds, on.sim_seconds,
                    "{tag}: telemetry changed the clock"
                );
                let report = on.telemetry.as_ref().unwrap();
                check_report_content(report, algorithm);
                // The report itself is a deterministic artifact: a rerun
                // of the identical configuration is byte-identical.
                let again = run(&g, algorithm, &storage("again"), exec, true);
                assert_eq!(
                    report.to_jsonl(),
                    again.telemetry.as_ref().unwrap().to_jsonl(),
                    "{tag}: JSONL differs across reruns"
                );
            }
        }
    }
}

#[test]
fn emitted_jsonl_validates_against_the_checked_in_schema() {
    let schema_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../schemas/telemetry.schema.json");
    let schema = parse_json(&std::fs::read_to_string(&schema_path).unwrap()).unwrap();
    let g = gnp(96, 0.06, WeightRange::default(), 0x7E1E);
    // One forced run per algorithm, plus one auto-selected run (whose
    // report includes a genuine selector batch), all against the schema.
    for algorithm in ALGORITHMS {
        let result = run(
            &g,
            algorithm,
            &RunnerConfig::default().backend(StoreKind::Memory),
            ExecBackend::scalar(),
            true,
        );
        let jsonl = result.telemetry.as_ref().unwrap().to_jsonl();
        validate_jsonl(&jsonl, &schema)
            .unwrap_or_else(|e| panic!("{algorithm:?} report fails the schema: {e}"));
    }
    let mut dev = RunnerConfig::default().device();
    let opts = ApspOptions {
        telemetry: true,
        ..Default::default()
    };
    let auto = apsp(&g, &mut dev, &opts).unwrap();
    let jsonl = auto.telemetry.as_ref().unwrap().to_jsonl();
    validate_jsonl(&jsonl, &schema).unwrap_or_else(|e| panic!("auto-select report: {e}"));
}

#[test]
fn sdc_counters_are_reported_and_their_record_is_deterministic() {
    // One bit-30 flip on the first device upload under the full guard:
    // the run must detect it, recover via the round rung, count both in
    // the run record, and still emit a byte-identical JSONL on a rerun
    // of the identical configuration.
    let g = gnp(90, 0.06, WeightRange::default(), 0x5DCD);
    let run_flipped = || {
        let mut dev = RunnerConfig::default().device();
        dev.inject_bit_flip(1, 30);
        let opts = ApspOptions {
            algorithm: Some(Algorithm::FloydWarshall),
            sdc_guard: apsp_core::options::SdcGuardMode::Full,
            telemetry: true,
            ..Default::default()
        };
        apsp(&g, &mut dev, &opts).expect("the guard must recover, not fail")
    };
    let first = run_flipped();
    let report = first.telemetry.as_ref().unwrap();
    assert!(report.sdc_detected >= 1, "flip never detected");
    assert!(
        report.sdc_recovered_panel + report.sdc_recovered_round >= 1,
        "detection without recovery on a default budget"
    );
    assert!(
        report
            .spans
            .iter()
            .any(|s| s.name.starts_with("sdc.recover")),
        "missing recovery phase span: {:?}",
        report.spans.iter().map(|s| &s.name).collect::<Vec<_>>()
    );
    assert_eq!(
        first.store.to_dist_matrix().unwrap(),
        apsp_cpu::bgl_plus_apsp(&g),
        "recovery must be bit-identical"
    );
    let again = run_flipped();
    assert_eq!(
        report.to_jsonl(),
        again.telemetry.as_ref().unwrap().to_jsonl(),
        "SDC run record differs across reruns"
    );
    // The schema pins the new fields too.
    let schema_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../schemas/telemetry.schema.json");
    let schema = parse_json(&std::fs::read_to_string(&schema_path).unwrap()).unwrap();
    validate_jsonl(&report.to_jsonl(), &schema)
        .unwrap_or_else(|e| panic!("SDC report fails the schema: {e}"));
}

#[test]
fn fallback_accounting_balances_to_the_total_simulated_time() {
    // Two injected allocation failures kill the first two attempts of
    // the fallback chain regardless of which order the selector ranks
    // them; the third algorithm completes. The telemetry spans of the
    // failed attempts plus the survivor's driver time must account for
    // the device's whole clock, and each fallback event's timestamp must
    // equal the failed span's end.
    let g = gnp(100, 0.05, WeightRange::default(), 3);
    let mut dev = RunnerConfig {
        device_bytes: 128 << 10,
        ..Default::default()
    }
    .device();
    dev.inject_alloc_failure(1);
    dev.inject_alloc_failure(3);
    let opts = ApspOptions {
        supervision: SupervisionOptions {
            fallback: true,
            retry: apsp_core::supervisor::RetryPolicy {
                max_retries: 0,
                ..Default::default()
            },
            ..Default::default()
        },
        telemetry: true,
        ..Default::default()
    };
    let result = apsp(&g, &mut dev, &opts).unwrap();
    assert_eq!(
        result.fallback_events.len(),
        2,
        "{:?}",
        result.fallback_events
    );
    for fb in &result.fallback_events {
        assert!(matches!(
            fb.error_kind,
            ApspErrorKind::OutOfDeviceMemory | ApspErrorKind::DeviceTooSmall
        ));
    }
    let report = result.telemetry.as_ref().unwrap();
    assert_eq!(report.fallbacks, 2);
    let attempts: Vec<_> = report
        .spans
        .iter()
        .filter(|s| s.name.starts_with("attempt."))
        .collect();
    assert_eq!(attempts.len(), 3, "{attempts:?}");
    let failed: Vec<_> = attempts
        .iter()
        .filter(|s| s.name.ends_with(".failed"))
        .collect();
    assert_eq!(failed.len(), 2, "{attempts:?}");
    // Each fallback event is stamped at the moment its failed attempt's
    // span closed.
    for (fb, span) in result.fallback_events.iter().zip(&failed) {
        assert_eq!(
            fb.sim_seconds, span.end_s,
            "fallback timestamp disagrees with the failed span"
        );
    }
    // The wasted time plus the survivor's driver time is the whole run.
    let wasted: f64 = failed.iter().map(|s| s.seconds()).sum();
    let total = wasted + result.sim_seconds;
    let elapsed = result.report.elapsed;
    assert!(
        (total - elapsed).abs() <= 1e-9 * elapsed.max(1.0),
        "accounting gap: failed {wasted} + success {} != elapsed {elapsed}",
        result.sim_seconds
    );
    // Failed attempts feed realized seconds back into their calibration
    // batches: every costed candidate everywhere has both numbers.
    assert_eq!(report.calibration.len(), 3 * ALGORITHMS.len());
    for rec in &report.calibration {
        if rec.predicted_s.is_some() {
            assert!(rec.realized_s.is_some(), "{rec:?}");
        }
        assert_eq!(rec.predicted_s.is_some(), rec.seed_predicted_s.is_some());
    }
    // And the fallback chain still produced the right answer.
    assert_eq!(
        result.store.to_dist_matrix().unwrap(),
        apsp_cpu::bgl_plus_apsp(&g)
    );
}
