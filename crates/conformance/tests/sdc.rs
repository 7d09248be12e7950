//! The silent-data-corruption conformance matrix: seeded bit flips in
//! the tile store's write path (every algorithm × {Memory, Disk}
//! storage) and in device uploads (Floyd-Warshall under the full
//! semantic guard), plus the zero-false-positive side: the whole clean
//! corpus, every exec backend, with the guard at `full` must neither
//! trip nor perturb a single bit of any result.
//!
//! Nightly CI sets `APSP_BITFLIP_POINTS` to widen the number of flip
//! sites per cell around the same fixed seed; a failure prints the
//! site label (`<algorithm>/<storage>/store-op<k>-bit<b>`) that
//! reproduces it in `run_under_bit_flip`.

use apsp_conformance::{run_under_bit_flip, Case, Corpus, Family, FlipSite, RunnerConfig};
use apsp_core::options::{Algorithm, ExecBackend, SdcGuardMode};
use apsp_core::{apsp, ApspOptions};
use apsp_cpu::bgl_plus_apsp;
use apsp_graph::generators::{gnp, WeightRange};
use apsp_graph::INF;

const ALGORITHMS: [Algorithm; 3] = [
    Algorithm::FloydWarshall,
    Algorithm::Johnson,
    Algorithm::Boundary,
];

/// The reference backend and the fast one, on two threads.
const EXEC_BACKENDS: [ExecBackend; 2] =
    [ExecBackend::Scalar, ExecBackend::Simd { threads: Some(2) }];

/// The fixed bit-flip-matrix seed; widened sites derive from it.
const BITFLIP_SEED: u64 = 0xB17F;

fn bitflip_points() -> u64 {
    std::env::var("APSP_BITFLIP_POINTS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(1)
        .max(1)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn store_flip_matrix_recovers_bit_identical_or_fails_typed() {
    let cfg = RunnerConfig::default();
    let case = Case::generate(Family::ErdosRenyi, 0x5DC2);
    let n = case.graph.num_vertices() as u64;
    // Four seeded sites inside the first `n` write ops — the window every
    // algorithm shares (Johnson and boundary write exactly one op per
    // row; Floyd-Warshall's store init alone issues `n`). Bits span the
    // value range: low bits lower distances (the dangerous direction),
    // bit 30 raises them past the `INF` ceiling.
    let mut sites = vec![(n / 8, 5u64), (n / 3, 13), (n / 2, 21), (3 * n / 4, 30)];
    let mut s = BITFLIP_SEED;
    for _ in 1..bitflip_points() {
        sites.push((1 + splitmix64(&mut s) % (n - 1), splitmix64(&mut s) % 32));
    }
    let (mut recovered, mut typed) = (0u32, 0u32);
    for algorithm in ALGORITHMS {
        for disk in [false, true] {
            for &(ordinal, bit) in &sites {
                let out = run_under_bit_flip(
                    &case,
                    algorithm,
                    disk,
                    FlipSite::Store { ordinal, bit },
                    SdcGuardMode::Checksum,
                    &cfg,
                );
                eprintln!("{out}");
                assert!(out.verdict.is_acceptable(), "{out}");
                // Store flips damage data at rest under an armed checksum
                // registry: the guard must *detect* every one — a flip
                // the schedule merely papers over would still be invisible
                // damage on any row the run never rewrote.
                assert!(out.verdict.detected(), "flip passed unnoticed: {out}");
                match out.verdict {
                    apsp_conformance::SdcVerdict::RecoveredExact { .. } => recovered += 1,
                    apsp_conformance::SdcVerdict::TypedSilentCorruption => typed += 1,
                    _ => {}
                }
            }
        }
    }
    let cells = ALGORITHMS.len() * 2 * sites.len();
    eprintln!(
        "sdc matrix: {cells} cells, {recovered} recovered bit-identical, {typed} typed failures"
    );
    assert!(
        recovered >= 1,
        "the default recovery budget should repair at least one cell"
    );
}

#[test]
fn fw_device_upload_flips_never_go_silently_wrong() {
    // Bit 30 of an upload *raises* values (every in-range distance keeps
    // bit 30 clear, because `INF = u32::MAX / 4`). A raise either gets
    // relaxed away before anything observes it (absorbed, bit-identical)
    // or persists into the store, where the full guard's semantic
    // invariants — zero diagonal, `INF` ceiling, monotone row sums —
    // catch it at the next round barrier.
    let cfg = RunnerConfig::default();
    let case = Case::generate(Family::ErdosRenyi, 0x5DC3);
    let mut detected = 0u32;
    for transfer in 1..=(3 + bitflip_points()) {
        let out = run_under_bit_flip(
            &case,
            Algorithm::FloydWarshall,
            false,
            FlipSite::Device { transfer, bit: 30 },
            SdcGuardMode::Full,
            &cfg,
        );
        eprintln!("{out}");
        assert!(out.verdict.is_acceptable(), "{out}");
        if out.verdict.detected() {
            detected += 1;
        }
    }
    // The first upload seeds the round-0 diagonal tile: flipping bit 30
    // there either leaves a nonzero diagonal or a value above `INF`, so
    // at least that site must trip the semantic guard.
    assert!(detected >= 1, "no device flip was ever detected");
}

#[test]
fn clean_corpus_never_trips_the_guard_on_any_backend() {
    // The false-positive side of the contract, across the families that
    // stress the invariants from different directions (`Disconnected`
    // is INF-heavy, `NearNegativeCycle` is zero-weight-heavy): a clean
    // run under the full guard must detect nothing, recover nothing, and
    // produce the exact matrix on every exec backend.
    let corpus = Corpus::standard(0x5DCC);
    let cfg = RunnerConfig::default();
    for case in &corpus.cases {
        let reference = bgl_plus_apsp(&case.graph);
        for algorithm in ALGORITHMS {
            for exec in EXEC_BACKENDS {
                let mut dev = cfg.device();
                let opts = ApspOptions {
                    algorithm: Some(algorithm),
                    sdc_guard: SdcGuardMode::Full,
                    exec,
                    telemetry: true,
                    ..Default::default()
                };
                let result = apsp(&case.graph, &mut dev, &opts).unwrap_or_else(|e| {
                    panic!(
                        "{}/{algorithm:?}/{exec}: guarded clean run failed: {e}",
                        case.name
                    )
                });
                let report = result.telemetry.as_ref().unwrap();
                assert_eq!(
                    report.sdc_detected, 0,
                    "{}/{algorithm:?}/{exec}: false positive on a clean run",
                    case.name
                );
                assert_eq!(report.sdc_recovered_panel + report.sdc_recovered_round, 0);
                assert_eq!(
                    result.store.to_dist_matrix().unwrap(),
                    reference,
                    "{}/{algorithm:?}/{exec}: guard perturbed the result",
                    case.name
                );
            }
        }
    }
}

#[test]
fn guard_invariants_hold_at_inf_and_saturation_boundaries() {
    // Weights just under `INF`: every two-edge path sum clamps back to
    // `INF` via `dist_add`, so the store is full of values sitting
    // exactly on the ceiling the range invariant polices and the
    // triangle samples add in `u64`. None of that may read as
    // corruption, on any backend.
    let w = WeightRange::new(INF / 2, INF - 1);
    let g = gnp(64, 0.08, w, 0x5A7);
    let reference = bgl_plus_apsp(&g);
    let cfg = RunnerConfig::default();
    for algorithm in ALGORITHMS {
        for exec in EXEC_BACKENDS {
            let mut dev = cfg.device();
            let opts = ApspOptions {
                algorithm: Some(algorithm),
                sdc_guard: SdcGuardMode::Full,
                exec,
                telemetry: true,
                ..Default::default()
            };
            let result = apsp(&g, &mut dev, &opts).unwrap();
            let report = result.telemetry.as_ref().unwrap();
            assert_eq!(
                report.sdc_detected, 0,
                "{algorithm:?}/{exec}: saturation clamping read as corruption"
            );
            assert_eq!(result.store.to_dist_matrix().unwrap(), reference, "{exec}");
        }
    }
}
