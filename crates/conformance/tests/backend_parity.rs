//! Backend parity: the `Scalar` and `Simd` execution backends must
//! produce bit-identical matrices everywhere they are offered.
//!
//! The optimized backend's claim is not "close enough" but *exact*: the
//! branchless rows compute the same `min`/saturating-add lattice
//! operations, the register-tiled SIMD micro-kernel clamps into the
//! same lattice before its vector adds, and every band split is placed
//! on a loop whose iterations are independent. These tests hold that
//! claim against the full algorithm × storage matrix, over multiple
//! corpus families, at several thread counts — and through a
//! kill–resume cycle, where a backend-dependent intermediate would
//! surface as a divergent resumed matrix.

use apsp_conformance::{run_kill_resume, Case, CrashCellOptions, Family, RunnerConfig, StoreKind};
use apsp_core::options::{Algorithm, ExecBackend};
use apsp_core::{apsp, ApspOptions};
use apsp_cpu::DistMatrix;
use apsp_graph::CsrGraph;

const ALGORITHMS: [Algorithm; 3] = [
    Algorithm::FloydWarshall,
    Algorithm::Johnson,
    Algorithm::Boundary,
];

fn run_with(graph: &CsrGraph, algorithm: Algorithm, disk: bool, exec: ExecBackend) -> DistMatrix {
    let cfg = RunnerConfig::default();
    let mut dev = cfg.device();
    let opts = ApspOptions {
        algorithm: Some(algorithm),
        storage: cfg.backend(StoreKind::of(disk)),
        exec,
        ..Default::default()
    };
    let result = apsp(graph, &mut dev, &opts).unwrap_or_else(|e| {
        panic!(
            "{algorithm:?}/{exec} failed at n = {}: {e}",
            graph.num_vertices()
        )
    });
    result
        .store
        .to_dist_matrix()
        .unwrap_or_else(|e| panic!("store unreadable after {algorithm:?}/{exec}: {e}"))
}

/// Panic with the first diverging cell instead of dumping two n² Debug
/// matrices.
fn assert_bitwise(expected: &DistMatrix, got: &DistMatrix, label: &str) {
    if expected == got {
        return;
    }
    let n = expected.n();
    let idx = (0..n * n)
        .find(|&i| expected.as_slice()[i] != got.as_slice()[i])
        .unwrap();
    panic!(
        "{label}: cell ({}, {}) = {}, scalar backend got {}",
        idx / n,
        idx % n,
        got.as_slice()[idx],
        expected.as_slice()[idx]
    );
}

#[test]
fn optimized_backends_agree_bitwise_across_the_matrix() {
    let cases = [
        Case::generate(Family::ErdosRenyi, 0xBACC),
        Case::generate(Family::Grid, 0xBACC),
        Case::generate(Family::Disconnected, 0xBACC),
    ];
    // Auto-sized, single-threaded, and an odd explicit count. At corpus
    // sizes (n of 90 to 96) the larger kernel calls clear the 2¹⁶-op
    // dispatch floor, but helpers join only when the pool is free, so
    // the unit parity tests of `parallel`, `blocked_fw`, `minplus` and
    // `tile_store` pin shapes that split across 2 and 3 workers. The simd backend shifts
    // every register-tile boundary as n varies across families.
    let optimized_execs = [
        ExecBackend::simd(),
        ExecBackend::Simd { threads: Some(1) },
        ExecBackend::Simd { threads: Some(3) },
    ];
    for case in &cases {
        for algorithm in ALGORITHMS {
            for disk in [false, true] {
                let scalar = run_with(&case.graph, algorithm, disk, ExecBackend::scalar());
                for exec in optimized_execs {
                    let got = run_with(&case.graph, algorithm, disk, exec);
                    assert_bitwise(
                        &scalar,
                        &got,
                        &format!(
                            "{}/{algorithm:?}/{}/{exec}",
                            case.name,
                            if disk { "disk" } else { "memory" }
                        ),
                    );
                }
            }
        }
    }
}

#[test]
fn optimized_backends_survive_kill_resume_bit_identically() {
    // `run_kill_resume` checks the interrupted-and-resumed matrix
    // bitwise against the CPU reference, so running its three-step
    // differential with the optimized backend in every per-algorithm
    // option block proves the backend through checkpoint commit,
    // crash, and replay — not just through a clean run.
    let case = Case::generate(Family::ErdosRenyi, 0x9D5E);
    let exec = ExecBackend::Simd { threads: Some(3) };
    let mut cell = CrashCellOptions::default();
    cell.fw.exec = exec;
    cell.johnson.exec = exec;
    cell.boundary.exec = exec;
    // Same provisioning trick as `crash_resume`: Floyd-Warshall and
    // Johnson get a tiny device so the 90-vertex run crosses several
    // commit barriers (Johnson fits in one batch otherwise); the
    // boundary algorithm keeps the default device and gets a fixed
    // component count with per-component flushes.
    cell.boundary.num_components = Some(6);
    cell.boundary.batch_transfers = false;
    for algorithm in ALGORITHMS {
        let cfg = RunnerConfig {
            device_bytes: match algorithm {
                Algorithm::Boundary => RunnerConfig::default().device_bytes,
                _ => 32 << 10,
            },
            ..Default::default()
        };
        for disk in [false, true] {
            let report = run_kill_resume(&case, algorithm, disk, 0x51EE7, &cfg, &cell)
                .unwrap_or_else(|e| {
                    panic!(
                        "kill–resume under the {exec} backend broke for {algorithm:?}/{}: {e}",
                        if disk { "disk" } else { "memory" }
                    )
                });
            assert!(
                report.crash_after_ops < report.total_ops,
                "crash point must interrupt the run"
            );
        }
    }
}

// Property coverage for the simd backend's two honest hazards: lattice
// saturation (paths whose tropical sums clamp at INF must clamp
// identically in the vector and scalar lowering) and ragged geometry
// (vertex counts that are not multiples of the register-tile lane
// width, so every product ends in a padded edge tile). The micro-kernel
// has its own tile-level property in `apsp-cpu`; this one drives whole
// `apsp` runs so tile dispatch, panel packing, and the OOC drivers sit
// between the property and the kernel.
mod simd_properties {
    use super::*;
    use apsp_graph::generators::{gnp, WeightRange};
    use apsp_graph::INF;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Saturation boundaries: weights drawn from the top of the
        /// lattice, where any two-edge path exceeds INF and must clamp.
        /// A vector add that wrapped, or a tail lane that clamped
        /// differently from the scalar kernel, diverges bitwise here.
        #[test]
        fn simd_matches_scalar_at_saturation(
            n in 30usize..70,
            seed in 0u64..u64::MAX,
            dense in 0u32..2,
        ) {
            let p = if dense == 1 { 0.3 } else { 0.05 };
            let g = gnp(n, p, WeightRange::new(INF / 2, INF - 1), seed);
            for algorithm in ALGORITHMS {
                let scalar = run_with(&g, algorithm, false, ExecBackend::scalar());
                let simd = run_with(&g, algorithm, false, ExecBackend::simd());
                prop_assert_eq!(
                    scalar.as_slice(),
                    simd.as_slice(),
                    "{:?} diverged at saturation, n={}",
                    algorithm,
                    n
                );
            }
        }

        /// Ragged geometry: n avoids multiples of the SIMD lane count,
        /// so every row of every tile ends in the masked scalar tail,
        /// and the blocked drivers see partial edge tiles in both
        /// dimensions.
        #[test]
        fn simd_matches_scalar_at_non_lane_multiple_dims(
            base in 4usize..9,
            offset in 1usize..8,
            seed in 0u64..u64::MAX,
        ) {
            // 8k + r with r in 1..8 is never a multiple of 8 (or 16).
            let n = base * 8 + offset;
            let g = gnp(n, 0.1, WeightRange::default(), seed);
            for algorithm in ALGORITHMS {
                let scalar = run_with(&g, algorithm, false, ExecBackend::scalar());
                let simd = run_with(&g, algorithm, false, ExecBackend::simd());
                prop_assert_eq!(
                    scalar.as_slice(),
                    simd.as_slice(),
                    "{:?} diverged at ragged n={}",
                    algorithm,
                    n
                );
            }
        }
    }
}
