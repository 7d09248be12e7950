//! The selector-calibration conformance matrix.
//!
//! The calibration layer's contract has three legs, and this file pins
//! all of them on two device profiles:
//!
//! 1. **Convergence** — replaying the same graph with a persisted
//!    calibration store, the selected algorithm's relative prediction
//!    error `|predicted − realized| / realized` is non-increasing round
//!    over round, its running mean strictly decreases, and the sequence
//!    ends within 0.5 of the realized time (the seed constants alone
//!    start far outside that).
//! 2. **Selection quality** — after the replay, the selector's choice
//!    coincides with the algorithm that is realized-fastest on that
//!    graph + profile (measured by forcing each algorithm in turn).
//! 3. **Neutrality** — calibration never perturbs a run it rides along
//!    with: every round's matrix is bit-identical to an uncalibrated
//!    baseline, the simulated clock matches, and the scalar and simd
//!    backends agree bit-for-bit with calibration on.
//!
//! The store itself is exercised separately: distinct profiles get
//! distinct store files, and a forced-algorithm run (the `bench_kernels`
//! shape) must cost *every* structurally-eligible candidate — the
//! regression pin for the boundary model's `predicted_s: null` gap.
//!
//! `APSP_CALIBRATION_RUNS` widens the replay for the nightly CI job.

use apsp_conformance::calibration::replay;
use apsp_core::options::{Algorithm, ExecBackend};
use apsp_core::{apsp, ApspOptions, CalibrationStore};
use apsp_gpu_sim::{DeviceProfile, GpuDevice};
use apsp_graph::generators::{gnp, WeightRange};
use apsp_graph::CsrGraph;
use std::path::PathBuf;

/// A dense-class graph the selector has a real decision to make on:
/// the same shape `bench_kernels` runs.
fn replay_graph() -> CsrGraph {
    gnp(96, 0.06, WeightRange::default(), 0xBE7C)
}

/// The two paper profiles, shrunk so the out-of-core paths engage.
fn profiles() -> [DeviceProfile; 2] {
    [
        DeviceProfile::v100().with_memory_bytes(256 << 10),
        DeviceProfile::k80().with_memory_bytes(256 << 10),
    ]
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("apsp_conformance_calibration")
        .join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn replay_rounds() -> usize {
    std::env::var("APSP_CALIBRATION_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5)
        .max(5)
}

#[test]
fn replayed_predictions_converge_onto_realized_times() {
    let g = replay_graph();
    let rounds = replay_rounds();
    for profile in profiles() {
        let dir = scratch_dir(&format!("converge-{}", profile.name));
        let report = replay(&profile, &g, &dir, rounds);
        eprintln!("{}", report.render());
        assert_eq!(report.rounds.len(), rounds);

        // Leg 1: per-round error never grows, the running mean strictly
        // shrinks, and the final mean lands within 0.5 of realized.
        for pair in report.rounds.windows(2) {
            assert!(
                pair[1].rel_error() <= pair[0].rel_error() + 1e-12,
                "{}: round {} error {} grew over round {} error {}",
                profile.name,
                pair[1].round,
                pair[1].rel_error(),
                pair[0].round,
                pair[0].rel_error()
            );
        }
        for k in 1..rounds {
            assert!(
                report.mean_rel_error_through(k) < report.mean_rel_error_through(k - 1),
                "{}: running mean stalled at round {k}",
                profile.name
            );
        }
        let final_mean = report.mean_rel_error_through(rounds - 1);
        assert!(
            final_mean <= 0.5,
            "{}: final mean relative error {final_mean} > 0.5",
            profile.name
        );
        // The convergence is the refit's doing: the seed constants alone
        // stay at their round-1 error for the whole sequence.
        let seed_err = {
            let r = &report.rounds[rounds - 1];
            (r.seed_predicted_s - r.realized_s).abs() / r.realized_s
        };
        assert!(
            report.rounds[rounds - 1].rel_error() < seed_err,
            "{}: refit no better than seed constants",
            profile.name
        );

        // Leg 2: the calibrated selector ends up agreeing with reality.
        assert_eq!(
            report.final_selected(),
            report.realized_fastest,
            "{}: final selection disagrees with the realized-fastest algorithm",
            profile.name
        );

        // Leg 3: no round's matrix may deviate from the uncalibrated
        // baseline.
        for r in &report.rounds {
            assert!(
                r.matrix_identical,
                "{}: round {} matrix diverged from the uncalibrated run",
                profile.name, r.round
            );
        }

        // The store grew one observation per round and survives reopen.
        let store = CalibrationStore::open(&dir, &profile).unwrap();
        assert_eq!(store.runs(), rounds as u64);
        assert!(report.store_path.is_file());
        assert_eq!(store.path(), report.store_path.as_path());
    }
}

#[test]
fn profiles_get_distinct_store_files() {
    let g = replay_graph();
    let dir = scratch_dir("distinct-stores");
    let [v100, k80] = profiles();
    for profile in [&v100, &k80] {
        let mut dev = GpuDevice::new(profile.clone());
        let opts = ApspOptions {
            calibration_dir: Some(dir.clone()),
            ..Default::default()
        };
        apsp(&g, &mut dev, &opts).unwrap();
    }
    let v100_store = CalibrationStore::open(&dir, &v100).unwrap();
    let k80_store = CalibrationStore::open(&dir, &k80).unwrap();
    assert_ne!(v100_store.path(), k80_store.path());
    assert_eq!(v100_store.runs(), 1);
    assert_eq!(k80_store.runs(), 1);
    // Same name, different constants ⇒ still a different file: the key
    // is structural, not nominal.
    let bigger = v100.with_memory_bytes(512 << 10);
    assert_ne!(
        CalibrationStore::fresh(&dir, &v100).path(),
        CalibrationStore::fresh(&dir, &bigger).path()
    );
}

#[test]
fn calibration_is_inert_within_a_single_run_across_backends() {
    // The satellite neutrality gate: with a calibration store in play,
    // matrices, clocks, and selections must match the calibration-off
    // run — for every host backend, which must also agree bit-for-bit
    // with each other (the backend-parity contract, now crossed with
    // calibration).
    let g = replay_graph();
    let [v100, _] = profiles();
    let mut matrices = Vec::new();
    for exec in [ExecBackend::Scalar, ExecBackend::Simd { threads: Some(2) }] {
        let run = |calibration_dir: Option<PathBuf>| {
            let mut dev = GpuDevice::new(v100.clone());
            let opts = ApspOptions {
                exec,
                telemetry: true,
                calibration_dir,
                ..Default::default()
            };
            apsp(&g, &mut dev, &opts).unwrap()
        };
        let off = run(None);
        let tag = exec.name();
        let on = run(Some(scratch_dir(&format!("neutral-{tag}"))));
        assert_eq!(off.algorithm, on.algorithm, "{tag}: selection changed");
        assert_eq!(off.sim_seconds, on.sim_seconds, "{tag}: clock changed");
        let (m_off, m_on) = (
            off.store.to_dist_matrix().unwrap(),
            on.store.to_dist_matrix().unwrap(),
        );
        assert_eq!(m_off, m_on, "{tag}: calibration perturbed the matrix");
        matrices.push(m_on);
    }
    for m in &matrices[1..] {
        assert_eq!(&matrices[0], m, "backends disagree with calibration on");
    }
}

#[test]
fn forced_runs_cost_every_structurally_eligible_candidate() {
    // Regression pin for the `bench_kernels` artifact gap: a forced
    // boundary run on the dense benchmark graph used to emit
    // `predicted_s: null` for the boundary candidate (density-filtered
    // candidates were never costed). Every candidate that is not masked
    // and not infeasible must now carry a finite prediction — and its
    // seed twin — in the telemetry of every forced run.
    let g = replay_graph();
    let [v100, _] = profiles();
    for algorithm in [
        Algorithm::FloydWarshall,
        Algorithm::Johnson,
        Algorithm::Boundary,
    ] {
        let mut dev = GpuDevice::new(v100.clone());
        let opts = ApspOptions {
            algorithm: Some(algorithm),
            telemetry: true,
            ..Default::default()
        };
        let result = apsp(&g, &mut dev, &opts).unwrap();
        let report = result.telemetry.as_ref().unwrap();
        for rec in &report.calibration {
            assert!(
                rec.predicted_s.is_some_and(f64::is_finite),
                "forced {algorithm:?}: candidate {} has no finite prediction: {rec:?}",
                rec.algorithm
            );
            assert!(
                rec.seed_predicted_s.is_some_and(f64::is_finite),
                "forced {algorithm:?}: candidate {} has no seed prediction: {rec:?}",
                rec.algorithm
            );
        }
    }
}
