//! The kill–resume differential matrix: every checkpointed algorithm ×
//! {Memory, Disk} storage, killed at a seed-chosen store operation and
//! resumed in a fresh device/store. The resumed matrix must equal the
//! uninterrupted run's bit-for-bit, and a corrupted checkpoint must be
//! rejected with a typed error — never silently wrong distances.
//!
//! Nightly CI sets `APSP_CRASH_POINTS` to widen the number of kill
//! points per cell around the same fixed seed; a failure there prints
//! the crash seed that reproduces it in `run_kill_resume`.

use apsp_conformance::{run_kill_resume, Case, CrashCellOptions, Family, RunnerConfig, StoreKind};
use apsp_core::options::Algorithm;
use apsp_core::{apsp, ApspErrorKind, ApspOptions, Checkpoint, CheckpointOptions, TileStore};

const ALGORITHMS: [Algorithm; 3] = [
    Algorithm::FloydWarshall,
    Algorithm::Johnson,
    Algorithm::Boundary,
];

/// The fixed crash-matrix seed; per-cell kill points derive from it.
const CRASH_SEED: u64 = 0x1C1E;

fn crash_points() -> u64 {
    std::env::var("APSP_CRASH_POINTS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(1)
        .max(1)
}

#[test]
fn killed_and_resumed_runs_match_uninterrupted_runs_bitwise() {
    let case = Case::generate(Family::ErdosRenyi, 0xC8A51);
    let points = crash_points();
    for algorithm in ALGORITHMS {
        // Floyd-Warshall and Johnson get a device small enough to force
        // several commit barriers on a 90-vertex graph (Johnson fits it
        // in a single batch at the runner default, leaving nothing to
        // kill); the boundary algorithm's working set — boundary graph
        // plus a component block — needs the default device, and gets a
        // fixed component count — with transfer batching off, so every
        // component flush is a durable commit barrier instead of one
        // deferred flush at the end.
        let cfg = RunnerConfig {
            device_bytes: match algorithm {
                Algorithm::Boundary => RunnerConfig::default().device_bytes,
                _ => 32 << 10,
            },
            ..Default::default()
        };
        let mut cell = CrashCellOptions::default();
        cell.boundary.num_components = Some(6);
        cell.boundary.batch_transfers = false;
        for disk in [false, true] {
            for point in 0..points {
                let seed = CRASH_SEED
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(point);
                let report = run_kill_resume(&case, algorithm, disk, seed, &cfg, &cell)
                    .unwrap_or_else(|detail| {
                        panic!(
                            "{algorithm:?}/{} kill point {point} (seed {seed:#x}): {detail}",
                            if disk { "disk" } else { "memory" }
                        )
                    });
                assert_eq!(report.interrupted_kind, ApspErrorKind::Storage);
                eprintln!(
                    "{algorithm:?}/{}: {report}",
                    if disk { "disk" } else { "memory" }
                );
            }
        }
    }
}

#[test]
fn resume_against_a_corrupted_checkpoint_is_rejected_typed() {
    // Commit a real mid-run checkpoint, then corrupt it three ways. Each
    // resume must fail with `Corruption` — never produce distances.
    let cfg = RunnerConfig::default();
    let case = Case::generate(Family::Grid, 0xC8A52);
    let g = &case.graph;
    let dir = cfg.scratch_dir.join("crash-corruption");
    let _ = std::fs::remove_dir_all(&dir);

    let seed_checkpoint = || {
        let ckpt = Checkpoint::new(&dir, g).unwrap();
        ckpt.clear().unwrap();
        let mut store = TileStore::new(g.num_vertices(), &cfg.backend(StoreKind::Memory)).unwrap();
        apsp_core::ooc_fw::init_store_from_graph(g, &mut store).unwrap();
        ckpt.commit(
            &store,
            &apsp_core::Progress::Johnson {
                batch_size: 16,
                next_row: 16,
            },
        )
        .unwrap();
        ckpt
    };
    let resume = |forced: Option<Algorithm>| {
        let mut dev = cfg.device();
        let opts = ApspOptions {
            algorithm: forced,
            checkpoint: Some(CheckpointOptions {
                dir: dir.clone(),
                resume: true,
            }),
            ..Default::default()
        };
        apsp(g, &mut dev, &opts)
    };

    // Truncated manifest.
    seed_checkpoint();
    let manifest = dir.join("manifest");
    let bytes = std::fs::read(&manifest).unwrap();
    std::fs::write(&manifest, &bytes[..bytes.len() / 2]).unwrap();
    let err = resume(None).expect_err("truncated manifest must not resume");
    assert_eq!(err.kind(), ApspErrorKind::Corruption, "{err}");

    // Flipped byte in the committed snapshot.
    let ckpt = seed_checkpoint();
    let slot = dir.join(&ckpt.load().unwrap().unwrap().state_file);
    let mut snap = std::fs::read(&slot).unwrap();
    let mid = snap.len() / 2;
    snap[mid] ^= 0x40;
    std::fs::write(&slot, &snap).unwrap();
    let err = resume(None).expect_err("bit-flipped snapshot must not resume");
    assert_eq!(err.kind(), ApspErrorKind::Corruption, "{err}");

    // Manifest written for a different graph (fingerprint mismatch).
    seed_checkpoint();
    let other = Case::generate(Family::Grid, 0xC8A53);
    let mut dev = cfg.device();
    let opts = ApspOptions {
        algorithm: None,
        checkpoint: Some(CheckpointOptions {
            dir: dir.clone(),
            resume: true,
        }),
        ..Default::default()
    };
    let err = apsp(&other.graph, &mut dev, &opts)
        .expect_err("a checkpoint for a different graph must not resume");
    assert_eq!(err.kind(), ApspErrorKind::Corruption, "{err}");

    // A conflicting forced algorithm is invalid input, not corruption.
    seed_checkpoint();
    let err = resume(Some(Algorithm::FloydWarshall))
        .expect_err("forcing a different algorithm than the manifest must fail");
    assert_eq!(err.kind(), ApspErrorKind::InvalidInput, "{err}");

    let _ = std::fs::remove_dir_all(&dir);
}
