//! The kind of every tile-store and durability failure, pinned at the
//! public entry points: argument checks are `InvalidInput`, a persisted
//! file or checkpoint that fails validation is `Corruption`, a guard
//! mismatch is `SilentCorruption`, a tripped cancel token is `Cancelled`,
//! and only what the OS or an injected fault reports is `Storage`, with
//! its `io::Error` still inside.

use apsp_core::verify::verify_rows;
use apsp_core::{
    paths::path_from_parent_store, ApspError, ApspErrorKind, CancelToken, Checkpoint, DiskFault,
    DiskFaultPlan, Progress, SdcGuardMode, StorageBackend, SupervisionOptions, Supervisor,
    TileStore,
};
use apsp_graph::generators::{gnp, WeightRange};
use std::io;
use std::path::{Path, PathBuf};

/// The error `r` failed with, as an [`ApspError`].
fn failure<T: std::fmt::Debug, E>(r: Result<T, E>) -> ApspError
where
    ApspError: From<E>,
{
    ApspError::from(r.expect_err("the call must fail"))
}

/// A store of side `n` persisted to `path`, as bytes.
fn persisted(n: usize, path: &Path) -> Vec<u8> {
    TileStore::new(n, &StorageBackend::Memory)
        .unwrap()
        .persist(path)
        .unwrap();
    std::fs::read(path).unwrap()
}

/// `TileStore::open(path, n)` after writing `bytes` there.
fn open_bytes(path: &Path, bytes: &[u8], n: usize) -> ApspError {
    std::fs::write(path, bytes).unwrap();
    failure(TileStore::open(path, n))
}

/// A disk store over `dir` with `plan` armed, after a write of row 0.
fn faulted_write(dir: &Path, plan: DiskFaultPlan) -> ApspError {
    let mut s = TileStore::new(4, &StorageBackend::Disk(dir.to_path_buf())).unwrap();
    s.arm_faults(plan);
    failure(s.write_row(0, &[0, 1, 2, 3]))
}

#[test]
fn every_store_and_durability_failure_has_its_kind() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("apsp_error_kinds-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("m.bin");
    let store = TileStore::new(4, &StorageBackend::Memory).unwrap();
    let mut cases: Vec<(&str, ApspErrorKind, ApspError)> = Vec::new();
    let mut case = |name, want, got| cases.push((name, want, got));

    // Arguments.
    case(
        "read_block out of range",
        ApspErrorKind::InvalidInput,
        failure(store.read_block(0..5, 0..4)),
    );
    let mut s = TileStore::new(4, &StorageBackend::Memory).unwrap();
    case(
        "write_row of the wrong width",
        ApspErrorKind::InvalidInput,
        failure(s.write_row(0, &[1, 2])),
    );
    case(
        "panel_checksums(0)",
        ApspErrorKind::InvalidInput,
        failure(store.panel_checksums(0)),
    );
    let g5 = gnp(5, 0.5, WeightRange::default(), 1);
    case(
        "verify_rows on a store of another size",
        ApspErrorKind::InvalidInput,
        failure(verify_rows(&g5, &store, 3, 1)),
    );
    let spill = dir.join("spill");
    let disk = TileStore::new(4, &StorageBackend::Disk(spill.clone())).unwrap();
    case(
        "persist into the spill directory",
        ApspErrorKind::InvalidInput,
        failure(disk.persist(spill.join("m.bin"))),
    );
    case(
        "path_from_parent_store of an out-of-range pair",
        ApspErrorKind::InvalidInput,
        failure(path_from_parent_store(&store, 0, 4)),
    );

    // Persisted files and durable state.
    let clean = persisted(4, &file);
    case(
        "open a short file",
        ApspErrorKind::Corruption,
        open_bytes(&file, &clean[..10], 4),
    );
    case(
        "open a file without the magic",
        ApspErrorKind::Corruption,
        open_bytes(&file, &vec![0; clean.len()], 4),
    );
    case(
        "open at the wrong n",
        ApspErrorKind::Corruption,
        open_bytes(&file, &clean, 5),
    );
    let mut longer = clean.clone();
    longer.extend_from_slice(&[0; 3]);
    case(
        "open a file of the wrong length",
        ApspErrorKind::Corruption,
        open_bytes(&file, &longer, 4),
    );
    let mut footer = clean.clone();
    footer[16 + 4 * 4 * 4] ^= 0x01;
    case(
        "open a file with an unknown footer",
        ApspErrorKind::Corruption,
        open_bytes(&file, &footer, 4),
    );
    let mut parents = TileStore::new(3, &StorageBackend::Memory).unwrap();
    parents.write_row(0, &[0, 2, 1]).unwrap();
    case(
        "a parent chain that does not terminate",
        ApspErrorKind::Corruption,
        failure(path_from_parent_store(&parents, 0, 1)),
    );
    let ckpt_dir = dir.join("ckpt");
    let ckpt = Checkpoint::new(&ckpt_dir, &g5).unwrap();
    let progress = Progress::Johnson {
        batch_size: 1,
        next_row: 1,
    };
    ckpt.commit(
        &TileStore::new(5, &StorageBackend::Memory).unwrap(),
        &progress,
    )
    .unwrap();
    let manifest = ckpt.load().unwrap().unwrap();
    std::fs::remove_file(ckpt_dir.join(&manifest.state_file)).unwrap();
    let mut target = TileStore::new(5, &StorageBackend::Memory).unwrap();
    case(
        "restore a snapshot the manifest names but the disk lacks",
        ApspErrorKind::Corruption,
        failure(ckpt.restore_into(&manifest, &mut target)),
    );

    // The guard and the cancel token.
    let mut s = TileStore::new(4, &StorageBackend::Memory).unwrap();
    s.set_sdc_guard(SdcGuardMode::Checksum).unwrap();
    s.arm_bit_flip(0, 5);
    s.write_row(2, &[9, 9, 9, 9]).unwrap();
    case(
        "a flip the guard catches",
        ApspErrorKind::SilentCorruption,
        failure(s.read_row(2)),
    );
    let mut s = TileStore::new(4, &StorageBackend::Memory).unwrap();
    let opts = SupervisionOptions {
        cancel: Some(CancelToken::cancel_after_checks(2)),
        ..Default::default()
    };
    s.set_supervision(Supervisor::new(&opts, 0.0));
    case(
        "a cancel token tripped mid-op",
        ApspErrorKind::Cancelled,
        failure(s.read_block(0..3, 0..4)),
    );

    // What the OS or an injected fault reports.
    let enospc = faulted_write(
        &spill,
        DiskFaultPlan {
            write_faults: vec![(0, DiskFault::Enospc)],
            read_faults: vec![],
        },
    );
    let short = faulted_write(
        &spill,
        DiskFaultPlan {
            write_faults: vec![(0, DiskFault::ShortWrite)],
            read_faults: vec![],
        },
    );
    let mut s = TileStore::new(4, &StorageBackend::Memory).unwrap();
    s.arm_crash(0);
    let crash = failure(s.read_row(0));
    let io_of = |e: &ApspError| match e {
        ApspError::Storage(io) => Some((io.raw_os_error(), io.kind())),
        _ => None,
    };
    assert_eq!(io_of(&enospc), Some((Some(28), io::ErrorKind::StorageFull)));
    assert_eq!(io_of(&short), Some((None, io::ErrorKind::WriteZero)));
    assert_eq!(io_of(&crash), Some((None, io::ErrorKind::Other)));
    case("injected ENOSPC", ApspErrorKind::Storage, enospc);
    case("injected short write", ApspErrorKind::Storage, short);
    case("injected crash point", ApspErrorKind::Storage, crash);
    let under_a_file = file.join("ckpt");
    case(
        "Checkpoint::new under a file",
        ApspErrorKind::Storage,
        failure(Checkpoint::new(&under_a_file, &g5)),
    );

    let wrong: Vec<String> = cases
        .iter()
        .filter(|(_, want, got)| got.kind() != *want)
        .map(|(name, want, got)| format!("{name}: want {want:?}, got {:?} ({got})", got.kind()))
        .collect();
    drop(disk);
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(wrong.is_empty(), "wrong kinds:\n{}", wrong.join("\n"));
}
