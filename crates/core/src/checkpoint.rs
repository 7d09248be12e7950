//! Crash-safe checkpoint/resume for the out-of-core runs.
//!
//! A checkpoint is a directory holding two things:
//!
//! * `state-{a,b}.bin` — a full snapshot of the [`TileStore`] matrix,
//!   in [`TileStore::persist`]'s format. Commits alternate between the
//!   two slots and rewrite the one the manifest does not name in place
//!   (`set_len`, positional writes, `sync_all`), so the snapshot named by
//!   the manifest is never the one being replaced.
//! * `manifest` — a small versioned text file naming the live slot and
//!   recording the run's identity (graph fingerprint, dimension), its
//!   geometry + progress cursor, and per-row-panel FNV-1a checksums of
//!   the snapshot: the footer `persist` wrote, which the commit verified
//!   against one read-back of the file. The manifest ends in a
//!   self-checksum line and is itself written atomically — renaming it
//!   into place, then syncing the directory, is the commit point of the
//!   whole checkpoint.
//!
//! Recovery is exact, not approximate, because the three out-of-core
//! algorithms only ever move store cells *downward* toward the metric
//! closure (min-plus relaxations are monotone) or overwrite rows with
//! values recomputed from the graph. Replaying a partially-committed
//! round/batch/phase on a restored snapshot therefore converges to the
//! same matrix as an uninterrupted run — the kill-resume differential
//! tests in `crates/conformance` enforce this bit-for-bit.
//!
//! Failure policy: a *missing* manifest means "no checkpoint" and resumes
//! as a fresh start (a crash can precede the first commit), but a
//! *present-and-invalid* one — truncated, failing its self-checksum,
//! fingerprinting a different graph, or naming a snapshot whose panel
//! checksums do not match — is always a typed
//! [`ApspError::Corruption`]. Wrong distances are never an outcome.

use crate::error::ApspError;
use crate::options::Algorithm;
use crate::tile_store::{create_dir_durable, write_atomic, TileStore, SDC_PANEL_ROWS};
use apsp_graph::{fnv1a, CsrGraph, VertexId, FNV_OFFSET_BASIS};
use std::io;
use std::path::{Path, PathBuf};

/// Manifest format version this build writes and understands.
pub const MANIFEST_VERSION: u32 = 1;

/// Rows per checksum panel recorded in new manifests. Small enough that
/// a corrupt region is localized, large enough that the manifest stays
/// tiny even for paper-scale matrices.
pub const DEFAULT_PANEL_ROWS: usize = 64;

// A commit records the footer `persist` wrote, whose panels are
// `SDC_PANEL_ROWS` high.
const _: () = assert!(DEFAULT_PANEL_ROWS == SDC_PANEL_ROWS);

/// Where a run is, in units of its natural commit barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Progress {
    /// Blocked Floyd-Warshall: `next_round` pivot rounds of `n_d =
    /// ceil(n / block)` are fully applied to the snapshot.
    FloydWarshall {
        /// Tile side the committed rounds ran at (rounds are only
        /// resumable at the same blocking).
        block: usize,
        /// First pivot round not yet committed.
        next_round: usize,
    },
    /// Batched Johnson's: every source row below `next_row` is final in
    /// the snapshot.
    Johnson {
        /// Batch size of the committed run (informational; a resume may
        /// re-batch the remaining rows freely).
        batch_size: usize,
        /// First source row not yet committed.
        next_row: usize,
    },
    /// Boundary algorithm: every component below `next_component` has
    /// its dist₄ row panel final in the snapshot. dist₂/dist₃ are
    /// recomputed on resume (deterministic given the partition), so the
    /// cursor only advances through the streaming phase.
    Boundary {
        /// Component count of the committed partition.
        components: usize,
        /// Partitioner seed — the resume must reproduce the identical
        /// partition or the committed panels would describe the wrong
        /// vertex sets.
        partition_seed: u64,
        /// First component whose dist₄ panel is not yet committed.
        next_component: usize,
    },
}

impl Progress {
    /// The algorithm that committed this progress.
    pub fn algorithm(&self) -> Algorithm {
        match self {
            Progress::FloydWarshall { .. } => Algorithm::FloydWarshall,
            Progress::Johnson { .. } => Algorithm::Johnson,
            Progress::Boundary { .. } => Algorithm::Boundary,
        }
    }
}

/// A parsed, self-checksum-validated manifest. Graph-fingerprint
/// validation happens in [`Checkpoint::load`]; snapshot-checksum
/// validation in [`Checkpoint::restore_into`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Format version (always [`MANIFEST_VERSION`] after a load).
    pub version: u32,
    /// [`graph_fingerprint`] of the input graph.
    pub fingerprint: u64,
    /// Matrix dimension.
    pub n: usize,
    /// Snapshot slot file name (`state-a.bin` / `state-b.bin`).
    pub state_file: String,
    /// Rows per checksum panel.
    pub panel_rows: usize,
    /// FNV-1a checksum of each consecutive `panel_rows`-row panel of the
    /// snapshot: the footer [`TileStore::persist`] wrote, verified
    /// against a read-back of the file before the manifest was written.
    pub checksums: Vec<u64>,
    /// The progress cursor.
    pub progress: Progress,
}

/// Order-sensitive FNV-1a fingerprint of a graph's exact structure and
/// weights (vertex count, edge count, every adjacency in CSR order).
/// Identical graphs — and only identical graphs, up to hash collision —
/// may resume each other's checkpoints.
pub fn graph_fingerprint(g: &CsrGraph) -> u64 {
    let mut h = FNV_OFFSET_BASIS;
    h = fnv1a(&(g.num_vertices() as u64).to_le_bytes(), h);
    h = fnv1a(&(g.num_edges() as u64).to_le_bytes(), h);
    for v in 0..g.num_vertices() as VertexId {
        for (u, w) in g.edges_from(v) {
            h = fnv1a(&u.to_le_bytes(), h);
            h = fnv1a(&w.to_le_bytes(), h);
        }
    }
    h
}

/// Handle to a checkpoint directory, bound to one graph.
#[derive(Debug)]
pub struct Checkpoint {
    dir: PathBuf,
    fingerprint: u64,
    n: usize,
    /// Slot the *next* commit writes to; flipped after every successful
    /// commit so the manifest never points at the slot being rewritten.
    next_slot: std::cell::Cell<u8>,
}

impl Checkpoint {
    /// Bind a checkpoint directory (created durably if missing) to
    /// graph `g`.
    pub fn new<P: AsRef<Path>>(dir: P, g: &CsrGraph) -> Result<Self, ApspError> {
        let dir = dir.as_ref().to_path_buf();
        create_dir_durable(&dir)?;
        Ok(Checkpoint {
            dir,
            fingerprint: graph_fingerprint(g),
            n: g.num_vertices(),
            next_slot: std::cell::Cell::new(0),
        })
    }

    /// The bound directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("manifest")
    }

    fn slot_name(slot: u8) -> &'static str {
        if slot == 0 {
            "state-a.bin"
        } else {
            "state-b.bin"
        }
    }

    /// Durably commit `store` + `progress`. The snapshot overwrites the
    /// slot the manifest does not name, in place (the file is created on
    /// the first commit to that slot), is re-opened once and checked
    /// against the footer the writer returned, and only then does the
    /// manifest rename make it the live checkpoint. A crash anywhere in
    /// between leaves the previous checkpoint intact: a torn idle slot
    /// is never named.
    pub fn commit(&self, store: &TileStore, progress: &Progress) -> Result<(), ApspError> {
        let slot = self.next_slot.get();
        let state_path = self.dir.join(Self::slot_name(slot));
        let checksums = store.overwrite(&state_path)?;
        TileStore::open(&state_path, self.n)?.verify_persisted(&checksums)?;
        let manifest = Manifest {
            version: MANIFEST_VERSION,
            fingerprint: self.fingerprint,
            n: self.n,
            state_file: Self::slot_name(slot).to_string(),
            panel_rows: DEFAULT_PANEL_ROWS.min(self.n.max(1)),
            checksums,
            progress: *progress,
        };
        write_manifest_atomic(&self.manifest_path(), &manifest)?;
        self.next_slot.set(1 - slot);
        Ok(())
    }

    /// Load and validate the manifest. `Ok(None)` means no checkpoint
    /// exists (fresh start); any present-but-invalid state is
    /// [`ApspError::Corruption`].
    pub fn load(&self) -> Result<Option<Manifest>, ApspError> {
        let path = self.manifest_path();
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let manifest = parse_manifest(&bytes).map_err(|detail| ApspError::Corruption {
            detail: format!("{}: {detail}", path.display()),
        })?;
        if manifest.fingerprint != self.fingerprint {
            return Err(ApspError::Corruption {
                detail: format!(
                    "{} was written for a different graph (fingerprint {:016x}, this graph is {:016x})",
                    path.display(),
                    manifest.fingerprint,
                    self.fingerprint
                ),
            });
        }
        if manifest.n != self.n {
            return Err(ApspError::Corruption {
                detail: format!(
                    "manifest records an {m}×{m} matrix, this graph needs {n}×{n}",
                    m = manifest.n,
                    n = self.n
                ),
            });
        }
        // Resume writes to the slot the manifest does NOT occupy.
        self.next_slot
            .set(if manifest.state_file == Self::slot_name(0) {
                1
            } else {
                0
            });
        Ok(Some(manifest))
    }

    /// The resume preamble every driver shares: load the manifest of
    /// `ckpt`, check that `cursor` recognizes its progress as this
    /// driver's (naming `algorithm` in the error when it does not), run
    /// the caller's `validate` on the cursor, then restore the snapshot
    /// into `store`. `Ok(None)` — a fresh start — when no checkpoint is
    /// armed or none is committed.
    pub(crate) fn resume<R>(
        ckpt: Option<&Checkpoint>,
        store: &mut TileStore,
        algorithm: &str,
        cursor: impl FnOnce(Progress) -> Option<R>,
        validate: impl FnOnce(&R) -> Result<(), ApspError>,
    ) -> Result<Option<R>, ApspError> {
        let Some(ckpt) = ckpt else {
            return Ok(None);
        };
        let Some(m) = ckpt.load()? else {
            return Ok(None);
        };
        let Some(resume) = cursor(m.progress) else {
            return Err(ApspError::InvalidInput(format!(
                "checkpoint in {} belongs to the `{}` algorithm, not {algorithm} — \
                 delete it to start over",
                ckpt.dir.display(),
                m.progress.algorithm().tag()
            )));
        };
        validate(&resume)?;
        ckpt.restore_into(&m, store)?;
        Ok(Some(resume))
    }

    /// Verify the snapshot named by `manifest` against its recorded
    /// checksums, with the read-back a commit runs, and copy it into
    /// `store`, reading a checksum panel at a time and writing row by
    /// row. A missing, malformed or mismatched snapshot is
    /// [`ApspError::Corruption`]; a store of the wrong dimension is
    /// [`ApspError::InvalidInput`].
    pub fn restore_into(
        &self,
        manifest: &Manifest,
        store: &mut TileStore,
    ) -> Result<(), ApspError> {
        crate::run_ctx::check_store(store, manifest.n)?;
        let state_path = self.dir.join(&manifest.state_file);
        let snapshot = match TileStore::open(&state_path, manifest.n) {
            Err(ApspError::Storage(e)) if e.kind() == io::ErrorKind::NotFound => {
                return Err(ApspError::Corruption {
                    detail: format!("snapshot {}: {e}", state_path.display()),
                })
            }
            opened => opened?,
        };
        snapshot.verify_persisted(&manifest.checksums)?;
        let n = manifest.n;
        for first in (0..n).step_by(SDC_PANEL_ROWS) {
            let rows = snapshot.read_block(first..(first + SDC_PANEL_ROWS).min(n), 0..n)?;
            for (i, row) in (first..).zip(rows.chunks_exact(n)) {
                store.write_row(i, row)?;
            }
        }
        Ok(())
    }

    /// Delete the checkpoint. The manifest goes first, so a crash
    /// mid-clear degrades to "no checkpoint" rather than a manifest
    /// pointing at a deleted snapshot. Then the slots go, and last any
    /// temp file a killed commit left before its rename, whatever pid
    /// wrote it.
    pub fn clear(&self) -> Result<(), ApspError> {
        remove_if_present(&self.manifest_path())?;
        remove_if_present(&self.dir.join(Self::slot_name(0)))?;
        remove_if_present(&self.dir.join(Self::slot_name(1)))?;
        let entries = match std::fs::read_dir(&self.dir) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            entries => entries?,
        };
        for entry in entries {
            let name = entry?.file_name();
            if name.to_str().is_some_and(is_commit_temp) {
                remove_if_present(&self.dir.join(name))?;
            }
        }
        Ok(())
    }
}

/// Whether `name` is a temp file of a commit: `.manifest.tmp.<pid>` from
/// [`write_manifest_atomic`], or `.state-a.bin.tmp.<pid>` or
/// `.state-b.bin.tmp.<pid>`, which commits that persisted their slot
/// through a temp file left behind.
fn is_commit_temp(name: &str) -> bool {
    [
        Checkpoint::slot_name(0),
        Checkpoint::slot_name(1),
        "manifest",
    ]
    .iter()
    .any(|target| {
        name.strip_prefix('.')
            .and_then(|rest| rest.strip_prefix(target))
            .and_then(|rest| rest.strip_prefix(".tmp."))
            .is_some_and(|pid| !pid.is_empty() && pid.bytes().all(|b| b.is_ascii_digit()))
    })
}

fn remove_if_present(path: &Path) -> io::Result<()> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// Serialize `m` and write it into place with [`write_atomic`], the
/// discipline [`TileStore::persist`] uses too. The rename is the commit
/// point.
fn write_manifest_atomic(path: &Path, m: &Manifest) -> Result<(), ApspError> {
    use std::io::Write;
    write_atomic(path, |mut f| f.write_all(serialize_manifest(m).as_bytes()))
}

/// A self-checksummed text file: the `<tag> <version>` header line,
/// `body`, and an `end <hex>` line carrying the FNV-1a of every byte
/// before it, so truncation and bit-rot are caught before any field is
/// trusted. Checkpoint manifests and calibration stores are sealed so.
pub(crate) fn seal(tag: &str, version: u32, body: &str) -> String {
    let mut s = format!("{tag} {version}\n{body}");
    let sum = fnv1a(s.as_bytes(), FNV_OFFSET_BASIS);
    s.push_str(&format!("end {sum:016x}\n"));
    s
}

/// Inverse of [`seal`]: verify the `end` self-checksum over everything
/// before it, then the `<tag> <version>` header, and return the body's
/// lines. Each failure is a detail string naming the file as `noun`.
pub(crate) fn unseal<'a>(
    bytes: &'a [u8],
    tag: &str,
    version: u32,
    noun: &str,
) -> Result<std::str::Lines<'a>, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| format!("{noun} is not UTF-8"))?;
    let trimmed = text.strip_suffix('\n').unwrap_or(text);
    let (body_end, end_line) = match trimmed.rfind('\n') {
        Some(i) => (i + 1, &trimmed[i + 1..]),
        None => (0, trimmed),
    };
    let declared = end_line
        .strip_prefix("end ")
        .ok_or_else(|| format!("{noun} is truncated (no `end` checksum line)"))?;
    let declared =
        u64::from_str_radix(declared.trim(), 16).map_err(|_| "unparseable `end` checksum")?;
    let actual = fnv1a(&text.as_bytes()[..body_end], FNV_OFFSET_BASIS);
    if actual != declared {
        return Err(format!(
            "self-checksum mismatch (recorded {declared:016x}, content hashes to {actual:016x}) — truncated or bit-rotted"
        ));
    }

    let mut lines = text[..body_end].lines();
    let header = lines.next().ok_or_else(|| format!("empty {noun}"))?;
    let found: u32 = header
        .strip_prefix(tag)
        .and_then(|v| v.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| format!("missing `{tag} <version>` header"))?;
    if found != version {
        return Err(format!(
            "{noun} version {found} is not supported (this build writes {version})"
        ));
    }
    Ok(lines)
}

/// Line-oriented text encoding, sealed with [`seal`].
fn serialize_manifest(m: &Manifest) -> String {
    let mut s = String::new();
    s.push_str(&format!("fingerprint {:016x}\n", m.fingerprint));
    s.push_str(&format!("n {}\n", m.n));
    s.push_str(&format!("state {}\n", m.state_file));
    s.push_str(&format!("panel_rows {}\n", m.panel_rows));
    s.push_str("checksums");
    for c in &m.checksums {
        s.push_str(&format!(" {c:016x}"));
    }
    s.push('\n');
    match m.progress {
        Progress::FloydWarshall { block, next_round } => {
            s.push_str(&format!("progress fw {block} {next_round}\n"));
        }
        Progress::Johnson {
            batch_size,
            next_row,
        } => {
            s.push_str(&format!("progress johnson {batch_size} {next_row}\n"));
        }
        Progress::Boundary {
            components,
            partition_seed,
            next_component,
        } => {
            s.push_str(&format!(
                "progress boundary {components} {partition_seed} {next_component}\n"
            ));
        }
    }
    seal("apsp-checkpoint", m.version, &s)
}

/// Inverse of [`serialize_manifest`]. Every failure mode returns a
/// human-readable detail string; the caller wraps it in
/// [`ApspError::Corruption`].
fn parse_manifest(bytes: &[u8]) -> Result<Manifest, String> {
    let lines = unseal(bytes, "apsp-checkpoint", MANIFEST_VERSION, "manifest")?;
    let mut fingerprint = None;
    let mut n = None;
    let mut state_file = None;
    let mut panel_rows = None;
    let mut checksums = None;
    let mut progress = None;
    for line in lines {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        match key {
            "fingerprint" => {
                fingerprint =
                    Some(u64::from_str_radix(rest.trim(), 16).map_err(|_| "bad fingerprint")?)
            }
            "n" => n = Some(rest.trim().parse::<usize>().map_err(|_| "bad n")?),
            "state" => {
                let name = rest.trim();
                if name != "state-a.bin" && name != "state-b.bin" {
                    return Err(format!("unknown snapshot slot {name:?}"));
                }
                state_file = Some(name.to_string());
            }
            "panel_rows" => {
                let p = rest.trim().parse::<usize>().map_err(|_| "bad panel_rows")?;
                if p == 0 {
                    return Err("panel_rows must be positive".into());
                }
                panel_rows = Some(p);
            }
            "checksums" => {
                let mut v = Vec::new();
                for tok in rest.split_whitespace() {
                    v.push(u64::from_str_radix(tok, 16).map_err(|_| "bad checksum entry")?);
                }
                checksums = Some(v);
            }
            "progress" => progress = Some(parse_progress(rest)?),
            other => return Err(format!("unknown manifest field {other:?}")),
        }
    }
    let n = n.ok_or("missing n")?;
    let panel_rows = panel_rows.ok_or("missing panel_rows")?;
    let checksums = checksums.ok_or("missing checksums")?;
    if checksums.len() != n.div_ceil(panel_rows) {
        return Err(format!(
            "checksum count {} does not cover {n} rows in panels of {panel_rows}",
            checksums.len()
        ));
    }
    Ok(Manifest {
        version: MANIFEST_VERSION,
        fingerprint: fingerprint.ok_or("missing fingerprint")?,
        n,
        state_file: state_file.ok_or("missing state")?,
        panel_rows,
        checksums,
        progress: progress.ok_or("missing progress")?,
    })
}

fn parse_progress(rest: &str) -> Result<Progress, String> {
    let toks: Vec<&str> = rest.split_whitespace().collect();
    let want = |count: usize| -> Result<(), String> {
        if toks.len() != count + 1 {
            Err(format!("progress {:?} needs {count} fields", toks.first()))
        } else {
            Ok(())
        }
    };
    let num = |i: usize| -> Result<usize, String> {
        toks[i]
            .parse::<usize>()
            .map_err(|_| format!("bad progress field {:?}", toks[i]))
    };
    match toks.first() {
        Some(&"fw") => {
            want(2)?;
            Ok(Progress::FloydWarshall {
                block: num(1)?,
                next_round: num(2)?,
            })
        }
        Some(&"johnson") => {
            want(2)?;
            Ok(Progress::Johnson {
                batch_size: num(1)?,
                next_row: num(2)?,
            })
        }
        Some(&"boundary") => {
            want(3)?;
            Ok(Progress::Boundary {
                components: num(1)?,
                partition_seed: toks[2]
                    .parse::<u64>()
                    .map_err(|_| "bad partition seed".to_string())?,
                next_component: num(3)?,
            })
        }
        other => Err(format!("unknown progress tag {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile_store::StorageBackend;
    use apsp_graph::generators::{gnp, WeightRange};

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir()
            .join("apsp_checkpoint_tests")
            .join(name);
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn seeded_store(n: usize, salt: u32) -> TileStore {
        let mut s = TileStore::new(n, &StorageBackend::Memory).unwrap();
        let row: Vec<u32> = (0..n as u32).map(|j| j.wrapping_mul(7) ^ salt).collect();
        s.write_row(1 % n.max(1), &row).unwrap();
        s
    }

    #[test]
    fn manifest_roundtrips() {
        for progress in [
            Progress::FloydWarshall {
                block: 32,
                next_round: 3,
            },
            Progress::Johnson {
                batch_size: 17,
                next_row: 120,
            },
            Progress::Boundary {
                components: 6,
                partition_seed: 0x9A17,
                next_component: 2,
            },
        ] {
            let m = Manifest {
                version: MANIFEST_VERSION,
                fingerprint: 0xDEAD_BEEF_0123_4567,
                n: 130,
                state_file: "state-b.bin".into(),
                panel_rows: 64,
                checksums: vec![1, 2, 3],
                progress,
            };
            let text = serialize_manifest(&m);
            assert_eq!(parse_manifest(text.as_bytes()).unwrap(), m);
        }
    }

    #[test]
    fn commit_load_restore_roundtrip() {
        let g = gnp(40, 0.1, WeightRange::default(), 5);
        let dir = tmp("roundtrip");
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        assert!(ckpt.load().unwrap().is_none(), "fresh dir has no manifest");

        let store = seeded_store(40, 0xA);
        let progress = Progress::Johnson {
            batch_size: 8,
            next_row: 16,
        };
        ckpt.commit(&store, &progress).unwrap();

        let ckpt2 = Checkpoint::new(&dir, &g).unwrap();
        let m = ckpt2.load().unwrap().expect("manifest committed");
        assert_eq!(m.progress, progress);
        let mut restored = TileStore::new(40, &StorageBackend::Memory).unwrap();
        ckpt2.restore_into(&m, &mut restored).unwrap();
        assert_eq!(
            restored.to_dist_matrix().unwrap(),
            store.to_dist_matrix().unwrap()
        );
        ckpt2.clear().unwrap();
        assert!(ckpt2.load().unwrap().is_none());
    }

    #[test]
    fn commits_alternate_slots_preserving_the_previous_snapshot() {
        let g = gnp(20, 0.2, WeightRange::default(), 6);
        let dir = tmp("slots");
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        let s1 = seeded_store(20, 1);
        ckpt.commit(
            &s1,
            &Progress::Johnson {
                batch_size: 4,
                next_row: 4,
            },
        )
        .unwrap();
        let m1 = ckpt.load().unwrap().unwrap();
        let s2 = seeded_store(20, 2);
        ckpt.commit(
            &s2,
            &Progress::Johnson {
                batch_size: 4,
                next_row: 8,
            },
        )
        .unwrap();
        let m2 = ckpt.load().unwrap().unwrap();
        assert_ne!(m1.state_file, m2.state_file, "slots must alternate");
        // The second commit never touched the first snapshot's slot.
        let mut restored = TileStore::new(20, &StorageBackend::Memory).unwrap();
        ckpt.restore_into(&m2, &mut restored).unwrap();
        assert_eq!(
            restored.to_dist_matrix().unwrap(),
            s2.to_dist_matrix().unwrap()
        );
    }

    #[test]
    fn truncated_manifest_is_corruption() {
        let g = gnp(30, 0.1, WeightRange::default(), 7);
        let dir = tmp("truncated");
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        ckpt.commit(
            &seeded_store(30, 3),
            &Progress::FloydWarshall {
                block: 8,
                next_round: 1,
            },
        )
        .unwrap();
        let path = dir.join("manifest");
        let full = std::fs::read(&path).unwrap();
        for cut in [0, 5, full.len() / 2, full.len() - 2] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let err = ckpt.load().unwrap_err();
            assert_eq!(
                err.kind(),
                crate::ApspErrorKind::Corruption,
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn bit_flip_in_manifest_is_corruption() {
        let g = gnp(30, 0.1, WeightRange::default(), 8);
        let dir = tmp("bitflip_manifest");
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        ckpt.commit(
            &seeded_store(30, 4),
            &Progress::Johnson {
                batch_size: 5,
                next_row: 10,
            },
        )
        .unwrap();
        let path = dir.join("manifest");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = ckpt.load().unwrap_err();
        assert_eq!(err.kind(), crate::ApspErrorKind::Corruption, "{err}");
    }

    #[test]
    fn snapshot_bit_flip_is_corruption_on_restore() {
        let g = gnp(30, 0.1, WeightRange::default(), 9);
        let dir = tmp("bitflip_state");
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        ckpt.commit(
            &seeded_store(30, 5),
            &Progress::Johnson {
                batch_size: 5,
                next_row: 10,
            },
        )
        .unwrap();
        let m = ckpt.load().unwrap().unwrap();
        // Flip one byte deep inside the snapshot the manifest points at.
        let state = dir.join(&m.state_file);
        let mut bytes = std::fs::read(&state).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&state, &bytes).unwrap();
        let mut store = TileStore::new(30, &StorageBackend::Memory).unwrap();
        let err = ckpt.restore_into(&m, &mut store).unwrap_err();
        assert_eq!(err.kind(), crate::ApspErrorKind::Corruption, "{err}");
    }

    #[test]
    fn restore_into_a_wrong_sized_store_is_invalid_input() {
        let g = gnp(30, 0.1, WeightRange::default(), 14);
        let dir = tmp("wrong_size");
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        ckpt.commit(
            &seeded_store(30, 8),
            &Progress::Johnson {
                batch_size: 5,
                next_row: 10,
            },
        )
        .unwrap();
        let m = ckpt.load().unwrap().unwrap();
        let mut store = TileStore::new(31, &StorageBackend::Memory).unwrap();
        let err = ckpt.restore_into(&m, &mut store).unwrap_err();
        assert_eq!(err.kind(), crate::ApspErrorKind::InvalidInput, "{err}");
    }

    #[test]
    fn truncated_snapshot_is_corruption_on_restore() {
        let g = gnp(30, 0.1, WeightRange::default(), 10);
        let dir = tmp("truncated_state");
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        ckpt.commit(
            &seeded_store(30, 6),
            &Progress::FloydWarshall {
                block: 8,
                next_round: 2,
            },
        )
        .unwrap();
        let m = ckpt.load().unwrap().unwrap();
        let state = dir.join(&m.state_file);
        let bytes = std::fs::read(&state).unwrap();
        std::fs::write(&state, &bytes[..bytes.len() - 8]).unwrap();
        let mut store = TileStore::new(30, &StorageBackend::Memory).unwrap();
        let err = ckpt.restore_into(&m, &mut store).unwrap_err();
        assert_eq!(err.kind(), crate::ApspErrorKind::Corruption, "{err}");
    }

    #[test]
    fn fingerprint_mismatch_is_corruption() {
        let g1 = gnp(30, 0.1, WeightRange::default(), 11);
        let g2 = gnp(30, 0.1, WeightRange::default(), 12);
        assert_ne!(graph_fingerprint(&g1), graph_fingerprint(&g2));
        let dir = tmp("fingerprint");
        let ckpt1 = Checkpoint::new(&dir, &g1).unwrap();
        ckpt1
            .commit(
                &seeded_store(30, 7),
                &Progress::Johnson {
                    batch_size: 5,
                    next_row: 10,
                },
            )
            .unwrap();
        // Same directory, different graph: resume must refuse.
        let ckpt2 = Checkpoint::new(&dir, &g2).unwrap();
        let err = ckpt2.load().unwrap_err();
        assert_eq!(err.kind(), crate::ApspErrorKind::Corruption, "{err}");
        assert!(err.to_string().contains("different graph"), "{err}");
    }

    #[test]
    fn fingerprint_is_weight_sensitive() {
        let g1 = gnp(25, 0.15, WeightRange::new(1, 10), 13);
        let g2 = gnp(25, 0.15, WeightRange::new(1, 11), 13);
        assert_ne!(graph_fingerprint(&g1), graph_fingerprint(&g2));
        assert_eq!(graph_fingerprint(&g1), graph_fingerprint(&g1));
    }

    /// The store behind the format fixtures: the Floyd-Warshall closure
    /// of `gnp(70, 0.1, default, 19)`, two checksum panels of which the
    /// second is ragged.
    fn fixture_store() -> (CsrGraph, TileStore) {
        let g = gnp(70, 0.1, WeightRange::default(), 19);
        let mut m = apsp_cpu::DistMatrix::from_graph(&g);
        apsp_cpu::blocked_floyd_warshall(&mut m, 32);
        let mut store = TileStore::new(70, &StorageBackend::Memory).unwrap();
        store.write_rows(0, m.as_slice()).unwrap();
        (g, store)
    }

    const FIXTURE_PROGRESS: Progress = Progress::FloydWarshall {
        block: 32,
        next_round: 2,
    };

    /// A version-1 manifest and slot file that an earlier build committed
    /// from [`fixture_store`]. Every build must write the same bytes and
    /// read these back.
    const FIXTURE_MANIFEST: &[u8] = include_bytes!("../tests/fixtures/fw70.manifest");
    const FIXTURE_STATE: &[u8] = include_bytes!("../tests/fixtures/fw70.state");

    #[test]
    fn commit_writes_the_pinned_format_and_restores_it() {
        let (g, store) = fixture_store();
        let dir = tmp("fixture_commit");
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        ckpt.commit(&store, &FIXTURE_PROGRESS).unwrap();
        let manifest = std::fs::read(dir.join("manifest")).unwrap();
        assert!(manifest == FIXTURE_MANIFEST, "manifest bytes changed");
        let state = std::fs::read(dir.join("state-a.bin")).unwrap();
        assert!(state == FIXTURE_STATE, "snapshot bytes changed");

        let dir = tmp("fixture_restore");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("manifest"), FIXTURE_MANIFEST).unwrap();
        std::fs::write(dir.join("state-a.bin"), FIXTURE_STATE).unwrap();
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        let m = ckpt.load().unwrap().expect("fixture manifest");
        assert_eq!(m.progress, FIXTURE_PROGRESS);
        let mut restored = TileStore::new(70, &StorageBackend::Memory).unwrap();
        ckpt.restore_into(&m, &mut restored).unwrap();
        assert_eq!(
            restored.to_dist_matrix().unwrap(),
            store.to_dist_matrix().unwrap()
        );
    }

    /// n = 300 has five checksum panels: one full lane group and a
    /// ragged fifth panel alone. A flipped byte in any of them fails the
    /// commit's read-back, naming that panel.
    #[test]
    fn read_back_names_the_damaged_panel() {
        let n = 300;
        let dir = tmp("read_back_damage");
        std::fs::create_dir_all(&dir).unwrap();
        let mut store = TileStore::new(n, &StorageBackend::Memory).unwrap();
        let cells: Vec<u32> = (0..(n * n) as u32).map(|c| c.wrapping_mul(31)).collect();
        store.write_rows(0, &cells).unwrap();
        let path = dir.join("state-a.bin");
        let footer = store.persist(&path).unwrap();
        assert_eq!(footer.len(), 5);
        // The check `commit` runs between `persist` and the manifest.
        let read_back = || TileStore::open(&path, n)?.verify_persisted(&footer);
        read_back().unwrap();
        let clean = std::fs::read(&path).unwrap();
        for panel in 0..5 {
            let row = panel * DEFAULT_PANEL_ROWS + 40;
            let mut bytes = clean.clone();
            bytes[16 + (row * n + 3) * 4] ^= 0x20;
            std::fs::write(&path, &bytes).unwrap();
            match read_back().unwrap_err() {
                ApspError::Corruption { detail } => {
                    assert!(detail.contains(&format!("panel {panel} (rows")), "{detail}")
                }
                other => panic!("panel {panel}: expected Corruption, got {other:?}"),
            }
        }
    }

    #[test]
    fn clear_sweeps_temp_files_of_killed_commits() {
        let g = gnp(20, 0.2, WeightRange::default(), 15);
        let dir = tmp("clear_temps");
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        ckpt.commit(
            &seeded_store(20, 9),
            &Progress::Johnson {
                batch_size: 4,
                next_row: 4,
            },
        )
        .unwrap();
        let pid = std::process::id();
        let temps = [
            format!(".state-a.bin.tmp.{}", pid.wrapping_add(1)),
            format!(".state-b.bin.tmp.{}", pid.wrapping_add(77)),
            format!(".manifest.tmp.{}", pid.wrapping_add(2)),
        ];
        let kept = ["notes.txt", "state-a.bin.bak"];
        for name in temps.iter().map(String::as_str).chain(kept) {
            std::fs::write(dir.join(name), name.as_bytes()).unwrap();
        }
        ckpt.clear().unwrap();
        assert!(ckpt.load().unwrap().is_none());
        for name in &temps {
            assert!(!dir.join(name).exists(), "{name} survived clear()");
        }
        let mut left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        left.sort();
        assert_eq!(left, kept);
        for name in kept {
            assert_eq!(std::fs::read(dir.join(name)).unwrap(), name.as_bytes());
        }
    }

    /// Names in `dir` that look like temp files.
    fn temp_files(dir: &Path) -> Vec<String> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|f| f.contains(".tmp."))
            .collect()
    }

    /// The third commit on a directory rewrites `state-a.bin` in place:
    /// same inode, no temp file, and still the pinned bytes.
    #[cfg(unix)]
    #[test]
    fn third_commit_overwrites_the_idle_slot_in_place() {
        use std::os::unix::fs::MetadataExt;
        let (g, store) = fixture_store();
        let dir = tmp("in_place");
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        let inode = |name: &str| std::fs::metadata(dir.join(name)).unwrap().ino();
        let mut inodes = Vec::new();
        for commit in 0..3 {
            ckpt.commit(&store, &FIXTURE_PROGRESS).unwrap();
            assert_eq!(temp_files(&dir), Vec::<String>::new(), "commit {commit}");
            inodes.push(inode("state-a.bin"));
        }
        assert_eq!(
            inodes[2], inodes[0],
            "state-a.bin was replaced, not overwritten"
        );
        let m = ckpt.load().unwrap().unwrap();
        assert_eq!(m.state_file, "state-a.bin");
        assert!(std::fs::read(dir.join("manifest")).unwrap() == FIXTURE_MANIFEST);
        assert!(std::fs::read(dir.join("state-a.bin")).unwrap() == FIXTURE_STATE);
        assert!(std::fs::read(dir.join("state-b.bin")).unwrap() == FIXTURE_STATE);
    }

    /// Each commit, each persist and each calibration-store commit syncs
    /// its directory once, after the rename, so the rename and a newly
    /// created slot survive a power loss; a write that fails syncs
    /// nothing. Creating a checkpoint or calibration directory syncs its
    /// parent once, and finding it there syncs nothing.
    #[test]
    fn commits_and_persists_sync_their_directory_once() {
        let syncs = || crate::tile_store::DIR_SYNCS.get();
        let (g, store) = fixture_store();
        let dir = tmp("dir_sync");
        std::fs::create_dir_all(dir.parent().unwrap()).unwrap();
        let before = syncs();
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        assert_eq!(syncs() - before, 1, "a new checkpoint directory");
        let before = syncs();
        Checkpoint::new(&dir, &g).unwrap();
        assert_eq!(syncs() - before, 0, "an existing checkpoint directory");
        for commit in 1..=3 {
            let before = syncs();
            ckpt.commit(&store, &FIXTURE_PROGRESS).unwrap();
            assert_eq!(syncs() - before, 1, "commit {commit}");
        }
        let before = syncs();
        store.persist(dir.join("snapshot.bin")).unwrap();
        assert_eq!(syncs() - before, 1);
        store
            .persist(dir.join("missing").join("snapshot.bin"))
            .unwrap_err();
        assert_eq!(syncs() - before, 1, "a failed persist synced");
        let v100 = apsp_gpu_sim::DeviceProfile::v100();
        let cal = crate::CalibrationStore::open(dir.join("cal"), &v100).unwrap();
        let before = syncs();
        cal.commit().unwrap();
        assert_eq!(syncs() - before, 2, "first calibration commit");
        let before = syncs();
        cal.commit().unwrap();
        assert_eq!(syncs() - before, 1, "second calibration commit");
    }

    /// A crash inside the third commit's export leaves `state-a.bin`
    /// torn, and the manifest still names the second commit's
    /// `state-b.bin`, which loads and restores.
    #[test]
    fn crash_inside_an_in_place_commit_keeps_the_previous_one() {
        let n = 300;
        let g = gnp(n, 0.02, WeightRange::default(), 16);
        let dir = tmp("in_place_crash");
        let spill = std::env::temp_dir().join("apsp_checkpoint_tests_spill");
        let mut store = TileStore::new(n, &StorageBackend::Disk(spill)).unwrap();
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        let progress = |next_row| Progress::Johnson {
            batch_size: 100,
            next_row,
        };
        let mut committed = Vec::new();
        for batch in 0..2 {
            let rows: Vec<u32> = (0..(100 * n) as u32).map(|c| c ^ (batch + 1)).collect();
            store.write_rows(100 * batch as usize, &rows).unwrap();
            ckpt.commit(&store, &progress(100 * (batch as usize + 1)))
                .unwrap();
            committed.push(store.to_dist_matrix().unwrap());
        }
        store.write_rows(200, &vec![9; 100 * n]).unwrap();
        // The export reads 256 rows, then 44: the crash fires in the
        // second read, after the first 256 rows reached the slot.
        store.arm_crash(260);
        let err = ckpt.commit(&store, &progress(300)).unwrap_err();
        assert_eq!(err.kind(), crate::ApspErrorKind::Storage, "{err}");
        store.disarm_crash();
        // Rows 100..200 changed since the first commit and reached the
        // slot; its footer is still the first commit's.
        let torn = TileStore::open(dir.join("state-a.bin"), n).unwrap();
        let err = torn.read_row(150).unwrap_err();
        assert_eq!(err.kind(), crate::ApspErrorKind::Corruption, "{err}");

        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        let m = ckpt.load().unwrap().expect("second commit");
        assert_eq!(
            (m.state_file.as_str(), m.progress),
            ("state-b.bin", progress(200))
        );
        let mut restored = TileStore::new(n, &StorageBackend::Memory).unwrap();
        ckpt.restore_into(&m, &mut restored).unwrap();
        assert_eq!(restored.to_dist_matrix().unwrap(), committed[1]);
    }
}
