//! Host-side out-of-core result storage.
//!
//! The output distance matrix is orders of magnitude larger than the
//! input; for the paper's Table III graphs it fits in host RAM, for the
//! Table IV graphs it does not. [`TileStore`] abstracts both regimes:
//! the `Memory` backend holds one flat row-major `n × n` buffer, and the
//! `Disk` backend spills to one or more files addressed with positional
//! I/O. A spill starts row-major; out-of-core Floyd-Warshall lays it
//! out in tiles of its block side when an attempt starts, so each tile
//! it streams moves in one `pread`/`pwrite` (blocked FW's unit, as in
//! the Spark APSP paper's b × b block store). Spill files split at a
//! configurable byte threshold ([`DEFAULT_SHARD_BYTES`], 1 GiB, by
//! default; see [`StorageBackend::DiskSharded`]), a multiple of one tile
//! row, which lets paper-scale matrices escape the single-file
//! sequential-I/O bottleneck.
//!
//! The store is three layers under one op path. `storage` knows where
//! bytes live, `inject` holds the faults, crash point and bit flips a
//! test arms, and `registry` holds the silent-corruption guard's
//! per-row checksums. Every public op checks its input, makes one
//! accounting call, does its storage I/O and then updates the registry.
//! Counting stays per row whatever the layout: a block op of `r` rows
//! is `r` crash ticks and `r` fault ordinals, however few storage calls
//! carry it.
//!
//! Every public op fails with an [`ApspError`] typed where the failure
//! is found: a rejected argument is `InvalidInput`, a persisted file
//! that fails its header, length, footer or first-read check is
//! `Corruption`, a registry mismatch is `SilentCorruption` and a tripped
//! cancel token is `Cancelled`. Only `storage` and `inject` speak
//! `io::Error`, what the OS or an injected fault reported, and it
//! enters as `Storage` through `ApspError`'s one `From<io::Error>`.

mod inject;
mod registry;
mod storage;

pub use inject::{DiskFault, DiskFaultPlan};

use crate::error::ApspError;
use crate::options::SdcGuardMode;
use crate::supervisor::Supervisor;
use apsp_cpu::ExecBackend;
use apsp_graph::{fnv1a, Dist, FNV_OFFSET_BASIS, FNV_PRIME};
use inject::{Injection, Io};
use parking_lot::Mutex;
use registry::SdcRegistry;
use std::fs::{File, OpenOptions};
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use storage::{cast_bytes, cast_bytes_mut, Backing, CELL};

#[cfg(unix)]
use std::os::unix::fs::FileExt;

/// Magic tag opening every [`TileStore::persist`]ed file.
const PERSIST_MAGIC: u64 = u64::from_le_bytes(*b"APSPTILE");

/// Persisted-file header: the magic tag plus the matrix dimension, both
/// little-endian `u64`. [`TileStore::open`] validates the recorded
/// geometry against the requested one — a wrong-dimension file is
/// rejected even when its byte length happens to match.
const PERSIST_HEADER_BYTES: u64 = 16;

/// Magic tag opening the optional per-panel checksum footer
/// [`TileStore::persist`] appends after the payload. [`TileStore::open`]
/// accepts files with or without the footer (pre-footer persists stay
/// readable); when present, each panel is verified against its recorded
/// checksum on the first read that touches it.
const FOOTER_MAGIC: u64 = u64::from_le_bytes(*b"APSPSUMS");

/// Footer prelude: the footer magic plus the panel count, both
/// little-endian `u64`, followed by one `u64` checksum per panel.
const FOOTER_HEADER_BYTES: u64 = 16;

/// Rows per checksum panel — for the persisted footer and for panel
/// attribution in [`crate::ApspError::SilentCorruption`] (`panel` =
/// `row / SDC_PANEL_ROWS`). Matches the checkpoint layer's default
/// panel geometry so the two layers report comparable coordinates.
pub const SDC_PANEL_ROWS: usize = 64;

/// Spill-file split threshold for [`StorageBackend::Disk`]: shards roll
/// over at 1 GiB, the split the reference `diskMatrix` implementations
/// use. The effective shard size is the largest multiple of one tile
/// row (the row width, while the spill is row-major) at or under this,
/// and at least one.
pub const DEFAULT_SHARD_BYTES: u64 = 1 << 30;

/// Where the result matrix lives.
#[derive(Debug, Clone)]
pub enum StorageBackend {
    /// Host RAM (Table III regime).
    Memory,
    /// Files inside this directory (Table IV regime). The directory is
    /// created if missing; the files are removed when the store drops.
    /// Spills split across multiple files at [`DEFAULT_SHARD_BYTES`].
    Disk(PathBuf),
    /// [`StorageBackend::Disk`] with an explicit spill-file split
    /// threshold in bytes (a multiple of one tile row, at least one).
    DiskSharded {
        /// Spill directory (created if missing).
        dir: PathBuf,
        /// Bytes per spill file before rolling over to the next shard.
        shard_bytes: u64,
    },
}

/// FNV chains [`fnv1a_lanes`] and [`row_hash_lanes`] step in lockstep.
/// One chain waits a multiply's latency per step; independent chains
/// overlap those waits.
const LANES: usize = 4;

/// [`fnv1a`] of LANES byte strings at once: lane `l` continues from
/// `hash[l]` over `bytes[l]`, with the same value `fnv1a` gives. The
/// chains step in lockstep over the bytes every lane has, and a longer
/// lane finishes alone. An empty lane keeps its hash; it runs on a busy
/// lane's bytes only so the busy chains stay in lockstep.
fn fnv1a_lanes(hash: [u64; LANES], bytes: [&[u8]; LANES]) -> [u64; LANES] {
    let busy = bytes.iter().copied().find(|b| !b.is_empty()).unwrap_or(&[]);
    let run = bytes.map(|b| if b.is_empty() { busy } else { b });
    let len = run.iter().map(|b| b.len()).min().unwrap_or(0);
    let heads = run.map(|b| &b[..len]);
    let mut out = hash;
    for k in 0..len {
        for (h, lane) in out.iter_mut().zip(&heads) {
            *h = (*h ^ lane[k] as u64).wrapping_mul(FNV_PRIME);
        }
    }
    for l in 0..LANES {
        out[l] = if bytes[l].is_empty() {
            hash[l]
        } else {
            fnv1a(&run[l][len..], out[l])
        };
    }
    out
}

/// [`fnv1a`] from the offset basis of each byte string in `parts`, in
/// order, LANES strings at a time in lockstep.
fn fnv1a_each<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> Vec<u64> {
    let mut parts = parts.into_iter().peekable();
    let mut out = Vec::new();
    while parts.peek().is_some() {
        let mut k = 0;
        let group = std::array::from_fn(|_| match parts.next() {
            Some(part) => {
                k += 1;
                part
            }
            None => &[],
        });
        out.extend_from_slice(&fnv1a_lanes([FNV_OFFSET_BASIS; LANES], group)[..k]);
    }
    out
}

/// The row checksum of LANES rows of one width at once: FNV-1a's
/// xor-multiply step over 64-bit words instead of bytes, two cells to a
/// word (the first in the low half), an odd last cell alone. The
/// multiply by the odd FNV prime is a bijection of `u64`, so two rows
/// that differ in one word always hash apart: every single-bit flip
/// changes the checksum.
fn row_hash_lanes(rows: [&[Dist]; LANES]) -> [u64; LANES] {
    let width = rows[0].len();
    let rows = rows.map(|row| &row[..width]);
    let step = |hash: u64, word: u64| (hash ^ word).wrapping_mul(FNV_PRIME);
    let mut out = [FNV_OFFSET_BASIS; LANES];
    for j in (1..width).step_by(2) {
        for (hash, row) in out.iter_mut().zip(&rows) {
            *hash = step(*hash, row[j - 1] as u64 | (row[j] as u64) << 32);
        }
    }
    if width % 2 == 1 {
        for (hash, row) in out.iter_mut().zip(&rows) {
            *hash = step(*hash, row[width - 1] as u64);
        }
    }
    out
}

/// The checksum the SDC registry records for each of the `count`
/// equal-width rows in `cells`, in order, LANES rows in lockstep (a
/// short last group repeats a row to fill its lanes). The registry
/// lives only in memory, so this hash is word-wise for speed; what is
/// persisted or compared across processes uses [`panel_fnvs`].
fn row_fnvs(cells: &[Dist], count: usize) -> Vec<u64> {
    let Some(width) = cells.len().checked_div(count).filter(|&w| w > 0) else {
        return vec![FNV_OFFSET_BASIS; count];
    };
    let mut out = Vec::with_capacity(count);
    for group in cells[..count * width].chunks(LANES * width) {
        let k = group.len() / width;
        let rows = std::array::from_fn(|l| &group[l % k * width..][..width]);
        out.extend_from_slice(&row_hash_lanes(rows)[..k]);
    }
    out
}

/// FNV-1a of each panel of `panel_rows` consecutive `row_len`-wide rows
/// in `cells`, the last panel possibly shorter, LANES whole panels in
/// lockstep. The persisted footer, [`TileStore::panel_checksums`], the
/// read-back of a persisted file and the service's result cache all
/// checksum through it.
pub(crate) fn panel_fnvs(cells: &[Dist], row_len: usize, panel_rows: usize) -> Vec<u64> {
    let panel = row_len.saturating_mul(panel_rows).max(1);
    fnv1a_each(cells.chunks(panel).map(cast_bytes))
}

/// First-read verification for a store opened from a persisted file
/// that carries a checksum footer: `pending[p]` holds panel `p`'s
/// recorded checksum until the first read touching it verifies it (then
/// `None`). The first *write* through the store drops this state and
/// zeroes the footer magic at `footer_at` in `file`, since the recorded
/// checksums no longer describe the content.
struct OpenVerify {
    pending: Mutex<Vec<Option<u64>>>,
    file: File,
    footer_at: u64,
}

/// What one public op charges before it touches storage. Every kind
/// ticks the supervisor once per row; they differ in crash ticks and in
/// which telemetry row counter moves. Fault ordinals are counted where
/// the op does its I/O, one per row except for `write_rows`.
#[derive(Clone, Copy)]
enum Charge {
    /// Rows read: a crash tick and a telemetry read each.
    Read(usize),
    /// Rows written one call per row: a crash tick and a telemetry
    /// write each.
    Write(usize),
    /// Whole rows written in one contiguous call: one crash tick, and a
    /// telemetry write per row.
    WriteRows(usize),
    /// A `Memory` pass over every row for a persist: a crash tick per
    /// row, and no telemetry.
    Bulk(usize),
}

/// An `n × n` distance matrix in RAM or on disk.
pub struct TileStore {
    n: usize,
    storage: Backing,
    inject: Injection,
    supervision: Option<Supervisor>,
    sdc: Option<Mutex<SdcRegistry>>,
    sdc_round: AtomicU64,
    open_verify: Option<OpenVerify>,
}

impl std::fmt::Debug for TileStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = if self.is_disk_backed() {
            "disk"
        } else {
            "memory"
        };
        write!(f, "TileStore {{ n: {}, backing: {kind} }}", self.n)
    }
}

impl TileStore {
    /// Create a store for an `n × n` matrix, initialized to `INF` with a
    /// zero diagonal (the convention every algorithm writes over).
    pub fn new(n: usize, backend: &StorageBackend) -> Result<Self, ApspError> {
        Ok(Self::with_storage(n, Backing::new(n, backend)?))
    }

    fn with_storage(n: usize, storage: Backing) -> TileStore {
        TileStore {
            n,
            storage,
            inject: Injection::default(),
            supervision: None,
            sdc: None,
            sdc_round: AtomicU64::new(0),
            open_verify: None,
        }
    }

    /// Matrix dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether the store spills to disk.
    pub fn is_disk_backed(&self) -> bool {
        self.storage.is_disk()
    }

    /// Lay a spill out in square tiles of side `side` (clamped to
    /// `1..=n`), so that a tile-aligned block moves in one storage call.
    /// Out-of-core Floyd-Warshall calls it with its block when each
    /// attempt starts. The matrix streams a tile-row at a time into a
    /// fresh spill family, unaccounted, and then the old files go, so
    /// for that moment the disk holds two copies of the matrix. A no-op
    /// on `Memory`, on a file opened with [`Self::open`], and at the
    /// current side.
    pub(crate) fn set_tile_side(&mut self, side: usize) -> Result<(), ApspError> {
        Ok(self.storage.set_tile_side(side)?)
    }

    /// Arm a deterministic [`DiskFaultPlan`]. Positional-I/O ordinals
    /// restart at zero; any previously armed plan is replaced. Memory
    /// backings issue no positional I/O, so the plan is not armed there
    /// and [`Self::io_ops`] stays `(0, 0)`.
    pub fn arm_faults(&mut self, plan: DiskFaultPlan) {
        self.inject
            .arm_faults(self.is_disk_backed().then_some(plan));
    }

    /// Remove an armed fault plan.
    pub fn disarm_faults(&mut self) {
        self.inject.arm_faults(None);
    }

    /// Attach a [`Supervisor`]: every row-granular operation checks its
    /// cancellation token (a trip is [`ApspError::Cancelled`]), and
    /// [`DiskFault::HangMicros`] faults charge their simulated stall to
    /// its disk-stall clock.
    pub fn set_supervision(&mut self, sup: Supervisor) {
        self.supervision = Some(sup);
    }

    /// Detach any attached [`Supervisor`].
    pub fn clear_supervision(&mut self) {
        self.supervision = None;
    }

    /// Whether `r` is a forward range of row or column indices.
    fn in_range(&self, r: &Range<usize>) -> bool {
        r.start <= r.end && r.end <= self.n
    }

    /// The one accounting call of every public op: crash ticks, then
    /// the supervisor's cancellation check, then telemetry. A rejected
    /// call never gets here, so it moves no ordinal.
    fn account(&self, charge: Charge) -> Result<(), ApspError> {
        let (rows, ticks, reads, writes) = match charge {
            Charge::Read(r) => (r, r, r, 0),
            Charge::Write(r) => (r, r, 0, r),
            Charge::WriteRows(r) => (r, 1, 0, r),
            Charge::Bulk(r) => (r, r, 0, 0),
        };
        self.inject.crash_tick(ticks as u64)?;
        if let Some(sup) = &self.supervision {
            sup.io_tick(rows as u64)?;
            sup.telemetry()
                .count_store_rows(reads as u64, writes as u64);
        }
        Ok(())
    }

    /// Arm a crash point: the next `after_ops` row-granular operations
    /// (a block access of `r` rows counts as `r`, a `write_rows` call as
    /// one) succeed, then every subsequent operation fails with an
    /// "injected crash" I/O error — the store behaves as if its process
    /// died mid-run. Works on both backings; any previously armed crash
    /// point is replaced.
    pub fn arm_crash(&mut self, after_ops: u64) {
        self.inject.arm_crash(Some(after_ops));
    }

    /// Remove an armed crash point, reviving a "dead" store.
    pub fn disarm_crash(&mut self) {
        self.inject.arm_crash(None);
    }

    /// Row-granular operations serviced since [`Self::arm_crash`]; 0
    /// when none is armed. Arm with `u64::MAX` to count a full run
    /// without crashing it.
    pub fn crash_ops(&self) -> u64 {
        self.inject.crash_ops()
    }

    /// `(write, read)` positional-I/O ops issued since the plan was
    /// armed; `(0, 0)` when no plan is armed.
    pub fn io_ops(&self) -> (u64, u64) {
        self.inject.io_ops()
    }

    /// Has no effect. Every store op runs on the calling thread, in
    /// order, so fault ordinals and crash ticks stay deterministic. The
    /// method stays for callers that still pass their backend.
    pub fn set_exec_backend(&mut self, _exec: ExecBackend) {}

    /// Enable (or disable, with [`SdcGuardMode::Off`]) the
    /// silent-corruption guard: a per-row FNV checksum registry seeded
    /// from the store's *current* contents. Full-row reads verify
    /// against the registry; [`Self::verify_checksums`] sweeps the whole
    /// registry at barriers and run end. A mismatch is
    /// [`ApspError::SilentCorruption`]. Guard reads bypass fault plans,
    /// crash points, supervision ticks, and telemetry counters, so arming
    /// the guard never perturbs injected-fault ordinals or the simulated
    /// clock.
    pub fn set_sdc_guard(&mut self, mode: SdcGuardMode) -> Result<(), ApspError> {
        if !mode.is_on() {
            self.sdc = None;
            return Ok(());
        }
        let mut hashes = Vec::with_capacity(self.n);
        self.stored_row_fnvs(0..self.n, |_, hash| {
            hashes.push(hash);
            Ok(())
        })?;
        self.sdc = Some(Mutex::new(SdcRegistry::new(mode, hashes)));
        Ok(())
    }

    /// The active guard mode ([`SdcGuardMode::Off`] when disarmed).
    pub fn sdc_guard(&self) -> SdcGuardMode {
        self.sdc
            .as_ref()
            .map_or(SdcGuardMode::Off, |s| s.lock().mode)
    }

    /// Tag subsequent guard detections with the driver's current round /
    /// batch / flush ordinal, so a tripped guard reports *when* as well
    /// as *where*.
    pub fn set_sdc_round(&self, round: usize) {
        self.sdc_round.store(round as u64, Ordering::Relaxed);
    }

    fn sdc_round(&self) -> usize {
        self.sdc_round.load(Ordering::Relaxed) as usize
    }

    /// Arm a one-shot at-rest bit flip: the store services `after_ops`
    /// row-granular *write* operations cleanly, then the write that
    /// exhausts the budget has one bit of its just-written row's stored
    /// bytes flipped (`bit` wraps modulo the row's bit width) — *after*
    /// the guard registry recorded the clean data, modelling corruption
    /// that strikes between a write and the next read. Works on both
    /// backings; multiple flips count down concurrently. With the guard
    /// off the flip is silent — the wrong-distances baseline the guard
    /// exists to close.
    pub fn arm_bit_flip(&mut self, after_ops: u64, bit: u64) {
        self.inject.flips.push((after_ops, bit));
    }

    /// Remove any armed (unfired) bit flips.
    pub fn clear_bit_flips(&mut self) {
        self.inject.flips.clear();
    }

    /// Full-registry verification for barrier and run-end gates: rows
    /// marked dirty by partial writes are re-hashed (their change was
    /// legitimate); clean rows must still match their recorded checksum.
    /// A no-op when the guard is off.
    pub fn verify_checksums(&self) -> Result<(), ApspError> {
        let Some(sdc) = &self.sdc else {
            return Ok(());
        };
        let reg = &mut *sdc.lock();
        let round = self.sdc_round();
        self.stored_row_fnvs(0..self.n, |i, hash| {
            reg.check(i, hash, round)?;
            if reg.is_dirty(i) {
                reg.set(i, hash);
            }
            Ok(())
        })
    }

    /// Re-seed the checksum registry for `rows` from their *current*
    /// content, clearing dirty and consumed marks. Recovery-only: a
    /// ladder rung that recomputes these rows from the graph *lazily*
    /// (batch-by-batch, component-by-component) calls this first, so the
    /// stale mismatch it is recovering from cannot re-fire at an
    /// intermediate barrier ahead of the rewrite reaching the corrupt
    /// row. Never call it on rows that will not be rewritten — that
    /// would absorb real corruption into the registry.
    pub fn sdc_rebaseline(&self, rows: Range<usize>) -> Result<(), ApspError> {
        let Some(sdc) = &self.sdc else {
            return Ok(());
        };
        let reg = &mut *sdc.lock();
        self.stored_row_fnvs(rows, |i, hash| {
            reg.set(i, hash);
            Ok(())
        })
    }

    /// Unaccounted full-row read for the semantic (ABFT) guards in
    /// `core::sdc`: like [`Self::read_row`] but bypassing fault plans,
    /// crash points, supervision ticks, and telemetry counters, so the
    /// invariant checks never perturb injected-fault ordinals or the
    /// simulated clock.
    pub(crate) fn guard_read_row(&self, i: usize) -> Result<Vec<Dist>, ApspError> {
        self.guard_read_rows(i..i + 1)
    }

    /// [`Self::guard_read_row`] of consecutive full rows, in one storage
    /// read, concatenated.
    pub(crate) fn guard_read_rows(&self, rows: Range<usize>) -> Result<Vec<Dist>, ApspError> {
        let mut cells = vec![0; rows.len() * self.n];
        self.storage
            .read(rows, 0..self.n, cast_bytes_mut(&mut cells))?;
        Ok(cells)
    }

    /// Hand `f` the checksum of each row in `rows` as stored, in order.
    /// Up to [`SDC_PANEL_ROWS`] consecutive rows are read unaccounted in
    /// one storage read and hashed LANES at a time.
    fn stored_row_fnvs(
        &self,
        rows: impl IntoIterator<Item = usize>,
        mut f: impl FnMut(usize, u64) -> Result<(), ApspError>,
    ) -> Result<(), ApspError> {
        let mut buf = Vec::new();
        let mut rows = rows.into_iter().peekable();
        while let Some(first) = rows.next() {
            let mut k = 1;
            while k < SDC_PANEL_ROWS && rows.next_if_eq(&(first + k)).is_some() {
                k += 1;
            }
            buf.resize(buf.len().max(k * self.n), 0);
            let cells = &mut buf[..k * self.n];
            self.storage
                .read(first..first + k, 0..self.n, cast_bytes_mut(cells))?;
            for (r, hash) in row_fnvs(cells, k).into_iter().enumerate() {
                f(first + r, hash)?;
            }
        }
        Ok(())
    }

    /// The FNV-1a of each of the consecutive checksum panels `panels`
    /// as stored: their rows are read unaccounted in one storage read and
    /// hashed whole panels in lockstep.
    fn stored_panel_fnvs(&self, panels: Range<usize>) -> Result<Vec<u64>, ApspError> {
        let n = self.n;
        let rows = (panels.start * SDC_PANEL_ROWS).min(n)..(panels.end * SDC_PANEL_ROWS).min(n);
        Ok(panel_fnvs(&self.guard_read_rows(rows)?, n, SDC_PANEL_ROWS))
    }

    /// Before a partial write dirties a clean row, verify the row's
    /// *current* content against the registry. Without this, the
    /// sequence "flip fires on a clean row, a later partial write marks
    /// it dirty, the barrier sweep re-hashes it" would absorb the
    /// corruption as a legitimate change. Costs one unaccounted
    /// full-row read per clean→dirty transition (at most one per row
    /// per barrier interval).
    fn check_before_dirty(&self, rows: Range<usize>) -> Result<(), ApspError> {
        let Some(sdc) = &self.sdc else {
            return Ok(());
        };
        let reg = sdc.lock();
        let round = self.sdc_round();
        self.stored_row_fnvs(rows.filter(|&i| !reg.is_dirty(i)), |i, hash| {
            reg.check(i, hash, round)
        })
    }

    /// Everything after a successful write to `rows`. The first write
    /// through an opened store invalidates its persisted footer. The
    /// registry records `full`, the rows' new content, when the write
    /// covered whole rows, and marks a partial write's rows dirty. Last,
    /// any armed bit flip this write exhausts strikes its row, after the
    /// registry recorded the clean data; a flip landing on a dirty row
    /// first finalizes that row's checksum from the clean storage, so
    /// the sweep can never absorb the flip as a legitimate change.
    fn written(&mut self, rows: Range<usize>, full: Option<&[Dist]>) -> Result<(), ApspError> {
        if let Some(ov) = self.open_verify.take() {
            ov.file.write_all_at(&[0u8; 8], ov.footer_at)?;
        }
        if let Some(sdc) = &self.sdc {
            let reg = &mut *sdc.lock();
            match full {
                Some(data) => {
                    for (i, hash) in rows.clone().zip(row_fnvs(data, rows.len())) {
                        reg.set(i, hash);
                    }
                }
                None => reg.mark_dirty(rows.clone()),
            }
        }
        let row_bits = (self.n * CELL * 8) as u64;
        for (row, bit) in self.inject.fired_flips(rows) {
            let mut buf = self.guard_read_row(row)?;
            if let Some(sdc) = &self.sdc {
                sdc.lock().set(row, row_fnvs(&buf, 1)[0]);
            }
            if row_bits > 0 {
                let b = (bit % row_bits) as usize;
                cast_bytes_mut(&mut buf)[b / 8] ^= 1 << (b % 8);
                self.storage
                    .write(row..row + 1, 0..self.n, cast_bytes(&buf))?;
            }
        }
        Ok(())
    }

    /// First-read verification of persisted panel checksums for stores
    /// opened from a footer-carrying file: every not-yet-verified panel
    /// overlapping `rows` is checked in panel order, up to LANES
    /// consecutive panels per read and lockstep hash, failing with
    /// [`ApspError::Corruption`] on a mismatch.
    fn open_verify_panels(&self, rows: Range<usize>) -> Result<(), ApspError> {
        let Some(ov) = &self.open_verify else {
            return Ok(());
        };
        if rows.is_empty() {
            return Ok(());
        }
        let todo: Vec<(usize, u64)> = {
            let pending = ov.pending.lock();
            (rows.start / SDC_PANEL_ROWS..=(rows.end - 1) / SDC_PANEL_ROWS)
                .filter_map(|p| Some((p, pending.get(p).copied().flatten()?)))
                .collect()
        };
        let runs = todo.chunk_by(|a, b| b.0 == a.0 + 1);
        for group in runs.flat_map(|run| run.chunks(LANES)) {
            let sums = self.stored_panel_fnvs(group[0].0..group[0].0 + group.len())?;
            for (&(p, expect), sum) in group.iter().zip(sums) {
                if sum != expect {
                    let (start, end) = (p * SDC_PANEL_ROWS, ((p + 1) * SDC_PANEL_ROWS).min(self.n));
                    return Err(ApspError::Corruption {
                        detail: format!(
                            "persisted matrix panel {p} (rows {start}..{end}) fails its recorded \
                             checksum on first read"
                        ),
                    });
                }
                ov.pending.lock()[p] = None;
            }
        }
        Ok(())
    }

    /// The read path behind [`Self::read_block`], [`Self::read_row`],
    /// [`Self::get`] and the `Disk` export, once the op is checked and
    /// charged: first-read verification, the rows' positional reads
    /// into `out` (one fault ordinal per row, coalesced into as few
    /// storage calls as the layout and the armed plan allow), a registry
    /// check of full-width rows at zero extra I/O (the barrier sweep
    /// covers partial reads), then the rows are marked consumed.
    fn read_cells_into(
        &self,
        rows: Range<usize>,
        cols: Range<usize>,
        out: &mut [Dist],
    ) -> Result<(), ApspError> {
        self.open_verify_panels(rows.clone())?;
        let row_len = cols.len() * CELL;
        let bytes = cast_bytes_mut(out);
        let sup = self.supervision.as_ref();
        self.inject
            .positional_rows(Io::Read, rows.len(), row_len, sup, |rr, len| {
                let at = rr.start * row_len;
                let block = rows.start + rr.start..rows.start + rr.end;
                self.storage
                    .read(block, cols.clone(), &mut bytes[at..at + len])
            })?;
        if let Some(sdc) = &self.sdc {
            let reg = &mut *sdc.lock();
            if cols.len() == self.n {
                for (i, hash) in rows.clone().zip(row_fnvs(out, rows.len())) {
                    reg.check(i, hash, self.sdc_round())?;
                }
            }
            reg.mark_consumed(rows);
        }
        Ok(())
    }

    /// [`Self::read_cells_into`] a fresh buffer.
    fn read_cells(&self, rows: Range<usize>, cols: Range<usize>) -> Result<Vec<Dist>, ApspError> {
        let mut out = vec![0; rows.len() * cols.len()];
        self.read_cells_into(rows, cols, &mut out)?;
        Ok(out)
    }

    /// Storage write of whole rows from `row_start`, as one positional
    /// op of the armed fault plan.
    fn put_rows(&mut self, row_start: usize, cells: &[Dist]) -> Result<(), ApspError> {
        let (storage, bytes) = (&mut self.storage, cast_bytes(cells));
        let rows = row_start..row_start + cells.len() / self.n.max(1);
        let (n, sup) = (self.n, self.supervision.as_ref());
        Ok(self.inject.positional(Io::Write, bytes.len(), sup, |k| {
            storage.write(rows, 0..n, &bytes[..k])
        })?)
    }

    /// Overwrite full row `i`.
    pub fn write_row(&mut self, i: usize, row: &[Dist]) -> Result<(), ApspError> {
        check_input(row.len() == self.n, "row width mismatch")?;
        check_input(i < self.n, "row index out of range")?;
        self.account(Charge::Write(1))?;
        self.put_rows(i, row)?;
        self.written(i..i + 1, Some(row))
    }

    /// Overwrite `rows.len() / n` consecutive rows starting at `row_start`.
    pub fn write_rows(&mut self, row_start: usize, rows: &[Dist]) -> Result<(), ApspError> {
        let count = rows.len().checked_div(self.n).unwrap_or(0);
        check_input(count * self.n == rows.len(), "partial rows in write_rows")?;
        check_input(
            row_start
                .checked_add(count)
                .is_some_and(|end| end <= self.n),
            "rows out of range",
        )?;
        self.account(Charge::WriteRows(count))?;
        self.put_rows(row_start, rows)?;
        self.written(row_start..row_start + count, Some(rows))
    }

    /// Overwrite the rectangular block `row_range × col_range` with
    /// `data` (row-major, dimensions matching the ranges).
    pub fn write_block(
        &mut self,
        row_range: Range<usize>,
        col_range: Range<usize>,
        data: &[Dist],
    ) -> Result<(), ApspError> {
        check_input(
            self.in_range(&row_range) && self.in_range(&col_range),
            "block out of range",
        )?;
        let width = col_range.len();
        check_input(data.len() == row_range.len() * width, "block size mismatch")?;
        self.account(Charge::Write(row_range.len()))?;
        let full = width == self.n;
        if !full {
            // About to dirty these rows: any clean row must still match
            // its checksum, or at-rest damage would be absorbed by the
            // barrier re-hash of dirty rows.
            self.check_before_dirty(row_range.clone())?;
        }
        let (storage, bytes, row_len) = (&mut self.storage, cast_bytes(data), width * CELL);
        let sup = self.supervision.as_ref();
        self.inject
            .positional_rows(Io::Write, row_range.len(), row_len, sup, |rr, len| {
                let at = rr.start * row_len;
                let block = row_range.start + rr.start..row_range.start + rr.end;
                storage.write(block, col_range.clone(), &bytes[at..at + len])
            })?;
        // A full-width block is consecutive whole rows: the registry
        // hashes the data in hand instead of re-reading storage.
        self.written(row_range, full.then_some(data))
    }

    /// Read the rectangular block `row_range × col_range` (row-major).
    pub fn read_block(
        &self,
        row_range: Range<usize>,
        col_range: Range<usize>,
    ) -> Result<Vec<Dist>, ApspError> {
        check_input(
            self.in_range(&row_range) && self.in_range(&col_range),
            "block out of range",
        )?;
        self.account(Charge::Read(row_range.len()))?;
        self.read_cells(row_range, col_range)
    }

    /// Read full row `i`.
    pub fn read_row(&self, i: usize) -> Result<Vec<Dist>, ApspError> {
        check_input(i < self.n, "row index out of range")?;
        self.account(Charge::Read(1))?;
        self.read_cells(i..i + 1, 0..self.n)
    }

    /// Read one element — convenience for spot checks; row-granular I/O
    /// for bulk access.
    pub fn get(&self, i: usize, j: usize) -> Result<Dist, ApspError> {
        check_input(i < self.n && j < self.n, "cell out of range")?;
        self.account(Charge::Read(1))?;
        Ok(self.read_cells(i..i + 1, j..j + 1)?[0])
    }

    /// Fill `out` with the full rows `rows`, the way [`Self::persist`]
    /// and [`Self::to_dist_matrix`] read them. This is the one place
    /// outside the storage layer that branches on the backing, because
    /// the two account differently here and `accounting_is_pinned_per_op`
    /// pins both: a `Disk` store reads them as one accounted, checked
    /// block, like [`Self::read_block`], while a `Memory` store copies
    /// them out unaccounted (a persist charges one [`Charge::Bulk`]
    /// first).
    fn export_rows(&self, rows: Range<usize>, out: &mut [Dist]) -> Result<(), ApspError> {
        if self.storage.is_disk() {
            self.account(Charge::Read(rows.len()))?;
            self.read_cells_into(rows, 0..self.n, out)
        } else {
            Ok(self.storage.read(rows, 0..self.n, cast_bytes_mut(out))?)
        }
    }

    /// Bytes of the persisted form: header, payload and footer.
    fn persisted_len(&self) -> u64 {
        PERSIST_HEADER_BYTES
            + (self.n * self.n * CELL) as u64
            + FOOTER_HEADER_BYTES
            + 8 * self.n.div_ceil(SDC_PANEL_ROWS) as u64
    }

    /// The writer behind [`Self::persist`] and [`Self::overwrite`]:
    /// the persisted form into `file` from byte 0, with positional
    /// writes, unsynced. The rows go LANES checksum panels at a
    /// time: one export read, one lockstep hash of those panels' footer
    /// entries, one write. Returns the footer.
    fn write_snapshot(&self, file: &File) -> Result<Vec<u64>, ApspError> {
        let n = self.n;
        if !self.storage.is_disk() {
            self.account(Charge::Bulk(n))?;
        }
        let mut header = PERSIST_MAGIC.to_le_bytes().to_vec();
        header.extend_from_slice(&(n as u64).to_le_bytes());
        file.write_all_at(&header, 0)?;
        // Per-panel checksum footer: first reads through `open` verify
        // each panel against it, so at-rest damage to the file surfaces
        // typed instead of as wrong distances.
        let group = LANES * SDC_PANEL_ROWS;
        let mut buf = vec![0; group.min(n) * n];
        let mut footer = Vec::with_capacity(n.div_ceil(SDC_PANEL_ROWS));
        for first in (0..n).step_by(group) {
            let rows = first..(first + group).min(n);
            let cells = &mut buf[..rows.len() * n];
            self.export_rows(rows, cells)?;
            footer.extend(panel_fnvs(cells, n, SDC_PANEL_ROWS));
            let at = PERSIST_HEADER_BYTES + (first * n * CELL) as u64;
            file.write_all_at(cast_bytes(cells), at)?;
        }
        let mut tail = FOOTER_MAGIC.to_le_bytes().to_vec();
        tail.extend_from_slice(&(footer.len() as u64).to_le_bytes());
        for h in &footer {
            tail.extend_from_slice(&h.to_le_bytes());
        }
        file.write_all_at(&tail, PERSIST_HEADER_BYTES + (n * n * CELL) as u64)?;
        Ok(footer)
    }

    /// A `Disk`-backed store refuses to persist into its own spill
    /// directory: the target could collide with (or be cleaned up
    /// alongside) live spill files, destroying the matrix it was meant
    /// to save.
    fn check_persist_target(&self, path: &Path) -> Result<(), ApspError> {
        if let Some(own_dir) = self.storage.spill_dir() {
            if same_dir(own_dir, parent_dir(path)) {
                return Err(ApspError::InvalidInput(format!(
                    "refusing to persist into the store's own spill directory {}",
                    own_dir.display()
                )));
            }
        }
        Ok(())
    }

    /// Persist the matrix to `path`: a 16-byte header (magic + the
    /// dimension `n` as little-endian `u64`s) followed by the raw
    /// little-endian row-major `u32` payload, so a computed result
    /// outlives the store. Readable again with [`TileStore::open`],
    /// which checks the header before trusting the payload.
    ///
    /// A footer follows the payload: one FNV-1a checksum per panel of
    /// [`SDC_PANEL_ROWS`] rows, the last panel possibly shorter. The
    /// call returns those checksums, the footer it wrote.
    ///
    /// The write is **atomic** and durable: data lands in a temporary
    /// sibling file, is `sync_all`ed, renamed over `path`, and the
    /// directory is synced — a crash or `ENOSPC` mid-persist can never
    /// leave a torn file at `path` (either the old content or the new
    /// content is there, whole).
    ///
    /// A `Disk`-backed store refuses to persist into its own spill
    /// directory.
    pub fn persist<P: AsRef<Path>>(&self, path: P) -> Result<Vec<u64>, ApspError> {
        let path = path.as_ref();
        self.check_persist_target(path)?;
        write_atomic(path, |file| self.write_snapshot(file))
    }

    /// [`Self::persist`] without the temp file: `path` is created if
    /// missing, sized, and overwritten in place. A crash part-way leaves
    /// it torn, so only a checkpoint commit calls it, on the slot its
    /// manifest does not name; the manifest rename stays the commit
    /// point.
    pub(crate) fn overwrite(&self, path: &Path) -> Result<Vec<u64>, ApspError> {
        self.check_persist_target(path)?;
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        file.set_len(self.persisted_len())?;
        let footer = self.write_snapshot(&file)?;
        file.sync_all()?;
        Ok(footer)
    }

    /// The read-back check of a checkpoint commit and of a resume, on a
    /// store [`Self::open`]ed from a persisted file: the file must
    /// record `footer` (the checksums `persist` returned, or a manifest
    /// recorded), and every panel must hash to its entry. One pass over
    /// the payload verifies LANES panels in lockstep; a mismatch is
    /// [`ApspError::Corruption`] naming the first failing panel.
    pub(crate) fn verify_persisted(&self, footer: &[u64]) -> Result<(), ApspError> {
        let recorded = self
            .open_verify
            .as_ref()
            .map_or_else(Vec::new, |ov| ov.pending.lock().clone());
        if !recorded
            .iter()
            .copied()
            .eq(footer.iter().copied().map(Some))
        {
            return Err(ApspError::Corruption {
                detail: "persisted matrix does not record the checksum footer its writer \
                         computed"
                    .into(),
            });
        }
        self.open_verify_panels(0..self.n)
    }

    /// FNV-1a checksum of each consecutive panel of `panel_rows` rows
    /// (the last panel may be shorter), read LANES panels at a time
    /// through the accounted path of [`Self::read_block`]. On a `Disk`
    /// backing the checksums therefore attest to what is actually on
    /// disk, not what was last handed to `write_*`.
    pub fn panel_checksums(&self, panel_rows: usize) -> Result<Vec<u64>, ApspError> {
        check_input(panel_rows >= 1, "panel_rows must be positive")?;
        let n = self.n;
        let group = panel_rows.saturating_mul(LANES).min(n);
        let mut buf = vec![0; group * n];
        let mut sums = Vec::with_capacity(n.div_ceil(panel_rows));
        for first in (0..n).step_by(group.max(1)) {
            let rows = first..(first + group).min(n);
            let cells = &mut buf[..rows.len() * n];
            self.account(Charge::Read(rows.len()))?;
            self.read_cells_into(rows, 0..n, cells)?;
            sums.extend(panel_fnvs(cells, n, panel_rows));
        }
        Ok(sums)
    }

    /// Open a previously [`TileStore::persist`]ed matrix read-write in
    /// place (the file is *not* deleted on drop — the caller owns it).
    ///
    /// The persisted header (magic + dimension) is validated against
    /// the requested `n`, so a file persisted at a different dimension
    /// is rejected even when its byte length happens to match.
    pub fn open<P: AsRef<Path>>(path: P, n: usize) -> Result<Self, ApspError> {
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let actual = file.metadata()?.len();
        let bad = |detail: String| ApspError::Corruption { detail };
        if actual < PERSIST_HEADER_BYTES {
            return Err(bad(format!(
                "{} holds {actual} bytes, too short for even the {PERSIST_HEADER_BYTES}-byte \
                 tile-store header",
                path.as_ref().display()
            )));
        }
        let mut header = [0u8; PERSIST_HEADER_BYTES as usize];
        file.read_exact_at(&mut header, 0)?;
        let magic = u64::from_le_bytes(header[..8].try_into().unwrap());
        if magic != PERSIST_MAGIC {
            return Err(bad(format!(
                "{} does not start with the tile-store magic — not a persisted matrix",
                path.as_ref().display()
            )));
        }
        let stored_n = u64::from_le_bytes(header[8..].try_into().unwrap());
        if stored_n != n as u64 {
            return Err(bad(format!(
                "{} was persisted as a {stored_n}×{stored_n} matrix, caller asked for {n}×{n}",
                path.as_ref().display()
            )));
        }
        let payload = (n * n * std::mem::size_of::<Dist>()) as u64;
        let legacy = PERSIST_HEADER_BYTES + payload;
        let num_panels = n.div_ceil(SDC_PANEL_ROWS);
        let with_footer = legacy + FOOTER_HEADER_BYTES + 8 * num_panels as u64;
        let pending: Vec<Option<u64>> = if actual == legacy {
            // Pre-footer persist: nothing recorded, nothing to verify.
            Vec::new()
        } else if actual == with_footer {
            let mut fh = [0u8; FOOTER_HEADER_BYTES as usize];
            file.read_exact_at(&mut fh, legacy)?;
            let fmagic = u64::from_le_bytes(fh[..8].try_into().unwrap());
            if fmagic == 0 {
                // A write through a previously opened store invalidated
                // the footer; the payload is newer than the checksums.
                Vec::new()
            } else if fmagic == FOOTER_MAGIC {
                let count = u64::from_le_bytes(fh[8..].try_into().unwrap());
                if count != num_panels as u64 {
                    return Err(bad(format!(
                        "{} records {count} checksum panels, an {n}×{n} matrix has {num_panels}",
                        path.as_ref().display()
                    )));
                }
                let mut sums = vec![0u8; 8 * num_panels];
                file.read_exact_at(&mut sums, legacy + FOOTER_HEADER_BYTES)?;
                sums.chunks_exact(8)
                    .map(|c| Some(u64::from_le_bytes(c.try_into().unwrap())))
                    .collect()
            } else {
                return Err(bad(format!(
                    "{} carries an unrecognized checksum footer — damaged?",
                    path.as_ref().display()
                )));
            }
        } else {
            return Err(bad(format!(
                "{} holds {actual} bytes, an {n}×{n} matrix needs {legacy} (or {with_footer} \
                 with its checksum footer) — truncated?",
                path.as_ref().display()
            )));
        };
        let open_verify = if pending.iter().any(Option::is_some) {
            Some(OpenVerify {
                pending: Mutex::new(pending),
                file: file.try_clone()?,
                footer_at: legacy,
            })
        } else {
            None
        };
        let mut store = Self::with_storage(n, Backing::opened(file, PERSIST_HEADER_BYTES, n));
        store.open_verify = open_verify;
        Ok(store)
    }

    /// Materialize the whole matrix (tests and small-n tooling only).
    /// The rows are read [`SDC_PANEL_ROWS`] at a time straight into the
    /// matrix returned, so no second buffer is held next to it.
    pub fn to_dist_matrix(&self) -> Result<apsp_cpu::DistMatrix, ApspError> {
        // The materialized matrix is the run's final answer: sweep the
        // guard registry first so at-rest damage never leaves the store.
        self.verify_checksums()?;
        let n = self.n;
        let mut data = vec![0; n * n];
        for (k, rows) in data.chunks_mut(SDC_PANEL_ROWS * n.max(1)).enumerate() {
            let first = k * SDC_PANEL_ROWS;
            self.export_rows(first..first + rows.len() / n, rows)?;
        }
        Ok(apsp_cpu::DistMatrix::from_raw(n, data))
    }

    /// Positional calls the store's disk backing has issued, for the
    /// tests that pin them.
    #[cfg(test)]
    pub(crate) fn storage_calls(&self) -> u64 {
        self.storage.calls()
    }
}

/// `path.parent()`, with a bare file name resolving to the current
/// directory instead of the empty path.
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    }
}

/// Write `path` atomically and durably: `write` fills a temp sibling
/// `.<name>.tmp.<pid>`, which is `sync_all`ed and renamed over `path`,
/// and then the directory is `sync_all`ed too, so after a power loss the
/// rename (and a file newly created beside it) is not lost. On error the
/// temp file is removed and `path` keeps what it held. Under test,
/// `KILL_AT` fails a chosen file op as a crash there would.
pub(crate) fn write_atomic<T, E>(
    path: &Path,
    write: impl FnOnce(&File) -> Result<T, E>,
) -> Result<T, ApspError>
where
    ApspError: From<E>,
{
    let file_name = path
        .file_name()
        .ok_or_else(|| ApspError::InvalidInput("persist target has no file name".into()))?;
    let dir = parent_dir(path);
    let tmp = dir.join(format!(
        ".{}.tmp.{}",
        file_name.to_string_lossy(),
        std::process::id()
    ));
    let result = (|| -> Result<T, ApspError> {
        kill_point(0)?;
        let file = File::create(&tmp)?;
        kill_point(1)?;
        let out = write(&file)?;
        kill_point(2)?;
        file.sync_all()?;
        kill_point(3)?;
        std::fs::rename(&tmp, path)?;
        #[cfg(test)]
        DIR_SYNCS.set(DIR_SYNCS.get() + 1);
        File::open(dir)?.sync_all()?;
        Ok(out)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Create `dir` and any missing ancestors, durably: the parent of each
/// directory this call creates is `sync_all`ed, so after a power loss
/// the new directory, and what a later [`write_atomic`] syncs inside it,
/// is not lost. Does nothing when `dir` exists or is empty.
pub(crate) fn create_dir_durable(dir: &Path) -> io::Result<()> {
    if dir.as_os_str().is_empty() || dir.is_dir() {
        return Ok(());
    }
    let parent = parent_dir(dir);
    create_dir_durable(parent)?;
    match std::fs::create_dir(dir) {
        // Another process created it meanwhile, and syncs its parent.
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists && dir.is_dir() => Ok(()),
        Err(e) => Err(e),
        Ok(()) => {
            #[cfg(test)]
            DIR_SYNCS.set(DIR_SYNCS.get() + 1);
            File::open(parent)?.sync_all()
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Directory syncs [`write_atomic`] and [`create_dir_durable`]
    /// issued on this thread, for the tests that pin them.
    pub(crate) static DIR_SYNCS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// [`write_atomic`]'s crash hook on this thread: `Some(k)` fails file
    /// op `k` (0 create, 1 write, 2 sync, 3 rename) with `Interrupted`
    /// before it runs.
    pub(crate) static KILL_AT: std::cell::Cell<Option<u32>> = const { std::cell::Cell::new(None) };
}

#[cfg(test)]
fn kill_point(op: u32) -> io::Result<()> {
    match KILL_AT.get() {
        Some(k) if k <= op => Err(io::Error::new(
            io::ErrorKind::Interrupted,
            "injected crash point",
        )),
        _ => Ok(()),
    }
}

#[cfg(not(test))]
#[inline(always)]
fn kill_point(_op: u32) -> io::Result<()> {
    Ok(())
}

/// Whether two directory paths name the same directory, resolving
/// symlinks/relative segments when both exist.
fn same_dir(a: &Path, b: &Path) -> bool {
    if a == b {
        return true;
    }
    match (std::fs::canonicalize(a), std::fs::canonicalize(b)) {
        (Ok(x), Ok(y)) => x == y,
        _ => false,
    }
}

/// `InvalidInput` unless `ok`. Callers check their arguments before
/// charging any tick, so a rejected call moves no fault ordinal.
fn check_input(ok: bool, msg: &str) -> Result<(), ApspError> {
    if ok {
        Ok(())
    } else {
        Err(ApspError::InvalidInput(msg.into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ApspErrorKind;
    use apsp_graph::INF;

    /// The OS or injected error inside a [`ApspError::Storage`].
    fn io_error(e: ApspError) -> io::Error {
        match e {
            ApspError::Storage(e) => e,
            other => panic!("expected Storage, got {other:?}"),
        }
    }

    fn tmp_dir() -> PathBuf {
        std::env::temp_dir().join("apsp_tile_store_tests")
    }

    fn backends() -> Vec<StorageBackend> {
        vec![StorageBackend::Memory, StorageBackend::Disk(tmp_dir())]
    }

    #[test]
    fn initialization_convention() {
        for backend in backends() {
            let s = TileStore::new(4, &backend).unwrap();
            for i in 0..4 {
                for j in 0..4 {
                    assert_eq!(s.get(i, j).unwrap(), if i == j { 0 } else { INF });
                }
            }
        }
    }

    #[test]
    fn row_roundtrip_both_backends() {
        for backend in backends() {
            let mut s = TileStore::new(3, &backend).unwrap();
            s.write_row(1, &[7, 8, 9]).unwrap();
            assert_eq!(s.read_row(1).unwrap(), vec![7, 8, 9]);
            assert_eq!(s.read_row(0).unwrap()[0], 0);
        }
    }

    #[test]
    fn multi_row_and_block_writes() {
        for backend in backends() {
            let mut s = TileStore::new(4, &backend).unwrap();
            s.write_rows(1, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap(); // rows 1–2
            assert_eq!(s.read_row(2).unwrap(), vec![5, 6, 7, 8]);
            s.write_block(0..2, 2..4, &[90, 91, 92, 93]).unwrap();
            assert_eq!(s.get(0, 2).unwrap(), 90);
            assert_eq!(s.get(1, 3).unwrap(), 93);
            // Untouched cells survive the block write.
            assert_eq!(s.get(1, 0).unwrap(), 1);
        }
    }

    #[test]
    fn read_block_roundtrips_write_block() {
        for backend in backends() {
            let mut s = TileStore::new(5, &backend).unwrap();
            let block: Vec<u32> = (0..6).collect(); // 2×3
            s.write_block(1..3, 2..5, &block).unwrap();
            assert_eq!(s.read_block(1..3, 2..5).unwrap(), block);
            // Sub-block of the written region.
            assert_eq!(s.read_block(2..3, 3..5).unwrap(), vec![4, 5]);
        }
    }

    #[test]
    fn to_dist_matrix_matches() {
        for backend in backends() {
            let mut s = TileStore::new(3, &backend).unwrap();
            s.write_row(0, &[0, 5, 6]).unwrap();
            let m = s.to_dist_matrix().unwrap();
            assert_eq!(m.get(0, 1), 5);
            assert_eq!(m.get(1, 1), 0);
        }
    }

    /// A killed process that had this pid left spill files behind. The
    /// planted names cover far more counters than this test binary ever
    /// draws, so concurrent tests cannot move the counter past them. Even
    /// counters plant the first file of a family, odd ones its second
    /// shard, so a one-file store skips the even names and a two-shard
    /// store must undo half-built families until it passes them all.
    #[test]
    fn stale_spill_files_are_skipped_and_left_alone() {
        let dir = tmp_dir().join("stale_spill");
        std::fs::create_dir_all(&dir).unwrap();
        let pid = std::process::id();
        let planted: Vec<PathBuf> = (0..4096u64)
            .map(|c| {
                let suffix = if c % 2 == 0 { "" } else { ".s1" };
                dir.join(format!("apsp-tiles-{pid}-{c}.bin{suffix}"))
            })
            .collect();
        for (c, p) in planted.iter().enumerate() {
            std::fs::write(p, c.to_le_bytes()).unwrap();
        }
        for backend in [
            StorageBackend::Disk(dir.clone()),
            sharded(dir.clone(), 3, 2),
        ] {
            let mut s = TileStore::new(3, &backend).unwrap();
            s.write_row(2, &[1, 2, 3]).unwrap();
            assert_eq!(s.read_row(2).unwrap(), vec![1, 2, 3]);
            assert_eq!(s.get(0, 0).unwrap(), 0);
        }
        for (c, p) in planted.iter().enumerate() {
            assert_eq!(
                std::fs::read(p).unwrap(),
                c.to_le_bytes(),
                "{}",
                p.display()
            );
        }
        let left = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(left, planted.len(), "only the planted files remain");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persist_and_open_roundtrip_both_backends() {
        // Not tmp_dir() itself: that is the Disk backend's spill
        // directory, and persisting into it is rejected by design.
        let dir = tmp_dir().join("persist_roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        for (idx, backend) in backends().into_iter().enumerate() {
            let path = dir.join(format!("persist-{}.bin", idx));
            {
                let mut s = TileStore::new(3, &backend).unwrap();
                s.write_row(1, &[4, 5, 6]).unwrap();
                s.persist(&path).unwrap();
            }
            // Original store dropped; the persisted file survives.
            let reopened = TileStore::open(&path, 3).unwrap();
            assert_eq!(reopened.read_row(1).unwrap(), vec![4, 5, 6]);
            assert_eq!(reopened.get(0, 0).unwrap(), 0);
            drop(reopened);
            assert!(path.exists(), "opened store must not delete its file");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn open_rejects_wrong_size() {
        let dir = tmp_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wrong-size.bin");
        std::fs::write(&path, [0u8; 10]).unwrap();
        assert!(TileStore::open(&path, 3).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_wrong_geometry_despite_right_byte_length() {
        // A tampered (or mismatched) header must be rejected even when
        // the file's byte length is exactly what the caller's n needs.
        let dir = tmp_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wrong-geometry.bin");
        TileStore::new(4, &StorageBackend::Memory)
            .unwrap()
            .persist(&path)
            .unwrap();
        // Rewrite the header's dimension field to claim 5×5; the file
        // length still matches a persisted 4×4 matrix.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..16].copy_from_slice(&5u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = TileStore::open(&path, 4).unwrap_err();
        assert_eq!(err.kind(), ApspErrorKind::Corruption);
        assert!(err.to_string().contains("5×5"), "{err}");
        // A file without the magic is rejected too, at any length.
        let raw = vec![0u8; PERSIST_HEADER_BYTES as usize + 4 * 4 * 4];
        std::fs::write(&path, &raw).unwrap();
        let err = TileStore::open(&path, 4).unwrap_err();
        assert_eq!(err.kind(), ApspErrorKind::Corruption);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn hang_fault_charges_the_supervisor_and_succeeds() {
        use crate::supervisor::{SupervisionOptions, Supervisor};
        let mut s = TileStore::new(3, &StorageBackend::Disk(tmp_dir())).unwrap();
        s.arm_faults(DiskFaultPlan {
            write_faults: vec![(0, DiskFault::HangMicros(2_500_000))],
            read_faults: vec![(1, DiskFault::HangMicros(500_000))],
        });
        let sup = Supervisor::new(&SupervisionOptions::default(), 0.0);
        s.set_supervision(sup.clone());
        // The hung ops still succeed — only the stall clock notices.
        s.write_row(0, &[1, 2, 3]).unwrap();
        assert_eq!(s.read_row(0).unwrap(), vec![1, 2, 3]);
        assert_eq!(s.read_row(0).unwrap(), vec![1, 2, 3]);
        assert!((sup.io_stall_seconds() - 3.0).abs() < 1e-9);
        // Without a supervisor attached the hang is unobservable.
        s.clear_supervision();
        s.write_row(1, &[4, 5, 6]).unwrap();
        assert!((sup.io_stall_seconds() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn opened_store_is_writable() {
        let dir = tmp_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("writable.bin");
        TileStore::new(2, &StorageBackend::Memory)
            .unwrap()
            .persist(&path)
            .unwrap();
        let mut s = TileStore::open(&path, 2).unwrap();
        s.write_row(0, &[9, 9]).unwrap();
        drop(s);
        let again = TileStore::open(&path, 2).unwrap();
        assert_eq!(again.read_row(0).unwrap(), vec![9, 9]);
        std::fs::remove_file(&path).unwrap();
    }

    /// A store that counts ticks without ever crashing.
    fn counting_store(n: usize) -> TileStore {
        let mut s = TileStore::new(n, &StorageBackend::Memory).unwrap();
        s.arm_crash(u64::MAX);
        s
    }

    /// `r` is a typed `InvalidInput`, and the call charged no tick, so
    /// seeded fault ordinals stay where they were.
    fn assert_rejected<T: std::fmt::Debug>(s: &TileStore, r: Result<T, ApspError>) {
        assert_eq!(r.unwrap_err().kind(), ApspErrorKind::InvalidInput);
        assert_eq!(s.crash_ops(), 0, "a rejected call charged a tick");
    }

    #[test]
    fn rejects_bad_row_width() {
        let mut s = counting_store(3);
        let r = s.write_row(0, &[1, 2]);
        assert_rejected(&s, r);
        let r = s.write_row(3, &[1, 2, 3]);
        assert_rejected(&s, r);
    }

    #[test]
    fn write_rows_rejects_partial_and_out_of_range_rows() {
        let mut s = counting_store(3);
        let r = s.write_rows(0, &[1, 2]);
        assert_rejected(&s, r);
        let r = s.write_rows(2, &[0; 6]);
        assert_rejected(&s, r);
        let r = s.write_rows(usize::MAX, &[0; 3]);
        assert_rejected(&s, r);
    }

    #[test]
    fn write_block_rejects_bad_ranges_and_sizes() {
        let mut s = counting_store(3);
        let r = s.write_block(0..4, 0..1, &[0; 4]);
        assert_rejected(&s, r);
        let r = s.write_block(0..1, 2..4, &[0; 2]);
        assert_rejected(&s, r);
        #[allow(clippy::reversed_empty_ranges)]
        let r = s.write_block(2..1, 0..1, &[]);
        assert_rejected(&s, r);
        let r = s.write_block(0..2, 0..2, &[0; 3]);
        assert_rejected(&s, r);
    }

    #[test]
    fn read_block_rejects_bad_ranges() {
        let s = counting_store(3);
        assert_rejected(&s, s.read_block(0..4, 0..3));
        assert_rejected(&s, s.read_block(0..3, 1..4));
        #[allow(clippy::reversed_empty_ranges)]
        let reversed = 2..1;
        assert_rejected(&s, s.read_block(0..3, reversed));
    }

    #[test]
    fn read_row_rejects_row_out_of_range() {
        let s = counting_store(3);
        assert_rejected(&s, s.read_row(3));
    }

    #[test]
    fn get_rejects_cell_out_of_range() {
        let s = counting_store(3);
        assert_rejected(&s, s.get(3, 0));
        assert_rejected(&s, s.get(0, 3));
    }

    #[test]
    fn panel_checksums_rejects_zero_panel_rows() {
        let s = counting_store(3);
        assert_rejected(&s, s.panel_checksums(0));
    }

    #[test]
    fn last_row_roundtrips_on_disk() {
        // Off-by-one-row bugs in positional offsets show up exactly at
        // the file's tail, where a bad offset runs past EOF.
        let n = 7;
        let mut s = TileStore::new(n, &StorageBackend::Disk(tmp_dir())).unwrap();
        let row: Vec<Dist> = (100..100 + n as Dist).collect();
        s.write_row(n - 1, &row).unwrap();
        assert_eq!(s.read_row(n - 1).unwrap(), row);
        assert_eq!(s.get(n - 1, n - 1).unwrap(), row[n - 1]);
        // The row above is untouched.
        assert_eq!(s.get(n - 2, n - 2).unwrap(), 0);
        assert_eq!(s.get(n - 2, n - 1).unwrap(), INF);
    }

    #[test]
    fn drop_removes_exactly_its_spill_file() {
        let dir = tmp_dir().join("drop_cleanup");
        let path = {
            let s = TileStore::new(4, &StorageBackend::Disk(dir.clone())).unwrap();
            let survivor = TileStore::new(4, &StorageBackend::Disk(dir.clone())).unwrap();
            let files: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            assert_eq!(files.len(), 2);
            drop(s);
            let remaining: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            assert_eq!(remaining.len(), 1, "dropped store must remove its file");
            // The survivor still reads after its sibling's cleanup.
            assert_eq!(survivor.get(0, 0).unwrap(), 0);
            remaining[0].clone()
        };
        assert!(!path.exists(), "second drop removes the last file");
        std::fs::remove_dir(&dir).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn unwritable_directory_surfaces_io_error() {
        use std::os::unix::fs::PermissionsExt;
        if effective_uid() == 0 {
            return; // root bypasses permission bits; nothing to test
        }
        let dir = tmp_dir().join("readonly_dir");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::set_permissions(&dir, std::fs::Permissions::from_mode(0o555)).unwrap();
        let err = TileStore::new(4, &StorageBackend::Disk(dir.clone())).unwrap_err();
        assert_eq!(io_error(err).kind(), io::ErrorKind::PermissionDenied);
        std::fs::set_permissions(&dir, std::fs::Permissions::from_mode(0o755)).unwrap();
        std::fs::remove_dir(&dir).unwrap();
    }

    #[cfg(unix)]
    fn effective_uid() -> u32 {
        // Avoid a libc dependency: the uid is in /proc for this purpose.
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("Uid:"))
                    .and_then(|l| l.split_whitespace().nth(1).map(str::to_string))
            })
            .and_then(|u| u.parse().ok())
            .unwrap_or(u32::MAX)
    }

    #[test]
    fn fault_plan_enospc_fires_at_scheduled_write() {
        let mut s = TileStore::new(3, &StorageBackend::Disk(tmp_dir())).unwrap();
        s.arm_faults(DiskFaultPlan {
            write_faults: vec![(1, DiskFault::Enospc)],
            read_faults: vec![],
        });
        s.write_row(0, &[1, 2, 3]).unwrap(); // op 0: clean
        let err = s.write_row(1, &[4, 5, 6]).unwrap_err(); // op 1: ENOSPC
        assert_eq!(io_error(err).raw_os_error(), Some(inject::ENOSPC_ERRNO));
        // Nothing from the failed write landed.
        assert_eq!(s.read_row(1).unwrap(), vec![INF, 0, INF]);
        // Subsequent ops are clean again.
        s.write_row(1, &[4, 5, 6]).unwrap();
        assert_eq!(s.read_row(1).unwrap(), vec![4, 5, 6]);
        assert_eq!(s.io_ops().0, 3);
    }

    #[test]
    fn fault_plan_short_write_mutates_then_errors() {
        let mut s = TileStore::new(4, &StorageBackend::Disk(tmp_dir())).unwrap();
        s.arm_faults(DiskFaultPlan {
            write_faults: vec![(0, DiskFault::ShortWrite)],
            read_faults: vec![],
        });
        let err = s.write_row(2, &[9, 9, 9, 9]).unwrap_err();
        assert_eq!(io_error(err).kind(), io::ErrorKind::WriteZero);
        // The dangerous part: half the row (2 of 4 u32s) did land.
        assert_eq!(s.read_row(2).unwrap(), vec![9, 9, 0, INF]);
    }

    #[test]
    fn fault_plan_short_read_and_latency() {
        let mut s = TileStore::new(4, &StorageBackend::Disk(tmp_dir())).unwrap();
        s.write_row(1, &[5, 6, 7, 8]).unwrap();
        s.arm_faults(DiskFaultPlan {
            write_faults: vec![(0, DiskFault::LatencyMicros(50))],
            read_faults: vec![(0, DiskFault::ShortRead), (1, DiskFault::LatencyMicros(50))],
        });
        let err = s.read_row(1).unwrap_err();
        assert_eq!(io_error(err).kind(), io::ErrorKind::UnexpectedEof);
        // Latency faults delay but succeed, on both directions.
        assert_eq!(s.read_row(1).unwrap(), vec![5, 6, 7, 8]);
        s.write_row(0, &[1, 1, 1, 1]).unwrap();
        assert_eq!(s.io_ops(), (1, 2));
        s.disarm_faults();
        assert_eq!(s.io_ops(), (0, 0));
    }

    #[test]
    fn fault_plan_is_inert_on_memory_backing() {
        let mut s = TileStore::new(3, &StorageBackend::Memory).unwrap();
        s.arm_faults(DiskFaultPlan {
            write_faults: vec![(0, DiskFault::Enospc)],
            read_faults: vec![(0, DiskFault::ShortRead)],
        });
        s.write_row(0, &[1, 2, 3]).unwrap();
        assert_eq!(s.read_row(0).unwrap(), vec![1, 2, 3]);
        assert_eq!(
            s.io_ops(),
            (0, 0),
            "memory backing issues no positional I/O"
        );
    }

    #[test]
    fn persist_rejects_own_spill_directory() {
        let dir = tmp_dir().join("own_dir_guard");
        let s = TileStore::new(3, &StorageBackend::Disk(dir.clone())).unwrap();
        let err = s.persist(dir.join("snapshot.bin")).unwrap_err();
        assert_eq!(err.kind(), ApspErrorKind::InvalidInput);
        // A sibling directory is fine.
        let out = tmp_dir().join("own_dir_guard_out");
        std::fs::create_dir_all(&out).unwrap();
        s.persist(out.join("snapshot.bin")).unwrap();
        assert!(out.join("snapshot.bin").exists());
        std::fs::remove_file(out.join("snapshot.bin")).unwrap();
    }

    #[test]
    fn persist_is_atomic_no_tmp_left_behind() {
        let out = tmp_dir().join("atomic_persist");
        std::fs::create_dir_all(&out).unwrap();
        let target = out.join("m.bin");
        let mut s = TileStore::new(3, &StorageBackend::Memory).unwrap();
        s.write_row(0, &[0, 7, 8]).unwrap();
        s.persist(&target).unwrap();
        // Overwrite with new content; the file is replaced whole.
        s.write_row(0, &[0, 9, 9]).unwrap();
        s.persist(&target).unwrap();
        let again = TileStore::open(&target, 3).unwrap();
        assert_eq!(again.read_row(0).unwrap(), vec![0, 9, 9]);
        drop(again);
        let leftovers: Vec<_> = std::fs::read_dir(&out)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|f| f.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "tmp files leaked: {leftovers:?}");
        std::fs::remove_file(&target).unwrap();
    }

    #[test]
    fn panel_checksums_detect_any_mutation() {
        for backend in backends() {
            let mut s = TileStore::new(5, &backend).unwrap();
            s.write_row(2, &[1, 2, 3, 4, 5]).unwrap();
            let before = s.panel_checksums(2).unwrap();
            assert_eq!(before.len(), 3); // panels of 2, 2, 1 rows
            assert_eq!(before, s.panel_checksums(2).unwrap(), "deterministic");
            s.write_row(4, &[9, 9, 9, 9, 0]).unwrap();
            let after = s.panel_checksums(2).unwrap();
            assert_eq!(before[0], after[0]);
            assert_eq!(before[1], after[1]);
            assert_ne!(before[2], after[2], "mutated panel must change");
        }
    }

    #[test]
    fn crash_point_kills_the_store_on_both_backends() {
        for backend in backends() {
            let mut s = TileStore::new(4, &backend).unwrap();
            s.arm_crash(2);
            s.write_row(0, &[1, 1, 1, 1]).unwrap(); // op 0
            s.read_row(0).unwrap(); // op 1
            let err = s.write_row(1, &[2, 2, 2, 2]).unwrap_err(); // op 2: dead
            assert!(err.to_string().contains("injected crash"), "{err}");
            // Every subsequent op fails too — the process is "dead".
            assert!(s.read_row(0).is_err());
            assert!(s.get(0, 0).is_err());
            assert!(s.crash_ops() >= 3);
            // Disarming revives it (the harness's post-mortem view).
            s.disarm_crash();
            assert_eq!(s.read_row(0).unwrap(), vec![1, 1, 1, 1]);
        }
    }

    #[test]
    fn crash_counts_block_ops_at_row_granularity() {
        let mut s = TileStore::new(4, &StorageBackend::Memory).unwrap();
        s.arm_crash(u64::MAX);
        s.write_block(0..3, 0..2, &[1, 2, 3, 4, 5, 6]).unwrap(); // 3 ops
        s.read_block(1..3, 0..4).unwrap(); // 2 ops
        s.write_rows(0, &[7, 7, 7, 7, 8, 8, 8, 8]).unwrap(); // 1 op
        assert_eq!(s.crash_ops(), 6);
    }

    #[test]
    fn sdc_guard_clean_runs_stay_clean_on_both_backends() {
        for backend in backends() {
            let mut s = TileStore::new(5, &backend).unwrap();
            s.set_sdc_guard(SdcGuardMode::Checksum).unwrap();
            assert_eq!(s.sdc_guard(), SdcGuardMode::Checksum);
            s.write_row(1, &[1, 2, 3, 4, 5]).unwrap();
            s.write_rows(2, &[6; 10]).unwrap();
            s.write_block(0..2, 1..3, &[7, 7, 7, 7]).unwrap(); // partial: dirty
            assert_eq!(s.read_row(1).unwrap(), vec![1, 7, 7, 4, 5]);
            s.verify_checksums().unwrap();
            s.verify_checksums().unwrap(); // idempotent after rehash
            let m = s.to_dist_matrix().unwrap();
            assert_eq!(m.get(2, 0), 6);
            s.set_sdc_guard(SdcGuardMode::Off).unwrap();
            assert_eq!(s.sdc_guard(), SdcGuardMode::Off);
        }
    }

    #[test]
    fn armed_bit_flip_is_detected_typed_on_both_backends() {
        for backend in backends() {
            let mut s = TileStore::new(4, &backend).unwrap();
            s.set_sdc_guard(SdcGuardMode::Checksum).unwrap();
            s.set_sdc_round(3);
            s.write_row(0, &[0, 1, 2, 3]).unwrap(); // write op 0: clean
            s.arm_bit_flip(0, 5); // next write op flips bit 5 of its row
            s.write_row(2, &[9, 9, 9, 9]).unwrap();
            match s.read_row(2).unwrap_err() {
                ApspError::SilentCorruption { panel, round, .. } => {
                    assert_eq!(panel, 0); // row 2 lives in panel 0
                    assert_eq!(round, 3);
                }
                other => panic!("expected SilentCorruption, got {other:?}"),
            }
            // Untouched rows still read clean.
            assert_eq!(s.read_row(0).unwrap(), vec![0, 1, 2, 3]);
            // The full sweep sees it too (run-end gate).
            assert!(s.verify_checksums().is_err());
            assert!(s.to_dist_matrix().is_err());
        }
    }

    #[test]
    fn bit_flip_with_guard_off_is_silently_wrong() {
        // The baseline the guard exists to close: no guard, no error,
        // wrong data.
        for backend in backends() {
            let mut s = TileStore::new(3, &backend).unwrap();
            s.arm_bit_flip(0, 0); // flip bit 0 of the next written row
            s.write_row(1, &[4, 4, 4]).unwrap();
            let row = s.read_row(1).unwrap();
            assert_eq!(row, vec![5, 4, 4], "bit 0 of element 0 flipped");
            s.verify_checksums().unwrap(); // no registry, no detection
        }
    }

    #[test]
    fn bit_flip_on_dirty_row_is_still_caught_at_the_barrier() {
        for backend in backends() {
            let mut s = TileStore::new(4, &backend).unwrap();
            s.set_sdc_guard(SdcGuardMode::Full).unwrap();
            // Partial write marks rows 1..3 dirty, and the armed flip
            // fires on that same operation (budget 1 ⇒ second row).
            s.arm_bit_flip(1, 17);
            s.write_block(1..3, 0..2, &[8, 8, 8, 8]).unwrap();
            // The flip finalizes the row's checksum from the clean
            // backing before striking, so the sweep cannot absorb it.
            match s.verify_checksums().unwrap_err() {
                ApspError::SilentCorruption { panel, .. } => assert_eq!(panel, 0),
                other => panic!("expected SilentCorruption, got {other:?}"),
            }
        }
    }

    #[test]
    fn bit_flips_count_down_across_ops_and_clear() {
        let mut s = TileStore::new(3, &StorageBackend::Memory).unwrap();
        s.set_sdc_guard(SdcGuardMode::Checksum).unwrap();
        s.arm_bit_flip(5, 1); // budget outlives the ops below
        s.write_rows(0, &[1; 6]).unwrap(); // 2 row ops: 3 left
        s.write_row(2, &[2, 2, 2]).unwrap(); // 2 left
        s.verify_checksums().unwrap();
        s.clear_bit_flips();
        s.write_row(0, &[3, 3, 3]).unwrap();
        s.write_row(1, &[3, 3, 3]).unwrap();
        s.write_row(2, &[3, 3, 3]).unwrap(); // would have fired here
        s.verify_checksums().unwrap();
    }

    #[test]
    fn persisted_footer_catches_spill_file_damage_on_first_read() {
        let out = tmp_dir().join("footer_damage");
        std::fs::create_dir_all(&out).unwrap();
        let target = out.join("m.bin");
        let mut s = TileStore::new(5, &StorageBackend::Memory).unwrap();
        s.write_row(3, &[1, 2, 3, 4, 5]).unwrap();
        s.persist(&target).unwrap();
        drop(s);
        // Clean reopen verifies every panel it touches.
        let clean = TileStore::open(&target, 5).unwrap();
        assert_eq!(clean.read_row(3).unwrap(), vec![1, 2, 3, 4, 5]);
        drop(clean);
        // Flip one payload byte behind the store's back.
        let mut bytes = std::fs::read(&target).unwrap();
        let victim = PERSIST_HEADER_BYTES as usize + (3 * 5 + 1) * 4;
        bytes[victim] ^= 0x10;
        std::fs::write(&target, &bytes).unwrap();
        let damaged = TileStore::open(&target, 5).unwrap();
        match damaged.read_row(3).unwrap_err() {
            ApspError::Corruption { detail } => {
                assert!(detail.contains("panel 0"), "{detail}");
            }
            other => panic!("expected Corruption, got {other:?}"),
        }
        std::fs::remove_file(&target).unwrap();
    }

    #[test]
    fn legacy_footerless_persist_files_still_open() {
        let out = tmp_dir().join("legacy_open");
        std::fs::create_dir_all(&out).unwrap();
        let target = out.join("m.bin");
        let mut s = TileStore::new(3, &StorageBackend::Memory).unwrap();
        s.write_row(0, &[0, 7, 8]).unwrap();
        s.persist(&target).unwrap();
        drop(s);
        // Truncate the footer: the file looks like a pre-footer persist.
        let legacy_len = PERSIST_HEADER_BYTES + 3 * 3 * 4;
        let f = OpenOptions::new().write(true).open(&target).unwrap();
        f.set_len(legacy_len).unwrap();
        drop(f);
        let reopened = TileStore::open(&target, 3).unwrap();
        assert_eq!(reopened.read_row(0).unwrap(), vec![0, 7, 8]);
        // A length that is neither legacy nor footer'd is rejected.
        let f = OpenOptions::new().write(true).open(&target).unwrap();
        f.set_len(legacy_len + 3).unwrap();
        drop(f);
        assert!(TileStore::open(&target, 3).is_err());
        std::fs::remove_file(&target).unwrap();
    }

    #[test]
    fn guard_reads_leave_fault_and_crash_ordinals_unperturbed() {
        // The guard must observe without being observed: identical op
        // accounting with the guard on and off.
        let mut ops = Vec::new();
        for guard in [SdcGuardMode::Off, SdcGuardMode::Checksum] {
            let mut s = TileStore::new(4, &StorageBackend::Disk(tmp_dir())).unwrap();
            s.set_sdc_guard(guard).unwrap();
            s.arm_crash(u64::MAX);
            s.arm_faults(DiskFaultPlan::default());
            s.write_rows(0, &[1; 8]).unwrap();
            s.read_block(0..2, 0..4).unwrap();
            s.verify_checksums().unwrap();
            s.get(3, 3).unwrap();
            ops.push((s.crash_ops(), s.io_ops()));
        }
        assert_eq!(ops[0], ops[1]);
    }

    #[test]
    fn concurrent_stores_use_distinct_files() {
        let dir = tmp_dir();
        let a = TileStore::new(2, &StorageBackend::Disk(dir.clone())).unwrap();
        let b = TileStore::new(2, &StorageBackend::Disk(dir)).unwrap();
        drop(a);
        // b still works after a's file is gone.
        assert_eq!(b.get(1, 1).unwrap(), 0);
    }

    /// Sharded backend with `rows` rows per spill file.
    fn sharded(dir: PathBuf, n: usize, rows: usize) -> StorageBackend {
        StorageBackend::DiskSharded {
            dir,
            shard_bytes: (rows * n * std::mem::size_of::<Dist>()) as u64,
        }
    }

    #[test]
    fn sharded_store_splits_at_threshold_and_roundtrips() {
        let dir = tmp_dir().join("sharding_roundtrip");
        let n = 5;
        {
            // Two rows per file ⇒ shards of 2, 2, 1 rows.
            let mut s = TileStore::new(n, &sharded(dir.clone(), n, 2)).unwrap();
            let files: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            assert_eq!(files.len(), 3, "5 rows at 2 rows/file is 3 shards");
            // Initialization convention holds across every shard.
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(s.get(i, j).unwrap(), if i == j { 0 } else { INF });
                }
            }
            // A multi-row write spanning a shard boundary.
            let rows: Vec<Dist> = (0..3 * n as Dist).collect();
            s.write_rows(1, &rows).unwrap();
            assert_eq!(s.read_rows_concat(1, 3), rows);
            // Block ops crossing a shard boundary.
            s.write_block(1..4, 1..3, &[70, 71, 72, 73, 74, 75])
                .unwrap();
            assert_eq!(
                s.read_block(1..4, 1..3).unwrap(),
                vec![70, 71, 72, 73, 74, 75]
            );
            // Last row (sole row of the last shard) round-trips.
            let last: Vec<Dist> = (900..900 + n as Dist).collect();
            s.write_row(n - 1, &last).unwrap();
            assert_eq!(s.read_row(n - 1).unwrap(), last);
        }
        // Drop removes the whole shard family.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir(&dir).unwrap();
    }

    impl TileStore {
        /// Test helper: `count` rows from `start`, concatenated.
        fn read_rows_concat(&self, start: usize, count: usize) -> Vec<Dist> {
            let mut out = Vec::new();
            for i in start..start + count {
                out.extend_from_slice(&self.read_row(i).unwrap());
            }
            out
        }
    }

    #[test]
    fn sharded_store_matches_single_file_bit_for_bit() {
        // Same content and same fault/crash ordinals at every split
        // threshold: sharding must be invisible to everything above it.
        let n = 6;
        let mut probes = Vec::new();
        for rows_per_shard in [1, 2, 4, n] {
            let dir = tmp_dir().join(format!("shard_parity_{rows_per_shard}"));
            let mut s = TileStore::new(n, &sharded(dir.clone(), n, rows_per_shard)).unwrap();
            s.arm_crash(u64::MAX);
            s.arm_faults(DiskFaultPlan::default());
            s.write_rows(0, &vec![3; 3 * n]).unwrap();
            s.write_block(2..5, 1..4, &[8; 9]).unwrap();
            s.write_row(n - 1, &vec![5; n]).unwrap();
            s.read_block(0..n, 0..n).unwrap();
            probes.push((s.to_dist_matrix().unwrap(), s.crash_ops(), s.io_ops()));
            drop(s);
            std::fs::remove_dir(&dir).unwrap();
        }
        for p in &probes[1..] {
            assert_eq!(p, &probes[0]);
        }
    }

    #[test]
    fn sharded_short_write_persists_half_the_logical_buffer() {
        // A ShortWrite on a call spanning shards persists the first half
        // of the *logical* buffer (here exactly row 0, in shard 0) and
        // leaves the rest untouched — one fault ordinal for the call.
        let dir = tmp_dir().join("shard_short_write");
        let n = 4;
        let mut s = TileStore::new(n, &sharded(dir.clone(), n, 1)).unwrap();
        s.arm_faults(DiskFaultPlan {
            write_faults: vec![(0, DiskFault::ShortWrite)],
            read_faults: vec![],
        });
        let err = s.write_rows(0, &[9; 8]).unwrap_err();
        assert_eq!(io_error(err).kind(), io::ErrorKind::WriteZero);
        assert_eq!(s.read_row(0).unwrap(), vec![9, 9, 9, 9]);
        assert_eq!(s.read_row(1).unwrap(), vec![INF, 0, INF, INF]);
        assert_eq!(s.io_ops().0, 1, "a spanning write is one ordinal");
        drop(s);
        std::fs::remove_dir(&dir).unwrap();
    }

    /// Every public op once, on every backing, with all three counters
    /// and telemetry armed. Each row is `(op, memory, disk)`, and each
    /// cell holds the totals after the op:
    /// `(crash_ops, io_ops (write, read), telemetry rows (read, written))`.
    /// The `disk` column also holds for a spill of one row per shard and
    /// for one laid out in tiles of side 2 (a ragged last tile at n = 5),
    /// which issue other storage calls for the same ops.
    /// The table pins the three counting rules. Fault-plan ordinals
    /// count one op per row of a block access and one per other call.
    /// Crash ticks are row-granular, but `write_rows` counts 1. Bit flips count
    /// row-granular writes, the telemetry write column: the armed flip
    /// must land on row 3, the second row of `write_rows`, which the
    /// full-width block then overwrites unread. Counted like crash ticks,
    /// it lands on row 0 of the partial block instead, and the guard's
    /// sweep fails the test.
    #[test]
    fn accounting_is_pinned_per_op() {
        use crate::supervisor::{SupervisionOptions, Supervisor};
        use crate::telemetry::Telemetry;
        type Counts = (u64, (u64, u64), (u64, u64));
        #[rustfmt::skip]
        let table: [(&str, Counts, Counts); 13] = [
        //   op                      memory                   disk
            ("write_row",            (1, (0, 0), (0, 1)),     (1, (1, 0), (0, 1))),
            ("write_rows",           (2, (0, 0), (0, 3)),     (2, (2, 0), (0, 3))),
            ("write_block partial",  (5, (0, 0), (0, 6)),     (5, (5, 0), (0, 6))),
            ("write_block full",     (7, (0, 0), (0, 8)),     (7, (7, 0), (0, 8))),
            ("read_block partial",   (10, (0, 0), (3, 8)),    (10, (7, 3), (3, 8))),
            ("read_block full",      (12, (0, 0), (5, 8)),    (12, (7, 5), (5, 8))),
            ("read_row",             (13, (0, 0), (6, 8)),    (13, (7, 6), (6, 8))),
            ("get",                  (14, (0, 0), (7, 8)),    (14, (7, 7), (7, 8))),
            ("verify_checksums",     (14, (0, 0), (7, 8)),    (14, (7, 7), (7, 8))),
            ("sdc_rebaseline",       (14, (0, 0), (7, 8)),    (14, (7, 7), (7, 8))),
            ("panel_checksums(2)",   (19, (0, 0), (12, 8)),   (19, (7, 12), (12, 8))),
            ("persist",              (24, (0, 0), (12, 8)),   (24, (7, 17), (17, 8))),
            ("to_dist_matrix",       (24, (0, 0), (12, 8)),   (29, (7, 22), (22, 8))),
        ];
        let n = 5;
        let out = tmp_dir().join("pinned_accounting_out");
        std::fs::create_dir_all(&out).unwrap();
        let backings = [
            ("memory", StorageBackend::Memory),
            ("disk", StorageBackend::Disk(tmp_dir())),
            (
                "sharded",
                sharded(tmp_dir().join("pinned_accounting_shards"), n, 1),
            ),
            ("tiled", StorageBackend::Disk(tmp_dir())),
        ];
        for (name, backend) in backings {
            let mut s = TileStore::new(n, &backend).unwrap();
            if name == "tiled" {
                s.set_tile_side(2).unwrap();
            }
            let tel = Telemetry::enabled();
            s.arm_crash(u64::MAX);
            s.arm_faults(DiskFaultPlan::default());
            s.set_sdc_guard(SdcGuardMode::Checksum).unwrap();
            s.set_supervision(Supervisor::with_telemetry(
                &SupervisionOptions::default(),
                0.0,
                tel.clone(),
            ));
            s.set_exec_backend(apsp_cpu::ExecBackend::Simd { threads: Some(1) });
            s.arm_bit_flip(2, 0);
            let target = out.join(format!("{name}.bin"));
            for (op, memory, disk) in table {
                match op {
                    "write_row" => s.write_row(1, &[1; 5]).unwrap(),
                    "write_rows" => s.write_rows(2, &[2; 10]).unwrap(),
                    "write_block partial" => s.write_block(0..3, 1..4, &[3; 9]).unwrap(),
                    "write_block full" => s.write_block(3..5, 0..5, &[4; 10]).unwrap(),
                    "read_block partial" => drop(s.read_block(1..4, 0..2).unwrap()),
                    "read_block full" => drop(s.read_block(0..2, 0..5).unwrap()),
                    "read_row" => drop(s.read_row(4).unwrap()),
                    "get" => drop(s.get(2, 3).unwrap()),
                    "verify_checksums" => s.verify_checksums().unwrap(),
                    "sdc_rebaseline" => s.sdc_rebaseline(0..n).unwrap(),
                    "panel_checksums(2)" => drop(s.panel_checksums(2).unwrap()),
                    "persist" => drop(s.persist(&target).unwrap()),
                    "to_dist_matrix" => drop(s.to_dist_matrix().unwrap()),
                    _ => unreachable!("{op}"),
                }
                let report = tel
                    .build_report("", "", 0.0, &Default::default(), &[], &[], 0, 0)
                    .unwrap();
                let got = (
                    s.crash_ops(),
                    s.io_ops(),
                    (report.store_row_reads, report.store_row_writes),
                );
                let want = if name == "memory" { memory } else { disk };
                assert_eq!(got, want, "{name} after {op}");
            }
            std::fs::remove_file(&target).unwrap();
        }
    }

    #[test]
    fn sharded_store_persists_and_guards_like_single_file() {
        let dir = tmp_dir().join("shard_persist");
        let out = tmp_dir().join("shard_persist_out");
        std::fs::create_dir_all(&out).unwrap();
        let n = 5;
        let mut s = TileStore::new(n, &sharded(dir.clone(), n, 2)).unwrap();
        s.set_sdc_guard(SdcGuardMode::Checksum).unwrap();
        s.write_row(4, &[1, 2, 3, 4, 0]).unwrap();
        s.verify_checksums().unwrap();
        // Bit flips land in the right shard and are still caught.
        s.arm_bit_flip(0, 3);
        s.write_row(2, &[7, 7, 7, 7, 7]).unwrap();
        assert!(s.read_row(2).is_err());
        // Repair, then persist → one merged file, reopenable.
        s.write_row(2, &[7, 7, 7, 7, 7]).unwrap();
        let target = out.join("m.bin");
        s.persist(&target).unwrap();
        drop(s);
        let reopened = TileStore::open(&target, n).unwrap();
        assert_eq!(reopened.read_row(4).unwrap(), vec![1, 2, 3, 4, 0]);
        assert_eq!(reopened.read_row(2).unwrap(), vec![7, 7, 7, 7, 7]);
        drop(reopened);
        std::fs::remove_file(&target).unwrap();
        std::fs::remove_dir(&dir).unwrap();
    }

    /// Deterministic bytes for hash tests: no two rows alike.
    fn patterned(cells: usize, salt: u32) -> Vec<Dist> {
        (0..cells as u32)
            .map(|c| c.wrapping_mul(0x9E37_79B9) ^ salt)
            .collect()
    }

    /// The registry's checksum of one row, one 64-bit word at a time.
    fn row_hash(row: &[Dist]) -> u64 {
        row.chunks(2).fold(FNV_OFFSET_BASIS, |hash, pair| {
            let word = pair.iter().rev().fold(0, |w, &c| w << 32 | c as u64);
            (hash ^ word).wrapping_mul(FNV_PRIME)
        })
    }

    #[test]
    fn lockstep_row_hashes_equal_the_one_row_hash() {
        for width in [1, 2, 3, 7, 64] {
            for count in 0..=9 {
                let cells = patterned(width * count, width as u32);
                let want: Vec<u64> = cells.chunks(width).map(row_hash).collect();
                assert_eq!(row_fnvs(&cells, count), want, "{count} rows of {width}");
            }
        }
        assert_eq!(row_fnvs(&[], 3), [FNV_OFFSET_BASIS; 3]);
    }

    #[test]
    fn every_single_bit_flip_changes_a_row_hash() {
        for width in [1, 2, 3, 7] {
            let row = patterned(width, 3);
            let clean = row_fnvs(&row, 1);
            for bit in 0..width * 32 {
                let mut flipped = row.clone();
                flipped[bit / 32] ^= 1 << (bit % 32);
                assert_ne!(row_fnvs(&flipped, 1), clean, "bit {bit} of {width} cells");
            }
        }
    }

    /// The footer is the serial FNV-1a of each panel's bytes, and it
    /// passes the read-back check: full and partial lane groups, with
    /// and without a ragged last panel.
    #[test]
    fn read_back_accepts_the_panel_fnv_footer() {
        let out = tmp_dir().join("read_back_sizes");
        std::fs::create_dir_all(&out).unwrap();
        let target = out.join("m.bin");
        for n in [1, 63, 64, 65, 255, 256, 257, 300] {
            let mut s = TileStore::new(n, &StorageBackend::Memory).unwrap();
            let cells = patterned(n * n, n as u32);
            s.write_rows(0, &cells).unwrap();
            let want: Vec<u64> = cells
                .chunks(SDC_PANEL_ROWS * n)
                .map(|panel| fnv1a(cast_bytes(panel), FNV_OFFSET_BASIS))
                .collect();
            let footer = s.persist(&target).unwrap();
            assert_eq!(footer, want, "n = {n}");
            assert_eq!(panel_fnvs(&cells, n, SDC_PANEL_ROWS), want, "n = {n}");
            let reopened = TileStore::open(&target, n).unwrap();
            reopened.verify_persisted(&footer).unwrap();
            // A footer other than the file's own is refused.
            let mut other = footer.clone();
            other[0] ^= 1;
            let reopened = TileStore::open(&target, n).unwrap();
            assert!(reopened.verify_persisted(&other).is_err(), "n = {n}");
        }
        std::fs::remove_file(&target).unwrap();
        // Byte lanes of unequal length, empty ones included, each
        // continue their own chain.
        let bytes = patterned(64, 7);
        let bytes = cast_bytes(&bytes);
        let lanes = [&bytes[..0], &bytes[..9], &bytes[3..200], &bytes[..9]];
        let seeds = [1, 2, 3, FNV_OFFSET_BASIS];
        let want: Vec<u64> = (0..LANES).map(|l| fnv1a(lanes[l], seeds[l])).collect();
        assert_eq!(fnv1a_lanes(seeds, lanes).to_vec(), want);
    }

    /// At n = 13 the guard hashes rows in groups 0–3, 4–7, 8–11 and a
    /// short 12. A flip on each of rows 8–12 (every lane, and the short
    /// group) is reported exactly as the serial hash reported it: panel
    /// 0 while the row is unread, unlocalized once a partial read has
    /// consumed it, by the sweep, the pre-dirty check of a partial write
    /// and a full-width read alike.
    #[test]
    fn flip_is_caught_in_every_lane_position() {
        let n = 13;
        for backend in backends() {
            for consumed in [false, true] {
                for row in 8..n {
                    let mut s = TileStore::new(n, &backend).unwrap();
                    s.set_sdc_guard(SdcGuardMode::Checksum).unwrap();
                    s.set_sdc_round(7);
                    s.arm_bit_flip(0, 3);
                    s.write_row(row, &patterned(n, row as u32)).unwrap();
                    if consumed {
                        s.read_block(0..n, 0..2).unwrap();
                    }
                    let (panel, suffix) = if consumed {
                        (
                            usize::MAX,
                            " (read since corruption; damage may have propagated)",
                        )
                    } else {
                        (0, "")
                    };
                    let want = format!("row {row} no longer matches its recorded checksum{suffix}");
                    let errs = [
                        ("verify_checksums", s.verify_checksums().unwrap_err()),
                        (
                            "write_block",
                            s.write_block(0..n, 0..2, &[1; 26]).unwrap_err(),
                        ),
                        ("read_block", s.read_block(0..n, 0..n).unwrap_err()),
                    ];
                    for (op, err) in errs {
                        let case = format!("{backend:?} row {row} consumed {consumed}: {op}");
                        match err {
                            ApspError::SilentCorruption {
                                panel: got,
                                round,
                                detail,
                            } => {
                                assert_eq!((got, round, detail), (panel, 7, want.clone()), "{case}")
                            }
                            other => panic!("{case}: expected SilentCorruption, got {other:?}"),
                        }
                    }
                }
            }
        }
    }

    /// Storage calls an op issues.
    fn calls_of(s: &TileStore, op: impl FnOnce(&TileStore)) -> u64 {
        let before = s.storage_calls();
        op(s);
        s.storage_calls() - before
    }

    #[test]
    fn a_tile_is_one_call_and_a_row_band_one_per_tile_column() {
        let n = 10;
        let mut s = TileStore::new(n, &StorageBackend::Disk(tmp_dir())).unwrap();
        // Row-major: full-width rows are one call, narrower blocks one
        // call per row.
        assert_eq!(calls_of(&s, |s| drop(s.read_block(1..7, 0..n).unwrap())), 1);
        assert_eq!(calls_of(&s, |s| drop(s.read_block(0..4, 0..4).unwrap())), 4);
        s.set_tile_side(4).unwrap();
        for (rows, cols) in [(0..4, 0..4), (4..8, 8..10), (8..10, 4..8), (8..10, 8..10)] {
            let read = calls_of(&s, |s| {
                drop(s.read_block(rows.clone(), cols.clone()).unwrap())
            });
            assert_eq!(read, 1, "read of tile {rows:?} × {cols:?}");
            let data = vec![7; rows.len() * cols.len()];
            let before = s.storage_calls();
            s.write_block(rows.clone(), cols.clone(), &data).unwrap();
            assert_eq!(
                s.storage_calls() - before,
                1,
                "write of tile {rows:?} × {cols:?}"
            );
        }
        // k full-width rows inside one tile-row: one call per tile column.
        assert_eq!(calls_of(&s, |s| drop(s.read_block(5..7, 0..n).unwrap())), 3);
        let before = s.storage_calls();
        s.write_rows(4, &[3; 4 * 10]).unwrap();
        assert_eq!(s.storage_calls() - before, 3);
        // Unaligned: one call per row segment.
        assert_eq!(calls_of(&s, |s| drop(s.read_block(1..3, 1..6).unwrap())), 4);
        // Back to row-major: the whole matrix is one call.
        s.set_tile_side(n).unwrap();
        assert_eq!(calls_of(&s, |s| drop(s.read_block(0..n, 0..n).unwrap())), 1);
        assert_eq!(s.get(5, 9).unwrap(), 3);
        assert_eq!(s.get(9, 9).unwrap(), 7);
        assert_eq!(s.get(9, 0).unwrap(), INF);
    }

    #[test]
    fn a_tile_straddling_two_shards_costs_one_more_call() {
        let n = 6;
        let dir = tmp_dir().join("tile_straddles_shards");
        // 5 cells per shard rounds down to one tile row of 3: each 3 × 3
        // tile spans three shard files.
        let backend = StorageBackend::DiskSharded {
            dir: dir.clone(),
            shard_bytes: 5 * CELL as u64,
        };
        let mut s = TileStore::new(n, &backend).unwrap();
        s.set_tile_side(3).unwrap();
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 12);
        assert_eq!(calls_of(&s, |s| drop(s.read_block(3..6, 0..3).unwrap())), 3);
        assert_eq!(
            s.read_block(3..6, 3..6).unwrap(),
            [0, INF, INF, INF, 0, INF, INF, INF, 0]
        );
        drop(s);
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "the re-layout left files"
        );
        std::fs::remove_dir(&dir).unwrap();
    }

    #[test]
    fn set_tile_side_leaves_memory_and_opened_stores_alone() {
        let mut mem = TileStore::new(3, &StorageBackend::Memory).unwrap();
        mem.write_row(1, &[4, 0, 6]).unwrap();
        mem.set_tile_side(2).unwrap();
        assert_eq!(mem.read_row(1).unwrap(), vec![4, 0, 6]);
        let out = tmp_dir().join("tile_side_opened");
        std::fs::create_dir_all(&out).unwrap();
        let path = out.join("m.bin");
        mem.persist(&path).unwrap();
        let mut opened = TileStore::open(&path, 3).unwrap();
        opened.set_tile_side(1).unwrap();
        assert_eq!(opened.read_row(1).unwrap(), vec![4, 0, 6]);
        // Still row-major: the whole file is one call.
        assert_eq!(
            calls_of(&opened, |s| drop(s.read_block(0..3, 0..3).unwrap())),
            1
        );
        drop(opened);
        std::fs::remove_file(&path).unwrap();
    }

    /// The stores the layout property compares: Memory, a row-major
    /// spill, spills laid out at sides 1, 2, 3 and n, and a sharded spill
    /// at side 3 whose shards are smaller than one tile.
    fn layout_stores(n: usize, case: &str) -> Vec<(String, TileStore)> {
        let mut stores = vec![
            (
                "memory".to_string(),
                TileStore::new(n, &StorageBackend::Memory).unwrap(),
            ),
            (
                "row-major".to_string(),
                TileStore::new(n, &StorageBackend::Disk(tmp_dir())).unwrap(),
            ),
        ];
        for side in [1, 2, 3, n] {
            let mut s = TileStore::new(n, &StorageBackend::Disk(tmp_dir())).unwrap();
            s.set_tile_side(side).unwrap();
            stores.push((format!("side {side}"), s));
        }
        let dir = tmp_dir().join(format!("layout_property_{case}"));
        let backend = StorageBackend::DiskSharded {
            dir,
            shard_bytes: 2 * CELL as u64,
        };
        let mut s = TileStore::new(n, &backend).unwrap();
        s.set_tile_side(3).unwrap();
        stores.push(("sharded".to_string(), s));
        stores
    }

    /// Raw draws cut to a non-empty range inside `0..n`.
    fn cut(n: usize, a: usize, b: usize) -> Range<usize> {
        let start = a % n;
        start..start + 1 + b % (n - start)
    }

    /// One drawn op on `s`, and what it returned.
    fn layout_op(
        s: &mut TileStore,
        n: usize,
        step: usize,
        op: (u8, usize, usize, usize, usize),
    ) -> String {
        let (kind, a, b, c, d) = op;
        let (rows, cols) = (cut(n, a, b), cut(n, c, d));
        let data = |len: usize| patterned(len, step as u32 + 1);
        let out: Result<Vec<Dist>, ApspError> = match kind {
            0 => s.write_row(a % n, &data(n)).map(|_| vec![]),
            1 => s
                .write_rows(rows.start, &data(rows.len() * n))
                .map(|_| vec![]),
            2 => s
                .write_block(rows.clone(), cols.clone(), &data(rows.len() * cols.len()))
                .map(|_| vec![]),
            3 => s.read_block(rows, cols),
            _ => s.get(a % n, c % n).map(|v| vec![v]),
        };
        format!("{:?}", out.map_err(|e| e.to_string()))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// Every layout gives the same reads, guard verdicts, counts and
        /// persisted bytes for a random op sequence, with one re-layout
        /// in the middle and one armed bit flip.
        #[test]
        fn every_layout_reads_guards_and_persists_alike(
            n in 4usize..12,
            ops in proptest::collection::vec((0u8..5, 0usize..64, 0usize..64, 0usize..64, 0usize..64), 4..24),
            mid in 0usize..24,
            flip in (0u64..60, 0u64..400),
        ) {
            let case = format!("{n}-{}-{mid}", ops.len());
            let mut stores = layout_stores(n, &case);
            for (_, s) in &mut stores {
                s.set_sdc_guard(SdcGuardMode::Checksum).unwrap();
                s.arm_crash(u64::MAX);
                s.arm_faults(DiskFaultPlan::default());
                s.arm_bit_flip(flip.0, flip.1);
            }
            let mut logs = vec![Vec::new(); stores.len()];
            for (step, &op) in ops.iter().enumerate() {
                for ((name, s), log) in stores.iter_mut().zip(&mut logs) {
                    if step == mid && name != "memory" && name != "row-major" {
                        s.set_tile_side(1 + (step + n) % n).unwrap();
                    }
                    let out = layout_op(s, n, step, op);
                    let verdict = format!("{:?}", s.verify_checksums().map_err(|e| e.to_string()));
                    log.push((out, verdict, s.crash_ops()));
                }
            }
            let out = tmp_dir().join(format!("layout_property_out_{case}"));
            std::fs::create_dir_all(&out).unwrap();
            let mut bytes = Vec::new();
            for (name, s) in &stores {
                s.sdc_rebaseline(0..n).unwrap();
                let path = out.join(format!("{}.bin", name.replace(' ', "-")));
                s.persist(&path).unwrap();
                bytes.push((std::fs::read(&path).unwrap(), s.panel_checksums(3).unwrap()));
                std::fs::remove_file(&path).unwrap();
            }
            for (k, (name, s)) in stores.iter().enumerate() {
                proptest::prop_assert_eq!(&logs[k], &logs[0], "{} diverged from memory", name);
                proptest::prop_assert_eq!(&bytes[k], &bytes[0], "{} persisted other bytes", name);
                if k > 1 {
                    proptest::prop_assert_eq!(s.io_ops(), stores[1].1.io_ops(), "{}", name);
                }
            }
        }

        /// A fault plan fires on the same row, with the same bytes and the
        /// same error, when block ops are coalesced as when each row is
        /// its own call: every layout against a row-major spill that
        /// splits every block op into one-row ops, which take
        /// `Injection::positional` directly and never coalesce.
        #[test]
        fn coalesced_block_ops_fault_like_one_op_per_row(
            n in 4usize..10,
            ops in proptest::collection::vec((0u8..5, 0usize..64, 0usize..64, 0usize..64, 0usize..64), 4..20),
            plan in proptest::collection::vec((0u64..48, 0u8..6, 0u8..2), 1..6),
        ) {
            let fault = |kind: u8| match kind {
                0 => DiskFault::ShortWrite,
                1 => DiskFault::ShortRead,
                2 => DiskFault::Enospc,
                3 => DiskFault::HangMicros(5),
                4 => DiskFault::LatencyMicros(0),
                _ => DiskFault::ShortWrite,
            };
            let plan = DiskFaultPlan {
                write_faults: plan.iter().filter(|p| p.2 == 0).map(|p| (p.0, fault(p.1))).collect(),
                read_faults: plan.iter().filter(|p| p.2 == 1).map(|p| (p.0, fault(p.1))).collect(),
            };
            let case = format!("faults-{n}-{}", ops.len());
            let mut stores = layout_stores(n, &case);
            stores.remove(0);
            let mut oracle = TileStore::new(n, &StorageBackend::Disk(tmp_dir())).unwrap();
            for s in stores.iter_mut().map(|(_, s)| s).chain([&mut oracle]) {
                s.arm_crash(u64::MAX);
                s.arm_faults(plan.clone());
            }
            for (step, &op) in ops.iter().enumerate() {
                // The oracle: the same op, one row per call.
                let (kind, a, b, c, d) = op;
                let (rows, cols) = (cut(n, a, b), cut(n, c, d));
                let want = match kind {
                    2 | 3 => {
                        let mut cells = Vec::new();
                        let mut done = Ok(());
                        for i in rows.clone() {
                            let r = i - rows.start;
                            let got = if kind == 2 {
                                let all = patterned(rows.len() * cols.len(), step as u32 + 1);
                                oracle.write_block(i..i + 1, cols.clone(), &all[r * cols.len()..(r + 1) * cols.len()])
                            } else {
                                oracle.read_block(i..i + 1, cols.clone()).map(|row| cells.extend(row))
                            };
                            if let Err(e) = got {
                                done = Err(e);
                                break;
                            }
                        }
                        let out = done.map(|_| cells);
                        format!("{:?}", out.map_err(|e| e.to_string()))
                    }
                    _ => layout_op(&mut oracle, n, step, op),
                };
                for (name, s) in &mut stores {
                    let got = layout_op(s, n, step, op);
                    proptest::prop_assert_eq!(&got, &want, "{} at step {}", name, step);
                    proptest::prop_assert_eq!(s.io_ops(), oracle.io_ops(), "{} at step {}", name, step);
                }
            }
            oracle.disarm_faults();
            for (name, s) in &mut stores {
                s.disarm_faults();
                proptest::prop_assert_eq!(s.read_block(0..n, 0..n).unwrap(), oracle.read_block(0..n, 0..n).unwrap(), "{}", name);
            }
        }
    }
}
