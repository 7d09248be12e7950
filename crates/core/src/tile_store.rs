//! Host-side out-of-core result storage.
//!
//! The output distance matrix is orders of magnitude larger than the
//! input; for the paper's Table III graphs it fits in host RAM, for the
//! Table IV graphs it does not. [`TileStore`] abstracts both regimes:
//! the `Memory` backend holds one flat `n × n` buffer, the `Disk` backend
//! spills to one or more files addressed with positional I/O — the same
//! row-major layout either way. Spill files split at a configurable
//! byte threshold ([`DEFAULT_SHARD_BYTES`], 1 GiB, by default; see
//! [`StorageBackend::DiskSharded`]), row-aligned so a single row never
//! straddles two files, which keeps the hot row/panel paths one
//! `pread`/`pwrite` each while letting paper-scale matrices escape the
//! single-file sequential-I/O bottleneck.
//!
//! The store is three layers under one op path. `storage` knows where
//! bytes live, `inject` holds the faults, crash point and bit flips a
//! test arms, and `registry` holds the silent-corruption guard's
//! per-row checksums. Every public op checks its input, makes one
//! accounting call, does its storage I/O and then updates the registry.

mod inject;
mod registry;
mod storage;

pub use inject::{DiskFault, DiskFaultPlan};

use crate::error::CorruptionMark;
use crate::options::SdcGuardMode;
use crate::supervisor::Supervisor;
use apsp_cpu::ExecBackend;
use apsp_graph::Dist;
use inject::{Injection, Io};
use parking_lot::Mutex;
use registry::SdcRegistry;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use storage::{cast_bytes, cast_bytes_mut, Backing};

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
/// use. Row-aligned, so the effective shard size is the largest multiple
/// of the row width at or under this (one full row minimum).
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
    /// threshold in bytes (row-aligned, minimum one row per file).
    DiskSharded {
        /// Spill directory (created if missing).
        dir: PathBuf,
        /// Bytes per spill file before rolling over to the next shard.
        shard_bytes: u64,
    },
}

/// FNV-1a over `bytes`, continuing from `hash` (seed with
/// [`FNV_OFFSET_BASIS`]). Shared with the checkpoint manifest's
/// self-checksum so one implementation guards both layers.
pub(crate) fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The FNV-1a 64-bit offset basis — the seed for [`fnv1a`].
pub(crate) const FNV_OFFSET_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// The FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a chains [`fnv1a_lanes`] steps in lockstep. One chain waits a
/// multiply's latency per byte; independent chains overlap those waits.
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

/// FNV-1a of one row: the checksum the SDC registry records.
fn row_fnv(row: &[Dist]) -> u64 {
    fnv1a(cast_bytes(row), FNV_OFFSET_BASIS)
}

/// [`row_fnv`] of each of the `count` equal-width rows in `cells`, in
/// order, hashed LANES rows at a time.
fn row_fnvs(cells: &[Dist], count: usize) -> Vec<u64> {
    let width = cells.len().checked_div(count).unwrap_or(0);
    let mut out = Vec::with_capacity(count);
    for first in (0..count).step_by(LANES) {
        let k = LANES.min(count - first);
        let row = |l: usize| {
            if l < k {
                cast_bytes(&cells[(first + l) * width..(first + l + 1) * width])
            } else {
                &[]
            }
        };
        let hashes = fnv1a_lanes([FNV_OFFSET_BASIS; LANES], std::array::from_fn(row));
        out.extend_from_slice(&hashes[..k]);
    }
    out
}

/// FNV-1a per panel of `panel_rows` consecutive rows, fed one row at a
/// time; the last panel may be shorter. One chain per panel, so hashing
/// rows one by one equals hashing the panel's bytes at once. The
/// persisted footer, [`TileStore::panel_checksums`] and the service's
/// result cache all checksum through it.
pub(crate) struct PanelFnv {
    panel_rows: usize,
    rows: usize,
    hash: u64,
    sums: Vec<u64>,
}

impl PanelFnv {
    pub(crate) fn new(panel_rows: usize) -> PanelFnv {
        PanelFnv {
            panel_rows,
            rows: 0,
            hash: FNV_OFFSET_BASIS,
            sums: Vec::new(),
        }
    }

    pub(crate) fn push(&mut self, row: &[Dist]) {
        self.hash = fnv1a(cast_bytes(row), self.hash);
        self.rows += 1;
        if self.rows.is_multiple_of(self.panel_rows) {
            self.sums.push(self.hash);
            self.hash = FNV_OFFSET_BASIS;
        }
    }

    /// One checksum per panel, the ragged last one included.
    pub(crate) fn finish(mut self) -> Vec<u64> {
        if !self.rows.is_multiple_of(self.panel_rows) {
            self.sums.push(self.hash);
        }
        self.sums
    }
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
/// which telemetry row counter moves.
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
    /// A `Memory` pass over every row for [`TileStore::persist`]: a
    /// crash tick per row, and no telemetry.
    Bulk(usize),
}

/// An `n × n` row-major distance matrix in RAM or on disk.
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
    pub fn new(n: usize, backend: &StorageBackend) -> io::Result<Self> {
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
    /// cancellation token (a trip surfaces as a typed
    /// [`crate::ApspError::Cancelled`] through the store's error
    /// plumbing), and [`DiskFault::HangMicros`] faults charge their
    /// simulated stall to its disk-stall clock.
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
    fn account(&self, charge: Charge) -> io::Result<()> {
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
    /// registry at barriers and run end. A mismatch surfaces as a typed
    /// [`crate::ApspError::SilentCorruption`] through the store's error
    /// plumbing. Guard reads bypass fault plans, crash points,
    /// supervision ticks, and telemetry counters, so arming the guard
    /// never perturbs injected-fault ordinals or the simulated clock.
    pub fn set_sdc_guard(&mut self, mode: SdcGuardMode) -> io::Result<()> {
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
    pub fn verify_checksums(&self) -> io::Result<()> {
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
    pub fn sdc_rebaseline(&self, rows: Range<usize>) -> io::Result<()> {
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
    pub(crate) fn guard_read_row(&self, i: usize) -> io::Result<Vec<Dist>> {
        let mut row = vec![0; self.n];
        self.storage.read(i * self.n, cast_bytes_mut(&mut row))?;
        Ok(row)
    }

    /// The checksum of row `i` as stored, read unaccounted into `buf`.
    fn row_hash(&self, i: usize, buf: &mut [Dist]) -> io::Result<u64> {
        self.storage.read(i * self.n, cast_bytes_mut(buf))?;
        Ok(row_fnv(buf))
    }

    /// Hand `f` the checksum of each row in `rows` as stored, in order.
    /// Up to LANES consecutive rows are read unaccounted in one storage
    /// read and hashed together.
    fn stored_row_fnvs(
        &self,
        rows: impl IntoIterator<Item = usize>,
        mut f: impl FnMut(usize, u64) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut buf = vec![0; LANES * self.n];
        let mut rows = rows.into_iter().peekable();
        while let Some(first) = rows.next() {
            let mut k = 1;
            while k < LANES && rows.next_if_eq(&(first + k)).is_some() {
                k += 1;
            }
            let cells = &mut buf[..k * self.n];
            self.storage.read(first * self.n, cast_bytes_mut(cells))?;
            for (r, hash) in row_fnvs(cells, k).into_iter().enumerate() {
                f(first + r, hash)?;
            }
        }
        Ok(())
    }

    /// The FNV-1a of each of up to LANES checksum panels as stored, in
    /// lockstep: each step reads the next row of every panel unaccounted
    /// and feeds it to that panel's chain. A lane without a panel, or
    /// past its ragged panel's last row, takes no bytes.
    fn stored_panel_fnvs(&self, panels: &[usize]) -> io::Result<[u64; LANES]> {
        let n = self.n;
        let mut buf = vec![0; LANES * n];
        let mut hash = [FNV_OFFSET_BASIS; LANES];
        for r in 0..SDC_PANEL_ROWS {
            let mut len = [0; LANES];
            for (l, &p) in panels.iter().enumerate() {
                let i = p * SDC_PANEL_ROWS + r;
                if i < n {
                    let lane = &mut buf[l * n..(l + 1) * n];
                    self.storage.read(i * n, cast_bytes_mut(lane))?;
                    len[l] = n;
                }
            }
            hash = fnv1a_lanes(
                hash,
                std::array::from_fn(|l| cast_bytes(&buf[l * n..l * n + len[l]])),
            );
        }
        Ok(hash)
    }

    /// Storage write of `cells` from cell `cell`, as one positional op
    /// of the armed fault plan.
    fn put(&mut self, cell: usize, cells: &[Dist]) -> io::Result<()> {
        let (storage, bytes) = (&mut self.storage, cast_bytes(cells));
        let sup = self.supervision.as_ref();
        self.inject.positional(Io::Write, bytes.len(), sup, |k| {
            storage.write(cell, &bytes[..k])
        })
    }

    /// Storage read into `buf` (see [`Self::put`]).
    fn fetch(&self, cell: usize, buf: &mut [Dist]) -> io::Result<()> {
        let bytes = cast_bytes_mut(buf);
        let sup = self.supervision.as_ref();
        self.inject.positional(Io::Read, bytes.len(), sup, |k| {
            self.storage.read(cell, &mut bytes[..k])
        })
    }

    /// Before a partial write dirties a clean row, verify the row's
    /// *current* content against the registry. Without this, the
    /// sequence "flip fires on a clean row, a later partial write marks
    /// it dirty, the barrier sweep re-hashes it" would absorb the
    /// corruption as a legitimate change. Costs one unaccounted
    /// full-row read per clean→dirty transition (at most one per row
    /// per barrier interval).
    fn check_before_dirty(&self, rows: Range<usize>) -> io::Result<()> {
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
    fn written(&mut self, rows: Range<usize>, full: Option<&[Dist]>) -> io::Result<()> {
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
        let row_bits = (self.n * std::mem::size_of::<Dist>() * 8) as u64;
        for (row, bit) in self.inject.fired_flips(rows) {
            let mut buf = vec![0; self.n];
            let hash = self.row_hash(row, &mut buf)?;
            if let Some(sdc) = &self.sdc {
                sdc.lock().set(row, hash);
            }
            if row_bits > 0 {
                let b = (bit % row_bits) as usize;
                cast_bytes_mut(&mut buf)[b / 8] ^= 1 << (b % 8);
                self.storage.write(row * self.n, cast_bytes(&buf))?;
            }
        }
        Ok(())
    }

    /// First-read verification of persisted panel checksums for stores
    /// opened from a footer-carrying file: every not-yet-verified panel
    /// overlapping `rows` is hashed, LANES panels in lockstep, and
    /// checked in panel order, surfacing a typed
    /// [`crate::ApspError::Corruption`] on mismatch.
    fn open_verify_panels(&self, rows: Range<usize>) -> io::Result<()> {
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
        for group in todo.chunks(LANES) {
            let panels: Vec<usize> = group.iter().map(|&(p, _)| p).collect();
            let sums = self.stored_panel_fnvs(&panels)?;
            for (&(p, expect), sum) in group.iter().zip(sums) {
                if sum != expect {
                    let (start, end) = (p * SDC_PANEL_ROWS, ((p + 1) * SDC_PANEL_ROWS).min(self.n));
                    return Err(io::Error::other(CorruptionMark {
                        detail: format!(
                            "persisted matrix panel {p} (rows {start}..{end}) fails its recorded \
                             checksum on first read"
                        ),
                    }));
                }
                ov.pending.lock()[p] = None;
            }
        }
        Ok(())
    }

    /// The read path behind [`Self::read_block`], [`Self::read_row`] and
    /// [`Self::get`], once the op is checked and charged: first-read
    /// verification, one positional read per row, a registry check of
    /// full-width rows at zero extra I/O (the barrier sweep covers
    /// partial reads), then the rows are marked consumed.
    fn read_cells(&self, rows: Range<usize>, cols: Range<usize>) -> io::Result<Vec<Dist>> {
        self.open_verify_panels(rows.clone())?;
        let width = cols.len();
        let mut out = vec![0; rows.len() * width];
        for (r, i) in rows.clone().enumerate() {
            self.fetch(
                i * self.n + cols.start,
                &mut out[r * width..(r + 1) * width],
            )?;
        }
        if let Some(sdc) = &self.sdc {
            let reg = &mut *sdc.lock();
            if width == self.n {
                for (i, hash) in rows.clone().zip(row_fnvs(&out, rows.len())) {
                    reg.check(i, hash, self.sdc_round())?;
                }
            }
            reg.mark_consumed(rows);
        }
        Ok(out)
    }

    /// Overwrite full row `i`.
    pub fn write_row(&mut self, i: usize, row: &[Dist]) -> io::Result<()> {
        check_input(row.len() == self.n, "row width mismatch")?;
        check_input(i < self.n, "row index out of range")?;
        self.account(Charge::Write(1))?;
        self.put(i * self.n, row)?;
        self.written(i..i + 1, Some(row))
    }

    /// Overwrite `rows.len() / n` consecutive rows starting at `row_start`.
    pub fn write_rows(&mut self, row_start: usize, rows: &[Dist]) -> io::Result<()> {
        let count = rows.len().checked_div(self.n).unwrap_or(0);
        check_input(count * self.n == rows.len(), "partial rows in write_rows")?;
        check_input(
            row_start
                .checked_add(count)
                .is_some_and(|end| end <= self.n),
            "rows out of range",
        )?;
        self.account(Charge::WriteRows(count))?;
        self.put(row_start * self.n, rows)?;
        self.written(row_start..row_start + count, Some(rows))
    }

    /// Overwrite the rectangular block `row_range × col_range` with
    /// `data` (row-major, dimensions matching the ranges).
    pub fn write_block(
        &mut self,
        row_range: Range<usize>,
        col_range: Range<usize>,
        data: &[Dist],
    ) -> io::Result<()> {
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
        for (r, i) in row_range.clone().enumerate() {
            self.put(
                i * self.n + col_range.start,
                &data[r * width..(r + 1) * width],
            )?;
        }
        // A full-width block is consecutive whole rows: the registry
        // hashes the data in hand instead of re-reading storage.
        self.written(row_range, full.then_some(data))
    }

    /// Read the rectangular block `row_range × col_range` (row-major).
    pub fn read_block(
        &self,
        row_range: Range<usize>,
        col_range: Range<usize>,
    ) -> io::Result<Vec<Dist>> {
        check_input(
            self.in_range(&row_range) && self.in_range(&col_range),
            "block out of range",
        )?;
        self.account(Charge::Read(row_range.len()))?;
        self.read_cells(row_range, col_range)
    }

    /// Read full row `i`.
    pub fn read_row(&self, i: usize) -> io::Result<Vec<Dist>> {
        check_input(i < self.n, "row index out of range")?;
        self.account(Charge::Read(1))?;
        self.read_cells(i..i + 1, 0..self.n)
    }

    /// Read one element — convenience for spot checks; row-granular I/O
    /// for bulk access.
    pub fn get(&self, i: usize, j: usize) -> io::Result<Dist> {
        check_input(i < self.n && j < self.n, "cell out of range")?;
        self.account(Charge::Read(1))?;
        Ok(self.read_cells(i..i + 1, j..j + 1)?[0])
    }

    /// Hand every row to `f` in order, for [`Self::persist`] and
    /// [`Self::to_dist_matrix`]. This is the one place outside the
    /// storage layer that matches on the backing, because the two
    /// account differently here and `accounting_is_pinned_per_op` pins
    /// both: a `Disk` store reads LANES rows per [`Self::read_block`],
    /// accounted and checked, while a `Memory` store copies its rows out
    /// unaccounted, after one [`Charge::Bulk`] when `bulk` is set.
    fn export_rows(
        &self,
        bulk: bool,
        mut f: impl FnMut(&[Dist]) -> io::Result<()>,
    ) -> io::Result<()> {
        match &self.storage {
            Backing::Disk(_) => {
                for first in (0..self.n).step_by(LANES) {
                    let rows = first..(first + LANES).min(self.n);
                    for row in self.read_block(rows, 0..self.n)?.chunks_exact(self.n) {
                        f(row)?;
                    }
                }
            }
            Backing::Memory(_) => {
                if bulk {
                    self.account(Charge::Bulk(self.n))?;
                }
                let mut buf = vec![0; self.n];
                for i in 0..self.n {
                    self.storage.read(i * self.n, cast_bytes_mut(&mut buf))?;
                    f(&buf)?;
                }
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
    /// The write is **atomic**: data lands in a temporary sibling file,
    /// is `sync_all`ed, and only then renamed over `path` — a crash or
    /// `ENOSPC` mid-persist can never leave a torn file at `path`
    /// (either the old content or the new content is there, whole).
    ///
    /// A `Disk`-backed store refuses to persist into its own spill
    /// directory: the target could collide with (or be cleaned up
    /// alongside) live spill files, destroying the matrix it was meant
    /// to save.
    pub fn persist<P: AsRef<Path>>(&self, path: P) -> io::Result<Vec<u64>> {
        let path = path.as_ref();
        if let Some(own_dir) = self.storage.spill_dir() {
            if same_dir(own_dir, parent_dir(path)) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "refusing to persist into the store's own spill directory {}",
                        own_dir.display()
                    ),
                ));
            }
        }
        let file_name = path.file_name().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "persist target has no file name",
            )
        })?;
        let tmp = parent_dir(path).join(format!(
            ".{}.tmp.{}",
            file_name.to_string_lossy(),
            std::process::id()
        ));
        let result = (|| -> io::Result<Vec<u64>> {
            let mut out = io::BufWriter::new(
                OpenOptions::new()
                    .write(true)
                    .create(true)
                    .truncate(true)
                    .open(&tmp)?,
            );
            out.write_all(&PERSIST_MAGIC.to_le_bytes())?;
            out.write_all(&(self.n as u64).to_le_bytes())?;
            // Per-panel checksum footer: first reads through `open`
            // verify each panel against it, so at-rest damage to the
            // file surfaces typed instead of as wrong distances.
            let mut footer = PanelFnv::new(SDC_PANEL_ROWS);
            self.export_rows(true, |row| {
                footer.push(row);
                out.write_all(cast_bytes(row))
            })?;
            let footer = footer.finish();
            out.write_all(&FOOTER_MAGIC.to_le_bytes())?;
            out.write_all(&(footer.len() as u64).to_le_bytes())?;
            for h in &footer {
                out.write_all(&h.to_le_bytes())?;
            }
            out.into_inner().map_err(|e| e.into_error())?.sync_all()?;
            std::fs::rename(&tmp, path)?;
            Ok(footer)
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    /// The read-back check of a checkpoint commit, on a store
    /// [`Self::open`]ed from the file [`Self::persist`] just wrote:
    /// the file must record `footer`, the checksums `persist` returned,
    /// and every panel must hash to its entry. One pass over the payload
    /// verifies LANES panels in lockstep; a mismatch is a typed
    /// [`crate::ApspError::Corruption`] naming the first failing panel.
    pub(crate) fn verify_persisted(&self, footer: &[u64]) -> io::Result<()> {
        let recorded = self
            .open_verify
            .as_ref()
            .map_or_else(Vec::new, |ov| ov.pending.lock().clone());
        if !recorded
            .iter()
            .copied()
            .eq(footer.iter().copied().map(Some))
        {
            return Err(io::Error::other(CorruptionMark {
                detail: "persisted matrix does not record the checksum footer its writer \
                         computed"
                    .into(),
            }));
        }
        self.open_verify_panels(0..self.n)
    }

    /// FNV-1a checksum of each consecutive panel of `panel_rows` rows
    /// (the last panel may be shorter), read row by row through
    /// [`Self::read_row`]. On a `Disk` backing the checksums therefore
    /// attest to what is actually on disk, not what was last handed to
    /// `write_*`.
    pub fn panel_checksums(&self, panel_rows: usize) -> io::Result<Vec<u64>> {
        check_input(panel_rows >= 1, "panel_rows must be positive")?;
        let mut sums = PanelFnv::new(panel_rows);
        for i in 0..self.n {
            sums.push(&self.read_row(i)?);
        }
        Ok(sums.finish())
    }

    /// Open a previously [`TileStore::persist`]ed matrix read-write in
    /// place (the file is *not* deleted on drop — the caller owns it).
    ///
    /// The persisted header (magic + dimension) is validated against
    /// the requested `n`, so a file persisted at a different dimension
    /// is rejected even when its byte length happens to match.
    pub fn open<P: AsRef<Path>>(path: P, n: usize) -> io::Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let actual = file.metadata()?.len();
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
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
        let mut store = Self::with_storage(n, Backing::opened(file, PERSIST_HEADER_BYTES, payload));
        store.open_verify = open_verify;
        Ok(store)
    }

    /// Materialize the whole matrix (tests and small-n tooling only).
    pub fn to_dist_matrix(&self) -> io::Result<apsp_cpu::DistMatrix> {
        // The materialized matrix is the run's final answer: sweep the
        // guard registry first so at-rest damage never leaves the store.
        self.verify_checksums()?;
        let mut data = Vec::with_capacity(self.n * self.n);
        self.export_rows(false, |row| {
            data.extend_from_slice(row);
            Ok(())
        })?;
        Ok(apsp_cpu::DistMatrix::from_raw(self.n, data))
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
fn check_input(ok: bool, msg: &str) -> io::Result<()> {
    if ok {
        Ok(())
    } else {
        Err(io::Error::new(io::ErrorKind::InvalidInput, msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_graph::INF;

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
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("5×5"), "{err}");
        // A file without the magic is rejected too, at any length.
        let raw = vec![0u8; PERSIST_HEADER_BYTES as usize + 4 * 4 * 4];
        std::fs::write(&path, &raw).unwrap();
        let err = TileStore::open(&path, 4).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
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
    fn assert_rejected<T: std::fmt::Debug>(s: &TileStore, r: io::Result<T>) {
        assert_eq!(r.unwrap_err().kind(), io::ErrorKind::InvalidInput);
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
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
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
        assert_eq!(err.raw_os_error(), Some(inject::ENOSPC_ERRNO));
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
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
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
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
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
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
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
            let err = s.read_row(2).unwrap_err();
            let typed = crate::ApspError::from(err);
            match typed {
                crate::ApspError::SilentCorruption { panel, round, .. } => {
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
            let err = s.verify_checksums().unwrap_err();
            match crate::ApspError::from(err) {
                crate::ApspError::SilentCorruption { panel, .. } => assert_eq!(panel, 0),
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
        let err = damaged.read_row(3).unwrap_err();
        match crate::ApspError::from(err) {
            crate::ApspError::Corruption { detail } => {
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
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
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
    /// The table pins the three counting rules. Fault-plan ordinals
    /// count one positional op per logical Disk call. Crash ticks are
    /// row-granular, but `write_rows` counts 1. Bit flips count
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
        ];
        for (name, backend) in backings {
            let mut s = TileStore::new(n, &backend).unwrap();
            let tel = Telemetry::enabled();
            s.arm_crash(u64::MAX);
            s.arm_faults(DiskFaultPlan::default());
            s.set_sdc_guard(SdcGuardMode::Checksum).unwrap();
            s.set_supervision(Supervisor::with_telemetry(
                &SupervisionOptions::default(),
                0.0,
                tel.clone(),
            ));
            s.set_exec_backend(apsp_cpu::ExecBackend::Parallel { threads: Some(1) });
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

    #[test]
    fn lane_row_hashes_equal_the_serial_hash() {
        for width in [0, 1, 5, 768] {
            for count in 0..=9 {
                let cells = patterned(width * count, width as u32);
                let serial: Vec<u64> = (0..count)
                    .map(|r| row_fnv(&cells[r * width..(r + 1) * width]))
                    .collect();
                assert_eq!(row_fnvs(&cells, count), serial, "{count} rows of {width}");
            }
        }
        // Lanes of unequal length, empty ones included, each continue
        // their own chain.
        let bytes = patterned(64, 7);
        let bytes = cast_bytes(&bytes);
        let lanes = [&bytes[..0], &bytes[..9], &bytes[3..200], &bytes[..9]];
        let seeds = [1, 2, 3, FNV_OFFSET_BASIS];
        let want: Vec<u64> = (0..LANES).map(|l| fnv1a(lanes[l], seeds[l])).collect();
        assert_eq!(fnv1a_lanes(seeds, lanes).to_vec(), want);
    }

    /// Every footer `PanelFnv` computes passes the read-back check: full
    /// and partial lane groups, with and without a ragged last panel.
    #[test]
    fn read_back_accepts_the_panel_fnv_footer() {
        let out = tmp_dir().join("read_back_sizes");
        std::fs::create_dir_all(&out).unwrap();
        let target = out.join("m.bin");
        for n in [1, 63, 64, 65, 255, 256, 257, 300] {
            let mut s = TileStore::new(n, &StorageBackend::Memory).unwrap();
            let cells = patterned(n * n, n as u32);
            s.write_rows(0, &cells).unwrap();
            let mut want = PanelFnv::new(SDC_PANEL_ROWS);
            cells.chunks_exact(n).for_each(|row| want.push(row));
            let footer = s.persist(&target).unwrap();
            assert_eq!(footer, want.finish(), "n = {n}");
            let reopened = TileStore::open(&target, n).unwrap();
            reopened.verify_persisted(&footer).unwrap();
            // A footer other than the file's own is refused.
            let mut other = footer.clone();
            other[0] ^= 1;
            let reopened = TileStore::open(&target, n).unwrap();
            assert!(reopened.verify_persisted(&other).is_err(), "n = {n}");
        }
        std::fs::remove_file(&target).unwrap();
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
                        match crate::ApspError::from(err) {
                            crate::ApspError::SilentCorruption {
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
}
