//! The storage layer: where the matrix's bytes live.
//!
//! [`Backing`] holds the `n × n` matrix in one flat RAM buffer or in
//! spill files. Either payload is laid out in square tiles of side `t`
//! (a [`Layout`]): tile `(I, J)` is contiguous and row-major inside, and
//! the tiles of tile-row `I` follow each other, so a tile-row is one
//! contiguous range. At `t = n` there is one tile and the payload is
//! plain row-major, the layout of RAM, of a fresh spill and of a
//! persisted file opened in place. Its `read` and `write` of a block of
//! rows × columns are the only code that turns a cell into a place, and
//! they charge nothing: fault plans, crash points, supervision and the
//! checksum registry all sit above them.

use super::{StorageBackend, DEFAULT_SHARD_BYTES, SDC_PANEL_ROWS};
use apsp_graph::{Dist, INF};
use std::fs::{File, OpenOptions};
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

#[cfg(unix)]
use std::os::unix::fs::FileExt;

/// Bytes per cell.
pub(super) const CELL: usize = std::mem::size_of::<Dist>();

/// The matrix's bytes.
pub(super) enum Backing {
    /// One flat row-major `n × n` buffer (Table III regime).
    Memory { cells: Vec<Dist>, n: usize },
    /// Positional I/O on one or more files (Table IV regime).
    Disk(DiskBacking),
}

/// Where each cell of an `n × n` matrix sits in a flat payload: square
/// tiles of side `tile` (`1..=n`, or 1 when `n` is 0; `n` is row-major).
#[derive(Clone, Copy, PartialEq, Eq)]
struct Layout {
    n: usize,
    tile: usize,
}

/// Consecutive shard files presenting one flat payload in `layout`.
/// Shard `k` holds payload bytes `[k·cap, (k+1)·cap)`, where `cap` is a
/// multiple of one tile row (`tile` cells). A contiguous run of the
/// payload is one `pread`/`pwrite`, plus one more per shard boundary it
/// crosses.
pub(super) struct DiskBacking {
    layout: Layout,
    shards: Vec<DiskShard>,
    /// Shard capacity in bytes (the last shard may hold less). Never
    /// zero.
    cap: u64,
    /// Byte offset of payload byte 0 within shard 0: zero for spill
    /// files, the header length for a persisted file opened in place.
    base: u64,
    /// The split threshold a spill was created with, so a re-layout
    /// splits the same way; `None` for a persisted file opened in place.
    shard_bytes: Option<u64>,
    /// Positional calls issued, for the tests that pin them.
    #[cfg(test)]
    calls: AtomicU64,
}

/// One file of a disk backing. A spill shard removes its file when it
/// drops; a persisted file opened in place has an empty `path` and
/// survives.
struct DiskShard {
    file: File,
    path: PathBuf,
}

impl Drop for DiskShard {
    fn drop(&mut self) {
        if !self.path.as_os_str().is_empty() {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

impl Backing {
    /// A fresh matrix: `INF` everywhere but a zero diagonal, the
    /// convention every algorithm writes over. A spill starts row-major
    /// and splits at `shard_bytes` (at least one row per file).
    pub(super) fn new(n: usize, backend: &StorageBackend) -> io::Result<Backing> {
        let disk = match backend {
            StorageBackend::Memory => {
                let mut cells = vec![INF; n * n];
                cells.iter_mut().step_by(n + 1).for_each(|d| *d = 0);
                return Ok(Backing::Memory { cells, n });
            }
            StorageBackend::Disk(dir) => {
                DiskBacking::spill(Layout::new(n, n), dir, DEFAULT_SHARD_BYTES)?
            }
            StorageBackend::DiskSharded { dir, shard_bytes } => {
                DiskBacking::spill(Layout::new(n, n), dir, *shard_bytes)?
            }
        };
        // One write per panel of SDC_PANEL_ROWS rows from one reused
        // buffer, so even a huge spill never needs n² RAM.
        let mut panel = vec![INF; SDC_PANEL_ROWS.min(n) * n];
        for first in (0..n).step_by(SDC_PANEL_ROWS) {
            let rows = first..(first + SDC_PANEL_ROWS).min(n);
            let cells = &mut panel[..rows.len() * n];
            cells.fill(INF);
            for (r, i) in rows.clone().enumerate() {
                cells[r * n + i] = 0;
            }
            disk.write(rows, 0..n, cast_bytes(cells))?;
        }
        Ok(Backing::Disk(disk))
    }

    /// A persisted row-major file opened in place: the `n × n` payload
    /// starts at byte `base`. The caller owns the file; dropping the
    /// backing leaves it.
    pub(super) fn opened(file: File, base: u64, n: usize) -> Backing {
        Backing::Disk(DiskBacking {
            layout: Layout::new(n, n),
            shards: vec![DiskShard {
                file,
                path: PathBuf::new(),
            }],
            cap: ((n * n * CELL) as u64).max(1),
            base,
            shard_bytes: None,
            #[cfg(test)]
            calls: AtomicU64::new(0),
        })
    }

    /// Whether the bytes live in files.
    pub(super) fn is_disk(&self) -> bool {
        matches!(self, Backing::Disk(_))
    }

    /// The directory holding this store's own spill files, if any.
    pub(super) fn spill_dir(&self) -> Option<&Path> {
        match self {
            Backing::Disk(d) => d.shards[0].path.parent(),
            Backing::Memory { .. } => None,
        }
    }

    /// Lay a spill out in tiles of `side` (clamped to `1..=n`). The
    /// matrix streams a tile-row at a time into a fresh spill family,
    /// then the old files go, so for that moment the disk holds both.
    /// A no-op on `Memory`, on a persisted file opened in place, and at
    /// the current side.
    pub(super) fn set_tile_side(&mut self, side: usize) -> io::Result<()> {
        let Backing::Disk(old) = self else {
            return Ok(());
        };
        let n = old.layout.n;
        let layout = Layout::new(n, side);
        let (Some(shard_bytes), Some(dir)) = (old.shard_bytes, old.shards[0].path.parent()) else {
            return Ok(());
        };
        if layout == old.layout {
            return Ok(());
        }
        let new = DiskBacking::spill(layout, dir, shard_bytes)?;
        let mut panel = vec![0u8; layout.tile * n * CELL];
        for first in (0..n).step_by(layout.tile) {
            let rows = first..(first + layout.tile).min(n);
            let bytes = &mut panel[..rows.len() * n * CELL];
            old.read(rows.clone(), 0..n, bytes)?;
            new.write(rows, 0..n, bytes)?;
        }
        #[cfg(test)]
        new.calls.fetch_add(old.calls(), Ordering::Relaxed);
        *old = new;
        Ok(())
    }

    /// Fill `buf` with the block `rows × cols`, row-major, or with the
    /// first `buf.len()` bytes of it: byte-sized, so an injected short
    /// read can stop mid-cell.
    pub(super) fn read(
        &self,
        rows: Range<usize>,
        cols: Range<usize>,
        buf: &mut [u8],
    ) -> io::Result<()> {
        match self {
            Backing::Memory { cells, n } => {
                let data = cast_bytes(cells);
                Layout::new(*n, *n).read(rows, cols, buf, |cell, dst| {
                    dst.copy_from_slice(&data[cell * CELL..cell * CELL + dst.len()]);
                    Ok(())
                })
            }
            Backing::Disk(d) => d.read(rows, cols, buf),
        }
    }

    /// Store `bytes` into the block `rows × cols`, or into its first
    /// `bytes.len()` bytes (see [`Backing::read`]).
    pub(super) fn write(
        &mut self,
        rows: Range<usize>,
        cols: Range<usize>,
        bytes: &[u8],
    ) -> io::Result<()> {
        match self {
            Backing::Memory { cells, n } => {
                let data = cast_bytes_mut(cells);
                Layout::new(*n, *n).write(rows, cols, bytes, |cell, src| {
                    data[cell * CELL..cell * CELL + src.len()].copy_from_slice(src);
                    Ok(())
                })
            }
            Backing::Disk(d) => d.write(rows, cols, bytes),
        }
    }

    /// Positional calls the disk backing has issued.
    #[cfg(test)]
    pub(super) fn calls(&self) -> u64 {
        match self {
            Backing::Disk(d) => d.calls(),
            Backing::Memory { .. } => 0,
        }
    }
}

impl Layout {
    /// `n × n` cells in tiles of `side`, clamped to `1..=n`.
    fn new(n: usize, side: usize) -> Layout {
        Layout {
            n,
            tile: side.clamp(1, n.max(1)),
        }
    }

    /// The contiguous payload runs behind the block `rows × cols`, in
    /// tile order: `f(cell offset, run rows, run cols)`, where the run
    /// holds that sub-block row-major. Rows that span their tile's whole
    /// width are one run per tile, and narrower ones one run per row, so
    /// a whole tile is one run and a full-width row range inside one
    /// tile-row is one run per tile column.
    fn for_each_run(
        &self,
        rows: Range<usize>,
        cols: Range<usize>,
        mut f: impl FnMut(usize, Range<usize>, Range<usize>) -> io::Result<()>,
    ) -> io::Result<()> {
        let (n, t) = (self.n, self.tile);
        let mut i = rows.start;
        while i < rows.end {
            let r0 = i / t * t;
            let h = t.min(n - r0);
            let i_end = rows.end.min(r0 + h);
            let mut j = cols.start;
            while j < cols.end {
                let c0 = j / t * t;
                let w = t.min(n - c0);
                let j_end = cols.end.min(c0 + w);
                let tile_at = r0 * n + c0 * h;
                if j == c0 && j_end == c0 + w {
                    f(tile_at + (i - r0) * w, i..i_end, j..j_end)?;
                } else {
                    for r in i..i_end {
                        f(tile_at + (r - r0) * w + (j - c0), r..r + 1, j..j_end)?;
                    }
                }
                j = j_end;
            }
            i = i_end;
        }
        Ok(())
    }

    /// Fill `buf` with the block `rows × cols` (see [`Backing::read`]),
    /// `fetch(cell, dst)` filling `dst` from the run at `cell`. A run
    /// whose rows sit side by side in `buf` is read straight into it; the
    /// rows of a tile inside a wider block go through one scratch buffer.
    fn read(
        &self,
        rows: Range<usize>,
        cols: Range<usize>,
        buf: &mut [u8],
        mut fetch: impl FnMut(usize, &mut [u8]) -> io::Result<()>,
    ) -> io::Result<()> {
        let width = cols.len() * CELL;
        if buf.is_empty() {
            return Ok(());
        }
        let whole = buf.len() / width;
        let (head, tail) = buf.split_at_mut(whole * width);
        let mut scratch = Vec::new();
        self.for_each_run(
            rows.start..rows.start + whole,
            cols.clone(),
            |at, rr, cc| {
                let run = rr.len() * cc.len() * CELL;
                let start = ((rr.start - rows.start) * cols.len() + cc.start - cols.start) * CELL;
                if cc == cols || rr.len() == 1 {
                    return fetch(at, &mut head[start..start + run]);
                }
                scratch.resize(run, 0);
                fetch(at, &mut scratch)?;
                for (k, src) in scratch.chunks_exact(cc.len() * CELL).enumerate() {
                    let to = start + k * width;
                    head[to..to + src.len()].copy_from_slice(src);
                }
                Ok(())
            },
        )?;
        self.for_each_prefix_run(rows.start + whole, cols, tail.len(), |at, piece| {
            fetch(at, &mut tail[piece])
        })
    }

    /// Store `bytes` into the block `rows × cols` (see
    /// [`Backing::write`] and [`Layout::read`]), `store(cell, src)`
    /// writing `src` to the run at `cell`.
    fn write(
        &self,
        rows: Range<usize>,
        cols: Range<usize>,
        bytes: &[u8],
        mut store: impl FnMut(usize, &[u8]) -> io::Result<()>,
    ) -> io::Result<()> {
        let width = cols.len() * CELL;
        if bytes.is_empty() {
            return Ok(());
        }
        let whole = bytes.len() / width;
        let (head, tail) = bytes.split_at(whole * width);
        let mut scratch = Vec::new();
        self.for_each_run(
            rows.start..rows.start + whole,
            cols.clone(),
            |at, rr, cc| {
                let run = rr.len() * cc.len() * CELL;
                let start = ((rr.start - rows.start) * cols.len() + cc.start - cols.start) * CELL;
                if cc == cols || rr.len() == 1 {
                    return store(at, &head[start..start + run]);
                }
                scratch.clear();
                for k in 0..rr.len() {
                    let from = start + k * width;
                    scratch.extend_from_slice(&head[from..from + cc.len() * CELL]);
                }
                store(at, &scratch)
            },
        )?;
        self.for_each_prefix_run(rows.start + whole, cols, tail.len(), |at, piece| {
            store(at, &tail[piece])
        })
    }

    /// The first `len` bytes of row `row`'s `cols`, as
    /// `f(cell offset, range within those bytes)` per run, in column
    /// order.
    fn for_each_prefix_run(
        &self,
        row: usize,
        cols: Range<usize>,
        len: usize,
        mut f: impl FnMut(usize, Range<usize>) -> io::Result<()>,
    ) -> io::Result<()> {
        if len == 0 {
            return Ok(());
        }
        self.for_each_run(row..row + 1, cols.clone(), |at, _, cc| {
            let start = (cc.start - cols.start) * CELL;
            if start < len {
                f(at, start..(start + cc.len() * CELL).min(len))?;
            }
            Ok(())
        })
    }
}

impl DiskBacking {
    /// Fresh spill files for a matrix in `layout`, in `dir`, created if
    /// missing. The first is `apsp-tiles-{pid}-{k}.bin`
    /// and shard `s > 0` appends `.s{s}`, so one store's family is
    /// recognizable as a unit. A name that is already taken, say by a
    /// file that a killed process with the same pid left behind, moves
    /// the whole family on to the next `k`. The store never opens,
    /// truncates or removes a file it did not create.
    fn spill(layout: Layout, dir: &Path, shard_bytes: u64) -> io::Result<DiskBacking> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        std::fs::create_dir_all(dir)?;
        let unit = (layout.tile * CELL) as u64;
        let cap = (shard_bytes.checked_div(unit).unwrap_or(1).max(1) * unit).max(1);
        let payload = (layout.n * layout.n * CELL) as u64;
        let num_shards = payload.div_ceil(cap).max(1);
        loop {
            let id = COUNTER.fetch_add(1, Ordering::Relaxed);
            let first = dir.join(format!("apsp-tiles-{}-{id}.bin", std::process::id()));
            let mut shards = Vec::with_capacity(num_shards as usize);
            let made = (0..num_shards).try_for_each(|s| -> io::Result<()> {
                let path = match s {
                    0 => first.clone(),
                    _ => PathBuf::from(format!("{}.s{s}", first.display())),
                };
                let file = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create_new(true)
                    .open(&path)?;
                // Owned from here: an error below drops it with its file.
                let shard = DiskShard { file, path };
                shard.file.set_len(payload.min((s + 1) * cap) - s * cap)?;
                shards.push(shard);
                Ok(())
            });
            match made {
                Ok(()) => {
                    return Ok(DiskBacking {
                        layout,
                        shards,
                        cap,
                        base: 0,
                        shard_bytes: Some(shard_bytes),
                        #[cfg(test)]
                        calls: AtomicU64::new(0),
                    })
                }
                // Dropping `shards` removes exactly the files this
                // attempt created.
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
    }

    #[cfg(test)]
    fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// See [`Backing::read`].
    fn read(&self, rows: Range<usize>, cols: Range<usize>, buf: &mut [u8]) -> io::Result<()> {
        self.layout
            .read(rows, cols, buf, |cell, dst| self.pread(cell, dst))
    }

    /// See [`Backing::write`].
    fn write(&self, rows: Range<usize>, cols: Range<usize>, bytes: &[u8]) -> io::Result<()> {
        self.layout
            .write(rows, cols, bytes, |cell, src| self.pwrite(cell, src))
    }

    fn pread(&self, cell: usize, buf: &mut [u8]) -> io::Result<()> {
        self.for_each_segment((cell * CELL) as u64, buf.len(), |file, off, range| {
            file.read_exact_at(&mut buf[range], off)
        })
    }

    fn pwrite(&self, cell: usize, bytes: &[u8]) -> io::Result<()> {
        self.for_each_segment((cell * CELL) as u64, bytes.len(), |file, off, range| {
            file.write_all_at(&bytes[range], off)
        })
    }

    /// Apply `f` to each `(file, file_offset, buf_range)` segment of the
    /// payload range `offset..offset + len`: one positional call each.
    fn for_each_segment<F>(&self, offset: u64, len: usize, mut f: F) -> io::Result<()>
    where
        F: FnMut(&File, u64, Range<usize>) -> io::Result<()>,
    {
        let mut pos = 0usize;
        while pos < len {
            let o = offset + pos as u64;
            let idx = (o / self.cap) as usize;
            let local = o % self.cap;
            let take = ((self.cap - local) as usize).min(len - pos);
            let file_off = if idx == 0 { self.base + local } else { local };
            #[cfg(test)]
            self.calls.fetch_add(1, Ordering::Relaxed);
            f(&self.shards[idx].file, file_off, pos..pos + take)?;
            pos += take;
        }
        Ok(())
    }
}

/// The bytes of a cell slice, in host order.
#[allow(unsafe_code)]
pub(super) fn cast_bytes(d: &[Dist]) -> &[u8] {
    // SAFETY: u32 has no padding or invalid bit patterns.
    unsafe { std::slice::from_raw_parts(d.as_ptr() as *const u8, std::mem::size_of_val(d)) }
}

/// The bytes of a cell slice, writable.
#[allow(unsafe_code)]
pub(super) fn cast_bytes_mut(d: &mut [Dist]) -> &mut [u8] {
    // SAFETY: as above; all byte patterns are valid u32s.
    unsafe { std::slice::from_raw_parts_mut(d.as_mut_ptr() as *mut u8, std::mem::size_of_val(d)) }
}
