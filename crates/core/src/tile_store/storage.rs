//! The storage layer: where the matrix's bytes live.
//!
//! [`Backing`] holds the row-major `n × n` matrix in one flat RAM buffer
//! or in row-aligned spill files. Its `read` and `write` are the only code
//! that turns a cell index into a place, and they charge nothing: fault
//! plans, crash points, supervision and the checksum registry all sit
//! above them.

use super::{StorageBackend, DEFAULT_SHARD_BYTES};
use apsp_graph::{Dist, INF};
use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

#[cfg(unix)]
use std::os::unix::fs::FileExt;

/// Bytes per cell.
const CELL: usize = std::mem::size_of::<Dist>();

/// The matrix's bytes.
pub(super) enum Backing {
    /// One flat `n × n` buffer (Table III regime).
    Memory(Vec<Dist>),
    /// Positional I/O on one or more files (Table IV regime).
    Disk(DiskBacking),
}

/// Consecutive row-aligned shard files presenting one flat payload.
/// Shard `k` holds payload bytes `[k·cap, (k+1)·cap)`. Because `cap` is
/// a multiple of the row width, a single row is always one
/// `pread`/`pwrite`, and only multi-row calls ever split across files.
pub(super) struct DiskBacking {
    shards: Vec<DiskShard>,
    /// Shard capacity in bytes (row-aligned; the last shard may hold
    /// less). Never zero.
    cap: u64,
    /// Byte offset of payload byte 0 within shard 0: zero for spill
    /// files, the header length for a persisted file opened in place.
    base: u64,
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
    /// convention every algorithm writes over. Spill files split at
    /// `shard_bytes` (row-aligned, at least one row per file).
    pub(super) fn new(n: usize, backend: &StorageBackend) -> io::Result<Backing> {
        let mut backing = match backend {
            StorageBackend::Memory => Backing::Memory(vec![0; n * n]),
            StorageBackend::Disk(dir) => {
                Backing::Disk(DiskBacking::spill(n, dir, DEFAULT_SHARD_BYTES)?)
            }
            StorageBackend::DiskSharded { dir, shard_bytes } => {
                Backing::Disk(DiskBacking::spill(n, dir, *shard_bytes)?)
            }
        };
        // Every row is written once, a row at a time, so even a huge
        // spill never needs n² RAM.
        let mut row = vec![INF; n];
        for i in 0..n {
            row[i] = 0;
            backing.write(i * n, cast_bytes(&row))?;
            row[i] = INF;
        }
        Ok(backing)
    }

    /// A persisted file opened in place: `payload` bytes starting at
    /// byte `base`. The caller owns the file; dropping the backing
    /// leaves it.
    pub(super) fn opened(file: File, base: u64, payload: u64) -> Backing {
        Backing::Disk(DiskBacking {
            shards: vec![DiskShard {
                file,
                path: PathBuf::new(),
            }],
            cap: payload.max(1),
            base,
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
            Backing::Memory(_) => None,
        }
    }

    /// Fill `buf` with the bytes that start at cell `cell`. Byte-sized,
    /// so an injected short read can stop mid-cell.
    pub(super) fn read(&self, cell: usize, buf: &mut [u8]) -> io::Result<()> {
        let at = cell * CELL;
        match self {
            Backing::Memory(data) => {
                buf.copy_from_slice(&cast_bytes(data)[at..at + buf.len()]);
                Ok(())
            }
            Backing::Disk(d) => d.for_each_segment(at as u64, buf.len(), |file, off, range| {
                file.read_exact_at(&mut buf[range], off)
            }),
        }
    }

    /// Store `bytes` starting at cell `cell` (see [`Backing::read`]).
    pub(super) fn write(&mut self, cell: usize, bytes: &[u8]) -> io::Result<()> {
        let at = cell * CELL;
        match self {
            Backing::Memory(data) => {
                cast_bytes_mut(data)[at..at + bytes.len()].copy_from_slice(bytes);
                Ok(())
            }
            Backing::Disk(d) => d.for_each_segment(at as u64, bytes.len(), |file, off, range| {
                file.write_all_at(&bytes[range], off)
            }),
        }
    }
}

impl DiskBacking {
    /// Fresh spill files for an `n × n` matrix in `dir`, created if
    /// missing. The first is `apsp-tiles-{pid}-{k}.bin` and shard `s > 0`
    /// appends `.s{s}`, so one store's family is recognizable as a unit.
    /// A name that is already taken, say by a file that a killed process
    /// with the same pid left behind, moves the whole family on to the
    /// next `k`. The store never opens, truncates or removes a file it
    /// did not create.
    fn spill(n: usize, dir: &Path, shard_bytes: u64) -> io::Result<DiskBacking> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        std::fs::create_dir_all(dir)?;
        let row_bytes = (n * CELL) as u64;
        let rows_per_shard = shard_bytes.checked_div(row_bytes).unwrap_or(1).max(1);
        let num_shards = (n as u64).div_ceil(rows_per_shard).max(1);
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
                let rows_here = (n as u64).min((s + 1) * rows_per_shard) - s * rows_per_shard;
                shard.file.set_len(rows_here * row_bytes)?;
                shards.push(shard);
                Ok(())
            });
            match made {
                Ok(()) => {
                    return Ok(DiskBacking {
                        shards,
                        cap: (rows_per_shard * row_bytes).max(1),
                        base: 0,
                    })
                }
                // Dropping `shards` removes exactly the files this
                // attempt created.
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Apply `f` to each `(file, file_offset, buf_range)` segment of the
    /// payload range `offset..offset + len`.
    fn for_each_segment<F>(&self, offset: u64, len: usize, mut f: F) -> io::Result<()>
    where
        F: FnMut(&File, u64, std::ops::Range<usize>) -> io::Result<()>,
    {
        let mut pos = 0usize;
        while pos < len {
            let o = offset + pos as u64;
            let idx = (o / self.cap) as usize;
            let local = o % self.cap;
            let take = ((self.cap - local) as usize).min(len - pos);
            let file_off = if idx == 0 { self.base + local } else { local };
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
