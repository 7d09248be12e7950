//! The injection layer: damage a test can arm a store with.
//!
//! [`Injection`] holds a [`DiskFaultPlan`], a crash point and bit flips.
//! Each keeps its own counting rule, and each is inert until armed:
//!
//! * fault-plan ordinals count one op per row of a block access and one
//!   per `write_row`, `write_rows` or `get` call, however many storage
//!   calls the op becomes (see [`Injection::positional_rows`]);
//! * crash ticks count row-granular ops, except that one contiguous
//!   `write_rows` counts 1;
//! * bit flips count row-granular writes.

use crate::supervisor::Supervisor;
use std::io;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// `ENOSPC` — the errno a full filesystem raises on write.
pub(super) const ENOSPC_ERRNO: i32 = 28;

/// One injectable disk-I/O fault (see [`DiskFaultPlan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// A positional write persists only the first half of its bytes,
    /// then fails with `ErrorKind::WriteZero` — the dangerous case where
    /// the store is already partially mutated when the error surfaces.
    ShortWrite,
    /// A positional read fills only the first half of its buffer, then
    /// fails with `ErrorKind::UnexpectedEof`.
    ShortRead,
    /// A positional write fails up front with the OS `ENOSPC` error
    /// (filesystem full); nothing is written.
    Enospc,
    /// The operation succeeds but stalls for this many microseconds
    /// first — a degraded spindle/network mount, not a failure.
    LatencyMicros(u64),
    /// The operation succeeds but a *simulated* hang of this many
    /// microseconds is charged to the attached [`Supervisor`]'s
    /// disk-stall clock (see [`super::TileStore::set_supervision`]) — a
    /// disk that goes slow instead of failing. Unlike
    /// [`DiskFault::LatencyMicros`] no host thread actually sleeps, so
    /// hangs of simulated minutes stay test-fast and deterministic;
    /// without a supervisor attached the fault is unobservable by
    /// design.
    HangMicros(u64),
}

/// A deterministic schedule of disk faults, addressed by positional-I/O
/// ordinal: the store counts every positional write and read it issues
/// (a block write of `r` rows is `r` write ops) and fires the fault
/// whose ordinal matches. Ordinals are 0-based from the moment the plan
/// is armed. Plans only affect `Disk`-backed stores; arming one on a
/// memory store is a no-op.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiskFaultPlan {
    /// `(write-op ordinal, fault)` pairs. `ShortRead` entries here are
    /// ignored (wrong direction); keep entries direction-appropriate.
    pub write_faults: Vec<(u64, DiskFault)>,
    /// `(read-op ordinal, fault)` pairs. `ShortWrite`/`Enospc` entries
    /// here are ignored.
    pub read_faults: Vec<(u64, DiskFault)>,
}

/// An armed plan and the positional ops issued since it was armed.
#[derive(Debug)]
struct FaultState {
    plan: DiskFaultPlan,
    write_ops: AtomicU64,
    read_ops: AtomicU64,
}

impl FaultState {
    /// The ordinal counter and the plan entries of `dir`.
    fn direction(&self, dir: Io) -> (&AtomicU64, &[(u64, DiskFault)]) {
        match dir {
            Io::Write => (&self.write_ops, &self.plan.write_faults),
            Io::Read => (&self.read_ops, &self.plan.read_faults),
        }
    }
}

/// The direction of one positional op.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum Io {
    Write,
    Read,
}

/// Everything a store can be armed with. `Default` arms nothing.
#[derive(Debug, Default)]
pub(super) struct Injection {
    faults: Option<FaultState>,
    /// The crash budget and the ticks counted against it. Once a tick
    /// overruns the budget the count stays past it, so every later tick
    /// fails too.
    crash: Option<(u64, AtomicU64)>,
    /// `(row writes left, bit)` per armed flip.
    pub(super) flips: Vec<(u64, u64)>,
}

impl Injection {
    /// Arm `plan` with its ordinals at zero, or disarm with `None`.
    pub(super) fn arm_faults(&mut self, plan: Option<DiskFaultPlan>) {
        self.faults = plan.map(|plan| FaultState {
            plan,
            write_ops: AtomicU64::new(0),
            read_ops: AtomicU64::new(0),
        });
    }

    /// `(write, read)` positional ops since the plan was armed.
    pub(super) fn io_ops(&self) -> (u64, u64) {
        self.faults.as_ref().map_or((0, 0), |f| {
            (
                f.write_ops.load(Ordering::Relaxed),
                f.read_ops.load(Ordering::Relaxed),
            )
        })
    }

    /// Arm a crash point after `after_ops` ticks, or disarm with `None`.
    pub(super) fn arm_crash(&mut self, after_ops: Option<u64>) {
        self.crash = after_ops.map(|after| (after, AtomicU64::new(0)));
    }

    pub(super) fn crash_ops(&self) -> u64 {
        self.crash
            .as_ref()
            .map_or(0, |(_, ticks)| ticks.load(Ordering::Relaxed))
    }

    /// Count `ops` crash ticks, failing once the budget is exhausted
    /// (and forever after).
    pub(super) fn crash_tick(&self, ops: u64) -> io::Result<()> {
        let Some((after_ops, ticks)) = &self.crash else {
            return Ok(());
        };
        let before = ticks.fetch_add(ops, Ordering::Relaxed);
        if before.saturating_add(ops) > *after_ops {
            return Err(io::Error::other(format!(
                "injected crash after {after_ops} store ops: process terminated"
            )));
        }
        Ok(())
    }

    /// Count a write of `rows` against the armed flips and return the
    /// `(row, bit)` of each flip whose budget it exhausts.
    pub(super) fn fired_flips(&mut self, rows: std::ops::Range<usize>) -> Vec<(usize, u64)> {
        let count = rows.len() as u64;
        let mut fired = Vec::new();
        if count > 0 {
            self.flips.retain_mut(|(left, bit)| {
                if *left >= count {
                    *left -= count;
                    true
                } else {
                    fired.push((rows.start + *left as usize, *bit));
                    false
                }
            });
        }
        fired
    }

    /// `rows` positional ops of `row_len` bytes each, one ordinal per
    /// row, coalesced into as few `run` calls as the armed plan allows:
    /// `run(a..b, len)` performs the first `len` bytes of rows `a..b`
    /// (relative to the op). Rows up to the next armed ordinal go in one
    /// call, and the row an entry names runs alone through
    /// [`Injection::positional`], so every fault fires on the row and
    /// with the bytes it did when each row was its own call, and an
    /// error stops the op with the ordinals of the rows after it
    /// unspent. A real I/O error inside a coalesced call spends the
    /// whole call's ordinals.
    pub(super) fn positional_rows(
        &self,
        dir: Io,
        rows: usize,
        row_len: usize,
        sup: Option<&Supervisor>,
        mut run: impl FnMut(Range<usize>, usize) -> io::Result<()>,
    ) -> io::Result<()> {
        let Some(state) = &self.faults else {
            return run(0..rows, rows * row_len);
        };
        if rows == 1 {
            return self.positional(dir, row_len, sup, |k| run(0..1, k));
        }
        let (ops, faults) = state.direction(dir);
        let mut r = 0;
        while r < rows {
            let left = (rows - r) as u64;
            let next = ops.load(Ordering::Relaxed);
            let clean = faults
                .iter()
                .map(|&(at, _)| at.wrapping_sub(next))
                .filter(|&d| d < left)
                .min()
                .unwrap_or(left) as usize;
            if clean > 0 {
                ops.fetch_add(clean as u64, Ordering::Relaxed);
                run(r..r + clean, clean * row_len)?;
                r += clean;
            }
            if r < rows {
                self.positional(dir, row_len, sup, |k| run(r..r + 1, k))?;
                r += 1;
            }
        }
        Ok(())
    }

    /// One positional op of `len` bytes, with the armed plan's fault for
    /// its ordinal applied; `run(k)` performs the op's first `k` bytes.
    /// A call spanning shard files is still one ordinal, so plans replay
    /// identically at every shard threshold. A short op persists or
    /// fills the first half of the logical buffer, wherever its bytes
    /// land across shards. A [`DiskFault::HangMicros`] succeeds but
    /// charges `sup`'s io-stall clock; no host thread sleeps. Faults of
    /// the other direction are ignored.
    pub(super) fn positional(
        &self,
        dir: Io,
        len: usize,
        sup: Option<&Supervisor>,
        run: impl FnOnce(usize) -> io::Result<()>,
    ) -> io::Result<()> {
        let Some(state) = &self.faults else {
            return run(len);
        };
        let (ops, faults) = state.direction(dir);
        let op = ops.fetch_add(1, Ordering::Relaxed);
        match (dir, faults.iter().find(|(at, _)| *at == op).map(|f| f.1)) {
            (Io::Write, Some(DiskFault::Enospc)) => Err(io::Error::from_raw_os_error(ENOSPC_ERRNO)),
            (Io::Write, Some(DiskFault::ShortWrite)) | (Io::Read, Some(DiskFault::ShortRead)) => {
                let half = len / 2;
                run(half)?;
                let (kind, what, done) = match dir {
                    Io::Write => (io::ErrorKind::WriteZero, "write", "persisted"),
                    Io::Read => (io::ErrorKind::UnexpectedEof, "read", "filled"),
                };
                Err(io::Error::new(
                    kind,
                    format!("injected short {what} at op {op}: {half} of {len} bytes {done}"),
                ))
            }
            (_, Some(DiskFault::LatencyMicros(us))) => {
                std::thread::sleep(Duration::from_micros(us));
                run(len)
            }
            (_, Some(DiskFault::HangMicros(us))) => {
                if let Some(sup) = sup {
                    sup.charge_io_stall(us as f64 / 1e6);
                }
                run(len)
            }
            _ => run(len),
        }
    }
}
