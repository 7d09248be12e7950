//! The SDC registry: what the silent-corruption guard checks against.
//!
//! One FNV checksum per row, plus two marks. A row is *dirty* when a
//! partial (block) write left its checksum stale; the next barrier sweep
//! re-hashes it. A row is *consumed* once accounted I/O read it since its
//! checksum was recorded.

use super::SDC_PANEL_ROWS;
use crate::error::ApspError;
use crate::options::SdcGuardMode;
use std::ops::Range;

#[derive(Debug)]
pub(super) struct SdcRegistry {
    pub(super) mode: SdcGuardMode,
    hashes: Vec<u64>,
    dirty: Vec<bool>,
    /// A mismatch on an unread row is *contained*: the damage cannot
    /// have propagated into other rows, so the recovery ladder may
    /// repair just that row's panel. A mismatch on a consumed row
    /// reports unlocalized instead, forcing the round-scoped rung that
    /// discards all derived state.
    consumed: Vec<bool>,
}

impl SdcRegistry {
    /// A registry recording `hashes`, one per row, all clean and unread.
    pub(super) fn new(mode: SdcGuardMode, hashes: Vec<u64>) -> SdcRegistry {
        let n = hashes.len();
        SdcRegistry {
            mode,
            hashes,
            dirty: vec![false; n],
            consumed: vec![false; n],
        }
    }

    /// Record row `i`'s fresh checksum: clean and unread.
    pub(super) fn set(&mut self, i: usize, hash: u64) {
        self.hashes[i] = hash;
        self.dirty[i] = false;
        self.consumed[i] = false;
    }

    pub(super) fn is_dirty(&self, i: usize) -> bool {
        self.dirty[i]
    }

    pub(super) fn mark_dirty(&mut self, rows: Range<usize>) {
        self.dirty[rows].fill(true);
    }

    pub(super) fn mark_consumed(&mut self, rows: Range<usize>) {
        self.consumed[rows].fill(true);
    }

    /// `Ok` unless clean row `i` no longer hashes to its record. A dirty
    /// row always passes: its record is legitimately stale.
    pub(super) fn check(&self, i: usize, hash: u64, round: usize) -> Result<(), ApspError> {
        if self.dirty[i] || hash == self.hashes[i] {
            return Ok(());
        }
        let consumed = self.consumed[i];
        // Consumed rows report unlocalized (`usize::MAX`): the corrupt
        // content was already read, so panel-scoped repair cannot undo
        // what may have propagated.
        Err(ApspError::SilentCorruption {
            panel: if consumed {
                usize::MAX
            } else {
                i / SDC_PANEL_ROWS
            },
            round,
            detail: format!(
                "row {i} no longer matches its recorded checksum{}",
                if consumed {
                    " (read since corruption; damage may have propagated)"
                } else {
                    ""
                }
            ),
        })
    }
}
