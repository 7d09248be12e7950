//! Error type for the out-of-core APSP implementations.

use apsp_gpu_sim::OutOfDeviceMemory;

/// Anything that can go wrong while computing APSP out-of-core.
#[derive(Debug)]
pub enum ApspError {
    /// The device cannot hold even the minimum working set (e.g. one
    /// matrix tile plus the graph) for the chosen algorithm.
    DeviceTooSmall {
        /// Which algorithm gave up.
        algorithm: &'static str,
        /// Human-readable sizing detail.
        detail: String,
    },
    /// A device allocation failed unexpectedly mid-run.
    OutOfDeviceMemory(OutOfDeviceMemory),
    /// The OS, or a fault injected into the tile store, failed a file
    /// operation: the `io::Error` it reported.
    Storage(std::io::Error),
    /// The input graph is unusable (e.g. zero vertices where the
    /// algorithm needs at least one).
    InvalidInput(String),
    /// Durable state failed validation: a checkpoint manifest is
    /// truncated or fails its self-checksum, a persisted matrix does not
    /// match the checksums recorded for it, or a manifest was written
    /// for a different graph than the one being resumed. Never silently
    /// recovered from — resuming corrupt state would produce wrong
    /// distances.
    Corruption {
        /// What failed validation and how.
        detail: String,
    },
    /// The run's wall-clock deadline elapsed before it finished. The
    /// checkpoint (if one was configured) holds the last committed
    /// barrier, so the run is resumable.
    DeadlineExceeded {
        /// Where the budget ran out.
        detail: String,
    },
    /// The run was cancelled through its [`crate::supervisor::CancelToken`].
    /// Like a deadline, cancellation lands at a barrier or store
    /// operation and leaves any configured checkpoint resumable.
    Cancelled {
        /// Where the cancellation was observed.
        detail: String,
    },
    /// The watchdog declared a stall: no barrier committed within the
    /// progress budget. Distinguished from [`ApspError::DeadlineExceeded`]
    /// because a stall indicts the *algorithm* (a degenerate partition, a
    /// hung kernel) rather than the overall budget, so the fallback chain
    /// treats it as grounds to try a different algorithm.
    Stalled {
        /// Which barrier missed its budget and by how much.
        detail: String,
    },
    /// An SDC guard caught live tile data that no longer matches its
    /// recorded checksum or violates a semiring invariant (distances
    /// increased across a round, or a sampled triangle inequality
    /// failed). Unlike [`ApspError::Corruption`] — which indicts
    /// *durable* state — this indicts the in-flight working set, so the
    /// recovery ladder may recompute the damaged panel or replay the
    /// round before escalating to the fallback chain.
    SilentCorruption {
        /// Damaged panel index (rows `panel * 64 ..`), when localized;
        /// `usize::MAX` when only the round-level invariant tripped.
        panel: usize,
        /// Pivot round / batch / flush ordinal at which the guard fired.
        round: usize,
        /// Which guard tripped and what it observed.
        detail: String,
    },
}

/// Coarse classification of an [`ApspError`] — what conformance
/// assertions match on, so they stay stable as `detail` strings evolve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ApspErrorKind {
    DeviceTooSmall,
    OutOfDeviceMemory,
    Storage,
    InvalidInput,
    Corruption,
    DeadlineExceeded,
    Cancelled,
    Stalled,
    SilentCorruption,
}

impl ApspErrorKind {
    /// Every kind, in declaration order — keeps classification tests
    /// exhaustive when variants are added.
    pub const ALL: [ApspErrorKind; 9] = [
        ApspErrorKind::DeviceTooSmall,
        ApspErrorKind::OutOfDeviceMemory,
        ApspErrorKind::Storage,
        ApspErrorKind::InvalidInput,
        ApspErrorKind::Corruption,
        ApspErrorKind::DeadlineExceeded,
        ApspErrorKind::Cancelled,
        ApspErrorKind::Stalled,
        ApspErrorKind::SilentCorruption,
    ];

    /// Stable machine-readable name, used by `apsp-run --error-json` so
    /// harnesses can match on the kind without parsing `Debug` output.
    pub fn as_str(self) -> &'static str {
        match self {
            ApspErrorKind::DeviceTooSmall => "DeviceTooSmall",
            ApspErrorKind::OutOfDeviceMemory => "OutOfDeviceMemory",
            ApspErrorKind::Storage => "Storage",
            ApspErrorKind::InvalidInput => "InvalidInput",
            ApspErrorKind::Corruption => "Corruption",
            ApspErrorKind::DeadlineExceeded => "DeadlineExceeded",
            ApspErrorKind::Cancelled => "Cancelled",
            ApspErrorKind::Stalled => "Stalled",
            ApspErrorKind::SilentCorruption => "SilentCorruption",
        }
    }

    /// Whether the retry machinery may re-attempt after this kind.
    ///
    /// Only device allocation failures are transient: the drivers shrink
    /// their working set and try again. Everything else is fatal to the
    /// current attempt — storage errors indict durable state, deadline /
    /// cancellation are explicit orders to stop, and a stall means this
    /// algorithm should not simply be re-run (the fallback chain may
    /// still pick a *different* one). Silent corruption is *not*
    /// transient in this sense either — it has its own scoped recovery
    /// ladder (panel recompute → round replay → fallback) rather than
    /// the blind re-attempt the transient path implies.
    pub fn is_transient(self) -> bool {
        matches!(self, ApspErrorKind::OutOfDeviceMemory)
    }
}

impl ApspError {
    /// The error's coarse classification.
    pub fn kind(&self) -> ApspErrorKind {
        match self {
            ApspError::DeviceTooSmall { .. } => ApspErrorKind::DeviceTooSmall,
            ApspError::OutOfDeviceMemory(_) => ApspErrorKind::OutOfDeviceMemory,
            ApspError::Storage(_) => ApspErrorKind::Storage,
            ApspError::InvalidInput(_) => ApspErrorKind::InvalidInput,
            ApspError::Corruption { .. } => ApspErrorKind::Corruption,
            ApspError::DeadlineExceeded { .. } => ApspErrorKind::DeadlineExceeded,
            ApspError::Cancelled { .. } => ApspErrorKind::Cancelled,
            ApspError::Stalled { .. } => ApspErrorKind::Stalled,
            ApspError::SilentCorruption { .. } => ApspErrorKind::SilentCorruption,
        }
    }
}

impl std::fmt::Display for ApspError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApspError::DeviceTooSmall { algorithm, detail } => {
                write!(f, "device too small for {algorithm}: {detail}")
            }
            ApspError::OutOfDeviceMemory(e) => write!(f, "{e}"),
            ApspError::Storage(e) => write!(f, "tile store I/O error: {e}"),
            ApspError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            ApspError::Corruption { detail } => {
                write!(f, "durable state corrupted: {detail}")
            }
            ApspError::DeadlineExceeded { detail } => {
                write!(f, "deadline exceeded: {detail}")
            }
            ApspError::Cancelled { detail } => write!(f, "run cancelled: {detail}"),
            ApspError::Stalled { detail } => write!(f, "run stalled: {detail}"),
            ApspError::SilentCorruption {
                panel,
                round,
                detail,
            } => {
                if *panel == usize::MAX {
                    write!(f, "silent data corruption at round {round}: {detail}")
                } else {
                    write!(
                        f,
                        "silent data corruption in panel {panel} at round {round}: {detail}"
                    )
                }
            }
        }
    }
}

impl std::error::Error for ApspError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ApspError::OutOfDeviceMemory(e) => Some(e),
            ApspError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OutOfDeviceMemory> for ApspError {
    fn from(e: OutOfDeviceMemory) -> Self {
        ApspError::OutOfDeviceMemory(e)
    }
}

/// What the OS or an injected fault reported enters [`ApspError`] here,
/// and only here, as [`ApspError::Storage`]. Every other kind is typed
/// where it is detected.
impl From<std::io::Error> for ApspError {
    fn from(e: std::io::Error) -> Self {
        ApspError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ApspError::DeviceTooSmall {
            algorithm: "boundary",
            detail: "bound matrix needs 1 GiB".into(),
        };
        assert!(e.to_string().contains("boundary"));
        let io = ApspError::from(std::io::Error::other("disk full"));
        assert!(io.to_string().contains("disk full"));
        let c = ApspError::Corruption {
            detail: "manifest truncated".into(),
        };
        assert_eq!(c.kind(), ApspErrorKind::Corruption);
        assert!(c.to_string().contains("manifest truncated"));
        let d = ApspError::DeadlineExceeded {
            detail: "budget of 5ms spent at round 3".into(),
        };
        assert!(d.to_string().contains("deadline"));
        let s = ApspError::Stalled {
            detail: "no barrier for 9s".into(),
        };
        assert!(s.to_string().contains("stalled"));
        let sdc = ApspError::SilentCorruption {
            panel: 3,
            round: 7,
            detail: "row 201 checksum mismatch".into(),
        };
        assert_eq!(sdc.kind(), ApspErrorKind::SilentCorruption);
        assert!(sdc.to_string().contains("panel 3"));
        assert!(sdc.to_string().contains("round 7"));
        let unlocated = ApspError::SilentCorruption {
            panel: usize::MAX,
            round: 2,
            detail: "row sums increased".into(),
        };
        assert!(!unlocated.to_string().contains("panel"));
        assert_eq!(ApspErrorKind::SilentCorruption.as_str(), "SilentCorruption");
    }

    /// Every variant maps to exactly one kind and one transient/fatal
    /// class, so a new variant can't silently skip the retry classifier.
    #[test]
    fn classification_is_exhaustive() {
        let oom = || OutOfDeviceMemory {
            requested: 8,
            available: 4,
            capacity: 16,
        };
        let every_variant: Vec<ApspError> = vec![
            ApspError::DeviceTooSmall {
                algorithm: "fw",
                detail: String::new(),
            },
            ApspError::OutOfDeviceMemory(oom()),
            ApspError::Storage(std::io::Error::other("x")),
            ApspError::InvalidInput(String::new()),
            ApspError::Corruption {
                detail: String::new(),
            },
            ApspError::DeadlineExceeded {
                detail: String::new(),
            },
            ApspError::Cancelled {
                detail: String::new(),
            },
            ApspError::Stalled {
                detail: String::new(),
            },
            ApspError::SilentCorruption {
                panel: 0,
                round: 0,
                detail: String::new(),
            },
        ];
        // The list above must cover every variant exactly once. This match
        // fails to compile if a variant is added without extending it.
        for e in &every_variant {
            match e {
                ApspError::DeviceTooSmall { .. }
                | ApspError::OutOfDeviceMemory(_)
                | ApspError::Storage(_)
                | ApspError::InvalidInput(_)
                | ApspError::Corruption { .. }
                | ApspError::DeadlineExceeded { .. }
                | ApspError::Cancelled { .. }
                | ApspError::Stalled { .. }
                | ApspError::SilentCorruption { .. } => {}
            }
        }
        let kinds: Vec<ApspErrorKind> = every_variant.iter().map(|e| e.kind()).collect();
        assert_eq!(
            kinds,
            ApspErrorKind::ALL.to_vec(),
            "each variant must map to its own kind, in declaration order"
        );
        // Transient/fatal classes: only OOM is retryable in place.
        for kind in ApspErrorKind::ALL {
            assert_eq!(
                kind.is_transient(),
                kind == ApspErrorKind::OutOfDeviceMemory,
                "{kind:?} has the wrong transient/fatal class"
            );
        }
    }
}
