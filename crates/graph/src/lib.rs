//! Weighted-graph substrate for the out-of-core APSP suite.
//!
//! This crate provides everything the APSP algorithms consume:
//!
//! * [`CsrGraph`] — compressed-sparse-row adjacency storage with `u32`
//!   vertex ids and non-negative `u32` edge weights,
//! * [`GraphBuilder`] — edge-list accumulation with multi-edge folding and
//!   optional symmetrization,
//! * [`generators`] — R-MAT, G(n,p), grid, random-geometric and banded
//!   generators plus the synthetic SuiteSparse analogs used by the paper
//!   reproduction ([`suite`]),
//! * [`io`] — Matrix Market reading/writing so real SuiteSparse matrices
//!   drop in when available,
//! * [`stats`] — density, degree distributions and connected components.
//!
//! Distances use [`Dist`] (`u32`) with [`INF`] as the "unreachable"
//! sentinel. `INF` is `u32::MAX / 4` so that `a.saturating_add(b)` of two
//! in-range distances can never wrap past `u32::MAX`, and `INF + w` for an
//! edge weight stays `>= INF` under [`dist_add`]'s clamping.

pub mod builder;
pub mod csr;
pub mod generators;
pub mod io;
pub mod io_dimacs;
pub mod stats;
pub mod suite;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;

/// Distance value type used throughout the suite (the paper uses `int` so
/// that CUDA `atomicMin` applies; we mirror that with `u32`).
pub type Dist = u32;

/// Vertex identifier.
pub type VertexId = u32;

/// "Unreachable" distance sentinel. Any true shortest distance is `< INF`.
///
/// Chosen as `u32::MAX / 4` so sums of two values `<= INF` never overflow
/// `u32` even before clamping.
pub const INF: Dist = u32::MAX / 4;

/// Saturating min-plus addition: `INF` absorbs, and any sum that reaches or
/// exceeds `INF` is clamped back to `INF` so the sentinel is preserved.
#[inline(always)]
pub fn dist_add(a: Dist, b: Dist) -> Dist {
    let s = a.saturating_add(b);
    if s >= INF {
        INF
    } else {
        s
    }
}

/// The FNV-1a 64-bit offset basis, the seed for [`fnv1a`].
pub const FNV_OFFSET_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// The FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a over `bytes`, continuing from `hash` (seed with
/// [`FNV_OFFSET_BASIS`]). The one implementation behind checkpoint
/// manifests, snapshot footers, graph and profile fingerprints, the
/// suite's per-entry seeds and the benches' result checksums.
#[inline]
pub fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// An edge of a weighted directed graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
    /// Non-negative weight.
    pub weight: Dist,
}

impl Edge {
    /// Convenience constructor.
    #[inline]
    pub fn new(src: VertexId, dst: VertexId, weight: Dist) -> Self {
        Edge { src, dst, weight }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_add_clamps_to_inf() {
        assert_eq!(dist_add(INF, 0), INF);
        assert_eq!(dist_add(INF, INF), INF);
        assert_eq!(dist_add(INF - 1, 1), INF);
        assert_eq!(dist_add(1, 2), 3);
        assert_eq!(dist_add(0, 0), 0);
    }

    #[test]
    fn dist_add_never_wraps() {
        // Even the largest representable operands must not wrap around.
        assert_eq!(dist_add(u32::MAX, u32::MAX), INF);
        assert!(dist_add(INF, u32::MAX) >= INF);
    }

    #[test]
    fn fnv1a_matches_the_published_64_bit_vectors() {
        assert_eq!(fnv1a(b"", FNV_OFFSET_BASIS), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a", FNV_OFFSET_BASIS), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar", FNV_OFFSET_BASIS), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn inf_leaves_summation_headroom() {
        // Two INFs must fit in u32 without wrapping — the invariant the
        // sentinel choice is built on.
        assert!(INF.checked_add(INF).is_some());
    }
}
