//! Synthetic graph generators.
//!
//! The paper evaluates on SuiteSparse matrices plus R-MAT graphs. Every
//! family it needs is generated here:
//!
//! * [`mod@rmat`] — recursive-matrix scale-free graphs (Chakrabarti et al.),
//!   the paper's synthetic workload for Table V / Table VI,
//! * [`mod@gnp`] — Erdős–Rényi G(n, p) for controlled-density sweeps,
//! * [`grid`] — 2-D lattices: planar, the canonical small-separator case,
//! * [`geometric`] — random geometric graphs: road-network analogs
//!   (small separator, low density),
//! * [`mod@banded`] — banded matrices with random fill: FEM/stiffness-matrix
//!   analogs (moderate density, no small separator),
//! * [`mod@star`] — hub-and-spoke graphs with a few extreme-degree vertices,
//!   the adversarial input for dynamic parallelism and partitioning.
//!
//! All generators take an explicit seed, produce canonical
//! [`crate::CsrGraph`]s via [`crate::GraphBuilder`], and draw weights from
//! a [`WeightRange`].

pub mod banded;
pub mod geometric;
pub mod geometric3d;
pub mod gnp;
pub mod grid;
pub mod rmat;
pub mod small_world;
pub mod star;

pub use banded::banded;
pub use geometric::{radius_for_avg_degree, random_geometric};
pub use geometric3d::{radius_for_avg_degree_3d, random_geometric_3d};
pub use gnp::{gnm_expected, gnp};
pub use grid::{grid_2d, GridOptions};
pub use rmat::{rmat, RmatParams};
pub use small_world::watts_strogatz;
pub use star::star;

use crate::Dist;
use rand::Rng;

/// Inclusive range of edge weights drawn uniformly at random.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightRange {
    /// Smallest weight (inclusive). Must be `>= 1` to keep Dijkstra and
    /// Near-Far bucket logic meaningful; zero-weight edges are still
    /// supported by the algorithms but not generated by default.
    pub lo: Dist,
    /// Largest weight (inclusive).
    pub hi: Dist,
}

impl WeightRange {
    /// Uniform weights in `[lo, hi]`.
    pub fn new(lo: Dist, hi: Dist) -> Self {
        assert!(lo <= hi, "weight range must be non-empty");
        assert!(hi < crate::INF, "weights must stay below INF");
        WeightRange { lo, hi }
    }

    /// Draw one weight.
    #[inline]
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Dist {
        rng.gen_range(self.lo..=self.hi)
    }
}

impl Default for WeightRange {
    /// `[1, 100]`, a common choice for integer-weight SSSP benchmarks.
    fn default() -> Self {
        WeightRange::new(1, 100)
    }
}

/// Make a graph weakly connected by chain-linking its components with
/// undirected edges (random endpoint per component, weights from the
/// range). Road networks and meshes are connected; their synthetic
/// analogs must be too, or partition-based algorithms get vacuously easy
/// inputs.
pub fn ensure_connected(g: &crate::CsrGraph, weights: WeightRange, seed: u64) -> crate::CsrGraph {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let n = g.num_vertices();
    if n == 0 {
        return g.clone();
    }
    // Label weakly connected components.
    let rev = g.transpose();
    let mut comp = vec![usize::MAX; n];
    let mut count = 0usize;
    let mut stack = Vec::new();
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        comp[start] = count;
        stack.push(start as crate::VertexId);
        while let Some(v) = stack.pop() {
            for (u, _) in g.edges_from(v).chain(rev.edges_from(v)) {
                if comp[u as usize] == usize::MAX {
                    comp[u as usize] = count;
                    stack.push(u);
                }
            }
        }
        count += 1;
    }
    if count <= 1 {
        return g.clone();
    }
    // One representative per component; pick pseudo-random members so the
    // links don't all attach to low ids.
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut members: Vec<Vec<crate::VertexId>> = vec![Vec::new(); count];
    for (v, &c) in comp.iter().enumerate() {
        members[c].push(v as crate::VertexId);
    }
    let mut b = crate::GraphBuilder::with_capacity(n, g.num_edges() + 2 * count);
    for e in g.edges() {
        b.add_edge(e.src, e.dst, e.weight);
    }
    for c in 1..count {
        let a = members[c - 1][rng.gen_range(0..members[c - 1].len())];
        let d = members[c][rng.gen_range(0..members[c].len())];
        let w = weights.sample(&mut rng);
        b.add_edge(a, d, w);
        b.add_edge(d, a, w);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn weight_range_samples_within_bounds() {
        let wr = WeightRange::new(3, 9);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            let w = wr.sample(&mut rng);
            assert!((3..=9).contains(&w));
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn weight_range_rejects_inverted() {
        WeightRange::new(5, 4);
    }

    #[test]
    #[should_panic(expected = "below INF")]
    fn weight_range_rejects_inf() {
        WeightRange::new(1, crate::INF);
    }

    #[test]
    fn ensure_connected_links_components() {
        // Two disjoint edges plus an isolated vertex.
        let mut b = crate::GraphBuilder::new(5).symmetric(true);
        b.add_edge(0, 1, 1);
        b.add_edge(2, 3, 1);
        let g = b.build();
        assert_eq!(crate::stats::connected_components(&g), 3);
        let c = ensure_connected(&g, WeightRange::default(), 7);
        assert_eq!(crate::stats::connected_components(&c), 1);
        // Exactly 2 new undirected links (4 directed edges).
        assert_eq!(c.num_edges(), g.num_edges() + 4);
        // Original edges preserved.
        assert_eq!(c.edge_weight(0, 1), Some(1));
    }

    #[test]
    fn ensure_connected_is_noop_on_connected_graphs() {
        let g = grid_2d(4, 4, GridOptions::default(), WeightRange::default(), 1);
        let c = ensure_connected(&g, WeightRange::default(), 3);
        assert_eq!(c, g);
    }
}
