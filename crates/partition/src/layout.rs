//! Boundary-first vertex layout for the out-of-core boundary algorithm.
//!
//! The paper's Figure 1(a): after partitioning, vertices are renumbered so
//! that each component occupies a contiguous index range, and within each
//! component the boundary nodes come first. This makes the `C2B`/`B2C`
//! panels of Algorithm 3 contiguous sub-matrices that can be extracted
//! with plain slicing.

use crate::partition::Partition;
use apsp_graph::{CsrGraph, GraphBuilder, VertexId};

/// The renumbering derived from a [`Partition`].
#[derive(Debug, Clone)]
pub struct PartitionLayout {
    /// `perm[new_id] = old_id`.
    perm: Vec<VertexId>,
    /// `inv[old_id] = new_id`.
    inv: Vec<VertexId>,
    /// Component start offsets in the new numbering, length `k + 1`.
    comp_offset: Vec<usize>,
    /// Number of boundary nodes in each component (they occupy the first
    /// `comp_boundary[i]` slots of component `i`'s range).
    comp_boundary: Vec<usize>,
}

impl PartitionLayout {
    /// Compute the layout for `g` under `p`.
    pub fn new(g: &CsrGraph, p: &Partition) -> Self {
        assert_eq!(g.num_vertices(), p.num_vertices());
        let n = g.num_vertices();
        let k = p.k();
        let boundary = p.boundary_flags(g);
        let mut perm = Vec::with_capacity(n);
        let mut comp_offset = Vec::with_capacity(k + 1);
        let mut comp_boundary = Vec::with_capacity(k);
        let parts = p.parts();
        for part in &parts {
            comp_offset.push(perm.len());
            let mut nb = 0usize;
            for &v in part {
                if boundary[v as usize] {
                    perm.push(v);
                    nb += 1;
                }
            }
            for &v in part {
                if !boundary[v as usize] {
                    perm.push(v);
                }
            }
            comp_boundary.push(nb);
        }
        comp_offset.push(perm.len());
        let mut inv = vec![0 as VertexId; n];
        for (new_id, &old_id) in perm.iter().enumerate() {
            inv[old_id as usize] = new_id as VertexId;
        }
        PartitionLayout {
            perm,
            inv,
            comp_offset,
            comp_boundary,
        }
    }

    /// Number of components.
    #[inline]
    pub fn num_components(&self) -> usize {
        self.comp_boundary.len()
    }

    /// Total number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.perm.len()
    }

    /// Old id of new id.
    #[inline]
    pub fn old_of(&self, new_id: VertexId) -> VertexId {
        self.perm[new_id as usize]
    }

    /// New id of old id.
    #[inline]
    pub fn new_of(&self, old_id: VertexId) -> VertexId {
        self.inv[old_id as usize]
    }

    /// Index range (in the new numbering) of component `i`.
    #[inline]
    pub fn component_range(&self, i: usize) -> std::ops::Range<usize> {
        self.comp_offset[i]..self.comp_offset[i + 1]
    }

    /// Size of component `i`.
    #[inline]
    pub fn component_size(&self, i: usize) -> usize {
        self.comp_offset[i + 1] - self.comp_offset[i]
    }

    /// Largest component size (the paper's `N_max`).
    pub fn max_component_size(&self) -> usize {
        (0..self.num_components())
            .map(|i| self.component_size(i))
            .max()
            .unwrap_or(0)
    }

    /// Number of boundary nodes of component `i`.
    #[inline]
    pub fn boundary_count(&self, i: usize) -> usize {
        self.comp_boundary[i]
    }

    /// Total boundary nodes across all components (the paper's `NB`).
    pub fn total_boundary(&self) -> usize {
        self.comp_boundary.iter().sum()
    }

    /// Relabel `g` into the new numbering.
    pub fn permute_graph(&self, g: &CsrGraph) -> CsrGraph {
        assert_eq!(g.num_vertices(), self.num_vertices());
        let mut b = GraphBuilder::with_capacity(g.num_vertices(), g.num_edges());
        for e in g.edges() {
            b.add_edge(self.new_of(e.src), self.new_of(e.dst), e.weight);
        }
        b.build()
    }

    /// Map a dense vector indexed by old ids into new-id order.
    pub fn permute_values<T: Copy>(&self, old_indexed: &[T]) -> Vec<T> {
        assert_eq!(old_indexed.len(), self.num_vertices());
        self.perm
            .iter()
            .map(|&old| old_indexed[old as usize])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kway::{kway_partition, PartitionConfig};
    use apsp_graph::generators::{grid_2d, GridOptions, WeightRange};

    fn setup() -> (CsrGraph, Partition, PartitionLayout) {
        let g = grid_2d(10, 10, GridOptions::default(), WeightRange::default(), 1);
        let p = kway_partition(&g, 4, &PartitionConfig::default());
        let l = PartitionLayout::new(&g, &p);
        (g, p, l)
    }

    #[test]
    fn perm_is_a_permutation() {
        let (_, _, l) = setup();
        let mut seen = vec![false; l.num_vertices()];
        for new_id in 0..l.num_vertices() as VertexId {
            let old = l.old_of(new_id);
            assert!(!seen[old as usize]);
            seen[old as usize] = true;
            assert_eq!(l.new_of(old), new_id);
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn components_are_contiguous_and_cover() {
        let (_, p, l) = setup();
        let mut total = 0;
        for i in 0..l.num_components() {
            let range = l.component_range(i);
            total += range.len();
            for new_id in range {
                let old = l.old_of(new_id as VertexId);
                assert_eq!(p.part_of(old) as usize, i);
            }
        }
        assert_eq!(total, l.num_vertices());
    }

    #[test]
    fn boundary_nodes_come_first() {
        let (g, p, l) = setup();
        let flags = p.boundary_flags(&g);
        for i in 0..l.num_components() {
            let range = l.component_range(i);
            let nb = l.boundary_count(i);
            for (pos, new_id) in range.enumerate() {
                let old = l.old_of(new_id as VertexId);
                assert_eq!(
                    flags[old as usize],
                    pos < nb,
                    "component {i} position {pos}"
                );
            }
        }
    }

    #[test]
    fn total_boundary_matches_partition() {
        let (g, p, l) = setup();
        assert_eq!(l.total_boundary(), p.num_boundary_nodes(&g));
    }

    #[test]
    fn permuted_graph_preserves_shortest_structure() {
        let (g, _, l) = setup();
        let pg = l.permute_graph(&g);
        assert_eq!(pg.num_vertices(), g.num_vertices());
        assert_eq!(pg.num_edges(), g.num_edges());
        // Every edge maps across.
        for e in g.edges() {
            assert_eq!(
                pg.edge_weight(l.new_of(e.src), l.new_of(e.dst)),
                Some(e.weight)
            );
        }
    }

    #[test]
    fn permute_values_follows_perm() {
        let (_, _, l) = setup();
        let old_vals: Vec<u32> = (0..l.num_vertices() as u32).collect();
        let new_vals = l.permute_values(&old_vals);
        for new_id in 0..l.num_vertices() as VertexId {
            assert_eq!(new_vals[new_id as usize], l.old_of(new_id));
        }
    }

    #[test]
    fn max_component_size() {
        let (_, p, l) = setup();
        assert_eq!(
            l.max_component_size(),
            p.part_sizes().into_iter().max().unwrap()
        );
    }
}
