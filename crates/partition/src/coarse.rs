//! Coarsening via heavy-edge matching.
//!
//! A [`CoarseGraph`] carries vertex weights (number of original vertices
//! merged into each coarse vertex) and integer edge weights (number of
//! original edges collapsed into each coarse edge), exactly the data the
//! refinement pass needs to keep cuts and balance meaningful across levels.

use apsp_graph::{CsrGraph, VertexId};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Weighted graph used during multilevel partitioning.
#[derive(Debug, Clone)]
pub struct CoarseGraph {
    /// CSR offsets, length `n + 1`.
    pub row_ptr: Vec<usize>,
    /// Neighbour ids, undirected (each edge stored in both rows).
    pub col_idx: Vec<VertexId>,
    /// Collapsed multiplicity of each edge.
    pub edge_weight: Vec<u64>,
    /// Number of original vertices merged into each coarse vertex.
    pub vertex_weight: Vec<u64>,
}

impl CoarseGraph {
    /// Build the level-0 coarse graph from an input graph: symmetrize the
    /// structure (the partitioner works on the undirected skeleton) and
    /// give every vertex weight 1 and every undirected edge weight equal
    /// to its multiplicity (1 or 2 depending on whether both directions
    /// exist).
    pub fn from_graph(g: &CsrGraph) -> Self {
        let n = g.num_vertices();
        // Union of g and gᵀ with unit multiplicities summed.
        let t = g.transpose();
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::new();
        let mut edge_weight = Vec::new();
        for v in 0..n as VertexId {
            merge_rows(g, &t, v, &mut |u, w| {
                col_idx.push(u);
                edge_weight.push(w);
            });
            row_ptr.push(col_idx.len());
        }
        CoarseGraph {
            row_ptr,
            col_idx,
            edge_weight,
            vertex_weight: vec![1; n],
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.vertex_weight.len()
    }

    /// Total vertex weight (number of original vertices).
    pub fn total_vertex_weight(&self) -> u64 {
        self.vertex_weight.iter().sum()
    }

    /// Neighbours of `v` with edge weights.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, u64)> + '_ {
        let lo = self.row_ptr[v as usize];
        let hi = self.row_ptr[v as usize + 1];
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.edge_weight[lo..hi].iter().copied())
    }

    /// One level of heavy-edge matching. Returns the coarse graph and the
    /// mapping `fine vertex → coarse vertex`.
    pub fn coarsen(&self, seed: u64) -> (CoarseGraph, Vec<VertexId>) {
        let n = self.num_vertices();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut order: Vec<VertexId> = (0..n as VertexId).collect();
        order.shuffle(&mut rng);
        let mut mate = vec![VertexId::MAX; n];
        for &v in &order {
            if mate[v as usize] != VertexId::MAX {
                continue;
            }
            // Heavy-edge rule: match with the unmatched neighbour behind
            // the heaviest edge.
            let mut best: Option<(VertexId, u64)> = None;
            for (u, w) in self.neighbors(v) {
                if u != v && mate[u as usize] == VertexId::MAX && best.is_none_or(|(_, bw)| w > bw)
                {
                    best = Some((u, w));
                }
            }
            match best {
                Some((u, _)) => {
                    mate[v as usize] = u;
                    mate[u as usize] = v;
                }
                None => mate[v as usize] = v, // stays single
            }
        }
        // Assign coarse ids in order of each pair's smaller member.
        let mut map = vec![VertexId::MAX; n];
        let mut members: Vec<[VertexId; 2]> = Vec::with_capacity(n);
        for v in 0..n as VertexId {
            if map[v as usize] != VertexId::MAX {
                continue;
            }
            let m = mate[v as usize];
            map[v as usize] = members.len() as VertexId;
            map[m as usize] = members.len() as VertexId;
            members.push([v, m]);
        }
        let cn = members.len();
        // Gather each coarse row from its one or two members' rows into
        // hash-free scatter arrays: a dense marker array `slot` maps a
        // coarse neighbour to its entry in `row`, which sums the weights;
        // then only the row's few unique neighbours are sorted.
        let mut vertex_weight = Vec::with_capacity(cn);
        let mut row_ptr = Vec::with_capacity(cn + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::with_capacity(self.col_idx.len());
        let mut edge_weight = Vec::with_capacity(self.col_idx.len());
        let mut slot = vec![usize::MAX; cn];
        let mut row: Vec<(VertexId, u64)> = Vec::new();
        for (cv, pair) in members.iter().enumerate() {
            let pair = &pair[..1 + usize::from(pair[0] != pair[1])];
            for &x in pair {
                for (u, w) in self.neighbors(x) {
                    let cu = map[u as usize];
                    if cu as usize == cv {
                        continue;
                    }
                    if slot[cu as usize] == usize::MAX {
                        slot[cu as usize] = row.len();
                        row.push((cu, 0));
                    }
                    row[slot[cu as usize]].1 += w;
                }
            }
            row.sort_unstable_by_key(|&(cu, _)| cu);
            for &(cu, w) in &row {
                slot[cu as usize] = usize::MAX;
                col_idx.push(cu);
                edge_weight.push(w);
            }
            row.clear();
            row_ptr.push(col_idx.len());
            vertex_weight.push(pair.iter().map(|&x| self.vertex_weight[x as usize]).sum());
        }
        (
            CoarseGraph {
                row_ptr,
                col_idx,
                edge_weight,
                vertex_weight,
            },
            map,
        )
    }
}

/// Merge the sorted neighbour rows of `v` in `g` and `t`, calling `f` once
/// per unique neighbour (≠ v) with the summed multiplicity (1 if the edge
/// exists in one direction, 2 if both).
fn merge_rows(g: &CsrGraph, t: &CsrGraph, v: VertexId, f: &mut impl FnMut(VertexId, u64)) {
    let (a, _) = g.neighbors(v);
    let (b, _) = t.neighbors(v);
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() || j < b.len() {
        let (u, w) = if j >= b.len() || (i < a.len() && a[i] < b[j]) {
            let u = a[i];
            i += 1;
            (u, 1u64)
        } else if i >= a.len() || b[j] < a[i] {
            let u = b[j];
            j += 1;
            (u, 1u64)
        } else {
            let u = a[i];
            i += 1;
            j += 1;
            (u, 2u64)
        };
        if u != v {
            f(u, w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_graph::generators::{grid_2d, GridOptions, WeightRange};
    use apsp_graph::GraphBuilder;

    #[test]
    fn from_graph_symmetrizes() {
        // Directed edge 0 -> 1 only; coarse graph must see it both ways.
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 5);
        let cg = CoarseGraph::from_graph(&b.build());
        assert_eq!(cg.neighbors(0).collect::<Vec<_>>(), vec![(1, 1)]);
        assert_eq!(cg.neighbors(1).collect::<Vec<_>>(), vec![(0, 1)]);
    }

    #[test]
    fn bidirectional_edges_get_weight_two() {
        let mut b = GraphBuilder::new(2).symmetric(true);
        b.add_edge(0, 1, 5);
        let cg = CoarseGraph::from_graph(&b.build());
        assert_eq!(cg.neighbors(0).collect::<Vec<_>>(), vec![(1, 2)]);
    }

    #[test]
    fn coarsening_conserves_vertex_weight() {
        let g = grid_2d(12, 12, GridOptions::default(), WeightRange::default(), 1);
        let cg = CoarseGraph::from_graph(&g);
        let total = cg.total_vertex_weight();
        let (c1, map) = cg.coarsen(7);
        assert_eq!(c1.total_vertex_weight(), total);
        assert!(c1.num_vertices() < cg.num_vertices());
        assert!(c1.num_vertices() >= cg.num_vertices() / 2);
        assert_eq!(map.len(), cg.num_vertices());
        assert!(map.iter().all(|&c| (c as usize) < c1.num_vertices()));
    }

    #[test]
    fn coarsening_halves_on_perfect_matching() {
        // A cycle has a near-perfect matching.
        let n = 64;
        let mut b = GraphBuilder::new(n).symmetric(true);
        for v in 0..n as u32 {
            b.add_edge(v, (v + 1) % n as u32, 1);
        }
        let cg = CoarseGraph::from_graph(&b.build());
        let (c1, _) = cg.coarsen(3);
        assert!(
            c1.num_vertices() <= (n * 3).div_ceil(4),
            "{}",
            c1.num_vertices()
        );
    }

    #[test]
    fn coarse_edges_have_no_self_loops() {
        let g = grid_2d(10, 10, GridOptions::default(), WeightRange::default(), 2);
        let cg = CoarseGraph::from_graph(&g);
        let (c1, _) = cg.coarsen(11);
        for v in 0..c1.num_vertices() as VertexId {
            assert!(c1.neighbors(v).all(|(u, _)| u != v));
        }
    }

    #[test]
    fn repeated_coarsening_terminates() {
        let g = grid_2d(16, 16, GridOptions::default(), WeightRange::default(), 5);
        let mut cg = CoarseGraph::from_graph(&g);
        for round in 0..32 {
            let before = cg.num_vertices();
            let (next, _) = cg.coarsen(round);
            if next.num_vertices() == before {
                break;
            }
            cg = next;
            if cg.num_vertices() <= 8 {
                break;
            }
        }
        assert!(cg.num_vertices() <= 16);
    }
}
