//! Shortest-*path* reconstruction (not just distances).
//!
//! The paper's system reports distances only; real APSP consumers (route
//! planning, betweenness, network diagnostics) usually need the paths.
//! Storing a full n×n predecessor matrix doubles the (already dominant)
//! output, so this module takes the practical route: per-source
//! shortest-path *trees* on demand via the same Near-Far kernel the
//! Johnson implementation runs, plus reconstruction helpers.

use crate::ApspError;
use apsp_graph::{CsrGraph, Dist, VertexId, INF};
use apsp_kernels::nearfar::near_far_sssp_with_parents;

/// A shortest-path tree rooted at one source.
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    /// The root.
    pub source: VertexId,
    /// Distance to every vertex ([`INF`] when unreachable).
    pub dist: Vec<Dist>,
    /// Predecessor of every vertex on a shortest path from the root
    /// (`VertexId::MAX` for the root and for unreachable vertices).
    pub parents: Vec<VertexId>,
}

/// [`ApspError::InvalidInput`] unless `v` is a vertex of `g`.
fn check_vertex(g: &CsrGraph, v: VertexId, role: &str) -> Result<(), ApspError> {
    let n = g.num_vertices();
    if (v as usize) < n {
        Ok(())
    } else {
        Err(ApspError::InvalidInput(format!(
            "{role} {v} is not a vertex of a {n}-vertex graph"
        )))
    }
}

impl ShortestPathTree {
    /// Compute the tree with the suite's Near-Far kernel.
    /// [`ApspError::InvalidInput`] when `source` is not a vertex of `g`
    /// (every vertex is out of range on an empty graph).
    pub fn compute(g: &CsrGraph, source: VertexId) -> Result<Self, ApspError> {
        check_vertex(g, source, "source")?;
        let delta = apsp_kernels::nearfar::default_delta(g);
        let (dist, parents, _) = near_far_sssp_with_parents(g, source, delta, usize::MAX)
            .map_err(|e| ApspError::InvalidInput(e.to_string()))?;
        Ok(ShortestPathTree {
            source,
            dist,
            parents,
        })
    }

    /// Distance to `target` ([`INF`] when it is unreachable or not a
    /// vertex of the tree's graph).
    pub fn distance(&self, target: VertexId) -> Dist {
        self.dist.get(target as usize).copied().unwrap_or(INF)
    }

    /// The vertices of a shortest path `source → target`, inclusive, or
    /// `None` when `target` is unreachable or not a vertex of the tree's
    /// graph. A parent chain that leaves the graph or runs longer than
    /// the vertex count also yields `None`; [`Self::validate`] names the
    /// vertex where such a tree breaks.
    pub fn path_to(&self, target: VertexId) -> Option<Vec<VertexId>> {
        if self.distance(target) >= INF {
            return None;
        }
        let mut path = vec![target];
        let mut v = target;
        while v != self.source {
            v = *self.parents.get(v as usize)?;
            path.push(v);
            if path.len() > self.parents.len() {
                return None;
            }
        }
        path.reverse();
        Some(path)
    }

    /// Verify the tree against the graph: every parent edge exists, is
    /// tight (`dist[v] = dist[parent] + w`), and the root has distance 0.
    /// Returns the first violating vertex, or the root when the tree's
    /// vectors do not have one entry per vertex of `g`.
    pub fn validate(&self, g: &CsrGraph) -> Result<(), VertexId> {
        let n = g.num_vertices();
        if self.dist.len() != n
            || self.parents.len() != n
            || self.dist.get(self.source as usize) != Some(&0)
        {
            return Err(self.source);
        }
        for v in 0..n as VertexId {
            if v == self.source || self.dist[v as usize] >= INF {
                continue;
            }
            let p = self.parents[v as usize];
            if p as usize >= n {
                return Err(v);
            }
            match g.edge_weight(p, v) {
                Some(w) if self.dist[p as usize].saturating_add(w) == self.dist[v as usize] => {}
                _ => return Err(v),
            }
        }
        Ok(())
    }
}

/// One shortest path `source → target`, or `None` when unreachable —
/// convenience over [`ShortestPathTree::compute`] for one-off queries.
/// [`ApspError::InvalidInput`] when either end is not a vertex of `g`.
pub fn shortest_path(
    g: &CsrGraph,
    source: VertexId,
    target: VertexId,
) -> Result<Option<Vec<VertexId>>, ApspError> {
    check_vertex(g, target, "target")?;
    Ok(ShortestPathTree::compute(g, source)?.path_to(target))
}

/// Reconstruct `source → target` from a full n×n predecessor matrix
/// produced by [`crate::ooc_johnson::ooc_johnson_with_parents`]. Reads
/// O(path length) individual cells from the (possibly disk-backed) store.
pub fn path_from_parent_store(
    parents: &crate::tile_store::TileStore,
    source: VertexId,
    target: VertexId,
) -> std::io::Result<Option<Vec<VertexId>>> {
    let n = parents.n();
    if source as usize >= n || target as usize >= n {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("({source}, {target}) is not a pair of vertices of a {n}-vertex matrix"),
        ));
    }
    if source == target {
        return Ok(Some(vec![source]));
    }
    let mut path = vec![target];
    let mut v = target;
    let mut steps = 0usize;
    loop {
        let p = parents.get(source as usize, v as usize)?;
        if p == VertexId::MAX {
            return Ok(None); // unreachable
        }
        path.push(p);
        v = p;
        if v == source {
            path.reverse();
            return Ok(Some(path));
        }
        steps += 1;
        if steps > n {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "parent chain does not terminate — corrupt predecessor matrix",
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_cpu::dijkstra_sssp;
    use apsp_graph::generators::{gnp, grid_2d, GridOptions, WeightRange};
    use apsp_graph::GraphBuilder;

    #[test]
    fn path_distances_match_dijkstra() {
        let g = gnp(150, 0.04, WeightRange::new(1, 20), 3);
        let tree = ShortestPathTree::compute(&g, 7).unwrap();
        assert_eq!(tree.dist, dijkstra_sssp(&g, 7));
        tree.validate(&g).unwrap();
    }

    #[test]
    fn reconstructed_path_weights_sum_to_distance() {
        let g = grid_2d(8, 8, GridOptions::default(), WeightRange::new(1, 9), 5);
        let tree = ShortestPathTree::compute(&g, 0).unwrap();
        for target in [63u32, 7, 56, 35] {
            let path = tree.path_to(target).expect("grid is connected");
            assert_eq!(path.first(), Some(&0));
            assert_eq!(path.last(), Some(&target));
            let mut total = 0;
            for pair in path.windows(2) {
                total += g.edge_weight(pair[0], pair[1]).expect("path edge");
            }
            assert_eq!(total, tree.distance(target));
        }
    }

    #[test]
    fn unreachable_targets_yield_none() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1);
        let g = b.build();
        let tree = ShortestPathTree::compute(&g, 0).unwrap();
        assert!(tree.path_to(3).is_none());
        assert_eq!(tree.path_to(1), Some(vec![0, 1]));
        assert_eq!(shortest_path(&g, 0, 1).unwrap(), Some(vec![0, 1]));
        assert_eq!(shortest_path(&g, 1, 0).unwrap(), None);
    }

    #[test]
    fn source_path_is_trivial() {
        let g = gnp(20, 0.2, WeightRange::default(), 9);
        let tree = ShortestPathTree::compute(&g, 4).unwrap();
        assert_eq!(tree.path_to(4), Some(vec![4]));
        assert_eq!(tree.distance(4), 0);
    }

    #[test]
    fn validate_catches_corruption() {
        let g = gnp(30, 0.2, WeightRange::default(), 11);
        let mut tree = ShortestPathTree::compute(&g, 0).unwrap();
        tree.validate(&g).unwrap();
        // Corrupt one reachable vertex's parent.
        let victim = (1..30).find(|&v| tree.dist[v] < INF).unwrap();
        tree.parents[victim] = victim as u32; // self-parent is never tight
        assert!(tree.validate(&g).is_err());
    }

    #[test]
    fn out_of_range_vertices_are_typed_errors() {
        let g = gnp(20, 0.2, WeightRange::default(), 9);
        let empty = GraphBuilder::new(0).build();
        let errors = [
            ShortestPathTree::compute(&g, 20).map(|_| ()),
            ShortestPathTree::compute(&g, u32::MAX).map(|_| ()),
            ShortestPathTree::compute(&empty, 0).map(|_| ()),
            shortest_path(&g, 20, 0).map(|_| ()),
            shortest_path(&g, 0, 20).map(|_| ()),
            shortest_path(&g, 0, u32::MAX).map(|_| ()),
            shortest_path(&empty, 0, 0).map(|_| ()),
        ];
        for err in errors {
            let err = err.unwrap_err();
            assert_eq!(err.kind(), crate::ApspErrorKind::InvalidInput, "{err}");
        }
    }

    #[test]
    fn tree_queries_take_any_vertex_id() {
        let g = gnp(20, 0.2, WeightRange::default(), 9);
        let mut tree = ShortestPathTree::compute(&g, 4).unwrap();
        assert_eq!(tree.distance(20), INF);
        assert_eq!(tree.path_to(u32::MAX), None);
        // A parent outside the graph breaks the chain.
        let victim = (0..20u32)
            .find(|&v| v != 4 && tree.dist[v as usize] < INF)
            .unwrap();
        tree.parents[victim as usize] = 20;
        assert_eq!(tree.path_to(victim), None);
        assert_eq!(tree.validate(&g), Err(victim));
        // So does a parent cycle, without looping forever.
        tree.parents[victim as usize] = victim;
        assert_eq!(tree.path_to(victim), None);
        // A tree checked against a graph of another size, or whose root
        // is not a vertex, fails at its root.
        let smaller = gnp(10, 0.2, WeightRange::default(), 9);
        assert_eq!(tree.validate(&smaller), Err(4));
        tree.source = 99;
        assert_eq!(tree.validate(&g), Err(99));
    }

    #[test]
    fn parent_store_lookups_reject_out_of_range_vertices() {
        use crate::tile_store::{StorageBackend, TileStore};
        let store = TileStore::new(4, &StorageBackend::Memory).unwrap();
        for (source, target) in [(4, 0), (0, 4), (4, 4), (u32::MAX, u32::MAX)] {
            let err = path_from_parent_store(&store, source, target).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        }
    }
}
