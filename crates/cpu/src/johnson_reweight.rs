//! Classic Johnson's reweighting: APSP with *negative* edge weights.
//!
//! The paper's system assumes non-negative integer weights (CUDA
//! `atomicMin` over `int`). The textbook Johnson's algorithm \[10\] is more
//! general: add a virtual source connected to every vertex with weight 0,
//! run Bellman-Ford to get potentials `h`, reweight every edge to
//! `w'(u,v) = w(u,v) + h(u) − h(v) ≥ 0`, run any non-negative SSSP, and
//! recover true distances as `d(u,v) = d'(u,v) − h(u) + h(v)`. This
//! module implements that front-end so the whole suite (including the
//! out-of-core GPU paths) extends to negatively weighted inputs.

use crate::dijkstra::dijkstra_sssp;
use apsp_graph::{CsrGraph, GraphBuilder, VertexId, INF};

/// A signed edge of the original problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignedEdge {
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
    /// Possibly negative weight.
    pub weight: i64,
}

/// The input contains a negative-weight cycle: no shortest distances
/// exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NegativeCycle;

impl std::fmt::Display for NegativeCycle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("graph contains a negative-weight cycle")
    }
}

impl std::error::Error for NegativeCycle {}

/// The reweighted problem: a non-negative [`CsrGraph`] plus the
/// potentials needed to translate distances back.
#[derive(Debug, Clone)]
pub struct Reweighted {
    /// Non-negative graph suitable for every APSP path in this suite.
    pub graph: CsrGraph,
    /// Bellman-Ford potentials `h` (one per vertex).
    pub potentials: Vec<i64>,
}

impl Reweighted {
    /// Build from a signed edge list over `n` vertices.
    pub fn new(n: usize, edges: &[SignedEdge]) -> Result<Self, NegativeCycle> {
        // Bellman-Ford from a virtual source connected to every vertex
        // with weight 0 — equivalently, start all potentials at 0.
        let mut h = vec![0i64; n];
        for round in 0..n {
            let mut changed = false;
            for e in edges {
                let cand = h[e.src as usize] + e.weight;
                if cand < h[e.dst as usize] {
                    h[e.dst as usize] = cand;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            if round + 1 == n {
                return Err(NegativeCycle);
            }
        }
        let mut b = GraphBuilder::with_capacity(n, edges.len());
        for e in edges {
            let w = e.weight + h[e.src as usize] - h[e.dst as usize];
            debug_assert!(w >= 0, "reweighting must be non-negative");
            // The triangle inequality of the potentials bounds w' by the
            // total weight spread, safely inside Dist range for any sane
            // input; clamp defensively.
            b.add_edge(e.src, e.dst, (w as u64).min((INF - 1) as u64) as u32);
        }
        Ok(Reweighted {
            graph: b.build(),
            potentials: h,
        })
    }

    /// Translate a reweighted distance (from `src`, to `dst`) back to the
    /// original weighting; `None` when unreachable.
    pub fn true_distance(&self, src: VertexId, dst: VertexId, reweighted: u32) -> Option<i64> {
        if reweighted >= INF {
            None
        } else {
            Some(reweighted as i64 - self.potentials[src as usize] + self.potentials[dst as usize])
        }
    }

    /// Full signed APSP via Dijkstra on the reweighted graph (reference
    /// implementation; any of the out-of-core paths works identically).
    pub fn apsp(&self) -> Vec<Vec<Option<i64>>> {
        let n = self.graph.num_vertices();
        (0..n as VertexId)
            .map(|s| {
                let d = dijkstra_sssp(&self.graph, s);
                (0..n as VertexId)
                    .map(|t| self.true_distance(s, t, d[t as usize]))
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(src: u32, dst: u32, weight: i64) -> SignedEdge {
        SignedEdge { src, dst, weight }
    }

    #[test]
    fn textbook_example_with_negative_edges() {
        // CLRS-style: negative edges, no negative cycle.
        let edges = [
            e(0, 1, 3),
            e(0, 2, 8),
            e(0, 4, -4),
            e(1, 3, 1),
            e(1, 4, 7),
            e(2, 1, 4),
            e(3, 0, 2),
            e(3, 2, -5),
            e(4, 3, 6),
        ];
        let rw = Reweighted::new(5, &edges).unwrap();
        let d = rw.apsp();
        // Known answers for this classic instance.
        assert_eq!(d[0][4], Some(-4));
        assert_eq!(d[0][3], Some(2));
        assert_eq!(d[0][2], Some(-3));
        assert_eq!(d[3][1], Some(-1));
        assert_eq!(d[2][0], Some(7));
        // Diagonal zero.
        for (i, row) in d.iter().enumerate() {
            assert_eq!(row[i], Some(0));
        }
    }

    #[test]
    fn reweighted_graph_is_nonnegative() {
        let edges = [e(0, 1, -10), e(1, 2, 4), e(2, 0, 7)];
        let rw = Reweighted::new(3, &edges).unwrap();
        assert!(rw.graph.edges().all(|edge| edge.weight < INF));
    }

    #[test]
    fn negative_cycle_detected() {
        let edges = [e(0, 1, 1), e(1, 2, -3), e(2, 0, 1)];
        assert!(matches!(Reweighted::new(3, &edges), Err(NegativeCycle)));
        // A zero-weight cycle is fine.
        let edges = [e(0, 1, 1), e(1, 2, -2), e(2, 0, 1)];
        assert!(Reweighted::new(3, &edges).is_ok());
    }

    #[test]
    fn matches_nonnegative_dijkstra_when_no_negatives() {
        let edges = [e(0, 1, 5), e(1, 2, 2), e(0, 2, 9)];
        let rw = Reweighted::new(3, &edges).unwrap();
        let d = rw.apsp();
        assert_eq!(d[0][2], Some(7));
        assert_eq!(d[2][0], None); // unreachable
    }

    #[test]
    fn unreachable_pairs_are_none() {
        let edges = [e(0, 1, -1)];
        let rw = Reweighted::new(3, &edges).unwrap();
        let d = rw.apsp();
        assert_eq!(d[0][1], Some(-1));
        assert_eq!(d[1][0], None);
        assert_eq!(d[0][2], None);
    }
}
