//! Dense row-major distance matrix.

use apsp_graph::{CsrGraph, Dist, VertexId, INF};

/// An `n × n` distance matrix in row-major order.
///
/// `get(i, j)` is the (current bound on the) shortest distance from vertex
/// `i` to vertex `j`. [`DistMatrix::from_graph`] initializes it the way
/// every APSP algorithm in the suite expects: `0` on the diagonal, edge
/// weights where edges exist, [`INF`] elsewhere. (A self-loop never
/// shortens a path, so the diagonal stays `0` even if the graph has one.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistMatrix {
    n: usize,
    data: Vec<Dist>,
}

impl DistMatrix {
    /// All-`INF` matrix with a zero diagonal.
    pub fn new(n: usize) -> Self {
        let mut data = vec![INF; n * n];
        for i in 0..n {
            data[i * n + i] = 0;
        }
        DistMatrix { n, data }
    }

    /// Adjacency-initialized matrix (the Floyd-Warshall starting point).
    pub fn from_graph(g: &CsrGraph) -> Self {
        let n = g.num_vertices();
        let mut m = DistMatrix::new(n);
        for v in 0..n as VertexId {
            for (u, w) in g.edges_from(v) {
                if v != u {
                    let cell = &mut m.data[v as usize * n + u as usize];
                    if w < *cell {
                        *cell = w;
                    }
                }
            }
        }
        m
    }

    /// Wrap an existing row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != n * n`.
    pub fn from_raw(n: usize, data: Vec<Dist>) -> Self {
        assert_eq!(data.len(), n * n);
        DistMatrix { n, data }
    }

    /// Matrix dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Distance from `i` to `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Dist {
        self.data[i * self.n + j]
    }

    /// Set the distance from `i` to `j`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, d: Dist) {
        self.data[i * self.n + j] = d;
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[Dist] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// The whole backing buffer.
    #[inline]
    pub fn as_slice(&self) -> &[Dist] {
        &self.data
    }

    /// The whole backing buffer, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Dist] {
        &mut self.data
    }

    /// Consume into the backing buffer.
    pub fn into_inner(self) -> Vec<Dist> {
        self.data
    }

    /// Number of finite (reachable) entries.
    pub fn reachable_pairs(&self) -> usize {
        self.data.iter().filter(|&&d| d < INF).count()
    }

    /// Largest finite entry (0 for an all-INF matrix).
    pub fn max_finite(&self) -> Dist {
        self.data
            .iter()
            .copied()
            .filter(|&d| d < INF)
            .max()
            .unwrap_or(0)
    }

    /// Verify the triangle inequality on every `(i, k, j)` triple drawn
    /// from `samples` pseudo-random triples — used by tests as a cheap
    /// full-matrix sanity check. Returns the first violated triple.
    pub fn check_triangle_sampled(
        &self,
        samples: usize,
        seed: u64,
    ) -> Option<(usize, usize, usize)> {
        let n = self.n;
        if n == 0 {
            return None;
        }
        let mut state = seed | 1;
        let mut next = || {
            // xorshift64* — cheap deterministic index stream.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545F4914F6CDD1D) >> 33) as usize % n
        };
        for _ in 0..samples {
            let (i, k, j) = (next(), next(), next());
            let via = apsp_graph::dist_add(self.get(i, k), self.get(k, j));
            if self.get(i, j) > via {
                return Some((i, k, j));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_graph::GraphBuilder;

    #[test]
    fn new_has_zero_diagonal_inf_elsewhere() {
        let m = DistMatrix::new(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m.get(i, j), if i == j { 0 } else { INF });
            }
        }
    }

    #[test]
    fn from_graph_copies_weights() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 4);
        b.add_edge(1, 2, 6);
        let m = DistMatrix::from_graph(&b.build());
        assert_eq!(m.get(0, 1), 4);
        assert_eq!(m.get(1, 2), 6);
        assert_eq!(m.get(0, 2), INF);
        assert_eq!(m.get(2, 2), 0);
    }

    #[test]
    fn self_loop_does_not_pollute_diagonal() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0, 5);
        b.add_edge(0, 1, 1);
        let m = DistMatrix::from_graph(&b.build());
        assert_eq!(m.get(0, 0), 0);
    }

    #[test]
    fn rows_and_counters() {
        let mut m = DistMatrix::new(2);
        m.set(0, 1, 7);
        assert_eq!(m.row(0), &[0, 7]);
        assert_eq!(m.reachable_pairs(), 3);
        assert_eq!(m.max_finite(), 7);
    }

    #[test]
    fn triangle_check_catches_violations() {
        let mut m = DistMatrix::new(3);
        m.set(0, 1, 1);
        m.set(1, 2, 1);
        m.set(0, 2, 100); // violates via k=1
        assert!(m.check_triangle_sampled(10_000, 42).is_some());
        // A consistent matrix passes.
        m.set(0, 2, 2);
        assert!(m.check_triangle_sampled(10_000, 42).is_none());
    }

    #[test]
    #[should_panic]
    fn from_raw_rejects_bad_len() {
        DistMatrix::from_raw(2, vec![0; 3]);
    }
}
