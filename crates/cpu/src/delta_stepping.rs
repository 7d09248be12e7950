//! Delta-stepping SSSP (Meyer & Sanders) — the Galois baseline's
//! algorithm, and the parent of the Near-Far scheme the GPU kernels use.

use crate::dense::DistMatrix;
use crate::parallel::{par_claim, sssp_work, ExecBackend};
use apsp_graph::{dist_add, CsrGraph, Dist, VertexId, INF};

/// Delta-stepping from `source` with bucket width `delta`.
///
/// Vertices are kept in buckets by `dist / delta`; the smallest non-empty
/// bucket is settled to a fixed point over its *light* edges (weight
/// < delta), then its *heavy* edges are relaxed once. With
/// `delta = max_weight + 1` this degenerates to Bellman-Ford-ish behaviour,
/// with `delta = 1` to Dijkstra-ish.
pub fn delta_stepping_sssp(g: &CsrGraph, source: VertexId, delta: Dist) -> Vec<Dist> {
    let n = g.num_vertices();
    assert!((source as usize) < n, "source out of range");
    assert!(delta >= 1, "delta must be at least 1");
    let mut dist = vec![INF; n];
    dist[source as usize] = 0;
    let bucket_of = |d: Dist| (d / delta) as usize;
    let mut buckets: Vec<Vec<VertexId>> = vec![Vec::new()];
    buckets[0].push(source);
    let mut current = 0usize;
    loop {
        // Find the next non-empty bucket.
        while current < buckets.len() && buckets[current].is_empty() {
            current += 1;
        }
        if current >= buckets.len() {
            break;
        }
        // Phase 1: settle light edges within the bucket to a fixed point.
        let mut frontier = std::mem::take(&mut buckets[current]);
        let mut settled: Vec<VertexId> = Vec::new();
        while !frontier.is_empty() {
            settled.extend_from_slice(&frontier);
            let mut next = Vec::new();
            for &v in &frontier {
                let dv = dist[v as usize];
                if bucket_of(dv) != current {
                    continue; // moved to a later bucket since insertion
                }
                for (u, w) in g.edges_from(v) {
                    if w >= delta {
                        continue;
                    }
                    let nd = dist_add(dv, w);
                    if nd < dist[u as usize] {
                        dist[u as usize] = nd;
                        let b = bucket_of(nd);
                        if b == current {
                            next.push(u);
                        } else {
                            push_bucket(&mut buckets, b, u);
                        }
                    }
                }
            }
            frontier = next;
        }
        // Phase 2: relax heavy edges of everything settled in this bucket.
        for &v in &settled {
            let dv = dist[v as usize];
            if dv >= INF {
                continue;
            }
            for (u, w) in g.edges_from(v) {
                if w < delta {
                    continue;
                }
                let nd = dist_add(dv, w);
                if nd < dist[u as usize] {
                    dist[u as usize] = nd;
                    push_bucket(&mut buckets, bucket_of(nd), u);
                }
            }
        }
        current += 1;
    }
    dist
}

fn push_bucket(buckets: &mut Vec<Vec<VertexId>>, b: usize, v: VertexId) {
    if b >= buckets.len() {
        buckets.resize_with(b + 1, Vec::new);
    }
    buckets[b].push(v);
}

/// Galois-style APSP: delta-stepping per source, sources in parallel.
pub fn galois_apsp(g: &CsrGraph, delta: Dist) -> DistMatrix {
    let n = g.num_vertices();
    let mut m = DistMatrix::new(n);
    let mut rows: Vec<&mut [Dist]> = m.as_mut_slice().chunks_mut(n.max(1)).collect();
    let threads = ExecBackend::default().resolved_threads();
    par_claim(&mut rows, threads, sssp_work(n, g.num_edges()), |claims| {
        for (source, row) in claims {
            row.copy_from_slice(&delta_stepping_sssp(g, source as VertexId, delta));
        }
    });
    m
}

/// The usual heuristic bucket width: average edge weight (≥ 1).
pub fn default_delta(g: &CsrGraph) -> Dist {
    let m = g.num_edges();
    if m == 0 {
        return 1;
    }
    let sum: u64 = g.weights().iter().map(|&w| w as u64).sum();
    ((sum / m as u64) as Dist).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra_sssp;
    use apsp_graph::generators::{gnp, grid_2d, GridOptions, WeightRange};

    #[test]
    fn matches_dijkstra_across_deltas() {
        let g = gnp(100, 0.05, WeightRange::new(1, 50), 31);
        let reference = dijkstra_sssp(&g, 0);
        for delta in [1, 5, 25, 51, 1000] {
            assert_eq!(
                delta_stepping_sssp(&g, 0, delta),
                reference,
                "delta {delta}"
            );
        }
    }

    #[test]
    fn grid_all_sources() {
        let g = grid_2d(5, 5, GridOptions::default(), WeightRange::new(1, 9), 7);
        let m = galois_apsp(&g, default_delta(&g));
        for s in 0..25u32 {
            assert_eq!(m.row(s as usize), &dijkstra_sssp(&g, s)[..], "source {s}");
        }
    }

    #[test]
    fn default_delta_is_mean_weight() {
        let g = gnp(50, 0.2, WeightRange::new(10, 10), 1);
        assert_eq!(default_delta(&g), 10);
        let empty = apsp_graph::GraphBuilder::new(3).build();
        assert_eq!(default_delta(&empty), 1);
    }

    #[test]
    fn zero_weight_edges_in_light_phase() {
        let mut b = apsp_graph::GraphBuilder::new(3);
        b.add_edge(0, 1, 0);
        b.add_edge(1, 2, 3);
        let g = b.build();
        assert_eq!(delta_stepping_sssp(&g, 0, 2), vec![0, 0, 3]);
    }

    #[test]
    #[should_panic(expected = "delta must be at least 1")]
    fn rejects_zero_delta() {
        let g = apsp_graph::GraphBuilder::new(1).build();
        delta_stepping_sssp(&g, 0, 0);
    }
}
