//! BGL-Plus: the paper's multicore CPU baseline.
//!
//! "This implementation uses OpenMP to parallelize among different SSSP
//! instances, which are themselves using Dijkstra's algorithm
//! implementation from the popular Boost Graph Library." The Rust
//! equivalent runs the binary-heap Dijkstra of [`crate::dijkstra`] once
//! per source, with host workers claiming sources through
//! [`par_claim`].

use crate::dense::DistMatrix;
use crate::dijkstra::dijkstra_sssp_into;
use crate::parallel::{par_claim, sssp_work, ExecBackend};
use apsp_graph::{CsrGraph, Dist, VertexId};

/// Full APSP by one Dijkstra per source, sources in parallel.
pub fn bgl_plus_apsp(g: &CsrGraph) -> DistMatrix {
    let n = g.num_vertices();
    let mut m = DistMatrix::new(n);
    // Each source owns one row: disjoint rows parallelize without
    // synchronization, mirroring the OpenMP loop of the original.
    let mut rows: Vec<&mut [Dist]> = m.as_mut_slice().chunks_mut(n.max(1)).collect();
    let threads = ExecBackend::default().resolved_threads();
    par_claim(&mut rows, threads, sssp_work(n, g.num_edges()), |claims| {
        for (source, row) in claims {
            dijkstra_sssp_into(g, source as VertexId, row);
        }
    });
    m
}

/// APSP restricted to the given sources; returns one row per source in
/// input order. Used by the selector's batch-sampling cost model and by
/// tests that spot-check huge matrices.
pub fn bgl_plus_rows(g: &CsrGraph, sources: &[VertexId]) -> Vec<Vec<Dist>> {
    let mut rows = vec![Vec::new(); sources.len()];
    let threads = ExecBackend::default().resolved_threads();
    let work = sssp_work(g.num_vertices(), g.num_edges());
    par_claim(&mut rows, threads, work, |claims| {
        for (i, row) in claims {
            *row = crate::dijkstra::dijkstra_sssp(g, sources[i]);
        }
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_graph::generators::{gnp, grid_2d, GridOptions, WeightRange};
    use apsp_graph::{GraphBuilder, INF};

    #[test]
    fn matches_per_source_dijkstra() {
        let g = gnp(120, 0.05, WeightRange::default(), 3);
        let m = bgl_plus_apsp(&g);
        for s in [0u32, 7, 119] {
            assert_eq!(
                m.row(s as usize),
                &crate::dijkstra::dijkstra_sssp(&g, s)[..]
            );
        }
    }

    #[test]
    fn symmetric_graph_gives_symmetric_matrix() {
        let g = grid_2d(6, 6, GridOptions::default(), WeightRange::default(), 5);
        let m = bgl_plus_apsp(&g);
        for i in 0..36 {
            for j in 0..36 {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
    }

    #[test]
    fn satisfies_triangle_inequality() {
        let g = gnp(80, 0.08, WeightRange::default(), 9);
        let m = bgl_plus_apsp(&g);
        assert!(m.check_triangle_sampled(50_000, 1).is_none());
    }

    #[test]
    fn rows_subset_matches_full() {
        let g = gnp(60, 0.1, WeightRange::default(), 11);
        let full = bgl_plus_apsp(&g);
        let rows = bgl_plus_rows(&g, &[5, 0, 59]);
        assert_eq!(&rows[0][..], full.row(5));
        assert_eq!(&rows[1][..], full.row(0));
        assert_eq!(&rows[2][..], full.row(59));
    }

    #[test]
    fn empty_and_disconnected() {
        let empty = GraphBuilder::new(0).build();
        assert_eq!(bgl_plus_apsp(&empty).n(), 0);
        let iso = GraphBuilder::new(3).build();
        let m = bgl_plus_apsp(&iso);
        assert_eq!(m.get(0, 1), INF);
        assert_eq!(m.get(1, 1), 0);
    }
}
