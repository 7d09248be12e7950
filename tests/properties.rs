//! Property-based tests over the core data structures and invariants.

use apsp::core::apsp;
use apsp::core::options::{Algorithm, ApspOptions};
use apsp::cpu::{bgl_plus_apsp, dijkstra_sssp};
use apsp::gpu_sim::{DeviceProfile, GpuDevice};
use apsp::graph::{dist_add, CsrGraph, Edge, GraphBuilder, INF};
use apsp::kernels::near_far_sssp;
use apsp::partition::{kway_partition, PartitionConfig, PartitionLayout};
use proptest::prelude::*;

/// Arbitrary small weighted digraph: up to `n_max` vertices, edge list
/// with possible duplicates and self-loops (the builder must canonicalize
/// them all).
fn arb_graph(n_max: usize, m_max: usize) -> impl Strategy<Value = CsrGraph> {
    (2usize..n_max, 0usize..m_max)
        .prop_flat_map(|(n, m)| {
            let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 0u32..1000u32), m);
            (Just(n), edges)
        })
        .prop_map(|(n, edges)| {
            let mut b = GraphBuilder::new(n);
            for (s, d, w) in edges {
                b.add_edge(s, d, w);
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CSR construction canonicalizes: sorted rows, no duplicates, folded
    /// multi-edges keep the minimum weight.
    #[test]
    fn builder_canonicalizes(g in arb_graph(40, 200)) {
        prop_assert!(g.check_invariants().is_ok());
        // Rebuilding from the edge list is idempotent.
        let mut b = GraphBuilder::new(g.num_vertices());
        for Edge { src, dst, weight } in g.edges() {
            b.add_edge(src, dst, weight);
        }
        prop_assert_eq!(b.build(), g.clone());
        // Transposing twice is the identity.
        prop_assert_eq!(g.transpose().transpose(), g);
    }

    /// Dijkstra's output satisfies: zero at the source, triangle
    /// inequality over every edge, and tightness (every finite distance
    /// is witnessed by some incoming edge).
    #[test]
    fn dijkstra_is_a_fixed_point(g in arb_graph(36, 150), source_raw in 0u32..36) {
        let n = g.num_vertices() as u32;
        let source = source_raw % n;
        let dist = dijkstra_sssp(&g, source);
        prop_assert_eq!(dist[source as usize], 0);
        for e in g.edges() {
            // No edge can be relaxed further.
            prop_assert!(
                dist[e.dst as usize] <= dist_add(dist[e.src as usize], e.weight),
                "edge ({}, {}) violates triangle inequality", e.src, e.dst
            );
        }
        for v in 0..n {
            if v != source && dist[v as usize] < INF {
                // Witness: some in-edge achieves the distance.
                let witnessed = g.edges().any(|e| {
                    e.dst == v && dist_add(dist[e.src as usize], e.weight) == dist[v as usize]
                });
                prop_assert!(witnessed, "distance to {v} has no witness");
            }
        }
    }

    /// Near-Far equals Dijkstra for every delta.
    #[test]
    fn near_far_matches_dijkstra(
        g in arb_graph(32, 120),
        source_raw in 0u32..32,
        delta in 1u32..500,
    ) {
        let n = g.num_vertices() as u32;
        let source = source_raw % n;
        let (nf, _) = near_far_sssp(&g, source, delta, usize::MAX).unwrap();
        prop_assert_eq!(nf, dijkstra_sssp(&g, source));
    }

    /// k-way partitioning covers every vertex, respects k, and its
    /// boundary flags exactly mark cut-edge endpoints.
    #[test]
    fn partition_invariants(g in arb_graph(48, 200), k in 1usize..8) {
        let p = kway_partition(&g, k, &PartitionConfig::default());
        prop_assert_eq!(p.k(), k);
        prop_assert_eq!(p.num_vertices(), g.num_vertices());
        let layout = PartitionLayout::new(&g, &p);
        // Layout is a permutation partitioned into contiguous components.
        let mut seen = vec![false; g.num_vertices()];
        for i in 0..layout.num_components() {
            for v in layout.component_range(i) {
                let old = layout.old_of(v as u32) as usize;
                prop_assert!(!seen[old]);
                seen[old] = true;
                prop_assert_eq!(p.part_of(old as u32) as usize, i);
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        // Boundary definition: flag ⇔ incident to a cut edge.
        let flags = p.boundary_flags(&g);
        for (v, &flag) in flags.iter().enumerate() {
            let incident_cut = g.edges().any(|e| {
                (e.src as usize == v || e.dst as usize == v)
                    && p.part_of(e.src) != p.part_of(e.dst)
            });
            prop_assert_eq!(flag, incident_cut, "vertex {}", v);
        }
    }

    /// The full out-of-core pipeline (random algorithm, tiny device)
    /// equals the CPU reference on arbitrary graphs.
    #[test]
    fn out_of_core_apsp_matches_reference(
        g in arb_graph(28, 120),
        alg_pick in 0u8..3,
    ) {
        let algorithm = match alg_pick {
            0 => Algorithm::FloydWarshall,
            1 => Algorithm::Johnson,
            _ => Algorithm::Boundary,
        };
        let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(64 << 10));
        let opts = ApspOptions { algorithm: Some(algorithm), ..Default::default() };
        let result = apsp(&g, &mut dev, &opts);
        match result {
            Ok(r) => {
                let reference = bgl_plus_apsp(&g);
                prop_assert_eq!(r.store.to_dist_matrix().unwrap(), reference);
            }
            // A 64 KiB device may legitimately refuse; it must do so with
            // a structured sizing error, never a wrong answer.
            Err(e) => {
                let msg = e.to_string();
                prop_assert!(
                    msg.contains("device") || msg.contains("memory"),
                    "unexpected error: {}", msg
                );
            }
        }
    }

    /// APSP output is a metric closure: d(i,i)=0 and the triangle
    /// inequality holds for arbitrary sampled triples.
    #[test]
    fn apsp_is_metric_closure(g in arb_graph(30, 150), seed in 1u64..u64::MAX) {
        let m = bgl_plus_apsp(&g);
        for i in 0..g.num_vertices() {
            prop_assert_eq!(m.get(i, i), 0);
        }
        prop_assert!(m.check_triangle_sampled(5_000, seed).is_none());
    }
}
