//! Device Bellman-Ford SSSP — the related-work baseline.
//!
//! Many earlier GPU APSP efforts build on Bellman-Ford (\[5\], \[6\], \[16\],
//! \[34\] in the paper): maximal parallelism (every edge relaxes
//! independently each round) but redundant work, since vertices are
//! processed in arbitrary order. This kernel exists to quantify that
//! trade-off against the Near-Far kernel the paper adopts
//! (`repro ablation-sssp`).

use crate::model::{BYTES_PER_RELAXATION, OPS_PER_RELAXATION, THREADS_PER_BLOCK};
use apsp_gpu_sim::{GpuDevice, KernelCost, LaunchConfig, StreamId};
use apsp_graph::{dist_add, CsrGraph, Dist, VertexId, INF};

/// Statistics from a device Bellman-Ford run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BellmanFordStats {
    /// Rounds until convergence.
    pub rounds: u64,
    /// Total edge relaxations attempted (every edge, every round — the
    /// redundancy the delta-stepping family eliminates).
    pub relaxations: u64,
}

/// Run Bellman-Ford from `source` on the device: one kernel launch per
/// round, each round relaxing every edge in parallel (fully regular, so
/// no irregularity divisor — BF's weakness is work volume, not access
/// pattern).
pub fn bellman_ford_device(
    dev: &mut GpuDevice,
    stream: StreamId,
    g: &CsrGraph,
    source: VertexId,
) -> (Vec<Dist>, BellmanFordStats) {
    let n = g.num_vertices();
    assert!((source as usize) < n, "source out of range");
    let m = g.num_edges();
    let mut dist = vec![INF; n];
    dist[source as usize] = 0;
    let mut stats = BellmanFordStats::default();
    let blocks = ((m.div_ceil(THREADS_PER_BLOCK as usize)) as u32).max(1);
    for _ in 0..n.max(1) {
        stats.rounds += 1;
        stats.relaxations += m as u64;
        let mut changed = false;
        for v in 0..n as VertexId {
            let dv = dist[v as usize];
            if dv >= INF {
                continue;
            }
            for (u, w) in g.edges_from(v) {
                let nd = dist_add(dv, w);
                if nd < dist[u as usize] {
                    dist[u as usize] = nd;
                    changed = true;
                }
            }
        }
        // One edge-parallel kernel per round.
        dev.launch(
            stream,
            "bellman_ford",
            LaunchConfig::new(blocks, THREADS_PER_BLOCK),
            KernelCost::regular(
                m as f64 * OPS_PER_RELAXATION,
                m as f64 * BYTES_PER_RELAXATION,
            ),
        );
        if !changed {
            break;
        }
    }
    (dist, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_cpu::dijkstra_sssp;
    use apsp_gpu_sim::DeviceProfile;
    use apsp_graph::generators::{gnp, grid_2d, GridOptions, WeightRange};

    fn dev() -> GpuDevice {
        GpuDevice::new(DeviceProfile::v100())
    }

    #[test]
    fn matches_dijkstra() {
        let g = gnp(150, 0.04, WeightRange::new(1, 30), 3);
        let mut d = dev();
        let s = d.default_stream();
        let (dist, stats) = bellman_ford_device(&mut d, s, &g, 0);
        assert_eq!(dist, dijkstra_sssp(&g, 0));
        assert!(stats.rounds >= 1);
    }

    #[test]
    fn does_far_more_work_than_near_far_on_high_diameter_graphs() {
        let g = grid_2d(20, 20, GridOptions::default(), WeightRange::new(1, 9), 5);
        let mut d = dev();
        let s = d.default_stream();
        let (_, bf) = bellman_ford_device(&mut d, s, &g, 0);
        let (_, nf) = crate::near_far_sssp(&g, 0, 5, usize::MAX).unwrap();
        // BF relaxes all m edges per round for ~diameter rounds.
        assert!(
            bf.relaxations > 4 * nf.total_relaxations(),
            "BF {} vs Near-Far {}",
            bf.relaxations,
            nf.total_relaxations()
        );
    }

    #[test]
    fn rounds_bounded_by_hop_diameter_plus_one() {
        // Path graph 0→1→…→9 in CSR order: one sweep settles everything,
        // plus one round to detect convergence.
        let mut b = apsp_graph::GraphBuilder::new(10);
        for v in 0..9u32 {
            b.add_edge(v, v + 1, 2);
        }
        let g = b.build();
        let mut d = dev();
        let s = d.default_stream();
        let (dist, stats) = bellman_ford_device(&mut d, s, &g, 0);
        assert_eq!(dist[9], 18);
        assert!(stats.rounds <= 3, "rounds = {}", stats.rounds);
    }

    #[test]
    fn charges_one_kernel_per_round() {
        let g = gnp(60, 0.1, WeightRange::default(), 7);
        let mut d = dev();
        let s = d.default_stream();
        let (_, stats) = bellman_ford_device(&mut d, s, &g, 0);
        let report = d.report();
        assert_eq!(report.kernels["bellman_ford"].launches, stats.rounds);
    }
}
