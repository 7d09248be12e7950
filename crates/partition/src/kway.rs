//! k-way partitioning via recursive multilevel bisection.

use crate::bisect::multilevel_bisect;
use crate::coarse::CoarseGraph;
use crate::partition::Partition;
use apsp_graph::{CsrGraph, VertexId};

/// Configuration for [`kway_partition`].
#[derive(Debug, Clone, Copy)]
pub struct PartitionConfig {
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig { seed: 0x9A17 }
    }
}

/// Partition `g` into `k` parts of near-equal size with small boundary,
/// using recursive multilevel bisection (each bisection splits the part's
/// target count `k` into `⌈k/2⌉ : ⌊k/2⌋` proportionally).
///
/// ```
/// use apsp_graph::generators::{grid_2d, GridOptions, WeightRange};
/// use apsp_partition::{kway_partition, PartitionConfig};
///
/// let g = grid_2d(16, 16, GridOptions::default(), WeightRange::default(), 1);
/// let p = kway_partition(&g, 4, &PartitionConfig::default());
/// assert_eq!(p.k(), 4);
/// assert!(p.imbalance() < 1.3);
/// // A planar grid has an O(√n) separator; the boundary stays small.
/// assert!(p.num_boundary_nodes(&g) < 100);
/// ```
pub fn kway_partition(g: &CsrGraph, k: usize, cfg: &PartitionConfig) -> Partition {
    assert!(k >= 1, "k must be positive");
    let n = g.num_vertices();
    if k == 1 || n == 0 {
        return Partition::trivial(n);
    }
    let coarse = CoarseGraph::from_graph(g);
    let vertices: Vec<VertexId> = (0..n as VertexId).collect();
    let mut assignment = vec![0u32; n];
    split(&coarse, &vertices, k, 0, cfg.seed, &mut assignment);
    Partition::new(assignment, k)
}

/// Recursively split the sub-coarse-graph induced by `vertices` (ids in
/// the *original* graph) into `k` parts starting at id `first_part`.
fn split(
    root: &CoarseGraph,
    vertices: &[VertexId],
    k: usize,
    first_part: u32,
    seed: u64,
    assignment: &mut [u32],
) {
    if k == 1 {
        for &v in vertices {
            assignment[v as usize] = first_part;
        }
        return;
    }
    let k0 = k.div_ceil(2);
    let k1 = k - k0;
    let fraction0 = k0 as f64 / k as f64;
    let sub = induce(root, vertices);
    let side = multilevel_bisect(&sub, fraction0, seed);
    let mut left = Vec::new();
    let mut right = Vec::new();
    for (i, &v) in vertices.iter().enumerate() {
        if side[i] == 0 {
            left.push(v);
        } else {
            right.push(v);
        }
    }
    // A degenerate empty side (possible on disconnected or tiny inputs)
    // must not collapse part ids: steal vertices to keep every part
    // non-empty when possible.
    rebalance_if_empty(&mut left, &mut right);
    split(
        root,
        &left,
        k0,
        first_part,
        seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1),
        assignment,
    );
    split(
        root,
        &right,
        k1,
        first_part + k0 as u32,
        seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(2),
        assignment,
    );
}

fn rebalance_if_empty(left: &mut Vec<VertexId>, right: &mut Vec<VertexId>) {
    if left.is_empty() && right.len() > 1 {
        let moved = right.split_off(right.len() / 2);
        *left = moved;
    } else if right.is_empty() && left.len() > 1 {
        let moved = left.split_off(left.len() / 2);
        *right = moved;
    }
}

/// Induce the coarse subgraph on `vertices` (sorted original ids),
/// relabelling to `0..len`.
fn induce(root: &CoarseGraph, vertices: &[VertexId]) -> CoarseGraph {
    let mut remap = vec![VertexId::MAX; root.num_vertices()];
    for (i, &v) in vertices.iter().enumerate() {
        remap[v as usize] = i as VertexId;
    }
    let mut row_ptr = Vec::with_capacity(vertices.len() + 1);
    row_ptr.push(0usize);
    let mut col_idx = Vec::new();
    let mut edge_weight = Vec::new();
    let mut vertex_weight = Vec::with_capacity(vertices.len());
    for &v in vertices {
        for (u, w) in root.neighbors(v) {
            let nu = remap[u as usize];
            if nu != VertexId::MAX {
                col_idx.push(nu);
                edge_weight.push(w);
            }
        }
        row_ptr.push(col_idx.len());
        vertex_weight.push(root.vertex_weight[v as usize]);
    }
    CoarseGraph {
        row_ptr,
        col_idx,
        edge_weight,
        vertex_weight,
    }
}

/// The paper sets the number of components to `√n / 4` for the boundary
/// algorithm's best performance (Section V-F); `√n` minimizes the cost
/// model's operation count (Section IV-B). This helper returns the paper's
/// default, clamped to at least 2.
pub fn default_num_components(n: usize) -> usize {
    (((n as f64).sqrt() / 4.0).round() as usize).max(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_graph::generators::{
        banded, gnp, grid_2d, random_geometric, rmat, GridOptions, RmatParams, WeightRange,
    };

    #[test]
    fn partitions_grid_with_small_boundary() {
        let g = grid_2d(24, 24, GridOptions::default(), WeightRange::default(), 1);
        let k = 8;
        let p = kway_partition(&g, k, &PartitionConfig::default());
        assert_eq!(p.k(), k);
        assert!(p.imbalance() < 1.35, "imbalance = {}", p.imbalance());
        let nb = p.num_boundary_nodes(&g);
        // Planar ideal ≈ √(k·n) = √(8·576) ≈ 68; allow slack ×3.
        assert!(nb < 204, "boundary nodes = {nb}");
        // Every part non-empty.
        assert!(p.part_sizes().iter().all(|&s| s > 0));
    }

    #[test]
    fn geometric_graphs_have_small_separators_rmat_does_not() {
        let n = 1024;
        let geo = random_geometric(n, 0.05, WeightRange::default(), 3);
        let scale_free = rmat(
            n,
            8 * n,
            RmatParams::scale_free(),
            WeightRange::default(),
            3,
        );
        let k = 8;
        let cfg = PartitionConfig::default();
        let nb_geo = kway_partition(&geo, k, &cfg).num_boundary_nodes(&geo);
        let nb_rmat = kway_partition(&scale_free, k, &cfg).num_boundary_nodes(&scale_free);
        assert!(
            nb_geo * 2 < nb_rmat,
            "geometric {nb_geo} should be far below rmat {nb_rmat}"
        );
    }

    #[test]
    fn k_equals_one_is_trivial() {
        let g = grid_2d(5, 5, GridOptions::default(), WeightRange::default(), 1);
        let p = kway_partition(&g, 1, &PartitionConfig::default());
        assert_eq!(p.k(), 1);
        assert_eq!(p.edge_cut(&g), 0);
    }

    #[test]
    fn odd_k_keeps_parts_nonempty() {
        let g = grid_2d(10, 10, GridOptions::default(), WeightRange::default(), 2);
        for k in [3, 5, 7] {
            let p = kway_partition(&g, k, &PartitionConfig::default());
            assert!(p.part_sizes().iter().all(|&s| s > 0), "k = {k}");
        }
    }

    #[test]
    fn handles_disconnected_graphs() {
        // Two disjoint grids glued into one vertex set.
        let a = grid_2d(6, 6, GridOptions::default(), WeightRange::default(), 1);
        let mut b = apsp_graph::GraphBuilder::new(72);
        for e in a.edges() {
            b.add_edge(e.src, e.dst, e.weight);
            b.add_edge(e.src + 36, e.dst + 36, e.weight);
        }
        let g = b.build();
        let p = kway_partition(&g, 4, &PartitionConfig::default());
        assert!(p.part_sizes().iter().all(|&s| s > 0));
        assert!(p.imbalance() < 1.6);
    }

    #[test]
    fn deterministic() {
        let g = grid_2d(12, 12, GridOptions::default(), WeightRange::default(), 4);
        let cfg = PartitionConfig::default();
        assert_eq!(
            kway_partition(&g, 6, &cfg).assignment(),
            kway_partition(&g, 6, &cfg).assignment()
        );
    }

    #[test]
    fn default_component_count_follows_paper() {
        // √10000 / 4 = 25.
        assert_eq!(default_num_components(10_000), 25);
        assert_eq!(default_num_components(4), 2);
    }

    /// FNV-1a over the assignment's little-endian `u32` bytes.
    fn digest(p: &Partition) -> u64 {
        p.assignment()
            .iter()
            .fold(apsp_graph::FNV_OFFSET_BASIS, |h, a| {
                apsp_graph::fnv1a(&a.to_le_bytes(), h)
            })
    }

    /// Every output check compares distance matrices, which do not depend
    /// on the partition, so this pins the partitions themselves: the
    /// callers' graphs (the benchmark's 48×48 grid, bench_kernels' gnp
    /// graph, `BoundaryModel::calibrate`'s training graphs, the selector's
    /// R-MAT) and two of this module's own. Recorded before the
    /// incremental-gain FM pass and the sort-free coarsening.
    #[test]
    fn assignments_match_the_pinned_digests() {
        let w = WeightRange::default;
        let grid48 = grid_2d(48, 48, GridOptions::default(), w(), 41001);
        let k576 = default_num_components(576);
        let mut cases = vec![
            (grid48.clone(), 8, 0xdba3bec65694c194),
            (grid48, 12, 0x8b50a07eba7586b5),
            (gnp(320, 0.06, w(), 0xBE7C), 4, 0xed465a29fdc1d665),
            (
                grid_2d(24, 24, GridOptions::default(), w(), 0xB0),
                k576,
                0x184ea96d058f91d5,
            ),
        ];
        let banded_digests = [
            0x1bc00b6a1e702ec1,
            0x7d05d26a2d2d00d1,
            0xcaf0cad382f02961,
            0x2827eee164abaa87,
        ];
        for ((bw_mult, fill), want) in [(2usize, 0.1f64), (6, 0.3), (12, 0.5), (24, 0.8)]
            .into_iter()
            .zip(banded_digests)
        {
            cases.push((banded(576, bw_mult * 4, 4, fill, w(), 0xB1), k576, want));
        }
        cases.push((
            rmat(2048, 16384, RmatParams::default(), w(), 3),
            11,
            0xc763da3c6bd02cff,
        ));
        cases.push((random_geometric(1024, 0.05, w(), 3), 8, 0x0dd70e83ea134ae1));
        cases.push((
            rmat(1024, 8192, RmatParams::scale_free(), w(), 3),
            5,
            0xc48a292186e79ff2,
        ));
        for (i, (g, k, want)) in cases.iter().enumerate() {
            let p = kway_partition(g, *k, &PartitionConfig::default());
            assert_eq!(
                digest(&p),
                *want,
                "case {i}: n = {}, k = {k}",
                g.num_vertices()
            );
        }
    }
}
