//! Multilevel bisection: coarsen, initially partition, uncoarsen + refine.

use crate::coarse::CoarseGraph;
use crate::refine::{refine, Bisection};
use apsp_graph::VertexId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Options controlling one multilevel bisection.
#[derive(Debug, Clone, Copy)]
pub struct BisectOptions {
    /// Stop coarsening below this many vertices.
    pub coarsest_size: usize,
    /// Allowed imbalance: each side may hold up to
    /// `(its proportional share) · (1 + epsilon)` of the vertex weight.
    pub epsilon: f64,
    /// Number of random seeds tried for the initial partition.
    pub initial_tries: usize,
    /// FM passes per uncoarsening level.
    pub refine_passes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BisectOptions {
    fn default() -> Self {
        BisectOptions {
            coarsest_size: 64,
            epsilon: 0.05,
            initial_tries: 4,
            refine_passes: 4,
            seed: 0x5EED,
        }
    }
}

/// Bisect `g` so side 0 receives roughly `fraction0` of the total vertex
/// weight. Returns the per-vertex side array.
pub fn multilevel_bisect(g: &CoarseGraph, fraction0: f64, opts: &BisectOptions) -> Vec<u8> {
    assert!((0.0..=1.0).contains(&fraction0));
    let total = g.total_vertex_weight();
    if g.num_vertices() <= 1 || fraction0 == 0.0 || fraction0 == 1.0 {
        let side = if fraction0 == 0.0 { 1 } else { 0 };
        return vec![side; g.num_vertices()];
    }

    // Coarsening phase.
    let mut levels: Vec<CoarseGraph> = vec![g.clone()];
    let mut maps: Vec<Vec<VertexId>> = Vec::new();
    let mut round = 0u64;
    while levels.last().unwrap().num_vertices() > opts.coarsest_size {
        let cur = levels.last().unwrap();
        let (next, map) = cur.coarsen(opts.seed ^ round);
        round += 1;
        // Matching stalled (e.g. star graphs): stop coarsening.
        if next.num_vertices() as f64 > 0.95 * cur.num_vertices() as f64 {
            break;
        }
        levels.push(next);
        maps.push(map);
    }

    // Initial partition on the coarsest level: best of several greedy
    // BFS growths.
    let coarsest = levels.last().unwrap();
    let target0 = (total as f64 * fraction0).round() as u64;
    let max0 = balance_bound(target0, opts.epsilon, total);
    let max1 = balance_bound(total - target0, opts.epsilon, total);
    // FM takes one bound, so refine under the looser one; in practice
    // region growing starts feasible and FM preserves feasibility under it.
    let bound = max0.max(max1);
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0xC0A);
    let mut best: Option<(u64, Vec<u8>)> = None;
    for _ in 0..opts.initial_tries.max(1) {
        let side = grow_region(coarsest, target0, rng.gen());
        let mut bis = Bisection::new(side, coarsest);
        refine(coarsest, &mut bis, bound, opts.refine_passes);
        let cut = bis.cut(coarsest);
        if best.as_ref().is_none_or(|(bc, _)| cut < *bc) {
            best = Some((cut, bis.side));
        }
    }
    let mut side = best.unwrap().1;

    // Uncoarsening + refinement.
    for level in (0..maps.len()).rev() {
        let fine = &levels[level];
        let map = &maps[level];
        let mut fine_side = vec![0u8; fine.num_vertices()];
        for (v, &cv) in map.iter().enumerate() {
            fine_side[v] = side[cv as usize];
        }
        let mut bis = Bisection::new(fine_side, fine);
        refine(fine, &mut bis, bound, opts.refine_passes);
        side = bis.side;
    }
    side
}

fn balance_bound(target: u64, epsilon: f64, total: u64) -> u64 {
    (((target as f64) * (1.0 + epsilon)).ceil() as u64).min(total)
}

/// Greedy BFS region growing: start from a random vertex, absorb the BFS
/// frontier until side 0 holds `target0` weight.
fn grow_region(g: &CoarseGraph, target0: u64, seed: u64) -> Vec<u8> {
    let n = g.num_vertices();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut side = vec![1u8; n];
    let mut w0 = 0u64;
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    while w0 < target0 {
        if queue.is_empty() {
            // New BFS seed (graph may be disconnected).
            let unvisited: Vec<VertexId> = (0..n as VertexId)
                .filter(|&v| !visited[v as usize])
                .collect();
            let Some(&start) = unvisited.get(
                rng.gen_range(0..unvisited.len().max(1))
                    .min(unvisited.len().saturating_sub(1)),
            ) else {
                break;
            };
            visited[start as usize] = true;
            queue.push_back(start);
        }
        let Some(v) = queue.pop_front() else { break };
        side[v as usize] = 0;
        w0 += g.vertex_weight[v as usize];
        if w0 >= target0 {
            break;
        }
        for (u, _) in g.neighbors(v) {
            if !visited[u as usize] {
                visited[u as usize] = true;
                queue.push_back(u);
            }
        }
    }
    side
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_graph::generators::{grid_2d, GridOptions, WeightRange};

    fn grid_coarse(side: usize) -> CoarseGraph {
        CoarseGraph::from_graph(&grid_2d(
            side,
            side,
            GridOptions::default(),
            WeightRange::default(),
            1,
        ))
    }

    #[test]
    fn bisects_grid_near_optimally() {
        let g = grid_coarse(16); // 256 vertices
        let side = multilevel_bisect(&g, 0.5, &BisectOptions::default());
        let bis = Bisection::new(side, &g);
        // Balance within epsilon-ish.
        assert!(
            bis.weight0.abs_diff(bis.weight1) <= 26,
            "{:?}",
            (bis.weight0, bis.weight1)
        );
        // Optimal cut of a 16×16 grid is 16 edges (multiplicity 2 → 32);
        // multilevel should land within 2× of that.
        assert!(bis.cut(&g) <= 64, "cut = {}", bis.cut(&g));
    }

    #[test]
    fn respects_fraction() {
        let g = grid_coarse(12);
        let side = multilevel_bisect(&g, 0.25, &BisectOptions::default());
        let w0: u64 = side
            .iter()
            .enumerate()
            .filter(|(_, &s)| s == 0)
            .map(|(v, _)| g.vertex_weight[v])
            .sum();
        let frac = w0 as f64 / g.total_vertex_weight() as f64;
        assert!((0.18..0.33).contains(&frac), "fraction = {frac}");
    }

    #[test]
    fn degenerate_fractions() {
        let g = grid_coarse(4);
        assert!(multilevel_bisect(&g, 0.0, &BisectOptions::default())
            .iter()
            .all(|&s| s == 1));
        assert!(multilevel_bisect(&g, 1.0, &BisectOptions::default())
            .iter()
            .all(|&s| s == 0));
    }

    #[test]
    fn single_vertex() {
        let g = CoarseGraph::from_graph(&apsp_graph::CsrGraph::empty(1));
        let side = multilevel_bisect(&g, 0.5, &BisectOptions::default());
        assert_eq!(side.len(), 1);
    }

    #[test]
    fn deterministic_with_seed() {
        let g = grid_coarse(10);
        let opts = BisectOptions::default();
        let a = multilevel_bisect(&g, 0.5, &opts);
        let b = multilevel_bisect(&g, 0.5, &opts);
        assert_eq!(a, b);
    }
}
