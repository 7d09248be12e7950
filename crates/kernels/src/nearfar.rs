//! Near-Far SSSP (Davidson et al. \[11\]) with work accounting.
//!
//! The simplification of delta-stepping the paper adopts for its GPU SSSP:
//! two queues. Vertices whose tentative distance falls below the current
//! threshold go to the *Near* queue and are processed now; the rest wait
//! in the *Far* queue. When Near drains, the threshold advances by Δ and
//! Far is split against it.
//!
//! Every relaxation and queue operation is counted in [`NearFarStats`];
//! the MSSP kernel converts those counts into modeled device time, so the
//! simulated cost of Johnson's algorithm responds to the input graph's
//! structure exactly the way the paper observes (per-batch times stable
//! within ~2–13%).

use apsp_graph::{dist_add, CsrGraph, Dist, VertexId, INF};

/// Work counters from one Near-Far SSSP run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NearFarStats {
    /// Edge relaxations attempted from vertices of "normal" out-degree.
    pub relaxations: u64,
    /// Edge relaxations attempted from high-out-degree vertices (the ones
    /// the dynamic-parallelism child kernels take over).
    pub heavy_relaxations: u64,
    /// Number of Near-queue drain iterations (kernel re-launches in the
    /// real implementation).
    pub near_iterations: u64,
    /// Number of threshold advances (Far-queue splits).
    pub far_splits: u64,
    /// Vertices that were classified heavy at least once.
    pub heavy_vertices: u64,
}

impl NearFarStats {
    /// Total relaxations of both classes.
    pub fn total_relaxations(&self) -> u64 {
        self.relaxations + self.heavy_relaxations
    }

    /// Merge counters (for batch totals).
    pub fn merge(&mut self, other: &NearFarStats) {
        self.relaxations += other.relaxations;
        self.heavy_relaxations += other.heavy_relaxations;
        self.near_iterations += other.near_iterations;
        self.far_splits += other.far_splits;
        self.heavy_vertices += other.heavy_vertices;
    }
}

/// Near-Far SSSP from `source` with bucket width `delta`. Edges leaving a
/// vertex with out-degree `> heavy_degree_threshold` are tallied as heavy
/// relaxations (`u64::MAX` disables the distinction).
pub fn near_far_sssp(
    g: &CsrGraph,
    source: VertexId,
    delta: Dist,
    heavy_degree_threshold: usize,
) -> (Vec<Dist>, NearFarStats) {
    let mut scratch = NearFarScratch::new(g.num_vertices());
    let stats = near_far_core(
        g,
        source,
        delta,
        heavy_degree_threshold,
        &mut scratch,
        false,
    );
    (scratch.dist, stats)
}

/// [`near_far_sssp`] that additionally records the shortest-path tree:
/// `parents[v]` is the predecessor of `v` on a shortest path from
/// `source` (`VertexId::MAX` for the source itself and for unreachable
/// vertices). The real kernel stores this with one extra `atomicExch`
/// per improving relaxation.
pub fn near_far_sssp_with_parents(
    g: &CsrGraph,
    source: VertexId,
    delta: Dist,
    heavy_degree_threshold: usize,
) -> (Vec<Dist>, Vec<VertexId>, NearFarStats) {
    let mut scratch = NearFarScratch::new(g.num_vertices());
    let stats = near_far_core(g, source, delta, heavy_degree_threshold, &mut scratch, true);
    (scratch.dist, scratch.parents, stats)
}

/// Reusable working state for repeated Near-Far runs over one graph.
///
/// A single SSSP instance needs six heap buffers (distances, parents,
/// three membership-flag arrays, two queues). Allocating them fresh per
/// source is fine for one-off calls, but a batched MSSP launch runs
/// hundreds of instances back to back — there the per-source malloc/free
/// churn is measurable against the ~tens-of-µs traversal itself, so the
/// optimized backends hold one scratch per worker and reset it between
/// sources. Resetting writes exactly the values fresh allocation would
/// (`INF` / `VertexId::MAX` / `false` / empty queues), so a reused run
/// is bit-identical to a fresh one by construction.
pub struct NearFarScratch {
    dist: Vec<Dist>,
    parents: Vec<VertexId>,
    heavy_seen: Vec<bool>,
    in_near: Vec<bool>,
    in_far: Vec<bool>,
    near: Vec<VertexId>,
    far: Vec<VertexId>,
    frontier: Vec<VertexId>,
}

impl NearFarScratch {
    /// Scratch for a graph of `n` vertices.
    pub fn new(n: usize) -> Self {
        NearFarScratch {
            dist: vec![INF; n],
            parents: vec![VertexId::MAX; n],
            heavy_seen: vec![false; n],
            in_near: vec![false; n],
            in_far: vec![false; n],
            near: Vec::new(),
            far: Vec::new(),
            frontier: Vec::new(),
        }
    }

    /// The distance vector of the most recent run.
    pub fn dist(&self) -> &[Dist] {
        &self.dist
    }

    /// The parents vector of the most recent run (all `VertexId::MAX`
    /// unless that run tracked parents).
    pub fn parents(&self) -> &[VertexId] {
        &self.parents
    }

    /// Reset every buffer to its fresh-allocation state.
    fn reset(&mut self, track_parents: bool) {
        self.dist.fill(INF);
        if track_parents {
            self.parents.fill(VertexId::MAX);
        }
        self.heavy_seen.fill(false);
        self.in_near.fill(false);
        self.in_far.fill(false);
        self.near.clear();
        self.far.clear();
        self.frontier.clear();
    }
}

/// [`near_far_sssp`] into caller-provided scratch: identical traversal,
/// identical stats, no per-call allocation. Distances land in
/// `scratch.dist()` (and predecessors in `scratch.parents()` when
/// `track_parents` is set).
pub fn near_far_sssp_scratch(
    g: &CsrGraph,
    source: VertexId,
    delta: Dist,
    heavy_degree_threshold: usize,
    scratch: &mut NearFarScratch,
    track_parents: bool,
) -> NearFarStats {
    near_far_core(
        g,
        source,
        delta,
        heavy_degree_threshold,
        scratch,
        track_parents,
    )
}

fn near_far_core(
    g: &CsrGraph,
    source: VertexId,
    delta: Dist,
    heavy_degree_threshold: usize,
    scratch: &mut NearFarScratch,
    track_parents: bool,
) -> NearFarStats {
    let n = g.num_vertices();
    assert!((source as usize) < n, "source out of range");
    assert!(delta >= 1, "delta must be at least 1");
    assert_eq!(scratch.dist.len(), n, "scratch sized for a different graph");
    scratch.reset(track_parents);
    let NearFarScratch {
        dist,
        parents,
        heavy_seen,
        in_near,
        in_far,
        near,
        far,
        frontier,
    } = scratch;
    let mut parents = track_parents.then_some(parents);
    let mut stats = NearFarStats::default();
    dist[source as usize] = 0;
    near.push(source);
    let mut threshold: Dist = delta;
    // Queue-membership flags: the GPU implementation dedups insertions
    // with per-vertex status words (an improved vertex already queued for
    // this pass is not enqueued again); without them every in-degree
    // improvement reprocesses the whole adjacency list and the work count
    // inflates several-fold on high-degree graphs.
    in_near[source as usize] = true;

    loop {
        // Drain the Near queue.
        while !near.is_empty() {
            stats.near_iterations += 1;
            frontier.clear();
            std::mem::swap(near, frontier);
            for &v in frontier.iter() {
                in_near[v as usize] = false;
                let dv = dist[v as usize];
                // Stale entries (distance advanced past the threshold by
                // the time we process them) are re-split into Far.
                if dv >= threshold {
                    if !in_far[v as usize] {
                        in_far[v as usize] = true;
                        far.push(v);
                    }
                    continue;
                }
                let deg = g.out_degree(v);
                let heavy = deg > heavy_degree_threshold;
                if heavy && !heavy_seen[v as usize] {
                    heavy_seen[v as usize] = true;
                    stats.heavy_vertices += 1;
                }
                for (u, w) in g.edges_from(v) {
                    if heavy {
                        stats.heavy_relaxations += 1;
                    } else {
                        stats.relaxations += 1;
                    }
                    let nd = dist_add(dv, w);
                    if nd < dist[u as usize] {
                        dist[u as usize] = nd;
                        if let Some(p) = parents.as_mut() {
                            p[u as usize] = v;
                        }
                        if nd < threshold {
                            if !in_near[u as usize] {
                                in_near[u as usize] = true;
                                near.push(u);
                            }
                        } else if !in_far[u as usize] {
                            in_far[u as usize] = true;
                            far.push(u);
                        }
                    }
                }
            }
        }
        if far.is_empty() {
            break;
        }
        // Advance the threshold and split Far.
        stats.far_splits += 1;
        threshold += delta;
        frontier.clear();
        std::mem::swap(far, frontier);
        for &v in frontier.iter() {
            in_far[v as usize] = false;
            let dv = dist[v as usize];
            if dv < threshold {
                if !in_near[v as usize] {
                    in_near[v as usize] = true;
                    near.push(v);
                }
            } else if dv < INF && !in_far[v as usize] {
                in_far[v as usize] = true;
                far.push(v);
            }
        }
        if near.is_empty() && far.is_empty() {
            break;
        }
    }
    stats
}

/// Default Δ for a graph: its mean edge weight (the heuristic the Near-Far
/// paper suggests).
pub fn default_delta(g: &CsrGraph) -> Dist {
    apsp_cpu::delta_stepping::default_delta(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_cpu::dijkstra_sssp;
    use apsp_graph::generators::{gnp, grid_2d, rmat, GridOptions, RmatParams, WeightRange};
    use apsp_graph::GraphBuilder;

    #[test]
    fn matches_dijkstra_on_random_graphs() {
        for seed in 0..5 {
            let g = gnp(150, 0.04, WeightRange::new(1, 40), seed);
            for s in [0u32, 75, 149] {
                let (d, _) = near_far_sssp(&g, s, 10, usize::MAX);
                assert_eq!(d, dijkstra_sssp(&g, s), "seed {seed} src {s}");
            }
        }
    }

    #[test]
    fn delta_does_not_change_results() {
        let g = grid_2d(8, 8, GridOptions::default(), WeightRange::new(1, 100), 2);
        let reference = dijkstra_sssp(&g, 0);
        for delta in [1, 7, 50, 101, 100_000] {
            let (d, _) = near_far_sssp(&g, 0, delta, usize::MAX);
            assert_eq!(d, reference, "delta {delta}");
        }
    }

    #[test]
    fn stats_count_real_work() {
        let g = gnp(100, 0.05, WeightRange::default(), 4);
        let (_, st) = near_far_sssp(&g, 0, 25, usize::MAX);
        // Reachable portion of a G(100, 0.05) is nearly everything, so at
        // least one relaxation per reachable edge endpoint.
        assert!(st.total_relaxations() > 100);
        assert!(st.near_iterations >= 1);
        assert_eq!(st.heavy_relaxations, 0); // disabled threshold
    }

    #[test]
    fn heavy_classification_targets_hubs() {
        let g = rmat(
            512,
            4096,
            RmatParams::scale_free(),
            WeightRange::default(),
            9,
        );
        let (_, st) = near_far_sssp(&g, 0, 25, 32);
        assert!(st.heavy_vertices > 0, "scale-free graphs have hubs");
        assert!(st.heavy_relaxations > 0);
        // Hubs are few but account for a disproportionate share of edges.
        assert!(st.heavy_vertices < 100);
    }

    #[test]
    fn small_delta_means_more_splits() {
        let g = grid_2d(10, 10, GridOptions::default(), WeightRange::new(1, 100), 7);
        let (_, fine) = near_far_sssp(&g, 0, 1, usize::MAX);
        let (_, coarse) = near_far_sssp(&g, 0, 10_000, usize::MAX);
        assert!(fine.far_splits > coarse.far_splits);
    }

    #[test]
    fn disconnected_and_trivial() {
        let g = GraphBuilder::new(3).build();
        let (d, st) = near_far_sssp(&g, 1, 5, usize::MAX);
        assert_eq!(d, vec![INF, 0, INF]);
        assert_eq!(st.total_relaxations(), 0);
    }

    #[test]
    fn zero_weight_edges() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0);
        b.add_edge(1, 2, 0);
        let g = b.build();
        let (d, _) = near_far_sssp(&g, 0, 3, usize::MAX);
        assert_eq!(d, vec![0, 0, 0]);
    }

    #[test]
    fn parents_form_a_consistent_tree() {
        let g = gnp(200, 0.04, WeightRange::new(1, 30), 41);
        let (dist, parents, _) = near_far_sssp_with_parents(&g, 5, 10, usize::MAX);
        assert_eq!(parents[5], u32::MAX, "source has no parent");
        for v in 0..200u32 {
            if v == 5 {
                continue;
            }
            let p = parents[v as usize];
            if dist[v as usize] >= apsp_graph::INF {
                assert_eq!(p, u32::MAX, "unreachable {v} must have no parent");
                continue;
            }
            // The parent edge must exist and be tight.
            let w = g.edge_weight(p, v).expect("parent edge exists");
            assert_eq!(
                dist[v as usize],
                dist[p as usize] + w,
                "parent edge to {v} is not on a shortest path"
            );
        }
    }

    #[test]
    fn parents_walk_back_to_source() {
        let g = grid_2d(9, 9, GridOptions::default(), WeightRange::new(1, 5), 6);
        let (dist, parents, _) = near_far_sssp_with_parents(&g, 0, 3, usize::MAX);
        // Follow parents from the far corner; must reach the source in
        // fewer than n steps with strictly decreasing distance.
        let mut v = 80u32;
        let mut steps = 0;
        while v != 0 {
            let p = parents[v as usize];
            assert!(p != u32::MAX);
            assert!(dist[p as usize] <= dist[v as usize]);
            v = p;
            steps += 1;
            assert!(steps <= 81, "parent chain cycles");
        }
    }
}
