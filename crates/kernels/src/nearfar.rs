//! Near-Far SSSP (Davidson et al. \[11\]) with work accounting.
//!
//! The simplification of delta-stepping the paper adopts for its GPU SSSP:
//! two queues. Vertices whose tentative distance falls below the current
//! threshold go to the *Near* queue and are processed now; the rest wait
//! in the *Far* queue. When Near drains, the threshold advances by Δ and
//! Far is split against it.
//!
//! [`NearFarStats`] counts the relaxations (each processed vertex adds
//! its out-degree, to the heavy or the normal tally), the Near drains,
//! the Far splits and the heavy vertices. The MSSP kernel converts those
//! counts into modeled device time, so the simulated cost of Johnson's
//! algorithm responds to the input graph's structure exactly the way the
//! paper observes (per-batch times stable within ~2–13%).
//!
//! The host loop keeps one state byte per vertex (in Near, in Far, heavy
//! seen) and three fixed-capacity queues. On graphs of mean out-degree
//! below 12 (`BRANCH_FREE_MAX_MEAN_DEGREE`) the distance-only relax has
//! no data-dependent branch: it stores `min(nd, dist[u])`, computes both
//! push decisions as 0/1 values, writes the next slot of each queue and
//! advances each length by its decision. Denser graphs, where few
//! relaxations improve, and runs that record parents take a loop of its
//! own that branches on improvement.

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
    let stats = near_far_sssp_scratch(
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
    let stats = near_far_sssp_scratch(g, source, delta, heavy_degree_threshold, &mut scratch, true);
    (scratch.dist, scratch.parents, stats)
}

/// Reusable working state for repeated Near-Far runs over one graph.
///
/// A single SSSP instance needs six heap buffers: distances, parents, one
/// state byte per vertex, and the Near, Far and frontier queues.
/// Allocating them fresh per source is fine for one-off calls, but a
/// batched MSSP launch runs hundreds of instances back to back — there
/// the per-source malloc/free churn is measurable against the
/// ~tens-of-µs traversal itself, so MSSP holds one scratch per worker
/// on every backend and resets it between sources. Resetting writes
/// exactly the values fresh allocation would (`INF` / `VertexId::MAX` /
/// no state bits / empty queues), so a reused run is bit-identical to a
/// fresh one by construction.
pub struct NearFarScratch {
    dist: Vec<Dist>,
    parents: Vec<VertexId>,
    state: Vec<u8>,
    near: Queue,
    far: Queue,
    frontier: Queue,
}

/// State bit: the vertex is queued in Near, or still pending in the
/// frontier being drained.
const IN_NEAR: u8 = 1;
/// The vertex is queued in Far.
const IN_FAR: u8 = 2;
/// The vertex has already been counted in [`NearFarStats::heavy_vertices`].
const HEAVY_SEEN: u8 = 4;

/// Mean out-degree below which the distance-only relax runs branch-free.
/// The sparser the graph, the larger the share of relaxations that
/// improve their target (30% on the 48×48 grid, 15% on rmat(2048, 16384),
/// 8% on gnp(320, 0.06)), and the more often a branch on improvement
/// mispredicts. Measured single-threaded per source, the branch-free loop
/// is 1.7× faster at mean degree 3.9 (the grid), about even at 12.2, and
/// 20–23% slower at 15.4 and 19.4, where the branchy loop's predictable
/// skip beats its unconditional stores.
const BRANCH_FREE_MAX_MEAN_DEGREE: usize = 12;

/// A vertex queue with one slot per vertex plus a spare. A state bit
/// guards every push, so a vertex sits in each queue at most once, the
/// length never exceeds `n`, and a push can always write the slot at the
/// length and advance the length by its 0/1 decision.
struct Queue {
    slots: Vec<VertexId>,
    len: usize,
}

impl Queue {
    fn new(n: usize) -> Self {
        Queue {
            slots: vec![0; n + 1],
            len: 0,
        }
    }

    #[inline(always)]
    fn push_if(&mut self, v: VertexId, keep: bool) {
        self.slots[self.len] = v;
        self.len += usize::from(keep);
    }

    fn queued(&self) -> &[VertexId] {
        &self.slots[..self.len]
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl NearFarScratch {
    /// Scratch for a graph of `n` vertices.
    pub fn new(n: usize) -> Self {
        NearFarScratch {
            dist: vec![INF; n],
            parents: vec![VertexId::MAX; n],
            state: vec![0; n],
            near: Queue::new(n),
            far: Queue::new(n),
            frontier: Queue::new(n),
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
        self.state.fill(0);
        self.near.len = 0;
        self.far.len = 0;
        self.frontier.len = 0;
    }
}

/// [`near_far_sssp`] into caller-provided scratch, with no per-call
/// allocation. Distances land in `scratch.dist()` (and predecessors in
/// `scratch.parents()` when `track_parents` is set).
pub fn near_far_sssp_scratch(
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
    let branch_free =
        !track_parents && g.num_edges() < n.saturating_mul(BRANCH_FREE_MAX_MEAN_DEGREE);
    let NearFarScratch {
        dist,
        parents,
        state,
        near,
        far,
        frontier,
    } = scratch;
    let mut parents = track_parents.then_some(&mut parents[..]);
    let mut stats = NearFarStats::default();
    dist[source as usize] = 0;
    // Queue-membership bits: the GPU implementation dedups insertions
    // with per-vertex status words (an improved vertex already queued for
    // this pass is not enqueued again); without them every in-degree
    // improvement reprocesses the whole adjacency list and the work count
    // inflates several-fold on high-degree graphs.
    state[source as usize] = IN_NEAR;
    near.push_if(source, true);
    let mut threshold: Dist = delta;

    loop {
        // Drain the Near queue.
        while !near.is_empty() {
            stats.near_iterations += 1;
            std::mem::swap(near, frontier);
            near.len = 0;
            for &v in frontier.queued() {
                let s = state[v as usize] & !IN_NEAR;
                let dv = dist[v as usize];
                // Stale entries (distance advanced past the threshold by
                // the time we process them) are re-split into Far.
                if dv >= threshold {
                    far.push_if(v, s & IN_FAR == 0);
                    state[v as usize] = s | IN_FAR;
                    continue;
                }
                let (targets, weights) = g.neighbors(v);
                let deg = targets.len() as u64;
                if targets.len() > heavy_degree_threshold {
                    stats.heavy_vertices += u64::from(s & HEAVY_SEEN == 0);
                    stats.heavy_relaxations += deg;
                    state[v as usize] = s | HEAVY_SEEN;
                } else {
                    stats.relaxations += deg;
                    state[v as usize] = s;
                }
                if branch_free {
                    relax(dv, targets, weights, threshold, dist, state, near, far);
                } else {
                    relax_branchy(
                        v,
                        dv,
                        targets,
                        weights,
                        threshold,
                        dist,
                        parents.as_deref_mut(),
                        state,
                        near,
                        far,
                    );
                }
            }
        }
        if far.is_empty() {
            break;
        }
        // Advance the threshold and split Far.
        stats.far_splits += 1;
        threshold += delta;
        std::mem::swap(far, frontier);
        far.len = 0;
        for &v in frontier.queued() {
            let s = state[v as usize] & !IN_FAR;
            let dv = dist[v as usize];
            let to_near = dv < threshold && s & IN_NEAR == 0;
            // `v` just left Far, so only the distance decides re-queueing.
            let to_far = dv >= threshold && dv < INF;
            near.push_if(v, to_near);
            far.push_if(v, to_far);
            state[v as usize] = s | (u8::from(to_near) * IN_NEAR) | (u8::from(to_far) * IN_FAR);
        }
        if near.is_empty() && far.is_empty() {
            break;
        }
    }
    stats
}

/// Relax the out-edges `targets`/`weights` of a vertex at distance `dv`
/// with no data-dependent branch: every edge stores `min(nd, dist[u])`
/// and writes both queues' next slot, and the 0/1 push decisions advance
/// the queue lengths and set the state bits.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn relax(
    dv: Dist,
    targets: &[VertexId],
    weights: &[Dist],
    threshold: Dist,
    dist: &mut [Dist],
    state: &mut [u8],
    near: &mut Queue,
    far: &mut Queue,
) {
    for (&u, &w) in targets.iter().zip(weights) {
        let nd = dist_add(dv, w);
        let cur = dist[u as usize];
        dist[u as usize] = nd.min(cur);
        let improved = nd < cur;
        let near_side = nd < threshold;
        let s = state[u as usize];
        let to_near = improved & near_side & (s & IN_NEAR == 0);
        let to_far = improved & !near_side & (s & IN_FAR == 0);
        state[u as usize] = s | (u8::from(to_near) * IN_NEAR) | (u8::from(to_far) * IN_FAR);
        near.push_if(u, to_near);
        far.push_if(u, to_far);
    }
}

/// [`relax`] with a branch on improvement, for graphs at or above
/// [`BRANCH_FREE_MAX_MEAN_DEGREE`] and for runs that record parents:
/// with `parents` set, `v` becomes the parent of every vertex it
/// improves. It is a loop of its own because the parent store happens
/// only on improvement: a variant that kept that store inside the
/// branch-free loop behind a const-generic flag ran slower than the
/// branchy loop on both the grid and R-MAT.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn relax_branchy(
    v: VertexId,
    dv: Dist,
    targets: &[VertexId],
    weights: &[Dist],
    threshold: Dist,
    dist: &mut [Dist],
    mut parents: Option<&mut [VertexId]>,
    state: &mut [u8],
    near: &mut Queue,
    far: &mut Queue,
) {
    for (&u, &w) in targets.iter().zip(weights) {
        let nd = dist_add(dv, w);
        if nd < dist[u as usize] {
            dist[u as usize] = nd;
            if let Some(p) = parents.as_deref_mut() {
                p[u as usize] = v;
            }
            let s = state[u as usize];
            if nd < threshold {
                if s & IN_NEAR == 0 {
                    state[u as usize] = s | IN_NEAR;
                    near.push_if(u, true);
                }
            } else if s & IN_FAR == 0 {
                state[u as usize] = s | IN_FAR;
                far.push_if(u, true);
            }
        }
    }
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
    use apsp_graph::{fnv1a, GraphBuilder, FNV_OFFSET_BASIS};

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

    /// The graphs and settings of the pinned table, by name.
    fn pinned_case(name: &str) -> (CsrGraph, Vec<VertexId>, Dist, usize) {
        let rmat_graph = || {
            rmat(
                2048,
                16384,
                RmatParams::default(),
                WeightRange::default(),
                1,
            )
        };
        let grid_graph = || grid_2d(48, 48, GridOptions::default(), WeightRange::default(), 1);
        let gnp_graph = || gnp(150, 0.04, WeightRange::new(1, 40), 0);
        let first_64: Vec<VertexId> = (0..64).collect();
        match name {
            "rmat" => {
                let g = rmat_graph();
                let delta = default_delta(&g);
                (g, first_64, delta, usize::MAX)
            }
            "rmat-heavy32" => {
                let g = rmat_graph();
                let delta = default_delta(&g);
                (g, first_64, delta, 32)
            }
            "grid" => {
                let g = grid_graph();
                let delta = default_delta(&g);
                (g, first_64, delta, usize::MAX)
            }
            "gnp-delta1" | "gnp-delta10" | "gnp-delta100000" => {
                let delta = name["gnp-delta".len()..].parse().unwrap();
                (gnp_graph(), (0..150).collect(), delta, usize::MAX)
            }
            "gnp-dense" => {
                let g = gnp(150, 0.2, WeightRange::new(1, 40), 0);
                (g, (0..150).collect(), 10, 32)
            }
            "zero-weights-unreachable" => {
                // 0..5 is one strongly connected part joined by zero-weight
                // edges; 5..8 is a second one that 0..5 cannot reach.
                let mut b = GraphBuilder::new(8);
                for (u, v, w) in [
                    (0, 1, 0),
                    (1, 2, 0),
                    (2, 0, 3),
                    (1, 3, 5),
                    (3, 2, 0),
                    (3, 4, 0),
                    (4, 0, 1),
                    (0, 4, 7),
                    (5, 6, 2),
                    (6, 7, 0),
                    (7, 5, 0),
                    (6, 0, 4),
                ] {
                    b.add_edge(u, v, w);
                }
                (b.build(), (0..8).collect(), 2, 1)
            }
            _ => unreachable!("no pinned case {name}"),
        }
    }

    /// FNV-1a over the little-endian bytes of `values`, continuing `hash`.
    fn fnv1a_le(values: &[u32], hash: u64) -> u64 {
        values.iter().fold(hash, |h, v| fnv1a(&v.to_le_bytes(), h))
    }

    /// Run every source of one pinned case on one reused scratch: the
    /// summed counters, the FNV-1a of the distance rows in source order,
    /// and that of the parents rows (0 when `track_parents` is off).
    fn pinned_run(name: &str, track_parents: bool) -> ([u64; 5], u64, u64) {
        let (g, sources, delta, heavy) = pinned_case(name);
        let mut scratch = NearFarScratch::new(g.num_vertices());
        let mut total = NearFarStats::default();
        let mut dist_fnv = FNV_OFFSET_BASIS;
        let mut parents_fnv = if track_parents { FNV_OFFSET_BASIS } else { 0 };
        for &s in &sources {
            let st = near_far_sssp_scratch(&g, s, delta, heavy, &mut scratch, track_parents);
            total.merge(&st);
            dist_fnv = fnv1a_le(scratch.dist(), dist_fnv);
            if track_parents {
                parents_fnv = fnv1a_le(scratch.parents(), parents_fnv);
            }
        }
        let NearFarStats {
            relaxations,
            heavy_relaxations,
            near_iterations,
            far_splits,
            heavy_vertices,
        } = total;
        (
            [
                relaxations,
                heavy_relaxations,
                near_iterations,
                far_splits,
                heavy_vertices,
            ],
            dist_fnv,
            parents_fnv,
        )
    }

    /// Summed [`NearFarStats`] (relaxations, heavy relaxations, near
    /// iterations, far splits, heavy vertices), FNV-1a of the distance
    /// rows and FNV-1a of the parents rows, recorded from the
    /// branch-per-edge core that preceded the branch-free relax. Every
    /// case runs with and without parents on one reused scratch.
    const PINNED: [(&str, [u64; 5], u64, u64); 8] = [
        (
            "rmat",
            [2042678, 0, 1100, 193, 0],
            0x8b84bb03cd5c6769,
            0x001a933475a4a404,
        ),
        (
            "rmat-heavy32",
            [1467001, 575677, 1100, 193, 4416],
            0x8b84bb03cd5c6769,
            0x001a933475a4a404,
        ),
        (
            "grid",
            [667815, 0, 10566, 2856, 0],
            0xb22b2086ac2235b6,
            0x276cfe2a881fc714,
        ),
        (
            "gnp-delta1",
            [138308, 0, 7332, 11914, 0],
            0xc19be6e2484cd3eb,
            0xe2483e6cc53a577c,
        ),
        (
            "gnp-delta10",
            [159178, 0, 2607, 1122, 0],
            0xc19be6e2484cd3eb,
            0xb316510431d8bb79,
        ),
        (
            "gnp-delta100000",
            [218610, 0, 1400, 0, 0],
            0xc19be6e2484cd3eb,
            0xc272d74166dcd64a,
        ),
        (
            "gnp-dense",
            [647744, 369008, 1535, 238, 6750],
            0xb253697f5c486322,
            0xa343f4da802c4c1b,
        ),
        (
            "zero-weights-unreachable",
            [28, 56, 55, 32, 27],
            0x2f615533b4958b43,
            0xc46a103ed3408916,
        ),
    ];

    #[test]
    fn counters_and_rows_match_the_pinned_table() {
        // Every distance-only case but gnp-dense runs the branch-free
        // relax; gnp-dense and every run with parents run the branchy one.
        let (g, ..) = pinned_case("gnp-dense");
        assert!(g.num_edges() >= BRANCH_FREE_MAX_MEAN_DEGREE * g.num_vertices());
        let (g, ..) = pinned_case("rmat");
        assert!(g.num_edges() < BRANCH_FREE_MAX_MEAN_DEGREE * g.num_vertices());
        for (name, stats, dist_fnv, parents_fnv) in PINNED {
            assert_eq!(
                pinned_run(name, false),
                (stats, dist_fnv, 0),
                "{name} without parents"
            );
            assert_eq!(
                pinned_run(name, true),
                (stats, dist_fnv, parents_fnv),
                "{name} with parents"
            );
        }
    }
}
