//! Boundary Fiduccia–Mattheyses (FM) refinement of a bisection.
//!
//! A pass moves the best-gain vertex on the cut whose move keeps the
//! balance bound, locks it, repeats, then rolls back to the best prefix.
//! Candidates are the cut's vertices by id, then each moved vertex's
//! unqueued, unlocked neighbours in adjacency order; the earliest of equal
//! gains wins. A gain is `2·ext − deg`: `deg`, the weighted degree, is
//! computed once per [`refine`] call, and `ext`, the cut weight, is kept
//! by each move for its neighbours in O(deg), so a selection is one scan
//! at O(1) per candidate, where it was O(deg). That needs a
//! [`CoarseGraph`] without self-loops, with edge weights ≥ 1 (so on the
//! cut is `ext > 0`) and with u→v and v→u summing alike.
//! `kway::tests::assignments_match_the_pinned_digests` pins the partitions.

use crate::coarse::CoarseGraph;
use apsp_graph::VertexId;

/// A two-way split of a [`CoarseGraph`]: `side[v]` is 0 or 1.
#[derive(Debug, Clone)]
pub struct Bisection {
    /// Side of each vertex.
    pub side: Vec<u8>,
    /// Total vertex weight on side 0.
    pub weight0: u64,
    /// Total vertex weight on side 1.
    pub weight1: u64,
}

impl Bisection {
    /// Build from a side array.
    pub fn new(side: Vec<u8>, g: &CoarseGraph) -> Self {
        assert_eq!(side.len(), g.num_vertices());
        let weight0 = (side.iter().zip(&g.vertex_weight))
            .filter(|&(&s, _)| s == 0)
            .map(|(_, w)| w)
            .sum();
        Bisection {
            weight1: g.total_vertex_weight() - weight0,
            side,
            weight0,
        }
    }

    /// Cut weight of the bisection (each undirected edge counted once).
    pub fn cut(&self, g: &CoarseGraph) -> u64 {
        (0..g.num_vertices() as VertexId)
            .flat_map(|v| g.neighbors(v).map(move |(u, w)| (v, u, w)))
            .filter(|&(v, u, _)| u > v && self.side[u as usize] != self.side[v as usize])
            .map(|(_, _, w)| w)
            .sum()
    }

    /// Move `v` to the other side.
    fn flip(&mut self, g: &CoarseGraph, v: usize) {
        let vw = g.vertex_weight[v];
        if self.side[v] == 0 {
            self.weight0 -= vw;
            self.weight1 += vw;
        } else {
            self.weight1 -= vw;
            self.weight0 += vw;
        }
        self.side[v] = u8::from(self.side[v] == 0);
    }
}

/// A vertex in an FM pass's candidate list.
struct Candidate {
    v: VertexId,
    side: u8,
    weight: u64,
    /// `2·ext − deg`, or `i64::MIN` while off the cut or once locked, so
    /// the selection never takes it.
    gain: i64,
}

/// `Fm::slot` of a vertex not in the candidate list, and of a moved one.
const UNQUEUED: u32 = u32::MAX;
const LOCKED: u32 = u32::MAX - 1;

/// The arrays of FM passes over one graph, allocated once per [`refine`]
/// call (see the module doc).
struct Fm {
    deg: Vec<u64>,
    ext: Vec<u64>,
    /// The pass's tentative bisection.
    work: Bisection,
    /// Index of each vertex's entry in `candidates`, or `UNQUEUED` /
    /// `LOCKED`.
    slot: Vec<u32>,
    moves: Vec<VertexId>,
    candidates: Vec<Candidate>,
}

impl Fm {
    fn new(g: &CoarseGraph, bis: &Bisection) -> Self {
        let n = g.num_vertices();
        Fm {
            deg: (0..n as VertexId)
                .map(|v| g.neighbors(v).map(|(_, w)| w).sum())
                .collect(),
            ext: vec![0; n],
            work: bis.clone(),
            slot: vec![UNQUEUED; n],
            moves: Vec::new(),
            candidates: Vec::new(),
        }
    }

    /// The candidate gain of `v`. Every edge weight is at least 1, so
    /// `ext == 0` is off the cut, where no move is tried.
    fn gain(&self, v: usize) -> i64 {
        match self.ext[v] {
            0 => i64::MIN,
            ext => 2 * ext as i64 - self.deg[v] as i64,
        }
    }

    /// Append `v` to the candidate list.
    fn enqueue(&mut self, g: &CoarseGraph, v: usize) {
        self.slot[v] = self.candidates.len() as u32;
        self.candidates.push(Candidate {
            v: v as VertexId,
            side: self.work.side[v],
            weight: g.vertex_weight[v],
            gain: self.gain(v),
        });
    }

    /// One pass; see [`fm_pass`].
    fn pass(&mut self, g: &CoarseGraph, bis: &mut Bisection, max_side_weight: u64) -> u64 {
        let n = g.num_vertices();
        self.work.side.clone_from(&bis.side);
        (self.work.weight0, self.work.weight1) = (bis.weight0, bis.weight1);
        self.slot.fill(UNQUEUED);
        self.moves.clear();
        self.candidates.clear();
        let mut cum_gain: i64 = 0;
        let mut best_gain: i64 = 0;
        let mut best_prefix = 0usize;

        // Candidate worklist: only boundary vertices can improve the cut,
        // so each selection scans O(|boundary|) instead of O(n). Moves add
        // the moved vertex's neighbourhood back into the list.
        for v in 0..n {
            let side = &self.work.side;
            self.ext[v] = g
                .neighbors(v as VertexId)
                .filter(|&(u, _)| side[u as usize] != side[v])
                .map(|(_, w)| w)
                .sum();
            if self.ext[v] > 0 {
                self.enqueue(g, v);
            }
        }

        // Cap work per pass: FM converges in few moves; bounding the number
        // of tentative moves keeps a pass near-linear in the boundary size.
        let move_cap = n.min(self.candidates.len().max(64) * 4);
        for _ in 0..move_cap {
            // The best candidate on the cut whose move keeps balance; the
            // earliest wins a tie.
            let to = [self.work.weight1, self.work.weight0];
            let (mut best, mut best_gv) = (None, i64::MIN);
            for (i, c) in self.candidates.iter().enumerate() {
                if c.gain > best_gv && to[c.side as usize] + c.weight <= max_side_weight {
                    (best, best_gv) = (Some(i), c.gain);
                }
            }
            let Some(i) = best else { break };
            let v = self.candidates[i].v as usize;
            self.candidates[i].gain = i64::MIN;
            self.slot[v] = LOCKED;
            self.work.flip(g, v);
            self.moves.push(v as VertexId);
            // A locked vertex is never a candidate again, so only unlocked
            // neighbours need their cut weight kept.
            for (u, w) in g.neighbors(v as VertexId) {
                let u = u as usize;
                match self.slot[u] {
                    LOCKED => continue,
                    _ if self.work.side[u] == self.work.side[v] => self.ext[u] -= w,
                    _ => self.ext[u] += w,
                }
                match self.slot[u] {
                    UNQUEUED => self.enqueue(g, u),
                    s => self.candidates[s as usize].gain = self.gain(u),
                }
            }
            cum_gain += best_gv;
            if cum_gain > best_gain {
                best_gain = cum_gain;
                best_prefix = self.moves.len();
            }
            // Early stop: long negative streaks rarely recover.
            if cum_gain < best_gain - 64 {
                break;
            }
        }
        // Commit the best prefix (empty unless the cut improved).
        for &v in &self.moves[..best_prefix] {
            bis.flip(g, v as usize);
        }
        best_gain as u64
    }
}

/// One FM pass with hill climbing: tentatively move the best-gain boundary
/// vertex (subject to the balance bound), lock it, repeat; then roll back
/// to the best prefix. Returns the cut improvement (0 if none).
///
/// `max_side_weight` is the balance constraint: neither side may exceed it.
pub fn fm_pass(g: &CoarseGraph, bis: &mut Bisection, max_side_weight: u64) -> u64 {
    Fm::new(g, bis).pass(g, bis, max_side_weight)
}

/// Run FM passes until no pass improves the cut (bounded by `max_passes`).
pub fn refine(g: &CoarseGraph, bis: &mut Bisection, max_side_weight: u64, max_passes: usize) {
    let mut fm = Fm::new(g, bis);
    for _ in 0..max_passes {
        if fm.pass(g, bis, max_side_weight) == 0 {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_graph::generators::{grid_2d, GridOptions, WeightRange};
    use apsp_graph::GraphBuilder;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// FM gain of moving `v` to the other side: external − internal edge
    /// weight, from its adjacency list.
    fn gain(g: &CoarseGraph, side: &[u8], v: VertexId) -> i64 {
        let sv = side[v as usize];
        let mut gain = 0i64;
        for (u, w) in g.neighbors(v) {
            if side[u as usize] == sv {
                gain -= w as i64;
            } else {
                gain += w as i64;
            }
        }
        gain
    }

    /// The oracle: the FM pass before cut weights were kept, recomputing
    /// each candidate's gain and boundary test from its adjacency list on
    /// every move.
    fn oracle_fm_pass(g: &CoarseGraph, bis: &mut Bisection, max_side_weight: u64) -> u64 {
        let n = g.num_vertices();
        if n == 0 {
            return 0;
        }
        let mut side = bis.side.clone();
        let (mut w0, mut w1) = (bis.weight0, bis.weight1);
        let mut locked = vec![false; n];
        let mut moves: Vec<VertexId> = Vec::new();
        let mut cum_gain: i64 = 0;
        let mut best_gain: i64 = 0;
        let mut best_prefix = 0usize;
        let mut candidates: Vec<VertexId> = (0..n as VertexId)
            .filter(|&v| {
                g.neighbors(v)
                    .any(|(u, _)| side[u as usize] != side[v as usize])
            })
            .collect();
        let mut queued = vec![false; n];
        for &v in &candidates {
            queued[v as usize] = true;
        }
        let move_cap = n.min(candidates.len().max(64) * 4);
        for _ in 0..move_cap {
            let mut best: Option<(VertexId, i64)> = None;
            candidates.retain(|&v| !locked[v as usize]);
            for &v in &candidates {
                let vw = g.vertex_weight[v as usize];
                let feasible = if side[v as usize] == 0 {
                    w1 + vw <= max_side_weight
                } else {
                    w0 + vw <= max_side_weight
                };
                if !feasible {
                    continue;
                }
                let gv = gain(g, &side, v);
                let on_boundary = g
                    .neighbors(v)
                    .any(|(u, _)| side[u as usize] != side[v as usize]);
                if !on_boundary && gv <= 0 {
                    continue;
                }
                if best.is_none_or(|(_, bg)| gv > bg) {
                    best = Some((v, gv));
                }
            }
            let Some((v, gv)) = best else { break };
            let vw = g.vertex_weight[v as usize];
            if side[v as usize] == 0 {
                side[v as usize] = 1;
                w0 -= vw;
                w1 += vw;
            } else {
                side[v as usize] = 0;
                w1 -= vw;
                w0 += vw;
            }
            locked[v as usize] = true;
            moves.push(v);
            for (u, _) in g.neighbors(v) {
                if !locked[u as usize] && !queued[u as usize] {
                    queued[u as usize] = true;
                    candidates.push(u);
                }
            }
            cum_gain += gv;
            if cum_gain > best_gain {
                best_gain = cum_gain;
                best_prefix = moves.len();
            }
            if cum_gain < best_gain - 64 {
                break;
            }
        }
        if best_gain <= 0 {
            return 0;
        }
        for &v in &moves[..best_prefix] {
            bis.flip(g, v as usize);
        }
        best_gain as u64
    }

    /// A coarse graph on `n` vertices from `(a, b, w)` triples: no
    /// self-loops, each pair once per row in id order, with the summed
    /// weight in both directions.
    fn coarse_from_edges(
        n: usize,
        edges: &[(u32, u32, u64)],
        vertex_weight: &[u64],
    ) -> CoarseGraph {
        let mut rows: BTreeMap<(VertexId, VertexId), u64> = BTreeMap::new();
        for &(a, b, w) in edges {
            let (a, b) = (a % n as u32, b % n as u32);
            if a != b {
                *rows.entry((a, b)).or_default() += w;
                *rows.entry((b, a)).or_default() += w;
            }
        }
        let mut row_ptr = vec![0usize; n + 1];
        for &(a, _) in rows.keys() {
            row_ptr[a as usize + 1] += 1;
        }
        for v in 0..n {
            row_ptr[v + 1] += row_ptr[v];
        }
        CoarseGraph {
            row_ptr,
            col_idx: rows.keys().map(|&(_, b)| b).collect(),
            edge_weight: rows.values().copied().collect(),
            vertex_weight: vertex_weight[..n].to_vec(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The kept-cut-weight pass makes the oracle's moves: equal sides,
        /// side weights and gain after every pass of one `refine`-style
        /// loop, on random weighted graphs with random starting sides and a
        /// balance bound tight enough that some moves are infeasible.
        #[test]
        fn fm_pass_matches_the_oracle(
            n in 1usize..=48,
            edges in proptest::collection::vec((0u32..48, 0u32..48, 1u64..5), 0..200),
            vertex_weight in proptest::collection::vec(1u64..6, 48),
            sides in proptest::collection::vec(0u8..2, 48),
            slack in 0u64..6,
        ) {
            let g = coarse_from_edges(n, &edges, &vertex_weight);
            let bound = g.total_vertex_weight().div_ceil(2) + slack;
            let mut want = Bisection::new(sides[..n].to_vec(), &g);
            let mut got = want.clone();
            let mut fm = Fm::new(&g, &got);
            for pass in 0..6 {
                let want_gain = oracle_fm_pass(&g, &mut want, bound);
                let got_gain = fm.pass(&g, &mut got, bound);
                prop_assert_eq!(got_gain, want_gain, "pass {}", pass);
                prop_assert_eq!(&got.side, &want.side, "pass {}", pass);
                prop_assert_eq!((got.weight0, got.weight1), (want.weight0, want.weight1));
                if want_gain == 0 {
                    break;
                }
            }
        }
    }

    fn coarse_of(g: &apsp_graph::CsrGraph) -> CoarseGraph {
        CoarseGraph::from_graph(g)
    }

    #[test]
    fn fm_fixes_an_obviously_bad_split() {
        // Two cliques of 4 joined by one edge; start with a split that
        // cuts a clique in half.
        let mut b = GraphBuilder::new(8).symmetric(true);
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                b.add_edge(i, j, 1);
                b.add_edge(i + 4, j + 4, 1);
            }
        }
        b.add_edge(3, 4, 1);
        let g = coarse_of(&b.build());
        // Bad: {0,1,4,5} vs {2,3,6,7}.
        let side = vec![0, 0, 1, 1, 0, 0, 1, 1];
        let mut bis = Bisection::new(side, &g);
        let before = bis.cut(&g);
        refine(&g, &mut bis, 5, 10);
        let after = bis.cut(&g);
        assert!(after < before, "cut {before} -> {after}");
        // Ideal cut is the single bridge (weight 2 with both directions).
        assert!(after <= 2, "cut = {after}");
    }

    #[test]
    fn fm_respects_balance_bound() {
        let g = coarse_of(&grid_2d(
            8,
            8,
            GridOptions::default(),
            WeightRange::default(),
            1,
        ));
        let side: Vec<u8> = (0..64).map(|v| if v % 2 == 0 { 0 } else { 1 }).collect();
        let mut bis = Bisection::new(side, &g);
        let bound = 40;
        refine(&g, &mut bis, bound, 20);
        assert!(bis.weight0 <= bound && bis.weight1 <= bound);
        assert_eq!(bis.weight0 + bis.weight1, 64);
    }

    #[test]
    fn fm_never_worsens_cut() {
        let g = coarse_of(&grid_2d(
            10,
            10,
            GridOptions::default(),
            WeightRange::default(),
            3,
        ));
        // Left-half / right-half split is already good.
        let side: Vec<u8> = (0..100).map(|v| if v % 10 < 5 { 0 } else { 1 }).collect();
        let mut bis = Bisection::new(side, &g);
        let before = bis.cut(&g);
        refine(&g, &mut bis, 55, 10);
        assert!(bis.cut(&g) <= before);
    }

    #[test]
    fn bisection_weights_track_moves() {
        let mut b = GraphBuilder::new(3).symmetric(true);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        let g = coarse_of(&b.build());
        let bis = Bisection::new(vec![0, 1, 1], &g);
        assert_eq!(bis.weight0, 1);
        assert_eq!(bis.weight1, 2);
        assert_eq!(bis.cut(&g), 2); // edge 0-1 has multiplicity 2
    }

    #[test]
    fn empty_graph_is_a_noop() {
        let g = coarse_of(&apsp_graph::CsrGraph::empty(0));
        let mut bis = Bisection::new(vec![], &g);
        assert_eq!(fm_pass(&g, &mut bis, 10), 0);
    }
}
