//! In-core (blocked) Floyd-Warshall — the SuperFW analog and the dense
//! reference the out-of-core variants are checked against.

use crate::dense::DistMatrix;
use crate::parallel::{par_claim, relax_row_branchless, ExecBackend};
use apsp_graph::{dist_add, Dist, INF};

/// Textbook Floyd-Warshall, `O(n³)`, in place.
pub fn floyd_warshall(m: &mut DistMatrix) {
    let n = m.n();
    let data = m.as_mut_slice();
    for k in 0..n {
        for i in 0..n {
            // Row k relaxed against itself is a no-op (dist_add(dik, dkj)
            // >= dkj with dkk >= 0), so skip it before touching the data —
            // one intentional skip, not a side effect of the INF guard.
            if i == k {
                continue;
            }
            let dik = data[i * n + k];
            if dik >= apsp_graph::INF {
                continue;
            }
            // Split borrows: row k is read, row i is written.
            let (row_k_start, row_i_start) = (k * n, i * n);
            let (lo, hi) = if row_k_start < row_i_start {
                let (a, b) = data.split_at_mut(row_i_start);
                (&a[row_k_start..row_k_start + n], &mut b[..n])
            } else {
                let (a, b) = data.split_at_mut(row_k_start);
                let row_i = &mut a[row_i_start..row_i_start + n];
                (&b[..n], row_i)
            };
            let (row_k, row_i): (&[Dist], &mut [Dist]) = (lo, hi);
            for j in 0..n {
                let via = dist_add(dik, row_k[j]);
                if via < row_i[j] {
                    row_i[j] = via;
                }
            }
        }
    }
}

/// Min-plus update of one tile: `C[i][j] = min(C[i][j], A[i][k] + B[k][j])`
/// over the given rectangular extents, where each operand is a sub-matrix
/// of a row-major buffer with its own origin and row stride.
///
/// Safe in-place aliasing (C overlapping A or B) is permitted in the
/// blocked-FW stage ordering; the loop order (i, k, j) reads entries that
/// the same round may update, which is exactly the (correct) behaviour of
/// in-place Floyd-Warshall.
#[allow(clippy::too_many_arguments)]
pub fn minplus_tile(
    c: &mut [Dist],
    c_stride: usize,
    a: &[Dist],
    a_stride: usize,
    b: &[Dist],
    b_stride: usize,
    rows: usize,
    inner: usize,
    cols: usize,
) {
    for i in 0..rows {
        for k in 0..inner {
            let aik = a[i * a_stride + k];
            if aik >= apsp_graph::INF {
                continue;
            }
            let b_row = &b[k * b_stride..k * b_stride + cols];
            let c_row = &mut c[i * c_stride..i * c_stride + cols];
            for j in 0..cols {
                let via = dist_add(aik, b_row[j]);
                if via < c_row[j] {
                    c_row[j] = via;
                }
            }
        }
    }
}

/// Blocked Floyd-Warshall: `num_b × num_b` tiles of side `b`, three stages
/// per round (diagonal, pivot row+column, remainder), with the remainder
/// stage parallelized across tiles — the structure SuperFW and the GPU
/// versions share. Runs under the default execution backend; see
/// [`blocked_floyd_warshall_exec`] to choose one explicitly.
pub fn blocked_floyd_warshall(m: &mut DistMatrix, block: usize) {
    blocked_floyd_warshall_exec(m, block, ExecBackend::default());
}

/// [`blocked_floyd_warshall`] under an explicit execution backend.
///
/// Scalar runs the reference loops one tile at a time. Simd claims
/// stage-2 tile pairs and stage-3 block-rows across threads, with
/// branchless rows in stage 1 and the register-tiled kernel in stages 2
/// and 3. It is bit-identical to scalar because with a fixed pivot
/// order each stage-2 tile depends only on itself plus the (finalized,
/// unwritten) diagonal tile, and each stage-3 tile depends only on
/// itself plus the stage-2 pivot row and column panels — so tile
/// results cannot observe each other. Scalar updates a stage-2 tile in
/// place and Simd out of place, on a copy; the two agree because stage
/// 1 leaves the diagonal tile a Floyd-Warshall closure (DESIGN.md §10,
/// invariant 3). A matrix of one block is stage 1 alone, in both loop
/// nests.
pub fn blocked_floyd_warshall_exec(m: &mut DistMatrix, block: usize, exec: ExecBackend) {
    let n = m.n();
    if n == 0 {
        return;
    }
    let block = block.max(1).min(n);
    if exec.is_scalar() {
        blocked_scalar(m.as_mut_slice(), n, block);
    } else {
        blocked_rows(m.as_mut_slice(), n, block, exec);
    }
}

/// The scalar reference rounds, sequential.
fn blocked_scalar(data: &mut [Dist], n: usize, block: usize) {
    let num_b = n.div_ceil(block);
    let extent = |b_idx: usize| -> (usize, usize) {
        let start = b_idx * block;
        (start, (start + block).min(n) - start)
    };
    for kb in 0..num_b {
        let (ks, kl) = extent(kb);
        // Stage 1: diagonal tile — plain FW restricted to the tile.
        fw_tile(data, n, ks, kl);
        // Stage 2: pivot row and pivot column tiles, in place.
        for ib in (0..num_b).filter(|&ib| ib != kb) {
            let (is, il) = extent(ib);
            // A(k, i) = min(A(k, i), A(k, k) ⊗ A(k, i)) — in-place on the
            // B operand, the standard blocked-FW idiom.
            minplus_tile_raw(data, n, ks * n + is, ks * n + ks, ks * n + is, kl, kl, il);
            // A(i, k) = min(A(i, k), A(i, k) ⊗ A(k, k)) — in-place on A.
            minplus_tile_raw(data, n, is * n + ks, is * n + ks, ks * n + ks, il, kl, kl);
        }
        // Stage 3: remainder tiles, which read only the pivot panels.
        for ib in (0..num_b).filter(|&ib| ib != kb) {
            let (is, il) = extent(ib);
            for jb in (0..num_b).filter(|&jb| jb != kb) {
                let (js, jl) = extent(jb);
                minplus_tile_raw(data, n, is * n + js, is * n + ks, ks * n + js, il, kl, jl);
            }
        }
    }
}

/// The Simd rounds. Each round splits the matrix around the pivot
/// block-row; every stage hands workers `&mut` row segments.
fn blocked_rows(data: &mut [Dist], n: usize, block: usize, exec: ExecBackend) {
    let num_b = n.div_ceil(block);
    let threads = exec.resolved_threads();
    for kb in 0..num_b {
        let ks = kb * block;
        let kl = block.min(n - ks);
        let (above, rest) = data.split_at_mut(ks * n);
        let (pivot, below) = rest.split_at_mut(kl * n);
        // The pivot block-row as one list of row segments per tile.
        let mut tiles: Vec<Vec<&mut [Dist]>> = (0..num_b).map(|_| Vec::with_capacity(kl)).collect();
        for row in pivot.chunks_mut(n) {
            for (jb, seg) in row.chunks_mut(block).enumerate() {
                tiles[jb].push(seg);
            }
        }
        // Stage 1: the diagonal tile, then D, a packed copy of it.
        let mut diag = std::mem::take(&mut tiles[kb]);
        fw_rows(&mut diag);
        let d = diag.concat();
        // Stage 2: item `ib` pairs pivot-row tile (kb, ib) with
        // pivot-column tile (ib, kb); item `kb` stays empty, so the
        // worker count matches one item per block-row. D is closed, so
        // the scalar in-place updates equal these out-of-place products
        // on a copy C₀ of each tile (DESIGN.md §10, invariant 3).
        let mut pairs: Vec<_> = tiles.into_iter().map(|t| (t, Vec::new())).collect();
        let block_rows = above
            .chunks_mut(block * n)
            .chain(below.chunks_mut(block * n));
        for (ib, rows) in (0..num_b).filter(|&ib| ib != kb).zip(block_rows) {
            pairs[ib].1 = rows.chunks_mut(n).map(|r| &mut r[ks..ks + kl]).collect();
        }
        par_claim(&mut pairs, threads, 2 * kl * kl * block, |claims| {
            let mut bufs = Default::default();
            for (_, (row_tile, col_tile)) in claims {
                // C = min(C₀, D ⊗ C₀)
                out_of_place(row_tile, &mut bufs, |c, c0, _, cols| {
                    exec.minplus_tile(c, cols, &d, kl, c0, cols, kl, kl, cols)
                });
                // C = min(C₀, C₀ ⊗ D)
                out_of_place(col_tile, &mut bufs, |c, c0, rows, _| {
                    exec.minplus_tile(c, kl, c0, kl, &d, kl, rows, kl, kl)
                });
            }
        });
        // Stage 3: claim block-rows; the pivot block-row is a no-op
        // item, as in stage 2.
        let pivot = &*pivot;
        let mut rows: Vec<Option<&mut [Dist]>> = above.chunks_mut(block * n).map(Some).collect();
        rows.push(None);
        rows.extend(below.chunks_mut(block * n).map(Some));
        let work = (num_b - 1) * block * kl * block;
        par_claim(&mut rows, threads, work, |claims| {
            let mut a = Vec::new();
            for (_, band) in claims {
                let Some(band) = band else { continue };
                // A(ib, kb) is read by every tile of the block-row and
                // written by none, so copy it out of the rows C lives in.
                a.clear();
                for row in band.chunks(n) {
                    a.extend_from_slice(&row[ks..ks + kl]);
                }
                let il = band.len() / n;
                for jb in (0..num_b).filter(|&jb| jb != kb) {
                    let js = jb * block;
                    let jl = block.min(n - js);
                    let (c, b) = (&mut band[js..], &pivot[js..]);
                    exec.minplus_tile(c, n, &a, kl, b, n, il, kl, jl);
                }
            }
        });
    }
}

/// `rows[i]` mutably and `rows[k]` shared, for `i != k`.
fn row_pair<'a>(rows: &'a mut [&mut [Dist]], i: usize, k: usize) -> (&'a mut [Dist], &'a [Dist]) {
    if i < k {
        let (lo, hi) = rows.split_at_mut(k);
        (&mut *lo[i], &*hi[0])
    } else {
        let (lo, hi) = rows.split_at_mut(i);
        (&mut *hi[0], &*lo[k])
    }
}

/// Branchless [`fw_tile`] over the tile's row segments: for a fixed
/// pivot `k`, row `k` is invariant (`i == k` skipped), so rows `i != k`
/// relax against it with the vectorizable row kernel.
fn fw_rows(rows: &mut [&mut [Dist]]) {
    for k in 0..rows.len() {
        for i in 0..rows.len() {
            if i == k {
                continue;
            }
            let dik = rows[i][k];
            if dik >= INF {
                continue;
            }
            let (row_i, row_k) = row_pair(rows, i, k);
            relax_row_branchless(row_i, row_k, dik);
        }
    }
}

/// Stage 2's update of one `rows × cols` tile held as row segments, out
/// of place: `mul(c, c0, rows, cols)` reads `c0`, a packed copy of the
/// tile, and lowers `c`, a second copy, which is then written back. An
/// empty tile (the pivot block-row's own item) is left alone.
fn out_of_place(
    tile: &mut [&mut [Dist]],
    [c0, c]: &mut [Vec<Dist>; 2],
    mul: impl Fn(&mut [Dist], &[Dist], usize, usize),
) {
    let Some(cols) = tile.first().map(|row| row.len()) else {
        return;
    };
    c0.clear();
    for row in tile.iter() {
        c0.extend_from_slice(row);
    }
    c.clone_from(c0);
    mul(c, c0, tile.len(), cols);
    for (row, out) in tile.iter_mut().zip(c.chunks(cols)) {
        row.copy_from_slice(out);
    }
}

/// Like [`minplus_tile`] but all three operands live in one row-major
/// buffer (base offsets + shared stride). C may alias A or B in place,
/// as stage 2 does.
#[allow(clippy::too_many_arguments)]
fn minplus_tile_raw(
    data: &mut [Dist],
    stride: usize,
    c_base: usize,
    a_base: usize,
    b_base: usize,
    rows: usize,
    inner: usize,
    cols: usize,
) {
    for i in 0..rows {
        for k in 0..inner {
            let aik = data[a_base + i * stride + k];
            if aik >= apsp_graph::INF {
                continue;
            }
            for j in 0..cols {
                let via = dist_add(aik, data[b_base + k * stride + j]);
                let c = &mut data[c_base + i * stride + j];
                if via < *c {
                    *c = via;
                }
            }
        }
    }
}

/// Floyd-Warshall restricted to the square tile at `(start, start)` of
/// side `len` within a row-major `stride × stride` buffer.
fn fw_tile(data: &mut [Dist], stride: usize, start: usize, len: usize) {
    for k in 0..len {
        for i in 0..len {
            if i == k {
                continue;
            }
            let dik = data[(start + i) * stride + (start + k)];
            if dik >= apsp_graph::INF {
                continue;
            }
            for j in 0..len {
                let via = dist_add(dik, data[(start + k) * stride + (start + j)]);
                let c = &mut data[(start + i) * stride + (start + j)];
                if via < *c {
                    *c = via;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgl_plus::bgl_plus_apsp;
    use crate::parallel::claim_workers;
    use apsp_graph::generators::{gnp, grid_2d, GridOptions, WeightRange};
    use apsp_graph::GraphBuilder;
    use proptest::prelude::*;

    #[test]
    fn plain_fw_matches_dijkstra() {
        let g = gnp(60, 0.08, WeightRange::default(), 21);
        let mut m = DistMatrix::from_graph(&g);
        floyd_warshall(&mut m);
        assert_eq!(m, bgl_plus_apsp(&g));
    }

    #[test]
    fn blocked_matches_plain_various_blocks() {
        let g = gnp(53, 0.1, WeightRange::default(), 5); // prime n: ragged tiles
        let mut reference = DistMatrix::from_graph(&g);
        floyd_warshall(&mut reference);
        for block in [1, 7, 16, 53, 64] {
            let mut m = DistMatrix::from_graph(&g);
            blocked_floyd_warshall(&mut m, block);
            assert_eq!(m, reference, "block = {block}");
        }
    }

    #[test]
    fn blocked_on_grid() {
        let g = grid_2d(7, 8, GridOptions::default(), WeightRange::default(), 2);
        let mut m = DistMatrix::from_graph(&g);
        blocked_floyd_warshall(&mut m, 13);
        assert_eq!(m, bgl_plus_apsp(&g));
    }

    #[test]
    fn handles_unreachable_pairs() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 2);
        b.add_edge(2, 3, 3);
        let g = b.build();
        let mut m = DistMatrix::from_graph(&g);
        blocked_floyd_warshall(&mut m, 2);
        assert_eq!(m.get(0, 1), 2);
        assert_eq!(m.get(0, 2), INF);
        assert_eq!(m.get(3, 0), INF);
    }

    #[test]
    fn minplus_tile_basic() {
        // C (2×2) = min(C, A (2×2) ⊗ B (2×2)) with stride == cols.
        let a = vec![1, INF, INF, 1];
        let b = vec![5, 6, 7, 8];
        let mut c = vec![INF; 4];
        minplus_tile(&mut c, 2, &a, 2, &b, 2, 2, 2, 2);
        assert_eq!(c, vec![6, 7, 8, 9]);
    }

    #[test]
    fn blocked_exec_backends_bit_identical() {
        let g = gnp(53, 0.1, WeightRange::default(), 11); // prime n: ragged tiles
        for block in [7, 16, 53] {
            let mut scalar = DistMatrix::from_graph(&g);
            blocked_floyd_warshall_exec(&mut scalar, block, ExecBackend::Scalar);
            for exec in [
                ExecBackend::Simd { threads: Some(1) },
                ExecBackend::Simd { threads: Some(3) },
            ] {
                let mut fast = DistMatrix::from_graph(&g);
                blocked_floyd_warshall_exec(&mut fast, block, exec);
                assert_eq!(fast, scalar, "block {block}, {exec}");
            }
        }
    }

    /// 5 and 10 blocks of 64 (`fw_device_exec`'s tile): stages 2 and 3
    /// split across 2 and 3 workers.
    #[test]
    fn blocked_exec_dispatched_matches_scalar_bitwise() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [320usize, 600] {
            let num_b = n.div_ceil(64);
            assert!(claim_workers(num_b, 2, 2 * 64 * 64 * 64) > 1);
            assert!(claim_workers(num_b, 2, (num_b - 1) * 64 * 64 * 64) > 1);
            let g = gnp(n, 8.0 / n as f64, WeightRange::default(), n as u64);
            let cells = (0..n * n)
                .map(|_| match next() % 8 {
                    0 => INF,
                    1 => INF + (next() % 1000) as Dist,
                    2 => u32::MAX,
                    _ => (next() % 5000) as Dist,
                })
                .collect();
            for input in [DistMatrix::from_graph(&g), DistMatrix::from_raw(n, cells)] {
                let mut scalar = input.clone();
                blocked_floyd_warshall_exec(&mut scalar, 64, ExecBackend::Scalar);
                for threads in [2, 3] {
                    let exec = ExecBackend::Simd {
                        threads: Some(threads),
                    };
                    let mut fast = input.clone();
                    blocked_floyd_warshall_exec(&mut fast, 64, exec);
                    assert!(fast == scalar, "n = {n}, {exec}");
                }
            }
        }
    }

    /// Cell (0, 2), above `INF`, sits in round 0's pivot-row tile. Row 0
    /// reaches it only through the left update's `k == i` step (its
    /// diagonal cell (0, 1) is `INF`), which clamps it to `INF`; every
    /// later step that reads it sees `INF` or skips it.
    #[test]
    fn left_update_clamps_pivot_row_cells_above_inf() {
        let input = vec![
            0,
            INF,
            INF + 5,
            INF, //
            3,
            0,
            7,
            2, //
            INF,
            1,
            0,
            4, //
            6,
            INF,
            2,
            0,
        ];
        let expected = vec![
            0, INF, INF, INF, //
            3, 0, 4, 2, //
            4, 1, 0, 3, //
            6, 3, 2, 0,
        ];
        for exec in [
            ExecBackend::Scalar,
            ExecBackend::Simd { threads: Some(1) },
            ExecBackend::Simd { threads: Some(2) },
        ] {
            let mut m = DistMatrix::from_raw(4, input.clone());
            blocked_floyd_warshall_exec(&mut m, 2, exec);
            assert_eq!(m.as_slice(), &expected[..], "{exec}");
        }
    }

    /// A cell drawn from {0, small, `INF − 1`, `INF`, `INF + k`,
    /// `u32::MAX`}, small three times in eight.
    fn boundary_cell() -> impl Strategy<Value = Dist> {
        (0u32..8, 1u32..1000).prop_map(|(kind, v)| match kind {
            0 => 0,
            1 => INF - 1,
            2 => INF,
            3 => INF + v,
            4 => u32::MAX,
            _ => v,
        })
    }

    proptest! {
        /// Stage 2 on the tile kernel, out of place: Simd at 1, 2 and 3
        /// threads equals the scalar in-place rounds bit for bit, with
        /// ragged last blocks, blocks of n or more, and cells at the
        /// `INF` boundary on and off the diagonal. About one row in four
        /// is dead, every cell but its diagonal at or above `INF`: only
        /// the diagonal's `k == i` term clamps such a row's cells above
        /// `INF`, so the test sees whether D keeps its diagonal.
        #[test]
        fn simd_stage_two_matches_scalar_on_boundary_cells(
            n in 1usize..=200,
            block in 1usize..=70,
            cells in proptest::collection::vec(boundary_cell(), 200 * 200),
            dead in proptest::collection::vec(0u32..4, 200),
        ) {
            let mut cells = cells[..n * n].to_vec();
            for (i, row) in cells.chunks_mut(n).enumerate().filter(|(i, _)| dead[*i] == 0) {
                for (_, cell) in row.iter_mut().enumerate().filter(|(j, c)| *j != i && **c < INF) {
                    *cell = INF + *cell % 64;
                }
            }
            let input = DistMatrix::from_raw(n, cells);
            let mut scalar = input.clone();
            blocked_floyd_warshall_exec(&mut scalar, block, ExecBackend::Scalar);
            for threads in 1..=3 {
                let exec = ExecBackend::Simd { threads: Some(threads) };
                let mut fast = input.clone();
                blocked_floyd_warshall_exec(&mut fast, block, exec);
                prop_assert!(fast == scalar, "n = {}, block = {}, {}", n, block, exec);
            }
        }
    }

    #[test]
    fn empty_and_trivial_matrices() {
        for exec in [ExecBackend::Scalar, ExecBackend::simd()] {
            let mut m = DistMatrix::new(0);
            blocked_floyd_warshall_exec(&mut m, 8, exec);
            assert_eq!(m.n(), 0);
            let mut one = DistMatrix::new(1);
            blocked_floyd_warshall_exec(&mut one, 8, exec);
            assert_eq!(one.get(0, 0), 0, "{exec}");
        }
    }

    #[test]
    fn zero_weight_cycles() {
        let mut b = GraphBuilder::new(3).symmetric(true);
        b.add_edge(0, 1, 0);
        b.add_edge(1, 2, 0);
        let g = b.build();
        let mut m = DistMatrix::from_graph(&g);
        blocked_floyd_warshall(&mut m, 2);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m.get(i, j), 0);
            }
        }
    }
}
