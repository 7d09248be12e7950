//! Tiled min-plus matrix multiply on the device.
//!
//! `C = min(C, A ⊗ B)` where `(A ⊗ B)[i][j] = min_k A[i][k] + B[k][j]` —
//! the paper's Stage 2/3 update and the boundary algorithm's two chained
//! multiplications. The modeled cost follows the classic shared-memory
//! tiling \[14\]: every operand tile is staged through shared memory once
//! per use, giving DRAM traffic `≈ 4 bytes · (r·i + i·c) · ⌈other/T⌉ +
//! 8 bytes · r·c` for tile side `T`.

use crate::matrix::DeviceMatrix;
use crate::model::{MINPLUS_TILE, THREADS_PER_BLOCK};
use apsp_cpu::parallel::{minplus_tile_exec, ExecBackend};
use apsp_gpu_sim::{GpuDevice, KernelCost, LaunchConfig, StreamId};

/// Modeled cost of one min-plus multiply of shape `rows × inner × cols`.
pub fn minplus_cost(rows: usize, inner: usize, cols: usize) -> KernelCost {
    let (r, i, c) = (rows as f64, inner as f64, cols as f64);
    let flops = r * i * c;
    let t = MINPLUS_TILE as f64;
    // A tiles reloaded once per column-tile of C; B tiles once per
    // row-tile of C; C read+written once. Tile counts are whole tiles:
    // a 1.5-tile extent still stages two tiles, hence the ceil before
    // the ≥1 floor (plain `(x/t).max(1.0)` under-charged every extent
    // that isn't a multiple of T).
    let bytes =
        4.0 * (r * i * (c / t).ceil().max(1.0) + i * c * (r / t).ceil().max(1.0)) + 8.0 * r * c;
    KernelCost::regular(flops, bytes)
}

/// Launch configuration for a min-plus multiply: one block per output
/// tile.
pub fn minplus_launch(rows: usize, cols: usize) -> LaunchConfig {
    let tiles = rows.div_ceil(MINPLUS_TILE) * cols.div_ceil(MINPLUS_TILE);
    LaunchConfig::new((tiles as u32).max(1), THREADS_PER_BLOCK)
}

/// `C = min(C, A ⊗ B)` between three distinct device matrices, under an
/// explicit execution backend. Because the operands are distinct
/// allocations, the Simd backend bands output rows freely; results are
/// bit-identical across backends. A pure product `C = A ⊗ B` is this
/// kernel on an all-`INF` C.
///
/// # Panics
///
/// Panics on dimension mismatch.
pub fn minplus_kernel_exec(
    dev: &mut GpuDevice,
    stream: StreamId,
    c: &mut DeviceMatrix,
    a: &DeviceMatrix,
    b: &DeviceMatrix,
    exec: ExecBackend,
) {
    assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
    assert_eq!(c.rows(), a.rows(), "C row mismatch");
    assert_eq!(c.cols(), b.cols(), "C column mismatch");
    let (rows, inner, cols) = (a.rows(), a.cols(), b.cols());
    minplus_tile_exec(
        c.as_mut_slice(),
        cols,
        a.as_slice(),
        inner,
        b.as_slice(),
        cols,
        rows,
        inner,
        cols,
        exec,
    );
    dev.launch(
        stream,
        "minplus",
        minplus_launch(rows, cols),
        minplus_cost(rows, inner, cols),
    );
}

/// In-place pivot-row update `C = min(C, A ⊗ C)` where `A` is square with
/// side `C.rows()`, under an explicit execution backend: blocked
/// Floyd-Warshall's stage 2 for the pivot row.
///
/// **Precondition:** `A` is a Floyd-Warshall closure, as stage 1 leaves
/// it (`A[i][k] ⊕ A[k][l] ≥ A[i][l]` for every finite `A[i][k]`).
///
/// Scalar runs the in-place `(i, k, j)` reference loop, whose row `i`
/// reads rows `k` already improved in the same call. Simd runs the
/// out-of-place product on a copy of C through
/// [`minplus_tile_exec`], the register-tiled kernel stage 3 uses. An
/// improved row the loop reads only adds a path through two pivot
/// steps, `A[i][k] ⊕ A[k][l]`, which the closure makes no shorter than
/// the one step `A[i][l]` the product already takes. So both reach the
/// same minimum, bit for bit; for an arbitrary `A` they differ.
pub fn minplus_left_inplace_exec(
    dev: &mut GpuDevice,
    stream: StreamId,
    c: &mut DeviceMatrix,
    a: &DeviceMatrix,
    exec: ExecBackend,
) {
    assert_eq!(a.rows(), a.cols(), "pivot operand must be square");
    assert_eq!(a.cols(), c.rows(), "inner dimension mismatch");
    let (rows, cols) = (c.rows(), c.cols());
    inplace_update(c.as_mut_slice(), a.as_slice(), rows, cols, true, exec);
    dev.launch(
        stream,
        "minplus_pivot",
        minplus_launch(rows, cols),
        minplus_cost(rows, rows, cols),
    );
}

/// In-place pivot-column update `C = min(C, C ⊗ B)` where `B` is square
/// with side `C.cols()`, under an explicit execution backend: blocked
/// Floyd-Warshall's stage 2 for the pivot column.
///
/// **Precondition:** `B` is a Floyd-Warshall closure, as stage 1 leaves
/// it. Scalar runs the in-place reference loop, whose row `i` reads its
/// own cells already improved in the same call; Simd runs the
/// out-of-place product on a copy of C. They agree bit for bit under
/// the precondition, for the reason [`minplus_left_inplace_exec`] gives.
pub fn minplus_right_inplace_exec(
    dev: &mut GpuDevice,
    stream: StreamId,
    c: &mut DeviceMatrix,
    b: &DeviceMatrix,
    exec: ExecBackend,
) {
    assert_eq!(b.rows(), b.cols(), "pivot operand must be square");
    assert_eq!(c.cols(), b.rows(), "inner dimension mismatch");
    let (rows, cols) = (c.rows(), c.cols());
    inplace_update(c.as_mut_slice(), b.as_slice(), rows, cols, false, exec);
    dev.launch(
        stream,
        "minplus_pivot",
        minplus_launch(rows, cols),
        minplus_cost(rows, cols, cols),
    );
}

/// Shared host loop for the two in-place variants. `left` selects
/// `C = min(C, P ⊗ C)` (P square of side `rows`); otherwise
/// `C = min(C, C ⊗ P)` (P square of side `cols`).
///
/// P must be a Floyd-Warshall closure: only then does the Simd product
/// on a copy `c0` of C equal the scalar in-place loops.
///
/// - Left masks P's diagonal to `INF`, mirroring the loop's `k == i`
///   skip: the `P[i][i] = 0` term would otherwise clamp a cell of C
///   above `INF` that the loop leaves alone.
/// - Right keeps P's diagonal: that term adds `P[k][k]` to `c0[i][k]`
///   itself, so it never moves a cell.
fn inplace_update(
    c: &mut [u32],
    p: &[u32],
    rows: usize,
    cols: usize,
    left: bool,
    exec: ExecBackend,
) {
    use apsp_graph::{dist_add, INF};
    if exec.is_scalar() {
        if left {
            for i in 0..rows {
                for k in 0..rows {
                    let pik = p[i * rows + k];
                    if pik >= INF || i == k {
                        continue;
                    }
                    for j in 0..cols {
                        let via = dist_add(pik, c[k * cols + j]);
                        if via < c[i * cols + j] {
                            c[i * cols + j] = via;
                        }
                    }
                }
            }
        } else {
            for i in 0..rows {
                for k in 0..cols {
                    let cik = c[i * cols + k];
                    if cik >= INF {
                        continue;
                    }
                    for j in 0..cols {
                        if j == k {
                            continue;
                        }
                        let via = dist_add(cik, p[k * cols + j]);
                        if via < c[i * cols + j] {
                            c[i * cols + j] = via;
                        }
                    }
                }
            }
        }
        return;
    }
    let c0 = c.to_vec();
    if left {
        let mut p_masked = p.to_vec();
        p_masked.iter_mut().step_by(rows + 1).for_each(|d| *d = INF);
        minplus_tile_exec(c, cols, &p_masked, rows, &c0, cols, rows, rows, cols, exec);
    } else {
        minplus_tile_exec(c, cols, &c0, cols, p, cols, rows, cols, cols, exec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_cpu::blocked_fw::floyd_warshall;
    use apsp_cpu::dense::DistMatrix;
    use apsp_cpu::parallel::claim_workers;
    use apsp_gpu_sim::DeviceProfile;
    use apsp_graph::INF;
    use proptest::prelude::*;

    /// The backends that must match `Scalar` bit for bit.
    const FAST: [ExecBackend; 3] = [
        ExecBackend::Simd { threads: Some(1) },
        ExecBackend::Simd { threads: Some(2) },
        ExecBackend::Simd { threads: Some(3) },
    ];

    fn dev() -> GpuDevice {
        GpuDevice::new(DeviceProfile::v100())
    }

    /// The `n × n` tile `p` closed by the scalar reference Floyd-Warshall.
    fn fw_closed(n: usize, p: Vec<u32>) -> Vec<u32> {
        let mut m = DistMatrix::from_raw(n, p);
        floyd_warshall(&mut m);
        m.into_inner()
    }

    /// One in-place panel update on a fresh device: the result and the
    /// device clock it charged.
    fn run_panel(
        left: bool,
        p: &[u32],
        rows: usize,
        cols: usize,
        c: &[u32],
        exec: ExecBackend,
    ) -> (Vec<u32>, f64) {
        let mut d = dev();
        let s = d.default_stream();
        let side = if left { rows } else { cols };
        let p = mat(&d, side, side, p);
        let mut c = mat(&d, rows, cols, c);
        if left {
            minplus_left_inplace_exec(&mut d, s, &mut c, &p, exec);
        } else {
            minplus_right_inplace_exec(&mut d, s, &mut c, &p, exec);
        }
        (c.as_slice().to_vec(), d.synchronize().seconds())
    }

    /// A cell at the `INF` boundary about half the time: `INF`,
    /// `INF ± k`, `u32::MAX`, or else a small weight.
    fn boundary_cell() -> impl Strategy<Value = u32> {
        (0u32..8, 0u32..1000).prop_map(|(kind, v)| match kind {
            0 => INF,
            1 => INF - 1 - v % 64,
            2 => INF + 1 + v % 64,
            3 => u32::MAX - v % 2,
            _ => v,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The fast panels equal the scalar in-place loops whenever the
        /// pivot is a Floyd-Warshall closure, whatever the pivot started
        /// as (about one diagonal in ten at `1 << 30`, above `INF`) and
        /// whatever C holds: on a ragged shape, and on one that splits
        /// into row bands on 2 and 3 threads.
        #[test]
        fn fast_panels_match_scalar_on_closed_pivots(
            shape in (1usize..40, 1usize..40),
            cells in proptest::collection::vec(boundary_cell(), 256 * 256 + 256 * 128),
            corrupt in proptest::collection::vec(0u32..10, 256),
        ) {
            prop_assert!(claim_workers(256, 2, 256 * 128) > 1);
            prop_assert!(claim_workers(256, 2, 128 * 128) > 1);
            for (rows, cols) in [shape, (256, 128)] {
                let c = &cells[cells.len() - rows * cols..];
                for left in [true, false] {
                    let side = if left { rows } else { cols };
                    let mut p = cells[..side * side].to_vec();
                    for d in (0..side).filter(|&d| corrupt[d] == 0) {
                        p[d * side + d] = 1 << 30;
                    }
                    let p = fw_closed(side, p);
                    let scalar = run_panel(left, &p, rows, cols, c, ExecBackend::Scalar);
                    for exec in FAST {
                        prop_assert_eq!(
                            run_panel(left, &p, rows, cols, c, exec),
                            scalar.clone(),
                            "{} left={} at {}x{}",
                            exec,
                            left,
                            rows,
                            cols
                        );
                    }
                }
            }
        }
    }

    fn mat(d: &GpuDevice, rows: usize, cols: usize, vals: &[u32]) -> DeviceMatrix {
        let mut m = DeviceMatrix::alloc_inf(d, rows, cols).unwrap();
        m.as_mut_slice().copy_from_slice(vals);
        m
    }

    #[test]
    fn small_product_matches_hand_computation() {
        let mut d = dev();
        let s = d.default_stream();
        let a = mat(&d, 2, 2, &[1, INF, INF, 1]);
        let b = mat(&d, 2, 2, &[5, 6, 7, 8]);
        let mut c = DeviceMatrix::alloc_inf(&d, 2, 2).unwrap();
        minplus_kernel_exec(&mut d, s, &mut c, &a, &b, ExecBackend::default());
        assert_eq!(c.as_slice(), &[6, 7, 8, 9]);
    }

    #[test]
    fn min_update_keeps_smaller_existing_values() {
        let mut d = dev();
        let s = d.default_stream();
        let a = mat(&d, 1, 1, &[10]);
        let b = mat(&d, 1, 1, &[10]);
        let mut c = mat(&d, 1, 1, &[3]);
        minplus_kernel_exec(&mut d, s, &mut c, &a, &b, ExecBackend::default());
        assert_eq!(c.get(0, 0), 3);
    }

    #[test]
    fn rectangular_shapes() {
        let mut d = dev();
        let s = d.default_stream();
        // 1×2 times 2×3.
        let a = mat(&d, 1, 2, &[1, 2]);
        let b = mat(&d, 2, 3, &[10, 20, 30, 100, 200, 300]);
        let mut c = DeviceMatrix::alloc_inf(&d, 1, 3).unwrap();
        minplus_kernel_exec(&mut d, s, &mut c, &a, &b, ExecBackend::default());
        assert_eq!(c.as_slice(), &[11, 21, 31]);
    }

    #[test]
    fn inf_is_absorbing() {
        let mut d = dev();
        let s = d.default_stream();
        let a = mat(&d, 1, 1, &[INF]);
        let b = mat(&d, 1, 1, &[1]);
        let mut c = DeviceMatrix::alloc_inf(&d, 1, 1).unwrap();
        minplus_kernel_exec(&mut d, s, &mut c, &a, &b, ExecBackend::default());
        assert_eq!(c.get(0, 0), INF);
    }

    #[test]
    fn charges_compute_time_scaling_cubically() {
        let time_for = |n: usize| -> f64 {
            let mut d = dev();
            let s = d.default_stream();
            let a = DeviceMatrix::alloc(&d, n, n).unwrap();
            let b = DeviceMatrix::alloc(&d, n, n).unwrap();
            let mut c = DeviceMatrix::alloc_inf(&d, n, n).unwrap();
            minplus_kernel_exec(&mut d, s, &mut c, &a, &b, ExecBackend::default());
            d.synchronize().seconds()
        };
        // Sizes chosen so both launches saturate the device (tile grids
        // past `saturating_blocks`), isolating the cubic flops term.
        let t512 = time_for(512);
        let t1024 = time_for(1024);
        let ratio = t1024 / t512;
        assert!((6.0..10.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn inplace_variants_match_explicit_product() {
        use apsp_cpu::blocked_fw::minplus_tile;
        let mut d = dev();
        let s = d.default_stream();
        // Random-ish small matrices.
        let pivot_vals: Vec<u32> = (0..16).map(|x| (x * 7 + 3) % 23 + 1).collect();
        let c_vals: Vec<u32> = (0..12).map(|x| (x * 5 + 1) % 19 + 1).collect();
        // Left: C (4×3) updated by P (4×4) ⊗ C — compare against repeated
        // explicit tile updates on a copy (in-place can only be ≤).
        let p = mat(&d, 4, 4, &pivot_vals);
        let mut c = mat(&d, 4, 3, &c_vals);
        let mut expect = c_vals.clone();
        minplus_left_inplace_exec(&mut d, s, &mut c, &p, ExecBackend::default());
        // The in-place result must dominate the one-shot product and be
        // dominated by the original.
        let mut one_shot = c_vals.clone();
        minplus_tile(&mut one_shot, 3, &pivot_vals, 4, &c_vals, 3, 4, 4, 3);
        for i in 0..12 {
            assert!(c.as_slice()[i] <= one_shot[i]);
            assert!(c.as_slice()[i] <= expect[i]);
            expect[i] = expect[i].min(one_shot[i]);
        }
    }

    #[test]
    fn inplace_left_converges_like_fw_panel() {
        // In blocked FW, repeating the in-place pivot update is idempotent
        // once converged.
        let mut d = dev();
        let s = d.default_stream();
        let p = mat(&d, 2, 2, &[0, 1, 1, 0]);
        let mut c = mat(&d, 2, 2, &[9, 9, 2, 9]);
        minplus_left_inplace_exec(&mut d, s, &mut c, &p, ExecBackend::default());
        let after_one: Vec<u32> = c.as_slice().to_vec();
        minplus_left_inplace_exec(&mut d, s, &mut c, &p, ExecBackend::default());
        assert_eq!(c.as_slice(), &after_one[..], "second pass changed data");
        // Row 0 must have picked up row 1's cheap entry through P[0][1]=1.
        assert_eq!(c.get(0, 0), 3);
    }

    #[test]
    fn exec_backends_bit_identical_all_variants() {
        // Random-ish operands with INF and cells above it sprinkled in.
        let vals = |len: usize, salt: u32| -> Vec<u32> {
            (0..len as u32)
                .map(|x| {
                    let v = x.wrapping_mul(2654435761).wrapping_add(salt);
                    match v % 6 {
                        0 => INF,
                        1 if v % 5 == 0 => INF + v % 64,
                        _ => v % 997,
                    }
                })
                .collect()
        };
        // A ragged shape, and one whose kernel and both panels split
        // into row bands on 2 and 3 threads.
        for (rows, inner, cols) in [(19usize, 23usize, 17usize), (256, 128, 128)] {
            if rows == 256 {
                assert!(claim_workers(rows, 2, inner * cols) > 1);
                assert!(claim_workers(rows, 2, rows * cols) > 1);
                assert!(claim_workers(rows, 2, cols * cols) > 1);
            }
            // Three-operand kernel.
            let run_kernel = |exec: ExecBackend| {
                let mut d = dev();
                let s = d.default_stream();
                let a = mat(&d, rows, inner, &vals(rows * inner, 1));
                let b = mat(&d, inner, cols, &vals(inner * cols, 2));
                let mut c = mat(&d, rows, cols, &vals(rows * cols, 3));
                minplus_kernel_exec(&mut d, s, &mut c, &a, &b, exec);
                (c.as_slice().to_vec(), d.synchronize().seconds())
            };
            let scalar = run_kernel(ExecBackend::Scalar);
            for e in FAST {
                assert_eq!(run_kernel(e), scalar, "kernel {e}");
            }
            // The panels' pivot is a Floyd-Warshall closure, as their
            // documented precondition asks.
            let p = fw_closed(rows, vals(rows * rows, 4));
            let c = vals(rows * cols, 5);
            let scalar = run_panel(true, &p, rows, cols, &c, ExecBackend::Scalar);
            for e in FAST {
                assert_eq!(run_panel(true, &p, rows, cols, &c, e), scalar, "left {e}");
            }
            let p = fw_closed(cols, vals(cols * cols, 6));
            let c = vals(rows * cols, 7);
            let scalar = run_panel(false, &p, rows, cols, &c, ExecBackend::Scalar);
            for e in FAST {
                assert_eq!(run_panel(false, &p, rows, cols, &c, e), scalar, "right {e}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn rejects_mismatched_shapes() {
        let mut d = dev();
        let s = d.default_stream();
        let a = DeviceMatrix::alloc(&d, 2, 3).unwrap();
        let b = DeviceMatrix::alloc(&d, 2, 2).unwrap();
        let mut c = DeviceMatrix::alloc_inf(&d, 2, 2).unwrap();
        minplus_kernel_exec(&mut d, s, &mut c, &a, &b, ExecBackend::default());
    }
}
