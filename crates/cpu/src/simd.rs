//! Register-tiled SIMD min-plus micro-kernel.
//!
//! The disjoint-operand min-plus multiply
//! `C[i][j] = min(C[i][j], min_k A[i][k] ⊕ B[k][j])` is a pure lattice
//! reduction: `min` is associative, commutative, and idempotent, and the
//! addends `A[i][k] ⊕ B[k][j]` never depend on `C`. The final value of
//! every cell is therefore the *unique* pointwise minimum, independent
//! of any evaluation order — which licenses arbitrary re-tiling of the
//! `(i, k, j)` loops without changing a single output bit. This module
//! exploits that license with the classic GEMM register-tiling shape
//! (the same blocking the Lund multi-stage CUDA kernel and the
//! 3D-tensor FW reformulation use on the device):
//!
//! * an `MR × TILE_COLS` = 4 × 16 accumulator tile held in registers
//!   (eight 8-lane `u32` vectors under AVX2) that runs the whole `k`
//!   loop without touching `C`;
//! * **packed panels**: the `A` operand is repacked once per call into
//!   `MR`-row panels laid out `k`-major (so the micro-kernel reads one
//!   contiguous quad per `k`), and each 16-column `B` panel is packed
//!   contiguous per `k` — every cache line the inner loop touches is
//!   fully used;
//! * a **saturation-free inner loop**: packed entries are clamped to
//!   `INF` up front, after which `(a + b).min(INF)` over `u32` cannot
//!   wrap (`2·INF < 2³²`) and is *provably equal* to
//!   [`apsp_graph::dist_add`] for every input pair (see the
//!   `clamped_add_equals_dist_add` test below) — the inner loop is
//!   exactly one add and two unsigned mins per lane;
//! * a **scalar-equivalent tail**: rows beyond the last full `MR` panel
//!   and columns beyond the last full 16-wide panel run through the
//!   branchless row kernel ([`crate::parallel::relax_row_branchless`]),
//!   which is property-proven equal to the guarded scalar loop.
//!
//! The outer loop (packing, panel walk, tails) is shared; only the
//! per-tile micro-kernel is ISA-specific. Under the `simd` cargo feature
//! on x86-64 the hot micro-kernel is written in explicit stable
//! `std::arch` AVX2 intrinsics (`_mm256_add_epi32` + `_mm256_min_epu32`
//! over eight named accumulator vectors) and selected at runtime via
//! `is_x86_feature_detected!`; every other configuration runs a
//! plain-Rust micro-kernel with the *same elementary ops in the same
//! order*, so ISA selection can change speed but never results. (The
//! intrinsics are deliberate: the portable loop autovectorizes fine in
//! isolation but rustc compiles it to scalar `cmov` chains in this
//! crate's rlib context, a ~20× swing — the intrinsics pin the codegen.)
//! Building with `--no-default-features` removes the AVX2 micro-kernel
//! entirely and keeps the portable path — the stable-Rust fallback leg
//! CI compiles.
//!
//! # Why clamping preserves bit-identity
//!
//! `dist_add(a, b) = min(saturating_add(a, b), INF)`. Let
//! `a' = min(a, INF)`, `b' = min(b, INF)`. Then `a' + b' ≤ 2·INF =
//! 2³¹ − 2 < 2³²` (no wrap), and:
//!
//! * if `a ≥ INF` or `b ≥ INF`: `dist_add(a, b) = INF` (the saturating
//!   sum is `≥ INF`), and `(a' + b').min(INF) = INF` because one addend
//!   is already `INF`;
//! * otherwise `a' = a`, `b' = b`, both sums agree exactly.
//!
//! So `(a' + b').min(INF) = dist_add(a, b)` for **all** `u32` inputs,
//! not just in-domain distances.

use crate::parallel::relax_row_branchless;
use apsp_graph::{Dist, INF};

/// Accumulator tile rows held in registers by the micro-kernel.
pub const MR: usize = 4;
/// Accumulator tile columns: two 8-lane AVX2 vectors per row.
pub const TILE_COLS: usize = 16;

/// Clamp one packed operand entry; see the module docs for why this
/// preserves `dist_add` semantics exactly.
#[inline(always)]
fn clamp(v: Dist) -> Dist {
    v.min(INF)
}

/// `C[i][j] = min(C[i][j], min_k A[i][k] ⊕ B[k][j])` over rectangular
/// extents, operands addressed exactly as in
/// [`crate::blocked_fw::minplus_tile`] (row-major with per-operand
/// strides), register-tiled. `c` must not alias `a` or `b`.
///
/// Bit-identical to the scalar reference for all inputs (the reduction
/// is order-independent and every elementary op equals `dist_add`).
///
/// # Panics
///
/// Panics if any operand slice is too short for its extents.
#[allow(clippy::too_many_arguments)]
pub fn minplus_tile_simd(
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
    if rows == 0 || inner == 0 || cols == 0 {
        return;
    }
    assert!(
        a.len() >= (rows - 1) * a_stride + inner,
        "A slice too short"
    );
    assert!(
        b.len() >= (inner - 1) * b_stride + cols,
        "B slice too short"
    );
    assert!(c.len() >= (rows - 1) * c_stride + cols, "C slice too short");
    // SAFETY: extents checked against slice lengths above; the caller
    // guarantees C is disjoint from A and B.
    unsafe {
        dispatch(
            c.as_mut_ptr(),
            c_stride,
            a.as_ptr(),
            a_stride,
            b.as_ptr(),
            b_stride,
            rows,
            inner,
            cols,
        )
    }
}

/// [`minplus_tile_simd`] with all three operands in one row-major buffer
/// (base offsets + shared stride) — the blocked-FW stage-3 shape.
///
/// # Safety
///
/// The C tile (`c_base`, `rows × cols`) must not overlap the A tile
/// (`a_base`, `rows × inner`) or the B tile (`b_base`, `inner × cols`),
/// and every addressed element must lie inside `data`.
#[allow(clippy::too_many_arguments)]
pub unsafe fn minplus_tile_raw_simd(
    data: &mut [Dist],
    stride: usize,
    c_base: usize,
    a_base: usize,
    b_base: usize,
    rows: usize,
    inner: usize,
    cols: usize,
) {
    if rows == 0 || inner == 0 || cols == 0 {
        return;
    }
    let ptr = data.as_mut_ptr();
    dispatch(
        ptr.add(c_base),
        stride,
        ptr.add(a_base) as *const Dist,
        stride,
        ptr.add(b_base) as *const Dist,
        stride,
        rows,
        inner,
        cols,
    )
}

/// Micro-kernel instruction set, picked once per engine call.
#[derive(Clone, Copy)]
enum Isa {
    /// Plain-Rust micro-kernel at the build's baseline target.
    Portable,
    /// Explicit AVX2 intrinsics (stable `std::arch`, runtime-detected).
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    Avx2,
}

/// Runtime ISA selection: AVX2 when the `simd` feature is compiled in
/// and the CPU reports it, the portable micro-kernel otherwise.
fn pick_isa() -> Isa {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Isa::Avx2;
        }
    }
    Isa::Portable
}

/// Name of the micro-kernel ISA this process would run (`"avx2"` or
/// `"portable"`) — what benchmark reports and CI gates key on: a ≥
/// speedup floor is only meaningful when an accelerated ISA is active.
pub fn active_isa() -> &'static str {
    match pick_isa() {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Isa::Avx2 => "avx2",
        Isa::Portable => "portable",
    }
}

/// Entry point shared by both public wrappers.
///
/// # Safety
///
/// Same aliasing/extent contract as [`engine`].
#[allow(clippy::too_many_arguments)]
unsafe fn dispatch(
    c: *mut Dist,
    c_stride: usize,
    a: *const Dist,
    a_stride: usize,
    b: *const Dist,
    b_stride: usize,
    rows: usize,
    inner: usize,
    cols: usize,
) {
    engine(
        c,
        c_stride,
        a,
        a_stride,
        b,
        b_stride,
        rows,
        inner,
        cols,
        pick_isa(),
    )
}

/// One `MR × TILE_COLS` register tile in explicit AVX2 intrinsics:
/// eight `__m256i` accumulators run the whole `k` loop, then fold into
/// `C` (two vectors per row, gated by the row's finite-A flag).
///
/// Elementary-op equivalence: inputs are pre-clamped to `INF`, so
/// `_mm256_add_epi32` (wrapping) cannot wrap — the lane value is the
/// exact integer sum — and `_mm256_min_epu32` is unsigned `min`; each
/// lane therefore computes `(clamp(a) + clamp(b)).min(INF)`, which
/// equals [`apsp_graph::dist_add`] for all inputs (module docs). The
/// fold `c = min(c, acc)` matches the scalar guarded store bit for bit.
///
/// # Safety
///
/// Requires AVX2 (callers go through [`pick_isa`]). `apanel` must hold
/// `inner × MR` packed entries, `bpack` `inner × TILE_COLS`, `afinite`
/// `MR` flags, and `c` must address an `MR × TILE_COLS` tile with row
/// stride `c_stride` disjoint from both packs.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn micro_avx2(
    apanel: *const Dist,
    bpack: *const Dist,
    inner: usize,
    c: *mut Dist,
    c_stride: usize,
    afinite: &[bool],
) {
    use std::arch::x86_64::*;
    let inf = _mm256_set1_epi32(INF as i32);
    let (mut a00, mut a01) = (inf, inf);
    let (mut a10, mut a11) = (inf, inf);
    let (mut a20, mut a21) = (inf, inf);
    let (mut a30, mut a31) = (inf, inf);
    let mut ap = apanel;
    let mut bp = bpack;
    for _ in 0..inner {
        let b0 = _mm256_loadu_si256(bp as *const __m256i);
        let b1 = _mm256_loadu_si256(bp.add(8) as *const __m256i);
        let av = _mm256_set1_epi32(*ap as i32);
        a00 = _mm256_min_epu32(a00, _mm256_min_epu32(_mm256_add_epi32(av, b0), inf));
        a01 = _mm256_min_epu32(a01, _mm256_min_epu32(_mm256_add_epi32(av, b1), inf));
        let av = _mm256_set1_epi32(*ap.add(1) as i32);
        a10 = _mm256_min_epu32(a10, _mm256_min_epu32(_mm256_add_epi32(av, b0), inf));
        a11 = _mm256_min_epu32(a11, _mm256_min_epu32(_mm256_add_epi32(av, b1), inf));
        let av = _mm256_set1_epi32(*ap.add(2) as i32);
        a20 = _mm256_min_epu32(a20, _mm256_min_epu32(_mm256_add_epi32(av, b0), inf));
        a21 = _mm256_min_epu32(a21, _mm256_min_epu32(_mm256_add_epi32(av, b1), inf));
        let av = _mm256_set1_epi32(*ap.add(3) as i32);
        a30 = _mm256_min_epu32(a30, _mm256_min_epu32(_mm256_add_epi32(av, b0), inf));
        a31 = _mm256_min_epu32(a31, _mm256_min_epu32(_mm256_add_epi32(av, b1), inf));
        ap = ap.add(MR);
        bp = bp.add(TILE_COLS);
    }
    let rows = [(a00, a01), (a10, a11), (a20, a21), (a30, a31)];
    for (r, &(lo, hi)) in rows.iter().enumerate() {
        // All-INF A rows contribute nothing in the guarded scalar loop;
        // skip the fold (see `afinite` in the engine).
        if !afinite[r] {
            continue;
        }
        let crow = c.add(r * c_stride);
        let c0 = _mm256_loadu_si256(crow as *const __m256i);
        let c1 = _mm256_loadu_si256(crow.add(8) as *const __m256i);
        _mm256_storeu_si256(crow as *mut __m256i, _mm256_min_epu32(c0, lo));
        _mm256_storeu_si256(crow.add(8) as *mut __m256i, _mm256_min_epu32(c1, hi));
    }
}

/// The portable twin of [`micro_avx2`]: same accumulator shape, same
/// elementary ops, plain Rust — the `--no-default-features` / non-x86
/// path, and the differential reference for the intrinsics.
///
/// # Safety
///
/// Same contract as [`micro_avx2`] minus the AVX2 requirement.
#[inline(always)]
unsafe fn micro_portable(
    apanel: &[Dist],
    bpack: &[Dist],
    inner: usize,
    c: *mut Dist,
    c_stride: usize,
    afinite: &[bool],
) {
    let mut acc = [[INF; TILE_COLS]; MR];
    for k in 0..inner {
        let brow = &bpack[k * TILE_COLS..(k + 1) * TILE_COLS];
        for r in 0..MR {
            let aik = apanel[k * MR + r];
            for (jj, av) in acc[r].iter_mut().enumerate() {
                // Clamped pack ⇒ no wrap; equals dist_add.
                *av = (*av).min((aik + brow[jj]).min(INF));
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        // All-INF A rows contribute nothing in the guarded scalar loop;
        // skip the fold (see `afinite` in the engine).
        if !afinite[r] {
            continue;
        }
        let crow = c.add(r * c_stride);
        for (jj, &av) in accr.iter().enumerate() {
            let cell = crow.add(jj);
            *cell = (*cell).min(av);
        }
    }
}

/// Register-tiled engine: one shared outer loop (packing, panel walk,
/// tails) with the per-tile micro-kernel dispatched on `isa`. Keeping
/// the outer loop shared means the two ISA paths can only differ inside
/// the micro-kernel, whose elementary ops are proven identical.
///
/// # Safety
///
/// `c` must not overlap `a` or `b`, every element addressed by the
/// extents/strides must be in bounds, and `isa` must come from
/// [`pick_isa`] (so `Avx2` implies the CPU supports it).
#[allow(clippy::too_many_arguments)]
unsafe fn engine(
    c: *mut Dist,
    c_stride: usize,
    a: *const Dist,
    a_stride: usize,
    b: *const Dist,
    b_stride: usize,
    rows: usize,
    inner: usize,
    cols: usize,
    isa: Isa,
) {
    let full_rows = rows - rows % MR;
    let full_cols = cols - cols % TILE_COLS;
    if full_rows > 0 && full_cols > 0 {
        // Pack A once for the whole call: panel-major, k-major inside a
        // panel, clamped. apack[p][k*MR + r] = clamp(A[p*MR + r][k]).
        // `afinite` records whether each row has *any* finite entry: the
        // guarded scalar loop skips `aik >= INF` entirely, so a row of
        // all-INF A contributes nothing — folding its (INF-valued)
        // accumulator into C would still clamp an out-of-domain C cell
        // (> INF) that scalar leaves untouched. Gating the fold on the
        // flag restores exact equality on those rows too.
        let panels = full_rows / MR;
        let mut apack = vec![0 as Dist; panels * inner * MR];
        let mut afinite = vec![false; full_rows];
        for p in 0..panels {
            let dst = &mut apack[p * inner * MR..(p + 1) * inner * MR];
            for r in 0..MR {
                let row = a.add((p * MR + r) * a_stride);
                let mut finite = false;
                for k in 0..inner {
                    let v = *row.add(k);
                    finite |= v < INF;
                    dst[k * MR + r] = clamp(v);
                }
                afinite[p * MR + r] = finite;
            }
        }
        // One packed 16-wide B panel at a time, reused by every A panel.
        let mut bpack = vec![0 as Dist; inner * TILE_COLS];
        let mut j0 = 0;
        while j0 < full_cols {
            for k in 0..inner {
                let src = b.add(k * b_stride + j0);
                let dst = &mut bpack[k * TILE_COLS..(k + 1) * TILE_COLS];
                for (jj, d) in dst.iter_mut().enumerate() {
                    *d = clamp(*src.add(jj));
                }
            }
            for p in 0..panels {
                let apanel = &apack[p * inner * MR..(p + 1) * inner * MR];
                let flags = &afinite[p * MR..(p + 1) * MR];
                let ctile = c.add(p * MR * c_stride + j0);
                // The register tile: min-reduces the whole k loop before
                // touching C. INF is the identity of min, so starting at
                // INF and folding into C afterwards equals the scalar
                // min-update order for order-independent reductions
                // (with the all-INF-row fold gate carried by `flags`).
                match isa {
                    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
                    Isa::Avx2 => micro_avx2(
                        apanel.as_ptr(),
                        bpack.as_ptr(),
                        inner,
                        ctile,
                        c_stride,
                        flags,
                    ),
                    Isa::Portable => micro_portable(apanel, &bpack, inner, ctile, c_stride, flags),
                }
            }
            j0 += TILE_COLS;
        }
    }
    // Column tail: rows covered by full panels, columns past the last
    // 16-wide panel — branchless rows on the unpacked operands.
    if full_cols < cols {
        tail_rows(
            c, c_stride, a, a_stride, b, b_stride, 0, full_rows, inner, full_cols, cols,
        );
    }
    // Row tail: everything below the last full MR panel, all columns.
    if full_rows < rows {
        tail_rows(
            c, c_stride, a, a_stride, b, b_stride, full_rows, rows, inner, 0, cols,
        );
    }
}

/// The scalar-equivalent tail: the branchless row kernel over a row and
/// column sub-range of the same operands.
///
/// # Safety
///
/// Same contract as [`engine`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn tail_rows(
    c: *mut Dist,
    c_stride: usize,
    a: *const Dist,
    a_stride: usize,
    b: *const Dist,
    b_stride: usize,
    row_start: usize,
    row_end: usize,
    inner: usize,
    col_start: usize,
    col_end: usize,
) {
    let width = col_end - col_start;
    if width == 0 {
        return;
    }
    for i in row_start..row_end {
        let c_row = std::slice::from_raw_parts_mut(c.add(i * c_stride + col_start), width);
        for k in 0..inner {
            let aik = *a.add(i * a_stride + k);
            if aik >= INF {
                continue;
            }
            let b_row = std::slice::from_raw_parts(b.add(k * b_stride + col_start), width);
            relax_row_branchless(c_row, b_row, aik);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocked_fw::minplus_tile;
    use apsp_graph::dist_add;
    use proptest::prelude::*;

    #[test]
    fn clamped_add_equals_dist_add() {
        // The micro-kernel's elementary op over the exact boundary set:
        // INF absorption, saturation at INF-1/INF, zero, and the maximal
        // representable operands.
        let interesting = [
            0,
            1,
            INF - 1,
            INF,
            INF + 1,
            u32::MAX / 2,
            u32::MAX - 1,
            u32::MAX,
        ];
        for &a in &interesting {
            for &b in &interesting {
                assert_eq!(
                    (clamp(a) + clamp(b)).min(INF),
                    dist_add(a, b),
                    "a={a} b={b}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn clamped_add_equals_dist_add_everywhere(a in 0u32..=u32::MAX, b in 0u32..=u32::MAX) {
            prop_assert_eq!((clamp(a) + clamp(b)).min(INF), dist_add(a, b));
        }

        /// Bit-identity against the guarded scalar kernel at ragged,
        /// non-multiple-of-lane-width dimensions with full-range values
        /// (saturation boundaries included via the INF/MAX weights).
        #[test]
        fn simd_tile_matches_scalar_bitwise(
            rows in 1usize..40,
            inner in 1usize..24,
            cols in 1usize..40,
            c_pad in 0usize..4,
            seed in 0u64..u64::MAX,
        ) {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let gen = |len: usize, next: &mut dyn FnMut() -> u64| -> Vec<Dist> {
                (0..len)
                    .map(|_| match next() % 10 {
                        0 => INF,
                        1 => INF - 1,
                        2 => INF + (next() % 64) as u32,
                        3 => u32::MAX - (next() % 4) as u32,
                        _ => (next() % 100_000) as u32,
                    })
                    .collect()
            };
            let c_stride = cols + c_pad;
            let a = gen(rows * inner, &mut next);
            let b = gen(inner * cols, &mut next);
            let c0 = gen(rows * c_stride, &mut next);

            let mut scalar = c0.clone();
            minplus_tile(&mut scalar, c_stride, &a, inner, &b, cols, rows, inner, cols);
            let mut fast = c0;
            minplus_tile_simd(&mut fast, c_stride, &a, inner, &b, cols, rows, inner, cols);
            prop_assert_eq!(fast, scalar);
        }
    }

    #[test]
    fn exact_lane_multiples_and_off_by_ones() {
        // Deterministic sweep across the boundary dimensions the
        // proptest may not pin: exact MR/TILE_COLS multiples and their
        // neighbours, so both empty tails and full tails are exercised.
        let mut state = 0x5eed_cafe_f00d_1234u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for &rows in &[MR - 1, MR, MR + 1, 2 * MR, 17] {
            for &cols in &[TILE_COLS - 1, TILE_COLS, TILE_COLS + 1, 2 * TILE_COLS, 33] {
                for &inner in &[1usize, 2, 7, 16] {
                    let gen = |len: usize, next: &mut dyn FnMut() -> u64| -> Vec<Dist> {
                        (0..len)
                            .map(|_| {
                                let v = next();
                                if v.is_multiple_of(5) {
                                    INF
                                } else {
                                    (v % 1000) as u32
                                }
                            })
                            .collect()
                    };
                    let a = gen(rows * inner, &mut next);
                    let b = gen(inner * cols, &mut next);
                    let c0 = gen(rows * cols, &mut next);
                    let mut scalar = c0.clone();
                    minplus_tile(&mut scalar, cols, &a, inner, &b, cols, rows, inner, cols);
                    let mut fast = c0;
                    minplus_tile_simd(&mut fast, cols, &a, inner, &b, cols, rows, inner, cols);
                    assert_eq!(fast, scalar, "{rows}x{inner}x{cols}");
                }
            }
        }
    }

    #[test]
    fn raw_variant_matches_slice_variant() {
        // Three tiles of one shared buffer, stage-3 style.
        let stride = 24usize;
        let (rows, inner, cols) = (8usize, 8usize, 16usize);
        let mut data: Vec<Dist> = (0..stride * stride)
            .map(|x| {
                let v = (x as u32).wrapping_mul(2654435761);
                if v.is_multiple_of(7) {
                    INF
                } else {
                    v % 997
                }
            })
            .collect();
        let (c_base, a_base, b_base) = (0usize, 16, 8 * stride);
        let a: Vec<Dist> = (0..rows)
            .flat_map(|i| data[a_base + i * stride..a_base + i * stride + inner].to_vec())
            .collect();
        let b: Vec<Dist> = (0..inner)
            .flat_map(|k| data[b_base + k * stride..b_base + k * stride + cols].to_vec())
            .collect();
        let mut expect: Vec<Dist> = (0..rows)
            .flat_map(|i| data[c_base + i * stride..c_base + i * stride + cols].to_vec())
            .collect();
        minplus_tile_simd(&mut expect, cols, &a, inner, &b, cols, rows, inner, cols);
        // SAFETY: C rows [0,8) cols [0,16) vs A cols [16,24) and B rows
        // [8,16) — disjoint tiles of the same buffer.
        unsafe {
            minplus_tile_raw_simd(&mut data, stride, c_base, a_base, b_base, rows, inner, cols);
        }
        for i in 0..rows {
            assert_eq!(
                &data[c_base + i * stride..c_base + i * stride + cols],
                &expect[i * cols..(i + 1) * cols],
                "row {i}"
            );
        }
    }

    #[test]
    fn empty_extents_are_no_ops() {
        let mut c = vec![7u32; 4];
        minplus_tile_simd(&mut c, 2, &[], 0, &[], 0, 0, 0, 2);
        minplus_tile_simd(&mut c, 2, &[1, 2], 1, &[], 2, 2, 0, 2);
        assert_eq!(c, vec![7; 4]);
    }
}
