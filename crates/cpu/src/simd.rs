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
//! * **padded edges**: every tile, ragged or not, runs through the
//!   micro-kernel. A last A panel short of `MR` rows is packed with
//!   all-`INF` rows whose fold is gated off, a last B panel short of 16
//!   columns with `INF` columns, and a tile on either edge folds into an
//!   `MR × TILE_COLS` staging tile of which only the real cells are
//!   copied back, so padded lanes are never stored. Full panels keep
//!   their unpadded packing loops.
//!
//! The outer loop (packing, panel walk, edges) is shared; only the
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
    // SAFETY: extents checked against slice lengths above; `c` is a
    // `&mut` borrow, so it overlaps neither `a` nor `b`; `pick_isa`
    // reports Avx2 only where the CPU supports it.
    unsafe {
        engine(
            c.as_mut_ptr(),
            c_stride,
            a.as_ptr(),
            a_stride,
            b.as_ptr(),
            b_stride,
            rows,
            inner,
            cols,
            pick_isa(),
        )
    }
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
/// edges) with the per-tile micro-kernel dispatched on `isa`. Keeping
/// the outer loop shared means the two ISA paths can only differ inside
/// the micro-kernel, whose elementary ops are proven identical.
///
/// Every tile runs through the micro-kernel. A last A panel short of
/// `MR` rows is padded with all-`INF` rows whose `afinite` flag is
/// false, so their fold never runs; a last B panel short of
/// `TILE_COLS` columns is padded with `INF` columns. A tile with either
/// edge folds into a staging tile, of which only the real cells are
/// copied back, so padded lanes are never stored.
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
    // Pack A once for the whole call: panel-major, k-major inside a
    // panel, clamped. apack[p][k*MR + r] = clamp(A[p*MR + r][k]).
    // `afinite` records whether each row has *any* finite entry: the
    // guarded scalar loop skips `aik >= INF` entirely, so a row of
    // all-INF A contributes nothing — folding its (INF-valued)
    // accumulator into C would still clamp an out-of-domain C cell
    // (> INF) that scalar leaves untouched. Gating the fold on the
    // flag restores exact equality on those rows too, and keeps the
    // padding rows of a short last panel out of C.
    let panels = rows.div_ceil(MR);
    let mut apack = vec![0 as Dist; panels * inner * MR];
    let mut afinite = vec![false; panels * MR];
    for p in 0..panels {
        let dst = &mut apack[p * inner * MR..(p + 1) * inner * MR];
        for r in 0..MR {
            if p * MR + r >= rows {
                for k in 0..inner {
                    dst[k * MR + r] = INF;
                }
                continue;
            }
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
    for j0 in (0..cols).step_by(TILE_COLS) {
        let width = TILE_COLS.min(cols - j0);
        if width == TILE_COLS {
            for k in 0..inner {
                let src = b.add(k * b_stride + j0);
                let dst = &mut bpack[k * TILE_COLS..(k + 1) * TILE_COLS];
                for (jj, d) in dst.iter_mut().enumerate() {
                    *d = clamp(*src.add(jj));
                }
            }
        } else {
            for k in 0..inner {
                let src = b.add(k * b_stride + j0);
                let (real, pad) = bpack[k * TILE_COLS..(k + 1) * TILE_COLS].split_at_mut(width);
                for (jj, d) in real.iter_mut().enumerate() {
                    *d = clamp(*src.add(jj));
                }
                pad.fill(INF);
            }
        }
        for p in 0..panels {
            let apanel = &apack[p * inner * MR..(p + 1) * inner * MR];
            let flags = &afinite[p * MR..(p + 1) * MR];
            let ctile = c.add(p * MR * c_stride + j0);
            let height = MR.min(rows - p * MR);
            // The register tile: min-reduces the whole k loop before
            // touching C. INF is the identity of min, so starting at
            // INF and folding into C afterwards equals the scalar
            // min-update order for order-independent reductions
            // (with the all-INF-row fold gate carried by `flags`).
            if height == MR && width == TILE_COLS {
                micro(isa, apanel, &bpack, inner, ctile, c_stride, flags);
            } else {
                edge_tile(
                    isa, apanel, &bpack, inner, ctile, c_stride, flags, height, width,
                );
            }
        }
    }
}

/// One micro-kernel tile on `isa`.
///
/// # Safety
///
/// As [`micro_avx2`], with `isa` from [`pick_isa`].
#[inline(always)]
unsafe fn micro(
    isa: Isa,
    apanel: &[Dist],
    bpack: &[Dist],
    inner: usize,
    c: *mut Dist,
    c_stride: usize,
    flags: &[bool],
) {
    match isa {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Isa::Avx2 => micro_avx2(apanel.as_ptr(), bpack.as_ptr(), inner, c, c_stride, flags),
        Isa::Portable => micro_portable(apanel, bpack, inner, c, c_stride, flags),
    }
}

/// A tile with a padded edge: its `height × width` real cells of `c`
/// are staged in an `MR × TILE_COLS` tile, folded there, and copied
/// back, so padded lanes are never stored.
///
/// Kept out of line: inlined into the panel walk, it slowed full tiles
/// of aligned shapes by 8–20% in a probe.
///
/// # Safety
///
/// As [`micro`], with `c` addressing `height × width` cells.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
unsafe fn edge_tile(
    isa: Isa,
    apanel: &[Dist],
    bpack: &[Dist],
    inner: usize,
    c: *mut Dist,
    c_stride: usize,
    flags: &[bool],
    height: usize,
    width: usize,
) {
    let mut stage = [[INF; TILE_COLS]; MR];
    for (r, srow) in stage.iter_mut().enumerate().take(height) {
        srow[..width].copy_from_slice(std::slice::from_raw_parts(c.add(r * c_stride), width));
    }
    micro(
        isa,
        apanel,
        bpack,
        inner,
        stage.as_mut_ptr().cast(),
        TILE_COLS,
        flags,
    );
    for (r, srow) in stage.iter().enumerate().take(height) {
        std::slice::from_raw_parts_mut(c.add(r * c_stride), width).copy_from_slice(&srow[..width]);
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

    /// Every residue of rows mod `MR` and cols mod `TILE_COLS`, so every
    /// kind of edge tile, on each micro-kernel this build has: strides
    /// wider than the extents, C cells above `INF`, and all-`INF` A rows
    /// (every third row), against the guarded scalar kernel. The cells
    /// between the extents and the strides must come back untouched.
    #[test]
    fn every_edge_residue_matches_scalar_on_each_micro_kernel() {
        let isas = match pick_isa() {
            Isa::Portable => vec![Isa::Portable],
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            Isa::Avx2 => vec![Isa::Portable, Isa::Avx2],
        };
        let mut state = 0x5eed_cafe_f00d_1234u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut cell = move || match next() % 8 {
            0 => INF,
            1 => INF + 1 + (next() % 64) as Dist,
            _ => (next() % 1000) as Dist,
        };
        for rows in 1..=2 * MR + 1 {
            for cols in 1..=2 * TILE_COLS + 1 {
                for inner in [1, 2, 17] {
                    let (a_stride, b_stride, c_stride) = (inner + 3, cols + 5, cols + 2);
                    let a: Vec<Dist> = (0..rows * a_stride)
                        .map(|e| if e / a_stride % 3 == 1 { INF } else { cell() })
                        .collect();
                    let b: Vec<Dist> = (0..inner * b_stride).map(|_| cell()).collect();
                    let c0: Vec<Dist> = (0..rows * c_stride).map(|_| cell()).collect();
                    let mut scalar = c0.clone();
                    minplus_tile(
                        &mut scalar,
                        c_stride,
                        &a,
                        a_stride,
                        &b,
                        b_stride,
                        rows,
                        inner,
                        cols,
                    );
                    for &isa in &isas {
                        let mut fast = c0.clone();
                        // SAFETY: the operands hold `rows × a_stride`,
                        // `inner × b_stride` and `rows × c_stride` cells,
                        // `fast` is a separate allocation, and `isas`
                        // holds Avx2 only where `pick_isa` returned it.
                        unsafe {
                            engine(
                                fast.as_mut_ptr(),
                                c_stride,
                                a.as_ptr(),
                                a_stride,
                                b.as_ptr(),
                                b_stride,
                                rows,
                                inner,
                                cols,
                                isa,
                            )
                        };
                        let name = match isa {
                            Isa::Portable => "portable",
                            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
                            Isa::Avx2 => "avx2",
                        };
                        assert_eq!(fast, scalar, "{name} {rows}x{inner}x{cols}");
                    }
                }
            }
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
