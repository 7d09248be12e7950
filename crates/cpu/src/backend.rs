//! The pluggable min-plus backend seam.
//!
//! Everything hot in this suite bottoms out in a handful of primitives:
//! the disjoint min-plus tile multiply, the in-place Floyd-Warshall
//! sweep, the branchless row relaxation, and "split this loop into
//! deterministic bands". [`MinPlusBackend`] packages exactly those
//! primitives behind one trait, so kernels, the three out-of-core
//! drivers, the tile store's staging copies, and the service layer all
//! select an execution strategy through a single seam — instead of
//! matching on [`ExecBackend`] at every
//! call site. A future real-GPU backend (SPIR-V/Vulkan in the style of
//! `krnl`) implements this trait and plugs in without touching a
//! driver.
//!
//! Three implementations ship today:
//!
//! * [`ScalarBackend`] — the original guarded reference loops, kept
//!   verbatim as the differential baseline;
//! * [`ParallelBackend`] — band-parallel branchless loops (PR 4);
//! * [`SimdBackend`] — band-parallel **register-tiled** micro-kernels
//!   ([`crate::simd`]), the fastest host path.
//!
//! All three are **bit-identical** on every primitive: the min-plus
//! lattice over `u32` has no rounding, the elementary adds are proven
//! equal, and every reordering any backend performs is on an
//! order-independent reduction. Conformance holds this as a contract
//! (`backend_parity`, proptests at the INF/saturation boundaries).
//!
//! Backends are resolved **once** per run — drivers call
//! [`ExecBackend::resolve`] on the spec carried by their options struct
//! and pass `&dyn MinPlusBackend` down — so thread counts are pinned at
//! entry and the enum match exists in exactly one place.

use crate::dense::DistMatrix;
use crate::parallel::{
    minplus_rows_branchless, par_bands_weighted, relax_row_branchless, ExecBackend, SharedSliceMut,
};
use apsp_graph::{dist_add, Dist};

/// The execution primitives every backend provides. See the module docs
/// for the bit-identity contract.
pub trait MinPlusBackend: Send + Sync + std::fmt::Debug {
    /// Stable short name (`"scalar"`, `"parallel"`, `"simd"`), used by
    /// telemetry run records, the calibration store key, and bench
    /// report columns.
    fn name(&self) -> &'static str;

    /// Worker threads this backend dispatches onto (1 = inline).
    fn threads(&self) -> usize;

    /// Whether this is the guarded scalar reference (which additionally
    /// tolerates in-place operand aliasing the optimized backends
    /// forbid).
    fn is_scalar(&self) -> bool {
        false
    }

    /// Disjoint-operand min-plus tile multiply
    /// `C[i][j] = min(C[i][j], min_k A[i][k] ⊕ B[k][j])`, operands
    /// row-major with per-operand strides. Non-scalar backends require
    /// `c` disjoint from `a` and `b` and may band rows across
    /// [`MinPlusBackend::threads`].
    #[allow(clippy::too_many_arguments)]
    fn minplus_tile(
        &self,
        c: &mut [Dist],
        c_stride: usize,
        a: &[Dist],
        a_stride: usize,
        b: &[Dist],
        b_stride: usize,
        rows: usize,
        inner: usize,
        cols: usize,
    );

    /// Single-threaded min-plus micro-kernel with all three tiles in one
    /// row-major buffer (base offsets + shared stride) — the granularity
    /// blocked drivers call from inside their own band decomposition, so
    /// backend threading never nests.
    ///
    /// # Safety
    ///
    /// The C tile must not overlap the A or B tile, and every addressed
    /// element must lie inside `data`.
    #[allow(clippy::too_many_arguments)]
    unsafe fn minplus_tile_raw_st(
        &self,
        data: &mut [Dist],
        stride: usize,
        c_base: usize,
        a_base: usize,
        b_base: usize,
        rows: usize,
        inner: usize,
        cols: usize,
    );

    /// One relaxation row `c[j] = min(c[j], aik ⊕ b[j])`; `c` and `b`
    /// must not alias.
    fn relax_row(&self, c: &mut [Dist], b: &[Dist], aik: Dist);

    /// In-place Floyd-Warshall over a square matrix.
    fn floyd_warshall(&self, m: &mut DistMatrix);

    /// Deterministically split `0..items` into contiguous bands and run
    /// `f` on each, one band per thread. `work_per_item` is the
    /// approximate elementary-operation cost per item: dispatches whose
    /// total work cannot amortize a thread spawn run inline instead (the
    /// small-shape guard — see
    /// [`crate::parallel::MIN_WORK_PER_DISPATCH`]). Bands partition the
    /// range exactly, so callers owning disjoint rows per item are
    /// race-free by construction.
    fn run_bands(
        &self,
        items: usize,
        min_per_band: usize,
        work_per_item: usize,
        f: &(dyn Fn(std::ops::Range<usize>) + Sync),
    );
}

/// The original single-threaded guarded loops — the differential
/// baseline every optimized backend is proven against.
#[derive(Debug, Clone, Copy)]
pub struct ScalarBackend;

impl MinPlusBackend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn threads(&self) -> usize {
        1
    }

    fn is_scalar(&self) -> bool {
        true
    }

    fn minplus_tile(
        &self,
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
        crate::blocked_fw::minplus_tile(c, c_stride, a, a_stride, b, b_stride, rows, inner, cols);
    }

    unsafe fn minplus_tile_raw_st(
        &self,
        data: &mut [Dist],
        stride: usize,
        c_base: usize,
        a_base: usize,
        b_base: usize,
        rows: usize,
        inner: usize,
        cols: usize,
    ) {
        crate::blocked_fw::minplus_tile_raw(
            data, stride, c_base, a_base, b_base, rows, inner, cols,
        );
    }

    fn relax_row(&self, c: &mut [Dist], b: &[Dist], aik: Dist) {
        for (cj, &bj) in c.iter_mut().zip(b) {
            let via = dist_add(aik, bj);
            if via < *cj {
                *cj = via;
            }
        }
    }

    fn floyd_warshall(&self, m: &mut DistMatrix) {
        crate::blocked_fw::floyd_warshall(m);
    }

    fn run_bands(
        &self,
        items: usize,
        _min_per_band: usize,
        _work_per_item: usize,
        f: &(dyn Fn(std::ops::Range<usize>) + Sync),
    ) {
        if items > 0 {
            f(0..items);
        }
    }
}

/// Band-parallel branchless loops (the PR 4 backend).
#[derive(Debug, Clone, Copy)]
pub struct ParallelBackend {
    /// Resolved worker thread count (≥ 1).
    pub threads: usize,
}

impl MinPlusBackend for ParallelBackend {
    fn name(&self) -> &'static str {
        "parallel"
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn minplus_tile(
        &self,
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
        let shared = SharedSliceMut::new(c);
        self.run_bands(rows, 1, inner.saturating_mul(cols), &|band| {
            // SAFETY: bands partition the row range; row `i` of C is
            // written only by the band owning `i`; A/B are read-only.
            let c = unsafe { shared.slice() };
            minplus_rows_branchless(c, c_stride, a, a_stride, b, b_stride, band, inner, cols);
        });
    }

    unsafe fn minplus_tile_raw_st(
        &self,
        data: &mut [Dist],
        stride: usize,
        c_base: usize,
        a_base: usize,
        b_base: usize,
        rows: usize,
        inner: usize,
        cols: usize,
    ) {
        crate::blocked_fw::minplus_tile_raw_disjoint(
            data, stride, c_base, a_base, b_base, rows, inner, cols,
        );
    }

    fn relax_row(&self, c: &mut [Dist], b: &[Dist], aik: Dist) {
        relax_row_branchless(c, b, aik);
    }

    fn floyd_warshall(&self, m: &mut DistMatrix) {
        crate::parallel::floyd_warshall_banded(m, self.threads);
    }

    fn run_bands(
        &self,
        items: usize,
        min_per_band: usize,
        work_per_item: usize,
        f: &(dyn Fn(std::ops::Range<usize>) + Sync),
    ) {
        par_bands_weighted(items, self.threads, min_per_band, work_per_item, f);
    }
}

/// Band-parallel register-tiled SIMD micro-kernels ([`crate::simd`]) —
/// the fastest host path, bit-identical to the other two by the
/// order-independence of the min-plus reduction.
#[derive(Debug, Clone, Copy)]
pub struct SimdBackend {
    /// Resolved worker thread count (≥ 1).
    pub threads: usize,
}

impl MinPlusBackend for SimdBackend {
    fn name(&self) -> &'static str {
        "simd"
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn minplus_tile(
        &self,
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
        let shared = SharedSliceMut::new(c);
        // Bands need not align to the MR register-tile height: each band
        // runs the full micro-kernel on its own row range and handles
        // its own tail, and the reduction is order-independent either
        // way.
        self.run_bands(rows, crate::simd::MR, inner.saturating_mul(cols), &|band| {
            // SAFETY: bands partition the row range; row `i` of C is
            // written only by the band owning `i`; A/B are read-only.
            let c = unsafe { shared.slice() };
            crate::simd::minplus_tile_simd(
                &mut c[band.start * c_stride..],
                c_stride,
                &a[band.start * a_stride..],
                a_stride,
                b,
                b_stride,
                band.len(),
                inner,
                cols,
            );
        });
    }

    unsafe fn minplus_tile_raw_st(
        &self,
        data: &mut [Dist],
        stride: usize,
        c_base: usize,
        a_base: usize,
        b_base: usize,
        rows: usize,
        inner: usize,
        cols: usize,
    ) {
        crate::simd::minplus_tile_raw_simd(data, stride, c_base, a_base, b_base, rows, inner, cols);
    }

    fn relax_row(&self, c: &mut [Dist], b: &[Dist], aik: Dist) {
        relax_row_branchless(c, b, aik);
    }

    fn floyd_warshall(&self, m: &mut DistMatrix) {
        // The FW pivot round is a rank-1 update (inner = 1): there is no
        // k loop to register-tile, so the banded branchless sweep is
        // already the right kernel.
        crate::parallel::floyd_warshall_banded(m, self.threads);
    }

    fn run_bands(
        &self,
        items: usize,
        min_per_band: usize,
        work_per_item: usize,
        f: &(dyn Fn(std::ops::Range<usize>) + Sync),
    ) {
        par_bands_weighted(items, self.threads, min_per_band, work_per_item, f);
    }
}

impl ExecBackend {
    /// Resolve this spec into a concrete backend, pinning the thread
    /// count now (from the explicit setting, `RAYON_NUM_THREADS`, then
    /// `available_parallelism`). Drivers call this once at entry and
    /// pass `&dyn MinPlusBackend` down; the match below is the single
    /// place the enum is interpreted.
    pub fn resolve(&self) -> Box<dyn MinPlusBackend> {
        match self {
            ExecBackend::Scalar => Box::new(ScalarBackend),
            ExecBackend::Parallel { .. } => Box::new(ParallelBackend {
                threads: self.resolved_threads(),
            }),
            ExecBackend::Simd { .. } => Box::new(SimdBackend {
                threads: self.resolved_threads(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_graph::INF;

    fn backends() -> Vec<Box<dyn MinPlusBackend>> {
        vec![
            ExecBackend::Scalar.resolve(),
            ExecBackend::Parallel { threads: Some(3) }.resolve(),
            ExecBackend::Simd { threads: Some(3) }.resolve(),
        ]
    }

    #[test]
    fn names_and_threads_round_trip() {
        assert_eq!(ExecBackend::Scalar.resolve().name(), "scalar");
        assert!(ExecBackend::Scalar.resolve().is_scalar());
        let p = ExecBackend::Parallel { threads: Some(5) }.resolve();
        assert_eq!(
            (p.name(), p.threads(), p.is_scalar()),
            ("parallel", 5, false)
        );
        let s = ExecBackend::Simd { threads: Some(2) }.resolve();
        assert_eq!((s.name(), s.threads(), s.is_scalar()), ("simd", 2, false));
    }

    #[test]
    fn minplus_tile_bitwise_identical_across_backends() {
        let mut state = 0xfeed_beef_dead_cafeu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for &(rows, inner, cols) in &[(1usize, 1usize, 1usize), (7, 9, 21), (33, 17, 40)] {
            let gen = |len: usize, next: &mut dyn FnMut() -> u64| -> Vec<Dist> {
                (0..len)
                    .map(|_| {
                        let v = next();
                        if v.is_multiple_of(6) {
                            INF
                        } else {
                            (v % 5000) as u32
                        }
                    })
                    .collect()
            };
            let a = gen(rows * inner, &mut next);
            let b = gen(inner * cols, &mut next);
            let c0 = gen(rows * cols, &mut next);
            let mut reference: Option<Vec<Dist>> = None;
            for backend in backends() {
                let mut c = c0.clone();
                backend.minplus_tile(&mut c, cols, &a, inner, &b, cols, rows, inner, cols);
                match &reference {
                    None => reference = Some(c),
                    Some(r) => assert_eq!(&c, r, "{} at {rows}x{inner}x{cols}", backend.name()),
                }
            }
        }
    }

    #[test]
    fn relax_row_identical_across_backends() {
        let c0: Vec<Dist> = vec![10, INF, 3, INF - 1, 0, 500];
        let b: Vec<Dist> = vec![1, 2, INF, INF - 1, 7, 100];
        for aik in [0u32, 5, INF - 1, INF] {
            let mut reference: Option<Vec<Dist>> = None;
            for backend in backends() {
                let mut c = c0.clone();
                backend.relax_row(&mut c, &b, aik);
                match &reference {
                    None => reference = Some(c),
                    Some(r) => assert_eq!(&c, r, "{} aik={aik}", backend.name()),
                }
            }
        }
    }

    #[test]
    fn run_bands_covers_exactly_once_on_every_backend() {
        use std::sync::atomic::{AtomicU32, Ordering};
        for backend in backends() {
            for items in [0usize, 1, 7, 100] {
                let hits: Vec<AtomicU32> = (0..items).map(|_| AtomicU32::new(0)).collect();
                backend.run_bands(items, 1, usize::MAX / 2, &|band| {
                    for i in band {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
                for (i, h) in hits.iter().enumerate() {
                    assert_eq!(h.load(Ordering::Relaxed), 1, "{} item {i}", backend.name());
                }
            }
        }
    }
}
