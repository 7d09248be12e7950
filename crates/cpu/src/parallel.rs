//! Execution backends: scalar reference loops vs. the band-parallel,
//! branchless backend.
//!
//! Every hot kernel of the suite (min-plus tile multiply, Floyd-Warshall,
//! the per-source Near-Far relaxations) is embarrassingly parallel over
//! its output rows once the reduction order is pinned: with a fixed
//! pivot/k order, each output row depends only on *read-only* operands
//! for the duration of one round, so splitting rows into contiguous
//! bands across threads is deterministic — not merely "correct up to
//! floating-point", but **bit-identical** to the scalar loops (the
//! min-plus semiring over `u32` has no rounding to reorder). Per-source
//! SSSP loops, whose items vary in cost, use [`par_claim`] instead:
//! workers claim items one at a time, each still writing only its own
//! rows.
//!
//! The branchless inner loops exploit the same fixed order: the scalar
//! reference guards every relaxation with `if via < c[j]` (an
//! unpredictable branch on random distance data) and skips `INF` rows
//! with an early `continue`. The backend lowers the relaxation to
//! `c[j] = min(c[j], sat_add(aik, b[j]).min(INF))`, which rustc
//! autovectorizes; [`branchless_add`] is proven equal to
//! [`apsp_graph::dist_add`] for **all** `u32` inputs (property-tested at
//! the `INF` boundaries), so the lowering cannot diverge.
//!
//! The vendored `rayon` shim in this workspace is sequential by design
//! (no crates.io access), so real parallelism comes from
//! `std::thread::scope` here. Thread counts resolve, in order, from an
//! explicit [`ExecBackend::Parallel`] setting, the `RAYON_NUM_THREADS`
//! environment variable (the knob CI pins for reproducibility), and
//! `std::thread::available_parallelism`.

use crate::dense::DistMatrix;
use apsp_graph::{Dist, INF};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Minimum rows a band must carry before another thread is worth its
/// spawn cost; below this the scheduler runs inline.
const MIN_ROWS_PER_BAND: usize = 16;

/// How the kernels execute on the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecBackend {
    /// The original single-threaded reference loops, kept verbatim as
    /// the differential baseline.
    Scalar,
    /// Band-parallel branchless loops. `threads: None` resolves from
    /// `RAYON_NUM_THREADS`, then `available_parallelism`.
    Parallel {
        /// Worker thread count; `None` auto-detects.
        threads: Option<usize>,
    },
    /// Band-parallel register-tiled SIMD micro-kernels
    /// ([`crate::simd`]); threads resolve like `Parallel`.
    Simd {
        /// Worker thread count; `None` auto-detects.
        threads: Option<usize>,
    },
}

impl Default for ExecBackend {
    fn default() -> Self {
        ExecBackend::Parallel { threads: None }
    }
}

impl std::fmt::Display for ExecBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecBackend::Scalar => f.write_str("scalar"),
            ExecBackend::Parallel { threads: None } => f.write_str("parallel"),
            ExecBackend::Parallel { threads: Some(t) } => write!(f, "parallel({t})"),
            ExecBackend::Simd { threads: None } => f.write_str("simd"),
            ExecBackend::Simd { threads: Some(t) } => write!(f, "simd({t})"),
        }
    }
}

impl ExecBackend {
    /// The scalar reference backend.
    pub fn scalar() -> Self {
        ExecBackend::Scalar
    }

    /// The parallel backend with auto-detected thread count.
    pub fn parallel() -> Self {
        ExecBackend::Parallel { threads: None }
    }

    /// The SIMD backend with auto-detected thread count.
    pub fn simd() -> Self {
        ExecBackend::Simd { threads: None }
    }

    /// Whether this is the scalar reference backend.
    pub fn is_scalar(&self) -> bool {
        matches!(self, ExecBackend::Scalar)
    }

    /// Stable short name of the backend this spec resolves to, as used
    /// by telemetry run records, calibration store keys, and bench
    /// columns.
    pub fn name(&self) -> &'static str {
        match self {
            ExecBackend::Scalar => "scalar",
            ExecBackend::Parallel { .. } => "parallel",
            ExecBackend::Simd { .. } => "simd",
        }
    }

    /// Worker threads this backend will use (1 for `Scalar`).
    pub fn resolved_threads(&self) -> usize {
        match self {
            ExecBackend::Scalar => 1,
            ExecBackend::Parallel { threads: Some(t) } | ExecBackend::Simd { threads: Some(t) } => {
                (*t).max(1)
            }
            ExecBackend::Parallel { threads: None } | ExecBackend::Simd { threads: None } => {
                default_threads()
            }
        }
    }
}

/// Default worker-thread count, resolved once per process.
///
/// `available_parallelism` is not a cheap call: under cgroup CPU quotas
/// it walks `/sys/fs/cgroup` on every invocation, which costs tens of
/// microseconds — enough to dominate per-tile dispatch when a driver
/// re-resolves `threads: None` for every staged tile (measured as a 2-3x
/// wall-clock regression on the out-of-core benches). The count cannot
/// change mid-process in any supported configuration, so cache it.
fn default_threads() -> usize {
    use std::sync::OnceLock;
    static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();
    *DEFAULT_THREADS.get_or_init(|| {
        env_threads().unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
    })
}

/// `RAYON_NUM_THREADS`, when set to a positive integer.
fn env_threads() -> Option<usize> {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&t| t > 0)
}

/// Branchless lowering of [`apsp_graph::dist_add`]:
/// `min(saturating_add(a, b), INF)`. Equal to `dist_add` for **all**
/// `u32` inputs — `dist_add` computes the saturating sum and clamps any
/// value `>= INF` back to `INF`, which is exactly `min(sum, INF)` — so
/// substituting it inside a `min`-reduction cannot change a single bit.
/// Unlike `dist_add`'s `if`, this form vectorizes.
#[inline(always)]
pub fn branchless_add(a: Dist, b: Dist) -> Dist {
    a.saturating_add(b).min(INF)
}

/// The branchless relaxation row: `c[j] = min(c[j], aik ⊕ b[j])` with no
/// data-dependent branch in the loop body. `c` and `b` must not alias.
#[inline]
pub fn relax_row_branchless(c: &mut [Dist], b: &[Dist], aik: Dist) {
    for (cj, &bj) in c.iter_mut().zip(b) {
        *cj = (*cj).min(branchless_add(aik, bj));
    }
}

/// Split `0..items` into up to `threads` contiguous bands of at least
/// `min_per_band` items and run `f` on each band, one band per thread
/// (the first band runs on the calling thread). With one effective
/// thread the call is inline and spawns nothing.
///
/// Bands partition the range exactly, so writers that own disjoint rows
/// per item are race-free by construction.
pub fn par_bands<F>(items: usize, threads: usize, min_per_band: usize, f: F)
where
    F: Fn(std::ops::Range<usize>) + Sync,
{
    if items == 0 {
        return;
    }
    let max_bands = items.div_ceil(min_per_band.max(1));
    let bands = threads.clamp(1, max_bands);
    if bands <= 1 {
        f(0..items);
        return;
    }
    let per_band = items.div_ceil(bands);
    std::thread::scope(|scope| {
        let f = &f;
        for t in 1..bands {
            let lo = t * per_band;
            if lo >= items {
                break;
            }
            let hi = ((t + 1) * per_band).min(items);
            scope.spawn(move || f(lo..hi));
        }
        f(0..per_band.min(items));
    });
}

/// Minimum elementary operations a dispatch must carry before spawning
/// threads is worth the scoped-spawn overhead (there is no persistent
/// pool — the vendored rayon shim is sequential, so every parallel
/// dispatch pays thread creation, typically a few hundred µs on a
/// loaded small-core box). Below this, [`par_bands_weighted`] runs the
/// whole range inline: on small shapes the spawn cost had been *losing*
/// to scalar (fw-disk 0.985×, johnson-memory 0.935× in the PR 4 bench;
/// far worse once spawns actually fire), and an inline fallback
/// restores those to ≥1.0× while leaving large shapes untouched. 2²¹
/// u32 relaxations ≈ 1–2 ms of inner-loop time — the break-even point
/// against one scoped spawn, measured on the bench host.
pub const MIN_WORK_PER_DISPATCH: usize = 1 << 21;

/// [`par_bands`] with a work-aware band floor: `work_per_item` is the
/// approximate elementary-operation cost of one item, and the effective
/// minimum band size is raised so each spawned thread carries at least
/// [`MIN_WORK_PER_DISPATCH`] operations. Dispatches too small to
/// amortize a spawn therefore run inline — same partition semantics,
/// bit-identical results (banding never reorders the per-row
/// reductions).
pub fn par_bands_weighted<F>(
    items: usize,
    threads: usize,
    min_per_band: usize,
    work_per_item: usize,
    f: F,
) where
    F: Fn(std::ops::Range<usize>) + Sync,
{
    let floor = min_per_band.max(MIN_WORK_PER_DISPATCH.div_ceil(work_per_item.max(1)));
    par_bands(items, threads, floor, f);
}

/// Elementary-operation weight of one single-source shortest-path run
/// over a graph of `n` vertices and `m` edges, in the unit of
/// [`MIN_WORK_PER_DISPATCH`]. A Near-Far SSSP costs about 11–14 ns per
/// `(n + m)` element single-threaded, against about 0.7 ns per
/// branchless min-plus op, hence 18 ops per element rather than 1
/// (DESIGN.md §10 has the measurements). Dijkstra and delta-stepping cost more per
/// element, so for them the weight errs toward running inline.
pub fn sssp_work(n: usize, m: usize) -> usize {
    18 * (n + m)
}

/// Workers [`par_claim`] runs `items` items of `work_per_item`
/// elementary operations on: at most `threads`, and few enough that
/// each carries about [`MIN_WORK_PER_DISPATCH`] operations. `1` means
/// inline on the calling thread.
pub fn claim_workers(items: usize, threads: usize, work_per_item: usize) -> usize {
    let min_per_worker = MIN_WORK_PER_DISPATCH.div_ceil(work_per_item.max(1));
    threads.clamp(1, items.div_ceil(min_per_worker).max(1))
}

/// Run `f` once on each of [`claim_workers`] workers (the first on the
/// calling thread); each worker's [`Claims`] pulls the next unclaimed
/// element of `items` from a shared cursor until none is left. Unlike
/// [`par_bands`]' fixed ranges, items of uneven cost balance themselves
/// across workers, and per-worker setup inside `f` still runs once per
/// worker.
///
/// Every element is handed out exactly once, as a `&mut` to that
/// element alone, so workers that write only through their claims are
/// race-free and the result does not depend on which worker ran which
/// item.
pub fn par_claim<T, F>(items: &mut [T], threads: usize, work_per_item: usize, f: F)
where
    T: Send,
    F: Fn(Claims<'_, T>) + Sync,
{
    let (base, len) = (items.as_mut_ptr(), items.len());
    let workers = claim_workers(len, threads, work_per_item);
    let cursor = AtomicUsize::new(0);
    // `items` stays mutably borrowed, and untouched, for the whole call.
    let claims = || Claims {
        items: base,
        len,
        cursor: &cursor,
        _items: PhantomData,
    };
    if workers <= 1 {
        f(claims());
        return;
    }
    std::thread::scope(|scope| {
        let f = &f;
        for _ in 1..workers {
            let mine = claims();
            scope.spawn(move || f(mine));
        }
        f(claims());
    });
}

/// One worker's share of a [`par_claim`] call: an iterator over
/// `(index, &mut item)` pairs, each claimed from the cursor it shares
/// with the call's other workers.
pub struct Claims<'a, T> {
    items: *mut T,
    len: usize,
    cursor: &'a AtomicUsize,
    _items: PhantomData<&'a mut [T]>,
}

// SAFETY: `items` points into the slice `par_claim` holds mutably
// borrowed for its whole call, which outlives `'a`, and `next` turns it
// only into `&mut T`s to elements no other claimer receives; moving a
// `Claims` to another thread therefore moves `&mut T`s, which is sound
// for `T: Send`. `len` is plain data and `cursor` is a shared reference
// to a `Sync` atomic.
unsafe impl<T: Send> Send for Claims<'_, T> {}

impl<'a, T> Iterator for Claims<'a, T> {
    type Item = (usize, &'a mut T);

    fn next(&mut self) -> Option<Self::Item> {
        // Relaxed: the cursor publishes no other data. Each `fetch_add`
        // is one read-modify-write of the same atomic, so every index
        // is returned to exactly one claimer; what a worker writes
        // reaches the caller through the scope's join.
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        if i >= self.len {
            return None;
        }
        // SAFETY: `i < len` lies inside the slice, which stays borrowed
        // for longer than `'a`, and the cursor only grows (wrapping would
        // take 2⁶⁴ claims), so no other claimer ever holds a reference to
        // element `i`.
        Some((i, unsafe { &mut *self.items.add(i) }))
    }
}

/// A `Send + Sync` wrapper around a raw mutable slice, for band-parallel
/// writers whose disjointness the call site proves.
#[derive(Clone, Copy)]
pub struct SharedSliceMut<T> {
    ptr: *mut T,
    len: usize,
}

// SAFETY: the wrapper only hands out the slice through an `unsafe`
// accessor; every call site is responsible for touching disjoint
// elements across threads (bands own disjoint row ranges).
unsafe impl<T: Send> Send for SharedSliceMut<T> {}
unsafe impl<T: Send> Sync for SharedSliceMut<T> {}

impl<T> SharedSliceMut<T> {
    /// Wrap `slice` for cross-thread banded access.
    pub fn new(slice: &mut [T]) -> Self {
        SharedSliceMut {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
        }
    }

    /// The whole underlying slice.
    ///
    /// # Safety
    ///
    /// Callers must ensure no two threads touch the same element and
    /// that the original borrow outlives every returned slice.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice<'a>(&self) -> &'a mut [T] {
        std::slice::from_raw_parts_mut(self.ptr, self.len)
    }
}

/// Branchless min-plus tile update over a row range:
/// `C[i][j] = min(C[i][j], A[i][k] ⊕ B[k][j])` for `i` in `rows`, with
/// operands addressed exactly as in
/// [`crate::blocked_fw::minplus_tile`]. `c` must not alias `a` or `b`
/// (the scalar variant tolerates blocked-FW in-place aliasing; this one
/// is for the disjoint stage-3 / product shapes).
#[allow(clippy::too_many_arguments)]
pub(crate) fn minplus_rows_branchless(
    c: &mut [Dist],
    c_stride: usize,
    a: &[Dist],
    a_stride: usize,
    b: &[Dist],
    b_stride: usize,
    rows: std::ops::Range<usize>,
    inner: usize,
    cols: usize,
) {
    for i in rows {
        let c_row = &mut c[i * c_stride..i * c_stride + cols];
        for k in 0..inner {
            let aik = a[i * a_stride + k];
            // The row-level INF skip is kept (it prunes whole rows of
            // work and is per-(i, k), not per-j); the *j* loop below is
            // the branchless, vectorizable part.
            if aik >= INF {
                continue;
            }
            relax_row_branchless(c_row, &b[k * b_stride..k * b_stride + cols], aik);
        }
    }
}

/// [`crate::blocked_fw::minplus_tile`] under an execution backend.
/// Scalar delegates to the reference loops (including their in-place
/// aliasing tolerance); Parallel and Simd require `c` disjoint from `a`
/// and `b` and split output rows into bands. Bit-identical to scalar
/// for disjoint operands.
///
/// Compatibility wrapper over
/// [`MinPlusBackend::minplus_tile`](crate::backend::MinPlusBackend::minplus_tile);
/// hot callers resolve once and hold the `&dyn` backend instead.
#[allow(clippy::too_many_arguments)]
pub fn minplus_tile_exec(
    c: &mut [Dist],
    c_stride: usize,
    a: &[Dist],
    a_stride: usize,
    b: &[Dist],
    b_stride: usize,
    rows: usize,
    inner: usize,
    cols: usize,
    exec: ExecBackend,
) {
    exec.resolve()
        .minplus_tile(c, c_stride, a, a_stride, b, b_stride, rows, inner, cols);
}

/// [`crate::blocked_fw::floyd_warshall`] under an execution backend.
///
/// Parallel splits each pivot round's rows into bands. Determinism: for
/// a fixed pivot `k`, row `k` is never written during round `k` (the
/// `i == k` update is skipped as a no-op), so every band reads the same
/// pivot row the scalar loop reads, and each band writes only its own
/// rows — the result is bit-identical to scalar.
///
/// Compatibility wrapper over
/// [`MinPlusBackend::floyd_warshall`](crate::backend::MinPlusBackend::floyd_warshall).
pub fn floyd_warshall_exec(m: &mut DistMatrix, exec: ExecBackend) {
    exec.resolve().floyd_warshall(m);
}

/// The band-parallel FW sweep shared by the Parallel and Simd backends
/// (FW's pivot round is a rank-1 update — no `k` loop to register-tile,
/// so the branchless banded sweep is the kernel for both).
pub(crate) fn floyd_warshall_banded(m: &mut DistMatrix, threads: usize) {
    let n = m.n();
    if n == 0 {
        return;
    }
    let data = m.as_mut_slice();
    // Per-round snapshot of the pivot row. Row k is invariant during
    // round k, so the snapshot equals the live row; copying it once
    // keeps every band's reads off the written buffer.
    let mut pivot = vec![0 as Dist; n];
    for k in 0..n {
        pivot.copy_from_slice(&data[k * n..(k + 1) * n]);
        let shared = SharedSliceMut::new(data);
        let pivot_ref = &pivot;
        par_bands_weighted(n, threads, MIN_ROWS_PER_BAND, n, |band| {
            // SAFETY: bands own disjoint row ranges and row k is only
            // read through the snapshot.
            let data = unsafe { shared.slice() };
            for i in band {
                if i == k {
                    continue;
                }
                let dik = data[i * n + k];
                if dik >= INF {
                    continue;
                }
                relax_row_branchless(&mut data[i * n..i * n + n], pivot_ref, dik);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocked_fw::{floyd_warshall, minplus_tile};
    use apsp_graph::dist_add;
    use apsp_graph::generators::{gnp, WeightRange};
    use proptest::prelude::*;

    fn backends() -> Vec<ExecBackend> {
        vec![
            ExecBackend::Parallel { threads: Some(1) },
            ExecBackend::Parallel { threads: Some(3) },
            ExecBackend::parallel(),
        ]
    }

    #[test]
    fn branchless_add_equals_dist_add_at_boundaries() {
        // The exact boundary cases the lowering must preserve: INF
        // absorption, saturation at INF-1/INF, zero weights, and the
        // maximum representable operands.
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
                assert_eq!(branchless_add(a, b), dist_add(a, b), "a={a} b={b}");
            }
        }
    }

    proptest! {
        #[test]
        fn branchless_add_equals_dist_add_everywhere(a in 0u32..=u32::MAX, b in 0u32..=u32::MAX) {
            prop_assert_eq!(branchless_add(a, b), dist_add(a, b));
        }

        #[test]
        fn relax_row_matches_scalar_update(
            c in proptest::collection::vec(0u32..=INF, 1..40),
            b in proptest::collection::vec(0u32..=INF, 1..40),
            aik in 0u32..=INF,
        ) {
            let cols = c.len().min(b.len());
            let mut fast = c[..cols].to_vec();
            relax_row_branchless(&mut fast, &b[..cols], aik);
            let mut slow = c[..cols].to_vec();
            for j in 0..cols {
                let via = dist_add(aik, b[j]);
                if via < slow[j] {
                    slow[j] = via;
                }
            }
            prop_assert_eq!(fast, slow);
        }
    }

    #[test]
    fn resolved_threads_orders_sources() {
        assert_eq!(ExecBackend::Scalar.resolved_threads(), 1);
        assert_eq!(
            ExecBackend::Parallel { threads: Some(7) }.resolved_threads(),
            7
        );
        assert!(ExecBackend::parallel().resolved_threads() >= 1);
    }

    #[test]
    fn par_bands_covers_the_range_exactly_once() {
        use std::sync::atomic::{AtomicU32, Ordering};
        for (items, threads) in [(0, 4), (1, 4), (7, 3), (100, 4), (100, 1), (33, 64)] {
            let hits: Vec<AtomicU32> = (0..items).map(|_| AtomicU32::new(0)).collect();
            par_bands(items, threads, 1, |band| {
                for i in band {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "item {i}");
            }
        }
    }

    #[test]
    fn par_claim_claims_every_index_exactly_once() {
        use std::sync::Mutex;
        let caller = std::thread::current().id();
        // One item alone meets the floor, so the worker count is
        // min(threads, items): covers items < threads and items = 0.
        for (items, threads) in [(0, 4), (1, 4), (3, 8), (7, 3), (100, 4), (100, 1), (33, 64)] {
            let mut claimed: Vec<Option<usize>> = vec![None; items];
            let workers = Mutex::new(Vec::new());
            par_claim(&mut claimed, threads, MIN_WORK_PER_DISPATCH, |claims| {
                workers.lock().unwrap().push(std::thread::current().id());
                for (i, slot) in claims {
                    assert_eq!(slot.replace(i), None, "index {i} claimed twice");
                }
            });
            for (i, slot) in claimed.iter().enumerate() {
                assert_eq!(*slot, Some(i), "{items} items on {threads} threads");
            }
            let workers = workers.into_inner().unwrap();
            assert_eq!(workers.len(), threads.min(items).max(1));
            assert!(workers.contains(&caller), "first worker runs inline");
        }
    }

    #[test]
    fn claim_workers_keeps_small_dispatches_inline() {
        assert_eq!(claim_workers(0, 4, 1), 1);
        assert_eq!(claim_workers(100, 4, 1000), 1);
        let half = MIN_WORK_PER_DISPATCH / 2;
        assert_eq!(claim_workers(2, 4, half), 1);
        assert_eq!(claim_workers(3, 4, half), 2);
        assert_eq!(claim_workers(64, 4, half), 4);
    }

    #[test]
    fn minplus_tile_exec_matches_scalar_bitwise() {
        // Random tiles at ragged sizes, including strides wider than the
        // column count and INF-heavy operands.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for &(rows, inner, cols) in &[
            (1usize, 1usize, 1usize),
            (5, 7, 3),
            (33, 17, 29),
            (64, 64, 64),
        ] {
            let stride = cols + 3;
            let gen = |len: usize, rng: &mut dyn FnMut() -> u64| -> Vec<Dist> {
                (0..len)
                    .map(|_| {
                        let v = rng();
                        if v.is_multiple_of(5) {
                            INF
                        } else {
                            (v % 1000) as Dist
                        }
                    })
                    .collect()
            };
            let a = gen(rows * inner, &mut rng);
            let b = gen(inner * cols, &mut rng);
            let c0 = gen(rows * stride, &mut rng);
            let mut scalar = c0.clone();
            minplus_tile(&mut scalar, stride, &a, inner, &b, cols, rows, inner, cols);
            for exec in backends() {
                let mut fast = c0.clone();
                minplus_tile_exec(
                    &mut fast, stride, &a, inner, &b, cols, rows, inner, cols, exec,
                );
                assert_eq!(fast, scalar, "{exec} at {rows}x{inner}x{cols}");
            }
        }
    }

    #[test]
    fn floyd_warshall_exec_matches_scalar_bitwise() {
        for seed in [3u64, 21, 77] {
            let g = gnp(61, 0.07, WeightRange::default(), seed);
            let mut scalar = DistMatrix::from_graph(&g);
            floyd_warshall(&mut scalar);
            for exec in backends() {
                let mut fast = DistMatrix::from_graph(&g);
                floyd_warshall_exec(&mut fast, exec);
                assert_eq!(fast, scalar, "{exec} seed {seed}");
            }
        }
    }

    #[test]
    fn empty_and_trivial_matrices() {
        let mut m = DistMatrix::new(0);
        floyd_warshall_exec(&mut m, ExecBackend::parallel());
        assert_eq!(m.n(), 0);
        let mut one = DistMatrix::new(1);
        floyd_warshall_exec(&mut one, ExecBackend::parallel());
        assert_eq!(one.get(0, 0), 0);
    }
}
