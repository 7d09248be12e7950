//! Execution backends and the one place host kernels reach threads.
//!
//! Every hot kernel of the suite (min-plus tile multiply, Floyd-Warshall,
//! the per-source Near-Far relaxations) is embarrassingly parallel over
//! its output rows once the reduction order is pinned: with a fixed
//! pivot/k order, each output row depends only on *read-only* operands
//! for the duration of one round, so splitting rows across threads is
//! deterministic — not merely "correct up to floating-point", but
//! **bit-identical** to the scalar loops (the min-plus semiring over
//! `u32` has no rounding to reorder).
//!
//! [`par_claim`] is the only function in the workspace that starts
//! threads. Each worker pulls the next unclaimed item from a shared
//! cursor and receives it as a `&mut` to that item alone, so callers
//! hand out their output as disjoint sub-slices (`chunks_mut`,
//! `split_at_mut`) and need no `unsafe`. Per-source SSSP loops, whose
//! items vary in cost, claim one source at a time; row-major kernels go
//! through [`par_row_bands`], which cuts the output into one contiguous
//! band of rows per worker (two threads writing neighbouring rows would
//! share cache lines, and the SIMD tile packs its B operand once per
//! band).
//!
//! The branchless rows that Floyd-Warshall's diagonal tile and the SIMD
//! tile's tails run exploit the same fixed order: the scalar reference
//! guards every relaxation with `if via < c[j]` (an unpredictable branch
//! on random distance data) and skips `INF` rows with an early
//! `continue`. [`relax_row_branchless`] lowers the relaxation to
//! `c[j] = min(c[j], sat_add(aik, b[j]).min(INF))`, which rustc
//! autovectorizes; [`branchless_add`] is proven equal to
//! [`apsp_graph::dist_add`] for **all** `u32` inputs (property-tested at
//! the `INF` boundaries), so the lowering cannot diverge.
//!
//! Threads come from `std::thread::scope` (the vendored `rayon` shim in
//! this workspace is sequential and no longer used). Thread counts
//! resolve, in order, from an explicit `ExecBackend::Simd { threads }`
//! setting, the `RAYON_NUM_THREADS` environment variable (the knob CI
//! pins for reproducibility), and `std::thread::available_parallelism`.

use apsp_graph::{Dist, INF};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How the kernels execute on the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecBackend {
    /// The original single-threaded reference loops, kept verbatim as
    /// the differential baseline.
    Scalar,
    /// Row-band threading with register-tiled SIMD micro-kernels
    /// ([`crate::simd`]). `threads: None` resolves from
    /// `RAYON_NUM_THREADS`, then `available_parallelism`.
    Simd {
        /// Worker thread count; `None` auto-detects.
        threads: Option<usize>,
    },
}

/// The backend a run gets when it names none: `Simd` with an
/// auto-detected thread count, on every host. Where
/// [`crate::simd::active_isa`] reports `"portable"` (no AVX2, or a
/// `--no-default-features` build) it runs the portable micro-kernel.
/// It is bit-identical to `Scalar`, so the host decides speed, never
/// results.
impl Default for ExecBackend {
    fn default() -> Self {
        ExecBackend::simd()
    }
}

impl std::fmt::Display for ExecBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecBackend::Scalar => f.write_str("scalar"),
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
            ExecBackend::Simd { .. } => "simd",
        }
    }

    /// Worker threads this backend will use (1 for `Scalar`).
    pub fn resolved_threads(&self) -> usize {
        match self {
            ExecBackend::Scalar => 1,
            ExecBackend::Simd { threads: Some(t) } => (*t).max(1),
            ExecBackend::Simd { threads: None } => default_threads(),
        }
    }

    /// Single-threaded min-plus tile
    /// `C[i][j] = min(C[i][j], min_k A[i][k] ⊕ B[k][j])`, operands
    /// row-major with per-operand strides as in
    /// [`crate::blocked_fw::minplus_tile`]; `c` must not alias `a` or
    /// `b`. Scalar runs the guarded reference loops, Simd the
    /// register-tiled micro-kernel — bit-identical. Threaded callers
    /// split rows first and call this once per band, so backend
    /// threading never nests.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn minplus_tile(
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
        let tile = match self {
            ExecBackend::Scalar => crate::blocked_fw::minplus_tile,
            ExecBackend::Simd { .. } => crate::simd::minplus_tile_simd,
        };
        tile(c, c_stride, a, a_stride, b, b_stride, rows, inner, cols);
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

/// Minimum elementary operations a dispatch must carry before spawning
/// threads is worth the scoped-spawn overhead (there is no persistent
/// pool, so every parallel dispatch pays thread creation, typically a
/// few hundred µs on a loaded small-core box). Below this, [`par_claim`]
/// runs the whole call inline: on small shapes the spawn cost had been
/// *losing* to scalar (fw-disk 0.985×, johnson-memory 0.935× in the PR 4
/// bench; far worse once spawns actually fire), and an inline fallback
/// restores those to ≥1.0× while leaving large shapes untouched. 2²¹
/// u32 relaxations ≈ 1–2 ms of inner-loop time — the break-even point
/// against one scoped spawn, measured on the bench host.
pub const MIN_WORK_PER_DISPATCH: usize = 1 << 21;

/// Elementary-operation weight of one single-source shortest-path run
/// over a graph of `n` vertices and `m` edges, in the unit of
/// [`MIN_WORK_PER_DISPATCH`]. A Near-Far SSSP costs 11–14 ns per
/// `(n + m)` element single-threaded on a loaded host and 7–8 ns on a
/// quiet one on R-MAT (4.5–5 ns on a grid), against about 0.7 ns per
/// branchless min-plus op, hence 18 ops per element rather than 1; on a
/// quiet host that errs toward dispatch (DESIGN.md §10 has the
/// measurements). Dijkstra and delta-stepping cost more per element, so
/// for them the weight errs toward running inline.
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
/// element of `items` from a shared cursor until none is left. Items of
/// uneven cost balance themselves across workers, and per-worker setup
/// inside `f` still runs once per worker.
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

/// Cut the first `rows` rows of the row-major `buf` (row stride
/// `stride`; the last row may be short) into one contiguous band per
/// [`claim_workers`] worker and run `f(band_rows, band)` on each through
/// [`par_claim`]; `band` starts at row `band_rows.start`. With one
/// worker `f` sees every row inline, at no allocation. Does nothing when
/// `rows` is 0.
pub fn par_row_bands<T, F>(
    buf: &mut [T],
    stride: usize,
    rows: usize,
    threads: usize,
    work_per_row: usize,
    f: F,
) where
    T: Send,
    F: Fn(std::ops::Range<usize>, &mut [T]) + Sync,
{
    if rows == 0 {
        return;
    }
    let workers = claim_workers(rows, threads, work_per_row);
    if workers <= 1 {
        f(0..rows, buf);
        return;
    }
    let per_band = rows.div_ceil(workers);
    let mut bands: Vec<_> = (0..rows)
        .step_by(per_band)
        .zip(buf.chunks_mut((per_band * stride).max(1)))
        .map(|(lo, band)| (lo..rows.min(lo + per_band), band))
        .collect();
    // Each band alone clears the floor, so every band gets its worker.
    par_claim(&mut bands, workers, MIN_WORK_PER_DISPATCH, |claims| {
        for (_, (band_rows, band)) in claims {
            f(band_rows.clone(), band);
        }
    });
}

/// [`crate::blocked_fw::minplus_tile`] under an execution backend:
/// output rows split into [`par_row_bands`], each band run through the
/// backend's single-threaded tile. `c` must not alias `a` or `b`.
/// Bit-identical across backends.
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
    let (threads, work) = (exec.resolved_threads(), inner.saturating_mul(cols));
    par_row_bands(c, c_stride, rows, threads, work, |band, c| {
        let (a, rows) = (&a[band.start * a_stride..], band.len());
        exec.minplus_tile(c, c_stride, a, a_stride, b, b_stride, rows, inner, cols);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocked_fw::minplus_tile;
    use apsp_graph::dist_add;
    use proptest::prelude::*;

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
        assert_eq!(ExecBackend::Simd { threads: Some(7) }.resolved_threads(), 7);
        assert!(ExecBackend::simd().resolved_threads() >= 1);
        let names = [ExecBackend::Scalar, ExecBackend::simd()].map(|e| (e.name(), e.is_scalar()));
        assert_eq!(names, [("scalar", true), ("simd", false)]);
    }

    #[test]
    fn default_is_simd_on_every_isa() {
        let isa = crate::simd::active_isa();
        if cfg!(not(feature = "simd")) {
            assert_eq!(isa, "portable");
        }
        assert_eq!(ExecBackend::default(), ExecBackend::simd(), "isa {isa}");
    }

    #[test]
    fn par_row_bands_hands_every_row_to_one_band() {
        use std::sync::Mutex;
        let stride = 3usize;
        // Each row alone clears the floor, so there are min(threads,
        // rows) workers; (5, 4) leaves one idle. The last row is short.
        for (rows, threads) in [(0, 4), (1, 4), (5, 4), (7, 3), (100, 4), (100, 1), (33, 64)] {
            let mut buf = vec![0usize; (rows * stride).saturating_sub(1)];
            let bands = Mutex::new(Vec::new());
            par_row_bands(
                &mut buf,
                stride,
                rows,
                threads,
                MIN_WORK_PER_DISPATCH,
                |band, b| {
                    for (i, row) in band.clone().zip(b.chunks_mut(stride)) {
                        row.iter_mut().for_each(|x| *x += i + 1);
                    }
                    bands.lock().unwrap().push(band);
                },
            );
            for (e, x) in buf.iter().enumerate() {
                assert_eq!(*x, e / stride + 1, "{rows} rows on {threads} threads");
            }
            let mut bands = bands.into_inner().unwrap();
            bands.sort_by_key(|b| b.start);
            let per_band = rows.div_ceil(threads.min(rows).max(1)).max(1);
            assert_eq!(bands.len(), rows.div_ceil(per_band));
            for (b, band) in bands.iter().enumerate() {
                assert_eq!(*band, b * per_band..((b + 1) * per_band).min(rows));
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

    /// A xorshift64 stream.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn minplus_tile_exec_matches_scalar_bitwise() {
        // Random tiles at ragged sizes, including strides wider than the
        // column count and INF-heavy operands with cells above INF.
        let mut rng = xorshift(0x1234_5678_9abc_def0);
        for &(rows, inner, cols) in &[
            (1usize, 1usize, 1usize),
            (5, 7, 3),
            (33, 17, 29),
            (64, 64, 64),
            // Splits into bands on 2 and 3 threads.
            (256, 128, 136),
        ] {
            if rows == 256 {
                assert!(claim_workers(rows, 2, inner * cols) > 1);
            }
            let (a_stride, b_stride, c_stride) = (inner + 1, cols + 5, cols + 3);
            let gen = |len: usize, rng: &mut dyn FnMut() -> u64| -> Vec<Dist> {
                (0..len)
                    .map(|_| {
                        let v = rng();
                        match v % 10 {
                            0 | 1 => INF,
                            2 => INF + (v % 64) as Dist,
                            _ => (v % 1000) as Dist,
                        }
                    })
                    .collect()
            };
            let a = gen(rows * a_stride, &mut rng);
            let b = gen(inner * b_stride, &mut rng);
            let c0 = gen(rows * c_stride, &mut rng);
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
            for threads in [Some(1), Some(2), Some(3), None] {
                let exec = ExecBackend::Simd { threads };
                let mut fast = c0.clone();
                minplus_tile_exec(
                    &mut fast, c_stride, &a, a_stride, &b, b_stride, rows, inner, cols, exec,
                );
                assert_eq!(fast, scalar, "{exec} at {rows}x{inner}x{cols}");
            }
        }
    }

    /// The Simd floor where no accelerated ISA runs: `minplus_tile_exec`
    /// at n = 192, best of 9, against Scalar, on operands drawn like
    /// `bench_kernels`' (one cell in eight `INF`). Timed, so ignored by
    /// default; CI's `--no-default-features` leg runs it alone, on the
    /// portable micro-kernel (`bench_kernels --smoke` holds AVX2 to 3x).
    #[test]
    #[ignore = "timed gate: run alone, with --release"]
    fn simd_minplus_beats_scalar_by_1_5x() {
        let n = 192;
        let mut next = xorshift(0x1234_5678_9abc_def0);
        let mut cells = || -> Vec<Dist> {
            (0..n * n)
                .map(|_| match next() % 10_000 {
                    v if v.is_multiple_of(8) => INF,
                    v => v as Dist,
                })
                .collect()
        };
        let (a, b, c0) = (cells(), cells(), cells());
        let best_of_9 = |exec: ExecBackend| {
            let mut c = c0.clone();
            let mut best = f64::INFINITY;
            for _ in 0..9 {
                c.copy_from_slice(&c0);
                let t = std::time::Instant::now();
                minplus_tile_exec(&mut c, n, &a, n, &b, n, n, n, n, exec);
                best = best.min(t.elapsed().as_secs_f64());
            }
            (best, c)
        };
        let (scalar_s, scalar) = best_of_9(ExecBackend::Scalar);
        let (simd_s, simd) = best_of_9(ExecBackend::simd());
        assert!(simd == scalar, "simd diverged from scalar");
        let (speedup, isa) = (scalar_s / simd_s, crate::simd::active_isa());
        eprintln!("minplus-{n}: simd ({isa}) at {speedup:.2}x scalar");
        assert!(speedup >= 1.5, "simd ({isa}) at {speedup:.2}x < 1.5x");
    }
}
