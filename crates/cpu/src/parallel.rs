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
//! The workers besides the caller come from a process-wide pool: helper
//! threads started on first use, grown to the largest count a call asks
//! for, that poll for the next job for about a millisecond after each
//! one and then park. A call publishes its job, runs its own share,
//! closes the job to late helpers and waits only for the helpers already
//! inside it, so no call waits for a helper to wake. A call made while
//! another holds the pool (from inside a claimed item, or from another
//! thread) runs on its caller alone, and a helper's panic resumes on the
//! caller. DESIGN.md §10 has the hand-off costs.
//!
//! The branchless rows that Floyd-Warshall's diagonal tile runs exploit
//! the same fixed order: the scalar reference guards every relaxation
//! with `if via < c[j]` (an unpredictable branch on random distance
//! data) and skips `INF` rows with an early `continue`.
//! [`relax_row_branchless`] lowers the relaxation to
//! `c[j] = min(c[j], sat_add(aik, b[j]).min(INF))`, which rustc
//! autovectorizes; [`branchless_add`] is proven equal to
//! [`apsp_graph::dist_add`] for **all** `u32` inputs (property-tested at
//! the `INF` boundaries), so the lowering cannot diverge.
//!
//! The vendored `rayon` shim in this workspace is sequential and no
//! longer used. Thread counts resolve, in order, from an explicit
//! `ExecBackend::Simd { threads }` setting, the `RAYON_NUM_THREADS`
//! environment variable (the knob CI pins for reproducibility), and
//! `std::thread::available_parallelism`.

use apsp_graph::{Dist, INF};
use std::any::Any;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

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

/// Minimum elementary operations each worker of a dispatch must carry
/// before [`par_claim`] hands part of it to the pool; below this it runs
/// the whole call inline. A hand-off costs the caller about 1 µs when a
/// helper is polling and about 8 µs when it has parked (the wake-up
/// call), against 16–22 µs for the scoped spawn and join that each
/// dispatch paid before the pool (DESIGN.md §10). 2¹⁶ ops are 3–5 µs of
/// register-tiled min-plus at 13–25 Gop/s, and 46 µs of branchless
/// relaxations at 0.7 ns each, so a split pays for a polling helper's
/// hand-off at every shape that clears the floor.
pub const MIN_WORK_PER_DISPATCH: usize = 1 << 16;

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

/// Run `f` once on the calling thread and once on each pool helper that
/// joins in time, up to [`claim_workers`] workers in all; each worker's
/// [`Claims`] pulls the next unclaimed element of `items` from a shared
/// cursor until none is left. Items of uneven cost balance themselves
/// across workers, and per-worker setup inside `f` still runs once per
/// worker.
///
/// Helpers are opportunistic: the caller claims items until none is
/// left and then waits only for the helpers already inside the call, so
/// a helper that is slow to wake costs nothing. A call made while
/// another one holds the pool, from a claimed item or from another
/// thread, runs on its caller alone. A panic on a helper resumes on the
/// caller once every worker has left.
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
    let workers = claim_workers(items.len(), threads, work_per_item);
    // `items` stays mutably borrowed, and untouched, for the whole call.
    let shared = Shared {
        items: items.as_mut_ptr(),
        len: items.len(),
        cursor: AtomicUsize::new(0),
        _items: PhantomData,
    };
    let claims = || Claims { shared: &shared };
    if workers <= 1 {
        f(claims());
        return;
    }
    POOL.run(workers - 1, &|| f(claims()));
}

/// One unit of the gate's helper-admission count.
const SLOT: u64 = 1 << 32;
/// The gate's count of helpers inside the published job.
const INSIDE: u64 = SLOT - 1;
/// Gate polls a helper makes after its last job before it parks, with
/// a `yield_now` between polls: about 1 ms on a 2-vCPU VM. A helper
/// that spins with `spin_loop` instead was descheduled for 4 ms at a
/// time there (DESIGN.md §10 has the measurements).
const POLLS: u32 = 1 << 12;

/// The process-wide helpers behind [`par_claim`], started on first use
/// and grown to the largest helper count a call asks for. One call at a
/// time owns the pool and publishes its job through `job` and `gate`.
struct Pool {
    /// Held by the call whose job the pool runs.
    owner: AtomicBool,
    /// Helpers started so far; only the owner changes it.
    helpers: AtomicUsize,
    /// The owner's job, valid while `gate` admits or counts a helper.
    job: AtomicPtr<Job<'static>>,
    /// Helpers the job still admits, in units of [`SLOT`], plus the
    /// helpers inside it ([`INSIDE`]).
    gate: AtomicU64,
    /// Helpers parked, or about to park, on `wake`.
    parked: AtomicUsize,
    sleep: Mutex<()>,
    wake: Condvar,
}

/// A published job: each worker calls `run` once.
struct Job<'a> {
    run: &'a (dyn Fn() + Sync),
    /// The first panic a helper caught, resumed on the owner.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

static POOL: Pool = Pool {
    owner: AtomicBool::new(false),
    helpers: AtomicUsize::new(0),
    job: AtomicPtr::new(std::ptr::null_mut()),
    gate: AtomicU64::new(0),
    parked: AtomicUsize::new(0),
    sleep: Mutex::new(()),
    wake: Condvar::new(),
};

impl Pool {
    /// Run `run` on the calling thread and on up to `helpers` helpers.
    fn run(&'static self, helpers: usize, run: &(dyn Fn() + Sync)) {
        if self
            .owner
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            run();
            return;
        }
        self.grow(helpers);
        let job = Job {
            run,
            panic: Mutex::new(None),
        };
        // Release (via SeqCst) publishes `job`, and what the caller wrote
        // before the call, to each helper's Acquire entry. SeqCst on the
        // gate and on `parked`, here and in `park`, makes sure that a
        // helper about to park either sees the open gate or is counted.
        self.job.store(
            &job as *const Job<'_> as *mut Job<'static>,
            Ordering::Relaxed,
        );
        self.gate.store(helpers as u64 * SLOT, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) > 0 {
            let _held = self.sleep.lock().unwrap_or_else(PoisonError::into_inner);
            self.wake.notify_all();
        }
        let mine = catch_unwind(AssertUnwindSafe(run));
        // Admit no one else, then wait for the helpers inside: their
        // Release exits pair with this Acquire, so their writes through
        // their claims are visible once the count reads zero.
        self.gate.fetch_and(INSIDE, Ordering::Acquire);
        while self.gate.load(Ordering::Acquire) != 0 {
            std::thread::yield_now();
        }
        self.owner.store(false, Ordering::Release);
        let helper = job
            .panic
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(payload) = mine.err().or(helper) {
            resume_unwind(payload);
        }
    }

    /// Start helpers until there are `helpers`; a failed start leaves
    /// the pool smaller, which only means fewer helpers join.
    fn grow(&'static self, helpers: usize) {
        while self.helpers.load(Ordering::Relaxed) < helpers {
            let started = std::thread::Builder::new()
                .name("apsp-pool".into())
                .spawn(move || self.serve());
            if started.is_err() {
                return;
            }
            self.helpers.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A helper's life: join each job the gate admits it to, polling
    /// for the next one for a while and then parking. It catches every
    /// panic and hands it to the job's owner, so it never exits.
    fn serve(&self) {
        loop {
            if !self.poll() {
                self.park();
                continue;
            }
            // SAFETY: `enter` admitted this helper, so the owner has
            // published `job` before opening the gate (the Acquire entry
            // makes the store visible) and cannot return, which would
            // free the job, until this helper leaves below.
            let job = unsafe { &*self.job.load(Ordering::Relaxed) };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(job.run)) {
                let mut first = job.panic.lock().unwrap_or_else(PoisonError::into_inner);
                first.get_or_insert(payload);
            }
            self.gate.fetch_sub(1, Ordering::Release);
        }
    }

    /// Poll the gate [`POLLS`] times; whether this helper entered a job.
    fn poll(&self) -> bool {
        for _ in 0..POLLS {
            if self.enter() {
                return true;
            }
            std::thread::yield_now();
        }
        false
    }

    /// Take one of the published job's helper slots, if one is left.
    fn enter(&self) -> bool {
        let mut gate = self.gate.load(Ordering::Relaxed);
        while gate >= SLOT {
            match self.gate.compare_exchange_weak(
                gate,
                gate - SLOT + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => gate = now,
            }
        }
        false
    }

    /// Sleep until a job admits helpers.
    fn park(&self) {
        let mut held = self.sleep.lock().unwrap_or_else(PoisonError::into_inner);
        self.parked.fetch_add(1, Ordering::SeqCst);
        while self.gate.load(Ordering::SeqCst) < SLOT {
            held = self.wake.wait(held).unwrap_or_else(PoisonError::into_inner);
        }
        self.parked.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One worker's share of a [`par_claim`] call: an iterator over
/// `(index, &mut item)` pairs, each claimed from the cursor it shares
/// with the call's other workers.
pub struct Claims<'a, T> {
    shared: &'a Shared<'a, T>,
}

/// What a [`par_claim`] call's workers share: its items and the cursor
/// they claim them from.
struct Shared<'a, T> {
    items: *mut T,
    len: usize,
    cursor: AtomicUsize,
    _items: PhantomData<&'a mut [T]>,
}

// SAFETY: `items` points into the slice `par_claim` holds mutably
// borrowed for its whole call, which outlives `'a`, and `Claims::next`
// turns it only into `&mut T`s to elements no other claimer receives;
// sharing a `Shared` between threads therefore hands each of them
// `&mut T`s to distinct elements, which is sound for `T: Send`. `len`
// is plain data and `cursor` an atomic.
unsafe impl<T: Send> Sync for Shared<'_, T> {}

impl<'a, T> Iterator for Claims<'a, T> {
    type Item = (usize, &'a mut T);

    fn next(&mut self) -> Option<Self::Item> {
        // Relaxed: the cursor publishes no other data. Each `fetch_add`
        // is one read-modify-write of the same atomic, so every index
        // is returned to exactly one claimer; what a helper writes
        // reaches the caller through its Release exit from the pool's
        // gate.
        let shared = self.shared;
        let i = shared.cursor.fetch_add(1, Ordering::Relaxed);
        if i >= shared.len {
            return None;
        }
        // SAFETY: `i < len` lies inside the slice, which stays borrowed
        // for longer than `'a`, and the cursor only grows (wrapping would
        // take 2⁶⁴ claims), so no other claimer ever holds a reference to
        // element `i`.
        Some((i, unsafe { &mut *shared.items.add(i) }))
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
    use std::time::{Duration, Instant};

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
        // One item alone meets the floor, so each call asks for
        // min(threads, items) workers: covers items < threads and
        // items = 0.
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
            // Helpers join when they can: the caller, plus at most
            // min(threads, items) − 1 of them.
            let workers = workers.into_inner().unwrap();
            assert!(workers.len() <= threads.min(items).max(1));
            assert!(workers.contains(&caller), "the caller is a worker");
        }
    }

    #[test]
    fn concurrent_callers_each_claim_every_index_once() {
        use std::sync::{Arc, Barrier};
        let start = Arc::new(Barrier::new(4));
        let callers: Vec<_> = (0..4)
            .map(|caller| {
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for round in 0..50 {
                        let items = 1 + (caller * 50 + round) % 97;
                        let mut claimed: Vec<Option<usize>> = vec![None; items];
                        par_claim(&mut claimed, 3, MIN_WORK_PER_DISPATCH, |claims| {
                            for (i, slot) in claims {
                                assert_eq!(slot.replace(i), None, "index {i} claimed twice");
                            }
                        });
                        for (i, slot) in claimed.iter().enumerate() {
                            assert_eq!(*slot, Some(i), "caller {caller}, {items} items");
                        }
                    }
                })
            })
            .collect();
        for caller in callers {
            caller.join().expect("a caller panicked");
        }
    }

    #[test]
    fn a_par_claim_inside_a_claimed_item_completes() {
        let mut outer = vec![Vec::new(); 8];
        par_claim(&mut outer, 2, MIN_WORK_PER_DISPATCH, |claims| {
            for (_, inner) in claims {
                inner.resize(16, None);
                par_claim(inner, 2, MIN_WORK_PER_DISPATCH, |claims| {
                    for (j, slot) in claims {
                        *slot = Some(j);
                    }
                });
            }
        });
        for inner in &outer {
            assert!(inner.iter().enumerate().all(|(j, s)| *s == Some(j)));
        }
    }

    /// Runs a two-item job on two workers: an item the caller claims
    /// waits, for at most `bound`, until another thread claims the other
    /// one, and a helper's item runs `on_helper`. Whether a helper
    /// joined; it cannot while another call, say another test's, holds
    /// the pool, so callers retry.
    fn two_item_job(bound: Duration, on_helper: impl Fn() + Sync) -> bool {
        let caller = std::thread::current().id();
        let joined = AtomicBool::new(false);
        par_claim(&mut [(); 2], 2, MIN_WORK_PER_DISPATCH, |claims| {
            for _ in claims {
                if std::thread::current().id() != caller {
                    joined.store(true, Ordering::SeqCst);
                    on_helper();
                }
                let waited = Instant::now();
                while !joined.load(Ordering::SeqCst) && waited.elapsed() < bound {
                    std::thread::yield_now();
                }
            }
        });
        joined.into_inner()
    }

    const BOUND: Duration = Duration::from_millis(200);

    #[test]
    fn a_helper_joins_a_waiting_job() {
        assert!((0..50).any(|_| two_item_job(BOUND, || {})));
    }

    #[test]
    fn a_helpers_panic_resumes_on_the_caller() {
        let caught = (0..50).find_map(|_| {
            let job = AssertUnwindSafe(|| two_item_job(BOUND, || panic!("helper item")));
            catch_unwind(job).err()
        });
        let payload = caught.expect("no helper joined");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"helper item"));
        // The helper survived its panic.
        assert!((0..50).any(|_| two_item_job(BOUND, || {})));
    }

    #[test]
    fn claim_workers_keeps_small_dispatches_inline() {
        assert_eq!(claim_workers(0, 4, 1), 1);
        assert_eq!(claim_workers(65, 4, 1000), 1);
        assert_eq!(claim_workers(66, 4, 1000), 1);
        assert_eq!(claim_workers(67, 4, 1000), 2);
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
