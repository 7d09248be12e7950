//! Runtime supervision for the out-of-core drivers: deadlines,
//! cooperative cancellation, stall detection, and the shared retry
//! policy.
//!
//! The selector picks an algorithm up front from density and cost
//! models, but a long-running service must survive the selector being
//! wrong at runtime. This module supplies the envelope the drivers run
//! inside:
//!
//! * a **run budget** — a wall-clock deadline plus a per-barrier
//!   progress budget, both measured on the gpu-sim timeline clock so
//!   every check is deterministic and reproducible from a seed;
//! * a **[`CancelToken`]** checked at every natural barrier (FW pivot
//!   round, Johnson batch, boundary component flush) and inside the
//!   [`crate::tile_store::TileStore`] read/write loops;
//! * a **watchdog** that declares a [`crate::ApspError::Stalled`] run
//!   when no barrier commits within the progress budget — the signal
//!   the fallback chain in [`crate::api::apsp`] uses to re-enter the
//!   selector with the failed algorithm masked;
//! * a **[`RetryPolicy`]** that the one recovery ladder every driver
//!   runs under (`run_ctx::climb`) applies: bounded attempts, exponential
//!   backoff with seeded jitter (recorded, never slept — the simulator
//!   owns time), and transient-vs-fatal classification over
//!   [`ApspErrorKind`].
//!
//! Everything here is deterministic by construction: time comes from
//! the simulated device, jitter from a seeded generator, and the
//! cancellation test hook counts checks rather than racing threads.

use crate::error::{ApspError, ApspErrorKind};
use crate::options::Algorithm;
use crate::telemetry::Telemetry;
use apsp_gpu_sim::OutOfDeviceMemory;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sentinel for "no countdown armed" in [`CancelToken`].
const NO_COUNTDOWN: u64 = u64::MAX;

/// Cooperative cancellation handle.
///
/// Clone it, hand one clone to the run (via
/// [`SupervisionOptions::cancel`]) and keep the other; calling
/// [`CancelToken::cancel`] makes the run return
/// [`ApspError::Cancelled`] at its next barrier or store operation.
///
/// For deterministic tests, [`CancelToken::cancel_after_checks`] arms a
/// countdown instead: the `n`-th supervision check observes the
/// cancellation, with no threads or wall clocks involved.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

#[derive(Debug)]
struct CancelInner {
    /// 1 when cancelled.
    cancelled: AtomicU64,
    /// Remaining checks before the token trips itself; [`NO_COUNTDOWN`]
    /// disables the countdown.
    countdown: AtomicU64,
}

impl Default for CancelInner {
    fn default() -> Self {
        CancelInner {
            cancelled: AtomicU64::new(0),
            countdown: AtomicU64::new(NO_COUNTDOWN),
        }
    }
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that trips itself on its `n`-th supervision check
    /// (1-based; `n = 0` is cancelled immediately). Deterministic by
    /// construction — checks are counted, not timed.
    pub fn cancel_after_checks(n: u64) -> CancelToken {
        let tok = CancelToken::new();
        if n == 0 {
            tok.cancel();
        } else {
            tok.inner.countdown.store(n, Ordering::SeqCst);
        }
        tok
    }

    /// Request cancellation. Idempotent.
    pub fn cancel(&self) {
        self.inner.cancelled.store(1, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested (does not count as a
    /// check for [`CancelToken::cancel_after_checks`]).
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::SeqCst) == 1
    }

    /// Count `n` supervision checks (row-granular, matching the store's
    /// crash-op accounting); returns whether the run should stop.
    fn tick(&self, n: u64) -> bool {
        let left = self.inner.countdown.load(Ordering::SeqCst);
        if left != NO_COUNTDOWN && n > 0 {
            if left <= n {
                self.cancel();
                self.inner.countdown.store(NO_COUNTDOWN, Ordering::SeqCst);
            } else {
                self.inner.countdown.store(left - n, Ordering::SeqCst);
            }
        }
        self.is_cancelled()
    }
}

/// Bounded-retry policy shared by the three out-of-core drivers.
///
/// Transient failures (today: [`ApspErrorKind::OutOfDeviceMemory`], per
/// [`ApspErrorKind::is_transient`]) are retried — first at the same
/// geometry (a one-shot fault such as fragmentation or a competing
/// context may clear), then at a halved geometry — until the driver's
/// floor or `max_retries` is reached. Each retry is assigned an
/// exponential backoff with seeded jitter; the backoff is **recorded in
/// the event log, never slept**, because the simulator owns time and
/// determinism is a contract (same seed ⇒ same event sequence).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total transient failures absorbed before giving up.
    pub max_retries: u32,
    /// Same-geometry attempts before each shrink.
    pub same_geometry_retries: u32,
    /// Backoff for the first retry, in milliseconds.
    pub backoff_base_ms: u64,
    /// Growth factor per subsequent retry.
    pub backoff_multiplier: f64,
    /// Seed for the jitter added to each backoff.
    pub jitter_seed: u64,
    /// Panel-scoped silent-corruption recoveries absorbed per run (rung
    /// 1 of the SDC ladder: reset just the damaged panel and replay).
    pub sdc_panel_retries: u32,
    /// Round-scoped silent-corruption recoveries absorbed per run (rung
    /// 2: restore the last checkpoint snapshot, or reseed from the
    /// graph, and replay the round).
    pub sdc_round_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            // High enough that geometry floors, not the count, end the
            // retry ladder in practice (a 2^32-sided tile halves to 1 in
            // 32 steps, each preceded by one same-geometry attempt).
            max_retries: 96,
            same_geometry_retries: 1,
            backoff_base_ms: 10,
            backoff_multiplier: 2.0,
            jitter_seed: 0x0DD5_EED5,
            sdc_panel_retries: 2,
            sdc_round_retries: 1,
        }
    }
}

pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a driver should do with its geometry after a transient failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RetryStep {
    /// Re-run at the same geometry (one-shot faults may clear).
    SameGeometry,
    /// Halve the working-set geometry (tile side, batch, components).
    Shrink,
}

/// Per-run retry state: one lives in `run_ctx::climb`.
#[derive(Debug)]
pub(crate) struct RetryState {
    policy: RetryPolicy,
    algorithm: &'static str,
    retries: u32,
    same_left: u32,
    jitter: u64,
}

impl RetryState {
    /// Fresh state for one driver run.
    pub(crate) fn new(policy: &RetryPolicy, algorithm: &'static str) -> RetryState {
        RetryState {
            policy: *policy,
            algorithm,
            retries: 0,
            same_left: policy.same_geometry_retries,
            jitter: policy.jitter_seed,
        }
    }

    /// Transient failures absorbed so far (the drivers' `retries` stat).
    pub(crate) fn retries(&self) -> u32 {
        self.retries
    }

    /// Classify `err` and consume one retry slot.
    ///
    /// Fatal kinds — and transient ones beyond
    /// [`RetryPolicy::max_retries`] — propagate unchanged. Transient
    /// failures return the step to take plus the underlying allocation
    /// failure (handed back so the driver's geometry-floor message can
    /// cite it), and record a [`SupervisionEvent::Retry`] with the
    /// jittered backoff.
    pub(crate) fn next_step(
        &mut self,
        err: ApspError,
        sup: &Supervisor,
    ) -> Result<(RetryStep, OutOfDeviceMemory), ApspError> {
        if !err.kind().is_transient() || self.retries >= self.policy.max_retries {
            return Err(err);
        }
        // The only transient kind is OutOfDeviceMemory (pinned by the
        // exhaustive classification test in `error`).
        let ApspError::OutOfDeviceMemory(oom) = err else {
            unreachable!("is_transient() admits only OutOfDeviceMemory")
        };
        self.retries += 1;
        let step = if self.same_left > 0 {
            self.same_left -= 1;
            RetryStep::SameGeometry
        } else {
            self.same_left = self.policy.same_geometry_retries;
            RetryStep::Shrink
        };
        let base = self.policy.backoff_base_ms as f64
            * self
                .policy
                .backoff_multiplier
                .powi(self.retries.saturating_sub(1) as i32);
        let jitter = splitmix64(&mut self.jitter) % self.policy.backoff_base_ms.max(1);
        sup.record_event(SupervisionEvent::Retry {
            algorithm: self.algorithm,
            attempt: self.retries,
            backoff_ms: base as u64 + jitter,
            shrink: step == RetryStep::Shrink,
        });
        Ok((step, oom))
    }
}

/// Supervision knobs threaded through [`crate::ApspOptions`].
#[derive(Debug, Clone, Default)]
pub struct SupervisionOptions {
    /// Wall-clock budget for the whole run, in simulated milliseconds;
    /// `None` runs unbounded. Exceeding it returns
    /// [`ApspError::DeadlineExceeded`] at the next barrier, leaving any
    /// configured checkpoint resumable.
    pub deadline_ms: Option<u64>,
    /// Watchdog budget: the longest gap allowed between barrier
    /// commits, in simulated milliseconds; `None` disables the
    /// watchdog. A miss returns [`ApspError::Stalled`].
    pub progress_budget_ms: Option<u64>,
    /// Cooperative cancellation handle; keep a clone and call
    /// [`CancelToken::cancel`] to stop the run at its next barrier or
    /// store operation.
    pub cancel: Option<CancelToken>,
    /// Retry policy for transient failures in the drivers.
    pub retry: RetryPolicy,
    /// On an unrecoverable per-algorithm failure (device too small,
    /// allocation floor, stall), re-enter the selector with the failed
    /// algorithm masked and try the next-best one.
    pub fallback: bool,
}

/// One entry in the supervision event log — the deterministic record of
/// what the retry/watchdog/fallback machinery did.
#[derive(Debug, Clone, PartialEq)]
pub enum SupervisionEvent {
    /// A transient failure was absorbed by the retry policy.
    Retry {
        /// Driver name (matches [`ApspError::DeviceTooSmall`] tags).
        algorithm: &'static str,
        /// 1-based retry ordinal within the run.
        attempt: u32,
        /// Assigned exponential backoff with seeded jitter. Recorded,
        /// never slept — determinism is the contract.
        backoff_ms: u64,
        /// Whether the driver was told to halve its geometry.
        shrink: bool,
    },
    /// The watchdog declared a stall.
    Stall {
        /// The barrier at which the miss was observed.
        at: String,
        /// Simulated seconds since the last barrier commit.
        idle_seconds: f64,
    },
    /// The fallback chain switched algorithms.
    Fallback {
        /// The algorithm that failed.
        from: Algorithm,
        /// The replacement the masked selector picked.
        to: Algorithm,
        /// Why `from` was abandoned.
        error_kind: ApspErrorKind,
    },
}

/// A record of one fallback transition, surfaced in
/// [`crate::ApspResult::fallback_events`].
#[derive(Debug, Clone, PartialEq)]
pub struct FallbackEvent {
    /// The algorithm that failed.
    pub from: Algorithm,
    /// The replacement the masked selector picked.
    pub to: Algorithm,
    /// Why `from` was abandoned.
    pub error_kind: ApspErrorKind,
    /// The failed algorithm's error message.
    pub detail: String,
    /// Simulated time of the switch.
    pub sim_seconds: f64,
}

/// The supervision envelope: a cheap, cloneable handle shared by the
/// front-end, the drivers, and the tile store.
///
/// All clocks are **simulated seconds** from the gpu-sim timeline, so a
/// run's deadline/stall behaviour is a pure function of the workload
/// and the options — no host wall clock is consulted anywhere.
#[derive(Debug, Clone)]
pub struct Supervisor {
    inner: Arc<SupervisorInner>,
}

#[derive(Debug)]
struct SupervisorInner {
    /// Absolute simulated deadline (start + budget).
    deadline_s: Option<f64>,
    /// Progress (stall) budget.
    budget_s: Option<f64>,
    cancel: Option<CancelToken>,
    retry: RetryPolicy,
    /// Metrics handle the drivers and the tile store reach through the
    /// supervisor, so their signatures stay unchanged. Disabled unless
    /// the front-end armed it via [`Supervisor::with_telemetry`].
    telemetry: Telemetry,
    state: Mutex<SupervisorState>,
}

#[derive(Debug)]
struct SupervisorState {
    /// Effective time of the last barrier commit (or run start).
    last_progress_s: f64,
    /// Simulated disk-stall time charged by [`Supervisor::charge_io_stall`];
    /// added to the device clock when budgets are evaluated, because the
    /// device timeline does not see host-side disk time.
    io_stall_s: f64,
    events: Vec<SupervisionEvent>,
}

impl Supervisor {
    /// Arm a supervisor at simulated time `start_s` (the device clock at
    /// run start), with telemetry disabled.
    pub fn new(opts: &SupervisionOptions, start_s: f64) -> Supervisor {
        Supervisor::with_telemetry(opts, start_s, Telemetry::disabled())
    }

    /// [`Supervisor::new`] with a metrics handle attached; the drivers
    /// and the tile store reach it through [`Supervisor::telemetry`].
    pub fn with_telemetry(
        opts: &SupervisionOptions,
        start_s: f64,
        telemetry: Telemetry,
    ) -> Supervisor {
        Supervisor {
            inner: Arc::new(SupervisorInner {
                deadline_s: opts.deadline_ms.map(|ms| start_s + ms as f64 / 1e3),
                budget_s: opts.progress_budget_ms.map(|ms| ms as f64 / 1e3),
                cancel: opts.cancel.clone(),
                retry: opts.retry,
                telemetry,
                state: Mutex::new(SupervisorState {
                    last_progress_s: start_s,
                    io_stall_s: 0.0,
                    events: Vec::new(),
                }),
            }),
        }
    }

    /// The metrics handle this run records into (disabled unless the
    /// front-end enabled telemetry).
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }

    /// A supervisor with no budgets and no token: every check passes.
    /// A driver `run` whose `RunCtx` has no supervisor runs under one of
    /// these, so there is a single code path.
    pub fn unarmed() -> Supervisor {
        Supervisor::new(&SupervisionOptions::default(), 0.0)
    }

    /// The retry policy the drivers run under.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.inner.retry
    }

    /// Check the budgets at a barrier and mark the barrier as progress.
    ///
    /// `now_s` is the device clock; the supervisor adds any charged
    /// disk-stall time before comparing. Order of precedence:
    /// cancellation, deadline, stall.
    pub fn check_barrier(&self, now_s: f64, what: &str) -> Result<(), ApspError> {
        if let Some(tok) = &self.inner.cancel {
            if tok.tick(1) {
                return Err(ApspError::Cancelled {
                    detail: format!("observed at {what}"),
                });
            }
        }
        let mut st = self.inner.state.lock();
        let eff = now_s + st.io_stall_s;
        if let Some(dl) = self.inner.deadline_s {
            if eff >= dl {
                return Err(ApspError::DeadlineExceeded {
                    detail: format!(
                        "simulated clock at {eff:.6}s passed the deadline of {dl:.6}s at {what}"
                    ),
                });
            }
        }
        if let Some(budget) = self.inner.budget_s {
            let idle = eff - st.last_progress_s;
            if idle > budget {
                st.events.push(SupervisionEvent::Stall {
                    at: what.to_string(),
                    idle_seconds: idle,
                });
                return Err(ApspError::Stalled {
                    detail: format!(
                        "no barrier committed for {idle:.6}s (budget {budget:.6}s) at {what}"
                    ),
                });
            }
        }
        st.last_progress_s = eff;
        Ok(())
    }

    /// Cancellation check for the tile store's read/write loops; counts
    /// as `ops` row-granular token checks (a block access of `r` rows is
    /// `r` checks, matching the store's crash-op accounting). A trip is
    /// [`ApspError::Cancelled`].
    pub fn io_tick(&self, ops: u64) -> Result<(), ApspError> {
        if let Some(tok) = &self.inner.cancel {
            if tok.tick(ops) {
                return Err(ApspError::Cancelled {
                    detail: "cancelled during a tile store operation".into(),
                });
            }
        }
        Ok(())
    }

    /// Charge simulated host-side disk stall time (from a
    /// [`crate::tile_store::DiskFault::HangMicros`] fault). The charge
    /// counts against both the deadline and the progress budget at the
    /// next barrier check.
    pub fn charge_io_stall(&self, seconds: f64) {
        self.inner.state.lock().io_stall_s += seconds;
    }

    /// Total simulated disk-stall time charged so far.
    pub fn io_stall_seconds(&self) -> f64 {
        self.inner.state.lock().io_stall_s
    }

    /// Restart the progress window at `now_s` — called when a retry or
    /// fallback begins a fresh attempt, so the stale window of the
    /// failed attempt cannot instantly re-trip the watchdog.
    pub fn reset_progress(&self, now_s: f64) {
        let mut st = self.inner.state.lock();
        let eff = now_s + st.io_stall_s;
        st.last_progress_s = eff;
    }

    /// Append to the event log.
    pub fn record_event(&self, event: SupervisionEvent) {
        self.inner.state.lock().events.push(event);
    }

    /// Snapshot of the event log.
    pub fn events(&self) -> Vec<SupervisionEvent> {
        self.inner.state.lock().events.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_supervisor_always_passes() {
        let sup = Supervisor::unarmed();
        for i in 0..1000 {
            sup.check_barrier(i as f64 * 1e6, "round").unwrap();
            sup.io_tick(1).unwrap();
        }
    }

    #[test]
    fn deadline_trips_at_the_barrier_after_expiry() {
        let opts = SupervisionOptions {
            deadline_ms: Some(1500),
            ..Default::default()
        };
        let sup = Supervisor::new(&opts, 10.0);
        sup.check_barrier(10.5, "round 0").unwrap();
        sup.check_barrier(11.4, "round 1").unwrap();
        let err = sup.check_barrier(11.6, "round 2").unwrap_err();
        assert_eq!(err.kind(), ApspErrorKind::DeadlineExceeded);
        assert!(err.to_string().contains("round 2"));
    }

    #[test]
    fn watchdog_trips_when_a_barrier_misses_its_budget() {
        let opts = SupervisionOptions {
            progress_budget_ms: Some(1000),
            ..Default::default()
        };
        let sup = Supervisor::new(&opts, 0.0);
        sup.check_barrier(0.9, "b0").unwrap();
        sup.check_barrier(1.7, "b1").unwrap();
        let err = sup.check_barrier(2.8, "b2").unwrap_err();
        assert_eq!(err.kind(), ApspErrorKind::Stalled);
        let events = sup.events();
        assert!(
            matches!(&events[..], [SupervisionEvent::Stall { at, .. }] if at == "b2"),
            "stall must be logged: {events:?}"
        );
    }

    #[test]
    fn io_stall_charges_count_against_both_budgets() {
        let opts = SupervisionOptions {
            deadline_ms: Some(10_000),
            progress_budget_ms: Some(5_000),
            ..Default::default()
        };
        let sup = Supervisor::new(&opts, 0.0);
        sup.check_barrier(1.0, "b0").unwrap();
        // The device clock barely moves, but a hung disk burns 6s.
        sup.charge_io_stall(6.0);
        let err = sup.check_barrier(1.1, "b1").unwrap_err();
        assert_eq!(err.kind(), ApspErrorKind::Stalled);
    }

    #[test]
    fn cancel_token_trips_immediately_and_by_countdown() {
        let tok = CancelToken::new();
        let run_side = tok.clone();
        assert!(!run_side.is_cancelled());
        tok.cancel();
        assert!(run_side.is_cancelled());

        let tok = CancelToken::cancel_after_checks(3);
        let opts = SupervisionOptions {
            cancel: Some(tok.clone()),
            ..Default::default()
        };
        let sup = Supervisor::new(&opts, 0.0);
        sup.check_barrier(0.0, "b0").unwrap();
        sup.io_tick(1).unwrap();
        let err = sup.check_barrier(0.0, "b2").unwrap_err();
        assert_eq!(err.kind(), ApspErrorKind::Cancelled);
        assert!(tok.is_cancelled());
    }

    #[test]
    fn retry_state_matches_the_drivers_ladder() {
        let oom = || OutOfDeviceMemory {
            requested: 64,
            available: 0,
            capacity: 64,
        };
        let sup = Supervisor::unarmed();
        let mut rs = RetryState::new(&RetryPolicy::default(), "test");
        let (s1, _) = rs
            .next_step(ApspError::OutOfDeviceMemory(oom()), &sup)
            .unwrap();
        assert_eq!(s1, RetryStep::SameGeometry);
        let (s2, _) = rs
            .next_step(ApspError::OutOfDeviceMemory(oom()), &sup)
            .unwrap();
        assert_eq!(s2, RetryStep::Shrink);
        let (s3, _) = rs
            .next_step(ApspError::OutOfDeviceMemory(oom()), &sup)
            .unwrap();
        assert_eq!(s3, RetryStep::SameGeometry, "ladder repeats after a shrink");
        assert_eq!(rs.retries(), 3);

        // Fatal kinds propagate unchanged, consuming nothing.
        let fatal = rs
            .next_step(ApspError::InvalidInput("x".into()), &sup)
            .unwrap_err();
        assert_eq!(fatal.kind(), ApspErrorKind::InvalidInput);
        assert_eq!(rs.retries(), 3);
    }

    #[test]
    fn retry_budget_is_bounded() {
        let oom = || OutOfDeviceMemory {
            requested: 64,
            available: 0,
            capacity: 64,
        };
        let policy = RetryPolicy {
            max_retries: 2,
            ..Default::default()
        };
        let sup = Supervisor::unarmed();
        let mut rs = RetryState::new(&policy, "test");
        rs.next_step(ApspError::OutOfDeviceMemory(oom()), &sup)
            .unwrap();
        rs.next_step(ApspError::OutOfDeviceMemory(oom()), &sup)
            .unwrap();
        let exhausted = rs
            .next_step(ApspError::OutOfDeviceMemory(oom()), &sup)
            .unwrap_err();
        assert_eq!(exhausted.kind(), ApspErrorKind::OutOfDeviceMemory);
    }

    #[test]
    fn retry_events_are_a_pure_function_of_the_seed() {
        let oom = || OutOfDeviceMemory {
            requested: 64,
            available: 0,
            capacity: 64,
        };
        let run = || {
            let sup = Supervisor::unarmed();
            let mut rs = RetryState::new(&RetryPolicy::default(), "test");
            for _ in 0..5 {
                rs.next_step(ApspError::OutOfDeviceMemory(oom()), &sup)
                    .unwrap();
            }
            sup.events()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        // Backoffs grow (exponential base dominates the jitter).
        let backs: Vec<u64> = a
            .iter()
            .map(|e| match e {
                SupervisionEvent::Retry { backoff_ms, .. } => *backoff_ms,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert!(backs.windows(2).all(|w| w[0] < w[1]), "{backs:?}");
    }
}
