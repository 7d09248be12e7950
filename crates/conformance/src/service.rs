//! The service chaos harness: N concurrent seeded jobs — full-matrix
//! and k-source partial queries over a hot-graph pool — driven through
//! [`ApspService`] with injected device faults, tight deadlines, queue
//! overload, and queued cancellations.
//!
//! The contract ([`run_chaos`]): every job terminates in exactly one of
//!
//! * **bit-identical-completed** — its rows equal the serial
//!   `bgl_plus_apsp` oracle (full jobs row-for-row, partial jobs against
//!   the oracle rows of their requested sources, in request order);
//! * **typed-rejected** — `QueueFull`/`Busy` at admission, carrying a
//!   retry-after hint;
//! * **typed-failed** — a typed [`ApspErrorKind`] (deadline, silent
//!   corruption, allocation) with the sibling jobs' bits untouched;
//! * **cancelled** — a queued cancellation that left zero residue.
//!
//! Never a wrong bit, never a hang: after `run_until_idle` no job may
//! remain `Queued`, and every deadline is watchdog-bounded by the trace
//! generator. Two runs of the same [`ChaosConfig`] must produce equal
//! [`ChaosReport`]s — all clocks are simulated and every draw is seeded.

use std::collections::BTreeMap;
use std::path::PathBuf;

use apsp_core::service::trace::{self, TraceConfig, TraceJob};
use apsp_core::{
    graph_fingerprint, ApspErrorKind, ApspService, CompletedJob, JobId, JobSpec, JobState,
    ServiceConfig, ServiceCounters, ServiceErrorKind,
};
use apsp_cpu::{bgl_plus_apsp, DistMatrix};
use apsp_gpu_sim::DeviceProfile;

/// Knobs for one chaos soak.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// The seeded job trace (jobs, fault/deadline/cancel mix).
    pub trace: TraceConfig,
    /// Fleet size.
    pub devices: usize,
    /// Admission-queue bound — kept *below* the job count so the soak
    /// always exercises the overload ladder.
    pub queue_capacity: usize,
    /// Result-cache capacity.
    pub cache_capacity: usize,
    /// Device memory: small enough that full jobs batch.
    pub device_bytes: u64,
    /// Slow the fleet 1000× (and shrink memory to 32 KiB) so the
    /// trace's millisecond deadlines genuinely expire — without this,
    /// trace-pool graphs finish in ~0.5 ms of simulated time and the
    /// deadline/expiry arm of the ladder never fires.
    pub slow_fleet: bool,
    /// Scratch root for service-managed checkpoints. Wiped at the start
    /// of every run so repeats are bit-for-bit comparable.
    pub scratch_dir: PathBuf,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            trace: TraceConfig::default(),
            devices: 2,
            queue_capacity: 5,
            cache_capacity: 8,
            device_bytes: 512 << 10,
            slow_fleet: true,
            scratch_dir: std::env::temp_dir().join("apsp-service-chaos"),
        }
    }
}

/// How one traced job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminal {
    /// Completed and verified bit-identical to the oracle.
    Completed {
        /// Served from the result cache without touching a device.
        from_cache: bool,
    },
    /// Failed typed; the compute error keeps its [`ApspErrorKind`].
    Failed {
        /// The typed classification.
        kind: ApspErrorKind,
        /// A checkpoint survives for warm resubmission.
        checkpoint_kept: bool,
    },
    /// Cancelled while still queued.
    Cancelled,
    /// Turned away typed at every admission attempt.
    Rejected,
}

/// One job's verdict — everything in here is seed-derived, so two runs
/// of the same config must produce equal verdicts.
#[derive(Debug, Clone, PartialEq)]
pub struct JobVerdict {
    /// Index in the trace.
    pub index: usize,
    /// `"full"` or `"sources"`.
    pub kind: &'static str,
    /// Typed rejections received across admission attempts (empty when
    /// the first submit was admitted or served from cache).
    pub rejections: Vec<ServiceErrorKind>,
    /// The final disposition.
    pub terminal: Terminal,
}

/// The soak's outcome: per-job verdicts plus the service counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// One verdict per traced job, in trace order.
    pub verdicts: Vec<JobVerdict>,
    /// The service's final counters.
    pub counters: ServiceCounters,
    /// Simulated seconds the busiest fleet slot accumulated.
    pub sim_seconds: f64,
}

impl ChaosReport {
    /// Count of verdicts matching `f`.
    fn count(&self, f: impl Fn(&Terminal) -> bool) -> usize {
        self.verdicts.iter().filter(|v| f(&v.terminal)).count()
    }
}

impl std::fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} jobs: {} completed ({} cached), {} failed typed, {} cancelled, \
             {} rejected — zero wrong bits, zero hangs",
            self.verdicts.len(),
            self.count(|t| matches!(t, Terminal::Completed { .. })),
            self.count(|t| matches!(t, Terminal::Completed { from_cache: true })),
            self.count(|t| matches!(t, Terminal::Failed { .. })),
            self.count(|t| matches!(t, Terminal::Cancelled)),
            self.count(|t| matches!(t, Terminal::Rejected)),
        )
    }
}

fn spec_tag(spec: &JobSpec) -> &'static str {
    match spec {
        JobSpec::Full => "full",
        JobSpec::Sources(_) => "sources",
    }
}

fn service_for(cfg: &ChaosConfig) -> Result<ApspService, String> {
    let profile = if cfg.slow_fleet {
        // 1000× slower and 32 KiB of memory: trace-pool runs land in
        // the seconds regime, across several batch commits, where the
        // trace's 1–50 ms deadlines can actually carve.
        let mut slow = DeviceProfile::v100().with_memory_bytes(32 << 10);
        slow.compute_ops_per_sec /= 1e3;
        slow.mem_bandwidth /= 1e3;
        slow.h2d_bytes_per_sec /= 1e3;
        slow.d2h_bytes_per_sec /= 1e3;
        slow.kernel_launch_overhead *= 1e3;
        slow.dynamic_launch_overhead *= 1e3;
        slow.transfer_latency *= 1e3;
        slow
    } else {
        DeviceProfile::v100().with_memory_bytes(cfg.device_bytes)
    };
    ApspService::new(ServiceConfig {
        devices: vec![profile; cfg.devices.max(1)],
        queue_capacity: cfg.queue_capacity,
        cache_capacity: cfg.cache_capacity,
        checkpoint_root: Some(cfg.scratch_dir.clone()),
    })
    .map_err(|e| format!("service: {e}"))
}

/// Verify a completed job's bits against the memoized serial oracle.
fn verify_bits(
    oracles: &mut BTreeMap<u64, DistMatrix>,
    tj: &TraceJob,
    index: usize,
    done: &CompletedJob,
) -> Result<(), String> {
    let g = &tj.request.graph;
    let n = g.num_vertices();
    let reference = oracles
        .entry(graph_fingerprint(g))
        .or_insert_with(|| bgl_plus_apsp(g));
    match &tj.request.spec {
        JobSpec::Full => {
            if done.rows.rows() != n {
                return Err(format!(
                    "job {index}: full result has {} rows, expected {n}",
                    done.rows.rows()
                ));
            }
            for i in 0..n {
                if done.rows.row(i) != reference.row(i) {
                    return Err(format!("job {index}: WRONG BITS in full row {i}"));
                }
            }
        }
        JobSpec::Sources(srcs) => {
            if done.rows.rows() != srcs.len() {
                return Err(format!(
                    "job {index}: partial result has {} rows, expected {}",
                    done.rows.rows(),
                    srcs.len()
                ));
            }
            for (ri, &s) in srcs.iter().enumerate() {
                if done.rows.row(ri) != reference.row(s as usize) {
                    return Err(format!(
                        "job {index}: WRONG BITS in partial row {ri} (source {s})"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Run one chaos soak. See the module docs for the contract; any
/// violation (wrong bits, a hang, an untyped rejection) is an `Err`
/// naming the offending job.
pub fn run_chaos(cfg: &ChaosConfig) -> Result<ChaosReport, String> {
    let _ = std::fs::remove_dir_all(&cfg.scratch_dir);
    let jobs = trace::seeded_jobs(&cfg.trace);
    let mut svc = service_for(cfg)?;
    let mut oracles: BTreeMap<u64, DistMatrix> = BTreeMap::new();
    let mut handles: Vec<(Option<JobId>, Vec<ServiceErrorKind>)> = Vec::with_capacity(jobs.len());

    // Wave 1: submit everything, pumping every third submit so the
    // queue churns (some jobs land on a busy fleet, some on a full
    // queue, some on a warm cache).
    for (i, tj) in jobs.iter().enumerate() {
        match svc.submit(tj.request.clone()) {
            Ok(id) => {
                if tj.cancel_while_queued {
                    // `AlreadyTerminal` is fine — a cache hit completed
                    // at submit and there is nothing left to cancel.
                    svc.cancel(id)
                        .map_err(|e| format!("job {i}: cancel of a live handle failed: {e}"))?;
                }
                handles.push((Some(id), Vec::new()));
            }
            Err(e) => {
                let kind = e.kind();
                if !matches!(kind, ServiceErrorKind::QueueFull | ServiceErrorKind::Busy) {
                    return Err(format!(
                        "job {i}: admission rejection is not typed overload: {e}"
                    ));
                }
                if e.retry_after_ms().is_none() {
                    return Err(format!("job {i}: overload rejection lost its retry hint"));
                }
                handles.push((None, vec![kind]));
            }
        }
        if i % 3 == 2 {
            svc.pump_one();
        }
    }
    svc.run_until_idle();

    // Wave 2: honour the retry-after hint — resubmit every rejected job
    // once against the drained queue (and the now-warm cache).
    for (i, tj) in jobs.iter().enumerate() {
        if handles[i].0.is_none() {
            match svc.submit(tj.request.clone()) {
                Ok(id) => handles[i].0 = Some(id),
                Err(e) => handles[i].1.push(e.kind()),
            }
        }
    }
    svc.run_until_idle();

    let mut verdicts = Vec::with_capacity(jobs.len());
    for (i, tj) in jobs.iter().enumerate() {
        let (handle, rejections) = &handles[i];
        let terminal = match handle {
            None => Terminal::Rejected,
            Some(id) => match svc
                .state(*id)
                .ok_or_else(|| format!("job {i}: handle {id} vanished from the service"))?
            {
                JobState::Queued => {
                    return Err(format!(
                        "job {i}: still queued after run_until_idle — a hang"
                    ));
                }
                JobState::Completed(done) => {
                    verify_bits(&mut oracles, tj, i, done)?;
                    Terminal::Completed {
                        from_cache: done.from_cache,
                    }
                }
                JobState::Failed(fj) => Terminal::Failed {
                    kind: fj.kind,
                    checkpoint_kept: fj.checkpoint_kept,
                },
                JobState::Cancelled { .. } => Terminal::Cancelled,
            },
        };
        verdicts.push(JobVerdict {
            index: i,
            kind: spec_tag(&tj.request.spec),
            rejections: rejections.clone(),
            terminal,
        });
    }

    Ok(ChaosReport {
        verdicts,
        counters: svc.counters(),
        sim_seconds: svc.now_s(),
    })
}

/// Satellite coverage: cancelling a job that is still queued must return
/// typed-immediate, leave zero checkpoint/spill residue under the
/// service's scratch root, and leave sibling jobs' bits untouched
/// (proven against a control service that never saw the cancelled job).
pub fn run_queued_cancel_residue(scratch_dir: &std::path::Path) -> Result<(), String> {
    use apsp_core::{CancelOutcome, JobRequest};

    let cfg = ChaosConfig {
        scratch_dir: scratch_dir.to_path_buf(),
        // One device and no interleaved pumping: everything stays queued
        // until we say go, so the cancel provably lands pre-admission.
        devices: 1,
        queue_capacity: 16,
        ..ChaosConfig::default()
    };
    let _ = std::fs::remove_dir_all(&cfg.scratch_dir);
    let pool = trace::graph_pool(&cfg.trace);
    let (ga, gb) = (pool[0].clone(), pool[1 % pool.len()].clone());

    let mut svc = service_for(&cfg)?;
    let a = svc
        .submit(JobRequest::full(ga.clone()))
        .map_err(|e| format!("sibling A rejected: {e}"))?;
    let victim = svc
        .submit(JobRequest::full(gb.clone()))
        .map_err(|e| format!("victim rejected: {e}"))?;
    let c = svc
        .submit(JobRequest::sources(ga.clone(), vec![0, 7, 3]))
        .map_err(|e| format!("sibling C rejected: {e}"))?;

    // The cancel must be typed and immediate — no pumping has happened.
    match svc.cancel(victim) {
        Ok(CancelOutcome::Dequeued) => {}
        Ok(CancelOutcome::AlreadyTerminal) => {
            return Err("queued job reported terminal before any pump".into())
        }
        Err(e) => return Err(format!("queued cancel failed: {e}")),
    }
    if !matches!(svc.state(victim), Some(JobState::Cancelled { .. })) {
        return Err(format!(
            "victim state after cancel: {:?}",
            svc.state(victim).map(|s| s.tag())
        ));
    }
    svc.run_until_idle();

    // Zero residue: the cancelled job never touched a device or disk,
    // and the completed siblings sweep their own checkpoint dirs.
    if let Ok(mut entries) = std::fs::read_dir(&cfg.scratch_dir) {
        if let Some(e) = entries.next() {
            return Err(format!("checkpoint residue after the cancel: {e:?}"));
        }
    }

    // Siblings must be bit-identical to a control service that never
    // saw the cancelled job at all.
    let control_dir = cfg.scratch_dir.with_extension("control");
    let _ = std::fs::remove_dir_all(&control_dir);
    let mut control = service_for(&ChaosConfig {
        scratch_dir: control_dir.clone(),
        ..cfg.clone()
    })?;
    let ca = control
        .submit(JobRequest::full(ga.clone()))
        .map_err(|e| format!("control A rejected: {e}"))?;
    let cc = control
        .submit(JobRequest::sources(ga, vec![0, 7, 3]))
        .map_err(|e| format!("control C rejected: {e}"))?;
    control.run_until_idle();
    for (name, chaotic, clean) in [("A", a, ca), ("C", c, cc)] {
        let (Some(JobState::Completed(x)), Some(JobState::Completed(y))) =
            (svc.state(chaotic), control.state(clean))
        else {
            return Err(format!("sibling {name} did not complete on both services"));
        };
        if x.rows.data != y.rows.data {
            return Err(format!("queued cancel perturbed sibling {name}'s bits"));
        }
    }
    let _ = std::fs::remove_dir_all(&cfg.scratch_dir);
    let _ = std::fs::remove_dir_all(&control_dir);
    Ok(())
}

/// Cache-integrity coverage: a corrupted cache entry must be evicted and
/// recomputed byte-identical — never served.
pub fn run_corrupt_cache_check(scratch_dir: &std::path::Path) -> Result<(), String> {
    use apsp_core::JobRequest;

    let cfg = ChaosConfig {
        scratch_dir: scratch_dir.to_path_buf(),
        ..ChaosConfig::default()
    };
    let _ = std::fs::remove_dir_all(&cfg.scratch_dir);
    let g = trace::graph_pool(&cfg.trace)[0].clone();
    let mut svc = service_for(&cfg)?;

    let first = svc
        .submit(JobRequest::full(g.clone()))
        .map_err(|e| format!("first submit rejected: {e}"))?;
    svc.run_until_idle();
    let Some(JobState::Completed(done)) = svc.state(first) else {
        return Err("first run did not complete".into());
    };
    let clean_bits = done.rows.data.clone();

    if !svc.corrupt_cache_entry_for_test(&JobRequest::full(g.clone())) {
        return Err("no cache entry to corrupt".into());
    }
    let second = svc
        .submit(JobRequest::full(g.clone()))
        .map_err(|e| format!("resubmit after corruption rejected: {e}"))?;
    svc.run_until_idle();
    let Some(JobState::Completed(redone)) = svc.state(second) else {
        return Err("recompute after corruption did not complete".into());
    };
    if redone.from_cache {
        return Err("a corrupt cache entry was served".into());
    }
    if redone.rows.data != clean_bits {
        return Err("recompute after corruption is not byte-identical".into());
    }
    if svc.counters().cache_corrupt_evictions != 1 {
        return Err(format!(
            "expected exactly one corrupt eviction, counters: {:?}",
            svc.counters()
        ));
    }
    let _ = std::fs::remove_dir_all(&cfg.scratch_dir);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_soak_holds() {
        let cfg = ChaosConfig {
            trace: TraceConfig {
                jobs: 10,
                ..TraceConfig::default()
            },
            queue_capacity: 4,
            scratch_dir: std::env::temp_dir().join("apsp-service-chaos-unit"),
            ..ChaosConfig::default()
        };
        let report = run_chaos(&cfg).expect("chaos contract must hold");
        assert_eq!(report.verdicts.len(), 10);
        assert!(report
            .verdicts
            .iter()
            .any(|v| matches!(v.terminal, Terminal::Completed { .. })));
    }
}
