//! Unified front-end: select (or accept) an algorithm and run it.

use crate::calibration::{CalibrationStore, RefitCoefficients};
use crate::checkpoint::Checkpoint;
use crate::error::{ApspError, ApspErrorKind};
use crate::ooc_boundary::{self, BoundaryRunStats};
use crate::ooc_fw::{self, FwRunStats};
use crate::ooc_johnson::{self, JohnsonRunStats};
use crate::options::{Algorithm, ApspOptions};
use crate::run_ctx::RunCtx;
use crate::selector::{CostModels, JohnsonModel, Selection};
use crate::supervisor::{FallbackEvent, SupervisionEvent, Supervisor};
use crate::telemetry::{CalibrationRecord, RunReport, Telemetry};
use crate::tile_store::TileStore;
use apsp_gpu_sim::{DeviceProfile, GpuDevice, SimReport};
use apsp_graph::CsrGraph;

/// Per-algorithm detail statistics.
#[derive(Debug, Clone)]
pub enum RunDetails {
    /// Out-of-core Floyd-Warshall ran.
    FloydWarshall(FwRunStats),
    /// Out-of-core Johnson's ran.
    Johnson(JohnsonRunStats),
    /// The boundary algorithm ran.
    Boundary(BoundaryRunStats),
}

/// The result of [`apsp`].
#[derive(Debug)]
pub struct ApspResult {
    /// The full distance matrix (RAM or disk per the options).
    pub store: TileStore,
    /// Which implementation produced it.
    pub algorithm: Algorithm,
    /// The selector's reasoning (`None` when an algorithm was forced).
    pub selection: Option<Selection>,
    /// Simulated seconds of the run (selector probing excluded, matching
    /// how the paper reports its numbers).
    pub sim_seconds: f64,
    /// Device profiling snapshot at completion.
    pub report: SimReport,
    /// Implementation-specific statistics.
    pub details: RunDetails,
    /// Every algorithm switch the fallback chain performed (empty when
    /// the first choice ran to completion, or fallback was off).
    pub fallback_events: Vec<FallbackEvent>,
    /// Supervision telemetry: retries, stalls and fallbacks in the order
    /// they happened. Deterministic for a fixed seed and fault plan.
    pub supervision_events: Vec<SupervisionEvent>,
    /// The structured run report (`None` unless `opts.telemetry` is on).
    /// Render it with [`RunReport::to_jsonl`].
    pub telemetry: Option<RunReport>,
}

/// One calibration batch from a selection: every candidate, costed or
/// filtered, with `chosen` marked as the one that will run.
fn calibration_records(sel: &Selection, chosen: Algorithm) -> Vec<CalibrationRecord> {
    sel.candidates
        .iter()
        .map(|c| CalibrationRecord {
            algorithm: c.algorithm.tag(),
            predicted_s: c.estimate,
            seed_predicted_s: c.seed_estimate,
            filter_reason: c.filter_reason.clone(),
            selected: c.algorithm == chosen,
            realized_s: None,
        })
        .collect()
}

/// Compute APSP for `g` on `dev`, choosing the implementation with the
/// paper's selector unless `opts.algorithm` forces one.
///
/// ```
/// use apsp_core::{apsp, ApspOptions};
/// use apsp_graph::generators::{gnp, WeightRange};
/// use apsp_gpu_sim::{DeviceProfile, GpuDevice};
///
/// let g = gnp(120, 0.04, WeightRange::new(1, 100), 7);
/// // Small device memory ⇒ the out-of-core machinery engages.
/// let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(256 << 10));
/// let result = apsp(&g, &mut dev, &ApspOptions::default()).unwrap();
/// assert_eq!(result.store.get(5, 5).unwrap(), 0);
/// assert!(result.sim_seconds > 0.0);
/// ```
pub fn apsp(
    g: &CsrGraph,
    dev: &mut GpuDevice,
    opts: &ApspOptions,
) -> Result<ApspResult, ApspError> {
    let n = g.num_vertices();
    if n == 0 {
        return Err(ApspError::InvalidInput("graph has no vertices".into()));
    }
    let telemetry = if opts.telemetry {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    if telemetry.is_enabled() {
        // Overlap efficiency is computed from the event trace. Recording
        // it only appends to a host-side vector — the simulated timeline
        // is untouched, so the distances stay bit-identical.
        dev.enable_trace();
    }
    // The front-end's `exec` and `sdc_guard` are authoritative, so
    // whatever the selector (or the fallback chain) ends up running uses
    // the same backend and guard level.
    let opts = &opts.resolved();
    // Durability first: with `resume`, an existing checkpoint pins the
    // algorithm (its committed state is algorithm-specific); without it,
    // any stale checkpoint is cleared before fresh work begins.
    let ckpt = match &opts.checkpoint {
        Some(co) => {
            let ckpt = Checkpoint::new(&co.dir, g)?;
            if !co.resume {
                ckpt.clear()?;
            }
            Some(ckpt)
        }
        None => None,
    };
    let resumed_algorithm = match &ckpt {
        Some(c) => c.load()?.map(|m| m.progress.algorithm()),
        None => None,
    };
    // Calibration: open (or initialize) the profile's persisted store,
    // keyed per execution backend so observations made under one host
    // kernel never steer another's selections. A *corrupt* store must
    // never fail or perturb the run — the selector falls back to the
    // seed constants and the next commit rewrites the file; I/O errors
    // (permissions, missing parent FS) still surface.
    let mut calib_store = match &opts.calibration_dir {
        Some(dir) => match CalibrationStore::open_for(dir, dev.profile(), opts.exec.name()) {
            Ok(store) => Some(store),
            Err(ApspError::Corruption { .. }) => Some(CalibrationStore::fresh_for(
                dir,
                dev.profile(),
                opts.exec.name(),
            )),
            Err(e) => return Err(e),
        },
        None => None,
    };
    let refit: RefitCoefficients = calib_store
        .as_ref()
        .map(|c| c.coeffs().clone())
        .unwrap_or_default();
    // The one Johnson probe every selection of this call shares.
    let mut probe = None;
    let (algorithm, selection) = match (resumed_algorithm, opts.algorithm) {
        (Some(resumed), Some(forced)) if resumed != forced => {
            return Err(ApspError::InvalidInput(format!(
                "checkpoint was written by the {resumed} algorithm but {forced} was forced — \
                 resume without forcing, force {resumed}, or delete the checkpoint"
            )));
        }
        (Some(resumed), _) => (resumed, None),
        (None, Some(forced)) => (forced, None),
        (None, None) => {
            let selection = select(dev.profile(), g, opts, &refit, &mut probe, &[])?
                .expect("an empty mask always leaves a candidate");
            (selection.algorithm, Some(selection))
        }
    };
    // Forced or resumed runs bypass the selector, but both the
    // calibration artifact and the refit observation still want every
    // candidate costed: shadow-select on scratch probes (the run's
    // device clock is untouched) without changing `result.selection`.
    // A failed probe costs the artifacts their candidates, not the run;
    // it stays in `probe` for a fallback to return.
    let shadow_selection =
        if selection.is_none() && (telemetry.is_enabled() || calib_store.is_some()) {
            select(dev.profile(), g, opts, &refit, &mut probe, &[]).unwrap_or_else(|e| {
                probe = Some(Err(e));
                None
            })
        } else {
            None
        };
    if telemetry.is_enabled() {
        if let Some(sel) = selection.as_ref().or(shadow_selection.as_ref()) {
            telemetry.record_calibration(calibration_records(sel, algorithm));
        }
    }
    let sup = Supervisor::with_telemetry(
        &opts.supervision,
        dev.elapsed().seconds(),
        telemetry.clone(),
    );
    let mut store = TileStore::new(n, &opts.storage)?;
    store.set_supervision(sup.clone());
    let mut algorithm = algorithm;
    let mut selection = selection;
    let mut masked: Vec<Algorithm> = Vec::new();
    let mut fallback_events: Vec<FallbackEvent> = Vec::new();
    let (sim_seconds, details) = loop {
        let span = telemetry.phase_start(dev);
        let attempt = run_one(algorithm, g, dev, &mut store, opts, ckpt.as_ref(), &sup);
        let err = match attempt {
            Ok(ok) => {
                telemetry.phase_end(dev, span, &format!("attempt.{}", algorithm.tag()));
                // The realized time the cost model is judged by is the
                // driver's own measure, matching what it predicted.
                telemetry.set_realized(ok.0);
                break ok;
            }
            Err(e) => {
                // A failed attempt has no driver stats — its span
                // duration is the realized cost of having tried it.
                if let Some(wasted) =
                    telemetry.phase_end(dev, span, &format!("attempt.{}.failed", algorithm.tag()))
                {
                    telemetry.set_realized(wasted);
                }
                e
            }
        };
        // A failed algorithm is worth replacing only when the failure is
        // about *this algorithm's* run state or liveness. Anything else
        // (cancellation, deadline, at-rest corruption, bad input,
        // storage) would fail the replacement just the same — propagate
        // it. Silent corruption qualifies: the recovery ladder inside
        // the driver is exhausted, but a replacement starts from a
        // fresh store and recomputes everything from the graph.
        let kind = err.kind();
        let replaceable = matches!(
            kind,
            ApspErrorKind::DeviceTooSmall
                | ApspErrorKind::OutOfDeviceMemory
                | ApspErrorKind::Stalled
                | ApspErrorKind::SilentCorruption
        );
        if !opts.supervision.fallback || !replaceable || fallback_events.len() >= 2 {
            return Err(err);
        }
        masked.push(algorithm);
        let Some(next) = select(dev.profile(), g, opts, &refit, &mut probe, &masked)? else {
            return Err(err); // every algorithm failed — surface the last error
        };
        // The failed attempt's checkpoint and partial matrix are that
        // algorithm's state — discard both so the replacement starts
        // clean and its output is bit-identical to a fresh run.
        if let Some(c) = &ckpt {
            c.clear()?;
        }
        store = TileStore::new(n, &opts.storage)?;
        store.set_supervision(sup.clone());
        let now = dev.elapsed().seconds();
        sup.record_event(SupervisionEvent::Fallback {
            from: algorithm,
            to: next.algorithm,
            error_kind: kind,
        });
        fallback_events.push(FallbackEvent {
            from: algorithm,
            to: next.algorithm,
            error_kind: kind,
            detail: err.to_string(),
            sim_seconds: now,
        });
        sup.reset_progress(now);
        algorithm = next.algorithm;
        telemetry.record_calibration(calibration_records(&next, next.algorithm));
        selection = Some(next);
    };
    store.clear_supervision(); // the result outlives the run's budgets
                               // Close the calibration loop: fold the executed algorithm's seed
                               // prediction vs realized seconds into the store and commit it
                               // atomically. This happens after the result is final, so learning
                               // only ever changes *future* selections — never this run's.
    if let Some(cal) = &mut calib_store {
        let executed_parts = selection
            .as_ref()
            .or(shadow_selection.as_ref())
            .and_then(|sel| sel.candidates.iter().find(|c| c.algorithm == algorithm))
            .and_then(|c| c.parts);
        if let Some(parts) = executed_parts {
            cal.observe_run(&parts, sim_seconds);
        }
        cal.commit()?;
    }
    let (retries, checkpoint_commits) = match &details {
        RunDetails::FloydWarshall(s) => (s.retries as u64, s.checkpoint_commits as u64),
        RunDetails::Johnson(s) => (s.retries as u64, s.checkpoint_commits as u64),
        RunDetails::Boundary(s) => (s.retries as u64, s.checkpoint_commits as u64),
    };
    let report = dev.report();
    let supervision_events = sup.events();
    let telemetry = telemetry.build_report(
        algorithm.tag(),
        opts.exec.name(),
        sim_seconds,
        &report,
        dev.trace(),
        &supervision_events,
        retries,
        checkpoint_commits,
    );
    Ok(ApspResult {
        store,
        algorithm,
        selection,
        sim_seconds,
        report,
        details,
        fallback_events,
        supervision_events,
        telemetry,
    })
}

/// The selector's pick for `g` with `masked` excluded, `None` when that
/// is every algorithm. The first call runs the Johnson probe into
/// `probe` and later calls reuse it, so one [`apsp`] call probes at most
/// once; a failed probe is taken out of `probe` and returned.
fn select(
    profile: &DeviceProfile,
    g: &CsrGraph,
    opts: &ApspOptions,
    refit: &RefitCoefficients,
    probe: &mut Option<Result<JohnsonModel, ApspError>>,
    masked: &[Algorithm],
) -> Result<Option<Selection>, ApspError> {
    let johnson = match probe.take() {
        Some(probed) => probed?,
        None => JohnsonModel::probe(profile, g, &opts.selector, &opts.johnson)?,
    };
    let selection = CostModels::calibrate_cached(profile)
        .with_refit(refit.clone())
        .select_masked(g, &opts.selector, &johnson, masked);
    *probe = Some(Ok(johnson));
    Ok(selection)
}

/// One attempt of one algorithm (checkpointed when a checkpoint is
/// configured), under `sup`'s budgets.
fn run_one(
    algorithm: Algorithm,
    g: &CsrGraph,
    dev: &mut GpuDevice,
    store: &mut TileStore,
    opts: &ApspOptions,
    ckpt: Option<&Checkpoint>,
    sup: &Supervisor,
) -> Result<(f64, RunDetails), ApspError> {
    let ctx = RunCtx {
        supervisor: Some(sup),
        checkpoint: ckpt,
    };
    Ok(match algorithm {
        Algorithm::FloydWarshall => {
            let stats = ooc_fw::run(dev, g, store, &opts.fw, &ctx)?;
            (stats.sim_seconds, RunDetails::FloydWarshall(stats))
        }
        Algorithm::Johnson => {
            let stats = ooc_johnson::run(dev, g, store, &opts.johnson, &ctx)?;
            (stats.sim_seconds, RunDetails::Johnson(stats))
        }
        Algorithm::Boundary => {
            let stats = ooc_boundary::run(dev, g, store, &opts.boundary, &ctx)?;
            (stats.sim_seconds, RunDetails::Boundary(stats))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Progress;
    use crate::options::ApspOptions;
    use crate::selector::SelectorConfig;
    use apsp_cpu::bgl_plus_apsp;
    use apsp_gpu_sim::DeviceProfile;
    use apsp_graph::generators::{gnp, grid_2d, GridOptions, WeightRange};

    #[test]
    fn forced_algorithms_all_agree() {
        let g = gnp(90, 0.06, WeightRange::default(), 51);
        let reference = bgl_plus_apsp(&g);
        for alg in [
            Algorithm::FloydWarshall,
            Algorithm::Johnson,
            Algorithm::Boundary,
        ] {
            let mut dev = GpuDevice::new(DeviceProfile::v100());
            let opts = ApspOptions {
                algorithm: Some(alg),
                ..Default::default()
            };
            let result = apsp(&g, &mut dev, &opts).unwrap();
            assert_eq!(result.algorithm, alg);
            assert_eq!(
                result.store.to_dist_matrix().unwrap(),
                reference,
                "algorithm {alg}"
            );
            assert!(result.selection.is_none());
        }
    }

    #[test]
    fn auto_selection_runs_and_is_correct() {
        // A dense-ish small graph: the filter should rule out boundary.
        let g = gnp(100, 0.05, WeightRange::default(), 3);
        let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(1 << 20));
        let opts = ApspOptions {
            selector: SelectorConfig {
                // density ≈ 5%: above the default 1% threshold.
                ..Default::default()
            },
            ..Default::default()
        };
        let result = apsp(&g, &mut dev, &opts).unwrap();
        let selection = result.selection.as_ref().unwrap();
        assert!(!selection.estimates().is_empty());
        assert_eq!(result.algorithm, selection.algorithm);
        assert_eq!(result.store.to_dist_matrix().unwrap(), bgl_plus_apsp(&g));
    }

    #[test]
    fn very_sparse_class_considers_boundary_and_picks_argmin() {
        // A grid classified very-sparse must be ranked against the
        // boundary algorithm (at this toy size either may win — the
        // paper-shape "boundary wins" check lives in the Fig 6
        // reproduction at realistic scale).
        let g = grid_2d(18, 18, GridOptions::default(), WeightRange::default(), 9);
        let mut dev = GpuDevice::new(DeviceProfile::v100());
        let opts = ApspOptions {
            selector: SelectorConfig {
                // 324 vertices / 2448 edges: density 1.1e-2 — force the
                // very-sparse class the paper-scale graph would be in.
                density_lo: 0.05,
                density_hi: 0.5,
                ..Default::default()
            },
            ..Default::default()
        };
        let result = apsp(&g, &mut dev, &opts).unwrap();
        let sel = result.selection.as_ref().unwrap();
        let ests = sel.estimates();
        let algos: Vec<Algorithm> = ests.iter().map(|&(a, _)| a).collect();
        assert!(algos.contains(&Algorithm::Boundary), "{algos:?}");
        assert!(algos.contains(&Algorithm::Johnson), "{algos:?}");
        assert!(!algos.contains(&Algorithm::FloydWarshall), "{algos:?}");
        // Floyd-Warshall is filtered, not silently dropped: its
        // candidate entry survives with the reason attached.
        let fw = sel
            .candidates
            .iter()
            .find(|c| c.algorithm == Algorithm::FloydWarshall)
            .unwrap();
        assert!(fw.estimate.is_some_and(f64::is_finite));
        assert!(!fw.eligible());
        assert!(
            fw.filter_reason.as_deref().unwrap().contains("density"),
            "{:?}",
            fw.filter_reason
        );
        // The winner is the argmin of the estimates.
        let best = ests
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(sel.algorithm, best);
        assert_eq!(result.store.to_dist_matrix().unwrap(), bgl_plus_apsp(&g));
    }

    #[test]
    fn empty_graph_is_invalid() {
        let g = apsp_graph::GraphBuilder::new(0).build();
        let mut dev = GpuDevice::new(DeviceProfile::v100());
        assert!(apsp(&g, &mut dev, &ApspOptions::default()).is_err());
    }

    #[test]
    fn zero_delta_is_invalid_input_whether_forced_or_selected() {
        let g = gnp(64, 0.1, WeightRange::default(), 1);
        for algorithm in [Some(Algorithm::Johnson), None] {
            let mut opts = ApspOptions {
                algorithm,
                ..Default::default()
            };
            opts.johnson.delta = Some(0);
            let mut dev = GpuDevice::new(DeviceProfile::v100());
            let err = apsp(&g, &mut dev, &opts).expect_err("delta 0 must be rejected");
            assert_eq!(err.kind(), crate::ApspErrorKind::InvalidInput, "{err}");
        }
    }

    #[test]
    fn checkpointed_apsp_resumes_through_the_front_end() {
        use crate::options::CheckpointOptions;
        let g = gnp(120, 0.04, WeightRange::default(), 61);
        let reference = bgl_plus_apsp(&g);
        let dir = std::env::temp_dir().join("apsp_api_ckpt").join("front_end");
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ApspOptions {
            algorithm: Some(Algorithm::Johnson),
            checkpoint: Some(CheckpointOptions {
                dir: dir.clone(),
                resume: false,
            }),
            ..Default::default()
        };
        // A clean checkpointed run completes and clears its state.
        let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(256 << 10));
        let result = apsp(&g, &mut dev, &opts).unwrap();
        assert_eq!(result.store.to_dist_matrix().unwrap(), reference);
        assert!(!dir.join("manifest").exists(), "cleared on completion");

        // Seed a mid-run checkpoint by hand, then resume WITHOUT forcing
        // an algorithm: the manifest must pin Johnson.
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        let mut seeded = TileStore::new(120, &crate::StorageBackend::Memory).unwrap();
        crate::ooc_fw::init_store_from_graph(&g, &mut seeded).unwrap();
        ckpt.commit(
            &seeded,
            &Progress::Johnson {
                batch_size: 40,
                next_row: 0,
            },
        )
        .unwrap();
        let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(256 << 10));
        let resume_opts = ApspOptions {
            algorithm: None,
            checkpoint: Some(CheckpointOptions {
                dir: dir.clone(),
                resume: true,
            }),
            ..Default::default()
        };
        let result = apsp(&g, &mut dev, &resume_opts).unwrap();
        assert_eq!(result.algorithm, Algorithm::Johnson);
        assert!(result.selection.is_none(), "resume bypasses the selector");
        assert_eq!(result.store.to_dist_matrix().unwrap(), reference);

        // A conflicting forced algorithm on resume is refused.
        ckpt.commit(
            &seeded,
            &Progress::Johnson {
                batch_size: 40,
                next_row: 0,
            },
        )
        .unwrap();
        let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(256 << 10));
        let conflict = ApspOptions {
            algorithm: Some(Algorithm::Boundary),
            checkpoint: Some(CheckpointOptions {
                dir: dir.clone(),
                resume: true,
            }),
            ..Default::default()
        };
        let err = apsp(&g, &mut dev, &conflict).unwrap_err();
        assert_eq!(err.kind(), crate::ApspErrorKind::InvalidInput, "{err}");
    }

    #[test]
    fn deadline_and_cancellation_return_typed_errors() {
        use crate::supervisor::{CancelToken, SupervisionOptions};
        let g = gnp(100, 0.05, WeightRange::default(), 3);
        // An already-expired deadline trips at the first barrier.
        let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(256 << 10));
        let opts = ApspOptions {
            algorithm: Some(Algorithm::FloydWarshall),
            supervision: SupervisionOptions {
                deadline_ms: Some(0),
                ..Default::default()
            },
            ..Default::default()
        };
        let err = apsp(&g, &mut dev, &opts).unwrap_err();
        assert_eq!(err.kind(), crate::ApspErrorKind::DeadlineExceeded, "{err}");
        // A tripped cancel token surfaces as a typed cancellation, even
        // when the trip happens inside the store's I/O loop.
        let cancel = CancelToken::cancel_after_checks(1);
        let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(256 << 10));
        let opts = ApspOptions {
            algorithm: Some(Algorithm::Johnson),
            supervision: SupervisionOptions {
                cancel: Some(cancel),
                ..Default::default()
            },
            ..Default::default()
        };
        let err = apsp(&g, &mut dev, &opts).unwrap_err();
        assert_eq!(err.kind(), crate::ApspErrorKind::Cancelled, "{err}");
    }

    #[test]
    fn stall_triggers_fallback_to_an_equivalent_result() {
        use crate::supervisor::SupervisionOptions;
        let g = gnp(100, 0.05, WeightRange::default(), 3); // dense: Johnson vs FW
        let reference = bgl_plus_apsp(&g);
        // Clean run first, to learn the selector's first choice.
        let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(1 << 20));
        let clean = apsp(&g, &mut dev, &ApspOptions::default()).unwrap();
        assert!(clean.fallback_events.is_empty());
        // Same setup, but the first kernel hangs for a simulated week.
        let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(1 << 20));
        dev.inject_kernel_stall(1, 7.0 * 86_400.0);
        let opts = ApspOptions {
            supervision: SupervisionOptions {
                progress_budget_ms: Some(60_000),
                fallback: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let result = apsp(&g, &mut dev, &opts).unwrap();
        assert_eq!(
            result.fallback_events.len(),
            1,
            "{:?}",
            result.fallback_events
        );
        let fb = &result.fallback_events[0];
        assert_eq!(fb.from, clean.algorithm);
        assert_eq!(fb.error_kind, crate::ApspErrorKind::Stalled);
        assert_eq!(result.algorithm, fb.to);
        assert_ne!(result.algorithm, fb.from);
        assert!(result
            .supervision_events
            .iter()
            .any(|e| matches!(e, crate::SupervisionEvent::Stall { .. })));
        // The fallback's output is the real answer, not a best effort.
        assert_eq!(result.store.to_dist_matrix().unwrap(), reference);
    }

    #[test]
    fn without_fallback_a_stall_is_an_error() {
        use crate::supervisor::SupervisionOptions;
        let g = gnp(100, 0.05, WeightRange::default(), 3);
        let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(1 << 20));
        dev.inject_kernel_stall(1, 7.0 * 86_400.0);
        let opts = ApspOptions {
            supervision: SupervisionOptions {
                progress_budget_ms: Some(60_000),
                fallback: false,
                ..Default::default()
            },
            ..Default::default()
        };
        let err = apsp(&g, &mut dev, &opts).unwrap_err();
        assert_eq!(err.kind(), crate::ApspErrorKind::Stalled, "{err}");
    }

    #[test]
    fn telemetry_report_rides_along_when_enabled() {
        let g = gnp(90, 0.06, WeightRange::default(), 51);
        let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(512 << 10));
        let opts = ApspOptions {
            telemetry: true,
            ..Default::default()
        };
        let result = apsp(&g, &mut dev, &opts).unwrap();
        let tel = result.telemetry.as_ref().unwrap();
        assert!(!tel.spans.is_empty(), "phase spans must be recorded");
        assert!(
            tel.spans.iter().any(|s| s.name.starts_with("attempt.")),
            "{:?}",
            tel.spans.iter().map(|s| &s.name).collect::<Vec<_>>()
        );
        assert_eq!(tel.calibration.len(), 3, "{:?}", tel.calibration);
        for rec in &tel.calibration {
            // Every record carries a prediction or the reason there is
            // none, and every costed candidate is judged by the
            // realized seconds of the attempt its batch fed.
            assert!(rec.predicted_s.is_some() || rec.filter_reason.is_some());
            assert_eq!(rec.predicted_s.is_some(), rec.seed_predicted_s.is_some());
            if rec.predicted_s.is_some() {
                assert!(rec.realized_s.is_some(), "{rec:?}");
            }
        }
        assert!(tel.bytes_h2d > 0 && tel.bytes_d2h > 0);
        assert!(tel.overlap_efficiency >= 0.0 && tel.overlap_efficiency <= 1.0);
        // Telemetry must not perturb the run: an identical run with it
        // off produces the identical matrix and clock.
        let mut dev2 = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(512 << 10));
        let off = apsp(&g, &mut dev2, &ApspOptions::default()).unwrap();
        assert!(off.telemetry.is_none());
        assert_eq!(off.sim_seconds, result.sim_seconds);
        assert_eq!(
            off.store.to_dist_matrix().unwrap(),
            result.store.to_dist_matrix().unwrap()
        );
    }

    #[test]
    fn calibration_learns_across_runs_without_perturbing_any() {
        use crate::calibration::CalibrationStore;
        let g = gnp(96, 0.06, WeightRange::default(), 0xBE7C);
        let dir = std::env::temp_dir().join("apsp_api_calib").join("learns");
        let _ = std::fs::remove_dir_all(&dir);
        let profile = DeviceProfile::v100().with_memory_bytes(256 << 10);
        let run = |calibrate: bool| {
            let mut dev = GpuDevice::new(profile.clone());
            let opts = ApspOptions {
                telemetry: true,
                calibration_dir: calibrate.then(|| dir.clone()),
                ..Default::default()
            };
            apsp(&g, &mut dev, &opts).unwrap()
        };
        let baseline = run(false);
        let first = run(true);
        // Within a single run calibration is inert: identical selection,
        // clock, and matrix.
        assert_eq!(first.algorithm, baseline.algorithm);
        assert_eq!(first.sim_seconds, baseline.sim_seconds);
        assert_eq!(
            first.store.to_dist_matrix().unwrap(),
            baseline.store.to_dist_matrix().unwrap()
        );
        // The store committed an observation for the executed algorithm.
        let store = CalibrationStore::open(&dir, &profile).unwrap();
        assert_eq!(store.runs(), 1);
        assert_eq!(store.coeffs().observations(), 1);
        // The second run's prediction for the (same) winner matches the
        // realized seconds the first run fed back.
        let second = run(true);
        assert_eq!(second.algorithm, first.algorithm);
        assert_eq!(second.sim_seconds, first.sim_seconds);
        let winner = |r: &ApspResult| {
            r.telemetry
                .as_ref()
                .unwrap()
                .calibration
                .iter()
                .find(|c| c.selected)
                .cloned()
                .unwrap()
        };
        let (w1, w2) = (winner(&first), winner(&second));
        assert_eq!(
            w1.predicted_s, w1.seed_predicted_s,
            "first run is seed-only"
        );
        let err1 = (w1.predicted_s.unwrap() - w1.realized_s.unwrap()).abs();
        let err2 = (w2.predicted_s.unwrap() - w2.realized_s.unwrap()).abs();
        assert!(
            err2 < err1 / 10.0,
            "refit did not tighten the prediction: {err1} -> {err2}"
        );
        assert!(
            (w2.seed_predicted_s.unwrap() - w1.seed_predicted_s.unwrap()).abs() < 1e-12,
            "seed prediction must not drift"
        );
    }

    #[test]
    fn report_contains_kernel_activity() {
        let g = gnp(60, 0.08, WeightRange::default(), 13);
        let mut dev = GpuDevice::new(DeviceProfile::v100());
        let opts = ApspOptions {
            algorithm: Some(Algorithm::Johnson),
            ..Default::default()
        };
        let result = apsp(&g, &mut dev, &opts).unwrap();
        assert!(
            result.report.kernels.contains_key("mssp")
                || result.report.kernels.contains_key("mssp_dynpar")
        );
        assert!(result.sim_seconds > 0.0);
    }
}

#[cfg(test)]
mod sdc_tests {
    use super::*;
    use crate::options::{ApspOptions, SdcGuardMode};
    use crate::supervisor::{RetryPolicy, SupervisionOptions};
    use apsp_cpu::bgl_plus_apsp;
    use apsp_gpu_sim::DeviceProfile;
    use apsp_graph::generators::{gnp, WeightRange};

    /// A device-side H2D bit flip (round-0 diagonal raise — the site the
    /// sum check alone cannot see) is caught by the semantic guard and
    /// repaired through the front end, bit-identical to the clean run.
    #[test]
    fn device_flip_under_full_guard_recovers_exactly() {
        let g = gnp(90, 0.06, WeightRange::default(), 51);
        let reference = bgl_plus_apsp(&g);
        let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(256 << 10));
        dev.inject_bit_flip(1, 30);
        let opts = ApspOptions {
            algorithm: Some(Algorithm::FloydWarshall),
            sdc_guard: SdcGuardMode::Full,
            ..Default::default()
        };
        let result = apsp(&g, &mut dev, &opts).unwrap();
        let RunDetails::FloydWarshall(stats) = &result.details else {
            panic!("wrong details {:?}", result.details);
        };
        assert_eq!(stats.sdc_round_recoveries, 1);
        assert_eq!(result.store.to_dist_matrix().unwrap(), reference);
    }

    /// With the in-driver ladder disabled, a detected corruption is a
    /// replaceable failure: the fallback chain switches algorithms on a
    /// fresh store and still produces the exact matrix.
    #[test]
    fn exhausted_ladder_falls_back_to_another_algorithm() {
        let g = gnp(90, 0.06, WeightRange::default(), 51);
        let reference = bgl_plus_apsp(&g);
        let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(256 << 10));
        dev.inject_bit_flip(1, 30);
        let opts = ApspOptions {
            algorithm: Some(Algorithm::FloydWarshall),
            sdc_guard: SdcGuardMode::Full,
            supervision: SupervisionOptions {
                fallback: true,
                retry: RetryPolicy {
                    sdc_panel_retries: 0,
                    sdc_round_retries: 0,
                    ..Default::default()
                },
                ..Default::default()
            },
            ..Default::default()
        };
        let result = apsp(&g, &mut dev, &opts).unwrap();
        assert_eq!(
            result.fallback_events.len(),
            1,
            "{:?}",
            result.fallback_events
        );
        let fb = &result.fallback_events[0];
        assert_eq!(fb.from, Algorithm::FloydWarshall);
        assert_eq!(fb.error_kind, ApspErrorKind::SilentCorruption);
        assert_ne!(result.algorithm, Algorithm::FloydWarshall);
        assert_eq!(result.store.to_dist_matrix().unwrap(), reference);
    }

    /// Without fallback and without budgets the detection surfaces typed.
    #[test]
    fn without_fallback_detection_is_a_typed_error() {
        let g = gnp(90, 0.06, WeightRange::default(), 51);
        let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(256 << 10));
        dev.inject_bit_flip(1, 30);
        let opts = ApspOptions {
            algorithm: Some(Algorithm::FloydWarshall),
            sdc_guard: SdcGuardMode::Full,
            supervision: SupervisionOptions {
                retry: RetryPolicy {
                    sdc_panel_retries: 0,
                    sdc_round_retries: 0,
                    ..Default::default()
                },
                ..Default::default()
            },
            ..Default::default()
        };
        let err = apsp(&g, &mut dev, &opts).unwrap_err();
        assert_eq!(err.kind(), ApspErrorKind::SilentCorruption, "{err}");
    }
}
