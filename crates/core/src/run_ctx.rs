//! [`RunCtx`]: the optional context every out-of-core driver's `run`
//! takes next to its graph, store and options. Each driver module also
//! exports a four-argument form that passes `&RunCtx::default()`.
//!
//! `climb` is the one recovery ladder every driver runs under: the
//! drivers differ in what an attempt streams and how it sizes its
//! working set, not in how a failed attempt recovers.

use crate::checkpoint::Checkpoint;
use crate::error::ApspError;
use crate::options::SdcGuardMode;
use crate::sdc::{SdcGuard, SDC_SAMPLE_SEED};
use crate::supervisor::{RetryState, RetryStep, Supervisor};
use crate::tile_store::TileStore;
use apsp_gpu_sim::{GpuDevice, OutOfDeviceMemory};
use std::borrow::Cow;

/// What arms one driver run beyond its options. `RunCtx::default()` is
/// unsupervised and not checkpointed.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunCtx<'a> {
    /// Arms the barrier checks (deadline, progress watchdog,
    /// cancellation), the retry policy and telemetry. Without one the
    /// run answers to [`Supervisor::unarmed`].
    pub supervisor: Option<&'a Supervisor>,
    /// Arms resume from a committed manifest, a commit at every natural
    /// barrier, and the clear on success.
    pub checkpoint: Option<&'a Checkpoint>,
}

impl<'a> RunCtx<'a> {
    /// The supervisor the run answers to: the caller's, or an unarmed one.
    pub(crate) fn supervisor(&self) -> Cow<'a, Supervisor> {
        match self.supervisor {
            Some(sup) => Cow::Borrowed(sup),
            None => Cow::Owned(Supervisor::unarmed()),
        }
    }

    /// Clear the checkpoint once the run succeeded. A failed run keeps
    /// its last commit, so a later call resumes instead of starting
    /// over.
    pub(crate) fn finish<S>(&self, stats: S) -> Result<S, ApspError> {
        if let Some(ckpt) = self.checkpoint {
            ckpt.clear()?;
        }
        Ok(stats)
    }
}

/// The counters every driver's stats carry, as [`climb`] leaves them:
/// transient failures the retry policy absorbed, checkpoint commits over
/// all attempts, and detections repaired by each rung.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Counters {
    pub(crate) retries: u32,
    pub(crate) checkpoint_commits: u32,
    pub(crate) sdc_panel_recoveries: u32,
    pub(crate) sdc_round_recoveries: u32,
}

/// One driver's side of the recovery ladder: its attempt and the rungs
/// that differ between drivers. [`climb`] owns the rest.
pub(crate) trait Rungs {
    /// What a successful attempt returns; the default is an empty run's.
    type Stats: Default;
    /// Whether a detection localized to one panel has a rung cheaper
    /// than [`Rungs::recover_round`].
    const PANEL_RUNG: bool = true;

    /// The name retry events and `DeviceTooSmall` carry.
    fn algorithm(&self) -> &'static str;
    /// The store the guard arms, if the run writes one.
    fn store(&mut self) -> Option<&mut TileStore>;
    /// The device recovery spans are recorded on, with its fleet index.
    fn span_device(&self) -> (&GpuDevice, Option<usize>);
    /// One attempt at the current geometry, from the current cursor.
    fn attempt(
        &mut self,
        sup: &Supervisor,
        guard: &mut SdcGuard,
        commits: &mut u32,
    ) -> Result<Self::Stats, ApspError>;
    /// Repair a detection localized to `panel`.
    fn recover_panel(&mut self, _panel: usize) -> Result<(), ApspError> {
        Ok(())
    }
    /// Repair a detection that may have propagated.
    fn recover_round(&mut self) -> Result<(), ApspError>;
    /// Whether `err` is a contract the retry policy must not absorb.
    fn is_contract(&self, _err: &ApspError) -> bool {
        false
    }
    /// Move the cursor for a retry.
    fn restart(&mut self) {}
    /// Halve the geometry after `oom`; at the floor, return the
    /// driver's `DeviceTooSmall` citing it.
    fn shrink(&mut self, oom: OutOfDeviceMemory) -> Result<(), ApspError>;
}

/// Run `rungs` to completion under the recovery ladder: `Ok` with the
/// attempt's stats and the run's [`Counters`], or the error no rung
/// absorbs. A run of no `rows` returns at once, touching nothing.
///
/// A detection of silent corruption takes the panel rung while it is
/// localized and the policy's panel budget lasts, then the round rung
/// while the round budget lasts, each under its `sdc.*` span, and
/// replays. An exhausted budget propagates the typed error to the
/// caller's fallback chain. Any other failure goes to the retry
/// policy: fatal kinds propagate, transient ones restart at the same
/// geometry once (a one-shot fault may clear), then at a halved one.
pub(crate) fn climb<R: Rungs>(
    rungs: &mut R,
    rows: usize,
    mode: SdcGuardMode,
    sup: &Supervisor,
) -> Result<(R::Stats, Counters), ApspError> {
    let mut counters = Counters::default();
    if rows == 0 {
        return Ok((R::Stats::default(), counters));
    }
    if mode.is_on() {
        if let Some(store) = rungs.store().filter(|s| s.sdc_guard() != mode) {
            store.set_sdc_guard(mode)?;
        }
    }
    let mut guard = SdcGuard::new(mode, SDC_SAMPLE_SEED);
    let policy = sup.retry_policy();
    let mut panel_budget = policy.sdc_panel_retries;
    let mut round_budget = policy.sdc_round_retries;
    let mut retry = RetryState::new(policy, rungs.algorithm());
    let tel = sup.telemetry();
    loop {
        let err = match rungs.attempt(sup, &mut guard, &mut counters.checkpoint_commits) {
            Ok(stats) => {
                counters.retries = retry.retries();
                return Ok((stats, counters));
            }
            Err(err) => err,
        };
        if let ApspError::SilentCorruption { panel, .. } = err {
            tel.count_sdc(1, 0, 0);
            if R::PANEL_RUNG && panel != usize::MAX && panel_budget > 0 {
                panel_budget -= 1;
                counters.sdc_panel_recoveries += 1;
                let ph = tel.phase_start(rungs.span_device().0);
                rungs.recover_panel(panel)?;
                let (dev, device) = rungs.span_device();
                tel.phase_end_on_device(dev, ph, "sdc.recover_panel", device);
                tel.count_sdc(0, 1, 0);
            } else if round_budget > 0 {
                round_budget -= 1;
                counters.sdc_round_recoveries += 1;
                let ph = tel.phase_start(rungs.span_device().0);
                rungs.recover_round()?;
                let (dev, device) = rungs.span_device();
                tel.phase_end_on_device(dev, ph, "sdc.recover_round", device);
                tel.count_sdc(0, 0, 1);
            } else {
                return Err(err);
            }
            // A rung raises store entries by design, so the first
            // barrier after it must not compare against the old sums.
            guard.reset_baseline();
        } else if rungs.is_contract(&err) {
            return Err(err);
        } else {
            let (step, oom) = retry.next_step(err, sup)?;
            rungs.restart();
            if step == RetryStep::Shrink {
                rungs.shrink(oom)?;
            }
        }
    }
}

/// A fresh directory `name` under the temp dir — the tests'
/// checkpoint directories.
#[cfg(test)]
pub(crate) fn test_dir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join("apsp_core_tests").join(name);
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A checkpointed, unsupervised context — the tests' shorthand.
#[cfg(test)]
pub(crate) fn durable(ckpt: &Checkpoint) -> RunCtx<'_> {
    RunCtx {
        checkpoint: Some(ckpt),
        ..Default::default()
    }
}

/// A store whose dimension does not match the graph is bad input — a
/// typed [`ApspError::InvalidInput`], never a panic.
pub(crate) fn check_store(store: &TileStore, n: usize) -> Result<(), ApspError> {
    if store.n() != n {
        return Err(ApspError::InvalidInput(format!(
            "tile store holds a {0}×{0} matrix but the graph has {n} vertices",
            store.n()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{BoundaryOptions, FwOptions, JohnsonOptions, SdcGuardMode};
    use crate::supervisor::{RetryPolicy, SupervisionEvent, SupervisionOptions};
    use crate::telemetry::Telemetry;
    use crate::tile_store::StorageBackend;
    use crate::{multi_gpu, ooc_boundary, ooc_fw, ooc_johnson, ApspErrorKind};
    use apsp_gpu_sim::{DeviceProfile, GpuDevice};
    use apsp_graph::generators::{gnp, grid_2d, GridOptions, WeightRange};

    #[test]
    fn every_run_rejects_a_wrong_sized_store_typed() {
        let g = grid_2d(6, 6, GridOptions::default(), WeightRange::default(), 1);
        let dir = std::env::temp_dir().join(format!("apsp_run_ctx_dim-{}", std::process::id()));
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        let dev = || GpuDevice::new(DeviceProfile::v100());
        let bo = BoundaryOptions::default();
        for ctx in [RunCtx::default(), durable(&ckpt)] {
            let mut store = TileStore::new(35, &StorageBackend::Memory).unwrap();
            let results = [
                ooc_fw::run(&mut dev(), &g, &mut store, &FwOptions::default(), &ctx).err(),
                ooc_johnson::run(&mut dev(), &g, &mut store, &JohnsonOptions::default(), &ctx)
                    .err(),
                ooc_boundary::run(&mut dev(), &g, &mut store, &bo, &ctx).err(),
                multi_gpu::run(&mut [dev(), dev()], &g, &mut store, &bo, &ctx).err(),
            ];
            for err in results {
                let err = err.expect("a 35×35 store cannot hold a 36-vertex graph");
                assert_eq!(err.kind(), ApspErrorKind::InvalidInput, "{err}");
                assert!(err.to_string().contains("36 vertices"), "{err}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A run with no rows — an empty graph, or no sources — returns an
    /// empty run's stats from every entry point, touching nothing.
    #[test]
    fn an_empty_run_returns_default_stats() {
        let g = apsp_graph::GraphBuilder::new(0).build();
        let mut store = TileStore::new(0, &StorageBackend::Memory).unwrap();
        let dev = || GpuDevice::new(DeviceProfile::v100());
        let (ctx, jo, bo) = (
            RunCtx::default(),
            JohnsonOptions::default(),
            BoundaryOptions::default(),
        );
        let fw = ooc_fw::run(&mut dev(), &g, &mut store, &FwOptions::default(), &ctx);
        assert_eq!(fw.unwrap(), Default::default());
        let johnson = ooc_johnson::run(&mut dev(), &g, &mut store, &jo, &ctx);
        assert_eq!(johnson.unwrap(), Default::default());
        let boundary = ooc_boundary::run(&mut dev(), &g, &mut store, &bo, &ctx);
        assert_eq!(boundary.unwrap(), Default::default());
        let fleet = multi_gpu::run(&mut [dev(), dev()], &g, &mut store, &bo, &ctx).unwrap();
        assert_eq!(
            (fleet.num_devices, fleet.num_components, fleet.sim_seconds),
            (2, 0, 0.0)
        );
        let g = gnp(30, 0.1, WeightRange::default(), 2);
        let sup = Supervisor::unarmed();
        let (rows, stats) =
            ooc_johnson::ooc_johnson_sources(&mut dev(), &g, &[], &jo, &sup).unwrap();
        assert_eq!((rows, stats), (Vec::new(), Default::default()));
    }

    /// The entry points the ladder test pins: `FwForced` forces a block
    /// of 32, `Unbatched` is boundary without transfer batching, `Fleet`
    /// is two V100s.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Driver {
        Fw,
        FwDurable,
        FwForced,
        Johnson,
        JohnsonParents,
        JohnsonSources,
        Boundary,
        Unbatched,
        Fleet,
    }

    /// The one fault a pinned case arms.
    #[derive(Debug, Clone, Copy)]
    enum Fault {
        Clean,
        /// Countdowns armed together on device 0: for each `k`, the
        /// `k`th allocation from now fails.
        Oom(&'static [u64]),
        /// Every allocation fails, so the geometry halves to its floor.
        OomToFloor,
        /// Store write op `ordinal` flips `bit` of its row.
        StoreFlip(u64, u64),
        /// Non-empty upload `k` on device 0 flips `bit`.
        DeviceFlip(u64, u64),
    }

    /// Run `driver` under `fault`, a guard in `mode` and the SDC budgets
    /// `(p, q)` (panel, round), check that an `Ok` run holds the
    /// reference rows, and describe the run in one line: its stats or
    /// error, the retry events (`attempt/backoff_ms`, `s` for a shrink),
    /// the telemetry SDC counters, and the span count with the position
    /// of every `sdc.*` span.
    fn pinned_run(driver: Driver, fault: Fault, mode: SdcGuardMode, (p, q): (u32, u32)) -> String {
        use Driver::*;
        let retry = RetryPolicy {
            sdc_panel_retries: p,
            sdc_round_retries: q,
            ..Default::default()
        };
        let sup_opts = SupervisionOptions {
            retry,
            ..Default::default()
        };
        let sup = Supervisor::with_telemetry(&sup_opts, 0.0, Telemetry::enabled());
        let w = WeightRange::default();
        let (g, kib) = match driver {
            Fw | FwDurable | FwForced => (gnp(97, 0.07, w, 41), 64),
            Johnson | JohnsonParents | JohnsonSources => (gnp(150, 0.04, w, 19), 512),
            Boundary | Unbatched | Fleet => {
                (grid_2d(10, 10, GridOptions::default(), w, 41), 16 << 20)
            }
        };
        let profile = DeviceProfile::v100().with_memory_bytes(kib << 10);
        let fleet = 1 + (driver == Fleet) as usize;
        let mut devs: Vec<_> = (0..fleet)
            .map(|_| GpuDevice::new(profile.clone()))
            .collect();
        let n = g.num_vertices();
        let mut store = TileStore::new(n, &StorageBackend::Memory).unwrap();
        let mut parents = TileStore::new(n, &StorageBackend::Memory).unwrap();
        if mode.is_on() {
            store.set_sdc_guard(mode).unwrap();
        }
        match fault {
            Fault::Clean => {}
            Fault::Oom(ks) => ks.iter().for_each(|&k| devs[0].inject_alloc_failure(k)),
            Fault::OomToFloor => {
                for d in &devs {
                    (1..=64).for_each(|k| d.inject_alloc_failure(k));
                }
            }
            Fault::StoreFlip(op, bit) => store.arm_bit_flip(op, bit),
            Fault::DeviceFlip(k, bit) => devs[0].inject_bit_flip(k, bit),
        }
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("apsp_ladder_pins-{pid}-{driver:?}"));
        let _ = std::fs::remove_dir_all(&dir);
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        let ctx = RunCtx {
            supervisor: Some(&sup),
            checkpoint: (driver == FwDurable).then_some(&ckpt),
        };
        let fw = FwOptions {
            sdc_guard: mode,
            block_size: (driver == FwForced).then_some(32),
            ..Default::default()
        };
        let jo = JohnsonOptions {
            sdc_guard: mode,
            ..Default::default()
        };
        let bo = BoundaryOptions {
            num_components: Some(6),
            batch_transfers: driver != Unbatched,
            sdc_guard: mode,
            ..Default::default()
        };
        let sources: Vec<_> = (0..40).collect();
        let mut rows = Vec::new();
        let dev = &mut devs[0];
        let debug = |s: &dyn std::fmt::Debug| format!("{s:?}");
        let outcome = match driver {
            Fw | FwDurable | FwForced => {
                ooc_fw::run(dev, &g, &mut store, &fw, &ctx).map(|s| debug(&s))
            }
            Johnson => ooc_johnson::run(dev, &g, &mut store, &jo, &ctx).map(|s| debug(&s)),
            JohnsonParents => {
                ooc_johnson::ooc_johnson_with_parents(dev, &g, &mut store, &mut parents, &jo)
                    .map(|s| debug(&s))
            }
            JohnsonSources => {
                ooc_johnson::ooc_johnson_sources(dev, &g, &sources, &jo, &sup).map(|(r, s)| {
                    rows = r;
                    debug(&s)
                })
            }
            Boundary | Unbatched => {
                ooc_boundary::run(dev, &g, &mut store, &bo, &ctx).map(|s| debug(&s))
            }
            Fleet => multi_gpu::run(&mut devs, &g, &mut store, &bo, &ctx).map(|s| debug(&s)),
        };
        let _ = std::fs::remove_dir_all(&dir);
        let reference = apsp_cpu::bgl_plus_apsp(&g);
        let outcome = match outcome {
            Ok(stats) if driver == JohnsonSources => {
                assert_eq!(rows, reference.as_slice()[..40 * n]);
                stats
            }
            Ok(stats) => {
                assert_eq!(store.to_dist_matrix().unwrap(), reference);
                stats
            }
            Err(e) => format!("{:?}: {e}", e.kind()),
        };
        let mut events = String::from("no retries");
        for e in sup.events() {
            let SupervisionEvent::Retry {
                algorithm,
                attempt,
                backoff_ms,
                shrink,
            } = e
            else {
                panic!("unexpected event {e:?}");
            };
            if attempt == 1 {
                events = algorithm.to_string();
            }
            events += &format!(" {attempt}/{backoff_ms}{}", if shrink { "s" } else { "" });
        }
        let report = sup
            .telemetry()
            .build_report("", "", 0.0, &devs[0].report(), &[], &[], 0, 0)
            .unwrap();
        let mut spans = format!("{} spans", report.spans.len());
        for (i, span) in report.spans.iter().enumerate() {
            if span.name.starts_with("sdc.") {
                spans += &format!(", {} at {i}", span.name);
            }
        }
        format!(
            "{driver:?} {fault:?} {mode} {p}/{q}: {outcome} | {events} | sdc {}/{}/{} | {spans}",
            report.sdc_detected, report.sdc_recovered_panel, report.sdc_recovered_round,
        )
    }

    /// Every rung of every driver's recovery, pinned: which rung a fault
    /// takes, the stats it leaves (counters, final geometry, simulated
    /// seconds), the retry events, the telemetry, and the error text
    /// when the ladder gives up.
    #[test]
    fn every_rung_is_pinned_per_driver() {
        use Driver::*;
        use Fault::*;
        use SdcGuardMode::{Checksum, Full, Off};
        // A clean run; one failure; a second that kills the same-geometry
        // retry too, so the run halves once; failures down to the floor.
        const OOMS: [(Driver, &[u64], &[u64]); 7] = [
            (Fw, &[3], &[3, 10]),
            (FwDurable, &[3], &[3, 10]),
            (Johnson, &[2], &[2, 4]),
            (JohnsonParents, &[2], &[2, 4]),
            (JohnsonSources, &[2], &[2, 4]),
            (Boundary, &[3], &[3, 6]),
            (Fleet, &[3], &[3, 6]),
        ];
        let mut cases = vec![
            (FwForced, Clean, Off, (2, 1)),
            (FwForced, Oom(&[2]), Off, (2, 1)),
        ];
        for (driver, one, two) in OOMS {
            let faults = [Clean, Oom(one), Oom(two), OomToFloor];
            cases.extend(faults.map(|f| (driver, f, Off, (2, 1))));
        }
        // A store flip the guard localizes, under the default budgets, with
        // no panel budget, and with none at all.
        for (driver, op, bit) in [
            (Fw, 260, 7),
            (FwDurable, 460, 7),
            (Johnson, 30, 11),
            (Boundary, 10, 11),
        ] {
            for budgets in [(2, 1), (0, 1), (0, 0)] {
                cases.push((driver, StoreFlip(op, bit), Checksum, budgets));
            }
        }
        // More sites under the default budgets: FW's store init, stage
        // 2/3 tiles and late rounds, Johnson's middle and final batches,
        // boundary's middle and late flush groups in both transfer modes,
        // and the parents entry point, which runs under the default policy.
        for (driver, op, bit) in [
            (Fw, 50, 7),
            (Fw, 150, 13),
            (Fw, 420, 3),
            (Johnson, 90, 3),
            (Johnson, 145, 25),
            (Boundary, 55, 3),
            (Boundary, 95, 25),
            (Unbatched, 10, 11),
            (Unbatched, 55, 3),
            (Unbatched, 95, 25),
            (JohnsonParents, 30, 11),
        ] {
            cases.push((driver, StoreFlip(op, bit), Checksum, (2, 1)));
        }
        cases.push((Fw, DeviceFlip(1, 30), Full, (2, 1)));
        let lines: Vec<String> = cases
            .into_iter()
            .map(|(driver, fault, mode, budgets)| pinned_run(driver, fault, mode, budgets))
            .collect();
        let pinned = [
            "FwForced Clean off 2/1: FwRunStats { block: 32, n_d: 4, sim_seconds: 0.003058665604052683, retries: 0, checkpoint_commits: 0, sdc_panel_recoveries: 0, sdc_round_recoveries: 0 } | no retries | sdc 0/0/0 | 12 spans",
            "FwForced Oom([2]) off 2/1: OutOfDeviceMemory: out of device memory: requested 4096 bytes, 0 free of 65536 total | no retries | sdc 0/0/0 | 1 spans",
            "Fw Clean off 2/1: FwRunStats { block: 57, n_d: 2, sim_seconds: 0.0004631545657548125, retries: 0, checkpoint_commits: 0, sdc_panel_recoveries: 0, sdc_round_recoveries: 0 } | no retries | sdc 0/0/0 | 6 spans",
            "Fw Oom([3]) off 2/1: FwRunStats { block: 57, n_d: 2, sim_seconds: 0.0004631545657548126, retries: 1, checkpoint_commits: 0, sdc_panel_recoveries: 0, sdc_round_recoveries: 0 } | out-of-core Floyd-Warshall 1/11 | sdc 0/0/0 | 7 spans",
            "Fw Oom([3, 10]) off 2/1: FwRunStats { block: 28, n_d: 4, sim_seconds: 0.0030492423556906546, retries: 2, checkpoint_commits: 0, sdc_panel_recoveries: 0, sdc_round_recoveries: 0 } | out-of-core Floyd-Warshall 1/11 2/29s | sdc 0/0/0 | 16 spans",
            "Fw OomToFloor off 2/1: DeviceTooSmall: device too small for out-of-core Floyd-Warshall: allocation kept failing at the minimum 1×1 block: out of device memory: requested 4 bytes, 0 free of 65536 total | out-of-core Floyd-Warshall 1/11 2/29s 3/40 4/88s 5/162 6/322s 7/648 8/1288s 9/2568 10/5127s 11/10243 12/20482s | sdc 0/0/0 | 0 spans",
            "FwDurable Clean off 2/1: FwRunStats { block: 57, n_d: 2, sim_seconds: 0.0004631545657548125, retries: 0, checkpoint_commits: 1, sdc_panel_recoveries: 0, sdc_round_recoveries: 0 } | no retries | sdc 0/0/0 | 6 spans",
            "FwDurable Oom([3]) off 2/1: FwRunStats { block: 57, n_d: 2, sim_seconds: 0.0004631545657548126, retries: 1, checkpoint_commits: 1, sdc_panel_recoveries: 0, sdc_round_recoveries: 0 } | out-of-core Floyd-Warshall 1/11 | sdc 0/0/0 | 7 spans",
            "FwDurable Oom([3, 10]) off 2/1: FwRunStats { block: 28, n_d: 4, sim_seconds: 0.0030492423556906546, retries: 2, checkpoint_commits: 4, sdc_panel_recoveries: 0, sdc_round_recoveries: 0 } | out-of-core Floyd-Warshall 1/11 2/29s | sdc 0/0/0 | 16 spans",
            "FwDurable OomToFloor off 2/1: DeviceTooSmall: device too small for out-of-core Floyd-Warshall: allocation kept failing at the minimum 1×1 block: out of device memory: requested 4 bytes, 0 free of 65536 total | out-of-core Floyd-Warshall 1/11 2/29s 3/40 4/88s 5/162 6/322s 7/648 8/1288s 9/2568 10/5127s 11/10243 12/20482s | sdc 0/0/0 | 0 spans",
            "Johnson Clean off 2/1: JohnsonRunStats { batch_size: 118, num_batches: 2, dynamic_parallelism: true, work: NearFarStats { relaxations: 192548, heavy_relaxations: 0, near_iterations: 2063, far_splits: 402, heavy_vertices: 0 }, sim_seconds: 0.0009876160340786153, retries: 0, checkpoint_commits: 0, sdc_panel_recoveries: 0, sdc_round_recoveries: 0 } | no retries | sdc 0/0/0 | 2 spans",
            "Johnson Oom([2]) off 2/1: JohnsonRunStats { batch_size: 118, num_batches: 2, dynamic_parallelism: true, work: NearFarStats { relaxations: 192548, heavy_relaxations: 0, near_iterations: 2063, far_splits: 402, heavy_vertices: 0 }, sim_seconds: 0.0009876160340786153, retries: 1, checkpoint_commits: 0, sdc_panel_recoveries: 0, sdc_round_recoveries: 0 } | out-of-core Johnson's 1/11 | sdc 0/0/0 | 2 spans",
            "Johnson Oom([2, 4]) off 2/1: JohnsonRunStats { batch_size: 59, num_batches: 3, dynamic_parallelism: true, work: NearFarStats { relaxations: 192548, heavy_relaxations: 0, near_iterations: 2063, far_splits: 402, heavy_vertices: 0 }, sim_seconds: 0.0014827855256040394, retries: 2, checkpoint_commits: 0, sdc_panel_recoveries: 0, sdc_round_recoveries: 0 } | out-of-core Johnson's 1/11 2/29s | sdc 0/0/0 | 3 spans",
            "Johnson OomToFloor off 2/1: DeviceTooSmall: device too small for out-of-core Johnson's: allocation kept failing at the minimum batch of 1: out of device memory: requested 8704 bytes, 0 free of 524288 total | out-of-core Johnson's 1/11 2/29s 3/40 4/88s 5/162 6/322s 7/648 8/1288s 9/2568 10/5127s 11/10243 12/20482s 13/40961 14/81922s | sdc 0/0/0 | 0 spans",
            "JohnsonParents Clean off 2/1: JohnsonRunStats { batch_size: 59, num_batches: 3, dynamic_parallelism: true, work: NearFarStats { relaxations: 192548, heavy_relaxations: 0, near_iterations: 2063, far_splits: 402, heavy_vertices: 0 }, sim_seconds: 0.001502419568157231, retries: 0, checkpoint_commits: 0, sdc_panel_recoveries: 0, sdc_round_recoveries: 0 } | no retries | sdc 0/0/0 | 0 spans",
            "JohnsonParents Oom([2]) off 2/1: JohnsonRunStats { batch_size: 59, num_batches: 3, dynamic_parallelism: true, work: NearFarStats { relaxations: 192548, heavy_relaxations: 0, near_iterations: 2063, far_splits: 402, heavy_vertices: 0 }, sim_seconds: 0.001502419568157231, retries: 1, checkpoint_commits: 0, sdc_panel_recoveries: 0, sdc_round_recoveries: 0 } | no retries | sdc 0/0/0 | 0 spans",
            "JohnsonParents Oom([2, 4]) off 2/1: JohnsonRunStats { batch_size: 29, num_batches: 6, dynamic_parallelism: true, work: NearFarStats { relaxations: 192548, heavy_relaxations: 0, near_iterations: 2063, far_splits: 402, heavy_vertices: 0 }, sim_seconds: 0.002964841672780631, retries: 2, checkpoint_commits: 0, sdc_panel_recoveries: 0, sdc_round_recoveries: 0 } | no retries | sdc 0/0/0 | 0 spans",
            "JohnsonParents OomToFloor off 2/1: DeviceTooSmall: device too small for out-of-core Johnson's: allocation kept failing at the minimum batch of 1: out of device memory: requested 8704 bytes, 0 free of 524288 total | no retries | sdc 0/0/0 | 0 spans",
            "JohnsonSources Clean off 2/1: JohnsonRunStats { batch_size: 40, num_batches: 1, dynamic_parallelism: true, work: NearFarStats { relaxations: 51678, heavy_relaxations: 0, near_iterations: 556, far_splits: 112, heavy_vertices: 0 }, sim_seconds: 0.0005164425531914893, retries: 0, checkpoint_commits: 0, sdc_panel_recoveries: 0, sdc_round_recoveries: 0 } | no retries | sdc 0/0/0 | 1 spans",
            "JohnsonSources Oom([2]) off 2/1: JohnsonRunStats { batch_size: 40, num_batches: 1, dynamic_parallelism: true, work: NearFarStats { relaxations: 51678, heavy_relaxations: 0, near_iterations: 556, far_splits: 112, heavy_vertices: 0 }, sim_seconds: 0.0005164425531914893, retries: 1, checkpoint_commits: 0, sdc_panel_recoveries: 0, sdc_round_recoveries: 0 } | out-of-core Johnson's (partial) 1/11 | sdc 0/0/0 | 1 spans",
            "JohnsonSources Oom([2, 4]) off 2/1: JohnsonRunStats { batch_size: 20, num_batches: 2, dynamic_parallelism: true, work: NearFarStats { relaxations: 51678, heavy_relaxations: 0, near_iterations: 556, far_splits: 112, heavy_vertices: 0 }, sim_seconds: 0.0009638212765957447, retries: 2, checkpoint_commits: 0, sdc_panel_recoveries: 0, sdc_round_recoveries: 0 } | out-of-core Johnson's (partial) 1/11 2/29s | sdc 0/0/0 | 2 spans",
            "JohnsonSources OomToFloor off 2/1: DeviceTooSmall: device too small for out-of-core Johnson's (partial): allocation kept failing at the minimum batch of 1: out of device memory: requested 8704 bytes, 0 free of 524288 total | out-of-core Johnson's (partial) 1/11 2/29s 3/40 4/88s 5/162 6/322s 7/648 8/1288s 9/2568 10/5127s 11/10243 12/20482s | sdc 0/0/0 | 0 spans",
            "Boundary Clean off 2/1: BoundaryRunStats { num_components: 6, total_boundary: 52, max_component: 18, n_row: 6, sim_seconds: 0.00796857127655521, retries: 0, checkpoint_commits: 0, sdc_round_recoveries: 0 } | no retries | sdc 0/0/0 | 9 spans",
            "Boundary Oom([3]) off 2/1: BoundaryRunStats { num_components: 6, total_boundary: 52, max_component: 18, n_row: 6, sim_seconds: 0.007968571276555212, retries: 1, checkpoint_commits: 0, sdc_round_recoveries: 0 } | out-of-core boundary 1/11 | sdc 0/0/0 | 9 spans",
            "Boundary Oom([3, 6]) off 2/1: BoundaryRunStats { num_components: 3, total_boundary: 24, max_component: 70, n_row: 3, sim_seconds: 0.0034233186993973515, retries: 2, checkpoint_commits: 0, sdc_round_recoveries: 0 } | out-of-core boundary 1/11 2/29s | sdc 0/0/0 | 6 spans",
            "Boundary OomToFloor off 2/1: DeviceTooSmall: device too small for out-of-core boundary: allocation kept failing even at a single component: out of device memory: requested 40000 bytes, 0 free of 17179869184 total | out-of-core boundary 1/11 2/29s 3/40 4/88s 5/162 6/322s | sdc 0/0/0 | 0 spans",
            "Fleet Clean off 2/1: MultiGpuStats { num_devices: 2, num_components: 6, total_boundary: 52, sim_seconds: 0.0041248878984397165, phase_seconds: [0.00024147432421479231, 0.0002252790630192502, 0.003658134511205674], placement: [0, 0, 0, 1, 1, 1], stolen_panels: 2, retries: 0, checkpoint_commits: 0, sdc_round_recoveries: 0 } | no retries | sdc 0/0/0 | 12 spans",
            "Fleet Oom([3]) off 2/1: MultiGpuStats { num_devices: 2, num_components: 6, total_boundary: 52, sim_seconds: 0.004124887898439715, phase_seconds: [0.00024147432421479231, 0.0002252790630192503, 0.003658134511205673], placement: [0, 0, 0, 1, 1, 1], stolen_panels: 2, retries: 1, checkpoint_commits: 0, sdc_round_recoveries: 0 } | multi-device boundary 1/11 | sdc 0/0/0 | 12 spans",
            "Fleet Oom([3, 6]) off 2/1: MultiGpuStats { num_devices: 2, num_components: 3, total_boundary: 24, sim_seconds: 0.002634072321522008, phase_seconds: [0.001198162218439716, 0.00010721917082066857, 0.0013286909322616236], placement: [1, 1, 0], stolen_panels: 0, retries: 2, checkpoint_commits: 0, sdc_round_recoveries: 0 } | multi-device boundary 1/11 2/29s | sdc 0/0/0 | 9 spans",
            "Fleet OomToFloor off 2/1: DeviceTooSmall: device too small for multi-device boundary: allocation kept failing even at a single component: out of device memory: requested 10000 bytes, 0 free of 17179869184 total | multi-device boundary 1/11 2/29s 3/40 4/88s 5/162 6/322s | sdc 0/0/0 | 0 spans",
            "Fw StoreFlip(260, 7) checksum 2/1: FwRunStats { block: 57, n_d: 2, sim_seconds: 0.00046315456575481264, retries: 0, checkpoint_commits: 0, sdc_panel_recoveries: 1, sdc_round_recoveries: 0 } | no retries | sdc 1/1/0 | 10 spans, sdc.recover_panel at 3",
            "Fw StoreFlip(260, 7) checksum 0/1: FwRunStats { block: 57, n_d: 2, sim_seconds: 0.00046315456575481264, retries: 0, checkpoint_commits: 0, sdc_panel_recoveries: 0, sdc_round_recoveries: 1 } | no retries | sdc 1/0/1 | 10 spans, sdc.recover_round at 3",
            "Fw StoreFlip(260, 7) checksum 0/0: SilentCorruption: silent data corruption in panel 1 at round 0: row 66 no longer matches its recorded checksum | no retries | sdc 1/0/0 | 3 spans",
            "FwDurable StoreFlip(460, 7) checksum 2/1: FwRunStats { block: 57, n_d: 2, sim_seconds: 0.0004631545657548127, retries: 0, checkpoint_commits: 2, sdc_panel_recoveries: 1, sdc_round_recoveries: 0 } | no retries | sdc 1/1/0 | 13 spans, sdc.recover_panel at 6",
            "FwDurable StoreFlip(460, 7) checksum 0/1: FwRunStats { block: 57, n_d: 2, sim_seconds: 0.0002240982543059778, retries: 0, checkpoint_commits: 1, sdc_panel_recoveries: 0, sdc_round_recoveries: 1 } | no retries | sdc 1/0/1 | 10 spans, sdc.recover_round at 6",
            "FwDurable StoreFlip(460, 7) checksum 0/0: SilentCorruption: silent data corruption in panel 0 at round 1: row 32 no longer matches its recorded checksum | no retries | sdc 1/0/0 | 6 spans",
            "Johnson StoreFlip(30, 11) checksum 2/1: JohnsonRunStats { batch_size: 118, num_batches: 2, dynamic_parallelism: true, work: NearFarStats { relaxations: 192548, heavy_relaxations: 0, near_iterations: 2063, far_splits: 402, heavy_vertices: 0 }, sim_seconds: 0.0009876160340786151, retries: 0, checkpoint_commits: 0, sdc_panel_recoveries: 1, sdc_round_recoveries: 0 } | no retries | sdc 1/1/0 | 4 spans, sdc.recover_panel at 1",
            "Johnson StoreFlip(30, 11) checksum 0/1: JohnsonRunStats { batch_size: 118, num_batches: 2, dynamic_parallelism: true, work: NearFarStats { relaxations: 192548, heavy_relaxations: 0, near_iterations: 2063, far_splits: 402, heavy_vertices: 0 }, sim_seconds: 0.0009876160340786151, retries: 0, checkpoint_commits: 0, sdc_panel_recoveries: 0, sdc_round_recoveries: 1 } | no retries | sdc 1/0/1 | 4 spans, sdc.recover_round at 1",
            "Johnson StoreFlip(30, 11) checksum 0/0: SilentCorruption: silent data corruption in panel 0 at round 0: row 30 no longer matches its recorded checksum | no retries | sdc 1/0/0 | 1 spans",
            "Boundary StoreFlip(10, 11) checksum 2/1: BoundaryRunStats { num_components: 6, total_boundary: 52, max_component: 18, n_row: 6, sim_seconds: 0.00796857127655521, retries: 0, checkpoint_commits: 0, sdc_round_recoveries: 1 } | no retries | sdc 1/0/1 | 19 spans, sdc.recover_round at 9",
            "Boundary StoreFlip(10, 11) checksum 0/1: BoundaryRunStats { num_components: 6, total_boundary: 52, max_component: 18, n_row: 6, sim_seconds: 0.00796857127655521, retries: 0, checkpoint_commits: 0, sdc_round_recoveries: 1 } | no retries | sdc 1/0/1 | 19 spans, sdc.recover_round at 9",
            "Boundary StoreFlip(10, 11) checksum 0/0: SilentCorruption: silent data corruption in panel 1 at round 5: row 69 no longer matches its recorded checksum | no retries | sdc 1/0/0 | 9 spans",
            "Fw StoreFlip(50, 7) checksum 2/1: FwRunStats { block: 57, n_d: 2, sim_seconds: 0.0004631545657548124, retries: 0, checkpoint_commits: 0, sdc_panel_recoveries: 0, sdc_round_recoveries: 1 } | no retries | sdc 1/0/1 | 7 spans, sdc.recover_round at 0",
            "Fw StoreFlip(150, 13) checksum 2/1: FwRunStats { block: 57, n_d: 2, sim_seconds: 0.0004631545657548126, retries: 0, checkpoint_commits: 0, sdc_panel_recoveries: 0, sdc_round_recoveries: 1 } | no retries | sdc 1/0/1 | 8 spans, sdc.recover_round at 1",
            "Fw StoreFlip(420, 3) checksum 2/1: FwRunStats { block: 57, n_d: 2, sim_seconds: 0.0004631545657548127, retries: 0, checkpoint_commits: 0, sdc_panel_recoveries: 0, sdc_round_recoveries: 1 } | no retries | sdc 1/0/1 | 12 spans, sdc.recover_round at 5",
            "Johnson StoreFlip(90, 3) checksum 2/1: JohnsonRunStats { batch_size: 118, num_batches: 1, dynamic_parallelism: true, work: NearFarStats { relaxations: 110064, heavy_relaxations: 0, near_iterations: 1176, far_splits: 227, heavy_vertices: 0 }, sim_seconds: 0.0005174380009896092, retries: 0, checkpoint_commits: 0, sdc_panel_recoveries: 1, sdc_round_recoveries: 0 } | no retries | sdc 1/1/0 | 3 spans, sdc.recover_panel at 1",
            "Johnson StoreFlip(145, 25) checksum 2/1: JohnsonRunStats { batch_size: 118, num_batches: 1, dynamic_parallelism: true, work: NearFarStats { relaxations: 27934, heavy_relaxations: 0, near_iterations: 305, far_splits: 59, heavy_vertices: 0 }, sim_seconds: 0.00047167117988394574, retries: 0, checkpoint_commits: 0, sdc_panel_recoveries: 1, sdc_round_recoveries: 0 } | no retries | sdc 1/1/0 | 4 spans, sdc.recover_panel at 2",
            "Boundary StoreFlip(55, 3) checksum 2/1: BoundaryRunStats { num_components: 6, total_boundary: 52, max_component: 18, n_row: 6, sim_seconds: 0.00796857127655521, retries: 0, checkpoint_commits: 0, sdc_round_recoveries: 1 } | no retries | sdc 1/0/1 | 19 spans, sdc.recover_round at 9",
            "Boundary StoreFlip(95, 25) checksum 2/1: BoundaryRunStats { num_components: 6, total_boundary: 52, max_component: 18, n_row: 6, sim_seconds: 0.00796857127655521, retries: 0, checkpoint_commits: 0, sdc_round_recoveries: 1 } | no retries | sdc 1/0/1 | 19 spans, sdc.recover_round at 9",
            "Unbatched StoreFlip(10, 11) checksum 2/1: BoundaryRunStats { num_components: 6, total_boundary: 52, max_component: 18, n_row: 1, sim_seconds: 0.008623263475136773, retries: 0, checkpoint_commits: 0, sdc_round_recoveries: 1 } | no retries | sdc 1/0/1 | 19 spans, sdc.recover_round at 4",
            "Unbatched StoreFlip(55, 3) checksum 2/1: BoundaryRunStats { num_components: 6, total_boundary: 52, max_component: 18, n_row: 1, sim_seconds: 0.008623263475136776, retries: 0, checkpoint_commits: 0, sdc_round_recoveries: 1 } | no retries | sdc 1/0/1 | 25 spans, sdc.recover_round at 10",
            "Unbatched StoreFlip(95, 25) checksum 2/1: BoundaryRunStats { num_components: 6, total_boundary: 52, max_component: 18, n_row: 1, sim_seconds: 0.008623263475136771, retries: 0, checkpoint_commits: 0, sdc_round_recoveries: 1 } | no retries | sdc 1/0/1 | 29 spans, sdc.recover_round at 14",
            "JohnsonParents StoreFlip(30, 11) checksum 2/1: JohnsonRunStats { batch_size: 59, num_batches: 3, dynamic_parallelism: true, work: NearFarStats { relaxations: 192548, heavy_relaxations: 0, near_iterations: 2063, far_splits: 402, heavy_vertices: 0 }, sim_seconds: 0.001502419568157231, retries: 0, checkpoint_commits: 0, sdc_panel_recoveries: 1, sdc_round_recoveries: 0 } | no retries | sdc 0/0/0 | 0 spans",
            "Fw DeviceFlip(1, 30) full 2/1: FwRunStats { block: 57, n_d: 2, sim_seconds: 0.00046315456575481264, retries: 0, checkpoint_commits: 0, sdc_panel_recoveries: 0, sdc_round_recoveries: 1 } | no retries | sdc 1/0/1 | 10 spans, sdc.recover_round at 3",
        ];
        assert_eq!(lines.len(), pinned.len());
        let wrong: Vec<_> = lines.iter().zip(pinned).filter(|(g, w)| g != w).collect();
        assert!(wrong.is_empty(), "{} lines differ: {wrong:#?}", wrong.len());
    }
}
