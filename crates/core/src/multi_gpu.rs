//! Multi-device boundary algorithm — the distributed heritage of
//! Algorithm 3.
//!
//! Djidjev et al. designed the boundary algorithm for multi-node
//! clusters; the paper specializes it to one GPU. [`run`] hands a fleet
//! of simulated devices, which may mix profiles (a V100 next to a K80),
//! to the one boundary driver in [`crate::ooc_boundary`], which runs a
//! single device as a fleet of one. The selector's fleet plan
//! ([`crate::selector::placement`]) places each component's dist₂ block
//! and dist₄ panel by LPT over the profiles' throughput, and solves
//! dist₃ on the fastest device, which broadcasts it. Every device is
//! charged as a lone device is; each phase starts at a barrier where
//! every device waits for the slowest, so the reported time is the
//! makespan a lock-step multi-GPU driver loop would see. The panel math
//! is device-independent, so the output is bit-identical to the
//! single-device [`crate::ooc_boundary::ooc_boundary`] run for any fleet
//! shape.

use crate::error::ApspError;
use crate::ooc_boundary::run_boundary;
use crate::options::BoundaryOptions;
use crate::run_ctx::RunCtx;
use crate::tile_store::TileStore;
use apsp_gpu_sim::{DeviceProfile, GpuDevice};
use apsp_graph::CsrGraph;

/// Statistics from a multi-device boundary run.
#[derive(Debug, Clone, Default)]
pub struct MultiGpuStats {
    /// Devices in the fleet.
    pub num_devices: usize,
    /// Components (`k`).
    pub num_components: usize,
    /// Total boundary nodes (`NB`).
    pub total_boundary: usize,
    /// Barrier-synchronized makespan, seconds.
    pub sim_seconds: f64,
    /// Per-phase makespans `(dist₂, dist₃+broadcast, dist₄)`.
    pub phase_seconds: [f64; 3],
    /// Component → device assignment of the dist₂ phase (the cost-model
    /// placement).
    pub placement: Vec<usize>,
    /// dist₄ panels the fleet plan placed on a different device from
    /// their component's dist₂ block.
    pub stolen_panels: u32,
    /// Restarts forced by mid-run device allocation failures.
    pub retries: u32,
    /// Checkpoint commits performed (0 without checkpointing).
    pub checkpoint_commits: u32,
    /// Silent corruptions repaired by recomputing every panel.
    pub sdc_round_recoveries: u32,
}

/// [`run`] unsupervised and without a checkpoint.
pub fn ooc_boundary_multi(
    devs: &mut [GpuDevice],
    g: &CsrGraph,
    store: &mut TileStore,
    opts: &BoundaryOptions,
) -> Result<MultiGpuStats, ApspError> {
    run(devs, g, store, opts, &RunCtx::default())
}

/// Run the boundary algorithm across a fleet of simulated devices.
///
/// Returns [`ApspError::InvalidInput`] for an empty fleet or a store
/// whose dimension does not match the graph, and
/// [`ApspError::DeviceTooSmall`] when no feasible partition fits the
/// smallest device — never panics on bad input.
///
/// `ctx.supervisor` is checked at every panel-flush barrier and sets
/// the retry policy. `ctx.checkpoint` arms the same durability as the
/// single-device [`crate::ooc_boundary::run`], with the same manifest
/// shape, so a run killed on one fleet resumes on another (or on a
/// single device) bit-exactly: the committed cursor counts flushed
/// components in partition order, which is device-count-independent.
pub fn run(
    devs: &mut [GpuDevice],
    g: &CsrGraph,
    store: &mut TileStore,
    opts: &BoundaryOptions,
    ctx: &RunCtx,
) -> Result<MultiGpuStats, ApspError> {
    if devs.is_empty() {
        return Err(ApspError::InvalidInput(
            "multi-device run needs at least one device, but the fleet is empty".into(),
        ));
    }
    let num_devices = devs.len();
    let (outcome, c) = run_boundary(devs, g, store, opts, ctx, true)?;
    ctx.finish(MultiGpuStats {
        num_devices,
        num_components: outcome.stats.num_components,
        total_boundary: outcome.stats.total_boundary,
        sim_seconds: outcome.stats.sim_seconds,
        phase_seconds: outcome.phase_seconds,
        placement: outcome.placement,
        stolen_panels: outcome.stolen_panels,
        retries: c.retries,
        checkpoint_commits: c.checkpoint_commits,
        sdc_round_recoveries: c.sdc_round_recoveries,
    })
}

/// Parse a fleet spec like `"v100,k80"` into device profiles — the
/// format `apsp-run --fleet` and the conformance matrix share. Tokens
/// are case-insensitive profile names; whitespace around commas is
/// ignored.
pub fn parse_fleet(spec: &str) -> Result<Vec<DeviceProfile>, String> {
    let mut fleet = Vec::new();
    for tok in spec.split(',') {
        let tok = tok.trim();
        match tok.to_ascii_lowercase().as_str() {
            "v100" => fleet.push(DeviceProfile::v100()),
            "k80" => fleet.push(DeviceProfile::k80()),
            "" => return Err("empty device name in fleet spec (expected e.g. `v100,k80`)".into()),
            other => {
                return Err(format!(
                    "unknown device profile `{other}` in fleet spec (expected v100 or k80)"
                ))
            }
        }
    }
    if fleet.is_empty() {
        return Err("fleet spec names no devices".into());
    }
    Ok(fleet)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{Checkpoint, Progress};
    use crate::run_ctx::durable;
    use crate::supervisor::{CancelToken, SupervisionOptions, Supervisor};
    use crate::tile_store::StorageBackend;
    use apsp_cpu::{bgl_plus_apsp, ExecBackend};
    use apsp_graph::generators::{grid_2d, GridOptions, WeightRange};

    fn devices(count: usize) -> Vec<GpuDevice> {
        (0..count)
            .map(|_| GpuDevice::new(DeviceProfile::v100()))
            .collect()
    }

    fn solve(g: &CsrGraph, count: usize) -> (apsp_cpu::DistMatrix, MultiGpuStats) {
        let mut devs = devices(count);
        let mut store = TileStore::new(g.num_vertices(), &StorageBackend::Memory).unwrap();
        let stats =
            ooc_boundary_multi(&mut devs, g, &mut store, &BoundaryOptions::default()).unwrap();
        (store.to_dist_matrix().unwrap(), stats)
    }

    #[test]
    fn any_device_count_matches_reference() {
        let g = grid_2d(10, 10, GridOptions::default(), WeightRange::default(), 3);
        let reference = bgl_plus_apsp(&g);
        for count in [1, 2, 3, 4] {
            let (result, stats) = solve(&g, count);
            assert_eq!(result, reference, "{count} devices");
            assert_eq!(stats.num_devices, count);
            assert_eq!(stats.placement.len(), stats.num_components);
        }
    }

    #[test]
    fn more_devices_reduce_simulated_time() {
        let g = grid_2d(22, 22, GridOptions::default(), WeightRange::default(), 7);
        let (_, one) = solve(&g, 1);
        let (_, four) = solve(&g, 4);
        assert!(
            four.sim_seconds < one.sim_seconds,
            "4 devices {} vs 1 device {}",
            four.sim_seconds,
            one.sim_seconds
        );
        // dist₂ and dist₄ parallelize; the dist₃ phase (single device +
        // broadcast) does not shrink.
        assert!(four.phase_seconds[0] < one.phase_seconds[0]);
        assert!(four.phase_seconds[2] < one.phase_seconds[2]);
    }

    #[test]
    fn scaling_is_sublinear_amdahl() {
        // The replicated dist₃ phase bounds the speedup (Amdahl); with 8
        // devices the win over 4 must be smaller than 4 over 1.
        let g = grid_2d(20, 20, GridOptions::default(), WeightRange::default(), 9);
        let (_, s1) = solve(&g, 1);
        let (_, s4) = solve(&g, 4);
        let (_, s8) = solve(&g, 8);
        let gain_4 = s1.sim_seconds / s4.sim_seconds;
        let gain_8 = s4.sim_seconds / s8.sim_seconds;
        assert!(gain_4 > gain_8, "{gain_4} vs {gain_8}");
    }

    #[test]
    fn empty_graph_is_trivial() {
        let g = apsp_graph::GraphBuilder::new(0).build();
        let mut devs = devices(2);
        let mut store = TileStore::new(0, &StorageBackend::Memory).unwrap();
        let stats =
            ooc_boundary_multi(&mut devs, &g, &mut store, &BoundaryOptions::default()).unwrap();
        assert_eq!(stats.sim_seconds, 0.0);
    }

    #[test]
    fn bad_input_returns_typed_errors_not_panics() {
        let g = grid_2d(6, 6, GridOptions::default(), WeightRange::default(), 1);
        // Empty fleet.
        let mut store = TileStore::new(36, &StorageBackend::Memory).unwrap();
        let err =
            ooc_boundary_multi(&mut [], &g, &mut store, &BoundaryOptions::default()).unwrap_err();
        assert_eq!(err.kind(), crate::error::ApspErrorKind::InvalidInput);
        assert!(err.to_string().contains("empty"));
        // Dimension mismatch.
        let mut devs = devices(2);
        let mut wrong = TileStore::new(35, &StorageBackend::Memory).unwrap();
        let err =
            ooc_boundary_multi(&mut devs, &g, &mut wrong, &BoundaryOptions::default()).unwrap_err();
        assert_eq!(err.kind(), crate::error::ApspErrorKind::InvalidInput);
        assert!(err.to_string().contains("36"));
        // Infeasible partition: a fleet whose smallest device cannot hold
        // even the minimum working set.
        let mut tiny = vec![
            GpuDevice::new(DeviceProfile::v100()),
            GpuDevice::new(DeviceProfile::v100().with_memory_bytes(1_000)),
        ];
        let err =
            ooc_boundary_multi(&mut tiny, &g, &mut store, &BoundaryOptions::default()).unwrap_err();
        assert_eq!(err.kind(), crate::error::ApspErrorKind::DeviceTooSmall);
        assert!(err.to_string().contains("partition"));
    }

    #[test]
    fn all_exec_backends_agree_bitwise() {
        // The PR-9 regression: the multi path must route through the
        // `_exec` kernels, so every backend computes identical bits.
        let g = grid_2d(11, 9, GridOptions::default(), WeightRange::default(), 13);
        let reference = bgl_plus_apsp(&g);
        for exec in [ExecBackend::Scalar, ExecBackend::Simd { threads: Some(2) }] {
            let mut devs = devices(3);
            let mut store = TileStore::new(g.num_vertices(), &StorageBackend::Memory).unwrap();
            let opts = BoundaryOptions {
                exec,
                ..Default::default()
            };
            ooc_boundary_multi(&mut devs, &g, &mut store, &opts).unwrap();
            assert_eq!(
                store.to_dist_matrix().unwrap(),
                reference,
                "backend {exec:?} diverged"
            );
        }
    }

    #[test]
    fn heterogeneous_fleet_matches_reference_and_loads_the_fast_device() {
        let g = grid_2d(14, 14, GridOptions::default(), WeightRange::default(), 21);
        let reference = bgl_plus_apsp(&g);
        let mut devs = vec![
            GpuDevice::new(DeviceProfile::v100()),
            GpuDevice::new(DeviceProfile::k80()),
        ];
        let mut store = TileStore::new(g.num_vertices(), &StorageBackend::Memory).unwrap();
        let opts = BoundaryOptions {
            num_components: Some(8),
            ..Default::default()
        };
        let stats = ooc_boundary_multi(&mut devs, &g, &mut store, &opts).unwrap();
        assert_eq!(store.to_dist_matrix().unwrap(), reference);
        // Cost-model placement, not round-robin: the 4×-faster V100 must
        // own more components than the K80.
        let v100_share = stats.placement.iter().filter(|&&d| d == 0).count();
        let k80_share = stats.placement.len() - v100_share;
        assert!(
            v100_share > k80_share,
            "placement {:?} ignores the throughput gap",
            stats.placement
        );
    }

    #[test]
    fn supervised_cancellation_is_typed() {
        let g = grid_2d(12, 12, GridOptions::default(), WeightRange::default(), 3);
        let mut devs = devices(2);
        let mut store = TileStore::new(g.num_vertices(), &StorageBackend::Memory).unwrap();
        let opts = SupervisionOptions {
            cancel: Some(CancelToken::cancel_after_checks(2)),
            ..Default::default()
        };
        let sup = Supervisor::new(&opts, 0.0);
        let ctx = RunCtx {
            supervisor: Some(&sup),
            ..Default::default()
        };
        let err = run(&mut devs, &g, &mut store, &BoundaryOptions::default(), &ctx).unwrap_err();
        assert_eq!(err.kind(), crate::error::ApspErrorKind::Cancelled);
    }

    #[test]
    fn checkpointed_run_resumes_bit_identically_after_cancel() {
        let g = grid_2d(13, 13, GridOptions::default(), WeightRange::default(), 17);
        let reference = bgl_plus_apsp(&g);
        let dir = std::env::temp_dir().join(format!(
            "apsp-multi-ckpt-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        let opts = BoundaryOptions {
            num_components: Some(6),
            batch_transfers: false, // per-component flushes and commits
            ..Default::default()
        };
        // First attempt is cancelled mid-run, after some flush barriers.
        let mut devs = devices(2);
        let mut store = TileStore::new(g.num_vertices(), &StorageBackend::Memory).unwrap();
        let sup_opts = SupervisionOptions {
            cancel: Some(CancelToken::cancel_after_checks(5)),
            ..Default::default()
        };
        let sup = Supervisor::new(&sup_opts, 0.0);
        let ctx = RunCtx {
            supervisor: Some(&sup),
            checkpoint: Some(&ckpt),
        };
        let err = run(&mut devs, &g, &mut store, &opts, &ctx).unwrap_err();
        assert_eq!(err.kind(), crate::error::ApspErrorKind::Cancelled);
        // Resume on a *different* fleet shape: the cursor is
        // device-count-independent.
        let mut devs = devices(4);
        let mut store2 = TileStore::new(g.num_vertices(), &StorageBackend::Memory).unwrap();
        let manifest = ckpt.load().unwrap().expect("a commit must have landed");
        ckpt.restore_into(&manifest, &mut store2).unwrap();
        drop(manifest);
        let stats = run(&mut devs, &g, &mut store2, &opts, &durable(&ckpt)).unwrap();
        assert_eq!(store2.to_dist_matrix().unwrap(), reference);
        assert!(stats.num_components >= 1);
        // Completion cleared the checkpoint.
        assert!(ckpt.load().unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A store row flipped after its write is caught at the next flush
    /// barrier and recovered by the round rung, on a fleet as on one
    /// device, and the recovery is a span on device 0.
    #[test]
    fn store_flips_on_a_fleet_are_recovered_bit_identical() {
        use crate::options::SdcGuardMode::Checksum;
        use crate::telemetry::Telemetry;
        let g = grid_2d(12, 12, GridOptions::default(), WeightRange::default(), 3);
        let reference = bgl_plus_apsp(&g);
        let opts = BoundaryOptions {
            sdc_guard: Checksum,
            ..Default::default()
        };
        for count in [1, 2] {
            for (ordinal, bit) in [(11, 5), (30, 13), (45, 21), (67, 30)] {
                let cell = format!("{count} device(s), flip at op {ordinal}, bit {bit}");
                let mut devs = devices(count);
                let mut store = TileStore::new(g.num_vertices(), &StorageBackend::Memory).unwrap();
                store.set_sdc_guard(Checksum).unwrap();
                store.arm_bit_flip(ordinal, bit);
                let sup =
                    Supervisor::with_telemetry(&Default::default(), 0.0, Telemetry::enabled());
                let ctx = RunCtx {
                    supervisor: Some(&sup),
                    ..Default::default()
                };
                let stats = run(&mut devs, &g, &mut store, &opts, &ctx).unwrap();
                assert_eq!(store.to_dist_matrix().unwrap(), reference, "{cell}");
                assert_eq!(stats.sdc_round_recoveries, 1, "{cell}");
                let tel = sup.telemetry();
                let report = tel.build_report("", "", 0.0, &devs[0].report(), &[], &[], 0, 0);
                let spans = report.unwrap().spans.into_iter();
                let rungs: Vec<_> = spans.filter(|s| s.name.starts_with("sdc.")).collect();
                let rungs: Vec<_> = rungs.into_iter().map(|s| (s.name, s.device)).collect();
                assert_eq!(rungs, [("sdc.recover_round".into(), Some(0))], "{cell}");
            }
        }
    }

    /// What a fleet of one must share with `ooc_boundary` to the bit:
    /// simulated seconds, bytes and transfers each way, kernel launches
    /// and the matrix.
    type Fingerprint = (u64, [u64; 5], apsp_cpu::DistMatrix);

    fn fingerprint(dev: &GpuDevice, sim_seconds: f64, store: &TileStore) -> Fingerprint {
        let c = dev.counters();
        let counts = [
            c.bytes_h2d,
            c.bytes_d2h,
            c.transfers_h2d,
            c.transfers_d2h,
            c.kernel_launches,
        ];
        (
            sim_seconds.to_bits(),
            counts,
            store.to_dist_matrix().unwrap(),
        )
    }

    /// Run `g` on one `bytes`-sized V100 through either entry point, with
    /// an allocation failure armed at `oom` and under `ctx`. Returns the
    /// fingerprint, the retries and (single-device only) `N_row`.
    fn one_device(
        fleet: bool,
        g: &CsrGraph,
        opts: &BoundaryOptions,
        bytes: u64,
        oom: Option<u64>,
        ctx: &RunCtx,
    ) -> Result<(Fingerprint, u32, usize), ApspError> {
        let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(bytes));
        if let Some(k) = oom {
            dev.inject_alloc_failure(k);
        }
        let mut store = TileStore::new(g.num_vertices(), &StorageBackend::Memory).unwrap();
        let (sim, retries, n_row) = if fleet {
            let s = run(std::slice::from_mut(&mut dev), g, &mut store, opts, ctx)?;
            (s.sim_seconds, s.retries, 0)
        } else {
            let s = crate::ooc_boundary::run(&mut dev, g, &mut store, opts, ctx)?;
            (s.sim_seconds, s.retries, s.n_row)
        };
        Ok((fingerprint(&dev, sim, &store), retries, n_row))
    }

    /// A fleet of one is `ooc_boundary` to the bit, over four graphs ×
    /// batching × overlap × three device sizes (the smallest forces the
    /// per-block fallback), an OOM retry, and a run resumed from a
    /// commit.
    #[test]
    fn a_fleet_of_one_is_ooc_boundary_to_the_bit() {
        use apsp_graph::generators::random_geometric;
        let w = WeightRange::default();
        let mut two_grids = apsp_graph::GraphBuilder::new(110);
        for e in grid_2d(5, 11, GridOptions::default(), w, 5).edges() {
            two_grids.add_edge(e.src, e.dst, e.weight);
            two_grids.add_edge(e.src + 55, e.dst + 55, e.weight);
        }
        let graphs = [
            grid_2d(10, 10, GridOptions::default(), w, 3),
            random_geometric(100, 0.16, w, 7),
            grid_2d(
                9,
                11,
                GridOptions {
                    diagonals: true,
                    deletion_prob: 0.2,
                },
                w,
                11,
            ),
            two_grids.build(),
        ];
        let plain = RunCtx::default();
        // All panels staged; a few per flush; not one staging panel beside
        // the working set, so batching falls back to per-block copies.
        const SIZES: [u64; 3] = [16 << 20, 40 << 10, 19 << 10];
        for (gi, g) in graphs.iter().enumerate() {
            for overlap in [false, true] {
                for bytes in SIZES {
                    let mut unbatched_d2h = 0;
                    for batch in [false, true] {
                        let opts = BoundaryOptions {
                            num_components: Some(6),
                            batch_transfers: batch,
                            overlap_transfers: overlap,
                            ..Default::default()
                        };
                        let cell =
                            format!("graph {gi}, batch {batch}, overlap {overlap}, {bytes} B");
                        let (single, _, n_row) = one_device(false, g, &opts, bytes, None, &plain)
                            .unwrap_or_else(|e| panic!("{cell}: {e}"));
                        let (fleet, ..) = one_device(true, g, &opts, bytes, None, &plain).unwrap();
                        assert_eq!(fleet, single, "{cell}");
                        let d2h = single.1[3];
                        let per_block = n_row == 1 && d2h == unbatched_d2h;
                        assert_eq!(per_block, batch && bytes == SIZES[2], "{cell}: {n_row}");
                        unbatched_d2h = d2h;
                    }
                }
            }
        }
        // An OOM in dist₄ restarts both the same way.
        let g = &graphs[0];
        let opts = BoundaryOptions {
            num_components: Some(6),
            ..Default::default()
        };
        let retried = |fleet| {
            let (run, retries, _) =
                one_device(fleet, g, &opts, 16 << 20, Some(40), &plain).unwrap();
            assert_eq!(retries, 1);
            run
        };
        assert_eq!(retried(true), retried(false));
        // A run killed after a commit resumes from it the same way.
        let opts = BoundaryOptions {
            batch_transfers: false,
            ..opts
        };
        let resumed = |fleet: bool| {
            let dir = crate::run_ctx::test_dir(&format!("fleet_of_one_resume_{fleet}"));
            let ckpt = Checkpoint::new(&dir, g).unwrap();
            let mut dev = GpuDevice::new(DeviceProfile::v100());
            let mut store = TileStore::new(g.num_vertices(), &StorageBackend::Memory).unwrap();
            store.arm_crash(300);
            let ctx = durable(&ckpt);
            let err = if fleet {
                run(std::slice::from_mut(&mut dev), g, &mut store, &opts, &ctx).unwrap_err()
            } else {
                crate::ooc_boundary::run(&mut dev, g, &mut store, &opts, &ctx).unwrap_err()
            };
            assert_eq!(err.kind(), crate::error::ApspErrorKind::Storage);
            let manifest = ckpt
                .load()
                .unwrap()
                .expect("a commit landed before the kill");
            assert!(matches!(
                manifest.progress,
                Progress::Boundary { next_component, .. } if next_component >= 1
            ));
            one_device(fleet, g, &opts, 16 << 20, None, &ctx).unwrap()
        };
        assert_eq!(resumed(true).0, resumed(false).0);
    }

    /// dist₄ spreads over a homogeneous fleet: on bench_multi's grid, two
    /// V100s each own panels and finish dist₄ well before one V100 does.
    #[test]
    fn dist4_spreads_over_a_homogeneous_fleet() {
        use crate::telemetry::Telemetry;
        let g = grid_2d(
            24,
            24,
            GridOptions::default(),
            WeightRange::default(),
            0xB41C,
        );
        let opts = BoundaryOptions {
            num_components: Some(8),
            ..Default::default()
        };
        let dist4 = |count: usize| {
            let mut devs = devices(count);
            let mut store = TileStore::new(g.num_vertices(), &StorageBackend::Memory).unwrap();
            let sup = Supervisor::with_telemetry(&Default::default(), 0.0, Telemetry::enabled());
            let ctx = RunCtx {
                supervisor: Some(&sup),
                ..Default::default()
            };
            let stats = run(&mut devs, &g, &mut store, &opts, &ctx).unwrap();
            let report =
                sup.telemetry()
                    .build_report("", "", 0.0, &devs[0].report(), &[], &[], 0, 0);
            let spans = report.unwrap().spans;
            let panels = spans.iter().filter(|s| s.name == "boundary.dist4");
            let mut owned = vec![0; count];
            panels.for_each(|s| owned[s.device.unwrap()] += 1);
            (stats.phase_seconds[2], owned)
        };
        let (one, _) = dist4(1);
        let (two, owned) = dist4(2);
        assert!(two < 0.6 * one, "two V100s {two} s against one {one} s");
        assert!(
            owned.iter().all(|&p| p >= 1),
            "dist4 panels per device {owned:?}"
        );
    }

    #[test]
    fn fleet_specs_parse_or_reject() {
        let fleet = parse_fleet("v100, K80 ,v100").unwrap();
        assert_eq!(fleet.len(), 3);
        assert_eq!(fleet[0], DeviceProfile::v100());
        assert_eq!(fleet[1], DeviceProfile::k80());
        assert!(parse_fleet("").is_err());
        assert!(parse_fleet("v100,,k80").is_err());
        assert!(parse_fleet("a100").is_err());
    }

    /// `stolen_panels` counts the dist₄ panels that ran on another device
    /// than their component's dist₂ block.
    #[test]
    fn stolen_panels_count_panels_off_their_dist2_device() {
        use crate::telemetry::Telemetry;
        let g = grid_2d(16, 16, GridOptions::default(), WeightRange::default(), 29);
        let mut devs = vec![
            GpuDevice::new(DeviceProfile::v100()),
            GpuDevice::new(DeviceProfile::k80()),
        ];
        let mut store = TileStore::new(g.num_vertices(), &StorageBackend::Memory).unwrap();
        let opts = BoundaryOptions {
            num_components: Some(7),
            ..Default::default()
        };
        let sup = Supervisor::with_telemetry(&Default::default(), 0.0, Telemetry::enabled());
        let ctx = RunCtx {
            supervisor: Some(&sup),
            ..Default::default()
        };
        let stats = run(&mut devs, &g, &mut store, &opts, &ctx).unwrap();
        assert_eq!(store.to_dist_matrix().unwrap(), bgl_plus_apsp(&g));
        let report = sup
            .telemetry()
            .build_report("", "", 0.0, &devs[0].report(), &[], &[], 0, 0);
        let spans = report.unwrap().spans;
        let dist4: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "boundary.dist4")
            .collect();
        assert_eq!(dist4.len(), stats.num_components);
        let off = dist4.iter().zip(&stats.placement);
        let off = off.filter(|(s, &d)| s.device != Some(d)).count();
        assert_eq!(stats.stolen_panels as usize, off);
    }
}
