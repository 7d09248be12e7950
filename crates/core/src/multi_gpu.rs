//! Multi-device boundary algorithm — the distributed heritage of
//! Algorithm 3, rebuilt as a sharded executor.
//!
//! Djidjev et al. designed the boundary algorithm for multi-node
//! clusters; the paper specializes it to one GPU. This module scales it
//! back out across a fleet of (simulated) devices, which may mix
//! profiles (a V100 next to a K80):
//!
//! 1. **dist₂** — components are placed per-device by the selector's
//!    fleet scheduler ([`crate::selector::placement`]): LPT greedy over
//!    the `sz³` cost model, normalized by each profile's throughput;
//!    each device runs blocked FW on its own diagonal blocks.
//! 2. **dist₃** — the boundary graph is assembled on the host, solved on
//!    the *fastest* device in the fleet, and broadcast to the others.
//! 3. **dist₄** — row-panels are *re-planned* at the phase boundary with
//!    each device's realized elapsed time as its initial load — the
//!    deterministic form of tile-panel work stealing. Panels whose dist₂
//!    owner fell behind migrate to devices that finished early
//!    ([`MultiGpuStats::stolen_panels`] counts them).
//!
//! Every device has an independent timeline; phases are barrier-
//! synchronized, so the reported time is `Σ_phases max_devices(phase)` —
//! the makespan a lock-step multi-GPU driver loop would see. Supervision
//! (deadline / stall / cancel) is checked at every phase barrier and at
//! every panel-flush barrier; telemetry records one span per device per
//! phase, tagged with the device index. The panel math itself is
//! device-independent, so the output is bit-identical to the
//! single-device [`crate::ooc_boundary::ooc_boundary`] run for any fleet
//! shape.

use crate::checkpoint::Progress;
use crate::error::ApspError;
use crate::ooc_boundary::{
    adjacency_block, boundary_graph, component_rows, extract_block, partition, run_boundary,
    upload_panel, working_set_fits, write_panel, BoundaryRun, BOUNDARY_KERNEL_EFFICIENCY_DIVISOR,
};
use crate::options::BoundaryOptions;
use crate::run_ctx::RunCtx;
use crate::sdc::SdcGuard;
use crate::selector::placement::FleetPlan;
use crate::supervisor::Supervisor;
use crate::tile_store::TileStore;
use apsp_gpu_sim::{DeviceProfile, GpuDevice, Pinning};
use apsp_graph::{CsrGraph, Dist, INF};
use apsp_kernels::fw_block::fw_device_exec;
use apsp_kernels::minplus::minplus_kernel_exec;
use apsp_kernels::DeviceMatrix;
use apsp_partition::PartitionLayout;

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
    /// dist₄ panels that ran on a different device than their dist₂
    /// owner — the work-stealing migrations.
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
/// `ctx.supervisor` is checked at every phase barrier and panel-flush
/// barrier and sets the retry policy. `ctx.checkpoint` arms the same
/// durability as the single-device [`crate::ooc_boundary::run`], with
/// the same manifest shape, so a run killed on one fleet resumes on
/// another (or on a single device) bit-exactly: the committed cursor
/// counts flushed components in partition order, which is
/// device-count-independent.
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
    let (stats, c) = run_boundary(devs, g, store, opts, ctx, true, multi_inner)?;
    ctx.finish(MultiGpuStats {
        num_devices,
        retries: c.retries,
        checkpoint_commits: c.checkpoint_commits,
        sdc_round_recoveries: c.sdc_round_recoveries,
        ..stats
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

fn multi_inner(
    run: &mut BoundaryRun<MultiGpuStats>,
    sup: &Supervisor,
    guard: &mut SdcGuard,
    commits: &mut u32,
) -> Result<MultiGpuStats, ApspError> {
    let (g, opts, ckpt) = (run.g, &run.opts, run.ckpt);
    let (devs, store) = (&mut *run.devs, &mut *run.store);
    let n = g.num_vertices();
    let num_devs = devs.len();
    let tel = sup.telemetry().clone();

    // ---- Step 1: partition, at least one component per device when
    // the graph allows it. Each device holds the full boundary matrix
    // during dist₄, so the working set must fit *every* device: the
    // smallest bounds feasibility.
    let fits_fleet = |layout: &PartitionLayout| devs.iter().all(|d| working_set_fits(d, layout));
    let (layout, start_component) = partition(g, opts, run.resume, num_devs, fits_fleet);
    let pg = layout.permute_graph(g);
    let k = layout.num_components();
    let nb_total = layout.total_boundary();
    if !fits_fleet(&layout) {
        let smallest = devs.iter().map(|d| d.free_memory()).min().unwrap_or(0);
        return Err(ApspError::DeviceTooSmall {
            algorithm: "multi-device boundary",
            detail: format!(
                "no feasible partition: the minimum working set (boundary graph of \
                 {nb_total} nodes plus one block's panels) exceeds the smallest \
                 device's free memory ({smallest} bytes) even at k = {k}"
            ),
        });
    }

    // ---- Fleet plan: cost-model placement, not round-robin.
    let profiles: Vec<DeviceProfile> = devs.iter().map(|d| d.profile().clone()).collect();
    let profile_refs: Vec<&DeviceProfile> = profiles.iter().collect();
    let plan = FleetPlan::new(&layout, &profile_refs)?;

    for dev in devs.iter_mut() {
        dev.set_kernel_efficiency_divisor(BOUNDARY_KERNEL_EFFICIENCY_DIVISOR);
    }
    let mut phase_start: Vec<f64> = devs.iter().map(|d| d.elapsed().seconds()).collect();
    let mut phase_seconds = [0.0f64; 3];

    // ---- Phase 1: dist₂, components placed by the cost model.
    let mut spans: Vec<_> = devs.iter().map(|d| tel.phase_start(d)).collect();
    let mut dist2: Vec<Vec<Dist>> = Vec::with_capacity(k);
    for i in 0..k {
        let dev = &mut devs[plan.dist2_owner[i]];
        let range = layout.component_range(i);
        let sz = range.len();
        let mut block = adjacency_block(&pg, range);
        if sz > 0 {
            let s = dev.default_stream();
            let mut tile = DeviceMatrix::alloc_inf(dev, sz, sz)?;
            tile.upload_rows(dev, s, 0, &block, Pinning::Pinned);
            fw_device_exec(dev, s, &mut tile, opts.exec);
            tile.download_rows(dev, s, 0..sz, &mut block, Pinning::Pinned);
        }
        dist2.push(block);
    }
    for (d, (dev, span)) in devs.iter().zip(spans.drain(..)).enumerate() {
        tel.phase_end_on_device(dev, span, "multi.dist2", Some(d));
    }
    barrier(devs, &mut phase_start, &mut phase_seconds[0]);
    sup.check_barrier(max_elapsed(devs), "multi-device dist2 phase barrier")?;

    // ---- Phase 2: boundary graph solved on the fastest device,
    // broadcast to the rest.
    let mut spans: Vec<_> = devs.iter().map(|d| tel.phase_start(d)).collect();
    let (bofs, mut bound_host) = boundary_graph(&layout, &pg, &dist2);
    if nb_total > 0 {
        // Solve on the fastest profile: every other device waits on this
        // serial phase, so it belongs on the strongest device.
        let solver = plan.dist3_solver;
        {
            let dev = &mut devs[solver];
            let s = dev.default_stream();
            let mut bound = DeviceMatrix::alloc_inf(dev, nb_total, nb_total)?;
            bound.upload_rows(dev, s, 0, &bound_host, Pinning::Pinned);
            fw_device_exec(dev, s, &mut bound, opts.exec);
            bound.download_rows(dev, s, 0..nb_total, &mut bound_host, Pinning::Pinned);
        }
        // Broadcast: every other device pays one H2D of the full matrix.
        // The replica's lifetime is phase 3; dropping it here releases
        // simulated memory while the host copy carries the data — the
        // transfer charge is what matters.
        for (d, dev) in devs.iter_mut().enumerate() {
            if d == solver {
                continue;
            }
            let s = dev.default_stream();
            let copy = upload_panel(dev, s, nb_total, nb_total, &bound_host)?;
            drop(copy);
        }
    }
    for (d, (dev, span)) in devs.iter().zip(spans.drain(..)).enumerate() {
        tel.phase_end_on_device(dev, span, "multi.dist3", Some(d));
    }
    barrier(devs, &mut phase_start, &mut phase_seconds[1]);
    sup.check_barrier(max_elapsed(devs), "multi-device dist3 phase barrier")?;

    // ---- Phase 3: dist₄ row-panels, work-stealing re-plan, streamed to
    // the host in partition order (so checkpoint cursors stay contiguous
    // and the store write order matches the single-device run).
    let elapsed: Vec<f64> = devs.iter().map(|d| d.elapsed().seconds()).collect();
    let dist4_owner = plan.dist4_owners(&profile_refs, &elapsed)?;
    let stolen_panels = dist4_owner
        .iter()
        .zip(plan.dist2_owner.iter())
        .filter(|(a, b)| a != b)
        .count() as u32;
    let mut spans: Vec<_> = devs.iter().map(|d| tel.phase_start(d)).collect();
    let mut scatter_row = vec![0 as Dist; n];
    // Store rows whose dist₄ panels are final, restored or flushed: the
    // rows the guard checks at each flush barrier.
    let mut guard_rows: Vec<usize> = (0..start_component)
        .flat_map(|c| component_rows(&layout, c))
        .collect();
    for i in start_component..k {
        store.set_sdc_round(i);
        let owner = dist4_owner[i];
        let dev = &mut devs[owner];
        let s = dev.default_stream();
        let irange = layout.component_range(i);
        let sz_i = irange.len();
        let nb_i = layout.boundary_count(i);
        let c2b_host = extract_block(&dist2[i], sz_i, 0..sz_i, 0..nb_i);
        let c2b = upload_panel(dev, s, sz_i, nb_i, &c2b_host)?;
        let mut panel = vec![INF; sz_i * n];
        for j in 0..k {
            let jrange = layout.component_range(j);
            let (sz_j, nb_j) = (jrange.len(), layout.boundary_count(j));
            let bound_ij = extract_block(
                &bound_host,
                nb_total,
                bofs[i]..bofs[i] + nb_i,
                bofs[j]..bofs[j] + nb_j,
            );
            let bound_ij = upload_panel(dev, s, nb_i, nb_j, &bound_ij)?;
            let b2c = upload_panel(dev, s, nb_j, sz_j, &dist2[j][..nb_j * sz_j])?;
            let mut tmp1 = DeviceMatrix::alloc_inf(dev, sz_i, nb_j)?;
            minplus_kernel_exec(dev, s, &mut tmp1, &c2b, &bound_ij, opts.exec);
            let mut block = DeviceMatrix::alloc_inf(dev, sz_i, sz_j)?;
            minplus_kernel_exec(dev, s, &mut block, &tmp1, &b2c, opts.exec);
            for r in 0..sz_i {
                for c in 0..sz_j {
                    let mut v = block.get(r, c);
                    if i == j {
                        v = v.min(dist2[i][r * sz_j + c]);
                    }
                    panel[r * n + jrange.start + c] = v;
                }
            }
        }
        // One pinned D2H per panel (panel == flush on the multi path;
        // the parallelism win comes from sharding, not staging).
        let mut staging = DeviceMatrix::alloc_inf(dev, sz_i, n)?;
        staging.as_mut_slice().copy_from_slice(&panel);
        let mut host_panel = vec![0 as Dist; sz_i * n];
        staging.download_rows(dev, s, 0..sz_i, &mut host_panel, Pinning::Pinned);
        write_panel(store, &layout, i, &host_panel, &mut scatter_row)?;
        guard_rows.extend(component_rows(&layout, i));
        // Flushed panel = unit of progress: supervision check, then the
        // guard, then the checkpoint cursor advances (never past the
        // final flush — completion clears the checkpoint instead). The
        // guard runs BEFORE the commit, so a committed snapshot is never
        // taken across undetected corruption.
        sup.check_barrier(
            max_elapsed(devs),
            &format!("multi-device component {i} flush barrier"),
        )?;
        guard.check_completed_rows(store, i, &guard_rows)?;
        if let Some(ck) = ckpt {
            if i + 1 < k {
                ck.commit(
                    store,
                    &Progress::Boundary {
                        components: k,
                        partition_seed: opts.partition_seed,
                        next_component: i + 1,
                    },
                )?;
                *commits += 1;
            }
        }
    }
    for (d, (dev, span)) in devs.iter().zip(spans.drain(..)).enumerate() {
        tel.phase_end_on_device(dev, span, "multi.dist4", Some(d));
    }
    barrier(devs, &mut phase_start, &mut phase_seconds[2]);

    Ok(MultiGpuStats {
        num_devices: num_devs,
        num_components: k,
        total_boundary: nb_total,
        sim_seconds: phase_seconds.iter().sum(),
        phase_seconds,
        placement: plan.dist2_owner,
        stolen_panels,
        ..Default::default()
    })
}

/// Barrier: record each device's phase duration, advance `phase_start`,
/// and accumulate the slowest device into `out`.
fn barrier(devs: &mut [GpuDevice], phase_start: &mut [f64], out: &mut f64) {
    let mut slowest = 0.0f64;
    for (dev, start) in devs.iter_mut().zip(phase_start.iter_mut()) {
        let now = dev.synchronize().seconds();
        slowest = slowest.max(now - *start);
        *start = now;
    }
    *out += slowest;
}

/// The fleet's makespan clock: the furthest-ahead device timeline.
fn max_elapsed(devs: &[GpuDevice]) -> f64 {
    devs.iter()
        .map(|d| d.elapsed().seconds())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Checkpoint;
    use crate::run_ctx::durable;
    use crate::supervisor::{CancelToken, SupervisionOptions};
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

    #[test]
    fn work_stealing_counts_migrated_panels() {
        // A heterogeneous fleet guarantees dist₂ finish-time skew, so the
        // dist₄ re-plan has something to rebalance; the count is just
        // recorded — zero is legal on perfectly balanced fleets.
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
        let stats = ooc_boundary_multi(&mut devs, &g, &mut store, &opts).unwrap();
        assert!(stats.stolen_panels as usize <= stats.num_components);
        assert_eq!(store.to_dist_matrix().unwrap(), bgl_plus_apsp(&g));
    }
}
