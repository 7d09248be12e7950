//! Algorithm 1: out-of-core blocked Floyd-Warshall.
//!
//! The `n × n` matrix lives in the host [`TileStore`]; the device holds at
//! most a handful of `b × b` tiles. Each of the `n_d` rounds runs the
//! three blocked-FW stages, streaming every tile through the device and
//! back — `O(n_d · n²)` total data movement against `O(n³)` compute,
//! which is why the paper reserves this implementation for dense inputs.

use crate::checkpoint::{Checkpoint, Progress};
use crate::error::ApspError;
use crate::options::FwOptions;
use crate::run_ctx::{check_store, climb, RunCtx, Rungs};
use crate::sdc::SdcGuard;
use crate::supervisor::Supervisor;
use crate::tile_store::{TileStore, SDC_PANEL_ROWS};
use apsp_gpu_sim::{GpuDevice, OutOfDeviceMemory, Pinning, StreamId};
use apsp_graph::{CsrGraph, Dist, VertexId, INF};
use apsp_kernels::fw_block::fw_device_exec;
use apsp_kernels::minplus::{
    minplus_kernel_exec, minplus_left_inplace_exec, minplus_right_inplace_exec,
};
use apsp_kernels::DeviceMatrix;

/// The name retry events and `DeviceTooSmall` carry.
const NAME: &str = "out-of-core Floyd-Warshall";

/// Outcome statistics of one out-of-core Floyd-Warshall run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FwRunStats {
    /// Tile side used (by the final, successful attempt).
    pub block: usize,
    /// Number of tiles along each dimension.
    pub n_d: usize,
    /// Simulated seconds for the whole run.
    pub sim_seconds: f64,
    /// Restarts forced by mid-run device allocation failures (0 on a
    /// clean run). Each restart resumes from the partially relaxed
    /// store, possibly with a smaller block.
    pub retries: u32,
    /// Checkpoint commits performed (0 without checkpointing).
    pub checkpoint_commits: u32,
    /// Silent-corruption detections absorbed by the panel-scoped
    /// recovery rung (damaged panel reset to adjacency, rounds
    /// replayed).
    pub sdc_panel_recoveries: u32,
    /// Silent-corruption detections absorbed by the round-scoped rung
    /// (checkpoint snapshot restored, or the store reseeded from the
    /// graph).
    pub sdc_round_recoveries: u32,
}

/// Seed `store` with the adjacency of `g` (zero diagonal, weights, `INF`).
pub fn init_store_from_graph(g: &CsrGraph, store: &mut TileStore) -> Result<(), ApspError> {
    check_store(store, g.num_vertices())?;
    seed_rows(g, store, 0..g.num_vertices())
}

/// Write the adjacency initialization of `rows`, one store row each.
fn seed_rows(
    g: &CsrGraph,
    store: &mut TileStore,
    rows: std::ops::Range<usize>,
) -> Result<(), ApspError> {
    let mut row = vec![INF; g.num_vertices()];
    for v in rows {
        row.fill(INF);
        row[v] = 0;
        for (u, w) in g.edges_from(v as VertexId) {
            if u as usize != v && w < row[u as usize] {
                row[u as usize] = w;
            }
        }
        store.write_row(v, &row)?;
    }
    Ok(())
}

/// Largest tile side such that `buffers` tiles of `b × b` distances fit in
/// the device's free memory.
pub fn max_block_side(dev: &GpuDevice, buffers: usize) -> usize {
    let w = std::mem::size_of::<Dist>() as u64;
    let per_buffer = dev.free_memory() / buffers as u64 / w;
    (per_buffer as f64).sqrt().floor() as usize
}

/// [`run`] unsupervised and without a checkpoint.
pub fn ooc_floyd_warshall(
    dev: &mut GpuDevice,
    g: &CsrGraph,
    store: &mut TileStore,
    opts: &FwOptions,
) -> Result<FwRunStats, ApspError> {
    run(dev, g, store, opts, &RunCtx::default())
}

/// Run out-of-core blocked Floyd-Warshall for `g` into `store`, which
/// the run seeds from `g` itself — the caller must *not* pre-initialize
/// it.
///
/// With automatic blocking (`opts.block_size == None`) a mid-run device
/// allocation failure degrades gracefully instead of aborting: the run
/// restarts on the partially relaxed store — once at the same block (a
/// transient fault clears), then at successively halved blocks (the
/// device shrank). Restarting is exact, not approximate: every entry in
/// the store is the weight of some real path, so it stays an upper bound
/// on the true distance, and re-running all rounds of blocked FW from
/// any such state converges to the same metric closure (min-plus
/// relaxations are monotone and order-insensitive). A caller-forced
/// block size propagates the failure instead.
///
/// The graph arms the silent-corruption recovery ladder: a guard
/// detection localized to one panel resets just that panel's rows to
/// their adjacency initialization and replays (exact, by the same
/// monotonicity argument), and an unlocalized one restores the last
/// checkpoint snapshot or reseeds the whole store from `g`.
///
/// `ctx.supervisor` is checked at every pivot-round barrier and sets
/// the retry policy. With `ctx.checkpoint`, progress commits after every
/// pivot round, a committed checkpoint (validated against `g` and the
/// store checksums) is resumed instead of starting over, and the
/// checkpoint is cleared on success. Rounds are only resumable at the
/// blocking they committed under: a forced `opts.block_size` that
/// disagrees with the manifest is an [`ApspError::InvalidInput`]; in
/// auto mode an infeasible manifest block re-fits and replays all
/// rounds on the restored snapshot.
pub fn run(
    dev: &mut GpuDevice,
    g: &CsrGraph,
    store: &mut TileStore,
    opts: &FwOptions,
    ctx: &RunCtx,
) -> Result<FwRunStats, ApspError> {
    let n = g.num_vertices();
    check_store(store, n)?;
    let resume = Checkpoint::resume(
        ctx.checkpoint,
        store,
        "Floyd-Warshall",
        |p| match p {
            Progress::FloydWarshall { block, next_round } => Some((block, next_round)),
            _ => None,
        },
        |&(block, _)| match opts.block_size.map(|b| b.min(n).max(1)) {
            Some(forced) if forced != block => Err(ApspError::InvalidInput(format!(
                "checkpoint committed rounds at block {block} but block {forced} was \
                 forced — resume with the same block, or delete the checkpoint"
            ))),
            _ => Ok(()),
        },
    )?;
    if resume.is_none() {
        init_store_from_graph(g, store)?;
    }
    // Resident working set: pivot tile + A(i,k) + A(k,j) + one or two
    // output tiles (two when overlap is on).
    let buffers = if opts.overlap_transfers { 5 } else { 4 };
    let (block, start_round) = resume.unwrap_or_else(|| {
        let fit = || max_block_side(dev, buffers);
        (opts.block_size.unwrap_or_else(fit).min(n).max(1), 0)
    });
    let mut fw = Rounds {
        dev,
        g,
        store,
        opts,
        ckpt: ctx.checkpoint,
        buffers,
        block,
        start_round,
    };
    let (stats, c) = climb(&mut fw, n, opts.sdc_guard, &ctx.supervisor())?;
    ctx.finish(FwRunStats {
        retries: c.retries,
        checkpoint_commits: c.checkpoint_commits,
        sdc_panel_recoveries: c.sdc_panel_recoveries,
        sdc_round_recoveries: c.sdc_round_recoveries,
        ..stats
    })
}

/// Blocked FW under the recovery ladder: the pivot rounds at a block,
/// from a round, and the rungs that reset them. Resume sets the
/// starting `(block, start_round)`; restarts (OOM or re-fit) replay
/// from round 0.
struct Rounds<'a> {
    dev: &'a mut GpuDevice,
    g: &'a CsrGraph,
    store: &'a mut TileStore,
    opts: &'a FwOptions,
    ckpt: Option<&'a Checkpoint>,
    /// Tiles resident at once.
    buffers: usize,
    block: usize,
    start_round: usize,
}

impl Rungs for Rounds<'_> {
    type Stats = FwRunStats;

    fn algorithm(&self) -> &'static str {
        NAME
    }

    fn store(&mut self) -> Option<&mut TileStore> {
        Some(self.store)
    }

    fn span_device(&self) -> (&GpuDevice, Option<usize>) {
        (self.dev, None)
    }

    /// The three-stage blocked-FW rounds `start_round..n_d` at the
    /// block, committing to the checkpoint (when present) at each round
    /// barrier. The store is laid out in tiles of the block first, so
    /// every tile the rounds stream is one storage call on a spill.
    fn attempt(
        &mut self,
        sup: &Supervisor,
        guard: &mut SdcGuard,
        commits: &mut u32,
    ) -> Result<FwRunStats, ApspError> {
        let (dev, store, opts, buffers) =
            (&mut *self.dev, &mut *self.store, self.opts, self.buffers);
        while self.block == 0
            || (self.block as u64) * (self.block as u64) * 4 * buffers as u64 > dev.free_memory()
        {
            // Auto mode re-fits to whatever memory is left (it may have
            // shrunk since the last attempt was sized).
            let refit = max_block_side(dev, buffers).min(self.block);
            if opts.block_size.is_some() || refit < 1 || refit >= self.block {
                return Err(ApspError::DeviceTooSmall {
                    algorithm: NAME,
                    detail: format!(
                        "cannot hold {buffers} tiles of any size in {} bytes",
                        dev.profile().memory_bytes
                    ),
                });
            }
            self.block = refit;
            // Committed rounds describe a different blocking: replay
            // them all on the (restored) store.
            self.start_round = 0;
        }
        let (block, n) = (self.block, store.n());
        let n_d = n.div_ceil(block);
        let extent = |t: usize| -> std::ops::Range<usize> { t * block..((t + 1) * block).min(n) };
        store.set_tile_side(block)?;
        let start = dev.elapsed().seconds();
        let s0 = dev.default_stream();
        let s1 = if opts.overlap_transfers {
            dev.create_stream()
        } else {
            s0
        };

        let tel = sup.telemetry().clone();
        for kb in self.start_round..n_d {
            store.set_sdc_round(kb);
            let kr = extent(kb);
            // ---- Stage 1: diagonal tile.
            let ph = tel.phase_start(dev);
            let mut diag = upload_tile(dev, s0, store, kr.clone(), kr.clone())?;
            fw_device_exec(dev, s0, &mut diag, opts.exec);
            download_tile(dev, s0, store, &diag, kr.clone(), kr.clone())?;
            tel.phase_end(dev, ph, "fw.diagonal");

            // ---- Stage 2: pivot row and pivot column.
            let ph = tel.phase_start(dev);
            for ib in 0..n_d {
                if ib == kb {
                    continue;
                }
                let ir = extent(ib);
                // A(k, i) = min(A(k, i), A(k, k) ⊗ A(k, i)).
                let mut row_tile = upload_tile(dev, s0, store, kr.clone(), ir.clone())?;
                minplus_left_inplace_exec(dev, s0, &mut row_tile, &diag, opts.exec);
                download_tile(dev, s0, store, &row_tile, kr.clone(), ir.clone())?;
                // A(i, k) = min(A(i, k), A(i, k) ⊗ A(k, k)).
                let mut col_tile = upload_tile(dev, s0, store, ir.clone(), kr.clone())?;
                minplus_right_inplace_exec(dev, s0, &mut col_tile, &diag, opts.exec);
                download_tile(dev, s0, store, &col_tile, ir.clone(), kr.clone())?;
            }
            drop(diag);
            tel.phase_end(dev, ph, "fw.pivot");

            // ---- Stage 3: remainder tiles, double-buffered across streams.
            // The overlap stream must not start before stage 2 finished.
            let ph = tel.phase_start(dev);
            if opts.overlap_transfers {
                let stage2_done = dev.record_event(s0);
                dev.wait_event(s1, stage2_done);
            }
            for ib in 0..n_d {
                if ib == kb {
                    continue;
                }
                let ir = extent(ib);
                let a_tile = upload_tile(dev, s0, store, ir.clone(), kr.clone())?;
                // Tiles on the overlap stream read a_tile: order them after
                // its upload.
                if opts.overlap_transfers {
                    let a_ready = dev.record_event(s0);
                    dev.wait_event(s1, a_ready);
                }
                for jb in 0..n_d {
                    if jb == kb {
                        continue;
                    }
                    let jr = extent(jb);
                    // Alternate streams so the previous tile's D2H overlaps
                    // this tile's upload + compute.
                    let stream = if opts.overlap_transfers && jb % 2 == 1 {
                        s1
                    } else {
                        s0
                    };
                    let b_tile = upload_tile(dev, stream, store, kr.clone(), jr.clone())?;
                    let mut c_tile = upload_tile(dev, stream, store, ir.clone(), jr.clone())?;
                    minplus_kernel_exec(dev, stream, &mut c_tile, &a_tile, &b_tile, opts.exec);
                    download_tile(dev, stream, store, &c_tile, ir.clone(), jr.clone())?;
                }
            }
            tel.phase_end(dev, ph, "fw.remainder");
            // Round barrier: the next round's pivot depends on everything.
            let now = dev.synchronize().seconds();
            // Supervision check at the natural barrier: a cancellation,
            // blown deadline, or missed progress budget surfaces here, with
            // everything committed so far still resumable.
            sup.check_barrier(now, &format!("Floyd-Warshall round {kb} barrier"))?;
            // Invariant guard at the same barrier, *before* the commit — a
            // corrupt store must never become a checkpoint snapshot. After
            // round kb the triangle inequality holds for every pivot `k`
            // in the completed blocks `0..(kb+1)·block`.
            guard.check_round(store, kb, ((kb + 1) * block).min(n))?;
            // Natural commit point: every tile reflects rounds 0..=kb. The
            // final round is not committed — completion clears the
            // checkpoint, and a crash after the last barrier replays one
            // round (exact, by monotonicity).
            if let Some(ck) = self.ckpt {
                if kb + 1 < n_d {
                    ck.commit(
                        store,
                        &Progress::FloydWarshall {
                            block,
                            next_round: kb + 1,
                        },
                    )?;
                    *commits += 1;
                }
            }
        }
        let sim_seconds = dev.synchronize().seconds() - start;
        Ok(FwRunStats {
            block,
            n_d,
            sim_seconds,
            ..Default::default()
        })
    }

    // Rung 1 — detection localized to one panel (the corrupt rows were
    // provably never read): reset just those rows to adjacency and
    // replay all rounds. Exact, because the reset state is still
    // entrywise an upper bound on the true distances, and min-plus
    // relaxation converges to the same closure from any such state.
    fn recover_panel(&mut self, panel: usize) -> Result<(), ApspError> {
        let n = self.store.n();
        let rows = (panel * SDC_PANEL_ROWS).min(n)..((panel + 1) * SDC_PANEL_ROWS).min(n);
        seed_rows(self.g, self.store, rows)?;
        self.start_round = 0;
        Ok(())
    }

    // Rung 2 — unlocalized detection (possible propagation): restore the
    // last checkpoint snapshot (committed only after its own barrier's
    // guard passed, so it predates the corruption), or reseed the whole
    // store from the graph.
    fn recover_round(&mut self) -> Result<(), ApspError> {
        if let Some(ck) = self.ckpt {
            if let Some(m) = ck.load()? {
                if let Progress::FloydWarshall { block, next_round } = m.progress {
                    ck.restore_into(&m, self.store)?;
                    (self.block, self.start_round) = (block, next_round);
                    return Ok(());
                }
            }
        }
        init_store_from_graph(self.g, self.store)?;
        self.start_round = 0;
        Ok(())
    }

    /// A caller-forced block size is a contract: never shrink it — the
    /// allocation failure propagates.
    fn is_contract(&self, err: &ApspError) -> bool {
        self.opts.block_size.is_some() && matches!(err, ApspError::OutOfDeviceMemory(_))
    }

    /// Restarts replay all rounds — exact, by min-plus monotonicity.
    fn restart(&mut self) {
        self.start_round = 0;
    }

    fn shrink(&mut self, oom: OutOfDeviceMemory) -> Result<(), ApspError> {
        if self.block <= 1 {
            return Err(ApspError::DeviceTooSmall {
                algorithm: NAME,
                detail: format!("allocation kept failing at the minimum 1×1 block: {oom}"),
            });
        }
        self.block /= 2;
        Ok(())
    }
}

fn upload_tile(
    dev: &mut GpuDevice,
    stream: StreamId,
    store: &TileStore,
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) -> Result<DeviceMatrix, ApspError> {
    let host = store.read_block(rows.clone(), cols.clone())?;
    let mut tile = DeviceMatrix::alloc_inf(dev, rows.len(), cols.len())?;
    tile.upload_rows(dev, stream, 0, &host, Pinning::Pinned);
    Ok(tile)
}

fn download_tile(
    dev: &mut GpuDevice,
    stream: StreamId,
    store: &mut TileStore,
    tile: &DeviceMatrix,
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) -> Result<(), ApspError> {
    let mut host = vec![0 as Dist; rows.len() * cols.len()];
    tile.download_rows(dev, stream, 0..rows.len(), &mut host, Pinning::Pinned);
    store.write_block(rows, cols, &host)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_ctx::{durable, test_dir};
    use crate::tile_store::StorageBackend;
    use apsp_cpu::bgl_plus_apsp;
    use apsp_gpu_sim::DeviceProfile;
    use apsp_graph::generators::{gnp, WeightRange};

    fn small_device() -> GpuDevice {
        // Forces real out-of-core behaviour on ~100-vertex graphs: 64 KiB
        // fits five ~57² u32 tiles, so n ≈ 100 needs n_d ≥ 2.
        GpuDevice::new(DeviceProfile::v100().with_memory_bytes(64 << 10))
    }

    fn run_fw(g: &CsrGraph, dev: &mut GpuDevice, opts: &FwOptions) -> apsp_cpu::DistMatrix {
        let mut store = TileStore::new(g.num_vertices(), &StorageBackend::Memory).unwrap();
        ooc_floyd_warshall(dev, g, &mut store, opts).unwrap();
        store.to_dist_matrix().unwrap()
    }

    #[test]
    fn matches_reference_with_forced_blocking() {
        let g = gnp(97, 0.07, WeightRange::default(), 41);
        let mut dev = small_device();
        let result = run_fw(&g, &mut dev, &FwOptions::default());
        assert_eq!(result, bgl_plus_apsp(&g));
    }

    #[test]
    fn explicit_block_sizes_agree() {
        let g = gnp(64, 0.1, WeightRange::default(), 7);
        let reference = bgl_plus_apsp(&g);
        for block in [16, 23, 64] {
            let mut dev = GpuDevice::new(DeviceProfile::v100());
            let opts = FwOptions {
                block_size: Some(block),
                ..Default::default()
            };
            assert_eq!(run_fw(&g, &mut dev, &opts), reference, "block {block}");
        }
    }

    #[test]
    fn overlap_off_same_result_more_sim_time() {
        let g = gnp(80, 0.08, WeightRange::default(), 3);
        let mut d_on = small_device();
        let mut d_off = small_device();
        let on = run_fw(
            &g,
            &mut d_on,
            &FwOptions {
                overlap_transfers: true,
                block_size: Some(40),
                ..FwOptions::default()
            },
        );
        let off = run_fw(
            &g,
            &mut d_off,
            &FwOptions {
                overlap_transfers: false,
                block_size: Some(40),
                ..FwOptions::default()
            },
        );
        assert_eq!(on, off);
        assert!(
            d_on.elapsed().seconds() <= d_off.elapsed().seconds(),
            "overlap should never be slower"
        );
    }

    #[test]
    fn stats_report_blocking() {
        let g = gnp(100, 0.05, WeightRange::default(), 9);
        let mut dev = small_device();
        let mut store = TileStore::new(100, &StorageBackend::Memory).unwrap();
        let stats = ooc_floyd_warshall(&mut dev, &g, &mut store, &FwOptions::default()).unwrap();
        assert!(
            stats.n_d >= 2,
            "device sized to force blocking, n_d = {}",
            stats.n_d
        );
        assert_eq!(stats.n_d, 100usize.div_ceil(stats.block));
        assert!(stats.sim_seconds > 0.0);
    }

    #[test]
    fn device_too_small_errors_cleanly() {
        let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(1 << 16));
        // Consume almost all memory so not even 1×1 tiles fit.
        let _hog: apsp_gpu_sim::DeviceBuffer<u8> = dev.alloc((1 << 16) - 8).unwrap();
        let mut store = TileStore::new(64, &StorageBackend::Memory).unwrap();
        let g = gnp(64, 0.1, WeightRange::default(), 2);
        let err = ooc_floyd_warshall(&mut dev, &g, &mut store, &FwOptions::default());
        assert!(err.is_err());
    }

    #[test]
    fn disk_backed_store_works() {
        let g = gnp(60, 0.1, WeightRange::default(), 5);
        let dir = std::env::temp_dir().join("apsp_ooc_fw_test");
        let mut store = TileStore::new(60, &StorageBackend::Disk(dir)).unwrap();
        let mut dev = small_device();
        ooc_floyd_warshall(&mut dev, &g, &mut store, &FwOptions::default()).unwrap();
        assert_eq!(store.to_dist_matrix().unwrap(), bgl_plus_apsp(&g));
    }

    #[test]
    fn transient_alloc_fault_recovers_exactly() {
        let g = gnp(90, 0.07, WeightRange::default(), 21);
        let mut dev = small_device();
        let mut store = TileStore::new(90, &StorageBackend::Memory).unwrap();
        // Fail the 3rd device allocation (mid stage 2 of round 0): the run
        // restarts on the partially relaxed store and still converges.
        dev.inject_alloc_failure(3);
        let stats = ooc_floyd_warshall(&mut dev, &g, &mut store, &FwOptions::default()).unwrap();
        assert_eq!(stats.retries, 1);
        assert_eq!(store.to_dist_matrix().unwrap(), bgl_plus_apsp(&g));
    }

    #[test]
    fn repeated_alloc_faults_halve_block_and_stay_exact() {
        let g = gnp(90, 0.07, WeightRange::default(), 22);
        let mut dev = small_device();
        let buffers = 5; // FwOptions::default() has overlap on
        let initial_block = max_block_side(&dev, buffers).min(90);
        let mut store = TileStore::new(90, &StorageBackend::Memory).unwrap();
        // Two overlapping faults: the first kills attempt 1 at its 3rd
        // allocation, the second (countdown 10, so 7 left after attempt 1)
        // kills the same-block retry too, forcing a halved block.
        dev.inject_alloc_failure(3);
        dev.inject_alloc_failure(10);
        let stats = ooc_floyd_warshall(&mut dev, &g, &mut store, &FwOptions::default()).unwrap();
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.block, initial_block / 2);
        assert_eq!(store.to_dist_matrix().unwrap(), bgl_plus_apsp(&g));
    }

    #[test]
    fn forced_block_size_propagates_alloc_fault() {
        let g = gnp(64, 0.1, WeightRange::default(), 23);
        let mut dev = small_device();
        let mut store = TileStore::new(64, &StorageBackend::Memory).unwrap();
        dev.inject_alloc_failure(2);
        let opts = FwOptions {
            block_size: Some(32),
            ..Default::default()
        };
        let err = ooc_floyd_warshall(&mut dev, &g, &mut store, &opts).unwrap_err();
        assert_eq!(err.kind(), crate::ApspErrorKind::OutOfDeviceMemory);
    }

    #[test]
    fn empty_graph() {
        let g = apsp_graph::GraphBuilder::new(0).build();
        let mut dev = small_device();
        let mut store = TileStore::new(0, &StorageBackend::Memory).unwrap();
        let stats = ooc_floyd_warshall(&mut dev, &g, &mut store, &FwOptions::default()).unwrap();
        assert_eq!(stats.n_d, 0);
    }

    /// A durable, guarded FW run on a spill at n = 97 (block 57, two
    /// rounds, one commit): storage calls from creating the store to the
    /// final export. Laid out in tiles, each tile is one call; 99 of the
    /// 163 are `TileStore::new`'s two panel writes and the seeding's 97
    /// row writes. The row-major store before the tile layout made 1605,
    /// one per row of every tile: 97 to create, 1386 for the run, 122 to
    /// export.
    #[test]
    fn disk_run_makes_the_pinned_number_of_storage_calls() {
        let g = gnp(97, 0.07, WeightRange::default(), 41);
        let dir = std::env::temp_dir().join("apsp_ooc_fw_calls");
        let mut store = TileStore::new(97, &StorageBackend::Disk(dir)).unwrap();
        let ckpt = Checkpoint::new(test_dir("fw_calls"), &g).unwrap();
        let opts = FwOptions {
            sdc_guard: SdcGuardMode::Checksum,
            ..Default::default()
        };
        let stats = run(&mut small_device(), &g, &mut store, &opts, &durable(&ckpt)).unwrap();
        assert_eq!((stats.block, stats.checkpoint_commits), (57, 1));
        assert_eq!(store.to_dist_matrix().unwrap(), bgl_plus_apsp(&g));
        assert_eq!(store.storage_calls(), 163);
    }

    use crate::options::SdcGuardMode;
    use crate::supervisor::{RetryPolicy, SupervisionOptions};

    #[test]
    fn guarded_clean_run_is_bit_identical_to_unguarded() {
        let g = gnp(90, 0.07, WeightRange::default(), 31);
        let reference = run_fw(&g, &mut small_device(), &FwOptions::default());
        for mode in [SdcGuardMode::Checksum, SdcGuardMode::Full] {
            let mut dev = small_device();
            let mut store = TileStore::new(90, &StorageBackend::Memory).unwrap();
            let opts = FwOptions {
                sdc_guard: mode,
                ..Default::default()
            };
            let stats = ooc_floyd_warshall(&mut dev, &g, &mut store, &opts).unwrap();
            assert_eq!(stats.sdc_panel_recoveries + stats.sdc_round_recoveries, 0);
            assert_eq!(store.to_dist_matrix().unwrap(), reference, "{mode}");
        }
    }

    #[test]
    fn injected_store_flips_are_recovered_bit_identical() {
        let g = gnp(90, 0.07, WeightRange::default(), 33);
        let reference = bgl_plus_apsp(&g);
        // Flip sites spread across the run: early init, stage 2/3 tile
        // writes, and late rounds. Each must be detected and recovered
        // to the exact clean result.
        for (after_ops, bit) in [(50u64, 7u64), (150, 13), (260, 31), (420, 3)] {
            let mut dev = small_device();
            let mut store = TileStore::new(90, &StorageBackend::Memory).unwrap();
            store.set_sdc_guard(SdcGuardMode::Checksum).unwrap();
            store.arm_bit_flip(after_ops, bit);
            let opts = FwOptions {
                sdc_guard: SdcGuardMode::Checksum,
                ..Default::default()
            };
            let stats = ooc_floyd_warshall(&mut dev, &g, &mut store, &opts)
                .unwrap_or_else(|e| panic!("flip at op {after_ops} not recovered: {e}"));
            assert!(
                stats.sdc_panel_recoveries + stats.sdc_round_recoveries >= 1,
                "flip at op {after_ops} fired before the run ended but no recovery ran"
            );
            assert_eq!(
                store.to_dist_matrix().unwrap(),
                reference,
                "flip at op {after_ops} recovered to a different matrix"
            );
        }
    }

    #[test]
    fn exhausted_recovery_budget_surfaces_typed() {
        let g = gnp(64, 0.1, WeightRange::default(), 34);
        let mut dev = small_device();
        let mut store = TileStore::new(64, &StorageBackend::Memory).unwrap();
        store.set_sdc_guard(SdcGuardMode::Checksum).unwrap();
        store.arm_bit_flip(200, 9);
        let sup = Supervisor::new(
            &SupervisionOptions {
                retry: RetryPolicy {
                    sdc_panel_retries: 0,
                    sdc_round_retries: 0,
                    ..Default::default()
                },
                ..Default::default()
            },
            0.0,
        );
        let opts = FwOptions {
            sdc_guard: SdcGuardMode::Checksum,
            ..Default::default()
        };
        let ctx = RunCtx {
            supervisor: Some(&sup),
            ..Default::default()
        };
        let err = run(&mut dev, &g, &mut store, &opts, &ctx).unwrap_err();
        assert_eq!(err.kind(), crate::ApspErrorKind::SilentCorruption, "{err}");
    }

    #[test]
    fn checkpointed_flip_recovers_via_snapshot_restore() {
        let g = gnp(97, 0.07, WeightRange::default(), 36);
        let reference = bgl_plus_apsp(&g);
        let mut dev = small_device();
        let mut store = TileStore::new(97, &StorageBackend::Memory).unwrap();
        store.set_sdc_guard(SdcGuardMode::Checksum).unwrap();
        // Fire after round 0's commit (~op 291 of 485), on a row that
        // gets re-read, so the detection is unlocalized and the round
        // rung restores the snapshot.
        store.arm_bit_flip(380, 17);
        let ckpt = Checkpoint::new(test_dir("fw_sdc_restore"), &g).unwrap();
        let opts = FwOptions {
            sdc_guard: SdcGuardMode::Checksum,
            ..Default::default()
        };
        run(&mut dev, &g, &mut store, &opts, &durable(&ckpt)).unwrap();
        assert_eq!(store.to_dist_matrix().unwrap(), reference);
    }

    #[test]
    fn checkpointed_clean_run_commits_per_round_and_clears() {
        let g = gnp(97, 0.07, WeightRange::default(), 41);
        let mut dev = small_device();
        let mut store = TileStore::new(97, &StorageBackend::Memory).unwrap();
        let ckpt = Checkpoint::new(test_dir("fw_clean"), &g).unwrap();
        let stats = run(
            &mut dev,
            &g,
            &mut store,
            &Default::default(),
            &durable(&ckpt),
        )
        .unwrap();
        assert_eq!(stats.checkpoint_commits as usize, stats.n_d - 1);
        assert!(ckpt.load().unwrap().is_none(), "cleared on completion");
        assert_eq!(store.to_dist_matrix().unwrap(), bgl_plus_apsp(&g));
    }

    #[test]
    fn interrupted_run_resumes_to_the_exact_matrix() {
        let g = gnp(97, 0.07, WeightRange::default(), 42);
        let dir = test_dir("fw_resume");
        // Interrupted attempt: the store dies mid-run.
        let mut dev = small_device();
        let mut store = TileStore::new(97, &StorageBackend::Memory).unwrap();
        store.arm_crash(400);
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        let err = run(
            &mut dev,
            &g,
            &mut store,
            &Default::default(),
            &durable(&ckpt),
        )
        .unwrap_err();
        assert_eq!(err.kind(), crate::ApspErrorKind::Storage);
        drop(store);
        // Resumed attempt on fresh everything.
        let mut dev = small_device();
        let mut store = TileStore::new(97, &StorageBackend::Memory).unwrap();
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        run(
            &mut dev,
            &g,
            &mut store,
            &Default::default(),
            &durable(&ckpt),
        )
        .unwrap();
        assert_eq!(store.to_dist_matrix().unwrap(), bgl_plus_apsp(&g));
    }

    #[test]
    fn resume_with_conflicting_forced_block_is_rejected() {
        let g = gnp(64, 0.1, WeightRange::default(), 43);
        let dir = test_dir("fw_block_conflict");
        let opts16 = FwOptions {
            block_size: Some(16),
            ..Default::default()
        };
        let mut dev = GpuDevice::new(DeviceProfile::v100());
        let mut store = TileStore::new(64, &StorageBackend::Memory).unwrap();
        // Past round 0 (init 64 + ~704 tile ops + 64 commit ops) so the
        // first round's commit has landed, but well before the run ends.
        store.arm_crash(1000);
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        run(&mut dev, &g, &mut store, &opts16, &durable(&ckpt)).unwrap_err();
        drop(store);
        let probe = Checkpoint::new(&dir, &g).unwrap();
        assert!(
            probe.load().unwrap().is_some(),
            "round 0 must have committed"
        );
        let mut dev = GpuDevice::new(DeviceProfile::v100());
        let mut store = TileStore::new(64, &StorageBackend::Memory).unwrap();
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        let opts32 = FwOptions {
            block_size: Some(32),
            ..Default::default()
        };
        let err = run(&mut dev, &g, &mut store, &opts32, &durable(&ckpt)).unwrap_err();
        assert_eq!(err.kind(), crate::ApspErrorKind::InvalidInput, "{err}");
        // Resuming with the committed block still works.
        let err_free = run(&mut dev, &g, &mut store, &opts16, &durable(&ckpt));
        assert!(err_free.is_ok(), "{err_free:?}");
        assert_eq!(store.to_dist_matrix().unwrap(), bgl_plus_apsp(&g));
    }
}
