//! The per-layer pass (`--trace 1`).
//!
//! The library has no wall-clock spans of its own yet, so this pass
//! replays the Floyd-Warshall and Johnson drivers from outside: it makes
//! the public calls `apsp()` and the driver make, in the same order, each
//! wrapped in an `Instant` span named after the layer it enters. A replay
//! counts (`trace.replay_exact` = 1) only when its simulated clock,
//! transfer bytes, kernel launches and result matrix equal the real entry
//! point's on the same instance; otherwise its wall numbers are stale.
//!
//! The fleet is not replayed. Its traced solve is the real
//! `ooc_boundary_multi` call, timed as a whole, and the partition is timed
//! on its own; splitting host time per phase needs spans in the program.

use crate::report::{ratio, RunResult};
use crate::workload::{checksum, fw_tile_side, Bench, Checker, Target};
use apsp_core::api::{ApspResult, RunDetails};
use apsp_core::ooc_boundary::default_num_components;
use apsp_core::ooc_fw::{init_store_from_graph, max_block_side};
use apsp_core::ooc_johnson::batch_size;
use apsp_core::options::{DynamicParallelism, FwOptions, JohnsonOptions};
use apsp_core::selector::JohnsonModel;
use apsp_core::{apsp, ooc_boundary_multi, Algorithm, ApspError, ApspErrorKind, ApspOptions};
use apsp_core::{Checkpoint, CostModels, MultiGpuStats, Progress, RefitCoefficients};
use apsp_core::{SdcGuard, SdcGuardMode, StorageBackend, Supervisor, TileStore};
use apsp_cpu::parallel::minplus_tile_exec;
use apsp_cpu::ExecBackend;
use apsp_gpu_sim::{DeviceProfile, GpuDevice, Pinning, SimReport, StreamId};
use apsp_graph::{CsrGraph, Dist, VertexId, INF};
use apsp_kernels::fw_block::fw_device_exec;
use apsp_kernels::minplus::{
    minplus_kernel_exec, minplus_left_inplace_exec, minplus_right_inplace_exec,
};
use apsp_kernels::mssp::{mssp_kernel, MsspOptions};
use apsp_kernels::DeviceMatrix;
use apsp_partition::{kway_partition, PartitionConfig, PartitionLayout};
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

/// Traced solves per run; the fastest one gives the layer breakdown.
const TRACED_SOLVES: usize = 5;

// Span names: `layer.call`. Every span is a leaf, so a span's duration
// is its layer's self time.
const CREATE: &str = "tile_store.create";
const SEED: &str = "tile_store.seed";
const READ: &str = "tile_store.read";
const WRITE: &str = "tile_store.write";
const SDC_ARM: &str = "sdc.arm";
const SDC_CHECK: &str = "sdc.check";
const CKPT_OPEN: &str = "checkpoint.open";
const CKPT_COMMIT: &str = "checkpoint.commit";
const CKPT_CLEAR: &str = "checkpoint.clear";
const ALLOC: &str = "transfer.alloc";
const H2D: &str = "transfer.h2d";
const D2H: &str = "transfer.d2h";
const FW_BLOCK: &str = "kernels.fw_block";
const PANEL: &str = "kernels.panel";
const MINPLUS: &str = "kernels.minplus";
const MSSP: &str = "kernels.mssp";
const PROBE: &str = "selector.probe";
const SELECT: &str = "selector.select";
const DRIVER: &str = "driver";
const MULTI: &str = "multi_gpu.driver";

/// Algorithm tags in `pred_ratio_*` order, as telemetry names them.
const TAGS: [(&str, Algorithm); 3] = [
    ("fw", Algorithm::FloydWarshall),
    ("johnson", Algorithm::Johnson),
    ("boundary", Algorithm::Boundary),
];

/// Simulated phase spans reported as `gpu_sim.phase.<name>_s`.
const PHASES: [&str; 4] = ["fw.diagonal", "fw.pivot", "fw.remainder", "johnson.batch"];

/// Calls, time and work counted for one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Spans recorded.
    pub calls: u64,
    /// Wall seconds inside them.
    pub secs: f64,
    /// Bytes moved by them.
    pub bytes: u64,
    /// Matrix rows moved by them.
    pub rows: u64,
    /// Operations they performed (min-plus triples, relaxations).
    pub ops: u64,
}

/// Spans of one traced solve, kept in memory until the run ends.
#[derive(Debug, Default)]
pub struct Tracer {
    tallies: BTreeMap<&'static str, Tally>,
}

impl Tracer {
    /// Time `f` as one call into `name`.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        let tally = self.tallies.entry(name).or_default();
        tally.calls += 1;
        tally.secs += secs;
        out
    }

    /// Count work done by the calls into `name`.
    fn work(&mut self, name: &'static str, bytes: usize, rows: usize, ops: u64) {
        let tally = self.tallies.entry(name).or_default();
        tally.bytes += bytes as u64;
        tally.rows += rows as u64;
        tally.ops += ops;
    }

    /// The tally of `name` (zero when never entered).
    pub fn get(&self, name: &str) -> Tally {
        self.tallies.get(name).copied().unwrap_or_default()
    }

    /// Self time of every layer together.
    pub fn span_secs(&self) -> f64 {
        self.tallies.values().map(|t| t.secs).sum()
    }
}

/// What the exactness check compares between a replay and `apsp()`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fingerprint {
    /// The driver's simulated seconds.
    pub sim_seconds: f64,
    /// The device clock at the end of the run.
    pub elapsed: f64,
    /// Bytes host to device.
    pub bytes_h2d: u64,
    /// Bytes device to host.
    pub bytes_d2h: u64,
    /// Kernel launches.
    pub launches: u64,
    /// FNV-1a of the result matrix.
    pub checksum: u64,
}

fn fingerprint(sim_seconds: f64, report: &SimReport, checksum: u64) -> Fingerprint {
    Fingerprint {
        sim_seconds,
        elapsed: report.elapsed,
        bytes_h2d: report.bytes_h2d,
        bytes_d2h: report.bytes_d2h,
        launches: report.kernels.values().map(|k| k.launches).sum(),
        checksum,
    }
}

/// One traced solve.
#[derive(Debug, Default)]
pub struct Traced {
    /// Its spans.
    pub tracer: Tracer,
    /// Its wall seconds, start to end.
    pub wall_s: f64,
    /// The driver's simulated seconds (0 for the fleet).
    pub sim_seconds: f64,
    /// FW tile side (0 when FW did not run).
    pub block: usize,
    /// FW tiles per dimension.
    pub n_d: usize,
    /// Johnson batch size (0 when Johnson did not run).
    pub batch_size: usize,
}

/// A traced replay of `apsp()`.
#[derive(Debug)]
pub struct Replay {
    /// Spans and geometry.
    pub traced: Traced,
    /// The algorithm that ran.
    pub algorithm: Algorithm,
    /// Compared against the real entry point.
    pub fingerprint: Fingerprint,
}

/// The options `apsp()` hands its driver: the front end's backend and
/// guard level pushed into every per-algorithm block.
fn effective(opts: &ApspOptions) -> ApspOptions {
    let mut o = opts.clone();
    o.fw.exec = o.exec;
    o.johnson.exec = o.exec;
    o.boundary.exec = o.exec;
    o.fw.sdc_guard = o.sdc_guard;
    o.johnson.sdc_guard = o.sdc_guard;
    o.boundary.sdc_guard = o.sdc_guard;
    o
}

/// Replay `apsp(g, fresh device, opts)` call by call. Configurations
/// whose calls are not mirrored here are refused, as is any run that
/// would take a path the plain driver does not (resume, retry, re-fit).
pub fn replay(
    g: &CsrGraph,
    profile: &DeviceProfile,
    opts: &ApspOptions,
) -> Result<Replay, ApspError> {
    let opts = effective(opts);
    if opts.telemetry || opts.calibration_dir.is_some() {
        return Err(not_replayed("telemetry and calibration"));
    }
    // The guard's sampling seed is private to the library. The checksum
    // level draws no samples, so any seed replays it exactly; the full
    // level does not.
    if opts.sdc_guard == SdcGuardMode::Full {
        return Err(not_replayed("the full SDC guard"));
    }
    let n = g.num_vertices();
    let mut tr = Tracer::default();
    let mut dev = GpuDevice::new(profile.clone());
    let t0 = Instant::now();
    let ckpt = match &opts.checkpoint {
        Some(co) => {
            let ck = tr.span(CKPT_OPEN, || Checkpoint::new(&co.dir, g))?;
            if !co.resume {
                tr.span(CKPT_CLEAR, || ck.clear())?;
            }
            if tr.span(CKPT_OPEN, || ck.load())?.is_some() {
                return Err(not_replayed("resuming a checkpoint"));
            }
            Some(ck)
        }
        None => None,
    };
    let algorithm = match opts.algorithm {
        Some(a) => a,
        None => {
            let models = tr.span(SELECT, || CostModels::calibrate_cached(dev.profile()));
            let johnson = tr.span(PROBE, || {
                JohnsonModel::probe(dev.profile(), g, &opts.selector, &opts.johnson)
            })?;
            tr.span(SELECT, || {
                models
                    .with_refit(RefitCoefficients::default())
                    .select(g, &opts.selector, &johnson)
            })
            .algorithm
        }
    };
    let sup = Supervisor::new(&opts.supervision, dev.elapsed().seconds());
    let mut store = tr.span(CREATE, || TileStore::new(n, &opts.storage))?;
    store.set_exec_backend(opts.exec);
    store.set_supervision(sup.clone());
    let mut traced = match (algorithm, &ckpt) {
        (Algorithm::FloydWarshall, _) => replay_fw(
            &mut tr,
            &mut dev,
            g,
            &mut store,
            &opts.fw,
            ckpt.as_ref(),
            &sup,
        ),
        (Algorithm::Johnson, None) => {
            replay_johnson(&mut tr, &mut dev, g, &mut store, &opts.johnson, &sup)
        }
        (other, _) => return Err(not_replayed(&format!("the {other} run"))),
    }?;
    store.clear_supervision();
    let report = tr.span(DRIVER, || dev.report());
    traced.wall_s = t0.elapsed().as_secs_f64();
    traced.tracer = tr;
    let sum = checksum(&store)?;
    Ok(Replay {
        fingerprint: fingerprint(traced.sim_seconds, &report, sum),
        traced,
        algorithm,
    })
}

fn not_replayed(what: &str) -> ApspError {
    ApspError::InvalidInput(format!("{what} is not replayed"))
}

/// `ooc_floyd_warshall_checkpointed_supervised` (with a checkpoint) or
/// `ooc_floyd_warshall_guarded` (without), then `fw_driver` and
/// `fw_rounds`, on the first attempt's geometry.
fn replay_fw(
    tr: &mut Tracer,
    dev: &mut GpuDevice,
    g: &CsrGraph,
    store: &mut TileStore,
    fw: &FwOptions,
    ckpt: Option<&Checkpoint>,
    sup: &Supervisor,
) -> Result<Traced, ApspError> {
    let n = g.num_vertices();
    if let Some(ck) = ckpt {
        tr.span(CKPT_OPEN, || ck.load())?;
    }
    tr.span(SEED, || init_store_from_graph(g, store))?;
    if fw.sdc_guard.is_on() && store.sdc_guard() != fw.sdc_guard {
        tr.span(SDC_ARM, || store.set_sdc_guard(fw.sdc_guard))?;
    }
    let mut guard = SdcGuard::new(fw.sdc_guard, 0);
    let buffers = if fw.overlap_transfers { 5 } else { 4 };
    let block = fw
        .block_size
        .unwrap_or_else(|| max_block_side(dev, buffers))
        .min(n)
        .max(1);
    if (block * block * 4 * buffers) as u64 > dev.free_memory() {
        return Err(not_replayed("a run whose driver re-fits its block"));
    }
    let n_d = n.div_ceil(block);
    let extent = |t: usize| t * block..((t + 1) * block).min(n);
    let start = dev.elapsed().seconds();
    let s0 = dev.default_stream();
    let s1 = if fw.overlap_transfers {
        dev.create_stream()
    } else {
        s0
    };
    for kb in 0..n_d {
        store.set_sdc_round(kb);
        let kr = extent(kb);
        let k = kr.len();
        // Stage 1: diagonal tile.
        let mut diag = upload(tr, dev, s0, store, kr.clone(), kr.clone())?;
        tr.span(FW_BLOCK, || fw_device_exec(dev, s0, &mut diag, fw.exec));
        tr.work(FW_BLOCK, 0, 0, (k * k * k) as u64);
        download(tr, dev, s0, store, &diag, kr.clone(), kr.clone())?;
        // Stage 2: pivot row and pivot column.
        for ib in (0..n_d).filter(|&ib| ib != kb) {
            let ir = extent(ib);
            let mut row_tile = upload(tr, dev, s0, store, kr.clone(), ir.clone())?;
            tr.span(PANEL, || {
                minplus_left_inplace_exec(dev, s0, &mut row_tile, &diag, fw.exec)
            });
            download(tr, dev, s0, store, &row_tile, kr.clone(), ir.clone())?;
            let mut col_tile = upload(tr, dev, s0, store, ir.clone(), kr.clone())?;
            tr.span(PANEL, || {
                minplus_right_inplace_exec(dev, s0, &mut col_tile, &diag, fw.exec)
            });
            download(tr, dev, s0, store, &col_tile, ir.clone(), kr.clone())?;
            tr.work(PANEL, 0, 0, (2 * k * k * ir.len()) as u64);
        }
        drop(diag);
        // Stage 3: remainder tiles, alternating streams.
        if fw.overlap_transfers {
            tr.span(DRIVER, || {
                let stage2_done = dev.record_event(s0);
                dev.wait_event(s1, stage2_done);
            });
        }
        for ib in (0..n_d).filter(|&ib| ib != kb) {
            let ir = extent(ib);
            let a_tile = upload(tr, dev, s0, store, ir.clone(), kr.clone())?;
            if fw.overlap_transfers {
                tr.span(DRIVER, || {
                    let a_ready = dev.record_event(s0);
                    dev.wait_event(s1, a_ready);
                });
            }
            for jb in (0..n_d).filter(|&jb| jb != kb) {
                let jr = extent(jb);
                let stream = if fw.overlap_transfers && jb % 2 == 1 {
                    s1
                } else {
                    s0
                };
                let b_tile = upload(tr, dev, stream, store, kr.clone(), jr.clone())?;
                let mut c_tile = upload(tr, dev, stream, store, ir.clone(), jr.clone())?;
                tr.span(MINPLUS, || {
                    minplus_kernel_exec(dev, stream, &mut c_tile, &a_tile, &b_tile, fw.exec)
                });
                tr.work(MINPLUS, 0, 0, (ir.len() * k * jr.len()) as u64);
                download(tr, dev, stream, store, &c_tile, ir.clone(), jr.clone())?;
            }
        }
        // Round barrier: supervision, then the guard, then the commit.
        let now = tr.span(DRIVER, || dev.synchronize().seconds());
        tr.span(DRIVER, || {
            sup.check_barrier(now, &format!("Floyd-Warshall round {kb} barrier"))
        })?;
        tr.span(SDC_CHECK, || {
            guard.check_round(store, kb, ((kb + 1) * block).min(n))
        })?;
        if let Some(ck) = ckpt {
            if kb + 1 < n_d {
                let progress = Progress::FloydWarshall {
                    block,
                    next_round: kb + 1,
                };
                tr.span(CKPT_COMMIT, || ck.commit(store, &progress))?;
                tr.work(CKPT_COMMIT, n * n * 4, n, 0);
            }
        }
    }
    let end = tr.span(DRIVER, || dev.synchronize().seconds());
    if let Some(ck) = ckpt {
        tr.span(CKPT_CLEAR, || ck.clear())?;
    }
    Ok(Traced {
        sim_seconds: end - start,
        block,
        n_d,
        ..Default::default()
    })
}

/// `upload_tile`: read the block from the store, allocate, upload.
fn upload(
    tr: &mut Tracer,
    dev: &mut GpuDevice,
    stream: StreamId,
    store: &TileStore,
    rows: Range<usize>,
    cols: Range<usize>,
) -> Result<DeviceMatrix, ApspError> {
    let host = tr.span(READ, || store.read_block(rows.clone(), cols.clone()))?;
    tr.work(READ, host.len() * 4, rows.len(), 0);
    let mut tile = tr.span(ALLOC, || {
        DeviceMatrix::alloc_inf(dev, rows.len(), cols.len())
    })?;
    tr.span(H2D, || {
        tile.upload_rows(dev, stream, 0, &host, Pinning::Pinned)
    });
    tr.work(H2D, host.len() * 4, rows.len(), 0);
    Ok(tile)
}

/// `download_tile`: download into a fresh host buffer, write the block.
fn download(
    tr: &mut Tracer,
    dev: &mut GpuDevice,
    stream: StreamId,
    store: &mut TileStore,
    tile: &DeviceMatrix,
    rows: Range<usize>,
    cols: Range<usize>,
) -> Result<(), ApspError> {
    let len = rows.len() * cols.len();
    let host = tr.span(D2H, || {
        let mut host = vec![0 as Dist; len];
        tile.download_rows(dev, stream, 0..rows.len(), &mut host, Pinning::Pinned);
        host
    });
    tr.work(D2H, len * 4, rows.len(), 0);
    tr.span(WRITE, || store.write_block(rows.clone(), cols, &host))?;
    tr.work(WRITE, len * 4, rows.len(), 0);
    Ok(())
}

/// `ooc_johnson_supervised`, then `johnson_batches`, on the first
/// attempt's batch size.
fn replay_johnson(
    tr: &mut Tracer,
    dev: &mut GpuDevice,
    g: &CsrGraph,
    store: &mut TileStore,
    jo: &JohnsonOptions,
    sup: &Supervisor,
) -> Result<Traced, ApspError> {
    let n = g.num_vertices();
    if jo.sdc_guard.is_on() && store.sdc_guard() != jo.sdc_guard {
        tr.span(SDC_ARM, || store.set_sdc_guard(jo.sdc_guard))?;
    }
    let mut guard = SdcGuard::new(jo.sdc_guard, 0);
    let bat = tr.span(DRIVER, || batch_size(dev, g, jo.queue_words_per_edge))?;
    let delta = tr.span(DRIVER, || {
        jo.delta
            .unwrap_or_else(|| apsp_kernels::nearfar::default_delta(g))
    });
    let dynamic = match jo.dynamic_parallelism {
        DynamicParallelism::On => true,
        DynamicParallelism::Off => false,
        DynamicParallelism::Auto => (bat as u32) < dev.profile().saturating_blocks,
    };
    let mssp_opts = MsspOptions {
        delta,
        dynamic_parallelism: dynamic,
        heavy_degree_threshold: jo.heavy_degree_threshold,
        exec: jo.exec,
    };
    let graph_hold: apsp_gpu_sim::DeviceBuffer<u8> =
        tr.span(ALLOC, || dev.alloc(g.storage_bytes()))?;
    let start = dev.elapsed().seconds();
    let s0 = dev.default_stream();
    let s1 = if jo.overlap_transfers {
        dev.create_stream()
    } else {
        s0
    };
    let mut host_panel = vec![0 as Dist; bat * n];
    let sources: Vec<VertexId> = (0..n as VertexId).collect();
    for (bi, chunk) in sources.chunks(bat).enumerate() {
        store.set_sdc_round(bi);
        let stream = if jo.overlap_transfers && bi % 2 == 1 {
            s1
        } else {
            s0
        };
        let mut panel = tr.span(ALLOC, || DeviceMatrix::alloc_inf(dev, chunk.len(), n))?;
        let outcome = tr.span(MSSP, || {
            mssp_kernel(dev, stream, g, chunk, &mut panel, mssp_opts)
        });
        tr.work(MSSP, 0, 0, outcome.stats.total_relaxations());
        let host = &mut host_panel[..chunk.len() * n];
        tr.span(D2H, || {
            panel.download_rows(dev, stream, 0..chunk.len(), host, Pinning::Pinned)
        });
        tr.work(D2H, host.len() * 4, chunk.len(), 0);
        tr.span(WRITE, || store.write_rows(chunk[0] as usize, host))?;
        tr.work(WRITE, host.len() * 4, chunk.len(), 0);
        tr.span(DRIVER, || {
            sup.check_barrier(
                dev.elapsed().seconds(),
                &format!("Johnson batch {bi} barrier"),
            )
        })?;
        let next_row = chunk[0] as usize + chunk.len();
        let completed: Vec<usize> = tr.span(DRIVER, || (0..next_row).collect());
        tr.span(SDC_CHECK, || {
            guard.check_completed_rows(store, bi, &completed)
        })?;
    }
    drop(graph_hold);
    let end = tr.span(DRIVER, || dev.synchronize().seconds());
    Ok(Traced {
        sim_seconds: end - start,
        batch_size: bat,
        ..Default::default()
    })
}

/// Simulated-clock counters of the telemetry solve (device sums for a
/// fleet).
#[derive(Debug, Default)]
struct GpuSim {
    bytes_h2d: u64,
    bytes_d2h: u64,
    kernel_launches: u64,
    compute_occupancy: f64,
    transfer_fraction: f64,
    overlap_efficiency: f64,
    phases: [f64; PHASES.len()],
}

/// Everything the traced pass measured, zero where a layer is idle.
#[derive(Debug, Default)]
struct Measured {
    traced: Option<Traced>,
    replay_exact: bool,
    retries: u64,
    /// `(chosen algorithm's sim seconds, best feasible sim seconds)`.
    regret: Option<(f64, f64)>,
    predicted: [Option<f64>; 3],
    realized: [Option<f64>; 3],
    gpu: GpuSim,
    /// `(seconds, components, boundary vertices)`.
    partition: (f64, usize, usize),
    fleet: Option<(MultiGpuStats, f64)>,
}

/// Run the traced pass on instance 0 and push every per-layer metric
/// except `api.*`. Returns whether every replay was exact.
pub fn per_layer(
    bench: &Bench,
    checker: &mut Checker,
    solve_best_s: f64,
    smoke: bool,
    out: &mut RunResult,
) -> bool {
    let g = &bench.graphs[0];
    let mut m = Measured::default();
    match &bench.target {
        Target::Single { profile, opts } => trace_single(g, checker, profile, opts, &mut m),
        Target::Fleet { profiles, opts } => {
            trace_fleet(g, checker, profiles, opts, &mut m);
        }
    }
    let exec = ExecBackend::default();
    let peak = minplus_peak_gops(fw_tile_side(smoke), exec);
    emit(&m, solve_best_s, peak, exec.resolved_threads(), out);
    m.replay_exact
}

/// Keep the solve on success, or count its failure.
fn checked(
    checker: &mut Checker,
    what: &str,
    result: Result<ApspResult, ApspError>,
) -> Option<ApspResult> {
    let sum = result.and_then(|r| checksum(&r.store).map(|s| (r, s)));
    match sum {
        Ok((r, s)) => checker.check(what, 0, Ok(s)).then_some(r),
        Err(e) => {
            checker.check(what, 0, Err(e));
            None
        }
    }
}

fn trace_single(
    g: &CsrGraph,
    checker: &mut Checker,
    profile: &DeviceProfile,
    opts: &ApspOptions,
    m: &mut Measured,
) {
    let solve = |o: &ApspOptions| apsp(g, &mut GpuDevice::new(profile.clone()), o);
    // The real entry point, which every replay must match.
    let Some(reference) = checked(checker, "reference solve", solve(opts)) else {
        return;
    };
    let want = fingerprint(
        reference.sim_seconds,
        &reference.report,
        checker.expected(0),
    );
    m.retries = match &reference.details {
        RunDetails::FloydWarshall(s) => s.retries,
        RunDetails::Johnson(s) => s.retries,
        RunDetails::Boundary(s) => s.retries,
    } as u64;
    m.replay_exact = true;
    for _ in 0..TRACED_SOLVES {
        match replay(g, profile, opts) {
            Ok(r) => {
                if r.fingerprint != want || r.algorithm != reference.algorithm {
                    eprintln!(
                        "bench_apsp: replay diverged from apsp(): {:?} ran {:?}, apsp() {:?} ran {:?}",
                        r.fingerprint, r.algorithm, want, reference.algorithm
                    );
                    m.replay_exact = false;
                }
                if m.traced.as_ref().is_none_or(|t| r.traced.wall_s < t.wall_s) {
                    m.traced = Some(r.traced);
                }
            }
            Err(e) => {
                eprintln!("bench_apsp: no replay: {e}");
                m.replay_exact = false;
                break;
            }
        }
    }
    // Simulated-clock counters and the selector's predictions.
    let with_telemetry = ApspOptions {
        telemetry: true,
        ..opts.clone()
    };
    if let Some(run) = checked(checker, "telemetry solve", solve(&with_telemetry)) {
        let t = run.telemetry.expect("telemetry was requested");
        let phases = t.aggregated_phases();
        m.gpu = GpuSim {
            bytes_h2d: t.bytes_h2d,
            bytes_d2h: t.bytes_d2h,
            kernel_launches: t.kernel_launches,
            compute_occupancy: t.compute_occupancy,
            transfer_fraction: t.transfer_fraction,
            overlap_efficiency: t.overlap_efficiency,
            phases: PHASES.map(|p| {
                phases
                    .iter()
                    .find(|(name, _, _)| name == p)
                    .map_or(0.0, |&(_, _, s)| s)
            }),
        };
        for rec in &t.calibration {
            if let Some(i) = TAGS.iter().position(|(tag, _)| *tag == rec.algorithm) {
                m.predicted[i] = rec.predicted_s;
            }
        }
    }
    let chosen = TAGS
        .iter()
        .position(|(_, a)| *a == reference.algorithm)
        .expect("every algorithm has a tag");
    m.realized[chosen] = Some(reference.sim_seconds);
    // Regret only where the selector chose: force every other algorithm
    // once. The simulated clock does not depend on the host backend, so
    // these untimed runs use the fastest one.
    if reference.selection.is_none() {
        return;
    }
    for (i, (_, alg)) in TAGS.iter().enumerate().filter(|&(i, _)| i != chosen) {
        let forced = ApspOptions {
            algorithm: Some(*alg),
            exec: ExecBackend::simd(),
            ..opts.clone()
        };
        match solve(&forced) {
            Err(e) if e.kind() == ApspErrorKind::DeviceTooSmall => {}
            result => {
                if let Some(run) = checked(checker, "forced solve", result) {
                    m.realized[i] = Some(run.sim_seconds);
                }
            }
        }
    }
    let best = m
        .realized
        .iter()
        .flatten()
        .copied()
        .fold(f64::INFINITY, f64::min);
    m.regret = Some((reference.sim_seconds, best));
}

fn trace_fleet(
    g: &CsrGraph,
    checker: &mut Checker,
    profiles: &[DeviceProfile],
    opts: &apsp_core::BoundaryOptions,
    m: &mut Measured,
) {
    let n = g.num_vertices();
    let k = opts
        .num_components
        .unwrap_or_else(|| default_num_components(n))
        .clamp(1, n)
        .max(profiles.len().min(n));
    let t = Instant::now();
    let cfg = PartitionConfig {
        seed: opts.partition_seed,
        ..Default::default()
    };
    let layout = PartitionLayout::new(g, &kway_partition(g, k, &cfg));
    m.partition = (
        t.elapsed().as_secs_f64(),
        layout.num_components(),
        layout.total_boundary(),
    );
    // Nothing is replayed: the traced solve is the entry point itself.
    m.replay_exact = true;
    // The extra last solve records device traces for the overlap figure.
    for run in 0..=TRACED_SOLVES {
        let last = run == TRACED_SOLVES;
        let mut devs: Vec<GpuDevice> = profiles.iter().cloned().map(GpuDevice::new).collect();
        if last {
            devs.iter_mut().for_each(GpuDevice::enable_trace);
        }
        let mut tr = Tracer::default();
        let t = Instant::now();
        let solved = tr
            .span(CREATE, || TileStore::new(n, &StorageBackend::Memory))
            .map_err(ApspError::from)
            .and_then(|mut store| {
                tr.span(MULTI, || ooc_boundary_multi(&mut devs, g, &mut store, opts))
                    .map(|stats| (store, stats))
            });
        let wall_s = t.elapsed().as_secs_f64();
        let stats = match solved {
            Ok((store, stats)) => {
                if !checker.check("traced fleet solve", 0, checksum(&store)) {
                    continue;
                }
                stats
            }
            Err(e) => {
                checker.check("traced fleet solve", 0, Err(e));
                continue;
            }
        };
        if last {
            m.gpu = fleet_gpu(&devs, stats.sim_seconds);
            let elapsed: Vec<f64> = devs.iter().map(|d| d.elapsed().seconds()).collect();
            let mean = elapsed.iter().sum::<f64>() / elapsed.len() as f64;
            let max = elapsed.iter().copied().fold(0.0, f64::max);
            m.retries = stats.retries as u64;
            m.fleet = Some((stats, ratio(max, mean)));
        } else if m.traced.as_ref().is_none_or(|t| wall_s < t.wall_s) {
            m.traced = Some(Traced {
                tracer: tr,
                wall_s,
                ..Default::default()
            });
        }
    }
}

/// Fleet totals: bytes and launches summed; busy fractions of the whole
/// fleet's capacity over the makespan; overlap averaged over devices.
fn fleet_gpu(devs: &[GpuDevice], makespan: f64) -> GpuSim {
    let reports: Vec<SimReport> = devs.iter().map(GpuDevice::report).collect();
    let capacity = makespan * devs.len() as f64;
    let sum = |f: fn(&SimReport) -> f64| reports.iter().map(f).sum::<f64>();
    GpuSim {
        bytes_h2d: reports.iter().map(|r| r.bytes_h2d).sum(),
        bytes_d2h: reports.iter().map(|r| r.bytes_d2h).sum(),
        kernel_launches: devs.iter().map(|d| d.counters().kernel_launches).sum(),
        compute_occupancy: ratio(sum(|r| r.compute_busy), capacity),
        transfer_fraction: ratio(sum(|r| r.h2d_busy + r.d2h_busy), capacity),
        overlap_efficiency: devs
            .iter()
            .map(|d| apsp_gpu_sim::trace::overlap_efficiency(d.trace()))
            .sum::<f64>()
            / devs.len() as f64,
        phases: [0.0; PHASES.len()],
    }
}

/// Standalone `minplus_tile_exec` on `side`³, best of 9, in Gop/s.
fn minplus_peak_gops(side: usize, exec: ExecBackend) -> f64 {
    let operand = |salt: u64| -> Vec<Dist> {
        (0..(side * side) as u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9).wrapping_add(salt) % 1000) as Dist)
            .collect()
    };
    let (a, b) = (operand(1), operand(2));
    let mut c = vec![INF; side * side];
    let mut best = f64::INFINITY;
    for _ in 0..9 {
        c.fill(INF);
        let t = Instant::now();
        minplus_tile_exec(&mut c, side, &a, side, &b, side, side, side, side, exec);
        best = best.min(t.elapsed().as_secs_f64());
        std::hint::black_box(&c);
    }
    ratio((side * side * side) as f64 / 1e9, best)
}

fn emit(m: &Measured, solve_best_s: f64, peak_gops: f64, threads: usize, out: &mut RunResult) {
    let tally = |name: &str| {
        m.traced
            .as_ref()
            .map_or_else(Tally::default, |t| t.tracer.get(name))
    };
    let traced = m.traced.as_ref();
    let solve_s = traced.map_or(0.0, |t| t.wall_s);
    let spans = traced.map_or(0.0, |t| t.tracer.span_secs());

    out.push("selector.probe_s", tally(PROBE).secs, "s");
    out.push("selector.select_s", tally(SELECT).secs, "s");
    let (chosen, best) = m.regret.unwrap_or_default();
    out.push_ratio("selector.regret", chosen, "best_feasible_sim_s", best);
    for (i, (tag, _)) in TAGS.iter().enumerate() {
        out.push_ratio(
            &format!("selector.pred_ratio_{tag}"),
            m.predicted[i].unwrap_or(0.0),
            &format!("realized_{tag}_sim_s"),
            m.realized[i].unwrap_or(0.0),
        );
    }

    let (read, write) = (tally(READ), tally(WRITE));
    out.push("tile_store.create_s", tally(CREATE).secs, "s");
    out.push("tile_store.seed_s", tally(SEED).secs, "s");
    out.push("tile_store.read_calls", read.calls as f64, "count");
    out.push("tile_store.read_bytes", read.bytes as f64, "bytes");
    out.push("tile_store.read_s", read.secs, "s");
    out.push("tile_store.write_calls", write.calls as f64, "count");
    out.push("tile_store.write_bytes", write.bytes as f64, "bytes");
    out.push("tile_store.write_s", write.secs, "s");
    out.push("tile_store.rows_read", read.rows as f64, "count");
    out.push("tile_store.rows_written", write.rows as f64, "count");

    out.push("sdc.arm_s", tally(SDC_ARM).secs, "s");
    out.push("sdc.check_calls", tally(SDC_CHECK).calls as f64, "count");
    out.push("sdc.check_s", tally(SDC_CHECK).secs, "s");

    let commit = tally(CKPT_COMMIT);
    out.push("checkpoint.open_s", tally(CKPT_OPEN).secs, "s");
    out.push("checkpoint.commits", commit.calls as f64, "count");
    out.push("checkpoint.commit_bytes", commit.bytes as f64, "bytes");
    out.push("checkpoint.commit_s", commit.secs, "s");
    out.push("checkpoint.clear_s", tally(CKPT_CLEAR).secs, "s");

    let (alloc, h2d, d2h) = (tally(ALLOC), tally(H2D), tally(D2H));
    out.push("transfer.alloc_calls", alloc.calls as f64, "count");
    out.push("transfer.alloc_s", alloc.secs, "s");
    out.push("transfer.h2d_calls", h2d.calls as f64, "count");
    out.push("transfer.h2d_bytes", h2d.bytes as f64, "bytes");
    out.push("transfer.h2d_s", h2d.secs, "s");
    out.push("transfer.d2h_calls", d2h.calls as f64, "count");
    out.push("transfer.d2h_bytes", d2h.bytes as f64, "bytes");
    out.push("transfer.d2h_s", d2h.secs, "s");

    let (fw, panel, minplus, mssp) = (tally(FW_BLOCK), tally(PANEL), tally(MINPLUS), tally(MSSP));
    let minplus_gops = ratio(minplus.ops as f64 / 1e9, minplus.secs);
    out.push("kernels.fw_block_calls", fw.calls as f64, "count");
    out.push("kernels.fw_block_s", fw.secs, "s");
    out.push("kernels.panel_calls", panel.calls as f64, "count");
    out.push("kernels.panel_s", panel.secs, "s");
    out.push("kernels.minplus_calls", minplus.calls as f64, "count");
    out.push("kernels.minplus_ops", minplus.ops as f64, "count");
    out.push("kernels.minplus_s", minplus.secs, "s");
    out.push("kernels.minplus_gops", minplus_gops, "Gop/s");
    out.push_ratio(
        "kernels.minplus_efficiency",
        minplus_gops,
        "cpu.minplus_peak_gops",
        peak_gops,
    );
    out.push("kernels.mssp_calls", mssp.calls as f64, "count");
    out.push("kernels.mssp_relaxations", mssp.ops as f64, "count");
    out.push("kernels.mssp_s", mssp.secs, "s");
    out.push(
        "kernels.mssp_mrelax_per_s",
        ratio(mssp.ops as f64 / 1e6, mssp.secs),
        "Mrelax/s",
    );

    out.push("cpu.minplus_peak_gops", peak_gops, "Gop/s");
    out.push("cpu.threads", threads as f64, "count");

    let gpu = &m.gpu;
    out.push("gpu_sim.bytes_h2d", gpu.bytes_h2d as f64, "bytes");
    out.push("gpu_sim.bytes_d2h", gpu.bytes_d2h as f64, "bytes");
    out.push(
        "gpu_sim.kernel_launches",
        gpu.kernel_launches as f64,
        "count",
    );
    out.push(
        "gpu_sim.compute_occupancy",
        gpu.compute_occupancy,
        "fraction",
    );
    out.push(
        "gpu_sim.transfer_fraction",
        gpu.transfer_fraction,
        "fraction",
    );
    out.push(
        "gpu_sim.overlap_efficiency",
        gpu.overlap_efficiency,
        "fraction",
    );
    for (name, secs) in PHASES.iter().zip(gpu.phases) {
        out.push(&format!("gpu_sim.phase.{name}_s"), secs, "sim_s");
    }

    out.push("driver.s", tally(DRIVER).secs, "s");
    out.push(
        "driver.block",
        traced.map_or(0, |t| t.block) as f64,
        "count",
    );
    out.push("driver.n_d", traced.map_or(0, |t| t.n_d) as f64, "count");
    out.push(
        "driver.batch_size",
        traced.map_or(0, |t| t.batch_size) as f64,
        "count",
    );
    out.push("driver.retries", m.retries as f64, "count");

    let (partition_s, components, boundary) = m.partition;
    out.push("partition.s", partition_s, "s");
    out.push("partition.components", components as f64, "count");
    out.push("partition.boundary_vertices", boundary as f64, "count");

    let multi_s = tally(MULTI).secs;
    let (phase_s, stolen, imbalance, makespan) = match &m.fleet {
        Some((s, imbalance)) => (s.phase_seconds, s.stolen_panels, *imbalance, s.sim_seconds),
        None => ([0.0; 3], 0, 0.0, 0.0),
    };
    out.push("multi_gpu.driver_s", multi_s, "s");
    out.push("multi_gpu.dist2_sim_s", phase_s[0], "sim_s");
    out.push("multi_gpu.dist3_sim_s", phase_s[1], "sim_s");
    out.push("multi_gpu.dist4_sim_s", phase_s[2], "sim_s");
    out.push("multi_gpu.stolen_panels", stolen as f64, "count");
    out.push("multi_gpu.load_imbalance", imbalance, "ratio");
    out.push_ratio("multi_gpu.host_over_sim", multi_s, "sim_makespan", makespan);

    out.push("trace.solve_s", solve_s, "s");
    out.push_ratio(
        "trace.overhead",
        solve_s - solve_best_s,
        "solve_best_s",
        solve_best_s,
    );
    out.push_ratio("trace.coverage", spans, "trace.solve_s", solve_s);
    out.push("trace.other_s", solve_s - spans, "s");
    out.push(
        "trace.replay_exact",
        if m.replay_exact { 1.0 } else { 0.0 },
        "bool",
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::fnv1a;
    use apsp_core::options::CheckpointOptions;
    use apsp_graph::generators::{gnp, grid_2d, rmat, GridOptions, RmatParams, WeightRange};

    fn small_device() -> DeviceProfile {
        DeviceProfile::v100().with_memory_bytes(64 << 10)
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bench_apsp-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The replay must equal `apsp()` bit for bit: matrix, simulated
    /// seconds, transfer bytes and launches. Fails as soon as a driver
    /// changes its call sequence.
    fn assert_replay_exact(g: &CsrGraph, opts: &ApspOptions) -> Replay {
        let mut dev = GpuDevice::new(small_device());
        let real = apsp(g, &mut dev, opts).unwrap();
        let oracle = fnv1a(apsp_cpu::bgl_plus_apsp(g).as_slice());
        assert_eq!(checksum(&real.store).unwrap(), oracle);
        let want = fingerprint(real.sim_seconds, &real.report, oracle);
        let got = replay(g, &small_device(), opts).unwrap();
        assert_eq!(got.algorithm, real.algorithm);
        assert_eq!(got.fingerprint, want);
        let t = &got.traced;
        assert!(t.wall_s > 0.0);
        assert!(t.tracer.span_secs() <= t.wall_s);
        got
    }

    #[test]
    fn durable_fw_replay_is_exact() {
        let dir = scratch("fw");
        let g = gnp(96, 0.08, WeightRange::default(), 11);
        let opts = ApspOptions {
            algorithm: Some(Algorithm::FloydWarshall),
            storage: StorageBackend::Disk(dir.join("store")),
            checkpoint: Some(CheckpointOptions {
                dir: dir.join("checkpoint"),
                resume: false,
            }),
            sdc_guard: SdcGuardMode::Checksum,
            ..Default::default()
        };
        let r = assert_replay_exact(&g, &opts);
        let t = &r.traced;
        assert!(t.n_d >= 2, "64 KiB must force several tiles");
        assert_eq!(t.tracer.get(CKPT_COMMIT).calls as usize, t.n_d - 1);
        assert_eq!(t.tracer.get(SDC_CHECK).calls as usize, t.n_d);
        assert_eq!(t.tracer.get(FW_BLOCK).calls as usize, t.n_d);
        assert_eq!(t.tracer.get(SDC_ARM).calls, 1);
        // Every tile crosses PCIe once each way.
        assert_eq!(t.tracer.get(H2D).bytes, r.fingerprint.bytes_h2d);
        assert_eq!(t.tracer.get(D2H).bytes, r.fingerprint.bytes_d2h);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn johnson_replay_is_exact() {
        let g = rmat(96, 768, RmatParams::default(), WeightRange::default(), 12);
        let opts = ApspOptions {
            algorithm: Some(Algorithm::Johnson),
            ..Default::default()
        };
        let r = assert_replay_exact(&g, &opts);
        let t = &r.traced;
        assert!(t.batch_size >= 1 && t.batch_size < 96, "{}", t.batch_size);
        assert_eq!(
            t.tracer.get(MSSP).calls as usize,
            96usize.div_ceil(t.batch_size)
        );
        assert_eq!(t.tracer.get(WRITE).rows, 96);
        assert!(t.tracer.get(MSSP).ops > 0);
    }

    #[test]
    fn selected_run_replays_the_selector_too() {
        let g = grid_2d(10, 10, GridOptions::default(), WeightRange::default(), 13);
        let r = assert_replay_exact(&g, &ApspOptions::default());
        assert_eq!(r.traced.tracer.get(PROBE).calls, 1);
    }

    #[test]
    fn unreplayable_runs_are_refused() {
        let g = gnp(40, 0.1, WeightRange::default(), 14);
        let full = ApspOptions {
            sdc_guard: SdcGuardMode::Full,
            ..Default::default()
        };
        assert!(replay(&g, &small_device(), &full).is_err());
        let boundary = ApspOptions {
            algorithm: Some(Algorithm::Boundary),
            ..Default::default()
        };
        assert!(replay(&g, &small_device(), &boundary).is_err());
    }
}
