//! Algorithm 3: the out-of-core boundary algorithm.
//!
//! 1. Partition the graph into `k` components (METIS-substitute k-way),
//!    renumbering vertices so each component is contiguous with its
//!    boundary nodes first (the paper's Fig 1a).
//! 2. dist₂: blocked Floyd-Warshall on each diagonal block `A(i,i)`.
//! 3. dist₃: build the boundary graph (original cross edges + virtual
//!    edges from dist₂) and run blocked Floyd-Warshall on it.
//! 4. dist₄: for every block,
//!    `A(i,j) = C2B[i] ⊗ bound(i,j) ⊗ B2C[j]` (minimized with dist₂ on the
//!    diagonal), streaming results to the host.
//!
//! Step 4's `k²` small result blocks are the transfer bottleneck the paper
//! measures at 70–84% of runtime; the **batching** optimization
//! accumulates `N_row = S_rem / (N_max · n · W)` component row-panels in a
//! device staging buffer per transfer, and **overlap** double-buffers the
//! staging so D2H copies hide behind the next components' compute.
//!
//! One driver runs every boundary solve on a fleet of devices: [`run`]
//! passes a fleet of one, [`crate::multi_gpu::run`] a fleet of several,
//! and each device is charged as a lone device is.

use crate::checkpoint::{Checkpoint, Progress};
use crate::error::ApspError;
use crate::options::BoundaryOptions;
use crate::run_ctx::{check_store, climb, Counters, RunCtx, Rungs};
use crate::sdc::SdcGuard;
use crate::selector::placement::FleetPlan;
use crate::supervisor::Supervisor;
use crate::telemetry::{PhaseStart, Telemetry};
use crate::tile_store::TileStore;
use apsp_gpu_sim::{
    DeviceProfile, DeviceReservation, GpuDevice, KernelCost, LaunchConfig, OutOfDeviceMemory,
    Pinning, StreamId,
};
use apsp_graph::{CsrGraph, Dist, VertexId, INF};
use apsp_kernels::fw_block::fw_device_exec;
use apsp_kernels::minplus::minplus_kernel_exec;
use apsp_kernels::DeviceMatrix;
use apsp_partition::{kway_partition, PartitionConfig, PartitionLayout};

/// Outcome statistics of one boundary-algorithm run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BoundaryRunStats {
    /// Components used (`k`), after any auto-shrinking to fit the device.
    pub num_components: usize,
    /// Total boundary nodes (`NB`).
    pub total_boundary: usize,
    /// Largest component (`N_max`).
    pub max_component: usize,
    /// Row-panels accumulated per transfer (`N_row`; 1 without batching).
    pub n_row: usize,
    /// Simulated seconds for the whole run (excludes host-side
    /// partitioning, which the paper also performs on the CPU).
    pub sim_seconds: f64,
    /// Restarts forced by mid-run device allocation failures (0 on a
    /// clean run). Each restart recomputes every panel from the graph,
    /// possibly with fewer components.
    pub retries: u32,
    /// Checkpoint commits performed (0 without checkpointing).
    pub checkpoint_commits: u32,
    /// Silent corruptions repaired by recomputing every panel from the
    /// graph. The boundary algorithm never reads the store, so full
    /// recomputation is its one (exact) recovery rung; there is no
    /// cheaper panel-scoped rung to count separately.
    pub sdc_round_recoveries: u32,
}

/// The paper's default component count, `√n / 4` (Section V-F).
pub fn default_num_components(n: usize) -> usize {
    apsp_partition::kway::default_num_components(n)
}

/// Kernel-efficiency divisor for the boundary path.
///
/// Its kernels — per-component Floyd-Warshall on modest blocks, the
/// boundary-graph Floyd-Warshall, and k² chained *skinny* min-plus panel
/// multiplies with strided extractions — run well below the dense-FW
/// anchor efficiency on real hardware. The value is calibrated so the
/// paper-scale boundary run reproduces the measured behaviour of its
/// Figs 2 and 8: speedups of 8.2–12.4× over BGL-Plus with unoptimized
/// transfer fractions of 70–84%.
pub const BOUNDARY_KERNEL_EFFICIENCY_DIVISOR: f64 = 8.0;

/// [`run`] unsupervised and without a checkpoint.
pub fn ooc_boundary(
    dev: &mut GpuDevice,
    g: &CsrGraph,
    store: &mut TileStore,
    opts: &BoundaryOptions,
) -> Result<BoundaryRunStats, ApspError> {
    run(dev, g, store, opts, &RunCtx::default())
}

/// Run the out-of-core boundary algorithm for `g` into `store`.
///
/// A mid-run device allocation failure degrades gracefully instead of
/// aborting: the run restarts — once at the same component count (a
/// transient fault clears), then at successively halved counts (the
/// device shrank). Restarts are exact: the boundary algorithm never
/// reads the store, so a retry simply recomputes and overwrites every
/// row panel from the graph.
///
/// `ctx.supervisor` is checked at every component flush barrier and
/// sets the retry policy. With `ctx.checkpoint`, dist₄ progress commits
/// after every streamed panel group, and a committed checkpoint
/// (validated against `g` and the store checksums) is resumed — dist₂
/// and dist₃ are recomputed (deterministic given the partition), then
/// the streaming phase skips the committed components; the checkpoint
/// is cleared on success. The committed cursor only transfers to the
/// identical partition: a manifest committed under another
/// `opts.partition_seed` is an [`ApspError::InvalidInput`], and if the
/// committed component count no longer fits the device the run
/// restarts from scratch instead — still exact, every panel is
/// recomputed.
pub fn run(
    dev: &mut GpuDevice,
    g: &CsrGraph,
    store: &mut TileStore,
    opts: &BoundaryOptions,
    ctx: &RunCtx,
) -> Result<BoundaryRunStats, ApspError> {
    let devs = std::slice::from_mut(dev);
    let (outcome, c) = run_boundary(devs, g, store, opts, ctx, false)?;
    ctx.finish(BoundaryRunStats {
        retries: c.retries,
        checkpoint_commits: c.checkpoint_commits,
        sdc_round_recoveries: c.sdc_round_recoveries,
        ..outcome.stats
    })
}

/// What one attempt of the boundary driver reports; each entry point
/// keeps its part.
#[derive(Debug, Default)]
pub(crate) struct Outcome {
    pub(crate) stats: BoundaryRunStats,
    /// Fleet-clock seconds of dist₂, of dist₃ with its broadcast, and of
    /// dist₄.
    pub(crate) phase_seconds: [f64; 3],
    /// Component → device of the dist₂ phase.
    pub(crate) placement: Vec<usize>,
    /// dist₄ panels placed on another device than their dist₂ block.
    pub(crate) stolen_panels: u32,
}

/// Both entry points' `run`: the resume preamble, then the driver's
/// attempt under the recovery ladder. [`run`] passes a fleet of one,
/// `multi_gpu::run` its fleet (`fleet`, which names the algorithm and
/// puts recovery spans on device 0).
pub(crate) fn run_boundary(
    devs: &mut [GpuDevice],
    g: &CsrGraph,
    store: &mut TileStore,
    opts: &BoundaryOptions,
    ctx: &RunCtx,
    fleet: bool,
) -> Result<(Outcome, Counters), ApspError> {
    let n = g.num_vertices();
    check_store(store, n)?;
    // A committed checkpoint must have been written under
    // `opts.partition_seed` — another seed's panels would describe the
    // wrong vertex sets.
    let resume = Checkpoint::resume(
        ctx.checkpoint,
        store,
        "the boundary algorithm",
        |p| match p {
            Progress::Boundary {
                components,
                partition_seed,
                next_component,
            } => Some((components, partition_seed, next_component)),
            _ => None,
        },
        |&(_, partition_seed, _)| {
            if partition_seed == opts.partition_seed {
                return Ok(());
            }
            Err(ApspError::InvalidInput(format!(
                "checkpoint committed panels under partition seed {partition_seed}, but \
                 seed {} is configured — the committed rows would describe the wrong \
                 vertex sets; resume with the same seed, or delete the checkpoint",
                opts.partition_seed
            )))
        },
    )?;
    let mut run = BoundaryRun {
        devs,
        g,
        store,
        opts: *opts,
        resume: resume.map(|(components, _, next_component)| (components, next_component)),
        ckpt: ctx.checkpoint,
        fleet,
    };
    climb(&mut run, n, opts.sdc_guard, &ctx.supervisor())
}

/// The boundary driver under the recovery ladder: its devices, the
/// component count the last shrink left, and the resume cursor until a
/// restart drops it.
pub(crate) struct BoundaryRun<'a> {
    devs: &'a mut [GpuDevice],
    g: &'a CsrGraph,
    store: &'a mut TileStore,
    opts: BoundaryOptions,
    /// `(components, next_component)` of a restored manifest.
    resume: Option<(usize, usize)>,
    ckpt: Option<&'a Checkpoint>,
    fleet: bool,
}

impl Rungs for BoundaryRun<'_> {
    type Stats = Outcome;
    const PANEL_RUNG: bool = false;

    fn algorithm(&self) -> &'static str {
        if self.fleet {
            "multi-device boundary"
        } else {
            "out-of-core boundary"
        }
    }

    fn store(&mut self) -> Option<&mut TileStore> {
        Some(self.store)
    }

    fn span_device(&self) -> (&GpuDevice, Option<usize>) {
        (&self.devs[0], self.fleet.then_some(0))
    }

    fn attempt(
        &mut self,
        sup: &Supervisor,
        guard: &mut SdcGuard,
        commits: &mut u32,
    ) -> Result<Outcome, ApspError> {
        let result = attempt(self, sup, guard, commits);
        // Restore every device's efficiency context on every exit path.
        for dev in self.devs.iter_mut() {
            dev.set_kernel_efficiency_divisor(1.0);
        }
        result
    }

    // The boundary algorithm never reads the store, so the one recovery
    // rung — recomputing every panel from the graph — is exact wherever
    // the corruption was detected. The rewrite reaches rows component by
    // component; re-seed the registry so the stale mismatch cannot
    // re-fire at an earlier flush barrier.
    fn recover_round(&mut self) -> Result<(), ApspError> {
        self.store.sdc_rebaseline(0..self.g.num_vertices())?;
        self.resume = None;
        Ok(())
    }

    /// Restarts recompute every panel, so any partition is valid again —
    /// drop the resume cursor.
    fn restart(&mut self) {
        self.resume = None;
    }

    fn shrink(&mut self, oom: OutOfDeviceMemory) -> Result<(), ApspError> {
        let n = self.g.num_vertices();
        let k = self
            .opts
            .num_components
            .unwrap_or_else(|| default_num_components(n))
            .clamp(1, n.max(1));
        if k <= 1 {
            return Err(ApspError::DeviceTooSmall {
                algorithm: self.algorithm(),
                detail: format!("allocation kept failing even at a single component: {oom}"),
            });
        }
        self.opts.num_components = Some(k / 2);
        Ok(())
    }
}

/// Step 1 (host CPU, as in the paper): the partition and the first
/// component to stream.
///
/// A resume must reproduce the committed partition exactly, or the
/// already-written panels would describe the wrong vertex sets. If it
/// cannot (device shrank, partitioner merged components), fall back to
/// a fresh start — exact, every panel is recomputed. A fresh start asks
/// for the configured `k`, at least one component per device, and
/// shrinks it until the boundary matrix and working set fit every
/// device; fewer components ⇒ fewer boundary nodes (at higher dist₂
/// cost), mirroring the paper's observation that non-small-separator
/// graphs only admit a small number of components.
fn partition(
    g: &CsrGraph,
    opts: &BoundaryOptions,
    resume: Option<(usize, usize)>,
    devs: &[GpuDevice],
) -> (PartitionLayout, usize) {
    let n = g.num_vertices();
    if let Some((rk, next)) = resume {
        let candidate = kway_layout(g, opts, rk.clamp(1, n));
        if candidate.num_components() == rk && fits(devs, &candidate, 0) {
            return (candidate, next.min(rk));
        }
    }
    let mut k = opts
        .num_components
        .unwrap_or_else(|| default_num_components(n))
        .clamp(1, n)
        .max(devs.len().min(n));
    loop {
        let candidate = kway_layout(g, opts, k);
        if fits(devs, &candidate, 0) || k <= 2 {
            return (candidate, 0);
        }
        k = (k / 2).max(2);
    }
}

/// The `k`-way partition of `g` under `opts.partition_seed`.
fn kway_layout(g: &CsrGraph, opts: &BoundaryOptions, k: usize) -> PartitionLayout {
    let pcfg = PartitionConfig {
        seed: opts.partition_seed,
    };
    PartitionLayout::new(g, &kway_partition(g, k, &pcfg))
}

/// The fleet's clock. Each device keeps its own timeline; at a barrier
/// every device idles until the slowest arrives, and that idle time is
/// kept here as a wait per device instead of moving its timeline. On a
/// fleet of one every wait is zero, so the clock is the device's.
struct FleetClock {
    waits: Vec<f64>,
}

impl FleetClock {
    /// The latest device, counting the waits each has accrued.
    fn now(&self, devs: &[GpuDevice]) -> f64 {
        let clocks = devs.iter().zip(&self.waits);
        clocks.fold(0.0, |t, (d, w)| t.max(d.elapsed().seconds() + w))
    }

    /// Every device waits for the latest; returns the barrier's time.
    fn barrier(&mut self, devs: &[GpuDevice]) -> f64 {
        let t = self.now(devs);
        for (d, w) in devs.iter().zip(&mut self.waits) {
            *w = t - d.elapsed().seconds();
        }
        t
    }
}

/// One device's dist₄ output staging: the paper's `N_row` row-panels per
/// transfer (Fig 8), in two buffers when overlapping so the D2H of one
/// hides behind compute into the other.
struct Staging {
    /// Panels per flush (`N_row`; 1 without batching).
    n_row: usize,
    /// Device memory of each buffer, held for its footprint only: a
    /// finished panel goes straight to the store, and a flush charges
    /// the D2H of the staged bytes. Empty without batching.
    buffers: Vec<DeviceReservation>,
    /// The stream of each buffer (the same one without overlap).
    streams: [StreamId; 2],
    active: usize,
    /// Components in the active buffer.
    staged: Vec<usize>,
    /// Panels the device has yet to stage in this attempt.
    left: usize,
}

impl Staging {
    /// Size the staging beside the resident boundary matrix and the
    /// peak per-block working set: the rest of the device (the paper's
    /// `S_rem`) holds `N_row = S_rem / (N_max · n · W)` panels per
    /// buffer, at most the `owned` panels the plan gives the device.
    /// If two buffers don't fit, sacrifice overlap before batching; with
    /// no room at all, fall back to per-block transfers (still correct).
    fn new(
        dev: &GpuDevice,
        opts: &BoundaryOptions,
        streams: [StreamId; 2],
        per_block_working: u64,
        panel_words: usize,
        owned: usize,
        left: usize,
    ) -> Result<Staging, ApspError> {
        let w = std::mem::size_of::<Dist>() as u64;
        let s_rem = dev.free_memory().saturating_sub(per_block_working);
        let mut buffers = if opts.overlap_transfers { 2usize } else { 1 };
        let mut n_row_budget = (s_rem / w) as usize / panel_words / buffers;
        if n_row_budget == 0 && buffers == 2 {
            buffers = 1;
            n_row_budget = (s_rem / w) as usize / panel_words;
        }
        let batching = opts.batch_transfers && n_row_budget >= 1 && owned > 0;
        let n_row = if batching { n_row_budget.min(owned) } else { 1 };
        let count = if batching { buffers } else { 0 };
        let bytes = (n_row * panel_words) as u64 * w;
        let buffers = (0..count)
            .map(|_| dev.reserve(bytes))
            .collect::<Result<_, _>>()?;
        Ok(Staging {
            n_row,
            buffers,
            streams,
            active: 0,
            staged: Vec::new(),
            left,
        })
    }

    /// The stream of the active buffer.
    fn stream(&self) -> StreamId {
        self.streams[self.active]
    }

    /// Stage component `c`'s finished panel, and flush when the staging
    /// is full or holds the device's last panel. A batched flush charges
    /// one D2H of `panel_bytes` per staged panel and switches buffers.
    /// Returns the flushed components.
    fn stage(&mut self, dev: &mut GpuDevice, c: usize, panel_bytes: u64) -> Option<Vec<usize>> {
        self.staged.push(c);
        self.left -= 1;
        if self.staged.len() < self.n_row && self.left > 0 {
            return None;
        }
        if !self.buffers.is_empty() {
            let bytes = self.staged.len() as u64 * panel_bytes;
            dev.charge_d2h(self.stream(), bytes, Pinning::Pinned);
            self.active = (self.active + 1) % self.buffers.len();
        }
        Some(std::mem::take(&mut self.staged))
    }
}

/// One attempt of the boundary driver on its fleet — one device for
/// [`run`]. Every device is charged as a lone device is; the fleet only
/// decides which device runs each component's work ([`FleetPlan`]), and
/// puts a barrier before each phase.
fn attempt(
    run: &mut BoundaryRun,
    sup: &Supervisor,
    guard: &mut SdcGuard,
    commits: &mut u32,
) -> Result<Outcome, ApspError> {
    let (algorithm, fleet) = (run.algorithm(), run.fleet);
    let (g, opts, ckpt) = (run.g, &run.opts, run.ckpt);
    let (devs, store) = (&mut *run.devs, &mut *run.store);
    let n = g.num_vertices();
    // Each device holds the full boundary matrix during dist₄, so the
    // working set must fit every device: the smallest bounds feasibility.
    let (mut layout, start_component) = partition(g, opts, run.resume, devs);
    // If transfer batching is on but not even one staging row-panel fits
    // alongside the working set on some device, try doubling k once:
    // smaller components mean smaller `N_max · n` panels (at somewhat
    // more boundary). Going further multiplies the k² per-block overheads
    // past any transfer win, so a candidate is adopted only if it
    // actually restores batching on every device; otherwise the
    // per-block pinned fallback is cheaper. Never mid-resume: a
    // different partition would orphan the committed panels.
    let w = std::mem::size_of::<Dist>() as u64;
    let buffers = if opts.overlap_transfers { 2 } else { 1 };
    let staging = |l: &PartitionLayout| buffers * (l.max_component_size() * n) as u64 * w;
    if start_component == 0 && opts.batch_transfers && !fits(devs, &layout, staging(&layout)) {
        let k2 = (layout.num_components() * 2).min(n / 2).max(2);
        if k2 > layout.num_components() {
            let candidate = kway_layout(g, opts, k2);
            if fits(devs, &candidate, staging(&candidate)) {
                layout = candidate;
            }
        }
    }
    let pg = layout.permute_graph(g);
    let k = layout.num_components();
    let nb_total = layout.total_boundary();
    let n_max = layout.max_component_size();
    let nb_max = max_boundary(&layout);
    if !fits(devs, &layout, 0) {
        let free = devs.iter().map(GpuDevice::free_memory).min().unwrap_or(0);
        let detail = if fleet {
            format!(
                "no feasible partition: the minimum working set (boundary graph of \
                 {nb_total} nodes plus one block's panels) exceeds the smallest \
                 device's free memory ({free} bytes) even at k = {k}"
            )
        } else {
            format!(
                "minimum working set ({} bytes: boundary graph of {nb_total} nodes, {n_max}² block) exceeds free device memory ({free} bytes) even at k = {k}",
                working_set_bytes(&layout),
            )
        };
        return Err(ApspError::DeviceTooSmall { algorithm, detail });
    }
    let profiles: Vec<&DeviceProfile> = devs.iter().map(GpuDevice::profile).collect();
    let plan = FleetPlan::new(&layout, &profiles)?;
    let tag = |d: usize| fleet.then_some(d);

    let mut clock = FleetClock {
        waits: vec![0.0; devs.len()],
    };
    let start = clock.barrier(devs);
    let mut streams = Vec::with_capacity(devs.len());
    for dev in devs.iter_mut() {
        dev.set_kernel_efficiency_divisor(BOUNDARY_KERNEL_EFFICIENCY_DIVISOR);
        let s0 = dev.default_stream();
        let s1 = if opts.overlap_transfers {
            dev.create_stream()
        } else {
            s0
        };
        streams.push([s0, s1]);
    }

    // ---- Step 2: dist₂ on each diagonal block, on its planned device.
    let tel = sup.telemetry().clone();
    let spans = open_spans(&tel, devs);
    let mut dist2: Vec<Vec<Dist>> = Vec::with_capacity(k);
    for i in 0..k {
        let dev = &mut devs[plan.dist2_owner[i]];
        let s0 = dev.default_stream();
        let range = layout.component_range(i);
        let sz = range.len();
        let mut block = adjacency_block(&pg, range);
        let mut tile = DeviceMatrix::alloc_inf(dev, sz, sz)?;
        if sz > 0 {
            tile.upload_rows(dev, s0, 0, &block, Pinning::Pinned);
            fw_device_exec(dev, s0, &mut tile, opts.exec);
            tile.download_rows(dev, s0, 0..sz, &mut block, Pinning::Pinned);
        }
        dist2.push(block);
    }
    close_spans(&tel, devs, spans, "boundary.dist2", fleet);
    let dist2_end = clock.barrier(devs);

    // ---- Step 3: the boundary graph and dist₃, solved on the fastest
    // device and broadcast to the rest, which wait for the solve. Every
    // device keeps the matrix resident for dist₄.
    let spans = open_spans(&tel, devs);
    let (bofs, mut bound_host) = boundary_graph(&layout, &pg, &dist2);
    let solver = plan.dist3_solver;
    let broadcast = devs.len() > 1;
    let dev = &mut devs[solver];
    let s0 = dev.default_stream();
    let mut solved = DeviceMatrix::alloc_inf(dev, nb_total, nb_total)?;
    if nb_total > 0 {
        solved.upload_rows(dev, s0, 0, &bound_host, Pinning::Pinned);
        fw_device_exec(dev, s0, &mut solved, opts.exec);
        if broadcast {
            solved.download_rows(dev, s0, 0..nb_total, &mut bound_host, Pinning::Pinned);
        }
    }
    clock.barrier(devs);
    let mut bound = Vec::with_capacity(devs.len());
    for (d, dev) in devs.iter_mut().enumerate() {
        if d != solver {
            let s0 = dev.default_stream();
            bound.push(upload_panel(dev, s0, nb_total, nb_total, &bound_host)?);
        }
    }
    bound.insert(solver, solved);
    drop(bound_host);
    close_spans(&tel, devs, spans, "boundary.dist3", fleet);
    let dist3_end = clock.barrier(devs);

    // ---- Step 4: dist₄, each panel on its planned device, streamed to
    // the host through that device's staging.
    let per_block_working = ((n_max * nb_max) * 3 + nb_max * nb_max + n_max * n_max) as u64 * w;
    let panel_words = (n_max * n).max(1);
    let mut stagings = Vec::with_capacity(devs.len());
    for (d, dev) in devs.iter().enumerate() {
        let owns = |from: usize| plan.dist4_owner[from..].iter().filter(|&&o| o == d).count();
        stagings.push(Staging::new(
            dev,
            opts,
            streams[d],
            per_block_working,
            panel_words,
            owns(0),
            owns(start_component),
        )?);
    }
    let mut host_panel = vec![0 as Dist; n_max * n];
    let mut scatter_row = vec![0 as Dist; n];
    // Components whose panels are flushed; those restored from a
    // checkpoint are already final. The commit cursor is the contiguous
    // prefix of them.
    let mut flushed: Vec<bool> = (0..k).map(|c| c < start_component).collect();
    let mut cursor = start_component;
    // Store rows (original vertex ids) of the flushed components — final
    // metric-closure rows, the candidates the invariant guard probes.
    let mut guard_rows: Vec<usize> = (0..start_component)
        .flat_map(|c| component_rows(&layout, c))
        .collect();

    for i in start_component..k {
        store.set_sdc_round(i);
        let owner = plan.dist4_owner[i];
        let (dev, staging) = (&mut devs[owner], &mut stagings[owner]);
        let ph = tel.phase_start(dev);
        let irange = layout.component_range(i);
        let sz_i = irange.len();
        let nb_i = layout.boundary_count(i);
        let stream = staging.stream();
        // C2B[i]: all rows × boundary columns of dist₂(i) (device-side
        // extraction; charged as a copy kernel).
        let c2b_host = extract_block(&dist2[i], sz_i, 0..sz_i, 0..nb_i);
        let c2b = upload_panel(dev, stream, sz_i, nb_i, &c2b_host)?;
        charge_extract(dev, stream, sz_i * nb_i);

        for j in 0..k {
            let jrange = layout.component_range(j);
            let sz_j = jrange.len();
            let nb_j = layout.boundary_count(j);
            // bound(i, j): resident dist₃ panel (device-side extraction).
            let (rows, cols) = (bofs[i]..bofs[i] + nb_i, bofs[j]..bofs[j] + nb_j);
            let bound_ij_host = extract_block(bound[owner].as_slice(), nb_total, rows, cols);
            let bound_ij = upload_panel_free(dev, nb_i, nb_j, &bound_ij_host)?;
            charge_extract(dev, stream, nb_i * nb_j);
            // B2C[j]: boundary rows × all columns of dist₂(j).
            let b2c_host = &dist2[j][..nb_j * sz_j];
            let b2c = upload_panel(dev, stream, nb_j, sz_j, b2c_host)?;
            charge_extract(dev, stream, nb_j * sz_j);

            // tmp₁ = C2B[i] ⊗ bound(i,j);  block = tmp₁ ⊗ B2C[j].
            let mut tmp1 = DeviceMatrix::alloc_inf(dev, sz_i, nb_j)?;
            minplus_kernel_exec(dev, stream, &mut tmp1, &c2b, &bound_ij, opts.exec);
            let mut block = DeviceMatrix::alloc_inf(dev, sz_i, sz_j)?;
            minplus_kernel_exec(dev, stream, &mut block, &tmp1, &b2c, opts.exec);
            if i == j {
                // Same-component pairs also have the all-interior paths of
                // dist₂; elementwise min (one fused kernel in the real
                // implementation).
                elementwise_min(dev, stream, &mut block, &dist2[i]);
            }

            // The block's rows join component i's host panel. Batched,
            // the second multiply writes into the staging buffer and the
            // flush pays the copy. Per block, one D2H each — the k² small
            // transfers the paper measures at 70–84% of runtime. The true
            // naive baseline (batching off) copies out of pageable memory;
            // when batching was requested but could not be staged, at
            // least keep the pinned buffers.
            for (r, row) in block.as_slice().chunks_exact(sz_j.max(1)).enumerate() {
                host_panel[r * n + jrange.start..][..sz_j].copy_from_slice(row);
            }
            if staging.buffers.is_empty() {
                let pinning = if opts.batch_transfers {
                    Pinning::Pinned
                } else {
                    Pinning::Pageable
                };
                dev.charge_d2h(stream, (sz_i * sz_j) as u64 * w, pinning);
            }
        }
        tel.phase_end_on_device(dev, ph, "boundary.dist4", tag(owner));
        write_panel(store, &layout, i, &host_panel, &mut scatter_row)?;

        let ph = tel.phase_start(dev);
        let Some(group) = staging.stage(dev, i, panel_words as u64 * w) else {
            continue;
        };
        tel.phase_end_on_device(dev, ph, "boundary.flush", tag(owner));
        for c in group {
            flushed[c] = true;
            guard_rows.extend(component_rows(&layout, c));
        }
        // Supervision check at the natural barrier: a flushed panel
        // group is a unit of progress. Reads the fleet clock — a
        // `synchronize` here would serialize the overlap streams.
        let driver = if fleet { "multi-device" } else { "boundary" };
        let what = format!("{driver} component {i} flush barrier");
        sup.check_barrier(clock.now(devs), &what)?;
        // Invariant guard BEFORE the commit, so a committed snapshot
        // is never taken across undetected corruption.
        guard.check_completed_rows(store, i, &guard_rows)?;
        // Natural commit point: every component below the cursor has its
        // dist₄ panel in the store. The final flush is not committed —
        // completion clears the checkpoint, and a crash after it replays
        // the last panel group (exact: panels are recomputed).
        let committed = cursor;
        while cursor < k && flushed[cursor] {
            cursor += 1;
        }
        if let Some(ck) = ckpt.filter(|_| committed < cursor && cursor < k) {
            ck.commit(
                store,
                &Progress::Boundary {
                    components: k,
                    partition_seed: opts.partition_seed,
                    next_component: cursor,
                },
            )?;
            *commits += 1;
        }
    }

    for dev in devs.iter_mut() {
        dev.synchronize();
    }
    let end = clock.now(devs);
    let moved = plan.dist4_owner.iter().zip(&plan.dist2_owner);
    Ok(Outcome {
        stats: BoundaryRunStats {
            num_components: k,
            total_boundary: nb_total,
            max_component: n_max,
            n_row: stagings[0].n_row,
            sim_seconds: end - start,
            ..Default::default()
        },
        phase_seconds: [dist2_end - start, dist3_end - dist2_end, end - dist3_end],
        stolen_panels: moved.filter(|(a, b)| a != b).count() as u32,
        placement: plan.dist2_owner,
    })
}

/// Open a phase span on every device.
fn open_spans(tel: &Telemetry, devs: &[GpuDevice]) -> Vec<Option<PhaseStart>> {
    devs.iter().map(|d| tel.phase_start(d)).collect()
}

/// Close the spans [`open_spans`] opened, tagged with each device's
/// fleet index on a fleet.
fn close_spans(
    tel: &Telemetry,
    devs: &[GpuDevice],
    spans: Vec<Option<PhaseStart>>,
    name: &str,
    fleet: bool,
) {
    for (d, (dev, span)) in devs.iter().zip(spans).enumerate() {
        tel.phase_end_on_device(dev, span, name, fleet.then_some(d));
    }
}

/// The most boundary nodes of any component.
fn max_boundary(layout: &PartitionLayout) -> usize {
    (0..layout.num_components())
        .map(|i| layout.boundary_count(i))
        .max()
        .unwrap_or(0)
}

/// Whether the minimum working set plus `extra` bytes fits every device.
fn fits(devs: &[GpuDevice], layout: &PartitionLayout, extra: u64) -> bool {
    let bytes = working_set_bytes(layout) + extra;
    devs.iter().all(|d| bytes <= d.free_memory())
}

/// The boundary algorithm's *minimum* resident working set in bytes: the
/// boundary distance matrix plus one block's operand panels (C2B, B2C,
/// tmp₁, bound(i,j), output block). The staging buffers are extra and
/// degrade gracefully (batching falls back to per-block transfers), so
/// they are not part of feasibility. Shared with the selector's boundary
/// cost model so the model's feasibility reasoning matches the runtime's.
pub fn working_set_bytes(layout: &PartitionLayout) -> u64 {
    let w = std::mem::size_of::<Dist>() as u64;
    let nb = layout.total_boundary() as u64;
    let n_max = layout.max_component_size() as u64;
    let nb_max = max_boundary(layout) as u64;
    (nb * nb + 3 * n_max * nb_max + nb_max * nb_max + n_max * n_max) * w
}

/// Assemble the boundary graph on the host as a dense `NB × NB` matrix
/// (zero diagonal): the virtual edges — dist₂ restricted to each
/// component's boundary × boundary, whose nodes occupy each block's
/// first rows and columns — plus the original cross-component edges,
/// both of whose endpoints are boundary nodes by definition. Returns
/// each component's offset into it (`k + 1` entries) with the matrix.
fn boundary_graph(
    layout: &PartitionLayout,
    pg: &CsrGraph,
    dist2: &[Vec<Dist>],
) -> (Vec<usize>, Vec<Dist>) {
    let k = layout.num_components();
    let nb_total = layout.total_boundary();
    let mut bofs = vec![0usize];
    for i in 0..k {
        bofs.push(bofs[i] + layout.boundary_count(i));
    }
    let mut bound = vec![INF; nb_total * nb_total];
    for d in 0..nb_total {
        bound[d * nb_total + d] = 0;
    }
    for i in 0..k {
        let nb = layout.boundary_count(i);
        let sz = layout.component_size(i);
        for a in 0..nb {
            for b in 0..nb {
                let d = dist2[i][a * sz + b];
                let cell = &mut bound[(bofs[i] + a) * nb_total + (bofs[i] + b)];
                if d < *cell {
                    *cell = d;
                }
            }
        }
    }
    let comp_of = component_index(layout);
    for v in 0..layout.num_vertices() as VertexId {
        let ci = comp_of[v as usize];
        let local_v = v as usize - layout.component_range(ci).start;
        if local_v >= layout.boundary_count(ci) {
            continue; // interior vertex: no cross edges by definition
        }
        for (u, wgt) in pg.edges_from(v) {
            let cj = comp_of[u as usize];
            if ci == cj {
                continue;
            }
            let local_u = u as usize - layout.component_range(cj).start;
            debug_assert!(local_u < layout.boundary_count(cj));
            let cell = &mut bound[(bofs[ci] + local_v) * nb_total + (bofs[cj] + local_u)];
            if wgt < *cell {
                *cell = wgt;
            }
        }
    }
    (bofs, bound)
}

/// The store rows (original vertex ids) of component `c`.
fn component_rows(layout: &PartitionLayout, c: usize) -> impl Iterator<Item = usize> + '_ {
    layout
        .component_range(c)
        .map(|v| layout.old_of(v as VertexId) as usize)
}

/// Map each (permuted) vertex to its component index.
fn component_index(layout: &PartitionLayout) -> Vec<usize> {
    let mut comp = vec![0usize; layout.num_vertices()];
    for i in 0..layout.num_components() {
        for v in layout.component_range(i) {
            comp[v] = i;
        }
    }
    comp
}

/// Dense adjacency block of `range × range` from the permuted graph.
fn adjacency_block(pg: &CsrGraph, range: std::ops::Range<usize>) -> Vec<Dist> {
    let sz = range.len();
    let mut block = vec![INF; sz * sz];
    for r in 0..sz {
        block[r * sz + r] = 0;
    }
    for (r, v) in range.clone().enumerate() {
        for (u, wgt) in pg.edges_from(v as VertexId) {
            let u = u as usize;
            if range.contains(&u) && u != v {
                let cell = &mut block[r * sz + (u - range.start)];
                if wgt < *cell {
                    *cell = wgt;
                }
            }
        }
    }
    block
}

/// The `rows × cols` block of a row-major matrix with rows of `stride`.
fn extract_block(
    m: &[Dist],
    stride: usize,
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) -> Vec<Dist> {
    let mut out = Vec::with_capacity(rows.len() * cols.len());
    for r in rows {
        out.extend_from_slice(&m[r * stride + cols.start..r * stride + cols.end]);
    }
    out
}

/// Upload a host panel into a fresh device matrix, charging the H2D.
fn upload_panel(
    dev: &mut GpuDevice,
    stream: StreamId,
    rows: usize,
    cols: usize,
    host: &[Dist],
) -> Result<DeviceMatrix, ApspError> {
    let mut m = DeviceMatrix::alloc_inf(dev, rows, cols)?;
    if !host.is_empty() {
        m.upload_rows(dev, stream, 0, host, Pinning::Pinned);
    }
    Ok(m)
}

/// Device-side panel materialization (no PCIe traffic — the data is
/// already resident; the copy cost is charged via [`charge_extract`]).
fn upload_panel_free(
    dev: &GpuDevice,
    rows: usize,
    cols: usize,
    host: &[Dist],
) -> Result<DeviceMatrix, ApspError> {
    let mut m = DeviceMatrix::alloc_inf(dev, rows, cols)?;
    m.as_mut_slice().copy_from_slice(host);
    Ok(m)
}

/// Charge a device-side extraction/copy kernel moving `elems` distances.
fn charge_extract(dev: &mut GpuDevice, stream: StreamId, elems: usize) {
    dev.launch(
        stream,
        "extract",
        LaunchConfig::saturating(),
        KernelCost::regular(0.0, (elems * 8) as f64),
    );
}

/// Elementwise `block = min(block, other)`, charged as one fused kernel.
fn elementwise_min(
    dev: &mut GpuDevice,
    stream: StreamId,
    block: &mut DeviceMatrix,
    other: &[Dist],
) {
    debug_assert_eq!(block.as_slice().len(), other.len());
    for (b, &o) in block.as_mut_slice().iter_mut().zip(other.iter()) {
        if o < *b {
            *b = o;
        }
    }
    dev.launch(
        stream,
        "elementwise_min",
        LaunchConfig::saturating(),
        KernelCost::regular(other.len() as f64, (other.len() * 12) as f64),
    );
}

/// Scatter component `comp`'s row panel (permuted order, width `n`) into
/// the store under original vertex ids.
fn write_panel(
    store: &mut TileStore,
    layout: &PartitionLayout,
    comp: usize,
    panel: &[Dist],
    scatter_row: &mut [Dist],
) -> Result<(), ApspError> {
    let n = layout.num_vertices();
    let range = layout.component_range(comp);
    for (r, new_row) in range.enumerate() {
        let old_row = layout.old_of(new_row as VertexId) as usize;
        for new_col in 0..n {
            scatter_row[layout.old_of(new_col as VertexId) as usize] = panel[r * n + new_col];
        }
        // The algorithm never writes a distance worse than dist_add of
        // its inputs; diagonal zero is preserved by dist₂'s diagonal.
        debug_assert_eq!(scatter_row[old_row], 0);
        store.write_row(old_row, scatter_row)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_ctx::{durable, test_dir};
    use crate::tile_store::StorageBackend;
    use apsp_cpu::bgl_plus_apsp;
    use apsp_gpu_sim::DeviceProfile;
    use apsp_graph::generators::{gnp, grid_2d, random_geometric, GridOptions, WeightRange};

    fn run_boundary(
        g: &CsrGraph,
        dev: &mut GpuDevice,
        opts: &BoundaryOptions,
    ) -> (apsp_cpu::DistMatrix, BoundaryRunStats) {
        let mut store = TileStore::new(g.num_vertices(), &StorageBackend::Memory).unwrap();
        let stats = ooc_boundary(dev, g, &mut store, opts).unwrap();
        (store.to_dist_matrix().unwrap(), stats)
    }

    #[test]
    fn matches_reference_on_grid() {
        let g = grid_2d(9, 9, GridOptions::default(), WeightRange::default(), 3);
        let mut dev = GpuDevice::new(DeviceProfile::v100());
        let opts = BoundaryOptions {
            num_components: Some(4),
            ..Default::default()
        };
        let (result, stats) = run_boundary(&g, &mut dev, &opts);
        assert_eq!(result, bgl_plus_apsp(&g));
        assert_eq!(stats.num_components, 4);
        assert!(stats.total_boundary > 0);
    }

    #[test]
    fn matches_reference_on_geometric() {
        let g = random_geometric(220, 0.09, WeightRange::default(), 11);
        let mut dev = GpuDevice::new(DeviceProfile::v100());
        let (result, _) = run_boundary(&g, &mut dev, &BoundaryOptions::default());
        assert_eq!(result, bgl_plus_apsp(&g));
    }

    #[test]
    fn matches_reference_on_disconnected_graph() {
        // Disconnected inputs exercise INF propagation through all steps.
        let mut b = apsp_graph::GraphBuilder::new(40);
        let grid = grid_2d(4, 5, GridOptions::default(), WeightRange::default(), 5);
        for e in grid.edges() {
            b.add_edge(e.src, e.dst, e.weight);
            b.add_edge(e.src + 20, e.dst + 20, e.weight);
        }
        let g = b.build();
        let mut dev = GpuDevice::new(DeviceProfile::v100());
        let opts = BoundaryOptions {
            num_components: Some(3),
            ..Default::default()
        };
        let (result, _) = run_boundary(&g, &mut dev, &opts);
        assert_eq!(result, bgl_plus_apsp(&g));
    }

    #[test]
    fn all_optimization_combinations_agree() {
        let g = grid_2d(8, 8, GridOptions::default(), WeightRange::default(), 7);
        let reference = bgl_plus_apsp(&g);
        for batch in [false, true] {
            for overlap in [false, true] {
                let mut dev = GpuDevice::new(DeviceProfile::v100());
                let opts = BoundaryOptions {
                    num_components: Some(5),
                    batch_transfers: batch,
                    overlap_transfers: overlap,
                    ..Default::default()
                };
                let (result, _) = run_boundary(&g, &mut dev, &opts);
                assert_eq!(result, reference, "batch={batch} overlap={overlap}");
            }
        }
    }

    #[test]
    fn batching_reduces_transfer_count_and_time() {
        let g = random_geometric(300, 0.07, WeightRange::default(), 13);
        let run = |batch: bool| {
            let mut dev = GpuDevice::new(DeviceProfile::v100());
            let opts = BoundaryOptions {
                num_components: Some(10),
                batch_transfers: batch,
                overlap_transfers: false,
                ..Default::default()
            };
            let mut store = TileStore::new(300, &StorageBackend::Memory).unwrap();
            ooc_boundary(&mut dev, &g, &mut store, &opts).unwrap();
            let r = dev.report();
            (r.transfers_d2h, dev.elapsed().seconds())
        };
        let (naive_transfers, naive_time) = run(false);
        let (batched_transfers, batched_time) = run(true);
        assert!(
            batched_transfers < naive_transfers / 5,
            "{batched_transfers} vs {naive_transfers}"
        );
        assert!(batched_time < naive_time, "{batched_time} vs {naive_time}");
    }

    #[test]
    fn stats_expose_partition_shape() {
        let g = grid_2d(10, 10, GridOptions::default(), WeightRange::default(), 17);
        let mut dev = GpuDevice::new(DeviceProfile::v100());
        let opts = BoundaryOptions {
            num_components: Some(6),
            ..Default::default()
        };
        let (_, stats) = run_boundary(&g, &mut dev, &opts);
        assert_eq!(stats.num_components, 6);
        assert!(stats.max_component >= 100 / 6);
        assert!(stats.n_row >= 1);
        assert!(stats.sim_seconds > 0.0);
    }

    #[test]
    fn tiny_device_shrinks_k_or_errors() {
        let g = grid_2d(12, 12, GridOptions::default(), WeightRange::default(), 19);
        // Device that can hold some blocks but is tight.
        let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(300 << 10));
        let mut store = TileStore::new(144, &StorageBackend::Memory).unwrap();
        let opts = BoundaryOptions {
            num_components: Some(12),
            ..Default::default()
        };
        match ooc_boundary(&mut dev, &g, &mut store, &opts) {
            Ok(stats) => {
                assert_eq!(
                    store.to_dist_matrix().unwrap(),
                    bgl_plus_apsp(&g),
                    "shrunk k = {}",
                    stats.num_components
                );
            }
            // Either structured refusal is acceptable on a device this
            // tight: the upfront feasibility check, or a mid-run
            // allocation failure surfaced cleanly.
            Err(ApspError::DeviceTooSmall { .. }) | Err(ApspError::OutOfDeviceMemory(_)) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn transient_alloc_fault_recovers_exactly() {
        let g = grid_2d(9, 9, GridOptions::default(), WeightRange::default(), 29);
        let mut dev = GpuDevice::new(DeviceProfile::v100());
        let mut store = TileStore::new(81, &StorageBackend::Memory).unwrap();
        let opts = BoundaryOptions {
            num_components: Some(4),
            ..Default::default()
        };
        // Fail an allocation somewhere in dist₂/dist₃: the run restarts
        // and still converges.
        dev.inject_alloc_failure(3);
        let stats = ooc_boundary(&mut dev, &g, &mut store, &opts).unwrap();
        assert_eq!(stats.retries, 1);
        assert_eq!(store.to_dist_matrix().unwrap(), bgl_plus_apsp(&g));
    }

    #[test]
    fn repeated_alloc_faults_halve_components_and_stay_exact() {
        let g = grid_2d(9, 9, GridOptions::default(), WeightRange::default(), 31);
        let mut dev = GpuDevice::new(DeviceProfile::v100());
        let mut store = TileStore::new(81, &StorageBackend::Memory).unwrap();
        let opts = BoundaryOptions {
            num_components: Some(8),
            ..Default::default()
        };
        // Kill attempt 1 and the same-k retry, forcing halved components.
        dev.inject_alloc_failure(3);
        dev.inject_alloc_failure(6);
        let stats = ooc_boundary(&mut dev, &g, &mut store, &opts).unwrap();
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.num_components, 4);
        assert_eq!(store.to_dist_matrix().unwrap(), bgl_plus_apsp(&g));
    }

    #[test]
    fn checkpointed_clean_run_commits_and_clears() {
        let g = grid_2d(10, 10, GridOptions::default(), WeightRange::default(), 33);
        let mut dev = GpuDevice::new(DeviceProfile::v100());
        let mut store = TileStore::new(100, &StorageBackend::Memory).unwrap();
        let opts = BoundaryOptions {
            num_components: Some(6),
            batch_transfers: false, // per-component commits
            ..Default::default()
        };
        let ckpt = Checkpoint::new(test_dir("boundary_clean"), &g).unwrap();
        let stats = run(&mut dev, &g, &mut store, &opts, &durable(&ckpt)).unwrap();
        assert_eq!(stats.checkpoint_commits as usize, stats.num_components - 1);
        assert!(ckpt.load().unwrap().is_none(), "cleared on completion");
        assert_eq!(store.to_dist_matrix().unwrap(), bgl_plus_apsp(&g));
    }

    #[test]
    fn interrupted_run_resumes_skipping_committed_components() {
        let g = grid_2d(10, 10, GridOptions::default(), WeightRange::default(), 35);
        let dir = test_dir("boundary_resume");
        let opts = BoundaryOptions {
            num_components: Some(6),
            batch_transfers: false,
            ..Default::default()
        };
        let mut dev = GpuDevice::new(DeviceProfile::v100());
        let mut store = TileStore::new(100, &StorageBackend::Memory).unwrap();
        // Panels write ~17 rows per component, commits tick n = 100: die
        // after a couple of components committed.
        store.arm_crash(300);
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        let err = run(&mut dev, &g, &mut store, &opts, &durable(&ckpt)).unwrap_err();
        assert_eq!(err.kind(), crate::ApspErrorKind::Storage);
        drop(store);
        let probe = Checkpoint::new(&dir, &g).unwrap();
        let m = probe.load().unwrap().expect("some component committed");
        let crate::checkpoint::Progress::Boundary { next_component, .. } = m.progress else {
            panic!("wrong progress variant {:?}", m.progress);
        };
        assert!(next_component >= 1);

        let mut dev = GpuDevice::new(DeviceProfile::v100());
        let mut store = TileStore::new(100, &StorageBackend::Memory).unwrap();
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        run(&mut dev, &g, &mut store, &opts, &durable(&ckpt)).unwrap();
        assert_eq!(store.to_dist_matrix().unwrap(), bgl_plus_apsp(&g));
        assert!(ckpt.load().unwrap().is_none());
    }

    #[test]
    fn resume_with_conflicting_partition_seed_is_rejected() {
        let g = grid_2d(10, 10, GridOptions::default(), WeightRange::default(), 37);
        let dir = test_dir("boundary_seed_conflict");
        let opts = BoundaryOptions {
            num_components: Some(6),
            batch_transfers: false,
            ..Default::default()
        };
        let mut dev = GpuDevice::new(DeviceProfile::v100());
        let mut store = TileStore::new(100, &StorageBackend::Memory).unwrap();
        store.arm_crash(300);
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        run(&mut dev, &g, &mut store, &opts, &durable(&ckpt)).unwrap_err();
        drop(store);
        let mut dev = GpuDevice::new(DeviceProfile::v100());
        let mut store = TileStore::new(100, &StorageBackend::Memory).unwrap();
        let ckpt = Checkpoint::new(&dir, &g).unwrap();
        let other_seed = BoundaryOptions {
            partition_seed: opts.partition_seed + 1,
            ..opts
        };
        let err = run(&mut dev, &g, &mut store, &other_seed, &durable(&ckpt)).unwrap_err();
        assert_eq!(err.kind(), crate::ApspErrorKind::InvalidInput, "{err}");
    }

    #[test]
    fn injected_flips_recover_bit_identical() {
        use crate::options::SdcGuardMode;
        let g = grid_2d(10, 10, GridOptions::default(), WeightRange::default(), 41);
        let reference = bgl_plus_apsp(&g);
        // One write op per store row (100 total); cover early, middle,
        // and late flush groups, and both transfer modes.
        for batch in [false, true] {
            for (after_ops, bit) in [(10u64, 11u64), (55, 3), (95, 25)] {
                let mut dev = GpuDevice::new(DeviceProfile::v100());
                let mut store = TileStore::new(100, &StorageBackend::Memory).unwrap();
                store.set_sdc_guard(SdcGuardMode::Checksum).unwrap();
                store.arm_bit_flip(after_ops, bit);
                let opts = BoundaryOptions {
                    num_components: Some(6),
                    batch_transfers: batch,
                    sdc_guard: SdcGuardMode::Checksum,
                    ..Default::default()
                };
                let stats = ooc_boundary(&mut dev, &g, &mut store, &opts).unwrap();
                assert_eq!(
                    stats.sdc_round_recoveries, 1,
                    "flip after {after_ops} ops (batch={batch}) went unnoticed"
                );
                assert_eq!(
                    store.to_dist_matrix().unwrap(),
                    reference,
                    "flip after {after_ops} ops (batch={batch})"
                );
            }
        }
    }

    #[test]
    fn exhausted_recovery_budget_surfaces_typed() {
        use crate::options::SdcGuardMode;
        use crate::supervisor::{RetryPolicy, SupervisionOptions};
        let g = grid_2d(10, 10, GridOptions::default(), WeightRange::default(), 41);
        let mut dev = GpuDevice::new(DeviceProfile::v100());
        let mut store = TileStore::new(100, &StorageBackend::Memory).unwrap();
        store.set_sdc_guard(SdcGuardMode::Checksum).unwrap();
        store.arm_bit_flip(40, 9);
        let sup = Supervisor::new(
            &SupervisionOptions {
                retry: RetryPolicy {
                    sdc_round_retries: 0,
                    ..Default::default()
                },
                ..Default::default()
            },
            0.0,
        );
        let opts = BoundaryOptions {
            num_components: Some(6),
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
    fn single_component_degenerates_to_fw() {
        let g = gnp(50, 0.1, WeightRange::default(), 23);
        let mut dev = GpuDevice::new(DeviceProfile::v100());
        let opts = BoundaryOptions {
            num_components: Some(1),
            ..Default::default()
        };
        let (result, stats) = run_boundary(&g, &mut dev, &opts);
        assert_eq!(result, bgl_plus_apsp(&g));
        assert_eq!(stats.num_components, 1);
        assert_eq!(stats.total_boundary, 0);
    }
}
