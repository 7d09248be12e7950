//! MSSP: the batched multi-source SSSP kernel of the paper's Algorithm 2.
//!
//! One kernel launch computes `bat` independent Near-Far SSSP instances,
//! one per thread block. When `bat` falls below the device's saturating
//! block count the kernel runs at reduced occupancy — the exact
//! under-utilization the paper identifies for edge-heavy graphs — unless
//! the **dynamic parallelism** option is enabled, which offloads the edge
//! lists of high-out-degree vertices to child kernels running at full
//! occupancy (at the price of device-side launch overheads).

use crate::matrix::DeviceMatrix;
use crate::model::{
    BYTES_PER_RELAXATION, FRONTIER_IRREGULARITY, OPS_PER_RELAXATION, THREADS_PER_BLOCK,
};
use crate::nearfar::{near_far_sssp, NearFarStats};
use apsp_cpu::parallel::{par_claim, sssp_work, ExecBackend};
use apsp_gpu_sim::{GpuDevice, KernelCost, LaunchConfig, StreamId};
use apsp_graph::{CsrGraph, Dist, VertexId};

/// Options for one MSSP launch.
#[derive(Debug, Clone, Copy)]
pub struct MsspOptions {
    /// Near-Far bucket width.
    pub delta: Dist,
    /// Enable the dynamic-parallelism path for high-out-degree vertices.
    pub dynamic_parallelism: bool,
    /// Out-degree above which a vertex's edge list is processed by a
    /// child kernel (ignored unless `dynamic_parallelism`).
    pub heavy_degree_threshold: usize,
    /// Host execution backend: the per-source SSSP instances are
    /// independent, so the parallel backend runs them across threads
    /// (each writes its own output row) — bit-identical to sequential.
    pub exec: ExecBackend,
}

impl MsspOptions {
    /// Defaults: Δ from the graph's mean weight must be set by the caller;
    /// dynamic parallelism off.
    pub fn new(delta: Dist) -> Self {
        MsspOptions {
            delta,
            dynamic_parallelism: false,
            heavy_degree_threshold: 1024,
            exec: ExecBackend::default(),
        }
    }
}

/// Result of one MSSP launch.
#[derive(Debug, Clone, Copy, Default)]
pub struct MsspOutcome {
    /// Aggregated Near-Far work counters over the batch.
    pub stats: NearFarStats,
    /// Device-side child launches performed (0 without dynamic
    /// parallelism).
    pub child_launches: u64,
}

/// Launch the MSSP kernel: compute SSSP from each of `sources`, storing
/// row `i` of `out` (a `sources.len() × n` device matrix) as the distance
/// vector of `sources[i]`.
pub fn mssp_kernel(
    dev: &mut GpuDevice,
    stream: StreamId,
    g: &CsrGraph,
    sources: &[VertexId],
    out: &mut DeviceMatrix,
    opts: MsspOptions,
) -> MsspOutcome {
    mssp_kernel_impl(dev, stream, g, sources, out, None, opts)
}

/// [`mssp_kernel`] that also fills `parents` (same shape as `out`) with
/// each source's shortest-path-tree predecessors (`VertexId::MAX` for the
/// source and unreachable vertices). Costs one extra store per improving
/// relaxation — charged through a slightly larger byte count.
pub fn mssp_kernel_with_parents(
    dev: &mut GpuDevice,
    stream: StreamId,
    g: &CsrGraph,
    sources: &[VertexId],
    out: &mut DeviceMatrix,
    parents: &mut DeviceMatrix,
    opts: MsspOptions,
) -> MsspOutcome {
    mssp_kernel_impl(dev, stream, g, sources, out, Some(parents), opts)
}

fn mssp_kernel_impl(
    dev: &mut GpuDevice,
    stream: StreamId,
    g: &CsrGraph,
    sources: &[VertexId],
    out: &mut DeviceMatrix,
    mut parents: Option<&mut DeviceMatrix>,
    opts: MsspOptions,
) -> MsspOutcome {
    let n = g.num_vertices();
    assert_eq!(out.rows(), sources.len(), "output row count mismatch");
    assert_eq!(out.cols(), n, "output column count mismatch");
    if let Some(p) = parents.as_deref() {
        assert_eq!(p.rows(), sources.len(), "parents row count mismatch");
        assert_eq!(p.cols(), n, "parents column count mismatch");
    }
    let bat = sources.len();
    if bat == 0 {
        return MsspOutcome::default();
    }

    // Host-exact execution, one "thread block" per source.
    let mut stats = NearFarStats::default();
    let mut max_iterations = 0u64;
    let heavy_threshold = if opts.dynamic_parallelism {
        opts.heavy_degree_threshold
    } else {
        usize::MAX
    };
    let threads = opts.exec.resolved_threads();
    if opts.exec.is_scalar() || threads <= 1 || bat == 1 {
        for (i, &src) in sources.iter().enumerate() {
            if let Some(pm) = parents.as_deref_mut() {
                let (dist, par, s) =
                    crate::nearfar::near_far_sssp_with_parents(g, src, opts.delta, heavy_threshold);
                max_iterations = max_iterations.max(s.near_iterations);
                stats.merge(&s);
                out.as_mut_slice()[i * n..(i + 1) * n].copy_from_slice(&dist);
                pm.as_mut_slice()[i * n..(i + 1) * n].copy_from_slice(&par);
            } else {
                let (dist, s) = near_far_sssp(g, src, opts.delta, heavy_threshold);
                max_iterations = max_iterations.max(s.near_iterations);
                stats.merge(&s);
                out.as_mut_slice()[i * n..(i + 1) * n].copy_from_slice(&dist);
            }
        }
    } else {
        // The SSSP instances are independent and uneven in cost, so
        // workers claim sources one at a time. Each writes only its own
        // rows of `out`/`parents` and its own stats slot, and the stats
        // merge in source order below, so the aggregate matches the
        // sequential loop exactly.
        let track_parents = parents.is_some();
        let mut parent_rows = parents
            .as_deref_mut()
            .map(|p| p.as_mut_slice().chunks_mut(n));
        let mut slots: Vec<_> = out
            .as_mut_slice()
            .chunks_mut(n)
            .map(|row| {
                let par = parent_rows.as_mut().and_then(Iterator::next);
                (row, par, NearFarStats::default())
            })
            .collect();
        par_claim(&mut slots, threads, sssp_work(n, g.num_edges()), |claims| {
            // One scratch per worker: the reference backend allocates
            // per source, the optimized backends amortize the six
            // working buffers across the worker's sources (identical
            // traversal, bit-identical distances — see
            // [`crate::nearfar::NearFarScratch`]).
            let mut scratch = crate::nearfar::NearFarScratch::new(n);
            for (i, (row, par, s)) in claims {
                *s = crate::nearfar::near_far_sssp_scratch(
                    g,
                    sources[i],
                    opts.delta,
                    heavy_threshold,
                    &mut scratch,
                    track_parents,
                );
                row.copy_from_slice(scratch.dist());
                if let Some(par) = par {
                    par.copy_from_slice(scratch.parents());
                }
            }
        });
        for (_, _, s) in &slots {
            max_iterations = max_iterations.max(s.near_iterations);
            stats.merge(s);
        }
    }

    // Device-time accounting. Frontier iterations serialize on memory
    // latency within each block; with `eff` blocks resident concurrently
    // the batch's summed iterations drain in waves, bounding the kernel
    // from below.
    let launch = LaunchConfig::new(bat as u32, THREADS_PER_BLOCK);
    let eff_blocks = (bat as u32).min(dev.profile().saturating_blocks).max(1) as f64;
    let iter_floor = stats.near_iterations as f64 / eff_blocks * dev.profile().frontier_iter_floor;
    // Parent tracking stores one extra word per improving relaxation.
    let bytes_per_relax = if parents.is_some() {
        BYTES_PER_RELAXATION + 8.0
    } else {
        BYTES_PER_RELAXATION
    };
    if !opts.dynamic_parallelism {
        let relax = stats.total_relaxations() as f64;
        dev.launch(
            stream,
            "mssp",
            launch,
            KernelCost::irregular(
                relax * OPS_PER_RELAXATION,
                relax * bytes_per_relax,
                FRONTIER_IRREGULARITY,
            )
            .with_min_seconds(iter_floor),
        );
        MsspOutcome {
            stats,
            child_launches: 0,
        }
    } else {
        // Parent kernel: the light relaxations at batch-limited occupancy,
        // plus two child launches per *global* traversal iteration (gather
        // edge lists, traverse partitions — the paper's two child
        // kernels). Blocks iterate in lock-step with the slowest SSSP, so
        // the launch count follows the max iteration count, not the sum.
        let light = stats.relaxations as f64;
        let child_launches = 2 * max_iterations;
        dev.launch_with_children(
            stream,
            "mssp_dynpar",
            launch,
            KernelCost::irregular(
                light * OPS_PER_RELAXATION,
                light * bytes_per_relax,
                FRONTIER_IRREGULARITY,
            )
            .with_min_seconds(iter_floor),
            child_launches,
        );
        // Child kernels: heavy edge lists, partitioned into equal chunks
        // across blocks ⇒ full occupancy and better coalescing (lower
        // irregularity).
        let heavy = stats.heavy_relaxations as f64;
        if heavy > 0.0 {
            dev.launch(
                stream,
                "mssp_child",
                LaunchConfig::saturating(),
                KernelCost::irregular(
                    heavy * OPS_PER_RELAXATION,
                    heavy * BYTES_PER_RELAXATION,
                    FRONTIER_IRREGULARITY / 2.0,
                ),
            );
        }
        MsspOutcome {
            stats,
            child_launches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_cpu::dijkstra_sssp;
    use apsp_gpu_sim::DeviceProfile;
    use apsp_graph::generators::{gnp, rmat, RmatParams, WeightRange};

    fn dev() -> GpuDevice {
        GpuDevice::new(DeviceProfile::v100())
    }

    #[test]
    fn batch_rows_match_dijkstra() {
        let g = gnp(120, 0.05, WeightRange::default(), 8);
        let mut d = dev();
        let s = d.default_stream();
        let sources = [3u32, 50, 119];
        let mut out = DeviceMatrix::alloc_inf(&d, 3, 120).unwrap();
        mssp_kernel(&mut d, s, &g, &sources, &mut out, MsspOptions::new(25));
        for (i, &src) in sources.iter().enumerate() {
            assert_eq!(
                &out.as_slice()[i * 120..(i + 1) * 120],
                &dijkstra_sssp(&g, src)[..],
                "source {src}"
            );
        }
    }

    #[test]
    fn dynamic_parallelism_preserves_results() {
        let g = rmat(
            256,
            4096,
            RmatParams::scale_free(),
            WeightRange::default(),
            5,
        );
        let sources: Vec<u32> = (0..16).collect();
        let mut d1 = dev();
        let mut d2 = dev();
        let s = d1.default_stream();
        let mut out1 = DeviceMatrix::alloc_inf(&d1, 16, 256).unwrap();
        let mut out2 = DeviceMatrix::alloc_inf(&d2, 16, 256).unwrap();
        let base = MsspOptions::new(25);
        let dp = MsspOptions {
            dynamic_parallelism: true,
            heavy_degree_threshold: 16,
            ..base
        };
        mssp_kernel(&mut d1, s, &g, &sources, &mut out1, base);
        let s2 = d2.default_stream();
        mssp_kernel(&mut d2, s2, &g, &sources, &mut out2, dp);
        assert_eq!(out1.as_slice(), out2.as_slice());
    }

    #[test]
    fn small_batches_run_at_low_occupancy() {
        // Same total work split into small batches must take longer than
        // one saturating batch, because each small launch under-fills the
        // device.
        let g = gnp(400, 0.03, WeightRange::default(), 6);
        let all: Vec<u32> = (0..400).collect();
        let run = |chunks: usize| {
            let mut d = dev();
            let s = d.default_stream();
            for chunk in all.chunks(chunks) {
                let mut out = DeviceMatrix::alloc_inf(&d, chunk.len(), 400).unwrap();
                mssp_kernel(&mut d, s, &g, chunk, &mut out, MsspOptions::new(25));
            }
            d.synchronize().seconds()
        };
        let small = run(8); // far below saturating_blocks = 160
        let large = run(400);
        assert!(small > 2.0 * large, "small {small} vs large {large}");
    }

    #[test]
    fn dynamic_parallelism_helps_hubby_graphs_at_small_batch() {
        // Scale-free graph, batch of 8 (≪ saturating blocks): offloading
        // hub edges to full-occupancy children should beat the plain
        // kernel despite the child-launch overheads.
        let g = rmat(
            2048,
            65536,
            RmatParams::scale_free(),
            WeightRange::default(),
            11,
        );
        let sources: Vec<u32> = (0..8).collect();
        let run = |dynamic: bool| {
            let mut d = dev();
            let s = d.default_stream();
            let mut out = DeviceMatrix::alloc_inf(&d, 8, 2048).unwrap();
            let opts = MsspOptions {
                dynamic_parallelism: dynamic,
                heavy_degree_threshold: 64,
                ..MsspOptions::new(25)
            };
            let outcome = mssp_kernel(&mut d, s, &g, &sources, &mut out, opts);
            (d.synchronize().seconds(), outcome)
        };
        let (plain, _) = run(false);
        let (dynpar, outcome) = run(true);
        assert!(outcome.child_launches > 0);
        assert!(
            dynpar < plain,
            "dynamic parallelism {dynpar} should beat plain {plain}"
        );
    }

    #[test]
    fn exec_backends_bit_identical_with_parents() {
        let small = gnp(150, 0.05, WeightRange::default(), 13);
        // 64 sources of rmat(512, 4096) clear the dispatch floor for 3
        // workers, so the threaded cases really run on 2 and 3 threads.
        let large = rmat(
            512,
            4096,
            RmatParams::scale_free(),
            WeightRange::default(),
            17,
        );
        let work = sssp_work(512, large.num_edges());
        assert_eq!(apsp_cpu::parallel::claim_workers(64, 3, work), 3);
        let cases: [(&CsrGraph, Vec<u32>); 2] =
            [(&small, vec![0, 7, 77, 149]), (&large, (0..64).collect())];
        for (g, sources) in &cases {
            let n = g.num_vertices();
            let k = sources.len();
            for with_parents in [false, true] {
                for dynamic_parallelism in [false, true] {
                    let run = |exec: ExecBackend| {
                        let mut d = dev();
                        let s = d.default_stream();
                        let mut out = DeviceMatrix::alloc_inf(&d, k, n).unwrap();
                        let mut parents = DeviceMatrix::alloc_inf(&d, k, n).unwrap();
                        let opts = MsspOptions {
                            exec,
                            dynamic_parallelism,
                            heavy_degree_threshold: 16,
                            ..MsspOptions::new(25)
                        };
                        let outcome = if with_parents {
                            mssp_kernel_with_parents(
                                &mut d,
                                s,
                                g,
                                sources,
                                &mut out,
                                &mut parents,
                                opts,
                            )
                        } else {
                            mssp_kernel(&mut d, s, g, sources, &mut out, opts)
                        };
                        (
                            out.as_slice().to_vec(),
                            parents.as_slice().to_vec(),
                            outcome.stats,
                            outcome.child_launches,
                            d.synchronize().seconds(),
                        )
                    };
                    let scalar = run(ExecBackend::Scalar);
                    assert_eq!(scalar.3 > 0, dynamic_parallelism);
                    for threads in [1usize, 2, 3] {
                        let at = format!(
                            "n {n}, {threads} threads, parents {with_parents}, dynpar {dynamic_parallelism}"
                        );
                        let fast = run(ExecBackend::Parallel {
                            threads: Some(threads),
                        });
                        assert!(fast == scalar, "parallel: {at}");
                        let simd = run(ExecBackend::Simd {
                            threads: Some(threads),
                        });
                        assert!(simd == scalar, "simd: {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn bench_sized_batches_dispatch_and_tiny_ones_stay_inline() {
        use apsp_cpu::parallel::claim_workers;
        // A batch of 55 sources on rmat(2048, 16384) and one of 90 on a
        // 48 × 48 grid each fill two workers.
        assert_eq!(claim_workers(55, 2, sssp_work(2048, 16384)), 2);
        assert_eq!(claim_workers(90, 2, sssp_work(2304, 9024)), 2);
        let tiny = gnp(10, 0.2, WeightRange::default(), 1);
        assert_eq!(claim_workers(10, 2, sssp_work(10, tiny.num_edges())), 1);
    }

    #[test]
    fn empty_batch_is_free() {
        let g = gnp(10, 0.2, WeightRange::default(), 1);
        let mut d = dev();
        let s = d.default_stream();
        let mut out = DeviceMatrix::alloc_inf(&d, 0, 10).unwrap();
        let outcome = mssp_kernel(&mut d, s, &g, &[], &mut out, MsspOptions::new(5));
        assert_eq!(outcome.stats.total_relaxations(), 0);
        assert_eq!(d.elapsed().seconds(), 0.0);
    }
}
