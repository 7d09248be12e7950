//! `bench_kernels` — wall-clock scalar vs simd backend comparison.
//!
//! ```text
//! bench_kernels [options]
//!
//!   --smoke        reduced sizes + CI gates: exit 1 unless (when an
//!                  accelerated ISA is active) the simd backend beats
//!                  scalar by >= 3x on the medium min-plus shape
//!   --out <path>   where to write the JSON report (default
//!                  BENCH_kernels.json in the current directory; a
//!                  --smoke run writes one only when --out is given)
//!   --reps <n>     timing repetitions per case, best-of (default 3)
//!   --metrics-out <path>   also write the per-case telemetry JSONL
//!                  (one run report per out-of-core case, concatenated)
//!   --calibration-dir <dir>   persist selector calibration across the
//!                  out-of-core cases: each run folds its realized
//!                  seconds back into the per-device-profile store
//!   --sdc-guard off|checksum|full   run the out-of-core cases with the
//!                  silent-corruption guard at this level (default off)
//! ```
//!
//! Three families of cases:
//!
//! * **min-plus GEMM** on square shapes and on the ragged shapes the
//!   benchmark workloads run (`dense-fw-durable`'s FW tile and its edge,
//!   `fleet-hetero`'s dist₄ products), named `minplus-<rows>x<inner>x<cols>`
//!   — the tile kernel every out-of-core driver spends its time in,
//!   timed directly against both backends on identical operands;
//! * **in-device blocked FW** at the in-device tile side of 64 — the host
//!   loop of `fw_device_exec`, at the shapes the benchmark workloads
//!   hand it: n = 114 (`dense-fw-durable`'s diagonal tile), 288
//!   (`fleet-hetero`'s components) and 368 (its boundary graph);
//! * **full out-of-core runs** — the three algorithms crossed with
//!   `Memory`/`Disk` storage on a deliberately small simulated device,
//!   so the host-side tile loops (what the backend accelerates)
//!   dominate.
//!
//! Every case records wall-clock seconds for each backend, the simd
//! speedup over scalar, the resolved thread count, and an FNV-1a
//! checksum of the result — which must be bit-identical across both
//! backends or the binary exits non-zero. Each console line ends in
//! that checksum, so a diff of two runs' output shows bit-identity.
//!
//! `--smoke` additionally gates the silent-corruption guard's overhead,
//! and prints it as a ratio: a representative out-of-core run with
//! `--sdc-guard checksum` may cost at most 5% wall-clock over the
//! unguarded run, plus a 10 ms floor so timer noise at smoke sizes
//! cannot flake the gate. The guard's real cost is about 5%: on a 2-vCPU
//! VM it measured a median 1.04–1.06× the unguarded time at n = 96–320,
//! quartiles 1.02–1.10× (see `SdcGuardMode::Checksum`), so at smoke
//! sizes the gate still passes through its floor.

use apsp_core::options::{Algorithm, SdcGuardMode};
use apsp_core::telemetry::json_escape;
use apsp_core::{apsp, ApspOptions, RunReport, StorageBackend};
use apsp_cpu::parallel::minplus_tile_exec;
use apsp_cpu::{blocked_floyd_warshall_exec, DistMatrix, ExecBackend};
use apsp_gpu_sim::{DeviceProfile, GpuDevice};
use apsp_graph::generators::{gnp, WeightRange};
use apsp_graph::{fnv1a, CsrGraph, Dist, FNV_OFFSET_BASIS, INF};
use apsp_kernels::fw_block::FW_TILE;
use std::time::Instant;

/// FNV-1a over the little-endian bytes of `values`.
fn fnv1a_dists(values: &[Dist]) -> u64 {
    values
        .iter()
        .fold(FNV_OFFSET_BASIS, |h, v| fnv1a(&v.to_le_bytes(), h))
}

/// Deterministic operand cells: mostly finite weights with INF holes,
/// so the scalar kernel's INF fast path stays exercised.
fn random_cells(len: usize, seed: u64) -> Vec<Dist> {
    let mut state = seed | 1;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        out.push(if state.is_multiple_of(8) {
            INF
        } else {
            (state % 10_000) as Dist
        });
    }
    out
}

fn time_best<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

struct CaseResult {
    kind: &'static str,
    name: String,
    n: usize,
    scalar_secs: f64,
    simd_secs: f64,
    checksum: u64,
    bit_identical: bool,
    /// Run telemetry from the simd-backend rep (ooc cases only).
    telemetry: Option<RunReport>,
}

impl CaseResult {
    fn simd_speedup(&self) -> f64 {
        if self.simd_secs > 0.0 {
            self.scalar_secs / self.simd_secs
        } else {
            0.0
        }
    }

    /// One console line: both times, the speedup, the parity verdict
    /// and the checksum.
    fn summary(&self) -> String {
        format!(
            "  {:<20} scalar {:>9.4}s  simd {:>9.4}s ({:>5.2}x)  {}  {:#018x}",
            self.name,
            self.scalar_secs,
            self.simd_secs,
            self.simd_speedup(),
            if self.bit_identical {
                "exact"
            } else {
                "MISMATCH"
            },
            self.checksum,
        )
    }
}

/// `C = min(C, A ⊗ B)` with C `rows × cols`, A `rows × inner` and B
/// `inner × cols`.
fn bench_minplus(
    name: String,
    (rows, inner, cols): (usize, usize, usize),
    reps: usize,
) -> CaseResult {
    let a = random_cells(rows * inner, 0x1234_5678 ^ rows as u64);
    let b = random_cells(inner * cols, 0x9ABC_DEF0 ^ cols as u64);
    let c0 = random_cells(rows * cols, 0x0F1E_2D3C ^ inner as u64);

    let time = |exec: ExecBackend| {
        let mut c = c0.clone();
        let secs = time_best(reps, || {
            c.copy_from_slice(&c0);
            minplus_tile_exec(&mut c, cols, &a, inner, &b, cols, rows, inner, cols, exec);
        });
        (secs, c)
    };
    let (scalar_secs, c_scalar) = time(ExecBackend::scalar());
    let (simd_secs, c_simd) = time(ExecBackend::simd());

    CaseResult {
        kind: "minplus",
        name,
        n: rows,
        scalar_secs,
        simd_secs,
        checksum: fnv1a_dists(&c_scalar),
        bit_identical: c_scalar == c_simd,
        telemetry: None,
    }
}

fn bench_fw(n: usize, reps: usize) -> CaseResult {
    let input = random_cells(n * n, 0x5EED_F10D ^ n as u64);
    let time = |exec: ExecBackend| {
        let mut m = DistMatrix::from_raw(n, input.clone());
        let secs = time_best(reps, || {
            m.as_mut_slice().copy_from_slice(&input);
            blocked_floyd_warshall_exec(&mut m, FW_TILE, exec);
        });
        (secs, m)
    };
    let (scalar_secs, m_scalar) = time(ExecBackend::scalar());
    let (simd_secs, m_simd) = time(ExecBackend::simd());

    CaseResult {
        kind: "fw",
        name: format!("blocked-fw-{n}"),
        n,
        scalar_secs,
        simd_secs,
        checksum: fnv1a_dists(m_scalar.as_slice()),
        bit_identical: m_scalar == m_simd,
        telemetry: None,
    }
}

fn run_ooc(
    graph: &CsrGraph,
    algorithm: Algorithm,
    storage: &StorageBackend,
    exec: ExecBackend,
    calibration_dir: Option<&std::path::Path>,
    sdc_guard: SdcGuardMode,
    telemetry: bool,
) -> (f64, u64, Option<RunReport>) {
    // 256 KiB keeps every case genuinely out-of-core (the full matrix
    // never fits). Boundary additionally needs its k-partition working
    // set resident — at the full-mode n that minimum exceeds 256 KiB —
    // so it gets 1 MiB and still streams per-pair block products.
    let mem = match algorithm {
        Algorithm::Boundary => 1 << 20,
        _ => 256 << 10,
    };
    let mut dev = GpuDevice::new(DeviceProfile::v100().with_memory_bytes(mem));
    let opts = ApspOptions {
        algorithm: Some(algorithm),
        storage: storage.clone(),
        exec,
        // Timed reps run with telemetry off: enabling it triggers a
        // shadow selection whose sampled probe batches are real host
        // work, a fixed cost identical across backends that would dilute
        // every speedup toward 1.0. The artifact's run report comes from
        // one separate untimed telemetry pass instead.
        telemetry,
        calibration_dir: calibration_dir.map(|d| d.to_path_buf()),
        sdc_guard,
        ..Default::default()
    };
    let t = Instant::now();
    let result = apsp(graph, &mut dev, &opts).expect("ooc benchmark run failed");
    let secs = t.elapsed().as_secs_f64();
    let checksum = result
        .store
        .panel_checksums(graph.num_vertices().max(1))
        .expect("checksum read failed")
        .first()
        .copied()
        .unwrap_or(FNV_OFFSET_BASIS);
    (secs, checksum, result.telemetry)
}

fn bench_ooc(
    graph: &CsrGraph,
    algorithm: Algorithm,
    disk: bool,
    reps: usize,
    calibration_dir: Option<&std::path::Path>,
    sdc_guard: SdcGuardMode,
) -> CaseResult {
    let alg_name = algorithm.tag();
    let scratch = std::env::temp_dir().join("apsp-bench-kernels");
    let storage = if disk {
        StorageBackend::Disk(scratch)
    } else {
        StorageBackend::Memory
    };

    // Whole-pipeline runs are short (tens of ms) and the container's
    // timing noise at that scale swamps real backend margins, so the
    // out-of-core cases take a higher best-of floor than the dense
    // kernels. The backend order also rotates every rep: any slow drift
    // across the rep loop (page cache, co-tenant load) then hits each
    // backend's sample set equally instead of always taxing whichever
    // backend runs last.
    let mut secs = [f64::INFINITY; 2];
    let mut sums = [0u64; 2];
    let backends = [ExecBackend::scalar(), ExecBackend::simd()];
    for rep in 0..reps.max(12) {
        for lane in 0..2 {
            let b = (rep + lane) % 2;
            let (s, c, _) = run_ooc(
                graph,
                algorithm,
                &storage,
                backends[b],
                calibration_dir,
                sdc_guard,
                false,
            );
            secs[b] = secs[b].min(s);
            sums[b] = c;
        }
    }
    let [scalar_secs, simd_secs] = secs;
    let [scalar_sum, simd_sum] = sums;
    // Untimed pass to harvest the run report (telemetry on).
    let (_, _, telemetry) = run_ooc(
        graph,
        algorithm,
        &storage,
        ExecBackend::simd(),
        calibration_dir,
        sdc_guard,
        true,
    );

    CaseResult {
        kind: "ooc",
        name: format!("{alg_name}-{}", if disk { "disk" } else { "memory" }),
        n: graph.num_vertices(),
        scalar_secs,
        simd_secs,
        checksum: scalar_sum,
        bit_identical: scalar_sum == simd_sum,
        telemetry,
    }
}

fn json_opt_secs(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.6}"),
        None => "null".into(),
    }
}

/// The compact telemetry object embedded per out-of-core case:
/// aggregated phase spans plus the selector calibration records.
fn telemetry_json(t: &RunReport) -> String {
    let phases = t
        .aggregated_phases()
        .iter()
        .map(|(name, count, seconds)| {
            format!(
                "{{\"name\": \"{}\", \"count\": {count}, \"seconds\": {seconds:.6}}}",
                json_escape(name)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let calibration = t
        .calibration
        .iter()
        .map(|c| {
            format!(
                "{{\"algorithm\": \"{}\", \"predicted_s\": {}, \"seed_predicted_s\": {}, \"selected\": {}, \"realized_s\": {}}}",
                c.algorithm,
                json_opt_secs(c.predicted_s),
                json_opt_secs(c.seed_predicted_s),
                c.selected,
                json_opt_secs(c.realized_s),
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"sim_seconds\": {:.6}, \"bytes_h2d\": {}, \"bytes_d2h\": {}, \
         \"kernel_launches\": {}, \"overlap_efficiency\": {:.6}, \
         \"phases\": [{phases}], \"calibration\": [{calibration}]}}",
        t.sim_seconds, t.bytes_h2d, t.bytes_d2h, t.kernel_launches, t.overlap_efficiency,
    )
}

fn write_report(
    path: &str,
    smoke: bool,
    reps: usize,
    threads: usize,
    cases: &[CaseResult],
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"generated_by\": \"bench_kernels\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"reps\": {reps},\n"));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!(
        "  \"simd_isa\": \"{}\",\n",
        apsp_cpu::simd::active_isa()
    ));
    out.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        let telemetry = match &c.telemetry {
            Some(t) => format!(", \"telemetry\": {}", telemetry_json(t)),
            None => String::new(),
        };
        out.push_str(&format!(
            "    {{\"kind\": \"{}\", \"name\": \"{}\", \"n\": {}, \
             \"scalar_secs\": {:.6}, \"simd_secs\": {:.6}, \
             \"simd_speedup\": {:.3}, \"checksum\": \"{:#018x}\", \
             \"bit_identical\": {}{}}}{}\n",
            json_escape(c.kind),
            json_escape(&c.name),
            c.n,
            c.scalar_secs,
            c.simd_secs,
            c.simd_speedup(),
            c.checksum,
            c.bit_identical,
            telemetry,
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
}

/// Where the JSON report goes: `--out` when given, else the committed
/// `BENCH_kernels.json` for a full run. A smoke run without `--out`
/// writes none, so it cannot overwrite the committed full-mode numbers.
fn report_path(smoke: bool, out: Option<String>) -> Option<String> {
    out.or_else(|| (!smoke).then(|| "BENCH_kernels.json".to_string()))
}

fn main() {
    let mut smoke = false;
    let mut out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut calibration_dir: Option<std::path::PathBuf> = None;
    let mut sdc_guard = SdcGuardMode::Off;
    let mut reps = 3usize;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = Some(it.next().expect("--out needs a value")),
            "--metrics-out" => metrics_out = Some(it.next().expect("--metrics-out needs a value")),
            "--calibration-dir" => {
                calibration_dir = Some(std::path::PathBuf::from(
                    it.next().expect("--calibration-dir needs a value"),
                ))
            }
            "--sdc-guard" => {
                sdc_guard = it
                    .next()
                    .expect("--sdc-guard needs a value")
                    .parse()
                    .expect("bad --sdc-guard (want off|checksum|full)")
            }
            "--reps" => {
                reps = it
                    .next()
                    .expect("--reps needs a value")
                    .parse()
                    .expect("bad --reps")
            }
            other => {
                eprintln!("unexpected argument '{other}'");
                eprintln!(
                    "usage: bench_kernels [--smoke] [--out path] [--reps n] [--metrics-out path] [--calibration-dir dir] [--sdc-guard off|checksum|full]"
                );
                std::process::exit(2);
            }
        }
    }

    let threads = ExecBackend::default().resolved_threads();
    let simd_isa = apsp_cpu::simd::active_isa();
    println!(
        "bench_kernels: {} mode, {reps} rep(s), {threads} thread(s), simd isa: {simd_isa}",
        if smoke { "smoke" } else { "full" }
    );

    let minplus_shapes: &[usize] = if smoke {
        &[64, 128, 192]
    } else {
        &[96, 256, 448]
    };
    // Full-mode OOC shape: big enough that tile kernels dominate the
    // wall clock. At n=160 the fixed driver overhead (staging, sim
    // bookkeeping) was ~2/3 of each run, pinning backend ratios to
    // 1.0 +- timer noise; at n=320 the cubic kernel work decides them.
    let ooc_n = if smoke { 96 } else { 320 };

    // The ragged shapes the drivers run: dense-fw-durable's 114-wide FW
    // tile and its 84-wide edge (768 = 6 × 114 + 84), and fleet-hetero's
    // two dist₄ products, component × its boundary × another's boundary
    // and component × boundary × component.
    let ragged_shapes = [
        (114, 114, 114),
        (114, 114, 84),
        (316, 63, 34),
        (283, 46, 283),
    ];

    let mut cases = Vec::new();
    let square = minplus_shapes
        .iter()
        .map(|&n| (format!("minplus-{n}"), (n, n, n)));
    let ragged = ragged_shapes.map(|(r, k, c)| (format!("minplus-{r}x{k}x{c}"), (r, k, c)));
    for (name, shape) in square.chain(ragged) {
        let c = bench_minplus(name, shape, reps);
        println!("{}", c.summary());
        cases.push(c);
    }
    for n in [114, 288, 368] {
        let c = bench_fw(n, reps);
        println!("{}", c.summary());
        cases.push(c);
    }

    let graph = gnp(ooc_n, 0.06, WeightRange::default(), 0xBE7C);
    for algorithm in [
        Algorithm::FloydWarshall,
        Algorithm::Johnson,
        Algorithm::Boundary,
    ] {
        for disk in [false, true] {
            let c = bench_ooc(
                &graph,
                algorithm,
                disk,
                reps,
                calibration_dir.as_deref(),
                sdc_guard,
            );
            println!("{}", c.summary());
            cases.push(c);
        }
    }

    if let Some(path) = report_path(smoke, out) {
        if let Err(e) = write_report(&path, smoke, reps, threads, &cases) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }

    if let Some(path) = &metrics_out {
        let jsonl: String = cases
            .iter()
            .filter_map(|c| c.telemetry.as_ref())
            .map(RunReport::to_jsonl)
            .collect();
        if let Err(e) = std::fs::write(path, jsonl) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }

    if let Some(c) = cases.iter().find(|c| !c.bit_identical) {
        eprintln!("FAIL: {} is not bit-identical across backends", c.name);
        std::process::exit(1);
    }
    if smoke {
        // SDC-overhead gate: the checksum guard on a representative
        // out-of-core run may cost at most 5% wall-clock over the
        // unguarded run. A 10 ms absolute floor keeps timer noise at
        // smoke sizes from flaking the gate.
        let time_guarded = |mode: SdcGuardMode| {
            let mut best = f64::INFINITY;
            for _ in 0..reps.max(3) {
                let (s, _, _) = run_ooc(
                    &graph,
                    Algorithm::FloydWarshall,
                    &StorageBackend::Memory,
                    ExecBackend::simd(),
                    None,
                    mode,
                    false,
                );
                best = best.min(s);
            }
            best
        };
        let off = time_guarded(SdcGuardMode::Off);
        let checksum = time_guarded(SdcGuardMode::Checksum);
        let budget = (off * 1.05).max(off + 0.010);
        let ratio = checksum / off;
        if checksum > budget {
            eprintln!(
                "FAIL: sdc checksum guard costs {checksum:.4}s vs {off:.4}s unguarded \
                 ({ratio:.2}×, budget {budget:.4}s)"
            );
            std::process::exit(1);
        }
        println!(
            "sdc overhead gate passed: checksum {checksum:.4}s vs off {off:.4}s \
             ({ratio:.2}×, budget {budget:.4}s)"
        );

        // CI gate: the register-tiled micro-kernel's floor on the
        // largest square smoke min-plus shape, whose bands run long
        // enough that the pool's hand-off is noise. Only enforceable
        // when an accelerated ISA is running: the portable micro-kernel's floor,
        // 1.5x, is apsp-cpu's ignored `simd_minplus_beats_scalar_by_1_5x`,
        // which CI's no-simd leg runs alone.
        if simd_isa == "portable" {
            println!("smoke gate skipped: simd micro-kernel running portable fallback");
            return;
        }
        // Re-time the gate shape with elevated reps: the gate compares
        // two short measurements, and on noisy (virtualized) runners a
        // single unlucky rep can swing the ratio by 2-3x. Best-of-9
        // keeps the gate about the kernels, not the scheduler.
        let gate_side = *minplus_shapes.last().expect("no minplus shapes");
        let gate_name = format!("minplus-{gate_side}");
        let gate_case = bench_minplus(gate_name, (gate_side, gate_side, gate_side), reps.max(9));
        if gate_case.simd_speedup() < 3.0 {
            eprintln!(
                "FAIL: {} simd speedup {:.2}x < 3.0x gate (isa {simd_isa})",
                gate_case.name,
                gate_case.simd_speedup()
            );
            std::process::exit(1);
        }
        println!(
            "smoke gate passed: {} simd at {:.2}x (>= 3.0x, isa {simd_isa})",
            gate_case.name,
            gate_case.simd_speedup()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::report_path;

    #[test]
    fn a_smoke_run_writes_a_report_only_where_out_names_one() {
        let out = Some("x.json".to_string());
        assert_eq!(report_path(true, None), None);
        assert_eq!(report_path(true, out.clone()), out);
        assert_eq!(report_path(false, None).unwrap(), "BENCH_kernels.json");
        assert_eq!(report_path(false, out.clone()), out);
    }
}
