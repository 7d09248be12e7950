//! `apsp-run` — compute APSP for a real graph file on a simulated device,
//! or replay a seeded job trace against the serving scheduler.
//!
//! ```text
//! apsp-run <graph.mtx|graph.gr> [options]
//! apsp-run serve [serve options]
//!
//!   --device v100|k80        device profile          (default v100)
//!   --devices <n>            run the sharded multi-device boundary
//!                            executor across n copies of --device
//!   --fleet <p1,p2,...>      explicit heterogeneous fleet (e.g.
//!                            v100,k80); implies the multi-device path
//!   --memory-mib <n>         override device memory (per device)
//!   --algorithm fw|johnson|boundary   force an implementation
//!   --spill <dir>            disk-backed result store
//!   --checkpoint-dir <dir>   commit crash-safe progress to this directory
//!   --resume                 continue from a checkpoint left in --checkpoint-dir
//!   --scale <s>              apply reproduction scaling rules to the profile
//!   --deadline-ms <n>        abort with a typed error once the simulated
//!                            clock passes this wall-clock budget
//!   --progress-budget-ms <n> declare a stall if no barrier commits within
//!                            this budget (watchdog)
//!   --fallback               on an unrecoverable algorithm failure, mask it
//!                            and re-enter the selector instead of erroring
//!   --sdc-guard off|checksum|full   silent-corruption guard level
//!                            (default off): checksum re-verifies per-panel
//!                            FNV hashes at every barrier, full adds the
//!                            semantic ABFT invariants (zero diagonal, INF
//!                            ceiling, monotone row sums, sampled triangle
//!                            inequality) and arms the recovery ladder
//!   --error-json             on a typed failure, print a single-line JSON
//!                            summary ({"error": <kind>, "detail": ...}) to
//!                            stdout before the nonzero exit, so harnesses
//!                            can distinguish SilentCorruption from, e.g.,
//!                            DeadlineExceeded without scraping stderr
//!   --backend scalar|parallel|simd   host execution backend  (default parallel)
//!   --threads <n>            thread count for the parallel/simd backends
//!                            (default: RAYON_NUM_THREADS or all cores)
//!   --sources <i,j,k>        partial query: compute only these source rows
//!                            through the Johnson batch driver instead of
//!                            the full n × n matrix — k sources move O(k·n),
//!                            not O(n²)
//!   --sample <count>         print this many random distances (default 3)
//!   --verify <rows>          re-derive this many random rows with Dijkstra
//!   --trace                  print the device Gantt chart afterwards
//!   --gantt                  alias for --trace
//!   --metrics-out <path>     enable run telemetry and write the JSONL
//!                            report (phase spans, transfer counters,
//!                            selector calibration) to this file
//!   --calibration-dir <dir>  persist per-device-profile selector
//!                            calibration in this directory: the run
//!                            consults the learned coefficients and folds
//!                            its realized seconds back in at the end
//!   --calibration-report     after the run, print the calibration
//!                            store's per-coefficient summary
//!                            (needs --calibration-dir)
//!
//! serve options:
//!   --seed <n>               trace seed                      (default 0x5EED)
//!   --jobs <n>               jobs to replay                  (default 16)
//!   --graphs <n>             hot-graph pool size             (default 3)
//!   --devices <n>            fleet size                      (default 2)
//!   --device v100|k80        fleet device profile            (default v100)
//!   --memory-mib <n>         per-device memory override      (default 0.5 MiB)
//!   --queue-capacity <n>     admission-queue bound           (default 5)
//!   --cache-capacity <n>     result-cache entries            (default 8)
//!   --checkpoint-root <dir>  keep expired jobs' checkpoints here for
//!                            warm resubmission
//!   --strict                 abort the replay on the first typed service
//!                            rejection, queued cancellation, or job
//!                            failure, exiting with that kind's code
//!   --error-json             with --strict, print the typed kind as a
//!                            single JSON line before the nonzero exit
//!   --metrics-out <path>     write the service telemetry JSONL (one
//!                            "service" summary record + one "job" record
//!                            per job) to this file
//! ```
//!
//! Exit codes (the README table): 0 success, 1 compute failure,
//! 2 usage, 20 `Busy`, 21 `QueueFull`, 22 `JobCancelled`.
//!
//! Drop in a SuiteSparse `.mtx` or a DIMACS `.gr` road network and this
//! runs the paper's full pipeline on it: selector, out-of-core execution,
//! profiler report.

use apsp_core::options::{Algorithm, ExecBackend, SdcGuardMode};
use apsp_core::{apsp, ApspOptions, CheckpointOptions, StorageBackend, SupervisionOptions};
use apsp_gpu_sim::{DeviceProfile, GpuDevice};
use apsp_graph::io::{read_matrix_market, WeightMode};
use apsp_graph::io_dimacs::read_dimacs;
use apsp_graph::CsrGraph;
use std::path::PathBuf;

struct Args {
    path: PathBuf,
    device: String,
    devices: Option<usize>,
    fleet: Option<String>,
    memory_mib: Option<u64>,
    algorithm: Option<Algorithm>,
    spill: Option<PathBuf>,
    checkpoint_dir: Option<PathBuf>,
    resume: bool,
    scale: Option<usize>,
    deadline_ms: Option<u64>,
    progress_budget_ms: Option<u64>,
    fallback: bool,
    sdc_guard: SdcGuardMode,
    error_json: bool,
    backend: String,
    threads: Option<usize>,
    sources: Option<Vec<usize>>,
    sample: usize,
    verify: usize,
    trace: bool,
    metrics_out: Option<PathBuf>,
    calibration_dir: Option<PathBuf>,
    calibration_report: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        path: PathBuf::new(),
        device: "v100".into(),
        devices: None,
        fleet: None,
        memory_mib: None,
        algorithm: None,
        spill: None,
        checkpoint_dir: None,
        resume: false,
        scale: None,
        deadline_ms: None,
        progress_budget_ms: None,
        fallback: false,
        sdc_guard: SdcGuardMode::Off,
        error_json: false,
        backend: "parallel".into(),
        threads: None,
        sources: None,
        sample: 3,
        verify: 0,
        trace: false,
        metrics_out: None,
        calibration_dir: None,
        calibration_report: false,
    };
    let mut it = std::env::args().skip(1);
    let mut got_path = false;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--device" => args.device = it.next().ok_or("--device needs a value")?,
            "--devices" => {
                args.devices = Some(
                    it.next()
                        .ok_or("--devices needs a value")?
                        .parse()
                        .map_err(|_| "bad --devices")?,
                )
            }
            "--fleet" => args.fleet = Some(it.next().ok_or("--fleet needs a value")?),
            "--memory-mib" => {
                args.memory_mib = Some(
                    it.next()
                        .ok_or("--memory-mib needs a value")?
                        .parse()
                        .map_err(|_| "bad --memory-mib")?,
                )
            }
            "--algorithm" => {
                args.algorithm = Some(
                    match it.next().ok_or("--algorithm needs a value")?.as_str() {
                        "fw" => Algorithm::FloydWarshall,
                        "johnson" => Algorithm::Johnson,
                        "boundary" => Algorithm::Boundary,
                        other => return Err(format!("unknown algorithm '{other}'")),
                    },
                )
            }
            "--spill" => {
                args.spill = Some(PathBuf::from(it.next().ok_or("--spill needs a value")?))
            }
            "--checkpoint-dir" => {
                args.checkpoint_dir = Some(PathBuf::from(
                    it.next().ok_or("--checkpoint-dir needs a value")?,
                ))
            }
            "--resume" => args.resume = true,
            "--scale" => {
                args.scale = Some(
                    it.next()
                        .ok_or("--scale needs a value")?
                        .parse()
                        .map_err(|_| "bad --scale")?,
                )
            }
            "--deadline-ms" => {
                args.deadline_ms = Some(
                    it.next()
                        .ok_or("--deadline-ms needs a value")?
                        .parse()
                        .map_err(|_| "bad --deadline-ms")?,
                )
            }
            "--progress-budget-ms" => {
                args.progress_budget_ms = Some(
                    it.next()
                        .ok_or("--progress-budget-ms needs a value")?
                        .parse()
                        .map_err(|_| "bad --progress-budget-ms")?,
                )
            }
            "--fallback" => args.fallback = true,
            "--sdc-guard" => {
                args.sdc_guard = it
                    .next()
                    .ok_or("--sdc-guard needs a value")?
                    .parse()
                    .map_err(|_| "bad --sdc-guard (want off|checksum|full)")?
            }
            "--error-json" => args.error_json = true,
            "--backend" => match it.next().ok_or("--backend needs a value")?.as_str() {
                b @ ("scalar" | "parallel" | "simd") => args.backend = b.into(),
                other => return Err(format!("unknown backend '{other}'")),
            },
            "--threads" => {
                args.threads = Some(
                    it.next()
                        .ok_or("--threads needs a value")?
                        .parse()
                        .map_err(|_| "bad --threads")?,
                )
            }
            "--sources" => {
                let list = it.next().ok_or("--sources needs a comma-separated list")?;
                let parsed: Result<Vec<usize>, _> =
                    list.split(',').map(|s| s.trim().parse()).collect();
                args.sources =
                    Some(parsed.map_err(|_| "bad --sources (want e.g. 0,5,17)".to_string())?);
            }
            "--sample" => {
                args.sample = it
                    .next()
                    .ok_or("--sample needs a value")?
                    .parse()
                    .map_err(|_| "bad --sample")?
            }
            "--verify" => {
                args.verify = it
                    .next()
                    .ok_or("--verify needs a value")?
                    .parse()
                    .map_err(|_| "bad --verify")?
            }
            "--trace" | "--gantt" => args.trace = true,
            "--metrics-out" => {
                args.metrics_out = Some(PathBuf::from(
                    it.next().ok_or("--metrics-out needs a value")?,
                ))
            }
            "--calibration-dir" => {
                args.calibration_dir = Some(PathBuf::from(
                    it.next().ok_or("--calibration-dir needs a value")?,
                ))
            }
            "--calibration-report" => args.calibration_report = true,
            other if !got_path && !other.starts_with("--") => {
                args.path = PathBuf::from(other);
                got_path = true;
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    if !got_path {
        return Err("missing graph file".into());
    }
    if args.resume && args.checkpoint_dir.is_none() {
        return Err("--resume needs --checkpoint-dir".into());
    }
    if args.backend == "scalar" && args.threads.is_some() {
        return Err("--threads only applies to --backend parallel|simd".into());
    }
    if args.calibration_report && args.calibration_dir.is_none() {
        return Err("--calibration-report needs --calibration-dir".into());
    }
    if args.sources.is_some()
        && (args.spill.is_some()
            || args.checkpoint_dir.is_some()
            || args.metrics_out.is_some()
            || args.calibration_dir.is_some()
            || args.verify > 0)
    {
        return Err(
            "--sources is a partial query: it has no result store, so --spill, \
             --checkpoint-dir, --metrics-out, --calibration-dir and --verify do not apply"
                .into(),
        );
    }
    if args.devices == Some(0) {
        return Err("--devices must be positive".into());
    }
    if args.devices.is_some() || args.fleet.is_some() {
        if !matches!(args.algorithm, None | Some(Algorithm::Boundary)) {
            return Err("the multi-device path runs the boundary algorithm only".into());
        }
        if args.sources.is_some() {
            return Err("--sources routes through Johnson — it has no multi-device path".into());
        }
        if args.calibration_dir.is_some() || args.calibration_report {
            return Err("selector calibration does not apply to a forced multi-device run".into());
        }
        if args.fallback {
            return Err(
                "--fallback re-enters the selector, which the multi-device path bypasses".into(),
            );
        }
    }
    Ok(args)
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn load(path: &PathBuf) -> Result<CsrGraph, String> {
    match path.extension().and_then(|e| e.to_str()) {
        Some("mtx") => read_matrix_market(path, WeightMode::ScaledAbs { scale: 1.0 })
            .map_err(|e| e.to_string()),
        Some("gr") => read_dimacs(path).map_err(|e| e.to_string()),
        _ => Err("unsupported extension (want .mtx or .gr)".into()),
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("serve") {
        serve_main();
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: apsp-run <graph.mtx|graph.gr> [--device v100|k80] [--devices n] [--fleet p1,p2,...] [--memory-mib n] [--algorithm fw|johnson|boundary] [--spill dir] [--checkpoint-dir dir] [--resume] [--scale s] [--deadline-ms n] [--progress-budget-ms n] [--fallback] [--sdc-guard off|checksum|full] [--error-json] [--backend scalar|parallel|simd] [--threads n] [--sample n] [--trace|--gantt] [--metrics-out path] [--calibration-dir dir] [--calibration-report]");
            std::process::exit(2);
        }
    };
    let graph = match load(&args.path) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("failed to load {}: {e}", args.path.display());
            std::process::exit(1);
        }
    };
    println!(
        "loaded {}: n = {}, m = {}, density = {:.4}%",
        args.path.display(),
        graph.num_vertices(),
        graph.num_edges(),
        graph.density() * 100.0
    );

    let mut profile = match args.device.as_str() {
        "v100" => DeviceProfile::v100(),
        "k80" => DeviceProfile::k80(),
        other => {
            eprintln!("unknown device '{other}'");
            std::process::exit(2);
        }
    };
    if let Some(s) = args.scale {
        profile = profile.scaled_for_reproduction(s);
    }
    if let Some(mib) = args.memory_mib {
        profile = profile.with_memory_bytes(mib << 20);
    }
    if args.devices.is_some() || args.fleet.is_some() {
        run_multi(&graph, &profile, &args);
        return;
    }
    println!(
        "device: {} ({} MiB)",
        profile.name,
        profile.memory_bytes >> 20
    );

    let mut dev = GpuDevice::new(profile);
    if args.trace {
        dev.enable_trace();
    }
    let exec = match args.backend.as_str() {
        "scalar" => ExecBackend::scalar(),
        "simd" => ExecBackend::Simd {
            threads: args.threads,
        },
        _ => ExecBackend::Parallel {
            threads: args.threads,
        },
    };
    let opts = ApspOptions {
        algorithm: args.algorithm,
        exec,
        storage: match &args.spill {
            Some(dir) => StorageBackend::Disk(dir.clone()),
            None => StorageBackend::Memory,
        },
        checkpoint: args.checkpoint_dir.as_ref().map(|dir| CheckpointOptions {
            dir: dir.clone(),
            resume: args.resume,
        }),
        supervision: SupervisionOptions {
            deadline_ms: args.deadline_ms,
            progress_budget_ms: args.progress_budget_ms,
            fallback: args.fallback,
            ..Default::default()
        },
        telemetry: args.metrics_out.is_some(),
        calibration_dir: args.calibration_dir.clone(),
        sdc_guard: args.sdc_guard,
        ..Default::default()
    };
    if args.sdc_guard.is_on() {
        println!("sdc guard: {}", args.sdc_guard);
    }
    if let Some(dir) = &args.calibration_dir {
        println!("calibrating selector against {}", dir.display());
    }
    if let Some(dir) = &args.checkpoint_dir {
        println!(
            "checkpointing to {} ({})",
            dir.display(),
            if args.resume {
                "resuming if a run is in flight"
            } else {
                "starting fresh"
            }
        );
    }
    if let Some(srcs) = &args.sources {
        run_partial_query(&graph, &mut dev, &opts, srcs, &args);
        return;
    }
    let result = match apsp(&graph, &mut dev, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("apsp failed: {e}");
            if args.error_json {
                // One machine-readable line on stdout: the typed kind
                // (e.g. "SilentCorruption" vs "DeadlineExceeded" vs
                // "Corruption") plus the human detail, JSON-escaped.
                println!(
                    "{{\"error\":\"{}\",\"detail\":\"{}\"}}",
                    e.kind().as_str(),
                    json_escape(&e.to_string())
                );
            }
            std::process::exit(1);
        }
    };
    println!("algorithm: {}", result.algorithm);
    println!("backend: {exec} ({} thread(s))", exec.resolved_threads());
    if let Some(sel) = &result.selection {
        for c in &sel.candidates {
            match (c.estimate, &c.filter_reason) {
                (Some(est), _) => println!("  estimate {}: {est:.6} s", c.algorithm),
                (None, Some(reason)) => println!("  estimate {}: filtered ({reason})", c.algorithm),
                (None, None) => println!("  estimate {}: unavailable", c.algorithm),
            }
        }
    }
    for fb in &result.fallback_events {
        println!(
            "fallback: {} -> {} after {:?} ({}) at {:.6} s",
            fb.from, fb.to, fb.error_kind, fb.detail, fb.sim_seconds
        );
    }
    println!("simulated time: {:.6} s", result.sim_seconds);
    let r = &result.report;
    println!(
        "transfers: {:.1} MiB D2H in {} calls, {:.1} MiB H2D in {} calls; peak device memory {:.1} MiB",
        r.bytes_d2h as f64 / (1 << 20) as f64,
        r.transfers_d2h,
        r.bytes_h2d as f64 / (1 << 20) as f64,
        r.transfers_h2d,
        r.peak_memory as f64 / (1 << 20) as f64,
    );

    // Deterministic pseudo-random distance samples.
    let n = graph.num_vertices();
    let mut state = 0x5EEDu64;
    for _ in 0..args.sample {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let i = (state as usize) % n;
        let j = (state >> 32) as usize % n;
        match result.store.get(i, j) {
            Ok(d) if d < apsp_graph::INF => println!("dist({i}, {j}) = {d}"),
            Ok(_) => println!("dist({i}, {j}) = unreachable"),
            Err(e) => println!("dist({i}, {j}) read failed: {e}"),
        }
    }
    if args.verify > 0 {
        match apsp_core::verify::verify_rows(&graph, &result.store, args.verify, 0xC0FFEE) {
            Ok(v) if v.is_verified() => println!("verification: {v:?}"),
            Ok(v) => {
                eprintln!("VERIFICATION FAILED: {v:?}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("verification read error: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &args.metrics_out {
        let report = result
            .telemetry
            .as_ref()
            .expect("telemetry was enabled for --metrics-out");
        if let Err(e) = std::fs::write(path, report.to_jsonl()) {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!(
            "metrics: {} record(s) written to {}",
            report.to_jsonl().lines().count(),
            path.display()
        );
    }
    if args.calibration_report {
        let dir = args.calibration_dir.as_ref().unwrap();
        match apsp_core::CalibrationStore::open(dir, dev.profile()) {
            Ok(store) => print!("{}", store.report()),
            Err(e) => {
                eprintln!("failed to read calibration store: {e}");
                std::process::exit(1);
            }
        }
    }
    if args.trace {
        println!("\ndevice timeline:");
        print!("{}", apsp_gpu_sim::trace::render_gantt(dev.trace(), 100));
    }
}

/// The `--devices`/`--fleet` path: the sharded multi-device boundary
/// executor over a (possibly heterogeneous) simulated fleet, with the
/// same checkpoint, supervision, spill, telemetry, sampling, and
/// verification plumbing as the single-device run.
fn run_multi(graph: &CsrGraph, base_profile: &DeviceProfile, args: &Args) {
    use apsp_core::{multi_gpu, parse_fleet, BoundaryOptions, Checkpoint, RunCtx};
    use apsp_core::{Supervisor, TileStore};

    let profiles: Vec<DeviceProfile> = match &args.fleet {
        Some(spec) => {
            let fleet = match parse_fleet(spec) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("bad --fleet: {e}");
                    std::process::exit(2);
                }
            };
            if let Some(d) = args.devices {
                if d != fleet.len() {
                    eprintln!(
                        "--devices {d} contradicts --fleet ({} device(s)); drop one",
                        fleet.len()
                    );
                    std::process::exit(2);
                }
            }
            fleet
                .into_iter()
                .map(|mut p| {
                    if let Some(s) = args.scale {
                        p = p.scaled_for_reproduction(s);
                    }
                    if let Some(mib) = args.memory_mib {
                        p = p.with_memory_bytes(mib << 20);
                    }
                    p
                })
                .collect()
        }
        // `base_profile` already carries --scale and --memory-mib.
        None => vec![base_profile.clone(); args.devices.unwrap_or(1)],
    };
    for (d, p) in profiles.iter().enumerate() {
        println!("device {d}: {} ({} MiB)", p.name, p.memory_bytes >> 20);
    }
    let mut devs: Vec<GpuDevice> = profiles.iter().map(|p| GpuDevice::new(p.clone())).collect();
    if args.trace {
        for dev in &mut devs {
            dev.enable_trace();
        }
    }

    let exec = match args.backend.as_str() {
        "scalar" => ExecBackend::scalar(),
        "simd" => ExecBackend::Simd {
            threads: args.threads,
        },
        _ => ExecBackend::Parallel {
            threads: args.threads,
        },
    };
    let telemetry = if args.metrics_out.is_some() {
        apsp_core::telemetry::Telemetry::enabled()
    } else {
        apsp_core::telemetry::Telemetry::disabled()
    };
    let sup = Supervisor::with_telemetry(
        &SupervisionOptions {
            deadline_ms: args.deadline_ms,
            progress_budget_ms: args.progress_budget_ms,
            ..Default::default()
        },
        0.0,
        telemetry.clone(),
    );
    let n = graph.num_vertices();
    let storage = match &args.spill {
        Some(dir) => StorageBackend::Disk(dir.clone()),
        None => StorageBackend::Memory,
    };
    let mut store = match TileStore::new(n, &storage) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to open the result store: {e}");
            std::process::exit(1);
        }
    };
    store.set_exec_backend(exec);
    store.set_supervision(sup.clone());
    let opts = BoundaryOptions {
        exec,
        sdc_guard: args.sdc_guard,
        ..Default::default()
    };
    if args.sdc_guard.is_on() {
        println!("sdc guard: {}", args.sdc_guard);
    }

    let ckpt = match &args.checkpoint_dir {
        Some(dir) => {
            println!(
                "checkpointing to {} ({})",
                dir.display(),
                if args.resume {
                    "resuming if a run is in flight"
                } else {
                    "starting fresh"
                }
            );
            let ckpt = match Checkpoint::new(dir, graph) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("failed to open the checkpoint directory: {e}");
                    std::process::exit(1);
                }
            };
            if !args.resume {
                if let Err(e) = ckpt.clear() {
                    eprintln!("failed to clear a stale checkpoint: {e}");
                    std::process::exit(1);
                }
            }
            Some(ckpt)
        }
        None => None,
    };
    let ctx = RunCtx {
        supervisor: Some(&sup),
        checkpoint: ckpt.as_ref(),
    };
    let stats = match multi_gpu::run(&mut devs, graph, &mut store, &opts, &ctx) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("apsp failed: {e}");
            if args.error_json {
                println!(
                    "{{\"error\":\"{}\",\"detail\":\"{}\"}}",
                    e.kind().as_str(),
                    json_escape(&e.to_string())
                );
            }
            std::process::exit(1);
        }
    };

    println!("algorithm: boundary ({} device(s))", stats.num_devices);
    println!("backend: {exec} ({} thread(s))", exec.resolved_threads());
    println!(
        "partition: {} component(s), {} boundary vertices; dist2 placement {:?}, {} dist4 panel(s) stolen",
        stats.num_components, stats.total_boundary, stats.placement, stats.stolen_panels
    );
    println!(
        "phases: dist2 {:.6} s, dist3 {:.6} s, dist4 {:.6} s",
        stats.phase_seconds[0], stats.phase_seconds[1], stats.phase_seconds[2]
    );
    println!("simulated makespan: {:.6} s", stats.sim_seconds);

    // The fleet-wide profiling snapshot: counters sum across devices,
    // the makespan and peak memory are maxima.
    let merged =
        devs.iter()
            .map(|d| d.report())
            .fold(apsp_gpu_sim::SimReport::default(), |mut acc, r| {
                for (name, k) in &r.kernels {
                    let e = acc.kernels.entry(name.clone()).or_default();
                    e.launches += k.launches;
                    e.seconds += k.seconds;
                }
                acc.bytes_h2d += r.bytes_h2d;
                acc.bytes_d2h += r.bytes_d2h;
                acc.transfers_h2d += r.transfers_h2d;
                acc.transfers_d2h += r.transfers_d2h;
                acc.compute_busy += r.compute_busy;
                acc.h2d_busy += r.h2d_busy;
                acc.d2h_busy += r.d2h_busy;
                acc.elapsed = acc.elapsed.max(r.elapsed);
                acc.peak_memory = acc.peak_memory.max(r.peak_memory);
                acc.allocations += r.allocations;
                acc
            });
    println!(
        "transfers: {:.1} MiB D2H in {} calls, {:.1} MiB H2D in {} calls; peak device memory {:.1} MiB",
        merged.bytes_d2h as f64 / (1 << 20) as f64,
        merged.transfers_d2h,
        merged.bytes_h2d as f64 / (1 << 20) as f64,
        merged.transfers_h2d,
        merged.peak_memory as f64 / (1 << 20) as f64,
    );

    let mut state = 0x5EEDu64;
    for _ in 0..args.sample {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let i = (state as usize) % n;
        let j = (state >> 32) as usize % n;
        match store.get(i, j) {
            Ok(d) if d < apsp_graph::INF => println!("dist({i}, {j}) = {d}"),
            Ok(_) => println!("dist({i}, {j}) = unreachable"),
            Err(e) => println!("dist({i}, {j}) read failed: {e}"),
        }
    }
    if args.verify > 0 {
        match apsp_core::verify::verify_rows(graph, &store, args.verify, 0xC0FFEE) {
            Ok(v) if v.is_verified() => println!("verification: {v:?}"),
            Ok(v) => {
                eprintln!("VERIFICATION FAILED: {v:?}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("verification read error: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &args.metrics_out {
        let report = telemetry
            .build_report(
                "boundary",
                exec.name(),
                stats.sim_seconds,
                &merged,
                &[],
                &sup.events(),
                stats.retries as u64,
                stats.checkpoint_commits as u64,
            )
            .expect("telemetry was enabled for --metrics-out");
        if let Err(e) = std::fs::write(path, report.to_jsonl()) {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!(
            "metrics: {} record(s) written to {}",
            report.to_jsonl().lines().count(),
            path.display()
        );
    }
    if args.trace {
        for (d, dev) in devs.iter().enumerate() {
            println!("\ndevice {d} timeline:");
            print!("{}", apsp_gpu_sim::trace::render_gantt(dev.trace(), 100));
        }
    }
}

/// The `--sources` path: k rows through the Johnson batch driver —
/// `O(k·n)` data movement instead of the full matrix's `O(n²)`.
fn run_partial_query(
    graph: &CsrGraph,
    dev: &mut GpuDevice,
    opts: &ApspOptions,
    srcs: &[usize],
    args: &Args,
) {
    let n = graph.num_vertices();
    if let Some(&bad) = srcs.iter().find(|&&s| s >= n) {
        eprintln!("--sources: source {bad} out of range (n = {n})");
        std::process::exit(2);
    }
    let sources: Vec<apsp_graph::VertexId> =
        srcs.iter().map(|&s| s as apsp_graph::VertexId).collect();
    let jopts = apsp_core::JohnsonOptions {
        exec: opts.exec,
        sdc_guard: opts.sdc_guard,
        ..Default::default()
    };
    let sup = apsp_core::Supervisor::new(&opts.supervision, dev.elapsed().seconds());
    let (rows, stats) =
        match apsp_core::ooc_johnson::ooc_johnson_sources(dev, graph, &sources, &jopts, &sup) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("partial query failed: {e}");
                if args.error_json {
                    println!(
                        "{{\"error\":\"{}\",\"detail\":\"{}\"}}",
                        e.kind().as_str(),
                        json_escape(&e.to_string())
                    );
                }
                std::process::exit(1);
            }
        };
    println!(
        "partial query: {} source row(s) in {} Johnson batch(es) of {} — \
         moved O(k·n), not O(n²)",
        sources.len(),
        stats.num_batches,
        stats.batch_size,
    );
    println!("simulated time: {:.6} s", dev.elapsed().seconds());
    for (ri, &s) in sources.iter().enumerate() {
        let row = &rows[ri * n..(ri + 1) * n];
        let reachable = row.iter().filter(|&&d| d < apsp_graph::INF).count();
        let far = row
            .iter()
            .enumerate()
            .filter(|(_, &d)| d < apsp_graph::INF)
            .max_by_key(|(_, &d)| d);
        match far {
            Some((j, &d)) => println!(
                "  source {s}: {reachable}/{n} reachable, eccentricity dist({s}, {j}) = {d}"
            ),
            None => println!("  source {s}: nothing reachable"),
        }
    }
    if args.trace {
        println!("\ndevice timeline:");
        print!("{}", apsp_gpu_sim::trace::render_gantt(dev.trace(), 100));
    }
}

struct ServeArgs {
    seed: u64,
    jobs: usize,
    graphs: usize,
    devices: usize,
    device: String,
    memory_mib: Option<u64>,
    queue_capacity: usize,
    cache_capacity: usize,
    checkpoint_root: Option<PathBuf>,
    strict: bool,
    error_json: bool,
    metrics_out: Option<PathBuf>,
}

fn parse_serve_args() -> Result<ServeArgs, String> {
    let mut args = ServeArgs {
        seed: 0x5EED,
        jobs: 16,
        graphs: 3,
        devices: 2,
        device: "v100".into(),
        memory_mib: None,
        queue_capacity: 5,
        cache_capacity: 8,
        checkpoint_root: None,
        strict: false,
        error_json: false,
        metrics_out: None,
    };
    let mut it = std::env::args().skip(2);
    while let Some(a) = it.next() {
        let num = |flag: &str, it: &mut dyn Iterator<Item = String>| -> Result<u64, String> {
            it.next()
                .ok_or(format!("{flag} needs a value"))?
                .parse()
                .map_err(|_| format!("bad {flag}"))
        };
        match a.as_str() {
            "--seed" => args.seed = num("--seed", &mut it)?,
            "--jobs" => args.jobs = num("--jobs", &mut it)? as usize,
            "--graphs" => args.graphs = num("--graphs", &mut it)? as usize,
            "--devices" => args.devices = num("--devices", &mut it)? as usize,
            "--device" => args.device = it.next().ok_or("--device needs a value")?,
            "--memory-mib" => args.memory_mib = Some(num("--memory-mib", &mut it)?),
            "--queue-capacity" => args.queue_capacity = num("--queue-capacity", &mut it)? as usize,
            "--cache-capacity" => args.cache_capacity = num("--cache-capacity", &mut it)? as usize,
            "--checkpoint-root" => {
                args.checkpoint_root = Some(PathBuf::from(
                    it.next().ok_or("--checkpoint-root needs a value")?,
                ))
            }
            "--strict" => args.strict = true,
            "--error-json" => args.error_json = true,
            "--metrics-out" => {
                args.metrics_out = Some(PathBuf::from(
                    it.next().ok_or("--metrics-out needs a value")?,
                ))
            }
            other => return Err(format!("unexpected serve argument '{other}'")),
        }
    }
    if args.jobs == 0 || args.devices == 0 || args.queue_capacity == 0 {
        return Err("--jobs, --devices and --queue-capacity must be positive".into());
    }
    Ok(args)
}

/// Print the typed service error and exit with its distinct code
/// (`--strict` mode's abort path).
fn serve_fail(kind: apsp_core::ServiceErrorKind, detail: &str, error_json: bool) -> ! {
    eprintln!("serve: {detail}");
    if error_json {
        println!(
            "{{\"error\":\"{}\",\"detail\":\"{}\"}}",
            kind.as_str(),
            json_escape(detail)
        );
    }
    std::process::exit(kind.exit_code());
}

/// `apsp-run serve`: replay a seeded job trace — full and k-source
/// partial queries over a hot-graph pool, with faults, tight deadlines,
/// queue overload, and queued cancellations — against
/// [`ApspService`](apsp_core::service::ApspService).
fn serve_main() {
    use apsp_core::service::trace::{self, TraceConfig};
    use apsp_core::{ApspService, JobState, ServiceConfig, ServiceErrorKind};

    let args = match parse_serve_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: apsp-run serve [--seed n] [--jobs n] [--graphs n] \
                 [--devices n] [--device v100|k80] [--memory-mib n] [--queue-capacity n] \
                 [--cache-capacity n] [--checkpoint-root dir] [--strict] [--error-json] \
                 [--metrics-out path]"
            );
            std::process::exit(2);
        }
    };
    let mut profile = match args.device.as_str() {
        "v100" => DeviceProfile::v100(),
        "k80" => DeviceProfile::k80(),
        other => {
            eprintln!("unknown device '{other}'");
            std::process::exit(2);
        }
    };
    // Small fleet memory by default so full jobs batch (and can be
    // overtaken by deadlines) at trace-pool graph sizes.
    profile = profile.with_memory_bytes(args.memory_mib.map_or(512 << 10, |mib| mib << 20));

    let trace_cfg = TraceConfig {
        seed: args.seed,
        jobs: args.jobs,
        graphs: args.graphs.max(1),
        ..TraceConfig::default()
    };
    let jobs = trace::seeded_jobs(&trace_cfg);
    let mut svc = ApspService::new(ServiceConfig {
        devices: vec![profile.clone(); args.devices],
        queue_capacity: args.queue_capacity,
        cache_capacity: args.cache_capacity,
        checkpoint_root: args.checkpoint_root.clone(),
        admission_control: true,
    });
    println!(
        "serving {} job(s) (seed {:#x}) over {} × {} ({} KiB), queue bound {}, cache {}",
        jobs.len(),
        args.seed,
        args.devices,
        profile.name,
        profile.memory_bytes >> 10,
        args.queue_capacity,
        args.cache_capacity,
    );

    // Wave 1: submit everything, pumping every third submit so the
    // queue churns; cancel the trace's flagged jobs while still queued.
    let mut handles: Vec<Option<apsp_core::JobId>> = Vec::with_capacity(jobs.len());
    for (i, tj) in jobs.iter().enumerate() {
        match svc.submit(tj.request.clone()) {
            Ok(id) => {
                if tj.cancel_while_queued {
                    let _ = svc.cancel(id);
                    if args.strict {
                        serve_fail(
                            ServiceErrorKind::JobCancelled,
                            &format!("trace job {i} cancelled while queued"),
                            args.error_json,
                        );
                    }
                }
                handles.push(Some(id));
            }
            Err(e) => {
                if args.strict {
                    serve_fail(
                        e.kind(),
                        &format!("trace job {i} rejected: {e}"),
                        args.error_json,
                    );
                }
                let hint = e
                    .retry_after_ms()
                    .map_or(String::new(), |ms| format!(" (retry after ~{ms} ms)"));
                println!("job --- rejected typed {}{hint}", e.kind().as_str());
                handles.push(None);
            }
        }
        if i % 3 == 2 {
            svc.pump_one();
        }
    }
    svc.run_until_idle();
    // Wave 2: honour the retry hints against the drained queue.
    for (i, tj) in jobs.iter().enumerate() {
        if handles[i].is_none() {
            handles[i] = svc.submit(tj.request.clone()).ok();
        }
    }
    svc.run_until_idle();

    for (i, tj) in jobs.iter().enumerate() {
        let kind = match &tj.request.spec {
            apsp_core::JobSpec::Full => "full".to_string(),
            apsp_core::JobSpec::Sources(s) => format!("sources[{}]", s.len()),
        };
        let Some(id) = handles[i] else {
            println!("job {i:>3} {kind:<11} rejected on both admission attempts");
            continue;
        };
        match svc.state(id) {
            Some(JobState::Completed(done)) => println!(
                "job {i:>3} {kind:<11} completed{} in {:.6} s (queued {:.6} s)",
                if done.from_cache { " (cache)" } else { "" },
                done.sim_seconds,
                done.queue_wait_s,
            ),
            Some(JobState::Failed(fj)) => {
                println!(
                    "job {i:>3} {kind:<11} failed typed {:?}{}",
                    fj.kind,
                    if fj.checkpoint_kept {
                        " — checkpoint kept for warm resubmission"
                    } else {
                        ""
                    },
                );
                if args.strict {
                    serve_fail(
                        ServiceErrorKind::Compute(fj.kind),
                        &format!("trace job {i} failed: {}", fj.detail),
                        args.error_json,
                    );
                }
            }
            Some(JobState::Cancelled { .. }) => {
                println!("job {i:>3} {kind:<11} cancelled while queued");
            }
            Some(JobState::Queued) | None => {
                eprintln!("serve: job {i} never reached a terminal state — a hang");
                std::process::exit(1);
            }
        }
    }
    let c = svc.counters();
    println!(
        "service: {} submitted, {} admitted, {} completed, {} failed, {} expired, \
         {} cancelled, {} rejected (busy {}, queue-full {}), cache {}/{} hit/miss \
         ({} evicted, {} corrupt-evicted), {:.6} simulated s",
        c.submitted,
        c.admitted,
        c.completed,
        c.failed,
        c.expired,
        c.cancelled,
        c.rejected_busy + c.rejected_queue_full,
        c.rejected_busy,
        c.rejected_queue_full,
        c.cache_hits,
        c.cache_misses,
        c.cache_evictions,
        c.cache_corrupt_evictions,
        svc.now_s(),
    );
    if let Some(path) = &args.metrics_out {
        let jsonl = svc.to_jsonl();
        if let Err(e) = std::fs::write(path, &jsonl) {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!(
            "metrics: {} record(s) written to {}",
            jsonl.lines().count(),
            path.display()
        );
    }
}
