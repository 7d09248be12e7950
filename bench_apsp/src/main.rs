//! `bench_apsp` — end-to-end and per-layer benchmark of the out-of-core
//! APSP entry points (`apsp_core::apsp`, `apsp_core::ooc_boundary_multi`).
//!
//! ```text
//! bench_apsp [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out PATH]
//!
//!   --workload NAME  dense-fw-durable | sparse-johnson | planar-select | fleet-hetero;
//!                    without it every workload runs in turn, each in its own process
//!   --seed N         first instance seed (default 1); the instances use N..N+4
//!   --seconds S      length of the timed closed loop (default 20)
//!   --trace [0|1]    1 (or the bare flag) adds the per-layer pass and reports
//!                    its metrics in place of the end-to-end ones
//!   --smoke          reduced sizes, 3 timed solves, both metric sets; exits
//!                    non-zero on any oracle mismatch or replay divergence
//!   --out PATH       JSON report (default target/bench_apsp.json)
//! ```
//!
//! Every solve is checked against `apsp_cpu::bgl_plus_apsp`. The output
//! is one `workload metric value unit` line per metric, then, as the last
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. See README.md for the workloads and the metric glossary.

mod report;
mod stats;
mod trace;
mod workload;

use report::{document, RunResult, RunSettings};
use stats::summarize;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;
use workload::{Bench, Checker, Workload, INSTANCES};

/// Fresh processes timed for `setup_s`; the median is reported.
const SETUP_PROBES: usize = 5;
/// Untimed solves before the timed loop.
const WARMUP_SOLVES: usize = 3;
/// The timed loop runs at least this many solves, so the tail rule
/// always has a percentile to report.
const MIN_TIMED_SOLVES: usize = 20;
/// Timed solves under `--smoke`.
const SMOKE_SOLVES: usize = 3;

/// End-to-end metrics `(name, unit)`, as BENCHMARK.json lists them.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("solve_best_s", "s"),
    ("pairs_per_s", "1/s"),
    ("sim_makespan", "sim_s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, as BENCHMARK.json lists them.
const PER_LAYER: [(&str, &str); 81] = [
    ("api.solve_p50_s", "s"),
    ("api.solve_tail_s", "s"),
    ("api.solve_tail_pct", "pct"),
    ("api.solves", "count"),
    ("selector.probe_s", "s"),
    ("selector.select_s", "s"),
    ("selector.regret", "ratio"),
    ("selector.pred_ratio_fw", "ratio"),
    ("selector.pred_ratio_johnson", "ratio"),
    ("selector.pred_ratio_boundary", "ratio"),
    ("tile_store.create_s", "s"),
    ("tile_store.seed_s", "s"),
    ("tile_store.read_calls", "count"),
    ("tile_store.read_bytes", "bytes"),
    ("tile_store.read_s", "s"),
    ("tile_store.write_calls", "count"),
    ("tile_store.write_bytes", "bytes"),
    ("tile_store.write_s", "s"),
    ("tile_store.rows_read", "count"),
    ("tile_store.rows_written", "count"),
    ("sdc.arm_s", "s"),
    ("sdc.check_calls", "count"),
    ("sdc.check_s", "s"),
    ("checkpoint.open_s", "s"),
    ("checkpoint.commits", "count"),
    ("checkpoint.commit_bytes", "bytes"),
    ("checkpoint.commit_s", "s"),
    ("checkpoint.clear_s", "s"),
    ("transfer.alloc_calls", "count"),
    ("transfer.alloc_s", "s"),
    ("transfer.h2d_calls", "count"),
    ("transfer.h2d_bytes", "bytes"),
    ("transfer.h2d_s", "s"),
    ("transfer.d2h_calls", "count"),
    ("transfer.d2h_bytes", "bytes"),
    ("transfer.d2h_s", "s"),
    ("kernels.fw_block_calls", "count"),
    ("kernels.fw_block_s", "s"),
    ("kernels.panel_calls", "count"),
    ("kernels.panel_s", "s"),
    ("kernels.minplus_calls", "count"),
    ("kernels.minplus_ops", "count"),
    ("kernels.minplus_s", "s"),
    ("kernels.minplus_gops", "Gop/s"),
    ("kernels.minplus_efficiency", "ratio"),
    ("kernels.mssp_calls", "count"),
    ("kernels.mssp_relaxations", "count"),
    ("kernels.mssp_s", "s"),
    ("kernels.mssp_mrelax_per_s", "Mrelax/s"),
    ("cpu.minplus_peak_gops", "Gop/s"),
    ("cpu.threads", "count"),
    ("gpu_sim.bytes_h2d", "bytes"),
    ("gpu_sim.bytes_d2h", "bytes"),
    ("gpu_sim.kernel_launches", "count"),
    ("gpu_sim.compute_occupancy", "fraction"),
    ("gpu_sim.transfer_fraction", "fraction"),
    ("gpu_sim.overlap_efficiency", "fraction"),
    ("gpu_sim.phase.fw.diagonal_s", "sim_s"),
    ("gpu_sim.phase.fw.pivot_s", "sim_s"),
    ("gpu_sim.phase.fw.remainder_s", "sim_s"),
    ("gpu_sim.phase.johnson.batch_s", "sim_s"),
    ("driver.s", "s"),
    ("driver.block", "count"),
    ("driver.n_d", "count"),
    ("driver.batch_size", "count"),
    ("driver.retries", "count"),
    ("partition.s", "s"),
    ("partition.components", "count"),
    ("partition.boundary_vertices", "count"),
    ("multi_gpu.driver_s", "s"),
    ("multi_gpu.dist2_sim_s", "sim_s"),
    ("multi_gpu.dist3_sim_s", "sim_s"),
    ("multi_gpu.dist4_sim_s", "sim_s"),
    ("multi_gpu.stolen_panels", "count"),
    ("multi_gpu.load_imbalance", "ratio"),
    ("multi_gpu.host_over_sim", "ratio"),
    ("trace.solve_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.other_s", "s"),
    ("trace.replay_exact", "bool"),
];

const USAGE: &str = "usage: bench_apsp [--workload NAME] [--seed N] [--seconds S] \
                     [--trace [0|1]] [--smoke] [--out PATH]";

#[derive(Debug, Clone)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
    /// Internal: time set-up in a fresh process and print `setup_s`.
    setup_probe: bool,
}

impl Args {
    fn parse(it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: 1,
            seconds: 20.0,
            trace: false,
            smoke: false,
            out: PathBuf::from("target/bench_apsp.json"),
            setup_probe: false,
        };
        let mut it = it.peekable();
        while let Some(a) = it.next() {
            let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
            match a.as_str() {
                "--workload" => {
                    let name = value("--workload")?;
                    args.workload = Some(
                        Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?,
                    );
                }
                "--seed" => {
                    args.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    args.seconds = value("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                        return Err("--seconds must be a non-negative number".into());
                    }
                }
                "--trace" => {
                    args.trace = it.next_if(|v| v == "0" || v == "1").as_deref() != Some("0")
                }
                "--smoke" => args.smoke = true,
                "--out" => args.out = PathBuf::from(value("--out")?),
                "--setup-probe" => args.setup_probe = true,
                other => return Err(format!("unexpected argument `{other}`")),
            }
        }
        if args.setup_probe && args.workload.is_none() {
            return Err("--setup-probe needs --workload".into());
        }
        Ok(args)
    }

    fn settings(&self) -> RunSettings {
        RunSettings {
            seed: self.seed,
            seconds: self.seconds,
            trace: self.trace,
            smoke: self.smoke,
            threads: apsp_cpu::ExecBackend::default().resolved_threads(),
        }
    }

    /// Arguments that hand this run's settings to a child process.
    fn child_command(&self, w: Workload) -> Result<Command, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.args(["--workload", w.name(), "--seed", &self.seed.to_string()]);
        if self.smoke {
            cmd.arg("--smoke");
        }
        cmd.stderr(Stdio::inherit());
        Ok(cmd)
    }
}

fn main() {
    let started = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench_apsp: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match args.workload {
        Some(w) if args.setup_probe => setup_probe(started, &args, w),
        Some(w) => run_one(&args, w),
        None => run_all(&args),
    };
    std::process::exit(code.unwrap_or_else(|e| {
        eprintln!("bench_apsp: {e}");
        1
    }));
}

/// Directory for this process's disk stores and checkpoints, inside the
/// working directory; the bench removes it when done.
fn scratch_dir() -> PathBuf {
    Path::new("target/bench_apsp").join(format!("scratch-{}", std::process::id()))
}

/// A fresh process's set-up: from `main()` through generating the
/// instances to the end of the first solve.
fn setup_probe(started: Instant, args: &Args, w: Workload) -> Result<i32, String> {
    let bench = Bench::new(w, args.seed, args.smoke, scratch_dir());
    bench.solve(0).map_err(|e| e.to_string())?;
    println!("setup_s {}", started.elapsed().as_secs_f64());
    Ok(0)
}

/// Median set-up time over [`SETUP_PROBES`] fresh processes, run one at
/// a time.
fn setup_seconds(args: &Args, w: Workload) -> Result<f64, String> {
    let mut times = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let out = args
            .child_command(w)?
            .arg("--setup-probe")
            .output()
            .map_err(|e| format!("setup probe: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let secs = stdout
            .lines()
            .last()
            .and_then(|l| l.strip_prefix("setup_s "))
            .and_then(|v| v.parse::<f64>().ok());
        match secs {
            Some(s) if out.status.success() => times.push(s),
            _ => return Err(format!("setup probe failed ({})", out.status)),
        }
    }
    Ok(summarize(&times).expect("probes ran").p50)
}

fn run_one(args: &Args, w: Workload) -> Result<i32, String> {
    let (result, replay_exact) = measure(args, w)?;
    print!("{}", result.lines());
    write_out(
        &args.out,
        &document(&args.settings(), std::slice::from_ref(&result)),
    )?;
    println!("{}", result.result_line());
    let ok = result.correct && (replay_exact || !args.smoke);
    Ok(if ok { 0 } else { 1 })
}

/// One workload run: set-up probes, generation, oracle, the timed loop,
/// then (with `--trace` or `--smoke`) the per-layer pass. Returns the
/// results and whether every replay was exact.
fn measure(args: &Args, w: Workload) -> Result<(RunResult, bool), String> {
    let end_to_end = !args.trace || args.smoke;
    let per_layer = args.trace || args.smoke;
    // Probes run before this process allocates anything, so only one
    // process generates load at a time.
    let setup_s = if end_to_end {
        setup_seconds(args, w)?
    } else {
        0.0
    };
    let bench = Bench::new(w, args.seed, args.smoke, scratch_dir());
    let mut checker = Checker::new(bench.oracle());
    // The oracle's matrices are gone; start the peak-RSS window here.
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("clear_refs: {e}"))?;

    let (warmups, min_timed) = if args.smoke {
        (0, SMOKE_SOLVES)
    } else {
        (WARMUP_SOLVES, MIN_TIMED_SOLVES)
    };
    let mut sims = [None; INSTANCES];
    let mut solve = |k: usize, checker: &mut Checker| {
        let i = k % INSTANCES;
        match bench.solve(i) {
            Ok(s) => {
                sims[i] = Some(s.sim_s);
                checker
                    .check("solve", i, Ok(s.checksum))
                    .then_some(s.wall_s)
            }
            Err(e) => {
                checker.check("solve", i, Err(e));
                None
            }
        }
    };
    for k in 0..warmups {
        solve(k, &mut checker);
    }
    let mut timings = Vec::new();
    let t0 = Instant::now();
    let mut k = warmups;
    while k - warmups < min_timed || (!args.smoke && t0.elapsed().as_secs_f64() < args.seconds) {
        timings.extend(solve(k, &mut checker));
        k += 1;
    }
    let peak_rss_mb = peak_rss_mb()?;
    let summary = summarize(&timings).ok_or("no timed solve succeeded")?;

    let n = bench.graphs[0].num_vertices() as f64;
    let sims: Vec<f64> = sims.into_iter().flatten().collect();
    let mut result = RunResult {
        workload: w.name().into(),
        ..Default::default()
    };
    result.push("setup_s", setup_s, "s");
    result.push("solve_best_s", summary.best, "s");
    result.push("pairs_per_s", n * n / summary.best, "1/s");
    result.push(
        "sim_makespan",
        sims.iter().sum::<f64>() / sims.len() as f64,
        "sim_s",
    );
    result.push("peak_rss_mb", peak_rss_mb, "MiB");
    let (tail_pct, tail_s) = summary.tail.unwrap_or((0, 0.0));
    result.push("api.solve_p50_s", summary.p50, "s");
    result.push("api.solve_tail_s", tail_s, "s");
    result.push("api.solve_tail_pct", tail_pct as f64, "pct");
    result.push("api.solves", summary.count as f64, "count");
    let replay_exact =
        !per_layer || trace::per_layer(&bench, &mut checker, summary.best, args.smoke, &mut result);

    result.attempted = checker.attempted;
    result.failed = checker.failed;
    result.correct = checker.failed == 0;
    let mut names: Vec<(&str, &str)> = Vec::new();
    if end_to_end {
        names.extend(END_TO_END);
    }
    if per_layer {
        names.extend(PER_LAYER);
    }
    result.select(&names);
    Ok((result, replay_exact))
}

/// Every workload in turn, each in its own process (so `setup_s` and
/// `peak_rss_mb` stay per workload); the results are merged into one
/// report.
fn run_all(args: &Args) -> Result<i32, String> {
    let mut code = 0;
    let mut runs = Vec::new();
    for w in Workload::ALL {
        let child_out = args
            .out
            .with_file_name(format!("bench_apsp-{}.json", w.name()));
        let out = args
            .child_command(w)?
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&child_out)
            .output()
            .map_err(|e| format!("{}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        match RunResult::parse_result_line(w.name(), last) {
            Ok(run) => runs.push(run),
            Err(e) => eprintln!("bench_apsp: {} printed no result: {e}", w.name()),
        }
        if !out.status.success() {
            code = 1;
        }
    }
    write_out(&args.out, &document(&args.settings(), &runs))?;
    let all = RunResult {
        workload: "all".into(),
        correct: runs.len() == Workload::ALL.len() && runs.iter().all(|r| r.correct),
        attempted: runs.iter().map(|r| r.attempted).sum(),
        failed: runs.iter().map(|r| r.failed).sum(),
        metrics: runs
            .iter()
            .flat_map(|r| {
                r.metrics.iter().map(|m| report::Metric {
                    name: format!("{}.{}", r.workload, m.name),
                    ..m.clone()
                })
            })
            .collect(),
    };
    println!("{}", all.result_line());
    Ok(if all.correct { code } else { 1 })
}

fn write_out(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Peak resident set (VmHWM) since the last reset, MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_core::telemetry::{parse_json, JsonValue};

    fn listed(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
        let Some(JsonValue::Array(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no `{key}` list");
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let owned = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = listed(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn args_accept_the_driver_form_and_the_bare_flag() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload fleet-hetero --seed 7 --seconds 3 --trace 0").unwrap();
        assert_eq!(a.workload, Some(Workload::FleetHetero));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, false));
        assert!(parse("--trace 1").unwrap().trace);
        assert!(parse("--trace --smoke").unwrap().trace);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds -1").is_err());
        assert!(parse("--setup-probe").is_err());
    }
}
