//! `apsp-run` end to end: the binary on a small DIMACS graph.

use std::process::Command;

/// `--calibration-report` prints the store the run just wrote: under
/// `--backend scalar`, the `-scalar` store holding that one run.
#[test]
fn calibration_report_reads_the_store_the_run_wrote() {
    let dir = std::env::temp_dir().join(format!("apsp_run_cli-report-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // A 6-cycle with one chord, as 1-indexed DIMACS arcs.
    let gr = "p sp 6 7\na 1 2 3\na 2 3 1\na 3 4 4\na 4 5 1\na 5 6 5\na 6 1 9\na 1 4 2\n";
    let graph = dir.join("g.gr");
    std::fs::write(&graph, gr).unwrap();
    let cal = dir.join("cal");

    let out = Command::new(env!("CARGO_BIN_EXE_apsp-run"))
        .arg(&graph)
        .args(["--backend", "scalar", "--calibration-dir"])
        .arg(&cal)
        .arg("--calibration-report")
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "apsp-run failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );

    let written: Vec<String> = std::fs::read_dir(&cal)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(written.len(), 1, "{written:?}");
    assert!(written[0].ends_with("-scalar.cal"), "{written:?}");
    let report = stdout
        .lines()
        .find(|l| l.starts_with("calibration store "))
        .unwrap_or_else(|| panic!("no calibration report in:\n{stdout}"));
    assert!(report.contains(&written[0]), "{report}");
    assert!(report.ends_with(", 1 runs)"), "{report}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `parallel` is not a backend: it is refused as a usage error, and the
/// usage line offers the two there are.
#[test]
fn backend_parallel_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_apsp-run"))
        .args(["graph.gr", "--backend", "parallel"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown backend 'parallel'"), "{stderr}");
    let usage = stderr
        .lines()
        .find(|l| l.starts_with("usage: apsp-run"))
        .unwrap_or_else(|| panic!("no usage line in:\n{stderr}"));
    assert!(usage.contains("[--backend scalar|simd]"), "{usage}");
}
