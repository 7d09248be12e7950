//! The heterogeneous-fleet conformance matrix for the sharded
//! multi-device executor.
//!
//! Three properties, each against the single-device `ooc_boundary`
//! oracle (itself verified against the CPU reference before use):
//!
//! * **bit-identity** — 1/2/4 devices × all-V100 and V100+K80 fleets ×
//!   Memory/Disk/sharded-Disk storage × both exec backends produce the
//!   exact same matrix;
//! * **makespan monotonicity** — on a homogeneous fleet, more devices
//!   never make the simulated timeline slower (`APSP_FLEET_SIZES`
//!   widens the sweep in nightly CI);
//! * **kill–resume across fleet shapes** — a checkpointed run killed on
//!   one device count resumes bit-exactly on a different one, because
//!   the commit cursor (components done) is device-count-independent.

use apsp_conformance::{
    makespan_curve, run_multi_cell, run_multi_kill_resume, single_device_oracle, Case, Family,
    RunnerConfig, StoreKind,
};
use apsp_core::options::BoundaryOptions;
use apsp_cpu::ExecBackend;
use apsp_gpu_sim::{DeviceProfile, GpuDevice};

fn fleets() -> Vec<Vec<DeviceProfile>> {
    let v = DeviceProfile::v100;
    let k = DeviceProfile::k80;
    vec![
        vec![v()],
        vec![v(), v()],
        vec![v(), k()],
        vec![v(), v(), v(), v()],
        vec![v(), k(), v(), k()],
    ]
}

fn fleet_sizes() -> Vec<usize> {
    let spec = std::env::var("APSP_FLEET_SIZES").unwrap_or_else(|_| "1,2,4".to_string());
    let sizes: Vec<usize> = spec
        .split(',')
        .filter_map(|t| t.trim().parse::<usize>().ok())
        .filter(|&c| c >= 1)
        .collect();
    assert!(
        !sizes.is_empty(),
        "APSP_FLEET_SIZES parsed to nothing: {spec:?}"
    );
    sizes
}

#[test]
fn every_fleet_shape_matches_the_single_device_oracle_bitwise() {
    let cfg = RunnerConfig::default();
    let backends = [ExecBackend::Scalar, ExecBackend::Simd { threads: Some(2) }];
    for case in [
        Case::generate(Family::ErdosRenyi, 0xF1EE0),
        Case::generate(Family::Grid, 0xF1EE1),
    ] {
        let oracle = single_device_oracle(&case, &BoundaryOptions::default(), &cfg)
            .unwrap_or_else(|e| panic!("{e}"));
        for fleet in fleets() {
            for store_kind in [StoreKind::Memory, StoreKind::Disk, StoreKind::DiskSharded] {
                for exec in backends {
                    let opts = BoundaryOptions {
                        exec,
                        ..Default::default()
                    };
                    let report = run_multi_cell(&case, &fleet, store_kind, &opts, &oracle, &cfg)
                        .unwrap_or_else(|e| panic!("{e}"));
                    eprintln!(
                        "{}: [{}] {store_kind}/{exec:?} makespan {:.3}s, \
                         {} dist4 panel(s) on another device",
                        case.name, report.fleet, report.makespan_s, report.stolen_panels
                    );
                }
            }
        }
    }
}

#[test]
fn adding_devices_never_slows_the_simulated_makespan() {
    let cfg = RunnerConfig::default();
    let sizes = fleet_sizes();
    let case = Case::generate(Family::Rmat, 0xF1EE2);
    let curve = makespan_curve(&case, &sizes, &cfg).unwrap_or_else(|e| panic!("{e}"));
    for w in curve.windows(2) {
        assert!(
            w[1] <= w[0] * (1.0 + 1e-9),
            "makespan rose when a device was added: {curve:?} at sizes {sizes:?}"
        );
    }
    eprintln!("makespan curve over {sizes:?}: {curve:?}");
}

#[test]
fn multi_device_telemetry_has_per_device_spans_and_validates_against_the_schema() {
    use apsp_core::telemetry::{parse_json, validate_jsonl, Telemetry};
    use apsp_core::{multi_gpu, RunCtx, SupervisionOptions, Supervisor, TileStore};

    let cfg = RunnerConfig::default();
    let case = Case::generate(Family::Grid, 0xF1EE5);
    let mut devs: Vec<GpuDevice> = [DeviceProfile::v100(), DeviceProfile::k80()]
        .iter()
        .map(|p| cfg.device_of(p))
        .collect();
    let mut store =
        TileStore::new(case.graph.num_vertices(), &cfg.backend(StoreKind::Memory)).unwrap();
    let telemetry = Telemetry::enabled();
    let sup = Supervisor::with_telemetry(&SupervisionOptions::default(), 0.0, telemetry.clone());
    let ctx = RunCtx {
        supervisor: Some(&sup),
        ..Default::default()
    };
    let stats = multi_gpu::run(
        &mut devs,
        &case.graph,
        &mut store,
        &BoundaryOptions::default(),
        &ctx,
    )
    .unwrap();
    let report = telemetry
        .build_report(
            "boundary",
            "simd",
            stats.sim_seconds,
            &devs[0].report(),
            &[],
            &sup.events(),
            0,
            0,
        )
        .unwrap();

    // Every boundary phase span names its device, and both devices appear.
    let devices: Vec<Option<usize>> = report
        .spans
        .iter()
        .filter(|s| s.name.starts_with("boundary."))
        .map(|s| s.device)
        .collect();
    assert!(!devices.is_empty(), "no boundary.* spans in the report");
    assert!(devices.iter().all(|d| d.is_some()));
    assert!(devices.contains(&Some(0)) && devices.contains(&Some(1)));

    let schema_path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../schemas/telemetry.schema.json");
    let schema = parse_json(&std::fs::read_to_string(&schema_path).unwrap()).unwrap();
    let jsonl = report.to_jsonl();
    validate_jsonl(&jsonl, &schema)
        .unwrap_or_else(|e| panic!("multi report fails the schema: {e}"));
    assert!(
        jsonl.contains("\"device\":1"),
        "the JSONL lost the device field"
    );
}

#[test]
fn kill_resume_is_exact_across_different_fleet_shapes() {
    let cfg = RunnerConfig::default();
    let case = Case::generate(Family::ErdosRenyi, 0xF1EE3);
    let points = std::env::var("APSP_CRASH_POINTS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(1)
        .max(1);
    for (kill_on, resume_on) in [(2usize, 4usize), (4, 1), (1, 2)] {
        for store_kind in [StoreKind::Memory, StoreKind::Disk] {
            for point in 0..points {
                let seed = 0xF1EE4u64
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(point);
                let report =
                    run_multi_kill_resume(&case, kill_on, resume_on, store_kind, seed, &cfg)
                        .unwrap_or_else(|e| {
                            panic!("{kill_on}→{resume_on} devices/{store_kind} point {point}: {e}")
                        });
                eprintln!("{kill_on}→{resume_on} devices/{store_kind}: {report}");
            }
        }
    }
}
