//! Multi-device boundary algorithm: Algorithm 3 sharded across a fleet
//! of simulated devices — homogeneous scaling first, then a mixed
//! V100 + K80 fleet.
//!
//! ```text
//! cargo run --release --example multi_gpu
//! ```
//!
//! Components are placed per-device by an LPT cost model over the
//! partition (not round-robin); the boundary graph (dist₃) is solved
//! once on the fastest device and broadcast — the serial fraction that
//! Amdahl's law turns into the scaling ceiling shown in the output. The
//! dist₄ panels get a second LPT plan over their own cost, so a panel
//! may run on another device than its component's dist₂ block ("moved"
//! column).
//!
//! The component count is pinned so every fleet schedules the *same*
//! partition — a finer partition has more boundary work, which would
//! confound the curve. Results are bit-identical at every fleet shape.

use apsp::core::multi_gpu::{ooc_boundary_multi, parse_fleet};
use apsp::core::options::BoundaryOptions;
use apsp::core::{StorageBackend, TileStore};
use apsp::cpu::dijkstra_sssp;
use apsp::gpu_sim::{DeviceProfile, GpuDevice};
use apsp::graph::generators::{ensure_connected, grid_2d, GridOptions, WeightRange};
use apsp::graph::CsrGraph;

fn run_fleet(
    graph: &CsrGraph,
    profiles: &[DeviceProfile],
) -> (apsp::core::MultiGpuStats, Vec<u32>) {
    let mut devs: Vec<GpuDevice> = profiles
        .iter()
        .map(|p| GpuDevice::new(p.scaled_for_reproduction(32)))
        .collect();
    let mut store = TileStore::new(graph.num_vertices(), &StorageBackend::Memory).unwrap();
    let opts = BoundaryOptions {
        // Same partition for every fleet: the curve compares scheduling,
        // not partition quality.
        num_components: Some(8),
        ..Default::default()
    };
    let stats = ooc_boundary_multi(&mut devs, graph, &mut store, &opts).expect("multi-device run");
    (stats, store.read_row(0).unwrap())
}

fn main() {
    // A 60×60 thinned street grid (≈ 3600 junctions).
    let weights = WeightRange::new(1, 100);
    let graph = ensure_connected(
        &grid_2d(
            60,
            60,
            GridOptions {
                diagonals: false,
                deletion_prob: 0.2,
            },
            weights,
            11,
        ),
        weights,
        11,
    );
    println!(
        "graph: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );
    println!(
        "{:>14} {:>12} {:>10} {:>8} {:>28}",
        "fleet", "sim time", "speedup", "moved", "phases (dist2 / dist3 / dist4)"
    );

    let mut baseline = None;
    let mut reference_row = None;
    let mut report = |label: &str, profiles: &[DeviceProfile]| {
        let (stats, row) = run_fleet(&graph, profiles);
        let base = *baseline.get_or_insert(stats.sim_seconds);
        println!(
            "{label:>14} {:>10.3}ms {:>9.2}x {:>8} {:>9.3} / {:>6.3} / {:>6.3} ms",
            stats.sim_seconds * 1e3,
            base / stats.sim_seconds,
            stats.stolen_panels,
            stats.phase_seconds[0] * 1e3,
            stats.phase_seconds[1] * 1e3,
            stats.phase_seconds[2] * 1e3,
        );
        // Identical results at every fleet shape.
        match &reference_row {
            None => reference_row = Some(row),
            Some(r) => assert_eq!(&row, r, "fleet shape changed results!"),
        }
    };

    for count in [1usize, 2, 4, 8] {
        let fleet = vec![DeviceProfile::v100(); count];
        report(&format!("v100 x{count}"), &fleet);
    }
    // Heterogeneous fleets parse from the same spec `apsp-run --fleet`
    // takes; the K80 is ~4× slower, so the cost model loads the V100
    // with the bigger components instead of splitting evenly.
    for spec in ["v100,k80", "v100,k80,v100,k80"] {
        report(spec, &parse_fleet(spec).unwrap());
    }

    assert_eq!(reference_row.unwrap(), dijkstra_sssp(&graph, 0));
    println!("results identical across fleet shapes, verified against Dijkstra ✓");
}
