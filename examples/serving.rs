//! APSP as a service: the job scheduler over a simulated device fleet.
//!
//! ```text
//! cargo run --release --example serving
//! ```
//!
//! The README "Serving" quickstart: a two-device [`ApspService`] takes a
//! full-matrix job and a k-source partial query against the same hot
//! graph, serves a repeat of the full job from the verified result
//! cache, and turns a job away typed when the admission queue is full —
//! the degradation ladder in miniature.

use std::sync::Arc;

use apsp::core::{ApspService, JobRequest, JobState, ServiceConfig, ServiceErrorKind};
use apsp::cpu::dijkstra_sssp;
use apsp::gpu_sim::DeviceProfile;
use apsp::graph::generators::{gnp, WeightRange};

fn main() {
    // A hot graph most queries touch, on a deliberately tiny fleet so
    // full jobs batch and the queue can saturate.
    let graph = Arc::new(gnp(120, 0.05, WeightRange::default(), 42));
    let n = graph.num_vertices();
    let mut svc = ApspService::new(ServiceConfig {
        devices: vec![DeviceProfile::v100().with_memory_bytes(512 << 10); 2],
        queue_capacity: 2,
        ..ServiceConfig::default()
    })
    .expect("the fleet has two devices");

    // A full-matrix job and a partial query: 3 sources move O(k·n)
    // through the Johnson batch driver, not the full O(n²).
    let full = svc.submit(JobRequest::full(Arc::clone(&graph))).unwrap();
    let sources = vec![0, 17, 64];
    let partial = svc
        .submit(JobRequest::sources(Arc::clone(&graph), sources.clone()))
        .unwrap();

    // Saturate the bounded queue: the third submission is turned away
    // typed, with a retry-after hint, instead of stalling the service.
    let overflow = svc.submit(JobRequest::full(Arc::clone(&graph)));
    match overflow {
        Err(e) if e.kind() == ServiceErrorKind::QueueFull => println!(
            "overload: typed {} rejection, retry after ~{} ms",
            e.kind().as_str(),
            e.retry_after_ms().unwrap(),
        ),
        other => panic!("expected a typed QueueFull rejection, got {other:?}"),
    }

    svc.run_until_idle();
    let JobState::Completed(done) = svc.state(full).unwrap() else {
        panic!("full job did not complete");
    };
    println!(
        "full matrix: {n} × {n} rows in {:.6} simulated s on device {:?}",
        done.sim_seconds, done.device,
    );
    let full_bits = Arc::clone(&done.rows);
    let JobState::Completed(part) = svc.state(partial).unwrap() else {
        panic!("partial job did not complete");
    };
    println!(
        "partial query: {} rows in {:.6} simulated s",
        part.rows.rows(),
        part.sim_seconds,
    );
    for (ri, &s) in sources.iter().enumerate() {
        assert_eq!(
            part.rows.row(ri),
            &dijkstra_sssp(&graph, s)[..],
            "partial row {ri} must equal Dijkstra from source {s}"
        );
    }

    // A repeat of the full job hits the verified result cache: rows are
    // checksummed at insert and re-verified before they are served, so
    // a hit is byte-identical to recomputation — and costs no device
    // time even when the queue is saturated.
    let again = svc.submit(JobRequest::full(Arc::clone(&graph))).unwrap();
    let JobState::Completed(hit) = svc.state(again).unwrap() else {
        panic!("cache hit completes at submit");
    };
    assert!(hit.from_cache);
    assert_eq!(hit.rows.data, full_bits.data);
    println!("repeat of the full job: served from cache, byte-identical ✓");

    let c = svc.counters();
    println!(
        "counters: {} admitted, {} completed, {} rejected, cache {}/{} hit/miss",
        c.admitted,
        c.completed,
        c.rejected_busy + c.rejected_queue_full,
        c.cache_hits,
        c.cache_misses,
    );
}
