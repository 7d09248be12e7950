//! Micro-benchmarks of the building blocks: min-plus multiply, in-device
//! blocked Floyd-Warshall, Near-Far SSSP and the k-way partitioner.

use apsp_cpu::blocked_fw::blocked_floyd_warshall;
use apsp_cpu::{DistMatrix, ExecBackend};
use apsp_gpu_sim::{DeviceProfile, GpuDevice};
use apsp_graph::generators::{gnp, random_geometric, WeightRange};
use apsp_kernels::fw_block::fw_device_exec;
use apsp_kernels::minplus::minplus_kernel_exec;
use apsp_kernels::near_far_sssp;
use apsp_kernels::DeviceMatrix;
use apsp_partition::{kway_partition, PartitionConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_minplus(c: &mut Criterion) {
    let mut group = c.benchmark_group("minplus");
    group.sample_size(10);
    for n in [128usize, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let dev = GpuDevice::new(DeviceProfile::v100());
            let a = DeviceMatrix::alloc(&dev, n, n).unwrap();
            let bm = DeviceMatrix::alloc(&dev, n, n).unwrap();
            let mut dev = dev;
            b.iter(|| {
                let mut cm = DeviceMatrix::alloc_inf(&dev, n, n).unwrap();
                let s = dev.default_stream();
                minplus_kernel_exec(&mut dev, s, &mut cm, &a, &bm, ExecBackend::default());
                black_box(cm.get(0, 0))
            })
        });
    }
    group.finish();
}

fn bench_fw(c: &mut Criterion) {
    let mut group = c.benchmark_group("blocked_fw");
    group.sample_size(10);
    for n in [128usize, 256] {
        let g = gnp(n, 0.05, WeightRange::default(), 3);
        group.bench_with_input(BenchmarkId::new("host", n), &g, |b, g| {
            b.iter(|| {
                let mut m = DistMatrix::from_graph(g);
                blocked_floyd_warshall(&mut m, 64);
                black_box(m.get(0, 0))
            })
        });
        group.bench_with_input(BenchmarkId::new("device", n), &g, |b, g| {
            b.iter(|| {
                let mut dev = GpuDevice::new(DeviceProfile::v100());
                let s = dev.default_stream();
                let host = DistMatrix::from_graph(g);
                let mut m = DeviceMatrix::alloc(&dev, g.num_vertices(), g.num_vertices()).unwrap();
                m.as_mut_slice().copy_from_slice(host.as_slice());
                fw_device_exec(&mut dev, s, &mut m, ExecBackend::default());
                black_box(m.get(0, 0))
            })
        });
    }
    group.finish();
}

fn bench_sssp(c: &mut Criterion) {
    let mut group = c.benchmark_group("near_far_sssp");
    group.sample_size(20);
    for n in [1_000usize, 4_000] {
        let g = gnp(n, 8.0 / n as f64, WeightRange::default(), 7);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| black_box(near_far_sssp(g, 0, 25, usize::MAX).0[n - 1]))
        });
    }
    group.finish();
}

fn bench_partition(c: &mut Criterion) {
    let mut group = c.benchmark_group("kway_partition");
    group.sample_size(10);
    for n in [1_000usize, 4_000] {
        let g = random_geometric(
            n,
            (8.0 / (n as f64 * std::f64::consts::PI)).sqrt(),
            WeightRange::default(),
            9,
        );
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| {
                let p = kway_partition(g, 16, &PartitionConfig::default());
                black_box(p.num_boundary_nodes(g))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_minplus,
    bench_fw,
    bench_sssp,
    bench_partition
);
criterion_main!(benches);
