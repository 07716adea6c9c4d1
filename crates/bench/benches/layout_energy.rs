//! E1 wall-clock: layout construction and kernel-energy measurement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spatial_bench::workload;
use spatial_trees::layout::{local_kernel_energy, Layout};
use spatial_trees::model::CurveKind;
use spatial_trees::tree::generators::TreeFamily;
use std::hint::black_box;

fn bench_layout_build(c: &mut Criterion) {
    let tree = workload(TreeFamily::UniformRandom, 1 << 16, 7);
    let mut group = c.benchmark_group("layout_build_2^16");
    group.sample_size(10);
    group.bench_function("light_first", |b| {
        b.iter(|| Layout::light_first(black_box(&tree), CurveKind::Hilbert))
    });
    group.bench_function("bfs", |b| {
        b.iter(|| Layout::bfs(black_box(&tree), CurveKind::Hilbert))
    });
    group.finish();
}

fn bench_kernel_energy(c: &mut Criterion) {
    let tree = workload(TreeFamily::UniformRandom, 1 << 16, 7);
    let mut group = c.benchmark_group("kernel_energy_2^16");
    group.sample_size(10);
    for curve in [CurveKind::Hilbert, CurveKind::ZOrder] {
        let layout = Layout::light_first(&tree, curve);
        group.bench_function(BenchmarkId::from_parameter(curve.name()), |b| {
            b.iter(|| local_kernel_energy(black_box(&tree), black_box(&layout)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_layout_build, bench_kernel_energy);
criterion_main!(benches);
