//! E5 wall-clock: list ranking — sequential vs spatial random-mate (the
//! latter includes all cost accounting).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spatial_bench::random_list;
use spatial_trees::euler::{rank_sequential, rank_spatial};
use spatial_trees::model::{CurveKind, Machine};
use std::hint::black_box;

fn bench_ranking(c: &mut Criterion) {
    let n = 1usize << 16;
    let (next, start) = random_list(n, 3);
    let mut group = c.benchmark_group("list_ranking_2^16");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| rank_sequential(black_box(&next), start))
    });
    group.bench_function("spatial_random_mate", |b| {
        b.iter(|| {
            let machine = Machine::on_curve(CurveKind::Hilbert, n as u32);
            let mut rng = StdRng::seed_from_u64(4);
            rank_spatial(&machine, black_box(&next), start, &mut rng)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_ranking);
criterion_main!(benches);
