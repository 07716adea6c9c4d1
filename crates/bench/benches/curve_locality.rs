//! E3 wall-clock: curve transform throughput and locality measurement.
//!
//! `point`/`index` are the inner loop of every energy charge, so their
//! throughput bounds how large an instance the simulator can meter.
//! The `*_scalar_reference` entries measure the retained seed
//! implementations (`spatial_sfc::reference`); the acceptance bar for
//! the optimized paths is ≥ 2× on the order-10 grid.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spatial_trees::sfc::locality::alpha_estimate;
use spatial_trees::sfc::reference as scalar_ref;
use spatial_trees::sfc::{Curve, CurveKind, GridPoint};
use std::hint::black_box;

/// The acceptance-criterion grid: order 10, 1024×1024.
const ORDER10_SIDE: u32 = 1 << 10;

fn bench_hilbert_order10(c: &mut Criterion) {
    // Concrete type: the reference is a direct call, so the LUT path
    // must not pay AnyCurve enum dispatch.
    let curve = spatial_trees::sfc::HilbertCurve::new(ORDER10_SIDE);
    let n = curve.len();
    let points: Vec<GridPoint> = curve.all_points();

    let mut group = c.benchmark_group("hilbert_point_order10");
    group.sample_size(20);
    group.bench_function("lut", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..n {
                let p = curve.point(black_box(i));
                acc += p.x as u64 + p.y as u64;
            }
            acc
        })
    });
    group.bench_function("lut_batch", |b| {
        let indices: Vec<u64> = (0..n).collect();
        let mut out = vec![GridPoint::default(); n as usize];
        b.iter(|| {
            curve.point_batch(black_box(&indices), &mut out);
            out[out.len() - 1]
        })
    });
    group.bench_function("lut_range_batch", |b| {
        let mut out = vec![GridPoint::default(); n as usize];
        b.iter(|| {
            curve.point_range_batch(black_box(0), &mut out);
            out[out.len() - 1]
        })
    });
    group.bench_function("scalar_reference", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..n {
                let p = scalar_ref::hilbert_point_scalar(ORDER10_SIDE, black_box(i));
                acc += p.x as u64 + p.y as u64;
            }
            acc
        })
    });
    group.finish();

    let mut group = c.benchmark_group("hilbert_index_order10");
    group.sample_size(20);
    group.bench_function("lut", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &p in &points {
                acc += curve.index(black_box(p));
            }
            acc
        })
    });
    group.bench_function("lut_batch", |b| {
        let mut out = vec![0u64; points.len()];
        b.iter(|| {
            curve.index_batch(black_box(&points), &mut out);
            out[out.len() - 1]
        })
    });
    group.bench_function("scalar_reference", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &p in &points {
                acc += scalar_ref::hilbert_index_scalar(ORDER10_SIDE, black_box(p));
            }
            acc
        })
    });
    group.finish();
}

fn bench_zorder_order10(c: &mut Criterion) {
    let curve = spatial_trees::sfc::zorder::ZOrderCurve::new(ORDER10_SIDE);
    let n = curve.len();
    let points: Vec<GridPoint> = curve.all_points();

    let mut group = c.benchmark_group("zorder_encode_order10");
    group.sample_size(20);
    group.bench_function("magic_mask", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &p in &points {
                acc += curve.index(black_box(p));
            }
            acc
        })
    });
    group.bench_function("magic_mask_batch", |b| {
        let mut out = vec![0u64; points.len()];
        b.iter(|| {
            curve.index_batch(black_box(&points), &mut out);
            out[out.len() - 1]
        })
    });
    group.bench_function("scalar_reference", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &p in &points {
                acc += scalar_ref::zorder_index_scalar(ORDER10_SIDE, black_box(p));
            }
            acc
        })
    });
    group.finish();

    let mut group = c.benchmark_group("zorder_decode_order10");
    group.sample_size(20);
    group.bench_function("magic_mask", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..n {
                let p = curve.point(black_box(i));
                acc += p.x as u64 + p.y as u64;
            }
            acc
        })
    });
    group.bench_function("scalar_reference", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..n {
                let p = scalar_ref::zorder_point_scalar(ORDER10_SIDE, black_box(i));
                acc += p.x as u64 + p.y as u64;
            }
            acc
        })
    });
    group.finish();
}

fn bench_batch_throughput(c: &mut Criterion) {
    // point_range_batch against a scalar loop: the batch path hoists
    // the bounds check out of the SWAR walk.
    let mut group = c.benchmark_group("point_range_batch_2^20");
    group.sample_size(10);
    for kind in [CurveKind::Hilbert, CurveKind::ZOrder] {
        let curve = kind.for_capacity(1 << 20);
        let n = curve.len() as usize;
        group.bench_function(BenchmarkId::new("batch", kind.name()), |b| {
            let mut out = vec![GridPoint::default(); n];
            b.iter(|| {
                curve.point_range_batch(0, &mut out);
                out[n - 1]
            })
        });
        group.bench_function(BenchmarkId::new("scalar_loop", kind.name()), |b| {
            let mut out = vec![GridPoint::default(); n];
            b.iter(|| {
                for (i, o) in out.iter_mut().enumerate() {
                    *o = curve.point(black_box(i as u64));
                }
                out[n - 1]
            })
        });
    }
    group.finish();
}

fn bench_alpha(c: &mut Criterion) {
    let mut group = c.benchmark_group("alpha_estimate");
    group.sample_size(10);
    for kind in [CurveKind::Hilbert, CurveKind::ZOrder] {
        let curve = kind.for_capacity(128 * 128);
        group.bench_function(BenchmarkId::from_parameter(kind.name()), |b| {
            b.iter(|| alpha_estimate(black_box(&curve), 7))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_hilbert_order10,
    bench_zorder_order10,
    bench_batch_throughput,
    bench_alpha
);
criterion_main!(benches);
