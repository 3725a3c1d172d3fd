//! Filter-core benchmarks: one predict+update of the production
//! 5-state IEKF through the scalar API (the width-1 lane filter, with
//! its `f64` force conversion and counted substrate; the lockstep rows
//! live in `smallmat_kernels`).

use boresight::arith::QArith;
use boresight::filter::{BoresightFilter, FilterConfig, GenericBoresightFilter};
use criterion::{criterion_group, criterion_main, Criterion};
use mathx::{Vec2, Vec3, STANDARD_GRAVITY};
use std::hint::black_box;

fn bench_kalman(c: &mut Criterion) {
    let f_b = Vec3::new([1.0, -0.5, STANDARD_GRAVITY]);
    let z = Vec2::new([0.3, -0.2]);

    c.bench_function("kalman/iekf5_x1_update", |bench| {
        let mut kf = BoresightFilter::new(FilterConfig::paper_static());
        let mut t = 0.0;
        bench.iter(|| {
            kf.predict(0.005);
            t += 0.005;
            black_box(kf.update(black_box(z), black_box(f_b), t))
        })
    });
    c.bench_function("kalman/iekf5_x1_fixed_update", |bench| {
        let mut kf: GenericBoresightFilter<QArith<16>> =
            GenericBoresightFilter::new(FilterConfig::paper_static());
        let mut t = 0.0;
        bench.iter(|| {
            kf.predict(0.005);
            t += 0.005;
            black_box(kf.update(black_box(z), black_box(f_b), t))
        })
    });
}

criterion_group!(benches, bench_kalman);
criterion_main!(benches);
