//! Micro-benchmarks pinning the shared `smallmat` dense kernels — the
//! inner loops every filter update spends its time in: the 5x5
//! products, the Gauss-Jordan inverse and the Joseph-form covariance
//! update, on the native-f64 (counted and uncounted) and Q16.16
//! substrates — plus the structure-exploiting kernels that replaced
//! them (packed-symmetric Joseph, closed-form 2x2 solve), the
//! structured kernels the IEKF runs over the measurement Jacobian's
//! zeros and ones (model + Jacobian and `J P`/`S` at every gate and
//! relinearization, the Joseph update once per accepted sample, beside
//! the packed `joseph5_sym` it replaced) and the lockstep lane filter
//! at 1/2/4/8 lanes.

use boresight::arith::{Arith, F64Arith, F64ArithFast, QArith, SoftArith};
use boresight::filter::{joseph_structured, jp_and_s, FilterConfig};
use boresight::lanes::LaneIekf;
use boresight::{model, smallmat};
use criterion::{criterion_group, criterion_main, Criterion};
use mathx::{Vec2, Vec3, STANDARD_GRAVITY};
use std::hint::black_box;

/// A well-conditioned 5x5 test matrix in the substrate.
fn mat5<A: Arith>(a: &mut A) -> [[A::T; 5]; 5] {
    let mut m = smallmat::identity::<A, 5>(a);
    for (i, row) in m.iter_mut().enumerate() {
        for (j, x) in row.iter_mut().enumerate() {
            let v = a.num(0.1 / (1.0 + (i as f64 - j as f64).abs()));
            *x = a.add(*x, v);
        }
    }
    m
}

/// A 2x5 measurement-style matrix in the substrate.
fn mat2x5<A: Arith>(a: &mut A) -> [[A::T; 5]; 2] {
    let mut m = smallmat::zeros::<A, 2, 5>(a);
    for (i, row) in m.iter_mut().enumerate() {
        for (j, x) in row.iter_mut().enumerate() {
            *x = a.num(((i + 2 * j) as f64).sin());
        }
    }
    m
}

fn bench_substrate<A: Arith + Default>(c: &mut Criterion, name: &str) {
    c.bench_function(&format!("smallmat/mul5x5_{name}"), |bench| {
        let mut a = A::default();
        let x = mat5(&mut a);
        let y = mat5(&mut a);
        bench.iter(|| black_box(smallmat::mul(&mut a, black_box(&x), black_box(&y))))
    });
    c.bench_function(&format!("smallmat/inverse2x2_{name}"), |bench| {
        let mut a = A::default();
        let s = {
            let mut m = smallmat::identity::<A, 2>(&mut a);
            let v = a.num(0.25);
            m[0][1] = v;
            m[1][0] = v;
            m
        };
        bench.iter(|| black_box(smallmat::inverse(&mut a, black_box(&s))))
    });
    c.bench_function(&format!("smallmat/joseph5_{name}"), |bench| {
        let mut a = A::default();
        let p = mat5(&mut a);
        let h = mat2x5(&mut a);
        let k = smallmat::transpose(&mut a, &h);
        let r = a.num(4.9e-5);
        bench.iter(|| {
            black_box(smallmat::joseph_update(
                &mut a,
                black_box(&p),
                black_box(&k),
                black_box(&h),
                r,
            ))
        })
    });
}

/// The structure-exploiting kernels the IEKF hot path switched to:
/// the packed-symmetric rank-2 Joseph update and the closed-form LDL
/// solve of the 2x2 innovation, benchmarked against the dense kernels
/// above (same shapes, same substrates).
fn bench_structured<A: Arith + Default>(c: &mut Criterion, name: &str) {
    c.bench_function(&format!("smallmat/solve2_closed_{name}"), |bench| {
        let mut a = A::default();
        let s = {
            let mut m = smallmat::identity::<A, 2>(&mut a);
            let v = a.num(0.25);
            m[0][1] = v;
            m[1][0] = v;
            m
        };
        bench.iter(|| black_box(smallmat::inverse2_sym(&mut a, black_box(&s))))
    });
    c.bench_function(&format!("smallmat/joseph5_sym_{name}"), |bench| {
        let mut a = A::default();
        let p = mat5(&mut a);
        let h = mat2x5(&mut a);
        let k = smallmat::transpose(&mut a, &h);
        let r = a.num(4.9e-5);
        bench.iter(|| {
            black_box(smallmat::joseph_update_sym(
                &mut a,
                black_box(&p),
                black_box(&k),
                black_box(&h),
                r,
            ))
        })
    });
}

/// One evaluation of the structured measurement kernels at a
/// filter-like linearization point: the model + Jacobian, then `J P`
/// and `S` against a symmetric covariance, then the Joseph update with
/// the gain `(J P)^T S^-1`.
fn bench_measurement<A: Arith + Default>(c: &mut Criterion, name: &str) {
    let mut a = A::default();
    let x = [0.03, -0.02, 0.05, 0.01, -0.02].map(|v| a.num(v));
    let f_b = [1.2, -0.8, STANDARD_GRAVITY].map(|v| a.num(v));
    let p = mat5(&mut a);
    let scale = a.num(1e-3);
    let p = smallmat::scale(&mut a, &p, scale);
    let r = a.num(4.9e-5);
    let (_, jac) = model::h_and_jacobian_generic(&mut a, &x, &f_b, true);
    c.bench_function(&format!("model/h_and_jacobian_{name}"), |bench| {
        let mut a = A::default();
        bench.iter(|| {
            black_box(model::h_and_jacobian_generic(
                &mut a,
                black_box(&x),
                black_box(&f_b),
                true,
            ))
        })
    });
    c.bench_function(&format!("filter/jp_and_s_{name}"), |bench| {
        let mut a = A::default();
        bench.iter(|| black_box(jp_and_s(&mut a, black_box(&jac), black_box(&p), r, true)))
    });
    let (jp, s) = jp_and_s(&mut a, &jac, &p, r, true);
    let s_inv = smallmat::inverse2_sym(&mut a, &s).expect("S is SPD");
    let pjt = smallmat::transpose(&mut a, &jp);
    let k = smallmat::mul(&mut a, &pjt, &s_inv);
    c.bench_function(&format!("smallmat/joseph5_structured_{name}"), |bench| {
        let mut a = A::default();
        bench.iter(|| {
            black_box(joseph_structured(
                &mut a,
                black_box(&p),
                black_box(&k),
                black_box(&jac),
                r,
                true,
            ))
        })
    });
}

/// One full predict + update step of the lockstep lane filter at `L`
/// lanes. Throughput per filter is the reported time divided by `L` —
/// the lane win is the gap to `L` times the width-1 row (`x1`, the
/// scalar filter's datapath).
fn bench_lane_step<const L: usize>(c: &mut Criterion) {
    c.bench_function(&format!("lanes/iekf_step_x{L}"), |bench| {
        let mut kf: LaneIekf<F64ArithFast, L> = LaneIekf::new(FilterConfig::paper_static());
        let f = Vec3::new([1.2, -0.8, STANDARD_GRAVITY]);
        let z: [Vec2; L] =
            std::array::from_fn(|lane| Vec2::new([0.01 * lane as f64, -0.005 * lane as f64]));
        let mut t = 0.0;
        bench.iter(|| {
            t += 0.005;
            kf.predict(0.005);
            black_box(kf.update_lanes(black_box(&z), &[f; L], t))
        })
    });
}

fn bench_smallmat(c: &mut Criterion) {
    bench_substrate::<F64Arith>(c, "f64");
    bench_substrate::<F64ArithFast>(c, "f64_uncounted");
    bench_substrate::<QArith<16>>(c, "q16.16");
    bench_structured::<F64Arith>(c, "f64");
    bench_structured::<F64ArithFast>(c, "f64_uncounted");
    bench_structured::<QArith<16>>(c, "q16.16");
    bench_measurement::<F64Arith>(c, "f64");
    bench_measurement::<SoftArith>(c, "softfloat");
    bench_lane_step::<1>(c);
    bench_lane_step::<2>(c);
    bench_lane_step::<4>(c);
    bench_lane_step::<8>(c);
}

criterion_group!(benches, bench_smallmat);
criterion_main!(benches);
