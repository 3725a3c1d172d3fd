//! P2: softfloat operation benchmarks (host throughput of the
//! emulation layer itself; cycle costs on Sabre come from the cost
//! model, not wall time).
//!
//! The `PI`/`E` cases time one constant operand pair: every branch is
//! perfectly predicted and no result feeds the next. The `varied` cases
//! walk a table of filter-like operands (magnitudes from 1e-4 to 1e3,
//! mixed signs), and `dot8_chain_f64` runs the dependent
//! `acc = add(acc, mul(x, y))` chain of an 8-term dot product, whose
//! add latency is what the Kalman filter's matrix kernels pay.

use criterion::{criterion_group, criterion_main, Criterion};
use fpga::softfloat::{f32impl, f64impl, Sf32, Sf64};
use std::hint::black_box;

/// Table length (a power of two, so indices wrap with a mask).
const TABLE: usize = 1024;

/// A seeded table of filter-like operands from a xorshift generator: a
/// mantissa in `[1, 10)`, a decade from 1e-4 to 1e3 and a random sign.
fn operands(seed: u64) -> Vec<Sf64> {
    let mut state = seed;
    (0..TABLE)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let mantissa = 1.0 + 9.0 * (state >> 11) as f64 / (1u64 << 53) as f64;
            let decade = 10f64.powi((state % 8) as i32 - 4);
            let sign = if state & (1 << 8) == 0 { 1.0 } else { -1.0 };
            Sf64::from_f64(sign * mantissa * decade)
        })
        .collect()
}

fn bench_softfloat(c: &mut Criterion) {
    let a64 = Sf64::from_f64(std::f64::consts::PI);
    let b64 = Sf64::from_f64(std::f64::consts::E);
    let a32 = Sf32::from_f32(std::f32::consts::PI);
    let b32 = Sf32::from_f32(std::f32::consts::E);

    c.bench_function("softfloat/add_f64", |bench| {
        bench.iter(|| f64impl::add(black_box(a64), black_box(b64)))
    });
    c.bench_function("softfloat/mul_f64", |bench| {
        bench.iter(|| f64impl::mul(black_box(a64), black_box(b64)))
    });
    c.bench_function("softfloat/div_f64", |bench| {
        bench.iter(|| f64impl::div(black_box(a64), black_box(b64)))
    });
    c.bench_function("softfloat/sqrt_f64", |bench| {
        bench.iter(|| f64impl::sqrt(black_box(a64)))
    });
    c.bench_function("softfloat/add_f32", |bench| {
        bench.iter(|| f32impl::add(black_box(a32), black_box(b32)))
    });
    c.bench_function("softfloat/mul_f32", |bench| {
        bench.iter(|| f32impl::mul(black_box(a32), black_box(b32)))
    });
    c.bench_function("softfloat/div_f32", |bench| {
        bench.iter(|| f32impl::div(black_box(a32), black_box(b32)))
    });

    let (xs, ys) = (operands(0x9E37_79B9), operands(0x2545_F491));
    let varied = |name: &str, op: fn(Sf64, Sf64) -> Sf64, c: &mut Criterion| {
        let mut i = 0;
        c.bench_function(name, |bench| {
            bench.iter(|| {
                i = (i + 1) & (TABLE - 1);
                op(black_box(xs[i]), black_box(ys[i]))
            })
        });
    };
    varied("softfloat/add_f64_varied", f64impl::add, c);
    varied("softfloat/mul_f64_varied", f64impl::mul, c);
    varied("softfloat/div_f64_varied", f64impl::div, c);
    let mut i = 0;
    c.bench_function("softfloat/sqrt_f64_varied", |bench| {
        bench.iter(|| {
            i = (i + 1) & (TABLE - 1);
            f64impl::sqrt(black_box(xs[i].abs()))
        })
    });
    let mut k = 0;
    c.bench_function("softfloat/dot8_chain_f64", |bench| {
        bench.iter(|| {
            k = (k + 8) & (TABLE - 1);
            let (x, y) = (black_box(&xs[k..k + 8]), black_box(&ys[k..k + 8]));
            let mut acc = f64impl::mul(x[0], y[0]);
            for j in 1..8 {
                acc = f64impl::add(acc, f64impl::mul(x[j], y[j]));
            }
            acc
        })
    });
}

criterion_group!(benches, bench_softfloat);
criterion_main!(benches);
