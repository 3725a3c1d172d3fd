//! Explicit SIMD `f64` lanes: the vector-register twin of
//! [`crate::arith::LaneArith`].
//!
//! [`crate::arith::LaneArith<F64Arith, L>`] leaves lane parallelism to
//! the autovectorizer (and pays ledger increments per lane);
//! [`SimdArith<L>`] makes it explicit: the lane value [`F64Lanes`] is
//! a register image, and with the `simd` cargo feature enabled on
//! x86_64 every arithmetic operation lowers to SSE2 packed-double
//! intrinsics over pairs of lanes (SSE2 is the x86_64 baseline — no
//! runtime feature detection needed). Without the feature, or on other
//! architectures, the same operations run as portable scalar loops.
//!
//! **Both paths are bit-identical to the scalar [`crate::arith::F64Arith`] stream,
//! per lane.** IEEE 754 requires correctly rounded add/sub/mul/div/
//! sqrt, so `addpd` and the scalar `+` produce the same bits; the two
//! places where x86 vector idioms would diverge are deliberately kept
//! off the vector unit:
//!
//! * `max` stays a per-lane `f64::max` — `maxpd` returns its second
//!   operand for NaN inputs and conflates `±0.0`, which would break
//!   bit-parity with the scalar filter's NaN-ignoring max;
//! * `fma` stays multiply-then-add (two roundings) — a `vfmadd` would
//!   round once and change the stream relative to [`crate::arith::F64Arith`], whose
//!   `fma` default is also two-rounding.
//!
//! Comparisons use *mask* semantics: [`LaneOps::lane_lt`] is a packed
//! compare reduced to a `[bool; L]` lane mask (`cmpltpd` +
//! `movmskpd`), and the collective [`Arith::lt`]/[`Arith::eq`] are the
//! all-lanes reduction of that mask — the same observable contract as
//! [`crate::arith::LaneArith`]'s collective comparisons, so
//! [`crate::lanes::LaneIekf`] masks divergence identically over either
//! lane substrate.
//!
//! The packed lane ops are `#[inline(always)]`. The measurement kernels are
//! long straight-line bodies of lane ops, and with plain `#[inline]`
//! hints the explicit lanes lost their lead over the autovectorized
//! baseline there.

use crate::arith::{Arith, LaneOps, LaneSpec, OpCounts};
use std::ops::{Index, IndexMut};

/// `L` lanes of `f64`, the scalar type of [`SimdArith`].
///
/// A thin newtype over `[f64; L]` so the backing storage is exactly a
/// (sequence of) vector register image(s); lanes read and write
/// through `Index`/`IndexMut`, the contract [`LaneOps`] requires of
/// every lane value. 16-byte aligned so each even-offset lane pair
/// sits on one vector-register-sized slot that never straddles a
/// cache line — the one layout edge a plain `[f64; L]` lane array
/// doesn't get.
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(align(16))]
pub struct F64Lanes<const L: usize>([f64; L]);

impl<const L: usize> F64Lanes<L> {
    /// Wraps per-lane values.
    pub const fn new(lanes: [f64; L]) -> Self {
        Self(lanes)
    }

    /// Broadcasts one value to every lane.
    pub const fn splat(v: f64) -> Self {
        Self([v; L])
    }

    /// The lanes as a plain array.
    pub const fn as_array(&self) -> &[f64; L] {
        &self.0
    }
}

impl<const L: usize> Index<usize> for F64Lanes<L> {
    type Output = f64;

    #[inline(always)]
    fn index(&self, lane: usize) -> &f64 {
        &self.0[lane]
    }
}

impl<const L: usize> IndexMut<usize> for F64Lanes<L> {
    #[inline(always)]
    fn index_mut(&mut self, lane: usize) -> &mut f64 {
        &mut self.0[lane]
    }
}

/// The explicit SSE2 backend: packed-double intrinsics over lane
/// pairs, scalar on the odd tail.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod backend {
    use std::arch::x86_64::*;

    macro_rules! packed_binop {
        ($name:ident, $packed:ident, $scalar:expr) => {
            #[inline(always)]
            pub fn $name<const L: usize>(a: &[f64; L], b: &[f64; L]) -> [f64; L] {
                let mut out = [0.0_f64; L];
                let mut i = 0;
                // SAFETY: `i + 2 <= L` bounds every 16-byte access and
                // the unaligned intrinsics carry no alignment demand
                // (they still run at aligned-load speed on the
                // 16-byte-aligned `F64Lanes` storage).
                unsafe {
                    while i + 2 <= L {
                        let va = _mm_loadu_pd(a.as_ptr().add(i));
                        let vb = _mm_loadu_pd(b.as_ptr().add(i));
                        _mm_storeu_pd(out.as_mut_ptr().add(i), $packed(va, vb));
                        i += 2;
                    }
                }
                while i < L {
                    out[i] = $scalar(a[i], b[i]);
                    i += 1;
                }
                out
            }
        };
    }

    packed_binop!(add, _mm_add_pd, |x: f64, y: f64| x + y);
    packed_binop!(sub, _mm_sub_pd, |x: f64, y: f64| x - y);
    packed_binop!(mul, _mm_mul_pd, |x: f64, y: f64| x * y);
    packed_binop!(div, _mm_div_pd, |x: f64, y: f64| x / y);

    #[inline(always)]
    pub fn sqrt<const L: usize>(a: &[f64; L]) -> [f64; L] {
        let mut out = [0.0_f64; L];
        let mut i = 0;
        // SAFETY: as in `packed_binop`.
        unsafe {
            while i + 2 <= L {
                let va = _mm_loadu_pd(a.as_ptr().add(i));
                _mm_storeu_pd(out.as_mut_ptr().add(i), _mm_sqrt_pd(va));
                i += 2;
            }
        }
        while i < L {
            out[i] = a[i].sqrt();
            i += 1;
        }
        out
    }

    #[inline(always)]
    pub fn neg<const L: usize>(a: &[f64; L]) -> [f64; L] {
        let mut out = [0.0_f64; L];
        let mut i = 0;
        // SAFETY: as in `packed_binop`. Sign-bit XOR is exactly IEEE
        // negation, bitwise.
        unsafe {
            let sign = _mm_set1_pd(-0.0);
            while i + 2 <= L {
                let va = _mm_loadu_pd(a.as_ptr().add(i));
                _mm_storeu_pd(out.as_mut_ptr().add(i), _mm_xor_pd(va, sign));
                i += 2;
            }
        }
        while i < L {
            out[i] = -a[i];
            i += 1;
        }
        out
    }

    #[inline(always)]
    pub fn abs<const L: usize>(a: &[f64; L]) -> [f64; L] {
        let mut out = [0.0_f64; L];
        let mut i = 0;
        // SAFETY: as in `packed_binop`. Clearing the sign bit is
        // exactly IEEE abs, bitwise.
        unsafe {
            let sign = _mm_set1_pd(-0.0);
            while i + 2 <= L {
                let va = _mm_loadu_pd(a.as_ptr().add(i));
                _mm_storeu_pd(out.as_mut_ptr().add(i), _mm_andnot_pd(sign, va));
                i += 2;
            }
        }
        while i < L {
            out[i] = a[i].abs();
            i += 1;
        }
        out
    }

    #[inline(always)]
    pub fn lt_mask<const L: usize>(a: &[f64; L], b: &[f64; L]) -> [bool; L] {
        let mut out = [false; L];
        let mut i = 0;
        // SAFETY: as in `packed_binop`. `cmpltpd` is an ordered
        // compare: NaN lanes produce `false`, matching scalar `<`.
        unsafe {
            while i + 2 <= L {
                let va = _mm_loadu_pd(a.as_ptr().add(i));
                let vb = _mm_loadu_pd(b.as_ptr().add(i));
                let m = _mm_movemask_pd(_mm_cmplt_pd(va, vb));
                out[i] = m & 1 != 0;
                out[i + 1] = m & 2 != 0;
                i += 2;
            }
        }
        while i < L {
            out[i] = a[i] < b[i];
            i += 1;
        }
        out
    }

    /// `a*b + c` with TWO roundings (`mulpd` then `addpd`) in one
    /// traversal. Bit-identical to the trait-default fma, which is
    /// also multiply-then-add — this just skips materializing the
    /// intermediate product array, which matters because the MAC is
    /// the hottest op in the matrix kernels.
    #[inline(always)]
    pub fn fma<const L: usize>(a: &[f64; L], b: &[f64; L], c: &[f64; L]) -> [f64; L] {
        let mut out = [0.0_f64; L];
        let mut i = 0;
        // SAFETY: as in `packed_binop`.
        unsafe {
            while i + 2 <= L {
                let va = _mm_loadu_pd(a.as_ptr().add(i));
                let vb = _mm_loadu_pd(b.as_ptr().add(i));
                let vc = _mm_loadu_pd(c.as_ptr().add(i));
                _mm_storeu_pd(out.as_mut_ptr().add(i), _mm_add_pd(_mm_mul_pd(va, vb), vc));
                i += 2;
            }
        }
        while i < L {
            out[i] = a[i] * b[i] + c[i];
            i += 1;
        }
        out
    }
}

/// The portable fallback: plain scalar loops, bit-identical to the
/// SSE2 path because IEEE 754 add/sub/mul/div/sqrt are correctly
/// rounded on both.
#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
mod backend {
    #[inline(always)]
    pub fn add<const L: usize>(a: &[f64; L], b: &[f64; L]) -> [f64; L] {
        std::array::from_fn(|i| a[i] + b[i])
    }

    #[inline(always)]
    pub fn sub<const L: usize>(a: &[f64; L], b: &[f64; L]) -> [f64; L] {
        std::array::from_fn(|i| a[i] - b[i])
    }

    #[inline(always)]
    pub fn mul<const L: usize>(a: &[f64; L], b: &[f64; L]) -> [f64; L] {
        std::array::from_fn(|i| a[i] * b[i])
    }

    #[inline(always)]
    pub fn div<const L: usize>(a: &[f64; L], b: &[f64; L]) -> [f64; L] {
        std::array::from_fn(|i| a[i] / b[i])
    }

    #[inline(always)]
    pub fn sqrt<const L: usize>(a: &[f64; L]) -> [f64; L] {
        std::array::from_fn(|i| a[i].sqrt())
    }

    #[inline(always)]
    pub fn neg<const L: usize>(a: &[f64; L]) -> [f64; L] {
        std::array::from_fn(|i| -a[i])
    }

    #[inline(always)]
    pub fn abs<const L: usize>(a: &[f64; L]) -> [f64; L] {
        std::array::from_fn(|i| a[i].abs())
    }

    #[inline(always)]
    pub fn lt_mask<const L: usize>(a: &[f64; L], b: &[f64; L]) -> [bool; L] {
        std::array::from_fn(|i| a[i] < b[i])
    }

    /// `a*b + c`, two roundings per lane like the trait-default fma
    /// (Rust never contracts `*` + `+` into a fused multiply-add).
    #[inline(always)]
    pub fn fma<const L: usize>(a: &[f64; L], b: &[f64; L], c: &[f64; L]) -> [f64; L] {
        std::array::from_fn(|i| a[i] * b[i] + c[i])
    }
}

/// The scalar marker substrate whose [`LaneSpec`] lane form is the
/// explicit-vector [`SimdArith`].
///
/// As a scalar it is plain, uncounted native `f64` — bit-identical to
/// [`crate::arith::F64Arith`] op for op (the per-lane scalar hops the
/// lane filter takes through `inner_mut()` therefore cannot perturb
/// parity) and ledger-free like [`crate::arith::F64ArithFast`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimdF64;

impl Arith for SimdF64 {
    type T = f64;

    fn num(&mut self, x: f64) -> f64 {
        x
    }

    fn to_f64(&self, x: f64) -> f64 {
        x
    }

    fn add(&mut self, a: f64, b: f64) -> f64 {
        a + b
    }

    fn sub(&mut self, a: f64, b: f64) -> f64 {
        a - b
    }

    fn mul(&mut self, a: f64, b: f64) -> f64 {
        a * b
    }

    fn div(&mut self, a: f64, b: f64) -> f64 {
        a / b
    }

    fn sqrt(&mut self, a: f64) -> f64 {
        a.sqrt()
    }

    fn neg(&mut self, a: f64) -> f64 {
        -a
    }

    fn abs(&mut self, a: f64) -> f64 {
        a.abs()
    }

    fn lt(&mut self, a: f64, b: f64) -> bool {
        a < b
    }

    fn eq(&mut self, a: f64, b: f64) -> bool {
        a == b
    }

    fn max(&mut self, a: f64, b: f64) -> f64 {
        a.max(b)
    }

    fn sin_cos(&mut self, a: f64) -> (f64, f64) {
        a.sin_cos()
    }

    fn name(&self) -> &'static str {
        "simd/f64"
    }

    fn iekf_label(&self) -> &'static str {
        // Same arithmetic as the reference, so the scalar label is the
        // reference's (sessions built directly over `SimdF64` are
        // interchangeable with `F64Arith` ones).
        "iekf5/f64"
    }
}

impl<const L: usize> LaneSpec<L> for SimdF64 {
    type Lanes = SimdArith<L>;
}

/// `L` explicit-vector `f64` lanes implementing [`Arith`] (and
/// [`LaneOps`]) over [`F64Lanes`].
///
/// Drop-in for [`crate::arith::LaneArith<F64Arith, L>`] wherever the
/// lane substrate is chosen through [`LaneSpec`] —
/// `LaneIekf<SimdF64, 8>`, `LaneBank<SimdF64, 8>`,
/// `Fleet<SimdF64, 8>` — with every lane bit-identical to a scalar
/// `F64Arith` run (see the [module docs](self) for why, and for the
/// two vector idioms deliberately avoided). Not cycle-modelled and
/// uncounted: this substrate exists to win wall clock, its cost model
/// is the measured samples/sec in `BENCH_frontier.json`.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimdArith<const L: usize> {
    inner: SimdF64,
}

impl<const L: usize> Arith for SimdArith<L> {
    type T = F64Lanes<L>;

    #[inline(always)]
    fn num(&mut self, x: f64) -> F64Lanes<L> {
        F64Lanes::splat(x)
    }

    fn to_f64(&self, x: F64Lanes<L>) -> f64 {
        x.0[0]
    }

    #[inline(always)]
    fn add(&mut self, a: F64Lanes<L>, b: F64Lanes<L>) -> F64Lanes<L> {
        F64Lanes(backend::add(&a.0, &b.0))
    }

    #[inline(always)]
    fn sub(&mut self, a: F64Lanes<L>, b: F64Lanes<L>) -> F64Lanes<L> {
        F64Lanes(backend::sub(&a.0, &b.0))
    }

    #[inline(always)]
    fn mul(&mut self, a: F64Lanes<L>, b: F64Lanes<L>) -> F64Lanes<L> {
        F64Lanes(backend::mul(&a.0, &b.0))
    }

    #[inline(always)]
    fn div(&mut self, a: F64Lanes<L>, b: F64Lanes<L>) -> F64Lanes<L> {
        F64Lanes(backend::div(&a.0, &b.0))
    }

    #[inline(always)]
    fn sqrt(&mut self, a: F64Lanes<L>) -> F64Lanes<L> {
        F64Lanes(backend::sqrt(&a.0))
    }

    #[inline(always)]
    fn neg(&mut self, a: F64Lanes<L>) -> F64Lanes<L> {
        F64Lanes(backend::neg(&a.0))
    }

    #[inline(always)]
    fn abs(&mut self, a: F64Lanes<L>) -> F64Lanes<L> {
        F64Lanes(backend::abs(&a.0))
    }

    #[inline(always)]
    fn lt(&mut self, a: F64Lanes<L>, b: F64Lanes<L>) -> bool {
        backend::lt_mask(&a.0, &b.0).iter().all(|&m| m)
    }

    #[inline(always)]
    fn eq(&mut self, a: F64Lanes<L>, b: F64Lanes<L>) -> bool {
        (0..L).all(|i| a.0[i] == b.0[i])
    }

    #[inline(always)]
    fn max(&mut self, a: F64Lanes<L>, b: F64Lanes<L>) -> F64Lanes<L> {
        // Per-lane `f64::max`, NOT `maxpd`: the packed instruction's
        // NaN and signed-zero behaviour differs from `f64::max`, which
        // would break bit-parity with the scalar reference.
        F64Lanes(std::array::from_fn(|i| a.0[i].max(b.0[i])))
    }

    /// Multiply then add, TWO roundings — the same arithmetic as the
    /// trait default (a fused `vfmadd` rounds once and would diverge
    /// from the scalar `F64Arith` stream), but in one array traversal
    /// instead of two chained ops.
    #[inline(always)]
    fn fma(&mut self, a: F64Lanes<L>, b: F64Lanes<L>, c: F64Lanes<L>) -> F64Lanes<L> {
        F64Lanes(backend::fma(&a.0, &b.0, &c.0))
    }

    fn sin_cos(&mut self, a: F64Lanes<L>) -> (F64Lanes<L>, F64Lanes<L>) {
        let mut cs = [0.0_f64; L];
        let sn = std::array::from_fn(|i| {
            let (s, c) = a.0[i].sin_cos();
            cs[i] = c;
            s
        });
        (F64Lanes(sn), F64Lanes(cs))
    }

    fn name(&self) -> &'static str {
        match L {
            1 => "simd/f64x1",
            2 => "simd/f64x2",
            4 => "simd/f64x4",
            8 => "simd/f64x8",
            16 => "simd/f64x16",
            _ => "simd/f64xN",
        }
    }

    fn iekf_label(&self) -> &'static str {
        "iekf5/simd"
    }

    fn counts(&self) -> OpCounts {
        OpCounts::default()
    }
}

impl<const L: usize> LaneOps<L> for SimdArith<L> {
    type Inner = SimdF64;

    fn with_inner(inner: SimdF64) -> Self {
        Self { inner }
    }

    fn inner(&self) -> &SimdF64 {
        &self.inner
    }

    fn inner_mut(&mut self) -> &mut SimdF64 {
        &mut self.inner
    }

    fn from_lanes(&mut self, xs: [f64; L]) -> F64Lanes<L> {
        F64Lanes(xs)
    }

    fn splat(&mut self, v: f64) -> F64Lanes<L> {
        F64Lanes::splat(v)
    }

    fn lane_to_f64(&self, v: &F64Lanes<L>, lane: usize) -> f64 {
        v.0[lane]
    }

    fn lane_lt(&mut self, a: &F64Lanes<L>, b: &F64Lanes<L>) -> [bool; L] {
        backend::lt_mask(&a.0, &b.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every backend op must be bitwise what the scalar FPU computes —
    /// including on the odd tail lane of an odd width, and on special
    /// values (NaN propagation, signed zeros, infinities). Inputs go
    /// through `black_box` so both sides execute on the hardware:
    /// compile-time folding canonicalizes NaN signs differently from
    /// the FPU's indefinite NaN, which is exactly the mismatch the
    /// runtime parity claim does not include.
    #[test]
    fn backend_ops_match_scalar_bitwise() {
        let a: [f64; 7] =
            std::hint::black_box([1.5, -2.25, f64::NAN, 0.0, -0.0, 1e-308, f64::INFINITY]);
        let b: [f64; 7] = std::hint::black_box([3.0, 0.5, 1.0, -0.0, 0.0, 1e308, -1.0]);
        let mut s = SimdArith::<7>::default();
        let (va, vb) = (F64Lanes(a), F64Lanes(b));
        let pairs: [(F64Lanes<7>, [f64; 7]); 4] = [
            (s.add(va, vb), std::array::from_fn(|i| a[i] + b[i])),
            (s.sub(va, vb), std::array::from_fn(|i| a[i] - b[i])),
            (s.mul(va, vb), std::array::from_fn(|i| a[i] * b[i])),
            (s.div(va, vb), std::array::from_fn(|i| a[i] / b[i])),
        ];
        for (got, want) in pairs {
            for i in 0..7 {
                assert_eq!(got[i].to_bits(), want[i].to_bits(), "lane {i}");
            }
        }
        let r = s.sqrt(va);
        let n = s.neg(va);
        let ab = s.abs(va);
        let mx = s.max(va, vb);
        for i in 0..7 {
            assert_eq!(r[i].to_bits(), a[i].sqrt().to_bits(), "sqrt {i}");
            assert_eq!(n[i].to_bits(), (-a[i]).to_bits(), "neg {i}");
            assert_eq!(ab[i].to_bits(), a[i].abs().to_bits(), "abs {i}");
            assert_eq!(mx[i].to_bits(), a[i].max(b[i]).to_bits(), "max {i}");
        }
    }

    #[test]
    fn masks_and_collectives_agree_with_scalar_compares() {
        let a = [1.0, 5.0, f64::NAN, -0.0];
        let b = [2.0, 4.0, 1.0, 0.0];
        let mut s = SimdArith::<4>::default();
        let (va, vb) = (F64Lanes(a), F64Lanes(b));
        let mask = s.lane_lt(&va, &vb);
        assert_eq!(mask, [true, false, false, false]);
        // Collective lt/eq are the all-lanes reductions.
        assert!(!s.lt(va, vb));
        let lo = F64Lanes([0.0, 0.0, 0.0, 0.0]);
        let hi = F64Lanes([1.0, 2.0, 3.0, 4.0]);
        assert!(s.lt(lo, hi));
        assert!(s.eq(lo, lo));
        assert!(!s.eq(va, va), "NaN lane must fail IEEE equality");
    }

    #[test]
    fn fma_rounds_twice_like_the_scalar_reference() {
        let mut s = SimdArith::<2>::default();
        // x² = 1 + 2⁻²⁶ + 2⁻⁵⁴: the 2⁻⁵⁴ tail is below the half-ulp of
        // the product (so mul-then-add loses it) but representable in
        // the fused result's exponent range (so one rounding keeps it).
        let x = 1.0 + (2.0_f64).powi(-27);
        let v = s.fma(F64Lanes([x; 2]), F64Lanes([x; 2]), F64Lanes([-1.0; 2]));
        let two_rounding = x * x - 1.0;
        let fused = x.mul_add(x, -1.0);
        assert_eq!(v[0].to_bits(), two_rounding.to_bits());
        assert_ne!(fused.to_bits(), two_rounding.to_bits());
    }
}
