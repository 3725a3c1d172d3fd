//! Arithmetic substrates: the fusion filter over different number
//! systems.
//!
//! The paper runs its filter in IEEE floats emulated by Softfloat on
//! the Sabre core, and names "a full fixed-point analysis and
//! conversion of the Sensor Fusion Algorithm from float to fixed-point
//! calculations" as the obvious enhancement. This module makes that
//! comparison executable for the *whole* estimation stack: the
//! [`Arith`] trait abstracts every scalar operation the filter
//! performs, so the identical 5-state iterated EKF
//! ([`crate::lanes::LaneIekf`], whose width-1 form is
//! [`crate::filter::GenericBoresightFilter`]) runs in
//!
//! * native `f64` ([`F64Arith`]) — the reference,
//! * native `f32` ([`F32Arith`]) — the cheap host float, half the
//!   mantissa at a fraction of an FPGA multiplier's area,
//! * emulated IEEE binary64 ([`SoftArith`]) — the paper's
//!   configuration, with exact operation counts and Sabre cycle costs,
//! * the saturating fixed-point family ([`QArith`]) — the proposed
//!   enhancement at any Q-format split (Q16.16, Q8.24, Q4.28, …),
//!   never wrapping, every saturation event counted,
//! * `L` lockstep lanes of any of the above ([`LaneArith`]) — the
//!   software mirror of an FPGA's replicated parallel datapath,
//!   stepping `L` independent filters per instruction stream (see
//!   [`crate::lanes`]) — or the explicit-vector `f64` lanes of
//!   [`crate::simd::SimdArith`], selected per scalar substrate through
//!   [`LaneSpec`].
//!
//! # The widened trait
//!
//! Beyond `add`/`sub`/`mul`/`div`, the full IEKF needs negation,
//! square roots, absolute values, comparisons ([`Arith::lt`],
//! [`Arith::eq`], [`Arith::max`]), a fused multiply-add ([`Arith::fma`],
//! which substrates with a wide accumulator override to round once)
//! and trigonometry ([`Arith::sin_cos`], defaulting to host-evaluated
//! values so emulated substrates stay bit-comparable to the native
//! reference while still charging a software-evaluation cost).
//!
//! # Instrumentation
//!
//! Every substrate keeps a shared [`OpCounts`] ledger — one counter
//! per operation class plus the saturation-event count — read through
//! [`Arith::counts`], with a substrate cycle model behind
//! [`Arith::cycles`]: Softfloat charges its [`fpga::softfloat::SoftFpu`]
//! ledger, fixed point charges the integer-op model in
//! [`QArith::CYCLE_ADD`] and friends, and the native reference
//! reports zero (host FPU, not cycle-modelled).

use fpga::fixed::Fixed;
use fpga::softfloat::{Sf64, SoftFpu};

/// Per-operation counters shared by every arithmetic substrate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Additions.
    pub add: u64,
    /// Subtractions.
    pub sub: u64,
    /// Multiplications.
    pub mul: u64,
    /// Divisions.
    pub div: u64,
    /// Negations.
    pub neg: u64,
    /// Absolute values.
    pub abs: u64,
    /// Square roots.
    pub sqrt: u64,
    /// Comparisons (`lt`, `eq`, and the compare inside `max`).
    pub cmp: u64,
    /// Fused multiply-adds performed as one operation (substrates
    /// without a wide accumulator count the mul and add separately).
    pub fma: u64,
    /// Sine/cosine pair evaluations.
    pub trig: u64,
    /// Range-saturation events (fixed point only; attributes
    /// fixed-point divergence to overflow rather than rounding).
    pub saturations: u64,
}

impl OpCounts {
    /// Total arithmetic operations (saturations are events, not ops).
    pub fn total(&self) -> u64 {
        self.add
            + self.sub
            + self.mul
            + self.div
            + self.neg
            + self.abs
            + self.sqrt
            + self.cmp
            + self.fma
            + self.trig
    }

    /// The counter growth from an `earlier` snapshot of the same
    /// ledger to this one — the primitive behind per-phase attribution.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is not an earlier snapshot
    /// (any counter would go negative).
    pub fn since(&self, earlier: &OpCounts) -> OpCounts {
        OpCounts {
            add: self.add - earlier.add,
            sub: self.sub - earlier.sub,
            mul: self.mul - earlier.mul,
            div: self.div - earlier.div,
            neg: self.neg - earlier.neg,
            abs: self.abs - earlier.abs,
            sqrt: self.sqrt - earlier.sqrt,
            cmp: self.cmp - earlier.cmp,
            fma: self.fma - earlier.fma,
            trig: self.trig - earlier.trig,
            saturations: self.saturations - earlier.saturations,
        }
    }

    /// Accumulates another ledger into this one.
    pub fn accumulate(&mut self, other: &OpCounts) {
        self.add += other.add;
        self.sub += other.sub;
        self.mul += other.mul;
        self.div += other.div;
        self.neg += other.neg;
        self.abs += other.abs;
        self.sqrt += other.sqrt;
        self.cmp += other.cmp;
        self.fma += other.fma;
        self.trig += other.trig;
        self.saturations += other.saturations;
    }
}

/// The cost a ledger attributes to one algorithm phase: its op counts
/// plus the substrate's modelled cycles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseCost {
    /// Operations charged to the phase.
    pub ops: OpCounts,
    /// Modelled cycles charged to the phase (0 on substrates that are
    /// not cycle-modelled).
    pub cycles: u64,
}

impl PhaseCost {
    /// Charges the growth between two `(counts, cycles)` snapshots.
    pub fn charge(&mut self, before: (OpCounts, u64), after: (OpCounts, u64)) {
        self.ops.accumulate(&after.0.since(&before.0));
        self.cycles += after.1 - before.1;
    }
}

/// Per-phase attribution of the filter's arithmetic: where in the
/// algorithm the substrate's ops and cycles are spent. Maintained by
/// [`crate::lanes::LaneIekf`] (and so by its width-1 form, the scalar
/// filter) from ledger snapshots at phase boundaries, so it works
/// unchanged on every substrate
/// (including [`F64ArithFast`], where every delta is zero).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseLedger {
    /// Time propagation (`P += Q dt`).
    pub predict: PhaseCost,
    /// First-pass innovation, its sigma and the gate decision.
    pub gate: PhaseCost,
    /// IEKF iterations, the covariance update and the trust
    /// region — only charged for accepted samples.
    pub update: PhaseCost,
}

impl PhaseLedger {
    /// Total ops attributed to a tracked phase (arithmetic outside the
    /// filter — estimator prep, diagnostics — is the caller's ledger
    /// total minus this).
    pub fn tracked_ops(&self) -> u64 {
        self.predict.ops.total() + self.gate.ops.total() + self.update.ops.total()
    }

    /// Total cycles attributed to a tracked phase.
    pub fn tracked_cycles(&self) -> u64 {
        self.predict.cycles + self.gate.cycles + self.update.cycles
    }
}

/// Number-system abstraction for the fusion filter.
///
/// Implementations count every operation in their [`OpCounts`] ledger;
/// the provided defaults (negate via subtract-from-zero, fused
/// multiply-add via separate multiply and add, comparisons-based `abs`
/// and `max`, host-evaluated trigonometry) are built from the
/// primitive operations, so they stay correctly counted and behave
/// sanely for any custom substrate.
///
/// Substrates and their scalars are `Send`: a filter over any `Arith`
/// is a session backend, and whole sessions move to worker threads in
/// the parallel sweep executor. Every substrate here is plain data.
pub trait Arith: Send {
    /// The scalar type.
    type T: Copy + std::fmt::Debug + Send;

    /// `true` for fixed-point number systems. They round every result
    /// to an absolute quantum, not to a fraction of its magnitude, so a
    /// difference of nearly equal small values can cancel to zero or
    /// below. The IEKF therefore keeps the Joseph-form covariance update
    /// on them and takes the cheaper Kalman form `P - K (J P)` on
    /// floating-point substrates (see [`crate::filter::kalman_structured`]).
    /// A property of the number system, not an option.
    const FIXED_POINT: bool = false;

    /// Converts from `f64`.
    fn num(&mut self, x: f64) -> Self::T;
    /// Converts to `f64`.
    fn to_f64(&self, x: Self::T) -> f64;
    /// Addition.
    fn add(&mut self, a: Self::T, b: Self::T) -> Self::T;
    /// Subtraction.
    fn sub(&mut self, a: Self::T, b: Self::T) -> Self::T;
    /// Multiplication.
    fn mul(&mut self, a: Self::T, b: Self::T) -> Self::T;
    /// Division.
    fn div(&mut self, a: Self::T, b: Self::T) -> Self::T;

    /// Square root (negative inputs follow the substrate's convention:
    /// NaN for floats, zero for fixed point).
    fn sqrt(&mut self, a: Self::T) -> Self::T {
        let v = self.to_f64(a).sqrt();
        self.num(v)
    }

    /// Negation.
    fn neg(&mut self, a: Self::T) -> Self::T {
        let zero = self.num(0.0);
        self.sub(zero, a)
    }

    /// Absolute value.
    fn abs(&mut self, a: Self::T) -> Self::T {
        let zero = self.num(0.0);
        if self.lt(a, zero) {
            self.neg(a)
        } else {
            a
        }
    }

    /// Strict less-than.
    fn lt(&mut self, a: Self::T, b: Self::T) -> bool;

    /// Equality (IEEE semantics for float substrates: NaN != NaN).
    fn eq(&mut self, a: Self::T, b: Self::T) -> bool;

    /// The larger of two values.
    fn max(&mut self, a: Self::T, b: Self::T) -> Self::T {
        if self.lt(a, b) {
            b
        } else {
            a
        }
    }

    /// Fused multiply-add `a * b + c`. The default rounds twice
    /// (separate multiply and add, matching float substrates without an
    /// FMA unit); substrates with a wide accumulator override it to
    /// round once.
    fn fma(&mut self, a: Self::T, b: Self::T, c: Self::T) -> Self::T {
        let p = self.mul(a, b);
        self.add(c, p)
    }

    /// Sine and cosine of an angle in radians.
    ///
    /// The default evaluates on the host through `f64` — a sane choice
    /// for every substrate here, because it keeps emulated number
    /// systems bit-comparable to the native reference while the cycle
    /// model still charges the software (or LUT) evaluation the target
    /// would perform. Small-angle substrates may instead override with
    /// `sin x ~ x`, `cos x ~ 1` or an LUT such as
    /// `fpga::fixed::SinCosLut`.
    fn sin_cos(&mut self, a: Self::T) -> (Self::T, Self::T) {
        let (s, c) = self.to_f64(a).sin_cos();
        (self.num(s), self.num(c))
    }

    /// Short name of the number system (used as a session backend
    /// label).
    fn name(&self) -> &'static str {
        "custom"
    }

    /// Label for the full 5-state IEKF running over this substrate.
    fn iekf_label(&self) -> &'static str {
        "iekf5/custom"
    }

    /// The operation ledger so far.
    fn counts(&self) -> OpCounts {
        OpCounts::default()
    }

    /// Modelled execution cycles so far (0 = not cycle-modelled).
    fn cycles(&self) -> u64 {
        0
    }

    /// Range-saturation events so far.
    fn saturations(&self) -> u64 {
        self.counts().saturations
    }

    /// Clears the operation ledger (and any cycle model behind it).
    fn reset_counts(&mut self) {}

    /// Clears *only* the range-saturation tally, leaving the op and
    /// cycle ledgers intact. Windowed saturation-rate consumers (the
    /// adaptive context monitor, fleet summaries) previously had no
    /// way to zero the tally without also destroying the cycle model;
    /// a no-op on substrates that cannot saturate.
    fn reset_saturation_counts(&mut self) {}
}

/// Native double precision, generic over whether the [`OpCounts`]
/// ledger is maintained.
///
/// `COUNTED` is a compile-time switch: with `true` (the [`F64Arith`]
/// default) every operation increments its counter; with `false`
/// ([`F64ArithFast`]) the increments are `if COUNTED` branches on a
/// const, which the compiler deletes — the native hot path pays
/// *nothing* for instrumentation it does not use. The arithmetic
/// itself is identical either way, so results are bit-for-bit equal
/// across the two instantiations.
#[derive(Clone, Copy, Debug, Default)]
pub struct GenericF64Arith<const COUNTED: bool> {
    counts: OpCounts,
}

/// Native double precision (the reference substrate).
///
/// Operations are counted but not cycle-modelled: this is the host
/// FPU, the baseline everything else is compared against. For the
/// zero-overhead variant the throughput benchmarks use, see
/// [`F64ArithFast`].
pub type F64Arith = GenericF64Arith<true>;

/// Native double precision with the operation ledger compiled out —
/// the zero-instrumentation-cost substrate for wall-clock throughput
/// work. Bit-identical results to [`F64Arith`]; `counts()` reports
/// all zeros.
pub type F64ArithFast = GenericF64Arith<false>;

impl<const COUNTED: bool> Arith for GenericF64Arith<COUNTED> {
    type T = f64;

    fn num(&mut self, x: f64) -> f64 {
        x
    }

    fn to_f64(&self, x: f64) -> f64 {
        x
    }

    fn add(&mut self, a: f64, b: f64) -> f64 {
        if COUNTED {
            self.counts.add += 1;
        }
        a + b
    }

    fn sub(&mut self, a: f64, b: f64) -> f64 {
        if COUNTED {
            self.counts.sub += 1;
        }
        a - b
    }

    fn mul(&mut self, a: f64, b: f64) -> f64 {
        if COUNTED {
            self.counts.mul += 1;
        }
        a * b
    }

    fn div(&mut self, a: f64, b: f64) -> f64 {
        if COUNTED {
            self.counts.div += 1;
        }
        a / b
    }

    fn sqrt(&mut self, a: f64) -> f64 {
        if COUNTED {
            self.counts.sqrt += 1;
        }
        a.sqrt()
    }

    fn neg(&mut self, a: f64) -> f64 {
        if COUNTED {
            self.counts.neg += 1;
        }
        -a
    }

    fn abs(&mut self, a: f64) -> f64 {
        if COUNTED {
            self.counts.abs += 1;
        }
        a.abs()
    }

    fn lt(&mut self, a: f64, b: f64) -> bool {
        if COUNTED {
            self.counts.cmp += 1;
        }
        a < b
    }

    fn eq(&mut self, a: f64, b: f64) -> bool {
        if COUNTED {
            self.counts.cmp += 1;
        }
        a == b
    }

    fn max(&mut self, a: f64, b: f64) -> f64 {
        if COUNTED {
            self.counts.cmp += 1;
        }
        a.max(b)
    }

    fn sin_cos(&mut self, a: f64) -> (f64, f64) {
        if COUNTED {
            self.counts.trig += 1;
        }
        a.sin_cos()
    }

    fn name(&self) -> &'static str {
        if COUNTED {
            "f64"
        } else {
            "f64/uncounted"
        }
    }

    fn iekf_label(&self) -> &'static str {
        // Both instantiations run the identical arithmetic, so they
        // share the reference label (parallel/serial parity tests
        // compare labels across counted and uncounted runs).
        "iekf5/f64"
    }

    fn counts(&self) -> OpCounts {
        self.counts
    }

    fn reset_counts(&mut self) {
        self.counts = OpCounts::default();
    }
}

/// Native single precision, generic over whether the [`OpCounts`]
/// ledger is maintained (the `f32` twin of [`GenericF64Arith`]).
///
/// Half the mantissa of the reference at a fraction of the hardware
/// cost: a binary32 multiplier is the cheap, paper-era-realistic FPGA
/// float option, and on the host it is the densest native SIMD lane.
/// Values round through `f32` on entry (`num`) and after every
/// operation, so the divergence the arithmetic ablation measures is
/// pure precision loss — there is no range saturation to attribute.
#[derive(Clone, Copy, Debug, Default)]
pub struct GenericF32Arith<const COUNTED: bool> {
    counts: OpCounts,
}

/// Native single precision (counted).
pub type F32Arith = GenericF32Arith<true>;

/// Native single precision with the ledger compiled out — bit-identical
/// results to [`F32Arith`] for wall-clock throughput work.
pub type F32ArithFast = GenericF32Arith<false>;

impl<const COUNTED: bool> Arith for GenericF32Arith<COUNTED> {
    type T = f32;

    fn num(&mut self, x: f64) -> f32 {
        x as f32
    }

    fn to_f64(&self, x: f32) -> f64 {
        x as f64
    }

    fn add(&mut self, a: f32, b: f32) -> f32 {
        if COUNTED {
            self.counts.add += 1;
        }
        a + b
    }

    fn sub(&mut self, a: f32, b: f32) -> f32 {
        if COUNTED {
            self.counts.sub += 1;
        }
        a - b
    }

    fn mul(&mut self, a: f32, b: f32) -> f32 {
        if COUNTED {
            self.counts.mul += 1;
        }
        a * b
    }

    fn div(&mut self, a: f32, b: f32) -> f32 {
        if COUNTED {
            self.counts.div += 1;
        }
        a / b
    }

    fn sqrt(&mut self, a: f32) -> f32 {
        if COUNTED {
            self.counts.sqrt += 1;
        }
        a.sqrt()
    }

    fn neg(&mut self, a: f32) -> f32 {
        if COUNTED {
            self.counts.neg += 1;
        }
        -a
    }

    fn abs(&mut self, a: f32) -> f32 {
        if COUNTED {
            self.counts.abs += 1;
        }
        a.abs()
    }

    fn lt(&mut self, a: f32, b: f32) -> bool {
        if COUNTED {
            self.counts.cmp += 1;
        }
        a < b
    }

    fn eq(&mut self, a: f32, b: f32) -> bool {
        if COUNTED {
            self.counts.cmp += 1;
        }
        a == b
    }

    fn max(&mut self, a: f32, b: f32) -> f32 {
        if COUNTED {
            self.counts.cmp += 1;
        }
        a.max(b)
    }

    fn sin_cos(&mut self, a: f32) -> (f32, f32) {
        if COUNTED {
            self.counts.trig += 1;
        }
        // Host-evaluated in f64 then rounded, like every emulated
        // substrate's trig default: the f32 path measures datapath
        // precision, not libm's single-precision polynomial choice.
        let (s, c) = (a as f64).sin_cos();
        (s as f32, c as f32)
    }

    fn name(&self) -> &'static str {
        if COUNTED {
            "f32"
        } else {
            "f32/uncounted"
        }
    }

    fn iekf_label(&self) -> &'static str {
        "iekf5/f32"
    }

    fn counts(&self) -> OpCounts {
        self.counts
    }

    fn reset_counts(&mut self) {
        self.counts = OpCounts::default();
    }
}

/// Softfloat binary64 with Sabre cycle accounting.
#[derive(Clone, Debug, Default)]
pub struct SoftArith {
    /// The cost-accounted FPU (inspect for op counts and cycles).
    pub fpu: SoftFpu,
    counts: OpCounts,
}

impl Arith for SoftArith {
    type T = Sf64;

    fn num(&mut self, x: f64) -> Sf64 {
        Sf64::from_f64(x)
    }

    fn to_f64(&self, x: Sf64) -> f64 {
        x.to_f64()
    }

    fn add(&mut self, a: Sf64, b: Sf64) -> Sf64 {
        self.counts.add += 1;
        self.fpu.add_f64(a, b)
    }

    fn sub(&mut self, a: Sf64, b: Sf64) -> Sf64 {
        self.counts.sub += 1;
        self.fpu.sub_f64(a, b)
    }

    fn mul(&mut self, a: Sf64, b: Sf64) -> Sf64 {
        self.counts.mul += 1;
        self.fpu.mul_f64(a, b)
    }

    fn div(&mut self, a: Sf64, b: Sf64) -> Sf64 {
        self.counts.div += 1;
        self.fpu.div_f64(a, b)
    }

    fn sqrt(&mut self, a: Sf64) -> Sf64 {
        self.counts.sqrt += 1;
        self.fpu.sqrt_f64(a)
    }

    fn neg(&mut self, a: Sf64) -> Sf64 {
        self.counts.neg += 1;
        self.fpu.neg_f64(a)
    }

    fn abs(&mut self, a: Sf64) -> Sf64 {
        self.counts.abs += 1;
        self.fpu.abs_f64(a)
    }

    fn lt(&mut self, a: Sf64, b: Sf64) -> bool {
        self.counts.cmp += 1;
        self.fpu.lt_f64(a, b)
    }

    fn eq(&mut self, a: Sf64, b: Sf64) -> bool {
        self.counts.cmp += 1;
        self.fpu.eq_f64(a, b)
    }

    fn max(&mut self, a: Sf64, b: Sf64) -> Sf64 {
        // `f64::max` semantics (NaN-ignoring), so the emulated path
        // stays bit-comparable to the native reference even when a NaN
        // enters the stream; the trait's lt-based default would return
        // the NaN instead.
        self.counts.cmp += 1;
        if a.is_nan() {
            return b;
        }
        if b.is_nan() {
            return a;
        }
        if self.fpu.lt_f64(a, b) {
            b
        } else {
            a
        }
    }

    fn sin_cos(&mut self, a: Sf64) -> (Sf64, Sf64) {
        self.counts.trig += 1;
        self.fpu.sin_cos_f64(a)
    }

    fn name(&self) -> &'static str {
        "softfloat/f64"
    }

    fn iekf_label(&self) -> &'static str {
        "iekf5/softfloat"
    }

    fn counts(&self) -> OpCounts {
        self.counts
    }

    fn cycles(&self) -> u64 {
        self.fpu.stats().cycles
    }

    fn reset_counts(&mut self) {
        self.counts = OpCounts::default();
        self.fpu.reset();
    }
}

/// The saturating fixed-point substrate family, one 32-bit register
/// split into `32 - FRAC` integer and `FRAC` fractional bits.
///
/// Every operation saturates at the register range instead of silently
/// wrapping, and each saturation is recorded in
/// [`OpCounts::saturations`] so fixed-point divergence in the
/// arithmetic ablation is attributable to overflow vs quantization.
/// The fused multiply-add keeps the 64-bit product-accumulator wide
/// (one rounding), as a DSP-slice MAC would. The integer cycle model
/// is format-independent: every Q-split runs the same 32-bit integer
/// datapath, only the rounding shift constant differs.
///
/// Trading integer for fractional bits moves the substrate along the
/// accuracy-vs-range frontier: `QArith<16>` (Q16.16) is the balanced
/// paper-era split, `QArith<24>` (Q8.24) buys 8 more fraction bits at
/// a ±128 range, `QArith<28>` (Q4.28) resolves 3.7 nano-units but
/// saturates beyond ±8 — the saturation ledger quantifies exactly what
/// each narrower range costs on a given scenario.
#[derive(Clone, Copy, Debug, Default)]
pub struct QArith<const FRAC: u32> {
    counts: OpCounts,
}

impl<const FRAC: u32> QArith<FRAC> {
    /// Integer cycles for add/sub/neg/abs/compare on a 32-bit core.
    pub const CYCLE_ADD: u64 = 1;
    /// Integer cycles for the 32x32->64 multiply with rounding shift.
    pub const CYCLE_MUL: u64 = 3;
    /// Integer cycles for the fused multiply-add (wide accumulate).
    pub const CYCLE_FMA: u64 = 4;
    /// Integer cycles for the iterative 64/32 divide.
    pub const CYCLE_DIV: u64 = 35;
    /// Integer cycles for the integer square root iteration.
    pub const CYCLE_SQRT: u64 = 40;
    /// Cycles for a trig evaluation via the Q1.14 lookup table.
    pub const CYCLE_TRIG: u64 = 8;

    fn sat(&mut self, saturated: bool) {
        if saturated {
            self.counts.saturations += 1;
        }
    }
}

/// Floor integer square root of a `u64`.
fn isqrt_u64(n: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    let mut x = 1u64 << (n.ilog2() / 2 + 1);
    loop {
        let y = (x + n / x) / 2;
        if y >= x {
            return x;
        }
        x = y;
    }
}

impl<const FRAC: u32> Arith for QArith<FRAC> {
    type T = Fixed<FRAC>;

    const FIXED_POINT: bool = true;

    fn num(&mut self, x: f64) -> Fixed<FRAC> {
        Fixed::from_f64(x)
    }

    fn to_f64(&self, x: Fixed<FRAC>) -> f64 {
        x.to_f64()
    }

    fn add(&mut self, a: Fixed<FRAC>, b: Fixed<FRAC>) -> Fixed<FRAC> {
        self.counts.add += 1;
        let (v, sat) = a.saturating_add_checked(b);
        self.sat(sat);
        v
    }

    fn sub(&mut self, a: Fixed<FRAC>, b: Fixed<FRAC>) -> Fixed<FRAC> {
        self.counts.sub += 1;
        let (v, sat) = a.saturating_sub_checked(b);
        self.sat(sat);
        v
    }

    fn mul(&mut self, a: Fixed<FRAC>, b: Fixed<FRAC>) -> Fixed<FRAC> {
        self.counts.mul += 1;
        let (v, sat) = a.saturating_mul_checked(b);
        self.sat(sat);
        v
    }

    fn div(&mut self, a: Fixed<FRAC>, b: Fixed<FRAC>) -> Fixed<FRAC> {
        self.counts.div += 1;
        let (v, sat) = a.saturating_div_checked(b);
        self.sat(sat);
        v
    }

    fn sqrt(&mut self, a: Fixed<FRAC>) -> Fixed<FRAC> {
        self.counts.sqrt += 1;
        if a.raw() <= 0 {
            return Fixed::ZERO;
        }
        // sqrt(raw / 2^FRAC) * 2^FRAC = sqrt(raw * 2^FRAC): one widening
        // shift keeps the iteration in integers at full precision. The
        // result fits i32 for every split up to Q4.28
        // (sqrt(2^31 * 2^28) < 2^30).
        Fixed::from_raw(isqrt_u64((a.raw() as u64) << FRAC) as i32)
    }

    fn neg(&mut self, a: Fixed<FRAC>) -> Fixed<FRAC> {
        self.counts.neg += 1;
        self.sat(a.raw() == i32::MIN);
        a.saturating_neg()
    }

    fn abs(&mut self, a: Fixed<FRAC>) -> Fixed<FRAC> {
        self.counts.abs += 1;
        self.sat(a.raw() == i32::MIN);
        a.abs()
    }

    fn lt(&mut self, a: Fixed<FRAC>, b: Fixed<FRAC>) -> bool {
        self.counts.cmp += 1;
        a < b
    }

    fn eq(&mut self, a: Fixed<FRAC>, b: Fixed<FRAC>) -> bool {
        self.counts.cmp += 1;
        a == b
    }

    fn fma(&mut self, a: Fixed<FRAC>, b: Fixed<FRAC>, c: Fixed<FRAC>) -> Fixed<FRAC> {
        self.counts.fma += 1;
        let (v, sat) = a.saturating_mul_add_checked(b, c);
        self.sat(sat);
        v
    }

    fn sin_cos(&mut self, a: Fixed<FRAC>) -> (Fixed<FRAC>, Fixed<FRAC>) {
        self.counts.trig += 1;
        let (s, c) = a.to_f64().sin_cos();
        (Fixed::from_f64(s), Fixed::from_f64(c))
    }

    fn name(&self) -> &'static str {
        match FRAC {
            16 => "q16.16",
            20 => "q12.20",
            24 => "q8.24",
            28 => "q4.28",
            _ => "q.fixed",
        }
    }

    fn iekf_label(&self) -> &'static str {
        match FRAC {
            16 => "iekf5/q16.16",
            20 => "iekf5/q12.20",
            24 => "iekf5/q8.24",
            28 => "iekf5/q4.28",
            _ => "iekf5/q.fixed",
        }
    }

    fn counts(&self) -> OpCounts {
        self.counts
    }

    fn cycles(&self) -> u64 {
        let c = &self.counts;
        (c.add + c.sub + c.neg + c.abs + c.cmp) * Self::CYCLE_ADD
            + c.mul * Self::CYCLE_MUL
            + c.fma * Self::CYCLE_FMA
            + c.div * Self::CYCLE_DIV
            + c.sqrt * Self::CYCLE_SQRT
            + c.trig * Self::CYCLE_TRIG
    }

    fn reset_counts(&mut self) {
        self.counts = OpCounts::default();
    }

    fn reset_saturation_counts(&mut self) {
        self.counts.saturations = 0;
    }
}

/// A multi-lane batched substrate: `L` independent values of an inner
/// substrate stepped in lockstep, the software mirror of an FPGA's
/// replicated parallel datapath.
///
/// The scalar is `[A::T; L]` and every arithmetic operation applies
/// the inner substrate's operation to each lane. On native `f64` the
/// lane loops are trivially unrollable/vectorizable; on emulated
/// substrates the per-operation dispatch overhead is amortized over
/// `L` useful results. Each lane's value stream is **bit-identical**
/// to running the inner substrate alone (the property the lane-parity
/// tests pin), because a lane never observes its neighbours.
///
/// # Collective comparisons vs SIMD masks
///
/// [`Arith::lt`] and [`Arith::eq`] must return one `bool`, so here
/// they are *collective*: true only when every lane agrees. Lockstep
/// code that needs per-lane control flow (the gate, the trust region,
/// IEKF convergence) must use the per-lane probes
/// ([`LaneOps::lane_lt`], [`LaneOps::lane_to_f64`]) and mask its
/// own writes — which is exactly what [`crate::lanes::LaneIekf`] does.
/// [`Arith::max`] and [`Arith::abs`] stay element-wise (they are value
/// selections, not control flow).
///
/// The explicit-vector substrate [`crate::simd::SimdArith`] honours
/// the identical contract, but by *mask* semantics: its per-lane probe
/// ([`LaneOps::lane_lt`]) is a hardware compare producing a lane mask
/// (`cmppd` + `movemask` on SSE2), and its collective [`Arith::lt`] /
/// [`Arith::eq`] are the all-lanes reduction of that mask. Divergence
/// handling is therefore the same on both lane substrates — every lane
/// executes every instruction and the *caller* masks the writes of
/// lanes that left the common control path — which is why
/// [`crate::lanes::LaneIekf`] is generic over [`LaneOps`] and stays
/// per-lane bit-identical to its width-1 run on either. The two
/// differ only in how the lanes are computed: a per-lane loop over the
/// inner substrate here (autovectorized at best), one vector
/// instruction per op there.
#[derive(Clone, Copy, Debug, Default)]
pub struct LaneArith<A: Arith, const L: usize> {
    inner: A,
}

impl<A: Arith, const L: usize> Arith for LaneArith<A, L> {
    type T = [A::T; L];

    fn num(&mut self, x: f64) -> Self::T {
        [self.inner.num(x); L]
    }

    fn to_f64(&self, x: Self::T) -> f64 {
        self.inner.to_f64(x[0])
    }

    fn add(&mut self, a: Self::T, b: Self::T) -> Self::T {
        std::array::from_fn(|i| self.inner.add(a[i], b[i]))
    }

    fn sub(&mut self, a: Self::T, b: Self::T) -> Self::T {
        std::array::from_fn(|i| self.inner.sub(a[i], b[i]))
    }

    fn mul(&mut self, a: Self::T, b: Self::T) -> Self::T {
        std::array::from_fn(|i| self.inner.mul(a[i], b[i]))
    }

    fn div(&mut self, a: Self::T, b: Self::T) -> Self::T {
        std::array::from_fn(|i| self.inner.div(a[i], b[i]))
    }

    fn sqrt(&mut self, a: Self::T) -> Self::T {
        std::array::from_fn(|i| self.inner.sqrt(a[i]))
    }

    fn neg(&mut self, a: Self::T) -> Self::T {
        std::array::from_fn(|i| self.inner.neg(a[i]))
    }

    fn abs(&mut self, a: Self::T) -> Self::T {
        std::array::from_fn(|i| self.inner.abs(a[i]))
    }

    fn lt(&mut self, a: Self::T, b: Self::T) -> bool {
        (0..L).all(|i| self.inner.lt(a[i], b[i]))
    }

    fn eq(&mut self, a: Self::T, b: Self::T) -> bool {
        (0..L).all(|i| self.inner.eq(a[i], b[i]))
    }

    fn max(&mut self, a: Self::T, b: Self::T) -> Self::T {
        std::array::from_fn(|i| self.inner.max(a[i], b[i]))
    }

    fn fma(&mut self, a: Self::T, b: Self::T, c: Self::T) -> Self::T {
        std::array::from_fn(|i| self.inner.fma(a[i], b[i], c[i]))
    }

    fn sin_cos(&mut self, a: Self::T) -> (Self::T, Self::T) {
        let mut cs = [a[0]; L];
        let sn = std::array::from_fn(|i| {
            let (s, c) = self.inner.sin_cos(a[i]);
            cs[i] = c;
            s
        });
        (sn, cs)
    }

    fn name(&self) -> &'static str {
        "lanes"
    }

    fn iekf_label(&self) -> &'static str {
        "iekf5/lanes"
    }

    fn counts(&self) -> OpCounts {
        self.inner.counts()
    }

    fn cycles(&self) -> u64 {
        self.inner.cycles()
    }

    fn reset_counts(&mut self) {
        self.inner.reset_counts();
    }

    fn reset_saturation_counts(&mut self) {
        self.inner.reset_saturation_counts();
    }
}

/// A scalar substrate that knows its `L`-lane batched form.
///
/// This is the compile-time link [`crate::lanes::LaneIekf`] (and the
/// fleet arena on top of it) uses to pick a lane substrate per scalar
/// substrate: every counted/emulated/fixed-point scalar maps to the
/// generic per-lane loop [`LaneArith<Self, L>`], while the
/// [`crate::simd::SimdF64`] marker maps to the explicit-vector
/// [`crate::simd::SimdArith<L>`]. Code written against
/// `A: LaneSpec<L>` is oblivious to the choice — both lane forms
/// implement [`LaneOps`] and both keep each lane bit-identical to a
/// width-1 run. (The width-1 scalar filter itself names its lane
/// substrate directly, `LaneArith<A, 1>`, so it needs no `LaneSpec`
/// and runs over any [`Arith`].)
pub trait LaneSpec<const L: usize>: Arith + Sized
where
    <Self::Lanes as Arith>::T: std::ops::IndexMut<usize, Output = Self::T>,
{
    /// The lane substrate stepping `L` values of `Self` in lockstep.
    type Lanes: LaneOps<L, Inner = Self> + Clone + std::fmt::Debug;
}

/// The operations a lane substrate offers beyond [`Arith`]: lane
/// construction, per-lane read-out and the per-lane compare probe that
/// masked control flow is built from.
///
/// The `IndexMut` bound is the load-bearing part of the contract: a
/// lane value must expose its lanes as `value[lane]` scalars of the
/// inner substrate, so lockstep callers (masked state adoption in
/// [`crate::lanes::LaneIekf`], staged-measurement scatter in the fleet
/// arena) write diverged lanes back element-wise regardless of whether
/// the storage is a plain array ([`LaneArith`]) or an explicit vector
/// register image ([`crate::simd::F64Lanes`]).
pub trait LaneOps<const L: usize>: Arith
where
    Self::T: std::ops::IndexMut<usize, Output = <Self::Inner as Arith>::T>,
{
    /// The scalar substrate a lane holds `L` values of.
    type Inner: Arith;

    /// Wraps an inner substrate context.
    fn with_inner(inner: Self::Inner) -> Self;

    /// The inner substrate context (one shared ledger across lanes).
    fn inner(&self) -> &Self::Inner;

    /// The inner substrate context, mutably.
    fn inner_mut(&mut self) -> &mut Self::Inner;

    /// Builds a lane value from per-lane `f64`s. Takes `&mut self`
    /// (unlike the usual `from_*` convention) because substrate
    /// conversions go through [`Arith::num`], which mutates the
    /// instrumentation ledger.
    #[allow(clippy::wrong_self_convention)]
    fn from_lanes(&mut self, xs: [f64; L]) -> Self::T;

    /// Broadcasts one inner scalar to every lane.
    fn splat(&mut self, v: <Self::Inner as Arith>::T) -> Self::T;

    /// Reads one lane back as `f64`.
    fn lane_to_f64(&self, v: &Self::T, lane: usize) -> f64;

    /// Per-lane strict less-than — the masked-control-flow probe.
    fn lane_lt(&mut self, a: &Self::T, b: &Self::T) -> [bool; L];
}

impl<A: Arith, const L: usize> LaneOps<L> for LaneArith<A, L> {
    type Inner = A;

    fn with_inner(inner: A) -> Self {
        Self { inner }
    }

    fn inner(&self) -> &A {
        &self.inner
    }

    fn inner_mut(&mut self) -> &mut A {
        &mut self.inner
    }

    fn from_lanes(&mut self, xs: [f64; L]) -> [A::T; L] {
        xs.map(|x| self.inner.num(x))
    }

    fn splat(&mut self, v: A::T) -> [A::T; L] {
        [v; L]
    }

    fn lane_to_f64(&self, v: &[A::T; L], lane: usize) -> f64 {
        self.inner.to_f64(v[lane])
    }

    fn lane_lt(&mut self, a: &[A::T; L], b: &[A::T; L]) -> [bool; L] {
        std::array::from_fn(|i| self.inner.lt(a[i], b[i]))
    }
}

impl<const COUNTED: bool, const L: usize> LaneSpec<L> for GenericF64Arith<COUNTED> {
    type Lanes = LaneArith<Self, L>;
}

impl<const COUNTED: bool, const L: usize> LaneSpec<L> for GenericF32Arith<COUNTED> {
    type Lanes = LaneArith<Self, L>;
}

impl<const L: usize> LaneSpec<L> for SoftArith {
    type Lanes = LaneArith<Self, L>;
}

impl<const FRAC: u32, const L: usize> LaneSpec<L> for QArith<FRAC> {
    type Lanes = LaneArith<Self, L>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_point_saturation_is_counted_not_wrapped() {
        let mut a = QArith::<16>::default();
        let big = a.num(30000.0);
        let sum = a.add(big, big);
        // Saturates at the register maximum instead of wrapping
        // negative.
        assert!(a.to_f64(sum) > 32000.0);
        let prod = a.mul(big, big);
        assert!(a.to_f64(prod) > 32000.0);
        let tiny = a.num(0.0001);
        let q = a.div(big, tiny);
        assert!(a.to_f64(q) > 32000.0);
        assert_eq!(a.saturations(), 3);
        assert_eq!(a.counts().add, 1);
        assert_eq!(a.counts().mul, 1);
        assert_eq!(a.counts().div, 1);
        assert!(a.cycles() > 0);
        // The explicit saturation reset zeroes only the tally,
        // leaving the op ledger (and the cycle model) intact.
        a.reset_saturation_counts();
        assert_eq!(a.saturations(), 0);
        assert_eq!(a.counts().add, 1);
        assert!(a.cycles() > 0);
        a.reset_counts();
        assert_eq!(a.counts().total(), 0);
    }

    #[test]
    fn widened_ops_are_consistent_across_substrates() {
        let mut f = F64Arith::default();
        let mut s = SoftArith::default();
        let mut q = QArith::<16>::default();
        for x in [-2.5, -0.25, 0.5, 3.75] {
            let (vf, vs, vq) = (f.num(x), s.num(x), q.num(x));
            let xf = f.neg(vf);
            let xs = s.neg(vs);
            let xq = q.neg(vq);
            assert_eq!(xf, s.to_f64(xs));
            assert_eq!(xf, q.to_f64(xq));
            let af = f.abs(vf);
            let asoft = s.abs(vs);
            let afix = q.abs(vq);
            assert_eq!(af, s.to_f64(asoft));
            assert_eq!(af, q.to_f64(afix));
        }
        // sqrt: exact on perfect squares for all substrates.
        let (wf, ws, wq) = (f.num(6.25), s.num(6.25), q.num(6.25));
        assert_eq!(f.sqrt(wf), 2.5);
        let rs = s.sqrt(ws);
        assert_eq!(s.to_f64(rs), 2.5);
        let rq = q.sqrt(wq);
        assert_eq!(q.to_f64(rq), 2.5);
        let neg1 = q.num(-1.0);
        let rneg = q.sqrt(neg1);
        assert_eq!(q.to_f64(rneg), 0.0);
        // fma: fixed point rounds once through the wide accumulator.
        let (qa, qb, qc) = (q.num(1.5), q.num(2.0), q.num(0.25));
        let v = q.fma(qa, qb, qc);
        assert_eq!(q.to_f64(v), 3.25);
        // comparisons and max.
        assert!(f.lt(1.0, 2.0) && !f.eq(1.0, 2.0));
        let (s1, s2) = (s.num(1.0), s.num(2.0));
        assert!(s.lt(s1, s2));
        let (q1, q2) = (q.num(1.0), q.num(2.0));
        assert!(q.lt(q1, q2));
        assert_eq!(f.max(1.0, 2.0), 2.0);
        // trig defaults agree with the host.
        let (sn, cs) = f.sin_cos(0.5);
        let half = s.num(0.5);
        let (ss, sc) = s.sin_cos(half);
        assert_eq!(sn, s.to_f64(ss));
        assert_eq!(cs, s.to_f64(sc));
        assert!(s.fpu.stats().sincos_f64 > 0);
    }
}
