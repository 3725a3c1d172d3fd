//! Cost-accounted software FPU.
//!
//! The paper's Sabre core has no floating-point hardware; every float
//! operation the Kalman filter performs expands into a Softfloat
//! routine of integer instructions. [`SoftFpu`] wraps the arithmetic in
//! this module and charges a per-operation cycle cost to a ledger, so
//! "how many Sabre cycles does one EKF iteration take" can be answered
//! without porting a C compiler.
//!
//! The default [`CycleCosts`] model a Berkeley-style Softfloat routine
//! on the 32-bit Sabre: the integer ALU/shift/branch operations such a
//! routine performs on typical operands (normalized inputs, no special
//! cases) on a single-issue 32-bit RISC, where every 64-bit integer
//! operation costs roughly two 32-bit instructions and the 64x64
//! multiply is decomposed into four 32x32 MULs. They do not depend on
//! how the host emulates an operation: the kernels behind [`SoftFpu`]
//! may take any route to the bit-exact result without moving a
//! modelled cycle. They are configurable for sensitivity studies.

use super::convert;
use super::f32impl::{self, Sf32};
use super::f64impl::{self, Sf64};

/// Kinds of floating-point operations the ledger tracks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FpOp {
    /// f32 add or subtract.
    AddF32,
    /// f32 multiply.
    MulF32,
    /// f32 divide.
    DivF32,
    /// f32 square root.
    SqrtF32,
    /// f32 compare.
    CmpF32,
    /// f64 add or subtract.
    AddF64,
    /// f64 multiply.
    MulF64,
    /// f64 divide.
    DivF64,
    /// f64 square root.
    SqrtF64,
    /// f64 compare.
    CmpF64,
    /// f64 sign manipulation (negate, absolute value).
    SignF64,
    /// f64 sine+cosine pair.
    SinCosF64,
    /// int <-> float conversion (either width).
    Convert,
}

/// Per-operation cycle costs on the soft core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CycleCosts {
    /// f32 add/sub cycles.
    pub add_f32: u64,
    /// f32 multiply cycles.
    pub mul_f32: u64,
    /// f32 divide cycles.
    pub div_f32: u64,
    /// f32 square-root cycles.
    pub sqrt_f32: u64,
    /// f32 compare cycles.
    pub cmp_f32: u64,
    /// f64 add/sub cycles.
    pub add_f64: u64,
    /// f64 multiply cycles.
    pub mul_f64: u64,
    /// f64 divide cycles.
    pub div_f64: u64,
    /// f64 square-root cycles.
    pub sqrt_f64: u64,
    /// f64 compare cycles.
    pub cmp_f64: u64,
    /// f64 sign-manipulation cycles (negate / absolute value are one
    /// XOR/AND on the sign bit plus load/store traffic).
    pub sign_f64: u64,
    /// f64 sine+cosine pair cycles (polynomial evaluation in software;
    /// roughly 13 multiply-adds per function after range reduction).
    pub sincos_f64: u64,
    /// Conversion cycles.
    pub convert: u64,
}

impl CycleCosts {
    /// Costs for a single-issue 32-bit RISC running Softfloat-style
    /// routines (see module docs for the derivation).
    pub fn sabre_default() -> Self {
        Self {
            add_f32: 48,
            mul_f32: 60,
            div_f32: 180,
            sqrt_f32: 260,
            cmp_f32: 14,
            add_f64: 75,
            mul_f64: 135,
            div_f64: 420,
            sqrt_f64: 620,
            cmp_f64: 22,
            sign_f64: 4,
            sincos_f64: 5600,
            convert: 30,
        }
    }

    /// Cycles for one op kind.
    #[inline]
    pub fn of(&self, op: FpOp) -> u64 {
        match op {
            FpOp::AddF32 => self.add_f32,
            FpOp::MulF32 => self.mul_f32,
            FpOp::DivF32 => self.div_f32,
            FpOp::SqrtF32 => self.sqrt_f32,
            FpOp::CmpF32 => self.cmp_f32,
            FpOp::AddF64 => self.add_f64,
            FpOp::MulF64 => self.mul_f64,
            FpOp::DivF64 => self.div_f64,
            FpOp::SqrtF64 => self.sqrt_f64,
            FpOp::CmpF64 => self.cmp_f64,
            FpOp::SignF64 => self.sign_f64,
            FpOp::SinCosF64 => self.sincos_f64,
            FpOp::Convert => self.convert,
        }
    }
}

impl Default for CycleCosts {
    fn default() -> Self {
        Self::sabre_default()
    }
}

/// Operation counters and the cycle ledger.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FpuStats {
    /// f32 adds/subs performed.
    pub add_f32: u64,
    /// f32 multiplies performed.
    pub mul_f32: u64,
    /// f32 divides performed.
    pub div_f32: u64,
    /// f32 square roots performed.
    pub sqrt_f32: u64,
    /// f32 compares performed.
    pub cmp_f32: u64,
    /// f64 adds/subs performed.
    pub add_f64: u64,
    /// f64 multiplies performed.
    pub mul_f64: u64,
    /// f64 divides performed.
    pub div_f64: u64,
    /// f64 square roots performed.
    pub sqrt_f64: u64,
    /// f64 compares performed.
    pub cmp_f64: u64,
    /// f64 sign manipulations performed.
    pub sign_f64: u64,
    /// f64 sine+cosine pairs performed.
    pub sincos_f64: u64,
    /// Conversions performed.
    pub convert: u64,
    /// Total cycles charged.
    pub cycles: u64,
}

impl FpuStats {
    /// Total operation count.
    pub fn total_ops(&self) -> u64 {
        self.add_f32
            + self.mul_f32
            + self.div_f32
            + self.sqrt_f32
            + self.cmp_f32
            + self.add_f64
            + self.mul_f64
            + self.div_f64
            + self.sqrt_f64
            + self.cmp_f64
            + self.sign_f64
            + self.sincos_f64
            + self.convert
    }
}

/// A software FPU with cycle accounting.
///
/// # Examples
///
/// ```
/// use fpga::softfloat::{Sf64, SoftFpu};
///
/// let mut fpu = SoftFpu::new();
/// let a = Sf64::from_f64(1.5);
/// let b = Sf64::from_f64(2.25);
/// let c = fpu.add_f64(a, b);
/// assert_eq!(c.to_f64(), 3.75);
/// assert!(fpu.stats().cycles > 0);
/// ```
#[derive(Clone, Debug)]
pub struct SoftFpu {
    costs: CycleCosts,
    stats: FpuStats,
}

impl SoftFpu {
    /// Creates an FPU with the default Sabre cost model.
    pub fn new() -> Self {
        Self::with_costs(CycleCosts::sabre_default())
    }

    /// Creates an FPU with explicit costs.
    pub fn with_costs(costs: CycleCosts) -> Self {
        Self {
            costs,
            stats: FpuStats::default(),
        }
    }

    /// The cost model in use.
    pub fn costs(&self) -> &CycleCosts {
        &self.costs
    }

    /// Counters and ledger so far.
    pub fn stats(&self) -> &FpuStats {
        &self.stats
    }

    /// Clears counters and the ledger.
    pub fn reset(&mut self) {
        self.stats = FpuStats::default();
    }

    #[inline]
    fn charge(&mut self, op: FpOp) {
        self.stats.cycles += self.costs.of(op);
        match op {
            FpOp::AddF32 => self.stats.add_f32 += 1,
            FpOp::MulF32 => self.stats.mul_f32 += 1,
            FpOp::DivF32 => self.stats.div_f32 += 1,
            FpOp::SqrtF32 => self.stats.sqrt_f32 += 1,
            FpOp::CmpF32 => self.stats.cmp_f32 += 1,
            FpOp::AddF64 => self.stats.add_f64 += 1,
            FpOp::MulF64 => self.stats.mul_f64 += 1,
            FpOp::DivF64 => self.stats.div_f64 += 1,
            FpOp::SqrtF64 => self.stats.sqrt_f64 += 1,
            FpOp::CmpF64 => self.stats.cmp_f64 += 1,
            FpOp::SignF64 => self.stats.sign_f64 += 1,
            FpOp::SinCosF64 => self.stats.sincos_f64 += 1,
            FpOp::Convert => self.stats.convert += 1,
        }
    }

    /// f64 addition.
    #[inline]
    pub fn add_f64(&mut self, a: Sf64, b: Sf64) -> Sf64 {
        self.charge(FpOp::AddF64);
        f64impl::add(a, b)
    }

    /// f64 subtraction.
    #[inline]
    pub fn sub_f64(&mut self, a: Sf64, b: Sf64) -> Sf64 {
        self.charge(FpOp::AddF64);
        f64impl::sub(a, b)
    }

    /// f64 multiplication.
    #[inline]
    pub fn mul_f64(&mut self, a: Sf64, b: Sf64) -> Sf64 {
        self.charge(FpOp::MulF64);
        f64impl::mul(a, b)
    }

    /// f64 division.
    #[inline]
    pub fn div_f64(&mut self, a: Sf64, b: Sf64) -> Sf64 {
        self.charge(FpOp::DivF64);
        f64impl::div(a, b)
    }

    /// f64 square root.
    #[inline]
    pub fn sqrt_f64(&mut self, a: Sf64) -> Sf64 {
        self.charge(FpOp::SqrtF64);
        f64impl::sqrt(a)
    }

    /// f64 less-than.
    #[inline]
    pub fn lt_f64(&mut self, a: Sf64, b: Sf64) -> bool {
        self.charge(FpOp::CmpF64);
        f64impl::lt(a, b)
    }

    /// f64 equality.
    #[inline]
    pub fn eq_f64(&mut self, a: Sf64, b: Sf64) -> bool {
        self.charge(FpOp::CmpF64);
        f64impl::eq(a, b)
    }

    /// f64 negation (sign-bit flip).
    #[inline]
    pub fn neg_f64(&mut self, a: Sf64) -> Sf64 {
        self.charge(FpOp::SignF64);
        a.neg()
    }

    /// f64 absolute value (sign-bit clear).
    #[inline]
    pub fn abs_f64(&mut self, a: Sf64) -> Sf64 {
        self.charge(FpOp::SignF64);
        a.abs()
    }

    /// f64 sine and cosine.
    ///
    /// The value is computed by the host libm (the paper's target would
    /// link a polynomial routine); only the cycle cost models the
    /// software evaluation, so emulated trig stays bit-identical to the
    /// native reference.
    #[inline]
    pub fn sin_cos_f64(&mut self, a: Sf64) -> (Sf64, Sf64) {
        self.charge(FpOp::SinCosF64);
        let (s, c) = a.to_f64().sin_cos();
        (Sf64::from_f64(s), Sf64::from_f64(c))
    }

    /// f32 addition.
    pub fn add_f32(&mut self, a: Sf32, b: Sf32) -> Sf32 {
        self.charge(FpOp::AddF32);
        f32impl::add(a, b)
    }

    /// f32 subtraction.
    pub fn sub_f32(&mut self, a: Sf32, b: Sf32) -> Sf32 {
        self.charge(FpOp::AddF32);
        f32impl::sub(a, b)
    }

    /// f32 multiplication.
    pub fn mul_f32(&mut self, a: Sf32, b: Sf32) -> Sf32 {
        self.charge(FpOp::MulF32);
        f32impl::mul(a, b)
    }

    /// f32 division.
    pub fn div_f32(&mut self, a: Sf32, b: Sf32) -> Sf32 {
        self.charge(FpOp::DivF32);
        f32impl::div(a, b)
    }

    /// f32 square root.
    pub fn sqrt_f32(&mut self, a: Sf32) -> Sf32 {
        self.charge(FpOp::SqrtF32);
        f32impl::sqrt(a)
    }

    /// f32 less-than.
    pub fn lt_f32(&mut self, a: Sf32, b: Sf32) -> bool {
        self.charge(FpOp::CmpF32);
        f32impl::lt(a, b)
    }

    /// i32 to f64.
    pub fn i32_to_f64(&mut self, x: i32) -> Sf64 {
        self.charge(FpOp::Convert);
        f64impl::from_i32(x)
    }

    /// f64 to i32 (truncating).
    pub fn f64_to_i32(&mut self, x: Sf64) -> i32 {
        self.charge(FpOp::Convert);
        f64impl::to_i32_trunc(x)
    }

    /// f32 to f64 (exact).
    pub fn f32_to_f64(&mut self, x: Sf32) -> Sf64 {
        self.charge(FpOp::Convert);
        convert::f32_to_f64(x)
    }

    /// f64 to f32 (rounding).
    pub fn f64_to_f32(&mut self, x: Sf64) -> Sf32 {
        self.charge(FpOp::Convert);
        convert::f64_to_f32(x)
    }
}

impl Default for SoftFpu {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accumulates() {
        let mut fpu = SoftFpu::new();
        let one = Sf64::ONE;
        let _ = fpu.add_f64(one, one);
        let _ = fpu.mul_f64(one, one);
        let _ = fpu.div_f64(one, one);
        let _ = fpu.sqrt_f64(one);
        let stats = *fpu.stats();
        assert_eq!(stats.add_f64, 1);
        assert_eq!(stats.mul_f64, 1);
        assert_eq!(stats.div_f64, 1);
        assert_eq!(stats.sqrt_f64, 1);
        assert_eq!(stats.total_ops(), 4);
        let c = CycleCosts::sabre_default();
        assert_eq!(stats.cycles, c.add_f64 + c.mul_f64 + c.div_f64 + c.sqrt_f64);
    }

    #[test]
    fn custom_costs_respected() {
        let mut costs = CycleCosts::sabre_default();
        costs.add_f64 = 1000;
        let mut fpu = SoftFpu::with_costs(costs);
        let _ = fpu.add_f64(Sf64::ONE, Sf64::ONE);
        assert_eq!(fpu.stats().cycles, 1000);
    }

    #[test]
    fn reset_clears_ledger() {
        let mut fpu = SoftFpu::new();
        let _ = fpu.sqrt_f32(Sf32::ONE);
        fpu.reset();
        assert_eq!(fpu.stats().cycles, 0);
        assert_eq!(fpu.stats().total_ops(), 0);
    }

    #[test]
    fn arithmetic_passthrough_correct() {
        let mut fpu = SoftFpu::new();
        let x = fpu.i32_to_f64(9);
        let r = fpu.sqrt_f64(x);
        assert_eq!(r.to_f64(), 3.0);
        assert_eq!(fpu.f64_to_i32(r), 3);
        let n = fpu.f64_to_f32(Sf64::from_f64(0.1));
        assert_eq!(n.to_f32(), 0.1f32);
        let w = fpu.f32_to_f64(n);
        assert_eq!(w.to_f64(), 0.1f32 as f64);
        assert!(fpu.lt_f64(Sf64::ZERO, Sf64::ONE));
        assert!(!fpu.lt_f32(Sf32::ONE, Sf32::ZERO));
    }

    #[test]
    fn sign_and_trig_ops_are_charged() {
        let mut fpu = SoftFpu::new();
        let x = Sf64::from_f64(-2.5);
        assert_eq!(fpu.neg_f64(x).to_f64(), 2.5);
        assert_eq!(fpu.abs_f64(x).to_f64(), 2.5);
        assert!(fpu.eq_f64(x, x));
        let (s, c) = fpu.sin_cos_f64(Sf64::ZERO);
        assert_eq!(s.to_f64(), 0.0);
        assert_eq!(c.to_f64(), 1.0);
        let stats = *fpu.stats();
        assert_eq!(stats.sign_f64, 2);
        assert_eq!(stats.sincos_f64, 1);
        assert_eq!(stats.cmp_f64, 1);
        let costs = CycleCosts::sabre_default();
        assert_eq!(
            stats.cycles,
            2 * costs.sign_f64 + costs.sincos_f64 + costs.cmp_f64
        );
    }

    #[test]
    fn sabre_cost_model_is_pinned() {
        // The modelled cycles (and every `sabre_budget_frac` built on
        // them) must not move when the host kernels change.
        assert_eq!(
            CycleCosts::sabre_default(),
            CycleCosts {
                add_f32: 48,
                mul_f32: 60,
                div_f32: 180,
                sqrt_f32: 260,
                cmp_f32: 14,
                add_f64: 75,
                mul_f64: 135,
                div_f64: 420,
                sqrt_f64: 620,
                cmp_f64: 22,
                sign_f64: 4,
                sincos_f64: 5600,
                convert: 30,
            }
        );
        // A fixed op sequence touching every f64 kind, including
        // special and subnormal operands, charges a fixed ledger.
        let mut fpu = SoftFpu::new();
        let (x, tiny) = (Sf64::from_f64(1.75), Sf64::from_bits(3));
        let y = fpu.mul_f64(x, tiny);
        let y = fpu.add_f64(y, x);
        let y = fpu.sub_f64(y, Sf64::from_f64(f64::INFINITY));
        let y = fpu.div_f64(x, y);
        let y = fpu.abs_f64(y);
        let y = fpu.sqrt_f64(y);
        let _ = fpu.lt_f64(y, x);
        let _ = fpu.eq_f64(y, Sf64::ZERO);
        let _ = fpu.neg_f64(y);
        let _ = fpu.sin_cos_f64(x);
        let n = fpu.f64_to_i32(x);
        let _ = fpu.i32_to_f64(n);
        let stats = *fpu.stats();
        assert_eq!(
            (stats.add_f64, stats.mul_f64, stats.div_f64, stats.sqrt_f64),
            (2, 1, 1, 1)
        );
        assert_eq!(
            (
                stats.cmp_f64,
                stats.sign_f64,
                stats.sincos_f64,
                stats.convert
            ),
            (2, 2, 1, 2)
        );
        assert_eq!(stats.total_ops(), 12);
        assert_eq!(stats.cycles, 7_037);
    }

    #[test]
    fn f64_costs_exceed_f32_costs() {
        let c = CycleCosts::sabre_default();
        assert!(c.add_f64 > c.add_f32);
        assert!(c.mul_f64 > c.mul_f32);
        assert!(c.div_f64 > c.div_f32);
        assert!(c.sqrt_f64 > c.sqrt_f32);
    }
}
