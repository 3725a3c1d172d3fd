//! IEEE-754 binary64 arithmetic implemented with integer operations
//! only (round-to-nearest-even), in the style of the Berkeley Softfloat
//! library the paper runs on the Sabre soft-core.
//!
//! Representation: [`Sf64`] wraps the raw bit pattern. All operations
//! are pure functions of bit patterns; no host floating-point
//! instructions are involved in the arithmetic (tests compare against
//! the host FPU bit for bit).
//!
//! Internally every finite value is manipulated as
//! `sig * 2^(e - 1023 - 62)` with the significand normalized so its
//! most significant bit sits at bit 62 — i.e. the 53-bit mantissa plus
//! 10 guard bits, exactly the headroom Berkeley Softfloat uses, which
//! keeps small alignment shifts exact and makes the sticky-bit ("jam")
//! rounding argument sound through cancellation.
//!
//! Each arithmetic op makes one classification test. When every
//! operand is normal (biased exponent in `1..=0x7FE`) it runs the op's
//! core; NaN, infinity and zero operands go to a cold special-operand
//! tail, which also normalizes subnormal inputs and hands them back to
//! the *same* core. The core rounds without data-dependent branches:
//! `(sig + (TIE - 1) + lsb) >> GUARD` is round-to-nearest-even, and the
//! result is packed as `((e - 1) << 52) + sig_r`, so the hidden bit
//! lands in the exponent field and a significand that rounds up to
//! `2^53` carries into the exponent — past the largest finite value
//! that carry produces infinity. Only results that leave the normal
//! exponent range before rounding (subnormal, or already overflowed)
//! take the general `round_pack`.

use std::hint::select_unpredictable;

/// A binary64 value as a raw bit pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sf64(pub u64);

const SIGN: u64 = 1 << 63;
const EXP_MASK: u64 = 0x7FF;
const FRAC_BITS: u32 = 52;
const FRAC_MASK: u64 = (1 << FRAC_BITS) - 1;
const HIDDEN: u64 = 1 << FRAC_BITS;
/// Canonical quiet NaN.
const QNAN: u64 = 0x7FF8_0000_0000_0000;
const EXP_MAX: i32 = 0x7FF;
/// Positive infinity.
const INF: u64 = (EXP_MAX as u64) << FRAC_BITS;
/// Guard bits carried below the mantissa during arithmetic.
const GUARD: u32 = 10;
/// Internal normalized significand MSB position (52 + 10).
const NORM_MSB: u32 = FRAC_BITS + GUARD;
/// Tie value of the guard field for round-to-nearest-even.
const TIE: u64 = 1 << (GUARD - 1);

impl Sf64 {
    /// Wraps raw bits.
    pub const fn from_bits(bits: u64) -> Self {
        Self(bits)
    }

    /// Converts from a host `f64` (bit-level, exact).
    pub fn from_f64(x: f64) -> Self {
        Self(x.to_bits())
    }

    /// Converts to a host `f64` (bit-level, exact).
    pub fn to_f64(self) -> f64 {
        f64::from_bits(self.0)
    }

    /// The raw bit pattern.
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// Positive zero.
    pub const ZERO: Sf64 = Sf64(0);
    /// One.
    pub const ONE: Sf64 = Sf64(0x3FF0_0000_0000_0000);

    fn sign(self) -> bool {
        self.0 & SIGN != 0
    }

    fn exp(self) -> i32 {
        ((self.0 >> FRAC_BITS) & EXP_MASK) as i32
    }

    fn frac(self) -> u64 {
        self.0 & FRAC_MASK
    }

    /// `true` for a normal magnitude (biased exponent in `1..=0x7FE`),
    /// the operand class every core handles directly.
    fn is_normal(self) -> bool {
        (self.0 & !SIGN).wrapping_sub(HIDDEN) < INF - HIDDEN
    }

    /// `true` for any NaN.
    pub fn is_nan(self) -> bool {
        self.exp() == EXP_MAX && self.frac() != 0
    }

    /// `true` for +/- infinity.
    pub fn is_inf(self) -> bool {
        self.exp() == EXP_MAX && self.frac() == 0
    }

    /// `true` for +/- zero.
    pub fn is_zero(self) -> bool {
        self.0 & !SIGN == 0
    }

    /// Flips the sign bit (exact negation, including of NaN/inf/zero).
    #[allow(clippy::should_implement_trait)] // softfloat op set uses the paper's names
    pub fn neg(self) -> Self {
        Self(self.0 ^ SIGN)
    }

    /// Clears the sign bit.
    pub fn abs(self) -> Self {
        Self(self.0 & !SIGN)
    }
}

fn pack(sign: bool, exp_field: i32, frac: u64) -> u64 {
    ((sign as u64) << 63) | ((exp_field as u64) << FRAC_BITS) | frac
}

fn inf(sign: bool) -> u64 {
    pack(sign, EXP_MAX, 0)
}

/// Shift right with sticky (OR of shifted-out bits into bit 0) for a
/// nonzero `x`, without branches: bits are shifted out exactly when the
/// shift passes the lowest set bit, and shifts of 64 or more clamp to
/// 63, which leaves only that sticky bit.
#[inline]
fn srs64(x: u64, shift: u32) -> u64 {
    debug_assert!(x != 0);
    (x >> shift.min(63)) | (shift > x.trailing_zeros()) as u64
}

/// Unpacks a finite nonzero value into (sign bit in place, biased exp,
/// significand with hidden bit normalized into `[2^52, 2^53)`). A
/// subnormal comes back normalized with a biased exponent `<= 0`.
fn unpack_norm(x: Sf64) -> (u64, i32, u64) {
    let mut e = x.exp();
    let mut sig = x.frac();
    if e == 0 {
        let shift = sig.leading_zeros() - (63 - FRAC_BITS);
        sig <<= shift;
        e = 1 - shift as i32;
    } else {
        sig |= HIDDEN;
    }
    (x.0 & SIGN, e, sig)
}

/// [`unpack_norm`] for a value known to be normal.
#[inline(always)]
fn unpack_normal(x: Sf64) -> (u64, i32, u64) {
    (x.0 & SIGN, x.exp(), x.frac() | HIDDEN)
}

/// Rounds to nearest even and packs a normalized `sig` (MSB at
/// [`NORM_MSB`], value `sig * 2^(e - 1023 - 62)`): branch-free when the
/// biased exponent `e` is normal, through [`round_pack`] otherwise.
#[inline(always)]
fn finish(sign: u64, e: i32, sig: u64) -> u64 {
    if ((e - 1) as u32) < (EXP_MAX - 1) as u32 {
        round_normal(sign, e, sig)
    } else {
        round_pack(sign, e, sig)
    }
}

/// Branch-free round-to-nearest-even and pack for `e` in `1..=0x7FE`.
/// The hidden bit of `sig_r` adds one to `e - 1`; a rounding carry to
/// `2^53` adds another, and from `e = 0x7FE` that reaches infinity.
#[inline(always)]
fn round_normal(sign: u64, e: i32, sig: u64) -> u64 {
    let lsb = (sig >> GUARD) & 1;
    let sig_r = (sig + (TIE - 1) + lsb) >> GUARD;
    sign | ((((e - 1) as u64) << FRAC_BITS) + sig_r)
}

/// Rounds and packs a normalized `sig` whose biased exponent left the
/// normal range: overflow saturates to infinity, and `e <= 0`
/// denormalizes to exponent 1 with sticky, where a significand left
/// below `2^52` packs as a subnormal (or zero) and one that rounds up to
/// `2^52` as the smallest normal.
#[cold]
#[inline(never)]
fn round_pack(sign: u64, e: i32, sig: u64) -> u64 {
    debug_assert!(sig >> NORM_MSB == 1);
    if e >= EXP_MAX {
        return sign | INF;
    }
    debug_assert!(e < 1);
    round_normal(sign, 1, srs64(sig, (1 - e) as u32))
}

/// Addition core for finite nonzero operands, unpacked by `unpack`.
///
/// The operands are ordered by magnitude — for finite values the
/// integer order of `bits & !SIGN` is the magnitude order — without a
/// branch, since the order of filter operands is a coin flip. Both
/// significands sit one bit below the normalized position, so a
/// same-sign carry fits; the aligned smaller one (with sticky) is
/// added or, for opposite signs, subtracted, and one `leading_zeros`
/// renormalizes every case — a carry (shift 0), a far difference
/// (shift at most 2, exact) or a near cancellation (exact, since the
/// smaller operand was then aligned by at most one bit).
#[inline(always)]
fn add_core(a: Sf64, b: Sf64, unpack: impl Fn(Sf64) -> (u64, i32, u64)) -> u64 {
    let a_is_hi = (a.0 & !SIGN) >= (b.0 & !SIGN);
    let (hi, lo) = select_unpredictable(a_is_hi, (a, b), (b, a));
    let ((sign, e_hi, sig_hi), (sign_lo, e_lo, sig_lo)) = (unpack(hi), unpack(lo));
    let big = sig_hi << (GUARD - 1);
    let small = srs64(sig_lo << (GUARD - 1), (e_hi - e_lo) as u32);
    // All ones when the signs differ: `small ^ neg - neg` is `-small`.
    let neg = ((sign ^ sign_lo) >> 63).wrapping_neg();
    let sum = big.wrapping_add((small ^ neg).wrapping_sub(neg));
    if sum == 0 {
        return 0; // exact cancellation -> +0
    }
    let lz = sum.leading_zeros();
    finish(sign, e_hi + 2 - lz as i32, sum << (lz - 1))
}

/// IEEE-754 addition, round-to-nearest-even.
#[inline]
pub fn add(a: Sf64, b: Sf64) -> Sf64 {
    if a.is_normal() && b.is_normal() {
        Sf64(add_core(a, b, unpack_normal))
    } else {
        add_special(a, b)
    }
}

/// [`add`] when an operand is NaN, infinite, zero or subnormal.
#[cold]
#[inline(never)]
fn add_special(a: Sf64, b: Sf64) -> Sf64 {
    if a.is_nan() || b.is_nan() {
        return Sf64(QNAN);
    }
    match (a.is_inf(), b.is_inf()) {
        (true, true) => {
            return if a.sign() == b.sign() { a } else { Sf64(QNAN) };
        }
        (true, false) => return a,
        (false, true) => return b,
        _ => {}
    }
    if a.is_zero() && b.is_zero() {
        // +0 + +0 = +0; -0 + -0 = -0; mixed = +0 (round-to-nearest).
        return if a.sign() && b.sign() { a } else { Sf64(0) };
    }
    if a.is_zero() {
        return b;
    }
    if b.is_zero() {
        return a;
    }
    Sf64(add_core(a, b, unpack_norm))
}

/// IEEE-754 subtraction.
#[inline]
pub fn sub(a: Sf64, b: Sf64) -> Sf64 {
    add(a, b.neg())
}

/// Multiplication core for finite nonzero unpacked operands. With both
/// significands shifted to bit 63 the 128-bit product's high word has
/// its top bit at 62 or 63; that bit picks a one-bit sticky shift, and
/// the low word is the rest of the sticky.
#[inline(always)]
fn mul_core((sign_a, e_a, sig_a): (u64, i32, u64), (sign_b, e_b, sig_b): (u64, i32, u64)) -> u64 {
    let p = ((sig_a << (63 - FRAC_BITS)) as u128) * ((sig_b << (63 - FRAC_BITS)) as u128);
    let (hi, lo) = ((p >> 64) as u64, p as u64);
    let top = hi >> 63;
    let sig = (hi >> top) | (hi & top) | (lo != 0) as u64;
    finish(sign_a ^ sign_b, e_a + e_b - 1023 + top as i32, sig)
}

/// IEEE-754 multiplication, round-to-nearest-even.
#[inline]
pub fn mul(a: Sf64, b: Sf64) -> Sf64 {
    if a.is_normal() && b.is_normal() {
        Sf64(mul_core(unpack_normal(a), unpack_normal(b)))
    } else {
        mul_special(a, b)
    }
}

/// [`mul`] when an operand is NaN, infinite, zero or subnormal.
#[cold]
#[inline(never)]
fn mul_special(a: Sf64, b: Sf64) -> Sf64 {
    if a.is_nan() || b.is_nan() {
        return Sf64(QNAN);
    }
    let sign = a.sign() ^ b.sign();
    if a.is_inf() || b.is_inf() {
        if a.is_zero() || b.is_zero() {
            return Sf64(QNAN); // 0 * inf
        }
        return Sf64(inf(sign));
    }
    if a.is_zero() || b.is_zero() {
        return Sf64(pack(sign, 0, 0));
    }
    Sf64(mul_core(unpack_norm(a), unpack_norm(b)))
}

/// Division core for finite nonzero unpacked operands: one 128-bit
/// division of `sig_a << 63` by `sig_b`, its remainder recovered by
/// multiplication as the sticky bit. The quotient is in `(2^62, 2^64)`.
fn div_core((sign_a, e_a, sig_a): (u64, i32, u64), (sign_b, e_b, sig_b): (u64, i32, u64)) -> u64 {
    let num = (sig_a as u128) << (NORM_MSB + 1);
    let q = num / sig_b as u128;
    let rem = num - q * sig_b as u128;
    let q = q as u64 | (rem != 0) as u64;
    let top = q >> 63;
    finish(
        sign_a ^ sign_b,
        e_a - e_b + 1022 + top as i32,
        (q >> top) | (q & top),
    )
}

/// IEEE-754 division, round-to-nearest-even.
pub fn div(a: Sf64, b: Sf64) -> Sf64 {
    if a.is_normal() && b.is_normal() {
        Sf64(div_core(unpack_normal(a), unpack_normal(b)))
    } else {
        div_special(a, b)
    }
}

/// [`div`] when an operand is NaN, infinite, zero or subnormal.
#[cold]
#[inline(never)]
fn div_special(a: Sf64, b: Sf64) -> Sf64 {
    if a.is_nan() || b.is_nan() {
        return Sf64(QNAN);
    }
    let sign = a.sign() ^ b.sign();
    match (a.is_inf(), b.is_inf()) {
        (true, true) => return Sf64(QNAN),
        (true, false) => return Sf64(inf(sign)),
        (false, true) => return Sf64(pack(sign, 0, 0)),
        _ => {}
    }
    match (a.is_zero(), b.is_zero()) {
        (true, true) => return Sf64(QNAN),
        (true, false) => return Sf64(pack(sign, 0, 0)),
        (false, true) => return Sf64(inf(sign)), // division by zero
        _ => {}
    }
    Sf64(div_core(unpack_norm(a), unpack_norm(b)))
}

/// Square-root core for a positive finite unpacked operand. The result
/// is always normal.
fn sqrt_core((_, e, sig): (u64, i32, u64)) -> u64 {
    // Make the unbiased exponent even; `& 1` tests the low bit of the
    // two's complement, so this works for negative odd exponents too.
    let odd = (e - 1023) & 1;
    // s = floor(sqrt(x)) is in [2^62, 2^63).
    let x = ((sig as u128) << odd) << 72;
    let s = isqrt_u128(x);
    // Inexact results are never ties, so floor + sticky rounds correctly.
    let s = s as u64 | (s * s != x) as u64;
    finish(0, (e - 1023 - odd) / 2 + 1023, s)
}

/// IEEE-754 square root, round-to-nearest-even.
pub fn sqrt(a: Sf64) -> Sf64 {
    if a.is_normal() && !a.sign() {
        Sf64(sqrt_core(unpack_normal(a)))
    } else {
        sqrt_special(a)
    }
}

/// [`sqrt`] of NaN, an infinity, a zero, a negative or a subnormal.
#[cold]
#[inline(never)]
fn sqrt_special(a: Sf64) -> Sf64 {
    if a.is_nan() {
        return Sf64(QNAN);
    }
    if a.is_zero() {
        return a; // sqrt(+/-0) = +/-0
    }
    if a.sign() {
        return Sf64(QNAN); // negative
    }
    if a.is_inf() {
        return a;
    }
    Sf64(sqrt_core(unpack_norm(a)))
}

/// Integer square root (floor) of a `u64` by Newton's iteration from
/// `2^ceil(bits / 2)`, which is at least the root, so the iterates
/// decrease monotonically to the floor.
fn isqrt_u64(x: u64) -> u64 {
    if x == 0 {
        return 0;
    }
    let mut s = 1u64 << ((65 - x.leading_zeros()) / 2);
    loop {
        let t = (s + x / s) >> 1;
        if t >= s {
            return s;
        }
        s = t;
    }
}

/// Integer square root (floor) of `x < 2^126`, the range the f64 and
/// f32 square roots use. Above 64 bits, a 64-bit Newton root of the top
/// 61-62 bits seeds one 128-bit Newton step. From any positive seed a
/// Newton step lands at or above the floor (the mean of `s` and `x / s`
/// is at least `sqrt(x)`), here by a few units at most, so an exact
/// correction down to `s * s <= x < (s + 1)^2` finishes.
pub(crate) fn isqrt_u128(x: u128) -> u128 {
    debug_assert!(x < 1 << 126);
    if x >> 64 == 0 {
        return isqrt_u64(x as u64) as u128;
    }
    // Even shift leaving 61 or 62 significant bits on top.
    let shift = (128 - x.leading_zeros() - 61) & !1;
    let seed = (isqrt_u64((x >> shift) as u64) as u128) << (shift / 2);
    let mut s = (seed + x / seed) >> 1;
    while s * s > x {
        s -= 1;
    }
    debug_assert!((s + 1) * (s + 1) > x);
    s
}

/// IEEE equality (`NaN != NaN`, `-0 == +0`).
pub fn eq(a: Sf64, b: Sf64) -> bool {
    if a.is_nan() || b.is_nan() {
        return false;
    }
    if a.is_zero() && b.is_zero() {
        return true;
    }
    a.0 == b.0
}

/// IEEE less-than (`false` on any NaN).
pub fn lt(a: Sf64, b: Sf64) -> bool {
    if a.is_nan() || b.is_nan() {
        return false;
    }
    if a.is_zero() && b.is_zero() {
        return false;
    }
    match (a.sign(), b.sign()) {
        (false, false) => a.0 < b.0,
        (true, true) => a.0 > b.0,
        (true, false) => true,
        (false, true) => false,
    }
}

/// IEEE less-or-equal (`false` on any NaN).
pub fn le(a: Sf64, b: Sf64) -> bool {
    if a.is_nan() || b.is_nan() {
        return false;
    }
    eq(a, b) || lt(a, b)
}

/// Exact conversion from `i32`.
pub fn from_i32(x: i32) -> Sf64 {
    if x == 0 {
        return Sf64(0);
    }
    let sign = (x as u64) & SIGN;
    let mag = (x as i64).unsigned_abs();
    let msb = 63 - mag.leading_zeros() as i32;
    let sig = mag << (NORM_MSB as i32 - msb); // msb <= 31 < 62: exact
    Sf64(round_normal(sign, 1023 + msb, sig))
}

/// Conversion to `i32`, truncating toward zero and saturating at the
/// `i32` range (NaN maps to 0) — the semantics of Rust's `as` cast.
pub fn to_i32_trunc(a: Sf64) -> i32 {
    if a.is_nan() {
        return 0;
    }
    if a.is_zero() {
        return 0;
    }
    if a.is_inf() {
        return if a.sign() { i32::MIN } else { i32::MAX };
    }
    let (_, e, sig) = unpack_norm(a);
    let sign = a.sign();
    let shift = e - 1023; // value = sig * 2^(shift - 52)
    if shift < 0 {
        return 0;
    }
    if shift > 31 {
        return if sign { i32::MIN } else { i32::MAX };
    }
    let mag = if shift >= FRAC_BITS as i32 {
        (sig as u128) << (shift - FRAC_BITS as i32)
    } else {
        (sig >> (FRAC_BITS as i32 - shift)) as u128
    };
    let limit = if sign { 1u128 << 31 } else { (1u128 << 31) - 1 };
    let mag = mag.min(limit);
    if sign {
        (mag as i64).wrapping_neg() as i32
    } else {
        mag as i32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_bin(
        name: &str,
        op: fn(Sf64, Sf64) -> Sf64,
        native: fn(f64, f64) -> f64,
        a: f64,
        b: f64,
    ) {
        let got = op(Sf64::from_f64(a), Sf64::from_f64(b));
        let want = native(a, b);
        if want.is_nan() {
            assert!(
                got.is_nan(),
                "{name}({a:e},{b:e}): want NaN got {:016x}",
                got.bits()
            );
        } else {
            assert_eq!(
                got.bits(),
                want.to_bits(),
                "{name}({a:e},{b:e}): got {:016x} want {:016x}",
                got.bits(),
                want.to_bits()
            );
        }
    }

    const SPECIALS: &[f64] = &[
        0.0,
        -0.0,
        1.0,
        -1.0,
        2.0,
        0.5,
        1.5,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        4.9e-324,  // smallest subnormal
        1.0e-310,  // subnormal
        -3.2e-313, // subnormal
        std::f64::consts::PI,
        1.0000000000000002, // 1 + ulp
        9.80665,
        -273.15,
        1e300,
        -1e300,
        1e-300,
        0.1,
        3.0,
        -7.0,
    ];

    #[test]
    fn add_specials_exhaustive() {
        for &a in SPECIALS {
            for &b in SPECIALS {
                check_bin("add", add, |x, y| x + y, a, b);
            }
        }
    }

    #[test]
    fn sub_specials_exhaustive() {
        for &a in SPECIALS {
            for &b in SPECIALS {
                check_bin("sub", sub, |x, y| x - y, a, b);
            }
        }
    }

    #[test]
    fn mul_specials_exhaustive() {
        for &a in SPECIALS {
            for &b in SPECIALS {
                check_bin("mul", mul, |x, y| x * y, a, b);
            }
        }
    }

    #[test]
    fn div_specials_exhaustive() {
        for &a in SPECIALS {
            for &b in SPECIALS {
                check_bin("div", div, |x, y| x / y, a, b);
            }
        }
    }

    #[test]
    fn sqrt_specials() {
        for &a in SPECIALS {
            let got = sqrt(Sf64::from_f64(a));
            let want = a.sqrt();
            if want.is_nan() {
                assert!(got.is_nan(), "sqrt({a})");
            } else {
                assert_eq!(got.bits(), want.to_bits(), "sqrt({a:e})");
            }
        }
    }

    #[test]
    fn comparisons_match_native() {
        for &a in SPECIALS {
            for &b in SPECIALS {
                let (sa, sb) = (Sf64::from_f64(a), Sf64::from_f64(b));
                assert_eq!(eq(sa, sb), a == b, "eq({a},{b})");
                assert_eq!(lt(sa, sb), a < b, "lt({a},{b})");
                assert_eq!(le(sa, sb), a <= b, "le({a},{b})");
            }
        }
    }

    #[test]
    fn i32_conversions_match_native() {
        for &x in &[0i32, 1, -1, 42, -42, i32::MAX, i32::MIN, 7_654_321] {
            assert_eq!(from_i32(x).to_f64(), x as f64, "from_i32({x})");
        }
        for &a in SPECIALS {
            assert_eq!(to_i32_trunc(Sf64::from_f64(a)), a as i32, "to_i32({a})");
        }
        for &a in &[2.9, -2.9, 2147483646.7, -2147483649.5, 0.49, 1e15, -1e15] {
            assert_eq!(to_i32_trunc(Sf64::from_f64(a)), a as i32, "to_i32({a})");
        }
    }

    /// The bit-serial (digit-by-digit) integer square root the Newton
    /// version replaced: 64 rounds of 128-bit compare and subtract.
    fn isqrt_bitserial(x: u128) -> u128 {
        if x == 0 {
            return 0;
        }
        let mut res: u128 = 0;
        // Highest power of four <= x.
        let mut bit = 1u128 << ((127 - x.leading_zeros()) & !1);
        let mut rem = x;
        while bit != 0 {
            if rem >= res + bit {
                rem -= res + bit;
                res = (res >> 1) + bit;
            } else {
                res >>= 1;
            }
            bit >>= 2;
        }
        res
    }

    #[test]
    fn isqrt_matches_bitserial_reference_on_sqrt_input_ranges() {
        // f64 sqrt takes x in [2^124, 2^126), f32 sqrt x in [2^60, 2^62);
        // cover both ranges at random, around every perfect square
        // probed, and at the endpoints.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (lo_bits, hi_bits) in [(124u32, 126u32), (60, 62)] {
            let (lo, hi) = (1u128 << lo_bits, 1u128 << hi_bits);
            let mut probes = vec![lo, lo + 1, hi - 1];
            for _ in 0..50_000 {
                let x = lo + (((next() as u128) << 64 | next() as u128) % (hi - lo));
                let r = isqrt_bitserial(x);
                probes.extend([x, r * r, r * r - 1, (r + 1) * (r + 1) - 1]);
            }
            for x in probes.into_iter().filter(|&x| x >= lo && x < hi) {
                assert_eq!(isqrt_u128(x), isqrt_bitserial(x), "isqrt({x})");
            }
        }
    }

    #[test]
    fn isqrt_known_values() {
        assert_eq!(isqrt_u128(0), 0);
        assert_eq!(isqrt_u128(1), 1);
        assert_eq!(isqrt_u128(3), 1);
        assert_eq!(isqrt_u128(4), 2);
        assert_eq!(isqrt_u128(99), 9);
        assert_eq!(isqrt_u128(100), 10);
        let big = (1u128 << 100) - 1;
        let s = isqrt_u128(big);
        assert!(s * s <= big && (s + 1) * (s + 1) > big);
    }

    #[test]
    fn long_dependent_chain_matches_native() {
        let mut acc_native = 0.0f64;
        let mut acc_soft = Sf64::ZERO;
        let mut x = 0.1f64;
        for _ in 0..1000 {
            acc_native += x;
            acc_soft = add(acc_soft, Sf64::from_f64(x));
            let xn = x * 1.0001 - 0.00005;
            x = xn;
        }
        assert_eq!(acc_soft.bits(), acc_native.to_bits());
    }

    #[test]
    fn mixed_op_chain_matches_native() {
        // Exercise mul/div/sqrt in a dependent chain.
        let mut n = 2.0f64;
        let mut s = Sf64::from_f64(2.0);
        for i in 1..500 {
            let k = i as f64;
            n = (n * k + 1.0) / (k + 0.5);
            n = n.sqrt() + 0.25;
            let sk = from_i32(i);
            s = div(add(mul(s, sk), Sf64::ONE), add(sk, Sf64::from_f64(0.5)));
            s = add(sqrt(s), Sf64::from_f64(0.25));
        }
        assert_eq!(s.bits(), n.to_bits());
    }

    #[test]
    fn neg_abs_are_bitwise() {
        let x = Sf64::from_f64(-2.5);
        assert_eq!(x.neg().to_f64(), 2.5);
        assert_eq!(x.abs().to_f64(), 2.5);
        assert!(Sf64::from_f64(f64::NAN).neg().is_nan());
    }

    #[test]
    fn subnormal_arithmetic() {
        let tiny = f64::from_bits(5); // 5 * 2^-1074
        let tiny2 = f64::from_bits(3);
        check_bin("add", add, |x, y| x + y, tiny, tiny2);
        check_bin("sub", sub, |x, y| x - y, tiny, tiny2);
        check_bin("mul", mul, |x, y| x * y, tiny, 2.0);
        check_bin("div", div, |x, y| x / y, tiny, 2.0);
        // Gradual underflow of a normal.
        check_bin("mul", mul, |x, y| x * y, f64::MIN_POSITIVE, 0.5);
        check_bin("mul", mul, |x, y| x * y, f64::MIN_POSITIVE, 0.25000000001);
    }

    #[test]
    fn overflow_rounds_to_infinity() {
        check_bin("mul", mul, |x, y| x * y, f64::MAX, 2.0);
        check_bin("add", add, |x, y| x + y, f64::MAX, f64::MAX);
        check_bin("div", div, |x, y| x / y, f64::MAX, 0.5);
    }
}
