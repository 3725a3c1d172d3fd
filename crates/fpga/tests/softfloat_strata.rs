//! Stratified bit-exactness check of the binary64 kernels against the
//! host FPU.
//!
//! Random bit patterns almost never reach the cases a kernel rewrite
//! gets wrong: the near-cancellation path of `add`, exact rounding ties,
//! results straddling the subnormal threshold or the overflow boundary.
//! Each operand class below builds those on purpose, from a seeded
//! generator, so a run is deterministic. The tier-1 test runs a small
//! budget per class; the `#[ignore]`d fuzz runs the same generator at
//! over 50M pairs per op (`cargo test --release -p fpga -- --ignored`).

use fpga::softfloat::{f64impl, Sf64};

const SIGN: u64 = 1 << 63;
const FRAC_MASK: u64 = (1 << 52) - 1;
const EXP_MAX_NORMAL: i64 = 0x7FE;

/// SplitMix64: a small, seedable, well-mixed generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }

    /// Random sign and fraction with the given biased exponent.
    fn with_exp(&mut self, e: i64) -> u64 {
        (self.next() & (SIGN | FRAC_MASK)) | ((e as u64) << 52)
    }

    /// Random sign and fraction with a biased exponent in `lo..=hi`.
    fn with_exp_in(&mut self, lo: i64, hi: i64) -> u64 {
        let e = self.range(lo, hi);
        self.with_exp(e)
    }

    /// A random subnormal of varied magnitude and sign.
    fn subnormal(&mut self) -> u64 {
        let shift = self.range(12, 63) as u32;
        let frac = (self.next() >> shift).max(1);
        (self.next() & SIGN) | frac
    }

    /// A random odd integer with exactly `bits` significant bits.
    fn odd(&mut self, bits: u32) -> u64 {
        if bits == 1 {
            return 1;
        }
        (1 << (bits - 1)) | (self.next() & ((1 << (bits - 1)) - 1)) | 1
    }

    fn signed(&mut self, x: f64) -> f64 {
        if self.next() & 1 == 0 {
            x
        } else {
            -x
        }
    }
}

/// `2^k` for a normal power of two (`-1022 <= k <= 1023`).
fn pow2(k: i64) -> f64 {
    f64::from_bits(((k + 1023) as u64) << 52)
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Add,
    Sub,
    Mul,
    Div,
    Sqrt,
}

const OPS: [Op; 5] = [Op::Add, Op::Sub, Op::Mul, Op::Div, Op::Sqrt];

#[derive(Clone, Copy, Debug)]
enum Class {
    /// Uniform bit patterns: every special and sign combination.
    RandomBits,
    /// Exponents within one of each other: the cancellation-prone
    /// alignment shifts of `add` with either sign combination.
    NearExponents,
    /// Equal (or low-bit-perturbed) magnitudes with opposite signs, so
    /// `add` cancels to zero or to a few bits.
    Cancellation,
    /// Results exactly on a rounding midpoint. `div` and `sqrt` never
    /// produce an exact tie (a 54-bit odd significand times a divisor or
    /// by itself needs more than 53 bits), so their operands put the
    /// exact result within about an ulp of one instead.
    Ties,
    /// Results just above and below the smallest normal.
    SubnormalEdge,
    /// Results next to the largest finite value.
    OverflowEdge,
    /// At least one subnormal operand.
    SubnormalInputs,
}

const CLASSES: [Class; 7] = [
    Class::RandomBits,
    Class::NearExponents,
    Class::Cancellation,
    Class::Ties,
    Class::SubnormalEdge,
    Class::OverflowEdge,
    Class::SubnormalInputs,
];

/// Biased exponents `(ea, eb)` of two normal operands whose exact
/// `mul`/`div` result has biased exponent `t` (or `t + 1`).
fn exps_for_result(op: Op, t: i64, rng: &mut Rng) -> (i64, i64) {
    match op {
        Op::Mul => {
            let ea = rng.range(
                (t + 1023 - EXP_MAX_NORMAL).max(1),
                (t + 1022).min(EXP_MAX_NORMAL),
            );
            (ea, t + 1023 - ea)
        }
        _ => {
            let ea = rng.range((t - 1021).max(1), (t + 1024).min(EXP_MAX_NORMAL));
            (ea, ea - t + 1022)
        }
    }
}

/// Operands for `op` in `class`. Sub's pairs are add's with the second
/// sign flipped, so both reach the same kernel paths; `sqrt` uses the
/// first operand.
fn operands(op: Op, class: Class, rng: &mut Rng) -> (u64, u64) {
    let (a, b) = match (class, op) {
        (Class::RandomBits, _) => (rng.next(), rng.next()),
        (Class::NearExponents, _) => {
            let e = rng.range(1, EXP_MAX_NORMAL);
            let eb = (e + rng.range(-1, 1)).clamp(1, EXP_MAX_NORMAL);
            (rng.with_exp(e), rng.with_exp(eb))
        }
        (Class::Cancellation, _) => {
            let a = rng.with_exp_in(1, EXP_MAX_NORMAL);
            let perturb = if rng.next() & 1 == 0 {
                0
            } else {
                rng.next() & 0xFF
            };
            (a, (a ^ SIGN) ^ perturb)
        }
        (Class::Ties, Op::Add | Op::Sub) => {
            // a + (2m + 1) * ulp(a) / 2 lies on a midpoint.
            let ea = rng.range(60, EXP_MAX_NORMAL - 1);
            let a = rng.with_exp(ea);
            let bits = rng.range(1, 53) as u32;
            let m = rng.odd(bits) as f64;
            (a, rng.signed(m * pow2(ea - 1023 - 53)).to_bits())
        }
        (Class::Ties, Op::Mul) => {
            // Odd p, q whose exact product has 54 significant bits.
            let (p, q) = loop {
                let bp = rng.range(1, 53) as u32;
                let bq = rng.range((54 - bp as i64).max(1), (55 - bp as i64).min(53)) as u32;
                let (p, q) = (rng.odd(bp), rng.odd(bq));
                let pq = p as u128 * q as u128;
                if pq >> 53 == 1 {
                    break (p, q);
                }
            };
            let (i, j) = (rng.range(-500, 450), rng.range(-500, 450));
            let a = rng.signed(p as f64 * pow2(i));
            (a.to_bits(), rng.signed(q as f64 * pow2(j)).to_bits())
        }
        (Class::Ties, Op::Div) => {
            // a = round(M * b) for a 54-bit odd midpoint M.
            let m = rng.odd(54) as u128;
            let bq = rng.odd(53) as u128;
            let (i, j) = (rng.range(-500, 450), rng.range(-500, 450));
            let a = rng.signed((m * bq) as f64 * pow2(i - 53));
            (a.to_bits(), rng.signed(bq as f64 * pow2(j)).to_bits())
        }
        (Class::Ties, Op::Sqrt) => {
            // x = round(M^2) for a 54-bit odd midpoint M, scaled by 4^k.
            let m = rng.odd(54) as u128;
            let k = rng.range(-240, 240);
            (((m * m) as f64 * pow2(2 * k - 107)).to_bits(), 0)
        }
        (Class::SubnormalEdge, Op::Add | Op::Sub) => (rng.with_exp_in(1, 3), rng.with_exp_in(0, 2)),
        (Class::SubnormalEdge, Op::Mul | Op::Div) => {
            let t = rng.range(-54, 2);
            let (ea, eb) = exps_for_result(op, t, rng);
            (rng.with_exp(ea), rng.with_exp(eb))
        }
        (Class::SubnormalEdge, Op::Sqrt) => (rng.with_exp_in(0, 3) & !SIGN, 0),
        (Class::OverflowEdge, Op::Add | Op::Sub) => {
            let a = rng.with_exp_in(EXP_MAX_NORMAL - 1, EXP_MAX_NORMAL);
            let b = rng.with_exp_in(EXP_MAX_NORMAL - 2, EXP_MAX_NORMAL);
            // Half the time push both fractions to the top of the binade.
            if rng.next() & 1 == 0 {
                (a | (FRAC_MASK - 0xFF), b | (FRAC_MASK - 0xFF))
            } else {
                (a, b)
            }
        }
        (Class::OverflowEdge, Op::Mul | Op::Div) => {
            let t = rng.range(EXP_MAX_NORMAL - 2, EXP_MAX_NORMAL + 2);
            let (ea, eb) = exps_for_result(op, t, rng);
            (rng.with_exp(ea), rng.with_exp(eb))
        }
        (Class::OverflowEdge, Op::Sqrt) => (
            rng.with_exp_in(EXP_MAX_NORMAL - 2, EXP_MAX_NORMAL) & !SIGN,
            0,
        ),
        (Class::SubnormalInputs, _) => {
            let a = rng.subnormal();
            let b = match rng.next() % 3 {
                0 => rng.subnormal(),
                1 => rng.with_exp_in(1, EXP_MAX_NORMAL),
                _ => rng.next(),
            };
            if rng.next() & 1 == 0 {
                (a, b)
            } else {
                (b, a & !SIGN)
            }
        }
    };
    match op {
        Op::Sub => (a, b ^ SIGN),
        _ => (a, b),
    }
}

fn soft(op: Op, a: u64, b: u64) -> u64 {
    let (a, b) = (Sf64(a), Sf64(b));
    match op {
        Op::Add => f64impl::add(a, b),
        Op::Sub => f64impl::sub(a, b),
        Op::Mul => f64impl::mul(a, b),
        Op::Div => f64impl::div(a, b),
        Op::Sqrt => f64impl::sqrt(a),
    }
    .bits()
}

fn host(op: Op, a: u64, b: u64) -> f64 {
    let (a, b) = (f64::from_bits(a), f64::from_bits(b));
    match op {
        Op::Add => a + b,
        Op::Sub => a - b,
        Op::Mul => a * b,
        Op::Div => a / b,
        Op::Sqrt => a.sqrt(),
    }
}

/// Checks `pairs` operand pairs of every class for `op`, bit for bit
/// (any NaN matches any NaN).
fn check(op: Op, seed: u64, pairs: usize) {
    for (c, &class) in CLASSES.iter().enumerate() {
        let mut rng = Rng(seed ^ ((op as u64) << 40) ^ ((c as u64) << 32));
        for _ in 0..pairs {
            let (a, b) = operands(op, class, &mut rng);
            let (got, want) = (soft(op, a, b), host(op, a, b));
            let ok = if want.is_nan() {
                Sf64(got).is_nan()
            } else {
                got == want.to_bits()
            };
            assert!(
                ok,
                "{op:?} {class:?}: {a:016x}, {b:016x} -> got {got:016x} want {:016x}",
                want.to_bits()
            );
        }
    }
}

#[test]
fn every_operand_class_is_bit_exact() {
    for op in OPS {
        check(op, 0x5AB7_2005, 100_000);
    }
}

/// `ulp(x) / 2` for a finite normal `x`.
fn half_ulp(x: f64) -> f64 {
    pow2(((x.to_bits() >> 52) & 0x7FF) as i64 - 1023 - 53)
}

#[test]
fn classes_reach_their_targets() {
    // Guard the generator: each targeted class must produce the results
    // it is named for, measured on the host FPU.
    let mut rng = Rng(7);
    let mut hits = [0usize; 5];
    for _ in 0..2_000 {
        // Fast2Sum: for |a| >= |b| the rounding error of a + b is exact.
        let (a, b) = operands(Op::Add, Class::Ties, &mut rng);
        let (a, b) = (f64::from_bits(a), f64::from_bits(b));
        let s = a + b;
        if s.is_normal() && (b - (s - a)).abs() == half_ulp(s) {
            hits[0] += 1;
        }
        // Odd 54-bit product of the two odd integer significands.
        let (a, b) = operands(Op::Mul, Class::Ties, &mut rng);
        let odd_sig = |x: u64| {
            let m = (x & FRAC_MASK) | (1 << 52);
            (m >> m.trailing_zeros()) as u128
        };
        let p = odd_sig(a) * odd_sig(b);
        if 128 - p.leading_zeros() == 54 {
            hits[1] += 1;
        }
        let (a, b) = operands(Op::Mul, Class::SubnormalEdge, &mut rng);
        let r = f64::from_bits(a) * f64::from_bits(b);
        if r.abs() < f64::MIN_POSITIVE {
            hits[2] += 1;
        }
        let (a, b) = operands(Op::Add, Class::OverflowEdge, &mut rng);
        if (f64::from_bits(a) + f64::from_bits(b)).is_infinite() {
            hits[3] += 1;
        }
        let (a, b) = operands(Op::Add, Class::Cancellation, &mut rng);
        if f64::from_bits(a) + f64::from_bits(b) == 0.0 {
            hits[4] += 1;
        }
    }
    let [add_ties, mul_ties, subnormal, overflow, zero] = hits;
    assert!(add_ties > 1_500, "add ties {add_ties}/2000");
    assert_eq!(mul_ties, 2_000, "mul ties");
    assert!(subnormal > 500, "mul subnormal results {subnormal}/2000");
    assert!(overflow > 100, "add overflows {overflow}/2000");
    assert!(zero > 500, "exact cancellations {zero}/2000");
}

#[test]
#[ignore = "long fuzz: over 50M pairs per op; run with `cargo test --release -p fpga -- --ignored`"]
fn long_fuzz_every_operand_class_is_bit_exact() {
    for op in OPS {
        check(op, 0xF0CC_ACC1, 7_200_000);
    }
}
