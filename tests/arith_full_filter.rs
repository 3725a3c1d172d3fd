//! Parity tests for the generic-arithmetic fusion core.
//!
//! The `F64Arith` instantiation of the generic 5-state IEKF must
//! reproduce a pinned reference trace **bit for bit**. The original
//! expected values were captured from the pre-generic implementation
//! at commit `45bcf5a`; they were **deliberately re-pinned** for the
//! structure-exploiting kernel rewrite (packed-symmetric Joseph
//! update, closed-form LDL solve of the 2x2 innovation), which
//! legitimately reorders a handful of roundings. The re-pin was
//! validated three ways before capture: every updates/rejected/retune
//! counter and gate decision is unchanged from the old trace, the
//! final angles moved by less than 1e-12 rad, and the kernel-level
//! proptests below pin the optimized kernels to the still-compiled
//! dense reference kernels within the documented ulp bounds.
//!
//! The three trace pins were **re-pinned a second time** when the IEKF
//! stopped relinearizing once the angle step falls under
//! `sqrt(0.02 sigma / g)` (the step at which a further pass could move
//! `h` by 1 % of the measurement sigma) instead of under `1e-12`, and
//! stopped computing the step on the last pass the cap allows. That
//! drops most second and third passes, so the estimates move by more
//! than a reordered rounding. Counters, old -> new:
//!
//! | pin | updates | rejected | retunes |
//! |---|---|---|---|
//! | static scenario | 10 000 -> 10 000 | 0 -> 0 | 1 -> 1 |
//! | dynamic scenario | 10 000 -> 10 000 | 0 -> 0 | 1 -> 1 |
//! | filter-only trace | 1 096 -> 1 097 | 904 -> 903 | n/a |
//!
//! Final angle deltas (new - old, rad; roll, pitch, yaw): static
//! (-3.4e-7, +5.7e-7, +4e-10), dynamic (-1.6e-5, +4.7e-6, +4.4e-7),
//! filter-only trace (+2.8e-4, -1.5e-4, +1.8e-4). The filter-only
//! trace holds a bias state against its 0.3 m/s^2 trust-region clamp
//! and gates almost half of its samples, so its angles are the least
//! determined of the three; the scenario runs, which converge, moved by
//! at most 1.6e-5 rad (0.001 deg). No other test or bound changed
//! with the rule.
//!
//! They were **re-pinned a third time** when floating-point substrates
//! switched the covariance update from the Joseph form to the Kalman
//! form `P - K (J P)`, which reuses the final pass's `J P`
//! (`filter::kalman_structured`; fixed point keeps the Joseph form). That
//! changes roundings only: every counter is unchanged, old -> new:
//!
//! | pin | updates | rejected | retunes |
//! |---|---|---|---|
//! | static scenario | 10 000 -> 10 000 | 0 -> 0 | 1 -> 1 |
//! | dynamic scenario | 10 000 -> 10 000 | 0 -> 0 | 1 -> 1 |
//! | filter-only trace | 1 097 -> 1 097 | 903 -> 903 | n/a |
//!
//! Final angle deltas (new - old, rad; roll, pitch, yaw): static
//! (-1.8e-13, -1.2e-14, -5.7e-15), dynamic (-5.5e-14, -8.0e-15,
//! +1.7e-15), filter-only trace (-3.9e-12, +4.2e-12, -8.1e-13).

use proptest::prelude::*;
use sensor_fusion_fpga::fusion::arith::{
    Arith, F32Arith, F64Arith, LaneArith, OpCounts, QArith, SoftArith,
};
use sensor_fusion_fpga::fusion::filter::{
    joseph_structured, jp_and_s, kalman_structured, FilterConfig, GenericBoresightFilter,
};
use sensor_fusion_fpga::fusion::model::{self, reference};
use sensor_fusion_fpga::fusion::scenario::RunResult;
use sensor_fusion_fpga::fusion::smallmat;
use sensor_fusion_fpga::fusion::spec::{EnvironmentSpec, ScenarioSpec, TrajectorySpec, TuningSpec};
use sensor_fusion_fpga::math::{EulerAngles, Vec2, Vec3, STANDARD_GRAVITY};

/// Expected bits for one scenario run of the pre-refactor filter.
struct PinnedRun {
    roll: u64,
    pitch: u64,
    yaw: u64,
    sigma: [u64; 3],
    updates: u64,
    exceed_rate: u64,
    final_sigma: u64,
    retunes: usize,
    residuals: usize,
    mid_residual: [u64; 5],
}

fn assert_run_matches(result: &RunResult, pin: &PinnedRun) {
    assert_eq!(result.estimate.angles.roll.to_bits(), pin.roll, "roll");
    assert_eq!(result.estimate.angles.pitch.to_bits(), pin.pitch, "pitch");
    assert_eq!(result.estimate.angles.yaw.to_bits(), pin.yaw, "yaw");
    for i in 0..3 {
        assert_eq!(
            result.estimate.one_sigma[i].to_bits(),
            pin.sigma[i],
            "sigma[{i}]"
        );
    }
    assert_eq!(result.estimate.updates, pin.updates, "updates");
    assert_eq!(result.exceed_rate.to_bits(), pin.exceed_rate, "exceed");
    assert_eq!(result.final_sigma.to_bits(), pin.final_sigma, "final R");
    assert_eq!(result.retune_count, pin.retunes, "retunes");
    assert_eq!(result.residuals.len(), pin.residuals, "trace length");
    let mid = &result.residuals[result.residuals.len() / 2];
    let got = [
        mid.time_s.to_bits(),
        mid.residual_x.to_bits(),
        mid.three_sigma_x.to_bits(),
        mid.residual_y.to_bits(),
        mid.three_sigma_y.to_bits(),
    ];
    assert_eq!(got, pin.mid_residual, "mid residual point");
}

#[test]
fn static_scenario_is_bit_identical_to_pre_refactor_trace() {
    let result = ScenarioSpec::named("pinned-static")
        .with_truth(EulerAngles::from_degrees(2.0, -3.0, 1.5))
        .with_duration(50.0)
        .run();
    assert_run_matches(
        &result,
        &PinnedRun {
            roll: 0x3fa1e27f09d6ec36,
            pitch: 0xbfaadc13f462a13a,
            yaw: 0x3f9ab0ee647e9945,
            sigma: [0x3f2c9b53efcb1e96, 0x3f2d8fda216e39dc, 0x3ef9222bfcdaa89f],
            updates: 10_000,
            exceed_rate: 0x3f5bda5119ce075f,
            final_sigma: 0x3f82a305532617c2,
            retunes: 1,
            residuals: 1_000,
            mid_residual: [
                0x4039000000000000,
                0xbf6faad73e683e00,
                0x3f95835a7f017273,
                0xbf829b03ad5a2d00,
                0x3f9581bdaa288ee4,
            ],
        },
    );
}

#[test]
fn dynamic_scenario_is_bit_identical_to_pre_refactor_trace() {
    let result = ScenarioSpec::named("pinned-dynamic")
        .with_truth(EulerAngles::from_degrees(3.0, -2.0, 2.5))
        .with_trajectory(TrajectorySpec::Urban)
        .with_environment(EnvironmentSpec::passenger_car())
        .with_tuning(TuningSpec::Dynamic)
        .with_duration(50.0)
        .run();
    assert_run_matches(
        &result,
        &PinnedRun {
            roll: 0x3fad7738650d0dab,
            pitch: 0xbfa27c859571512e,
            yaw: 0x3fa6223ad70a9893,
            sigma: [0x3f5cefa618eeaf18, 0x3f5dd75c4d63a174, 0x3f223e5d2efe4430],
            updates: 10_000,
            exceed_rate: 0x3f40624dd2f1a9fc,
            final_sigma: 0x3f93f7ced916872b,
            retunes: 1,
            residuals: 1_000,
            mid_residual: [
                0x4039000000000000,
                0x3f7bfc600020b400,
                0x3fadf51fb778fbd8,
                0xbf9432567ec1c0a0,
                0x3fadf7e688311a36,
            ],
        },
    );
}

/// A deterministic filter-only trace (no estimator front end, no RNG):
/// closed-form measurement schedule that exercises gating (903
/// rejections) and the bias trust-region clamp (x[3] pinned at the
/// 0.3 m/s^2 limit).
#[test]
fn filter_trace_is_bit_identical_to_pre_refactor() {
    let mut kf: GenericBoresightFilter<F64Arith> =
        GenericBoresightFilter::new(FilterConfig::paper_static());
    let g = STANDARD_GRAVITY;
    for i in 0..2_000 {
        let t = i as f64 * 0.005;
        let f_b = Vec3::new([2.0 * (0.5 * t).sin(), 1.5 * (0.33 * t).cos(), g]);
        let z = Vec2::new([
            f_b[0] + 0.02 * (1.1 * t).sin() - 0.15,
            f_b[1] - 0.02 * (0.9 * t).cos() + 0.1,
        ]);
        kf.predict(0.005);
        kf.update(z, f_b, t);
    }
    let expected_x: [u64; 5] = [
        0x3fa05c5bc969a7bc,
        0x3faaba253c3fd491,
        0xbf9656aa29c78876,
        0x3fd3333333333333,
        0xbfce55518ccdc158,
    ];
    let state = kf.state();
    for (i, bits) in expected_x.iter().enumerate() {
        assert_eq!(state[i].to_bits(), *bits, "x[{i}]");
    }
    let expected_p_diag: [u64; 5] = [
        0x3ef5b2932dbc6947,
        0x3ef13d9133e474ff,
        0x3e74acfc3acf3cee,
        0x3f5a24cc123fe2c1,
        0x3f604cc51c77f2a7,
    ];
    let p = kf.covariance();
    for (i, bits) in expected_p_diag.iter().enumerate() {
        assert_eq!(p[(i, i)].to_bits(), *bits, "p[{i}][{i}]");
    }
    assert_eq!(p[(0, 4)].to_bits(), 0xbf2a982caec5aaa5, "p[0][4]");
    assert_eq!(kf.update_count(), 1_097);
    assert_eq!(kf.rejected_count(), 903);
    assert!(kf.covariance_healthy());
}

/// `|a - b|` within one ulp scaled to the operand magnitude.
fn within_scaled_ulp(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
    (a - b).abs() <= scale * f64::EPSILON
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The packed-symmetric Joseph kernel tracks the still-compiled
    /// dense reference within a few ulps scaled to the covariance
    /// magnitude, on the Softfloat substrate (the paper's deployed
    /// arithmetic). The divergence budget is the dense kernel's own
    /// re-symmetrization average plus the `K (r I) K^T` reassociation:
    /// measured worst case ~2.3 matrix-scaled ulps over 50k random
    /// draws, asserted at 4.
    #[test]
    fn packed_joseph_tracks_dense_reference_on_softfloat(
        m in prop::collection::vec(-0.01_f64..0.01, 25),
        kv in prop::collection::vec(-0.1_f64..0.1, 10),
        hv in prop::collection::vec(-10.0_f64..10.0, 10),
        r in 1e-6_f64..1e-3,
    ) {
        let mut a = SoftArith::default();
        // Symmetric PSD covariance P = M M^T in the substrate.
        let mut p = [[a.num(0.0); 5]; 5];
        for row in 0..5 {
            for col in 0..5 {
                let mut acc = 0.0;
                for k in 0..5 {
                    acc += m[row * 5 + k] * m[col * 5 + k];
                }
                let v = a.num(acc);
                p[row][col] = v;
                p[col][row] = v;
            }
        }
        let k: [[_; 2]; 5] = std::array::from_fn(|i| std::array::from_fn(|j| a.num(kv[i * 2 + j])));
        let h: [[_; 5]; 2] = std::array::from_fn(|i| std::array::from_fn(|j| a.num(hv[i * 5 + j])));
        let r_t = a.num(r);
        let dense = smallmat::joseph_update(&mut a, &p, &k, &h, r_t);
        let packed = smallmat::joseph_update_sym(&mut a, &p, &k, &h, r_t);
        let scale = dense
            .iter()
            .flatten()
            .fold(f64::MIN_POSITIVE, |mx, v| mx.max(a.to_f64(*v).abs()));
        for row in 0..5 {
            for col in 0..5 {
                // The packed result is exactly symmetric by construction.
                prop_assert_eq!(packed[row][col].to_f64().to_bits(), packed[col][row].to_f64().to_bits());
                let d = (a.to_f64(dense[row][col]) - a.to_f64(packed[row][col])).abs();
                prop_assert!(
                    d <= 4.0 * scale * f64::EPSILON,
                    "P'[{}][{}]: dense {} packed {} (scale {})",
                    row, col, a.to_f64(dense[row][col]), a.to_f64(packed[row][col]), scale
                );
            }
        }
    }

    /// The closed-form LDL solve of the 2x2 innovation tracks the
    /// still-compiled Gauss-Jordan reference within a few ulps scaled
    /// to the inverse magnitude on Softfloat (both are backward-stable;
    /// they differ only in rounding order — measured worst case ~6
    /// matrix-scaled ulps at condition <= ~20, asserted at 16).
    #[test]
    fn closed_form_solve_tracks_gauss_jordan_on_softfloat(
        d0 in 1e-5_f64..1e-2,
        d1 in 1e-5_f64..1e-2,
        corr in -0.9_f64..0.9,
    ) {
        let mut a = SoftArith::default();
        let off = corr * (d0 * d1).sqrt();
        let s = [[a.num(d0), a.num(off)], [a.num(off), a.num(d1)]];
        let gj = smallmat::inverse(&mut a, &s).expect("SPD");
        let ldl = smallmat::inverse2_sym(&mut a, &s).expect("SPD");
        let scale = gj
            .iter()
            .flatten()
            .fold(f64::MIN_POSITIVE, |mx, v| mx.max(a.to_f64(*v).abs()));
        for row in 0..2 {
            for col in 0..2 {
                let d = (a.to_f64(gj[row][col]) - a.to_f64(ldl[row][col])).abs();
                prop_assert!(
                    d <= 16.0 * scale * f64::EPSILON,
                    "S^-1[{}][{}]: gj {} ldl {}",
                    row, col, a.to_f64(gj[row][col]), a.to_f64(ldl[row][col])
                );
            }
        }
    }

    /// The Softfloat substrate tracks the native reference within one
    /// scaled ulp over random predict/update sequences of the full
    /// 5-state IEKF (in practice the emulation is bit-exact; the ulp
    /// bound is the contract).
    #[test]
    fn softfloat_tracks_f64_over_random_update_sequences(
        samples in prop::collection::vec(
            (
                -5.0_f64..5.0,
                -5.0_f64..5.0,
                -4.0_f64..4.0,
                -4.0_f64..4.0,
                8.0_f64..11.0,
                1e-4_f64..0.05,
            ),
            20..120,
        )
    ) {
        let mut native: GenericBoresightFilter<F64Arith> =
            GenericBoresightFilter::new(FilterConfig::paper_static());
        let mut soft: GenericBoresightFilter<SoftArith> =
            GenericBoresightFilter::new(FilterConfig::paper_static());
        let mut t = 0.0;
        for &(z0, z1, fx, fy, fz, dt) in &samples {
            t += dt;
            let z = Vec2::new([z0 * 0.1, z1 * 0.1]);
            let f_b = Vec3::new([fx, fy, fz]);
            native.predict(dt);
            soft.predict(dt);
            let un = native.update(z, f_b, t);
            let us = soft.update(z, f_b, t);
            prop_assert_eq!(un.accepted, us.accepted);
        }
        let an = native.angles();
        let asoft = soft.angles();
        prop_assert!(within_scaled_ulp(an.roll, asoft.roll), "roll {} vs {}", an.roll, asoft.roll);
        prop_assert!(within_scaled_ulp(an.pitch, asoft.pitch), "pitch {} vs {}", an.pitch, asoft.pitch);
        prop_assert!(within_scaled_ulp(an.yaw, asoft.yaw), "yaw {} vs {}", an.yaw, asoft.yaw);
        let pn = native.covariance();
        let ps = soft.covariance();
        for r in 0..5 {
            for c in 0..5 {
                prop_assert!(
                    within_scaled_ulp(pn[(r, c)], ps[(r, c)]),
                    "P[{}][{}]: {} vs {}", r, c, pn[(r, c)], ps[(r, c)]
                );
            }
        }
        // The emulated run also accounted its cycle cost.
        prop_assert!(soft.arith().cycles() > 0);
    }
}

/// Saturation count of one fresh `QArith<FRAC>` after a single
/// (non-chained) operation on operands lowered through `num`.
fn q_sat_for_op<const FRAC: u32>(op: usize, a: f64, b: f64, c: f64) -> u64 {
    use sensor_fusion_fpga::fusion::arith::QArith;
    let mut q = QArith::<FRAC>::default();
    let (qa, qb, qc) = (q.num(a), q.num(b), q.num(c));
    match op {
        0 => {
            q.add(qa, qb);
        }
        1 => {
            q.sub(qa, qb);
        }
        2 => {
            q.mul(qa, qb);
        }
        3 => {
            q.div(qa, qb);
        }
        4 => {
            q.fma(qa, qb, qc);
        }
        5 => {
            q.neg(qa);
        }
        _ => {
            q.abs(qa);
        }
    }
    q.saturations()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Growing `FRAC` trades headroom for resolution, so on a fixed
    /// operand domain the saturation counter must be monotone
    /// non-decreasing across the `Q<FRAC>` family: `Q4.28` saturates at
    /// least as often as `Q8.24`, which saturates at least as often as
    /// `Q12.20`, then `Q16.16`. Operands are exact multiples of `2^-8`
    /// in `[-16, 16]` (representable in every format's fraction field,
    /// beyond `Q4.28`'s ±8 range), one op per fresh ledger so counts
    /// are attributable; divisors keep `|b| >= 2^-8`.
    #[test]
    fn q_format_saturation_counts_are_monotone_in_fraction_bits(
        op in 0usize..7,
        ai in -4096i64..=4096,
        bi in -4096i64..=4096,
        ci in -4096i64..=4096,
    ) {
        let a = ai as f64 / 256.0;
        let mut b = bi as f64 / 256.0;
        let c = ci as f64 / 256.0;
        if op == 3 && b == 0.0 {
            b = 1.0 / 256.0;
        }
        let sats = [
            q_sat_for_op::<16>(op, a, b, c),
            q_sat_for_op::<20>(op, a, b, c),
            q_sat_for_op::<24>(op, a, b, c),
            q_sat_for_op::<28>(op, a, b, c),
        ];
        for w in sats.windows(2) {
            prop_assert!(
                w[0] <= w[1],
                "saturations not monotone across FRAC sweep: {:?} (op {})",
                sats,
                op
            );
        }
    }
}

/// A substrate whose values can be built from per-lane `f64` draws and
/// compared bit for bit.
///
/// The sign of an IEEE zero is the one thing the comparison drops. The
/// dense sums start from `+0`, so their zero results are `+0`; a
/// structured sum starts with its first product, so an exactly-zero
/// result whose products are all `-0` stays `-0` (e.g. `J[1][1]` at
/// `phi = 0` with `f_x < 0`). The sign reaches no filter output: the
/// bit-identity pins of the whole filter hold.
trait ExactSubstrate: Arith + Clone + Default {
    /// The value for `lanes` (scalar substrates take lane 0).
    fn lift(&mut self, lanes: [f64; 4]) -> Self::T;
    /// The exact bit pattern of every lane of `v`, zeros unsigned.
    fn bits(&self, v: Self::T) -> Vec<u64>;
}

/// `bits` with the sign of a zero dropped.
fn unsigned_zero(bits: u64, sign: u64) -> u64 {
    if bits & !sign == 0 {
        0
    } else {
        bits
    }
}

impl ExactSubstrate for F64Arith {
    fn lift(&mut self, lanes: [f64; 4]) -> f64 {
        lanes[0]
    }
    fn bits(&self, v: f64) -> Vec<u64> {
        vec![unsigned_zero(v.to_bits(), 1 << 63)]
    }
}

impl ExactSubstrate for F32Arith {
    fn lift(&mut self, lanes: [f64; 4]) -> f32 {
        self.num(lanes[0])
    }
    fn bits(&self, v: f32) -> Vec<u64> {
        vec![unsigned_zero(u64::from(v.to_bits()), 1 << 31)]
    }
}

impl ExactSubstrate for QArith<16> {
    fn lift(&mut self, lanes: [f64; 4]) -> Self::T {
        self.num(lanes[0])
    }
    fn bits(&self, v: Self::T) -> Vec<u64> {
        vec![u64::from(v.raw() as u32)]
    }
}

impl ExactSubstrate for SoftArith {
    fn lift(&mut self, lanes: [f64; 4]) -> Self::T {
        self.num(lanes[0])
    }
    fn bits(&self, v: Self::T) -> Vec<u64> {
        vec![unsigned_zero(v.0, 1 << 63)]
    }
}

impl ExactSubstrate for LaneArith<F64Arith, 4> {
    fn lift(&mut self, lanes: [f64; 4]) -> [f64; 4] {
        lanes
    }
    fn bits(&self, v: [f64; 4]) -> Vec<u64> {
        v.iter()
            .map(|x| unsigned_zero(x.to_bits(), 1 << 63))
            .collect()
    }
}

/// Per-lane draws for one structured-kernel check.
#[derive(Debug)]
struct KernelCase {
    x: [[f64; 4]; 5],
    f_b: [[f64; 3]; 4],
    p: [[[f64; 4]; 5]; 5],
    k: [[[f64; 4]; 2]; 5],
    r: f64,
    estimate_bias: bool,
}

/// Builds a case from flat draws: angles within the trust region (an
/// angle whose `zero_mask` bit is set is exactly zero in every lane),
/// gravity-dominated forces, a symmetric `P = M M^T + d I` and a gain.
#[allow(clippy::too_many_arguments)]
fn kernel_case(
    angles: &[f64],
    biases: &[f64],
    forces: &[f64],
    m: &[f64],
    gains: &[f64],
    zero_mask: u8,
    r: f64,
    estimate_bias: bool,
) -> KernelCase {
    let mut x = [[0.0; 4]; 5];
    for lane in 0..4 {
        for i in 0..3 {
            if zero_mask & (1 << i) == 0 {
                x[i][lane] = angles[lane * 3 + i];
            }
        }
        x[3][lane] = biases[lane * 2];
        x[4][lane] = biases[lane * 2 + 1];
    }
    let f_b = std::array::from_fn(|lane| {
        [
            forces[lane * 3],
            forces[lane * 3 + 1],
            9.80665 + forces[lane * 3 + 2],
        ]
    });
    let mut p = [[[0.0; 4]; 5]; 5];
    for lane in 0..4 {
        for row in 0..5 {
            for col in 0..5 {
                let mut acc = if row == col { 1e-7 } else { 0.0 };
                for k in 0..5 {
                    acc += m[lane * 25 + row * 5 + k] * m[lane * 25 + col * 5 + k];
                }
                p[row][col][lane] = acc;
            }
        }
    }
    let k = std::array::from_fn(|row| {
        std::array::from_fn(|col| std::array::from_fn(|lane| gains[lane * 10 + row * 2 + col]))
    });
    KernelCase {
        x,
        f_b,
        p,
        k,
        r,
        estimate_bias,
    }
}

/// Runs the structured model + Jacobian, `J P`/`S` and Joseph kernels
/// and their dense references on `A`, requiring identical bits and
/// identical saturation counts.
fn check_structured_kernels<A: ExactSubstrate>(case: &KernelCase) -> Result<(), TestCaseError> {
    let mut a = A::default();
    let x = case.x.map(|v| a.lift(v));
    let f_b: [A::T; 3] = std::array::from_fn(|i| {
        let lanes = std::array::from_fn(|lane| case.f_b[lane][i]);
        a.lift(lanes)
    });
    let p = case.p.map(|row| row.map(|v| a.lift(v)));
    let k = case.k.map(|row| row.map(|v| a.lift(v)));
    let r = a.lift([case.r; 4]);
    let mut dense = a.clone();

    let (h, jac) = model::h_and_jacobian_generic(&mut a, &x, &f_b, case.estimate_bias);
    let (jp, s) = jp_and_s(&mut a, &jac, &p, r, case.estimate_bias);
    let joseph = joseph_structured(&mut a, &p, &k, &jac, r, case.estimate_bias);

    let h_ref = reference::h_generic(&mut dense, &x, &f_b);
    let mut jac_ref = reference::jacobian_generic(&mut dense, &x, &f_b);
    if !case.estimate_bias {
        let zero = dense.num(0.0);
        jac_ref[0][3] = zero;
        jac_ref[1][4] = zero;
    }
    let jp_ref = smallmat::mul(&mut dense, &jac_ref, &p);
    let s_ref = smallmat::innovation_cov(&mut dense, &jp_ref, &jac_ref, r);
    let joseph_ref = smallmat::joseph_update_sym(&mut dense, &p, &k, &jac_ref, r);

    let name = a.name();
    for row in 0..2 {
        prop_assert_eq!(
            a.bits(h[row]),
            dense.bits(h_ref[row]),
            "{} h[{}]",
            name,
            row
        );
        for col in 0..5 {
            prop_assert_eq!(
                a.bits(jac[row][col]),
                dense.bits(jac_ref[row][col]),
                "{} J[{}][{}]",
                name,
                row,
                col
            );
            prop_assert_eq!(
                a.bits(jp[row][col]),
                dense.bits(jp_ref[row][col]),
                "{} JP[{}][{}]",
                name,
                row,
                col
            );
        }
        for col in 0..2 {
            prop_assert_eq!(
                a.bits(s[row][col]),
                dense.bits(s_ref[row][col]),
                "{} S[{}][{}]",
                name,
                row,
                col
            );
        }
    }
    for row in 0..5 {
        for col in 0..5 {
            prop_assert_eq!(
                a.bits(joseph[row][col]),
                dense.bits(joseph_ref[row][col]),
                "{} P'[{}][{}]",
                name,
                row,
                col
            );
        }
    }
    prop_assert_eq!(a.saturations(), dense.saturations(), "{} saturations", name);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The structured measurement kernels are bit-identical to the
    /// dense formulation they replace — model + Jacobian against
    /// `h_generic` + `jacobian_generic` (bias columns masked when bias
    /// estimation is off), `J P`/`S` against `smallmat::mul` +
    /// `innovation_cov`, the Joseph update against
    /// `joseph_update_sym` — on every substrate the filter runs on,
    /// including exactly-zero angles, where the factors' own zeros and
    /// ones meet the dropped terms.
    #[test]
    fn structured_model_and_innovation_kernels_are_bit_identical_to_dense(
        angles in prop::collection::vec(-0.3_f64..0.3, 12),
        biases in prop::collection::vec(-0.3_f64..0.3, 8),
        forces in prop::collection::vec(-6.0_f64..6.0, 12),
        m in prop::collection::vec(-0.05_f64..0.05, 100),
        gains in prop::collection::vec(-0.5_f64..0.5, 40),
        zero_mask in 0u8..8,
        r in 1e-6_f64..1e-3,
        estimate_bias in any::<bool>(),
    ) {
        let case = kernel_case(&angles, &biases, &forces, &m, &gains, zero_mask, r, estimate_bias);
        check_structured_kernels::<F64Arith>(&case)?;
        check_structured_kernels::<F32Arith>(&case)?;
        check_structured_kernels::<QArith<16>>(&case)?;
        check_structured_kernels::<SoftArith>(&case)?;
        check_structured_kernels::<LaneArith<F64Arith, 4>>(&case)?;
    }
}

/// The op cost of one call of each structured kernel on `A`: the
/// model + Jacobian, `J P`/`S`, the Joseph update and the Kalman update.
fn kernel_ops<A: Arith + Default>(estimate_bias: bool) -> (OpCounts, OpCounts, OpCounts, OpCounts) {
    let mut a = A::default();
    let x = [0.03, -0.02, 0.05, 0.01, -0.02].map(|v| a.num(v));
    let f_b = [0.8, -0.4, STANDARD_GRAVITY].map(|v| a.num(v));
    let p: [[A::T; 5]; 5] = std::array::from_fn(|row| {
        std::array::from_fn(|col| a.num(if row == col { 1e-3 } else { 1e-5 }))
    });
    let k: [[A::T; 2]; 5] = std::array::from_fn(|row| [a.num(0.02 * row as f64), a.num(-0.01)]);
    let r = a.num(4.9e-5);
    let start = a.counts();
    let (_, jac) = model::h_and_jacobian_generic(&mut a, &x, &f_b, estimate_bias);
    let model_ops = a.counts().since(&start);
    let start = a.counts();
    let (jp, _) = jp_and_s(&mut a, &jac, &p, r, estimate_bias);
    let jp_s_ops = a.counts().since(&start);
    let start = a.counts();
    let _ = joseph_structured(&mut a, &p, &k, &jac, r, estimate_bias);
    let joseph_ops = a.counts().since(&start);
    let start = a.counts();
    let _ = kalman_structured(&mut a, &p, &k, &jp);
    (model_ops, jp_s_ops, joseph_ops, a.counts().since(&start))
}

/// The op cost of one call of each structured kernel, pinned literally
/// so an edit cannot silently regrow them. `QArith` counts a fused
/// multiply-add as one op; the `f64` and softfloat ledgers count its
/// `mul` and `add`.
#[test]
fn structured_kernel_op_counts_are_pinned() {
    let model_q = OpCounts {
        trig: 3,
        neg: 5,
        mul: 25,
        fma: 17,
        add: 2,
        ..OpCounts::default()
    };
    let jp_s_q = OpCounts {
        mul: 13,
        fma: 20,
        add: 15,
        ..OpCounts::default()
    };
    let joseph_q = OpCounts {
        mul: 85,
        fma: 185,
        sub: 5,
        neg: 20,
        add: 15,
        ..OpCounts::default()
    };
    // The Kalman form: one mul, fma and sub per unique entry, with or
    // without bias states.
    let kalman_q = OpCounts {
        mul: 15,
        fma: 15,
        sub: 15,
        ..OpCounts::default()
    };
    assert_eq!(
        kernel_ops::<QArith<16>>(true),
        (model_q, jp_s_q, joseph_q, kalman_q)
    );
    // Without bias states the selector columns drop their adds, and the
    // identity columns of I - K J drop their zero terms.
    let jp_s_q_no_bias = OpCounts { add: 2, ..jp_s_q };
    let joseph_q_no_bias = OpCounts {
        mul: 85,
        fma: 105,
        sub: 3,
        neg: 12,
        add: 34,
        ..OpCounts::default()
    };
    assert_eq!(
        kernel_ops::<QArith<16>>(false),
        (model_q, jp_s_q_no_bias, joseph_q_no_bias, kalman_q)
    );
    let model_f64 = OpCounts {
        trig: 3,
        neg: 5,
        mul: 42,
        add: 19,
        ..OpCounts::default()
    };
    let jp_s_f64 = OpCounts {
        mul: 33,
        add: 35,
        ..OpCounts::default()
    };
    let joseph_f64 = OpCounts {
        mul: 270,
        sub: 5,
        neg: 20,
        add: 200,
        ..OpCounts::default()
    };
    let kalman_f64 = OpCounts {
        mul: 30,
        add: 15,
        sub: 15,
        ..OpCounts::default()
    };
    let float_row = (model_f64, jp_s_f64, joseph_f64, kalman_f64);
    assert_eq!(kernel_ops::<F64Arith>(true), float_row);
    assert_eq!(kernel_ops::<SoftArith>(true), float_row);
}

/// The Kalman kernel computes `P - K (J P)` on and above the diagonal
/// and mirrors it: the result is exactly symmetric, equals the
/// definition evaluated in host `f64` (first product rounded, second
/// fused as a multiply and an add, then the subtraction), and the
/// softfloat kernel returns the same bits as the native one.
fn check_kalman_kernel(m: &[f64], kv: &[f64], jv: &[f64]) -> Result<(), TestCaseError> {
    let p: [[f64; 5]; 5] = std::array::from_fn(|row| {
        std::array::from_fn(|col| {
            let mut acc = if row == col { 1e-7 } else { 0.0 };
            for k in 0..5 {
                acc += m[row * 5 + k] * m[col * 5 + k];
            }
            acc
        })
    });
    let k: [[f64; 2]; 5] = std::array::from_fn(|i| [kv[i * 2], kv[i * 2 + 1]]);
    let jp: [[f64; 5]; 2] = std::array::from_fn(|i| std::array::from_fn(|j| jv[i * 5 + j]));
    let native = kalman_structured(&mut F64Arith::default(), &p, &k, &jp);
    let mut soft = SoftArith::default();
    let p_s = p.map(|row| row.map(|v| soft.num(v)));
    let k_s = k.map(|row| row.map(|v| soft.num(v)));
    let jp_s = jp.map(|row| row.map(|v| soft.num(v)));
    let emulated = kalman_structured(&mut soft, &p_s, &k_s, &jp_s);
    for row in 0..5 {
        for col in 0..5 {
            let v = native[row][col];
            prop_assert_eq!(
                v.to_bits(),
                native[col][row].to_bits(),
                "P'[{}][{}] symmetric",
                row,
                col
            );
            let (i, j) = (row.min(col), row.max(col));
            let definition = p[i][j] - (k[i][0] * jp[0][j] + k[i][1] * jp[1][j]);
            prop_assert_eq!(
                v.to_bits(),
                definition.to_bits(),
                "P'[{}][{}] definition",
                row,
                col
            );
            prop_assert_eq!(
                emulated[row][col].to_f64().to_bits(),
                v.to_bits(),
                "P'[{}][{}] softfloat",
                row,
                col
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn kalman_kernel_is_symmetric_and_softfloat_matches_f64_bitwise(
        m in prop::collection::vec(-0.05_f64..0.05, 25),
        kv in prop::collection::vec(-0.5_f64..0.5, 10),
        jv in prop::collection::vec(-1e-3_f64..1e-3, 10),
    ) {
        check_kalman_kernel(&m, &kv, &jv)?;
    }
}

/// The covariance form belongs to the number system: one accepted
/// single-pass update charges the Kalman kernel on `F64Arith` and the
/// Joseph kernel on `QArith<16>`, on top of the same pass (the solve,
/// the gain, the state step and the trust-region test).
#[test]
fn accepted_update_charges_the_covariance_kernel_of_its_number_system() {
    fn update_ops<A: Arith + Default>() -> OpCounts {
        let mut cfg = FilterConfig::paper_static();
        cfg.iekf_iterations = 1;
        let mut kf: GenericBoresightFilter<A> = GenericBoresightFilter::new(cfg);
        kf.predict(0.005);
        let f_b = Vec3::new([0.8, -0.4, STANDARD_GRAVITY]);
        assert!(kf.update(Vec2::new([0.801, -0.402]), f_b, 0.005).accepted);
        kf.phase_ledger().update.ops
    }
    let (_, _, _, kalman_f64) = kernel_ops::<F64Arith>(true);
    let (_, _, joseph_q, _) = kernel_ops::<QArith<16>>(true);
    let pass_f64 = update_ops::<F64Arith>().since(&kalman_f64);
    let pass_q = update_ops::<QArith<16>>().since(&joseph_q);
    // `QArith` counts a fused multiply-add as one op, `f64` as a `mul`
    // and an `add`.
    let pass_q_split = OpCounts {
        mul: pass_q.mul + pass_q.fma,
        add: pass_q.add + pass_q.fma,
        fma: 0,
        ..pass_q
    };
    assert_eq!(pass_f64, pass_q_split);
}
