//! The boresight measurement model.
//!
//! The two-axis accelerometer fixed to the sensor measures the x', y'
//! components of the specific force expressed in the sensor frame:
//!
//! ```text
//! z = S * C_sb(phi, theta, psi) * f_b + b + v
//! ```
//!
//! where `C_sb` is the (sensor-from-body) misalignment DCM — the
//! quantity the filter estimates — `f_b` the IMU's body-frame specific
//! force, `S` the first-two-rows selector, `b` the accelerometer bias
//! pair and `v` measurement noise. This module supplies the model
//! function `h` and its analytic Jacobian with respect to the filter
//! state `[phi, theta, psi, bx, by]` as one kernel,
//! [`h_and_jacobian_generic`], over any [`Arith`] substrate, in two
//! halves: [`factors`] does the work that depends only on the angles
//! (the three `sin_cos` and their products) and [`from_factors`] the
//! dot products with the specific force and the bias terms. `h` is
//! linear in `f_b`, so a filter whose linearization point stays put
//! across samples reuses the factors and pays only the second half
//! (see [`crate::lanes::LaneIekf`]).
//!
//! The kernel is the dense formulation — `C_sb = (Rz Ry Rx)^T` and its
//! three partials multiplied out as 3x3 products — with every term a
//! literal zero factor removes dropped and every unread entry skipped,
//! written out as straight-line code. It keeps the dense accumulation
//! order, so it is bit-identical to the dense kernels on every
//! substrate. Those survive as `reference`, compiled only for tests
//! (and the `test-support` feature), as the oracle the kernel is
//! pinned against.

use crate::arith::Arith;
use mathx::{Matrix, Vector};

/// Dimension of the filter state.
pub const STATE_DIM: usize = 5;
/// Dimension of the measurement.
pub const MEAS_DIM: usize = 2;

/// Filter state vector `[phi, theta, psi, bx, by]`.
pub type State = Vector<STATE_DIM>;
/// Measurement vector (ACC x', y' specific force, m/s^2).
pub type Meas = Vector<MEAS_DIM>;
/// State covariance.
pub type StateCov = Matrix<STATE_DIM, STATE_DIM>;

/// The angle-only half of the model at one linearization point: the
/// coefficients of every read entry of `M^T f_b` (`M` the rotation
/// product or one of its three partials), so that `h` and `J` are dot
/// products of them with the specific force.
///
/// `h` is linear in `f_b`, so a filter that keeps its linearization
/// point across samples keeps these and pays only [`from_factors`] per
/// sample: [`factors`] holds the model's three `sin_cos` and all but
/// the `f_b` products.
#[derive(Clone, Copy, Debug)]
pub struct Factors<T> {
    /// Rows 0 and 1 of `C_sb`: `f_s = C_sb f_b`.
    pub c_sb: [[T; 3]; 2],
    /// Row 1 of `dC_sb/dphi` (its row 0 is zero).
    pub d_phi: [T; 3],
    /// Rows 0 and 1 of `dC_sb/dtheta`.
    pub d_theta: [[T; 3]; 2],
    /// Rows 0 and 1 of `dC_sb/dpsi`, whose `f_z` column is zero.
    pub d_psi: [[T; 2]; 2],
}

impl<T: Copy> Factors<T> {
    /// Every entry set to `v`.
    pub fn splat(v: T) -> Self {
        Self {
            c_sb: [[v; 3]; 2],
            d_phi: [v; 3],
            d_theta: [[v; 3]; 2],
            d_psi: [[v; 2]; 2],
        }
    }

    /// Entry-wise map.
    pub fn map<U>(&self, mut f: impl FnMut(&T) -> U) -> Factors<U> {
        Factors {
            c_sb: self.c_sb.each_ref().map(|row| row.each_ref().map(&mut f)),
            d_phi: self.d_phi.each_ref().map(&mut f),
            d_theta: self
                .d_theta
                .each_ref()
                .map(|row| row.each_ref().map(&mut f)),
            d_psi: self.d_psi.each_ref().map(|row| row.each_ref().map(&mut f)),
        }
    }

    /// Visits every entry of `self` beside the same entry of `other`.
    pub fn zip_mut<U>(&mut self, other: &Factors<U>, mut f: impl FnMut(&mut T, &U)) {
        let dst = self
            .c_sb
            .iter_mut()
            .flatten()
            .chain(&mut self.d_phi)
            .chain(self.d_theta.iter_mut().flatten())
            .chain(self.d_psi.iter_mut().flatten());
        let src = other
            .c_sb
            .iter()
            .flatten()
            .chain(&other.d_phi)
            .chain(other.d_theta.iter().flatten())
            .chain(other.d_psi.iter().flatten());
        for (d, s) in dst.zip(src) {
            f(d, s);
        }
    }
}

/// The model's [`Factors`] at the misalignment `angles`
/// (`[phi, theta, psi]`).
///
/// The Euler factors `Rx`, `Ry`, `Rz` and their derivatives are full
/// of literal zeros and ones: 149 of the dense evaluation's 225
/// multiply-adds have such a factor. A third of the dense products'
/// outputs (row 2 of every `M^T f`, column 2 of every `M`) is never
/// read. This evaluates only what is read, under four exactness rules
/// that make [`h_and_jacobian_generic`] **bit-identical** to the dense
/// `reference::h_generic` + `reference::jacobian_generic` pair on every
/// substrate:
///
/// - each sum keeps the dense association and ascending index order;
/// - a term drops only when one of its factors is a literal zero, and
///   a literal-one factor leaves the other factor (accumulated with
///   `add`);
/// - the first surviving term of a sum is a `mul`, every later product
///   an `fma` (fixed point fuses with one rounding, so `fma(p, q, 0)`
///   equals `mul(p, q)`);
/// - only products with identical operands in identical order are
///   shared (`c2 c1`, `c2 s1`, …); `c2 (-s1)` is never rewritten as
///   `-(c2 s1)`, because fixed-point rounding is not odd-symmetric.
///
/// Costs 3 `sin_cos`, 5 negations, 18 multiplies and 5 fused
/// multiply-adds (pinned by `tests/arith_full_filter.rs`).
pub fn factors<A: Arith>(a: &mut A, angles: &[A::T; 3]) -> Factors<A::T> {
    let (s0, c0) = a.sin_cos(angles[0]);
    let (s1, c1) = a.sin_cos(angles[1]);
    let (s2, c2) = a.sin_cos(angles[2]);
    let ns0 = a.neg(s0);
    let (ns1, nc1) = (a.neg(s1), a.neg(c1));
    let (ns2, nc2) = (a.neg(s2), a.neg(c2));
    // Rz Ry, Rz dRy and dRz Ry: every entry is one product, a bare
    // factor or a literal zero. The products recur across the three.
    let c2c1 = a.mul(c2, c1);
    let c2s1 = a.mul(c2, s1);
    let s2c1 = a.mul(s2, c1);
    let s2s1 = a.mul(s2, s1);
    let c2ns1 = a.mul(c2, ns1);
    let s2ns1 = a.mul(s2, ns1);
    let ns2c1 = a.mul(ns2, c1);
    let ns2s1 = a.mul(ns2, s1);
    // Column 1 of (Rz Ry) dRx, with (Rz Ry)[2][1] a literal zero.
    let t = a.mul(ns2, ns0);
    let phi0 = a.fma(c2s1, c0, t);
    let t = a.mul(c2, ns0);
    let phi1 = a.fma(s2s1, c0, t);
    let phi2 = a.mul(c1, c0);
    // Column 1 of (Rz dRy) Rx; its column 0 is column 0 of Rz dRy.
    let theta0 = a.mul(c2c1, s0);
    let theta1 = a.mul(s2c1, s0);
    let theta2 = a.mul(ns1, s0);
    // Column 1 of (dRz Ry) Rx, whose row 2 is zero; column 0 is
    // column 0 of dRz Ry. Entry 1 is also entry 0 of the model's
    // column 1: the same products of the same factors.
    let t = a.mul(nc2, c0);
    let psi0 = a.fma(ns2s1, s0, t);
    let t = a.mul(ns2, c0);
    let psi1 = a.fma(c2s1, s0, t);
    // Column 1 of (Rz Ry) Rx; its column 0 is column 0 of Rz Ry.
    let t = a.mul(c2, c0);
    let prod1 = a.fma(s2s1, s0, t);
    let prod2 = a.mul(c1, s0);
    Factors {
        c_sb: [[c2c1, s2c1, ns1], [psi1, prod1, prod2]],
        d_phi: [phi0, phi1, phi2],
        d_theta: [[c2ns1, s2ns1, nc1], [theta0, theta1, theta2]],
        d_psi: [[ns2c1, c2c1], [psi0, psi1]],
    }
}

/// `h` and `J` from the [`Factors`] of a linearization point, its bias
/// states `bias` (`[bx, by]`) and the specific force `f_b`: the read
/// components of `M^T f_b` as dot products (a `mul`, then `fma`s) and
/// the bias terms. The Jacobian's bias columns are zero when
/// `estimate_bias` is off.
///
/// Costs 7 multiplies, 12 fused multiply-adds and 2 adds.
#[allow(clippy::type_complexity)]
pub fn from_factors<A: Arith>(
    a: &mut A,
    factors: &Factors<A::T>,
    bias: &[A::T; 2],
    f_b: &[A::T; 3],
    estimate_bias: bool,
) -> ([A::T; MEAS_DIM], [[A::T; STATE_DIM]; MEAS_DIM]) {
    fn dot<A: Arith, const N: usize>(a: &mut A, row: &[A::T; N], f_b: &[A::T; 3]) -> A::T {
        let mut acc = a.mul(row[0], f_b[0]);
        for (r, f) in row.iter().zip(f_b).skip(1) {
            acc = a.fma(*r, *f, acc);
        }
        acc
    }
    let zero = a.num(0.0);
    let one = if estimate_bias { a.num(1.0) } else { zero };
    let d_phi1 = dot(a, &factors.d_phi, f_b);
    let d_theta0 = dot(a, &factors.d_theta[0], f_b);
    let d_theta1 = dot(a, &factors.d_theta[1], f_b);
    let d_psi0 = dot(a, &factors.d_psi[0], f_b);
    let d_psi1 = dot(a, &factors.d_psi[1], f_b);
    let f_s0 = dot(a, &factors.c_sb[0], f_b);
    let f_s1 = dot(a, &factors.c_sb[1], f_b);
    let h = [a.add(f_s0, bias[0]), a.add(f_s1, bias[1])];
    let jac = [
        [zero, d_theta0, d_psi0, one, zero],
        [d_phi1, d_theta1, d_psi1, zero, one],
    ];
    (h, jac)
}

/// Model function and analytic Jacobian at one linearization point:
/// `h(x)` for IMU specific force `f_b`, and `dh/dx` (2 x 5) with the
/// bias columns zeroed when `estimate_bias` is off —
/// [`from_factors`] of [`factors`], bit-identical to the dense
/// formulation on every substrate (see [`factors`] for the rules).
///
/// On IEEE substrates the one difference the rules admit is the sign
/// of an exactly-zero result (the dense accumulator starts at `+0`).
/// One evaluation costs 3 `sin_cos`, 5 negations, 25 multiplies,
/// 17 fused multiply-adds and 2 adds (pinned by
/// `tests/arith_full_filter.rs`), against 3, 6, 0, 225 and 2 dense.
#[allow(clippy::type_complexity)]
pub fn h_and_jacobian_generic<A: Arith>(
    a: &mut A,
    x: &[A::T; STATE_DIM],
    f_b: &[A::T; 3],
    estimate_bias: bool,
) -> ([A::T; MEAS_DIM], [[A::T; STATE_DIM]; MEAS_DIM]) {
    let f = factors(a, &[x[0], x[1], x[2]]);
    from_factors(a, &f, &[x[3], x[4]], f_b, estimate_bias)
}

/// The dense formulation of the model: the `f64` functions on `mathx`
/// matrices and their substrate-generic twins over [`crate::smallmat`]
/// in the same operation order (instantiated with `F64Arith` they
/// reproduce the `f64` functions bit for bit). Test-only: they are the
/// oracle [`h_and_jacobian_generic`] is pinned against.
#[cfg(any(test, feature = "test-support"))]
pub mod reference {
    use super::{Meas, State, MEAS_DIM, STATE_DIM};
    use crate::arith::Arith;
    use crate::smallmat;
    use mathx::{Mat3, Matrix, Vec3, Vector};

    /// Measurement Jacobian.
    pub type MeasJacobian = Matrix<MEAS_DIM, STATE_DIM>;

    fn rx(phi: f64) -> Mat3 {
        let (s, c) = phi.sin_cos();
        Mat3::new([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    }

    fn ry(theta: f64) -> Mat3 {
        let (s, c) = theta.sin_cos();
        Mat3::new([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    }

    fn rz(psi: f64) -> Mat3 {
        let (s, c) = psi.sin_cos();
        Mat3::new([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    }

    fn drx(phi: f64) -> Mat3 {
        let (s, c) = phi.sin_cos();
        Mat3::new([[0.0, 0.0, 0.0], [0.0, -s, -c], [0.0, c, -s]])
    }

    fn dry(theta: f64) -> Mat3 {
        let (s, c) = theta.sin_cos();
        Mat3::new([[-s, 0.0, c], [0.0, 0.0, 0.0], [-c, 0.0, -s]])
    }

    fn drz(psi: f64) -> Mat3 {
        let (s, c) = psi.sin_cos();
        Mat3::new([[-s, -c, 0.0], [c, -s, 0.0], [0.0, 0.0, 0.0]])
    }

    /// Sensor-from-body DCM for the given state.
    pub fn c_sb(x: &State) -> Mat3 {
        (rz(x[2]) * ry(x[1]) * rx(x[0])).transpose()
    }

    /// Model function: predicted ACC measurement for state `x` and IMU
    /// specific force `f_b`.
    pub fn h(x: &State, f_b: Vec3) -> Meas {
        let f_s = c_sb(x) * f_b;
        Vector::new([f_s[0] + x[3], f_s[1] + x[4]])
    }

    /// Analytic Jacobian `dh/dx` (2 x 5).
    pub fn jacobian(x: &State, f_b: Vec3) -> MeasJacobian {
        let a = rz(x[2]);
        let b = ry(x[1]);
        let c = rx(x[0]);
        // C_sb = C^T B^T A^T; partials replace one factor by its derivative.
        let d_phi = (a * b * drx(x[0])).transpose() * f_b;
        let d_theta = (a * dry(x[1]) * c).transpose() * f_b;
        let d_psi = (drz(x[2]) * b * c).transpose() * f_b;
        let mut jac = MeasJacobian::zeros();
        for row in 0..MEAS_DIM {
            jac[(row, 0)] = d_phi[row];
            jac[(row, 1)] = d_theta[row];
            jac[(row, 2)] = d_psi[row];
        }
        jac[(0, 3)] = 1.0;
        jac[(1, 4)] = 1.0;
        jac
    }

    fn rx_g<A: Arith>(a: &mut A, phi: A::T) -> [[A::T; 3]; 3] {
        let (s, c) = a.sin_cos(phi);
        let ns = a.neg(s);
        let zero = a.num(0.0);
        let one = a.num(1.0);
        [[one, zero, zero], [zero, c, ns], [zero, s, c]]
    }

    fn ry_g<A: Arith>(a: &mut A, theta: A::T) -> [[A::T; 3]; 3] {
        let (s, c) = a.sin_cos(theta);
        let ns = a.neg(s);
        let zero = a.num(0.0);
        let one = a.num(1.0);
        [[c, zero, s], [zero, one, zero], [ns, zero, c]]
    }

    fn rz_g<A: Arith>(a: &mut A, psi: A::T) -> [[A::T; 3]; 3] {
        let (s, c) = a.sin_cos(psi);
        let ns = a.neg(s);
        let zero = a.num(0.0);
        let one = a.num(1.0);
        [[c, ns, zero], [s, c, zero], [zero, zero, one]]
    }

    fn drx_g<A: Arith>(a: &mut A, phi: A::T) -> [[A::T; 3]; 3] {
        let (s, c) = a.sin_cos(phi);
        let ns = a.neg(s);
        let nc = a.neg(c);
        let zero = a.num(0.0);
        [[zero, zero, zero], [zero, ns, nc], [zero, c, ns]]
    }

    fn dry_g<A: Arith>(a: &mut A, theta: A::T) -> [[A::T; 3]; 3] {
        let (s, c) = a.sin_cos(theta);
        let ns = a.neg(s);
        let nc = a.neg(c);
        let zero = a.num(0.0);
        [[ns, zero, c], [zero, zero, zero], [nc, zero, ns]]
    }

    fn drz_g<A: Arith>(a: &mut A, psi: A::T) -> [[A::T; 3]; 3] {
        let (s, c) = a.sin_cos(psi);
        let ns = a.neg(s);
        let nc = a.neg(c);
        let zero = a.num(0.0);
        [[ns, nc, zero], [c, ns, zero], [zero, zero, zero]]
    }

    /// `Rz * Ry * Rx` for the given state — `C_sb` is its transpose, which
    /// callers apply implicitly through [`smallmat::mat_tvec`].
    fn rot_prod_g<A: Arith>(a: &mut A, x: &[A::T; STATE_DIM]) -> [[A::T; 3]; 3] {
        let rz = rz_g(a, x[2]);
        let ry = ry_g(a, x[1]);
        let rx = rx_g(a, x[0]);
        let zy = smallmat::mul(a, &rz, &ry);
        smallmat::mul(a, &zy, &rx)
    }

    /// Substrate-generic model function: predicted ACC measurement for
    /// state `x` and IMU specific force `f_b`.
    pub fn h_generic<A: Arith>(
        a: &mut A,
        x: &[A::T; STATE_DIM],
        f_b: &[A::T; 3],
    ) -> [A::T; MEAS_DIM] {
        let prod = rot_prod_g(a, x);
        let f_s = smallmat::mat_tvec(a, &prod, f_b);
        [a.add(f_s[0], x[3]), a.add(f_s[1], x[4])]
    }

    /// Substrate-generic analytic Jacobian `dh/dx` (2 x 5).
    pub fn jacobian_generic<A: Arith>(
        a: &mut A,
        x: &[A::T; STATE_DIM],
        f_b: &[A::T; 3],
    ) -> [[A::T; STATE_DIM]; MEAS_DIM] {
        let az = rz_g(a, x[2]);
        let by = ry_g(a, x[1]);
        let cx = rx_g(a, x[0]);
        // C_sb = C^T B^T A^T; partials replace one factor by its derivative.
        let ab = smallmat::mul(a, &az, &by);
        let dcx = drx_g(a, x[0]);
        let m_phi = smallmat::mul(a, &ab, &dcx);
        let d_phi = smallmat::mat_tvec(a, &m_phi, f_b);
        let dby = dry_g(a, x[1]);
        let adb = smallmat::mul(a, &az, &dby);
        let m_theta = smallmat::mul(a, &adb, &cx);
        let d_theta = smallmat::mat_tvec(a, &m_theta, f_b);
        let daz = drz_g(a, x[2]);
        let db = smallmat::mul(a, &daz, &by);
        let m_psi = smallmat::mul(a, &db, &cx);
        let d_psi = smallmat::mat_tvec(a, &m_psi, f_b);
        let zero = a.num(0.0);
        let one = a.num(1.0);
        let mut jac = [[zero; STATE_DIM]; MEAS_DIM];
        for row in 0..MEAS_DIM {
            jac[row][0] = d_phi[row];
            jac[row][1] = d_theta[row];
            jac[row][2] = d_psi[row];
        }
        jac[0][3] = one;
        jac[1][4] = one;
        jac
    }

    /// First-order (small-angle) approximation of `h`:
    /// `z ~ S (f - e x f) + b`.
    pub fn h_small_angle(x: &State, f_b: Vec3) -> Meas {
        let e = Vec3::new([x[0], x[1], x[2]]);
        let f_s = f_b - e.cross(&f_b);
        Vector::new([f_s[0] + x[3], f_s[1] + x[4]])
    }
}

#[cfg(test)]
mod tests {
    use super::reference::*;
    use super::*;
    use mathx::{deg_to_rad, EulerAngles, Vec3, STANDARD_GRAVITY};

    fn state(roll: f64, pitch: f64, yaw: f64, bx: f64, by: f64) -> State {
        Vector::new([deg_to_rad(roll), deg_to_rad(pitch), deg_to_rad(yaw), bx, by])
    }

    #[test]
    fn c_sb_matches_mathx_convention() {
        let x = state(3.0, -2.0, 5.0, 0.0, 0.0);
        let e = EulerAngles::new(x[0], x[1], x[2]);
        let expected = e.dcm().transpose();
        assert!((c_sb(&x) - *expected.matrix()).max_abs() < 1e-14);
    }

    #[test]
    fn zero_state_is_identity() {
        let x = State::zeros();
        let f = Vec3::new([1.0, 2.0, 3.0]);
        let z = h(&x, f);
        assert_eq!(z, Vector::new([1.0, 2.0]));
    }

    #[test]
    fn bias_adds_directly() {
        let x = state(0.0, 0.0, 0.0, 0.05, -0.02);
        let f = Vec3::new([1.0, 2.0, 3.0]);
        let z = h(&x, f);
        assert!((z[0] - 1.05).abs() < 1e-15);
        assert!((z[1] - 1.98).abs() < 1e-15);
    }

    #[test]
    fn jacobian_matches_numerical() {
        let x0 = state(2.0, -1.5, 3.0, 0.01, -0.02);
        let f = Vec3::new([0.8, -0.4, STANDARD_GRAVITY]);
        let jac = jacobian(&x0, f);
        let eps = 1e-7;
        for k in 0..STATE_DIM {
            let mut xp = x0;
            let mut xm = x0;
            xp[k] += eps;
            xm[k] -= eps;
            let num = (h(&xp, f) - h(&xm, f)) / (2.0 * eps);
            for row in 0..MEAS_DIM {
                assert!(
                    (jac[(row, k)] - num[row]).abs() < 1e-6,
                    "d h[{row}]/dx[{k}]: analytic {} numeric {}",
                    jac[(row, k)],
                    num[row]
                );
            }
        }
    }

    #[test]
    fn jacobian_numerical_at_zero() {
        let x0 = State::zeros();
        let f = Vec3::new([0.0, 0.0, STANDARD_GRAVITY]);
        let jac = jacobian(&x0, f);
        // Small-angle theory: z_x ~ -theta*g, z_y ~ +phi*g at level.
        assert!((jac[(0, 1)] + STANDARD_GRAVITY).abs() < 1e-12);
        assert!((jac[(1, 0)] - STANDARD_GRAVITY).abs() < 1e-12);
        // Yaw unobservable when gravity is along z.
        assert!(jac[(0, 2)].abs() < 1e-12);
        assert!(jac[(1, 2)].abs() < 1e-12);
    }

    #[test]
    fn yaw_becomes_observable_with_horizontal_force() {
        let x0 = State::zeros();
        let f = Vec3::new([2.0, 0.0, STANDARD_GRAVITY]); // braking/accelerating
        let jac = jacobian(&x0, f);
        // z_y picks up -psi*f_x.
        assert!((jac[(1, 2)] + 2.0).abs() < 1e-12, "{}", jac[(1, 2)]);
    }

    #[test]
    fn generic_model_is_bit_identical_to_f64_model() {
        use crate::arith::F64Arith;
        let x0 = state(2.0, -1.5, 3.0, 0.01, -0.02);
        let f = Vec3::new([0.8, -0.4, STANDARD_GRAVITY]);
        let mut a = F64Arith::default();
        let xs = *x0.as_array();
        let fb = *f.as_array();
        let hg = h_generic(&mut a, &xs, &fb);
        let hf = h(&x0, f);
        assert_eq!(hg[0].to_bits(), hf[0].to_bits());
        assert_eq!(hg[1].to_bits(), hf[1].to_bits());
        let jg = jacobian_generic(&mut a, &xs, &fb);
        let jf = jacobian(&x0, f);
        for r in 0..MEAS_DIM {
            for c in 0..STATE_DIM {
                assert_eq!(jg[r][c].to_bits(), jf[(r, c)].to_bits(), "({r},{c})");
            }
        }
    }

    #[test]
    fn structured_model_is_bit_identical_to_dense_evaluations() {
        use crate::arith::F64Arith;
        let angles = [
            (2.0, -1.5, 3.0),
            (0.0, 0.0, 0.0),
            (-4.9, 4.9, 0.3),
            (0.0, 7.0, 0.0),
        ];
        for (roll, pitch, yaw) in angles {
            for estimate_bias in [true, false] {
                let x0 = state(roll, pitch, yaw, 0.013, -0.027);
                let f = Vec3::new([0.8, -0.4, STANDARD_GRAVITY]);
                let mut a = F64Arith::default();
                let xs = *x0.as_array();
                let fb = *f.as_array();
                let (hf, jf) = h_and_jacobian_generic(&mut a, &xs, &fb, estimate_bias);
                let hs = h_generic(&mut a, &xs, &fb);
                let mut js = jacobian_generic(&mut a, &xs, &fb);
                if !estimate_bias {
                    js[0][3] = 0.0;
                    js[1][4] = 0.0;
                }
                assert_eq!(hf[0].to_bits(), hs[0].to_bits());
                assert_eq!(hf[1].to_bits(), hs[1].to_bits());
                for r in 0..MEAS_DIM {
                    for c in 0..STATE_DIM {
                        assert_eq!(jf[r][c].to_bits(), js[r][c].to_bits(), "({r},{c})");
                    }
                }
            }
        }
    }

    #[test]
    fn structured_model_spends_one_trig_pass_per_angle() {
        use crate::arith::{Arith as _, F64Arith};
        let x0 = state(2.0, -1.5, 3.0, 0.0, 0.0);
        let f = Vec3::new([0.8, -0.4, STANDARD_GRAVITY]);
        let xs = *x0.as_array();
        let fb = *f.as_array();
        let mut fused = F64Arith::default();
        let _ = h_and_jacobian_generic(&mut fused, &xs, &fb, true);
        assert_eq!(fused.counts().trig, 3, "one sin_cos per distinct angle");
        let mut separate = F64Arith::default();
        let _ = h_generic(&mut separate, &xs, &fb);
        let _ = jacobian_generic(&mut separate, &xs, &fb);
        assert_eq!(separate.counts().trig, 9);
        assert!(fused.counts().total() < separate.counts().total());
    }

    #[test]
    fn small_angle_model_close_to_exact() {
        let x = state(0.5, -0.4, 0.8, 0.0, 0.0);
        let f = Vec3::new([1.0, -0.5, STANDARD_GRAVITY]);
        let exact = h(&x, f);
        let approx = h_small_angle(&x, f);
        assert!((exact - approx).max_abs() < 2e-3);
    }
}
