//! The misalignment Kalman filter: its configuration, its update
//! record and the scalar filter.
//!
//! An extended Kalman filter over the state `[phi, theta, psi, bx, by]`
//! (sensor misalignment Euler angles plus the two ACC bias states).
//! The misalignment is quasi-constant, so prediction is a random walk
//! with small process noise; each two-axis accelerometer sample is a
//! nonlinear measurement handled with the analytic Jacobian of
//! [`crate::model`]. The covariance update is kept exactly symmetric;
//! it uses the Kalman form `P - K (J P)` on floating-point substrates
//! and the Joseph form on fixed point (see [`Arith::FIXED_POINT`]),
//! keeping `P` positive definite over hour-long runs — the filter also
//! reports the innovation and its
//! 3-sigma bound, which is what the paper plots (Figure 8) and tunes
//! against.
//!
//! The algorithm is written once, for `L` lockstep lanes, in
//! [`crate::lanes::LaneIekf`]; [`GenericBoresightFilter<A>`] is that
//! filter at width 1 over any [`Arith`] number system, performing every
//! scalar operation through the substrate. The hot path is
//! *structure-exploiting*: one straight-line model + Jacobian
//! evaluation per linearization point over the Euler factors' known
//! zeros and ones, `J P` and `S` over the Jacobian's ([`jp_and_s`]),
//! the gate pass reused as IEKF iteration 0, further relinearizations
//! only while the last angle step can still move `h` by 1 % of the
//! measurement sigma (see [`FilterConfig::iekf_iterations`]) — within
//! an update and, on floating point, across samples, where a lane
//! keeps the angle-only half of its last model evaluation
//! ([`crate::model::factors`]) while its prior stays within that step
//! of it — an
//! exactly symmetric `P`
//! (so `P J^T` is a transposition of `J P`), a closed-form 2x2
//! innovation solve and a covariance update that reuses the final
//! pass's `J P` ([`kalman_structured`]) or, on fixed point, runs the
//! Joseph form over the Jacobian's zeros and ones
//! ([`joseph_structured`]) — every saved
//! multiply is a saved cycle in the Softfloat/fixed-point ledgers, and
//! the [`crate::arith::PhaseLedger`] attributes where the remaining ops
//! land (predict / gate / update). [`BoresightFilter`] is the
//! native-`f64` instantiation, pinned bit-for-bit against the
//! reference trace in `tests/arith_full_filter.rs`. The structured
//! measurement and Joseph kernels are bit-identical to the dense
//! formulation, which stays as the test-only oracle they are pinned
//! against; the closed-form solve is cross-checked against the dense
//! Gauss-Jordan kernel by proptest within ulp bounds.

use crate::arith::{Arith, F64Arith, LaneArith, LaneOps, PhaseLedger};
use crate::lanes::LaneIekf;
use crate::model::{Meas, State, StateCov, MEAS_DIM, STATE_DIM};
use mathx::{EulerAngles, Vec2, Vec3};

/// Filter configuration.
#[derive(Clone, Copy, Debug)]
pub struct FilterConfig {
    /// Initial 1-sigma uncertainty of each misalignment angle, rad.
    pub initial_angle_sigma: f64,
    /// Initial 1-sigma uncertainty of each ACC bias, m/s^2.
    pub initial_bias_sigma: f64,
    /// Angle random-walk process density, rad/sqrt(s).
    pub angle_process_density: f64,
    /// Bias random-walk process density, (m/s^2)/sqrt(s).
    pub bias_process_density: f64,
    /// Measurement noise 1-sigma per axis, m/s^2 (the paper's tuned
    /// 0.003-0.01 static / >= 0.015 moving value).
    pub measurement_sigma: f64,
    /// Estimate the bias states. When `false` they are pinned at zero.
    pub estimate_bias: bool,
    /// Innovation gate in sigmas (a sample whose normalized innovation
    /// exceeds this on either axis is rejected). `0` disables gating.
    pub gate_sigmas: f64,
    /// Physical trust region for the misalignment angles, rad. Mounting
    /// errors are mechanically small; bounding the state prevents the
    /// EKF from being captured by the degenerate large-angle solutions
    /// (e.g. pitch ~ -90 deg with a gravity-sized bias) that weakly
    /// excited starts can otherwise wander into. When an angle is
    /// clamped its variance is re-opened so the filter can recover.
    /// `0` disables the constraint.
    pub angle_limit: f64,
    /// Physical trust region for the ACC biases, m/s^2 (`0` disables).
    pub bias_limit: f64,
    /// Cap on the iterated-EKF passes per measurement update (1 =
    /// classic EKF). Iteration keeps the update consistent when the
    /// state is still degrees away from the truth, which is what stops
    /// weakly excited starts from banking linearization error as
    /// information. A pass only runs while the previous one can still
    /// move the estimate: `h` is linear in the biases and second order
    /// in the angles, so after an angle step `d` relinearizing changes
    /// `h` by about `g d^2 / 2`. A filter stops once its largest angle
    /// step is under `sqrt(0.02 sigma / g)`, where that change is 1 % of
    /// its current measurement sigma (so a retune moves the threshold
    /// too). A converged filter takes one pass, a filter degrees off
    /// usually two.
    pub iekf_iterations: usize,
}

impl FilterConfig {
    /// Defaults matching the paper's static tuning.
    pub fn paper_static() -> Self {
        Self {
            initial_angle_sigma: mathx::deg_to_rad(5.0),
            initial_bias_sigma: 0.05,
            angle_process_density: 2e-6,
            bias_process_density: 2e-6,
            measurement_sigma: 0.007,
            estimate_bias: true,
            gate_sigmas: 6.0,
            angle_limit: mathx::deg_to_rad(15.0),
            bias_limit: 0.3,
            iekf_iterations: 3,
        }
    }

    /// Defaults matching the paper's dynamic tuning (raised R).
    pub fn paper_dynamic() -> Self {
        Self {
            measurement_sigma: 0.015,
            ..Self::paper_static()
        }
    }
}

impl Default for FilterConfig {
    fn default() -> Self {
        Self::paper_static()
    }
}

/// Record of one measurement update (the residual trace of Figure 8).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KalmanUpdate {
    /// Update time, seconds.
    pub time_s: f64,
    /// Innovation (measurement minus prediction), m/s^2. The prediction
    /// is the model at the lane's linearization point `x_lin`
    /// extrapolated to the prior to first order,
    /// `h(x_lin) + J(x_lin) (x_pred - x_lin)`: on floating point a lane
    /// reuses its last linearization while the prior stays within the
    /// IEKF step tolerance of it, which keeps this within about 1 % of
    /// sigma of `z - h(x_pred)`; otherwise (and always on fixed point)
    /// `x_lin` is the prior and this is exactly `z - h(x_pred)`.
    pub innovation: Vec2,
    /// 1-sigma of the innovation from `S = H P H^T + R`, m/s^2.
    pub innovation_sigma: Vec2,
    /// `false` if the gate rejected this sample.
    pub accepted: bool,
}

impl KalmanUpdate {
    /// `true` if either axis exceeded its 3-sigma bound.
    pub fn exceeds_three_sigma(&self) -> bool {
        self.innovation[0].abs() > 3.0 * self.innovation_sigma[0]
            || self.innovation[1].abs() > 3.0 * self.innovation_sigma[1]
    }
}

/// The extended Kalman filter over an arbitrary [`Arith`] substrate:
/// the lane filter [`LaneIekf`] at width 1 over `LaneArith<A, 1>`.
///
/// Every method reads or drives lane 0; the IEKF itself (predict, gate,
/// iterations, covariance update, trust region, phase attribution and
/// state transfer) lives in [`crate::lanes`] only.
///
/// # Examples
///
/// ```
/// use boresight::arith::QArith;
/// use boresight::filter::{FilterConfig, GenericBoresightFilter};
/// use mathx::{Vec2, Vec3, STANDARD_GRAVITY};
///
/// // The identical 5-state IEKF, in Q16.16 fixed point.
/// let mut kf: GenericBoresightFilter<QArith<16>> =
///     GenericBoresightFilter::new(FilterConfig::default());
/// kf.predict(0.01);
/// let f_b = Vec3::new([0.0, 0.0, STANDARD_GRAVITY]);
/// let update = kf.update(Vec2::new([0.001, -0.002]), f_b, 0.01);
/// assert!(update.accepted);
/// ```
#[derive(Clone, Debug)]
pub struct GenericBoresightFilter<A: Arith> {
    lane: LaneIekf<A, 1, LaneArith<A, 1>>,
}

/// The native-`f64` filter — the reference instantiation every
/// pre-refactor call site keeps using unchanged.
///
/// # Examples
///
/// ```
/// use boresight::filter::{BoresightFilter, FilterConfig};
/// use mathx::{Vec2, Vec3, STANDARD_GRAVITY};
///
/// let mut kf = BoresightFilter::new(FilterConfig::default());
/// kf.predict(0.01);
/// // A level platform: ACC sees ~zero if aligned.
/// let f_b = Vec3::new([0.0, 0.0, STANDARD_GRAVITY]);
/// let update = kf.update(Vec2::new([0.001, -0.002]), f_b, 0.01);
/// assert!(update.accepted);
/// ```
pub type BoresightFilter = GenericBoresightFilter<F64Arith>;

impl<A: Arith> GenericBoresightFilter<A> {
    /// Creates a filter from its configuration over the substrate's
    /// default context.
    pub fn new(config: FilterConfig) -> Self
    where
        A: Default,
    {
        Self::with_arith(A::default(), config)
    }

    /// Creates a filter over an explicit arithmetic context (e.g. a
    /// [`crate::arith::SoftArith`] whose FPU ledger the caller wants to
    /// keep reading).
    pub fn with_arith(arith: A, config: FilterConfig) -> Self {
        Self {
            lane: LaneIekf::with_arith(arith, config),
        }
    }

    /// The arithmetic context (inspect for op counts / cycle ledgers).
    pub fn arith(&self) -> &A {
        self.lane.arith().inner()
    }

    /// The arithmetic context, mutably (the generic estimator runs its
    /// sensor-prep math through the same context so one ledger covers
    /// the whole algorithm).
    pub fn arith_mut(&mut self) -> &mut A {
        self.lane.arith_mut().inner_mut()
    }

    /// Current measurement noise 1-sigma.
    pub fn measurement_sigma(&self) -> f64 {
        self.lane.measurement_sigma(0)
    }

    /// Retunes the measurement noise (the adaptive monitor calls this).
    pub fn set_measurement_sigma(&mut self, sigma: f64) {
        self.lane.set_measurement_sigma(0, sigma);
    }

    /// Estimated misalignment angles.
    pub fn angles(&self) -> EulerAngles {
        self.lane.angles(0)
    }

    /// Estimated ACC biases, m/s^2.
    pub fn bias(&self) -> Vec2 {
        self.lane.bias(0)
    }

    /// Full state vector, converted to `f64`.
    pub fn state(&self) -> State {
        self.lane.state(0)
    }

    /// State covariance, converted to `f64`.
    pub fn covariance(&self) -> StateCov {
        self.lane.covariance(0)
    }

    /// 1-sigma of each misalignment angle, rad (a read-out over a
    /// cloned context, not part of the algorithm's op ledger).
    pub fn angle_sigma(&self) -> Vec3
    where
        A: Clone,
    {
        self.lane.angle_sigma(0)
    }

    /// Accepted updates so far.
    pub fn update_count(&self) -> u64 {
        self.lane.update_count(0)
    }

    /// Rejected updates so far (gate rejections and singular
    /// innovations).
    pub fn rejected_count(&self) -> u64 {
        self.lane.rejected_count(0)
    }

    /// Time propagation over `dt` seconds (`P += Q dt`).
    pub fn predict(&mut self, dt: f64) {
        self.lane.predict(dt);
    }

    /// Where the substrate's ops and cycles were spent, by algorithm
    /// phase (see [`LaneIekf::phase_ledger`]).
    pub fn phase_ledger(&self) -> &PhaseLedger {
        self.lane.phase_ledger()
    }

    /// Measurement update with the ACC sample `z` (m/s^2, x'/y') given
    /// the concurrent IMU specific force `f_b`. Returns the update
    /// record for residual monitoring.
    pub fn update(&mut self, z: Meas, f_b: Vec3, time_s: f64) -> KalmanUpdate {
        let [update] = self.lane.update_lanes(&[z], &[f_b], time_s);
        update
    }

    /// [`Self::update`] with the specific force already in the
    /// substrate (the generic estimator's lever-arm and slope math
    /// produces it there).
    pub fn update_t(&mut self, z: Meas, f_b: [A::T; 3], time_s: f64) -> KalmanUpdate {
        let [update] = self
            .lane
            .update_lanes_t(&[z], f_b.map(|v| [v]), &[time_s], &[false]);
        update
    }

    /// Checks that the covariance is still symmetric positive definite
    /// (diagnostics; `true` means healthy).
    pub fn covariance_healthy(&self) -> bool
    where
        A: Clone,
    {
        self.lane.covariance_healthy(0)
    }

    /// Exports the filter's algorithmic state through `f64` — the
    /// substrate-agnostic half of the adaptive supervisor's state
    /// transfer ([`crate::adaptive`]).
    pub fn export_snapshot(&self) -> crate::adaptive::FilterSnapshot {
        self.lane.export_snapshot(0)
    }

    /// Imports a snapshot into this filter's substrate, replacing its
    /// state (see [`LaneIekf::import_snapshot`]).
    pub fn import_snapshot(&mut self, snapshot: &crate::adaptive::FilterSnapshot) {
        self.lane.import_snapshot(0, snapshot);
    }
}

/// `J P` and the innovation covariance `S = J P J^T + r I` for a
/// Jacobian `jac` of [`crate::model::h_and_jacobian_generic`]'s structure:
/// `jac[0][0]` is a literal zero and the bias columns are the 0/1
/// selector `estimate_bias` picks.
///
/// Specializes the dense `smallmat::mul(jac, p)` +
/// `smallmat::innovation_cov` pair to that structure under the model
/// kernel's exactness rules (dense order, literal-zero terms dropped,
/// literal-one terms added, first term a `mul`), so the result is
/// **bit-identical** to the pair on every substrate (on IEEE substrates
/// up to the sign of an exactly-zero entry, as for the model kernel):
/// 33 multiplies and fused multiply-adds instead of 65. `S` is
/// computed on and above the diagonal and mirrored. The IEKF calls it
/// at the gate and at every relinearization.
#[allow(clippy::type_complexity)]
pub fn jp_and_s<A: Arith>(
    a: &mut A,
    jac: &[[A::T; STATE_DIM]; MEAS_DIM],
    p: &[[A::T; STATE_DIM]; STATE_DIM],
    r: A::T,
    estimate_bias: bool,
) -> ([[A::T; STATE_DIM]; MEAS_DIM], [[A::T; MEAS_DIM]; MEAS_DIM]) {
    let [j0, j1] = jac;
    let jp0: [A::T; STATE_DIM] = std::array::from_fn(|k| {
        let t = a.mul(j0[1], p[1][k]);
        let t = a.fma(j0[2], p[2][k], t);
        if estimate_bias {
            a.add(t, p[3][k])
        } else {
            t
        }
    });
    let jp1: [A::T; STATE_DIM] = std::array::from_fn(|k| {
        let t = a.mul(j1[0], p[0][k]);
        let t = a.fma(j1[1], p[1][k], t);
        let t = a.fma(j1[2], p[2][k], t);
        if estimate_bias {
            a.add(t, p[4][k])
        } else {
            t
        }
    });
    let t = a.mul(jp0[1], j0[1]);
    let t = a.fma(jp0[2], j0[2], t);
    let t = if estimate_bias { a.add(t, jp0[3]) } else { t };
    let s00 = a.add(t, r);
    let t = a.mul(jp0[0], j1[0]);
    let t = a.fma(jp0[1], j1[1], t);
    let t = a.fma(jp0[2], j1[2], t);
    let s01 = if estimate_bias { a.add(t, jp0[4]) } else { t };
    let t = a.mul(jp1[0], j1[0]);
    let t = a.fma(jp1[1], j1[1], t);
    let t = a.fma(jp1[2], j1[2], t);
    let t = if estimate_bias { a.add(t, jp1[4]) } else { t };
    let s11 = a.add(t, r);
    ([jp0, jp1], [[s00, s01], [s01, s11]])
}

/// The Kalman-form covariance update `P' = P - K (J P)`, reusing the
/// `J P` rows [`jp_and_s`] already computed for `S`: on and above the
/// diagonal `P'[i][j] = P[i][j] - (K[i][0] JP[0][j] + K[i][1] JP[1][j])`,
/// mirrored below it (so `P'` is exactly symmetric, which the IEKF's
/// `P J^T` transposition relies on). One `mul`, one `fma` and one `sub`
/// per unique entry: 15 of each, against the 270 multiplies and fused
/// multiply-adds of [`joseph_structured`].
///
/// The IEKF runs it on floating-point substrates, which round each
/// result relative to its own magnitude, so a small variance keeps its
/// significant digits. Fixed point rounds to an absolute quantum, so
/// the subtraction can cancel a small variance to zero or below;
/// [`Arith::FIXED_POINT`] substrates keep the Joseph form.
pub fn kalman_structured<A: Arith>(
    a: &mut A,
    p: &[[A::T; STATE_DIM]; STATE_DIM],
    k: &[[A::T; MEAS_DIM]; STATE_DIM],
    jp: &[[A::T; STATE_DIM]; MEAS_DIM],
) -> [[A::T; STATE_DIM]; STATE_DIM] {
    let mut out = *p;
    for row in 0..STATE_DIM {
        for col in row..STATE_DIM {
            let t = a.mul(k[row][0], jp[0][col]);
            let kjp = a.fma(k[row][1], jp[1][col], t);
            let v = a.sub(p[row][col], kjp);
            out[row][col] = v;
            out[col][row] = v;
        }
    }
    out
}

/// The Joseph-form covariance update
/// `P' = (I - K J) P (I - K J)^T + K (r I) K^T` for a Jacobian `jac` of
/// the structure [`jp_and_s`] takes, upper triangle computed and
/// mirrored (so `P'` is exactly symmetric, which the IEKF's `P J^T`
/// transposition relies on).
///
/// Specializes the test-only `smallmat::joseph_update_sym` to that
/// structure under the same exactness rules as [`jp_and_s`]: `K J`
/// drops `jac`'s literal zeros and copies `K`'s columns for the bias
/// selector's ones, `I - K J` is `1 - kj` on the diagonal and
/// `neg(kj)` off it, and every dot product in `(I - K J) P`,
/// `(.) (I - K J)^T` and `K K^T` starts with a `mul`. Without bias
/// states the bias columns of `K J` are literal zeros, so `I - K J`
/// keeps the identity's columns there: their zero terms drop and their
/// one is an `add`. The result is **bit-identical** to the dense kernel
/// on every substrate, saturations included (on IEEE substrates up to
/// the sign of an exactly-zero entry): 270 multiplies and fused
/// multiply-adds instead of 295 with bias states, 190 without.
///
/// The IEKF runs it on [`Arith::FIXED_POINT`] substrates only: the
/// Joseph form adds a `K (r I) K^T` term and a congruence, so an
/// absolute rounding quantum cannot drive a variance to zero or below.
/// Floating-point substrates take the cheaper [`kalman_structured`].
pub fn joseph_structured<A: Arith>(
    a: &mut A,
    p: &[[A::T; STATE_DIM]; STATE_DIM],
    k: &[[A::T; MEAS_DIM]; STATE_DIM],
    jac: &[[A::T; STATE_DIM]; MEAS_DIM],
    r: A::T,
    estimate_bias: bool,
) -> [[A::T; STATE_DIM]; STATE_DIM] {
    if estimate_bias {
        joseph_over::<A, STATE_DIM>(a, p, k, jac, r)
    } else {
        joseph_over::<A, 3>(a, p, k, jac, r)
    }
}

/// [`joseph_structured`] with `V` value columns in `I - K J`: past them
/// it is the identity (the bias columns without bias states). `V` is a
/// constant so the loops unroll like the dense kernel's; with a
/// run-time bound the native `f64` kernel ran ~3x slower.
#[inline]
fn joseph_over<A: Arith, const V: usize>(
    a: &mut A,
    p: &[[A::T; STATE_DIM]; STATE_DIM],
    k: &[[A::T; MEAS_DIM]; STATE_DIM],
    jac: &[[A::T; STATE_DIM]; MEAS_DIM],
    r: A::T,
) -> [[A::T; STATE_DIM]; STATE_DIM] {
    let [j0, j1] = jac;
    let one = a.num(1.0);
    let zero = a.num(0.0);
    let mut ikj = [[zero; V]; STATE_DIM];
    for (row, &[k0, k1]) in k.iter().enumerate() {
        for col in 0..V {
            let kj = match col {
                0 => a.mul(k1, j1[0]),
                3 => k0,
                4 => k1,
                _ => {
                    let t = a.mul(k0, j0[col]);
                    a.fma(k1, j1[col], t)
                }
            };
            ikj[row][col] = if row == col {
                a.sub(one, kj)
            } else {
                a.neg(kj)
            };
        }
    }
    let mut ip = [[zero; STATE_DIM]; STATE_DIM];
    for row in 0..STATE_DIM {
        for col in 0..STATE_DIM {
            let mut acc = a.mul(ikj[row][0], p[0][col]);
            for c in 1..V {
                acc = a.fma(ikj[row][c], p[c][col], acc);
            }
            if row >= V {
                acc = a.add(acc, p[row][col]);
            }
            ip[row][col] = acc;
        }
    }
    let mut out = [[zero; STATE_DIM]; STATE_DIM];
    for row in 0..STATE_DIM {
        for col in row..STATE_DIM {
            let mut acc = a.mul(ip[row][0], ikj[col][0]);
            for c in 1..V {
                acc = a.fma(ip[row][c], ikj[col][c], acc);
            }
            if col >= V {
                acc = a.add(acc, ip[row][col]);
            }
            let kk = a.mul(k[row][0], k[col][0]);
            let kk = a.fma(k[row][1], k[col][1], kk);
            let krk = a.mul(kk, r);
            let v = a.add(acc, krk);
            out[row][col] = v;
            out[col][row] = v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::{F64ArithFast, OpCounts, QArith, SoftArith};
    use mathx::rng::seeded_rng;
    use mathx::{deg_to_rad, rad_to_deg, GaussianSampler, STANDARD_GRAVITY};

    /// Simulates `n` measurements of a true misalignment under the
    /// given specific-force schedule and returns the filter.
    fn run_filter(
        truth: EulerAngles,
        bias: Vec2,
        forces: impl Iterator<Item = Vec3>,
        sigma: f64,
        cfg: FilterConfig,
        seed: u64,
    ) -> BoresightFilter {
        run_filter_over(F64Arith::default(), truth, bias, forces, sigma, cfg, seed)
    }

    /// The same simulation over any substrate.
    fn run_filter_over<A: Arith>(
        arith: A,
        truth: EulerAngles,
        bias: Vec2,
        forces: impl Iterator<Item = Vec3>,
        sigma: f64,
        cfg: FilterConfig,
        seed: u64,
    ) -> GenericBoresightFilter<A> {
        let mut kf = GenericBoresightFilter::with_arith(arith, cfg);
        let mut rng = seeded_rng(seed);
        let mut gauss = GaussianSampler::new();
        let c_sb = truth.dcm().transpose();
        let mut t = 0.0;
        for f_b in forces {
            let f_s = c_sb.rotate(f_b);
            let z = Vec2::new([
                f_s[0] + bias[0] + gauss.sample_scaled(&mut rng, 0.0, sigma),
                f_s[1] + bias[1] + gauss.sample_scaled(&mut rng, 0.0, sigma),
            ]);
            kf.predict(0.005);
            kf.update(z, f_b, t);
            t += 0.005;
        }
        kf
    }

    /// A force schedule that excites all axes: gravity with varying
    /// tilts plus horizontal accelerations.
    fn rich_forces(n: usize) -> impl Iterator<Item = Vec3> {
        (0..n).map(|i| {
            let t = i as f64 * 0.005;
            let g = STANDARD_GRAVITY;
            let ax = 2.0 * (0.5 * t).sin();
            let ay = 1.5 * (0.33 * t).cos();
            let tilt = 0.2 * (0.1 * t).sin();
            Vec3::new([ax + g * tilt, ay, g * (1.0 - tilt * tilt / 2.0)])
        })
    }

    #[test]
    fn converges_to_truth_with_excitation() {
        let truth = EulerAngles::from_degrees(2.0, -1.5, 3.0);
        let cfg = FilterConfig::paper_static();
        let kf = run_filter(truth, Vec2::zeros(), rich_forces(20_000), 0.007, cfg, 1);
        let est = kf.angles();
        let err = est.error_to(&truth);
        assert!(
            rad_to_deg(err.max_abs()) < 0.05,
            "error {:?} deg",
            err.to_degrees()
        );
        assert!(kf.covariance_healthy());
    }

    #[test]
    fn softfloat_full_filter_matches_native_bitwise() {
        // The identical 5-state IEKF over emulated IEEE arithmetic must
        // agree with the native path bit for bit — the paper's Sabre
        // configuration loses no accuracy, only cycles.
        let truth = EulerAngles::from_degrees(2.0, -1.5, 3.0);
        let cfg = FilterConfig::paper_static();
        let native = run_filter(truth, Vec2::zeros(), rich_forces(2_000), 0.007, cfg, 1);
        let soft = run_filter_over(
            SoftArith::default(),
            truth,
            Vec2::zeros(),
            rich_forces(2_000),
            0.007,
            cfg,
            1,
        );
        let a = native.angles();
        let b = soft.angles();
        assert_eq!(a.roll.to_bits(), b.roll.to_bits());
        assert_eq!(a.pitch.to_bits(), b.pitch.to_bits());
        assert_eq!(a.yaw.to_bits(), b.yaw.to_bits());
        assert!(soft.arith().cycles() > 0, "cycles must accumulate");
        assert!(soft.arith().counts().trig > 0, "trig must be counted");
        // The shared per-substrate ledger agrees with the FPU's.
        let stats = soft.arith().fpu.stats();
        let counts = soft.arith().counts();
        assert!(counts.div > 0);
        assert_eq!(counts.mul, stats.mul_f64);
        assert_eq!(counts.add + counts.sub, stats.add_f64);
        assert_eq!(counts.div, stats.div_f64);
        assert_eq!(soft.arith().cycles(), stats.cycles);
    }

    #[test]
    fn uncounted_f64_is_bit_identical_and_ledger_free() {
        // The fast instantiation must compute exactly what the counted
        // reference computes (same machine ops, no ledger writes)...
        let truth = EulerAngles::from_degrees(2.0, -1.5, 3.0);
        let cfg = FilterConfig::paper_static();
        let counted = run_filter(truth, Vec2::zeros(), rich_forces(3_000), 0.007, cfg, 6);
        let fast = run_filter_over(
            F64ArithFast::default(),
            truth,
            Vec2::zeros(),
            rich_forces(3_000),
            0.007,
            cfg,
            6,
        );
        let a = counted.angles();
        let b = fast.angles();
        assert_eq!(a.roll.to_bits(), b.roll.to_bits());
        assert_eq!(a.pitch.to_bits(), b.pitch.to_bits());
        assert_eq!(a.yaw.to_bits(), b.yaw.to_bits());
        // ...while its ledger stays empty and the reference's fills.
        assert!(counted.arith().counts().total() > 0);
        assert_eq!(fast.arith().counts(), OpCounts::default());
        assert_eq!(fast.arith().cycles(), 0);
        assert_eq!(counted.arith().name(), "f64");
        assert_eq!(fast.arith().name(), "f64/uncounted");
        assert_eq!(fast.arith().iekf_label(), counted.arith().iekf_label());
    }

    #[test]
    fn fixed_point_full_filter_stays_bounded_and_counts_saturations() {
        // Q16.16 over the full IEKF is the paper's "obvious
        // enhancement" taken literally: the covariance floor sits at
        // the quantization step, so accuracy degrades — but the state
        // must stay inside the trust region and every overflow must be
        // counted, never wrapped.
        let truth = EulerAngles::from_degrees(2.0, -1.5, 3.0);
        let cfg = FilterConfig::paper_static();
        let kf = run_filter_over(
            QArith::<16>::default(),
            truth,
            Vec2::zeros(),
            rich_forces(5_000),
            0.007,
            cfg,
            1,
        );
        let angles = kf.angles();
        assert!(
            angles.max_abs() <= cfg.angle_limit + 1e-3,
            "trust region must bound the fixed-point state: {:?}",
            angles.to_degrees()
        );
        assert!(kf.arith().counts().total() > 0);
        assert!(kf.arith().cycles() > 0);
    }

    #[test]
    fn estimates_bias_jointly() {
        let truth = EulerAngles::from_degrees(1.0, 2.0, -2.0);
        let bias = Vec2::new([0.03, -0.02]);
        let cfg = FilterConfig::paper_static();
        let kf = run_filter(truth, bias, rich_forces(40_000), 0.007, cfg, 2);
        let est_bias = kf.bias();
        assert!(
            (est_bias - bias).max_abs() < 0.01,
            "bias {est_bias:?} vs {bias:?}"
        );
        let err = kf.angles().error_to(&truth);
        assert!(rad_to_deg(err.max_abs()) < 0.1, "{:?}", err.to_degrees());
    }

    #[test]
    fn static_level_estimates_pitch_roll_only() {
        // Pure gravity along z: yaw is unobservable; its variance must
        // stay near the prior while pitch/roll collapse.
        let truth = EulerAngles::from_degrees(1.0, -1.0, 2.0);
        let mut cfg = FilterConfig::paper_static();
        cfg.estimate_bias = false; // bias/angle inseparable when static level
        let forces = (0..10_000).map(|_| Vec3::new([0.0, 0.0, STANDARD_GRAVITY]));
        let kf = run_filter(truth, Vec2::zeros(), forces, 0.005, cfg, 3);
        let sigma = kf.angle_sigma();
        assert!(
            sigma[0] < 0.2 * cfg.initial_angle_sigma,
            "roll {}",
            sigma[0]
        );
        assert!(
            sigma[1] < 0.2 * cfg.initial_angle_sigma,
            "pitch {}",
            sigma[1]
        );
        assert!(
            sigma[2] > 0.9 * cfg.initial_angle_sigma,
            "yaw should stay uncertain: {}",
            sigma[2]
        );
        // Pitch/roll estimates are right even though yaw is not.
        assert!((kf.angles().roll - truth.roll).abs() < deg_to_rad(0.05));
        assert!((kf.angles().pitch - truth.pitch).abs() < deg_to_rad(0.05));
    }

    #[test]
    fn covariance_decreases_monotonically_in_information() {
        let mut kf = BoresightFilter::new(FilterConfig::paper_static());
        let f = Vec3::new([1.0, 2.0, STANDARD_GRAVITY]);
        let mut last_trace = kf.covariance().trace();
        for i in 0..100 {
            kf.predict(0.005);
            kf.update(Vec2::new([0.0, 0.0]), f, i as f64 * 0.005);
            let tr = kf.covariance().trace();
            assert!(tr <= last_trace + 1e-9, "trace grew at {i}");
            last_trace = tr;
        }
    }

    #[test]
    fn three_sigma_consistency() {
        // With a correctly tuned filter, ~1% of residuals exceed 3 sigma
        // (the paper's rule: "about once every 100 samples").
        let truth = EulerAngles::from_degrees(1.0, 1.0, 1.0);
        let mut kf = BoresightFilter::new(FilterConfig::paper_static());
        let mut rng = seeded_rng(4);
        let mut gauss = GaussianSampler::new();
        let sigma = 0.007;
        let c_sb = truth.dcm().transpose();
        let mut exceed = 0;
        let n = 20_000;
        let forces: Vec<Vec3> = rich_forces(n).collect();
        for (i, &f_b) in forces.iter().enumerate() {
            let f_s = c_sb.rotate(f_b);
            let z = Vec2::new([
                f_s[0] + gauss.sample_scaled(&mut rng, 0.0, sigma),
                f_s[1] + gauss.sample_scaled(&mut rng, 0.0, sigma),
            ]);
            kf.predict(0.005);
            let upd = kf.update(z, f_b, i as f64 * 0.005);
            if i > n / 2 && upd.exceeds_three_sigma() {
                exceed += 1;
            }
        }
        let rate = exceed as f64 / (n / 2) as f64;
        assert!(rate < 0.02, "3-sigma exceed rate {rate}");
    }

    #[test]
    fn gate_rejects_outliers() {
        let mut cfg = FilterConfig::paper_static();
        cfg.gate_sigmas = 4.0;
        let mut kf = BoresightFilter::new(cfg);
        let f = Vec3::new([0.0, 0.0, STANDARD_GRAVITY]);
        for i in 0..200 {
            kf.predict(0.005);
            kf.update(Vec2::new([0.0, 0.0]), f, i as f64 * 0.005);
        }
        let angles_before = kf.angles();
        let upd = kf.update(Vec2::new([5.0, -5.0]), f, 1.0); // wild outlier
        assert!(!upd.accepted);
        assert_eq!(kf.angles(), angles_before);
        assert_eq!(kf.rejected_count(), 1);
    }

    #[test]
    fn covariance_stays_healthy_long_run() {
        let truth = EulerAngles::from_degrees(4.0, 4.0, 4.0);
        let kf = run_filter(
            truth,
            Vec2::new([0.02, 0.02]),
            rich_forces(60_000), // 5 minutes at 200 Hz
            0.015,
            FilterConfig::paper_dynamic(),
            5,
        );
        assert!(kf.covariance_healthy());
        assert_eq!(kf.update_count(), 60_000);
    }

    #[test]
    fn retuning_measurement_noise_widens_sigma() {
        // Compare two identical filters that differ only in R: once the
        // covariance has settled, the higher-R filter reports wider
        // innovation sigma.
        let f = Vec3::new([0.0, 0.0, STANDARD_GRAVITY]);
        let run_with = |sigma: f64| {
            let mut cfg = FilterConfig::paper_static();
            cfg.measurement_sigma = sigma;
            let mut kf = BoresightFilter::new(cfg);
            let mut last = Vec2::zeros();
            for i in 0..200 {
                kf.predict(0.005);
                last = kf
                    .update(Vec2::zeros(), f, i as f64 * 0.005)
                    .innovation_sigma;
            }
            last
        };
        let tight = run_with(0.005);
        let loose = run_with(0.05);
        assert!(loose[0] > tight[0]);
        assert!(loose[1] > tight[1]);
    }

    #[test]
    fn covariance_stays_exactly_symmetric_bitwise() {
        // The structure-exploiting update reads P J^T off J P by
        // transposition, which is only bit-safe if P is *exactly*
        // symmetric — not just numerically close.
        let truth = EulerAngles::from_degrees(2.0, -1.5, 3.0);
        let kf = run_filter(
            truth,
            Vec2::new([0.02, -0.01]),
            rich_forces(3_000),
            0.007,
            FilterConfig::paper_static(),
            8,
        );
        let p = kf.covariance();
        for r in 0..5 {
            for c in 0..5 {
                assert_eq!(
                    p[(r, c)].to_bits(),
                    p[(c, r)].to_bits(),
                    "P[{r}][{c}] not bitwise symmetric"
                );
            }
        }
    }

    #[test]
    fn phase_ledger_attributes_the_whole_filter() {
        let truth = EulerAngles::from_degrees(2.0, -1.5, 3.0);
        let kf = run_filter_over(
            SoftArith::default(),
            truth,
            Vec2::zeros(),
            rich_forces(500),
            0.007,
            FilterConfig::paper_static(),
            9,
        );
        let phases = kf.phase_ledger();
        assert!(phases.predict.ops.total() > 0, "predict charged");
        assert!(phases.gate.ops.total() > 0, "gate charged");
        assert!(phases.update.ops.total() > 0, "update charged");
        // On a floating-point substrate a converged filter reuses its
        // cached linearization across samples, so the gate evaluates no
        // `sin_cos` (only the specific-force half of the model and the
        // extrapolation to the prior), while the update still solves,
        // steps and updates the covariance (45 ops): the update
        // outweighs the gate. (It was the other way round while the
        // gate paid three `sin_cos` per sample.)
        assert!(phases.update.cycles > phases.gate.cycles);
        // Every filter op lands in exactly one phase: the ledger total
        // is the sum of the three (this test drives the filter
        // directly, so there is no front-end remainder).
        let counts = kf.arith().counts();
        assert_eq!(counts.total(), phases.tracked_ops());
        assert_eq!(kf.arith().cycles(), phases.tracked_cycles());
        // Gate-rejected samples charge the gate but not the update.
        let mut gated = BoresightFilter::new(FilterConfig::paper_static());
        let f = Vec3::new([0.0, 0.0, STANDARD_GRAVITY]);
        for i in 0..50 {
            gated.predict(0.005);
            gated.update(Vec2::zeros(), f, i as f64 * 0.005);
        }
        let update_before = gated.phase_ledger().update;
        let gate_before = gated.phase_ledger().gate.ops.total();
        let upd = gated.update(Vec2::new([9.0, -9.0]), f, 1.0);
        assert!(!upd.accepted);
        assert_eq!(gated.phase_ledger().update, update_before);
        assert!(gated.phase_ledger().gate.ops.total() > gate_before);
    }

    #[test]
    fn disabled_bias_states_stay_zero() {
        let mut cfg = FilterConfig::paper_static();
        cfg.estimate_bias = false;
        let truth = EulerAngles::from_degrees(2.0, 1.0, -1.0);
        let kf = run_filter(truth, Vec2::zeros(), rich_forces(5000), 0.007, cfg, 6);
        assert_eq!(kf.bias(), Vec2::zeros());
    }
}
