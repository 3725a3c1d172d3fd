//! The misalignment Kalman filter, generic over the arithmetic
//! substrate.
//!
//! An extended Kalman filter over the state `[phi, theta, psi, bx, by]`
//! (sensor misalignment Euler angles plus the two ACC bias states).
//! The misalignment is quasi-constant, so prediction is a random walk
//! with small process noise; each two-axis accelerometer sample is a
//! nonlinear measurement handled with the analytic Jacobian of
//! [`crate::model`]. The covariance update uses the Joseph form and is
//! re-symmetrized each step, keeping `P` positive definite over
//! hour-long runs — the filter also reports the innovation and its
//! 3-sigma bound, which is what the paper plots (Figure 8) and tunes
//! against.
//!
//! Since the generic-arithmetic refactor the whole algorithm runs over
//! any [`Arith`] number system: [`GenericBoresightFilter<A>`] performs
//! every scalar operation through the substrate, with the linear
//! algebra shared with the 3-state ablation filter via
//! [`crate::smallmat`]. The hot path is *structure-exploiting*: one
//! straight-line model + Jacobian evaluation per linearization point
//! over the Euler factors' known zeros and ones, `J P` and `S` over
//! the Jacobian's ([`jp_and_s`]), the gate pass reused as IEKF
//! iteration 0, an exactly symmetric `P` (so `P J^T` is a
//! transposition of `J P`), a closed-form 2x2 innovation solve and a
//! rank-2 packed Joseph update — every saved multiply is a saved cycle
//! in the Softfloat/fixed-point ledgers, and the
//! [`crate::arith::PhaseLedger`] attributes where the remaining ops
//! land (predict / gate / update). [`BoresightFilter`] is the
//! native-`f64` instantiation, pinned bit-for-bit against the
//! reference trace in `tests/arith_full_filter.rs`. The structured
//! measurement kernels are bit-identical to the dense formulation,
//! which stays as the test-only oracle they are pinned against; the
//! Joseph and solve kernels are cross-checked against the dense
//! kernels by proptest within ulp bounds.

use crate::arith::{Arith, F64Arith, OpCounts, PhaseLedger};
use crate::model::{self, Meas, State, StateCov, MEAS_DIM, STATE_DIM};
use crate::smallmat;
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
    /// Iterated-EKF relinearization passes per measurement update
    /// (1 = classic EKF). Iteration keeps the update consistent when
    /// the state is still degrees away from the truth, which is what
    /// stops weakly excited starts from banking linearization error
    /// as information.
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
    /// Innovation (measurement minus prediction), m/s^2.
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

/// The extended Kalman filter over an arbitrary [`Arith`] substrate.
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
    config: FilterConfig,
    arith: A,
    x: [A::T; STATE_DIM],
    /// Kept **exactly symmetric** (bitwise): the update writes only
    /// unique entries and mirrors them, prediction and the trust
    /// region touch the diagonal only. The structure-exploiting update
    /// kernels rely on this invariant (e.g. `P J^T` is read off `J P`
    /// by transposition instead of a second 50-FMA product).
    p: [[A::T; STATE_DIM]; STATE_DIM],
    updates: u64,
    rejected: u64,
    phases: PhaseLedger,
}

/// `(counts, cycles)` snapshot for phase attribution.
fn ledger_snapshot<A: Arith>(a: &A) -> (OpCounts, u64) {
    (a.counts(), a.cycles())
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
    pub fn with_arith(mut arith: A, config: FilterConfig) -> Self {
        let zero = arith.num(0.0);
        let a2 = config.initial_angle_sigma * config.initial_angle_sigma;
        let b2 = if config.estimate_bias {
            config.initial_bias_sigma * config.initial_bias_sigma
        } else {
            0.0
        };
        let mut p = [[zero; STATE_DIM]; STATE_DIM];
        for (i, row) in p.iter_mut().enumerate() {
            row[i] = if i < 3 { arith.num(a2) } else { arith.num(b2) };
        }
        Self {
            config,
            arith,
            x: [zero; STATE_DIM],
            p,
            updates: 0,
            rejected: 0,
            phases: PhaseLedger::default(),
        }
    }

    /// The arithmetic context (inspect for op counts / cycle ledgers).
    pub fn arith(&self) -> &A {
        &self.arith
    }

    /// The arithmetic context, mutably (the generic estimator runs its
    /// sensor-prep math through the same context so one ledger covers
    /// the whole algorithm).
    pub fn arith_mut(&mut self) -> &mut A {
        &mut self.arith
    }

    /// The configuration (measurement sigma may have been retuned).
    pub fn config(&self) -> &FilterConfig {
        &self.config
    }

    /// Current measurement noise 1-sigma.
    pub fn measurement_sigma(&self) -> f64 {
        self.config.measurement_sigma
    }

    /// Retunes the measurement noise (the adaptive monitor calls this).
    pub fn set_measurement_sigma(&mut self, sigma: f64) {
        self.config.measurement_sigma = sigma.max(1e-6);
    }

    /// Estimated misalignment angles.
    pub fn angles(&self) -> EulerAngles {
        EulerAngles::new(
            self.arith.to_f64(self.x[0]),
            self.arith.to_f64(self.x[1]),
            self.arith.to_f64(self.x[2]),
        )
    }

    /// Estimated ACC biases, m/s^2.
    pub fn bias(&self) -> Vec2 {
        Vec2::new([self.arith.to_f64(self.x[3]), self.arith.to_f64(self.x[4])])
    }

    /// Full state vector, converted to `f64`.
    pub fn state(&self) -> State {
        let mut out = State::zeros();
        for i in 0..STATE_DIM {
            out[i] = self.arith.to_f64(self.x[i]);
        }
        out
    }

    /// State covariance, converted to `f64`.
    pub fn covariance(&self) -> StateCov {
        let mut out = StateCov::zeros();
        for r in 0..STATE_DIM {
            for c in 0..STATE_DIM {
                out[(r, c)] = self.arith.to_f64(self.p[r][c]);
            }
        }
        out
    }

    /// 1-sigma of each misalignment angle, rad. Runs over a cloned
    /// arithmetic context (a read-out, not part of the algorithm's op
    /// ledger).
    pub fn angle_sigma(&self) -> Vec3
    where
        A: Clone,
    {
        let mut a = self.arith.clone();
        let zero = a.num(0.0);
        let mut out = [0.0; 3];
        for (i, o) in out.iter_mut().enumerate() {
            let m = a.max(self.p[i][i], zero);
            let s = a.sqrt(m);
            *o = a.to_f64(s);
        }
        Vec3::new(out)
    }

    /// Accepted updates so far.
    pub fn update_count(&self) -> u64 {
        self.updates
    }

    /// Gate-rejected updates so far.
    pub fn rejected_count(&self) -> u64 {
        self.rejected
    }

    /// Time propagation over `dt` seconds: the state transition is the
    /// identity (a random walk), so the full `F P F^T + Q` collapses
    /// to the symmetric diagonal bump `P += Q dt` — no dense products,
    /// no work off the diagonal, symmetry preserved by construction.
    pub fn predict(&mut self, dt: f64) {
        if dt <= 0.0 {
            return;
        }
        let before = ledger_snapshot(&self.arith);
        let qa = self.config.angle_process_density.powi(2) * dt;
        let qb = if self.config.estimate_bias {
            self.config.bias_process_density.powi(2) * dt
        } else {
            0.0
        };
        let a = &mut self.arith;
        let qa_t = a.num(qa);
        let qb_t = a.num(qb);
        for i in 0..3 {
            self.p[i][i] = a.add(self.p[i][i], qa_t);
        }
        for i in 3..STATE_DIM {
            self.p[i][i] = a.add(self.p[i][i], qb_t);
        }
        let after = ledger_snapshot(&self.arith);
        self.phases.predict.charge(before, after);
    }

    /// Where the substrate's ops and cycles were spent, by algorithm
    /// phase (predict / gate / update). Arithmetic the filter did not
    /// run — the estimator's sensor prep, diagnostics over cloned
    /// contexts — is the difference between [`Arith::counts`] and
    /// [`PhaseLedger::tracked_ops`].
    pub fn phase_ledger(&self) -> &PhaseLedger {
        &self.phases
    }

    /// Measurement update with the ACC sample `z` (m/s^2, x'/y') given
    /// the concurrent IMU specific force `f_b`. Returns the update
    /// record for residual monitoring.
    ///
    /// Runs the iterated EKF: the measurement is relinearized
    /// [`FilterConfig::iekf_iterations`] times around the improving
    /// estimate (Gauss-Newton on the MAP objective), then the
    /// covariance is updated in Joseph form at the final
    /// linearization point.
    pub fn update(&mut self, z: Meas, f_b: Vec3, time_s: f64) -> KalmanUpdate {
        let fb = [
            self.arith.num(f_b[0]),
            self.arith.num(f_b[1]),
            self.arith.num(f_b[2]),
        ];
        self.update_t(z, fb, time_s)
    }

    /// [`Self::update`] with the specific force already in the
    /// substrate (the generic estimator's lever-arm and slope math
    /// produces it there).
    ///
    /// This is the structure-exploiting hot path: one straight-line
    /// model + Jacobian evaluation per linearization point
    /// ([`model::h_and_jacobian_generic`]), `J P` and the symmetric `S`
    /// over the Jacobian's zeros and ones ([`jp_and_s`]), the gate-pass
    /// model reused verbatim for IEKF iteration 0 (its linearization
    /// point *is* the prior), the 2x2 innovation solved closed-form
    /// ([`smallmat::inverse2_sym`]), `P J^T` read off `J P` by
    /// transposition (valid because `P` is kept exactly symmetric) and
    /// the Joseph update specialized to the rank-2 measurement
    /// ([`smallmat::joseph_update_sym`]).
    pub fn update_t(&mut self, z: Meas, f_b: [A::T; 3], time_s: f64) -> KalmanUpdate {
        let gate_before = ledger_snapshot(&self.arith);
        let r = self.config.measurement_sigma.powi(2);
        let estimate_bias = self.config.estimate_bias;
        let a = &mut self.arith;
        let r_t = a.num(r);
        let zero = a.num(0.0);
        let zt = [a.num(z[0]), a.num(z[1])];
        let x_pred = self.x;

        // First-pass innovation and its sigma: this is what the
        // residual monitor sees (z minus the prior prediction).
        let (h0, jac0) = model::h_and_jacobian_generic(a, &x_pred, &f_b, estimate_bias);
        let innov_t = [a.sub(zt[0], h0[0]), a.sub(zt[1], h0[1])];
        let (jp0, s0) = jp_and_s(a, &jac0, &self.p, r_t, estimate_bias);
        let m0 = a.max(s0[0][0], zero);
        let sig0 = a.sqrt(m0);
        let m1 = a.max(s0[1][1], zero);
        let sig1 = a.sqrt(m1);
        let innovation = Vec2::new([a.to_f64(innov_t[0]), a.to_f64(innov_t[1])]);
        let sigma = Vec2::new([a.to_f64(sig0), a.to_f64(sig1)]);

        // Gate on the per-axis normalized innovation.
        if self.config.gate_sigmas > 0.0 {
            let g = a.num(self.config.gate_sigmas);
            let exceed0 = {
                let ai = a.abs(innov_t[0]);
                let gs = a.mul(g, sig0);
                a.lt(gs, ai)
            };
            let exceeded = exceed0 || {
                let ai = a.abs(innov_t[1]);
                let gs = a.mul(g, sig1);
                a.lt(gs, ai)
            };
            if exceeded {
                self.rejected += 1;
                self.phases
                    .gate
                    .charge(gate_before, ledger_snapshot(&self.arith));
                return KalmanUpdate {
                    time_s,
                    innovation,
                    innovation_sigma: sigma,
                    accepted: false,
                };
            }
        }
        let update_before = ledger_snapshot(&self.arith);
        self.phases.gate.charge(gate_before, update_before);

        let a = &mut self.arith;
        let iterations = self.config.iekf_iterations.max(1);
        let eps = a.num(1e-12);
        let mut x_i = x_pred;
        // Iteration 0 relinearizes at x_i = x_pred — exactly where the
        // gate pass just evaluated the model — so its h, J, J P and S
        // are the gate's, reused, not recomputed.
        let mut h_i = h0;
        let mut jac = jac0;
        let mut jp = jp0;
        let mut s = s0;
        let mut gain: Option<[[A::T; MEAS_DIM]; STATE_DIM]> = None;
        for iter in 0..iterations {
            if iter > 0 {
                (h_i, jac) = model::h_and_jacobian_generic(a, &x_i, &f_b, estimate_bias);
                (jp, s) = jp_and_s(a, &jac, &self.p, r_t, estimate_bias);
            }
            let s_inv = match smallmat::inverse2_sym(a, &s) {
                Some(inv) => inv,
                None => {
                    self.rejected += 1;
                    self.phases
                        .update
                        .charge(update_before, ledger_snapshot(&self.arith));
                    return KalmanUpdate {
                        time_s,
                        innovation,
                        innovation_sigma: sigma,
                        accepted: false,
                    };
                }
            };
            // P J^T == (J P)^T entry for entry because P is exactly
            // symmetric — pure data movement instead of 50 FMAs.
            let pjt = smallmat::transpose(a, &jp);
            let k = smallmat::mul(a, &pjt, &s_inv);
            // IEKF residual: z - h(x_i) - H (x_pred - x_i).
            let zh = [a.sub(zt[0], h_i[0]), a.sub(zt[1], h_i[1])];
            let dx = smallmat::vec_sub(a, &x_pred, &x_i);
            let jdx = smallmat::mat_vec(a, &jac, &dx);
            let resid = [a.sub(zh[0], jdx[0]), a.sub(zh[1], jdx[1])];
            let kr = smallmat::mat_vec(a, &k, &resid);
            let x_next = smallmat::vec_add(a, &x_pred, &kr);
            let dstep = smallmat::vec_sub(a, &x_next, &x_i);
            let step = smallmat::vec_max_abs(a, &dstep);
            x_i = x_next;
            gain = Some(k);
            if a.lt(step, eps) {
                break;
            }
        }
        let k = gain.expect("at least one iteration ran");
        self.x = x_i;
        if !estimate_bias {
            self.x[3] = zero;
            self.x[4] = zero;
        }
        // Rank-2 Joseph-form covariance update at the final
        // linearization, upper triangle mirrored (keeps P exactly
        // symmetric for the next update's transposition shortcut).
        self.p = smallmat::joseph_update_sym(a, &self.p, &k, &jac, r_t);
        self.apply_trust_region();
        self.updates += 1;
        self.phases
            .update
            .charge(update_before, ledger_snapshot(&self.arith));
        KalmanUpdate {
            time_s,
            innovation,
            innovation_sigma: sigma,
            accepted: true,
        }
    }

    /// Clamps the state to its physical trust region, re-opening the
    /// variance of any clamped component (see [`FilterConfig`]).
    fn apply_trust_region(&mut self) {
        let a = &mut self.arith;
        if self.config.angle_limit > 0.0 {
            let lim = a.num(self.config.angle_limit);
            let floor = a.num((self.config.initial_angle_sigma * 0.5).powi(2));
            for i in 0..3 {
                let ax = a.abs(self.x[i]);
                if a.lt(lim, ax) {
                    self.x[i] = clamp_sym(a, self.x[i], lim);
                    if a.lt(self.p[i][i], floor) {
                        self.p[i][i] = floor;
                    }
                }
            }
        }
        if self.config.bias_limit > 0.0 && self.config.estimate_bias {
            let lim = a.num(self.config.bias_limit);
            let floor = a.num((self.config.initial_bias_sigma * 0.5).powi(2));
            for i in 3..STATE_DIM {
                let ax = a.abs(self.x[i]);
                if a.lt(lim, ax) {
                    self.x[i] = clamp_sym(a, self.x[i], lim);
                    if a.lt(self.p[i][i], floor) {
                        self.p[i][i] = floor;
                    }
                }
            }
        }
    }

    /// Checks that the covariance is still symmetric positive definite
    /// (diagnostics; `true` means healthy). Runs over a cloned
    /// arithmetic context so the diagnostic does not pollute the
    /// algorithm's op ledger.
    pub fn covariance_healthy(&self) -> bool
    where
        A: Clone,
    {
        let mut a = self.arith.clone();
        let asym = smallmat::asymmetry(&mut a, &self.p);
        let tol = a.num(1e-9);
        // "Not above tolerance" rather than "below": on a fixed-point
        // substrate the tolerance itself quantizes to zero, and the
        // exactly-mirrored covariance (asymmetry exactly zero) must
        // still count as symmetric.
        !a.lt(tol, asym) && smallmat::cholesky_ok(&mut a, &self.p)
    }

    /// Exports the filter's algorithmic state through `f64` — the
    /// substrate-agnostic half of the adaptive supervisor's state
    /// transfer ([`crate::adaptive`]). Reads each unique covariance
    /// entry once (conversions are uncounted, so the op and cycle
    /// ledgers are untouched).
    pub fn export_snapshot(&self) -> crate::adaptive::FilterSnapshot {
        let mut x = [0.0; STATE_DIM];
        for (out, value) in x.iter_mut().zip(self.x.iter()) {
            *out = self.arith.to_f64(*value);
        }
        let mut p_upper = [0.0; crate::adaptive::snapshot::PACKED_COV];
        let mut k = 0;
        for i in 0..STATE_DIM {
            for j in i..STATE_DIM {
                p_upper[k] = self.arith.to_f64(self.p[i][j]);
                k += 1;
            }
        }
        crate::adaptive::FilterSnapshot {
            x,
            p_upper,
            updates: self.updates,
            rejected: self.rejected,
            measurement_sigma: self.config.measurement_sigma,
            phases: self.phases,
        }
    }

    /// Imports a snapshot into this filter's substrate, replacing its
    /// state. Each unique covariance entry converts once and is
    /// mirrored, preserving the exact-bitwise-symmetry invariant on
    /// `P`; diagonal entries are floored at the substrate's
    /// [`crate::adaptive::positive_quantum`] so a healthy covariance
    /// stays positive-definite through quantization. The accepted /
    /// rejected counters, the retuned measurement sigma and the
    /// per-phase attribution carry over; the substrate's own op
    /// ledger is left untouched.
    pub fn import_snapshot(&mut self, snapshot: &crate::adaptive::FilterSnapshot) {
        let quantum = crate::adaptive::positive_quantum(&mut self.arith);
        for (slot, value) in self.x.iter_mut().zip(snapshot.x.iter()) {
            *slot = self.arith.num(*value);
        }
        let mut k = 0;
        for i in 0..STATE_DIM {
            for j in i..STATE_DIM {
                let mut value = snapshot.p_upper[k];
                if i == j {
                    value = value.max(quantum);
                }
                let converted = self.arith.num(value);
                self.p[i][j] = converted;
                self.p[j][i] = converted;
                k += 1;
            }
        }
        self.updates = snapshot.updates;
        self.rejected = snapshot.rejected;
        self.config.measurement_sigma = snapshot.measurement_sigma.max(1e-6);
        self.phases = snapshot.phases;
    }
}

/// `x` clamped to `[-lim, lim]` (mirrors `f64::clamp`'s branch order).
fn clamp_sym<A: Arith>(a: &mut A, x: A::T, lim: A::T) -> A::T {
    let nlim = a.neg(lim);
    if a.lt(x, nlim) {
        nlim
    } else if a.lt(lim, x) {
        lim
    } else {
        x
    }
}

/// `J P` and the innovation covariance `S = J P J^T + r I` for a
/// Jacobian `jac` of [`model::h_and_jacobian_generic`]'s structure:
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
/// computed on and above the diagonal and mirrored. Both filters call
/// it at the gate and at every IEKF relinearization, so the lane
/// filter's parity holds by construction.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::{QArith, SoftArith};
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
