//! Multi-lane lockstep fusion: `L` independent 5-state IEKFs stepped
//! through one shared instruction stream.
//!
//! The paper's FPGA argument is that a fixed algorithm earns its
//! throughput from *replicated datapaths*, not faster sequencers. This
//! module is the software mirror of that: [`LaneIekf`] keeps `L`
//! filters' states in structure-of-arrays form and runs every
//! arithmetic operation once per instruction across all lanes through
//! the scalar substrate's [`LaneSpec`] lane form — the per-lane loop
//! [`crate::arith::LaneArith`] for every counted/emulated/fixed-point
//! substrate (on native `f64` the loops autovectorize, on emulated
//! substrates the per-op dispatch overhead is amortized over `L`
//! results), or the explicit-vector [`crate::simd::SimdArith`] when
//! the filter is keyed on [`crate::simd::SimdF64`].
//!
//! Lanes are *independent filters*, so per-lane control flow (the
//! innovation gate, IEKF convergence, trust-region clamps, solver
//! singularity) is handled the way a SIMD/FPGA datapath handles it:
//! every lane executes every instruction, and diverging lanes have
//! their writes masked. A masked lane burns its lane slot — exactly
//! like an idle parallel datapath — but its value stream is
//! **bit-identical** to a scalar [`crate::filter::GenericBoresightFilter`] run
//! (pinned per-lane by `tests/lane_parity.rs`).
//!
//! [`LaneBank`] packages a lane filter plus the shared IMU front end
//! ([`ImuPrep`]) and per-lane residual monitors as a
//! [`FusionBackend`], fusing `L` synchronized ACC channels in one
//! session — the batched alternative to `L` scalar estimators or a
//! [`crate::multi::MultiBoresight`] bank.

// Index-based loops are deliberate: they mirror the masked per-lane
// writes of a SIMD datapath (and the matrix equations behind them).
#![allow(clippy::needless_range_loop)]

use crate::arith::{Arith, LaneOps, LaneSpec};
use crate::estimator::{EstimatorConfig, ImuPrep, MisalignmentEstimate};
use crate::filter::{jp_and_s, FilterConfig, KalmanUpdate};
use crate::model::{self, MEAS_DIM, STATE_DIM};
use crate::monitor::{ResidualMonitor, Retune};
use crate::session::FusionBackend;
use crate::smallmat;
use mathx::{EulerAngles, Vec2, Vec3};
use sensors::DmuSample;
use std::any::Any;

/// The lane value stepping `L` scalars of substrate `A` at once —
/// `[A::T; L]` for [`crate::arith::LaneArith`] lanes,
/// [`crate::simd::F64Lanes`] for explicit-vector lanes. Either way it
/// indexes as `value[lane] -> A::T`.
type LaneT<A, const L: usize> = <<A as LaneSpec<L>>::Lanes as Arith>::T;

/// `L` independent 5-state iterated EKFs in lockstep over the inner
/// substrate `A`.
///
/// Mirrors the structure-exploiting scalar update of
/// [`crate::filter::GenericBoresightFilter`] instruction for instruction; lanes that
/// diverge in control flow (gate rejection, convergence, singular
/// innovation) have their state writes masked so each lane's result is
/// bit-identical to its scalar run.
///
/// All lanes share one [`FilterConfig`]; the measurement sigma is
/// per-lane (adaptive retunes fire independently).
#[derive(Clone, Debug)]
pub struct LaneIekf<A: LaneSpec<L>, const L: usize> {
    config: FilterConfig,
    arith: A::Lanes,
    sigmas: [f64; L],
    x: [LaneT<A, L>; STATE_DIM],
    /// Kept exactly symmetric per lane, like the scalar filter's.
    p: [[LaneT<A, L>; STATE_DIM]; STATE_DIM],
    updates: [u64; L],
    rejected: [u64; L],
}

impl<A: LaneSpec<L>, const L: usize> LaneIekf<A, L> {
    /// Creates the lane filter over the substrate's default context.
    pub fn new(config: FilterConfig) -> Self
    where
        A: Default,
    {
        Self::with_arith(A::default(), config)
    }

    /// Creates the lane filter over an explicit inner context.
    pub fn with_arith(inner: A, config: FilterConfig) -> Self {
        let mut arith = <A::Lanes as LaneOps<L>>::with_inner(inner);
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
            sigmas: [config.measurement_sigma; L],
            x: [zero; STATE_DIM],
            p,
            updates: [0; L],
            rejected: [0; L],
        }
    }

    /// Number of lanes.
    pub const fn lanes(&self) -> usize {
        L
    }

    /// The lane arithmetic context (one shared ledger for all lanes).
    pub fn arith(&self) -> &A::Lanes {
        &self.arith
    }

    /// The lane arithmetic context, mutably (substrate `num`
    /// conversions mutate the instrumentation ledger).
    pub fn arith_mut(&mut self) -> &mut A::Lanes {
        &mut self.arith
    }

    /// The configuration shared by every lane.
    pub fn config(&self) -> &FilterConfig {
        &self.config
    }

    /// One lane's measurement noise 1-sigma.
    pub fn measurement_sigma(&self, lane: usize) -> f64 {
        self.sigmas[lane]
    }

    /// Retunes one lane's measurement noise.
    pub fn set_measurement_sigma(&mut self, lane: usize, sigma: f64) {
        self.sigmas[lane] = sigma.max(1e-6);
    }

    /// One lane's estimated misalignment.
    pub fn angles(&self, lane: usize) -> EulerAngles {
        EulerAngles::new(
            self.arith.lane_to_f64(&self.x[0], lane),
            self.arith.lane_to_f64(&self.x[1], lane),
            self.arith.lane_to_f64(&self.x[2], lane),
        )
    }

    /// One lane's estimated ACC biases, m/s^2.
    pub fn bias(&self, lane: usize) -> Vec2 {
        Vec2::new([
            self.arith.lane_to_f64(&self.x[3], lane),
            self.arith.lane_to_f64(&self.x[4], lane),
        ])
    }

    /// One lane's per-angle 1-sigma, rad (read-out over a cloned
    /// context, like the scalar filter's).
    pub fn angle_sigma(&self, lane: usize) -> Vec3
    where
        A: Clone,
    {
        let mut a = self.arith.inner().clone();
        let zero = a.num(0.0);
        let mut out = [0.0; 3];
        for (i, o) in out.iter_mut().enumerate() {
            let m = a.max(self.p[i][i][lane], zero);
            let s = a.sqrt(m);
            *o = a.to_f64(s);
        }
        Vec3::new(out)
    }

    /// One lane's accepted-update count.
    pub fn update_count(&self, lane: usize) -> u64 {
        self.updates[lane]
    }

    /// One lane's gate-rejected count.
    pub fn rejected_count(&self, lane: usize) -> u64 {
        self.rejected[lane]
    }

    /// One lane's estimate with confidence.
    pub fn estimate(&self, lane: usize) -> MisalignmentEstimate
    where
        A: Clone,
    {
        MisalignmentEstimate {
            angles: self.angles(lane),
            one_sigma: self.angle_sigma(lane),
            updates: self.updates[lane],
        }
    }

    /// Exports one lane's complete filter state (state vector,
    /// covariance, adaptive sigma, counters) for migration into
    /// another lane — the primitive behind the fleet arena's
    /// compact-on-evict slot moves.
    pub fn export_lane(&self, lane: usize) -> LaneState<A> {
        LaneState {
            x: std::array::from_fn(|i| self.x[i][lane]),
            p: std::array::from_fn(|r| std::array::from_fn(|c| self.p[r][c][lane])),
            sigma: self.sigmas[lane],
            updates: self.updates[lane],
            rejected: self.rejected[lane],
        }
    }

    /// Imports a previously exported lane state into `lane`,
    /// overwriting it bit-for-bit. Other lanes are untouched.
    pub fn import_lane(&mut self, lane: usize, state: &LaneState<A>) {
        for i in 0..STATE_DIM {
            self.x[i][lane] = state.x[i];
            for j in 0..STATE_DIM {
                self.p[i][j][lane] = state.p[i][j];
            }
        }
        self.sigmas[lane] = state.sigma;
        self.updates[lane] = state.updates;
        self.rejected[lane] = state.rejected;
    }

    /// Re-initializes one lane to the fresh-filter state (the per-lane
    /// mirror of [`Self::with_arith`]'s init), so a recycled slot is
    /// indistinguishable from a newly constructed filter.
    pub fn reset_lane(&mut self, lane: usize) {
        let a2 = self.config.initial_angle_sigma * self.config.initial_angle_sigma;
        let b2 = if self.config.estimate_bias {
            self.config.initial_bias_sigma * self.config.initial_bias_sigma
        } else {
            0.0
        };
        let a = self.arith.inner_mut();
        let zero = a.num(0.0);
        let a2_t = a.num(a2);
        let b2_t = a.num(b2);
        for i in 0..STATE_DIM {
            self.x[i][lane] = zero;
            for j in 0..STATE_DIM {
                self.p[i][j][lane] = if i != j {
                    zero
                } else if i < 3 {
                    a2_t
                } else {
                    b2_t
                };
            }
        }
        self.sigmas[lane] = self.config.measurement_sigma;
        self.updates[lane] = 0;
        self.rejected[lane] = 0;
    }

    /// Time propagation, all lanes at once (lanes run in lockstep on a
    /// common schedule): the symmetric diagonal bump `P += Q dt`.
    pub fn predict(&mut self, dt: f64) {
        if dt <= 0.0 {
            return;
        }
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
    }

    /// Time propagation with a distinct `dt` per lane (fleet lanes hold
    /// unrelated vehicles on unsynchronized measurement schedules).
    /// Lanes with `dt <= 0` are untouched — the per-lane mirror of the
    /// scalar filter's early return — so each lane's covariance stream
    /// stays bit-identical to a scalar filter run on its own schedule.
    pub fn predict_lanes(&mut self, dts: &[f64; L]) {
        if dts.iter().all(|&dt| dt <= 0.0) {
            return;
        }
        let qa: [f64; L] = dts.map(|dt| {
            if dt > 0.0 {
                self.config.angle_process_density.powi(2) * dt
            } else {
                0.0
            }
        });
        let qb: [f64; L] = dts.map(|dt| {
            if dt > 0.0 && self.config.estimate_bias {
                self.config.bias_process_density.powi(2) * dt
            } else {
                0.0
            }
        });
        let a = &mut self.arith;
        let qa_t = a.from_lanes(qa);
        let qb_t = a.from_lanes(qb);
        for i in 0..STATE_DIM {
            let q_t = if i < 3 { qa_t } else { qb_t };
            let next = a.add(self.p[i][i], q_t);
            for lane in 0..L {
                if dts[lane] > 0.0 {
                    self.p[i][i][lane] = next[lane];
                }
            }
        }
    }

    /// Measurement update, all lanes at once: lane `i` fuses `z[i]`
    /// against the shared body specific force `f_b` (the
    /// one-IMU-many-sensors configuration). Returns each lane's update
    /// record.
    pub fn update_shared_force(
        &mut self,
        z: &[Vec2; L],
        f_b: [A::T; 3],
        time_s: f64,
    ) -> [KalmanUpdate; L] {
        let a = &mut self.arith;
        let fb = f_b.map(|v| a.splat(v));
        self.update_lanes_t(z, fb, &[time_s; L], &[false; L])
    }

    /// Measurement update with a distinct specific force per lane
    /// (independent scenarios in lockstep).
    pub fn update_lanes(
        &mut self,
        z: &[Vec2; L],
        f_b: &[Vec3; L],
        time_s: f64,
    ) -> [KalmanUpdate; L] {
        let zero = self.arith.inner_mut().num(0.0);
        let mut fb = [self.arith.splat(zero); 3];
        for axis in 0..3 {
            for lane in 0..L {
                fb[axis][lane] = self.arith.inner_mut().num(f_b[lane][axis]);
            }
        }
        self.update_lanes_t(z, fb, &[time_s; L], &[false; L])
    }

    /// Measurement update for a subset of lanes: lane `i` participates
    /// only when `active[i]`; inactive lanes keep their state,
    /// covariance and counters bit-for-bit and return `None`. Each
    /// active lane carries its own timestamp (fleet lanes hold
    /// unrelated vehicles whose measurements merely landed in the same
    /// batch window).
    ///
    /// Inactive lanes still execute the shared instruction stream with
    /// masked writes — exactly how gate-rejected lanes are handled —
    /// so every active lane's result stays bit-identical to a scalar
    /// filter fed only that lane's schedule.
    pub fn update_lanes_masked(
        &mut self,
        z: &[Vec2; L],
        f_b: [LaneT<A, L>; 3],
        times: &[f64; L],
        active: &[bool; L],
    ) -> [Option<KalmanUpdate>; L] {
        let inactive: [bool; L] = std::array::from_fn(|lane| !active[lane]);
        let updates = self.update_lanes_t(z, f_b, times, &inactive);
        std::array::from_fn(|lane| active[lane].then(|| updates[lane]))
    }

    /// The lockstep mirror of the scalar filter's `update_t`.
    ///
    /// `inactive` lanes are frozen from the start: they execute every
    /// instruction with writes masked (state, covariance, counters all
    /// untouched) and their returned records are meaningless.
    fn update_lanes_t(
        &mut self,
        z: &[Vec2; L],
        f_b: [LaneT<A, L>; 3],
        times: &[f64; L],
        inactive: &[bool; L],
    ) -> [KalmanUpdate; L] {
        let estimate_bias = self.config.estimate_bias;
        let a = &mut self.arith;
        let r_t = {
            let sigmas = self.sigmas;
            a.from_lanes(sigmas.map(|s| s * s))
        };
        let zero = a.num(0.0);
        let zt = [
            a.from_lanes(std::array::from_fn(|i| z[i][0])),
            a.from_lanes(std::array::from_fn(|i| z[i][1])),
        ];
        let x_pred = self.x;

        // --- Gate pass (identical instruction stream to the scalar
        // filter; decisions extracted per lane) -----------------------
        let (h0, jac0) = model::h_and_jacobian_generic(a, &x_pred, &f_b, estimate_bias);
        let innov_t = [a.sub(zt[0], h0[0]), a.sub(zt[1], h0[1])];
        let (jp0, s0) = jp_and_s(a, &jac0, &self.p, r_t, estimate_bias);
        let m0 = a.max(s0[0][0], zero);
        let sig0 = a.sqrt(m0);
        let m1 = a.max(s0[1][1], zero);
        let sig1 = a.sqrt(m1);

        let mut rejectd = [false; L];
        if self.config.gate_sigmas > 0.0 {
            let g = a.num(self.config.gate_sigmas);
            let ai0 = a.abs(innov_t[0]);
            let gs0 = a.mul(g, sig0);
            let exceed0 = a.lane_lt(&gs0, &ai0);
            let ai1 = a.abs(innov_t[1]);
            let gs1 = a.mul(g, sig1);
            let exceed1 = a.lane_lt(&gs1, &ai1);
            for lane in 0..L {
                rejectd[lane] = !inactive[lane] && (exceed0[lane] || exceed1[lane]);
            }
        }

        // --- IEKF iterations with per-lane freeze masks --------------
        let iterations = self.config.iekf_iterations.max(1);
        let eps = a.num(1e-12);
        let eps_scalar = eps[0];
        let mut x_i = x_pred;
        let mut h_i = h0;
        let mut jac = jac0;
        let mut jp = jp0;
        let mut s = s0;
        // Final per-lane linearization and gain for the Joseph update.
        let mut jac_fin = jac0;
        let mut k_fin: [[LaneT<A, L>; MEAS_DIM]; STATE_DIM] = [[zero; MEAS_DIM]; STATE_DIM];
        // A frozen lane has finished iterating (converged, rejected,
        // singular or inactive); its x/jac/k writes are masked from
        // then on. When every lane is already frozen (the whole batch
        // gate-rejected or inactive) the loop — and the Joseph update
        // below — never run at all, mirroring the scalar early return.
        let mut frozen: [bool; L] = std::array::from_fn(|lane| rejectd[lane] || inactive[lane]);
        for iter in 0..iterations {
            if frozen.iter().all(|f| *f) {
                break;
            }
            if iter > 0 {
                (h_i, jac) = model::h_and_jacobian_generic(a, &x_i, &f_b, estimate_bias);
                (jp, s) = jp_and_s(a, &jac, &self.p, r_t, estimate_bias);
            }
            let active: [bool; L] = std::array::from_fn(|lane| !frozen[lane]);
            let s_inv = inverse2_sym_lanes(a, &s, &mut rejectd, &mut frozen, &active);
            let pjt = smallmat::transpose(a, &jp);
            let k = smallmat::mul(a, &pjt, &s_inv);
            let zh = [a.sub(zt[0], h_i[0]), a.sub(zt[1], h_i[1])];
            let dx = smallmat::vec_sub(a, &x_pred, &x_i);
            let jdx = smallmat::mat_vec(a, &jac, &dx);
            let resid = [a.sub(zh[0], jdx[0]), a.sub(zh[1], jdx[1])];
            let kr = smallmat::mat_vec(a, &k, &resid);
            let x_next = smallmat::vec_add(a, &x_pred, &kr);
            let dstep = smallmat::vec_sub(a, &x_next, &x_i);
            let step = smallmat::vec_max_abs(a, &dstep);
            for lane in 0..L {
                // A lane newly marked singular this iteration was
                // active when s_inv ran but must not adopt its garbage.
                if frozen[lane] {
                    continue;
                }
                for st in 0..STATE_DIM {
                    x_i[st][lane] = x_next[st][lane];
                    for m in 0..MEAS_DIM {
                        k_fin[st][m][lane] = k[st][m][lane];
                    }
                }
                for row in 0..MEAS_DIM {
                    for col in 0..STATE_DIM {
                        jac_fin[row][col][lane] = jac[row][col][lane];
                    }
                }
                if a.inner_mut().lt(step[lane], eps_scalar) {
                    frozen[lane] = true;
                }
            }
        }

        // --- Adopt per lane ------------------------------------------
        // Lanes to leave untouched below: inactive lanes took no
        // measurement at all, rejected lanes keep prior state and
        // covariance like the scalar early return.
        let skip: [bool; L] = std::array::from_fn(|lane| rejectd[lane] || inactive[lane]);
        for lane in 0..L {
            if inactive[lane] {
                continue;
            }
            if rejectd[lane] {
                for st in 0..STATE_DIM {
                    x_i[st][lane] = x_pred[st][lane];
                }
                self.rejected[lane] += 1;
            } else {
                self.updates[lane] += 1;
            }
        }
        self.x = x_i;
        if !estimate_bias {
            self.x[3] = zero;
            self.x[4] = zero;
        }
        if !skip.iter().all(|s| *s) {
            let p_prior = self.p;
            let p_next = smallmat::joseph_update_sym(a, &p_prior, &k_fin, &jac_fin, r_t);
            self.p = p_next;
            for lane in 0..L {
                if skip[lane] {
                    for row in 0..STATE_DIM {
                        for col in 0..STATE_DIM {
                            self.p[row][col][lane] = p_prior[row][col][lane];
                        }
                    }
                }
            }
            self.apply_trust_region(&skip);
        }

        // --- Records -------------------------------------------------
        std::array::from_fn(|lane| KalmanUpdate {
            time_s: times[lane],
            innovation: Vec2::new([
                self.arith.lane_to_f64(&innov_t[0], lane),
                self.arith.lane_to_f64(&innov_t[1], lane),
            ]),
            innovation_sigma: Vec2::new([
                self.arith.lane_to_f64(&sig0, lane),
                self.arith.lane_to_f64(&sig1, lane),
            ]),
            accepted: !rejectd[lane],
        })
    }

    /// The per-lane mirror of the scalar trust region: clamp any
    /// out-of-bounds component and re-open its variance, with both
    /// writes masked to the offending lanes (rejected lanes saw no
    /// update and are skipped, like the scalar early return path).
    fn apply_trust_region(&mut self, rejected: &[bool; L]) {
        let limits = [
            (
                0..3,
                self.config.angle_limit,
                self.config.initial_angle_sigma,
            ),
            (
                3..STATE_DIM,
                if self.config.estimate_bias {
                    self.config.bias_limit
                } else {
                    0.0
                },
                self.config.initial_bias_sigma,
            ),
        ];
        for (range, limit, sigma0) in limits {
            if limit <= 0.0 {
                continue;
            }
            let a = &mut self.arith;
            let lim = a.num(limit);
            let lim_s = lim[0];
            let floor = a.num((sigma0 * 0.5).powi(2));
            let floor_s = floor[0];
            for i in range {
                let ax = a.abs(self.x[i]);
                let out_of_bounds = a.lane_lt(&lim, &ax);
                let nlim = a.inner_mut().neg(lim_s);
                for lane in 0..L {
                    if rejected[lane] || !out_of_bounds[lane] {
                        continue;
                    }
                    let v = self.x[i][lane];
                    let inner = a.inner_mut();
                    self.x[i][lane] = if inner.lt(v, nlim) {
                        nlim
                    } else if inner.lt(lim_s, v) {
                        lim_s
                    } else {
                        v
                    };
                    if inner.lt(self.p[i][i][lane], floor_s) {
                        self.p[i][i][lane] = floor_s;
                    }
                }
            }
        }
    }
}

/// One lane's complete filter state, detached from its lane slot.
///
/// Produced by [`LaneIekf::export_lane`] and consumed by
/// [`LaneIekf::import_lane`]; a round trip through a `LaneState` is
/// bit-exact, so the fleet arena can move a vehicle between slots
/// (compaction on eviction) without perturbing its estimate stream.
#[derive(Clone, Debug)]
pub struct LaneState<A: Arith> {
    x: [A::T; STATE_DIM],
    p: [[A::T; STATE_DIM]; STATE_DIM],
    sigma: f64,
    updates: u64,
    rejected: u64,
}

/// Per-lane mirror of [`smallmat::inverse2_sym`]: the closed-form LDL
/// solve runs for every lane; a lane whose pivot check fails is marked
/// rejected + frozen (the scalar filter's singular early return) and
/// its — possibly non-finite — inverse is masked out by the caller.
fn inverse2_sym_lanes<LA: LaneOps<L>, const L: usize>(
    a: &mut LA,
    s: &[[LA::T; 2]; 2],
    rejected: &mut [bool; L],
    frozen: &mut [bool; L],
    active: &[bool; L],
) -> [[LA::T; 2]; 2]
where
    LA::T: std::ops::IndexMut<usize, Output = <LA::Inner as Arith>::T>,
{
    let zero = a.num(0.0);
    let tiny = a.num(1e-300);
    let one = a.num(1.0);
    let d1 = s[0][0];
    let flag = |a: &mut LA, d: &LA::T, rejected: &mut [bool; L], frozen: &mut [bool; L]| {
        for lane in 0..L {
            if !active[lane] {
                continue;
            }
            let inner = a.inner_mut();
            if inner.lt(d[lane], tiny[lane]) || inner.eq(d[lane], zero[lane]) {
                rejected[lane] = true;
                frozen[lane] = true;
            }
        }
    };
    flag(a, &d1, rejected, frozen);
    let l = a.div(s[1][0], d1);
    let lt = a.mul(l, s[0][1]);
    let d2 = a.sub(s[1][1], lt);
    flag(a, &d2, rejected, frozen);
    let i11 = a.div(one, d2);
    let nl = a.neg(l);
    let i01 = a.mul(nl, i11);
    let inv_d1 = a.div(one, d1);
    let li01 = a.mul(l, i01);
    let i00 = a.sub(inv_d1, li01);
    [[i00, i01], [i01, i11]]
}

/// `L` synchronized ACC channels fused against one shared IMU stream
/// by a lockstep [`LaneIekf`] — the batched-backend counterpart of a
/// [`crate::multi::MultiBoresight`] bank of scalar estimators.
///
/// Channels must arrive in lockstep: every sensor index `0..L` posts a
/// measurement with the same timestamp before the next time step (the
/// multi-channel [`crate::session::SyntheticSource`] produces exactly
/// this). The batched update runs when the last channel of a time
/// step arrives; that call returns its lane's update record, and
/// [`LaneBank::last_updates`] exposes the whole batch.
pub struct LaneBank<A: LaneSpec<L>, const L: usize> {
    config: EstimatorConfig,
    filter: LaneIekf<A, L>,
    monitors: Option<Vec<ResidualMonitor>>,
    prep: ImuPrep<A>,
    front: A,
    pending: [Option<Vec2>; L],
    pending_time: f64,
    pending_count: usize,
    last_update_time: f64,
    last_updates: [Option<KalmanUpdate>; L],
    retune_log: Vec<Retune>,
}

impl<A: LaneSpec<L> + Default, const L: usize> LaneBank<A, L> {
    /// Creates the bank over the substrate's default context; every
    /// lane shares the estimator configuration.
    pub fn new(config: EstimatorConfig) -> Self {
        let mut front = A::default();
        let prep = ImuPrep::new(&mut front);
        Self {
            config,
            filter: LaneIekf::new(config.filter),
            monitors: config.monitor.map(|m| {
                (0..L)
                    .map(|_| ResidualMonitor::new(m, config.filter.measurement_sigma))
                    .collect()
            }),
            prep,
            front,
            pending: [None; L],
            pending_time: 0.0,
            pending_count: 0,
            last_update_time: 0.0,
            last_updates: [None; L],
            retune_log: Vec::new(),
        }
    }

    /// The lockstep filter.
    pub fn filter(&self) -> &LaneIekf<A, L> {
        &self.filter
    }

    /// The most recent batch of per-lane update records.
    pub fn last_updates(&self) -> &[Option<KalmanUpdate>; L] {
        &self.last_updates
    }
}

impl<A: LaneSpec<L> + Clone + 'static, const L: usize> FusionBackend for LaneBank<A, L> {
    fn ingest_dmu(&mut self, sample: &DmuSample) {
        self.prep.on_dmu(&mut self.front, sample);
    }

    fn ingest_acc(&mut self, sensor: usize, time_s: f64, z: Vec2) -> Option<KalmanUpdate> {
        assert!(sensor < L, "LaneBank fuses {L} sensor channels");
        self.prep.last_dmu()?;
        if self.pending_count > 0 && time_s != self.pending_time {
            // A stale partial batch (lockstep contract violated, e.g. a
            // faulted channel dropped a sample): discard it.
            self.pending = [None; L];
            self.pending_count = 0;
        }
        self.pending_time = time_s;
        if self.pending[sensor].replace(z).is_none() {
            self.pending_count += 1;
        }
        if self.pending_count < L {
            return None;
        }
        let z_batch: [Vec2; L] =
            std::array::from_fn(|i| self.pending[i].take().expect("full batch"));
        self.pending_count = 0;
        let lever_arm = self.config.lever_arm;
        let f_b = self
            .prep
            .compensated_force(&mut self.front, time_s, lever_arm)?;
        let dt = (time_s - self.last_update_time).max(0.0);
        self.last_update_time = time_s;
        self.filter.predict(dt);
        let updates = self.filter.update_shared_force(&z_batch, f_b, time_s);
        if let Some(monitors) = &mut self.monitors {
            for (lane, (monitor, update)) in monitors.iter_mut().zip(&updates).enumerate() {
                if let Some(retune) = monitor.observe(update) {
                    self.filter.set_measurement_sigma(lane, retune.new_sigma);
                    self.retune_log.push(retune);
                }
            }
        }
        let result = updates[sensor];
        self.last_updates = updates.map(Some);
        Some(result)
    }

    fn current_estimate(&self) -> MisalignmentEstimate {
        self.filter.estimate(0)
    }

    fn estimate_for(&self, sensor: usize) -> MisalignmentEstimate {
        self.filter.estimate(sensor)
    }

    fn sensor_count(&self) -> usize {
        L
    }

    fn measurement_sigma(&self) -> f64 {
        self.filter.measurement_sigma(0)
    }

    fn retunes(&self) -> &[Retune] {
        // The primary lane's log by contract; the merged cross-lane log
        // drives the session cursor below.
        self.monitors.as_ref().map_or(&[], |m| m[0].retunes())
    }

    fn retune_count(&self) -> usize {
        self.retune_log.len()
    }

    fn for_each_retune_since(&self, from: usize, visit: &mut dyn FnMut(&Retune)) {
        if let Some(fresh) = self.retune_log.get(from..) {
            for retune in fresh {
                visit(retune);
            }
        }
    }

    fn label(&self) -> &'static str {
        // "iekf5/lanes" for per-lane-loop substrates, "iekf5/simd" for
        // explicit-vector lanes.
        self.filter.arith().iekf_label()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::F64Arith;
    use crate::filter::GenericBoresightFilter;
    use mathx::STANDARD_GRAVITY;

    /// Which lanes take the outlier sample in the parity harness.
    #[derive(Clone, Copy, PartialEq)]
    enum OutlierLanes {
        First,
        All,
    }

    fn scalar_filters<const L: usize>(cfg: FilterConfig) -> Vec<GenericBoresightFilter<F64Arith>> {
        (0..L).map(|_| GenericBoresightFilter::new(cfg)).collect()
    }

    /// Drives the lane filter and L scalar filters through the same
    /// schedule and asserts per-lane bit-identity of state, covariance
    /// and counters.
    fn assert_lockstep_parity<const L: usize>(
        cfg: FilterConfig,
        steps: usize,
        outlier: Option<(usize, OutlierLanes)>,
    ) {
        let mut lanes: LaneIekf<F64Arith, L> = LaneIekf::new(cfg);
        let mut scalars = scalar_filters::<L>(cfg);
        let g = STANDARD_GRAVITY;
        for i in 0..steps {
            let t = i as f64 * 0.005;
            let f = Vec3::new([2.0 * (0.5 * t).sin(), 1.5 * (0.33 * t).cos(), g]);
            let z: [Vec2; L] = std::array::from_fn(|lane| {
                let scale = 0.01 * (lane as f64 + 1.0);
                let hit = match outlier {
                    Some((step, OutlierLanes::First)) => step == i && lane == 0,
                    Some((step, OutlierLanes::All)) => step == i,
                    None => false,
                };
                if hit {
                    Vec2::new([5.0, -5.0])
                } else {
                    Vec2::new([
                        f[0] + scale * (1.1 * t).sin(),
                        f[1] - scale * (0.9 * t).cos(),
                    ])
                }
            });
            let fs: [Vec3; L] = [f; L];
            lanes.predict(0.005);
            let lane_updates = lanes.update_lanes(&z, &fs, t);
            for (lane, kf) in scalars.iter_mut().enumerate() {
                kf.predict(0.005);
                let upd = kf.update(z[lane], f, t);
                assert_eq!(
                    upd.accepted, lane_updates[lane].accepted,
                    "step {i} lane {lane}"
                );
            }
        }
        for (lane, kf) in scalars.iter().enumerate() {
            let a = kf.angles();
            let b = lanes.angles(lane);
            assert_eq!(a.roll.to_bits(), b.roll.to_bits(), "lane {lane} roll");
            assert_eq!(a.pitch.to_bits(), b.pitch.to_bits(), "lane {lane} pitch");
            assert_eq!(a.yaw.to_bits(), b.yaw.to_bits(), "lane {lane} yaw");
            assert_eq!(kf.update_count(), lanes.update_count(lane), "lane {lane}");
            assert_eq!(kf.rejected_count(), lanes.rejected_count(lane));
            let p = kf.covariance();
            for r in 0..STATE_DIM {
                for c in 0..STATE_DIM {
                    assert_eq!(
                        p[(r, c)].to_bits(),
                        lanes.arith().lane_to_f64(&lanes.p[r][c], lane).to_bits(),
                        "lane {lane} P[{r}][{c}]"
                    );
                }
            }
        }
    }

    #[test]
    fn lanes_match_scalar_filters_bitwise() {
        assert_lockstep_parity::<4>(FilterConfig::paper_static(), 400, None);
    }

    #[test]
    fn gate_divergence_is_masked_per_lane() {
        // Lane 0 takes a wild outlier mid-run: its gate rejection must
        // not perturb the other lanes, and its own state must match the
        // scalar filter's rejected-sample behaviour exactly.
        assert_lockstep_parity::<2>(
            FilterConfig::paper_static(),
            300,
            Some((150, OutlierLanes::First)),
        );
    }

    #[test]
    fn whole_batch_rejection_is_a_no_op_like_the_scalar_early_return() {
        // Every lane takes the outlier on the same step: the lane
        // filter skips the iterations and Joseph update entirely
        // (masked no-op), which must be indistinguishable per lane
        // from each scalar filter's gate early-return.
        assert_lockstep_parity::<3>(
            FilterConfig::paper_static(),
            200,
            Some((100, OutlierLanes::All)),
        );
    }

    /// Lanes on disjoint measurement schedules (the fleet
    /// configuration: unrelated vehicles sharing a lane group) must
    /// each stay bit-identical to a scalar filter fed only that lane's
    /// schedule, with per-lane dt propagation and masked updates.
    #[test]
    fn masked_lanes_match_scalars_on_disjoint_schedules() {
        let cfg = FilterConfig::paper_static();
        let mut lanes: LaneIekf<F64Arith, 3> = LaneIekf::new(cfg);
        let mut scalars = scalar_filters::<3>(cfg);
        let mut last_t = [0.0_f64; 3];
        let g = STANDARD_GRAVITY;
        for i in 0..300 {
            let t = i as f64 * 0.005;
            let f = Vec3::new([2.0 * (0.5 * t).sin(), 1.5 * (0.33 * t).cos(), g]);
            // Lane 0 updates every step, lane 1 every 2nd, lane 2 every 3rd.
            let active: [bool; 3] = std::array::from_fn(|lane| i % (lane + 1) == 0);
            let z: [Vec2; 3] = std::array::from_fn(|lane| {
                let s = 0.01 * (lane as f64 + 1.0);
                Vec2::new([f[0] + s * (1.1 * t).sin(), f[1] - s * (0.9 * t).cos()])
            });
            let mut dts = [0.0_f64; 3];
            let mut times = [0.0_f64; 3];
            for lane in 0..3 {
                if active[lane] {
                    dts[lane] = t - last_t[lane];
                    times[lane] = t;
                    last_t[lane] = t;
                }
            }
            let fb: [[f64; 3]; 3] = std::array::from_fn(|axis| [f[axis]; 3]);
            lanes.predict_lanes(&dts);
            let ups = lanes.update_lanes_masked(&z, fb, &times, &active);
            for lane in 0..3 {
                if active[lane] {
                    let kf = &mut scalars[lane];
                    kf.predict(dts[lane]);
                    let u = kf.update(z[lane], f, t);
                    let lu = ups[lane].expect("active lane returns a record");
                    assert_eq!(u.accepted, lu.accepted, "step {i} lane {lane}");
                    assert_eq!(lu.time_s, t);
                } else {
                    assert!(ups[lane].is_none(), "step {i} lane {lane}");
                }
            }
        }
        for (lane, kf) in scalars.iter().enumerate() {
            let a = kf.angles();
            let b = lanes.angles(lane);
            assert_eq!(a.roll.to_bits(), b.roll.to_bits(), "lane {lane} roll");
            assert_eq!(a.pitch.to_bits(), b.pitch.to_bits(), "lane {lane} pitch");
            assert_eq!(a.yaw.to_bits(), b.yaw.to_bits(), "lane {lane} yaw");
            assert_eq!(kf.update_count(), lanes.update_count(lane));
            assert_eq!(kf.rejected_count(), lanes.rejected_count(lane));
            let p = kf.covariance();
            for r in 0..STATE_DIM {
                for c in 0..STATE_DIM {
                    assert_eq!(
                        p[(r, c)].to_bits(),
                        lanes.arith().lane_to_f64(&lanes.p[r][c], lane).to_bits(),
                        "lane {lane} P[{r}][{c}]"
                    );
                }
            }
        }
    }

    /// Export → reset → import must round-trip a lane bit-exactly, and
    /// a reset lane must be indistinguishable from a fresh filter.
    #[test]
    fn lane_export_import_reset_round_trip() {
        let cfg = FilterConfig::paper_static();
        let mut lanes: LaneIekf<F64Arith, 4> = LaneIekf::new(cfg);
        let g = STANDARD_GRAVITY;
        for i in 0..120 {
            let t = i as f64 * 0.005;
            let f = Vec3::new([1.2 * (0.4 * t).sin(), 0.8 * (0.7 * t).cos(), g]);
            let z: [Vec2; 4] = std::array::from_fn(|lane| {
                let s = 0.02 * (lane as f64 + 1.0);
                Vec2::new([f[0] + s * (1.3 * t).sin(), f[1] + s * (0.6 * t).cos()])
            });
            lanes.predict(0.005);
            lanes.update_lanes(&z, &[f; 4], t);
        }
        lanes.set_measurement_sigma(2, 0.042);
        let snapshot = lanes.export_lane(2);
        let before_x = lanes.angles(2);
        let before_updates = lanes.update_count(2);
        lanes.reset_lane(2);
        // A reset lane matches a fresh filter's lane 2 bit-for-bit.
        let fresh: LaneIekf<F64Arith, 4> = LaneIekf::new(cfg);
        assert_eq!(
            lanes.angles(2).roll.to_bits(),
            fresh.angles(2).roll.to_bits()
        );
        assert_eq!(lanes.update_count(2), 0);
        assert_eq!(lanes.measurement_sigma(2), cfg.measurement_sigma);
        for r in 0..STATE_DIM {
            for c in 0..STATE_DIM {
                assert_eq!(
                    lanes.arith().lane_to_f64(&lanes.p[r][c], 2).to_bits(),
                    fresh.arith().lane_to_f64(&fresh.p[r][c], 2).to_bits(),
                    "reset P[{r}][{c}]"
                );
            }
        }
        lanes.import_lane(2, &snapshot);
        assert_eq!(lanes.angles(2).roll.to_bits(), before_x.roll.to_bits());
        assert_eq!(lanes.angles(2).pitch.to_bits(), before_x.pitch.to_bits());
        assert_eq!(lanes.angles(2).yaw.to_bits(), before_x.yaw.to_bits());
        assert_eq!(lanes.update_count(2), before_updates);
        assert_eq!(lanes.measurement_sigma(2), 0.042);
    }

    #[test]
    fn lane_bank_runs_in_a_session() {
        use crate::session::{ChannelConfig, FusionSession, SyntheticSource};
        use crate::spec::ScenarioSpec;

        let truth = EulerAngles::from_degrees(2.0, -1.0, 1.5);
        let spec = ScenarioSpec::named("lane-bank")
            .with_truth(truth)
            .with_duration(30.0);
        let cfg = spec.config();
        let channel = ChannelConfig {
            misalignment: truth,
            noise_sigma: 0.007,
            ..ChannelConfig::ideal()
        };
        let source = SyntheticSource::new(
            spec.lower_trajectory(),
            cfg.dmu,
            cfg.vibration,
            cfg.acc_rate_hz,
            cfg.duration_s,
            cfg.seed,
        )
        .with_channel(&channel)
        .with_channel(&channel);
        let mut session = FusionSession::builder()
            .source(source)
            .backend(LaneBank::<F64Arith, 2>::new(EstimatorConfig::paper_static()))
            .build();
        session.run_to_end();
        assert_eq!(session.backend_label(), "iekf5/lanes");
        for lane in 0..2 {
            let est = session.estimate_for(lane);
            assert!(est.updates > 5000, "lane {lane}: {}", est.updates);
        }
    }
}
