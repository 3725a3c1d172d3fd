//! The 5-state iterated EKF, written once for `L` lockstep lanes.
//!
//! The paper's FPGA argument is that a fixed algorithm earns its
//! throughput from *replicated datapaths*, not faster sequencers, and a
//! scalar filter is simply one copy of that datapath. This module is
//! the software mirror of it and holds the crate's only IEKF:
//! [`LaneIekf`] keeps `L` filters' states in structure-of-arrays form
//! and runs every arithmetic operation once per instruction across all
//! lanes through a lane substrate ([`LaneOps`]) — the per-lane loop
//! [`crate::arith::LaneArith`] for every counted/emulated/fixed-point
//! substrate (on native `f64` the loops autovectorize, on emulated
//! substrates the per-op dispatch overhead is amortized over `L`
//! results), or the explicit-vector [`crate::simd::SimdArith`] when
//! the filter is keyed on [`crate::simd::SimdF64`]. The scalar
//! [`crate::filter::GenericBoresightFilter`] is this filter at width 1
//! over `LaneArith<A, 1>`, which is why it works for any [`Arith`], not
//! just the substrates with a [`LaneSpec`].
//!
//! Lanes are *independent filters*, so per-lane control flow (the
//! innovation gate, IEKF convergence, trust-region clamps, solver
//! singularity) is handled the way a SIMD/FPGA datapath handles it:
//! every lane executes every instruction, and diverging lanes have
//! their writes masked. A masked lane burns its lane slot — exactly
//! like an idle parallel datapath — but its value stream is
//! **bit-identical** to the same filter run at width 1 (pinned per lane
//! by `tests/lane_parity.rs`). Work that only some lanes need (the
//! clamp of an out-of-bounds component, the gate's second axis, the
//! rest of a solve once every lane has failed a pivot) is done per lane
//! or skipped as a group, so `L` identical lanes cost exactly `L` times
//! one lane on every counted substrate.
//!
//! [`LaneBank`] packages a lane filter plus the shared IMU front end
//! ([`ImuPrep`]) and per-lane residual monitors as a
//! [`FusionBackend`], fusing `L` synchronized ACC channels — several
//! sensors aligned against one IMU — in one session.

// Index-based loops are deliberate: they mirror the masked per-lane
// writes of a SIMD datapath (and the matrix equations behind them).
#![allow(clippy::needless_range_loop)]

use crate::adaptive::snapshot::{positive_quantum, FilterSnapshot, PACKED_COV};
use crate::arith::{Arith, LaneOps, LaneSpec, OpCounts, PhaseLedger};
use crate::estimator::{EstimatorConfig, ImuPrep, MisalignmentEstimate};
use crate::filter::{joseph_structured, jp_and_s, kalman_structured, FilterConfig, KalmanUpdate};
use crate::model::{self, State, StateCov, MEAS_DIM, STATE_DIM};
use crate::monitor::{ResidualMonitor, Retune};
use crate::session::FusionBackend;
use crate::smallmat;
use mathx::{EulerAngles, Vec2, Vec3, STANDARD_GRAVITY};
use sensors::DmuSample;
use std::ops::IndexMut;

/// `L` independent 5-state iterated EKFs in lockstep over the inner
/// substrate `A`, computed through the lane substrate `LA` (by default
/// the one `A`'s [`LaneSpec`] names).
///
/// The state is `[phi, theta, psi, bx, by]` (misalignment Euler angles
/// plus the two ACC bias states). Prediction is a random walk; each
/// measurement update relinearizes the two-axis ACC model while the
/// angle step can still move it (at most
/// [`FilterConfig::iekf_iterations`] passes), solves the 2x2 innovation
/// in closed form and updates the covariance in Kalman form on
/// floating-point substrates and in Joseph form on fixed point (see
/// [`Arith::FIXED_POINT`]) — see [`crate::filter`] for the structure the
/// hot path exploits.
/// Lanes that diverge in control flow (gate rejection, convergence,
/// singular innovation) have their state writes masked, so each lane's
/// result is bit-identical to its own width-1 run.
///
/// All lanes share one [`FilterConfig`]; the measurement sigma is
/// per-lane (adaptive retunes fire independently). One arithmetic
/// context, and so one op ledger and one [`PhaseLedger`], serves the
/// whole lane group.
#[derive(Clone, Debug)]
pub struct LaneIekf<A: Arith, const L: usize, LA = <A as LaneSpec<L>>::Lanes>
where
    LA: LaneOps<L, Inner = A>,
    LA::T: IndexMut<usize, Output = A::T>,
{
    config: FilterConfig,
    arith: LA,
    sigmas: [f64; L],
    x: [LA::T; STATE_DIM],
    /// Kept **exactly symmetric** (bitwise) per lane: the update writes
    /// only unique entries and mirrors them, prediction and the trust
    /// region touch the diagonal only. The update reads `P J^T` off
    /// `J P` by transposition, which relies on this invariant.
    p: [[LA::T; STATE_DIM]; STATE_DIM],
    updates: [u64; L],
    rejected: [u64; L],
    phases: PhaseLedger,
}

/// `(counts, cycles)` snapshot for phase attribution.
fn ledger_snapshot<A: Arith>(a: &A) -> (OpCounts, u64) {
    (a.counts(), a.cycles())
}

impl<A: Arith, const L: usize, LA> LaneIekf<A, L, LA>
where
    LA: LaneOps<L, Inner = A>,
    LA::T: IndexMut<usize, Output = A::T>,
{
    /// Creates the lane filter over the substrate's default context.
    pub fn new(config: FilterConfig) -> Self
    where
        A: Default,
    {
        Self::with_arith(A::default(), config)
    }

    /// Creates the lane filter over an explicit inner context (e.g. a
    /// [`crate::arith::SoftArith`] whose FPU ledger the caller wants to
    /// keep reading).
    pub fn with_arith(inner: A, config: FilterConfig) -> Self {
        let mut arith = LA::with_inner(inner);
        let zero = arith.num(0.0);
        let mut filter = Self {
            config,
            arith,
            sigmas: [config.measurement_sigma; L],
            x: [zero; STATE_DIM],
            p: [[zero; STATE_DIM]; STATE_DIM],
            updates: [0; L],
            rejected: [0; L],
            phases: PhaseLedger::default(),
        };
        for lane in 0..L {
            filter.reset_lane(lane);
        }
        filter
    }

    /// The lane arithmetic context (one shared ledger for all lanes).
    pub fn arith(&self) -> &LA {
        &self.arith
    }

    /// The lane arithmetic context, mutably (substrate `num`
    /// conversions mutate the instrumentation ledger).
    pub fn arith_mut(&mut self) -> &mut LA {
        &mut self.arith
    }

    /// One lane's measurement noise 1-sigma.
    pub fn measurement_sigma(&self, lane: usize) -> f64 {
        self.sigmas[lane]
    }

    /// Retunes one lane's measurement noise (the adaptive monitor
    /// calls this).
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

    /// One lane's full state vector, converted to `f64`.
    pub fn state(&self, lane: usize) -> State {
        let mut out = State::zeros();
        for i in 0..STATE_DIM {
            out[i] = self.arith.lane_to_f64(&self.x[i], lane);
        }
        out
    }

    /// One lane's state covariance, converted to `f64`.
    pub fn covariance(&self, lane: usize) -> StateCov {
        let mut out = StateCov::zeros();
        for r in 0..STATE_DIM {
            for c in 0..STATE_DIM {
                out[(r, c)] = self.arith.lane_to_f64(&self.p[r][c], lane);
            }
        }
        out
    }

    /// One lane's 1-sigma of each misalignment angle, rad. Runs over a
    /// cloned arithmetic context (a read-out, not part of the
    /// algorithm's op ledger).
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

    /// One lane's rejected count (gate rejections and singular
    /// innovations).
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

    /// Where the lane group's ops and cycles were spent, by algorithm
    /// phase (predict / gate / update). Arithmetic the filter did not
    /// run — an estimator's sensor prep, diagnostics over cloned
    /// contexts — is the difference between [`Arith::counts`] and
    /// [`PhaseLedger::tracked_ops`].
    pub fn phase_ledger(&self) -> &PhaseLedger {
        &self.phases
    }

    /// Checks that one lane's covariance is still symmetric positive
    /// definite (diagnostics; `true` means healthy). Runs over a cloned
    /// arithmetic context so the diagnostic does not pollute the
    /// algorithm's op ledger.
    pub fn covariance_healthy(&self, lane: usize) -> bool
    where
        A: Clone,
    {
        let mut a = self.arith.inner().clone();
        let p = self.export_lane(lane).p;
        let asym = smallmat::asymmetry(&mut a, &p);
        let tol = a.num(1e-9);
        // "Not above tolerance" rather than "below": on a fixed-point
        // substrate the tolerance itself quantizes to zero, and the
        // exactly-mirrored covariance (asymmetry exactly zero) must
        // still count as symmetric.
        !a.lt(tol, asym) && smallmat::cholesky_ok(&mut a, &p)
    }

    /// Exports one lane's complete filter state (state vector,
    /// covariance, adaptive sigma, counters) in the substrate — the one
    /// per-lane state-transfer path. The fleet arena moves vehicles
    /// between slots with it (compact-on-evict) and
    /// [`Self::export_snapshot`] converts it for a substrate swap.
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

    /// Re-initializes one lane to the fresh-filter state, so a recycled
    /// slot is indistinguishable from a newly constructed filter.
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

    /// Exports one lane's algorithmic state through `f64` — the
    /// substrate-agnostic half of the adaptive supervisor's state
    /// transfer ([`crate::adaptive`]). Conversions are uncounted, so
    /// the op and cycle ledgers are untouched. The phase ledger rides
    /// along (for a width-1 filter it is that filter's own).
    pub fn export_snapshot(&self, lane: usize) -> FilterSnapshot {
        let state = self.export_lane(lane);
        let a = self.arith.inner();
        let mut p_upper = [0.0; PACKED_COV];
        let mut k = 0;
        for i in 0..STATE_DIM {
            for j in i..STATE_DIM {
                p_upper[k] = a.to_f64(state.p[i][j]);
                k += 1;
            }
        }
        FilterSnapshot {
            x: state.x.map(|v| a.to_f64(v)),
            p_upper,
            updates: state.updates,
            rejected: state.rejected,
            measurement_sigma: state.sigma,
            phases: self.phases,
        }
    }

    /// Imports a snapshot into one lane, in this filter's substrate.
    /// Each unique covariance entry converts once and is mirrored,
    /// preserving the exact-bitwise-symmetry invariant on `P`; diagonal
    /// entries are floored at the substrate's [`positive_quantum`] so a
    /// healthy covariance stays positive-definite through quantization.
    /// The counters, the retuned measurement sigma and the phase
    /// ledger carry over; the substrate's own op ledger is untouched.
    pub fn import_snapshot(&mut self, lane: usize, snapshot: &FilterSnapshot) {
        let a = self.arith.inner_mut();
        let quantum = positive_quantum(a);
        let mut p = [[a.num(0.0); STATE_DIM]; STATE_DIM];
        let mut k = 0;
        for i in 0..STATE_DIM {
            for j in i..STATE_DIM {
                let mut value = snapshot.p_upper[k];
                if i == j {
                    value = value.max(quantum);
                }
                p[i][j] = a.num(value);
                p[j][i] = p[i][j];
                k += 1;
            }
        }
        let state = LaneState {
            x: snapshot.x.map(|v| a.num(v)),
            p,
            sigma: snapshot.measurement_sigma.max(1e-6),
            updates: snapshot.updates,
            rejected: snapshot.rejected,
        };
        self.import_lane(lane, &state);
        self.phases = snapshot.phases;
    }

    /// Time propagation over `dt` seconds, all lanes at once (lanes run
    /// in lockstep on a common schedule). The state transition is the
    /// identity (a random walk), so `F P F^T + Q` collapses to the
    /// symmetric diagonal bump `P += Q dt`.
    pub fn predict(&mut self, dt: f64) {
        self.predict_lanes(&[dt; L]);
    }

    /// Time propagation with a distinct `dt` per lane (fleet lanes hold
    /// unrelated vehicles on unsynchronized measurement schedules).
    /// Lanes with `dt <= 0` are untouched, so each lane's covariance
    /// stream stays bit-identical to a width-1 run on its own schedule.
    pub fn predict_lanes(&mut self, dts: &[f64; L]) {
        if dts.iter().all(|&dt| dt <= 0.0) {
            return;
        }
        let before = ledger_snapshot(&self.arith);
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
        self.phases
            .predict
            .charge(before, ledger_snapshot(&self.arith));
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
        let fb = std::array::from_fn(|axis| {
            self.arith
                .from_lanes(std::array::from_fn(|lane| f_b[lane][axis]))
        });
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
    /// so every active lane's result stays bit-identical to a width-1
    /// filter fed only that lane's schedule.
    pub fn update_lanes_masked(
        &mut self,
        z: &[Vec2; L],
        f_b: [LA::T; 3],
        times: &[f64; L],
        active: &[bool; L],
    ) -> [Option<KalmanUpdate>; L] {
        let inactive: [bool; L] = std::array::from_fn(|lane| !active[lane]);
        let updates = self.update_lanes_t(z, f_b, times, &inactive);
        std::array::from_fn(|lane| active[lane].then(|| updates[lane]))
    }

    /// The measurement update every entry point runs: the iterated EKF
    /// relinearizes the measurement around the improving estimate
    /// (Gauss-Newton on the MAP objective), then updates the covariance
    /// at the final linearization point: in Kalman form `P - K (J P)` on
    /// floating-point substrates, in Joseph form on fixed point, whose
    /// absolute rounding quantum can cancel `P - K (J P)` to zero or
    /// below (the inner substrate's [`Arith::FIXED_POINT`] picks the form
    /// at compile time).
    ///
    /// A lane takes another pass only while its last one moved the
    /// angles by at least `sqrt(0.02 sigma / g)` for its own current
    /// measurement sigma: below that, relinearizing could change `h`
    /// (linear in the biases, second order in the angles) by under 1 %
    /// of sigma. [`FilterConfig::iekf_iterations`] caps the passes, and
    /// the last pass the cap allows computes no step. A converged lane
    /// therefore stops after pass 0, which reuses the gate's model, and
    /// evaluates no trig in the update phase.
    ///
    /// The hot path exploits the problem's structure: one straight-line
    /// model + Jacobian evaluation per linearization point
    /// ([`model::h_and_jacobian_generic`]), `J P` and the symmetric `S`
    /// over the Jacobian's zeros and ones ([`jp_and_s`]), the gate-pass
    /// model reused verbatim for IEKF iteration 0 (its linearization
    /// point *is* the prior, so its residual is `z - h` with no
    /// `J (x_pred - x_i)` term), the 2x2 innovation solved closed-form,
    /// `P J^T` read off `J P` by transposition (valid because `P` is
    /// kept exactly symmetric) and the covariance update: the Kalman
    /// form reuses the final pass's `J P` ([`kalman_structured`], 45 ops),
    /// the Joseph form runs over the Jacobian's zeros and ones
    /// ([`joseph_structured`]). The gain, `K · resid` and the Joseph
    /// update start every sum with a `mul` and drop literal-zero terms,
    /// so they are bit-identical to their dense formulation.
    ///
    /// `inactive` lanes are frozen from the start: they execute every
    /// instruction with writes masked (state, covariance, counters all
    /// untouched) and their returned records are meaningless.
    pub(crate) fn update_lanes_t(
        &mut self,
        z: &[Vec2; L],
        f_b: [LA::T; 3],
        times: &[f64; L],
        inactive: &[bool; L],
    ) -> [KalmanUpdate; L] {
        let gate_before = ledger_snapshot(&self.arith);
        let estimate_bias = self.config.estimate_bias;
        let a = &mut self.arith;
        let r_t = a.from_lanes(self.sigmas.map(|s| s * s));
        let zero = a.num(0.0);
        let zt = [
            a.from_lanes(std::array::from_fn(|i| z[i][0])),
            a.from_lanes(std::array::from_fn(|i| z[i][1])),
        ];
        let x_pred = self.x;

        // --- Gate pass -------------------------------------------------
        // First-pass innovation and its sigma: this is what the
        // residual monitor sees (z minus the prior prediction).
        let (h0, jac0) = model::h_and_jacobian_generic(a, &x_pred, &f_b, estimate_bias);
        let innov_t = [a.sub(zt[0], h0[0]), a.sub(zt[1], h0[1])];
        let (jp0, s0) = jp_and_s(a, &jac0, &self.p, r_t, estimate_bias);
        let m0 = a.max(s0[0][0], zero);
        let sig0 = a.sqrt(m0);
        let m1 = a.max(s0[1][1], zero);
        let sig1 = a.sqrt(m1);

        // Gate on the per-axis normalized innovation. Axis 1 is probed
        // only while some live lane passed axis 0 (a lane that failed
        // axis 0 is rejected whatever axis 1 says).
        let mut rejectd = [false; L];
        if self.config.gate_sigmas > 0.0 {
            let g = a.num(self.config.gate_sigmas);
            let ai0 = a.abs(innov_t[0]);
            let gs0 = a.mul(g, sig0);
            let exceed0 = a.lane_lt(&gs0, &ai0);
            for lane in 0..L {
                rejectd[lane] = !inactive[lane] && exceed0[lane];
            }
            if (0..L).any(|lane| !inactive[lane] && !exceed0[lane]) {
                let ai1 = a.abs(innov_t[1]);
                let gs1 = a.mul(g, sig1);
                let exceed1 = a.lane_lt(&gs1, &ai1);
                for lane in 0..L {
                    rejectd[lane] |= !inactive[lane] && exceed1[lane];
                }
            }
        }
        let update_before = ledger_snapshot(&self.arith);
        self.phases.gate.charge(gate_before, update_before);

        // --- IEKF iterations with per-lane freeze masks ----------------
        let a = &mut self.arith;
        let iterations = self.config.iekf_iterations.max(1);
        // The stop rule above, from each lane's current sigma.
        let step_tol = a.from_lanes(self.sigmas.map(|s| (0.02 * s / STANDARD_GRAVITY).sqrt()));
        let inner = a.inner_mut();
        let (tiny, zero_s) = (inner.num(1e-300), inner.num(0.0));
        let mut x_i = x_pred;
        // Iteration 0 relinearizes at x_i = x_pred — exactly where the
        // gate pass just evaluated the model — so its h, J, J P and S
        // are the gate's, reused, not recomputed.
        let mut h_i = h0;
        let mut jac = jac0;
        let mut jp = jp0;
        let mut s = s0;
        // Final per-lane linearization, `J P` and gain for the
        // covariance update.
        let mut jac_fin = jac0;
        let mut jp_fin = jp0;
        let mut k_fin = [[zero; MEAS_DIM]; STATE_DIM];
        // A frozen lane has finished iterating (converged, rejected,
        // singular or inactive); its x, J, J P and K writes are masked
        // from then on. When every lane is frozen the loop — and the
        // covariance update below — stop.
        let mut frozen: [bool; L] = std::array::from_fn(|lane| rejectd[lane] || inactive[lane]);
        for iter in 0..iterations {
            if frozen.iter().all(|f| *f) {
                break;
            }
            if iter > 0 {
                (h_i, jac) = model::h_and_jacobian_generic(a, &x_i, &f_b, estimate_bias);
                (jp, s) = jp_and_s(a, &jac, &self.p, r_t, estimate_bias);
            }
            // A lane whose pivot fails is singular: rejected and frozen,
            // its possibly non-finite inverse masked out below. The
            // solve stops, like a width-1 solve, once no lane is left.
            let solved = smallmat::inverse2_sym_pivoted(a, &s, |a, d| {
                for lane in 0..L {
                    let inner = a.inner_mut();
                    if !frozen[lane] && (inner.lt(d[lane], tiny) || inner.eq(d[lane], zero_s)) {
                        rejectd[lane] = true;
                        frozen[lane] = true;
                    }
                }
                frozen.iter().any(|f| !f)
            });
            let Some(s_inv) = solved else {
                break;
            };
            // K = P J^T S^-1, reading P J^T off J P by transposition
            // (P is exactly symmetric) instead of 50 FMAs.
            let mut k = [[zero; MEAS_DIM]; STATE_DIM];
            for (st, k_row) in k.iter_mut().enumerate() {
                for (m, k_st) in k_row.iter_mut().enumerate() {
                    let t = a.mul(jp[0][st], s_inv[0][m]);
                    *k_st = a.fma(jp[1][st], s_inv[1][m], t);
                }
            }
            // IEKF residual: z - h(x_i) - J (x_pred - x_i). Pass 0
            // linearizes at the prior, where the correction is zero.
            let zh = [a.sub(zt[0], h_i[0]), a.sub(zt[1], h_i[1])];
            let resid = if iter == 0 {
                zh
            } else {
                let dx = smallmat::vec_sub(a, &x_pred, &x_i);
                let jdx = smallmat::mat_vec(a, &jac, &dx);
                [a.sub(zh[0], jdx[0]), a.sub(zh[1], jdx[1])]
            };
            let mut kr = [zero; STATE_DIM];
            for (kr_st, k_row) in kr.iter_mut().zip(&k) {
                let t = a.mul(k_row[0], resid[0]);
                *kr_st = a.fma(k_row[1], resid[1], t);
            }
            let x_next = smallmat::vec_add(a, &x_pred, &kr);
            // The angle step decides whether another pass is worth it;
            // the last pass the cap allows needs no decision.
            let step = (iter + 1 < iterations).then(|| {
                let next = [x_next[0], x_next[1], x_next[2]];
                let dstep = smallmat::vec_sub(a, &next, &[x_i[0], x_i[1], x_i[2]]);
                smallmat::vec_max_abs(a, &dstep)
            });
            for lane in 0..L {
                // A lane newly marked singular this iteration was
                // active when the solve ran but must not adopt its
                // garbage.
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
                        jp_fin[row][col][lane] = jp[row][col][lane];
                    }
                }
                if let Some(step) = &step {
                    if a.inner_mut().lt(step[lane], step_tol[lane]) {
                        frozen[lane] = true;
                    }
                }
            }
        }

        // --- Adopt per lane --------------------------------------------
        // Lanes to leave untouched below: inactive lanes took no
        // measurement at all, rejected lanes keep prior state and
        // covariance.
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
            // Covariance update at the final linearization, upper
            // triangle mirrored (keeps P exactly symmetric for the next
            // update's transposition shortcut).
            let p_prior = self.p;
            self.p = if A::FIXED_POINT {
                joseph_structured(a, &p_prior, &k_fin, &jac_fin, r_t, estimate_bias)
            } else {
                kalman_structured(a, &p_prior, &k_fin, &jp_fin)
            };
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
        self.phases
            .update
            .charge(update_before, ledger_snapshot(&self.arith));

        // --- Records ---------------------------------------------------
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

    /// Clamps each lane's state to its physical trust region,
    /// re-opening the variance of any clamped component (see
    /// [`FilterConfig::angle_limit`]). The bounds test runs on every
    /// lane; the clamp and the variance floor run only on the lanes
    /// that left the region (`skip` lanes saw no update).
    fn apply_trust_region(&mut self, skip: &[bool; L]) {
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
            let floor = a.inner_mut().num((sigma0 * 0.5).powi(2));
            for i in range {
                let ax = a.abs(self.x[i]);
                let out_of_bounds = a.lane_lt(&lim, &ax);
                for lane in 0..L {
                    if skip[lane] || !out_of_bounds[lane] {
                        continue;
                    }
                    let inner = a.inner_mut();
                    self.x[i][lane] = clamp_sym(inner, self.x[i][lane], lim[lane]);
                    if inner.lt(self.p[i][i][lane], floor) {
                        self.p[i][i][lane] = floor;
                    }
                }
            }
        }
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

/// `L` synchronized ACC channels fused against one shared IMU stream
/// by a lockstep [`LaneIekf`] — the paper's proposed multi-sensor
/// extension.
///
/// "Future implementations will demonstrate self-aligning and
/// self-referencing methods for dynamic alignment of multiple sensors
/// ... it can readily be extended to fuse data from multiple sensors
/// together (eg. lidar and video)." Each sensor carries its own
/// two-axis ACC and every lane aligns one sensor to the common body
/// frame, which also aligns the sensors to each other:
/// [`LaneBank::relative_alignment`] returns the rotation between any
/// two sensors without any direct cross-sensor calibration. All lanes
/// share one [`EstimatorConfig`]; each lane's residual monitor retunes
/// its own measurement sigma. The shared IMU front end runs through the
/// lane filter's inner context, so, as for the scalar estimator, one op
/// ledger holds the bank's whole arithmetic and the front end is its
/// part outside [`PhaseLedger::tracked_ops`].
///
/// Channels must arrive in lockstep: every sensor index `0..L` posts a
/// measurement with the same timestamp before the next time step (the
/// multi-channel [`crate::session::SyntheticSource`] produces exactly
/// this). The batched update runs when the last channel of a time
/// step arrives, and that call returns its lane's update record.
pub struct LaneBank<A: LaneSpec<L>, const L: usize> {
    config: EstimatorConfig,
    filter: LaneIekf<A, L>,
    monitors: Option<Vec<ResidualMonitor>>,
    prep: ImuPrep<A>,
    pending: [Option<Vec2>; L],
    pending_time: f64,
    pending_count: usize,
    last_update_time: f64,
    retune_log: Vec<Retune>,
}

impl<A: LaneSpec<L> + Default, const L: usize> LaneBank<A, L> {
    /// Creates the bank over the substrate's default context; every
    /// lane shares the estimator configuration.
    pub fn new(config: EstimatorConfig) -> Self {
        let mut filter = LaneIekf::<A, L>::new(config.filter);
        let prep = ImuPrep::new(filter.arith_mut().inner_mut());
        Self {
            config,
            filter,
            monitors: config.monitor.map(|m| {
                (0..L)
                    .map(|_| ResidualMonitor::new(m, config.filter.measurement_sigma))
                    .collect()
            }),
            prep,
            pending: [None; L],
            pending_time: 0.0,
            pending_count: 0,
            last_update_time: 0.0,
            retune_log: Vec::new(),
        }
    }

    /// The lockstep filter.
    pub fn filter(&self) -> &LaneIekf<A, L> {
        &self.filter
    }

    /// The rotation carrying sensor `from`'s frame into sensor `to`'s
    /// frame, derived purely from each sensor's alignment to the
    /// common body frame: `C_to_from = C_to_b * C_b_from`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn relative_alignment(&self, from: usize, to: usize) -> EulerAngles {
        let c_b_from = self.filter.angles(from).dcm(); // from -> body
        let c_b_to = self.filter.angles(to).dcm(); // to -> body
        (c_b_to.transpose() * c_b_from).euler() // to <- body <- from
    }
}

impl<A: LaneSpec<L> + Clone + 'static, const L: usize> FusionBackend for LaneBank<A, L> {
    fn ingest_dmu(&mut self, sample: &DmuSample) {
        self.prep
            .on_dmu(self.filter.arith_mut().inner_mut(), sample);
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
        let f_b =
            self.prep
                .compensated_force(self.filter.arith_mut().inner_mut(), time_s, lever_arm)?;
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
        Some(updates[sensor])
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::F64Arith;
    use crate::filter::GenericBoresightFilter;
    use mathx::rng::seeded_rng;
    use mathx::{rad_to_deg, GaussianSampler, STANDARD_GRAVITY};

    /// Which lanes take the outlier sample in the parity harness.
    #[derive(Clone, Copy, PartialEq)]
    enum OutlierLanes {
        First,
        All,
    }

    fn scalar_filters<const L: usize>(cfg: FilterConfig) -> Vec<GenericBoresightFilter<F64Arith>> {
        (0..L).map(|_| GenericBoresightFilter::new(cfg)).collect()
    }

    /// Asserts per-lane bit-identity of state, covariance and counters
    /// between a lane filter and one width-1 filter per lane.
    fn assert_lanes_match<const L: usize>(
        lanes: &LaneIekf<F64Arith, L>,
        scalars: &[GenericBoresightFilter<F64Arith>],
    ) {
        for (lane, kf) in scalars.iter().enumerate() {
            assert_eq!(kf.update_count(), lanes.update_count(lane), "lane {lane}");
            assert_eq!(kf.rejected_count(), lanes.rejected_count(lane));
            let (x, p) = (lanes.state(lane), lanes.covariance(lane));
            for r in 0..STATE_DIM {
                let bits = kf.state()[r].to_bits();
                assert_eq!(bits, x[r].to_bits(), "lane {lane} x[{r}]");
                for c in 0..STATE_DIM {
                    let bits = kf.covariance()[(r, c)].to_bits();
                    assert_eq!(bits, p[(r, c)].to_bits(), "lane {lane} P[{r}][{c}]");
                }
            }
        }
    }

    /// Drives the lane filter and L width-1 filters through the same
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
        assert_lanes_match(&lanes, &scalars);
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
        // filter skips the iterations and covariance update entirely
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
        assert_lanes_match(&lanes, &scalars);
    }

    /// The tilt-table force schedule of these tests at time `t`.
    fn tilt_force(t: f64) -> Vec3 {
        Vec3::new([
            2.0 * (0.5 * t).sin(),
            1.5 * (0.33 * t).cos(),
            STANDARD_GRAVITY,
        ])
    }

    /// The two-axis reading of `f` by a sensor mounted at `mount`, with
    /// a small deterministic noise.
    fn mounted_reading(mount: EulerAngles, f: Vec3, t: f64) -> Vec2 {
        let f_s = mount.dcm().transpose().rotate(f);
        Vec2::new([
            f_s[0] + 0.003 * (7.1 * t).sin(),
            f_s[1] - 0.003 * (5.3 * t).cos(),
        ])
    }

    /// The trig evaluations each of `steps` accepted updates charges to
    /// the update phase of a fresh width-1 filter whose sensor is
    /// mounted at `mount`.
    fn update_trig_per_step(cfg: FilterConfig, mount: EulerAngles, steps: usize) -> Vec<u64> {
        let mut kf: GenericBoresightFilter<F64Arith> = GenericBoresightFilter::new(cfg);
        (0..steps)
            .map(|i| {
                let t = i as f64 * 0.005;
                let f = tilt_force(t);
                let before = kf.phase_ledger().update.ops.trig;
                kf.predict(0.005);
                assert!(kf.update(mounted_reading(mount, f, t), f, t).accepted);
                kf.phase_ledger().update.ops.trig - before
            })
            .collect()
    }

    /// Once a lane has converged its first pass moves the angles by far
    /// less than the step tolerance, so it never relinearizes: the
    /// update phase reuses the gate's model and evaluates no trig.
    #[test]
    fn converged_lane_charges_no_update_trig() {
        let mount = EulerAngles::from_degrees(2.0, -1.5, 3.0);
        let trig = update_trig_per_step(FilterConfig::paper_static(), mount, 400);
        assert!(trig[300..].iter().all(|&n| n == 0), "{:?}", &trig[300..]);
    }

    /// A lane started 3 deg from the truth steps far past the tolerance
    /// on its first pass, so it relinearizes (3 `sin_cos`): with a cap
    /// of 2 passes that is every pass the cap allows. The relinearized
    /// pass only corrects the first step to second order, which is
    /// already under the tolerance, so at the paper's cap of 3 the lane
    /// stops there as well.
    #[test]
    fn lane_started_three_degrees_off_relinearizes() {
        let mount = EulerAngles::from_degrees(3.0, -3.0, 3.0);
        let mut cfg = FilterConfig::paper_static();
        cfg.iekf_iterations = 2;
        let to_the_cap = 3 * (cfg.iekf_iterations as u64 - 1);
        assert_eq!(update_trig_per_step(cfg, mount, 1), [to_the_cap]);
        cfg.iekf_iterations = 3;
        assert_eq!(update_trig_per_step(cfg, mount, 1), [3], "cap 3");
    }

    /// Lanes that stop iterating at different passes — two mounted at
    /// the filter's zero start, two 3 deg off — stay bit-identical to
    /// width-1 filters fed the same readings, whether the far lanes
    /// reach the cap (2 passes) or stop short of it (3).
    #[test]
    fn lanes_stopping_at_different_passes_match_scalar_filters() {
        for passes in [2, 3] {
            let mut cfg = FilterConfig::paper_static();
            cfg.iekf_iterations = passes;
            assert_mixed_lanes_match_scalars(cfg);
        }
    }

    fn assert_mixed_lanes_match_scalars(cfg: FilterConfig) {
        let mounts = [
            EulerAngles::zero(),
            EulerAngles::from_degrees(3.0, -3.0, 3.0),
            EulerAngles::zero(),
            EulerAngles::from_degrees(-3.0, 2.0, -3.0),
        ];
        let mut lanes: LaneIekf<F64Arith, 4> = LaneIekf::new(cfg);
        let mut scalars = scalar_filters::<4>(cfg);
        for i in 0..300 {
            let t = i as f64 * 0.005;
            let f = tilt_force(t);
            let z: [Vec2; 4] = std::array::from_fn(|lane| mounted_reading(mounts[lane], f, t));
            lanes.predict(0.005);
            let lane_updates = lanes.update_lanes(&z, &[f; 4], t);
            for (lane, kf) in scalars.iter_mut().enumerate() {
                kf.predict(0.005);
                let upd = kf.update(z[lane], f, t);
                assert_eq!(
                    upd.accepted, lane_updates[lane].accepted,
                    "step {i} lane {lane}"
                );
            }
            if i == 0 {
                // The first update split the group: the aligned lanes
                // stopped after the gate pass, the far ones
                // relinearized once.
                let trig = scalars.iter().map(|kf| kf.phase_ledger().update.ops.trig);
                assert_eq!(trig.collect::<Vec<_>>(), [0, 3, 0, 3]);
            }
        }
        assert_lanes_match(&lanes, &scalars);
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
        let (p, p_fresh) = (lanes.covariance(2), fresh.covariance(2));
        for r in 0..STATE_DIM {
            for c in 0..STATE_DIM {
                let bits = p[(r, c)].to_bits();
                assert_eq!(bits, p_fresh[(r, c)].to_bits(), "reset P[{r}][{c}]");
            }
        }
        lanes.import_lane(2, &snapshot);
        assert_eq!(lanes.angles(2).roll.to_bits(), before_x.roll.to_bits());
        assert_eq!(lanes.angles(2).pitch.to_bits(), before_x.pitch.to_bits());
        assert_eq!(lanes.angles(2).yaw.to_bits(), before_x.yaw.to_bits());
        assert_eq!(lanes.update_count(2), before_updates);
        assert_eq!(lanes.measurement_sigma(2), 0.042);
    }

    /// Two sensors with different true misalignments, hand-fed against
    /// the same excitation through a two-lane bank.
    fn run_two(truth_a: EulerAngles, truth_b: EulerAngles, n: usize) -> LaneBank<F64Arith, 2> {
        let mut bank = LaneBank::new(EstimatorConfig::paper_static());
        let c_a = truth_a.dcm().transpose();
        let c_b = truth_b.dcm().transpose();
        let mut rng = seeded_rng(5);
        let mut gauss = GaussianSampler::new();
        let g = STANDARD_GRAVITY;
        for i in 0..n {
            let t = i as f64 * 0.005;
            let f = Vec3::new([
                2.0 * (0.5 * t).sin() + g * 0.2 * (0.07 * t).sin(),
                1.5 * (0.33 * t).cos(),
                g,
            ]);
            if i % 2 == 0 {
                bank.ingest_dmu(&DmuSample {
                    seq: (i / 2) as u16,
                    time_s: t,
                    gyro: Vec3::zeros(),
                    accel: f,
                });
            }
            for (idx, c) in [(0usize, &c_a), (1usize, &c_b)] {
                let f_s = c.rotate(f);
                let z = Vec2::new([
                    f_s[0] + gauss.sample_scaled(&mut rng, 0.0, 0.007),
                    f_s[1] + gauss.sample_scaled(&mut rng, 0.0, 0.007),
                ]);
                bank.ingest_acc(idx, t, z);
            }
        }
        bank
    }

    #[test]
    fn each_sensor_converges_independently() {
        let truth_a = EulerAngles::from_degrees(2.0, -1.0, 1.5);
        let truth_b = EulerAngles::from_degrees(-3.0, 2.0, -1.0);
        let bank = run_two(truth_a, truth_b, 30_000);
        let ea = bank.estimate_for(0).angles.error_to(&truth_a);
        let eb = bank.estimate_for(1).angles.error_to(&truth_b);
        assert!(rad_to_deg(ea.max_abs()) < 0.3, "{:?}", ea.to_degrees());
        assert!(rad_to_deg(eb.max_abs()) < 0.3, "{:?}", eb.to_degrees());
    }

    #[test]
    fn relative_alignment_without_cross_calibration() {
        let truth_a = EulerAngles::from_degrees(2.0, -1.0, 1.5);
        let truth_b = EulerAngles::from_degrees(-3.0, 2.0, -1.0);
        let bank = run_two(truth_a, truth_b, 30_000);
        let rel = bank.relative_alignment(0, 1);
        // Ground truth relative rotation.
        let expected = (truth_b.dcm().transpose() * truth_a.dcm()).euler();
        let err = rel.error_to(&expected);
        assert!(
            rad_to_deg(err.max_abs()) < 0.5,
            "relative {:?} vs {:?}",
            rel.to_degrees(),
            expected.to_degrees()
        );
    }

    #[test]
    fn self_relative_alignment_is_identity() {
        let truth = EulerAngles::from_degrees(1.0, 1.0, 1.0);
        let bank = run_two(truth, truth, 5_000);
        let rel = bank.relative_alignment(0, 0);
        assert!(rad_to_deg(rel.max_abs()) < 1e-9);
    }

    /// The two-sensor rig driven by a `FusionSession` over a
    /// two-channel synthetic source instead of hand-fed samples: each
    /// sensor converges to its own truth and the bank hands back their
    /// relative alignment.
    #[test]
    fn lane_bank_runs_in_a_session() {
        use crate::session::{ChannelConfig, FusionSession, SyntheticSource};
        use crate::spec::ScenarioSpec;

        let truth_a = EulerAngles::from_degrees(2.0, -1.0, 1.5);
        let truth_b = EulerAngles::from_degrees(-3.0, 2.0, -1.0);
        let spec = ScenarioSpec::named("two-sensor-rig")
            .with_truth(truth_a)
            .with_duration(120.0);
        let cfg = spec.config();
        let channel = |truth| ChannelConfig {
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
        .with_channel(&channel(truth_a))
        .with_channel(&channel(truth_b));
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

        let ea = session.estimate_for(0).angles.error_to(&truth_a);
        let eb = session.estimate_for(1).angles.error_to(&truth_b);
        assert!(rad_to_deg(ea.max_abs()) < 0.3, "{:?}", ea.to_degrees());
        assert!(rad_to_deg(eb.max_abs()) < 0.3, "{:?}", eb.to_degrees());

        let bank: &LaneBank<F64Arith, 2> = session.backend_as().expect("lane bank backend");
        assert_eq!(bank.sensor_count(), 2);
        let rel = bank.relative_alignment(0, 1);
        let expected = (truth_b.dcm().transpose() * truth_a.dcm()).euler();
        let err = rel.error_to(&expected);
        assert!(
            rad_to_deg(err.max_abs()) < 0.5,
            "relative {:?} vs {:?}",
            rel.to_degrees(),
            expected.to_degrees()
        );
    }

    #[test]
    fn retunes_merge_across_lanes_in_firing_order() {
        // One shared static tuning: lane 1 is fed vibration-grade noise,
        // so only its monitor retunes; the backend totals must still see
        // it even though lane 0 stays quiet.
        let mut cfg = EstimatorConfig::paper_static();
        cfg.filter.measurement_sigma = 0.003;
        let mut bank: LaneBank<F64Arith, 2> = LaneBank::new(cfg);
        let mut rng = seeded_rng(9);
        let mut gauss = GaussianSampler::new();
        let g = STANDARD_GRAVITY;
        for i in 0..5000 {
            let t = i as f64 * 0.005;
            bank.ingest_dmu(&DmuSample {
                seq: i as u16,
                time_s: t,
                gyro: Vec3::zeros(),
                accel: Vec3::new([0.0, 0.0, g]),
            });
            bank.ingest_acc(0, t, Vec2::zeros());
            bank.ingest_acc(
                1,
                t,
                Vec2::new([
                    gauss.sample_scaled(&mut rng, 0.0, 0.03),
                    gauss.sample_scaled(&mut rng, 0.0, 0.03),
                ]),
            );
        }
        // retunes() stays the primary lane's log by contract.
        assert!(bank.retunes().is_empty());
        let total = bank.retune_count();
        assert!(total > 0, "the noisy lane must retune");
        assert_eq!(bank.measurement_sigma(), cfg.filter.measurement_sigma);
        assert!(bank.filter().measurement_sigma(1) > cfg.filter.measurement_sigma);
        let mut visited = Vec::new();
        bank.for_each_retune_since(0, &mut |r| visited.push(*r));
        assert_eq!(visited.len(), total);
        // The merged log visits in firing order.
        assert!(visited.windows(2).all(|w| w[0].at_sample <= w[1].at_sample));
    }
}
