//! The boresight estimator: the crate's primary public API.
//!
//! Wires the pieces of the paper's "Sensor Fusion Algorithm" together:
//! incoming DMU samples (body specific force + angular rate) and ACC
//! samples (two-axis sensor-frame specific force) are time-aligned,
//! lever-arm compensated, pushed through the misalignment Kalman
//! filter, and watched by the adaptive residual monitor. The output is
//! a [`MisalignmentEstimate`] — roll, pitch, yaw with their 3-sigma
//! (~99 %) confidence bounds, which is exactly what the paper's
//! control block hands to the video transform.
//!
//! Like the filter, the estimator is generic over the
//! [`Arith`] substrate: the slope-limited IMU extrapolation and the
//! lever-arm compensation run through the same arithmetic context as
//! the filter itself, so a Softfloat or fixed-point deployment
//! accounts for *all* of the fusion math, not just the Kalman core.
//! Timestamps and the residual monitor stay in `f64` — they model the
//! scheduler and the tuning loop, not the datapath.

use crate::arith::{Arith, F64Arith};
use crate::filter::{FilterConfig, GenericBoresightFilter, KalmanUpdate};
use crate::monitor::{MonitorConfig, ResidualMonitor, Retune};
use crate::smallmat;
use mathx::{rad_to_deg, EulerAngles, Vec2, Vec3};
use sensors::DmuSample;

/// Estimator configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct EstimatorConfig {
    /// Kalman filter configuration.
    pub filter: FilterConfig,
    /// Residual monitor configuration; `None` disables adaptive tuning.
    pub monitor: Option<MonitorConfig>,
    /// Known lever arm from the IMU to the ACC in body axes, metres
    /// (compensated before the filter sees the measurement).
    pub lever_arm: Vec3,
}

impl EstimatorConfig {
    /// Paper-style static test configuration with adaptive tuning on.
    pub fn paper_static() -> Self {
        Self {
            filter: FilterConfig::paper_static(),
            monitor: Some(MonitorConfig::default()),
            lever_arm: Vec3::zeros(),
        }
    }

    /// Paper-style dynamic (vehicle) configuration.
    pub fn paper_dynamic() -> Self {
        Self {
            filter: FilterConfig::paper_dynamic(),
            monitor: Some(MonitorConfig::default()),
            lever_arm: Vec3::zeros(),
        }
    }
}

/// The result the system reports: misalignment plus confidence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MisalignmentEstimate {
    /// Estimated misalignment angles.
    pub angles: EulerAngles,
    /// Per-angle 1-sigma, radians.
    pub one_sigma: Vec3,
    /// Accepted measurement updates that produced this estimate.
    pub updates: u64,
}

impl MisalignmentEstimate {
    /// Per-angle 3-sigma (~99 % confidence) bounds, degrees.
    pub fn three_sigma_deg(&self) -> [f64; 3] {
        [
            rad_to_deg(3.0 * self.one_sigma[0]),
            rad_to_deg(3.0 * self.one_sigma[1]),
            rad_to_deg(3.0 * self.one_sigma[2]),
        ]
    }

    /// `true` when every angle's 3-sigma bound is below `limit_deg`.
    pub fn confident_within_deg(&self, limit_deg: f64) -> bool {
        self.three_sigma_deg().iter().all(|s| *s <= limit_deg)
    }
}

/// The boresight estimator over an arbitrary [`Arith`] substrate.
///
/// # Examples
///
/// ```
/// use boresight::arith::{Arith, SoftArith};
/// use boresight::estimator::GenericBoresightEstimator;
/// use boresight::EstimatorConfig;
/// use mathx::{Vec2, Vec3, STANDARD_GRAVITY};
/// use sensors::DmuSample;
///
/// // The full 5-state estimation path in emulated IEEE arithmetic,
/// // with exact Sabre cycle accounting behind it.
/// let mut est = GenericBoresightEstimator::with_arith(
///     SoftArith::default(),
///     EstimatorConfig::paper_static(),
/// );
/// let dmu = DmuSample {
///     seq: 0,
///     time_s: 0.0,
///     gyro: Vec3::zeros(),
///     accel: Vec3::new([0.0, 0.0, STANDARD_GRAVITY]),
/// };
/// est.on_dmu(&dmu);
/// est.on_acc(0.005, Vec2::new([0.01, -0.01]));
/// assert!(est.filter().arith().cycles() > 0);
/// ```
#[derive(Clone, Debug)]
pub struct GenericBoresightEstimator<A: Arith> {
    config: EstimatorConfig,
    filter: GenericBoresightFilter<A>,
    monitor: Option<ResidualMonitor>,
    prep: ImuPrep<A>,
    last_update_time: f64,
    dropped_no_imu: u64,
}

/// The IMU-side front end of the fusion algorithm, factored out of the
/// estimator so lockstep lane backends ([`crate::lanes::LaneBank`])
/// can share it: slope-limited extrapolation of the asynchronous DMU
/// stream to ACC timestamps plus gyro differentiation for the
/// lever-arm compensation. All math runs through the caller's
/// arithmetic context, so the substrate's ledger covers it.
#[derive(Clone, Debug)]
pub struct ImuPrep<A: Arith> {
    last_dmu: Option<DmuSample>,
    prev_dmu: Option<DmuSample>,
    /// Exponentially smoothed d(f_imu)/dt used to extrapolate the IMU
    /// stream to ACC timestamps without amplifying the IMU noise.
    f_slope: [A::T; 3],
    prev_gyro: Option<(f64, Vec3)>,
    angular_accel: [A::T; 3],
}

/// The native-`f64` estimator — the reference instantiation every
/// pre-refactor call site keeps using unchanged.
///
/// # Examples
///
/// ```
/// use boresight::{BoresightEstimator, EstimatorConfig};
/// use mathx::{Vec2, Vec3, STANDARD_GRAVITY};
/// use sensors::DmuSample;
///
/// let mut est = BoresightEstimator::new(EstimatorConfig::paper_static());
/// let dmu = DmuSample {
///     seq: 0,
///     time_s: 0.0,
///     gyro: Vec3::zeros(),
///     accel: Vec3::new([0.0, 0.0, STANDARD_GRAVITY]),
/// };
/// est.on_dmu(&dmu);
/// let update = est.on_acc(0.005, Vec2::new([0.01, -0.01]));
/// assert!(update.is_some());
/// ```
pub type BoresightEstimator = GenericBoresightEstimator<F64Arith>;

/// Smoothing factor for the specific-force slope (fraction of the old
/// slope retained per DMU sample).
const SLOPE_BETA: f64 = 0.75;

/// Largest plausible rate of change of the specific force, m/s^3.
/// Vehicle jerk tops out around 10-20 m/s^3; anything above this is a
/// discontinuity (tilt-table step, segment boundary) that must not be
/// extrapolated.
const SLOPE_LIMIT: f64 = 50.0;

impl<A: Arith> GenericBoresightEstimator<A> {
    /// Creates an estimator over the substrate's default context.
    pub fn new(config: EstimatorConfig) -> Self
    where
        A: Default,
    {
        Self::with_arith(A::default(), config)
    }

    /// Creates an estimator over an explicit arithmetic context.
    pub fn with_arith(arith: A, config: EstimatorConfig) -> Self {
        let mut filter = GenericBoresightFilter::with_arith(arith, config.filter);
        let monitor = config
            .monitor
            .map(|m| ResidualMonitor::new(m, config.filter.measurement_sigma));
        let prep = ImuPrep::new(filter.arith_mut());
        Self {
            config,
            filter,
            monitor,
            prep,
            last_update_time: 0.0,
            dropped_no_imu: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &EstimatorConfig {
        &self.config
    }

    /// Direct access to the filter (diagnostics).
    pub fn filter(&self) -> &GenericBoresightFilter<A> {
        &self.filter
    }

    /// The monitor's retune log (empty if monitoring is disabled).
    pub fn retunes(&self) -> &[Retune] {
        self.monitor.as_ref().map_or(&[], |m| m.retunes())
    }

    /// The measurement sigma currently in force.
    pub fn current_measurement_sigma(&self) -> f64 {
        self.filter.measurement_sigma()
    }

    /// ACC samples dropped because no IMU sample had arrived yet.
    pub fn dropped_no_imu(&self) -> u64 {
        self.dropped_no_imu
    }

    /// Ingests a DMU sample (specific force + angular rate in body
    /// axes). Also differentiates the gyro for the lever-arm term.
    pub fn on_dmu(&mut self, sample: &DmuSample) {
        self.prep.on_dmu(self.filter.arith_mut(), sample);
    }

    /// Ingests a two-axis ACC sample (m/s^2) at time `t`, pairing it
    /// with the most recent DMU sample (zero-order hold — the two
    /// streams are asynchronous in the real system). Returns the
    /// filter update record, or `None` if no DMU sample has arrived.
    pub fn on_acc(&mut self, time_s: f64, z: Vec2) -> Option<KalmanUpdate> {
        let lever_arm = self.config.lever_arm;
        let f_b = self
            .prep
            .compensated_force(self.filter.arith_mut(), time_s, lever_arm)?;
        let dt = (time_s - self.last_update_time).max(0.0);
        self.last_update_time = time_s;
        self.filter.predict(dt);
        let update = self.filter.update_t(z, f_b, time_s);
        if let Some(monitor) = &mut self.monitor {
            if let Some(retune) = monitor.observe(&update) {
                self.filter.set_measurement_sigma(retune.new_sigma);
            }
        }
        Some(update)
    }

    /// The current estimate with confidence.
    pub fn estimate(&self) -> MisalignmentEstimate
    where
        A: Clone,
    {
        MisalignmentEstimate {
            angles: self.filter.angles(),
            one_sigma: self.filter.angle_sigma(),
            updates: self.filter.update_count(),
        }
    }

    /// Exports the estimator's full algorithmic state through `f64`
    /// (filter core, IMU front end, residual monitor, stream
    /// bookkeeping) — the adaptive supervisor's transfer format
    /// ([`crate::adaptive`]).
    pub fn export_snapshot(&self) -> crate::adaptive::EstimatorSnapshot {
        crate::adaptive::EstimatorSnapshot {
            filter: self.filter.export_snapshot(),
            prep: self.prep.snapshot(self.filter.arith()),
            monitor: self.monitor.clone(),
            last_update_time: self.last_update_time,
            dropped_no_imu: self.dropped_no_imu,
        }
    }

    /// Imports a snapshot, replacing this estimator's state (the
    /// substrate keeps its own op/cycle ledger). The residual monitor
    /// transfers verbatim, so the retune history, window and hold-off
    /// continue across a substrate swap.
    pub fn import_snapshot(&mut self, snapshot: &crate::adaptive::EstimatorSnapshot) {
        self.filter.import_snapshot(&snapshot.filter);
        self.prep.restore(self.filter.arith_mut(), &snapshot.prep);
        self.monitor = snapshot.monitor.clone();
        self.last_update_time = snapshot.last_update_time;
        self.dropped_no_imu = snapshot.dropped_no_imu;
    }
}

impl<A: Arith> ImuPrep<A> {
    /// A fresh front end over the given context.
    pub fn new(a: &mut A) -> Self {
        let zero = a.num(0.0);
        Self {
            last_dmu: None,
            prev_dmu: None,
            f_slope: [zero; 3],
            prev_gyro: None,
            angular_accel: [zero; 3],
        }
    }

    /// The most recent DMU sample, if any has arrived.
    pub fn last_dmu(&self) -> Option<&DmuSample> {
        self.last_dmu.as_ref()
    }

    /// Exports the front end's state through `f64`. The sample history
    /// is `f64` sensor data already; only the smoothed force slope and
    /// the differentiated angular acceleration live in the substrate.
    pub fn snapshot(&self, a: &A) -> crate::adaptive::ImuPrepSnapshot {
        crate::adaptive::ImuPrepSnapshot {
            last_dmu: self.last_dmu,
            prev_dmu: self.prev_dmu,
            f_slope: [
                a.to_f64(self.f_slope[0]),
                a.to_f64(self.f_slope[1]),
                a.to_f64(self.f_slope[2]),
            ],
            prev_gyro: self.prev_gyro,
            angular_accel: [
                a.to_f64(self.angular_accel[0]),
                a.to_f64(self.angular_accel[1]),
                a.to_f64(self.angular_accel[2]),
            ],
        }
    }

    /// Restores the front end from a snapshot, converting the
    /// in-substrate values through the target context.
    pub fn restore(&mut self, a: &mut A, snapshot: &crate::adaptive::ImuPrepSnapshot) {
        self.last_dmu = snapshot.last_dmu;
        self.prev_dmu = snapshot.prev_dmu;
        self.f_slope = [
            a.num(snapshot.f_slope[0]),
            a.num(snapshot.f_slope[1]),
            a.num(snapshot.f_slope[2]),
        ];
        self.prev_gyro = snapshot.prev_gyro;
        self.angular_accel = [
            a.num(snapshot.angular_accel[0]),
            a.num(snapshot.angular_accel[1]),
            a.num(snapshot.angular_accel[2]),
        ];
    }

    /// Ingests a DMU sample: differentiates the gyro for the lever-arm
    /// term and updates the slope-limited specific-force extrapolator.
    pub fn on_dmu(&mut self, a: &mut A, sample: &DmuSample) {
        if let Some((t_prev, w_prev)) = self.prev_gyro {
            let dt = sample.time_s - t_prev;
            if dt > 1e-6 {
                let dt_t = a.num(dt);
                let mut alpha = [a.num(0.0); 3];
                for (i, o) in alpha.iter_mut().enumerate() {
                    let d = {
                        let g = a.num(sample.gyro[i]);
                        let w = a.num(w_prev[i]);
                        a.sub(g, w)
                    };
                    *o = a.div(d, dt_t);
                }
                self.angular_accel = alpha;
            }
        }
        self.prev_gyro = Some((sample.time_s, sample.gyro));
        if let Some(prev) = self.last_dmu {
            let dt = sample.time_s - prev.time_s;
            if dt > 1e-6 {
                let dt_t = a.num(dt);
                let mut raw = [a.num(0.0); 3];
                for (i, o) in raw.iter_mut().enumerate() {
                    let d = {
                        let f = a.num(sample.accel[i]);
                        let p = a.num(prev.accel[i]);
                        a.sub(f, p)
                    };
                    *o = a.div(d, dt_t);
                }
                let limit = a.num(SLOPE_LIMIT);
                let peak = smallmat::vec_max_abs(a, &raw);
                if a.lt(limit, peak) {
                    // Discontinuity: do not chase it, drop the slope.
                    self.f_slope = [a.num(0.0); 3];
                } else {
                    let beta = a.num(SLOPE_BETA);
                    let rest = a.num(1.0 - SLOPE_BETA);
                    for (slope, fresh) in self.f_slope.iter_mut().zip(&raw) {
                        let s = a.mul(*slope, beta);
                        let r = a.mul(*fresh, rest);
                        *slope = a.add(s, r);
                    }
                }
            }
        }
        self.prev_dmu = self.last_dmu;
        self.last_dmu = Some(*sample);
    }

    /// Specific force extrapolated to time `t` from the latest DMU
    /// sample. The two streams are asynchronous; a zero-order hold
    /// leaves a `df/dt * latency` residual during manoeuvres, so the
    /// exponentially smoothed slope of the IMU stream is carried
    /// forward (the smoothing keeps the IMU noise from being amplified
    /// by differencing; the horizon is clamped to one DMU interval so
    /// outages do not extrapolate wildly).
    fn specific_force_at(&mut self, a: &mut A, t: f64) -> Option<[A::T; 3]> {
        let last = self.last_dmu?;
        let accel = [
            a.num(last.accel[0]),
            a.num(last.accel[1]),
            a.num(last.accel[2]),
        ];
        let dt = match self.prev_dmu {
            Some(prev) if last.time_s > prev.time_s => last.time_s - prev.time_s,
            _ => return Some(accel),
        };
        let horizon = a.num((t - last.time_s).clamp(0.0, dt));
        let mut out = accel;
        for (i, o) in out.iter_mut().enumerate() {
            let p = a.mul(self.f_slope[i], horizon);
            *o = a.add(accel[i], p);
        }
        Some(out)
    }

    /// The body-frame specific force at the ACC's location and time:
    /// the extrapolated IMU stream plus the lever-arm compensation
    /// terms (tangential + centripetal, from the differentiated gyro).
    /// A zero lever arm returns the extrapolated stream itself: its
    /// terms would only add signed zeros. `None` until a DMU sample has
    /// arrived.
    pub fn compensated_force(
        &mut self,
        a: &mut A,
        time_s: f64,
        lever_arm: Vec3,
    ) -> Option<[A::T; 3]> {
        let dmu = self.last_dmu?;
        let gyro = dmu.gyro;
        let f_imu = self.specific_force_at(a, time_s)?;
        // At a zero lever arm every compensation term is a signed zero.
        if lever_arm == Vec3::zeros() {
            return Some(f_imu);
        }
        // Lever-arm compensation: the ACC sits at r from the IMU, so it
        // senses extra rotational terms we remove using the gyro.
        let angular_accel = self.angular_accel;
        let r_t = [
            a.num(lever_arm[0]),
            a.num(lever_arm[1]),
            a.num(lever_arm[2]),
        ];
        let w = [a.num(gyro[0]), a.num(gyro[1]), a.num(gyro[2])];
        let tangential = smallmat::cross3(a, &angular_accel, &r_t);
        let wr = smallmat::cross3(a, &w, &r_t);
        let centripetal = smallmat::cross3(a, &w, &wr);
        let extra = smallmat::vec_add(a, &tangential, &centripetal);
        Some(smallmat::vec_add(a, &f_imu, &extra))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathx::rng::seeded_rng;
    use mathx::{GaussianSampler, STANDARD_GRAVITY};

    fn dmu_at(t: f64, f: Vec3, w: Vec3) -> DmuSample {
        DmuSample {
            seq: (t * 100.0) as u16,
            time_s: t,
            gyro: w,
            accel: f,
        }
    }

    #[test]
    fn acc_before_dmu_is_dropped() {
        let mut est = BoresightEstimator::new(EstimatorConfig::paper_static());
        assert!(est.on_acc(0.0, Vec2::zeros()).is_none());
        // dropped counter only increments through the convenience API
        // below; direct None return is the contract here.
        est.on_dmu(&dmu_at(
            0.0,
            Vec3::new([0.0, 0.0, STANDARD_GRAVITY]),
            Vec3::zeros(),
        ));
        assert!(est.on_acc(0.01, Vec2::zeros()).is_some());
    }

    #[test]
    fn estimates_misalignment_end_to_end() {
        let truth = EulerAngles::from_degrees(2.0, -1.0, 1.5);
        let c_sb = truth.dcm().transpose();
        let mut est = BoresightEstimator::new(EstimatorConfig::paper_static());
        let mut rng = seeded_rng(1);
        let mut gauss = GaussianSampler::new();
        let g = STANDARD_GRAVITY;
        for i in 0..40_000 {
            let t = i as f64 * 0.005;
            // Tilting + accelerating excitation.
            let f_b = Vec3::new([
                1.5 * (0.4 * t).sin() + g * 0.15 * (0.05 * t).sin(),
                1.0 * (0.26 * t).cos(),
                g,
            ]);
            if i % 2 == 0 {
                est.on_dmu(&dmu_at(t, f_b, Vec3::zeros()));
            }
            let f_s = c_sb.rotate(f_b);
            let z = Vec2::new([
                f_s[0] + gauss.sample_scaled(&mut rng, 0.0, 0.007),
                f_s[1] + gauss.sample_scaled(&mut rng, 0.0, 0.007),
            ]);
            est.on_acc(t, z);
        }
        let result = est.estimate();
        let err = result.angles.error_to(&truth);
        // Bias states must be separated from the angles using only the
        // x/y excitation here, which bounds accuracy to a few tenths
        // of a degree over this 200 s run.
        assert!(
            rad_to_deg(err.max_abs()) < 0.5,
            "error {:?}",
            err.to_degrees()
        );
        assert!(result.confident_within_deg(1.0));
        assert!(result.updates > 39_000);
    }

    #[test]
    fn lever_arm_compensation_removes_rotation_terms() {
        // Spinning platform, ACC 0.5 m out on x: without compensation
        // the centripetal term biases the measurement.
        let r = Vec3::new([0.5, 0.0, 0.0]);
        let mut cfg = EstimatorConfig::paper_static();
        cfg.lever_arm = r;
        cfg.filter.estimate_bias = false;
        let mut est = BoresightEstimator::new(cfg);
        let w = Vec3::new([0.0, 0.0, 1.0]); // 1 rad/s yaw spin
        let g = STANDARD_GRAVITY;
        let f_imu = Vec3::new([0.0, 0.0, g]);
        // ACC senses the centripetal acceleration at its location.
        let f_acc = f_imu + w.cross(&w.cross(&r));
        for i in 0..2000 {
            let t = i as f64 * 0.005;
            est.on_dmu(&dmu_at(t, f_imu, w));
            est.on_acc(t, Vec2::new([f_acc[0], f_acc[1]]));
        }
        // With compensation the (aligned) truth should be recovered:
        // angles near zero, not pulled by the 0.5 m/s^2 centripetal term.
        let est_angles = est.estimate().angles;
        assert!(
            rad_to_deg(est_angles.max_abs()) < 0.2,
            "{:?}",
            est_angles.to_degrees()
        );
    }

    #[test]
    fn zero_lever_arm_returns_the_extrapolated_force_alone() {
        let mut a = F64Arith::default();
        let mut prep = ImuPrep::new(&mut a);
        let w = Vec3::new([0.3, -0.2, 1.0]);
        prep.on_dmu(&mut a, &dmu_at(0.0, Vec3::new([0.1, -0.2, 9.8]), w));
        prep.on_dmu(
            &mut a,
            &dmu_at(0.01, Vec3::new([0.12, -0.19, 9.81]), w * 1.5),
        );
        let extrapolated = prep.clone().specific_force_at(&mut a.clone(), 0.013);
        let before = a.counts();
        let f = prep.compensated_force(&mut a, 0.013, Vec3::zeros());
        assert_eq!(
            f.map(|f| f.map(f64::to_bits)),
            extrapolated.map(|f| f.map(f64::to_bits))
        );
        let extrapolation = crate::arith::OpCounts {
            mul: 3,
            add: 3,
            ..Default::default()
        };
        assert_eq!(a.counts().since(&before), extrapolation);
    }

    #[test]
    fn adaptive_retune_fires_under_vibration() {
        let mut cfg = EstimatorConfig::paper_static();
        cfg.filter.measurement_sigma = 0.003; // static tuning
        let mut est = BoresightEstimator::new(cfg);
        let mut rng = seeded_rng(2);
        let mut gauss = GaussianSampler::new();
        let g = STANDARD_GRAVITY;
        for i in 0..5000 {
            let t = i as f64 * 0.005;
            est.on_dmu(&dmu_at(t, Vec3::new([0.0, 0.0, g]), Vec3::zeros()));
            // Vibration-grade noise, 10x the static tuning.
            let z = Vec2::new([
                gauss.sample_scaled(&mut rng, 0.0, 0.03),
                gauss.sample_scaled(&mut rng, 0.0, 0.03),
            ]);
            est.on_acc(t, z);
        }
        assert!(
            !est.retunes().is_empty(),
            "monitor should have raised the noise"
        );
        assert!(est.current_measurement_sigma() > 0.003);
    }

    #[test]
    fn generic_estimator_runs_the_full_path_in_fixed_point() {
        use crate::arith::QArith;
        let truth = EulerAngles::from_degrees(2.0, -1.0, 1.5);
        let c_sb = truth.dcm().transpose();
        let mut est: GenericBoresightEstimator<QArith<16>> =
            GenericBoresightEstimator::new(EstimatorConfig::paper_static());
        let g = STANDARD_GRAVITY;
        for i in 0..4000 {
            let t = i as f64 * 0.005;
            let f_b = Vec3::new([1.5 * (0.4 * t).sin(), 1.0 * (0.26 * t).cos(), g]);
            if i % 2 == 0 {
                est.on_dmu(&dmu_at(t, f_b, Vec3::zeros()));
            }
            let f_s = c_sb.rotate(f_b);
            est.on_acc(t, Vec2::new([f_s[0], f_s[1]]));
        }
        // The Q16.16 path must stay bounded (trust region) and its
        // instrumentation must cover the whole fusion algorithm.
        let angles = est.estimate().angles;
        assert!(angles.max_abs() <= est.config().filter.angle_limit + 1e-3);
        let counts = est.filter().arith().counts();
        assert!(counts.total() > 0);
        assert!(counts.trig > 0, "model trig must flow through the ledger");
    }

    #[test]
    fn confidence_summary() {
        let est = MisalignmentEstimate {
            angles: EulerAngles::zero(),
            one_sigma: Vec3::new([0.001, 0.001, 0.01]),
            updates: 100,
        };
        let ts = est.three_sigma_deg();
        assert!((ts[0] - rad_to_deg(0.003)).abs() < 1e-12);
        assert!(est.confident_within_deg(2.0));
        assert!(!est.confident_within_deg(0.5)); // yaw too loose
    }
}
