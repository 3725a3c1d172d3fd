//! Multi-sensor alignment — the paper's proposed extension.
//!
//! "Future implementations will demonstrate self-aligning and
//! self-referencing methods for dynamic alignment of multiple sensors
//! ... it can readily be extended to fuse data from multiple sensors
//! together (eg. lidar and video) to provide low-cost situational
//! awareness systems."
//!
//! The extension is structurally simple and this module makes it
//! concrete: one vehicle-fixed IMU stream is shared by any number of
//! per-sensor estimators (each sensor carries its own two-axis ACC).
//! Aligning every sensor to the common body frame *also* aligns the
//! sensors to each other — [`MultiBoresight::relative_alignment`]
//! returns the rotation between any two sensors without any direct
//! cross-sensor calibration, which is exactly what fusing lidar
//! returns with video requires.

use crate::estimator::{BoresightEstimator, EstimatorConfig, MisalignmentEstimate};
use crate::filter::KalmanUpdate;
use crate::monitor::Retune;
use crate::session::FusionBackend;
use mathx::{Dcm, EulerAngles, Vec2};
use sensors::DmuSample;
use std::any::Any;

/// Joint alignment of several sensors against one IMU.
///
/// Each sensor runs its own scalar [`BoresightEstimator`], so sensors
/// may carry different configurations and asynchronous channels. When
/// every sensor shares one configuration and the channels arrive in
/// lockstep (the multi-channel synthetic source), the SIMD-style
/// [`crate::lanes::LaneBank`] computes the identical per-sensor
/// estimates — bit for bit, pinned by `tests/lane_parity.rs` — through
/// one lane-batched filter instead of `N` scalar ones.
///
/// # Examples
///
/// ```
/// use boresight::multi::MultiBoresight;
/// use boresight::EstimatorConfig;
///
/// let mut multi = MultiBoresight::new(vec![
///     ("camera".into(), EstimatorConfig::paper_static()),
///     ("lidar".into(), EstimatorConfig::paper_static()),
/// ]);
/// assert_eq!(multi.len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct MultiBoresight {
    names: Vec<String>,
    estimators: Vec<BoresightEstimator>,
}

impl MultiBoresight {
    /// Creates one estimator per (name, config) pair.
    pub fn new(sensors: Vec<(String, EstimatorConfig)>) -> Self {
        let (names, configs): (Vec<_>, Vec<_>) = sensors.into_iter().unzip();
        Self {
            names,
            estimators: configs.into_iter().map(BoresightEstimator::new).collect(),
        }
    }

    /// Number of sensors being aligned.
    pub fn len(&self) -> usize {
        self.estimators.len()
    }

    /// `true` if no sensors are registered.
    pub fn is_empty(&self) -> bool {
        self.estimators.is_empty()
    }

    /// Sensor names in index order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Broadcasts an IMU sample to every per-sensor estimator (they
    /// share the single vehicle-fixed DMU).
    pub fn on_dmu(&mut self, sample: &DmuSample) {
        for est in &mut self.estimators {
            est.on_dmu(sample);
        }
    }

    /// Feeds one sensor's ACC measurement.
    ///
    /// # Panics
    ///
    /// Panics if `sensor` is out of range.
    pub fn on_acc(&mut self, sensor: usize, time_s: f64, z: Vec2) -> Option<KalmanUpdate> {
        self.estimators[sensor].on_acc(time_s, z)
    }

    /// Current estimate for one sensor.
    ///
    /// # Panics
    ///
    /// Panics if `sensor` is out of range.
    pub fn estimate(&self, sensor: usize) -> MisalignmentEstimate {
        self.estimators[sensor].estimate()
    }

    /// All estimates, in index order.
    pub fn estimates(&self) -> Vec<MisalignmentEstimate> {
        self.estimators.iter().map(|e| e.estimate()).collect()
    }

    /// The primary (index 0) estimator, with a meaningful panic for an
    /// empty bank used as a session backend.
    fn primary(&self) -> &BoresightEstimator {
        self.estimators
            .first()
            .expect("MultiBoresight backend needs at least one sensor")
    }

    /// The rotation carrying sensor `from`'s frame into sensor `to`'s
    /// frame, derived purely from each sensor's alignment to the
    /// common body frame: `C_to_from = C_to_b * C_b_from`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn relative_alignment(&self, from: usize, to: usize) -> EulerAngles {
        let c_b_from: Dcm = self.estimators[from].estimate().angles.dcm(); // from -> body
        let c_b_to: Dcm = self.estimators[to].estimate().angles.dcm(); // to -> body
                                                                       // to <- body <- from.
        (c_b_to.transpose() * c_b_from).euler()
    }
}

/// A whole sensor bank as one session backend: the shared IMU stream
/// broadcasts to every per-sensor estimator, and multi-channel
/// [`SensorEvent::Acc`](crate::session::SensorEvent) events route by
/// channel index. Drive it with a multi-channel
/// [`SyntheticSource`](crate::session::SyntheticSource).
impl FusionBackend for MultiBoresight {
    fn ingest_dmu(&mut self, sample: &DmuSample) {
        self.on_dmu(sample);
    }

    fn ingest_acc(&mut self, sensor: usize, time_s: f64, z: Vec2) -> Option<KalmanUpdate> {
        self.on_acc(sensor, time_s, z)
    }

    fn current_estimate(&self) -> MisalignmentEstimate {
        self.primary().estimate()
    }

    fn estimate_for(&self, sensor: usize) -> MisalignmentEstimate {
        self.estimate(sensor)
    }

    fn sensor_count(&self) -> usize {
        self.len()
    }

    /// The primary (index 0) sensor's sigma.
    fn measurement_sigma(&self) -> f64 {
        self.primary().current_measurement_sigma()
    }

    fn retunes(&self) -> &[Retune] {
        self.primary().retunes()
    }

    fn retune_count(&self) -> usize {
        self.estimators.iter().map(|e| e.retunes().len()).sum()
    }

    fn for_each_retune_since(&self, from: usize, visit: &mut dyn FnMut(&Retune)) {
        // K-way selection merge over the per-sensor logs (each already
        // in firing order), visiting the globally ordered tail without
        // building the merged Vec the old implementation allocated.
        // Ties go to the lower sensor index, matching the stable sort
        // this replaces.
        let mut cursors = vec![0usize; self.estimators.len()];
        let mut emitted = 0usize;
        loop {
            let mut best: Option<(usize, u64)> = None;
            for (i, est) in self.estimators.iter().enumerate() {
                if let Some(r) = est.retunes().get(cursors[i]) {
                    if best.is_none_or(|(_, s)| r.at_sample < s) {
                        best = Some((i, r.at_sample));
                    }
                }
            }
            let Some((i, _)) = best else { break };
            let retune = self.estimators[i].retunes()[cursors[i]];
            cursors[i] += 1;
            if emitted >= from {
                visit(&retune);
            }
            emitted += 1;
        }
    }

    fn label(&self) -> &'static str {
        "multi/iekf5"
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
    use mathx::rng::seeded_rng;
    use mathx::{rad_to_deg, GaussianSampler, Vec3, STANDARD_GRAVITY};

    /// Runs two sensors with different true misalignments against the
    /// same excitation and returns the multi-estimator.
    fn run_two(truth_a: EulerAngles, truth_b: EulerAngles, n: usize) -> MultiBoresight {
        let mut multi = MultiBoresight::new(vec![
            ("camera".into(), EstimatorConfig::paper_static()),
            ("lidar".into(), EstimatorConfig::paper_static()),
        ]);
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
                multi.on_dmu(&DmuSample {
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
                multi.on_acc(idx, t, z);
            }
        }
        multi
    }

    #[test]
    fn each_sensor_converges_independently() {
        let truth_a = EulerAngles::from_degrees(2.0, -1.0, 1.5);
        let truth_b = EulerAngles::from_degrees(-3.0, 2.0, -1.0);
        let multi = run_two(truth_a, truth_b, 30_000);
        let ea = multi.estimate(0).angles.error_to(&truth_a);
        let eb = multi.estimate(1).angles.error_to(&truth_b);
        assert!(rad_to_deg(ea.max_abs()) < 0.3, "{:?}", ea.to_degrees());
        assert!(rad_to_deg(eb.max_abs()) < 0.3, "{:?}", eb.to_degrees());
    }

    #[test]
    fn relative_alignment_without_cross_calibration() {
        let truth_a = EulerAngles::from_degrees(2.0, -1.0, 1.5);
        let truth_b = EulerAngles::from_degrees(-3.0, 2.0, -1.0);
        let multi = run_two(truth_a, truth_b, 30_000);
        let rel = multi.relative_alignment(0, 1);
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
        let multi = run_two(truth, truth, 5_000);
        let rel = multi.relative_alignment(0, 0);
        assert!(rad_to_deg(rel.max_abs()) < 1e-9);
    }

    #[test]
    fn multi_driven_through_session_layer() {
        // The same two-sensor rig as above, but driven by a
        // FusionSession over a two-channel synthetic source instead of
        // hand-fed samples.
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
            .backend(MultiBoresight::new(vec![
                ("camera".into(), EstimatorConfig::paper_static()),
                ("lidar".into(), EstimatorConfig::paper_static()),
            ]))
            .build();
        session.run_to_end();

        // Each sensor converges to its own truth...
        let ea = session.estimate_for(0).angles.error_to(&truth_a);
        let eb = session.estimate_for(1).angles.error_to(&truth_b);
        assert!(rad_to_deg(ea.max_abs()) < 0.3, "{:?}", ea.to_degrees());
        assert!(rad_to_deg(eb.max_abs()) < 0.3, "{:?}", eb.to_degrees());

        // ...and the backend hands back relative alignment with no
        // cross-sensor calibration.
        let multi: &MultiBoresight = session.backend_as().expect("multi backend");
        assert_eq!(multi.sensor_count(), 2);
        let rel = multi.relative_alignment(0, 1);
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
    fn retunes_aggregate_across_sensors() {
        use mathx::{GaussianSampler, Vec3, STANDARD_GRAVITY};

        // Sensor 1 carries a static-tuned filter fed vibration-grade
        // noise, so only its monitor retunes; the backend totals must
        // still see it even though sensor 0 stays quiet.
        let mut noisy = EstimatorConfig::paper_static();
        noisy.filter.measurement_sigma = 0.003;
        let mut multi = MultiBoresight::new(vec![
            ("quiet".into(), EstimatorConfig::paper_static()),
            ("noisy".into(), noisy),
        ]);
        let mut rng = seeded_rng(9);
        let mut gauss = GaussianSampler::new();
        let g = STANDARD_GRAVITY;
        for i in 0..5000 {
            let t = i as f64 * 0.005;
            multi.on_dmu(&DmuSample {
                seq: i as u16,
                time_s: t,
                gyro: Vec3::zeros(),
                accel: Vec3::new([0.0, 0.0, g]),
            });
            multi.on_acc(0, t, Vec2::zeros());
            multi.on_acc(
                1,
                t,
                Vec2::new([
                    gauss.sample_scaled(&mut rng, 0.0, 0.03),
                    gauss.sample_scaled(&mut rng, 0.0, 0.03),
                ]),
            );
        }
        assert!(multi.estimators[0].retunes().is_empty());
        assert!(!multi.estimators[1].retunes().is_empty());
        let total = FusionBackend::retune_count(&multi);
        assert_eq!(total, multi.estimators[1].retunes().len());
        let mut visited = Vec::new();
        FusionBackend::for_each_retune_since(&multi, 0, &mut |r| visited.push(*r));
        assert_eq!(visited.len(), total);
        // The merge visits in firing order.
        assert!(visited.windows(2).all(|w| w[0].at_sample <= w[1].at_sample));
        // retunes() stays the primary sensor's log by contract.
        assert!(FusionBackend::retunes(&multi).is_empty());
    }

    #[test]
    fn names_and_len() {
        let multi = MultiBoresight::new(vec![
            ("camera".into(), EstimatorConfig::paper_static()),
            ("lidar".into(), EstimatorConfig::paper_static()),
            ("radar".into(), EstimatorConfig::paper_static()),
        ]);
        assert_eq!(multi.len(), 3);
        assert!(!multi.is_empty());
        assert_eq!(multi.names()[2], "radar");
    }
}
