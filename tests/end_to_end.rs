//! Cross-crate integration: the full paper pipeline from trajectory to
//! corrected video, exercised through the root facade.

use sensor_fusion_fpga::fusion::spec::{EnvironmentSpec, ScenarioSpec, TrajectorySpec, TuningSpec};
use sensor_fusion_fpga::fusion::system::{run_system, SystemConfig};
use sensor_fusion_fpga::fusion::EstimatorConfig;
use sensor_fusion_fpga::math::EulerAngles;
use sensor_fusion_fpga::motion::profile::presets::urban_drive;

/// The paper's dynamic test: an urban drive with passenger-car
/// vibration and the dynamic tuning.
fn dynamic_test(truth: EulerAngles) -> ScenarioSpec {
    ScenarioSpec::named("dynamic")
        .with_truth(truth)
        .with_trajectory(TrajectorySpec::Urban)
        .with_environment(EnvironmentSpec::passenger_car())
        .with_tuning(TuningSpec::Dynamic)
}

#[test]
fn static_procedure_meets_requirement() {
    let truth = EulerAngles::from_degrees(2.0, -3.0, 1.5);
    let result = ScenarioSpec::named("static")
        .with_truth(truth)
        .with_duration(60.0)
        .with_seed(9001)
        .run();
    assert!(
        result.max_error_deg() < 0.25,
        "static errors {:?}",
        result.error_deg()
    );
    assert!(
        result.exceed_rate < 0.02,
        "exceed {:.3}",
        result.exceed_rate
    );
    assert!(result.estimate.confident_within_deg(0.5));
}

#[test]
fn dynamic_procedure_meets_requirement() {
    let truth = EulerAngles::from_degrees(2.5, -2.0, 3.0);
    let result = dynamic_test(truth)
        .with_duration(120.0)
        .with_seed(9002)
        .run();
    assert!(
        result.max_error_deg() < 0.6,
        "dynamic errors {:?}",
        result.error_deg()
    );
}

#[test]
fn two_dynamic_runs_agree() {
    // The paper: "there is very close agreement between the tests".
    let truth = EulerAngles::from_degrees(2.0, -1.0, 2.0);
    let spec = dynamic_test(truth).with_duration(90.0);
    let a = spec.clone().with_seed(9101).run();
    let b = spec.with_seed(9102).run();
    for (ea, eb) in a.error_deg().iter().zip(b.error_deg()) {
        assert!((ea - eb).abs() < 0.6, "run disagreement: {ea} vs {eb}");
    }
}

#[test]
fn mistuned_filter_retunes_itself() {
    // Figure-8 narrative through the public API: static tuning on a
    // moving vehicle must trigger the adaptive monitor.
    let truth = EulerAngles::from_degrees(2.0, 2.0, 2.0);
    let mut estimator = EstimatorConfig::paper_dynamic();
    estimator.filter.measurement_sigma = 0.004;
    let result = dynamic_test(truth)
        .with_tuning(TuningSpec::Custom(estimator))
        .with_duration(60.0)
        .with_seed(9003)
        .run();
    assert!(result.retune_count > 0, "no adaptive retune fired");
    assert!(
        result.final_sigma >= 0.008,
        "sigma {:.4} not raised enough",
        result.final_sigma
    );
}

#[test]
fn full_system_simulation_closes_the_loop() {
    let truth = EulerAngles::from_degrees(2.0, -1.5, 2.5);
    let mut config = SystemConfig::demo(truth);
    config.scenario.duration_s = 40.0;
    config.scenario.seed = 9004;
    let profile = urban_drive(config.scenario.duration_s);
    let report = run_system(&profile, &config);

    // Fusion converged through the serial + quantization chain.
    for err in report.error_deg {
        assert!(err.abs() < 1.0, "error {err}");
    }
    // Clean serial links.
    assert_eq!(report.stream.dmu_errors, 0);
    assert_eq!(report.stream.acc_errors, 0);
    // Control block carries the (quantized) estimate.
    for (c, e) in report
        .control_angles_deg
        .iter()
        .zip(report.estimate.angles.to_degrees())
    {
        assert!((c - e).abs() < 0.01, "control {c} vs estimate {e}");
    }
    // Video correction visibly helps; real-time budgets hold.
    assert!(report.psnr_corrected_db > report.psnr_misaligned_db + 3.0);
    assert!(report.kalman_cpu_utilization < 1.0);
    assert!(report.video_fps_budget > 25.0);
}

#[test]
fn estimator_survives_imu_outage() {
    // The DMU stream dies for 10 s mid-run (connector bump); the
    // estimator must hold its estimate and resume cleanly.
    use sensor_fusion_fpga::fusion::BoresightEstimator;
    use sensor_fusion_fpga::math::{
        rng::seeded_rng, GaussianSampler, Vec2, Vec3, STANDARD_GRAVITY,
    };
    use sensor_fusion_fpga::sensor::DmuSample;

    let truth = EulerAngles::from_degrees(2.0, -1.0, 1.5);
    let c_sb = truth.dcm().transpose();
    let mut est = BoresightEstimator::new(EstimatorConfig::paper_static());
    let mut rng = seeded_rng(77);
    let mut gauss = GaussianSampler::new();
    let g = STANDARD_GRAVITY;
    let mut updates_during_outage = 0u64;
    for i in 0..30_000usize {
        let t = i as f64 * 0.005;
        let f = Vec3::new([
            2.0 * (0.5 * t).sin() + g * 0.2 * (0.07 * t).sin(),
            1.5 * (0.33 * t).cos(),
            g,
        ]);
        let outage = (40.0..50.0).contains(&t);
        if i % 2 == 0 && !outage {
            est.on_dmu(&DmuSample {
                seq: (i / 2) as u16,
                time_s: t,
                gyro: Vec3::zeros(),
                accel: f,
            });
        }
        let f_s = c_sb.rotate(f);
        let z = Vec2::new([
            f_s[0] + gauss.sample_scaled(&mut rng, 0.0, 0.007),
            f_s[1] + gauss.sample_scaled(&mut rng, 0.0, 0.007),
        ]);
        let update = est.on_acc(t, z);
        if outage && update.is_some() {
            updates_during_outage += 1;
        }
    }
    // Updates during the outage ran against stale IMU data (gated or
    // absorbed); the final estimate must still be accurate.
    let err = est.estimate().angles.error_to(&truth);
    assert!(
        sensor_fusion_fpga::math::rad_to_deg(err.max_abs()) < 0.3,
        "error {:?} deg (outage updates: {updates_during_outage})",
        err.to_degrees()
    );
}

#[test]
fn saturated_acc_does_not_poison_the_estimate() {
    // Hard manoeuvres push the ADXL202 beyond +/-2 g; the clipped
    // samples disagree with the model and the gate must reject them.
    use sensor_fusion_fpga::fusion::BoresightEstimator;
    use sensor_fusion_fpga::math::{
        rng::seeded_rng, GaussianSampler, Vec2, Vec3, STANDARD_GRAVITY,
    };
    use sensor_fusion_fpga::sensor::DmuSample;

    let truth = EulerAngles::from_degrees(1.5, -1.0, 1.0);
    let c_sb = truth.dcm().transpose();
    let mut est = BoresightEstimator::new(EstimatorConfig::paper_static());
    let mut rng = seeded_rng(88);
    let mut gauss = GaussianSampler::new();
    let g = STANDARD_GRAVITY;
    let limit = 2.0 * g;
    for i in 0..20_000usize {
        let t = i as f64 * 0.005;
        // Periodic violent transients (pothole strikes): f_x spikes to 4 g.
        let spike = if (i % 1000) < 20 { 4.0 * g } else { 0.0 };
        let f = Vec3::new([2.0 * (0.5 * t).sin() + spike, 1.5 * (0.33 * t).cos(), g]);
        if i % 2 == 0 {
            est.on_dmu(&DmuSample {
                seq: (i / 2) as u16,
                time_s: t,
                gyro: Vec3::zeros(),
                accel: f,
            });
        }
        let f_s = c_sb.rotate(f);
        // ACC clips at +/-2 g; IMU (4 g range) does not.
        let z = Vec2::new([
            (f_s[0] + gauss.sample_scaled(&mut rng, 0.0, 0.007)).clamp(-limit, limit),
            (f_s[1] + gauss.sample_scaled(&mut rng, 0.0, 0.007)).clamp(-limit, limit),
        ]);
        est.on_acc(t, z);
    }
    let err = est.estimate().angles.error_to(&truth);
    assert!(
        sensor_fusion_fpga::math::rad_to_deg(err.max_abs()) < 0.3,
        "error {:?} deg with {} rejections",
        err.to_degrees(),
        est.filter().rejected_count()
    );
    assert!(est.filter().rejected_count() > 0, "gate never fired");
}
