//! Multi-sensor alignment — the paper's future-work extension, live.
//!
//! A camera and a lidar each carry their own two-axis accelerometer;
//! both are aligned to the single vehicle-fixed IMU. Because each
//! sensor lands in the common body frame, the camera-to-lidar rotation
//! falls out for free — the cross-calibration a fused "low-cost
//! situational awareness" stack needs, without ever calibrating the
//! sensors against each other. Both sensors share one IMU front end
//! and run as two lanes of one lockstep IEKF (`LaneBank`).
//!
//! Run with `cargo run --release --example multi_sensor`.

use boresight::arith::F64Arith;
use boresight::lanes::LaneBank;
use boresight::session::FusionBackend;
use boresight::EstimatorConfig;
use mathx::{rng::seeded_rng, EulerAngles, GaussianSampler, Vec2, Vec3, STANDARD_GRAVITY};
use sensors::DmuSample;

fn main() {
    let camera_truth = EulerAngles::from_degrees(2.0, -1.0, 1.5);
    let lidar_truth = EulerAngles::from_degrees(-3.0, 2.0, -1.0);
    println!("camera mounted at : {:+.3?} deg", camera_truth.to_degrees());
    println!("lidar mounted at  : {:+.3?} deg", lidar_truth.to_degrees());

    let names = ["camera", "lidar"];
    let mut bank: LaneBank<F64Arith, 2> = LaneBank::new(EstimatorConfig::paper_static());

    let c_cam = camera_truth.dcm().transpose();
    let c_lid = lidar_truth.dcm().transpose();
    let mut rng = seeded_rng(4242);
    let mut gauss = GaussianSampler::new();
    let g = STANDARD_GRAVITY;
    let n = 40_000usize; // 200 s at 200 Hz
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
        for (idx, c) in [(0usize, &c_cam), (1usize, &c_lid)] {
            let f_s = c.rotate(f);
            let z = Vec2::new([
                f_s[0] + gauss.sample_scaled(&mut rng, 0.0, 0.007),
                f_s[1] + gauss.sample_scaled(&mut rng, 0.0, 0.007),
            ]);
            bank.ingest_acc(idx, t, z);
        }
    }

    println!();
    for (i, name) in names.iter().enumerate() {
        let est = bank.estimate_for(i);
        println!(
            "{name:>6}: estimate {:+.3?} deg, 3-sigma {:.3?} deg",
            est.angles.to_degrees(),
            est.three_sigma_deg()
        );
    }

    let rel = bank.relative_alignment(0, 1);
    let expected = (lidar_truth.dcm().transpose() * camera_truth.dcm()).euler();
    println!();
    println!(
        "camera->lidar rotation (estimated) : {:+.3?} deg",
        rel.to_degrees()
    );
    println!(
        "camera->lidar rotation (truth)     : {:+.3?} deg",
        expected.to_degrees()
    );
    println!("(no direct camera/lidar calibration was performed)");
}
