//! Video boresight correction: the paper's visualization.
//!
//! A camera mounted with a few degrees of misalignment observes a road
//! scene; the affine stage (fixed-point, LUT-driven, as in the FPGA)
//! corrects the picture using the fused misalignment estimate. The
//! example reports the image quality before and after correction and
//! the real-time budget of the pipelined transform.
//!
//! Run with `cargo run --release --example video_stabilization`.

use boresight::spec::ScenarioSpec;
use fpga::pipeline::FrameTiming;
use mathx::EulerAngles;
use video::affine::{transform, MappingKind};
use video::camera::CameraModel;
use video::metrics::psnr;
use video::scene;

fn main() {
    let truth = EulerAngles::from_degrees(3.0, -1.5, 2.0);
    let focal_px = 320.0;
    let (w, h) = (320u32, 240u32);

    // 1. What the misaligned camera sees.
    let reference = scene::road(w, h, 0.3);
    let camera = CameraModel::new(focal_px, truth);
    let seen = camera.observe(&reference);

    // 2. Estimate the misalignment from inertial data (30 s static).
    let estimate = ScenarioSpec::named("video-stabilization")
        .with_truth(truth)
        .with_duration(30.0)
        .run()
        .estimate;
    println!(
        "estimated misalignment: {:+.3?} deg",
        estimate.angles.to_degrees()
    );

    // 3. Correct the video with the estimate, fixed-point path.
    let correction = CameraModel::correction(&estimate.angles, focal_px, w, h);
    let (corrected, stats) = transform(&seen, &correction, MappingKind::FixedInverse);

    // 4. Quality on the interior (borders are clipped by the shift).
    let margin = 40;
    let crop = |f: &video::Frame| f.crop(margin, margin, w - 2 * margin, h - 2 * margin);
    println!(
        "PSNR misaligned vs reference : {:6.2} dB",
        psnr(&crop(&reference), &crop(&seen))
    );
    println!(
        "PSNR corrected vs reference  : {:6.2} dB",
        psnr(&crop(&reference), &crop(&corrected))
    );
    println!("gather transform cycles      : {}", stats.cycles);

    // 5. The paper-faithful forward mapping for comparison (holes!).
    let (_, fwd) = transform(&seen, &correction, MappingKind::FixedForward);
    println!(
        "forward-mapping holes        : {} px ({:.2}% of frame)",
        fwd.holes,
        fwd.holes as f64 / (w * h) as f64 * 100.0
    );

    // 6. Real-time budget at the RC200E pixel clock.
    let timing = FrameTiming {
        width: w,
        height: h,
        clock_hz: 65e6,
    };
    println!(
        "pipeline budget              : {:.0} fps at 65 MHz (need 25-30)",
        timing.max_fps()
    );
}
