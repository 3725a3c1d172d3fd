//! The full Figure-2/Figure-3 system: sensors on their buses, the
//! CAN-to-RS232 bridge, serial reconstruction, the fusion filter, the
//! Sabre soft core publishing to its control block, and the affine
//! video correction — one end-to-end simulation.
//!
//! Run with `cargo run --release --example fpga_system`.

use boresight::system::{run_system, SystemConfig};
use mathx::EulerAngles;
use vehicle::profile::presets::urban_drive;

fn main() {
    let truth = EulerAngles::from_degrees(2.0, -1.5, 2.5);
    let mut config = SystemConfig::demo(truth);
    config.scenario.duration_s = 60.0;
    let profile = urban_drive(config.scenario.duration_s);

    println!(
        "running the full system for {:.0} s of urban driving...",
        config.scenario.duration_s
    );
    let report = run_system(&profile, &config);

    println!("\n--- fusion ---");
    println!("true misalignment : {:+.3?} deg", report.truth.to_degrees());
    println!(
        "estimate          : {:+.3?} deg",
        report.estimate.angles.to_degrees()
    );
    println!("error             : {:+.3?} deg", report.error_deg);
    println!(
        "control block     : {:+.3?} deg (Q16.16 through the Sabre bus)",
        report.control_angles_deg
    );

    println!("\n--- serial links ---");
    println!("DMU samples reconstructed : {}", report.stream.dmu_samples);
    println!("ACC samples reconstructed : {}", report.stream.acc_samples);
    println!(
        "link errors (DMU/ACC)     : {}/{}",
        report.stream.dmu_errors, report.stream.acc_errors
    );
    println!(
        "sequence gaps (DMU/ACC)   : {}/{}",
        report.stream.dmu_gaps, report.stream.acc_gaps
    );
    println!("bytes transferred         : {}", report.stream.bytes_in);

    println!("\n--- Sabre soft core ---");
    println!("publish program cycles    : {}", report.sabre_cycles);
    println!("instructions retired      : {}", report.sabre_instructions);
    // The deployed 5-state IEKF runs on Softfloat (bit-identical to
    // f64), so the budget below is its exact Sabre cycle ledger.
    println!(
        "IEKF cycles/sample        : {:.0} (Softfloat accounting)",
        report.kalman_cycles_per_update
    );
    println!(
        "IEKF ops/sample           : {:.1}",
        report.kalman_ops_per_update
    );
    println!(
        "IEKF CPU @ 25 MHz         : {:.1}%",
        report.kalman_cpu_utilization * 100.0
    );

    println!("\n--- video path ---");
    println!(
        "PSNR misaligned           : {:.2} dB",
        report.psnr_misaligned_db
    );
    println!(
        "PSNR corrected            : {:.2} dB",
        report.psnr_corrected_db
    );
    println!("pipeline fps budget       : {:.0}", report.video_fps_budget);
    println!("forward-mapping holes     : {}", report.forward_holes);
}
