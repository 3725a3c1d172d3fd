//! Quickstart: boresight a misaligned sensor on a tilt table.
//!
//! Injects a known misalignment, runs the paper's static test
//! procedure for 60 seconds, and prints the estimate with its 3-sigma
//! (~99 %) confidence — the numbers a Table-1 row is made of.
//!
//! Run with `cargo run --release --example quickstart`.

use boresight::spec::ScenarioSpec;
use mathx::EulerAngles;

fn main() {
    // The misalignment a laser boresight tool would measure: the
    // "truth" our estimator must recover.
    let truth = EulerAngles::from_degrees(2.0, -3.0, 1.5);
    println!("true misalignment  : {:+.3?} deg", truth.to_degrees());

    let result = ScenarioSpec::named("quickstart")
        .with_truth(truth)
        .with_duration(60.0)
        .run();

    let est = result.estimate;
    println!("estimated          : {:+.3?} deg", est.angles.to_degrees());
    println!("error              : {:+.3?} deg", result.error_deg());
    println!("3-sigma confidence : {:.3?} deg", est.three_sigma_deg());
    println!("filter updates     : {}", est.updates);
    println!(
        "residuals beyond 3-sigma: {:.2}% (expect about 1%)",
        result.exceed_rate * 100.0
    );
    println!(
        "meets 0.5 deg requirement: {}",
        if result.max_error_deg() < 0.5 {
            "yes"
        } else {
            "no"
        }
    );
}
