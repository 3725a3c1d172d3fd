//! Regenerates **Figure 9**: sample results from a dynamic test — the
//! roll/pitch/yaw misalignment estimates converging over the drive,
//! with their 3-sigma confidence envelopes.
//!
//! Run with `cargo run --release -p bench_suite --bin figure9
//! [duration_s] [substrate]`. The substrate (`f64`, `softfloat` or
//! `q16.16`, default `f64`) selects which arithmetic the full 5-state
//! IEKF runs over — the generic filter makes Figure 9 reproducible for
//! the paper's emulated-float deployment and the proposed fixed-point
//! conversion, not just the host reference.

use bench_suite::{print_table, write_csv};
use boresight::spec::{EnvironmentSpec, ScenarioSpec, Substrate, TrajectorySpec, TuningSpec};
use mathx::EulerAngles;

fn main() {
    let duration = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(300.0);
    let substrate = std::env::args().nth(2).unwrap_or_else(|| "f64".into());
    let truth = EulerAngles::from_degrees(3.0, -2.0, 2.5);
    let result = ScenarioSpec::named("figure9")
        .with_truth(truth)
        .with_trajectory(TrajectorySpec::Urban)
        .with_environment(EnvironmentSpec::passenger_car())
        .with_tuning(TuningSpec::Dynamic)
        .with_duration(duration)
        .with_seed(401)
        .with_substrate(Substrate::parse(&substrate).unwrap_or_else(|| {
            panic!("unknown substrate `{substrate}` (use f64, softfloat or q16.16)")
        }))
        .run();

    let t: Vec<f64> = result.estimates.iter().map(|p| p.time_s).collect();
    let columns: Vec<Vec<f64>> = (0..3)
        .flat_map(|axis| {
            let angle: Vec<f64> = result
                .estimates
                .iter()
                .map(|p| p.angles_deg[axis])
                .collect();
            let sigma: Vec<f64> = result
                .estimates
                .iter()
                .map(|p| p.three_sigma_deg[axis])
                .collect();
            [angle, sigma]
        })
        .collect();
    let csv_name = if substrate == "f64" {
        "figure9_dynamic_estimates.csv".to_string()
    } else {
        format!(
            "figure9_dynamic_estimates_{}.csv",
            substrate.replace('.', "_")
        )
    };
    let path = write_csv(
        &csv_name,
        &[
            ("time_s", &t),
            ("roll_deg", &columns[0]),
            ("roll_3sigma_deg", &columns[1]),
            ("pitch_deg", &columns[2]),
            ("pitch_3sigma_deg", &columns[3]),
            ("yaw_deg", &columns[4]),
            ("yaw_3sigma_deg", &columns[5]),
        ],
    );
    println!("wrote {}", path.display());

    // Convergence summary: estimate at a few checkpoints.
    let checkpoints = [0.05, 0.1, 0.25, 0.5, 1.0];
    let mut rows = Vec::new();
    for frac in checkpoints {
        let target = frac * duration;
        if let Some(p) = result.estimates.iter().min_by(|a, b| {
            (a.time_s - target)
                .abs()
                .partial_cmp(&(b.time_s - target).abs())
                .expect("finite")
        }) {
            rows.push(vec![
                format!("{:.0}", p.time_s),
                format!(
                    "{:+.3}/{:+.3}/{:+.3}",
                    p.angles_deg[0], p.angles_deg[1], p.angles_deg[2]
                ),
                format!(
                    "{:.3}/{:.3}/{:.3}",
                    p.three_sigma_deg[0], p.three_sigma_deg[1], p.three_sigma_deg[2]
                ),
            ]);
        }
    }
    let truth_deg = truth.to_degrees();
    print_table(
        &format!(
            "Figure 9: dynamic estimate convergence over iekf5/{substrate} (truth {:+.2}/{:+.2}/{:+.2} deg)",
            truth_deg[0], truth_deg[1], truth_deg[2]
        ),
        &["t (s)", "estimate r/p/y (deg)", "3-sigma r/p/y (deg)"],
        &rows,
    );
    println!(
        "\nfinal error: {:+.3}/{:+.3}/{:+.3} deg; exceed rate {:.2}%",
        result.error_deg()[0],
        result.error_deg()[1],
        result.error_deg()[2],
        result.exceed_rate * 100.0
    );
}
