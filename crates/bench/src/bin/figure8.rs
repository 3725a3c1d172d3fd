//! Regenerates **Figure 8**: X-axis residuals and their 3-sigma bound
//! for a static run (top) and a dynamic run (bottom).
//!
//! The paper shows the static residuals sitting well inside the
//! 3-sigma envelope, while the moving tests — with the filter still on
//! its static tuning — breach the envelope far more often than the
//! expected once-per-100-samples, which is what motivated raising the
//! measurement noise to 0.015 m/s^2 or more. This binary reproduces
//! all three traces (static; dynamic mistuned; dynamic retuned) and
//! writes them as CSV for plotting.
//!
//! Run with `cargo run --release -p bench_suite --bin figure8`.

use bench_suite::{print_table, write_csv};
use boresight::estimator::EstimatorConfig;
use boresight::scenario::RunResult;
use boresight::spec::{EnvironmentSpec, ScenarioSpec, TrajectorySpec, TuningSpec};
use mathx::EulerAngles;

fn dump(name: &str, result: &RunResult) {
    let t: Vec<f64> = result.residuals.iter().map(|p| p.time_s).collect();
    let rx: Vec<f64> = result.residuals.iter().map(|p| p.residual_x).collect();
    let sx: Vec<f64> = result.residuals.iter().map(|p| p.three_sigma_x).collect();
    let nsx: Vec<f64> = result.residuals.iter().map(|p| -p.three_sigma_x).collect();
    let path = write_csv(
        name,
        &[
            ("time_s", &t),
            ("residual_x", &rx),
            ("three_sigma", &sx),
            ("neg_three_sigma", &nsx),
        ],
    );
    println!("wrote {}", path.display());
}

fn summarize(label: &str, result: &RunResult) -> Vec<String> {
    let rms = {
        let mut acc = 0.0;
        for p in &result.residuals {
            acc += p.residual_x * p.residual_x;
        }
        (acc / result.residuals.len().max(1) as f64).sqrt()
    };
    vec![
        label.to_string(),
        format!("{:.4}", rms),
        format!(
            "{:.4}",
            result.residuals.last().map_or(0.0, |p| p.three_sigma_x)
        ),
        format!("{:.2}%", result.exceed_rate * 100.0),
        format!("{}", result.retune_count),
        format!("{:.4}", result.final_sigma),
    ]
}

fn main() {
    let duration = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(300.0);
    let truth = EulerAngles::from_degrees(2.0, -2.0, 2.0);

    // Every run holds its tuning fixed (no monitor) for the figure.
    let fixed = |mut tuning: EstimatorConfig| {
        tuning.monitor = None;
        TuningSpec::Custom(tuning)
    };

    // Static run: static tuning, residuals inside the envelope.
    let static_run = ScenarioSpec::named("figure8-static")
        .with_truth(truth)
        .with_duration(duration)
        .with_seed(301)
        .with_tuning(fixed(EstimatorConfig::paper_static()))
        .run();

    // The dynamic test (urban drive, passenger-car vibration) on the
    // dynamic tuning with measurement sigma `r`.
    let dynamic = |r| {
        let mut tuning = EstimatorConfig::paper_dynamic();
        tuning.filter.measurement_sigma = r;
        ScenarioSpec::named("figure8-dynamic")
            .with_truth(truth)
            .with_trajectory(TrajectorySpec::Urban)
            .with_environment(EnvironmentSpec::passenger_car())
            .with_duration(duration)
            .with_seed(302)
            .with_tuning(fixed(tuning))
            .run()
    };
    // Dynamic run with the *static* tuning: envelope breached.
    let mistuned_run = dynamic(0.005);
    // Dynamic run retuned to >= 0.015 (the paper's fix).
    let retuned_run = dynamic(0.015);

    dump("figure8_static.csv", &static_run);
    dump("figure8_dynamic_mistuned.csv", &mistuned_run);
    dump("figure8_dynamic_retuned.csv", &retuned_run);

    print_table(
        "Figure 8: X-axis residuals vs 3-sigma",
        &[
            "run",
            "residual rms (m/s^2)",
            "final 3-sigma (m/s^2)",
            "exceed rate",
            "retunes",
            "final sigma",
        ],
        &[
            summarize("static (R=0.005)", &static_run),
            summarize("dynamic, static tuning (R=0.005)", &mistuned_run),
            summarize("dynamic, retuned (R=0.015)", &retuned_run),
        ],
    );
    println!("\npaper narrative: static well within 3-sigma (~<1% exceed);");
    println!("dynamic with static tuning exceeds far more often; raising R to");
    println!(">=0.015 restores the once-per-100-samples behaviour.");
}
