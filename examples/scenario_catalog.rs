//! The declarative scenario layer: author a workload as pure data,
//! pull named ones from the catalog, and sweep a scenario × substrate
//! matrix in a few lines.
//!
//! Part one lists the catalog. Part two composes a custom
//! `ScenarioSpec` — a mountain descent with emergency stops on a
//! rough road — and runs it batch-style. Part three runs a reduced
//! three-scenario suite over all arithmetic substrates and prints the
//! per-cell report the `scenario_matrix` bench serializes.
//!
//! Run with `cargo run --release --example scenario_catalog`.

use sensor_fusion_fpga::fusion::catalog;
use sensor_fusion_fpga::fusion::spec::{
    EnvironmentSpec, ScenarioSpec, ScenarioSuite, TrajectorySpec, TuningSpec,
};
use sensor_fusion_fpga::math::EulerAngles;
use sensor_fusion_fpga::motion::Segment;

fn trajectory_kind(spec: &ScenarioSpec) -> String {
    match &spec.trajectory {
        TrajectorySpec::TiltSequence { tilt_deg } => format!("tilt table ({tilt_deg} deg)"),
        TrajectorySpec::Level => "level bench".into(),
        TrajectorySpec::Urban => "urban drive".into(),
        TrajectorySpec::Highway => "highway drive".into(),
        TrajectorySpec::Segments { block } => format!("{}-segment loop", block.len()),
    }
}

fn main() {
    // --- Part 1: the named catalog ----------------------------------
    println!("catalog ({} scenarios):", catalog::all().len());
    for spec in catalog::all() {
        println!(
            "  {:>18}  {:>6.0} s  {}",
            spec.name,
            spec.duration_s,
            trajectory_kind(&spec)
        );
    }

    // --- Part 2: compose a scenario the paper never ran -------------
    let descent = ScenarioSpec::named("mountain-descent")
        .with_truth(EulerAngles::from_degrees(2.0, -2.5, 1.5))
        .with_trajectory(TrajectorySpec::Segments {
            block: vec![
                Segment::accelerate(5.0, 2.0),
                Segment::grade(8.0, -0.06), // 6 % downhill
                Segment::turn(4.0, 0.3),
                Segment::brake(2.0, 6.0), // hard stop
                Segment::idle(2.0),
            ],
        })
        .with_environment(EnvironmentSpec::rough_road())
        .with_tuning(TuningSpec::Dynamic)
        .with_duration(90.0);
    let result = descent.run();
    println!(
        "\nmountain-descent: worst error {:.3} deg, {} retunes, exceed rate {:.4}",
        result.max_error_deg(),
        result.retune_count,
        result.exceed_rate
    );

    // --- Part 3: a scenario x substrate sweep ------------------------
    let suite = ScenarioSuite::new(vec![
        catalog::paper_static(),
        catalog::emergency_brake(),
        catalog::can_fault_storm(),
        descent,
    ])
    .with_duration(30.0);
    println!("\nscenario x substrate matrix (30 s cells):");
    for cell in suite.run_parallel(0).cells {
        println!(
            "  {:>18} {:>9}  rms {:>7.4} deg  retunes {:>2}  saturations {:>3}  cycles/sample {:>7.0}{}",
            cell.scenario,
            cell.substrate.label(),
            cell.summary.error_rms_deg,
            cell.summary.retune_count,
            cell.summary.saturations,
            cell.cycles_per_sample,
            cell.summary.stream
                .map(|s| format!(
                    "  wire: {} flips / {} drops",
                    s.fault_bits_flipped, s.fault_bytes_dropped
                ))
                .unwrap_or_default()
        );
    }
}
