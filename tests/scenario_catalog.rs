//! Integration tests for the declarative scenario layer: catalog
//! contract, seed determinism, substrate health, and the literal pin
//! of the paper baseline every spec starts from.

use sensor_fusion_fpga::fusion::spec::{
    EnvironmentSpec, ScenarioSpec, ScenarioSuite, Substrate, TrajectorySpec, TuningSpec,
};
use sensor_fusion_fpga::fusion::{catalog, EstimatorConfig, LinkFaultConfig};
use sensor_fusion_fpga::math::{EulerAngles, Vec2};
use sensor_fusion_fpga::motion::VibrationConfig;
use sensor_fusion_fpga::sensor::DmuConfig;

/// The catalog honours its contract: at least ten uniquely named
/// scenarios, each resolvable by name, the paper pair present.
#[test]
fn catalog_contract() {
    let names = catalog::names();
    assert!(names.len() >= 10, "catalog has only {}", names.len());
    for required in ["paper-static", "paper-dynamic"] {
        assert!(names.iter().any(|n| n == required), "missing `{required}`");
    }
    for name in &names {
        assert!(catalog::by_name(name).is_some(), "`{name}` must resolve");
    }
}

/// Every catalog scenario is a pure function of its seed: two
/// reduced-duration runs must agree bit for bit on the estimate, the
/// traces and the exceed rate.
#[test]
fn every_catalog_scenario_is_seed_deterministic() {
    for spec in catalog::all() {
        let spec = spec.with_duration(12.0);
        let a = spec.run();
        let b = spec.run();
        assert_eq!(a.estimate, b.estimate, "{} estimate drifted", spec.name);
        assert_eq!(a.residuals, b.residuals, "{} residuals drifted", spec.name);
        assert_eq!(
            a.exceed_rate.to_bits(),
            b.exceed_rate.to_bits(),
            "{} exceed rate drifted",
            spec.name
        );
    }
}

/// The full scenario x substrate matrix completes with finite
/// estimates, finite confidence bounds and no covariance-indefinite
/// states on all three substrates — and the instrumentation the
/// non-reference substrates carry is actually populated.
#[test]
fn catalog_matrix_is_healthy_on_all_substrates() {
    let report = ScenarioSuite::full_matrix()
        .with_duration(8.0)
        .run_parallel(0);
    assert_eq!(report.cells.len(), catalog::all().len() * 3);
    let unhealthy: Vec<String> = report
        .unhealthy()
        .iter()
        .map(|c| format!("{}/{}", c.scenario, c.substrate))
        .collect();
    assert!(unhealthy.is_empty(), "unhealthy cells: {unhealthy:?}");
    for cell in &report.cells {
        match cell.substrate {
            Substrate::F64 => assert_eq!(cell.cycles, 0, "{}: host FPU", cell.scenario),
            Substrate::Softfloat | Substrate::Q16_16 | Substrate::Adaptive => {
                assert!(
                    cell.ops > 0,
                    "{}/{} counted no ops",
                    cell.scenario,
                    cell.substrate
                );
                assert!(
                    cell.cycles > 0,
                    "{}/{} accounted no cycles",
                    cell.scenario,
                    cell.substrate
                );
            }
        }
        assert!(
            cell.summary.estimate.updates > 0,
            "{} made no updates",
            cell.scenario
        );
    }
    // The fault-storm cell actually exercised the injectors.
    let storm = report
        .cell("can-fault-storm", Substrate::F64)
        .expect("fault-storm cell");
    let stream = storm.summary.stream.expect("comms cell has stream stats");
    assert!(stream.fault_bits_flipped > 0, "no bits flipped: {stream:?}");
}

fn debug(x: &impl std::fmt::Debug) -> String {
    format!("{x:?}")
}

/// The paper baseline, field by field. `ScenarioSpec::named` and
/// `ScenarioSpec::config` are the only source of these constants, and
/// the dynamic form moves only the environment and the tuning. The
/// catalog's paper entries are these two forms with their own truth
/// and seed. The expected-bits runs in `tests/arith_full_filter.rs`
/// pin what the two forms compute.
#[test]
fn paper_baseline_lowers_to_its_literal_config() {
    let mut dmu = DmuConfig::default();
    dmu.accel.error.noise_std = 0.004;
    let assert_baseline =
        |spec: &ScenarioSpec, vibration: VibrationConfig, flexure: f64, tuning: EstimatorConfig| {
            let cfg = spec.config();
            assert_eq!(cfg.true_misalignment, EulerAngles::zero());
            assert_eq!(cfg.true_acc_bias, Vec2::new([0.02, -0.015]));
            assert_eq!(cfg.duration_s, 300.0);
            assert_eq!(debug(&cfg.dmu), debug(&dmu));
            assert_eq!(cfg.acc_noise_sigma, 0.005);
            assert_eq!(cfg.acc_rate_hz, 200.0);
            assert_eq!(debug(&cfg.vibration), debug(&vibration));
            assert_eq!(cfg.differential_vibration, flexure);
            assert_eq!(debug(&cfg.estimator), debug(&tuning));
            assert_eq!(cfg.link_faults, LinkFaultConfig::clean());
            assert_eq!(cfg.seed, 0xB0B5);
            assert_eq!(cfg.trace_decimation, 10);
        };

    let paper_static = ScenarioSpec::named("x");
    assert_baseline(
        &paper_static,
        VibrationConfig::none(),
        0.0,
        EstimatorConfig::paper_static(),
    );
    let paper_dynamic = ScenarioSpec::named("x")
        .with_trajectory(TrajectorySpec::Urban)
        .with_environment(EnvironmentSpec::passenger_car())
        .with_tuning(TuningSpec::Dynamic);
    assert_baseline(
        &paper_dynamic,
        VibrationConfig::passenger_car(),
        0.1,
        EstimatorConfig::paper_dynamic(),
    );

    for (entry, form, seed) in [
        (catalog::paper_static(), paper_static, 101),
        (catalog::paper_dynamic(), paper_dynamic, 102),
    ] {
        assert_eq!(entry.seed, seed, "{}", entry.name);
        assert_eq!(entry.trajectory, form.trajectory, "{}", entry.name);
        let form = form.with_truth(entry.truth).with_seed(seed);
        assert_eq!(
            debug(&entry.config()),
            debug(&form.config()),
            "{}",
            entry.name
        );
    }
}

/// The hill-climb scenario exercises the new `Grade` segment: pitch
/// excitation arrives on the road (not a tilt table) and the estimate
/// still converges on the reference substrate.
#[test]
fn hill_climb_converges_via_grade_segments() {
    let spec = catalog::by_name("hill-climb")
        .expect("hill-climb entry")
        .with_duration(120.0);
    let result = spec.run();
    assert!(
        result.max_error_deg() < 1.0,
        "errors {:?}",
        result.error_deg()
    );
}
