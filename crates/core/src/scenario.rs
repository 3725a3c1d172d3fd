//! Scenario records: what a scenario lowers to and what a run returns.
//!
//! Scenarios are authored as [`crate::spec::ScenarioSpec`]s. A spec
//! lowers through [`crate::spec::ScenarioSpec::config`] to the flat
//! [`ScenarioConfig`] record the instrument sources read, and a
//! finished [`crate::session::FusionSession`] yields a [`RunResult`]:
//! per-axis residuals with their 3-sigma bounds (Figure 8), the
//! misalignment estimate trajectory with covariance (Figure 9), and
//! the final estimate vs truth with confidence (Table 1).

use crate::estimator::{EstimatorConfig, MisalignmentEstimate};
use crate::session::LinkFaultConfig;
use mathx::{rad_to_deg, EulerAngles, Vec2};
use sensors::DmuConfig;
use vehicle::VibrationConfig;

/// The flat record a [`crate::spec::ScenarioSpec`] lowers to: every
/// instrument, environment and tuning setting of one run, with the
/// paper's sensor constants filled in.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// The true mounting misalignment to inject (and later compare
    /// against — the role the laser reference plays in the paper).
    pub true_misalignment: EulerAngles,
    /// True ACC biases, m/s^2.
    pub true_acc_bias: Vec2,
    /// Run length, seconds (the paper runs 300 s).
    pub duration_s: f64,
    /// DMU instrument configuration.
    pub dmu: DmuConfig,
    /// ACC white-noise sigma per sample, m/s^2 (instrument noise; the
    /// paper's static floor).
    pub acc_noise_sigma: f64,
    /// ACC sample rate, Hz.
    pub acc_rate_hz: f64,
    /// Common rigid-body vibration (sensed coherently by both
    /// instruments).
    pub vibration: VibrationConfig,
    /// Differential vibration sensed only by the ACC (mount flexure) as
    /// a fraction of the common vibration intensity — this is the term
    /// that forces the paper's dynamic retuning.
    pub differential_vibration: f64,
    /// Estimator configuration.
    pub estimator: EstimatorConfig,
    /// Byte-level fault rates on the serial links (only exercised when
    /// the scenario runs through the comms chain; the default is a
    /// clean channel).
    pub link_faults: LinkFaultConfig,
    /// RNG seed (scenarios are fully deterministic given the seed).
    pub seed: u64,
    /// Keep every n-th residual/estimate point in the trace (1 = all).
    pub trace_decimation: usize,
}

/// One point of the residual trace (Figure 8).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResidualPoint {
    /// Time, seconds.
    pub time_s: f64,
    /// X-axis innovation, m/s^2.
    pub residual_x: f64,
    /// X-axis 3-sigma bound, m/s^2.
    pub three_sigma_x: f64,
    /// Y-axis innovation, m/s^2.
    pub residual_y: f64,
    /// Y-axis 3-sigma bound, m/s^2.
    pub three_sigma_y: f64,
}

/// One point of the estimate trace (Figure 9).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EstimatePoint {
    /// Time, seconds.
    pub time_s: f64,
    /// Estimated angles, degrees.
    pub angles_deg: [f64; 3],
    /// 3-sigma bounds, degrees.
    pub three_sigma_deg: [f64; 3],
}

/// Everything a run produces.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// The injected truth.
    pub truth: EulerAngles,
    /// Final estimate with confidence.
    pub estimate: MisalignmentEstimate,
    /// Residual trace (decimated).
    pub residuals: Vec<ResidualPoint>,
    /// Estimate trace (decimated).
    pub estimates: Vec<EstimatePoint>,
    /// Fraction of residuals beyond 3 sigma over the whole run.
    pub exceed_rate: f64,
    /// Measurement sigma in force at the end (after any retunes).
    pub final_sigma: f64,
    /// Number of adaptive retunes that fired.
    pub retune_count: usize,
}

impl RunResult {
    /// Per-axis estimation error, degrees.
    pub fn error_deg(&self) -> [f64; 3] {
        let e = self.estimate.angles.error_to(&self.truth);
        [rad_to_deg(e.roll), rad_to_deg(e.pitch), rad_to_deg(e.yaw)]
    }

    /// Largest absolute per-axis error, degrees.
    pub fn max_error_deg(&self) -> f64 {
        self.error_deg().iter().fold(0.0_f64, |m, e| m.max(e.abs()))
    }

    /// Pooled-axis RMS estimation error over the converged (second)
    /// half of the estimate trace, degrees — the per-cell error metric
    /// the arithmetic ablation and the scenario sweep share. `NaN`
    /// when no trace was recorded.
    pub fn error_rms_deg(&self) -> f64 {
        let truth = self.truth.to_degrees();
        let tail = &self.estimates[self.estimates.len() / 2..];
        if tail.is_empty() {
            return f64::NAN;
        }
        let mean_sq: f64 = tail
            .iter()
            .map(|p| {
                (0..3)
                    .map(|i| (p.angles_deg[i] - truth[i]).powi(2))
                    .sum::<f64>()
                    / 3.0
            })
            .sum::<f64>()
            / tail.len() as f64;
        mean_sq.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{EnvironmentSpec, ScenarioSpec, TrajectorySpec, TuningSpec};

    fn short_static(truth: EulerAngles, seed: u64) -> RunResult {
        ScenarioSpec::named("short-static")
            .with_truth(truth)
            .with_duration(80.0)
            .with_seed(seed)
            .run()
    }

    fn dynamic(truth: EulerAngles) -> ScenarioSpec {
        ScenarioSpec::named("dynamic")
            .with_truth(truth)
            .with_trajectory(TrajectorySpec::Urban)
            .with_environment(EnvironmentSpec::passenger_car())
            .with_tuning(TuningSpec::Dynamic)
    }

    #[test]
    fn static_run_estimates_misalignment() {
        let truth = EulerAngles::from_degrees(2.0, -3.0, 1.5);
        let result = short_static(truth, 1);
        assert!(
            result.max_error_deg() < 0.3,
            "errors {:?}",
            result.error_deg()
        );
        assert!(result.estimate.updates > 10_000);
    }

    #[test]
    fn static_residuals_stay_inside_three_sigma() {
        let result = short_static(EulerAngles::from_degrees(1.0, 1.0, 1.0), 2);
        assert!(result.exceed_rate < 0.03, "rate {}", result.exceed_rate);
    }

    #[test]
    fn dynamic_run_converges_with_vibration() {
        let truth = EulerAngles::from_degrees(3.0, -2.0, 2.5);
        let result = dynamic(truth).with_duration(120.0).run();
        assert!(
            result.max_error_deg() < 0.6,
            "errors {:?}",
            result.error_deg()
        );
    }

    #[test]
    fn static_tuning_on_dynamic_run_forces_retune() {
        // The Figure-8 narrative: a filter tuned for the static floor
        // sees vibration residuals breaching 3 sigma, and the monitor
        // raises R.
        let truth = EulerAngles::from_degrees(2.0, 2.0, 2.0);
        let mut estimator = EstimatorConfig::paper_dynamic();
        estimator.filter.measurement_sigma = 0.004; // static tuning
        let result = dynamic(truth)
            .with_tuning(TuningSpec::Custom(estimator))
            .with_duration(60.0)
            .run();
        assert!(result.retune_count > 0, "no retune fired");
        assert!(result.final_sigma > 0.004);
    }

    #[test]
    fn traces_are_recorded() {
        let result = short_static(EulerAngles::from_degrees(1.0, 0.5, -0.5), 3);
        assert!(!result.residuals.is_empty());
        assert!(!result.estimates.is_empty());
        // Time is monotonic.
        for w in result.residuals.windows(2) {
            assert!(w[1].time_s > w[0].time_s);
        }
        // 3-sigma bounds are positive.
        assert!(result.residuals.iter().all(|p| p.three_sigma_x > 0.0));
    }

    #[test]
    fn deterministic_given_seed() {
        let truth = EulerAngles::from_degrees(1.0, 1.0, 1.0);
        let a = short_static(truth, 7);
        let b = short_static(truth, 7);
        assert_eq!(a.estimate.angles, b.estimate.angles);
        assert_eq!(a.exceed_rate, b.exceed_rate);
    }

    #[test]
    fn different_seeds_agree_on_the_answer() {
        // Run-to-run repeatability — the paper's two dynamic tests
        // "show very close agreement". Short (80 s) runs leave a few
        // tenths of a degree of bias/angle separation error, so the
        // agreement tolerance reflects that; the 300 s Table-1 runs
        // agree much more closely.
        let truth = EulerAngles::from_degrees(2.0, -1.0, 1.0);
        let a = short_static(truth, 11);
        let b = short_static(truth, 12);
        for (ea, eb) in a.error_deg().iter().zip(b.error_deg().iter()) {
            assert!((ea - eb).abs() < 0.8, "{ea} vs {eb}");
        }
    }
}
