//! Shared per-vehicle result reporting.
//!
//! One vehicle's run — whether it executed as a standalone
//! [`crate::session::FusionSession`], as a cell of a
//! [`crate::spec::ScenarioSuite`] sweep, or as a slot in a
//! [`crate::fleet::Fleet`] arena — is summarized by the same
//! [`VehicleSummary`]: final estimate vs. truth, converged RMS error,
//! residual health, adaptive retunes, substrate saturations and the
//! serial-link fault counters. Consumers (the bench matrix, the CI
//! health gates, the fleet server's eviction log) all read one shape
//! instead of re-assembling the fields inline.

use crate::estimator::MisalignmentEstimate;
use crate::scenario::RunResult;
use comms::StreamStats;
use mathx::{rad_to_deg, EulerAngles};

/// Everything one vehicle's run is judged by, detached from how the
/// run was executed.
#[derive(Clone, Debug)]
pub struct VehicleSummary {
    /// Injected truth.
    pub truth: EulerAngles,
    /// Final estimate with confidence.
    pub estimate: MisalignmentEstimate,
    /// Converged-half pooled-axis boresight RMS error, degrees (`NaN`
    /// when the run recorded no converged-half samples).
    pub error_rms_deg: f64,
    /// Final worst-axis error, degrees.
    pub final_worst_error_deg: f64,
    /// Fraction of residuals beyond 3 sigma.
    pub exceed_rate: f64,
    /// Adaptive retunes fired.
    pub retune_count: usize,
    /// Fixed-point saturation events (0 on float substrates; 0 for
    /// fleet vehicles, whose lanes share one substrate context and
    /// cannot attribute saturations per vehicle).
    pub saturations: u64,
    /// Serial-link statistics, for comms-channel runs (includes the
    /// fault-injector counters).
    pub stream: Option<StreamStats>,
    /// Substrate reconfigurations performed mid-run (0 for every
    /// static substrate; populated when the vehicle ran under an
    /// [`crate::adaptive::AdaptiveBackend`]).
    pub substrate_switches: u64,
}

impl VehicleSummary {
    /// Summarizes a batch [`RunResult`] (the suite/session path).
    pub fn from_result(result: &RunResult, saturations: u64, stream: Option<StreamStats>) -> Self {
        Self {
            truth: result.truth,
            estimate: result.estimate,
            error_rms_deg: result.error_rms_deg(),
            final_worst_error_deg: result.max_error_deg(),
            exceed_rate: result.exceed_rate,
            retune_count: result.retune_count,
            saturations,
            stream,
            substrate_switches: 0,
        }
    }

    /// Stamps the adaptive reconfiguration count onto the summary.
    pub fn with_substrate_switches(mut self, switches: u64) -> Self {
        self.substrate_switches = switches;
        self
    }

    /// Per-axis estimation error, degrees.
    pub fn error_deg(&self) -> [f64; 3] {
        let e = self.estimate.angles.error_to(&self.truth);
        [rad_to_deg(e.roll), rad_to_deg(e.pitch), rad_to_deg(e.yaw)]
    }

    /// `true` when the estimate and its confidence are finite and the
    /// covariance never went indefinite (non-negative sigmas) — the
    /// health predicate the CI smoke runs gate on.
    pub fn is_healthy(&self) -> bool {
        let a = self.estimate.angles;
        let s = self.estimate.one_sigma;
        a.roll.is_finite()
            && a.pitch.is_finite()
            && a.yaw.is_finite()
            && (0..3).all(|i| s[i].is_finite() && s[i] >= 0.0)
            && self.error_rms_deg.is_finite()
    }
}

/// Incremental pooled-axis RMS accumulator — the streaming counterpart
/// of [`RunResult::error_rms_deg`], for executors (the fleet arena)
/// that never materialize an estimate trace.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunningRms {
    sum_sq: f64,
    n: u64,
}

impl RunningRms {
    /// Folds one per-axis error sample (degrees) into the pool.
    pub fn push(&mut self, errs_deg: [f64; 3]) {
        self.sum_sq += errs_deg.iter().map(|e| e * e).sum::<f64>() / 3.0;
        self.n += 1;
    }

    /// Number of samples folded in so far.
    pub fn samples(&self) -> u64 {
        self.n
    }

    /// Pooled RMS over every sample pushed, degrees (`NaN` when
    /// empty, like the trace-based metric on an empty trace).
    pub fn rms_deg(&self) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        (self.sum_sq / self.n as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;

    #[test]
    fn summary_matches_run_result_fields() {
        let truth = EulerAngles::from_degrees(2.0, -3.0, 1.5);
        let result = ScenarioSpec::named("summary")
            .with_truth(truth)
            .with_duration(40.0)
            .run();
        let summary = VehicleSummary::from_result(&result, 7, None);
        assert_eq!(summary.error_rms_deg, result.error_rms_deg());
        assert_eq!(summary.final_worst_error_deg, result.max_error_deg());
        assert_eq!(summary.exceed_rate, result.exceed_rate);
        assert_eq!(summary.retune_count, result.retune_count);
        assert_eq!(summary.saturations, 7);
        assert_eq!(summary.error_deg(), result.error_deg());
        assert!(summary.is_healthy());
    }

    #[test]
    fn health_rejects_non_finite_estimates() {
        let truth = EulerAngles::from_degrees(1.0, 1.0, 1.0);
        let result = ScenarioSpec::named("health")
            .with_truth(truth)
            .with_duration(30.0)
            .run();
        let mut summary = VehicleSummary::from_result(&result, 0, None);
        assert!(summary.is_healthy());
        summary.estimate.angles.pitch = f64::NAN;
        assert!(!summary.is_healthy());
    }

    #[test]
    fn running_rms_matches_batch_formula() {
        let mut rms = RunningRms::default();
        assert!(rms.rms_deg().is_nan());
        let samples = [[0.1, -0.2, 0.05], [0.0, 0.3, -0.1], [0.2, 0.1, 0.0]];
        for s in samples {
            rms.push(s);
        }
        let mean_sq: f64 = samples
            .iter()
            .map(|s| s.iter().map(|e| e * e).sum::<f64>() / 3.0)
            .sum::<f64>()
            / samples.len() as f64;
        assert_eq!(rms.rms_deg().to_bits(), mean_sq.sqrt().to_bits());
        assert_eq!(rms.samples(), 3);
    }
}
