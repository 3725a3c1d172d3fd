//! What a workload run reports: counts, correctness-gate failures,
//! metrics and run-header fields.

#[derive(Default)]
pub struct Report {
    /// Vehicle runs attempted and failed (oracle-flagged, dropped
    /// frames, or evicted for health).
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate mismatches; any one fails the run.
    pub gate_failures: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    pub header: Vec<(&'static str, String)>,
}

impl Report {
    /// Records a gate failure when `ok` is false.
    pub fn gate(&mut self, ok: bool, detail: impl FnOnce() -> String) {
        if !ok {
            self.gate_failures.push(detail());
        }
    }

    /// Sets metric `name`.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(entry) => entry.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// Adds a run-header field.
    pub fn header(&mut self, key: &'static str, value: String) {
        self.header.push((key, value));
    }

    /// Fraction of attempted vehicle runs that did not fail.
    pub fn ok_frac(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }
}
