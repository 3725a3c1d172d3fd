//! The Sabre cycle budget: modelled softfloat and q16.16 filter cycles
//! against the 25 MHz core, plus publish-program cycles executed on the
//! instruction-set simulator.

use boresight::arith::{OpCounts, PhaseLedger};
use boresight::estimator::MisalignmentEstimate;
use boresight::session::EventSink;
use boresight::system::SabrePublishSink;
use fpga::softfloat::{CycleCosts, FpOp};

/// The Sabre soft core's clock, Hz.
pub const CLOCK_HZ: f64 = 25e6;

/// Cycles per sample at 100 Hz on the 25 MHz core.
pub const BUDGET_CYCLES: f64 = CLOCK_HZ / 100.0;

/// Prices an operation ledger at the Sabre softfloat per-op costs —
/// the cycles the softfloat substrate charges for the same op stream.
/// Every IEKF substrate runs the identical op sequence on a given event
/// stream, so an `f64` ledger priced here equals the softfloat cycle
/// ledger (the `replay-softfloat` workload checks this).
pub fn softfloat_cycles(counts: &OpCounts) -> u64 {
    let k = CycleCosts::sabre_default();
    (counts.add + counts.sub) * k.of(FpOp::AddF64)
        + counts.mul * k.of(FpOp::MulF64)
        + counts.div * k.of(FpOp::DivF64)
        + counts.sqrt * k.of(FpOp::SqrtF64)
        + counts.cmp * k.of(FpOp::CmpF64)
        + (counts.neg + counts.abs) * k.of(FpOp::SignF64)
        + counts.fma * (k.of(FpOp::MulF64) + k.of(FpOp::AddF64))
        + counts.trig * k.of(FpOp::SinCosF64)
}

/// Modelled cycles and op counts per filter phase, summed over a
/// roster.
#[derive(Clone, Copy, Default)]
pub struct PhaseCycles {
    pub predict: u64,
    pub gate: u64,
    pub update: u64,
    /// Ops by phase: predict, gate, update.
    pub ops: [u64; 3],
    /// Everything the substrate ledger charged (filter plus the
    /// estimator's IMU prep).
    pub total: u64,
    /// Measurement-update calls (gate runs once per call).
    pub calls: u64,
    pub accepted: u64,
}

impl PhaseCycles {
    /// Adds one vehicle's phase ledger. `priced` prices op counts at the
    /// softfloat costs (for substrates whose own ledger is not the
    /// softfloat one); otherwise the ledger's cycles are taken as is.
    pub fn add(
        &mut self,
        phases: &PhaseLedger,
        total: u64,
        priced: bool,
        calls: u64,
        accepted: u64,
    ) {
        let cycles = |ops: &OpCounts, own: u64| if priced { softfloat_cycles(ops) } else { own };
        self.predict += cycles(&phases.predict.ops, phases.predict.cycles);
        self.gate += cycles(&phases.gate.ops, phases.gate.cycles);
        self.update += cycles(&phases.update.ops, phases.update.cycles);
        self.ops[0] += phases.predict.ops.total();
        self.ops[1] += phases.gate.ops.total();
        self.ops[2] += phases.update.ops.total();
        self.total += total;
        self.calls += calls;
        self.accepted += accepted;
    }

    fn per_call(&self, cycles: u64) -> f64 {
        cycles as f64 / self.calls.max(1) as f64
    }

    pub fn predict_per_call(&self) -> f64 {
        self.per_call(self.predict)
    }

    pub fn gate_per_call(&self) -> f64 {
        self.per_call(self.gate)
    }

    pub fn update_per_call(&self) -> f64 {
        self.per_call(self.update)
    }

    pub fn total_per_call(&self) -> f64 {
        self.per_call(self.total)
    }

    /// Ops per update call in `phase` (0 predict, 1 gate, 2 update).
    pub fn ops_per_call(&self, phase: usize) -> f64 {
        self.per_call(self.ops[phase])
    }

    pub fn accept_ratio(&self) -> f64 {
        self.accepted as f64 / self.calls.max(1) as f64
    }
}

/// Sabre cycles one execution of the system's publish program takes on
/// the instruction-set simulator.
pub fn publish_iss_cycles(estimate: &MisalignmentEstimate) -> f64 {
    let mut sink = SabrePublishSink::new(1.0);
    sink.on_finish(estimate);
    sink.cycles() as f64 / sink.publishes().max(1) as f64
}

/// Prints the per-phase budget table: modelled cycles per update for
/// softfloat and q16.16 against the 250k-cycle budget, plus the
/// ISS-executed publish program.
pub fn print_budget_table(softfloat: &PhaseCycles, q16: &PhaseCycles, publish_cycles: f64) {
    println!(
        "Sabre budget per sample ({:.0} cycles = {:.0} MHz at 100 Hz); filter rows are modelled \
         cycles (per-op cost tables), publish is executed on the ISS",
        BUDGET_CYCLES,
        CLOCK_HZ / 1e6
    );
    println!(
        "  {:<28} {:>14} {:>9} {:>14} {:>9}",
        "phase", "softfloat", "budget", "q16.16", "budget"
    );
    let row = |name: &str, sf: f64, q: f64| {
        println!(
            "  {:<28} {:>14.0} {:>8.2}% {:>14.0} {:>8.2}%",
            name,
            sf,
            100.0 * sf / BUDGET_CYCLES,
            q,
            100.0 * q / BUDGET_CYCLES
        );
    };
    row(
        "predict (modelled)",
        softfloat.predict_per_call(),
        q16.predict_per_call(),
    );
    row(
        "gate (modelled)",
        softfloat.gate_per_call(),
        q16.gate_per_call(),
    );
    row(
        "update (modelled)",
        softfloat.update_per_call(),
        q16.update_per_call(),
    );
    row(
        "all substrate ops (modelled)",
        softfloat.total_per_call(),
        q16.total_per_call(),
    );
    row("publish (ISS-executed)", publish_cycles, publish_cycles);
    println!(
        "  accept ratio: softfloat {:.4}, q16.16 {:.4}; executed filter cycles are not available yet \
         (the filter does not run on the ISS)",
        softfloat.accept_ratio(),
        q16.accept_ratio()
    );
}
