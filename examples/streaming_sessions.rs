//! Streaming sessions: several concurrent fusion runs — each on a
//! different arithmetic substrate — interleaved on one thread.
//!
//! The paper's fusion core is a streaming system; `FusionSession`
//! exposes that directly. The 5-state boresight IEKF runs over native
//! f64, Softfloat (the paper's Sabre configuration) and Q16.16 fixed
//! point — one `ScenarioSpec` per `Substrate` over one shared
//! trajectory — stepped round-robin, with the divergence of each
//! number system from the f64 reference reported live.
//!
//! Run with `cargo run --release --example streaming_sessions`.

use sensor_fusion_fpga::fusion::arith::{Arith, QArith, SoftArith};
use sensor_fusion_fpga::fusion::estimator::GenericBoresightEstimator;
use sensor_fusion_fpga::fusion::spec::{ScenarioSpec, Substrate};
use sensor_fusion_fpga::fusion::{IntoSharedTrajectory, SessionGroup};
use sensor_fusion_fpga::math::{rad_to_deg, EulerAngles};
use std::sync::Arc;

fn main() {
    let truth = EulerAngles::from_degrees(2.0, -1.5, 2.5);
    let spec = ScenarioSpec::named("streaming")
        .with_truth(truth)
        .with_duration(60.0);
    let table = spec.lower_trajectory().into_shared();

    println!("5-state IEKF sweep (divergence measured against the f64 session):");
    let mut sweep = SessionGroup::new();
    for substrate in Substrate::all() {
        let cell = spec.clone().with_substrate(substrate);
        sweep.push(cell.into_session(Arc::clone(&table)));
    }
    while !sweep.all_finished() {
        sweep.step_all(5.0);
        let div = sweep.divergence_from(0);
        println!(
            "t = {:>5.1} s | {}",
            sweep.sessions()[0].time_s(),
            div.iter()
                .map(|d| format!("{:<16} {:.4} deg", d.label, d.max_abs_deg))
                .collect::<Vec<_>>()
                .join(" | ")
        );
    }
    for session in sweep.sessions() {
        let err = session.estimate().angles.error_to(&session.truth());
        println!(
            "  {:<16} {:>7.4} deg error after {} updates",
            session.backend_label(),
            rad_to_deg(err.max_abs()),
            session.estimate().updates,
        );
    }
    let soft = sweep.sessions()[1]
        .backend_as::<GenericBoresightEstimator<SoftArith>>()
        .expect("softfloat backend");
    let fixed = sweep.sessions()[2]
        .backend_as::<GenericBoresightEstimator<QArith<16>>>()
        .expect("fixed backend");
    // Per incoming ACC sample, not per accepted update: rejected
    // samples still pay their model/Jacobian/gating arithmetic (the
    // convention the ablation bench and its JSON report use).
    let config = spec.config();
    let samples = (config.duration_s * config.acc_rate_hz).round().max(1.0);
    println!(
        "  softfloat cycles/sample: {:.0}  |  q16.16 saturation events: {}",
        soft.filter().arith().cycles() as f64 / samples,
        fixed.filter().arith().saturations(),
    );
}
