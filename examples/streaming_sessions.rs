//! Streaming sessions: several concurrent fusion runs — each on a
//! different arithmetic backend — interleaved on one thread.
//!
//! The paper's fusion core is a streaming system; `FusionSession`
//! exposes that directly. Part one interleaves the 3-state ablation
//! filter over native f64, Softfloat (the paper's Sabre configuration)
//! and Q16.16 fixed point. Part two does the same with the **full
//! 5-state boresight IEKF** — the production algorithm over every
//! substrate — one `ScenarioSpec` per `Substrate` over one shared
//! trajectory — with the divergence of each number system from the
//! f64 reference reported live.
//!
//! Run with `cargo run --release --example streaming_sessions`.

use sensor_fusion_fpga::fusion::arith::{Arith, F64Arith, QArith, SoftArith};
use sensor_fusion_fpga::fusion::estimator::GenericBoresightEstimator;
use sensor_fusion_fpga::fusion::spec::{ScenarioSpec, Substrate};
use sensor_fusion_fpga::fusion::{ArithKf3, FusionSession, IntoSharedTrajectory, SessionGroup};
use sensor_fusion_fpga::math::{rad_to_deg, EulerAngles};
use std::sync::Arc;

fn main() {
    let truth = EulerAngles::from_degrees(2.0, -1.5, 2.5);
    let spec = ScenarioSpec::named("streaming")
        .with_truth(truth)
        .with_duration(60.0);
    let table = spec.lower_trajectory().into_shared();

    // --- Part 1: the 3-state ablation filter per substrate ----------
    let mut group = SessionGroup::new();
    group.push(
        FusionSession::builder()
            .source_boxed(spec.into_source(Arc::clone(&table)))
            .backend(ArithKf3::with_defaults(F64Arith::default()))
            .truth(truth)
            .build(),
    );
    group.push(
        FusionSession::builder()
            .source_boxed(spec.into_source(Arc::clone(&table)))
            .backend(ArithKf3::with_defaults(SoftArith::default()))
            .truth(truth)
            .build(),
    );
    group.push(
        FusionSession::builder()
            .source_boxed(spec.into_source(Arc::clone(&table)))
            .backend(ArithKf3::with_defaults(QArith::<16>::default()))
            .truth(truth)
            .build(),
    );

    // Round-robin half-second slices; print a progress line per lap so
    // the interleaving is visible.
    let mut lap = 0u32;
    while !group.all_finished() {
        group.step_all(0.5);
        lap += 1;
        if lap.is_multiple_of(20) {
            let snapshots: Vec<String> = group
                .sessions()
                .iter()
                .map(|s| {
                    let e = s.estimate().angles.error_to(&s.truth());
                    format!(
                        "{:<13} {:.3} deg",
                        s.backend_label(),
                        rad_to_deg(e.max_abs())
                    )
                })
                .collect();
            println!(
                "t = {:>5.1} s | {}",
                group.sessions()[0].time_s(),
                snapshots.join(" | ")
            );
        }
    }

    println!("\nfinal worst-axis error by arithmetic backend (3-state ablation):");
    for session in group.sessions() {
        let err = session.estimate().angles.error_to(&session.truth());
        println!(
            "  {:<13} {:>7.4} deg after {} updates",
            session.backend_label(),
            rad_to_deg(err.max_abs()),
            session.estimate().updates,
        );
    }

    // --- Part 2: the full 5-state IEKF per substrate ----------------
    println!("\nfull 5-state IEKF sweep (divergence measured against the f64 session):");
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
