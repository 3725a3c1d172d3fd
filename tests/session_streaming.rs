//! Integration tests for the streaming `FusionSession` layer through
//! the facade crate: determinism regression, batch/stream parity, and
//! interleaved multi-backend groups.

use sensor_fusion_fpga::fusion::arith::{QArith, SoftArith};
use sensor_fusion_fpga::fusion::spec::ScenarioSpec;
use sensor_fusion_fpga::fusion::{ArithKf3, FusionSession, SessionGroup};
use sensor_fusion_fpga::math::{rad_to_deg, EulerAngles};

fn short_spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec::named("streaming")
        .with_truth(EulerAngles::from_degrees(2.0, -1.0, 1.5))
        .with_duration(60.0)
        .with_seed(seed)
}

/// Guards the session refactor against hidden global state: two runs
/// with the same RNG seed must produce bit-identical `RunResult`s —
/// every trace point, the exceed rate, the final estimate.
#[test]
fn sessions_with_same_seed_are_bit_identical() {
    let spec = short_spec(0xD5EE);
    let table = spec.lower_trajectory();
    let a = spec.into_session(&table).into_result();
    let b = spec.into_session(&table).into_result();
    assert_eq!(a, b, "same-seed sessions must agree bit for bit");
    // And the result is not degenerate.
    assert!(!a.residuals.is_empty());
    assert!(a.estimate.updates > 10_000);
}

/// Different seeds must actually change the stream (the determinism
/// above is not just a frozen RNG).
#[test]
fn sessions_with_different_seeds_differ() {
    let a = short_spec(1).run();
    let b = short_spec(2).run();
    assert_ne!(a.estimate.angles, b.estimate.angles);
}

/// The batch path (`ScenarioSpec::run`) and a hand-stepped session
/// are the same computation.
#[test]
fn batch_shim_equals_hand_stepped_session() {
    let spec = short_spec(7);
    let batch = spec.run();
    let mut session = spec.into_session(spec.lower_trajectory());
    while !session.is_finished() {
        session.step(0.25);
    }
    let streamed = session.into_result();
    assert_eq!(batch, streamed);
}

/// Acceptance: two concurrent sessions with different `Arith` backends
/// stepped in an interleaved fashion, against the same scenario.
#[test]
fn concurrent_sessions_with_different_arith_backends_interleave() {
    let truth = EulerAngles::from_degrees(2.0, -1.5, 2.5);
    let spec = ScenarioSpec::named("interleaved")
        .with_truth(truth)
        .with_duration(60.0);
    let table = spec.lower_trajectory();

    let mut group = SessionGroup::new();
    let soft = group.push(
        FusionSession::builder()
            .source_boxed(spec.into_source(&table))
            .backend(ArithKf3::with_defaults(SoftArith::default()))
            .truth(truth)
            .build(),
    );
    let fixed = group.push(
        FusionSession::builder()
            .source_boxed(spec.into_source(&table))
            .backend(ArithKf3::with_defaults(QArith::<16>::default()))
            .truth(truth)
            .build(),
    );
    assert_eq!(group.len(), 2);

    // Interleave in quarter-second slices and watch both clocks move
    // in lockstep — neither session runs ahead of the round-robin.
    let mut laps = 0;
    while !group.all_finished() {
        group.step_all(0.25);
        laps += 1;
        let t0 = group.sessions()[soft].time_s();
        let t1 = group.sessions()[fixed].time_s();
        assert!((t0 - t1).abs() < 1e-9, "sessions drifted: {t0} vs {t1}");
    }
    assert!(
        laps >= 240,
        "expected fine-grained interleaving, got {laps} laps"
    );

    let soft_s = &group.sessions()[soft];
    let fixed_s = &group.sessions()[fixed];
    assert_eq!(soft_s.backend_label(), "softfloat/f64");
    assert_eq!(fixed_s.backend_label(), "q16.16");
    assert_eq!(soft_s.estimate().updates, fixed_s.estimate().updates);

    // Both tracked the truth through their respective number systems.
    let err = |s: &FusionSession| rad_to_deg(s.estimate().angles.error_to(&s.truth()).max_abs());
    assert!(err(soft_s) < 1.0, "softfloat err {}", err(soft_s));
    assert!(err(fixed_s) < 2.0, "fixed err {}", err(fixed_s));
}

/// The production estimator and an ablation backend can also share a
/// group (they are the same session type).
#[test]
fn mixed_production_and_ablation_backends_share_a_group() {
    let spec = short_spec(21);
    let table = spec.lower_trajectory();
    let mut group = SessionGroup::new();
    group.push(spec.into_session(&table));
    group.push(
        FusionSession::builder()
            .source_boxed(spec.into_source(&table))
            .backend(ArithKf3::with_defaults(QArith::<16>::default()))
            .truth(spec.truth)
            .build(),
    );
    group.run_interleaved(0.5);
    let labels: Vec<_> = group.sessions().iter().map(|s| s.backend_label()).collect();
    assert_eq!(labels, ["iekf5/f64", "q16.16"]);
    // The production 5-state filter (bias states, gating, monitor)
    // outperforms the 3-state ablation on the biased measurement.
    let errs: Vec<f64> = group
        .sessions()
        .iter()
        .map(|s| rad_to_deg(s.estimate().angles.error_to(&s.truth()).max_abs()))
        .collect();
    assert!(errs[0] < 0.3, "production err {}", errs[0]);
    assert!(errs[0] < errs[1], "{} vs {}", errs[0], errs[1]);
}
