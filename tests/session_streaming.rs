//! Integration tests for the streaming `FusionSession` layer through
//! the facade crate: determinism regression, batch/stream parity, and
//! interleaved multi-backend groups.

use sensor_fusion_fpga::fusion::adaptive::AdaptiveBackend;
use sensor_fusion_fpga::fusion::estimator::BoresightEstimator;
use sensor_fusion_fpga::fusion::spec::{ScenarioSpec, Substrate};
use sensor_fusion_fpga::fusion::{FusionSession, SessionGroup};
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

/// Acceptance: two concurrent sessions on different `Arith` substrates
/// stepped in an interleaved fashion, against the same scenario.
#[test]
fn concurrent_sessions_on_different_substrates_interleave() {
    let truth = EulerAngles::from_degrees(2.0, -1.5, 2.5);
    let spec = ScenarioSpec::named("interleaved")
        .with_truth(truth)
        .with_duration(60.0);
    let table = spec.lower_trajectory();

    let mut group = SessionGroup::new();
    let soft = group.push(
        spec.clone()
            .with_substrate(Substrate::Softfloat)
            .into_session(&table),
    );
    let fixed = group.push(
        spec.clone()
            .with_substrate(Substrate::Q16_16)
            .into_session(&table),
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
    assert_eq!(soft_s.backend_label(), "iekf5/softfloat");
    assert_eq!(fixed_s.backend_label(), "iekf5/q16.16");
    assert_eq!(soft_s.stats().events, fixed_s.stats().events);

    // IEEE emulation is bit-identical to an f64 session of the same
    // spec; fixed point drifts, but the trust region keeps it bounded.
    let reference = spec.into_session(&table).into_result().estimate;
    assert_eq!(soft_s.estimate(), reference);
    let err = rad_to_deg(soft_s.estimate().angles.error_to(&truth).max_abs());
    assert!(err < 1.0, "softfloat err {err}");
    let angle_limit = spec.tuning.estimator_config().filter.angle_limit;
    let div = rad_to_deg(
        fixed_s
            .estimate()
            .angles
            .error_to(&reference.angles)
            .max_abs(),
    );
    assert!(div <= 2.0 * rad_to_deg(angle_limit), "q16.16 div {div}");
}

/// The production estimator and a backend of a different type (the
/// adaptive substrate supervisor) can share a group: a group holds
/// sessions, not backends, and each hands its backend back by type.
#[test]
fn mixed_production_and_ablation_backends_share_a_group() {
    let spec = short_spec(21);
    let table = spec.lower_trajectory();
    let mut group = SessionGroup::new();
    group.push(spec.into_session(&table));
    group.push(
        spec.clone()
            .with_substrate(Substrate::Adaptive)
            .into_session(&table),
    );
    group.run_interleaved(0.5);
    assert!(group.all_finished());
    let [f64_s, adaptive_s] = group.sessions() else {
        panic!("two sessions")
    };
    assert_eq!(f64_s.backend_label(), "iekf5/f64");
    assert_eq!(adaptive_s.backend_label(), "iekf5/adaptive");
    assert!(f64_s.backend_as::<BoresightEstimator>().is_some());
    assert!(f64_s.backend_as::<AdaptiveBackend>().is_none());
    assert!(adaptive_s.backend_as::<AdaptiveBackend>().is_some());
    assert!(adaptive_s.backend_as::<BoresightEstimator>().is_none());
    let err = |s: &FusionSession| rad_to_deg(s.estimate().angles.error_to(&s.truth()).max_abs());
    assert!(err(f64_s) < 0.3, "production err {}", err(f64_s));
    let angle_limit = spec.tuning.estimator_config().filter.angle_limit;
    assert!(
        err(adaptive_s) <= 2.0 * rad_to_deg(angle_limit),
        "adaptive err {}",
        err(adaptive_s)
    );
}
