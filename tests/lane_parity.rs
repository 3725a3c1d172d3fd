//! Per-lane bit-identity of the lockstep lane filter.
//!
//! `LaneIekf<F64Arith, L>` steps `L` independent 5-state IEKFs through
//! one shared instruction stream with masked per-lane control flow.
//! These tests pin the contract that makes that safe: every lane's
//! state, covariance and accept/reject decisions are **bit-identical**
//! to the same filter at width 1 (`GenericBoresightFilter<F64Arith>`)
//! fed the same lane's measurements — across random scenarios and
//! seeds, including gate rejections and trust-region clamps — a
//! `LaneBank`-backed session matches one scalar estimator per channel,
//! and `L` identical lanes cost exactly `L` times one lane in counted
//! ops, saturations and cycles. The same contract is pinned for the
//! explicit-SIMD `SimdF64` substrate under masked stepping (per-lane
//! `dt`, per-lane activity), on whichever backend the `simd` feature
//! selects.

use proptest::prelude::*;
use sensor_fusion_fpga::fusion::arith::{Arith, F64Arith, LaneSpec, OpCounts, QArith, SoftArith};
use sensor_fusion_fpga::fusion::filter::{FilterConfig, GenericBoresightFilter};
use sensor_fusion_fpga::fusion::lanes::{LaneBank, LaneIekf};
use sensor_fusion_fpga::fusion::session::{
    ChannelConfig, FusionSession, SensorEvent, SensorSource, SyntheticSource,
};
use sensor_fusion_fpga::fusion::simd::{F64Lanes, SimdF64};
use sensor_fusion_fpga::fusion::spec::ScenarioSpec;
use sensor_fusion_fpga::fusion::{BoresightEstimator, EstimatorConfig};
use sensor_fusion_fpga::math::{EulerAngles, Vec2, Vec3, STANDARD_GRAVITY};

const LANES: usize = 3;

fn assert_lane_matches_scalar<A>(
    lanes: &LaneIekf<A, LANES>,
    scalars: &[GenericBoresightFilter<F64Arith>],
) where
    A: LaneSpec<LANES> + Clone + Default,
{
    for (lane, kf) in scalars.iter().enumerate() {
        let a = kf.angles();
        let b = lanes.angles(lane);
        assert_eq!(a.roll.to_bits(), b.roll.to_bits(), "lane {lane} roll");
        assert_eq!(a.pitch.to_bits(), b.pitch.to_bits(), "lane {lane} pitch");
        assert_eq!(a.yaw.to_bits(), b.yaw.to_bits(), "lane {lane} yaw");
        let ba = kf.bias();
        let bb = lanes.bias(lane);
        assert_eq!(ba[0].to_bits(), bb[0].to_bits(), "lane {lane} bias x");
        assert_eq!(ba[1].to_bits(), bb[1].to_bits(), "lane {lane} bias y");
        assert_eq!(kf.update_count(), lanes.update_count(lane), "lane {lane}");
        assert_eq!(
            kf.rejected_count(),
            lanes.rejected_count(lane),
            "lane {lane}"
        );
        let sa = kf.angle_sigma();
        let sb = lanes.angle_sigma(lane);
        for i in 0..3 {
            assert_eq!(sa[i].to_bits(), sb[i].to_bits(), "lane {lane} sigma[{i}]");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random measurement/force schedules per lane — including
    /// outlier-scale samples that fire the gate on some lanes and not
    /// others, which exercises the masked divergence paths — stay
    /// bit-identical per lane to scalar runs.
    #[test]
    fn lane_filter_matches_scalar_runs_on_random_scenarios(
        steps in prop::collection::vec(
            (
                prop::array::uniform3((-0.3_f64..0.3, -0.3_f64..0.3)),
                prop::array::uniform3((-4.0_f64..4.0, -4.0_f64..4.0, 8.0_f64..11.0)),
                0.001_f64..0.05,
            ),
            10..80,
        ),
        outlier_lane in 0usize..LANES,
        outlier_step in 0usize..10,
    ) {
        let cfg = FilterConfig::paper_static();
        let mut lanes: LaneIekf<F64Arith, LANES> = LaneIekf::new(cfg);
        let mut scalars: Vec<GenericBoresightFilter<F64Arith>> =
            (0..LANES).map(|_| GenericBoresightFilter::new(cfg)).collect();
        let mut t = 0.0;
        for (i, (zs, fs, dt)) in steps.iter().enumerate() {
            t += dt;
            let z: [Vec2; LANES] = std::array::from_fn(|lane| {
                if i == outlier_step && lane == outlier_lane {
                    Vec2::new([25.0, -25.0]) // far outside any gate
                } else {
                    Vec2::new([zs[lane].0, zs[lane].1])
                }
            });
            let f: [Vec3; LANES] =
                std::array::from_fn(|lane| Vec3::new([fs[lane].0, fs[lane].1, fs[lane].2]));
            lanes.predict(*dt);
            let lane_updates = lanes.update_lanes(&z, &f, t);
            for (lane, kf) in scalars.iter_mut().enumerate() {
                kf.predict(*dt);
                let upd = kf.update(z[lane], f[lane], t);
                prop_assert_eq!(upd.accepted, lane_updates[lane].accepted,
                    "step {} lane {}", i, lane);
                prop_assert_eq!(
                    upd.innovation[0].to_bits(),
                    lane_updates[lane].innovation[0].to_bits()
                );
                prop_assert_eq!(
                    upd.innovation_sigma[1].to_bits(),
                    lane_updates[lane].innovation_sigma[1].to_bits()
                );
            }
        }
        assert_lane_matches_scalar(&lanes, &scalars);
    }
}

/// Long deterministic run with strong excitation: per-lane bit-identity
/// holds through thousands of accepted updates and the occasional
/// trust-region clamp.
#[test]
fn lane_filter_matches_scalar_runs_long_deterministic() {
    let cfg = FilterConfig::paper_static();
    let mut lanes: LaneIekf<F64Arith, LANES> = LaneIekf::new(cfg);
    let mut scalars: Vec<GenericBoresightFilter<F64Arith>> = (0..LANES)
        .map(|_| GenericBoresightFilter::new(cfg))
        .collect();
    let g = STANDARD_GRAVITY;
    for i in 0..4_000 {
        let t = i as f64 * 0.005;
        let f = Vec3::new([2.0 * (0.5 * t).sin(), 1.5 * (0.33 * t).cos(), g]);
        let z: [Vec2; LANES] = std::array::from_fn(|lane| {
            let s = 0.03 * (lane as f64 + 1.0);
            Vec2::new([
                f[0] + s * (1.1 * t).sin() - 0.1,
                f[1] - s * (0.9 * t).cos() + 0.05,
            ])
        });
        lanes.predict(0.005);
        lanes.update_lanes(&z, &[f; LANES], t);
        for (lane, kf) in scalars.iter_mut().enumerate() {
            kf.predict(0.005);
            kf.update(z[lane], f, t);
        }
    }
    assert_lane_matches_scalar(&lanes, &scalars);
}

/// Runs one two-channel synthetic stream (a shared DMU, one ACC per
/// sensor, each misaligned by its own truth) through a
/// `LaneBank<F64Arith, 2>` session and through its scalar twin: one
/// estimator per channel, each fed only its channel of the identical
/// source (the shared DMU stream goes to both).
fn lane_bank_and_scalar_twin(truths: [EulerAngles; 2]) -> (FusionSession, [BoresightEstimator; 2]) {
    let spec = ScenarioSpec::named("lane-bank")
        .with_truth(truths[0])
        .with_duration(60.0);
    let cfg = spec.config();
    let channel = |truth| ChannelConfig {
        misalignment: truth,
        noise_sigma: 0.007,
        ..ChannelConfig::ideal()
    };
    let table = spec.lower_trajectory();
    let source = || {
        SyntheticSource::new(
            &table,
            cfg.dmu,
            cfg.vibration,
            cfg.acc_rate_hz,
            cfg.duration_s,
            cfg.seed,
        )
        .with_channel(&channel(truths[0]))
        .with_channel(&channel(truths[1]))
    };
    let mut lane_session = FusionSession::builder()
        .source(source())
        .backend(LaneBank::<F64Arith, 2>::new(EstimatorConfig::paper_static()))
        .build();
    lane_session.run_to_end();

    let mut twin_source = source();
    let mut estimators = [(); 2].map(|_| BoresightEstimator::new(EstimatorConfig::paper_static()));
    let mut events = Vec::new();
    let mut t = 0.0;
    while !twin_source.is_exhausted() {
        t += twin_source.dt();
        events.clear();
        twin_source.poll(t, &mut events);
        for event in &events {
            match *event {
                SensorEvent::Dmu(ref sample) => {
                    for estimator in &mut estimators {
                        estimator.on_dmu(sample);
                    }
                }
                SensorEvent::Acc { sensor, time_s, z } => {
                    estimators[sensor].on_acc(time_s, z);
                }
            }
        }
    }
    (lane_session, estimators)
}

/// A `LaneBank`-backed session over a multi-channel synthetic source is
/// bit-identical per sensor to separate scalar estimators fed the same
/// channels (same source config, same seeds).
#[test]
fn lane_bank_session_matches_scalar_sessions() {
    let truths = [
        EulerAngles::from_degrees(2.0, -1.0, 1.5),
        EulerAngles::from_degrees(-3.0, 2.0, -1.0),
    ];
    let (lane_session, estimators) = lane_bank_and_scalar_twin(truths);

    for (sensor, estimator) in estimators.iter().enumerate() {
        let lane_est = lane_session.estimate_for(sensor);
        let scalar_est = estimator.estimate();
        assert_eq!(lane_est.updates, scalar_est.updates, "sensor {sensor}");
        assert_eq!(
            lane_est.angles.roll.to_bits(),
            scalar_est.angles.roll.to_bits(),
            "sensor {sensor} roll"
        );
        assert_eq!(
            lane_est.angles.pitch.to_bits(),
            scalar_est.angles.pitch.to_bits(),
            "sensor {sensor} pitch"
        );
        assert_eq!(
            lane_est.angles.yaw.to_bits(),
            scalar_est.angles.yaw.to_bits(),
            "sensor {sensor} yaw"
        );
        for i in 0..3 {
            assert_eq!(
                lane_est.one_sigma[i].to_bits(),
                scalar_est.one_sigma[i].to_bits(),
                "sensor {sensor} sigma[{i}]"
            );
        }
    }
    // Both backends converge to their channels' truths.
    for (sensor, truth) in truths.iter().enumerate() {
        let err = lane_session.estimate_for(sensor).angles.error_to(truth);
        assert!(
            mathx::rad_to_deg(err.max_abs()) < 0.5,
            "sensor {sensor}: {:?}",
            err.to_degrees()
        );
    }
}

/// A `LaneBank` charges its shared IMU front end to its lane filter's
/// ledger, as a scalar estimator does: on the same stream, the bank's
/// untracked ops (ledger total minus the filter's phase-tracked ops)
/// equal one scalar estimator's, since the bank preps each DMU sample
/// and each time step's specific force once for all its lanes.
#[test]
fn lane_bank_front_end_reaches_the_filter_ledger() {
    let truths = [
        EulerAngles::from_degrees(2.0, -1.0, 1.5),
        EulerAngles::from_degrees(-3.0, 2.0, -1.0),
    ];
    let (lane_session, estimators) = lane_bank_and_scalar_twin(truths);
    let bank = lane_session
        .backend_as::<LaneBank<F64Arith, 2>>()
        .expect("lane bank backend")
        .filter();
    let bank_untracked = bank.arith().counts().total() - bank.phase_ledger().tracked_ops();
    let scalar = estimators[0].filter();
    let scalar_untracked = scalar.arith().counts().total() - scalar.phase_ledger().tracked_ops();
    assert!(scalar_untracked > 0, "the scalar front end charged nothing");
    assert_eq!(bank_untracked, scalar_untracked);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The explicit-SIMD substrate under **masked stepping** — per-lane
    /// `dt` through `predict_lanes` plus `update_lanes_masked` with a
    /// random activity mask — stays bit-identical, lane for lane, to
    /// scalar filters that simply skip the inactive steps. Inactive
    /// lanes carry poisoned measurements (far-outlier values) to prove
    /// the mask really isolates them.
    #[test]
    fn simd_lane_filter_matches_scalar_under_masked_stepping(
        steps in prop::collection::vec(
            (
                prop::array::uniform3((-0.3_f64..0.3, -0.3_f64..0.3)),
                prop::array::uniform3((-4.0_f64..4.0, -4.0_f64..4.0, 8.0_f64..11.0)),
                prop::array::uniform3(0.001_f64..0.05),
                prop::array::uniform3((0.0_f64..1.0).prop_map(|p| p < 0.75)),
            ),
            10..60,
        ),
    ) {
        let cfg = FilterConfig::paper_static();
        let mut lanes: LaneIekf<SimdF64, LANES> = LaneIekf::new(cfg);
        let mut scalars: Vec<GenericBoresightFilter<F64Arith>> =
            (0..LANES).map(|_| GenericBoresightFilter::new(cfg)).collect();
        let mut t = [0.0_f64; LANES];
        for (i, (zs, fs, dts, active)) in steps.iter().enumerate() {
            // A lane only advances when it has a sample this tick.
            let lane_dts: [f64; LANES] =
                std::array::from_fn(|l| if active[l] { dts[l] } else { 0.0 });
            for lane in 0..LANES {
                t[lane] += lane_dts[lane];
            }
            let z: [Vec2; LANES] = std::array::from_fn(|lane| {
                if active[lane] {
                    Vec2::new([zs[lane].0, zs[lane].1])
                } else {
                    Vec2::new([1e6, -1e6]) // must never leak through the mask
                }
            });
            let fb: [F64Lanes<LANES>; 3] = [
                F64Lanes::new(std::array::from_fn(|l| fs[l].0)),
                F64Lanes::new(std::array::from_fn(|l| fs[l].1)),
                F64Lanes::new(std::array::from_fn(|l| fs[l].2)),
            ];
            lanes.predict_lanes(&lane_dts);
            let updates = lanes.update_lanes_masked(&z, fb, &t, active);
            for (lane, kf) in scalars.iter_mut().enumerate() {
                if active[lane] {
                    kf.predict(lane_dts[lane]);
                    let f = Vec3::new([fs[lane].0, fs[lane].1, fs[lane].2]);
                    let upd = kf.update(z[lane], f, t[lane]);
                    let lane_upd = updates[lane]
                        .as_ref()
                        .expect("active lane must report an update");
                    prop_assert_eq!(upd.accepted, lane_upd.accepted,
                        "step {} lane {}", i, lane);
                    prop_assert_eq!(
                        upd.innovation[0].to_bits(),
                        lane_upd.innovation[0].to_bits()
                    );
                    prop_assert_eq!(
                        upd.innovation_sigma[1].to_bits(),
                        lane_upd.innovation_sigma[1].to_bits()
                    );
                } else {
                    prop_assert!(updates[lane].is_none(), "masked lane {} updated", lane);
                }
            }
        }
        assert_lane_matches_scalar(&lanes, &scalars);
    }
}

/// Feeds `L` copies of one stream to a lane filter and returns its op
/// ledger, its cycles, lane 0's accept decisions and lane 0's roll
/// right after the clamp step.
///
/// The stream opens with a singular innovation (free fall, zero
/// measurement noise: `S = 0`), then a measurement implying a 25 deg
/// roll that the trust region clamps to 15 deg, then normal updates
/// with one axis-0 gate outlier at step 150.
fn identical_lanes_cost<A, const L: usize>() -> (OpCounts, u64, Vec<bool>, f64)
where
    A: LaneSpec<L> + Default + Clone,
{
    let mut cfg = FilterConfig::paper_static();
    cfg.estimate_bias = false;
    cfg.measurement_sigma = 0.0;
    let mut lanes: LaneIekf<A, L> = LaneIekf::new(cfg);
    let truth = EulerAngles::from_degrees(2.0, -1.5, 3.0);
    let wild = EulerAngles::from_degrees(25.0, 0.0, 0.0);
    let g = STANDARD_GRAVITY;
    let mut accepted = Vec::new();
    let mut clamped_roll = 0.0;
    for i in 0..300 {
        let t = i as f64 * 0.005;
        let (f, z) = if i == 0 {
            (Vec3::zeros(), Vec2::zeros())
        } else {
            let f = Vec3::new([2.0 * (0.5 * t).sin(), 1.5 * (0.33 * t).cos(), g]);
            let mount = if i == 1 { wild } else { truth };
            let f_s = mount.dcm().transpose().rotate(f);
            let outlier = if i == 150 { 5.0 } else { 0.0 };
            let z = Vec2::new([
                f_s[0] + 0.003 * (7.1 * t).sin() + outlier,
                f_s[1] - 0.003 * (5.3 * t).cos(),
            ]);
            (f, z)
        };
        lanes.predict(0.005);
        let updates = lanes.update_lanes(&[z; L], &[f; L], t);
        if i == 0 {
            for lane in 0..L {
                lanes.set_measurement_sigma(lane, 0.007);
            }
        }
        if i == 1 {
            clamped_roll = lanes.angles(0).roll;
        }
        accepted.push(updates[0].accepted);
    }
    (
        lanes.arith().counts(),
        lanes.arith().cycles(),
        accepted,
        clamped_roll,
    )
}

fn assert_identical_lanes_cost_four_times_one<A>()
where
    A: LaneSpec<1> + LaneSpec<4> + Default + Clone,
{
    let (one, one_cycles, accepted, clamped_roll) = identical_lanes_cost::<A, 1>();
    assert!(!accepted[0], "step 0 must be a singular innovation");
    assert!(accepted[1], "the wild-roll step must be accepted");
    let limit = FilterConfig::paper_static().angle_limit;
    assert!(
        (clamped_roll.abs() - limit).abs() < 1e-4,
        "the wild-roll step must be clamped: roll {clamped_roll}"
    );
    assert!(!accepted[150], "step 150 must be gate-rejected");
    let (four, four_cycles, _, _) = identical_lanes_cost::<A, 4>();
    let mut expected = OpCounts::default();
    for _ in 0..4 {
        expected.accumulate(&one);
    }
    assert_eq!(four, expected, "4 identical lanes vs 4 x one lane");
    assert_eq!(four_cycles, 4 * one_cycles);
}

/// `L` identical lanes cost exactly `L` times one lane — ops by class,
/// saturation events and modelled cycles — on every counted substrate,
/// through a gate rejection on axis 0, a trust-region clamp and a
/// singular innovation: the lane filter charges only the work a width-1
/// filter would do, per lane.
#[test]
fn identical_lanes_cost_exactly_l_times_one_lane() {
    assert_identical_lanes_cost_four_times_one::<F64Arith>();
    assert_identical_lanes_cost_four_times_one::<SoftArith>();
    assert_identical_lanes_cost_four_times_one::<QArith<16>>();
}
