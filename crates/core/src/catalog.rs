//! The named scenario catalog: every workload the suite sweeps.
//!
//! Each entry is a [`ScenarioSpec`] — pure data, so callers can take
//! one and rebuild it fluently (shorter duration, different substrate,
//! extra faults) before lowering it. [`all`] returns the whole
//! catalog; [`by_name`] looks one up.
//!
//! The first two entries are the paper's procedures: the static
//! tilt-table test is [`ScenarioSpec::named`]'s baseline, and the
//! dynamic drive adds the urban trajectory, passenger-car vibration
//! and dynamic tuning (both lowered forms are pinned field by field
//! by test). The rest are the coverage the paper never had — drive
//! styles, road surfaces, vehicle classes, channel faults and a
//! long-haul drift run.
//!
//! ```
//! use boresight::catalog;
//!
//! let mut brake = catalog::by_name("emergency-brake").expect("catalog entry");
//! brake.duration_s = 30.0; // full entries default to 300 s
//! assert!(brake.run().max_error_deg().is_finite());
//! ```

use crate::session::LinkFaultConfig;
use crate::spec::{ChannelSpec, EnvironmentSpec, ScenarioSpec, TrajectorySpec, TuningSpec};
use mathx::EulerAngles;
use vehicle::Segment;

/// The paper's static procedure: tilt-table observability sequence on
/// the laboratory bench, static tuning.
pub fn paper_static() -> ScenarioSpec {
    ScenarioSpec::named("paper-static")
        .with_truth(EulerAngles::from_degrees(2.0, -3.0, 1.5))
        .with_seed(101)
}

/// The paper's dynamic procedure: urban stop-and-go drive with
/// passenger-car vibration and dynamic tuning.
pub fn paper_dynamic() -> ScenarioSpec {
    ScenarioSpec::named("paper-dynamic")
        .with_truth(EulerAngles::from_degrees(3.0, -2.0, 2.5))
        .with_trajectory(TrajectorySpec::Urban)
        .with_environment(EnvironmentSpec::passenger_car())
        .with_tuning(TuningSpec::Dynamic)
        .with_seed(102)
}

/// Sustained highway cruise: long accelerations, gentle curves, lane
/// changes — weak excitation, the convergence-speed stress case.
pub fn highway_cruise() -> ScenarioSpec {
    ScenarioSpec::named("highway-cruise")
        .with_truth(EulerAngles::from_degrees(1.5, -2.0, 2.0))
        .with_trajectory(TrajectorySpec::Highway)
        .with_environment(EnvironmentSpec::passenger_car())
        .with_tuning(TuningSpec::Dynamic)
        .with_seed(103)
}

/// City stop-and-go: short pull-aways, tight turns and frequent full
/// stops — rich longitudinal excitation, little sustained speed.
pub fn city_stop_and_go() -> ScenarioSpec {
    ScenarioSpec::named("city-stop-and-go")
        .with_truth(EulerAngles::from_degrees(-2.0, 1.5, -1.0))
        .with_trajectory(TrajectorySpec::Segments {
            block: vec![
                Segment::idle(3.0),
                Segment::accelerate(4.0, 2.5),
                Segment::cruise(2.0),
                Segment::brake(3.0, 3.0),
                Segment::idle(2.0),
                Segment::accelerate(3.0, 2.0),
                Segment::turn(4.0, 0.35),
                Segment::brake(2.0, 2.5),
            ],
        })
        .with_environment(EnvironmentSpec::passenger_car())
        .with_tuning(TuningSpec::Dynamic)
        .with_seed(104)
}

/// Repeated emergency stops: hard ~0.7 g braking from speed — the
/// largest longitudinal specific forces and suspension pitch steps in
/// the catalog.
pub fn emergency_brake() -> ScenarioSpec {
    ScenarioSpec::named("emergency-brake")
        .with_truth(EulerAngles::from_degrees(2.5, 2.0, -2.0))
        .with_trajectory(TrajectorySpec::Segments {
            block: vec![
                Segment::accelerate(6.0, 2.5),
                Segment::cruise(2.0),
                Segment::brake(2.5, 7.0),
                Segment::idle(3.0),
            ],
        })
        .with_environment(EnvironmentSpec::passenger_car())
        .with_tuning(TuningSpec::Dynamic)
        .with_seed(105)
}

/// ISO-3888-style double lane change (slalom): alternating hard
/// lateral acceleration — the strongest roll/yaw excitation.
pub fn double_lane_change() -> ScenarioSpec {
    ScenarioSpec::named("double-lane-change")
        .with_truth(EulerAngles::from_degrees(-1.5, -1.0, 3.0))
        .with_trajectory(TrajectorySpec::Segments {
            block: vec![
                Segment::accelerate(6.0, 2.5),
                Segment::lane_change(3.0, 3.0),
                Segment::lane_change(3.0, 3.0),
                Segment::cruise(2.0),
            ],
        })
        .with_environment(EnvironmentSpec::passenger_car())
        .with_tuning(TuningSpec::Dynamic)
        .with_seed(106)
}

/// Urban drive over a badly surfaced road: 2.5x vibration RMS and
/// heavy mount flexure — the adaptive-retune stress case.
pub fn rough_road() -> ScenarioSpec {
    ScenarioSpec::named("rough-road")
        .with_truth(EulerAngles::from_degrees(2.0, 2.0, 2.0))
        .with_trajectory(TrajectorySpec::Urban)
        .with_environment(EnvironmentSpec::rough_road())
        .with_tuning(TuningSpec::Dynamic)
        .with_seed(107)
}

/// Highway transit on a heavy truck: ~3x passenger-car vibration with
/// a large idle component — the vehicle-class axis of the paper's
/// "depends on the vehicle" retuning story.
pub fn truck_transit() -> ScenarioSpec {
    ScenarioSpec::named("truck-transit")
        .with_truth(EulerAngles::from_degrees(1.0, -3.0, 1.5))
        .with_trajectory(TrajectorySpec::Highway)
        .with_environment(EnvironmentSpec::truck())
        .with_tuning(TuningSpec::Dynamic)
        .with_seed(108)
}

/// Mountain-road hill climb: sustained grades excite pitch
/// observability on the road — the tilt table's pitch steps without
/// the laboratory.
pub fn hill_climb() -> ScenarioSpec {
    ScenarioSpec::named("hill-climb")
        .with_truth(EulerAngles::from_degrees(-2.5, 2.5, -1.5))
        .with_trajectory(TrajectorySpec::Segments {
            block: vec![
                Segment::accelerate(5.0, 2.0),
                Segment::grade(10.0, 0.07),
                Segment::cruise(3.0),
                Segment::grade(10.0, -0.07),
                Segment::brake(4.0, 2.0),
                Segment::idle(2.0),
            ],
        })
        .with_environment(EnvironmentSpec::passenger_car())
        .with_tuning(TuningSpec::Dynamic)
        .with_seed(109)
}

/// CAN/UART fault storm: the urban drive through the full comms chain
/// with bit flips, byte drops and burst errors on both links — the
/// reconstruction stage's checksums must shed the damage.
pub fn can_fault_storm() -> ScenarioSpec {
    ScenarioSpec::named("can-fault-storm")
        .with_truth(EulerAngles::from_degrees(2.0, -1.5, 2.5))
        .with_trajectory(TrajectorySpec::Urban)
        .with_environment(EnvironmentSpec::passenger_car())
        .with_tuning(TuningSpec::Dynamic)
        .with_channel(ChannelSpec::Comms {
            faults: LinkFaultConfig {
                bit_flip_prob: 0.002,
                drop_prob: 0.002,
                burst_prob: 0.0005,
                burst_len: 6,
            },
        })
        .with_seed(110)
}

/// Long-haul drift: a full hour of highway driving — does the
/// estimate stay put over 12x the paper's run length?
pub fn long_haul_drift() -> ScenarioSpec {
    ScenarioSpec::named("long-haul-drift")
        .with_truth(EulerAngles::from_degrees(1.0, 1.0, -1.0))
        .with_trajectory(TrajectorySpec::Highway)
        .with_environment(EnvironmentSpec::passenger_car())
        .with_tuning(TuningSpec::Dynamic)
        .with_duration(3600.0)
        .with_trace_decimation(100)
        .with_seed(111)
}

/// The whole catalog, paper procedures first.
pub fn all() -> Vec<ScenarioSpec> {
    vec![
        paper_static(),
        paper_dynamic(),
        highway_cruise(),
        city_stop_and_go(),
        emergency_brake(),
        double_lane_change(),
        rough_road(),
        truck_transit(),
        hill_climb(),
        can_fault_storm(),
        long_haul_drift(),
    ]
}

/// Every catalog name, in [`all`] order.
pub fn names() -> Vec<String> {
    all().into_iter().map(|s| s.name).collect()
}

/// Looks up one scenario by its catalog name.
pub fn by_name(name: &str) -> Option<ScenarioSpec> {
    all().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_at_least_ten_unique_entries() {
        let names = names();
        assert!(names.len() >= 10, "only {} scenarios", names.len());
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate catalog names");
    }

    #[test]
    fn by_name_finds_every_entry() {
        for name in names() {
            let spec = by_name(&name).expect("entry resolves");
            assert_eq!(spec.name, name);
        }
        assert!(by_name("no-such-scenario").is_none());
    }

    #[test]
    fn seeds_are_distinct() {
        let mut seeds: Vec<u64> = all().iter().map(|s| s.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), all().len(), "catalog seeds must differ");
    }

    #[test]
    fn every_trajectory_lowers_and_covers_its_duration() {
        use vehicle::Trajectory as _;
        for spec in all() {
            let trajectory = spec.trajectory.lower(40.0);
            assert!(
                trajectory.duration_s() >= 40.0,
                "{} covers only {} s",
                spec.name,
                trajectory.duration_s()
            );
            for t in [0.0, 13.0, 39.0] {
                assert!(
                    trajectory.sample(t).specific_force_body().is_finite(),
                    "{} non-finite at t={t}",
                    spec.name
                );
            }
        }
    }
}
