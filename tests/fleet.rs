//! The fleet server's contract: every vehicle multiplexed through the
//! shard arena produces — bit for bit — the estimate stream a
//! standalone scalar [`FusionSession`] of the same scenario produces,
//! at any shard count and any worker count; vehicles join mid-run,
//! evictions compact slots without disturbing survivors, and recycled
//! slots are indistinguishable from fresh ones.

use sensor_fusion_fpga::fusion::adaptive::{HysteresisPolicy, SubstrateId};
use sensor_fusion_fpga::fusion::arith::F64Arith;
use sensor_fusion_fpga::fusion::fleet::{EvictReason, Fleet, FleetConfig, VehicleId};
use sensor_fusion_fpga::fusion::oracle::FusionOracle;
use sensor_fusion_fpga::fusion::spec::ScenarioSpec;
use sensor_fusion_fpga::fusion::{catalog, FusionSession, MisalignmentEstimate};

const TICK: f64 = 0.005;

/// A catalog fleet roster: `n` vehicles cycling the full catalog with
/// distinct seeds (and generous durations, so nobody completes while a
/// partial-run comparison is still stepping).
fn roster(n: usize, duration_s: f64) -> Vec<ScenarioSpec> {
    let base = catalog::all();
    (0..n)
        .map(|i| {
            base[i % base.len()]
                .clone()
                .with_duration(duration_s)
                .with_seed(7000 + i as u64)
        })
        .collect()
}

/// The scalar reference for a fleet resident: the spec's own session
/// (catalog specs are all `Substrate::F64`, the arena's substrate),
/// stepped with the exact clock accumulation the fleet's epoch loop
/// performs.
fn scalar_reference(spec: &ScenarioSpec, epochs: usize) -> FusionSession {
    let mut session = spec.into_session(spec.lower_trajectory());
    for _ in 0..epochs {
        session.step(TICK);
    }
    session
}

/// Every per-vehicle observable the fleet exposes, bit-packed.
fn fleet_bits<const L: usize>(fleet: &Fleet<F64Arith, L>, id: VehicleId) -> Vec<u64> {
    let est = fleet.estimate(id).expect("vehicle resident");
    let stats = fleet.vehicle_stats(id).expect("vehicle resident");
    vec![
        est.angles.roll.to_bits(),
        est.angles.pitch.to_bits(),
        est.angles.yaw.to_bits(),
        est.one_sigma[0].to_bits(),
        est.one_sigma[1].to_bits(),
        est.one_sigma[2].to_bits(),
        est.updates,
        stats.events,
        stats.updates,
        stats.exceeded,
        fleet.retune_count(id).expect("vehicle resident"),
        fleet
            .measurement_sigma(id)
            .expect("vehicle resident")
            .to_bits(),
    ]
}

/// The same observables read off a scalar session.
fn scalar_bits(spec: &ScenarioSpec, session: &FusionSession) -> Vec<u64> {
    let est = session.estimate();
    let stats = session.stats();
    let sigma = session
        .retunes()
        .last()
        .map(|r| r.new_sigma)
        .unwrap_or(spec.tuning.estimator_config().filter.measurement_sigma);
    vec![
        est.angles.roll.to_bits(),
        est.angles.pitch.to_bits(),
        est.angles.yaw.to_bits(),
        est.one_sigma[0].to_bits(),
        est.one_sigma[1].to_bits(),
        est.one_sigma[2].to_bits(),
        est.updates,
        stats.events,
        stats.updates,
        stats.exceeded,
        session.retunes().len() as u64,
        sigma.to_bits(),
    ]
}

fn build_fleet(specs: &[ScenarioSpec], shards: usize) -> (Fleet<F64Arith, 8>, Vec<VehicleId>) {
    let mut fleet: Fleet<F64Arith, 8> = Fleet::new(FleetConfig {
        shards,
        tick_dt: TICK,
        ..FleetConfig::default()
    });
    let ids = specs
        .iter()
        .map(|spec| fleet.admit(spec).expect("catalog tuning is compatible"))
        .collect();
    (fleet, ids)
}

/// The acceptance pin: a 1k+ vehicle catalog fleet is bit-identical,
/// vehicle for vehicle, to independent scalar sessions — at 1, 2 and 4
/// workers and across different shard counts.
#[test]
fn thousand_vehicle_fleet_matches_scalar_sessions() {
    const VEHICLES: usize = 1024;
    const EPOCHS: usize = 60;
    let specs = roster(VEHICLES, 30.0);
    let expected: Vec<Vec<u64>> = specs
        .iter()
        .map(|spec| {
            let session = scalar_reference(spec, EPOCHS);
            scalar_bits(spec, &session)
        })
        .collect();

    for (shards, workers) in [(8, 1), (8, 2), (8, 4), (3, 4), (16, 5)] {
        let (mut fleet, ids) = build_fleet(&specs, shards);
        assert_eq!(fleet.len(), VEHICLES);
        fleet.run_epochs(EPOCHS, workers);
        assert_eq!(fleet.len(), VEHICLES, "nobody completed or diverged");
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(
                fleet_bits(&fleet, id),
                expected[i],
                "vehicle {i} ({}) diverged from its scalar session \
                 at {shards} shards / {workers} workers",
                specs[i].name
            );
        }
        let stats = fleet.stats();
        assert_eq!(stats.ingress.dropped, 0, "no lossy overflow expected");
        assert!(stats.updates > 0);
    }
}

/// Vehicles join mid-run: a vehicle admitted at epoch `k` streams from
/// its own local time zero and matches a fresh scalar run of the
/// epochs it was actually resident for.
#[test]
fn vehicles_join_mid_epoch() {
    let specs = roster(6, 30.0);
    let late = catalog::paper_dynamic().with_duration(30.0).with_seed(9901);

    let (mut fleet, ids) = build_fleet(&specs, 2);
    fleet.run_epochs(50, 2);
    let late_id = fleet.admit(&late).expect("compatible");
    fleet.run_epochs(75, 2);

    let late_session = scalar_reference(&late, 75);
    assert_eq!(
        fleet_bits(&fleet, late_id),
        scalar_bits(&late, &late_session)
    );
    let t = fleet.local_time(late_id).expect("resident");
    assert_eq!(t.to_bits(), late_session.time_s().to_bits());

    // The incumbents never noticed the join.
    for (i, &id) in ids.iter().enumerate() {
        let session = scalar_reference(&specs[i], 125);
        assert_eq!(fleet_bits(&fleet, id), scalar_bits(&specs[i], &session));
    }
}

/// Eviction compacts the arena (swap-remove plus lane export/import)
/// without perturbing any survivor, including when the evicted vehicle
/// is the shard's last slot, and a drained shard accepts new vehicles
/// into recycled slots with fresh-filter determinism.
#[test]
fn eviction_compaction_and_slot_reuse_preserve_determinism() {
    let specs = roster(5, 30.0);
    let (mut fleet, ids) = build_fleet(&specs, 1);
    fleet.run_epochs(40, 1);

    // Evict a middle slot: the last slot compacts into it.
    let middle = ids[2];
    let summary = fleet.evict(middle).expect("was resident");
    assert!(summary.estimate.updates > 0);
    assert_eq!(fleet.len(), 4);
    assert_eq!(
        fleet.completed().last().map(|c| (c.id, c.reason)),
        Some((middle, EvictReason::Requested))
    );
    assert!(fleet.estimate(middle).is_none(), "directory entry removed");

    // Evict the (new) last slot too — the no-compaction path.
    let last_slot_id = *ids
        .iter()
        .filter(|&&id| id != middle)
        .max_by_key(|&&id| fleet.placement(id).expect("resident").1)
        .expect("fleet non-empty");
    fleet.evict(last_slot_id).expect("was resident");
    assert_eq!(fleet.len(), 3);

    // Survivors keep bit-identity through both compactions.
    fleet.run_epochs(40, 1);
    for (i, &id) in ids.iter().enumerate() {
        if id == middle || id == last_slot_id {
            continue;
        }
        let session = scalar_reference(&specs[i], 80);
        assert_eq!(
            fleet_bits(&fleet, id),
            scalar_bits(&specs[i], &session),
            "survivor {i} perturbed by eviction compaction"
        );
    }

    // Drain the shard completely, then recycle its slots: a vehicle
    // admitted into a previously used slot behaves like a fresh run.
    for &id in &ids {
        if fleet.placement(id).is_some() {
            fleet.evict(id);
        }
    }
    assert!(fleet.is_empty());
    let reborn = catalog::rough_road().with_duration(30.0).with_seed(424242);
    let reborn_id = fleet.admit(&reborn).expect("compatible");
    assert_eq!(fleet.placement(reborn_id), Some((0, 0)), "slot 0 recycled");
    fleet.run_epochs(60, 1);
    let session = scalar_reference(&reborn, 60);
    assert_eq!(
        fleet_bits(&fleet, reborn_id),
        scalar_bits(&reborn, &session),
        "recycled slot leaked state from its previous occupant"
    );
}

/// Bit-identity holds through the comms chain under a link-fault
/// storm: corrupted frames, CRC rejects and byte drops land on exactly
/// the same vehicles with exactly the same effect as in scalar runs.
#[test]
fn fault_storm_fleet_matches_scalar_sessions() {
    const VEHICLES: usize = 48;
    const EPOCHS: usize = 200;
    let specs: Vec<ScenarioSpec> = (0..VEHICLES)
        .map(|i| {
            catalog::can_fault_storm()
                .with_duration(30.0)
                .with_seed(31_000 + i as u64)
        })
        .collect();
    let (mut fleet, ids) = build_fleet(&specs, 4);
    fleet.run_epochs(EPOCHS, 4);
    for (i, &id) in ids.iter().enumerate() {
        let session = scalar_reference(&specs[i], EPOCHS);
        assert_eq!(
            fleet_bits(&fleet, id),
            scalar_bits(&specs[i], &session),
            "fault-storm vehicle {i} diverged"
        );
        assert_eq!(
            fleet.summary(id).expect("resident").stream,
            session.stream_stats(),
            "fault-storm vehicle {i} stream stats diverged"
        );
    }
}

/// A vehicle whose scenario runs out is evicted as `Completed`, with a
/// final summary matching the scalar session's end state; the fleet
/// then reports it in the eviction log, not the directory.
#[test]
fn completed_vehicles_are_evicted_with_final_summaries() {
    let short = catalog::paper_static().with_duration(0.4).with_seed(5150);
    let long = catalog::paper_static().with_duration(30.0).with_seed(5151);
    let (mut fleet, ids) = build_fleet(&[short.clone(), long.clone()], 1);
    fleet.run_epochs(120, 1);

    assert_eq!(fleet.len(), 1, "short scenario completed and left");
    assert!(fleet.placement(ids[0]).is_none());
    let done = &fleet.completed()[0];
    assert_eq!(done.id, ids[0]);
    assert_eq!(done.reason, EvictReason::Completed);
    assert_eq!(done.scenario, short.name);

    let mut session = short.into_session(short.lower_trajectory());
    while !session.is_finished() {
        session.step(TICK);
    }
    let est = session.estimate();
    assert_eq!(done.summary.estimate, est);
    assert_eq!(
        done.summary.retune_count as u64,
        session.retunes().len() as u64
    );

    // The survivor is unaffected by its neighbour's completion.
    let session = scalar_reference(&long, 120);
    assert_eq!(fleet_bits(&fleet, ids[1]), scalar_bits(&long, &session));
    assert_eq!(fleet.stats().evicted, 1);
}

/// The adaptive sideband: supervised sessions starting on Q16.16 ride
/// next to the lane arena, reconfigure under the hysteresis policy,
/// keep oracle-clean ledgers, and end bit-identical to standalone
/// adaptive sessions advanced one `tick_dt` per epoch — at 1 and 2
/// workers.
#[test]
fn adaptive_sideband_switches_and_matches_standalone_sessions() {
    const EPOCHS: usize = 1200;
    let sideband: Vec<ScenarioSpec> = catalog::all()[..8]
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            spec.clone()
                .with_duration(30.0)
                .with_seed(900_000 + i as u64)
        })
        .collect();
    let bits = |est: &MisalignmentEstimate| {
        [
            est.angles.roll.to_bits(),
            est.angles.pitch.to_bits(),
            est.angles.yaw.to_bits(),
            est.one_sigma[0].to_bits(),
            est.one_sigma[1].to_bits(),
            est.one_sigma[2].to_bits(),
            est.updates,
        ]
    };
    let expected: Vec<_> = sideband
        .iter()
        .map(|spec| {
            let mut session = spec.into_adaptive_session(
                spec.lower_trajectory(),
                SubstrateId::Q16_16,
                Box::new(HysteresisPolicy::default()),
            );
            for _ in 0..EPOCHS {
                session.run_for(TICK);
            }
            bits(&session.estimate())
        })
        .collect();

    let oracle = FusionOracle::default();
    for workers in [1, 2] {
        let (mut fleet, _) = build_fleet(&roster(4, 30.0), 2);
        let ids: Vec<VehicleId> = sideband
            .iter()
            .map(|spec| {
                fleet.admit_adaptive(
                    spec,
                    SubstrateId::Q16_16,
                    Box::new(HysteresisPolicy::default()),
                )
            })
            .collect();
        fleet.run_epochs(EPOCHS, workers);
        assert!(
            fleet.stats().substrate_switches > 0,
            "sideband recorded no substrate switches at {workers} workers"
        );
        for (i, &id) in ids.iter().enumerate() {
            let ledger = fleet.adaptive_ledger(id).expect("sideband resident");
            if let Some(verdict) = oracle.check_ledger(ledger, SubstrateId::Q16_16, 0) {
                panic!("sideband vehicle {i} ledger at {workers} workers: {verdict}");
            }
            assert_eq!(
                bits(&fleet.estimate(id).expect("sideband resident")),
                expected[i],
                "sideband vehicle {i} ({}) diverged from its standalone session \
                 at {workers} workers",
                sideband[i].name
            );
        }
    }
}
