//! The parallel sweep executor's contract: worker-pool runs are the
//! *same computation* as interleaving each scenario's substrate
//! sessions on one thread — bit for bit — and the session layer is
//! actually `Send` (compile-time pinned), so sessions may be lowered
//! and run inside worker threads.

use sensor_fusion_fpga::fusion::spec::{ScenarioSuite, Substrate};
use sensor_fusion_fpga::fusion::{
    catalog, exec, CommsChainSource, FusionSession, IntoSharedTrajectory, SessionGroup, SuiteCell,
    SyntheticSource, VehicleSummary,
};
use std::sync::Arc;

/// Compile-time `Send` audit of the session layer. If any source,
/// backend or sink loses its `Send` bound, this stops compiling —
/// which is exactly the error the parallel executor would otherwise
/// hit at its call site.
#[test]
fn session_layer_is_send() {
    fn assert_send<T: Send>() {}
    assert_send::<FusionSession>();
    assert_send::<SessionGroup>();
    assert_send::<SyntheticSource>();
    assert_send::<CommsChainSource>();
    assert_send::<ScenarioSuite>();
    assert_send::<SuiteCell>();
}

/// A session built on one thread runs to completion on another (the
/// exact movement `run_parallel` performs per cell).
#[test]
fn sessions_cross_threads() {
    let spec = catalog::paper_static().with_duration(10.0);
    let session = spec.into_session(spec.lower_trajectory());
    let estimate = std::thread::spawn(move || {
        let mut session = session;
        session.run_to_end();
        session.estimate()
    })
    .join()
    .expect("worker thread");
    let mut reference = spec.into_session(spec.lower_trajectory());
    reference.run_to_end();
    assert_eq!(estimate, reference.estimate());
}

fn bits(summary: &VehicleSummary, ops: u64, cycles: u64) -> Vec<u64> {
    let a = summary.estimate.angles;
    let s = summary.estimate.one_sigma;
    vec![
        a.roll.to_bits(),
        a.pitch.to_bits(),
        a.yaw.to_bits(),
        s[0].to_bits(),
        s[1].to_bits(),
        s[2].to_bits(),
        summary.error_rms_deg.to_bits(),
        summary.exceed_rate.to_bits(),
        summary.retune_count as u64,
        summary.estimate.updates,
        ops,
        summary.saturations,
        cycles,
    ]
}

fn cell_bits(cell: &SuiteCell) -> Vec<u64> {
    bits(&cell.summary, cell.ops, cell.cycles)
}

/// Acceptance: the parallel suite report is bit-identical to the
/// serial sweep — each scenario's substrate sessions interleaved on
/// one thread over one shared trajectory — across catalog cells:
/// estimates, confidence, error metrics, retunes and the per-substrate
/// instrumentation ledgers, including a comms-chain + fault-injection
/// scenario, whose RNG stream is the easiest thing to break.
#[test]
fn parallel_suite_is_bit_identical_to_serial() {
    let duration = 8.0;
    let scenarios = vec![
        catalog::paper_static(),
        catalog::paper_dynamic(),
        catalog::by_name("can-fault-storm").expect("catalog entry"),
    ];
    let parallel = ScenarioSuite::new(scenarios.clone())
        .with_duration(duration)
        .run_parallel(4);
    assert_eq!(parallel.cells.len(), 3 * Substrate::all().len());
    let mut cells = parallel.cells.iter();
    for scenario in scenarios {
        let scenario = scenario.with_duration(duration);
        let trajectory = scenario.lower_trajectory().into_shared();
        let mut group = SessionGroup::new();
        for substrate in Substrate::all() {
            let spec = scenario.clone().with_substrate(substrate);
            group.push(spec.into_session(Arc::clone(&trajectory)));
        }
        group.run_interleaved(1.0);
        for (substrate, session) in Substrate::all().into_iter().zip(group.into_sessions()) {
            let p = cells.next().expect("one cell per scenario x substrate");
            assert_eq!(p.scenario, scenario.name, "cell order must match");
            assert_eq!(p.substrate, substrate, "cell order must match");
            let (ops, saturations, cycles) = substrate.read_instrumentation(&session);
            let stream = session.stream_stats();
            let serial = VehicleSummary::from_result(&session.into_result(), saturations, stream);
            assert_eq!(
                bits(&serial, ops, cycles),
                cell_bits(p),
                "parallel diverged from serial on {}/{substrate}",
                scenario.name
            );
            // Comms cells carry their stream stats through both paths.
            assert_eq!(stream, p.summary.stream, "{}/{substrate}", scenario.name);
        }
    }
    // The fault-storm cells actually exercised the injected faults.
    let storm = parallel
        .cell("can-fault-storm", Substrate::F64)
        .expect("storm cell");
    let stream = storm.summary.stream.expect("comms cell has stream stats");
    assert!(stream.fault_bits_flipped > 0);
}

/// Worker-count invariance: 1 worker (inline), 2 and 8 all produce the
/// identical report, so scheduling order cannot leak into results.
#[test]
fn worker_count_does_not_change_the_report() {
    let suite = ScenarioSuite::new(vec![catalog::paper_static()])
        .with_duration(6.0)
        .with_substrates(&[Substrate::F64, Substrate::Q16_16]);
    let one = suite.run_parallel(1);
    let two = suite.run_parallel(2);
    let eight = suite.run_parallel(8);
    for (a, b) in one.cells.iter().zip(&two.cells) {
        assert_eq!(cell_bits(a), cell_bits(b));
    }
    for (a, b) in one.cells.iter().zip(&eight.cells) {
        assert_eq!(cell_bits(a), cell_bits(b));
    }
}

/// The pool itself: order preservation under uneven load is what the
/// suite's scenario-major report layout relies on.
#[test]
fn map_parallel_preserves_input_order() {
    let out = exec::map_parallel((0..64u64).collect(), 8, |x| x * x);
    assert_eq!(out, (0..64u64).map(|x| x * x).collect::<Vec<_>>());
}

/// The persistent-pool variant: one warm `exec::Pool` serves repeated
/// `run_lanes_on` sweeps with results bit-identical to the one-shot
/// `run_lanes` path (order preserved, every session finished).
#[test]
fn run_lanes_on_persistent_pool_matches_one_shot() {
    let build = || {
        let mut group = SessionGroup::new();
        for (i, spec) in catalog::all().into_iter().enumerate() {
            let spec = spec.with_duration(4.0).with_seed(600 + i as u64);
            group.push(spec.into_session(spec.lower_trajectory()));
        }
        group
    };
    let mut reference = build();
    reference.run_lanes(2);

    let pool = exec::Pool::new(2);
    for _ in 0..2 {
        let mut group = build();
        group.run_lanes_on(&pool);
        assert!(group.all_finished());
        for (a, b) in group.sessions().iter().zip(reference.sessions()) {
            let (ea, eb) = (a.estimate(), b.estimate());
            assert_eq!(ea.angles.roll.to_bits(), eb.angles.roll.to_bits());
            assert_eq!(ea.angles.pitch.to_bits(), eb.angles.pitch.to_bits());
            assert_eq!(ea.angles.yaw.to_bits(), eb.angles.yaw.to_bits());
            assert_eq!(ea.updates, eb.updates);
        }
    }
}
