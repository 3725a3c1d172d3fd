//! The three session workloads: `replay-f64`, `replay-softfloat` and
//! `wire-replay`. Set-up renders every roster vehicle's input once;
//! serving builds a fresh `FusionSession` per vehicle per pass and
//! times every `FusionSession::step(acc_dt)`.

use crate::report::Report;
use crate::roster::{self, Recorded};
use crate::sabre::{self, PhaseCycles};
use crate::stats::{self, summarize, Rep};
use crate::trace::{self, Layer, Tracer};
use crate::wire::{self, Rendered, StageTimes};
use crate::Args;
use boresight::arith::{Arith, F64Arith, QArith, SoftArith};
use boresight::estimator::{GenericBoresightEstimator, MisalignmentEstimate};
use boresight::oracle::FusionOracle;
use boresight::replay::replay_spec_session;
use boresight::session::{FusionSession, LinkFaultConfig, SensorSource};
use boresight::spec::{ChannelSpec, ScenarioSpec, Substrate};
use boresight::system::{SabrePublishSink, SystemConfig};
use std::time::{Duration, Instant};

/// Which session workload runs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ReplayF64,
    ReplaySoftfloat,
    Wire,
}

/// The roster's pre-rendered input.
enum Inputs {
    Replay(Vec<Recorded>),
    Wire(Vec<Rendered>),
}

impl Inputs {
    fn len(&self) -> usize {
        match self {
            Inputs::Replay(r) => r.len(),
            Inputs::Wire(r) => r.len(),
        }
    }

    fn spec(&self, i: usize) -> &ScenarioSpec {
        match self {
            Inputs::Replay(r) => &r[i].spec,
            Inputs::Wire(r) => &r[i].spec,
        }
    }
}

impl Kind {
    fn substrate(self) -> Substrate {
        match self {
            Kind::ReplaySoftfloat => Substrate::Softfloat,
            Kind::ReplayF64 | Kind::Wire => Substrate::F64,
        }
    }

    fn setup(self, specs: &[ScenarioSpec]) -> Inputs {
        match self {
            Kind::ReplayF64 | Kind::ReplaySoftfloat => Inputs::Replay(roster::record(specs)),
            Kind::Wire => Inputs::Wire(
                specs
                    .iter()
                    .map(|spec| wire::render(spec, wire::storm(), false, None))
                    .collect(),
            ),
        }
    }
}

fn publish_sink(spec: &ScenarioSpec) -> SabrePublishSink {
    SabrePublishSink::new(SystemConfig::from_spec(spec).publish_interval_s)
}

/// A fresh serving session for roster vehicle `i`.
fn session(kind: Kind, inputs: &Inputs, i: usize) -> FusionSession {
    match inputs {
        Inputs::Replay(roster) => {
            let spec = roster[i].spec.clone().with_substrate(kind.substrate());
            replay_spec_session(&spec, &roster[i].recording)
        }
        Inputs::Wire(roster) => {
            let r = &roster[i];
            let cfg = r.spec.config();
            FusionSession::builder()
                .source(r.source())
                .iekf(F64Arith::default(), cfg.estimator)
                .truth(cfg.true_misalignment)
                .record_traces_sized(cfg.trace_decimation, FusionSession::expected_updates(&cfg))
                .sink(publish_sink(&r.spec))
                .build()
        }
    }
}

/// Modelled Sabre softfloat cycles a finished session's IEKF charged:
/// the softfloat ledger itself, or an `f64` ledger priced at the
/// softfloat per-op costs. The second value is the softfloat ledger
/// priced the same way (equal to the first when pricing is exact).
fn session_cycles(kind: Kind, session: &FusionSession) -> (u64, u64) {
    match kind {
        Kind::ReplaySoftfloat => {
            let arith = session
                .backend_as::<GenericBoresightEstimator<SoftArith>>()
                .expect("softfloat backend")
                .filter()
                .arith();
            (arith.cycles(), sabre::softfloat_cycles(&arith.counts()))
        }
        Kind::ReplayF64 | Kind::Wire => {
            let counts = session
                .backend_as::<GenericBoresightEstimator<F64Arith>>()
                .expect("f64 backend")
                .filter()
                .arith()
                .counts();
            let priced = sabre::softfloat_cycles(&counts);
            (priced, priced)
        }
    }
}

/// Final per-vehicle outputs of the first pass (later passes must
/// reproduce them bit for bit).
struct Finals {
    estimates: Vec<MisalignmentEstimate>,
    cycles: u64,
    stream_s: f64,
}

/// Serves the whole roster pass after pass until `budget` has elapsed
/// (at least one pass), timing every tick; with `move_cores`, each pass
/// runs on the next core (see [`stats::pin`]). Returns each vehicle's
/// repetitions.
fn serve(
    kind: Kind,
    inputs: &Inputs,
    budget: Duration,
    move_cores: bool,
    report: &mut Report,
) -> (Vec<Vec<Rep>>, Finals) {
    let oracle = FusionOracle::default();
    let substrate = kind.substrate();
    let mut reps: Vec<Vec<Rep>> = vec![Vec::new(); inputs.len()];
    let mut finals = Finals {
        estimates: Vec::new(),
        cycles: 0,
        stream_s: 0.0,
    };
    let mut ticks: Vec<u32> = Vec::with_capacity(1 << 14);
    let start = Instant::now();
    let mut pass = 0;
    while pass == 0 || start.elapsed() < budget {
        if move_cores {
            stats::pin_for(pass);
        }
        for (i, vehicle_reps) in reps.iter_mut().enumerate() {
            let mut session = session(kind, inputs, i);
            let dt = session.source_dt();
            ticks.clear();
            let mut last = Instant::now();
            while !session.is_finished() {
                session.step(dt);
                let now = Instant::now();
                ticks.push(now.duration_since(last).as_nanos() as u32);
                last = now;
            }
            vehicle_reps.push(Rep::from_ticks(session.time_s(), &ticks));
            let estimate = session.estimate();
            report.attempted += 1;
            if !oracle.check_estimate(&estimate, substrate).is_empty() {
                report.failed += 1;
            }
            if pass == 0 {
                let (cycles, priced) = session_cycles(kind, &session);
                report.gate(cycles == priced, || {
                    format!(
                        "{}: softfloat cycle ledger {cycles} != its op counts priced at the \
                         Sabre costs {priced}",
                        inputs.spec(i).name
                    )
                });
                finals.cycles += cycles;
                finals.stream_s += session.time_s();
                finals.estimates.push(estimate);
            } else {
                report.gate(roster::same_bits(&estimate, &finals.estimates[i]), || {
                    format!(
                        "{}: pass {pass} final estimate differs from pass 0",
                        inputs.spec(i).name
                    )
                });
            }
        }
        pass += 1;
    }
    if move_cores {
        stats::unpin();
    }
    (reps, finals)
}

/// Gates that compare the served finals against the live system.
fn check_against_live(kind: Kind, inputs: &Inputs, finals: &Finals, report: &mut Report) {
    match inputs {
        Inputs::Replay(roster) => {
            // Replay equals the live recording run; on softfloat this is
            // the softfloat == f64 bit-identity gate.
            for (r, served) in roster.iter().zip(&finals.estimates) {
                report.gate(roster::same_bits(served, &r.live.estimate), || {
                    format!(
                        "{}: {} replay final estimate differs from the live f64 recording run",
                        r.spec.name,
                        kind.substrate()
                    )
                });
            }
        }
        Inputs::Wire(roster) => {
            // The pre-rendered bytes reproduce the system's own comms
            // chain: the live CommsChainSource run ends on the same bits.
            for (r, served) in roster.iter().zip(&finals.estimates) {
                let live = r
                    .spec
                    .clone()
                    .with_channel(ChannelSpec::Comms {
                        faults: wire::storm(),
                    })
                    .run();
                report.gate(roster::same_bits(served, &live.estimate), || {
                    format!(
                        "{}: wire replay final estimate differs from the live comms-chain run",
                        r.spec.name
                    )
                });
            }
            // Clean links: every message reconstructs, no checksum error.
            for r in roster {
                let clean = wire::render(
                    &r.spec.clone().with_duration(5.0),
                    LinkFaultConfig::clean(),
                    true,
                    None,
                );
                let mut session = FusionSession::builder()
                    .source(clean.source())
                    .estimator(r.spec.config().estimator)
                    .build();
                session.run_to_end();
                let stats = session.stream_stats().expect("UART replay has link stats");
                let ok = stats.dmu_samples + stats.acc_samples;
                let errors = stats.dmu_errors + stats.acc_errors + stats.dmu_gaps + stats.acc_gaps;
                report.gate(ok == clean.messages && errors == 0, || {
                    format!(
                        "{}: clean link reconstructed {ok} of {} messages with {errors} errors/gaps",
                        r.spec.name, clean.messages
                    )
                });
            }
        }
    }
}

/// Replay vehicles whose recording the oracle's windowed checks flag.
fn oracle_flagged(inputs: &Inputs) -> usize {
    let oracle = FusionOracle::default();
    match inputs {
        Inputs::Replay(roster) => roster
            .iter()
            .filter(|r| !oracle.check_recording(&r.spec, &r.recording).is_healthy())
            .count(),
        Inputs::Wire(_) => 0,
    }
}

/// Runs one session workload.
pub fn run(kind: Kind, args: &Args, report: &mut Report) {
    let specs = roster::specs(args.seed);
    report.header("vehicles", specs.len().to_string());
    report.header("stream_s_per_vehicle", roster::STREAM_S.to_string());
    report.header("substrate", kind.substrate().to_string());
    let budget = Duration::from_secs_f64(args.seconds);
    if args.trace {
        run_traced(kind, &specs, args, report);
        return;
    }
    let (inputs, setup_s) = roster::repeated_setup(|| kind.setup(&specs));
    let (reps, finals) = serve(kind, &inputs, budget, true, report);
    check_against_live(kind, &inputs, &finals, report);
    let passes = reps[0].len();
    report.failed += (oracle_flagged(&inputs) * passes) as u64;
    let summary = summarize(&reps);
    report.header("passes", passes.to_string());
    report.header("ticks_timed", summary.ticks_timed.to_string());
    report.header("ticks_kept", summary.ticks_kept.to_string());
    report.metric("realtime_vehicles", summary.realtime);
    report.metric("tick_p50_us", summary.p50_us);
    report.metric("tick_p99_us", summary.p99_us);
    report.metric("setup_s", setup_s);
    report.metric(
        "sigma3_mean_deg",
        roster::sigma3_mean_deg(&finals.estimates),
    );
    report.metric("ok_frac", report.ok_frac());
    report.metric(
        "sabre_budget_frac",
        finals.cycles as f64 / finals.stream_s / sabre::CLOCK_HZ,
    );
    report.metric("peak_rss_mb", crate::stats::peak_rss_mb());
    println!(
        "served {passes} passes x {} vehicles ({:.0} stream s each pass), alternating cores; \
         {} ticks timed, the fastest tenth of each vehicle's repetitions ({} ticks) kept",
        inputs.len(),
        finals.stream_s,
        summary.ticks_timed,
        summary.ticks_kept
    );
}

/// Per-layer totals of traced passes over the roster.
struct TracedTotals {
    tracer: Tracer,
    phases: PhaseCycles,
    wall_s: f64,
    stream_s: f64,
    events: u64,
    ticks: u64,
    retunes: u64,
    messages_ok: u64,
    checksum_errors: u64,
    publish_cycles: u64,
    publishes: u64,
}

fn traced_vehicle<A: Arith + Clone>(
    arith: A,
    priced: bool,
    spec: &ScenarioSpec,
    source: Box<dyn SensorSource>,
    sink: Option<SabrePublishSink>,
    totals: &mut TracedTotals,
) -> MisalignmentEstimate {
    let start = Instant::now();
    let run = trace::traced_run(
        arith,
        &spec.config().estimator,
        source,
        sink,
        &mut totals.tracer,
    );
    totals.wall_s += start.elapsed().as_secs_f64();
    totals.tracer.finish_vehicle();
    let arith = run.filter.arith();
    let total = if priced {
        sabre::softfloat_cycles(&arith.counts())
    } else {
        arith.cycles()
    };
    totals.phases.add(
        run.filter.phase_ledger(),
        total,
        priced,
        run.update_calls,
        run.filter.update_count(),
    );
    totals.stream_s += run.stream_s;
    totals.events += run.events;
    totals.ticks += run.ticks;
    totals.retunes += run.retunes;
    if let Some(stats) = run.stream_stats {
        totals.messages_ok += stats.dmu_samples + stats.acc_samples;
        totals.checksum_errors += stats.dmu_errors + stats.acc_errors;
    }
    if let Some(sink) = &run.sink {
        totals.publish_cycles += sink.cycles();
        totals.publishes += sink.publishes();
    }
    run.estimate
}

/// q16.16 replays of the same recordings: accept ratio, modelled
/// cycles per update and saturations.
fn q16_replay(roster: &[Recorded]) -> (PhaseCycles, u64) {
    let mut phases = PhaseCycles::default();
    let mut saturations = 0;
    for r in roster {
        let spec = r.spec.clone().with_substrate(Substrate::Q16_16);
        let mut session = replay_spec_session(&spec, &r.recording);
        session.run_to_end();
        let calls = session.stats().updates;
        let backend = session
            .backend_as::<GenericBoresightEstimator<QArith<16>>>()
            .expect("q16.16 backend");
        let filter = backend.filter();
        phases.add(
            filter.phase_ledger(),
            filter.arith().cycles(),
            false,
            calls,
            filter.update_count(),
        );
        saturations += filter.arith().saturations();
    }
    (phases, saturations)
}

/// The traced run: untraced serving for half the budget (the overhead
/// baseline), then traced passes for the other half, plus the set-up
/// stage timings, the generator rows and the q16.16 replay.
fn run_traced(kind: Kind, specs: &[ScenarioSpec], args: &Args, report: &mut Report) {
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let mut stages = StageTimes::default();
    let inputs = match kind {
        Kind::Wire => Inputs::Wire(
            specs
                .iter()
                .map(|spec| wire::render(spec, wire::storm(), false, Some(&mut stages)))
                .collect(),
        ),
        _ => kind.setup(specs),
    };
    let (reps, finals) = serve(kind, &inputs, half, false, report);
    let untraced = summarize(&reps);
    let untraced_s_per_stream_s = untraced.wall_s / untraced.stream_s;

    let mut totals = TracedTotals {
        tracer: Tracer::new(),
        phases: PhaseCycles::default(),
        wall_s: 0.0,
        stream_s: 0.0,
        events: 0,
        ticks: 0,
        retunes: 0,
        messages_ok: 0,
        checksum_errors: 0,
        publish_cycles: 0,
        publishes: 0,
    };
    let start = Instant::now();
    let mut traced_passes = 0;
    while traced_passes == 0 || start.elapsed() < half {
        for i in 0..inputs.len() {
            let spec = inputs.spec(i);
            let (source, sink): (Box<dyn SensorSource>, _) = match &inputs {
                Inputs::Replay(roster) => (Box::new(roster[i].recording.replay_source()), None),
                Inputs::Wire(roster) => (Box::new(roster[i].source()), Some(publish_sink(spec))),
            };
            let estimate = match kind {
                Kind::ReplaySoftfloat => {
                    traced_vehicle(SoftArith::default(), false, spec, source, sink, &mut totals)
                }
                _ => traced_vehicle(F64Arith::default(), true, spec, source, sink, &mut totals),
            };
            report.gate(roster::same_bits(&estimate, &finals.estimates[i]), || {
                format!(
                    "{}: traced layer loop final estimate differs from the served session",
                    spec.name
                )
            });
        }
        traced_passes += 1;
    }
    let path = std::path::PathBuf::from(format!(
        "bench_out/perfbench/trace-{}.csv",
        args.workload_name
    ));
    match totals.tracer.write_csv(&path) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }

    let err_max = (0..inputs.len())
        .map(|i| roster::error_deg(inputs.spec(i), &finals.estimates[i]))
        .fold(0.0, f64::max);
    report.metric("estimator.err_max_deg", err_max);
    let t = &totals.tracer.totals;
    let per_tick = |layer: Layer| t.self_us(layer) / totals.ticks.max(1) as f64;
    report.header("traced_passes", traced_passes.to_string());
    report.metric(
        "trace.overhead_frac",
        totals.wall_s / totals.stream_s / untraced_s_per_stream_s - 1.0,
    );
    report.metric("trace.self_sum_frac", t.total_us() / (totals.wall_s * 1e6));
    report.metric("session.loop_us_per_tick", per_tick(Layer::Tick));
    report.metric(
        "session.dispatch_us_per_event",
        t.self_us(Layer::Dispatch) / totals.events.max(1) as f64,
    );
    report.metric("source.poll_us_per_tick", per_tick(Layer::Poll));
    report.metric("sinks.us_per_tick", per_tick(Layer::Sinks));
    report.metric("imu_prep.on_dmu_us", t.us_per_call(Layer::OnDmu));
    report.metric("imu_prep.force_us", t.us_per_call(Layer::Force));
    report.metric("filter.predict_us", t.us_per_call(Layer::Predict));
    report.metric("filter.update_us", t.us_per_call(Layer::Update));
    report.metric("filter.accept_ratio", totals.phases.accept_ratio());
    report.metric("monitor.observe_us", t.us_per_call(Layer::Observe));
    report.metric(
        "monitor.retunes",
        totals.retunes as f64 / traced_passes as f64,
    );
    let ledger = totals.phases;
    report.metric("sabre.cycles_per_update", ledger.total_per_call());
    report.metric("sabre.predict_cycles", ledger.predict_per_call());
    report.metric("sabre.gate_cycles", ledger.gate_per_call());
    report.metric("sabre.update_cycles", ledger.update_per_call());
    // Wire serving publishes through the Sabre sink; elsewhere one
    // publish of the first vehicle's estimate is executed on the ISS.
    let publish_cycles = if totals.publishes > 0 {
        totals.publish_cycles as f64 / totals.publishes as f64
    } else {
        sabre::publish_iss_cycles(&finals.estimates[0])
    };
    report.metric("sabre.publish_iss_cycles", publish_cycles);
    println!(
        "{:<32} {:>12} {:>12} {:>14}",
        "layer (traced)", "calls", "self ms", "self us/call"
    );
    for layer in trace::LAYERS {
        println!(
            "{:<32} {:>12} {:>12.2} {:>14.4}",
            layer.name(),
            t.calls(layer),
            t.self_us(layer) / 1e3,
            t.us_per_call(layer)
        );
    }
    println!(
        "self times sum to {:.1} ms of {:.1} ms traced wall",
        t.total_us() / 1e3,
        totals.wall_s * 1e3
    );

    // Op counts per update call, by phase, from the filter's ledger (the
    // gate/update split the spans cannot see).
    report.metric("filter.predict_ops", ledger.ops_per_call(0));
    report.metric("filter.gate_ops", ledger.ops_per_call(1));
    report.metric("filter.update_ops", ledger.ops_per_call(2));

    for (kind_name, us) in roster::generator_us_per_step(specs) {
        report.metric(
            match kind_name {
                "tilt" => "generator.tilt_us_per_step",
                "drive" => "generator.drive_us_per_step",
                "comms" => "generator.comms_us_per_step",
                _ => "generator.us_per_step",
            },
            us,
        );
    }

    if let Inputs::Wire(roster) = &inputs {
        let sent: u64 = roster.iter().map(|r| r.messages).sum::<u64>() * traced_passes;
        report.metric(
            "comms.encode_us_per_frame",
            stages.encode_ns as f64 / 1e3 / stages.frames.max(1) as f64,
        );
        report.metric(
            "comms.uart_us_per_byte",
            stages.uart_ns as f64 / 1e3 / stages.uart_bytes.max(1) as f64,
        );
        report.metric(
            "comms.fault_us_per_byte",
            stages.fault_ns as f64 / 1e3 / stages.fault_bytes.max(1) as f64,
        );
        report.metric(
            "comms.reconstruct_us_per_msg",
            t.self_us(Layer::Poll) / totals.messages_ok.max(1) as f64,
        );
        report.metric(
            "comms.msgs_ok_ratio",
            totals.messages_ok as f64 / sent.max(1) as f64,
        );
        report.metric(
            "comms.checksum_errors",
            totals.checksum_errors as f64 / traced_passes as f64,
        );
    }

    if let Inputs::Replay(roster) = &inputs {
        let (q16, saturations) = q16_replay(roster);
        report.metric("q16.accept_ratio", q16.accept_ratio());
        report.metric("q16.cycles_per_update", q16.total_per_call());
        report.metric("q16.saturations", saturations as f64);
        sabre::print_budget_table(&ledger, &q16, publish_cycles);
    }
}
