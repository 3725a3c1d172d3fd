//! Ablation **A1**: the full 5-state boresight IEKF in native f64,
//! Softfloat-emulated f64 (the paper's configuration on the Sabre
//! core) and Q16.16 fixed point (the paper's proposed "obvious
//! enhancement"), over the paper's static test scenario: per-substrate
//! op counts, Sabre cycles, per-phase attribution and boresight-error
//! RMS, written to `bench_out/BENCH_arith_full_filter.json`. Beyond the
//! run-time [`Substrate`] trio it also measures the frontier's cheap
//! substrates — native `f32` and the `Q8.24`/`Q4.28` fixed-point points
//! bracketing `Q16.16` — through the direct session-builder path.
//!
//! Run with `cargo run --release -p bench_suite --bin ablation_arith
//! [updates] [--workers N]`. The optional update count defaults to
//! 20000 at 200 Hz (a 100 s scenario); the enum substrates fan out over
//! the worker pool (`--workers 1` forces a serial sweep, 0 = one per
//! core) and then the builder-path substrates run serially.

use bench_suite::{
    compare_labeled_to_baseline, load_baseline, print_baseline_deltas, print_table, write_json,
    BenchArgs, Json,
};
use boresight::arith::{Arith, F32Arith, F64Arith, OpCounts, PhaseLedger, QArith, SoftArith};
use boresight::estimator::GenericBoresightEstimator;
use boresight::exec;
use boresight::scenario::RunResult;
use boresight::spec::{ScenarioSpec, Substrate};
use boresight::FusionSession;
use mathx::{rad_to_deg, EulerAngles};

const ACC_RATE_HZ: f64 = 200.0;
const SABRE_CLOCK_HZ: f64 = 25e6;

/// One substrate's full-IEKF measurements.
struct FullRun {
    label: &'static str,
    result: RunResult,
    counts: OpCounts,
    cycles: u64,
    phases: PhaseLedger,
}

/// Reads the full per-op ledger, the cycle model and the per-phase
/// attribution off a finished full-IEKF session.
fn read_ledger<A: Arith + Clone + 'static>(
    session: &FusionSession,
) -> (OpCounts, u64, PhaseLedger) {
    let backend = session
        .backend_as::<GenericBoresightEstimator<A>>()
        .expect("full-IEKF backend");
    (
        backend.filter().arith().counts(),
        backend.filter().arith().cycles(),
        *backend.filter().phase_ledger(),
    )
}

/// Runs the full 5-state IEKF over the paper's static scenario on the
/// type-level substrate `A` — the direct session-builder path, so
/// substrates outside the run-time [`Substrate`] enum (f32, the
/// `Q<FRAC>` family) get the same measurement without widening the
/// enum and every matrix gate built on it.
fn run_full_arith<A: Arith + Clone + Default + 'static>(spec: &ScenarioSpec) -> FullRun {
    let mut session = spec
        .session_builder(spec.lower_trajectory())
        .iekf(A::default(), spec.config().estimator)
        .build();
    session.run_to_end();
    let label = session.backend_label();
    let (counts, cycles, phases) = read_ledger::<A>(&session);
    FullRun {
        label,
        result: session.into_result(),
        counts,
        cycles,
        phases,
    }
}

/// Runs the full 5-state IEKF over the paper's static scenario on one
/// run-time-selected substrate.
fn run_full(substrate: Substrate, spec: &ScenarioSpec) -> FullRun {
    match substrate {
        Substrate::F64 => run_full_arith::<F64Arith>(spec),
        Substrate::Softfloat => run_full_arith::<SoftArith>(spec),
        Substrate::Q16_16 => run_full_arith::<QArith<16>>(spec),
        // The ablation measures static substrates; the adaptive
        // supervisor has its own bench (`adaptive`).
        Substrate::Adaptive => unreachable!("ablation sweeps static substrates"),
    }
}

/// Per-phase attribution: where the substrate's ops and cycles land
/// inside the filter, plus the `other` remainder (estimator prep,
/// model math outside tracked phases is zero by construction — the
/// remainder is the front end).
fn phases_json(run: &FullRun) -> Json {
    let phase = |name: &str, ops: u64, cycles: u64| {
        (
            name.to_string(),
            Json::Obj(vec![
                ("ops".into(), Json::Int(ops)),
                ("cycles".into(), Json::Int(cycles)),
            ]),
        )
    };
    let p = &run.phases;
    let other_ops = run.counts.total() - p.tracked_ops();
    let other_cycles = run.cycles.saturating_sub(p.tracked_cycles());
    Json::Obj(vec![
        phase("predict", p.predict.ops.total(), p.predict.cycles),
        phase("gate", p.gate.ops.total(), p.gate.cycles),
        phase("update", p.update.ops.total(), p.update.cycles),
        phase("other", other_ops, other_cycles),
    ])
}

fn ops_json(c: &OpCounts) -> Json {
    Json::Obj(vec![
        ("add".into(), Json::Int(c.add)),
        ("sub".into(), Json::Int(c.sub)),
        ("mul".into(), Json::Int(c.mul)),
        ("div".into(), Json::Int(c.div)),
        ("neg".into(), Json::Int(c.neg)),
        ("abs".into(), Json::Int(c.abs)),
        ("sqrt".into(), Json::Int(c.sqrt)),
        ("cmp".into(), Json::Int(c.cmp)),
        ("fma".into(), Json::Int(c.fma)),
        ("trig".into(), Json::Int(c.trig)),
        ("total".into(), Json::Int(c.total())),
        ("saturations".into(), Json::Int(c.saturations)),
    ])
}

fn main() {
    let args = BenchArgs::parse();
    let n = args.num(0, 20_000.0) as usize;

    // The three substrate runs are independent (each owns its seeded
    // source), so they fan out over the worker pool; results come back
    // in substrate order and are bit-identical to the serial sweep.
    let spec = ScenarioSpec::named("arith-ablation")
        .with_truth(EulerAngles::from_degrees(2.0, -1.5, 2.5))
        .with_duration(n as f64 / ACC_RATE_HZ)
        .with_seed(7);

    let mut runs = exec::map_parallel(Substrate::all().to_vec(), args.workers, |substrate| {
        run_full(substrate, &spec)
    });
    // The cheap substrates from the frontier sweep, measured on the
    // same scenario through the direct builder path: native f32 and
    // two Q-format points bracketing Q16.16 — Q8.24 (more fraction,
    // less headroom) and Q4.28 (a worked example of a range priced
    // below the problem; its saturation counter says why).
    runs.push(run_full_arith::<F32Arith>(&spec));
    runs.push(run_full_arith::<QArith<24>>(&spec));
    runs.push(run_full_arith::<QArith<28>>(&spec));

    let reference_angles = runs[0].result.estimate.angles;
    // Per-sample, not per-accepted-update: gate-rejected samples still
    // cost their model/Jacobian/gating arithmetic, and the real-time
    // question is cycles per incoming ACC sample.
    let samples = (spec.duration_s * ACC_RATE_HZ).round().max(1.0);
    let mut rows = Vec::new();
    let mut substrates = Vec::new();
    for run in &runs {
        let rms = run.result.error_rms_deg();
        let worst = run.result.max_error_deg();
        let cyc_per_sample = run.cycles as f64 / samples;
        let util = cyc_per_sample * ACC_RATE_HZ / SABRE_CLOCK_HZ;
        let divergence = rad_to_deg(
            run.result
                .estimate
                .angles
                .error_to(&reference_angles)
                .max_abs(),
        );
        rows.push(vec![
            run.label.to_string(),
            format!("{rms:.4}"),
            format!("{worst:.4}"),
            format!("{}", run.result.estimate.updates),
            format!("{:.0}", run.counts.total() as f64 / samples),
            if run.cycles == 0 {
                "n/a (host FPU)".into()
            } else {
                format!("{cyc_per_sample:.0}")
            },
            if run.cycles == 0 {
                "n/a".into()
            } else {
                format!("{:.1}%", util * 100.0)
            },
            format!("{}", run.counts.saturations),
            format!("{divergence:.4}"),
        ]);
        substrates.push(Json::Obj(vec![
            ("label".into(), Json::Str(run.label.into())),
            ("error_rms_deg".into(), Json::Num(rms)),
            ("final_worst_error_deg".into(), Json::Num(worst)),
            (
                "accepted_updates".into(),
                Json::Int(run.result.estimate.updates),
            ),
            ("samples".into(), Json::Num(samples)),
            ("cycles".into(), Json::Int(run.cycles)),
            ("cycles_per_sample".into(), Json::Num(cyc_per_sample)),
            ("sabre_utilization".into(), Json::Num(util)),
            ("divergence_vs_f64_deg".into(), Json::Num(divergence)),
            ("ops".into(), ops_json(&run.counts)),
            ("phases".into(), phases_json(run)),
        ]));
    }
    print_table(
        &format!(
            "Ablation A1: 5-state IEKF arithmetic (static scenario, {:.0} s at {ACC_RATE_HZ} Hz)",
            spec.duration_s
        ),
        &[
            "substrate",
            "error RMS (deg)",
            "final worst (deg)",
            "accepted",
            "ops/sample",
            "cycles/sample",
            "Sabre CPU",
            "saturations",
            "div vs f64 (deg)",
        ],
        &rows,
    );

    // Where the cycles land inside the algorithm, per substrate.
    print_table(
        "Per-phase attribution (ops / modelled cycles)",
        &[
            "substrate",
            "predict",
            "gate",
            "update",
            "other (front end)",
        ],
        &runs
            .iter()
            .map(|run| {
                let p = &run.phases;
                let cell = |ops: u64, cycles: u64| {
                    if run.cycles == 0 {
                        format!("{ops} ops")
                    } else {
                        format!("{ops} ops / {cycles} cyc")
                    }
                };
                vec![
                    run.label.to_string(),
                    cell(p.predict.ops.total(), p.predict.cycles),
                    cell(p.gate.ops.total(), p.gate.cycles),
                    cell(p.update.ops.total(), p.update.cycles),
                    cell(
                        run.counts.total() - p.tracked_ops(),
                        run.cycles.saturating_sub(p.tracked_cycles()),
                    ),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let doc = Json::Obj(vec![
        ("bench".into(), Json::Str("arith_full_filter".into())),
        (
            "scenario".into(),
            Json::Str("static tilt-table observability sequence".into()),
        ),
        ("duration_s".into(), Json::Num(spec.duration_s)),
        ("acc_rate_hz".into(), Json::Num(ACC_RATE_HZ)),
        ("sabre_clock_hz".into(), Json::Num(SABRE_CLOCK_HZ)),
        (
            "truth_deg".into(),
            Json::Arr(
                spec.truth
                    .to_degrees()
                    .iter()
                    .map(|d| Json::Num(*d))
                    .collect(),
            ),
        ),
        ("substrates".into(), Json::Arr(substrates)),
    ]);
    let path = write_json("BENCH_arith_full_filter.json", &doc);
    println!("\nwrote {}", path.display());

    // Diff against the committed baseline so kernel regressions are
    // visible in every run (cycles are modelled, so this comparison is
    // machine-independent).
    if let Some(baseline) = load_baseline("BENCH_arith_full_filter.json") {
        let deltas = compare_labeled_to_baseline(
            &baseline,
            &doc,
            "substrates",
            &[
                ("iekf5/softfloat", "cycles_per_sample"),
                ("iekf5/q16.16", "cycles_per_sample"),
                ("iekf5/f64", "error_rms_deg"),
                ("iekf5/f32", "error_rms_deg"),
                ("iekf5/q8.24", "cycles_per_sample"),
                ("iekf5/q4.28", "cycles_per_sample"),
            ],
        );
        print_baseline_deltas("vs committed bench_baselines/", &deltas);
    }

    // The emulated IEEE run of the filter is bit-identical to the
    // native reference: every angle and the final worst-axis error.
    let soft = &runs[1].result;
    let soft_angles = soft.estimate.angles;
    for (native, emulated) in [
        (reference_angles.roll, soft_angles.roll),
        (reference_angles.pitch, soft_angles.pitch),
        (reference_angles.yaw, soft_angles.yaw),
        (runs[0].result.max_error_deg(), soft.max_error_deg()),
    ] {
        assert_eq!(
            native.to_bits(),
            emulated.to_bits(),
            "softfloat must match native bit-for-bit"
        );
    }
    println!("expected shape: softfloat == f64 bit-for-bit; fixed point");
    println!("stays inside the trust region with divergence attributable to its saturation");
    println!("and quantization counters.");
}
