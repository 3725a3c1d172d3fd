//! Scenario × substrate sweep: every catalog workload over native
//! f64, Sabre-accounted Softfloat, Q16.16 fixed point and the
//! adaptive reconfiguring supervisor.
//!
//! This is the coverage matrix the paper never had — its validation
//! stops at one static and one dynamic procedure. Each cell reports
//! the converged boresight RMS error, the 3-sigma exceed rate, the
//! adaptive retune count, fixed-point saturation events and the Sabre
//! cycle estimate, and the whole matrix lands machine-readably in
//! `bench_out/BENCH_scenario_matrix.json`.
//!
//! Run with `cargo run --release -p bench_suite --bin scenario_matrix
//! [duration_s] [--workers N] [--seed N]`. The optional duration
//! (default 40, CI smoke uses 8) overrides every catalog entry — the
//! long-haul scenario alone is an hour at full length. Cells run on
//! the worker pool by default (one worker per core; `--workers 1`
//! runs every cell on the calling thread — the report is
//! bit-identical either way, pinned by test). `--seed N` re-derives every
//! scenario's noise seed from `N` (scenario-index offset keeps the
//! realizations distinct); the effective seed — the override or the
//! catalog's committed per-scenario seeds — is printed in the report
//! header and recorded in the artifact.
//!
//! The run fails (non-zero exit) on a thin catalog, a missing paper
//! procedure, or any cell the shared [`FusionOracle`] flags
//! (non-finite state, indefinite or collapsed covariance, a
//! link-fault storm) — the CI smoke contract.

use boresight::oracle::FusionOracle;

use bench_suite::{print_table, write_json, BenchArgs, Json};
use boresight::catalog;
use boresight::exec;
use boresight::spec::{ScenarioSuite, Substrate, SuiteCell};

fn cell_json(cell: &SuiteCell) -> Json {
    let mut fields = vec![
        ("scenario".into(), Json::Str(cell.scenario.clone())),
        ("substrate".into(), Json::Str(cell.substrate.label().into())),
        ("backend".into(), Json::Str(cell.backend.into())),
        ("duration_s".into(), Json::Num(cell.duration_s)),
        (
            "truth_deg".into(),
            Json::Arr(
                cell.summary
                    .truth
                    .to_degrees()
                    .iter()
                    .map(|d| Json::Num(*d))
                    .collect(),
            ),
        ),
        (
            "error_rms_deg".into(),
            Json::Num(cell.summary.error_rms_deg),
        ),
        (
            "final_worst_error_deg".into(),
            Json::Num(cell.summary.final_worst_error_deg),
        ),
        ("exceed_rate".into(), Json::Num(cell.summary.exceed_rate)),
        (
            "retune_count".into(),
            Json::Int(cell.summary.retune_count as u64),
        ),
        ("updates".into(), Json::Int(cell.summary.estimate.updates)),
        ("ops".into(), Json::Int(cell.ops)),
        ("saturations".into(), Json::Int(cell.summary.saturations)),
        ("cycles".into(), Json::Int(cell.cycles)),
        (
            "cycles_per_sample".into(),
            Json::Num(cell.cycles_per_sample),
        ),
        ("switches".into(), Json::Int(cell.switches)),
    ];
    if let Some(stream) = &cell.summary.stream {
        fields.push((
            "stream".into(),
            Json::Obj(vec![
                ("dmu_samples".into(), Json::Int(stream.dmu_samples)),
                ("acc_samples".into(), Json::Int(stream.acc_samples)),
                ("dmu_errors".into(), Json::Int(stream.dmu_errors)),
                ("acc_errors".into(), Json::Int(stream.acc_errors)),
                (
                    "fault_bits_flipped".into(),
                    Json::Int(stream.fault_bits_flipped),
                ),
                (
                    "fault_bytes_dropped".into(),
                    Json::Int(stream.fault_bytes_dropped),
                ),
                ("fault_bursts".into(), Json::Int(stream.fault_bursts)),
            ]),
        ));
    }
    Json::Obj(fields)
}

fn main() {
    let args = BenchArgs::parse();
    let duration = args.num(0, 40.0);
    let workers = exec::resolve_workers(args.workers);
    let seed_label = match args.seed {
        Some(s) => format!("{s} (--seed override)"),
        None => "catalog per-scenario seeds".to_string(),
    };
    println!("effective seed: {seed_label}");

    // --- Catalog contract ------------------------------------------
    let names = catalog::names();
    assert!(
        names.len() >= 10,
        "catalog regressed to {} scenarios",
        names.len()
    );
    for required in ["paper-static", "paper-dynamic"] {
        assert!(
            catalog::by_name(required).is_some(),
            "missing catalog entry `{required}`"
        );
    }

    // The three static substrates plus the adaptive supervisor, which
    // reconfigures across them mid-run.
    let substrates = [
        Substrate::F64,
        Substrate::Softfloat,
        Substrate::Q16_16,
        Substrate::Adaptive,
    ];
    let mut scenarios = catalog::all();
    if let Some(seed) = args.seed {
        for (i, spec) in scenarios.iter_mut().enumerate() {
            spec.seed = seed.wrapping_add(i as u64);
        }
    }
    let suite = ScenarioSuite::new(scenarios)
        .with_substrates(&substrates)
        .with_duration(duration);
    let report = suite.run_parallel(workers);
    println!("ran {} cells on {workers} worker(s)", report.cells.len());

    let rows: Vec<Vec<String>> = report
        .cells
        .iter()
        .map(|c| {
            vec![
                c.scenario.clone(),
                c.substrate.label().into(),
                format!("{:.4}", c.summary.error_rms_deg),
                format!("{:.4}", c.summary.final_worst_error_deg),
                format!("{:.4}", c.summary.exceed_rate),
                format!("{}", c.summary.retune_count),
                format!("{}", c.summary.saturations),
                if c.cycles == 0 {
                    "n/a".into()
                } else {
                    format!("{:.0}", c.cycles_per_sample)
                },
                format!("{}", c.switches),
                c.summary
                    .stream
                    .map(|s| format!("{}", s.fault_bits_flipped + s.fault_bytes_dropped))
                    .unwrap_or_else(|| "-".into()),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Scenario x substrate matrix ({} scenarios x {} substrates, {duration:.0} s cells, seed {seed_label})",
            names.len(),
            report.cells.len() / names.len().max(1),
        ),
        &[
            "scenario",
            "substrate",
            "RMS err (deg)",
            "final worst (deg)",
            "exceed",
            "retunes",
            "saturations",
            "cycles/sample",
            "switches",
            "wire faults",
        ],
        &rows,
    );

    // Write the artifact before the health gate so a failing smoke run
    // still leaves the per-cell numbers behind for diagnosis.
    let mut fields = vec![
        ("bench".into(), Json::Str("scenario_matrix".into())),
        ("duration_s".into(), Json::Num(duration)),
    ];
    if let Some(seed) = args.seed {
        fields.push(("seed".into(), Json::Int(seed)));
    }
    fields.extend([
        (
            "scenarios".into(),
            Json::Arr(names.iter().map(|n| Json::Str(n.clone())).collect()),
        ),
        (
            "cells".into(),
            Json::Arr(report.cells.iter().map(cell_json).collect()),
        ),
    ]);
    let doc = Json::Obj(fields);
    let path = write_json("BENCH_scenario_matrix.json", &doc);
    println!("\nwrote {}", path.display());

    // --- Health gate (the CI smoke contract): every cell's summary
    // through the shared fusion oracle. ------------------------------
    let oracle = FusionOracle::default();
    let flagged: Vec<String> = report
        .cells
        .iter()
        .flat_map(|c| {
            oracle
                .check_summary(&c.summary, c.duration_s, c.substrate)
                .into_iter()
                .map(move |v| format!("{}/{}: {v}", c.scenario, c.substrate))
        })
        .collect();
    assert!(flagged.is_empty(), "oracle-flagged cells: {flagged:#?}");
    println!(
        "all {} cells pass the fusion oracle: finite state, healthy covariance, no fault storms",
        report.cells.len()
    );
}
