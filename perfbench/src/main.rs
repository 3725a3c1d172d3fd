//! perfbench — the repository benchmark (see `README.md` beside this
//! crate).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload replay-f64 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end set, with `--trace 1` the per-layer set.
//! Any correctness-gate mismatch prints `"correct": false` and exits 1.

mod fleet;
mod report;
mod roster;
mod sabre;
mod sessions;
mod stats;
mod trace;
mod wire;

use report::Report;
use std::fmt::Write as _;
use std::process::ExitCode;

/// The seed `--held-out` selects: never used while the benchmark or a
/// change measured with it was developed, so a claim can be re-checked
/// on inputs it was not tuned on.
pub const HELD_OUT_SEED: u64 = 0x005E_ED0F_F1CE;

const WORKLOADS: [&str; 4] = ["replay-f64", "replay-softfloat", "wire-replay", "fleet"];

/// End-to-end metrics (`--trace 0`) with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("realtime_vehicles", "vehicles"),
    ("tick_p50_us", "us"),
    ("tick_p99_us", "us"),
    ("setup_s", "s"),
    ("sigma3_mean_deg", "deg"),
    ("ok_frac", "ratio"),
    ("sabre_budget_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`) with their units. A layer a workload
/// does not exercise reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("generator.us_per_step", "us"),
    ("generator.tilt_us_per_step", "us"),
    ("generator.drive_us_per_step", "us"),
    ("generator.comms_us_per_step", "us"),
    ("fleet.generator_us", "us"),
    ("fleet.serving_us", "us"),
    ("comms.encode_us_per_frame", "us"),
    ("comms.uart_us_per_byte", "us"),
    ("comms.fault_us_per_byte", "us"),
    ("comms.reconstruct_us_per_msg", "us"),
    ("comms.msgs_ok_ratio", "ratio"),
    ("comms.checksum_errors", "count"),
    ("source.poll_us_per_tick", "us"),
    ("session.loop_us_per_tick", "us"),
    ("session.dispatch_us_per_event", "us"),
    ("sinks.us_per_tick", "us"),
    ("imu_prep.on_dmu_us", "us"),
    ("imu_prep.force_us", "us"),
    ("filter.predict_us", "us"),
    ("filter.update_us", "us"),
    ("filter.accept_ratio", "ratio"),
    ("filter.predict_ops", "count"),
    ("filter.gate_ops", "count"),
    ("filter.update_ops", "count"),
    ("estimator.err_max_deg", "deg"),
    ("monitor.observe_us", "us"),
    ("monitor.retunes", "count"),
    ("sabre.cycles_per_update", "cycles"),
    ("sabre.predict_cycles", "cycles"),
    ("sabre.gate_cycles", "cycles"),
    ("sabre.update_cycles", "cycles"),
    ("sabre.publish_iss_cycles", "cycles"),
    ("q16.accept_ratio", "ratio"),
    ("q16.cycles_per_update", "cycles"),
    ("q16.saturations", "count"),
    ("fleet.ingest_us", "us"),
    ("fleet.compute_us", "us"),
    ("fleet.sideband_us", "us"),
    ("fleet.steal_us", "us"),
    ("fleet.barrier_us", "us"),
    ("fleet.phase_sum_frac", "ratio"),
    ("fleet.steals", "count"),
    ("fleet.pool_realtime_vehicles", "vehicles"),
    ("fleet.pool_epoch_p25_us", "us"),
    ("fleet.pool_epoch_p75_us", "us"),
    ("ingress.deferred", "count"),
    ("ingress.dropped", "count"),
    ("ingress.high_water", "count"),
    ("fleet.bytes_per_vehicle", "bytes"),
    ("trace.overhead_frac", "ratio"),
    ("trace.self_sum_frac", "ratio"),
];

/// Parsed command line.
pub struct Args {
    pub workload_name: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--held-out" {
            seed = Some(HELD_OUT_SEED);
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<f64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0.0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload_name: workload,
        seed: seed.ok_or("--seed (or --held-out) is required")?,
        seconds,
        trace,
    })
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Read before any measuring loop pins this thread to one core.
    let nproc = stats::cores();
    let mut report = Report::default();
    match args.workload_name.as_str() {
        "replay-f64" => sessions::run(sessions::Kind::ReplayF64, &args, &mut report),
        "replay-softfloat" => sessions::run(sessions::Kind::ReplaySoftfloat, &args, &mut report),
        "wire-replay" => sessions::run(sessions::Kind::Wire, &args, &mut report),
        _ => fleet::run(&args, &mut report),
    }

    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, _) in &report.metrics {
        if !wanted.iter().any(|(n, _)| n == name) {
            let failure = format!("metric {name} is not in this mode's metric list");
            report.gate_failures.push(failure);
        }
    }
    let mut metrics = String::new();
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let value = report.metrics.iter().find(|(n, _)| n == name).map(|m| m.1);
        if value.is_none() && !args.trace {
            report
                .gate_failures
                .push(format!("end-to-end metric {name} was not measured"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(value.unwrap_or(0.0)),
            json_str(unit)
        );
    }

    let mut header = format!(
        "{{\"workload\": {}, \"commit\": {}, \"simd\": {}, \"nproc\": {}, \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}",
        json_str(&args.workload_name),
        json_str(&stats::commit()),
        cfg!(feature = "simd"),
        nproc,
        args.seed,
        json_num(args.seconds),
        args.trace
    );
    for (key, value) in &report.header {
        let _ = write!(header, ", {}: {}", json_str(key), json_str(value));
    }
    header.push('}');
    println!("header {header}");
    for failure in &report.gate_failures {
        eprintln!("perfbench: correctness gate failed: {failure}");
    }
    let correct = report.gate_failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.attempted.max(1),
        report.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
