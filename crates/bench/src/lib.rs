//! Shared helpers for the benchmark harness binaries.
//!
//! Each binary in `src/bin/` regenerates one table, figure or
//! per-substrate sweep (the README's "Benchmarks" section lists them);
//! this library provides the small common pieces: argument parsing,
//! CSV/JSON output, baseline comparison and aligned-table printing.

use boresight::adaptive::{FrontierPoint, SubstrateId};
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// Command-line arguments shared by the bench binaries: positional
/// values plus the `--workers N` worker-pool size (`0`, the default,
/// means one worker per core; `1` forces a serial run).
pub struct BenchArgs {
    /// Positional arguments, in order.
    pub positional: Vec<String>,
    /// Requested worker count (`0` = auto).
    pub workers: usize,
    /// RNG seed override from `--seed N` (`None` when absent; each
    /// bin substitutes its own documented default and prints the
    /// effective value in its report header).
    pub seed: Option<u64>,
    /// Boolean `--flag` switches, stored without the leading dashes.
    pub flags: Vec<String>,
}

impl BenchArgs {
    /// Parses the process arguments, accepting `--workers N` (or
    /// `--workers=N`), `--seed N` (or `--seed=N`) and boolean
    /// `--flag` switches anywhere among the positionals.
    ///
    /// # Panics
    ///
    /// Panics if `--workers` or `--seed` is present without a
    /// parseable count.
    pub fn parse() -> Self {
        let mut positional = Vec::new();
        let mut workers = 0usize;
        let mut seed = None;
        let mut flags = Vec::new();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            if arg == "--workers" {
                let v = args.next().expect("--workers needs a count");
                workers = v.parse().expect("--workers count must be an integer");
            } else if let Some(v) = arg.strip_prefix("--workers=") {
                workers = v.parse().expect("--workers count must be an integer");
            } else if arg == "--seed" {
                let v = args.next().expect("--seed needs a value");
                seed = Some(v.parse().expect("--seed must be a u64"));
            } else if let Some(v) = arg.strip_prefix("--seed=") {
                seed = Some(v.parse().expect("--seed must be a u64"));
            } else if let Some(flag) = arg.strip_prefix("--") {
                flags.push(flag.to_string());
            } else {
                positional.push(arg);
            }
        }
        Self {
            positional,
            workers,
            seed,
            flags,
        }
    }

    /// The `i`-th positional parsed as `f64`, or `default`.
    pub fn num(&self, i: usize, default: f64) -> f64 {
        self.positional
            .get(i)
            .and_then(|s| s.parse().ok())
            .unwrap_or(default)
    }

    /// `true` if the boolean switch `--<name>` was passed.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

/// The workspace root, two levels above this crate's manifest.
///
/// Cargo sets `CARGO_MANIFEST_DIR` when it runs a binary or test, so it
/// is read at run time first: a checkout copied together with its
/// `target/` reuses binaries compiled in the original checkout, and the
/// compile-time path would point them back at it. Run directly, without
/// cargo, the compile-time path is the fallback.
fn workspace_root() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
        .join("../..")
}

/// Output directory for generated CSV series (`bench_out/` at the
/// workspace root).
pub fn out_dir() -> PathBuf {
    let dir = workspace_root().join("bench_out");
    fs::create_dir_all(&dir).expect("create bench_out");
    dir
}

/// Writes a CSV file of named columns into `bench_out/`.
///
/// # Panics
///
/// Panics if the columns have unequal lengths or the file cannot be
/// written.
pub fn write_csv(name: &str, columns: &[(&str, &[f64])]) -> PathBuf {
    assert!(!columns.is_empty(), "need at least one column");
    let rows = columns[0].1.len();
    for (label, data) in columns {
        assert_eq!(data.len(), rows, "column `{label}` length mismatch");
    }
    let path = out_dir().join(name);
    let mut file = fs::File::create(&path).expect("create csv");
    let header: Vec<&str> = columns.iter().map(|(label, _)| *label).collect();
    writeln!(file, "{}", header.join(",")).expect("write header");
    for r in 0..rows {
        let row: Vec<String> = columns.iter().map(|(_, d)| format!("{}", d[r])).collect();
        writeln!(file, "{}", row.join(",")).expect("write row");
    }
    path
}

/// The JSON tree the reports are built from — shared with the core
/// fuzz corpus codec (the definition lives in [`boresight::json`]).
pub use boresight::json::Json;

/// Writes a JSON document into `bench_out/` and returns its path.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_json(name: &str, value: &Json) -> PathBuf {
    let mut text = value.render_to_string();
    text.push('\n');
    let path = out_dir().join(name);
    fs::write(&path, text).expect("write json");
    path
}

/// Directory holding the committed baseline bench reports the current
/// `bench_out/` artifacts are diffed against (`bench_baselines/` at
/// the workspace root).
pub fn baseline_dir() -> PathBuf {
    workspace_root().join("bench_baselines")
}

/// Loads and parses a committed baseline report, if present.
pub fn load_baseline(name: &str) -> Option<Json> {
    let text = fs::read_to_string(baseline_dir().join(name)).ok()?;
    Json::parse(&text)
}

/// Loads the accuracy-vs-cycles frontier of one scenario from the
/// committed `BENCH_frontier.json` baseline, as the
/// [`boresight::adaptive::FrontierPolicy`] input points.
///
/// Only single-lane cells are read (the adaptive supervisor swaps one
/// scalar estimator), and only substrates the supervisor can actually
/// switch to ([`SubstrateId::parse`] accepts the frontier's
/// `softfloat/f64` spelling; `simd/f64` and the `q4.28` extremes are
/// skipped). `None` when no baseline is committed or the scenario has
/// no single-lane cells.
pub fn load_frontier_points(scenario: &str) -> Option<Vec<FrontierPoint>> {
    let report = load_baseline("BENCH_frontier.json")?;
    let Json::Arr(cells) = report.lookup("cells")? else {
        return None;
    };
    let mut points = Vec::new();
    for cell in cells {
        let (Some(Json::Str(cell_scenario)), Some(Json::Str(substrate))) =
            (cell.lookup("scenario"), cell.lookup("substrate"))
        else {
            continue;
        };
        if cell_scenario != scenario || cell.lookup("lanes").and_then(Json::as_f64) != Some(1.0) {
            continue;
        }
        let Some(substrate) = SubstrateId::parse(substrate) else {
            continue;
        };
        let (Some(rms_deg), Some(cycles_per_sample)) = (
            cell.lookup("rms_deg").and_then(Json::as_f64),
            cell.lookup("cycles_per_sample").and_then(Json::as_f64),
        ) else {
            continue;
        };
        points.push(FrontierPoint {
            substrate,
            rms_deg,
            cycles_per_sample,
        });
    }
    if points.is_empty() {
        None
    } else {
        Some(points)
    }
}

/// One metric's baseline-vs-current comparison.
pub struct BaselineDelta {
    /// The metric's `.`-separated path (see [`Json::lookup`]).
    pub metric: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub current: f64,
}

impl BaselineDelta {
    /// `current / baseline` (infinite when the baseline is zero).
    pub fn ratio(&self) -> f64 {
        self.current / self.baseline
    }

    /// Relative change, signed (`-0.30` = dropped 30 %).
    pub fn relative_change(&self) -> f64 {
        self.ratio() - 1.0
    }
}

/// Diffs per-row metrics of a labeled array (the `substrates` shape)
/// between a baseline and a fresh report, resolving rows by their
/// `label` key on **both** sides — immune to rows being added or
/// reordered, unlike positional `array.N.field` paths. Rows or fields
/// missing from either side are skipped.
pub fn compare_labeled_to_baseline(
    baseline: &Json,
    current: &Json,
    array: &str,
    label_fields: &[(&str, &str)],
) -> Vec<BaselineDelta> {
    label_fields
        .iter()
        .filter_map(|(label, field)| {
            let b = baseline
                .find_labeled(array, label)?
                .lookup(field)?
                .as_f64()?;
            let c = current
                .find_labeled(array, label)?
                .lookup(field)?
                .as_f64()?;
            Some(BaselineDelta {
                metric: format!("{label} {field}"),
                baseline: b,
                current: c,
            })
        })
        .collect()
}

/// Prints a baseline comparison as an aligned table.
pub fn print_baseline_deltas(title: &str, deltas: &[BaselineDelta]) {
    print_table(
        title,
        &["metric", "baseline", "current", "change"],
        &deltas
            .iter()
            .map(|d| {
                vec![
                    d.metric.clone(),
                    format!("{:.3}", d.baseline),
                    format!("{:.3}", d.current),
                    format!("{:+.1}%", d.relative_change() * 100.0),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

/// Prints an aligned text table: a header row then data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_roundtrip() {
        let path = write_csv(
            "test_helper.csv",
            &[("t", &[0.0, 1.0][..]), ("v", &[2.0, 3.0][..])],
        );
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.starts_with("t,v\n"));
        assert!(text.contains("1,3"));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn csv_mismatched_columns_panic() {
        let _ = write_csv("bad.csv", &[("a", &[0.0][..]), ("b", &[1.0, 2.0][..])]);
    }

    #[test]
    fn written_json_parses_back() {
        // Round-trip details are pinned in boresight::json; here only
        // the file-writing path is exercised.
        let doc = Json::Obj(vec![
            ("n".into(), Json::Int(42)),
            ("v".into(), Json::Num(1.5e-3)),
        ]);
        let path = write_json("test_helper.json", &doc);
        let text = std::fs::read_to_string(path).unwrap();
        let parsed = Json::parse(text.trim_end()).expect("parse");
        assert_eq!(parsed.lookup("n").unwrap().as_f64(), Some(42.0));
        assert_eq!(parsed.lookup("v").unwrap().as_f64(), Some(1.5e-3));
    }

    #[test]
    fn labeled_baseline_deltas_survive_row_reordering() {
        let baseline =
            Json::parse(r#"{"rows": [{"label": "a", "v": 10}, {"label": "b", "v": 100}]}"#)
                .expect("parse");
        // Same rows, reordered, plus a new one — positional paths would
        // silently compare the wrong rows.
        let current = Json::parse(
            r#"{"rows": [{"label": "new", "v": 1}, {"label": "b", "v": 50}, {"label": "a", "v": 20}]}"#,
        )
        .expect("parse");
        let deltas = compare_labeled_to_baseline(
            &baseline,
            &current,
            "rows",
            &[("a", "v"), ("b", "v"), ("gone", "v")],
        );
        assert_eq!(deltas.len(), 2);
        assert!((deltas[0].ratio() - 2.0).abs() < 1e-12, "a doubled");
        assert!((deltas[1].ratio() - 0.5).abs() < 1e-12, "b halved");
    }

    #[test]
    fn committed_baselines_parse() {
        // The committed baseline snapshots must stay machine-readable —
        // the ablation and frontier comparators and the frontier-driven
        // adaptive policy read them.
        let ablation = load_baseline("BENCH_arith_full_filter.json").expect("committed baseline");
        let soft = ablation
            .find_labeled("substrates", "iekf5/softfloat")
            .expect("softfloat row");
        assert!(soft.lookup("cycles_per_sample").unwrap().as_f64().unwrap() > 0.0);
        let frontier = load_baseline("BENCH_frontier.json").expect("committed baseline");
        let simd8 = frontier
            .find_labeled("cells", "paper-static/simd/f64x8")
            .expect("explicit-SIMD x8 cell");
        assert!(simd8.lookup("updates").unwrap().as_f64().unwrap() > 0.0);
        assert!(simd8
            .lookup("rms_deg")
            .unwrap()
            .as_f64()
            .unwrap()
            .is_finite());
        let adaptive = load_baseline("BENCH_adaptive.json").expect("committed baseline");
        let f64_run = adaptive
            .find_labeled("scenarios.0.runs", "f64")
            .expect("f64 reference run");
        assert!(f64_run.lookup("rms_deg").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn frontier_points_load_for_both_swept_scenarios() {
        for scenario in ["paper-static", "highway-cruise"] {
            let points = load_frontier_points(scenario).expect("committed frontier");
            // Exactly the single-lane, switchable-substrate cells:
            // f64, f32, softfloat, q16.16, q8.24 (simd/f64 and q4.28
            // are filtered out).
            assert_eq!(points.len(), 5, "{scenario}: {points:?}");
            for id in SubstrateId::all() {
                let point = points
                    .iter()
                    .find(|p| p.substrate == id)
                    .unwrap_or_else(|| panic!("{scenario} missing {id}"));
                assert!(point.rms_deg.is_finite() && point.rms_deg > 0.0);
            }
            // The cycle-modelled substrates carry real costs the
            // frontier policy can rank.
            let q16 = points
                .iter()
                .find(|p| p.substrate == SubstrateId::Q16_16)
                .unwrap();
            let soft = points
                .iter()
                .find(|p| p.substrate == SubstrateId::Softfloat)
                .unwrap();
            assert!(q16.cycles_per_sample > 0.0);
            assert!(soft.cycles_per_sample > q16.cycles_per_sample);
        }
        assert!(load_frontier_points("no-such-scenario").is_none());
    }
}
