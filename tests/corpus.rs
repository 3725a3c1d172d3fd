//! The committed regression corpus: every fuzz-found, shrunk failing
//! case under `corpus/` must keep tripping its recorded oracle
//! verdict when replayed from its committed recording — and must do
//! so deterministically.
//!
//! Each `corpus/<name>/` directory holds a `case.json` (the shrunk
//! [`ScenarioSpec`] plus the verdict kind and campaign coordinates,
//! written by `fuzz_campaign --promote`) and a `recording.bin` (the
//! captured event stream). Cases are auto-discovered: dropping a new
//! shrunk reproducer into `corpus/` adds it to this suite with no
//! code change.

use sensor_fusion_fpga::fusion::fuzz::CorpusEntry;
use sensor_fusion_fpga::fusion::json::Json;
use sensor_fusion_fpga::fusion::oracle::FusionOracle;
use sensor_fusion_fpga::fusion::replay::{replay_spec_session, Recording};
use std::fs;
use std::path::PathBuf;

/// `corpus/` under the package root. `CARGO_MANIFEST_DIR` is read at
/// run time first (cargo sets it when it runs the test), so a test
/// binary reused in a copied checkout reads that checkout's corpus;
/// the compile-time path is the fallback.
fn corpus_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
        .join("corpus")
}

fn discover() -> Vec<(CorpusEntry, Recording)> {
    let mut cases = Vec::new();
    let Ok(entries) = fs::read_dir(corpus_dir()) else {
        return cases;
    };
    let mut dirs: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    for dir in dirs {
        let case_path = dir.join("case.json");
        let recording_path = dir.join("recording.bin");
        let text = fs::read_to_string(&case_path)
            .unwrap_or_else(|e| panic!("{}: {e}", case_path.display()));
        let doc = Json::parse(&text)
            .unwrap_or_else(|| panic!("{}: unparseable JSON", case_path.display()));
        let entry =
            CorpusEntry::from_json(&doc).unwrap_or_else(|e| panic!("{}: {e}", case_path.display()));
        let recording = Recording::read_from(&recording_path)
            .unwrap_or_else(|e| panic!("{}: {e}", recording_path.display()));
        cases.push((entry, recording));
    }
    cases
}

/// The corpus floor: the fuzz campaign found and shrank at least
/// three distinct regression cases.
#[test]
fn corpus_has_at_least_three_cases() {
    assert!(
        discover().len() >= 3,
        "committed corpus thinned below three cases"
    );
}

/// Every corpus case still trips its recorded verdict kind when the
/// oracle replays its recording.
#[test]
fn every_corpus_case_reproduces_its_verdict() {
    let oracle = FusionOracle::default();
    for (entry, recording) in discover() {
        let report = oracle.check_recording(&entry.spec, &recording);
        assert!(
            report.has_kind(&entry.verdict),
            "{}: expected `{}`, replay reported {:?}",
            entry.spec.name,
            entry.verdict,
            report.verdicts
        );
    }
}

/// Replaying a corpus recording is deterministic: two replays agree
/// bit for bit on the final estimate and acceptance count.
#[test]
fn corpus_replays_are_deterministic() {
    for (entry, recording) in discover() {
        let run = |recording: &Recording| {
            let mut session = replay_spec_session(&entry.spec, recording);
            session.run_to_end();
            let estimate = session.estimate();
            (
                session.stats().updates,
                estimate.updates,
                estimate.angles.roll.to_bits(),
                estimate.angles.pitch.to_bits(),
                estimate.angles.yaw.to_bits(),
            )
        };
        assert_eq!(
            run(&recording),
            run(&recording),
            "{}: replay is not deterministic",
            entry.spec.name
        );
    }
}
