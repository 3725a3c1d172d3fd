//! The session roster: every `catalog::all()` scenario, shortened to a
//! fixed stream length, with noise seeds derived from the workload
//! seed. Set-up records each vehicle once; serving replays the
//! recordings, so the generator is never booked as serving.

use crate::stats::timed;
use boresight::estimator::MisalignmentEstimate;
use boresight::replay::{record_spec, Recording};
use boresight::spec::{ChannelSpec, ScenarioSpec, Substrate, TrajectorySpec};
use boresight::{catalog, RunResult};
use mathx::rad_to_deg;
use std::time::Instant;

/// Stream seconds per roster vehicle.
pub const STREAM_S: f64 = 30.0;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// The per-vehicle noise seed: a splitmix64 step over the workload seed
/// and the vehicle index, so every vehicle of every seed differs.
pub fn vehicle_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The catalog roster for `seed`, every entry on the `f64` substrate.
pub fn specs(seed: u64) -> Vec<ScenarioSpec> {
    catalog::all()
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            spec.with_duration(STREAM_S)
                .with_seed(vehicle_seed(seed, i))
                .with_substrate(Substrate::F64)
        })
        .collect()
}

/// The generator family a spec runs, for the per-kind generator rows.
pub fn generator_kind(spec: &ScenarioSpec) -> &'static str {
    match (&spec.trajectory, &spec.channel) {
        (_, ChannelSpec::Comms { .. }) => "comms",
        (TrajectorySpec::TiltSequence { .. }, _) => "tilt",
        _ => "drive",
    }
}

/// One roster vehicle recorded in set-up.
pub struct Recorded {
    pub spec: ScenarioSpec,
    pub recording: Recording,
    /// The live recording run's result (the bit-identity reference).
    pub live: RunResult,
}

/// Records every roster vehicle once (generator plus `f64` fusion).
pub fn record(specs: &[ScenarioSpec]) -> Vec<Recorded> {
    specs
        .iter()
        .map(|spec| {
            let (live, recording) = record_spec(spec);
            Recorded {
                spec: spec.clone(),
                recording,
                live,
            }
        })
        .collect()
}

/// Runs `setup` [`SETUP_REPEATS`] times; returns the last result and the
/// median wall seconds.
pub fn repeated_setup<R>(mut setup: impl FnMut() -> R) -> (R, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let (out, secs) = timed(&mut setup);
        times.push(secs);
        last = Some(out);
    }
    (
        last.expect("at least one set-up"),
        crate::stats::median(&times),
    )
}

/// `true` when two estimates agree to the last bit.
pub fn same_bits(a: &MisalignmentEstimate, b: &MisalignmentEstimate) -> bool {
    let bits = |e: &MisalignmentEstimate| {
        [
            e.angles.roll.to_bits(),
            e.angles.pitch.to_bits(),
            e.angles.yaw.to_bits(),
            e.one_sigma[0].to_bits(),
            e.one_sigma[1].to_bits(),
            e.one_sigma[2].to_bits(),
            e.updates,
        ]
    };
    bits(a) == bits(b)
}

/// Worst per-axis error of `estimate` against `spec`'s truth, degrees.
pub fn error_deg(spec: &ScenarioSpec, estimate: &MisalignmentEstimate) -> f64 {
    rad_to_deg(estimate.angles.error_to(&spec.truth).max_abs())
}

/// The final 3-sigma (99 %) confidence bound averaged over `estimates`
/// and their three axes, degrees — the accuracy the filter claims.
/// Unlike the actual error, which swings with each seed's noise draw,
/// the bound follows from the covariance and barely moves between
/// seeds.
pub fn sigma3_mean_deg(estimates: &[MisalignmentEstimate]) -> f64 {
    let bounds: Vec<f64> = estimates.iter().flat_map(|e| e.three_sigma_deg()).collect();
    bounds.iter().sum::<f64>() / bounds.len() as f64
}

/// Wall microseconds per generator step, per kind and overall: each
/// spec's live source polled to exhaustion on its own, outside any
/// session.
pub fn generator_us_per_step(specs: &[ScenarioSpec]) -> Vec<(&'static str, f64)> {
    let mut by_kind: Vec<(&'static str, f64, u64)> = Vec::new();
    let mut events = Vec::with_capacity(64);
    for spec in specs {
        let mut source = spec.into_source(spec.lower_trajectory());
        let dt = source.dt();
        let mut t = 0.0;
        let mut steps = 0u64;
        let start = Instant::now();
        while !source.is_exhausted() {
            t += dt;
            events.clear();
            source.poll(t, &mut events);
            steps += 1;
        }
        let us = start.elapsed().as_secs_f64() * 1e6;
        let kind = generator_kind(spec);
        match by_kind.iter_mut().find(|(k, _, _)| *k == kind) {
            Some(row) => {
                row.1 += us;
                row.2 += steps;
            }
            None => by_kind.push((kind, us, steps)),
        }
    }
    let total_us: f64 = by_kind.iter().map(|r| r.1).sum();
    let total_steps: u64 = by_kind.iter().map(|r| r.2).sum();
    let mut rows: Vec<(&'static str, f64)> = by_kind
        .iter()
        .map(|&(kind, us, steps)| (kind, us / steps as f64))
        .collect();
    rows.push(("all", total_us / total_steps as f64));
    rows
}
