//! The `fleet` workload: a `Fleet<F64Arith, 8>` over 16 shards serving a
//! catalog-cycled roster from live `into_source` generators plus a
//! small adaptive sideband.
//!
//! The end-to-end figures are served on one worker. On a two-core host
//! the two-worker pool's epoch times depend on whether the second
//! worker joins each epoch in time and on the other core's load, which
//! made them the least repeatable figures measured; the traced run
//! measures the pool at one worker per core apart, which is where
//! stealing and the barrier show.
//!
//! The generator cannot be pre-rendered here today, so it is measured
//! apart: the traced run polls an identical roster's sources outside the
//! fleet and reports that cost per epoch beside the serving cost.

use crate::report::Report;
use crate::roster::{self, vehicle_seed};
use crate::sabre;
use crate::stats::{self, fastest_tenth, median, pair_means, quantile_sorted};
use crate::Args;
use boresight::adaptive::{HysteresisPolicy, SubstrateId};
use boresight::arith::{Arith, F64Arith};
use boresight::catalog;
use boresight::estimator::GenericBoresightEstimator;
use boresight::fleet::{EpochProfile, EvictReason, Fleet, FleetConfig, VehicleId};
use boresight::oracle::FusionOracle;
use boresight::session::SensorSource;
use boresight::spec::{ScenarioSpec, Substrate};
use std::time::{Duration, Instant};

const TICK_DT: f64 = 0.005;
/// Lane vehicles (the catalog, cycled).
const VEHICLES: usize = 256;
/// Adaptive sideband vehicles.
const SIDEBAND: usize = 4;
const SHARDS: usize = 16;
/// Workers the end-to-end figures are served on (see the module docs).
const SERVE_WORKERS: usize = 1;
const WARMUP_EPOCHS: usize = 5;
/// Epochs per measured chunk (one repetition).
const CHUNK_EPOCHS: usize = 50;
/// Fewest epochs the kept chunks pool, so the p99 of their epoch pairs
/// has ten pairs beyond it.
const MIN_KEPT_EPOCHS: usize = 2000;
/// The chunk after which the roster's confidence bounds are read: a
/// fixed epoch (10 s of stream), whatever the run's length. It is also
/// the fewest chunks a run measures.
const CHECKPOINT_CHUNK: usize = 40;
/// One vehicle in this many is polled for the generator row.
const GENERATOR_STRIDE: usize = 10;
/// Stream length per vehicle: long enough that nobody completes.
const STREAM_S: f64 = 600.0;

struct Roster {
    lane: Vec<ScenarioSpec>,
    sideband: Vec<ScenarioSpec>,
}

fn roster(seed: u64) -> Roster {
    let base = catalog::all();
    let spec = |i: usize| {
        base[i % base.len()]
            .clone()
            .with_duration(STREAM_S)
            .with_seed(vehicle_seed(seed, i))
    };
    Roster {
        lane: (0..VEHICLES).map(spec).collect(),
        sideband: (VEHICLES..VEHICLES + SIDEBAND).map(spec).collect(),
    }
}

fn vehicles() -> usize {
    VEHICLES + SIDEBAND
}

struct Served {
    fleet: Fleet<F64Arith, 8>,
    lane_ids: Vec<VehicleId>,
    sideband_ids: Vec<VehicleId>,
}

/// Admission plus warm-up epochs (the set-up phase).
fn admit(roster: &Roster, workers: usize) -> Served {
    let mut fleet: Fleet<F64Arith, 8> = Fleet::new(FleetConfig {
        shards: SHARDS,
        tick_dt: TICK_DT,
        ..FleetConfig::default()
    });
    let lane_ids = roster
        .lane
        .iter()
        .map(|spec| {
            fleet
                .admit(spec)
                .expect("catalog tuning is lane-compatible")
        })
        .collect();
    let sideband_ids = roster
        .sideband
        .iter()
        .map(|spec| {
            fleet.admit_adaptive(
                spec,
                SubstrateId::Q16_16,
                Box::new(HysteresisPolicy::default()),
            )
        })
        .collect();
    fleet.run_epochs(WARMUP_EPOCHS, workers);
    Served {
        fleet,
        lane_ids,
        sideband_ids,
    }
}

/// Runs one chunk of epochs; returns its wall seconds, its epoch walls
/// (microseconds) and the fleet's profile of the chunk.
fn chunk(served: &mut Served, workers: usize) -> (f64, Vec<f64>, EpochProfile) {
    served.fleet.reset_epoch_profile();
    let start = Instant::now();
    served.fleet.run_epochs(CHUNK_EPOCHS, workers);
    let wall_s = start.elapsed().as_secs_f64();
    let walls = served
        .fleet
        .epoch_samples()
        .iter()
        .map(|s| s.wall_us)
        .collect();
    let profile = served.fleet.epoch_profile().expect("epochs ran");
    (wall_s, walls, profile)
}

/// The chunks of one run.
#[derive(Default)]
struct Chunks {
    walls_s: Vec<f64>,
    epochs_us: Vec<Vec<f64>>,
    profiles: Vec<EpochProfile>,
}

impl Chunks {
    /// Chunks until `budget` has elapsed (at least `min` chunks); with
    /// `pinned`, all of them on core 0 (see [`stats::pin`]). Unlike the
    /// session passes, chunks do not move between cores: the fleet's
    /// working set of some 20 MB makes every move a cold-cache restart,
    /// and moving chunk by chunk spread the tick p99 over five seeds by
    /// 10 %. `at_checkpoint` sees the fleet after [`CHECKPOINT_CHUNK`]
    /// chunks.
    fn run(
        served: &mut Served,
        workers: usize,
        budget: Duration,
        min: usize,
        pinned: bool,
        mut at_checkpoint: impl FnMut(&Served),
    ) -> Self {
        let mut chunks = Chunks::default();
        if pinned {
            stats::pin("0");
        }
        let start = Instant::now();
        while chunks.walls_s.len() < min || start.elapsed() < budget {
            let (wall_s, epochs_us, profile) = chunk(served, workers);
            chunks.walls_s.push(wall_s);
            chunks.epochs_us.push(epochs_us);
            chunks.profiles.push(profile);
            if chunks.walls_s.len() == CHECKPOINT_CHUNK {
                at_checkpoint(served);
            }
        }
        if pinned {
            stats::unpin();
        }
        chunks
    }

    /// Vehicle-stream seconds served per wall second over `kept`.
    fn realtime(&self, kept: &[usize]) -> f64 {
        let wall_s: f64 = kept.iter().map(|&i| self.walls_s[i]).sum();
        (vehicles() * CHUNK_EPOCHS * kept.len()) as f64 * TICK_DT / wall_s
    }

    /// Epoch walls of `kept` as consecutive-pair means (see
    /// [`pair_means`]), pooled and sorted (microseconds).
    fn pooled(&self, kept: &[usize]) -> Vec<f64> {
        let mut pooled: Vec<f64> = kept
            .iter()
            .flat_map(|&i| pair_means(&self.epochs_us[i]))
            .collect();
        pooled.sort_by(f64::total_cmp);
        pooled
    }

    /// The fastest tenth of chunks (see [`fastest_tenth`]), widened to
    /// pool at least [`MIN_KEPT_EPOCHS`] epochs.
    fn kept(&self) -> Vec<usize> {
        fastest_tenth(&self.walls_s, MIN_KEPT_EPOCHS.div_ceil(CHUNK_EPOCHS))
    }

    fn all(&self) -> Vec<usize> {
        (0..self.walls_s.len()).collect()
    }

    /// Median over chunks of one per-chunk profile figure.
    fn median_of(&self, field: impl Fn(&EpochProfile) -> f64) -> f64 {
        median(&self.profiles.iter().map(field).collect::<Vec<_>>())
    }
}

/// Health of every vehicle (oracle, ingress drops, health evictions)
/// and the bit-identity gate against scalar sessions. Returns the
/// modelled Sabre cycles per stream second of the sampled vehicles.
fn check(served: &Served, roster: &Roster, report: &mut Report) -> f64 {
    let fleet = &served.fleet;
    let oracle = FusionOracle::default();
    report.attempted += vehicles() as u64;
    if fleet.stats().ingress.dropped > 0 {
        // Drops cannot be attributed to vehicles: the whole run fails.
        report.failed += vehicles() as u64;
        return f64::NAN;
    }
    for &id in &served.lane_ids {
        let healthy = fleet
            .estimate(id)
            .is_some_and(|e| oracle.check_estimate(&e, Substrate::F64).is_empty());
        report.failed += u64::from(!healthy);
    }
    for &id in &served.sideband_ids {
        let healthy = fleet.estimate(id).is_some_and(|e| {
            oracle.check_estimate(&e, Substrate::Adaptive).is_empty()
                && fleet
                    .adaptive_ledger(id)
                    .is_some_and(|l| oracle.check_ledger(l, SubstrateId::Q16_16, 0).is_none())
        });
        report.failed += u64::from(!healthy);
    }
    let evicted_for_health = fleet
        .completed()
        .iter()
        .filter(|c| matches!(c.reason, EvictReason::Diverged | EvictReason::MonitorFault))
        .count();
    report.failed += evicted_for_health as u64;

    // One vehicle per catalog entry against an independent scalar
    // session stepped the same number of ticks: identical estimate and
    // counters.
    let epochs = fleet.epoch() as usize;
    let (mut cycles, mut stream_s) = (0u64, 0.0);
    let sampled = served
        .lane_ids
        .iter()
        .zip(&roster.lane)
        .take(catalog::all().len());
    for (&id, spec) in sampled {
        let mut session = spec.into_session(spec.lower_trajectory());
        for _ in 0..epochs {
            session.step(TICK_DT);
        }
        let stats = session.stats();
        let ok = fleet
            .estimate(id)
            .is_some_and(|e| roster::same_bits(&e, &session.estimate()))
            && fleet
                .vehicle_stats(id)
                .is_some_and(|s| s.events == stats.events && s.updates == stats.updates);
        report.gate(ok, || {
            format!(
                "fleet vehicle {id} ({}) differs from its scalar session",
                spec.name
            )
        });
        let counts = session
            .backend_as::<GenericBoresightEstimator<F64Arith>>()
            .expect("f64 backend")
            .filter()
            .arith()
            .counts();
        cycles += sabre::softfloat_cycles(&counts);
        stream_s += session.time_s();
    }
    cycles as f64 / stream_s
}

/// Generator cost per epoch at the fleet's stream time: every
/// [`GENERATOR_STRIDE`]-th vehicle's source, brought untimed to
/// `from_epoch`, then polled one tick each for `epochs` epochs outside
/// the fleet on one thread; scaled to the whole roster.
fn generator_us_per_epoch(roster: &Roster, from_epoch: u64, epochs: u64) -> f64 {
    let mut sources: Vec<Box<dyn SensorSource>> = roster
        .lane
        .iter()
        .chain(&roster.sideband)
        .step_by(GENERATOR_STRIDE)
        .map(|spec| spec.into_source(spec.lower_trajectory()))
        .collect();
    let mut events = Vec::with_capacity(64);
    let mut poll_all = |sources: &mut [Box<dyn SensorSource>], epoch: u64| {
        let t = epoch as f64 * TICK_DT;
        for source in sources {
            events.clear();
            source.poll(t, &mut events);
        }
    };
    for epoch in 1..=from_epoch {
        poll_all(&mut sources, epoch);
    }
    let start = Instant::now();
    for epoch in from_epoch + 1..=from_epoch + epochs {
        poll_all(&mut sources, epoch);
    }
    let us = start.elapsed().as_secs_f64() * 1e6 / epochs as f64;
    us * vehicles() as f64 / sources.len() as f64
}

pub fn run(args: &Args, report: &mut Report) {
    let roster = roster(args.seed);
    report.header("vehicles", VEHICLES.to_string());
    report.header("sideband_vehicles", SIDEBAND.to_string());
    report.header("shards", SHARDS.to_string());
    report.header("workers", SERVE_WORKERS.to_string());
    report.header("epochs_per_chunk", CHUNK_EPOCHS.to_string());
    let budget = Duration::from_secs_f64(args.seconds);
    if args.trace {
        run_traced(&roster, budget, report);
        return;
    }
    let (mut served, setup_s) = roster::repeated_setup(|| admit(&roster, SERVE_WORKERS));
    let mut sigma3_mean = f64::NAN;
    let chunks = Chunks::run(
        &mut served,
        SERVE_WORKERS,
        budget,
        CHECKPOINT_CHUNK,
        true,
        |s| {
            let estimates: Vec<_> = s
                .lane_ids
                .iter()
                .filter_map(|&id| s.fleet.estimate(id))
                .collect();
            sigma3_mean = roster::sigma3_mean_deg(&estimates);
        },
    );
    let cycles_per_stream_s = check(&served, &roster, report);
    let kept = chunks.kept();
    let pooled = chunks.pooled(&kept);
    report.header("chunks", chunks.walls_s.len().to_string());
    report.header("epoch_pairs_kept", pooled.len().to_string());
    report.metric("realtime_vehicles", chunks.realtime(&kept));
    report.metric("tick_p50_us", quantile_sorted(&pooled, 0.50));
    report.metric("tick_p99_us", quantile_sorted(&pooled, 0.99));
    report.metric("setup_s", setup_s);
    report.metric("sigma3_mean_deg", sigma3_mean);
    report.metric("ok_frac", report.ok_frac());
    report.metric("sabre_budget_frac", cycles_per_stream_s / sabre::CLOCK_HZ);
    report.metric("peak_rss_mb", crate::stats::peak_rss_mb());
    println!(
        "served {} chunks x {CHUNK_EPOCHS} epochs x {} vehicles on {SERVE_WORKERS} worker, \
         pinned to core 0; the fastest chunks ({} epoch pairs) kept",
        chunks.walls_s.len(),
        vehicles(),
        pooled.len()
    );
}

/// The traced run, in three equal parts: untraced chunks (the overhead
/// baseline), chunks whose epoch profile is read back phase by phase,
/// and the same on one worker per core, where stealing and the barrier
/// show. Plus the generator polled outside the fleet.
fn run_traced(roster: &Roster, budget: Duration, report: &mut Report) {
    let third = budget / 3;
    let mut served = admit(roster, SERVE_WORKERS);
    let untraced = Chunks::run(&mut served, SERVE_WORKERS, third, 1, false, |_| {});
    let profiled = Chunks::run(&mut served, SERVE_WORKERS, third, 1, false, |_| {});
    let pool_workers = stats::cores();
    let mut pooled_fleet = admit(roster, pool_workers);
    let pool = Chunks::run(&mut pooled_fleet, pool_workers, third, 1, false, |_| {});

    // Reading the profile back costs the same chunk loop nothing but
    // the read; the overhead row prices it against the untraced chunks.
    let overhead = untraced.realtime(&untraced.all()) / profiled.realtime(&profiled.all()) - 1.0;
    let generator_us = generator_us_per_epoch(roster, served.fleet.epoch(), 200);
    let wall_p50 = profiled.median_of(|p| p.wall.p50_us);
    let phase_sum: f64 = profiled
        .profiles
        .iter()
        .map(|p| p.rows().iter().map(|(_, s, _)| s.total_us).sum::<f64>())
        .sum();
    let worker_wall: f64 = profiled.profiles.iter().map(|p| p.worker_wall_us).sum();
    let stats = served.fleet.stats();
    report.header("pool_workers", pool_workers.to_string());
    report.metric("trace.overhead_frac", overhead);
    report.metric("fleet.phase_sum_frac", phase_sum / worker_wall);
    report.metric("fleet.ingest_us", profiled.median_of(|p| p.ingest.p50_us));
    report.metric("fleet.compute_us", profiled.median_of(|p| p.compute.p50_us));
    report.metric(
        "fleet.sideband_us",
        profiled.median_of(|p| p.sideband.p50_us),
    );
    report.metric("fleet.steal_us", pool.median_of(|p| p.steal.p50_us));
    report.metric("fleet.barrier_us", pool.median_of(|p| p.barrier.p50_us));
    report.metric("fleet.steals", pool.median_of(|p| p.steals as f64));
    let pool_epochs = pool.pooled(&pool.all());
    report.metric("fleet.pool_realtime_vehicles", pool.realtime(&pool.all()));
    report.metric(
        "fleet.pool_epoch_p25_us",
        quantile_sorted(&pool_epochs, 0.25),
    );
    report.metric(
        "fleet.pool_epoch_p75_us",
        quantile_sorted(&pool_epochs, 0.75),
    );
    report.metric("ingress.deferred", stats.ingress.deferred as f64);
    report.metric("ingress.dropped", stats.ingress.dropped as f64);
    report.metric("ingress.high_water", stats.ingress.high_water as f64);
    report.metric(
        "fleet.bytes_per_vehicle",
        Fleet::<F64Arith, 8>::bytes_per_vehicle() as f64,
    );
    report.metric("fleet.generator_us", generator_us);
    report.metric("fleet.serving_us", wall_p50 - generator_us);
    println!(
        "epoch p50 {wall_p50:.1} us on {SERVE_WORKERS} worker = generator {generator_us:.1} us \
         + serving {:.1} us; phase rows cover {:.1}% of worker wall",
        wall_p50 - generator_us,
        100.0 * phase_sum / worker_wall
    );
    for (label, p50) in [
        ("ingest", profiled.median_of(|p| p.ingest.p50_us)),
        ("compute", profiled.median_of(|p| p.compute.p50_us)),
        ("sideband", profiled.median_of(|p| p.sideband.p50_us)),
        ("barrier", profiled.median_of(|p| p.barrier.p50_us)),
    ] {
        println!("  {label:<10} p50 {p50:>10.1} us per epoch");
    }
    println!(
        "pool of {pool_workers} workers: {:.0} realtime vehicles, epoch p25 {:.1} us / p75 {:.1} us, \
         steal p50 {:.1} us, barrier p50 {:.1} us per epoch",
        pool.realtime(&pool.all()),
        quantile_sorted(&pool_epochs, 0.25),
        quantile_sorted(&pool_epochs, 0.75),
        pool.median_of(|p| p.steal.p50_us),
        pool.median_of(|p| p.barrier.p50_us)
    );
}
