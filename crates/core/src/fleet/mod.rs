//! Fleet-scale session serving: thousands of concurrent vehicles
//! multiplexed through one process.
//!
//! The paper's datapath aligns one vehicle's sensors; the production
//! problem is a *fleet* — every vehicle on the road running the same
//! boresight estimator, supervised centrally. This module is that
//! server. A [`Fleet`] owns a set of shards; each shard packs its
//! resident vehicles' filter state into lockstep
//! [`crate::lanes::LaneIekf`] lane groups (structure-of-arrays, `L`
//! *unrelated vehicles* per group — the fleet twist on the lane
//! substrate, which PR 5 used for one vehicle's `L` channels) behind a
//! double-buffered frame-ingestion queue.
//!
//! Scheduling is epoch-based on a **persistent executor**: one
//! [`Fleet::run_epochs`] epoch advances every shard one sensor tick on
//! a cached [`crate::exec::Pool`] whose workers park between epochs —
//! no thread is spawned or joined per epoch, and a steady-state epoch
//! performs zero heap allocations at *any* worker count
//! (`tests/alloc_audit.rs`). Shards are **shard-affine**: each worker
//! owns a deterministic contiguous home range and claims those shards
//! first via a per-shard epoch-stamped atomic (no per-tick mutex),
//! then falls back to stealing unclaimed shards from slower workers.
//! Each claimed shard runs a **pipelined** fused task — drain the
//! primed ingress buffer through the lanes, apply shard-local
//! evictions, then pre-ingest epoch N+1 into the other buffer — so one
//! shard's next-epoch ingest overlaps other shards' compute. The
//! adaptive sideband rides the same pool behind an atomic cursor
//! instead of serializing on the barrier, and every epoch's wall time
//! is attributed phase by phase into an [`EpochProfiler`]
//! ([`Fleet::epoch_profile`]).
//!
//! The contract that makes the fleet trustworthy is **per-vehicle bit
//! identity**: a vehicle admitted from a catalog
//! [`crate::spec::ScenarioSpec`] produces exactly the estimate stream
//! — to the last bit, including gate decisions, retunes and counters —
//! that a standalone scalar [`crate::session::FusionSession`] run of
//! the same spec produces, at any shard count and any worker count
//! (`tests/fleet.rs` pins this for 1000+ vehicles). The fused task
//! keeps every shard's ingest→compute→evict sequence exactly the
//! serial order; only the interleaving *across* shards varies with the
//! schedule, and shards are independent. Vehicles join mid-run
//! ([`Fleet::admit`]), leave on completion, divergence, monitor fault
//! or request ([`EvictionPolicy`], [`Fleet::evict`]), and their slots
//! are recycled allocation-free; directory and eviction-log upkeep
//! stay on the sequential epoch barrier (the control plane keeps its
//! locksteps, the data plane loses its locks).
//!
//! ```
//! use boresight::arith::F64Arith;
//! use boresight::catalog;
//! use boresight::fleet::{Fleet, FleetConfig};
//!
//! let mut fleet: Fleet<F64Arith, 4> = Fleet::new(FleetConfig::default());
//! let mut spec = catalog::paper_static();
//! spec.duration_s = 2.0;
//! let id = fleet.admit(&spec).expect("static tuning is lane-compatible");
//! fleet.run_epochs(100, 1); // 100 ticks at 200 Hz = 0.5 s of stream
//! assert!(fleet.estimate(id).expect("resident").updates > 0);
//! ```

mod arena;
mod ingress;
mod policy;
mod profile;

pub use arena::VehicleStats;
pub use ingress::IngressStats;
pub use policy::{AdmitError, EvictReason, EvictionPolicy};
pub use profile::{EpochProfile, EpochProfiler, EpochSample, PhaseStats, DEFAULT_PROFILE_WINDOW};

use crate::adaptive::{AdaptiveBackend, ReconfigLedger, ReconfigPolicy, SubstrateId};
use crate::arith::LaneSpec;
use crate::estimator::MisalignmentEstimate;
use crate::exec::{self, SyncCell};
use crate::filter::FilterConfig;
use crate::report::VehicleSummary;
use crate::session::{FusionBackend, FusionSession};
use crate::spec::ScenarioSpec;
use arena::Shard;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// A fleet-unique vehicle handle, stable across slot compaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VehicleId(pub u64);

impl fmt::Display for VehicleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Fleet server configuration.
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Number of shards (parallelism grain; vehicle results do not
    /// depend on it).
    pub shards: usize,
    /// Epoch tick, seconds of stream time per epoch (the paper's
    /// 200 Hz ACC rate makes 5 ms the natural grain).
    pub tick_dt: f64,
    /// Per-shard ingress queue capacity, frames (each shard carries
    /// two buffers of this capacity for the ingest/compute pipeline).
    pub ingress_capacity: usize,
    /// The filter tuning every lane group shares. Admission accepts
    /// any scenario whose tuning differs only in measurement sigma
    /// (the one per-lane parameter).
    pub filter: FilterConfig,
    /// When the arena evicts vehicles on its own.
    pub eviction: EvictionPolicy,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            shards: 8,
            tick_dt: 0.005,
            ingress_capacity: 4096,
            filter: FilterConfig::paper_static(),
            eviction: EvictionPolicy::default(),
        }
    }
}

/// One entry of the fleet's eviction log.
#[derive(Clone, Debug)]
pub struct EvictedVehicle {
    /// The vehicle's fleet handle.
    pub id: VehicleId,
    /// The scenario it was admitted from.
    pub scenario: String,
    /// Why it left.
    pub reason: EvictReason,
    /// Its summary at eviction time.
    pub summary: VehicleSummary,
}

/// Aggregate fleet counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct FleetStats {
    /// Vehicles currently resident.
    pub vehicles: usize,
    /// Epochs run so far.
    pub epoch: u64,
    /// Events dispatched across all resident vehicles.
    pub events: u64,
    /// Measurement updates returned across all resident vehicles.
    pub updates: u64,
    /// Updates beyond 3 sigma across all resident vehicles.
    pub exceeded: u64,
    /// Adaptive retunes fired across all resident vehicles.
    pub retunes: u64,
    /// ACC frames dropped before the first DMU, across all residents.
    pub dropped_no_imu: u64,
    /// Vehicles evicted over the fleet's lifetime (any reason).
    pub evicted: usize,
    /// Range-saturation events across resident adaptive vehicles
    /// (lane vehicles share one substrate context and cannot
    /// attribute saturations per vehicle).
    pub saturations: u64,
    /// Substrate reconfigurations across resident adaptive vehicles.
    pub substrate_switches: u64,
    /// Merged ingress backpressure counters.
    pub ingress: IngressStats,
}

/// One vehicle of the adaptive sideband: a full scalar
/// [`FusionSession`] under an [`AdaptiveBackend`], advanced on the
/// same epoch clock as the lane shards but outside the lane arenas
/// (a reconfiguring substrate cannot share a lockstep lane group).
struct AdaptiveVehicle {
    id: VehicleId,
    scenario: String,
    session: FusionSession,
    duration_s: f64,
    clock: f64,
}

/// One shard plus its epoch-claim word, padded onto its own cache
/// lines so neighbouring shards' claim CAS traffic and hot slot
/// counters never false-share.
#[repr(align(128))]
struct ShardCell<A: LaneSpec<L>, const L: usize> {
    /// Epoch stamp of the shard's last claimed task. A worker owns the
    /// shard for the epoch stamped `e` iff its compare-exchange takes
    /// this from `< e` to `e` — monotonic stamps mean no reset pass
    /// between epochs, and the home/steal distinction is purely who
    /// wins the race.
    claim: AtomicU64,
    shard: SyncCell<Shard<A, L>>,
}

impl<A: LaneSpec<L>, const L: usize> ShardCell<A, L> {
    /// Claims this shard for the epoch stamped `stamp`; `true` means
    /// the caller owns the shard exclusively until the epoch barrier.
    fn try_claim(&self, stamp: u64) -> bool {
        let cur = self.claim.load(Ordering::Relaxed);
        cur < stamp
            && self
                .claim
                .compare_exchange(cur, stamp, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
    }
}

/// One worker's phase-time scratch for the epoch in flight,
/// cache-line-padded against false sharing (workers write their lap
/// concurrently).
#[derive(Clone, Copy, Debug, Default)]
struct WorkerLap {
    ingest_us: f64,
    compute_us: f64,
    sideband_us: f64,
    steal_us: f64,
    steals: u64,
}

#[repr(align(128))]
struct WorkerLapCell(SyncCell<WorkerLap>);

impl Default for WorkerLapCell {
    fn default() -> Self {
        Self(SyncCell::new(WorkerLap::default()))
    }
}

fn us_between(start: Instant, end: Instant) -> f64 {
    end.duration_since(start).as_secs_f64() * 1e6
}

/// Runs one shard's fused epoch task: drain the primed ingress buffer
/// through the lanes, apply shard-local evictions, then (unless this
/// is the run's final epoch) pre-ingest the next epoch into the other
/// buffer. The per-shard sequence is exactly the serial order — the
/// pipeline overlap comes from *other* shards computing while this one
/// ingests ahead.
fn run_shard_epoch<A: LaneSpec<L> + Clone + Default, const L: usize>(
    shard: &mut Shard<A, L>,
    ingest_next: bool,
    lap: &mut WorkerLap,
    stolen: bool,
) {
    let t0 = Instant::now();
    if !shard.is_primed() {
        // First epoch of a run (or a post-admission epoch): nothing
        // was pre-ingested, poll sources now.
        shard.ingest();
    }
    let t1 = Instant::now();
    shard.compute();
    shard.apply_evictions();
    let t2 = Instant::now();
    if ingest_next {
        shard.ingest();
    }
    let t3 = Instant::now();
    if stolen {
        // Stolen shards price the fallback, not the phase: the whole
        // task lands in the steal bucket.
        lap.steal_us += us_between(t0, t3);
        lap.steals += 1;
    } else {
        lap.ingest_us += us_between(t0, t1) + us_between(t2, t3);
        lap.compute_us += us_between(t1, t2);
    }
}

/// The fleet session server: vehicle directory, shard set and epoch
/// scheduler. See the [module docs](self) for the architecture.
pub struct Fleet<A: LaneSpec<L> + Clone + Default, const L: usize = 8> {
    config: FleetConfig,
    shards: Vec<ShardCell<A, L>>,
    /// vehicle id → (shard, slot); slots move on compaction, the
    /// directory is the source of truth. Control plane: touched only
    /// on the epoch barrier and in admission/eviction calls.
    directory: HashMap<u64, (u32, u32)>,
    /// The adaptive sideband: per-vehicle scalar sessions whose
    /// substrate reconfigures mid-run. Each cell is claimed by exactly
    /// one worker per epoch via an atomic cursor.
    adaptive: Vec<SyncCell<AdaptiveVehicle>>,
    /// vehicle id → index into `adaptive` (indices move on
    /// swap-remove retirement).
    adaptive_index: HashMap<u64, usize>,
    /// The cached persistent executor, rebuilt only when the requested
    /// worker count changes (a warm-up event, never steady state).
    pool: Option<exec::Pool>,
    /// Per-worker phase-time scratch, grown to the widest worker count
    /// seen (warm-up only).
    laps: Vec<WorkerLapCell>,
    profiler: EpochProfiler,
    next_id: u64,
    epoch: u64,
    completed: Vec<EvictedVehicle>,
}

/// The native-`f64` fleet with the default lane width.
pub type F64Fleet = Fleet<crate::arith::F64Arith, 8>;

impl<A: LaneSpec<L> + Clone + Default, const L: usize> Fleet<A, L> {
    /// Creates an empty fleet.
    pub fn new(config: FleetConfig) -> Self {
        let shard_count = config.shards.max(1);
        Self {
            shards: (0..shard_count)
                .map(|_| ShardCell {
                    claim: AtomicU64::new(0),
                    shard: SyncCell::new(Shard::new(&config)),
                })
                .collect(),
            config,
            directory: HashMap::new(),
            adaptive: Vec::new(),
            adaptive_index: HashMap::new(),
            pool: None,
            laps: Vec::new(),
            profiler: EpochProfiler::default(),
            next_id: 0,
            epoch: 0,
            completed: Vec::new(),
        }
    }

    /// The configuration the fleet was built with.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    fn shard_ref(&self, i: usize) -> &Shard<A, L> {
        // SAFETY: every `&self` accessor is serialized against
        // `run_epochs*` by the borrow checker (those take `&mut
        // self`), so no worker holds the cell while we read it.
        unsafe { &*self.shards[i].shard.get() }
    }

    fn shard_mut(&mut self, i: usize) -> &mut Shard<A, L> {
        self.shards[i].shard.get_mut()
    }

    /// Admits a vehicle running `spec`, joining the fleet mid-run at
    /// the current epoch with its stream at local time zero. The
    /// least-loaded shard (ties to the lowest index) receives it, so
    /// placement is deterministic in admission order.
    ///
    /// The spec's substrate field is ignored — the fleet's `A`
    /// parameter is the substrate authority — but its filter tuning
    /// must match the fleet's shared lane configuration in everything
    /// except measurement sigma.
    pub fn admit(&mut self, spec: &ScenarioSpec) -> Result<VehicleId, AdmitError> {
        let tuning = spec.tuning.estimator_config().filter;
        if !lane_compatible(&self.config.filter, &tuning) {
            return Err(AdmitError::IncompatibleTuning {
                scenario: spec.name.clone(),
            });
        }
        let mut best = 0;
        let mut best_load = usize::MAX;
        for i in 0..self.shards.len() {
            let load = self.shard_ref(i).occupied();
            if load < best_load {
                best = i;
                best_load = load;
            }
        }
        let id = VehicleId(self.next_id);
        self.next_id += 1;
        let slot = self.shard_mut(best).admit(id, spec);
        self.directory.insert(id.0, (best as u32, slot as u32));
        Ok(id)
    }

    /// Admits a vehicle on the adaptive sideband: a scalar session
    /// whose [`AdaptiveBackend`] starts on `initial` and reconfigures
    /// under `policy`, sharing the fleet's epoch clock but not the
    /// lockstep lane groups (so no lane-compatibility constraint
    /// applies — the sideband is per-vehicle).
    pub fn admit_adaptive(
        &mut self,
        spec: &ScenarioSpec,
        initial: SubstrateId,
        policy: Box<dyn ReconfigPolicy>,
    ) -> VehicleId {
        let id = VehicleId(self.next_id);
        self.next_id += 1;
        let session = spec.into_adaptive_session(spec.lower_trajectory(), initial, policy);
        self.adaptive_index.insert(id.0, self.adaptive.len());
        self.adaptive.push(SyncCell::new(AdaptiveVehicle {
            id,
            scenario: spec.name.clone(),
            session,
            duration_s: spec.duration_s,
            clock: 0.0,
        }));
        id
    }

    /// Evicts a vehicle now (reason [`EvictReason::Requested`]),
    /// returning its final summary. `None` for unknown ids.
    pub fn evict(&mut self, id: VehicleId) -> Option<VehicleSummary> {
        if let Some(&idx) = self.adaptive_index.get(&id.0) {
            return Some(self.retire_adaptive(idx, EvictReason::Requested));
        }
        let (shard, slot) = *self.directory.get(&id.0)?;
        let shard = self.shard_mut(shard as usize);
        shard.queue_eviction(slot as usize, EvictReason::Requested);
        shard.apply_evictions();
        self.collect_eviction_records();
        self.completed
            .iter()
            .rev()
            .find(|c| c.id == id)
            .map(|c| c.summary.clone())
    }

    /// Runs `epochs` epochs; each advances every shard one sensor tick
    /// (`tick_dt` of stream time per resident vehicle) on the fleet's
    /// cached persistent [`exec::Pool`] (`workers` `0` = one per core,
    /// `1` = inline with no thread machinery). The pool is built once
    /// and reused across calls; changing the worker count rebuilds it.
    /// Vehicle results are bit-identical at any worker count — shards
    /// are independent, each shard's fused epoch task preserves the
    /// serial ingest→compute→evict order, and directory/log upkeep
    /// stays on the sequential epoch barrier.
    pub fn run_epochs(&mut self, epochs: usize, workers: usize) {
        let n = self.shards.len();
        let workers = exec::resolve_workers(workers).clamp(1, n.max(1));
        if workers <= 1 {
            for e in 0..epochs {
                self.run_epoch_inline(e + 1 < epochs);
            }
            return;
        }
        if self.pool.as_ref().map(exec::Pool::workers) != Some(workers) {
            self.pool = Some(exec::Pool::new(workers));
        }
        let pool = self.pool.take().expect("pool cached above");
        for e in 0..epochs {
            self.run_epoch_pooled(&pool, e + 1 < epochs);
        }
        self.pool = Some(pool);
    }

    /// [`Fleet::run_epochs`] on a caller-owned pool — the form a host
    /// serving several fleets wants, one warm pool amortized across
    /// all of them. A one-worker pool runs inline.
    pub fn run_epochs_on(&mut self, epochs: usize, pool: &exec::Pool) {
        if pool.workers() <= 1 {
            for e in 0..epochs {
                self.run_epoch_inline(e + 1 < epochs);
            }
            return;
        }
        for e in 0..epochs {
            self.run_epoch_pooled(pool, e + 1 < epochs);
        }
    }

    /// One epoch, no thread machinery: the caller walks every shard
    /// and the sideband itself. Phase times still land in the profiler
    /// with the same attribution as the pooled path.
    fn run_epoch_inline(&mut self, ingest_next: bool) {
        let epoch_start = Instant::now();
        let mut lap = WorkerLap::default();
        for cell in &mut self.shards {
            run_shard_epoch(cell.shard.get_mut(), ingest_next, &mut lap, false);
        }
        let tick_dt = self.config.tick_dt;
        for cell in &mut self.adaptive {
            let t = Instant::now();
            let vehicle = cell.get_mut();
            vehicle.session.run_for(tick_dt);
            vehicle.clock += tick_dt;
            lap.sideband_us += us_between(t, Instant::now());
        }
        self.epoch += 1;
        self.finish_epoch(epoch_start, lap, 1);
    }

    /// One epoch fanned over the pool. Every worker first sweeps its
    /// contiguous home range of shards, then steals any shard still
    /// unclaimed, then pulls sideband vehicles off the shared cursor;
    /// the pool's barrier ends the epoch.
    fn run_epoch_pooled(&mut self, pool: &exec::Pool, ingest_next: bool) {
        let workers = pool.workers();
        while self.laps.len() < workers {
            self.laps.push(WorkerLapCell::default());
        }
        let epoch_start = Instant::now();
        // The claim stamp must exceed every stamp already in the
        // cells; the epoch counter is monotonic, so `epoch + 1` is.
        let stamp = self.epoch + 1;
        let n = self.shards.len();
        let tick_dt = self.config.tick_dt;
        {
            let shards = &self.shards;
            let adaptive = &self.adaptive;
            let laps = &self.laps;
            let sideband_cursor = AtomicUsize::new(0);
            pool.run_epoch(|w| {
                // SAFETY: lap slot `w` is touched only by worker `w`.
                let lap = unsafe { &mut *laps[w].0.get() };
                *lap = WorkerLap::default();
                let lo = n * w / workers;
                let hi = n * (w + 1) / workers;
                for cell in &shards[lo..hi] {
                    if cell.try_claim(stamp) {
                        // SAFETY: a won claim is exclusive ownership
                        // of the shard until the epoch barrier.
                        let shard = unsafe { &mut *cell.shard.get() };
                        run_shard_epoch(shard, ingest_next, lap, false);
                    }
                }
                // Work-stealing fallback: sweep the other workers'
                // homes for shards nobody has reached yet.
                for s in (hi..n).chain(0..lo) {
                    if shards[s].try_claim(stamp) {
                        // SAFETY: as above — the claim is exclusive.
                        let shard = unsafe { &mut *shards[s].shard.get() };
                        run_shard_epoch(shard, ingest_next, lap, true);
                    }
                }
                // The adaptive sideband rides the same pool:
                // independent scalar sessions handed out one at a
                // time by the cursor.
                loop {
                    let i = sideband_cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= adaptive.len() {
                        break;
                    }
                    let t = Instant::now();
                    // SAFETY: the cursor hands vehicle `i` to exactly
                    // one worker.
                    let vehicle = unsafe { &mut *adaptive[i].get() };
                    vehicle.session.run_for(tick_dt);
                    vehicle.clock += tick_dt;
                    lap.sideband_us += us_between(t, Instant::now());
                }
            });
        }
        self.epoch += 1;
        let mut lap = WorkerLap::default();
        for cell in &mut self.laps[..workers] {
            let worker_lap = cell.0.get_mut();
            lap.ingest_us += worker_lap.ingest_us;
            lap.compute_us += worker_lap.compute_us;
            lap.sideband_us += worker_lap.sideband_us;
            lap.steal_us += worker_lap.steal_us;
            lap.steals += worker_lap.steals;
        }
        self.finish_epoch(epoch_start, lap, workers);
    }

    /// The sequential epoch barrier: directory/log upkeep for the
    /// epoch's evictions and sideband completions, then the epoch's
    /// profile sample. Wall time is measured across the whole epoch
    /// including this control plane, so barrier attribution is honest.
    fn finish_epoch(&mut self, epoch_start: Instant, lap: WorkerLap, workers: usize) {
        self.collect_eviction_records();
        self.drain_adaptive_completed();
        let wall_us = us_between(epoch_start, Instant::now());
        let busy = lap.ingest_us + lap.compute_us + lap.sideband_us + lap.steal_us;
        self.profiler.record(EpochSample {
            wall_us,
            ingest_us: lap.ingest_us,
            compute_us: lap.compute_us,
            sideband_us: lap.sideband_us,
            steal_us: lap.steal_us,
            barrier_us: (wall_us * workers as f64 - busy).max(0.0),
            steals: lap.steals,
            workers: workers as u32,
        });
    }

    /// The aggregated scheduling profile over the retained epoch
    /// window (`None` before the first epoch).
    pub fn epoch_profile(&self) -> Option<EpochProfile> {
        self.profiler.profile()
    }

    /// The retained per-epoch samples (ring order, not chronological
    /// once the window wraps).
    pub fn epoch_samples(&self) -> &[EpochSample] {
        self.profiler.samples()
    }

    /// Forgets the profiled window (keeps its allocation) — call
    /// between warm-up and measurement so the profile covers only the
    /// timed epochs.
    pub fn reset_epoch_profile(&mut self) {
        self.profiler.reset();
    }

    /// Retires every sideband vehicle whose stream has run out.
    fn drain_adaptive_completed(&mut self) {
        let mut idx = 0;
        while idx < self.adaptive.len() {
            let vehicle = self.adaptive[idx].get_mut();
            if vehicle.clock >= vehicle.duration_s {
                self.retire_adaptive(idx, EvictReason::Completed);
            } else {
                idx += 1;
            }
        }
    }

    /// Removes sideband vehicle `idx`, logs it to the eviction log and
    /// returns its final summary (swap-remove; the moved vehicle's
    /// directory entry is patched).
    fn retire_adaptive(&mut self, idx: usize, reason: EvictReason) -> VehicleSummary {
        let vehicle = self.adaptive.swap_remove(idx).into_inner();
        self.adaptive_index.remove(&vehicle.id.0);
        if let Some(moved) = self.adaptive.get_mut(idx) {
            let moved_id = moved.get_mut().id;
            self.adaptive_index.insert(moved_id.0, idx);
        }
        let session = vehicle.session;
        let (switches, saturations) = session
            .backend_as::<AdaptiveBackend>()
            .map_or((0, 0), |b| (b.switch_count(), b.total_saturations()));
        let stream = session.stream_stats();
        let result = session.into_result();
        let summary = VehicleSummary::from_result(&result, saturations, stream)
            .with_substrate_switches(switches);
        self.completed.push(EvictedVehicle {
            id: vehicle.id,
            scenario: vehicle.scenario,
            reason,
            summary: summary.clone(),
        });
        summary
    }

    /// Drains every shard's eviction records (filled shard-locally by
    /// the workers) into the directory and the eviction log, in shard
    /// order — the same completed-log order the serial scheduler
    /// produced.
    fn collect_eviction_records(&mut self) {
        let Self {
            shards,
            directory,
            completed,
            ..
        } = self;
        for (si, cell) in shards.iter_mut().enumerate() {
            let shard = cell.shard.get_mut();
            if !shard.has_records() {
                continue;
            }
            shard.drain_records(|record| {
                directory.remove(&record.id.0);
                if let Some((moved_id, new_slot)) = record.moved {
                    directory.insert(moved_id.0, (si as u32, new_slot));
                }
                completed.push(EvictedVehicle {
                    id: record.id,
                    scenario: record.scenario,
                    reason: record.reason,
                    summary: record.summary,
                });
            });
        }
    }

    /// Vehicles currently resident (lane arenas plus the adaptive
    /// sideband).
    pub fn len(&self) -> usize {
        self.directory.len() + self.adaptive.len()
    }

    /// `true` when no vehicles are resident.
    pub fn is_empty(&self) -> bool {
        self.directory.is_empty() && self.adaptive.is_empty()
    }

    /// Sideband vehicles currently resident.
    pub fn adaptive_len(&self) -> usize {
        self.adaptive.len()
    }

    fn adaptive_vehicle(&self, id: VehicleId) -> Option<&AdaptiveVehicle> {
        // SAFETY: `&self` accessors are serialized against
        // `run_epochs*` (which take `&mut self`); no worker holds the
        // cell here.
        self.adaptive_index
            .get(&id.0)
            .map(|&i| unsafe { &*self.adaptive[i].get() })
    }

    /// A resident sideband vehicle's reconfiguration ledger.
    pub fn adaptive_ledger(&self, id: VehicleId) -> Option<&ReconfigLedger> {
        self.adaptive_vehicle(id).and_then(|v| {
            v.session
                .backend_as::<AdaptiveBackend>()
                .map(|b| b.ledger())
        })
    }

    /// A resident sideband vehicle's currently active substrate.
    pub fn adaptive_substrate(&self, id: VehicleId) -> Option<SubstrateId> {
        self.adaptive_vehicle(id).and_then(|v| {
            v.session
                .backend_as::<AdaptiveBackend>()
                .map(|b| b.active_substrate())
        })
    }

    /// Epochs run so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Where a vehicle currently lives: `(shard, slot)`. Slots move on
    /// compaction; ids never do.
    pub fn placement(&self, id: VehicleId) -> Option<(usize, usize)> {
        self.directory
            .get(&id.0)
            .map(|&(s, i)| (s as usize, i as usize))
    }

    fn with_slot<R>(
        &self,
        id: VehicleId,
        read: impl FnOnce(&Shard<A, L>, usize) -> R,
    ) -> Option<R> {
        let (shard, slot) = *self.directory.get(&id.0)?;
        Some(read(self.shard_ref(shard as usize), slot as usize))
    }

    /// A resident vehicle's current estimate with confidence.
    pub fn estimate(&self, id: VehicleId) -> Option<MisalignmentEstimate> {
        if let Some(vehicle) = self.adaptive_vehicle(id) {
            return Some(vehicle.session.estimate());
        }
        self.with_slot(id, |shard, slot| shard.estimate_of(slot))
    }

    /// A resident vehicle's report-shaped summary, as of now.
    pub fn summary(&self, id: VehicleId) -> Option<VehicleSummary> {
        self.with_slot(id, |shard, slot| shard.summary_of(slot))
    }

    /// A resident vehicle's event counters.
    pub fn vehicle_stats(&self, id: VehicleId) -> Option<VehicleStats> {
        self.with_slot(id, |shard, slot| shard.vehicle_stats_of(slot))
    }

    /// A resident vehicle's current (possibly retuned) measurement
    /// sigma.
    pub fn measurement_sigma(&self, id: VehicleId) -> Option<f64> {
        self.with_slot(id, |shard, slot| shard.measurement_sigma_of(slot))
    }

    /// A resident vehicle's adaptive retune count.
    pub fn retune_count(&self, id: VehicleId) -> Option<u64> {
        self.with_slot(id, |shard, slot| shard.retunes_of(slot))
    }

    /// A resident vehicle's local stream time, seconds (stalls under
    /// ingress backpressure).
    pub fn local_time(&self, id: VehicleId) -> Option<f64> {
        if let Some(vehicle) = self.adaptive_vehicle(id) {
            return Some(vehicle.clock);
        }
        self.with_slot(id, |shard, slot| shard.local_time_of(slot))
    }

    /// The eviction log, in eviction order.
    pub fn completed(&self) -> &[EvictedVehicle] {
        &self.completed
    }

    /// Aggregate counters across shards and residents (including the
    /// adaptive sideband).
    pub fn stats(&self) -> FleetStats {
        let mut stats = FleetStats {
            vehicles: self.directory.len() + self.adaptive.len(),
            epoch: self.epoch,
            evicted: self.completed.len(),
            ..FleetStats::default()
        };
        for i in 0..self.shards.len() {
            let shard = self.shard_ref(i);
            shard.fold_stats(
                &mut stats.events,
                &mut stats.updates,
                &mut stats.exceeded,
                &mut stats.retunes,
                &mut stats.dropped_no_imu,
            );
            stats.ingress.merge(&shard.ingress_stats());
        }
        for i in 0..self.adaptive.len() {
            // SAFETY: `&self` accessor, no epoch in flight (see
            // `shard_ref`).
            let vehicle = unsafe { &*self.adaptive[i].get() };
            let s = vehicle.session.stats();
            stats.events += s.events;
            stats.updates += s.updates;
            stats.exceeded += s.exceeded;
            stats.saturations += s.saturations;
            if let Some(backend) = vehicle.session.backend_as::<AdaptiveBackend>() {
                stats.retunes += backend.retunes().len() as u64;
                stats.substrate_switches += backend.switch_count();
            }
        }
        stats
    }

    /// Arena-resident bytes per vehicle (slot record + lane-group
    /// share + staging cell; excludes the boxed per-vehicle source).
    pub fn bytes_per_vehicle() -> usize {
        arena::arena_bytes_per_vehicle::<A, L>()
    }
}

/// Whether a scenario's filter tuning can share the fleet's lane
/// groups: everything but the per-lane measurement sigma must match.
fn lane_compatible(fleet: &FilterConfig, spec: &FilterConfig) -> bool {
    fleet.initial_angle_sigma == spec.initial_angle_sigma
        && fleet.initial_bias_sigma == spec.initial_bias_sigma
        && fleet.angle_process_density == spec.angle_process_density
        && fleet.bias_process_density == spec.bias_process_density
        && fleet.estimate_bias == spec.estimate_bias
        && fleet.gate_sigmas == spec.gate_sigmas
        && fleet.angle_limit == spec.angle_limit
        && fleet.bias_limit == spec.bias_limit
        && fleet.iekf_iterations == spec.iekf_iterations
}
