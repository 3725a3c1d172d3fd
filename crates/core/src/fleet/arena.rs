//! The struct-of-arrays state arena: one shard's worth of vehicles.
//!
//! A shard owns a dense prefix of *slots* (one per resident vehicle:
//! its boxed sensor source, IMU front end, residual monitor and
//! counters) and a parallel array of [`LaneIekf`] *lane groups* (slot
//! `s` lives in group `s / L`, lane `s % L`) — filter state for `L`
//! unrelated vehicles packed structure-of-arrays so one lockstep
//! instruction stream advances all of them. Slots stay dense: evicting
//! a vehicle swap-removes its slot and migrates the last vehicle's
//! lane state into the hole ([`LaneIekf::export_lane`] /
//! [`LaneIekf::import_lane`] round-trip bit-exactly), so lane groups
//! are always full except the last and freed capacity is recycled
//! without allocation.
//!
//! One epoch is two explicitly split phases the scheduler can
//! pipeline. [`Shard::ingest`] polls every live vehicle one sensor
//! tick into one of two bounded ingress queues (backpressure defers
//! vehicles, never reorders one vehicle's events); [`Shard::compute`]
//! drains the primed queue and dispatches slot-major — the queues are
//! double-buffered so epoch `N+1`'s ingest fills a different buffer
//! than the one epoch `N`'s compute drained, letting the fleet
//! scheduler run a shard's next-epoch ingest immediately after its
//! compute (and overlap it with *other* shards' compute on other
//! workers) without the two phases ever contending on one ring.
//! Dispatch order within compute is unchanged from the original fused
//! tick —
//! *staged* with the specific force, per-vehicle `dt` and timestamp
//! captured at dispatch point; a group's staged lanes flush through
//! one masked [`LaneIekf::predict_lanes`] +
//! [`LaneIekf::update_lanes_masked`] batch. Because staging captures
//! exactly what the scalar estimator would have computed at that event
//! — and masked lanes are untouched bit-for-bit — every vehicle's
//! estimate stream is bit-identical to its own scalar
//! [`crate::session::FusionSession`] run regardless of which lane,
//! group or shard it lands in.

use super::ingress::IngressQueue;
use super::policy::{EvictReason, EvictionPolicy};
use super::{FleetConfig, VehicleId};
use crate::arith::{Arith, LaneOps, LaneSpec};
use crate::estimator::{ImuPrep, MisalignmentEstimate};
use crate::lanes::LaneIekf;
use crate::monitor::ResidualMonitor;
use crate::report::{RunningRms, VehicleSummary};
use crate::session::SensorEvent;
use crate::spec::ScenarioSpec;
use mathx::{rad_to_deg, EulerAngles, Vec2, Vec3};

/// Per-vehicle event counters (the fleet mirror of
/// [`crate::session::SessionStats`], plus the no-IMU drop counter the
/// session layer folds into its backend).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VehicleStats {
    /// Raw events dispatched to this vehicle.
    pub events: u64,
    /// Measurement updates returned (accepted or gate-rejected).
    pub updates: u64,
    /// Updates whose innovation exceeded 3 sigma.
    pub exceeded: u64,
    /// ACC frames discarded because no DMU sample had arrived yet.
    pub dropped_no_imu: u64,
}

/// An ACC measurement captured at its dispatch point, waiting for its
/// lane group's batched flush. The specific force and `dt` are
/// computed *when the frame is dispatched* — not when the batch runs —
/// so a later DMU frame in the same tick cannot leak into an earlier
/// measurement, preserving scalar-session event-order semantics.
struct StagedMeas<A: Arith> {
    z: Vec2,
    f_b: [A::T; 3],
    time_s: f64,
    dt: f64,
}

/// One resident vehicle's non-filter state (filter state lives in the
/// lane groups).
struct SlotState<A: Arith> {
    id: VehicleId,
    scenario: String,
    truth: EulerAngles,
    duration_s: f64,
    lever_arm: Vec3,
    source: Box<dyn crate::session::SensorSource>,
    prep: ImuPrep<A>,
    monitor: Option<ResidualMonitor>,
    /// Local stream time: advances one tick per epoch *when polled*
    /// (backpressure stalls it losslessly).
    clock: f64,
    last_update_time: f64,
    retunes: u64,
    stats: VehicleStats,
    rms: RunningRms,
    exhausted: bool,
    evict_queued: bool,
}

/// What one eviction produced, handed to the fleet for directory and
/// log upkeep.
pub(crate) struct EvictionRecord {
    pub id: VehicleId,
    pub scenario: String,
    pub reason: EvictReason,
    pub summary: VehicleSummary,
    /// The vehicle compacted into the freed slot, if any.
    pub moved: Option<(VehicleId, u32)>,
}

/// One shard of the fleet arena.
pub(crate) struct Shard<A: LaneSpec<L>, const L: usize> {
    lane_config: crate::filter::FilterConfig,
    tick_dt: f64,
    policy: EvictionPolicy,
    groups: Vec<LaneIekf<A, L>>,
    slots: Vec<SlotState<A>>,
    /// Shared substrate context for every resident vehicle's IMU front
    /// end (the [`crate::lanes::LaneBank`] precedent: front-end values
    /// are identical whichever context instance computes them; context
    /// state is instrumentation only).
    front: A,
    /// Double-buffered ingress: [`Shard::ingest`] fills
    /// `queues[active]`, [`Shard::compute`] drains it and flips
    /// `active`, so the next ingest lands in the other buffer.
    queues: [IngressQueue; 2],
    /// Which queue the next ingest fills / the next compute drains.
    active: usize,
    /// `true` between an ingest and its compute: the active queue
    /// holds one undispatched epoch of frames.
    primed: bool,
    staged: Vec<Option<StagedMeas<A>>>,
    pending_evict: Vec<(usize, EvictReason)>,
    /// Evictions applied shard-locally during an epoch, drained by the
    /// fleet on the barrier for directory/log upkeep. The buffer keeps
    /// its capacity across drains.
    records: Vec<EvictionRecord>,
}

impl<A: LaneSpec<L> + Clone + Default, const L: usize> Shard<A, L> {
    pub(crate) fn new(config: &FleetConfig) -> Self {
        Self {
            lane_config: config.filter,
            tick_dt: config.tick_dt,
            policy: config.eviction,
            groups: Vec::new(),
            slots: Vec::new(),
            front: A::default(),
            queues: [
                IngressQueue::new(config.ingress_capacity),
                IngressQueue::new(config.ingress_capacity),
            ],
            active: 0,
            primed: false,
            staged: Vec::new(),
            pending_evict: Vec::with_capacity(16),
            records: Vec::with_capacity(16),
        }
    }

    pub(crate) fn occupied(&self) -> usize {
        self.slots.len()
    }

    /// Admits a vehicle into the next dense slot, recycling a retained
    /// lane group when one has spare capacity. Returns the slot index.
    pub(crate) fn admit(&mut self, id: VehicleId, spec: &ScenarioSpec) -> usize {
        // Admission is control-plane work: it must happen on the epoch
        // barrier, never while a pipelined ingest is in flight (the
        // primed buffer's slot tags would go stale).
        debug_assert!(!self.primed, "admit with a primed ingress buffer");
        let slot = self.slots.len();
        let (g, lane) = (slot / L, slot % L);
        if g == self.groups.len() {
            self.groups
                .push(LaneIekf::with_arith(A::default(), self.lane_config));
        }
        // Fresh or recycled, the lane starts from the exact
        // fresh-filter init, then takes the scenario's tuning sigma
        // (the one per-lane filter parameter).
        self.groups[g].reset_lane(lane);
        let estimator = spec.tuning.estimator_config();
        self.groups[g].set_measurement_sigma(lane, estimator.filter.measurement_sigma);
        self.slots.push(SlotState {
            id,
            scenario: spec.name.clone(),
            truth: spec.truth,
            duration_s: spec.duration_s,
            lever_arm: estimator.lever_arm,
            source: spec.into_source(spec.lower_trajectory()),
            prep: ImuPrep::new(&mut self.front),
            monitor: estimator
                .monitor
                .map(|m| ResidualMonitor::new(m, estimator.filter.measurement_sigma)),
            clock: 0.0,
            last_update_time: 0.0,
            retunes: 0,
            stats: VehicleStats::default(),
            rms: RunningRms::default(),
            exhausted: false,
            evict_queued: false,
        });
        if self.staged.len() < self.slots.len() {
            self.staged.push(None);
        }
        slot
    }

    /// `true` between an [`Shard::ingest`] and its [`Shard::compute`]:
    /// the active queue holds one undispatched epoch of frames.
    pub(crate) fn is_primed(&self) -> bool {
        self.primed
    }

    /// The ingest phase of one epoch: advances every live vehicle's
    /// local clock one sensor tick and polls its source into the
    /// active (empty) ingress buffer. Exactly one [`Shard::compute`]
    /// must drain it before the next ingest.
    pub(crate) fn ingest(&mut self) {
        debug_assert!(!self.primed, "ingest without an intervening compute");
        let queue = &mut self.queues[self.active];
        for (s, slot) in self.slots.iter_mut().enumerate() {
            if slot.exhausted {
                continue;
            }
            if !queue.has_headroom() {
                // Lossless backpressure: the clock stalls, the vehicle
                // catches up on a later, less-loaded epoch.
                queue.stats.deferred += 1;
                continue;
            }
            slot.clock += self.tick_dt;
            queue.poll_from(s as u32, slot.source.as_mut(), slot.clock);
            if slot.source.is_exhausted() {
                slot.exhausted = true;
            }
        }
        self.primed = true;
    }

    /// The compute phase of one epoch: drains the primed ingress
    /// buffer slot-major with batched lane flushes, then queues
    /// completions and health evictions. Flips the active buffer so
    /// the next ingest fills the other one.
    pub(crate) fn compute(&mut self) {
        debug_assert!(self.primed, "compute without a primed ingest");
        let q = self.active;

        // ---- Dispatch phase: slot-major, flush per lane group ------
        let mut cur_group = usize::MAX;
        for i in 0..self.queues[q].len() {
            let (slot32, event) = self.queues[q].frame(i);
            let s = slot32 as usize;
            let g = s / L;
            if g != cur_group {
                if cur_group != usize::MAX {
                    self.flush_group(cur_group);
                }
                cur_group = g;
            }
            match event {
                SensorEvent::Dmu(sample) => {
                    self.slots[s].stats.events += 1;
                    self.slots[s].prep.on_dmu(&mut self.front, &sample);
                }
                SensorEvent::Acc { time_s, z, .. } => {
                    if self.staged[s].is_some() {
                        // Two ACCs for one slot in one window: preserve
                        // per-vehicle update order by flushing first.
                        self.flush_group(g);
                    }
                    self.slots[s].stats.events += 1;
                    let slot = &mut self.slots[s];
                    match slot
                        .prep
                        .compensated_force(&mut self.front, time_s, slot.lever_arm)
                    {
                        Some(f_b) => {
                            let dt = (time_s - slot.last_update_time).max(0.0);
                            slot.last_update_time = time_s;
                            self.staged[s] = Some(StagedMeas { z, f_b, time_s, dt });
                        }
                        None => slot.stats.dropped_no_imu += 1,
                    }
                }
            }
        }
        if cur_group != usize::MAX {
            self.flush_group(cur_group);
        }
        self.queues[q].clear();
        self.primed = false;
        self.active ^= 1;

        // ---- Completion phase --------------------------------------
        let Self {
            slots,
            pending_evict,
            ..
        } = self;
        for (s, slot) in slots.iter_mut().enumerate() {
            if slot.exhausted && !slot.evict_queued {
                slot.evict_queued = true;
                pending_evict.push((s, EvictReason::Completed));
            }
        }
    }

    /// Runs the staged measurements of one lane group through a single
    /// masked predict + update batch and folds the results back into
    /// each vehicle's counters, monitor and health checks.
    fn flush_group(&mut self, g: usize) {
        let Self {
            groups,
            slots,
            staged,
            policy,
            pending_evict,
            ..
        } = self;
        let group = &mut groups[g];
        let base = g * L;
        let top = (base + L).min(slots.len());
        let zero = group.arith_mut().inner_mut().num(0.0);
        let mut active = [false; L];
        let mut zs = [Vec2::zeros(); L];
        let mut times = [0.0_f64; L];
        let mut dts = [0.0_f64; L];
        let mut fbs = [group.arith_mut().splat(zero); 3];
        let mut any = false;
        for (lane, cell) in staged[base..top].iter_mut().enumerate() {
            if let Some(staged_meas) = cell.take() {
                active[lane] = true;
                any = true;
                zs[lane] = staged_meas.z;
                times[lane] = staged_meas.time_s;
                dts[lane] = staged_meas.dt;
                for (axis, fb) in fbs.iter_mut().enumerate() {
                    fb[lane] = staged_meas.f_b[axis];
                }
            }
        }
        if !any {
            return;
        }
        group.predict_lanes(&dts);
        let records = group.update_lanes_masked(&zs, fbs, &times, &active);
        for (lane, record) in records.iter().enumerate() {
            let Some(update) = record else { continue };
            let s = base + lane;
            let slot = &mut slots[s];
            slot.stats.updates += 1;
            if update.exceeds_three_sigma() {
                slot.stats.exceeded += 1;
            }
            if update.accepted && update.time_s >= 0.5 * slot.duration_s {
                let e = group.angles(lane).error_to(&slot.truth);
                slot.rms
                    .push([rad_to_deg(e.roll), rad_to_deg(e.pitch), rad_to_deg(e.yaw)]);
            }
            if let Some(monitor) = &mut slot.monitor {
                if let Some(retune) = monitor.observe(update) {
                    group.set_measurement_sigma(lane, retune.new_sigma);
                    slot.retunes += 1;
                }
            }
            if slot.evict_queued {
                continue;
            }
            if policy.evict_nonfinite {
                let a = group.angles(lane);
                if !(a.roll.is_finite() && a.pitch.is_finite() && a.yaw.is_finite()) {
                    slot.evict_queued = true;
                    pending_evict.push((s, EvictReason::Diverged));
                    continue;
                }
            }
            if let Some(max) = policy.max_retunes {
                if slot.retunes > max {
                    slot.evict_queued = true;
                    pending_evict.push((s, EvictReason::MonitorFault));
                }
            }
        }
    }

    /// Marks a slot for eviction (idempotent).
    pub(crate) fn queue_eviction(&mut self, slot: usize, reason: EvictReason) {
        if !self.slots[slot].evict_queued {
            self.slots[slot].evict_queued = true;
            self.pending_evict.push((slot, reason));
        }
    }

    /// Applies every queued eviction shard-locally: summarizes the
    /// leaving vehicle, swap-removes its slot, migrates the last
    /// vehicle's lane state into the hole bit-for-bit and logs each
    /// move into the shard's record buffer (the fleet drains it on the
    /// epoch barrier via [`Shard::drain_records`]). Processes highest
    /// slots first so queued indices stay valid as the dense prefix
    /// shrinks. Runs inside the worker's epoch task — the control
    /// plane it needs (directory, eviction log) is touched only at
    /// drain time, on the barrier.
    pub(crate) fn apply_evictions(&mut self) {
        if self.pending_evict.is_empty() {
            return;
        }
        self.pending_evict
            .sort_unstable_by_key(|&(slot, _)| std::cmp::Reverse(slot));
        let mut pending = std::mem::take(&mut self.pending_evict);
        for (s, reason) in pending.drain(..) {
            let summary = self.summary_of(s);
            let last = self.slots.len() - 1;
            let state = self.slots.swap_remove(s);
            let moved = if s != last {
                let snapshot = self.groups[last / L].export_lane(last % L);
                self.groups[s / L].import_lane(s % L, &snapshot);
                Some((self.slots[s].id, s as u32))
            } else {
                None
            };
            // Park the vacated lane on benign fresh-filter values; it
            // is masked until the slot is reoccupied.
            self.groups[last / L].reset_lane(last % L);
            self.records.push(EvictionRecord {
                id: state.id,
                scenario: state.scenario,
                reason,
                summary,
                moved,
            });
        }
        // Hand the drained buffer's capacity back.
        self.pending_evict = pending;
    }

    pub(crate) fn has_records(&self) -> bool {
        !self.records.is_empty()
    }

    /// Hands the epoch's eviction records to the fleet, in application
    /// order, keeping the buffer's capacity.
    pub(crate) fn drain_records(&mut self, mut on_evict: impl FnMut(EvictionRecord)) {
        for record in self.records.drain(..) {
            on_evict(record);
        }
    }

    /// One vehicle's report-shaped summary, as of now.
    pub(crate) fn summary_of(&self, s: usize) -> VehicleSummary
    where
        A: Clone,
    {
        let slot = &self.slots[s];
        let (g, lane) = (s / L, s % L);
        let group = &self.groups[g];
        let estimate = group.estimate(lane);
        let e = estimate.angles.error_to(&slot.truth);
        let final_worst = [e.roll, e.pitch, e.yaw]
            .iter()
            .fold(0.0_f64, |m, v| m.max(rad_to_deg(*v).abs()));
        VehicleSummary {
            truth: slot.truth,
            estimate,
            error_rms_deg: slot.rms.rms_deg(),
            final_worst_error_deg: final_worst,
            exceed_rate: exceed_rate(&slot.stats),
            retune_count: slot.retunes as usize,
            // Lanes share one substrate context; saturations cannot be
            // attributed per vehicle.
            saturations: 0,
            stream: slot.source.stream_stats(),
            // Lane vehicles run one static substrate for life.
            substrate_switches: 0,
        }
    }

    pub(crate) fn estimate_of(&self, s: usize) -> MisalignmentEstimate
    where
        A: Clone,
    {
        self.groups[s / L].estimate(s % L)
    }

    pub(crate) fn vehicle_stats_of(&self, s: usize) -> VehicleStats {
        self.slots[s].stats
    }

    pub(crate) fn measurement_sigma_of(&self, s: usize) -> f64 {
        self.groups[s / L].measurement_sigma(s % L)
    }

    pub(crate) fn retunes_of(&self, s: usize) -> u64 {
        self.slots[s].retunes
    }

    pub(crate) fn local_time_of(&self, s: usize) -> f64 {
        self.slots[s].clock
    }

    pub(crate) fn ingress_stats(&self) -> super::ingress::IngressStats {
        let mut stats = self.queues[0].stats;
        stats.merge(&self.queues[1].stats);
        stats
    }

    /// Sums this shard's per-vehicle counters.
    pub(crate) fn fold_stats(
        &self,
        events: &mut u64,
        updates: &mut u64,
        exceeded: &mut u64,
        retunes: &mut u64,
        dropped_no_imu: &mut u64,
    ) {
        for slot in &self.slots {
            *events += slot.stats.events;
            *updates += slot.stats.updates;
            *exceeded += slot.stats.exceeded;
            *retunes += slot.retunes;
            *dropped_no_imu += slot.stats.dropped_no_imu;
        }
    }
}

/// The session layer's exceed-rate convention: 0 when no updates ran.
fn exceed_rate(stats: &VehicleStats) -> f64 {
    if stats.updates == 0 {
        0.0
    } else {
        stats.exceeded as f64 / stats.updates as f64
    }
}

/// Arena-resident bytes per vehicle: its slot record, its share of a
/// lane group and its staging cell. Excludes the boxed per-vehicle
/// source front end (scenario-dependent) and the shard-shared ingress
/// queue.
pub(crate) fn arena_bytes_per_vehicle<A: LaneSpec<L>, const L: usize>() -> usize {
    std::mem::size_of::<SlotState<A>>()
        + std::mem::size_of::<LaneIekf<A, L>>() / L
        + std::mem::size_of::<Option<StagedMeas<A>>>()
}
