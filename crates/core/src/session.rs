//! Streaming fusion sessions: one composable event loop for every
//! workload in the crate.
//!
//! The paper's demonstrator is a *streaming* system — asynchronous
//! DMU/ACC events flowing through a reconfigurable fusion core. This
//! module owns that event loop once, split into three pluggable roles:
//!
//! * [`SensorSource`] — produces timestamped [`SensorEvent`]s:
//!   trajectory-driven synthetic instruments ([`SyntheticSource`]),
//!   the full CAN/UART front end of Figure 2 ([`CommsChainSource`]),
//!   or replay of captured serial bytes ([`UartReplaySource`]);
//! * [`FusionBackend`] — consumes events and maintains the estimate:
//!   the production 5-state IEKF over any [`Arith`] number system
//!   ([`GenericBoresightEstimator`], [`BoresightEstimator`] on `f64`)
//!   or a multi-sensor [`crate::lanes::LaneBank`];
//! * [`EventSink`] — observes the stream: trace recorders, retune
//!   logs, the Sabre publish block, video-correction hooks.
//!
//! A [`FusionSession`] wires one of each together and exposes
//! *incremental* control — [`FusionSession::step`] advances the
//! session by a caller-chosen time slice, so any number of sessions
//! (different scenarios, different arithmetic backends) can be batched
//! or interleaved by a caller; [`SessionGroup`] does exactly that.
//! [`FusionSession::run_to_end`] is the batch case. Scenarios reach
//! this module through [`crate::spec::ScenarioSpec`], which lowers to a
//! source, a backend and a trace recorder
//! ([`crate::spec::ScenarioSpec::into_session`]); `system::run_system`
//! is a session over the comms-chain source.
//!
//! # Threading and allocation
//!
//! Sessions own everything they touch — sources hold their trajectory
//! as an [`Arc`] (see [`IntoSharedTrajectory`]), and every source,
//! backend and sink is `Send` — so a whole `FusionSession` can be
//! built on one thread and run on another, which is what the parallel
//! sweep executor ([`crate::spec::ScenarioSuite::run_parallel`], built
//! on [`crate::exec`]) does per scenario × substrate cell. Sinks that
//! must be read back after the run are attached as `Arc<Mutex<S>>`.
//!
//! The steady-state event path is allocation-free: the per-step event
//! buffer, the comms-chain byte buffers and the reconstruction decode
//! buffers are all pooled and reused, trace recorders are pre-sized
//! from the scenario duration, and retunes flow through a cursor
//! ([`FusionBackend::for_each_retune_since`]) instead of freshly
//! allocated `Vec`s (pinned by the allocation-audit integration test).
//!
//! ```
//! use boresight::estimator::EstimatorConfig;
//! use boresight::session::FusionSession;
//! use boresight::spec::ScenarioSpec;
//! use mathx::EulerAngles;
//!
//! let spec = ScenarioSpec::named("tilt-table")
//!     .with_truth(EulerAngles::from_degrees(2.0, -3.0, 1.5))
//!     .with_duration(30.0);
//! let mut session = FusionSession::builder()
//!     .source_boxed(spec.into_source(spec.lower_trajectory()))
//!     .estimator(EstimatorConfig::paper_static())
//!     .truth(spec.truth)
//!     .record_traces(spec.trace_decimation)
//!     .build();
//! while !session.is_finished() {
//!     session.step(1.0); // one simulated second at a time
//! }
//! assert!(session.into_result().max_error_deg() < 0.5);
//! ```

use crate::arith::Arith;
use crate::estimator::{
    BoresightEstimator, EstimatorConfig, GenericBoresightEstimator, MisalignmentEstimate,
};
use crate::filter::KalmanUpdate;
use crate::monitor::Retune;
use crate::scenario::{EstimatePoint, ResidualPoint, RunResult, ScenarioConfig};
use comms::{
    AdxlPacket, BridgeEncoder, DmuCanCodec, FaultInjector, Reconstructor, SensorMessage,
    StreamStats, UartConfig, UartLink,
};
use mathx::{EulerAngles, GaussianSampler, Vec2, Vec3};
use rand::rngs::StdRng;
use sensors::{Adxl202, Adxl202Config, Dmu, DmuConfig, DmuSample, Mounting};
use std::any::Any;
use std::sync::{Arc, Mutex};
use vehicle::{RoadVibration, Trajectory, VibrationConfig};

/// Comparison slack when deciding whether an event at time `t` falls
/// inside a step ending at `t_to` (guards against `i * dt` round-off).
/// Shared with [`crate::replay::ReplaySource`], whose head-gated poll
/// must make the identical in-window decisions.
pub(crate) const TIME_EPS: f64 = 1e-9;

/// Conversion into the shared, owned trajectory handle sessions carry.
///
/// Sources used to borrow `&'a dyn Trajectory`, which pinned a session
/// to the stack frame that lowered the trajectory and kept it from
/// crossing threads. They now hold `Arc<dyn Trajectory>`; this trait
/// keeps every existing call shape working:
///
/// * a concrete trajectory by value (`TiltTable`, `DriveProfile`,
///   [`crate::spec::ScenarioTrajectory`]) is moved into a fresh `Arc`;
/// * `&T` of a cloneable trajectory (the pre-refactor `&table` call
///   sites) is cloned into a fresh `Arc`;
/// * an `Arc<dyn Trajectory>` (or a reference to one) is shared as-is —
///   the path sweep runners use so every substrate session of one
///   scenario reads the same lowered trajectory. Custom `Trajectory`
///   implementations come in through this door: `Arc::new(custom)`.
///
/// (Implemented per concrete trajectory type rather than blanket over
/// `T: Trajectory` — coherence cannot prove a blanket value impl and
/// the `&T` convenience impl disjoint.)
pub trait IntoSharedTrajectory {
    /// The `Arc` the session's source will own.
    fn into_shared(self) -> Arc<dyn Trajectory>;
}

/// Implements the conversion for a concrete trajectory type, by value
/// and by (cloning) reference. Crate-internal: the expansion names the
/// `vehicle` crate directly, which downstream crates need not depend
/// on — external trajectories come in as `Arc<dyn Trajectory>`.
macro_rules! impl_into_shared_trajectory {
    ($($t:ty),+ $(,)?) => {$(
        impl $crate::session::IntoSharedTrajectory for $t {
            fn into_shared(self) -> std::sync::Arc<dyn vehicle::Trajectory> {
                std::sync::Arc::new(self)
            }
        }

        impl $crate::session::IntoSharedTrajectory for &$t {
            fn into_shared(self) -> std::sync::Arc<dyn vehicle::Trajectory> {
                std::sync::Arc::new(self.clone())
            }
        }
    )+};
}

pub(crate) use impl_into_shared_trajectory;

impl_into_shared_trajectory!(vehicle::TiltTable, vehicle::DriveProfile);

impl IntoSharedTrajectory for Arc<dyn Trajectory> {
    fn into_shared(self) -> Arc<dyn Trajectory> {
        self
    }
}

impl IntoSharedTrajectory for &Arc<dyn Trajectory> {
    fn into_shared(self) -> Arc<dyn Trajectory> {
        Arc::clone(self)
    }
}

impl IntoSharedTrajectory for Box<dyn Trajectory> {
    fn into_shared(self) -> Arc<dyn Trajectory> {
        Arc::from(self)
    }
}

/// One timestamped observation flowing through a session.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SensorEvent {
    /// A vehicle-fixed IMU sample (specific force + angular rate).
    Dmu(DmuSample),
    /// A two-axis accelerometer measurement from one sensor channel.
    Acc {
        /// Which sensor channel produced it (0 for single-sensor rigs).
        sensor: usize,
        /// Measurement time, seconds.
        time_s: f64,
        /// Sensed x/y specific force, m/s^2.
        z: Vec2,
    },
}

impl SensorEvent {
    /// The event's timestamp, seconds.
    pub fn time_s(&self) -> f64 {
        match self {
            SensorEvent::Dmu(s) => s.time_s,
            SensorEvent::Acc { time_s, .. } => *time_s,
        }
    }
}

/// A producer of timestamped sensor events.
///
/// Sources own their randomness (each carries its own seeded RNG), so
/// a session's entire event stream is a pure function of its
/// configuration — the property the determinism tests pin down. They
/// are also `Send` (owning their trajectory and RNG), so a whole
/// session can run on a worker thread.
pub trait SensorSource: Send {
    /// The source's natural step, seconds (the default slice used by
    /// [`FusionSession::run_for`]).
    fn dt(&self) -> f64;

    /// Total duration of the stream, seconds, if finite.
    fn duration_s(&self) -> Option<f64> {
        None
    }

    /// Appends every event with timestamp `<= t_to` that has not been
    /// produced yet. Implementations must emit events in time order.
    fn poll(&mut self, t_to: f64, out: &mut Vec<SensorEvent>);

    /// `true` once the source will never produce another event.
    fn is_exhausted(&self) -> bool {
        false
    }

    /// Serial-link statistics, for sources fed through a comms chain.
    fn stream_stats(&self) -> Option<StreamStats> {
        None
    }

    /// Starts a fresh stats window: zeroes the per-window fault
    /// counters surfaced through [`StreamStats`] (the cumulative
    /// totals are untouched). A no-op for sources without fault
    /// injection. Health monitors (the fault-storm oracle) call this
    /// at each observation-window boundary and read the deltas off
    /// the next [`SensorSource::stream_stats`] snapshot.
    fn reset_stats_window(&mut self) {}
}

/// A consumer of sensor events that maintains a misalignment estimate.
///
/// Backends are `'static + Send`: `'static` so sessions can hand their
/// backend back out by type ([`FusionSession::backend_as`]), `Send` so
/// sessions cross threads.
pub trait FusionBackend: Any + Send {
    /// Ingests a vehicle-fixed IMU sample.
    fn ingest_dmu(&mut self, sample: &DmuSample);

    /// Ingests one sensor channel's ACC measurement. Returns the filter
    /// update record, or `None` if the backend was not ready (no IMU
    /// sample yet).
    fn ingest_acc(&mut self, sensor: usize, time_s: f64, z: Vec2) -> Option<KalmanUpdate>;

    /// The current (primary-sensor) estimate.
    fn current_estimate(&self) -> MisalignmentEstimate;

    /// The estimate for one sensor channel.
    fn estimate_for(&self, sensor: usize) -> MisalignmentEstimate {
        assert_eq!(sensor, 0, "single-sensor backend");
        self.current_estimate()
    }

    /// Number of sensor channels this backend fuses.
    fn sensor_count(&self) -> usize {
        1
    }

    /// The measurement sigma currently in force, m/s^2 (for
    /// multi-sensor backends: the primary sensor's).
    fn measurement_sigma(&self) -> f64;

    /// The primary sensor's adaptive retunes so far (empty if not
    /// monitored).
    fn retunes(&self) -> &[Retune] {
        &[]
    }

    /// Total adaptive retunes fired so far across every sensor.
    fn retune_count(&self) -> usize {
        self.retunes().len()
    }

    /// Visits the retunes after the first `from`, in firing order
    /// across all sensors. The session calls this with a cursor only
    /// when [`Self::retune_count`] grows — i.e. when a retune actually
    /// fired, never per event — so the steady-state event path stays
    /// allocation-free. The default reads straight off the
    /// [`Self::retunes`] slice; the multi-sensor
    /// [`crate::lanes::LaneBank`] reads its merged cross-lane log.
    fn for_each_retune_since(&self, from: usize, visit: &mut dyn FnMut(&Retune)) {
        if let Some(fresh) = self.retunes().get(from..) {
            for retune in fresh {
                visit(retune);
            }
        }
    }

    /// Substrate range-saturation events so far (fixed-point
    /// overflow). Default 0 for backends whose arithmetic cannot
    /// saturate; estimator backends report their substrate's counter,
    /// so sessions and fleets surface it without poking filter
    /// internals.
    fn saturations(&self) -> u64 {
        0
    }

    /// Short human-readable backend name (shows up in reports).
    fn label(&self) -> &'static str;
}

/// The full 5-state IEKF over *any* arithmetic substrate as a session
/// backend — the reference `f64` path, the paper's Softfloat
/// configuration and the Q16.16 enhancement are all one
/// `SessionBuilder::iekf` call apart.
impl<A: Arith + Clone + 'static> FusionBackend for GenericBoresightEstimator<A> {
    fn ingest_dmu(&mut self, sample: &DmuSample) {
        self.on_dmu(sample);
    }

    fn ingest_acc(&mut self, sensor: usize, time_s: f64, z: Vec2) -> Option<KalmanUpdate> {
        assert_eq!(sensor, 0, "BoresightEstimator fuses a single sensor");
        self.on_acc(time_s, z)
    }

    fn current_estimate(&self) -> MisalignmentEstimate {
        self.estimate()
    }

    fn measurement_sigma(&self) -> f64 {
        self.current_measurement_sigma()
    }

    fn retunes(&self) -> &[Retune] {
        GenericBoresightEstimator::retunes(self)
    }

    fn saturations(&self) -> u64 {
        self.filter().arith().saturations()
    }

    fn label(&self) -> &'static str {
        self.filter().arith().iekf_label()
    }
}

/// An observer of the event stream.
///
/// All methods default to no-ops so sinks implement only what they
/// need. Sinks are `Send` (sessions cross threads); sinks that must be
/// read back after the run are attached as `Arc<Mutex<S>>` (which also
/// implements `EventSink`), keeping a handle on the caller's side.
pub trait EventSink: Send {
    /// Called for every raw event before the backend ingests it.
    fn on_event(&mut self, event: &SensorEvent) {
        let _ = event;
    }

    /// Called after the backend accepted a measurement update.
    fn on_update(&mut self, update: &KalmanUpdate, estimate: &MisalignmentEstimate) {
        let _ = (update, estimate);
    }

    /// Called when the backend's adaptive monitor fired a retune.
    fn on_retune(&mut self, retune: &Retune) {
        let _ = retune;
    }

    /// Called once per [`FusionSession::step`] with the session clock,
    /// after the window's events have been dispatched — the hook for
    /// wall-clock-scheduled consumers (e.g. periodic publishing),
    /// which must keep firing even through a sensor-stream drought.
    fn on_time(&mut self, time_s: f64, estimate: &MisalignmentEstimate) {
        let _ = (time_s, estimate);
    }

    /// Called exactly once, when the source is exhausted.
    fn on_finish(&mut self, estimate: &MisalignmentEstimate) {
        let _ = estimate;
    }
}

/// The shared-handle sink: attach the clone, keep the original to read
/// the sink back after the run. Uncontended in practice (a session
/// runs on one thread at a time), so the lock is a handful of cycles.
impl<S: EventSink> EventSink for Arc<Mutex<S>> {
    fn on_event(&mut self, event: &SensorEvent) {
        self.lock().expect("sink lock").on_event(event);
    }

    fn on_update(&mut self, update: &KalmanUpdate, estimate: &MisalignmentEstimate) {
        self.lock().expect("sink lock").on_update(update, estimate);
    }

    fn on_retune(&mut self, retune: &Retune) {
        self.lock().expect("sink lock").on_retune(retune);
    }

    fn on_time(&mut self, time_s: f64, estimate: &MisalignmentEstimate) {
        self.lock().expect("sink lock").on_time(time_s, estimate);
    }

    fn on_finish(&mut self, estimate: &MisalignmentEstimate) {
        self.lock().expect("sink lock").on_finish(estimate);
    }
}

/// Collects the adaptive retune history as it streams by.
#[derive(Clone, Debug, Default)]
pub struct RetuneLog {
    /// Retunes observed, in firing order.
    pub retunes: Vec<Retune>,
}

impl EventSink for RetuneLog {
    fn on_retune(&mut self, retune: &Retune) {
        self.retunes.push(*retune);
    }
}

/// Keeps the most recent estimate, e.g. to drive a video-correction
/// stage (the paper's control-block consumer) outside the session.
#[derive(Clone, Debug, Default)]
pub struct LatestEstimateSink {
    /// The most recent estimate, if any update has been accepted.
    pub latest: Option<MisalignmentEstimate>,
}

impl EventSink for LatestEstimateSink {
    fn on_update(&mut self, _update: &KalmanUpdate, estimate: &MisalignmentEstimate) {
        self.latest = Some(*estimate);
    }
}

/// Records the Figure-8 / Figure-9 traces, decimated by update count.
#[derive(Clone, Debug)]
struct TraceRecorder {
    decimation: usize,
    seen: u64,
    residuals: Vec<ResidualPoint>,
    estimates: Vec<EstimatePoint>,
}

impl TraceRecorder {
    /// A recorder with both trace buffers pre-sized for
    /// `expected_updates` accepted updates — sessions built from a
    /// scenario know their duration and sample rate, so the steady
    /// state never regrows these `Vec`s.
    fn with_capacity(decimation: usize, expected_updates: usize) -> Self {
        let decimation = decimation.max(1);
        let points = expected_updates / decimation + 2;
        Self {
            decimation,
            seen: 0,
            residuals: Vec::with_capacity(points),
            estimates: Vec::with_capacity(points),
        }
    }

    fn observe(&mut self, update: &KalmanUpdate, estimate: &MisalignmentEstimate) {
        if self.seen.is_multiple_of(self.decimation as u64) {
            self.residuals.push(ResidualPoint {
                time_s: update.time_s,
                residual_x: update.innovation[0],
                three_sigma_x: 3.0 * update.innovation_sigma[0],
                residual_y: update.innovation[1],
                three_sigma_y: 3.0 * update.innovation_sigma[1],
            });
            self.estimates.push(EstimatePoint {
                time_s: update.time_s,
                angles_deg: estimate.angles.to_degrees(),
                three_sigma_deg: estimate.three_sigma_deg(),
            });
        }
        self.seen += 1;
    }
}

/// Byte-level fault rates applied to both serial links of a
/// [`CommsChainSource`] — the [`comms::FaultInjector`] knobs (bit
/// flips, drops, bursts), set per scenario through
/// [`crate::spec::ChannelSpec::Comms`].
///
/// The default is a clean channel, which injects nothing and draws no
/// randomness, so fault-free runs stay bit-identical to the
/// pre-fault-wiring event stream.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LinkFaultConfig {
    /// Per-byte probability of a single-bit flip.
    pub bit_flip_prob: f64,
    /// Per-byte probability of the byte being silently dropped.
    pub drop_prob: f64,
    /// Per-byte probability of a burst starting (the next `burst_len`
    /// bytes are replaced with noise).
    pub burst_prob: f64,
    /// Burst length, bytes.
    pub burst_len: usize,
}

impl LinkFaultConfig {
    /// A clean channel (no faults, no RNG draws).
    pub fn clean() -> Self {
        Self::default()
    }

    /// `true` when no fault can ever fire.
    pub fn is_clean(&self) -> bool {
        self.bit_flip_prob == 0.0 && self.drop_prob == 0.0 && self.burst_prob == 0.0
    }

    /// Builds the injector this configuration describes.
    pub fn injector(&self) -> FaultInjector {
        FaultInjector::new(self.bit_flip_prob, self.drop_prob)
            .with_bursts(self.burst_prob, self.burst_len)
    }
}

/// One ACC channel of a [`SyntheticSource`].
#[derive(Clone, Debug)]
pub struct ChannelConfig {
    /// True mounting misalignment of this sensor.
    pub misalignment: EulerAngles,
    /// Lever arm from the IMU to this sensor, body axes, metres.
    pub lever_arm: Vec3,
    /// True x/y biases, m/s^2.
    pub bias: Vec2,
    /// White-noise sigma per sample, m/s^2.
    pub noise_sigma: f64,
    /// Mount-flexure vibration sensed only by this channel, as a
    /// fraction of the common vibration intensity.
    pub differential_vibration: f64,
    /// The vibration process driving the differential term.
    pub vibration: VibrationConfig,
}

impl ChannelConfig {
    /// An ideal channel (no misalignment, bias, noise or flexure).
    pub fn ideal() -> Self {
        Self {
            misalignment: EulerAngles::zero(),
            lever_arm: Vec3::zeros(),
            bias: Vec2::zeros(),
            noise_sigma: 0.0,
            differential_vibration: 0.0,
            vibration: VibrationConfig::none(),
        }
    }

    /// The channel described by a [`ScenarioConfig`].
    pub(crate) fn from_scenario(config: &ScenarioConfig) -> Self {
        Self {
            misalignment: config.true_misalignment,
            lever_arm: config.estimator.lever_arm,
            bias: config.true_acc_bias,
            noise_sigma: config.acc_noise_sigma,
            differential_vibration: config.differential_vibration,
            vibration: config.vibration,
        }
    }
}

struct Channel {
    mounting: Mounting,
    bias: Vec2,
    noise_sigma: f64,
    differential_vibration: f64,
    diff_vib: RoadVibration,
    gauss: GaussianSampler,
}

impl Channel {
    fn new(config: &ChannelConfig) -> Self {
        Self {
            mounting: Mounting::new(config.misalignment, config.lever_arm),
            bias: config.bias,
            noise_sigma: config.noise_sigma,
            differential_vibration: config.differential_vibration,
            diff_vib: RoadVibration::new(config.vibration),
            gauss: GaussianSampler::new(),
        }
    }
}

/// Trajectory-driven synthetic instruments: the DMU model plus any
/// number of ACC channels, with common (rigid-body) and differential
/// (mount-flexure) road vibration — the source behind ideal-channel
/// scenarios and the multi-sensor workloads.
pub struct SyntheticSource {
    trajectory: Arc<dyn Trajectory>,
    rng: StdRng,
    dmu: Dmu,
    common_vib: RoadVibration,
    channels: Vec<Channel>,
    acc_dt: f64,
    dmu_every: usize,
    steps: usize,
    next_step: usize,
}

impl SyntheticSource {
    /// Creates a source with no ACC channels yet (add them with
    /// [`SyntheticSource::with_channel`]).
    pub fn new(
        trajectory: impl IntoSharedTrajectory,
        dmu: DmuConfig,
        vibration: VibrationConfig,
        acc_rate_hz: f64,
        duration_s: f64,
        seed: u64,
    ) -> Self {
        let dmu = Dmu::new(dmu);
        let acc_dt = 1.0 / acc_rate_hz;
        Self {
            trajectory: trajectory.into_shared(),
            rng: mathx::rng::seeded_rng(seed),
            dmu_every: (dmu.dt() / acc_dt).round().max(1.0) as usize,
            dmu,
            common_vib: RoadVibration::new(vibration),
            channels: Vec::new(),
            acc_dt,
            steps: (duration_s / acc_dt).round() as usize,
            next_step: 0,
        }
    }

    /// Adds one ACC channel; channels are polled in insertion order and
    /// numbered from 0.
    pub fn with_channel(mut self, config: &ChannelConfig) -> Self {
        self.channels.push(Channel::new(config));
        self
    }

    /// The single-channel source described by a [`ScenarioConfig`] —
    /// what [`crate::spec::ScenarioSpec::into_source`] lowers an ideal
    /// channel to.
    pub(crate) fn from_scenario(
        trajectory: impl IntoSharedTrajectory,
        config: &ScenarioConfig,
    ) -> Self {
        Self::new(
            trajectory,
            config.dmu,
            config.vibration,
            config.acc_rate_hz,
            config.duration_s,
            config.seed,
        )
        .with_channel(&ChannelConfig::from_scenario(config))
    }

    fn emit_step(&mut self, out: &mut Vec<SensorEvent>) {
        let i = self.next_step;
        self.next_step += 1;
        let t = i as f64 * self.acc_dt;
        let state = self.trajectory.sample(t);
        let speed = state.speed();
        let f_true = state.specific_force_body();
        let w_true = state.angular_rate_b;
        // Common rigid-body vibration, sensed coherently by the IMU and
        // every ACC channel.
        let (df, dw) = self.common_vib.step(speed, &mut self.rng);
        let f_b = f_true + df;
        let w_b = w_true + dw;

        if i.is_multiple_of(self.dmu_every) {
            let sample = self.dmu.sample(f_b, w_b, &mut self.rng);
            out.push(SensorEvent::Dmu(sample));
        }

        for (sensor, ch) in self.channels.iter_mut().enumerate() {
            let f_sensor = ch.mounting.body_to_sensor(f_b, w_b, state.angular_accel_b);
            let (dfd, _) = ch.diff_vib.step(speed, &mut self.rng);
            let z = Vec2::new([
                f_sensor[0]
                    + ch.differential_vibration * dfd[0]
                    + ch.bias[0]
                    + ch.gauss.sample_scaled(&mut self.rng, 0.0, ch.noise_sigma),
                f_sensor[1]
                    + ch.differential_vibration * dfd[1]
                    + ch.bias[1]
                    + ch.gauss.sample_scaled(&mut self.rng, 0.0, ch.noise_sigma),
            ]);
            out.push(SensorEvent::Acc {
                sensor,
                time_s: t,
                z,
            });
        }
    }
}

impl SensorSource for SyntheticSource {
    fn dt(&self) -> f64 {
        self.acc_dt
    }

    fn duration_s(&self) -> Option<f64> {
        Some(self.steps as f64 * self.acc_dt)
    }

    fn poll(&mut self, t_to: f64, out: &mut Vec<SensorEvent>) {
        while self.next_step < self.steps && self.next_step as f64 * self.acc_dt <= t_to + TIME_EPS
        {
            self.emit_step(out);
        }
    }

    fn is_exhausted(&self) -> bool {
        self.next_step >= self.steps
    }
}

/// The full Figure-2 front end as a source: instruments sampled from a
/// trajectory, DMU packed onto CAN frames through the RS-232 bridge,
/// the ADXL202 eval packet stream, both UARTs at line rate, and the
/// reconstruction stage — events are what survives the serial chain.
pub struct CommsChainSource {
    trajectory: Arc<dyn Trajectory>,
    rng: StdRng,
    gauss: GaussianSampler,
    dmu: Dmu,
    acc: Adxl202,
    mounting: Mounting,
    common_vib: RoadVibration,
    diff_vib: RoadVibration,
    bridge_enc: BridgeEncoder,
    dmu_link: UartLink,
    acc_link: UartLink,
    dmu_fault: FaultInjector,
    acc_fault: FaultInjector,
    faults_active: bool,
    recon: Reconstructor,
    true_acc_bias: Vec2,
    differential_vibration: f64,
    acc_dt: f64,
    dmu_every: usize,
    steps: usize,
    next_step: usize,
    /// Reused per-step byte buffers (encode, line delivery, fault
    /// injection) — the comms chain heap-allocates nothing per sample
    /// once warmed up.
    enc_buf: Vec<u8>,
    link_buf: Vec<u8>,
    fault_buf: Vec<u8>,
}

impl CommsChainSource {
    /// Builds the chain for a scenario (instrument configs, truth,
    /// vibration and seed all come from `config`).
    pub(crate) fn from_scenario(
        trajectory: impl IntoSharedTrajectory,
        config: &ScenarioConfig,
    ) -> Self {
        let dmu = Dmu::new(config.dmu);
        let mut acc_cfg = Adxl202Config::ideal();
        acc_cfg.sample_rate_hz = config.acc_rate_hz;
        acc_cfg.channel.error.noise_std = config.acc_noise_sigma;
        acc_cfg.timer_resolution_us = 0.5;
        let acc_dt = 1.0 / config.acc_rate_hz;
        Self {
            trajectory: trajectory.into_shared(),
            rng: mathx::rng::seeded_rng(config.seed),
            gauss: GaussianSampler::new(),
            dmu_every: (dmu.dt() / acc_dt).round().max(1.0) as usize,
            recon: Reconstructor::new(1.0 / dmu.dt(), config.acc_rate_hz),
            dmu,
            acc: Adxl202::new(acc_cfg),
            mounting: Mounting::new(config.true_misalignment, config.estimator.lever_arm),
            common_vib: RoadVibration::new(config.vibration),
            diff_vib: RoadVibration::new(config.vibration),
            bridge_enc: BridgeEncoder::new(),
            dmu_link: UartLink::new(UartConfig::baud_38400()),
            acc_link: UartLink::new(UartConfig::baud_19200()),
            dmu_fault: config.link_faults.injector(),
            acc_fault: config.link_faults.injector(),
            faults_active: !config.link_faults.is_clean(),
            true_acc_bias: config.true_acc_bias,
            differential_vibration: config.differential_vibration,
            acc_dt,
            steps: (config.duration_s / acc_dt).round() as usize,
            next_step: 0,
            enc_buf: Vec::new(),
            link_buf: Vec::new(),
            fault_buf: Vec::new(),
        }
    }

    fn emit_step(&mut self, out: &mut Vec<SensorEvent>) {
        let i = self.next_step;
        self.next_step += 1;
        let t = i as f64 * self.acc_dt;
        let state = self.trajectory.sample(t);
        let speed = state.speed();
        let (df, dw) = self.common_vib.step(speed, &mut self.rng);
        let f_b = state.specific_force_body() + df;
        let w_b = state.angular_rate_b + dw;

        // DMU -> CAN -> bridge -> UART.
        if i.is_multiple_of(self.dmu_every) {
            let sample = self.dmu.sample(f_b, w_b, &mut self.rng);
            for frame in DmuCanCodec::encode(&sample) {
                self.bridge_enc.encode_into(&frame, &mut self.enc_buf);
                self.dmu_link.send(&self.enc_buf);
            }
        }
        // ACC -> eval packet -> UART (instrument noise lives in the
        // ADXL202 error model, not here).
        let f_sensor = self
            .mounting
            .body_to_sensor(f_b, w_b, state.angular_accel_b);
        let (dfd, _) = self.diff_vib.step(speed, &mut self.rng);
        let input = Vec2::new([
            f_sensor[0]
                + self.differential_vibration * dfd[0]
                + self.true_acc_bias[0]
                + self.gauss.sample_scaled(&mut self.rng, 0.0, 0.0),
            f_sensor[1] + self.differential_vibration * dfd[1] + self.true_acc_bias[1],
        ]);
        let duty = self.acc.sample(input, &mut self.rng);
        self.acc_link
            .send(&AdxlPacket::from_sample(&duty).to_bytes());

        // Serial delivery at line rate, wire faults, then
        // reconstruction — all through the pooled byte buffers. A clean
        // channel skips the injectors entirely (they would pass the
        // bytes through untouched and draw no randomness anyway), so
        // the fault-free stream is bit-identical to the pre-fault-wiring
        // chain and pays no per-poll copy.
        self.dmu_link.poll_into(self.acc_dt, &mut self.link_buf);
        if !self.link_buf.is_empty() {
            if self.faults_active {
                self.dmu_fault
                    .apply_into(&self.link_buf, &mut self.rng, &mut self.fault_buf);
                self.recon.push_dmu_bytes(&self.fault_buf);
            } else {
                self.recon.push_dmu_bytes(&self.link_buf);
            }
        }
        self.acc_link.poll_into(self.acc_dt, &mut self.link_buf);
        if !self.link_buf.is_empty() {
            if self.faults_active {
                self.acc_fault
                    .apply_into(&self.link_buf, &mut self.rng, &mut self.fault_buf);
                self.recon.push_acc_bytes(&self.fault_buf);
            } else {
                self.recon.push_acc_bytes(&self.link_buf);
            }
        }
        while let Some(msg) = self.recon.pop() {
            out.push(match msg {
                SensorMessage::Dmu(s) => SensorEvent::Dmu(s),
                SensorMessage::Acc(s) => SensorEvent::Acc {
                    sensor: 0,
                    time_s: s.time_s,
                    z: s.decode(),
                },
            });
        }
    }
}

impl SensorSource for CommsChainSource {
    fn dt(&self) -> f64 {
        self.acc_dt
    }

    fn duration_s(&self) -> Option<f64> {
        Some(self.steps as f64 * self.acc_dt)
    }

    fn poll(&mut self, t_to: f64, out: &mut Vec<SensorEvent>) {
        while self.next_step < self.steps && self.next_step as f64 * self.acc_dt <= t_to + TIME_EPS
        {
            self.emit_step(out);
        }
    }

    fn is_exhausted(&self) -> bool {
        self.next_step >= self.steps
    }

    fn stream_stats(&self) -> Option<StreamStats> {
        let mut stats = self.recon.stats();
        stats.fault_bits_flipped = self.dmu_fault.bits_flipped() + self.acc_fault.bits_flipped();
        stats.fault_bytes_dropped = self.dmu_fault.bytes_dropped() + self.acc_fault.bytes_dropped();
        stats.fault_bursts = self.dmu_fault.bursts() + self.acc_fault.bursts();
        stats.window_fault_bits_flipped =
            self.dmu_fault.window_bits_flipped() + self.acc_fault.window_bits_flipped();
        stats.window_fault_bytes_dropped =
            self.dmu_fault.window_bytes_dropped() + self.acc_fault.window_bytes_dropped();
        stats.window_fault_bursts = self.dmu_fault.window_bursts() + self.acc_fault.window_bursts();
        Some(stats)
    }

    fn reset_stats_window(&mut self) {
        self.dmu_fault.reset_window();
        self.acc_fault.reset_window();
    }
}

/// Replays captured serial bytes (DMU-bridge and ACC-eval streams)
/// through the reconstruction stage — fusing recorded drives instead
/// of live instruments.
pub struct UartReplaySource {
    /// `(delivery_time_s, is_dmu, bytes)` in time order.
    chunks: Vec<(f64, bool, Vec<u8>)>,
    recon: Reconstructor,
    acc_dt: f64,
    next_chunk: usize,
}

impl UartReplaySource {
    /// Creates a replay source; rates describe the original streams
    /// (they size the reconstruction timing windows).
    pub fn new(dmu_rate_hz: f64, acc_rate_hz: f64) -> Self {
        Self {
            chunks: Vec::new(),
            recon: Reconstructor::new(dmu_rate_hz, acc_rate_hz),
            acc_dt: 1.0 / acc_rate_hz,
            next_chunk: 0,
        }
    }

    /// Appends a chunk of the DMU-bridge byte stream delivered at `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the last pushed chunk.
    pub fn push_dmu_chunk(&mut self, t: f64, bytes: Vec<u8>) {
        self.push(t, true, bytes);
    }

    /// Appends a chunk of the ACC eval-board byte stream delivered at `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the last pushed chunk.
    pub fn push_acc_chunk(&mut self, t: f64, bytes: Vec<u8>) {
        self.push(t, false, bytes);
    }

    fn push(&mut self, t: f64, is_dmu: bool, bytes: Vec<u8>) {
        if let Some(&(last, _, _)) = self.chunks.last() {
            assert!(t >= last, "replay chunks must be pushed in time order");
        }
        self.chunks.push((t, is_dmu, bytes));
    }
}

impl SensorSource for UartReplaySource {
    fn dt(&self) -> f64 {
        self.acc_dt
    }

    fn duration_s(&self) -> Option<f64> {
        self.chunks.last().map(|&(t, _, _)| t)
    }

    fn poll(&mut self, t_to: f64, out: &mut Vec<SensorEvent>) {
        while let Some((t, is_dmu, bytes)) = self.chunks.get(self.next_chunk) {
            if *t > t_to + TIME_EPS {
                break;
            }
            if *is_dmu {
                self.recon.push_dmu_bytes(bytes);
            } else {
                self.recon.push_acc_bytes(bytes);
            }
            self.next_chunk += 1;
        }
        while let Some(msg) = self.recon.pop() {
            out.push(match msg {
                SensorMessage::Dmu(s) => SensorEvent::Dmu(s),
                SensorMessage::Acc(s) => SensorEvent::Acc {
                    sensor: 0,
                    time_s: s.time_s,
                    z: s.decode(),
                },
            });
        }
    }

    fn is_exhausted(&self) -> bool {
        self.next_chunk >= self.chunks.len()
    }

    fn stream_stats(&self) -> Option<StreamStats> {
        Some(self.recon.stats())
    }
}

/// Aggregate counters a session maintains as the stream flows.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SessionStats {
    /// Raw events dispatched.
    pub events: u64,
    /// Accepted measurement updates.
    pub updates: u64,
    /// Updates whose innovation exceeded its 3-sigma bound.
    pub exceeded: u64,
    /// Substrate range-saturation events, read off the backend
    /// ([`FusionBackend::saturations`]) — 0 for substrates that cannot
    /// saturate.
    pub saturations: u64,
}

impl SessionStats {
    /// Fraction of updates beyond 3 sigma.
    pub fn exceed_rate(&self) -> f64 {
        if self.updates > 0 {
            self.exceeded as f64 / self.updates as f64
        } else {
            0.0
        }
    }
}

/// Builder for [`FusionSession`].
pub struct SessionBuilder {
    source: Option<Box<dyn SensorSource>>,
    backend: Option<Box<dyn FusionBackend>>,
    sinks: Vec<Box<dyn EventSink>>,
    truth: EulerAngles,
    trace_decimation: Option<usize>,
    trace_expected_updates: usize,
}

impl SessionBuilder {
    /// Sets the event source (required).
    pub fn source(mut self, source: impl SensorSource + 'static) -> Self {
        self.source = Some(Box::new(source));
        self
    }

    /// Sets the sensor source from an already boxed trait object (the
    /// form [`crate::spec::ScenarioSpec::into_source`] produces).
    pub fn source_boxed(mut self, source: Box<dyn SensorSource>) -> Self {
        self.source = Some(source);
        self
    }

    /// Sets the fusion backend (defaults to the paper's static-tuned
    /// 5-state estimator).
    pub fn backend(mut self, backend: impl FusionBackend) -> Self {
        self.backend = Some(Box::new(backend));
        self
    }

    /// Convenience: the production 5-state IEKF with `config` (native
    /// `f64`).
    pub fn estimator(self, config: EstimatorConfig) -> Self {
        self.backend(BoresightEstimator::new(config))
    }

    /// Convenience: the identical full 5-state IEKF running over an
    /// arbitrary arithmetic substrate.
    pub fn iekf(self, arith: impl Arith + Clone + 'static, config: EstimatorConfig) -> Self {
        self.backend(GenericBoresightEstimator::with_arith(arith, config))
    }

    /// Attaches an event sink (use `Arc<Mutex<_>>` to keep a handle).
    pub fn sink(mut self, sink: impl EventSink + 'static) -> Self {
        self.sinks.push(Box::new(sink));
        self
    }

    /// Records Figure-8/Figure-9 traces, keeping every `decimation`-th
    /// update.
    pub fn record_traces(mut self, decimation: usize) -> Self {
        self.trace_decimation = Some(decimation);
        self
    }

    /// Like [`SessionBuilder::record_traces`], but pre-sizes the trace
    /// buffers for `expected_updates` accepted updates so the recording
    /// hot path never reallocates (scenario-built sessions pass
    /// `duration x rate` here).
    pub fn record_traces_sized(mut self, decimation: usize, expected_updates: usize) -> Self {
        self.trace_decimation = Some(decimation);
        self.trace_expected_updates = expected_updates;
        self
    }

    /// Injected truth, for error reporting in [`RunResult`].
    pub fn truth(mut self, truth: EulerAngles) -> Self {
        self.truth = truth;
        self
    }

    /// Builds the session.
    ///
    /// # Panics
    ///
    /// Panics if no source was provided.
    pub fn build(self) -> FusionSession {
        let expected_updates = self.trace_expected_updates;
        FusionSession {
            source: self.source.expect("FusionSession needs a source"),
            backend: self.backend.unwrap_or_else(|| {
                Box::new(BoresightEstimator::new(EstimatorConfig::paper_static()))
            }),
            sinks: self.sinks,
            recorder: self
                .trace_decimation
                .map(|d| TraceRecorder::with_capacity(d, expected_updates)),
            truth: self.truth,
            time_s: 0.0,
            stats: SessionStats::default(),
            retunes_dispatched: 0,
            retune_log: Vec::with_capacity(32),
            finished: false,
            scratch: Vec::with_capacity(EVENT_SCRATCH_CAPACITY),
        }
    }
}

/// Initial capacity of the per-step event scratch buffer (a generous
/// bound on the events one natural step produces; the buffer grows
/// once and is then reused for the rest of the run).
const EVENT_SCRATCH_CAPACITY: usize = 64;

/// An incremental fusion run: one source, one backend, any sinks.
///
/// Sessions are stepped by a caller-chosen time slice, so several of
/// them — different scenarios, different [`Arith`] backends — can be
/// interleaved on one thread (see [`SessionGroup`]). Sessions own
/// everything they touch and are `Send`, so whole sessions can also be
/// fanned out across worker threads
/// ([`crate::spec::ScenarioSuite::run_parallel`]).
pub struct FusionSession {
    source: Box<dyn SensorSource>,
    backend: Box<dyn FusionBackend>,
    sinks: Vec<Box<dyn EventSink>>,
    recorder: Option<TraceRecorder>,
    truth: EulerAngles,
    time_s: f64,
    stats: SessionStats,
    retunes_dispatched: usize,
    retune_log: Vec<Retune>,
    finished: bool,
    scratch: Vec<SensorEvent>,
}

impl FusionSession {
    /// Starts building a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder {
            source: None,
            backend: None,
            sinks: Vec::new(),
            truth: EulerAngles::zero(),
            trace_decimation: None,
            trace_expected_updates: 0,
        }
    }

    /// Expected ACC sample count of a scenario — the trace pre-sizing
    /// hint every scenario-built session passes to
    /// [`SessionBuilder::record_traces_sized`].
    pub fn expected_updates(config: &ScenarioConfig) -> usize {
        (config.duration_s * config.acc_rate_hz).round().max(0.0) as usize
    }

    /// Session clock, seconds.
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// The source's natural step, seconds.
    pub fn source_dt(&self) -> f64 {
        self.source.dt()
    }

    /// `true` once every event has been produced and dispatched.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Aggregate stream counters. The saturation counter is read off
    /// the backend at call time, so it is always current.
    pub fn stats(&self) -> SessionStats {
        let mut stats = self.stats;
        stats.saturations = self.backend.saturations();
        stats
    }

    /// The injected truth this session reports errors against.
    pub fn truth(&self) -> EulerAngles {
        self.truth
    }

    /// The backend's short name.
    pub fn backend_label(&self) -> &'static str {
        self.backend.label()
    }

    /// The current estimate.
    pub fn estimate(&self) -> MisalignmentEstimate {
        self.backend.current_estimate()
    }

    /// The estimate for one sensor channel of a multi-sensor backend.
    pub fn estimate_for(&self, sensor: usize) -> MisalignmentEstimate {
        self.backend.estimate_for(sensor)
    }

    /// Adaptive retunes fired so far, across every sensor, in firing
    /// order — a borrow of the session's incrementally maintained log
    /// (no allocation per read).
    pub fn retunes(&self) -> &[Retune] {
        &self.retune_log
    }

    /// Serial-link statistics, if the source runs through a comms chain.
    pub fn stream_stats(&self) -> Option<StreamStats> {
        self.source.stream_stats()
    }

    /// Starts a fresh link-stats window on the source (see
    /// [`SensorSource::reset_stats_window`]): the `window_fault_*`
    /// fields of subsequent [`FusionSession::stream_stats`] snapshots
    /// count from here.
    pub fn begin_stats_window(&mut self) {
        self.source.reset_stats_window();
    }

    /// The backend, by concrete type.
    pub fn backend_as<B: FusionBackend>(&self) -> Option<&B> {
        let backend: &dyn Any = &*self.backend;
        backend.downcast_ref()
    }

    /// The backend, mutably, by concrete type.
    pub fn backend_as_mut<B: FusionBackend>(&mut self) -> Option<&mut B> {
        let backend: &mut dyn Any = &mut *self.backend;
        backend.downcast_mut()
    }

    /// Advances the session clock by `dt` seconds, dispatching every
    /// event the source produces in that window. Returns the number of
    /// events dispatched.
    pub fn step(&mut self, dt: f64) -> usize {
        assert!(dt > 0.0, "step needs a positive time slice");
        self.time_s += dt;
        let mut events = std::mem::take(&mut self.scratch);
        events.clear();
        self.source.poll(self.time_s, &mut events);
        let count = events.len();
        for event in &events {
            self.dispatch(event);
        }
        self.scratch = events;
        // The clock tick fires even when the window carried no events,
        // so wall-clock-scheduled sinks keep running through stream
        // droughts (exactly as the pre-session batch loops did).
        if !self.sinks.is_empty() {
            let estimate = self.backend.current_estimate();
            for sink in &mut self.sinks {
                sink.on_time(self.time_s, &estimate);
            }
        }
        if !self.finished && self.source.is_exhausted() {
            self.finished = true;
            let estimate = self.backend.current_estimate();
            for sink in &mut self.sinks {
                sink.on_finish(&estimate);
            }
        }
        count
    }

    fn dispatch(&mut self, event: &SensorEvent) {
        self.stats.events += 1;
        for sink in &mut self.sinks {
            sink.on_event(event);
        }
        let update = match *event {
            SensorEvent::Dmu(ref sample) => {
                self.backend.ingest_dmu(sample);
                None
            }
            SensorEvent::Acc { sensor, time_s, z } => self.backend.ingest_acc(sensor, time_s, z),
        };
        if let Some(update) = update {
            self.stats.updates += 1;
            if update.exceeds_three_sigma() {
                self.stats.exceeded += 1;
            }
            let estimate = self.backend.current_estimate();
            if let Some(rec) = &mut self.recorder {
                rec.observe(&update, &estimate);
            }
            for sink in &mut self.sinks {
                sink.on_update(&update, &estimate);
            }
        }
        // Surface any retunes the backend's monitors (any sensor)
        // fired while ingesting this event — cursor-based, appending to
        // the session's own log instead of allocating a fresh Vec
        // (retunes are rare, but the count check runs per event).
        let count = self.backend.retune_count();
        if count > self.retunes_dispatched {
            let first_fresh = self.retune_log.len();
            let log = &mut self.retune_log;
            self.backend
                .for_each_retune_since(self.retunes_dispatched, &mut |r| log.push(*r));
            self.retunes_dispatched = count;
            for i in first_fresh..self.retune_log.len() {
                let retune = self.retune_log[i];
                for sink in &mut self.sinks {
                    sink.on_retune(&retune);
                }
            }
        }
    }

    /// Runs for `duration_s` seconds of stream time in natural-step
    /// slices.
    pub fn run_for(&mut self, duration_s: f64) {
        let end = self.time_s + duration_s;
        let dt = self.source.dt();
        while self.time_s + TIME_EPS < end && !self.finished {
            self.step(dt.min(end - self.time_s));
        }
        // A finished source no longer produces events, but the clock
        // still honours the requested window.
        if self.time_s < end {
            self.time_s = end;
        }
    }

    /// Runs until the source is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if the source is unbounded (no `duration_s`).
    pub fn run_to_end(&mut self) {
        let total = self
            .source
            .duration_s()
            .expect("run_to_end needs a finite source");
        while !self.finished {
            let remaining = (total - self.time_s).max(self.source.dt());
            self.run_for(remaining);
        }
    }

    /// Finishes the run and produces the batch-style [`RunResult`].
    pub fn into_result(mut self) -> RunResult {
        if !self.finished && self.source.duration_s().is_some() {
            self.run_to_end();
        }
        let (residuals, estimates) = match self.recorder {
            Some(rec) => (rec.residuals, rec.estimates),
            None => (Vec::new(), Vec::new()),
        };
        RunResult {
            truth: self.truth,
            estimate: self.backend.current_estimate(),
            residuals,
            estimates,
            exceed_rate: self.stats.exceed_rate(),
            final_sigma: self.backend.measurement_sigma(),
            retune_count: self.backend.retune_count(),
        }
    }
}

/// How far one substrate's estimate has drifted from the reference
/// session's (see [`SessionGroup::divergence_from`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ArithDivergence {
    /// The session's backend label (e.g. `iekf5/q16.16`).
    pub label: &'static str,
    /// Largest per-axis angle difference to the reference, degrees.
    pub max_abs_deg: f64,
    /// Accepted updates in this session.
    pub updates: u64,
}

/// A batch of sessions driven together — many scenarios, many
/// arithmetic backends, one thread.
#[derive(Default)]
pub struct SessionGroup {
    sessions: Vec<FusionSession>,
}

impl SessionGroup {
    /// An empty group.
    pub fn new() -> Self {
        Self::default()
    }

    /// Each session's estimate drift from session `reference`'s, in
    /// insertion order (the reference reports 0).
    ///
    /// # Panics
    ///
    /// Panics if `reference` is out of range.
    pub fn divergence_from(&self, reference: usize) -> Vec<ArithDivergence> {
        let mut out = Vec::with_capacity(self.sessions.len());
        self.divergence_into(reference, &mut out);
        out
    }

    /// [`SessionGroup::divergence_from`] into a caller-owned buffer
    /// (cleared first) — the allocation-free variant for callers that
    /// poll divergence every few stream seconds.
    ///
    /// # Panics
    ///
    /// Panics if `reference` is out of range.
    pub fn divergence_into(&self, reference: usize, out: &mut Vec<ArithDivergence>) {
        out.clear();
        let anchor = self.sessions[reference].estimate().angles;
        out.extend(self.sessions.iter().map(|s| {
            let estimate = s.estimate();
            ArithDivergence {
                label: s.backend_label(),
                max_abs_deg: mathx::rad_to_deg(estimate.angles.error_to(&anchor).max_abs()),
                updates: estimate.updates,
            }
        }));
    }

    /// Adds a session and returns its index.
    pub fn push(&mut self, session: FusionSession) -> usize {
        self.sessions.push(session);
        self.sessions.len() - 1
    }

    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// `true` if the group is empty.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// The sessions, in insertion order.
    pub fn sessions(&self) -> &[FusionSession] {
        &self.sessions
    }

    /// One session, mutably.
    pub fn session_mut(&mut self, index: usize) -> &mut FusionSession {
        &mut self.sessions[index]
    }

    /// Steps every unfinished session by `dt` seconds.
    pub fn step_all(&mut self, dt: f64) {
        for s in &mut self.sessions {
            if !s.is_finished() {
                s.step(dt);
            }
        }
    }

    /// `true` once every session has finished.
    pub fn all_finished(&self) -> bool {
        self.sessions.iter().all(FusionSession::is_finished)
    }

    /// Round-robins `chunk_s`-second slices across the group until
    /// every session finishes — the many-concurrent-sensors pattern.
    pub fn run_interleaved(&mut self, chunk_s: f64) {
        assert!(chunk_s > 0.0, "need a positive chunk");
        while !self.all_finished() {
            for s in &mut self.sessions {
                if !s.is_finished() {
                    s.run_for(chunk_s);
                }
            }
        }
    }

    /// Runs every unfinished session to completion on the
    /// [`crate::exec`] worker pool, one session per lane (`0` workers
    /// means one per core), leaving the group in insertion order. The
    /// thread-level counterpart of the SIMD-style
    /// [`crate::lanes::LaneIekf`]: sessions own their sources and
    /// backends, so lanes never interact and the results are
    /// bit-identical to a serial [`SessionGroup::run_interleaved`]
    /// pass (pinned by test).
    ///
    /// # Panics
    ///
    /// Panics if any unfinished session's source is unbounded.
    pub fn run_lanes(&mut self, workers: usize) {
        let sessions = std::mem::take(&mut self.sessions);
        self.sessions = crate::exec::map_parallel(sessions, workers, |mut s| {
            if !s.is_finished() {
                s.run_to_end();
            }
            s
        });
    }

    /// [`SessionGroup::run_lanes`] on a caller-owned persistent
    /// [`crate::exec::Pool`] — for hosts that amortize one warm pool
    /// across many sweeps instead of paying spawn/join per call.
    /// Results are bit-identical to [`SessionGroup::run_lanes`].
    ///
    /// # Panics
    ///
    /// Panics if any unfinished session's source is unbounded.
    pub fn run_lanes_on(&mut self, pool: &crate::exec::Pool) {
        let sessions = std::mem::take(&mut self.sessions);
        self.sessions = pool.map(sessions, |mut s| {
            if !s.is_finished() {
                s.run_to_end();
            }
            s
        });
    }

    /// Consumes the group, yielding the sessions.
    pub fn into_sessions(self) -> Vec<FusionSession> {
        self.sessions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::{QArith, SoftArith};
    use crate::spec::{ScenarioSpec, Substrate, TrajectorySpec};
    use mathx::rad_to_deg;

    fn short_spec(seed: u64) -> ScenarioSpec {
        ScenarioSpec::named("session-unit")
            .with_truth(EulerAngles::from_degrees(2.0, -1.0, 1.5))
            .with_duration(60.0)
            .with_seed(seed)
    }

    /// The full 5-state IEKF over every static substrate, one session
    /// each over one shared trajectory (index 0, `f64`, is the
    /// reference).
    fn substrate_sweep(spec: &ScenarioSpec) -> SessionGroup {
        let trajectory = spec.lower_trajectory().into_shared();
        let mut group = SessionGroup::new();
        for substrate in Substrate::all() {
            let cell = spec.clone().with_substrate(substrate);
            group.push(cell.into_session(Arc::clone(&trajectory)));
        }
        group
    }

    #[test]
    fn session_matches_batch_run_exactly() {
        // The batch path and a hand-built session must agree bit for
        // bit: they drive the same source, backend and recorder.
        let spec = short_spec(3);
        let batch = spec.run();
        let session = FusionSession::builder()
            .source_boxed(spec.into_source(spec.lower_trajectory()))
            .estimator(EstimatorConfig::paper_static())
            .truth(spec.truth)
            .record_traces(spec.trace_decimation)
            .build();
        let streamed = session.into_result();
        assert_eq!(batch.estimate, streamed.estimate);
        assert_eq!(batch.residuals, streamed.residuals);
        assert_eq!(batch.estimates, streamed.estimates);
        assert_eq!(batch.exceed_rate, streamed.exceed_rate);
    }

    #[test]
    fn stepping_by_odd_slices_equals_one_shot() {
        let spec = short_spec(4);
        let mut incremental = spec.into_session(spec.lower_trajectory());
        while !incremental.is_finished() {
            incremental.step(0.7303); // deliberately unaligned with acc_dt
        }
        let a = incremental.into_result();
        let b = spec.run();
        assert_eq!(a.estimate, b.estimate);
        assert_eq!(a.residuals, b.residuals);
    }

    #[test]
    fn substrate_sweep_interleaves_three_substrates() {
        let spec = short_spec(12).with_duration(30.0);
        let mut group = substrate_sweep(&spec);
        group.run_interleaved(0.5);
        assert!(group.all_finished());
        let div = group.divergence_from(0);
        assert_eq!(div.len(), 3);
        assert_eq!(div[0].label, "iekf5/f64");
        assert_eq!(div[1].label, "iekf5/softfloat");
        assert_eq!(div[2].label, "iekf5/q16.16");
        // The reference diverges from itself by exactly nothing, and
        // IEEE emulation is bit-identical to the native path.
        assert_eq!(div[0].max_abs_deg, 0.0);
        assert_eq!(div[1].max_abs_deg, 0.0, "softfloat must match f64");
        // Fixed point drifts, but the trust region keeps it bounded.
        let angle_limit = spec.tuning.estimator_config().filter.angle_limit;
        assert!(div[2].max_abs_deg <= 2.0 * rad_to_deg(angle_limit));
        // The emulated session accounted Sabre cycles for the full
        // 5-state algorithm.
        let soft = group.sessions()[1]
            .backend_as::<crate::estimator::GenericBoresightEstimator<SoftArith>>()
            .expect("softfloat backend");
        assert!(soft.filter().arith().cycles() > 0);
        let fixed = group.sessions()[2]
            .backend_as::<crate::estimator::GenericBoresightEstimator<QArith<16>>>()
            .expect("fixed backend");
        assert!(fixed.filter().arith().counts().total() > 0);
    }

    #[test]
    fn run_lanes_matches_interleaved_bitwise() {
        let spec = short_spec(13);
        let build = || substrate_sweep(&spec);
        let mut serial = build();
        serial.run_interleaved(0.5);
        let mut lanes = build();
        lanes.run_lanes(4);
        assert!(lanes.all_finished());
        for (a, b) in serial.sessions().iter().zip(lanes.sessions()) {
            assert_eq!(a.backend_label(), b.backend_label());
            let (ea, eb) = (a.estimate(), b.estimate());
            assert_eq!(ea.angles.roll.to_bits(), eb.angles.roll.to_bits());
            assert_eq!(ea.angles.pitch.to_bits(), eb.angles.pitch.to_bits());
            assert_eq!(ea.angles.yaw.to_bits(), eb.angles.yaw.to_bits());
            assert_eq!(ea.updates, eb.updates);
        }
    }

    #[test]
    fn sinks_observe_events_updates_and_retunes() {
        #[derive(Default)]
        struct Counter {
            events: usize,
            updates: usize,
            finishes: usize,
        }
        impl EventSink for Counter {
            fn on_event(&mut self, _: &SensorEvent) {
                self.events += 1;
            }
            fn on_update(&mut self, _: &KalmanUpdate, _: &MisalignmentEstimate) {
                self.updates += 1;
            }
            fn on_finish(&mut self, _: &MisalignmentEstimate) {
                self.finishes += 1;
            }
        }
        let spec = short_spec(7)
            .with_duration(10.0)
            .with_trajectory(TrajectorySpec::Level);
        let counter = Arc::new(Mutex::new(Counter::default()));
        let retunes = Arc::new(Mutex::new(RetuneLog::default()));
        let mut session = FusionSession::builder()
            .source_boxed(spec.into_source(spec.lower_trajectory()))
            .estimator(spec.tuning.estimator_config())
            .sink(Arc::clone(&counter))
            .sink(Arc::clone(&retunes))
            .build();
        session.run_to_end();
        let c = counter.lock().unwrap();
        assert!(c.events > 2000, "events {}", c.events);
        assert!(c.updates > 1900, "updates {}", c.updates);
        assert_eq!(c.finishes, 1);
        assert_eq!(
            retunes.lock().unwrap().retunes.len(),
            session.retunes().len()
        );
    }

    #[test]
    fn latest_estimate_sink_tracks_backend() {
        let spec = short_spec(8).with_trajectory(TrajectorySpec::Level);
        let latest = Arc::new(Mutex::new(LatestEstimateSink::default()));
        let mut session = FusionSession::builder()
            .source_boxed(spec.into_source(spec.lower_trajectory()))
            .estimator(spec.tuning.estimator_config())
            .sink(Arc::clone(&latest))
            .build();
        session.run_for(5.0);
        let seen = latest.lock().unwrap().latest.expect("updates flowed");
        assert_eq!(seen, session.estimate());
    }

    #[test]
    fn uart_replay_reconstructs_recorded_streams() {
        // Record a short comms-chain run, then replay the captured
        // bytes: the replayed session must converge like the live one.
        let cfg = short_spec(9).config();
        let mut replay = UartReplaySource::new(1.0 / Dmu::new(cfg.dmu).dt(), cfg.acc_rate_hz);
        // "Capture": encode DMU samples onto the bridge byte stream the
        // way the live chain does.
        let mut rng = mathx::rng::seeded_rng(1);
        let mut dmu = Dmu::new(cfg.dmu);
        let mut enc = BridgeEncoder::new();
        let g = mathx::STANDARD_GRAVITY;
        for i in 0..50 {
            let t = i as f64 * dmu.dt();
            let s = dmu.sample(Vec3::new([0.0, 0.0, g]), Vec3::zeros(), &mut rng);
            let mut bytes = Vec::new();
            for frame in DmuCanCodec::encode(&s) {
                bytes.extend_from_slice(&enc.encode(&frame));
            }
            replay.push_dmu_chunk(t, bytes);
        }
        let mut session = FusionSession::builder()
            .source(replay)
            .estimator(cfg.estimator)
            .build();
        session.run_for(1.0);
        let stats = session.stream_stats().expect("replay has stream stats");
        assert!(stats.dmu_samples > 40, "dmu {}", stats.dmu_samples);
        assert_eq!(stats.dmu_errors, 0);
    }

    #[test]
    fn run_for_honours_the_clock_past_exhaustion() {
        let spec = short_spec(10)
            .with_duration(2.0)
            .with_trajectory(TrajectorySpec::Level);
        let mut session = spec.into_session(spec.lower_trajectory());
        session.run_for(5.0);
        assert!(session.is_finished());
        assert!((session.time_s() - 5.0).abs() < 1e-6);
    }
}
