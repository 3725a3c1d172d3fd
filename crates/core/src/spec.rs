//! Declarative scenario specifications and the sweep runner.
//!
//! A [`ScenarioSpec`] is the one way to describe a run: pure data,
//! composable, built fluently from the paper's static baseline
//! ([`ScenarioSpec::named`]):
//!
//! * [`TrajectorySpec`] — what the vehicle does: the paper tilt-table
//!   sequences, a level bench, the preset drives, or an arbitrary
//!   [`vehicle::Segment`] list repeated to cover the run;
//! * [`EnvironmentSpec`] — what the road does: a vibration class
//!   (lab / passenger car / truck), a road-roughness multiplier and
//!   the differential (mount-flexure) vibration fraction;
//! * [`ChannelSpec`] — how measurements travel: ideal synthetic
//!   instruments, or the full Figure-2 CAN/UART comms chain with
//!   byte-level [`LinkFaultConfig`] fault injection;
//! * [`TuningSpec`] — which estimator tuning runs: the paper's static
//!   or dynamic configuration, or a custom [`EstimatorConfig`];
//! * [`Substrate`] — which arithmetic the full 5-state IEKF runs over
//!   (native `f64`, Sabre-accounted Softfloat, or Q16.16 fixed point).
//!
//! A spec lowers to a streaming [`FusionSession`] through
//! [`ScenarioSpec::into_session`], over a trajectory built by
//! [`ScenarioSpec::lower_trajectory`]; [`ScenarioSpec::run`] does both
//! for the batch case. Underneath, [`ScenarioSpec::config`] flattens
//! the spec to the [`ScenarioConfig`] record the instrument sources
//! read.
//!
//! [`ScenarioSuite`] executes a scenario × substrate matrix on a
//! worker pool and reports one machine-readable [`SuiteCell`] per
//! cell; the named workloads live in [`crate::catalog`].
//!
//! ```
//! use boresight::spec::{EnvironmentSpec, ScenarioSpec, TrajectorySpec};
//! use mathx::EulerAngles;
//! use vehicle::Segment;
//!
//! let result = ScenarioSpec::named("brake-and-turn")
//!     .with_truth(EulerAngles::from_degrees(2.0, -1.0, 1.5))
//!     .with_trajectory(TrajectorySpec::Segments {
//!         block: vec![
//!             Segment::accelerate(4.0, 2.5),
//!             Segment::turn(4.0, 0.3),
//!             Segment::brake(3.0, 3.0),
//!             Segment::idle(1.0),
//!         ],
//!     })
//!     .with_environment(EnvironmentSpec::passenger_car())
//!     .with_duration(24.0)
//!     .run();
//! assert!(result.max_error_deg().is_finite());
//! ```

use crate::adaptive::AdaptiveBackend;
use crate::arith::{Arith, F64Arith, QArith, SoftArith};
use crate::estimator::{EstimatorConfig, GenericBoresightEstimator};
use crate::exec;
use crate::report::VehicleSummary;
use crate::scenario::{RunResult, ScenarioConfig};
use crate::session::{
    CommsChainSource, FusionSession, IntoSharedTrajectory, LinkFaultConfig, SensorSource,
    SessionBuilder, SyntheticSource,
};
use mathx::{EulerAngles, Vec2};
use sensors::DmuConfig;
use vehicle::{profile::presets, DriveProfile, Segment, TiltTable, Trajectory, VibrationConfig};

/// What the vehicle (or test platform) does during the run.
///
/// A spec carries no duration of its own: [`TrajectorySpec::lower`]
/// stretches the description to the scenario's `duration_s` — tilt
/// sequences split it into equal holds, drives repeat their block.
#[derive(Clone, Debug, PartialEq)]
pub enum TrajectorySpec {
    /// The paper's tilt-table observability sequence (8 equal holds).
    TiltSequence {
        /// Tilt magnitude per orientation step, degrees.
        tilt_deg: f64,
    },
    /// A level, motionless platform for the whole run.
    Level,
    /// The urban stop-and-go preset drive.
    Urban,
    /// The highway preset drive.
    Highway,
    /// An arbitrary drive-segment block, repeated end to end until it
    /// covers the scenario duration.
    Segments {
        /// The segments of one repetition.
        block: Vec<Segment>,
    },
}

impl TrajectorySpec {
    /// The paper's static procedure: 20-degree tilts, duration/8 holds.
    pub fn paper_tilt_table() -> Self {
        Self::TiltSequence { tilt_deg: 20.0 }
    }

    /// Builds the trajectory this spec describes for a `duration_s`
    /// run.
    pub fn lower(&self, duration_s: f64) -> ScenarioTrajectory {
        match self {
            Self::TiltSequence { tilt_deg } => ScenarioTrajectory::Table(
                TiltTable::observability_sequence(*tilt_deg, duration_s / 8.0),
            ),
            Self::Level => ScenarioTrajectory::Table(TiltTable::level(duration_s)),
            Self::Urban => ScenarioTrajectory::Drive(presets::urban_drive(duration_s)),
            Self::Highway => ScenarioTrajectory::Drive(presets::highway_drive(duration_s)),
            Self::Segments { block } => {
                ScenarioTrajectory::Drive(DriveProfile::repeated(block, duration_s))
            }
        }
    }
}

/// An owned, lowered trajectory (tilt table or drive profile).
#[derive(Clone, Debug)]
pub enum ScenarioTrajectory {
    /// A stationary tilt-table schedule.
    Table(TiltTable),
    /// A piecewise drive profile.
    Drive(DriveProfile),
}

crate::session::impl_into_shared_trajectory!(ScenarioTrajectory);

impl Trajectory for ScenarioTrajectory {
    fn duration_s(&self) -> f64 {
        match self {
            Self::Table(t) => t.duration_s(),
            Self::Drive(d) => d.duration_s(),
        }
    }

    fn sample(&self, t: f64) -> vehicle::KinematicState {
        match self {
            Self::Table(table) => table.sample(t),
            Self::Drive(drive) => drive.sample(t),
        }
    }
}

/// The road-vibration class a scenario runs in.
#[derive(Clone, Copy, Debug)]
pub enum VibrationClass {
    /// Static laboratory platform: no vibration at all.
    None,
    /// A standard private passenger vehicle (the paper's test car).
    PassengerCar,
    /// A heavy truck: roughly 3x the passenger-car intensity.
    Truck,
    /// An explicit vibration model.
    Custom(VibrationConfig),
}

/// What the environment does to the instruments.
#[derive(Clone, Copy, Debug)]
pub struct EnvironmentSpec {
    /// Common rigid-body vibration class.
    pub vibration: VibrationClass,
    /// Road-roughness multiplier on the class RMS values (1.0 =
    /// nominal; potholed surfaces run 2-3x).
    pub road_roughness: f64,
    /// Mount-flexure vibration sensed only by the ACC, as a fraction
    /// of the common intensity — the term that forces the paper's
    /// dynamic retuning.
    pub differential_vibration: f64,
}

impl EnvironmentSpec {
    /// The paper's static laboratory: no vibration.
    pub fn laboratory() -> Self {
        Self {
            vibration: VibrationClass::None,
            road_roughness: 1.0,
            differential_vibration: 0.0,
        }
    }

    /// The paper's dynamic test environment: passenger-car vibration
    /// with 10 % mount flexure.
    pub fn passenger_car() -> Self {
        Self {
            vibration: VibrationClass::PassengerCar,
            road_roughness: 1.0,
            differential_vibration: 0.1,
        }
    }

    /// Heavy-truck vibration with a stiffer mount (15 % flexure).
    pub fn truck() -> Self {
        Self {
            vibration: VibrationClass::Truck,
            road_roughness: 1.0,
            differential_vibration: 0.15,
        }
    }

    /// A badly surfaced road: passenger-car vibration at 2.5x RMS and
    /// elevated mount flexure.
    pub fn rough_road() -> Self {
        Self {
            vibration: VibrationClass::PassengerCar,
            road_roughness: 2.5,
            differential_vibration: 0.25,
        }
    }

    /// The [`VibrationConfig`] this environment lowers to (roughness
    /// of exactly 1.0 passes the class configuration through
    /// untouched, keeping the paper environments bit-identical).
    pub fn vibration_config(&self) -> VibrationConfig {
        let base = match self.vibration {
            VibrationClass::None => VibrationConfig::none(),
            VibrationClass::PassengerCar => VibrationConfig::passenger_car(),
            VibrationClass::Truck => VibrationConfig::truck(),
            VibrationClass::Custom(cfg) => cfg,
        };
        if self.road_roughness == 1.0 {
            base
        } else {
            VibrationConfig {
                accel_rms: base.accel_rms * self.road_roughness,
                rate_rms: base.rate_rms * self.road_roughness,
                ..base
            }
        }
    }
}

/// How measurements reach the fusion core.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum ChannelSpec {
    /// Synthetic instruments wired straight to the session — no
    /// serial transport (the [`crate::session::SyntheticSource`]
    /// path).
    #[default]
    Ideal,
    /// The full Figure-2 chain — DMU over CAN through the RS-232
    /// bridge, ACC eval packets, both UARTs at line rate,
    /// reconstruction — with optional byte-level fault injection
    /// (the [`CommsChainSource`] path).
    Comms {
        /// Fault rates on both serial links.
        faults: LinkFaultConfig,
    },
}

impl ChannelSpec {
    /// The comms chain with a clean channel.
    pub fn comms() -> Self {
        Self::Comms {
            faults: LinkFaultConfig::clean(),
        }
    }
}

/// Which estimator tuning the scenario runs.
#[derive(Clone, Copy, Debug)]
pub enum TuningSpec {
    /// The paper's static-test tuning ([`EstimatorConfig::paper_static`]).
    Static,
    /// The paper's dynamic (vehicle) tuning ([`EstimatorConfig::paper_dynamic`]).
    Dynamic,
    /// An explicit estimator configuration.
    Custom(EstimatorConfig),
}

impl TuningSpec {
    /// The [`EstimatorConfig`] this tuning lowers to.
    pub fn estimator_config(&self) -> EstimatorConfig {
        match self {
            Self::Static => EstimatorConfig::paper_static(),
            Self::Dynamic => EstimatorConfig::paper_dynamic(),
            Self::Custom(cfg) => *cfg,
        }
    }
}

/// The arithmetic substrate the full 5-state IEKF runs over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Substrate {
    /// Native `f64` (the reference).
    F64,
    /// Emulated IEEE double with Sabre cycle accounting (the paper's
    /// deployed configuration).
    Softfloat,
    /// Saturating Q16.16 fixed point (the paper's proposed
    /// enhancement).
    Q16_16,
    /// The context-aware supervisor ([`crate::adaptive::AdaptiveBackend`]):
    /// starts on Q16.16 and hot-swaps substrates under the default
    /// hysteresis policy, logging every switch to its reconfiguration
    /// ledger.
    Adaptive,
}

impl Substrate {
    /// Every *static* substrate, in reference-first order. The
    /// adaptive supervisor is not listed — it reconfigures across
    /// these and is opted into per scenario or per suite axis.
    pub fn all() -> [Self; 3] {
        [Self::F64, Self::Softfloat, Self::Q16_16]
    }

    /// Short name (`f64`, `softfloat`, `q16.16`, `adaptive`).
    pub fn label(self) -> &'static str {
        match self {
            Self::F64 => "f64",
            Self::Softfloat => "softfloat",
            Self::Q16_16 => "q16.16",
            Self::Adaptive => "adaptive",
        }
    }

    /// Whether this substrate can quantize a healthy steady-state
    /// covariance to exactly zero. Q16.16's resolution (1/65536) is
    /// coarser than the converged angle variances, so its reported
    /// sigma legitimately reads 0.0 after convergence; the adaptive
    /// supervisor idles on q16.16 and inherits the same behavior.
    /// Health checks that treat a zero sigma as a defect must skip
    /// these substrates.
    pub fn quantizes_sigma(self) -> bool {
        matches!(self, Self::Q16_16 | Self::Adaptive)
    }

    /// Parses a short name (`fixed` is accepted for `q16.16`).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "f64" => Some(Self::F64),
            "softfloat" => Some(Self::Softfloat),
            "q16.16" | "fixed" => Some(Self::Q16_16),
            "adaptive" => Some(Self::Adaptive),
            _ => None,
        }
    }

    /// Attaches the full 5-state IEKF over this substrate to a session
    /// builder — the one substrate-dispatch site every lowering path
    /// shares.
    pub fn attach_iekf(
        self,
        builder: SessionBuilder,
        estimator: EstimatorConfig,
    ) -> SessionBuilder {
        match self {
            Self::F64 => builder.iekf(F64Arith::default(), estimator),
            Self::Softfloat => builder.iekf(SoftArith::default(), estimator),
            Self::Q16_16 => builder.iekf(QArith::<16>::default(), estimator),
            Self::Adaptive => builder.backend(AdaptiveBackend::default_for(estimator)),
        }
    }

    /// Reads `(total ops, saturations, cycles)` off a session whose
    /// full-IEKF backend runs over this substrate — the one
    /// instrumentation-dispatch site the suite and the arithmetic
    /// ablation share. Returns zeros for a foreign backend.
    pub fn read_instrumentation(self, session: &FusionSession) -> (u64, u64, u64) {
        match self {
            Self::F64 => instrumentation::<F64Arith>(session),
            Self::Softfloat => instrumentation::<SoftArith>(session),
            Self::Q16_16 => instrumentation::<QArith<16>>(session),
            Self::Adaptive => session
                .backend_as::<AdaptiveBackend>()
                .map(|b| {
                    (
                        b.total_ops().total(),
                        b.total_saturations(),
                        b.total_cycles(),
                    )
                })
                .unwrap_or((0, 0, 0)),
        }
    }
}

impl std::fmt::Display for Substrate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A declarative, composable scenario: everything a workload needs,
/// as pure data, buildable fluently and lowered to the session layer
/// through [`ScenarioSpec::into_session`].
#[derive(Clone, Debug)]
pub struct ScenarioSpec {
    /// Catalog name (kebab-case by convention).
    pub name: String,
    /// True mounting misalignment to inject.
    pub truth: EulerAngles,
    /// True ACC biases, m/s^2.
    pub acc_bias: Vec2,
    /// Run length, seconds.
    pub duration_s: f64,
    /// RNG seed (specs are fully deterministic given the seed).
    pub seed: u64,
    /// Keep every n-th residual/estimate point in the trace.
    pub trace_decimation: usize,
    /// What the vehicle does.
    pub trajectory: TrajectorySpec,
    /// What the road does.
    pub environment: EnvironmentSpec,
    /// How measurements travel.
    pub channel: ChannelSpec,
    /// Which estimator tuning runs.
    pub tuning: TuningSpec,
    /// Which arithmetic the IEKF runs over.
    pub substrate: Substrate,
}

impl ScenarioSpec {
    /// A named spec with the paper's static-test defaults: no injected
    /// misalignment, ACC biases of (0.02, -0.015) m/s^2, the paper's
    /// 300 s run, the shared deterministic seed, every 10th trace point,
    /// tilt-table trajectory, laboratory environment, ideal channel,
    /// static tuning and native `f64`. With [`ScenarioSpec::config`]
    /// this is the single source of the paper baseline.
    pub fn named(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            truth: EulerAngles::zero(),
            acc_bias: Vec2::new([0.02, -0.015]),
            duration_s: 300.0,
            seed: 0xB0B5,
            trace_decimation: 10,
            trajectory: TrajectorySpec::paper_tilt_table(),
            environment: EnvironmentSpec::laboratory(),
            channel: ChannelSpec::Ideal,
            tuning: TuningSpec::Static,
            substrate: Substrate::F64,
        }
    }

    /// Sets the injected truth.
    pub fn with_truth(mut self, truth: EulerAngles) -> Self {
        self.truth = truth;
        self
    }

    /// Sets the true ACC biases.
    pub fn with_acc_bias(mut self, bias: Vec2) -> Self {
        self.acc_bias = bias;
        self
    }

    /// Sets the run length, seconds.
    pub fn with_duration(mut self, duration_s: f64) -> Self {
        self.duration_s = duration_s;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the trace decimation.
    pub fn with_trace_decimation(mut self, decimation: usize) -> Self {
        self.trace_decimation = decimation;
        self
    }

    /// Sets the trajectory.
    pub fn with_trajectory(mut self, trajectory: TrajectorySpec) -> Self {
        self.trajectory = trajectory;
        self
    }

    /// Sets the environment.
    pub fn with_environment(mut self, environment: EnvironmentSpec) -> Self {
        self.environment = environment;
        self
    }

    /// Sets the measurement channel.
    pub fn with_channel(mut self, channel: ChannelSpec) -> Self {
        self.channel = channel;
        self
    }

    /// Sets the estimator tuning.
    pub fn with_tuning(mut self, tuning: TuningSpec) -> Self {
        self.tuning = tuning;
        self
    }

    /// Sets the arithmetic substrate.
    pub fn with_substrate(mut self, substrate: Substrate) -> Self {
        self.substrate = substrate;
        self
    }

    /// Lowers the spec to the flat [`ScenarioConfig`] record the
    /// instrument sources and the system layer read, adding the
    /// paper's fixed sensor constants: DMU accelerometer noise
    /// 0.004 m/s^2, ACC noise 0.005 m/s^2 at 200 Hz.
    pub fn config(&self) -> ScenarioConfig {
        // Tactical-grade IMU accelerometers (the BAE DMU is a cut above
        // consumer parts): ~0.004 m/s^2 per-sample noise keeps the
        // combined residual floor inside the paper's tuned
        // 0.003-0.01 m/s^2 static range.
        let mut dmu = DmuConfig::default();
        dmu.accel.error.noise_std = 0.004;
        ScenarioConfig {
            true_misalignment: self.truth,
            true_acc_bias: self.acc_bias,
            duration_s: self.duration_s,
            dmu,
            acc_noise_sigma: 0.005,
            acc_rate_hz: 200.0,
            vibration: self.environment.vibration_config(),
            differential_vibration: self.environment.differential_vibration,
            estimator: self.tuning.estimator_config(),
            link_faults: match self.channel {
                ChannelSpec::Ideal => LinkFaultConfig::clean(),
                ChannelSpec::Comms { faults } => faults,
            },
            seed: self.seed,
            trace_decimation: self.trace_decimation,
        }
    }

    /// Builds the owned trajectory this spec runs over.
    pub fn lower_trajectory(&self) -> ScenarioTrajectory {
        self.trajectory.lower(self.duration_s)
    }

    /// Lowers the spec's channel front end to a boxed sensor source —
    /// the shared lowering step behind [`ScenarioSpec::into_session`]
    /// and fleet admission ([`crate::fleet::Fleet::admit`]), so a
    /// fleet vehicle sees byte-for-byte the event stream a standalone
    /// session would.
    pub fn into_source(&self, trajectory: impl IntoSharedTrajectory) -> Box<dyn SensorSource> {
        let cfg = self.config();
        match self.channel {
            ChannelSpec::Ideal => Box::new(SyntheticSource::from_scenario(trajectory, &cfg)),
            ChannelSpec::Comms { .. } => {
                Box::new(CommsChainSource::from_scenario(trajectory, &cfg))
            }
        }
    }

    /// Lowers the spec to a streaming [`FusionSession`] over
    /// `trajectory` (normally the one from
    /// [`ScenarioSpec::lower_trajectory`]; pass an `Arc` clone to share
    /// one lowered trajectory across many sessions) — the single path
    /// every channel, tuning and substrate combination goes through.
    pub fn into_session(&self, trajectory: impl IntoSharedTrajectory) -> FusionSession {
        self.session_builder(trajectory).build()
    }

    /// The configured [`SessionBuilder`] behind
    /// [`ScenarioSpec::into_session`]: source, substrate backend,
    /// truth and trace recording attached, but not yet built — so
    /// callers can hang extra [`crate::session::EventSink`]s (e.g. a
    /// [`crate::replay::RecordingSink`]) on the session first.
    pub fn session_builder(&self, trajectory: impl IntoSharedTrajectory) -> SessionBuilder {
        let cfg = self.config();
        let builder = FusionSession::builder().source_boxed(self.into_source(trajectory));
        self.finish(
            self.substrate.attach_iekf(builder, cfg.estimator),
            FusionSession::expected_updates(&cfg),
        )
    }

    /// Attaches the spec's truth and a trace recorder pre-sized for
    /// `expected_updates` — the finishing step every spec-built
    /// session shares.
    pub(crate) fn finish(
        &self,
        builder: SessionBuilder,
        expected_updates: usize,
    ) -> SessionBuilder {
        builder
            .truth(self.truth)
            .record_traces_sized(self.trace_decimation, expected_updates)
    }

    /// Lowers and runs the spec to completion (the batch path).
    pub fn run(&self) -> RunResult {
        self.into_session(self.lower_trajectory()).into_result()
    }

    /// [`ScenarioSpec::into_session`] with an explicit adaptive
    /// supervisor instead of the spec's static substrate: same source
    /// lowering, same trace recording, but the backend starts on
    /// `initial` and reconfigures under `policy`.
    pub fn into_adaptive_session(
        &self,
        trajectory: impl IntoSharedTrajectory,
        initial: crate::adaptive::SubstrateId,
        policy: Box<dyn crate::adaptive::ReconfigPolicy>,
    ) -> FusionSession {
        let cfg = self.config();
        let builder = FusionSession::builder()
            .source_boxed(self.into_source(trajectory))
            .backend(AdaptiveBackend::new(cfg.estimator, initial, policy));
        self.finish(builder, FusionSession::expected_updates(&cfg))
            .build()
    }
}

/// Reads the per-substrate instrumentation off a finished session.
fn instrumentation<A: Arith + Clone + 'static>(session: &FusionSession) -> (u64, u64, u64) {
    session
        .backend_as::<GenericBoresightEstimator<A>>()
        .map(|backend| {
            let arith = backend.filter().arith();
            let counts = arith.counts();
            (counts.total(), counts.saturations, arith.cycles())
        })
        .unwrap_or((0, 0, 0))
}

/// One scenario × substrate cell of a [`SuiteReport`].
#[derive(Clone, Debug)]
pub struct SuiteCell {
    /// Scenario name.
    pub scenario: String,
    /// Arithmetic substrate of this cell.
    pub substrate: Substrate,
    /// Backend label the session reported (e.g. `iekf5/q16.16`).
    pub backend: &'static str,
    /// Run length actually executed, seconds.
    pub duration_s: f64,
    /// The per-vehicle verdict (estimate vs. truth, RMS error,
    /// residual health, retunes, saturations, link-fault counters) —
    /// the shared [`crate::report::VehicleSummary`] shape the fleet
    /// layer also reports.
    pub summary: VehicleSummary,
    /// Substrate arithmetic operations executed.
    pub ops: u64,
    /// Estimated Sabre cycles (0 for the host-FPU reference).
    pub cycles: u64,
    /// Cycle estimate per incoming ACC sample.
    pub cycles_per_sample: f64,
    /// Substrate reconfigurations the backend performed (0 for every
    /// static substrate).
    pub switches: u64,
}

impl SuiteCell {
    fn collect(spec: &ScenarioSpec, session: FusionSession) -> Self {
        let backend = session.backend_label();
        let (ops, saturations, cycles) = spec.substrate.read_instrumentation(&session);
        let switches = session
            .backend_as::<AdaptiveBackend>()
            .map_or(0, |b| b.switch_count());
        let stream = session.stream_stats();
        let cfg = spec.config();
        let samples = (cfg.duration_s * cfg.acc_rate_hz).round().max(1.0);
        let result = session.into_result();
        Self {
            scenario: spec.name.clone(),
            substrate: spec.substrate,
            backend,
            duration_s: cfg.duration_s,
            summary: VehicleSummary::from_result(&result, saturations, stream)
                .with_substrate_switches(switches),
            ops,
            cycles,
            cycles_per_sample: cycles as f64 / samples,
            switches,
        }
    }

    /// `true` when the estimate and its confidence are finite and the
    /// covariance never went indefinite (non-negative sigmas) — the
    /// health predicate the CI smoke run gates on.
    pub fn is_healthy(&self) -> bool {
        self.summary.is_healthy()
    }
}

/// The machine-readable result of a [`ScenarioSuite`] run.
#[derive(Clone, Debug, Default)]
pub struct SuiteReport {
    /// One cell per scenario × substrate, scenario-major.
    pub cells: Vec<SuiteCell>,
}

impl SuiteReport {
    /// The cell for one scenario × substrate, if present.
    pub fn cell(&self, scenario: &str, substrate: Substrate) -> Option<&SuiteCell> {
        self.cells
            .iter()
            .find(|c| c.scenario == scenario && c.substrate == substrate)
    }

    /// Cells whose estimate went non-finite or covariance-indefinite.
    pub fn unhealthy(&self) -> Vec<&SuiteCell> {
        self.cells.iter().filter(|c| !c.is_healthy()).collect()
    }
}

/// Executes a scenario × substrate matrix on a worker pool: every
/// cell lowers to its own session and runs to completion inside a
/// worker.
#[derive(Clone, Debug)]
pub struct ScenarioSuite {
    scenarios: Vec<ScenarioSpec>,
    substrates: Vec<Substrate>,
    duration_override_s: Option<f64>,
}

impl ScenarioSuite {
    /// A suite over the given scenarios and all three substrates.
    pub fn new(scenarios: Vec<ScenarioSpec>) -> Self {
        Self {
            scenarios,
            substrates: Substrate::all().to_vec(),
            duration_override_s: None,
        }
    }

    /// The full catalog × substrate matrix.
    pub fn full_matrix() -> Self {
        Self::new(crate::catalog::all())
    }

    /// Restricts the substrate axis.
    pub fn with_substrates(mut self, substrates: &[Substrate]) -> Self {
        self.substrates = substrates.to_vec();
        self
    }

    /// Overrides every scenario's duration (reduced-duration smoke
    /// runs; the catalog's long-haul entry is 3600 s at full length).
    pub fn with_duration(mut self, duration_s: f64) -> Self {
        self.duration_override_s = Some(duration_s);
        self
    }

    /// The scenarios on the suite's scenario axis.
    pub fn scenarios(&self) -> &[ScenarioSpec] {
        &self.scenarios
    }

    /// Every scenario × substrate cell spec of the matrix, in
    /// scenario-major order, with the duration override applied — the
    /// work list [`ScenarioSuite::run_parallel`] hands to the pool.
    fn cell_specs(&self) -> Vec<ScenarioSpec> {
        self.scenarios
            .iter()
            .flat_map(|base| {
                let mut spec = base.clone();
                if let Some(d) = self.duration_override_s {
                    spec.duration_s = d;
                }
                self.substrates
                    .iter()
                    .map(move |&s| spec.clone().with_substrate(s))
            })
            .collect()
    }

    /// Runs the whole matrix on a pool of `workers` threads (`0` means
    /// one per core; see [`exec::map_parallel`]).
    ///
    /// Each scenario × substrate cell is lowered to an owned
    /// [`FusionSession`] *inside its worker* and run to completion
    /// there; per-cell RNG seeding makes every cell independent, so the
    /// report is the same for every worker count, and bit-identical to
    /// interleaving each scenario's substrate sessions on one thread
    /// (both pinned by test), while the wall clock shrinks with the
    /// core count.
    pub fn run_parallel(&self, workers: usize) -> SuiteReport {
        let cells = exec::map_parallel(self.cell_specs(), workers, |spec| {
            let mut session = spec.into_session(spec.lower_trajectory());
            session.run_to_end();
            SuiteCell::collect(&spec, session)
        });
        SuiteReport { cells }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn substrate_labels_roundtrip() {
        for s in Substrate::all() {
            assert_eq!(Substrate::parse(s.label()), Some(s));
        }
        assert_eq!(Substrate::parse("fixed"), Some(Substrate::Q16_16));
        assert_eq!(Substrate::parse("i387"), None);
    }

    #[test]
    fn rough_road_scales_vibration_rms() {
        let env = EnvironmentSpec::rough_road();
        let cfg = env.vibration_config();
        let base = VibrationConfig::passenger_car();
        assert!((cfg.accel_rms - base.accel_rms * 2.5).abs() < 1e-12);
        assert_eq!(cfg.corner_hz, base.corner_hz);
    }

    #[test]
    fn comms_channel_spec_runs_through_the_chain() {
        let spec = ScenarioSpec::named("comms-smoke")
            .with_truth(EulerAngles::from_degrees(1.0, -1.0, 1.0))
            .with_channel(ChannelSpec::comms())
            .with_duration(20.0);
        let trajectory = spec.lower_trajectory();
        let mut session = spec.into_session(&trajectory);
        session.run_to_end();
        let stats = session.stream_stats().expect("comms chain has stats");
        assert!(stats.acc_samples > 1000);
        assert_eq!(stats.fault_bits_flipped, 0);
        assert_eq!(stats.fault_bytes_dropped, 0);
    }

    #[test]
    fn fault_injection_reaches_the_stream_stats() {
        let spec = ScenarioSpec::named("faulty")
            .with_truth(EulerAngles::from_degrees(1.0, -1.0, 1.0))
            .with_channel(ChannelSpec::Comms {
                faults: LinkFaultConfig {
                    bit_flip_prob: 0.01,
                    drop_prob: 0.005,
                    burst_prob: 0.0,
                    burst_len: 0,
                },
            })
            .with_duration(20.0);
        let trajectory = spec.lower_trajectory();
        let mut session = spec.into_session(&trajectory);
        session.run_to_end();
        let stats = session.stream_stats().expect("comms chain has stats");
        assert!(stats.fault_bits_flipped > 100, "{stats:?}");
        assert!(stats.fault_bytes_dropped > 50, "{stats:?}");
        // Corrupted frames fail their checksums instead of poisoning
        // the filter.
        assert!(stats.dmu_errors + stats.acc_errors > 0, "{stats:?}");
        assert!(session.estimate().angles.max_abs().is_finite());
    }

    #[test]
    fn suite_runs_a_small_matrix() {
        let suite = ScenarioSuite::new(vec![
            ScenarioSpec::named("cell").with_truth(EulerAngles::from_degrees(2.0, -1.0, 1.5))
        ])
        .with_substrates(&[Substrate::F64, Substrate::Q16_16])
        .with_duration(20.0);
        let report = suite.run_parallel(1);
        assert_eq!(report.cells.len(), 2);
        assert!(report.unhealthy().is_empty());
        let f64_cell = report.cell("cell", Substrate::F64).expect("f64 cell");
        assert_eq!(f64_cell.backend, "iekf5/f64");
        assert_eq!(f64_cell.cycles, 0, "host FPU accounts no Sabre cycles");
        let fixed = report.cell("cell", Substrate::Q16_16).expect("fixed cell");
        assert!(fixed.ops > 0);
        assert!(fixed.cycles > 0);
    }
}
