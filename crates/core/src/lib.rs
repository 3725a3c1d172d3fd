//! Computational boresighting of automotive sensors — the core
//! contribution of Chappell et al., "Exploiting real-time FPGA based
//! adaptive systems technology for real-time Sensor Fusion in next
//! generation automotive safety systems" (DATE 2005).
//!
//! A vehicle-fixed 6-DOF IMU and a two-axis accelerometer attached to
//! the sensor being aligned both witness the same specific-force
//! vector; the differences between their readings are a function of
//! the sensor's mounting misalignment (roll, pitch, yaw). This crate
//! estimates that misalignment in real time:
//!
//! * [`model`] — the measurement model `z = S C_sb(e) f_b + b + v` and
//!   its analytic Jacobian, in native `f64` and generically over any
//!   [`arith::Arith`] number system;
//! * [`lanes`] — the extended Kalman filter (iterated, Kalman-form
//!   covariance updates on floating point and Joseph-form on fixed
//!   point, innovation gating) over misalignment plus ACC bias,
//!   written once for `L` lockstep lanes as [`LaneIekf`]; [`LaneBank`]
//!   fuses several sensors against one IMU with it and returns their
//!   relative alignment (the paper's multi-sensor extension);
//! * [`filter`] — the filter's configuration and update record, and
//!   [`GenericBoresightFilter`], the lane filter at width 1 over any
//!   arithmetic substrate, with [`BoresightFilter`] the bit-pinned
//!   native-`f64` instantiation;
//! * [`monitor`] — the paper's residual / 3-sigma tuning loop that
//!   raises the measurement noise when vehicle vibration appears;
//! * [`estimator`] — [`BoresightEstimator`], the public API tying the
//!   above to the asynchronous DMU/ACC streams with lever-arm
//!   compensation;
//! * [`session`] — the streaming heart of the crate:
//!   [`FusionSession`] wires a pluggable [`SensorSource`], a
//!   [`FusionBackend`] and any number of [`EventSink`]s around one
//!   incremental event loop;
//! * [`spec`] — the one way to describe and run a scenario: a
//!   pure-data [`ScenarioSpec`] composing trajectory, environment,
//!   channel, tuning and arithmetic substrate, lowered to a session
//!   through one [`spec::ScenarioSpec::into_session`] path, plus the
//!   [`spec::ScenarioSuite`] scenario × substrate sweep runner;
//! * [`catalog`] — ≥10 named workloads (the paper's two procedures
//!   plus drive styles, road surfaces, vehicle classes, channel-fault
//!   storms and a 1-hour drift run) ready for the suite;
//! * [`exec`] — the vendored work-stealing-lite worker pool behind
//!   [`spec::ScenarioSuite::run_parallel`]: whole sessions are `Send`,
//!   so every scenario × substrate cell lowers and runs inside its
//!   worker thread, bit-identical for every worker count;
//! * [`fuzz`] — the seeded scenario fuzzer: a replayable random
//!   composer of [`ScenarioSpec`]s over every axis the declarative
//!   layer exposes, with greedy shrinking toward the minimal spec
//!   still tripping a given [`oracle`] verdict, and the lossless
//!   spec JSON codec behind the committed `corpus/` regression cases;
//! * [`oracle`] — [`oracle::FusionOracle`], the shared fusion-health
//!   oracle: covariance collapse/indefiniteness, divergence against
//!   an interleaved `f64` reference, innovation-gate livelock, retune
//!   thrash, saturation storms, link-fault storms and reconfiguration
//!   ledger violations, each a typed [`oracle::OracleVerdict`] with
//!   the first offending update index;
//! * [`replay`] — the deterministic record/replay layer: a
//!   [`replay::RecordingSink`] captures a session's event stream into
//!   a compact versioned [`replay::Recording`], and a
//!   [`replay::ReplaySource`] feeds it back bit-identically on every
//!   substrate (pinned by test);
//! * [`json`] — the dependency-free JSON tree shared by the bench
//!   reports and the fuzz corpus codec;
//! * [`scenario`] — the records around a run: [`ScenarioConfig`],
//!   the flat form a [`ScenarioSpec`] lowers to, and [`RunResult`],
//!   the Table-1/Figure-8/Figure-9 data a finished session yields;
//! * [`arith`] — the arithmetic substrates (native f64, emulated
//!   Softfloat with Sabre cycle accounting, saturating Q16.16 fixed
//!   point) with shared per-op instrumentation; the 5-state IEKF runs
//!   over any of them through [`spec::Substrate`] or
//!   [`SessionBuilder::iekf`];
//! * [`simd`] — the explicit-vector `f64` lane substrate
//!   ([`SimdArith`]) behind the same [`arith::Arith`] trait: SSE2
//!   packed doubles on x86_64 under the `simd` cargo feature, with a
//!   bit-identical portable fallback;
//! * [`fleet`] — the fleet-scale session server: thousands of
//!   concurrent vehicles packed into struct-of-arrays
//!   [`LaneIekf`] shard arenas behind bounded ingress queues,
//!   advanced in deterministic epochs over the [`exec`] pool, with
//!   mid-run admission, compacting eviction and per-vehicle bit
//!   identity to standalone scalar sessions;
//! * [`report`] — the shared per-vehicle summary type
//!   ([`report::VehicleSummary`]) the suite matrix and the fleet both
//!   emit, plus the streaming RMS accumulator behind it;
//! * [`smallmat`] — the substrate-generic small-matrix kernels the
//!   IEKF runs on (vector arithmetic, the closed-form 2x2 SPD inverse,
//!   the Cholesky check) and, for tests, the dense kernels the
//!   structured ones in [`filter`] are pinned against;
//! * [`system`] — the full Figure-2 system simulation: sensors, CAN,
//!   bridge, UARTs, reconstruction, fusion (the IEKF on Softfloat,
//!   priced in Sabre cycles), the Sabre soft core publishing to its
//!   control block, and affine video correction — a session over the
//!   [`session::CommsChainSource`] front end.
//!
//! # Quickstart
//!
//! Every run is described by a [`ScenarioSpec`]. [`ScenarioSpec::named`]
//! starts from the paper's static tilt-table test; the batch path runs
//! it to completion:
//!
//! ```
//! use boresight::spec::ScenarioSpec;
//! use mathx::EulerAngles;
//!
//! let result = ScenarioSpec::named("tilt-table")
//!     .with_truth(EulerAngles::from_degrees(2.0, -3.0, 1.5))
//!     .with_duration(30.0) // the paper records 300 s
//!     .run();
//! assert!(result.max_error_deg() < 0.5);
//! ```
//!
//! A [`FusionSession`] streams the same run incrementally — lower the
//! spec to one, step it as fast or as slowly as you like, and read the
//! estimate at any point. The paper's dynamic test is the same spec on
//! an urban drive with passenger-car vibration and dynamic tuning:
//!
//! ```
//! use boresight::spec::{EnvironmentSpec, ScenarioSpec, TrajectorySpec, TuningSpec};
//! use mathx::EulerAngles;
//!
//! let spec = ScenarioSpec::named("drive")
//!     .with_truth(EulerAngles::from_degrees(3.0, -2.0, 2.5))
//!     .with_trajectory(TrajectorySpec::Urban)
//!     .with_environment(EnvironmentSpec::passenger_car())
//!     .with_tuning(TuningSpec::Dynamic)
//!     .with_duration(30.0);
//! let mut session = spec.into_session(spec.lower_trajectory());
//! session.run_for(10.0);              // stream the first 10 s...
//! let early = session.estimate();     // ...peek at the estimate...
//! session.run_to_end();               // ...then finish the run
//! let result = session.into_result();
//! assert!(result.max_error_deg().is_finite());
//! assert!(early.updates < result.estimate.updates);
//! ```
//!
//! Workloads beyond the paper's two procedures come from the same
//! layer: compose a [`ScenarioSpec`], or pull a named one from the
//! [`catalog`], and lower it to a session (or sweep the whole
//! scenario × substrate matrix with [`spec::ScenarioSuite`]):
//!
//! ```
//! use boresight::catalog;
//!
//! let mut spec = catalog::by_name("emergency-brake").expect("catalog entry");
//! spec.duration_s = 30.0; // catalog entries default to full length
//! let result = spec.run();
//! assert!(result.max_error_deg().is_finite());
//! ```
//!
//! Several sessions — different scenarios, different arithmetic
//! backends — interleave on one thread through
//! [`session::SessionGroup`] (see `examples/streaming_sessions.rs`),
//! or fan out across cores with
//! [`spec::ScenarioSuite::run_parallel`] — sessions are `Send` and own
//! their trajectories, so whole cells run inside worker threads.

pub mod adaptive;
pub mod arith;
pub mod catalog;
pub mod estimator;
pub mod exec;
pub mod filter;
pub mod fleet;
pub mod fuzz;
pub mod json;
pub mod lanes;
pub mod model;
pub mod monitor;
pub mod oracle;
pub mod replay;
pub mod report;
pub mod scenario;
pub mod session;
pub mod simd;
pub mod smallmat;
pub mod spec;
pub mod system;

pub use adaptive::{
    AdaptiveBackend, ContextMonitor, ContextState, FrontierPoint, FrontierPolicy, HysteresisPolicy,
    PinnedPolicy, ReconfigEvent, ReconfigLedger, ReconfigPolicy, SubstrateId,
};
pub use arith::{
    Arith, F32Arith, F32ArithFast, F64Arith, F64ArithFast, LaneArith, LaneOps, LaneSpec, OpCounts,
    PhaseCost, PhaseLedger, QArith, SoftArith,
};
pub use estimator::{
    BoresightEstimator, EstimatorConfig, GenericBoresightEstimator, ImuPrep, MisalignmentEstimate,
};
pub use filter::{BoresightFilter, FilterConfig, GenericBoresightFilter, KalmanUpdate};
pub use fleet::{
    AdmitError, EpochProfile, EpochSample, EvictReason, EvictionPolicy, Fleet, FleetConfig,
    FleetStats, VehicleId,
};
pub use fuzz::{generate_spec, shrink, CorpusEntry, ShrinkOutcome};
pub use json::Json;
pub use lanes::{LaneBank, LaneIekf, LaneState};
pub use monitor::{MonitorConfig, ResidualMonitor, Retune};
pub use oracle::{FusionOracle, OracleConfig, OracleReport, OracleVerdict};
pub use replay::{
    record_spec, replay_spec_session, Recording, RecordingSink, ReplayRecord, ReplaySource,
};
pub use report::{RunningRms, VehicleSummary};
pub use scenario::{RunResult, ScenarioConfig};
pub use session::{
    ArithDivergence, ChannelConfig, CommsChainSource, EventSink, FusionBackend, FusionSession,
    IntoSharedTrajectory, LinkFaultConfig, SensorEvent, SensorSource, SessionBuilder, SessionGroup,
    SessionStats, SyntheticSource, UartReplaySource,
};
pub use simd::{F64Lanes, SimdArith, SimdF64};
pub use spec::{
    ChannelSpec, EnvironmentSpec, ScenarioSpec, ScenarioSuite, ScenarioTrajectory, Substrate,
    SuiteCell, SuiteReport, TrajectorySpec, TuningSpec, VibrationClass,
};
pub use system::{run_system, SystemConfig, SystemReport};
