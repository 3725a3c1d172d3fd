//! # sensor-fusion-fpga
//!
//! A full reproduction of Chappell et al., *"Exploiting real-time FPGA
//! based adaptive systems technology for real-time Sensor Fusion in
//! next generation automotive safety systems"* (DATE 2005): Kalman-
//! filter boresighting of automotive sensors with every substrate the
//! paper's demonstrator depends on, built from scratch in Rust.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`math`] | `mathx` | vectors/matrices, rotations, Cholesky, statistics |
//! | [`sensor`] | `sensors` | DMU 6-DOF IMU and ADXL202 models |
//! | [`motion`] | `vehicle` | drive profiles, tilt table, road vibration |
//! | [`comm`] | `comms` | CAN 2.0A, UART, bridge, stream reconstruction |
//! | [`hw`] | `fpga` | Sabre soft core, Softfloat, fixed point, pipeline |
//! | [`vision`] | `video` | frames, scenes, camera model, affine paths |
//! | [`fusion`] | `boresight` | the paper's sensor-fusion contribution |
//!
//! # Quickstart
//!
//! Every run is described by a [`fusion::spec::ScenarioSpec`]:
//! `ScenarioSpec::named` starts from the paper's static tilt-table
//! test, and the fluent `with_*` setters change truth, duration, seed,
//! trajectory, environment, tuning, channel or arithmetic substrate:
//!
//! ```
//! use sensor_fusion_fpga::fusion::spec::ScenarioSpec;
//! use sensor_fusion_fpga::math::EulerAngles;
//!
//! let result = ScenarioSpec::named("tilt-table")
//!     .with_truth(EulerAngles::from_degrees(2.0, -3.0, 1.5))
//!     .with_duration(30.0)
//!     .run();
//! assert!(result.max_error_deg() < 0.5);
//! ```
//!
//! Fusion runs are *streaming sessions*: a spec lowers to a
//! [`fusion::FusionSession`] that wires a sensor source, a fusion
//! backend and any sinks around one incremental event loop, and you
//! step it as coarsely or finely as you like:
//!
//! ```
//! use sensor_fusion_fpga::fusion::spec::ScenarioSpec;
//! use sensor_fusion_fpga::math::EulerAngles;
//!
//! let spec = ScenarioSpec::named("tilt-table")
//!     .with_truth(EulerAngles::from_degrees(2.0, -3.0, 1.5))
//!     .with_duration(30.0);
//! let mut session = spec.into_session(spec.lower_trajectory());
//! session.run_for(10.0);          // stream the first 10 s
//! assert!(session.estimate().updates > 0);
//! session.run_to_end();
//! assert!(session.into_result().max_error_deg() < 0.5);
//! ```
//!
//! Named workloads — the paper's two procedures plus drive styles,
//! road surfaces, vehicle classes and channel-fault storms — come from
//! [`fusion::catalog`] (sweep the whole scenario × substrate matrix
//! with [`fusion::spec::ScenarioSuite`]):
//!
//! ```
//! use sensor_fusion_fpga::fusion::catalog;
//!
//! let mut spec = catalog::by_name("emergency-brake").expect("catalog entry");
//! spec.duration_s = 30.0;
//! assert!(spec.run().max_error_deg().is_finite());
//! ```
//!
//! Many sessions — different scenarios, different arithmetic backends
//! ([`fusion::arith`]) — interleave on one thread via
//! [`fusion::SessionGroup`]; see `examples/streaming_sessions.rs` and
//! `examples/scenario_catalog.rs`.

pub use boresight as fusion;
pub use comms as comm;
pub use fpga as hw;
pub use mathx as math;
pub use sensors as sensor;
pub use vehicle as motion;
pub use video as vision;
