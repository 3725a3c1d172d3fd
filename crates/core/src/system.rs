//! End-to-end system simulation: Figure 2 and Figure 3 as one loop.
//!
//! Composes every substrate in the workspace the way the paper wires
//! the hardware:
//!
//! ```text
//! vehicle --> DMU --CAN frames--> bridge --UART 38400--> |        |
//!         --> ACC --eval packets--------UART 19200-----> | recon- | --> fusion
//!                                                        | struct |      |
//!   Sabre soft-core <---- mailbox <------ estimate <-----+--------+------+
//!      | (program copies results to the control block)
//!      v
//!  control block (Q16.16 angles) --> affine video correction --> PSNR
//! ```
//!
//! The session's own 5-state IEKF runs on Softfloat (bit-identical to
//! native `f64`), so the Kalman software budget is its exact Sabre
//! cycle ledger — the IMU front end included — per second of stream
//! (see [`SystemReport::kalman_cpu_utilization`]).

use crate::arith::{Arith, SoftArith};
use crate::estimator::{GenericBoresightEstimator, MisalignmentEstimate};
use crate::scenario::ScenarioConfig;
use crate::session::{CommsChainSource, EventSink, FusionSession, IntoSharedTrajectory};
use crate::spec::{EnvironmentSpec, ScenarioSpec, TuningSpec};
use comms::StreamStats;
use fpga::fixed::Q16_16;
use fpga::pipeline::FrameTiming;
use fpga::sabre::{assemble, ControlBlock, ControlReg, Sabre, StopReason, CONTROL_BASE};
use mathx::{rad_to_deg, EulerAngles};
use std::sync::{Arc, Mutex};
use video::{
    affine::{transform, MappingKind},
    camera::CameraModel,
    metrics::psnr,
    scene,
};

/// The Sabre program that publishes fused results: it copies the
/// mailbox the fusion software fills (data memory, word address 64)
/// into the memory-mapped control block and sets the valid flag —
/// the role `SabreControlRun` plays in the paper's Figure 7.
const PUBLISH_PROGRAM: &str = "
        ; mailbox layout at byte 256 (word 64):
        ;   +0 valid, +4 roll, +8 pitch, +12 yaw (Q16.16 rad)
        ;   +16..+24 three 1-sigma values (Q16.16 rad), +28 count
        lw   r1, 256(r0)
        beq  r1, r0, done       ; no new result
        lui  r2, 0x8000
        ori  r2, r2, 0x60       ; control block base
        lw   r3, 260(r0)
        sw   r3, 0(r2)          ; roll
        lw   r3, 264(r0)
        sw   r3, 4(r2)          ; pitch
        lw   r3, 268(r0)
        sw   r3, 8(r2)          ; yaw
        lw   r3, 272(r0)
        sw   r3, 12(r2)         ; roll sigma
        lw   r3, 276(r0)
        sw   r3, 16(r2)         ; pitch sigma
        lw   r3, 280(r0)
        sw   r3, 20(r2)         ; yaw sigma
        lw   r3, 284(r0)
        sw   r3, 28(r2)         ; update count
        addi r4, r0, 1
        sw   r4, 24(r2)         ; status: result valid
        sw   r0, 256(r0)        ; consume the mailbox
done:   halt
";

/// System-level configuration.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// The underlying scenario (truth, sensors, filter tuning).
    pub scenario: ScenarioConfig,
    /// Video frame size for the correction experiment.
    pub frame_size: (u32, u32),
    /// Camera focal length, pixels.
    pub focal_px: f64,
    /// Sabre core clock, Hz (the paper does not quote one; 25 MHz is
    /// typical for a soft core on a Virtex-II).
    pub sabre_clock_hz: f64,
    /// How often the fusion result is published to the control block.
    pub publish_interval_s: f64,
}

impl SystemConfig {
    /// A dynamic-drive system test with the given truth: the paper's
    /// dynamic environment and tuning on the baseline seed. Run it
    /// against a drive profile.
    pub fn demo(true_misalignment: EulerAngles) -> Self {
        Self::from_spec(
            &ScenarioSpec::named("system-demo")
                .with_truth(true_misalignment)
                .with_environment(EnvironmentSpec::passenger_car())
                .with_tuning(TuningSpec::Dynamic),
        )
    }

    /// The demo system over a declarative scenario: the spec's lowered
    /// [`ScenarioConfig`] (truth, environment, tuning, link faults)
    /// drives the full Figure-2 simulation, so any catalog entry can.
    /// Run it against [`ScenarioSpec::lower_trajectory`].
    pub fn from_spec(spec: &ScenarioSpec) -> Self {
        Self {
            scenario: spec.config(),
            frame_size: (160, 120),
            focal_px: 300.0,
            sabre_clock_hz: 25e6,
            publish_interval_s: 0.2,
        }
    }
}

impl Default for SystemConfig {
    /// The demo system with no injected misalignment.
    fn default() -> Self {
        Self::demo(EulerAngles::zero())
    }
}

/// Everything the system run reports.
#[derive(Clone, Debug)]
pub struct SystemReport {
    /// Injected truth.
    pub truth: EulerAngles,
    /// Final fused estimate.
    pub estimate: MisalignmentEstimate,
    /// Per-axis error, degrees.
    pub error_deg: [f64; 3],
    /// Serial-link/reconstruction statistics.
    pub stream: StreamStats,
    /// Sabre cycles spent on publish-program executions.
    pub sabre_cycles: u64,
    /// Sabre instructions retired on publishes.
    pub sabre_instructions: u64,
    /// Softfloat cycles the deployed 5-state IEKF spent per ACC sample
    /// it was offered (accepted or gate-rejected), its IMU front end
    /// included.
    pub kalman_cycles_per_update: f64,
    /// Softfloat float ops per ACC sample of the same filter.
    pub kalman_ops_per_update: f64,
    /// Fraction of the Sabre clock the deployed filter needs: its
    /// cycles per second of stream over the clock (< 1.0 means it runs
    /// in real time).
    pub kalman_cpu_utilization: f64,
    /// Angles read back from the control block (Q16.16-quantized).
    pub control_angles_deg: [f64; 3],
    /// PSNR of the misaligned camera view vs the reference, dB.
    pub psnr_misaligned_db: f64,
    /// PSNR after correction with the published estimate, dB.
    pub psnr_corrected_db: f64,
    /// Video pipeline frame-rate budget at the pixel clock.
    pub video_fps_budget: f64,
    /// Holes the paper-faithful forward mapping left in one frame.
    pub forward_holes: u64,
}

/// Publishes each estimate through the Sabre soft core into the
/// memory-mapped control block — the paper's Figure-7 path — as an
/// [`EventSink`] on the fusion stream.
pub struct SabrePublishSink {
    cpu: Sabre,
    program: Vec<u32>,
    interval_s: f64,
    next_publish: f64,
    publishes: u64,
}

impl SabrePublishSink {
    /// Builds the sink, assembling the publish program.
    pub fn new(interval_s: f64) -> Self {
        let program = assemble(PUBLISH_PROGRAM).expect("publish program assembles");
        Self {
            cpu: Sabre::with_standard_bus(),
            program: program.words,
            interval_s,
            next_publish: interval_s,
            publishes: 0,
        }
    }

    /// Writes an estimate into the Sabre mailbox and runs the publish
    /// program, which copies it to the control block.
    fn publish(&mut self, est: &MisalignmentEstimate) {
        let q = |x: f64| Q16_16::from_f64(x).raw() as u32;
        self.cpu.write_data_word(256, 1);
        self.cpu.write_data_word(260, q(est.angles.roll));
        self.cpu.write_data_word(264, q(est.angles.pitch));
        self.cpu.write_data_word(268, q(est.angles.yaw));
        self.cpu.write_data_word(272, q(est.one_sigma[0]));
        self.cpu.write_data_word(276, q(est.one_sigma[1]));
        self.cpu.write_data_word(280, q(est.one_sigma[2]));
        self.cpu.write_data_word(284, est.updates as u32);
        self.cpu.load_program(&self.program);
        let stop = self.cpu.run(10_000);
        debug_assert_eq!(stop, StopReason::Halted);
        self.publishes += 1;
    }

    /// Angles read back from the control block (Q16.16-quantized).
    pub fn control_angles(&mut self) -> EulerAngles {
        let control = self
            .cpu
            .bus
            .device_at(CONTROL_BASE)
            .expect("control mapped")
            .as_any()
            .downcast_mut::<ControlBlock>()
            .expect("control block type");
        let qa = control.angles_q16();
        let _valid = control.result_valid();
        let _count = control.reg(ControlReg::UpdateCount);
        EulerAngles::new(
            Q16_16::from_raw(qa[0]).to_f64(),
            Q16_16::from_raw(qa[1]).to_f64(),
            Q16_16::from_raw(qa[2]).to_f64(),
        )
    }

    /// Sabre cycles spent on publish-program executions.
    pub fn cycles(&self) -> u64 {
        self.cpu.cycles()
    }

    /// Sabre instructions retired on publishes.
    pub fn instructions(&self) -> u64 {
        self.cpu.instructions()
    }

    /// Publish-program executions so far.
    pub fn publishes(&self) -> u64 {
        self.publishes
    }
}

impl EventSink for SabrePublishSink {
    fn on_time(&mut self, time_s: f64, estimate: &MisalignmentEstimate) {
        // Scheduled on the session clock, not on updates, so publishes
        // keep firing through a sensor-stream drought (UART error
        // burst, reconstruction gap) just as the hardware would.
        if time_s >= self.next_publish {
            self.next_publish += self.interval_s;
            self.publish(estimate);
        }
    }

    fn on_finish(&mut self, estimate: &MisalignmentEstimate) {
        // Final publish so the control block reflects the end-of-run
        // estimate (the video correction uses it).
        self.publish(estimate);
    }
}

/// Runs the full system against a trajectory.
///
/// Compat shim over the session layer: the event loop lives in
/// [`FusionSession`]; this wrapper wires the [`CommsChainSource`]
/// front end, the production estimator on Softfloat and the Sabre
/// publish sink together, then performs the end-of-run
/// video-correction experiment and assembles the [`SystemReport`].
pub fn run_system(trajectory: impl IntoSharedTrajectory, config: &SystemConfig) -> SystemReport {
    let sc = &config.scenario;
    let sabre = Arc::new(Mutex::new(SabrePublishSink::new(config.publish_interval_s)));
    let mut session = FusionSession::builder()
        .source(CommsChainSource::from_scenario(trajectory, sc))
        .iekf(SoftArith::default(), sc.estimator)
        .truth(sc.true_misalignment)
        .sink(Arc::clone(&sabre))
        .build();
    session.run_to_end();

    let stream = session.stream_stats().expect("comms chain has stats");
    let estimate = session.estimate();
    let control_angles = sabre.lock().expect("sabre sink lock").control_angles();

    // Video correction experiment with the published (quantized) angles.
    let (w, h) = config.frame_size;
    let reference = scene::road(w, h, 0.25);
    let camera = CameraModel::new(config.focal_px, sc.true_misalignment);
    let seen = camera.observe(&reference);
    let correction = CameraModel::correction(&control_angles, config.focal_px, w, h);
    let (corrected, _) = transform(&seen, &correction, MappingKind::FixedInverse);
    let margin = (w / 8).max(8);
    let crop = |f: &video::Frame| f.crop(margin, margin, w - 2 * margin, h - 2 * margin);
    let psnr_mis = psnr(&crop(&reference), &crop(&seen));
    let psnr_cor = psnr(&crop(&reference), &crop(&corrected));
    let (_, fwd_stats) = transform(&seen, &correction, MappingKind::FixedForward);

    // Kalman software budget: the deployed filter's own ledger.
    let filter = session
        .backend_as::<GenericBoresightEstimator<SoftArith>>()
        .expect("softfloat IEKF backend")
        .filter();
    let samples = (filter.update_count() + filter.rejected_count()).max(1) as f64;
    let (cycles, ops) = (filter.arith().cycles(), filter.arith().counts().total());
    let utilization = cycles as f64 / session.time_s() / config.sabre_clock_hz;

    let error = estimate.angles.error_to(&sc.true_misalignment);
    let timing = FrameTiming {
        width: w,
        height: h,
        clock_hz: 65e6,
    };
    let sabre = sabre.lock().expect("sabre sink lock");

    SystemReport {
        truth: sc.true_misalignment,
        estimate,
        error_deg: [
            rad_to_deg(error.roll),
            rad_to_deg(error.pitch),
            rad_to_deg(error.yaw),
        ],
        stream,
        sabre_cycles: sabre.cycles(),
        sabre_instructions: sabre.instructions(),
        kalman_cycles_per_update: cycles as f64 / samples,
        kalman_ops_per_update: ops as f64 / samples,
        kalman_cpu_utilization: utilization,
        control_angles_deg: control_angles.to_degrees(),
        psnr_misaligned_db: psnr_mis,
        psnr_corrected_db: psnr_cor,
        video_fps_budget: timing.max_fps(),
        forward_holes: fwd_stats.holes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathx::Vec3;

    fn quick_config() -> SystemConfig {
        let mut cfg = SystemConfig::demo(EulerAngles::from_degrees(2.0, -1.5, 2.5));
        cfg.scenario.duration_s = 40.0;
        cfg
    }

    #[test]
    fn sabre_publishes_on_wall_clock_even_without_updates() {
        // The publish schedule is driven by the session clock, not by
        // filter updates, so a sensor-stream drought does not stall the
        // control block (the pre-session batch loop behaved this way).
        let mut sink = SabrePublishSink::new(0.2);
        let est = MisalignmentEstimate {
            angles: EulerAngles::zero(),
            one_sigma: Vec3::zeros(),
            updates: 0,
        };
        for i in 1..=100 {
            sink.on_time(i as f64 * 0.01, &est); // 1 s of ticks, zero updates
        }
        assert_eq!(sink.publishes(), 5);
    }

    #[test]
    fn system_config_from_spec_carries_the_scenario() {
        let spec = crate::catalog::can_fault_storm().with_duration(25.0);
        let cfg = SystemConfig::from_spec(&spec);
        assert_eq!(cfg.scenario.duration_s, 25.0);
        assert!(!cfg.scenario.link_faults.is_clean());
        let trajectory = spec.lower_trajectory();
        let report = run_system(&trajectory, &cfg);
        // The fault storm damages frames; the checksums must catch it
        // and the estimate must survive.
        assert!(report.stream.fault_bits_flipped > 0);
        assert!(report.stream.dmu_errors + report.stream.acc_errors > 0);
        assert!(report.estimate.angles.max_abs().is_finite());
    }

    #[test]
    fn end_to_end_system_converges() {
        let cfg = quick_config();
        let profile = vehicle::profile::presets::urban_drive(cfg.scenario.duration_s);
        let report = run_system(&profile, &cfg);
        // Convergence through the full serial + quantization chain.
        for (axis, err) in ["roll", "pitch", "yaw"].iter().zip(report.error_deg) {
            assert!(err.abs() < 1.0, "{axis} error {err} deg");
        }
        // Clean links: no CRC errors on a clean channel.
        assert_eq!(report.stream.dmu_errors, 0);
        assert_eq!(report.stream.acc_errors, 0);
        assert!(report.stream.dmu_samples > 1000);
        assert!(report.stream.acc_samples > 2000);
    }

    #[test]
    fn control_block_reflects_estimate() {
        let cfg = quick_config();
        let profile = vehicle::profile::presets::urban_drive(cfg.scenario.duration_s);
        let report = run_system(&profile, &cfg);
        // The control block holds the last published estimate,
        // quantized to Q16.16 (resolution ~ 0.0009 deg).
        for (c, e) in report
            .control_angles_deg
            .iter()
            .zip(report.estimate.angles.to_degrees())
        {
            assert!((c - e).abs() < 0.01, "{c} vs {e}");
        }
        assert!(report.sabre_cycles > 0);
        assert!(report.sabre_instructions > 0);
    }

    #[test]
    fn video_correction_improves_psnr() {
        let cfg = quick_config();
        let profile = vehicle::profile::presets::urban_drive(cfg.scenario.duration_s);
        let report = run_system(&profile, &cfg);
        assert!(
            report.psnr_corrected_db > report.psnr_misaligned_db + 3.0,
            "misaligned {:.1} dB corrected {:.1} dB",
            report.psnr_misaligned_db,
            report.psnr_corrected_db
        );
        assert!(report.video_fps_budget > 25.0);
    }

    #[test]
    fn kalman_fits_sabre_realtime_budget() {
        let cfg = quick_config();
        let profile = vehicle::profile::presets::urban_drive(cfg.scenario.duration_s);
        let report = run_system(&profile, &cfg);
        assert!(report.kalman_cycles_per_update > 1000.0);
        assert!(report.kalman_ops_per_update > 50.0);
        assert!(
            report.kalman_cpu_utilization < 1.0,
            "Kalman does not fit: {}",
            report.kalman_cpu_utilization
        );
    }
}
