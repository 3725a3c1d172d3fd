//! The 6-degree-of-freedom IMU ("DMU") model.
//!
//! Mirrors the BAE Systems DMU used in the paper: three orthogonal
//! ring-resonator gyroscopes and three capacitive accelerometers, fixed
//! to the vehicle, reporting over CAN at a fixed rate. The digital
//! interface quantities (16-bit words and their scale factors) are
//! defined here and consumed by the `comms` crate's CAN protocol.

use crate::accel::{AccelConfig, CapacitiveAccel};
use crate::gyro::{GyroConfig, RingGyro};
use mathx::{deg_to_rad, Dcm, EulerAngles, Vec3, STANDARD_GRAVITY};
use rand::Rng;

/// Full-scale angular rate represented by an i16 gyro word, rad/s.
pub const GYRO_WORD_FULL_SCALE: f64 = 200.0 * std::f64::consts::PI / 180.0;
/// Full-scale specific force represented by an i16 accel word, m/s^2.
pub const ACCEL_WORD_FULL_SCALE: f64 = 4.0 * STANDARD_GRAVITY;

/// DMU configuration.
#[derive(Clone, Copy, Debug)]
pub struct DmuConfig {
    /// Output message rate, Hz.
    pub sample_rate_hz: f64,
    /// Gyro channel configuration (applied to all three axes).
    pub gyro: GyroConfig,
    /// Accelerometer channel configuration (applied to all three axes).
    pub accel: AccelConfig,
    /// Small misalignment of the instrument triad relative to its case
    /// (mounting tolerance inside the unit).
    pub triad_misalignment: EulerAngles,
}

impl DmuConfig {
    /// An error-free DMU (useful in unit tests).
    pub fn ideal() -> Self {
        Self {
            sample_rate_hz: 100.0,
            gyro: GyroConfig {
                error: crate::ErrorModelConfig::ideal(),
                ..GyroConfig::default()
            },
            accel: AccelConfig {
                error: crate::ErrorModelConfig::ideal(),
                ..AccelConfig::default()
            },
            triad_misalignment: EulerAngles::zero(),
        }
    }
}

impl Default for DmuConfig {
    fn default() -> Self {
        Self {
            sample_rate_hz: 100.0,
            gyro: GyroConfig::default(),
            accel: AccelConfig::default(),
            // ~0.02 deg triad mounting tolerance.
            triad_misalignment: EulerAngles::from_degrees(0.02, -0.015, 0.01),
        }
    }
}

/// One DMU output message: calibrated engineering units plus the raw
/// 16-bit words that go on the CAN bus.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DmuSample {
    /// Message sequence counter (wraps at 2^16).
    pub seq: u16,
    /// Sample time, seconds since power-on.
    pub time_s: f64,
    /// Measured angular rate, body axes, rad/s.
    pub gyro: Vec3,
    /// Measured specific force, body axes, m/s^2.
    pub accel: Vec3,
}

impl DmuSample {
    /// Encodes the six channels as i16 words with the interface scale
    /// factors ([`GYRO_WORD_FULL_SCALE`], [`ACCEL_WORD_FULL_SCALE`]).
    pub fn to_words(&self) -> [i16; 6] {
        fn enc(x: f64, full_scale: f64) -> i16 {
            let w = (x / full_scale * 32768.0).round();
            w.clamp(-32768.0, 32767.0) as i16
        }
        [
            enc(self.gyro[0], GYRO_WORD_FULL_SCALE),
            enc(self.gyro[1], GYRO_WORD_FULL_SCALE),
            enc(self.gyro[2], GYRO_WORD_FULL_SCALE),
            enc(self.accel[0], ACCEL_WORD_FULL_SCALE),
            enc(self.accel[1], ACCEL_WORD_FULL_SCALE),
            enc(self.accel[2], ACCEL_WORD_FULL_SCALE),
        ]
    }

    /// Decodes six i16 words back to engineering units.
    pub fn from_words(seq: u16, time_s: f64, words: [i16; 6]) -> Self {
        fn dec(w: i16, full_scale: f64) -> f64 {
            w as f64 / 32768.0 * full_scale
        }
        Self {
            seq,
            time_s,
            gyro: Vec3::new([
                dec(words[0], GYRO_WORD_FULL_SCALE),
                dec(words[1], GYRO_WORD_FULL_SCALE),
                dec(words[2], GYRO_WORD_FULL_SCALE),
            ]),
            accel: Vec3::new([
                dec(words[3], ACCEL_WORD_FULL_SCALE),
                dec(words[4], ACCEL_WORD_FULL_SCALE),
                dec(words[5], ACCEL_WORD_FULL_SCALE),
            ]),
        }
    }
}

/// The 6-DOF IMU.
///
/// # Examples
///
/// ```
/// use mathx::{rng::seeded_rng, Vec3};
/// use sensors::{Dmu, DmuConfig};
///
/// let mut dmu = Dmu::new(DmuConfig::ideal());
/// let mut rng = seeded_rng(1);
/// let s = dmu.sample(Vec3::new([0.0, 0.0, 9.81]), Vec3::zeros(), &mut rng);
/// assert_eq!(s.seq, 0);
/// ```
#[derive(Clone, Debug)]
pub struct Dmu {
    config: DmuConfig,
    gyros: [RingGyro; 3],
    accels: [CapacitiveAccel; 3],
    // Body-to-triad rotation C_bt^T of the instrument mounting.
    body_to_triad: Dcm,
    seq: u16,
    time_s: f64,
}

impl Dmu {
    /// Creates a DMU from its configuration.
    pub fn new(config: DmuConfig) -> Self {
        let mut gyro_cfg = config.gyro;
        gyro_cfg.sample_rate_hz = config.sample_rate_hz;
        let mut accel_cfg = config.accel;
        accel_cfg.sample_rate_hz = config.sample_rate_hz;
        Self {
            config,
            gyros: [
                RingGyro::new(gyro_cfg),
                RingGyro::new(gyro_cfg),
                RingGyro::new(gyro_cfg),
            ],
            accels: [
                CapacitiveAccel::new(accel_cfg),
                CapacitiveAccel::new(accel_cfg),
                CapacitiveAccel::new(accel_cfg),
            ],
            body_to_triad: config.triad_misalignment.dcm().transpose(),
            seq: 0,
            time_s: 0.0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DmuConfig {
        &self.config
    }

    /// Sample interval, seconds.
    pub fn dt(&self) -> f64 {
        1.0 / self.config.sample_rate_hz
    }

    /// Produces one message from the true body-frame specific force
    /// (m/s^2) and angular rate (rad/s).
    pub fn sample<R: Rng + ?Sized>(
        &mut self,
        specific_force_body: Vec3,
        angular_rate_body: Vec3,
        rng: &mut R,
    ) -> DmuSample {
        // Instrument triad sees inputs through its own small mounting
        // rotation: v_triad = C_bt^T * v_body.
        let f_t = self.body_to_triad.rotate(specific_force_body);
        let w_t = self.body_to_triad.rotate(angular_rate_body);
        let gyro = Vec3::new([
            self.gyros[0].sample(w_t[0], rng),
            self.gyros[1].sample(w_t[1], rng),
            self.gyros[2].sample(w_t[2], rng),
        ]);
        let accel = Vec3::new([
            self.accels[0].sample(f_t[0], rng),
            self.accels[1].sample(f_t[1], rng),
            self.accels[2].sample(f_t[2], rng),
        ]);
        let sample = DmuSample {
            seq: self.seq,
            time_s: self.time_s,
            gyro,
            accel,
        };
        self.seq = self.seq.wrapping_add(1);
        self.time_s += self.dt();
        sample
    }

    /// Resets all channels and counters (power cycle).
    pub fn reset(&mut self) {
        for g in &mut self.gyros {
            g.reset();
        }
        for a in &mut self.accels {
            a.reset();
        }
        self.seq = 0;
        self.time_s = 0.0;
    }
}

/// Gyro word scale factor, rad/s per LSB.
pub fn gyro_lsb() -> f64 {
    GYRO_WORD_FULL_SCALE / 32768.0
}

/// Accelerometer word scale factor, m/s^2 per LSB.
pub fn accel_lsb() -> f64 {
    ACCEL_WORD_FULL_SCALE / 32768.0
}

/// Convenience: degrees/s to rad/s (re-export for protocol code).
pub fn dps_to_rps(dps: f64) -> f64 {
    deg_to_rad(dps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathx::rng::seeded_rng;

    #[test]
    fn sequence_and_time_advance() {
        let mut dmu = Dmu::new(DmuConfig::ideal());
        let mut rng = seeded_rng(1);
        let s0 = dmu.sample(Vec3::zeros(), Vec3::zeros(), &mut rng);
        let s1 = dmu.sample(Vec3::zeros(), Vec3::zeros(), &mut rng);
        assert_eq!(s0.seq, 0);
        assert_eq!(s1.seq, 1);
        assert!((s1.time_s - 0.01).abs() < 1e-12);
    }

    #[test]
    fn ideal_dmu_converges_to_truth() {
        let mut dmu = Dmu::new(DmuConfig::ideal());
        let mut rng = seeded_rng(2);
        let f = Vec3::new([0.3, -0.2, STANDARD_GRAVITY]);
        let w = Vec3::new([0.01, 0.02, -0.005]);
        let mut s = dmu.sample(f, w, &mut rng);
        for _ in 0..500 {
            s = dmu.sample(f, w, &mut rng);
        }
        assert!((s.accel - f).max_abs() < 1e-6, "{:?}", s.accel);
        assert!((s.gyro - w).max_abs() < 1e-6, "{:?}", s.gyro);
    }

    #[test]
    fn word_roundtrip_within_lsb() {
        let s = DmuSample {
            seq: 5,
            time_s: 0.05,
            gyro: Vec3::new([0.1, -0.5, 1.0]),
            accel: Vec3::new([1.0, -9.8, 20.0]),
        };
        let words = s.to_words();
        let back = DmuSample::from_words(5, 0.05, words);
        assert!((back.gyro - s.gyro).max_abs() <= gyro_lsb());
        assert!((back.accel - s.accel).max_abs() <= accel_lsb());
    }

    #[test]
    fn word_encoding_saturates() {
        let s = DmuSample {
            seq: 0,
            time_s: 0.0,
            gyro: Vec3::new([100.0, -100.0, 0.0]), // far beyond full scale
            accel: Vec3::new([1000.0, -1000.0, 0.0]),
        };
        let w = s.to_words();
        assert_eq!(w[0], 32767);
        assert_eq!(w[1], -32768);
        assert_eq!(w[3], 32767);
        assert_eq!(w[4], -32768);
    }

    #[test]
    fn triad_misalignment_rotates_inputs() {
        let mut cfg = DmuConfig::ideal();
        cfg.triad_misalignment = EulerAngles::from_degrees(0.0, 0.0, 90.0);
        let mut dmu = Dmu::new(cfg);
        let mut rng = seeded_rng(3);
        // Body x force appears on triad -y axis after settle
        // (C^T maps body x to triad -y for +90 yaw).
        let f = Vec3::new([1.0, 0.0, 0.0]);
        let mut s = dmu.sample(f, Vec3::zeros(), &mut rng);
        for _ in 0..500 {
            s = dmu.sample(f, Vec3::zeros(), &mut rng);
        }
        assert!(s.accel[0].abs() < 1e-6);
        assert!((s.accel[1] + 1.0).abs() < 1e-6, "{:?}", s.accel);
    }

    #[test]
    fn noisy_dmu_bounded_errors() {
        let mut dmu = Dmu::new(DmuConfig::default());
        let mut rng = seeded_rng(4);
        let f = Vec3::new([0.0, 0.0, STANDARD_GRAVITY]);
        let mut max_err = 0.0_f64;
        for _ in 0..1000 {
            let s = dmu.sample(f, Vec3::zeros(), &mut rng);
            max_err = max_err.max((s.accel - f).max_abs());
        }
        // Noise is a few mg: errors must stay well under 0.2 m/s^2.
        assert!(max_err > 0.0 && max_err < 0.2, "max err {max_err}");
    }

    #[test]
    fn reset_clears_counters() {
        let mut dmu = Dmu::new(DmuConfig::ideal());
        let mut rng = seeded_rng(5);
        for _ in 0..7 {
            dmu.sample(Vec3::zeros(), Vec3::zeros(), &mut rng);
        }
        dmu.reset();
        let s = dmu.sample(Vec3::zeros(), Vec3::zeros(), &mut rng);
        assert_eq!(s.seq, 0);
        assert_eq!(s.time_s, 0.0);
    }
}
