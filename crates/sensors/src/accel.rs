//! Capacitive MEMS accelerometer model.
//!
//! Both the DMU's accelerometers and the ADXL202 sense acceleration as
//! the displacement of a spring-suspended proof mass, read out as a
//! change in differential capacitance between fixed plates and plates
//! attached to the mass. The proof-mass dynamics are a second-order
//! mass-spring-damper; the readout behaves as a low-pass filter whose
//! corner is the mechanical resonance (or the anti-alias filter of the
//! electronics, whichever is lower).
//!
//! The proof mass is integrated with semi-implicit Euler substeps of
//! `x'' = wn^2 (a - x) - 2 zeta wn x'`, enough of them per output sample
//! (`ceil(wn dt / 0.2)`) to stay stable at a resonance far above the
//! sample rate. The input is held across a sample, so one substep is an
//! affine map of `(x, x')` and the whole sample is their composition,
//! `[x, x'] <- M [x, x'] + g a`: [`CapacitiveAccel::new`] raises the
//! substep matrix to the substep count once (binary exponentiation) and
//! takes `g` from the rest point `(a, 0)` every substep preserves, and
//! each sample applies the map in two 3-term dot products. This is the
//! same discrete-time model; only the floating-point rounding differs,
//! by ~1e-14 m/s^2 — eleven orders below the quantization step of
//! either instrument (1.2e-3 m/s^2 for the DMU's 16-bit words), so a
//! quantized output word changes only if the true value falls within
//! that ~1e-14 of a step boundary: the catalog's quantized streams are
//! bit-identical to stepping the substeps one by one. Unquantized
//! channels (`ErrorModelConfig::ideal`) see the rounding difference.

use crate::error_model::{ErrorModelConfig, SensorErrorModel};
use mathx::{Mat2, STANDARD_GRAVITY};
use rand::Rng;

/// Capacitive accelerometer configuration.
#[derive(Clone, Copy, Debug)]
pub struct AccelConfig {
    /// Proof-mass natural frequency, Hz.
    pub natural_frequency_hz: f64,
    /// Damping ratio of the proof-mass suspension.
    pub damping_ratio: f64,
    /// Output sample rate, Hz.
    pub sample_rate_hz: f64,
    /// Channel error model (m/s^2 units).
    pub error: ErrorModelConfig,
}

impl AccelConfig {
    /// Datasheet-class defaults for a tactical-grade MEMS accelerometer
    /// channel as found in a DMU-style IMU (+/-4 g, ~1 kHz resonance,
    /// a few hundred ug/sqrt(Hz)).
    pub fn dmu_grade() -> Self {
        let g = STANDARD_GRAVITY;
        Self {
            natural_frequency_hz: 1_000.0,
            damping_ratio: 0.7,
            sample_rate_hz: 100.0,
            error: ErrorModelConfig {
                bias: 0.0,
                scale_factor_error: 0.0,
                noise_std: 300e-6 * g * (100.0_f64).sqrt(), // ~3 mg rms at 100 Hz
                bias_walk_std: 1e-6 * g,
                quantization: 4.0 * g / 32768.0, // 16-bit over +/-4 g
                range: 4.0 * g,
            },
        }
    }

    /// Consumer-grade defaults matching the ADXL202 datasheet
    /// (+/-2 g, ~500 ug/sqrt(Hz), ~50 Hz filtered bandwidth).
    pub fn adxl202_grade() -> Self {
        let g = STANDARD_GRAVITY;
        Self {
            natural_frequency_hz: 50.0, // set by the external filter caps
            damping_ratio: 0.7,
            sample_rate_hz: 200.0,
            error: ErrorModelConfig {
                bias: 0.0,
                scale_factor_error: 0.0,
                noise_std: 500e-6 * g * (200.0_f64).sqrt(),
                bias_walk_std: 2e-6 * g,
                quantization: 4.0 * g / 4096.0, // duty-cycle timer resolution
                range: 2.0 * g,
            },
        }
    }
}

impl Default for AccelConfig {
    fn default() -> Self {
        Self::dmu_grade()
    }
}

/// One capacitive accelerometer channel with second-order proof-mass
/// dynamics.
///
/// The per-sample update is the composed substep map
/// `[pos, vel] <- map * [pos, vel] + drive * a`, precomputed at
/// construction (see the module docs).
///
/// # Examples
///
/// ```
/// use mathx::rng::seeded_rng;
/// use sensors::{AccelConfig, CapacitiveAccel};
///
/// let mut accel = CapacitiveAccel::new(AccelConfig::default());
/// let mut rng = seeded_rng(1);
/// let mut y = 0.0;
/// for _ in 0..300 {
///     y = accel.sample(9.80665, &mut rng); // 1 g step
/// }
/// assert!((y - 9.80665).abs() < 0.05);
/// ```
#[derive(Clone, Debug)]
pub struct CapacitiveAccel {
    config: AccelConfig,
    // Proof-mass displacement normalized so that steady state equals
    // the input acceleration (x_norm = a for constant a).
    pos: f64,
    vel: f64,
    // One output sample of proof-mass dynamics: the state transition
    // and the input gain of all substeps composed.
    map: [[f64; 2]; 2],
    drive: [f64; 2],
    channel: SensorErrorModel,
}

impl CapacitiveAccel {
    /// Creates an accelerometer channel.
    ///
    /// # Panics
    ///
    /// Panics if the sample rate or natural frequency is not positive.
    pub fn new(config: AccelConfig) -> Self {
        assert!(config.sample_rate_hz > 0.0, "sample rate must be positive");
        assert!(
            config.natural_frequency_hz > 0.0,
            "natural frequency must be positive"
        );
        let map = *composed_substeps(&config).as_rows();
        Self {
            config,
            pos: 0.0,
            vel: 0.0,
            map,
            // A held input `a` rests the mass at `(a, 0)` through every
            // substep, so the input gain is `(I - map) e1` exactly.
            drive: [1.0 - map[0][0], -map[1][0]],
            channel: SensorErrorModel::new(config.error),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &AccelConfig {
        &self.config
    }

    /// Produces one output sample from the true specific force along
    /// this channel's axis (m/s^2).
    pub fn sample<R: Rng + ?Sized>(&mut self, true_accel: f64, rng: &mut R) -> f64 {
        let [m0, m1] = self.map;
        let (pos, vel) = (self.pos, self.vel);
        self.pos = m0[0] * pos + m0[1] * vel + self.drive[0] * true_accel;
        self.vel = m1[0] * pos + m1[1] * vel + self.drive[1] * true_accel;
        self.channel.apply(self.pos, rng)
    }

    /// Resets the proof-mass state and error-model state.
    pub fn reset(&mut self) {
        self.pos = 0.0;
        self.vel = 0.0;
        self.channel.reset();
    }
}

/// Substep count and substep length for one output sample: enough
/// semi-implicit Euler substeps that each spans at most 0.2 rad of the
/// resonance.
fn substep_schedule(config: &AccelConfig) -> (usize, f64) {
    let wn = 2.0 * std::f64::consts::PI * config.natural_frequency_hz;
    let dt = 1.0 / config.sample_rate_hz;
    let substeps = ((wn * dt / 0.2).ceil() as usize).max(1);
    (substeps, dt / substeps as f64)
}

/// The state transition of all substeps of one output sample: the
/// substep `vel += h (wn^2 (a - pos) - 2 zeta wn vel); pos += h vel`
/// with the input held at zero, raised to the substep count by binary
/// exponentiation.
fn composed_substeps(config: &AccelConfig) -> Mat2 {
    let wn = 2.0 * std::f64::consts::PI * config.natural_frequency_hz;
    let zeta = config.damping_ratio;
    let (mut n, h) = substep_schedule(config);
    let k = h * wn * wn;
    let c = 1.0 - 2.0 * zeta * wn * h;
    let mut base = Mat2::new([[1.0 - h * k, h * c], [-k, c]]);
    let mut out = Mat2::identity();
    while n > 0 {
        if n & 1 == 1 {
            out = out * base;
        }
        base = base * base;
        n >>= 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathx::rng::seeded_rng;
    use mathx::RunningStats;
    use rand::RngExt;

    fn noiseless_config() -> AccelConfig {
        AccelConfig {
            error: ErrorModelConfig::ideal(),
            ..AccelConfig::default()
        }
    }

    /// One sample of proof-mass dynamics by stepping the semi-implicit
    /// Euler substeps one at a time: the reference the composed map must
    /// reproduce.
    fn reference_sample(config: &AccelConfig, pos: &mut f64, vel: &mut f64, true_accel: f64) {
        let wn = 2.0 * std::f64::consts::PI * config.natural_frequency_hz;
        let zeta = config.damping_ratio;
        let dt = 1.0 / config.sample_rate_hz;
        let substeps = ((wn * dt / 0.2).ceil() as usize).max(1);
        let h = dt / substeps as f64;
        for _ in 0..substeps {
            let acc = wn * wn * (true_accel - *pos) - 2.0 * zeta * wn * *vel;
            *vel += acc * h;
            *pos += *vel * h;
        }
    }

    fn assert_matches_reference(config: AccelConfig, substeps: usize) {
        assert_eq!(substep_schedule(&config).0, substeps);
        let mut accel = CapacitiveAccel::new(config);
        let (mut pos, mut vel) = (0.0, 0.0);
        let mut inputs = seeded_rng(7);
        let mut rng = seeded_rng(8);
        let mut hold = 0.0;
        let mut worst = 0.0_f64;
        for i in 0..20_000 {
            if i % 50 == 0 {
                hold = inputs.random_range(-20.0..20.0);
            }
            let a = hold + 0.05 * (i as f64 * 0.3).sin();
            reference_sample(&config, &mut pos, &mut vel, a);
            let y = accel.sample(a, &mut rng);
            assert_eq!(y, accel.pos);
            worst = worst.max((accel.pos - pos).abs());
        }
        assert!(
            worst <= 1e-12,
            "{substeps} substeps: |dpos| up to {worst:e}"
        );
    }

    #[test]
    fn composed_map_matches_substep_loop_dmu_grade() {
        assert_matches_reference(noiseless_config(), 315);
    }

    #[test]
    fn composed_map_matches_substep_loop_adxl_grade() {
        let config = AccelConfig {
            error: ErrorModelConfig::ideal(),
            ..AccelConfig::adxl202_grade()
        };
        assert_matches_reference(config, 8);
    }

    #[test]
    fn held_input_state_never_goes_subnormal() {
        // Stepping the substeps one by one, the velocity of a held 1 g
        // channel sticks at a subnormal and every later step runs on
        // subnormal arithmetic.
        let mut accel = CapacitiveAccel::new(noiseless_config());
        let mut rng = seeded_rng(8);
        for i in 0..50 {
            accel.sample(STANDARD_GRAVITY, &mut rng);
            assert!(
                !accel.pos.is_subnormal() && !accel.vel.is_subnormal(),
                "sample {i}: pos {:e} vel {:e}",
                accel.pos,
                accel.vel
            );
        }
    }

    #[test]
    fn settles_to_constant_input() {
        let mut accel = CapacitiveAccel::new(noiseless_config());
        let mut rng = seeded_rng(1);
        let mut y = 0.0;
        for _ in 0..1000 {
            y = accel.sample(3.0, &mut rng);
        }
        assert!((y - 3.0).abs() < 1e-9, "settled {y}");
    }

    #[test]
    fn zero_input_zero_output() {
        let mut accel = CapacitiveAccel::new(noiseless_config());
        let mut rng = seeded_rng(1);
        for _ in 0..100 {
            assert_eq!(accel.sample(0.0, &mut rng), 0.0);
        }
    }

    #[test]
    fn noise_floor_matches_config() {
        let mut cfg = noiseless_config();
        cfg.error.noise_std = 0.01;
        let mut accel = CapacitiveAccel::new(cfg);
        let mut rng = seeded_rng(2);
        let mut stats = RunningStats::new();
        for _ in 0..20_000 {
            stats.push(accel.sample(0.0, &mut rng));
        }
        assert!((stats.std_dev() - 0.01).abs() < 1e-3);
    }

    #[test]
    fn adxl_range_saturates_at_2g() {
        let mut cfg = AccelConfig::adxl202_grade();
        cfg.error.noise_std = 0.0;
        cfg.error.quantization = 0.0;
        cfg.error.bias_walk_std = 0.0;
        let mut accel = CapacitiveAccel::new(cfg);
        let mut rng = seeded_rng(3);
        let mut y = 0.0;
        for _ in 0..2000 {
            y = accel.sample(5.0 * STANDARD_GRAVITY, &mut rng);
        }
        assert!((y - 2.0 * STANDARD_GRAVITY).abs() < 1e-9);
    }

    #[test]
    fn low_bandwidth_lags_fast_steps() {
        // ADXL-grade channel (50 Hz corner) responds slower than the
        // 1 kHz DMU channel to the same step.
        let mut slow = CapacitiveAccel::new(AccelConfig {
            error: ErrorModelConfig::ideal(),
            ..AccelConfig::adxl202_grade()
        });
        let mut fast = CapacitiveAccel::new(noiseless_config());
        let mut rng = seeded_rng(4);
        let ys = slow.sample(1.0, &mut rng);
        let yf = fast.sample(1.0, &mut rng);
        assert!(ys < yf, "slow {ys} fast {yf}");
    }

    #[test]
    fn stable_for_high_resonance() {
        // wn*dt = 2*pi*1000/100 = 62.8: the composed map of 315 substeps
        // must stay a contraction rather than blow up.
        let mut accel = CapacitiveAccel::new(noiseless_config());
        let mut rng = seeded_rng(5);
        for _ in 0..1000 {
            let y = accel.sample(1.0, &mut rng);
            assert!(y.is_finite() && y.abs() < 10.0);
        }
    }

    #[test]
    fn reset_restores_rest() {
        let mut accel = CapacitiveAccel::new(noiseless_config());
        let mut rng = seeded_rng(6);
        for _ in 0..50 {
            accel.sample(2.0, &mut rng);
        }
        accel.reset();
        assert_eq!(accel.sample(0.0, &mut rng), 0.0);
    }
}
