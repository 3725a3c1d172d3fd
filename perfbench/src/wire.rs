//! Pre-rendered serial byte streams for the `wire-replay` workload.
//!
//! Set-up drives each roster vehicle's instruments and pushes their
//! output through the public `comms` stages of Figure 2 — DMU samples
//! as CAN frames through the RS-232 bridge, ADXL202 duty cycles as eval
//! packets, both UARTs at line rate, then byte-level fault injection —
//! in exactly the order and with exactly the random draws of the
//! system's own `CommsChainSource`. Serving then feeds the captured
//! bytes through `UartReplaySource`, so reconstruction runs in the
//! serving path while the generator does not.

use boresight::session::{LinkFaultConfig, UartReplaySource};
use boresight::spec::ScenarioSpec;
use comms::{AdxlPacket, BridgeEncoder, DmuCanCodec, UartConfig, UartLink};
use mathx::{GaussianSampler, Vec2};
use sensors::{Adxl202, Adxl202Config, Dmu, Mounting};
use std::time::Instant;
use vehicle::{RoadVibration, Trajectory};

/// The `can-fault-storm` catalog entry's link-fault rates, applied to
/// every vehicle's links in `wire-replay`.
pub fn storm() -> LinkFaultConfig {
    LinkFaultConfig {
        bit_flip_prob: 0.002,
        drop_prob: 0.002,
        burst_prob: 0.0005,
        burst_len: 6,
    }
}

/// Wall time spent in each comms stage while rendering (traced set-up
/// only; the untraced set-up takes no timestamps).
#[derive(Clone, Copy, Default)]
pub struct StageTimes {
    pub encode_ns: u64,
    /// CAN frames plus ACC packets encoded.
    pub frames: u64,
    pub uart_ns: u64,
    /// Bytes delivered by the UART links.
    pub uart_bytes: u64,
    pub fault_ns: u64,
    /// Bytes passed through the fault injectors.
    pub fault_bytes: u64,
}

/// One vehicle's captured byte streams.
pub struct Rendered {
    pub spec: ScenarioSpec,
    dmu_rate_hz: f64,
    acc_rate_hz: f64,
    /// `(delivery time, is DMU link, bytes)` in delivery order.
    chunks: Vec<(f64, bool, Vec<u8>)>,
    /// Messages sent: DMU samples plus ACC packets.
    pub messages: u64,
}

impl Rendered {
    /// A fresh replay source over the captured bytes.
    pub fn source(&self) -> UartReplaySource {
        let mut source = UartReplaySource::new(self.dmu_rate_hz, self.acc_rate_hz);
        for (t, is_dmu, bytes) in &self.chunks {
            if *is_dmu {
                source.push_dmu_chunk(*t, bytes.clone());
            } else {
                source.push_acc_chunk(*t, bytes.clone());
            }
        }
        source
    }
}

/// Adds the time since `start` to the stage `pick` selects (traced
/// set-up only: both are `None` otherwise).
fn lap(
    times: &mut Option<&mut StageTimes>,
    start: Option<Instant>,
    pick: fn(&mut StageTimes) -> &mut u64,
) {
    if let (Some(times), Some(start)) = (times.as_deref_mut(), start) {
        *pick(times) += start.elapsed().as_nanos() as u64;
    }
}

/// Renders `spec`'s byte streams under `faults`. With `drain`, the UART
/// backlog left at the end of the stream is delivered too, so every
/// message sent reaches the wire.
pub fn render(
    spec: &ScenarioSpec,
    faults: LinkFaultConfig,
    drain: bool,
    mut times: Option<&mut StageTimes>,
) -> Rendered {
    let mut config = spec.config();
    config.link_faults = faults;
    let trajectory = spec.lower_trajectory();
    let mut rng = mathx::rng::seeded_rng(config.seed);
    let mut gauss = GaussianSampler::new();
    let mut dmu = Dmu::new(config.dmu);
    let mut acc_cfg = Adxl202Config::ideal();
    acc_cfg.sample_rate_hz = config.acc_rate_hz;
    acc_cfg.channel.error.noise_std = config.acc_noise_sigma;
    acc_cfg.timer_resolution_us = 0.5;
    let mut acc = Adxl202::new(acc_cfg);
    let mounting = Mounting::new(config.true_misalignment, config.estimator.lever_arm);
    let mut common_vib = RoadVibration::new(config.vibration);
    let mut diff_vib = RoadVibration::new(config.vibration);
    let mut bridge = BridgeEncoder::new();
    let mut dmu_link = UartLink::new(UartConfig::baud_38400());
    let mut acc_link = UartLink::new(UartConfig::baud_19200());
    let mut dmu_fault = faults.injector();
    let mut acc_fault = faults.injector();
    let faulty = !faults.is_clean();
    let acc_dt = 1.0 / config.acc_rate_hz;
    let dmu_every = (dmu.dt() / acc_dt).round().max(1.0) as usize;
    let steps = (config.duration_s / acc_dt).round() as usize;
    let timing = times.is_some();
    let now = || timing.then(Instant::now);

    let mut chunks = Vec::with_capacity(2 * steps);
    let mut messages = 0u64;
    let mut enc = Vec::new();
    let mut line = Vec::new();
    let mut faulted = Vec::new();
    let mut deliver = |t: f64,
                       is_dmu: bool,
                       link: &mut UartLink,
                       fault: &mut comms::FaultInjector,
                       rng: &mut rand::rngs::StdRng,
                       times: &mut Option<&mut StageTimes>| {
        let start = now();
        link.poll_into(acc_dt, &mut line);
        lap(times, start, |s| &mut s.uart_ns);
        if let Some(times) = times.as_deref_mut() {
            times.uart_bytes += line.len() as u64;
        }
        if line.is_empty() {
            return;
        }
        let bytes = if faulty {
            let start = now();
            fault.apply_into(&line, rng, &mut faulted);
            lap(times, start, |s| &mut s.fault_ns);
            if let Some(times) = times.as_deref_mut() {
                times.fault_bytes += line.len() as u64;
            }
            faulted.clone()
        } else {
            line.clone()
        };
        chunks.push((t, is_dmu, bytes));
    };

    for i in 0..steps {
        let t = i as f64 * acc_dt;
        let state = trajectory.sample(t);
        let speed = state.speed();
        let (df, dw) = common_vib.step(speed, &mut rng);
        let f_b = state.specific_force_body() + df;
        let w_b = state.angular_rate_b + dw;
        if i % dmu_every == 0 {
            let sample = dmu.sample(f_b, w_b, &mut rng);
            let start = now();
            for frame in DmuCanCodec::encode(&sample) {
                bridge.encode_into(&frame, &mut enc);
                dmu_link.send(&enc);
            }
            lap(&mut times, start, |s| &mut s.encode_ns);
            if let Some(times) = times.as_deref_mut() {
                times.frames += 2;
            }
            messages += 1;
        }
        let f_sensor = mounting.body_to_sensor(f_b, w_b, state.angular_accel_b);
        let (dfd, _) = diff_vib.step(speed, &mut rng);
        let input = Vec2::new([
            f_sensor[0]
                + config.differential_vibration * dfd[0]
                + config.true_acc_bias[0]
                + gauss.sample_scaled(&mut rng, 0.0, 0.0),
            f_sensor[1] + config.differential_vibration * dfd[1] + config.true_acc_bias[1],
        ]);
        let duty = acc.sample(input, &mut rng);
        let start = now();
        acc_link.send(&AdxlPacket::from_sample(&duty).to_bytes());
        lap(&mut times, start, |s| &mut s.encode_ns);
        if let Some(times) = times.as_deref_mut() {
            times.frames += 1;
        }
        messages += 1;
        deliver(t, true, &mut dmu_link, &mut dmu_fault, &mut rng, &mut times);
        deliver(
            t,
            false,
            &mut acc_link,
            &mut acc_fault,
            &mut rng,
            &mut times,
        );
    }
    if drain {
        let t = steps as f64 * acc_dt;
        while dmu_link.backlog() + acc_link.backlog() > 0 {
            deliver(t, true, &mut dmu_link, &mut dmu_fault, &mut rng, &mut times);
            deliver(
                t,
                false,
                &mut acc_link,
                &mut acc_fault,
                &mut rng,
                &mut times,
            );
        }
    }
    Rendered {
        spec: spec.clone(),
        dmu_rate_hz: 1.0 / dmu.dt(),
        acc_rate_hz: config.acc_rate_hz,
        chunks,
        messages,
    }
}
