//! Deterministic record/replay of fusion sessions.
//!
//! A [`FusionSession`] backend is a pure function of the event stream
//! it ingests: feed it the identical [`SensorEvent`]s in the identical
//! order and every update, retune and estimate reproduces bit for bit,
//! on every arithmetic substrate. This module captures that stream:
//!
//! * [`RecordingSink`] — an [`EventSink`] that logs every timestamped
//!   sensor event (plus the retunes the backend fired) as it streams
//!   by; attach it via `Arc<Mutex<_>>` to keep a read-back handle;
//! * [`Recording`] — the captured stream with a compact **versioned**
//!   binary serialization ([`Recording::to_bytes`] /
//!   [`Recording::from_bytes`]); `f64` payloads are stored as raw IEEE
//!   bits, so the file round-trips exactly;
//! * [`ReplaySource`] — a [`SensorSource`] that re-emits the recorded
//!   events in recorded order, gated by their timestamps, so a
//!   replayed session is **pinned bit-identical** to the original
//!   (estimate trace, residuals, retunes and the final
//!   [`StreamStats`]) — the property `tests/replay_pin.rs` asserts
//!   for every catalog scenario on every substrate;
//! * [`record_spec`] / [`replay_spec_session`] — the one-call paths
//!   the fuzz campaign and the regression corpus use: run a
//!   [`ScenarioSpec`] once while recording, then rebuild the exact run
//!   from the file, with the live synthetic/comms front end replaced
//!   by the recording.
//!
//! Retunes and substrate switches are stored as *annotations*: replay
//! re-derives them from the event stream (and the corpus test checks
//! they match), but a recording alone is enough to triage a failure
//! without re-running the generator.

use crate::adaptive::AdaptiveBackend;
use crate::monitor::Retune;
use crate::scenario::RunResult;
use crate::session::{
    EventSink, FusionSession, IntoSharedTrajectory, SensorEvent, SensorSource, TIME_EPS,
};
use crate::spec::ScenarioSpec;
use comms::StreamStats;
use mathx::{Vec2, Vec3};
use sensors::DmuSample;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Serialization version written to every recording header.
pub const FORMAT_VERSION: u16 = 1;

/// File magic, first four bytes of every recording.
pub const MAGIC: [u8; 4] = *b"BRSR";

/// One substrate switch, as annotated onto a recording (a flat,
/// serializable mirror of [`crate::adaptive::ReconfigEvent`] — the
/// policy context window is not replayed, only the decision).
#[derive(Clone, Debug, PartialEq)]
pub struct SwitchRecord {
    /// Stream time of the decision, seconds.
    pub at_time_s: f64,
    /// Accepted updates completed when the switch happened.
    pub at_update: u64,
    /// Outgoing substrate label (e.g. `q16.16`).
    pub from: String,
    /// Incoming substrate label.
    pub to: String,
    /// The policy that fired.
    pub reason: String,
    /// Modelled snapshot-transfer cycles charged.
    pub transfer_cycles: u64,
}

/// One record of the captured stream, in dispatch order.
#[derive(Clone, Debug, PartialEq)]
pub enum ReplayRecord {
    /// A timestamped sensor event (the replayed payload).
    Event(SensorEvent),
    /// A retune the backend's monitor fired (annotation).
    Retune(Retune),
    /// A substrate switch the adaptive supervisor performed
    /// (annotation, stamped post-run from the reconfiguration ledger).
    Switch(SwitchRecord),
}

/// A captured session stream plus enough header data to rebuild the
/// source side of the run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Recording {
    /// The original source's natural step, seconds.
    pub dt: f64,
    /// The original source's total duration, seconds.
    pub duration_s: f64,
    /// Final serial-link statistics of the original source, if it ran
    /// through a comms chain (replay surfaces these verbatim, so
    /// stream-stats consumers see the identical numbers).
    pub stream_stats: Option<StreamStats>,
    /// The stream, in dispatch order.
    pub records: Vec<ReplayRecord>,
}

impl Recording {
    /// An empty recording for a source with the given step/duration.
    pub fn new(dt: f64, duration_s: f64) -> Self {
        Self {
            dt,
            duration_s,
            stream_stats: None,
            records: Vec::new(),
        }
    }

    /// The recorded sensor events, in dispatch order.
    pub fn events(&self) -> impl Iterator<Item = &SensorEvent> {
        self.records.iter().filter_map(|r| match r {
            ReplayRecord::Event(e) => Some(e),
            _ => None,
        })
    }

    /// Number of sensor events recorded.
    pub fn event_count(&self) -> usize {
        self.events().count()
    }

    /// The annotated retunes, in firing order.
    pub fn retunes(&self) -> impl Iterator<Item = &Retune> {
        self.records.iter().filter_map(|r| match r {
            ReplayRecord::Retune(t) => Some(t),
            _ => None,
        })
    }

    /// The annotated substrate switches, in switch order.
    pub fn switches(&self) -> impl Iterator<Item = &SwitchRecord> {
        self.records.iter().filter_map(|r| match r {
            ReplayRecord::Switch(s) => Some(s),
            _ => None,
        })
    }

    /// Stamps post-run annotations off the finished original session:
    /// the final stream stats and, for an adaptive backend, the
    /// reconfiguration ledger as [`SwitchRecord`]s.
    pub fn annotate_from_session(&mut self, session: &FusionSession) {
        self.stream_stats = session.stream_stats();
        if let Some(backend) = session.backend_as::<AdaptiveBackend>() {
            for event in backend.ledger().events() {
                self.records.push(ReplayRecord::Switch(SwitchRecord {
                    at_time_s: event.at_time_s,
                    at_update: event.at_update,
                    from: event.from.to_string(),
                    to: event.to.to_string(),
                    reason: event.reason.to_string(),
                    transfer_cycles: event.transfer_cycles,
                }));
            }
        }
    }

    /// Serializes the recording (magic, version, header, records).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.records.len() * 64);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.push(u8::from(self.stream_stats.is_some()));
        out.extend_from_slice(&self.dt.to_bits().to_le_bytes());
        out.extend_from_slice(&self.duration_s.to_bits().to_le_bytes());
        if let Some(stats) = &self.stream_stats {
            for v in stream_stats_words(stats) {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.records.len() as u64).to_le_bytes());
        for record in &self.records {
            match record {
                ReplayRecord::Event(SensorEvent::Dmu(s)) => {
                    out.push(0);
                    out.extend_from_slice(&s.seq.to_le_bytes());
                    write_f64(&mut out, s.time_s);
                    for i in 0..3 {
                        write_f64(&mut out, s.gyro[i]);
                    }
                    for i in 0..3 {
                        write_f64(&mut out, s.accel[i]);
                    }
                }
                ReplayRecord::Event(SensorEvent::Acc { sensor, time_s, z }) => {
                    out.push(1);
                    out.extend_from_slice(&(*sensor as u32).to_le_bytes());
                    write_f64(&mut out, *time_s);
                    write_f64(&mut out, z[0]);
                    write_f64(&mut out, z[1]);
                }
                ReplayRecord::Retune(t) => {
                    out.push(2);
                    out.extend_from_slice(&t.at_sample.to_le_bytes());
                    write_f64(&mut out, t.new_sigma);
                    write_f64(&mut out, t.rate);
                }
                ReplayRecord::Switch(s) => {
                    out.push(3);
                    write_f64(&mut out, s.at_time_s);
                    out.extend_from_slice(&s.at_update.to_le_bytes());
                    write_str(&mut out, &s.from);
                    write_str(&mut out, &s.to);
                    write_str(&mut out, &s.reason);
                    out.extend_from_slice(&s.transfer_cycles.to_le_bytes());
                }
            }
        }
        out
    }

    /// Deserializes a recording produced by [`Recording::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let mut r = Reader { bytes, pos: 0 };
        if r.take(4)? != MAGIC {
            return Err("not a boresight recording (bad magic)".into());
        }
        let version = u16::from_le_bytes(r.take(2)?.try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(format!(
                "unsupported recording version {version} (expected {FORMAT_VERSION})"
            ));
        }
        let has_stats = r.take(1)?[0] != 0;
        let dt = r.f64()?;
        let duration_s = r.f64()?;
        let stream_stats = if has_stats {
            let mut words = [0u64; STREAM_STATS_WORDS];
            for w in words.iter_mut() {
                *w = r.u64()?;
            }
            Some(stream_stats_from_words(&words))
        } else {
            None
        };
        let count = r.u64()? as usize;
        let mut records = Vec::with_capacity(count);
        for _ in 0..count {
            let tag = r.take(1)?[0];
            records.push(match tag {
                0 => {
                    let seq = u16::from_le_bytes(r.take(2)?.try_into().unwrap());
                    let time_s = r.f64()?;
                    let gyro = Vec3::new([r.f64()?, r.f64()?, r.f64()?]);
                    let accel = Vec3::new([r.f64()?, r.f64()?, r.f64()?]);
                    ReplayRecord::Event(SensorEvent::Dmu(DmuSample {
                        seq,
                        time_s,
                        gyro,
                        accel,
                    }))
                }
                1 => {
                    let sensor = u32::from_le_bytes(r.take(4)?.try_into().unwrap()) as usize;
                    let time_s = r.f64()?;
                    let z = Vec2::new([r.f64()?, r.f64()?]);
                    ReplayRecord::Event(SensorEvent::Acc { sensor, time_s, z })
                }
                2 => ReplayRecord::Retune(Retune {
                    at_sample: r.u64()?,
                    new_sigma: r.f64()?,
                    rate: r.f64()?,
                }),
                3 => {
                    let at_time_s = r.f64()?;
                    let at_update = r.u64()?;
                    let from = r.str()?;
                    let to = r.str()?;
                    let reason = r.str()?;
                    let transfer_cycles = r.u64()?;
                    ReplayRecord::Switch(SwitchRecord {
                        at_time_s,
                        at_update,
                        from,
                        to,
                        reason,
                        transfer_cycles,
                    })
                }
                other => return Err(format!("unknown record tag {other}")),
            });
        }
        if r.pos != bytes.len() {
            return Err(format!(
                "{} trailing bytes after the last record",
                bytes.len() - r.pos
            ));
        }
        Ok(Self {
            dt,
            duration_s,
            stream_stats,
            records,
        })
    }

    /// Writes the recording to a file.
    pub fn write_to(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Reads a recording from a file.
    pub fn read_from(path: impl AsRef<Path>) -> Result<Self, String> {
        let bytes = std::fs::read(path.as_ref())
            .map_err(|e| format!("{}: {e}", path.as_ref().display()))?;
        Self::from_bytes(&bytes)
    }

    /// A replay source over this recording's event stream.
    pub fn replay_source(&self) -> ReplaySource {
        ReplaySource {
            events: self.events().copied().collect(),
            stats: self.stream_stats,
            dt: self.dt,
            duration_s: self.duration_s,
            next: 0,
        }
    }
}

/// Number of `u64` words a serialized [`StreamStats`] occupies.
const STREAM_STATS_WORDS: usize = 13;

fn stream_stats_words(s: &StreamStats) -> [u64; STREAM_STATS_WORDS] {
    [
        s.dmu_samples,
        s.acc_samples,
        s.dmu_errors,
        s.dmu_gaps,
        s.acc_errors,
        s.acc_gaps,
        s.bytes_in,
        s.fault_bits_flipped,
        s.fault_bytes_dropped,
        s.fault_bursts,
        s.window_fault_bits_flipped,
        s.window_fault_bytes_dropped,
        s.window_fault_bursts,
    ]
}

fn stream_stats_from_words(w: &[u64; STREAM_STATS_WORDS]) -> StreamStats {
    StreamStats {
        dmu_samples: w[0],
        acc_samples: w[1],
        dmu_errors: w[2],
        dmu_gaps: w[3],
        acc_errors: w[4],
        acc_gaps: w[5],
        bytes_in: w[6],
        fault_bits_flipped: w[7],
        fault_bytes_dropped: w[8],
        fault_bursts: w[9],
        window_fault_bits_flipped: w[10],
        window_fault_bytes_dropped: w[11],
        window_fault_bursts: w[12],
    }
}

fn write_f64(out: &mut Vec<u8>, x: f64) {
    out.extend_from_slice(&x.to_bits().to_le_bytes());
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    assert!(bytes.len() <= u16::MAX as usize, "oversized string field");
    out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
    out.extend_from_slice(bytes);
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).ok_or("length overflow")?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| format!("truncated recording at byte {}", self.pos))?;
        self.pos = end;
        Ok(slice)
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Result<String, String> {
        let len = u16::from_le_bytes(self.take(2)?.try_into().unwrap()) as usize;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|e| e.to_string())
    }
}

/// An [`EventSink`] that captures the stream into a [`Recording`].
/// Attach as `Arc<Mutex<RecordingSink>>` and read the recording back
/// after the run (see [`record_spec`] for the packaged flow).
#[derive(Debug)]
pub struct RecordingSink {
    recording: Recording,
}

impl RecordingSink {
    /// A sink for a source with the given natural step and duration.
    pub fn new(dt: f64, duration_s: f64) -> Self {
        Self {
            recording: Recording::new(dt, duration_s),
        }
    }

    /// The capture so far.
    pub fn recording(&self) -> &Recording {
        &self.recording
    }

    /// Consumes the sink, yielding the capture.
    pub fn into_recording(self) -> Recording {
        self.recording
    }
}

impl EventSink for RecordingSink {
    fn on_event(&mut self, event: &SensorEvent) {
        self.recording.records.push(ReplayRecord::Event(*event));
    }

    fn on_retune(&mut self, retune: &Retune) {
        self.recording.records.push(ReplayRecord::Retune(*retune));
    }
}

/// A [`SensorSource`] that re-emits a recorded event stream.
///
/// Events are emitted strictly in recorded order: each [`poll`] window
/// releases records from the head of the stream while the head event's
/// timestamp lies inside the window. Recorded order — not timestamp
/// sorting — is what the backend's bit-identity depends on (a comms
/// chain can reconstruct a DMU sample after an ACC sample that carries
/// a slightly later timestamp).
///
/// [`poll`]: SensorSource::poll
pub struct ReplaySource {
    events: Vec<SensorEvent>,
    stats: Option<StreamStats>,
    dt: f64,
    duration_s: f64,
    next: usize,
}

impl SensorSource for ReplaySource {
    fn dt(&self) -> f64 {
        self.dt
    }

    fn duration_s(&self) -> Option<f64> {
        Some(self.duration_s)
    }

    fn poll(&mut self, t_to: f64, out: &mut Vec<SensorEvent>) {
        while let Some(event) = self.events.get(self.next) {
            if event.time_s() > t_to + TIME_EPS {
                break;
            }
            out.push(*event);
            self.next += 1;
        }
        // Events timestamped past the recorded duration (reconstruction
        // latency at the very end of a comms run) flush on the final
        // window, so replay finishes exactly when the original did.
        if t_to + TIME_EPS >= self.duration_s {
            while let Some(event) = self.events.get(self.next) {
                out.push(*event);
                self.next += 1;
            }
        }
    }

    fn is_exhausted(&self) -> bool {
        self.next >= self.events.len()
    }

    fn stream_stats(&self) -> Option<StreamStats> {
        self.stats
    }
}

/// Runs `spec` to completion while recording its event stream.
/// Returns the batch result and the annotated recording (stream stats
/// and, for adaptive runs, the switch ledger stamped on).
pub fn record_spec(spec: &ScenarioSpec) -> (RunResult, Recording) {
    record_spec_over(spec, spec.lower_trajectory())
}

/// [`record_spec`] over an explicit (possibly shared) trajectory.
pub fn record_spec_over(
    spec: &ScenarioSpec,
    trajectory: impl IntoSharedTrajectory,
) -> (RunResult, Recording) {
    let cfg = spec.config();
    let sink = Arc::new(Mutex::new(RecordingSink::new(
        1.0 / cfg.acc_rate_hz,
        cfg.duration_s,
    )));
    let mut session = spec
        .session_builder(trajectory)
        .sink(Arc::clone(&sink))
        .build();
    session.run_to_end();
    let mut recording = {
        let mut guard = sink.lock().expect("recording sink");
        std::mem::take(&mut guard.recording)
    };
    recording.annotate_from_session(&session);
    (session.into_result(), recording)
}

/// Builds the session `spec` describes with its live front end
/// replaced by `recording` — same substrate backend, tuning, truth and
/// trace decimation, fed from the captured stream. Running it to the
/// end reproduces the original run bit for bit.
pub fn replay_spec_session(spec: &ScenarioSpec, recording: &Recording) -> FusionSession {
    let builder = spec.substrate.attach_iekf(
        FusionSession::builder().source(recording.replay_source()),
        spec.tuning.estimator_config(),
    );
    spec.finish(builder, recording.event_count()).build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ChannelSpec, Substrate};
    use mathx::EulerAngles;

    fn short_spec(substrate: Substrate) -> ScenarioSpec {
        ScenarioSpec::named("replay-unit")
            .with_truth(EulerAngles::from_degrees(2.0, -1.0, 1.5))
            .with_duration(12.0)
            .with_substrate(substrate)
    }

    #[test]
    fn recording_round_trips_through_bytes() {
        let (_, recording) = record_spec(&short_spec(Substrate::F64));
        assert!(recording.event_count() > 1000);
        let bytes = recording.to_bytes();
        let back = Recording::from_bytes(&bytes).expect("parse");
        assert_eq!(back, recording);

        // Corrupt the magic and the version independently.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(Recording::from_bytes(&bad).is_err());
        let mut bad = bytes.clone();
        bad[4] = 0xFF;
        assert!(Recording::from_bytes(&bad).unwrap_err().contains("version"));
        assert!(Recording::from_bytes(&bytes[..bytes.len() - 3])
            .unwrap_err()
            .contains("truncated"));
    }

    #[test]
    fn replay_reproduces_the_original_run_bit_for_bit() {
        for substrate in [Substrate::F64, Substrate::Q16_16] {
            let spec = short_spec(substrate);
            let (original, recording) = record_spec(&spec);
            let replayed = replay_spec_session(&spec, &recording).into_result();
            assert_eq!(original.estimate, replayed.estimate, "{substrate}");
            assert_eq!(original.residuals, replayed.residuals, "{substrate}");
            assert_eq!(original.estimates, replayed.estimates, "{substrate}");
            assert_eq!(original.retune_count, replayed.retune_count, "{substrate}");
        }
    }

    #[test]
    fn comms_replay_preserves_stream_stats() {
        let spec = short_spec(Substrate::Softfloat).with_channel(ChannelSpec::Comms {
            faults: crate::session::LinkFaultConfig {
                bit_flip_prob: 0.002,
                drop_prob: 0.002,
                burst_prob: 0.0005,
                burst_len: 6,
            },
        });
        let (original, recording) = record_spec(&spec);
        let stats = recording.stream_stats.expect("comms stats recorded");
        assert!(stats.fault_bits_flipped > 0);

        let mut session = replay_spec_session(&spec, &recording);
        session.run_to_end();
        assert_eq!(session.stream_stats(), Some(stats));
        let replayed = session.into_result();
        assert_eq!(original.estimate, replayed.estimate);
        assert_eq!(original.residuals, replayed.residuals);
    }

    #[test]
    fn adaptive_recordings_annotate_switches() {
        let spec = short_spec(Substrate::Adaptive)
            .with_environment(crate::spec::EnvironmentSpec::rough_road());
        let (_, recording) = record_spec(&spec);
        // Whether or not the policy fired in 12 s, the annotation path
        // must round-trip through the serialization.
        let back = Recording::from_bytes(&recording.to_bytes()).expect("parse");
        assert_eq!(back.switches().count(), recording.switches().count());
        for (a, b) in back.switches().zip(recording.switches()) {
            assert_eq!(a, b);
        }
    }
}
