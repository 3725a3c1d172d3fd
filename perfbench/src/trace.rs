//! The traced layer loop: one roster vehicle served by calling each
//! layer's public entry point directly, in the order
//! `FusionSession::step` and `GenericBoresightEstimator::on_acc` call
//! them, with an in-memory span around every call.
//!
//! Each span records its layer, start, end and parent; the spans of one
//! tick share the tick's id. Self time (a span's duration minus the
//! part its child spans cover) is folded per layer after each vehicle,
//! outside its timed loop; the first [`KEEP_TICKS`] ticks of every
//! vehicle are kept and written out when the run ends.
//!
//! Gate and update both run inside `GenericBoresightFilter::update_t`
//! and cannot be timed apart from outside the filter; their split comes
//! from the filter's `phase_ledger()` op counts.

use boresight::arith::Arith;
use boresight::estimator::{EstimatorConfig, ImuPrep, MisalignmentEstimate};
use boresight::filter::GenericBoresightFilter;
use boresight::monitor::ResidualMonitor;
use boresight::session::{EventSink, SensorEvent, SensorSource};
use boresight::system::SabrePublishSink;
use comms::StreamStats;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// The layer a span belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One 5 ms stream tick; its self time is the session loop.
    Tick,
    /// `SensorSource::poll` (replay, or UART reconstruction).
    Poll,
    /// Session dispatch of one event; self time is the session layer.
    Dispatch,
    /// `ImuPrep::on_dmu`.
    OnDmu,
    /// `ImuPrep::compensated_force`.
    Force,
    /// `GenericBoresightFilter::predict`.
    Predict,
    /// `GenericBoresightFilter::update_t` (gate plus update).
    Update,
    /// `ResidualMonitor::observe`.
    Observe,
    /// `EventSink::on_time` / `on_finish`.
    Sinks,
}

pub const LAYERS: [Layer; 9] = [
    Layer::Tick,
    Layer::Poll,
    Layer::Dispatch,
    Layer::OnDmu,
    Layer::Force,
    Layer::Predict,
    Layer::Update,
    Layer::Observe,
    Layer::Sinks,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Tick => "tick",
            Layer::Poll => "poll",
            Layer::Dispatch => "dispatch",
            Layer::OnDmu => "imu_prep.on_dmu",
            Layer::Force => "imu_prep.compensated_force",
            Layer::Predict => "filter.predict",
            Layer::Update => "filter.update_t",
            Layer::Observe => "monitor.observe",
            Layer::Sinks => "sinks",
        }
    }
}

/// Ticks per vehicle whose spans are kept for the written trace.
pub const KEEP_TICKS: u32 = 400;

/// Spans kept for the written trace at most (about one pass over the
/// roster).
const MAX_KEPT_SPANS: usize = 40_000;

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Span {
    layer: Layer,
    parent: u32,
    tick: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Per-layer self time and call counts over every traced tick.
#[derive(Clone, Copy, Default)]
pub struct LayerTotals {
    self_ns: [i64; LAYERS.len()],
    calls: [u64; LAYERS.len()],
}

impl LayerTotals {
    /// Self time of `layer`, microseconds.
    pub fn self_us(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64 / 1e3
    }

    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Mean self time per call, microseconds (0 for an unused layer).
    pub fn us_per_call(&self, layer: Layer) -> f64 {
        self.self_us(layer) / self.calls(layer).max(1) as f64
    }

    /// Self time summed over every layer, microseconds.
    pub fn total_us(&self) -> f64 {
        self.self_ns.iter().sum::<i64>() as f64 / 1e3
    }
}

/// The in-memory span recorder.
pub struct Tracer {
    anchor: Instant,
    tick: u32,
    first_tick: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
    kept: Vec<Span>,
    pub totals: LayerTotals,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            anchor: Instant::now(),
            tick: 0,
            first_tick: 0,
            spans: Vec::with_capacity(1 << 16),
            open: Vec::with_capacity(8),
            kept: Vec::new(),
            totals: LayerTotals::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, layer: Layer) {
        let start_ns = self.now_ns();
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            layer,
            parent,
            tick: self.tick,
            start_ns,
            end_ns: 0,
        });
    }

    fn exit(&mut self) {
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("exit matches an enter");
        self.spans[idx as usize].end_ns = end_ns;
    }

    /// Starts a new vehicle.
    pub fn start_vehicle(&mut self) {
        self.spans.clear();
        self.first_tick = self.tick;
    }

    /// Folds the finished vehicle's spans into the per-layer totals and,
    /// up to [`MAX_KEPT_SPANS`], keeps its first [`KEEP_TICKS`] ticks for
    /// the written trace. Runs
    /// after the vehicle's timed loop, so folding is not booked to any
    /// layer.
    pub fn finish_vehicle(&mut self) {
        for span in &self.spans {
            let dur = (span.end_ns - span.start_ns) as i64;
            self.totals.self_ns[span.layer as usize] += dur;
            self.totals.calls[span.layer as usize] += 1;
            if span.parent != NO_PARENT {
                let parent = self.spans[span.parent as usize].layer;
                self.totals.self_ns[parent as usize] -= dur;
            }
        }
        let base = self.kept.len() as u32;
        let keep_below = self.first_tick + KEEP_TICKS;
        if self.kept.len() < MAX_KEPT_SPANS {
            self.kept.extend(
                self.spans
                    .iter()
                    .take_while(|s| s.tick < keep_below)
                    .map(|s| Span {
                        parent: if s.parent == NO_PARENT {
                            NO_PARENT
                        } else {
                            base + s.parent
                        },
                        ..*s
                    }),
            );
        }
        self.spans.clear();
    }

    /// Writes the kept spans as CSV.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("span,tick,parent,layer,start_ns,end_ns\n");
        for (i, s) in self.kept.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{i},{},{parent},{},{},{}",
                s.tick,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// What one traced vehicle run leaves behind.
pub struct TracedRun<A: Arith> {
    pub filter: GenericBoresightFilter<A>,
    pub estimate: MisalignmentEstimate,
    /// Measurement-update calls (`update_t`).
    pub update_calls: u64,
    pub retunes: u64,
    pub events: u64,
    pub ticks: u64,
    pub stream_s: f64,
    pub stream_stats: Option<StreamStats>,
    pub sink: Option<SabrePublishSink>,
}

fn estimate_of<A: Arith + Clone>(filter: &GenericBoresightFilter<A>) -> MisalignmentEstimate {
    MisalignmentEstimate {
        angles: filter.angles(),
        one_sigma: filter.angle_sigma(),
        updates: filter.update_count(),
    }
}

/// Serves one vehicle through the layer calls, tracing each.
pub fn traced_run<A: Arith + Clone>(
    arith: A,
    config: &EstimatorConfig,
    mut source: Box<dyn SensorSource>,
    mut sink: Option<SabrePublishSink>,
    tracer: &mut Tracer,
) -> TracedRun<A> {
    let mut filter = GenericBoresightFilter::with_arith(arith, config.filter);
    let mut monitor = config
        .monitor
        .map(|m| ResidualMonitor::new(m, config.filter.measurement_sigma));
    let mut prep = ImuPrep::new(filter.arith_mut());
    let mut last_update_time = 0.0;
    let dt = source.dt();
    let mut time_s = 0.0;
    let mut events = Vec::with_capacity(64);
    let (mut update_calls, mut retunes, mut event_count, mut ticks) = (0u64, 0u64, 0u64, 0u64);
    tracer.start_vehicle();
    loop {
        tracer.enter(Layer::Tick);
        time_s += dt;
        events.clear();
        tracer.enter(Layer::Poll);
        source.poll(time_s, &mut events);
        tracer.exit();
        for event in &events {
            tracer.enter(Layer::Dispatch);
            event_count += 1;
            match *event {
                SensorEvent::Dmu(ref sample) => {
                    tracer.enter(Layer::OnDmu);
                    prep.on_dmu(filter.arith_mut(), sample);
                    tracer.exit();
                }
                SensorEvent::Acc { time_s: t, z, .. } => {
                    tracer.enter(Layer::Force);
                    let force = prep.compensated_force(filter.arith_mut(), t, config.lever_arm);
                    tracer.exit();
                    if let Some(f_b) = force {
                        let dt_update = (t - last_update_time).max(0.0);
                        last_update_time = t;
                        tracer.enter(Layer::Predict);
                        filter.predict(dt_update);
                        tracer.exit();
                        tracer.enter(Layer::Update);
                        let update = filter.update_t(z, f_b, t);
                        tracer.exit();
                        update_calls += 1;
                        if let Some(monitor) = monitor.as_mut() {
                            tracer.enter(Layer::Observe);
                            if let Some(retune) = monitor.observe(&update) {
                                filter.set_measurement_sigma(retune.new_sigma);
                                retunes += 1;
                            }
                            tracer.exit();
                        }
                        // The session reads the estimate after every
                        // update for its trace recorder and sinks.
                        black_box((update.exceeds_three_sigma(), estimate_of(&filter)));
                    }
                }
            }
            tracer.exit();
        }
        let finished = source.is_exhausted();
        if let Some(sink) = sink.as_mut() {
            tracer.enter(Layer::Sinks);
            let estimate = estimate_of(&filter);
            sink.on_time(time_s, &estimate);
            if finished {
                sink.on_finish(&estimate);
            }
            tracer.exit();
        }
        tracer.exit();
        tracer.tick += 1;
        ticks += 1;
        if finished {
            break;
        }
    }
    TracedRun {
        estimate: estimate_of(&filter),
        filter,
        update_calls,
        retunes,
        events: event_count,
        ticks,
        stream_s: time_s,
        stream_stats: source.stream_stats(),
        sink,
    }
}
