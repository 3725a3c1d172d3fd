//! Wall-time attribution for the fleet's epoch scheduler.
//!
//! Besides the lane kernels, an epoch spends time on the orchestration
//! wrapped around them — thread wake-up, shard claiming, the epoch
//! barrier, work stealing. This module attributes it: every epoch the
//! scheduler folds each worker's phase timings into one
//! [`EpochSample`], a preallocated ring keeps the recent window, and
//! [`EpochProfile`] aggregates totals and p50/p99 per phase.
//!
//! Recording is allocation-free in steady state (the ring is sized at
//! construction), so the profiler runs inside the audited zero-alloc
//! epoch loop.

/// One epoch's wall-time attribution. Per-phase fields are summed
/// across workers, in microseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct EpochSample {
    /// The epoch's wall clock, barrier to barrier.
    pub wall_us: f64,
    /// Source polling into the ingress buffers (home shards).
    pub ingest_us: f64,
    /// Dispatch + lane predict/update + eviction bookkeeping (home
    /// shards).
    pub compute_us: f64,
    /// Adaptive sideband sessions advanced on the pool.
    pub sideband_us: f64,
    /// Whole-shard epoch tasks run on a non-home worker (ingest and
    /// compute of stolen shards both land here — the bucket prices the
    /// *fallback*, not the phase).
    pub steal_us: f64,
    /// Scheduling overhead: `workers x wall` minus every worker's busy
    /// time — wake-up latency, claim scanning and barrier wait.
    pub barrier_us: f64,
    /// Shard tasks claimed by a non-home worker.
    pub steals: u64,
    /// Workers that serviced the epoch.
    pub workers: u32,
}

/// One phase column's aggregate over the profiled window.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseStats {
    /// Sum over the window, microseconds.
    pub total_us: f64,
    /// Median per-epoch value, microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-epoch value, microseconds.
    pub p99_us: f64,
}

/// The aggregated epoch-scheduling profile: per-phase totals and
/// percentiles over the recorded window.
///
/// Percentiles are computed per phase independently (the p99 ingest
/// epoch need not be the p99 compute epoch), which is the right shape
/// for attributing a latency budget phase by phase.
#[derive(Clone, Debug, Default)]
pub struct EpochProfile {
    /// Epochs in the aggregated window.
    pub epochs: usize,
    /// Largest worker count observed in the window.
    pub workers: u32,
    /// Shard tasks claimed by non-home workers over the window.
    pub steals: u64,
    /// `sum(wall_us x workers)` over the window — total worker wall
    /// time, exact even when the worker count changed mid-window.
    pub worker_wall_us: f64,
    pub wall: PhaseStats,
    pub ingest: PhaseStats,
    pub compute: PhaseStats,
    pub sideband: PhaseStats,
    pub steal: PhaseStats,
    pub barrier: PhaseStats,
}

impl EpochProfile {
    /// `(label, stats, share-of-busy)` rows for table printing, in
    /// pipeline order.
    pub fn rows(&self) -> [(&'static str, PhaseStats, f64); 5] {
        let busy = (self.ingest.total_us
            + self.compute.total_us
            + self.sideband.total_us
            + self.steal.total_us
            + self.barrier.total_us)
            .max(1e-12);
        let share = |s: &PhaseStats| s.total_us / busy;
        [
            ("ingest", self.ingest, share(&self.ingest)),
            ("compute", self.compute, share(&self.compute)),
            ("sideband", self.sideband, share(&self.sideband)),
            ("steal", self.steal, share(&self.steal)),
            ("barrier", self.barrier, share(&self.barrier)),
        ]
    }
}

/// A fixed-capacity ring of [`EpochSample`]s plus the scratch needed
/// to aggregate them without allocating in the record path.
#[derive(Debug)]
pub struct EpochProfiler {
    ring: Vec<EpochSample>,
    capacity: usize,
    /// Next write position; wraps once the ring is full.
    head: usize,
    /// Samples recorded since the last reset (saturates at capacity
    /// for windowing purposes; the lifetime count keeps going).
    recorded: u64,
}

/// Epochs the default profiler window retains (about 20 s of 200 Hz
/// epochs); older epochs are overwritten ring-wise.
pub const DEFAULT_PROFILE_WINDOW: usize = 4096;

impl EpochProfiler {
    /// A profiler retaining the last `capacity` epochs. The ring is
    /// allocated here, once — recording never allocates.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            ring: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            recorded: 0,
        }
    }

    /// Records one epoch (allocation-free; overwrites the oldest
    /// sample once the window is full).
    pub fn record(&mut self, sample: EpochSample) {
        if self.ring.len() < self.capacity {
            self.ring.push(sample);
        } else {
            self.ring[self.head] = sample;
        }
        self.head = (self.head + 1) % self.capacity;
        self.recorded += 1;
    }

    /// Epochs recorded since construction or the last [`reset`].
    ///
    /// [`reset`]: EpochProfiler::reset
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// The retained window, oldest-first not guaranteed (ring order).
    pub fn samples(&self) -> &[EpochSample] {
        &self.ring
    }

    /// Forgets the window (keeps the allocation) — called between a
    /// warm-up and a measurement so the profile covers only the timed
    /// epochs.
    pub fn reset(&mut self) {
        self.ring.clear();
        self.head = 0;
        self.recorded = 0;
    }

    /// Aggregates the retained window. `None` when nothing was
    /// recorded.
    pub fn profile(&self) -> Option<EpochProfile> {
        if self.ring.is_empty() {
            return None;
        }
        let mut scratch: Vec<f64> = Vec::with_capacity(self.ring.len());
        let mut stats = |field: fn(&EpochSample) -> f64| -> PhaseStats {
            scratch.clear();
            scratch.extend(self.ring.iter().map(field));
            let total_us = scratch.iter().sum();
            scratch.sort_by(|a, b| a.partial_cmp(b).expect("finite phase time"));
            PhaseStats {
                total_us,
                p50_us: percentile(&scratch, 0.50),
                p99_us: percentile(&scratch, 0.99),
            }
        };
        let wall = stats(|s| s.wall_us);
        let ingest = stats(|s| s.ingest_us);
        let compute = stats(|s| s.compute_us);
        let sideband = stats(|s| s.sideband_us);
        let steal = stats(|s| s.steal_us);
        let barrier = stats(|s| s.barrier_us);
        Some(EpochProfile {
            epochs: self.ring.len(),
            workers: self.ring.iter().map(|s| s.workers).max().unwrap_or(1),
            steals: self.ring.iter().map(|s| s.steals).sum(),
            worker_wall_us: self
                .ring
                .iter()
                .map(|s| s.wall_us * f64::from(s.workers))
                .sum(),
            wall,
            ingest,
            compute,
            sideband,
            steal,
            barrier,
        })
    }
}

impl Default for EpochProfiler {
    fn default() -> Self {
        Self::new(DEFAULT_PROFILE_WINDOW)
    }
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(wall: f64, ingest: f64, compute: f64, barrier: f64, workers: u32) -> EpochSample {
        EpochSample {
            wall_us: wall,
            ingest_us: ingest,
            compute_us: compute,
            sideband_us: 0.0,
            steal_us: 0.0,
            barrier_us: barrier,
            steals: 0,
            workers,
        }
    }

    #[test]
    fn aggregates_percentiles_per_phase() {
        let mut p = EpochProfiler::new(128);
        for i in 0..100 {
            let wall = 100.0 + i as f64;
            p.record(sample(wall, 10.0, 80.0, 2.0 * wall - 90.0, 2));
        }
        let profile = p.profile().expect("recorded");
        assert_eq!(profile.epochs, 100);
        assert_eq!(profile.workers, 2);
        assert!((profile.wall.p50_us - 150.0).abs() < 1.0, "{profile:?}");
        assert!((profile.wall.p99_us - 198.0).abs() < 1.5, "{profile:?}");
        assert!((profile.ingest.p50_us - 10.0).abs() < 1e-9);
    }

    #[test]
    fn ring_overwrites_oldest_beyond_capacity() {
        let mut p = EpochProfiler::new(4);
        for i in 0..10 {
            p.record(sample(i as f64, 0.0, 0.0, 0.0, 1));
        }
        assert_eq!(p.samples().len(), 4);
        assert_eq!(p.recorded(), 10);
        let retained: Vec<f64> = p.samples().iter().map(|s| s.wall_us).collect();
        for keep in [6.0, 7.0, 8.0, 9.0] {
            assert!(retained.contains(&keep), "{retained:?}");
        }
    }

    #[test]
    fn reset_clears_window_but_keeps_capacity() {
        let mut p = EpochProfiler::new(8);
        p.record(sample(1.0, 0.0, 0.0, 0.0, 1));
        p.reset();
        assert!(p.profile().is_none());
        assert_eq!(p.recorded(), 0);
        p.record(sample(2.0, 0.0, 0.0, 0.0, 1));
        assert_eq!(p.profile().expect("recorded").epochs, 1);
    }
}
