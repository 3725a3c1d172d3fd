//! Order statistics, repetition summaries and host facts shared by the
//! workloads.

use std::sync::OnceLock;
use std::time::Instant;

/// Median of `values` (NaN for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, 0.5)
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Indices of the tenth of `walls` that took least time, fastest
/// first, widened to `at_least` indices where there are that many.
/// Interference from other tenants of a shared host only ever adds
/// time, and it comes in bursts of seconds; every item is repeated many
/// times over a run, so its fastest tenth of repetitions measures the
/// program rather than its neighbours.
pub fn fastest_tenth(walls: &[f64], at_least: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..walls.len()).collect();
    order.sort_by(|&a, &b| walls[a].total_cmp(&walls[b]));
    order.truncate(walls.len().div_ceil(10).max(at_least));
    order
}

/// One timed repetition of one roster vehicle.
#[derive(Clone, Copy)]
pub struct Rep {
    pub stream_s: f64,
    pub wall_s: f64,
    pub ticks: u64,
    pub p50_us: f64,
    pub p99_us: f64,
}

impl Rep {
    /// A repetition from its tick durations (nanoseconds, in tick
    /// order). Percentiles are taken over consecutive tick pairs (see
    /// [`pair_means`]).
    pub fn from_ticks(stream_s: f64, ticks_ns: &[u32]) -> Self {
        let ticks: Vec<f64> = ticks_ns.iter().map(|&t| f64::from(t)).collect();
        let mut pairs = pair_means(&ticks);
        pairs.sort_by(f64::total_cmp);
        Self {
            stream_s,
            wall_s: ticks.iter().sum::<f64>() / 1e9,
            ticks: ticks.len() as u64,
            p50_us: quantile_sorted(&pairs, 0.50) / 1e3,
            p99_us: quantile_sorted(&pairs, 0.99) / 1e3,
        }
    }
}

/// Means of consecutive pairs of tick times. The DMU samples at half the
/// 200 Hz tick rate, so every other tick carries one and tick times are
/// bimodal with exactly half in each mode: a median of single ticks
/// sits on the boundary and flips between the modes from run to run.
/// A pair spans one DMU period, so its mean is a tick's share of it.
pub fn pair_means(ticks: &[f64]) -> Vec<f64> {
    ticks.chunks_exact(2).map(|p| (p[0] + p[1]) / 2.0).collect()
}

/// The serving figures of a run: each vehicle's fastest tenth of
/// repetitions, pooled over the roster.
pub struct Summary {
    /// Vehicle-stream seconds served per wall second.
    pub realtime: f64,
    /// Per-repetition tick-pair percentiles, weighted by tick count.
    pub p50_us: f64,
    pub p99_us: f64,
    /// Ticks in the kept repetitions, and in all of them.
    pub ticks_kept: u64,
    pub ticks_timed: u64,
    /// Wall seconds and stream seconds over every repetition.
    pub wall_s: f64,
    pub stream_s: f64,
}

/// Summarizes `reps[v]`, the repetitions of roster vehicle `v`.
pub fn summarize(reps: &[Vec<Rep>]) -> Summary {
    let (mut stream_s, mut wall_s, mut ticks, mut p50, mut p99) = (0.0, 0.0, 0u64, 0.0, 0.0);
    for vehicle in reps {
        let walls: Vec<f64> = vehicle.iter().map(|r| r.wall_s).collect();
        for i in fastest_tenth(&walls, 1) {
            let rep = vehicle[i];
            stream_s += rep.stream_s;
            wall_s += rep.wall_s;
            ticks += rep.ticks;
            p50 += rep.p50_us * rep.ticks as f64;
            p99 += rep.p99_us * rep.ticks as f64;
        }
    }
    let all = reps.iter().flatten();
    Summary {
        realtime: stream_s / wall_s,
        p50_us: p50 / ticks as f64,
        p99_us: p99 / ticks as f64,
        ticks_kept: ticks,
        ticks_timed: all.clone().map(|r| r.ticks).sum(),
        wall_s: all.clone().map(|r| r.wall_s).sum(),
        stream_s: all.map(|r| r.stream_s).sum(),
    }
}

/// Cores the session loops alternate between: the CPU set as first
/// read, before any pin narrows it (`available_parallelism` follows the
/// calling thread's affinity).
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Pins the calling thread to the cores in `list` (`taskset` syntax,
/// e.g. `1` or `0-1`) through `taskset`, which waits for it; std has no
/// affinity call. A shared host slows its cores one at a time, for
/// minutes on end, so the session loops move between cores from one
/// pass to the next and the fastest repetitions read whichever core is
/// quiet. Returns whether the pin took; measuring goes on unpinned when
/// it did not.
pub fn pin(list: &str) -> bool {
    let Ok(link) = std::fs::read_link("/proc/thread-self") else {
        return false;
    };
    let Some(tid) = link.file_name().and_then(|n| n.to_str()) else {
        return false;
    };
    std::process::Command::new("taskset")
        .args(["-p", "-c", list, tid])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// Pins the calling thread to core `repetition % cores()`.
pub fn pin_for(repetition: usize) -> bool {
    pin(&(repetition % cores()).to_string())
}

/// Lets the calling thread run on every core again.
pub fn unpin() {
    pin(&format!("0-{}", cores() - 1));
}

/// Runs `f` and returns its result with the elapsed wall seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git (`unknown` outside a git checkout).
pub fn commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
