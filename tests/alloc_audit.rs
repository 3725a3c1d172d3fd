//! Allocation audit of the streaming hot path.
//!
//! A counting global allocator wraps the system allocator; after a
//! short warm-up (which grows every pooled buffer to its steady-state
//! size: event scratch, comms byte buffers, reconstruction decode
//! buffers, pre-sized trace recorders) the remainder of a run must
//! perform **zero** heap allocations — the property the perf issue
//! calls "no per-event heap allocation in `FusionSession::step`
//! steady state".

use sensor_fusion_fpga::fusion::arith::F64Arith;
use sensor_fusion_fpga::fusion::catalog;
use sensor_fusion_fpga::fusion::exec::{self, Pool};
use sensor_fusion_fpga::fusion::fleet::{Fleet, FleetConfig};
use sensor_fusion_fpga::fusion::spec::ChannelSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The system allocator with an allocation-event counter in front.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread runs audited code. Only those threads count:
    /// libtest's own threads allocate whenever a test finishes (result
    /// delivery, output, spawning the next test), and that can land in
    /// another test's measurement window.
    static AUDITED: Cell<bool> = const { Cell::new(false) };
}

fn count_allocation() {
    if AUDITED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static COUNTING: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The counter is process-global, so the audits must not overlap —
/// libtest runs `#[test]`s on parallel threads by default, and another
/// test's warm-up allocating inside this test's measurement window
/// would fail the zero assert spuriously. Each test body holds this
/// lock for its whole duration.
static AUDIT_SERIALIZER: Mutex<()> = Mutex::new(());

/// One test's hold on the audit: serialized against the other audits,
/// with the calling thread's allocations counted until it drops.
struct Audit {
    _serialized: MutexGuard<'static, ()>,
}

impl Audit {
    fn begin() -> Self {
        // The lock guards no data, so a failed audit leaves nothing
        // for the next one to distrust.
        let serialized = AUDIT_SERIALIZER
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        AUDITED.set(true);
        Self {
            _serialized: serialized,
        }
    }
}

impl Drop for Audit {
    fn drop(&mut self) {
        AUDITED.set(false);
    }
}

/// The synthetic-source path (the suite's default): after 2 s of
/// warm-up, a further 25 s of streaming — 5000 ACC samples through the
/// full 5-state IEKF with trace recording on — allocates nothing.
#[test]
fn synthetic_session_steady_state_allocates_nothing() {
    let _audit = Audit::begin();
    let spec = catalog::paper_static().with_duration(30.0);
    let mut session = spec.into_session(spec.lower_trajectory());
    session.run_for(2.0);
    let before = allocations();
    session.run_for(25.0);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "synthetic hot path allocated {} times in steady state",
        after - before
    );
    assert!(session.stats().updates > 4_000, "the run actually streamed");
}

/// The full comms-chain path — CAN encode, bridge framing, two UARTs
/// at line rate, reconstruction — also runs allocation-free once its
/// pooled byte buffers have reached line size.
#[test]
fn comms_chain_steady_state_allocates_nothing() {
    let _audit = Audit::begin();
    let spec = catalog::paper_static()
        .with_duration(30.0)
        .with_channel(ChannelSpec::comms());
    let mut session = spec.into_session(spec.lower_trajectory());
    session.run_for(3.0);
    let before = allocations();
    session.run_for(25.0);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "comms-chain hot path allocated {} times in steady state",
        after - before
    );
    let stream = session.stream_stats().expect("comms chain has stats");
    assert!(stream.acc_samples > 4_000, "the chain actually streamed");
}

/// The fleet arena at scale: once a 1000-vehicle fleet is warmed up
/// (slots admitted, lane groups built, ingress scratch grown to burst
/// size), a steady-state epoch — poll, dispatch, lane-group predict +
/// masked update for every resident vehicle — performs **zero** heap
/// allocations on the inline (workers = 1) scheduling path.
#[test]
fn fleet_epoch_steady_state_allocates_nothing() {
    let _audit = Audit::begin();
    let mut fleet: Fleet<F64Arith, 8> = Fleet::new(FleetConfig::default());
    for i in 0..1_000u64 {
        let spec = catalog::paper_static()
            .with_duration(3_600.0)
            .with_seed(40_000 + i);
        fleet.admit(&spec).expect("catalog tuning is compatible");
    }
    fleet.run_epochs(5, 1);
    let before = allocations();
    fleet.run_epochs(50, 1);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "fleet epoch loop allocated {} times in steady state",
        after - before
    );
    let stats = fleet.stats();
    assert_eq!(stats.vehicles, 1_000, "nobody was evicted mid-audit");
    assert!(stats.updates > 40_000, "the fleet actually streamed");
}

/// The persistent executor keeps the fleet's zero-allocation property
/// at **multi-worker** counts: once the warm-up has run epochs on the
/// `exec::Pool` (thread spawn, lap scratch, profiler ring), a
/// steady-state epoch — claim CAS per shard, parked-thread wake, fused
/// ingest/compute task, barrier, profile sample — performs zero heap
/// allocations on any of the pool's threads. The same holds for the
/// pool `Fleet::run_epochs` caches, which is built once and reused.
#[test]
fn multi_worker_fleet_epoch_steady_state_allocates_nothing() {
    let _audit = Audit::begin();
    let mut fleet: Fleet<F64Arith, 8> = Fleet::new(FleetConfig::default());
    for i in 0..1_000u64 {
        let spec = catalog::paper_static()
            .with_duration(3_600.0)
            .with_seed(60_000 + i);
        fleet.admit(&spec).expect("catalog tuning is compatible");
    }
    let pool = Pool::new(4);
    fleet.run_epochs_on(5, &pool);
    pool.run_epoch(|_| AUDITED.set(true));
    let before = allocations();
    fleet.run_epochs_on(50, &pool);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "multi-worker fleet epoch loop allocated {} times in steady state",
        after - before
    );

    // The pool `run_epochs` caches on the fleet: built once by the
    // warm-up, then reused. Its workers are not audited, but the test
    // thread is (it runs as worker 0 and would build a replacement
    // pool), and a rebuilt pool would spawn fresh threads.
    fleet.run_epochs(5, 4);
    let spawned = exec::threads_spawned();
    let before = allocations();
    fleet.run_epochs(50, 4);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "cached-pool fleet epoch loop allocated {} times in steady state",
        after - before
    );
    assert_eq!(
        exec::threads_spawned(),
        spawned,
        "run_epochs rebuilt its cached pool"
    );
    let stats = fleet.stats();
    assert_eq!(stats.vehicles, 1_000, "nobody was evicted mid-audit");
    assert!(stats.updates > 40_000, "the fleet actually streamed");
}

/// The explicit-SIMD lane substrate keeps the fleet's zero-allocation
/// property: a steady-state epoch over `Fleet<SimdF64, 8>` — the same
/// poll/dispatch/lane-group path, with every filter op lowered through
/// the packed backend (or its portable fallback) — allocates nothing.
#[test]
fn simd_fleet_epoch_steady_state_allocates_nothing() {
    use sensor_fusion_fpga::fusion::simd::SimdF64;

    let _audit = Audit::begin();
    let mut fleet: Fleet<SimdF64, 8> = Fleet::new(FleetConfig::default());
    for i in 0..256u64 {
        let spec = catalog::paper_static()
            .with_duration(3_600.0)
            .with_seed(50_000 + i);
        fleet.admit(&spec).expect("catalog tuning is compatible");
    }
    fleet.run_epochs(5, 1);
    let before = allocations();
    fleet.run_epochs(50, 1);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "SIMD fleet epoch loop allocated {} times in steady state",
        after - before
    );
    let stats = fleet.stats();
    assert_eq!(stats.vehicles, 256, "nobody was evicted mid-audit");
    assert!(stats.updates > 10_000, "the fleet actually streamed");
}

/// The adaptive supervisor between switches: the context monitor is
/// plain counters and the policy verdict is a stack value, so once
/// the hysteresis supervisor has escaped the collapsing Q16.16
/// substrate (q16's gated-out windows force the upshift inside the
/// warm-up, before the measurement window opens) a further 25 s of
/// streaming — context folding, per-window policy consultations and
/// vetoed admission checks included — allocates nothing.
#[test]
fn adaptive_session_steady_state_allocates_nothing() {
    use sensor_fusion_fpga::fusion::adaptive::{AdaptiveBackend, HysteresisPolicy, SubstrateId};

    let _audit = Audit::begin();
    let spec = catalog::paper_static().with_duration(30.0);
    let mut session = spec.into_adaptive_session(
        spec.lower_trajectory(),
        SubstrateId::Q16_16,
        Box::new(HysteresisPolicy::default()),
    );
    session.run_for(3.0);
    let before = allocations();
    session.run_for(25.0);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "adaptive hot path allocated {} times in steady state",
        after - before
    );
    let backend = session
        .backend_as::<AdaptiveBackend>()
        .expect("adaptive backend");
    assert_eq!(backend.switch_count(), 1, "the warm-up escape happened");
    assert_eq!(backend.active_substrate(), SubstrateId::Softfloat);
    assert!(
        backend.vetoed_switches() >= 1,
        "the admission check ran inside the measurement window"
    );
    assert!(session.stats().events > 4_000, "the run actually streamed");
}

/// The `Q<FRAC>` fixed-point substrates are plain `i32` value types —
/// a full-filter streaming loop over them (gate rejections, saturation
/// counting and all) must stay allocation-free after the session's
/// pooled buffers reach steady state.
#[test]
fn q_format_filter_loop_steady_state_allocates_nothing() {
    use sensor_fusion_fpga::fusion::arith::QArith;

    let _audit = Audit::begin();
    let spec = catalog::paper_static().with_duration(30.0);
    let mut session = spec
        .session_builder(spec.lower_trajectory())
        .iekf(QArith::<24>::default(), spec.config().estimator)
        .build();
    session.run_for(2.0);
    let before = allocations();
    session.run_for(25.0);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "Q8.24 hot path allocated {} times in steady state",
        after - before
    );
    assert!(session.stats().events > 4_000, "the run actually streamed");
}
