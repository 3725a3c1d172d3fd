//! A vendored work-stealing-lite executor for the sweep and fleet
//! layers.
//!
//! Two tiers live here. [`map_parallel`] is the one-shot API the
//! scenario × substrate sweeps use: every cell owns its RNG,
//! trajectory and session, so a scoped pool of threads self-scheduling
//! over a shared work list through one atomic cursor keeps every core
//! busy even when cell costs differ by orders of magnitude (the
//! Softfloat column costs ~50x the native one). Results come back in
//! input order regardless of completion order, so parallel callers
//! observe exactly what a serial loop would have produced — the
//! property [`crate::spec::ScenarioSuite::run_parallel`] pins with a
//! bit-identity test.
//!
//! [`Pool`] is the persistent tier underneath: a long-lived set of
//! parked worker threads woken per call through a condvar-guarded
//! epoch counter. One [`Pool::run_epoch`] call publishes a borrowed
//! closure to every worker, runs the caller as worker `0`, and
//! barriers until the last worker finishes — **no thread is spawned
//! and no heap allocation is performed per call**, which is what lets
//! the fleet server's 5 ms epoch loop run on it without paying thread
//! spawn/join or scheduling-allocation costs every epoch
//! (`tests/alloc_audit.rs` pins the zero-allocation property).
//! [`map_parallel`] is now a thin one-shot wrapper: build a pool, run
//! one cursor-scheduled map epoch, drop the pool.
//!
//! ```
//! use boresight::exec;
//!
//! let squares = exec::map_parallel((0..16).collect(), 4, |x: i32| x * x);
//! assert_eq!(squares[5], 25);
//!
//! // The persistent tier: one pool, many epochs, zero spawns after
//! // construction.
//! let pool = exec::Pool::new(4);
//! let sum = std::sync::atomic::AtomicUsize::new(0);
//! pool.run_epoch(|worker| {
//!     sum.fetch_add(worker, std::sync::atomic::Ordering::Relaxed);
//! });
//! assert_eq!(sum.load(std::sync::atomic::Ordering::Relaxed), 0 + 1 + 2 + 3);
//! ```

use std::cell::UnsafeCell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// The worker count meaning "one per available core".
///
/// [`map_parallel`] and [`Pool::new`] treat `0` as
/// [`default_workers`], so bench binaries can pass a plain
/// `--workers 0` through.
pub const AUTO_WORKERS: usize = 0;

/// The machine's available parallelism (falls back to 1 when the
/// platform cannot say).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolves a requested worker count: `0` means
/// [`default_workers`], anything else is taken as-is.
pub fn resolve_workers(requested: usize) -> usize {
    if requested == AUTO_WORKERS {
        default_workers()
    } else {
        requested
    }
}

/// Threads spawned by every [`Pool`] built so far, process-wide.
///
/// Warm-up audits read this before and after a measurement window to
/// prove a persistent pool serviced it without spawning — the property
/// the fleet's epoch loop depends on. The counter only ever grows, and
/// any concurrently built pool moves it too: to audit one pool, read
/// [`Pool::threads_spawned`].
pub fn threads_spawned() -> u64 {
    POOL_THREADS_SPAWNED.load(Ordering::Relaxed)
}

static POOL_THREADS_SPAWNED: AtomicU64 = AtomicU64::new(0);

/// An `UnsafeCell` the executor layer may share across threads.
///
/// Soundness is the *caller's* obligation and always rests on one of
/// two disjointness arguments: an atomic cursor or claim flag hands
/// each cell to exactly one worker per epoch (the map / shard-claim
/// pattern), or the cell is indexed by worker id so no two workers
/// ever touch the same one (the per-worker-scratch pattern).
pub(crate) struct SyncCell<T>(UnsafeCell<T>);

// SAFETY: `SyncCell` only adds the `Sync` bound; every access goes
// through `get()` under one of the disjointness protocols above, and
// `T: Send` is required because those protocols move `T`s (or `&mut
// T`s) across worker threads.
unsafe impl<T: Send> Sync for SyncCell<T> {}

impl<T> SyncCell<T> {
    pub(crate) fn new(value: T) -> Self {
        Self(UnsafeCell::new(value))
    }

    /// The raw slot. Callers must uphold the module's disjointness
    /// protocol before turning this into a reference.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn get(&self) -> &mut T {
        // SAFETY: forwarded to the caller (see the type docs).
        unsafe { &mut *self.0.get() }
    }

    /// Exclusive access through an exclusive handle — plain safe code.
    pub(crate) fn get_mut(&mut self) -> &mut T {
        self.0.get_mut()
    }

    pub(crate) fn into_inner(self) -> T {
        self.0.into_inner()
    }
}

/// A type-erased borrowed job: the closure's address plus a
/// monomorphized trampoline. Valid only while the publishing
/// `run_epoch` frame is alive — which the completion barrier
/// guarantees.
#[derive(Clone, Copy)]
struct RawJob {
    data: *const (),
    call: unsafe fn(*const (), usize),
}

// SAFETY: the pointer is only dereferenced through `call` between job
// publication and the completion barrier, while the referent (a
// `Sync` closure borrowed by `run_epoch`) is alive and shareable.
unsafe impl Send for RawJob {}

struct JobState {
    /// Bumped once per published job; workers use it to tell a fresh
    /// job from a spurious wake-up.
    epoch: u64,
    job: Option<RawJob>,
    /// Workers still running the current job.
    remaining: usize,
    /// A worker's job panicked; re-raised on the caller after the
    /// barrier so the borrow discipline survives unwinding.
    panicked: bool,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<JobState>,
    /// Workers park here between epochs.
    start: Condvar,
    /// The caller parks here until `remaining` hits zero.
    done: Condvar,
    /// Threads spawned for this pool.
    spawned: AtomicU64,
}

/// A persistent worker pool: `workers - 1` parked threads plus the
/// caller, woken per [`Pool::run_epoch`] call via a condvar-guarded
/// epoch counter.
///
/// Construction spawns the threads once; every subsequent epoch is
/// allocation-free and spawn-free (wake, run, barrier). Dropping the
/// pool parks a shutdown flag and joins the threads.
pub struct Pool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Builds a pool of `workers` (resolved via [`resolve_workers`];
    /// minimum 1). A 1-worker pool spawns no threads — `run_epoch`
    /// runs inline.
    pub fn new(workers: usize) -> Self {
        let workers = resolve_workers(workers).max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(JobState {
                epoch: 0,
                job: None,
                remaining: 0,
                panicked: false,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
            spawned: AtomicU64::new(0),
        });
        let handles = (1..workers)
            .map(|id| {
                POOL_THREADS_SPAWNED.fetch_add(1, Ordering::Relaxed);
                shared.spawned.fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("exec-pool-{id}"))
                    .spawn(move || worker_loop(&shared, id))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, handles }
    }

    /// Total workers, the caller included.
    pub fn workers(&self) -> usize {
        self.handles.len() + 1
    }

    /// Threads this pool has spawned over its life — the per-pool twin
    /// of the process-wide [`threads_spawned`], unaffected by pools
    /// other threads build meanwhile.
    pub fn threads_spawned(&self) -> u64 {
        self.shared.spawned.load(Ordering::Relaxed)
    }

    /// Runs `f(worker_id)` once on every worker — ids `0..workers()`,
    /// the caller as worker `0` — and returns after the last worker
    /// finishes. The closure is borrowed, not boxed: the call performs
    /// no heap allocation and spawns no thread.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any worker's `f` after the barrier.
    pub fn run_epoch<F>(&self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if self.handles.is_empty() {
            f(0);
            return;
        }
        unsafe fn trampoline<F: Fn(usize) + Sync>(data: *const (), worker: usize) {
            // SAFETY: `data` is the `&F` published below, alive until
            // the barrier releases the caller.
            let f = unsafe { &*data.cast::<F>() };
            f(worker);
        }
        {
            let mut state = self.shared.state.lock().expect("pool state");
            state.job = Some(RawJob {
                data: (&raw const f).cast(),
                call: trampoline::<F>,
            });
            state.epoch += 1;
            state.remaining = self.handles.len();
            self.shared.start.notify_all();
        }
        // The barrier must run even if `f(0)` unwinds: workers may
        // still hold `&f`, so the guard waits for them before the
        // closure's frame is torn down.
        let guard = BarrierGuard {
            shared: &self.shared,
        };
        f(0);
        drop(guard);
        let mut state = self.shared.state.lock().expect("pool state");
        if state.panicked {
            state.panicked = false;
            drop(state);
            panic!("a pool worker's job panicked");
        }
    }

    /// Maps `f` over `items` on this pool via one cursor-scheduled
    /// epoch, returning results in input order. Dynamic scheduling —
    /// an atomic cursor hands each idle worker the next unclaimed
    /// item — so uneven item costs do not leave threads idle.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        if self.workers() == 1 || n <= 1 {
            return items.into_iter().map(f).collect();
        }
        let work: Vec<SyncCell<Option<T>>> =
            items.into_iter().map(|t| SyncCell::new(Some(t))).collect();
        let results: Vec<SyncCell<Option<R>>> = (0..n).map(|_| SyncCell::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        self.run_epoch(|_| loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            // SAFETY: the cursor hands index `i` to exactly one
            // worker; nobody else touches these cells this epoch.
            let item = unsafe { work[i].get() }
                .take()
                .expect("each slot is claimed once");
            let r = f(item);
            *unsafe { results[i].get() } = Some(r);
        });
        results
            .into_iter()
            .map(|slot| slot.into_inner().expect("every slot was filled"))
            .collect()
    }
}

/// Waits out the completion barrier, even during unwinding.
struct BarrierGuard<'a> {
    shared: &'a PoolShared,
}

impl Drop for BarrierGuard<'_> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().expect("pool state");
        while state.remaining > 0 {
            state = self.shared.done.wait(state).expect("pool state");
        }
        state.job = None;
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool state");
            state.shutdown = true;
            self.shared.start.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, worker: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool state");
            loop {
                if state.shutdown {
                    return;
                }
                if state.epoch != seen {
                    seen = state.epoch;
                    break state.job.expect("a bumped epoch publishes a job");
                }
                state = shared.start.wait(state).expect("pool state");
            }
        };
        // SAFETY: the publishing `run_epoch` frame is barriered on
        // `remaining`, so the borrowed closure outlives this call.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
            (job.call)(job.data, worker)
        }));
        let mut state = shared.state.lock().expect("pool state");
        if outcome.is_err() {
            state.panicked = true;
        }
        state.remaining -= 1;
        if state.remaining == 0 {
            shared.done.notify_all();
        }
    }
}

/// Maps `f` over `items` on a one-shot pool of `workers` threads
/// (resolved via [`resolve_workers`]; the pool never exceeds the item
/// count), returning results in input order.
///
/// `f` runs exactly once per item; scheduling is [`Pool::map`]'s
/// dynamic cursor. With one worker (or one item) no thread is spawned
/// and the map runs inline, so single-core machines pay nothing for
/// the machinery. Sweep callers that map repeatedly should hold a
/// [`Pool`] and call [`Pool::map`] to skip the per-call spawn/join.
///
/// # Panics
///
/// Propagates a panic from `f` after the pool joins.
pub fn map_parallel<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = resolve_workers(workers).clamp(1, n.max(1));
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    Pool::new(workers).map(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_input_order() {
        let out = map_parallel((0..100).collect(), 4, |x: usize| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..37).collect();
        let serial = map_parallel(items.clone(), 1, |x| x.wrapping_mul(0x9E3779B9));
        let parallel = map_parallel(items, 8, |x| x.wrapping_mul(0x9E3779B9));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<i32> = map_parallel(Vec::<i32>::new(), 4, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn auto_workers_resolve_to_at_least_one() {
        assert!(resolve_workers(AUTO_WORKERS) >= 1);
        assert_eq!(resolve_workers(3), 3);
    }

    #[test]
    fn uneven_costs_still_cover_every_item() {
        // Items with wildly different costs: the cursor must hand every
        // index out exactly once.
        let out = map_parallel((0..25).collect(), 5, |x: u64| {
            let spin = if x.is_multiple_of(7) { 20_000 } else { 10 };
            let mut acc = x;
            for _ in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (x, acc)
        });
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, i as u64);
        }
    }

    #[test]
    fn worker_count_exceeding_items_is_clamped() {
        let out = map_parallel(vec![1, 2, 3], 64, |x: i32| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn pool_runs_many_epochs_without_spawning() {
        let pool = Pool::new(4);
        assert_eq!(pool.workers(), 4);
        assert_eq!(pool.threads_spawned(), 3);
        let hits = AtomicUsize::new(0);
        for _ in 0..200 {
            pool.run_epoch(|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(hits.load(Ordering::Relaxed), 200 * 4);
        assert_eq!(
            pool.threads_spawned(),
            3,
            "run_epoch must never spawn a thread"
        );
    }

    #[test]
    fn pool_worker_ids_are_distinct_and_dense() {
        let pool = Pool::new(6);
        let seen: Vec<AtomicUsize> = (0..6).map(|_| AtomicUsize::new(0)).collect();
        pool.run_epoch(|worker| {
            seen[worker].fetch_add(1, Ordering::Relaxed);
        });
        for (i, s) in seen.iter().enumerate() {
            assert_eq!(s.load(Ordering::Relaxed), 1, "worker {i} ran once");
        }
    }

    #[test]
    fn single_worker_pool_runs_inline() {
        let pool = Pool::new(1);
        pool.run_epoch(|worker| assert_eq!(worker, 0));
        assert_eq!(pool.map(vec![1, 2, 3], |x: i32| x * 10), vec![10, 20, 30]);
        assert_eq!(pool.threads_spawned(), 0, "a 1-worker pool spawns nothing");
    }

    #[test]
    fn pool_map_matches_one_shot_map() {
        let pool = Pool::new(3);
        let items: Vec<u64> = (0..41).collect();
        let a = pool.map(items.clone(), |x| x.wrapping_mul(0x9E3779B9));
        let b = map_parallel(items, 3, |x| x.wrapping_mul(0x9E3779B9));
        assert_eq!(a, b);
        // The pool stays serviceable after a map epoch.
        let c = pool.map((0..5).collect(), |x: i32| x + 1);
        assert_eq!(c, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let pool = Pool::new(3);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_epoch(|worker| {
                if worker == 2 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err(), "the worker's panic must surface");
        // The pool survives the panic and keeps running epochs.
        let hits = AtomicUsize::new(0);
        pool.run_epoch(|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }
}
