//! A fixed-size work-stealing thread pool built on `std::thread` only.
//!
//! Design:
//! - `threads` is the total parallelism budget. The pool spawns
//!   `threads - 1` OS workers; the submitting thread participates as the
//!   final executor while a job is in flight, so a `threads = 4` pool keeps
//!   four lanes busy without ever oversubscribing by one.
//! - Each worker owns a deque. Tasks are pushed round-robin across all
//!   deques at submission time; workers pop their own deque from the back
//!   (LIFO, cache-warm) and steal from other deques from the front (FIFO,
//!   oldest first).
//! - A job is a lifetime-erased `Fn(Range<usize>)` shared by every chunk.
//!   The submitting call blocks until every chunk has run, which is what
//!   makes the lifetime erasure sound: the closure cannot be dropped while
//!   workers still hold pointers to it.
//! - Determinism contract: the pool never decides *how* work is split —
//!   callers pass an index range and a chunk size, and chunk boundaries are
//!   a pure function of `(n, chunk)`. The pool only decides *where* each
//!   chunk runs, and `parallel_map` writes results into per-index slots, so
//!   output order is independent of scheduling.
//! - Panics inside a task are caught, flagged on the job, and re-raised on
//!   the submitting thread once the job drains.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use dlacep_obs::{Counter, Gauge, Histogram, Journal, Registry};
use serde::{Deserialize, Serialize};

/// How often a `pool.queue_depth` journal sample is recorded: one entry per
/// this many forked jobs (the gauge is updated on every job). Keeps long
/// runs that submit thousands of jobs from flushing runtime events out of
/// the bounded journal ring.
const QUEUE_DEPTH_SAMPLE_EVERY: u64 = 64;

thread_local! {
    static IN_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// True when the current thread is a pool worker. Nested `parallel_for`
/// calls from inside a task run inline to avoid deadlocking the pool.
fn on_worker_thread() -> bool {
    IN_POOL_WORKER.with(|c| c.get())
}

type TaskFn = dyn Fn(Range<usize>) + Sync;

struct Job {
    /// Lifetime-erased pointer to the caller's closure. Valid for the
    /// duration of the submitting `parallel_for` call, which blocks until
    /// `remaining` hits zero.
    f: *const TaskFn,
    remaining: AtomicUsize,
    panicked: AtomicBool,
    done: Mutex<bool>,
    done_cv: Condvar,
}

// SAFETY: `f` points at a `Sync` closure that outlives the job (the
// submitter blocks), and all other fields are sync primitives.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

struct Task {
    job: Arc<Job>,
    range: Range<usize>,
}

struct SleepState {
    /// Bumped under the lock whenever new tasks are enqueued, so a worker
    /// that drained its view of the deques can detect a submission that
    /// raced with it going to sleep.
    epoch: u64,
    shutdown: bool,
}

/// Obs handles for the `pool.*` metric namespace. All scheduling-dependent:
/// excluded from the determinism contract (see DESIGN.md).
struct PoolObs {
    jobs: Counter,
    tasks_executed: Counter,
    tasks_stolen: Counter,
    task_nanos: Histogram,
    queue_depth: Gauge,
    journal: Journal,
}

impl PoolObs {
    fn from_registry(registry: &Registry) -> Self {
        PoolObs {
            jobs: registry.counter("pool.jobs"),
            tasks_executed: registry.counter("pool.tasks_executed"),
            tasks_stolen: registry.counter("pool.tasks_stolen"),
            task_nanos: registry.histogram("pool.task_nanos"),
            queue_depth: registry.gauge("pool.queue_depth"),
            journal: registry.journal(),
        }
    }
}

struct Shared {
    /// One deque per worker plus a final "submitter" deque that only
    /// blocked callers pop as their own.
    deques: Vec<Mutex<VecDeque<Task>>>,
    sleep: Mutex<SleepState>,
    wake: Condvar,
    /// Per-slot counters; slot `workers` belongs to submitting callers.
    executed: Vec<AtomicU64>,
    stolen: Vec<AtomicU64>,
    jobs: AtomicU64,
    obs: PoolObs,
}

/// Cumulative scheduling counters for a [`ThreadPool`].
///
/// `tasks_executed` counts chunks, not items; `tasks_stolen` counts chunks a
/// slot took from a deque it does not own. The split of work across slots is
/// scheduling-dependent, but the *totals* per job are deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolStats {
    /// Total parallelism (spawned workers + the participating caller).
    pub threads: usize,
    /// Jobs (one per `parallel_for`/`parallel_map` that actually forked).
    pub jobs: u64,
    /// Chunks executed across all slots.
    pub tasks_executed: u64,
    /// Chunks executed by a slot other than the deque they were pushed to.
    pub tasks_stolen: u64,
}

/// Fixed-size work-stealing thread pool. See the module docs for the
/// design and determinism contract.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Spawned worker count (`threads - 1`).
    workers: usize,
}

impl ThreadPool {
    /// Create a pool with a total parallelism of `threads` (the submitting
    /// thread counts as one lane). `threads <= 1` spawns no workers and
    /// every `parallel_for` runs inline on the caller. Scheduling metrics
    /// go to the process-wide [`dlacep_obs::global`] registry; use
    /// [`ThreadPool::with_obs`] to target a specific one.
    pub fn new(threads: usize) -> Self {
        Self::with_obs(threads, &dlacep_obs::global())
    }

    /// Create a pool reporting its `pool.*` metrics into `registry`.
    pub fn with_obs(threads: usize, registry: &Registry) -> Self {
        let workers = threads.saturating_sub(1);
        let shared = Arc::new(Shared {
            deques: (0..workers + 1)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            sleep: Mutex::new(SleepState {
                epoch: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
            executed: (0..workers + 1).map(|_| AtomicU64::new(0)).collect(),
            stolen: (0..workers + 1).map(|_| AtomicU64::new(0)).collect(),
            jobs: AtomicU64::new(0),
            obs: PoolObs::from_registry(registry),
        });
        let handles = (0..workers)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dlacep-par-{idx}"))
                    .spawn(move || worker_loop(&shared, idx))
                    .expect("failed to spawn dlacep-par worker")
            })
            .collect();
        ThreadPool {
            shared,
            handles,
            workers,
        }
    }

    /// Total parallelism of this pool (workers + caller).
    pub fn threads(&self) -> usize {
        self.workers + 1
    }

    /// Snapshot of cumulative scheduling counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            threads: self.threads(),
            jobs: self.shared.jobs.load(Ordering::Relaxed),
            tasks_executed: self
                .shared
                .executed
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .sum(),
            tasks_stolen: self
                .shared
                .stolen
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .sum(),
        }
    }

    /// Run `f` over every chunk of `0..n`, chunked by `chunk` items, in
    /// parallel. Blocks until all chunks have run. Chunk boundaries depend
    /// only on `(n, chunk)`, never on thread count or scheduling. Runs
    /// inline when the pool has no workers, when a single chunk covers the
    /// range, or when called from inside a pool task (nested parallelism).
    ///
    /// Panics on the calling thread if any chunk panics.
    pub fn parallel_for<F>(&self, n: usize, chunk: usize, f: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        if n == 0 {
            return;
        }
        let chunk = chunk.max(1);
        let nchunks = n.div_ceil(chunk);
        if self.workers == 0 || nchunks <= 1 || on_worker_thread() {
            f(0..n);
            return;
        }

        // Erase the closure's lifetime. Sound because this call blocks on
        // `done_cv` until every chunk referencing `f` has finished.
        let f_ref: &(dyn Fn(Range<usize>) + Sync) = &f;
        let f_static: *const TaskFn = unsafe {
            std::mem::transmute::<*const (dyn Fn(Range<usize>) + Sync), *const TaskFn>(f_ref)
        };
        let job = Arc::new(Job {
            f: f_static,
            remaining: AtomicUsize::new(nchunks),
            panicked: AtomicBool::new(false),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        let job_seq = self.shared.jobs.fetch_add(1, Ordering::Relaxed);
        self.shared.obs.jobs.inc();
        self.shared.obs.queue_depth.set(nchunks as f64);
        if job_seq.is_multiple_of(QUEUE_DEPTH_SAMPLE_EVERY) {
            self.shared.obs.journal.record(
                "pool.queue_depth",
                &[("job", job_seq.into()), ("depth", (nchunks as u64).into())],
            );
        }

        let slots = self.workers + 1;
        for c in 0..nchunks {
            let start = c * chunk;
            let end = (start + chunk).min(n);
            let task = Task {
                job: Arc::clone(&job),
                range: start..end,
            };
            self.shared.deques[c % slots]
                .lock()
                .unwrap()
                .push_back(task);
        }
        {
            let mut st = self.shared.sleep.lock().unwrap();
            st.epoch += 1;
        }
        self.shared.wake.notify_all();

        // The caller participates: drain its own deque, then steal, then
        // block on the job's completion.
        let caller_slot = self.workers;
        loop {
            if job.remaining.load(Ordering::Acquire) == 0 {
                break;
            }
            if let Some(task) = pop_own(&self.shared, caller_slot) {
                run_task(&self.shared, caller_slot, false, task);
            } else if let Some(task) = steal(&self.shared, caller_slot) {
                run_task(&self.shared, caller_slot, true, task);
            } else {
                let mut done = job.done.lock().unwrap();
                while !*done {
                    done = job.done_cv.wait(done).unwrap();
                }
                break;
            }
        }

        if job.panicked.load(Ordering::Acquire) {
            panic!("dlacep-par: a pool task panicked (original payload reported above)");
        }
    }

    /// Map `f` over `items` in parallel, returning results in item order.
    /// Each result is written to its item's slot, so the output is
    /// independent of which worker ran which chunk.
    pub fn parallel_map<T, R, F>(&self, items: &[T], chunk: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let mut out: Vec<std::mem::MaybeUninit<R>> = Vec::with_capacity(n);
        // SAFETY: MaybeUninit needs no initialization; every slot is written
        // exactly once below before being read.
        unsafe { out.set_len(n) };
        let out_ptr = SendPtr::new(out.as_mut_ptr());
        self.parallel_for(n, chunk, |range| {
            for i in range {
                let v = f(i, &items[i]);
                // SAFETY: chunks partition 0..n, so each index is written by
                // exactly one task; the buffer outlives the blocking call.
                unsafe { (*out_ptr.get().add(i)).write(v) };
            }
        });
        // parallel_for panics (and never returns) if any task panicked, so
        // reaching this point means every slot is initialized.
        let mut out = std::mem::ManuallyDrop::new(out);
        unsafe { Vec::from_raw_parts(out.as_mut_ptr().cast::<R>(), n, out.capacity()) }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.sleep.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.wake.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads())
            .finish()
    }
}

/// A raw pointer that asserts `Send + Sync`, for writing disjoint regions
/// of one buffer from multiple pool tasks. The caller is responsible for
/// ensuring tasks touch non-overlapping regions and the buffer outlives
/// the job (which `parallel_for`'s blocking guarantees).
struct SendPtr<T>(*mut T);

// Manual impls: the derives would add an unwanted `T: Copy` bound.
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

impl<T> SendPtr<T> {
    fn new(ptr: *mut T) -> Self {
        SendPtr(ptr)
    }

    fn get(self) -> *mut T {
        self.0
    }
}

// SAFETY: asserted by the constructor's contract; disjointness is the
// caller's obligation.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

fn pop_own(shared: &Shared, slot: usize) -> Option<Task> {
    shared.deques[slot].lock().unwrap().pop_back()
}

fn steal(shared: &Shared, slot: usize) -> Option<Task> {
    let slots = shared.deques.len();
    for off in 1..slots {
        let victim = (slot + off) % slots;
        if let Some(task) = shared.deques[victim].lock().unwrap().pop_front() {
            return Some(task);
        }
    }
    None
}

fn run_task(shared: &Shared, slot: usize, stolen: bool, task: Task) {
    let Task { job, range } = task;
    // SAFETY: the submitter blocks until `remaining` drains, so `f` is live.
    let f = unsafe { &*job.f };
    {
        let _span = shared.obs.task_nanos.span();
        if catch_unwind(AssertUnwindSafe(|| f(range))).is_err() {
            job.panicked.store(true, Ordering::Release);
        }
    }
    shared.executed[slot].fetch_add(1, Ordering::Relaxed);
    shared.obs.tasks_executed.inc();
    if stolen {
        shared.stolen[slot].fetch_add(1, Ordering::Relaxed);
        shared.obs.tasks_stolen.inc();
    }
    if job.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        let mut done = job.done.lock().unwrap();
        *done = true;
        job.done_cv.notify_all();
    }
}

fn worker_loop(shared: &Shared, idx: usize) {
    IN_POOL_WORKER.with(|c| c.set(true));
    let mut seen_epoch = 0u64;
    loop {
        loop {
            if let Some(task) = pop_own(shared, idx) {
                run_task(shared, idx, false, task);
            } else if let Some(task) = steal(shared, idx) {
                run_task(shared, idx, true, task);
            } else {
                break;
            }
        }
        let mut st = shared.sleep.lock().unwrap();
        if st.shutdown {
            return;
        }
        // A submission that raced with the drain above bumped the epoch
        // under this lock; skip the wait and rescan in that case.
        if st.epoch == seen_epoch {
            st = shared.wake.wait(st).unwrap();
        }
        if st.shutdown {
            return;
        }
        seen_epoch = st.epoch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn parallel_for_covers_every_index_once() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicU32> = (0..1000).map(|_| AtomicU32::new(0)).collect();
        pool.parallel_for(1000, 7, |range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_map_preserves_item_order() {
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::new(threads);
            let items: Vec<usize> = (0..257).collect();
            let out = pool.parallel_map(&items, 3, |i, &x| {
                assert_eq!(i, x);
                x * 2 + 1
            });
            let expect: Vec<usize> = items.iter().map(|&x| x * 2 + 1).collect();
            assert_eq!(out, expect);
        }
    }

    #[test]
    fn serial_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        let out = pool.parallel_map(&[1u32, 2, 3], 1, |_, &x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
        assert_eq!(pool.stats().jobs, 0, "threads=1 must not fork jobs");
    }

    #[test]
    fn nested_parallel_for_runs_inline_without_deadlock() {
        let pool = ThreadPool::new(4);
        let total = AtomicU32::new(0);
        pool.parallel_for(8, 1, |outer| {
            for _ in outer {
                // Re-entrant submission from a task must not deadlock.
                pool.parallel_for(4, 1, |inner| {
                    total.fetch_add(inner.len() as u32, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn task_panic_propagates_to_caller() {
        let pool = ThreadPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for(64, 1, |range| {
                if range.contains(&13) {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool must stay usable after a panicked job.
        let out = pool.parallel_map(&[5u8, 6], 1, |_, &x| x);
        assert_eq!(out, vec![5, 6]);
    }

    #[test]
    fn stats_count_chunks_deterministically() {
        let pool = ThreadPool::new(3);
        pool.parallel_for(100, 10, |_| {});
        pool.parallel_for(100, 10, |_| {});
        let stats = pool.stats();
        assert_eq!(stats.threads, 3);
        assert_eq!(stats.jobs, 2);
        assert_eq!(stats.tasks_executed, 20);
        assert!(stats.tasks_stolen <= stats.tasks_executed);
    }

    #[test]
    fn obs_registry_sees_pool_activity() {
        let registry = Registry::enabled();
        let pool = ThreadPool::with_obs(3, &registry);
        pool.parallel_for(100, 10, |_| {});
        let snap = registry.snapshot();
        assert_eq!(snap.counters["pool.jobs"], 1);
        assert_eq!(snap.counters["pool.tasks_executed"], 10);
        assert_eq!(snap.histograms["pool.task_nanos"].count, 10);
        assert_eq!(snap.gauges["pool.queue_depth"], 10.0);
        // Job 0 always leaves a queue-depth journal sample.
        assert!(snap
            .journal
            .entries
            .iter()
            .any(|e| e.kind == "pool.queue_depth"));
    }

    #[test]
    fn disabled_obs_registry_stays_empty() {
        let registry = Registry::disabled();
        let pool = ThreadPool::with_obs(2, &registry);
        pool.parallel_for(16, 2, |_| {});
        let snap = registry.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn empty_and_single_chunk_inputs() {
        let pool = ThreadPool::new(4);
        pool.parallel_for(0, 8, |_| panic!("must not run"));
        let out: Vec<u8> = pool.parallel_map(&[], 8, |_, x: &u8| *x);
        assert!(out.is_empty());
        let out = pool.parallel_map(&[9u8], 8, |_, &x| x);
        assert_eq!(out, vec![9]);
    }
}
