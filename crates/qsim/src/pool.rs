//! Persistent worker-pool runtime for batched Monte-Carlo trial engines.
//!
//! A Monte-Carlo sweep over millions of sub-µs protocol rounds cannot pay a
//! `std::thread::scope` spawn per call: spawn cost alone dwarfs the work.
//! [`WorkerPool`] instead keeps **long-lived parked worker threads** (std
//! only — no external dependency, consistent with the vendored-`rand` offline
//! build). A dispatch publishes one job — a `Fn(slot, chunk)` closure plus a
//! chunk count — under a mutex, wakes the workers through a condvar, and the
//! submitting thread participates as slot 0. Chunks are claimed dynamically
//! from a shared atomic counter (index-range dispatch: a chunk is just an
//! index the job maps to its own range), so uneven chunk costs self-balance.
//! The submitter returns only after every engaged worker has checked out,
//! which is what makes the borrowed-closure job safe to share.
//!
//! Design points:
//!
//! * **Slots, not threads.** A job sees a *slot id* `0..workers`; slot 0 is
//!   always the submitting thread, slots `1..` are pool threads. At most one
//!   thread drives a given slot during a dispatch, which makes slot-indexed
//!   scratch ([`SlotScratch`]) race-free: per-worker arenas live across an
//!   entire dispatch (and across dispatches, if the caller keeps them), so
//!   per-trial allocations can be hoisted out of hot loops.
//! * **Reentrancy and contention degrade to inline.** A dispatch from inside
//!   a job (a nested pooled call from a pooled trial engine), or a
//!   concurrent dispatch from another thread, simply runs the job inline on
//!   the calling thread — correctness never depends on pool availability.
//! * **Panic containment.** A job panic on a worker is caught, the pool stays
//!   consistent, and the dispatcher re-raises; a panic on the submitting
//!   thread still waits for the workers before unwinding (the job borrows the
//!   submitter's stack).
//! * **Lazy growth.** Threads are spawned on first demand and grow up to the
//!   requested worker count, so a process that never dispatches never pays
//!   for the pool. [`worker_count`] (the `QSIM_PARALLEL_THREADS`-or-host
//!   policy, memoised — the pool owns this value, callers should not re-read
//!   the environment) only sets the *default* width; callers may request any
//!   explicit width, which benchmarks use to sweep 1/2/4/8 workers in one
//!   process.
//!
//! Determinism: the pool itself guarantees nothing about chunk→slot
//! assignment (it is dynamic by design). Callers that need bit-reproducible
//! results across worker counts must make each chunk's output independent of
//! the executing slot — see `dqma::trials`, which derives one RNG stream per
//! chunk from `(seed, chunk index)` and combines chunk results with a
//! commutative reduction.

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Default worker count: `QSIM_PARALLEL_THREADS` when set to a positive
/// integer (a testability/tuning override), otherwise the host parallelism.
///
/// Read from the environment **once** and memoised for the life of the
/// process — the previous per-call `std::env::var` showed up in sub-µs kernel
/// profiles. The pool owns this value; benchmark harnesses should label their
/// reports with it instead of re-deriving the policy.
pub fn worker_count() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::env::var("QSIM_PARALLEL_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// The process-wide pool, created on first use.
pub fn global() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(WorkerPool::new)
}

/// The erased job type held by the pool (`'static` in the pointer; the
/// checkout protocol in [`WorkerPool::dispatch`] is what makes the erasure
/// of the caller's shorter lifetime sound).
type Job = dyn Fn(usize, usize) + Sync;

/// Type-erased, lifetime-erased pointer to the in-flight job. Sound because
/// `dispatch` does not return until every engaged worker has finished with
/// it (the `active` checkout protocol below).
#[derive(Clone, Copy)]
struct JobPtr(*const Job);
unsafe impl Send for JobPtr {}

struct State {
    /// Monotone epoch; bumped once per dispatch so parked workers can tell a
    /// fresh job from the one they just finished.
    epoch: u64,
    /// The published job, present only while a dispatch is in flight.
    job: Option<JobPtr>,
    /// Number of chunks in the current job.
    nchunks: usize,
    /// Worker threads participating in the current job (slots `1..=engaged`);
    /// higher slots observe the epoch and go straight back to sleep.
    engaged: usize,
    /// Engaged workers that have not yet checked out of the current job.
    active: usize,
    /// Payload of the first job panic on a worker thread; re-raised (with
    /// the original message intact) by the dispatcher.
    panic_payload: Option<Box<dyn std::any::Any + Send>>,
    /// Set by `Drop`: workers exit their park loop instead of waiting.
    shutdown: bool,
}

/// Locks the pool state, recovering from poisoning. The critical sections
/// touching `State` are panic-free by construction (plain field stores and
/// integer arithmetic), and job panics are caught *before* the lock is taken
/// — so a poisoned state mutex carries no torn invariants. Recovering, rather
/// than letting an `.expect` cascade a panic into every parked worker (which
/// would leave `active` undecremented and hang the dispatcher in `done.wait`),
/// is what keeps the pool usable after a contained panic.
fn lock_state(shared: &Shared) -> std::sync::MutexGuard<'_, State> {
    shared
        .state
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when a new job is published.
    work: Condvar,
    /// Signalled when the last engaged worker checks out.
    done: Condvar,
    /// Next unclaimed chunk of the current job.
    next: AtomicUsize,
}

/// A persistent pool of parked worker threads. Most callers use the
/// process-wide [`global`] pool rather than constructing their own; a
/// non-global pool shuts its workers down (and joins them) on drop.
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// Serialises dispatches and guards lazy thread spawning; holds the
    /// spawned worker threads' join handles (slot `i` at index `i - 1`).
    /// `try_lock` failure (a concurrent or nested dispatch) falls back to
    /// inline execution.
    submission: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl WorkerPool {
    /// Creates an empty pool; worker threads are spawned on first dispatch.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        WorkerPool {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    epoch: 0,
                    job: None,
                    nchunks: 0,
                    engaged: 0,
                    active: 0,
                    panic_payload: None,
                    shutdown: false,
                }),
                work: Condvar::new(),
                done: Condvar::new(),
                next: AtomicUsize::new(0),
            }),
            submission: Mutex::new(Vec::new()),
        }
    }

    /// Runs `job(slot, chunk)` for every `chunk` in `0..nchunks`, distributed
    /// dynamically over at most `workers` slots (the submitting thread is
    /// slot 0 and always participates). Returns once every chunk has run.
    ///
    /// Guarantees: each chunk index is executed exactly once; a slot id is
    /// driven by at most one thread at a time. Chunk→slot assignment is
    /// dynamic and **not** reproducible — jobs needing determinism must key
    /// their output on the chunk index alone.
    ///
    /// Degrades to inline (slot 0 runs everything, in order) when `workers`
    /// or `nchunks` is ≤ 1, or when another dispatch is already in flight on
    /// this pool (including a nested dispatch from inside a job).
    ///
    /// # Panics
    ///
    /// Re-raises a panic from the job body, after the pool has returned to a
    /// consistent state (the pool remains usable).
    pub fn dispatch(&self, workers: usize, nchunks: usize, job: &(dyn Fn(usize, usize) + Sync)) {
        let want = workers.min(nchunks);
        if want <= 1 {
            for chunk in 0..nchunks {
                job(0, chunk);
            }
            return;
        }
        // A held submission lock means a dispatch is in flight (possibly our
        // own caller, i.e. a nested dispatch): run inline rather than block.
        // A *poisoned* lock is different: a previous dispatcher panicked
        // while holding it (e.g. thread spawn failure), but the checkout
        // protocol below never leaves the pool in an inconsistent state at a
        // panic point — so recover the guard instead of silently degrading
        // every future dispatch of a long-lived pool to inline execution.
        let mut handles = match self.submission.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                for chunk in 0..nchunks {
                    job(0, chunk);
                }
                return;
            }
        };
        // Grow the pool to `want - 1` parked threads (slot 0 is us).
        while handles.len() < want - 1 {
            let slot = handles.len() + 1;
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("qsim-pool-{slot}"))
                .spawn(move || worker_loop(&shared, slot))
                .expect("failed to spawn pool worker thread");
            handles.push(handle);
        }
        let engaged = want - 1;
        // Lifetime erasure: see `JobPtr`.
        let ptr = JobPtr(unsafe {
            std::mem::transmute::<*const (dyn Fn(usize, usize) + Sync + '_), *const Job>(
                job as *const _,
            )
        });
        {
            let mut st = lock_state(&self.shared);
            self.shared.next.store(0, Ordering::Relaxed);
            st.job = Some(ptr);
            st.nchunks = nchunks;
            st.engaged = engaged;
            st.active = engaged;
            st.epoch += 1;
        }
        self.shared.work.notify_all();
        // Participate as slot 0. A panic here must still wait for the
        // workers before unwinding the stack frames the job borrows.
        let mine = catch_unwind(AssertUnwindSafe(|| loop {
            let chunk = self.shared.next.fetch_add(1, Ordering::Relaxed);
            if chunk >= nchunks {
                break;
            }
            job(0, chunk);
        }));
        let worker_panic = {
            let mut st = lock_state(&self.shared);
            while st.active > 0 {
                st = self
                    .shared
                    .done
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            st.job = None;
            st.panic_payload.take()
        };
        drop(handles);
        // Re-raise with the original payload: the dispatcher's own panic
        // first (its unwind began earlier), then any worker's.
        if let Err(payload) = mine {
            resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    /// Parks no orphans: signals the workers to exit and joins them. The
    /// process-wide [`global`] pool lives in a `static` and is never
    /// dropped; this matters for short-lived pools (tests, ad-hoc tools).
    fn drop(&mut self) {
        let handles = std::mem::take(
            self.submission
                .get_mut()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        {
            let mut st = self
                .shared
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, slot: usize) {
    let mut seen_epoch = 0u64;
    loop {
        // Park until a job with a fresh epoch is published (or the pool is
        // dropped, which is the thread's exit signal).
        let (job, nchunks, engaged, epoch) = {
            let mut st = lock_state(shared);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    if let Some(job) = st.job {
                        break (job, st.nchunks, st.engaged, st.epoch);
                    }
                    // Job already retired; skip to the current epoch so the
                    // next dispatch is seen as fresh.
                    seen_epoch = st.epoch;
                }
                st = shared
                    .work
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        seen_epoch = epoch;
        if slot > engaged {
            continue;
        }
        let result = catch_unwind(AssertUnwindSafe(|| loop {
            let chunk = shared.next.fetch_add(1, Ordering::Relaxed);
            if chunk >= nchunks {
                break;
            }
            unsafe { (*job.0)(slot, chunk) };
        }));
        let mut st = lock_state(shared);
        if let Err(payload) = result {
            // Keep the first payload so the dispatcher can re-raise the
            // panic with its original message and location info.
            st.panic_payload.get_or_insert(payload);
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done.notify_all();
        }
    }
}

/// Slot-indexed scratch arenas for pool jobs: one `T` per worker slot,
/// accessed mutably by the slot that owns it during a dispatch.
///
/// This is how per-worker state (RNG scratch, reusable state vectors and
/// density-matrix buffers) survives across the many chunks a worker
/// processes, instead of being reallocated per chunk or per trial.
pub struct SlotScratch<T> {
    slots: Vec<UnsafeCell<T>>,
}

// Safety: distinct slots are distinct cells, and the pool guarantees at most
// one thread drives a slot at a time; `get` is the unsafe escape hatch that
// encodes the latter obligation.
unsafe impl<T: Send> Sync for SlotScratch<T> {}

impl<T> SlotScratch<T> {
    /// Builds one scratch value per slot.
    pub fn new(slots: usize, mut init: impl FnMut() -> T) -> Self {
        SlotScratch {
            slots: (0..slots).map(|_| UnsafeCell::new(init())).collect(),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` when there are no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Mutable access to slot `slot`'s scratch.
    ///
    /// # Safety
    ///
    /// `slot` must be the slot id passed to the currently executing job by
    /// the pool (or the arena must otherwise not be aliased), so that no two
    /// threads hold the same slot concurrently.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get(&self, slot: usize) -> &mut T {
        &mut *self.slots[slot].get()
    }

    /// Consumes the arena, yielding every slot's scratch.
    pub fn into_inner(self) -> Vec<T> {
        self.slots.into_iter().map(|c| c.into_inner()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn dispatch_runs_every_chunk_exactly_once() {
        let pool = WorkerPool::new();
        for &workers in &[1usize, 2, 4, 8] {
            let nchunks = 257;
            let hits: Vec<AtomicU64> = (0..nchunks).map(|_| AtomicU64::new(0)).collect();
            pool.dispatch(workers, nchunks, &|_slot, chunk| {
                hits[chunk].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "every chunk must run exactly once at {workers} workers"
            );
        }
    }

    #[test]
    fn slots_stay_within_requested_width() {
        let pool = WorkerPool::new();
        let max_slot = AtomicUsize::new(0);
        pool.dispatch(3, 64, &|slot, _chunk| {
            max_slot.fetch_max(slot, Ordering::Relaxed);
        });
        assert!(max_slot.load(Ordering::Relaxed) <= 2);
    }

    #[test]
    fn nested_dispatch_degrades_to_inline() {
        let pool = WorkerPool::new();
        let total = AtomicU64::new(0);
        pool.dispatch(4, 8, &|_slot, outer| {
            // A dispatch from inside a job must not deadlock; it runs inline.
            pool.dispatch(4, 4, &|_s, inner| {
                total.fetch_add((outer * 4 + inner) as u64, Ordering::Relaxed);
            });
        });
        // Σ_{outer<8} Σ_{inner<4} (4·outer+inner) = Σ_{k<32} k = 496.
        assert_eq!(total.load(Ordering::Relaxed), 496);
    }

    #[test]
    fn pool_survives_and_reraises_a_job_panic_with_its_payload() {
        let pool = WorkerPool::new();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.dispatch(2, 16, &|_slot, chunk| {
                if chunk == 7 {
                    panic!("boom at chunk {chunk}");
                }
            });
        }));
        // The panic must propagate with its original message, whichever
        // thread claimed the panicking chunk.
        let payload = result.expect_err("the job panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload should be a message");
        assert!(message.contains("boom at chunk 7"), "payload: {message}");
        // The pool must remain usable afterwards.
        let count = AtomicU64::new(0);
        pool.dispatch(2, 16, &|_slot, _chunk| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }

    /// Runs a dispatch wide enough to observe worker participation: the
    /// chunk-0 runner spins (bounded) until some slot ≥ 1 has claimed a
    /// chunk, so the assertion cannot race a slow worker wakeup.
    fn assert_workers_engage(pool: &WorkerPool) {
        let max_slot = AtomicUsize::new(0);
        let count = AtomicU64::new(0);
        pool.dispatch(4, 64, &|slot, chunk| {
            max_slot.fetch_max(slot, Ordering::Relaxed);
            count.fetch_add(1, Ordering::Relaxed);
            if chunk == 0 {
                let start = std::time::Instant::now();
                while max_slot.load(Ordering::Relaxed) == 0
                    && start.elapsed() < std::time::Duration::from_secs(2)
                {
                    std::thread::yield_now();
                }
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 64);
        assert!(
            max_slot.load(Ordering::Relaxed) >= 1,
            "pool degraded to inline-only execution"
        );
    }

    #[test]
    fn dispatch_recovers_a_poisoned_submission_lock() {
        let pool = WorkerPool::new();
        // Poison the submission lock the way a mid-dispatch panic (e.g. a
        // failed worker-thread spawn) would.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = pool.submission.lock().unwrap();
            panic!("poison the submission lock");
        }));
        assert!(pool.submission.is_poisoned());
        // Regression: a poisoned submission lock used to be indistinguishable
        // from a *held* one, permanently degrading every later dispatch on a
        // long-lived pool to inline execution. It must be recovered instead.
        assert_workers_engage(&pool);
    }

    #[test]
    fn dispatch_recovers_a_poisoned_state_lock() {
        let pool = WorkerPool::new();
        // Spawn and park the workers first so they are waiting on the state
        // condvar when the poisoning happens.
        pool.dispatch(4, 16, &|_slot, _chunk| {});
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = pool.shared.state.lock().unwrap();
            panic!("poison the state lock");
        }));
        assert!(pool.shared.state.is_poisoned());
        // Regression: `.expect("pool state poisoned")` here used to panic in
        // the dispatcher *and* cascade into every parked worker on wakeup,
        // leaving `active` undecremented — a permanently wedged pool.
        assert_workers_engage(&pool);
    }

    #[test]
    fn dropping_a_pool_joins_its_workers() {
        let pool = WorkerPool::new();
        let sum = AtomicU64::new(0);
        pool.dispatch(4, 64, &|_slot, chunk| {
            sum.fetch_add(chunk as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 63 * 64 / 2);
        // Drop must signal the parked workers and join them (it would hang
        // here if the shutdown wakeup were lost).
        drop(pool);
    }

    #[test]
    fn slot_scratch_accumulates_per_worker() {
        let pool = WorkerPool::new();
        let workers = 4;
        let scratch = SlotScratch::new(workers, || 0u64);
        pool.dispatch(workers, 1000, &|slot, chunk| {
            // Safety: `slot` is the pool-provided slot id.
            let s = unsafe { scratch.get(slot) };
            *s += chunk as u64;
        });
        let total: u64 = scratch.into_inner().into_iter().sum();
        assert_eq!(total, 999 * 1000 / 2);
    }

    #[test]
    fn worker_count_is_positive_and_stable() {
        let a = worker_count();
        let b = worker_count();
        assert!(a >= 1);
        assert_eq!(a, b, "memoised policy must not change between calls");
    }

    #[test]
    fn sequential_dispatches_reuse_the_pool() {
        let pool = WorkerPool::new();
        for round in 0..50 {
            let sum = AtomicU64::new(0);
            pool.dispatch(4, 32, &|_slot, chunk| {
                sum.fetch_add(chunk as u64 + round, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 31 * 32 / 2 + 32 * round);
        }
    }
}
