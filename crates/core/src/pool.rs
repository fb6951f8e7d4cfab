//! The persistent worker pool behind [`ShardedEngine`](crate::ShardedEngine).
//!
//! # Why a pool
//!
//! The engine's first parallel implementation spawned `workers` fresh OS
//! threads through [`std::thread::scope`] *every simulated day* — a
//! 90-day run at 8 workers paid 720 thread spawns, and the per-day
//! static shard buckets meant one slow shard stalled its whole bucket.
//! The engine's phase profile showed the result: adding workers made
//! runs *slower*. [`WorkerPool`] fixes both halves: threads are spawned once
//! per run and parked between dispatches, and work is claimed by an
//! atomic next-job index so an idle worker steals whatever job is still
//! unclaimed instead of waiting on a pre-assigned bucket.
//!
//! # Protocol
//!
//! [`WorkerPool::scoped`] spawns `workers - 1` helper threads (the
//! calling thread is participant 0, so one worker means zero threads and
//! zero coordination cost) and hands the caller a handle. Each
//! [`WorkerPool::run_chunked`] dispatch:
//!
//! 1. resets the shared claim index and publishes the job closure under
//!    the state mutex, bumping a generation counter;
//! 2. wakes the helpers, which — like the coordinator itself — claim
//!    `chunk`-sized runs of job indices via `fetch_add` until the index
//!    passes `n_jobs`;
//! 3. blocks until every helper has reported done for this generation,
//!    which is what makes lending the closure's borrowed state to the
//!    helper threads sound.
//!
//! Job indices, not thread identities, address the work: a job must
//! touch only state addressed by its index (the engine gives every
//! shard its own cache-padded slot), so *which* worker runs a job can
//! never influence the output — work stealing is invisible to the
//! dataset digest.
//!
//! # Panic isolation
//!
//! Every job invocation runs under [`std::panic::catch_unwind`], so a
//! panicking job can neither tear down the process nor let unwinding
//! cross the pool's coordination mutex (which would poison it and
//! cascade secondary panics through every other worker — the exact
//! failure mode this pool used to have). On the first caught panic the
//! dispatch sets an abort flag; workers finish the job they are on,
//! stop claiming new indices, and the generation drains normally. The
//! dispatch then reports the panic as a [`JobPanic`] value — always the
//! one with the **lowest job index**, so the reported failure is
//! deterministic even when several jobs panic in one racy dispatch.
//! The few pool-internal locks that remain use explicit poison-aware
//! recovery (`PoisonError::into_inner`): coordination state is a
//! generation counter and a done-count, both valid under any
//! interleaving, so recovery is always safe.
//!
//! Determinism therefore holds by construction at any worker count,
//! and the pool's only observable side channel is wall-clock timing
//! ([`WorkerPool::take_worker_busy`]), which stays out of the
//! deterministic run report.

use mhw_types::CachePadded;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// A panic caught at the pool boundary while running one job.
///
/// `index` and `payload` are deterministic for a deterministic job set;
/// `worker` records which participant happened to claim the job and is
/// pure mechanics (it varies with scheduling).
#[derive(Debug, Clone)]
pub struct JobPanic {
    /// The job index whose closure panicked (for the engine: the shard).
    pub index: usize,
    /// The pool participant that was running the job.
    pub worker: usize,
    /// The panic payload, stringified. `&str` and `String` payloads are
    /// preserved verbatim; anything else becomes a placeholder.
    pub payload: String,
}

fn payload_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The job closure currently being dispatched, with its lifetime erased.
///
/// Soundness: the pointer is only dereferenced by helpers between the
/// generation bump that publishes it and the `helpers_done` report that
/// [`WorkerPool::run_chunked`] blocks on, and the closure it points to
/// lives on the dispatching caller's stack for that whole window.
struct TaskPtr(*const (dyn Fn(usize, usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls are safe) and the
// dispatch protocol above guarantees it outlives every dereference.
unsafe impl Send for TaskPtr {}

/// Coordinator/helper handshake state, guarded by one mutex.
struct State {
    /// Bumped once per dispatch; helpers run each generation exactly once.
    generation: u64,
    /// Jobs in the current dispatch.
    n_jobs: usize,
    /// Claim granularity for the current dispatch.
    chunk: usize,
    /// The published job closure, present only while a dispatch is live.
    task: Option<TaskPtr>,
    /// Helpers that have finished the current generation.
    helpers_done: usize,
    /// Set once by `scoped` teardown; helpers exit their loop.
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Next unclaimed job index — the work-stealing heart of the pool.
    next: AtomicUsize,
    /// Set when a job panics: workers stop claiming further indices so
    /// the generation drains instead of burning CPU on a doomed run.
    aborting: AtomicBool,
    /// Panics caught during the current dispatch, collected so the
    /// dispatcher can report the lowest-index one deterministically.
    panics: Mutex<Vec<JobPanic>>,
    /// Wakes helpers for a new generation (or shutdown).
    go: Condvar,
    /// Wakes the coordinator when the last helper finishes.
    done: Condvar,
    /// Per-participant busy nanoseconds, cache-padded so workers never
    /// contend while accumulating their own timings.
    busy_ns: Vec<CachePadded<AtomicU64>>,
    helpers: usize,
}

impl Shared {
    /// Lock the coordination state with explicit poison recovery. Jobs
    /// run under `catch_unwind` and never hold this mutex, so poisoning
    /// can only come from a bug in the pool itself — and even then the
    /// handshake fields (counters and flags) are valid under any
    /// interleaving, so continuing is always sound and beats cascading
    /// a secondary panic through every worker.
    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_panics(&self) -> MutexGuard<'_, Vec<JobPanic>> {
        self.panics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn claim_loop(
        &self,
        worker: usize,
        job: &(dyn Fn(usize, usize) + Sync),
        n_jobs: usize,
        chunk: usize,
    ) {
        let start = Instant::now();
        'claims: loop {
            if self.aborting.load(Ordering::Relaxed) {
                break;
            }
            let lo = self.next.fetch_add(chunk, Ordering::Relaxed);
            if lo >= n_jobs {
                break;
            }
            for i in lo..(lo + chunk).min(n_jobs) {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job(worker, i))) {
                    self.aborting.store(true, Ordering::Relaxed);
                    self.lock_panics().push(JobPanic {
                        index: i,
                        worker,
                        payload: payload_string(payload),
                    });
                    break 'claims;
                }
            }
        }
        self.busy_ns[worker].fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn helper_loop(&self, worker: usize) {
        let mut seen_generation = 0u64;
        loop {
            let (task, n_jobs, chunk) = {
                let mut state = self.lock_state();
                loop {
                    if state.shutdown {
                        return;
                    }
                    if state.generation != seen_generation {
                        break;
                    }
                    state = self.go.wait(state).unwrap_or_else(PoisonError::into_inner);
                }
                seen_generation = state.generation;
                let Some(task) = state.task.as_ref() else {
                    unreachable!("live generation has a task");
                };
                (task.0, state.n_jobs, state.chunk)
            };
            // SAFETY: see `TaskPtr` — the dispatcher blocks until this
            // helper reports done, keeping the closure alive.
            let job = unsafe { &*task };
            self.claim_loop(worker, job, n_jobs, chunk);
            let mut state = self.lock_state();
            state.helpers_done += 1;
            if state.helpers_done == self.helpers {
                self.done.notify_one();
            }
        }
    }

    /// Drain the panics recorded during the dispatch that just finished
    /// and turn them into the dispatch result: `Err` carrying the
    /// lowest-index panic if any job panicked.
    fn dispatch_result(&self) -> Result<(), JobPanic> {
        let mut panics = std::mem::take(&mut *self.lock_panics());
        if panics.is_empty() {
            return Ok(());
        }
        panics.sort_by_key(|p| p.index);
        Err(panics.swap_remove(0))
    }
}

/// A persistent pool of worker threads scoped to one engine run; see
/// the [module docs](self) for the dispatch protocol.
pub struct WorkerPool<'pool> {
    shared: &'pool Shared,
    workers: usize,
}

impl WorkerPool<'_> {
    /// Run `f` with a pool of `workers` total participants: the calling
    /// thread plus `workers - 1` helper threads that live until `f`
    /// returns. With one worker no threads are spawned at all and every
    /// dispatch runs inline on the caller.
    pub fn scoped<R>(workers: usize, f: impl FnOnce(&WorkerPool<'_>) -> R) -> R {
        let workers = workers.max(1);
        let shared = Shared {
            state: Mutex::new(State {
                generation: 0,
                n_jobs: 0,
                chunk: 1,
                task: None,
                helpers_done: 0,
                shutdown: false,
            }),
            next: AtomicUsize::new(0),
            aborting: AtomicBool::new(false),
            panics: Mutex::new(Vec::new()),
            go: Condvar::new(),
            done: Condvar::new(),
            busy_ns: (0..workers).map(|_| CachePadded::new(AtomicU64::new(0))).collect(),
            helpers: workers - 1,
        };
        thread::scope(|scope| {
            for worker in 1..workers {
                let shared = &shared;
                scope.spawn(move || shared.helper_loop(worker));
            }
            let pool = WorkerPool { shared: &shared, workers };
            let out = f(&pool);
            let mut state = shared.lock_state();
            state.shutdown = true;
            drop(state);
            shared.go.notify_all();
            out
        })
    }

    /// Total participants (coordinator plus helpers).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Dispatch `n_jobs` jobs claimed one index at a time — maximum
    /// balance, right for small job counts like shards-per-day.
    ///
    /// Returns `Err` with the lowest-index caught panic if any job
    /// panicked; the remaining jobs' effects are intact (each job owns
    /// its index-addressed state), so callers can salvage partial
    /// results.
    pub fn run(&self, n_jobs: usize, job: &(dyn Fn(usize, usize) + Sync)) -> Result<(), JobPanic> {
        self.run_chunked(n_jobs, 1, job)
    }

    /// Dispatch `n_jobs` jobs over the pool. Workers (the calling
    /// thread included) repeatedly claim `chunk` consecutive job
    /// indices from a shared atomic counter and invoke
    /// `job(worker, index)` for each; the call returns once the
    /// generation has drained. Larger chunks amortise claim traffic for
    /// big job lists; chunk 1 maximises balance.
    ///
    /// `job` must confine its effects to state addressed by its job
    /// index — that is what keeps worker scheduling invisible to the
    /// produced data.
    ///
    /// A panicking job aborts the remainder of the dispatch (in-flight
    /// jobs finish, unclaimed indices are skipped) and is reported as
    /// `Err(JobPanic)`; every pool thread survives to serve the next
    /// dispatch.
    pub fn run_chunked(
        &self,
        n_jobs: usize,
        chunk: usize,
        job: &(dyn Fn(usize, usize) + Sync),
    ) -> Result<(), JobPanic> {
        if n_jobs == 0 {
            return Ok(());
        }
        let chunk = chunk.max(1);
        self.shared.aborting.store(false, Ordering::Relaxed);
        if self.workers == 1 || n_jobs == 1 {
            // Inline fast path: nothing to coordinate, but panics are
            // still caught so single-worker runs fail identically to
            // parallel ones.
            let start = Instant::now();
            for i in 0..n_jobs {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job(0, i))) {
                    self.shared.busy_ns[0]
                        .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    return Err(JobPanic { index: i, worker: 0, payload: payload_string(payload) });
                }
            }
            self.shared.busy_ns[0]
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            return Ok(());
        }
        self.shared.next.store(0, Ordering::Relaxed);
        // SAFETY: erases the closure's borrow lifetime to publish it to
        // the helper threads; see `TaskPtr` — this call blocks below
        // until every helper is done with it.
        let task: &'static (dyn Fn(usize, usize) + Sync) = unsafe { std::mem::transmute(job) };
        {
            let mut state = self.shared.lock_state();
            state.task = Some(TaskPtr(task));
            state.n_jobs = n_jobs;
            state.chunk = chunk;
            state.helpers_done = 0;
            state.generation += 1;
        }
        self.shared.go.notify_all();
        self.shared.claim_loop(0, job, n_jobs, chunk);
        let mut state = self.shared.lock_state();
        while state.helpers_done < self.shared.helpers {
            state = self.shared.done.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        state.task = None;
        drop(state);
        self.shared.dispatch_result()
    }

    /// Per-worker busy wall-clock time accumulated since the last call
    /// (coordinator first), resetting the accumulators. Pure mechanics
    /// for profiling — never part of deterministic output.
    pub fn take_worker_busy(&self) -> Vec<Duration> {
        self.shared
            .busy_ns
            .iter()
            .map(|ns| Duration::from_nanos(ns.swap(0, Ordering::Relaxed)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn every_job_runs_exactly_once() {
        for workers in [1usize, 2, 3, 8] {
            let hits: Vec<CachePadded<AtomicU64>> =
                (0..37).map(|_| CachePadded::new(AtomicU64::new(0))).collect();
            WorkerPool::scoped(workers, |pool| {
                pool.run(hits.len(), &|_w, i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                })
                .expect("no job panics");
            });
            for (i, hit) in hits.iter().enumerate() {
                assert_eq!(hit.load(Ordering::Relaxed), 1, "job {i} at {workers} workers");
            }
        }
    }

    #[test]
    fn pool_is_reusable_across_dispatches() {
        let counter = AtomicU64::new(0);
        WorkerPool::scoped(4, |pool| {
            for round in 1..=5u64 {
                pool.run(16, &|_w, _i| {
                    counter.fetch_add(1, Ordering::Relaxed);
                })
                .expect("no job panics");
                assert_eq!(counter.load(Ordering::Relaxed), round * 16);
            }
        });
    }

    #[test]
    fn chunked_claiming_covers_ragged_tails() {
        // n_jobs not divisible by chunk: the tail chunk is partial.
        let hits: Vec<CachePadded<AtomicU64>> =
            (0..23).map(|_| CachePadded::new(AtomicU64::new(0))).collect();
        WorkerPool::scoped(3, |pool| {
            pool.run_chunked(hits.len(), 4, &|_w, i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            })
            .expect("no job panics");
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn empty_dispatch_is_a_no_op() {
        WorkerPool::scoped(2, |pool| {
            pool.run(0, &|_w, _i| panic!("no jobs to run")).expect("zero jobs cannot panic");
            assert_eq!(pool.workers(), 2);
        });
    }

    #[test]
    fn busy_timings_cover_all_participants_and_reset() {
        WorkerPool::scoped(2, |pool| {
            pool.run(8, &|_w, _i| {
                std::hint::black_box((0..1000u64).sum::<u64>());
            })
            .expect("no job panics");
            let busy = pool.take_worker_busy();
            assert_eq!(busy.len(), 2);
            assert!(busy.iter().any(|d| !d.is_zero()), "someone did the work");
            let reset = pool.take_worker_busy();
            assert!(reset.iter().all(Duration::is_zero), "take resets accumulators");
        });
    }

    #[test]
    fn single_worker_runs_inline() {
        let thread_id = std::thread::current().id();
        WorkerPool::scoped(1, |pool| {
            pool.run(4, &|w, _i| {
                assert_eq!(w, 0);
                assert_eq!(std::thread::current().id(), thread_id);
            })
            .expect("no job panics");
        });
    }

    #[test]
    fn panic_is_caught_and_reported_with_payload() {
        for workers in [1usize, 2, 4] {
            let err = WorkerPool::scoped(workers, |pool| {
                pool.run(8, &|_w, i| {
                    if i == 3 {
                        panic!("job {i} exploded");
                    }
                })
            })
            .expect_err("job 3 panics");
            assert_eq!(err.index, 3, "at {workers} workers");
            assert!(err.payload.contains("job 3 exploded"), "payload: {}", err.payload);
        }
    }

    #[test]
    fn pool_survives_a_panicking_dispatch() {
        // The load-bearing regression test for the old poisoned-mutex
        // cascade: after a panicking generation, every thread must still
        // be alive and the next dispatch must run normally.
        let counter = AtomicU64::new(0);
        WorkerPool::scoped(4, |pool| {
            let err = pool.run(12, &|_w, i| {
                if i == 5 {
                    panic!("mid-run failure");
                }
                counter.fetch_add(1, Ordering::Relaxed);
            });
            assert!(err.is_err(), "the panic must surface");
            let before = counter.load(Ordering::Relaxed);
            assert!(before < 12, "dispatch aborted early");
            pool.run(16, &|_w, _i| {
                counter.fetch_add(1, Ordering::Relaxed);
            })
            .expect("pool recovered for the next generation");
            assert_eq!(counter.load(Ordering::Relaxed), before + 16);
        });
    }

    #[test]
    fn lowest_index_panic_wins_deterministically() {
        // Every job panics; whichever worker gets there first, the
        // report must always name job 0.
        for workers in [1usize, 3, 8] {
            let err = WorkerPool::scoped(workers, |pool| {
                pool.run(16, &|_w, i| panic!("boom {i}"))
            })
            .expect_err("all jobs panic");
            // With >1 worker several panics may be recorded; index 0 is
            // always among them because abort only stops *new* claims
            // and index 0 is claimed first.
            assert_eq!(err.index, 0, "at {workers} workers");
            assert!(err.payload.contains("boom 0"));
        }
    }

    #[test]
    fn non_string_payloads_get_a_placeholder() {
        let err = WorkerPool::scoped(1, |pool| {
            pool.run(1, &|_w, _i| std::panic::panic_any(42_u32))
        })
        .expect_err("job panics");
        assert_eq!(err.payload, "non-string panic payload");
    }
}
