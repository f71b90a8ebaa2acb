//! A persistent worker pool reusable across cluster runs.
//!
//! [`replay`](crate::cluster) spawns a scoped thread crew per
//! execution by default — fine for one-shot protocol runs, wasteful for a
//! serving layer that executes thousands of small queries against the
//! same backend. A [`WorkerPool`] keeps the crew alive: threads are
//! spawned once and parked between jobs, and each job (one cluster
//! execution's worker loop) is dispatched to all of them without any
//! spawn/join cost. [`PooledClusterBackend`](crate::PooledClusterBackend)
//! picks it up via
//! [`with_shared_pool`](crate::PooledClusterBackend::with_shared_pool),
//! which is what the query serving layer shares across sessions.
//!
//! Jobs are serialized: one cluster run occupies the whole pool at a
//! time, and concurrent [`run_with`](WorkerPool::run_with) callers queue
//! on an internal lock (FIFO fairness at this level is provided by the
//! callers' own admission control; the pool only guarantees mutual
//! exclusion). Results are unaffected by the pool — cluster execution is
//! bit-identical for any worker count and any crew lifetime, so a pool
//! keeps the width it was spawned with.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::lock_ok;

/// The current job, type-erased. The raw pointer launders the caller's
/// borrow lifetime; soundness is argued at the single place it is set
/// ([`WorkerPool::run_with`]).
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from many threads are
// fine), and `run_with` guarantees it outlives every dereference.
unsafe impl Send for JobPtr {}

struct PoolGate {
    /// The job workers should run; bumps of `generation` publish it.
    job: Option<JobPtr>,
    /// Incremented once per dispatched job.
    generation: u64,
    /// Workers still executing the current job.
    running: usize,
    /// Panic payload message from a worker, if any.
    panicked: Option<String>,
    /// Set by `Drop`: workers exit.
    stop: bool,
}

struct Shared {
    gate: Mutex<PoolGate>,
    /// Workers sleep here between jobs.
    work_cv: Condvar,
    /// The dispatcher sleeps here until `running == 0`.
    done_cv: Condvar,
}

/// A fixed crew of persistent worker threads, reusable across cluster
/// executions (see the module docs).
pub struct WorkerPool {
    shared: Arc<Shared>,
    size: usize,
    /// Serializes jobs: one `run_with` at a time owns the crew.
    job_lock: Mutex<()>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("size", &self.size)
            .finish()
    }
}

impl WorkerPool {
    /// Spawn a pool of `size` persistent workers (floored at 1).
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        let shared = Arc::new(Shared {
            gate: Mutex::new(PoolGate {
                job: None,
                generation: 0,
                running: 0,
                panicked: None,
                stop: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (0..size)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tamp-pool-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            size,
            job_lock: Mutex::new(()),
            handles,
        }
    }

    /// Number of worker threads in the crew.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Dispatch `worker` to every pool thread (as `worker(thread_index)`),
    /// run `main` on the calling thread concurrently, and return `main`'s
    /// result once **both** `main` and every worker have finished.
    ///
    /// This is the scoped-thread shape on a persistent crew: `worker` may
    /// borrow from the caller's stack because `run_with` does not return
    /// until every worker is done with it. A panic in a worker is
    /// captured and re-raised here (after the join); a panic in `main`
    /// propagates after the workers finish — either way no borrow
    /// escapes.
    pub fn run_with<R>(&self, worker: &(dyn Fn(usize) + Sync), main: impl FnOnce() -> R) -> R {
        let _job = lock_ok(&self.job_lock);
        // SAFETY (lifetime laundering): the raw pointer is dereferenced
        // only by workers between the dispatch below and the join a few
        // lines down, both inside this call — the borrow is live for all
        // of it. `job` is cleared before returning.
        let ptr = JobPtr(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(worker)
        });
        {
            let mut g = lock_ok(&self.shared.gate);
            g.job = Some(ptr);
            g.generation += 1;
            g.running = self.size;
            g.panicked = None;
        }
        self.shared.work_cv.notify_all();
        let main_result = catch_unwind(AssertUnwindSafe(main));
        // Join: wait for the whole crew even if `main` panicked — workers
        // may still hold borrows into the caller's frame.
        let worker_panic = {
            let mut g = lock_ok(&self.shared.gate);
            while g.running > 0 {
                g = match self.shared.done_cv.wait(g) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
            g.job = None;
            g.panicked.take()
        };
        match main_result {
            Err(payload) => resume_unwind(payload),
            Ok(r) => {
                if let Some(msg) = worker_panic {
                    panic!("worker pool job panicked: {msg}");
                }
                r
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut g = lock_ok(&self.shared.gate);
            g.stop = true;
        }
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut g = lock_ok(&shared.gate);
            while g.generation == seen && !g.stop {
                g = match shared.work_cv.wait(g) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
            if g.stop {
                return;
            }
            seen = g.generation;
            g.job.expect("job published with the generation bump")
        };
        // SAFETY: see `run_with` — the pointee outlives this call.
        let result = catch_unwind(AssertUnwindSafe(|| (unsafe { &*job.0 })(index)));
        let mut g = lock_ok(&shared.gate);
        if let Err(payload) = result {
            g.panicked
                .get_or_insert_with(|| crate::error::panic_message(&*payload));
        }
        g.running -= 1;
        if g.running == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn runs_every_worker_and_reuses_threads() {
        let pool = WorkerPool::new(4);
        let hits = AtomicUsize::new(0);
        for _ in 0..10 {
            let r = pool.run_with(
                &|_i| {
                    hits.fetch_add(1, Ordering::Relaxed);
                },
                || 42,
            );
            assert_eq!(r, 42);
        }
        assert_eq!(hits.load(Ordering::Relaxed), 40);
    }

    #[test]
    fn main_runs_concurrently_with_workers() {
        // `main` releases the workers: if it did not run until workers
        // finished, this would deadlock.
        let pool = WorkerPool::new(2);
        let gate = Mutex::new(false);
        let cv = Condvar::new();
        pool.run_with(
            &|_i| {
                let mut open = gate.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            },
            || {
                *gate.lock().unwrap() = true;
                cv.notify_all();
            },
        );
    }

    #[test]
    fn worker_panics_surface_after_the_join() {
        let pool = WorkerPool::new(3);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_with(
                &|i| {
                    if i == 1 {
                        panic!("boom");
                    }
                },
                || (),
            )
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("boom"), "{msg}");
        // The pool survives for the next job.
        let ok = pool.run_with(&|_| {}, || 7);
        assert_eq!(ok, 7);
    }

    /// The lifetime laundering in `run_with` under contention: four
    /// callers share one 3-worker crew, and every job's worker closure
    /// writes into its caller's stack frame. A frame is reused at once
    /// after each `run_with` returns, so a worker still running a job
    /// after it returned would write into the next job's counters.
    #[test]
    fn callers_share_the_crew_and_no_borrow_outlives_its_job() {
        const WORKERS: usize = 3;
        const JOBS: usize = 100;
        let pool = WorkerPool::new(WORKERS);
        std::thread::scope(|scope| {
            for caller in 0..4usize {
                let pool = &pool;
                scope.spawn(move || {
                    for job in 0..JOBS {
                        let hits: [AtomicUsize; WORKERS] = Default::default();
                        let r = pool.run_with(
                            &|i| {
                                hits[i].fetch_add(1, Ordering::Relaxed);
                            },
                            || caller * JOBS + job,
                        );
                        assert_eq!(r, caller * JOBS + job);
                        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
                    }
                });
            }
        });
        // `main` panics while every worker still holds the borrow: each
        // worker touches the frame only once `main` is unwinding, and the
        // panic surfaces only after each one finished with it.
        struct SetOnDrop<'a>(&'a AtomicBool);
        impl Drop for SetOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let unwinding = AtomicBool::new(false);
        let done: [AtomicUsize; WORKERS] = Default::default();
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_with(
                &|i| {
                    while !unwinding.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    done[i].fetch_add(1, Ordering::SeqCst);
                },
                || {
                    let _signal = SetOnDrop(&unwinding);
                    panic!("main gave up");
                },
            )
        }))
        .unwrap_err();
        assert_eq!(err.downcast_ref::<&str>(), Some(&"main gave up"));
        assert!(done.iter().all(|d| d.load(Ordering::SeqCst) == 1));
        // The crew serves the next job.
        let hits = AtomicUsize::new(0);
        let r = pool.run_with(
            &|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            },
            || 9,
        );
        assert_eq!((r, hits.load(Ordering::Relaxed)), (9, WORKERS));
    }

    #[test]
    fn zero_size_floors_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.size(), 1);
        assert_eq!(pool.run_with(&|_| {}, || 1), 1);
    }
}
