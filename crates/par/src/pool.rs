//! A persistent work-stealing thread pool for `'static` jobs.
//!
//! Architecture: one global [`crate::deque::Injector`] receives jobs
//! submitted from outside the pool; each worker owns a LIFO
//! [`crate::deque::Worker`] deque and, when idle, first drains
//! its own deque, then batches from the injector, then steals from siblings
//! in a rotating order. An idle worker spins briefly, then parks on a
//! condvar-backed gate, so an empty pool costs no CPU.
//!
//! Jobs submitted with [`WorkStealingPool::spawn`] are fire-and-forget;
//! [`WorkStealingPool::join_batch`] submits a batch and blocks until the
//! pool is idle. A job that panics is caught: its worker lives on and the
//! job still counts as finished. The scoped loops in [`crate::scope`] run
//! their helper jobs on [`global`].

#![expect(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "mutex poisoning means a worker panicked; propagating the panic is the only sound response, and spawn failure at boot is fatal"
)]

use crate::deque::{Injector, Stealer, Worker};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    injector: Injector<Job>,
    stealers: Vec<Stealer<Job>>,
    /// Number of jobs submitted but not yet finished; used by `wait_idle`.
    pending: AtomicUsize,
    /// Number of jobs submitted but not yet taken by a worker: idle
    /// workers park only while it is zero.
    queued: AtomicUsize,
    shutdown: AtomicBool,
    /// Sleep gate: workers park here when no work is visible.
    gate: Mutex<()>,
    gate_cv: Condvar,
    /// Completion gate: `join_batch` waiters park here.
    done_cv: Condvar,
}

impl Shared {
    fn wake_all(&self) {
        let _g = self.gate.lock().unwrap();
        self.gate_cv.notify_all();
    }
}

/// A fixed-size work-stealing thread pool.
///
/// Dropping the pool signals shutdown and joins every worker; jobs still in
/// the queues are executed before the workers exit.
pub struct WorkStealingPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

impl std::fmt::Debug for WorkStealingPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkStealingPool")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl WorkStealingPool {
    /// Creates a pool with `workers` threads (at least 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let locals: Vec<Worker<Job>> = (0..workers).map(|_| Worker::new_lifo()).collect();
        let stealers = locals.iter().map(|w| w.stealer()).collect();
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            stealers,
            pending: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            gate: Mutex::new(()),
            gate_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = locals
            .into_iter()
            .enumerate()
            .map(|(idx, local)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gh-par-{idx}"))
                    .spawn(move || worker_loop(idx, local, shared))
                    .expect("failed to spawn gh-par worker")
            })
            .collect();
        Self {
            shared,
            handles,
            workers,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Number of submitted-but-unfinished jobs (approximate; racy by nature).
    pub fn pending(&self) -> usize {
        self.shared.pending.load(Ordering::Acquire)
    }

    /// Submits a fire-and-forget job.
    pub fn spawn<F: FnOnce() + Send + 'static>(&self, f: F) {
        self.submit([Box::new(f) as Job]);
    }

    /// Submits every job in `jobs` and blocks until **all jobs in the pool**
    /// (including previously spawned ones) have completed.
    pub fn join_batch<I>(&self, jobs: I)
    where
        I: IntoIterator<Item = Job>,
    {
        self.submit(jobs);
        self.wait_idle();
    }

    /// Queues `jobs` and wakes one parked worker per job.
    pub(crate) fn submit<I>(&self, jobs: I)
    where
        I: IntoIterator<Item = Job>,
    {
        let mut n = 0;
        for job in jobs {
            // Count before pushing, so a worker that takes the job never
            // drives the counters below zero.
            self.shared.pending.fetch_add(1, Ordering::AcqRel);
            self.shared.queued.fetch_add(1, Ordering::AcqRel);
            self.shared.injector.push(job);
            n += 1;
        }
        let _g = self.shared.gate.lock().unwrap();
        for _ in 0..n.min(self.workers) {
            self.shared.gate_cv.notify_one();
        }
    }

    /// Blocks until the pool has no pending jobs.
    pub fn wait_idle(&self) {
        let mut gate = self.shared.gate.lock().unwrap();
        while self.shared.pending.load(Ordering::Acquire) != 0 {
            gate = self.shared.done_cv.wait(gate).unwrap();
        }
    }
}

impl Drop for WorkStealingPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wake_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn find_job(idx: usize, local: &Worker<Job>, shared: &Shared) -> Option<Job> {
    // Own deque first, then batch-steal from the injector into the local
    // deque to amortize contention, then siblings in rotating order.
    let n = shared.stealers.len();
    local
        .pop()
        .or_else(|| shared.injector.steal_batch_and_pop(local))
        .or_else(|| (1..n).find_map(|off| shared.stealers[(idx + off) % n].steal()))
}

fn worker_loop(idx: usize, local: Worker<Job>, shared: Arc<Shared>) {
    loop {
        if let Some(job) = find_job(idx, &local, &shared) {
            shared.queued.fetch_sub(1, Ordering::AcqRel);
            // A panicking job must neither end the worker nor leave
            // `pending` above zero, or `wait_idle` would never return. The
            // panic hook has already reported it.
            let _ = panic::catch_unwind(AssertUnwindSafe(job));
            if shared.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                let _g = shared.gate.lock().unwrap();
                shared.done_cv.notify_all();
            }
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if spin_until(|| {
            shared.queued.load(Ordering::Acquire) != 0 || shared.shutdown.load(Ordering::Acquire)
        }) {
            continue;
        }
        // Park until new work or shutdown. Re-check under the lock to avoid
        // a lost wakeup between the check above and the wait.
        let gate = shared.gate.lock().unwrap();
        if shared.queued.load(Ordering::Acquire) == 0 && !shared.shutdown.load(Ordering::Acquire) {
            let _gate = shared.gate_cv.wait(gate).unwrap();
        }
    }
}

/// Polls `ready` for a short while, spinning and then yielding the CPU,
/// and returns whether it became true. Callers park after a `false`.
/// Loops submit helper jobs back to back, and waking a parked thread costs
/// more than a short chunk; yielding lets another runnable thread have the
/// CPU on a small host.
pub(crate) fn spin_until(ready: impl Fn() -> bool) -> bool {
    const SPINS: u32 = 6;
    const YIELDS: u32 = 32;
    for step in 0..SPINS + YIELDS {
        if ready() {
            return true;
        }
        if step < SPINS {
            for _ in 0..1u32 << step {
                std::hint::spin_loop();
            }
        } else {
            std::thread::yield_now();
        }
    }
    ready()
}

/// Returns the process-wide shared pool, created on first use with
/// [`crate::default_parallelism`] workers.
pub fn global() -> &'static WorkStealingPool {
    #[expect(
        clippy::disallowed_types,
        reason = "the pool is shared compute, not per-run state: jobs carry their own session handles"
    )]
    static POOL: std::sync::OnceLock<WorkStealingPool> = std::sync::OnceLock::new();
    POOL.get_or_init(|| WorkStealingPool::new(crate::default_parallelism()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn executes_all_spawned_jobs() {
        let pool = WorkStealingPool::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..1000 {
            let c = Arc::clone(&counter);
            pool.spawn(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn join_batch_waits_for_completion() {
        let pool = WorkStealingPool::new(3);
        let counter = Arc::new(AtomicU64::new(0));
        let jobs: Vec<Job> = (0..64)
            .map(|i| {
                let c = Arc::clone(&counter);
                Box::new(move || {
                    // Uneven job sizes to exercise stealing.
                    std::thread::sleep(std::time::Duration::from_micros(i % 7 * 50));
                    c.fetch_add(1, Ordering::Relaxed);
                }) as Job
            })
            .collect();
        pool.join_batch(jobs);
        assert_eq!(counter.load(Ordering::Relaxed), 64);
        assert_eq!(pool.pending(), 0);
    }

    #[test]
    fn single_worker_pool_is_functional() {
        let pool = WorkStealingPool::new(1);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            pool.spawn(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn drop_joins_workers_after_draining() {
        let counter = Arc::new(AtomicU64::new(0));
        {
            let pool = WorkStealingPool::new(2);
            for _ in 0..50 {
                let c = Arc::clone(&counter);
                pool.spawn(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
            pool.wait_idle();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn global_pool_is_singleton() {
        let a = global() as *const _;
        let b = global() as *const _;
        assert_eq!(a, b);
    }

    #[test]
    fn nested_spawn_from_worker_completes() {
        let pool = Arc::new(WorkStealingPool::new(4));
        let counter = Arc::new(AtomicU64::new(0));
        let done = Arc::new(AtomicU64::new(0));
        for _ in 0..16 {
            let c = Arc::clone(&counter);
            let d = Arc::clone(&done);
            let p = Arc::clone(&pool);
            pool.spawn(move || {
                for _ in 0..4 {
                    let c2 = Arc::clone(&c);
                    p.spawn(move || {
                        c2.fetch_add(1, Ordering::Relaxed);
                    });
                }
                d.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(done.load(Ordering::Relaxed), 16);
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }
}
