//! The process-wide pool that runs the scoped loops' helper jobs.
//!
//! One FIFO queue and a condvar: [`Pool::submit`] appends jobs and wakes
//! one parked worker per job, and each worker takes the oldest job, runs
//! it, and takes the next. An idle worker spins briefly, then parks on the
//! condvar, so an empty pool costs no CPU. A job that panics is caught:
//! its worker lives on. Workers run for the life of the process; the only
//! submitter is [`crate::scope`], whose calls wait on their own latch.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

/// A job queue and the workers that drain it.
#[derive(Default)]
pub(crate) struct Pool {
    /// No job runs while this lock is held, and every update leaves the
    /// queue valid, so a poisoned guard is safe to recover.
    queue: Mutex<VecDeque<Job>>,
    /// The queue's length, written under the lock: idle workers spin on
    /// it before parking. A hint only, so `Relaxed`: jobs themselves pass
    /// through the lock.
    queued: AtomicUsize,
    ready: Condvar,
}

impl Pool {
    /// Queues `jobs` and wakes one parked worker per job.
    pub(crate) fn submit(&self, jobs: impl IntoIterator<Item = Job>) {
        let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        let before = queue.len();
        queue.extend(jobs);
        self.queued.store(queue.len(), Ordering::Relaxed);
        let added = queue.len() - before;
        drop(queue);
        for _ in 0..added {
            self.ready.notify_one();
        }
    }

    /// A worker's loop: runs the oldest job, forever. A panicking job must
    /// not end the worker; the panic hook has already reported it.
    fn work(&self) {
        loop {
            let _ = panic::catch_unwind(AssertUnwindSafe(self.take()));
        }
    }

    /// Pops the oldest job, waiting while the queue is empty. The emptiness
    /// check and the wait happen under one lock, so no wakeup is lost.
    fn take(&self) -> Job {
        spin_until(|| self.queued.load(Ordering::Relaxed) != 0);
        let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(job) = queue.pop_front() {
                self.queued.store(queue.len(), Ordering::Relaxed);
                return job;
            }
            queue = self
                .ready
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
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

/// Starts a pool with `workers` threads named `gh-par-<i>`. The pool is
/// leaked: its workers never exit.
fn start(workers: usize) -> &'static Pool {
    let pool: &'static Pool = Box::leak(Box::default());
    for idx in 0..workers {
        #[expect(
            clippy::expect_used,
            reason = "a pool without its workers would never run a helper job; failing at boot is the only sound response"
        )]
        std::thread::Builder::new()
            .name(format!("gh-par-{idx}"))
            .spawn(|| pool.work())
            .expect("failed to spawn gh-par worker");
    }
    pool
}

/// Returns the process-wide pool, started on first use with
/// [`crate::default_parallelism`] workers.
pub(crate) fn global() -> &'static Pool {
    #[expect(
        clippy::disallowed_types,
        reason = "the pool is shared compute, not per-run state: jobs carry their own session handles"
    )]
    static POOL: std::sync::OnceLock<&'static Pool> = std::sync::OnceLock::new();
    POOL.get_or_init(|| start(crate::default_parallelism()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn global_pool_is_singleton() {
        assert!(std::ptr::eq(global(), global()));
    }

    #[test]
    fn pool_survives_a_panicking_job() {
        // One worker, so the jobs after the panic run on the thread that
        // caught it, in submission order.
        let pool = start(1);
        let (sent, received) = mpsc::channel();
        let after = sent.clone();
        pool.submit([
            Box::new(|| panic!("a job panics on purpose")) as Job,
            Box::new(move || sent.send(1).unwrap()),
            Box::new(move || after.send(2).unwrap()),
        ]);
        let wait = Duration::from_secs(60);
        for want in [1, 2] {
            assert_eq!(
                received.recv_timeout(wait),
                Ok(want),
                "the worker outlived the panic"
            );
        }
    }
}
