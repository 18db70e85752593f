//! A minimal work-stealing deque trio (`Injector` / `Worker` / `Stealer`)
//! with the same API shape as `crossbeam::deque`, built on
//! `std::sync::Mutex<VecDeque<T>>`.
//!
//! The build environment is fully offline, so external lock-free deques are
//! unavailable; throughput here is bounded by the mutex, which is fine for
//! the simulator's job sizes (kernels meter whole chunks, not single
//! elements). Semantics match what [`crate::pool`] relies on: the injector
//! is a FIFO shared queue, each worker owns a LIFO deque, and stealers take
//! from the opposite end of a victim's deque.

#![expect(
    clippy::unwrap_used,
    reason = "mutex poisoning means a worker panicked; propagating the panic is the only sound response"
)]

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// A shared FIFO queue that receives jobs from outside the pool.
#[derive(Debug)]
pub struct Injector<T> {
    queue: Mutex<VecDeque<T>>,
}

impl<T> Injector<T> {
    /// Creates an empty injector.
    pub fn new() -> Self {
        Self {
            queue: Mutex::new(VecDeque::new()),
        }
    }

    /// Enqueues a job at the tail.
    pub fn push(&self, job: T) {
        self.queue.lock().unwrap().push_back(job);
    }

    /// True if no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.queue.lock().unwrap().is_empty()
    }

    /// Moves a small batch of jobs into `dest`'s local deque and pops one of
    /// them for immediate execution; `None` when the injector is empty.
    pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Option<T> {
        let mut q = self.queue.lock().unwrap();
        let first = q.pop_front()?;
        // Take up to half the remaining queue (capped) so siblings still
        // find work in the injector.
        let extra = (q.len() / 2).min(16);
        if extra > 0 {
            let mut local = dest.deque.lock().unwrap();
            for _ in 0..extra {
                if let Some(job) = q.pop_front() {
                    local.push_back(job);
                }
            }
        }
        Some(first)
    }
}

impl<T> Default for Injector<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// A worker-owned LIFO deque.
#[derive(Debug)]
pub struct Worker<T> {
    deque: Arc<Mutex<VecDeque<T>>>,
}

impl<T> Worker<T> {
    /// Creates an empty LIFO worker deque.
    pub fn new_lifo() -> Self {
        Self {
            deque: Arc::new(Mutex::new(VecDeque::new())),
        }
    }

    /// Pops the most recently pushed job (LIFO end).
    pub fn pop(&self) -> Option<T> {
        self.deque.lock().unwrap().pop_back()
    }

    /// Creates a handle siblings use to steal from this deque.
    pub fn stealer(&self) -> Stealer<T> {
        Stealer {
            deque: Arc::clone(&self.deque),
        }
    }
}

/// A handle for stealing from another worker's deque (FIFO end).
#[derive(Debug, Clone)]
pub struct Stealer<T> {
    deque: Arc<Mutex<VecDeque<T>>>,
}

impl<T> Stealer<T> {
    /// Takes the oldest job from the victim's deque, if any.
    pub fn steal(&self) -> Option<T> {
        self.deque.lock().unwrap().pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_is_lifo_stealer_is_fifo() {
        let w = Worker::new_lifo();
        let s = w.stealer();
        let inj = Injector::new();
        inj.push(1);
        inj.push(2);
        inj.push(3);
        inj.push(4);
        // First steal_batch_and_pop returns the FIFO head and may move some
        // of the rest into the local deque.
        let first = inj.steal_batch_and_pop(&w).expect("a queued job");
        assert_eq!(first, 1);
        let mut seen = vec![first];
        while let Some(j) = w.pop() {
            seen.push(j);
        }
        while let Some(j) = s.steal() {
            seen.push(j);
        }
        while let Some(j) = inj.steal_batch_and_pop(&w) {
            seen.push(j);
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2, 3, 4]);
    }

    #[test]
    fn empty_queues_report_empty() {
        let inj: Injector<u32> = Injector::new();
        assert!(inj.is_empty());
        let w: Worker<u32> = Worker::new_lifo();
        assert!(w.pop().is_none());
        assert!(w.stealer().steal().is_none());
        assert!(inj.steal_batch_and_pop(&w).is_none());
    }
}
