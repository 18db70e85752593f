//! `gh-par` — a small data-parallel execution substrate.
//!
//! The Grace Hopper simulator executes *real* application kernels on host
//! memory while a cost model meters every buffer access. The kernels need a
//! parallel runtime to play the role of the GPU's streaming multiprocessors;
//! this crate provides it without pulling in a full framework.
//!
//! The public surface is [`scope`]: borrowing, dynamically scheduled loop
//! primitives ([`scope::par_for`], [`scope::par_chunks_mut`],
//! [`scope::par_chunks`] and [`scope::par_map_reduce`]), which is what
//! application kernels use: they capture plain `&mut [T]` slices with no
//! `Arc` ceremony and get load balance from a shared chunk counter. The
//! calling thread and helper jobs on a process-wide pool share the chunks;
//! no call spawns a thread. The pool (`pool.rs`) is private: one FIFO job
//! queue, a condvar, and [`default_parallelism`] workers named
//! `gh-par-<i>`.
//!
//! [`scope::join`] overlaps two different closures on the same machinery:
//! the first runs on the calling thread and may hold what cannot cross
//! threads, such as a simulated `Machine` that meters while the second,
//! an app's arithmetic, runs on a pool worker. The caller runs the second
//! itself if no worker has taken it by the time the first returns.
//!
//! Determinism note: scheduling is non-deterministic, so which thread runs
//! a chunk varies. [`scope::par_map_reduce`] folds per-chunk partials in
//! chunk order, so its grouping depends only on the range and
//! [`default_parallelism`]; bit-exact results across hosts still need an
//! *associative and commutative* reduction. The simulator's virtual-time
//! accounting never depends on scheduling order.
//!
//! ```
//! use gh_par::{join, par_for, par_map_reduce, Grain};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let hits = AtomicU64::new(0);
//! par_for(0..10_000, Grain::Auto, |_| {
//!     hits.fetch_add(1, Ordering::Relaxed);
//! });
//! assert_eq!(hits.into_inner(), 10_000);
//!
//! let sum = par_map_reduce(0..1000, 0u64, |i| i as u64, |a, b| a + b);
//! assert_eq!(sum, 499_500);
//!
//! let local = std::rc::Rc::new(2u64); // not `Send`: fine on the caller's side
//! let (a, b) = join(|| *local * 21, || 6 * 7);
//! assert_eq!((a, b), (42, 42));
//! ```

#![deny(missing_debug_implementations)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::iter_over_hash_type,
    clippy::allow_attributes_without_reason
)]

mod pool;
pub mod scope;

pub use scope::{join, par_chunks, par_chunks_mut, par_for, par_map_reduce, Grain};

/// Returns the degree of parallelism used by default: the number of
/// available CPUs, capped at 16 so simulation runs stay well-behaved on
/// large shared machines. Read once per process: on Linux the query reads
/// cgroup files, which costs more than a short loop.
pub fn default_parallelism() -> usize {
    #[expect(
        clippy::disallowed_types,
        reason = "the host's CPU count, shared compute like the pool it sizes, not per-run state"
    )]
    static PARALLELISM: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *PARALLELISM.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(16)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_parallelism_is_positive_and_capped() {
        let p = default_parallelism();
        assert!(p >= 1);
        assert!(p <= 16);
    }
}
