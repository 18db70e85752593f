//! Borrowing, dynamically scheduled loop primitives on the persistent pool.
//!
//! Closures may capture non-`'static` references (slices owned by the
//! caller). Load balance comes from *dynamic chunk scheduling*: the
//! iteration space is cut into chunks of [`Grain`] size, and the calling
//! thread and at most P − 1 helper jobs on the process-wide pool claim chunks
//! from one atomic cursor, so an uneven workload (e.g. BFS frontiers) does
//! not leave threads idle. No call spawns a thread.
//!
//! The caller drains the cursor itself, so a call completes even when every
//! pool worker is busy: a loop nested in a loop body, or loops on every
//! thread of the gh-jobs executor at once. It then waits on the call's own
//! latch, not on the whole pool, until no helper holds a claim. A panic in
//! the body stops further claims and is re-raised on the caller once every
//! claimed chunk has stopped.
//!
//! [`join`] runs two different closures at once on the same machinery: its
//! second closure is a call's one chunk, which a helper claims while the
//! caller runs the first closure, and which the caller runs itself if no
//! helper has claimed it by then.

#![expect(
    clippy::expect_used,
    reason = "mutex poisoning means a worker panicked; propagating the panic is the only sound response"
)]

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use crate::pool::{global, spin_until, Job};

/// Chunking policy for the scoped loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grain {
    /// Fixed number of iterations per claimed chunk.
    Fixed(usize),
    /// Split the range into roughly `4 × workers` chunks (a good default:
    /// large enough to amortize the claim, small enough to balance).
    Auto,
}

impl Grain {
    fn chunk_len(self, total: usize, workers: usize) -> usize {
        match self {
            Grain::Fixed(n) => n.max(1),
            Grain::Auto => (total / (workers * 4).max(1)).max(1),
        }
    }
}

fn effective_workers(total: usize) -> usize {
    crate::default_parallelism().min(total.max(1))
}

/// Set in [`Call::state`] once the caller has stopped draining: no helper
/// takes a claim after it.
const CLOSED: usize = 1 << (usize::BITS - 1);

/// A loop body whose borrow's lifetime is erased, so `'static` helper jobs
/// can hold it.
struct Body(*const (dyn Fn(usize) + Sync + 'static));

// SAFETY: the pointee is `Sync`, so threads may share it, and a helper
// dereferences the pointer only while it holds a claim (see `run`).
unsafe impl Send for Body {}
// SAFETY: as above; the pointer itself is never written.
unsafe impl Sync for Body {}

/// One scoped loop call, shared by its caller and its helper jobs.
struct Call {
    body: Body,
    n_chunks: usize,
    /// The next chunk index to claim.
    cursor: AtomicUsize,
    /// [`CLOSED`] or'ed with the number of helpers holding a claim.
    state: AtomicUsize,
    /// The first panic a helper raised in the body.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    lock: Mutex<()>,
    released: Condvar,
}

impl Call {
    /// Claims and runs chunks until none is left.
    fn drain(&self, body: &(dyn Fn(usize) + Sync)) {
        loop {
            let c = self.cursor.fetch_add(1, Ordering::Relaxed);
            if c >= self.n_chunks {
                return;
            }
            body(c);
        }
    }

    /// A helper job: takes a claim unless the call is closed, drains, and
    /// releases the claim, waking the caller if it was the last one.
    fn help(&self) {
        let mut s = self.state.load(Ordering::Acquire);
        loop {
            if s & CLOSED != 0 {
                return;
            }
            match self
                .state
                .compare_exchange_weak(s, s + 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(now) => s = now,
            }
        }
        // SAFETY: this helper holds a claim, and the caller does not leave
        // `run`, by return or by unwinding, while any claim is live
        // (`Close::drop`), so the body the pointer borrows is alive.
        let body = unsafe { &*self.body.0 };
        if let Err(p) = panic::catch_unwind(AssertUnwindSafe(|| self.drain(body))) {
            self.cursor.store(self.n_chunks, Ordering::Relaxed);
            self.panic
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_or_insert(p);
        }
        // Release pairs with the caller's Acquire loads of `state`: the
        // body's writes happen before the caller returns.
        if self.state.fetch_sub(1, Ordering::AcqRel) == CLOSED | 1 {
            let _g = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
            self.released.notify_one();
        }
    }
}

/// Closes a call when the caller leaves `run`, by return or by unwinding,
/// and blocks until no helper holds a claim.
struct Close<'a>(&'a Call);

impl Drop for Close<'_> {
    fn drop(&mut self) {
        let call = self.0;
        // A no-op after a full drain; stops the helpers early when the
        // caller unwinds.
        call.cursor.store(call.n_chunks, Ordering::Relaxed);
        if call.state.fetch_or(CLOSED, Ordering::AcqRel) == 0
            || spin_until(|| call.state.load(Ordering::Acquire) == CLOSED)
        {
            return;
        }
        let mut g = call.lock.lock().unwrap_or_else(PoisonError::into_inner);
        while call.state.load(Ordering::Acquire) != CLOSED {
            g = call
                .released
                .wait(g)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Runs `body(c)` for every chunk index `c < n_chunks`, on the calling
/// thread and at most P − 1 helper jobs on the global pool, and returns
/// once every chunk has run.
fn run(n_chunks: usize, body: &(dyn Fn(usize) + Sync)) {
    let helpers = (crate::default_parallelism() - 1).min(n_chunks.saturating_sub(1));
    claim(n_chunks, helpers, body, || ());
}

/// Submits `helpers` helper jobs that claim chunks of `body`, runs
/// `first` on the calling thread, then claims and runs every chunk that no
/// helper has claimed, and returns `first`'s result once every chunk has
/// run. With no helper, `first` runs and then every chunk, in order.
fn claim<R>(
    n_chunks: usize,
    helpers: usize,
    body: &(dyn Fn(usize) + Sync),
    first: impl FnOnce() -> R,
) -> R {
    if helpers == 0 {
        let r = first();
        (0..n_chunks).for_each(body);
        return r;
    }
    let ptr: *const (dyn Fn(usize) + Sync + '_) = body;
    // SAFETY: only the lifetime changes. Helpers dereference the pointer
    // under a claim alone, and `Close` keeps this frame, and so `body`,
    // alive until no claim is live.
    let ptr: *const (dyn Fn(usize) + Sync + 'static) = unsafe { std::mem::transmute(ptr) };
    let call = Arc::new(Call {
        body: Body(ptr),
        n_chunks,
        cursor: AtomicUsize::new(0),
        state: AtomicUsize::new(0),
        panic: Mutex::new(None),
        lock: Mutex::new(()),
        released: Condvar::new(),
    });
    let r = {
        let _close = Close(&call);
        global().submit((0..helpers).map(|_| {
            let call = Arc::clone(&call);
            Box::new(move || call.help()) as Job
        }));
        let r = first();
        call.drain(body);
        r
    };
    let panic = call
        .panic
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take();
    if let Some(p) = panic {
        panic::resume_unwind(p);
    }
    r
}

/// Runs `a` on the calling thread while a pool worker runs `b`, and
/// returns both results once both have returned.
///
/// `a` may hold what cannot cross threads. If no worker has taken `b` by
/// the time `a` returns, the caller runs `b` itself, so the call completes
/// even when every worker is busy; with [`crate::default_parallelism`] 1
/// it runs `a` and then `b`. A panic on either side is re-raised on the
/// caller once both sides have stopped; if `a` panics before a worker has
/// taken `b`, `b` does not run.
///
/// ```
/// let data: Vec<u64> = (1..=100).collect();
/// let (evens, odds) = gh_par::join(
///     || data.iter().filter(|&&x| x % 2 == 0).sum::<u64>(),
///     || data.iter().filter(|&&x| x % 2 == 1).sum::<u64>(),
/// );
/// assert_eq!((evens, odds), (2550, 2500));
/// ```
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    let b = Mutex::new(Some(b));
    let rb = Mutex::new(None);
    let helpers = (crate::default_parallelism() - 1).min(1);
    // `b` runs outside both locks, so its panic poisons neither.
    let ra = claim(
        1,
        helpers,
        &|_| {
            let b = b.lock().expect("join's b").take().expect("one claim");
            let out = b();
            *rb.lock().expect("join's result") = Some(out);
        },
        a,
    );
    let rb = rb
        .into_inner()
        .expect("join's result")
        .expect("b ran before its call closed");
    (ra, rb)
}

/// Runs `f(i)` for every `i` in `range`, in parallel, with dynamic
/// scheduling. Blocks until every iteration has completed.
pub fn par_for<F>(range: std::ops::Range<usize>, grain: Grain, f: F)
where
    F: Fn(usize) + Sync,
{
    let total = range.len();
    if total == 0 {
        return;
    }
    let chunk = grain.chunk_len(total, effective_workers(total));
    run(total.div_ceil(chunk), &|c| {
        let lo = range.start + c * chunk;
        (lo..(lo + chunk).min(range.end)).for_each(&f);
    });
}

/// Runs `f(chunk_index, chunk)` over disjoint mutable chunks of `data`,
/// `chunk_len` elements each (last chunk may be shorter), in parallel.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk_len = chunk_len.max(1);
    let n_chunks = data.len().div_ceil(chunk_len);
    let chunks = Mutex::new(data.chunks_mut(chunk_len).enumerate());
    // Every claim takes the next chunk off the shared iterator, so each
    // chunk runs exactly once. The lock is never held while `f` runs.
    run(n_chunks, &|_| {
        let (idx, chunk) = chunks
            .lock()
            .expect("chunk iterator lock")
            .next()
            .expect("one chunk per claim");
        f(idx, chunk);
    });
}

/// Runs `f(chunk_index, chunk)` over disjoint shared chunks of `data`.
pub fn par_chunks<T, F>(data: &[T], chunk_len: usize, f: F)
where
    T: Sync,
    F: Fn(usize, &[T]) + Sync,
{
    let chunk_len = chunk_len.max(1);
    let n_chunks = data.len().div_ceil(chunk_len);
    if n_chunks == 0 {
        return;
    }
    par_for(0..n_chunks, Grain::Fixed(1), |idx| {
        let lo = idx * chunk_len;
        let hi = (lo + chunk_len).min(data.len());
        f(idx, &data[lo..hi]);
    });
}

/// Parallel map-reduce over an index range. `map(i)` produces a value per
/// iteration; values are folded with `reduce`, starting from `identity`.
/// `reduce` must be associative and commutative. Each chunk folds its own
/// partial, and the partials fold in chunk order, so the grouping depends
/// on the range and [`crate::default_parallelism`], never on scheduling.
pub fn par_map_reduce<A, M, R>(range: std::ops::Range<usize>, identity: A, map: M, reduce: R) -> A
where
    A: Send + Sync + Clone,
    M: Fn(usize) -> A + Sync,
    R: Fn(A, A) -> A + Sync + Send,
{
    let total = range.len();
    if total == 0 {
        return identity;
    }
    let chunk = Grain::Auto.chunk_len(total, effective_workers(total));
    let partials: Vec<Mutex<Option<A>>> = (0..total.div_ceil(chunk))
        .map(|_| Mutex::new(None))
        .collect();
    run(partials.len(), &|c| {
        let lo = range.start + c * chunk;
        let acc =
            (lo..(lo + chunk).min(range.end)).fold(identity.clone(), |acc, i| reduce(acc, map(i)));
        *partials[c].lock().expect("partial lock") = Some(acc);
    });
    partials
        .into_iter()
        .filter_map(|p| p.into_inner().expect("partial lock"))
        .fold(identity, &reduce)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::time::Duration;

    /// Runs `f` on a thread of its own and fails if it has not returned
    /// within a minute, so a deadlock fails the test instead of hanging.
    fn finishes(what: &str, f: impl FnOnce() + Send + 'static) {
        let (done, wait) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            f();
            done.send(()).ok();
        });
        match wait.recv_timeout(Duration::from_secs(60)) {
            Err(RecvTimeoutError::Timeout) => panic!("{what} did not finish within a minute"),
            Ok(()) | Err(RecvTimeoutError::Disconnected) => {
                if let Err(p) = handle.join() {
                    panic::resume_unwind(p);
                }
            }
        }
    }

    #[test]
    fn join_runs_each_side_once_and_returns_the_serial_results() {
        let data: Vec<u64> = (0..20_000).collect();
        // `a` holds an `Rc`, which cannot cross threads.
        let scale = std::rc::Rc::new(3u64);
        for round in 0..200u64 {
            let (runs_a, runs_b) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let (ra, rb) = join(
                || {
                    runs_a.fetch_add(1, Ordering::Relaxed);
                    data.iter().map(|x| x * *scale + round).sum::<u64>()
                },
                || {
                    runs_b.fetch_add(1, Ordering::Relaxed);
                    data.iter().map(|x| x ^ round).collect::<Vec<_>>()
                },
            );
            assert_eq!(ra, data.iter().map(|x| x * 3 + round).sum::<u64>());
            assert!(rb.iter().zip(&data).all(|(&y, &x)| y == x ^ round));
            assert_eq!((runs_a.into_inner(), runs_b.into_inner()), (1, 1));
        }
    }

    #[test]
    fn join_reraises_a_panic_in_b_after_a_returns() {
        let a_done = AtomicBool::new(false);
        let err = panic::catch_unwind(AssertUnwindSafe(|| {
            join(
                || {
                    std::thread::sleep(Duration::from_millis(20));
                    a_done.store(true, Ordering::SeqCst);
                },
                || panic!("b fails on purpose"),
            )
        }))
        .expect_err("b's panic reaches the caller");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"b fails on purpose"));
        assert!(a_done.load(Ordering::SeqCst), "a ran to its end first");
    }

    #[test]
    fn join_reraises_a_panic_in_a_after_b_stops() {
        let (b_started, b_done) = (AtomicBool::new(false), AtomicBool::new(false));
        let err = panic::catch_unwind(AssertUnwindSafe(|| {
            join(
                || {
                    // Give a worker up to a second to take `b`; on one core
                    // none does, and `b` never runs.
                    for _ in 0..1000 {
                        if b_started.load(Ordering::SeqCst) {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    panic!("a fails on purpose")
                },
                || {
                    b_started.store(true, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(20));
                    b_done.store(true, Ordering::SeqCst);
                },
            )
        }))
        .expect_err("a's panic reaches the caller");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"a fails on purpose"));
        assert_eq!(
            b_done.load(Ordering::SeqCst),
            b_started.load(Ordering::SeqCst),
            "a b that started had stopped before the panic surfaced"
        );
    }

    #[test]
    fn join_completes_on_the_caller_when_every_worker_is_blocked() {
        // Every worker takes a job that waits on this latch, so no worker
        // can take `b`: the caller must run it.
        let latch = Arc::new((Mutex::new(false), Condvar::new()));
        let workers = crate::default_parallelism();
        let (started, all_started) = mpsc::channel();
        global().submit((0..workers).map(|_| {
            let (latch, started) = (Arc::clone(&latch), started.clone());
            Box::new(move || {
                started.send(()).ok();
                let (open, opened) = &*latch;
                let mut g = open.lock().unwrap();
                while !*g {
                    g = opened.wait(g).unwrap();
                }
            }) as Job
        }));
        let (result, got) = mpsc::channel();
        let caller = std::thread::spawn(move || {
            for _ in 0..workers {
                all_started.recv().unwrap();
            }
            result.send(join(|| 1, || 2)).ok();
        });
        let got = got.recv_timeout(Duration::from_secs(60));
        *latch.0.lock().unwrap() = true;
        latch.1.notify_all();
        caller.join().unwrap();
        assert_eq!(got, Ok((1, 2)), "join finished on the caller alone");
    }

    #[test]
    fn join_completes_a_loop_nested_in_b() {
        finishes("par_chunks_mut inside join's b", || {
            let mut data = vec![0u32; 10_000];
            let (sum, ()) = join(
                || (0..1000u64).sum::<u64>(),
                || {
                    par_chunks_mut(&mut data, 64, |idx, chunk| chunk.fill(idx as u32 + 1));
                },
            );
            assert_eq!(sum, 499_500);
            assert!(data
                .iter()
                .enumerate()
                .all(|(i, &x)| x == (i / 64) as u32 + 1));
        });
    }

    #[test]
    fn par_for_visits_every_index_once() {
        let n = 10_000;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        par_for(0..n, Grain::Auto, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_for_respects_range_offset() {
        let seen = std::sync::Mutex::new(Vec::new());
        par_for(100..110, Grain::Fixed(3), |i| {
            seen.lock().unwrap().push(i);
        });
        let mut v = seen.into_inner().unwrap();
        v.sort_unstable();
        assert_eq!(v, (100..110).collect::<Vec<_>>());
    }

    #[test]
    fn par_for_empty_range_is_noop() {
        par_for(5..5, Grain::Auto, |_| panic!("must not run"));
    }

    #[test]
    fn par_chunks_mut_writes_disjoint_chunks() {
        let mut data = vec![0u32; 1000];
        par_chunks_mut(&mut data, 64, |idx, chunk| {
            for x in chunk.iter_mut() {
                *x = idx as u32 + 1;
            }
        });
        for (i, &x) in data.iter().enumerate() {
            assert_eq!(x, (i / 64) as u32 + 1);
        }
    }

    #[test]
    fn par_chunks_mut_handles_non_divisible_len() {
        let mut data = vec![0u8; 103];
        par_chunks_mut(&mut data, 10, |_, chunk| {
            for x in chunk.iter_mut() {
                *x += 1;
            }
        });
        assert!(data.iter().all(|&x| x == 1));
    }

    #[test]
    fn par_chunks_shared_reads_all() {
        let data: Vec<u64> = (0..5000).collect();
        let sum = AtomicU64::new(0);
        par_chunks(&data, 128, |_, chunk| {
            sum.fetch_add(chunk.iter().sum::<u64>(), Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 5000 * 4999 / 2);
    }

    #[test]
    fn par_map_reduce_sums_correctly() {
        let s = par_map_reduce(0..100_000, 0u64, |i| i as u64, |a, b| a + b);
        assert_eq!(s, 100_000 * 99_999 / 2);
    }

    #[test]
    fn par_map_reduce_empty_returns_identity() {
        let s = par_map_reduce(0..0, 42u64, |_| 0, |a, b| a + b);
        assert_eq!(s, 42);
    }

    #[test]
    fn par_map_reduce_max() {
        let m = par_map_reduce(0..9999, 0usize, |i| (i * 7919) % 4096, |a, b| a.max(b));
        let expected = (0..9999).map(|i| (i * 7919) % 4096).max().unwrap();
        assert_eq!(m, expected);
    }
}
