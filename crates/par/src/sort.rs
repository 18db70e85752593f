//! Parallel sorting: chunk-sort + pairwise parallel merge.
//!
//! Used by the application layer to coalesce large access-offset lists
//! (BFS frontiers reach millions of entries per level). The algorithm is
//! the classic two-phase parallel merge sort: split into per-worker
//! chunks sorted with the standard library's pdqsort, then merge pairs
//! of runs in parallel until one run remains.

use crate::scope::par_chunks_mut;

/// Sorts `data` in parallel (unstable). Falls back to `sort_unstable`
/// below a practical threshold.
pub fn par_sort_unstable<T: Ord + Send + Sync + Copy>(data: &mut [T]) {
    const SEQUENTIAL_BELOW: usize = 16_384;
    if data.len() < SEQUENTIAL_BELOW {
        data.sort_unstable();
        return;
    }
    let chunk = data.len().div_ceil(crate::default_parallelism()).max(1);
    // Phase 1: sort chunks in parallel.
    par_chunks_mut(data, chunk, |_, c| c.sort_unstable());
    // Phase 2: merge neighbouring runs until a single run remains.
    merge_runs(data, chunk);
}

/// Merges the sorted runs of length `run` in `data` (the last may be
/// shorter) into one, ping-ponging between `data` and one scratch copy.
/// A pass's output chunks of `2 * run` elements are exactly its disjoint
/// merge ranges. The result is copied back only after an odd pass count.
fn merge_runs<T: Ord + Send + Sync + Copy>(data: &mut [T], mut run: usize) {
    let n = data.len();
    if run >= n {
        return;
    }
    let mut scratch = data.to_vec();
    let mut in_scratch = false;
    while run < n {
        let (src, dst) = if in_scratch {
            (&*scratch, &mut *data)
        } else {
            (&*data, scratch.as_mut_slice())
        };
        par_chunks_mut(dst, 2 * run, |p, out| {
            let lo = p * 2 * run;
            let mid = (lo + run).min(n);
            merge(&src[lo..mid], &src[mid..lo + out.len()], out);
        });
        in_scratch = !in_scratch;
        run *= 2;
    }
    if in_scratch {
        data.copy_from_slice(&scratch);
    }
}

fn merge<T: Ord + Copy>(a: &[T], b: &[T], out: &mut [T]) {
    debug_assert_eq!(a.len() + b.len(), out.len());
    let (mut i, mut j) = (0, 0);
    for slot in out.iter_mut() {
        let take_a = j >= b.len() || (i < a.len() && a[i] <= b[j]);
        if take_a {
            *slot = a[i];
            i += 1;
        } else {
            *slot = b[j];
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scrambled(n: usize) -> Vec<u64> {
        (0..n as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 13)
            .collect()
    }

    #[test]
    fn sorts_large_input() {
        let mut v = scrambled(200_000);
        let mut expected = v.clone();
        expected.sort_unstable();
        par_sort_unstable(&mut v);
        assert_eq!(v, expected);
    }

    #[test]
    fn sorts_small_input_via_fallback() {
        let mut v = vec![5u64, 1, 4, 2, 3];
        par_sort_unstable(&mut v);
        assert_eq!(v, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn handles_empty_and_singleton() {
        let mut e: Vec<u64> = vec![];
        par_sort_unstable(&mut e);
        assert!(e.is_empty());
        let mut s = vec![9u64];
        par_sort_unstable(&mut s);
        assert_eq!(s, vec![9]);
    }

    #[test]
    fn sorts_with_duplicates() {
        let mut v: Vec<u64> = (0..100_000).map(|i| i % 7).collect();
        par_sort_unstable(&mut v);
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(v.iter().filter(|&&x| x == 3).count(), 100_000 / 7 + 1);
    }

    #[test]
    fn already_sorted_is_preserved() {
        let mut v: Vec<u64> = (0..50_000).collect();
        let expected = v.clone();
        par_sort_unstable(&mut v);
        assert_eq!(v, expected);
    }

    /// Sorts each `run`-long chunk, then runs only the merge phase.
    fn merged_at(n: usize, run: usize) -> Vec<u64> {
        let mut v = scrambled(n);
        for c in v.chunks_mut(run) {
            c.sort_unstable();
        }
        merge_runs(&mut v, run);
        v
    }

    #[test]
    fn merge_phase_copies_back_after_odd_pass_counts() {
        let n = 10_001;
        let mut expected = scrambled(n);
        expected.sort_unstable();
        // Passes: run n/2 -> 1, n/8 -> 3, 1 -> 14 (odd, odd, even),
        // n/4 -> 2 (even), and n -> 0 (nothing to merge).
        for run in [n.div_ceil(2), n.div_ceil(8), 1, n.div_ceil(4), n] {
            assert_eq!(merged_at(n, run), expected, "run {run}");
        }
    }

    #[test]
    fn sorts_around_the_sequential_threshold() {
        for n in [16_383, 16_384, 16_385, 1_000_003] {
            let mut v: Vec<(u64, u64)> = scrambled(n).into_iter().map(|x| (x % 1013, x)).collect();
            let mut expected = v.clone();
            expected.sort_unstable();
            par_sort_unstable(&mut v);
            assert_eq!(v, expected, "n {n}");
        }
    }

    #[test]
    fn merge_is_correct() {
        let mut out = vec![0u64; 7];
        merge(&[1, 4, 6], &[2, 3, 5, 7], &mut out);
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn sorts_tuples_lexicographically() {
        let mut v: Vec<(u64, u64)> = (0..70_000u64)
            .map(|i| (i.wrapping_mul(2654435761) % 997, i))
            .collect();
        par_sort_unstable(&mut v);
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
    }
}
