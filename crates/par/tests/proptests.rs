//! Property tests: parallel primitives must agree with their sequential
//! counterparts for any input shape.

use gh_par::{par_chunks_mut, par_for, par_map_reduce, Grain};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

proptest! {
    #[test]
    fn par_for_matches_sequential_sum(lo in 0usize..1000, len in 0usize..4000, grain in 1usize..300) {
        let seq: u64 = (lo..lo + len).map(|i| i as u64 * 3 + 1).sum();
        let acc = AtomicU64::new(0);
        par_for(lo..lo + len, Grain::Fixed(grain), |i| {
            acc.fetch_add(i as u64 * 3 + 1, Ordering::Relaxed);
        });
        prop_assert_eq!(acc.load(Ordering::Relaxed), seq);
    }

    #[test]
    fn par_chunks_mut_applies_exactly_once(len in 0usize..5000, chunk in 1usize..512) {
        let mut data = vec![0u32; len];
        par_chunks_mut(&mut data, chunk, |_, c| {
            for x in c.iter_mut() { *x += 1; }
        });
        prop_assert!(data.iter().all(|&x| x == 1));
    }

    #[test]
    fn par_map_reduce_matches_fold(len in 0usize..3000) {
        let par = par_map_reduce(0..len, 0u64, |i| (i as u64).wrapping_mul(2654435761), |a, b| a.wrapping_add(b));
        let seq = (0..len).fold(0u64, |a, i| a.wrapping_add((i as u64).wrapping_mul(2654435761)));
        prop_assert_eq!(par, seq);
    }

    #[test]
    fn par_chunks_mut_chunk_indices_cover_data(len in 1usize..3000, chunk in 1usize..256) {
        let mut data = vec![u32::MAX; len];
        par_chunks_mut(&mut data, chunk, |idx, c| {
            for x in c.iter_mut() { *x = idx as u32; }
        });
        for (i, &x) in data.iter().enumerate() {
            prop_assert_eq!(x as usize, i / chunk);
        }
    }
}
