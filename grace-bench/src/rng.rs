//! Seed derivation: every input the benchmark generates comes from
//! `--seed` through these functions, so one seed gives one input set.

/// SplitMix64 (Steele et al.): small, seedable, well mixed.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is below 2^-40 for the
    /// small ranges used here).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        self.next_u64() % n
    }

    /// One of `table`'s items, each drawn with probability proportional
    /// to its weight (the weights must not sum to 0).
    pub fn weighted<T: Copy>(&mut self, table: &[(T, u64)]) -> T {
        let mut r = self.below(table.iter().map(|&(_, w)| w).sum());
        let (last, rest) = table.split_last().expect("a non-empty table"); // gh-audit: allow(no-unwrap-in-lib) -- every table is a non-empty constant
        for &(item, w) in rest {
            if r < w {
                return item;
            }
            r -= w;
        }
        last.0
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The seed for input `salt` of a run seeded with `seed`. Seed 0 keeps
/// `default`, so `--seed 0` reproduces the simulator crates' own inputs.
pub fn derive(seed: u64, salt: u64, default: u64) -> u64 {
    if seed == 0 {
        default
    } else {
        SplitMix::new(seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_keeps_defaults_and_others_differ() {
        assert_eq!(derive(0, 5, 17), 17);
        assert_ne!(derive(1, 5, 17), derive(2, 5, 17));
        assert_ne!(derive(1, 5, 17), derive(1, 6, 17));
        assert_eq!(derive(9, 5, 17), derive(9, 5, 17));
    }

    #[test]
    fn weighted_draws_follow_the_weights() {
        let mut rng = SplitMix::new(4);
        let mut seen = [0u64; 3];
        for _ in 0..10_000 {
            seen[rng.weighted(&[(0, 1), (1, 0), (2, 3)])] += 1;
        }
        assert_eq!(seen[1], 0);
        assert!((2_300..2_700).contains(&seen[0]), "{seen:?}");
    }

    #[test]
    fn shuffle_permutes() {
        let mut v: Vec<u32> = (0..50).collect();
        SplitMix::new(3).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
