//! The one hasher of the simulator's keyed-lookup tables.
//!
//! Every sanctioned hash container in the model crates is keyed by an
//! integer (a buffer id, an allocation address, a radix directory index)
//! and is only ever looked up by key, never iterated. The simulator makes
//! every such key itself: ids count up and addresses come from the OS's
//! VA cursor, never from input, so no key can be crafted to collide, and
//! std's SipHash-1-3 with a per-map random seed buys nothing there.
//! [`IntHash`] is a fixed multiplicative hasher instead: one multiply per
//! key, then the high half folded into the low one so that aligned keys
//! (2 MiB addresses have 21 zero low bits) still spread over the
//! buckets.

use std::hash::{BuildHasherDefault, Hasher};

/// Odd 64-bit constant (2^64 / golden ratio) the key is multiplied by.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Builds [`IntHasher`]s: the `S` parameter of every sanctioned
/// `HashMap`/`HashSet`.
pub type IntHash = BuildHasherDefault<IntHasher>;

/// A fixed multiplicative hasher for integer keys (see the module docs).
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher {
    state: u64,
}

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        self.state = (self.state.rotate_left(5) ^ x).wrapping_mul(K);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(gh_units::widen(x));
    }

    fn finish(&self) -> u64 {
        self.state ^ (self.state >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn fixed_and_seedless() {
        let (a, b) = (IntHash::default(), IntHash::default());
        for key in [0u64, 1, 2 << 20, u64::MAX] {
            assert_eq!(a.hash_one(key), b.hash_one(key));
        }
        assert_eq!(a.hash_one(7u32), a.hash_one(7u64), "u32 keys widen");
    }

    #[test]
    fn aligned_keys_spread_over_low_bits() {
        // 64 consecutive 2 MiB-aligned addresses land in at least half
        // of 64 buckets indexed by the hash's low bits (an unfolded
        // product would put them all in bucket 0).
        let h = IntHash::default();
        let buckets: std::collections::BTreeSet<u64> =
            (1..=64u64).map(|b| h.hash_one(b << 21) & 63).collect();
        assert!(buckets.len() >= 32, "{} buckets", buckets.len());
    }
}
