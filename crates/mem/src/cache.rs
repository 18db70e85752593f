//! Set-associative cache model.
//!
//! Used as the GPU's L2 for *irregular remote* accesses: on Grace
//! Hopper, a 128 B line fetched once over NVLink-C2C is served from L2
//! on re-touch, which is what keeps pointer-chasing workloads (BFS's
//! visited flags) viable over the link. The model is a classic
//! sets×ways LRU cache tracking presence only — the simulator keeps data
//! elsewhere; this answers "would this touch have crossed the link?".

use gh_units::{narrow, widen, Bytes, Lines};

/// Low bits of a set header holding the set's live length; the bits
/// above hold the generation that wrote it.
const LEN_BITS: u32 = 8;

/// A set-associative LRU presence cache over line addresses.
///
/// Construction allocates nothing; the first [`SetCache::access`]
/// allocates one block of a header word per set followed by `ways` line
/// ids per set, kept in recency order (most recent first). A header is
/// `gen << 8 | len`: the set holds its first `len` ids when `gen` is
/// the cache's current generation and nothing otherwise, so
/// [`SetCache::flush`] empties every set in O(1). A hit moves its line
/// to the front; a miss inserts at the front and, when the set is full,
/// evicts the last (least recently used) line. A cache that is never
/// accessed costs no heap; gh200's 40 MiB L2 costs 4.25 MiB once used.
///
/// ```
/// use gh_mem::SetCache;
/// use gh_units::{Bytes, Lines};
/// let mut l2 = SetCache::new(Bytes::new(64 * 1024), Bytes::new(128), 8);
/// assert_eq!(l2.heap_bytes(), Bytes::ZERO); // nothing until first use
/// assert!(!l2.access(0));   // miss: crosses the link
/// assert!(l2.access(64));   // hit: same 128 B line
/// assert_eq!(l2.access_range(0, Bytes::new(1024)), Lines::new(7)); // 7 new lines
/// ```
#[derive(Debug, Clone)]
pub struct SetCache {
    ways: usize,
    sets: usize,
    /// log2 of the line size.
    line_shift: u32,
    /// `sets` headers, then `sets · ways` line ids; empty until the
    /// first access.
    slots: Vec<u64>,
    /// Current generation; headers written under another one read as
    /// empty sets. Bumped by [`SetCache::flush`].
    gen: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl SetCache {
    /// Builds a cache of `capacity_bytes` with `line_bytes` lines and
    /// the given associativity (at most 255). Set count rounds up to a
    /// power of two. Allocates nothing: storage appears on the first
    /// access.
    pub fn new(capacity_bytes: Bytes, line_bytes: Bytes, ways: usize) -> Self {
        assert!(line_bytes.get().is_power_of_two());
        assert!((1..1 << LEN_BITS).contains(&ways));
        let lines = narrow((capacity_bytes.get() / line_bytes.get()).max(1));
        let sets = (lines / ways).next_power_of_two().max(1);
        Self {
            ways,
            sets,
            line_shift: line_bytes.get().trailing_zeros(),
            slots: Vec::new(),
            gen: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> Bytes {
        Bytes::new(1 << self.line_shift)
    }

    /// Total line capacity.
    pub fn capacity_lines(&self) -> usize {
        self.sets * self.ways
    }

    /// Host heap held by the model: zero until the first access, then
    /// `sets · (ways + 1)` words.
    pub fn heap_bytes(&self) -> Bytes {
        Bytes::new(widen(std::mem::size_of_val(self.slots.as_slice())))
    }

    /// Hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lines evicted to make room.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    fn set_of(&self, line: u64) -> usize {
        narrow(line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 29) & (self.sets - 1)
    }

    /// Touches the line containing `addr`: returns `true` on hit,
    /// otherwise inserts it (evicting LRU) and returns `false`.
    pub fn access(&mut self, addr: u64) -> bool {
        self.touch(addr >> self.line_shift)
    }

    /// [`SetCache::access`] by line id.
    fn touch(&mut self, line: u64) -> bool {
        let set = self.set_of(line);
        if self.slots.is_empty() {
            self.slots = vec![0; self.sets * (self.ways + 1)];
        }
        let (headers, lines) = self.slots.split_at_mut(self.sets);
        let header = headers[set];
        let len = if header >> LEN_BITS == self.gen {
            narrow(header & ((1 << LEN_BITS) - 1))
        } else {
            0
        };
        let ways = &mut lines[set * self.ways..][..self.ways];
        if let Some(pos) = ways[..len].iter().position(|&l| l == line) {
            ways.copy_within(..pos, 1);
            ways[0] = line;
            self.hits = self.hits.saturating_add(1);
            return true;
        }
        self.misses = self.misses.saturating_add(1);
        if len == self.ways {
            self.evictions = self.evictions.saturating_add(1);
        }
        let len = (len + 1).min(self.ways);
        ways.copy_within(..len - 1, 1);
        ways[0] = line;
        headers[set] = self.gen << LEN_BITS | widen(len);
        false
    }

    /// Touches `[addr, addr+bytes)`; returns the number of *missed*
    /// lines (the ones that crossed the link).
    pub fn access_range(&mut self, addr: u64, bytes: Bytes) -> Lines {
        if bytes.is_zero() {
            return Lines::ZERO;
        }
        let first = addr >> self.line_shift;
        let last = (addr + bytes.get() - 1) >> self.line_shift;
        let mut missed = Lines::ZERO;
        for l in first..=last {
            if !self.touch(l) {
                missed += Lines::new(1);
            }
        }
        missed
    }

    /// Drops every line (kernel boundary / invalidation), keeping the
    /// hit/miss/eviction stats and the storage. O(1): bumping the
    /// generation empties every set without touching it (when the
    /// 56-bit generation wraps, the storage is zeroed instead).
    pub fn flush(&mut self) {
        self.gen = (self.gen + 1) & (u64::MAX >> LEN_BITS);
        if self.gen == 0 {
            self.slots.fill(0);
        }
    }

    /// O(1) flush that also zeroes the stats, leaving the cache
    /// observationally identical to a freshly built one while keeping
    /// its storage for the next kernel launch.
    pub fn reset(&mut self) {
        self.flush();
        self.hits = 0;
        self.misses = 0;
        self.evictions = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// The textbook LRU: per set, a deque of lines, most recent first.
    struct NaiveLru {
        ways: usize,
        sets: Vec<VecDeque<u64>>,
        hits: u64,
        misses: u64,
        evictions: u64,
    }

    impl NaiveLru {
        fn like(c: &SetCache) -> Self {
            Self {
                ways: c.ways,
                sets: vec![VecDeque::new(); c.sets],
                hits: 0,
                misses: 0,
                evictions: 0,
            }
        }

        fn access(&mut self, set: usize, line: u64) -> bool {
            let q = &mut self.sets[set];
            if let Some(pos) = q.iter().position(|&l| l == line) {
                q.remove(pos);
                q.push_front(line);
                self.hits += 1;
                return true;
            }
            self.misses += 1;
            if q.len() == self.ways {
                q.pop_back();
                self.evictions += 1;
            }
            q.push_front(line);
            false
        }

        fn flush(&mut self) {
            self.sets.iter_mut().for_each(VecDeque::clear);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Every return value and counter equals the naive LRU's, for
        /// 1–16 ways, 1–64 sets, streams that reuse a working set up to
        /// 4× the capacity or crowd lines into a few sets, and flushes
        /// and resets anywhere.
        #[test]
        fn matches_a_naive_lru(
            ways in 1usize..17,
            sets in 1usize..65,
            spread in 1u64..5,
            ops in prop::collection::vec((0u8..64, 0u64..1 << 20, 0u64..1 << 10), 1..3000),
        ) {
            let mut c = SetCache::new(Bytes::new((sets * ways * 128) as u64), Bytes::new(128), ways);
            let mut lru = NaiveLru::like(&c);
            let universe = c.capacity_lines() as u64 * spread;
            for (kind, v, w) in ops {
                let line = match v % 4 {
                    0 => (v % universe) << 40, // at most 16 distinct sets
                    _ => v % universe,
                };
                let addr = line * 128 + w % 128;
                match kind {
                    0 => {
                        c.flush();
                        lru.flush();
                    }
                    1 => {
                        c.reset();
                        lru = NaiveLru::like(&c);
                    }
                    2..=5 => {
                        let bytes = w % 600;
                        let lines = match bytes {
                            0 => 0..0,
                            _ => addr / 128..(addr + bytes - 1) / 128 + 1,
                        };
                        let want = lines.filter(|&l| !lru.access(c.set_of(l), l)).count();
                        prop_assert_eq!(
                            c.access_range(addr, Bytes::new(bytes)),
                            Lines::new(want as u64)
                        );
                    }
                    _ => prop_assert_eq!(c.access(addr), lru.access(c.set_of(line), line)),
                }
                prop_assert_eq!(
                    (c.hits(), c.misses(), c.evictions()),
                    (lru.hits, lru.misses, lru.evictions)
                );
            }
        }
    }

    fn cache() -> SetCache {
        SetCache::new(Bytes::new(64 * 1024), Bytes::new(128), 8)
    }

    #[test]
    fn capacity_is_respected() {
        let c = cache();
        assert!(c.capacity_lines() >= 512);
        assert_eq!(c.line_bytes(), Bytes::new(128));
    }

    #[test]
    fn miss_then_hit() {
        let mut c = cache();
        assert!(!c.access(0));
        assert!(c.access(64)); // same 128 B line
        assert!(!c.access(128));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn range_counts_missed_lines() {
        let mut c = cache();
        assert_eq!(c.access_range(0, Bytes::new(1024)), Lines::new(8));
        assert_eq!(
            c.access_range(0, Bytes::new(1024)),
            Lines::new(0),
            "all cached now"
        );
        assert_eq!(
            c.access_range(512, Bytes::new(1024)),
            Lines::new(4),
            "half new"
        );
    }

    #[test]
    fn working_set_larger_than_capacity_evicts() {
        let mut c = SetCache::new(Bytes::new(4096), Bytes::new(128), 4); // 32 lines
        for i in 0..64u64 {
            c.access(i * 128);
        }
        assert!(c.evictions() > 0);
        // Streaming again still misses heavily.
        let h0 = c.hits();
        for i in 0..64u64 {
            c.access(i * 128);
        }
        assert!(c.hits() - h0 < 48, "mostly misses after thrash");
    }

    #[test]
    fn small_working_set_is_fully_cached() {
        let mut c = cache();
        for _ in 0..4 {
            for i in 0..100u64 {
                c.access(i * 128);
            }
        }
        assert_eq!(c.misses(), 100);
        assert_eq!(c.hits(), 300);
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn flush_clears() {
        let mut c = cache();
        c.access(0);
        c.flush();
        assert!(!c.access(0));
    }

    #[test]
    fn generation_wrap_empties_every_set() {
        let mut c = cache();
        c.access(0);
        // The next flush wraps the generation back to the one line 0
        // was inserted under.
        c.gen = u64::MAX >> LEN_BITS;
        c.flush();
        assert_eq!(c.gen, 0);
        assert!(!c.access(0));
    }

    #[test]
    fn reset_is_equivalent_to_fresh() {
        let mut a = SetCache::new(Bytes::new(4096), Bytes::new(128), 4);
        let mut b = SetCache::new(Bytes::new(4096), Bytes::new(128), 4);
        // Dirty `a` well past capacity, then reset: every subsequent
        // access must agree with a freshly built cache, stats included.
        for i in 0..1000u64 {
            a.access(i * 128);
        }
        a.reset();
        assert_eq!(a.hits(), 0);
        assert_eq!(a.misses(), 0);
        assert_eq!(a.evictions(), 0);
        for i in (0..600u64).rev() {
            assert_eq!(a.access(i * 64), b.access(i * 64), "line {i}");
        }
        assert_eq!(a.hits(), b.hits());
        assert_eq!(a.misses(), b.misses());
        assert_eq!(a.evictions(), b.evictions());
    }

    /// SplitMix64, the golden stream's generator.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Hits, misses, evictions and an FNV-1a digest of the hit/miss
    /// sequence for a seeded stream of 4M accesses into gh200's L2
    /// (40 MiB, 128 B lines, 16 ways), reset every 50k accesses as
    /// kernel launches do, summed over the resets. The stream mixes a
    /// reused hot set, lines that crowd 64 to a set into 16 sets, and
    /// cold lines. Recorded on the struct-of-arrays LRU (an LRU stamp
    /// per slot) that the recency-ordered sets replaced.
    #[test]
    fn seeded_stream_matches_recorded_golden() {
        let mut c = SetCache::new(Bytes::new(40 << 20), Bytes::new(128), 16);
        let mut s = 0x5EED_u64;
        let hot: Vec<u64> = (0..2048).map(|_| splitmix(&mut s) >> 24).collect();
        let mut totals = [0u64; 3];
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for i in 1..=4_000_000u64 {
            let r = splitmix(&mut s);
            let line = match r % 10 {
                0..=3 => hot[(r >> 8) as usize % hot.len()],
                // `j << 40` maps to set `(j * K) % 16 << 11`.
                4..=6 => ((r >> 8) % 1024) << 40,
                _ => r >> 24,
            };
            let hit = c.access(line * 128 + (r >> 60) * 8);
            digest = (digest ^ u64::from(hit)).wrapping_mul(0x0000_0100_0000_01b3);
            if i % 50_000 == 0 {
                for (t, n) in totals.iter_mut().zip([c.hits(), c.misses(), c.evictions()]) {
                    *t += n;
                }
                c.reset();
            }
        }
        assert_eq!(
            (totals, digest),
            ([1_733_723, 2_266_277, 884_212], 10_100_963_125_515_225_684)
        );
    }

    #[test]
    fn zero_byte_range_is_free() {
        let mut c = cache();
        assert_eq!(c.access_range(1234, Bytes::new(0)), Lines::new(0));
        assert_eq!(c.misses(), 0);
    }
}
