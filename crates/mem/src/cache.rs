//! Set-associative cache model.
//!
//! Used as the GPU's L2 for *irregular remote* accesses: on Grace
//! Hopper, a 128 B line fetched once over NVLink-C2C is served from L2
//! on re-touch, which is what keeps pointer-chasing workloads (BFS's
//! visited flags) viable over the link. The model is a classic
//! sets×ways LRU cache tracking presence only — the simulator keeps data
//! elsewhere; this answers "would this touch have crossed the link?".

use gh_units::{Bytes, Lines};

/// A set-associative presence cache over line addresses.
///
/// Slots live in struct-of-arrays form: a slot `i` is the triple
/// `(lines[i], stamps[i], gens[i])`, and it is *vacant* unless
/// `gens[i]` equals the cache's current generation. That layout keeps
/// the hot hit-scan inside one or two host cachelines per set, and —
/// because every array starts as all-zeroes while the live generation
/// starts at 1 — construction is a calloc, not a multi-megabyte
/// pattern fill. The three arrays share one block: the allocator
/// recycles a single block whole across back-to-back runtime boots,
/// where separate per-array blocks were returned to the OS and
/// page-faulted in again on every boot.
///
/// ```
/// use gh_mem::SetCache;
/// use gh_units::{Bytes, Lines};
/// let mut l2 = SetCache::new(Bytes::new(64 * 1024), Bytes::new(128), 8);
/// assert!(!l2.access(0));   // miss: crosses the link
/// assert!(l2.access(64));   // hit: same 128 B line
/// assert_eq!(l2.access_range(0, Bytes::new(1024)), Lines::new(7)); // 7 new lines
/// ```
#[derive(Debug, Clone)]
pub struct SetCache {
    ways: usize,
    sets: usize,
    line_bytes: Bytes,
    /// `lines ++ stamps ++ gens`, one slot count each: the cached line
    /// id (meaningful only when the slot is live), the LRU stamp, and
    /// the fill generation (`!= gen` means vacant).
    slots: Vec<u64>,
    /// Current generation (never 0, so freshly calloc'd slots are
    /// vacant); bumped by [`SetCache::reset`] to invalidate every slot
    /// in O(1).
    gen: u64,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl SetCache {
    /// Builds a cache of `capacity_bytes` with `line_bytes` lines and
    /// the given associativity. Set count rounds up to a power of two.
    pub fn new(capacity_bytes: Bytes, line_bytes: Bytes, ways: usize) -> Self {
        assert!(line_bytes.get().is_power_of_two());
        assert!(ways >= 1);
        let lines = (capacity_bytes.get() / line_bytes.get()).max(1) as usize;
        let sets = (lines / ways).next_power_of_two().max(1);
        Self {
            ways,
            sets,
            line_bytes,
            slots: vec![0; 3 * sets * ways],
            gen: 1,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> Bytes {
        self.line_bytes
    }

    /// Total line capacity.
    pub fn capacity_lines(&self) -> usize {
        self.sets * self.ways
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
        ((line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 29) as usize) & (self.sets - 1)
    }

    /// Touches the line containing `addr`: returns `true` on hit,
    /// otherwise inserts it (evicting LRU) and returns `false`.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.line_bytes.get();
        self.tick = self.tick.saturating_add(1);
        let base = self.set_of(line) * self.ways;
        let mut victim = base;
        let mut oldest = u64::MAX;
        let (lines, rest) = self.slots.split_at_mut(self.sets * self.ways);
        let (stamps, gens) = rest.split_at_mut(lines.len());
        for w in 0..self.ways {
            let i = base + w;
            let vacant = gens[i] != self.gen;
            if !vacant && lines[i] == line {
                stamps[i] = self.tick;
                self.hits = self.hits.saturating_add(1);
                return true;
            }
            if vacant {
                victim = i;
                oldest = 0;
            } else if stamps[i] < oldest {
                victim = i;
                oldest = stamps[i];
            }
        }
        self.misses = self.misses.saturating_add(1);
        if gens[victim] == self.gen {
            self.evictions = self.evictions.saturating_add(1);
        }
        lines[victim] = line;
        stamps[victim] = self.tick;
        gens[victim] = self.gen;
        false
    }

    /// Touches `[addr, addr+bytes)`; returns the number of *missed*
    /// lines (the ones that crossed the link).
    pub fn access_range(&mut self, addr: u64, bytes: Bytes) -> Lines {
        if bytes.is_zero() {
            return Lines::ZERO;
        }
        let first = addr / self.line_bytes.get();
        let last = (addr + bytes.get() - 1) / self.line_bytes.get();
        let mut missed = Lines::ZERO;
        for l in first..=last {
            if !self.access(l * self.line_bytes.get()) {
                missed += Lines::new(1);
            }
        }
        missed
    }

    /// Drops every line (kernel boundary / invalidation), keeping the
    /// hit/miss/eviction stats. O(1): bumping the generation vacates
    /// every slot without touching the slot arrays. (A u64 generation
    /// cannot wrap in any physically runnable simulation.)
    pub fn flush(&mut self) {
        self.gen = self.gen.wrapping_add(1).max(1);
    }

    /// O(1) logical flush that also zeroes the stats, leaving the cache
    /// observationally identical to a freshly built one. Lets a
    /// multi-megabyte cache model be reused across kernel launches
    /// instead of re-allocated and re-zeroed each time.
    pub fn reset(&mut self) {
        self.flush();
        self.tick = 0;
        self.hits = 0;
        self.misses = 0;
        self.evictions = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn zero_byte_range_is_free() {
        let mut c = cache();
        assert_eq!(c.access_range(1234, Bytes::new(0)), Lines::new(0));
        assert_eq!(c.misses(), 0);
    }
}
