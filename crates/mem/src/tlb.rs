//! Set-associative TLB model.
//!
//! Models the GPU's last-level TLB (fed either by the GMMU walking the
//! GPU-exclusive page table or by ATS translations returned by the SMMU).
//! A 4-way set-associative organization with LRU within each set is used —
//! realistic enough to capture capacity behaviour on large working sets
//! while keeping lookup O(ways).
//!
//! Two key spaces share the slots: system-page-table translations
//! ([`tlb_key_sys`], the ATS path) and GPU-exclusive-table translations
//! ([`tlb_key_gpu`], 2 MiB grain). The TLB counts its live system-space
//! entries, so a migration can skip its per-page shootdown probes while
//! none can hit.

use gh_units::{narrow, widen, Vpn, VpnRange};

/// Namespace bit of GPU-exclusive-table keys.
const GPU_SPACE: u64 = 1 << 63;

/// TLB key of a system-page-table translation.
pub fn tlb_key_sys(vpn: Vpn) -> Vpn {
    vpn
}

/// TLB key of a GPU-exclusive-page-table translation (2 MiB-grain
/// entries).
pub fn tlb_key_gpu(vpn: Vpn) -> Vpn {
    // gh-audit: allow(unit-launder) -- sets a namespace bit on a VPN; the value stays a VPN
    Vpn::new(vpn.get() | GPU_SPACE)
}

/// Whether `tag` is a live system-space key (the vacant tag has the
/// namespace bit set, so it is not).
fn is_sys(tag: u64) -> bool {
    tag & GPU_SPACE == 0
}

/// One TLB way: the cached translation tag plus its LRU stamp.
#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: u64,
    stamp: u64,
}

const EMPTY: u64 = u64::MAX;

impl Slot {
    const VACANT: Slot = Slot {
        tag: EMPTY,
        stamp: 0,
    };
}

/// A set-associative translation lookaside buffer over virtual page
/// numbers. Stores only presence (the simulator keeps PTE payloads in the
/// page tables); the TLB's job in the cost model is hit/miss accounting.
#[derive(Debug, Clone)]
pub struct Tlb {
    ways: usize,
    sets: usize,
    /// `sets × ways` slots; `tag == u64::MAX` means empty.
    slots: Vec<Slot>,
    /// Slots holding a system-space key.
    sys_live: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    bus: gh_trace::Bus,
    perf: gh_perf::Perf,
}

impl Tlb {
    /// Creates a TLB with approximately `entries` capacity, 4-way
    /// set-associative. `entries` is rounded to a power-of-two set count.
    /// Observability is off until [`Tlb::with_obs`] injects the session's
    /// handles.
    pub fn new(entries: usize) -> Self {
        let ways = 4usize;
        let sets = (entries / ways).next_power_of_two().max(1);
        Self {
            ways,
            sets,
            slots: vec![Slot::VACANT; sets * ways],
            sys_live: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            bus: gh_trace::Bus::off(),
            perf: gh_perf::Perf::off(),
        }
    }

    /// Attaches the owning session's observability handles. Recording is
    /// report-only: attached or not, the TLB's hit/miss/evict decisions
    /// are bit-identical.
    pub fn with_obs(mut self, bus: gh_trace::Bus, perf: gh_perf::Perf) -> Self {
        self.bus = bus;
        self.perf = perf;
        self
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }

    /// Cumulative hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cumulative miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Live system-space entries ([`tlb_key_sys`] keys). While it is 0,
    /// invalidating a system-space key is a no-op.
    pub fn sys_entries(&self) -> usize {
        self.sys_live
    }

    fn set_of(&self, tag: u64) -> usize {
        // Multiplicative hash spreads sequential VPNs across sets while
        // staying deterministic.
        narrow(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) & (self.sets - 1)
    }

    /// Looks up `vpn`; returns true on hit. Misses do **not** insert — the
    /// caller decides (after walking the page table) whether to `fill`.
    pub fn lookup(&mut self, vpn: Vpn) -> bool {
        self.perf.count(gh_perf::Ctr::TlbWalks, 1);
        let tag = vpn.get();
        self.tick = self.tick.saturating_add(1);
        let base = self.set_of(tag) * self.ways;
        for w in 0..self.ways {
            let slot = &mut self.slots[base + w];
            if slot.tag == tag {
                slot.stamp = self.tick;
                self.hits = self.hits.saturating_add(1);
                return true;
            }
        }
        self.perf.count(gh_perf::Ctr::TlbMisses, 1);
        self.misses = self.misses.saturating_add(1);
        false
    }

    /// Inserts a translation for `vpn`, evicting the LRU way of its set if
    /// needed.
    pub fn fill(&mut self, vpn: Vpn) {
        let tag = vpn.get();
        self.tick = self.tick.saturating_add(1);
        let base = self.set_of(tag) * self.ways;
        let mut victim = base;
        let mut oldest = u64::MAX;
        for w in 0..self.ways {
            let slot = &self.slots[base + w];
            if slot.tag == tag {
                // Already present; refresh.
                self.slots[base + w].stamp = self.tick;
                return;
            }
            if slot.tag == EMPTY {
                victim = base + w;
                oldest = 0;
            } else if slot.stamp < oldest {
                victim = base + w;
                oldest = slot.stamp;
            }
        }
        self.replace(victim, tag);
    }

    /// Batched equivalent of `for v in keys { if !lookup(v) { fill(v) } }`:
    /// walks every key in `keys`, filling on miss, and returns the miss
    /// count.
    ///
    /// The per-slot state machine (tick advance on lookup and on fill, LRU
    /// stamps, victim choice, `TlbEvict` trace events in key order) is
    /// bit-identical to the per-key calls; only the perf counters and the
    /// hit/miss statistics are charged once per run instead of once per
    /// key.
    pub fn lookup_range(&mut self, keys: VpnRange) -> u64 {
        let n = keys.count().get();
        if n == 0 {
            return 0;
        }
        let mut misses: u64 = 0;
        for vpn in keys {
            if !self.walk(vpn.get()) {
                misses = misses.saturating_add(1);
            }
        }
        self.charge(n, misses);
        misses
    }

    /// Batched equivalent of `n` consecutive `if !lookup(v) { fill(v) }`
    /// on one key: the first may miss and fill, the other `n - 1` hit the
    /// slot it left. Ticks, the final LRU stamp, trace events and every
    /// count are those of the `n` calls. Returns the miss count (0 or 1).
    pub fn lookup_repeat(&mut self, vpn: Vpn, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        let tag = vpn.get();
        let misses = u64::from(!self.walk(tag));
        let again = n - 1;
        if again > 0 {
            self.tick = self.tick.saturating_add(again);
            let base = self.set_of(tag) * self.ways;
            if let Some(slot) = self.slots[base..base + self.ways]
                .iter_mut()
                .find(|s| s.tag == tag)
            {
                slot.stamp = self.tick;
            }
        }
        self.charge(n, misses);
        misses
    }

    /// One `lookup` + fill-on-miss step without the statistics: returns
    /// whether `tag` hit. A miss goes straight to victim selection (the
    /// tag is known absent), with `fill`'s exact tick, victim and trace
    /// behaviour.
    fn walk(&mut self, tag: u64) -> bool {
        self.tick = self.tick.saturating_add(1);
        let base = self.set_of(tag) * self.ways;
        for w in 0..self.ways {
            let slot = &mut self.slots[base + w];
            if slot.tag == tag {
                slot.stamp = self.tick;
                return true;
            }
        }
        self.tick = self.tick.saturating_add(1);
        let mut victim = base;
        let mut oldest = u64::MAX;
        for w in 0..self.ways {
            let slot = &self.slots[base + w];
            if slot.tag == EMPTY {
                victim = base + w;
                oldest = 0;
            } else if slot.stamp < oldest {
                victim = base + w;
                oldest = slot.stamp;
            }
        }
        self.replace(victim, tag);
        false
    }

    /// Puts `tag` into slot `victim` at the current tick, emitting the
    /// eviction of the tag it held.
    fn replace(&mut self, victim: usize, tag: u64) {
        let evicted = self.slots[victim].tag;
        if evicted != EMPTY {
            self.bus.emit(gh_trace::Event::TlbEvict { va: evicted });
            self.bus.count("tlb.evictions", 1);
        }
        self.sys_live = self.sys_live - usize::from(is_sys(evicted)) + usize::from(is_sys(tag));
        self.slots[victim] = Slot {
            tag,
            stamp: self.tick,
        };
    }

    /// Charges `walks` lookups with `misses` misses to the statistics
    /// and the perf counters.
    fn charge(&mut self, walks: u64, misses: u64) {
        self.perf.count(gh_perf::Ctr::TlbWalks, walks);
        self.hits = self.hits.saturating_add(walks.saturating_sub(misses));
        self.misses = self.misses.saturating_add(misses);
        if misses > 0 {
            self.perf.count(gh_perf::Ctr::TlbMisses, misses);
        }
    }

    /// Invalidates a single translation (TLB shootdown on unmap/migrate).
    pub fn invalidate(&mut self, vpn: Vpn) {
        let tag = vpn.get();
        let base = self.set_of(tag) * self.ways;
        for w in 0..self.ways {
            if self.slots[base + w].tag == tag {
                self.slots[base + w] = Slot::VACANT;
                self.sys_live -= usize::from(is_sys(tag));
                return;
            }
        }
    }

    /// Invalidates every translation in the VPN range.
    pub fn invalidate_range(&mut self, vpns: VpnRange) {
        // For huge ranges a full flush is cheaper than per-VPN probes,
        // mirroring what real kernels do for large shootdowns.
        if vpns.count().get() > widen(self.capacity()) * 4 {
            self.flush();
            return;
        }
        for v in vpns {
            self.invalidate(v);
        }
    }

    /// Drops every translation.
    pub fn flush(&mut self) {
        self.slots.fill(Slot::VACANT);
        self.sys_live = 0;
    }

    /// Resets hit/miss statistics (used between kernel launches).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn v(n: u64) -> Vpn {
        Vpn::new(n)
    }

    fn r(lo: u64, hi: u64) -> VpnRange {
        VpnRange::new(v(lo), v(hi))
    }

    #[test]
    fn capacity_rounds_to_power_of_two_sets() {
        let t = Tlb::new(3000);
        assert!(t.capacity() >= 3000);
        assert_eq!(t.capacity() % 4, 0);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut t = Tlb::new(64);
        assert!(!t.lookup(v(42)));
        t.fill(v(42));
        assert!(t.lookup(v(42)));
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 1);
    }

    #[test]
    fn invalidate_removes_translation() {
        let mut t = Tlb::new(64);
        t.fill(v(7));
        assert!(t.lookup(v(7)));
        t.invalidate(v(7));
        assert!(!t.lookup(v(7)));
    }

    #[test]
    fn lru_evicts_oldest_within_set() {
        let mut t = Tlb::new(4); // 1 set × 4 ways after rounding
        assert_eq!(t.capacity(), 4);
        // Find 5 vpns mapping to set 0 (all do: only one set).
        for n in 0..4u64 {
            t.fill(v(n));
        }
        // Touch 1..4 so 0 is LRU.
        for n in 1..4u64 {
            assert!(t.lookup(v(n)));
        }
        t.fill(v(100));
        assert!(!t.lookup(v(0)), "LRU entry must have been evicted");
        assert!(t.lookup(v(100)));
    }

    #[test]
    fn fill_is_idempotent() {
        let mut t = Tlb::new(16);
        t.fill(v(9));
        t.fill(v(9));
        assert!(t.lookup(v(9)));
        t.invalidate(v(9));
        assert!(!t.lookup(v(9)), "single invalidate removes both fills");
    }

    #[test]
    fn flush_clears_everything() {
        let mut t = Tlb::new(64);
        for n in 0..32 {
            t.fill(v(n));
        }
        t.flush();
        for n in 0..32 {
            assert!(!t.lookup(v(n)));
        }
    }

    #[test]
    fn invalidate_range_small_and_large() {
        let mut t = Tlb::new(16);
        for n in 0..8 {
            t.fill(v(n));
        }
        t.invalidate_range(r(0, 4));
        assert!(!t.lookup(v(1)));
        assert!(t.lookup(v(5)));
        // Very large range triggers the full-flush path.
        t.invalidate_range(r(0, 1_000_000));
        assert!(!t.lookup(v(5)));
    }

    #[test]
    fn working_set_larger_than_capacity_mostly_misses() {
        let mut t = Tlb::new(64);
        // Stream 10× the capacity twice; second pass should still miss a lot.
        for n in 0..640u64 {
            if !t.lookup(v(n)) {
                t.fill(v(n));
            }
        }
        let m1 = t.misses();
        t.reset_stats();
        for n in 0..640u64 {
            if !t.lookup(v(n)) {
                t.fill(v(n));
            }
        }
        assert_eq!(m1, 640);
        assert!(
            t.misses() > 300,
            "streaming working set must keep missing, got {}",
            t.misses()
        );
    }

    #[test]
    fn lookup_range_matches_per_key_sequence() {
        let mut per_key = Tlb::new(16); // tiny: forces evictions
        let mut batched = Tlb::new(16);
        // Overlapping streams so the batch sees hits, misses, and LRU
        // evictions; interleave single-key ops to check state carries over.
        let ranges = [r(0, 40), r(20, 60), r(0, 8), r(55, 90), (r(0, 0))];
        for vr in ranges {
            let mut expect: u64 = 0;
            for v in vr {
                if !per_key.lookup(v) {
                    per_key.fill(v);
                    expect += 1;
                }
            }
            assert_eq!(batched.lookup_range(vr), expect);
            per_key.invalidate(v(5));
            batched.invalidate(v(5));
        }
        assert_eq!(per_key.hits(), batched.hits());
        assert_eq!(per_key.misses(), batched.misses());
        // Identical internal state: every key agrees on hit/miss from here.
        for n in 0..100u64 {
            assert_eq!(per_key.lookup(v(n)), batched.lookup(v(n)), "key {n}");
        }
    }

    #[test]
    fn lookup_repeat_matches_per_key_sequence() {
        let mut per_key = Tlb::new(8); // 2 sets × 4 ways: forces evictions
        let mut batched = Tlb::new(8);
        for (key, n) in [
            (3, 1),
            (3, 4),
            (9, 2),
            (17, 1),
            (3, 3),
            (25, 5),
            (33, 1),
            (0, 0),
        ] {
            let mut expect = 0;
            for _ in 0..n {
                if !per_key.lookup(v(key)) {
                    per_key.fill(v(key));
                    expect += 1;
                }
            }
            assert_eq!(batched.lookup_repeat(v(key), n), expect, "key {key} × {n}");
        }
        assert_eq!(per_key.hits(), batched.hits());
        assert_eq!(per_key.misses(), batched.misses());
        assert_eq!(per_key.tick, batched.tick);
        for n in 0..40u64 {
            assert_eq!(per_key.lookup(v(n)), batched.lookup(v(n)), "key {n}");
        }
    }

    /// Slots holding a system-space key, recounted slot by slot.
    fn recount(t: &Tlb) -> usize {
        t.slots.iter().filter(|s| is_sys(s.tag)).count()
    }

    #[test]
    fn sys_entries_count_only_system_space_keys() {
        let mut t = Tlb::new(8);
        t.fill(tlb_key_sys(v(3)));
        t.fill(tlb_key_gpu(v(3)));
        assert!(t.lookup(tlb_key_gpu(v(3))));
        assert_eq!(t.sys_entries(), 1);
        t.invalidate(tlb_key_gpu(v(3)));
        assert_eq!(t.sys_entries(), 1);
        t.invalidate(tlb_key_sys(v(3)));
        assert_eq!(t.sys_entries(), 0);
        assert!(!t.lookup(tlb_key_sys(v(3))));
    }

    proptest! {
        /// After any mix of fills, range and repeat lookups,
        /// invalidations and flushes over both key spaces, the live
        /// system-space count equals a recount of the slots.
        #[test]
        fn sys_entries_match_a_recount(ops in proptest::collection::vec(
            (0u8..7, 0u64..64, 0u64..24, proptest::bool::ANY), 0..200)) {
            let mut t = Tlb::new(16);
            for (op, key, n, gpu) in ops {
                let k = |x: u64| if gpu { tlb_key_gpu(v(x)) } else { tlb_key_sys(v(x)) };
                match op {
                    0 => t.fill(k(key)),
                    1 => {
                        t.lookup_range(VpnRange::new(k(key), k(key + n)));
                    }
                    2 => {
                        t.lookup_repeat(k(key), n);
                    }
                    3 => t.invalidate(k(key)),
                    // Past 64 keys (4 × capacity) this is a whole flush.
                    4 => t.invalidate_range(VpnRange::new(k(key), k(key + 4 * n))),
                    5 => t.flush(),
                    _ => {
                        t.lookup(k(key));
                    }
                }
                prop_assert_eq!(t.sys_entries(), recount(&t), "op {}", op);
            }
        }
    }

    #[test]
    fn small_working_set_hits_on_repeat() {
        let mut t = Tlb::new(256);
        for _ in 0..3 {
            for n in 0..100u64 {
                if !t.lookup(v(n)) {
                    t.fill(v(n));
                }
            }
        }
        assert_eq!(t.misses(), 100);
        assert_eq!(t.hits(), 200);
    }
}
