//! Property tests for the memory-model building blocks.

use gh_mem::pagetable::PageTable;
use gh_mem::phys::{Node, PhysMem};
use gh_mem::radix::RadixTable;
use gh_mem::tlb::Tlb;
use gh_units::{Bytes, Pages, Vpn, VpnRange};
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    /// RadixTable must behave exactly like a HashMap under a random
    /// insert/remove/get workload.
    #[test]
    fn radix_matches_hashmap(ops in proptest::collection::vec(
        (0u8..3, 0u64..5000, 0u32..1000), 0..400)) {
        let mut radix = RadixTable::new();
        let mut model: HashMap<u64, u32> = HashMap::new();
        for (op, key, val) in ops {
            match op {
                0 => {
                    prop_assert_eq!(radix.insert(key, val), model.insert(key, val));
                }
                1 => {
                    prop_assert_eq!(radix.remove(key), model.remove(&key));
                }
                _ => {
                    prop_assert_eq!(radix.get(key), model.get(&key));
                }
            }
            prop_assert_eq!(radix.len(), model.len());
        }
    }

    /// Under a random sequence of placement ops (populate, unmap, remap,
    /// unmap_range) and dirty-bit ops (mark_dirty, mark_dirty_range):
    /// residency counters always equal a recount from scratch, the
    /// placement epoch changes whenever some page's `(node, frame)` does,
    /// and the dirty-bit ops never change it. The span-classification
    /// cache is valid only under that epoch rule. An extra bump (remap to
    /// the same node) only costs a cache miss, so it is allowed.
    #[test]
    fn pagetable_residency_is_consistent(ops in proptest::collection::vec(
        (0u8..6, 0u64..200, prop::bool::ANY, 0u64..24), 0..300)) {
        let placement = |pt: &PageTable| -> Vec<Option<(Node, u64)>> {
            (0..224).map(|v| pt.translate(Vpn::new(v)).map(|p| (p.node, p.frame))).collect()
        };
        let mut pt = PageTable::new(4096);
        let mut model: HashMap<u64, Node> = HashMap::new();
        let mut frame = 0u64;
        for (op, vpn, on_gpu, span) in ops {
            let node = if on_gpu { Node::Gpu } else { Node::Cpu };
            let range = VpnRange::new(Vpn::new(vpn), Vpn::new(vpn + span));
            let (before, epoch) = (placement(&pt), pt.placement_epoch());
            match op {
                0 => {
                    model.entry(vpn).or_insert_with(|| {
                        frame += 1;
                        pt.populate(Vpn::new(vpn), node, frame);
                        node
                    });
                }
                1 => {
                    pt.unmap(Vpn::new(vpn));
                    model.remove(&vpn);
                }
                2 => {
                    if model.contains_key(&vpn) {
                        frame += 1;
                        pt.remap(Vpn::new(vpn), node, frame);
                        model.insert(vpn, node);
                    }
                }
                3 => {
                    pt.unmap_range(range);
                    model.retain(|v, _| !(vpn..vpn + span).contains(v));
                }
                4 => pt.mark_dirty(Vpn::new(vpn)),
                _ => pt.mark_dirty_range(range),
            }
            if op >= 4 {
                prop_assert_eq!(pt.placement_epoch(), epoch, "dirty bits are not placement");
            } else if placement(&pt) != before {
                prop_assert_ne!(pt.placement_epoch(), epoch, "op {} moved a page without an epoch bump", op);
            }
            let cpu = model.values().filter(|&&n| n == Node::Cpu).count() as u64;
            let gpu = model.values().filter(|&&n| n == Node::Gpu).count() as u64;
            prop_assert_eq!(pt.resident_pages(Node::Cpu), Pages::new(cpu));
            prop_assert_eq!(pt.resident_pages(Node::Gpu), Pages::new(gpu));
        }
    }

    /// PhysMem usage never exceeds capacity and free+used == capacity.
    #[test]
    fn physmem_accounting_invariants(ops in proptest::collection::vec(
        (prop::bool::ANY, prop::bool::ANY, 1u64..5000), 0..200)) {
        let mut pm = PhysMem::new(Bytes::new(100_000), Bytes::new(50_000), Bytes::new(1_000));
        let mut live: Vec<(Node, Bytes)> = Vec::new();
        for (is_alloc, on_gpu, bytes) in ops {
            let node = if on_gpu { Node::Gpu } else { Node::Cpu };
            if is_alloc {
                if pm.alloc(node, Bytes::new(bytes)).is_ok() {
                    live.push((node, Bytes::new(bytes)));
                }
            } else if let Some(pos) = live.iter().position(|&(n, _)| n == node) {
                let (_, b) = live.swap_remove(pos);
                pm.release(node, b);
            }
            for n in [Node::Cpu, Node::Gpu] {
                prop_assert!(pm.used(n) <= pm.capacity(n));
                prop_assert_eq!(pm.used(n) + pm.free(n), pm.capacity(n));
            }
        }
    }

    /// After fill, a vpn hits until invalidated; after invalidate it
    /// misses. (Single-set stress to force evictions elsewhere.)
    #[test]
    fn tlb_invalidate_is_coherent(vpns in proptest::collection::vec(0u64..10_000, 1..200)) {
        let mut tlb = Tlb::new(4096);
        for &v in &vpns {
            tlb.fill(Vpn::new(v));
            prop_assert!(tlb.lookup(Vpn::new(v)), "fresh fill must hit");
            tlb.invalidate(Vpn::new(v));
            prop_assert!(!tlb.lookup(Vpn::new(v)), "invalidate must remove");
        }
    }

    /// unmap_range removes exactly the populated pages in range.
    #[test]
    fn pagetable_unmap_range_exact(present in proptest::collection::btree_set(0u64..500, 0..200),
                                   lo in 0u64..500, span in 0u64..200) {
        let mut pt = PageTable::new(65536);
        for (i, &v) in present.iter().enumerate() {
            pt.populate(Vpn::new(v), Node::Cpu, i as u64 + 1);
        }
        let hi = lo + span;
        let removed = pt.unmap_range(VpnRange::new(Vpn::new(lo), Vpn::new(hi)));
        let expected: Vec<u64> = present.iter().copied().filter(|&v| v >= lo && v < hi).collect();
        let mut got: Vec<u64> = removed.iter().map(|(v, _)| v.get()).collect();
        got.sort_unstable();
        prop_assert_eq!(got, expected);
        prop_assert_eq!(pt.populated_pages().get() as usize, present.len() - removed.len());
    }
}

proptest! {
    /// The set cache never reports more misses than touches and a
    /// working set within capacity is fully retained across passes.
    #[test]
    fn setcache_retention(lines in 1u64..400, passes in 1u8..5) {
        let mut c = gh_mem::SetCache::new(Bytes::new(1 << 20), Bytes::new(128), 8); // 8192 lines
        for p in 0..passes {
            for i in 0..lines {
                let hit = c.access(i * 128);
                if p > 0 {
                    prop_assert!(hit, "line {i} must be retained (pass {p})");
                }
            }
        }
        prop_assert_eq!(c.misses(), lines);
        prop_assert_eq!(c.hits(), lines * (passes as u64 - 1));
    }

    /// Link cost is monotone in bytes and direction-consistent.
    #[test]
    fn link_cost_monotone(a in 1u64..100_000_000, b in 1u64..100_000_000) {
        use gh_mem::{Direction, Link};
        let mut l = Link::new(375.0, 297.0, 0.55, 850);
        let (lo, hi) = (a.min(b), a.max(b));
        let t_lo = l.bulk(Bytes::new(lo), Direction::H2D);
        let t_hi = l.bulk(Bytes::new(hi), Direction::H2D);
        prop_assert!(t_lo <= t_hi);
        let h2d = l.bulk(Bytes::new(hi), Direction::H2D);
        let d2h = l.bulk(Bytes::new(hi), Direction::D2H);
        prop_assert!(d2h >= h2d, "D2H is the slower direction");
    }
}
