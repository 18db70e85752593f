//! Property tests for the memory-model building blocks.

use gh_mem::pagetable::{PageTable, PlacementRun, Pte};
use gh_mem::phys::{Node, OutOfMemory, PhysMem};
use gh_mem::tlb::Tlb;
use gh_units::{Bytes, PageSize, Pages, Vpn, VpnRange};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// VPN domain of the page-table property: three 2 MiB blocks at 4 KiB
/// pages, so ranges cross two block boundaries.
const DOMAIN: u64 = 3 * 512;

/// Page sizes of the page-table property: a 2 MiB block is 512 pages, 32
/// pages, and one page.
const PAGE_SIZES: [u64; 3] = [4 << 10, 64 << 10, 2 << 20];

proptest! {
    /// Under a random sequence of placement ops (populate, fill a range,
    /// unmap, remap, unmap_range, remap_range) and dirty-bit ops
    /// (mark_dirty, mark_dirty_range) over VPNs spanning three 2 MiB
    /// blocks at 4 KiB pages (512 pages a block), 48 blocks at 64 KiB
    /// pages (32 pages) and 1,536 at 2 MiB pages (one page):
    ///
    /// * residency counters and the range queries `count_resident_in`,
    ///   `translate_range` and `classify_runs` always equal a recount from
    ///   scratch, on the op's range, the whole domain and the middle
    ///   512 pages;
    /// * `remap_range` moves exactly the pages resident on `from`, and
    ///   leaves every entry and frame id as one `remap` per such page
    ///   leaves a twin table; `unmap_range` removes and returns what one
    ///   `unmap` per page would.
    #[test]
    fn pagetable_residency_is_consistent(ops in proptest::collection::vec(
        (0u8..8, 0u64..DOMAIN, prop::bool::ANY, 0u64..700), 0..150)) {
        for page in PAGE_SIZES {
            let entries = |pt: &PageTable| -> Vec<Option<Pte>> {
                (0..DOMAIN).map(|v| pt.translate(Vpn::new(v)).copied()).collect()
            };
            let mut pt = PageTable::new(page);
            // Takes every op as `pt` does, except that `unmap_range` and
            // `remap_range` become one `unmap` or `remap` per page.
            let mut twin = PageTable::new(page);
            let mut model: BTreeMap<u64, Node> = BTreeMap::new();
            let mut frame = 0u64;
            for &(op, vpn, on_gpu, span) in &ops {
                let node = if on_gpu { Node::Gpu } else { Node::Cpu };
                let hi = (vpn + span).min(DOMAIN);
                let range = VpnRange::new(Vpn::new(vpn), Vpn::new(hi));
                match op {
                    0 | 1 => {
                        // One page, or every unpopulated page of the range.
                        let last = if op == 0 { vpn + 1 } else { hi };
                        for v in vpn..last {
                            model.entry(v).or_insert_with(|| {
                                frame += 1;
                                pt.populate(Vpn::new(v), node, frame);
                                twin.populate(Vpn::new(v), node, frame);
                                node
                            });
                        }
                    }
                    2 => {
                        pt.unmap(Vpn::new(vpn));
                        twin.unmap(Vpn::new(vpn));
                        model.remove(&vpn);
                    }
                    3 => {
                        if model.contains_key(&vpn) {
                            frame += 1;
                            pt.remap(Vpn::new(vpn), node, frame);
                            twin.remap(Vpn::new(vpn), node, frame);
                            model.insert(vpn, node);
                        }
                    }
                    4 => {
                        let per_page: Vec<(Vpn, Pte)> = (vpn..hi)
                            .filter_map(|v| twin.unmap(Vpn::new(v)).map(|p| (Vpn::new(v), p)))
                            .collect();
                        prop_assert_eq!(pt.unmap_range(range), per_page);
                        model.retain(|v, _| !(vpn..hi).contains(v));
                    }
                    5 => {
                        let from = node.peer();
                        let on_from: Vec<u64> = model
                            .range(vpn..hi)
                            .filter(|&(_, &n)| n == from)
                            .map(|(&v, _)| v)
                            .collect();
                        let mut moved = Vec::new();
                        let n = pt.remap_range(range, from, node, frame + 1, |v| moved.push(v.get()));
                        prop_assert_eq!(&moved, &on_from);
                        prop_assert_eq!(n, Pages::new(on_from.len() as u64));
                        for v in on_from {
                            frame += 1;
                            twin.remap(Vpn::new(v), node, frame);
                            model.insert(v, node);
                        }
                    }
                    6 => {
                        pt.mark_dirty(Vpn::new(vpn));
                        twin.mark_dirty(Vpn::new(vpn));
                    }
                    _ => {
                        pt.mark_dirty_range(range);
                        twin.mark_dirty_range(range);
                    }
                }
                prop_assert_eq!(entries(&pt), entries(&twin), "op {} diverged from per-page ops", op);
                let cpu = model.values().filter(|&&n| n == Node::Cpu).count() as u64;
                let gpu = model.values().filter(|&&n| n == Node::Gpu).count() as u64;
                prop_assert_eq!(pt.resident_pages(Node::Cpu), Pages::new(cpu));
                prop_assert_eq!(pt.resident_pages(Node::Gpu), Pages::new(gpu));
                let whole = VpnRange::new(Vpn::new(0), Vpn::new(DOMAIN));
                let middle = VpnRange::new(Vpn::new(512), Vpn::new(1024));
                for q in [range, whole, middle] {
                    let states: Vec<Option<Node>> = q.iter().map(|v| model.get(&v.get()).copied()).collect();
                    for n in [Node::Cpu, Node::Gpu] {
                        let count = states.iter().filter(|&&s| s == Some(n)).count() as u64;
                        prop_assert_eq!(pt.count_resident_in(q, n), Pages::new(count), "{} on {:?}", q, n);
                    }
                    let uniform = match states.first() {
                        Some(&Some(n)) if states.iter().all(|&s| s == Some(n)) => Some(n),
                        _ => None,
                    };
                    prop_assert_eq!(pt.translate_range(q), uniform, "{}", q);
                    let mut runs: Vec<PlacementRun> = Vec::new();
                    for (v, s) in q.iter().zip(states) {
                        match runs.last_mut() {
                            Some((r, last)) if *last == s => r.end = v.offset(1),
                            _ => runs.push((VpnRange::new(v, v.offset(1)), s)),
                        }
                    }
                    prop_assert_eq!(pt.classify_runs(q), runs, "{}", q);
                }
            }
        }
    }

    /// `alloc_frames(n)` reserves what `n` one-page `alloc` calls would,
    /// with the same frame ids; when they would not all fit it reserves
    /// nothing and reports the whole request. Frame ids continue after
    /// the run, or where they were.
    #[test]
    fn alloc_frames_matches_one_page_allocs(used in 0u64..60_000, n in 0u64..40,
                                            shift in 8u32..12, on_gpu in prop::bool::ANY,
                                            unified in prop::bool::ANY) {
        let node = if on_gpu { Node::Gpu } else { Node::Cpu };
        let page = PageSize::new(1 << shift);
        let fresh = || {
            let mut pm = if unified {
                PhysMem::new_unified(Bytes::new(80_000), Bytes::new(1_000))
            } else {
                PhysMem::new(Bytes::new(80_000), Bytes::new(50_000), Bytes::new(1_000))
            };
            let _ = pm.alloc(node, Bytes::new(used));
            pm
        };
        let (mut bulk, mut each) = (fresh(), fresh());
        let got = bulk.alloc_frames(node, page, n);
        let ids: Vec<_> = (0..n).map(|_| each.alloc(node, page.bytes())).collect();
        let next = if ids.iter().all(Result::is_ok) {
            let first = got.unwrap();
            let ids: Vec<u64> = ids.into_iter().map(Result::unwrap).collect();
            prop_assert_eq!(ids, (first..first + n).collect::<Vec<_>>());
            prop_assert_eq!(bulk.used(node), each.used(node));
            first + n
        } else {
            let mut untouched = fresh();
            prop_assert_eq!(got, Err(OutOfMemory {
                node,
                requested: Pages::new(n) * page,
                free: untouched.free(node),
            }));
            prop_assert_eq!(bulk.used(node), untouched.used(node));
            untouched.alloc(node, Bytes::ZERO).unwrap()
        };
        prop_assert_eq!(bulk.alloc(node, Bytes::ZERO).unwrap(), next);
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
