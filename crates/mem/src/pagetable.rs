//! Page tables.
//!
//! Two instances of [`PageTable`] model the GH200's two tables:
//!
//! * the **system-wide page table** (CPU-resident, managed by the OS,
//!   walked by the SMMU for both CPU accesses and GPU ATS requests), with
//!   the system page size (4 KiB or 64 KiB on Grace); its pages may be
//!   physically located on either node;
//! * the **GPU-exclusive page table** (GPU-resident, only visible to the
//!   GMMU), with 2 MiB pages, holding `cudaMalloc` allocations and managed
//!   pages whose current physical location is GPU memory.
//!
//! Entries are keyed by virtual page number (`vaddr / page_size`).

use crate::phys::Node;
use crate::radix::{self, RadixTable};
use gh_units::{widen, Bytes, PageSize, Pages, Vpn, VpnRange};

/// One maximal run of pages sharing a placement state: `Some(node)` when
/// every page is populated and resident on `node`, `None` when every page
/// is unpopulated.
pub type PlacementRun = (VpnRange, Option<Node>);

/// A page table entry: where the page physically lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// NUMA node holding the frame.
    pub node: Node,
    /// Opaque frame id from [`crate::phys::PhysMem`].
    pub frame: u64,
    /// Set when the page has been written since population (used to decide
    /// whether eviction must copy data back).
    pub dirty: bool,
}

/// A single page table with fixed page size.
#[derive(Debug, Clone)]
pub struct PageTable {
    page: PageSize,
    entries: RadixTable<Pte>,
    resident: [Pages; 2], // pages per node
    /// Per-leaf populated-page counts per node, keyed by radix leaf index.
    /// Lets range queries answer a uniform fully-resident leaf in O(1)
    /// without touching the 512 slots.
    #[expect(clippy::disallowed_types, reason = "keyed lookup only; never iterated")]
    summary: std::collections::HashMap<u64, [u32; 2]>,
    /// Bumped on every placement change (populate/unmap/remap — not
    /// `mark_dirty`, which doesn't move pages). Callers cache
    /// classification results keyed on this.
    epoch: u64,
}

impl PageTable {
    /// Creates an empty table with the given page size (must be a power of
    /// two).
    pub fn new(page_size: u64) -> Self {
        Self {
            page: PageSize::new(page_size),
            entries: RadixTable::new(),
            resident: [Pages::ZERO, Pages::ZERO],
            summary: Default::default(),
            epoch: 0,
        }
    }

    /// Monotonic placement version: changes iff some page was populated,
    /// unmapped, or remapped since the last observation.
    pub fn placement_epoch(&self) -> u64 {
        self.epoch
    }

    /// The table's page size in bytes.
    pub fn page_size(&self) -> u64 {
        self.page.get()
    }

    /// The table's page size as a typed unit.
    pub fn page(&self) -> PageSize {
        self.page
    }

    /// Virtual page number containing `vaddr`.
    pub fn vpn(&self, vaddr: u64) -> Vpn {
        self.page.vpn(vaddr)
    }

    /// Inclusive-exclusive VPN range covering `[vaddr, vaddr + len)`.
    pub fn vpn_range(&self, vaddr: u64, len: u64) -> VpnRange {
        if len == 0 {
            return VpnRange::empty(self.vpn(vaddr));
        }
        VpnRange::new(self.vpn(vaddr), self.vpn(vaddr + len - 1).offset(1))
    }

    /// Looks up the entry for `vpn`.
    pub fn translate(&self, vpn: Vpn) -> Option<&Pte> {
        self.entries.get(vpn.get())
    }

    /// Whether `vpn` has a populated entry.
    pub fn is_populated(&self, vpn: Vpn) -> bool {
        self.entries.get(vpn.get()).is_some()
    }

    /// Installs a fresh entry mapping `vpn` to a frame on `node`.
    ///
    /// Panics if the page is already populated — the OS/driver must unmap
    /// first; double population is always a simulator bug.
    pub fn populate(&mut self, vpn: Vpn, node: Node, frame: u64) {
        let old = self.entries.insert(
            vpn.get(),
            Pte {
                node,
                frame,
                dirty: false,
            },
        );
        assert!(old.is_none(), "double population of {vpn}");
        self.resident[node_idx(node)] += Pages::new(1);
        let c = self
            .summary
            .entry(radix::leaf_index(vpn.get()))
            .or_insert([0u32; 2]);
        c[node_idx(node)] = c[node_idx(node)].saturating_add(1);
        self.epoch = self.epoch.saturating_add(1);
    }

    /// Removes the entry for `vpn`, returning it.
    pub fn unmap(&mut self, vpn: Vpn) -> Option<Pte> {
        let pte = self.entries.remove(vpn.get());
        if let Some(p) = pte {
            self.resident[node_idx(p.node)] -= Pages::new(1);
            let idx = radix::leaf_index(vpn.get());
            if let Some(c) = self.summary.get_mut(&idx) {
                c[node_idx(p.node)] = c[node_idx(p.node)].saturating_sub(1);
                if c[0] == 0 && c[1] == 0 {
                    self.summary.remove(&idx);
                }
            }
            self.epoch = self.epoch.saturating_add(1);
        }
        pte
    }

    /// Rewrites the entry for `vpn` to point at `node`/`frame` (migration).
    /// Returns the old entry. Panics if the page was not populated.
    pub fn remap(&mut self, vpn: Vpn, node: Node, frame: u64) -> Pte {
        #[expect(
            clippy::panic,
            reason = "remap of an unpopulated page is a simulator logic error"
        )]
        let e = self
            .entries
            .get_mut(vpn.get())
            .unwrap_or_else(|| panic!("remap of unpopulated {vpn}"));
        let old = *e;
        self.resident[node_idx(old.node)] -= Pages::new(1);
        self.resident[node_idx(node)] += Pages::new(1);
        e.node = node;
        e.frame = frame;
        e.dirty = false;
        if let Some(c) = self.summary.get_mut(&radix::leaf_index(vpn.get())) {
            c[node_idx(old.node)] = c[node_idx(old.node)].saturating_sub(1);
            c[node_idx(node)] = c[node_idx(node)].saturating_add(1);
        }
        self.epoch = self.epoch.saturating_add(1);
        old
    }

    /// Moves every page of `vpns` resident on `from` to `to`: the moved
    /// pages get frames `first_frame`, `first_frame + 1`, ... in ascending
    /// VPN order, and `moved` sees each one. Entries, frames and epoch end
    /// up as under one [`PageTable::remap`] per page, at one summary and
    /// one directory probe per leaf. Returns the number of pages moved.
    pub fn remap_range(
        &mut self,
        vpns: VpnRange,
        from: Node,
        to: Node,
        first_frame: u64,
        mut moved: impl FnMut(Vpn),
    ) -> Pages {
        let (lo, hi) = (vpns.start.get(), vpns.end.get());
        let mut frame = first_frame;
        let mut k = lo;
        while k < hi {
            let idx = radix::leaf_index(k);
            let base = idx << radix::LEAF_BITS;
            let end = hi.min(base + widen(radix::LEAF_LEN));
            // A leaf with nothing on `from` is skipped on its summary alone.
            if let Some(c) = self.summary.get_mut(&idx).filter(|c| c[node_idx(from)] > 0) {
                if let Some(leaf) = self.entries.leaf_mut(idx) {
                    let mut n = 0u32;
                    for i in (k - base)..(end - base) {
                        if let Some(pte) = leaf[i as usize].as_mut().filter(|p| p.node == from) {
                            *pte = Pte {
                                node: to,
                                frame,
                                dirty: false,
                            };
                            frame += 1;
                            n += 1;
                            moved(Vpn::new(base + i));
                        }
                    }
                    c[node_idx(from)] = c[node_idx(from)].saturating_sub(n);
                    c[node_idx(to)] = c[node_idx(to)].saturating_add(n);
                }
            }
            k = end;
        }
        let n = Pages::new(frame - first_frame);
        self.resident[node_idx(from)] -= n;
        self.resident[node_idx(to)] += n;
        self.epoch = self.epoch.saturating_add(n.get());
        n
    }

    /// Marks `vpn` dirty (a write hit the page). No-op if unpopulated.
    pub fn mark_dirty(&mut self, vpn: Vpn) {
        if let Some(e) = self.entries.get_mut(vpn.get()) {
            e.dirty = true;
        }
    }

    /// Number of populated pages resident on `node`.
    pub fn resident_pages(&self, node: Node) -> Pages {
        self.resident[node_idx(node)]
    }

    /// Bytes resident on `node` (pages × page size).
    pub fn resident_bytes(&self, node: Node) -> Bytes {
        self.resident_pages(node) * self.page
    }

    /// Total populated pages.
    pub fn populated_pages(&self) -> Pages {
        Pages::new(widen(self.entries.len()))
    }

    /// Counts populated pages in `vpns` residing on `node`.
    ///
    /// Leaves fully covered by the range are answered from the per-leaf
    /// summary in O(1); only boundary leaves are scanned.
    pub fn count_resident_in(&self, vpns: VpnRange, node: Node) -> Pages {
        let (lo, hi) = (vpns.start.get(), vpns.end.get());
        let mut total: u64 = 0;
        let mut k = lo;
        while k < hi {
            let idx = radix::leaf_index(k);
            let base = idx << radix::LEAF_BITS;
            let end = hi.min(base + widen(radix::LEAF_LEN));
            if let Some(c) = self.summary.get(&idx) {
                if k == base && end == base + widen(radix::LEAF_LEN) {
                    total = total.saturating_add(u64::from(c[node_idx(node)]));
                } else if let Some(leaf) = self.entries.leaf(idx) {
                    for i in (k - base)..(end - base) {
                        if leaf[i as usize].is_some_and(|pte| pte.node == node) {
                            total = total.saturating_add(1);
                        }
                    }
                }
            }
            k = end;
        }
        Pages::new(total)
    }

    /// If every page in `vpns` is populated and resident on one node,
    /// returns that node. Mixed, partially populated, and empty ranges
    /// return `None`. Uniform fully-covered leaves are answered from the
    /// summary without touching their slots.
    pub fn translate_range(&self, vpns: VpnRange) -> Option<Node> {
        let (lo, hi) = (vpns.start.get(), vpns.end.get());
        if lo >= hi {
            return None;
        }
        let mut uniform: Option<Node> = None;
        let mut k = lo;
        while k < hi {
            let idx = radix::leaf_index(k);
            let base = idx << radix::LEAF_BITS;
            let end = hi.min(base + widen(radix::LEAF_LEN));
            let c = self.summary.get(&idx)?;
            let full = k == base && end == base + widen(radix::LEAF_LEN);
            let leaf_node = if full && u64::from(c[node_idx(Node::Cpu)]) == widen(radix::LEAF_LEN) {
                Node::Cpu
            } else if full && u64::from(c[node_idx(Node::Gpu)]) == widen(radix::LEAF_LEN) {
                Node::Gpu
            } else {
                let leaf = self.entries.leaf(idx)?;
                let mut node: Option<Node> = None;
                for i in (k - base)..(end - base) {
                    match (leaf[i as usize], node) {
                        (None, _) => return None,
                        (Some(pte), None) => node = Some(pte.node),
                        (Some(pte), Some(n)) if pte.node != n => return None,
                        _ => {}
                    }
                }
                node?
            };
            match uniform {
                None => uniform = Some(leaf_node),
                Some(n) if n != leaf_node => return None,
                _ => {}
            }
            k = end;
        }
        uniform
    }

    /// Classifies `vpns` into maximal [`PlacementRun`]s in ascending
    /// address order: `Some(node)` runs are populated-and-resident on that
    /// node, `None` runs are unpopulated. Uniform fully-covered leaves are
    /// classified from the summary in O(1); mixed leaves are scanned once.
    pub fn classify_runs(&self, vpns: VpnRange) -> Vec<PlacementRun> {
        let (lo, hi) = (vpns.start.get(), vpns.end.get());
        let mut runs: Vec<PlacementRun> = Vec::new();
        fn push(runs: &mut Vec<PlacementRun>, start: u64, end: u64, state: Option<Node>) {
            if let Some((vr, s)) = runs.last_mut() {
                if *s == state && vr.end.get() == start {
                    vr.end = Vpn::new(end);
                    return;
                }
            }
            runs.push((VpnRange::new(Vpn::new(start), Vpn::new(end)), state));
        }
        let mut k = lo;
        while k < hi {
            let idx = radix::leaf_index(k);
            let base = idx << radix::LEAF_BITS;
            let end = hi.min(base + widen(radix::LEAF_LEN));
            let full = k == base && end == base + widen(radix::LEAF_LEN);
            match self.summary.get(&idx) {
                None => push(&mut runs, k, end, None),
                Some(c) if full && u64::from(c[node_idx(Node::Cpu)]) == widen(radix::LEAF_LEN) => {
                    push(&mut runs, k, end, Some(Node::Cpu));
                }
                Some(c) if full && u64::from(c[node_idx(Node::Gpu)]) == widen(radix::LEAF_LEN) => {
                    push(&mut runs, k, end, Some(Node::Gpu));
                }
                Some(_) => {
                    let leaf = self.entries.leaf(idx);
                    for key in k..end {
                        let state = leaf.and_then(|l| l[(key - base) as usize].map(|pte| pte.node));
                        push(&mut runs, key, key + 1, state);
                    }
                }
            }
            k = end;
        }
        runs
    }

    /// Marks every populated page in `vpns` dirty (batched
    /// [`PageTable::mark_dirty`]).
    pub fn mark_dirty_range(&mut self, vpns: VpnRange) {
        self.entries
            .for_each_in_range_mut(vpns.start.get(), vpns.end.get(), |_, e| e.dirty = true);
    }

    /// Unmaps every populated page in the VPN range, returning the removed
    /// entries in ascending VPN order (for frame release). Works a leaf at
    /// a time: one summary update per leaf and one epoch bump of the
    /// number of pages removed, as one [`PageTable::unmap`] per page
    /// would leave it.
    pub fn unmap_range(&mut self, vpns: VpnRange) -> Vec<(Vpn, Pte)> {
        let (lo, hi) = (vpns.start.get(), vpns.end.get());
        let mut removed = Vec::new();
        let mut k = lo;
        while k < hi {
            let idx = radix::leaf_index(k);
            let base = idx << radix::LEAF_BITS;
            let end = hi.min(base + widen(radix::LEAF_LEN));
            if let Some(c) = self.summary.get_mut(&idx) {
                let mut gone = [0u32; 2];
                self.entries.drain_range(k, end, |key, pte| {
                    gone[node_idx(pte.node)] += 1;
                    removed.push((Vpn::new(key), pte));
                });
                for (i, g) in gone.into_iter().enumerate() {
                    c[i] = c[i].saturating_sub(g);
                    self.resident[i] -= Pages::new(u64::from(g));
                }
                if c[0] == 0 && c[1] == 0 {
                    self.summary.remove(&idx);
                }
            }
            k = end;
        }
        self.epoch = self.epoch.saturating_add(widen(removed.len()));
        removed
    }
}

fn node_idx(n: Node) -> usize {
    match n {
        Node::Cpu => 0,
        Node::Gpu => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::KIB;

    fn v(n: u64) -> Vpn {
        Vpn::new(n)
    }

    fn r(lo: u64, hi: u64) -> VpnRange {
        VpnRange::new(v(lo), v(hi))
    }

    fn table() -> PageTable {
        PageTable::new(4 * KIB)
    }

    #[test]
    fn vpn_math() {
        let t = table();
        assert_eq!(t.vpn(0), v(0));
        assert_eq!(t.vpn(4095), v(0));
        assert_eq!(t.vpn(4096), v(1));
        assert_eq!(t.vpn_range(0, 4096), r(0, 1));
        assert_eq!(t.vpn_range(0, 4097), r(0, 2));
        assert_eq!(t.vpn_range(100, 0), r(0, 0));
        assert_eq!(t.vpn_range(4000, 200), r(0, 2));
    }

    #[test]
    fn populate_translate_unmap() {
        let mut t = table();
        t.populate(v(5), Node::Gpu, 77);
        let pte = t.translate(v(5)).unwrap();
        assert_eq!(pte.node, Node::Gpu);
        assert_eq!(pte.frame, 77);
        assert!(!pte.dirty);
        let removed = t.unmap(v(5)).unwrap();
        assert_eq!(removed.frame, 77);
        assert!(t.translate(v(5)).is_none());
    }

    #[test]
    #[should_panic(expected = "double population")]
    fn double_populate_panics() {
        let mut t = table();
        t.populate(v(1), Node::Cpu, 1);
        t.populate(v(1), Node::Cpu, 2);
    }

    #[test]
    fn residency_accounting() {
        let mut t = table();
        t.populate(v(0), Node::Cpu, 1);
        t.populate(v(1), Node::Cpu, 2);
        t.populate(v(2), Node::Gpu, 3);
        assert_eq!(t.resident_pages(Node::Cpu), Pages::new(2));
        assert_eq!(t.resident_pages(Node::Gpu), Pages::new(1));
        assert_eq!(t.resident_bytes(Node::Cpu), Bytes::new(8 * KIB));
        t.unmap(v(0));
        assert_eq!(t.resident_pages(Node::Cpu), Pages::new(1));
    }

    #[test]
    fn remap_moves_residency() {
        let mut t = table();
        t.populate(v(9), Node::Cpu, 10);
        t.mark_dirty(v(9));
        let old = t.remap(v(9), Node::Gpu, 42);
        assert_eq!(old.node, Node::Cpu);
        assert!(old.dirty);
        let new = t.translate(v(9)).unwrap();
        assert_eq!(new.node, Node::Gpu);
        assert_eq!(new.frame, 42);
        assert!(!new.dirty, "remap resets dirty");
        assert_eq!(t.resident_pages(Node::Cpu), Pages::new(0));
        assert_eq!(t.resident_pages(Node::Gpu), Pages::new(1));
    }

    #[test]
    #[should_panic(expected = "unpopulated")]
    fn remap_unpopulated_panics() {
        let mut t = table();
        t.remap(v(1), Node::Gpu, 1);
    }

    #[test]
    fn count_and_remap_by_node() {
        let mut t = table();
        for n in 0..10 {
            t.populate(v(n), if n % 2 == 0 { Node::Cpu } else { Node::Gpu }, n);
        }
        assert_eq!(t.count_resident_in(r(0, 10), Node::Cpu), Pages::new(5));
        assert_eq!(t.count_resident_in(r(3, 5), Node::Gpu), Pages::new(1));
        let mut moved = Vec::new();
        let n = t.remap_range(r(2, 10), Node::Gpu, Node::Cpu, 100, |v| moved.push(v));
        assert_eq!(n, Pages::new(4));
        assert_eq!(moved, vec![v(3), v(5), v(7), v(9)]);
        assert_eq!(t.translate(v(7)).unwrap().frame, 102);
        assert_eq!(
            t.translate(v(1)).unwrap().node,
            Node::Gpu,
            "outside the range"
        );
        assert_eq!(t.count_resident_in(r(0, 10), Node::Cpu), Pages::new(9));
    }

    #[test]
    fn unmap_range_returns_entries() {
        let mut t = table();
        for n in 0..8 {
            t.populate(v(n), Node::Cpu, 100 + n);
        }
        let removed = t.unmap_range(r(2, 6));
        assert_eq!(removed.len(), 4);
        assert_eq!(t.populated_pages(), Pages::new(4));
        assert!(t.translate(v(3)).is_none());
        assert!(t.translate(v(6)).is_some());
    }

    #[test]
    fn classify_runs_splits_by_state() {
        let mut t = table();
        // [0,3) on CPU, [3,5) unpopulated, [5,8) on GPU.
        for n in 0..3 {
            t.populate(v(n), Node::Cpu, n);
        }
        for n in 5..8 {
            t.populate(v(n), Node::Gpu, n);
        }
        assert_eq!(
            t.classify_runs(r(0, 8)),
            vec![
                (r(0, 3), Some(Node::Cpu)),
                (r(3, 5), None),
                (r(5, 8), Some(Node::Gpu)),
            ]
        );
        assert_eq!(t.classify_runs(r(1, 2)), vec![(r(1, 2), Some(Node::Cpu))]);
        assert!(t.classify_runs(r(4, 4)).is_empty());
    }

    #[test]
    fn classify_runs_merges_across_leaf_boundaries() {
        let mut t = table();
        // Leaf 0 fully CPU-resident, plus the first pages of leaf 1: one
        // maximal run even though the fast full-leaf path answered leaf 0.
        for n in 0..520 {
            t.populate(v(n), Node::Cpu, n);
        }
        assert_eq!(
            t.classify_runs(r(0, 600)),
            vec![(r(0, 520), Some(Node::Cpu)), (r(520, 600), None),]
        );
        assert_eq!(t.count_resident_in(r(0, 600), Node::Cpu), Pages::new(520));
        assert_eq!(t.count_resident_in(r(100, 514), Node::Cpu), Pages::new(414));
    }

    #[test]
    fn leaf_boundary_511_vs_512_resident() {
        // The range walkers answer fully-covered, fully-resident leaves
        // from the per-leaf summary in O(1) and fall back to slot scans
        // otherwise. 511 vs 512 resident entries in one leaf is exactly
        // the edge between those two paths: a one-page hole must be
        // reported by the scan, and plugging it must flip the leaf onto
        // the summary fast path with identical semantics.
        let mut t = table();
        for n in 0..512 {
            if n != 511 {
                t.populate(v(n), Node::Cpu, n);
            }
        }
        // 511 resident: the final page is a hole.
        assert_eq!(t.count_resident_in(r(0, 512), Node::Cpu), Pages::new(511));
        assert_eq!(t.translate_range(r(0, 512)), None, "hole breaks uniformity");
        assert_eq!(t.translate_range(r(0, 511)), Some(Node::Cpu));
        assert_eq!(
            t.classify_runs(r(0, 512)),
            vec![(r(0, 511), Some(Node::Cpu)), (r(511, 512), None)]
        );
        // Plug the hole: 512 resident, summary fast path takes over.
        t.populate(v(511), Node::Cpu, 511);
        assert_eq!(t.count_resident_in(r(0, 512), Node::Cpu), Pages::new(512));
        assert_eq!(t.translate_range(r(0, 512)), Some(Node::Cpu));
        assert_eq!(
            t.classify_runs(r(0, 512)),
            vec![(r(0, 512), Some(Node::Cpu))]
        );
        // Unmap one page again: back off the fast path, and the hole's
        // position (first page this time) is reported exactly.
        t.unmap(v(0));
        assert_eq!(t.count_resident_in(r(0, 512), Node::Cpu), Pages::new(511));
        assert_eq!(
            t.classify_runs(r(0, 512)),
            vec![(r(0, 1), None), (r(1, 512), Some(Node::Cpu))]
        );
    }

    #[test]
    fn translate_range_detects_uniform_placement() {
        let mut t = table();
        for n in 0..514 {
            t.populate(v(n), Node::Gpu, n);
        }
        assert_eq!(t.translate_range(r(0, 514)), Some(Node::Gpu));
        assert_eq!(t.translate_range(r(100, 200)), Some(Node::Gpu));
        assert_eq!(t.translate_range(r(0, 515)), None, "tail unpopulated");
        assert_eq!(t.translate_range(r(0, 0)), None, "empty range");
        t.remap(v(7), Node::Cpu, 999);
        assert_eq!(t.translate_range(r(0, 514)), None, "mixed placement");
    }

    #[test]
    fn placement_epoch_tracks_placement_not_dirtiness() {
        let mut t = table();
        let e0 = t.placement_epoch();
        t.populate(v(1), Node::Cpu, 1);
        let e1 = t.placement_epoch();
        assert_ne!(e0, e1);
        t.mark_dirty(v(1));
        t.mark_dirty_range(r(0, 10));
        assert_eq!(t.placement_epoch(), e1, "dirty bits are not placement");
        t.remap(v(1), Node::Gpu, 2);
        let e2 = t.placement_epoch();
        assert_ne!(e1, e2);
        t.unmap(v(1));
        assert_ne!(t.placement_epoch(), e2);
    }

    #[test]
    fn mark_dirty_range_sets_populated_only() {
        let mut t = table();
        t.populate(v(2), Node::Cpu, 1);
        t.populate(v(4), Node::Gpu, 2);
        t.mark_dirty_range(r(0, 4));
        assert!(t.translate(v(2)).unwrap().dirty);
        assert!(!t.translate(v(4)).unwrap().dirty);
    }

    #[test]
    fn mark_dirty_is_noop_on_unpopulated() {
        let mut t = table();
        t.mark_dirty(v(123)); // must not panic
        assert!(t.translate(v(123)).is_none());
    }
}
