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
//! Entries are keyed by virtual page number (`vaddr / page_size`) in one
//! dense index of blocks, each covering 2 MiB of address space (512 pages
//! at 4 KiB, 32 at 64 KiB, one page of the GPU table). A block counts its
//! populated pages per node and, while any of them is populated, holds
//! one slot per page. The range queries answer a block that the range
//! covers whole, or whose pages all share one state, from its counts;
//! they read slots only in a mixed block the range cuts. A migration
//! rewrites each moved entry and updates its block's counts once.

use crate::phys::Node;
use gh_units::{narrow, Bytes, PageSize, Pages, Vpn, VpnRange};

/// One maximal run of pages sharing a placement state: `Some(node)` when
/// every page is populated and resident on `node`, `None` when every page
/// is unpopulated.
pub type PlacementRun = (VpnRange, Option<Node>);

/// Address space covered by one block.
const BLOCK_BYTES: u64 = 2 * 1024 * 1024;

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

/// Populated pages of a VPN range, per node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Residency {
    /// Pages resident on the CPU.
    pub cpu: Pages,
    /// Pages resident on the GPU.
    pub gpu: Pages,
}

impl Residency {
    /// Pages resident on `node`.
    pub fn on(self, node: Node) -> Pages {
        match node {
            Node::Cpu => self.cpu,
            Node::Gpu => self.gpu,
        }
    }

    /// Populated pages on either node.
    pub fn populated(self) -> Pages {
        self.cpu + self.gpu
    }
}

/// One block of address space.
#[derive(Debug, Clone, Default)]
struct Block {
    /// Populated pages per node (CPU, GPU).
    counts: [u32; 2],
    /// One slot per page, allocated when the block's first page is
    /// populated and dropped when its counts reach zero (an empty box
    /// allocates nothing).
    slots: Box<[Option<Pte>]>,
}

impl Block {
    /// Drops the slots of a block with no populated page left.
    fn free_if_empty(&mut self) {
        if self.counts == [0, 0] {
            self.slots = Box::default();
        }
    }
}

/// A single page table with fixed page size.
#[derive(Debug, Clone)]
pub struct PageTable {
    page: PageSize,
    resident: [Pages; 2], // pages per node
    /// log2 of the pages per block: 2 MiB of address space, or one page
    /// when pages are 2 MiB or larger.
    block_shift: u32,
    /// Every block, indexed by block number (`vpn >> block_shift`) and
    /// grown on demand. The index is dense because the OS hands out
    /// 2 MiB-aligned virtual addresses from a cursor that starts at 2 MiB
    /// and only grows (`Os::mmap`): a block without slots costs 24 bytes
    /// per 2 MiB of address space ever mapped.
    blocks: Vec<Block>,
}

impl PageTable {
    /// Creates an empty table with the given page size (must be a power of
    /// two).
    pub fn new(page_size: u64) -> Self {
        Self {
            page: PageSize::new(page_size),
            resident: [Pages::ZERO, Pages::ZERO],
            block_shift: (BLOCK_BYTES / page_size).max(1).trailing_zeros(),
            blocks: Vec::new(),
        }
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
        let (b, i) = self.locate(vpn.get());
        self.blocks.get(b)?.slots.get(i)?.as_ref()
    }

    /// Whether `vpn` has a populated entry.
    pub fn is_populated(&self, vpn: Vpn) -> bool {
        self.translate(vpn).is_some()
    }

    /// Installs a fresh entry mapping `vpn` to a frame on `node`.
    ///
    /// Panics if the page is already populated — the OS/driver must unmap
    /// first; double population is always a simulator bug.
    pub fn populate(&mut self, vpn: Vpn, node: Node, frame: u64) {
        let (b, i) = self.locate(vpn.get());
        if b >= self.blocks.len() {
            self.blocks.resize_with(b + 1, Block::default);
        }
        let len = 1 << self.block_shift;
        let block = &mut self.blocks[b];
        if block.slots.is_empty() {
            block.slots = vec![None; len].into_boxed_slice();
        }
        let old = block.slots[i].replace(Pte {
            node,
            frame,
            dirty: false,
        });
        assert!(old.is_none(), "double population of {vpn}");
        let c = &mut block.counts[node_idx(node)];
        *c = c.saturating_add(1);
        self.resident[node_idx(node)] += Pages::new(1);
    }

    /// Removes the entry for `vpn`, returning it.
    pub fn unmap(&mut self, vpn: Vpn) -> Option<Pte> {
        let (b, i) = self.locate(vpn.get());
        let block = self.blocks.get_mut(b)?;
        let pte = block.slots.get_mut(i)?.take()?;
        let c = &mut block.counts[node_idx(pte.node)];
        *c = c.saturating_sub(1);
        block.free_if_empty();
        self.resident[node_idx(pte.node)] -= Pages::new(1);
        Some(pte)
    }

    /// Rewrites the entry for `vpn` to point at `node`/`frame` (migration).
    /// Returns the old entry. Panics if the page was not populated.
    pub fn remap(&mut self, vpn: Vpn, node: Node, frame: u64) -> Pte {
        #[expect(
            clippy::panic,
            reason = "remap of an unpopulated page is a simulator logic error"
        )]
        let old = *self
            .translate(vpn)
            .unwrap_or_else(|| panic!("remap of unpopulated {vpn}"));
        let (b, i) = self.locate(vpn.get());
        let block = &mut self.blocks[b];
        block.slots[i] = Some(Pte {
            node,
            frame,
            dirty: false,
        });
        let c = &mut block.counts;
        c[node_idx(old.node)] = c[node_idx(old.node)].saturating_sub(1);
        c[node_idx(node)] = c[node_idx(node)].saturating_add(1);
        self.resident[node_idx(old.node)] -= Pages::new(1);
        self.resident[node_idx(node)] += Pages::new(1);
        old
    }

    /// Moves every page of `vpns` resident on `from` to `to`: the moved
    /// pages get frames `first_frame`, `first_frame + 1`, ... in ascending
    /// VPN order, and `moved` sees each one. Entries and frames end up as
    /// under one [`PageTable::remap`] per page. A block with nothing
    /// on `from` is skipped on its counts; any other has its slots
    /// rewritten and its counts updated once.
    pub fn remap_range(
        &mut self,
        vpns: VpnRange,
        from: Node,
        to: Node,
        first_frame: u64,
        mut moved: impl FnMut(Vpn),
    ) -> Pages {
        let mut frame = first_frame;
        self.walk_mut(vpns, |k, c, slots| {
            if c[node_idx(from)] == 0 {
                return;
            }
            let mut n = 0u32;
            for (key, slot) in (k..).zip(slots) {
                if let Some(pte) = slot.as_mut().filter(|p| p.node == from) {
                    *pte = Pte {
                        node: to,
                        frame,
                        dirty: false,
                    };
                    frame += 1;
                    n += 1;
                    moved(Vpn::new(key));
                }
            }
            c[node_idx(from)] = c[node_idx(from)].saturating_sub(n);
            c[node_idx(to)] = c[node_idx(to)].saturating_add(n);
        });
        let n = Pages::new(frame - first_frame);
        self.resident[node_idx(from)] -= n;
        self.resident[node_idx(to)] += n;
        n
    }

    /// Marks `vpn` dirty (a write hit the page). No-op if unpopulated.
    pub fn mark_dirty(&mut self, vpn: Vpn) {
        let (b, i) = self.locate(vpn.get());
        if let Some(pte) = self
            .blocks
            .get_mut(b)
            .and_then(|block| block.slots.get_mut(i)?.as_mut())
        {
            pte.dirty = true;
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
        self.resident[0] + self.resident[1]
    }

    /// Counts populated pages in `vpns` residing on `node` (one half of
    /// [`PageTable::residency`]).
    pub fn count_resident_in(&self, vpns: VpnRange, node: Node) -> Pages {
        self.residency(vpns).on(node)
    }

    /// Populated pages of `vpns` on each node. A block the range covers
    /// whole, or whose pages all share one state, is answered from its
    /// counts; only a mixed block the range cuts has its slots read.
    pub fn residency(&self, vpns: VpnRange) -> Residency {
        let (lo, hi) = (vpns.start.get(), vpns.end.get());
        let mut n = [0u64; 2];
        let mut k = lo;
        while k < hi {
            let end = self.chunk_end(k, hi);
            let c = self.counts(k);
            let part = if end - k == self.block_len() {
                c.map(u64::from)
            } else {
                match self.known_state(c) {
                    Some(None) => [0, 0],
                    Some(Some(node)) => {
                        let mut part = [0, 0];
                        part[node_idx(node)] = end - k;
                        part
                    }
                    None => {
                        let mut part = [0u64; 2];
                        for pte in self.slots(k, end).iter().flatten() {
                            part[node_idx(pte.node)] += 1;
                        }
                        part
                    }
                }
            };
            n = [n[0].saturating_add(part[0]), n[1].saturating_add(part[1])];
            k = end;
        }
        Residency {
            cpu: Pages::new(n[0]),
            gpu: Pages::new(n[1]),
        }
    }

    /// If every page in `vpns` is populated and resident on one node,
    /// returns that node. Mixed, partially populated, and empty ranges
    /// return `None`. A block whose pages share one state is answered
    /// from its counts without touching its slots.
    pub fn translate_range(&self, vpns: VpnRange) -> Option<Node> {
        let (lo, hi) = (vpns.start.get(), vpns.end.get());
        if lo >= hi {
            return None;
        }
        let mut uniform: Option<Node> = None;
        let mut k = lo;
        while k < hi {
            let end = self.chunk_end(k, hi);
            let node = match self.known_state(self.counts(k)) {
                Some(state) => state?,
                // A whole block with mixed or missing pages.
                None if end - k == self.block_len() => return None,
                None => {
                    let mut node: Option<Node> = None;
                    for slot in self.slots(k, end) {
                        match (slot, node) {
                            (None, _) => return None,
                            (Some(pte), None) => node = Some(pte.node),
                            (Some(pte), Some(n)) if pte.node != n => return None,
                            _ => {}
                        }
                    }
                    node?
                }
            };
            match uniform {
                None => uniform = Some(node),
                Some(n) if n != node => return None,
                _ => {}
            }
            k = end;
        }
        uniform
    }

    /// Classifies `vpns` into maximal [`PlacementRun`]s in ascending
    /// address order: `Some(node)` runs are populated-and-resident on that
    /// node, `None` runs are unpopulated. A block whose pages share one
    /// state is classified from its counts in O(1); a mixed block is
    /// scanned once.
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
            let end = self.chunk_end(k, hi);
            match self.known_state(self.counts(k)) {
                Some(state) => push(&mut runs, k, end, state),
                None => {
                    for (key, slot) in (k..end).zip(self.slots(k, end)) {
                        push(&mut runs, key, key + 1, slot.map(|pte| pte.node));
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
        self.walk_mut(vpns, |_, _, slots| {
            for pte in slots.iter_mut().flatten() {
                pte.dirty = true;
            }
        });
    }

    /// Unmaps every populated page in the VPN range, returning the removed
    /// entries in ascending VPN order (for frame release), as one
    /// [`PageTable::unmap`] per page would. Drains a block at a time.
    pub fn unmap_range(&mut self, vpns: VpnRange) -> Vec<(Vpn, Pte)> {
        let mut removed = Vec::new();
        let mut gone = [0u64; 2];
        self.walk_mut(vpns, |k, c, slots| {
            for (key, slot) in (k..).zip(slots) {
                if let Some(pte) = slot.take() {
                    let n = node_idx(pte.node);
                    c[n] = c[n].saturating_sub(1);
                    gone[n] += 1;
                    removed.push((Vpn::new(key), pte));
                }
            }
        });
        for (i, g) in gone.into_iter().enumerate() {
            self.resident[i] -= Pages::new(g);
        }
        removed
    }

    /// Calls `f(k, counts, slots)` on each chunk `[k, end)` of `vpns` whose
    /// block holds slots, with the block's counts and the chunk's slots.
    /// A block that `f` leaves with no populated page drops its slots.
    fn walk_mut(
        &mut self,
        vpns: VpnRange,
        mut f: impl FnMut(u64, &mut [u32; 2], &mut [Option<Pte>]),
    ) {
        let (lo, hi) = (vpns.start.get(), vpns.end.get());
        let mut k = lo;
        while k < hi {
            let end = self.chunk_end(k, hi);
            let (b, i) = self.locate(k);
            let chunk = i..i + narrow(end - k);
            if let Some(block) = self.blocks.get_mut(b) {
                if let Some(slots) = block.slots.get_mut(chunk) {
                    f(k, &mut block.counts, slots);
                    block.free_if_empty();
                }
            }
            k = end;
        }
    }

    /// The block holding VPN `key`, and the key's slot in it.
    fn locate(&self, key: u64) -> (usize, usize) {
        (
            narrow(key >> self.block_shift),
            narrow(key & (self.block_len() - 1)),
        )
    }

    /// Pages per block.
    fn block_len(&self) -> u64 {
        1 << self.block_shift
    }

    /// The populated-page counts of the block holding VPN `key`.
    fn counts(&self, key: u64) -> [u32; 2] {
        let (b, _) = self.locate(key);
        self.blocks.get(b).map_or([0; 2], |block| block.counts)
    }

    /// The state every page of a block shares, when its counts say:
    /// `Some(None)` for an empty block, `Some(Some(node))` for a block
    /// wholly on `node`, `None` for a mixed or partly populated one.
    fn known_state(&self, c: [u32; 2]) -> Option<Option<Node>> {
        let full = self.block_len();
        match c {
            [0, 0] => Some(None),
            [n, _] if u64::from(n) == full => Some(Some(Node::Cpu)),
            [_, n] if u64::from(n) == full => Some(Some(Node::Gpu)),
            _ => None,
        }
    }

    /// End of the chunk of `[k, hi)` that starts at `k`: chunks never
    /// cross a block boundary.
    fn chunk_end(&self, k: u64, hi: u64) -> u64 {
        hi.min(((k >> self.block_shift) + 1) << self.block_shift)
    }

    /// The slots of the chunk `[k, end)` (empty when its block holds
    /// none, which the block counts rule out for a mixed block).
    fn slots(&self, k: u64, end: u64) -> &[Option<Pte>] {
        let (b, i) = self.locate(k);
        self.blocks
            .get(b)
            .and_then(|block| block.slots.get(i..i + narrow(end - k)))
            .unwrap_or(&[])
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
    use crate::params::{KIB, MIB};
    use std::collections::BTreeMap;

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
    fn an_emptied_block_frees_its_slots() {
        // Block 3 gets pages at its start, middle and end, and blocks 2
        // and 4 one page each beside it. Block 3 is emptied by `unmap`
        // one page at a time, then refilled and emptied by a partial and
        // then a whole `unmap_range`. Each block holds slot storage
        // exactly while one of its pages is populated.
        for page in [4 * KIB, 64 * KIB, 2 * MIB] {
            let mut t = PageTable::new(page);
            let len = t.block_len();
            let base = 3 * len;
            let mine = [base, base + len / 2, base + len - 1];
            let mut model: BTreeMap<u64, Node> = BTreeMap::new();
            let check = |t: &PageTable, model: &BTreeMap<u64, Node>| {
                for k in 2 * len..5 * len {
                    let got = t.translate(v(k)).map(|p| p.node);
                    assert_eq!(got, model.get(&k).copied(), "{page}: vpn {k}");
                }
                for q in [r(base, base + len), r(base - 1, base + len + 1)] {
                    let on = |n| {
                        let it = model.range(q.start.get()..q.end.get());
                        Pages::new(it.filter(|e| *e.1 == n).count() as u64)
                    };
                    let want = Residency {
                        cpu: on(Node::Cpu),
                        gpu: on(Node::Gpu),
                    };
                    assert_eq!(t.residency(q), want, "{page}: {q}");
                }
                for b in 2..5 {
                    let populated = model.range(b * len..(b + 1) * len).next().is_some();
                    let slots = !t.blocks[b as usize].slots.is_empty();
                    assert_eq!(slots, populated, "{page}: block {b}");
                }
            };
            let fill = |t: &mut PageTable, model: &mut BTreeMap<u64, Node>| {
                for (i, &k) in mine.iter().enumerate() {
                    if let std::collections::btree_map::Entry::Vacant(e) = model.entry(k) {
                        let node = if i == 1 { Node::Gpu } else { Node::Cpu };
                        t.populate(v(k), node, k);
                        e.insert(node);
                    }
                }
                check(t, model);
            };
            for k in [base - 1, base + len] {
                t.populate(v(k), Node::Gpu, k);
                model.insert(k, Node::Gpu);
            }
            fill(&mut t, &mut model);
            for k in mine {
                assert_eq!(t.unmap(v(k)).is_some(), model.remove(&k).is_some());
                check(&t, &model);
            }
            assert_eq!(t.unmap(v(base)), None);
            fill(&mut t, &mut model);
            // Partial: block 2's page and all of block 3 but its last page.
            let removed = t.unmap_range(r(base - 1, base + len - 1));
            let want: Vec<u64> = model
                .range(base - 1..base + len - 1)
                .map(|e| *e.0)
                .collect();
            assert_eq!(removed.iter().map(|e| e.0.get()).collect::<Vec<_>>(), want);
            model.retain(|k, _| !(base - 1..base + len - 1).contains(k));
            check(&t, &model);
            // Whole: the last page goes, and block 4's page stays.
            assert_eq!(t.unmap_range(r(base, base + len)).len(), 1);
            model.remove(&(base + len - 1));
            check(&t, &model);
            fill(&mut t, &mut model);
        }
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
    fn classify_runs_merges_across_block_boundaries() {
        let mut t = table();
        // Block 0 fully CPU-resident, plus the first pages of block 1: one
        // maximal run even though the counts answered block 0.
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
    fn block_boundary_511_vs_512_resident() {
        // At 4 KiB pages a block is 512 pages. The range walkers
        // answer a fully-resident block from its counts in O(1) and fall
        // back to slot scans otherwise. 511 vs 512 resident entries in one
        // block is exactly the edge between those two paths: a one-page
        // hole must be reported by the scan, and plugging it must flip the
        // block onto the counts with identical semantics.
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
        // Plug the hole: 512 resident, the block counts take over.
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
    fn block_counts_answer_cut_ranges_at_64k_pages() {
        // 32 pages per block: a range that cuts a uniform block is
        // answered from the block's counts, one that cuts a mixed block
        // from its slots.
        let mut t = PageTable::new(64 * KIB);
        for n in 32..64 {
            t.populate(v(n), Node::Gpu, n);
        }
        t.populate(v(70), Node::Cpu, 70);
        let res = |cpu, gpu| Residency {
            cpu: Pages::new(cpu),
            gpu: Pages::new(gpu),
        };
        assert_eq!(t.residency(r(40, 72)), res(1, 24));
        assert_eq!(t.translate_range(r(33, 50)), Some(Node::Gpu));
        assert_eq!(t.translate_range(r(60, 66)), None);
        assert_eq!(
            t.classify_runs(r(60, 72)),
            vec![
                (r(60, 64), Some(Node::Gpu)),
                (r(64, 70), None),
                (r(70, 71), Some(Node::Cpu)),
                (r(71, 72), None),
            ]
        );
        let n = t.remap_range(r(40, 72), Node::Gpu, Node::Cpu, 100, |_| {});
        assert_eq!(n, Pages::new(24));
        assert_eq!(t.residency(r(0, 96)), res(25, 8));
        assert_eq!(t.unmap_range(r(0, 48)).len(), 16);
        assert_eq!(t.residency(r(32, 64)), res(16, 0));
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
