//! The CUDA managed-memory (UVM) driver model.
//!
//! Managed memory on Grace Hopper (paper §2.3) keeps pages in the system
//! page table while CPU-resident and in the GPU page table while
//! GPU-resident, migrating on demand:
//!
//! * **GPU first touch** maps pages directly into GPU memory at 2 MiB
//!   block granularity — this is why GPU-side initialization is *fast*
//!   under managed memory (§5.1.2) while it is slow for system memory;
//! * **GPU access to CPU-resident pages** raises a replayable GPU page
//!   fault; the driver migrates the whole 2 MiB VA block (plus
//!   speculatively prefetched neighbours) to HBM;
//! * under memory pressure the driver **evicts** least-recently-used
//!   blocks to CPU memory;
//! * a fault that could only be served by evicting blocks of the *same
//!   allocation* (self-eviction, i.e. guaranteed thrash) is instead served
//!   by a **remote mapping** over NVLink-C2C — this reproduces the
//!   behaviour the paper observed for the 34-qubit Qiskit run (§7): after
//!   the initial eviction phase no further migration happens and all data
//!   is accessed over the link, unless explicit prefetching intervenes;
//! * **CPU access to GPU-resident pages** retrieves them back.
//!
//! Residency is tracked at system-page granularity in the OS page table
//! (which matches the paper's observation that *evicted* managed pages
//! land on the CPU at the system page size), while all driver operations
//! — fault service, migration, eviction, first touch — work on 2 MiB VA
//! blocks, matching the managed-memory granularities of Table 1.
//!
//! The driver's host work is per block, plus the per-page PTE rewrite a
//! migration cannot avoid. The page table counts each block's pages per
//! node, so a residency query over a block reads two counters. Every
//! migration goes through `Runtime::move_pages`: one frame reservation
//! and one page-table pass. Its per-page GPU TLB shootdown probes run only
//! while the TLB holds a system-space entry; GPU accesses to GPU-resident
//! blocks use GPU-space keys, which only eviction would shoot down. The
//! LRU is a linked list threaded through arrays indexed by block number,
//! so a touch or a drop is O(1).

use gh_mem::clock::Ns;
use gh_mem::link::Direction;
use gh_mem::params::CostParams;
use gh_mem::phys::Node;
use gh_mem::tlb::tlb_key_sys;
use gh_os::VaRange;
use gh_units::{narrow, widen, Bytes, Pages, Vpn, VpnRange};

use crate::runtime::Runtime;

/// Link of a block that is not in the [`Lru`].
const FREE: usize = usize::MAX;

/// Managed blocks holding GPU-resident pages, coldest first: a circular
/// doubly-linked list threaded through `prev`/`next` arrays. Slot `b + 1`
/// holds block `b`'s links; slot 0 is the list head, whose `next` is the
/// coldest block and whose `prev` the hottest. Block numbers are dense,
/// because the OS hands out 2 MiB-aligned addresses from a cursor that
/// only grows, so the arrays (grown on demand) cost 16 bytes per block of
/// address space, and a touch or a drop is O(1).
#[derive(Debug, Default)]
struct Lru {
    prev: Vec<usize>,
    next: Vec<usize>,
}

impl Lru {
    fn slot(block: u64) -> usize {
        narrow(block) + 1
    }

    /// Moves `block` to the hot end, linking it if absent.
    fn touch(&mut self, block: u64) {
        self.remove(block);
        let i = Self::slot(block);
        if i >= self.next.len() {
            if self.next.is_empty() {
                self.prev.push(0);
                self.next.push(0);
            }
            self.prev.resize(i + 1, FREE);
            self.next.resize(i + 1, FREE);
        }
        let hottest = self.prev[0];
        self.next[hottest] = i;
        self.prev[i] = hottest;
        self.next[i] = 0;
        self.prev[0] = i;
    }

    /// Unlinks `block` if it is linked.
    fn remove(&mut self, block: u64) {
        let i = Self::slot(block);
        let Some(&n) = self.next.get(i).filter(|&&n| n != FREE) else {
            return;
        };
        let p = self.prev[i];
        self.next[p] = n;
        self.prev[n] = p;
        self.next[i] = FREE;
        self.prev[i] = FREE;
    }

    /// The block after `block` toward the hot end, or the coldest block
    /// when `block` is `None`. `block` must be linked.
    fn after(&self, block: Option<u64>) -> Option<u64> {
        let i = block.map_or(0, Self::slot);
        match self.next.get(i) {
            Some(&n) if n != 0 && n != FREE => Some(widen(n - 1)),
            _ => None,
        }
    }

    /// The blocks, coldest first.
    #[cfg(test)]
    fn order(&self) -> Vec<u64> {
        std::iter::successors(self.after(None), |&b| self.after(Some(b))).collect()
    }
}

/// A walk over the LRU from the cold end for eviction victims (see
/// [`UvmState::next_victim`]).
#[derive(Debug)]
pub(crate) struct VictimScan {
    /// The next block to consider, saved before its predecessor is handed
    /// out, so the caller may drop each victim.
    next: Option<u64>,
    /// Allocation protected from self-eviction.
    exclude: Option<VaRange>,
    /// The block being served.
    skip: Option<u64>,
}

/// Driver-side state for managed memory.
#[derive(Debug, Default)]
pub struct UvmState {
    /// 2 MiB blocks holding at least one GPU-resident managed page, in
    /// LRU order.
    lru: Lru,
    /// Blocks migrated in during the current kernel (sequential-prefetch
    /// detection).
    pub(crate) migrated_this_kernel: Vec<u64>,
    /// Statistics: blocks served by remote mapping instead of migration.
    pub(crate) remote_fallbacks: u64,
    /// Statistics: eviction events.
    pub(crate) evictions: u64,
    /// Thrash detection: remote fallbacks per allocation (keyed by the
    /// allocation's base address). `BTreeMap` so any future iteration is
    /// deterministic — hash order here would leak into pin decisions and
    /// thus into RunReports.
    pub(crate) fallback_counts: std::collections::BTreeMap<u64, u32>,
    /// Allocations the driver has pinned CPU-side after repeated
    /// thrashing (the `uvm_perf_thrashing` behaviour: all access remote
    /// until an explicit prefetch pulls data back).
    pub(crate) pinned_cpu: std::collections::BTreeSet<u64>,
}

impl UvmState {
    /// Fresh driver state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks `block` most-recently-used (inserting it if absent).
    pub(crate) fn touch_lru(&mut self, block: u64) {
        self.lru.touch(block);
    }

    fn drop_block(&mut self, block: u64) {
        self.lru.remove(block);
    }

    /// Forgets all blocks overlapping `range` (allocation freed).
    pub(crate) fn forget_range(&mut self, range: VaRange) {
        for block in range.addr / BLOCK..range.end().div_ceil(BLOCK) {
            self.lru.remove(block);
        }
        self.fallback_counts.remove(&range.addr);
        self.pinned_cpu.remove(&range.addr);
    }

    /// Starts an eviction scan at the cold end of the LRU that passes over
    /// blocks overlapping `exclude` and the block `skip`.
    pub(crate) fn victims(&self, exclude: Option<VaRange>, skip: Option<u64>) -> VictimScan {
        VictimScan {
            next: self.lru.after(None),
            exclude,
            skip,
        }
    }

    /// The scan's next victim, coldest first. The caller may drop it
    /// before asking for the next one.
    pub(crate) fn next_victim(&self, scan: &mut VictimScan) -> Option<u64> {
        while let Some(block) = scan.next {
            scan.next = self.lru.after(Some(block));
            let whole = VaRange {
                addr: block * BLOCK,
                len: BLOCK,
            };
            let excluded = scan.exclude.is_some_and(|r| whole.intersect(&r).is_some());
            if !excluded && Some(block) != scan.skip {
                return Some(block);
            }
        }
        None
    }

    /// Whether the driver pinned this allocation to CPU memory.
    pub fn is_pinned_cpu(&self, range: VaRange) -> bool {
        self.pinned_cpu.contains(&range.addr)
    }

    /// Number of eviction events so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Number of remote-mapping fallbacks so far.
    pub fn remote_fallbacks(&self) -> u64 {
        self.remote_fallbacks
    }
}

/// UVM VA-block size (2 MiB), fixed by the driver design.
pub const BLOCK: u64 = 2 * 1024 * 1024;

/// Remote fallbacks tolerated per allocation before the driver pins it to
/// CPU memory (thrashing prevention).
pub const PIN_AFTER_FALLBACKS: u32 = 3;

/// Block index containing `addr`.
pub fn block_of(addr: u64) -> u64 {
    addr / BLOCK
}

/// The VA range of a block, clipped to `clip`.
pub fn block_range(block: u64, clip: VaRange) -> VaRange {
    let lo = (block * BLOCK).max(clip.addr);
    let hi = ((block + 1) * BLOCK).min(clip.end());
    VaRange {
        addr: lo,
        len: hi.saturating_sub(lo),
    }
}

impl Runtime {
    /// Moves every system page of `vpns` resident on `from` to `to` in
    /// one page-table pass: frames for the whole run are reserved at once,
    /// and the GPU TLB's system-space entry of each moved page is shot
    /// down. The shootdown probes stop while the TLB holds no
    /// system-space entry, since invalidating an absent key changes
    /// nothing. Returns the number of pages moved. Panics if `to` cannot
    /// hold them — callers must have made room first.
    pub(crate) fn move_pages(&mut self, vpns: VpnRange, from: Node, to: Node) -> u64 {
        let page = self.os.system_pt.page();
        let n = self.os.system_pt.count_resident_in(vpns, from);
        if n.is_zero() {
            return 0;
        }
        #[expect(
            clippy::expect_used,
            reason = "caller evicts before migrating; a full destination is a logic error"
        )]
        let first = self
            .phys
            .alloc_frames(to, page, n.get())
            .expect("destination node full: caller must evict first");
        let tlb = &mut self.gpu_tlb;
        self.os.system_pt.remap_range(vpns, from, to, first, |vpn| {
            if tlb.sys_entries() > 0 {
                tlb.invalidate(tlb_key_sys(vpn));
            }
        });
        self.phys.release(from, n * page);
        self.migrated_pages = self.migrated_pages.saturating_add(n.get());
        n.get()
    }

    /// GPU first-touch of a managed block: map every unpopulated page of
    /// `block ∩ buf` straight into GPU memory (2 MiB-granularity PTE work,
    /// cheap). Under pressure this *may* evict LRU blocks — including
    /// blocks of the same allocation, since first-touch population is not
    /// a migration loop. Pages that still don't fit are placed on the CPU.
    /// Returns (cost, pages placed on GPU, pages placed on CPU).
    pub(crate) fn uvm_first_touch_block(
        &mut self,
        block: u64,
        buf_range: VaRange,
    ) -> (Ns, u64, u64) {
        let clip = block_range(block, buf_range);
        if clip.len == 0 {
            return (0, 0, 0);
        }
        let page = self.os.system_pt.page();
        let vpns: Vec<Vpn> = self
            .os
            .system_pt
            .vpn_range(clip.addr, clip.len)
            .into_iter()
            .filter(|&v| !self.os.system_pt.is_populated(v))
            .collect();
        if vpns.is_empty() {
            return (0, 0, 0);
        }
        let mut cost = self.params.uvm_gpu_first_touch_per_page;
        let (mut on_gpu, mut on_cpu) = (0u64, 0u64);
        for vpn in vpns {
            let frame = match self.phys.alloc(Node::Gpu, page.bytes()) {
                Ok(f) => Some(f),
                Err(_) => {
                    // Try to make room by evicting the LRU block (any
                    // allocation, this one included).
                    let (evict_cost, freed) = self.uvm_evict_lru(page.bytes(), None, Some(block));
                    cost = cost.saturating_add(evict_cost);
                    if freed >= page.bytes() {
                        self.phys.alloc(Node::Gpu, page.bytes()).ok()
                    } else {
                        None
                    }
                }
            };
            match frame {
                Some(f) => {
                    self.os.system_pt.populate(vpn, Node::Gpu, f);
                    on_gpu += 1;
                }
                None => {
                    #[expect(
                        clippy::expect_used,
                        reason = "both tiers exhausted means the experiment exceeds machine memory"
                    )]
                    let f = self
                        .phys
                        .alloc(Node::Cpu, page.bytes())
                        .expect("both tiers exhausted");
                    self.os.system_pt.populate(vpn, Node::Cpu, f);
                    on_cpu += 1;
                    cost = cost.saturating_add(self.params.cpu_fault_fixed / 2);
                }
            }
        }
        if on_gpu > 0 {
            self.uvm.touch_lru(block);
            cost = cost.saturating_add(CostParams::transfer_ns(
                Pages::new(on_gpu) * page,
                self.params.hbm_bw,
            ));
        }
        if self.session.bus.is_on() && on_gpu > 0 {
            self.session.bus.emit(gh_trace::Event::Migration {
                engine: gh_trace::Engine::FirstTouch,
                dir: gh_trace::Dir::H2D,
                pages: on_gpu,
                bytes: (Pages::new(on_gpu) * page).get(),
            });
            self.session.bus.count("uvm.pages_first_touch", on_gpu);
        }
        (cost, on_gpu, on_cpu)
    }

    /// Fault-driven migration of a managed block to the GPU. The caller
    /// has already charged the fault-batch cost. Returns
    /// `(cost, pages_migrated)`; `pages_migrated == 0` means the driver
    /// fell back to a remote mapping (self-eviction refused).
    pub(crate) fn uvm_migrate_block_in(&mut self, block: u64, buf_range: VaRange) -> (Ns, u64) {
        let clip = block_range(block, buf_range);
        let page = self.os.system_pt.page();
        let vpns = self.os.system_pt.vpn_range(clip.addr, clip.len);
        let cpu_pages = self.os.system_pt.count_resident_in(vpns, Node::Cpu);
        if cpu_pages.is_zero() {
            return (0, 0);
        }
        let bytes = cpu_pages * page;
        let mut cost: Ns = 0;
        if self.phys.free(Node::Gpu) < bytes {
            // Make room, but never by evicting this same allocation: that
            // would be guaranteed thrash, and the GH200 driver instead
            // leaves the data CPU-resident for coherent remote access.
            let (evict_cost, _) = self.uvm_evict_lru(
                bytes - self.phys.free(Node::Gpu),
                Some(buf_range),
                Some(block),
            );
            cost = cost.saturating_add(evict_cost);
            // `uvm_evict_lru` has already returned what it freed to
            // `phys`: the free count is all that can back the move.
            if self.phys.free(Node::Gpu) < bytes {
                self.uvm.remote_fallbacks += 1;
                // Thrash detection (uvm_perf_thrashing): after repeated
                // refused migrations the driver evicts the allocation's
                // GPU-resident pages and pins it CPU-side — from then on
                // every access is a coherent C2C remote access, which is
                // what the paper observed for the 34-qubit managed run.
                let n = self.uvm.fallback_counts.entry(buf_range.addr).or_insert(0);
                *n += 1;
                if *n >= PIN_AFTER_FALLBACKS {
                    cost = cost.saturating_add(self.uvm_pin_cpu(buf_range));
                }
                self.session.bus.count("uvm.remote_fallbacks", 1);
                return (cost, 0);
            }
        }
        let pages = self.move_pages(vpns, Node::Cpu, Node::Gpu);
        self.uvm.touch_lru(block);
        self.uvm.migrated_this_kernel.push(block);
        cost = cost.saturating_add(
            self.params.uvm_migration_fixed + self.link.bulk(bytes, Direction::H2D),
        );
        self.session.perf.count(gh_perf::Ctr::MigratedPages, pages);
        if self.session.bus.is_on() {
            self.session.bus.emit(gh_trace::Event::Migration {
                engine: gh_trace::Engine::Fault,
                dir: gh_trace::Dir::H2D,
                pages,
                bytes: bytes.get(),
            });
            self.session.bus.count("uvm.pages_migrated_in", pages);
            self.session.bus.count("uvm.bytes_migrated_in", bytes.get());
            self.session.bus.observe("migration.bytes", bytes.get());
        }
        (cost, pages)
    }

    /// Evicts LRU managed blocks until `needed` bytes are free on the GPU
    /// or no eligible victim remains. `exclude` protects an allocation
    /// from self-eviction; `skip_block` protects the block currently
    /// being serviced. Returns (cost, bytes freed).
    pub(crate) fn uvm_evict_lru(
        &mut self,
        needed: Bytes,
        exclude: Option<VaRange>,
        skip_block: Option<u64>,
    ) -> (Ns, Bytes) {
        let page = self.os.system_pt.page();
        let mut cost: Ns = 0;
        let mut freed = Bytes::ZERO;
        let mut scan = self.uvm.victims(exclude, skip_block);
        while freed < needed {
            let Some(block) = self.uvm.next_victim(&mut scan) else {
                break;
            };
            let clip = VaRange {
                addr: block * BLOCK,
                len: BLOCK,
            };
            let vpns = self.os.system_pt.vpn_range(clip.addr, clip.len);
            let pages = self.move_pages(vpns, Node::Gpu, Node::Cpu);
            let bytes = Pages::new(pages) * page;
            self.uvm.drop_block(block);
            self.uvm.evictions = self.uvm.evictions.saturating_add(1);
            freed = freed.saturating_add(bytes);
            cost = cost
                .saturating_add(self.params.evict_fixed + self.link.bulk(bytes, Direction::D2H));
            self.session.perf.count(gh_perf::Ctr::MigratedPages, pages);
            if self.session.bus.is_on() {
                self.session.bus.emit(gh_trace::Event::Evict {
                    pages,
                    bytes: bytes.get(),
                });
                self.session.bus.emit(gh_trace::Event::Migration {
                    engine: gh_trace::Engine::Evict,
                    dir: gh_trace::Dir::D2H,
                    pages,
                    bytes: bytes.get(),
                });
                self.session.bus.count("uvm.evictions", 1);
                self.session.bus.count("uvm.pages_migrated_out", pages);
                self.session
                    .bus
                    .count("uvm.bytes_migrated_out", bytes.get());
                self.session.bus.observe("migration.bytes", bytes.get());
            }
        }
        (cost, freed)
    }

    /// Evicts every GPU-resident page of the allocation to the CPU and
    /// marks it pinned (thrashing prevention). Returns the cost.
    pub(crate) fn uvm_pin_cpu(&mut self, buf_range: VaRange) -> Ns {
        let page = self.os.system_pt.page();
        let vpns = self.os.system_pt.vpn_range(buf_range.addr, buf_range.len);
        let pages = self.move_pages(vpns, Node::Gpu, Node::Cpu);
        let bytes = Pages::new(pages) * page;
        let first = block_of(buf_range.addr);
        let last = block_of(buf_range.end().saturating_sub(1));
        for b in first..=last {
            self.uvm.drop_block(b);
        }
        self.uvm.pinned_cpu.insert(buf_range.addr);
        self.uvm.evictions = self.uvm.evictions.saturating_add(1);
        self.session.perf.count(gh_perf::Ctr::MigratedPages, pages);
        if self.session.bus.is_on() {
            self.session.bus.emit(gh_trace::Event::Pin {
                va: buf_range.addr,
                bytes: bytes.get(),
            });
            self.session.bus.count("uvm.cpu_pins", 1);
            self.session.bus.count("uvm.evictions", 1);
            self.session.bus.count("uvm.pages_migrated_out", pages);
            self.session
                .bus
                .count("uvm.bytes_migrated_out", bytes.get());
        }
        self.params.evict_fixed + self.link.bulk(bytes, Direction::D2H)
    }

    /// CPU touched GPU-resident managed pages: retrieve the covered
    /// blocks back to CPU memory (fault batch + D2H transfer).
    pub(crate) fn uvm_retrieve_to_cpu(&mut self, chunk: VaRange) -> Ns {
        let page = self.os.system_pt.page();
        // Each block that held GPU-resident pages pays a fault batch and
        // leaves the LRU.
        let (mut pages, mut blocks) = (0u64, 0u64);
        for block in block_of(chunk.addr)..=block_of(chunk.end().saturating_sub(1)) {
            let clip = block_range(block, chunk);
            let vpns = self.os.system_pt.vpn_range(clip.addr, clip.len);
            let moved = self.move_pages(vpns, Node::Gpu, Node::Cpu);
            if moved > 0 {
                pages = pages.saturating_add(moved);
                blocks += 1;
                self.uvm.drop_block(block);
            }
        }
        if pages == 0 {
            return 0;
        }
        let bytes = Pages::new(pages) * page;
        self.session.perf.count(gh_perf::Ctr::MigratedPages, pages);
        if self.session.bus.is_on() {
            self.session.bus.emit(gh_trace::Event::Migration {
                engine: gh_trace::Engine::Fault,
                dir: gh_trace::Dir::D2H,
                pages,
                bytes: bytes.get(),
            });
            self.session.bus.count("uvm.pages_migrated_out", pages);
            self.session
                .bus
                .count("uvm.bytes_migrated_out", bytes.get());
            self.session.bus.observe("migration.bytes", bytes.get());
        }
        self.params.uvm_fault_batch * blocks + self.link.bulk(bytes, Direction::D2H)
    }

    /// `cudaMemPrefetchAsync` body: bulk migration toward `to`, block by
    /// block, ticking the clock incrementally so the profiler records the
    /// ramp. Eviction (including self-eviction — the user asked for this
    /// placement) makes room as needed. Returns total cost.
    pub(crate) fn uvm_prefetch_range(&mut self, span: VaRange, to: Node) -> Ns {
        // An explicit prefetch overrides thrashing prevention: the user
        // asked for this placement.
        if to == Node::Gpu {
            if let Some(vma) = self.os.vma_at(span.addr) {
                let addr = vma.range.addr;
                self.uvm.pinned_cpu.remove(&addr);
                self.uvm.fallback_counts.remove(&addr);
            }
        }
        let page = self.os.system_pt.page();
        let mut total = self.params.prefetch_fixed;
        self.tick(self.params.prefetch_fixed);
        let first = block_of(span.addr);
        let last = block_of(span.end() - 1);
        for block in first..=last {
            let clip = block_range(block, span);
            if clip.len == 0 {
                continue;
            }
            let vpns = self.os.system_pt.vpn_range(clip.addr, clip.len);
            let mut dt: Ns = 0;
            match to {
                Node::Gpu => {
                    let cpu_pages = self.os.system_pt.count_resident_in(vpns, Node::Cpu);
                    if cpu_pages.is_zero() {
                        continue;
                    }
                    let bytes = cpu_pages * page;
                    if self.phys.free(Node::Gpu) < bytes {
                        let (c, _) = self.uvm_evict_lru(
                            bytes - self.phys.free(Node::Gpu),
                            None,
                            Some(block),
                        );
                        dt = dt.saturating_add(c);
                        if self.phys.free(Node::Gpu) < bytes {
                            // GPU genuinely full (e.g. balloon): skip.
                            self.tick(dt);
                            total = total.saturating_add(dt);
                            continue;
                        }
                    }
                    let pages = self.move_pages(vpns, Node::Cpu, Node::Gpu);
                    self.uvm.touch_lru(block);
                    dt = dt.saturating_add(self.link.bulk(bytes, Direction::H2D));
                    self.session.perf.count(gh_perf::Ctr::MigratedPages, pages);
                    if self.session.bus.is_on() {
                        self.session.bus.emit(gh_trace::Event::Migration {
                            engine: gh_trace::Engine::Prefetch,
                            dir: gh_trace::Dir::H2D,
                            pages,
                            bytes: bytes.get(),
                        });
                        self.session.bus.count("uvm.pages_migrated_in", pages);
                        self.session.bus.count("uvm.bytes_migrated_in", bytes.get());
                        self.session.bus.observe("migration.bytes", bytes.get());
                    }
                }
                Node::Cpu => {
                    let pages = self.move_pages(vpns, Node::Gpu, Node::Cpu);
                    if pages == 0 {
                        continue;
                    }
                    let bytes = Pages::new(pages) * page;
                    self.uvm.drop_block(block);
                    dt = dt.saturating_add(self.link.bulk(bytes, Direction::D2H));
                    self.session.perf.count(gh_perf::Ctr::MigratedPages, pages);
                    if self.session.bus.is_on() {
                        self.session.bus.emit(gh_trace::Event::Migration {
                            engine: gh_trace::Engine::Prefetch,
                            dir: gh_trace::Dir::D2H,
                            pages,
                            bytes: bytes.get(),
                        });
                        self.session.bus.count("uvm.pages_migrated_out", pages);
                        self.session
                            .bus
                            .count("uvm.bytes_migrated_out", bytes.get());
                        self.session.bus.observe("migration.bytes", bytes.get());
                    }
                }
            }
            self.tick(dt);
            total = total.saturating_add(dt);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RuntimeOptions;
    use gh_mem::params::{KIB, MIB};
    use proptest::prelude::*;
    use std::collections::VecDeque;

    fn rt() -> Runtime {
        Runtime::new(CostParams::default(), RuntimeOptions::default())
    }

    /// Writes `[off, off + len)` of `buf` in a GPU kernel.
    fn gpu_touch(r: &mut Runtime, buf: &crate::Buffer, off: u64, len: u64) {
        let mut k = r.launch("touch");
        k.write(buf, off, len);
        k.finish();
    }

    /// Fills the GPU with `cudaMalloc` memory until `left` bytes are free
    /// (`cudaMalloc` rounds to 2 MiB pages, so the gap must be a multiple).
    fn fill_gpu_to(r: &mut Runtime, left: u64) {
        let fill = r.gpu_free() - left;
        assert_eq!(fill % (2 * MIB), 0, "fill of {fill} bytes");
        r.cuda_malloc(Bytes::new(fill), "fill").unwrap();
        assert_eq!(r.gpu_free(), left);
    }

    #[test]
    fn fault_that_eviction_cannot_cover_falls_back_to_remote() {
        // Eviction frees B's 64 KiB but A's own tail is protected, so
        // 2,016 KiB are free for a 2 MiB block: the fault must map the
        // block remotely, not migrate into a full GPU.
        let mut r = Runtime::new(CostParams::with_4k_pages(), RuntimeOptions::default());
        let b = r.cuda_malloc_managed(Bytes::new(64 * KIB), "b");
        gpu_touch(&mut r, &b, 0, 64 * KIB);
        let a = r.cuda_malloc_managed(Bytes::new(2 * MIB + 1_480 * KIB), "a");
        r.cpu_write(&a, 0, 2 * MIB);
        gpu_touch(&mut r, &a, 2 * MIB, 1_480 * KIB);
        fill_gpu_to(&mut r, 1_952 * KIB);
        let fallbacks = r.uvm.remote_fallbacks();
        let mut k = r.launch("read");
        k.read(&a, 0, 2 * MIB);
        let rep = k.finish();
        assert_eq!(r.uvm.remote_fallbacks(), fallbacks + 1);
        assert_eq!(rep.traffic.pages_migrated_in, 0);
        assert_eq!(r.gpu_free(), 2_016 * KIB, "B was evicted");
        let vpns = r.os().system_pt.vpn_range(a.range.addr, 2 * MIB);
        assert_eq!(
            r.os().system_pt.count_resident_in(vpns, Node::Cpu),
            Pages::new(512)
        );
    }

    #[test]
    fn prefetch_that_eviction_cannot_cover_skips_the_block() {
        // Evicting B frees 1 MiB, leaving 1,448 KiB free for A's 2 MiB
        // block: the prefetch skips it.
        let mut r = Runtime::new(CostParams::with_4k_pages(), RuntimeOptions::default());
        let b = r.cuda_malloc_managed(Bytes::new(MIB), "b");
        gpu_touch(&mut r, &b, 0, MIB);
        let a = r.cuda_malloc_managed(Bytes::new(2 * MIB), "a");
        r.cpu_write(&a, 0, 2 * MIB);
        fill_gpu_to(&mut r, 424 * KIB);
        r.prefetch(&a, 0, 2 * MIB, Node::Gpu);
        assert_eq!(r.gpu_free(), 1_448 * KIB, "B was evicted");
        let vpns = r.os().system_pt.vpn_range(a.range.addr, 2 * MIB);
        assert_eq!(
            r.os().system_pt.count_resident_in(vpns, Node::Cpu),
            Pages::new(512)
        );
    }

    #[test]
    fn block_math() {
        assert_eq!(block_of(0), 0);
        assert_eq!(block_of(BLOCK - 1), 0);
        assert_eq!(block_of(BLOCK), 1);
        let clip = VaRange {
            addr: BLOCK / 2,
            len: BLOCK,
        };
        let r0 = block_range(0, clip);
        assert_eq!(r0.addr, BLOCK / 2);
        assert_eq!(r0.len, BLOCK / 2);
        let r1 = block_range(1, clip);
        assert_eq!(r1.addr, BLOCK);
        assert_eq!(r1.len, BLOCK / 2);
    }

    #[test]
    fn lru_touch_moves_to_back() {
        let mut s = UvmState::new();
        s.touch_lru(1);
        s.touch_lru(2);
        s.touch_lru(1);
        assert_eq!(s.lru.order(), vec![2, 1]);
    }

    /// The LRU as a `VecDeque` with position scans, as the driver kept it
    /// before the linked list: the reference for [`Lru`].
    #[derive(Default)]
    struct DequeLru(VecDeque<u64>);

    impl DequeLru {
        fn touch(&mut self, block: u64) {
            self.drop_block(block);
            self.0.push_back(block);
        }

        fn drop_block(&mut self, block: u64) {
            if let Some(pos) = self.0.iter().position(|&b| b == block) {
                self.0.remove(pos);
            }
        }

        fn forget_range(&mut self, range: VaRange) {
            self.0
                .retain(|&b| b * BLOCK >= range.end() || (b + 1) * BLOCK <= range.addr);
        }

        /// `uvm_evict_lru`'s scan with one unit freed per victim.
        fn evict(
            &mut self,
            needed: usize,
            exclude: Option<VaRange>,
            skip: Option<u64>,
        ) -> Vec<u64> {
            let mut victims = Vec::new();
            let mut idx = 0;
            while victims.len() < needed && idx < self.0.len() {
                let block = self.0[idx];
                let all = VaRange {
                    addr: 0,
                    len: u64::MAX,
                };
                let in_excluded =
                    exclude.is_some_and(|r| block_range(block, all).intersect(&r).is_some());
                if in_excluded || Some(block) == skip {
                    idx += 1;
                    continue;
                }
                victims.push(block);
                self.drop_block(block);
            }
            victims
        }
    }

    /// `uvm_evict_lru`'s loop over [`UvmState::next_victim`], one unit
    /// freed per victim.
    fn evict(
        s: &mut UvmState,
        needed: usize,
        exclude: Option<VaRange>,
        skip: Option<u64>,
    ) -> Vec<u64> {
        let mut victims = Vec::new();
        let mut scan = s.victims(exclude, skip);
        while victims.len() < needed {
            let Some(block) = s.next_victim(&mut scan) else {
                break;
            };
            victims.push(block);
            s.drop_block(block);
        }
        victims
    }

    proptest! {
        /// Random touches, drops, freed ranges (quarter-block aligned, so
        /// some cut blocks) and eviction scans leave the linked list in
        /// the deque's order, and each scan picks the deque's victims.
        #[test]
        fn lru_matches_the_deque_reference(ops in proptest::collection::vec(
            (0u8..4, 0u64..24, 0u64..12, 0usize..5, prop::bool::ANY), 0..120)) {
            let (mut s, mut reference) = (UvmState::new(), DequeLru::default());
            for (op, block, n, needed, flag) in ops {
                let range = VaRange {
                    addr: block * BLOCK / 4 * 3,
                    len: n * BLOCK / 4,
                };
                match op {
                    0 => {
                        s.touch_lru(block);
                        reference.touch(block);
                    }
                    1 => {
                        s.drop_block(block);
                        reference.drop_block(block);
                    }
                    2 => {
                        s.forget_range(range);
                        reference.forget_range(range);
                    }
                    _ => {
                        let exclude = flag.then_some(range);
                        let skip = (n % 2 == 0).then_some(n);
                        prop_assert_eq!(
                            evict(&mut s, needed, exclude, skip),
                            reference.evict(needed, exclude, skip)
                        );
                    }
                }
                prop_assert_eq!(s.lru.order(), reference.0.iter().copied().collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn first_touch_places_block_on_gpu() {
        let mut r = rt();
        let b = r.cuda_malloc_managed(Bytes::new(4 * MIB), "m");
        let block = block_of(b.range.addr);
        let before = r.gpu_used();
        let (cost, on_gpu, on_cpu) = r.uvm_first_touch_block(block, b.range);
        assert!(cost > 0);
        assert_eq!(on_cpu, 0);
        assert_eq!(on_gpu * r.params().system_page_size, 2 * MIB);
        assert_eq!(r.gpu_used() - before, 2 * MIB);
        // Idempotent: already-populated pages are skipped.
        let (_, again, _) = r.uvm_first_touch_block(block, b.range);
        assert_eq!(again, 0);
    }

    #[test]
    fn migrate_in_moves_cpu_pages() {
        let mut r = rt();
        let b = r.cuda_malloc_managed(Bytes::new(2 * MIB), "m");
        r.cpu_write(&b, 0, 2 * MIB); // CPU-resident now
        assert_eq!(r.rss(), 2 * MIB);
        let block = block_of(b.range.addr);
        let (cost, pages) = r.uvm_migrate_block_in(block, b.range);
        assert!(cost > 0);
        assert_eq!(pages * r.params().system_page_size, 2 * MIB);
        assert_eq!(r.rss(), 0);
    }

    #[test]
    fn eviction_allows_cross_allocation_victims() {
        let params = CostParams {
            gpu_mem_bytes: 8 * MIB,
            gpu_driver_baseline: 0,
            ..Default::default()
        };
        let mut r = Runtime::new(params, RuntimeOptions::default());
        // Fill the GPU with one managed allocation.
        let a = r.cuda_malloc_managed(Bytes::new(8 * MIB), "a");
        for blk in 0..4 {
            r.uvm_first_touch_block(block_of(a.range.addr) + blk, a.range);
        }
        assert!(r.gpu_free() < MIB);
        // A second allocation faulting in may evict `a`'s blocks.
        let b = r.cuda_malloc_managed(Bytes::new(2 * MIB), "b");
        r.cpu_write(&b, 0, 2 * MIB);
        let (_, pages) = r.uvm_migrate_block_in(block_of(b.range.addr), b.range);
        assert!(pages > 0, "cross-allocation eviction must succeed");
        assert!(r.uvm.evictions() > 0);
    }

    #[test]
    fn self_eviction_is_refused_with_remote_fallback() {
        // The natural-oversubscription shape (paper §7, 34-qubit case):
        // one allocation larger than the GPU. First-touch fills the GPU
        // (evicting its own cold blocks — allowed for population), but
        // fault-driven migration refuses self-eviction and falls back to
        // remote mapping.
        let params = CostParams {
            gpu_mem_bytes: 8 * MIB,
            gpu_driver_baseline: 0,
            ..Default::default()
        };
        let mut r = Runtime::new(params, RuntimeOptions::default());
        let a = r.cuda_malloc_managed(Bytes::new(16 * MIB), "a");
        let first = block_of(a.range.addr);
        for blk in 0..8 {
            r.uvm_first_touch_block(first + blk, a.range);
        }
        // GPU holds at most 4 of the 8 blocks; at least one early block
        // was displaced to the CPU.
        let vpns = r.os().system_pt.vpn_range(a.range.addr, 2 * MIB);
        let cpu_pages = r.os().system_pt.count_resident_in(vpns, Node::Cpu);
        assert!(cpu_pages.get() > 0, "early block must have been displaced");
        // Fault-driven migration of that block: every victim would be
        // `a` itself → refused.
        let (_, pages) = r.uvm_migrate_block_in(first, a.range);
        assert_eq!(pages, 0, "self-eviction refused → remote fallback");
        assert!(r.uvm.remote_fallbacks() >= 1);
    }

    #[test]
    fn retrieve_to_cpu_brings_pages_back() {
        let mut r = rt();
        let b = r.cuda_malloc_managed(Bytes::new(2 * MIB), "m");
        r.uvm_first_touch_block(block_of(b.range.addr), b.range);
        assert_eq!(r.rss(), 0);
        let cost = r.uvm_retrieve_to_cpu(b.range);
        assert!(cost >= r.params().uvm_fault_batch);
        assert_eq!(r.rss(), 2 * MIB);
        // Second retrieve is free (nothing GPU-resident).
        assert_eq!(r.uvm_retrieve_to_cpu(b.range), 0);
    }

    #[test]
    fn prefetch_to_gpu_then_cpu_roundtrip() {
        let mut r = rt();
        let b = r.cuda_malloc_managed(Bytes::new(6 * MIB), "m");
        r.cpu_write(&b, 0, 6 * MIB);
        let dt = r.prefetch(&b, 0, 6 * MIB, Node::Gpu);
        assert!(dt > 0);
        assert_eq!(r.rss(), 0);
        assert_eq!(r.gpu_used() - r.params().gpu_driver_baseline, 6 * MIB);
        r.prefetch(&b, 0, 6 * MIB, Node::Cpu);
        assert_eq!(r.rss(), 6 * MIB);
    }

    #[test]
    fn free_managed_reclaims_both_tiers() {
        let mut r = rt();
        let b = r.cuda_malloc_managed(Bytes::new(4 * MIB), "m");
        r.cpu_write(&b, 0, 2 * MIB);
        r.uvm_first_touch_block(block_of(b.range.addr) + 1, b.range);
        let gpu_before_free = r.gpu_used();
        assert!(gpu_before_free > r.params().gpu_driver_baseline);
        r.free(b);
        assert_eq!(r.rss(), 0);
        assert_eq!(r.gpu_used(), r.params().gpu_driver_baseline);
    }
}
