//! The OS memory-management model: address space, lazy population,
//! first-touch fault service, teardown.

use gh_mem::clock::Ns;
use gh_mem::pagetable::PageTable;
use gh_mem::params::{CostParams, MIB};
use gh_mem::phys::{Node, PhysMem};
use gh_units::{widen, Bytes, Vpn};

use crate::vma::{VaRange, Vma, VmaKind};
use std::collections::BTreeMap;

/// OS-level switches from the paper's §3 testbed configuration.
#[derive(Debug, Clone, Default)]
pub struct OsConfig {
    /// Automatic NUMA balancing. The paper *disables* it because AutoNUMA
    /// hint faults hurt GPU-heavy applications; when enabled here, every
    /// fault pays an extra bookkeeping cost and periodic hint-fault sweeps
    /// are charged by the runtime layer.
    pub autonuma: bool,
    /// `init_on_alloc` (zero pages at allocation instead of at fault).
    /// Off in the paper's testbed; when on, `mmap` pays the zero-fill for
    /// the whole region up front.
    pub init_on_alloc: bool,
}

/// Result of a fault-path invocation.
#[derive(Debug, Clone, Copy)]
pub struct FaultOutcome {
    /// Virtual time consumed.
    pub cost: Ns,
    /// Node the page ended up on (or already was on).
    pub placed: Node,
    /// Whether a fault was actually serviced (false = page was already
    /// populated and the access proceeded directly).
    pub faulted: bool,
}

/// The operating system: virtual address space + system-wide page table.
#[derive(Debug)]
pub struct Os {
    params: CostParams,
    config: OsConfig,
    /// The integrated system-wide page table (CPU-resident, SMMU-walked).
    pub system_pt: PageTable,
    vmas: BTreeMap<u64, Vma>,
    va_cursor: u64,
    cpu_faults: u64,
    ats_faults: u64,
    bus: gh_trace::Bus,
    perf: gh_perf::Perf,
}

impl Os {
    /// Boots the OS with the given cost model and configuration.
    /// Observability is off until [`Os::with_obs`] injects the session's
    /// handles.
    pub fn new(params: CostParams, config: OsConfig) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "boot-time config validation; fail fast before any state exists"
        )]
        params.validate().expect("invalid cost parameters");
        let page = params.system_page_size;
        Self {
            params,
            config,
            system_pt: PageTable::new(page),
            vmas: BTreeMap::new(),
            va_cursor: 2 * MIB, // keep null page unmapped; 2 MiB alignment
            cpu_faults: 0,
            ats_faults: 0,
            bus: gh_trace::Bus::off(),
            perf: gh_perf::Perf::off(),
        }
    }

    /// Attaches the owning session's observability handles. Recording is
    /// report-only: fault costs and placements are bit-identical either
    /// way.
    pub fn with_obs(mut self, bus: gh_trace::Bus, perf: gh_perf::Perf) -> Self {
        self.bus = bus;
        self.perf = perf;
        self
    }

    /// The cost model in force.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// OS configuration in force.
    pub fn config(&self) -> &OsConfig {
        &self.config
    }

    /// Count of CPU-originated minor faults serviced.
    pub fn cpu_faults(&self) -> u64 {
        self.cpu_faults
    }

    /// Count of GPU-originated (SMMU/ATS) faults serviced.
    pub fn ats_faults(&self) -> u64 {
        self.ats_faults
    }

    /// Creates a VMA of `len` bytes (rounded up to the page size) and
    /// returns it with the creation cost. No physical memory is assigned
    /// (unless `init_on_alloc` is set, which charges — but still lazily
    /// places — the zero-fill).
    pub fn mmap(&mut self, len: u64, kind: VmaKind, tag: &str) -> (VaRange, Ns) {
        assert!(len > 0, "zero-length mmap");
        let page = self.params.system_page_size;
        let aligned_len = len.div_ceil(page) * page;
        // 2 MiB-align every VMA so access-counter regions and GPU pages
        // never straddle two allocations.
        let addr = self.va_cursor;
        self.va_cursor += aligned_len.div_ceil(2 * MIB) * (2 * MIB);
        let range = VaRange {
            addr,
            len: aligned_len,
        };
        self.vmas.insert(
            addr,
            Vma {
                range,
                kind,
                policy: crate::numa::NumaPolicy::FirstTouch,
                tag: tag.to_string(),
            },
        );
        let mut cost = self.params.vma_create;
        if self.config.init_on_alloc {
            cost = cost.saturating_add(CostParams::transfer_ns(
                Bytes::new(aligned_len),
                self.params.lpddr_bw,
            ));
        }
        if self.bus.is_on() {
            self.bus.emit(gh_trace::Event::VmaCreate {
                va: addr,
                bytes: aligned_len,
            });
            self.bus.count("os.vma_created", 1);
        }
        (range, cost)
    }

    /// Sets the NUMA placement policy of the VMA at `range.addr`.
    pub fn set_policy(&mut self, range: VaRange, policy: crate::numa::NumaPolicy) {
        #[expect(clippy::panic, reason = "an unknown VMA is a caller bug")]
        let vma = self
            .vmas
            .get_mut(&range.addr)
            .unwrap_or_else(|| panic!("set_policy on unknown VMA at {:#x}", range.addr));
        vma.policy = policy;
    }

    /// Looks up the VMA containing `addr`.
    pub fn vma_at(&self, addr: u64) -> Option<&Vma> {
        self.vmas
            .range(..=addr)
            .next_back()
            .map(|(_, v)| v)
            .filter(|v| v.range.contains(addr))
    }

    /// Iterates over all live VMAs.
    pub fn vmas(&self) -> impl Iterator<Item = &Vma> {
        self.vmas.values()
    }

    /// Destroys a VMA: unmaps every populated system page (releasing its
    /// frame) and removes the area. Returns the teardown cost, which is
    /// dominated by per-PTE work — the Fig 6 effect.
    ///
    /// Pages this VMA may hold in the *GPU-exclusive* table must be torn
    /// down by the CUDA layer before calling this.
    pub fn munmap(&mut self, range: VaRange, phys: &mut PhysMem) -> Ns {
        #[expect(clippy::panic, reason = "an unknown VMA is a caller bug")]
        let vma = self
            .vmas
            .remove(&range.addr)
            .unwrap_or_else(|| panic!("munmap of unknown VMA at {:#x}", range.addr));
        assert_eq!(vma.range.len, range.len, "partial munmap not modelled");
        let page = Bytes::new(self.params.system_page_size);
        let vpns = self.system_pt.vpn_range(range.addr, range.len);
        let removed = self.system_pt.unmap_range(vpns);
        for (_, pte) in &removed {
            phys.release(pte.node, page);
        }
        if self.bus.is_on() {
            self.bus.emit(gh_trace::Event::VmaDestroy {
                ptes: widen(removed.len()),
            });
            self.bus.count("os.vma_destroyed", 1);
            self.bus.count("os.pte_teardowns", widen(removed.len()));
        }
        self.params.vma_create / 2 + widen(removed.len()) * self.params.pte_teardown
    }

    /// Picks the frame node for a first touch honoring the VMA's NUMA
    /// policy. Panics if a `Bind` target (or both tiers) is exhausted.
    fn place_first_touch(&mut self, vpn: Vpn, toucher: Node, phys: &mut PhysMem) -> (Node, u64) {
        let page = self.params.system_page_size;
        let policy = self
            .vma_at(vpn.get() * page)
            .map(|v| v.policy)
            .unwrap_or_default();
        let (primary, fallback) = policy.place(toucher, vpn);
        match phys.alloc(primary, Bytes::new(page)) {
            Ok(f) => (primary, f),
            #[expect(
                clippy::panic,
                reason = "Bind policy is documented to fail hard when the node is full"
            )]
            Err(e) if !fallback => panic!("NUMA-bound allocation failed: {e}"),
            Err(_) => {
                let other = primary.peer();
                #[expect(
                    clippy::expect_used,
                    reason = "both tiers exhausted means the experiment exceeds machine memory"
                )]
                let f = phys
                    .alloc(other, Bytes::new(page))
                    .expect("both memory tiers exhausted");
                (other, f)
            }
        }
    }

    /// CPU touches one system page (read or write). If unpopulated, a
    /// minor fault places it per the VMA's policy (first-touch default:
    /// the CPU node) and zero-fills.
    pub fn touch_cpu(&mut self, vpn: Vpn, phys: &mut PhysMem) -> FaultOutcome {
        if let Some(pte) = self.system_pt.translate(vpn) {
            return FaultOutcome {
                cost: 0,
                placed: pte.node,
                faulted: false,
            };
        }
        let page = self.params.system_page_size;
        let (node, frame) = self.place_first_touch(vpn, Node::Cpu, phys);
        self.system_pt.populate(vpn, node, frame);
        self.cpu_faults = self.cpu_faults.saturating_add(1);
        self.perf.count(gh_perf::Ctr::Faults, 1);
        let zero_bw = match node {
            Node::Cpu => self.params.lpddr_bw,
            Node::Gpu => self.params.c2c_h2d_bw,
        };
        let mut cost =
            self.params.cpu_fault_fixed + CostParams::transfer_ns(Bytes::new(page), zero_bw);
        if self.config.autonuma {
            cost = cost.saturating_add(cost / 4); // NUMA-hinting bookkeeping overhead
        }
        if self.bus.is_on() {
            self.bus.emit(gh_trace::Event::PageFault {
                kind: gh_trace::FaultKind::Cpu,
                va: vpn.get() * page,
                cost,
            });
            self.bus.count("os.cpu_faults", 1);
            self.bus.observe("fault.cost_ns", cost);
        }
        FaultOutcome {
            cost,
            placed: node,
            faulted: true,
        }
    }

    /// Bulk CPU first-touch over a byte range: returns total cost and the
    /// number of pages actually faulted.
    pub fn touch_cpu_range(&mut self, range: VaRange, phys: &mut PhysMem) -> (Ns, u64) {
        let mut cost: Ns = 0;
        let mut faults: u64 = 0;
        for vpn in self.system_pt.vpn_range(range.addr, range.len) {
            let o = self.touch_cpu(vpn, phys);
            cost = cost.saturating_add(o.cost);
            if o.faulted {
                faults = faults.saturating_add(1);
            }
        }
        (cost, faults)
    }

    /// Services a GPU-originated first-touch fault on a system page: the
    /// SMMU found no valid PTE, raised a fault, and the OS services it *on
    /// the CPU*. First-touch policy places the page on the GPU node (the
    /// toucher); if HBM is full the page falls back to the CPU node.
    ///
    /// This path is intentionally expensive (`ats_fault_fixed`, serialized
    /// on the CPU): it is the §5.1.2 GPU-side-initialization bottleneck.
    pub fn ats_fault(&mut self, vpn: Vpn, phys: &mut PhysMem) -> FaultOutcome {
        if let Some(pte) = self.system_pt.translate(vpn) {
            return FaultOutcome {
                cost: 0,
                placed: pte.node,
                faulted: false,
            };
        }
        let page = self.params.system_page_size;
        let (node, frame) = self.place_first_touch(vpn, Node::Gpu, phys);
        self.system_pt.populate(vpn, node, frame);
        self.ats_faults = self.ats_faults.saturating_add(1);
        self.perf.count(gh_perf::Ctr::Faults, 1);
        let mut cost = self.params.ats_fault_fixed
            + gh_units::ns_from_f64(page as f64 * self.params.ats_fault_per_byte);
        if self.config.autonuma {
            cost = cost.saturating_add(cost / 4);
        }
        if self.bus.is_on() {
            self.bus.emit(gh_trace::Event::PageFault {
                kind: gh_trace::FaultKind::Ats,
                va: vpn.get() * page,
                cost,
            });
            self.bus.count("os.ats_faults", 1);
            self.bus.observe("fault.cost_ns", cost);
        }
        FaultOutcome {
            cost,
            placed: node,
            faulted: true,
        }
    }

    /// Pre-populates every page of `range` on the CPU node in bulk
    /// (`cudaHostRegister` / artificial pre-init loop, §5.1.2). Much
    /// cheaper per page than the fault path. Returns (cost, pages created).
    pub fn host_register(&mut self, range: VaRange, phys: &mut PhysMem) -> (Ns, u64) {
        let page = self.params.system_page_size;
        let mut created: u64 = 0;
        for vpn in self.system_pt.vpn_range(range.addr, range.len) {
            if !self.system_pt.is_populated(vpn) {
                #[expect(
                    clippy::expect_used,
                    reason = "mlock past CPU capacity is an experiment-config error"
                )]
                let frame = phys
                    .alloc(Node::Cpu, Bytes::new(page))
                    .expect("CPU physical memory exhausted");
                self.system_pt.populate(vpn, Node::Cpu, frame);
                created = created.saturating_add(1);
            }
        }
        let cost = created * self.params.host_register_per_page
            + CostParams::transfer_ns(Bytes::new(created * page), self.params.lpddr_bw);
        if self.bus.is_on() && created > 0 {
            self.bus.emit(gh_trace::Event::Pin {
                va: range.addr,
                bytes: created * page,
            });
            self.bus.count("os.pages_pinned", created);
        }
        (cost, created)
    }

    /// Process RSS as the paper's profiler reports it: bytes of system
    /// pages resident in **CPU** physical memory.
    pub fn rss(&self) -> u64 {
        self.system_pt.resident_bytes(Node::Cpu).get()
    }

    /// `/proc/<pid>/smaps`-style per-VMA residency breakdown: for every
    /// live VMA, `(tag, kind, vma bytes, CPU-resident bytes, GPU-resident
    /// bytes)`. The paper's profiler reads `smaps_rollup`; this is the
    /// un-rolled view for diagnosis.
    pub fn smaps(&self) -> Vec<SmapsEntry> {
        let page = self.system_pt.page();
        self.vmas
            .values()
            .map(|v| {
                let vpns = self.system_pt.vpn_range(v.range.addr, v.range.len);
                let res = self.system_pt.residency(vpns);
                SmapsEntry {
                    tag: v.tag.clone(),
                    kind: v.kind,
                    size: v.range.len,
                    resident_cpu: (res.cpu * page).get(),
                    resident_gpu: (res.gpu * page).get(),
                }
            })
            .collect()
    }
}

/// One row of [`Os::smaps`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmapsEntry {
    /// Buffer tag supplied at allocation.
    pub tag: String,
    /// VMA kind.
    pub kind: VmaKind,
    /// Virtual size in bytes.
    pub size: u64,
    /// Bytes resident in CPU (LPDDR) memory.
    pub resident_cpu: u64,
    /// Bytes resident in GPU (HBM) memory.
    pub resident_gpu: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gh_mem::params::KIB;
    use gh_units::Pages;

    fn setup() -> (Os, PhysMem) {
        let params = CostParams::with_4k_pages();
        let phys = PhysMem::new(
            Bytes::new(params.cpu_mem_bytes),
            Bytes::new(params.gpu_mem_bytes),
            Bytes::ZERO,
        );
        (Os::new(params, OsConfig::default()), phys)
    }

    #[test]
    fn mmap_creates_lazy_vma() {
        let (mut os, _) = setup();
        let (r, cost) = os.mmap(10 * KIB, VmaKind::System, "buf");
        assert_eq!(r.len, 12 * KIB, "rounded to page multiple");
        assert!(cost > 0);
        assert_eq!(
            os.system_pt.populated_pages(),
            Pages::ZERO,
            "no eager population"
        );
        assert_eq!(os.rss(), 0);
    }

    #[test]
    fn vma_lookup_by_address() {
        let (mut os, _) = setup();
        let (a, _) = os.mmap(4 * KIB, VmaKind::System, "a");
        let (b, _) = os.mmap(4 * KIB, VmaKind::Managed, "b");
        assert_eq!(os.vma_at(a.addr).unwrap().tag, "a");
        assert_eq!(os.vma_at(b.addr).unwrap().kind, VmaKind::Managed);
        assert!(os.vma_at(b.end() + 4 * MIB).is_none());
    }

    #[test]
    fn vmas_are_2mib_aligned() {
        let (mut os, _) = setup();
        let (a, _) = os.mmap(1, VmaKind::System, "a");
        let (b, _) = os.mmap(1, VmaKind::System, "b");
        assert_eq!(a.addr % (2 * MIB), 0);
        assert_eq!(b.addr % (2 * MIB), 0);
        assert!(b.addr >= a.addr + 2 * MIB);
    }

    #[test]
    fn cpu_first_touch_faults_once() {
        let (mut os, mut phys) = setup();
        let (r, _) = os.mmap(4 * KIB, VmaKind::System, "x");
        let vpn = os.system_pt.vpn(r.addr);
        let o1 = os.touch_cpu(vpn, &mut phys);
        assert!(o1.faulted);
        assert_eq!(o1.placed, Node::Cpu);
        assert!(o1.cost > 0);
        let o2 = os.touch_cpu(vpn, &mut phys);
        assert!(!o2.faulted);
        assert_eq!(o2.cost, 0);
        assert_eq!(os.cpu_faults(), 1);
        assert_eq!(os.rss(), 4 * KIB);
    }

    #[test]
    fn touch_range_counts_pages() {
        let (mut os, mut phys) = setup();
        let (r, _) = os.mmap(40 * KIB, VmaKind::System, "x");
        let (cost, faults) = os.touch_cpu_range(r, &mut phys);
        assert_eq!(faults, 10);
        assert!(cost >= 10 * os.params().cpu_fault_fixed);
        // Second touch is free.
        let (cost2, faults2) = os.touch_cpu_range(r, &mut phys);
        assert_eq!((cost2, faults2), (0, 0));
    }

    #[test]
    fn ats_fault_places_on_gpu_first() {
        let (mut os, mut phys) = setup();
        let (r, _) = os.mmap(4 * KIB, VmaKind::System, "x");
        let vpn = os.system_pt.vpn(r.addr);
        let o = os.ats_fault(vpn, &mut phys);
        assert!(o.faulted);
        assert_eq!(o.placed, Node::Gpu);
        assert_eq!(os.ats_faults(), 1);
        assert_eq!(os.rss(), 0, "GPU-resident pages are not CPU RSS");
        assert_eq!(phys.used(Node::Gpu), Bytes::new(4 * KIB));
    }

    #[test]
    fn ats_fault_falls_back_to_cpu_when_gpu_full() {
        let params = CostParams::with_4k_pages();
        let mut phys = PhysMem::new(
            Bytes::new(params.cpu_mem_bytes),
            Bytes::new(8 * KIB),
            Bytes::ZERO,
        );
        let mut os = Os::new(params, OsConfig::default());
        let (r, _) = os.mmap(16 * KIB, VmaKind::System, "x");
        let vpns: Vec<Vpn> = os.system_pt.vpn_range(r.addr, r.len).into_iter().collect();
        assert_eq!(os.ats_fault(vpns[0], &mut phys).placed, Node::Gpu);
        assert_eq!(os.ats_fault(vpns[1], &mut phys).placed, Node::Gpu);
        assert_eq!(os.ats_fault(vpns[2], &mut phys).placed, Node::Cpu);
    }

    #[test]
    fn ats_fault_costs_more_than_cpu_fault() {
        let (mut os, mut phys) = setup();
        let (r, _) = os.mmap(8 * KIB, VmaKind::System, "x");
        let v0 = os.system_pt.vpn(r.addr);
        let cpu = os.touch_cpu(v0, &mut phys);
        let gpu = os.ats_fault(v0.offset(1), &mut phys);
        assert!(
            gpu.cost > 2 * cpu.cost,
            "ATS fault ({}) must dwarf CPU fault ({})",
            gpu.cost,
            cpu.cost
        );
    }

    #[test]
    fn munmap_releases_frames_and_scales_with_pages() {
        let (mut os, mut phys) = setup();
        let (r, _) = os.mmap(400 * KIB, VmaKind::System, "x");
        os.touch_cpu_range(r, &mut phys);
        assert_eq!(phys.used(Node::Cpu), Bytes::new(400 * KIB));
        let cost_full = os.munmap(r, &mut phys);
        assert_eq!(phys.used(Node::Cpu), Bytes::ZERO);
        assert_eq!(os.system_pt.populated_pages(), Pages::ZERO);

        // An untouched VMA tears down almost for free.
        let (r2, _) = os.mmap(400 * KIB, VmaKind::System, "y");
        let cost_empty = os.munmap(r2, &mut phys);
        assert!(cost_full > cost_empty * 10);
    }

    #[test]
    fn dealloc_cost_64k_vs_4k_ratio_matches_fig6() {
        // Same byte size, two page sizes: the teardown ratio must be ~16×.
        let sz = 16 * MIB;
        let mut cost = [0u64; 2];
        for (i, params) in [CostParams::with_4k_pages(), CostParams::with_64k_pages()]
            .into_iter()
            .enumerate()
        {
            let mut phys = PhysMem::new(
                Bytes::new(params.cpu_mem_bytes),
                Bytes::new(params.gpu_mem_bytes),
                Bytes::ZERO,
            );
            let mut os = Os::new(params, OsConfig::default());
            let (r, _) = os.mmap(sz, VmaKind::System, "x");
            os.touch_cpu_range(r, &mut phys);
            cost[i] = os.munmap(r, &mut phys);
        }
        let ratio = cost[0] as f64 / cost[1] as f64;
        assert!(
            (10.0..=20.0).contains(&ratio),
            "4K/64K dealloc ratio {ratio} outside Fig 6 band"
        );
    }

    #[test]
    fn host_register_prepopulates_cheaper_than_faults() {
        let (mut os, mut phys) = setup();
        let (r, _) = os.mmap(4 * MIB, VmaKind::System, "x");
        let (reg_cost, created) = os.host_register(r, &mut phys);
        assert_eq!(created, 1024);
        assert_eq!(os.rss(), 4 * MIB);
        // Against a fresh OS, the fault path must be slower.
        let (mut os2, mut phys2) = setup();
        let (r2, _) = os2.mmap(4 * MIB, VmaKind::System, "y");
        let (fault_cost, _) = os2.touch_cpu_range(r2, &mut phys2);
        assert!(fault_cost > reg_cost);
        // Registering twice creates nothing new.
        let (_, created2) = os.host_register(r, &mut phys);
        assert_eq!(created2, 0);
    }

    #[test]
    fn autonuma_adds_overhead() {
        let params = CostParams::with_4k_pages();
        let mut phys = PhysMem::new(
            Bytes::new(params.cpu_mem_bytes),
            Bytes::new(params.gpu_mem_bytes),
            Bytes::ZERO,
        );
        let mut os_off = Os::new(params.clone(), OsConfig::default());
        let mut os_on = Os::new(
            params,
            OsConfig {
                autonuma: true,
                ..Default::default()
            },
        );
        let (r1, _) = os_off.mmap(4 * KIB, VmaKind::System, "x");
        let (r2, _) = os_on.mmap(4 * KIB, VmaKind::System, "x");
        let c_off = os_off
            .touch_cpu(os_off.system_pt.vpn(r1.addr), &mut phys)
            .cost;
        let c_on = os_on
            .touch_cpu(os_on.system_pt.vpn(r2.addr), &mut phys)
            .cost;
        assert!(c_on > c_off);
    }

    #[test]
    fn init_on_alloc_charges_mmap() {
        let params = CostParams::with_4k_pages();
        let mut os_off = Os::new(params.clone(), OsConfig::default());
        let mut os_on = Os::new(
            params,
            OsConfig {
                init_on_alloc: true,
                ..Default::default()
            },
        );
        let (_, c_off) = os_off.mmap(64 * MIB, VmaKind::System, "x");
        let (_, c_on) = os_on.mmap(64 * MIB, VmaKind::System, "x");
        assert!(c_on > c_off * 10);
    }

    #[test]
    #[should_panic(expected = "unknown VMA")]
    fn munmap_unknown_panics() {
        let (mut os, mut phys) = setup();
        os.munmap(
            VaRange {
                addr: 0x999,
                len: 4 * KIB,
            },
            &mut phys,
        );
    }
}

#[cfg(test)]
mod smaps_tests {
    use super::*;
    use crate::vma::VmaKind;
    use gh_mem::params::MIB;

    #[test]
    fn smaps_reports_split_residency() {
        let params = CostParams::default();
        let mut phys = PhysMem::new(
            Bytes::new(params.cpu_mem_bytes),
            Bytes::new(params.gpu_mem_bytes),
            Bytes::ZERO,
        );
        let mut os = Os::new(params, OsConfig::default());
        let (r, _) = os.mmap(4 * MIB, VmaKind::System, "buf");
        // Touch half from CPU, a quarter from GPU.
        os.touch_cpu_range(r.slice(0, 2 * MIB), &mut phys);
        for vpn in os.system_pt.vpn_range(r.addr + 2 * MIB, MIB) {
            os.ats_fault(vpn, &mut phys);
        }
        let maps = os.smaps();
        assert_eq!(maps.len(), 1);
        let e = &maps[0];
        assert_eq!(e.tag, "buf");
        assert_eq!(e.size, 4 * MIB);
        assert_eq!(e.resident_cpu, 2 * MIB);
        assert_eq!(e.resident_gpu, MIB);
    }

    #[test]
    fn smaps_empty_for_untouched_vma() {
        let params = CostParams::default();
        let mut os = Os::new(params, OsConfig::default());
        os.mmap(MIB, VmaKind::Managed, "lazy");
        let maps = os.smaps();
        assert_eq!(maps[0].resident_cpu + maps[0].resident_gpu, 0);
        assert_eq!(maps[0].kind, VmaKind::Managed);
    }
}
