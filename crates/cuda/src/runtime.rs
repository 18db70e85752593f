//! The simulated GH200 runtime: allocators, explicit copies, host-side
//! access, context management.

use gh_mem::clock::{Clock, Ns};
use gh_mem::counters::AccessCounters;
use gh_mem::link::{Direction, Link};
use gh_mem::pagetable::PageTable;
use gh_mem::params::CostParams;
use gh_mem::phys::{Node, OutOfMemory, PhysMem};
use gh_mem::smmu::Smmu;
use gh_mem::tlb::Tlb;
use gh_os::{Os, OsConfig, VmaKind};
use gh_profiler::MemProfiler;
use gh_units::{Bytes, Lines, Vpn};

use crate::buffer::{BufKind, Buffer};

/// `cudaMemAdvise` advice values (subset relevant to the model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemAdvise {
    /// Prefer placing (and keeping) the range on this node.
    PreferredLocation(Node),
    /// The range is read-shared: do not migrate it.
    ReadMostly,
    /// Remove previous advice.
    Clear,
}
use crate::kernel::Kernel;
use crate::uvm::UvmState;
use std::collections::HashMap;

/// Behavioural switches for a simulated run.
#[derive(Debug, Clone)]
pub struct RuntimeOptions {
    /// Enable the access-counter automatic migration engine for
    /// system-allocated memory (the paper disables it for the Fig 3
    /// overview, enables it for §5.2/§6).
    pub auto_migration: bool,
    /// Enable the UVM speculative sequential prefetcher for managed
    /// memory (hardware prefetcher, on by default on real systems).
    pub uvm_prefetch: bool,
    /// OS-level switches (AutoNUMA, init_on_alloc).
    pub os: OsConfig,
    /// Memory-profiler sampling period in virtual ns.
    pub profiler_period: Ns,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        Self {
            auto_migration: true,
            uvm_prefetch: true,
            os: OsConfig::default(),
            profiler_period: 100_000, // 100 µs of virtual time
        }
    }
}

/// The simulated Grace Hopper node: one process, one GPU.
#[derive(Debug)]
pub struct Runtime {
    pub(crate) params: CostParams,
    pub(crate) clock: Clock,
    pub(crate) phys: PhysMem,
    pub(crate) os: Os,
    pub(crate) link: Link,
    pub(crate) smmu: Smmu,
    pub(crate) gpu_tlb: Tlb,
    /// GPU-exclusive page table (2 MiB pages) for `cudaMalloc` memory.
    pub(crate) gpu_pt: PageTable,
    pub(crate) counters: AccessCounters,
    /// One record per finished kernel in launch order — the only
    /// per-kernel store; [`Runtime::into_parts`] hands it to the report.
    pub(crate) kernels: Vec<crate::kernel::KernelRecord>,
    pub(crate) profiler: MemProfiler,
    pub(crate) uvm: UvmState,
    pub(crate) streams: crate::streams::State,
    allocs: HashMap<u32, (Buffer, String)>,
    /// Access-counter notifications waiting for driver service (FIFO,
    /// drained `counter_budget_per_kernel` at a time at kernel end).
    pub(crate) pending_notifs: std::collections::VecDeque<u64>,
    /// Allocations with migration advised off (`cudaMemAdvise`).
    pub(crate) advise_no_migrate: std::collections::HashSet<u64>,
    /// Remotely-touched system pages per counter region, accumulated
    /// across kernels; the migration driver moves exactly these (touched)
    /// pages, which is what produces 64 KiB-page amplification for
    /// sparse access patterns (Fig 7).
    pub(crate) remote_touched: HashMap<u64, std::collections::BTreeSet<Vpn>>,
    next_buf: u32,
    ctx_ready: bool,
    pub(crate) kernel_seq: u64,
    pub(crate) session: crate::session::SessionCtx,
    /// Cumulative pages moved between memories (every migration funnels
    /// through [`Runtime::move_page`]). State-level: available without
    /// tracing, feeds the sanitizer's capability-gating check.
    pub(crate) migrated_pages: u64,
    /// Stable-placement cache for the batched access path: per-buffer
    /// classification results, validated against the system page table's
    /// placement epoch. Keyed access only (buffer ids are never reused),
    /// so the `HashMap` cannot leak iteration order.
    placement_cache: HashMap<u32, PlacementEntry>,
    /// Recycled GPU-L2 model for the batched path: `Kernel::finish`
    /// parks the multi-megabyte [`gh_mem::SetCache`] here and the next
    /// launch revives it with an O(1) `reset()` instead of re-allocating
    /// and re-zeroing the whole slot array (the dominant per-launch host
    /// cost). Reference-forced runs keep the original fresh allocation.
    pub(crate) l2_pool: Option<gh_mem::SetCache>,
}

/// Cached whole-buffer placement snapshot (see
/// [`Runtime::classify_span_cached`]).
#[derive(Debug, Clone, Copy)]
struct PlacementEntry {
    /// `system_pt.placement_epoch()` when this entry was computed.
    epoch: u64,
    /// `Some(node)` when the whole buffer was uniformly resident on
    /// `node`; `None` when placement was mixed or partial.
    uniform: Option<Node>,
}

impl Runtime {
    /// Boots a simulated machine with a quiet session (no tracing, no
    /// profiling).
    pub fn new(params: CostParams, opts: RuntimeOptions) -> Self {
        Self::with_session(params, crate::session::SessionCtx::new(opts))
    }

    /// Boots a simulated machine owned by an explicit session: the
    /// session's observability handles are injected into every
    /// instrumented component, so concurrent runtimes in one process
    /// record independently.
    pub fn with_session(params: CostParams, session: crate::session::SessionCtx) -> Self {
        params.validate().expect("invalid cost parameters"); // gh-audit: allow(no-unwrap-in-lib) -- boot-time config validation; fail fast before any state exists
        let opts = &session.opts;
        let phys = if params.unified_pool {
            // MI300A-style single physical pool: `gpu_mem_bytes` is the
            // whole pool, shared by both nodes; `cpu_mem_bytes` is unused.
            PhysMem::new_unified(
                Bytes::new(params.gpu_mem_bytes),
                Bytes::new(params.gpu_driver_baseline),
            )
        } else {
            PhysMem::new(
                Bytes::new(params.cpu_mem_bytes),
                Bytes::new(params.gpu_mem_bytes),
                Bytes::new(params.gpu_driver_baseline),
            )
        };
        let os = Os::new(params.clone(), opts.os.clone())
            .with_obs(session.bus.clone(), session.perf.clone());
        let link = Link::new(
            params.c2c_h2d_bw,
            params.c2c_d2h_bw,
            params.c2c_random_eff,
            params.c2c_latency,
        )
        .with_obs(session.bus.clone());
        let smmu = Smmu::new(params.smmu_walk, params.ats_translate);
        let gpu_tlb =
            Tlb::new(params.gpu_tlb_entries).with_obs(session.bus.clone(), session.perf.clone());
        let gpu_pt = PageTable::new(params.gpu_page_size);
        // A unified pool has no second tier to migrate toward, so the
        // access-counter engine is hard-disabled regardless of options.
        let counters = AccessCounters::new(
            params.counter_region,
            params.counter_threshold,
            opts.auto_migration && !params.unified_pool,
        )
        .with_obs(session.bus.clone());
        let profiler = MemProfiler::new(opts.profiler_period);
        Self {
            params,
            clock: Clock::new(),
            phys,
            os,
            link,
            smmu,
            gpu_tlb,
            gpu_pt,
            counters,
            kernels: Vec::new(),
            profiler,
            uvm: UvmState::new(),
            streams: crate::streams::State::default(),
            allocs: HashMap::new(),
            advise_no_migrate: std::collections::HashSet::new(),
            pending_notifs: std::collections::VecDeque::new(),
            remote_touched: HashMap::new(),
            next_buf: 1,
            ctx_ready: false,
            kernel_seq: 0,
            session,
            migrated_pages: 0,
            placement_cache: HashMap::new(),
            l2_pool: None,
        }
    }

    /// Classifies the pages of a kernel span into placement runs, serving
    /// spans over buffers with stable placement from a per-buffer cache.
    ///
    /// The cache is keyed on the buffer id and validated against the
    /// system page table's placement epoch: any populate/unmap/remap
    /// anywhere bumps the epoch and invalidates every entry, so a hit
    /// guarantees the buffer's placement is exactly what was cached. A
    /// uniformly resident buffer then answers the whole span in O(1)
    /// without touching the page table.
    ///
    /// Uniformity is only ever *learned* from a span that covers the
    /// whole buffer and classifies to a single resident run — the cache
    /// never walks pages the kernel did not touch, so a miss costs
    /// exactly one span classification.
    pub(crate) fn classify_span_cached(
        &mut self,
        buf_id: u32,
        buf_range: gh_os::VaRange,
        vpns: gh_units::VpnRange,
    ) -> Vec<gh_mem::pagetable::PlacementRun> {
        let epoch = self.os.system_pt.placement_epoch();
        if let Some(e) = self.placement_cache.get(&buf_id) {
            if e.epoch == epoch {
                if let Some(node) = e.uniform {
                    self.session.perf.count(gh_perf::Ctr::FastSpans, 1);
                    return vec![(vpns, Some(node))];
                }
                return self.os.system_pt.classify_runs(vpns);
            }
        }
        let runs = self.os.system_pt.classify_runs(vpns);
        let whole = self.os.system_pt.vpn_range(buf_range.addr, buf_range.len);
        if vpns == whole {
            let uniform = match runs.as_slice() {
                [(vr, Some(node))] if *vr == whole => Some(*node),
                _ => None,
            };
            self.placement_cache
                .insert(buf_id, PlacementEntry { epoch, uniform });
        }
        runs
    }

    /// Boots with the calibrated defaults and default options.
    pub fn default_gh200() -> Self {
        Self::new(CostParams::default(), RuntimeOptions::default())
    }

    // ---------------------------------------------------------- queries --

    /// Current virtual time (ns).
    pub fn now(&self) -> Ns {
        self.clock.now()
    }

    /// The cost model in force.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Options in force.
    pub fn options(&self) -> &RuntimeOptions {
        &self.session.opts
    }

    /// The session context this runtime runs under (trace bus, profiler,
    /// sanitizer flag, options).
    pub fn session(&self) -> &crate::session::SessionCtx {
        &self.session
    }

    /// Process RSS (CPU-resident system pages), as the profiler reports.
    pub fn rss(&self) -> u64 {
        self.os.rss()
    }

    /// GPU used memory, `nvidia-smi` style (driver baseline included).
    pub fn gpu_used(&self) -> u64 {
        self.phys.used(Node::Gpu).get()
    }

    /// Free GPU memory.
    pub fn gpu_free(&self) -> u64 {
        self.phys.free(Node::Gpu).get()
    }

    /// Immutable view of the OS (page table inspection in tests).
    pub fn os(&self) -> &Os {
        &self.os
    }

    /// Immutable view of the interconnect (cumulative byte counters).
    pub fn link(&self) -> &Link {
        &self.link
    }

    /// Cumulative pages moved between memories over the machine's
    /// lifetime (state-level counter, available without tracing).
    pub fn migrated_pages(&self) -> u64 {
        self.migrated_pages
    }

    /// Builds the invariant sanitizer's view of the accounting state.
    /// `phase` labels the snapshot; `migration_supported` comes from the
    /// platform capability set the machine layer owns; `traced` must only
    /// be true when the bus was recording for the machine's whole
    /// lifetime (the conservation right-hand side is cumulative).
    pub fn sanitizer_snapshot<'a>(
        &'a self,
        phase: &'a str,
        migration_supported: bool,
        traced: bool,
    ) -> gh_units::sanitizer::Snapshot<'a> {
        let spt = &self.os.system_pt;
        let expected_cpu = spt.resident_bytes(Node::Cpu) + self.gpu_pt.resident_bytes(Node::Cpu);
        let expected_gpu = spt.resident_bytes(Node::Gpu)
            + self.gpu_pt.resident_bytes(Node::Gpu)
            + Bytes::new(self.params.gpu_driver_baseline);
        // The conservation right-hand side: bytes the semantic call sites
        // (UVM driver, access-counter driver, explicit copies) accounted
        // for on the bus — maintained independently of the link's own
        // bulk counters.
        let traced_h2d = traced.then(|| {
            Bytes::new(
                self.session
                    .bus
                    .counter_value("uvm.bytes_migrated_in")
                    .saturating_add(self.session.bus.counter_value("counters.bytes_migrated_in"))
                    .saturating_add(self.session.bus.counter_value("cuda.memcpy_bytes_h2d")),
            )
        });
        let traced_d2h = traced.then(|| {
            Bytes::new(
                self.session
                    .bus
                    .counter_value("uvm.bytes_migrated_out")
                    .saturating_add(self.session.bus.counter_value("cuda.memcpy_bytes_d2h")),
            )
        });
        gh_units::sanitizer::Snapshot {
            phase,
            now: self.now(),
            unified_pool: self.phys.is_unified(),
            cpu_capacity: self.phys.capacity(Node::Cpu),
            gpu_capacity: self.phys.capacity(Node::Gpu),
            cpu_used: self.phys.used(Node::Cpu),
            gpu_used: self.phys.used(Node::Gpu),
            expected_cpu_used: expected_cpu,
            expected_gpu_used: expected_gpu,
            bulk_h2d: self.link.bulk_bytes_h2d(),
            bulk_d2h: self.link.bulk_bytes_d2h(),
            traced_h2d,
            traced_d2h,
            migration_supported,
            migrated_pages: self.migrated_pages,
        }
    }

    /// Immutable view of the SMMU counters.
    pub fn smmu(&self) -> &Smmu {
        &self.smmu
    }

    /// Immutable view of the GPU TLB counters.
    pub fn gpu_tlb(&self) -> &Tlb {
        &self.gpu_tlb
    }

    /// Total access-counter notifications raised so far.
    pub fn notifications(&self) -> u64 {
        self.counters.total_notifications()
    }

    /// Consumes the runtime, returning the profiler sample series and
    /// the per-kernel records in launch order.
    pub fn into_parts(self) -> (Vec<gh_profiler::Sample>, Vec<crate::kernel::KernelRecord>) {
        (self.profiler.finish(), self.kernels)
    }

    /// Peak GPU usage observed by the profiler so far.
    pub fn peak_gpu(&self) -> u64 {
        self.profiler.peak_gpu()
    }

    /// Peak RSS observed by the profiler so far.
    pub fn peak_rss(&self) -> u64 {
        self.profiler.peak_rss()
    }

    // ------------------------------------------------------- time/profile --

    /// Advances the clock and feeds the profiler.
    pub(crate) fn tick(&mut self, dt: Ns) {
        self.clock.advance(dt);
        self.session.bus.set_now(self.clock.now());
        self.observe();
    }

    pub(crate) fn observe(&mut self) {
        self.profiler.observe(
            self.clock.now(),
            self.os.rss(),
            self.phys.used(Node::Gpu).get(),
        );
    }

    /// Charges the one-time GPU context initialization if not yet paid.
    /// Called from every CUDA API entry point; system-allocated memory
    /// never calls CUDA APIs, so pure-system applications pay this at
    /// their first kernel launch (paper §4).
    pub(crate) fn ensure_ctx(&mut self) {
        if !self.ctx_ready {
            self.ctx_ready = true;
            let start = self.now();
            let dt = self.params.ctx_init;
            self.tick(dt);
            self.session
                .bus
                .span_closed("cuda context init", "runtime", start);
        }
    }

    /// Whether the GPU context has been initialized yet.
    pub fn ctx_ready(&self) -> bool {
        self.ctx_ready
    }

    /// Explicit GPU context initialization (the `cudaFree(0)` idiom).
    /// The Rodinia harness does this during its first phase in every
    /// version; pure system-memory applications that skip it pay the
    /// cost at their first kernel launch instead (paper §4).
    pub fn cuda_init(&mut self) {
        self.ensure_ctx();
    }

    // ------------------------------------------------------- allocation --

    fn register(&mut self, range: gh_os::VaRange, kind: BufKind, tag: &str) -> Buffer {
        let id = self.next_buf;
        self.next_buf += 1;
        let buf = Buffer { id, range, kind };
        self.allocs.insert(id, (buf, tag.to_string()));
        buf
    }

    /// `malloc`: system-allocated memory. Lazy; no CUDA context involved.
    pub fn malloc_system(&mut self, bytes: Bytes, tag: &str) -> Buffer {
        let (range, cost) = self.os.mmap(bytes.get(), VmaKind::System, tag);
        self.tick(cost);
        self.register(range, BufKind::System, tag)
    }

    /// `malloc` + `set_mempolicy`: system-allocated memory with an
    /// explicit NUMA placement policy (e.g. `numactl --membind=gpu`).
    pub fn malloc_system_with_policy(
        &mut self,
        bytes: Bytes,
        policy: gh_os::NumaPolicy,
        tag: &str,
    ) -> Buffer {
        let (range, cost) = self
            .os
            .mmap_with_policy(bytes, VmaKind::System, policy, tag);
        self.tick(cost);
        self.register(range, BufKind::System, tag)
    }

    /// `numa_alloc_onnode`: system memory eagerly populated on `node`
    /// (Table 1's NUMA allocation interface).
    pub fn numa_alloc_onnode(&mut self, bytes: Bytes, node: Node, tag: &str) -> Buffer {
        let (range, cost) = self.os.numa_alloc_onnode(bytes, node, tag, &mut self.phys);
        self.tick(cost);
        self.register(range, BufKind::System, tag)
    }

    /// `cudaMallocManaged`: unified managed memory. Lazy.
    pub fn cuda_malloc_managed(&mut self, bytes: Bytes, tag: &str) -> Buffer {
        self.ensure_ctx();
        let (range, cost) = self.os.mmap(bytes.get(), VmaKind::Managed, tag);
        self.tick(cost + self.params.cuda_malloc_managed_fixed);
        self.register(range, BufKind::Managed, tag)
    }

    /// `cudaMalloc`: GPU-only memory, eagerly backed by HBM frames in the
    /// GPU-exclusive page table (2 MiB pages).
    pub fn cuda_malloc(&mut self, bytes: Bytes, tag: &str) -> Result<Buffer, OutOfMemory> {
        self.ensure_ctx();
        let page = self.params.gpu_page();
        let rounded = bytes.pages_ceil(page) * page;
        if self.phys.free(Node::Gpu) < rounded {
            return Err(OutOfMemory {
                node: Node::Gpu,
                requested: rounded,
                free: self.phys.free(Node::Gpu),
            });
        }
        let (range, _) = self.os.mmap(rounded.get(), VmaKind::DeviceOnly, tag);
        let vpns = self.gpu_pt.vpn_range(range.addr, range.len);
        let n_pages = vpns.count();
        for vpn in vpns {
            let frame = self
                .phys
                .alloc(Node::Gpu, page.bytes())
                .expect("free space was checked above"); // gh-audit: allow(no-unwrap-in-lib) -- free space checked by the branch guard above
            self.gpu_pt.populate(vpn, Node::Gpu, frame);
        }
        let dt = self.params.cuda_malloc_fixed
            + n_pages
                .get()
                .saturating_mul(self.params.cuda_malloc_per_page);
        self.tick(dt);
        Ok(self.register(range, BufKind::Device, tag))
    }

    /// `cudaMallocHost`: pinned CPU memory, populated eagerly.
    pub fn cuda_malloc_host(&mut self, bytes: Bytes, tag: &str) -> Buffer {
        self.ensure_ctx();
        let (range, mmap_cost) = self.os.mmap(bytes.get(), VmaKind::Pinned, tag);
        let (pin_cost, _) = self.os.host_register(range, &mut self.phys);
        self.tick(mmap_cost + pin_cost + self.params.cuda_malloc_fixed);
        self.register(range, BufKind::Pinned, tag)
    }

    /// Frees any buffer, dispatching on its kind. Returns the
    /// de-allocation time (also charged to the clock).
    pub fn free(&mut self, buf: Buffer) -> Ns {
        self.allocs
            .remove(&buf.id)
            .unwrap_or_else(|| panic!("double free or unknown buffer {}", buf.id)); // gh-audit: allow(no-unwrap-in-lib) -- double free is a caller bug; fail fast like the driver
        let dt = match buf.kind {
            BufKind::Device => {
                let page = self.params.gpu_page();
                let vpns = self.gpu_pt.vpn_range(buf.range.addr, buf.range.len);
                let removed = self.gpu_pt.unmap_range(vpns);
                for (vpn, pte) in &removed {
                    self.phys.release(pte.node, page.bytes());
                    self.gpu_tlb.invalidate(crate::kernel::tlb_key_gpu(*vpn));
                }
                // Release the VA without system-page teardown (no system
                // PTEs were ever created for a device-only VMA).
                self.os.munmap(buf.range, &mut self.phys);
                self.params.cuda_free_fixed
            }
            BufKind::System => self.os.munmap(buf.range, &mut self.phys),
            BufKind::Managed | BufKind::Pinned => {
                self.uvm.forget_range(buf.range);
                let os_cost = self.os.munmap(buf.range, &mut self.phys);
                self.gpu_tlb
                    .invalidate_range(self.os.system_pt.vpn_range(buf.range.addr, buf.range.len));
                os_cost + self.params.cuda_free_fixed
            }
        };
        self.tick(dt);
        dt
    }

    /// Number of live allocations.
    pub fn live_allocs(&self) -> usize {
        self.allocs.len()
    }

    /// Tag of a live buffer.
    pub fn buffer_tag(&self, id: u32) -> Option<&str> {
        self.allocs.get(&id).map(|(_, t)| t.as_str())
    }

    // ------------------------------------------------------------ copies --

    /// `cudaMemcpy`-style explicit copy between a host-side buffer
    /// (system/pinned/managed) and a device buffer, in either direction.
    /// `len` bytes from `src_off` in `src` to `dst_off` in `dst`.
    pub fn memcpy(
        &mut self,
        dst: &Buffer,
        dst_off: u64,
        src: &Buffer,
        src_off: u64,
        len: u64,
    ) -> Ns {
        self.ensure_ctx();
        let _perf = self.session.perf.span("memcpy");
        self.session.perf.count(gh_perf::Ctr::Memcpys, 1);
        assert!(src.in_bounds(src_off, len), "memcpy src out of range");
        assert!(dst.in_bounds(dst_off, len), "memcpy dst out of range");
        let dir = match (src.kind, dst.kind) {
            (BufKind::Device, BufKind::Device) => None,
            (_, BufKind::Device) => Some(Direction::H2D),
            (BufKind::Device, _) => Some(Direction::D2H),
            _ => None, // host-to-host
        };
        let mut dt = self.params.memcpy_fixed;
        // Source/destination host pages must exist; copying from an
        // untouched region faults it in first (reads zeros), copying *to*
        // an untouched host region first-touches it on the CPU.
        for b in [src, dst] {
            if b.kind != BufKind::Device {
                let off = if std::ptr::eq(b, src) {
                    src_off
                } else {
                    dst_off
                };
                let (fault_cost, _) = self
                    .os
                    .touch_cpu_range(b.range.slice(off, len), &mut self.phys);
                dt = dt.saturating_add(fault_cost);
            }
        }
        dt = dt.saturating_add(if self.params.unified_pool {
            // Single pool: every "copy" is HBM-to-HBM; no interconnect hop.
            CostParams::transfer_ns(Bytes::new(len), self.params.hbm_bw)
        } else {
            match dir {
                Some(d) => self.link.bulk(Bytes::new(len), d),
                None => CostParams::transfer_ns(Bytes::new(len), self.params.hbm_bw).max(
                    CostParams::transfer_ns(Bytes::new(len), self.params.lpddr_bw),
                ),
            }
        });
        let start = self.now();
        self.tick(dt);
        let label = match dir {
            Some(Direction::H2D) => "memcpy H2D",
            Some(Direction::D2H) => "memcpy D2H",
            None => "memcpy",
        };
        self.session.bus.span_closed(label, "copy", start);
        if self.session.bus.is_on() {
            if let (Some(d), false) = (dir, self.params.unified_pool) {
                let page = self.os.system_pt.page_size();
                self.session.bus.emit(gh_trace::Event::Migration {
                    engine: gh_trace::Engine::Memcpy,
                    dir: match d {
                        Direction::H2D => gh_trace::Dir::H2D,
                        Direction::D2H => gh_trace::Dir::D2H,
                    },
                    pages: len.div_ceil(page),
                    bytes: len,
                });
                // Direction-split counters feed the sanitizer's link
                // conservation check: bulk link bytes must equal the sum
                // of bus-accounted migrations and explicit copies.
                self.session.bus.count(
                    match d {
                        Direction::H2D => "cuda.memcpy_bytes_h2d",
                        Direction::D2H => "cuda.memcpy_bytes_d2h",
                    },
                    len,
                );
            }
            self.session.bus.count("cuda.memcpys", 1);
            self.session.bus.count("cuda.memcpy_bytes", len);
        }
        dt
    }

    /// `cudaMemAdvise` hints (the software guidance evaluated by Chien
    /// et al., reference 6 of the paper's related work). Hints steer the two
    /// migration engines:
    ///
    /// * `PreferredLocation(node)` — sets the VMA's NUMA policy so first
    ///   touches land on `node`, and (for `Cpu`) suppresses
    ///   counter-based migration away from it;
    /// * `ReadMostly` — suppresses migration entirely (coherent remote
    ///   reads are cheap; migrating a read-shared range would thrash).
    pub fn cuda_mem_advise(&mut self, buf: &Buffer, advice: MemAdvise) {
        assert!(
            matches!(buf.kind, BufKind::System | BufKind::Managed),
            "cudaMemAdvise applies to unified memory"
        );
        match advice {
            MemAdvise::PreferredLocation(node) => {
                self.os
                    .set_policy(buf.range, gh_os::NumaPolicy::Preferred(node));
                if node == Node::Cpu {
                    self.advise_no_migrate.insert(buf.range.addr);
                }
            }
            MemAdvise::ReadMostly => {
                self.advise_no_migrate.insert(buf.range.addr);
            }
            MemAdvise::Clear => {
                self.os.set_policy(buf.range, gh_os::NumaPolicy::FirstTouch);
                self.advise_no_migrate.remove(&buf.range.addr);
            }
        }
        self.tick(1_500);
    }

    /// Whether migration is advised off for the allocation containing
    /// `addr`.
    pub(crate) fn migration_advised_off(&self, addr: u64) -> bool {
        self.os
            .vma_at(addr)
            .is_some_and(|v| self.advise_no_migrate.contains(&v.range.addr))
    }

    /// `cudaMemcpy2D`: copies `rows` rows of `row_bytes` with independent
    /// source/destination pitches. Cost equals the dense copy of the
    /// payload plus a per-row fixed overhead when rows are strided.
    #[allow(clippy::too_many_arguments)]
    pub fn memcpy_2d(
        &mut self,
        dst: &Buffer,
        dst_off: u64,
        dst_pitch: u64,
        src: &Buffer,
        src_off: u64,
        src_pitch: u64,
        row_bytes: Bytes,
        rows: u64,
    ) -> Ns {
        let _perf = self.session.perf.span("memcpy_2d");
        self.session.perf.count(gh_perf::Ctr::Memcpys, 1);
        let row_bytes = row_bytes.get();
        assert!(
            row_bytes <= dst_pitch && row_bytes <= src_pitch,
            "pitch < row"
        );
        assert!(
            dst_off + dst_pitch * rows.saturating_sub(1) + row_bytes <= dst.len(),
            "memcpy_2d dst out of range"
        );
        assert!(
            src_off + src_pitch * rows.saturating_sub(1) + row_bytes <= src.len(),
            "memcpy_2d src out of range"
        );
        let payload = row_bytes * rows;
        let mut dt = self.memcpy(dst, dst_off, src, src_off, payload.min(src.len() - src_off));
        if row_bytes != src_pitch || row_bytes != dst_pitch {
            let per_row = 200 * rows; // DMA descriptor per strided row
            self.tick(per_row);
            dt = dt.saturating_add(per_row);
        }
        dt
    }

    /// `cudaMemset`: fills `[off, off+len)` of a device buffer at HBM
    /// bandwidth (runs on the copy/compute engines synchronously here).
    pub fn cuda_memset(&mut self, buf: &Buffer, off: u64, len: u64) -> Ns {
        self.ensure_ctx();
        assert_eq!(buf.kind, BufKind::Device, "cuda_memset is a device API");
        assert!(buf.in_bounds(off, len), "memset out of range");
        let dt = self.params.memcpy_fixed / 2
            + CostParams::transfer_ns(Bytes::new(len), self.params.hbm_bw);
        let start = self.now();
        self.tick(dt);
        self.session.bus.span_closed("memset", "copy", start);
        dt
    }

    /// `cudaHostRegister`: pre-populates (and pins) a system buffer's
    /// pages on the CPU so GPU access never ATS-faults (§5.1.2 strategy).
    pub fn cuda_host_register(&mut self, buf: &Buffer) -> Ns {
        self.ensure_ctx();
        let (cost, _) = self.os.host_register(buf.range, &mut self.phys);
        self.tick(cost);
        cost
    }

    /// `cudaDeviceSynchronize`: waits for every stream, then pays the
    /// fixed synchronization cost.
    pub fn device_synchronize(&mut self) {
        self.all_streams_synchronize();
        self.tick(2_000);
    }

    // -------------------------------------------------------- host access --

    /// CPU-side sequential write of `[off, off+len)` (initialization
    /// phase). First touch faults pages onto the CPU node; writes to
    /// GPU-resident pages go remotely over NVLink-C2C (system) or migrate
    /// the block back (managed).
    pub fn cpu_write(&mut self, buf: &Buffer, off: u64, len: u64) {
        self.host_access(buf, off, len, true);
    }

    /// CPU-side sequential read (e.g. result verification).
    pub fn cpu_read(&mut self, buf: &Buffer, off: u64, len: u64) {
        self.host_access(buf, off, len, false);
    }

    fn host_access(&mut self, buf: &Buffer, off: u64, len: u64, write: bool) {
        assert!(buf.in_bounds(off, len), "host access out of range");
        assert!(
            buf.kind != BufKind::Device,
            "host cannot access cudaMalloc memory"
        );
        if len == 0 {
            return;
        }
        let span = buf.range.slice(off, len);
        let block = self.params.counter_region; // 2 MiB processing chunks
        let mut addr = span.addr;
        while addr < span.end() {
            let chunk_end = ((addr / block) + 1) * block;
            let chunk = gh_os::VaRange {
                addr,
                len: chunk_end.min(span.end()) - addr,
            };
            let dt = self.host_access_chunk(buf, chunk, write);
            self.tick(dt);
            addr = chunk.end();
        }
    }

    fn host_access_chunk(&mut self, buf: &Buffer, chunk: gh_os::VaRange, write: bool) -> Ns {
        let mut dt: Ns = 0;
        let line = self.params.cpu_cacheline;
        if self.params.unified_pool {
            // One physical pool: there is no remote tier to retrieve from
            // and no cacheline traffic over an inter-tier link. First touch
            // maps pages in the shared pool; the host then streams at its
            // init bandwidth.
            let (fault, _) = self.os.touch_cpu_range(chunk, &mut self.phys);
            dt = dt.saturating_add(fault);
            if write {
                let vpns = self.os.system_pt.vpn_range(chunk.addr, chunk.len);
                self.os.system_pt.mark_dirty_range(vpns);
            }
            dt = dt.saturating_add(CostParams::transfer_ns(
                Bytes::new(chunk.len),
                self.params.cpu_init_bw,
            ));
            return dt;
        }
        match buf.kind {
            BufKind::Managed => {
                // CPU access to GPU-resident managed memory retrieves the
                // pages (on-demand migration back to CPU).
                let vpns = self.os.system_pt.vpn_range(chunk.addr, chunk.len);
                let gpu_pages = self.os.system_pt.count_resident_in(vpns, Node::Gpu);
                if !gpu_pages.is_zero() {
                    dt = dt.saturating_add(self.uvm_retrieve_to_cpu(chunk));
                }
                let (fault, _) = self.os.touch_cpu_range(chunk, &mut self.phys);
                dt = dt.saturating_add(fault);
                dt = dt.saturating_add(CostParams::transfer_ns(
                    Bytes::new(chunk.len),
                    self.params.cpu_init_bw,
                ));
            }
            BufKind::System => {
                // Faults only for unpopulated pages; GPU-resident pages
                // (including pages a NUMA policy just placed there) are
                // accessed remotely at 64 B granularity, *without*
                // migration (coherent C2C).
                let spt = self.os.system_pt.page_size();
                let mut remote_bytes: u64 = 0;
                let vpns = self.os.system_pt.vpn_range(chunk.addr, chunk.len);
                // Batched walk: resident runs are summed per run instead of
                // probed per page; only unpopulated runs fault per page
                // (placement policy and frame allocation are per-page).
                for (vr, state) in self.os.system_pt.classify_runs(vpns) {
                    match state {
                        Some(Node::Gpu) => {
                            remote_bytes =
                                remote_bytes.saturating_add(vr.count().get().saturating_mul(spt));
                        }
                        Some(Node::Cpu) => {}
                        None => {
                            for vpn in vr {
                                let o = self.os.touch_cpu(vpn, &mut self.phys);
                                dt = dt.saturating_add(o.cost);
                                if o.placed == Node::Gpu {
                                    remote_bytes = remote_bytes.saturating_add(spt);
                                }
                            }
                        }
                    }
                }
                if write {
                    self.os.system_pt.mark_dirty_range(vpns);
                }
                if remote_bytes > 0 {
                    let dir = if write {
                        Direction::H2D
                    } else {
                        Direction::D2H
                    };
                    dt = dt.saturating_add(self.link.cacheline_stream(
                        Lines::new(remote_bytes / line),
                        Bytes::new(line),
                        dir,
                    ));
                }
                // The single-threaded host loop generates/consumes every
                // byte at cpu_init_bw regardless of where pages live; the
                // remote line traffic above is additional stall.
                dt = dt.saturating_add(CostParams::transfer_ns(
                    Bytes::new(chunk.len),
                    self.params.cpu_init_bw,
                ));
            }
            BufKind::Pinned => {
                dt = dt.saturating_add(CostParams::transfer_ns(
                    Bytes::new(chunk.len),
                    self.params.cpu_init_bw,
                ));
            }
            BufKind::Device => unreachable!("checked above"), // gh-audit: allow(no-unwrap-in-lib) -- device buffers are rejected at function entry
        }
        dt
    }

    // ----------------------------------------------------------- kernels --

    /// Launches a kernel: returns a recorder the kernel body uses to
    /// declare its memory accesses and compute work. The launch overhead
    /// and (for the first launch) context initialization are charged here.
    pub fn launch(&mut self, name: &str) -> Kernel<'_> {
        self.ensure_ctx();
        self.session.perf.count(gh_perf::Ctr::KernelLaunches, 1);
        let launch_cost = self.params.kernel_launch;
        self.tick(launch_cost);
        self.kernel_seq += 1;
        Kernel::new(self, name)
    }

    // -------------------------------------------------------- prefetch --

    /// `cudaMemPrefetchAsync`: bulk-migrates a managed range toward a
    /// node, evicting LRU managed blocks if the GPU is full. No fault
    /// costs — this is the §6/§7 optimization path.
    pub fn prefetch(&mut self, buf: &Buffer, off: u64, len: u64, to: Node) -> Ns {
        self.ensure_ctx();
        assert_eq!(
            buf.kind,
            BufKind::Managed,
            "prefetch is a managed-memory API"
        );
        if self.params.unified_pool {
            // Nothing to move in a single physical pool: the API call
            // costs its fixed overhead and is otherwise a no-op.
            let dt = self.params.prefetch_fixed;
            self.tick(dt);
            return dt;
        }
        let span = buf.range.slice(off, len);

        self.uvm_prefetch_range(span, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gh_mem::params::{KIB, MIB};

    fn rt() -> Runtime {
        Runtime::default_gh200()
    }

    #[test]
    fn malloc_system_skips_ctx_init() {
        let mut r = rt();
        let b = r.malloc_system(Bytes::new(MIB), "x");
        assert!(!r.ctx_ready());
        assert!(r.now() < 1_000_000, "no 250 ms ctx charge");
        assert_eq!(b.kind, BufKind::System);
        assert_eq!(b.len(), MIB);
    }

    #[test]
    fn cuda_apis_charge_ctx_once() {
        let mut r = rt();
        let t0 = r.now();
        r.cuda_malloc_managed(Bytes::new(MIB), "a");
        let after_first = r.now();
        assert!(after_first - t0 >= r.params().ctx_init);
        r.cuda_malloc_managed(Bytes::new(MIB), "b");
        assert!(r.now() - after_first < r.params().ctx_init);
    }

    #[test]
    fn cuda_malloc_backs_with_hbm_eagerly() {
        let mut r = rt();
        let before = r.gpu_used();
        let b = r.cuda_malloc(Bytes::new(10 * MIB), "d").unwrap();
        assert_eq!(r.gpu_used() - before, 10 * MIB);
        assert_eq!(b.kind, BufKind::Device);
        r.free(b);
        assert_eq!(r.gpu_used(), before);
    }

    #[test]
    fn cuda_malloc_oom_is_an_error() {
        let mut r = rt();
        let free = r.gpu_free();
        let b = r.cuda_malloc(Bytes::new(free - 2 * MIB), "big").unwrap();
        assert!(r.cuda_malloc(Bytes::new(4 * MIB), "more").is_err());
        r.free(b);
        assert!(r.cuda_malloc(Bytes::new(4 * MIB), "now fits").is_ok());
    }

    #[test]
    fn gpu_used_includes_driver_baseline() {
        let r = rt();
        assert_eq!(r.gpu_used(), r.params().gpu_driver_baseline);
    }

    #[test]
    fn cpu_write_populates_system_pages() {
        let mut r = rt();
        let b = r.malloc_system(Bytes::new(256 * KIB), "x");
        assert_eq!(r.rss(), 0);
        r.cpu_write(&b, 0, 256 * KIB);
        assert_eq!(r.rss(), 256 * KIB);
        assert!(!r.ctx_ready(), "pure host work never initializes CUDA");
    }

    #[test]
    fn memcpy_h2d_moves_bytes_over_link() {
        let mut r = rt();
        let h = r.malloc_system(Bytes::new(MIB), "h");
        r.cpu_write(&h, 0, MIB);
        let d = r.cuda_malloc(Bytes::new(MIB), "d").unwrap();
        let before = r.link().bytes_h2d();
        r.memcpy(&d, 0, &h, 0, MIB);
        assert_eq!(r.link().bytes_h2d() - before, Bytes::new(MIB));
    }

    #[test]
    fn memcpy_faults_in_untouched_host_source() {
        let mut r = rt();
        let h = r.malloc_system(Bytes::new(MIB), "h");
        let d = r.cuda_malloc(Bytes::new(MIB), "d").unwrap();
        r.memcpy(&d, 0, &h, 0, MIB); // no prior cpu_write
        assert_eq!(r.rss(), MIB, "memcpy populated the source pages");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn memcpy_oob_panics() {
        let mut r = rt();
        let h = r.malloc_system(Bytes::new(MIB), "h");
        let d = r.cuda_malloc(Bytes::new(MIB), "d").unwrap();
        r.memcpy(&d, 0, &h, 512 * KIB, MIB);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut r = rt();
        let b = r.malloc_system(Bytes::new(KIB), "x");
        r.free(b);
        r.free(b);
    }

    #[test]
    fn free_system_scales_with_touched_pages() {
        let mut r4 = Runtime::new(CostParams::with_4k_pages(), RuntimeOptions::default());
        let b = r4.malloc_system(Bytes::new(16 * MIB), "x");
        r4.cpu_write(&b, 0, 16 * MIB);
        let dt_4k = r4.free(b);

        let mut r64 = Runtime::new(CostParams::with_64k_pages(), RuntimeOptions::default());
        let b = r64.malloc_system(Bytes::new(16 * MIB), "x");
        r64.cpu_write(&b, 0, 16 * MIB);
        let dt_64k = r64.free(b);
        let ratio = dt_4k as f64 / dt_64k as f64;
        assert!(ratio > 8.0, "Fig 6 dealloc ratio, got {ratio}");
    }

    #[test]
    #[should_panic(expected = "host cannot access")]
    fn host_access_to_device_buffer_panics() {
        let mut r = rt();
        let d = r.cuda_malloc(Bytes::new(MIB), "d").unwrap();
        r.cpu_write(&d, 0, 16);
    }

    #[test]
    fn host_register_prevents_later_faults() {
        let mut r = rt();
        let b = r.malloc_system(Bytes::new(4 * MIB), "x");
        r.cuda_host_register(&b);
        assert_eq!(r.rss(), 4 * MIB);
        assert_eq!(r.os().cpu_faults(), 0, "bulk path, not the fault path");
    }

    #[test]
    fn pinned_alloc_is_cpu_resident() {
        let mut r = rt();
        let b = r.cuda_malloc_host(Bytes::new(MIB), "pinned");
        assert_eq!(b.kind, BufKind::Pinned);
        assert_eq!(r.rss(), MIB);
    }

    #[test]
    fn profiler_sees_rss_ramp() {
        let mut r = rt();
        let b = r.malloc_system(Bytes::new(8 * MIB), "x");
        r.cpu_write(&b, 0, 8 * MIB);
        let peak = r.profiler.peak_rss();
        assert_eq!(peak, 8 * MIB);
        let (samples, _) = r.into_parts();
        assert!(samples.len() > 1, "ramp must produce multiple samples");
        // RSS is non-decreasing during a pure init phase.
        assert!(samples.windows(2).all(|w| w[0].rss <= w[1].rss));
    }
}
