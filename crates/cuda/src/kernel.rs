//! Kernel launch recording: the access-metering API and the
//! access-counter migration driver.
//!
//! A [`Kernel`] is what the `<<<grid, block>>>` launch returns in this
//! model. The application's *real* compute runs outside (on `gh-par`);
//! the kernel object receives a description of the memory accesses the
//! compute performed — dense spans, strided segments, gathers — plus a
//! compute-work declaration, and turns them into:
//!
//! * translation activity (GPU TLB, ATS requests to the SMMU);
//! * first-touch fault service (system memory → expensive CPU-serviced
//!   ATS faults; managed memory → cheap GPU-block population);
//! * on-demand managed migration with speculative prefetch and eviction;
//! * remote cacheline traffic over NVLink-C2C with access counting;
//! * local HBM traffic;
//! * and finally a kernel duration: serial fault/migration time (charged
//!   as it happens, so the profiler sees ramps) plus
//!   `max(compute, memory)` for the pipelined part.
//!
//! At [`Kernel::finish`], the access-counter migration driver services up
//! to `counter_budget_per_kernel` pending notifications (paper §2.2.1),
//! migrating the *touched* CPU-resident pages of hot regions to the GPU —
//! the delayed migration behaviour of Fig 10.
//!
//! ## Access paths
//!
//! The metering has two implementations that produce bitwise-identical
//! RunReports and trace streams:
//!
//! * the **batched core** (default): classifies whole `VpnRange`s into
//!   resident/faulting runs and charges TLB walks, traffic, and access
//!   counters per run;
//! * the **reference walk**: the per-page loop, retained as the oracle
//!   for differential testing and debugging.
//!
//! The choice is the session's
//! [`SessionCtx::access_ref`](crate::SessionCtx::access_ref) switch, set
//! through [`SessionOptions::access_ref`](crate::SessionOptions::access_ref).
//! It is read in four places: the TLB-walk and dirty-marking helpers, the
//! fresh-vs-pooled L2 choice, and the system-memory batch guard. Managed
//! block handling (first touch, migration, prefetch, eviction) is the
//! same code on both paths.

use gh_mem::clock::Ns;
use gh_mem::link::Direction;
use gh_mem::params::CostParams;
use gh_mem::phys::Node;
use gh_mem::traffic::KernelTraffic;
use gh_os::VaRange;
use gh_units::{ns_from_f64, widen, Bytes, Lines, Pages, Vpn};

use crate::buffer::{BufKind, Buffer};
use crate::runtime::Runtime;
use crate::uvm::{block_of, block_range};

/// TLB key namespace for system-page-table translations.
pub(crate) fn tlb_key_sys(vpn: Vpn) -> Vpn {
    vpn
}

/// TLB key namespace for GPU-exclusive-page-table translations
/// (2 MiB-grain entries).
pub(crate) fn tlb_key_gpu(vpn: Vpn) -> Vpn {
    Vpn::new(vpn.get() | (1 << 63))
}

/// How many translation requests the GPU keeps in flight; ATS latency is
/// amortized by this factor for streaming access. The H100's many TBUs
/// and deep translation queues hide nearly all miss latency for regular
/// sweeps — the paper's Fig 9 shows the system version's *compute* time
/// to be page-size independent even with 16M live 4 KiB translations.
const XLAT_OUTSTANDING: u64 = 4096;

/// Spans at or below this many system pages take the reference walk:
/// run classification costs more than it saves, and both paths are
/// bit-identical anyway.
const BATCH_MIN_PAGES: u64 = 4;

/// Σ over the pages of `[x0, x1)` of `ceil(portion / line)`, portions
/// split on the `spt` page grid — the exact per-page cacheline count the
/// reference walk feeds the access counters, computed without walking.
fn lines_per_page_sum(x0: u64, x1: u64, spt: u64, line: u64) -> u64 {
    let first_page_end = (x0 / spt + 1) * spt;
    if x1 <= first_page_end {
        return (x1 - x0).div_ceil(line);
    }
    let mut sum = (first_page_end - x0).div_ceil(line);
    let full = (x1 - first_page_end) / spt;
    sum = sum.saturating_add(full.saturating_mul(spt / line));
    let tail = (x1 - first_page_end) % spt;
    if tail > 0 {
        sum = sum.saturating_add(tail.div_ceil(line));
    }
    sum
}

/// Per-buffer traffic attribution within one kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferTraffic {
    /// Buffer tag (from allocation).
    pub tag: String,
    /// Remote NVLink-C2C bytes (read + write) this buffer caused.
    pub c2c: u64,
    /// Local HBM bytes this buffer caused.
    pub hbm: u64,
}

/// What the runtime keeps of each finished kernel, sync or async: one
/// record per launch, in launch order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelRecord {
    /// Kernel name with its launch sequence number (`name#seq`).
    pub name: String,
    /// Duration in virtual ns.
    pub time: Ns,
    /// Traffic and event counts.
    pub traffic: KernelTraffic,
}

/// Result of a finished kernel.
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// Kernel name.
    pub name: String,
    /// Total kernel duration in virtual ns (launch overhead excluded,
    /// fault/migration service included).
    pub time: Ns,
    /// Traffic and event counts.
    pub traffic: KernelTraffic,
    /// Traffic attribution per buffer, sorted by remote bytes (the
    /// "top talkers" a tuning session looks for first).
    pub by_buffer: Vec<BufferTraffic>,
}

/// Per-buffer byte attribution accumulator (remote vs. local).
#[derive(Debug, Clone, Copy, Default)]
struct BufBytes {
    c2c: u64,
    hbm: u64,
}

/// An in-flight kernel recording.
#[derive(Debug)]
pub struct Kernel<'r> {
    rt: &'r mut Runtime,
    /// `name#seq`, built once at launch.
    name: String,
    start: Ns,
    compute_units: u64,
    hbm_stream: u64,
    hbm_random: u64,
    c2c_read_lines: Lines,
    c2c_write_lines: Lines,
    c2c_read_lines_rand: Lines,
    c2c_write_lines_rand: Lines,
    xlat_misses: u64,
    t: KernelTraffic,
    /// Per-buffer byte attribution.
    by_buffer: std::collections::BTreeMap<u32, BufBytes>,
    /// GPU L2 model for irregular remote accesses: a line fetched once
    /// this kernel is served from cache on re-touch.
    l2: gh_mem::SetCache,
    finished: bool,
    /// Host-time profiling span covering launch → finish (gh-perf;
    /// no-op guard when profiling is off).
    _perf_span: gh_perf::SpanGuard,
}

impl<'r> Kernel<'r> {
    pub(crate) fn new(rt: &'r mut Runtime, name: &str) -> Self {
        rt.uvm.migrated_this_kernel.clear();
        // The profiler's `kernel:<name>` path is only built when it records.
        let perf_path = if rt.session.perf.is_on() {
            format!("kernel:{name}")
        } else {
            String::new()
        };
        let perf_span = rt.session.perf.span(&perf_path);
        let name = format!("{name}#{}", rt.kernel_seq);
        let start = rt.now();
        // The L2 model's slot array is megabytes; building it fresh per
        // launch dominated launch cost on the host. The batched path
        // revives the runtime's parked instance with an O(1) reset
        // (observationally identical to a fresh cache — see
        // `SetCache::reset`); the reference walk keeps the original
        // fresh allocation.
        let fresh_l2 = |rt: &Runtime| {
            gh_mem::SetCache::new(
                Bytes::new(rt.params.gpu_l2_bytes),
                Bytes::new(rt.params.gpu_cacheline),
                16,
            )
        };
        let l2 = if rt.session.access_ref {
            fresh_l2(rt)
        } else if let Some(mut parked) = rt.l2_pool.take() {
            parked.reset();
            parked
        } else {
            fresh_l2(rt)
        };
        Self {
            rt,
            name,
            start,
            compute_units: 0,
            hbm_stream: 0,
            hbm_random: 0,
            c2c_read_lines: Lines::ZERO,
            c2c_write_lines: Lines::ZERO,
            c2c_read_lines_rand: Lines::ZERO,
            c2c_write_lines_rand: Lines::ZERO,
            xlat_misses: 0,
            t: KernelTraffic::default(),
            by_buffer: std::collections::BTreeMap::new(),
            l2,
            finished: false,
            _perf_span: perf_span,
        }
    }

    /// Declares `units` of compute work (≈ simple arithmetic ops across
    /// all threads). Overlapped with memory traffic at finish.
    pub fn compute(&mut self, units: u64) {
        self.compute_units += units;
    }

    /// Dense streaming read of `[off, off+len)`.
    pub fn read(&mut self, buf: &Buffer, off: u64, len: u64) {
        self.span(buf, off, len, false, false);
    }

    /// Dense streaming write.
    pub fn write(&mut self, buf: &Buffer, off: u64, len: u64) {
        self.span(buf, off, len, true, false);
    }

    /// Strided access: `count` segments of `seg_len` bytes, `stride`
    /// bytes apart, starting at `off`. Random-access efficiency applies.
    pub fn read_strided(&mut self, buf: &Buffer, off: u64, seg_len: u64, stride: u64, count: u64) {
        self.strided(buf, off, seg_len, stride, count, false);
    }

    /// Strided write; see [`Kernel::read_strided`].
    pub fn write_strided(&mut self, buf: &Buffer, off: u64, seg_len: u64, stride: u64, count: u64) {
        self.strided(buf, off, seg_len, stride, count, true);
    }

    fn strided(
        &mut self,
        buf: &Buffer,
        off: u64,
        seg_len: u64,
        stride: u64,
        count: u64,
        write: bool,
    ) {
        assert!(stride > 0, "stride must be positive");
        for i in 0..count {
            self.span(buf, off + i * stride, seg_len, write, true);
        }
    }

    /// 2-D sub-grid read: `rows` rows of `row_bytes`, `pitch` bytes
    /// apart (the `cudaMemcpy2D` addressing convention). Dense within
    /// rows; the stride classifies it as irregular when rows are narrow
    /// relative to the pitch.
    pub fn read_2d(&mut self, buf: &Buffer, off: u64, row_bytes: Bytes, pitch: u64, rows: u64) {
        let row = row_bytes.get();
        if row == pitch {
            self.read(buf, off, row * rows);
        } else {
            self.read_strided(buf, off, row, pitch, rows);
        }
    }

    /// 2-D sub-grid write; see [`Kernel::read_2d`].
    pub fn write_2d(&mut self, buf: &Buffer, off: u64, row_bytes: Bytes, pitch: u64, rows: u64) {
        let row = row_bytes.get();
        if row == pitch {
            self.write(buf, off, row * rows);
        } else {
            self.write_strided(buf, off, row, pitch, rows);
        }
    }

    /// Irregular gather: reads `bytes_each` at each byte offset.
    pub fn gather_read<I: IntoIterator<Item = u64>>(
        &mut self,
        buf: &Buffer,
        offsets: I,
        bytes_each: Bytes,
    ) {
        for off in offsets {
            self.span(buf, off, bytes_each.get(), false, true);
        }
    }

    /// Irregular scatter: writes `bytes_each` at each byte offset.
    pub fn scatter_write<I: IntoIterator<Item = u64>>(
        &mut self,
        buf: &Buffer,
        offsets: I,
        bytes_each: Bytes,
    ) {
        for off in offsets {
            self.span(buf, off, bytes_each.get(), true, true);
        }
    }

    // ------------------------------------------------------------------

    fn span(&mut self, buf: &Buffer, off: u64, len: u64, write: bool, random: bool) {
        if len == 0 {
            return;
        }
        assert!(buf.in_bounds(off, len), "kernel access out of range");
        let span = buf.range.slice(off, len);
        let before = BufBytes {
            c2c: self.t.c2c_read + self.t.c2c_write,
            hbm: self.t.hbm_read + self.t.hbm_write,
        };
        match buf.kind {
            BufKind::Device => self.span_device(span, write, random),
            // In a unified pool every host-visible kind is just mapped
            // shared memory: no pinned-remote path, no UVM migration.
            BufKind::Pinned | BufKind::System | BufKind::Managed if self.rt.params.unified_pool => {
                self.span_system(buf.id(), buf.range, span, write, random)
            }
            BufKind::Pinned => self.span_pinned(span, write, random),
            BufKind::System => self.span_system(buf.id(), buf.range, span, write, random),
            BufKind::Managed => self.span_managed(buf.range, span, write, random),
        }
        let entry = self.by_buffer.entry(buf.id()).or_default();
        entry.c2c = entry
            .c2c
            .saturating_add((self.t.c2c_read + self.t.c2c_write).saturating_sub(before.c2c));
        entry.hbm = entry
            .hbm
            .saturating_add((self.t.hbm_read + self.t.hbm_write).saturating_sub(before.hbm));
    }

    fn account_local(&mut self, bytes: u64, write: bool, random: bool) {
        if random {
            self.hbm_random = self.hbm_random.saturating_add(bytes);
        } else {
            self.hbm_stream = self.hbm_stream.saturating_add(bytes);
        }
        if write {
            self.t.hbm_write = self.t.hbm_write.saturating_add(bytes);
        } else {
            self.t.hbm_read = self.t.hbm_read.saturating_add(bytes);
        }
        self.t.l1l2 = self.t.l1l2.saturating_add(bytes);
    }

    fn account_remote(&mut self, addr: u64, bytes: u64, write: bool, random: bool) {
        let line = self.rt.params.gpu_cacheline;
        // GPU L2 model for small irregular touches: a line fetched once
        // this kernel is served from cache on re-touch. Dense streams
        // bypass (no reuse; streaming loads are marked non-allocating).
        if random && bytes < 4 * line {
            let missed = self.l2.access_range(addr, Bytes::new(bytes.max(1)));
            if missed.is_zero() {
                self.t.l1l2 = self.t.l1l2.saturating_add(bytes); // pure cache hit
                return;
            }
            let miss_bytes = missed.bytes(Bytes::new(line)).get();
            match write {
                false => {
                    self.c2c_read_lines_rand += missed;
                    self.t.c2c_read = self.t.c2c_read.saturating_add(miss_bytes);
                }
                true => {
                    self.c2c_write_lines_rand += missed;
                    self.t.c2c_write = self.t.c2c_write.saturating_add(miss_bytes);
                }
            }
            self.t.l1l2 = self.t.l1l2.saturating_add(bytes);
            return;
        }
        let lines = Lines::new(bytes.div_ceil(line));
        match (write, random) {
            (false, false) => self.c2c_read_lines += lines,
            (false, true) => self.c2c_read_lines_rand += lines,
            (true, false) => self.c2c_write_lines += lines,
            (true, true) => self.c2c_write_lines_rand += lines,
        }
        let line_bytes = lines.bytes(Bytes::new(line)).get();
        if write {
            self.t.c2c_write = self.t.c2c_write.saturating_add(line_bytes);
        } else {
            self.t.c2c_read = self.t.c2c_read.saturating_add(line_bytes);
        }
        self.t.l1l2 = self.t.l1l2.saturating_add(bytes);
    }

    /// GPU TLB lookup; charges nothing directly, counts misses (latency is
    /// amortized at finish).
    fn translate(&mut self, key: Vpn) {
        if !self.rt.gpu_tlb.lookup(key) {
            self.rt.gpu_tlb.fill(key);
            self.xlat_misses = self.xlat_misses.saturating_add(1);
            self.t.tlb_misses = self.t.tlb_misses.saturating_add(1);
        }
    }

    /// TLB walk over contiguous keys in key order: one lookup per key on
    /// the reference walk, one batched range lookup on the batched core
    /// (bit-identical TLB state and miss counts).
    fn walk_tlb(&mut self, keys: gh_units::VpnRange) {
        if self.rt.session.access_ref {
            for key in keys {
                self.translate(key);
            }
            return;
        }
        let misses = self.rt.gpu_tlb.lookup_range(keys);
        self.xlat_misses = self.xlat_misses.saturating_add(misses);
        self.t.tlb_misses = self.t.tlb_misses.saturating_add(misses);
    }

    /// Marks system pages dirty: page by page on the reference walk, as
    /// one range on the batched core. Dirty bits never touch the TLB, so
    /// callers may mark after walking.
    fn mark_dirty(&mut self, vpns: gh_units::VpnRange) {
        if self.rt.session.access_ref {
            for vpn in vpns {
                self.rt.os.system_pt.mark_dirty(vpn);
            }
        } else {
            self.rt.os.system_pt.mark_dirty_range(vpns);
        }
    }

    /// TLB key range covering the system pages of `[a0, a1)`.
    fn sys_keys(&self, a0: u64, a1: u64) -> gh_units::VpnRange {
        let first = self.rt.os.system_pt.vpn(a0);
        let last = self.rt.os.system_pt.vpn(a1 - 1);
        gh_units::VpnRange::new(tlb_key_sys(first), Vpn::new(tlb_key_sys(last).get() + 1))
    }

    fn span_device(&mut self, span: VaRange, write: bool, random: bool) {
        let gp = self.rt.params.gpu_page_size;
        // One TLB walk per page (keys are contiguous because `tlb_key_gpu`
        // only sets a high namespace bit), traffic summed — per-page
        // portions are linear in bytes, so one charge equals the per-page
        // sum.
        let first = Vpn::new(span.addr / gp);
        let last = Vpn::new((span.end() - 1) / gp);
        #[cfg(debug_assertions)]
        for v in first.get()..=last.get() {
            debug_assert!(
                self.rt.gpu_pt.is_populated(Vpn::new(v)),
                "access to unmapped device page"
            );
        }
        self.walk_tlb(gh_units::VpnRange::new(
            tlb_key_gpu(first),
            Vpn::new(tlb_key_gpu(last).get() + 1),
        ));
        self.account_local(span.len, write, random);
    }

    fn span_pinned(&mut self, span: VaRange, write: bool, random: bool) {
        // Pinned memory is always CPU-resident: pure remote traffic.
        let spt = self.rt.os.system_pt.page_size();
        self.walk_tlb(self.sys_keys(span.addr, span.end()));
        if write {
            self.mark_dirty(self.rt.os.system_pt.vpn_range(span.addr, span.len));
        }
        self.account_remote(span.addr, span.len.max(spt.min(span.len)), write, random);
    }

    fn span_system(
        &mut self,
        buf_id: u32,
        buf_range: VaRange,
        span: VaRange,
        write: bool,
        random: bool,
    ) {
        let spt = self.rt.os.system_pt.page_size();
        let line = self.rt.params.gpu_cacheline;
        let vpns = self.rt.os.system_pt.vpn_range(span.addr, span.len);
        // The batched core assumes line-aligned page boundaries (so
        // per-page cacheline counts sum exactly), full pages never taking
        // the small-irregular L2 path, and page-aligned counter regions
        // (so counter chunks never split a page). Anything else — and
        // tiny spans, where batch setup costs more than it saves — takes
        // the reference walk; both paths are bit-identical.
        let batchable = !self.rt.session.access_ref
            && vpns.count().get() > BATCH_MIN_PAGES
            && spt.is_multiple_of(line)
            && spt >= 4 * line
            && self.rt.params.counter_region.is_multiple_of(spt);
        if !batchable {
            let (_, fault_cost) =
                self.span_system_pages(span.addr, span.end(), write, random, 0, false);
            if fault_cost > 0 {
                self.rt.tick(fault_cost);
            }
            return;
        }
        let runs = self.rt.classify_span_cached(buf_id, buf_range, vpns);
        self.rt
            .session
            .perf
            .count(gh_perf::Ctr::BatchRuns, widen(runs.len()));
        let mut fault_cost: Ns = 0;
        for (vr, node) in runs {
            // Clip the run (vpn-granular) to the accessed byte span.
            let a0 = span.addr.max(vr.start.get() * spt);
            let a1 = span.end().min(vr.end.get() * spt);
            if a0 >= a1 {
                continue;
            }
            match node {
                Some(node) => {
                    let mut a = a0;
                    if fault_cost > 0 {
                        // Pending fault cost from an earlier run: the
                        // 256 KiB flush ticks must land at the exact
                        // virtual times the reference walk produces, so
                        // walk per page until the flush happens.
                        let (resume, fc) =
                            self.span_system_pages(a, a1, write, random, fault_cost, true);
                        a = resume;
                        fault_cost = fc;
                    }
                    if a < a1 {
                        self.span_system_resident(a, a1, node, write, random);
                    }
                }
                // Unpopulated pages: fault service is inherently
                // per-page (SMMU + OS cost accrual + flush cadence).
                None => {
                    let (_, fc) = self.span_system_pages(a0, a1, write, random, fault_cost, false);
                    fault_cost = fc;
                }
            }
        }
        if fault_cost > 0 {
            self.rt.tick(fault_cost);
        }
    }

    /// The per-page reference walk over `[addr, end)` of system memory —
    /// the original access path, retained as the behavioural baseline the
    /// batched core is differentially tested against. Returns the resume
    /// address and still-pending fault cost. With `stop_after_flush`, the
    /// walk returns right after a 256 KiB flush tick zeroes the pending
    /// cost, so a batched caller can take over at the same virtual time.
    fn span_system_pages(
        &mut self,
        mut addr: u64,
        end: u64,
        write: bool,
        random: bool,
        mut fault_cost: Ns,
        stop_after_flush: bool,
    ) -> (u64, Ns) {
        let spt = self.rt.os.system_pt.page_size();
        let line = self.rt.params.gpu_cacheline;
        while addr < end {
            let page_end = (addr / spt + 1) * spt;
            let portion = page_end.min(end) - addr;
            let vpn = self.rt.os.system_pt.vpn(addr);
            self.translate(tlb_key_sys(vpn));
            let node = match self.rt.os.system_pt.translate(vpn) {
                Some(pte) => pte.node,
                None => {
                    // GPU first touch of a system page: SMMU raises a
                    // fault, the OS services it on the CPU (§5.1.2).
                    self.rt.smmu.raise_fault();
                    let o = self.rt.os.ats_fault(vpn, &mut self.rt.phys);
                    fault_cost = fault_cost.saturating_add(o.cost);
                    self.t.ats_faults = self.t.ats_faults.saturating_add(1);
                    o.placed
                }
            };
            match node {
                Node::Gpu => self.account_local(portion, write, random),
                // Unified pool: "CPU-resident" is attribution only — the
                // page lives in the same HBM the GPU reads at full speed,
                // and there are no access counters to trip.
                Node::Cpu if self.rt.params.unified_pool => {
                    self.account_local(portion, write, random)
                }
                Node::Cpu => {
                    self.account_remote(addr, portion, write, random);
                    // Hardware access counters see remote GPU accesses.
                    let region = self.rt.counters.region_of(addr);
                    let lines = portion.div_ceil(line);
                    if self.rt.counters.enabled() {
                        self.rt
                            .remote_touched
                            .entry(region)
                            .or_default()
                            .insert(vpn);
                        if let Some(n) = self.rt.counters.record(region, lines) {
                            self.rt.pending_notifs.push_back(n.region);
                            self.t.notifications = self.t.notifications.saturating_add(1);
                        }
                    }
                }
            }
            if write {
                self.rt.os.system_pt.mark_dirty(vpn);
            }
            addr = page_end;
            // Serial fault service is visible to the profiler as it
            // happens: flush accumulated cost every 256 KiB of pages so
            // init ramps resolve in the memory profile.
            if fault_cost > 0 && addr.is_multiple_of(256 * 1024) {
                self.rt.tick(fault_cost);
                fault_cost = 0;
                if stop_after_flush {
                    return (addr, 0);
                }
            }
        }
        (addr, fault_cost)
    }

    /// Batched accounting for a resident run `[a0, a1)` whose pages all
    /// live on `node`. Charges exactly what the reference walk charges
    /// page by page: TLB walks in key order, linear traffic sums, the
    /// small-irregular L2 path only for the head/tail partial pages
    /// (full pages never take it under the `spt >= 4 * line` batch
    /// guard), and access-counter records per region chunk in address
    /// order with per-page-exact cacheline sums.
    fn span_system_resident(&mut self, a0: u64, a1: u64, node: Node, write: bool, random: bool) {
        let spt = self.rt.os.system_pt.page_size();
        let line = self.rt.params.gpu_cacheline;
        match node {
            Node::Gpu => {
                self.walk_tlb(self.sys_keys(a0, a1));
                self.account_local(a1 - a0, write, random);
            }
            Node::Cpu if self.rt.params.unified_pool => {
                self.walk_tlb(self.sys_keys(a0, a1));
                self.account_local(a1 - a0, write, random);
            }
            Node::Cpu => {
                // Under tracing with counters armed, CounterNotify events
                // must interleave with TlbEvict events mid-run exactly as
                // the per-page walk emits them — fall back.
                if self.rt.counters.enabled() && self.rt.session.bus.is_on() {
                    let _ = self.span_system_pages(a0, a1, write, random, 0, false);
                    return; // dirty bits handled per page above
                }
                self.walk_tlb(self.sys_keys(a0, a1));
                // Head partial / interior full pages / tail partial:
                // `ceil(total/line)` differs from the per-page sum, so the
                // split must mirror the page grid.
                let mut p = a0;
                let head_end = (a0 / spt + 1) * spt;
                if !a0.is_multiple_of(spt) {
                    self.account_remote(a0, head_end.min(a1) - a0, write, random);
                    p = head_end;
                }
                if p < a1 {
                    let full = (a1 - p) / spt;
                    if full > 0 {
                        self.account_remote_full_pages(full, write, random);
                        p += full * spt;
                    }
                    if p < a1 {
                        self.account_remote(p, a1 - p, write, random);
                    }
                }
                if self.rt.counters.enabled() {
                    let rsz = self.rt.params.counter_region;
                    let mut c = a0;
                    while c < a1 {
                        let c_end = ((c / rsz + 1) * rsz).min(a1);
                        let region = self.rt.counters.region_of(c);
                        let chunk_vpns = self.rt.os.system_pt.vpn_range(c, c_end - c);
                        let touched = self.rt.remote_touched.entry(region).or_default();
                        for vpn in chunk_vpns {
                            touched.insert(vpn);
                        }
                        let lines = lines_per_page_sum(c, c_end, spt, line);
                        if let Some(n) = self.rt.counters.record(region, lines) {
                            self.rt.pending_notifs.push_back(n.region);
                            self.t.notifications = self.t.notifications.saturating_add(1);
                        }
                        c = c_end;
                    }
                }
            }
        }
        if write {
            self.mark_dirty(self.rt.os.system_pt.vpn_range(a0, a1 - a0));
        }
    }

    /// Remote accounting for `pages` full system pages in one shot:
    /// identical sums to `pages` reference calls of
    /// `account_remote(_, spt, ..)` because full pages never take the
    /// small-irregular L2 path (`spt >= 4 * line` batch guard) and
    /// `spt % line == 0` makes the per-page line rounding exact.
    fn account_remote_full_pages(&mut self, pages: u64, write: bool, random: bool) {
        let spt = self.rt.os.system_pt.page_size();
        let line = self.rt.params.gpu_cacheline;
        let lines = Lines::new(pages.saturating_mul(spt / line));
        match (write, random) {
            (false, false) => self.c2c_read_lines += lines,
            (false, true) => self.c2c_read_lines_rand += lines,
            (true, false) => self.c2c_write_lines += lines,
            (true, true) => self.c2c_write_lines_rand += lines,
        }
        let bytes = pages.saturating_mul(spt);
        if write {
            self.t.c2c_write = self.t.c2c_write.saturating_add(bytes);
        } else {
            self.t.c2c_read = self.t.c2c_read.saturating_add(bytes);
        }
        self.t.l1l2 = self.t.l1l2.saturating_add(bytes);
    }

    fn span_managed(&mut self, buf_range: VaRange, span: VaRange, write: bool, random: bool) {
        let spt = self.rt.os.system_pt.page_size();
        // Thrash-pinned or ReadMostly/CPU-preferred-advised allocations
        // are served entirely by coherent remote access (no faults, no
        // migration attempts) once their pages exist.
        if self.rt.migration_advised_off(buf_range.addr) {
            let vpns = self.rt.os.system_pt.vpn_range(span.addr, span.len);
            let cpu = self.rt.os.system_pt.count_resident_in(vpns, Node::Cpu);
            let gpu = self.rt.os.system_pt.count_resident_in(vpns, Node::Gpu);
            if cpu + gpu == vpns.count() {
                self.walk_tlb(self.sys_keys(span.addr, span.end()));
                if write {
                    self.mark_dirty(vpns);
                }
                let page = self.rt.os.system_pt.page();
                let gpu_bytes = (gpu * page).get().min(span.len);
                if gpu_bytes > 0 {
                    self.account_local(gpu_bytes, write, random);
                }
                if span.len > gpu_bytes {
                    self.account_remote(span.addr, span.len - gpu_bytes, write, random);
                }
                return;
            }
        }
        if self.rt.uvm.is_pinned_cpu(buf_range) {
            self.walk_tlb(self.sys_keys(span.addr, span.end()));
            if write {
                self.mark_dirty(self.rt.os.system_pt.vpn_range(span.addr, span.len));
            }
            self.account_remote(span.addr, span.len, write, random);
            return;
        }
        let first = block_of(span.addr);
        let last = block_of(span.end() - 1);
        for block in first..=last {
            let clip = block_range(block, span);
            if clip.len == 0 {
                continue;
            }
            let vpns = self.rt.os.system_pt.vpn_range(clip.addr, clip.len);
            let n_pages = vpns.count();
            let populated = self.rt.os.system_pt.count_resident_in(vpns, Node::Cpu)
                + self.rt.os.system_pt.count_resident_in(vpns, Node::Gpu);
            if populated < n_pages {
                // GPU first touch: block-granularity population, directly
                // in GPU memory — the *fast* managed init path (§5.1.2).
                let (cost, on_gpu, _) = self.rt.uvm_first_touch_block(block, buf_range);
                self.rt.tick(cost);
                self.t.gpu_faults = self.t.gpu_faults.saturating_add(1);
                self.rt.session.perf.count(gh_perf::Ctr::Faults, 1);
                self.t.bytes_migrated_in = self.t.bytes_migrated_in.saturating_add(0); // population, not migration
                let _ = on_gpu;
                if self.rt.session.bus.is_on() {
                    self.rt.session.bus.emit(gh_trace::Event::PageFault {
                        kind: gh_trace::FaultKind::Gpu,
                        va: block * crate::uvm::BLOCK,
                        cost,
                    });
                    self.rt.session.bus.count("uvm.gpu_faults", 1);
                    self.rt.session.bus.observe("fault.cost_ns", cost);
                }
            }
            let cpu_pages = self.rt.os.system_pt.count_resident_in(vpns, Node::Cpu);
            if !cpu_pages.is_zero() {
                // Replayable GPU fault → driver migrates the block in
                // (or falls back to remote mapping under self-eviction).
                let fault = self.rt.params.uvm_fault_batch;
                self.rt.tick(fault);
                self.t.gpu_faults = self.t.gpu_faults.saturating_add(1);
                self.rt.session.perf.count(gh_perf::Ctr::Faults, 1);
                if self.rt.session.bus.is_on() {
                    self.rt.session.bus.emit(gh_trace::Event::PageFault {
                        kind: gh_trace::FaultKind::Gpu,
                        va: block * crate::uvm::BLOCK,
                        cost: fault,
                    });
                    self.rt.session.bus.count("uvm.gpu_faults", 1);
                    self.rt.session.bus.observe("fault.cost_ns", fault);
                }
                // Pass the *whole* allocation range: the driver refuses to
                // evict this same allocation to serve its own fault.
                let (cost, migrated) = self.rt.uvm_migrate_block_in(block, buf_range);
                self.rt.tick(cost);
                if migrated > 0 {
                    self.t.pages_migrated_in = self.t.pages_migrated_in.saturating_add(migrated);
                    self.t.bytes_migrated_in =
                        self.t.bytes_migrated_in.saturating_add(migrated * spt);
                    // Speculative sequential prefetch: after two
                    // consecutive migrated blocks, pull the next one in
                    // without waiting for its fault.
                    if self.rt.session.opts.uvm_prefetch
                        && self
                            .rt
                            .uvm
                            .migrated_this_kernel
                            .contains(&(block.wrapping_sub(1)))
                        && block_range(block + 1, buf_range).len > 0
                    {
                        let (pcost, pmigrated) = self.rt.uvm_migrate_block_in(block + 1, buf_range);
                        self.rt.tick(pcost);
                        self.t.pages_migrated_in =
                            self.t.pages_migrated_in.saturating_add(pmigrated);
                        self.t.bytes_migrated_in =
                            self.t.bytes_migrated_in.saturating_add(pmigrated * spt);
                    }
                } else {
                    // Remote mapping: cacheline-grain access to the
                    // CPU-resident pages of this block.
                    let page = self.rt.os.system_pt.page();
                    let remote_bytes = (cpu_pages * page).get().min(clip.len);
                    self.account_remote(clip.addr, remote_bytes, write, random);
                    self.walk_tlb(self.sys_keys(clip.addr, clip.end()));
                }
            }
            // Whatever is GPU-resident now is read/written locally.
            let gpu_pages = self.rt.os.system_pt.count_resident_in(vpns, Node::Gpu);
            if !gpu_pages.is_zero() {
                let page = self.rt.os.system_pt.page();
                let local_bytes = (gpu_pages * page).get().min(clip.len);
                self.account_local(local_bytes, write, random);
                self.translate(tlb_key_gpu(Vpn::new(block)));
                self.rt.uvm.touch_lru(block);
            }
            if write {
                self.mark_dirty(vpns);
            }
        }
    }

    /// Ends the kernel: runs the access-counter migration driver, charges
    /// pipelined memory/compute time, records traffic, and returns the
    /// report.
    pub fn finish(mut self) -> KernelReport {
        self.finished = true;
        // Park the L2 model so the next launch revives it with an O(1)
        // reset instead of a fresh multi-megabyte allocation. A
        // zero-capacity stand-in takes its place; no access touches the
        // L2 after this point.
        let line = Bytes::new(self.rt.params.gpu_cacheline);
        let parked = std::mem::replace(&mut self.l2, gh_mem::SetCache::new(Bytes::new(0), line, 1));
        self.rt.l2_pool = Some(parked);
        // --- access-counter migration driver (system memory, §2.2.1) ---
        let budget = self.rt.params.counter_budget_per_kernel;
        let mut serviced = 0;
        while serviced < budget {
            let Some(region) = self.rt.pending_notifs.pop_front() else {
                break;
            };
            serviced = serviced.saturating_add(1);
            let dt = self.drain_notification(region);
            self.rt.tick(dt);
        }

        // Counter aging at the kernel boundary (see
        // AccessCounters::age): sparse traffic does not accumulate
        // across kernels.
        self.rt.counters.age();

        // --- pipelined memory time ---
        let p = &self.rt.params;
        let mut mem: Ns = 0;
        mem += CostParams::transfer_ns(Bytes::new(self.hbm_stream), p.hbm_bw);
        mem += CostParams::transfer_ns(Bytes::new(self.hbm_random), p.hbm_bw * p.hbm_random_eff);
        let line = Bytes::new(p.gpu_cacheline);
        let (s_eff, r_eff) = (p.c2c_stream_eff, p.c2c_random_eff);
        mem += self
            .rt
            .link
            .cacheline_stream_eff(self.c2c_read_lines, line, Direction::H2D, s_eff);
        mem += self
            .rt
            .link
            .cacheline_stream_eff(self.c2c_write_lines, line, Direction::D2H, s_eff);
        mem += self.rt.link.cacheline_stream_eff(
            self.c2c_read_lines_rand,
            line,
            Direction::H2D,
            r_eff,
        );
        mem += self.rt.link.cacheline_stream_eff(
            self.c2c_write_lines_rand,
            line,
            Direction::D2H,
            r_eff,
        );
        mem += self.xlat_misses * p.ats_translate / XLAT_OUTSTANDING;
        let compute = ns_from_f64((self.compute_units as f64 / p.gpu_throughput).ceil());
        self.rt.tick(mem.max(compute));

        let time = self.rt.now() - self.start;
        let name = std::mem::take(&mut self.name);
        self.rt.session.bus.span_closed(&name, "kernel", self.start);
        self.rt.kernels.push(KernelRecord {
            name: name.clone(),
            time,
            traffic: self.t,
        });
        let mut by_buffer: Vec<BufferTraffic> = self
            .by_buffer
            .iter()
            .map(|(&id, &BufBytes { c2c, hbm })| BufferTraffic {
                tag: self.rt.buffer_tag(id).unwrap_or("<freed>").to_string(),
                c2c,
                hbm,
            })
            .collect();
        by_buffer.sort_by(|a, b| {
            b.c2c
                .cmp(&a.c2c)
                .then(b.hbm.cmp(&a.hbm))
                .then(a.tag.cmp(&b.tag))
        });
        KernelReport {
            name,
            time,
            traffic: self.t,
            by_buffer,
        }
    }

    /// Services one notification: migrate the touched, still-CPU-resident
    /// pages of the hot region to the GPU, up to the driver's DMA depth
    /// (`counter_service_max_pages`). Leftover touched pages stay queued:
    /// the region re-arms and re-fires on further remote access. System
    /// memory never evicts to make room — if the GPU is full the
    /// notification is dropped and the region stays CPU-resident.
    fn drain_notification(&mut self, region: u64) -> Ns {
        let spt = self.rt.os.system_pt.page_size();
        // cudaMemAdvise: ranges advised CPU-preferred or read-mostly are
        // never migrated by the counter engine.
        let region_addr = region * self.rt.params.counter_region;
        if self.rt.migration_advised_off(region_addr) {
            self.rt.remote_touched.remove(&region);
            self.rt.counters.clear(region);
            return 0;
        }
        let touched = match self.rt.remote_touched.get_mut(&region) {
            Some(t) => t,
            None => {
                self.rt.counters.clear(region);
                return 0;
            }
        };
        let cap = self.rt.params.counter_service_max_pages as usize;
        let take: Vec<Vpn> = touched.iter().copied().take(cap).collect();
        for vpn in &take {
            touched.remove(vpn);
        }
        if touched.is_empty() {
            self.rt.remote_touched.remove(&region);
        }
        self.rt.counters.clear(region);
        let movable: Vec<Vpn> = take
            .into_iter()
            .filter(|&vpn| {
                self.rt
                    .os
                    .system_pt
                    .translate(vpn)
                    .is_some_and(|pte| pte.node == Node::Cpu)
            })
            .collect();
        let page = self.rt.os.system_pt.page();
        let pages = Pages::new(widen(movable.len()));
        let bytes = pages * page;
        if bytes.is_zero() || self.rt.phys.free(Node::Gpu) < bytes {
            return 0;
        }
        for &vpn in &movable {
            self.rt.move_page(vpn, Node::Gpu);
        }
        self.t.pages_migrated_in = self.t.pages_migrated_in.saturating_add(pages.get());
        self.t.bytes_migrated_in = self.t.bytes_migrated_in.saturating_add(bytes.get());
        if self.rt.session.bus.is_on() {
            self.rt.session.bus.emit(gh_trace::Event::Migration {
                engine: gh_trace::Engine::Counter,
                dir: gh_trace::Dir::H2D,
                pages: pages.get(),
                bytes: bytes.get(),
            });
            self.rt
                .session
                .bus
                .count("counters.pages_migrated_in", pages.get());
            self.rt
                .session
                .bus
                .count("counters.bytes_migrated_in", bytes.get());
            self.rt.session.bus.observe("migration.bytes", bytes.get());
        }
        let transfer = self.rt.link.bulk(bytes, Direction::H2D);
        // In-flight stall (see CostParams::counter_stall_factor): grows
        // with the migration-unit (system page) size.
        let stall = ns_from_f64(
            transfer as f64
                * ((spt as f64 / 4096.0) - 1.0).max(0.0)
                * self.rt.params.counter_stall_factor,
        );
        self.rt.params.counter_region_fixed
            + pages
                .get()
                .saturating_mul(self.rt.params.counter_migrate_fixed)
            + transfer
            + stall
    }
}

impl Drop for Kernel<'_> {
    fn drop(&mut self) {
        if !self.finished && !std::thread::panicking() {
            panic!("kernel '{}' dropped without finish()", self.name); // gh-audit: allow(no-unwrap-in-lib) -- deliberate drop-guard trap for kernels never finish()ed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RuntimeOptions;
    use gh_mem::params::{CostParams, KIB, MIB};

    fn rt() -> Runtime {
        Runtime::new(CostParams::default(), RuntimeOptions::default())
    }

    fn rt_nomig() -> Runtime {
        Runtime::new(
            CostParams::default(),
            RuntimeOptions {
                auto_migration: false,
                ..Default::default()
            },
        )
    }

    #[test]
    fn device_access_is_local_hbm() {
        let mut r = rt();
        let d = r.cuda_malloc(Bytes::new(4 * MIB), "d").unwrap();
        let mut k = r.launch("k");
        k.read(&d, 0, 4 * MIB);
        k.write(&d, 0, MIB);
        let rep = k.finish();
        assert_eq!(rep.traffic.hbm_read, 4 * MIB);
        assert_eq!(rep.traffic.hbm_write, MIB);
        assert_eq!(rep.traffic.c2c_read, 0);
        assert_eq!(rep.traffic.l1l2, 5 * MIB);
    }

    #[test]
    fn system_cpu_resident_access_goes_over_c2c_without_migration() {
        let mut r = rt_nomig();
        let b = r.malloc_system(Bytes::new(4 * MIB), "s");
        r.cpu_write(&b, 0, 4 * MIB);
        let rss_before = r.rss();
        let mut k = r.launch("k");
        k.read(&b, 0, 4 * MIB);
        let rep = k.finish();
        assert_eq!(rep.traffic.c2c_read, 4 * MIB);
        assert_eq!(rep.traffic.hbm_read, 0);
        assert_eq!(rep.traffic.ats_faults, 0);
        assert_eq!(r.rss(), rss_before, "no migration with counters off");
    }

    #[test]
    fn system_gpu_first_touch_raises_ats_faults() {
        let mut r = rt_nomig();
        let b = r.malloc_system(Bytes::new(MIB), "s");
        let pages = MIB / r.params().system_page_size;
        let mut k = r.launch("init");
        k.write(&b, 0, MIB);
        let rep = k.finish();
        assert_eq!(rep.traffic.ats_faults, pages);
        assert_eq!(r.os().ats_faults(), pages);
        // First touch came from the GPU → pages live in HBM.
        assert_eq!(rep.traffic.hbm_write, MIB);
        assert_eq!(r.gpu_used() - r.params().gpu_driver_baseline, MIB);
    }

    #[test]
    fn system_gpu_init_slower_than_managed_gpu_init() {
        // The §5.1.2 effect: GPU-side first touch of system memory is
        // far more expensive than managed memory's block population.
        let sz = 16 * MIB;
        let mut rs = rt_nomig();
        let bs = rs.malloc_system(Bytes::new(sz), "s");
        let t0 = rs.now();
        let mut k = rs.launch("init");
        k.write(&bs, 0, sz);
        k.finish();
        let system_time = rs.now() - t0;

        let mut rm = rt_nomig();
        let bm = rm.cuda_malloc_managed(Bytes::new(sz), "m");
        let t0 = rm.now();
        let mut k = rm.launch("init");
        k.write(&bm, 0, sz);
        k.finish();
        let managed_time = rm.now() - t0;
        assert!(
            system_time > managed_time * 3,
            "system {system_time} vs managed {managed_time}"
        );
    }

    #[test]
    fn managed_cpu_resident_pages_migrate_on_gpu_access() {
        let mut r = rt();
        let b = r.cuda_malloc_managed(Bytes::new(8 * MIB), "m");
        r.cpu_write(&b, 0, 8 * MIB);
        assert_eq!(r.rss(), 8 * MIB);
        let mut k = r.launch("k");
        k.read(&b, 0, 8 * MIB);
        let rep = k.finish();
        assert_eq!(rep.traffic.bytes_migrated_in, 8 * MIB);
        assert!(rep.traffic.gpu_faults > 0);
        assert_eq!(r.rss(), 0, "all pages migrated to GPU");
        // Second kernel reads locally.
        let mut k = r.launch("k2");
        k.read(&b, 0, 8 * MIB);
        let rep2 = k.finish();
        assert_eq!(rep2.traffic.hbm_read, 8 * MIB);
        assert_eq!(rep2.traffic.bytes_migrated_in, 0);
        assert!(rep2.time < rep.time);
    }

    #[test]
    fn counter_migration_is_delayed_and_budgeted() {
        let params = CostParams {
            counter_budget_per_kernel: 1,
            ..Default::default()
        };
        let mut r = Runtime::new(params, RuntimeOptions::default());
        let b = r.malloc_system(Bytes::new(8 * MIB), "s"); // 4 regions
        r.cpu_write(&b, 0, 8 * MIB);
        // Each kernel re-reads everything: regions get hot, driver
        // migrates one region per kernel.
        let mut migrated_total = 0;
        let mut times = Vec::new();
        for i in 0..6 {
            let mut k = r.launch(&format!("iter{i}"));
            k.read(&b, 0, 8 * MIB);
            let rep = k.finish();
            migrated_total += rep.traffic.bytes_migrated_in;
            times.push(rep.time);
        }
        assert_eq!(migrated_total, 8 * MIB, "whole working set migrated");
        // Last iterations are faster than the first (local reads).
        assert!(times[5] < times[0]);
        // Migration happened over several kernels, not all at once.
        let iter0: Vec<_> = r
            .kernels
            .iter()
            .filter(|k| k.name.starts_with("iter0"))
            .collect();
        assert_eq!(iter0.len(), 1);
        assert!(iter0[0].traffic.bytes_migrated_in < 8 * MIB);
    }

    #[test]
    fn counter_migration_disabled_means_no_movement() {
        let mut r = rt_nomig();
        let b = r.malloc_system(Bytes::new(8 * MIB), "s");
        r.cpu_write(&b, 0, 8 * MIB);
        for _ in 0..3 {
            let mut k = r.launch("k");
            k.read(&b, 0, 8 * MIB);
            let rep = k.finish();
            assert_eq!(rep.traffic.bytes_migrated_in, 0);
        }
        assert_eq!(r.rss(), 8 * MIB);
    }

    #[test]
    fn strided_access_marks_random_and_touches_pages() {
        let mut r = rt_nomig();
        let b = r.malloc_system(Bytes::new(8 * MIB), "s");
        r.cpu_write(&b, 0, 8 * MIB);
        let mut k = r.launch("k");
        // 1 KiB segments every 64 KiB: touches every 64K page but only
        // 1/64 of the bytes.
        k.read_strided(&b, 0, KIB, 64 * KIB, 128);
        let rep = k.finish();
        assert_eq!(rep.traffic.c2c_read, 128 * KIB);
    }

    #[test]
    fn gather_touches_individual_lines() {
        let mut r = rt_nomig();
        let b = r.malloc_system(Bytes::new(MIB), "s");
        r.cpu_write(&b, 0, MIB);
        let mut k = r.launch("k");
        k.gather_read(&b, (0..100).map(|i| i * 8 * KIB), Bytes::new(8));
        let rep = k.finish();
        // Each 8-byte gather costs one full 128 B line remotely.
        assert_eq!(rep.traffic.c2c_read, 100 * 128);
    }

    #[test]
    fn compute_bound_kernel_time_tracks_compute() {
        let mut r = rt();
        let t0 = {
            let mut k = r.launch("c");
            k.compute(9_000_000_000); // 1 ms at 9000 units/ns
            k.finish().time
        };
        assert!((900_000..1_200_000).contains(&t0), "got {t0}");
    }

    #[test]
    fn memory_and_compute_overlap() {
        let mut r = rt();
        let d = r.cuda_malloc(Bytes::new(34 * MIB), "d").unwrap();
        let mut k = r.launch("k");
        k.read(&d, 0, 34 * MIB); // ~10 µs at 3.4 TB/s
        k.compute(900_000_000); // 100 µs
        let rep = k.finish();
        assert!(
            rep.time >= 100_000 && rep.time < 120_000,
            "compute-bound kernel, got {}",
            rep.time
        );
    }

    #[test]
    fn pinned_access_is_always_remote() {
        let mut r = rt();
        let b = r.cuda_malloc_host(Bytes::new(MIB), "p");
        let mut k = r.launch("k");
        k.read(&b, 0, MIB);
        let rep = k.finish();
        assert_eq!(rep.traffic.c2c_read, MIB);
        assert_eq!(rep.traffic.hbm_read, 0);
    }

    #[test]
    #[should_panic(expected = "without finish")]
    fn dropping_unfinished_kernel_panics() {
        let mut r = rt();
        let _k = r.launch("oops");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn kernel_access_oob_panics() {
        let mut r = rt();
        let b = r.malloc_system(Bytes::new(KIB), "s"); // rounds up to one 64 KiB page
        let mut k = r.launch("k");
        k.read(&b, 0, 128 * KIB);
        k.finish();
    }

    #[test]
    fn mem_advise_read_mostly_blocks_counter_migration() {
        let mut r = rt();
        let b = r.malloc_system(Bytes::new(6 * MIB), "shared");
        r.cpu_write(&b, 0, 6 * MIB);
        r.cuda_mem_advise(&b, crate::runtime::MemAdvise::ReadMostly);
        for _ in 0..8 {
            let mut k = r.launch("reader");
            k.read(&b, 0, 6 * MIB);
            let rep = k.finish();
            assert_eq!(rep.traffic.bytes_migrated_in, 0);
        }
        assert_eq!(r.rss(), 6 * MIB, "data stays CPU-resident");
        // Clearing the advice re-enables migration.
        r.cuda_mem_advise(&b, crate::runtime::MemAdvise::Clear);
        let mut moved = 0;
        for _ in 0..8 {
            let mut k = r.launch("reader");
            k.read(&b, 0, 6 * MIB);
            moved += k.finish().traffic.bytes_migrated_in;
        }
        assert!(moved > 0);
    }

    #[test]
    fn mem_advise_read_mostly_keeps_managed_remote() {
        let mut r = rt();
        let b = r.cuda_malloc_managed(Bytes::new(4 * MIB), "shared");
        r.cpu_write(&b, 0, 4 * MIB);
        r.cuda_mem_advise(&b, crate::runtime::MemAdvise::ReadMostly);
        let mut k = r.launch("reader");
        k.read(&b, 0, 4 * MIB);
        let rep = k.finish();
        assert_eq!(rep.traffic.bytes_migrated_in, 0, "no on-demand migration");
        assert_eq!(rep.traffic.gpu_faults, 0);
        assert_eq!(rep.traffic.c2c_read, 4 * MIB);
        assert_eq!(r.rss(), 4 * MIB);
    }

    #[test]
    fn mem_advise_preferred_gpu_steers_first_touch() {
        let mut r = rt();
        let b = r.malloc_system(Bytes::new(2 * MIB), "pref");
        r.cuda_mem_advise(&b, crate::runtime::MemAdvise::PreferredLocation(Node::Gpu));
        r.cpu_write(&b, 0, 2 * MIB);
        assert_eq!(r.rss(), 0, "CPU writes landed on the GPU node");
        assert_eq!(r.gpu_used() - r.params().gpu_driver_baseline, 2 * MIB);
    }

    #[test]
    fn read_2d_full_pitch_equals_dense() {
        let mut r = rt_nomig();
        let b = r.malloc_system(Bytes::new(MIB), "s");
        r.cpu_write(&b, 0, MIB);
        let mut k = r.launch("dense");
        k.read_2d(&b, 0, Bytes::new(1024), 1024, 64);
        let dense = k.finish().traffic;
        let mut k = r.launch("sub");
        k.read_2d(&b, 0, Bytes::new(256), 1024, 64);
        let sub = k.finish().traffic;
        assert_eq!(dense.l1l2, 64 * 1024);
        assert_eq!(sub.l1l2, 64 * 256);
        assert!(sub.c2c_read >= 64 * 256, "line-rounded remote traffic");
    }

    #[test]
    fn per_buffer_attribution_identifies_top_talker() {
        let mut r = rt_nomig();
        let remote = r.malloc_system(Bytes::new(2 * MIB), "remote_buf");
        r.cpu_write(&remote, 0, 2 * MIB);
        let local = r.cuda_malloc(Bytes::new(4 * MIB), "local_buf").unwrap();
        let mut k = r.launch("k");
        k.read(&remote, 0, 2 * MIB);
        k.read(&local, 0, 4 * MIB);
        let rep = k.finish();
        assert_eq!(rep.by_buffer.len(), 2);
        assert_eq!(rep.by_buffer[0].tag, "remote_buf");
        assert_eq!(rep.by_buffer[0].c2c, 2 * MIB);
        assert_eq!(rep.by_buffer[0].hbm, 0);
        let local_row = rep.by_buffer.iter().find(|b| b.tag == "local_buf").unwrap();
        assert_eq!(local_row.hbm, 4 * MIB);
        assert_eq!(local_row.c2c, 0);
    }

    #[test]
    fn l1l2_includes_local_and_remote() {
        let mut r = rt_nomig();
        let b = r.malloc_system(Bytes::new(2 * MIB), "s");
        r.cpu_write(&b, 0, MIB); // half CPU-resident
        let mut k = r.launch("init_rest");
        k.write(&b, MIB, MIB); // half GPU first-touch
        k.finish();
        let mut k = r.launch("k");
        k.read(&b, 0, 2 * MIB);
        let rep = k.finish();
        assert_eq!(rep.traffic.l1l2, 2 * MIB);
        assert_eq!(rep.traffic.c2c_read, MIB);
        assert_eq!(rep.traffic.hbm_read, MIB);
    }
}
