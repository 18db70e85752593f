//! Kernel launch recording: the access-metering API and the
//! access-counter migration driver.
//!
//! A [`Kernel`] is what the `<<<grid, block>>>` launch returns in this
//! model. The application's *real* compute runs outside it: on `gh-par`
//! loops between launches, or, for needle and bfs, as a `gh_par::join`
//! job on a pool worker while the thread that holds the `Machine`
//! meters. The kernel object receives a description of the memory
//! accesses the compute performs — dense spans, strided segments, gathers — plus a
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
//! Every metered access takes one of two paths, and both give
//! bitwise-identical `RunReport`s and trace streams:
//!
//! * the **fragment core** ([`Kernel::fragments`], the one dispatch on
//!   the buffer kind; [`Kernel::read`] and [`Kernel::write`] are
//!   one-fragment calls, and the strided, 2-D, gather and scatter forms
//!   build their lists on it): a list of fragments on one buffer.
//!   Placement is resolved once per page run (system memory) or 2 MiB
//!   block (managed memory) and kept for the rest of the kernel. A
//!   system fragment of more than `BATCH_MIN_PAGES` pages that is not
//!   wholly resident on one node is classified into placement runs once:
//!   resident runs are charged as runs, unpopulated runs fault page by
//!   page, and fault cost left pending between them ticks where the
//!   per-page walk ticks. Consecutive lookups of one TLB key, consecutive
//!   counter records of one region, consecutive LRU touches of one block
//!   and overlapping dirty ranges are queued and land as one update each;
//!   only the L2 model sees every fragment, in order. A fragment whose
//!   effects depend on order lands the queue and takes the walk: a short
//!   system fragment with unpopulated or mixed pages, a managed block not
//!   wholly on the GPU, migration advice or a CPU pin, CPU-resident pages
//!   under tracing with counters armed (`CounterNotify` must interleave
//!   with `TlbEvict`), and a multi-page CPU-resident span whose geometry
//!   does not split exactly;
//! * the **reference walk** (`Kernel::meter`): the per-page loop over
//!   system memory and the per-block loop over managed memory, kept as
//!   the oracle for differential testing and debugging, and the core's
//!   fallback.
//!
//! The queues are exact in any order: each structure (TLB, counters,
//! touched pages, UVM LRU, dirty bits) receives only its own updates,
//! in issue order, and a merge only ever joins equal neighbours, so an
//! unsorted or overlapping list just merges less. Placement stays valid
//! because nothing but the walk moves pages while a kernel meters, and
//! the core forgets what it resolved before the walk runs.
//!
//! The session's [`SessionCtx::access_ref`](crate::SessionCtx::access_ref)
//! switch, set through
//! [`SessionOptions::access_ref`](crate::SessionOptions::access_ref),
//! selects the reference walk: every fragment goes to the walk, which
//! looks up TLB keys, marks dirty pages and walks system pages one at a
//! time with a freshly built L2 model. Managed block handling (first
//! touch, migration, prefetch, eviction) is the same code on both paths.

use gh_mem::clock::Ns;
use gh_mem::link::Direction;
use gh_mem::params::CostParams;
use gh_mem::phys::Node;
use gh_mem::tlb::{tlb_key_gpu, tlb_key_sys};
use gh_mem::traffic::KernelTraffic;
use gh_os::VaRange;
use gh_units::{narrow, ns_from_f64, to_f64, widen, Bytes, Lines, Pages, Vpn, VpnRange};

use crate::buffer::{BufKind, Buffer};
use crate::runtime::Runtime;
use crate::uvm::{block_of, block_range};

/// How many translation requests the GPU keeps in flight; ATS latency is
/// amortized by this factor for streaming access. The H100's many TBUs
/// and deep translation queues hide nearly all miss latency for regular
/// sweeps — the paper's Fig 9 shows the system version's *compute* time
/// to be page-size independent even with 16M live 4 KiB translations.
const XLAT_OUTSTANDING: u64 = 4096;

/// The classification threshold: a system fragment with unpopulated or
/// mixed pages is split into placement runs only when it spans more than
/// this many pages. A shorter one takes the per-page walk, where
/// classifying costs more than it saves; both give the same result.
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

/// One touch of a [`Kernel::fragments`] list: `len` bytes at byte offset
/// `off` of the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frag {
    /// Byte offset into the buffer.
    pub off: u64,
    /// Length in bytes; empty fragments are skipped.
    pub len: u64,
    /// Irregular (line-granular, L2-filtered, metered at random-access
    /// efficiency) rather than a dense stream.
    pub random: bool,
}

impl Frag {
    /// An irregular touch, as one segment of [`Kernel::read_strided`]
    /// meters it.
    pub fn irregular(off: u64, len: u64) -> Self {
        Frag {
            off,
            len,
            random: true,
        }
    }
}

/// Per-buffer byte attribution accumulator (remote vs. local).
#[derive(Debug, Clone, Copy, Default)]
struct BufBytes {
    c2c: u64,
    hbm: u64,
}

/// The fragment core's state within one [`Kernel::fragments`] call:
/// updates charged but not yet applied, and the buffer's resolved
/// placement. Each queued field holds the last run of equal consecutive
/// updates; a different update lands it first.
#[derive(Debug, Default)]
struct Pending {
    /// A TLB key and how many lookups of it in a row are owed.
    tlb: Option<(Vpn, u64)>,
    /// A counter region and the remote cachelines owed to it.
    lines: Option<(u64, u64)>,
    /// A counter region and CPU-resident pages touched in it.
    touched: Option<(u64, VpnRange)>,
    /// A managed block owed one LRU touch.
    lru: Option<u64>,
    /// System pages owed dirty marks.
    dirty: Option<VpnRange>,
    /// What is known of the buffer's placement.
    placed: Placed,
}

/// Placement a kernel's fragment calls resolved for one buffer. It
/// holds until the per-page or per-block walk runs
/// ([`Kernel::forget`]): nothing else moves pages while the kernel
/// meters.
#[derive(Debug, Default, Clone, Copy)]
struct Placed {
    /// System pages found resident on one node.
    run: Option<(VpnRange, Node)>,
    /// A managed block found wholly GPU-resident.
    block: Option<u64>,
    /// The managed buffer's migration advice and CPU pin were checked.
    managed_ok: bool,
}

/// [`Placed`] for the last few buffers a kernel's fragment calls
/// touched (bfs's second kernel alternates two), kept inline so a call
/// never allocates.
#[derive(Debug, Default)]
struct Memo {
    slots: [Option<(u32, Placed)>; 4],
    next: usize,
}

impl Memo {
    fn get(&self, id: u32) -> Placed {
        self.slots
            .iter()
            .flatten()
            .find(|(b, _)| *b == id)
            .map_or_else(Placed::default, |&(_, placed)| placed)
    }

    fn put(&mut self, id: u32, placed: Placed) {
        let i = match self
            .slots
            .iter()
            .position(|s| s.is_some_and(|(b, _)| b == id))
        {
            Some(i) => i,
            None => {
                self.next = (self.next + 1) % self.slots.len();
                self.next
            }
        };
        self.slots[i] = Some((id, placed));
    }
}

/// The smallest range covering two overlapping or adjacent ranges.
fn union(a: VpnRange, b: VpnRange) -> VpnRange {
    VpnRange::new(a.start.min(b.start), a.end.max(b.end))
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
    t: KernelTraffic,
    /// Per-buffer byte attribution.
    by_buffer: std::collections::BTreeMap<u32, BufBytes>,
    /// Placement resolved by fragment calls, per buffer.
    memo: Memo,
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
        // Each kernel starts with an empty L2. The batched path resets
        // the runtime's cache in O(1) and keeps its storage; the
        // reference walk takes a fresh one, which answers alike (see
        // `SetCache::reset`) and allocates nothing until used.
        if rt.session.access_ref {
            rt.l2 = crate::runtime::gpu_l2(&rt.params);
        } else {
            rt.l2.reset();
        }
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
            t: KernelTraffic::default(),
            by_buffer: std::collections::BTreeMap::new(),
            memo: Memo::default(),
            finished: false,
            _perf_span: perf_span,
        }
    }

    /// Declares `units` of compute work (≈ simple arithmetic ops across
    /// all threads). Overlapped with memory traffic at finish.
    pub fn compute(&mut self, units: u64) {
        self.compute_units = self.compute_units.saturating_add(units);
    }

    /// Dense streaming read of `[off, off+len)`: a one-fragment
    /// [`Kernel::fragments`] call.
    pub fn read(&mut self, buf: &Buffer, off: u64, len: u64) {
        let random = false;
        self.fragments(buf, false, [Frag { off, len, random }]);
    }

    /// Dense streaming write; see [`Kernel::read`].
    pub fn write(&mut self, buf: &Buffer, off: u64, len: u64) {
        let random = false;
        self.fragments(buf, true, [Frag { off, len, random }]);
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
        let segs = (0..count).map(|i| Frag::irregular(off + i * stride, seg_len));
        self.fragments(buf, write, segs);
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
        let len = bytes_each.get();
        self.fragments(
            buf,
            false,
            offsets.into_iter().map(|off| Frag::irregular(off, len)),
        );
    }

    /// Irregular scatter: writes `bytes_each` at each byte offset.
    pub fn scatter_write<I: IntoIterator<Item = u64>>(
        &mut self,
        buf: &Buffer,
        offsets: I,
        bytes_each: Bytes,
    ) {
        let len = bytes_each.get();
        self.fragments(
            buf,
            true,
            offsets.into_iter().map(|off| Frag::irregular(off, len)),
        );
    }

    /// Meters a list of fragments of `buf`, all reads or all writes. The
    /// result — `RunReport`, trace stream, every count — is that of one
    /// [`Kernel::read`]/[`Kernel::write`] per dense fragment and one
    /// single-segment [`Kernel::read_strided`]/[`Kernel::write_strided`]
    /// per irregular one, issued in list order, and that of the per-page
    /// reference walk.
    ///
    /// Any order is exact, but ascending address order is what makes the
    /// call cheap: the core resolves placement once per page run (system
    /// memory) or 2 MiB block (managed memory), and merges consecutive
    /// lookups of one TLB key, consecutive counter records of one region,
    /// consecutive LRU touches of one block and overlapping dirty ranges
    /// into one update each (see the module docs, "Access paths").
    pub fn fragments<I: IntoIterator<Item = Frag>>(&mut self, buf: &Buffer, write: bool, frags: I) {
        let before = self.attributable();
        let mut p = Pending {
            placed: self.memo.get(buf.id()),
            ..Pending::default()
        };
        let mut any = false;
        let unified = self.rt.params.unified_pool;
        for f in frags {
            if f.len == 0 {
                continue;
            }
            assert!(buf.in_bounds(f.off, f.len), "kernel access out of range");
            any = true;
            let span = buf.range.slice(f.off, f.len);
            let batched = !self.rt.session.access_ref
                && match buf.kind {
                    BufKind::Device => {
                        self.queue_tlb(&mut p, self.device_keys(span));
                        self.account_local(span.len, write, f.random);
                        true
                    }
                    BufKind::Pinned if !unified => {
                        self.frag_pinned(&mut p, span, write, f.random);
                        true
                    }
                    BufKind::Managed if !unified => {
                        self.frag_managed(&mut p, buf.range, span, write, f.random)
                    }
                    BufKind::Pinned | BufKind::System | BufKind::Managed => {
                        self.frag_system(&mut p, span, write, f.random)
                    }
                };
            if !batched {
                self.forget(&mut p);
                self.meter(buf, span, write, f.random);
            }
        }
        self.flush(&mut p);
        self.memo.put(buf.id(), p.placed);
        if any {
            self.attribute(buf.id(), before);
        }
    }

    // ------------------------------------------------------------------

    /// The per-page/per-block walk over one span of `buf`: the fragment
    /// core's fallback for a fragment whose effects depend on order, and
    /// the whole of the reference walk. The caller has landed its queue
    /// and forgotten resolved placement, since the walk may fault,
    /// migrate or evict.
    fn meter(&mut self, buf: &Buffer, span: VaRange, write: bool, random: bool) {
        match buf.kind {
            BufKind::Device => self.span_device(span, write, random),
            // In a unified pool every host-visible kind is just mapped
            // shared memory: no pinned-remote path, no UVM migration.
            BufKind::Pinned | BufKind::System | BufKind::Managed if self.rt.params.unified_pool => {
                self.span_system(span, write, random)
            }
            BufKind::Pinned => self.span_pinned(span, write, random),
            BufKind::System => self.span_system(span, write, random),
            BufKind::Managed => self.span_managed(buf.range, span, write, random),
        }
    }

    /// Remote and local bytes charged so far, for per-buffer attribution.
    fn attributable(&self) -> BufBytes {
        BufBytes {
            c2c: self.t.c2c_read + self.t.c2c_write,
            hbm: self.t.hbm_read + self.t.hbm_write,
        }
    }

    /// Attributes everything charged since `before` to buffer `id`.
    fn attribute(&mut self, id: u32, before: BufBytes) {
        let now = self.attributable();
        let entry = self.by_buffer.entry(id).or_default();
        entry.c2c = entry.c2c.saturating_add(now.c2c.saturating_sub(before.c2c));
        entry.hbm = entry.hbm.saturating_add(now.hbm.saturating_sub(before.hbm));
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
            let missed = self.rt.l2.access_range(addr, Bytes::new(bytes.max(1)));
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
            self.count_misses(1);
        }
    }

    fn count_misses(&mut self, misses: u64) {
        self.t.tlb_misses = self.t.tlb_misses.saturating_add(misses);
    }

    /// TLB walk over contiguous keys in key order: one lookup per key
    /// under `access_ref`, one batched range lookup otherwise
    /// (bit-identical TLB state and miss counts).
    fn walk_tlb(&mut self, keys: VpnRange) {
        if self.rt.session.access_ref {
            for key in keys {
                self.translate(key);
            }
            return;
        }
        let misses = self.rt.gpu_tlb.lookup_range(keys);
        self.count_misses(misses);
    }

    /// Marks system pages dirty: page by page under `access_ref`, as one
    /// range otherwise. Dirty bits never touch the TLB, so callers may
    /// mark after walking.
    fn mark_dirty(&mut self, vpns: VpnRange) {
        if self.rt.session.access_ref {
            for vpn in vpns {
                self.rt.os.system_pt.mark_dirty(vpn);
            }
        } else {
            self.rt.os.system_pt.mark_dirty_range(vpns);
        }
    }

    /// TLB key range covering the system pages of `[a0, a1)`.
    fn sys_keys(&self, a0: u64, a1: u64) -> VpnRange {
        let first = self.rt.os.system_pt.vpn(a0);
        let last = self.rt.os.system_pt.vpn(a1 - 1);
        VpnRange::new(tlb_key_sys(first), tlb_key_sys(last).offset(1))
    }

    /// TLB key range covering the 2 MiB device pages of `span` (keys are
    /// contiguous because `tlb_key_gpu` only sets a high namespace bit).
    fn device_keys(&self, span: VaRange) -> VpnRange {
        let gp = self.rt.params.gpu_page_size;
        let first = Vpn::new(span.addr / gp);
        let last = Vpn::new((span.end() - 1) / gp);
        #[cfg(debug_assertions)]
        for v in first.get()..=last.get() {
            debug_assert!(
                self.rt.gpu_pt.is_populated(Vpn::new(v)),
                "access to unmapped device page"
            );
        }
        VpnRange::new(tlb_key_gpu(first), tlb_key_gpu(last).offset(1))
    }

    fn span_device(&mut self, span: VaRange, write: bool, random: bool) {
        // One TLB walk per page, traffic summed — per-page portions are
        // linear in bytes, so one charge equals the per-page sum.
        self.walk_tlb(self.device_keys(span));
        self.account_local(span.len, write, random);
    }

    fn span_pinned(&mut self, span: VaRange, write: bool, random: bool) {
        // Pinned memory is always CPU-resident: pure remote traffic.
        self.walk_tlb(self.sys_keys(span.addr, span.end()));
        if write {
            self.mark_dirty(self.rt.os.system_pt.vpn_range(span.addr, span.len));
        }
        self.account_remote(span.addr, span.len, write, random);
    }

    fn span_system(&mut self, span: VaRange, write: bool, random: bool) {
        let (_, fault_cost) =
            self.span_system_pages(span.addr, span.end(), write, random, 0, false);
        if fault_cost > 0 {
            self.rt.tick(fault_cost);
        }
    }

    /// Whether remote accounting can be charged per run instead of per
    /// page: line-aligned page boundaries (so per-page cacheline counts
    /// sum exactly), full pages never taking the small-irregular L2 path,
    /// and page-aligned counter regions (so counter chunks never split a
    /// page).
    fn lines_split_exactly(&self) -> bool {
        let spt = self.rt.os.system_pt.page_size();
        let line = self.rt.params.gpu_cacheline;
        spt.is_multiple_of(line)
            && spt >= 4 * line
            && self.rt.params.counter_region.is_multiple_of(spt)
    }

    /// The per-page walk over `[addr, end)` of system memory — the
    /// original access path, retained as the behavioural baseline the
    /// fragment core is differentially tested against, and the core's own
    /// path through unpopulated pages. Returns the resume address and
    /// still-pending fault cost. With `stop_after_flush`, the walk returns
    /// right after a 256 KiB flush tick zeroes the pending cost, so the
    /// core can take over at the same virtual time.
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
                        self.record(region, lines);
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

    /// Records `lines` remote cachelines against counter `region`,
    /// queueing the notification if it fires.
    fn record(&mut self, region: u64, lines: u64) {
        if let Some(n) = self.rt.counters.record(region, lines) {
            self.rt.pending_notifs.push_back(n.region);
            self.t.notifications = self.t.notifications.saturating_add(1);
        }
    }

    /// Charges `span` of system memory, every page of it resident on
    /// `node`, into `p`: exactly what the reference walk charges page by
    /// page. TLB keys, linear traffic sums, and access-counter lines per
    /// region. A span within one page is the walk's single step; a
    /// longer one splits on the page grid (head/tail partial pages take
    /// the small-irregular L2 path, full pages never do under
    /// [`Kernel::lines_split_exactly`]) and sums per-page-exact
    /// cachelines per region chunk.
    ///
    /// Returns `false`, having charged nothing, for a CPU-resident span
    /// the per-page walk must take instead: a multi-page span whose
    /// geometry does not split exactly, or tracing with counters armed,
    /// where `CounterNotify` events must interleave with `TlbEvict` events
    /// as the walk emits them.
    fn resident(
        &mut self,
        p: &mut Pending,
        span: VaRange,
        node: Node,
        write: bool,
        random: bool,
    ) -> bool {
        let spt = self.rt.os.system_pt.page_size();
        let line = self.rt.params.gpu_cacheline;
        let (a0, a1) = (span.addr, span.end());
        let vpns = self.rt.os.system_pt.vpn_range(a0, a1 - a0);
        let one_page = vpns.count().get() == 1;
        let keys = VpnRange::new(tlb_key_sys(vpns.start), tlb_key_sys(vpns.end));
        if node == Node::Gpu || self.rt.params.unified_pool {
            self.queue_tlb(p, keys);
            self.account_local(a1 - a0, write, random);
        } else {
            let counters = self.rt.counters.enabled();
            if (counters && self.rt.session.bus.is_on())
                || !(one_page || self.lines_split_exactly())
            {
                return false;
            }
            self.queue_tlb(p, keys);
            if one_page {
                self.account_remote(a0, a1 - a0, write, random);
                if counters {
                    let region = self.rt.counters.region_of(a0);
                    self.queue_record(p, region, (a1 - a0).div_ceil(line), vpns);
                }
            } else {
                // Head partial / interior full pages / tail partial:
                // `ceil(total/line)` differs from the per-page sum, so the
                // split must mirror the page grid.
                let mut a = a0;
                let head_end = (a0 / spt + 1) * spt;
                if !a0.is_multiple_of(spt) {
                    self.account_remote(a0, head_end.min(a1) - a0, write, random);
                    a = head_end;
                }
                if a < a1 {
                    let full = (a1 - a) / spt;
                    if full > 0 {
                        self.account_remote_full_pages(full, write, random);
                        a += full * spt;
                    }
                    if a < a1 {
                        self.account_remote(a, a1 - a, write, random);
                    }
                }
                if counters {
                    let rsz = self.rt.params.counter_region;
                    let mut c = a0;
                    while c < a1 {
                        let c_end = ((c / rsz + 1) * rsz).min(a1);
                        let region = self.rt.counters.region_of(c);
                        let pages = self.rt.os.system_pt.vpn_range(c, c_end - c);
                        let lines = lines_per_page_sum(c, c_end, spt, line);
                        self.queue_record(p, region, lines, pages);
                        c = c_end;
                    }
                }
            }
        }
        if write {
            self.queue_dirty(p, vpns);
        }
        true
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
        // Thrash-pinned or ReadMostly/CPU-preferred-advised allocations
        // are served entirely by coherent remote access (no faults, no
        // migration attempts) once their pages exist.
        if self.rt.migration_advised_off(buf_range.addr) {
            let vpns = self.rt.os.system_pt.vpn_range(span.addr, span.len);
            let res = self.rt.os.system_pt.residency(vpns);
            let gpu = res.gpu;
            if res.populated() == vpns.count() {
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
        for block in block_of(span.addr)..=block_of(span.end() - 1) {
            let clip = block_range(block, span);
            if clip.len > 0 {
                self.managed_block(buf_range, block, clip, write, random);
            }
        }
    }

    /// One block's share `clip` of a managed span: first touch, fault and
    /// migration (or remote mapping) for the pages not yet on the GPU,
    /// then local access to what is.
    fn managed_block(
        &mut self,
        buf_range: VaRange,
        block: u64,
        clip: VaRange,
        write: bool,
        random: bool,
    ) {
        let spt = self.rt.os.system_pt.page_size();
        let vpns = self.rt.os.system_pt.vpn_range(clip.addr, clip.len);
        // One residency read, repeated only after a first touch or a
        // migration attempt has moved pages.
        let mut res = self.rt.os.system_pt.residency(vpns);
        if res.populated() < vpns.count() {
            // GPU first touch: block-granularity population, directly
            // in GPU memory — the *fast* managed init path (§5.1.2).
            let (cost, _, _) = self.rt.uvm_first_touch_block(block, buf_range);
            self.rt.tick(cost);
            self.gpu_fault(block, cost);
            res = self.rt.os.system_pt.residency(vpns);
        }
        let cpu_pages = res.cpu;
        if !cpu_pages.is_zero() {
            // Replayable GPU fault → driver migrates the block in
            // (or falls back to remote mapping under self-eviction).
            let fault = self.rt.params.uvm_fault_batch;
            self.rt.tick(fault);
            self.gpu_fault(block, fault);
            // Pass the *whole* allocation range: the driver refuses to
            // evict this same allocation to serve its own fault.
            let (cost, migrated) = self.rt.uvm_migrate_block_in(block, buf_range);
            self.rt.tick(cost);
            if migrated > 0 {
                self.t.pages_migrated_in = self.t.pages_migrated_in.saturating_add(migrated);
                self.t.bytes_migrated_in = self.t.bytes_migrated_in.saturating_add(migrated * spt);
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
                    self.t.pages_migrated_in = self.t.pages_migrated_in.saturating_add(pmigrated);
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
            res = self.rt.os.system_pt.residency(vpns);
        }
        // Whatever is GPU-resident now is read/written locally.
        let gpu_pages = res.gpu;
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

    /// Counts one replayable GPU fault on `block` costing `cost`.
    fn gpu_fault(&mut self, block: u64, cost: Ns) {
        self.t.gpu_faults = self.t.gpu_faults.saturating_add(1);
        self.rt.session.perf.count(gh_perf::Ctr::Faults, 1);
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

    // --- the fragment core (see `Kernel::fragments`) -------------------

    /// Lands everything `p` has queued and forgets every placement the
    /// kernel resolved, before per-page or per-block code that may fault,
    /// migrate or evict.
    fn forget(&mut self, p: &mut Pending) {
        self.flush(p);
        p.placed = Placed::default();
        self.memo = Memo::default();
    }

    /// A pinned fragment: CPU-resident by construction, so pure remote
    /// traffic with no counters (as [`Kernel::span_pinned`]).
    fn frag_pinned(&mut self, p: &mut Pending, span: VaRange, write: bool, random: bool) {
        self.queue_tlb(p, self.sys_keys(span.addr, span.end()));
        if write {
            self.queue_dirty(p, self.rt.os.system_pt.vpn_range(span.addr, span.len));
        }
        self.account_remote(span.addr, span.len, write, random);
    }

    /// A system-memory fragment. Placement comes from the page run last
    /// resolved for the buffer when it covers the fragment, else from one
    /// page-table query, and a fragment wholly resident on one node is
    /// one resident run. A fragment with unpopulated or mixed pages is
    /// split into runs ([`Kernel::frag_system_runs`]) when it spans more
    /// than [`BATCH_MIN_PAGES`] pages whose lines split exactly; any other
    /// returns `false` for the per-page walk.
    fn frag_system(&mut self, p: &mut Pending, span: VaRange, write: bool, random: bool) -> bool {
        let vpns = self.rt.os.system_pt.vpn_range(span.addr, span.len);
        let (node, resolved) = match p.placed.run {
            Some((run, node)) if run.start <= vpns.start && vpns.end <= run.end => (node, true),
            _ => {
                let pt = &self.rt.os.system_pt;
                let node = if vpns.count().get() == 1 {
                    pt.translate(vpns.start).map(|pte| pte.node)
                } else {
                    pt.translate_range(vpns)
                };
                let Some(node) = node else {
                    if vpns.count().get() <= BATCH_MIN_PAGES || !self.lines_split_exactly() {
                        return false;
                    }
                    self.frag_system_runs(p, span, vpns, write, random);
                    return true;
                };
                p.placed.run = Some((vpns, node));
                (node, false)
            }
        };
        let batched = self.resident(p, span, node, write, random);
        if batched {
            self.count_batched(resolved);
        }
        batched
    }

    /// A system fragment with mixed or unpopulated pages, classified once
    /// into placement runs and walked in address order. A resident run is
    /// charged into `p`; an unpopulated run, or one [`Kernel::resident`]
    /// refuses, lands the queue and takes the per-page walk. Fault cost
    /// the walk leaves pending carries into the next run: a resident run
    /// after it is walked page by page up to the next 256 KiB tick, so
    /// every traced event keeps the reference walk's virtual time. Cost
    /// is only ever pending right after a walk, so the queue is empty at
    /// the final tick.
    fn frag_system_runs(
        &mut self,
        p: &mut Pending,
        span: VaRange,
        vpns: VpnRange,
        write: bool,
        random: bool,
    ) {
        let spt = self.rt.os.system_pt.page_size();
        let mut fault_cost: Ns = 0;
        for (vr, node) in self.rt.os.system_pt.classify_runs(vpns) {
            // Clip the run (vpn-granular) to the accessed byte span.
            let mut a = span.addr.max(vr.start.get() * spt);
            let a1 = span.end().min(vr.end.get() * spt);
            if let Some(node) = node {
                if fault_cost > 0 {
                    self.flush(p);
                    (a, fault_cost) =
                        self.span_system_pages(a, a1, write, random, fault_cost, true);
                }
                if a >= a1 {
                    continue;
                }
                let run = VaRange {
                    addr: a,
                    len: a1 - a,
                };
                if self.resident(p, run, node, write, random) {
                    self.count_batched(false);
                    continue;
                }
            }
            // Unpopulated pages fault page by page (SMMU, OS cost accrual,
            // flush cadence); a refused resident run takes the same walk.
            self.forget(p);
            (_, fault_cost) = self.span_system_pages(a, a1, write, random, fault_cost, false);
        }
        if fault_cost > 0 {
            self.rt.tick(fault_cost);
        }
    }

    /// Counts one fragment charged as a resident run, `resolved` when
    /// its placement came without a page-table query.
    fn count_batched(&self, resolved: bool) {
        let perf = &self.rt.session.perf;
        perf.count(gh_perf::Ctr::BatchRuns, 1);
        perf.count(gh_perf::Ctr::FastSpans, u64::from(resolved));
    }

    /// A managed fragment. Each 2 MiB block it touches is checked once
    /// for full GPU residency; the fragment's share of a resident block
    /// is local traffic, one lookup of the block's TLB key, an LRU touch
    /// and dirty marks. A block with CPU-resident or unpopulated pages
    /// takes the per-block code (faults, migration, eviction) until it is
    /// resident. Migration advice or a CPU pin sends the whole fragment
    /// to the per-block walk (`false`).
    fn frag_managed(
        &mut self,
        p: &mut Pending,
        buf_range: VaRange,
        span: VaRange,
        write: bool,
        random: bool,
    ) -> bool {
        if !p.placed.managed_ok {
            if self.rt.migration_advised_off(buf_range.addr) || self.rt.uvm.is_pinned_cpu(buf_range)
            {
                return false;
            }
            p.placed.managed_ok = true;
        }
        for block in block_of(span.addr)..=block_of(span.end() - 1) {
            let clip = block_range(block, span);
            let resolved = p.placed.block == Some(block);
            if !resolved {
                let whole = block_range(block, buf_range);
                let vpns = self.rt.os.system_pt.vpn_range(whole.addr, whole.len);
                let on_gpu = self.rt.os.system_pt.count_resident_in(vpns, Node::Gpu);
                if on_gpu != vpns.count() {
                    self.forget(p);
                    self.managed_block(buf_range, block, clip, write, random);
                    continue;
                }
                p.placed.block = Some(block);
            }
            self.count_batched(resolved);
            self.account_local(clip.len, write, random);
            let key = tlb_key_gpu(Vpn::new(block));
            self.queue_tlb(p, VpnRange::new(key, key.offset(1)));
            if p.lru != Some(block) {
                self.flush_lru(p);
                p.lru = Some(block);
            }
            if write {
                self.queue_dirty(p, self.rt.os.system_pt.vpn_range(clip.addr, clip.len));
            }
        }
        true
    }

    /// Queues a walk over the ascending, non-empty `keys`: a first key
    /// equal to the pending one extends its repeat count, the keys in
    /// between are walked now, and the last stays pending for the next
    /// fragment to extend.
    fn queue_tlb(&mut self, p: &mut Pending, keys: VpnRange) {
        let last = keys.end.back(1);
        let mut first = keys.start;
        if let Some((key, n)) = &mut p.tlb {
            if *key == first {
                *n += 1;
                if first == last {
                    return;
                }
                first = first.offset(1);
            }
        }
        self.flush_tlb(p);
        let misses = self.rt.gpu_tlb.lookup_range(VpnRange::new(first, last));
        self.count_misses(misses);
        p.tlb = Some((last, 1));
    }

    /// Queues `lines` remote cachelines on counter `region` and the
    /// CPU-resident `pages` touched in it.
    fn queue_record(&mut self, p: &mut Pending, region: u64, lines: u64, pages: VpnRange) {
        match &mut p.lines {
            Some((r, n)) if *r == region => *n = n.saturating_add(lines),
            _ => {
                self.flush_lines(p);
                p.lines = Some((region, lines));
            }
        }
        match &mut p.touched {
            Some((r, vr)) if *r == region && pages.start <= vr.end && vr.start <= pages.end => {
                *vr = union(*vr, pages);
            }
            _ => {
                self.flush_touched(p);
                p.touched = Some((region, pages));
            }
        }
    }

    /// Queues dirty marks for `vpns`.
    fn queue_dirty(&mut self, p: &mut Pending, vpns: VpnRange) {
        match &mut p.dirty {
            Some(vr) if vpns.start <= vr.end && vr.start <= vpns.end => *vr = union(*vr, vpns),
            _ => {
                self.flush_dirty(p);
                p.dirty = Some(vpns);
            }
        }
    }

    fn flush_tlb(&mut self, p: &mut Pending) {
        if let Some((key, n)) = p.tlb.take() {
            let misses = self.rt.gpu_tlb.lookup_repeat(key, n);
            self.count_misses(misses);
        }
    }

    fn flush_lines(&mut self, p: &mut Pending) {
        if let Some((region, lines)) = p.lines.take() {
            self.record(region, lines);
        }
    }

    fn flush_touched(&mut self, p: &mut Pending) {
        if let Some((region, pages)) = p.touched.take() {
            self.rt
                .remote_touched
                .entry(region)
                .or_default()
                .extend(pages);
        }
    }

    fn flush_lru(&mut self, p: &mut Pending) {
        if let Some(block) = p.lru.take() {
            self.rt.uvm.touch_lru(block);
        }
    }

    fn flush_dirty(&mut self, p: &mut Pending) {
        if let Some(vpns) = p.dirty.take() {
            self.mark_dirty(vpns);
        }
    }

    /// Lands everything `p` has queued. Each structure receives its own
    /// updates in issue order, and none of them reads another, so the
    /// result is the per-page walk's.
    fn flush(&mut self, p: &mut Pending) {
        self.flush_tlb(p);
        self.flush_lines(p);
        self.flush_touched(p);
        self.flush_lru(p);
        self.flush_dirty(p);
    }

    /// Ends the kernel: runs the access-counter migration driver, charges
    /// pipelined memory/compute time, records traffic, and returns the
    /// report.
    pub fn finish(mut self) -> KernelReport {
        self.finished = true;
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
        mem += self.t.tlb_misses * p.ats_translate / XLAT_OUTSTANDING;
        let compute = p.compute_ns(self.compute_units);
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
        let cap = narrow(self.rt.params.counter_service_max_pages);
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
        // `movable` is ascending: move each run of consecutive pages at once.
        for run in movable.chunk_by(|a, b| b.get() == a.get() + 1) {
            if let (Some(&first), Some(&last)) = (run.first(), run.last()) {
                let vpns = VpnRange::new(first, last.offset(1));
                self.rt.move_pages(vpns, Node::Cpu, Node::Gpu);
            }
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
            to_f64(transfer)
                * ((to_f64(spt) / 4096.0) - 1.0).max(0.0)
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
    #[expect(
        clippy::panic,
        reason = "deliberate drop-guard trap for kernels never finish()ed"
    )]
    fn drop(&mut self) {
        if !self.finished && !std::thread::panicking() {
            panic!("kernel '{}' dropped without finish()", self.name);
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

    /// One kernel that writes each buffer densely, then reads it
    /// irregularly (strided and gathered 8-byte touches).
    fn touch_irregularly(r: &mut Runtime, bufs: &[Buffer]) {
        let mut k = r.launch("k");
        for b in bufs {
            k.write(b, 0, MIB);
            k.read_strided(b, 0, 8, 4 * KIB, 64);
            k.gather_read(b, [8, 640, 8], Bytes::new(8));
        }
        k.finish();
    }

    #[test]
    fn l2_storage_appears_at_the_first_remote_irregular_touch() {
        // gh200, GPU-resident memory only: device memory, and system and
        // managed memory first touched by the GPU.
        let mut r = rt();
        let bufs = [
            r.cuda_malloc(Bytes::new(MIB), "d").unwrap(),
            r.malloc_system(Bytes::new(MIB), "s"),
            r.cuda_malloc_managed(Bytes::new(MIB), "m"),
        ];
        touch_irregularly(&mut r, &bufs);
        touch_irregularly(&mut r, &bufs);
        assert_eq!(r.l2.heap_bytes(), Bytes::ZERO);

        // An MI300A-style unified pool: every host-visible kind is local,
        // CPU-initialised or not.
        let unified = CostParams {
            unified_pool: true,
            gpu_mem_bytes: 128 * MIB,
            cpu_mem_bytes: 128 * MIB,
            gpu_driver_baseline: 512 * KIB,
            ..CostParams::default()
        };
        let mut r = Runtime::new(unified, RuntimeOptions::default());
        let bufs = [
            r.cuda_malloc(Bytes::new(MIB), "d").unwrap(),
            r.cuda_malloc_host(Bytes::new(MIB), "h"),
            r.malloc_system(Bytes::new(MIB), "s"),
            r.cuda_malloc_managed(Bytes::new(MIB), "m"),
        ];
        for b in &bufs[1..] {
            r.cpu_write(b, 0, MIB);
        }
        touch_irregularly(&mut r, &bufs);
        assert_eq!(r.l2.heap_bytes(), Bytes::ZERO);

        // gh200, one 8-byte read of pinned memory: the whole model.
        let mut r = rt();
        let h = r.cuda_malloc_host(Bytes::new(MIB), "h");
        let mut k = r.launch("k");
        k.read_strided(&h, 0, 8, 4 * KIB, 1);
        k.finish();
        // 40 MiB of 128 B lines in 16 ways is 20,480 sets, rounded up to
        // 32,768; each holds 16 line ids and a header word.
        let full = Bytes::new(32_768 * (16 + 1) * 8);
        assert_eq!(r.l2.heap_bytes(), full);
        r.launch("k").finish();
        r.l2.reset();
        assert_eq!(r.l2.heap_bytes(), full, "reset keeps the storage");
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
    fn fault_cost_pending_after_a_faulting_head_ticks_where_the_walk_ticks() {
        // A read whose first pages fault and whose rest is CPU-resident.
        // Fault cost still pending when the head ends must tick at the
        // 256 KiB boundary the reference walk ticks at, or the TlbEvict
        // events an 8-entry TLB emits carry other virtual times.
        let events = |head: u64, counters: bool, access_ref: bool| {
            let params = CostParams {
                gpu_tlb_entries: 8,
                ..CostParams::default()
            };
            let opts = RuntimeOptions {
                auto_migration: counters,
                ..Default::default()
            };
            let so = crate::SessionOptions {
                trace: true,
                access_ref,
                ..Default::default()
            };
            let mut r =
                Runtime::with_session(params, crate::session::SessionCtx::with_options(opts, &so));
            let page = r.params().system_page_size;
            let b = r.malloc_system(Bytes::new(4 * MIB), "s");
            r.cpu_write(&b, head * page, 4 * MIB - head * page);
            let mut k = r.launch("k");
            k.read(&b, 0, 4 * MIB);
            k.finish();
            r.session.bus.take().events
        };
        for head in [1, 2, 3, 5, 6, 7, 9] {
            for counters in [false, true] {
                let reference = events(head, counters, true);
                assert!(reference
                    .iter()
                    .any(|s| matches!(s.event, gh_trace::Event::TlbEvict { .. })));
                assert_eq!(
                    events(head, counters, false),
                    reference,
                    "{head} unpopulated head pages, counters {counters}"
                );
            }
        }
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
