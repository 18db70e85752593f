//! Cost-model parameters for the simulated GH200.
//!
//! All bandwidths are in bytes per nanosecond, which conveniently equals
//! GB/s (10⁹ B / 10⁹ ns). All fixed costs are virtual nanoseconds.
//!
//! The defaults are calibrated in two steps: link/memory bandwidths come
//! straight from the paper's §2.1 measurements (STREAM and Comm|Scope on
//! real hardware); per-event software costs (fault service, PTE teardown,
//! driver work) are set so the paper's published *ratios* hold — e.g. the
//! 4 KB→64 KB dealloc improvement (Fig 6, avg 15.9×) and the 33-qubit
//! system-memory init speedup at 64 KB pages (Fig 9, ~5×).

use gh_units::{Bytes, PageSize, Pages};

pub const KIB: u64 = 1024;
pub const MIB: u64 = 1024 * KIB;

/// A cost-parameter consistency violation found by [`CostParams::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ParamError {
    /// `system_page_size` is not a power of two.
    PageSizeNotPowerOfTwo(u64),
    /// `system_page_size` falls outside `[4 KiB, gpu_page_size]`.
    PageSizeOutOfRange {
        /// The offending page size.
        page: u64,
        /// The configured GPU page size (upper bound).
        max: u64,
    },
    /// `gpu_driver_baseline` leaves no usable GPU memory.
    DriverBaselineExceedsCapacity {
        /// The configured driver baseline.
        baseline: u64,
        /// The GPU capacity it must stay below.
        capacity: u64,
    },
    /// `counter_region` is not a multiple of the system page size.
    CounterRegionMisaligned {
        /// The configured counter region.
        region: u64,
        /// The system page size it must align to.
        page: u64,
    },
    /// A bandwidth/throughput field is zero or negative.
    NonPositiveBandwidth(&'static str),
    /// An efficiency factor falls outside `[0, 1]`.
    EfficiencyOutOfRange(&'static str),
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamError::PageSizeNotPowerOfTwo(page) => {
                write!(f, "system_page_size must be a power of two (got {page})")
            }
            ParamError::PageSizeOutOfRange { page, max } => write!(
                f,
                "system_page_size must be in [4 KiB, gpu_page_size = {max}] (got {page})"
            ),
            ParamError::DriverBaselineExceedsCapacity { baseline, capacity } => write!(
                f,
                "driver baseline exceeds GPU capacity ({baseline} >= {capacity})"
            ),
            ParamError::CounterRegionMisaligned { region, page } => write!(
                f,
                "counter_region ({region}) must be a multiple of the system page size ({page})"
            ),
            ParamError::NonPositiveBandwidth(name) => write!(f, "{name} must be positive"),
            ParamError::EfficiencyOutOfRange(name) => {
                write!(f, "{name} must be in [0, 1]")
            }
        }
    }
}

impl std::error::Error for ParamError {}

/// Every tunable of the memory model in one place.
///
/// Construct with [`CostParams::default`] (the calibrated GH200 model) and
/// override individual fields for ablation studies.
#[derive(Debug, Clone)]
pub struct CostParams {
    // ---- capacities (scaled 1:1024 from the real 480 GB + 96 GB) ----
    /// CPU (Grace, LPDDR5X) physical capacity in bytes.
    pub cpu_mem_bytes: u64,
    /// GPU (Hopper, HBM3) physical capacity in bytes.
    pub gpu_mem_bytes: u64,
    /// GPU memory held by the driver at all times (`nvidia-smi` baseline,
    /// ~600 MB on real hardware; scaled here).
    pub gpu_driver_baseline: u64,
    /// Unified physical pool: CPU and GPU share one physical memory (the
    /// MI300A model). When set, `gpu_mem_bytes` is the size of the single
    /// pool, capacity is shared between the nodes (which remain as
    /// attribution labels only), and page migration/eviction between tiers
    /// is physically meaningless and disabled by the runtime.
    pub unified_pool: bool,

    // ---- page sizes ----
    /// System page size (4 KiB or 64 KiB on Grace).
    pub system_page_size: u64,
    /// GPU-exclusive page table page size (2 MiB on Hopper).
    pub gpu_page_size: u64,

    // ---- bandwidths, bytes/ns == GB/s ----
    /// GPU HBM3 measured STREAM bandwidth (paper: 3.4 TB/s).
    pub hbm_bw: f64,
    /// CPU LPDDR5X measured STREAM bandwidth (paper: 486 GB/s).
    pub lpddr_bw: f64,
    /// NVLink-C2C host-to-device bulk bandwidth (paper: 375 GB/s).
    pub c2c_h2d_bw: f64,
    /// NVLink-C2C device-to-host bulk bandwidth (paper: 297 GB/s).
    pub c2c_d2h_bw: f64,
    /// Effective fraction of C2C bandwidth reached by *dense streaming*
    /// cacheline-grain remote access. Massively parallel sequential
    /// access keeps the link nearly saturated.
    pub c2c_stream_eff: f64,
    /// Effective fraction of C2C bandwidth reached by *irregular*
    /// cacheline-grain remote access (strided segments, gathers). The
    /// dominant sparse-access penalty — full 128 B lines per touch — is
    /// accounted separately by line rounding; this factor only covers
    /// the residual scheduling/row-buffer inefficiency.
    pub c2c_random_eff: f64,
    /// Effective fraction of HBM bandwidth reached by irregular access.
    pub hbm_random_eff: f64,
    /// Single-threaded CPU initialization bandwidth (bytes/ns). The paper
    /// notes Rodinia CPU-side init is single-threaded and I/O bound.
    pub cpu_init_bw: f64,

    // ---- latencies ----
    /// Base latency of one NVLink-C2C round trip (ns).
    pub c2c_latency: u64,
    /// Base HBM access latency (ns).
    pub hbm_latency: u64,

    // ---- cacheline granularities (paper §2.1.1) ----
    /// Transfer granularity of CPU-initiated remote access (64 B).
    pub cpu_cacheline: u64,
    /// Transfer granularity of GPU-initiated remote access (128 B).
    pub gpu_cacheline: u64,

    // ---- OS paging costs ----
    /// Fixed CPU cost to service a CPU-originated first-touch minor fault
    /// (page table walk + PTE install), excluding zero-fill.
    pub cpu_fault_fixed: u64,
    /// Fixed CPU cost to service one *GPU-originated* (SMMU/ATS) fault on
    /// system-allocated memory. These faults are serviced serially by the
    /// OS on the CPU, which is why GPU-side first touch of system memory is
    /// expensive (paper §5.1.2).
    pub ats_fault_fixed: u64,
    /// Per-byte component of ATS fault service (zero-fill, PTE setup and
    /// shootdown work scale with the page). Together with the fixed part
    /// this calibrates the paper's Fig 9 ratio: GPU-side init of system
    /// memory improves ~5× going from 4 KiB to 64 KiB pages.
    pub ats_fault_per_byte: f64,
    /// Per-page PTE teardown cost on `free`/`munmap`. Dealloc time is
    /// proportional to page count, giving the 4 KB vs 64 KB gap of Fig 6.
    pub pte_teardown: u64,
    /// Cost of creating a VMA (`malloc` of a large region is just a VMA).
    pub vma_create: u64,
    /// Per-page cost of `cudaHostRegister`-style pre-population (pinning +
    /// PTE install, amortized bulk path, cheaper than fault-driven touch).
    pub host_register_per_page: u64,
    /// Page-table-walk cost paid by the SMMU on a TLB miss (ns).
    pub smmu_walk: u64,
    /// Cost of one ATS translation request over NVLink-C2C (ns).
    pub ats_translate: u64,

    // ---- GPU caches ----
    /// Modelled GPU L2 capacity in bytes (H100: 50 MB; kept unscaled —
    /// cacheline reuse is an absolute-hardware effect). Small irregular
    /// remote accesses that re-touch a cached line hit in L2 instead of
    /// crossing NVLink-C2C again.
    pub gpu_l2_bytes: u64,

    // ---- GPU TLB ----
    /// Number of entries in the modelled (last-level) GPU TLB.
    pub gpu_tlb_entries: usize,

    // ---- CUDA runtime costs ----
    /// GPU context initialization (paper §4: charged at first CUDA API call
    /// for explicit/managed, at first kernel launch for system memory).
    /// Scaled 1:1024 like the capacities — this one-time driver cost is
    /// size-independent on real hardware (~250 ms) and would otherwise
    /// dominate every scaled comparison.
    pub ctx_init: u64,
    /// Fixed cost of `cudaMalloc`.
    pub cuda_malloc_fixed: u64,
    /// Per-GPU-page (2 MiB) cost of `cudaMalloc` PTE setup.
    pub cuda_malloc_per_page: u64,
    /// Fixed cost of `cudaMallocManaged` (VMA bookkeeping only).
    pub cuda_malloc_managed_fixed: u64,
    /// Fixed cost of `cudaFree`.
    pub cuda_free_fixed: u64,
    /// Fixed per-call cost of `cudaMemcpy`.
    pub memcpy_fixed: u64,
    /// Fixed kernel-launch overhead.
    pub kernel_launch: u64,
    /// Effective GPU compute throughput in work-units per ns. Kernels
    /// declare their work in abstract units (≈ simple arithmetic ops).
    pub gpu_throughput: f64,

    // ---- managed memory (UVM) driver ----
    /// Cost of one GPU page-fault *batch* service (GPU replayable fault →
    /// driver interrupt → migration setup). Literature: ~20–50 µs.
    pub uvm_fault_batch: u64,
    /// Maximum pages migrated per fault batch (the driver coalesces
    /// faults within a 2 MiB VA block).
    pub uvm_migration_block: u64,
    /// Fixed per-block migration cost on top of the transfer time.
    pub uvm_migration_fixed: u64,
    /// Fixed cost of `cudaMemPrefetchAsync` per call.
    pub prefetch_fixed: u64,
    /// Fixed per-evicted-block cost when GPU memory is exhausted.
    pub evict_fixed: u64,
    /// Managed GPU-side first-touch: pages are created directly in the GPU
    /// page table at 2 MiB granularity; per-2MiB-page cost.
    pub uvm_gpu_first_touch_per_page: u64,

    // ---- access-counter (system memory) migration driver ----
    /// Remote-access count per region that triggers a notification
    /// (paper §2.2.1: default 256).
    pub counter_threshold: u32,
    /// Region granularity tracked by the access counters (2 MiB VA block).
    pub counter_region: u64,
    /// Notifications the driver services per kernel launch. Bounding this
    /// spreads working-set migration over several iterations, matching the
    /// SRAD behaviour in Fig 10: SRAD's image spans ~7 counter regions and
    /// runs 2 kernels/iteration, so budget 1 completes migration around
    /// iteration 4.
    pub counter_budget_per_kernel: usize,
    /// Fixed cost per counter-based migrated system page.
    pub counter_migrate_fixed: u64,
    /// Fixed driver cost per serviced notification (interrupt handling,
    /// VA-block lookup, migration setup).
    pub counter_region_fixed: u64,
    /// Maximum pages moved per serviced notification (DMA queue depth).
    /// With 4 KiB pages this caps a service at 512 KiB, so large working
    /// sets migrate noticeably slower than with 64 KiB pages — one of the
    /// two page-size effects behind Figs 7 and 10.
    pub counter_service_max_pages: u64,
    /// In-flight migration stall: accesses that race a page being
    /// migrated stall until the transfer completes, and both the blocked
    /// VA window and the expected wait grow with the migration unit. The
    /// charge is `transfer_time × (page_size/4 KiB − 1) × factor` per
    /// service — zero for 4 KiB pages, significant for 64 KiB (the
    /// paper's "temporary latency increase when the computation accesses
    /// pages that are being migrated", §5.2).
    pub counter_stall_factor: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        Self {
            cpu_mem_bytes: 480 * MIB,
            gpu_mem_bytes: 96 * MIB,
            gpu_driver_baseline: 600 * KIB,
            unified_pool: false,

            system_page_size: 64 * KIB,
            gpu_page_size: 2 * MIB,

            hbm_bw: 3400.0,
            lpddr_bw: 486.0,
            c2c_h2d_bw: 375.0,
            c2c_d2h_bw: 297.0,
            c2c_stream_eff: 0.92,
            c2c_random_eff: 0.55,
            hbm_random_eff: 0.55,
            cpu_init_bw: 9.0,

            c2c_latency: 850,
            hbm_latency: 450,

            cpu_cacheline: 64,
            gpu_cacheline: 128,

            cpu_fault_fixed: 1_100,
            ats_fault_fixed: 3_600,
            ats_fault_per_byte: 0.15,
            pte_teardown: 190,
            vma_create: 2_500,
            host_register_per_page: 650,
            smmu_walk: 550,
            ats_translate: 1_000,

            gpu_l2_bytes: 40 * MIB,

            gpu_tlb_entries: 3_072,

            ctx_init: 244_000,
            cuda_malloc_fixed: 120_000,
            cuda_malloc_per_page: 1_300,
            cuda_malloc_managed_fixed: 120_000,
            cuda_free_fixed: 90_000,
            memcpy_fixed: 12_000,
            kernel_launch: 6_000,
            gpu_throughput: 9_000.0,

            uvm_fault_batch: 28_000,
            uvm_migration_block: 2 * MIB,
            uvm_migration_fixed: 18_000,
            prefetch_fixed: 25_000,
            evict_fixed: 9_000,
            uvm_gpu_first_touch_per_page: 22_000,

            counter_threshold: 256,
            counter_region: 2 * MIB,
            counter_budget_per_kernel: 1,
            counter_migrate_fixed: 150,
            counter_region_fixed: 15_000,
            counter_service_max_pages: 128,
            counter_stall_factor: 2.0,
        }
    }
}

impl CostParams {
    /// The calibrated default with a 4 KiB system page size.
    pub fn with_4k_pages() -> Self {
        Self {
            system_page_size: 4 * KIB,
            ..Self::default()
        }
    }

    /// The calibrated default with a 64 KiB system page size.
    pub fn with_64k_pages() -> Self {
        Self::default()
    }

    /// Time to move `bytes` at `bw` bytes/ns: rounds half-up and
    /// saturates (see [`gh_units::transfer_ns`]), with a 1 ns floor for
    /// any non-zero transfer.
    pub fn transfer_ns(bytes: Bytes, bw: f64) -> u64 {
        gh_units::transfer_ns(bytes, bw)
    }

    /// Time for `units` of declared kernel work at `gpu_throughput`
    /// work-units per ns, rounded up.
    pub fn compute_ns(&self, units: u64) -> u64 {
        gh_units::ns_from_f64((gh_units::to_f64(units) / self.gpu_throughput).ceil())
    }

    /// The system page size as a typed [`PageSize`].
    pub fn system_page(&self) -> PageSize {
        PageSize::new(self.system_page_size)
    }

    /// The GPU-exclusive page size as a typed [`PageSize`].
    pub fn gpu_page(&self) -> PageSize {
        PageSize::new(self.gpu_page_size)
    }

    /// Number of system pages spanned by `bytes`.
    pub fn system_pages(&self, bytes: Bytes) -> Pages {
        bytes.pages_ceil(self.system_page())
    }

    /// Number of GPU (2 MiB) pages spanned by `bytes`.
    pub fn gpu_pages(&self, bytes: Bytes) -> Pages {
        bytes.pages_ceil(self.gpu_page())
    }

    /// Validates internal consistency; called by the machine builder.
    pub fn validate(&self) -> Result<(), ParamError> {
        if !self.system_page_size.is_power_of_two() {
            return Err(ParamError::PageSizeNotPowerOfTwo(self.system_page_size));
        }
        if self.system_page_size < 4 * KIB || self.system_page_size > self.gpu_page_size {
            return Err(ParamError::PageSizeOutOfRange {
                page: self.system_page_size,
                max: self.gpu_page_size,
            });
        }
        if self.gpu_driver_baseline >= self.gpu_mem_bytes {
            return Err(ParamError::DriverBaselineExceedsCapacity {
                baseline: self.gpu_driver_baseline,
                capacity: self.gpu_mem_bytes,
            });
        }
        if !self.counter_region.is_multiple_of(self.system_page_size) {
            return Err(ParamError::CounterRegionMisaligned {
                region: self.counter_region,
                page: self.system_page_size,
            });
        }
        for (name, v) in [
            ("hbm_bw", self.hbm_bw),
            ("lpddr_bw", self.lpddr_bw),
            ("c2c_h2d_bw", self.c2c_h2d_bw),
            ("c2c_d2h_bw", self.c2c_d2h_bw),
            ("gpu_throughput", self.gpu_throughput),
            ("cpu_init_bw", self.cpu_init_bw),
        ] {
            if v <= 0.0 {
                return Err(ParamError::NonPositiveBandwidth(name));
            }
        }
        for (name, v) in [
            ("c2c_random_eff", self.c2c_random_eff),
            ("c2c_stream_eff", self.c2c_stream_eff),
            ("hbm_random_eff", self.hbm_random_eff),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(ParamError::EfficiencyOutOfRange(name));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        CostParams::default().validate().unwrap();
        CostParams::with_4k_pages().validate().unwrap();
    }

    #[test]
    fn page_size_presets() {
        assert_eq!(CostParams::with_4k_pages().system_page_size, 4 * KIB);
        assert_eq!(CostParams::with_64k_pages().system_page_size, 64 * KIB);
    }

    #[test]
    fn transfer_time_rounds_half_up() {
        assert_eq!(CostParams::transfer_ns(Bytes::new(0), 100.0), 0);
        assert_eq!(CostParams::transfer_ns(Bytes::new(1), 1000.0), 1);
        assert_eq!(CostParams::transfer_ns(Bytes::new(1000), 100.0), 10);
    }

    #[test]
    fn page_count_helpers() {
        let p = CostParams::with_4k_pages();
        assert_eq!(p.system_pages(Bytes::new(1)), Pages::new(1));
        assert_eq!(p.system_pages(Bytes::new(4 * KIB)), Pages::new(1));
        assert_eq!(p.system_pages(Bytes::new(4 * KIB + 1)), Pages::new(2));
        assert_eq!(p.gpu_pages(Bytes::new(2 * MIB)), Pages::new(1));
        assert_eq!(p.gpu_pages(Bytes::new(2 * MIB + 1)), Pages::new(2));
    }

    #[test]
    fn validate_rejects_bad_page_size() {
        let mut p = CostParams {
            system_page_size: 3000,
            ..Default::default()
        };
        assert!(p.validate().is_err());
        p.system_page_size = 4 * MIB;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_efficiency() {
        let p = CostParams {
            c2c_random_eff: 1.5,
            ..Default::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_driver_baseline_over_capacity() {
        let mut p = CostParams::default();
        p.gpu_driver_baseline = p.gpu_mem_bytes;
        assert!(p.validate().is_err());
    }

    #[test]
    fn bandwidths_match_paper_section_2_1() {
        let p = CostParams::default();
        assert_eq!(p.hbm_bw, 3400.0);
        assert_eq!(p.lpddr_bw, 486.0);
        assert_eq!(p.c2c_h2d_bw, 375.0);
        assert_eq!(p.c2c_d2h_bw, 297.0);
    }

    #[test]
    fn counter_defaults_match_paper() {
        let p = CostParams::default();
        assert_eq!(p.counter_threshold, 256);
        assert_eq!(p.counter_region, 2 * MIB);
    }

    #[test]
    fn page_presets_differ_only_in_page_size() {
        let four = CostParams::with_4k_pages();
        let sixty_four = CostParams::with_64k_pages();
        assert_eq!(four.system_page_size, 4 * KIB);
        assert_eq!(sixty_four.system_page_size, 64 * KIB);
        assert_eq!(four.gpu_page_size, sixty_four.gpu_page_size);
        assert_eq!(four.hbm_bw, sixty_four.hbm_bw);
        assert_eq!(four.cpu_mem_bytes, sixty_four.cpu_mem_bytes);
        assert_eq!(four.counter_region, sixty_four.counter_region);
        assert!(!four.unified_pool && !sixty_four.unified_pool);
    }

    #[test]
    fn transfer_ns_zero_bytes_is_free() {
        // Zero-byte transfers must not be charged the 1 ns floor.
        assert_eq!(CostParams::transfer_ns(Bytes::new(0), 0.001), 0);
        assert_eq!(CostParams::transfer_ns(Bytes::new(0), 1e12), 0);
    }

    #[test]
    fn transfer_ns_sub_page_sizes_hit_the_floor() {
        // Any non-zero transfer takes at least 1 virtual ns, even when
        // bytes/bw rounds to zero (one byte over a 3.4 TB/s link).
        assert_eq!(CostParams::transfer_ns(Bytes::new(1), 3400.0), 1);
        assert_eq!(CostParams::transfer_ns(Bytes::new(63), 3400.0), 1);
        assert_eq!(CostParams::transfer_ns(Bytes::new(4 * KIB - 1), 1e9), 1);
    }

    #[test]
    fn transfer_ns_rounds_half_up_at_bandwidth_boundaries() {
        // Exact multiples divide evenly; fractional quotients round
        // half-up deterministically instead of always ceiling.
        assert_eq!(CostParams::transfer_ns(Bytes::new(1000), 100.0), 10);
        assert_eq!(CostParams::transfer_ns(Bytes::new(1001), 100.0), 10); // 10.01 -> 10
        assert_eq!(CostParams::transfer_ns(Bytes::new(1049), 100.0), 10); // 10.49 -> 10
        assert_eq!(CostParams::transfer_ns(Bytes::new(1050), 100.0), 11); // 10.50 -> 11
        assert_eq!(CostParams::transfer_ns(Bytes::new(64 * KIB), 64.0), KIB);
        assert_eq!(CostParams::transfer_ns(Bytes::new(64 * KIB + 1), 64.0), KIB); // +1/64 ns
        assert_eq!(
            CostParams::transfer_ns(Bytes::new(64 * KIB + 32), 64.0),
            KIB + 1
        ); // +.5 ns
           // Paper bandwidths at exact 1 GiB boundaries.
        assert_eq!(CostParams::transfer_ns(Bytes::new(375 * 1000), 375.0), 1000);
        assert_eq!(CostParams::transfer_ns(Bytes::new(297 * 1000), 297.0), 1000);
    }

    #[test]
    fn transfer_ns_saturates_instead_of_truncating() {
        // bytes/bw beyond u64::MAX saturates to the rail; the old
        // truncating `as u64` produced an arbitrary wrapped value.
        assert_eq!(
            CostParams::transfer_ns(Bytes::new(u64::MAX), 1e-12),
            u64::MAX
        );
        assert_eq!(
            CostParams::transfer_ns(Bytes::new(u64::MAX), f64::MIN_POSITIVE),
            u64::MAX
        );
    }

    #[test]
    fn transfer_ns_is_monotone_in_bytes() {
        let mut prev = 0;
        for bytes in [0, 1, 64, 4 * KIB, 64 * KIB, MIB, 2 * MIB + 1] {
            let t = CostParams::transfer_ns(Bytes::new(bytes), 486.0);
            assert!(t >= prev, "transfer_ns not monotone at {bytes} bytes");
            prev = t;
        }
    }

    #[test]
    fn system_pages_rounds_up_at_page_boundaries() {
        let p = CostParams::with_64k_pages();
        assert_eq!(p.system_pages(Bytes::new(0)), Pages::new(0));
        assert_eq!(p.system_pages(Bytes::new(64 * KIB - 1)), Pages::new(1));
        assert_eq!(p.system_pages(Bytes::new(64 * KIB)), Pages::new(1));
        assert_eq!(p.system_pages(Bytes::new(64 * KIB + 1)), Pages::new(2));
    }

    #[test]
    fn validate_errors_are_typed_and_printable() {
        let bad_pow2 = CostParams {
            system_page_size: 3000,
            ..Default::default()
        };
        assert_eq!(
            bad_pow2.validate().unwrap_err(),
            ParamError::PageSizeNotPowerOfTwo(3000)
        );

        let bad_range = CostParams {
            system_page_size: 4 * MIB,
            ..Default::default()
        };
        assert!(matches!(
            bad_range.validate().unwrap_err(),
            ParamError::PageSizeOutOfRange { page, .. } if page == 4 * MIB
        ));

        let bad_bw = CostParams {
            lpddr_bw: 0.0,
            ..Default::default()
        };
        let err = bad_bw.validate().unwrap_err();
        assert_eq!(err, ParamError::NonPositiveBandwidth("lpddr_bw"));
        assert_eq!(err.to_string(), "lpddr_bw must be positive");

        let bad_region = CostParams {
            counter_region: 2 * MIB + 1,
            ..Default::default()
        };
        assert!(matches!(
            bad_region.validate().unwrap_err(),
            ParamError::CounterRegionMisaligned { .. }
        ));

        let bad_eff = CostParams {
            hbm_random_eff: -0.1,
            ..Default::default()
        };
        assert_eq!(
            bad_eff.validate().unwrap_err(),
            ParamError::EfficiencyOutOfRange("hbm_random_eff")
        );
    }

    #[test]
    fn validate_error_display_names_the_baseline() {
        let mut p = CostParams::default();
        p.gpu_driver_baseline = p.gpu_mem_bytes;
        let msg = p.validate().unwrap_err().to_string();
        assert!(msg.contains("driver baseline exceeds GPU capacity"));
    }
}
