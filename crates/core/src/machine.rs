//! The `Machine`: one simulated platform plus experiment bookkeeping.

use gh_cuda::{BufKind, Buffer, Runtime, RuntimeOptions};
use gh_mem::clock::Ns;
use gh_mem::params::CostParams;
use gh_mem::traffic::KernelTraffic;
use gh_profiler::{Phase, PhaseTimer};

use crate::platform::PlatformCaps;
use crate::report::RunReport;

/// A simulated machine with the paper's experiment conveniences: phase
/// timing, the oversubscription balloon, and report extraction. Build
/// one through a [`Platform`](crate::platform::Platform) — the machine
/// carries its platform's [`PlatformCaps`] so capability-dependent
/// experiment steps degrade to "not applicable" instead of silently
/// reporting zeros.
#[derive(Debug)]
pub struct Machine {
    /// The underlying runtime — all allocation/copy/launch APIs live here.
    pub rt: Runtime,
    timer: PhaseTimer,
    balloon: Option<Buffer>,
    checksum: f64,
    /// Whether a phase span is open on the trace bus (mirrors the timer).
    phase_span_open: bool,
    caps: PlatformCaps,
    /// Experiment steps that were requested but are meaningless on this
    /// platform; surfaced verbatim in the run report.
    not_applicable: Vec<String>,
    /// Invariant sanitizer (`Some` when the session asks for it; the
    /// default is on in debug builds). Observation-only: checking never
    /// advances the clock or mutates runtime state, so a sanitized run
    /// is bitwise identical to an unsanitized one.
    sanitizer: Option<gh_units::sanitizer::Sanitizer>,
    /// Label of the phase currently open (snapshots are taken when it
    /// closes).
    open_phase: Option<&'static str>,
    /// Whether the session's trace bus records; the sanitizer's
    /// link-conservation check needs whole-lifetime counters, so it only
    /// trusts the bus when the run was traced from boot (always true for
    /// a session bus — it cannot be toggled mid-run).
    traced: bool,
}

impl Machine {
    /// Boots a machine with explicit parameters and options, assuming
    /// GH200-class capabilities. Prefer building through a
    /// [`Platform`](crate::platform::Platform).
    pub fn new(params: CostParams, opts: RuntimeOptions) -> Self {
        Self::with_caps(params, opts, crate::platform::gh200().caps())
    }

    /// Boots a machine for a specific platform's capability set with a
    /// quiet session (no tracing/profiling, build-default sanitizing).
    pub fn with_caps(params: CostParams, opts: RuntimeOptions, caps: PlatformCaps) -> Self {
        Self::with_session(params, gh_cuda::SessionCtx::new(opts), caps)
    }

    /// Boots a machine under an explicit [`SessionCtx`](gh_cuda::SessionCtx)
    /// — the constructor every boundary (CLI, benches, gh-jobs workers)
    /// funnels through. The session decides tracing, profiling, and
    /// sanitizing for this run; nothing is read from the environment.
    pub fn with_session(
        params: CostParams,
        session: gh_cuda::SessionCtx,
        caps: PlatformCaps,
    ) -> Self {
        let sanitize = session.sanitize;
        let rt = Runtime::with_session(params, session);
        let traced = rt.session().bus.is_on();
        Self {
            rt,
            timer: PhaseTimer::new(),
            balloon: None,
            checksum: 0.0,
            phase_span_open: false,
            caps,
            not_applicable: Vec::new(),
            sanitizer: sanitize.then(gh_units::sanitizer::Sanitizer::new),
            open_phase: None,
            traced,
        }
    }

    /// Boots the calibrated default GH200 (64 KiB pages, migration on).
    pub fn default_gh200() -> Self {
        Self::new(CostParams::default(), RuntimeOptions::default())
    }

    /// The capability set of the platform this machine simulates.
    pub fn caps(&self) -> PlatformCaps {
        self.caps
    }

    /// Experiment steps skipped so far as not applicable on this
    /// platform.
    pub fn not_applicable(&self) -> &[String] {
        &self.not_applicable
    }

    /// The most bytes of `kind` allocations this machine's physical
    /// memory can back at once: the bound `grace-mem qv` checks a
    /// statevector against, and replay a trace's live footprint, before
    /// either allocates. A unified pool backs every kind from the one
    /// pool; on two tiers, device memory is the GPU's, pinned pages never
    /// leave the CPU, managed blocks are evicted to the CPU so they
    /// cannot outgrow it, and system pages land on whichever node has
    /// room.
    pub fn capacity(&self, kind: BufKind) -> u64 {
        let p = self.rt.params();
        let gpu = p.gpu_mem_bytes.saturating_sub(p.gpu_driver_baseline);
        if p.unified_pool {
            return gpu;
        }
        match kind {
            BufKind::Device => gpu,
            BufKind::Pinned | BufKind::Managed => p.cpu_mem_bytes,
            BufKind::System => p.cpu_mem_bytes.saturating_add(gpu),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Ns {
        self.rt.now()
    }

    /// Enters an experiment phase (closes the previous one).
    pub fn phase(&mut self, p: Phase) {
        self.sanitize_closed_phase();
        let now = self.rt.now();
        let bus = self.rt.session().bus.clone();
        self.rt.session().perf.phase_mark(p.label(), now);
        self.timer.enter(p, now);
        if self.phase_span_open {
            bus.span_exit();
        }
        bus.span_enter(p.label(), "phase");
        self.phase_span_open = bus.is_on();
        self.open_phase = Some(p.label());
    }

    /// Feeds the just-closed phase's accounting state to the sanitizer.
    fn sanitize_closed_phase(&mut self) {
        let Some(san) = self.sanitizer.as_mut() else {
            return;
        };
        let Some(label) = self.open_phase else {
            return; // nothing ran yet
        };
        let traced = self.traced;
        san.check(
            &self
                .rt
                .sanitizer_snapshot(label, self.caps.migration, traced),
        );
    }

    /// Records the application's correctness checksum.
    pub fn set_checksum(&mut self, c: f64) {
        self.checksum = c;
    }

    /// Creates the paper's *simulated oversubscription* setup (§3.2):
    /// a `cudaMalloc` balloon sized so that the free GPU memory equals
    /// `peak_usage / ratio`. `ratio == 1.0` means the working set exactly
    /// fits; larger ratios oversubscribe. Returns the free bytes left.
    ///
    /// Call before the application allocates anything on the GPU.
    pub fn oversubscribe(&mut self, peak_usage: u64, ratio: f64) -> u64 {
        assert!(ratio >= 1.0, "oversubscription ratio must be ≥ 1");
        assert!(self.balloon.is_none(), "balloon already installed");
        if !self.caps.oversubscription {
            // A unified pool has no device-only carve-out to shrink:
            // record the skip instead of pretending a ratio was applied.
            self.not_applicable.push(format!(
                "oversubscription (ratio {ratio}) not applicable on {}: \
                 single physical pool, no balloon to install",
                self.caps.name
            ));
            return self.rt.gpu_free();
        }
        let target_free = (peak_usage as f64 / ratio) as u64;
        let free_now = self.rt.gpu_free();
        if free_now > target_free {
            let gp = self.rt.params().gpu_page_size;
            // Round *down*: the balloon may not take more than the excess.
            let balloon_bytes = (free_now - target_free) / gp * gp;
            if balloon_bytes > 0 {
                #[expect(
                    clippy::expect_used,
                    reason = "balloon size is computed from free memory just above"
                )]
                let b = self
                    .rt
                    .cuda_malloc(gh_units::Bytes::new(balloon_bytes), "balloon")
                    .expect("balloon fits in free memory by construction");
                self.balloon = Some(b);
            }
        }
        self.rt.gpu_free()
    }

    /// Releases the balloon (end of an oversubscription experiment).
    pub fn release_balloon(&mut self) {
        if let Some(b) = self.balloon.take() {
            self.rt.free(b);
        }
    }

    /// Closes the run and extracts the report. Consumes the machine.
    pub fn finish(mut self) -> RunReport {
        self.sanitize_closed_phase();
        self.release_balloon();
        // Final snapshot after teardown: frees must conserve too.
        if let Some(san) = self.sanitizer.as_mut() {
            let traced = self.traced;
            san.check(
                &self
                    .rt
                    .sanitizer_snapshot("finish", self.caps.migration, traced),
            );
        }
        let sanitizer = self.sanitizer.take().map(|s| s.finish());
        let bus = self.rt.session().bus.clone();
        let perf = self.rt.session().perf.clone();
        if self.phase_span_open {
            bus.span_exit();
            self.phase_span_open = false;
        }
        let now = self.rt.now();
        perf.run_end(now);
        let phases = self.timer.finish(now);
        let peak_gpu = self.rt.peak_gpu();
        let checksum = self.checksum;
        let peak_rss = self.rt.peak_rss();
        let (samples, kernels) = self.rt.into_parts();
        let mut traffic = KernelTraffic::default();
        for k in &kernels {
            traffic.merge(&k.traffic);
        }
        // Drain the bus into the report so exporters (chrome trace,
        // metrics dump, explain table) work off one snapshot.
        let trace = bus.is_on().then(|| bus.take());
        RunReport {
            platform: self.caps.name,
            phases,
            samples,
            peak_gpu,
            peak_rss,
            traffic,
            kernels,
            checksum,
            not_applicable: self.not_applicable,
            trace,
            sanitizer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gh_mem::params::MIB;

    #[test]
    fn phases_are_recorded() {
        let mut m = Machine::default_gh200();
        m.phase(Phase::Alloc);
        let b = m.rt.malloc_system(gh_units::Bytes::new(MIB), "x");
        m.phase(Phase::CpuInit);
        m.rt.cpu_write(&b, 0, MIB);
        m.phase(Phase::Dealloc);
        m.rt.free(b);
        let r = m.finish();
        assert!(r.phases.alloc > 0);
        assert!(r.phases.cpu_init > 0);
        assert!(r.phases.dealloc > 0);
        assert_eq!(r.phases.compute, 0);
    }

    #[test]
    fn oversubscription_balloon_shrinks_free_memory() {
        let mut m = Machine::default_gh200();
        let peak = 20 * MIB;
        let free = m.oversubscribe(peak, 2.0);
        assert!(free <= 10 * MIB + m.rt.params().gpu_page_size);
        assert!(free >= 10 * MIB - 2 * m.rt.params().gpu_page_size);
    }

    #[test]
    fn ratio_one_keeps_working_set_fitting() {
        let mut m = Machine::default_gh200();
        let peak = 30 * MIB;
        let free = m.oversubscribe(peak, 1.0);
        assert!(free >= peak - 2 * m.rt.params().gpu_page_size);
    }

    #[test]
    fn finish_releases_balloon() {
        let mut m = Machine::default_gh200();
        m.oversubscribe(10 * MIB, 4.0);
        let used_with_balloon = m.rt.gpu_used();
        assert!(used_with_balloon > 50 * MIB);
        let r = m.finish();
        assert!(r.peak_gpu >= used_with_balloon);
    }

    #[test]
    #[should_panic(expected = "ratio must be")]
    fn ratio_below_one_panics() {
        let mut m = Machine::default_gh200();
        m.oversubscribe(MIB, 0.5);
    }

    #[test]
    fn checksum_propagates() {
        let mut m = Machine::default_gh200();
        m.set_checksum(42.5);
        assert_eq!(m.finish().checksum, 42.5);
    }

    #[test]
    fn report_names_the_platform() {
        let m = Machine::default_gh200();
        assert_eq!(m.caps().name, "gh200");
        let r = m.finish();
        assert_eq!(r.platform, "gh200");
        assert!(r.not_applicable.is_empty());
    }

    #[test]
    fn sanitizer_report_is_clean_for_a_simple_run() {
        let mut m = Machine::default_gh200();
        m.phase(Phase::Alloc);
        let b = m.rt.malloc_system(gh_units::Bytes::new(MIB), "x");
        m.phase(Phase::CpuInit);
        m.rt.cpu_write(&b, 0, MIB);
        m.phase(Phase::Dealloc);
        m.rt.free(b);
        let r = m.finish();
        // Sanitizer is on by default in debug builds (release test runs
        // leave it off, hence the `if let`).
        if let Some(s) = r.sanitizer {
            assert!(s.is_clean(), "{s}");
            assert!(s.snapshots >= 4, "{s}"); // 3 phases + finish
        }
    }

    #[test]
    fn sanitizer_checks_link_conservation_when_traced() {
        let so = gh_cuda::SessionOptions {
            trace: true,
            sanitize: Some(true),
            ..Default::default()
        };
        let session = gh_cuda::SessionCtx::with_options(RuntimeOptions::default(), &so);
        let mut m = Machine::with_session(
            CostParams::default(),
            session,
            crate::platform::gh200().caps(),
        );
        m.phase(Phase::Alloc);
        let d =
            m.rt.cuda_malloc(gh_units::Bytes::new(MIB), "d")
                .expect("fits");
        let h = m.rt.cuda_malloc_host(gh_units::Bytes::new(MIB), "h");
        m.phase(Phase::Compute);
        m.rt.memcpy(&d, 0, &h, 0, MIB); // H2D over the link
        m.rt.memcpy(&h, 0, &d, 0, MIB); // D2H back
        m.phase(Phase::Dealloc);
        m.rt.free(d);
        m.rt.free(h);
        let r = m.finish();
        if let Some(s) = r.sanitizer {
            assert!(s.is_clean(), "{s}");
            // Conservation ran: clock + capacity + residency + link per
            // snapshot (capability gating early-returns on gh200, and
            // without tracing only the first three would count).
            assert!(s.checks >= 4 * s.snapshots, "{s}");
        }
    }

    #[test]
    fn sanitizer_is_clean_on_a_unified_pool() {
        let mut m = crate::platform::mi300a().machine();
        m.phase(Phase::Alloc);
        let b = m.rt.malloc_system(gh_units::Bytes::new(MIB), "x");
        m.phase(Phase::CpuInit);
        m.rt.cpu_write(&b, 0, MIB);
        m.phase(Phase::Dealloc);
        m.rt.free(b);
        let r = m.finish();
        if let Some(s) = r.sanitizer {
            assert!(s.is_clean(), "{s}");
        }
    }

    #[test]
    fn oversubscribe_degrades_without_the_capability() {
        let mut m = crate::platform::mi300a().machine();
        let free_before = m.rt.gpu_free();
        let free = m.oversubscribe(10 * MIB, 2.0);
        assert_eq!(free, free_before, "no balloon was installed");
        let r = m.finish();
        assert_eq!(r.platform, "mi300a");
        assert_eq!(r.not_applicable.len(), 1);
        assert!(r.not_applicable[0].contains("not applicable"));
    }
}
