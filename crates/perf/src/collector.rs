//! The session-owned profiling collector behind the [`Perf`] handle,
//! mirroring the `gh-trace` `Bus` idiom: a cloneable `Option<Rc<..>>`
//! handle whose disabled form no-ops after one branch, and a drain
//! ([`Perf::take`]) that returns plain data.
//!
//! The former `thread_local!` collector is gone (PR 9): profiling state
//! belongs to one run's session context and is injected by handle, so
//! concurrent runs in one process profile independently. A session is
//! single-threaded by design (determinism), so `Rc` + `RefCell` is the
//! whole story — no atomics, no locks.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::host::MinorFaults;
use crate::report::{PerfData, PhasePerf, SpanAgg};

/// Hot-path rate counters. A fixed enum (not string keys) so counting on
/// the TLB walk / fault / migration paths is an array increment, never a
/// map lookup or an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ctr {
    /// TLB lookups in the simulated GMMU (`gh-mem`).
    TlbWalks,
    /// TLB lookups that missed and walked the page table.
    TlbMisses,
    /// OS-level faults handled (`gh-os`: CPU first-touch, ATS, register).
    Faults,
    /// Pages migrated by the UVM policy engine (`gh-cuda`), both ways.
    MigratedPages,
    /// Kernel launches through the `gh-cuda` runtime.
    KernelLaunches,
    /// `memcpy`/`memcpy_2d` calls through the `gh-cuda` runtime.
    Memcpys,
    /// Resident runs the fragment core (`gh-cuda`) charged in its queue:
    /// one per fragment wholly resident on one node, or one per resident
    /// run of a fragment split into placement runs.
    BatchRuns,
    /// Fragments whose placement the kernel already held, so they were
    /// charged without a page-table query.
    FastSpans,
}

const N_CTRS: usize = 8;

impl Ctr {
    /// All counters in declaration (and export) order.
    pub const ALL: [Ctr; N_CTRS] = [
        Ctr::TlbWalks,
        Ctr::TlbMisses,
        Ctr::Faults,
        Ctr::MigratedPages,
        Ctr::KernelLaunches,
        Ctr::Memcpys,
        Ctr::BatchRuns,
        Ctr::FastSpans,
    ];

    /// Stable export name (dotted, matching the gh-trace counter style).
    pub fn name(self) -> &'static str {
        match self {
            Ctr::TlbWalks => "tlb.walks",
            Ctr::TlbMisses => "tlb.misses",
            Ctr::Faults => "os.faults",
            Ctr::MigratedPages => "uvm.migrated_pages",
            Ctr::KernelLaunches => "cuda.kernel_launches",
            Ctr::Memcpys => "cuda.memcpys",
            Ctr::BatchRuns => "access.batch_runs",
            Ctr::FastSpans => "access.fast_spans",
        }
    }

    fn index(self) -> usize {
        match self {
            Ctr::TlbWalks => 0,
            Ctr::TlbMisses => 1,
            Ctr::Faults => 2,
            Ctr::MigratedPages => 3,
            Ctr::KernelLaunches => 4,
            Ctr::Memcpys => 5,
            Ctr::BatchRuns => 6,
            Ctr::FastSpans => 7,
        }
    }
}

/// An open scoped span on the stack.
struct OpenSpan {
    /// Full folded path (`phase;parent;name`).
    path: String,
    /// Host ns (since `t0`) when the span opened.
    start: u64,
    /// Host ns consumed by already-closed children, for self-time.
    child_ns: u64,
}

#[derive(Default)]
struct SpanAcc {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

#[derive(Default)]
struct PhaseAcc {
    count: u64,
    host_ns: u64,
    sim_ns: u64,
    minor_faults: u64,
}

/// The phase being timed: its label and the host clock, virtual clock
/// and process minor-fault count when it opened.
struct OpenPhase {
    label: String,
    host_ns: u64,
    sim_ns: u64,
    minor_faults: u64,
}

struct Collector {
    #[expect(
        clippy::disallowed_types,
        reason = "gh-perf measures host time; its data never reaches a RunReport"
    )]
    t0: std::time::Instant,
    counters: [u64; N_CTRS],
    faults: MinorFaults,
    /// Process minor faults at `t0`.
    minor_faults0: u64,
    stack: Vec<OpenSpan>,
    spans: BTreeMap<String, SpanAcc>,
    open_phase: Option<OpenPhase>,
    /// First-seen phase order, for a stable breakdown table.
    phase_order: Vec<String>,
    phases: BTreeMap<String, PhaseAcc>,
    sim_total_ns: u64,
    runs: u64,
}

impl Collector {
    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "the profiler's host-time origin; its data never reaches a RunReport"
    )]
    fn new() -> Self {
        let faults = MinorFaults::open();
        Collector {
            t0: std::time::Instant::now(),
            counters: [0; N_CTRS],
            minor_faults0: faults.read(),
            faults,
            stack: Vec::new(),
            spans: BTreeMap::new(),
            open_phase: None,
            phase_order: Vec::new(),
            phases: BTreeMap::new(),
            sim_total_ns: 0,
            runs: 0,
        }
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "the profiler's host clock; its data never reaches a RunReport"
    )]
    fn now_ns(&self) -> u64 {
        // u64 ns covers ~584 years of profiling; saturate rather than
        // panic if a host clock misbehaves.
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn close_phase(&mut self, now: u64, sim_now: u64, faults_now: u64) {
        let Some(open) = self.open_phase.take() else {
            return;
        };
        let acc = self.phases.entry(open.label).or_default();
        acc.count += 1;
        acc.host_ns += now.saturating_sub(open.host_ns);
        acc.sim_ns += sim_now.saturating_sub(open.sim_ns);
        acc.minor_faults += faults_now.saturating_sub(open.minor_faults);
    }

    fn close_span(&mut self, now: u64) {
        let Some(open) = self.stack.pop() else { return };
        let total = now.saturating_sub(open.start);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += total;
        }
        let acc = self.spans.entry(open.path).or_default();
        acc.count += 1;
        acc.total_ns += total;
        acc.self_ns += total.saturating_sub(open.child_ns);
    }

    fn drain(mut self) -> PerfData {
        let now = self.now_ns();
        let faults = self.faults.read();
        // Close anything left open so the drain never loses time.
        while !self.stack.is_empty() {
            self.close_span(now);
        }
        let sim_floor = self.open_phase.as_ref().map_or(0, |p| p.sim_ns);
        self.close_phase(now, sim_floor, faults);
        let (phases, phase_minor_faults) = self
            .phase_order
            .iter()
            .filter_map(|label| {
                let acc = self.phases.get(label)?;
                let phase = PhasePerf {
                    label: label.clone(),
                    count: acc.count,
                    host_ns: acc.host_ns,
                    sim_ns: acc.sim_ns,
                };
                Some((phase, acc.minor_faults))
            })
            .unzip();
        let spans = self
            .spans
            .into_iter()
            .map(|(path, acc)| SpanAgg {
                path,
                count: acc.count,
                total_ns: acc.total_ns,
                self_ns: acc.self_ns,
            })
            .collect();
        let counters = Ctr::ALL
            .iter()
            .map(|c| (c.name(), self.counters[c.index()]))
            .collect();
        PerfData {
            host_total_ns: now,
            sim_total_ns: self.sim_total_ns,
            runs: self.runs,
            phases,
            spans,
            counters,
            peak_rss_bytes: crate::host::peak_rss_bytes(),
            minor_faults: faults.saturating_sub(self.minor_faults0),
            phase_minor_faults,
        }
    }
}

/// A handle to one run's profiling collector.
///
/// Cloning is cheap (one `Rc` bump); every clone shares the same
/// counters, span stack, and phase table. [`Perf::off`] (also `Default`)
/// is the disarmed sink: every method is a no-op after a single
/// `Option` check.
#[derive(Clone, Default)]
pub struct Perf {
    inner: Option<Rc<RefCell<Collector>>>,
}

impl std::fmt::Debug for Perf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Perf")
            .field("on", &self.is_on())
            .finish_non_exhaustive()
    }
}

impl Perf {
    /// A disarmed profiler: records nothing, costs one branch per call.
    pub fn off() -> Perf {
        Perf { inner: None }
    }

    /// An armed profiler; the host clock starts now.
    pub fn on() -> Perf {
        Perf {
            inner: Some(Rc::new(RefCell::new(Collector::new()))),
        }
    }

    /// Whether this handle records.
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Bumps a hot-path counter. A branch when disarmed.
    #[inline]
    pub fn count(&self, ctr: Ctr, n: u64) {
        if let Some(i) = &self.inner {
            i.borrow_mut().counters[ctr.index()] += n;
        }
    }

    /// Marks the start of an experiment phase at virtual time `sim_ns`,
    /// closing the previously open phase (its sim delta is measured
    /// against the same clock reading). Labels repeat freely;
    /// occurrences aggregate.
    pub fn phase_mark(&self, label: &str, sim_ns: u64) {
        let Some(i) = &self.inner else { return };
        let mut c = i.borrow_mut();
        let now = c.now_ns();
        let faults = c.faults.read();
        c.close_phase(now, sim_ns, faults);
        if !c.phases.contains_key(label) {
            c.phase_order.push(label.to_string());
            c.phases.insert(label.to_string(), PhaseAcc::default());
        }
        c.open_phase = Some(OpenPhase {
            label: label.to_string(),
            host_ns: now,
            sim_ns,
            minor_faults: faults,
        });
    }

    /// Marks the end of a simulation run whose clock reached `sim_ns`:
    /// closes the open phase and folds the run's virtual time into the
    /// window's `sim_total_ns`. A profiled window may contain several
    /// runs (each run's virtual clock starts from its own zero).
    pub fn run_end(&self, sim_ns: u64) {
        let Some(i) = &self.inner else { return };
        let mut c = i.borrow_mut();
        let now = c.now_ns();
        let faults = c.faults.read();
        c.close_phase(now, sim_ns, faults);
        c.sim_total_ns += sim_ns;
        c.runs += 1;
    }

    /// Opens a scoped host-time span nested under the current span (or
    /// the open phase at the root). Dropping the guard closes it.
    #[must_use = "the span closes when the guard drops"]
    pub fn span(&self, name: &str) -> SpanGuard {
        if let Some(i) = &self.inner {
            let mut c = i.borrow_mut();
            let parent = match c.stack.last() {
                Some(s) => s.path.as_str(),
                None => c.open_phase.as_ref().map_or("run", |p| p.label.as_str()),
            };
            let path = format!("{parent};{name}");
            let start = c.now_ns();
            c.stack.push(OpenSpan {
                path,
                start,
                child_ns: 0,
            });
        }
        SpanGuard { perf: self.clone() }
    }

    /// Drains the profile collected so far, leaving this handle (and
    /// every clone of it) armed with a fresh window. Returns an empty
    /// default when disarmed.
    pub fn take(&self) -> PerfData {
        let Some(i) = &self.inner else {
            return PerfData::default();
        };
        let taken = std::mem::replace(&mut *i.borrow_mut(), Collector::new());
        taken.drain()
    }
}

/// RAII guard returned by [`Perf::span`]; closes the span on drop. Holds
/// its own handle, so the guard stays balanced even if the caller's
/// handle is dropped first. A guard from a disarmed handle is inert.
#[derive(Debug)]
pub struct SpanGuard {
    perf: Perf,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(i) = &self.perf.inner {
            let mut c = i.borrow_mut();
            let now = c.now_ns();
            c.close_span(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "spins for real host time so profiled spans have measurable length"
    )]
    fn busy_wait_ns(ns: u64) {
        let t = std::time::Instant::now();
        while u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX) < ns {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn disarmed_calls_are_noops() {
        let perf = Perf::off();
        perf.count(Ctr::TlbWalks, 5);
        perf.phase_mark("compute", 0);
        perf.run_end(100);
        let _g = perf.span("nothing");
        assert_eq!(perf.take(), PerfData::default());
        assert!(!perf.is_on());
    }

    #[test]
    fn counters_accumulate_in_export_order() {
        let perf = Perf::on();
        perf.count(Ctr::TlbWalks, 3);
        perf.count(Ctr::TlbWalks, 2);
        perf.count(Ctr::Faults, 1);
        let d = perf.take();
        assert_eq!(d.counter("tlb.walks"), 5);
        assert_eq!(d.counter("os.faults"), 1);
        assert_eq!(d.counters.len(), Ctr::ALL.len());
        assert_eq!(d.counters[0].0, "tlb.walks");
    }

    #[test]
    fn clones_share_one_collector() {
        let perf = Perf::on();
        let handle = perf.clone();
        handle.count(Ctr::Memcpys, 4);
        assert_eq!(perf.take().counter("cuda.memcpys"), 4);
    }

    #[test]
    fn two_handles_profile_independently() {
        let a = Perf::on();
        let b = Perf::on();
        a.count(Ctr::Faults, 1);
        b.count(Ctr::Faults, 10);
        assert_eq!(a.take().counter("os.faults"), 1);
        assert_eq!(b.take().counter("os.faults"), 10);
    }

    #[test]
    fn phases_track_host_and_sim_deltas() {
        let perf = Perf::on();
        perf.phase_mark("alloc", 0);
        busy_wait_ns(200_000);
        perf.phase_mark("compute", 1_000);
        busy_wait_ns(200_000);
        perf.run_end(5_000);
        let d = perf.take();
        assert_eq!(d.runs, 1);
        assert_eq!(d.sim_total_ns, 5_000);
        let labels: Vec<&str> = d.phases.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, ["alloc", "compute"]);
        assert_eq!(d.phases[0].sim_ns, 1_000);
        assert_eq!(d.phases[1].sim_ns, 4_000);
        assert!(d.phases.iter().all(|p| p.host_ns > 0), "{:?}", d.phases);
        assert!(d.host_total_ns > 0);
    }

    #[test]
    fn phases_count_the_minor_faults_taken_inside_them() {
        let perf = Perf::on();
        perf.phase_mark("alloc", 0);
        perf.phase_mark("cpu_init", 0);
        // Fresh pages: past glibc's largest mmap threshold (32 MiB).
        let pages = std::hint::black_box(vec![1u8; 40 << 20]);
        perf.run_end(0);
        drop(pages);
        let d = perf.take();
        assert_eq!(d.phase_minor_faults.len(), d.phases.len());
        if std::path::Path::new("/proc/self/stat").exists() {
            // Process-wide: other test threads may fault inside `alloc`.
            assert!(d.phase_minor_faults[1] > 0, "{:?}", d.phase_minor_faults);
            assert!(d.minor_faults >= d.phase_minor_faults.iter().sum::<u64>());
        }
    }

    #[test]
    fn repeated_phase_labels_aggregate() {
        let perf = Perf::on();
        perf.phase_mark("compute", 0);
        perf.phase_mark("dealloc", 10);
        perf.phase_mark("compute", 20);
        perf.run_end(50);
        let d = perf.take();
        let compute = d.phases.iter().find(|p| p.label == "compute").unwrap();
        assert_eq!(compute.count, 2);
        assert_eq!(compute.sim_ns, 10 + 30);
    }

    #[test]
    fn spans_nest_and_fold_under_the_open_phase() {
        let perf = Perf::on();
        perf.phase_mark("compute", 0);
        {
            let _k = perf.span("kernel:srad1");
            busy_wait_ns(100_000);
            {
                let _t = perf.span("translate");
                busy_wait_ns(100_000);
            }
        }
        perf.run_end(1);
        let d = perf.take();
        let paths: Vec<&str> = d.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(
            paths,
            ["compute;kernel:srad1", "compute;kernel:srad1;translate"]
        );
        let outer = &d.spans[0];
        let inner = &d.spans[1];
        assert!(outer.total_ns >= inner.total_ns);
        // Exclusive time excludes the nested child.
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
    }

    #[test]
    fn spans_outside_any_phase_root_at_run() {
        let perf = Perf::on();
        {
            let _g = perf.span("setup");
        }
        let d = perf.take();
        assert_eq!(d.spans[0].path, "run;setup");
    }

    #[test]
    fn take_leaves_profiler_armed_with_fresh_window() {
        let perf = Perf::on();
        perf.count(Ctr::Memcpys, 7);
        let first = perf.take();
        assert_eq!(first.counter("cuda.memcpys"), 7);
        let second = perf.take();
        assert_eq!(second.counter("cuda.memcpys"), 0);
        assert!(perf.is_on());
    }

    #[test]
    fn multiple_runs_sum_virtual_time() {
        let perf = Perf::on();
        perf.phase_mark("compute", 0);
        perf.run_end(100);
        perf.phase_mark("compute", 0);
        perf.run_end(250);
        let d = perf.take();
        assert_eq!(d.runs, 2);
        assert_eq!(d.sim_total_ns, 350);
        assert_eq!(d.phases[0].count, 2);
    }

    #[test]
    fn drain_closes_dangling_spans_and_phase() {
        let perf = Perf::on();
        perf.phase_mark("compute", 0);
        let g = perf.span("kernel:left-open");
        let d = perf.take();
        drop(g); // guard after drain: folds into the fresh window, harmless
        assert_eq!(d.spans.len(), 1);
        assert_eq!(d.phases.len(), 1);
    }
}
