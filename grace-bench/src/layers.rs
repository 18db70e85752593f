//! Per-layer measurement: host time of the benchmark's own calls into
//! each layer's public API ([`Probe`]), the gh-perf and gh-trace session
//! data of armed passes, the executor's counters, and the exact model
//! totals every report carries. [`per_layer`] turns one quiet, one
//! perf-armed and one trace-armed pass into the per-layer metrics.

// gh-audit: allow-file(no-wall-clock) -- Probe times the benchmark's own calls into public APIs; the readings are reported, never fed back into a simulation

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use gh_perf::PerfData;
use gh_sim::RunReport;

use crate::stats::{median, percentile, Outcome};
use crate::workload::{digest, Run};

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_heap_mib", "MiB")];

/// Per-layer metrics of the traced run: `(name, unit)`, grouped by layer.
pub const PER_LAYER: [(&str, &str); 46] = [
    // gh-cuda kernel access path, gh-mem TLB and cache.
    ("perf.kernel_s", "s"),
    ("perf.tlb.walks", "count"),
    ("tlb.miss_ratio", "ratio"),
    ("apps.run_s", "s"),
    // App and QV arithmetic on gh-par.
    ("perf.compute_self_s", "s"),
    ("qsim.run_qv_s", "s"),
    // gh-cuda UVM, gh-mem placement epoch.
    ("perf.uvm.migrated_pages", "count"),
    ("access.fast_span_share", "ratio"),
    ("sim.oversubscribe_s", "s"),
    // gh-cuda runtime per call, gh-os faults.
    ("cuda.alloc_us", "us"),
    ("cuda.free_us", "us"),
    ("cuda.cpu_write_us", "us"),
    ("cuda.cpu_read_us", "us"),
    ("cuda.kernel_us", "us"),
    ("cuda.prefetch_us", "us"),
    ("cuda.memcpy_us", "us"),
    ("cuda.sync_us", "us"),
    ("cuda.call_us_p50", "us"),
    ("cuda.call_us_p90", "us"),
    ("perf.os.faults", "count"),
    ("sim.finish_s", "s"),
    // gh-sim boot, gh-jobs executor, report and trace exporters.
    ("sim.machine_session_s", "s"),
    ("jobs.run_suite_s", "s"),
    ("jobs.cache_hit_ratio", "ratio"),
    ("jobs.worker_utilization", "ratio"),
    ("report.to_json_s", "s"),
    ("trace.chrome_export_s", "s"),
    // gh-perf and gh-trace observability.
    ("obs.perf_overhead", "ratio"),
    ("obs.trace_overhead", "ratio"),
    ("trace.dropped_events", "count"),
    // The modelled machine: exact, seed-dependent, never moved by a
    // host-speed change.
    ("model.virtual_ms", "ms"),
    ("model.hbm_gib", "GiB"),
    ("model.c2c_gib", "GiB"),
    ("model.migrated_in_gib", "GiB"),
    ("model.gpu_faults", "count"),
    ("model.ats_faults", "count"),
    // Every gh-perf phase and counter.
    ("perf.ctx_init_s", "s"),
    ("perf.alloc_s", "s"),
    ("perf.cpu_init_s", "s"),
    ("perf.compute_s", "s"),
    ("perf.dealloc_s", "s"),
    ("perf.tlb.misses", "count"),
    ("perf.cuda.kernel_launches", "count"),
    ("perf.cuda.memcpys", "count"),
    ("perf.access.batch_runs", "count"),
    ("perf.access.fast_spans", "count"),
];

/// A duration in whole nanoseconds.
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Host-time samples of the benchmark's calls into public layer APIs,
/// keyed by call.
#[derive(Debug, Default)]
pub struct Probe {
    samples: BTreeMap<&'static str, Vec<u64>>,
}

impl Probe {
    /// Records one call that took `d`.
    pub fn record(&mut self, key: &'static str, d: Duration) {
        self.samples.entry(key).or_default().push(ns(d));
    }

    /// Times `f` as one call under `key`.
    pub fn time<T>(&mut self, key: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let r = f();
        self.record(key, t.elapsed());
        r
    }

    fn sum_s(&self, key: &str) -> f64 {
        self.samples
            .get(key)
            .map_or(0.0, |v| v.iter().sum::<u64>() as f64 / 1e9)
    }

    fn median_us(&self, key: &str) -> f64 {
        let us: Vec<f64> = self
            .samples
            .get(key)
            .map_or(Vec::new(), |v| v.iter().map(|&n| n as f64 / 1e3).collect());
        median(&us).unwrap_or(0.0)
    }

    fn cuda_us(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|(k, _)| k.starts_with("cuda."))
            .flat_map(|(_, v)| v.iter().map(|&n| n as f64 / 1e3))
            .collect()
    }
}

/// gh-perf profiles of one pass, summed over its runs.
#[derive(Debug, Default)]
pub struct PerfSum {
    phases: BTreeMap<String, u64>,
    counters: BTreeMap<&'static str, u64>,
    kernel_ns: u64,
    compute_self_ns: u64,
    /// Folded stacks, each rooted at the op label that produced it.
    pub folded: String,
}

impl PerfSum {
    fn add(&mut self, root: &str, d: &PerfData) {
        for p in &d.phases {
            *self.phases.entry(p.label.clone()).or_default() += p.host_ns;
        }
        for (name, v) in &d.counters {
            *self.counters.entry(name).or_default() += v;
        }
        let leaf = |path: &str| path.rsplit(';').next().unwrap_or("").to_string();
        self.kernel_ns += d
            .spans
            .iter()
            .filter(|s| leaf(&s.path).starts_with("kernel:"))
            .map(|s| s.total_ns)
            .sum::<u64>();
        // The compute phase's self time: its host time minus the spans
        // directly under it (kernels and copies).
        let compute = d.phases.iter().find(|p| p.label == "compute");
        let children: u64 = d
            .spans
            .iter()
            .filter(|s| {
                s.path
                    .strip_prefix("compute;")
                    .is_some_and(|rest| !rest.contains(';'))
            })
            .map(|s| s.total_ns)
            .sum();
        self.compute_self_ns += compute.map_or(0, |p| p.host_ns.saturating_sub(children));
        for line in gh_perf::export::folded(d).lines() {
            let _ = writeln!(self.folded, "{root};{line}");
        }
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    fn phase_s(&self, label: &str) -> f64 {
        self.phases.get(label).copied().unwrap_or(0) as f64 / 1e9
    }
}

/// Exact model totals over a pass's reports.
#[derive(Debug, Default)]
pub struct Model {
    virtual_ns: u64,
    hbm: u64,
    c2c: u64,
    migrated_in: u64,
    gpu_faults: u64,
    ats_faults: u64,
}

impl Model {
    fn add(&mut self, r: &RunReport) {
        let t = &r.traffic;
        self.virtual_ns += r.phases.wall_total();
        self.hbm += t.hbm_read + t.hbm_write;
        self.c2c += t.c2c_read + t.c2c_write;
        self.migrated_in += t.bytes_migrated_in;
        self.gpu_faults += t.gpu_faults;
        self.ats_faults += t.ats_faults;
    }
}

/// Job-executor counters over a pass's batches.
#[derive(Debug, Default)]
pub struct JobStats {
    hits: u64,
    lookups: u64,
    busy_ns: u64,
    capacity_ns: u64,
}

impl JobStats {
    /// Adds one `run_suite` batch: cache counters, the per-job host time
    /// the jobs' profiles saw, and the batch's wall time on `workers`.
    pub fn add(&mut self, hits: u64, misses: u64, busy_ns: u64, wall: Duration, workers: usize) {
        self.hits += hits;
        self.lookups += hits + misses;
        self.busy_ns += busy_ns;
        self.capacity_ns += ns(wall) * workers as u64;
    }
}

/// Everything one pass over a workload's ops recorded.
#[derive(Debug, Default)]
pub struct Pass {
    /// Benchmark-side API timings.
    pub probe: Probe,
    /// Summed self-profiles (perf-armed passes only).
    pub perf: PerfSum,
    /// Exact model totals.
    pub model: Model,
    /// Trace events dropped by full rings (trace-armed passes only).
    pub dropped: u64,
    /// Executor counters.
    pub jobs: JobStats,
    /// Host time of each op, in op order.
    pub op_ns: Vec<u64>,
}

impl Pass {
    /// Digests a finished run into an outcome, serializing its report
    /// (and exporting its trace when it has one) as users of the report
    /// do, and folding its data into the pass totals.
    pub fn settle(&mut self, op: &str, key: String, run: Run) -> Outcome {
        let json = self.probe.time("report.to_json", || run.report.to_json());
        if let Some(t) = &run.report.trace {
            self.probe
                .time("trace.chrome_export", || gh_trace::export::chrome_trace(t));
            self.dropped += t.dropped;
        }
        if let Some(p) = &run.perf {
            self.perf.add(op, p);
        }
        self.model.add(&run.report);
        Outcome {
            key,
            digest: Ok(digest(&json)),
            cached: run.cached,
        }
    }

    /// Host time of the whole pass.
    pub fn wall_ns(&self) -> u64 {
        self.op_ns.iter().sum()
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The per-layer metrics, in [`PER_LAYER`] order. Call timings and model
/// totals come from the quiet pass, profiles from the perf-armed pass,
/// trace statistics from the trace-armed pass. A metric a workload never
/// exercises reads 0.
pub fn per_layer(quiet: &Pass, perf: &Pass, trace: &Pass) -> Vec<(&'static str, f64)> {
    let q = &quiet.probe;
    let p = &perf.perf;
    let m = &quiet.model;
    let calls = q.cuda_us();
    const GIB: f64 = (1u64 << 30) as f64;
    let values: [f64; PER_LAYER.len()] = [
        p.kernel_ns as f64 / 1e9,
        p.counter("tlb.walks") as f64,
        ratio(
            p.counter("tlb.misses") as f64,
            p.counter("tlb.walks") as f64,
        ),
        q.sum_s("apps.run"),
        p.compute_self_ns as f64 / 1e9,
        q.sum_s("qsim.run_qv"),
        p.counter("uvm.migrated_pages") as f64,
        ratio(
            p.counter("access.fast_spans") as f64,
            p.counter("access.batch_runs") as f64,
        ),
        q.sum_s("sim.oversubscribe"),
        q.median_us("cuda.alloc"),
        q.median_us("cuda.free"),
        q.median_us("cuda.cpu_write"),
        q.median_us("cuda.cpu_read"),
        q.median_us("cuda.kernel"),
        q.median_us("cuda.prefetch"),
        q.median_us("cuda.memcpy"),
        q.median_us("cuda.sync"),
        percentile(&calls, 50.0).unwrap_or(0.0),
        percentile(&calls, 90.0).unwrap_or(0.0),
        p.counter("os.faults") as f64,
        q.sum_s("sim.finish"),
        q.sum_s("sim.machine_session"),
        q.sum_s("jobs.run_suite"),
        ratio(quiet.jobs.hits as f64, quiet.jobs.lookups as f64),
        ratio(perf.jobs.busy_ns as f64, perf.jobs.capacity_ns as f64),
        q.sum_s("report.to_json"),
        trace.probe.sum_s("trace.chrome_export"),
        ratio(perf.wall_ns() as f64, quiet.wall_ns() as f64),
        ratio(trace.wall_ns() as f64, quiet.wall_ns() as f64),
        trace.dropped as f64,
        m.virtual_ns as f64 / 1e6,
        m.hbm as f64 / GIB,
        m.c2c as f64 / GIB,
        m.migrated_in as f64 / GIB,
        m.gpu_faults as f64,
        m.ats_faults as f64,
        p.phase_s("ctx_init"),
        p.phase_s("alloc"),
        p.phase_s("cpu_init"),
        p.phase_s("compute"),
        p.phase_s("dealloc"),
        p.counter("tlb.misses") as f64,
        p.counter("cuda.kernel_launches") as f64,
        p.counter("cuda.memcpys") as f64,
        p.counter("access.batch_runs") as f64,
        p.counter("access.fast_spans") as f64,
    ];
    PER_LAYER.iter().map(|&(n, _)| n).zip(values).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perf_sum_splits_kernel_and_compute_self_time() {
        let d = PerfData {
            host_total_ns: 100,
            phases: vec![gh_perf::PhasePerf {
                label: "compute".into(),
                count: 1,
                host_ns: 100,
                sim_ns: 1,
            }],
            spans: vec![
                gh_perf::SpanAgg {
                    path: "compute;kernel:k".into(),
                    count: 2,
                    total_ns: 60,
                    self_ns: 60,
                },
                gh_perf::SpanAgg {
                    path: "compute;memcpy".into(),
                    count: 1,
                    total_ns: 15,
                    self_ns: 15,
                },
            ],
            counters: vec![("tlb.walks", 8), ("tlb.misses", 2)],
            ..Default::default()
        };
        let mut s = PerfSum::default();
        s.add("op", &d);
        s.add("op", &d);
        assert_eq!(s.kernel_ns, 120);
        assert_eq!(s.compute_self_ns, 50);
        assert_eq!(s.counter("tlb.walks"), 16);
        assert!(
            s.folded.lines().all(|l| l.starts_with("op;")),
            "{}",
            s.folded
        );
    }

    #[test]
    fn ratios_of_an_empty_pass_read_zero() {
        let empty = Pass::default();
        let m = per_layer(&empty, &empty, &empty);
        assert!(m.iter().all(|&(_, v)| v == 0.0), "{m:?}");
    }
}
