//! Per-run experiment reports.

use gh_cuda::KernelRecord;
use gh_mem::clock::Ns;
use gh_mem::traffic::KernelTraffic;
use gh_profiler::{PhaseTimes, Sample};
use std::fmt::Write as _;

/// Everything a finished run produced, for figure harnesses and tests.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Registry name of the platform the run simulated.
    pub platform: &'static str,
    /// Per-phase virtual durations.
    pub phases: PhaseTimes,
    /// Memory-profiler series (virtual time, RSS, GPU used).
    pub samples: Vec<Sample>,
    /// Peak GPU used memory observed (driver baseline included).
    pub peak_gpu: u64,
    /// Peak RSS observed.
    pub peak_rss: u64,
    /// Cumulative traffic over every kernel.
    pub traffic: KernelTraffic,
    /// One record per kernel (name, duration, traffic) in launch order.
    pub kernels: Vec<KernelRecord>,
    /// Application-defined checksum for correctness verification.
    pub checksum: f64,
    /// Experiment steps requested but meaningless on this platform
    /// (e.g. an oversubscription balloon on a single physical pool).
    pub not_applicable: Vec<String>,
    /// Structured trace drained from the observability bus at `finish`
    /// (`None` when tracing was disabled for the run).
    pub trace: Option<gh_trace::TraceData>,
    /// Invariant sanitizer verdict (`None` when the sanitizer was off —
    /// it runs under `GH_SANITIZE=1`, or always in debug builds).
    pub sanitizer: Option<gh_units::sanitizer::SanitizerReport>,
}

impl RunReport {
    /// Reported total (paper convention: CPU init excluded).
    pub fn reported_total(&self) -> Ns {
        self.phases.reported_total()
    }

    /// Sums durations of kernels whose name starts with `prefix`.
    pub fn kernel_time_named(&self, prefix: &str) -> Ns {
        self.kernels
            .iter()
            .filter(|k| k.name.starts_with(prefix))
            .map(|k| k.time)
            .sum()
    }

    /// Traffic records of kernels whose name starts with `prefix`.
    pub fn kernel_traffic_named(&self, prefix: &str) -> Vec<&KernelTraffic> {
        self.kernels
            .iter()
            .filter(|k| k.name.starts_with(prefix))
            .map(|k| &k.traffic)
            .collect()
    }

    /// Human-readable per-phase breakdown of what the bus recorded
    /// (faults, migration traffic, link utilization). `None` when the run
    /// was not traced.
    pub fn explain(&self) -> Option<String> {
        self.trace.as_ref().map(gh_trace::export::explain)
    }

    /// Chrome-trace (Perfetto) JSON built from the bus data. `None` when
    /// the run was not traced.
    pub fn chrome_trace(&self) -> Option<String> {
        self.trace.as_ref().map(gh_trace::export::chrome_trace)
    }

    /// Metrics registry as CSV. `None` when the run was not traced.
    pub fn metrics_csv(&self) -> Option<String> {
        self.trace.as_ref().map(gh_trace::export::metrics_csv)
    }

    /// Metrics registry as JSON. `None` when the run was not traced.
    pub fn metrics_json(&self) -> Option<String> {
        self.trace.as_ref().map(gh_trace::export::metrics_json)
    }

    /// Serializes the full report as compact JSON (phases, samples,
    /// traffic, per-kernel history). Hand-rolled: the offline dependency
    /// set has no serde, and the report's shape is fixed. String escaping
    /// is shared with every other exporter via [`gh_trace::json`].
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(1024);
        o.push_str("{\"platform\":");
        gh_trace::json::quote_into(&mut o, self.platform);
        o.push_str(",\"phases\":");
        json_phases(&mut o, &self.phases);
        o.push_str(",\"samples\":[");
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            let _ = write!(
                o,
                "{{\"t\":{},\"rss\":{},\"gpu_used\":{}}}",
                s.t, s.rss, s.gpu_used
            );
        }
        let _ = write!(
            o,
            "],\"peak_gpu\":{},\"peak_rss\":{},\"traffic\":",
            self.peak_gpu, self.peak_rss
        );
        json_traffic(&mut o, &self.traffic);
        // Two parallel arrays, the report's stable JSON shape.
        o.push_str(",\"kernel_history\":[");
        for (i, k) in self.kernels.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push('[');
            gh_trace::json::quote_into(&mut o, &k.name);
            o.push(',');
            json_traffic(&mut o, &k.traffic);
            o.push(']');
        }
        o.push_str("],\"kernel_times\":[");
        for (i, k) in self.kernels.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push('[');
            gh_trace::json::quote_into(&mut o, &k.name);
            let _ = write!(o, ",{}]", k.time);
        }
        o.push_str("],\"not_applicable\":[");
        for (i, note) in self.not_applicable.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            gh_trace::json::quote_into(&mut o, note);
        }
        o.push_str("],\"checksum\":");
        o.push_str(&gh_trace::json::f64_value(self.checksum));
        if let Some(s) = &self.sanitizer {
            let _ = write!(
                o,
                ",\"sanitizer\":{{\"snapshots\":{},\"checks\":{},\"violations\":[",
                s.snapshots, s.checks
            );
            for (i, v) in s.violations.iter().enumerate() {
                if i > 0 {
                    o.push(',');
                }
                let _ = write!(o, "{{\"invariant\":");
                gh_trace::json::quote_into(&mut o, &v.invariant.to_string());
                o.push_str(",\"phase\":");
                gh_trace::json::quote_into(&mut o, &v.phase);
                o.push_str(",\"detail\":");
                gh_trace::json::quote_into(&mut o, &v.detail);
                o.push('}');
            }
            o.push_str("]}");
        }
        o.push('}');
        o
    }
}

fn json_phases(o: &mut String, p: &PhaseTimes) {
    let _ = write!(
        o,
        "{{\"ctx_init\":{},\"alloc\":{},\"cpu_init\":{},\"compute\":{},\"dealloc\":{}}}",
        p.ctx_init, p.alloc, p.cpu_init, p.compute, p.dealloc
    );
}

fn json_traffic(o: &mut String, t: &KernelTraffic) {
    let _ = write!(
        o,
        "{{\"hbm_read\":{},\"hbm_write\":{},\"c2c_read\":{},\"c2c_write\":{},\"l1l2\":{},\
         \"gpu_faults\":{},\"ats_faults\":{},\"tlb_misses\":{},\"pages_migrated_in\":{},\
         \"pages_migrated_out\":{},\"bytes_migrated_in\":{},\"bytes_migrated_out\":{},\
         \"notifications\":{}}}",
        t.hbm_read,
        t.hbm_write,
        t.c2c_read,
        t.c2c_write,
        t.l1l2,
        t.gpu_faults,
        t.ats_faults,
        t.tlb_misses,
        t.pages_migrated_in,
        t.pages_migrated_out,
        t.bytes_migrated_in,
        t.bytes_migrated_out,
        t.notifications
    );
}

#[cfg(test)]
fn record(name: &str, time: Ns) -> KernelRecord {
    KernelRecord {
        name: name.into(),
        time,
        traffic: KernelTraffic::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_filters_by_prefix() {
        let r = RunReport {
            platform: "gh200",
            phases: PhaseTimes::default(),
            samples: vec![],
            peak_gpu: 0,
            peak_rss: 0,
            traffic: KernelTraffic::default(),
            kernels: vec![record("srad1#1", 10), record("srad2#2", 20)],
            checksum: 0.0,
            not_applicable: vec![],
            trace: None,
            sanitizer: None,
        };
        assert_eq!(r.kernel_time_named("srad1"), 10);
        assert_eq!(r.kernel_time_named("srad"), 30);
        assert_eq!(r.kernel_traffic_named("srad2").len(), 1);
    }
}

#[cfg(test)]
mod json_tests {
    use super::*;

    fn report() -> RunReport {
        RunReport {
            platform: "gh200",
            phases: PhaseTimes {
                ctx_init: 1,
                alloc: 2,
                cpu_init: 3,
                compute: 4,
                dealloc: 5,
            },
            samples: vec![Sample {
                t: 0,
                rss: 10,
                gpu_used: 20,
            }],
            peak_gpu: 20,
            peak_rss: 10,
            traffic: KernelTraffic::default(),
            kernels: vec![record("k \"x\"#1", 7)],
            checksum: 1.5,
            not_applicable: vec![],
            trace: None,
            sanitizer: None,
        }
    }

    #[test]
    fn to_json_produces_valid_structure() {
        let j = report().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert!(j.starts_with("{\"platform\":\"gh200\""), "{j}");
        assert!(j.contains("\"phases\""));
        assert!(j.contains("\"not_applicable\":[]"));
        assert!(j.contains("\"compute\":4"));
        assert!(j.contains("\"checksum\":1.5"));
        assert!(j.contains("\\\"x\\\""), "quotes escaped: {j}");
        // One record feeds both per-kernel arrays.
        assert!(j.contains(r##""kernel_times":[["k \"x\"#1",7]]"##), "{j}");
        assert!(
            j.contains(r##""kernel_history":[["k \"x\"#1",{"hbm_read":0"##),
            "{j}"
        );
        // Balanced braces/brackets (cheap sanity check).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn to_json_handles_non_finite_checksum() {
        let mut r = report();
        r.checksum = f64::NAN;
        let j = r.to_json();
        assert!(j.ends_with("\"checksum\":null}"), "{j}");
    }

    #[test]
    fn to_json_escapes_control_chars_in_names() {
        let mut r = report();
        r.kernels = vec![record("a\nb", 1)];
        let j = r.to_json();
        assert!(j.contains("a\\nb"), "{j}");
    }
}
