//! The drained profile: plain data, ready for the exporters.

/// Virtual nanoseconds advanced per host millisecond. `None` when either
/// side is zero (nothing ran, or the host clock did not tick).
fn speed(sim_ns: u64, host_ns: u64) -> Option<f64> {
    if sim_ns == 0 || host_ns == 0 {
        return None;
    }
    Some(sim_ns as f64 / (host_ns as f64 / 1e6))
}

/// Aggregated host/virtual time for one experiment phase label
/// (across every occurrence of that phase in the profiled window).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhasePerf {
    /// Phase label as marked (`ctx_init`, `alloc`, `compute`, ...).
    pub label: String,
    /// How many times a phase with this label was entered.
    pub count: u64,
    /// Total host wall-clock spent inside the phase, in nanoseconds.
    pub host_ns: u64,
    /// Total virtual time the simulation advanced inside the phase.
    pub sim_ns: u64,
}

impl PhasePerf {
    /// Sim-speed ratio for this phase: virtual ns per host ms.
    pub fn sim_speed(&self) -> Option<f64> {
        speed(self.sim_ns, self.host_ns)
    }
}

/// Aggregated scoped-span timings keyed by the full stack path
/// (`;`-joined, flamegraph folded-stack style, phase label at the root).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanAgg {
    /// Folded stack path, e.g. `compute;kernel:srad1;translate`.
    pub path: String,
    /// Number of times this exact path was entered.
    pub count: u64,
    /// Inclusive host time: this span plus everything nested in it.
    pub total_ns: u64,
    /// Exclusive host time: `total_ns` minus time in child spans. This is
    /// the column a flamegraph consumes.
    pub self_ns: u64,
}

/// Everything one armed [`Perf`](crate::Perf) handle observed up to its
/// `take()`. Quarantine note: none of this ever reaches a `RunReport` —
/// callers drain and export it on a separate channel.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerfData {
    /// Host wall-clock from `enable()` to `take()`, in nanoseconds.
    pub host_total_ns: u64,
    /// Virtual time advanced across all completed runs (`run_end` sums).
    pub sim_total_ns: u64,
    /// Number of completed simulation runs (`run_end` calls) observed.
    pub runs: u64,
    /// Per-phase breakdown in first-seen order.
    pub phases: Vec<PhasePerf>,
    /// Folded-stack span aggregation, sorted by path.
    pub spans: Vec<SpanAgg>,
    /// Hot-path counters in [`Ctr`](crate::Ctr) order, `(name, count)`.
    pub counters: Vec<(&'static str, u64)>,
    /// Peak resident set size of the process, in bytes (0 if unknown).
    pub peak_rss_bytes: u64,
    /// Minor page faults the process took over the window (0 if
    /// unknown). Process-wide, as the peak RSS is.
    pub minor_faults: u64,
    /// Minor page faults taken inside each phase, one per [`Self::phases`]
    /// entry and in its order.
    pub phase_minor_faults: Vec<u64>,
}

impl PerfData {
    /// Headline sim-speed ratio: virtual ns advanced per host ms over the
    /// whole profiled window.
    pub fn sim_speed(&self) -> Option<f64> {
        speed(self.sim_total_ns, self.host_total_ns)
    }

    /// Counter value by name (0 when the counter never fired).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Counter rate in events per host second over the profiled window.
    /// `None` when the host clock did not tick.
    pub fn rate_per_sec(&self, name: &str) -> Option<f64> {
        if self.host_total_ns == 0 {
            return None;
        }
        Some(self.counter(name) as f64 / (self.host_total_ns as f64 / 1e9))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_speed_is_virtual_ns_per_host_ms() {
        let d = PerfData {
            host_total_ns: 2_000_000, // 2 host ms
            sim_total_ns: 8_000_000,  // 8 virtual ms
            ..Default::default()
        };
        let s = d.sim_speed().unwrap();
        assert!((s - 4_000_000.0).abs() < 1e-6, "got {s}");
    }

    #[test]
    fn zero_sides_yield_none() {
        assert_eq!(PerfData::default().sim_speed(), None);
        let d = PerfData {
            host_total_ns: 5,
            ..Default::default()
        };
        assert_eq!(d.sim_speed(), None);
        assert_eq!(PerfData::default().rate_per_sec("x"), None);
    }

    #[test]
    fn counter_lookup_and_rate() {
        let d = PerfData {
            host_total_ns: 500_000_000, // 0.5 s
            counters: vec![("tlb.walks", 100)],
            ..Default::default()
        };
        assert_eq!(d.counter("tlb.walks"), 100);
        assert_eq!(d.counter("absent"), 0);
        let r = d.rate_per_sec("tlb.walks").unwrap();
        assert!((r - 200.0).abs() < 1e-9, "got {r}");
    }

    #[test]
    fn phase_sim_speed() {
        let p = PhasePerf {
            label: "compute".into(),
            count: 1,
            host_ns: 1_000_000,
            sim_ns: 3_000_000,
        };
        let s = p.sim_speed().unwrap();
        assert!((s - 3_000_000.0).abs() < 1e-6, "got {s}");
    }
}
