//! Exporters for a drained [`PerfData`]: a human breakdown table, a
//! folded-stack text for flamegraph tools, and machine-readable JSON.

use std::fmt::Write as _;

use gh_trace::json::{f64_value, quote_into};

use crate::report::PerfData;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn speed_cell(s: Option<f64>) -> String {
    match s {
        Some(v) => format!("{v:.0}"),
        None => "-".to_string(),
    }
}

/// Renders the per-phase host-time breakdown table, counter rates, and
/// the headline sim-speed ratio. Intended for stderr next to the
/// deterministic report on stdout.
pub fn table(d: &PerfData) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "-- gh-perf: host {:.3} ms | virtual {:.3} ms | sim-speed {} sim-ns/host-ms | peak RSS {} MiB | minor faults {} | runs {} --",
        ms(d.host_total_ns),
        ms(d.sim_total_ns),
        speed_cell(d.sim_speed()),
        d.peak_rss_bytes >> 20,
        d.minor_faults,
        d.runs,
    );
    if !d.phases.is_empty() {
        let _ = writeln!(
            out,
            "{:<12} {:>6} {:>12} {:>12} {:>16} {:>12}",
            "phase", "count", "host ms", "virtual ms", "sim-ns/host-ms", "minor faults"
        );
        for (p, faults) in d.phases.iter().zip(&d.phase_minor_faults) {
            let _ = writeln!(
                out,
                "{:<12} {:>6} {:>12.3} {:>12.3} {:>16} {:>12}",
                p.label,
                p.count,
                ms(p.host_ns),
                ms(p.sim_ns),
                speed_cell(p.sim_speed()),
                faults,
            );
        }
    }
    let hot: Vec<_> = d.counters.iter().filter(|(_, v)| *v > 0).collect();
    if !hot.is_empty() {
        let _ = writeln!(out, "{:<24} {:>12} {:>14}", "counter", "count", "events/s");
        for (name, v) in hot {
            let rate = d
                .rate_per_sec(name)
                .map_or_else(|| "-".to_string(), |r| format!("{r:.0}"));
            let _ = writeln!(out, "{name:<24} {v:>12} {rate:>14}");
        }
    }
    out
}

/// Renders folded-stack lines (`path;to;frame <self-ns>`), the input
/// format of `flamegraph.pl` and friends. The "sample count" column is
/// exclusive host nanoseconds.
pub fn folded(d: &PerfData) -> String {
    let mut out = String::new();
    for s in &d.spans {
        if s.self_ns > 0 {
            let _ = writeln!(out, "{} {}", s.path, s.self_ns);
        }
    }
    // Phases appear as roots too, so a profile with no scoped spans
    // still produces a (flat) flame.
    for p in &d.phases {
        let nested: u64 = d
            .spans
            .iter()
            .filter(|s| {
                s.path
                    .strip_prefix(p.label.as_str())
                    .is_some_and(|rest| rest.starts_with(';'))
                    && !s.path[p.label.len() + 1..].contains(';')
            })
            .map(|s| s.total_ns)
            .sum();
        let self_ns = p.host_ns.saturating_sub(nested);
        if self_ns > 0 {
            let _ = writeln!(out, "{} {}", p.label, self_ns);
        }
    }
    out
}

/// Serializes the profile as JSON (`schema: "gh-perf/1"`). Field
/// reference lives in `docs/observability.md`.
pub fn json(d: &PerfData) -> String {
    let mut o = String::with_capacity(1024);
    o.push_str("{\"schema\":\"gh-perf/1\"");
    let _ = write!(
        o,
        ",\"host_total_ns\":{},\"sim_total_ns\":{},\"runs\":{}",
        d.host_total_ns, d.sim_total_ns, d.runs
    );
    let _ = write!(
        o,
        ",\"sim_ns_per_host_ms\":{}",
        d.sim_speed().map_or_else(|| "null".to_string(), f64_value)
    );
    let _ = write!(
        o,
        ",\"peak_rss_bytes\":{},\"minor_faults\":{}",
        d.peak_rss_bytes, d.minor_faults
    );
    o.push_str(",\"phases\":[");
    for (i, (p, faults)) in d.phases.iter().zip(&d.phase_minor_faults).enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str("{\"label\":");
        quote_into(&mut o, &p.label);
        let _ = write!(
            o,
            ",\"count\":{},\"host_ns\":{},\"sim_ns\":{},\"sim_ns_per_host_ms\":{},\"minor_faults\":{}}}",
            p.count,
            p.host_ns,
            p.sim_ns,
            p.sim_speed().map_or_else(|| "null".to_string(), f64_value),
            faults
        );
    }
    o.push_str("],\"spans\":[");
    for (i, s) in d.spans.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str("{\"path\":");
        quote_into(&mut o, &s.path);
        let _ = write!(
            o,
            ",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
            s.count, s.total_ns, s.self_ns
        );
    }
    o.push_str("],\"counters\":{");
    for (i, (name, v)) in d.counters.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        quote_into(&mut o, name);
        let _ = write!(o, ":{v}");
    }
    o.push_str("},\"rates_per_sec\":{");
    for (i, (name, _)) in d.counters.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        quote_into(&mut o, name);
        let _ = write!(
            o,
            ":{}",
            d.rate_per_sec(name)
                .map_or_else(|| "null".to_string(), f64_value)
        );
    }
    o.push_str("}}");
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{PhasePerf, SpanAgg};

    fn sample() -> PerfData {
        PerfData {
            host_total_ns: 2_000_000,
            sim_total_ns: 8_000_000,
            runs: 1,
            phases: vec![
                PhasePerf {
                    label: "alloc".into(),
                    count: 1,
                    host_ns: 500_000,
                    sim_ns: 1_000_000,
                },
                PhasePerf {
                    label: "compute".into(),
                    count: 1,
                    host_ns: 1_500_000,
                    sim_ns: 7_000_000,
                },
            ],
            spans: vec![
                SpanAgg {
                    path: "compute;kernel:k".into(),
                    count: 2,
                    total_ns: 1_000_000,
                    self_ns: 600_000,
                },
                SpanAgg {
                    path: "compute;kernel:k;translate".into(),
                    count: 8,
                    total_ns: 400_000,
                    self_ns: 400_000,
                },
            ],
            counters: vec![("tlb.walks", 1000), ("os.faults", 0)],
            peak_rss_bytes: 64 << 20,
            minor_faults: 2_345,
            phase_minor_faults: vec![2_000, 300],
        }
    }

    #[test]
    fn table_has_headline_and_phase_rows() {
        let t = table(&sample());
        assert!(t.contains("sim-speed 4000000 sim-ns/host-ms"), "{t}");
        assert!(t.contains("alloc"), "{t}");
        assert!(t.contains("compute"), "{t}");
        assert!(t.contains("tlb.walks"), "{t}");
        assert!(t.contains("minor faults 2345 |"), "{t}");
        assert!(
            t.lines()
                .any(|l| l.starts_with("alloc") && l.ends_with(" 2000")),
            "{t}"
        );
        // Zero counters are elided from the table.
        assert!(!t.contains("os.faults"), "{t}");
    }

    #[test]
    fn folded_reports_self_time_per_path() {
        let f = folded(&sample());
        assert!(f.contains("compute;kernel:k 600000\n"), "{f}");
        assert!(f.contains("compute;kernel:k;translate 400000\n"), "{f}");
        // Phase root: 1_500_000 total minus the 1_000_000 direct child.
        assert!(f.contains("compute 500000\n"), "{f}");
        assert!(f.contains("alloc 500000\n"), "{f}");
    }

    #[test]
    fn json_has_schema_and_counters() {
        let j = json(&sample());
        assert!(j.starts_with("{\"schema\":\"gh-perf/1\""), "{j}");
        assert!(j.contains("\"sim_ns_per_host_ms\":4000000"), "{j}");
        assert!(j.contains("\"tlb.walks\":1000"), "{j}");
        assert!(j.contains("\"peak_rss_bytes\":67108864"), "{j}");
        assert!(j.contains("\"minor_faults\":2345,"), "{j}");
        assert!(
            j.contains("\"sim_ns_per_host_ms\":2000000,\"minor_faults\":2000}"),
            "{j}"
        );
        assert!(j.contains("\"label\":\"compute\""), "{j}");
    }

    #[test]
    fn json_empty_profile_is_valid_shape() {
        let j = json(&PerfData::default());
        assert!(j.contains("\"sim_ns_per_host_ms\":null"), "{j}");
        assert!(j.contains("\"phases\":[]"), "{j}");
        assert!(j.contains("\"spans\":[]"), "{j}");
    }
}
