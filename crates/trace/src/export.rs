//! Exporters: Chrome/Perfetto trace JSON, CSV and JSON metrics dumps, and
//! the human-readable per-phase "run explain" table.

use crate::collector::{SpanRec, TraceData};
use crate::event::{Dir, Event};
use crate::json;
use std::fmt::Write as _;

/// Track (tid) a span category renders on in the Chrome trace viewer.
fn span_tid(cat: &str) -> u32 {
    match cat {
        "phase" => 0,
        "kernel" => 1,
        "copy" => 2,
        "migration" => 3,
        "api" => 4,
        _ => 5,
    }
}

/// Track an instant event renders on, grouped by subsystem. The match
/// names every `Event` variant, so rustc rejects a new variant until it
/// has a track; the lints keep a catch-all arm from hiding one.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
fn event_tid(ev: &Event) -> u32 {
    match ev {
        Event::PageFault { .. } => 6,
        Event::Migration { .. } | Event::Evict { .. } | Event::Pin { .. } => 3,
        Event::LinkXfer { .. } => 7,
        Event::TlbEvict { .. } => 8,
        Event::CounterNotify { .. } => 9,
        Event::VmaCreate { .. } | Event::VmaDestroy { .. } => 10,
    }
}

fn push_ts(out: &mut String, ns: u64) {
    // Chrome trace timestamps are microseconds; keep ns resolution with
    // three decimals.
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

/// Renders the trace as Chrome trace-event JSON (load in Perfetto or
/// `chrome://tracing`). Spans become `"X"` complete events on per-category
/// tracks; bus events become `"i"` instants with their payload as `args`.
pub fn chrome_trace(data: &TraceData) -> String {
    let mut out = String::with_capacity(256 + data.spans.len() * 96 + data.events.len() * 96);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n  ");
    };
    for s in &data.spans {
        sep(&mut out);
        out.push_str("{\"name\":");
        json::quote_into(&mut out, &s.name);
        out.push_str(",\"cat\":");
        json::quote_into(&mut out, s.cat);
        out.push_str(",\"ph\":\"X\",\"ts\":");
        push_ts(&mut out, s.start);
        out.push_str(",\"dur\":");
        push_ts(&mut out, (s.end - s.start).max(1));
        let _ = write!(out, ",\"pid\":1,\"tid\":{}}}", span_tid(s.cat));
    }
    for e in &data.events {
        sep(&mut out);
        out.push_str("{\"name\":");
        json::quote_into(&mut out, e.event.name());
        out.push_str(",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
        push_ts(&mut out, e.ns);
        let _ = write!(
            out,
            ",\"pid\":1,\"tid\":{},\"args\":{}}}",
            event_tid(&e.event),
            e.event.args_json()
        );
    }
    let _ = write!(
        out,
        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped_events\":{}}}}}",
        data.dropped
    );
    out
}

/// Dumps the metrics registry as CSV: `kind,name,field,value` rows.
/// Histograms expand to `count`/`sum`/`min`/`max`/`mean`/`p50`/`p95`/
/// `p99` plus one `bucket_<lo>` row per occupied bucket.
pub fn metrics_csv(data: &TraceData) -> String {
    let mut out = String::from("kind,name,field,value\n");
    for (name, v) in data.metrics.counters() {
        let _ = writeln!(out, "counter,{name},value,{v}");
    }
    for (name, v) in data.metrics.gauges() {
        let _ = writeln!(out, "gauge,{name},value,{v}");
    }
    for (name, h) in data.metrics.histograms() {
        let _ = writeln!(out, "histogram,{name},count,{}", h.count);
        let _ = writeln!(out, "histogram,{name},sum,{}", h.sum);
        let _ = writeln!(out, "histogram,{name},min,{}", h.min);
        let _ = writeln!(out, "histogram,{name},max,{}", h.max);
        let _ = writeln!(out, "histogram,{name},mean,{}", h.mean());
        if let Some((p50, p95, p99)) = h.summary_percentiles() {
            let _ = writeln!(out, "histogram,{name},p50,{p50}");
            let _ = writeln!(out, "histogram,{name},p95,{p95}");
            let _ = writeln!(out, "histogram,{name},p99,{p99}");
        }
        for (lo, c) in h.occupied() {
            let _ = writeln!(out, "histogram,{name},bucket_{lo},{c}");
        }
    }
    let _ = writeln!(out, "meta,events,recorded,{}", data.events.len());
    let _ = writeln!(out, "meta,events,dropped,{}", data.dropped);
    out
}

/// Dumps the metrics registry as a JSON object:
/// `{"counters":{...},"gauges":{...},"histograms":{...},"events":{...}}`.
pub fn metrics_json(data: &TraceData) -> String {
    let mut out = String::from("{\"counters\":{");
    let mut first = true;
    for (name, v) in data.metrics.counters() {
        if !first {
            out.push(',');
        }
        first = false;
        json::quote_into(&mut out, name);
        let _ = write!(out, ":{v}");
    }
    out.push_str("},\"gauges\":{");
    first = true;
    for (name, v) in data.metrics.gauges() {
        if !first {
            out.push(',');
        }
        first = false;
        json::quote_into(&mut out, name);
        out.push(':');
        out.push_str(&json::f64_value(v));
    }
    out.push_str("},\"histograms\":{");
    first = true;
    for (name, h) in data.metrics.histograms() {
        if !first {
            out.push(',');
        }
        first = false;
        json::quote_into(&mut out, name);
        let _ = write!(
            out,
            ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{}",
            h.count, h.sum, h.min, h.max
        );
        if let Some((p50, p95, p99)) = h.summary_percentiles() {
            let _ = write!(
                out,
                ",\"p50\":{},\"p95\":{},\"p99\":{}",
                json::f64_value(p50),
                json::f64_value(p95),
                json::f64_value(p99)
            );
        }
        out.push_str(",\"buckets\":{");
        let mut bfirst = true;
        for (lo, c) in h.occupied() {
            if !bfirst {
                out.push(',');
            }
            bfirst = false;
            let _ = write!(out, "\"{lo}\":{c}");
        }
        out.push_str("}}");
    }
    let _ = write!(
        out,
        "}},\"events\":{{\"recorded\":{},\"dropped\":{}}}}}",
        data.events.len(),
        data.dropped
    );
    out
}

/// Per-phase aggregates behind the explain table; also usable
/// programmatically (the advisor cites these counts in its rationale).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseExplain {
    /// Phase label.
    pub name: String,
    /// Virtual duration in ns.
    pub dur: u64,
    /// CPU first-touch faults inside the phase.
    pub cpu_faults: u64,
    /// ATS faults inside the phase.
    pub ats_faults: u64,
    /// GPU replayable faults inside the phase.
    pub gpu_faults: u64,
    /// Bytes migrated host→device inside the phase (any engine).
    pub bytes_in: u64,
    /// Bytes migrated device→host inside the phase.
    pub bytes_out: u64,
    /// Bytes crossing NVLink-C2C inside the phase.
    pub link_bytes: u64,
    /// Busy time of the link inside the phase (sum of transfer durations).
    pub link_busy: u64,
}

impl PhaseExplain {
    /// Link utilization in `[0, 1]`: busy time over phase duration.
    pub fn link_utilization(&self) -> f64 {
        if self.dur == 0 {
            0.0
        } else {
            self.link_busy as f64 / self.dur as f64
        }
    }
}

fn in_span(span: &SpanRec, ns: u64) -> bool {
    ns >= span.start && ns < span.end.max(span.start + 1)
}

/// Aggregates bus events into per-phase rows ("phase"-category spans).
pub fn explain_rows(data: &TraceData) -> Vec<PhaseExplain> {
    let mut phases: Vec<&SpanRec> = data.spans_in("phase").collect();
    phases.sort_by_key(|s| s.start);
    let mut rows: Vec<PhaseExplain> = phases
        .iter()
        .map(|s| PhaseExplain {
            name: s.name.clone(),
            dur: s.end - s.start,
            ..Default::default()
        })
        .collect();
    for ev in &data.events {
        let Some(idx) = phases.iter().position(|s| in_span(s, ev.ns)) else {
            continue;
        };
        let row = &mut rows[idx];
        match &ev.event {
            Event::PageFault { kind, .. } => match kind {
                crate::event::FaultKind::Cpu => row.cpu_faults += 1,
                crate::event::FaultKind::Ats => row.ats_faults += 1,
                crate::event::FaultKind::Gpu => row.gpu_faults += 1,
            },
            Event::Migration { dir, bytes, .. } => match dir {
                Dir::H2D => row.bytes_in += *bytes,
                Dir::D2H => row.bytes_out += *bytes,
            },
            Event::LinkXfer { bytes, dur, .. } => {
                row.link_bytes += *bytes;
                row.link_busy += *dur;
            }
            _ => {}
        }
    }
    rows
}

fn human_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{b} B")
    } else {
        format!("{v:.1} {}", UNITS[u])
    }
}

/// Renders the per-phase explain table: time, faults by kind, bytes moved
/// each direction, and link utilization.
pub fn explain(data: &TraceData) -> String {
    let rows = explain_rows(data);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>9} {:>9} {:>9} {:>10} {:>10} {:>7}",
        "phase", "time_ms", "cpu_flt", "ats_flt", "gpu_flt", "bytes_in", "bytes_out", "link%"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:<12} {:>10.3} {:>9} {:>9} {:>9} {:>10} {:>10} {:>6.1}%",
            r.name,
            r.dur as f64 / 1e6,
            r.cpu_faults,
            r.ats_faults,
            r.gpu_faults,
            human_bytes(r.bytes_in),
            human_bytes(r.bytes_out),
            r.link_utilization() * 100.0
        );
    }
    if data.dropped > 0 {
        let _ = writeln!(
            out,
            "(ring overflow: {} events dropped; counts above may undercount)",
            data.dropped
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{SpanRec, Stamped, TraceData};
    use crate::event::{Engine, FaultKind};

    fn sample_data() -> TraceData {
        let mut d = TraceData::default();
        d.spans.push(SpanRec {
            name: "compute".into(),
            cat: "phase",
            start: 0,
            end: 1_000_000,
            depth: 0,
        });
        d.spans.push(SpanRec {
            name: "k\"1\"".into(),
            cat: "kernel",
            start: 100,
            end: 500_000,
            depth: 1,
        });
        d.events.push(Stamped {
            ns: 200,
            seq: 0,
            event: Event::PageFault {
                kind: FaultKind::Ats,
                va: 4096,
                cost: 700,
            },
        });
        d.events.push(Stamped {
            ns: 300,
            seq: 1,
            event: Event::Migration {
                engine: Engine::Fault,
                dir: Dir::H2D,
                pages: 2,
                bytes: 8192,
            },
        });
        d.events.push(Stamped {
            ns: 400,
            seq: 2,
            event: Event::LinkXfer {
                dir: Dir::H2D,
                bytes: 8192,
                dur: 100_000,
            },
        });
        d.metrics.count("os.ats_faults", 1);
        d.metrics.observe("fault.cost_ns", 700);
        d
    }

    #[test]
    fn chrome_trace_is_balanced_and_escaped() {
        // A zero-length span whose name needs escaping.
        let mut hostile = TraceData::default();
        hostile.spans.push(SpanRec {
            name: "bad\"name\\with\ncontrol".into(),
            cat: "runtime",
            start: 5,
            end: 5,
            depth: 0,
        });
        for data in [sample_data(), TraceData::default(), hostile.clone()] {
            let j = chrome_trace(&data);
            assert!(j.starts_with('{') && j.ends_with('}'));
            assert_eq!(j.matches('{').count(), j.matches('}').count());
            assert_eq!(j.matches('[').count(), j.matches(']').count());
            let v = json::Value::parse(&j).unwrap_or_else(|e| panic!("{e}: {j}"));
            let n = v
                .get("traceEvents")
                .and_then(|e| e.as_arr())
                .map(<[_]>::len);
            assert_eq!(n, Some(data.spans.len() + data.events.len()), "{j}");
        }
        let j = chrome_trace(&hostile);
        // Escaped, not dropped: every character of the name survives.
        assert!(j.contains(r#""name":"bad\"name\\with\ncontrol""#), "{j}");
        assert!(j.contains("\"dur\":0.001"), "zero-length span: {j}");

        let j = chrome_trace(&sample_data());
        assert!(j.contains("\"ph\":\"X\""));
        assert!(j.contains("\"ph\":\"i\""));
        assert!(j.contains("k\\\"1\\\""), "kernel name escaped: {j}");
        assert!(j.contains("\"name\":\"migration\""));
        assert!(j.contains("\"dropped_events\":0"));
    }

    #[test]
    fn metrics_csv_lists_counters() {
        let csv = metrics_csv(&sample_data());
        assert!(csv.starts_with("kind,name,field,value\n"));
        assert!(csv.contains("counter,os.ats_faults,value,1\n"));
        assert!(csv.contains("meta,events,recorded,3\n"));
    }

    #[test]
    fn metrics_csv_includes_percentiles() {
        let csv = metrics_csv(&sample_data());
        // One observation of 700: every percentile clamps to it exactly.
        assert!(csv.contains("histogram,fault.cost_ns,p50,700\n"), "{csv}");
        assert!(csv.contains("histogram,fault.cost_ns,p95,700\n"), "{csv}");
        assert!(csv.contains("histogram,fault.cost_ns,p99,700\n"), "{csv}");
    }

    #[test]
    fn metrics_json_is_balanced() {
        let j = metrics_json(&sample_data());
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.contains("\"os.ats_faults\":1"));
        assert!(j.contains("\"recorded\":3"));
        assert!(j.contains("\"p50\":700"), "{j}");
        assert!(j.contains("\"p99\":700"), "{j}");
    }

    #[test]
    fn explain_attributes_events_to_phases() {
        let rows = explain_rows(&sample_data());
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.name, "compute");
        assert_eq!(r.ats_faults, 1);
        assert_eq!(r.bytes_in, 8192);
        assert_eq!(r.link_bytes, 8192);
        assert!((r.link_utilization() - 0.1).abs() < 1e-9);
        let table = explain(&sample_data());
        assert!(table.contains("compute"));
        assert!(table.contains("cpu_flt"));
    }
}
