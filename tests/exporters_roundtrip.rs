//! Exporter roundtrip: everything the observability layer writes to disk
//! must parse back with the in-tree JSON parser and be structurally
//! sound — Chrome-trace spans well nested per track, metrics percentiles
//! ordered, and the gh-perf profile schema complete.

use gh_trace::json::Value;
use grace_mem::{platform, AppId, MachineConfig, MemMode, RunReport, SessionOptions};

fn traced_run() -> RunReport {
    let so = SessionOptions {
        trace: true,
        ..Default::default()
    };
    let m = platform::gh200()
        .machine_session(&MachineConfig::default(), &so)
        .expect("default config is valid");
    AppId::Hotspot.run_small(m, MemMode::Managed)
}

#[test]
fn chrome_trace_parses_and_spans_nest_per_track() {
    let r = traced_run();
    let t = r.trace.as_ref().expect("traced run carries the trace");
    let doc = Value::parse(&gh_trace::export::chrome_trace(t)).expect("valid JSON");

    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // Every event carries the Chrome trace-event required fields.
    let mut x_by_tid: std::collections::BTreeMap<u64, Vec<(f64, f64)>> = Default::default();
    for e in events {
        let ph = e.get("ph").and_then(Value::as_str).expect("ph");
        assert!(ph == "X" || ph == "i", "unexpected phase {ph}");
        assert!(
            e.get("name")
                .and_then(Value::as_str)
                .is_some_and(|n| !n.is_empty()),
            "event name"
        );
        let ts = e.get("ts").and_then(Value::as_f64).expect("ts");
        assert!(ts >= 0.0);
        assert_eq!(e.get("pid").and_then(Value::as_f64), Some(1.0));
        let tid = e.get("tid").and_then(Value::as_f64).expect("tid") as u64;
        if ph == "X" {
            let dur = e.get("dur").and_then(Value::as_f64).expect("X needs dur");
            assert!(dur > 0.0, "complete events have positive duration");
            x_by_tid.entry(tid).or_default().push((ts, ts + dur));
        } else {
            assert!(e.get("args").is_some(), "instants carry their payload");
        }
    }
    assert!(!x_by_tid.is_empty(), "at least one span track");

    // Within a track, spans must be well-formed: any two either disjoint
    // or one contained in the other (EPS absorbs the 1 ns floor the
    // exporter puts under zero-length spans).
    const EPS: f64 = 0.002; // microseconds
    for (tid, spans) in &mut x_by_tid {
        spans.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap()
                .then(b.1.partial_cmp(&a.1).unwrap())
        });
        let mut stack: Vec<(f64, f64)> = Vec::new();
        for &(start, end) in spans.iter() {
            while stack
                .last()
                .is_some_and(|&(_, top_end)| top_end <= start + EPS)
            {
                stack.pop();
            }
            if let Some(&(top_start, top_end)) = stack.last() {
                assert!(
                    end <= top_end + EPS,
                    "tid {tid}: span [{start}, {end}] straddles [{top_start}, {top_end}]"
                );
            }
            stack.push((start, end));
        }
    }
}

#[test]
fn metrics_json_parses_with_ordered_percentiles() {
    let r = traced_run();
    let t = r.trace.as_ref().expect("trace");
    let doc = Value::parse(&gh_trace::export::metrics_json(t)).expect("valid JSON");

    let counters = doc
        .get("counters")
        .and_then(Value::as_obj)
        .expect("counters object");
    assert!(!counters.is_empty());
    for (name, v) in counters {
        assert!(!name.is_empty());
        assert!(v.as_f64().is_some_and(|x| x >= 0.0), "{name}");
    }

    let hists = doc
        .get("histograms")
        .and_then(Value::as_obj)
        .expect("histograms object");
    assert!(
        !hists.is_empty(),
        "a managed run records latency histograms"
    );
    for (name, h) in hists {
        let count = h.get("count").and_then(Value::as_f64).expect("count");
        assert!(count >= 1.0, "{name}");
        let p50 = h.get("p50").and_then(Value::as_f64).expect("p50");
        let p95 = h.get("p95").and_then(Value::as_f64).expect("p95");
        let p99 = h.get("p99").and_then(Value::as_f64).expect("p99");
        assert!(p50 <= p95 && p95 <= p99, "{name}: {p50} {p95} {p99}");
        let min = h.get("min").and_then(Value::as_f64).expect("min");
        let max = h.get("max").and_then(Value::as_f64).expect("max");
        assert!(
            (min..=max).contains(&p50) && (min..=max).contains(&p99),
            "{name}: percentiles must bracket [{min}, {max}]"
        );
        assert!(
            h.get("buckets")
                .and_then(Value::as_obj)
                .is_some_and(|b| !b.is_empty()),
            "{name}: occupied buckets"
        );
    }
}

#[test]
fn perf_json_parses_with_complete_schema() {
    let so = SessionOptions {
        perf: true,
        ..Default::default()
    };
    let m = platform::gh200()
        .machine_session(&MachineConfig::default(), &so)
        .expect("default config is valid");
    let perf = m.rt.session().perf.clone();
    let _ = AppId::Hotspot.run_small(m, MemMode::Managed);
    let perf = perf.take();
    let doc = Value::parse(&gh_perf::export::json(&perf)).expect("valid JSON");

    assert_eq!(doc.get("schema").and_then(Value::as_str), Some("gh-perf/1"));
    assert!(doc.get("host_total_ns").and_then(Value::as_f64).unwrap() > 0.0);
    assert!(doc.get("sim_total_ns").and_then(Value::as_f64).unwrap() > 0.0);
    assert!(
        doc.get("sim_ns_per_host_ms")
            .and_then(Value::as_f64)
            .is_some_and(|s| s > 0.0),
        "headline ratio present and positive"
    );
    assert!(doc.get("peak_rss_bytes").and_then(Value::as_f64).is_some());
    assert!(doc.get("minor_faults").and_then(Value::as_f64).is_some());

    let phases = doc.get("phases").and_then(Value::as_arr).expect("phases");
    assert!(!phases.is_empty());
    for p in phases {
        assert!(p
            .get("label")
            .and_then(Value::as_str)
            .is_some_and(|l| !l.is_empty()));
        assert!(p.get("host_ns").and_then(Value::as_f64).is_some());
        assert!(p.get("sim_ns").and_then(Value::as_f64).is_some());
        assert!(p.get("minor_faults").and_then(Value::as_f64).is_some());
    }

    let spans = doc.get("spans").and_then(Value::as_arr).expect("spans");
    assert!(!spans.is_empty(), "kernel launches open spans");
    for s in spans {
        let total = s.get("total_ns").and_then(Value::as_f64).expect("total");
        let self_ns = s.get("self_ns").and_then(Value::as_f64).expect("self");
        assert!(self_ns <= total, "self time cannot exceed total");
        assert!(s
            .get("count")
            .and_then(Value::as_f64)
            .is_some_and(|c| c >= 1.0));
    }

    let counters = doc
        .get("counters")
        .and_then(Value::as_obj)
        .expect("counters");
    assert!(counters.contains_key("cuda.kernel_launches"));

    // The folded export agrees with the JSON spans: same paths, and each
    // line is `path self_ns`.
    let folded = gh_perf::export::folded(&perf);
    for line in folded.lines() {
        let (path, val) = line.rsplit_once(' ').expect("folded line shape");
        assert!(!path.is_empty());
        assert!(val.parse::<u64>().is_ok(), "self_ns is integral: {line}");
    }
}
