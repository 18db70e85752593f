//! Integration tests for the observability bus (`gh-trace`): tracing
//! must never change virtual-time results, the exported metrics must
//! agree with the simulator's own ground-truth counters, and the Chrome
//! trace must be structurally sound.

use grace_mem::trace as bus;
use grace_mem::{platform, AppId, Machine, MachineConfig, MemMode, SessionOptions};

fn gh200() -> Machine {
    platform::gh200().machine()
}

fn run(app: AppId, mode: MemMode) -> grace_mem::RunReport {
    app.run_small(gh200(), mode)
}

fn traced(app: AppId, mode: MemMode) -> grace_mem::RunReport {
    let so = SessionOptions {
        trace: true,
        ..Default::default()
    };
    let m = platform::gh200()
        .machine_session(&MachineConfig::default(), &so)
        .expect("default config is valid");
    app.run_small(m, mode)
}

#[test]
fn tracing_does_not_change_virtual_time() {
    for mode in MemMode::ALL {
        let plain = run(AppId::Hotspot, mode);
        assert!(plain.trace.is_none(), "untraced run must carry no trace");

        let traced = traced(AppId::Hotspot, mode);

        assert_eq!(plain.phases, traced.phases, "{mode}: phase times differ");
        assert_eq!(plain.checksum, traced.checksum, "{mode}");
        assert_eq!(plain.kernels, traced.kernels, "{mode}");
        assert_eq!(plain.traffic, traced.traffic, "{mode}");
        assert!(traced.trace.is_some(), "traced run must carry the trace");
    }
}

#[test]
fn metrics_agree_with_ground_truth_counters() {
    for mode in MemMode::ALL {
        let r = traced(AppId::Hotspot, mode);
        let t = r.trace.as_ref().unwrap();

        // The bus's counters are recorded at the same call sites that feed
        // the simulator's own traffic accounting — they must agree exactly.
        assert_eq!(
            t.counter("os.ats_faults"),
            r.traffic.ats_faults,
            "{mode}: ATS fault counts disagree"
        );
        assert_eq!(
            t.counter("uvm.gpu_faults"),
            r.traffic.gpu_faults,
            "{mode}: GPU fault counts disagree"
        );
        assert_eq!(
            t.counter("counters.notifications"),
            r.traffic.notifications,
            "{mode}: notification counts disagree"
        );
        // Every migrated byte crossed the C2C link, so migration totals
        // are bounded by link traffic.
        let migrated_in =
            t.counter("uvm.bytes_migrated_in") + t.counter("counters.bytes_migrated_in");
        assert!(
            migrated_in <= t.counter("link.bytes_h2d"),
            "{mode}: migrated-in bytes {migrated_in} exceed H2D link bytes {}",
            t.counter("link.bytes_h2d")
        );
        assert!(
            t.counter("uvm.bytes_migrated_out") <= t.counter("link.bytes_d2h"),
            "{mode}: migrated-out bytes exceed D2H link bytes"
        );
    }
}

#[test]
fn cpu_faults_cover_touched_pages() {
    let r = traced(AppId::Hotspot, MemMode::System);
    let t = r.trace.as_ref().unwrap();
    // Hotspot's CPU init touches two grid-sized input buffers; every
    // first touch is one fault, so faults ≥ peak RSS / page size.
    let page = gh200().rt.params().system_page_size;
    let faults = t.counter("os.cpu_faults");
    assert!(faults > 0, "CPU init must fault pages in");
    assert!(
        faults >= r.peak_rss / page,
        "faults {faults} < peak RSS pages {}",
        r.peak_rss / page
    );
    // Per-fault costs were observed into the histogram.
    let h = t
        .metrics
        .histogram("fault.cost_ns")
        .expect("fault histogram");
    assert_eq!(
        h.count,
        faults + t.counter("os.ats_faults") + t.counter("uvm.gpu_faults")
    );
    assert!(h.mean() > 0.0);
}

#[test]
fn chrome_trace_is_structurally_sound() {
    let r = traced(AppId::Hotspot, MemMode::Managed);
    let json = r.chrome_trace().expect("traced run exports chrome trace");

    assert!(json.starts_with("{\"traceEvents\":["), "{json}");
    assert!(json.ends_with('}'), "{json}");
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
    // Kernel spans and phase spans are present.
    assert!(json.contains("\"cat\":\"kernel\""), "kernel spans missing");
    assert!(json.contains("\"cat\":\"phase\""), "phase spans missing");
    // Fault instants ride along for managed runs.
    assert!(json.contains("\"ph\":\"i\""), "instant events missing");
    assert!(
        json.contains("\"dropped_events\""),
        "overflow metadata missing"
    );
}

#[test]
fn explain_table_covers_all_phases() {
    let r = traced(AppId::Hotspot, MemMode::System);
    let text = r.explain().expect("traced run explains itself");
    for phase in ["ctx_init", "alloc", "cpu_init", "compute", "dealloc"] {
        assert!(text.contains(phase), "{phase} missing from:\n{text}");
    }
    assert!(text.contains("link%"), "link utilization column missing");
}

#[test]
fn metrics_exports_are_consistent() {
    let r = traced(AppId::Srad, MemMode::System);
    let t = r.trace.as_ref().unwrap();
    let csv = r.metrics_csv().unwrap();
    let json = r.metrics_json().unwrap();
    // Every counter appears in both dumps with its exact value.
    for (name, v) in t.metrics.counters() {
        assert!(
            csv.contains(&format!("counter,{name},value,{v}")),
            "{name} missing from CSV"
        );
        assert!(
            json.contains(&format!("\"{name}\":{v}")),
            "{name} missing from JSON"
        );
    }
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

#[test]
fn disabled_bus_costs_nothing_and_records_nothing() {
    let b = bus::Bus::off();
    b.emit(bus::Event::TlbEvict { va: 1 });
    b.count("x", 1);
    let d = b.take();
    assert!(d.events.is_empty() && d.metrics.is_empty());
}
