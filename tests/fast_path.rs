//! Differential tests for the batched access path: the fragment core
//! and the retained per-page reference walk must produce byte-identical
//! `RunReport`s — traffic, timings, samples, counters, trace, and
//! sanitizer sections alike — for every app on every platform at every
//! page size the platform supports. gh200 at 4 KiB pages is where small
//! runs meet system spans that are part CPU- and part GPU-resident after
//! counter migration.
//!
//! These run in the debug/test profile, where the runtime invariant
//! sanitizer defaults ON (`gh_units::sanitizer`), so every differential
//! pair below is also a sanitizer-on differential pair.

use gh_units::Bytes;
use grace_mem::{platform, AppId, MachineConfig, MemMode, SessionOptions};

const MIB: u64 = 1 << 20;

/// Runs `app` on a fresh machine of platform `p` under config `cfg` and
/// session options `so` and returns the full serialized report.
fn run_json(
    p: &dyn grace_mem::sim::platform::Platform,
    cfg: &MachineConfig,
    app: AppId,
    mode: MemMode,
    so: &SessionOptions,
) -> String {
    let m = p
        .machine_session(cfg, so)
        .expect("a supported page size is a valid configuration");
    app.run_small(m, mode).to_json()
}

/// Session spec that forces the per-page reference walk (what the
/// retired `GH_ACCESS_REF` process latch used to select).
fn reference_walk() -> SessionOptions {
    SessionOptions {
        access_ref: true,
        ..Default::default()
    }
}

#[test]
fn batched_and_reference_paths_agree_for_every_app() {
    for p in platform::all() {
        for &page in p.caps().page_sizes {
            let cfg = MachineConfig::with_page_size(page);
            for app in AppId::ALL {
                for mode in [MemMode::System, MemMode::Managed] {
                    let reference = run_json(p, &cfg, app, mode, &reference_walk());
                    let batched = run_json(p, &cfg, app, mode, &SessionOptions::default());
                    assert_eq!(
                        reference,
                        batched,
                        "{}/{}/{page}/{mode}: batched core diverged from the reference walk",
                        app.name(),
                        p.caps().name,
                    );
                }
            }
        }
    }
}

#[test]
fn batched_and_reference_paths_agree_under_tracing() {
    // Tracing is the adversarial case: the batched core must emit
    // TlbEvict / CounterNotify / PageFault events in exactly the order
    // the per-page walk does (it falls back per span for CPU-resident
    // memory when counters are armed under tracing). Every app runs on
    // every platform, traced and sanitized: srad trips the
    // access-counter migration engine, needle and bfs meter fragment
    // lists, managed runs fault and migrate blocks.
    let traced = |access_ref| SessionOptions {
        trace: true,
        sanitize: Some(true),
        access_ref,
        ..Default::default()
    };
    for p in platform::all() {
        for &page in p.caps().page_sizes {
            let cfg = MachineConfig::with_page_size(page);
            for app in AppId::ALL {
                for mode in [MemMode::System, MemMode::Managed] {
                    let what = format!("{}/{}/{page}/{mode}", app.name(), p.caps().name);
                    let run = |so: &SessionOptions| {
                        app.run_small(p.machine_session(&cfg, so).expect("valid config"), mode)
                    };
                    let reference = run(&traced(true));
                    let batched = run(&traced(false));
                    let ref_trace = reference.chrome_trace();
                    assert!(
                        ref_trace.is_some(),
                        "{what}: traced run must capture a trace section"
                    );
                    assert_eq!(
                        reference.to_json(),
                        batched.to_json(),
                        "{what}: traced batched run diverged from the reference walk"
                    );
                    assert_eq!(
                        ref_trace,
                        batched.chrome_trace(),
                        "{what}: batched run's trace event stream diverged"
                    );
                }
            }
        }
    }
}

/// Regression for the counters/UVM determinism fix: notification state
/// lives in `BTreeMap`s, so the notification *order* a kernel sequence
/// drives into a RunReport is a pure function of the access pattern.
/// With hash maps, two identical runs in one process could drain
/// regions in different orders (per-instance hasher seeds) and migrate
/// different pages under a budgeted driver.
#[test]
fn counter_notification_order_is_deterministic() {
    let run_once = || {
        let mut m = platform::gh200().machine();
        let b = m.rt.malloc_system(Bytes::new(8 * MIB), "hot");
        m.rt.cpu_write(&b, 0, 8 * MIB);
        // Re-read everything repeatedly: all four 2 MiB regions get hot
        // and fire notifications; the budgeted driver migrates them over
        // several kernels, so drain order is visible in per-kernel
        // migration traffic.
        for i in 0..6 {
            let mut k = m.rt.launch(&format!("iter{i}"));
            k.read(&b, 0, 8 * MIB);
            let rep = k.finish();
            drop(rep);
        }
        m.rt.free(b);
        m.finish()
    };
    let a = run_once();
    let b = run_once();
    assert!(
        a.traffic.notifications > 0,
        "the sequence must actually fire notifications"
    );
    assert!(
        a.traffic.bytes_migrated_in > 0,
        "the driver must actually migrate hot regions"
    );
    // Migration must be spread across kernels (budgeted drain) for the
    // order to matter at all.
    let per_kernel: Vec<u64> = a
        .kernels
        .iter()
        .map(|k| k.traffic.bytes_migrated_in)
        .collect();
    assert!(
        per_kernel.iter().filter(|&&x| x > 0).count() > 1,
        "migrations should land in more than one kernel: {per_kernel:?}"
    );
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "identical kernel sequences must produce byte-identical reports"
    );
}
