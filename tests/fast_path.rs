//! Differential tests for the batched access path: the fragment core
//! and the retained per-page reference walk must produce byte-identical
//! `RunReport`s — traffic, timings, samples, counters, trace, and
//! sanitizer sections alike — for every app on every platform at every
//! page size the platform supports. The small app runs split system
//! fragments only into resident and unpopulated runs; the counter
//! migration sequence in `counter_notification_order_is_deterministic`
//! is where one fragment holds CPU- and GPU-resident runs, at every
//! gh200 page size.
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

/// Six kernels re-read an 8 MiB CPU-written system buffer on a gh200
/// machine built from `cfg` and `so`, while the access-counter driver
/// migrates it: one notification and at most 128 pages per kernel.
fn counter_migration_run(cfg: &MachineConfig, so: &SessionOptions) -> grace_mem::RunReport {
    let mut m = platform::gh200()
        .machine_session(cfg, so)
        .expect("a supported page size is a valid configuration");
    let p = m.rt.params();
    assert_eq!(
        (p.counter_budget_per_kernel, p.counter_service_max_pages),
        (1, 128),
        "the sequence is sized for the calibrated driver budget"
    );
    let b = m.rt.malloc_system(Bytes::new(8 * MIB), "hot");
    m.rt.cpu_write(&b, 0, 8 * MIB);
    // Re-read everything repeatedly: all four 2 MiB regions get hot
    // and fire notifications; the budgeted driver migrates them over
    // several kernels, so drain order is visible in per-kernel
    // migration traffic, and each read between two services is one
    // fragment split into CPU- and GPU-resident runs.
    for i in 0..6 {
        let mut k = m.rt.launch(&format!("iter{i}"));
        k.read(&b, 0, 8 * MIB);
        drop(k.finish());
    }
    m.rt.free(b);
    m.finish()
}

/// Regression for the counters/UVM determinism fix, and the fragment
/// core's differential on a split that holds both nodes. Notification
/// state lives in `BTreeMap`s, so the notification *order* a kernel
/// sequence drives into a RunReport is a pure function of the access
/// pattern. With hash maps, two identical runs in one process could
/// drain regions in different orders (per-instance hasher seeds) and
/// migrate different pages under a budgeted driver. Between two driver
/// services the buffer is part CPU- and part GPU-resident, so the
/// fragment core charges both kinds of run of one split fragment; the
/// per-page reference walk must produce the same report and trace, at
/// every gh200 page size, quiet and traced.
#[test]
fn counter_notification_order_is_deterministic() {
    for &page in platform::gh200().caps().page_sizes {
        let cfg = MachineConfig::with_page_size(page);
        for trace in [false, true] {
            let so = |access_ref| SessionOptions {
                trace,
                access_ref,
                ..Default::default()
            };
            let what = format!("{page}/trace={trace}");
            let a = counter_migration_run(&cfg, &so(false));
            let b = counter_migration_run(&cfg, &so(false));
            let reference = counter_migration_run(&cfg, &so(true));
            assert!(
                a.traffic.notifications > 0,
                "{what}: the sequence must actually fire notifications"
            );
            assert!(
                a.traffic.bytes_migrated_in > 0,
                "{what}: the driver must actually migrate hot regions"
            );
            // Migration must be spread across kernels (budgeted drain)
            // for the order to matter at all.
            let per_kernel: Vec<u64> = a
                .kernels
                .iter()
                .map(|k| k.traffic.bytes_migrated_in)
                .collect();
            assert!(
                per_kernel.iter().filter(|&&x| x > 0).count() > 1,
                "{what}: migrations should land in more than one kernel: {per_kernel:?}"
            );
            assert_eq!(
                a.to_json(),
                b.to_json(),
                "{what}: identical kernel sequences must produce byte-identical reports"
            );
            assert_eq!(
                reference.to_json(),
                a.to_json(),
                "{what}: batched core diverged from the reference walk"
            );
            assert_eq!(reference.chrome_trace().is_some(), trace, "{what}");
            assert_eq!(
                reference.chrome_trace(),
                a.chrome_trace(),
                "{what}: batched run's trace event stream diverged"
            );
        }
    }
}
