//! End-to-end tests for the session-scoped engine (PR 9): the full
//! app × platform × mode matrix runs concurrently in one process —
//! sessions are per-run, so nothing is ambient — and the result is
//! bitwise-identical to a serial sweep: reports, checksum bits, and
//! trace event streams alike. The job cache serves repeated specs
//! without re-simulating, proven through the self-profiler, and a suite
//! that races twin specs on the cache finishes within a deadline.

use grace_mem::{jobs, AppId, JobCache, JobSpec, MemMode, SessionOptions};
use std::sync::Arc;

mod support;

/// The adversarial observability mix: tracing armed (collectors busy on
/// every worker) and the invariant sanitizer forced on.
fn observed() -> SessionOptions {
    SessionOptions {
        trace: true,
        sanitize: Some(true),
        ..Default::default()
    }
}

#[test]
fn concurrent_matrix_is_bitwise_identical_to_serial() {
    let specs = jobs::matrix(true, &observed());
    assert_eq!(
        specs.len(),
        AppId::ALL.len() * 2 * grace_mem::platform::names().len(),
        "matrix must cover every app, mode, and platform"
    );

    let serial = jobs::run_suite(&specs, 1, &Arc::new(JobCache::new()));
    let concurrent = jobs::run_suite(&specs, 8, &Arc::new(JobCache::new()));
    assert_eq!(serial.len(), concurrent.len());

    for ((spec, s), c) in specs.iter().zip(&serial).zip(&concurrent) {
        let key = spec.canonical_key();
        let s = s.as_ref().expect("serial job runs");
        let c = c.as_ref().expect("concurrent job runs");
        assert!(!s.cached && !c.cached, "{key}: fresh caches on both sides");
        assert_eq!(s.hash, c.hash, "{key}: job identity is worker-independent");
        assert_eq!(
            s.report.to_json(),
            c.report.to_json(),
            "{key}: RunReport must be bitwise-identical serial vs 8 workers"
        );
        assert_eq!(
            s.report.checksum.to_bits(),
            c.report.checksum.to_bits(),
            "{key}: checksum bits must match exactly"
        );
        let (st, ct) = (s.report.chrome_trace(), c.report.chrome_trace());
        assert!(st.is_some(), "{key}: tracing was armed, trace must exist");
        assert_eq!(st, ct, "{key}: trace event streams must be identical");
    }
}

#[test]
fn cache_hit_serves_identical_report_without_resimulating() {
    let mut spec = JobSpec::new(AppId::Hotspot, "gh200", MemMode::System);
    spec.small = true;
    // The armed profiler is the witness: a simulated run records kernel
    // spans; a cache hit simulates nothing, so there is nothing to drain.
    spec.session.perf = true;

    let cache = Arc::new(JobCache::new());
    let first = jobs::run_suite(std::slice::from_ref(&spec), 1, &cache);
    let first = first[0].as_ref().expect("job runs");
    assert!(!first.cached);
    let profile = first.perf.as_ref().expect("fresh run drains a profile");
    assert_eq!(profile.runs, 1);
    assert!(
        profile.spans.iter().any(|s| s.path.contains("kernel:")),
        "a real simulation opens kernel spans: {:?}",
        profile.spans.iter().map(|s| &s.path).collect::<Vec<_>>()
    );

    let again = jobs::run_suite(std::slice::from_ref(&spec), 1, &cache);
    let again = again[0].as_ref().expect("job runs");
    assert!(again.cached, "second identical spec must hit the cache");
    assert!(
        again.perf.is_none(),
        "cache hit must not re-simulate: zero spans, no profile at all"
    );
    assert_eq!(
        first.report.to_json(),
        again.report.to_json(),
        "cached report must be bitwise-identical to the computed one"
    );
    assert_eq!((cache.hits(), cache.misses()), (1, 1));
    assert_eq!(cache.len(), 1);
}

#[test]
fn specs_differing_only_in_trace_options_hash_differently() {
    let base = JobSpec::new(AppId::Bfs, "gh200", MemMode::Managed);
    let mut traced = base.clone();
    traced.session.trace = true;
    let mut sized = traced.clone();
    sized.session.trace_capacity = Some(1 << 12);

    // Tracing adds a section to the report, so it must be part of the
    // cache key; the capacity changes ring truncation, likewise.
    assert_ne!(base.stable_hash(), traced.stable_hash());
    assert_ne!(traced.stable_hash(), sized.stable_hash());
    assert_ne!(base.stable_hash(), sized.stable_hash());
    // Equal specs agree, across clones.
    assert_eq!(base.stable_hash(), base.clone().stable_hash());
}

#[test]
fn twin_specs_finish_on_one_cache_at_any_worker_count() {
    // Every spec twice, side by side, so at 4 workers the twins race on
    // the cache. A lock taken twice on one thread deadlocks every time its
    // path runs, so the deadline catches it on the first run.
    support::finishes("a suite of twin specs", || {
        let specs: Vec<JobSpec> = jobs::matrix(true, &SessionOptions::default())
            .into_iter()
            .flat_map(|s| [s.clone(), s])
            .collect();
        let rows = specs.len() as u64;
        for workers in [1, 4] {
            let cache = JobCache::new();
            let reports: Vec<String> = jobs::run_suite(&specs, workers, &cache)
                .into_iter()
                .map(|r| r.expect("job runs").report.to_json())
                .collect();
            assert_eq!(reports.len(), specs.len());
            for (twins, spec) in reports.chunks(2).zip(specs.iter().step_by(2)) {
                assert_eq!(
                    twins[0],
                    twins[1],
                    "{}: twins differ at {workers} workers",
                    spec.canonical_key()
                );
            }
            assert_eq!(cache.hits() + cache.misses(), rows, "{workers} workers");
            if workers == 1 {
                assert_eq!(cache.misses(), rows / 2, "one miss per distinct spec");
            }
        }
    });
}
