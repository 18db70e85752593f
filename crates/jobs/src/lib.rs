//! `gh-jobs` — the concurrent experiment-job executor.
//!
//! A simulation run is a pure function of its [`JobSpec`]: application,
//! platform, memory mode, page size, input scale, and session options.
//! Because PR 9 evicted every piece of ambient state into the per-run
//! [`SessionCtx`](gh_cuda::SessionCtx), many runs — traced, profiled,
//! sanitized, or quiet — can execute *concurrently in one process* and
//! still produce bitwise-identical [`RunReport`]s to a serial sweep.
//! This crate packages that guarantee:
//!
//! * [`JobSpec`] — a plain-data description of one run, with a
//!   [canonical key](JobSpec::canonical_key) and a [stable 64-bit
//!   hash](JobSpec::stable_hash) (FNV-1a over the key, *not* the
//!   randomized std hasher) that is identical across processes and
//!   platforms;
//! * [`run_job`] — execute one spec on the calling thread under its own
//!   session;
//! * [`JobCache`] — a result cache keyed by the whole [`JobSpec`], with
//!   hit/miss counters: a hit returns the cached report without
//!   re-simulating;
//! * [`run_suite`] — fan a spec list over a [`gh_par`] worker pool
//!   (`workers <= 1` degrades to an inline serial loop), preserving
//!   input order in the output.
//!
//! The executor is a *boundary*: it owns session construction for its
//! workers, so callers hand it [`SessionOptions`] — never env vars.
//!
//! # Session isolation is checked by rustc
//!
//! A session's trace bus and profiler (`SessionCtx::bus`, `::perf`)
//! each wrap an `Rc`, so neither they nor the
//! [`SessionCtx`](gh_cuda::SessionCtx) holding them is `Send` or `Sync`.
//! No run can therefore hand its handles to a pool task, to a parallel
//! loop body, or to a `static`; `thread_local!` and `static mut` are
//! banned by the `no-ambient-state` audit rule. Each `compile_fail`
//! block below fails with E0277 and has a compiling twin that differs
//! only in the marked line, so the error can come from nothing else
//! (stable rustdoc does not check a `compile_fail` block's error code).
//!
//! A pool task cannot capture the submitter's handles:
//!
//! ```compile_fail
//! use gh_cuda::SessionCtx;
//!
//! let submitter = SessionCtx::default();
//! assert!(!submitter.bus.is_on());
//! let pool = gh_par::WorkStealingPool::new(1);
//! pool.spawn(move || {
//!     let bus = submitter.bus.clone(); // E0277: `Rc` is not `Send`
//!     assert!(!bus.is_on());
//! });
//! pool.wait_idle();
//! ```
//!
//! It builds its own session instead:
//!
//! ```
//! use gh_cuda::SessionCtx;
//!
//! let submitter = SessionCtx::default();
//! assert!(!submitter.bus.is_on());
//! let pool = gh_par::WorkStealingPool::new(1);
//! pool.spawn(move || {
//!     let bus = SessionCtx::default().bus; // the task's own session
//!     assert!(!bus.is_on());
//! });
//! pool.wait_idle();
//! ```
//!
//! A parallel loop body cannot read a session's handles:
//!
//! ```compile_fail
//! use gh_cuda::SessionCtx;
//!
//! let ctx = SessionCtx::default();
//! let profiling = ctx.perf.is_on();
//! gh_par::par_for(0..4, gh_par::Grain::Auto, |_| {
//!     assert!(!ctx.perf.is_on()); // E0277: `Rc` is not `Sync`
//! });
//! ```
//!
//! It reads plain data copied out before the loop:
//!
//! ```
//! use gh_cuda::SessionCtx;
//!
//! let ctx = SessionCtx::default();
//! let profiling = ctx.perf.is_on();
//! gh_par::par_for(0..4, gh_par::Grain::Auto, |_| {
//!     assert!(!profiling); // a `bool` is `Sync`
//! });
//! ```
//!
//! A `static` cannot hold a session:
//!
//! ```compile_fail
//! use std::sync::OnceLock;
//!
//! static SESSION: OnceLock<gh_cuda::SessionCtx> = OnceLock::new(); // E0277
//! assert!(SESSION.get().is_none());
//! ```
//!
//! It can hold the plain-data options a session is built from:
//!
//! ```
//! use std::sync::OnceLock;
//!
//! static SESSION: OnceLock<gh_cuda::SessionOptions> = OnceLock::new(); // plain data
//! assert!(SESSION.get().is_none());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![deny(missing_docs)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gh_apps::{AppId, MemMode};
use gh_cuda::SessionOptions;
use gh_par::WorkStealingPool;
use gh_sim::platform::{self, MachineConfig, PlatformError};
use gh_sim::RunReport;

/// A plain-data description of one simulation run. Everything that can
/// change the produced [`RunReport`] — including the session's trace and
/// sanitize options, which add sections to the report — is part of the
/// spec, and therefore of the [`JobCache`] key and the
/// [hash](JobSpec::stable_hash).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct JobSpec {
    /// Which application to run.
    pub app: AppId,
    /// Platform registry name (`gh200`, `mi300a`).
    pub platform: String,
    /// Memory-management strategy.
    pub mode: MemMode,
    /// System page size in bytes; `None` = the platform default.
    pub page_size: Option<u64>,
    /// Use the shrunk test inputs (`AppId::run_small`) instead of the
    /// paper-scaled defaults.
    pub small: bool,
    /// Per-run session options (trace, perf, sanitize, reference walk).
    pub session: SessionOptions,
}

impl JobSpec {
    /// A spec with platform defaults and a quiet session.
    pub fn new(app: AppId, platform: &str, mode: MemMode) -> Self {
        Self {
            app,
            platform: platform.to_string(),
            mode,
            page_size: None,
            small: false,
            session: SessionOptions::default(),
        }
    }

    /// The canonical field-tagged key string the stable hash runs over.
    /// Two specs are equal iff their keys are equal, so the key doubles
    /// as a human-readable job label. Both structs are destructured
    /// without `..`, so a new field fails to compile here until the key
    /// names it.
    pub fn canonical_key(&self) -> String {
        let JobSpec {
            app,
            platform,
            mode,
            page_size,
            small,
            session,
        } = self;
        let SessionOptions {
            trace,
            trace_capacity,
            perf,
            sanitize,
            access_ref,
        } = session;
        let page = page_size.map_or_else(|| "default".to_string(), |p| p.to_string());
        let cap = trace_capacity.map_or_else(|| "default".to_string(), |c| c.to_string());
        let sanitize = match sanitize {
            None => "default",
            Some(true) => "1",
            Some(false) => "0",
        };
        format!(
            "app={};platform={};mode={};page={};small={};trace={};cap={};perf={};sanitize={};ref={}",
            app.name(),
            platform,
            mode.label(),
            page,
            u8::from(*small),
            u8::from(*trace),
            cap,
            u8::from(*perf),
            sanitize,
            u8::from(*access_ref),
        )
    }

    /// Stable 64-bit job hash: FNV-1a over [`JobSpec::canonical_key`].
    /// Deterministic across processes and runs (unlike
    /// `std::hash::DefaultHasher`, which is seed-randomized), so cache
    /// keys and job labels survive serialization.
    pub fn stable_hash(&self) -> u64 {
        fnv1a64(self.canonical_key().as_bytes())
    }
}

/// FNV-1a 64-bit hash (the offset-basis/prime constants of the reference
/// implementation). Stable by construction; used for job identity.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The result of one executed (or cache-served) job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The spec's stable hash, a job label for output; the cache itself
    /// compares whole specs.
    pub hash: u64,
    /// True when the report came from the cache without re-simulating.
    pub cached: bool,
    /// The run report (bitwise-identical whether computed or cached).
    pub report: RunReport,
    /// The run's drained self-profile when the spec asked for one.
    /// Always `None` on a cache hit: nothing was simulated. Host times
    /// in here are wall-clock and therefore *not* deterministic — which
    /// is exactly why profiles are never cached alongside reports.
    pub perf: Option<gh_perf::PerfData>,
}

/// A report cache keyed by the whole [`JobSpec`], with hit/miss
/// counters. Sound because a [`RunReport`] is a pure function of its
/// spec (the simulator is deterministic; host-time data lives in
/// [`gh_perf::PerfData`], outside the report). The derived `Ord` on
/// [`JobSpec`] compares every field, so two specs share an entry only
/// when they are equal: no hash collision can serve another spec's
/// report. Shared across worker threads via `Arc`.
#[derive(Debug, Default)]
pub struct JobCache {
    map: Mutex<BTreeMap<JobSpec, RunReport>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl JobCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks a spec up, counting a hit or miss.
    fn lookup(&self, spec: &JobSpec) -> Option<RunReport> {
        let found = self.map.lock().expect("cache lock").get(spec).cloned(); // gh-audit: allow(no-unwrap-in-lib) -- a poisoned cache lock means a worker panicked mid-insert; propagating is the only sound response
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Stores a computed report under its spec.
    fn insert(&self, spec: &JobSpec, report: &RunReport) {
        self.map
            .lock()
            .expect("cache lock") // gh-audit: allow(no-unwrap-in-lib) -- see lookup: poisoning propagates a worker panic
            .insert(spec.clone(), report.clone());
    }

    /// Cache hits since creation.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses since creation.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct reports stored.
    pub fn len(&self) -> usize {
        self.map.lock().expect("cache lock").len() // gh-audit: allow(no-unwrap-in-lib) -- see lookup: poisoning propagates a worker panic
    }

    /// Whether the cache holds no reports.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Executes one spec on the calling thread. The machine — and with it
/// the session's trace bus and profiler — is constructed *here*, so the
/// run's observability state lives and dies with this job no matter
/// which worker thread runs it.
pub fn run_job(spec: &JobSpec) -> Result<(RunReport, Option<gh_perf::PerfData>), PlatformError> {
    let p = platform::by_name(&spec.platform)?;
    let cfg = match spec.page_size {
        Some(ps) => MachineConfig::with_page_size(ps),
        None => MachineConfig::default(),
    };
    let m = p.machine_session(&cfg, &spec.session)?;
    let perf = m.rt.session().perf.clone();
    let report = if spec.small {
        spec.app.run_small(m, spec.mode)
    } else {
        spec.app.run(m, spec.mode)
    };
    let perf = perf.is_on().then(|| perf.take());
    Ok((report, perf))
}

fn execute(spec: &JobSpec, cache: &JobCache) -> Result<JobOutcome, PlatformError> {
    let hash = spec.stable_hash();
    if let Some(report) = cache.lookup(spec) {
        return Ok(JobOutcome {
            hash,
            cached: true,
            report,
            perf: None,
        });
    }
    let (report, perf) = run_job(spec)?;
    cache.insert(spec, &report);
    Ok(JobOutcome {
        hash,
        cached: false,
        report,
        perf,
    })
}

/// Runs every spec, returning outcomes in input order.
///
/// `workers <= 1` runs the specs inline on the calling thread (the
/// serial reference path); otherwise a fresh [`WorkStealingPool`] with
/// exactly `workers` threads executes them concurrently. Either way the
/// reports are bitwise-identical — that is the session-scoping
/// invariant, and `tests/sessions.rs` holds it under `diff`.
pub fn run_suite(
    specs: &[JobSpec],
    workers: usize,
    cache: &Arc<JobCache>,
) -> Vec<Result<JobOutcome, PlatformError>> {
    /// One worker's result slot, filled exactly once per spec.
    type Slot = Mutex<Option<Result<JobOutcome, PlatformError>>>;
    if workers <= 1 {
        return specs.iter().map(|s| execute(s, cache)).collect();
    }
    let pool = WorkStealingPool::new(workers);
    let slots: Arc<Vec<Slot>> = Arc::new(specs.iter().map(|_| Mutex::new(None)).collect());
    for (i, spec) in specs.iter().cloned().enumerate() {
        let slots = Arc::clone(&slots);
        let cache = Arc::clone(cache);
        pool.spawn(move || {
            let out = execute(&spec, &cache);
            *slots[i].lock().expect("slot lock") = Some(out); // gh-audit: allow(no-unwrap-in-lib) -- slot poisoning means this very closure panicked; unreachable
        });
    }
    pool.wait_idle();
    slots
        .iter()
        .map(|s| {
            s.lock()
                .expect("slot lock") // gh-audit: allow(no-unwrap-in-lib) -- pool is idle and owned locally; a poisoned slot means a worker panicked
                .take()
                .expect("every job ran to completion") // gh-audit: allow(no-unwrap-in-lib) -- wait_idle guarantees each spawned job stored its outcome
        })
        .collect()
}

/// The full experiment matrix the benches and the CLI suite run: every
/// application × every registered platform × {system, managed}, in
/// deterministic (app, mode, platform) order.
pub fn matrix(small: bool, session: &SessionOptions) -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for app in AppId::ALL {
        for mode in [MemMode::System, MemMode::Managed] {
            for name in platform::names() {
                specs.push(JobSpec {
                    app,
                    platform: (*name).to_string(),
                    mode,
                    page_size: None,
                    small,
                    session: session.clone(),
                });
            }
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            small: true,
            ..JobSpec::new(AppId::Hotspot, "gh200", MemMode::System)
        }
    }

    #[test]
    fn stable_hash_is_deterministic_and_field_sensitive() {
        let a = spec();
        assert_eq!(a.stable_hash(), spec().stable_hash());
        let mut b = spec();
        b.mode = MemMode::Managed;
        assert_ne!(a.stable_hash(), b.stable_hash());
        let mut c = spec();
        c.session.trace = true;
        assert_ne!(
            a.stable_hash(),
            c.stable_hash(),
            "trace options are part of job identity"
        );
        let mut d = spec();
        d.page_size = Some(4096);
        assert_ne!(a.stable_hash(), d.stable_hash());
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn run_job_produces_a_report() {
        let (r, perf) = run_job(&spec()).unwrap();
        assert_eq!(r.platform, "gh200");
        assert!(r.reported_total() > 0);
        assert!(perf.is_none(), "quiet session has no profile");
    }

    #[test]
    fn unknown_platform_is_a_typed_error() {
        let mut s = spec();
        s.platform = "gh300".into();
        assert!(matches!(
            run_job(&s),
            Err(PlatformError::UnknownPlatform(_))
        ));
    }

    #[test]
    fn cache_hit_skips_resimulation() {
        let cache = Arc::new(JobCache::new());
        let first = run_suite(&[spec()], 1, &cache);
        assert!(!first[0].as_ref().unwrap().cached);
        let second = run_suite(&[spec()], 1, &cache);
        let out = second[0].as_ref().unwrap();
        assert!(out.cached);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(
            out.report.to_json(),
            first[0].as_ref().unwrap().report.to_json(),
            "cached report is byte-identical"
        );
        let mut reference_walk = spec();
        reference_walk.session.access_ref = true;
        let third = run_suite(&[reference_walk], 1, &cache);
        assert!(
            !third[0].as_ref().unwrap().cached,
            "a spec differing only in access_ref must miss"
        );
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn matrix_covers_apps_modes_platforms() {
        let specs = matrix(true, &SessionOptions::default());
        assert_eq!(specs.len(), AppId::ALL.len() * 2 * platform::names().len());
        let hashes: std::collections::BTreeSet<u64> =
            specs.iter().map(JobSpec::stable_hash).collect();
        assert_eq!(hashes.len(), specs.len(), "all job hashes distinct");
    }

    #[test]
    fn concurrent_matches_serial() {
        let specs: Vec<JobSpec> = AppId::ALL[..3]
            .iter()
            .map(|&app| JobSpec {
                small: true,
                ..JobSpec::new(app, "gh200", MemMode::System)
            })
            .collect();
        let serial: Vec<String> = run_suite(&specs, 1, &Arc::new(JobCache::new()))
            .into_iter()
            .map(|r| r.unwrap().report.to_json())
            .collect();
        let concurrent: Vec<String> = run_suite(&specs, 4, &Arc::new(JobCache::new()))
            .into_iter()
            .map(|r| r.unwrap().report.to_json())
            .collect();
        assert_eq!(serial, concurrent);
    }
}
