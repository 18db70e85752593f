//! The per-run session context: everything that used to be ambient.
//!
//! Before PR 9, a run's configuration and observability state were
//! process-wide — `thread_local!` collectors in `gh-trace`/`gh-perf`,
//! `OnceLock` env latches for the sanitizer and the reference-walk
//! toggle. Two runs with different options could not coexist in one
//! process, which blocked the concurrent job executor (`gh-jobs`).
//!
//! A [`SessionCtx`] bundles all of it per run:
//!
//! * the **trace bus** ([`gh_trace::Bus`]) — events, metrics, spans;
//! * the **self-profiler** ([`gh_perf::Perf`]) — host-time phases,
//!   spans, hot-path counters;
//! * the **sanitizer flag** — whether the machine layer arms the
//!   invariant sanitizer for this run;
//! * the **access-path switch** — whether kernels take the per-page
//!   reference walk instead of the fragment core (see [`crate::kernel`]);
//! * the **runtime options** ([`RuntimeOptions`]) — behavioural
//!   switches.
//!
//! The `Runtime` owns the context; components that emit (TLB, link,
//! access counters, OS) hold clones of the handles, injected at
//! construction. **Library code never reads `GH_*` environment
//! variables** (clippy `disallowed-methods`): env vars are honored
//! only at the CLI/bench boundary, where they seed a [`SessionOptions`]
//! that is resolved into a `SessionCtx` here. See `docs/sessions.md`.

use crate::runtime::RuntimeOptions;

/// Boundary-level observability knobs for one run — what a CLI flag,
/// env var, or job spec can ask for, without dragging in
/// [`RuntimeOptions`] (which stays confined to the platform layers by
/// the `no-platform-leak` audit rule). Plain data: hashable into job
/// keys, cheap to clone across threads.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct SessionOptions {
    /// Record the trace bus (events, metrics, spans).
    pub trace: bool,
    /// Event-ring capacity override (default
    /// [`gh_trace::DEFAULT_RING_CAPACITY`]).
    pub trace_capacity: Option<usize>,
    /// Arm the gh-perf self-profiler.
    pub perf: bool,
    /// Arm the invariant sanitizer. `None` = the build default
    /// (debug builds sanitize, release builds do not).
    pub sanitize: Option<bool>,
    /// Force the per-page reference walk instead of the fragment core
    /// (differential testing/debugging; reports are bit-identical either
    /// way).
    pub access_ref: bool,
}

impl SessionOptions {
    /// Resolves the sanitizer flag: explicit request wins, otherwise
    /// debug builds sanitize and release builds do not (the same
    /// default the old `GH_SANITIZE` latch fell back to).
    pub fn sanitize_resolved(&self) -> bool {
        self.sanitize.unwrap_or(cfg!(debug_assertions))
    }
}

/// One run's context: options plus the observability state that used to
/// be ambient. Owned by the `Runtime` (and through it the `Machine`);
/// every instrumented component holds clones of the [`gh_trace::Bus`]
/// and [`gh_perf::Perf`] handles.
#[derive(Debug, Clone)]
pub struct SessionCtx {
    /// The run's trace bus (off unless the session asked for tracing).
    pub bus: gh_trace::Bus,
    /// The run's self-profiler (off unless the session asked for it).
    pub perf: gh_perf::Perf,
    /// Whether the machine layer arms the invariant sanitizer.
    pub sanitize: bool,
    /// Whether kernels take the per-page reference walk instead of the
    /// fragment core — the run's only access-path switch.
    pub access_ref: bool,
    /// Behavioural switches for the simulated run.
    pub opts: RuntimeOptions,
}

impl SessionCtx {
    /// A quiet session: no tracing, no profiling, build-default
    /// sanitizing. What `Runtime::new` uses.
    pub fn new(opts: RuntimeOptions) -> Self {
        Self {
            bus: gh_trace::Bus::off(),
            perf: gh_perf::Perf::off(),
            sanitize: cfg!(debug_assertions),
            access_ref: false,
            opts,
        }
    }

    /// Resolves boundary-level [`SessionOptions`] into a live context.
    pub fn with_options(opts: RuntimeOptions, so: &SessionOptions) -> Self {
        Self {
            bus: match (so.trace, so.trace_capacity) {
                (false, _) => gh_trace::Bus::off(),
                (true, None) => gh_trace::Bus::on(),
                (true, Some(cap)) => gh_trace::Bus::with_capacity(cap),
            },
            perf: if so.perf {
                gh_perf::Perf::on()
            } else {
                gh_perf::Perf::off()
            },
            sanitize: so.sanitize_resolved(),
            access_ref: so.access_ref,
            opts,
        }
    }
}

impl Default for SessionCtx {
    fn default() -> Self {
        Self::new(RuntimeOptions::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_session_records_nothing() {
        let s = SessionCtx::default();
        assert!(!s.bus.is_on());
        assert!(!s.perf.is_on());
    }

    #[test]
    fn options_arm_the_handles() {
        let so = SessionOptions {
            trace: true,
            perf: true,
            ..Default::default()
        };
        let s = SessionCtx::with_options(RuntimeOptions::default(), &so);
        assert!(s.bus.is_on());
        assert!(s.perf.is_on());
    }

    #[test]
    fn sanitize_default_tracks_build_profile() {
        let so = SessionOptions::default();
        assert_eq!(so.sanitize_resolved(), cfg!(debug_assertions));
        let on = SessionOptions {
            sanitize: Some(true),
            ..Default::default()
        };
        assert!(on.sanitize_resolved());
        let off = SessionOptions {
            sanitize: Some(false),
            ..Default::default()
        };
        assert!(!off.sanitize_resolved());
    }

    #[test]
    fn access_ref_reaches_the_session() {
        let so = SessionOptions {
            access_ref: true,
            ..Default::default()
        };
        let s = SessionCtx::with_options(RuntimeOptions::default(), &so);
        assert!(s.access_ref);
        assert!(!SessionCtx::default().access_ref);
    }
}
