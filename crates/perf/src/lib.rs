//! `gh-perf` — the simulator profiling *itself*.
//!
//! Everything else in this workspace observes the **simulated machine**
//! on the virtual clock (`gh-trace`, the sanitizer, the phase timers).
//! This crate observes the **simulator as a host program**: how many host
//! milliseconds each experiment phase costs, how fast the hot paths run
//! (TLB walks/s, faults/s, migrated pages/s), and the headline
//! **sim-speed ratio** — virtual nanoseconds advanced per host
//! millisecond. That trajectory is what `BENCH_*.json` at the repo root
//! tracks across PRs (see `docs/observability.md`).
//!
//! # The wall-clock carve-out
//!
//! The workspace `clippy.toml` bans host-time reads (`Instant`,
//! `SystemTime`) from simulator code, because a single `Instant::now()`
//! on a model path can couple reported numbers to the machine the
//! simulator runs on. `gh-perf` is the one *sanctioned* exception: its
//! clock reads sit in items marked `#[expect(clippy::disallowed_*)]`
//! (the collector's origin and `now_ns`, and `host_date`), and it is
//! quarantined by construction — nothing here reads or writes simulator
//! state, and no virtual-time result can depend on it. `tests/perf.rs`
//! proves RunReports stay bitwise identical with profiling on.
//!
//! # Session scoping
//!
//! Like `gh-trace`, the collector is **session-scoped, not ambient**
//! (PR 9): a [`Perf`] is a cloneable handle owned by one run's session
//! context and injected into each component that profiles. A disarmed
//! handle ([`Perf::off`]) makes every call a no-op after one branch, so
//! concurrent runs in one process profile independently or not at all.
//!
//! # Usage
//!
//! ```
//! use gh_perf::{Ctr, Perf};
//!
//! let perf = Perf::on();
//! // ... run a simulation; model crates mark phases/spans/counters ...
//! perf.phase_mark("compute", 0);
//! perf.count(Ctr::TlbWalks, 1);
//! perf.run_end(1_000_000);
//! let data = perf.take();
//! assert!(data.host_total_ns > 0);
//! println!("{}", gh_perf::export::table(&data));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::iter_over_hash_type,
    clippy::allow_attributes_without_reason
)]

mod collector;
pub mod export;
mod host;
mod report;

pub use collector::{Ctr, Perf, SpanGuard};
pub use host::{host_date, peak_rss_bytes};
pub use report::{PerfData, PhasePerf, SpanAgg};
