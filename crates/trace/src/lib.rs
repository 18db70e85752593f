//! `gh-trace` — the simulator's observability bus.
//!
//! The paper's conclusions are driven by counts and costs: page faults,
//! migration bytes, NVLink-C2C traffic, page-table teardown work. This
//! crate gives every simulator layer one place to report those quantities:
//!
//! * a **structured event bus** keyed to the *virtual* clock (wall time
//!   never appears): typed [`Event`]s flow into a bounded [`ring::Ring`]
//!   with a drop-oldest overflow policy and an observable dropped count;
//! * a **metrics registry** ([`metrics::Metrics`]) of monotone counters,
//!   gauges, and log-2 histograms;
//! * **hierarchical spans** (phase → API call → kernel → fault batch) via
//!   [`Bus::span`]/[`Bus::span_enter`]/[`Bus::span_exit`]/[`Bus::span_closed`];
//! * **exporters**: Chrome/Perfetto trace JSON ([`export::chrome_trace`]),
//!   CSV/JSON metrics dumps, and a per-phase "run explain" table
//!   ([`export::explain`]).
//!
//! The collector is **session-scoped, not ambient**: a [`Bus`] is a
//! cloneable handle owned by one run's session context and injected into
//! each component that emits. There is no process or thread global, so
//! runs with different trace options coexist in one process. A disabled
//! handle ([`Bus::off`]) makes every call a no-op after one branch, and
//! recording never touches simulator state, so enabling tracing cannot
//! change any virtual-time result. See `docs/observability.md` for the
//! event taxonomy and metric-name inventory, and `docs/sessions.md` for
//! how sessions own the bus.
//!
//! ```
//! use gh_trace::{Bus, Event, FaultKind};
//!
//! let bus = Bus::on();
//! bus.set_now(100);
//! bus.span_enter("compute", "phase");
//! bus.emit(Event::PageFault {
//!     kind: FaultKind::Ats,
//!     va: 0x1000,
//!     cost: 700,
//! });
//! bus.count("os.ats_faults", 1);
//! bus.set_now(1_000);
//! bus.span_exit();
//! let data = bus.take();
//! assert_eq!(data.counter("os.ats_faults"), 1);
//! let perfetto_json = gh_trace::export::chrome_trace(&data);
//! assert!(perfetto_json.contains("fault.ats"));
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

pub mod collector;
pub mod event;
pub mod export;
pub mod json;
pub mod metrics;
pub mod ring;

pub use collector::{Bus, SpanGuard, SpanRec, Stamped, TraceData, DEFAULT_RING_CAPACITY};
pub use event::{Dir, Engine, Event, FaultKind, Ns};
pub use metrics::{Histogram, Metrics};
