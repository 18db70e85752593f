//! `gh-profiler` — the paper's memory-utilization profiler, in virtual time.
//!
//! The paper's tool (§3.2) samples, every 100 ms, the process resident set
//! size (`/proc/<pid>/smaps_rollup`) and the GPU used memory
//! (`nvidia-smi`, which includes a ~600 MB driver baseline). This crate
//! reproduces that: the simulator pushes `(virtual time, RSS, GPU used)`
//! observations whenever state changes, and the profiler keeps one sample
//! per sampling period — exactly what a wall-clock poller would have seen.
//!
//! It also provides the phase timer used to report the paper's common
//! application phases (context init, allocation, CPU init, compute,
//! de-allocation) and small CSV helpers for the figure harnesses.

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

pub mod phases;
pub mod plot;
pub mod profiler;
pub mod report;

pub use phases::{Phase, PhaseTimer, PhaseTimes};
pub use plot::{ascii_chart, plot_memory_profile};
pub use profiler::{MemProfiler, Sample};
pub use report::Csv;
