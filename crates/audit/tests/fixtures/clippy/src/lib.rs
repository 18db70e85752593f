//! Seeded clippy fixture: one violation for each guarantee that
//! `docs/static-analysis.md` assigns to clippy. `check.sh` requires
//! `cargo clippy -- -D warnings` to fail here, with every diagnostic that
//! `expected-lints.txt` lists. The header is a model crate root's
//! (`gh-mem`, `gh-os`, `gh-cuda`): a library root's, plus the
//! `as_conversions` line.

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
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]
#![cfg_attr(not(test), deny(clippy::as_conversions))]

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Host time read in simulator code.
pub fn host_elapsed_ns() -> u128 {
    let t0 = std::time::Instant::now();
    t0.elapsed().as_nanos()
}

/// Wall-clock time read in simulator code.
pub fn host_date() -> std::time::SystemTime {
    std::time::SystemTime::now()
}

/// Configuration read from the environment instead of `SessionOptions`.
pub fn env_flag() -> bool {
    std::env::var("GH_FLAG").is_ok()
}

thread_local! {
    /// Per-thread ambient state.
    pub static DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// A process-wide lazy cell.
pub static CONFIG: OnceLock<u64> = OnceLock::new();

/// An `unwrap` in library code.
pub fn parse_pages(s: &str) -> u64 {
    s.parse().unwrap()
}

/// An exact compare of two computed costs.
pub fn same_cost(a: f64, b: f64) -> bool {
    a == b
}

/// The per-byte fault cost bound to a named constant.
pub const ATS_FAULT_PER_BYTE: f64 = 0.25;

/// An exact compare against a named float constant.
pub fn is_default_fault_cost(per_byte: f64) -> bool {
    per_byte == ATS_FAULT_PER_BYTE
}

/// A count laundered through an `as` cast.
pub fn pages_of(n: u32) -> u64 {
    n as u64
}

/// A trace event kind.
#[derive(Debug)]
pub enum Event {
    /// An allocation.
    Alloc,
    /// A free.
    Free,
    /// A kernel launch.
    Kernel,
}

/// A catch-all arm under `event_tid`'s wildcard lints.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
pub fn event_tid(ev: &Event) -> u32 {
    match ev {
        Event::Alloc => 1,
        _ => 2,
    }
}

/// gh-audit's seeded `report()`: hash iteration order reaches the
/// returned vector.
#[derive(Debug)]
pub struct Counters {
    /// Bytes per node.
    pub by_node: HashMap<u32, u64>,
}

impl Counters {
    /// Per-node byte counts, in hash order.
    pub fn report(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for (_, v) in self.by_node.iter() {
            out.push(*v);
        }
        out
    }
}
