//! Seeded clippy fixture: one violation for each guarantee that
//! `docs/static-analysis.md` assigns to clippy. `check.sh` requires
//! `cargo clippy -- -D warnings` to fail here, with every diagnostic that
//! `expected-lints.txt` lists. The header is a library crate root's.

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
