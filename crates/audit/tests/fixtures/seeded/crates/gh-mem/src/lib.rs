//! Seeded-violation fixture: every per-file rule must fire on this file.
//! Never compiled — consumed by `tests/fixtures.rs` through the engine.

use gh_units::{Bytes, Pages};

pub struct Counters {
    pub total_bytes: u64,
}

impl Counters {
    // no-unchecked-accounting-arithmetic: unchecked `+=` on an
    // accounting accumulator in an accounting crate (gh-mem).
    pub fn tally(&mut self, bytes: u64) {
        self.total_bytes += bytes;
    }

    // no-float-eq: exact float compare in a cost decision.
    pub fn is_idle(&self, utilization: f64) -> bool {
        utilization == 0.0
    }
}

// allow-syntax: a suppression without a `-- <reason>` is itself a finding.
pub fn suppressed(x: u64) -> u64 {
    x.saturating_add(1) // gh-audit: allow(no-float-eq)
}

// no-platform-leak: this fixture tree's `crates/gh-mem/` is NOT the real
// backend path (`crates/mem/`), so naming the cost-model type here leaks.
pub fn build_machine(params: &CostParams) -> u64 {
    params.total_bytes
}

// typed-units: unit-named raw-u64 parameters crossing a public API of a
// model crate (the third hit is `tally`'s `bytes: u64` above).
pub fn span_cost(len_bytes: u64, dur_ns: u64) -> u64 {
    len_bytes.saturating_add(dur_ns)
}

// no-raw-unit-cast: an `as u64` launder and a `.0` newtype escape.
pub struct RawBytes(pub u64);

pub fn escape_hatch(count: u32, b: &RawBytes) -> u64 {
    (count as u64).saturating_add(b.0)
}

// unit-launder: a byte count escapes through `.get()` and is rewrapped
// as a page count with no conversion — off by the page size,
// deterministically wrong.
pub fn pages_from_bytes(b: Bytes) -> Pages {
    Pages::new(b.get())
}
