//! Clean fixture: the disciplined twin of `seeded`. Same shapes, zero
//! findings — including one well-formed, reasoned suppression.

use gh_units::{widen, Bytes, PageSize, Pages};
use std::collections::{BTreeMap, HashMap};

pub struct Counters {
    pub total_bytes: u64,
    pub by_node: BTreeMap<u32, u64>,
    pub hot_pages: HashMap<u64, u64>,
}

impl Counters {
    // Saturating accumulation: overflow clamps instead of wrapping. The
    // byte quantity crosses the public API as a gh-units newtype and is
    // unwrapped through the sanctioned `.get()` accessor.
    pub fn tally(&mut self, bytes: Bytes) {
        self.total_bytes = self.total_bytes.saturating_add(bytes.get());
    }

    // BTreeMap iterates in key order; no randomness reaches the output.
    pub fn report(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for (_, v) in self.by_node.iter() {
            out.push(*v);
        }
        out
    }

    // Epsilon compare instead of exact float equality.
    pub fn is_idle(&self, utilization: f64) -> bool {
        utilization.abs() < 1e-12
    }

    // A commutative fold over an unordered map: `unordered-iter-flow`
    // recognizes order-insensitive accumulation, so — unlike under the
    // retired token rule — no suppression is needed.
    pub fn merged(&self) -> u64 {
        let mut sum = 0u64;
        for v in self.hot_pages.values() {
            sum = sum.saturating_add(*v);
        }
        sum
    }

    // A reasoned suppression parses cleanly and silences its rule.
    pub fn is_unset(&self, utilization: f64) -> bool {
        // gh-audit: allow(no-float-eq) -- exact sentinel: the field was never written
        utilization == 0.0
    }
}

// The platform-respecting twin of seeded's `build_machine`: only the
// abstract seam is named, never the backend cost-model types, and the
// byte quantity is typed.
pub fn build_machine(pool_bytes: Bytes) -> u64 {
    pool_bytes.get()
}

// The disciplined twin of seeded's `span_cost`/`escape_hatch`: typed
// parameters, `widen` for the usize conversion, `.get()` as the exit.
pub fn span_cost(lens: &[usize]) -> u64 {
    widen(lens.len())
}

// unit-launder-flow's disciplined twin: the byte count is scaled by the
// page size on its way into the page domain — a real conversion, not a
// relabeling.
pub fn pages_from_bytes(b: Bytes, page: PageSize) -> Pages {
    Pages::new(b.get() / page.get())
}
