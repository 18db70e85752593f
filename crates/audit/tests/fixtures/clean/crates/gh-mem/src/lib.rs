//! Clean fixture: the disciplined twin of `seeded`. Same shapes, zero
//! findings — including one well-formed, reasoned suppression.

use gh_units::{widen, Bytes, PageSize, Pages};

pub struct Counters {
    pub total_bytes: u64,
}

impl Counters {
    // Saturating accumulation: overflow clamps instead of wrapping. The
    // byte quantity crosses the public API as a gh-units newtype and is
    // unwrapped through the sanctioned `.get()` accessor.
    pub fn tally(&mut self, bytes: Bytes) {
        self.total_bytes = self.total_bytes.saturating_add(bytes.get());
    }

    // Epsilon compare instead of exact float equality.
    pub fn is_idle(&self, utilization: f64) -> bool {
        utilization.abs() < 1e-12
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

// unit-launder's disciplined twin: the byte count crosses into the page
// domain through gh-units' declared conversion, not a relabeling.
pub fn pages_from_bytes(b: Bytes, page: PageSize) -> Pages {
    b / page
}
