//! Deterministic virtual clock.
//!
//! All simulator components express costs in virtual nanoseconds and accrue
//! them on a single [`Clock`]. Because the simulator is single-threaded,
//! the clock is a plain monotone counter — no atomics, no wall time — which
//! makes every experiment bit-reproducible.

/// Virtual time in nanoseconds.
pub type Ns = u64;

/// A monotone virtual clock.
#[derive(Debug, Default, Clone)]
pub struct Clock {
    now: Ns,
}

impl Clock {
    /// Creates a clock at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Ns {
        self.now
    }

    /// Advances the clock by `dt` nanoseconds and returns the new time.
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "deliberate overflow trap on the virtual clock"
    )]
    pub fn advance(&mut self, dt: Ns) -> Ns {
        self.now = self
            .now
            .checked_add(dt)
            .expect("virtual clock overflow: experiment ran for > 580 years");
        self.now
    }

    /// Resets the clock to t = 0 (used between independent experiment runs).
    pub fn reset(&mut self) {
        self.now = 0;
    }
}

/// Formats a virtual duration for human-readable harness output, e.g.
/// `1.234 ms` or `12.3 s`.
pub fn format_ns(ns: gh_units::SimNs) -> String {
    let ns = ns.get();
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(Clock::new().now(), 0);
    }

    #[test]
    fn advance_accumulates() {
        let mut c = Clock::new();
        c.advance(10);
        c.advance(5);
        assert_eq!(c.now(), 15);
    }

    #[test]
    fn advance_returns_new_time() {
        let mut c = Clock::new();
        assert_eq!(c.advance(7), 7);
        assert_eq!(c.advance(3), 10);
    }

    #[test]
    fn reset_rewinds_to_zero() {
        let mut c = Clock::new();
        c.advance(100);
        c.reset();
        assert_eq!(c.now(), 0);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut c = Clock::new();
        c.advance(u64::MAX);
        c.advance(1);
    }

    #[test]
    fn formatting_picks_unit() {
        let f = |n: u64| format_ns(gh_units::SimNs::new(n));
        assert_eq!(f(12), "12 ns");
        assert_eq!(f(1_500), "1.500 us");
        assert_eq!(f(2_500_000), "2.500 ms");
        assert_eq!(f(3_200_000_000), "3.200 s");
    }

    #[test]
    fn formatting_sub_microsecond_edges() {
        let f = |n: u64| format_ns(gh_units::SimNs::new(n));
        assert_eq!(f(0), "0 ns");
        assert_eq!(f(1), "1 ns");
        assert_eq!(f(999), "999 ns");
        assert_eq!(f(1_000), "1.000 us");
        assert_eq!(f(999_999), "999.999 us");
        assert_eq!(f(1_000_000), "1.000 ms");
    }

    #[test]
    fn formatting_multi_second_durations() {
        let f = |n: u64| format_ns(gh_units::SimNs::new(n));
        assert_eq!(f(999_999_999), "1000.000 ms");
        assert_eq!(f(1_000_000_000), "1.000 s");
        assert_eq!(f(61_500_000_000), "61.500 s");
        assert_eq!(f(3_600_000_000_000), "3600.000 s");
    }
}
