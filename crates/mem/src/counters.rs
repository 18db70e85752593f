//! GPU access-counter model (delayed automatic migration, paper §2.2.1).
//!
//! The Hopper GPU tracks remote (C2C) accesses per virtual-address region.
//! When a region's count exceeds a threshold (default 256), the GPU raises
//! a *notification* interrupt; the driver then decides whether to migrate
//! the region's pages to GPU memory. This module models the counting and
//! notification side; the migration decision lives in the driver model
//! (`gh-cuda::counters_driver`).

use std::collections::BTreeMap;

/// A notification raised when a region's access count crossed the
/// threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Notification {
    /// Region index (`vaddr / region_size`).
    pub region: u64,
    /// Counter value at the time the notification fired.
    pub count: u64,
}

/// Per-region remote-access counters with threshold notifications.
#[derive(Debug, Clone)]
pub struct AccessCounters {
    region_size: u64,
    threshold: u32,
    enabled: bool,
    /// A `BTreeMap`, so any iteration, and the batched notification sweep
    /// in the kernel driver, sees regions in address order: notification
    /// order reaches RunReports.
    counts: BTreeMap<u64, u64>,
    /// Regions that already fired and have not been cleared; they do not
    /// fire again until cleared (mirrors the driver acking the interrupt).
    notified: BTreeMap<u64, bool>,
    total_notifications: u64,
    bus: gh_trace::Bus,
}

impl AccessCounters {
    /// Creates counters with the given tracking granularity and threshold.
    /// Observability is off until [`AccessCounters::with_obs`] injects the
    /// session's bus.
    pub fn new(region_size: u64, threshold: u32, enabled: bool) -> Self {
        assert!(region_size.is_power_of_two());
        Self {
            region_size,
            threshold,
            enabled,
            counts: BTreeMap::new(),
            notified: BTreeMap::new(),
            total_notifications: 0,
            bus: gh_trace::Bus::off(),
        }
    }

    /// Attaches the owning session's trace bus. Recording is report-only:
    /// notification decisions are bit-identical either way.
    pub fn with_obs(mut self, bus: gh_trace::Bus) -> Self {
        self.bus = bus;
        self
    }

    /// Region granularity in bytes.
    pub fn region_size(&self) -> u64 {
        self.region_size
    }

    /// Whether counting is enabled (the paper disables automatic migration
    /// for the Figure 3 overview experiments).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Region index containing `vaddr`.
    pub fn region_of(&self, vaddr: u64) -> u64 {
        vaddr / self.region_size
    }

    /// Records `n` remote accesses to `region`; returns a notification if
    /// the threshold was crossed by this batch and the region has not
    /// already fired.
    pub fn record(&mut self, region: u64, n: u64) -> Option<Notification> {
        if !self.enabled || n == 0 {
            return None;
        }
        let c = self.counts.entry(region).or_insert(0);
        *c += n;
        let fired = self.notified.entry(region).or_insert(false);
        if !*fired && *c >= u64::from(self.threshold) {
            *fired = true;
            self.total_notifications = self.total_notifications.saturating_add(1);
            if self.bus.is_on() {
                self.bus.emit(gh_trace::Event::CounterNotify {
                    va: region * self.region_size,
                });
                self.bus.count("counters.notifications", 1);
            }
            return Some(Notification { region, count: *c });
        }
        None
    }

    /// Clears a region's counter and re-arms it (driver handled the
    /// notification — typically by migrating the region).
    pub fn clear(&mut self, region: u64) {
        self.counts.remove(&region);
        self.notified.remove(&region);
    }

    /// Current count for a region.
    pub fn count(&self, region: u64) -> u64 {
        self.counts.get(&region).copied().unwrap_or(0)
    }

    /// Total notifications raised since creation.
    pub fn total_notifications(&self) -> u64 {
        self.total_notifications
    }

    /// Ages the counters: clears the counts of every region that has not
    /// fired. The real driver periodically clears/decays its counters,
    /// which is what keeps *uniformly* sparse traffic (GUPS-style) from
    /// eventually notifying on every region — only access streams dense
    /// enough to cross the threshold within one aging window migrate.
    /// The simulator ages at kernel boundaries.
    pub fn age(&mut self) {
        self.counts
            .retain(|region, _| self.notified.get(region).copied().unwrap_or(false));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters() -> AccessCounters {
        AccessCounters::new(2 * 1024 * 1024, 256, true)
    }

    #[test]
    fn below_threshold_no_notification() {
        let mut c = counters();
        assert!(c.record(0, 255).is_none());
        assert_eq!(c.count(0), 255);
    }

    #[test]
    fn crossing_threshold_fires_once() {
        let mut c = counters();
        assert!(c.record(3, 200).is_none());
        let n = c.record(3, 100).expect("threshold crossed");
        assert_eq!(n.region, 3);
        assert_eq!(n.count, 300);
        // Further accesses do not re-fire until cleared.
        assert!(c.record(3, 1000).is_none());
        assert_eq!(c.total_notifications(), 1);
    }

    #[test]
    fn clear_rearms_region() {
        let mut c = counters();
        c.record(1, 300).unwrap();
        c.clear(1);
        assert_eq!(c.count(1), 0);
        assert!(c.record(1, 256).is_some());
        assert_eq!(c.total_notifications(), 2);
    }

    #[test]
    fn disabled_counters_never_fire() {
        let mut c = AccessCounters::new(4096, 1, false);
        assert!(c.record(0, 1_000_000).is_none());
        assert_eq!(c.count(0), 0);
    }

    #[test]
    fn regions_are_independent() {
        let mut c = counters();
        c.record(0, 256).unwrap();
        assert!(c.record(1, 255).is_none());
        assert!(c.record(1, 1).is_some());
    }

    #[test]
    fn region_of_uses_region_size() {
        let c = counters();
        assert_eq!(c.region_of(0), 0);
        assert_eq!(c.region_of(2 * 1024 * 1024 - 1), 0);
        assert_eq!(c.region_of(2 * 1024 * 1024), 1);
    }

    #[test]
    fn single_exact_threshold_hit_fires() {
        let mut c = counters();
        assert!(c.record(9, 256).is_some());
    }

    #[test]
    fn age_clears_unfired_regions_only() {
        let mut c = counters();
        c.record(0, 300).unwrap(); // fired
        c.record(1, 200); // not fired
        c.age();
        assert_eq!(c.count(0), 300, "fired region keeps its state");
        assert_eq!(c.count(1), 0, "unfired region is cleared");
        // Sparse traffic never accumulates across aging windows.
        for _ in 0..10 {
            assert!(c.record(2, 100).is_none());
            c.age();
        }
        assert_eq!(c.count(2), 0);
    }
}
