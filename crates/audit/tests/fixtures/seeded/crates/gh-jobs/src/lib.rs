//! Seeded-violation fixture for `lock-discipline`: exactly one finding.
//! Never compiled — consumed by `tests/fixtures.rs` through the engine.

pub struct JobCache {
    map: Mutex<u64>,
}

impl JobCache {
    pub fn count(&self) -> u64 {
        let g = self.map.lock().expect("cache lock"); // gh-audit: allow(no-unwrap-in-lib) -- poisoning propagates a worker panic
        *g
    }

    // lock-discipline: `count` re-locks `map` while the guard is held —
    // Mutex is not reentrant, so this self-deadlocks.
    pub fn publish(&self) -> u64 {
        let g = self.map.lock().expect("cache lock"); // gh-audit: allow(no-unwrap-in-lib) -- poisoning propagates a worker panic
        self.count()
    }
}
