//! Clean fixture: the disciplined twin of `seeded`'s gh-jobs crate. The
//! same locked cache drops its guard before calling back into locking
//! code, so `lock-discipline` stays silent.

pub struct JobCache {
    map: Mutex<u64>,
}

impl JobCache {
    pub fn count(&self) -> u64 {
        let g = self.map.lock().expect("cache lock"); // gh-audit: allow(no-unwrap-in-lib) -- poisoning propagates a worker panic
        *g
    }

    // The guard is dropped before calling back into locking code.
    pub fn publish(&self) -> u64 {
        let g = self.map.lock().expect("cache lock"); // gh-audit: allow(no-unwrap-in-lib) -- poisoning propagates a worker panic
        let v = *g;
        drop(g);
        self.count() + v
    }
}
