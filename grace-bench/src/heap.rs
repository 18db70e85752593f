//! Live heap bytes and their peak, counted by a wrapper around the
//! system allocator.
//!
//! Every allocation still goes to `System` (glibc's malloc, with its
//! default settings): the wrapper only adds the size to a process-wide
//! count on the way. The peak it records is what the simulator asks of
//! the allocator. The process's resident peak (`VmHWM`) also counts the
//! memory glibc keeps after frees, which depends on which worker thread
//! freed what, and grows with run length.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Live bytes and their peak since the last [`Meter::reset_peak`].
#[derive(Debug, Default)]
pub struct Meter {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl Meter {
    /// A meter with nothing live.
    pub const fn new() -> Self {
        Self {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    fn grow(&self, n: usize) {
        let now = self.live.fetch_add(n, Relaxed) + n;
        if now > self.peak.load(Relaxed) {
            self.peak.fetch_max(now, Relaxed);
        }
    }

    fn shrink(&self, n: usize) {
        self.live.fetch_sub(n, Relaxed);
    }

    /// Starts a new peak at the bytes live now.
    pub fn reset_peak(&self) {
        self.peak.store(self.live.load(Relaxed), Relaxed);
    }

    /// The most bytes live at once since the last reset.
    pub fn peak(&self) -> usize {
        self.peak.load(Relaxed)
    }
}

/// The process's heap meter, fed by [`Counting`].
pub static HEAP: Meter = Meter::new();

/// The system allocator, counting into [`HEAP`].
#[derive(Debug)]
pub struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the meter only reads the layout sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            HEAP.grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            HEAP.grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        HEAP.shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                HEAP.grow(new_size - layout.size());
            } else {
                HEAP.shrink(layout.size() - new_size);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_peak_follows_live_bytes_and_restarts_on_reset() {
        let m = Meter::new();
        m.grow(100);
        m.grow(50);
        m.shrink(120);
        assert_eq!(m.peak(), 150);
        m.reset_peak();
        assert_eq!(m.peak(), 30);
        m.grow(10);
        assert_eq!(m.peak(), 40);
    }

    #[test]
    fn the_global_meter_sees_allocations() {
        let before = HEAP.peak();
        let v = vec![1u8; 4 << 20];
        assert!(HEAP.peak() >= 4 << 20 && HEAP.peak() >= before);
        drop(v);
    }
}
