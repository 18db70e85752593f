//! The host-speed reference: a fixed loop timed once per pass. `wall_s`
//! and `setup_s` are scaled by its nominal time over its time in the
//! run, so that they read the same on a host whose speed drifts.
//!
//! A shared VM's cores change speed over minutes as the host's other
//! tenants come and go. The loop is a chain of dependent xorshift
//! steps. It touches no memory, so it follows the core's speed and
//! nothing else, and no change to the simulator can move it. Memory-bound
//! work slows more than the loop when neighbours contend for caches, so
//! the scaling removes only part of the drift.

// gh-audit: allow-file(no-wall-clock) -- times the reference loop; the reading scales reported host times, never a simulation

use std::hint::black_box;
use std::time::Instant;

/// xorshift steps per sample: about 9 ms at the nominal speed.
pub const STEPS: u64 = 4_000_000;

/// Nanoseconds one step takes on the nominal host: a 2-vCPU x86-64 VM
/// with its clock undisturbed.
pub const NOMINAL_STEP_NS: f64 = 2.25;

/// Seconds the loop takes on the nominal host.
pub fn nominal_s() -> f64 {
    STEPS as f64 * NOMINAL_STEP_NS / 1e9
}

/// Runs the loop once and returns the seconds it took.
pub fn sample() -> f64 {
    let t = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_loop_takes_milliseconds() {
        let s = sample();
        // Within a factor of 20 of nominal either way: debug builds and
        // slow hosts stay inside, an optimised-away loop does not.
        assert!(s > nominal_s() / 20.0 && s < nominal_s() * 20.0, "{s}");
    }
}
