//! Synthetic micro-workloads for the paper's future-work study:
//! characterizing access-counter migration across *diverse* access
//! patterns. Three canonical patterns complement the application suite:
//!
//! * [`stream`] — pure sequential bandwidth (STREAM triad shape);
//! * [`gups`] — Giga-Updates-Per-Second-style random read-modify-write
//!   (worst case for any migration heuristic: no page ever gets hot);
//! * [`pointer_chase`] — dependent irregular reads with a *skewed* hot
//!   set (a Zipf-ish subset of pages absorbs most touches — the best
//!   case for threshold-based migration).

use gh_profiler::Phase;
use gh_sim::{Machine, MemMode, RunReport};

use crate::common::UBuf;

/// Common parameters for the micro-workloads.
#[derive(Debug, Clone)]
pub struct MicroParams {
    /// Working-set bytes.
    pub bytes: u64,
    /// Kernel iterations.
    pub iterations: usize,
    /// Number of irregular touches per iteration (gups / pointer_chase).
    pub touches: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MicroParams {
    fn default() -> Self {
        Self {
            bytes: 32 << 20,
            iterations: 10,
            touches: 100_000,
            seed: 77,
        }
    }
}

fn rng_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// STREAM-triad-shaped sequential sweep: `a = b + s·c` per iteration.
pub fn stream(mut m: Machine, mode: MemMode, p: &MicroParams) -> RunReport {
    let third = p.bytes / 3;
    m.phase(Phase::CtxInit);
    m.rt.cuda_init();
    m.phase(Phase::Alloc);
    let a = UBuf::alloc(&mut m, mode, third, "stream.a");
    let b = UBuf::alloc(&mut m, mode, third, "stream.b");
    let c = UBuf::alloc(&mut m, mode, third, "stream.c");
    m.phase(Phase::CpuInit);
    b.cpu_init(&mut m, 0, third);
    c.cpu_init(&mut m, 0, third);
    m.phase(Phase::Compute);
    b.upload(&mut m);
    c.upload(&mut m);
    for _ in 0..p.iterations {
        let mut k = m.rt.launch("triad");
        k.read(b.gpu(), 0, third);
        k.read(c.gpu(), 0, third);
        k.write(a.gpu(), 0, third);
        k.compute(third / 4);
        k.finish();
    }
    m.set_checksum(third as f64);
    m.phase(Phase::Dealloc);
    a.free(&mut m);
    b.free(&mut m);
    c.free(&mut m);
    m.finish()
}

/// GUPS-style uniform random 8-byte read-modify-writes: every page is
/// touched equally rarely, so counters never cross the threshold.
pub fn gups(mut m: Machine, mode: MemMode, p: &MicroParams) -> RunReport {
    m.phase(Phase::CtxInit);
    m.rt.cuda_init();
    m.phase(Phase::Alloc);
    let table = UBuf::alloc(&mut m, mode, p.bytes, "gups.table");
    m.phase(Phase::CpuInit);
    table.cpu_init(&mut m, 0, p.bytes);
    m.phase(Phase::Compute);
    table.upload(&mut m);
    let mut st = p.seed | 1;
    for _ in 0..p.iterations {
        let mut k = m.rt.launch("gups");
        let offsets: Vec<u64> = (0..p.touches)
            .map(|_| (rng_next(&mut st) % (p.bytes - 8)) & !7)
            .collect();
        k.gather_read(
            table.gpu(),
            offsets.iter().copied(),
            gh_units::Bytes::new(8),
        );
        k.scatter_write(table.gpu(), offsets, gh_units::Bytes::new(8));
        k.compute(p.touches as u64 * 4);
        k.finish();
    }
    m.set_checksum(p.touches as f64);
    m.phase(Phase::Dealloc);
    table.free(&mut m);
    m.finish()
}

/// Skewed dependent reads: 90% of touches land in a hot 5% of the table
/// — the ideal shape for threshold-based (delayed) migration.
pub fn pointer_chase(mut m: Machine, mode: MemMode, p: &MicroParams) -> RunReport {
    m.phase(Phase::CtxInit);
    m.rt.cuda_init();
    m.phase(Phase::Alloc);
    let table = UBuf::alloc(&mut m, mode, p.bytes, "chase.table");
    m.phase(Phase::CpuInit);
    table.cpu_init(&mut m, 0, p.bytes);
    m.phase(Phase::Compute);
    table.upload(&mut m);
    let hot = (p.bytes / 20).max(4096);
    let mut st = p.seed | 1;
    for _ in 0..p.iterations {
        let mut k = m.rt.launch("chase");
        let offsets: Vec<u64> = (0..p.touches)
            .map(|_| {
                let r = rng_next(&mut st);
                let span = if r % 10 < 9 { hot } else { p.bytes };
                ((r >> 8) % (span - 8)) & !7
            })
            .collect();
        k.gather_read(table.gpu(), offsets, gh_units::Bytes::new(8));
        k.compute(p.touches as u64 * 2);
        k.finish();
    }
    m.set_checksum(hot as f64);
    m.phase(Phase::Dealloc);
    table.free(&mut m);
    m.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MicroParams {
        // 16 counter regions; touch counts sized so uniform access stays
        // below the 256-access threshold per region across the whole run
        // (the model's counters do not age, unlike the real driver's).
        MicroParams {
            bytes: 32 << 20,
            iterations: 6,
            touches: 1_500,
            seed: 5,
        }
    }

    #[test]
    fn stream_migrates_fully_under_counters() {
        // Few enough regions that the 1-notification-per-kernel budget
        // finishes migrating before the run ends.
        let p = MicroParams {
            bytes: 12 << 20,
            iterations: 10,
            touches: 0,
            seed: 5,
        };
        let r = stream(gh_sim::platform::gh200().machine(), MemMode::System, &p);
        assert!(r.traffic.bytes_migrated_in > 0);
        // Last iteration reads locally.
        let last = r.kernels.last().unwrap();
        assert_eq!(last.traffic.c2c_read, 0, "{:?}", last);
    }

    #[test]
    fn gups_never_triggers_migration() {
        // Uniform random touches spread over every region: no region
        // collects `threshold` accesses within the run.
        let p = small();
        let r = gups(gh_sim::platform::gh200().machine(), MemMode::System, &p);
        assert_eq!(
            r.traffic.bytes_migrated_in, 0,
            "uniform access must stay cold"
        );
        assert!(r.traffic.c2c_read > 0);
    }

    #[test]
    fn pointer_chase_migrates_only_the_hot_set() {
        let p = small();
        let r = pointer_chase(gh_sim::platform::gh200().machine(), MemMode::System, &p);
        let migrated = r.traffic.bytes_migrated_in;
        assert!(migrated > 0, "hot set must cross the threshold");
        assert!(
            migrated < p.bytes / 2,
            "cold majority must stay CPU-resident: migrated {migrated}"
        );
    }

    #[test]
    fn skewed_remote_traffic_decays_as_hot_set_migrates() {
        // Future-work characterization: under a skewed pattern the hot
        // set migrates and the per-kernel remote line traffic drops,
        // while the uniform pattern's traffic stays flat.
        let p = MicroParams {
            bytes: 64 << 20,
            iterations: 12,
            touches: 50_000,
            seed: 5,
        };
        let chase = pointer_chase(gh_sim::platform::gh200().machine(), MemMode::System, &p);
        let per_kernel: Vec<u64> = chase
            .kernel_traffic_named("chase")
            .iter()
            .map(|t| t.c2c_read)
            .collect();
        assert!(
            *per_kernel.last().unwrap() < per_kernel[0] / 2,
            "hot-set migration must cut remote traffic: {per_kernel:?}"
        );

        // Sparse uniform traffic (below the per-window threshold) stays
        // flat — no region ever gets hot.
        let g = gups(
            gh_sim::platform::gh200().machine(),
            MemMode::System,
            &small(),
        );
        let gk: Vec<u64> = g
            .kernel_traffic_named("gups")
            .iter()
            .map(|t| t.c2c_read)
            .collect();
        let first = gk[0] as f64;
        assert!(
            (*gk.last().unwrap() as f64) > first * 0.8,
            "uniform sparse traffic must stay flat: {gk:?}"
        );
    }

    #[test]
    fn all_micro_workloads_run_in_all_modes() {
        let p = MicroParams {
            bytes: 3 << 20,
            iterations: 2,
            touches: 2_000,
            seed: 1,
        };
        for mode in MemMode::ALL {
            stream(gh_sim::platform::gh200().machine(), mode, &p);
            gups(gh_sim::platform::gh200().machine(), mode, &p);
            pointer_chase(gh_sim::platform::gh200().machine(), mode, &p);
        }
    }
}
