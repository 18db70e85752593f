//! Figure 10: SRAD per-iteration execution time (top) and memory read
//! traffic (bottom) through the computation phase — access-counter
//! migration (system) vs on-demand migration (managed). 64 KB pages.

use gh_apps::{srad, MemMode};
use gh_profiler::Csv;

use crate::util::machine;

/// Rows: (mode, iteration, time_ms, gpu_read_mib, c2c_read_mib).
pub fn run(fast: bool) -> Csv {
    // SRAD's delayed-migration pace depends on the image spanning several
    // 2 MiB counter regions, so even the fast path keeps the real input
    // (the run costs well under a second).
    let _ = fast;
    let p = srad::SradParams::default();
    let mut csv = Csv::new([
        "mode",
        "iteration",
        "time_ms",
        "gpu_read_mib",
        "c2c_read_mib",
    ]);
    for mode in [MemMode::System, MemMode::Managed] {
        // §6 experiments: automatic migration enabled, 64 KB pages.
        let r = srad::run(machine(false, true), mode, &p);
        // Each iteration = one srad1 + one srad2 kernel, in order.
        let srads: Vec<_> = r
            .kernels
            .iter()
            .filter(|k| k.name.starts_with("srad"))
            .collect();
        assert_eq!(srads.len(), p.iterations * 2);
        for it in 0..p.iterations {
            let (k1, k2) = (srads[2 * it], srads[2 * it + 1]);
            let t = k1.time + k2.time;
            let (tr1, tr2) = (k1.traffic, k2.traffic);
            let gpu_read = tr1.hbm_read + tr2.hbm_read;
            let c2c_read = tr1.c2c_read + tr2.c2c_read;
            csv.row([
                mode.label().to_string(),
                (it + 1).to_string(),
                format!("{:.3}", t as f64 / 1e6),
                format!("{:.2}", gpu_read as f64 / (1 << 20) as f64),
                format!("{:.2}", c2c_read as f64 / (1 << 20) as f64),
            ]);
        }
    }
    csv
}

/// Per-iteration series of one column for a mode.
pub fn series(csv: &Csv, mode: &str, col: usize) -> Vec<f64> {
    csv.render()
        .lines()
        .skip(1)
        .filter(|l| l.starts_with(&format!("{mode},")))
        .map(|l| l.split(',').nth(col).unwrap().parse().unwrap())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::Claims;

    #[test]
    fn every_claim_holds_on_one_sweep() {
        let csv = run(true);
        let mut claims = Claims::default();
        let managed = series(&csv, "managed", 2);
        let system = series(&csv, "system", 2);
        let c2c = series(&csv, "system", 4);
        let gpu = series(&csv, "system", 3);
        let first = |v: &[f64]| v.first().copied().unwrap_or(f64::NAN);
        let last = |v: &[f64]| v.last().copied().unwrap_or(f64::NAN);

        // Paper: the managed version pays on-demand migration in
        // iteration 1; later iterations run from HBM.
        let later_max = managed.iter().skip(2).copied().fold(0.0f64, f64::max);
        claims.check(
            "managed_first_iteration_is_slowest",
            first(&managed) > later_max * 2.0,
            format!(
                "managed iter 1 ({}) must dominate later iterations ({later_max})",
                first(&managed)
            ),
        );

        // Paper: C2C reads decrease over iterations 1-4 while GPU reads
        // grow; after the working set migrated, C2C reads are ~0.
        claims.check(
            "system_c2c_reads_decay_as_migration_progresses",
            first(&c2c) > 0.0,
            "iteration 1 must read remotely".to_string(),
        );
        claims.check(
            "system_c2c_reads_decay_as_migration_progresses",
            last(&c2c) < first(&c2c) * 0.2,
            format!(
                "C2C reads must decay: first {} last {}",
                first(&c2c),
                last(&c2c)
            ),
        );
        claims.check(
            "system_c2c_reads_decay_as_migration_progresses",
            last(&gpu) > first(&gpu),
            "GPU reads must grow as pages migrate".to_string(),
        );

        // Paper: from iteration ~5 the system version stabilizes and
        // outperforms managed.
        let late = |v: &[f64]| v.iter().rev().take(3).sum::<f64>();
        let (sys_late, man_late) = (late(&system), late(&managed));
        claims.check(
            "system_late_iterations_beat_managed_late_iterations",
            sys_late <= man_late * 1.05,
            format!("late system iterations {sys_late} vs managed {man_late}"),
        );

        // The access-counter driver is budget-bound: the working set must
        // not migrate entirely within iteration 1 (delayed migration).
        claims.check(
            "migration_spread_over_multiple_iterations",
            c2c.get(1).is_some_and(|&r| r > 0.0),
            "iteration 2 must still read remotely (delayed migration)".to_string(),
        );
        claims.assert_all(&csv);
    }
}
