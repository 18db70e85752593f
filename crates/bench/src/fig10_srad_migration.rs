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

    #[test]
    fn managed_first_iteration_is_slowest() {
        // Paper: the managed version pays on-demand migration in
        // iteration 1; later iterations run from HBM.
        let csv = run(true);
        let t = series(&csv, "managed", 2);
        let later_max = t[2..].iter().cloned().fold(0.0f64, f64::max);
        assert!(
            t[0] > later_max * 2.0,
            "managed iter 1 ({}) must dominate later iterations ({later_max})",
            t[0]
        );
    }

    #[test]
    fn system_c2c_reads_decay_as_migration_progresses() {
        // Paper: C2C reads decrease over iterations 1-4 while GPU reads
        // grow; after the working set migrated, C2C reads are ~0.
        let csv = run(true);
        let c2c = series(&csv, "system", 4);
        let gpu = series(&csv, "system", 3);
        assert!(c2c[0] > 0.0, "iteration 1 must read remotely");
        let last = *c2c.last().unwrap();
        assert!(
            last < c2c[0] * 0.2,
            "C2C reads must decay: first {} last {last}",
            c2c[0]
        );
        assert!(
            gpu.last().unwrap() > &gpu[0],
            "GPU reads must grow as pages migrate"
        );
    }

    #[test]
    fn system_late_iterations_beat_managed_late_iterations() {
        // Paper: from iteration ~5 the system version stabilizes and
        // outperforms managed.
        let csv = run(true);
        let ts = series(&csv, "system", 2);
        let tm = series(&csv, "managed", 2);
        let sys_late = ts[ts.len() - 3..].iter().sum::<f64>();
        let man_late = tm[tm.len() - 3..].iter().sum::<f64>();
        assert!(
            sys_late <= man_late * 1.05,
            "late system iterations {sys_late} vs managed {man_late}\n{}",
            csv.render()
        );
    }

    #[test]
    fn migration_spread_over_multiple_iterations() {
        // The access-counter driver is budget-bound: the working set must
        // not migrate entirely within iteration 1 (delayed migration).
        let csv = run(true);
        let c2c = series(&csv, "system", 4);
        assert!(
            c2c[1] > 0.0,
            "iteration 2 must still read remotely (delayed migration)\n{}",
            csv.render()
        );
    }
}
