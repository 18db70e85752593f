//! Figure 13: initialization/computation breakdown of Quantum Volume
//! under oversubscription — paper-30q with a simulated-oversubscription
//! balloon (left) and paper-34q natural oversubscription (right), across
//! memory modes, page sizes, and the prefetch optimization.

use gh_apps::MemMode;
use gh_profiler::Csv;
use gh_qsim::{run_qv, statevector_bytes, QsimParams};

use crate::util::machine;

/// Rows: (case, config, init_ms, compute_ms).
pub fn run(fast: bool) -> Csv {
    let mut csv = Csv::new(["case", "config", "init_ms", "compute_ms"]);
    let (q30, q34) = if fast { (14u32, 21u32) } else { (20u32, 24u32) };
    #[expect(
        clippy::expect_used,
        reason = "the qubit counts above are fixed, representable sizes"
    )]
    let sv30 = statevector_bytes(q30).expect("paper-30q statevector");

    // Left panel: paper-30q with a balloon forcing ~130% oversubscription.
    for (config, mode, page4k, prefetch) in cases() {
        let p = QsimParams {
            sim_qubits: q30,
            compute_amplitudes: false,
            prefetch,
            ..Default::default()
        };
        let mut m = machine(page4k, true);
        m.oversubscribe(sv30, 1.3);
        let r = run_qv(m, mode, &p);
        push(&mut csv, "30q_simulated", config, &r);
    }

    // Right panel: paper-34q — the statevector naturally exceeds GPU
    // memory (128 MiB vs 96 MiB; in fast mode a shrunken GPU stands in).
    for (config, mode, page4k, prefetch) in cases() {
        let p = QsimParams {
            sim_qubits: q34,
            compute_amplitudes: false,
            prefetch,
            ..Default::default()
        };
        let m = if fast {
            let cfg = gh_sim::MachineConfig::with_page_size(if page4k {
                4 * gh_sim::KIB
            } else {
                64 * gh_sim::KIB
            });
            gh_sim::platform::gh200()
                .machine_tweaked(&cfg, &|c| {
                    c.gpu_mem_bytes = 13 << 20; // 16 MiB statevector → ~130%
                    c.gpu_driver_baseline = 512 << 10;
                })
                .expect("shrunken GPU keeps parameters valid")
        } else {
            machine(page4k, true)
        };
        let r = run_qv(m, mode, &p);
        push(&mut csv, "34q_natural", config, &r);
    }
    csv
}

fn cases() -> [(&'static str, MemMode, bool, bool); 6] {
    [
        ("managed_4k", MemMode::Managed, true, false),
        ("managed_64k", MemMode::Managed, false, false),
        ("managed_4k_prefetch", MemMode::Managed, true, true),
        ("managed_64k_prefetch", MemMode::Managed, false, true),
        ("system_4k", MemMode::System, true, false),
        ("system_64k", MemMode::System, false, false),
    ]
}

fn push(csv: &mut Csv, case: &str, config: &str, r: &gh_sim::RunReport) {
    let init = r.kernel_time_named("qv_init");
    let compute = r.kernel_time_named("qv_gate") + r.kernel_time_named("qv_norm");
    csv.row([
        case.to_string(),
        config.to_string(),
        format!("{:.3}", init as f64 / 1e6),
        format!("{:.3}", compute as f64 / 1e6),
    ]);
}

/// Total (init + compute) ms for one (case, config).
pub fn total_ms(csv: &Csv, case: &str, config: &str) -> f64 {
    csv.render()
        .lines()
        .find(|l| l.starts_with(&format!("{case},{config},")))
        .map(|l| {
            let c: Vec<&str> = l.split(',').collect();
            c[2].parse::<f64>().unwrap() + c[3].parse::<f64>().unwrap()
        })
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_improves_natural_oversubscription() {
        // Paper §7: with explicit prefetching, data is migrated back into
        // GPU memory, which results in higher performance.
        let csv = run(true);
        let plain = total_ms(&csv, "34q_natural", "managed_4k");
        let pref = total_ms(&csv, "34q_natural", "managed_4k_prefetch");
        assert!(
            pref < plain,
            "prefetch must help at 34q: {plain} vs {pref}\n{}",
            csv.render()
        );
    }

    #[test]
    fn managed_64k_helps_at_34q() {
        // Paper: switching 4 KB → 64 KB shortens init and accelerates
        // migration in the 34-qubit managed run (~58%).
        let csv = run(true);
        let t4 = total_ms(&csv, "34q_natural", "managed_4k");
        let t64 = total_ms(&csv, "34q_natural", "managed_64k");
        assert!(
            t64 <= t4 * 1.05,
            "64 KB must not be slower at 34q: {t4} vs {t64}\n{}",
            csv.render()
        );
    }

    #[test]
    fn all_twelve_bars_present() {
        let csv = run(true);
        assert_eq!(csv.len(), 12);
    }
}
