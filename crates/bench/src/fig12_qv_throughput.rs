//! Figure 12: memory throughput of the three memory-hierarchy tiers in
//! the 34-paper-qubit (130% oversubscribed) Quantum Volume run. The
//! L1↔L2 traffic rate indicates how fast data is fed to the SMs; the
//! prefetch optimization converts slow C2C streams into local HBM reads.

use gh_apps::MemMode;
use gh_profiler::Csv;
use gh_qsim::{run_qv, QsimParams};

use crate::util::machine;

/// Rows: (config, l1l2_gbps, hbm_read_gbps, c2c_read_gbps).
pub fn run(fast: bool) -> Csv {
    let sim_qubits = if fast { 21 } else { 24 }; // 24 = paper 34q, natural oversub
    let mut csv = Csv::new(["config", "l1l2_gbps", "hbm_read_gbps", "c2c_read_gbps"]);
    let configs: [(&str, bool, bool); 4] = [
        ("managed_4k", true, false),
        ("managed_64k", false, false),
        ("managed_4k_prefetch", true, true),
        ("managed_64k_prefetch", false, true),
    ];
    for (name, page4k, prefetch) in configs {
        let p = QsimParams {
            sim_qubits,
            compute_amplitudes: false,
            prefetch,
            ..Default::default()
        };
        let m = if fast {
            // Shrink the GPU so 21 sim-qubits (16 MiB) oversubscribes at
            // the paper's ~130%.
            let cfg = gh_sim::MachineConfig::with_page_size(if page4k {
                4 * gh_sim::KIB
            } else {
                64 * gh_sim::KIB
            });
            gh_sim::platform::gh200()
                .machine_tweaked(&cfg, &|c| {
                    c.gpu_mem_bytes = 13 << 20;
                    c.gpu_driver_baseline = 512 << 10;
                })
                .expect("shrunken GPU keeps parameters valid")
        } else {
            machine(page4k, true)
        };
        let r = run_qv(m, MemMode::Managed, &p);
        let gate_time = r.kernel_time_named("qv_gate");
        let gates = r.kernel_traffic_named("qv_gate");
        let sum = |f: fn(&gh_mem::traffic::KernelTraffic) -> u64| -> u64 {
            gates.iter().map(|t| f(t)).sum()
        };
        let gbps = |bytes: u64| format!("{:.1}", bytes as f64 / gate_time as f64);
        csv.row([
            name.to_string(),
            gbps(sum(|t| t.l1l2)),
            gbps(sum(|t| t.hbm_read)),
            gbps(sum(|t| t.c2c_read)),
        ]);
    }
    csv
}

/// Reads one throughput column for a config.
pub fn col(csv: &Csv, config: &str, idx: usize) -> f64 {
    csv.render()
        .lines()
        .find(|l| l.starts_with(&format!("{config},")))
        .and_then(|l| l.split(',').nth(idx))
        .and_then(|s| s.parse().ok())
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_raises_l1l2_throughput() {
        // Paper Fig 12: without prefetching the computation is throttled
        // by slow C2C traffic; prefetching makes most traffic local and
        // greatly improves the L1↔L2 rate.
        let csv = run(true);
        let plain = col(&csv, "managed_4k", 1);
        let pref = col(&csv, "managed_4k_prefetch", 1);
        assert!(
            pref > plain * 2.0,
            "prefetch must raise L1L2 throughput: {plain} → {pref}\n{}",
            csv.render()
        );
    }

    #[test]
    fn prefetch_shifts_traffic_from_c2c_to_hbm() {
        let csv = run(true);
        let c2c_plain = col(&csv, "managed_4k", 3);
        let hbm_plain = col(&csv, "managed_4k", 2);
        let c2c_pref = col(&csv, "managed_4k_prefetch", 3);
        let hbm_pref = col(&csv, "managed_4k_prefetch", 2);
        assert!(
            c2c_plain > hbm_plain,
            "un-prefetched run must be C2C-dominated"
        );
        assert!(hbm_pref > c2c_pref, "prefetched run must be HBM-dominated");
    }
}
