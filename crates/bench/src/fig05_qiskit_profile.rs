//! Figure 5: Qiskit Quantum Volume memory usage over time,
//! system vs managed (GPU-side initialization).

use gh_apps::MemMode;
use gh_profiler::Csv;
use gh_qsim::{run_qv, QsimParams};

/// Produces the (mode, t_ms, rss_mib, gpu_used_mib) series. Default is
/// the paper's 30-qubit run (20 simulated qubits, 8 MiB statevector).
pub fn run(fast: bool) -> Csv {
    let p = QsimParams {
        sim_qubits: if fast { 18 } else { 20 },
        compute_amplitudes: false,
        ..Default::default()
    };
    let mut csv = Csv::new(["mode", "t_ms", "rss_mib", "gpu_used_mib"]);
    for mode in [MemMode::System, MemMode::Managed] {
        // Fine-grained sampling (the scaled analogue of the paper's
        // 100 ms wall-clock period) so the init ramp resolves.
        let cfg = gh_sim::MachineConfig {
            auto_migration: false,
            profiler_period: Some(if fast { 2_000 } else { 20_000 }),
            ..Default::default()
        };
        let m = gh_sim::platform::gh200()
            .machine_cfg(&cfg)
            .expect("default page size is always supported");
        let r = run_qv(m, mode, &p);
        for s in &r.samples {
            csv.row([
                mode.label().to_string(),
                format!("{:.3}", s.t as f64 / 1e6),
                format!("{:.2}", s.rss as f64 / (1 << 20) as f64),
                format!("{:.2}", s.gpu_used as f64 / (1 << 20) as f64),
            ]);
        }
    }
    csv
}

/// Ramp duration (ms): from the first sample where GPU usage moved above
/// the driver baseline to the first sample at `frac` of the peak. This
/// isolates the initialization ramp from the 250 ms context-init offset
/// shared by both versions.
pub fn ramp_time(csv: &Csv, mode: &str, frac: f64) -> f64 {
    let rows = crate::profile_rows(csv, mode);
    let base = rows.first().map_or(0.0, |r| r[2]);
    let peak = rows.iter().map(|r| r[2]).fold(0.0f64, f64::max);
    let start = rows.iter().find(|r| r[2] > base + (peak - base) * 0.02);
    let hit = rows.iter().find(|r| r[2] >= base + (peak - base) * frac);
    (hit.map_or(f64::INFINITY, |r| r[0]) - start.map_or(0.0, |r| r[0])).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_gpu_usage_ramps_slower_than_managed() {
        // Paper Fig 5: GPU memory ramps slowly in the system version
        // (ATS fault per page, serviced by the CPU) but jumps to peak
        // almost immediately in the managed version (block population).
        let csv = run(true);
        let sys = ramp_time(&csv, "system", 0.9);
        let man = ramp_time(&csv, "managed", 0.9);
        assert!(
            sys > man * 2.0,
            "system ramp {sys} ms must be much slower than managed {man} ms"
        );
    }

    #[test]
    fn rss_stays_low_for_gpu_initialized_workload() {
        // No CPU-side init: RSS should stay near zero in both versions.
        let csv = run(true);
        for line in csv.render().lines().skip(1) {
            let c: Vec<&str> = line.split(',').collect();
            let rss: f64 = c[2].parse().unwrap();
            assert!(rss < 2.0, "RSS should stay near zero, got {rss} MiB");
        }
    }
}
