//! Figure 11: relative speedup of system memory over managed memory at
//! increasing GPU-memory oversubscription (simulated via a cudaMalloc
//! balloon, §3.2). 4 KB system pages, as in the paper.

use gh_apps::{AppId, MemMode};
use gh_profiler::Csv;
use gh_qsim::{run_qv, QsimParams};

use crate::util::{machine, peak_gpu_usage};

/// Oversubscription ratios swept.
pub const RATIOS: [f64; 4] = [1.0, 1.25, 1.5, 2.0];

/// Rows: (app, ratio, system_ms, managed_ms, speedup).
///
/// Even the fast path keeps full-size inputs: the balloon's 2 MiB
/// `cudaMalloc` granularity only produces meaningful pressure when the
/// working set is tens of MiB. `fast` just trims the ratio sweep.
pub fn run(fast: bool) -> Csv {
    let mut csv = Csv::new(["app", "ratio", "system_ms", "managed_ms", "speedup"]);
    let ratios: &[f64] = if fast { &[1.0, 1.5] } else { &RATIOS };

    for app in AppId::ALL {
        let peak = peak_gpu_usage(app, false);
        for &ratio in ratios {
            let mut times = [0u64; 2];
            for (i, mode) in [MemMode::System, MemMode::Managed].into_iter().enumerate() {
                let mut m = machine(true, true);
                m.oversubscribe(peak, ratio);
                let r = app.run(m, mode);
                times[i] = r.reported_total();
            }
            csv.row([
                app.name().to_string(),
                format!("{ratio}"),
                format!("{:.3}", times[0] as f64 / 1e6),
                format!("{:.3}", times[1] as f64 / 1e6),
                format!("{:.3}", times[1] as f64 / times[0] as f64),
            ]);
        }
    }

    // Qiskit: simulated oversubscription on the paper-30q (sim-20q) run.
    let qp = QsimParams {
        sim_qubits: 20,
        compute_amplitudes: false,
        ..Default::default()
    };
    #[expect(
        clippy::expect_used,
        reason = "20 qubits is a fixed, representable size"
    )]
    let sv = gh_qsim::statevector_bytes(qp.sim_qubits).expect("20-qubit statevector");
    for &ratio in ratios {
        let mut times = [0u64; 2];
        for (i, mode) in [MemMode::System, MemMode::Managed].into_iter().enumerate() {
            let mut m = machine(true, true);
            m.oversubscribe(sv, ratio);
            times[i] = run_qv(m, mode, &qp).reported_total();
        }
        csv.row([
            "qiskit-qv".to_string(),
            format!("{ratio}"),
            format!("{:.3}", times[0] as f64 / 1e6),
            format!("{:.3}", times[1] as f64 / 1e6),
            format!("{:.3}", times[1] as f64 / times[0] as f64),
        ]);
    }
    csv
}

/// Speedup (managed_time / system_time) for one (app, ratio).
pub fn speedup(csv: &Csv, app: &str, ratio: f64) -> f64 {
    csv.render()
        .lines()
        .find(|l| l.starts_with(&format!("{app},{ratio},")))
        .and_then(|l| l.split(',').nth(4))
        .and_then(|s| s.parse().ok())
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::Claims;

    #[test]
    fn every_claim_holds_on_one_sweep() {
        let csv = run(true);
        let mut claims = Claims::default();

        // Paper Fig 11: the system version becomes increasingly faster
        // relative to managed as oversubscription grows (eviction +
        // re-migration churn hits managed; system reads remotely).
        let grew = AppId::ALL
            .iter()
            .filter(|app| speedup(&csv, app.name(), 1.5) > speedup(&csv, app.name(), 1.0))
            .count();
        claims.check(
            "speedup_grows_with_oversubscription",
            grew >= 3,
            format!("most apps must favour system memory more under oversubscription ({grew} do)"),
        );

        let rows = (AppId::ALL.len() + 1) * 2;
        claims.check(
            "all_apps_and_ratios_present",
            csv.len() == rows,
            format!("{} rows, expected {rows}", csv.len()),
        );
        claims.assert_all(&csv);
    }
}
