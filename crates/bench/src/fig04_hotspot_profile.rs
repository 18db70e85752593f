//! Figure 4: hotspot memory usage over time, system vs managed.

use gh_apps::{hotspot, MemMode};
use gh_profiler::Csv;

/// Produces the (mode, t_ms, rss_mib, gpu_used_mib) series for both
/// unified-memory versions.
pub fn run(fast: bool) -> Csv {
    let p = if fast {
        hotspot::HotspotParams {
            size: 256,
            iterations: 10,
            ..Default::default()
        }
    } else {
        hotspot::HotspotParams::default()
    };
    let mut csv = Csv::new(["mode", "t_ms", "rss_mib", "gpu_used_mib"]);
    for mode in [MemMode::System, MemMode::Managed] {
        // Fig 3/4 context: in-memory, automatic migration disabled.
        // Fine-grained sampling so short fast-mode runs still resolve.
        let cfg = gh_sim::MachineConfig {
            auto_migration: false,
            profiler_period: Some(if fast { 2_000 } else { 50_000 }),
            ..Default::default()
        };
        let m = gh_sim::platform::gh200()
            .machine_cfg(&cfg)
            .expect("default page size is always supported");
        let r = hotspot::run(m, mode, &p);
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

/// Summary statistics used by the shape assertions: (peak RSS,
/// late-compute RSS, peak GPU) per mode. "Late" is the sample at 80% of
/// the timeline — i.e. still inside the compute phase, before the
/// de-allocation teardown zeroes everything.
pub fn shape(csv: &Csv, mode: &str) -> (f64, f64, f64) {
    let rows = crate::profile_rows(csv, mode);
    let peak = |i: usize| rows.iter().map(|r| r[i]).fold(0.0f64, f64::max);
    (peak(1), rows[rows.len() * 4 / 5][1], peak(2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn managed_rss_drops_when_compute_migrates_pages() {
        // Paper Fig 4 (right): once the compute phase begins, managed
        // memory migrates the grids to the GPU — RSS falls sharply, GPU
        // usage rises.
        let csv = run(true);
        let (peak, fin, gpu) = shape(&csv, "managed");
        assert!(peak > 0.0);
        assert!(
            fin < peak / 2.0,
            "managed RSS must collapse during compute: peak {peak}, final {fin}"
        );
        assert!(gpu > peak / 2.0, "GPU usage must absorb the grids");
    }

    #[test]
    fn system_rss_stays_flat_without_migration() {
        // Paper Fig 4 (left): system memory keeps data CPU-resident; GPU
        // usage stays near the baseline the whole run.
        let csv = run(true);
        let (peak, fin, gpu) = shape(&csv, "system");
        assert!(
            fin > peak * 0.6,
            "system RSS must persist: peak {peak}, final {fin}"
        );
        // Only the cudaMalloc scratch buffer sits in GPU memory.
        let scratch_mib = 256.0 * 256.0 * 4.0 / (1 << 20) as f64;
        assert!(gpu < scratch_mib + 8.0, "gpu peak {gpu}");
    }

    #[test]
    fn both_series_present_and_timestamped() {
        let csv = run(true);
        let text = csv.render();
        assert!(text.lines().any(|l| l.starts_with("system,")));
        assert!(text.lines().any(|l| l.starts_with("managed,")));
    }
}
