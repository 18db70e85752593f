//! Figure 7: computation time of the system-memory version, 4 KB vs
//! 64 KB system pages, automatic migration enabled.

use gh_apps::{AppId, MemMode};
use gh_profiler::Csv;

use crate::util::{ms, run_app};

/// Rows: (app, page, compute_ms, migrated_mib).
pub fn run(fast: bool) -> Csv {
    let mut csv = Csv::new(["app", "page", "compute_ms", "migrated_mib"]);
    for app in AppId::ALL {
        for (page, label) in [(true, "4k"), (false, "64k")] {
            let r = run_app(app, MemMode::System, page, true, fast);
            csv.row([
                app.name().to_string(),
                label.to_string(),
                ms(r.phases.compute),
                format!(
                    "{:.2}",
                    r.traffic.bytes_migrated_in as f64 / (1 << 20) as f64
                ),
            ]);
        }
    }
    csv
}

/// Compute-time ratio 64k/4k for one app (> 1 means 4 KB pages are
/// faster, the paper's Fig 7 finding for all apps except SRAD).
pub fn compute_ratio(csv: &Csv, app: &str) -> f64 {
    let get = |page: &str, col: usize| -> f64 {
        csv.render()
            .lines()
            .find(|l| l.starts_with(&format!("{app},{page},")))
            .and_then(|l| l.split(',').nth(col))
            .and_then(|s| s.parse().ok())
            .unwrap()
    };
    get("64k", 2) / get("4k", 2)
}

/// Migration amplification: migrated bytes at 64k / migrated at 4k.
pub fn amplification(csv: &Csv, app: &str) -> f64 {
    let get = |page: &str| -> f64 {
        csv.render()
            .lines()
            .find(|l| l.starts_with(&format!("{app},{page},")))
            .and_then(|l| l.split(',').nth(3))
            .and_then(|s| s.parse().ok())
            .unwrap()
    };
    let four = get("4k");
    if four == 0.0 {
        1.0
    } else {
        get("64k") / four
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_shapes_hold_at_full_scale() {
        // Paper Fig 7 (full inputs required): 4 KB pages give lower
        // compute time than 64 KB for the Rodinia apps (1.1×–2.1×) —
        // except SRAD, whose iterative reuse profits from the faster
        // 64 KB migration. BFS's sparse gathers also show migration
        // amplification (more bytes migrated with large pages).
        let csv = run(false);
        for app in ["needle", "pathfinder", "bfs"] {
            let r = compute_ratio(&csv, app);
            assert!(
                (1.05..=3.0).contains(&r),
                "{app}: 64k/4k compute ratio {r} outside the paper band\n{}",
                csv.render()
            );
        }
        let hotspot = compute_ratio(&csv, "hotspot");
        assert!(
            (0.7..=2.1).contains(&hotspot),
            "hotspot must stay inside the paper band, got {hotspot}"
        );
        let srad = compute_ratio(&csv, "srad");
        assert!(
            srad < 1.0,
            "srad must profit from 64 KB pages, got ratio {srad}"
        );
        let amp = amplification(&csv, "bfs");
        assert!(
            amp > 1.5,
            "bfs 64k migration amplification {amp}\n{}",
            csv.render()
        );
    }

    #[test]
    fn compute_rows_exist_for_all_apps() {
        let csv = run(true);
        assert_eq!(csv.len(), AppId::ALL.len() * 2);
    }
}
