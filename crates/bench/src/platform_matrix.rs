//! Platform comparison: every application on every registered backend.
//!
//! The GH200 column is the paper's machine (two tiers, migration on);
//! the MI300A column is the unified-physical-memory contrast point — one
//! HBM3 pool shared by CPU and GPU, so data never migrates and every
//! access is local after the initial mapping fault. The ratio column
//! makes the architectural trade visible per access pattern.
//!
//! The matrix runs concurrently on the `gh-jobs` executor, one worker per
//! core: sessions are per-run, so the parallel sweep's reports are
//! bitwise-identical to a serial one.

use gh_apps::{AppId, MemMode};
use gh_jobs::{JobCache, JobSpec};
use gh_profiler::Csv;
use gh_sim::platform;

use crate::util::{export_trace, ratio, session_opts};

/// Rows: (app, mode, `<name>_ms` per platform..., mi300a_over_gh200).
pub fn run(fast: bool) -> Csv {
    let platforms = platform::all();
    let mut header: Vec<String> = vec!["app".into(), "mode".into()];
    for p in platforms {
        header.push(format!("{}_ms", p.caps().name));
    }
    header.push("mi300a_over_gh200".into());
    let mut csv = Csv::new(header);

    let so = session_opts();
    let mut specs: Vec<JobSpec> = Vec::new();
    for app in AppId::ALL {
        for mode in [MemMode::System, MemMode::Managed] {
            for p in platforms {
                specs.push(JobSpec {
                    app,
                    platform: p.caps().name.to_string(),
                    mode,
                    page_size: None,
                    small: fast,
                    session: so.clone(),
                });
            }
        }
    }
    let mut outcomes =
        gh_jobs::run_suite(&specs, gh_par::default_parallelism(), &JobCache::new()).into_iter();

    for app in AppId::ALL {
        for mode in [MemMode::System, MemMode::Managed] {
            let mut totals = Vec::with_capacity(platforms.len());
            let mut checksums = Vec::with_capacity(platforms.len());
            for p in platforms {
                let label = format!("{}-{}-{}", app.name(), mode.label(), p.caps().name);
                let r = outcomes
                    .next()
                    .expect("one outcome per spec")
                    .expect("matrix specs name registered platforms")
                    .report;
                if so.trace {
                    export_trace(&label, &r);
                }
                totals.push(r.reported_total());
                checksums.push(r.checksum);
            }
            // The platforms change the cost model, never the numerics.
            for c in &checksums[1..] {
                assert_eq!(
                    c.to_bits(),
                    checksums[0].to_bits(),
                    "{}: checksum must be platform-independent",
                    app.name()
                );
            }
            let mut row: Vec<String> = vec![app.name().to_string(), mode.label().to_string()];
            for t in &totals {
                row.push(format!("{:.3}", *t as f64 / 1e6));
            }
            row.push(ratio(totals[1], totals[0]));
            csv.row(row);
        }
    }
    csv
}

/// Looks up a column for one (app, mode) row.
pub fn col(csv: &Csv, app: &str, mode: &str, idx: usize) -> f64 {
    csv.render()
        .lines()
        .find(|l| l.starts_with(&format!("{app},{mode},")))
        .and_then(|l| l.split(',').nth(idx))
        .and_then(|s| s.parse().ok())
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_every_app_and_mode() {
        let csv = run(true);
        assert_eq!(csv.len(), AppId::ALL.len() * 2);
        let text = csv.render();
        for app in AppId::ALL {
            assert!(text.contains(app.name()), "{} missing\n{text}", app.name());
        }
    }

    #[test]
    fn every_cell_is_finite_and_positive() {
        let csv = run(true);
        for line in csv.render().lines().skip(1) {
            for cell in line.split(',').skip(2) {
                let v: f64 = cell.parse().unwrap();
                assert!(v.is_finite() && v > 0.0, "bad cell {cell} in {line}");
            }
        }
    }

    #[test]
    fn managed_hotspot_avoids_migration_cost_on_mi300a() {
        // Managed memory on GH200 migrates the CPU-initialized grids to
        // HBM through fault batches; on MI300A the pool is shared, so the
        // kernel starts without any migration transient.
        let csv = run(true);
        let gh = col(&csv, "hotspot", "managed", 2);
        let mi = col(&csv, "hotspot", "managed", 3);
        assert!(
            mi < gh,
            "unified pool must skip the migration transient: gh200 {gh} vs mi300a {mi}\n{}",
            csv.render()
        );
    }
}
