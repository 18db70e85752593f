//! The paper's future work, executed: "a deep understanding of the
//! access counter-based migration on diverse workloads" (§9).
//!
//! Five access patterns × {migration on/off} × {4 KiB, 64 KiB} pages,
//! reporting what migrated, how remote traffic evolved, and what it cost.

use gh_apps::micro::{self, MicroParams};
use gh_apps::{kmeans, lud, srad, MemMode};
use gh_profiler::Csv;
use gh_sim::{Machine, RunReport};

use crate::util::machine;

fn run_workload(name: &str, m: Machine, fast: bool) -> RunReport {
    let mp = if fast {
        MicroParams {
            bytes: 16 << 20,
            iterations: 6,
            touches: 20_000,
            seed: 9,
        }
    } else {
        MicroParams {
            bytes: 48 << 20,
            iterations: 12,
            touches: 120_000,
            seed: 9,
        }
    };
    match name {
        "stream" => micro::stream(m, MemMode::System, &mp),
        "gups_sparse" => micro::gups(
            m,
            MemMode::System,
            &MicroParams {
                // Keep the per-region expected count (reads + writes)
                // well below the 256 threshold: this is the
                // *never-gets-hot* reference point of the sweep.
                touches: mp.touches / 80,
                ..mp
            },
        ),
        "pointer_chase" => micro::pointer_chase(m, MemMode::System, &mp),
        "kmeans" => kmeans::run(
            m,
            MemMode::System,
            &kmeans::KmeansParams {
                points: if fast { 100_000 } else { 400_000 },
                dims: 16,
                k: 8,
                iterations: if fast { 6 } else { 10 },
                seed: 9,
            },
        ),
        "lud" => lud::run(
            m,
            MemMode::System,
            &lud::LudParams {
                n: if fast { 512 } else { 2048 },
                seed: 9,
            },
        ),
        "srad" => srad::run(
            m,
            MemMode::System,
            &srad::SradParams {
                size: if fast { 512 } else { 1800 },
                iterations: 12,
                ..Default::default()
            },
        ),
        other => panic!("unknown workload {other}"),
    }
}

/// All five workloads: one row per (workload, page, migration) with
/// compute time, migrated bytes and first/last-kernel remote traffic.
pub const WORKLOADS: [&str; 6] = [
    "stream",
    "gups_sparse",
    "pointer_chase",
    "kmeans",
    "lud",
    "srad",
];

/// Runs the sweep.
pub fn run(fast: bool) -> Csv {
    let mut csv = Csv::new([
        "workload",
        "page",
        "migration",
        "compute_ms",
        "migrated_mib",
        "first_c2c_mib",
        "last_c2c_mib",
    ]);
    for name in WORKLOADS {
        for (page_4k, plabel) in [(true, "4k"), (false, "64k")] {
            for migration in [false, true] {
                let r = run_workload(name, machine(page_4k, migration), fast);
                let kernels: Vec<u64> = r
                    .kernels
                    .iter()
                    .filter(|k| !k.name.starts_with("hotspot"))
                    .map(|k| k.traffic.c2c_read)
                    .collect();
                csv.row([
                    name.to_string(),
                    plabel.to_string(),
                    if migration { "on" } else { "off" }.to_string(),
                    format!("{:.3}", r.phases.compute as f64 / 1e6),
                    format!(
                        "{:.2}",
                        r.traffic.bytes_migrated_in as f64 / (1 << 20) as f64
                    ),
                    format!(
                        "{:.2}",
                        kernels.first().copied().unwrap_or(0) as f64 / (1 << 20) as f64
                    ),
                    format!(
                        "{:.2}",
                        kernels.last().copied().unwrap_or(0) as f64 / (1 << 20) as f64
                    ),
                ]);
            }
        }
    }
    csv
}

/// Looks up a cell for (workload, page, migration).
pub fn cell(csv: &Csv, workload: &str, page: &str, migration: &str, col: usize) -> f64 {
    csv.render()
        .lines()
        .find(|l| l.starts_with(&format!("{workload},{page},{migration},")))
        .and_then(|l| l.split(',').nth(col))
        .and_then(|s| s.parse().ok())
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn migration_selectivity_matches_pattern_class() {
        let csv = run(true);
        // Dense/sequential and skewed patterns migrate; sparse uniform
        // does not.
        assert!(cell(&csv, "stream", "64k", "on", 4) > 0.0);
        assert!(cell(&csv, "pointer_chase", "64k", "on", 4) > 0.0);
        assert_eq!(
            cell(&csv, "gups_sparse", "64k", "on", 4),
            0.0,
            "\n{}",
            csv.render()
        );
    }

    #[test]
    fn iterative_workloads_drain_remote_traffic() {
        let csv = run(true);
        for w in ["kmeans", "srad"] {
            let first = cell(&csv, w, "64k", "on", 5);
            let last = cell(&csv, w, "64k", "on", 6);
            assert!(
                last < first,
                "{w}: remote traffic must decay with migration on\n{}",
                csv.render()
            );
        }
    }

    #[test]
    fn sweep_covers_all_cells() {
        let csv = run(true);
        assert_eq!(csv.len(), WORKLOADS.len() * 4);
    }
}
