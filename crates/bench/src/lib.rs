//! `gh-bench` — experiment harnesses that regenerate every table and
//! figure of the paper's evaluation, plus ablation studies.
//!
//! Each `figNN_*` module exposes `run(fast) -> Csv`; the corresponding
//! bench target (`cargo bench -p gh-bench --bench figNN_...`) prints the
//! table together with a short interpretation. `fast = true` shrinks
//! inputs for smoke tests; published numbers use `fast = false`.
//!
//! Qubit-count conventions (see DESIGN.md §3):
//! * experiments whose footprint crosses GPU capacity use the capacity
//!   mapping `paper_qubits = sim_qubits + 10` (Figs 8, 9, 12, 13);
//! * the Fig 3 overview uses the paper's qubit counts *directly*, because
//!   those footprints (1–64 MB) are absolute-scale and fit both the real
//!   and the scaled GPU.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![deny(clippy::iter_over_hash_type)]

pub mod ablations;
pub mod bandwidth;
pub mod fig03_overview;
pub mod fig04_hotspot_profile;
pub mod fig05_qiskit_profile;
pub mod fig06_alloc_dealloc;
pub mod fig07_pagesize_compute;
pub mod fig08_qv_pagesize;
pub mod fig09_qv_breakdown;
pub mod fig10_srad_migration;
pub mod fig11_oversubscription;
pub mod fig12_qv_throughput;
pub mod fig13_qv_oversub_breakdown;
pub mod future_work;
pub mod grand_matrix;
pub mod perf_suite;
pub mod platform_matrix;
pub mod scoreboard;
pub mod tables;
pub mod util;

pub use gh_profiler::Csv;

/// Prints a figure harness result in the standard format: a title line,
/// the CSV block, and trailing notes.
pub fn emit(title: &str, csv: &Csv, notes: &[&str]) {
    println!("==== {title} ====");
    print!("{}", csv.render());
    for n in notes {
        println!("# {n}");
    }
    println!();
}

/// True when the `GH_FAST` environment variable asks for shrunk inputs.
#[expect(
    clippy::disallowed_methods,
    reason = "the bench harness is the env boundary: GH_FAST picks fast inputs"
)]
pub fn fast_requested() -> bool {
    std::env::var("GH_FAST").is_ok_and(|v| v != "0" && !v.is_empty())
}
