//! The perf-trajectory suite: runs every app × mode × platform under
//! `gh-perf`, writes `BENCH_<date>.json` + `.folded` at the repo root
//! (`GH_BENCH_OUT` overrides), and diffs against `BENCH_baseline.json`.
//!
//! Exit status: nonzero only when simulated checksums drift from the
//! baseline — wall-time movement is reported but advisory.

use gh_bench::perf_suite;

fn main() {
    let fast = gh_bench::fast_requested();
    let suite = perf_suite::run(fast);
    gh_bench::emit(
        "perf suite (sim-speed trajectory)",
        &suite.csv(),
        &[
            "wall_ms is host time; sim_ms is virtual time; sim_ns_per_host_ms is the headline ratio.",
            "Set GH_FAST=1 for shrunk inputs, GH_BENCH_OUT=<dir> to redirect output files.",
        ],
    );
    match suite.write() {
        Ok((json, folded)) => {
            println!("# wrote {} and {}", json.display(), folded.display());
        }
        Err(e) => {
            eprintln!("perf_suite: failed to write BENCH files: {e}");
            std::process::exit(1);
        }
    }
    let baseline = std::fs::read_to_string(perf_suite::repo_root().join("BENCH_baseline.json"));
    let Ok(baseline) = baseline else {
        println!("# no BENCH_baseline.json at repo root; comparison skipped");
        return;
    };
    let geomean = match perf_suite::geomean_wall_ratio(&baseline, &suite) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("perf_suite: baseline unreadable: {e}");
            std::process::exit(1);
        }
    };
    let geomean_line = match geomean {
        Some(g) => {
            format!("geomean wall-time ratio vs baseline: {g:.3}x (current/baseline; <1 is faster)")
        }
        None => "geomean wall-time ratio vs baseline: n/a (no overlapping rows)".to_string(),
    };
    println!("# {geomean_line}");
    match perf_suite::compare(&baseline, &suite, perf_suite::TOLERANCE) {
        Ok(cmp) => {
            for w in &cmp.warnings {
                println!("# WARN {w}");
            }
            for e in &cmp.errors {
                eprintln!("# FAIL {e}");
            }
            if cmp.is_clean() {
                println!("# baseline comparison clean (tolerance ±10%)");
            }
            write_step_summary(&geomean_line, &cmp);
            if !cmp.errors.is_empty() {
                // Checksum (bit) drift fails the build: host-side
                // profiling and access-path changes must never change
                // simulated results.
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perf_suite: baseline unreadable: {e}");
            std::process::exit(1);
        }
    }
}

/// Appends a markdown section to the CI job summary when GitHub Actions
/// exposes one (`$GITHUB_STEP_SUMMARY`); silently a no-op elsewhere.
#[expect(
    clippy::disallowed_methods,
    reason = "the CI job summary path is an env boundary read"
)]
fn write_step_summary(geomean_line: &str, cmp: &perf_suite::Comparison) {
    let Some(path) = std::env::var_os("GITHUB_STEP_SUMMARY") else {
        return;
    };
    let mut md = String::new();
    md.push_str("## Perf trajectory\n\n");
    md.push_str(&format!("**{geomean_line}**\n\n"));
    if cmp.errors.is_empty() && cmp.warnings.is_empty() {
        md.push_str("Baseline comparison clean (tolerance ±10%).\n");
    }
    for w in &cmp.warnings {
        md.push_str(&format!("- WARN: {w}\n"));
    }
    for e in &cmp.errors {
        md.push_str(&format!("- **FAIL**: {e}\n"));
    }
    if let Err(e) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, md.as_bytes()))
    {
        eprintln!("perf_suite: could not append job summary: {e}");
    }
}
