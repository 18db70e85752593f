//! `cargo bench -p gh-bench --bench fig05_qiskit_profile` — regenerates Figure 5: Quantum Volume memory usage over time (system vs managed).

fn main() {
    let fast = gh_bench::fast_requested();
    let csv = gh_bench::fig05_qiskit_profile::run(fast);
    gh_bench::emit_profile_charts("quantum volume", &csv);
    gh_bench::emit("Figure 5: Quantum Volume memory usage over time (system vs managed)", &csv, &["paper: GPU usage ramps slowly in system version (CPU-serviced ATS faults), jumps in managed"]);
}
