//! `cargo bench -p gh-bench --bench fig04_hotspot_profile` — regenerates Figure 4: hotspot memory usage over time (system vs managed).

fn main() {
    let fast = gh_bench::fast_requested();
    let csv = gh_bench::fig04_hotspot_profile::run(fast);
    gh_bench::emit_profile_charts("hotspot", &csv);
    gh_bench::emit("Figure 4: hotspot memory usage over time (system vs managed)", &csv, &["paper: system keeps data CPU-resident; managed migrates at compute start (RSS drops, GPU rises)"]);
}
