//! Cross-crate integration: the simulator must be bit-deterministic —
//! identical configurations produce identical virtual timelines, traffic
//! and results, regardless of host thread scheduling.

use grace_mem::{platform, AppId, Machine, MemMode, QsimParams};

fn gh200() -> Machine {
    platform::gh200().machine()
}

#[test]
fn app_runs_are_bit_deterministic() {
    for app in [AppId::Needle, AppId::Bfs, AppId::Srad] {
        for mode in MemMode::ALL {
            let a = app.run_small(gh200(), mode);
            let b = app.run_small(gh200(), mode);
            assert_eq!(a.checksum, b.checksum, "{}/{mode}", app.name());
            assert_eq!(a.phases, b.phases, "{}/{mode}", app.name());
            assert_eq!(a.traffic, b.traffic, "{}/{mode}", app.name());
            assert_eq!(a.samples, b.samples, "{}/{mode}", app.name());
            assert_eq!(a.kernels, b.kernels, "{}/{mode}", app.name());
        }
    }
}

#[test]
fn qv_timeline_is_deterministic_under_parallel_compute() {
    // The statevector math runs on gh-par's pool; neither the
    // virtual timeline nor the state may depend on scheduling. One thread
    // computes each amplitude, and the checksum folds its chunk partials
    // in chunk order.
    let p = QsimParams {
        sim_qubits: 12,
        seed: 4,
        compute_amplitudes: true,
        prefetch: false,
        chunk_bytes: 1 << 20,
        fuse: false,
    };
    let a = grace_mem::run_qv(gh200(), MemMode::Managed, &p);
    let b = grace_mem::run_qv(gh200(), MemMode::Managed, &p);
    assert_eq!(a.phases, b.phases);
    assert_eq!(a.traffic, b.traffic);
    assert_eq!(
        a.checksum.to_bits(),
        b.checksum.to_bits(),
        "{} vs {}",
        a.checksum,
        b.checksum
    );
}

#[test]
fn different_seeds_differ() {
    let a = grace_mem::apps::bfs::run(
        gh200(),
        MemMode::System,
        &grace_mem::apps::bfs::BfsParams {
            nodes: 5000,
            degree: 4,
            seed: 1,
        },
    );
    let b = grace_mem::apps::bfs::run(
        gh200(),
        MemMode::System,
        &grace_mem::apps::bfs::BfsParams {
            nodes: 5000,
            degree: 4,
            seed: 2,
        },
    );
    assert_ne!(a.checksum, b.checksum);
}
