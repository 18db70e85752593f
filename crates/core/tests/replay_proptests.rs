//! Property tests for the replay engine: randomly generated valid traces
//! must execute without leaking memory, deterministically, in every
//! substituted memory mode.

use gh_sim::{replay, MemMode};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Stmt {
    CpuWrite {
        buf: usize,
        frac: u8,
    },
    Kernel {
        reads: Vec<(usize, u8)>,
        writes: Vec<(usize, u8)>,
    },
    Prefetch {
        buf: usize,
        to_gpu: bool,
    },
    Sync,
}

fn stmt() -> impl Strategy<Value = Stmt> {
    prop_oneof![
        (0usize..4, 1u8..=100).prop_map(|(buf, frac)| Stmt::CpuWrite { buf, frac }),
        (
            proptest::collection::vec((0usize..4, 1u8..=100), 0..3),
            proptest::collection::vec((0usize..4, 1u8..=100), 0..3)
        )
            .prop_map(|(reads, writes)| Stmt::Kernel { reads, writes }),
        (0usize..4, prop::bool::ANY).prop_map(|(buf, to_gpu)| Stmt::Prefetch { buf, to_gpu }),
        Just(Stmt::Sync),
    ]
}

fn build_trace(sizes: &[u64], stmts: &[Stmt]) -> String {
    let mut t = String::new();
    for (i, s) in sizes.iter().enumerate() {
        t.push_str(&format!("alloc b{i} system {s}k\n"));
    }
    let span = |buf: usize, frac: u8| -> (u64, u64) {
        let bytes = sizes[buf] * 1024;
        (0, (bytes * frac as u64 / 100).max(1))
    };
    for s in stmts {
        match s {
            Stmt::CpuWrite { buf, frac } => {
                let (o, l) = span(*buf, *frac);
                t.push_str(&format!("cpu_write b{buf} {o} {l}\n"));
            }
            Stmt::Kernel { reads, writes } => {
                t.push_str("kernel k\n");
                for (b, f) in reads {
                    let (o, l) = span(*b, *f);
                    t.push_str(&format!("  read b{b} {o} {l}\n"));
                }
                for (b, f) in writes {
                    let (o, l) = span(*b, *f);
                    t.push_str(&format!("  write b{b} {o} {l}\n"));
                }
                t.push_str("  compute 1000\nend\n");
            }
            Stmt::Prefetch { buf, to_gpu } => {
                let (o, l) = span(*buf, 100);
                let node = if *to_gpu { "gpu" } else { "cpu" };
                t.push_str(&format!("prefetch b{buf} {node} {o} {l}\n"));
            }
            Stmt::Sync => t.push_str("sync\n"),
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any generated trace runs cleanly in all three modes and reclaims
    /// everything.
    #[test]
    fn random_traces_run_and_reclaim(
        sizes in proptest::collection::vec(4u64..2048, 4),
        stmts in proptest::collection::vec(stmt(), 0..12),
    ) {
        let trace = build_trace(&sizes, &stmts);
        for mode in MemMode::ALL {
            let r = replay(gh_sim::platform::gh200().machine(), &trace, Some(mode))
                .unwrap_or_else(|e| panic!("{mode}: {e}\n{trace}"));
            let last = r.samples.last().unwrap();
            prop_assert_eq!(last.rss, 0, "{} leaked CPU pages\n{}", mode, &trace);
            prop_assert_eq!(
                last.gpu_used,
                gh_sim::platform::gh200().gpu_driver_baseline(),
                "{} leaked GPU bytes\n{}", mode, &trace
            );
        }
    }

    /// Replay is deterministic: identical traces give identical reports.
    #[test]
    fn replay_is_deterministic(
        sizes in proptest::collection::vec(4u64..512, 4),
        stmts in proptest::collection::vec(stmt(), 0..8),
    ) {
        let trace = build_trace(&sizes, &stmts);
        let a = replay(gh_sim::platform::gh200().machine(), &trace, Some(MemMode::Managed)).unwrap();
        let b = replay(gh_sim::platform::gh200().machine(), &trace, Some(MemMode::Managed)).unwrap();
        prop_assert_eq!(a.phases, b.phases);
        prop_assert_eq!(a.traffic, b.traffic);
        prop_assert_eq!(a.kernels, b.kernels);
    }

    /// The L1↔L2 bytes a kernel sees never depend on the memory mode —
    /// only *where* the bytes come from changes.
    #[test]
    fn l1l2_is_mode_invariant(
        sizes in proptest::collection::vec(64u64..1024, 2),
        frac in 1u8..=100,
    ) {
        let trace = build_trace(
            &sizes,
            &[
                Stmt::CpuWrite { buf: 0, frac: 100 },
                Stmt::Kernel { reads: vec![(0, frac)], writes: vec![(1, frac)] },
            ],
        );
        let mut l1l2 = Vec::new();
        for mode in MemMode::ALL {
            let r = replay(gh_sim::platform::gh200().machine(), &trace, Some(mode)).unwrap();
            // Exclude the explicit pair's memcpy (not kernel traffic);
            // l1l2 only counts kernel-side bytes, so it is comparable.
            l1l2.push(r.traffic.l1l2);
        }
        prop_assert_eq!(l1l2[0], l1l2[1]);
        prop_assert_eq!(l1l2[1], l1l2[2]);
    }
}
