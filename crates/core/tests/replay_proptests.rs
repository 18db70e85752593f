//! Property tests for the replay engine: randomly generated valid traces
//! must execute without leaking memory, deterministically, in every
//! substituted memory mode; random garbage must be a typed error that
//! names a line of the trace, never a panic.

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

/// The directives and kernel ops with their argument slots: `n` a
/// buffer name, `k` an allocation kind, `d` a node, `s` a number, `l` a
/// kernel label, `w` the strided write flag.
const DIRECTIVES: [(&str, &str); 9] = [
    ("alloc", "nks"),
    ("cpu_write", "nss"),
    ("cpu_read", "nss"),
    ("kernel", "l"),
    ("prefetch", "ndss"),
    ("host_register", "n"),
    ("memcpy", "nsnss"),
    ("sync", ""),
    ("free", "n"),
];
const KERNEL_OPS: [(&str, &str); 5] = [
    ("read", "nss"),
    ("write", "nss"),
    ("strided", "nssssw"),
    ("compute", "s"),
    ("end", ""),
];

/// The words a slot draws from: usually one that fits it, one time in
/// eight one that does not (any label fits). Names are the ones the allocations use (`a`,
/// `b`) or one no allocation does (`zz`). Numbers run from `0` to
/// `u64::MAX`, suffixed, past capacity, overflowing or malformed.
fn slot_word(slot: char, pick: usize) -> &'static str {
    let (fits, misfits): (&[&str], &[&str]) = match slot {
        'n' => (&["a", "b"], &["zz"]),
        'k' => (&["system", "managed", "device", "pinned"], &["gpu"]),
        'd' => (&["cpu", "gpu"], &["system"]),
        'l' => (&["step", "end", "kernel"], &[]),
        'w' => (&["w"], &["r"]),
        _ => (
            &["0", "1", "4095", "4096", "64k", "1m"],
            &[
                "100000g",
                "18446744073709551615",
                "18446744073709551616",
                "17179869184g",
                "-1",
                "1.5",
                "k",
            ],
        ),
    };
    if pick % 8 == 7 && !misfits.is_empty() {
        misfits[pick / 8 % misfits.len()]
    } else {
        fits[pick % fits.len()]
    }
}

/// The hostile lines of a trace, one per `(form, shape, picks)`. `form`
/// picks a kernel op inside a kernel body and a directive outside one,
/// except one time in eight, when it takes a stray from the other list
/// (a nested `kernel`, an `end` with no kernel open). `shape` keeps the
/// line's slots (0-13), drops the last one (14) or adds a number (15).
/// `picks` choose each slot's word.
fn hostile_lines(lines: &[(usize, usize, Vec<usize>)]) -> String {
    let mut in_kernel = false;
    let mut trace = String::new();
    for (form, shape, picks) in lines {
        let forms: &[(&str, &str)] = if in_kernel == (*form >= 56) {
            &DIRECTIVES
        } else {
            &KERNEL_OPS
        };
        let (head, slots) = forms[form % forms.len()];
        in_kernel = match head {
            "kernel" => true,
            "end" => false,
            _ => in_kernel,
        };
        let mut slots: Vec<char> = slots.chars().collect();
        match shape {
            14 => {
                slots.pop();
            }
            15 => slots.push('s'),
            _ => {}
        }
        trace.push_str(head);
        for (slot, &pick) in slots.into_iter().zip(picks) {
            trace.push(' ');
            trace.push_str(slot_word(slot, pick));
        }
        trace.push('\n');
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Traces built from the directive vocabulary (unknown buffers,
    /// missing and extra arguments, stray `end`, nested `kernel`, sizes
    /// from 0 to past `u64::MAX`) replay, or fail with a `ReplayError`
    /// whose line lies inside the trace, in every mode. They never panic.
    #[test]
    fn hostile_traces_fail_typed_on_a_trace_line(
        allocs in proptest::collection::vec((0usize..4, 0usize..4), 2),
        lines in proptest::collection::vec(
            (0usize..64, 0usize..16, proptest::collection::vec(0usize..64, 7)),
            0..24,
        ),
        mode in 0usize..4,
    ) {
        // Buffers `a` and `b` exist first, so later lines get past the
        // name lookup.
        let mut trace = String::new();
        for (name, (kind, size)) in ["a", "b"].into_iter().zip(allocs) {
            let kind = ["system", "managed", "device", "pinned"][kind];
            let size = ["4k", "64k", "1m", "16m"][size];
            trace += &format!("alloc {name} {kind} {size}\n");
        }
        trace += &hostile_lines(&lines);
        // Index 3 replays the trace's own kinds.
        let mode = MemMode::ALL.get(mode).copied();
        if let Err(e) = replay(gh_sim::platform::gh200().machine(), &trace, mode) {
            prop_assert!(
                (1..=trace.lines().count()).contains(&e.line),
                "{e} is outside the trace\n{}", &trace
            );
        }
    }
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
