//! Contracts of the parallel runtime and of the statevector kernels that
//! run on it: the gate kernels match a scalar per-group oracle bit for
//! bit, Quantum Volume checksums match recorded goldens, loop bodies run
//! only on the caller or on pool workers, nested and executor-shaped loops
//! complete, and a panicking loop body leaves the pool usable.

use std::panic::catch_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

use gh_par::{par_chunks_mut, par_for, par_map_reduce, Grain};
use gh_qsim::{Gate1, Gate2, StateVector, C32};
use grace_mem::{platform, MemMode, QsimParams};

mod support;
use support::finishes;

/// A state with every amplitude populated: a random gate on each adjacent
/// qubit pair.
fn scrambled(n: u32) -> StateVector {
    let mut s = StateVector::zero_state(n);
    for q in 0..n - 1 {
        s.apply_gate2(&Gate2::random_su4(100 + u64::from(q)), q, q + 1);
    }
    s
}

fn bits(amps: &[C32]) -> Vec<(u32, u32)> {
    amps.iter()
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

/// `g` on `(q0, q1)`, one 4-amplitude group at a time through
/// [`Gate2::apply`].
fn oracle_gate2(amps: &[C32], g: &Gate2, q0: u32, q1: u32) -> Vec<C32> {
    let (b0, b1) = (1usize << q0, 1usize << q1);
    let mut out = amps.to_vec();
    for i in (0..amps.len()).filter(|i| i & (b0 | b1) == 0) {
        let idx = [i, i | b0, i | b1, i | b0 | b1];
        for (k, v) in idx.into_iter().zip(g.apply(idx.map(|k| amps[k]))) {
            out[k] = v;
        }
    }
    out
}

/// `g` on `q`, one amplitude pair at a time.
fn oracle_gate1(amps: &[C32], g: &Gate1, q: u32) -> Vec<C32> {
    let bit = 1usize << q;
    let m = g.m;
    let mut out = amps.to_vec();
    for i in (0..amps.len()).filter(|i| i & bit == 0) {
        let (a, b) = (amps[i], amps[i | bit]);
        out[i] = m[0][0] * a + m[0][1] * b;
        out[i | bit] = m[1][0] * a + m[1][1] * b;
    }
    out
}

#[test]
fn apply_gate2_matches_the_scalar_oracle_bit_for_bit() {
    // Every ordered pair on 2..=9 and 13 qubits: lower qubits 0 and 1
    // read two streams from one window, higher ones each stream on its
    // own; upper qubits 1 and 2 walk whole blocks in one window, and the
    // upper qubit reaches the top qubit. At 13 qubits an upper qubit of
    // 12 splits each half of its block between claims.
    for n in (2..=9u32).chain([13]) {
        let start = scrambled(n);
        for q0 in 0..n {
            for q1 in (0..n).filter(|&q| q != q0) {
                let g = Gate2::random_su4(u64::from(n * 100 + q0 * 10 + q1));
                let want = oracle_gate2(start.amps(), &g, q0, q1);
                let mut s = start.clone();
                s.apply_gate2(&g, q0, q1);
                assert_eq!(bits(s.amps()), bits(&want), "n={n} q=({q0},{q1})");
            }
        }
    }
}

#[test]
fn apply_gate1_matches_the_scalar_oracle_bit_for_bit() {
    for n in 2..=9u32 {
        let start = scrambled(n);
        for q in 0..n {
            // Not unitary, but every entry is a general complex number.
            let r = Gate2::random_su4(u64::from(n * 10 + q)).m;
            let g = Gate1 {
                m: [[r[0][0], r[0][1]], [r[1][0], r[1][1]]],
            };
            let want = oracle_gate1(start.amps(), &g, q);
            let mut s = start.clone();
            s.apply_gate1(&g, q);
            assert_eq!(bits(s.amps()), bits(&want), "n={n} q={q}");
        }
    }
}

#[test]
fn qv_checksums_match_recorded_goldens() {
    // The seed-2024 circuits; fused and unfused reach the same state here.
    for (qubits, golden) in [(10, 0x402c_550b_09f2_0000u64), (14, 0xc049_ac2f_81fe_6800)] {
        for mode in [MemMode::System, MemMode::Managed] {
            for fuse in [false, true] {
                let p = QsimParams {
                    sim_qubits: qubits,
                    compute_amplitudes: true,
                    fuse,
                    ..QsimParams::default()
                };
                let r = grace_mem::run_qv(platform::gh200().machine(), mode, &p);
                assert_eq!(
                    r.checksum.to_bits(),
                    golden,
                    "{qubits} sim-qubits, {mode}, fuse {fuse}: checksum {}",
                    r.checksum
                );
            }
        }
    }
}

#[test]
fn loop_bodies_run_on_the_caller_or_a_pool_worker() {
    let caller = std::thread::current().id();
    let seen = Mutex::new(Vec::new());
    let note = || {
        let t = std::thread::current();
        seen.lock()
            .unwrap()
            .push((t.id(), t.name().map(str::to_owned)));
    };
    for _ in 0..20 {
        par_for(0..64, Grain::Fixed(1), |_| note());
        par_chunks_mut(&mut [0u8; 64], 1, |_, _| note());
        par_map_reduce(
            0..64,
            0usize,
            |_| {
                note();
                1
            },
            |a, b| a + b,
        );
    }
    for (id, name) in seen.into_inner().unwrap() {
        assert!(
            id == caller || name.as_deref().is_some_and(|n| n.starts_with("gh-par-")),
            "a loop body ran on thread {name:?}"
        );
    }
}

#[test]
fn nested_par_for_completes() {
    finishes("a par_for nested in a par_for body", || {
        let hits = AtomicUsize::new(0);
        par_for(0..8, Grain::Fixed(1), |_| {
            par_for(0..100, Grain::Fixed(7), |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.into_inner(), 800);
    });
}

#[test]
fn par_for_completes_in_jobs_of_a_busy_two_worker_pool() {
    // The gh-jobs executor's shape: two scoped threads, each inside a job
    // that runs loops on the global pool at the same time.
    finishes("a par_for from busy executor threads", || {
        let both_busy = Barrier::new(2);
        let hits = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    both_busy.wait();
                    par_for(0..1000, Grain::Fixed(10), |_| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                });
            }
        });
        assert_eq!(hits.into_inner(), 2000);
    });
}

#[test]
fn a_panicking_loop_body_reaches_the_caller_and_the_pool_lives_on() {
    finishes("loops after a panicking body", || {
        let live = AtomicUsize::new(0);
        let caught = catch_unwind(|| {
            par_for(0..256, Grain::Fixed(1), |i| {
                live.fetch_add(1, Ordering::SeqCst);
                if i == 131 {
                    panic!("a body panics on purpose at {i}");
                }
                std::hint::black_box((0..1000).sum::<u64>());
                live.fetch_sub(1, Ordering::SeqCst);
            })
        });
        let payload = caught.expect_err("the body's panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("a body panics on purpose at 131")
        );
        assert_eq!(
            live.load(Ordering::SeqCst),
            1,
            "only the panicked body is unfinished when the caller resumes"
        );
        let hits = AtomicUsize::new(0);
        par_for(0..10_000, Grain::Auto, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.into_inner(), 10_000);
    });
}
