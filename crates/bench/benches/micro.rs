//! Micro-benchmarks of the simulator's hot primitives: page table
//! operations at 4 KiB and 64 KiB pages, TLB lookups, the L2 model,
//! runtime boot, kernel span metering (system and managed memory), page
//! migration and unmapping, statevector gate application and the parallel
//! substrate.
//!
//! Self-timed (the offline dependency set has no criterion): each case
//! runs a few warmup iterations, then reports min/median wall time over a
//! fixed iteration count. `GH_FAST=1` cuts iteration counts for CI.
//!
//! Each case runs in a process of its own, so no row's time depends on
//! the cases that ran before it (their heap, caches and pool threads):
//! with no case name the bench re-runs itself once per case, in table
//! order, and `micro <case>` runs that case alone.

use std::hint::black_box;

use gh_mem::pagetable::PageTable;
use gh_mem::phys::{Node, PhysMem};
use gh_mem::tlb::Tlb;
use gh_qsim::{Gate2, StateVector};
use gh_sim::{platform, MachineConfig, MemMode};
use gh_units::{Bytes, Vpn};

fn iters() -> usize {
    if gh_bench::fast_requested() {
        3
    } else {
        15
    }
}

/// The cases one process meets: it records every case's name, and runs
/// the case `run` names, if any.
#[derive(Default)]
struct Cases {
    run: Option<String>,
    names: Vec<String>,
}

/// Runs `f` with per-iteration setup from `setup`, printing min/median ns,
/// if `name` is the case this process runs; records the name either way.
/// What `f` returns is dropped after the clock stops, so a case can hand
/// back its machine to keep teardown out of the timing.
#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "a micro-benchmark times itself in host time"
)]
fn bench<S, T, F, R>(cx: &mut Cases, name: &str, setup: S, mut f: F)
where
    S: Fn() -> T,
    F: FnMut(T) -> R,
{
    cx.names.push(name.to_string());
    if cx.run.as_deref() != Some(name) {
        return;
    }
    let n = iters();
    // Warmup.
    for _ in 0..2.min(n) {
        black_box(f(setup()));
    }
    let mut times: Vec<u128> = Vec::with_capacity(n);
    for _ in 0..n {
        let input = setup();
        let t0 = std::time::Instant::now();
        let out = black_box(f(input));
        times.push(t0.elapsed().as_nanos());
        drop(out);
    }
    times.sort_unstable();
    let min = times[0];
    let median = times[times.len() / 2];
    println!("{name:<40} min {:>12} ns   median {:>12} ns", min, median);
}

fn bench_pagetable(cx: &mut Cases) {
    for (name, page) in [("4k", 4 << 10), ("64k", 64 << 10)] {
        bench(
            cx,
            &format!("pagetable_populate_translate_{name}_pages"),
            || PageTable::new(page),
            |mut pt| {
                for v in 0..2048 {
                    pt.populate(Vpn::new(v), Node::Cpu, v + 1);
                }
                let mut hits = 0;
                for v in 0..2048 {
                    if pt.translate(Vpn::new(v)).is_some() {
                        hits += 1;
                    }
                }
                hits
            },
        );
    }
}

fn bench_tlb(cx: &mut Cases) {
    bench(
        cx,
        "tlb_streaming_miss_fill",
        || Tlb::new(3072),
        |mut tlb| {
            let mut misses = 0;
            for v in 0..10_000u64 {
                if !tlb.lookup(Vpn::new(v)) {
                    tlb.fill(Vpn::new(v));
                    misses += 1;
                }
            }
            misses
        },
    );
}

fn bench_physmem(cx: &mut Cases) {
    bench(
        cx,
        "physmem_alloc_release",
        || PhysMem::new(Bytes::new(1 << 30), Bytes::new(1 << 27), Bytes::ZERO),
        |mut pm| {
            for _ in 0..1000 {
                let f = pm.alloc(Node::Gpu, Bytes::new(65536)).unwrap();
                black_box(f);
                pm.release(Node::Gpu, Bytes::new(65536));
            }
        },
    );
}

fn bench_kernel_span(cx: &mut Cases) {
    bench(
        cx,
        "kernel_dense_span_64MiB_system",
        || {
            let mut m = platform::gh200().machine();
            let buf = m.rt.malloc_system(Bytes::new(64 << 20), "x");
            m.rt.cpu_write(&buf, 0, 64 << 20);
            (m, buf)
        },
        |(mut m, buf)| {
            let mut k = m.rt.launch("bench");
            k.read(&buf, 0, 64 << 20);
            k.finish().time
        },
    );
}

fn bench_migration(cx: &mut Cases) {
    // QV's prefetch windows over a statevector larger than the GPU: with
    // the GPU already full, each 4 MiB window moves 64 pages in and
    // evicts 64 pages of an older window.
    const BUF: u64 = 128 << 20;
    const WINDOW: u64 = 4 << 20;
    bench(
        cx,
        "uvm_prefetch_window_evict",
        || {
            let mut m = platform::gh200().machine();
            let buf = m.rt.cuda_malloc_managed(Bytes::new(BUF), "sv");
            m.rt.cpu_write(&buf, 0, BUF);
            for off in (0..BUF).step_by(WINDOW as usize) {
                m.rt.prefetch(&buf, off, WINDOW, Node::Gpu);
            }
            (m, buf)
        },
        |(mut m, buf)| {
            for off in (0..BUF).step_by(WINDOW as usize) {
                m.rt.prefetch(&buf, off, WINDOW, Node::Gpu);
            }
            m.rt.migrated_pages()
        },
    );
    // QV's gate step under that prefetch: one launch that reads and
    // writes a 4 MiB managed window already resident on the GPU.
    bench(
        cx,
        "kernel_managed_window_rw",
        || {
            let mut m = platform::gh200().machine();
            let buf = m.rt.cuda_malloc_managed(Bytes::new(WINDOW), "sv");
            m.rt.cpu_write(&buf, 0, WINDOW);
            m.rt.prefetch(&buf, 0, WINDOW, Node::Gpu);
            (m, buf)
        },
        |(mut m, buf)| {
            let mut k = m.rt.launch("qv_gate");
            k.read(&buf, 0, WINDOW);
            k.write(&buf, 0, WINDOW);
            let time = k.finish().time;
            (m, time)
        },
    );
    // munmap of 32,768 CPU-resident 4 KiB pages.
    bench(
        cx,
        "munmap_128mib_4k",
        || {
            let mut m = platform::gh200()
                .machine_cfg(&MachineConfig::with_page_size(4096))
                .unwrap();
            let buf = m.rt.malloc_system(Bytes::new(128 << 20), "x");
            m.rt.cpu_write(&buf, 0, 128 << 20);
            (m, buf)
        },
        |(mut m, buf)| m.rt.free(buf),
    );
}

fn bench_gate_apply(cx: &mut Cases) {
    let g = Gate2::random_su4(1);
    // One kernel serves every pair. Lower qubit 3 reads each stream on its
    // own; lower qubits 0 and 1 read two streams from one window, and
    // upper qubit 2 walks whole 8-amplitude blocks.
    for (name, q0, q1) in [
        ("statevector_gate2_apply_16q", 3, 11),
        ("statevector_gate2_apply_16q_lo0", 0, 11),
        ("statevector_gate2_apply_16q_lo1", 1, 11),
        ("statevector_gate2_apply_16q_pair12", 1, 2),
    ] {
        bench(
            cx,
            name,
            || StateVector::zero_state(16),
            |mut s| {
                s.apply_gate2(&g, q0, q1);
                s.amp(0)
            },
        );
    }
}

/// gh200's L2 model with its storage already allocated (the first
/// access allocates it), so the timed loop sees only accesses.
fn warm_l2() -> gh_mem::SetCache {
    let mut l2 = gh_mem::SetCache::new(Bytes::new(40 << 20), Bytes::new(128), 16);
    l2.access(0);
    l2.reset();
    l2
}

fn bench_setcache(cx: &mut Cases) {
    bench(cx, "setcache_stream_64k_lines", warm_l2, |mut l2| {
        let mut misses = 0;
        for i in 0..65_536u64 {
            if !l2.access(i * 128) {
                misses += 1;
            }
        }
        misses
    });
    // 64 simulated kernels of 1,024 touches each: a reset per launch,
    // then lines drawn from 2,048 scattered ones, so re-touches hit.
    bench(cx, "setcache_random_reset", warm_l2, |mut l2| {
        let mut misses = 0;
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..64 {
            l2.reset();
            for _ in 0..1024 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let line = (x % 2048).wrapping_mul(0x9E37_79B9) & ((1 << 36) - 1);
                if !l2.access(line * 128) {
                    misses += 1;
                }
            }
        }
        misses
    });
}

fn bench_runtime_boot(cx: &mut Cases) {
    bench(
        cx,
        "runtime_boot_first_launch",
        || (),
        |_| {
            let mut m = platform::gh200().machine();
            let buf = m.rt.cuda_malloc(Bytes::new(1 << 20), "x").unwrap();
            let mut k = m.rt.launch("bench");
            k.read(&buf, 0, 1 << 20);
            k.finish().time
        },
    );
}

fn bench_fusion(cx: &mut Cases) {
    let circuit = gh_qsim::QvCircuit::generate(20, 3);
    bench(
        cx,
        "gate_fusion_qv_200",
        || (),
        |_| gh_qsim::fuse(&circuit).len(),
    );
}

fn bench_replay_parse(cx: &mut Cases) {
    // 50 uniquely-named alloc/init/kernel/free blocks.
    let trace: String = (0..50)
        .map(|i| {
            format!(
                "alloc b{i} system 1m
cpu_write b{i} 0 1m
kernel k{i}
  read b{i} 0 1m
end
free b{i}
"
            )
        })
        .collect();
    bench(
        cx,
        "replay_50_blocks",
        || (),
        |_| {
            let r = gh_sim::replay(gh_sim::platform::gh200().machine(), &trace, None).unwrap();
            r.reported_total()
        },
    );
}

fn bench_par(cx: &mut Cases) {
    // The map is the apps' multiply-shift seeder. A sum of `i` folds to
    // a closed form per chunk and would time only dispatch; a shift after
    // a wrapping multiply has no closed form, so every index is computed.
    let seed = black_box(23u64);
    bench(
        cx,
        "par_map_reduce_1M",
        || (),
        |_| {
            gh_par::par_map_reduce(
                0..1_000_000,
                0u64,
                |i| (seed ^ i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11,
                |a, x| a.wrapping_add(x),
            )
        },
    );
}

fn bench_par_dispatch(cx: &mut Cases) {
    // Two one-index chunks and an empty body: what handing a loop to the
    // parallel runtime costs per call.
    bench(
        cx,
        "par_for_dispatch",
        || (),
        |_| {
            gh_par::par_for(0..2, gh_par::Grain::Fixed(1), |i| {
                black_box(i);
            })
        },
    );
}

fn bench_par_join(cx: &mut Cases) {
    // Two empty closures, one of them offered to a pool worker: what
    // running two closures at once costs per call.
    bench(
        cx,
        "par_join_dispatch",
        || (),
        |_| gh_par::join(|| black_box(1), || black_box(2)),
    );
}

fn bench_app_end_to_end(cx: &mut Cases) {
    for mode in MemMode::ALL {
        bench(
            cx,
            &format!("hotspot_small_{mode}"),
            || (),
            |_| {
                let p = gh_apps::hotspot::HotspotParams {
                    size: 128,
                    iterations: 5,
                    seed: 1,
                };
                gh_apps::hotspot::run(platform::gh200().machine(), mode, &p).checksum
            },
        );
    }
}

/// Meets every case in table order.
fn cases(cx: &mut Cases) {
    bench_pagetable(cx);
    bench_tlb(cx);
    bench_physmem(cx);
    bench_kernel_span(cx);
    bench_migration(cx);
    bench_gate_apply(cx);
    bench_setcache(cx);
    bench_runtime_boot(cx);
    bench_fusion(cx);
    bench_replay_parse(cx);
    bench_par(cx);
    bench_par_dispatch(cx);
    bench_par_join(cx);
    bench_app_end_to_end(cx);
}

fn main() {
    // `cargo bench` passes `--bench`; any other argument names a case.
    let run = std::env::args().skip(1).find(|a| !a.starts_with("--"));
    let mut cx = Cases {
        run: run.clone(),
        names: Vec::new(),
    };
    cases(&mut cx);
    if let Some(name) = run {
        if !cx.names.contains(&name) {
            eprintln!("micro: no case named {name}");
            std::process::exit(2);
        }
        return;
    }
    let exe = std::env::current_exe().expect("the bench's own executable");
    for name in cx.names {
        let status = std::process::Command::new(&exe)
            .arg(&name)
            .status()
            .expect("re-run the bench for one case");
        if !status.success() {
            eprintln!("micro: case {name} failed: {status}");
            std::process::exit(1);
        }
    }
}
