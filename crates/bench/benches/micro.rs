//! Micro-benchmarks of the simulator's hot primitives: page table
//! operations, TLB lookups, the radix map, kernel span metering,
//! statevector gate application and the parallel substrate.
//!
//! Self-timed (the offline dependency set has no criterion): each case
//! runs a few warmup iterations, then reports min/median wall time over a
//! fixed iteration count. `GH_FAST=1` cuts iteration counts for CI.

use std::hint::black_box;
use std::time::Instant;

use gh_mem::pagetable::PageTable;
use gh_mem::phys::{Node, PhysMem};
use gh_mem::radix::RadixTable;
use gh_mem::tlb::Tlb;
use gh_qsim::{Gate2, StateVector};
use gh_sim::{platform, MemMode};
use gh_units::{Bytes, Vpn};

fn iters() -> usize {
    if gh_bench::fast_requested() {
        3
    } else {
        15
    }
}

/// Runs `f` with per-iteration setup from `setup`, printing min/median ns.
fn bench<S, T, F, R>(name: &str, setup: S, mut f: F)
where
    S: Fn() -> T,
    F: FnMut(T) -> R,
{
    let n = iters();
    // Warmup.
    for _ in 0..2.min(n) {
        black_box(f(setup()));
    }
    let mut times: Vec<u128> = Vec::with_capacity(n);
    for _ in 0..n {
        let input = setup();
        let t0 = Instant::now();
        black_box(f(input));
        times.push(t0.elapsed().as_nanos());
    }
    times.sort_unstable();
    let min = times[0];
    let median = times[times.len() / 2];
    println!("{name:<40} min {:>12} ns   median {:>12} ns", min, median);
}

fn bench_radix() {
    bench("radix_insert_get_4k", RadixTable::new, |mut t| {
        for k in 0..4096u64 {
            t.insert(k, k);
        }
        let mut acc = 0;
        for k in 0..4096u64 {
            acc += *t.get(k).unwrap();
        }
        acc
    });
}

fn bench_pagetable() {
    bench(
        "pagetable_populate_translate_4k_pages",
        || PageTable::new(4096),
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

fn bench_tlb() {
    bench(
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

fn bench_physmem() {
    bench(
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

fn bench_kernel_span() {
    bench(
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

fn bench_gate_apply() {
    let g = Gate2::random_su4(1);
    // Lower qubit 3 takes the lane-blocked kernel, lower qubit 0 the
    // per-group one.
    for (name, q0, q1) in [
        ("statevector_gate2_apply_16q", 3, 11),
        ("statevector_gate2_apply_16q_lo0", 0, 11),
    ] {
        bench(
            name,
            || StateVector::zero_state(16),
            |mut s| {
                s.apply_gate2(&g, q0, q1);
                s.amp(0)
            },
        );
    }
}

fn bench_setcache() {
    bench(
        "setcache_stream_64k_lines",
        || gh_mem::SetCache::new(Bytes::new(40 << 20), Bytes::new(128), 16),
        |mut l2| {
            let mut misses = 0;
            for i in 0..65_536u64 {
                if !l2.access(i * 128) {
                    misses += 1;
                }
            }
            misses
        },
    );
}

fn bench_par_sort() {
    bench(
        "par_sort_unstable_1M_u64",
        || {
            (0..1_000_000u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect::<Vec<_>>()
        },
        |mut v| {
            gh_par::par_sort_unstable(&mut v);
            v[0]
        },
    );
}

fn bench_fusion() {
    let circuit = gh_qsim::QvCircuit::generate(20, 3);
    bench(
        "gate_fusion_qv_200",
        || (),
        |_| gh_qsim::fuse(&circuit).len(),
    );
}

fn bench_replay_parse() {
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
        "replay_50_blocks",
        || (),
        |_| {
            let r = gh_sim::replay(gh_sim::platform::gh200().machine(), &trace, None).unwrap();
            r.reported_total()
        },
    );
}

fn bench_par() {
    // The map is the apps' multiply-shift seeder. A sum of `i` folds to
    // a closed form per chunk and would time only dispatch; a shift after
    // a wrapping multiply has no closed form, so every index is computed.
    let seed = black_box(23u64);
    bench(
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

fn bench_par_dispatch() {
    // Two one-index chunks and an empty body: what handing a loop to the
    // parallel runtime costs per call.
    bench(
        "par_for_dispatch",
        || (),
        |_| {
            gh_par::par_for(0..2, gh_par::Grain::Fixed(1), |i| {
                black_box(i);
            })
        },
    );
}

fn bench_app_end_to_end() {
    for mode in MemMode::ALL {
        bench(
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

fn main() {
    bench_radix();
    bench_pagetable();
    bench_tlb();
    bench_physmem();
    bench_kernel_span();
    bench_gate_apply();
    bench_setcache();
    bench_par_sort();
    bench_fusion();
    bench_replay_parse();
    bench_par();
    bench_par_dispatch();
    bench_app_end_to_end();
}
