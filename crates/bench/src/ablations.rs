//! Ablation studies beyond the paper's figures: design-choice sweeps the
//! paper motivates (§2.2.1 threshold tuning, §5.1.2 host-register
//! strategy, driver knobs).

use gh_apps::{srad, MemMode};
use gh_profiler::Csv;
use gh_sim::{platform, Machine, MachineConfig, KIB};

/// Sweep of the access-counter notification threshold (paper default
/// 256; §5.2 suggests tuning it to delay migrations). SRAD, system mode.
pub fn threshold_sweep(fast: bool) -> Csv {
    let p = srad_params(fast);
    let mut csv = Csv::new(["threshold", "compute_ms", "migrated_mib"]);
    // A 2 MiB region collects ~16k 128 B line accesses per full sweep,
    // so thresholds must span well past that to delay or suppress
    // migration.
    for threshold in [256u32, 16_384, 65_536, 262_144, 2_000_000] {
        let m = platform::gh200()
            .machine_tweaked(&MachineConfig::default(), &|c| {
                c.counter_threshold = threshold
            })
            .expect("threshold tweak keeps parameters valid");
        let r = srad::run(m, MemMode::System, &p);
        csv.row([
            threshold.to_string(),
            format!("{:.3}", r.phases.compute as f64 / 1e6),
            format!(
                "{:.2}",
                r.traffic.bytes_migrated_in as f64 / (1 << 20) as f64
            ),
        ]);
    }
    csv
}

/// Driver migration budget (notifications serviced per kernel): how fast
/// the working set migrates in Fig 10's setting.
pub fn budget_sweep(fast: bool) -> Csv {
    let p = srad_params(fast);
    let mut csv = Csv::new(["budget", "compute_ms", "iter1_c2c_mib", "iter4_c2c_mib"]);
    for budget in [1usize, 2, 4, 8, 64] {
        let m = platform::gh200()
            .machine_tweaked(&MachineConfig::default(), &|c| {
                c.counter_budget_per_kernel = budget
            })
            .expect("budget tweak keeps parameters valid");
        let r = srad::run(m, MemMode::System, &p);
        let srads = r.kernel_traffic_named("srad");
        let iter_c2c = |it: usize| -> f64 {
            (srads[2 * it].c2c_read + srads[2 * it + 1].c2c_read) as f64 / (1 << 20) as f64
        };
        csv.row([
            budget.to_string(),
            format!("{:.3}", r.phases.compute as f64 / 1e6),
            format!("{:.2}", iter_c2c(0)),
            format!("{:.2}", iter_c2c(3.min(p.iterations - 1))),
        ]);
    }
    csv
}

/// UVM fault-batch cost sensitivity (managed memory): the literature's
/// 20–50 µs range and beyond.
pub fn fault_batch_sweep(fast: bool) -> Csv {
    let p = srad_params(fast);
    let mut csv = Csv::new(["uvm_fault_batch_us", "compute_ms"]);
    for us in [5u64, 15, 28, 45, 90] {
        let m = platform::gh200()
            .machine_tweaked(&MachineConfig::default(), &|c| {
                c.uvm_fault_batch = us * 1_000
            })
            .expect("fault-batch tweak keeps parameters valid");
        let r = srad::run(m, MemMode::Managed, &p);
        csv.row([
            us.to_string(),
            format!("{:.3}", r.phases.compute as f64 / 1e6),
        ]);
    }
    csv
}

/// The §5.1.2 pre-population strategy: `cudaHostRegister` the buffers
/// the GPU would otherwise first-touch through expensive ATS faults.
/// SRAD-shaped workload: a CPU-initialized image plus five
/// GPU-first-written derivative arrays, iterated twice.
pub fn host_register(fast: bool) -> Csv {
    let p = srad_params(fast);
    let bytes = (p.size * p.size * 4) as u64;
    let mut csv = Csv::new(["strategy", "page", "total_ms", "register_ms"]);
    for (page4k, label) in [(true, "4k"), (false, "64k")] {
        for register in [false, true] {
            let mut m = machine_for(page4k);
            m.rt.cuda_init();
            let j = m.rt.malloc_system(gh_units::Bytes::new(bytes), "J");
            let derivs: Vec<_> = (0..5)
                .map(|i| {
                    m.rt.malloc_system(gh_units::Bytes::new(bytes), &format!("d{i}"))
                })
                .collect();
            m.rt.cpu_write(&j, 0, bytes);
            let mut reg_cost = 0;
            if register {
                for d in &derivs {
                    reg_cost += m.rt.cuda_host_register(d);
                }
            }
            let t0 = m.now();
            for _ in 0..p.iterations.min(4) {
                let mut k = m.rt.launch("srad_like");
                k.read(&j, 0, bytes);
                for d in &derivs {
                    k.write(d, 0, bytes);
                }
                k.finish();
                let mut k = m.rt.launch("srad_like2");
                for d in &derivs {
                    k.read(d, 0, bytes);
                }
                k.write(&j, 0, bytes);
                k.finish();
            }
            let total = m.now() - t0 + reg_cost;
            csv.row([
                if register { "host_register" } else { "plain" }.to_string(),
                label.to_string(),
                format!("{:.3}", total as f64 / 1e6),
                format!("{:.3}", reg_cost as f64 / 1e6),
            ]);
        }
    }
    csv
}

/// NUMA placement study (beyond the paper; enabled by the Grace tuning
/// guide's `numactl` advice): CPU-initialized data bound to the GPU node
/// means initialization writes cross NVLink-C2C once, but every compute
/// access is HBM-local — compare with first-touch placement (all compute
/// remote when migration is off).
pub fn numa_placement(fast: bool) -> Csv {
    use gh_apps::hotspot::HotspotParams;
    use gh_sim::Node;
    let p = if fast {
        HotspotParams {
            size: 512,
            iterations: 6,
            ..Default::default()
        }
    } else {
        HotspotParams::default()
    };
    let bytes = (p.size * p.size * 4) as u64;
    let mut csv = Csv::new(["placement", "cpu_init_ms", "compute_ms"]);
    for (name, policy) in [
        ("first_touch", gh_os::NumaPolicy::FirstTouch),
        ("bind_gpu", gh_os::NumaPolicy::Bind(Node::Gpu)),
        ("interleave", gh_os::NumaPolicy::Interleave),
    ] {
        // Hand-rolled hotspot-like loop so the placement policy can be
        // applied (the app API defaults to first touch).
        let mut m = platform::gh200()
            .machine_cfg(&MachineConfig::without_migration())
            .expect("default GH200 configuration is valid");
        m.rt.cuda_init();
        let temp =
            m.rt.malloc_system_with_policy(gh_units::Bytes::new(bytes), policy, "temp");
        let power =
            m.rt.malloc_system_with_policy(gh_units::Bytes::new(bytes), policy, "power");
        let scratch =
            m.rt.cuda_malloc(gh_units::Bytes::new(bytes), "scratch")
                .unwrap();
        m.phase(gh_profiler::Phase::CpuInit);
        m.rt.cpu_write(&temp, 0, bytes);
        m.rt.cpu_write(&power, 0, bytes);
        m.phase(gh_profiler::Phase::Compute);
        for it in 0..p.iterations {
            let mut k = m.rt.launch("hotspot");
            if it % 2 == 0 {
                k.read(&temp, 0, bytes);
                k.write(&scratch, 0, bytes);
            } else {
                k.read(&scratch, 0, bytes);
                k.write(&temp, 0, bytes);
            }
            k.read(&power, 0, bytes);
            k.compute((p.size * p.size * 12) as u64);
            k.finish();
        }
        m.phase(gh_profiler::Phase::Dealloc);
        m.rt.free(scratch);
        m.rt.free(temp);
        m.rt.free(power);
        let r = m.finish();
        csv.row([
            name.to_string(),
            format!("{:.3}", r.phases.cpu_init as f64 / 1e6),
            format!("{:.3}", r.phases.compute as f64 / 1e6),
        ]);
    }
    csv
}

/// Gate-fusion ablation (Aer's bandwidth optimization): fused Quantum
/// Volume circuits issue fewer statevector sweeps; the win multiplies
/// whatever the memory path delivers.
pub fn fusion_sweep(fast: bool) -> Csv {
    use gh_qsim::{run_qv, QsimParams};
    let q = if fast { 16 } else { 21 };
    let mut csv = Csv::new(["mode", "fused", "gates", "compute_ms"]);
    for mode in [MemMode::Explicit, MemMode::System, MemMode::Managed] {
        for fuse in [false, true] {
            let p = QsimParams {
                sim_qubits: q,
                compute_amplitudes: false,
                fuse,
                ..Default::default()
            };
            let m = platform::gh200().machine();
            let r = run_qv(m, mode, &p);
            let gates = r.kernel_traffic_named("qv_gate").len();
            csv.row([
                mode.label().to_string(),
                fuse.to_string(),
                gates.to_string(),
                format!("{:.3}", r.phases.compute as f64 / 1e6),
            ]);
        }
    }
    csv
}

fn srad_params(fast: bool) -> srad::SradParams {
    if fast {
        srad::SradParams {
            size: 256,
            iterations: 6,
            ..Default::default()
        }
    } else {
        srad::SradParams::default()
    }
}

fn machine_for(page4k: bool) -> Machine {
    let page = if page4k { 4 * KIB } else { 64 * KIB };
    platform::gh200()
        .machine_cfg(&MachineConfig::with_page_size(page))
        .expect("GH200 supports both paper page sizes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn higher_threshold_migrates_less() {
        let csv = threshold_sweep(true);
        let rows: Vec<f64> = csv
            .render()
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(2).unwrap().parse().unwrap())
            .collect();
        assert!(
            rows.first().unwrap() >= rows.last().unwrap(),
            "migrated bytes must not grow with the threshold\n{}",
            csv.render()
        );
    }

    #[test]
    fn bigger_budget_drains_remote_reads_faster() {
        let csv = budget_sweep(true);
        let iter4: Vec<f64> = csv
            .render()
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(3).unwrap().parse().unwrap())
            .collect();
        assert!(
            iter4.first().unwrap() >= iter4.last().unwrap(),
            "larger budgets must leave fewer remote reads by iteration 4\n{}",
            csv.render()
        );
    }

    #[test]
    fn fault_batch_cost_slows_managed_compute() {
        let csv = fault_batch_sweep(true);
        let times: Vec<f64> = csv
            .render()
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(1).unwrap().parse().unwrap())
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1] * 1.001));
    }

    #[test]
    fn host_register_table_has_four_rows() {
        let csv = host_register(true);
        assert_eq!(csv.len(), 4);
    }

    #[test]
    fn fusion_never_slows_any_mode() {
        let csv = fusion_sweep(true);
        for mode in ["explicit", "system", "managed"] {
            let get = |fused: &str| -> f64 {
                csv.render()
                    .lines()
                    .find(|l| l.starts_with(&format!("{mode},{fused},")))
                    .and_then(|l| l.split(',').nth(3))
                    .and_then(|s| s.parse().ok())
                    .unwrap()
            };
            assert!(
                get("true") <= get("false") * 1.01,
                "{mode}: fusion must not slow execution\n{}",
                csv.render()
            );
        }
    }

    #[test]
    fn gpu_bound_placement_trades_init_for_compute() {
        let csv = numa_placement(true);
        let get = |name: &str, col: usize| -> f64 {
            csv.render()
                .lines()
                .find(|l| l.starts_with(name))
                .and_then(|l| l.split(',').nth(col))
                .and_then(|s| s.parse().ok())
                .unwrap()
        };
        // Binding to the GPU makes CPU init slower (writes cross the
        // link) but iterative compute much faster (HBM-local).
        assert!(get("bind_gpu", 1) > get("first_touch", 1));
        assert!(
            get("bind_gpu", 2) < get("first_touch", 2),
            "\n{}",
            csv.render()
        );
        // Interleave sits between the extremes for compute.
        assert!(get("interleave", 2) <= get("first_touch", 2));
    }
}
