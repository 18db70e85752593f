//! Quantum Volume on the simulated Grace Hopper — the paper's flagship
//! workload.
//!
//! ```sh
//! cargo run --release --example quantum_volume [sim_qubits]
//! ```
//!
//! Runs the same circuit under all three memory strategies and prints the
//! init/compute breakdown (Fig 9's view). With `sim_qubits = 24` (paper
//! scale: 34 qubits) the statevector exceeds GPU memory and the natural
//! oversubscription behaviours of §7 appear.

use grace_mem::{platform, run_qv, MemMode, QsimParams};

fn main() {
    let sim_qubits: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);
    let Some(sv_bytes) = gh_qsim::statevector_bytes(sim_qubits) else {
        eprintln!("a {sim_qubits}-qubit statevector does not fit in 64-bit memory");
        std::process::exit(2);
    };
    let sv_mib = sv_bytes >> 20;
    println!(
        "Quantum Volume: {sim_qubits} simulated qubits (paper scale: {} qubits), statevector {sv_mib} MiB\n",
        gh_qsim::paper_qubits(sim_qubits)
    );

    let p = QsimParams {
        sim_qubits,
        // Evolve the real statevector only when it fits comfortably.
        compute_amplitudes: sim_qubits <= 22,
        ..Default::default()
    };

    for mode in MemMode::ALL {
        let r = run_qv(platform::gh200().machine(), mode, &p);
        let init = r.kernel_time_named("qv_init");
        let gates = r.kernel_time_named("qv_gate");
        println!("== {mode} ==");
        println!(
            "  init {:.3} ms | gates {:.3} ms | total (reported) {:.3} ms",
            init as f64 / 1e6,
            gates as f64 / 1e6,
            r.reported_total() as f64 / 1e6
        );
        println!(
            "  traffic: HBM {} MiB, C2C {} MiB, ATS faults {}, GPU faults {}, migrated in/out {}/{} MiB",
            r.traffic.total_read() >> 20,
            r.traffic.c2c_read >> 20,
            r.traffic.ats_faults,
            r.traffic.gpu_faults,
            r.traffic.bytes_migrated_in >> 20,
            r.traffic.bytes_migrated_out >> 20,
        );
        if p.compute_amplitudes {
            println!("  statevector checksum: {:.6}", r.checksum);
        }
        println!("  peak GPU usage: {} MiB\n", r.peak_gpu >> 20);
    }

    if sv_mib > 96 {
        println!("(statevector exceeds the 96 MiB GPU: managed memory falls");
        println!(" back to coherent NVLink-C2C access after its thrashing");
        println!(" protection pins the allocation CPU-side — try the");
        println!(" prefetch optimization in benches/fig12_qv_throughput)");
    }
}
