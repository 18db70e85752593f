//! Running Quantum Volume on the simulated Grace Hopper.

use gh_profiler::Phase;
use gh_sim::{Machine, MemMode, Node, RunReport};

use crate::qv::QvCircuit;
use crate::state::StateVector;
use crate::statevector_bytes;

/// Quantum Volume run parameters.
#[derive(Debug, Clone)]
pub struct QsimParams {
    /// Simulated qubit count (paper scale = this + 10).
    pub sim_qubits: u32,
    /// Circuit seed.
    pub seed: u64,
    /// Evolve the real statevector (exact, memory-hungry on the host) —
    /// used by tests and small runs. Large sweeps disable it; the memory
    /// behaviour and virtual timing are identical either way.
    pub compute_amplitudes: bool,
    /// Apply the explicit-prefetch optimization in managed mode
    /// (`cudaMemPrefetchAsync` windows, §7 / Figs 12-13).
    pub prefetch: bool,
    /// Chunk size for the explicit-copy pipeline when the statevector
    /// exceeds GPU memory.
    pub chunk_bytes: u64,
    /// Apply Aer-style gate fusion before execution (fewer statevector
    /// sweeps; semantics preserved).
    pub fuse: bool,
}

impl Default for QsimParams {
    fn default() -> Self {
        Self {
            sim_qubits: 20, // paper: 30 qubits
            seed: 2024,
            compute_amplitudes: false,
            prefetch: false,
            chunk_bytes: 8 << 20,
            fuse: false,
        }
    }
}

/// Window size for managed-memory prefetching. Must be comfortably
/// smaller than free GPU memory so that prefetching window *i+1* evicts
/// already-consumed blocks (LRU) instead of the window itself.
const PREFETCH_WINDOW: u64 = 4 << 20;

/// Runs a Quantum Volume simulation under `mode`. Checksum is the
/// statevector fingerprint when `compute_amplitudes` is set, else 0.
pub fn run_qv(mut m: Machine, mode: MemMode, p: &QsimParams) -> RunReport {
    let sv_bytes = statevector_bytes(p.sim_qubits);
    let mut circuit = QvCircuit::generate(p.sim_qubits, p.seed);
    if p.fuse {
        circuit = crate::fusion::fuse(&circuit);
    }
    let mut state = if p.compute_amplitudes {
        Some(StateVector::zero_state(p.sim_qubits))
    } else {
        None
    };

    // ---- allocation ----
    m.phase(Phase::Alloc);
    enum SvStorage {
        Device(gh_sim::Buffer),
        ChunkedHost {
            host: gh_sim::Buffer,
            chunks: [gh_sim::Buffer; 2],
            streams: [gh_sim::StreamId; 2],
        },
        Unified(gh_sim::Buffer),
    }
    let storage = match mode {
        MemMode::Explicit => {
            if sv_bytes + (2 << 20) <= m.rt.gpu_free() {
                SvStorage::Device(
                    m.rt.cuda_malloc(gh_units::Bytes::new(sv_bytes), "qv.sv")
                        .expect("fits by the check above"), // gh-audit: allow(no-unwrap-in-lib) -- fits by the branch guard above
                )
            } else {
                // Qiskit-Aer's chunked host-exchange pipeline: pinned
                // host statevector, double-buffered device chunks, two
                // streams so copies overlap compute — the paper's
                // "sophisticated data movement pipeline" (§4).
                let host =
                    m.rt.cuda_malloc_host(gh_units::Bytes::new(sv_bytes), "qv.sv.host");
                let chunks = [
                    m.rt.cuda_malloc(gh_units::Bytes::new(p.chunk_bytes), "qv.chunk0")
                        .expect("chunk buffer must fit"), // gh-audit: allow(no-unwrap-in-lib) -- chunk size is bounded by config validation
                    m.rt.cuda_malloc(gh_units::Bytes::new(p.chunk_bytes), "qv.chunk1")
                        .expect("chunk buffer must fit"), // gh-audit: allow(no-unwrap-in-lib) -- chunk size is bounded by config validation
                ];
                let streams = [m.rt.create_stream(), m.rt.create_stream()];
                SvStorage::ChunkedHost {
                    host,
                    chunks,
                    streams,
                }
            }
        }
        MemMode::System => {
            SvStorage::Unified(m.rt.malloc_system(gh_units::Bytes::new(sv_bytes), "qv.sv"))
        }
        MemMode::Managed => {
            SvStorage::Unified(m.rt.cuda_malloc_managed(gh_units::Bytes::new(sv_bytes), "qv.sv"))
        }
    };

    // ---- CPU init: none (GPU-side initialization, §5.1.2) ----
    m.phase(Phase::CpuInit);

    // ---- compute ----
    m.phase(Phase::Compute);
    match &storage {
        SvStorage::Device(sv) => {
            let mut k = m.rt.launch("qv_init");
            k.write(sv, 0, sv_bytes);
            k.compute(sv_bytes / 4);
            k.finish();
        }
        SvStorage::ChunkedHost {
            host,
            chunks,
            streams,
        } => {
            // Initialize chunks on the device and stream them out,
            // ping-ponging between the two buffers/streams.
            let mut off = 0;
            let mut i = 0;
            while off < sv_bytes {
                let len = p.chunk_bytes.min(sv_bytes - off);
                let (c, s) = (&chunks[i % 2], streams[i % 2]);
                m.rt.launch_async("qv_init", s, &[], &[(*c, 0, len)], len / 4);
                m.rt.memcpy_async(host, off, c, 0, len, s);
                off += len;
                i += 1;
            }
            m.rt.all_streams_synchronize();
        }
        SvStorage::Unified(sv) => {
            let mut k = m.rt.launch("qv_init");
            k.write(sv, 0, sv_bytes);
            k.compute(sv_bytes / 4);
            k.finish();
        }
    }

    for (gi, g) in circuit.gates.iter().enumerate() {
        if let Some(s) = state.as_mut() {
            s.apply_gate2(&g.gate, g.q0, g.q1);
        }
        let work = (sv_bytes / 8) * 30; // ~30 flops per amplitude
        match &storage {
            SvStorage::Device(sv) => {
                let mut k = m.rt.launch("qv_gate");
                k.read(sv, 0, sv_bytes);
                k.write(sv, 0, sv_bytes);
                k.compute(work);
                k.finish();
            }
            SvStorage::ChunkedHost {
                host,
                chunks,
                streams,
            } => {
                // Stream the statevector through the double-buffered
                // device chunks: while chunk i computes, chunk i+1 loads
                // and chunk i-1 stores. A gate on a *global* qubit (its
                // stride exceeds the chunk) pairs chunks, so Aer performs
                // an extra exchange pass: model it as a second full
                // stream of the vector.
                let chunk_amps = p.chunk_bytes / crate::AMP_BYTES;
                let global = (1u64 << g.q0.max(g.q1)) >= chunk_amps;
                let passes = if global { 2 } else { 1 };
                for _pass in 0..passes {
                    let mut off = 0;
                    let mut i = 0;
                    while off < sv_bytes {
                        let len = p.chunk_bytes.min(sv_bytes - off);
                        let (c, s) = (&chunks[i % 2], streams[i % 2]);
                        m.rt.memcpy_async(c, 0, host, off, len, s);
                        m.rt.launch_async(
                            "qv_gate",
                            s,
                            &[(*c, 0, len)],
                            &[(*c, 0, len)],
                            work * len / (sv_bytes * passes),
                        );
                        m.rt.memcpy_async(host, off, c, 0, len, s);
                        off += len;
                        i += 1;
                    }
                    m.rt.all_streams_synchronize();
                }
            }
            SvStorage::Unified(sv) => {
                if p.prefetch && mode == MemMode::Managed {
                    // Windowed prefetch: pull each window into HBM right
                    // before the kernel touches it (Fig 12's optimization).
                    let mut off = 0;
                    while off < sv_bytes {
                        let len = PREFETCH_WINDOW.min(sv_bytes - off);
                        m.rt.prefetch(sv, off, len, Node::Gpu);
                        let mut k = m.rt.launch("qv_gate");
                        k.read(sv, off, len);
                        k.write(sv, off, len);
                        k.compute(work * len / sv_bytes);
                        k.finish();
                        off += len;
                    }
                } else {
                    let mut k = m.rt.launch("qv_gate");
                    k.read(sv, 0, sv_bytes);
                    k.write(sv, 0, sv_bytes);
                    k.compute(work);
                    k.finish();
                }
            }
        }
        // A light norm-check every few layers, as Aer's validation does:
        // read-only pass, no writes.
        if gi % (p.sim_qubits as usize) == 0 {
            if let SvStorage::Unified(sv) = &storage {
                let mut k = m.rt.launch("qv_norm");
                k.read(sv, 0, sv_bytes.min(4 << 20));
                k.finish();
            }
        }
    }

    if let Some(s) = &state {
        m.set_checksum(s.checksum());
    }

    // ---- de-allocation ----
    m.phase(Phase::Dealloc);
    match storage {
        SvStorage::Device(sv) => {
            m.rt.free(sv);
        }
        SvStorage::ChunkedHost { host, chunks, .. } => {
            let [c0, c1] = chunks;
            m.rt.free(c0);
            m.rt.free(c1);
            m.rt.free(host);
        }
        SvStorage::Unified(sv) => {
            m.rt.free(sv);
        }
    }
    m.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(qubits: u32) -> QsimParams {
        QsimParams {
            sim_qubits: qubits,
            seed: 77,
            compute_amplitudes: true,
            prefetch: false,
            chunk_bytes: 1 << 20,
            fuse: false,
        }
    }

    #[test]
    fn all_modes_produce_identical_state() {
        let p = small(8);
        let mut checks = Vec::new();
        for mode in MemMode::ALL {
            let r = run_qv(gh_sim::platform::gh200().machine(), mode, &p);
            checks.push(r.checksum);
        }
        assert!(checks[0] != 0.0);
        assert_eq!(checks[0], checks[1]);
        assert_eq!(checks[1], checks[2]);
    }

    #[test]
    fn norm_is_preserved_through_full_circuit() {
        let p = small(6);
        let circuit = QvCircuit::generate(p.sim_qubits, p.seed);
        let mut s = StateVector::zero_state(p.sim_qubits);
        for g in &circuit.gates {
            s.apply_gate2(&g.gate, g.q0, g.q1);
        }
        assert!((s.norm_sqr() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn system_mode_init_is_gpu_side() {
        let p = QsimParams {
            compute_amplitudes: false,
            ..small(16)
        };
        let r = run_qv(gh_sim::platform::gh200().machine(), MemMode::System, &p);
        assert!(r.traffic.ats_faults > 0, "GPU first touch must fault");
        assert_eq!(r.phases.cpu_init, 0, "no CPU-side initialization");
    }

    #[test]
    fn managed_init_is_faster_than_system_init() {
        // Fig 5/9 shape: GPU-side init is the system-memory bottleneck.
        let p = QsimParams {
            compute_amplitudes: false,
            ..small(18)
        };
        let rs = run_qv(gh_sim::platform::gh200().machine(), MemMode::System, &p);
        let rm = run_qv(gh_sim::platform::gh200().machine(), MemMode::Managed, &p);
        let init_s = rs.kernel_time_named("qv_init");
        let init_m = rm.kernel_time_named("qv_init");
        assert!(
            init_s > init_m * 3,
            "system init {init_s} vs managed init {init_m}"
        );
    }

    #[test]
    fn natural_oversubscription_uses_chunked_pipeline() {
        // 24 sim-qubits = 128 MiB > 96 MiB GPU: explicit mode must fall
        // back to the chunked pipeline (memcpy traffic both directions).
        let p = QsimParams {
            sim_qubits: 24,
            compute_amplitudes: false,
            seed: 5,
            prefetch: false,
            chunk_bytes: 8 << 20,
            fuse: false,
        };
        let r = run_qv(gh_sim::platform::gh200().machine(), MemMode::Explicit, &p);
        assert!(r.traffic.hbm_read > 0);
        // Chunk streaming happened (init + per-gate).
        assert!(r.phases.compute > 0);
    }

    #[test]
    fn fusion_option_preserves_state_and_never_slows() {
        let base = small(9);
        let fused = QsimParams {
            fuse: true,
            ..base.clone()
        };
        let a = run_qv(gh_sim::platform::gh200().machine(), MemMode::Managed, &base);
        let b = run_qv(
            gh_sim::platform::gh200().machine(),
            MemMode::Managed,
            &fused,
        );
        let rel = (a.checksum - b.checksum).abs() / a.checksum.abs().max(1e-9);
        assert!(rel < 1e-3, "{} vs {}", a.checksum, b.checksum);
        assert!(b.kernels.len() <= a.kernels.len());
    }

    #[test]
    fn deterministic_virtual_time() {
        let p = QsimParams {
            compute_amplitudes: false,
            ..small(14)
        };
        let a = run_qv(gh_sim::platform::gh200().machine(), MemMode::Managed, &p);
        let b = run_qv(gh_sim::platform::gh200().machine(), MemMode::Managed, &p);
        assert_eq!(a.phases.compute, b.phases.compute);
        assert_eq!(a.traffic, b.traffic);
    }
}
