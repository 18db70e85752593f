//! `gh-qsim` — a statevector quantum-circuit simulator in the style of
//! Qiskit-Aer's GPU backend, running on the simulated Grace Hopper.
//!
//! The paper's sixth application (§3.1): Quantum Volume circuits of up
//! to 34 qubits, where the statevector (8 · 2^N bytes, single-precision
//! complex) is the dominant allocation — 33 qubits fit in GPU memory, 34
//! exceed it (natural oversubscription).
//!
//! Scaling: capacities are scaled 1:1024, so *simulated* qubit counts
//! map to the paper's as `paper_qubits = sim_qubits + 10` (the
//! statevector also shrinks by 2¹⁰). Harnesses report paper units.
//!
//! Three execution modes mirror the paper:
//!
//! * **Explicit** — the original Qiskit-Aer flow: `cudaMalloc` the
//!   statevector if it fits; otherwise the chunked host↔device exchange
//!   pipeline ("sophisticated data movement pipeline", §4);
//! * **System** / **Managed** — one unified statevector allocation,
//!   initialized by the GPU (GPU-side first touch, §5.1.2), with the
//!   maximum memory bound raised to system memory so no chunking happens.
//!
//! The quantum mechanics is real: gates are Haar-random SU(4) unitaries,
//! the statevector evolves exactly, and norm conservation is verified in
//! tests against a dense reference. For large sweeps the amplitude
//! arithmetic can be skipped (`compute_amplitudes = false`) without
//! changing the memory behaviour, since kernel timing comes from the
//! declared traffic and work either way.

//! ```
//! use gh_qsim::{StateVector, Gate2};
//!
//! let mut state = StateVector::zero_state(8);
//! state.apply_gate2(&Gate2::random_su4(1), 2, 5);
//! assert!((state.norm_sqr() - 1.0).abs() < 1e-5);
//!
//! // GHZ preparation and sampling:
//! let mut ghz = StateVector::zero_state(4);
//! gh_qsim::circuits::ghz(&mut ghz);
//! let shots = ghz.sample(7, 100);
//! assert!(shots.iter().all(|&s| s == 0 || s == 0b1111));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod circuits;
pub mod complex;
pub mod fusion;
pub mod gates;
pub mod gates1;
pub mod qv;
pub mod sim;
pub mod state;

pub use complex::C32;
pub use fusion::fuse;
pub use gates::Gate2;
pub use gates1::Gate1;
pub use qv::QvCircuit;
pub use sim::{run_qv, QsimParams};
pub use state::StateVector;

/// Bytes per amplitude (single-precision complex, as the paper's
/// `8 · 2^N` formula implies).
pub const AMP_BYTES: u64 = 8;

/// Statevector size in bytes for `n` qubits.
pub fn statevector_bytes(n_qubits: u32) -> u64 {
    AMP_BYTES << n_qubits
}

/// Converts a simulated qubit count to the paper's scale (× 1024
/// capacity ⇒ +10 qubits).
pub fn paper_qubits(sim_qubits: u32) -> u32 {
    sim_qubits + 10
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statevector_sizes() {
        assert_eq!(statevector_bytes(0), 8);
        assert_eq!(statevector_bytes(20), 8 << 20); // 8 MiB (paper 30q: 8 GB)
        assert_eq!(statevector_bytes(24), 128 << 20); // 128 MiB > 96 MiB GPU
    }

    #[test]
    fn qubit_mapping() {
        assert_eq!(paper_qubits(23), 33);
        assert_eq!(paper_qubits(24), 34);
    }
}
