//! Quantum Volume circuit generation.
//!
//! A QV circuit on `n` qubits has `n` layers; each layer applies a random
//! permutation of the qubits and a Haar-random SU(4) gate to each
//! adjacent pair of the permutation (⌊n/2⌋ gates per layer).

use crate::gates::Gate2;

/// One two-qubit operation of the circuit.
#[derive(Debug, Clone)]
pub struct QvGate {
    /// The unitary.
    pub gate: Gate2,
    /// Target qubits (order matters).
    pub q0: u32,
    /// Second target.
    pub q1: u32,
}

/// A generated Quantum Volume circuit.
#[derive(Debug, Clone)]
pub struct QvCircuit {
    /// Qubit count.
    pub n_qubits: u32,
    /// All gates in application order.
    pub gates: Vec<QvGate>,
}

fn rng_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl QvCircuit {
    /// Generates the depth-`n` QV circuit for `n` qubits, deterministic
    /// in `seed`.
    pub fn generate(n_qubits: u32, seed: u64) -> QvCircuit {
        assert!(n_qubits >= 2);
        let mut st = seed | 1;
        let mut gates = Vec::new();
        let mut perm: Vec<u32> = (0..n_qubits).collect();
        for layer in 0..n_qubits {
            // Fisher-Yates shuffle.
            for i in (1..perm.len()).rev() {
                let j = (rng_next(&mut st) % (i as u64 + 1)) as usize;
                perm.swap(i, j);
            }
            for pair in 0..(n_qubits / 2) {
                let q0 = perm[2 * pair as usize];
                let q1 = perm[2 * pair as usize + 1];
                let gseed = seed
                    .wrapping_mul(1_000_003)
                    .wrapping_add((layer as u64) << 32 | pair as u64);
                gates.push(QvGate {
                    gate: Gate2::random_su4(gseed),
                    q0,
                    q1,
                });
            }
        }
        QvCircuit { n_qubits, gates }
    }

    /// Number of two-qubit gates.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the circuit is empty (never, for n ≥ 2).
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_count_is_n_times_half_n() {
        for n in [2u32, 3, 5, 8] {
            let c = QvCircuit::generate(n, 1);
            assert_eq!(c.len() as u32, n * (n / 2));
        }
    }

    #[test]
    fn qubits_are_in_range_and_distinct() {
        let c = QvCircuit::generate(7, 3);
        for g in &c.gates {
            assert!(g.q0 < 7 && g.q1 < 7);
            assert_ne!(g.q0, g.q1);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = QvCircuit::generate(5, 42);
        let b = QvCircuit::generate(5, 42);
        for (x, y) in a.gates.iter().zip(&b.gates) {
            assert_eq!((x.q0, x.q1), (y.q0, y.q1));
            assert_eq!(x.gate, y.gate);
        }
        let c = QvCircuit::generate(5, 43);
        let same_layout = a
            .gates
            .iter()
            .zip(&c.gates)
            .all(|(x, y)| (x.q0, x.q1) == (y.q0, y.q1));
        assert!(!same_layout || a.gates[0].gate != c.gates[0].gate);
    }

    #[test]
    fn each_layer_touches_disjoint_pairs() {
        let n = 8u32;
        let c = QvCircuit::generate(n, 5);
        let per_layer = (n / 2) as usize;
        for layer in c.gates.chunks(per_layer) {
            let mut seen = std::collections::BTreeSet::new();
            for g in layer {
                assert!(seen.insert(g.q0));
                assert!(seen.insert(g.q1));
            }
        }
    }
}
