//! Single-qubit gates and their exact application.

use crate::complex::C32;
use crate::state::{for_each_bit_pair, StateVector};

/// A 2×2 unitary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate1 {
    /// Matrix, `m[row][col]`.
    pub m: [[C32; 2]; 2],
}

const FRAC_1_SQRT_2: f32 = std::f32::consts::FRAC_1_SQRT_2;

impl Gate1 {
    /// Identity.
    pub fn identity() -> Gate1 {
        Gate1 {
            m: [[C32::ONE, C32::ZERO], [C32::ZERO, C32::ONE]],
        }
    }

    /// Hadamard.
    pub fn h() -> Gate1 {
        let s = C32::new(FRAC_1_SQRT_2, 0.0);
        Gate1 {
            m: [[s, s], [s, s.scale(-1.0)]],
        }
    }

    /// Pauli-X (NOT).
    pub fn x() -> Gate1 {
        Gate1 {
            m: [[C32::ZERO, C32::ONE], [C32::ONE, C32::ZERO]],
        }
    }

    /// Pauli-Z.
    pub fn z() -> Gate1 {
        Gate1 {
            m: [[C32::ONE, C32::ZERO], [C32::ZERO, C32::new(-1.0, 0.0)]],
        }
    }

    /// Z-rotation by `theta` radians.
    pub fn rz(theta: f32) -> Gate1 {
        let half = theta / 2.0;
        Gate1 {
            m: [
                [C32::new(half.cos(), -half.sin()), C32::ZERO],
                [C32::ZERO, C32::new(half.cos(), half.sin())],
            ],
        }
    }

    /// Controlled-phase angle gate's diagonal phase factor e^{iθ}
    /// (used by QFT); as a plain 1q phase gate.
    pub fn phase(theta: f32) -> Gate1 {
        Gate1 {
            m: [
                [C32::ONE, C32::ZERO],
                [C32::ZERO, C32::new(theta.cos(), theta.sin())],
            ],
        }
    }

    /// Max deviation of `U†U` from identity.
    pub fn unitarity_error(&self) -> f32 {
        let mut worst = 0.0f32;
        for i in 0..2 {
            for j in 0..2 {
                let mut dot = C32::ZERO;
                for k in 0..2 {
                    dot += self.m[k][i].conj() * self.m[k][j];
                }
                let expect = if i == j { 1.0 } else { 0.0 };
                worst = worst.max((dot.re - expect).abs()).max(dot.im.abs());
            }
        }
        worst
    }
}

impl StateVector {
    /// Applies a single-qubit gate to qubit `q`, exactly and in parallel.
    pub fn apply_gate1(&mut self, g: &Gate1, q: u32) {
        assert!(q < self.n_qubits(), "qubit out of range");
        let m = g.m;
        for_each_bit_pair(self.amps_mut(), q, 1, |claim| {
            claim.for_each_pair(|clear, set| {
                for (a, b) in clear.iter_mut().zip(set) {
                    (*a, *b) = (m[0][0] * *a + m[0][1] * *b, m[1][0] * *a + m[1][1] * *b);
                }
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: C32, b: C32) -> bool {
        (a.re - b.re).abs() < 1e-5 && (a.im - b.im).abs() < 1e-5
    }

    #[test]
    fn standard_gates_are_unitary() {
        for g in [
            Gate1::identity(),
            Gate1::h(),
            Gate1::x(),
            Gate1::z(),
            Gate1::rz(0.7),
            Gate1::phase(1.3),
        ] {
            assert!(g.unitarity_error() < 1e-6);
        }
    }

    #[test]
    fn x_flips_basis_state() {
        let mut s = StateVector::zero_state(3);
        s.apply_gate1(&Gate1::x(), 1);
        assert!(close(s.amp(0b010), C32::ONE));
        assert!(close(s.amp(0), C32::ZERO));
    }

    #[test]
    fn h_creates_equal_superposition() {
        let mut s = StateVector::zero_state(2);
        s.apply_gate1(&Gate1::h(), 0);
        assert!((s.probability(0) - 0.5).abs() < 1e-6);
        assert!((s.probability(1) - 0.5).abs() < 1e-6);
        // H is self-inverse.
        s.apply_gate1(&Gate1::h(), 0);
        assert!(close(s.amp(0), C32::ONE));
    }

    #[test]
    fn z_phases_only_the_one_component() {
        let mut s = StateVector::zero_state(2);
        s.apply_gate1(&Gate1::h(), 0);
        s.apply_gate1(&Gate1::z(), 0);
        assert!(close(s.amp(0), C32::new(FRAC_1_SQRT_2, 0.0)));
        assert!(close(s.amp(1), C32::new(-FRAC_1_SQRT_2, 0.0)));
    }

    #[test]
    fn rz_preserves_probabilities() {
        let mut s = StateVector::zero_state(2);
        s.apply_gate1(&Gate1::h(), 1);
        let p_before: Vec<f64> = (0..4).map(|i| s.probability(i)).collect();
        s.apply_gate1(&Gate1::rz(0.9), 1);
        for (i, p) in p_before.iter().enumerate() {
            assert!((s.probability(i) - p).abs() < 1e-6);
        }
    }

    #[test]
    fn gate1_on_high_qubit() {
        let mut s = StateVector::zero_state(10);
        s.apply_gate1(&Gate1::x(), 9);
        assert!((s.probability(1 << 9) - 1.0).abs() < 1e-6);
    }
}
