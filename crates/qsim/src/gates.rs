//! Two-qubit gates: Haar-random SU(4) construction and unitarity checks.

use crate::complex::C32;

/// A 4×4 unitary acting on an ordered qubit pair. Row-major.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate2 {
    /// The matrix, `m[row][col]`.
    pub m: [[C32; 4]; 4],
}

fn rng_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn rng_gauss(state: &mut u64) -> f32 {
    // Box–Muller on SplitMix uniforms.
    let u1 = ((rng_next(state) >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
    let u2 = (rng_next(state) >> 11) as f64 / (1u64 << 53) as f64;
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

impl Gate2 {
    /// The identity gate.
    pub fn identity() -> Gate2 {
        let mut m = [[C32::ZERO; 4]; 4];
        for (i, row) in m.iter_mut().enumerate() {
            row[i] = C32::ONE;
        }
        Gate2 { m }
    }

    /// CNOT with the first qubit as control (for tests with a known
    /// truth table).
    pub fn cnot() -> Gate2 {
        // Basis order |q1 q0⟩ = |00⟩,|01⟩,|10⟩,|11⟩; control = second
        // index qubit (row-major permutation swapping |10⟩ ↔ |11⟩).
        let mut m = [[C32::ZERO; 4]; 4];
        m[0][0] = C32::ONE;
        m[1][1] = C32::ONE;
        m[2][3] = C32::ONE;
        m[3][2] = C32::ONE;
        Gate2 { m }
    }

    /// Controlled-phase: adds phase e^{iθ} to |11⟩ (symmetric in its
    /// operands; the QFT's two-qubit primitive).
    pub fn controlled_phase(theta: f32) -> Gate2 {
        let mut g = Gate2::identity();
        g.m[3][3] = crate::complex::C32::new(theta.cos(), theta.sin());
        g
    }

    /// A Haar-random SU(4) unitary: Gaussian complex matrix → Gram-Schmidt
    /// (QR with phase correction). Deterministic in `seed`.
    #[expect(
        clippy::needless_range_loop,
        reason = "Gram-Schmidt indexes two columns of `cols` at once"
    )]
    pub fn random_su4(seed: u64) -> Gate2 {
        let mut st = seed.wrapping_mul(2654435761).wrapping_add(1);
        let mut cols: Vec<[C32; 4]> = (0..4)
            .map(|_| {
                [
                    C32::new(rng_gauss(&mut st), rng_gauss(&mut st)),
                    C32::new(rng_gauss(&mut st), rng_gauss(&mut st)),
                    C32::new(rng_gauss(&mut st), rng_gauss(&mut st)),
                    C32::new(rng_gauss(&mut st), rng_gauss(&mut st)),
                ]
            })
            .collect();
        // Modified Gram-Schmidt.
        for i in 0..4 {
            for j in 0..i {
                let proj: C32 = (0..4)
                    .map(|k| cols[j][k].conj() * cols[i][k])
                    .fold(C32::ZERO, |a, b| a + b);
                for k in 0..4 {
                    let d = proj * cols[j][k];
                    cols[i][k] = cols[i][k] - d;
                }
            }
            let norm: f32 = cols[i].iter().map(|z| z.norm_sqr()).sum::<f32>().sqrt();
            assert!(norm > 1e-6, "degenerate random matrix (seed {seed})");
            for k in 0..4 {
                cols[i][k] = cols[i][k].scale(1.0 / norm);
            }
        }
        let mut m = [[C32::ZERO; 4]; 4];
        for (c, col) in cols.iter().enumerate() {
            for r in 0..4 {
                m[r][c] = col[r];
            }
        }
        Gate2 { m }
    }

    /// Max deviation of `U† U` from the identity.
    pub fn unitarity_error(&self) -> f32 {
        let mut worst = 0.0f32;
        for i in 0..4 {
            for j in 0..4 {
                let mut dot = C32::ZERO;
                for k in 0..4 {
                    dot += self.m[k][i].conj() * self.m[k][j];
                }
                let expect = if i == j { 1.0 } else { 0.0 };
                worst = worst.max((dot.re - expect).abs()).max(dot.im.abs());
            }
        }
        worst
    }

    /// Applies the gate to a 4-amplitude group (in the gate's basis
    /// order).
    #[inline]
    pub fn apply(&self, v: [C32; 4]) -> [C32; 4] {
        let mut out = [C32::ZERO; 4];
        for (r, row) in self.m.iter().enumerate() {
            let mut acc = C32::ZERO;
            for (c, g) in row.iter().enumerate() {
                acc += *g * v[c];
            }
            out[r] = acc;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_preserves_vectors() {
        let g = Gate2::identity();
        let v = [
            C32::new(0.1, 0.2),
            C32::new(0.3, -0.4),
            C32::new(-0.5, 0.6),
            C32::new(0.7, 0.0),
        ];
        assert_eq!(g.apply(v), v);
        assert!(g.unitarity_error() < 1e-7);
    }

    #[test]
    fn cnot_truth_table() {
        let g = Gate2::cnot();
        // |10⟩ → |11⟩
        let v = [C32::ZERO, C32::ZERO, C32::ONE, C32::ZERO];
        let out = g.apply(v);
        assert_eq!(out[3], C32::ONE);
        assert_eq!(out[2], C32::ZERO);
        assert!(g.unitarity_error() < 1e-7);
    }

    #[test]
    fn random_su4_is_unitary() {
        for seed in 0..50 {
            let g = Gate2::random_su4(seed);
            assert!(
                g.unitarity_error() < 1e-4,
                "seed {seed}: error {}",
                g.unitarity_error()
            );
        }
    }

    #[test]
    fn random_su4_is_deterministic_and_seed_sensitive() {
        assert_eq!(Gate2::random_su4(7), Gate2::random_su4(7));
        assert_ne!(Gate2::random_su4(7), Gate2::random_su4(8));
    }

    #[test]
    fn gate_application_preserves_norm() {
        let g = Gate2::random_su4(42);
        let v = [
            C32::new(0.5, 0.0),
            C32::new(0.0, 0.5),
            C32::new(0.5, 0.0),
            C32::new(0.0, 0.5),
        ];
        let before: f32 = v.iter().map(|z| z.norm_sqr()).sum();
        let after: f32 = g.apply(v).iter().map(|z| z.norm_sqr()).sum();
        assert!((before - after).abs() < 1e-5);
    }
}
