//! The statevector and exact gate application.

use crate::complex::C32;
use crate::gates::Gate2;
use gh_par::{default_parallelism, par_chunks_mut, par_map_reduce};

/// Groups one lane-blocked step of [`StateVector::apply_gate2`] handles:
/// four `f32`s fill a 128-bit vector register.
const LANES: usize = 4;

/// The fewest amplitudes per side that a gate kernel hands one claim:
/// 1024 two-qubit groups, which outweigh the claim.
const MIN_PIECE: usize = 2048;

/// An `n`-qubit statevector of `2^n` single-precision amplitudes.
#[derive(Debug, Clone)]
pub struct StateVector {
    n: u32,
    amps: Vec<C32>,
}

impl StateVector {
    /// |0…0⟩ on `n` qubits.
    pub fn zero_state(n: u32) -> StateVector {
        assert!(n >= 2, "need at least 2 qubits for 2-qubit gates");
        assert!(n <= 30, "statevector would not fit in host memory");
        let mut amps = vec![C32::ZERO; 1usize << n];
        amps[0] = C32::ONE;
        StateVector { n, amps }
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> u32 {
        self.n
    }

    /// Amplitude of a basis state.
    pub fn amp(&self, basis: usize) -> C32 {
        self.amps[basis]
    }

    /// The amplitudes slice.
    pub fn amps(&self) -> &[C32] {
        &self.amps
    }

    /// Mutable amplitudes (gate kernels).
    pub(crate) fn amps_mut(&mut self) -> &mut [C32] {
        &mut self.amps
    }

    /// Draws `shots` measurement outcomes (basis-state indices) from the
    /// state's distribution, deterministically in `seed`.
    pub fn sample(&self, seed: u64, shots: usize) -> Vec<usize> {
        // Prefix sums + binary search per shot.
        let mut cdf = Vec::with_capacity(self.amps.len());
        let mut acc = 0.0f64;
        for a in &self.amps {
            acc += a.norm_sqr() as f64;
            cdf.push(acc);
        }
        let total = acc.max(f64::MIN_POSITIVE);
        let mut st = seed | 1;
        (0..shots)
            .map(|_| {
                st = st.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = st;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                let u = ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64 * total;
                cdf.partition_point(|&c| c < u).min(self.amps.len() - 1)
            })
            .collect()
    }

    /// Σ|aᵢ|² — must stay 1 under unitary evolution.
    pub fn norm_sqr(&self) -> f64 {
        par_map_reduce(
            0..self.amps.len(),
            0.0f64,
            |i| self.amps[i].norm_sqr() as f64,
            |a, b| a + b,
        )
    }

    /// Applies a two-qubit gate to qubits `(q0, q1)`, `q0 != q1`, exactly
    /// and in parallel. Basis order inside a group is |q1 q0⟩.
    pub fn apply_gate2(&mut self, g: &Gate2, q0: u32, q1: u32) {
        assert!(q0 < self.n && q1 < self.n && q0 != q1, "bad qubit pair");
        let lo = q0.min(q1);
        let run = 1usize << lo;
        for_each_bit_pair(&mut self.amps, q0.max(q1), 2 * run, |clear, set| {
            // Bit `lo` alternates in runs of `run` amplitudes on both sides.
            for (c, s) in clear
                .chunks_exact_mut(2 * run)
                .zip(set.chunks_exact_mut(2 * run))
            {
                let (c0, c1) = c.split_at_mut(run);
                let (s0, s1) = s.split_at_mut(run);
                // The group's four streams in the gate's basis order.
                let streams = if q0 == lo {
                    [c0, c1, s0, s1]
                } else {
                    [c0, s0, c1, s1]
                };
                if run >= LANES {
                    apply_lanes(&g.m, streams);
                } else {
                    let [v0, v1, v2, v3] = streams;
                    for (((a, b), c), d) in v0.iter_mut().zip(v1).zip(v2).zip(v3) {
                        [*a, *b, *c, *d] = g.apply([*a, *b, *c, *d]);
                    }
                }
            }
        });
    }

    /// Measurement probability of `basis`.
    pub fn probability(&self, basis: usize) -> f64 {
        self.amps[basis].norm_sqr() as f64
    }

    /// A scalar fingerprint of the state for cross-version checks.
    pub fn checksum(&self) -> f64 {
        par_map_reduce(
            0..self.amps.len(),
            0.0f64,
            |i| {
                let a = self.amps[i];
                (a.re as f64) * ((i % 97) as f64 + 1.0) + (a.im as f64) * ((i % 89) as f64 + 1.0)
            },
            |a, b| a + b,
        )
    }
}

/// Runs `kernel(clear, set)` in parallel over disjoint, equally long
/// slice pairs of `amps`: `clear[k]` and `set[k]` are the amplitudes of
/// indices `i` and `i | 1 << bit`. `min_piece` is a power of two no larger
/// than `1 << bit`; every slice starts and ends on a multiple of it, so a
/// kernel sees whole runs of that length.
pub(crate) fn for_each_bit_pair<K>(amps: &mut [C32], bit: u32, min_piece: usize, kernel: K)
where
    K: Fn(&mut [C32], &mut [C32]) + Sync,
{
    let half = 1usize << bit;
    debug_assert!(min_piece.is_power_of_two() && min_piece <= half);
    let target = (amps.len() / (8 * default_parallelism())).max(1);
    let piece = (1usize << target.ilog2()).max(MIN_PIECE).max(min_piece);
    if half <= piece {
        // A claim takes whole blocks of `2 · half` amplitudes.
        par_chunks_mut(amps, 2 * piece, |_, chunk| {
            for block in chunk.chunks_exact_mut(2 * half) {
                let (clear, set) = block.split_at_mut(half);
                kernel(clear, set);
            }
        });
    } else {
        // A claim takes one piece from each half of a block.
        let mut pairs: Vec<_> = amps
            .chunks_exact_mut(2 * half)
            .flat_map(|block| {
                let (clear, set) = block.split_at_mut(half);
                clear
                    .chunks_exact_mut(piece)
                    .zip(set.chunks_exact_mut(piece))
            })
            .collect();
        par_chunks_mut(&mut pairs, 1, |_, pairs| {
            for (clear, set) in pairs {
                kernel(clear, set);
            }
        });
    }
}

/// Applies `m` to [`LANES`] groups per step. Each lane repeats
/// [`Gate2::apply`]'s operations in its order (`acc = 0`, then
/// `acc += m[r][c] · v[c]` for `c = 0..4`, no fused multiply-add), so the
/// amplitudes are bit-identical to the per-group loop's.
fn apply_lanes(m: &[[C32; 4]; 4], streams: [&mut [C32]; 4]) {
    let [s0, s1, s2, s3] = streams.map(|s| s.as_chunks_mut::<LANES>().0);
    for (((x0, x1), x2), x3) in s0.iter_mut().zip(s1).zip(s2).zip(s3) {
        let xs = [x0, x1, x2, x3];
        let mut re = [[0.0f32; LANES]; 4];
        let mut im = [[0.0f32; LANES]; 4];
        for (c, x) in xs.iter().enumerate() {
            for (l, z) in x.iter().enumerate() {
                re[c][l] = z.re;
                im[c][l] = z.im;
            }
        }
        for (row, x) in m.iter().zip(xs) {
            let mut acc_re = [0.0f32; LANES];
            let mut acc_im = [0.0f32; LANES];
            for (g, (vr, vi)) in row.iter().zip(re.iter().zip(&im)) {
                for l in 0..LANES {
                    acc_re[l] += g.re * vr[l] - g.im * vi[l];
                    acc_im[l] += g.re * vi[l] + g.im * vr[l];
                }
            }
            for (l, z) in x.iter_mut().enumerate() {
                *z = C32::new(acc_re[l], acc_im[l]);
            }
        }
    }
}

/// Dense reference application (exponential; tests only): builds the full
/// `2^n × 2^n` operator for the gate and multiplies.
pub fn apply_gate2_dense(state: &[C32], g: &Gate2, q0: u32, q1: u32, n: u32) -> Vec<C32> {
    let dim = 1usize << n;
    let (b0, b1) = (1usize << q0, 1usize << q1);
    let mut out = vec![C32::ZERO; dim];
    for (row, o) in out.iter_mut().enumerate() {
        let r_sub = (((row & b1) != 0) as usize) << 1 | ((row & b0) != 0) as usize;
        let rest = row & !(b0 | b1);
        for c_sub in 0..4 {
            let col =
                rest | if c_sub & 1 != 0 { b0 } else { 0 } | if c_sub & 2 != 0 { b1 } else { 0 };
            *o += g.m[r_sub][c_sub] * state[col];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: C32, b: C32) -> bool {
        (a.re - b.re).abs() < 1e-5 && (a.im - b.im).abs() < 1e-5
    }

    #[test]
    fn zero_state_is_normalized() {
        let s = StateVector::zero_state(5);
        assert_eq!(s.amp(0), C32::ONE);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cnot_on_zero_state_is_identity() {
        let mut s = StateVector::zero_state(3);
        s.apply_gate2(&Gate2::cnot(), 0, 1);
        assert!(close(s.amp(0), C32::ONE));
    }

    #[test]
    fn matches_dense_reference_on_random_gates() {
        for n in [2u32, 3, 4, 5] {
            for seed in 0..5u64 {
                let g = Gate2::random_su4(seed);
                let q0 = (seed % n as u64) as u32;
                let q1 = ((seed + 1) % n as u64) as u32;
                if q0 == q1 {
                    continue;
                }
                let mut s = StateVector::zero_state(n);
                // Scramble with a first gate so the state is non-trivial.
                let pre = Gate2::random_su4(seed + 100);
                s.apply_gate2(&pre, 0, 1);
                let dense_in = s.amps().to_vec();
                let expected = apply_gate2_dense(&dense_in, &g, q0, q1, n);
                s.apply_gate2(&g, q0, q1);
                for (i, want) in expected.iter().enumerate() {
                    assert!(
                        close(s.amp(i), *want),
                        "n={n} seed={seed} q=({q0},{q1}) i={i}: {:?} vs {:?}",
                        s.amp(i),
                        want
                    );
                }
            }
        }
    }

    #[test]
    fn norm_preserved_under_random_circuit() {
        let mut s = StateVector::zero_state(8);
        for seed in 0..30u64 {
            let g = Gate2::random_su4(seed);
            let q0 = (seed % 8) as u32;
            let q1 = ((seed * 5 + 3) % 8) as u32;
            if q0 != q1 {
                s.apply_gate2(&g, q0, q1);
            }
        }
        assert!((s.norm_sqr() - 1.0).abs() < 1e-3, "norm {}", s.norm_sqr());
    }

    #[test]
    fn qubit_order_matters_for_asymmetric_gates() {
        // CNOT(control=q1, target=q0): flipping operand order changes the
        // result on |01⟩ vs |10⟩ states.
        let pre = Gate2::random_su4(9);
        let mut a = StateVector::zero_state(2);
        a.apply_gate2(&pre, 0, 1);
        let mut b = a.clone();
        a.apply_gate2(&Gate2::cnot(), 0, 1);
        b.apply_gate2(&Gate2::cnot(), 1, 0);
        let differs = (0..4).any(|i| !close(a.amp(i), b.amp(i)));
        assert!(differs);
    }

    #[test]
    #[should_panic(expected = "bad qubit pair")]
    fn same_qubit_pair_panics() {
        let mut s = StateVector::zero_state(3);
        s.apply_gate2(&Gate2::identity(), 1, 1);
    }

    #[test]
    fn checksum_distinguishes_states() {
        let mut a = StateVector::zero_state(6);
        let b = StateVector::zero_state(6);
        a.apply_gate2(&Gate2::random_su4(3), 2, 4);
        assert_ne!(a.checksum(), b.checksum());
    }
}
