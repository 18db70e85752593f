//! The statevector and exact gate application.

use crate::complex::C32;
use crate::gates::Gate2;
use gh_par::{default_parallelism, par_chunks_mut, par_map_reduce};

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
    /// and in parallel. Basis order inside a group is |q1 q0⟩. One kernel
    /// serves every pair: it steps two groups at a time on interleaved
    /// complex pairs, and the amplitudes are bit-identical to
    /// [`Gate2::apply`]'s on each group (see `row`).
    pub fn apply_gate2(&mut self, g: &Gate2, q0: u32, q1: u32) {
        assert!(q0 < self.n && q1 < self.n && q0 != q1, "bad qubit pair");
        let lo = q0.min(q1);
        // The streams' gate order swaps when `q0` is the upper qubit.
        let kernel: fn(Split, usize, Claim<'_>) = match (lo, q0 == lo) {
            (0, true) => apply_claim::<true, false>,
            (0, false) => apply_claim::<true, true>,
            (_, true) => apply_claim::<false, false>,
            (_, false) => apply_claim::<false, true>,
        };
        let m = Split::new(g);
        let run = 1usize << lo;
        for_each_bit_pair(&mut self.amps, q0.max(q1), 2 * run, |claim| {
            kernel(m, run, claim)
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

/// The amplitudes one claim of [`for_each_bit_pair`] owns.
pub(crate) enum Claim<'a> {
    /// Whole blocks of `2 · half` amplitudes, the bit clear in the first
    /// half of each.
    Blocks { amps: &'a mut [C32], half: usize },
    /// Equally long pieces of one block's clear and set halves.
    Halves(&'a mut [C32], &'a mut [C32]),
}

impl Claim<'_> {
    /// Calls `f(clear, set)` on the claim's slice pairs, in which
    /// `clear[k]` and `set[k]` differ only in the bit.
    pub(crate) fn for_each_pair(self, mut f: impl FnMut(&mut [C32], &mut [C32])) {
        match self {
            Claim::Blocks { amps, half } => {
                for block in amps.chunks_exact_mut(2 * half) {
                    let (clear, set) = block.split_at_mut(half);
                    f(clear, set);
                }
            }
            Claim::Halves(clear, set) => f(clear, set),
        }
    }
}

/// Runs `kernel` once per claim, in parallel over disjoint claims that
/// together cover `amps`, pairing the amplitudes of indices `i` and
/// `i | 1 << bit`. `min_piece` is a power of two no larger than
/// `1 << bit`; every slice a claim holds starts and ends on a multiple of
/// it, so a kernel sees whole runs of that length.
pub(crate) fn for_each_bit_pair<K>(amps: &mut [C32], bit: u32, min_piece: usize, kernel: K)
where
    K: Fn(Claim<'_>) + Sync,
{
    let half = 1usize << bit;
    debug_assert!(min_piece.is_power_of_two() && min_piece <= half);
    let target = (amps.len() / (8 * default_parallelism())).max(1);
    let piece = (1usize << target.ilog2()).max(MIN_PIECE).max(min_piece);
    if half <= piece {
        // A claim takes whole blocks of `2 · half` amplitudes.
        par_chunks_mut(amps, 2 * piece, |_, amps| {
            kernel(Claim::Blocks { amps, half });
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
                kernel(Claim::Halves(clear, set));
            }
        });
    }
}

/// A [`Gate2`] split for [`row`]: lane `l` of `re[r][c]` and `im[r][c]`
/// multiplies lane `l` of column `c`'s stream vector and of its pair swap.
#[derive(Debug, Clone, Copy)]
struct Split {
    /// `[m.re; 4]`.
    re: [[[f32; 4]; 4]; 4],
    /// `[-m.im, m.im, -m.im, m.im]`.
    im: [[[f32; 4]; 4]; 4],
}

impl Split {
    fn new(g: &Gate2) -> Split {
        Split {
            re: g.m.map(|row| row.map(|z| [z.re; 4])),
            im: g.m.map(|row| row.map(|z| [-z.im, z.im, -z.im, z.im])),
        }
    }
}

/// A stream vector: one stream's amplitude in each of two groups,
/// `[re₀, im₀, re₁, im₁]`.
type Vector = [f32; 4];

/// Applies `m` to two groups, given as their four streams in memory
/// order: upper bit clear with the lower bit clear, then set; then the
/// same with the upper bit set. Each stream is an adjacent pair of
/// amplitudes, one per group. `SWAP` puts the streams in the gate's basis
/// order, which it does when `q0` is the upper qubit.
#[inline(always)]
fn step<const SWAP: bool>(m: &Split, streams: [&mut [C32; 2]; 4]) {
    let [c0, c1, s0, s1] = streams;
    let [a, b, c, d] = if SWAP {
        [c0, s0, c1, s1]
    } else {
        [c0, c1, s0, s1]
    };
    let v = [vector(a), vector(b), vector(c), vector(d)];
    // Storing each row as soon as it is summed keeps the compiler's
    // vectors one row wide: its four lanes in one register.
    *a = amplitudes(row(m, 0, v));
    *b = amplitudes(row(m, 1, v));
    *c = amplitudes(row(m, 2, v));
    *d = amplitudes(row(m, 3, v));
}

/// [`step`] for lower qubit 0. There the two adjacent pairs of a side hold
/// `c₀ c₁ | c₀' c₁'`, so their middle amplitudes swap to form the streams,
/// and swap back. `pairs` holds the two pairs with the upper bit clear,
/// then the two with it set.
#[inline(always)]
fn step_lo0<const SWAP: bool>(m: &Split, pairs: [&mut [C32; 2]; 4]) {
    let [x0, x1, y0, y1] = pairs;
    let [c0, c1] = swap_middle([vector(x0), vector(x1)]);
    let [s0, s1] = swap_middle([vector(y0), vector(y1)]);
    let v = if SWAP {
        [c0, s0, c1, s1]
    } else {
        [c0, c1, s0, s1]
    };
    let out = [row(m, 0, v), row(m, 1, v), row(m, 2, v), row(m, 3, v)];
    let [c0, s0, c1, s1] = if SWAP {
        out
    } else {
        let [c0, c1, s0, s1] = out;
        [c0, s0, c1, s1]
    };
    let [a, b] = swap_middle([c0, c1]);
    let [c, d] = swap_middle([s0, s1]);
    *x0 = amplitudes(a);
    *x1 = amplitudes(b);
    *y0 = amplitudes(c);
    *y1 = amplitudes(d);
}

/// Row `r` of `m` applied to the streams `v`, in the gate's basis order.
///
/// `w = [im₀, re₀, im₁, re₁]` is a stream vector's pair swap. The
/// accumulator starts at 0 and takes
/// `acc[l] += re[r][c][l]·v[c][l] + im[r][c][l]·w[c][l]` for `c = 0..4`.
/// That is [`Gate2::apply`] operation for operation. In IEEE-754,
/// `(-a)·b = -(a·b)` and `x + (-y) = x - y` exactly, so the real lanes
/// compute `g.re·vr - g.im·vi` and the imaginary lanes `g.re·vi + g.im·vr`,
/// in `C32`'s order. There is no fused multiply-add and no
/// reassociation, so every amplitude keeps its bits.
#[inline(always)]
fn row(m: &Split, r: usize, v: [Vector; 4]) -> Vector {
    let mut acc = [0.0; 4];
    for (((re, im), v), [r0, i0, r1, i1]) in m.re[r].iter().zip(&m.im[r]).zip(v).zip(v) {
        acc = lanes(acc, *re, v, *im, [i0, r0, i1, r1]);
    }
    acc
}

/// `acc + (a·v + b·w)`, lane by lane. Spelled out per lane, each step of
/// the formula compiles to one vector operation.
#[inline(always)]
fn lanes(acc: Vector, a: Vector, v: Vector, b: Vector, w: Vector) -> Vector {
    [
        acc[0] + (a[0] * v[0] + b[0] * w[0]),
        acc[1] + (a[1] * v[1] + b[1] * w[1]),
        acc[2] + (a[2] * v[2] + b[2] * w[2]),
        acc[3] + (a[3] * v[3] + b[3] * w[3]),
    ]
}

/// The stream vector of an adjacent pair of amplitudes.
#[inline(always)]
fn vector([a, b]: &[C32; 2]) -> Vector {
    [a.re, a.im, b.re, b.im]
}

/// The amplitudes of stream vector `v`.
#[inline(always)]
fn amplitudes(v: Vector) -> [C32; 2] {
    [C32::new(v[0], v[1]), C32::new(v[2], v[3])]
}

/// Swaps the middle amplitudes of two stream vectors, `[a₀ a₁] [b₀ b₁]`
/// to `[a₀ b₀] [a₁ b₁]`. It is its own inverse.
#[inline(always)]
fn swap_middle([a, b]: [Vector; 2]) -> [Vector; 2] {
    [[a[0], a[1], b[0], b[1]], [a[2], a[3], b[2], b[3]]]
}

/// [`step`] or [`step_lo0`], as `LO0` says.
#[inline(always)]
fn step_pairs<const LO0: bool, const SWAP: bool>(m: &Split, pairs: [&mut [C32; 2]; 4]) {
    if LO0 {
        step_lo0::<SWAP>(m, pairs);
    } else {
        step::<SWAP>(m, pairs);
    }
}

/// [`step_pairs`] over equally long pieces `clear` and `set` of a block's
/// two halves, whole runs of `2 · run` amplitudes each.
#[inline(always)]
fn step_halves<const LO0: bool, const SWAP: bool>(
    m: &Split,
    run: usize,
    clear: &mut [C32],
    set: &mut [C32],
) {
    if run <= 2 {
        // A 4-amplitude window of each side holds two groups.
        let xs = clear.as_chunks_mut::<2>().0.as_chunks_mut::<2>().0;
        let ys = set.as_chunks_mut::<2>().0.as_chunks_mut::<2>().0;
        for (x, y) in xs.iter_mut().zip(ys) {
            let ([x0, x1], [y0, y1]) = (x.each_mut(), y.each_mut());
            step_pairs::<LO0, SWAP>(m, [x0, x1, y0, y1]);
        }
        return;
    }
    // Lower qubit 2 and up: a stream's consecutive groups are adjacent.
    for (c, s) in clear
        .chunks_exact_mut(2 * run)
        .zip(set.chunks_exact_mut(2 * run))
    {
        let (c0, c1) = c.split_at_mut(run);
        let (s0, s1) = s.split_at_mut(run);
        let [c0, c1, s0, s1] = [c0, c1, s0, s1].map(|s| s.as_chunks_mut::<2>().0);
        for (((a, b), c), d) in c0.iter_mut().zip(c1).zip(s0).zip(s1) {
            step_pairs::<LO0, SWAP>(m, [a, b, c, d]);
        }
    }
}

/// Applies `m` to one claim, two groups per [`step`]. `LO0` says the
/// lower qubit is 0, and `run` is `1 << lower qubit`. The split gate comes
/// by value, so the loops read a private copy.
#[inline(never)]
fn apply_claim<const LO0: bool, const SWAP: bool>(m: Split, run: usize, claim: Claim<'_>) {
    match claim {
        // Upper qubits 1 and 2: eight amplitudes hold two groups.
        Claim::Blocks { amps, half } if half <= 4 => {
            let (windows, tail) = amps.as_chunks_mut::<2>().0.as_chunks_mut::<4>();
            for w in windows {
                let [p0, p1, p2, p3] = w.each_mut();
                // Upper qubit 1 puts two whole blocks `c₀ c₁ | s₀ s₁` here.
                let pairs = if half == 2 {
                    [p0, p2, p1, p3]
                } else {
                    [p0, p1, p2, p3]
                };
                step_pairs::<LO0, SWAP>(&m, pairs);
            }
            // A 2-qubit state is one group: it runs beside a zero group.
            if let [c, s] = tail {
                let mut zero = [[C32::ZERO; 2]; 2];
                let [z0, z1] = zero.each_mut();
                step_pairs::<LO0, SWAP>(&m, [c, z0, s, z1]);
            }
        }
        Claim::Blocks { amps, half } => {
            for block in amps.chunks_exact_mut(2 * half) {
                let (clear, set) = block.split_at_mut(half);
                step_halves::<LO0, SWAP>(&m, run, clear, set);
            }
        }
        Claim::Halves(clear, set) => step_halves::<LO0, SWAP>(&m, run, clear, set),
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
