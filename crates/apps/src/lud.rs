//! LUD: blocked LU decomposition (Rodinia) — extension workload for the
//! future-work study. Its access pattern is distinctive: a *shrinking*
//! working set (iteration `k` touches only the trailing
//! `(n−k)×(n−k)` submatrix), so pages go cold over time — the
//! mirror-image of SRAD's stable iterative reuse, probing whether
//! delayed migration wastes effort on data that will not be re-read.

use gh_profiler::Phase;
use gh_sim::{Machine, MemMode, RunReport};

use crate::common::{mix, unit, UBuf};

/// Block edge (Rodinia uses 16).
pub const BLOCK: usize = 16;

/// Input parameters.
#[derive(Debug, Clone)]
pub struct LudParams {
    /// Matrix edge; must be a multiple of [`BLOCK`].
    pub n: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LudParams {
    fn default() -> Self {
        Self { n: 2048, seed: 57 }
    }
}

/// Generates a diagonally dominant matrix (guarantees a stable, pivot-
/// free factorization, as the Rodinia generator does).
pub fn generate(p: &LudParams) -> Vec<f32> {
    let n = p.n;
    let mut a = vec![0.0f32; n * n];
    for i in 0..n {
        for j in 0..n {
            a[i * n + j] = unit(mix(p.seed, (i * n + j) as u64));
        }
        a[i * n + i] += n as f32; // dominance
    }
    a
}

/// In-place unblocked LU (Doolittle, no pivoting) — the reference.
pub fn reference(p: &LudParams) -> Vec<f32> {
    let n = p.n;
    let mut a = generate(p);
    for k in 0..n {
        for i in k + 1..n {
            a[i * n + k] /= a[k * n + k];
            for j in k + 1..n {
                a[i * n + j] -= a[i * n + k] * a[k * n + j];
            }
        }
    }
    a
}

fn checksum_of(a: &[f32], n: usize) -> f64 {
    // Diagonal of U carries the determinant structure; it is a stable
    // fingerprint of the factorization.
    (0..n).map(|i| a[i * n + i].abs().ln() as f64).sum()
}

/// Runs blocked LUD under `mode` (checksum = Σ ln|U_ii|).
pub fn run(mut m: Machine, mode: MemMode, p: &LudParams) -> RunReport {
    assert_eq!(p.n % BLOCK, 0, "n must be a multiple of {BLOCK}");
    let n = p.n;
    let bytes = (n * n * 4) as u64;
    let mut a = generate(p);

    m.phase(Phase::CtxInit);
    m.rt.cuda_init();

    m.phase(Phase::Alloc);
    let a_buf = UBuf::alloc(&mut m, mode, bytes, "lud.matrix");

    m.phase(Phase::CpuInit);
    a_buf.cpu_init(&mut m, 0, bytes);

    m.phase(Phase::Compute);
    a_buf.upload(&mut m);
    let nb = n / BLOCK;
    let row_bytes = (n * 4) as u64;
    for kb in 0..nb {
        let k0 = kb * BLOCK;
        // Real compute: eliminate the block column/row like Rodinia's
        // diagonal, perimeter and internal kernels do, in one pass here.
        for k in k0..k0 + BLOCK {
            for i in k + 1..n {
                a[i * n + k] /= a[k * n + k];
                for j in k + 1..n {
                    a[i * n + j] -= a[i * n + k] * a[k * n + j];
                }
            }
        }
        // Metered accesses: the three Rodinia kernels touch the trailing
        // submatrix rows from k0 downward.
        let trail_rows = (n - k0) as u64;
        let trail_off = ((k0 * n + k0) * 4) as u64;
        let trail_row_bytes = ((n - k0) * 4) as u64;
        // diagonal: the k0 block on the diagonal.
        let mut k = m.rt.launch("lud_diagonal");
        k.read_strided(
            a_buf.gpu(),
            trail_off,
            (BLOCK * 4) as u64,
            row_bytes,
            BLOCK as u64,
        );
        k.write_strided(
            a_buf.gpu(),
            trail_off,
            (BLOCK * 4) as u64,
            row_bytes,
            BLOCK as u64,
        );
        k.compute((BLOCK * BLOCK * BLOCK) as u64);
        k.finish();
        // perimeter + internal: the whole trailing submatrix, row-strided.
        let mut k = m.rt.launch("lud_internal");
        k.read_strided(
            a_buf.gpu(),
            trail_off,
            trail_row_bytes,
            row_bytes,
            trail_rows,
        );
        k.write_strided(
            a_buf.gpu(),
            trail_off,
            trail_row_bytes,
            row_bytes,
            trail_rows,
        );
        k.compute(trail_rows * trail_rows * BLOCK as u64 * 2);
        k.finish();
    }
    a_buf.download(&mut m, 0, bytes);
    m.set_checksum(checksum_of(&a, n));

    m.phase(Phase::Dealloc);
    a_buf.free(&mut m);
    m.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> LudParams {
        LudParams { n: 64, seed: 3 }
    }

    #[test]
    fn all_modes_agree_with_reference() {
        let p = small();
        let expected = checksum_of(&reference(&p), p.n);
        for mode in MemMode::ALL {
            let r = run(gh_sim::platform::gh200().machine(), mode, &p);
            let rel = (r.checksum - expected).abs() / expected.abs().max(1.0);
            assert!(rel < 1e-5, "{mode}: {} vs {expected}", r.checksum);
        }
    }

    #[test]
    fn factorization_reconstructs_matrix() {
        // A = L·U (L unit-lower, U upper): verify on a small instance.
        let p = LudParams { n: 32, seed: 9 };
        let orig = generate(&p);
        let lu = reference(&p);
        let n = p.n;
        for i in 0..n {
            for j in 0..n {
                let mut sum = 0.0f64;
                for k in 0..=i.min(j) {
                    let l = if k == i { 1.0 } else { lu[i * n + k] as f64 };
                    let u = if k <= j { lu[k * n + j] as f64 } else { 0.0 };
                    if k <= i {
                        sum += l * u * if k <= j { 1.0 } else { 0.0 };
                    }
                }
                let rel =
                    (sum - orig[i * n + j] as f64).abs() / (orig[i * n + j].abs() as f64).max(1.0);
                assert!(rel < 1e-3, "A[{i}][{j}]: {sum} vs {}", orig[i * n + j]);
            }
        }
    }

    #[test]
    fn working_set_shrinks_over_iterations() {
        // The metered per-kernel traffic must decrease as the trailing
        // submatrix shrinks.
        let p = LudParams { n: 256, seed: 1 };
        let r = run(gh_sim::platform::gh200().machine(), MemMode::System, &p);
        let internals: Vec<u64> = r
            .kernel_traffic_named("lud_internal")
            .iter()
            .map(|t| t.l1l2)
            .collect();
        assert!(internals.len() > 4);
        assert!(
            internals.last().unwrap() < &(internals[0] / 4),
            "traffic must shrink: {internals:?}"
        );
    }

    #[test]
    #[should_panic(expected = "multiple of")]
    fn bad_block_multiple_panics() {
        run(
            gh_sim::platform::gh200().machine(),
            MemMode::System,
            &LudParams { n: 60, seed: 0 },
        );
    }
}
