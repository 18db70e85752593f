//! Pathfinder: 2-D grid dynamic programming (Rodinia).
//!
//! Row-by-row DP over a cost grid: regular but *narrow* accesses — each
//! kernel step consumes one wall row (a few KB), which is much smaller
//! than a 64 KiB page. This is exactly the shape that makes large-page
//! migration amplification visible (§5.2, Fig 7).
//!
//! `run` generates the wall rows of each launch just before that launch,
//! one row per `gh-par` chunk, into one reused buffer of
//! `rows_per_kernel` rows, so the host never holds the whole grid and
//! input generation stays outside the kernel.
//! The DP step is a row kernel: the two edge columns on their own, then
//! one branch-free loop over the interior. [`reference()`] is the scalar
//! oracle; `run`'s checksum equals it exactly.

use gh_par::par_chunks_mut;
use gh_profiler::Phase;
use gh_sim::{Machine, MemMode, RunReport};

use crate::common::UBuf;

/// Input parameters.
#[derive(Debug, Clone)]
pub struct PathfinderParams {
    /// Number of grid rows (paper: 100k; scaled default 5k).
    pub rows: usize,
    /// Number of grid columns (paper: 20k; scaled default 2k).
    pub cols: usize,
    /// Rows processed per kernel launch (Rodinia's pyramid height).
    pub rows_per_kernel: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PathfinderParams {
    fn default() -> Self {
        Self {
            rows: 5000,
            cols: 2000,
            rows_per_kernel: 20,
            seed: 11,
        }
    }
}

fn wall_value(seed: u64, i: u64) -> i32 {
    let x = (seed ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((x >> 40) % 10) as i32
}

fn dp_step(wall_row: &[i32], prev: &[i32], out: &mut [i32]) {
    let n = prev.len();
    for j in 0..n {
        let left = if j > 0 { prev[j - 1] } else { i32::MAX };
        let right = if j + 1 < n { prev[j + 1] } else { i32::MAX };
        out[j] = wall_row[j] + prev[j].min(left).min(right);
    }
}

/// `dp_step` as a row kernel: the edge columns have one neighbour each,
/// the interior reads `prev.windows(3)`.
fn dp_row(wall_row: &[i32], prev: &[i32], out: &mut [i32]) {
    let last = prev.len() - 1;
    out[0] = wall_row[0] + prev[0].min(prev[1.min(last)]);
    if last > 0 {
        out[last] = wall_row[last] + prev[last].min(prev[last - 1]);
    }
    if last > 1 {
        for ((o, &w), win) in out[1..last]
            .iter_mut()
            .zip(&wall_row[1..last])
            .zip(prev.windows(3))
        {
            *o = w + win[1].min(win[0]).min(win[2]);
        }
    }
}

/// Sequential reference: final DP row.
pub fn reference(p: &PathfinderParams) -> Vec<i32> {
    let (r, c) = (p.rows, p.cols);
    let mut prev: Vec<i32> = (0..c).map(|j| wall_value(p.seed, j as u64)).collect();
    let mut out = vec![0i32; c];
    for i in 1..r {
        let row: Vec<i32> = (0..c)
            .map(|j| wall_value(p.seed, (i * c + j) as u64))
            .collect();
        dp_step(&row, &prev, &mut out);
        std::mem::swap(&mut prev, &mut out);
    }
    prev
}

/// Bytes of the two GPU-only result rows `run` takes with `cuda_malloc`
/// in every mode.
pub fn result_bytes(p: &PathfinderParams) -> u64 {
    (2 * p.cols * 4) as u64
}

/// Runs pathfinder under `mode` (checksum = sum of the final DP row).
pub fn run(mut m: Machine, mode: MemMode, p: &PathfinderParams) -> RunReport {
    let (rows, cols) = (p.rows, p.cols);
    let row_bytes = (cols * 4) as u64;
    let wall_bytes = (rows * cols * 4) as u64;

    // ---- real data: row 0 of the wall; later rows are generated per launch ----
    let mut prev: Vec<i32> = (0..cols).map(|j| wall_value(p.seed, j as u64)).collect();
    let mut next = vec![0i32; cols];
    let mut walls = vec![0i32; p.rows_per_kernel.min(rows) * cols];

    // ---- GPU context initialization + argument parsing (phase 1) ----
    m.phase(Phase::CtxInit);
    m.rt.cuda_init();

    // ---- allocation ----
    m.phase(Phase::Alloc);
    let wall_buf = UBuf::alloc(&mut m, mode, wall_bytes, "pathfinder.wall");
    // Two result rows ping-pong on the GPU (GPU-only in all versions).
    #[expect(
        clippy::expect_used,
        reason = "a balloon leaving less than two rows of GPU memory is a usage error, checked against `AppId::device_only_bytes` before a run"
    )]
    let result =
        m.rt.cuda_malloc(gh_units::Bytes::new(result_bytes(p)), "pathfinder.result")
            .expect("two rows always fit");

    // ---- CPU-side initialization ----
    m.phase(Phase::CpuInit);
    wall_buf.cpu_init(&mut m, 0, wall_bytes);

    // ---- compute ----
    m.phase(Phase::Compute);
    wall_buf.upload(&mut m);
    // Seed row: row 0 of the wall becomes the initial result row.
    {
        let mut k = m.rt.launch("pathfinder_seed");
        k.read(wall_buf.gpu(), 0, row_bytes);
        k.write(&result, 0, row_bytes);
        k.finish();
    }
    let mut row = 1usize;
    let mut flip = 0u64;
    while row < rows {
        let batch = p.rows_per_kernel.min(rows - row);
        // Host input: this launch's wall rows, generated outside the kernel.
        let walls = &mut walls[..batch * cols];
        par_chunks_mut(walls, cols, |i, wall_row| {
            let first = (row + i) * cols;
            for (j, w) in wall_row.iter_mut().enumerate() {
                *w = wall_value(p.seed, (first + j) as u64);
            }
        });
        let mut k = m.rt.launch("pathfinder_step");
        for (i, wall_row) in walls.chunks_exact(cols).enumerate() {
            let r = row + i;
            // Real DP.
            dp_row(wall_row, &prev, &mut next);
            std::mem::swap(&mut prev, &mut next);
            // Metered: one narrow wall row + result row ping-pong.
            k.read(wall_buf.gpu(), (r * cols * 4) as u64, row_bytes);
            k.read(&result, flip * row_bytes, row_bytes);
            flip ^= 1;
            k.write(&result, flip * row_bytes, row_bytes);
        }
        k.compute((batch * cols * 4) as u64);
        k.finish();
        row += batch;
    }
    // `result` is a GPU-only cudaMalloc buffer in all three variants, so
    // every variant copies the final row to the host, as Rodinia does.
    {
        let host_row =
            m.rt.malloc_system(gh_units::Bytes::new(row_bytes), "pathfinder.out");
        m.rt.memcpy(&host_row, 0, &result, flip * row_bytes, row_bytes);
        m.rt.free(host_row);
    }

    let checksum = prev.iter().map(|&x| x as f64).sum::<f64>();
    m.set_checksum(checksum);

    // ---- de-allocation ----
    m.phase(Phase::Dealloc);
    m.rt.free(result);
    wall_buf.free(&mut m);
    m.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> PathfinderParams {
        PathfinderParams {
            rows: 100,
            cols: 64,
            rows_per_kernel: 10,
            seed: 5,
        }
    }

    #[test]
    fn all_modes_agree_with_reference() {
        let p = small();
        let expected: f64 = reference(&p).iter().map(|&x| x as f64).sum();
        for mode in MemMode::ALL {
            let r = run(gh_sim::platform::gh200().machine(), mode, &p);
            assert_eq!(r.checksum, expected, "{mode}");
        }
    }

    #[test]
    fn dp_step_picks_minimum_neighbour() {
        let prev = vec![5, 1, 9];
        let wall = vec![2, 2, 2];
        let mut out = vec![0; 3];
        dp_step(&wall, &prev, &mut out);
        assert_eq!(out, vec![3, 3, 3]);
    }

    #[test]
    fn dp_row_equals_dp_step_at_every_width() {
        for n in 1..=6 {
            let prev: Vec<i32> = (0..n).map(|j| wall_value(3, j as u64)).collect();
            let wall: Vec<i32> = (0..n).map(|j| wall_value(4, j as u64)).collect();
            let (mut a, mut b) = (vec![0; n], vec![0; n]);
            dp_step(&wall, &prev, &mut a);
            dp_row(&wall, &prev, &mut b);
            assert_eq!(a, b, "width {n}");
        }
    }

    #[test]
    fn reference_monotone_costs() {
        // All wall values are ≥ 0, so DP values never decrease with rows.
        let p = small();
        let last = reference(&p);
        assert!(last.iter().all(|&x| x >= 0));
    }

    #[test]
    fn narrow_rows_touch_few_bytes_per_kernel() {
        // The per-step wall read is one row = cols × 4 bytes; with the
        // default input this is far below one 64 KiB page — the
        // amplification setup of Fig 7.
        let p = PathfinderParams::default();
        assert!((p.cols * 4) < 64 * 1024);
    }
}
