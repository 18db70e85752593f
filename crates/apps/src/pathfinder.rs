//! Pathfinder: 2-D grid dynamic programming (Rodinia).
//!
//! Row-by-row DP over a cost grid: regular but *narrow* accesses — each
//! kernel step consumes one wall row (a few KB), which is much smaller
//! than a 64 KiB page. This is exactly the shape that makes large-page
//! migration amplification visible (§5.2, Fig 7).
//!
//! `run` computes each launch's `rows_per_kernel` rows before the launch
//! that meters them, in column tiles of the result row, one tile per
//! `gh-par` chunk. A tile carries a halo of one column per row of the
//! launch on each side (Rodinia's pyramid blocking): it generates each
//! wall row over its span as it needs it, with the block form of the
//! input hash (`common::Mixer`), runs the DP over the span and keeps its
//! own columns, which the halo's edge values cannot reach. So the host never
//! holds the grid or a launch's wall rows, and any tile width gives the
//! same row. The DP step is a row kernel: the two edge columns on their
//! own, then one branch-free loop over the interior. [`reference()`] is
//! the scalar oracle; `run`'s checksum equals it exactly.

use gh_par::par_chunks_mut;
use gh_profiler::Phase;
use gh_sim::{Machine, MemMode, RunReport};

use crate::common::{mix, Mixer, UBuf};

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

/// The wall cost of hash `x`: its top 24 bits `v` modulo 10, with the
/// quotient as a multiply and a shift. `13_421_773 = ⌈2²⁷ / 10⌉` exceeds
/// `2²⁷ / 10` by `1/5`, which adds less than `1/40` to `v / 10` for any
/// `v < 2²⁴`: less than the `1/10` that any fraction of `v / 10` lacks
/// of the next integer, so the floor is exact. Both factors fit in 32
/// bits, so the loops that call this vectorise.
#[inline]
fn wall(x: u64) -> i32 {
    let v = x >> 40;
    let q = (v * 13_421_773) >> 27;
    (v - 10 * q) as i32
}

/// The wall cost of grid cell `i` (the scalar oracle of [`wall`]).
fn wall_value(seed: u64, i: u64) -> i32 {
    ((mix(seed, i) >> 40) % 10) as i32
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

/// Advances the DP row `prev` by wall rows `first..first + batch` into
/// `next`, one tile of `tile` result columns per `gh-par` chunk. A tile
/// runs the DP over its columns and `batch` halo columns on each side
/// (fewer at the grid's edges): after `t` rows a wrong value at a halo
/// edge has spread `t` columns inward, so after `batch` rows the tile's
/// own columns are exact.
fn advance(mixer: &Mixer, prev: &[i32], next: &mut [i32], first: usize, batch: usize, tile: usize) {
    let cols = prev.len();
    par_chunks_mut(next, tile, |t, out| {
        let c0 = t * tile;
        let (lo, hi) = (c0.saturating_sub(batch), (c0 + out.len() + batch).min(cols));
        let mut cur = prev[lo..hi].to_vec();
        let (mut step, mut walls) = (vec![0i32; hi - lo], vec![0i32; hi - lo]);
        for r in first..first + batch {
            mixer.fill((r * cols + lo) as u64, &mut walls, wall);
            dp_row(&walls, &cur, &mut step);
            std::mem::swap(&mut cur, &mut step);
        }
        out.copy_from_slice(&cur[c0 - lo..][..out.len()]);
    });
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
    assert!(p.rows > 0, "rows must be positive");
    assert!(p.cols > 0, "cols must be positive");
    assert!(p.rows_per_kernel > 0, "rows_per_kernel must be positive");
    let (rows, cols) = (p.rows, p.cols);
    let row_bytes = (cols * 4) as u64;
    let wall_bytes = (rows * cols * 4) as u64;

    // ---- real data: row 0 of the wall; later rows are generated per tile ----
    let mixer = Mixer::new(p.seed);
    let mut prev = vec![0i32; cols];
    mixer.fill(0, &mut prev, wall);
    let mut next = vec![0i32; cols];
    let tile = cols.div_ceil(gh_par::default_parallelism());

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
        // Real DP: this launch's rows, before the launch that meters them.
        advance(&mixer, &prev, &mut next, row, batch, tile);
        std::mem::swap(&mut prev, &mut next);
        let mut k = m.rt.launch("pathfinder_step");
        for r in row..row + batch {
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
    use crate::common::MIX_BLOCK;
    use proptest::prelude::*;

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
    fn wall_equals_the_remainder_for_every_24_bit_value() {
        for v in 0..1u64 << 24 {
            assert_eq!(wall(v << 40 | 0xff_ffff_ffff), (v % 10) as i32, "{v}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Tiled launches equal the plain DP at any tile width, including
        /// halos wider than a tile and tiles wider than the row.
        #[test]
        fn tiled_launches_match_reference(seed in 0u64..1_000_000, rows in 1usize..=300,
                                          cols in 1usize..=300, rpk in 1usize..=40,
                                          tiles in 1usize..=8) {
            let p = PathfinderParams { rows, cols, rows_per_kernel: rpk, seed };
            let mixer = Mixer::new(seed);
            let mut prev = vec![0i32; cols];
            mixer.fill(0, &mut prev, wall);
            let mut next = vec![0i32; cols];
            let mut row = 1;
            while row < rows {
                let batch = rpk.min(rows - row);
                advance(&mixer, &prev, &mut next, row, batch, cols.div_ceil(tiles));
                std::mem::swap(&mut prev, &mut next);
                row += batch;
            }
            prop_assert_eq!(prev, reference(&p));
        }

        /// The block generator equals `wall_value` over runs that start on
        /// a block edge, just before one, and cross one or more.
        #[test]
        fn block_walls_equal_wall_value(seed in 0u64..u64::MAX, block in 0u64..1 << 40,
                                        skew in 0usize..3, len in 1usize..3 * MIX_BLOCK) {
            let start = block * MIX_BLOCK as u64 - [0, 1, 7][skew].min(block * MIX_BLOCK as u64);
            let mut got = vec![0i32; len];
            Mixer::new(seed).fill(start, &mut got, wall);
            for (k, &w) in got.iter().enumerate() {
                prop_assert_eq!(w, wall_value(seed, start + k as u64), "index {}", start + k as u64);
            }
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
