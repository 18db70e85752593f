//! Hotspot: iterative thermal-simulation stencil (Rodinia).
//!
//! A regular, dense access pattern: every iteration reads the whole
//! temperature and power grids and writes the next temperature grid.
//! CPU-initialized — the canonical "init on CPU, compute on GPU" HPC
//! shape the paper's §5.1.1 discusses (Fig 4 plots this application's
//! memory profile).
//!
//! `run` updates the real grid in place, one band of rows per `gh-par`
//! chunk. Before each iteration it copies the row just above and the row
//! just below every band into a halo buffer; a band then walks its rows
//! in order, holding the old copy of the row above in a one-row buffer,
//! so every cell still reads only old values. Each row handles its first
//! and last columns on their own, then runs the interior as one
//! branch-free loop over zipped neighbour slices. [`reference()`] is the
//! scalar oracle; `run`'s checksum equals its bits. Both input grids are
//! generated on `gh-par` too, one block of the input hash per chunk
//! (`common::seeded_vec`), with the same values as the serial `seeded`.

use gh_par::par_chunks_mut;
use gh_profiler::Phase;
use gh_sim::{Machine, MemMode, RunReport};

use crate::common::{mix, seeded_vec, unit, UBuf, BAND};

/// Input parameters.
#[derive(Debug, Clone)]
pub struct HotspotParams {
    /// Grid side (paper: 16k; scaled default 1k).
    pub size: usize,
    /// Stencil iterations.
    pub iterations: usize,
    /// RNG seed for the initial grids.
    pub seed: u64,
}

impl Default for HotspotParams {
    fn default() -> Self {
        Self {
            size: 1024,
            // Rodinia's hotspot runs a handful of pyramid iterations
            // (sim_time); the paper's Fig 4 profile shows a compute phase
            // of the same order as the migration transient.
            iterations: 6,
            seed: 7,
        }
    }
}

/// Physical constants of the Rodinia kernel (values as in hotspot.cu).
const CAP: f32 = 0.5;
const RX: f32 = 1.0;
const RY: f32 = 1.0;
const RZ: f32 = 4.0;
const AMB: f32 = 80.0;

/// Deterministic pseudo-random initial condition in `[0, 1]`.
fn seeded(seed: u64, i: u64) -> f32 {
    unit(mix(seed, i))
}

/// One stencil update of row `r` into `out`.
#[expect(
    clippy::needless_range_loop,
    reason = "index math mirrors the stencil neighbourhood"
)]
fn stencil_row(t: &[f32], p: &[f32], out: &mut [f32], n: usize, r: usize) {
    for c in 0..n {
        let idx = r * n + c;
        let center = t[idx];
        let north = if r > 0 { t[idx - n] } else { center };
        let south = if r + 1 < n { t[idx + n] } else { center };
        let west = if c > 0 { t[idx - 1] } else { center };
        let east = if c + 1 < n { t[idx + 1] } else { center };
        let delta = (p[idx]
            + (north + south - 2.0 * center) / RY
            + (east + west - 2.0 * center) / RX
            + (AMB - center) / RZ)
            / CAP;
        out[c] = center + 0.001 * delta;
    }
}

/// One cell of the stencil: the next temperature of `center`.
#[inline]
fn cell(center: f32, north: f32, south: f32, east: f32, west: f32, power: f32) -> f32 {
    let delta = (power
        + (north + south - 2.0 * center) / RY
        + (east + west - 2.0 * center) / RX
        + (AMB - center) / RZ)
        / CAP;
    center + 0.001 * delta
}

/// One stencil row as a row kernel: `out` is the next row of `cur`, whose
/// neighbours are the rows `up` and `down` (`cur` itself at the border).
fn hotspot_row(up: &[f32], cur: &[f32], down: &[f32], power: &[f32], out: &mut [f32]) {
    let last = cur.len() - 1;
    out[0] = cell(cur[0], up[0], down[0], cur[1.min(last)], cur[0], power[0]);
    if last > 0 {
        out[last] = cell(
            cur[last],
            up[last],
            down[last],
            cur[last],
            cur[last - 1],
            power[last],
        );
    }
    if last > 1 {
        let ins = cur[1..last]
            .iter()
            .zip(&up[1..last])
            .zip(&down[1..last])
            .zip(&cur[2..])
            .zip(&cur[..last - 1])
            .zip(&power[1..last]);
        for (o, (((((&c, &n), &s), &e), &w), &p)) in out[1..last].iter_mut().zip(ins) {
            *o = cell(c, n, s, e, w, p);
        }
    }
}

/// One stencil iteration in place: `temp` becomes its next grid, one band
/// of [`BAND`] rows per `gh-par` chunk. `halo` holds two rows per band,
/// filled here with the old rows just above and just below the band
/// (the band's own edge rows at the grid border) before any band writes.
fn hotspot_pass(temp: &mut [f32], power: &[f32], halo: &mut [f32], n: usize) {
    let row = |r: usize| r * n..(r + 1) * n;
    for (b, h) in halo.chunks_exact_mut(2 * n).enumerate() {
        let (above, below) = h.split_at_mut(n);
        let (first, end) = (b * BAND, ((b + 1) * BAND).min(n));
        above.copy_from_slice(&temp[row(first.saturating_sub(1))]);
        below.copy_from_slice(&temp[row(end.min(n - 1))]);
    }
    let halo = &*halo;
    par_chunks_mut(temp, BAND * n, |b, band| {
        let (above, below) = halo[b * 2 * n..(b + 1) * 2 * n].split_at(n);
        // `prev` holds the old row above; `out` takes the next new row.
        let (mut prev, mut out) = (above.to_vec(), vec![0.0f32; n]);
        let rows = band.len() / n;
        for i in 0..rows {
            let down = if i + 1 < rows {
                &band[row(i + 1)]
            } else {
                below
            };
            let power = &power[row(b * BAND + i)];
            hotspot_row(&prev, &band[row(i)], down, power, &mut out);
            band[row(i)].swap_with_slice(&mut out);
            std::mem::swap(&mut prev, &mut out);
        }
    });
}

/// Sequential reference implementation (for correctness tests).
pub fn reference(p: &HotspotParams) -> Vec<f32> {
    let n = p.size;
    let mut temp: Vec<f32> = (0..n * n).map(|i| seeded(p.seed, i as u64)).collect();
    let power: Vec<f32> = (0..n * n).map(|i| seeded(p.seed + 1, i as u64)).collect();
    let mut next = vec![0.0f32; n * n];
    for _ in 0..p.iterations {
        for r in 0..n {
            stencil_row(&temp, &power, &mut next[r * n..(r + 1) * n], n, r);
        }
        std::mem::swap(&mut temp, &mut next);
    }
    temp
}

/// Bytes of the GPU-only ping-pong partner `run` takes with `cuda_malloc`
/// in every mode: one grid.
pub fn scratch_bytes(p: &HotspotParams) -> u64 {
    (p.size * p.size * 4) as u64
}

/// Runs hotspot under `mode`, returning the full report (checksum = sum
/// of the final temperature grid).
pub fn run(mut m: Machine, mode: MemMode, p: &HotspotParams) -> RunReport {
    assert!(p.size > 0, "size must be positive");
    let n = p.size;
    let bytes = (n * n * 4) as u64;

    // ---- real data ----
    let mut temp_h = seeded_vec(p.seed, n * n, unit);
    let power_h = seeded_vec(p.seed + 1, n * n, unit);
    let mut halo = vec![0.0f32; n.div_ceil(BAND) * 2 * n];

    // ---- GPU context initialization + argument parsing (phase 1) ----
    m.phase(Phase::CtxInit);
    m.rt.cuda_init();

    // ---- allocation ----
    m.phase(Phase::Alloc);
    let temp = UBuf::alloc(&mut m, mode, bytes, "hotspot.temp");
    let power = UBuf::alloc(&mut m, mode, bytes, "hotspot.power");
    // Ping-pong partner: GPU-only scratch in every version (the paper
    // keeps GPU-only intermediates in cudaMalloc).
    #[expect(
        clippy::expect_used,
        reason = "an oversized grid, or a balloon leaving less than one grid of GPU memory (checked against `AppId::device_only_bytes` before a run), is a config error; fail fast"
    )]
    let scratch =
        m.rt.cuda_malloc(gh_units::Bytes::new(scratch_bytes(p)), "hotspot.scratch")
            .expect("scaled hotspot fits in GPU memory");

    // ---- CPU-side initialization ----
    m.phase(Phase::CpuInit);
    temp.cpu_init(&mut m, 0, bytes);
    power.cpu_init(&mut m, 0, bytes);

    // ---- compute ----
    m.phase(Phase::Compute);
    temp.upload(&mut m);
    power.upload(&mut m);
    for it in 0..p.iterations {
        // Real stencil, in place over parallel row bands.
        hotspot_pass(&mut temp_h, &power_h, &mut halo, n);

        // Metered accesses: ping-pong between temp and scratch.
        let (src, dst) = if it % 2 == 0 {
            (*temp.gpu(), scratch)
        } else {
            (scratch, *temp.gpu())
        };
        let mut k = m.rt.launch("hotspot");
        k.read(&src, 0, bytes);
        k.read(power.gpu(), 0, bytes);
        k.write(&dst, 0, bytes);
        k.compute((n * n * 12) as u64);
        k.finish();
    }
    // If the final grid landed in the scratch buffer, copy it back.
    if p.iterations % 2 == 1 {
        let mut k = m.rt.launch("hotspot_copyback");
        k.read(&scratch, 0, bytes);
        k.write(temp.gpu(), 0, bytes);
        k.finish();
    }
    temp.download(&mut m, 0, bytes);

    let checksum = temp_h.iter().map(|&x| x as f64).sum::<f64>();
    m.set_checksum(checksum);

    // ---- de-allocation ----
    m.phase(Phase::Dealloc);
    m.rt.free(scratch);
    temp.free(&mut m);
    power.free(&mut m);
    m.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gh_sim::MemMode;

    fn small() -> HotspotParams {
        HotspotParams {
            size: 64,
            iterations: 5,
            seed: 3,
        }
    }

    #[test]
    fn all_modes_agree_with_reference() {
        let p = small();
        let expected: f64 = reference(&p).iter().map(|&x| x as f64).sum();
        for mode in MemMode::ALL {
            let r = run(gh_sim::platform::gh200().machine(), mode, &p);
            assert_eq!(r.checksum.to_bits(), expected.to_bits(), "{mode}");
        }
    }

    #[test]
    fn stencil_converges_toward_ambient() {
        // Starting from 0 everywhere with zero power, temperatures must
        // move toward the ambient value.
        let n = 16;
        let temp = vec![0.0f32; n * n];
        let power = vec![0.0f32; n * n];
        let mut out = vec![0.0f32; n];
        stencil_row(&temp, &power, &mut out, n, 4);
        assert!(out.iter().all(|&x| x > 0.0), "heating toward ambient");
    }

    #[test]
    fn in_place_pass_equals_stencil_row_at_band_edges() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in (1..=6).chain([BAND - 1, BAND, BAND + 1, 2 * BAND + 1]) {
            let mut want: Vec<f32> = (0..n * n).map(|i| seeded(5, i as u64)).collect();
            let p: Vec<f32> = (0..n * n).map(|i| seeded(6, i as u64)).collect();
            let mut got = want.clone();
            let mut halo = vec![0.0f32; n.div_ceil(BAND) * 2 * n];
            let mut next = vec![0.0f32; n * n];
            for it in 0..3 {
                for (r, out) in next.chunks_exact_mut(n).enumerate() {
                    stencil_row(&want, &p, out, n, r);
                }
                std::mem::swap(&mut want, &mut next);
                hotspot_pass(&mut got, &p, &mut halo, n);
                assert_eq!(bits(&got), bits(&want), "size {n}, iteration {it}");
            }
        }
    }

    #[test]
    fn parallel_grids_equal_the_serial_values() {
        for n in [1, 15, 16, 17, 256] {
            for seed in [0, 3, 0xfff, u64::MAX - 1] {
                let want: Vec<u32> = (0..n * n)
                    .map(|i| seeded(seed, i as u64).to_bits())
                    .collect();
                let got: Vec<u32> = seeded_vec(seed, n * n, unit)
                    .iter()
                    .map(|x| x.to_bits())
                    .collect();
                assert_eq!(got, want, "size {n}, seed {seed}");
            }
        }
    }

    #[test]
    fn phases_are_populated() {
        let r = run(
            gh_sim::platform::gh200().machine(),
            MemMode::System,
            &small(),
        );
        assert!(r.phases.alloc > 0);
        assert!(r.phases.cpu_init > 0);
        assert!(r.phases.compute > 0);
        assert!(r.phases.dealloc > 0);
    }

    #[test]
    fn explicit_mode_copies_managed_migrates() {
        let p = small();
        let re = run(gh_sim::platform::gh200().machine(), MemMode::Explicit, &p);
        let rm = run(gh_sim::platform::gh200().machine(), MemMode::Managed, &p);
        // Explicit: no faults, no migrations. Managed: migrations, no copies.
        assert_eq!(re.traffic.gpu_faults, 0);
        assert_eq!(re.traffic.bytes_migrated_in, 0);
        assert!(rm.traffic.bytes_migrated_in > 0);
    }

    #[test]
    fn system_mode_reads_remotely_with_migration_off() {
        let p = small();
        let machine = gh_sim::platform::gh200()
            .machine_cfg(&gh_sim::MachineConfig::without_migration())
            .unwrap();
        let r = run(machine, MemMode::System, &p);
        assert!(r.traffic.c2c_read > 0, "CPU-resident data read over C2C");
        assert_eq!(r.traffic.bytes_migrated_in, 0);
    }
}
