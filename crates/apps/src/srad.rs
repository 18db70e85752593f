//! SRAD: Speckle-Reducing Anisotropic Diffusion (Rodinia).
//!
//! The paper's access-counter-migration showcase (§6, Fig 10): an
//! iterative two-kernel pipeline over the same working set. The image
//! `J` is CPU-initialized (so it starts CPU-resident and migrates to the
//! GPU over the first iterations under the access-counter engine), while
//! the derivative/coefficient arrays are *GPU-first-touched* in iteration
//! 1 (the §5.1.2 GPU-side-initialization cost for system memory).
//!
//! `run` computes the real image as row kernels on `gh-par`: each row
//! handles its first and last columns on their own, then runs the
//! interior as one branch-free loop over zipped neighbour slices.
//! [`reference`] is the scalar oracle; `run`'s checksum equals its bits.

use gh_par::par_chunks_mut;
use gh_profiler::Phase;
use gh_sim::{Machine, MemMode, RunReport};

use crate::common::UBuf;

/// Input parameters.
#[derive(Debug, Clone)]
pub struct SradParams {
    /// Image side (paper: 20k; scaled default 1800 so the six buffers
    /// total ~78 MiB — in-memory on the 96 MiB GPU, thrashing under
    /// oversubscription).
    pub size: usize,
    /// Diffusion iterations (paper's Fig 10 uses 12).
    pub iterations: usize,
    /// Diffusion rate λ.
    pub lambda: f32,
    /// RNG seed for the image.
    pub seed: u64,
}

impl Default for SradParams {
    fn default() -> Self {
        Self {
            size: 1800,
            iterations: 12,
            lambda: 0.5,
            seed: 23,
        }
    }
}

fn image_value(seed: u64, i: u64) -> f32 {
    let x = (seed ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let u = ((x >> 11) as f64 / (1u64 << 53) as f64) as f32;
    (u * 0.5 + 0.25).exp() // exp(image) as Rodinia does
}

struct Grids {
    j: Vec<f32>,
    dn: Vec<f32>,
    ds: Vec<f32>,
    de: Vec<f32>,
    dw: Vec<f32>,
    c: Vec<f32>,
}

fn q0sqr(j: &[f32]) -> f32 {
    let n = j.len() as f32;
    // One pass, two accumulators, each summed in index order from the
    // identity `f32: Sum` starts at. A parallel sum would change the bits.
    let (sum, sum2) = j
        .iter()
        .fold((-0.0f32, -0.0f32), |(s, s2), &x| (s + x, s2 + x * x));
    let mean = sum / n;
    let var = (sum2 / n) - mean * mean;
    var / (mean * mean)
}

fn srad1(g: &mut Grids, n: usize, q0: f32) {
    let j = &g.j;
    for r in 0..n {
        for col in 0..n {
            let i = r * n + col;
            let jc = j[i];
            let jn = if r > 0 { j[i - n] } else { jc };
            let js = if r + 1 < n { j[i + n] } else { jc };
            let jw = if col > 0 { j[i - 1] } else { jc };
            let je = if col + 1 < n { j[i + 1] } else { jc };
            let dn = jn - jc;
            let ds = js - jc;
            let dw = jw - jc;
            let de = je - jc;
            let g2 = (dn * dn + ds * ds + dw * dw + de * de) / (jc * jc);
            let l = (dn + ds + dw + de) / jc;
            let num = 0.5 * g2 - (1.0 / 16.0) * l * l;
            let den = 1.0 + 0.25 * l;
            let qsqr = num / (den * den);
            let cden = (qsqr - q0) / (q0 * (1.0 + q0));
            let cval = (1.0 / (1.0 + cden)).clamp(0.0, 1.0);
            g.dn[i] = dn;
            g.ds[i] = ds;
            g.dw[i] = dw;
            g.de[i] = de;
            g.c[i] = cval;
        }
    }
}

#[allow(clippy::needless_range_loop)] // index math mirrors the stencil neighbourhood
fn srad2(g: &mut Grids, n: usize, lambda: f32) {
    // Row-parallel J update; reads c of south/east neighbours.
    let (dn, ds, dw, de, c) = (&g.dn, &g.ds, &g.dw, &g.de, &g.c);
    par_chunks_mut(&mut g.j, n, |r, jrow| {
        for col in 0..n {
            let i = r * n + col;
            let cn = c[i];
            let cw = c[i];
            let cs = if r + 1 < n { c[i + n] } else { c[i] };
            let ce = if col + 1 < n { c[i + 1] } else { c[i] };
            let d = cn * dn[i] + cs * ds[i] + cw * dw[i] + ce * de[i];
            jrow[col] += 0.25 * lambda * d;
        }
    });
}

/// One pixel of `srad1`: the four neighbour differences of centre `jc`
/// and its diffusion coefficient, `[dN, dS, dW, dE, c]`.
#[inline]
fn coeff(jc: f32, jn: f32, js: f32, jw: f32, je: f32, q0: f32) -> [f32; 5] {
    let dn = jn - jc;
    let ds = js - jc;
    let dw = jw - jc;
    let de = je - jc;
    let g2 = (dn * dn + ds * ds + dw * dw + de * de) / (jc * jc);
    let l = (dn + ds + dw + de) / jc;
    let num = 0.5 * g2 - (1.0 / 16.0) * l * l;
    let den = 1.0 + 0.25 * l;
    let qsqr = num / (den * den);
    let cden = (qsqr - q0) / (q0 * (1.0 + q0));
    let cval = (1.0 / (1.0 + cden)).clamp(0.0, 1.0);
    [dn, ds, dw, de, cval]
}

/// One pixel of `srad2`: the increment to `J` from the pixel's own
/// coefficient `c`, its south and east neighbours' and its differences.
#[inline]
fn flux(c: f32, cs: f32, ce: f32, dn: f32, ds: f32, dw: f32, de: f32) -> f32 {
    c * dn + cs * ds + c * dw + ce * de
}

/// Splits one plane row, `dN | dS | dW | dE | c` of `n` values each.
fn split_planes(row: &[f32], n: usize) -> [&[f32]; 5] {
    let (dn, rest) = row.split_at(n);
    let (ds, rest) = rest.split_at(n);
    let (dw, rest) = rest.split_at(n);
    let (de, c) = rest.split_at(n);
    [dn, ds, dw, de, c]
}

/// `srad1` as row kernels: writes `planes` (row `r` holds
/// `dN | dS | dW | dE | c`) from image rows `r - 1`, `r` and `r + 1`.
fn srad1_rows(j: &[f32], planes: &mut [f32], n: usize, q0: f32) {
    par_chunks_mut(planes, 5 * n, |r, out| {
        let row = |r: usize| &j[r * n..(r + 1) * n];
        let (up, cur, down) = (row(r.saturating_sub(1)), row(r), row((r + 1).min(n - 1)));
        let (dn, rest) = out.split_at_mut(n);
        let (ds, rest) = rest.split_at_mut(n);
        let (dw, rest) = rest.split_at_mut(n);
        let (de, c) = rest.split_at_mut(n);
        let mut put = |col: usize, jw: f32, je: f32| {
            [dn[col], ds[col], dw[col], de[col], c[col]] =
                coeff(cur[col], up[col], down[col], jw, je, q0);
        };
        let last = n - 1;
        put(0, cur[0], cur[1.min(last)]);
        if last > 0 {
            put(last, cur[last - 1], cur[last]);
        }
        if last > 1 {
            let outs = dn[1..last]
                .iter_mut()
                .zip(&mut ds[1..last])
                .zip(&mut dw[1..last])
                .zip(&mut de[1..last])
                .zip(&mut c[1..last]);
            let ins = cur[1..last]
                .iter()
                .zip(&up[1..last])
                .zip(&down[1..last])
                .zip(&cur[..last - 1])
                .zip(&cur[2..]);
            for (((((dn, ds), dw), de), c), ((((&jc, &jn), &js), &jw), &je)) in outs.zip(ins) {
                [*dn, *ds, *dw, *de, *c] = coeff(jc, jn, js, jw, je, q0);
            }
        }
    });
}

/// `srad2` as row kernels: updates image row `r` from plane rows `r`
/// and `r + 1` (the south neighbour's coefficient).
fn srad2_rows(planes: &[f32], j: &mut [f32], n: usize, lambda: f32) {
    let rate = 0.25 * lambda;
    par_chunks_mut(j, n, |r, jrow| {
        let row = |r: usize| split_planes(&planes[r * 5 * n..(r + 1) * 5 * n], n);
        let [dn, ds, dw, de, c] = row(r);
        let south = row((r + 1).min(n - 1))[4];
        let last = n - 1;
        // The last column is its own east neighbour.
        jrow[last] += rate
            * flux(
                c[last],
                south[last],
                c[last],
                dn[last],
                ds[last],
                dw[last],
                de[last],
            );
        let ins = c[..last]
            .iter()
            .zip(&south[..last])
            .zip(&c[1..])
            .zip(&dn[..last])
            .zip(&ds[..last])
            .zip(&dw[..last])
            .zip(&de[..last]);
        for (jv, ((((((&c, &cs), &ce), &dn), &ds), &dw), &de)) in jrow[..last].iter_mut().zip(ins) {
            *jv += rate * flux(c, cs, ce, dn, ds, dw, de);
        }
    });
}

/// Sequential reference: final image after all iterations.
pub fn reference(p: &SradParams) -> Vec<f32> {
    let n = p.size;
    let mut g = Grids {
        j: (0..n * n).map(|i| image_value(p.seed, i as u64)).collect(),
        dn: vec![0.0; n * n],
        ds: vec![0.0; n * n],
        de: vec![0.0; n * n],
        dw: vec![0.0; n * n],
        c: vec![0.0; n * n],
    };
    for _ in 0..p.iterations {
        let q0 = q0sqr(&g.j);
        srad1(&mut g, n, q0);
        srad2(&mut g, n, p.lambda);
    }
    g.j
}

/// Runs SRAD under `mode` (checksum = sum of the final image).
pub fn run(mut m: Machine, mode: MemMode, p: &SradParams) -> RunReport {
    let n = p.size;
    let bytes = (n * n * 4) as u64;

    // ---- real data ----
    let mut j: Vec<f32> = (0..n * n).map(|i| image_value(p.seed, i as u64)).collect();
    let mut planes = vec![0.0f32; 5 * n * n];

    // ---- GPU context initialization + argument parsing (phase 1) ----
    m.phase(Phase::CtxInit);
    m.rt.cuda_init();

    // ---- allocation ----
    m.phase(Phase::Alloc);
    let j_buf = UBuf::alloc(&mut m, mode, bytes, "srad.J");
    let dn_buf = UBuf::alloc_gpu_scratch(&mut m, mode, bytes, "srad.dN");
    let ds_buf = UBuf::alloc_gpu_scratch(&mut m, mode, bytes, "srad.dS");
    let de_buf = UBuf::alloc_gpu_scratch(&mut m, mode, bytes, "srad.dE");
    let dw_buf = UBuf::alloc_gpu_scratch(&mut m, mode, bytes, "srad.dW");
    let c_buf = UBuf::alloc_gpu_scratch(&mut m, mode, bytes, "srad.c");

    // ---- CPU-side initialization (the image only) ----
    m.phase(Phase::CpuInit);
    j_buf.cpu_init(&mut m, 0, bytes);

    // ---- compute ----
    m.phase(Phase::Compute);
    j_buf.upload(&mut m);
    for _ in 0..p.iterations {
        srad1_rows(&j, &mut planes, n, q0sqr(&j));
        {
            let mut k = m.rt.launch("srad1");
            k.read(j_buf.gpu(), 0, bytes);
            k.write(dn_buf.gpu(), 0, bytes);
            k.write(ds_buf.gpu(), 0, bytes);
            k.write(de_buf.gpu(), 0, bytes);
            k.write(dw_buf.gpu(), 0, bytes);
            k.write(c_buf.gpu(), 0, bytes);
            k.compute((n * n * 30) as u64);
            k.finish();
        }
        srad2_rows(&planes, &mut j, n, p.lambda);
        {
            let mut k = m.rt.launch("srad2");
            k.read(dn_buf.gpu(), 0, bytes);
            k.read(ds_buf.gpu(), 0, bytes);
            k.read(de_buf.gpu(), 0, bytes);
            k.read(dw_buf.gpu(), 0, bytes);
            k.read(c_buf.gpu(), 0, bytes);
            k.read(j_buf.gpu(), 0, bytes);
            k.write(j_buf.gpu(), 0, bytes);
            k.compute((n * n * 12) as u64);
            k.finish();
        }
    }
    j_buf.download(&mut m, 0, bytes);

    let checksum = j.iter().map(|&x| x as f64).sum::<f64>();
    m.set_checksum(checksum);

    // ---- de-allocation ----
    m.phase(Phase::Dealloc);
    j_buf.free(&mut m);
    dn_buf.free(&mut m);
    ds_buf.free(&mut m);
    de_buf.free(&mut m);
    dw_buf.free(&mut m);
    c_buf.free(&mut m);
    m.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SradParams {
        SradParams {
            size: 64,
            iterations: 4,
            lambda: 0.5,
            seed: 2,
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
    fn diffusion_smooths_the_image() {
        let p = small();
        let n = p.size;
        let before: Vec<f32> = (0..n * n).map(|i| image_value(p.seed, i as u64)).collect();
        let after = reference(&p);
        let var = |v: &[f32]| {
            let m = v.iter().sum::<f32>() / v.len() as f32;
            v.iter().map(|&x| (x - m) * (x - m)).sum::<f32>() / v.len() as f32
        };
        assert!(var(&after) < var(&before), "diffusion must reduce variance");
    }

    #[test]
    fn q0sqr_of_constant_image_is_zero() {
        let j = vec![2.0f32; 100];
        assert!(q0sqr(&j).abs() < 1e-6);
    }

    #[test]
    fn coefficients_stay_in_unit_range() {
        let p = small();
        let n = p.size;
        let mut g = Grids {
            j: (0..n * n).map(|i| image_value(p.seed, i as u64)).collect(),
            dn: vec![0.0; n * n],
            ds: vec![0.0; n * n],
            de: vec![0.0; n * n],
            dw: vec![0.0; n * n],
            c: vec![0.0; n * n],
        };
        let q0 = q0sqr(&g.j);
        srad1(&mut g, n, q0);
        assert!(g.c.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn row_kernels_equal_the_scalar_stencils_at_every_width() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (q0, lambda) = (0.05, 0.5);
        for n in 1..=6 {
            let j: Vec<f32> = (0..n * n).map(|i| image_value(5, i as u64)).collect();
            let mut g = Grids {
                j: j.clone(),
                dn: vec![0.0; n * n],
                ds: vec![0.0; n * n],
                de: vec![0.0; n * n],
                dw: vec![0.0; n * n],
                c: vec![0.0; n * n],
            };
            srad1(&mut g, n, q0);
            let mut planes = vec![0.0; 5 * n * n];
            srad1_rows(&j, &mut planes, n, q0);
            for r in 0..n {
                let row = split_planes(&planes[r * 5 * n..(r + 1) * 5 * n], n);
                for (plane, want) in row.iter().zip([&g.dn, &g.ds, &g.dw, &g.de, &g.c]) {
                    assert_eq!(bits(plane), bits(&want[r * n..(r + 1) * n]), "width {n}");
                }
            }
            srad2(&mut g, n, lambda);
            let mut j = j;
            srad2_rows(&planes, &mut j, n, lambda);
            assert_eq!(bits(&j), bits(&g.j), "width {n}");
        }
    }

    #[test]
    fn system_mode_gpu_first_touch_happens_for_derivatives() {
        let p = small();
        let r = run(gh_sim::platform::gh200().machine(), MemMode::System, &p);
        assert!(
            r.traffic.ats_faults > 0,
            "derivative arrays must be GPU-first-touched"
        );
    }
}
