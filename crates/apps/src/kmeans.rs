//! K-means clustering — an *extension* workload (not in the paper's
//! Table 2), added for the paper's stated future work: understanding
//! access-counter-based migration on diverse workloads. K-means is the
//! classic Rodinia iterative-reuse pattern: every iteration re-reads the
//! whole feature matrix, so delayed migration pays off like SRAD, but
//! with a *read-only* hot structure (the features never change — only
//! the small centroid table does).

use gh_par::{par_map_reduce, Grain};
use gh_profiler::Phase;
use gh_sim::{Machine, MemMode, RunReport};

use crate::common::{mix, unit, UBuf};

/// Input parameters.
#[derive(Debug, Clone)]
pub struct KmeansParams {
    /// Number of points (paper-suite scale: ~1M).
    pub points: usize,
    /// Feature dimensions.
    pub dims: usize,
    /// Cluster count.
    pub k: usize,
    /// Lloyd iterations.
    pub iterations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for KmeansParams {
    fn default() -> Self {
        Self {
            points: 1_000_000,
            dims: 16,
            k: 24,
            iterations: 8,
            seed: 41,
        }
    }
}

fn feature(seed: u64, i: u64) -> f32 {
    unit(mix(seed, i))
}

fn nearest(point: &[f32], centroids: &[f32], dims: usize) -> usize {
    let k = centroids.len() / dims;
    let mut best = 0;
    let mut best_d = f32::INFINITY;
    for c in 0..k {
        let mut d = 0.0;
        for j in 0..dims {
            let diff = point[j] - centroids[c * dims + j];
            d += diff * diff;
        }
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

struct Model {
    features: Vec<f32>,
    centroids: Vec<f32>,
    assign: Vec<u32>,
}

fn build(p: &KmeansParams) -> Model {
    let features: Vec<f32> = (0..p.points * p.dims)
        .map(|i| feature(p.seed, i as u64))
        .collect();
    // Initial centroids: the first k points.
    let centroids = features[..p.k * p.dims].to_vec();
    Model {
        features,
        centroids,
        assign: vec![0; p.points],
    }
}

fn lloyd_iteration(m: &mut Model, p: &KmeansParams) -> u64 {
    // Assignment step (parallel).
    let dims = p.dims;
    let feats = &m.features;
    let cents = &m.centroids;
    let changed: Vec<u32> = (0..p.points)
        .map(|i| nearest(&feats[i * dims..(i + 1) * dims], cents, dims) as u32)
        .collect();
    let moved = par_map_reduce(
        0..p.points,
        0u64,
        |i| u64::from(changed[i] != m.assign[i]),
        |a, b| a + b,
    );
    let _ = Grain::Auto;
    m.assign = changed;
    // Update step (sequential; tiny relative to assignment).
    let mut sums = vec![0.0f64; p.k * dims];
    let mut counts = vec![0u64; p.k];
    for i in 0..p.points {
        let c = m.assign[i] as usize;
        counts[c] += 1;
        for j in 0..dims {
            sums[c * dims + j] += m.features[i * dims + j] as f64;
        }
    }
    for c in 0..p.k {
        if counts[c] > 0 {
            for j in 0..dims {
                m.centroids[c * dims + j] = (sums[c * dims + j] / counts[c] as f64) as f32;
            }
        }
    }
    moved
}

/// Sequential reference: final centroids after all iterations.
pub fn reference(p: &KmeansParams) -> Vec<f32> {
    let mut m = build(p);
    for _ in 0..p.iterations {
        lloyd_iteration(&mut m, p);
    }
    m.centroids
}

/// Runs k-means under `mode` (checksum = Σ centroids).
pub fn run(mut m: Machine, mode: MemMode, p: &KmeansParams) -> RunReport {
    let feat_bytes = (p.points * p.dims * 4) as u64;
    let cent_bytes = (p.k * p.dims * 4) as u64;
    let assign_bytes = (p.points * 4) as u64;

    let mut model = build(p);

    m.phase(Phase::CtxInit);
    m.rt.cuda_init();

    m.phase(Phase::Alloc);
    let feat_buf = UBuf::alloc(&mut m, mode, feat_bytes, "kmeans.features");
    let cent_buf = UBuf::alloc(&mut m, mode, cent_bytes.max(4096), "kmeans.centroids");
    // Assignments are read back every iteration (the CPU update step
    // consumes them), so this is a full host↔device buffer, not scratch.
    let assign_buf = UBuf::alloc(&mut m, mode, assign_bytes, "kmeans.assign");

    m.phase(Phase::CpuInit);
    feat_buf.cpu_init(&mut m, 0, feat_bytes);
    cent_buf.cpu_init(&mut m, 0, cent_bytes);

    m.phase(Phase::Compute);
    feat_buf.upload(&mut m);
    cent_buf.upload(&mut m);
    for _ in 0..p.iterations {
        lloyd_iteration(&mut model, p);
        // Assignment kernel: stream the features, read the (tiny, hot)
        // centroid table, write assignments.
        let mut k = m.rt.launch("kmeans_assign");
        k.read(feat_buf.gpu(), 0, feat_bytes);
        k.read(cent_buf.gpu(), 0, cent_bytes);
        k.write(assign_buf.gpu(), 0, assign_bytes);
        k.compute((p.points * p.dims * p.k) as u64 / 4);
        k.finish();
        // Update step runs on the CPU: read back assignments, write the
        // new centroid table.
        assign_buf.download(&mut m, 0, assign_bytes);
        cent_buf.cpu_init(&mut m, 0, cent_bytes);
        cent_buf.upload(&mut m);
    }

    let checksum: f64 = model.centroids.iter().map(|&x| x as f64).sum();
    m.set_checksum(checksum);

    m.phase(Phase::Dealloc);
    feat_buf.free(&mut m);
    cent_buf.free(&mut m);
    assign_buf.free(&mut m);
    m.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> KmeansParams {
        KmeansParams {
            points: 3000,
            dims: 4,
            k: 5,
            iterations: 4,
            seed: 2,
        }
    }

    #[test]
    fn all_modes_agree_with_reference() {
        let p = small();
        let expected: f64 = reference(&p).iter().map(|&x| x as f64).sum();
        for mode in MemMode::ALL {
            let r = run(gh_sim::platform::gh200().machine(), mode, &p);
            let rel = (r.checksum - expected).abs() / expected.abs().max(1.0);
            assert!(rel < 1e-9, "{mode}: {} vs {expected}", r.checksum);
        }
    }

    #[test]
    fn iterations_reduce_movement() {
        let p = small();
        let mut m = build(&p);
        let first = lloyd_iteration(&mut m, &p);
        let mut last = first;
        for _ in 1..6 {
            last = lloyd_iteration(&mut m, &p);
        }
        assert!(
            last <= first,
            "assignments must stabilize: {first} → {last}"
        );
    }

    #[test]
    fn nearest_picks_closest_centroid() {
        let cents = vec![0.0, 0.0, 10.0, 10.0];
        assert_eq!(nearest(&[1.0, 1.0], &cents, 2), 0);
        assert_eq!(nearest(&[9.0, 9.0], &cents, 2), 1);
    }

    #[test]
    fn counter_migration_converges_like_srad() {
        // Future-work characterization: the read-only iterative feature
        // matrix behaves like SRAD's image under the access-counter
        // engine — remote reads decay as regions migrate, and late
        // iterations run from HBM. (The paper makes no on-vs-off
        // total-time claim; at 1:1024 scale the driver's fixed costs
        // cannot amortize, which the ablation benches quantify.)
        let p = KmeansParams {
            points: 200_000,
            dims: 16,
            k: 8,
            iterations: 10,
            seed: 3,
        };
        let r = run(gh_sim::platform::gh200().machine(), MemMode::System, &p);
        assert!(r.traffic.bytes_migrated_in > 0, "features must migrate");
        let assigns = r.kernel_traffic_named("kmeans_assign");
        let first = assigns.first().unwrap();
        let last = assigns.last().unwrap();
        assert!(first.c2c_read > 0, "iteration 1 reads remotely");
        assert!(
            last.c2c_read < first.c2c_read / 4,
            "remote reads must decay: {} → {}",
            first.c2c_read,
            last.c2c_read
        );
        assert!(last.hbm_read > first.hbm_read, "local reads must grow");
    }
}
