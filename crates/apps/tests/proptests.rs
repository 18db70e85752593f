//! Property tests for the application suite: the blocked/metered GPU
//! algorithms must match their sequential references for arbitrary
//! inputs, under every memory mode. The row kernels of pathfinder,
//! hotspot and srad must match their scalar references bit for bit,
//! down to the smallest sizes, where a row has no interior.

use gh_apps::{bfs, hotspot, needle, pathfinder, srad, Machine, MemMode, RunReport};
use proptest::prelude::*;

fn gh200() -> Machine {
    gh_sim::platform::gh200().machine()
}

/// The bits of a run's checksum and of its reference's sum.
fn bits<T: Into<f64>>(run: RunReport, reference: Vec<T>) -> (u64, u64) {
    let expected: f64 = reference.into_iter().map(Into::into).sum();
    (run.checksum.to_bits(), expected.to_bits())
}

/// The smallest sizes on every run, not only when sampled: rows of one
/// and two columns have edge columns and no interior. (srad starts at
/// 2: a 1 × 1 image has zero variance, so its coefficients are NaN.)
#[test]
fn smallest_sizes_match_reference_bit_for_bit() {
    for seed in [0, 1, 77] {
        for mode in MemMode::ALL {
            for n in 1..=3 {
                for rows in 1..=3 {
                    let p = pathfinder::PathfinderParams {
                        rows,
                        cols: n,
                        rows_per_kernel: 2,
                        seed,
                    };
                    let (got, want) = bits(
                        pathfinder::run(gh200(), mode, &p),
                        pathfinder::reference(&p),
                    );
                    assert_eq!(got, want, "pathfinder {rows}x{n} {mode} seed {seed}");
                }
                for iterations in 1..=3 {
                    let p = hotspot::HotspotParams {
                        size: n,
                        iterations,
                        seed,
                    };
                    let (got, want) = bits(hotspot::run(gh200(), mode, &p), hotspot::reference(&p));
                    assert_eq!(got, want, "hotspot {n} x{iterations} {mode} seed {seed}");
                    if n >= 2 {
                        let p = srad::SradParams {
                            size: n,
                            iterations,
                            lambda: 0.5,
                            seed,
                        };
                        let (got, want) = bits(srad::run(gh200(), mode, &p), srad::reference(&p));
                        assert_eq!(got, want, "srad {n} x{iterations} {mode} seed {seed}");
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Needleman-Wunsch: wavefront blocking equals full DP for any
    /// sequence content and penalty.
    #[test]
    fn needle_matches_reference(seed in 0u64..1_000_000, penalty in 1i32..20,
                                blocks in 1usize..5) {
        let p = needle::NeedleParams {
            n: blocks * needle::BLOCK,
            penalty,
            seed,
        };
        let w = p.n + 1;
        let expected = needle::reference(&p)[p.n * w + p.n] as f64;
        let r = needle::run(gh_sim::platform::gh200().machine(), MemMode::System, &p);
        prop_assert_eq!(r.checksum, expected);
    }

    /// Pathfinder: batched row kernels equal the plain DP.
    #[test]
    fn pathfinder_matches_reference(seed in 0u64..1_000_000, rows in 1usize..60,
                                    cols in 1usize..50, rpk in 1usize..12) {
        let p = pathfinder::PathfinderParams {
            rows,
            cols,
            rows_per_kernel: rpk,
            seed,
        };
        let (got, want) = bits(pathfinder::run(gh200(), MemMode::Managed, &p), pathfinder::reference(&p));
        prop_assert_eq!(got, want);
    }

    /// BFS: the frontier kernels compute exact levels on any random
    /// graph shape.
    #[test]
    fn bfs_matches_reference(seed in 0u64..1_000_000, nodes in 2usize..1500,
                             degree in 1usize..8) {
        let p = bfs::BfsParams { nodes, degree, seed };
        let g = bfs::build_graph(&p);
        let expected: f64 = bfs::reference(&g)
            .iter()
            .map(|&c| if c >= 0 { c as f64 + 1.0 } else { 0.0 })
            .sum();
        let r = bfs::run(gh_sim::platform::gh200().machine(), MemMode::System, &p);
        prop_assert_eq!(r.checksum, expected);
    }

    /// Hotspot: the metered row kernels equal the scalar reference bit
    /// for bit for any grid/seed.
    #[test]
    fn hotspot_matches_reference(seed in 0u64..1_000_000, size in 1usize..48,
                                 iters in 1usize..6) {
        let p = hotspot::HotspotParams {
            size,
            iterations: iters,
            seed,
        };
        let (got, want) = bits(hotspot::run(gh200(), MemMode::Explicit, &p), hotspot::reference(&p));
        prop_assert_eq!(got, want);
    }

    /// SRAD: same, including the q0 reduction.
    #[test]
    fn srad_matches_reference(seed in 0u64..1_000_000, size in 2usize..40,
                              iters in 1usize..5) {
        let p = srad::SradParams {
            size,
            iterations: iters,
            lambda: 0.5,
            seed,
        };
        let (got, want) = bits(srad::run(gh200(), MemMode::Managed, &p), srad::reference(&p));
        prop_assert_eq!(got, want);
    }

    /// Graph construction is deterministic and structurally valid for
    /// any parameters.
    #[test]
    fn bfs_graph_structure(seed in 0u64..1_000_000, nodes in 1usize..2000,
                           degree in 1usize..10) {
        let p = bfs::BfsParams { nodes, degree, seed };
        let g = bfs::build_graph(&p);
        prop_assert_eq!(g.nodes.len(), nodes);
        let mut cursor = 0u32;
        for &(s, c) in &g.nodes {
            prop_assert_eq!(s, cursor);
            cursor += c;
        }
        prop_assert_eq!(cursor as usize, g.edges.len());
        prop_assert!(g.edges.iter().all(|&v| (v as usize) < nodes));
    }
}
