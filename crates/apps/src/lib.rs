//! `gh-apps` — the paper's application suite (Table 2), minus Qiskit
//! (which lives in `gh-qsim`).
//!
//! Five Rodinia applications, each implemented as the *real algorithm*
//! (verified against a sequential reference) whose buffer accesses are
//! metered by the simulated Grace Hopper memory system:
//!
//! | app         | pattern   | default input (scaled 1:1024 from paper) |
//! |-------------|-----------|-------------------------------------------|
//! | needle      | irregular | 2048 × 2048 (paper: 32k × 32k)             |
//! | pathfinder  | regular   | 5000 × 2000 (paper: 100k × 20k)            |
//! | bfs         | mixed     | 1M nodes    (paper: 16M nodes)             |
//! | hotspot     | regular   | 1024 × 1024 (paper: 16k × 16k)             |
//! | srad        | irregular | 1800 × 1800 (paper: 20k × 20k)             |
//!
//! Every application comes in the paper's three variants ([`MemMode`]):
//! the original explicit-copy version, the system-allocated version and
//! the CUDA-managed version, derived with the same mechanical
//! transformation as the paper's Figure 2 (replace copy-pairs with a
//! single unified buffer; keep GPU-only scratch in `cudaMalloc`; add
//! device synchronization where copies used to synchronize).
//!
//! srad, hotspot and pathfinder compute their real arithmetic as row
//! kernels: each row handles its edge columns on their own and runs the
//! interior as one branch-free loop. srad's two stencils and hotspot's
//! run their rows in parallel on `gh-par`; pathfinder's DP rows depend
//! on each other and run in order. Each module's `reference()` is the
//! scalar oracle these kernels equal bit for bit. pathfinder generates
//! its input rows on the fly, a launch's rows just before that launch,
//! instead of holding the whole grid on the host.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod bfs;
pub mod common;
pub mod hotspot;
pub mod kmeans;
pub mod lud;
pub mod micro;
pub mod needle;
pub mod pathfinder;
pub mod srad;

pub use common::UBuf;
pub use gh_sim::{Machine, MemMode, RunReport};

/// Identifies one application of the suite (Qiskit excluded — see
/// `gh-qsim`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AppId {
    /// Needleman-Wunsch sequence alignment.
    Needle,
    /// 2-D grid dynamic-programming pathfinding.
    Pathfinder,
    /// Breadth-first search.
    Bfs,
    /// Thermal simulation stencil.
    Hotspot,
    /// Speckle-reducing anisotropic diffusion.
    Srad,
}

impl AppId {
    /// All five Rodinia applications.
    pub const ALL: [AppId; 5] = [
        AppId::Needle,
        AppId::Pathfinder,
        AppId::Bfs,
        AppId::Hotspot,
        AppId::Srad,
    ];

    /// Lowercase name as used in figures.
    pub fn name(self) -> &'static str {
        match self {
            AppId::Needle => "needle",
            AppId::Pathfinder => "pathfinder",
            AppId::Bfs => "bfs",
            AppId::Hotspot => "hotspot",
            AppId::Srad => "srad",
        }
    }

    /// Access pattern per the paper's Table 2.
    pub fn pattern(self) -> &'static str {
        match self {
            AppId::Needle | AppId::Srad => "irregular",
            AppId::Pathfinder | AppId::Hotspot => "regular",
            AppId::Bfs => "mixed",
        }
    }

    /// Runs the application with its default (scaled) input on `machine`.
    pub fn run(self, machine: Machine, mode: MemMode) -> RunReport {
        match self {
            AppId::Needle => needle::run(machine, mode, &needle::NeedleParams::default()),
            AppId::Pathfinder => {
                pathfinder::run(machine, mode, &pathfinder::PathfinderParams::default())
            }
            AppId::Bfs => bfs::run(machine, mode, &bfs::BfsParams::default()),
            AppId::Hotspot => hotspot::run(machine, mode, &hotspot::HotspotParams::default()),
            AppId::Srad => srad::run(machine, mode, &srad::SradParams::default()),
        }
    }

    /// Runs with inputs shrunk in linear dimension (for fast tests).
    pub fn run_small(self, machine: Machine, mode: MemMode) -> RunReport {
        match self {
            AppId::Needle => needle::run(
                machine,
                mode,
                &needle::NeedleParams {
                    n: 256,
                    ..Default::default()
                },
            ),
            AppId::Pathfinder => pathfinder::run(
                machine,
                mode,
                &pathfinder::PathfinderParams {
                    rows: 500,
                    cols: 400,
                    ..Default::default()
                },
            ),
            AppId::Bfs => bfs::run(
                machine,
                mode,
                &bfs::BfsParams {
                    nodes: 20_000,
                    ..Default::default()
                },
            ),
            AppId::Hotspot => hotspot::run(
                machine,
                mode,
                &hotspot::HotspotParams {
                    size: 256,
                    iterations: 8,
                    ..Default::default()
                },
            ),
            AppId::Srad => srad::run(
                machine,
                mode,
                &srad::SradParams {
                    size: 256,
                    iterations: 4,
                    ..Default::default()
                },
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_patterns_match_table2() {
        assert_eq!(AppId::ALL.len(), 5);
        assert_eq!(AppId::Needle.pattern(), "irregular");
        assert_eq!(AppId::Pathfinder.pattern(), "regular");
        assert_eq!(AppId::Bfs.pattern(), "mixed");
        assert_eq!(AppId::Hotspot.pattern(), "regular");
        assert_eq!(AppId::Srad.pattern(), "irregular");
    }
}
