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
//! interior as one branch-free loop. srad (both stencils fused) and
//! hotspot (in place) run bands of rows in parallel on `gh-par`;
//! pathfinder's DP rows depend on each other and run in order. Each
//! module's `reference()` is the scalar oracle these kernels equal bit
//! for bit. pathfinder generates its input rows on the fly, a launch's
//! rows just before that launch, instead of holding the whole grid on
//! the host, and needle reads scores from per-row tables instead of the
//! reference matrix. needle's DP and bfs's expansion of the next level
//! run on a `gh-par` worker while the calling thread meters
//! (`gh_par::join`).

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::iter_over_hash_type,
    clippy::allow_attributes_without_reason
)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

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
            AppId::Pathfinder => pathfinder::run(machine, mode, &pathfinder_params(false)),
            AppId::Bfs => bfs::run(machine, mode, &bfs::BfsParams::default()),
            AppId::Hotspot => hotspot::run(machine, mode, &hotspot_params(false)),
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
            AppId::Pathfinder => pathfinder::run(machine, mode, &pathfinder_params(true)),
            AppId::Bfs => bfs::run(
                machine,
                mode,
                &bfs::BfsParams {
                    nodes: 20_000,
                    ..Default::default()
                },
            ),
            AppId::Hotspot => hotspot::run(machine, mode, &hotspot_params(true)),
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

    /// The GPU memory a system- or managed-memory run (of `run_small`'s
    /// input when `small`) takes with `cuda_malloc`, rounded up to
    /// `gpu_page` bytes as `cuda_malloc` rounds it: the one buffer the
    /// original code kept GPU-only, if any, which no eviction can make
    /// room for. A balloon that leaves less free makes the run's
    /// `cuda_malloc` fail.
    pub fn device_only_bytes(self, small: bool, gpu_page: u64) -> u64 {
        let bytes = match self {
            AppId::Pathfinder => pathfinder::result_bytes(&pathfinder_params(small)),
            AppId::Hotspot => hotspot::scratch_bytes(&hotspot_params(small)),
            AppId::Needle | AppId::Bfs | AppId::Srad => 0,
        };
        bytes.div_ceil(gpu_page) * gpu_page
    }
}

/// pathfinder's input for [`AppId::run`], or [`AppId::run_small`] when
/// `small`.
fn pathfinder_params(small: bool) -> pathfinder::PathfinderParams {
    if small {
        pathfinder::PathfinderParams {
            rows: 500,
            cols: 400,
            ..Default::default()
        }
    } else {
        pathfinder::PathfinderParams::default()
    }
}

/// hotspot's input for [`AppId::run`], or [`AppId::run_small`] when
/// `small`.
fn hotspot_params(small: bool) -> hotspot::HotspotParams {
    if small {
        hotspot::HotspotParams {
            size: 256,
            iterations: 8,
            ..Default::default()
        }
    } else {
        hotspot::HotspotParams::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_only_bytes_is_what_a_run_takes_with_cuda_malloc() {
        // A balloon leaves between `free` and one GPU page more free: a
        // run fits exactly when `free` covers its device-only bytes.
        let run = |app: AppId, mode, free: u64| {
            let mut m = gh_sim::platform::gh200().machine();
            m.oversubscribe(free, 1.0);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| app.run_small(m, mode)))
                .is_ok()
        };
        let gpu_page = gh_sim::platform::gh200()
            .machine()
            .rt
            .params()
            .gpu_page_size;
        for app in AppId::ALL {
            let need = app.device_only_bytes(true, gpu_page);
            for mode in [MemMode::System, MemMode::Managed] {
                assert!(run(app, mode, need), "{} {mode} fits", app.name());
                if need > 0 {
                    let less = need - gpu_page;
                    assert!(!run(app, mode, less), "{} {mode} needs more", app.name());
                }
            }
        }
        let full = |app: AppId| app.device_only_bytes(false, gpu_page);
        assert_eq!(full(AppId::Hotspot), 4 << 20, "one 1024² f32 grid");
        assert_eq!(full(AppId::Pathfinder), gpu_page, "two rows in one page");
    }

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
