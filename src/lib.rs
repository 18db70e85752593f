//! `grace-mem` — a Grace Hopper unified-memory characterization framework.
//!
//! This umbrella crate re-exports the whole workspace: a discrete-cost
//! simulator of the NVIDIA GH200's integrated CPU-GPU memory system, the
//! six-application suite of the ICPP 2024 paper *"Harnessing Integrated
//! CPU-GPU System Memory for HPC: a first look into Grace Hopper"*, and
//! the experiment harnesses that regenerate every figure of its
//! evaluation.
//!
//! Quick start:
//!
//! ```
//! use grace_mem::{platform, MemMode, Phase};
//!
//! // Boot a simulated GH200 (480 MiB + 96 MiB, 1:1024 scale). The
//! // platform registry also knows the MI300A unified-pool machine:
//! // `platform::by_name("mi300a")`.
//! let mut m = platform::gh200().machine();
//!
//! // Allocate system memory (malloc) — no CUDA context involved.
//! m.phase(Phase::Alloc);
//! let buf = m.rt.malloc_system(gh_units::Bytes::new(8 << 20), "data");
//!
//! // Initialize on the CPU (first touch places pages in LPDDR).
//! m.phase(Phase::CpuInit);
//! m.rt.cpu_write(&buf, 0, 8 << 20);
//!
//! // Launch a kernel: the GPU reads the data over NVLink-C2C.
//! m.phase(Phase::Compute);
//! let mut k = m.rt.launch("saxpy");
//! k.read(&buf, 0, 8 << 20);
//! k.compute(1 << 21);
//! let report = k.finish();
//! assert!(report.traffic.c2c_read > 0);
//!
//! m.phase(Phase::Dealloc);
//! m.rt.free(buf);
//! let run = m.finish();
//! assert!(run.phases.compute > 0);
//! ```
//!
//! See `DESIGN.md` for the system inventory and the per-figure experiment
//! index, and `EXPERIMENTS.md` for paper-vs-measured results.

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

pub use gh_apps as apps;
pub use gh_cuda as cuda;
pub use gh_jobs as jobs;
pub use gh_mem as mem;
pub use gh_os as os;
pub use gh_par as par;
pub use gh_profiler as profiler;
pub use gh_qsim as qsim;
pub use gh_sim as sim;
pub use gh_trace as trace;

pub use gh_apps::AppId;
pub use gh_cuda::{SessionCtx, SessionOptions};
pub use gh_jobs::{JobCache, JobError, JobOutcome, JobSpec};
pub use gh_profiler::{Phase, Sample};
pub use gh_qsim::{run_qv, QsimParams};
pub use gh_sim::{
    platform, Buffer, Machine, MachineConfig, MemMode, Node, Platform, PlatformCaps, PlatformError,
    RunReport, Runtime,
};
