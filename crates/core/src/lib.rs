//! `gh-sim` — the top-level API of the Grace Hopper unified-memory
//! characterization framework.
//!
//! This facade ties the hardware model (`gh-mem`), the OS model (`gh-os`),
//! the CUDA runtime model (`gh-cuda`) and the profiler (`gh-profiler`)
//! into the object experiments program against: a [`Machine`].
//!
//! ```
//! use gh_sim::{platform, MemMode};
//! use gh_profiler::Phase;
//!
//! // Boot the calibrated GH200 backend; `platform::by_name("mi300a")`
//! // would boot the unified-physical-memory contrast machine instead.
//! let mut m = platform::gh200().machine();
//! m.phase(Phase::Alloc);
//! let buf = m.rt.malloc_system(gh_units::Bytes::new(1 << 20), "data");
//! m.phase(Phase::CpuInit);
//! m.rt.cpu_write(&buf, 0, 1 << 20);
//! m.phase(Phase::Compute);
//! let mut k = m.rt.launch("saxpy");
//! k.read(&buf, 0, 1 << 20);
//! k.compute(1 << 18);
//! k.finish();
//! m.phase(Phase::Dealloc);
//! m.rt.free(buf);
//! let report = m.finish();
//! assert!(report.phases.compute > 0);
//! ```
//!
//! The paper's three application variants map to [`MemMode`]:
//! `Explicit` (original `cudaMalloc` + `cudaMemcpy`), `System`
//! (`malloc`), and `Managed` (`cudaMallocManaged`) — see Figure 2 of the
//! paper for the code transformation this corresponds to.

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

pub mod advisor;
pub mod machine;
pub mod mode;
pub mod platform;
pub mod replay;
pub mod report;

pub use advisor::{advise, advise_on, Advice};
pub use gh_cuda::{BufKind, Buffer, Frag, Kernel, KernelRecord, KernelReport, Runtime, StreamId};
pub use gh_mem::params::{ParamError, KIB, MIB};
pub use gh_mem::phys::Node;
pub use gh_profiler::{Phase, PhaseTimes, Sample};
pub use machine::Machine;
pub use mode::MemMode;
pub use platform::{MachineConfig, MemoryBackend, Platform, PlatformCaps, PlatformError};
pub use replay::{replay, replay_on, ReplayError};
pub use report::RunReport;
