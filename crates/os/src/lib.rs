//! `gh-os` — the operating-system half of the Grace Hopper memory model.
//!
//! Models what RHEL does on the real machine (paper §2.2):
//!
//! * `malloc` of a large region creates a **VMA** and page-table entries
//!   are *not* populated — physical memory is assigned lazily;
//! * the **first touch** of a page raises a minor fault; the OS picks a
//!   frame on the faulting processor's NUMA node (first-touch policy),
//!   installs the PTE in the *system-wide page table* and replays the
//!   access;
//! * GPU first touches arrive as **SMMU/ATS faults** over NVLink-C2C and
//!   are serviced *by the CPU*, which is the §5.1.2 bottleneck: GPU-side
//!   initialization of system-allocated memory is much slower than
//!   CPU-side initialization;
//! * `free` tears PTEs down one page at a time, which is why dealloc time
//!   scales with page count (Fig 6: 64 KiB pages ≈ 16× cheaper);
//! * `cudaHostRegister`-style pre-population installs PTEs in bulk,
//!   skipping the fault path (§5.1.2 optimization).
//!
//! The OS owns the virtual address space and the system page table; the
//! CUDA runtime model (`gh-cuda`) owns the GPU-exclusive page table and
//! calls into this crate for anything involving system pages.

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
#![cfg_attr(not(test), deny(clippy::as_conversions))]

pub mod numa;
pub mod os;
pub mod vma;

pub use numa::NumaPolicy;
pub use os::{FaultOutcome, Os, OsConfig, SmapsEntry};
pub use vma::{VaRange, Vma, VmaKind};
