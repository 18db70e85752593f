//! `gh-mem` — a discrete-cost model of the Grace Hopper memory subsystem.
//!
//! This crate models the *hardware* half of the NVIDIA GH200 Superchip as
//! described in the paper "Harnessing Integrated CPU-GPU System Memory for
//! HPC: a first look into Grace Hopper" (ICPP 2024):
//!
//! * two physical memory tiers (Grace LPDDR5X and Hopper HBM3) exposed as
//!   NUMA nodes ([`phys`]);
//! * an integrated *system-wide page table* with 4 KB or 64 KB pages plus a
//!   *GPU-exclusive page table* with 2 MB pages ([`pagetable`]);
//! * the GPU TLB and the SMMU that services Address Translation Service
//!   (ATS) requests arriving over NVLink-C2C ([`tlb`], [`smmu`]);
//! * the cache-coherent NVLink-C2C interconnect with its cacheline-grain
//!   remote access (64 B from the CPU side, 128 B from the GPU side) and
//!   bulk transfer behaviour ([`link`]);
//! * the per-region GPU *access counters* that drive delayed automatic page
//!   migration in system-allocated memory ([`counters`]);
//! * per-kernel and cumulative traffic accounting ([`traffic`]);
//! * a deterministic virtual clock in nanoseconds ([`clock`]).
//!
//! Everything is a *cost model*, not a cycle-accurate simulator: operations
//! report how long they take in virtual nanoseconds and update byte/event
//! counters. The paper's findings are driven by exactly these terms
//! (fault counts × fault cost, pages × teardown cost, bytes ÷ bandwidth),
//! which is why the model reproduces the published behaviour shapes.
//!
//! The crate is deliberately single-threaded: determinism matters more than
//! simulation wall-time, and all heavy *application* compute runs outside
//! the model through `gh-par`.

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

pub mod cache;
pub mod clock;
pub mod counters;
pub mod hash;
pub mod link;
pub mod pagetable;
pub mod params;
pub mod phys;
pub mod radix;
pub mod smmu;
pub mod tlb;
pub mod traffic;

pub use cache::SetCache;
pub use clock::{Clock, Ns};
pub use counters::{AccessCounters, Notification};
pub use hash::IntHash;
pub use link::{Direction, Link};
pub use pagetable::{PageTable, Pte};
pub use params::{CostParams, ParamError, KIB, MIB};
pub use phys::{Node, OutOfMemory, PhysMem};
pub use smmu::Smmu;
pub use tlb::Tlb;
pub use traffic::KernelTraffic;
