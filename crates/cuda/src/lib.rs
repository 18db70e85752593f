//! `gh-cuda` — the CUDA-runtime half of the Grace Hopper model.
//!
//! This crate stitches the hardware model (`gh-mem`) and the OS model
//! (`gh-os`) into a single [`Runtime`] that applications program against,
//! mirroring the CUDA APIs the paper's Table 1 catalogues:
//!
//! | real API                    | here                                   |
//! |-----------------------------|----------------------------------------|
//! | `malloc`                    | [`Runtime::malloc_system`]             |
//! | `cudaMallocManaged`         | [`Runtime::cuda_malloc_managed`]       |
//! | `cudaMalloc`                | [`Runtime::cuda_malloc`]               |
//! | `cudaMallocHost`            | [`Runtime::cuda_malloc_host`]          |
//! | `cudaMemcpy`                | [`Runtime::memcpy`]                    |
//! | `cudaMemPrefetchAsync`      | [`Runtime::prefetch`]                  |
//! | `cudaHostRegister`          | [`Runtime::cuda_host_register`]        |
//! | `cudaDeviceSynchronize`     | [`Runtime::device_synchronize`]        |
//! | kernel `<<<>>>` launch      | [`Runtime::launch`] → [`Kernel`]       |
//!
//! Two migration engines live here:
//!
//! * [`uvm`] — the CUDA managed-memory driver: GPU page-fault service,
//!   2 MiB-block on-demand migration, speculative sequential prefetching,
//!   LRU eviction under GPU memory pressure, and the remote-mapping
//!   fallback observed on Grace Hopper when eviction starts to thrash;
//! * the access-counter driver in [`kernel`] — the delayed,
//!   notification-based CPU→GPU migration for *system-allocated* memory
//!   (threshold 256, bounded notifications serviced per kernel).
//!
//! Every operation advances the virtual clock and feeds the memory
//! profiler, so `(time, RSS, GPU-used)` series come out of any run.
//!
//! ```
//! use gh_cuda::{Runtime, RuntimeOptions};
//! use gh_mem::params::CostParams;
//! use gh_units::Bytes;
//!
//! let mut rt = Runtime::new(CostParams::default(), RuntimeOptions::default());
//! let buf = rt.malloc_system(Bytes::new(1 << 20), "data"); // plain malloc
//! rt.cpu_write(&buf, 0, 1 << 20);              // CPU first touch
//! let mut k = rt.launch("sweep");
//! k.read(&buf, 0, 1 << 20);                    // GPU reads over NVLink-C2C
//! let report = k.finish();
//! assert_eq!(report.traffic.c2c_read, 1 << 20);
//! assert_eq!(report.traffic.gpu_faults, 0);    // coherent access, no faults
//! rt.free(buf);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod buffer;
pub mod kernel;
pub mod runtime;
pub mod session;
pub mod streams;
pub mod uvm;

pub use buffer::{BufKind, Buffer};
pub use kernel::{BufferTraffic, Kernel, KernelRecord, KernelReport};
pub use runtime::{MemAdvise, Runtime, RuntimeOptions};
pub use session::{SessionCtx, SessionOptions};
pub use streams::{EventId, StreamId};
