//! Shared infrastructure for the application ports: the unified-buffer
//! abstraction implementing the paper's Figure 2 code transformation,
//! and the one seeded hash every app draws its inputs from.
//!
//! `mix` is the hash. `Mixer` is its block form for runs of consecutive
//! indices: within an aligned block of `MIX_BLOCK` indices,
//! `mix(seed, i)` is one product per block plus a table entry, so a run
//! costs a vector add per value. `unit` maps a hash to an f32 in
//! `[0, 1]`.

use gh_par::par_chunks_mut;
use gh_sim::{Buffer, Machine, MemMode, Node};

/// Grid rows per `gh-par` chunk in the banded stencil passes of srad and
/// hotspot: enough rows that a band's edge work (one plane row or two
/// halo rows) stays small, few enough that every worker gets bands.
pub(crate) const BAND: usize = 16;

/// The golden-ratio multiplier of [`mix`].
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Value `i` of the seeded input stream `seed`: pathfinder's walls,
/// needle's bases, hotspot's grids, srad's image, lud's matrix and
/// kmeans' points all derive from it.
#[inline]
pub(crate) fn mix(seed: u64, i: u64) -> u64 {
    (seed ^ i).wrapping_mul(GOLDEN)
}

/// Indices per block of [`Mixer`].
pub(crate) const MIX_BLOCK: usize = 4096;

/// [`mix`] for runs of consecutive indices. With `M = MIX_BLOCK - 1`, the
/// bits of `seed ^ i` above and below the block size are disjoint, so
/// `seed ^ i` is their sum and the wrapping product distributes over it:
/// `mix(seed, i) = mix(seed & !M, i & !M) + mix(seed & M, i & M)`. The
/// second term takes [`MIX_BLOCK`] values, kept in a table; the first is
/// one multiply per block.
#[derive(Debug)]
pub(crate) struct Mixer {
    high: u64,
    low: Vec<u64>,
}

impl Mixer {
    const MASK: u64 = MIX_BLOCK as u64 - 1;

    /// The block form of the stream `seed`.
    pub(crate) fn new(seed: u64) -> Self {
        Mixer {
            high: seed & !Self::MASK,
            low: (0..MIX_BLOCK as u64)
                .map(|l| mix(seed & Self::MASK, l))
                .collect(),
        }
    }

    /// Writes `f(mix(seed, first + k))` to `out[k]` for every `k`.
    #[inline]
    pub(crate) fn fill<T>(&self, first: u64, mut out: &mut [T], f: impl Fn(u64) -> T) {
        let mut i = first;
        while !out.is_empty() {
            let l = (i & Self::MASK) as usize;
            let take = (MIX_BLOCK - l).min(out.len());
            let (run, rest) = std::mem::take(&mut out).split_at_mut(take);
            let base = mix(self.high, i & !Self::MASK);
            for (o, &lo) in run.iter_mut().zip(&self.low[l..]) {
                *o = f(base.wrapping_add(lo));
            }
            i += run.len() as u64;
            out = rest;
        }
    }
}

/// `f(mix(seed, i))` for `i` in `0..len`, one [`MIX_BLOCK`] per `gh-par`
/// chunk.
pub(crate) fn seeded_vec<T, F>(seed: u64, len: usize, f: F) -> Vec<T>
where
    T: Copy + Default + Send,
    F: Fn(u64) -> T + Sync,
{
    let mixer = Mixer::new(seed);
    let mut out = vec![T::default(); len];
    par_chunks_mut(&mut out, MIX_BLOCK, |c, block| {
        mixer.fill((c * MIX_BLOCK) as u64, block, &f);
    });
    out
}

/// The top 53 bits of a hash as an f32 in `[0, 1]`.
#[inline]
pub(crate) fn unit(x: u64) -> f32 {
    ((x >> 11) as f64 / (1u64 << 53) as f64) as f32
}

/// A data buffer under one of the three memory-management strategies.
///
/// * `Explicit`: a host (`malloc`) / device (`cudaMalloc`) pair with
///   explicit `cudaMemcpy` at phase boundaries — the original pattern;
/// * `System` / `Managed`: one unified buffer; uploads/downloads become
///   no-ops (plus the device synchronization the paper adds to preserve
///   semantics).
#[derive(Debug)]
pub struct UBuf {
    mode: MemMode,
    host: Option<Buffer>,
    dev: Buffer,
    /// Requested (un-rounded) size: allocators round up to their page
    /// granularity, but copies and host access use the logical size.
    bytes: u64,
}

impl UBuf {
    /// Allocates `bytes` under `mode`.
    pub fn alloc(m: &mut Machine, mode: MemMode, bytes: u64, tag: &str) -> UBuf {
        match mode {
            MemMode::Explicit => {
                let host =
                    m.rt.malloc_system(gh_units::Bytes::new(bytes), &format!("{tag}.host"));
                #[expect(
                    clippy::expect_used,
                    reason = "explicit mode asserts the working set fits in HBM; oversizing is an experiment-config error"
                )]
                let dev =
                    m.rt.cuda_malloc(gh_units::Bytes::new(bytes), &format!("{tag}.dev"))
                        .expect("explicit version assumes the buffer fits in GPU memory");
                UBuf {
                    mode,
                    host: Some(host),
                    dev,
                    bytes,
                }
            }
            MemMode::System => UBuf {
                mode,
                host: None,
                dev: m.rt.malloc_system(gh_units::Bytes::new(bytes), tag),
                bytes,
            },
            MemMode::Managed => UBuf {
                mode,
                host: None,
                dev: m.rt.cuda_malloc_managed(gh_units::Bytes::new(bytes), tag),
                bytes,
            },
        }
    }

    /// Allocates a buffer that the original code kept GPU-only (never
    /// copied to/from the host). The paper's unified ports still convert
    /// these when they are *initialized by a GPU kernel* and later read
    /// through unified access (the SRAD derivative arrays); explicit mode
    /// keeps plain `cudaMalloc`.
    pub fn alloc_gpu_scratch(m: &mut Machine, mode: MemMode, bytes: u64, tag: &str) -> UBuf {
        match mode {
            #[expect(
                clippy::expect_used,
                reason = "explicit mode asserts scratch fits in HBM; oversizing is an experiment-config error"
            )]
            MemMode::Explicit => UBuf {
                mode,
                host: None,
                dev: m
                    .rt
                    .cuda_malloc(gh_units::Bytes::new(bytes), tag)
                    .expect("explicit version assumes scratch fits in GPU memory"),
                bytes,
            },
            _ => UBuf::alloc(m, mode, bytes, tag),
        }
    }

    /// The buffer GPU kernels should access.
    pub fn gpu(&self) -> &Buffer {
        &self.dev
    }

    /// The buffer the CPU should access (host side for explicit mode).
    pub fn cpu(&self) -> &Buffer {
        self.host.as_ref().unwrap_or(&self.dev)
    }

    /// Logical length in bytes (the requested size, before page
    /// rounding).
    pub fn len(&self) -> u64 {
        self.bytes
    }

    /// Whether the buffer is zero-length (never for live buffers).
    pub fn is_empty(&self) -> bool {
        self.bytes == 0
    }

    /// CPU-side sequential initialization of `[off, off+len)`.
    pub fn cpu_init(&self, m: &mut Machine, off: u64, len: u64) {
        m.rt.cpu_write(self.cpu(), off, len);
    }

    /// Makes CPU-written data visible to the GPU: `cudaMemcpy` H2D for
    /// explicit mode, nothing for unified modes.
    pub fn upload(&self, m: &mut Machine) {
        if let Some(host) = &self.host {
            m.rt.memcpy(&self.dev, 0, host, 0, self.len());
        }
    }

    /// Makes GPU results visible to the CPU: `cudaMemcpy` D2H for
    /// explicit mode, a direct CPU read for unified modes (which the
    /// paper precedes with `cudaDeviceSynchronize`).
    pub fn download(&self, m: &mut Machine, off: u64, len: u64) {
        match &self.host {
            Some(host) => {
                m.rt.memcpy(host, off, &self.dev, off, len);
            }
            None => {
                m.rt.device_synchronize();
                m.rt.cpu_read(&self.dev, off, len);
            }
        }
    }

    /// Frees the buffer(s).
    pub fn free(self, m: &mut Machine) {
        if let Some(host) = self.host {
            m.rt.free(host);
        }
        m.rt.free(self.dev);
    }

    /// Prefetches the whole buffer to a node (managed memory only).
    pub fn prefetch(&self, m: &mut Machine, to: Node) {
        assert_eq!(self.mode, MemMode::Managed, "prefetch needs managed memory");
        m.rt.prefetch(&self.dev, 0, self.len(), to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gh_mem::params::MIB;
    use gh_sim::BufKind;

    #[test]
    fn explicit_mode_allocates_pair() {
        let mut m = gh_sim::platform::gh200().machine();
        let b = UBuf::alloc(&mut m, MemMode::Explicit, MIB, "x");
        assert_eq!(b.cpu().kind, BufKind::System);
        assert_eq!(b.gpu().kind, BufKind::Device);
        assert_ne!(b.cpu().id(), b.gpu().id());
        b.free(&mut m);
    }

    #[test]
    fn unified_modes_share_one_buffer() {
        for mode in [MemMode::System, MemMode::Managed] {
            let mut m = gh_sim::platform::gh200().machine();
            let b = UBuf::alloc(&mut m, mode, MIB, "x");
            assert_eq!(b.cpu().id(), b.gpu().id());
            b.free(&mut m);
        }
    }

    #[test]
    fn upload_copies_only_in_explicit_mode() {
        let mut m = gh_sim::platform::gh200().machine();
        let b = UBuf::alloc(&mut m, MemMode::Explicit, MIB, "x");
        b.cpu_init(&mut m, 0, MIB);
        let before = m.rt.link().bytes_h2d();
        b.upload(&mut m);
        assert_eq!(m.rt.link().bytes_h2d() - before, gh_units::Bytes::new(MIB));

        let mut m2 = gh_sim::platform::gh200().machine();
        let b2 = UBuf::alloc(&mut m2, MemMode::System, MIB, "x");
        b2.cpu_init(&mut m2, 0, MIB);
        let before = m2.rt.link().bytes_h2d();
        b2.upload(&mut m2);
        assert_eq!(m2.rt.link().bytes_h2d(), before, "no copy in system mode");
    }
}
