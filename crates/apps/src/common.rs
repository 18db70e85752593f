//! Shared infrastructure for the application ports: the unified-buffer
//! abstraction implementing the paper's Figure 2 code transformation.

use gh_sim::{Buffer, Machine, MemMode, Node};

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

/// Merges a sorted sequence of `(offset, len)` touches into maximal
/// contiguous spans, so irregular-but-clustered gathers (BFS frontiers)
/// are metered as the coalesced transactions a GPU would issue.
pub fn coalesce(mut touches: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    gh_par::par_sort_unstable(&mut touches);
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(touches.len());
    for (off, len) in touches {
        if len == 0 {
            continue;
        }
        match out.last_mut() {
            Some((o, l)) if *o + *l >= off => {
                let end = (off + len).max(*o + *l);
                *l = end - *o;
            }
            _ => out.push((off, len)),
        }
    }
    out
}

/// Coalesces *unit* touches — every touch is `(id * unit, unit)` for an
/// id below `universe` — into the same maximal contiguous spans
/// [`coalesce`] would produce, via a touched-id bitmap instead of a
/// sort: O(ids + universe/64) beats O(ids log ids) on the per-level
/// frontier lists BFS meters by orders of magnitude. Two ids merge
/// exactly when consecutive, which is precisely `coalesce`'s
/// `end >= next_off` rule for equal-size unit touches, so the output is
/// identical span for span.
pub fn coalesce_unit_ids(ids: &[u32], unit: u64, universe: usize) -> Vec<(u64, u64)> {
    let words = universe.div_ceil(64);
    let mut bits = vec![0u64; words];
    let mut max_id = 0usize;
    for &id in ids {
        let id = id as usize;
        debug_assert!(id < universe, "id {id} outside universe {universe}");
        bits[id / 64] |= 1u64 << (id % 64);
        max_id = max_id.max(id);
    }
    let mut out: Vec<(u64, u64)> = Vec::new();
    if ids.is_empty() {
        return out;
    }
    let mut run_start: Option<u64> = None;
    let mut run_end = 0u64; // exclusive end of the open run
    for (w, &bits_w) in bits.iter().enumerate().take(max_id / 64 + 1) {
        let mut word = bits_w;
        while word != 0 {
            let id = (w as u64) * 64 + word.trailing_zeros() as u64;
            word &= word - 1; // clear lowest set bit
            match run_start {
                Some(_) if id == run_end => run_end = id + 1,
                Some(s) => {
                    out.push((s * unit, (run_end - s) * unit));
                    run_start = Some(id);
                    run_end = id + 1;
                }
                None => {
                    run_start = Some(id);
                    run_end = id + 1;
                }
            }
        }
    }
    if let Some(s) = run_start {
        out.push((s * unit, (run_end - s) * unit));
    }
    out
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

    #[test]
    fn coalesce_merges_adjacent_and_overlapping() {
        let spans = coalesce(vec![(0, 8), (8, 8), (32, 4), (100, 8), (30, 4)]);
        assert_eq!(spans, vec![(0, 16), (30, 6), (100, 8)]);
    }

    #[test]
    fn coalesce_drops_empty_and_sorts() {
        let spans = coalesce(vec![(50, 0), (10, 2), (4, 2)]);
        assert_eq!(spans, vec![(4, 2), (10, 2)]);
    }

    #[test]
    fn coalesce_unit_ids_matches_coalesce() {
        // The bitmap fast path must match sort+merge span for span on
        // scattered, duplicated, clustered, and boundary-straddling ids.
        let mut state = 7u64;
        for unit in [1u64, 4, 8] {
            for universe in [1usize, 63, 64, 65, 1000] {
                let mut ids: Vec<u32> = (0..universe * 2)
                    .map(|_| {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        ((state >> 33) as usize % universe) as u32
                    })
                    .collect();
                ids.push(0);
                ids.push((universe - 1) as u32);
                let reference =
                    coalesce(ids.iter().map(|&id| (u64::from(id) * unit, unit)).collect());
                assert_eq!(
                    coalesce_unit_ids(&ids, unit, universe),
                    reference,
                    "unit={unit} universe={universe}"
                );
            }
        }
        assert!(coalesce_unit_ids(&[], 4, 100).is_empty());
    }
}
