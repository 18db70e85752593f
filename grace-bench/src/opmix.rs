//! The `opmix` workload: a seeded stream of single `gh_cuda::Runtime`
//! calls, where per-call fixed costs (launch, span classification, first
//! touch, frees, the timeline) dominate instead of long kernels.
//!
//! Call kinds are drawn in the proportions the benchmark's application
//! workloads issue them ([`CALLS`], [`ACCESSES`], [`ALLOCS`]). The stream
//! is generated up front from a seed and a per-platform memory budget, so
//! executing it never fails: it frees only live buffers, touches only
//! in-range bytes, and never asks `cudaMalloc` for more than the device
//! budget. Migrated and first-touched pages can still fill the GPU, so a
//! `cudaMalloc` that finds it full falls back to `malloc`, as
//! applications do; device slots only ever see calls a system buffer
//! also accepts.

// gh-audit: allow-file(no-wall-clock) -- times each runtime call from outside; the readings are reported, never fed back into a simulation

use std::time::Instant;

use gh_sim::{Buffer, Machine, Node};
use gh_units::Bytes;

use crate::layers::Probe;
use crate::rng::SplitMix;

/// Live-buffer slots: at most this many buffers exist at once.
const SLOTS: usize = 16;
const MIN_BUF: u64 = 64 << 10;
/// Buffers are `MIN_BUF << k` for `k < SIZE_STEPS`: 64 KiB to 16 MiB.
const SIZE_STEPS: u64 = 9;
/// `cudaMalloc` rounds to the GPU page (2 MiB on both platforms).
const DEVICE_ROUND: u64 = 2 << 20;
const MIB: u64 = 1 << 20;
/// Longest dense kernel access: this workload times per-call costs, and
/// the long streaming kernels are the other workloads' part.
const MAX_SPAN: u64 = MIB;

/// A call kind the generator draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Draw {
    Alloc,
    Free,
    CpuWrite,
    CpuRead,
    Launch,
    Prefetch,
    Memcpy,
    Sync,
}

/// Runtime calls per kind in one seed-0 pass of each of the other four
/// workloads (rodinia, oversub-managed, qv-statevector, small-jobs) with
/// paper-scaled inputs and six small-jobs batches, counted at every
/// `Runtime` entry point.
/// README.md lists the counts per workload. Kinds the applications never
/// call are left out.
const CALLS: [(Draw, u64); 8] = [
    (Draw::Alloc, 1_507),
    (Draw::Free, 1_507),
    (Draw::CpuWrite, 897),
    (Draw::CpuRead, 299),
    (Draw::Launch, 19_031),
    (Draw::Prefetch, 9_216),
    (Draw::Memcpy, 74),
    (Draw::Sync, 299),
];

/// The one access of an `opmix` kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Access {
    Read,
    Write,
    StridedRead,
    StridedWrite,
}

/// `Kernel` accesses per kind in the same pass. The applications make no
/// gathers or scatters.
const ACCESSES: [(Access, u64); 4] = [
    (Access::Read, 175_368),
    (Access::Write, 59_494),
    (Access::StridedRead, 7_996_116),
    (Access::StridedWrite, 10_887_648),
];

/// Which allocator a buffer comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `malloc`.
    System,
    /// `cudaMallocManaged`.
    Managed,
    /// `cudaMalloc`.
    Device,
}

/// Allocations per kind in the same pass.
const ALLOCS: [(Kind, u64); 3] = [
    (Kind::System, 707),
    (Kind::Managed, 649),
    (Kind::Device, 151),
];

/// One runtime call. Slots name buffers; byte ranges lie inside the
/// buffer the slot holds when the call runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Call {
    /// Allocate `bytes` into an empty slot.
    Alloc { slot: usize, kind: Kind, bytes: u64 },
    /// Free a live slot.
    Free { slot: usize },
    /// CPU write of `[off, off+len)`.
    CpuWrite { slot: usize, off: u64, len: u64 },
    /// CPU read of `[off, off+len)`.
    CpuRead { slot: usize, off: u64, len: u64 },
    /// One-access kernel: dense read.
    Read { slot: usize, off: u64, len: u64 },
    /// One-access kernel: dense write.
    Write { slot: usize, off: u64, len: u64 },
    /// One-access kernel: `count` segments of `seg` bytes, `stride` apart.
    Strided {
        slot: usize,
        off: u64,
        seg: u64,
        stride: u64,
        count: u64,
        write: bool,
    },
    /// `cudaMemPrefetchAsync` of a managed range to the GPU.
    Prefetch { slot: usize, off: u64, len: u64 },
    /// `cudaMemcpy` between two live buffers.
    Memcpy {
        dst: usize,
        dst_off: u64,
        src: usize,
        src_off: u64,
        len: u64,
    },
    /// `cudaDeviceSynchronize`.
    Sync,
}

impl Call {
    /// The probe key its host time is recorded under: the kernel kinds
    /// share one.
    pub fn probe_key(&self) -> &'static str {
        match self {
            Call::Alloc { .. } => "cuda.alloc",
            Call::Free { .. } => "cuda.free",
            Call::CpuWrite { .. } => "cuda.cpu_write",
            Call::CpuRead { .. } => "cuda.cpu_read",
            Call::Read { .. } | Call::Write { .. } | Call::Strided { .. } => "cuda.kernel",
            Call::Prefetch { .. } => "cuda.prefetch",
            Call::Memcpy { .. } => "cuda.memcpy",
            Call::Sync => "cuda.sync",
        }
    }
}

/// A platform's memory budget for one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Bytes all live buffers may span (device buffers at their rounded
    /// size).
    pub live: u64,
    /// Bytes live device buffers may take, rounded to the GPU page.
    pub device: u64,
}

/// The budget for a platform. The GH200 has a 96 MiB GPU: two thirds of
/// it may be `cudaMalloc`ed, and live buffers may span twice its size,
/// so prefetched managed data overflows it and evicts. The MI300A has one
/// 128 MiB pool that every buffer draws from; three quarters of it may be
/// live, half of that on the device.
pub fn limits(platform: &str) -> Limits {
    match platform {
        "mi300a" => Limits {
            live: 96 * MIB,
            device: 48 * MIB,
        },
        _ => Limits {
            live: 192 * MIB,
            device: 64 * MIB,
        },
    }
}

fn footprint(kind: Kind, bytes: u64) -> u64 {
    match kind {
        Kind::Device => bytes.div_ceil(DEVICE_ROUND) * DEVICE_ROUND,
        _ => bytes,
    }
}

/// The generator's view of the live buffers.
#[derive(Debug, Default)]
struct Model {
    slots: [Option<(Kind, u64)>; SLOTS],
    live: u64,
    device: u64,
}

impl Model {
    fn pick(&self, rng: &mut SplitMix, want: impl Fn(Kind) -> bool) -> Option<(usize, Kind, u64)> {
        let found: Vec<(usize, Kind, u64)> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.filter(|&(k, _)| want(k)).map(|(k, b)| (i, k, b)))
            .collect();
        (!found.is_empty()).then(|| found[rng.below(found.len() as u64) as usize])
    }

    fn alloc(&mut self, rng: &mut SplitMix, lim: Limits) -> Option<Call> {
        let slot = self.slots.iter().position(Option::is_none)?;
        let mut kind = rng.weighted(&ALLOCS);
        let mut bytes = MIN_BUF << rng.below(SIZE_STEPS);
        if kind == Kind::Device && self.device + footprint(kind, bytes) > lim.device {
            kind = Kind::System;
        }
        while self.live + footprint(kind, bytes) > lim.live {
            if bytes == MIN_BUF {
                return None;
            }
            bytes /= 2;
        }
        let f = footprint(kind, bytes);
        self.live += f;
        if kind == Kind::Device {
            self.device += f;
        }
        self.slots[slot] = Some((kind, bytes));
        Some(Call::Alloc { slot, kind, bytes })
    }

    fn free(&mut self, rng: &mut SplitMix) -> Option<Call> {
        let (slot, kind, bytes) = self.pick(rng, |_| true)?;
        let f = footprint(kind, bytes);
        self.live -= f;
        if kind == Kind::Device {
            self.device -= f;
        }
        self.slots[slot] = None;
        Some(Call::Free { slot })
    }

    fn launch(&self, rng: &mut SplitMix) -> Option<Call> {
        let (slot, _, size) = self.pick(rng, |_| true)?;
        Some(match rng.weighted(&ACCESSES) {
            Access::Read => {
                let (off, len) = range(rng, size, MAX_SPAN);
                Call::Read { slot, off, len }
            }
            Access::Write => {
                let (off, len) = range(rng, size, MAX_SPAN);
                Call::Write { slot, off, len }
            }
            access => {
                let seg = 64 << rng.below(7);
                let stride = seg * (2 + rng.below(63));
                let count = (4 + rng.below(61)).min((size - seg) / stride + 1);
                let off = rng.below(size - (count - 1) * stride - seg + 1);
                Call::Strided {
                    slot,
                    off,
                    seg,
                    stride,
                    count,
                    write: access == Access::StridedWrite,
                }
            }
        })
    }

    fn memcpy(&self, rng: &mut SplitMix) -> Option<Call> {
        let (dst, _, dsize) = self.pick(rng, |_| true)?;
        let (src, _, ssize) = self.pick(rng, |_| true)?;
        if src == dst {
            return None;
        }
        let (src_off, len) = range(rng, ssize, dsize.min(4 * MIB));
        let dst_off = rng.below((dsize - len) / 64 + 1) * 64;
        Some(Call::Memcpy {
            dst,
            dst_off,
            src,
            src_off,
            len,
        })
    }
}

/// A sub-range of a `size`-byte buffer: 64-byte aligned, between 4 KiB
/// (or the whole buffer, if smaller) and `max` bytes, log-uniform.
fn range(rng: &mut SplitMix, size: u64, max: u64) -> (u64, u64) {
    let hi = size.min(max);
    let lo = hi.min(4 << 10);
    let steps = u64::from((hi / lo).ilog2()) + 1;
    let len = (lo << rng.below(steps)).min(hi);
    let off = rng.below((size - len) / 64 + 1) * 64;
    (off, len)
}

/// Generates `n` calls for one session on a platform with budget `lim`,
/// drawing each call's kind from [`CALLS`]. A call that cannot apply to
/// the current buffers (a free with none live, a prefetch with no managed
/// buffer) is redrawn.
pub fn generate(seed: u64, n: usize, lim: Limits) -> Vec<Call> {
    let mut rng = SplitMix::new(seed);
    let mut m = Model::default();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let host = |k: Kind| k != Kind::Device;
        let call = match rng.weighted(&CALLS) {
            Draw::Alloc => m.alloc(&mut rng, lim),
            Draw::Free => m.free(&mut rng),
            Draw::CpuWrite => m.pick(&mut rng, host).map(|(slot, _, size)| {
                let (off, len) = range(&mut rng, size, 4 * MIB);
                Call::CpuWrite { slot, off, len }
            }),
            Draw::CpuRead => m.pick(&mut rng, host).map(|(slot, _, size)| {
                let (off, len) = range(&mut rng, size, 4 * MIB);
                Call::CpuRead { slot, off, len }
            }),
            Draw::Launch => m.launch(&mut rng),
            Draw::Prefetch => m
                .pick(&mut rng, |k| k == Kind::Managed)
                .map(|(slot, _, size)| {
                    let (off, len) = range(&mut rng, size, size);
                    Call::Prefetch { slot, off, len }
                }),
            Draw::Memcpy => m.memcpy(&mut rng),
            Draw::Sync => Some(Call::Sync),
        };
        out.extend(call);
    }
    out
}

/// Runs `calls` on `m`, recording each call's host time under its
/// [`Call::probe_key`].
pub fn execute(calls: &[Call], m: &mut Machine, probe: &mut Probe) {
    let mut bufs: [Option<Buffer>; SLOTS] = [None; SLOTS];
    let buf = |bufs: &[Option<Buffer>; SLOTS], slot: usize| {
        bufs[slot].expect("generated calls name live slots only") // gh-audit: allow(no-unwrap-in-lib) -- the generator only names live slots; a panic is caught per op and fails it
    };
    for call in calls {
        let t = Instant::now();
        match call {
            Call::Alloc { slot, kind, bytes } => {
                let b = Bytes::new(*bytes);
                bufs[*slot] = Some(match kind {
                    Kind::System => m.rt.malloc_system(b, "opmix"),
                    Kind::Managed => m.rt.cuda_malloc_managed(b, "opmix"),
                    Kind::Device => match m.rt.cuda_malloc(b, "opmix") {
                        Ok(d) => d,
                        Err(_) => m.rt.malloc_system(b, "opmix"),
                    },
                });
            }
            Call::Free { slot } => {
                let b = bufs[*slot].take().expect("generated frees name live slots"); // gh-audit: allow(no-unwrap-in-lib) -- the generator only frees live slots; a panic is caught per op and fails it
                m.rt.free(b);
            }
            Call::CpuWrite { slot, off, len } => m.rt.cpu_write(&buf(&bufs, *slot), *off, *len),
            Call::CpuRead { slot, off, len } => m.rt.cpu_read(&buf(&bufs, *slot), *off, *len),
            Call::Read { slot, off, len } => {
                let mut k = m.rt.launch("opmix_read");
                k.read(&buf(&bufs, *slot), *off, *len);
                k.compute(*len / 4);
                k.finish();
            }
            Call::Write { slot, off, len } => {
                let mut k = m.rt.launch("opmix_write");
                k.write(&buf(&bufs, *slot), *off, *len);
                k.compute(*len / 4);
                k.finish();
            }
            Call::Strided {
                slot,
                off,
                seg,
                stride,
                count,
                write,
            } => {
                let b = buf(&bufs, *slot);
                let mut k = m.rt.launch("opmix_strided");
                if *write {
                    k.write_strided(&b, *off, *seg, *stride, *count);
                } else {
                    k.read_strided(&b, *off, *seg, *stride, *count);
                }
                k.compute(seg * count / 4);
                k.finish();
            }
            Call::Prefetch { slot, off, len } => {
                m.rt.prefetch(&buf(&bufs, *slot), *off, *len, Node::Gpu);
            }
            Call::Memcpy {
                dst,
                dst_off,
                src,
                src_off,
                len,
            } => {
                m.rt.memcpy(
                    &buf(&bufs, *dst),
                    *dst_off,
                    &buf(&bufs, *src),
                    *src_off,
                    *len,
                );
            }
            Call::Sync => m.rt.device_synchronize(),
        }
        probe.record(call.probe_key(), t.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{digest, opmix_session};
    use gh_cuda::SessionOptions;

    /// Replays a stream against the budget, panicking on any call the
    /// runtime would reject or that breaks the budget.
    fn check(calls: &[Call], lim: Limits) {
        let mut live: [Option<(Kind, u64)>; SLOTS] = [None; SLOTS];
        let (mut total, mut device) = (0u64, 0u64);
        let size = |live: &[Option<(Kind, u64)>; SLOTS], s: usize| {
            live[s].unwrap_or_else(|| panic!("slot {s} is not live"))
        };
        for (i, c) in calls.iter().enumerate() {
            match c {
                Call::Alloc { slot, kind, bytes } => {
                    assert!(
                        live[*slot].is_none(),
                        "call {i}: slot {slot} reused while live"
                    );
                    assert!((MIN_BUF..=MIN_BUF << (SIZE_STEPS - 1)).contains(bytes));
                    let f = footprint(*kind, *bytes);
                    total += f;
                    if *kind == Kind::Device {
                        device += f;
                    }
                    assert!(device <= lim.device, "call {i}: device {device} > {lim:?}");
                    assert!(total <= lim.live, "call {i}: live {total} > {lim:?}");
                    live[*slot] = Some((*kind, *bytes));
                }
                Call::Free { slot } => {
                    let (k, b) = size(&live, *slot);
                    total -= footprint(k, b);
                    if k == Kind::Device {
                        device -= footprint(k, b);
                    }
                    live[*slot] = None;
                }
                Call::CpuWrite { slot, off, len } | Call::CpuRead { slot, off, len } => {
                    let (k, b) = size(&live, *slot);
                    assert_ne!(k, Kind::Device, "call {i}: host access to device memory");
                    assert!(off + len <= b && *len > 0, "call {i}");
                }
                Call::Read { slot, off, len } | Call::Write { slot, off, len } => {
                    assert!(off + len <= size(&live, *slot).1 && *len > 0, "call {i}");
                }
                Call::Strided {
                    slot,
                    off,
                    seg,
                    stride,
                    count,
                    ..
                } => {
                    assert!(*count >= 1 && stride > seg, "call {i}");
                    assert!(off + (count - 1) * stride + seg <= size(&live, *slot).1);
                }
                Call::Prefetch { slot, off, len } => {
                    let (k, b) = size(&live, *slot);
                    assert_eq!(k, Kind::Managed, "call {i}: prefetch needs managed memory");
                    assert!(off + len <= b, "call {i}");
                }
                Call::Memcpy {
                    dst,
                    dst_off,
                    src,
                    src_off,
                    len,
                } => {
                    assert_ne!(dst, src);
                    assert!(dst_off + len <= size(&live, *dst).1, "call {i}");
                    assert!(src_off + len <= size(&live, *src).1, "call {i}");
                }
                Call::Sync => {}
            }
        }
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let lim = limits("gh200");
        assert_eq!(generate(7, 2_000, lim), generate(7, 2_000, lim));
        assert_ne!(generate(7, 2_000, lim), generate(8, 2_000, lim));
        assert_eq!(generate(7, 2_000, lim).len(), 2_000);
    }

    #[test]
    fn streams_respect_liveness_ranges_and_budgets() {
        for platform in ["gh200", "mi300a"] {
            for seed in 0..20 {
                check(&generate(seed, 3_000, limits(platform)), limits(platform));
            }
        }
    }

    #[test]
    fn every_call_kind_occurs() {
        let calls = generate(3, 5_000, limits("gh200"));
        let kinds: std::collections::BTreeSet<&str> = calls
            .iter()
            .map(|c| match c {
                Call::Read { .. } => "read",
                Call::Write { .. } => "write",
                Call::Strided { write: true, .. } => "strided write",
                Call::Strided { write: false, .. } => "strided read",
                c => c.probe_key(),
            })
            .collect();
        assert_eq!(kinds.len(), 11, "every kind in 5000 calls: {kinds:?}");
        for kind in [Kind::System, Kind::Managed, Kind::Device] {
            assert!(calls
                .iter()
                .any(|c| matches!(c, Call::Alloc { kind: k, .. } if *k == kind)));
        }
    }

    #[test]
    fn call_kinds_follow_the_measured_counts() {
        let calls = generate(5, 50_000, limits("gh200"));
        let total: u64 = CALLS.iter().map(|&(_, n)| n).sum();
        for (kind, key) in [
            (Draw::Alloc, "cuda.alloc"),
            (Draw::Free, "cuda.free"),
            (Draw::CpuWrite, "cuda.cpu_write"),
            (Draw::CpuRead, "cuda.cpu_read"),
            (Draw::Launch, "cuda.kernel"),
            (Draw::Prefetch, "cuda.prefetch"),
            (Draw::Memcpy, "cuda.memcpy"),
            (Draw::Sync, "cuda.sync"),
        ] {
            let want = CALLS.iter().find(|&&(k, _)| k == kind).unwrap().1 as f64 / total as f64;
            let got =
                calls.iter().filter(|c| c.probe_key() == key).count() as f64 / calls.len() as f64;
            // Redrawn calls (a memcpy whose two picks coincide, a prefetch
            // with no managed buffer live) shift shares slightly.
            assert!(
                (got - want).abs() <= 0.15 * want + 0.001,
                "{key}: {got:.4} of the stream, {want:.4} measured"
            );
        }
    }

    #[test]
    fn fast_path_digest_matches_the_reference_walk() {
        for platform in ["gh200", "mi300a"] {
            let calls = generate(11, 1_500, limits(platform));
            let run = |access_ref: bool| {
                let so = SessionOptions {
                    access_ref,
                    ..Default::default()
                };
                let r = opmix_session(platform, &calls, &so, &mut Probe::default())
                    .expect("registered platform");
                digest(&r.report.to_json())
            };
            assert_eq!(run(false), run(true), "{platform}");
            assert_eq!(run(false), run(false), "{platform}: repeatable");
        }
    }
}
