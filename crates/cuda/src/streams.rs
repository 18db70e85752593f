//! CUDA streams: asynchronous copies and kernels with engine-level
//! overlap.
//!
//! The GH200 overlaps H2D copies, D2H copies and kernel execution on
//! three independent engines. This module models exactly that: each
//! enqueued operation starts at
//! `max(stream tail, engine free, current time)` and occupies its engine
//! for the operation's duration; synchronization advances the virtual
//! clock to the relevant tail. This is what makes the paper's "original
//! version implements a sophisticated data movement pipeline and
//! represents the ideal performance" (§4) reproducible: Qiskit-Aer's
//! chunked host-exchange pipeline genuinely overlaps its transfers with
//! compute.
//!
//! Restriction: asynchronous operations are only allowed on `Device` and
//! `Pinned` buffers — the same rule real CUDA imposes for true async
//! copies (pageable memory degrades to synchronous). Unified buffers
//! fault through the OS/driver models, which are synchronous by design.

#![expect(
    clippy::panic,
    clippy::expect_used,
    reason = "stream/event handles are minted by this module and launch preconditions are validated fail-fast, mirroring CUDA driver aborts"
)]

use gh_mem::clock::Ns;
use gh_mem::link::Direction;
use gh_mem::params::CostParams;
use gh_units::{ns_from_f64, Bytes};
use std::collections::BTreeMap;

use crate::buffer::{BufKind, Buffer};
use crate::runtime::Runtime;

/// Handle to a created stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId {
    raw: u32,
}

/// The three hardware engines async work can occupy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Engine {
    CopyH2d,
    CopyD2h,
    Compute,
}

/// Handle to a recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    raw: u32,
}

/// Per-runtime stream state.
#[derive(Debug, Default)]
pub struct StreamState {
    next: u32,
    /// Completion time of the last operation per stream.
    tails: BTreeMap<u32, Ns>,
    /// Time each engine becomes free.
    engines: BTreeMap<Engine, Ns>,
    next_event: u32,
    /// Timestamp each event resolves to (the recording stream's tail).
    events: BTreeMap<u32, Ns>,
}

impl StreamState {
    /// Latest completion time across all streams.
    fn max_tail(&self) -> Ns {
        self.tails.values().copied().max().unwrap_or(0)
    }
}

impl Runtime {
    /// `cudaStreamCreate`.
    pub fn create_stream(&mut self) -> StreamId {
        self.ensure_ctx();
        let id = self.streams.next;
        self.streams.next += 1;
        self.streams.tails.insert(id, self.now());
        self.tick(1_000);
        StreamId { raw: id }
    }

    fn enqueue(&mut self, stream: StreamId, engine: Engine, duration: Ns) -> Ns {
        let now = self.now();
        let tail = *self
            .streams
            .tails
            .get(&stream.raw)
            .unwrap_or_else(|| panic!("unknown stream {stream:?}"));
        let free = self.streams.engines.get(&engine).copied().unwrap_or(0);
        let start = now.max(tail).max(free);
        let end = start + duration;
        self.streams.tails.insert(stream.raw, end);
        self.streams.engines.insert(engine, end);
        end
    }

    /// `cudaMemcpyAsync`: enqueues a copy on `stream` without blocking.
    /// Both buffers must be Device or Pinned (true-async rule).
    pub fn memcpy_async(
        &mut self,
        dst: &Buffer,
        dst_off: u64,
        src: &Buffer,
        src_off: u64,
        len: u64,
        stream: StreamId,
    ) {
        self.ensure_ctx();
        assert!(src.in_bounds(src_off, len), "memcpy_async src out of range");
        assert!(dst.in_bounds(dst_off, len), "memcpy_async dst out of range");
        for b in [src, dst] {
            assert!(
                matches!(b.kind, BufKind::Device | BufKind::Pinned),
                "memcpy_async requires device or pinned memory (got {:?})",
                b.kind
            );
        }
        let (engine, dur) = match (src.kind, dst.kind) {
            (BufKind::Device, BufKind::Device) => (
                Engine::Compute, // D2D copies ride the compute engine
                CostParams::transfer_ns(Bytes::new(len), self.params.hbm_bw),
            ),
            (_, BufKind::Device) => {
                self.session.bus.count("cuda.memcpy_bytes_h2d", len);
                (
                    Engine::CopyH2d,
                    self.link.bulk(Bytes::new(len), Direction::H2D),
                )
            }
            (BufKind::Device, _) => {
                self.session.bus.count("cuda.memcpy_bytes_d2h", len);
                (
                    Engine::CopyD2h,
                    self.link.bulk(Bytes::new(len), Direction::D2H),
                )
            }
            _ => (
                Engine::CopyH2d,
                CostParams::transfer_ns(Bytes::new(len), self.params.lpddr_bw),
            ),
        };
        let dur = dur + self.params.memcpy_fixed / 4; // async submit is cheap
        self.enqueue(stream, engine, dur);
        self.tick(500); // host-side enqueue cost
    }

    /// Enqueues a kernel on `stream`: dense reads/writes on device or
    /// pinned buffers plus compute work, overlapping with copies on
    /// other streams. Returns the operation's completion timestamp.
    pub fn launch_async(
        &mut self,
        name: &str,
        stream: StreamId,
        reads: &[(Buffer, u64, u64)],
        writes: &[(Buffer, u64, u64)],
        compute_units: u64,
    ) -> Ns {
        self.ensure_ctx();
        self.kernel_seq += 1;
        let mut traffic = gh_mem::traffic::KernelTraffic::default();
        let mut hbm = 0u64;
        let mut c2c_r = 0u64;
        let mut c2c_w = 0u64;
        for (b, off, len) in reads {
            assert!(b.in_bounds(*off, *len), "async read out of range");
            match b.kind {
                BufKind::Device => {
                    hbm = hbm.saturating_add(*len);
                    traffic.hbm_read = traffic.hbm_read.saturating_add(*len);
                }
                BufKind::Pinned => {
                    c2c_r = c2c_r.saturating_add(*len);
                    traffic.c2c_read = traffic.c2c_read.saturating_add(*len);
                }
                _ => panic!("launch_async requires device or pinned buffers"),
            }
            traffic.l1l2 = traffic.l1l2.saturating_add(*len);
        }
        for (b, off, len) in writes {
            assert!(b.in_bounds(*off, *len), "async write out of range");
            match b.kind {
                BufKind::Device => {
                    hbm = hbm.saturating_add(*len);
                    traffic.hbm_write = traffic.hbm_write.saturating_add(*len);
                }
                BufKind::Pinned => {
                    c2c_w = c2c_w.saturating_add(*len);
                    traffic.c2c_write = traffic.c2c_write.saturating_add(*len);
                }
                _ => panic!("launch_async requires device or pinned buffers"),
            }
            traffic.l1l2 = traffic.l1l2.saturating_add(*len);
        }
        let p = &self.params;
        let mem = CostParams::transfer_ns(Bytes::new(hbm), p.hbm_bw)
            + CostParams::transfer_ns(Bytes::new(c2c_r), p.c2c_h2d_bw * p.c2c_stream_eff)
            + CostParams::transfer_ns(Bytes::new(c2c_w), p.c2c_d2h_bw * p.c2c_stream_eff);
        let compute = ns_from_f64((compute_units as f64 / p.gpu_throughput).ceil());
        let dur = p.kernel_launch + mem.max(compute);
        let end = self.enqueue(stream, Engine::Compute, dur);
        self.kernels.push(crate::kernel::KernelRecord {
            name: format!("{name}#{}", self.kernel_seq),
            time: dur,
            traffic,
        });
        self.tick(500);
        end
    }

    /// `cudaEventRecord`: marks the stream's current tail; the event
    /// "occurs" when all prior work on the stream completes.
    pub fn event_record(&mut self, stream: StreamId) -> EventId {
        let tail = *self
            .streams
            .tails
            .get(&stream.raw)
            .unwrap_or_else(|| panic!("unknown stream {stream:?}"));
        let id = self.streams.next_event;
        self.streams.next_event += 1;
        self.streams.events.insert(id, tail.max(self.now()));
        EventId { raw: id }
    }

    /// `cudaEventSynchronize`: blocks until the event has occurred.
    pub fn event_synchronize(&mut self, event: EventId) {
        let t = *self
            .streams
            .events
            .get(&event.raw)
            .unwrap_or_else(|| panic!("unknown event {event:?}"));
        if t > self.now() {
            let dt = t - self.now();
            self.tick(dt);
        }
    }

    /// `cudaEventElapsedTime`: nanoseconds between two events
    /// (`end - start`; panics if `end` precedes `start`).
    pub fn event_elapsed(&self, start: EventId, end: EventId) -> Ns {
        let s = self.streams.events[&start.raw];
        let e = self.streams.events[&end.raw];
        e.checked_sub(s)
            .expect("end event occurs before start event")
    }

    /// `cudaStreamWaitEvent`: makes `stream` wait for `event` (its next
    /// operation starts no earlier than the event's timestamp).
    pub fn stream_wait_event(&mut self, stream: StreamId, event: EventId) {
        let t = self.streams.events[&event.raw];
        let tail = self
            .streams
            .tails
            .get_mut(&stream.raw)
            .unwrap_or_else(|| panic!("unknown stream {stream:?}"));
        *tail = (*tail).max(t);
    }

    /// `cudaStreamSynchronize`: blocks (advances the clock) until the
    /// stream's last operation completes.
    pub fn stream_synchronize(&mut self, stream: StreamId) {
        let tail = *self
            .streams
            .tails
            .get(&stream.raw)
            .unwrap_or_else(|| panic!("unknown stream {stream:?}"));
        if tail > self.now() {
            let dt = tail - self.now();
            self.tick(dt);
        }
    }

    /// Synchronizes every stream (the async half of
    /// `cudaDeviceSynchronize`).
    pub fn all_streams_synchronize(&mut self) {
        let tail = self.streams.max_tail();
        if tail > self.now() {
            let dt = tail - self.now();
            self.tick(dt);
        }
    }
}

pub(crate) use StreamState as State;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RuntimeOptions;
    use gh_mem::params::MIB;

    fn rt() -> Runtime {
        Runtime::new(CostParams::default(), RuntimeOptions::default())
    }

    #[test]
    fn independent_streams_overlap_copy_and_compute() {
        let mut r = rt();
        let h = r.cuda_malloc_host(Bytes::new(32 * MIB), "h");
        let d = r.cuda_malloc(Bytes::new(32 * MIB), "d").unwrap();
        let s_copy = r.create_stream();
        let s_comp = r.create_stream();
        let t0 = r.now();

        // Serial reference: copy then kernel on one stream.
        r.memcpy_async(&d, 0, &h, 0, 32 * MIB, s_copy);
        r.stream_synchronize(s_copy);
        let serial = r.now() - t0;

        // Overlapped: same copy and an equally long independent kernel.
        let t1 = r.now();
        r.memcpy_async(&d, 0, &h, 0, 32 * MIB, s_copy);
        r.launch_async("k", s_comp, &[(d, 0, 32 * MIB)], &[], 32 * (1 << 20) * 9);
        r.all_streams_synchronize();
        let overlapped = r.now() - t1;
        // The kernel alone takes ~3.7 ms at 9000 units/ns... compute
        // dominates; total must be far below copy+kernel serialized.
        assert!(
            overlapped < serial + 4_000_000,
            "overlap lost: serial {serial}, overlapped {overlapped}"
        );
    }

    #[test]
    fn same_stream_operations_serialize() {
        let mut r = rt();
        let h = r.cuda_malloc_host(Bytes::new(16 * MIB), "h");
        let d = r.cuda_malloc(Bytes::new(16 * MIB), "d").unwrap();
        let s = r.create_stream();
        let t0 = r.now();
        r.memcpy_async(&d, 0, &h, 0, 16 * MIB, s);
        r.memcpy_async(&h, 0, &d, 0, 16 * MIB, s);
        r.stream_synchronize(s);
        let elapsed = r.now() - t0;
        // H2D at 375 + D2H at 297 must be strictly additive (same stream),
        // even though they use different engines.
        let expect = (16.0 * 1048576.0 / 375.0 + 16.0 * 1048576.0 / 297.0) as u64;
        assert!(
            elapsed >= expect,
            "same-stream ops must serialize: {elapsed} < {expect}"
        );
    }

    #[test]
    fn copy_engines_are_independent_directions() {
        let mut r = rt();
        let h = r.cuda_malloc_host(Bytes::new(32 * MIB), "h");
        let d = r.cuda_malloc(Bytes::new(32 * MIB), "d").unwrap();
        let s1 = r.create_stream();
        let s2 = r.create_stream();
        let t0 = r.now();
        r.memcpy_async(&d, 0, &h, 0, 32 * MIB, s1); // H2D engine
        r.memcpy_async(&h, 0, &d, 0, 32 * MIB, s2); // D2H engine
        r.all_streams_synchronize();
        let elapsed = r.now() - t0;
        let d2h_alone = (32.0 * 1048576.0 / 297.0) as u64;
        assert!(
            elapsed < d2h_alone + d2h_alone / 2,
            "opposite directions must overlap: {elapsed} vs {d2h_alone}"
        );
    }

    #[test]
    fn same_engine_contends() {
        let mut r = rt();
        let h = r.cuda_malloc_host(Bytes::new(32 * MIB), "h");
        let d = r.cuda_malloc(Bytes::new(32 * MIB), "d").unwrap();
        let s1 = r.create_stream();
        let s2 = r.create_stream();
        let t0 = r.now();
        r.memcpy_async(&d, 0, &h, 0, 16 * MIB, s1);
        r.memcpy_async(&d, 16 * MIB, &h, 16 * MIB, 16 * MIB, s2);
        r.all_streams_synchronize();
        let elapsed = r.now() - t0;
        let both = (32.0 * 1048576.0 / 375.0) as u64;
        assert!(
            elapsed >= both,
            "same-direction copies share one engine: {elapsed} < {both}"
        );
    }

    #[test]
    #[should_panic(expected = "requires device or pinned")]
    fn async_copy_of_managed_memory_panics() {
        let mut r = rt();
        let m = r.cuda_malloc_managed(Bytes::new(MIB), "m");
        let d = r.cuda_malloc(Bytes::new(MIB), "d").unwrap();
        let s = r.create_stream();
        r.memcpy_async(&d, 0, &m, 0, MIB, s);
    }

    #[test]
    fn events_time_stream_work() {
        let mut r = rt();
        let h = r.cuda_malloc_host(Bytes::new(16 * MIB), "h");
        let d = r.cuda_malloc(Bytes::new(16 * MIB), "d").unwrap();
        let s = r.create_stream();
        let e0 = r.event_record(s);
        r.memcpy_async(&d, 0, &h, 0, 16 * MIB, s);
        let e1 = r.event_record(s);
        r.event_synchronize(e1);
        let elapsed = r.event_elapsed(e0, e1);
        let expect = (16.0 * 1048576.0 / 375.0) as u64;
        assert!(
            elapsed >= expect && elapsed < expect * 2,
            "copy timing via events: {elapsed} vs {expect}"
        );
    }

    #[test]
    fn stream_wait_event_orders_cross_stream_work() {
        let mut r = rt();
        let h = r.cuda_malloc_host(Bytes::new(8 * MIB), "h");
        let d = r.cuda_malloc(Bytes::new(8 * MIB), "d").unwrap();
        let s1 = r.create_stream();
        let s2 = r.create_stream();
        r.memcpy_async(&d, 0, &h, 0, 8 * MIB, s1);
        let e = r.event_record(s1);
        // s2's kernel must not start before s1's copy finished.
        r.stream_wait_event(s2, e);
        let end = r.launch_async("k", s2, &[(d, 0, 8 * MIB)], &[], 0);
        let copy_done = {
            r.event_synchronize(e);
            r.now()
        };
        assert!(
            end >= copy_done,
            "kernel {end} must follow copy {copy_done}"
        );
    }

    #[test]
    fn stream_sync_is_idempotent() {
        let mut r = rt();
        let s = r.create_stream();
        r.stream_synchronize(s);
        let t = r.now();
        r.stream_synchronize(s);
        assert_eq!(r.now(), t);
    }
}
