//! NVLink-C2C interconnect cost model.
//!
//! Two access regimes matter on Grace Hopper:
//!
//! * **bulk transfers** (`cudaMemcpy`, page migrations, prefetches) reach
//!   the measured link bandwidth (375 GB/s H2D, 297 GB/s D2H, paper §2.1);
//! * **cacheline-grain remote access** (the new direct-access path) moves
//!   64 B (CPU-initiated) or 128 B (GPU-initiated) lines and sustains only
//!   a fraction of the bulk bandwidth for sparse streams.
//!
//! The link also carries ATS translation requests and atomics; their cost
//! is charged by the [`crate::smmu::Smmu`] model.

use gh_units::{to_f64, Bytes, Lines};

/// Transfer direction over the C2C link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Host (CPU/LPDDR) to device (GPU/HBM).
    H2D,
    /// Device to host.
    D2H,
}

/// The NVLink-C2C model: cost functions plus cumulative byte counters.
#[derive(Debug, Clone)]
pub struct Link {
    h2d_bw: f64,
    d2h_bw: f64,
    random_eff: f64,
    latency: u64,
    bytes_h2d: Bytes,
    bytes_d2h: Bytes,
    bulk_h2d: Bytes,
    bulk_d2h: Bytes,
    bus: gh_trace::Bus,
}

impl Link {
    /// Builds the link from calibrated parameters. Observability is off
    /// until [`Link::with_obs`] injects the session's bus.
    pub fn new(h2d_bw: f64, d2h_bw: f64, random_eff: f64, latency: u64) -> Self {
        assert!(h2d_bw > 0.0 && d2h_bw > 0.0);
        assert!((0.0..=1.0).contains(&random_eff) && random_eff > 0.0);
        Self {
            h2d_bw,
            d2h_bw,
            random_eff,
            latency,
            bytes_h2d: Bytes::ZERO,
            bytes_d2h: Bytes::ZERO,
            bulk_h2d: Bytes::ZERO,
            bulk_d2h: Bytes::ZERO,
            bus: gh_trace::Bus::off(),
        }
    }

    /// Attaches the owning session's trace bus. Recording is report-only:
    /// costs and counters are bit-identical either way.
    pub fn with_obs(mut self, bus: gh_trace::Bus) -> Self {
        self.bus = bus;
        self
    }

    fn bw(&self, dir: Direction) -> f64 {
        match dir {
            Direction::H2D => self.h2d_bw,
            Direction::D2H => self.d2h_bw,
        }
    }

    /// Cost of a bulk transfer of `bytes` in `dir`; records traffic.
    pub fn bulk(&mut self, bytes: Bytes, dir: Direction) -> u64 {
        if bytes.is_zero() {
            return 0;
        }
        self.record(bytes, dir);
        match dir {
            Direction::H2D => self.bulk_h2d += bytes,
            Direction::D2H => self.bulk_d2h += bytes,
        }
        let dur = self.latency + crate::params::CostParams::transfer_ns(bytes, self.bw(dir));
        self.emit(bytes, dir, dur);
        dur
    }

    /// Cost of `lines` cacheline-grain remote accesses of `line_bytes`
    /// each, in `dir`; records traffic. The stream pays the link latency
    /// once (accesses pipeline) plus bytes at `eff × bandwidth`, where
    /// the caller picks the efficiency for the access class (dense
    /// stream vs irregular).
    pub fn cacheline_stream_eff(
        &mut self,
        lines: Lines,
        line_bytes: Bytes,
        dir: Direction,
        eff: f64,
    ) -> u64 {
        if lines.is_zero() {
            return 0;
        }
        let bytes = lines.bytes(line_bytes);
        self.record(bytes, dir);
        let dur = self.latency + crate::params::CostParams::transfer_ns(bytes, self.bw(dir) * eff);
        self.emit(bytes, dir, dur);
        dur
    }

    /// [`Link::cacheline_stream_eff`] with the link's default
    /// (irregular-access) efficiency.
    pub fn cacheline_stream(&mut self, lines: Lines, line_bytes: Bytes, dir: Direction) -> u64 {
        self.cacheline_stream_eff(lines, line_bytes, dir, self.random_eff)
    }

    /// Cost of one remote atomic operation (single line round trip).
    pub fn atomic(&mut self, line_bytes: Bytes, dir: Direction) -> u64 {
        self.record(line_bytes, dir);
        let dur = 2 * self.latency;
        self.emit(line_bytes, dir, dur);
        dur
    }

    fn record(&mut self, bytes: Bytes, dir: Direction) {
        match dir {
            Direction::H2D => self.bytes_h2d += bytes,
            Direction::D2H => self.bytes_d2h += bytes,
        }
    }

    /// Reports the transfer to the observability bus (no-op when tracing
    /// is disabled; never affects costs).
    fn emit(&self, bytes: Bytes, dir: Direction, dur: u64) {
        if !self.bus.is_on() {
            return;
        }
        let tdir = match dir {
            Direction::H2D => gh_trace::Dir::H2D,
            Direction::D2H => gh_trace::Dir::D2H,
        };
        self.bus.emit(gh_trace::Event::LinkXfer {
            dir: tdir,
            bytes: bytes.get(),
            dur,
        });
        self.bus.count(
            match dir {
                Direction::H2D => "link.bytes_h2d",
                Direction::D2H => "link.bytes_d2h",
            },
            bytes.get(),
        );
        self.bus.count("link.xfers", 1);
        self.bus.observe("link.xfer_bytes", bytes.get());
    }

    /// Cumulative bytes moved host→device (bulk + cacheline + atomics).
    pub fn bytes_h2d(&self) -> Bytes {
        self.bytes_h2d
    }

    /// Cumulative bytes moved device→host (bulk + cacheline + atomics).
    pub fn bytes_d2h(&self) -> Bytes {
        self.bytes_d2h
    }

    /// Cumulative bytes moved host→device by bulk transfers only
    /// (migrations, memcpys, prefetches). The invariant sanitizer checks
    /// this against the sum of page migrations and explicit transfers.
    pub fn bulk_bytes_h2d(&self) -> Bytes {
        self.bulk_h2d
    }

    /// Cumulative bytes moved device→host by bulk transfers only.
    pub fn bulk_bytes_d2h(&self) -> Bytes {
        self.bulk_d2h
    }

    /// Achieved bulk bandwidth for a transfer, bytes/ns (for the
    /// Comm|Scope-style bandwidth bench).
    pub fn effective_bulk_bw(&self, bytes: Bytes, dir: Direction) -> f64 {
        let t = self.latency + crate::params::CostParams::transfer_ns(bytes, self.bw(dir));
        to_f64(bytes.get()) / to_f64(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(n: u64) -> Bytes {
        Bytes::new(n)
    }

    fn link() -> Link {
        Link::new(375.0, 297.0, 0.35, 850)
    }

    #[test]
    fn bulk_cost_scales_with_bytes() {
        let mut l = link();
        let t1 = l.bulk(b(375_000), Direction::H2D);
        let t2 = l.bulk(b(750_000), Direction::H2D);
        assert_eq!(t1, 850 + 1000);
        assert_eq!(t2, 850 + 2000);
    }

    #[test]
    fn d2h_is_slower_than_h2d() {
        let mut l = link();
        let h2d = l.bulk(b(10_000_000), Direction::H2D);
        let d2h = l.bulk(b(10_000_000), Direction::D2H);
        assert!(d2h > h2d);
    }

    #[test]
    fn zero_bytes_is_free() {
        let mut l = link();
        assert_eq!(l.bulk(b(0), Direction::H2D), 0);
        assert_eq!(l.cacheline_stream(Lines::new(0), b(128), Direction::H2D), 0);
        assert_eq!(l.bytes_h2d(), b(0));
    }

    #[test]
    fn cacheline_stream_is_derated() {
        let mut l = link();
        let bulk = l.bulk(b(1_280_000), Direction::H2D);
        let stream = l.cacheline_stream(Lines::new(10_000), b(128), Direction::H2D);
        assert!(
            stream > bulk * 2,
            "sparse stream ({stream}) must be much slower than bulk ({bulk})"
        );
    }

    #[test]
    fn traffic_counters_accumulate() {
        let mut l = link();
        l.bulk(b(100), Direction::H2D);
        l.cacheline_stream(Lines::new(2), b(64), Direction::D2H);
        l.atomic(b(128), Direction::H2D);
        assert_eq!(l.bytes_h2d(), b(100 + 128));
        assert_eq!(l.bytes_d2h(), b(128));
    }

    #[test]
    fn bulk_counters_exclude_cacheline_and_atomic_traffic() {
        let mut l = link();
        l.bulk(b(100), Direction::H2D);
        l.bulk(b(40), Direction::D2H);
        l.cacheline_stream(Lines::new(2), b(64), Direction::H2D);
        l.atomic(b(128), Direction::D2H);
        assert_eq!(l.bulk_bytes_h2d(), b(100));
        assert_eq!(l.bulk_bytes_d2h(), b(40));
        assert_eq!(l.bytes_h2d(), b(100 + 128));
        assert_eq!(l.bytes_d2h(), b(40 + 128));
    }

    #[test]
    fn effective_bw_approaches_peak_for_large_transfers() {
        let l = link();
        let bw = l.effective_bulk_bw(b(1_000_000_000), Direction::H2D);
        assert!(bw > 370.0 && bw <= 375.0, "got {bw}");
        let small = l.effective_bulk_bw(b(4096), Direction::H2D);
        assert!(
            small < 10.0,
            "latency must dominate small transfers: {small}"
        );
    }

    #[test]
    fn atomics_pay_round_trip() {
        let mut l = link();
        assert_eq!(l.atomic(b(64), Direction::D2H), 1700);
    }
}
