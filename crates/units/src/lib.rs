//! Zero-cost unit newtypes for the simulator's dimensional arithmetic.
//!
//! The whole cost model is dimensional analysis — fault counts × per-fault
//! cost, pages × per-PTE teardown, bytes ÷ link bandwidth — and a
//! bytes-vs-pages mixup in a bare-`u64` API compiles clean and silently
//! corrupts every figure. These newtypes make the unit part of the type:
//!
//! | Type       | Wraps | Meaning                                    |
//! |------------|-------|--------------------------------------------|
//! | [`Bytes`]  | `u64` | A byte quantity (capacity, transfer size)  |
//! | [`Pages`]  | `u64` | A page count                               |
//! | [`PageSize`]| `u64`| A power-of-two page size in bytes          |
//! | [`Vpn`]    | `u64` | A virtual page number                      |
//! | [`VpnRange`]| —    | A half-open `[start, end)` range of VPNs   |
//! | [`Lines`]  | `u64` | A cacheline count                          |
//! | [`SimNs`]  | `u64` | A virtual-nanosecond duration              |
//! | [`BwGiBs`] | `f64` | A bandwidth in bytes/ns (== GB/s)          |
//!
//! Arithmetic within a unit is *saturating* (accounting never wraps);
//! crossings between units exist only as the explicit conversions below:
//!
//! * `Bytes / PageSize -> Pages` (floor) and [`Bytes::pages_ceil`] (ceil);
//! * `Pages * PageSize -> Bytes`;
//! * [`PageSize::vpn`] (address -> the [`Vpn`] holding it);
//! * [`Lines::bytes`] (lines × line size);
//! * [`VpnRange::count`] `-> Pages`;
//! * [`BwGiBs::transfer_ns`] / [`transfer_ns`] (bytes ÷ bandwidth, rounded
//!   half-up, saturating — never a truncating `as u64`).
//!
//! Everything else goes through [`get`](Bytes::get) at the raw boundary,
//! which the `no-raw-unit-cast` audit rule confines to this crate and to
//! explicitly-blessed call sites.

#![forbid(unsafe_code)]
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

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

pub mod sanitizer;

/// Widens a `usize` count (e.g. `Vec::len`) to `u64` without spelling the
/// banned `as u64` cast at call sites. `const` so it works in constants.
#[inline]
pub const fn widen(n: usize) -> u64 {
    n as u64
}

/// Deterministic, saturating `f64 -> u64` nanosecond conversion: rounds
/// half-up (half away from zero), maps NaN and negatives to 0, and
/// saturates `+inf`/overflow to `u64::MAX` instead of truncating.
#[inline]
pub fn ns_from_f64(x: f64) -> u64 {
    let r = x.round();
    if r.is_nan() || r < 0.0 {
        // NaN or negative: a cost can only be non-negative.
        return 0;
    }
    if r >= u64::MAX as f64 {
        return u64::MAX;
    }
    r as u64
}

/// Time to move `bytes` at `bw` bytes/ns: `round(bytes / bw)` half-up,
/// saturating, with a 1 ns floor for any non-zero transfer (a zero-byte
/// transfer is free). This is the simulator's single bytes→time crossing.
#[inline]
pub fn transfer_ns(bytes: Bytes, bw: f64) -> u64 {
    if bytes.is_zero() {
        return 0;
    }
    ns_from_f64(bytes.get() as f64 / bw).max(1)
}

macro_rules! scalar_unit {
    ($(#[$doc:meta])* $name:ident, $suffix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(u64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: $name = $name(0);

            /// Wraps a raw value.
            #[inline]
            pub const fn new(v: u64) -> Self {
                $name(v)
            }

            /// Unwraps to the raw value (the only sanctioned exit).
            #[inline]
            pub const fn get(self) -> u64 {
                self.0
            }

            /// Whether the quantity is zero.
            #[inline]
            pub const fn is_zero(self) -> bool {
                self.0 == 0
            }

            /// Saturating addition (accounting never wraps).
            #[inline]
            pub const fn saturating_add(self, rhs: Self) -> Self {
                $name(self.0.saturating_add(rhs.0))
            }

            /// Saturating subtraction (accounting never wraps).
            #[inline]
            pub const fn saturating_sub(self, rhs: Self) -> Self {
                $name(self.0.saturating_sub(rhs.0))
            }

            /// `None` when `rhs` exceeds `self` (for must-not-underflow
            /// release paths that want the error surfaced).
            #[inline]
            pub const fn checked_sub(self, rhs: Self) -> Option<Self> {
                match self.0.checked_sub(rhs.0) {
                    Some(v) => Some($name(v)),
                    None => None,
                }
            }
        }

        impl Add for $name {
            type Output = $name;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                self.saturating_add(rhs)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                *self = self.saturating_add(rhs);
            }
        }

        impl Sub for $name {
            type Output = $name;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                self.saturating_sub(rhs)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                *self = self.saturating_sub(rhs);
            }
        }

        impl Mul<u64> for $name {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: u64) -> Self {
                $name(self.0.saturating_mul(rhs))
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> Self {
                iter.fold($name::ZERO, |a, b| a.saturating_add(b))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!("{} ", $suffix), self.0)
            }
        }
    };
}

scalar_unit!(
    /// A byte quantity: capacities, transfer sizes, RSS.
    Bytes,
    "B"
);
scalar_unit!(
    /// A page count (of whatever page size the context fixes).
    Pages,
    "pages"
);
scalar_unit!(
    /// A cacheline count (64 B CPU lines or 128 B GPU lines).
    Lines,
    "lines"
);
scalar_unit!(
    /// A virtual-nanosecond duration (the simulated clock's unit).
    SimNs,
    "ns"
);

impl Bytes {
    /// Pages spanned by this many bytes, rounding *up* (allocation: a
    /// partial page still occupies a whole page).
    #[inline]
    pub const fn pages_ceil(self, page: PageSize) -> Pages {
        Pages(self.0.div_ceil(page.0))
    }
}

/// `Bytes / PageSize -> Pages`, rounding down (how many whole pages fit).
impl Div<PageSize> for Bytes {
    type Output = Pages;
    #[inline]
    fn div(self, rhs: PageSize) -> Pages {
        Pages(self.0 / rhs.0)
    }
}

/// `Pages * PageSize -> Bytes` (the inverse crossing), saturating.
impl Mul<PageSize> for Pages {
    type Output = Bytes;
    #[inline]
    fn mul(self, rhs: PageSize) -> Bytes {
        Bytes(self.0.saturating_mul(rhs.0))
    }
}

impl Lines {
    /// Total bytes moved by this many lines of `line` bytes each.
    #[inline]
    pub const fn bytes(self, line: Bytes) -> Bytes {
        Bytes(self.0.saturating_mul(line.0))
    }
}

/// A power-of-two page size in bytes. Constructing a non-power-of-two
/// size panics: every page-size source in the simulator validates first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageSize(u64);

impl PageSize {
    /// Wraps a page size; panics unless `v` is a power of two.
    #[inline]
    pub fn new(v: u64) -> Self {
        assert!(v.is_power_of_two(), "page size must be a power of two");
        PageSize(v)
    }

    /// The raw size in bytes.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The size as a [`Bytes`] quantity (one page's worth).
    #[inline]
    pub const fn bytes(self) -> Bytes {
        Bytes(self.0)
    }

    /// The virtual page number of the page holding address `vaddr`.
    #[inline]
    pub const fn vpn(self, vaddr: u64) -> Vpn {
        Vpn(vaddr / self.0)
    }
}

impl fmt::Display for PageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} B/page", self.0)
    }
}

/// A virtual page number (`vaddr / page_size`). Ordered and hashable so
/// page tables and migration sets can key on it directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Vpn(u64);

impl Vpn {
    /// Wraps a raw VPN.
    #[inline]
    pub const fn new(v: u64) -> Self {
        Vpn(v)
    }

    /// The raw VPN.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The VPN `n` pages after this one (saturating).
    #[inline]
    pub const fn offset(self, n: u64) -> Vpn {
        Vpn(self.0.saturating_add(n))
    }

    /// The VPN `n` pages before this one (saturating at VPN 0).
    #[inline]
    pub const fn back(self, n: u64) -> Vpn {
        Vpn(self.0.saturating_sub(n))
    }
}

impl fmt::Display for Vpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vpn {}", self.0)
    }
}

/// A half-open `[start, end)` range of virtual page numbers.
///
/// `std::ops::Range<Vpn>` cannot be iterated on stable (the `Step` trait
/// is unstable), so the simulator uses this dedicated range type; it also
/// carries the `count -> Pages` crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VpnRange {
    /// First VPN in the range.
    pub start: Vpn,
    /// One past the last VPN.
    pub end: Vpn,
}

impl VpnRange {
    /// Builds `[start, end)`; an inverted range is treated as empty.
    #[inline]
    pub const fn new(start: Vpn, end: Vpn) -> Self {
        VpnRange { start, end }
    }

    /// The empty range positioned at `at`.
    #[inline]
    pub const fn empty(at: Vpn) -> Self {
        VpnRange { start: at, end: at }
    }

    /// Whether the range holds no VPNs.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.start.0 >= self.end.0
    }

    /// Number of pages the range spans.
    #[inline]
    pub const fn count(self) -> Pages {
        Pages(self.end.0.saturating_sub(self.start.0))
    }

    /// Whether `vpn` falls inside the range.
    #[inline]
    pub const fn contains(self, vpn: Vpn) -> bool {
        vpn.0 >= self.start.0 && vpn.0 < self.end.0
    }

    /// Iterates the VPNs in order.
    pub fn iter(self) -> impl Iterator<Item = Vpn> {
        (self.start.0..self.end.0).map(Vpn)
    }
}

impl IntoIterator for VpnRange {
    type Item = Vpn;
    type IntoIter = std::iter::Map<std::ops::Range<u64>, fn(u64) -> Vpn>;
    fn into_iter(self) -> Self::IntoIter {
        (self.start.0..self.end.0).map(Vpn)
    }
}

impl fmt::Display for VpnRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vpns [{}, {})", self.start.0, self.end.0)
    }
}

/// A bandwidth in bytes per nanosecond (numerically equal to GB/s).
/// Construction rejects non-finite and non-positive values so every
/// division by a bandwidth is well-defined.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct BwGiBs(f64);

impl BwGiBs {
    /// Wraps a bandwidth; panics on NaN, infinite, zero or negative input
    /// (cost-model validation rejects these long before this point).
    #[inline]
    pub fn new(v: f64) -> Self {
        assert!(
            v.is_finite() && v > 0.0,
            "bandwidth must be finite and positive"
        );
        BwGiBs(v)
    }

    /// The raw bytes/ns value.
    #[inline]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Time to move `bytes` at this bandwidth (see [`transfer_ns`]).
    #[inline]
    pub fn transfer_ns(self, bytes: Bytes) -> u64 {
        transfer_ns(bytes, self.0)
    }
}

impl fmt::Display for BwGiBs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} GB/s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_page_crossings() {
        let page = PageSize::new(4096);
        assert_eq!(Bytes::new(0).pages_ceil(page), Pages::new(0));
        assert_eq!(Bytes::new(1).pages_ceil(page), Pages::new(1));
        assert_eq!(Bytes::new(4096).pages_ceil(page), Pages::new(1));
        assert_eq!(Bytes::new(4097).pages_ceil(page), Pages::new(2));
        assert_eq!(Bytes::new(8191) / page, Pages::new(1));
        assert_eq!(Pages::new(3) * page, Bytes::new(12288));
        assert_eq!(page.vpn(0), Vpn::new(0));
        assert_eq!(page.vpn(8191), Vpn::new(1));
        assert_eq!(page.vpn(8192), Vpn::new(2));
    }

    #[test]
    fn saturating_arithmetic_never_wraps() {
        let max = Bytes::new(u64::MAX);
        assert_eq!(max + Bytes::new(1), max);
        assert_eq!(Bytes::new(0) - Bytes::new(1), Bytes::ZERO);
        assert_eq!(
            Pages::new(u64::MAX) * PageSize::new(4096),
            Bytes::new(u64::MAX)
        );
        assert_eq!(Bytes::new(5).checked_sub(Bytes::new(6)), None);
        assert_eq!(Bytes::new(6).checked_sub(Bytes::new(6)), Some(Bytes::ZERO));
    }

    #[test]
    fn lines_to_bytes() {
        assert_eq!(Lines::new(10).bytes(Bytes::new(128)), Bytes::new(1280));
        assert_eq!(Lines::ZERO.bytes(Bytes::new(128)), Bytes::ZERO);
    }

    #[test]
    fn vpn_range_iterates_and_counts() {
        let r = VpnRange::new(Vpn::new(3), Vpn::new(7));
        assert_eq!(r.count(), Pages::new(4));
        assert!(!r.is_empty());
        assert!(r.contains(Vpn::new(3)) && r.contains(Vpn::new(6)));
        assert!(!r.contains(Vpn::new(7)));
        let vs: Vec<u64> = r.iter().map(Vpn::get).collect();
        assert_eq!(vs, vec![3, 4, 5, 6]);
        let empty = VpnRange::empty(Vpn::new(9));
        assert!(empty.is_empty());
        assert_eq!(empty.count(), Pages::ZERO);
        // Inverted ranges are empty, not huge.
        let inv = VpnRange::new(Vpn::new(5), Vpn::new(2));
        assert!(inv.is_empty());
        assert_eq!(inv.count(), Pages::ZERO);
        assert_eq!(inv.iter().count(), 0);
        // Single-page steps saturate at the ends of the VPN space.
        assert_eq!(Vpn::new(3).offset(1), Vpn::new(4));
        assert_eq!(Vpn::new(3).back(1), Vpn::new(2));
        assert_eq!(Vpn::new(0).back(1), Vpn::new(0));
        assert_eq!(Vpn::new(u64::MAX).offset(1), Vpn::new(u64::MAX));
    }

    #[test]
    fn ns_from_f64_rounds_half_up_and_saturates() {
        assert_eq!(ns_from_f64(0.0), 0);
        assert_eq!(ns_from_f64(0.4), 0);
        assert_eq!(ns_from_f64(0.5), 1);
        assert_eq!(ns_from_f64(10.49), 10);
        assert_eq!(ns_from_f64(10.5), 11);
        assert_eq!(ns_from_f64(-3.0), 0);
        assert_eq!(ns_from_f64(f64::NAN), 0);
        assert_eq!(ns_from_f64(f64::INFINITY), u64::MAX);
        assert_eq!(ns_from_f64(1e300), u64::MAX);
    }

    #[test]
    fn transfer_ns_boundaries() {
        // Zero bytes are free; any non-zero transfer takes >= 1 ns.
        assert_eq!(transfer_ns(Bytes::ZERO, 375.0), 0);
        assert_eq!(transfer_ns(Bytes::new(1), 3400.0), 1);
        // Exact multiples divide evenly.
        assert_eq!(transfer_ns(Bytes::new(375_000), 375.0), 1000);
        // Half-up rounding at the GiB/s boundary: 1001/100 = 10.01 -> 10,
        // 1050/100 = 10.5 -> 11.
        assert_eq!(transfer_ns(Bytes::new(1001), 100.0), 10);
        assert_eq!(transfer_ns(Bytes::new(1050), 100.0), 11);
        assert_eq!(transfer_ns(Bytes::new(1049), 100.0), 10);
        // Saturation instead of truncation on pathological inputs.
        assert_eq!(transfer_ns(Bytes::new(u64::MAX), 1e-300), u64::MAX);
        assert_eq!(
            transfer_ns(Bytes::new(u64::MAX), f64::MIN_POSITIVE),
            u64::MAX
        );
    }

    #[test]
    fn bw_wrapper_matches_free_fn() {
        let bw = BwGiBs::new(486.0);
        assert_eq!(bw.transfer_ns(Bytes::new(972)), 2);
        assert_eq!(bw.transfer_ns(Bytes::ZERO), 0);
        assert_eq!(format!("{bw}"), "486 GB/s");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn page_size_rejects_non_power_of_two() {
        PageSize::new(3000);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn bandwidth_rejects_zero() {
        BwGiBs::new(0.0);
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(Bytes::new(42).to_string(), "42 B");
        assert_eq!(Pages::new(7).to_string(), "7 pages");
        assert_eq!(Lines::new(3).to_string(), "3 lines");
        assert_eq!(SimNs::new(9).to_string(), "9 ns");
        assert_eq!(Vpn::new(5).to_string(), "vpn 5");
        assert_eq!(
            VpnRange::new(Vpn::new(1), Vpn::new(4)).to_string(),
            "vpns [1, 4)"
        );
        assert_eq!(PageSize::new(4096).to_string(), "4096 B/page");
    }

    #[test]
    fn ordering_matches_raw_ordering() {
        assert!(Bytes::new(1) < Bytes::new(2));
        assert!(Vpn::new(9) > Vpn::new(8));
        let mut v = vec![Pages::new(3), Pages::new(1), Pages::new(2)];
        v.sort();
        assert_eq!(v, vec![Pages::new(1), Pages::new(2), Pages::new(3)]);
    }

    #[test]
    fn widen_is_lossless() {
        assert_eq!(widen(0), 0);
        assert_eq!(widen(usize::MAX), usize::MAX as u64);
        const N: u64 = widen(16) - 1;
        assert_eq!(N, 15);
    }

    #[test]
    fn sum_saturates() {
        let total: Bytes = [Bytes::new(u64::MAX), Bytes::new(1)].into_iter().sum();
        assert_eq!(total, Bytes::new(u64::MAX));
    }
}
