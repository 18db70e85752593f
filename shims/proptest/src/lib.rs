//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so this shim provides the
//! API subset the workspace's property tests use: the `proptest!` macro,
//! `prop_assert*`/`prop_assume!`, `prop_oneof!`, `Just`, `prop_map`,
//! integer/float range strategies, tuples, `collection::vec`/`btree_set`,
//! and `bool::ANY`.
//!
//! Differences from the real crate, deliberately accepted:
//! * no shrinking — a failing case panics with the sampled values' effects
//!   but does not minimize them;
//! * sampling is a deterministic xorshift sequence seeded from the test's
//!   module path and name, so runs are reproducible by construction;
//! * `collection::btree_set` may produce fewer elements than requested
//!   when duplicates collide (sets dedup).

/// Deterministic xorshift64* RNG seeded from the test name.
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// Seeds from an arbitrary string (FNV-1a), so every test gets a
    /// distinct but stable stream.
    pub fn from_name(name: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self(h | 1)
    }

    /// Next value in the stream.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, n)` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Run configuration: number of cases per property.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Cases sampled per property function.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// A value generator. Object-safe (`prop_map` is `Sized`-gated) so
/// `prop_oneof!` can box heterogeneous strategies.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Samples one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo + 1) as u64;
                (lo + rng.below(span) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        let frac = rng.next_u64() as f64 / (u64::MAX as f64 + 1.0);
        self.start + frac * (self.end - self.start)
    }
}

impl Strategy for std::ops::RangeInclusive<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        let frac = rng.next_u64() as f64 / u64::MAX as f64;
        self.start() + frac * (self.end() - self.start())
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Boxes a strategy for heterogeneous sets (used by `prop_oneof!`).
pub fn boxed<S>(s: S) -> Box<dyn Strategy<Value = S::Value>>
where
    S: Strategy + 'static,
{
    Box::new(s)
}

/// Uniform choice among boxed strategies (built by `prop_oneof!`).
pub struct OneOf<T> {
    options: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T> OneOf<T> {
    /// Wraps a non-empty option list.
    pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Self { options }
    }
}

impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        let idx = rng.below(self.options.len() as u64) as usize;
        self.options[idx].sample(rng)
    }
}

/// Boolean strategies (`prop::bool::ANY`).
pub mod bool {
    use super::{Strategy, TestRng};

    /// Uniform `true`/`false`.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// The any-boolean strategy value.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn sample(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// Collection strategies (`prop::collection::{vec, btree_set}`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::collections::BTreeSet;

    /// Element-count specification: a fixed size or a size range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        /// Exclusive.
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            Self {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    impl SizeRange {
        fn sample(&self, rng: &mut TestRng) -> usize {
            self.lo + rng.below((self.hi - self.lo) as u64) as usize
        }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.elem.sample(rng)).collect()
        }
    }

    /// `Vec` of `size.into()` elements drawn from `elem`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    /// Strategy returned by [`btree_set`].
    pub struct BTreeSetStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.elem.sample(rng)).collect()
        }
    }

    /// `BTreeSet` of up to `size.into()` elements (duplicates dedup).
    pub fn btree_set<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S> {
        BTreeSetStrategy {
            elem,
            size: size.into(),
        }
    }
}

/// Everything tests import with `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
    pub use crate::{Just, ProptestConfig, Strategy};

    /// The `prop::` alias namespace (`prop::bool::ANY`,
    /// `prop::collection::vec`).
    pub mod prop {
        pub use crate::bool;
        pub use crate::collection;
    }
}

/// Declares property tests. Each `fn name(pat in strategy, ...) { body }`
/// becomes a function running `cases` sampled iterations. As with the
/// real crate, the caller writes its `#[test]`; the macro adds none, so
/// each property registers once.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($p:pat in $s:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            let mut rng =
                $crate::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
            for _case in 0..cfg.cases {
                let mut run = || {
                    $(let $p = $crate::Strategy::sample(&($s), &mut rng);)+
                    $body
                };
                run();
            }
        }
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
}

/// Uniform choice among the listed strategies (all must generate the same
/// type).
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![$($crate::boxed($s)),+])
    };
}

/// Asserts a condition inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)+) => { assert!($($args)+) };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)+) => { assert_eq!($($args)+) };
}

/// Asserts inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)+) => { assert_ne!($($args)+) };
}

/// Skips the current case when the assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = crate::TestRng::from_name("x");
        let mut b = crate::TestRng::from_name("x");
        let mut c = crate::TestRng::from_name("y");
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::TestRng::from_name("bounds");
        for _ in 0..1000 {
            let v = Strategy::sample(&(3u64..17), &mut rng);
            assert!((3..17).contains(&v));
            let w = Strategy::sample(&(1u8..=100), &mut rng);
            assert!((1..=100).contains(&w));
            let f = Strategy::sample(&(0.0f64..=1.0), &mut rng);
            assert!((0.0..=1.0).contains(&f));
        }
    }

    #[test]
    fn collections_and_oneof_sample() {
        let mut rng = crate::TestRng::from_name("coll");
        let strat = prop::collection::vec((0u64..10, prop::bool::ANY), 2..5);
        for _ in 0..100 {
            let v = Strategy::sample(&strat, &mut rng);
            assert!(v.len() >= 2 && v.len() < 5);
        }
        let one = prop_oneof![(0u64..1).prop_map(|_| 7u64), Just(9u64),];
        for _ in 0..50 {
            let v = Strategy::sample(&one, &mut rng);
            assert!(v == 7 || v == 9);
        }
        let fixed = prop::collection::vec(0u32..4, 4);
        assert_eq!(Strategy::sample(&fixed, &mut rng).len(), 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn macro_generates_tests(x in 0u64..100, mut v in prop::collection::vec(0u8..3, 0..4)) {
            prop_assume!(x != 1000); // always holds
            v.push(0);
            prop_assert!(x < 100);
            prop_assert_eq!(*v.last().unwrap(), 0);
        }
    }
}
