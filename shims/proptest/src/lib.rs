//! Offline shim for `proptest`: deterministic random-input testing without
//! shrinking. See `shims/README.md`.
//!
//! A [`Strategy`](strategy::Strategy) draws values from a per-test
//! SplitMix64 stream seeded by the test's name, so every run explores the
//! same inputs — a failure reproduces immediately, which substitutes for
//! upstream's shrinking + failure persistence. `prop_assert*!` macros panic
//! directly (the `#[test]` harness reports them like any assert).

pub mod prelude {
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

pub mod test_runner {
    /// Per-`proptest!` configuration. Only `cases` is honored.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        // 64 (upstream defaults to 256): keeps the offline CI gate fast
        // while still exercising a meaningful input spread per property.
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// SplitMix64 stream seeded from the test's name: deterministic across
    /// runs, processes, and thread counts.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn for_test(name: &str) -> Self {
            let mut h = 0xcbf29ce484222325u64; // FNV-1a over the name
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            TestRng { state: h }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }

        /// Uniform draw in `[0, span)` via multiply-shift.
        pub fn below(&mut self, span: u64) -> u64 {
            assert!(span > 0);
            ((self.next_u64() as u128 * span as u128) >> 64) as u64
        }

        /// Uniform f64 in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }

        fn prop_filter<F>(self, whence: &'static str, f: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter {
                inner: self,
                f,
                whence,
            }
        }
    }

    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;

        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    pub struct Filter<S, F> {
        inner: S,
        f: F,
        whence: &'static str,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;

        fn generate(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1000 {
                let v = self.inner.generate(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!(
                "prop_filter {:?} rejected 1000 consecutive draws",
                self.whence
            );
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    self.start + rng.below((self.end - self.start) as u64) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = ((hi - lo) as u64).wrapping_add(1);
                    if span == 0 {
                        return lo + rng.next_u64() as $t;
                    }
                    lo + rng.below(span) as $t
                }
            }
        )*};
    }

    impl_int_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! impl_sint_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i64 - self.start as i64) as u64;
                    (self.start as i64 + rng.below(span) as i64) as $t
                }
            }
        )*};
    }

    impl_sint_range_strategy!(i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;

        fn generate(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    impl Strategy for Range<f32> {
        type Value = f32;

        fn generate(&self, rng: &mut TestRng) -> f32 {
            self.start + (rng.unit_f64() as f32) * (self.end - self.start)
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($t:ident),+))*) => {$(
            impl<$($t: Strategy),+> Strategy for ($($t,)+) {
                type Value = ($($t::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    #[allow(non_snake_case)]
                    let ($($t,)+) = self;
                    ($($t.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A)
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
        (A, B, C, D, E, F)
        (A, B, C, D, E, F, G)
        (A, B, C, D, E, F, G, H)
    }

    /// `any::<T>()` support.
    pub trait Arbitrary: Sized {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    pub struct Any<T> {
        _marker: std::marker::PhantomData<T>,
    }

    impl<T> Any<T> {
        pub(crate) fn new() -> Self {
            Any {
                _marker: std::marker::PhantomData,
            }
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// A strategy that always yields clones of one value (`Just`).
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }
}

pub use strategy::Just;

/// Uniform draw of any `Arbitrary` type (only the types the workspace uses).
pub fn any<T: strategy::Arbitrary>() -> strategy::Any<T> {
    strategy::Any::new()
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Accepted size arguments for [`vec()`]: `a..b`, `a..=b`, or an exact
    /// `usize`.
    pub trait IntoSizeRange {
        /// (min, max) with max inclusive.
        fn bounds(&self) -> (usize, usize);
    }

    impl IntoSizeRange for Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            assert!(self.start < self.end, "empty vec size range");
            (self.start, self.end - 1)
        }
    }

    impl IntoSizeRange for RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    impl IntoSizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self)
        }
    }

    pub struct VecStrategy<S> {
        elem: S,
        min: usize,
        max: usize,
    }

    /// Vec of `elem` draws with a length drawn from `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { elem, min, max }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.max - self.min) as u64 + 1;
            let len = self.min + rng.below(span) as usize;
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Defines `#[test]` functions whose arguments are drawn from strategies.
///
/// Supported grammar (the subset this workspace uses):
/// ```ignore
/// proptest! {
///     #![proptest_config(expr)]          // optional
///     /// docs / #[attrs]
///     #[test]
///     fn name(pat in strategy, ...) { body }
///     ...
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let __config = $cfg;
            let mut __rng = $crate::test_runner::TestRng::for_test(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__config.cases {
                let _ = __case;
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)*
                $body
            }
        }
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
}

/// Panicking stand-in for proptest's failing-case propagation.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn deterministic_streams() {
        let mut a = crate::test_runner::TestRng::for_test("t");
        let mut b = crate::test_runner::TestRng::for_test("t");
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(x in 3u32..10, y in 0usize..=4, f in 0.5f64..2.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!(y <= 4);
            prop_assert!((0.5..2.0).contains(&f), "f = {}", f);
        }

        #[test]
        fn vec_and_tuples(v in crate::collection::vec((0u32..5, any::<bool>()), 0..7)) {
            prop_assert!(v.len() < 7);
            for (x, _flag) in v {
                prop_assert!(x < 5);
            }
        }

        #[test]
        fn flat_map_composes(v in (1u32..8).prop_flat_map(|n| crate::collection::vec(0..n, 1..4))) {
            let n_max = v.iter().copied().max().unwrap();
            prop_assert!(n_max < 8);
        }
    }
}
