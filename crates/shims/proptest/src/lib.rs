//! Minimal offline stand-in for the [proptest](https://crates.io/crates/proptest)
//! property-testing framework.
//!
//! The workspace builds in environments with no access to crates.io, so the
//! property tests link against this shim instead of the real crate. It keeps
//! the subset of proptest's surface those tests use — the [`Strategy`] trait
//! with [`Strategy::prop_map`]/[`Strategy::prop_flat_map`], integer-range and
//! tuple strategies, [`collection::vec`], [`sample::select`], the
//! [`proptest!`] macro with `#![proptest_config(..)]`, and the `prop_assert*`
//! macros — generating inputs from a deterministic seeded PRNG
//! ([`cutfit_util::Xoshiro256pp`]). Unlike real proptest there is **no
//! shrinking**: a failing case reports the raw generated values via the
//! standard panic message. Swapping the `proptest` entry in the root
//! `Cargo.toml` back to the real crate requires no source changes.

// Of the determinism lints, only the float-order one (no
// `partial_cmp().unwrap()`) ever applied to this test-harness shim: its
// range strategies narrow sampled `u64`s on purpose.
#![allow(clippy::cast_possible_truncation)]

use std::ops::Range;

/// Deterministic RNG driving all generation; a thin wrapper so test files
/// never depend on the generator type directly.
pub struct TestRng(cutfit_util::Xoshiro256pp);

impl TestRng {
    /// Creates the RNG for one test case. Seeding by case index makes every
    /// run of the suite exercise an identical input sequence.
    pub fn deterministic(case: u64) -> Self {
        Self(cutfit_util::Xoshiro256pp::seed_from_u64(
            0x00C0_7F17_u64 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ))
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.0.range_u64(bound)
    }
}

/// A recipe for generating random values of `Self::Value`.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draws one value from the strategy.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values with `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Feeds generated values into `f` to build a dependent strategy.
    fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }
}

/// Strategy produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy produced by [`Strategy::prop_flat_map`].
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

/// Strategy that always yields a clone of one value.
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {
        $(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    self.start + rng.below(span) as $t
                }
            }
        )*
    };
}

int_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {
        $(
            #[allow(non_snake_case)]
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )*
    };
}

tuple_strategy!((A, B)(A, B, C)(A, B, C, D));

pub mod collection {
    //! Strategies for collections.

    use super::{Strategy, TestRng};

    /// Strategy yielding vectors of exactly `len` elements drawn from `elem`.
    pub fn vec<S: Strategy>(elem: S, len: usize) -> VecStrategy<S> {
        VecStrategy { elem, len }
    }

    /// Strategy produced by [`vec()`].
    pub struct VecStrategy<S> {
        elem: S,
        len: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            (0..self.len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod sample {
    //! Strategies sampling from explicit value sets.

    use super::{Strategy, TestRng};

    /// Strategy picking a uniformly random element of `options`.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select needs at least one option");
        Select { options }
    }

    /// Strategy produced by [`select`].
    pub struct Select<T> {
        options: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            self.options[rng.below(self.options.len() as u64) as usize].clone()
        }
    }
}

/// Per-suite configuration; only the case count is honoured by the shim.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property is checked against.
    pub cases: u64,
}

impl ProptestConfig {
    /// Runs each property `cases` times.
    pub fn with_cases(cases: u64) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// One-stop imports mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
    };
}

/// Declares property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` running the body over `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (@run ($cfg:expr) $( $(#[$meta:meta])* fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                for case in 0..config.cases {
                    let mut rng = $crate::TestRng::deterministic(case);
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)*
                    $body
                }
            }
        )*
    };
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@run ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// `assert!` under proptest's spelling.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// `assert_eq!` under proptest's spelling.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// `assert_ne!` under proptest's spelling.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::TestRng;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::deterministic(0);
        for _ in 0..1000 {
            let x = Strategy::generate(&(3u64..17), &mut rng);
            assert!((3..17).contains(&x));
        }
    }

    #[test]
    fn map_and_flat_map_compose() {
        let strat = (1u64..5).prop_flat_map(|n| {
            crate::collection::vec(0u64..n, n as usize).prop_map(move |v| (n, v))
        });
        let mut rng = TestRng::deterministic(1);
        for _ in 0..100 {
            let (n, v) = Strategy::generate(&strat, &mut rng);
            assert_eq!(v.len(), n as usize);
            assert!(v.iter().all(|&x| x < n));
        }
    }

    #[test]
    fn select_only_yields_options() {
        let strat = crate::sample::select(vec!["a", "b"]);
        let mut rng = TestRng::deterministic(2);
        for _ in 0..50 {
            let x = Strategy::generate(&strat, &mut rng);
            assert!(x == "a" || x == "b");
        }
    }

    #[test]
    fn generation_is_deterministic_per_case() {
        let strat = (0u64..1000, 0u64..1000);
        let a = Strategy::generate(&strat, &mut TestRng::deterministic(7));
        let b = Strategy::generate(&strat, &mut TestRng::deterministic(7));
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn the_macro_itself_works(x in 0u64..10, ys in crate::collection::vec(0u32..5, 3)) {
            prop_assert!(x < 10);
            prop_assert_eq!(ys.len(), 3);
        }
    }
}
