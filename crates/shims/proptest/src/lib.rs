//! # proptest (shim) — deterministic property-test sampling
//!
//! The build environment cannot reach crates.io, so this crate implements
//! the slice of the proptest API this workspace's property tests use:
//! range strategies over the numeric types, tuples of strategies,
//! `prop::collection::vec`, `prop_map`, `prop_oneof!`, and the
//! `proptest!` / `prop_assert*` macros.
//!
//! Unlike real proptest there is no shrinking: each property runs a fixed
//! number of cases drawn from a generator seeded by the test's name, so
//! failures reproduce exactly across runs and machines. The failure
//! message includes the case number and the generated inputs' `Debug`
//! rendering.

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::Range;

/// Number of cases each `proptest!` property runs.
pub const CASES: u32 = 96;

/// A failed property case (what `prop_assert!` returns).
#[derive(Debug)]
pub struct TestCaseError(pub String);

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Deterministic generator backing every strategy draw (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed from a test name, so each property has a stable stream.
    pub fn from_name(name: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng { state: h }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// A value generator.
pub trait Strategy {
    /// The generated type.
    type Value: fmt::Debug;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<U: fmt::Debug, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The result of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U: fmt::Debug, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (self.end - self.start) as u64;
                assert!(span > 0, "empty range strategy");
                self.start + rng.below(span) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A: 0, B: 1);
impl_tuple_strategy!(A: 0, B: 1, C: 2);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3);

/// Pick uniformly among boxed strategies (the `prop_oneof!` backend).
pub struct OneOf<T> {
    arms: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T: fmt::Debug> OneOf<T> {
    /// Build from the macro's arm list.
    pub fn new(arms: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        OneOf { arms }
    }
}

impl<T: fmt::Debug> Strategy for OneOf<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.arms.len() as u64) as usize;
        self.arms[i].generate(rng)
    }
}

/// Collection strategies (`prop::collection::vec`).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{Strategy, TestRng};
        use std::fmt;
        use std::ops::Range;

        /// Strategy for vectors with lengths drawn from `len`.
        pub struct VecStrategy<S> {
            inner: S,
            len: Range<usize>,
        }

        /// `vec(strategy, min..max)` — vectors of `strategy` draws.
        pub fn vec<S: Strategy>(inner: S, len: Range<usize>) -> VecStrategy<S> {
            VecStrategy { inner, len }
        }

        impl<S: Strategy> Strategy for VecStrategy<S>
        where
            S::Value: fmt::Debug,
        {
            type Value = Vec<S::Value>;

            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = (self.len.end - self.len.start).max(1) as u64;
                let n = self.len.start + rng.below(span) as usize;
                (0..n).map(|_| self.inner.generate(rng)).collect()
            }
        }
    }
}

/// Everything a property-test file needs.
pub mod prelude {
    pub use crate::prop;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_oneof, proptest, OneOf, Strategy, TestCaseError, TestRng,
    };
}

/// Assert inside a `proptest!` body; failure aborts the case with context.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {{
        let holds: bool = $cond;
        if !holds {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {} at {}:{}",
                stringify!($cond),
                file!(),
                line!()
            )));
        }
    }};
    ($cond:expr, $($fmt:tt)+) => {{
        let holds: bool = $cond;
        if !holds {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {} ({}) at {}:{}",
                stringify!($cond),
                format!($($fmt)+),
                file!(),
                line!()
            )));
        }
    }};
}

/// Equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (va, vb) = (&$a, &$b);
        $crate::prop_assert!(
            va == vb,
            "{} == {}: {:?} vs {:?}",
            stringify!($a),
            stringify!($b),
            va,
            vb
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (va, vb) = (&$a, &$b);
        $crate::prop_assert!(
            va == vb,
            "{} == {}: {:?} vs {:?} ({})",
            stringify!($a),
            stringify!($b),
            va,
            vb,
            format!($($fmt)+)
        );
    }};
}

/// Uniformly choose among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![$(Box::new($arm) as Box<dyn $crate::Strategy<Value = _>>),+])
    };
}

/// Define property tests: each named function runs [`CASES`](crate::CASES)
/// deterministic cases of its body with inputs drawn from the given
/// strategies.
#[macro_export]
macro_rules! proptest {
    ($(#[$meta:meta] fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)+) => {
        $(
            #[$meta]
            fn $name() {
                let mut rng = $crate::TestRng::from_name(stringify!($name));
                for case in 0..$crate::CASES {
                    $(let $arg = $crate::Strategy::generate(&$strat, &mut rng);)+
                    let inputs = format!(
                        concat!($(stringify!($arg), " = {:?}, "),+),
                        $(&$arg),+
                    );
                    let run = || -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    };
                    if let Err(e) = run() {
                        panic!("property {} failed at case {}/{}: {}\n  inputs: {}",
                               stringify!($name), case + 1, $crate::CASES, e, inputs);
                    }
                }
            }
        )+
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::from_name("bounds");
        for _ in 0..1000 {
            let x = Strategy::generate(&(5u64..10), &mut rng);
            assert!((5..10).contains(&x));
            let f = Strategy::generate(&(0.25f64..0.75), &mut rng);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn vec_lengths_respect_range() {
        let mut rng = TestRng::from_name("lens");
        for _ in 0..200 {
            let v = Strategy::generate(&prop::collection::vec(0u64..5, 2..6), &mut rng);
            assert!((2..6).contains(&v.len()));
        }
    }

    #[test]
    fn streams_are_deterministic() {
        let mut a = TestRng::from_name("x");
        let mut b = TestRng::from_name("x");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    proptest! {
        #[test]
        fn shim_proptest_macro_works(x in 1u64..100, y in 0.0f64..1.0) {
            prop_assert!(x >= 1);
            prop_assert!(y < 1.0);
            prop_assert_eq!(x, x);
        }
    }
}
