//! Vendored stand-in for `proptest` (offline build).
//!
//! Implements the subset the workspace's property tests use: the
//! [`proptest!`] macro (with `#![proptest_config(..)]` and `pat in strategy`
//! arguments), [`Strategy`] for integer ranges / [`any`] / tuples /
//! `prop_map`, and the `prop_assert*` family. Cases are generated from a
//! deterministic per-test seed (derived from the test name and case index),
//! so failures reproduce exactly; there is no shrinking — the failing case's
//! index and seed are reported instead.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::SeedableRng;

pub use rand::{Rng, RngCore};

/// The RNG handed to strategies.
pub type TestRng = StdRng;

/// Why a test case did not pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestCaseError {
    /// An assertion failed; carries the rendered message.
    Fail(String),
    /// `prop_assume!` rejected the inputs; the case is skipped.
    Reject(String),
}

impl TestCaseError {
    /// Builds a failure with a message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// Builds a rejection (assumption not met).
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

/// Runner configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Drives the cases of one property test. Used by [`proptest!`]-generated
/// code; not part of the real proptest API surface.
#[derive(Debug)]
pub struct TestRunner {
    config: ProptestConfig,
    name_hash: u64,
    rejected: u32,
}

impl TestRunner {
    /// Creates a runner for the named test.
    pub fn new(config: ProptestConfig, name: &str) -> Self {
        // FNV-1a over the test name: stable per-test seed base.
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        for byte in name.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRunner {
            config,
            name_hash: hash,
            rejected: 0,
        }
    }

    /// Number of cases to attempt.
    pub fn cases(&self) -> u32 {
        self.config.cases
    }

    /// The deterministic RNG for one case.
    pub fn rng_for(&self, case: u32) -> TestRng {
        StdRng::seed_from_u64(self.name_hash ^ (u64::from(case) << 32))
    }

    /// Records a case outcome, panicking on failure with reproduction info.
    pub fn handle(&mut self, case: u32, result: Result<(), TestCaseError>) {
        match result {
            Ok(()) => {}
            Err(TestCaseError::Reject(_)) => {
                self.rejected += 1;
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!(
                    "property failed at case {case} (seed {:#x}): {msg}",
                    self.name_hash ^ (u64::from(case) << 32)
                );
            }
        }
    }
}

/// A generator of random values for one test argument.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy adapter created by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
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

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize);

/// Strategy for "any value of `T`" ([`any`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T> {
    _marker: core::marker::PhantomData<T>,
}

/// Returns the strategy generating arbitrary values of `T`.
pub fn any<T>() -> Any<T>
where
    Any<T>: Strategy<Value = T>,
{
    Any {
        _marker: core::marker::PhantomData,
    }
}

macro_rules! impl_any_strategy {
    ($($t:ty => $gen:expr),* $(,)?) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let f: fn(&mut TestRng) -> $t = $gen;
                f(rng)
            }
        }
    )*};
}

impl_any_strategy!(
    u64 => |rng| rng.random::<u64>(),
    u32 => |rng| rng.random::<u32>(),
    usize => |rng| rng.random::<usize>(),
    bool => |rng| rng.random::<bool>(),
    f64 => |rng| rng.random::<f64>(),
);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+)),* $(,)?) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy!(
    (A.0),
    (A.0, B.1),
    (A.0, B.1, C.2),
    (A.0, B.1, C.2, D.3),
    (A.0, B.1, C.2, D.3, E.4),
);

/// Everything a property-test file needs in scope.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, proptest, Any, ProptestConfig, Strategy,
        TestCaseError, TestRunner,
    };
}

/// Asserts a condition inside a property, failing the case (not panicking
/// directly) so the runner can attach reproduction info.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left == right,
            "assertion failed: `{} == {}` (left: `{:?}`, right: `{:?}`)",
            stringify!($left),
            stringify!($right),
            left,
            right
        );
    }};
}

/// Skips the case when the assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

/// Declares property tests: each `#[test] fn name(arg in strategy, ..)` runs
/// `cases` times with seeded random arguments.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr)
        $( $(#[$attr:meta])* fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$attr])*
            fn $name() {
                let mut runner = $crate::TestRunner::new($cfg, stringify!($name));
                for case in 0..runner.cases() {
                    let mut rng = runner.rng_for(case);
                    $( let $arg = $crate::Strategy::generate(&($strat), &mut rng); )*
                    let outcome = (|| -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        Ok(())
                    })();
                    runner.handle(case, outcome);
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_generate_in_bounds() {
        let runner = TestRunner::new(ProptestConfig::with_cases(16), "bounds");
        let strat = 3usize..9;
        for case in 0..16 {
            let mut rng = runner.rng_for(case);
            let v = strat.generate(&mut rng);
            assert!((3..9).contains(&v));
        }
    }

    #[test]
    fn prop_map_and_tuples_compose() {
        let runner = TestRunner::new(ProptestConfig::default(), "compose");
        let strat = (1usize..4, any::<u64>()).prop_map(|(a, b)| a as u64 + (b % 10));
        let mut rng = runner.rng_for(0);
        let v = strat.generate(&mut rng);
        assert!(v < 13);
    }

    #[test]
    fn cases_are_deterministic() {
        let runner = TestRunner::new(ProptestConfig::default(), "determinism");
        let a = any::<u64>().generate(&mut runner.rng_for(5));
        let b = any::<u64>().generate(&mut runner.rng_for(5));
        assert_eq!(a, b);
        let c = any::<u64>().generate(&mut runner.rng_for(6));
        assert_ne!(a, c);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn macro_generates_and_asserts(x in 0u32..100, y in any::<bool>()) {
            prop_assert!(x < 100);
            prop_assert_eq!(u32::from(y) * 2, if y { 2 } else { 0 });
        }

        #[test]
        fn assume_rejects_without_failing(x in 0u32..10) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }
    }

    #[test]
    #[should_panic(expected = "property failed at case")]
    fn failures_report_case() {
        let mut runner = TestRunner::new(ProptestConfig::default(), "fails");
        runner.handle(3, Err(TestCaseError::fail("boom")));
    }
}
