//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this crate
//! implements the property-testing API surface the workspace uses: the
//! [`proptest!`] macro, [`Strategy`](strategy::Strategy) over ranges / tuples /
//! [`collection::vec`] / [`prop_map`](strategy::Strategy::prop_map), `prop_assert!` /
//! `prop_assert_eq!`, [`test_runner::TestCaseError`] and
//! [`test_runner::ProptestConfig`].
//!
//! Semantics: each property runs `cases` times on deterministic seeds
//! derived from the test name, so failures are reproducible run-to-run.
//! There is **no shrinking** — a failure reports the case number and the
//! `Debug` rendering of the inputs instead of a minimized example.

#![deny(missing_docs)]

pub mod strategy {
    //! Input-generation strategies.

    use rand::rngs::StdRng;
    use rand::Rng;

    /// A recipe for generating random values of type
    /// [`Value`](Strategy::Value).
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draw one value.
        fn sample(&self, rng: &mut StdRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Box the strategy, erasing its concrete type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy {
                inner: Box::new(self),
            }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn sample(&self, rng: &mut StdRng) -> U {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Type-erased strategy returned by [`Strategy::boxed`].
    pub struct BoxedStrategy<T> {
        inner: Box<dyn Strategy<Value = T>>,
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn sample(&self, rng: &mut StdRng) -> T {
            self.inner.sample(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut StdRng) -> $t {
                    rng.random_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u64, u32, u16, u8, usize, i64, i32, f64);

    macro_rules! impl_range_inclusive_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut StdRng) -> $t {
                    // The workspace only uses small inclusive ranges, so
                    // `end + 1` cannot overflow here.
                    rng.random_range(*self.start()..*self.end() + 1)
                }
            }
        )*};
    }

    impl_range_inclusive_strategy!(u64, u32, usize, i64, i32);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn sample(&self, rng: &mut StdRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);
}

pub mod collection {
    //! Strategies for collections.

    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Strategy for `Vec`s whose length is drawn from `len` and whose
    /// elements are drawn from `element`.
    pub struct VecStrategy<S> {
        element: S,
        len: core::ops::Range<usize>,
    }

    /// A `Vec` strategy: lengths from `len`, elements from `element`.
    pub fn vec<S: Strategy>(element: S, len: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Self::Value {
            let n = rng.random_range(self.len.clone());
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod test_runner {
    //! Execution of property tests.

    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Why a test case failed.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        /// The property did not hold.
        Fail(String),
        /// The case asked to be discarded (unused here, kept for API
        /// compatibility).
        Reject(String),
    }

    impl TestCaseError {
        /// Build a failure from any displayable reason.
        pub fn fail<M: core::fmt::Display>(reason: M) -> Self {
            TestCaseError::Fail(reason.to_string())
        }
    }

    impl core::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            match self {
                TestCaseError::Fail(m) => write!(f, "{m}"),
                TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
            }
        }
    }

    // Matches upstream: `?` on any `Result<_, impl Error>` fails the case.
    impl<E: std::error::Error> From<E> for TestCaseError {
        fn from(e: E) -> Self {
            TestCaseError::Fail(e.to_string())
        }
    }

    /// Configuration for a [`TestRunner`].
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases to run per property.
        cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // Upstream defaults to 256; we default lower to keep the
            // (CPU-bound, simulation-heavy) suites fast. Properties that
            // need more coverage say so via `with_cases`.
            ProptestConfig { cases: 32 }
        }
    }

    /// Deterministic runner: case `i` of test `name` always sees the same
    /// RNG stream.
    pub struct TestRunner {
        config: ProptestConfig,
    }

    impl TestRunner {
        /// A runner with the given configuration.
        pub fn new(config: ProptestConfig) -> Self {
            TestRunner { config }
        }

        /// Run `case` for every configured seed; panic (like a failing
        /// `#[test]`) on the first failure, reporting the case number.
        pub fn run<F>(&mut self, name: &str, mut case: F)
        where
            F: FnMut(&mut StdRng) -> Result<(), TestCaseError>,
        {
            // FNV-1a over the name decorrelates sibling tests.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
            for i in 0..self.config.cases {
                let mut rng = StdRng::seed_from_u64(h ^ (i as u64).wrapping_mul(0x9E37_79B9));
                match case(&mut rng) {
                    Ok(()) => {}
                    Err(TestCaseError::Reject(_)) => {}
                    Err(TestCaseError::Fail(msg)) => {
                        panic!(
                            "property `{name}` failed at case {i}/{}: {msg}",
                            self.config.cases
                        )
                    }
                }
            }
        }
    }
}

/// Everything a property test needs in scope.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{BoxedStrategy, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRunner};
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running the body over random inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let mut runner = $crate::test_runner::TestRunner::new($cfg);
            runner.run(concat!(module_path!(), "::", stringify!($name)), |__rng| {
                $(let $arg = $crate::strategy::Strategy::sample(&($strat), __rng);)*
                let __case = || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    Ok(())
                };
                __case()
            });
        }
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
}

/// Assert inside a property; failure fails the current case with the
/// rendered condition (and optional message).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: {:?} != {:?}: {}", l, r, format!($($fmt)*)
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_respect_bounds(x in 3u64..17, y in 0usize..5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y < 5);
        }

        #[test]
        fn tuples_and_maps_compose(
            v in collection::vec((0u32..10, 0u32..10).prop_map(|(a, b)| a + b), 1..8)
        ) {
            prop_assert!(!v.is_empty() && v.len() < 8);
            for x in v {
                prop_assert!(x < 19, "sum {x} out of range");
            }
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_panic_with_case_number() {
        let mut runner = TestRunner::new(ProptestConfig::with_cases(4));
        runner.run("always_fails", |_| Err(TestCaseError::fail("nope")));
    }
}
