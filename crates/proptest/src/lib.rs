//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this path-replaced
//! crate implements the subset of the proptest API the workspace's property
//! tests use: the [`proptest!`] macro, range/tuple/`Just`/`any::<bool>()`
//! strategies, [`collection::vec`], `prop_flat_map`/`prop_map`, and the
//! `prop_assert*`/`prop_assume!` macros.
//!
//! Differences from the real crate, none of which the tests rely on:
//!
//! * No shrinking — a failing case reports its inputs (via the panic message
//!   of the assertion) but is not minimized.
//! * Case generation is driven by a fixed-seed [`rand::rngs::SmallRng`], so
//!   every run explores the same cases: failures are exactly reproducible.

#![warn(missing_docs)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::ops::{Range, RangeInclusive};

/// Runner configuration; only the case count is honored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` generated cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Why a single generated case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the case is skipped, not failed.
    Reject(String),
    /// `prop_assert*` failed; the test fails.
    Fail(String),
}

/// Per-case result used by the generated test bodies.
pub type TestCaseResult = Result<(), TestCaseError>;

/// A source of random values of one shape.
///
/// The real crate splits generation (`Strategy`) from the generated tree
/// (`ValueTree`); without shrinking the strategy can produce values
/// directly.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn new_value(&self, rng: &mut SmallRng) -> Self::Value;

    /// Derives a strategy from each generated value (the flat-mapped
    /// strategy is itself sampled).
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { base: self, f }
    }

    /// Transforms generated values.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { base: self, f }
    }
}

/// Strategy produced by [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    base: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;

    fn new_value(&self, rng: &mut SmallRng) -> Self::Value {
        let intermediate = self.base.new_value(rng);
        (self.f)(intermediate).new_value(rng)
    }
}

/// Strategy produced by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn new_value(&self, rng: &mut SmallRng) -> Self::Value {
        (self.f)(self.base.new_value(rng))
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn new_value(&self, _rng: &mut SmallRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),* $(,)?) => {
        $(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut SmallRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut SmallRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*
    };
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn new_value(&self, rng: &mut SmallRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.new_value(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);

/// Types with a canonical whole-domain strategy, for [`any`].
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut SmallRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut SmallRng) -> Self {
        rng.gen()
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut SmallRng) -> Self {
        rng.gen()
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut SmallRng) -> Self {
        rng.gen::<u64>() as u32
    }
}

/// Strategy over the whole domain of `T`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn new_value(&self, rng: &mut SmallRng) -> T {
        T::arbitrary(rng)
    }
}

/// The whole-domain strategy for `T` (`any::<bool>()` etc.).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

pub mod collection {
    //! Collection strategies.

    use super::{SmallRng, Strategy};
    use rand::Rng;
    use std::ops::Range;

    /// Sizes accepted by [`vec()`]: a fixed length or a half-open range.
    #[derive(Debug, Clone)]
    pub enum SizeRange {
        /// Exactly this many elements.
        Fixed(usize),
        /// A length drawn uniformly from the range.
        Span(Range<usize>),
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange::Fixed(n)
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            SizeRange::Span(r)
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `Vec` strategy: each element drawn from `element`, length from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn new_value(&self, rng: &mut SmallRng) -> Self::Value {
            let len = match &self.size {
                SizeRange::Fixed(n) => *n,
                SizeRange::Span(r) => rng.gen_range(r.clone()),
            };
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// Drives the generated cases of one `proptest!` test.
#[derive(Debug)]
pub struct TestRunner {
    config: ProptestConfig,
    rng: SmallRng,
    name: &'static str,
}

impl TestRunner {
    /// Creates a runner whose random stream is derived from the test name,
    /// so adding a test never perturbs the cases of existing ones.
    pub fn new(config: ProptestConfig, name: &'static str) -> Self {
        let seed = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        });
        TestRunner {
            config,
            rng: SmallRng::seed_from_u64(seed),
            name,
        }
    }

    /// Runs `body` for each generated case; panics on the first failure.
    /// Rejected cases (via `prop_assume!`) are retried without counting,
    /// up to a global attempt cap.
    pub fn run<F>(&mut self, mut body: F)
    where
        F: FnMut(&mut SmallRng) -> TestCaseResult,
    {
        let mut passed = 0u32;
        let mut rejected = 0u32;
        let max_rejects = self.config.cases.saturating_mul(16).max(1024);
        while passed < self.config.cases {
            match body(&mut self.rng) {
                Ok(()) => passed += 1,
                Err(TestCaseError::Reject(_)) => {
                    rejected += 1;
                    if rejected > max_rejects {
                        panic!(
                            "proptest '{}': too many rejected cases ({} passed, {} rejected)",
                            self.name, passed, rejected
                        );
                    }
                }
                Err(TestCaseError::Fail(msg)) => {
                    panic!(
                        "proptest '{}' failed after {} passing case(s): {}",
                        self.name, passed, msg
                    );
                }
            }
        }
    }
}

/// Defines property tests: each argument is drawn from its strategy and the
/// body re-runs for the configured number of cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr); $( $(#[$meta:meta])* fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut runner = $crate::TestRunner::new($cfg, stringify!($name));
                runner.run(|__proptest_rng| {
                    $(
                        let $pat = $crate::Strategy::new_value(&($strat), __proptest_rng);
                    )+
                    $body
                    Ok(())
                });
            }
        )*
    };
}

/// Skips the current case when the precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject(stringify!($cond).to_owned()));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject(format!($($fmt)*)));
        }
    };
}

/// Fails the current case when the condition does not hold.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {} — {}",
                stringify!($cond),
                format!($($fmt)*)
            )));
        }
    };
}

/// Fails the current case when the two expressions are unequal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?})",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?}) — {}",
                stringify!($left),
                stringify!($right),
                l,
                r,
                format!($($fmt)*)
            )));
        }
    }};
}

/// Fails the current case when the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {} != {} (both: {:?})",
                stringify!($left),
                stringify!($right),
                l
            )));
        }
    }};
}

/// Everything a typical property test glob-imports.
pub mod prelude {
    pub use super::collection;
    pub use super::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Any, Arbitrary,
        Just, ProptestConfig, Strategy, TestCaseError, TestCaseResult, TestRunner,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    fn arb_pair() -> impl Strategy<Value = (usize, Vec<u64>)> {
        (1usize..10).prop_flat_map(|n| (Just(n), collection::vec(0u64..100, n)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..17, y in -4i32..=4) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-4..=4).contains(&y));
        }

        #[test]
        fn flat_map_links_sizes((n, v) in arb_pair()) {
            prop_assert_eq!(v.len(), n);
            prop_assert!(v.iter().all(|&x| x < 100));
        }

        #[test]
        fn assume_skips_cases(x in 0u64..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }

        #[test]
        fn any_bool_generates_both(_b in any::<bool>()) {
            // Smoke test: generation itself must work.
        }
    }

    #[test]
    fn runner_is_deterministic() {
        let collect = || {
            let mut out = Vec::new();
            let mut runner = TestRunner::new(ProptestConfig::with_cases(10), "det");
            runner.run(|rng| {
                out.push((0u64..1000).new_value(rng));
                Ok(())
            });
            out
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    #[should_panic(expected = "failed after")]
    fn failures_panic() {
        let mut runner = TestRunner::new(ProptestConfig::with_cases(5), "fail");
        runner.run(|_rng| -> TestCaseResult {
            prop_assert!(false);
            Ok(())
        });
    }
}
