//! A self-contained, deterministic property-testing engine with the
//! `proptest` API surface this workspace uses.
//!
//! The build environment has no crates.io access, so the workspace vendors
//! this minimal engine: the [`proptest!`] macro, [`Strategy`] with
//! `prop_map`/`prop_flat_map`, `any::<T>()`, [`Just`], ranges, tuples,
//! `prop::collection::{vec, btree_set}`, `prop::array::uniform8`,
//! `prop::sample::select`, and the `prop_assert*` macros.
//!
//! Differences from upstream proptest, by design:
//!
//! * **No shrinking.** A failing case reports its *case seed* instead;
//!   re-running with `PROPTEST_SEED=<seed> PROPTEST_CASES=1` reproduces
//!   exactly that input (the full generated values are also printed).
//! * **Deterministic by default.** Case seeds derive from a fixed base
//!   seed and the test name, so CI failures reproduce locally without any
//!   environment capture.
//!
//! # Examples
//!
//! ```
//! use proptest::prelude::*;
//!
//! proptest! {
//!     #[test]
//!     fn addition_commutes(a in 0u32..1000, b in 0u32..1000) {
//!         prop_assert_eq!(a + b, b + a);
//!     }
//! }
//! ```
//!
//! (The generated function carries `#[test]`, so the doctest only checks
//! that the macro expansion compiles; the real runs happen under
//! `cargo test`.)

pub mod strategy {
    //! The [`Strategy`] trait and its combinators.

    use super::test_runner::TestRng;
    use std::fmt::Debug;
    use std::marker::PhantomData;

    /// A generator of test values.
    pub trait Strategy {
        /// The generated type.
        type Value: Debug;

        /// Generates one value from the RNG.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U: Debug, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Generates a value, then generates from the strategy `f` builds
        /// out of it.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }

        /// Discards generated values failing the predicate (bounded
        /// retries, then keeps the last value regardless — this engine
        /// never rejects a whole case).
        fn prop_filter<F: Fn(&Self::Value) -> bool>(
            self,
            _whence: &'static str,
            f: F,
        ) -> Filter<Self, F>
        where
            Self: Sized,
        {
            Filter { inner: self, f }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(std::rc::Rc::new(self))
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, U: Debug, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;

        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Debug, Clone)]
    pub struct FlatMap<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;

        fn generate(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// See [`Strategy::prop_filter`].
    #[derive(Debug, Clone)]
    pub struct Filter<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;

        fn generate(&self, rng: &mut TestRng) -> S::Value {
            let mut last = self.inner.generate(rng);
            for _ in 0..100 {
                if (self.f)(&last) {
                    break;
                }
                last = self.inner.generate(rng);
            }
            last
        }
    }

    /// A type-erased strategy (see [`Strategy::boxed`]).
    #[derive(Clone)]
    pub struct BoxedStrategy<T>(std::rc::Rc<dyn ObjectSafeStrategy<Value = T>>);

    /// Object-safe core of [`Strategy`].
    trait ObjectSafeStrategy {
        type Value: Debug;
        fn generate_obj(&self, rng: &mut TestRng) -> Self::Value;
    }

    impl<S: Strategy> ObjectSafeStrategy for S {
        type Value = S::Value;
        fn generate_obj(&self, rng: &mut TestRng) -> S::Value {
            self.generate(rng)
        }
    }

    impl<T: Debug> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate_obj(rng)
        }
    }

    /// A uniformly random choice among alternative strategies (see
    /// [`prop_oneof!`](crate::prop_oneof)).
    #[derive(Clone)]
    pub struct Union<T>(Vec<BoxedStrategy<T>>);

    impl<T: Debug> Union<T> {
        /// A union over the given alternatives.
        ///
        /// # Panics
        ///
        /// Generation panics if `alternatives` is empty.
        pub fn new(alternatives: Vec<BoxedStrategy<T>>) -> Self {
            Union(alternatives)
        }
    }

    impl<T: Debug> Strategy for Union<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            use rand::seq::IndexedRandom;
            self.0
                .choose(rng)
                .expect("union over no alternatives")
                .generate(rng)
        }
    }

    /// Always generates a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone + Debug>(pub T);

    impl<T: Clone + Debug> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform over the full domain of `T` (see [`any`]).
    #[derive(Debug)]
    pub struct Any<T>(pub(crate) PhantomData<T>);

    impl<T> Clone for Any<T> {
        fn clone(&self) -> Self {
            Any(PhantomData)
        }
    }

    impl<T: rand::Random + Debug> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            use rand::RngExt;
            rng.random()
        }
    }

    /// Uniform over the full domain of `T` (`[0, 1)` for `f64`).
    pub fn any<T: rand::Random + Debug>() -> Any<T> {
        Any(PhantomData)
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    use rand::RngExt;
                    rng.random_range(self.clone())
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    use rand::RngExt;
                    rng.random_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
    }
}

pub mod collection {
    //! Collection strategies (`vec`, `btree_set`).

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use rand::RngExt;
    use std::collections::BTreeSet;
    use std::fmt::Debug;

    /// An inclusive size band for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl SizeRange {
        fn sample(&self, rng: &mut TestRng) -> usize {
            rng.random_range(self.lo..=self.hi)
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// See [`vec`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// A `Vec` whose length falls in `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    /// See [`btree_set`].
    #[derive(Debug, Clone)]
    pub struct BTreeSetStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord + Debug,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = self.size.sample(rng);
            let mut out = BTreeSet::new();
            // Duplicates don't grow the set; bound the attempts so sparse
            // domains cannot loop forever (the set may come up short, which
            // upstream proptest also permits within its size band).
            for _ in 0..target * 10 + 20 {
                if out.len() >= target {
                    break;
                }
                out.insert(self.elem.generate(rng));
            }
            out
        }
    }

    /// A `BTreeSet` whose cardinality falls in `size` (best effort on
    /// sparse domains).
    pub fn btree_set<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord + Debug,
    {
        BTreeSetStrategy {
            elem,
            size: size.into(),
        }
    }
}

pub mod array {
    //! Fixed-size array strategies.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// See [`uniform8`].
    #[derive(Debug, Clone)]
    pub struct Uniform8<S>(S);

    impl<S: Strategy> Strategy for Uniform8<S> {
        type Value = [S::Value; 8];

        fn generate(&self, rng: &mut TestRng) -> [S::Value; 8] {
            std::array::from_fn(|_| self.0.generate(rng))
        }
    }

    /// An `[T; 8]` with each element drawn from `elem`.
    pub fn uniform8<S: Strategy>(elem: S) -> Uniform8<S> {
        Uniform8(elem)
    }
}

pub mod sample {
    //! Sampling from explicit value lists.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use rand::seq::IndexedRandom;
    use std::fmt::Debug;

    /// See [`select`].
    #[derive(Debug, Clone)]
    pub struct Select<T: Clone + Debug>(Vec<T>);

    impl<T: Clone + Debug> Strategy for Select<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.choose(rng).expect("select over empty list").clone()
        }
    }

    /// A uniformly random element of `options`.
    ///
    /// # Panics
    ///
    /// Generation panics if `options` is empty.
    pub fn select<T: Clone + Debug>(options: Vec<T>) -> Select<T> {
        Select(options)
    }
}

pub mod test_runner {
    //! Case scheduling, seeding, and failure reporting.

    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The RNG handed to strategies.
    pub type TestRng = StdRng;

    /// Per-test configuration.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of cases to run.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    impl ProptestConfig {
        /// A configuration running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// Stable 64-bit FNV-1a over the test name: the per-test seed base.
    fn fnv1a(name: &str) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Derives the deterministic seed of one case.
    fn case_seed(base: u64, case: u32) -> u64 {
        base ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Runs `cases` deterministic cases of `body`.
    ///
    /// `body` receives the case RNG and returns `Err(message)` on a
    /// `prop_assert*` failure; panics propagate. Either way the failure
    /// report names the case seed — rerun just that input with
    /// `PROPTEST_SEED=<seed> PROPTEST_CASES=1 cargo test <name>`.
    ///
    /// # Panics
    ///
    /// Panics (failing the enclosing `#[test]`) on the first failing case.
    pub fn run<F>(config: &ProptestConfig, name: &str, mut body: F)
    where
        F: FnMut(&mut TestRng) -> Result<(), String>,
    {
        let env_seed = std::env::var("PROPTEST_SEED")
            .ok()
            .and_then(|s| s.parse::<u64>().ok());
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|s| s.parse::<u32>().ok())
            .unwrap_or(config.cases);
        let base = env_seed.unwrap_or_else(|| fnv1a(name));
        for case in 0..cases {
            // With an explicit PROPTEST_SEED the seed is used *directly*
            // (case 0), so a printed seed reproduces its exact input.
            let seed = if env_seed.is_some() && case == 0 {
                base
            } else {
                case_seed(base, case)
            };
            let mut rng = TestRng::seed_from_u64(seed);
            if let Err(msg) = body(&mut rng) {
                // pcm-audit: allow(panic-macro) — the shim reports case failure by panicking; that is its contract with the test harness
                panic!(
                    "proptest '{name}' failed at case {case}/{cases} (seed {seed}): {msg}\n\
                     reproduce with: PROPTEST_SEED={seed} PROPTEST_CASES=1"
                );
            }
        }
    }
}

/// `prop::` namespace, as re-exported by the prelude.
pub mod prop {
    pub use crate::array;
    pub use crate::collection;
    pub use crate::sample;
}

/// The glob-import surface: `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// A strategy choosing uniformly among the listed alternative strategies
/// (all must generate the same value type).
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Fails the current case with a formatted message unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err(format!($($fmt)+));
        }
    };
}

/// Fails the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)+);
    }};
}

/// Fails the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: `(left != right)`\n  both: `{:?}`",
            l
        );
    }};
}

/// Declares property tests: each `fn` runs its body over generated inputs.
///
/// Supports the upstream syntax subset `#![proptest_config(expr)]`
/// followed by `#[test] fn name(arg in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config = $cfg;
            $crate::test_runner::run(&__config, stringify!($name), |__rng| {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), __rng);)+
                { $body }
                ::core::result::Result::Ok(())
            });
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_in_bounds(x in 10u32..20, y in -4i64..=4) {
            prop_assert!((10..20).contains(&x));
            prop_assert!((-4..=4).contains(&y));
        }

        #[test]
        fn collections_respect_sizes(
            v in prop::collection::vec(any::<u8>(), 1..=64),
            s in prop::collection::btree_set(0u16..512, 0..6),
            words in prop::array::uniform8(any::<u64>()),
        ) {
            prop_assert!((1..=64).contains(&v.len()));
            prop_assert!(s.len() < 6);
            prop_assert_eq!(words.len(), 8);
        }

        #[test]
        fn combinators_compose(
            pair in (any::<u64>(), prop::collection::vec(-8i64..8, 3)).prop_map(|(a, b)| (a, b)),
            nested in prop::collection::btree_set(0u16..64, 0..=4).prop_flat_map(|s| {
                let n = s.len();
                (Just(s), prop::collection::vec(any::<bool>(), n))
            }),
            pick in prop::sample::select(vec![1u8, 3, 7]),
        ) {
            prop_assert_eq!(pair.1.len(), 3);
            prop_assert_eq!(nested.0.len(), nested.1.len());
            prop_assert!([1u8, 3, 7].contains(&pick));
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use rand::SeedableRng;
        let strat = prop::collection::vec(any::<u64>(), 0..10);
        let a = strat.generate(&mut crate::test_runner::TestRng::seed_from_u64(9));
        let b = strat.generate(&mut crate::test_runner::TestRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "reproduce with")]
    fn failures_report_seed() {
        crate::test_runner::run(&ProptestConfig::with_cases(3), "always_fails", |_| {
            Err("boom".to_string())
        });
    }
}
