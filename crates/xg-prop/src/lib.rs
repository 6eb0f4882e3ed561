//! The workspace's property-test runner.
//!
//! It keeps the surface of the `proptest` crate (1.x) that the workspace's
//! property tests use, so they read as proptest tests, but it is
//! generate-only: each `proptest!` test seeds one
//! [`test_runner::TestRng`] from its module path and name, draws `cases`
//! inputs from the declared strategies, and runs the body. There is no
//! shrinking; a failure reports the failing case's number and the
//! assertion message. The same test draws the same cases on every run and
//! every host, which is the workspace's same-seed replay applied to its
//! tests.
//!
//! Implemented surface: numeric range strategies (`lo..hi`, `lo..=hi`),
//! `any::<T>()` for the primitive types, `collection::vec`, `bool::ANY`,
//! character-class string strategies (`"[a-z0-9]{0,24}"`), tuple
//! strategies, `Just`, `prop_map`, `prop_filter`, `prop_oneof!`,
//! `prop_assert!`, `prop_assert_eq!`, and
//! `ProptestConfig::with_cases` (replaced by the `PROPTEST_CASES`
//! environment variable when set).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod test_runner {
    //! Config, RNG, and error plumbing used by the `proptest!` macro.

    use std::fmt;

    /// Subset of proptest's run configuration.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of cases to draw per property.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// Effective case count: the `PROPTEST_CASES` environment variable
    /// when that parses, else the configured value. An override (rather
    /// than a cap) lets one variable both shrink every suite in a slow
    /// lane and run every suite deeper than it asks for in a thorough
    /// one.
    pub fn resolved_cases(config: &ProptestConfig) -> u32 {
        match std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse::<u32>().ok())
        {
            Some(cases) => cases.max(1),
            None => config.cases,
        }
    }

    /// A failed property case.
    #[derive(Debug)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError {
                message: message.into(),
            }
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.message)
        }
    }

    /// The generator every strategy draws from: the workspace's one,
    /// [`xg_sim::rng::Rng`].
    pub type TestRng = xg_sim::rng::Rng;

    /// The generator of the test named `name` (its fully-qualified path):
    /// seeded with the 64-bit FNV-1a hash of the name.
    pub fn rng_for_test(name: &str) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        TestRng::seed_from_u64(h)
    }
}

pub mod strategy {
    //! The `Strategy` trait and combinators.

    use crate::test_runner::TestRng;
    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};

    /// A generator of values. Unlike real proptest there is no value
    /// tree or shrinking; `new_value` draws a fresh case directly.
    pub trait Strategy {
        type Value;

        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        fn prop_filter<F>(self, whence: &'static str, f: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter {
                inner: self,
                whence,
                f,
            }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// Object-safe view used by [`BoxedStrategy`] and `prop_oneof!`.
    pub trait DynStrategy<V> {
        fn dyn_value(&self, rng: &mut TestRng) -> V;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn dyn_value(&self, rng: &mut TestRng) -> S::Value {
            self.new_value(rng)
        }
    }

    /// A type-erased strategy.
    pub struct BoxedStrategy<V>(Box<dyn DynStrategy<V>>);

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn new_value(&self, rng: &mut TestRng) -> V {
            self.0.dyn_value(rng)
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn new_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// `prop_map` combinator.
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
        fn new_value(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.new_value(rng))
        }
    }

    /// `prop_filter` combinator: rejects-and-redraws, giving up loudly
    /// after a bounded number of attempts.
    pub struct Filter<S, F> {
        inner: S,
        whence: &'static str,
        f: F,
    }

    impl<S, F> Strategy for Filter<S, F>
    where
        S: Strategy,
        F: Fn(&S::Value) -> bool,
    {
        type Value = S::Value;
        fn new_value(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1000 {
                let v = self.inner.new_value(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!(
                "prop_filter({:?}) rejected 1000 consecutive draws",
                self.whence
            )
        }
    }

    /// Uniform choice between type-erased arms (`prop_oneof!`).
    pub struct Union<V> {
        arms: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn new_value(&self, rng: &mut TestRng) -> V {
            let idx = rng.range_u64(0..self.arms.len() as u64) as usize;
            self.arms[idx].new_value(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),+) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u128).wrapping_sub(self.start as u128);
                    let off = (rng.next_u64() as u128) % span;
                    self.start.wrapping_add(off as $t)
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty inclusive range strategy");
                    // At most 2⁶⁴ for every type here, so never 0.
                    let span = (hi as u128).wrapping_sub(lo as u128).wrapping_add(1);
                    let off = (rng.next_u64() as u128) % span;
                    lo.wrapping_add(off as $t)
                }
            }
        )+};
    }
    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn new_value(&self, rng: &mut TestRng) -> f64 {
            rng.range_f64(self.clone())
        }
    }

    impl Strategy for RangeInclusive<f64> {
        type Value = f64;
        fn new_value(&self, rng: &mut TestRng) -> f64 {
            self.start() + rng.next_f64() * (self.end() - self.start())
        }
    }

    /// Character-class string strategies: `"[chars]{min,max}"` draws a
    /// string of that length from the class (supporting `a-z` ranges and
    /// literal characters, unicode included); any other pattern is
    /// produced literally.
    impl Strategy for &'static str {
        type Value = String;
        fn new_value(&self, rng: &mut TestRng) -> String {
            match parse_char_class(self) {
                Some((alphabet, min, max)) => {
                    let len = min + rng.range_u64(0..(max - min + 1) as u64) as usize;
                    (0..len)
                        .map(|_| alphabet[rng.range_u64(0..alphabet.len() as u64) as usize])
                        .collect()
                }
                None => (*self).to_string(),
            }
        }
    }

    fn parse_char_class(pattern: &str) -> Option<(Vec<char>, usize, usize)> {
        let rest = pattern.strip_prefix('[')?;
        let close = rest.find(']')?;
        let class: Vec<char> = rest[..close].chars().collect();
        let reps = rest[close + 1..].strip_prefix('{')?.strip_suffix('}')?;
        let (min_s, max_s) = reps.split_once(',')?;
        let (min, max) = (min_s.parse().ok()?, max_s.parse().ok()?);
        if min > max {
            return None;
        }
        let mut alphabet = Vec::new();
        let mut i = 0;
        while i < class.len() {
            if i + 2 < class.len() && class[i + 1] == '-' {
                let (lo, hi) = (class[i] as u32, class[i + 2] as u32);
                for c in lo..=hi {
                    if let Some(c) = char::from_u32(c) {
                        alphabet.push(c);
                    }
                }
                i += 3;
            } else {
                alphabet.push(class[i]);
                i += 1;
            }
        }
        if alphabet.is_empty() {
            return None;
        }
        Some((alphabet, min, max))
    }

    macro_rules! tuple_strategy {
        ($($s:ident . $idx:tt),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.new_value(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(A.0);
    tuple_strategy!(A.0, B.1);
    tuple_strategy!(A.0, B.1, C.2);
    tuple_strategy!(A.0, B.1, C.2, D.3);
    tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
    tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);

    /// Marker used by [`crate::arbitrary::any`].
    pub struct ArbitraryStrategy<T>(pub(crate) PhantomData<T>);

    impl<T: crate::arbitrary::Arbitrary> Strategy for ArbitraryStrategy<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary_value(rng)
        }
    }
}

pub mod arbitrary {
    //! `any::<T>()` for the primitive types.

    use crate::strategy::ArbitraryStrategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain generator.
    pub trait Arbitrary: Sized {
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    pub fn any<T: Arbitrary>() -> ArbitraryStrategy<T> {
        ArbitraryStrategy(PhantomData)
    }

    macro_rules! int_arbitrary {
        ($($t:ty),+) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )+};
    }
    int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

    impl Arbitrary for bool {
        fn arbitrary_value(rng: &mut TestRng) -> bool {
            rng.next_bool()
        }
    }

    /// Full-domain floats: a mix of special values, uniform bit
    /// patterns (wild magnitudes, NaNs), and tame unit-range values, so
    /// both edge-case and common-case behavior get exercised.
    impl Arbitrary for f64 {
        fn arbitrary_value(rng: &mut TestRng) -> f64 {
            match rng.range_u64(0..16) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => 0.0,
                4 => -0.0,
                5..=9 => f64::from_bits(rng.next_u64()),
                _ => (rng.next_f64() - 0.5) * 2e3,
            }
        }
    }
}

pub mod collection {
    //! `collection::vec`.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Element-count specification accepted by [`vec()`].
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                min: n,
                max_inclusive: n,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                min: r.start,
                max_inclusive: r.end - 1,
            }
        }
    }

    /// Vectors of `element` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max_inclusive - self.size.min + 1) as u64;
            let len = self.size.min + rng.range_u64(0..span) as usize;
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

pub mod bool {
    //! `bool::ANY`.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy for both boolean values.
    #[derive(Debug, Clone, Copy)]
    pub struct BoolAny;

    pub const ANY: BoolAny = BoolAny;

    impl Strategy for BoolAny {
        type Value = bool;
        fn new_value(&self, rng: &mut TestRng) -> bool {
            rng.next_bool()
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ @cfg($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg($cfg:expr)) => {};
    (@cfg($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let cases = $crate::test_runner::resolved_cases(&config);
            let mut rng = $crate::test_runner::rng_for_test(
                concat!(module_path!(), "::", stringify!($name)),
            );
            let strat = ($($strat,)+);
            for case in 0..cases {
                let ($($pat,)+) =
                    $crate::strategy::Strategy::new_value(&strat, &mut rng);
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(err) = outcome {
                    ::std::panic!(
                        "proptest `{}` failed at case {}/{}: {}",
                        stringify!($name), case + 1, cases, err
                    );
                }
            }
        }
        $crate::__proptest_impl!{ @cfg($cfg) $($rest)* }
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(::std::format!($($fmt)+)),
            );
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "assertion failed: `{:?} == {:?}`", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)+);
    }};
}

#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::rng_for_test;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Ranges respect their bounds.
        #[test]
        fn ranges_in_bounds(x in 3u32..17, y in -2.5f64..2.5, z in 0usize..=4) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-2.5..2.5).contains(&y), "y = {}", y);
            prop_assert!(z <= 4);
        }

        /// Vec sizes respect the size range; map/filter compose.
        #[test]
        fn combinators(
            v in crate::collection::vec(any::<u8>(), 2..5),
            s in "[ab]{1,3}",
            w in prop_oneof![
                (0u8..10).prop_map(|x| x as u16),
                (50u8..60).prop_filter("even", |x| x % 2 == 0).prop_map(|x| x as u16),
            ],
        ) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
            prop_assert!(!s.is_empty() && s.len() <= 3);
            prop_assert!(s.chars().all(|c| c == 'a' || c == 'b'));
            prop_assert!(w < 10 || (50..60).contains(&w));
        }
    }

    /// A test's cases are a function of its name alone, and the same as
    /// before the runner moved onto `xg_sim::rng`: the first words of a
    /// few tests' generators, as the retired runner's own xoshiro256**
    /// drew them.
    #[test]
    fn every_test_draws_the_cases_it_drew() {
        for (name, words) in [
            (
                "",
                [0x21382ef092ed7068, 0x5b54c052757adf62, 0xa64cb2cf68795072],
            ),
            (
                "x::y",
                [0x8298afd8814aa85c, 0xab12b8b16af46d27, 0xd302aea8555204b6],
            ),
            (
                "xg_net::sim::reference::tests::event_engine_is_bitwise_identical_to_stepped",
                [0x5b08c0aba3c1e381, 0xa9766cedb50bd8b7, 0x2f902ffa57382083],
            ),
            (
                "ünïcode::名前",
                [0x42f562291e94bad5, 0x11dca8f28496641f, 0x2b55a10c27e8f810],
            ),
        ] {
            let mut rng = rng_for_test(name);
            assert_eq!(words.map(|_| rng.next_u64()), words, "{name:?}");
        }
    }
}
