//! Offline drop-in replacement for the subset of the `proptest` API this
//! workspace uses.
//!
//! The build environment has no registry access, so the real `proptest`
//! crate cannot be downloaded. This shim keeps the property tests
//! executable: the `proptest!` macro runs each property for
//! `ProptestConfig::cases` deterministic random samples (seeded from the
//! test's name), and `Strategy` supports the combinators the test suite
//! calls (`prop_map`, `prop_flat_map`, ranges, tuples, `Just`,
//! `collection::vec`, `prop_oneof!`). There is **no shrinking** — a failing
//! case reports its assertion message with whatever values produced it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Runner configuration; only the case count is honored.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Constructs the runner RNG (used by the `proptest!` expansion so test
/// crates don't need their own `rand` dependency).
pub fn new_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Deterministic per-test seed: FNV-1a of the test name.
pub fn seed_for(name: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A generator of values of `Self::Value`.
///
/// Unlike upstream proptest there is no value tree / shrinking; a strategy
/// is just a deterministic function of the runner's RNG state.
pub trait Strategy {
    type Value;

    fn sample(&self, rng: &mut StdRng) -> Self::Value;

    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// Object-safe sampling, used by [`BoxedStrategy`].
trait DynStrategy<V> {
    fn sample_dyn(&self, rng: &mut StdRng) -> V;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn sample_dyn(&self, rng: &mut StdRng) -> S::Value {
        self.sample(rng)
    }
}

/// A type-erased strategy (what `prop_oneof!` arms are coerced to).
pub struct BoxedStrategy<V>(Box<dyn DynStrategy<V>>);

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn sample(&self, rng: &mut StdRng) -> V {
        self.0.sample_dyn(rng)
    }
}

/// Strategy that always yields a clone of its payload.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn sample(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, F, S2> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;
    fn sample(&self, rng: &mut StdRng) -> S2::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

/// Uniform choice among boxed arms (what `prop_oneof!` builds).
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
    fn sample(&self, rng: &mut StdRng) -> V {
        let i = rng.gen_range(0..self.arms.len());
        self.arms[i].sample(rng)
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

range_strategy!(f32, f64, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut StdRng) -> Self::Value {
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

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{StdRng, Strategy};
    use rand::Rng;
    use std::ops::Range;

    /// Acceptable length specifications for [`vec()`]: an exact length or a
    /// half-open range of lengths.
    pub trait SizeRange {
        fn pick(&self, rng: &mut StdRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut StdRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn pick(&self, rng: &mut StdRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    /// Strategy producing `Vec`s whose length is drawn from `size` and whose
    /// elements are drawn from `element`.
    pub fn vec<S: Strategy, Z: SizeRange>(element: S, size: Z) -> VecStrategy<S, Z> {
        VecStrategy { element, size }
    }

    pub struct VecStrategy<S, Z> {
        element: S,
        size: Z,
    }

    impl<S: Strategy, Z: SizeRange> Strategy for VecStrategy<S, Z> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Namespace mirror so `prop::collection::vec` resolves after
/// `use proptest::prelude::*`.
pub mod prop {
    pub use crate::collection;
}

/// Everything the test files import.
pub mod prelude {
    pub use crate::{
        prop, prop_assert, prop_assert_eq, prop_oneof, proptest, BoxedStrategy, Just,
        ProptestConfig, Strategy,
    };
}

/// Assertion inside a property body; without shrinking this is a plain
/// `assert!` whose panic fails the test case immediately.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Uniform choice among the given strategies (all arms must yield the same
/// value type).
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Declares `#[test]` functions that run their body for
/// `ProptestConfig::cases` deterministic random samples of the declared
/// inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $(
        #[test]
        fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        #[test]
        fn $name() {
            use $crate::Strategy as _;
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::new_rng($crate::seed_for(concat!(
                module_path!(),
                "::",
                stringify!($name)
            )));
            for __case in 0..__cfg.cases {
                let ($($pat,)+) = ($( ($strat).sample(&mut __rng), )+);
                { $body }
            }
        }
    )*};
}
