//! Offline stand-in for the `proptest` crate.
//!
//! Supports the subset this workspace uses: the [`proptest!`] macro with
//! `arg in strategy` bindings, integer-range strategies, an optional
//! `#![proptest_config(ProptestConfig::with_cases(n))]` header, and the
//! `prop_assert!`/`prop_assert_eq!` assertions. Case generation is
//! deterministic (seeded per test by the argument pattern), the first
//! two cases pin the range endpoints for edge coverage, and there is no
//! shrinking — a failing case panics with its inputs in the message.

use rand::prelude::*;

/// Number of cases to run per property.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// How many sampled inputs each property is checked against.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` inputs per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Upstream defaults to 256; 96 keeps the suite fast while still
        // hitting the endpoint cases deterministically.
        ProptestConfig { cases: 96 }
    }
}

/// A value generator: the subset of proptest's `Strategy` this
/// workspace needs (integer ranges).
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Draws the value for case number `case` (cases 0 and 1 are the
    /// range endpoints).
    fn sample(&self, rng: &mut StdRng, case: u32) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng, case: u32) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                match case {
                    0 => self.start,
                    1 => self.end - 1,
                    _ => rng.gen_range(self.clone()),
                }
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng, case: u32) -> $t {
                match case {
                    0 => *self.start(),
                    1 => *self.end(),
                    _ => rng.gen_range(self.clone()),
                }
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut StdRng, case: u32) -> Self::Value {
                ($(self.$idx.sample(rng, case),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::Strategy;
    use rand::prelude::*;

    /// Inclusive length bounds for [`vec()`]. Only `usize` ranges convert
    /// into it, which is what pins untyped literals to `usize`.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    /// Strategy producing `Vec`s of values from an element strategy.
    pub struct VecStrategy<S> {
        element: S,
        len: SizeRange,
    }

    /// `Vec` strategy with the given element strategy and length range.
    pub fn vec<S: Strategy>(element: S, len: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            len: len.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut StdRng, case: u32) -> Self::Value {
            // Endpoint-pinning (cases 0/1) applies to the length;
            // elements are always drawn randomly.
            let len = match case {
                0 => self.len.lo,
                1 => self.len.hi_inclusive,
                _ => rng.gen_range(self.len.lo..=self.len.hi_inclusive),
            };
            (0..len)
                .map(|_| self.element.sample(rng, 2 + case))
                .collect()
        }
    }
}

/// Seeds the per-test generator from the stringified argument pattern,
/// so each property gets a distinct but reproducible stream.
pub fn rng_for(test_signature: &str) -> StdRng {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in test_signature.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    StdRng::seed_from_u64(h)
}

/// Runs a block of property tests. See the crate docs for the
/// supported grammar.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cases ($cfg) $($rest)*);
    };
    (@cases ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::rng_for(concat!(
                stringify!($name), $("/", stringify!($arg), ":", stringify!($strat)),*
            ));
            for case in 0..cfg.cases {
                $(let $arg = $crate::Strategy::sample(&($strat), &mut rng, case);)*
                let result = (|| -> ::std::result::Result<(), ::std::string::String> {
                    $body
                    Ok(())
                })();
                if let Err(message) = result {
                    panic!(
                        "property {} failed on case {case} with inputs {:?}: {message}",
                        stringify!($name),
                        ($((stringify!($arg), &$arg),)*),
                    );
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@cases ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// `assert!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(format!($($fmt)*));
        }
    };
}

/// `assert_eq!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)*);
    }};
}

/// The commonly-imported names, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_respected(a in 3u32..10, b in 0u64..u64::MAX, c in 1usize..=4) {
            prop_assert!((3..10).contains(&a));
            prop_assert!(b < u64::MAX);
            prop_assert!((1..=4).contains(&c));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]
        #[test]
        fn config_header_accepted(x in 0i64..100) {
            prop_assert_eq!(x - x, 0);
        }
    }

    #[test]
    fn endpoint_cases_come_first() {
        let strat = 5u32..9;
        let mut rng = crate::rng_for("endpoints");
        assert_eq!(Strategy::sample(&strat, &mut rng, 0), 5);
        assert_eq!(Strategy::sample(&strat, &mut rng, 1), 8);
    }

    #[test]
    #[should_panic(expected = "property")]
    fn failing_property_panics_with_inputs() {
        proptest! {
            fn inner(v in 0u32..4) {
                prop_assert!(v < 3, "v was {v}");
            }
        }
        inner();
    }
}
