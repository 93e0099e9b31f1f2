//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate, providing the subset of its API this workspace uses.
//!
//! Differences from real proptest:
//!
//! * **No shrinking.** A failing case reports the generated inputs via the
//!   assertion message but does not minimise them.
//! * **Deterministic seeding.** Each `#[test]` derives its RNG seed from the
//!   test name, so failures reproduce exactly across runs and machines.
//!
//! Supported surface: the [`proptest!`] macro (with an optional
//! `#![proptest_config(..)]` header), [`prop_assert!`], [`prop_assert_eq!`],
//! [`prop_assume!`], [`strategy::Strategy`] with `prop_map`, range and tuple
//! strategies, [`arbitrary::any`], [`collection::vec`], and
//! [`sample::select`].

// No unsafe anywhere in this crate: the determinism contract is easier
// to audit when all of the workspace's unsafe code sits in the fenced
// kernel tiers that `ssync_dsp::simd::tier()` dispatches: ssync_dsp's AVX2
// FFT and CFO-mixer kernels and its AVX2 and AVX-512 compiled twins, and
// ssync_phy's AVX2 and AVX-512 Viterbi kernels and AVX2 demap kernel (see
// DESIGN.md, "The SIMD layer and kernel tiers", and ssync_lint's
// `undocumented-unsafe` rule).
#![forbid(unsafe_code)]

pub mod arbitrary;
pub mod collection;
pub mod sample;
pub mod strategy;
pub mod test_runner;

pub mod prelude {
    //! Glob-import target mirroring `proptest::prelude`.
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};

    pub mod prop {
        //! Mirrors the `prop` module alias from the real prelude.
        pub use crate::collection;
        pub use crate::sample;
    }
}

/// Runs a block of property tests, one generated input set per case.
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn addition_commutes(a in 0u32..100, b in 0u32..100) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl ($cfg) $($rest)*);
    };
    (@impl ($cfg:expr) $(
        #[test]
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {
        $(
            #[test]
            fn $name() {
                let __config: $crate::test_runner::ProptestConfig = $cfg;
                $crate::test_runner::run_cases(&__config, stringify!($name), |__rng| {
                    $(let $arg = $crate::strategy::Strategy::new_value(&($strat), __rng);)+
                    $body
                    Ok(())
                });
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@impl ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

/// Fails the current test case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::test_runner::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current test case unless both expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                __l,
                __r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+),
                __l,
                __r
            )));
        }
    }};
}

/// Fails the current test case if both expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l == *__r {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                __l
            )));
        }
    }};
}

/// Discards the current test case (re-drawing fresh inputs) unless the
/// precondition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}
