//! `fsoi-check`: a small, dependency-free, deterministic property-testing
//! harness for the FSOI workspace.
//!
//! The workspace must build and test fully offline, so the external
//! `proptest`/`rand` stack is out; this crate replaces the subset the test
//! suites actually use, seeded from the same `fsoi_sim::rng`
//! (Xoshiro256\*\*/SplitMix64) stack the simulator itself runs on:
//!
//! - **Generators** ([`gen`]): plain `Range`s over integers and `f64` are
//!   generators; combinators cover vectors ([`vec_of`]), distinct sorted
//!   sets ([`set_of`]), fixed slates of protocol ops ([`select`]), tuples,
//!   and [`Gen::map`].
//! - **Integrated shrinking** ([`tree`]): generated values carry lazy
//!   shrink trees; the runner walks them greedily to a local minimum.
//! - **Deterministic seeding + regressions** ([`runner`]): per-test seed
//!   streams derived from a fixed base seed, failures recorded as case
//!   seeds in checked-in `.regressions` files and re-run first on later
//!   runs. See the [`runner`] module docs for the exact model and the
//!   `FSOI_CHECK_{SEED,CASES,REPLAY}` environment overrides.
//!
//! A typical port of a proptest property:
//!
//! ```
//! use fsoi_check::{checker, vec_of, Gen};
//!
//! // proptest! { fn sums_fit(v in proptest::collection::vec(0u64..100, 1..10)) { .. } }
//! fn sums_fit() {
//!     checker!().check("sums_fit", vec_of(0u64..100, 1..10), |v| {
//!         assert!(v.iter().sum::<u64>() < 100 * 10);
//!     });
//! }
//! sums_fit();
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // rule P1

pub mod gen;
pub mod runner;
pub mod tree;

pub use gen::{any_bool, select, set_of, vec_of, Gen};
pub use runner::{Checker, Failure, DEFAULT_CASES, DEFAULT_SEED};
pub use tree::Tree;

/// Builds a [`Checker`] whose `.regressions` file sits next to the calling
/// test source file.
#[macro_export]
macro_rules! checker {
    () => {
        $crate::Checker::with_regressions(env!("CARGO_MANIFEST_DIR"), file!())
    };
}
