//! The `FSOI_CHECK_CASES` override, in a test binary of its own: the knob
//! is process-wide, and this is the only test here, so setting it cannot
//! steer another property.

use fsoi_check::Checker;

/// A case count past `u32::MAX` aborts instead of wrapping: 2^32 used to
/// narrow to zero fresh cases, so a property that fails on every case
/// passed.
#[test]
#[should_panic(expected = "FSOI_CHECK_CASES=4294967296 does not fit a u32")]
fn oversized_case_count_is_rejected() {
    std::env::set_var("FSOI_CHECK_CASES", "4294967296");
    let _ = Checker::new().check_result("always_fails", &(0u64..10), &|_: &u64| {
        panic!("a fresh case ran")
    });
}
