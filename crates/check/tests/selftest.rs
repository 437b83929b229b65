//! The harness testing itself: shrink convergence on planted bugs,
//! regression-file round-trips, and seed determinism.

use fsoi_check::{vec_of, Checker};
use std::cell::RefCell;

/// A fresh checker decoupled from any regression file and env overrides
/// (the self-tests must not be steered by a checked-in `.regressions`).
fn plain(seed: u64) -> Checker {
    Checker::new().seed(seed)
}

#[test]
fn shrink_converges_to_int_boundary() {
    // Planted bug: fails for every x >= 50. The unique minimal
    // counterexample is exactly the boundary.
    let f = plain(1)
        .check_result("planted_int", &(0u64..1000), &|&x| {
            assert!(x < 50, "x = {x}")
        })
        .expect_err("property must fail");
    assert!(f.original >= 50);
    assert_eq!(
        f.shrunk, 50,
        "greedy halving must land exactly on the boundary"
    );
    assert!(f.message.contains("x = 50"));
}

#[test]
fn shrink_converges_to_minimal_vec() {
    // Planted bug: fails whenever any element reaches 500. Minimal
    // counterexample: a single element holding exactly 500.
    let f = plain(2)
        .check_result("planted_vec", &vec_of(0u64..1000, 0..20), &|v: &Vec<
            u64,
        >| {
            assert!(v.iter().all(|&x| x < 500))
        })
        .expect_err("property must fail");
    assert_eq!(f.shrunk, vec![500]);
}

#[test]
fn shrink_reaches_minimal_pair_sum() {
    // Planted bug: fails when a + b > 10. Greedy shrinking may settle on
    // different (a, b) splits, but the sum of any local minimum is the
    // boundary value 11.
    let f = plain(3)
        .check_result("planted_pair", &(0u64..100, 0u64..100), &|&(a, b)| {
            assert!(a + b <= 10)
        })
        .expect_err("property must fail");
    assert_eq!(f.shrunk.0 + f.shrunk.1, 11, "shrunk to {:?}", f.shrunk);
}

#[test]
fn identical_seed_means_identical_case_sequence() {
    let observe = |seed: u64| {
        let seen = RefCell::new(Vec::new());
        plain(seed)
            .cases(32)
            .check_result("seq", &(0u64..1_000_000, 0.0f64..1.0), &|v| {
                seen.borrow_mut().push(*v);
            })
            .expect("recording property never fails");
        seen.into_inner()
    };
    let a = observe(0xABCD);
    let b = observe(0xABCD);
    assert_eq!(a.len(), 32);
    assert_eq!(a, b, "same seed must replay the same cases");
    let c = observe(0xABCE);
    assert_ne!(a, c, "different base seeds must diverge");
}

#[test]
fn distinct_test_names_get_distinct_streams() {
    let first_case = |name: &str| {
        let seen = RefCell::new(Vec::new());
        plain(7)
            .cases(1)
            .check_result(name, &(0u64..u64::MAX - 1), &|&v| {
                seen.borrow_mut().push(v);
            })
            .unwrap();
        seen.into_inner()[0]
    };
    assert_ne!(first_case("prop_alpha"), first_case("prop_beta"));
}

#[test]
fn regression_file_round_trip() {
    #[expect(clippy::disallowed_methods, reason = "D2: a test's scratch file")]
    let path = std::env::temp_dir().join(format!(
        "fsoi_check_roundtrip_{}.regressions",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    // 1. A failing run records its case seed.
    let failing = |&x: &u64| assert!(x < 50);
    let f = Checker::with_regressions_file(&path)
        .seed(11)
        .check_result("rt_prop", &(0u64..1000), &failing)
        .expect_err("property must fail");
    let text = std::fs::read_to_string(&path).expect("regression file written");
    assert!(
        text.contains(&format!("cc rt_prop {:#018x}", f.seed)),
        "seed line recorded: {text}"
    );

    // 2. A later run with zero fresh cases still fails — the recorded
    //    seed is re-run from the file and regenerates the same case.
    let g = Checker::with_regressions_file(&path)
        .seed(0xFFFF) // different base seed: only the file can supply the case
        .cases(0)
        .check_result("rt_prop", &(0u64..1000), &failing)
        .expect_err("recorded regression must re-fail");
    assert_eq!(g.seed, f.seed);
    assert_eq!(g.original, f.original);

    // 3. Once the "bug" is fixed the recorded case passes.
    Checker::with_regressions_file(&path)
        .cases(0)
        .check_result("rt_prop", &(0u64..1000), &|_| {})
        .expect("fixed property passes its regression");

    // 4. Other properties are not steered by this entry.
    Checker::with_regressions_file(&path)
        .cases(0)
        .check_result("unrelated_prop", &(0u64..1000), &failing)
        .expect("no recorded seeds for other names");

    let _ = std::fs::remove_file(&path);
}

#[test]
fn recording_failures_is_idempotent() {
    #[expect(clippy::disallowed_methods, reason = "D2: a test's scratch file")]
    let path = std::env::temp_dir().join(format!(
        "fsoi_check_idem_{}.regressions",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let failing = |&x: &u64| assert!(x < 1);
    for _ in 0..3 {
        let _ = Checker::with_regressions_file(&path)
            .seed(5)
            .cases(4)
            .check_result("idem_prop", &(0u64..1000), &failing);
    }
    let text = std::fs::read_to_string(&path).unwrap();
    let lines = text
        .lines()
        .filter(|l| l.trim_start().starts_with("cc "))
        .count();
    assert_eq!(lines, 1, "duplicate seeds must not accumulate: {text}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn failure_carries_flight_recorder_tail() {
    use fsoi_sim::trace::{self, TraceEvent};
    if !trace::compiled() {
        return; // release without the `trace` feature: nothing to record
    }
    #[expect(clippy::disallowed_methods, reason = "D2: a test's scratch file")]
    let path = std::env::temp_dir().join(format!(
        "fsoi_check_trace_{}.regressions",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    // The property leaves a trace event behind before failing, like an
    // instrumented network tick would.
    #[expect(clippy::disallowed_methods, reason = "T1: a test's one eager event")]
    let failing = |&x: &u64| {
        trace::emit(
            fsoi_sim::Cycle(x),
            TraceEvent::Mark {
                label: "case".into(),
                value: x,
            },
        );
        assert!(x < 50, "x = {x}");
    };
    let f = Checker::with_regressions_file(&path)
        .seed(19)
        .check_result("trace_prop", &(0u64..1000), &failing)
        .expect_err("property must fail");
    assert!(
        f.trace.contains("\"event\":\"mark\""),
        "tail recorded: {}",
        f.trace
    );
    // The tail belongs to the *shrunk* case (x = 50), not some probe.
    assert!(
        f.trace.contains("\"cycle\":50"),
        "tail is the minimal case: {}",
        f.trace
    );
    assert_eq!(
        f.trace.lines().count(),
        1,
        "one probe, one event: {}",
        f.trace
    );

    // The regression entry carries the tail as comment lines…
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(
        text.contains("#   trace: {\"cycle\":50"),
        "trace comment recorded: {text}"
    );
    // …which must not confuse the seed parser on the next run.
    let g = Checker::with_regressions_file(&path)
        .seed(0xFFFF) // only the file can supply the case
        .cases(0)
        .check_result("trace_prop", &(0u64..1000), &failing)
        .expect_err("recorded regression must re-fail");
    assert_eq!(g.seed, f.seed);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn check_panics_with_replayable_report() {
    let err = std::panic::catch_unwind(|| {
        plain(13).check("report_prop", 0u64..1000, |&x| assert!(x < 50));
    })
    .expect_err("check must panic on failure");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "?".into());
    assert!(
        msg.contains("[fsoi-check] property 'report_prop' failed"),
        "{msg}"
    );
    assert!(
        msg.contains("FSOI_CHECK_REPLAY=0x"),
        "report names the replay knob: {msg}"
    );
    assert!(msg.contains("shrunk"), "{msg}");
}

#[test]
fn passing_properties_stay_quiet() {
    plain(17).check("always_passes", vec_of(0u64..10, 0..5), |v| {
        assert!(v.len() < 5);
    });
}
