//! Fixture round-trips: the engine and the installed binary must agree
//! that `fixtures/violating` fails (exit 1, every rule firing) and
//! `fixtures/clean` passes (exit 0, allows counted).

use fsoi_lint::run_check;
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_root(which: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(which)
}

#[test]
fn violating_tree_fires_every_rule() {
    let report = run_check(&fixture_root("violating")).expect("scan succeeds");
    assert!(!report.is_clean());
    for rule in ["D1", "D2", "D3", "T1", "P1", "A1", "A2"] {
        assert!(
            report.violations.iter().any(|v| v.rule == rule),
            "rule {rule} must fire on the violating fixture:\n{}",
            report.to_table()
        );
    }
    // The tests/ file uses every banned idiom but is path-exempt.
    assert!(
        report
            .violations
            .iter()
            .all(|v| v.path.ends_with("src/bad.rs")),
        "exempt tests/ file must contribute nothing:\n{}",
        report.to_table()
    );
}

#[test]
fn violating_tree_reports_each_expected_site() {
    let report = run_check(&fixture_root("violating")).expect("scan succeeds");
    let has = |rule: &str, needle: &str| {
        report
            .violations
            .iter()
            .any(|v| v.rule == rule && v.msg.contains(needle))
    };
    assert!(has("D1", "`HashMap`"), "HashMap import");
    assert!(has("D1", "`HashSet`"), "HashSet construction");
    assert!(has("D2", "`Instant`"), "wall clock");
    assert!(has("D2", "undocumented knob"), "FSOI_UNDOCUMENTED read");
    assert!(has("D2", "non-literal"), "env::var(knob_name())");
    assert!(has("D3", "`Mutex`"), "lock in sim code");
    assert!(has("D3", "thread::spawn"), "ad-hoc thread");
    assert!(
        has("T1", "trace::emit_with"),
        "eager emission points at the fix"
    );
    assert!(has("P1", "`.unwrap()`"), "unannotated unwrap");
    assert!(has("P1", "`panic!`"), "unannotated panic");
    assert!(has("A1", "unknown rule"), "allow(Q9)");
    assert!(has("A1", "without a reason"), "reasonless allow(P1)");
    assert!(
        has("A2", "stale allow"),
        "well-formed allow(T1) suppressing nothing"
    );
    // A malformed allow does not suppress the violation it sits on.
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.rule == "P1" && v.msg.contains("`.expect()`")),
        "expect under allow(Q9) still fires:\n{}",
        report.to_table()
    );
}

#[test]
fn clean_tree_is_clean_and_counts_allows() {
    let report = run_check(&fixture_root("clean")).expect("scan succeeds");
    assert!(
        report.is_clean(),
        "clean fixture has violations:\n{}",
        report.to_table()
    );
    assert_eq!(
        report.allows.get("P1").copied(),
        Some(2),
        "both the trailing and preceding allow forms are counted"
    );
    assert_eq!(
        report.allows.get("D3").copied(),
        Some(1),
        "the D3 escape hatch is counted"
    );
}

#[test]
fn binary_exit_codes_match_the_gate_contract() {
    let bin = env!("CARGO_BIN_EXE_fsoi-lint");
    let run = |args: &[&str]| Command::new(bin).args(args).output().expect("binary runs");

    let clean = run(&["check", "--root", fixture_root("clean").to_str().unwrap()]);
    assert_eq!(clean.status.code(), Some(0), "clean tree: {clean:?}");

    let bad = run(&[
        "check",
        "--root",
        fixture_root("violating").to_str().unwrap(),
    ]);
    assert_eq!(bad.status.code(), Some(1), "violating tree: {bad:?}");
    let table = String::from_utf8_lossy(&bad.stdout);
    assert!(table.contains("rule"), "human table on stdout: {table}");

    let jsonl = run(&[
        "check",
        "--format",
        "jsonl",
        "--root",
        fixture_root("violating").to_str().unwrap(),
    ]);
    assert_eq!(jsonl.status.code(), Some(1));
    let out = String::from_utf8_lossy(&jsonl.stdout);
    for line in out.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "each JSONL line is one object: {line}"
        );
    }
    assert!(out.contains("\"rule\":\"D1\""));

    let usage = run(&["frobnicate"]);
    assert_eq!(
        usage.status.code(),
        Some(2),
        "unknown args are usage errors"
    );

    let missing = run(&["check", "--root", "/nonexistent-fsoi-fixture"]);
    assert_eq!(
        missing.status.code(),
        Some(2),
        "unscannable root is an error"
    );
}
