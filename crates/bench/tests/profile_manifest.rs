//! End-to-end pin of the `experiments profile` observability contract:
//! the run manifest's deterministic-plane section (and the raw `--det`
//! export) must be byte-identical for `FSOI_THREADS` ∈ {1, 2, 8} on the
//! standard 80-cell sweep, while the telemetry section accounts for
//! every cell exactly once across the workers of every run, the serial
//! one included.

use std::path::PathBuf;
use std::process::Command;

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Runs `experiments profile` in a fresh process (fresh telemetry
/// counters) with a small per-core workload and returns
/// `(manifest, deterministic export)`.
fn run_profile(threads: &str) -> (String, String) {
    let out = tmp(&format!("RUN_manifest_t{threads}.json"));
    let det = tmp(&format!("RUN_det_t{threads}.txt"));
    let status = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args([
            "profile",
            "--ops",
            "30",
            "--out",
            out.to_str().expect("utf8 path"),
            "--det",
            det.to_str().expect("utf8 path"),
        ])
        .env("FSOI_THREADS", threads)
        .env_remove("FSOI_CACHE") // cache hits must not perturb the planes
        .status()
        .expect("spawn experiments profile");
    assert!(status.success(), "profile failed for threads={threads}");
    (
        std::fs::read_to_string(&out).expect("manifest written"),
        std::fs::read_to_string(&det).expect("det export written"),
    )
}

/// The manifest's `deterministic` section, exclusive of `telemetry`.
fn det_section(manifest: &str) -> &str {
    let start = manifest
        .find("\"deterministic\": {")
        .expect("deterministic section present");
    let end = manifest
        .find("\"telemetry\": {")
        .expect("telemetry section present");
    &manifest[start..end]
}

/// Sums every `<key><integer>` occurrence, e.g. all workers' cell
/// counts for `"\"cells\": "`.
fn sum_counts(text: &str, key: &str) -> u64 {
    let mut total = 0u64;
    let mut rest = text;
    while let Some(pos) = rest.find(key) {
        rest = &rest[pos + key.len()..];
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        total += digits.parse::<u64>().unwrap_or(0);
    }
    total
}

#[test]
fn deterministic_plane_is_byte_identical_across_thread_counts() {
    let (m1, d1) = run_profile("1");
    let (m2, d2) = run_profile("2");
    let (m8, d8) = run_profile("8");

    // Raw deterministic-plane export: profile + merged registry JSONL.
    assert!(!d1.is_empty(), "deterministic export must not be empty");
    assert!(d1.contains("{\"metric\":\"sim/cycles\","), "{d1}");
    assert_eq!(d1, d2, "threads=2 deterministic export diverged");
    assert_eq!(d1, d8, "threads=8 deterministic export diverged");

    // Manifest: versioned schema, deterministic section thread-blind.
    for m in [&m1, &m2, &m8] {
        assert!(m.contains("\"schema\": \"fsoi-run-manifest/v2\""), "{m}");
        assert!(m.contains("\"config_hash\": \""), "{m}");
    }
    assert_eq!(det_section(&m1), det_section(&m2));
    assert_eq!(det_section(&m1), det_section(&m8));
    assert!(
        !det_section(&m1).contains("thread"),
        "deterministic section must not mention threads: {}",
        det_section(&m1)
    );

    // Telemetry plane: the workers' cell counts account for the sweep.
    for (threads, m) in [("1", &m1), ("2", &m2), ("8", &m8)] {
        let telemetry = &m[m.find("\"telemetry\": {").expect("telemetry section")..];
        assert_eq!(
            sum_counts(telemetry, "\"cells\": "),
            80,
            "threads={threads}: worker cells must sum to the sweep: {m}"
        );
    }
}

#[test]
fn unknown_commands_exit_2_and_manifest_reports_host_cpus() {
    // `bench` is a retired subcommand: rejected like any typo. Garbage
    // arguments are usage errors too, never a panic or a silent run.
    for (args, complaint) in [
        (&["bench"][..], "unknown experiment: bench"),
        (&["no-such-cmd"], "unknown experiment: no-such-cmd"),
        (&["fgi6", "--bogus-flag"], "unknown experiment: fgi6"),
        (&["fig6", "--bogus-flag"], "fig6: unexpected argument"),
        (&["grid", "--networks", "foo"], "grid: unknown network"),
        (
            &["grid", "--nodes", "300"],
            "grid: --nodes must be in 2..=256",
        ),
        (
            &["grid", "--nodes", "1"],
            "grid: --nodes must be in 2..=256",
        ),
        (
            &["grid", "--nodes", "10", "--networks", "mesh"],
            "grid: mesh, L0, Lr1 and Lr2 need a perfect-square",
        ),
        (&["grid", "--nodes"], "grid: --nodes needs a value"),
        (&["profile", "--ops", "many"], "profile: bad --ops value"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("spawn experiments");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {:?}", out.status);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(complaint), "{args:?}: {stderr}");
    }
    // A thread count the other test does not use: own temp files.
    let (manifest, _) = run_profile("3");
    assert!(sum_counts(&manifest, "\"host_cpus\": ") > 0, "{manifest}");
}
