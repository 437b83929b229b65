//! End-to-end pin of the `experiments profile` observability contract:
//! the run manifest up to its closing `host` section (and the raw `--det`
//! export) must be byte-identical for `FSOI_THREADS` ∈ {1, 2, 8} on the
//! standard 80-cell sweep.

use std::path::PathBuf;
use std::process::Command;

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Runs `experiments profile` in a fresh process with a small per-core
/// workload and returns `(manifest, deterministic export)`.
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

/// The manifest up to its closing `host` section: everything that must
/// be a pure function of the cell list.
fn before_host(manifest: &str) -> &str {
    let end = manifest.find("\"host\": {").expect("host section present");
    &manifest[..end]
}

/// The integer after the first `key` in `text`.
fn count_after(text: &str, key: &str) -> u64 {
    let at = text.find(key).expect("key present") + key.len();
    let digits: String = text[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("an integer follows the key")
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

    // Manifest: versioned schema, thread-blind up to the `host` section,
    // which closes the document and names the thread count.
    for (threads, m) in [(1, &m1), (2, &m2), (8, &m8)] {
        assert!(m.contains("\"schema\": \"fsoi-run-manifest/v3\""), "{m}");
        assert!(m.contains("\"config_hash\": \""), "{m}");
        assert!(m.contains("\"deterministic\": {"), "{m}");
        assert_eq!(count_after(m, "\"cells\": "), 80, "{m}");
        assert_eq!(count_after(m, "\"threads\": "), threads, "{m}");
        assert!(m.ends_with("  }\n}\n"), "host closes the manifest: {m}");
    }
    assert_eq!(before_host(&m1), before_host(&m2));
    assert_eq!(before_host(&m1), before_host(&m8));
    assert!(
        !before_host(&m1).contains("thread"),
        "only the host section may mention threads: {}",
        before_host(&m1)
    );
}

#[test]
fn unknown_commands_exit_2_and_manifest_reports_host_cpus() {
    // `bench` is a retired subcommand: rejected like any typo. Garbage
    // arguments are usage errors too, never a panic or a silent run, and
    // an output path that cannot be written is refused before any sweep.
    let unwritable = tmp("no-such-dir").join("out.txt");
    let unwritable = unwritable.to_str().expect("utf8 path");
    let [profile_unwritable, grid_unwritable] =
        ["profile", "grid"].map(|cmd| format!("{cmd}: cannot write {unwritable}"));
    for (args, complaint) in [
        (&["bench"][..], "unknown experiment: bench"),
        (&["no-such-cmd"], "unknown experiment: no-such-cmd"),
        (&["fgi6", "--bogus-flag"], "unknown experiment: fgi6"),
        (&["fig6", "--bogus-flag"], "fig6: unexpected argument"),
        (&["--full", "--bogus"], "all: unexpected argument"),
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
        (&["grid", "--ops", "0"], "grid: --ops must be at least 1"),
        (&["profile", "--ops", "many"], "profile: bad --ops value"),
        (
            &["profile", "--ops", "0"],
            "profile: --ops must be at least 1, got 0",
        ),
        (
            &["profile", "--ops", "30", "--out", unwritable],
            profile_unwritable.as_str(),
        ),
        (
            &["profile", "--ops", "30", "--det", unwritable],
            profile_unwritable.as_str(),
        ),
        (
            &[
                "grid",
                "--ops",
                "1",
                "--networks",
                "fsoi",
                "--out",
                unwritable,
            ],
            grid_unwritable.as_str(),
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("spawn experiments");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {:?}", out.status);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(complaint), "{args:?}: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            !stdout.contains("sweep:") && !stdout.contains("cells (ops/core"),
            "{args:?} ran before it was refused: {stdout}"
        );
    }
    // A thread count the other test does not use: own temp files.
    let (manifest, _) = run_profile("3");
    assert!(count_after(&manifest, "\"host_cpus\": ") > 0, "{manifest}");
}
