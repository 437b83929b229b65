#!/usr/bin/env sh
# Tier-1 verification gate, hermetic by construction: the workspace has no
# external dependencies, so --offline proves no network is ever consulted.
#
# Every gate announces itself before running so a failure in CI output is
# attributable at a glance.
set -eu
cd "$(dirname "$0")/.."

gate() {
    name=$1
    shift
    echo "==> gate: $name"
    "$@"
    echo "==> gate: $name OK"
}

gate "build (release, offline)" cargo build --release --offline --workspace

gate "test" cargo test -q --offline --workspace

# Determinism & invariant lints (DESIGN.md "Determinism policy"): rules
# D1/D2/D3/T1/P1/A1/A2 are clippy lints configured in clippy.toml and
# [workspace.lints]; every target must be clean — each escape hatch an
# `#[expect]` with a reason, and still load-bearing. A failure here means a
# new violation crept in or an `#[expect]` went stale.
gate "lint (clippy)" cargo clippy --offline --workspace --all-targets -- -D warnings

# Lint *levels*: an `#[expect]` proves a clippy.toml entry exists, not that
# its lint is switched on, so deleting a level would pass the gate above in
# silence. Count them: rule P1's `#![warn(…)]` in each of the eight
# simulation/harness libraries, and the four [workspace.lints.clippy] denies
# (D1/D2/D3/T1 via the disallowed lists, A1 twice).
lint_levels() {
    p1='^#!\[warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)\] // rule P1$'
    for lib in check cmp coherence core mesh optics ring sim; do
        found=$(grep -c "$p1" "crates/$lib/src/lib.rs" || true)
        [ "$found" = 1 ] || {
            echo "crates/$lib/src/lib.rs: rule P1's #![warn(clippy::unwrap_used, …)] line is missing" >&2
            return 1
        }
    done
    denies=$(sed -n '/^\[workspace\.lints\.clippy\]$/,/^\[/p' Cargo.toml \
        | grep -c -E '^(disallowed_types|disallowed_methods|allow_attributes|allow_attributes_without_reason) = "deny"$' || true)
    [ "$denies" = 4 ] || {
        echo "Cargo.toml [workspace.lints.clippy]: $denies of the 4 deny lines left" >&2
        return 1
    }
}
gate "lint levels (P1 warns, workspace denies)" lint_levels

# Observability-plane determinism (DESIGN.md "Observability: two planes,
# one store each"): the deterministic-plane export of `experiments profile` must
# be byte-identical across thread counts — the wall-clock telemetry
# plane may differ, the registry bytes may not. A small --ops
# keeps this a seconds-scale gate; the full-size pin lives in
# crates/bench/tests/profile_manifest.rs.
profile_det_identity() {
    det1=target/VERIFY_det_t1.txt
    det2=target/VERIFY_det_t2.txt
    mkdir -p target
    FSOI_THREADS=1 cargo run -q --release --offline -p fsoi-bench --bin experiments -- \
        profile --ops 30 --out target/VERIFY_manifest_t1.json --det "$det1"
    FSOI_THREADS=2 cargo run -q --release --offline -p fsoi-bench --bin experiments -- \
        profile --ops 30 --out target/VERIFY_manifest_t2.json --det "$det2"
    cmp "$det1" "$det2" || {
        echo "deterministic-plane export differs between FSOI_THREADS=1 and =2" >&2
        return 1
    }
}
gate "profile determinism (threads 1 vs 2)" profile_det_identity

# Printed output (ROADMAP: "printed output of every subcommand
# byte-identical"): `experiments all` — every table and figure, 356 lines —
# against the committed golden. A refactor must leave it alone; a change
# that means to move a number regenerates it and shows the diff in review.
golden_experiments_all() {
    golden=tests/golden/experiments_all.txt
    out=target/VERIFY_experiments_all.txt
    mkdir -p target
    cargo run -q --release --offline -p fsoi-bench --bin experiments -- all > "$out"
    diff -u "$golden" "$out" || {
        echo "experiments all differs from $golden; if the change is meant, regenerate it:" >&2
        echo "  cargo run -q --release --offline -p fsoi-bench --bin experiments -- all > $golden" >&2
        return 1
    }
}
gate "experiments all == golden" golden_experiments_all

# Export bytes: `experiments snapshot` — `Registry::to_table` + `to_jsonl`
# over the Figure 6 sweep, 2 120 lines — against the committed hash (a
# hash, not a second large golden: `experiments all` above is the diff a
# reviewer reads). A refactor of the stats stack must leave it alone.
pinned_experiments_snapshot() {
    pinned=tests/golden/experiments_snapshot.sha256
    cargo run -q --release --offline -p fsoi-bench --bin experiments -- snapshot \
        | sha256sum | diff "$pinned" - || {
        echo "experiments snapshot differs from $pinned; if the change is meant, regenerate it:" >&2
        echo "  cargo run -q --release --offline -p fsoi-bench --bin experiments -- snapshot | sha256sum > $pinned" >&2
        return 1
    }
}
gate "experiments snapshot == pinned hash" pinned_experiments_snapshot

# The structured-trace event API must also build compiled-in on release
# (debug builds always carry it; plain release compiles it out).
gate "build --features trace" cargo build --release --offline --workspace --features trace

# The benchmark (BENCHMARK.json) is a package of its own that the workspace
# build never compiles, yet it calls `CmpSystem::new`/`fork`, the
# `Interconnect` adapters, `CellCache` and `RunReport` fields directly: an
# API change that breaks it must fail here, not only in `ci.sh --tier bench`.
gate "build benchmark package" env CARGO_TARGET_DIR=benchmark/target \
    cargo build --release --offline --manifest-path benchmark/Cargo.toml
