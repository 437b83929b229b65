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

# The release profile (DESIGN.md "Hot path & memory layout") is one table
# in .cargo/config.toml, which cargo reads for every build started inside
# the checkout, the benchmark package's included. A deleted line would fall
# back to per-crate codegen in silence, and the config would silently
# override a manifest that set either key, so no Cargo.toml may.
release_profile() {
    config=.cargo/config.toml
    for key in 'lto = "fat"' 'codegen-units = 1'; do
        found=$(sed -n '/^\[profile\.release\]$/,/^\[/p' "$config" | grep -c -x "$key" || true)
        [ "$found" = 1 ] || {
            echo "$config [profile.release]: '$key' is missing" >&2
            return 1
        }
    done
    manifests=$(find . \( -name target -o -name .git \) -prune -o -name Cargo.toml -print)
    setters=$(echo "$manifests" | xargs grep -l -E '(^|[.[:space:]])(lto|codegen-units)[[:space:]]*=' || true)
    [ -z "$setters" ] || {
        echo "these manifests set lto or codegen-units, which $config overrides:" >&2
        echo "$setters" >&2
        return 1
    }
}
gate "release profile (fat LTO, one codegen unit)" release_profile

# Every intra-doc link resolves, and none points at a private item: a
# deleted or renamed function must take its doc links with it.
gate "docs (rustdoc -D warnings)" env RUSTDOCFLAGS="-D warnings" \
    cargo doc -q --offline --workspace --no-deps

# Observability-plane determinism (DESIGN.md "Observability: one
# registry, one trace"): the deterministic-plane export of `experiments
# profile` and its run manifest up to the closing `host` section must be
# byte-identical across thread counts — only `host` may differ. A small
# --ops keeps this a seconds-scale gate; the full-size pin lives in
# crates/bench/tests/profile_manifest.rs.
profile_det_identity() {
    det1=target/VERIFY_det_t1.txt
    det2=target/VERIFY_det_t2.txt
    man1=target/VERIFY_manifest_t1.json
    man2=target/VERIFY_manifest_t2.json
    mkdir -p target
    FSOI_THREADS=1 cargo run -q --release --offline -p fsoi-bench --bin experiments -- \
        profile --ops 30 --out "$man1" --det "$det1"
    FSOI_THREADS=2 cargo run -q --release --offline -p fsoi-bench --bin experiments -- \
        profile --ops 30 --out "$man2" --det "$det2"
    cmp "$det1" "$det2" || {
        echo "deterministic-plane export differs between FSOI_THREADS=1 and =2" >&2
        return 1
    }
    sed '/"host": {/,$d' "$man1" > "$man1.cut"
    sed '/"host": {/,$d' "$man2" > "$man2.cut"
    cmp "$man1.cut" "$man2.cut" || {
        echo "run manifest before its host section differs between FSOI_THREADS=1 and =2" >&2
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
# build never compiles, yet it calls `CmpSystem::new`/`fork`, the networks
# through `Interconnect`, `CellCache` and `RunReport` fields directly, and it
# imports the network interface at two re-exported paths:
# `fsoi_cmp::interconnect::{Interconnect, NetPacket}` (defined in
# `fsoi_sim::packet`) and `fsoi_net::packet::PacketClass`. An API change that
# breaks it must fail here, not only in `ci.sh --tier bench`.
gate "build benchmark package" env CARGO_TARGET_DIR=benchmark/target \
    cargo build --release --offline --manifest-path benchmark/Cargo.toml
