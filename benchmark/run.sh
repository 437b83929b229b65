#!/usr/bin/env bash
# The benchmark's one command. Builds the package (release, offline) and runs it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload in one process; the last line of output is the result
#       {"correct", "attempted", "failed", "metrics"} that /BENCHMARK.json describes
#   benchmark/run.sh [--seed N] [--seconds S] [--trace 1]
#       every workload, each in a process of its own; one JSON document
#   benchmark/run.sh --smoke
#       the same at ~1/20 size, untraced and traced, checked against /BENCHMARK.json
#
# Artifacts go to benchmark/target/ (or $CARGO_TARGET_DIR) and benchmark/out/ only.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# The simulator's knobs must not leak in: a stale FSOI_CACHE would turn cells
# into file reads, FSOI_THREADS would resize the parallel pass.
unset FSOI_CACHE FSOI_THREADS FSOI_TRACE FSOI_TRACE_BUF FSOI_TRACE_DUMP

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

BENCH_RUSTC="$(rustc --version)" exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
