#!/usr/bin/env bash
# Runs the whole benchmark twice on the same code, traced runs included, and
# compares the two documents: every end-to-end metric within its bound of
# /BENCHMARK.json on every workload; sim_digest, paper_err_pct and the exact
# model counts equal. Exits non-zero on disagreement. Arguments (--seed,
# --seconds) are passed to both runs.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p benchmark/out
benchmark/run.sh --trace 1 "$@" > benchmark/out/agree-1.json
benchmark/run.sh --trace 1 "$@" > benchmark/out/agree-2.json
benchmark/run.sh --agree benchmark/out/agree-1.json benchmark/out/agree-2.json
