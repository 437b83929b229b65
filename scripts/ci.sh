#!/usr/bin/env sh
# Local mirror of .github/workflows/ci.yml: the same tiers, in the
# same order, with the same commands — green here means green in CI.
#
# Usage:
#   scripts/ci.sh                 # all tiers in order: quick lint full bench
#                                 # scale (tsan runs only when named)
#   scripts/ci.sh --tier quick    # fmt check + build + test
#   scripts/ci.sh --tier lint     # clippy -D warnings: the determinism rules + stock lints,
#                                 # then rustdoc -D warnings (intra-doc links)
#   scripts/ci.sh --tier full     # scripts/verify.sh (incl. lint, the `experiments all`
#                                 # golden diff, the `experiments snapshot` pinned
#                                 # hash + trace build)
#   scripts/ci.sh --tier bench    # `experiments profile` run manifest, then the
#                                 # layered benchmark's smoke run
#   scripts/ci.sh --tier scale    # beyond-the-paper grids: 64-node four-network
#                                 # smoke grid + a single 256-node cell, with
#                                 # shape-class and byte-identity assertions,
#                                 # then seven unoptimized tests: a 256-node cell with
#                                 # the directory's eviction cross-check live, the
#                                 # FSOI kernel against its full-scan reference with
#                                 # the sender-mask cross-check live, the mesh
#                                 # against ScanMesh with the active-set
#                                 # cross-check live and the crossbar engine's
#                                 # properties (1000 cases each), the CMP
#                                 # kernel against its full-scan reference with the
#                                 # wake-wheel cross-check live, and the bulk L2
#                                 # warm-up against its per-line reference (slab
#                                 # image, then the per-home split up to 256 nodes)
#                                 # with the LRU-list cross-check live; then three
#                                 # more, the per-operation path against its slow
#                                 # references: the calendar queue against the
#                                 # heap (5000 cases), the flat cache array against
#                                 # exact LRU (2000 cases), the single-ln gap draw
#                                 # against the per-draw formula (all 16 profiles)
#   scripts/ci.sh --tier tsan     # ThreadSanitizer pass over fsoi-sim (needs nightly;
#                                 # optional — skipped with a notice when unavailable)
set -eu
cd "$(dirname "$0")/.."

TIER=all
while [ $# -gt 0 ]; do
    case "$1" in
        --tier) TIER=$2; shift 2 ;;
        *) echo "ci.sh: unknown argument $1 (usage: ci.sh [--tier quick|lint|full|bench|scale|tsan|all])" >&2; exit 2 ;;
    esac
done

banner() {
    echo
    echo "=================================================================="
    echo "ci tier: $1"
    echo "=================================================================="
}

tier_quick() {
    banner quick
    cargo fmt --all --check
    cargo build --offline --workspace
    cargo test -q --offline --workspace
    # Cache smoke: the FSOI_CACHE knob end-to-end (fill, hit, tamper,
    # corrupt-fallback). Already part of the workspace test run above —
    # repeated by name so a cell-cache regression fails a step that says
    # "cell_cache", and so this tier keeps covering it if the workspace
    # test set is ever filtered.
    cargo test -q --offline -p fsoi-bench --test cell_cache
}

tier_lint() {
    banner lint
    # The one lint gate: rules D1/D2/D3/T1/P1/A1/A2 (clippy.toml,
    # [workspace.lints], DESIGN.md "Determinism policy") plus clippy's
    # defaults, on every target.
    cargo clippy --offline --workspace --all-targets -- -D warnings
    # Broken or private intra-doc links.
    RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --workspace --no-deps
}

tier_full() {
    banner full
    scripts/verify.sh
}

tier_bench() {
    banner bench
    # Observability: emit the run manifest (deterministic spans + executor
    # telemetry) for this run; CI uploads target/RUN_manifest.json as an
    # artifact so a regression investigation starts from real numbers.
    cargo run -q --release --offline -p fsoi-bench --bin experiments -- \
        profile --out target/RUN_manifest.json --det target/RUN_det.txt
    # The layered benchmark (BENCHMARK.json, benchmark/) at ~1/20 size,
    # untraced and traced: every workload must run, pass its correctness
    # checks and print every metric BENCHMARK.json declares. It is a
    # package of its own that the workspace build never sees, so this is
    # the step that notices an API change breaking it.
    bash benchmark/run.sh --smoke
}

tier_scale() {
    banner scale
    mkdir -p target
    # 64-node four-network smoke grid: fsoi/mesh/ring/crossbar on a
    # reduced app set, every cell asserted into its shape class and
    # byte-identical across worker counts {1,2,8}.
    cargo run -q --release --offline -p fsoi-bench --bin experiments -- \
        grid --nodes 64 --ops 100 --out target/GRID_64.txt
    # A single 256-node row: the NodeMask-capacity design point. One app
    # across all four networks pins the worst-case-loss crossbar story
    # (latency below Corona's, network energy 100x above it).
    cargo run -q --release --offline -p fsoi-bench --bin experiments -- \
        grid --nodes 256 --ops 50 --apps mp --out target/GRID_256.txt
    echo "scale: grid summaries written to target/GRID_64.txt and target/GRID_256.txt"
    # The grids above are release builds, where the directory's debug
    # cross-check (LRU-list victim == full-scan victim, list invariant) is
    # compiled out. One debug-build test by name puts four-word sharer
    # masks, capacity evictions and that cross-check together.
    cargo test -q --offline -p fsoi-cmp evictions_at_256_nodes_are_cross_checked
    # Likewise for the FSOI kernel: the sender-mask cross-check (masks ==
    # full node x lane scan, after every step) only exists in debug builds.
    # A thousand random shapes up to 256 nodes put four-word masks, the
    # phase-array path and that cross-check together, against ScanFsoi.
    FSOI_CHECK_CASES=1000 cargo test -q --offline -p fsoi-net event_driven_equals_full_scan
    # The two baseline networks against their slow references: ScanMesh,
    # the all-buffers full scan, against MeshNetwork with the active-set
    # cross-check (`check_active_sets`, debug-only) live, and the crossbar
    # engine's properties under both arbitration rows.
    FSOI_CHECK_CASES=1000 cargo test -q --offline -p fsoi-mesh --test props event_driven_equals_full_scan
    FSOI_CHECK_CASES=1000 cargo test -q --offline -p fsoi-ring --test props
    # And for the CMP kernel: the per-tick rebuild of the wake wheel from
    # the cores (`check_kernel`) is debug-only too. Three hundred random
    # cells — all seven networks, a handful at 256 nodes — hold `run()` to
    # the all-cores full-scan drive.
    FSOI_CHECK_CASES=300 cargo test -q --offline -p fsoi-cmp wake_driven_equals_full_scan
    # And for the L2 warm image: a debug build ends every bulk-built slice
    # with the LRU-list cross-check (`check_victim`). Three hundred shapes
    # hold `Directory::warmed` to the per-line preload, and three hundred
    # profiles at 1..=256 nodes hold the per-home run split to the
    # home-filtered line list, building every slice on the way.
    FSOI_CHECK_CASES=300 cargo test -q --offline -p fsoi-coherence warmed_equals_per_line_preload
    FSOI_CHECK_CASES=300 cargo test -q --offline -p fsoi-cmp region_runs_split_by_home_equals_filtered_lines
    # The per-operation path of a CMP cell: the kernel's calendar queue in
    # lockstep with the heap it replaced (times before its cursor, inside
    # its window, on the edge and far past; `pop_due` with a wandering
    # `now`), the flat shift-indexed cache array against an exact-LRU model
    # over random shapes with pinned victims, and every suite profile's
    # gap draw bit-equal to the per-draw formula.
    FSOI_CHECK_CASES=5000 cargo test -q --offline -p fsoi-sim calendar_queue_equals_event_queue
    FSOI_CHECK_CASES=2000 cargo test -q --offline -p fsoi-coherence cache_array_agrees_with_model
    cargo test -q --offline -p fsoi-cmp gap_stream_equals_per_draw_reference
}

tier_tsan() {
    banner tsan
    # ThreadSanitizer needs nightly (-Zsanitizer) plus the matching
    # rust-src component. It is an *optional* tier: the data-race check
    # for the sweep executor's atomic cell cursor and index-keyed result
    # hand-off (crates/sim/src/par.rs) on real interleavings, when a
    # nightly toolchain is around. CI runs it continue-on-error; locally
    # we skip with a notice rather than fail machines without nightly.
    if ! rustup toolchain list 2>/dev/null | grep -q nightly; then
        echo "tsan: no nightly toolchain installed; skipping (optional tier)"
        return 0
    fi
    host=$(rustc -vV | sed -n 's/^host: //p')
    if ! rustup component list --toolchain nightly 2>/dev/null \
        | grep -q 'rust-src (installed)'; then
        echo "tsan: nightly rust-src component missing; skipping (optional tier)"
        return 0
    fi
    RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -q --offline -p fsoi-sim \
        -Zbuild-std --target "$host"
}

case "$TIER" in
    quick) tier_quick ;;
    lint)  tier_lint ;;
    full)  tier_full ;;
    bench) tier_bench ;;
    scale) tier_scale ;;
    tsan)  tier_tsan ;;
    all)
        tier_quick
        tier_lint
        tier_full
        tier_bench
        tier_scale
        ;;
    *) echo "ci.sh: unknown tier '$TIER' (quick|lint|full|bench|scale|tsan|all)" >&2; exit 2 ;;
esac

echo
echo "ci.sh: tier '$TIER' PASSED"
