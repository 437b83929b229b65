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
#                                 # smoke grid + a single 256-node row, with
#                                 # shape-class and byte-identity assertions,
#                                 # each summary diffed against its golden
#                                 # (tests/golden/grid_64.txt, grid_256.txt),
#                                 # then sixteen unoptimized tests, in this order:
#                                 # evictions_at_256_nodes_are_cross_checked (a
#                                 # 256-node cell with the directory's eviction
#                                 # cross-check live);
#                                 # event_driven_equals_full_scan (fsoi-net: the FSOI
#                                 # kernel against ScanFsoi with the sender-mask
#                                 # and slot-group cross-checks live, 1000 cases);
#                                 # fast_forward_equals_cycle_by_cycle (fsoi-net:
#                                 # run() against tick() at 2-16, 64 and 256 nodes,
#                                 # the same cross-checks live, 1000 cases);
#                                 # event_driven_equals_full_scan (fsoi-mesh: the
#                                 # mesh against ScanMesh with the active-set
#                                 # cross-check live, 1000 cases); the fsoi-ring
#                                 # props (the crossbar engine, 1000 cases, among
#                                 # them backlogged_equals_full_scan: the engine
#                                 # against ScanChannel with the backlogged-set
#                                 # cross-check live);
#                                 # every_delivery_decomposes (all eight networks'
#                                 # deliveries against the Figure 6/7 stack, 1000
#                                 # cases); wake_driven_equals_full_scan (the CMP
#                                 # kernel against its full-scan drive with the
#                                 # wake-wheel cross-check live, 300 cases);
#                                 # folded_think_equals_gap_visits (the kernel's
#                                 # think time against the visit-per-gap mode,
#                                 # 300 cases);
#                                 # lazy_warm_equals_eager_preload and
#                                 # region_runs_split_by_home_equals_filtered_lines
#                                 # (a random slice's warm tier over a shared
#                                 # map of 1..=9 slices against its per-line
#                                 # eager reference under one message script,
#                                 # then the per-home split and every slice's
#                                 # tier over one map up to 256 nodes, LRU-order
#                                 # and tier cross-checks live, 300 cases each);
#                                 # stalls_keep_the_list_and_the_side_table_consistent
#                                 # (a stall-heavy directory slice with the LRU-list
#                                 # and deferred-table cross-checks after every
#                                 # message, 1000 cases); the protocol_conformance
#                                 # fuzz (the Table 2 handlers behind four L1s and
#                                 # four slices, 1000 cases); then the per-operation
#                                 # path against its slow references:
#                                 # calendar_queue_equals_event_queue (5000 cases),
#                                 # cache_array_agrees_with_model (exact LRU, 2000
#                                 # cases), gap_stream_equals_per_draw_reference
#                                 # (the single-ln gap draw, all 16 profiles) and
#                                 # think_stream_equals_gap_op_reference (think time
#                                 # riding its access against the Compute-step
#                                 # generator, all 16 profiles)
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
    # Observability: emit the run manifest (config, build, the deterministic
    # span profile, then the host's thread and CPU counts) for this run; CI
    # uploads target/RUN_manifest.json as an artifact so a regression
    # investigation starts from the run's own profile.
    cargo run -q --release --offline -p fsoi-bench --bin experiments -- \
        profile --out target/RUN_manifest.json --det target/RUN_det.txt
    # The layered benchmark (BENCHMARK.json, benchmark/) at ~1/20 size,
    # untraced and traced: every workload must run, pass its correctness
    # checks and print every metric BENCHMARK.json declares. It is a
    # package of its own that the workspace build never sees, so this is
    # the step that notices an API change breaking it.
    bash benchmark/run.sh --smoke
}

# `target/GRID_<nodes>.txt` against `tests/golden/grid_<nodes>.txt`; the
# second argument is the grid's flags, for the regenerate hint.
grid_golden() {
    golden=tests/golden/grid_$1.txt
    diff -u "$golden" "target/GRID_$1.txt" || {
        echo "grid --nodes $1 differs from $golden; if the change is meant, regenerate it:" >&2
        echo "  cargo run -q --release --offline -p fsoi-bench --bin experiments -- grid $2 --out $golden" >&2
        return 1
    }
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
    # Every cell's cycles, latency, energy and packet count against the
    # committed goldens: the only committed files that pin the matrix
    # crossbar's latency and energy. A refactor must leave them alone; a
    # change that means to move a number regenerates them and shows the
    # diff in review.
    grid_golden 64 "--nodes 64 --ops 100"
    grid_golden 256 "--nodes 256 --ops 50 --apps mp"
    # The grids above are release builds, where the directory's debug
    # cross-checks (LRU-list victim == full-scan victim, list invariant,
    # deferred side table == flagged slots) are compiled out. One debug-build test by name puts four-word sharer
    # masks, capacity evictions and those cross-checks together.
    cargo test -q --offline -p fsoi-cmp evictions_at_256_nodes_are_cross_checked
    # Likewise for the FSOI kernel: the sender-mask and slot-group
    # cross-checks (masks == full node x lane scan; every live group where
    # its `open` cell says, every transmission in one group; after every
    # step) only exist in debug builds. A thousand random shapes up to 256
    # nodes put four-word masks, the phase-array path and those
    # cross-checks together, against ScanFsoi, with the same next_event_at
    # before every tick (a confirmation in flight is no event). Then a
    # thousand scripts jump the clock with run() at 2-16, 64 and 256 nodes,
    # where the phase-array setup keeps two groups of one receiver live,
    # against tick().
    FSOI_CHECK_CASES=1000 cargo test -q --offline -p fsoi-net event_driven_equals_full_scan
    FSOI_CHECK_CASES=1000 cargo test -q --offline -p fsoi-net --test props fast_forward_equals_cycle_by_cycle
    # The two baseline networks against their slow references: ScanMesh,
    # the all-buffers full scan, against MeshNetwork with the active-set
    # cross-check (`check_active_sets`, debug-only) live, and the crossbar
    # engine's properties under both arbitration rows at 2-256 nodes,
    # among them backlogged_equals_full_scan: ScanChannel, every channel
    # tested every tick, against ChannelNetwork with the backlogged-set
    # cross-check (`check_backlogged`, debug-only) live.
    FSOI_CHECK_CASES=1000 cargo test -q --offline -p fsoi-mesh --test props event_driven_equals_full_scan
    FSOI_CHECK_CASES=1000 cargo test -q --offline -p fsoi-ring --test props
    # Every network's deliveries against the Figure 6/7 decomposition: on
    # all eight networks `build_network` makes, each delivery's queuing,
    # scheduling and resolution fit inside its latency (FSOI's network
    # time is exactly its wire time), and the CMP's one fold over them
    # sums exactly.
    FSOI_CHECK_CASES=1000 cargo test -q --offline --test network_invariants every_delivery_decomposes
    # And for the CMP kernel: the per-tick rebuild of the wake wheel from
    # the cores (`check_kernel`) is debug-only too. Three hundred random
    # cells — all seven networks, a handful at 256 nodes — hold `run()` to
    # the all-cores full-scan drive.
    FSOI_CHECK_CASES=300 cargo test -q --offline -p fsoi-cmp wake_driven_equals_full_scan
    # Both drives there share `step_core`, so neither sees where think
    # time is spent. The same three hundred kinds of cell hold `run()` to
    # the test-only mode that takes each think time as a visit of its own
    # (`check_kernel` asserting no think time is owed outside an access).
    FSOI_CHECK_CASES=300 cargo test -q --offline -p fsoi-cmp folded_think_equals_gap_visits
    # And for the L2 warm image: a debug build ends every warmed slice
    # with the LRU-order and warm-tier cross-checks (`check_victim`,
    # `check_warm`). Three hundred shapes hold the warm tier to the
    # per-line eager preload, message by message (reactions, errors, line
    # queries, statistics and LRU order, evictions forced), and three
    # hundred profiles at 1..=256 nodes hold the per-home run split to the
    # home-filtered line list, building every slice on the way.
    FSOI_CHECK_CASES=300 cargo test -q --offline -p fsoi-coherence lazy_warm_equals_eager_preload
    FSOI_CHECK_CASES=300 cargo test -q --offline -p fsoi-cmp region_runs_split_by_home_equals_filtered_lines
    # The directory's deferred side table: a thousand stall-heavy streams
    # on one small slice (deferred limit 1-4, random requests, acks,
    # writebacks and memory replies), with the LRU-list and side-table
    # cross-checks (`check_victim`, `check_deferred`) after every message.
    FSOI_CHECK_CASES=1000 cargo test -q --offline -p fsoi-coherence stalls_keep_the_list_and_the_side_table_consistent
    # The Table 2 handler arms as a whole: four L1s and four directory
    # slices under random reads, writes and evictions, every invariant
    # checked at quiescence. The rare arms (crossing writebacks,
    # reinterpreted upgrades, upgrade races) are what this fuzz reaches
    # and the 64 default cases seldom do; an edit inside a handler arm
    # answers to it. A thousand cases take under a second unoptimized.
    FSOI_CHECK_CASES=1000 cargo test -q --offline --test protocol_conformance
    # The per-operation path of a CMP cell: the kernel's calendar queue in
    # lockstep with the heap it replaced (times before its cursor, inside
    # its window, on the edge and far past; `pop_due` with a wandering
    # `now`), the flat shift-indexed cache array against an exact-LRU model
    # over random shapes with pinned victims, every suite profile's gap
    # draw bit-equal to the per-draw formula, and every profile's stream,
    # think time riding its access, equal to the generator whose gap was
    # a `Compute` step of its own.
    FSOI_CHECK_CASES=5000 cargo test -q --offline -p fsoi-sim calendar_queue_equals_event_queue
    FSOI_CHECK_CASES=2000 cargo test -q --offline -p fsoi-coherence cache_array_agrees_with_model
    cargo test -q --offline -p fsoi-cmp gap_stream_equals_per_draw_reference
    cargo test -q --offline -p fsoi-cmp think_stream_equals_gap_op_reference
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
