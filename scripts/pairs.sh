#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload: the evidence
# a perf claim needs (ROADMAP.md "House rules for a perf claim").
#
#   scripts/pairs.sh <parent-rev> <workload> [seed] [pairs]
#
# The parent side is <parent-rev>'s committed tree, exported with
# `git archive` to ${TMPDIR:-/tmp}/fsoi-pairs/<commit>/ and kept there for
# the next run. The change side is this working tree. Each side builds and
# runs through its own checkout's benchmark/run.sh into its own
# benchmark/target/, so each side builds with its own .cargo/config.toml.
# The export lives outside this checkout on purpose: cargo also reads the
# .cargo/config.toml of every directory above the one it starts in, so a
# parent without that file, exported under this checkout, would build with
# this tree's release profile instead of its own.
#
# Runs `pairs` (default 10) pairs at --seconds 20 and `seed` (default
# 2010), parent first in odd pairs and change first in even ones. Prints
# each pair's host_s, each side's median and quartiles of host_s, setup_s
# and peak_rss_mb, how many pairs the change won on each (lower wins), and
# whether every run's sim_digest agreed. Exits 1 on a digest mismatch, a
# failed operation or a failed correctness check; 2 on a usage error.
set -euo pipefail

usage() {
    echo "usage: scripts/pairs.sh <parent-rev> <workload> [seed] [pairs]" >&2
    exit 2
}
[ $# -ge 2 ] && [ $# -le 4 ] || usage
rev=$1
workload=$2
seed=${3:-2010}
pairs=${4:-10}
case "$seed$pairs" in *[!0-9]*) usage ;; esac
[ "$pairs" -ge 1 ] || usage
seconds=20

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
commit=$(git -C "$root" rev-parse --verify "$rev^{commit}")
tmp=$(cd "${TMPDIR:-/tmp}" && pwd)
case "$tmp/" in
    "$root"/*)
        echo "pairs.sh: $tmp is inside the checkout; set TMPDIR to a directory outside it" >&2
        exit 2
        ;;
esac
parent=$tmp/fsoi-pairs/$commit
if [ ! -f "$parent/benchmark/run.sh" ]; then
    rm -rf "$parent.partial"
    mkdir -p "$parent.partial"
    git -C "$root" archive "$commit" | tar -x -C "$parent.partial"
    mv "$parent.partial" "$parent"
fi

# Each side's own target dir: run.sh falls back to its benchmark/target.
# A zero-second run builds each side and warms it up.
unset CARGO_TARGET_DIR
for dir in "$parent" "$root"; do
    echo "pairs: building $dir" >&2
    bash "$dir/benchmark/run.sh" --workload "$workload" --seed "$seed" \
        --seconds 0 --trace 0 >/dev/null
done

# One run: "<host_s> <setup_s> <peak_rss_mb> <sim_digest> <failed> <correct>".
run() {
    out=$(bash "$1/benchmark/run.sh" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 | tail -n 2) || {
        echo "pairs: the benchmark in $1 exited with an error" >&2
        exit 1
    }
    detail=${out%%$'\n'*}
    result=${out#*$'\n'}
    metric() {
        printf '%s\n' "$result" | sed -n "s/.*\"$1\": {\"value\": \([^,}]*\).*/\1/p"
    }
    digest=$(printf '%s\n' "$detail" | sed -n 's/.*"sim_digest": "\([^"]*\)".*/\1/p')
    failed=$(printf '%s\n' "$result" | sed -n 's/.*"failed": \([0-9]*\).*/\1/p')
    correct=$(printf '%s\n' "$result" | sed -n 's/^{"correct": \([a-z]*\).*/\1/p')
    echo "$(metric host_s) $(metric setup_s) $(metric peak_rss_mb) ${digest:-none} ${failed:-none} ${correct:-none}"
}

rows=$(mktemp)
trap 'rm -f "$rows"' EXIT
echo "pairs: $workload, seed $seed, $pairs pairs at --seconds $seconds; parent ${commit:0:12}"
printf '%-5s %-6s %10s %10s\n' pair first parent change
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) = 1 ]; then
        first=parent
        p=$(run "$parent")
        c=$(run "$root")
    else
        first=change
        c=$(run "$root")
        p=$(run "$parent")
    fi
    echo "$i $first $p $c" >>"$rows"
    printf '%-5s %-6s %10.4f %10.4f\n' "$i" "$first" "${p%% *}" "${c%% *}"
done

# Columns of $rows: pair first, then host setup rss digest failed correct
# for the parent (3-8) and the change (9-14).
awk -v pairs="$pairs" '
function quart(a, n, p,    pos, lo) {
    pos = (n - 1) * p
    lo = int(pos)
    return lo + 1 < n ? a[lo] + (pos - lo) * (a[lo + 1] - a[lo]) : a[lo]
}
function sorted(col, a,    i, j, t) {
    for (i = 0; i < pairs; i++) a[i] = v[i, col]
    for (i = 1; i < pairs; i++)
        for (j = i; j > 0 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
}
{
    for (k = 3; k <= 14; k++) v[NR - 1, k] = $k
    if ($6 != $12 || $6 != v[0, 6]) mismatch = 1
    if ($7 != 0 || $13 != 0 || $8 != "true" || $14 != "true") bad = 1
}
END {
    split("host_s setup_s peak_rss_mb", name, " ")
    printf "%-12s %10s %10s %10s | %10s %10s %10s | %5s %8s\n", \
        "metric", "p.q1", "p.median", "p.q3", "c.q1", "c.median", "c.q3", "wins", "change"
    for (m = 1; m <= 3; m++) {
        sorted(2 + m, pa)
        sorted(8 + m, ca)
        wins = 0
        for (i = 0; i < pairs; i++) if (v[i, 8 + m] < v[i, 2 + m]) wins++
        pm = quart(pa, pairs, 0.5)
        cm = quart(ca, pairs, 0.5)
        printf "%-12s %10.4f %10.4f %10.4f | %10.4f %10.4f %10.4f | %2d/%-2d %+7.1f%%\n", \
            name[m], quart(pa, pairs, 0.25), pm, quart(pa, pairs, 0.75), \
            quart(ca, pairs, 0.25), cm, quart(ca, pairs, 0.75), wins, pairs, \
            (pm > 0 ? 100 * (cm - pm) / pm : 0)
        if (m == 1) {
            gap = pm - cm
            iqr = quart(pa, pairs, 0.75) - quart(pa, pairs, 0.25)
            host = sprintf("host_s: median gap %.4f vs parent IQR %.4f (%s)", \
                gap, iqr, (gap > iqr ? "gap > IQR" : "gap <= IQR"))
        }
    }
    print host
    if (mismatch) print "sim_digest: MISMATCH"
    else printf "sim_digest: every run %s\n", v[0, 6]
    if (bad) print "operations: a run failed an operation or a correctness check"
    else print "operations: none failed, every run correct"
    exit mismatch || bad
}' "$rows"
