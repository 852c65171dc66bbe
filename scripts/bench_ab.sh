#!/usr/bin/env bash
# Before/after benchmark of the working tree against a base revision.
#
# Extracts <base-rev> with `git archive` into a temporary directory (no
# worktree, nothing written inside the repository), builds flexbench
# there and in the current tree, then runs interleaved rounds of one
# workload, each `--seconds 10 --trace 0` with the round number as
# seed; odd rounds run the base first, even rounds the current tree.
# Prints run_s, ops_per_s and peak_rss_mb per run, then per metric the
# median of each side, the relative change, how many rounds the new
# tree beat the same round's base run (strictly, in the metric's better
# direction), and the interquartile range of the base runs (linear
# interpolation between order statistics). A claimed gain should win at
# least 9 of 10 rounds with a median gap larger than that IQR. With an
# output path, also writes the per-run rows and the per-metric medians,
# wins and base IQR there as JSON. Exits non-zero if any run fails or
# reports "correct": false. flexbench/Cargo.lock is restored on exit.
#
# Usage: scripts/bench_ab.sh <base-rev> <workload> [rounds] [out.json]
#        (rounds: 5)

set -euo pipefail

cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
    echo "usage: $0 <base-rev> <workload> [rounds] [out.json]" >&2
    exit 2
fi
base_rev=$1
workload=$2
rounds=${3:-5}
out=${4:-}
seconds=10
metrics=(run_s ops_per_s peak_rss_mb)
declare -A better=([run_s]=lower [ops_per_s]=higher [peak_rss_mb]=lower)

base_dir=$(mktemp -d)
# Every flexbench build rewrites flexbench/Cargo.lock while the lock
# lags the workspace's dependency graph: keep a copy and put it back on
# exit, so the run leaves the tree as it found it.
lock_copy=$(mktemp)
cp flexbench/Cargo.lock "$lock_copy"
trap 'cmp -s "$lock_copy" flexbench/Cargo.lock || cp "$lock_copy" flexbench/Cargo.lock
    rm -rf "$base_dir" "$lock_copy"' EXIT
git archive "$base_rev" | tar -x -C "$base_dir"

build() {
    echo "== building flexbench in $1 =="
    (cd "$1" && env -u CARGO_TARGET_DIR cargo build --release --offline --quiet \
        --manifest-path flexbench/Cargo.toml)
}
build "$base_dir"
build "$PWD"

# metric <json-line> <name>: the value of one metric from the summary line.
metric() {
    sed -E "s/.*\"$2\": \{\"value\": ([^,}]+).*/\1/" <<<"$1"
}

median() {
    sort -g | awk '{ v[NR] = $1 } END {
        if (NR % 2) print v[(NR + 1) / 2]; else print (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}

# iqr: Q3 - Q1 of the values on stdin, each quartile interpolated
# linearly between the order statistics at rank 1 + p * (n - 1).
iqr() {
    sort -g | awk '
        function q(p,   h, lo) { h = 1 + p * (NR - 1); lo = int(h)
            return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
        { v[NR] = $1 } END { if (NR) print q(0.75) - q(0.25); else print 0 }'
}

declare -A values
json_runs=()
failed=0
for round in $(seq 1 "$rounds"); do
    order="base new"
    [ $((round % 2)) -eq 0 ] && order="new base"
    for side in $order; do
        dir=$PWD
        [ "$side" = base ] && dir=$base_dir
        if ! line=$(cd "$dir" && ./flexbench/target/release/flexbench --workload "$workload" \
            --seed "$round" --seconds "$seconds" --trace 0 | tail -n 1); then
            echo "round $round $side: flexbench failed" >&2
            failed=1
            continue
        fi
        if ! grep -q '"correct": true' <<<"$line"; then
            echo "round $round $side: \"correct\" is not true" >&2
            failed=1
        fi
        row="round $round $side"
        json_row="{\"round\": $round, \"side\": \"$side\""
        for m in "${metrics[@]}"; do
            v=$(metric "$line" "$m")
            values[$side.$m]+="$v"$'\n'
            values[$side.$m.$round]=$v
            row+="  $m=$v"
            json_row+=", \"$m\": $v"
        done
        echo "$row"
        json_runs+=("$json_row}")
    done
done

echo "== medians over $rounds rounds ($workload, ${seconds}s runs) =="
json_medians=()
for m in "${metrics[@]}"; do
    b=$(printf '%s' "${values[base.$m]:-}" | median)
    n=$(printf '%s' "${values[new.$m]:-}" | median)
    q=$(printf '%s' "${values[base.$m]:-}" | iqr)
    wins=0
    paired=0
    for round in $(seq 1 "$rounds"); do
        bv=${values[base.$m.$round]:-}
        nv=${values[new.$m.$round]:-}
        [ -n "$bv" ] && [ -n "$nv" ] || continue
        paired=$((paired + 1))
        if awk -v b="$bv" -v n="$nv" -v dir="${better[$m]}" \
            'BEGIN { exit !(dir == "lower" ? n < b : n > b) }'; then
            wins=$((wins + 1))
        fi
    done
    awk -v m="$m" -v b="$b" -v n="$n" -v q="$q" -v w="$wins/$paired" 'BEGIN {
        change = (b == 0 ? 0 : (n - b) / b * 100)
        printf "%-12s base %-12g new %-12g change %+.1f%%  new won %s  base IQR %g\n",
            m, b, n, change, w, q }'
    json_medians+=("\"$m\": {\"base\": $b, \"new\": $n, \"new_wins\": $wins, \"base_iqr\": $q}")
done

if [ -n "$out" ]; then
    join() { local IFS=$'\n'; sed -e '$!s/$/,/' <<<"$*"; }
    {
        echo "{"
        echo "  \"workload\": \"$workload\","
        echo "  \"base\": \"$(git rev-parse "$base_rev")\","
        echo "  \"new\": \"working tree at $(git rev-parse HEAD)\","
        echo "  \"rounds\": $rounds,"
        echo "  \"seconds\": $seconds,"
        echo "  \"nproc\": $(nproc),"
        echo "  \"runs\": ["
        join "${json_runs[@]}" | sed 's/^/    /'
        echo "  ],"
        echo "  \"medians\": {"
        join "${json_medians[@]}" | sed 's/^/    /'
        echo "  }"
        echo "}"
    } >"$out"
    echo "wrote $out"
fi

exit "$failed"
