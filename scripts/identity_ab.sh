#!/usr/bin/env bash
# Byte-identity check of the working tree against a base revision.
#
# Extracts <base-rev> with `git archive` into a temporary directory (no
# worktree, nothing written inside the repository) and builds the
# figure binaries, flex-chaos and the `flex` CLI there and in the
# current tree. Each side then runs the deterministic figure binaries
# with FLEX_BENCH_FAST=1 (the seeded simulations plus the closed-form
# fig01, pricing_model and cost_savings tables), `flex place`, `flex
# drill` and `flex feasibility` at their defaults (BRR placement, no
# solver deadline), and a 200-scenario chaos campaign with and without
# --ab (the JSON report embeds each failure's recorder dump), and
# `flex-chaos replay` on every failure's `minimized` scenario from its
# own --ab report, so the scenario parser sits inside the check too.
# Every stdout, JSON report and chaos exit status is compared with
# `cmp`: 20 outputs plus two per --ab failure, the 11 figure stdouts,
# flex_{place,drill,feasibility}.out, chaos{,_ab}.{json,out,status} and
# replay_<i>.{out,status} (59 failures at the default seed, 138
# outputs in all). Needs `jq`.
#
# fig09, fig10, the two sweeps, baseline_comparison and
# ablation_forecast are left out: their placement solves stop at a
# wall-clock deadline, so their output varies from run to run.
# ablation_redundancy_designs places its traces through the same
# `flex_bench::study` loop as those six, and its solves close before
# the deadline, so its `cmp` is the byte-identity check of that loop.
#
# Prints one line per output and exits non-zero if any output differs
# or a figure binary or `flex` command fails.
#
# Usage: scripts/identity_ab.sh <base-rev>

set -euo pipefail

cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
    echo "usage: $0 <base-rev>" >&2
    exit 2
fi
base_rev=$1
figures=(fig01_oversubscription_vs_flex fig03_workload_mix fig06_trip_curves
    fig11_impact_scenarios fig12_online_decisions fig13_end_to_end
    sec3_feasibility sec6_production_latency ablation_redundancy_designs
    pricing_model cost_savings)
flex_commands=(place drill feasibility)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/src" "$tmp/base" "$tmp/new"
git archive "$base_rev" | tar -x -C "$tmp/src"

build() {
    echo "== building in $1 =="
    (cd "$1" && env -u CARGO_TARGET_DIR cargo build --release --offline --quiet \
        -p flex-bench --bins -p flex-chaos -p flex-core --bin flex)
}

# run_chaos <bin-dir> <out-stem> [flags...]: one campaign's report,
# stdout and exit status (1 when a plain campaign finds a violation;
# --ab reports its violations and exits 0).
run_chaos() {
    local bin=$1 stem=$2 status=0
    shift 2
    "$bin/flex-chaos" run --scenarios 200 "$@" --json "$stem.json" >"$stem.out" || status=$?
    echo "$status" >"$stem.status"
}

# run_side <checkout> <out-dir>: every output of one side.
run_side() {
    local bin=$1/target/release out=$2 name
    echo "== running in $1 =="
    for name in "${figures[@]}"; do
        FLEX_BENCH_FAST=1 "$bin/$name" >"$out/$name.out" || {
            echo "$name failed in $1" >&2
            exit 1
        }
    done
    for name in "${flex_commands[@]}"; do
        "$bin/flex" "$name" >"$out/flex_$name.out" || {
            echo "flex $name failed in $1" >&2
            exit 1
        }
    done
    run_chaos "$bin" "$out/chaos"
    run_chaos "$bin" "$out/chaos_ab" --ab
    replay_failures "$bin" "$out"
}

# replay_failures <bin-dir> <out-dir>: replays each failure's minimized
# scenario from the side's own --ab report; stdout and exit status.
replay_failures() {
    local bin=$1 out=$2 i=0 scenario status
    while IFS= read -r scenario; do
        echo "$scenario" >"$tmp/replay.json"
        status=0
        "$bin/flex-chaos" replay --file "$tmp/replay.json" >"$out/replay_$i.out" || status=$?
        echo "$status" >"$out/replay_$i.status"
        i=$((i + 1))
    done < <(jq -c '.failures[].minimized' "$out/chaos_ab.json")
}

build "$tmp/src"
build "$PWD"
run_side "$tmp/src" "$tmp/base"
run_side "$PWD" "$tmp/new"

differ=0
for f in "$tmp"/base/*; do
    name=$(basename "$f")
    if cmp -s "$f" "$tmp/new/$name"; then
        echo "identical  $name"
    else
        echo "DIFFERS    $name"
        differ=1
    fi
done
for f in "$tmp"/new/*; do
    name=$(basename "$f")
    if [ ! -e "$tmp/base/$name" ]; then
        echo "ONLY NEW   $name"
        differ=1
    fi
done
if [ "$differ" -ne 0 ]; then
    echo "identity_ab: outputs differ from $base_rev" >&2
    exit 1
fi
echo "identity_ab: every output identical to $base_rev"
