#!/usr/bin/env bash
# Tier-2 performance smoke gate: the flex-lint 5 s budget, the
# obs-overhead budgets of an instrumented chaos campaign and of a
# restart-storm campaign, then the flexbench self-test, which fails on
# any output-digest drift. Timings of the layers themselves come from
# flexbench (`--trace 1`), not from this script.
#
# Usage: scripts/perf_smoke.sh

set -euo pipefail

cd "$(dirname "$0")/.."

# flex-lint must stay interactive-fast: a full-workspace pass (build
# excluded) is budgeted at 5 s wall clock.
echo "== perf smoke: flex-lint =="
cargo build --offline --release -q -p flex-lint
lint_start=$(date +%s%N)
./target/release/flex-lint >/dev/null
lint_elapsed_ms=$(( ($(date +%s%N) - lint_start) / 1000000 ))
echo "flex-lint full-workspace pass: ${lint_elapsed_ms} ms (budget 5000 ms)"
if [ "$lint_elapsed_ms" -ge 5000 ]; then
    echo "perf smoke: FAIL — flex-lint exceeded its 5 s budget" >&2
    exit 1
fi

# The flight recorder must be cheap enough to leave on everywhere: a
# fully instrumented campaign is budgeted at 115% of the uninstrumented
# wall clock. The gate measures the recorder's cost per scenario, so
# each campaign runs pinned to one CPU: the campaign then runs one
# worker (it sizes itself by `available_parallelism`, which honours the
# affinity mask), and co-tenants on the other cores cannot make one
# side's workers wait. Each side runs at least a second (3,000
# scenarios, about 2 s on one core): shorter runs measured timer and
# scheduler noise, not recorder overhead.
echo "== perf smoke: obs campaign overhead =="
cargo build --offline --release -q -p flex-chaos
CHAOS=./target/release/flex-chaos
# The first CPU this script may run on.
CPU=$(taskset -pc $$ | sed -E 's/.*: *//; s/[,-].*//')
# run_us <flex-chaos run args...>: one campaign's wall clock in µs; a
# failing campaign fails the gate.
run_us() {
    local start
    start=$(date +%s%N)
    taskset -c "$CPU" "$CHAOS" run "$@" >/dev/null || return
    echo $(( ($(date +%s%N) - start) / 1000 ))
}
# campaign_us <flex-chaos run args...>: sets off_us and on_us to the
# per-side minimum over five interleaved obs-off/obs-on pairs.
# Interleaving spreads co-tenant load over both sides alike; the
# minimum damps scheduler noise.
campaign_us() {
    local t
    off_us=0 on_us=0
    for _ in 1 2 3 4 5; do
        t=$(run_us "$@" --no-obs)
        if [ "$off_us" -eq 0 ] || [ "$t" -lt "$off_us" ]; then off_us=$t; fi
        t=$(run_us "$@")
        if [ "$on_us" -eq 0 ] || [ "$t" -lt "$on_us" ]; then on_us=$t; fi
    done
}
# gate <label> <failure message>: enforces the 115% budget on the last
# campaign_us pair.
gate() {
    echo "$1: obs-off ${off_us} us, obs-on ${on_us} us," \
        "ratio $(( on_us * 100 / off_us ))% (budget 115%)"
    if [ "$(( on_us * 100 ))" -gt "$(( off_us * 115 ))" ]; then
        echo "perf smoke: FAIL — $2 exceeded 115% budget" >&2
        exit 1
    fi
}
campaign_us --scenarios 3000
gate campaign "instrumented campaign"

# Restart storms are the heaviest scenarios (three controller crash/
# recover cycles each, so three snapshot + catch-up replays per run).
# The same 115% instrumented-vs-bare budget must hold for them alone —
# recovery bookkeeping may not make the recorder disproportionately
# expensive. 16,000 scenarios round-robin to 2,000 restart storms per
# run (about 2 s on one core), long enough for the ratio to measure
# overhead rather than timer and scheduler noise.
echo "== perf smoke: restart-storm campaign overhead =="
campaign_us --scenarios 16000 --family restart_storm --no-minimize
gate "restart storm" "instrumented restart-storm campaign"

# The benchmark's self-test re-checks its output digests against
# flexbench/reference.txt: a drift in a simulated statistic or a
# placement node count fails here, not only in the benchmark runs.
echo "== perf smoke: flexbench self-test =="
# Building flexbench rewrites flexbench/Cargo.lock while the lock lags
# the workspace's dependency graph: put the committed file back after.
lock_copy=$(mktemp)
cp flexbench/Cargo.lock "$lock_copy"
trap 'cmp -s "$lock_copy" flexbench/Cargo.lock || cp "$lock_copy" flexbench/Cargo.lock
    rm -f "$lock_copy"' EXIT
cargo test --release --offline --manifest-path flexbench/Cargo.toml

echo "perf smoke: OK"
