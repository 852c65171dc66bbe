#!/usr/bin/env bash
# Tier-2 performance smoke gate: runs the MILP-solver, placement,
# obs-overhead and sim-kernel criterion benches with short windows. The gate fails if any bench
# panics (solver bugs under the bench workloads surface here before they
# reach the figure harnesses); timings are printed for eyeballing, not
# asserted. It ends with the flexbench self-test, which fails on any
# output-digest drift.
#
# Usage: scripts/perf_smoke.sh [extra cargo bench args...]

set -euo pipefail

cd "$(dirname "$0")/.."

BENCH_ARGS=(--warm-up-time 0.5 --measurement-time 1)

for bench in milp_solver placement_policies obs_overhead sim_kernel; do
    echo "== perf smoke: $bench =="
    cargo bench --offline -p flex-bench --bench "$bench" -- \
        "${BENCH_ARGS[@]}" "$@"
done

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
# fully instrumented 60-scenario campaign is budgeted at 115% of the
# uninstrumented wall clock. Best-of-2 per side damps scheduler noise.
echo "== perf smoke: obs campaign overhead =="
cargo build --offline --release -q -p flex-chaos
CHAOS=./target/release/flex-chaos
campaign_ms() {
    local best=0 t start
    for _ in 1 2; do
        start=$(date +%s%N)
        "$CHAOS" run "$@" >/dev/null
        t=$(( ($(date +%s%N) - start) / 1000000 ))
        if [ "$best" -eq 0 ] || [ "$t" -lt "$best" ]; then best=$t; fi
    done
    echo "$best"
}
off_ms=$(campaign_ms --scenarios 60 --no-obs)
on_ms=$(campaign_ms --scenarios 60)
echo "campaign: obs-off ${off_ms} ms, obs-on ${on_ms} ms (budget 115%)"
if [ "$(( on_ms * 100 ))" -gt "$(( off_ms * 115 ))" ]; then
    echo "perf smoke: FAIL — instrumented campaign exceeded 115% budget" >&2
    exit 1
fi

# Restart storms are the heaviest scenarios (three controller crash/
# recover cycles each, so three snapshot + catch-up replays per run).
# The same 115% instrumented-vs-bare budget must hold for them alone —
# recovery bookkeeping may not make the recorder disproportionately
# expensive. 160 scenarios round-robin to 20 restart storms per side.
echo "== perf smoke: restart-storm campaign overhead =="
storm_off_ms=$(campaign_ms --scenarios 160 --family restart_storm --no-minimize --no-obs)
storm_on_ms=$(campaign_ms --scenarios 160 --family restart_storm --no-minimize)
echo "restart storm: obs-off ${storm_off_ms} ms, obs-on ${storm_on_ms} ms (budget 115%)"
if [ "$(( storm_on_ms * 100 ))" -gt "$(( storm_off_ms * 115 ))" ]; then
    echo "perf smoke: FAIL — instrumented restart-storm campaign exceeded 115% budget" >&2
    exit 1
fi

# The benchmark's self-test re-checks its output digests against
# flexbench/reference.txt: a drift in a simulated statistic or a
# placement node count fails here, not only in the benchmark runs.
echo "== perf smoke: flexbench self-test =="
cargo test --release --offline --manifest-path flexbench/Cargo.toml

echo "perf smoke: OK"
