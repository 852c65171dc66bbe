#!/usr/bin/env bash
# Tier-2 chaos smoke gate: a fixed-seed 60-scenario fault campaign
# against the Flex-Online closed loop (see DESIGN.md "Chaos harness").
# Three checks, budgeted at 30 s wall clock after the build:
#
#   1. the hardened campaign is clean AND its JSON report is
#      byte-identical across two runs (determinism);
#   2. the same campaign with watchdog+retry disabled (--ab) finds at
#      least one trip-curve violation that the hardened re-judge
#      survives (the hardening is load-bearing);
#   3. a failing scenario replays from its JSON text alone,
#      reproduces the verdict, and its recorder dump re-derives the
#      recorded controller commands through fresh controllers, both as
#      recorded and hardened (`--harden`, whose recording holds the
#      watchdog ticks the unhardened one lacks).
#
# Usage: scripts/chaos_smoke.sh

set -euo pipefail

cd "$(dirname "$0")/.."

SEED=802821        # 0xC4A05, the campaign default
SCENARIOS=60

cargo build --offline --release -q -p flex-chaos
BIN=./target/release/flex-chaos

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

start=$(date +%s%N)

echo "== chaos smoke 1/3: hardened campaign, deterministic and clean =="
"$BIN" run --seed "$SEED" --scenarios "$SCENARIOS" --json "$TMP/a.json"
"$BIN" run --seed "$SEED" --scenarios "$SCENARIOS" --json "$TMP/b.json" \
    >/dev/null
cmp "$TMP/a.json" "$TMP/b.json" || {
    echo "chaos smoke: FAIL — fixed-seed reports differ between runs" >&2
    exit 1
}
grep -q '"failures":\[\]' "$TMP/a.json" || {
    echo "chaos smoke: FAIL — hardened campaign has failures" >&2
    exit 1
}

echo "== chaos smoke 2/3: A/B — hardening must be load-bearing =="
"$BIN" run --seed "$SEED" --scenarios "$SCENARIOS" --ab \
    --json "$TMP/ab.json" | tee "$TMP/ab.out"
grep -q 'unexcused-trip' "$TMP/ab.json" || {
    echo "chaos smoke: FAIL — unhardened campaign found no trip" >&2
    exit 1
}
survived=$(sed -n 's/^  A\/B: \([0-9]*\) of .*/\1/p' "$TMP/ab.out")
if [ -z "$survived" ] || [ "$survived" -lt 1 ]; then
    echo "chaos smoke: FAIL — hardening survived no unhardened failure" >&2
    exit 1
fi

echo "== chaos smoke 3/3: replay a failure from its JSON alone =="
if command -v jq >/dev/null; then
    jq -c '.failures[0].minimized // .failures[0].scenario' \
        "$TMP/ab.json" > "$TMP/repro.json"
    # The reproducer is unhardened, so replay must report the violation
    # (non-zero exit) — and a second replay must print the same verdict.
    "$BIN" replay --file "$TMP/repro.json" --json "$TMP/r1.json" \
        | tee "$TMP/r1.out" \
        && { echo "chaos smoke: FAIL — reproducer replayed clean" >&2; exit 1; }
    "$BIN" replay --file "$TMP/repro.json" --json "$TMP/r2.json" || true
    cmp "$TMP/r1.json" "$TMP/r2.json" || {
        echo "chaos smoke: FAIL — replay verdicts differ" >&2
        exit 1
    }
    grep -q 'unexcused-trip' "$TMP/r1.json" || {
        echo "chaos smoke: FAIL — replay lost the trip violation" >&2
        exit 1
    }
    grep -q '^decision replay: identical' "$TMP/r1.out" || {
        echo "chaos smoke: FAIL — decisions replayed from the dump diverged" >&2
        exit 1
    }
    # Hardened, the verdict may pass or fail (exit status ignored); the
    # decisions must still replay identically.
    "$BIN" replay --file "$TMP/repro.json" --harden | tee "$TMP/h.out" || true
    grep -q '^decision replay: identical' "$TMP/h.out" || {
        echo "chaos smoke: FAIL — hardened decisions replayed from the dump diverged" >&2
        exit 1
    }
else
    echo "(jq not found — replay check covered by crates/chaos/tests)"
fi

elapsed_ms=$(( ($(date +%s%N) - start) / 1000000 ))
echo "chaos smoke: OK (${elapsed_ms} ms, budget 30000 ms)"
if [ "$elapsed_ms" -ge 30000 ]; then
    echo "chaos smoke: FAIL — exceeded the 30 s budget" >&2
    exit 1
fi
