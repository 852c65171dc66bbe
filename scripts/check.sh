#!/usr/bin/env bash
# The one-command gate: release build of every target (libs, bins,
# tests, examples and the criterion benches), flex-lint (zero
# error-severity findings allowed), the full test suite, the chaos smoke
# campaign (scripts/chaos_smoke.sh), the observability forensics loop
# (scripts/obs_smoke.sh), then the recovery/fencing smoke
# (scripts/recovery_smoke.sh). CI and pre-merge both run exactly this;
# see DESIGN.md "The lint gate", "Chaos harness", "Observability", and
# "Recovery and fencing".
#
# Usage: scripts/check.sh [extra cargo test args...]

set -euo pipefail

cd "$(dirname "$0")/.."

echo "== check 1/6: build =="
cargo build --offline --release --workspace --all-targets

echo "== check 2/6: flex-lint =="
./target/release/flex-lint

echo "== check 3/6: tests =="
cargo test --offline --release -q "$@"

echo "== check 4/6: chaos smoke =="
scripts/chaos_smoke.sh

echo "== check 5/6: obs smoke =="
scripts/obs_smoke.sh

echo "== check 6/6: recovery smoke =="
scripts/recovery_smoke.sh

echo "check: OK"
