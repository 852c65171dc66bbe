#!/usr/bin/env bash
# The one-command gate: release build of every target (libs, bins,
# tests and examples), flex-lint (zero error-severity findings
# allowed), then the full test suite, which runs every correctness
# check, the `flex-chaos` and `flex-obs` end-to-end gates included
# (crates/chaos/tests/cli.rs, crates/obs/tests/cli.rs). CI and
# pre-merge both run exactly this; see DESIGN.md "The lint gate",
# "Chaos harness", "Observability", and "Recovery and fencing".
#
# Usage: scripts/check.sh [extra cargo test args...]

set -euo pipefail

cd "$(dirname "$0")/.."

echo "== check 1/3: build =="
cargo build --offline --release --workspace --all-targets

echo "== check 2/3: flex-lint =="
./target/release/flex-lint

echo "== check 3/3: tests =="
cargo test --offline --release -q "$@"

echo "check: OK"
