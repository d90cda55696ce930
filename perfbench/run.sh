#!/usr/bin/env bash
# Builds the benchmark and the release `comfortd` from source, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload oneshot --seed 6 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build), journals to
# .bench_work. The last line of standard output is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
cargo build --release --offline --quiet -p comfort-service --bin comfortd >&2
commit="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
# Not `exec`: the benchmark reads the resource usage of its own children
# (fleet workers), which must not include this script's cargo and git.
"$CARGO_TARGET_DIR/release/perfbench" \
    --comfortd "$CARGO_TARGET_DIR/release/comfortd" \
    --work-dir .bench_work \
    --rustc "$(rustc --version)" \
    --commit "$commit" \
    "$@"
