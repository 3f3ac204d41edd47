#!/usr/bin/env bash
# Bench-regression gate: measures the smoke datasets and diffs simulated
# times against the latest recorded BENCH_<n>.json snapshot. Fails when any
# implementation regressed by more than 5% (see crates/bench/src/regress.rs).
#
# Snapshots also carry host wall-clock fields (host_ms/host_attributed_ms);
# the differ prints their deltas as "[host ... informational]" lines but
# NEVER gates on them — wall time is machine-dependent, simulated time is
# not. Snapshots recorded before these fields existed diff cleanly.
#
# Skips cleanly when no snapshot has been recorded yet — record a baseline
# first with:
#
#   KCORE_SMOKE=1 scripts/check_regression.sh --record
#
# Baselines: BENCH_0 (pre-fast-path), BENCH_1 (warp-vectorized two-launch
# fast path), BENCH_2 (fused single-entry round engine — identical
# simulated cells to BENCH_1, lower host_ms), and later snapshots. The
# differ always diffs against the highest-numbered snapshot.
#
# Usage: scripts/check_regression.sh [--record]
set -euo pipefail
cd "$(dirname "$0")/.."

RESULTS_DIR="${KCORE_RESULTS_DIR:-$PWD/results}"
export KCORE_RESULTS_DIR="$RESULTS_DIR"
# gate on the fast smoke registry unless the caller selected datasets
export KCORE_SMOKE="${KCORE_SMOKE:-1}"

if [[ "${1:-}" == "--record" ]]; then
  exec cargo run --release -q -p kcore-bench --bin record_bench
fi

if ! compgen -G "$RESULTS_DIR/BENCH_*.json" > /dev/null; then
  echo "== check_regression: no BENCH_*.json under $RESULTS_DIR — skipping (record a baseline with: scripts/check_regression.sh --record) =="
  exit 0
fi

echo "== check_regression: diffing against latest snapshot in $RESULTS_DIR =="
cargo run --release -q -p kcore-bench --bin record_bench -- --check
