#!/usr/bin/env bash
# Bench-regression gate: measures the smoke datasets and diffs every cell
# against the latest recorded BENCH_<n>.json snapshot. The rule is exact: a
# cell fails on any difference, faster or slower, in its status, the bits of
# its sim_ms, its launch count or its counters fingerprint (see
# crates/bench/src/regress.rs). Every cell is deterministic and independent
# of the rayon width, so a difference is a real move; a deliberate one
# needs a new snapshot, with its reason in CHANGES.md. Other snapshot
# fields are never compared.
#
# Skips cleanly when no snapshot has been recorded yet — record a baseline
# first with:
#
#   KCORE_SMOKE=1 scripts/check_regression.sh --record
#
# Baselines: BENCH_0 (pre-fast-path), BENCH_1 (warp-vectorized two-launch
# fast path), BENCH_2 (fused single-entry round engine — identical
# simulated cells to BENCH_1), BENCH_3, BENCH_4 (adds the
# "Sharded p=4" cells) and BENCH_5 (the sharded cells charged from the
# device clocks; every other cell identical to BENCH_4). The differ always
# diffs against the highest-numbered snapshot.
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
