#!/usr/bin/env bash
# Regenerates every table and figure of the paper's evaluation.
# Usage: scripts/run_all_experiments.sh [--smoke]
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--smoke" ]]; then
  # The miniature tables go to a fresh directory, never over the committed
  # full-size results/.
  export KCORE_SMOKE=1
  KCORE_RESULTS_DIR="$(mktemp -d)"
  echo "== smoke mode: miniature dataset subset, results in $KCORE_RESULTS_DIR =="
else
  mkdir -p results
  KCORE_RESULTS_DIR="$PWD/results"
fi
export KCORE_RESULTS_DIR

# Dataset cache: every table binary needs the same stand-in graphs; with the
# cache enabled the first binary generates them and the rest load binary
# CSRs (bit-identical — see DESIGN.md "Ingestion pipeline & dataset cache").
export KCORE_CACHE_DIR="${KCORE_CACHE_DIR:-$PWD/.kcore-cache}"

cargo build --release -p kcore-bench

# Each table binary prints its tables and writes them, text and JSON, into
# $KCORE_RESULTS_DIR (results/ unless --smoke): table1, table4,
# table_dynamic and extensions as <name>.{txt,json}; fig10_case_study as
# fig10.{txt,json}; sweep, from one run per cell, Tables II, III and V and
# the full-scale P100 capacity report as
# {table2,table3,table5,table_mem}.{txt,json}; and table_scale, from one
# run per (dataset, device count) cell, the scaling curve (1/2/4/8 workers
# on the @2x stand-ins) with the uk-2005 fit forecast and the fleet table
# (every stand-in at 2 and 4 workers) as {table_scale,table_fleet}.{txt,json}.
# table4 is wall-clock and does not regenerate: its JSON stays untracked.
for t in table1 table4 table_dynamic fig10_case_study sweep table_scale extensions; do
  echo "== $t =="
  ./target/release/$t
done

echo "== criterion micro-benchmarks =="
cargo bench -p kcore-bench

echo "done — see $KCORE_RESULTS_DIR and EXPERIMENTS.md"
