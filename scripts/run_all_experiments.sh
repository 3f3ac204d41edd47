#!/usr/bin/env bash
# Regenerates every table and figure of the paper's evaluation.
# Usage: scripts/run_all_experiments.sh [--smoke]
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--smoke" ]]; then
  export KCORE_SMOKE=1
  echo "== smoke mode: miniature dataset subset =="
fi

mkdir -p results
export KCORE_RESULTS_DIR="$PWD/results"

# Dataset cache: every table binary needs the same stand-in graphs; with the
# cache enabled the first binary generates them and the rest load binary
# CSRs (bit-identical — see DESIGN.md "Ingestion pipeline & dataset cache").
export KCORE_CACHE_DIR="${KCORE_CACHE_DIR:-$PWD/.kcore-cache}"

cargo build --release -p kcore-bench

# Each table binary prints its tables and writes them, text and JSON, into
# results/: table1, table4, table_dynamic and extensions as
# <name>.{txt,json}; fig10_case_study as fig10.{txt,json}; sweep, from one
# run per cell, Tables II, III and V and the full-scale P100 capacity report
# as {table2,table3,table5,table_mem}.{txt,json}; and table_scale, from one
# run per (dataset, device count) cell, the scaling curve (1/2/4/8 workers
# on the @2x stand-ins) with the uk-2005 fit forecast and the fleet table
# (every stand-in at 2 and 4 workers) as {table_scale,table_fleet}.{txt,json}.
for t in table1 table4 table_dynamic fig10_case_study sweep table_scale extensions; do
  echo "== $t =="
  ./target/release/$t
done

echo "== criterion micro-benchmarks =="
cargo bench -p kcore-bench

echo "done — see results/ and EXPERIMENTS.md"
