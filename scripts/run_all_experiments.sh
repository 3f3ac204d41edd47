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

for t in table1 table4 table_dynamic; do
  echo "== $t =="
  ./target/release/$t | tee "results/$t.txt"
done

echo "== fig10_case_study =="
./target/release/fig10_case_study | tee results/fig10.txt

# Tables II, III and V and the full-scale P100 capacity report (memstats
# extrapolation) from one sweep that runs every cell once. Writes
# results/{table2,table3,table5,table_mem}.{txt,json} itself.
echo "== sweep =="
./target/release/sweep

# Sharded scaling curve (1/2/4/8 workers on the @2x stand-ins, one
# balanced-arc partition each) + the uk-2005 full-scale fit forecast.
echo "== table_scale =="
./target/release/table_scale | tee "results/table_scale.txt"

# Fleet observability report (exchange ledger, per-shard rollups, per-round
# critical path across the sharded runs). Writes results/table_fleet.{json,txt}.
echo "== fleetreport =="
./target/release/fleetreport > /dev/null   # writes results/table_fleet.{json,txt} itself

echo "== criterion micro-benchmarks =="
cargo bench -p kcore-bench

echo "done — see results/ and EXPERIMENTS.md"
