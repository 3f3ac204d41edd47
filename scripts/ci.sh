#!/usr/bin/env bash
# Tier-1 CI gate (see ROADMAP.md): formatting, lints, full test suite.
# Usage: scripts/ci.sh
#
# Every cargo stage that resolves dependencies runs with --locked: the lock
# files (Cargo.lock, kbench/Cargo.lock) are checked, never rewritten. A
# library manifest edit would otherwise silently rewrite kbench/Cargo.lock
# on the benchmark's next `cargo run`.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy -D warnings =="
cargo clippy --locked --workspace --all-targets -- -D warnings

echo "== cargo test =="
# Includes the goldens under tests/golden/, among them golden_bench: every
# simulated smoke-bench cell (status, sim_ms bits, launches, counters
# fingerprint) must match tests/golden/bench_smoke.json exactly.
cargo test --locked -q --workspace

echo "== rustdoc -D warnings =="
# Intra-doc links that name deleted or private items fail here; build,
# clippy and tests all accept them.
RUSTDOCFLAGS="-D warnings" cargo doc --locked --workspace --no-deps -q

echo "== kbench: fmt, clippy, tests =="
# kbench, the repository benchmark (BENCHMARK.json), is a package with its
# own workspace, so the stages above do not reach it. Its smoke test runs
# all four workloads at --check size and asserts, among other things, that
# the simulated metrics are bit-identical across runs and at 1 and 2
# threads. About 25 s.
cargo fmt --manifest-path kbench/Cargo.toml --check
cargo clippy --locked --manifest-path kbench/Cargo.toml --all-targets -- -D warnings
cargo test --locked -q --manifest-path kbench/Cargo.toml

echo "== simulator and peel wall-clock smoke budget =="
# The simulator and peel suites re-run (already compiled) under a wall-clock
# ceiling: a blow-up here means a host-side perf regression that the
# simulated-time goldens cannot see — the stepped engine allocating per
# wave instead of reading its context's wave-order table, a bulk-charged
# helper in gpusim falling back to per-lane charging, or the peel's fast
# path in kcore-gpu (the k-shell hit pass, the scan kernel's cached sweep
# charges, the one-pass neighbor walk charged once per vertex) doing per-
# lane work again. Already compiled, the two suites take a few seconds on
# a 2-core x86-64 box; 120 s absorbs slow-VM phases while still catching
# any order-of-magnitude host regression.
SMOKE_BUDGET_S=120
smoke_start=$(date +%s)
cargo test --locked -q -p kcore-gpusim -p kcore-gpu
smoke_elapsed=$(( $(date +%s) - smoke_start ))
echo "kcore-gpusim + kcore-gpu tests took ${smoke_elapsed}s (budget ${SMOKE_BUDGET_S}s)"
if (( smoke_elapsed > SMOKE_BUDGET_S )); then
  echo "ERROR: kcore-gpusim + kcore-gpu test suites exceeded the ${SMOKE_BUDGET_S}s wall-clock budget" >&2
  exit 1
fi

# host_gate WORKLOAD CEILING_MS: runs the benchmark's WORKLOAD in release,
# at seed 1 for at least 5 s, and fails if its host_ms_p50 exceeds
# CEILING_MS. host_ms_p50 is wall time rescaled by kbench's reference probe
# to nominal machine speed, which absorbs most of a shared box's slow
# phases.
host_gate() {
  local workload=$1 ceiling=$2 out p50
  out="$(mktemp -d)"
  cargo run --locked --release -q --manifest-path kbench/Cargo.toml --bin kbench -- \
    --workload "$workload" --seed 1 --seconds 5 --out "$out" > "$out/stdout.txt"
  p50=$(awk '$1 == "host_ms_p50" && $3 == "ms" {print $2}' "$out/stdout.txt")
  rm -rf "$out"
  if [[ -z "$p50" ]]; then
    echo "ERROR: kbench $workload printed no host_ms_p50 line" >&2
    exit 1
  fi
  echo "$workload host_ms_p50 ${p50} ms (ceiling ${ceiling} ms)"
  if awk -v p="$p50" -v c="$ceiling" 'BEGIN {exit !(p > c)}'; then
    echo "ERROR: $workload host_ms_p50 ${p50} ms exceeds the ${ceiling} ms ceiling" >&2
    exit 1
  fi
}

echo "== peel host-time gate (kbench peel-deep host_ms_p50) =="
# The benchmark's thin-round workload (375 peel rounds on 108 one-warp
# blocks, one thread, 330 timed ops in 5 s). About 85% of its loop blocks
# have no work; each loop launch builds only its busy blocks and one idle
# block, and charges the other idle blocks that block's counters, so an
# op's host time follows its frontier.
# The ceiling is 1.5x the slowest of five calibration runs of this stage's
# command on a 2-core x86-64 box (19.99, 20.61, 22.05, 22.23 and 23.07 ms),
# rounded up to a whole ms; an earlier set on the same box, in a calmer
# phase, read 18.55-19.19 ms. It passes the peel from before the one-pass
# walk and the wave table (23-28 ms on that box) and flags a regression of
# half an op's host time or more, such as the neighbor walk charging lane
# by lane again, not noise.
host_gate peel-deep 35

echo "== hub host-time gate (kbench peel-hub host_ms_p50) =="
# The benchmark's hub-heavy peel (wiki-Talk stand-in at two rayon threads,
# 34 rounds): hub adjacency walks and atomics on a few vertices, where
# peel-deep has hundreds of thin rounds. The ceiling is 1.5x the slowest
# of five calibration runs of this stage's command on a 2-core x86-64 box
# (12.39, 13.15, 13.68, 14.65 and 15.17 ms), rounded up to a whole ms; an
# earlier set on the same box, in a calmer phase, read 12.26-12.90 ms.
host_gate peel-hub 23

echo "== sharded host-time gate (kbench shard-p4 host_ms_p50) =="
# The benchmark's only sharded workload (amazon0601 stand-in on four
# simulated devices), so it guards the sharded engine's host path, which
# neither peel gate takes: the partition build, the worker loads, each
# border exchange's one pass over the drained ghost slots, which applies
# every packet at its owner as it drains, and the seed launches. The
# ceiling is 1.5x the slowest of five calibration runs of this stage's
# command on a 2-core x86-64 box (22.99, 23.12, 23.42, 23.63 and
# 24.18 ms), rounded up to a whole ms. It passes the earlier exchange,
# which built the master's merged packet list on the host (about 29 ms on
# that box), and flags a regression of half an op's host time or more.
host_gate shard-p4 37

echo "== dataset cache smoke (KCORE_CACHE_DIR) =="
# Cold run populates the cache; warm run must serve from it without
# rewriting any entry (byte-identical output is pinned by the test suite;
# here we pin the hit/miss mechanics end to end through a table binary).
# Its one-row table goes to a throwaway dir, not over results/table1.*.
cargo build --locked --release -q -p kcore-bench
cache_dir="$(mktemp -d)"
cache_results="$(mktemp -d)"
trap 'rm -rf "$cache_dir" "$cache_results"' EXIT
KCORE_SMOKE=1 KCORE_DATASETS=amazon0601 KCORE_CACHE_DIR="$cache_dir" \
  KCORE_RESULTS_DIR="$cache_results" ./target/release/table1 > /dev/null
entries=$(find "$cache_dir" -name '*.kcsr' | wc -l)
if (( entries != 1 )); then
  echo "ERROR: cold run should write exactly 1 cache entry, found $entries" >&2
  exit 1
fi
stamp_before=$(find "$cache_dir" -name '*.kcsr' -exec stat -c '%y %n' {} \; | sort)
KCORE_SMOKE=1 KCORE_DATASETS=amazon0601 KCORE_CACHE_DIR="$cache_dir" \
  KCORE_RESULTS_DIR="$cache_results" ./target/release/table1 > /dev/null
stamp_after=$(find "$cache_dir" -name '*.kcsr' -exec stat -c '%y %n' {} \; | sort)
if [[ "$stamp_before" != "$stamp_after" ]]; then
  echo "ERROR: warm run rewrote cache entries (expected pure hits)" >&2
  exit 1
fi
if git check-ignore -q .kcore-cache/probe; then
  echo "cache smoke OK ($entries entry, warm hit, .kcore-cache gitignored)"
else
  echo "ERROR: .kcore-cache/ is not gitignored" >&2
  exit 1
fi

echo "== sweep smoke (Tables II, III, V and table_mem from one capture set) =="
# --check asserts that every cell computed the BZ core numbers, that each
# peel variant's device peak and allocation list do not move with the
# schedule seed, that no run finishing without OOM is forecast above 16 GB
# (the paper's kernel included), and that a trace document survives
# to_json -> serde_json::from_str -> to_string_pretty byte for byte and states
# schema_version 5 once, at its top level. All eight table files must be
# written.
sweep_results="$(mktemp -d)"
KCORE_SMOKE=1 KCORE_CACHE_DIR="$cache_dir" \
  KCORE_RESULTS_DIR="$sweep_results" ./target/release/sweep --check > /dev/null
for f in table2 table3 table5 table_mem; do
  for ext in txt json; do
    if [[ ! -s "$sweep_results/$f.$ext" ]]; then
      echo "ERROR: sweep did not write $f.$ext" >&2
      exit 1
    fi
  done
done
rm -rf "$sweep_results"
echo "sweep smoke OK"

echo "== sharded report smoke (scaling curve, fleet table, fit forecast) =="
# --check captures every (dataset, device count) cell once: the smoke
# datasets at 1/2/4/8 workers (2 and 4 also feed the fleet table) and
# uk-2005 @1x at 1/2/4/8 for the fit forecast. It asserts that every run
# computes the BZ cores and its fleet ledger reconciles (each sub-round
# slice charges exactly its slowest device's clock delta and each exchange
# its pack, hop and apply costs, bit-for-bit; the charges replay total_ms
# bit-for-bit; every exchange flow references a real pack/apply launch
# record); that one device exchanges zero bytes
# and charges bit-for-bit what the single-device engine charges; that the
# max per-device peak shrinks as the pool grows; that worker ledgers are
# shard-local at 4 devices; that each fleet-table run's .fleet.json document
# (the ledger with its worker traces) passes the same round trip as sweep's
# trace, and the run equals decompose_multi's run (cores, total_ms bits,
# worker fingerprints, exchanged bytes, sub-rounds); and that the uk-2005
# @1x forecast fits on <= 8 x 16 GB devices. All four files must be written.
scale_results="$(mktemp -d)"
KCORE_SMOKE=1 KCORE_CACHE_DIR="$cache_dir" \
  KCORE_RESULTS_DIR="$scale_results" ./target/release/table_scale --check > /dev/null
for f in table_scale table_fleet; do
  for ext in txt json; do
    if [[ ! -s "$scale_results/$f.$ext" ]]; then
      echo "ERROR: table_scale did not write $f.$ext" >&2
      exit 1
    fi
  done
done
rm -rf "$scale_results"
echo "table_scale smoke OK"

echo "== inspect smoke (one trace and one Perfetto document per engine, the fleet dumps) =="
# inspect is the one binary that runs engines in its own contexts
# (kcore_bench::capture_in, with block profiling armed on Ours) and the one
# that writes traces. On amazon0601 with KCORE_TIMELINE it must write, for
# every engine it prints, one non-empty trace and one non-empty Perfetto
# document rendered from it, named by the engine's slug, and the sharded
# p=4 run's non-empty .fleet.json ledger and merged Perfetto document.
# About 5 s; the engines' Perfetto documents take about 41 MB of the
# temporary directory (73 MB with the traces and the fleet dumps).
inspect_results="$(mktemp -d)"
KCORE_TIMELINE=1 KCORE_RESULTS_DIR="$inspect_results" \
  ./target/release/inspect amazon0601 > "$inspect_results/stdout.txt" 2> /dev/null
printed=0
for name in $(awk '/ ms  launches=/ {print $1}' "$inspect_results/stdout.txt"); do
  slug=$(tr 'A-Z' 'a-z' <<< "$name" | sed 's/[^a-z0-9]/_/g')
  for f in "amazon0601_$slug.json" "amazon0601_$slug.perfetto.json"; do
    if [[ ! -s "$inspect_results/traces/$f" ]]; then
      echo "ERROR: inspect printed $name but wrote no $f" >&2
      exit 1
    fi
  done
  printed=$((printed + 1))
done
traces=$(find "$inspect_results/traces" -name 'amazon0601_*.json' \
  ! -name '*.fleet.json' ! -name '*.perfetto.json' | wc -l)
if (( printed == 0 || traces != printed )); then
  echo "ERROR: inspect printed $printed engines but wrote $traces traces" >&2
  exit 1
fi
for f in amazon0601_fleet_p4.fleet.json amazon0601_fleet_p4.fleet.perfetto.json; do
  if [[ ! -s "$inspect_results/traces/$f" ]]; then
    echo "ERROR: inspect did not write $f" >&2
    exit 1
  fi
done
rm -rf "$inspect_results"
echo "inspect smoke OK ($printed engine traces and Perfetto documents, and the fleet dumps)"

echo "== exhaustive small-graph checks (release) =="
# tests/exhaustive.rs with its ignored sweeps. Every DynamicCore batch that
# toggles a set of vertex pairs of a graph, and toggles it back: every set
# on 4 vertices at 1, 2 and 16 blocks in rayon pools of 1 and 2, every set
# on 5 vertices at 1 block, and every set of at most 2 pairs on 6 vertices
# at 2 blocks (10.0 M batches). After each batch the host cores, device
# cores and device MCD equal BZ and the batch makes 3·G_I + G_D + 1
# launches. Also every Engine::all() value on every graph on at most 6
# vertices against BZ. Tier-1's debug run takes only the 4-vertex sweeps.
# 52 and 68 s in two runs on a 2-core x86-64 box (two test threads).
exhaustive_start=$(date +%s)
cargo test --locked --release -q --test exhaustive -- --include-ignored
echo "exhaustive checks took $(( $(date +%s) - exhaustive_start ))s"

echo "== dynamic maintenance smoke (batched engine vs BZ) =="
# --check replays the CI-sized valid churn stream through the batched GPU
# maintenance engine, asserts that no run rejects an update, verifies
# every run's final cores against a from-scratch BZ peel, and drives one
# pure-insert batch plus one pure-delete batch checked against BZ after
# each. From the transfer records it also asserts that every maintained
# batch, at every batch size, makes no host round trip between its
# traversals: at most two D2H copies, and no launch after the first of
# them. From the launch records it asserts one traversal per matching:
# exactly 3·G_I + G_D + 1 launches a batch, where G_I and G_D are the
# matchings a first fit makes of the net inserts and net deletes that the
# table's own EdgeSet mirror classifies.
# Results go to a throwaway dir so the full-scale
# results/table_dynamic.{txt,json} are never overwritten.
dyn_results="$(mktemp -d)"
KCORE_SMOKE=1 KCORE_RESULTS_DIR="$dyn_results" \
  ./target/release/table_dynamic --check > /dev/null
for ext in txt json; do
  if [[ ! -s "$dyn_results/table_dynamic.$ext" ]]; then
    echo "ERROR: table_dynamic did not write table_dynamic.$ext" >&2
    exit 1
  fi
done
rm -rf "$dyn_results"
echo "dynamic smoke OK"

echo "== full-size drift check (every simulated table) =="
# Every table binary but the wall-clock table4 runs at full size into a
# throwaway dir, and each of their twenty text and JSON files must equal
# the one committed under results/ byte for byte. No dataset cache: it
# would hold about 290 MB of full-size stand-ins. The six binaries took
# 127 s in all on a 2-core x86-64 box, sweep 97 s and table_scale 18 s of
# it.
drift_results="$(mktemp -d)"
for t in table1 table_dynamic fig10_case_study extensions sweep table_scale; do
  KCORE_RESULTS_DIR="$drift_results" ./target/release/$t > /dev/null
done
for f in table1 table_dynamic fig10 extensions table2 table3 table5 table_mem \
  table_scale table_fleet; do
  for ext in txt json; do
    if ! cmp "$drift_results/$f.$ext" "results/$f.$ext"; then
      echo "ERROR: results/$f.$ext is stale; regenerate it with scripts/run_all_experiments.sh" >&2
      exit 1
    fi
  done
done
rm -rf "$drift_results"
echo "drift check OK"

echo "== ci.sh: all green =="
