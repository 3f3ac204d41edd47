//! The sharded report ([`kcore_bench::ShardReport`]): the billion-edge
//! scaling curve across 1/2/4/8 worker devices with the uk-2005 full-scale
//! fit forecast, and the fleet table at 2 and 4 devices, from one run per
//! (dataset, device count) cell (DESIGN.md "Sharded decomposition"). Prints
//! both tables and writes `results/{table_scale,table_fleet}.{txt,json}`.
//!
//! ```bash
//! cargo run --release -p kcore-bench --bin table_scale [-- --check]
//! ```
//!
//! The fleet table honors `KCORE_SMOKE` / `KCORE_DATASETS`; set
//! `KCORE_TIMELINE=1` to also dump each run's fleet trace and merged
//! multi-device Perfetto document under `results/traces/`. `--check` (used
//! by `scripts/ci.sh`) runs the curve on the selected datasets instead of
//! the `@2x` stand-ins and asserts the sharded contract
//! ([`kcore_bench::ShardReport::run`]).

use kcore_bench::{write_files, ShardReport};

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    write_files(&ShardReport::run(check).files());
}
