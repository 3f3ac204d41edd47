//! Regenerates the **dynamic maintenance table**
//! ([`kcore_bench::table_dynamic`]): updates/sec of the batched GPU
//! maintenance engine against a full re-peel per update. Prints the table
//! and writes `results/table_dynamic.{txt,json}`.
//!
//! ```bash
//! cargo run --release -p kcore-bench --bin table_dynamic [-- --check]
//! ```
//!
//! `KCORE_SMOKE=1` shrinks the workload to CI size; `--check` asserts the
//! engine's correctness and crossover contract.

use kcore_bench::{table_dynamic, write_files};

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let smoke = std::env::var_os("KCORE_SMOKE").is_some();
    write_files(&table_dynamic(smoke, check));
}
