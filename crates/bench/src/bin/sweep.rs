//! Regenerates **Tables II** (ablation), **III** (GPU programs) and **V**
//! (peak device memory) and the full-scale P100 capacity report
//! `table_mem` from one sweep that runs every cell once
//! ([`kcore_bench::Sweep`]). Prints the four tables and writes
//! `results/{table2,table3,table5,table_mem}.{txt,json}`.
//!
//! ```bash
//! cargo run --release -p kcore-bench --bin sweep [-- --check]
//! ```
//!
//! `--check` (used by `scripts/ci.sh`) then runs [`kcore_bench::Sweep::check`].

use kcore_bench::{prepare_all, runs, save, Sweep};

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let sweep = Sweep::run(&prepare_all(), runs());
    for (name, text) in sweep.files() {
        if name.ends_with(".txt") {
            print!("{text}");
        }
        save(&name, &text);
    }
    if check {
        sweep.check();
    }
}
