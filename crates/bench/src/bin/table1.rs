//! Regenerates **Table I** (datasets) with [`kcore_bench::table1`]: the 20
//! stand-ins next to the paper's published values, plus three
//! higher-fidelity `@2x` rows. Prints the table and writes
//! `results/table1.{txt,json}`.

use kcore_bench::{prepare, prepare_all, table1, write_files};
use kcore_graph::datasets;

fn main() {
    let mut envs = prepare_all();
    // Higher-fidelity @2x rows for the coarsest mid-size stand-ins (new
    // rows — the base entries above are unchanged). Skipped in smoke mode
    // and under an explicit dataset filter.
    if std::env::var_os("KCORE_SMOKE").is_none() && std::env::var_os("KCORE_DATASETS").is_none() {
        envs.extend(datasets::scaled_up_variants().into_iter().map(prepare));
    }
    write_files(&table1(&envs));
}
