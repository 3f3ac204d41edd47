//! Extension experiments beyond the paper's tables
//! ([`kcore_bench::extensions`]): the ring-buffer ablation and peeling vs
//! direct GPU-MPM vs Medusa-MPM. Prints both tables and writes
//! `results/extensions.{txt,json}`.

use kcore_bench::{extensions, write_files};

fn main() {
    write_files(&extensions());
}
