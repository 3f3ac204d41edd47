//! Regenerates **Table IV** (CPU programs) with [`kcore_bench::table4`]:
//! Ours (simulated GPU) against the measured wall-clock of the CPU
//! programs on this machine. Prints the table and writes
//! `results/table4.{txt,json}`.
//!
//! GPU-vs-CPU comparability caveat: the Ours column is simulated
//! (P100-calibrated) while CPU columns are real wall-clock on the host —
//! EXPERIMENTS.md discusses how to read the comparison.

use kcore_bench::{prepare_all, table4, write_files};

fn main() {
    write_files(&table4(&prepare_all()));
}
