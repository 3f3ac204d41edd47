//! Regenerates the **Fig. 10 case study** (temporal co-citation network
//! analysis) with [`kcore_bench::fig10_case_study`]. Prints the word-cloud
//! partition and writes `results/fig10.{txt,json}`.

use kcore_bench::{fig10_case_study, write_files};

fn main() {
    write_files(&fig10_case_study());
}
