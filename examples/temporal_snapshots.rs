//! Continuous decomposition of an evolving network — the case-study
//! motivation of §VI ("tracking an evolving interaction network such as
//! online social networks or collaboration networks").
//!
//! Generates a growing co-authorship corpus, re-runs the GPU decomposition
//! on each yearly snapshot, and tracks how the most-active core evolves:
//! `k_max` trend, core size, churn of the `k_max`-core membership.
//!
//! ```bash
//! cargo run --release --example temporal_snapshots
//! ```

use kcore::gpu::{decompose, PeelConfig, SimOptions};
use kcore::graph::gen::temporal::{generate_corpus, CorpusParams};
use std::collections::BTreeSet;

fn main() {
    let params = CorpusParams {
        start_year: 1990,
        end_year: 2000,
        ..CorpusParams::default()
    };
    let corpus = generate_corpus(&params, 11);
    println!(
        "corpus: {} papers, {} authors, {}..{}",
        corpus.papers.len(),
        corpus.num_authors,
        params.start_year,
        params.end_year
    );

    let cfg = PeelConfig {
        buf_capacity: 65_536,
        ..PeelConfig::default()
    };
    let opts = SimOptions::default();

    println!("\nyear   |V|      |E|      k_max  |core|  entered  left   sim-ms");
    let mut prev_core: BTreeSet<u32> = BTreeSet::new();
    let mut total_ms = 0.0;
    for year in params.start_year..=params.end_year {
        let g = corpus.interaction_snapshot(year);
        let run = decompose(&g, &cfg, &opts).expect("decompose");
        let km = run.k_max();
        let members: BTreeSet<u32> = run
            .core
            .iter()
            .enumerate()
            .filter_map(|(v, &c)| (km > 0 && c == km).then_some(v as u32))
            .collect();
        let entered = members.difference(&prev_core).count();
        let left = prev_core.difference(&members).count();
        total_ms += run.report.total_ms;
        println!(
            "{year}  {:>7}  {:>8}  {:>5}  {:>5}  {:>7}  {:>5}  {:>7.2}",
            g.num_vertices(),
            g.num_edges(),
            km,
            members.len(),
            entered,
            left,
            run.report.total_ms
        );
        prev_core = members;
    }
    println!(
        "\n{} snapshots decomposed in {total_ms:.2} simulated ms total — cheap enough to run \
         per-snapshot, which is the point of a fast decomposition kernel.",
        params.end_year - params.start_year + 1
    );
}
