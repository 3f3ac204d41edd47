//! Dense-community detection in a social network — the paper's first
//! motivating application ("detecting dense social communities").
//!
//! Generates an Orkut-like synthetic social network, runs the GPU peeling
//! algorithm, inspects the core-number distribution, and extracts the
//! deepest community, the `k_max`-core.
//!
//! ```bash
//! cargo run --release --example social_communities
//! ```

use kcore::gpu::{decompose, PeelConfig, SimOptions};
use kcore::graph::gen;

fn main() {
    // Orkut-style: heavy-tailed R-MAT with a planted tight community.
    let base = gen::rmat(14, 120_000, gen::RmatParams::graph500(), 2024);
    let g = gen::plant_clique(&base, 24, 7);
    println!(
        "social network: |V|={} |E|={} d_max={}",
        g.num_vertices(),
        g.num_edges(),
        g.max_degree()
    );

    let cfg = PeelConfig {
        buf_capacity: 65_536,
        ..PeelConfig::default()
    };
    let run = decompose(&g, &cfg, &SimOptions::default()).expect("decompose");
    let k_max = run.k_max();
    println!(
        "decomposed in {:.2} simulated ms ({} rounds); k_max = {k_max}",
        run.report.total_ms, run.iterations
    );

    // Core-size distribution: how many members survive at each depth?
    println!("\nk-core sizes (vertices with core >= k):");
    let mut levels: Vec<u32> = std::iter::successors(Some(1u32), |k| Some(k * 2))
        .take_while(|&k| k < k_max)
        .collect();
    levels.push(k_max);
    for k in levels {
        let size = run.core.iter().filter(|&&c| c >= k).count();
        println!("  {k:>4}-core: {size:>7} vertices");
    }

    // The deepest community: the k_max-core (the planted clique should
    // dominate it).
    let deepest = run.core.iter().filter(|&&c| c == k_max).count();
    println!("\nmost tightly-knit community (k_max-core): {deepest} members");
}
