//! Quickstart: build a graph, decompose it on the simulated GPU, inspect
//! shells and cores.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use kcore::cpu::{self, CoreAlgorithm};
use kcore::gpu::{decompose, PeelConfig, SimOptions};
use kcore::graph::GraphBuilder;

fn main() {
    // The paper's Fig. 1 graph: a 3-core clique, a 2-shell ring, pendants.
    let g = kcore::graph::fig1_graph();

    // Or build your own:
    let mut b = GraphBuilder::new();
    for (u, v) in [(0, 1), (1, 2), (2, 0), (2, 3)] {
        b.add_edge(u, v);
    }
    let triangle_with_tail = b.build();

    // GPU decomposition (Algorithm 1-3 on the SIMT simulator).
    let run = decompose(&g, &PeelConfig::ours(), &SimOptions::default()).expect("decompose");
    println!("core numbers: {:?}", run.core);
    println!(
        "k_max = {} (found in {} peeling rounds)",
        run.k_max(),
        run.iterations
    );
    println!(
        "simulated GPU time: {:.3} ms over {} kernel launches, peak device mem {} B",
        run.report.total_ms, run.report.launches, run.report.peak_mem_bytes
    );

    // Shell decomposition: who is in the k-shell for each k?
    for (k, shell) in cpu::shells(&run.core).iter().enumerate() {
        if !shell.is_empty() {
            println!("{k}-shell: {shell:?}");
        }
    }

    // The k-core = union of shells >= k; check the 2-core's min degree.
    let mask = cpu::kcore_mask(&run.core, 2);
    let sub = g.induced_mask(&mask);
    let min_deg = (0..sub.num_vertices())
        .filter(|&v| mask[v as usize])
        .map(|v| sub.degree(v))
        .min()
        .unwrap();
    println!(
        "2-core has {} vertices, min degree {min_deg} (>= 2 by definition)",
        mask.iter().filter(|&&m| m).count()
    );

    // Cross-check against the serial linear-time BZ algorithm.
    assert_eq!(run.core, cpu::bz::Bz.run(&g));
    let tail_run = decompose(
        &triangle_with_tail,
        &PeelConfig::ours(),
        &SimOptions::default(),
    )
    .expect("decompose");
    assert_eq!(tail_run.core, vec![2, 2, 2, 1]);
    println!("GPU and CPU agree ✓");
}
