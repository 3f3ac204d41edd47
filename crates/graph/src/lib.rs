//! Graph substrate for the k-core decomposition suite.
//!
//! This crate provides everything the algorithms need from a graph:
//!
//! * [`Csr`] — the compressed-sparse-row representation used verbatim by the
//!   paper (§IV "Graph Organization in GPU": `neighbors`, `offset`, `deg`).
//! * [`GraphBuilder`] — normalizing builder (undirect, dedup, drop self-loops,
//!   dense ID recoding) so every algorithm sees a *simple undirected* graph.
//! * [`io`] — SNAP-style edge-list text loading/saving (streaming and
//!   parallel in-memory paths with identical output).
//! * [`binio`] — versioned, checksummed binary CSR files (`.kcsr`).
//! * [`gen`] — synthetic generators (Erdős–Rényi, RMAT, Barabási–Albert,
//!   tracker-skew, web-crawl-like, temporal co-authorship, …).
//! * [`datasets`] — a registry of 20 named stand-ins mirroring Table I of the
//!   paper at reduced scale (see DESIGN.md for the substitution rationale).
//! * [`cache`] — the `KCORE_CACHE_DIR` dataset cache: generate once, load
//!   the binary CSR afterwards.
//! * [`stats`] — the per-dataset statistics columns of Table I.
//!
//! # Example
//!
//! ```
//! use kcore_graph::{GraphBuilder, gen};
//!
//! // The example graph of Fig. 1 is tiny; build your own the same way:
//! let mut b = GraphBuilder::new();
//! b.add_edge(0, 1);
//! b.add_edge(1, 2);
//! b.add_edge(2, 0);
//! let g = b.build();
//! assert_eq!(g.num_vertices(), 3);
//! assert_eq!(g.degree(0), 2);
//!
//! // Or generate a synthetic one:
//! let g = gen::erdos_renyi_gnm(1_000, 5_000, 42);
//! assert_eq!(g.num_vertices(), 1_000);
//! ```

pub mod binio;
pub mod builder;
pub mod cache;
pub mod csr;
pub mod datasets;
pub mod gen;
pub mod io;
pub mod partition;
pub mod recode;
pub mod stats;
pub mod update;

pub use builder::{BuildPath, GraphBuilder};
pub use csr::{Csr, VertexId};
pub use partition::{Partition, PartitionStats, PartitionStrategy, PeerStats, Shard, ShardStats};
pub use stats::GraphStats;
pub use update::{EdgeSet, EdgeUpdate, NetBatch};

/// Canonical example graph of the paper's Fig. 1.
///
/// 12 vertices: a 4-clique core (red, 3-shell), a yellow ring attached to it
/// (2-shell) and green pendant vertices (1-shell). Vertex indices:
///
/// * `0..4`  — the 3-shell clique (core numbers 3),
/// * `4..9`  — the 2-shell (core numbers 2); vertex 4 plays the role of the
///   paper's vertex `A` (degree 3 but core 2) and vertex 5 the role of `B`,
/// * `9..12` — degree-1 pendants (core numbers 1).
pub fn fig1_graph() -> Csr {
    let mut b = GraphBuilder::new();
    // 3-shell: K4 on {0,1,2,3}
    for u in 0..4u32 {
        for v in (u + 1)..4 {
            b.add_edge(u, v);
        }
    }
    // 2-shell ring {4,5,6,7,8}: A=4 has degree 3 (edges to 0, 5, 6) but its
    // neighbor B=5 has degree 2, so core(A)=2 exactly as in the paper.
    b.add_edge(4, 0); // A touches the 3-core
    b.add_edge(4, 5); // A - B
    b.add_edge(4, 6);
    b.add_edge(5, 6); // B closes a triangle with A's other neighbor
    b.add_edge(6, 7);
    b.add_edge(7, 8);
    b.add_edge(8, 1); // ring re-enters the clique region
                      // 1-shell pendants
    b.add_edge(9, 2);
    b.add_edge(10, 7);
    b.add_edge(11, 5);
    b.build()
}

/// Expected core numbers for [`fig1_graph`], used across the test suites.
pub fn fig1_core_numbers() -> Vec<u32> {
    vec![3, 3, 3, 3, 2, 2, 2, 2, 2, 1, 1, 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_has_expected_shape() {
        let g = fig1_graph();
        assert_eq!(g.num_vertices(), 12);
        // A (=4) has degree 3 as in the paper's narrative.
        assert_eq!(g.degree(4), 3);
        // B (=5) has degree 3 here (A, 6, pendant 11): removing the pendant
        // in round 1 leaves it with degree 2 for round 2, mirroring Fig. 1.
        assert_eq!(g.degree(5), 3);
        // pendants have degree 1
        for v in 9..12 {
            assert_eq!(g.degree(v), 1);
        }
    }

    #[test]
    fn fig1_core_numbers_match_reference_peeling() {
        // Reference O(n^2) peeling, independent of the kcore-cpu crate.
        let g = fig1_graph();
        let n = g.num_vertices() as usize;
        let mut deg: Vec<u32> = (0..n as u32).map(|v| g.degree(v)).collect();
        let mut removed = vec![false; n];
        let mut core = vec![0u32; n];
        let mut k = 0u32;
        for _ in 0..n {
            // find min-degree unremoved vertex
            let (v, &d) = deg
                .iter()
                .enumerate()
                .filter(|(v, _)| !removed[*v])
                .min_by_key(|(_, d)| **d)
                .unwrap();
            k = k.max(d);
            core[v] = k;
            removed[v] = true;
            for &u in g.neighbors(v as u32) {
                if !removed[u as usize] {
                    deg[u as usize] -= 1;
                }
            }
        }
        assert_eq!(core, fig1_core_numbers());
    }
}
